//! Observability layer for the TPS-Java reproduction.
//!
//! Four facilities (see DESIGN.md §8 and §13):
//!
//! * [`Tracer`] — a ring-buffered structured-event recorder that the
//!   core crates (`paging`, `ksm`, `oskernel`, `jvm`, `hypervisor`)
//!   emit typed [`TraceEvent`]s into. Disabled tracers cost one branch
//!   per emission site; enabled ones record a seed-deterministic,
//!   totally ordered event stream exportable as JSONL.
//! * [`TraceLog`] — the drained trace: the events still in the ring
//!   and how many it dropped.
//! * [`Profiler`] — the one wall clock: per-phase wall-clock /
//!   simulated-tick / pages accounting, always on, for every phase of
//!   a world's step and runs and for the KSM wake's two steps.
//! * [`MetricsRegistry`] — a deterministic counter/gauge/histogram
//!   registry with Prometheus-style text exposition, split into
//!   byte-identical simulated-state series and clearly separated
//!   wall-clock series (DESIGN.md §13).
//!
//! This crate depends only on `std` (events carry raw numeric ids, not
//! the upper layers' newtypes), so every other crate in the workspace
//! can depend on it without cycles.
//!
//! # Example
//!
//! ```
//! use obs::{EventKind, Tracer};
//!
//! let mut tracer = Tracer::new();
//! tracer.enable(None);
//! tracer.set_now(7);
//! tracer.emit_with(|| EventKind::StaleNodeDrop { frame: 3 });
//! let log = tracer.take_log();
//! assert_eq!(log.to_jsonl(), "{\"seq\":0,\"tick\":7,\"event\":\"stale_node_drop\",\"frame\":3}\n");
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod event;
mod metrics;
mod profile;
mod tracer;

pub use event::{EventKind, TraceEvent};
pub use metrics::{MetricClass, MetricsRegistry, HISTOGRAM_BUCKETS};
pub use profile::{PhaseReport, PhaseStat, Profiler};
pub use tracer::{TraceLog, Tracer, DEFAULT_CAPACITY};
