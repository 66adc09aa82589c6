//! The paper's benchmark workloads and their client drivers.
//!
//! Presets reproduce Table III of the paper:
//!
//! | Benchmark | Heap | Shared class cache | Driver |
//! |---|---|---|---|
//! | DayTrader 2.0 (WAS, Intel) | 530 MB | 120 MB | 12 client threads |
//! | SPECjEnterprise 2010 | 730 MB (or 530 MB nursery + 200 MB tenured generational, §V.C) | 120 MB | injection rate 15 |
//! | TPC-W (Java impl.) | 512 MB | 120 MB | 10 client threads |
//! | Tuscany bigbank demo | 32 MB | 25 MB | 7 client threads |
//! | DayTrader 2.0 (WAS, POWER) | 1.0 GB | 120 MB | 25 client threads |
//!
//! Every preset is an [`AppProfile`](jvm::AppProfile) whose area sizes are
//! calibrated so the per-process breakdown matches the paper's Fig. 3
//! (≈750 MB resident for a DayTrader WAS process, dominated by the heap,
//! with ≈110 MB of class metadata of which ≈100 MB is read-only and
//! cache-eligible).
//!
//! A benchmark's [`DriveModel`] — the paper's closed-loop or
//! injection-rate driver — turns the hypervisor's memory-pressure
//! slowdown factor into the throughput numbers of Figs. 7–8, derives the
//! per-request memory cost the traffic engine charges a JVM, and applies
//! the [`SlaModel`]. Typed [`WorkloadEvent`]s carry request batches and
//! guest-churn operations from the traffic engine to the experiment's
//! world.
//!
//! # Example
//!
//! ```
//! use workloads::daytrader;
//!
//! let b = daytrader();
//! assert!((b.profile.heap.heap_mib - 530.0).abs() < 1.0);
//! assert!(b.profile.footprint_mib() > 700.0);
//! // 12 client threads on a 0.65 s cycle ⇒ ≈18.5 requests/s healthy.
//! assert!((b.drive.healthy_rps() - 18.46).abs() < 0.01);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod presets;
mod workload;

pub use presets::{
    daytrader, daytrader_power, specjenterprise, specjenterprise_generational, tpcw, tuscany,
    Benchmark,
};
pub use workload::{DriveModel, SlaModel, SlaOutcome, WorkloadEvent};
