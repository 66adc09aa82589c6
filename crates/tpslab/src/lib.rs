//! TPS-Lab: the experiment orchestrator for the ISPASS 2013 paper
//! *"Increasing the Transparent Page Sharing in Java"*.
//!
//! This is the crate downstream users interact with. It composes the
//! substrate crates — host memory ([`paging`]), the KSM and PowerVM
//! scanners ([`ksm`]), guest OSes ([`oskernel`]), the component-level JVM
//! model ([`jvm`]), the shared class cache ([`cds`]), the hypervisor
//! hosts ([`hypervisor`]), the benchmark presets ([`workloads`]) and the
//! frame-attribution methodology ([`analysis`]) — into reproducible
//! experiments:
//!
//! * [`ExperimentConfig`] describes a host, its guests (each running a
//!   benchmark in a JVM), the KSM schedule, and whether the paper's
//!   class-preloading technique is enabled.
//! * [`Experiment::run`] simulates the whole thing tick by tick and
//!   returns an [`ExperimentReport`] with the per-guest and
//!   per-Java-process breakdowns of Figs. 2–5, KSM statistics, and the
//!   over-commit throughput estimates of Figs. 7–8.
//! * [`Experiment::run_traffic`] drives the same fleet with the
//!   discrete-event request engine ([`traffic`]) instead of the scripted
//!   tick loop, reporting sharing stability and throughput versus
//!   offered load under scenarios like rolling deploys and flash crowds.
//! * [`Daemon`] (`tpsd`) runs either kind of experiment as a persistent
//!   monitoring service: a ticker thread advances the simulation while
//!   concurrent queries over a local socket read Prometheus-style
//!   metrics ([`telemetry`]), per-guest attribution JSON and a live
//!   `top`-style fleet table — all from the state published at the
//!   last simulated second.
//! * [`PowerVmExperiment`] reproduces the Fig. 6 PowerVM/AIX comparison.
//!
//! Invalid configurations surface as a typed [`Error`], not a panic.
//!
//! # Quick start
//!
//! ```
//! use tpslab::{Experiment, ExperimentConfig};
//!
//! // A miniature two-guest experiment (unit-test sized).
//! let baseline = ExperimentConfig::tiny_test(2, false);
//! let report = Experiment::run(&baseline).unwrap();
//! let shared = ExperimentConfig::tiny_test(2, true);
//! let report_cds = Experiment::run(&shared).unwrap();
//!
//! // Class sharing raises cross-VM page sharing.
//! let saving = |r: &tpslab::ExperimentReport| {
//!     r.breakdown.guests.iter().map(|g| g.tps_saving_mib()).sum::<f64>()
//! };
//! assert!(saving(&report_cds) > saving(&report));
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod config;
mod daemon;
mod error;
mod powervm;
mod report;
mod run;
pub mod telemetry;
mod traffic_run;
mod world;

pub use config::{ExperimentConfig, GuestSpec, KsmSchedule, TimelineConfig};
pub use daemon::{http_get, render_guests, Daemon, DaemonConfig};
pub use error::Error;
pub use powervm::{PowerVmExperiment, PowerVmFigure};
pub use report::{ExperimentReport, TimelinePoint, VmThroughput};
pub use run::Experiment;
pub use traffic_run::{GuestTraffic, TrafficReport, TrafficSample, TrafficWall};

// Re-export the component crates for downstream users.
pub use analysis;
pub use audit;
pub use cds;
pub use hypervisor;
pub use jvm;
pub use ksm;
pub use obs;
pub use oskernel;
pub use paging;
pub use traffic;
pub use workloads;
