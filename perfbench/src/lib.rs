//! The repository benchmark for the TPS-Java simulator.
//!
//! The `perfbench` binary runs one workload for a fixed wall-clock
//! budget and prints its end-to-end metrics (or, traced, its per-layer
//! split) as one JSON line; `README.md` beside this package says which
//! workloads exist and why. This library holds the parts the
//! benchmark's own tests exercise: the order statistics and the traced
//! tick-model loop.

pub mod stats;
pub mod tick;
