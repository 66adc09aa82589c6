//! The workload API: a [`DriveModel`] plus typed [`WorkloadEvent`]s.
//!
//! The old API was a `ClientDriver` enum the experiment loop matched on
//! every tick. Under the request-driven traffic engine the workload side
//! is instead described once — healthy rate, throughput curve, SLA rule,
//! per-request memory cost — and *events* flow from the traffic engine to
//! the consumers (`jvm` for request work, the hypervisor layer for guest
//! churn). The experiment loop never matches on driver internals again.

use jvm::{AppProfile, RequestCost};

/// How a benchmark's clients drive it: either a closed loop of client
/// threads (DayTrader, TPC-W, Tuscany) or a fixed injection rate
/// (SPECjEnterprise 2010). Its methods are the workload as the traffic
/// engine sees it: how fast its clients drive a healthy guest, how
/// throughput degrades under memory pressure, what response-time SLA
/// applies, and what one request costs the JVM.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum DriveModel {
    /// Closed-loop: `threads` clients, each issuing a request every
    /// `cycle_seconds` (service + think time) when the server is healthy.
    ClosedLoop {
        /// Concurrent client threads per guest VM.
        threads: u32,
        /// Seconds per request cycle per thread at zero memory pressure.
        cycle_seconds: f64,
    },
    /// Open-loop at a fixed injection rate (transactions are injected
    /// regardless of completion — the SPECjEnterprise driver), with a
    /// response-time SLA the score must meet to count.
    OpenLoop {
        /// The benchmark's injection-rate parameter.
        rate: u32,
        /// EjOPS produced per unit of injection rate on healthy hardware
        /// (the paper observes "around 24 \[EjOPS\], which is the
        /// appropriate score for an injection rate of 15" ⇒ 1.6).
        ops_per_rate: f64,
        /// The benchmark's response-time SLA.
        sla: SlaModel,
    },
}

impl DriveModel {
    /// Closed-loop driver.
    #[must_use]
    pub fn closed_loop(threads: u32, cycle_seconds: f64) -> DriveModel {
        DriveModel::ClosedLoop {
            threads,
            cycle_seconds,
        }
    }

    /// Open-loop driver under the SPECjEnterprise SLA.
    #[must_use]
    pub fn open_loop(rate: u32, ops_per_rate: f64) -> DriveModel {
        DriveModel::OpenLoop {
            rate,
            ops_per_rate,
            sla: SlaModel::specj(),
        }
    }

    /// Healthy per-VM request (or operation) rate, requests/sec, at zero
    /// memory pressure.
    #[must_use]
    pub fn healthy_rps(&self) -> f64 {
        match *self {
            DriveModel::ClosedLoop {
                threads,
                cycle_seconds,
            } => f64::from(threads) / cycle_seconds,
            DriveModel::OpenLoop {
                rate, ops_per_rate, ..
            } => f64::from(rate) * ops_per_rate,
        }
    }

    /// Per-VM throughput under a memory-pressure `slowdown` factor in
    /// `(0, 1]` (1 = no pressure). In a closed loop, service-time
    /// inflation divides throughput directly; in an open loop the score
    /// saturates at the injected work.
    ///
    /// # Panics
    ///
    /// Panics if `slowdown` is not in `(0, 1]`.
    #[must_use]
    pub fn throughput(&self, slowdown: f64) -> f64 {
        assert!(
            slowdown > 0.0 && slowdown <= 1.0,
            "slowdown must be in (0, 1]"
        );
        self.healthy_rps() * slowdown
    }

    /// The SLA outcome when memory pressure inflates service times by
    /// `slowdown`.
    #[must_use]
    pub fn sla(&self, slowdown: f64) -> SlaOutcome {
        match *self {
            // A closed loop has no formal response-time limit; past a 2×
            // service-time inflation the run is considered degraded.
            DriveModel::ClosedLoop { .. } => {
                if slowdown > 0.5 {
                    SlaOutcome::Met
                } else {
                    SlaOutcome::Violated
                }
            }
            DriveModel::OpenLoop { sla, .. } => sla.check(slowdown),
        }
    }

    /// The memory side effects of one request against `profile`,
    /// calibrated so this workload's healthy rate reproduces the
    /// profile's per-second churn.
    #[must_use]
    pub fn request_cost(&self, profile: &AppProfile) -> RequestCost {
        RequestCost::for_profile(profile, self.healthy_rps())
    }
}

/// Outcome of an SLA check (Fig. 8 annotates the 7-VM default bar
/// "Response time did not meet SLA").
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SlaOutcome {
    /// Response times within the benchmark's limits.
    Met,
    /// Degraded: the run's score does not count.
    Violated,
}

/// SPECjEnterprise-style response-time SLA: the benchmark requires 90 %
/// of transactions under a fixed limit; once memory pressure inflates
/// service times past `max_slowdown`, the run fails the SLA.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct SlaModel {
    /// Smallest slowdown factor that still meets response-time limits.
    pub max_slowdown: f64,
}

impl SlaModel {
    /// The paper's SPECjEnterprise setting: scores "around 24" pass;
    /// the degraded score of 15 (≈0.63 of healthy) fails.
    #[must_use]
    pub fn specj() -> SlaModel {
        SlaModel { max_slowdown: 0.9 }
    }

    /// Checks a slowdown factor against the SLA.
    #[must_use]
    pub fn check(&self, slowdown: f64) -> SlaOutcome {
        if slowdown >= self.max_slowdown {
            SlaOutcome::Met
        } else {
            SlaOutcome::Violated
        }
    }
}

/// A typed event from the traffic engine to the experiment's world:
/// request batches for guest JVMs, guest-churn operations for the
/// hypervisor layer, and phase markers for tracing.
///
/// Guests are addressed by fleet index (launch order), which stays
/// stable across restarts; the consumer owns the index→VM mapping.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum WorkloadEvent {
    /// Deliver `offered` requests to guest `guest`. The consumer decides
    /// how many are actually served from the guest's current capacity
    /// under memory pressure; the rest are shed.
    Requests {
        /// Fleet index of the target guest.
        guest: usize,
        /// Requests offered in this batch.
        offered: u64,
    },
    /// Advance guest `guest`'s wall-clock start-up phases (class
    /// loading, heap warm-up, work-area materialisation). Scheduled once
    /// per simulated second per booting guest and never again once
    /// start-up completes — this is what keeps idle guests off the
    /// per-tick path.
    StartupTick {
        /// Fleet index of the booting guest.
        guest: usize,
    },
    /// Restart the JVM in guest `guest` (a rolling-deploy wave): the old
    /// process dies, a fresh one boots and re-maps the shared class
    /// cache, re-creating the CDS merge opportunity.
    RestartGuest {
        /// Fleet index of the guest to restart.
        guest: usize,
    },
    /// Boot a new guest (autoscale up).
    AddGuest {
        /// Fleet index the new guest will occupy.
        guest: usize,
    },
    /// Drain and stop a guest's JVM (autoscale down); its memory is
    /// released back to the host.
    RemoveGuest {
        /// Fleet index of the guest to drain.
        guest: usize,
    },
    /// The scenario entered a new load phase (also emitted to the trace
    /// as a `traffic_phase` event so `explain` can attribute misses).
    Phase {
        /// Ordinal of the phase within the scenario (0-based).
        phase: u32,
        /// Offered fleet-wide load during this phase, requests/sec.
        offered_rps: f64,
    },
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn daytrader_drive_yields_the_papers_8vm_plateau() {
        // The paper's DayTrader plateau of ≈148 r/s at 8 healthy VMs
        // implies ≈18.5 r/s per VM: 12 threads at a 0.65 s cycle.
        let d = DriveModel::closed_loop(12, 0.65);
        let eight_vms = 8.0 * d.healthy_rps();
        assert!((eight_vms - 148.1).abs() < 2.0, "8-VM total {eight_vms}");
    }

    #[test]
    fn closed_loop_scales_with_slowdown() {
        let d = DriveModel::closed_loop(10, 1.0);
        assert_eq!(d.throughput(1.0), 10.0);
        assert_eq!(d.throughput(0.5), 5.0);
    }

    #[test]
    fn injection_rate_score() {
        let d = DriveModel::open_loop(15, 1.6);
        assert!((d.healthy_rps() - 24.0).abs() < 1e-9);
    }

    #[test]
    #[should_panic(expected = "slowdown")]
    fn invalid_slowdown_rejected() {
        let _ = DriveModel::closed_loop(1, 1.0).throughput(0.0);
    }

    #[test]
    fn sla_boundary() {
        let sla = SlaModel::specj();
        assert_eq!(sla.check(1.0), SlaOutcome::Met);
        assert_eq!(sla.check(0.95), SlaOutcome::Met);
        assert_eq!(sla.check(0.63), SlaOutcome::Violated);
    }

    #[test]
    fn drive_models_apply_their_sla_rules() {
        let open = DriveModel::open_loop(15, 1.6);
        assert_eq!(open.sla(0.95), SlaOutcome::Met);
        assert_eq!(open.sla(0.8), SlaOutcome::Violated);
        let closed = DriveModel::closed_loop(12, 0.65);
        assert_eq!(closed.sla(0.6), SlaOutcome::Met);
        assert_eq!(closed.sla(0.4), SlaOutcome::Violated);
    }

    #[test]
    fn request_cost_calibrated_to_healthy_rate() {
        let d = DriveModel::closed_loop(12, 0.65);
        let profile = AppProfile::tiny_test();
        let cost = d.request_cost(&profile);
        let pages_per_sec = cost.heap_alloc_pages * d.healthy_rps();
        let tick_model = mem::mib_to_pages(profile.heap.alloc_mib_per_sec) as f64;
        assert!((pages_per_sec - tick_model).abs() < 1e-9);
    }
}
