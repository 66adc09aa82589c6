//! Experiment results.

use analysis::BreakdownReport;
use ksm::KsmStats;
use workloads::SlaOutcome;

/// Throughput estimate for one guest VM under the measured memory
/// pressure.
#[derive(Debug, Clone, PartialEq)]
pub struct VmThroughput {
    /// Guest name.
    pub name: String,
    /// Requests/s (closed-loop drivers) or EjOPS (injection-rate
    /// drivers).
    pub throughput: f64,
    /// Whether response times met the SLA.
    pub sla: SlaOutcome,
}

/// One sample of the sharing timeline.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct TimelinePoint {
    /// Simulated seconds since the start of the run.
    pub seconds: f64,
    /// Host physical memory in use, MiB.
    pub resident_mib: f64,
    /// Pages currently deduplicated by KSM (saved copies).
    pub pages_sharing: u64,
    /// Distinct stable-tree frames.
    pub pages_shared: u64,
    /// Full scan passes completed so far.
    pub full_scans: u64,
    /// Change in every scanner counter since the previous sample
    /// ([`KsmStats::delta`]); the first sample's delta is measured from
    /// zeroed stats.
    pub delta: KsmStats,
    /// TPS saving from the full attribution walk, MiB. `None` unless
    /// [`ExperimentConfig::with_timeline_attribution`] enabled the
    /// per-sample walk.
    ///
    /// [`ExperimentConfig::with_timeline_attribution`]:
    ///     crate::ExperimentConfig::with_timeline_attribution
    pub tps_saving_mib: Option<f64>,
}

/// Everything an experiment produces.
#[derive(Debug, Clone)]
pub struct ExperimentReport {
    /// Per-guest and per-Java-process memory breakdowns (Figs. 2–5).
    pub breakdown: BreakdownReport,
    /// KSM scanner statistics at the end of the run.
    pub ksm: KsmStats,
    /// Host physical memory in use, MiB.
    pub resident_mib: f64,
    /// Host RAM usable by guests, MiB.
    pub usable_mib: f64,
    /// Memory-pressure slowdown factor in `(0, 1]` (1 = healthy).
    pub slowdown: f64,
    /// Host memory mapped through 2 MiB huge frames at the end of the
    /// run, MiB. Zero under the default `ThpPolicy::Never`.
    pub huge_mib: f64,
    /// TLB-reach throughput credit in `[1, 1 + gain]` from the final
    /// huge-page fraction ([`hypervisor::PagingModel::tlb_boost`]);
    /// exactly `1.0` when no memory is huge-mapped. The per-guest
    /// throughput figures already include it (capped at the healthy
    /// rate).
    pub tlb_boost: f64,
    /// Per-guest throughput estimates (Figs. 7–8).
    pub throughput: Vec<VmThroughput>,
    /// Shared-class-cache utilisation per distinct workload:
    /// `(cache name, classes stored, populated MiB)`. Empty when class
    /// sharing is off.
    pub caches: Vec<(String, usize, f64)>,
    /// Sharing-over-time samples (empty unless
    /// [`ExperimentConfig::with_timeline`](crate::ExperimentConfig::with_timeline)
    /// was used).
    pub timeline: Vec<TimelinePoint>,
    /// Merge-miss diagnostics over the final state (`None` unless
    /// [`ExperimentConfig::with_diagnose`](crate::ExperimentConfig::with_diagnose)
    /// was used).
    pub merge_miss: Option<analysis::MergeMissReport>,
    /// Mappings whose write once COW-broke a KSM-merged page by the end
    /// of the run ([`paging::HostMm::cow_broken_mappings`]), traced or
    /// not.
    pub cow_broken_mappings: u64,
    /// Per-phase wall-clock profile of the run (DESIGN.md §8). Unlike
    /// every other field it varies run to run.
    pub phases: obs::PhaseReport,
    /// The page-lifecycle event trace (`None` unless
    /// [`ExperimentConfig::with_trace`](crate::ExperimentConfig::with_trace)
    /// was used).
    pub trace: Option<obs::TraceLog>,
}

impl ExperimentReport {
    /// Total throughput across guests.
    #[must_use]
    pub fn total_throughput(&self) -> f64 {
        self.throughput.iter().map(|t| t.throughput).sum()
    }

    /// Total TPS saving across guests, MiB.
    #[must_use]
    pub fn total_tps_saving_mib(&self) -> f64 {
        self.breakdown
            .guests
            .iter()
            .map(|g| g.tps_saving_mib())
            .sum()
    }

    /// The Java processes that are *not* the owner of the TPS-shared
    /// frames — the paper's "non-primary" processes. The primary is the
    /// process charged the most physical memory (the owner-oriented rule
    /// concentrates all shared frames on one Java process).
    #[must_use]
    pub fn nonprimary_javas(&self) -> Vec<&analysis::JavaBreakdown> {
        if self.breakdown.javas.len() <= 1 {
            return Vec::new();
        }
        let primary = self
            .breakdown
            .javas
            .iter()
            .enumerate()
            .max_by(|(_, a), (_, b)| {
                a.owned_total_mib()
                    .partial_cmp(&b.owned_total_mib())
                    .expect("owned sizes are finite")
            })
            .map(|(i, _)| i)
            .expect("at least two javas");
        self.breakdown
            .javas
            .iter()
            .enumerate()
            .filter(|&(i, _)| i != primary)
            .map(|(_, j)| j)
            .collect()
    }

    /// Mean TPS saving of the non-primary Java processes, MiB — the
    /// paper's headline per-process number (≈20 MB baseline, ≈120 MB with
    /// preloading).
    #[must_use]
    pub fn mean_nonprimary_java_saving_mib(&self) -> f64 {
        let savers = self.nonprimary_javas();
        if savers.is_empty() {
            0.0
        } else {
            savers.iter().map(|j| j.saved_total_mib()).sum::<f64>() / savers.len() as f64
        }
    }

    /// Mean class-metadata saving fraction over non-primary JVMs (the
    /// 89.6 % headline).
    #[must_use]
    pub fn mean_nonprimary_class_saving_fraction(&self) -> f64 {
        let savers = self.nonprimary_javas();
        if savers.is_empty() {
            0.0
        } else {
            savers
                .iter()
                .map(|j| j.class_metadata_saving_fraction())
                .sum::<f64>()
                / savers.len() as f64
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use analysis::BreakdownReport;

    fn empty_report() -> ExperimentReport {
        ExperimentReport {
            breakdown: BreakdownReport {
                guests: vec![],
                javas: vec![],
                total_owned_mib: 0.0,
            },
            ksm: KsmStats::default(),
            resident_mib: 0.0,
            usable_mib: 0.0,
            slowdown: 1.0,
            huge_mib: 0.0,
            tlb_boost: 1.0,
            throughput: vec![
                VmThroughput {
                    name: "vm1".into(),
                    throughput: 18.5,
                    sla: SlaOutcome::Met,
                },
                VmThroughput {
                    name: "vm2".into(),
                    throughput: 18.5,
                    sla: SlaOutcome::Met,
                },
            ],
            caches: vec![],
            timeline: vec![],
            merge_miss: None,
            cow_broken_mappings: 0,
            phases: obs::PhaseReport::default(),
            trace: None,
        }
    }

    #[test]
    fn totals() {
        let r = empty_report();
        assert!((r.total_throughput() - 37.0).abs() < 1e-9);
        assert_eq!(r.total_tps_saving_mib(), 0.0);
        assert_eq!(r.mean_nonprimary_java_saving_mib(), 0.0);
        assert_eq!(r.mean_nonprimary_class_saving_fraction(), 0.0);
    }
}
