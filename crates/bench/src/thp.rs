//! THP × KSM ablation (`tests/golden/thp.txt`).
//!
//! The sharing-versus-TLB-reach frontier: transparent huge pages widen
//! TLB reach (the [`hypervisor::PagingModel::tlb_boost`] throughput
//! credit) but KSM must split a 2 MiB mapping before any of its
//! subpages can merge, so every page KSM deduplicates is a page that no
//! longer counts toward huge coverage. The sweep runs every THP policy
//! (`never` / `madvise` / `always`, host and guest set together)
//! against four KSM scan budgets (off / starved / knee / saturating,
//! see [`BUDGETS`]) on the same miniature quiesced fleet, with the
//! cross-layer conservation audit enabled on every cell.
//!
//! `bench thp` prints [`golden_text`], the deterministic sweep table
//! pinned at `tests/golden/thp.txt`, after verifying the frontier is
//! non-degenerate ([`frontier_check`]): `always` with KSM off maximises
//! reach and minimises sharing, `never` with a saturating budget does
//! the reverse, and at least one intermediate cell is dominated by
//! neither endpoint.

use std::fmt::Write as _;

use tpslab::ksm::KsmParams;
use tpslab::paging::ThpPolicy;
use tpslab::{Experiment, ExperimentConfig, ExperimentReport, KsmSchedule};

/// The THP policies swept, least to most aggressive.
pub const POLICIES: [ThpPolicy; 3] = [ThpPolicy::Never, ThpPolicy::Madvise, ThpPolicy::Always];

/// KSM scan budgets swept, pages per 100 ms wake.
///
/// * `0` — scanning off: collapses are never split, sharing never forms.
/// * `5` — starved: the cursor covers the fleet's mergeable memory
///   about once in the whole run, so some collapsed blocks are never
///   reached (TLB reach survives) while the pages it does reach merge.
/// * `20` — the knee: enough passes for `never` to reach the sharing
///   plateau, but under THP the subpages freed by huge-page splits
///   enter the unstable tree a pass late and are still catching up —
///   the split tax is visible as a strict sharing gap.
/// * `50` — saturating: every policy converges to the same plateau;
///   what remains of THP is only the split counter.
pub const BUDGETS: [usize; 4] = [0, 5, 20, 50];

/// Simulated seconds per cell.
const SWEEP_SECONDS: u64 = 90;

/// Guests in the swept fleet.
const SWEEP_GUESTS: usize = 2;

/// One cell of the sweep.
#[derive(Debug, Clone)]
pub struct Cell {
    /// THP policy (applied to both host khugepaged and guest
    /// fault-around).
    pub policy: ThpPolicy,
    /// KSM pages-to-scan per wake.
    pub budget: usize,
    /// The finished experiment.
    pub report: ExperimentReport,
}

/// The configuration one cell runs: the miniature preloaded fleet with
/// the conservation audit forced on (the acceptance bar: every swept
/// config must audit clean, in release builds too).
#[must_use]
pub fn cell_config(policy: ThpPolicy, budget: usize) -> ExperimentConfig {
    let params = KsmParams::new(budget, 100);
    let mut cfg = ExperimentConfig::tiny_test(SWEEP_GUESTS, true)
        .with_duration_seconds(SWEEP_SECONDS)
        .with_ksm(KsmSchedule {
            warmup: params,
            steady: params,
            warmup_seconds: 0,
        })
        .with_thp(policy, policy)
        .with_audit();
    // Quiesce the steady-state churn so the final sharing count is
    // determined by memory *content*, not by which CoW breaks the scan
    // cursor happened to straddle at the sampling instant — the
    // endpoint orderings the frontier asserts are content physics, and
    // churn-phase noise at saturating budgets is larger than the
    // between-policy deltas. Start-up writes (class load, JIT warm-up)
    // are untouched.
    for guest in &mut cfg.guests {
        let profile = &mut guest.benchmark.profile;
        profile.heap.alloc_mib_per_sec = 0.0;
        profile.work_churn_mib_per_sec = 0.0;
        profile.stack_churn_per_sec = 0.0;
    }
    cfg
}

/// Runs the full policy × budget sweep, in deterministic order.
///
/// # Panics
///
/// Panics if any cell fails validation or its conservation audit (the
/// audit is enabled on every cell).
#[must_use]
pub fn sweep() -> Vec<Cell> {
    let mut cells = Vec::with_capacity(POLICIES.len() * BUDGETS.len());
    for policy in POLICIES {
        for budget in BUDGETS {
            let report =
                Experiment::run(&cell_config(policy, budget)).expect("sweep config is valid");
            cells.push(Cell {
                policy,
                budget,
                report,
            });
        }
    }
    cells
}

fn find(cells: &[Cell], policy: ThpPolicy, budget: usize) -> &Cell {
    cells
        .iter()
        .find(|c| c.policy == policy && c.budget == budget)
        .expect("sweep covers every policy x budget cell")
}

/// Checks that the sweep traced a real frontier:
///
/// 1. `always` + KSM off holds the maximum TLB-reach credit and no cell
///    shares fewer pages;
/// 2. `never` + the saturating budget holds the maximum sharing and the
///    minimum (unit) reach credit;
/// 3. at least one other cell is dominated by neither endpoint — it
///    shares more than endpoint 1 *and* reaches further than endpoint 2.
///
/// # Errors
///
/// Returns a message naming the first violated property.
pub fn frontier_check(cells: &[Cell]) -> Result<(), String> {
    let full = BUDGETS[BUDGETS.len() - 1];
    let reach_end = find(cells, ThpPolicy::Always, 0);
    let share_end = find(cells, ThpPolicy::Never, full);
    for c in cells {
        if c.report.tlb_boost > reach_end.report.tlb_boost {
            return Err(format!(
                "thp=always budget=0 is not the reach maximum: {}@{} boosts {:.4} > {:.4}",
                c.policy, c.budget, c.report.tlb_boost, reach_end.report.tlb_boost
            ));
        }
        if c.report.ksm.pages_sharing < reach_end.report.ksm.pages_sharing {
            return Err(format!(
                "thp=always budget=0 is not the sharing minimum: {}@{} shares {} < {}",
                c.policy, c.budget, c.report.ksm.pages_sharing, reach_end.report.ksm.pages_sharing
            ));
        }
        if c.report.ksm.pages_sharing > share_end.report.ksm.pages_sharing {
            return Err(format!(
                "thp=never budget={full} is not the sharing maximum: {}@{} shares {} > {}",
                c.policy, c.budget, c.report.ksm.pages_sharing, share_end.report.ksm.pages_sharing
            ));
        }
        if c.report.tlb_boost < share_end.report.tlb_boost {
            return Err(format!(
                "thp=never budget={full} is not the reach minimum: {}@{} boosts {:.4} < {:.4}",
                c.policy, c.budget, c.report.tlb_boost, share_end.report.tlb_boost
            ));
        }
    }
    let intermediate = cells.iter().any(|c| {
        c.report.ksm.pages_sharing > reach_end.report.ksm.pages_sharing
            && c.report.tlb_boost > share_end.report.tlb_boost
    });
    if !intermediate {
        return Err(
            "degenerate frontier: no cell shares more than always@0 while reaching \
             further than never@full"
                .into(),
        );
    }
    Ok(())
}

fn render_rows(cells: &[Cell]) -> String {
    let mut out = String::new();
    let _ = writeln!(
        out,
        "{:>8} {:>7} {:>8} {:>9} {:>6} {:>7} {:>8}",
        "policy", "budget", "sharing", "huge MiB", "boost", "splits", "thr r/s"
    );
    for c in cells {
        let _ = writeln!(
            out,
            "{:>8} {:>7} {:>8} {:>9.1} {:>6.3} {:>7} {:>8.1}",
            c.policy.name(),
            c.budget,
            c.report.ksm.pages_sharing,
            c.report.huge_mib,
            c.report.tlb_boost,
            c.report.ksm.thp_splits,
            c.report.total_throughput(),
        );
    }
    out
}

/// Renders the deterministic sweep table pinned at
/// `tests/golden/thp.txt`.
///
/// # Panics
///
/// Panics if any cell fails its audit or the frontier degenerates.
#[must_use]
pub fn golden_text() -> String {
    let cells = sweep();
    frontier_check(&cells).expect("frontier must be non-degenerate");
    let mut out =
        format!("thp x ksm ablation | {SWEEP_GUESTS} guests | {SWEEP_SECONDS} s | audit on\n");
    out.push_str(&render_rows(&cells));
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn cell_configs_cover_the_grid_and_force_the_audit() {
        for policy in POLICIES {
            for budget in BUDGETS {
                let cfg = cell_config(policy, budget);
                assert!(cfg.audit);
                assert_eq!(cfg.thp_host, policy);
                assert_eq!(cfg.thp_guest, policy);
                assert_eq!(cfg.ksm.warmup.pages_to_scan(), budget);
            }
        }
    }

    #[test]
    fn frontier_check_rejects_a_flat_sweep() {
        // Every cell identical: no intermediate can beat both endpoints.
        let report = Experiment::run(&cell_config(ThpPolicy::Never, 0)).unwrap();
        let mut flat = Vec::new();
        for policy in POLICIES {
            for budget in BUDGETS {
                flat.push(Cell {
                    policy,
                    budget,
                    report: report.clone(),
                });
            }
        }
        let err = frontier_check(&flat).unwrap_err();
        assert!(err.contains("degenerate"), "got: {err}");
    }
}
