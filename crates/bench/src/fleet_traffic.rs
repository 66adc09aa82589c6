//! Fleet-scale traffic serving (`tests/golden/fleet_traffic.txt`).
//!
//! Where `bench::traffic` reports the event engine on a miniature fleet,
//! this module drives the fleet preset family through
//! [`Experiment::run_traffic`] (DESIGN.md §14): [`golden_text`] renders
//! a deterministic two-combo report on a 64-guest fleet. `perfbench`'s
//! `flash-1024` workload times the `scale1024` flash crowd.

use tpslab::traffic::Scenario;
use tpslab::{Experiment, ExperimentConfig};

/// Memory scale divisor for every golden combo: the paper's Fig. 8
/// over-commit ratio preserved while each guest shrinks enough that a
/// fleet fits a test run.
const SCALE: f64 = 512.0;

/// Simulated seconds for the golden combos (kept short: the golden
/// test renders both combos on every test run).
const GOLDEN_SECONDS: u64 = 30;

/// The golden combos: a mid-size fleet under two scenarios that load
/// the KSM wake differently — flash-crowd (every guest busy, the most
/// pages dirtied per wake) and rolling-deploy (guests relaunched
/// mid-run, dropping and re-merging their JVMs' pages).
fn golden_combos() -> [(usize, Scenario); 2] {
    [
        (64, Scenario::flash_crowd(GOLDEN_SECONDS)),
        (64, Scenario::rolling_deploy(GOLDEN_SECONDS, 64)),
    ]
}

/// Renders the deterministic fleet-traffic report pinned at
/// `tests/golden/fleet_traffic.txt`.
///
/// # Panics
///
/// Panics if a fixed golden configuration fails validation (it never
/// does; the panic is the test harness's failure mode).
#[must_use]
pub fn golden_text() -> String {
    let mut out = String::new();
    for (guests, scenario) in golden_combos() {
        let cfg = ExperimentConfig::fleet(guests, SCALE).with_duration_seconds(GOLDEN_SECONDS);
        let report = Experiment::run_traffic(&cfg, &scenario).expect("golden config is valid");
        out.push_str(&report.render());
        out.push('\n');
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn golden_combos_cover_both_scenario_classes() {
        let names: Vec<&str> = golden_combos().iter().map(|(_, s)| s.name).collect();
        assert!(names.contains(&"flash-crowd"));
        assert!(names.contains(&"rolling-deploy"));
    }
}
