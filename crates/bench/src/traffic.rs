//! Traffic-scenario reports (`tests/golden/traffic.txt`).
//!
//! `bench traffic` prints [`golden_text`], the deterministic
//! three-scenario report (diurnal, flash-crowd, rolling-deploy on a
//! fixed miniature fleet; byte-identical on every run). `perfbench`'s
//! `flash-1024` workload times the traffic engine at fleet width.

use tpslab::traffic::Scenario;
use tpslab::{Experiment, ExperimentConfig};

/// Seconds of simulated time in the golden report's scenarios.
const GOLDEN_SECONDS: u64 = 120;

/// The scenarios the golden report covers.
fn golden_scenarios() -> [Scenario; 3] {
    [
        Scenario::diurnal(GOLDEN_SECONDS),
        Scenario::flash_crowd(GOLDEN_SECONDS),
        Scenario::rolling_deploy(GOLDEN_SECONDS, 3),
    ]
}

/// Renders the deterministic traffic report pinned at
/// `tests/golden/traffic.txt`: three scenarios on the same miniature
/// preloaded fleet, separated by blank lines.
///
/// # Panics
///
/// Panics if the fixed golden configuration fails validation (it never
/// does; the panic is the test harness's failure mode).
#[must_use]
pub fn golden_text() -> String {
    let cfg = ExperimentConfig::tiny_test(3, true).with_duration_seconds(GOLDEN_SECONDS);
    let mut out = String::new();
    for scenario in golden_scenarios() {
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
    fn golden_text_covers_all_three_scenarios() {
        let text = golden_text();
        for name in ["diurnal", "flash-crowd", "rolling-deploy"] {
            assert!(
                text.contains(&format!("traffic {name} | 3 guests")),
                "{name} missing"
            );
        }
    }
}
