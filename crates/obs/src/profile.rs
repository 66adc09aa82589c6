//! Per-phase profiling: wall-clock, simulated ticks and pages touched,
//! accumulated per named phase of an experiment run.

use std::fmt::Write as _;
use std::time::{Duration, Instant};

/// Accumulated cost of one named phase.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct PhaseStat {
    /// Phase name (e.g. `"ksm_scan"`).
    pub name: &'static str,
    /// Total wall-clock time spent in the phase.
    pub wall: Duration,
    /// Simulated ticks the phase covered.
    pub ticks: u64,
    /// Pages touched (written or scanned) while in the phase.
    pub pages: u64,
    /// How many times the phase ran.
    pub invocations: u64,
}

/// The finished profile: phases in first-use order.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct PhaseReport {
    /// Per-phase totals, ordered by first use.
    pub phases: Vec<PhaseStat>,
}

impl PhaseReport {
    /// Total wall-clock across all phases.
    #[must_use]
    pub fn total_wall(&self) -> Duration {
        self.phases.iter().map(|p| p.wall).sum()
    }

    /// Renders the profile as an aligned text table.
    #[must_use]
    pub fn render(&self) -> String {
        let total = self.total_wall().as_secs_f64().max(f64::MIN_POSITIVE);
        let mut out = String::new();
        let _ = writeln!(
            out,
            "{:<18} {:>12} {:>6} {:>12} {:>12} {:>10}",
            "phase", "wall ms", "%", "ticks", "pages", "calls"
        );
        for p in &self.phases {
            let wall = p.wall.as_secs_f64();
            let _ = writeln!(
                out,
                "{:<18} {:>12.3} {:>6.1} {:>12} {:>12} {:>10}",
                p.name,
                wall * 1e3,
                100.0 * wall / total,
                p.ticks,
                p.pages,
                p.invocations
            );
        }
        out
    }
}

/// Accumulates [`PhaseStat`]s. Disabled by default: [`Profiler::begin`]
/// returns `None` and [`Profiler::end`] is a no-op, so instrumented
/// loops never call [`Instant::now`] unless profiling was requested.
#[derive(Debug, Default)]
pub struct Profiler {
    enabled: bool,
    phases: Vec<PhaseStat>,
}

impl Profiler {
    /// A profiler that records nothing.
    #[must_use]
    pub fn disabled() -> Profiler {
        Profiler::default()
    }

    /// A recording profiler.
    #[must_use]
    pub fn enabled() -> Profiler {
        Profiler {
            enabled: true,
            phases: Vec::new(),
        }
    }

    /// Whether the profiler records.
    #[must_use]
    pub fn is_enabled(&self) -> bool {
        self.enabled
    }

    /// Starts timing a phase section; `None` when disabled.
    #[inline]
    #[must_use]
    pub fn begin(&self) -> Option<Instant> {
        if self.enabled {
            Some(Instant::now())
        } else {
            None
        }
    }

    /// Finishes a section started by [`Profiler::begin`], folding its
    /// wall time plus the given tick/page counts into `name`'s totals.
    #[inline]
    pub fn end(&mut self, name: &'static str, started: Option<Instant>, ticks: u64, pages: u64) {
        let Some(started) = started else { return };
        let wall = started.elapsed();
        if let Some(p) = self.phases.iter_mut().find(|p| p.name == name) {
            p.wall += wall;
            p.ticks += ticks;
            p.pages += pages;
            p.invocations += 1;
        } else {
            self.phases.push(PhaseStat {
                name,
                wall,
                ticks,
                pages,
                invocations: 1,
            });
        }
    }

    /// The accumulated profile.
    #[must_use]
    pub fn report(&self) -> PhaseReport {
        PhaseReport {
            phases: self.phases.clone(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn disabled_profiler_records_nothing() {
        let mut p = Profiler::disabled();
        let t = p.begin();
        assert!(t.is_none());
        p.end("phase", t, 10, 10);
        assert!(p.report().phases.is_empty());
    }

    #[test]
    fn phases_accumulate_in_first_use_order() {
        let mut p = Profiler::enabled();
        let t = p.begin();
        p.end("b", t, 1, 2);
        let t = p.begin();
        p.end("a", t, 1, 0);
        let t = p.begin();
        p.end("b", t, 3, 4);
        let report = p.report();
        assert_eq!(report.phases.len(), 2);
        assert_eq!(report.phases[0].name, "b");
        assert_eq!(report.phases[0].ticks, 4);
        assert_eq!(report.phases[0].pages, 6);
        assert_eq!(report.phases[0].invocations, 2);
        assert_eq!(report.phases[1].name, "a");
        let text = report.render();
        assert!(text.contains("phase"));
        assert!(text.lines().nth(1).unwrap().starts_with("b "));
    }
}
