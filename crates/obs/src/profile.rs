//! Per-phase profiling: wall-clock, simulated ticks and pages touched,
//! accumulated per named phase. The one wall clock of a run: every
//! world phase and KSM wake step is a section of a [`Profiler`], and
//! the traffic and wake wall fields are views of its totals.

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

/// Accumulates [`PhaseStat`]s. Always on: a caller reads
/// [`Instant::now`] when a section starts and hands it to
/// [`Profiler::end`] when it stops, two clock reads per section.
#[derive(Debug, Default)]
pub struct Profiler {
    phases: Vec<PhaseStat>,
}

impl Profiler {
    /// Finishes a section that began at `started`, folding its wall
    /// time plus the given tick/page counts into `name`'s totals, and
    /// returns the section's wall time.
    #[inline]
    pub fn end(
        &mut self,
        name: &'static str,
        started: Instant,
        ticks: u64,
        pages: u64,
    ) -> Duration {
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
        wall
    }

    /// Total wall-clock nanoseconds recorded under `name`; 0 for a
    /// phase that never ran.
    #[must_use]
    pub fn nanos(&self, name: &str) -> u64 {
        self.phases
            .iter()
            .find(|p| p.name == name)
            .map_or(0, |p| p.wall.as_nanos() as u64)
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
    fn phases_accumulate_in_first_use_order() {
        let mut p = Profiler::default();
        let first = p.end("b", Instant::now(), 1, 2);
        p.end("a", Instant::now(), 1, 0);
        let second = p.end("b", Instant::now(), 3, 4);
        let report = p.report();
        assert_eq!(report.phases.len(), 2);
        assert_eq!(report.phases[0].name, "b");
        assert_eq!(report.phases[0].ticks, 4);
        assert_eq!(report.phases[0].pages, 6);
        assert_eq!(report.phases[0].invocations, 2);
        assert_eq!(report.phases[1].name, "a");
        // `nanos` reads the same totals `end` returned piece by piece.
        assert_eq!(report.phases[0].wall, first + second);
        assert_eq!(p.nanos("b"), (first + second).as_nanos() as u64);
        assert_eq!(p.nanos("never"), 0);
        let text = report.render();
        assert!(text.contains("phase"));
        assert!(text.lines().nth(1).unwrap().starts_with("b "));
    }
}
