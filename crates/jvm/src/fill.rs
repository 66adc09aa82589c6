//! Paced one-time page fills (startup phases write their areas gradually).

use mem::FingerprintBuilder;

/// Tracks gradual population of a fixed page range: given a progress
/// fraction, yields the next page indices to write, each exactly once.
#[derive(Debug, Clone)]
pub(crate) struct ProgressFill {
    total: usize,
    written: usize,
}

impl ProgressFill {
    pub(crate) fn new(total: usize) -> ProgressFill {
        ProgressFill { total, written: 0 }
    }

    /// Pages to write so that `fraction` of the range is populated.
    /// Returns the half-open index range `[start, end)`.
    pub(crate) fn advance(&mut self, fraction: f64) -> std::ops::Range<usize> {
        let target = ((self.total as f64) * fraction.clamp(0.0, 1.0)).round() as usize;
        let target = target.min(self.total);
        let start = self.written;
        self.written = self.written.max(target);
        start..self.written
    }

    pub(crate) fn done(&self) -> bool {
        self.written >= self.total
    }

    pub(crate) fn written(&self) -> usize {
        self.written
    }

    pub(crate) fn total(&self) -> usize {
        self.total
    }
}

/// A fingerprint builder with `tokens` pushed: the head that every page
/// of one run shares, hashed once per run. Each page clones it and
/// pushes only its own tokens, which yields the same fingerprint as
/// `Fingerprint::of` over the whole token list.
pub(crate) fn run_head(tokens: &[u64]) -> FingerprintBuilder {
    let mut head = FingerprintBuilder::new();
    for &token in tokens {
        head.push(token);
    }
    head
}

/// Converts an elapsed/duration pair into a progress fraction, treating a
/// non-positive duration as instantly complete.
pub(crate) fn phase_fraction(elapsed_s: f64, duration_s: f64) -> f64 {
    if duration_s <= 0.0 {
        1.0
    } else {
        (elapsed_s / duration_s).clamp(0.0, 1.0)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn advance_is_monotone_and_exact() {
        let mut fill = ProgressFill::new(100);
        assert_eq!(fill.advance(0.25), 0..25);
        assert_eq!(fill.advance(0.25), 25..25); // no double writes
        assert_eq!(fill.advance(0.5), 25..50);
        assert_eq!(fill.advance(2.0), 50..100); // clamped
        assert!(fill.done());
        assert_eq!(fill.total(), 100);
    }

    #[test]
    fn regressions_do_not_unwrite() {
        let mut fill = ProgressFill::new(10);
        let _ = fill.advance(0.8);
        assert_eq!(fill.advance(0.2), 8..8);
    }

    #[test]
    fn zero_total_is_immediately_done() {
        let mut fill = ProgressFill::new(0);
        assert_eq!(fill.advance(1.0), 0..0);
        assert!(fill.done());
    }

    #[test]
    fn phase_fraction_clamps() {
        assert_eq!(phase_fraction(5.0, 10.0), 0.5);
        assert_eq!(phase_fraction(20.0, 10.0), 1.0);
        assert_eq!(phase_fraction(-1.0, 10.0), 0.0);
        assert_eq!(phase_fraction(0.0, 0.0), 1.0);
    }
}
