//! Order statistics over measured samples.
//!
//! The quartiles follow Python's `statistics.quantiles(data, n=4)`
//! (the default "exclusive" method), so a spread printed here is the
//! same number a script computes from the same values.

/// Median, quartiles and sample count of one metric's samples.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Summary {
    /// Middle value (mean of the two middle values for an even count).
    pub median: f64,
    /// First quartile.
    pub q1: f64,
    /// Third quartile.
    pub q3: f64,
    /// Number of samples.
    pub n: usize,
}

impl Summary {
    /// Summarises `samples`; `None` when there are none.
    #[must_use]
    pub fn of(samples: &[f64]) -> Option<Summary> {
        let sorted = sorted(samples);
        let median = median_sorted(&sorted)?;
        let (q1, q3) = quartiles_sorted(&sorted);
        Some(Summary {
            median,
            q1,
            q3,
            n: sorted.len(),
        })
    }
}

fn sorted(samples: &[f64]) -> Vec<f64> {
    let mut v = samples.to_vec();
    v.sort_by(f64::total_cmp);
    v
}

fn median_sorted(v: &[f64]) -> Option<f64> {
    let n = v.len();
    match n {
        0 => None,
        _ if n % 2 == 1 => Some(v[n / 2]),
        _ => Some((v[n / 2 - 1] + v[n / 2]) / 2.0),
    }
}

/// Exclusive-method quartiles; a single sample is its own quartiles.
fn quartiles_sorted(v: &[f64]) -> (f64, f64) {
    let len = v.len();
    if len < 2 {
        let x = v.first().copied().unwrap_or(f64::NAN);
        return (x, x);
    }
    let m = len + 1;
    let cut = |i: usize| {
        let j = (i * m / 4).clamp(1, len - 1);
        let delta = (i * m) as f64 - (j * 4) as f64;
        (v[j - 1] * (4.0 - delta) + v[j] * delta) / 4.0
    };
    (cut(1), cut(3))
}

/// Median of `samples`; `None` when there are none.
#[must_use]
pub fn median(samples: &[f64]) -> Option<f64> {
    median_sorted(&sorted(samples))
}

/// Nearest-rank percentile `p` (0 < p ≤ 100) of `samples`.
#[must_use]
pub fn percentile(samples: &[f64], p: f64) -> Option<f64> {
    let v = sorted(samples);
    if v.is_empty() {
        return None;
    }
    let rank = ((p / 100.0) * v.len() as f64).ceil() as usize;
    Some(v[rank.clamp(1, v.len()) - 1])
}

/// Index of the sample at the median position (the lower middle for an
/// even count), so a split taken from that one sample adds up exactly.
#[must_use]
pub fn median_index(samples: &[f64]) -> Option<usize> {
    let mut idx: Vec<usize> = (0..samples.len()).collect();
    idx.sort_by(|&a, &b| samples[a].total_cmp(&samples[b]));
    idx.get(samples.len().saturating_sub(1) / 2).copied()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn median_of_odd_and_even_counts() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), Some(2.0));
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), Some(2.5));
        assert_eq!(median(&[]), None);
    }

    #[test]
    fn quartiles_match_python_exclusive_method() {
        // statistics.quantiles([1..10], n=4) == [2.75, 5.5, 8.25]
        let ten: Vec<f64> = (1..=10).map(f64::from).collect();
        let s = Summary::of(&ten).unwrap();
        assert_eq!((s.q1, s.median, s.q3, s.n), (2.75, 5.5, 8.25, 10));
        // statistics.quantiles([1, 2, 3, 4, 5], n=4) == [1.5, 3.0, 4.5]
        let s = Summary::of(&[5.0, 4.0, 3.0, 2.0, 1.0]).unwrap();
        assert_eq!((s.q1, s.median, s.q3), (1.5, 3.0, 4.5));
        // statistics.quantiles([1, 2], n=4) == [0.75, 1.5, 2.25]
        let s = Summary::of(&[1.0, 2.0]).unwrap();
        assert_eq!((s.q1, s.q3), (0.75, 2.25));
        let s = Summary::of(&[7.0]).unwrap();
        assert_eq!((s.q1, s.median, s.q3, s.n), (7.0, 7.0, 7.0, 1));
        assert!(Summary::of(&[]).is_none());
    }

    #[test]
    fn nearest_rank_percentiles() {
        let hundred: Vec<f64> = (1..=100).map(f64::from).collect();
        assert_eq!(percentile(&hundred, 50.0), Some(50.0));
        assert_eq!(percentile(&hundred, 90.0), Some(90.0));
        assert_eq!(percentile(&hundred, 99.0), Some(99.0));
        assert_eq!(percentile(&hundred, 100.0), Some(100.0));
        assert_eq!(percentile(&[5.0, 1.0, 3.0], 50.0), Some(3.0));
        assert_eq!(percentile(&[], 50.0), None);
    }

    #[test]
    fn median_index_points_at_the_middle_sample() {
        assert_eq!(median_index(&[9.0, 1.0, 5.0]), Some(2));
        assert_eq!(median_index(&[4.0, 1.0, 3.0, 2.0]), Some(3));
        assert_eq!(median_index(&[]), None);
    }
}
