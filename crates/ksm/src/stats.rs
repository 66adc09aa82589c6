//! Scanner statistics.

/// Counters exposed by the KSM scanner, mirroring the sysfs counters of
/// real KSM (`pages_shared`, `pages_sharing`, `full_scans`, …).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct KsmStats {
    /// Stable-tree frames: distinct shared pages kept in memory.
    pub pages_shared: u64,
    /// PTEs that point at stable-tree frames beyond the first — i.e. the
    /// number of page copies elided. `pages_sharing / pages_shared` is the
    /// sharing ratio.
    pub pages_sharing: u64,
    /// Completed full passes over all mergeable memory.
    pub full_scans: u64,
    /// Cumulative pages examined.
    pub pages_scanned: u64,
    /// Cumulative merges performed (stable-tree and unstable-tree hits).
    pub merges: u64,
    /// Cumulative candidates rejected by the volatility filter.
    pub volatile_skips: u64,
    /// Cumulative stale stable-tree nodes discarded during lookups.
    pub stale_stable_nodes: u64,
    /// Stable nodes re-seeded because a chain hit `max_page_sharing`.
    pub chain_splits: u64,
    /// Transparent huge pages split so their subpages could enter the
    /// unstable tree (the `thp_collapse_alloc`-mirroring side of the real
    /// KSM/THP interaction: KSM never merges into a huge mapping, it
    /// breaks the mapping first).
    pub thp_splits: u64,
}

impl KsmStats {
    /// The change in every counter since `earlier`, for pass-over-pass
    /// or sample-over-sample comparison. The cumulative counters
    /// (`full_scans`, `pages_scanned`, `merges`, …) become per-interval
    /// rates; the instantaneous gauges (`pages_shared`,
    /// `pages_sharing`) can shrink between samples, so each field
    /// saturates at zero rather than wrapping.
    #[must_use]
    pub fn delta(&self, earlier: &KsmStats) -> KsmStats {
        KsmStats {
            pages_shared: self.pages_shared.saturating_sub(earlier.pages_shared),
            pages_sharing: self.pages_sharing.saturating_sub(earlier.pages_sharing),
            full_scans: self.full_scans.saturating_sub(earlier.full_scans),
            pages_scanned: self.pages_scanned.saturating_sub(earlier.pages_scanned),
            merges: self.merges.saturating_sub(earlier.merges),
            volatile_skips: self.volatile_skips.saturating_sub(earlier.volatile_skips),
            stale_stable_nodes: self
                .stale_stable_nodes
                .saturating_sub(earlier.stale_stable_nodes),
            chain_splits: self.chain_splits.saturating_sub(earlier.chain_splits),
            thp_splits: self.thp_splits.saturating_sub(earlier.thp_splits),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn delta_subtracts_and_saturates() {
        let earlier = KsmStats {
            pages_shared: 5,
            pages_sharing: 40,
            full_scans: 2,
            pages_scanned: 1000,
            merges: 45,
            ..KsmStats::default()
        };
        let later = KsmStats {
            pages_shared: 4, // gauge shrank (a node died)
            pages_sharing: 50,
            full_scans: 3,
            pages_scanned: 1500,
            merges: 55,
            volatile_skips: 7,
            ..KsmStats::default()
        };
        let d = later.delta(&earlier);
        assert_eq!(d.pages_shared, 0);
        assert_eq!(d.pages_sharing, 10);
        assert_eq!(d.full_scans, 1);
        assert_eq!(d.pages_scanned, 500);
        assert_eq!(d.merges, 10);
        assert_eq!(d.volatile_skips, 7);
        // Identity: a stats value minus itself is all zeros.
        assert_eq!(later.delta(&later), KsmStats::default());
    }
}
