//! Merge-miss diagnostics: why content-identical pages stayed private.
//!
//! The attribution walk ([`crate::MemorySnapshot`]) answers "who uses
//! each frame"; this module answers the complementary question the
//! paper's §III keeps running into: *how much sharing did KSM leave on
//! the table, and why?* [`diagnose_misses`] groups every live host frame
//! by content fingerprint, computes the sharing an ideal (uncapped,
//! instantaneous) merger would achieve, and attributes the shortfall to
//! one of five causes:
//!
//! * [`MissReason::ChainCapped`] — the `max_page_sharing` chain cap
//!   forces `ceil(PTEs / cap)` stable copies instead of one.
//! * [`MissReason::Unregistered`] — no mapping of the frame lives in a
//!   `madvise(MERGEABLE)` region, so KSM never scans it.
//! * [`MissReason::CowBroken`] — the page *was* merged, then a write
//!   COW-broke it (known from the tracer's broken-mapping set) and it
//!   has been written inside the current volatility window.
//! * [`MissReason::Volatile`] — written inside the volatility window,
//!   so the checksum filter (rightly) refuses to merge it yet.
//! * [`MissReason::Pending`] — mergeable, stable, merge-eligible; the
//!   scanner just has not completed the two passes needed to catch it.
//!
//! The report satisfies an exact conservation identity (checked in
//! tests and by the audit): `achieved + Σ missed == potential`, where
//! all three are page counts over fingerprint groups with ≥ 2 PTEs.

use mem::{Fingerprint, FrameId, IdMap, Tick};
use paging::HostMm;
use std::collections::HashSet;
use std::fmt::Write as _;

/// How many fingerprint groups to keep as worked examples in the report.
const TOP_GROUPS: usize = 8;

/// Why a content-identical page was not merged.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub enum MissReason {
    /// The `max_page_sharing` cap forces extra stable copies.
    ChainCapped,
    /// No mapping is in a `madvise(MERGEABLE)` region.
    Unregistered,
    /// Previously merged, COW-broken by a write, still volatile.
    CowBroken,
    /// Written within the volatility window; checksum filter defers it.
    Volatile,
    /// Eligible but not yet reached/merged by the scanner.
    Pending,
}

impl MissReason {
    /// All reasons, in report order.
    pub const ALL: [MissReason; 5] = [
        MissReason::ChainCapped,
        MissReason::Unregistered,
        MissReason::CowBroken,
        MissReason::Volatile,
        MissReason::Pending,
    ];

    /// Stable snake_case tag (used in JSON and the rendered table).
    #[must_use]
    pub fn label(self) -> &'static str {
        match self {
            MissReason::ChainCapped => "chain_capped",
            MissReason::Unregistered => "unregistered",
            MissReason::CowBroken => "cow_broken",
            MissReason::Volatile => "volatile",
            MissReason::Pending => "pending",
        }
    }

    fn index(self) -> usize {
        match self {
            MissReason::ChainCapped => 0,
            MissReason::Unregistered => 1,
            MissReason::CowBroken => 2,
            MissReason::Volatile => 3,
            MissReason::Pending => 4,
        }
    }
}

/// One fingerprint group that left sharing on the table — a worked
/// example for the `explain` output.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct MissGroup {
    /// The shared content (raw fingerprint bits).
    pub fingerprint: u128,
    /// Live host frames currently holding this content.
    pub frames: u64,
    /// PTEs across all address spaces referencing this content.
    pub ptes: u64,
    /// Frames an ideal merger would have freed but the system kept.
    pub missed_pages: u64,
    /// The dominant reason among this group's missed frames.
    pub dominant: MissReason,
}

/// The merge-miss breakdown for one host snapshot.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct MergeMissReport {
    missed: [u64; 5],
    /// Pages currently saved by sharing (sum of `refcount - 1` over
    /// duplicated-content groups) — the analysis-side counterpart of the
    /// scanner's `pages_sharing` plus any non-KSM sharing.
    pub achieved_pages: u64,
    /// Pages an ideal uncapped merger would save (one frame per
    /// duplicated content).
    pub potential_pages: u64,
    /// Fingerprint groups with at least two PTEs.
    pub groups_considered: u64,
    /// The worst offenders, largest missed-page count first.
    pub top_groups: Vec<MissGroup>,
}

impl MergeMissReport {
    /// Missed pages attributed to `reason`.
    #[must_use]
    pub fn missed(&self, reason: MissReason) -> u64 {
        self.missed[reason.index()]
    }

    /// Missed pages across all reasons.
    #[must_use]
    pub fn total_missed_pages(&self) -> u64 {
        self.missed.iter().sum()
    }

    /// Missed sharing across all reasons, MiB.
    #[must_use]
    pub fn total_missed_mib(&self) -> f64 {
        mem::pages_to_mib(self.total_missed_pages() as usize)
    }

    /// The per-category "missed sharing" table plus the conservation
    /// footer, aligned for terminal output.
    #[must_use]
    pub fn render(&self) -> String {
        let mut out =
            String::from("merge-miss diagnostics (content-identical pages left private)\n");
        let _ = writeln!(
            out,
            "  {:<14} {:>12} {:>10}",
            "reason", "missed MiB", "pages"
        );
        for reason in MissReason::ALL {
            let pages = self.missed(reason);
            let _ = writeln!(
                out,
                "  {:<14} {:>12.2} {:>10}",
                reason.label(),
                mem::pages_to_mib(pages as usize),
                pages
            );
        }
        let _ = writeln!(
            out,
            "  {:<14} {:>12.2} {:>10}",
            "total missed",
            self.total_missed_mib(),
            self.total_missed_pages()
        );
        let _ = writeln!(
            out,
            "  achieved {:.2} MiB + missed {:.2} MiB = potential {:.2} MiB ({} duplicate groups)",
            mem::pages_to_mib(self.achieved_pages as usize),
            self.total_missed_mib(),
            mem::pages_to_mib(self.potential_pages as usize),
            self.groups_considered
        );
        out
    }

    /// JSON encoding with a fixed field order (byte-stable across runs
    /// of the same world — used by the `explain` golden test).
    #[must_use]
    pub fn to_json(&self) -> String {
        let mut out = String::from("{");
        let _ = write!(out, "\"achieved_pages\":{}", self.achieved_pages);
        let _ = write!(out, ",\"potential_pages\":{}", self.potential_pages);
        let _ = write!(out, ",\"groups\":{}", self.groups_considered);
        out.push_str(",\"missed\":{");
        for (i, reason) in MissReason::ALL.into_iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            let _ = write!(out, "\"{}\":{}", reason.label(), self.missed(reason));
        }
        out.push_str("}}");
        out
    }
}

/// Classifies every potential-but-unrealised page merge in `mm`.
///
/// * `cap` — the scanner's `max_page_sharing` chain cap (≥ 2).
/// * `horizon` — the scanner's current volatility horizon
///   (`KsmScanner::volatility_horizon`): frames written at or after it
///   are what the checksum filter would still call volatile.
/// * `broken` — `(space, vpn)` mappings known to have COW-broken a KSM
///   page (the tracer's broken-mapping set; pass an empty set when
///   tracing was off — those misses then report as plain `Volatile`).
#[must_use]
pub fn diagnose_misses(
    mm: &HostMm,
    cap: u32,
    horizon: Tick,
    broken: &HashSet<(u32, u64)>,
) -> MergeMissReport {
    assert!(cap >= 2, "max_page_sharing cap must be at least 2");
    // Only contents held by two or more PTEs form a group, and they are
    // few among the live frames: count PTEs per fingerprint, then sort
    // just those frames as (fingerprint, frame) pairs. Groups come out
    // in fingerprint order with their frames in index order.
    let phys = mm.phys();
    // Sized for all-distinct contents up front, so counting never
    // regrows the map.
    let mut ptes_of: IdMap<Fingerprint, u64> =
        IdMap::with_capacity_and_hasher(phys.allocated_frames(), Default::default());
    for (_, frame) in phys.iter() {
        *ptes_of.entry(frame.fingerprint()).or_default() += u64::from(frame.refcount());
    }
    let mut pairs: Vec<(u128, FrameId)> = phys
        .iter()
        .filter(|(_, frame)| ptes_of[&frame.fingerprint()] >= 2)
        .map(|(id, frame)| (frame.fingerprint().as_u128(), id))
        .collect();
    pairs.sort_unstable();

    let mut report = MergeMissReport::default();
    let mut examples: Vec<MissGroup> = Vec::new();
    for group in pairs.chunk_by_mut(|a, b| a.0 == b.0) {
        let fp = group[0].0;
        let ptes: u64 = group
            .iter()
            .map(|&(_, f)| u64::from(phys.refcount(f)))
            .sum();
        let n = group.len() as u64;
        let needed = ptes.div_ceil(u64::from(cap));
        report.groups_considered += 1;
        report.achieved_pages += ptes - n;
        report.potential_pages += ptes - 1;

        let mut group_missed = [0u64; 5];
        // Copies the chain cap makes unavoidable, beyond the ideal one.
        group_missed[MissReason::ChainCapped.index()] = needed.min(n).saturating_sub(1);

        // The frames an ideal merger would have kept: already-stable
        // frames first, then the most-referenced, index as tiebreak.
        group.sort_by_key(|&(_, f)| {
            (
                std::cmp::Reverse(phys.is_ksm_shared(f)),
                std::cmp::Reverse(phys.refcount(f)),
                f.index(),
            )
        });
        for &(_, frame) in group.iter().skip(needed.min(n) as usize) {
            let reason = classify_frame(mm, frame, horizon, broken);
            group_missed[reason.index()] += 1;
        }

        for (i, &pages) in group_missed.iter().enumerate() {
            report.missed[i] += pages;
        }
        let missed_pages: u64 = group_missed.iter().sum();
        if missed_pages > 0 {
            let dominant = MissReason::ALL
                .into_iter()
                .max_by_key(|r| group_missed[r.index()])
                .expect("five reasons");
            examples.push(MissGroup {
                fingerprint: fp,
                frames: n,
                ptes,
                missed_pages,
                dominant,
            });
        }
    }

    examples.sort_by_key(|g| (std::cmp::Reverse(g.missed_pages), g.fingerprint));
    examples.truncate(TOP_GROUPS);
    report.top_groups = examples;
    report
}

/// Why this individual duplicate frame was not merged away.
fn classify_frame(
    mm: &HostMm,
    frame: FrameId,
    horizon: Tick,
    broken: &HashSet<(u32, u64)>,
) -> MissReason {
    let mappers = mm.mappers_of(frame);
    let registered = mappers.iter().any(|m| {
        mm.space(m.space)
            .region_containing(m.vpn)
            .is_some_and(paging::Region::mergeable)
    });
    if !registered {
        return MissReason::Unregistered;
    }
    let volatile = horizon > Tick::ZERO && mm.phys().last_write(frame) >= horizon;
    if volatile {
        let was_broken = mappers
            .iter()
            .any(|m| broken.contains(&(m.space.index() as u32, m.vpn.0)));
        if was_broken {
            return MissReason::CowBroken;
        }
        return MissReason::Volatile;
    }
    MissReason::Pending
}

#[cfg(test)]
mod tests {
    use super::*;
    use mem::{Fingerprint, Tick};
    use paging::{HostMm, MemTag, Vpn};
    use proptest::prelude::*;
    use std::collections::BTreeMap;

    /// The map-based grouping [`diagnose_misses`] used before it counted
    /// PTEs per fingerprint and sorted the duplicates' `(fingerprint,
    /// frame)` pairs, kept as its differential reference.
    fn diagnose_misses_btree(
        mm: &HostMm,
        cap: u32,
        horizon: Tick,
        broken: &HashSet<(u32, u64)>,
    ) -> MergeMissReport {
        assert!(cap >= 2, "max_page_sharing cap must be at least 2");
        // Group live frames by content. BTreeMap + index-ordered frame lists
        // keep everything deterministic.
        let mut groups: BTreeMap<u128, Vec<FrameId>> = BTreeMap::new();
        for (id, frame) in mm.phys().iter() {
            groups
                .entry(frame.fingerprint().as_u128())
                .or_default()
                .push(id);
        }

        let mut report = MergeMissReport::default();
        let mut examples: Vec<MissGroup> = Vec::new();
        for (fp, mut frames) in groups {
            let phys = mm.phys();
            let ptes: u64 = frames.iter().map(|&f| u64::from(phys.refcount(f))).sum();
            if ptes < 2 {
                continue;
            }
            let n = frames.len() as u64;
            let needed = ptes.div_ceil(u64::from(cap));
            report.groups_considered += 1;
            report.achieved_pages += ptes - n;
            report.potential_pages += ptes - 1;

            let mut group_missed = [0u64; 5];
            // Copies the chain cap makes unavoidable, beyond the ideal one.
            group_missed[MissReason::ChainCapped.index()] = needed.min(n).saturating_sub(1);

            // The frames an ideal merger would have kept: already-stable
            // frames first, then the most-referenced, index as tiebreak.
            frames.sort_by_key(|&f| {
                (
                    std::cmp::Reverse(phys.is_ksm_shared(f)),
                    std::cmp::Reverse(phys.refcount(f)),
                    f.index(),
                )
            });
            for &frame in frames.iter().skip(needed.min(n) as usize) {
                let reason = classify_frame(mm, frame, horizon, broken);
                group_missed[reason.index()] += 1;
            }

            for (i, &pages) in group_missed.iter().enumerate() {
                report.missed[i] += pages;
            }
            let missed_pages: u64 = group_missed.iter().sum();
            if missed_pages > 0 {
                let dominant = MissReason::ALL
                    .into_iter()
                    .max_by_key(|r| group_missed[r.index()])
                    .expect("five reasons");
                examples.push(MissGroup {
                    fingerprint: fp,
                    frames: n,
                    ptes,
                    missed_pages,
                    dominant,
                });
            }
        }

        examples.sort_by_key(|g| (std::cmp::Reverse(g.missed_pages), g.fingerprint));
        examples.truncate(TOP_GROUPS);
        report.top_groups = examples;
        report
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(96))]

        /// Small random worlds: 2–4 spaces, each with two regions of
        /// drawn mergeability, written from a six-value alphabet at
        /// ticks on both sides of the horizon, with some equal-content
        /// frames merged and later COW-broken, and a random
        /// broken-mapping set. The sorted grouping must reproduce the
        /// map-based report exactly, `top_groups` included.
        #[test]
        fn sorted_grouping_matches_btree_reference(
            spaces in prop::collection::vec(
                (1..5usize, any::<bool>(), 1..5usize, any::<bool>()),
                2..5,
            ),
            writes in prop::collection::vec((0..4usize, 0..8usize, 0..6u64, 1..20u64), 4..40),
            merges in prop::collection::vec((0..64usize, 0..64usize), 0..16),
            rewrites in prop::collection::vec((0..4usize, 0..8usize, 0..6u64, 1..20u64), 0..8),
            broken in prop::collection::vec((0..4usize, 0..8usize), 0..6),
            cap in 2..5u32,
            horizon in 0..20u64,
        ) {
            let mut mm = HostMm::new();
            // Every space's pages, in region order.
            let mut pages: Vec<(paging::AsId, Vec<Vpn>)> = Vec::new();
            for (i, &(a, a_mergeable, b, b_mergeable)) in spaces.iter().enumerate() {
                let s = mm.create_space(format!("s{i}"));
                let ra = mm.map_region(s, a, MemTag::JavaHeap, a_mergeable);
                let rb = mm.map_region(s, b, MemTag::OtherProcess, b_mergeable);
                let vpns = (0..a as u64)
                    .map(|p| ra.offset(p))
                    .chain((0..b as u64).map(|p| rb.offset(p)))
                    .collect();
                pages.push((s, vpns));
            }
            let at = |space: usize, page: usize| {
                let (s, vpns) = &pages[space % pages.len()];
                (*s, vpns[page % vpns.len()])
            };
            let write = |mm: &mut HostMm, ops: &[(usize, usize, u64, u64)]| {
                for &(space, page, fp, tick) in ops {
                    let (s, vpn) = at(space, page);
                    mm.write_page(s, vpn, Fingerprint::of(&[fp]), Tick(tick));
                }
            };
            write(&mut mm, &writes);
            for &(x, y) in &merges {
                let live: Vec<FrameId> = mm.phys().iter().map(|(id, _)| id).collect();
                let (dup, canonical) = (live[x % live.len()], live[y % live.len()]);
                let phys = mm.phys();
                if dup != canonical && phys.fingerprint(dup) == phys.fingerprint(canonical) {
                    mm.merge_frames(dup, canonical);
                }
            }
            write(&mut mm, &rewrites);
            let broken: HashSet<(u32, u64)> = broken
                .iter()
                .map(|&(space, page)| {
                    let (s, vpn) = at(space, page);
                    (s.index() as u32, vpn.0)
                })
                .collect();

            let horizon = Tick(horizon);
            prop_assert_eq!(
                diagnose_misses(&mm, cap, horizon, &broken),
                diagnose_misses_btree(&mm, cap, horizon, &broken)
            );
        }
    }

    /// Two spaces each writing the same content into mergeable regions,
    /// never scanned: everything is a Pending miss.
    #[test]
    fn unmerged_duplicates_are_pending() {
        let mut mm = HostMm::new();
        let dup = Fingerprint::of(&[42]);
        for name in ["a", "b", "c"] {
            let s = mm.create_space(name);
            let base = mm.map_region(s, 1, MemTag::JavaHeap, true);
            mm.write_page(s, base, dup, Tick(1));
        }
        let report = diagnose_misses(&mm, 256, Tick(2), &HashSet::new());
        assert_eq!(report.groups_considered, 1);
        assert_eq!(report.achieved_pages, 0);
        assert_eq!(report.potential_pages, 2);
        assert_eq!(report.missed(MissReason::Pending), 2);
        assert_eq!(report.total_missed_pages(), 2);
        assert_eq!(report.top_groups.len(), 1);
        assert_eq!(report.top_groups[0].dominant, MissReason::Pending);
    }

    /// Recently-written duplicates are deferred by the volatility
    /// filter: the non-survivor is a `Volatile` miss.
    #[test]
    fn volatile_duplicate_is_classified_volatile() {
        let mut mm = HostMm::new();
        let dup = Fingerprint::of(&[7]);
        for name in ["a", "b"] {
            let s = mm.create_space(name);
            let base = mm.map_region(s, 1, MemTag::JavaHeap, true);
            mm.write_page(s, base, dup, Tick(10));
        }
        let report = diagnose_misses(&mm, 256, Tick(5), &HashSet::new());
        assert_eq!(report.missed(MissReason::Volatile), 1);
        assert_eq!(report.total_missed_pages(), 1);
    }

    /// With `max_page_sharing = 2`, four identical PTEs need two stable
    /// frames: one extra copy is charged to the chain cap, the other
    /// two unmerged frames stay `Pending`.
    #[test]
    fn chain_cap_charges_the_unavoidable_copies() {
        let mut mm = HostMm::new();
        let dup = Fingerprint::of(&[3]);
        for name in ["a", "b", "c", "d"] {
            let s = mm.create_space(name);
            let base = mm.map_region(s, 1, MemTag::JavaHeap, true);
            mm.write_page(s, base, dup, Tick(1));
        }
        let report = diagnose_misses(&mm, 2, Tick(20), &HashSet::new());
        assert_eq!(report.missed(MissReason::ChainCapped), 1);
        assert_eq!(report.missed(MissReason::Pending), 2);
        assert_eq!(report.potential_pages, 3);
        assert_eq!(
            report.achieved_pages + report.total_missed_pages(),
            report.potential_pages
        );
    }

    /// Identical content in a region KSM was never told about
    /// (`mergeable = false`) is an `Unregistered` miss.
    #[test]
    fn unadvised_duplicate_is_classified_unregistered() {
        let mut mm = HostMm::new();
        let dup = Fingerprint::of(&[11]);
        for (name, mergeable) in [("a", true), ("b", false)] {
            let s = mm.create_space(name);
            let base = mm.map_region(s, 1, MemTag::VmOverhead, mergeable);
            mm.write_page(s, base, dup, Tick(1));
        }
        let report = diagnose_misses(&mm, 256, Tick(20), &HashSet::new());
        assert_eq!(report.missed(MissReason::Unregistered), 1);
        assert_eq!(report.total_missed_pages(), 1);
    }

    /// A volatile duplicate whose mapping is in the tracer's
    /// merged-then-broken set is a `CowBroken` miss, not plain
    /// `Volatile`.
    #[test]
    fn broken_mapping_upgrades_volatile_to_cow_broken() {
        let mut mm = HostMm::new();
        let dup = Fingerprint::of(&[13]);
        let mut second = None;
        for name in ["a", "b"] {
            let s = mm.create_space(name);
            let base = mm.map_region(s, 1, MemTag::JavaHeap, true);
            mm.write_page(s, base, dup, Tick(10));
            second = Some((s, base));
        }
        // The survivor is the lowest-index frame (space "a"); mark the
        // loser's mapping as having COW-broken a merge.
        let (s, base) = second.unwrap();
        let broken: HashSet<(u32, u64)> = [(s.index() as u32, base.0)].into_iter().collect();
        let report = diagnose_misses(&mm, 256, Tick(5), &broken);
        assert_eq!(report.missed(MissReason::CowBroken), 1);
        assert_eq!(report.missed(MissReason::Volatile), 0);
        assert_eq!(report.total_missed_pages(), 1);
    }

    #[test]
    fn conservation_identity_holds() {
        let mut mm = HostMm::new();
        for i in 0..4u64 {
            let s = mm.create_space(format!("s{i}"));
            let base = mm.map_region(s, 8, MemTag::JavaHeap, i % 2 == 0);
            for p in 0..8u64 {
                // Half duplicated content, half unique-per-space.
                let fp = if p < 4 {
                    Fingerprint::of(&[p])
                } else {
                    Fingerprint::of(&[i, p])
                };
                mm.write_page(s, base.offset(p), fp, Tick(1));
            }
        }
        let report = diagnose_misses(&mm, 4, Tick(5), &HashSet::new());
        assert_eq!(
            report.achieved_pages + report.total_missed_pages(),
            report.potential_pages
        );
        assert!(report.groups_considered >= 4);
    }

    #[test]
    fn render_and_json_are_stable() {
        let mut mm = HostMm::new();
        let s = mm.create_space("a");
        let base = mm.map_region(s, 2, MemTag::JavaHeap, true);
        mm.write_page(s, base, Fingerprint::of(&[9]), Tick(1));
        mm.write_page(s, base.offset(1), Fingerprint::of(&[9]), Tick(1));
        let report = diagnose_misses(&mm, 256, Tick::ZERO, &HashSet::new());
        assert_eq!(
            report.to_json(),
            "{\"achieved_pages\":0,\"potential_pages\":1,\"groups\":1,\
             \"missed\":{\"chain_capped\":0,\"unregistered\":0,\"cow_broken\":0,\
             \"volatile\":0,\"pending\":1}}"
        );
        let text = report.render();
        assert!(text.contains("pending"));
        assert!(text.contains("total missed"));
    }
}
