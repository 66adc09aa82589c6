//! The host kernel's memory manager.

use crate::rmap::Rmap;
use crate::{AddressSpace, AsId, Mapping, MemTag, Region, SplitReason, Vpn};
use mem::{Fingerprint, FrameId, PhysMemory, Tick, HUGE_PAGE_SPAN};
use obs::{EventKind, Tracer};

/// The host memory manager: frame pool + every address space + rmap.
///
/// All page-state transitions go through this type so the copy-on-write
/// invariants hold globally:
///
/// * a frame's refcount equals the number of PTEs mapping it,
/// * a write to a shared frame first breaks the sharing (allocates a
///   private copy for the writer),
/// * KSM merges repoint every PTE of a duplicate frame at the canonical
///   frame and free the duplicate.
///
/// # Example
///
/// ```
/// use mem::{Fingerprint, Tick};
/// use paging::{HostMm, MemTag};
///
/// let mut mm = HostMm::new();
/// let (a, b) = (mm.create_space("vm1"), mm.create_space("vm2"));
/// let ra = mm.map_region(a, 1, MemTag::VmGuestMemory, true);
/// let rb = mm.map_region(b, 1, MemTag::VmGuestMemory, true);
/// let fp = Fingerprint::of(&[42]);
/// mm.write_page(a, ra, fp, Tick(0));
/// mm.write_page(b, rb, fp, Tick(0));
///
/// // Two identical pages in two VMs: KSM would merge them.
/// let (fa, fb) = (mm.frame_at(a, ra).unwrap(), mm.frame_at(b, rb).unwrap());
/// mm.merge_frames(fb, fa);
/// assert_eq!(mm.frame_at(b, rb), Some(fa));
/// assert_eq!(mm.phys().refcount(fa), 2);
///
/// // A write from vm2 breaks the sharing copy-on-write.
/// mm.write_page(b, rb, Fingerprint::of(&[43]), Tick(1));
/// assert_ne!(mm.frame_at(b, rb), Some(fa));
/// assert_eq!(mm.phys().refcount(fa), 1);
/// ```
#[derive(Debug, Default)]
pub struct HostMm {
    phys: PhysMemory,
    spaces: Vec<AddressSpace>,
    rmap: Rmap,
    cow_breaks: u64,
    epoch: u64,
    huge_collapses: u64,
    huge_splits: u64,
    balloon_pages: u64,
    tracer: Tracer,
}

impl HostMm {
    /// Creates an empty memory manager.
    #[must_use]
    pub fn new() -> HostMm {
        HostMm::default()
    }

    /// Registers a new (empty) address space.
    pub fn create_space(&mut self, name: impl Into<String>) -> AsId {
        let id = AsId(u32::try_from(self.spaces.len()).expect("too many address spaces"));
        self.spaces.push(AddressSpace::new(id, name.into()));
        id
    }

    /// Returns the address space registered as `id`.
    ///
    /// # Panics
    ///
    /// Panics if `id` was not returned by [`create_space`](Self::create_space).
    #[must_use]
    pub fn space(&self, id: AsId) -> &AddressSpace {
        &self.spaces[id.index()]
    }

    /// All registered address spaces, in creation order.
    #[must_use]
    pub fn spaces(&self) -> &[AddressSpace] {
        &self.spaces
    }

    /// The underlying frame pool.
    #[must_use]
    pub fn phys(&self) -> &PhysMemory {
        &self.phys
    }

    /// Mutable access to the frame pool, bypassing the page-table
    /// bookkeeping that keeps refcounts, rmap entries and PTEs in sync.
    ///
    /// Exists solely so fault-injection tests can corrupt the world and
    /// prove the cross-layer auditor reports it; simulation code must
    /// never call this — go through [`write_page`](Self::write_page) and
    /// friends instead.
    #[must_use]
    pub fn phys_mut(&mut self) -> &mut PhysMemory {
        self.epoch += 1;
        &mut self.phys
    }

    /// Number of copy-on-write breaks performed so far.
    #[must_use]
    pub fn cow_breaks(&self) -> u64 {
        self.cow_breaks
    }

    /// Pages, over every region, whose write once CoW-broke a KSM-shared
    /// frame ([`Region::was_cow_broken`]): the merged-then-broken
    /// mappings.
    #[must_use]
    pub fn cow_broken_mappings(&self) -> u64 {
        self.spaces
            .iter()
            .flat_map(AddressSpace::regions)
            .map(Region::cow_broken_pages)
            .sum()
    }

    /// Number of 2 MiB collapses performed so far.
    #[must_use]
    pub fn huge_collapses(&self) -> u64 {
        self.huge_collapses
    }

    /// Number of 2 MiB splits performed so far (all reasons).
    #[must_use]
    pub fn huge_splits(&self) -> u64 {
        self.huge_splits
    }

    /// Cumulative pages reclaimed by balloon inflations (recorded by
    /// the hypervisor's balloon driver via
    /// [`note_balloon_reclaim`](Self::note_balloon_reclaim)).
    #[must_use]
    pub fn balloon_pages(&self) -> u64 {
        self.balloon_pages
    }

    /// Records `pages` reclaimed by a balloon inflation. Pure
    /// accounting: the unmaps themselves already went through
    /// [`unmap_page`](Self::unmap_page).
    pub fn note_balloon_reclaim(&mut self, pages: u64) {
        self.balloon_pages += pages;
    }

    /// Exports the memory manager's deterministic counters — CoW
    /// breaks, huge-page collapse/split traffic, balloon reclaims, the
    /// mutation epoch, allocated frames — plus the tracer's
    /// recorded/dropped event counts into `reg`. All series are
    /// simulated-state ([`obs::MetricClass::Sim`]) and byte-identical
    /// at any thread count.
    pub fn record_metrics(&self, reg: &mut obs::MetricsRegistry) {
        reg.counter(
            "paging_cow_breaks_total",
            "Copy-on-write breaks performed.",
            &[],
            self.cow_breaks,
        );
        reg.counter(
            "paging_huge_collapses_total",
            "2 MiB huge-page collapses performed (khugepaged model).",
            &[],
            self.huge_collapses,
        );
        reg.counter(
            "paging_huge_splits_total",
            "2 MiB huge-page splits performed, all reasons.",
            &[],
            self.huge_splits,
        );
        reg.counter(
            "paging_balloon_reclaimed_pages_total",
            "Pages reclaimed from guests by balloon inflations.",
            &[],
            self.balloon_pages,
        );
        reg.counter(
            "paging_mutation_epoch",
            "Monotonic mutation counter over all state-changing operations.",
            &[],
            self.epoch,
        );
        reg.gauge(
            "paging_allocated_frames",
            "Host physical frames currently allocated.",
            &[],
            self.phys.allocated_frames() as f64,
        );
        reg.counter(
            "obs_trace_events_recorded_total",
            "Trace events recorded into the ring buffer.",
            &[],
            self.tracer.recorded(),
        );
        reg.counter("obs_trace_events_dropped_total", "Trace events dropped by ring-buffer wraparound (lifecycles may look complete when they are not).", &[], self.tracer.dropped());
    }

    /// The event tracer attached to this memory manager. Disabled by
    /// default; every layer that mutates memory through this `HostMm`
    /// (itself, the guest kernels, the JVMs, KSM, the hypervisor) emits
    /// structured events into it when enabled.
    #[must_use]
    pub fn tracer(&self) -> &Tracer {
        &self.tracer
    }

    /// Mutable tracer access (to enable tracing or drain the log).
    #[must_use]
    pub fn tracer_mut(&mut self) -> &mut Tracer {
        &mut self.tracer
    }

    /// Monotonic mutation counter, bumped by every state-changing
    /// operation (mapping, writing, unmapping, merging). Consumers may
    /// cache values derived from the memory state keyed by this: an
    /// unchanged epoch guarantees the state is unchanged.
    #[must_use]
    pub fn epoch(&self) -> u64 {
        self.epoch
    }

    /// Reserves a region in `space` and returns its base page.
    pub fn map_region(&mut self, space: AsId, pages: usize, tag: MemTag, mergeable: bool) -> Vpn {
        self.epoch += 1;
        let base = self.spaces[space.index()].add_region(pages, tag, mergeable);
        self.tracer.emit_with(|| EventKind::RegionMap {
            space: space.0,
            base: base.0,
            pages: pages as u64,
            mergeable,
        });
        base
    }

    /// Reserves a region at a fixed base in `space`.
    ///
    /// # Panics
    ///
    /// Panics if the range overlaps an existing region.
    pub fn map_region_at(
        &mut self,
        space: AsId,
        base: Vpn,
        pages: usize,
        tag: MemTag,
        mergeable: bool,
    ) {
        self.epoch += 1;
        self.spaces[space.index()].add_region_at(base, pages, tag, mergeable);
        self.tracer.emit_with(|| EventKind::RegionMap {
            space: space.0,
            base: base.0,
            pages: pages as u64,
            mergeable,
        });
    }

    /// Writes `fingerprint` to the page at (`space`, `vpn`): the one-page
    /// case of [`write_run`](Self::write_run).
    ///
    /// Faults the page in if unpopulated, breaks copy-on-write sharing if
    /// the backing frame is shared, otherwise overwrites in place.
    ///
    /// # Panics
    ///
    /// Panics if `vpn` lies outside every region of `space`.
    pub fn write_page(&mut self, space: AsId, vpn: Vpn, fingerprint: Fingerprint, now: Tick) {
        self.write_run(space, now, std::iter::once((vpn, fingerprint)));
    }

    /// Writes each `(vpn, fingerprint)` of `pages` in `space`, in order,
    /// with exactly the effects of one [`write_page`](Self::write_page)
    /// per page: the same frames, events, counters and epoch.
    ///
    /// The region is resolved once for each stretch of consecutive pages
    /// that falls inside it, so a run over one memslot pays one range
    /// lookup. A region holding any huge block is written page by page,
    /// because a CoW write there may split a block; a region with none
    /// cannot gain one from a write.
    ///
    /// # Panics
    ///
    /// Panics if a page lies outside every region of `space`.
    pub fn write_run(
        &mut self,
        space: AsId,
        now: Tick,
        pages: impl IntoIterator<Item = (Vpn, Fingerprint)>,
    ) {
        let mut pages = pages.into_iter().peekable();
        while let Some(&(vpn, fingerprint)) = pages.peek() {
            let region = self.spaces[space.index()]
                .region_containing_mut(vpn)
                .unwrap_or_else(|| panic!("write to unmapped address {space}/{vpn}"));
            if region.huge_blocks() > 0 {
                pages.next();
                self.write_huge(space, vpn, fingerprint, now);
                continue;
            }
            let (start, end) = (region.base(), region.end());
            while let Some((vpn, fingerprint)) = pages.next_if(|&(v, _)| v >= start && v < end) {
                self.epoch += 1;
                let broke = write_in(
                    region,
                    &mut self.phys,
                    &mut self.rmap,
                    &self.tracer,
                    Mapping { space, vpn },
                    fingerprint,
                    now,
                );
                self.cow_breaks += u64::from(broke);
            }
        }
    }

    /// One page write into a region holding huge blocks.
    fn write_huge(&mut self, space: AsId, vpn: Vpn, fingerprint: Fingerprint, now: Tick) {
        // A CoW write landing inside a huge mapping demotes it to base
        // pages first: the kernel cannot break sharing at 4 KiB
        // granularity under a 2 MiB translation.
        if let Some((base, block)) = {
            let region = self.spaces[space.index()].region_containing(vpn);
            region
                .filter(|r| r.is_huge_page(vpn))
                .filter(|r| {
                    r.frame_at(vpn)
                        .is_some_and(|frame| self.phys.refcount(frame) > 1)
                })
                .map(|r| (r.base(), (vpn.0 - r.base().0) as usize / HUGE_PAGE_SPAN))
        } {
            self.split_block(space, base, block, SplitReason::Cow);
        }
        self.epoch += 1;
        let region = self.spaces[space.index()]
            .region_containing_mut(vpn)
            .expect("region resolved by the caller");
        let broke = write_in(
            region,
            &mut self.phys,
            &mut self.rmap,
            &self.tracer,
            Mapping { space, vpn },
            fingerprint,
            now,
        );
        self.cow_breaks += u64::from(broke);
    }

    /// Returns the frame backing (`space`, `vpn`), or `None` if the page is
    /// unpopulated or outside every region.
    #[must_use]
    pub fn frame_at(&self, space: AsId, vpn: Vpn) -> Option<FrameId> {
        self.spaces[space.index()].frame_at(vpn)
    }

    /// Returns the content fingerprint at (`space`, `vpn`), or `None` if
    /// unpopulated.
    #[must_use]
    pub fn fingerprint_at(&self, space: AsId, vpn: Vpn) -> Option<Fingerprint> {
        self.frame_at(space, vpn).map(|f| self.phys.fingerprint(f))
    }

    /// Unpopulates one page, releasing its frame reference.
    ///
    /// Does nothing if the page was already unpopulated.
    pub fn unmap_page(&mut self, space: AsId, vpn: Vpn) {
        // Unmapping any subpage of a huge mapping (madvise(DONTNEED),
        // ballooning) splits it back to base pages first.
        if let Some((base, block)) = {
            self.spaces[space.index()]
                .region_containing(vpn)
                .filter(|r| r.huge_blocks() > 0 && r.is_huge_page(vpn))
                .map(|r| (r.base(), (vpn.0 - r.base().0) as usize / HUGE_PAGE_SPAN))
        } {
            self.split_block(space, base, block, SplitReason::Madvise);
        }
        let region = match self.spaces[space.index()].region_containing_mut(vpn) {
            Some(r) => r,
            None => return,
        };
        if let Some(frame) = region.frame_at(vpn) {
            region.set_frame(vpn, None);
            self.rmap.remove(frame, Mapping { space, vpn });
            self.phys.dec_ref(frame);
            self.epoch += 1;
            self.tracer.emit_with(|| EventKind::PageUnmap {
                space: space.0,
                vpn: vpn.0,
                frame: frame.index() as u64,
            });
        }
    }

    /// Removes an entire region, releasing all its frames.
    pub fn unmap_region(&mut self, space: AsId, base: Vpn) {
        let region = match self.spaces[space.index()].remove_region(base) {
            Some(r) => r,
            None => return,
        };
        self.epoch += 1;
        self.tracer.emit_with(|| EventKind::RegionUnmap {
            space: space.0,
            base: region.base().0,
            pages: region.len_pages() as u64,
        });
        for (vpn, frame) in region.iter_mapped() {
            self.rmap.remove(frame, Mapping { space, vpn });
            self.phys.dec_ref(frame);
        }
    }

    /// Merges `dup` into `canonical`: every PTE pointing at `dup` is
    /// repointed at `canonical`, `canonical` is marked KSM-shared, and
    /// `dup` is freed. This is the page-table half of a KSM merge; the
    /// scanner decides *which* frames to merge.
    ///
    /// # Panics
    ///
    /// Panics if the two frames' fingerprints differ (KSM verifies with a
    /// full memcmp before merging) or if `dup == canonical`.
    pub fn merge_frames(&mut self, dup: FrameId, canonical: FrameId) {
        self.epoch += 1;
        assert_ne!(dup, canonical, "cannot merge a frame into itself");
        assert_eq!(
            self.phys.fingerprint(dup),
            self.phys.fingerprint(canonical),
            "KSM memcmp failed: contents differ"
        );
        let users = self.rmap.take_users(dup);
        let users = users.as_slice();
        assert!(!users.is_empty(), "merging a frame with no users");
        for &mapping in users {
            let region = self.spaces[mapping.space.index()]
                .region_containing_mut(mapping.vpn)
                .expect("rmap points outside regions");
            debug_assert_eq!(region.frame_at(mapping.vpn), Some(dup));
            region.set_frame(mapping.vpn, Some(canonical));
            self.phys.inc_ref(canonical);
            self.rmap.add(canonical, mapping);
            self.phys.dec_ref(dup);
        }
        self.phys.set_ksm_shared(canonical, true);
    }

    /// Marks `frame` as a KSM stable-tree node without merging anything
    /// into it yet (used when a saturated chain is split and a fresh
    /// canonical page is promoted).
    pub fn mark_ksm_stable(&mut self, frame: FrameId) {
        self.epoch += 1;
        self.phys.set_ksm_shared(frame, true);
    }

    /// Attempts a khugepaged-style collapse of the `block`-th 2 MiB
    /// block of the region based at (`space`, `base`). Succeeds only if
    /// every one of the block's [`HUGE_PAGE_SPAN`] pages is populated
    /// by an exclusively-owned, non-KSM frame, the block is not already
    /// huge, and KSM has not latched it split. Returns whether the
    /// collapse happened.
    pub fn try_collapse(&mut self, space: AsId, base: Vpn, block: usize) -> bool {
        let eligible = {
            let Some(region) = self.spaces[space.index()].region_at(base) else {
                return false;
            };
            block < region.block_count()
                && !region.is_huge_block(block)
                && !region.ksm_split_latched(block)
                && (0..HUGE_PAGE_SPAN).all(|i| {
                    region
                        .frame_at_index(block * HUGE_PAGE_SPAN + i)
                        .is_some_and(|frame| {
                            self.phys.refcount(frame) == 1 && !self.phys.is_ksm_shared(frame)
                        })
                })
        };
        if !eligible {
            return false;
        }
        let region = self.spaces[space.index()]
            .region_containing_mut(base)
            .expect("region vanished during collapse");
        region.set_huge(block, true);
        self.epoch += 1;
        self.huge_collapses += 1;
        self.tracer.emit_with(|| EventKind::HugeCollapse {
            space: space.0,
            base: base.0,
            block: block as u64,
        });
        true
    }

    /// Demotes the `block`-th 2 MiB block of the region based at
    /// (`space`, `base`) back to base pages. Idempotent: returns `false`
    /// if the block is not currently huge. A split for
    /// [`SplitReason::Ksm`] latches the block so khugepaged never
    /// re-collapses what the scanner tore down.
    pub fn split_block(
        &mut self,
        space: AsId,
        base: Vpn,
        block: usize,
        reason: SplitReason,
    ) -> bool {
        let Some(region) = self.spaces[space.index()].region_containing_mut(base) else {
            return false;
        };
        if region.base() != base || !region.is_huge_block(block) {
            return false;
        }
        region.set_huge(block, false);
        if reason == SplitReason::Ksm {
            region.set_ksm_latch(block);
        }
        self.epoch += 1;
        self.huge_splits += 1;
        self.tracer.emit_with(|| EventKind::HugeSplit {
            space: space.0,
            base: base.0,
            block: block as u64,
            reason: reason.code(),
        });
        true
    }

    /// The PTE locations currently mapping `frame`.
    #[must_use]
    pub fn mappers_of(&self, frame: FrameId) -> &[Mapping] {
        self.rmap.users(frame)
    }

    /// Checks the global CoW invariant: every frame's refcount equals its
    /// rmap entry count, the total rmap size equals the total number of
    /// populated PTEs, and no freed frame keeps rmap users (the pool
    /// reuses freed ids). Also recounts the frame pool's sole-holder
    /// filter ([`PhysMemory::assert_holders_consistent`], which builds
    /// it on the first check). Intended for tests; O(total pages).
    ///
    /// # Panics
    ///
    /// Panics if an invariant is violated.
    pub fn assert_consistent(&self) {
        let mut pte_count = 0usize;
        for space in &self.spaces {
            for region in space.regions() {
                for (vpn, frame) in region.iter_mapped() {
                    pte_count += 1;
                    let users = self.rmap.users(frame);
                    assert!(
                        users.contains(&Mapping {
                            space: space.id(),
                            vpn
                        }),
                        "PTE {}/{vpn} missing from rmap of {frame}",
                        space.id()
                    );
                }
            }
        }
        for frame in self.rmap.frames() {
            assert!(
                self.phys.is_live(frame),
                "rmap keeps users of freed frame {frame}"
            );
        }
        assert_eq!(pte_count, self.rmap.total_entries(), "rmap size mismatch");
        for (frame_id, frame) in self.phys.iter() {
            assert_eq!(
                frame.refcount() as usize,
                self.rmap.users(frame_id).len(),
                "refcount mismatch on {frame_id}"
            );
        }
        self.phys.assert_holders_consistent();
    }
}

/// The per-page core of every write: faults the page in, breaks
/// copy-on-write sharing (emitting [`EventKind::CowBreak`], and marking
/// the page [`Region::was_cow_broken`] when the frame was KSM-shared),
/// or overwrites the exclusively owned frame in place. Returns whether
/// it broke sharing.
fn write_in(
    region: &mut Region,
    phys: &mut PhysMemory,
    rmap: &mut Rmap,
    tracer: &Tracer,
    mapping: Mapping,
    fingerprint: Fingerprint,
    now: Tick,
) -> bool {
    let Mapping { space, vpn } = mapping;
    match region.frame_at(vpn) {
        None => {
            let frame = phys.alloc(fingerprint, now);
            region.set_frame(vpn, Some(frame));
            rmap.add(frame, mapping);
            false
        }
        Some(frame) if phys.refcount(frame) > 1 => {
            // CoW break: give the writer a private copy.
            let fresh = phys.alloc(fingerprint, now);
            region.set_frame(vpn, Some(fresh));
            rmap.remove(frame, mapping);
            rmap.add(fresh, mapping);
            let was_ksm_shared = phys.is_ksm_shared(frame);
            if was_ksm_shared {
                region.mark_cow_broken(vpn);
            }
            tracer.emit_with(|| EventKind::CowBreak {
                space: space.0,
                vpn: vpn.0,
                old_frame: frame.index() as u64,
                new_frame: fresh.index() as u64,
                was_ksm_shared,
            });
            phys.dec_ref(frame);
            true
        }
        Some(frame) => {
            phys.write(frame, fingerprint, now);
            false
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn fp(n: u64) -> Fingerprint {
        Fingerprint::of(&[n])
    }

    fn setup_two_identical() -> (HostMm, AsId, Vpn, AsId, Vpn) {
        let mut mm = HostMm::new();
        let a = mm.create_space("a");
        let b = mm.create_space("b");
        let ra = mm.map_region(a, 4, MemTag::VmGuestMemory, true);
        let rb = mm.map_region(b, 4, MemTag::VmGuestMemory, true);
        mm.write_page(a, ra, fp(7), Tick(0));
        mm.write_page(b, rb, fp(7), Tick(0));
        (mm, a, ra, b, rb)
    }

    #[test]
    fn fault_in_on_first_write() {
        let mut mm = HostMm::new();
        let s = mm.create_space("s");
        let base = mm.map_region(s, 2, MemTag::JavaHeap, true);
        assert_eq!(mm.frame_at(s, base), None);
        mm.write_page(s, base, fp(1), Tick(0));
        assert!(mm.frame_at(s, base).is_some());
        assert_eq!(mm.phys().allocated_frames(), 1);
        mm.assert_consistent();
    }

    #[test]
    fn overwrite_in_place_when_exclusive() {
        let mut mm = HostMm::new();
        let s = mm.create_space("s");
        let base = mm.map_region(s, 1, MemTag::JavaHeap, true);
        mm.write_page(s, base, fp(1), Tick(0));
        let frame = mm.frame_at(s, base).unwrap();
        mm.write_page(s, base, fp(2), Tick(1));
        assert_eq!(mm.frame_at(s, base), Some(frame));
        assert_eq!(mm.fingerprint_at(s, base), Some(fp(2)));
        assert_eq!(mm.cow_breaks(), 0);
    }

    #[test]
    fn merge_then_cow_break() {
        let (mut mm, a, ra, b, rb) = setup_two_identical();
        let fa = mm.frame_at(a, ra).unwrap();
        let fb = mm.frame_at(b, rb).unwrap();
        mm.merge_frames(fb, fa);
        assert_eq!(mm.phys().allocated_frames(), 1);
        assert_eq!(mm.phys().refcount(fa), 2);
        assert!(mm.phys().is_ksm_shared(fa));
        mm.assert_consistent();

        mm.write_page(b, rb, fp(8), Tick(2));
        assert_eq!(mm.cow_breaks(), 1);
        assert_eq!(mm.phys().refcount(fa), 1);
        assert_eq!(mm.fingerprint_at(a, ra), Some(fp(7)));
        assert_eq!(mm.fingerprint_at(b, rb), Some(fp(8)));
        mm.assert_consistent();

        // Only the writer's page is marked merged-then-broken, and the
        // mark survives a later write.
        mm.write_page(b, rb, fp(9), Tick(3));
        let region_b = mm.space(b).region_at(rb).unwrap();
        assert!(region_b.was_cow_broken(rb));
        assert!(!region_b.was_cow_broken(rb.offset(1)));
        assert!(!mm.space(a).region_at(ra).unwrap().was_cow_broken(ra));
        assert_eq!(mm.cow_broken_mappings(), 1);
    }

    #[test]
    #[should_panic(expected = "memcmp failed")]
    fn merge_rejects_different_content() {
        let (mut mm, a, ra, b, rb) = setup_two_identical();
        mm.write_page(b, rb, fp(9), Tick(1));
        let fa = mm.frame_at(a, ra).unwrap();
        let fb = mm.frame_at(b, rb).unwrap();
        mm.merge_frames(fb, fa);
    }

    #[test]
    fn merge_three_way() {
        let mut mm = HostMm::new();
        let mut pages = Vec::new();
        for name in ["a", "b", "c"] {
            let s = mm.create_space(name);
            let r = mm.map_region(s, 1, MemTag::VmGuestMemory, true);
            mm.write_page(s, r, fp(5), Tick(0));
            pages.push((s, r));
        }
        let canonical = mm.frame_at(pages[0].0, pages[0].1).unwrap();
        for &(s, r) in &pages[1..] {
            let dup = mm.frame_at(s, r).unwrap();
            mm.merge_frames(dup, canonical);
        }
        assert_eq!(mm.phys().refcount(canonical), 3);
        assert_eq!(mm.phys().allocated_frames(), 1);
        assert_eq!(mm.mappers_of(canonical).len(), 3);
        mm.assert_consistent();
    }

    #[test]
    fn unmap_page_releases_frame() {
        let mut mm = HostMm::new();
        let s = mm.create_space("s");
        let base = mm.map_region(s, 2, MemTag::JavaHeap, true);
        mm.write_page(s, base, fp(1), Tick(0));
        mm.unmap_page(s, base);
        assert_eq!(mm.phys().allocated_frames(), 0);
        assert_eq!(mm.frame_at(s, base), None);
        // Unmapping again is a no-op.
        mm.unmap_page(s, base);
        mm.assert_consistent();
    }

    #[test]
    fn unmap_region_releases_shared_frames_correctly() {
        let (mut mm, a, ra, b, rb) = setup_two_identical();
        let fa = mm.frame_at(a, ra).unwrap();
        let fb = mm.frame_at(b, rb).unwrap();
        mm.merge_frames(fb, fa);
        mm.unmap_region(b, rb);
        assert_eq!(mm.phys().refcount(fa), 1);
        assert_eq!(mm.fingerprint_at(a, ra), Some(fp(7)));
        mm.assert_consistent();
    }

    fn huge_setup() -> (HostMm, AsId, Vpn) {
        let mut mm = HostMm::new();
        let s = mm.create_space("vm");
        let base = mm.map_region(s, 1024, MemTag::VmGuestMemory, true);
        for i in 0..1024 {
            mm.write_page(s, base.offset(i), fp(1000 + i), Tick(0));
        }
        (mm, s, base)
    }

    #[test]
    fn collapse_requires_full_exclusive_block() {
        let (mut mm, s, base) = huge_setup();
        assert!(mm.try_collapse(s, base, 0));
        assert!(mm.try_collapse(s, base, 1));
        // Already huge: no double collapse.
        assert!(!mm.try_collapse(s, base, 0));
        // Out of range.
        assert!(!mm.try_collapse(s, base, 2));
        let region = mm.space(s).region_at(base).unwrap();
        assert_eq!(region.huge_blocks(), 2);
        assert_eq!(region.huge_pages(), 1024);
        assert!(region.is_huge_page(base.offset(511)));
        assert_eq!(mm.huge_collapses(), 2);
        mm.assert_consistent();
    }

    #[test]
    fn collapse_rejects_holes_and_shared_frames() {
        let (mut mm, s, base) = huge_setup();
        mm.unmap_page(s, base.offset(3));
        assert!(!mm.try_collapse(s, base, 0), "hole must block collapse");
        let f = mm.frame_at(s, base.offset(600)).unwrap();
        mm.mark_ksm_stable(f);
        assert!(
            !mm.try_collapse(s, base, 1),
            "KSM-shared subframe must block collapse"
        );
    }

    #[test]
    fn unmap_inside_huge_block_splits_first() {
        let (mut mm, s, base) = huge_setup();
        assert!(mm.try_collapse(s, base, 0));
        mm.unmap_page(s, base.offset(100));
        let region = mm.space(s).region_at(base).unwrap();
        assert!(!region.is_huge_block(0));
        assert!(!region.ksm_split_latched(0), "madvise split must not latch");
        assert_eq!(mm.huge_splits(), 1);
        // Refault and re-collapse: madvise splits are not permanent.
        mm.write_page(s, base.offset(100), fp(7), Tick(1));
        assert!(mm.try_collapse(s, base, 0));
        mm.assert_consistent();
    }

    #[test]
    fn ksm_split_latches_against_recollapse() {
        let (mut mm, s, base) = huge_setup();
        assert!(mm.try_collapse(s, base, 0));
        assert!(mm.split_block(s, base, 0, crate::SplitReason::Ksm));
        // Idempotent on an already-split block.
        assert!(!mm.split_block(s, base, 0, crate::SplitReason::Ksm));
        assert!(!mm.try_collapse(s, base, 0), "latched block must stay 4K");
        assert!(mm.try_collapse(s, base, 1), "other blocks unaffected");
    }

    #[test]
    fn cow_write_into_huge_block_splits() {
        let (mut mm, s, base) = huge_setup();
        assert!(mm.try_collapse(s, base, 0));
        // Fabricate sharing inside the huge block (normally impossible;
        // mirrors what a fork-style share would look like).
        let victim = mm.frame_at(s, base.offset(8)).unwrap();
        mm.phys_mut().inc_ref(victim);
        mm.write_page(s, base.offset(8), fp(9), Tick(2));
        let region = mm.space(s).region_at(base).unwrap();
        assert!(!region.is_huge_block(0), "CoW write must demote the block");
        assert_eq!(mm.cow_breaks(), 1);
        // The shared frame was never KSM-merged, so nothing is marked.
        assert_eq!(mm.cow_broken_mappings(), 0);
        mm.phys_mut().dec_ref(victim);
    }

    #[test]
    fn write_after_unmap_refaults() {
        let mut mm = HostMm::new();
        let s = mm.create_space("s");
        let base = mm.map_region(s, 1, MemTag::JavaHeap, true);
        mm.write_page(s, base, fp(1), Tick(0));
        mm.unmap_page(s, base);
        mm.write_page(s, base, fp(2), Tick(1));
        assert_eq!(mm.fingerprint_at(s, base), Some(fp(2)));
        mm.assert_consistent();
    }
}
