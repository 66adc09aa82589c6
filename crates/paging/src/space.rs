//! Per-process virtual address spaces.

use crate::MemTag;
use mem::{FrameId, HUGE_PAGE_SPAN};
use std::collections::BTreeMap;
use std::fmt;

/// A virtual page number within one address space.
///
/// # Example
///
/// ```
/// use paging::Vpn;
///
/// let v = Vpn(10).offset(5);
/// assert_eq!(v, Vpn(15));
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
pub struct Vpn(pub u64);

impl Vpn {
    /// Returns the page `delta` pages above this one.
    #[must_use]
    pub fn offset(self, delta: u64) -> Vpn {
        Vpn(self.0 + delta)
    }
}

impl fmt::Display for Vpn {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "vpn{:#x}", self.0)
    }
}

/// Identifier of an address space registered with
/// [`HostMm`](crate::HostMm).
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct AsId(pub(crate) u32);

impl AsId {
    /// Returns the raw index of the address space.
    #[must_use]
    pub fn index(self) -> usize {
        self.0 as usize
    }
}

impl fmt::Display for AsId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "as{}", self.0)
    }
}

const UNMAPPED: u32 = u32::MAX;

/// A contiguous page-aligned mapping within an address space.
///
/// Regions start fully unpopulated (demand paging): a page acquires a frame
/// on its first write fault. This mirrors anonymous `mmap()` on Linux, which
/// the paper notes always returns page-aligned memory — the property that
/// makes cross-VM page identity possible at all.
#[derive(Debug, Clone)]
pub struct Region {
    base: Vpn,
    tag: MemTag,
    mergeable: bool,
    // Frame per page; u32::MAX is the unmapped sentinel (kept compact: at
    // paper scale there are millions of page slots).
    pages: Vec<u32>,
    mapped: usize,
    // Identity within the owning address space: survives nothing — a
    // region removed and re-added at the same base gets a fresh id, so
    // cached per-region state (the KSM clean-region records) can never
    // alias across the replacement.
    id: u64,
    // Monotonic write generation: bumped on every fault-in, overwrite,
    // CoW break, PTE repoint, and unmap. An unchanged generation means
    // no page of the region changed content or population.
    generation: u64,
    // Huge-page overlay: one flag per fully-contained, region-relative
    // 2 MiB block (HUGE_PAGE_SPAN pages). A set flag means the block's
    // 512 subframes are mapped through a single PMD-sized translation.
    // Frames themselves stay 4 KiB in the frame table; hugeness is a
    // property of the translation, as in FHPM-style fine-grained THP.
    huge: Vec<bool>,
    huge_count: usize,
    // Blocks the KSM scanner split stay split: khugepaged must not
    // re-collapse a block KSM tore down to merge, or the two would
    // livelock. Splits for madvise/balloon/CoW reasons do not latch.
    ksm_latch: Vec<bool>,
}

impl Region {
    fn new(id: u64, base: Vpn, pages: usize, tag: MemTag, mergeable: bool) -> Region {
        let blocks = pages / HUGE_PAGE_SPAN;
        Region {
            base,
            tag,
            mergeable,
            pages: vec![UNMAPPED; pages],
            mapped: 0,
            id,
            generation: 0,
            huge: vec![false; blocks],
            huge_count: 0,
            ksm_latch: vec![false; blocks],
        }
    }

    /// First page of the region.
    #[must_use]
    pub fn base(&self) -> Vpn {
        self.base
    }

    /// Length of the region in pages.
    #[must_use]
    pub fn len_pages(&self) -> usize {
        self.pages.len()
    }

    /// Semantic tag of the region.
    #[must_use]
    pub fn tag(&self) -> MemTag {
        self.tag
    }

    /// `true` if the region is advertised to the KSM scanner
    /// (`madvise(MADV_MERGEABLE)` in real KVM).
    #[must_use]
    pub fn mergeable(&self) -> bool {
        self.mergeable
    }

    /// Number of currently populated pages.
    #[must_use]
    pub fn mapped_pages(&self) -> usize {
        self.mapped
    }

    /// Identity of this region within its address space. Unique across
    /// the space's lifetime: a region re-created at the same base gets a
    /// different id.
    #[must_use]
    pub fn id(&self) -> u64 {
        self.id
    }

    /// Monotonic write-generation counter. Two equal observations mean
    /// no page of the region was written, faulted in, repointed, or
    /// unmapped in between.
    #[must_use]
    pub fn generation(&self) -> u64 {
        self.generation
    }

    pub(crate) fn touch(&mut self) {
        self.generation += 1;
    }

    /// One past the last page of the region.
    #[must_use]
    pub fn end(&self) -> Vpn {
        Vpn(self.base.0 + self.pages.len() as u64)
    }

    fn slot_index(&self, vpn: Vpn) -> Option<usize> {
        if vpn >= self.base && vpn < self.end() {
            Some((vpn.0 - self.base.0) as usize)
        } else {
            None
        }
    }

    pub(crate) fn frame_at(&self, vpn: Vpn) -> Option<FrameId> {
        let idx = self.slot_index(vpn)?;
        let raw = self.pages[idx];
        (raw != UNMAPPED).then(|| FrameId::from_raw(raw))
    }

    /// Frame backing the `index`-th page of the region, if populated.
    ///
    /// Direct indexing into the frame table — the page-iteration path
    /// for callers (like the KSM scanner) that have already resolved
    /// the region and walk it with a cursor, avoiding a per-page
    /// region lookup.
    ///
    /// # Panics
    ///
    /// Panics if `index >= len_pages()`.
    #[must_use]
    pub fn frame_at_index(&self, index: usize) -> Option<FrameId> {
        let raw = self.pages[index];
        (raw != UNMAPPED).then(|| FrameId::from_raw(raw))
    }

    /// Page index of the `n`-th (0-based) populated page, or `None` if
    /// fewer than `n + 1` pages are populated. O(len); used only on the
    /// rare fall-back when a clean-region skip is interrupted.
    #[must_use]
    pub fn nth_mapped_index(&self, n: u64) -> Option<usize> {
        let mut seen = 0u64;
        for (idx, &raw) in self.pages.iter().enumerate() {
            if raw != UNMAPPED {
                if seen == n {
                    return Some(idx);
                }
                seen += 1;
            }
        }
        None
    }

    pub(crate) fn set_frame(&mut self, vpn: Vpn, frame: Option<FrameId>) {
        let idx = self.slot_index(vpn).expect("vpn outside region");
        let old = self.pages[idx];
        let new = frame.map_or(UNMAPPED, FrameId::into_raw);
        if old == UNMAPPED && new != UNMAPPED {
            self.mapped += 1;
        } else if old != UNMAPPED && new == UNMAPPED {
            self.mapped -= 1;
        }
        self.pages[idx] = new;
        self.generation += 1;
    }

    /// Iterates over populated pages as `(vpn, frame)` pairs.
    pub fn iter_mapped(&self) -> impl Iterator<Item = (Vpn, FrameId)> + '_ {
        self.pages
            .iter()
            .enumerate()
            .filter(|&(_i, &raw)| raw != UNMAPPED)
            .map(|(i, &raw)| (self.base.offset(i as u64), FrameId::from_raw(raw)))
    }

    /// Number of fully-contained 2 MiB blocks the region can hold
    /// (regions shorter than [`HUGE_PAGE_SPAN`] pages have none).
    #[must_use]
    pub fn block_count(&self) -> usize {
        self.huge.len()
    }

    /// `true` if the `block`-th region-relative 2 MiB block is mapped
    /// huge. Out-of-range blocks are never huge.
    #[must_use]
    pub fn is_huge_block(&self, block: usize) -> bool {
        self.huge.get(block).copied().unwrap_or(false)
    }

    /// `true` if `vpn` lies inside a huge-mapped block of this region.
    #[must_use]
    pub fn is_huge_page(&self, vpn: Vpn) -> bool {
        match self.slot_index(vpn) {
            Some(idx) => self.is_huge_block(idx / HUGE_PAGE_SPAN),
            None => false,
        }
    }

    /// Number of blocks currently mapped huge.
    #[must_use]
    pub fn huge_blocks(&self) -> usize {
        self.huge_count
    }

    /// Number of pages reached through huge translations
    /// (`huge_blocks() * HUGE_PAGE_SPAN`).
    #[must_use]
    pub fn huge_pages(&self) -> usize {
        self.huge_count * HUGE_PAGE_SPAN
    }

    /// Iterates over the indices of huge-mapped blocks in address order.
    pub fn huge_block_indices(&self) -> impl Iterator<Item = usize> + '_ {
        self.huge
            .iter()
            .enumerate()
            .filter(|&(_b, &h)| h)
            .map(|(b, _h)| b)
    }

    /// `true` if the KSM scanner split this block: khugepaged skips it
    /// so split-to-merge and collapse never livelock.
    #[must_use]
    pub fn ksm_split_latched(&self, block: usize) -> bool {
        self.ksm_latch.get(block).copied().unwrap_or(false)
    }

    pub(crate) fn set_huge(&mut self, block: usize, huge: bool) {
        let slot = &mut self.huge[block];
        if *slot != huge {
            self.huge_count = if huge {
                self.huge_count + 1
            } else {
                self.huge_count - 1
            };
            *slot = huge;
        }
    }

    pub(crate) fn set_ksm_latch(&mut self, block: usize) {
        self.ksm_latch[block] = true;
    }
}

// Conversion helpers kept crate-internal so FrameId stays opaque outside the
// mem crate's constructor discipline.
trait FrameIdRaw {
    fn from_raw(raw: u32) -> FrameId;
    fn into_raw(self) -> u32;
}

impl FrameIdRaw for FrameId {
    fn from_raw(raw: u32) -> FrameId {
        FrameId::from_index(raw as usize)
    }
    fn into_raw(self) -> u32 {
        self.index() as u32
    }
}

/// A process's virtual address space: an ordered set of non-overlapping
/// [`Region`]s plus a bump allocator for placing new ones.
///
/// # Example
///
/// ```
/// use paging::{AddressSpace, MemTag};
///
/// let mut space = AddressSpace::new_standalone("demo");
/// let base = space.add_region(4, MemTag::JavaHeap, true);
/// let r = space.region_containing(base).unwrap();
/// assert_eq!(r.len_pages(), 4);
/// assert_eq!(r.mapped_pages(), 0);
/// ```
#[derive(Debug)]
pub struct AddressSpace {
    id: AsId,
    name: String,
    regions: BTreeMap<u64, Region>,
    next_vpn: u64,
    next_region_id: u64,
}

impl AddressSpace {
    pub(crate) fn new(id: AsId, name: String) -> AddressSpace {
        AddressSpace {
            id,
            name,
            regions: BTreeMap::new(),
            // Leave page zero unmapped, like every real process image.
            next_vpn: 1,
            next_region_id: 0,
        }
    }

    fn fresh_region_id(&mut self) -> u64 {
        let id = self.next_region_id;
        self.next_region_id += 1;
        id
    }

    /// Creates a free-standing address space not registered with a
    /// [`HostMm`](crate::HostMm). Useful for guest-side page tables and for
    /// tests; spaces participating in frame management must be created with
    /// [`HostMm::create_space`](crate::HostMm::create_space).
    #[must_use]
    pub fn new_standalone(name: impl Into<String>) -> AddressSpace {
        AddressSpace::new(AsId(u32::MAX), name.into())
    }

    /// The id this space is registered under.
    #[must_use]
    pub fn id(&self) -> AsId {
        self.id
    }

    /// Human-readable name (e.g. `"qemu-vm2"`).
    #[must_use]
    pub fn name(&self) -> &str {
        &self.name
    }

    /// Reserves a region of `pages` pages at the next free address and
    /// returns its base. The region starts unpopulated.
    ///
    /// # Panics
    ///
    /// Panics if `pages` is zero.
    pub fn add_region(&mut self, pages: usize, tag: MemTag, mergeable: bool) -> Vpn {
        assert!(pages > 0, "zero-length region");
        let base = Vpn(self.next_vpn);
        // One guard page between regions, as mmap tends to leave holes.
        self.next_vpn += pages as u64 + 1;
        let id = self.fresh_region_id();
        self.regions
            .insert(base.0, Region::new(id, base, pages, tag, mergeable));
        base
    }

    /// Reserves a region at a caller-chosen base (used for fixed memslot
    /// layouts).
    ///
    /// # Panics
    ///
    /// Panics if the range overlaps an existing region.
    pub fn add_region_at(&mut self, base: Vpn, pages: usize, tag: MemTag, mergeable: bool) {
        assert!(pages > 0, "zero-length region");
        let end = base.0 + pages as u64;
        if let Some((_, prev)) = self.regions.range(..end).next_back() {
            assert!(
                prev.end().0 <= base.0,
                "region at {base} overlaps existing region at {}",
                prev.base()
            );
        }
        self.next_vpn = self.next_vpn.max(end + 1);
        let id = self.fresh_region_id();
        self.regions
            .insert(base.0, Region::new(id, base, pages, tag, mergeable));
    }

    /// Removes the region based at `base`, returning it.
    pub fn remove_region(&mut self, base: Vpn) -> Option<Region> {
        self.regions.remove(&base.0)
    }

    /// Returns the region containing `vpn`, if any.
    #[must_use]
    pub fn region_containing(&self, vpn: Vpn) -> Option<&Region> {
        let (_, region) = self.regions.range(..=vpn.0).next_back()?;
        (vpn < region.end()).then_some(region)
    }

    /// Returns the region *based* exactly at `base`, if any — a single
    /// map lookup, cheaper than [`region_containing`](Self::region_containing)
    /// and sufficient when the caller already knows the base (the KSM
    /// scanner resolves each region once per batch this way).
    #[must_use]
    pub fn region_at(&self, base: Vpn) -> Option<&Region> {
        self.regions.get(&base.0)
    }

    /// Resolves a virtual page to the frame backing it, or `None` if the
    /// page is unpopulated or outside every region.
    ///
    /// This is the space-local form of
    /// [`HostMm::frame_at`](crate::HostMm::frame_at), for code that
    /// already holds the space, such as the KSM scanner re-checking an
    /// unstable-tree candidate.
    #[must_use]
    pub fn frame_at(&self, vpn: Vpn) -> Option<FrameId> {
        self.region_containing(vpn)?.frame_at(vpn)
    }

    pub(crate) fn region_containing_mut(&mut self, vpn: Vpn) -> Option<&mut Region> {
        let (_, region) = self.regions.range_mut(..=vpn.0).next_back()?;
        (vpn < region.end()).then_some(region)
    }

    /// Iterates over the regions in address order.
    pub fn regions(&self) -> impl Iterator<Item = &Region> {
        self.regions.values()
    }

    /// Total populated pages across all regions.
    #[must_use]
    pub fn mapped_pages(&self) -> usize {
        self.regions.values().map(Region::mapped_pages).sum()
    }

    /// The space's write-generation signature: every region's
    /// `(id, generation)` pair in address order.
    ///
    /// Two equal observations mean no region was added, removed, remapped
    /// or written in between — every PTE mutation bumps its region's
    /// generation, and region ids are never reused within a space — so a
    /// cached per-space analysis (e.g. an attribution walk segment) keyed
    /// on this signature can be reused verbatim. Frame-pool state (KSM
    /// stable flags, out-of-band frees) is *not* covered: it changes the
    /// [`HostMm`](crate::HostMm) epoch without touching any generation.
    #[must_use]
    pub fn generation_signature(&self) -> Vec<(u64, u64)> {
        self.regions
            .values()
            .map(|r| (r.id(), r.generation()))
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn regions_do_not_overlap_with_bump_allocation() {
        let mut space = AddressSpace::new_standalone("t");
        let a = space.add_region(10, MemTag::Other, false);
        let b = space.add_region(5, MemTag::Other, false);
        assert!(b.0 >= a.0 + 10);
        assert_eq!(space.regions().count(), 2);
    }

    #[test]
    fn region_containing_finds_correct_region() {
        let mut space = AddressSpace::new_standalone("t");
        let a = space.add_region(10, MemTag::JavaHeap, true);
        let b = space.add_region(5, MemTag::JavaStack, false);
        assert_eq!(space.region_containing(a.offset(9)).unwrap().base(), a);
        assert_eq!(space.region_containing(b).unwrap().tag(), MemTag::JavaStack);
        // Guard page between regions is unmapped.
        assert!(space.region_containing(a.offset(10)).is_none());
        assert!(space.region_containing(Vpn(0)).is_none());
    }

    #[test]
    fn add_region_at_rejects_overlap() {
        let mut space = AddressSpace::new_standalone("t");
        space.add_region_at(Vpn(100), 10, MemTag::Other, false);
        let result = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            space.add_region_at(Vpn(105), 10, MemTag::Other, false);
        }));
        assert!(result.is_err());
    }

    #[test]
    fn add_region_at_allows_adjacent() {
        let mut space = AddressSpace::new_standalone("t");
        space.add_region_at(Vpn(100), 10, MemTag::Other, false);
        space.add_region_at(Vpn(110), 10, MemTag::Other, false);
        assert_eq!(space.regions().count(), 2);
    }

    #[test]
    fn remove_region() {
        let mut space = AddressSpace::new_standalone("t");
        let a = space.add_region(3, MemTag::Other, false);
        assert!(space.remove_region(a).is_some());
        assert!(space.region_containing(a).is_none());
        assert!(space.remove_region(a).is_none());
    }
}
