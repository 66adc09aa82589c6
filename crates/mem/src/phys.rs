//! The host physical frame pool.

use crate::{Fingerprint, Tick};
use std::fmt;
use std::sync::OnceLock;

/// Identifier of a host physical page frame.
///
/// `FrameId`s are dense indices into the frame pool; a freed frame's id may
/// be reused by a later allocation, exactly like physical frame numbers on
/// real hardware.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct FrameId(u32);

impl FrameId {
    /// Returns the raw index of the frame.
    #[inline]
    #[must_use]
    pub fn index(self) -> usize {
        self.0 as usize
    }

    /// Reconstructs a `FrameId` from [`index`](Self::index). Intended for
    /// mapping layers that store frame numbers compactly (page tables,
    /// serialized snapshots); the index must have come from a live frame of
    /// the same [`PhysMemory`].
    ///
    /// # Panics
    ///
    /// Panics if `index` exceeds the frame-number range.
    #[inline]
    #[must_use]
    pub fn from_index(index: usize) -> FrameId {
        FrameId(u32::try_from(index).expect("frame index exceeds u32 range"))
    }
}

impl fmt::Display for FrameId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "pfn{}", self.0)
    }
}

/// Metadata for one allocated host frame.
#[derive(Debug, Clone)]
pub struct Frame {
    fingerprint: Fingerprint,
    refcount: u32,
    ksm_shared: bool,
    last_write: Tick,
}

impl Frame {
    /// The content fingerprint currently stored in the frame.
    #[must_use]
    pub fn fingerprint(&self) -> Fingerprint {
        self.fingerprint
    }

    /// Number of mappings referencing the frame. Greater than one means the
    /// frame is shared copy-on-write.
    #[must_use]
    pub fn refcount(&self) -> u32 {
        self.refcount
    }

    /// `true` if the frame is a KSM stable-tree page (merged by the
    /// scanner and write-protected).
    #[must_use]
    pub fn ksm_shared(&self) -> bool {
        self.ksm_shared
    }

    /// The simulated time of the most recent write to the frame. The KSM
    /// scanner uses this as its volatility check, the way real KSM uses a
    /// content checksum across scan passes.
    #[must_use]
    pub fn last_write(&self) -> Tick {
        self.last_write
    }
}

#[derive(Debug, Clone)]
enum Slot {
    Free { next: Option<u32> },
    Used(Frame),
}

/// Buckets the [`HolderFilter`] keeps per live frame, at least: the
/// array is this many times the live frames, rounded up to a power of
/// two, and is rebuilt once the live frames outgrow it.
const BUCKETS_PER_FRAME: usize = 4;

/// A count of live frames per content bucket, the bucket being a
/// fingerprint's low bits: the sole-holder filter of [`PhysMemory`].
///
/// A count of exactly 1 proves that no other live frame holds the
/// content of a live frame in that bucket. Counts saturate at
/// `u8::MAX` and a saturated count never decrements, so it claims
/// nothing; every count below it equals the live frames in its bucket.
///
/// # Example
///
/// ```
/// use mem::{Fingerprint, PhysMemory, Tick};
///
/// let mut pm = PhysMemory::new();
/// let a = pm.alloc(Fingerprint::of(&[1]), Tick(0));
/// assert!(pm.sole_holder(a));
/// let b = pm.alloc(Fingerprint::of(&[1]), Tick(0));
/// assert_eq!(pm.holders().count(Fingerprint::of(&[1])), 2);
/// pm.dec_ref(b);
/// assert!(pm.sole_holder(a));
/// ```
#[derive(Debug)]
pub struct HolderFilter {
    counts: Vec<u8>,
    /// Most live frames the array serves before it is rebuilt larger.
    limit: usize,
}

impl HolderFilter {
    /// Counts the live frames of `slots` into `buckets` buckets (a power
    /// of two), serving up to `limit` live frames.
    fn build(slots: &[Slot], buckets: usize, limit: usize) -> HolderFilter {
        debug_assert!(buckets.is_power_of_two());
        let mut filter = HolderFilter {
            counts: vec![0; buckets],
            limit,
        };
        for slot in slots {
            if let Slot::Used(frame) = slot {
                filter.add(frame.fingerprint);
            }
        }
        filter
    }

    fn bucket(&self, fingerprint: Fingerprint) -> usize {
        // The array length is a power of two: masking keeps the low bits.
        (fingerprint.as_u128() as usize) & (self.counts.len() - 1)
    }

    /// Live frames in `fingerprint`'s bucket, or `u8::MAX` once the
    /// bucket has saturated.
    #[must_use]
    pub fn count(&self, fingerprint: Fingerprint) -> u8 {
        self.counts[self.bucket(fingerprint)]
    }

    fn add(&mut self, fingerprint: Fingerprint) {
        let bucket = self.bucket(fingerprint);
        self.counts[bucket] = self.counts[bucket].saturating_add(1);
    }

    fn remove(&mut self, fingerprint: Fingerprint) {
        let bucket = self.bucket(fingerprint);
        if self.counts[bucket] != u8::MAX {
            self.counts[bucket] -= 1;
        }
    }
}

/// The pool of host physical page frames.
///
/// `PhysMemory` hands out frames on demand and tracks, per frame: the
/// content fingerprint, a reference count (for copy-on-write sharing), the
/// KSM stable-tree marker, and the last write time. It deliberately does
/// *not* enforce a capacity: the hypervisor layer compares
/// [`allocated_frames`](Self::allocated_frames) against the host's RAM size
/// to model over-commit and host paging.
///
/// It also keeps a [`HolderFilter`], built from the live frames on its
/// first query ([`holders`](Self::holders)) and kept current from then on
/// by every allocation, content-changing write and free. Nothing builds
/// it before a reader asks, so a world that is only booted never pays
/// for it.
///
/// # Example
///
/// ```
/// use mem::{Fingerprint, PhysMemory, Tick};
///
/// let mut pm = PhysMemory::new();
/// let a = pm.alloc(Fingerprint::of(&[1]), Tick(0));
/// let b = pm.alloc(Fingerprint::of(&[2]), Tick(0));
/// assert_ne!(a, b);
/// assert_eq!(pm.allocated_frames(), 2);
///
/// // CoW sharing: a second mapping of `a`.
/// pm.inc_ref(a);
/// assert_eq!(pm.refcount(a), 2);
/// pm.dec_ref(a);
/// pm.dec_ref(a);
/// assert_eq!(pm.allocated_frames(), 1);
/// ```
#[derive(Debug, Default)]
pub struct PhysMemory {
    slots: Vec<Slot>,
    free_head: Option<u32>,
    allocated: usize,
    /// Cumulative counters for diagnostics and benches.
    total_allocs: u64,
    total_frees: u64,
    total_writes: u64,
    /// The sole-holder filter, once a reader has asked for it. A
    /// `OnceLock` builds it behind `&self` and keeps the pool `Sync`.
    holders: OnceLock<HolderFilter>,
}

impl PhysMemory {
    /// Creates an empty frame pool.
    #[must_use]
    pub fn new() -> PhysMemory {
        PhysMemory::default()
    }

    /// Creates a frame pool with capacity pre-reserved for `frames` frames.
    #[must_use]
    pub fn with_capacity(frames: usize) -> PhysMemory {
        PhysMemory {
            slots: Vec::with_capacity(frames),
            ..PhysMemory::default()
        }
    }

    /// Allocates a fresh frame holding `fingerprint`, written at `now`.
    ///
    /// The returned frame has a reference count of one.
    pub fn alloc(&mut self, fingerprint: Fingerprint, now: Tick) -> FrameId {
        self.allocated += 1;
        self.total_allocs += 1;
        if let Some(holders) = self.holders.get_mut() {
            if self.allocated <= holders.limit {
                holders.add(fingerprint);
            } else {
                // Outgrown: the next query rebuilds it larger.
                self.holders.take();
            }
        }
        let frame = Frame {
            fingerprint,
            refcount: 1,
            ksm_shared: false,
            last_write: now,
        };
        match self.free_head {
            Some(idx) => {
                let next = match self.slots[idx as usize] {
                    Slot::Free { next } => next,
                    Slot::Used(_) => unreachable!("free list points at used slot"),
                };
                self.free_head = next;
                self.slots[idx as usize] = Slot::Used(frame);
                FrameId(idx)
            }
            None => {
                let idx = u32::try_from(self.slots.len()).expect("frame pool exceeds u32 range");
                self.slots.push(Slot::Used(frame));
                FrameId(idx)
            }
        }
    }

    /// Returns the metadata of `id`, for reading several of its fields
    /// with one lookup.
    ///
    /// # Panics
    ///
    /// Panics if `id` has been freed.
    #[must_use]
    pub fn frame(&self, id: FrameId) -> &Frame {
        match &self.slots[id.index()] {
            Slot::Used(f) => f,
            Slot::Free { .. } => panic!("access to freed frame {id}"),
        }
    }

    fn frame_mut(&mut self, id: FrameId) -> &mut Frame {
        match &mut self.slots[id.index()] {
            Slot::Used(f) => f,
            Slot::Free { .. } => panic!("access to freed frame {id}"),
        }
    }

    /// Returns the content fingerprint of `id`.
    ///
    /// # Panics
    ///
    /// Panics if `id` has been freed.
    #[must_use]
    pub fn fingerprint(&self, id: FrameId) -> Fingerprint {
        self.frame(id).fingerprint
    }

    /// Returns `true` if `id` refers to a currently allocated frame.
    ///
    /// Frame ids are reused after free, so this only tells you the slot is
    /// live — holders of stale ids (e.g. KSM stable-tree nodes) must
    /// additionally revalidate content before trusting it.
    #[must_use]
    pub fn is_live(&self, id: FrameId) -> bool {
        matches!(self.slots.get(id.index()), Some(Slot::Used(_)))
    }

    /// Returns the reference count of `id`.
    #[must_use]
    pub fn refcount(&self, id: FrameId) -> u32 {
        self.frame(id).refcount
    }

    /// Returns the last-write tick of `id`.
    #[must_use]
    pub fn last_write(&self, id: FrameId) -> Tick {
        self.frame(id).last_write
    }

    /// Returns `true` if `id` is marked as a KSM stable-tree frame.
    #[must_use]
    pub fn is_ksm_shared(&self, id: FrameId) -> bool {
        self.frame(id).ksm_shared
    }

    /// Marks or unmarks `id` as a KSM stable-tree frame.
    pub fn set_ksm_shared(&mut self, id: FrameId, shared: bool) {
        self.frame_mut(id).ksm_shared = shared;
    }

    /// Adds a reference to `id` (a new mapping now points at the frame).
    pub fn inc_ref(&mut self, id: FrameId) {
        self.frame_mut(id).refcount += 1;
    }

    /// Drops a reference to `id`, freeing the frame when the count reaches
    /// zero. Returns the refcount after the decrement.
    ///
    /// # Panics
    ///
    /// Panics if `id` has already been freed.
    pub fn dec_ref(&mut self, id: FrameId) -> u32 {
        let frame = self.frame_mut(id);
        assert!(frame.refcount > 0, "refcount underflow on {id}");
        frame.refcount -= 1;
        let remaining = frame.refcount;
        if remaining == 0 {
            let fingerprint = frame.fingerprint;
            if let Some(holders) = self.holders.get_mut() {
                holders.remove(fingerprint);
            }
            self.slots[id.index()] = Slot::Free {
                next: self.free_head,
            };
            self.free_head = Some(id.index() as u32);
            self.allocated -= 1;
            self.total_frees += 1;
        }
        remaining
    }

    /// Overwrites the content of an *exclusively owned* frame.
    ///
    /// Copy-on-write is the responsibility of the mapping layer: a write to
    /// a frame with `refcount > 1` must first break the sharing by
    /// allocating a private copy.
    ///
    /// # Panics
    ///
    /// Panics if the frame is shared (`refcount > 1`), which would be a
    /// missed CoW break, or if `id` has been freed.
    pub fn write(&mut self, id: FrameId, fingerprint: Fingerprint, now: Tick) {
        self.total_writes += 1;
        let frame = self.frame_mut(id);
        assert_eq!(
            frame.refcount, 1,
            "write to shared frame {id} without CoW break"
        );
        let old = std::mem::replace(&mut frame.fingerprint, fingerprint);
        frame.last_write = now;
        frame.ksm_shared = false;
        if old != fingerprint {
            if let Some(holders) = self.holders.get_mut() {
                holders.remove(old);
                holders.add(fingerprint);
            }
        }
    }

    /// The sole-holder filter over the live frames, built on the first
    /// call (and again after the live frames outgrew it).
    pub fn holders(&self) -> &HolderFilter {
        self.holders.get_or_init(|| {
            let buckets = (self.allocated.max(1) * BUCKETS_PER_FRAME).next_power_of_two();
            HolderFilter::build(&self.slots, buckets, buckets / BUCKETS_PER_FRAME)
        })
    }

    /// `true` if `id` is provably the only live frame holding its
    /// content: its bucket in [`holders`](Self::holders) counts one
    /// frame. `false` claims nothing.
    ///
    /// # Panics
    ///
    /// Panics if `id` has been freed.
    #[must_use]
    pub fn sole_holder(&self, id: FrameId) -> bool {
        self.holders().count(self.frame(id).fingerprint) == 1
    }

    /// Recounts the live frames per bucket and checks the
    /// [`holders`](Self::holders) filter against it (building it first if
    /// no reader has yet): every unsaturated count must equal its
    /// recount. Intended for tests; O(slots + buckets).
    ///
    /// # Panics
    ///
    /// Panics if a count is off.
    pub fn assert_holders_consistent(&self) {
        let holders = self.holders();
        let mut recount = vec![0usize; holders.counts.len()];
        for (_, frame) in self.iter() {
            recount[holders.bucket(frame.fingerprint)] += 1;
        }
        for (bucket, (&count, &live)) in holders.counts.iter().zip(&recount).enumerate() {
            assert!(
                count == u8::MAX || usize::from(count) == live,
                "holder bucket {bucket} counts {count} but {live} live frames fall in it"
            );
        }
        assert!(
            self.allocated <= holders.limit,
            "holder filter serves {} frames but {} are live",
            holders.limit,
            self.allocated
        );
    }

    /// Number of live (allocated) frames.
    #[must_use]
    pub fn allocated_frames(&self) -> usize {
        self.allocated
    }

    /// Cumulative number of allocations performed.
    #[must_use]
    pub fn total_allocs(&self) -> u64 {
        self.total_allocs
    }

    /// Cumulative number of frames freed.
    #[must_use]
    pub fn total_frees(&self) -> u64 {
        self.total_frees
    }

    /// Cumulative number of in-place overwrites, the calls to
    /// [`write`](Self::write). A page write that faults a frame in or
    /// breaks copy-on-write allocates a fresh frame instead and is
    /// counted by [`total_allocs`](Self::total_allocs), not here.
    #[must_use]
    pub fn total_writes(&self) -> u64 {
        self.total_writes
    }

    /// Iterates over all live frames as `(id, &frame)` pairs.
    pub fn iter(&self) -> impl Iterator<Item = (FrameId, &Frame)> {
        self.slots.iter().enumerate().filter_map(|(i, s)| match s {
            Slot::Used(f) => Some((FrameId(i as u32), f)),
            Slot::Free { .. } => None,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    fn fp(n: u64) -> Fingerprint {
        Fingerprint::of(&[n])
    }

    #[test]
    fn alloc_free_reuses_slots() {
        let mut pm = PhysMemory::new();
        let a = pm.alloc(fp(1), Tick(0));
        let b = pm.alloc(fp(2), Tick(0));
        pm.dec_ref(a);
        let c = pm.alloc(fp(3), Tick(1));
        // Slot of `a` is reused.
        assert_eq!(c.index(), a.index());
        assert_eq!(pm.allocated_frames(), 2);
        assert_eq!(pm.fingerprint(b), fp(2));
        assert_eq!(pm.fingerprint(c), fp(3));
    }

    #[test]
    fn refcounting() {
        let mut pm = PhysMemory::new();
        let a = pm.alloc(fp(1), Tick(0));
        pm.inc_ref(a);
        pm.inc_ref(a);
        assert_eq!(pm.refcount(a), 3);
        assert_eq!(pm.dec_ref(a), 2);
        assert_eq!(pm.dec_ref(a), 1);
        assert_eq!(pm.allocated_frames(), 1);
        assert_eq!(pm.dec_ref(a), 0);
        assert_eq!(pm.allocated_frames(), 0);
    }

    #[test]
    #[should_panic(expected = "freed frame")]
    fn use_after_free_panics() {
        let mut pm = PhysMemory::new();
        let a = pm.alloc(fp(1), Tick(0));
        pm.dec_ref(a);
        let _ = pm.fingerprint(a);
    }

    #[test]
    fn write_updates_content_and_time() {
        let mut pm = PhysMemory::new();
        let a = pm.alloc(fp(1), Tick(0));
        pm.set_ksm_shared(a, true);
        pm.write(a, fp(2), Tick(5));
        assert_eq!(pm.fingerprint(a), fp(2));
        assert_eq!(pm.last_write(a), Tick(5));
        // A write clears the stable-tree marker.
        assert!(!pm.is_ksm_shared(a));
    }

    #[test]
    #[should_panic(expected = "without CoW break")]
    fn write_to_shared_frame_panics() {
        let mut pm = PhysMemory::new();
        let a = pm.alloc(fp(1), Tick(0));
        pm.inc_ref(a);
        pm.write(a, fp(2), Tick(1));
    }

    #[test]
    fn iter_visits_live_frames_only() {
        let mut pm = PhysMemory::new();
        let a = pm.alloc(fp(1), Tick(0));
        let _b = pm.alloc(fp(2), Tick(0));
        pm.dec_ref(a);
        let live: Vec<_> = pm.iter().map(|(id, _)| id).collect();
        assert_eq!(live.len(), 1);
    }

    #[test]
    fn holder_filter_tracks_alloc_write_and_free() {
        let mut pm = PhysMemory::new();
        let a = pm.alloc(fp(1), Tick(0));
        let b = pm.alloc(fp(2), Tick(0));
        assert!(pm.sole_holder(a) && pm.sole_holder(b));
        pm.write(b, fp(1), Tick(1));
        assert!(!pm.sole_holder(a) && !pm.sole_holder(b));
        pm.dec_ref(b);
        assert!(pm.sole_holder(a));
        pm.assert_holders_consistent();
    }

    #[test]
    fn holder_filter_is_rebuilt_once_outgrown() {
        let mut pm = PhysMemory::new();
        let first = pm.alloc(fp(0), Tick(0));
        assert!(pm.sole_holder(first));
        assert_eq!(pm.holders().limit, 1);
        for n in 1..100 {
            pm.alloc(fp(n), Tick(0));
        }
        // The allocation past the limit dropped the array; the next
        // query rebuilds it for 100 live frames.
        assert!(pm.holders.get().is_none());
        assert!(pm.holders().counts.len() >= 100 * BUCKETS_PER_FRAME);
        pm.assert_holders_consistent();
    }

    /// One step of the filter proptest, on the `k`-th live frame
    /// (modulo the live count) where it names one.
    #[derive(Debug, Clone, Copy)]
    enum Op {
        Alloc(u64),
        /// Overwrite a frame's content, if it is not shared.
        Write(usize, u64),
        /// Map a frame once more.
        Share(usize),
        /// Drop one reference to a frame, freeing it at zero.
        Release(usize),
    }

    /// Content held by more frames than a count can hold.
    const CROWD: u64 = 1_000;

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(128))]

        /// Random allocations, content-changing writes, shares and
        /// frees after a crowd of more than 255 frames with one content.
        /// With `tiny`, a four-bucket array that is never outgrown makes
        /// nearly every content collide; without, the filter is sized,
        /// built and rebuilt as in a run. After every step each
        /// unsaturated count equals a recount, and a sole holder's
        /// content is held by no other live frame.
        #[test]
        fn sole_holder_proves_no_other_live_frame_has_the_content(
            crowd in 256..300usize,
            ops in prop::collection::vec(
                prop_oneof![
                    1 => (0..24u64).prop_map(Op::Alloc),
                    1 => (0..512usize, 0..24u64).prop_map(|(k, c)| Op::Write(k, c)),
                    1 => (0..512usize).prop_map(Op::Share),
                    4 => (0..512usize).prop_map(Op::Release),
                ],
                1..160,
            ),
            tiny in any::<bool>(),
        ) {
            let mut pm = PhysMemory::new();
            for _ in 0..crowd {
                pm.alloc(fp(CROWD), Tick(0));
            }
            if tiny {
                pm.holders = OnceLock::from(HolderFilter::build(&pm.slots, 4, usize::MAX));
            }
            for (t, &op) in ops.iter().enumerate() {
                let live: Vec<FrameId> = pm.iter().map(|(id, _)| id).collect();
                let pick = |k: usize| live.get(k % live.len().max(1)).copied();
                let now = Tick(t as u64 + 1);
                match op {
                    Op::Alloc(c) => {
                        pm.alloc(fp(c), now);
                    }
                    Op::Write(k, c) => {
                        if let Some(id) = pick(k).filter(|&id| pm.refcount(id) == 1) {
                            pm.write(id, fp(c), now);
                        }
                    }
                    Op::Share(k) => {
                        if let Some(id) = pick(k) {
                            pm.inc_ref(id);
                        }
                    }
                    Op::Release(k) => {
                        if let Some(id) = pick(k) {
                            pm.dec_ref(id);
                        }
                    }
                }
                pm.assert_holders_consistent();
                let mut holding: std::collections::HashMap<Fingerprint, usize> =
                    std::collections::HashMap::new();
                for (_, frame) in pm.iter() {
                    *holding.entry(frame.fingerprint()).or_default() += 1;
                }
                for (id, frame) in pm.iter() {
                    if pm.sole_holder(id) {
                        prop_assert_eq!(holding[&frame.fingerprint()], 1);
                    }
                }
            }
        }
    }

    #[test]
    fn counters_accumulate() {
        let mut pm = PhysMemory::new();
        let a = pm.alloc(fp(1), Tick(0));
        pm.write(a, fp(2), Tick(1));
        pm.dec_ref(a);
        assert_eq!(pm.total_allocs(), 1);
        assert_eq!(pm.total_writes(), 1);
        assert_eq!(pm.total_frees(), 1);
    }
}
