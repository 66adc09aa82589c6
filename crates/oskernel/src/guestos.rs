//! The guest OS: boots kernel memory, runs processes, owns guest frames.

use crate::guestas::GuestRegion;
use crate::{GuestAddressSpace, OsImage, Pid};
use mem::{Fingerprint, FingerprintBuilder, Tick, HUGE_PAGE_SPAN};
use obs::EventKind;
use paging::{AsId, HostMm, MemTag, ThpPolicy, Vpn};
use std::collections::{BTreeMap, BTreeSet};

/// The pseudo-pid under which kernel memory is accounted.
pub const KERNEL_PID: Pid = Pid(0);

/// A booted guest operating system inside one VM process.
///
/// Owns the guest-physical frame allocator and the per-process guest page
/// tables; every guest write funnels through [`write_run`](Self::write_run)
/// (or its one-page case [`write_page`](Self::write_page)), which
/// translates guest vpn → gpfn → host vpn and lets the host memory
/// manager handle faulting and copy-on-write.
///
/// See the [crate docs](crate) for an end-to-end example.
#[derive(Debug)]
pub struct GuestOs {
    vm_space: AsId,
    memslot_base: Vpn,
    gpfns: GpfnPool,
    contexts: BTreeMap<Pid, GuestAddressSpace>,
    next_pid: u32,
    boot_salt: u64,
    image: OsImage,
    kernel_data_base: Vpn,
    kernel_data_pages: usize,
    churn_cursor: u64,
    churn_carry: f64,
    thp: ThpPolicy,
    // Gpfn blocks the guest faulted in as (intended) huge pages — the
    // `MADV_HUGEPAGE` hints host khugepaged honors in madvise mode.
    huge_gpfn_blocks: BTreeSet<u64>,
}

impl GuestOs {
    /// Boots a guest: creates the memslot in the VM process's host address
    /// space, lays out kernel memory from `image`, and touches every
    /// kernel page.
    ///
    /// `boot_salt` differentiates per-boot kernel state between guests
    /// (two guests cloned from one image still have different slabs, page
    /// tables and pids).
    ///
    /// # Panics
    ///
    /// Panics if the image's kernel footprint exceeds `guest_pages`.
    pub fn boot(
        mm: &mut HostMm,
        vm_space: AsId,
        guest_pages: usize,
        image: &OsImage,
        boot_salt: u64,
        now: Tick,
    ) -> GuestOs {
        let memslot_base = mm.map_region(vm_space, guest_pages, MemTag::VmGuestMemory, true);
        let mut os = GuestOs {
            vm_space,
            memslot_base,
            gpfns: GpfnPool {
                next: 0,
                free: Vec::new(),
                limit: guest_pages,
            },
            contexts: BTreeMap::new(),
            // Init and early daemons take the first pids; a per-boot
            // offset keeps pid values unrelated across guests (§II.A).
            next_pid: 100 + (boot_salt % 397) as u32,
            boot_salt,
            image: image.clone(),
            kernel_data_base: Vpn(0),
            kernel_data_pages: 0,
            churn_cursor: 0,
            churn_carry: 0.0,
            thp: ThpPolicy::Never,
            huge_gpfn_blocks: BTreeSet::new(),
        };
        os.contexts
            .insert(KERNEL_PID, GuestAddressSpace::new("kernel"));

        assert!(
            image.kernel_pages() <= guest_pages,
            "kernel image does not fit in guest memory"
        );
        let (id, salt) = (image.image_id, boot_salt);
        let code_pages = mem::mib_to_pages(image.kernel_code_mib);
        os.kernel_fill(
            mm,
            code_pages,
            MemTag::GuestKernelCode,
            &[0x6b_c0de, id],
            now,
        );
        let data_pages = mem::mib_to_pages(image.kernel_data_mib);
        os.kernel_data_base = os.kernel_fill(
            mm,
            data_pages,
            MemTag::GuestKernelData,
            &[0x6b_da7a, id, salt],
            now,
        );
        os.kernel_data_pages = data_pages;
        let clean_pages = mem::mib_to_pages(image.pagecache_clean_mib);
        os.kernel_fill(
            mm,
            clean_pages,
            MemTag::GuestPageCache,
            &[0x6b_cace, id],
            now,
        );
        let dirty_pages = mem::mib_to_pages(image.pagecache_dirty_mib);
        os.kernel_fill(
            mm,
            dirty_pages,
            MemTag::GuestPageCache,
            &[0x6b_d1e7, id, salt],
            now,
        );
        os
    }

    /// Maps a kernel region of `pages` pages and writes page `i` with the
    /// fingerprint of `head` followed by `i`. Returns the region's base.
    fn kernel_fill(
        &mut self,
        mm: &mut HostMm,
        pages: usize,
        tag: MemTag,
        head: &[u64],
        now: Tick,
    ) -> Vpn {
        let base = self
            .contexts
            .get_mut(&KERNEL_PID)
            .expect("kernel context exists")
            .add_region(pages.max(1), tag);
        let mut prefix = FingerprintBuilder::new();
        for &token in head {
            prefix.push(token);
        }
        self.write_run(mm, KERNEL_PID, base, pages, now, |i| {
            let mut fp = prefix.clone();
            fp.push(i);
            fp.finish()
        });
        base
    }

    /// The host address space of the VM process this guest runs in.
    #[must_use]
    pub fn vm_space(&self) -> AsId {
        self.vm_space
    }

    /// Host virtual page backing guest physical frame `gpfn` (the linear
    /// memslot translation).
    #[must_use]
    pub fn host_vpn(&self, gpfn: u64) -> Vpn {
        self.memslot_base.offset(gpfn)
    }

    /// Guest memory size in pages.
    #[must_use]
    pub fn guest_pages(&self) -> usize {
        self.gpfns.limit
    }

    /// Guest physical frames currently handed out.
    #[must_use]
    pub fn gpfns_in_use(&self) -> usize {
        self.gpfns.next as usize - self.gpfns.free.len()
    }

    /// Gpfns currently on the kernel's free list — released by
    /// `madvise(DONTNEED)` or balloon deflation and not yet re-allocated.
    /// No host frame may back any of them.
    #[must_use]
    pub fn free_gpfns(&self) -> &[u64] {
        &self.gpfns.free
    }

    /// The gpfn allocation high-water mark: every gpfn at or above it
    /// has never been handed out, so the corresponding memslot tail must
    /// hold no host frames.
    #[must_use]
    pub fn gpfn_watermark(&self) -> u64 {
        self.gpfns.next
    }

    /// Sets the guest kernel's transparent-huge-page policy. Affects
    /// future page faults only; boot layout is policy-independent.
    pub fn set_thp_policy(&mut self, thp: ThpPolicy) {
        self.thp = thp;
    }

    /// Gpfn blocks (gpfn / [`HUGE_PAGE_SPAN`]) the guest populated with
    /// huge fault-around — the madvise hints host khugepaged honors.
    pub fn huge_hint_blocks(&self) -> impl Iterator<Item = u64> + '_ {
        self.huge_gpfn_blocks.iter().copied()
    }

    /// Spawns a guest process and returns its pid. Pids ascend in spawn
    /// order from a per-boot offset.
    pub fn spawn(&mut self, name: impl Into<String>) -> Pid {
        let pid = Pid(self.next_pid);
        self.next_pid += 1 + (self.boot_salt.wrapping_mul(pid.0 as u64) % 3) as u32;
        self.contexts.insert(pid, GuestAddressSpace::new(name));
        pid
    }

    /// Adds a tagged lazy region to a process.
    ///
    /// # Panics
    ///
    /// Panics if `pid` does not exist.
    pub fn add_region(&mut self, pid: Pid, pages: usize, tag: MemTag) -> Vpn {
        self.context_mut(pid).add_region(pages, tag)
    }

    /// [`add_region`](Self::add_region), emitting a
    /// [`EventKind::GuestRegionMap`] trace event through `mm`'s tracer.
    /// Preferred whenever the caller holds the [`HostMm`]; the untraced
    /// variant exists for guest-only bookkeeping in tests.
    pub fn map_region(&mut self, mm: &mut HostMm, pid: Pid, pages: usize, tag: MemTag) -> Vpn {
        let base = self.add_region(pid, pages, tag);
        mm.tracer().emit_with(|| EventKind::GuestRegionMap {
            pid: pid.0,
            gvpn: base.0,
            pages: pages as u64,
        });
        base
    }

    /// Writes one page in a process's address space, faulting in a guest
    /// frame (and transitively a host frame) as needed: the one-page case
    /// of [`write_run`](Self::write_run).
    ///
    /// # Panics
    ///
    /// Panics if the address is outside every region of `pid`, or if guest
    /// physical memory is exhausted (guest OOM).
    pub fn write_page(&mut self, mm: &mut HostMm, pid: Pid, vpn: Vpn, fp: Fingerprint, now: Tick) {
        self.write_run(mm, pid, vpn, 1, now, |_| fp);
    }

    /// Writes the `count` consecutive pages from `base` in a process's
    /// address space, page `base + i` with content `fp_of(i)`, with
    /// exactly the effects of one [`write_page`](Self::write_page) per
    /// page in order.
    ///
    /// Under the `never` THP policy the context and region are resolved
    /// once, and each page's guest fault (from the same free list and
    /// watermark) is interleaved with its host write through
    /// [`HostMm::write_run`]. Under any other policy a huge fault-around
    /// writes through `mm` in the middle of the run, so each page takes
    /// the per-page path.
    ///
    /// # Panics
    ///
    /// Panics if the run is not inside one region of `pid`, or if guest
    /// physical memory is exhausted (guest OOM).
    pub fn write_run(
        &mut self,
        mm: &mut HostMm,
        pid: Pid,
        base: Vpn,
        count: usize,
        now: Tick,
        mut fp_of: impl FnMut(u64) -> Fingerprint,
    ) {
        if count == 0 {
            return;
        }
        if self.thp != ThpPolicy::Never {
            for i in 0..count as u64 {
                self.write_faulting(mm, pid, base.offset(i), fp_of(i), now);
            }
            return;
        }
        let region = region_mut(&mut self.contexts, pid, base);
        assert!(
            base.offset(count as u64) <= region.end(),
            "{pid} run of {count} pages at {base} crosses its region's end"
        );
        let (gpfns, memslot) = (&mut self.gpfns, self.memslot_base);
        mm.write_run(
            self.vm_space,
            now,
            (0..count as u64).map(|i| {
                let gpfn = gpfns.fault_in(region, base.offset(i));
                (memslot.offset(gpfn), fp_of(i))
            }),
        );
    }

    /// One page write under a THP policy other than `never`: a fault may
    /// populate a whole huge block first.
    fn write_faulting(&mut self, mm: &mut HostMm, pid: Pid, vpn: Vpn, fp: Fingerprint, now: Tick) {
        let gpfn = match self
            .translate(pid, vpn)
            .or_else(|| self.try_huge_fault(mm, pid, vpn, now))
        {
            Some(g) => g,
            None => {
                let region = region_mut(&mut self.contexts, pid, vpn);
                self.gpfns.fault_in(region, vpn)
            }
        };
        mm.write_page(self.vm_space, self.host_vpn(gpfn), fp, now);
    }

    /// Huge fault-around: under a non-`never` THP policy, a fault in an
    /// eligible, fully-untranslated 2 MiB-aligned virtual block
    /// populates all of its [`HUGE_PAGE_SPAN`] pages at once from an
    /// aligned gpfn run. The 511 non-faulting pages get per-guest-unique
    /// filler content (uninitialized-but-resident memory: THP bloat that
    /// never merges), and the block is recorded as a khugepaged hint.
    /// Returns the gpfn for the faulting page, or `None` to fall back to
    /// a normal 4 KiB fault (ineligible range, partially populated
    /// block, or no aligned guest-physical run left).
    fn try_huge_fault(&mut self, mm: &mut HostMm, pid: Pid, vpn: Vpn, now: Tick) -> Option<u64> {
        let span = HUGE_PAGE_SPAN as u64;
        let (block_start, offset_in_block) = {
            let region = self.context(pid)?.region_containing(vpn)?;
            let eligible = match self.thp {
                ThpPolicy::Never => false,
                ThpPolicy::Madvise => region.tag() == MemTag::JavaHeap,
                ThpPolicy::Always => true,
            };
            if !eligible {
                return None;
            }
            let slot = vpn.0 - region.base().0;
            let block = slot / span;
            if (block + 1) * span > region.len_pages() as u64 {
                return None;
            }
            let start = region.base().offset(block * span);
            if (0..span).any(|i| region.gpfn_at(start.offset(i)).is_some()) {
                return None;
            }
            (start, slot % span)
        };
        let g0 = self.gpfns.alloc_block()?;
        {
            let region = self
                .context_mut(pid)
                .region_containing_mut(block_start)
                .expect("region resolved above");
            for i in 0..span {
                region.set_gpfn(block_start.offset(i), Some(g0 + i));
            }
        }
        let salt = self.boot_salt;
        for i in 0..span {
            if i != offset_in_block {
                mm.write_page(
                    self.vm_space,
                    self.host_vpn(g0 + i),
                    Fingerprint::of(&[0x7487_9a6e, salt, g0 + i]),
                    now,
                );
            }
        }
        self.huge_gpfn_blocks.insert(g0 / span);
        Some(g0 + offset_in_block)
    }

    /// Translates a process page to its guest physical frame.
    #[must_use]
    pub fn translate(&self, pid: Pid, vpn: Vpn) -> Option<u64> {
        self.contexts
            .get(&pid)?
            .region_containing(vpn)?
            .gpfn_at(vpn)
    }

    /// Content fingerprint seen by the process at `vpn`, if populated.
    #[must_use]
    pub fn fingerprint_at(&self, mm: &HostMm, pid: Pid, vpn: Vpn) -> Option<Fingerprint> {
        let gpfn = self.translate(pid, vpn)?;
        mm.fingerprint_at(self.vm_space, self.host_vpn(gpfn))
    }

    /// Releases a single page (the balloon / `madvise(DONTNEED)` path):
    /// the backing host frame is unmapped and the guest frame returns to
    /// the allocator. Returns `false` if the page was not populated.
    pub fn release_page(&mut self, mm: &mut HostMm, pid: Pid, vpn: Vpn) -> bool {
        let Some(gpfn) = self.translate(pid, vpn) else {
            return false;
        };
        let region = self
            .context_mut(pid)
            .region_containing_mut(vpn)
            .expect("translate succeeded, region exists");
        region.set_gpfn(vpn, None);
        mm.tracer().emit_with(|| EventKind::GuestPageRelease {
            pid: pid.0,
            gvpn: vpn.0,
        });
        self.huge_gpfn_blocks
            .remove(&(gpfn / HUGE_PAGE_SPAN as u64));
        mm.unmap_page(self.vm_space, self.host_vpn(gpfn));
        self.gpfns.free.push(gpfn);
        true
    }

    /// Releases a whole region of a process: guest frames return to the
    /// allocator and the backing host pages are unmapped.
    pub fn free_region(&mut self, mm: &mut HostMm, pid: Pid, base: Vpn) {
        let Some(region) = self.context_mut(pid).remove_region(base) else {
            return;
        };
        mm.tracer().emit_with(|| EventKind::GuestRegionFree {
            pid: pid.0,
            gvpn: base.0,
            pages: region.len_pages() as u64,
        });
        for (_, gpfn) in region.iter_mapped() {
            self.huge_gpfn_blocks
                .remove(&(gpfn / HUGE_PAGE_SPAN as u64));
            mm.unmap_page(self.vm_space, self.host_vpn(gpfn));
            self.gpfns.free.push(gpfn);
        }
    }

    /// Terminates a process, releasing all its memory.
    pub fn kill(&mut self, mm: &mut HostMm, pid: Pid) {
        assert_ne!(pid, KERNEL_PID, "cannot kill the kernel");
        let Some(gas) = self.contexts.remove(&pid) else {
            return;
        };
        for region in gas.regions() {
            mm.tracer().emit_with(|| EventKind::GuestRegionFree {
                pid: pid.0,
                gvpn: region.base().0,
                pages: region.len_pages() as u64,
            });
            for (_, gpfn) in region.iter_mapped() {
                self.huge_gpfn_blocks
                    .remove(&(gpfn / HUGE_PAGE_SPAN as u64));
                mm.unmap_page(self.vm_space, self.host_vpn(gpfn));
                self.gpfns.free.push(gpfn);
            }
        }
    }

    /// Advances kernel background activity by one tick: a slice of kernel
    /// dynamic data is rewritten, keeping it volatile under the KSM
    /// checksum filter, exactly like real slab/page-table churn.
    pub fn tick(&mut self, mm: &mut HostMm, now: Tick) {
        self.tick_many(mm, now, 1);
    }

    /// Batches `ticks` ticks of kernel background churn into one call —
    /// the same pages get rewritten as `ticks` sequential [`tick`]s, all
    /// stamped at `now`. The traffic engine's sparse schedule uses this
    /// to charge a whole second of kernel activity per event instead of
    /// walking every guest every tick.
    ///
    /// [`tick`]: Self::tick
    pub fn tick_many(&mut self, mm: &mut HostMm, now: Tick, ticks: u32) {
        if self.kernel_data_pages == 0 || self.image.kernel_churn_per_second == 0.0 {
            return;
        }
        self.churn_carry +=
            f64::from(ticks) * self.image.kernel_churn_per_second * self.kernel_data_pages as f64
                / mem::Tick::from_seconds(1.0).0 as f64;
        let mut to_write = self.churn_carry as usize;
        self.churn_carry -= to_write as f64;
        if to_write == 0 {
            return;
        }
        let mut head = FingerprintBuilder::new();
        for token in [0x6b_da7a, self.image.image_id, self.boot_salt] {
            head.push(token);
        }
        while to_write > 0 {
            // One run up to the end of the data area, then wrap.
            let start = self.churn_cursor % self.kernel_data_pages as u64;
            let len = to_write.min(self.kernel_data_pages - start as usize);
            let base = self.kernel_data_base.offset(start);
            self.write_run(mm, KERNEL_PID, base, len, now, |i| {
                let mut fp = head.clone();
                fp.push(start + i);
                fp.push(now.0);
                fp.finish()
            });
            self.churn_cursor += len as u64;
            to_write -= len;
        }
    }

    /// Iterates over all guest contexts (the kernel pseudo-process first,
    /// then user processes in pid order).
    pub fn contexts(&self) -> impl Iterator<Item = (Pid, &GuestAddressSpace)> {
        self.contexts.iter().map(|(&pid, gas)| (pid, gas))
    }

    /// The context for `pid`.
    #[must_use]
    pub fn context(&self, pid: Pid) -> Option<&GuestAddressSpace> {
        self.contexts.get(&pid)
    }

    fn context_mut(&mut self, pid: Pid) -> &mut GuestAddressSpace {
        self.contexts
            .get_mut(&pid)
            .unwrap_or_else(|| panic!("unknown {pid}"))
    }
}

/// The region of `pid`'s context holding `vpn`, borrowed apart from the
/// rest of the [`GuestOs`].
fn region_mut(
    contexts: &mut BTreeMap<Pid, GuestAddressSpace>,
    pid: Pid,
    vpn: Vpn,
) -> &mut GuestRegion {
    contexts
        .get_mut(&pid)
        .unwrap_or_else(|| panic!("unknown {pid}"))
        .region_containing_mut(vpn)
        .unwrap_or_else(|| panic!("{pid} write outside regions at {vpn}"))
}

/// The guest-physical frame allocator: released gpfns go on a free list
/// that is reused first (last released, first reused), and below the
/// watermark `next` every gpfn has been handed out at least once.
#[derive(Debug)]
struct GpfnPool {
    next: u64,
    free: Vec<u64>,
    /// Guest memory size in pages: the watermark's ceiling.
    limit: usize,
}

impl GpfnPool {
    fn alloc(&mut self) -> u64 {
        if let Some(g) = self.free.pop() {
            return g;
        }
        assert!(
            (self.next as usize) < self.limit,
            "guest OOM: all {} guest frames in use",
            self.limit
        );
        let g = self.next;
        self.next += 1;
        g
    }

    /// The gpfn behind `vpn` of `region`, faulting one in if it has none.
    fn fault_in(&mut self, region: &mut GuestRegion, vpn: Vpn) -> u64 {
        region.gpfn_at(vpn).unwrap_or_else(|| {
            let g = self.alloc();
            region.set_gpfn(vpn, Some(g));
            g
        })
    }

    /// Allocates an aligned run of [`HUGE_PAGE_SPAN`] fresh gpfns from
    /// the watermark (the free list is fragmented — real huge-page
    /// allocation needs physically contiguous memory). Alignment-gap
    /// gpfns go to the free list for later 4 KiB faults. Returns `None`
    /// when no aligned run fits, modeling allocation failure under
    /// fragmentation/pressure instead of OOMing the guest.
    fn alloc_block(&mut self) -> Option<u64> {
        let span = HUGE_PAGE_SPAN as u64;
        let aligned = self.next.next_multiple_of(span);
        if aligned as usize + HUGE_PAGE_SPAN > self.limit {
            return None;
        }
        for gap in self.next..aligned {
            self.free.push(gap);
        }
        self.next = aligned + span;
        Some(aligned)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn boot_pair() -> (HostMm, GuestOs, GuestOs) {
        let mut mm = HostMm::new();
        let s1 = mm.create_space("vm1");
        let s2 = mm.create_space("vm2");
        let pages = mem::mib_to_pages(8.0);
        let img = OsImage::tiny_test();
        let g1 = GuestOs::boot(&mut mm, s1, pages, &img, 1, Tick(0));
        let g2 = GuestOs::boot(&mut mm, s2, pages, &img, 2, Tick(0));
        (mm, g1, g2)
    }

    #[test]
    fn kernel_code_identical_across_guests_data_differs() {
        let (mm, g1, g2) = boot_pair();
        let collect = |g: &GuestOs, tag: MemTag| -> Vec<Fingerprint> {
            let gas = g.context(KERNEL_PID).unwrap();
            gas.regions()
                .filter(|r| r.tag() == tag)
                .flat_map(|r| {
                    r.iter_mapped()
                        .map(|(_, gpfn)| mm.fingerprint_at(g.vm_space(), g.host_vpn(gpfn)).unwrap())
                        .collect::<Vec<_>>()
                })
                .collect()
        };
        assert_eq!(
            collect(&g1, MemTag::GuestKernelCode),
            collect(&g2, MemTag::GuestKernelCode)
        );
        let d1 = collect(&g1, MemTag::GuestKernelData);
        let d2 = collect(&g2, MemTag::GuestKernelData);
        assert_eq!(d1.len(), d2.len());
        assert!(d1.iter().zip(&d2).all(|(a, b)| a != b));
    }

    #[test]
    fn process_write_faults_guest_and_host_frames() {
        let (mut mm, mut g1, _) = boot_pair();
        let used_before = g1.gpfns_in_use();
        let pid = g1.spawn("java");
        let heap = g1.add_region(pid, 4, MemTag::JavaHeap);
        g1.write_page(&mut mm, pid, heap, Fingerprint::of(&[1]), Tick(1));
        assert_eq!(g1.gpfns_in_use(), used_before + 1);
        assert_eq!(
            g1.fingerprint_at(&mm, pid, heap),
            Some(Fingerprint::of(&[1]))
        );
        mm.assert_consistent();
    }

    #[test]
    fn pids_ascend_and_differ_across_boots() {
        let (_, mut g1, mut g2) = boot_pair();
        let p1 = g1.spawn("a");
        let p2 = g1.spawn("b");
        assert!(p2 > p1);
        let q1 = g2.spawn("a");
        assert_ne!(p1, q1, "per-boot pid offsets should differ");
    }

    #[test]
    fn free_region_releases_guest_and_host_memory() {
        let (mut mm, mut g1, _) = boot_pair();
        let pid = g1.spawn("p");
        let r = g1.add_region(pid, 8, MemTag::JavaJvmWork);
        for i in 0..8 {
            g1.write_page(&mut mm, pid, r.offset(i), Fingerprint::of(&[i]), Tick(1));
        }
        let frames_before = mm.phys().allocated_frames();
        let used_before = g1.gpfns_in_use();
        g1.free_region(&mut mm, pid, r);
        assert_eq!(g1.gpfns_in_use(), used_before - 8);
        assert_eq!(mm.phys().allocated_frames(), frames_before - 8);
        mm.assert_consistent();
    }

    #[test]
    fn gpfn_reuse_after_free() {
        let (mut mm, mut g1, _) = boot_pair();
        let pid = g1.spawn("p");
        let r1 = g1.add_region(pid, 4, MemTag::JavaJvmWork);
        for i in 0..4 {
            g1.write_page(&mut mm, pid, r1.offset(i), Fingerprint::of(&[i]), Tick(1));
        }
        g1.free_region(&mut mm, pid, r1);
        let used = g1.gpfns_in_use();
        let r2 = g1.add_region(pid, 2, MemTag::JavaHeap);
        g1.write_page(&mut mm, pid, r2, Fingerprint::of(&[99]), Tick(2));
        assert_eq!(g1.gpfns_in_use(), used + 1);
    }

    #[test]
    fn kill_releases_everything() {
        let (mut mm, mut g1, _) = boot_pair();
        let pid = g1.spawn("p");
        let r = g1.add_region(pid, 4, MemTag::OtherProcess);
        for i in 0..4 {
            g1.write_page(&mut mm, pid, r.offset(i), Fingerprint::of(&[i]), Tick(1));
        }
        let frames = mm.phys().allocated_frames();
        g1.kill(&mut mm, pid);
        assert!(g1.context(pid).is_none());
        assert_eq!(mm.phys().allocated_frames(), frames - 4);
    }

    #[test]
    fn kernel_churn_rewrites_data_pages() {
        let mut mm = HostMm::new();
        let s = mm.create_space("vm");
        let mut img = OsImage::tiny_test();
        img.kernel_churn_per_second = 1.0; // rewrite everything each second
        let mut g = GuestOs::boot(&mut mm, s, mem::mib_to_pages(8.0), &img, 1, Tick(0));
        let writes_before = mm.phys().total_writes();
        for t in 1..=10 {
            g.tick(&mut mm, Tick(t));
        }
        let rewritten = mm.phys().total_writes() - writes_before;
        // ~all kernel-data pages rewritten over one simulated second.
        let data_pages = mem::mib_to_pages(img.kernel_data_mib) as u64;
        assert!(rewritten >= data_pages - 1, "rewrote {rewritten}");
    }

    #[test]
    fn huge_fault_around_populates_a_full_block() {
        let mut mm = HostMm::new();
        let s = mm.create_space("vm");
        let img = OsImage::tiny_test();
        let mut g = GuestOs::boot(&mut mm, s, mem::mib_to_pages(16.0), &img, 1, Tick(0));
        g.set_thp_policy(ThpPolicy::Madvise);
        let pid = g.spawn("java");
        let heap = g.add_region(pid, 2 * HUGE_PAGE_SPAN, MemTag::JavaHeap);
        let resident_before = mm.phys().allocated_frames();
        g.write_page(&mut mm, pid, heap.offset(7), Fingerprint::of(&[1]), Tick(1));
        // One fault populated the whole first block.
        assert_eq!(
            mm.phys().allocated_frames(),
            resident_before + HUGE_PAGE_SPAN
        );
        for i in 0..HUGE_PAGE_SPAN as u64 {
            assert!(g.translate(pid, heap.offset(i)).is_some());
        }
        assert!(g
            .translate(pid, heap.offset(HUGE_PAGE_SPAN as u64))
            .is_none());
        // The gpfn run is aligned, and the hint was recorded.
        let g0 = g.translate(pid, heap).unwrap();
        assert_eq!(g0 % HUGE_PAGE_SPAN as u64, 0);
        assert_eq!(
            g.huge_hint_blocks().collect::<Vec<_>>(),
            vec![g0 / HUGE_PAGE_SPAN as u64]
        );
        // Faulting page holds the written content; the rest filler.
        assert_eq!(
            g.fingerprint_at(&mm, pid, heap.offset(7)),
            Some(Fingerprint::of(&[1]))
        );
        assert!(g.fingerprint_at(&mm, pid, heap.offset(8)).is_some());
        mm.assert_consistent();
    }

    #[test]
    fn madvise_policy_ignores_non_heap_regions() {
        let mut mm = HostMm::new();
        let s = mm.create_space("vm");
        let img = OsImage::tiny_test();
        let mut g = GuestOs::boot(&mut mm, s, mem::mib_to_pages(16.0), &img, 1, Tick(0));
        g.set_thp_policy(ThpPolicy::Madvise);
        let pid = g.spawn("p");
        let r = g.add_region(pid, 2 * HUGE_PAGE_SPAN, MemTag::OtherProcess);
        let used = g.gpfns_in_use();
        g.write_page(&mut mm, pid, r, Fingerprint::of(&[1]), Tick(1));
        assert_eq!(g.gpfns_in_use(), used + 1, "non-heap must fault 4K");
        assert_eq!(g.huge_hint_blocks().count(), 0);
    }

    #[test]
    fn releasing_a_block_page_clears_the_hint() {
        let mut mm = HostMm::new();
        let s = mm.create_space("vm");
        let img = OsImage::tiny_test();
        let mut g = GuestOs::boot(&mut mm, s, mem::mib_to_pages(16.0), &img, 1, Tick(0));
        g.set_thp_policy(ThpPolicy::Always);
        let pid = g.spawn("p");
        let r = g.add_region(pid, HUGE_PAGE_SPAN, MemTag::OtherProcess);
        g.write_page(&mut mm, pid, r, Fingerprint::of(&[1]), Tick(1));
        assert_eq!(g.huge_hint_blocks().count(), 1);
        assert!(g.release_page(&mut mm, pid, r.offset(3)));
        assert_eq!(g.huge_hint_blocks().count(), 0);
        mm.assert_consistent();
    }

    #[test]
    fn huge_fault_falls_back_when_no_aligned_run_fits() {
        let mut mm = HostMm::new();
        let s = mm.create_space("vm");
        let img = OsImage::tiny_test();
        // Guest too small for any aligned 512-page run beyond the kernel.
        let pages = mem::mib_to_pages(img.total_mib()) + 64;
        let mut g = GuestOs::boot(&mut mm, s, pages, &img, 1, Tick(0));
        g.set_thp_policy(ThpPolicy::Always);
        let pid = g.spawn("p");
        let r = g.add_region(pid, HUGE_PAGE_SPAN, MemTag::OtherProcess);
        let used = g.gpfns_in_use();
        g.write_page(&mut mm, pid, r, Fingerprint::of(&[1]), Tick(1));
        assert_eq!(g.gpfns_in_use(), used + 1, "must fall back to one page");
        assert_eq!(g.huge_hint_blocks().count(), 0);
    }

    #[test]
    #[should_panic(expected = "guest OOM")]
    fn guest_oom_panics() {
        let mut mm = HostMm::new();
        let s = mm.create_space("vm");
        let img = OsImage::tiny_test();
        // Guest barely fits the kernel; a big process write OOMs.
        let pages = mem::mib_to_pages(img.total_mib()) + 8;
        let mut g = GuestOs::boot(&mut mm, s, pages, &img, 1, Tick(0));
        let pid = g.spawn("hog");
        let r = g.add_region(pid, 64, MemTag::OtherProcess);
        for i in 0..64 {
            g.write_page(&mut mm, pid, r.offset(i), Fingerprint::of(&[i]), Tick(1));
        }
    }
}
