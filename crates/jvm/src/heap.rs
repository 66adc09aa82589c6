//! The Java heap: moving collection, zero-filling, allocation churn.
//!
//! Sharing-relevant behaviour (§III.B of the paper):
//!
//! * live data is process-private (pointers, headers) — modelled as
//!   process-salted page contents that can never match another process;
//! * the collector zero-fills freed space, briefly creating mergeable
//!   all-zero pages that the mutator soon overwrites ("these shared areas
//!   are soon modified and divided");
//! * moving objects re-salts pages with a GC epoch, so even logically
//!   read-only data never stays page-identical across processes.

use crate::fill::{run_head, ProgressFill};
use crate::profile::{GcPolicy, HeapProfile};
use mem::{Fingerprint, Tick};
use obs::EventKind;
use oskernel::{GuestOs, Pid};
use paging::{HostMm, MemTag, Vpn};

const HEAP_TOKEN: u64 = 0x4ea9;

/// One contiguous collected space (the whole heap for the flat policy;
/// nursery or tenured for the generational policy).
#[derive(Debug)]
struct Space {
    base: Vpn,
    pages: usize,
    live_pages: usize,
    /// Allocation high-water mark: pages in `[hwm, pages)` are
    /// zero-filled once when the heap reaches steady state and never
    /// touched again — the durable all-zero pages behind the paper's
    /// 0.7 % heap sharing.
    hwm: usize,
    /// Next free page to allocate into (index within the space,
    /// `live_pages ..= hwm`).
    cursor: usize,
    fill: ProgressFill,
    tail_written: bool,
    epoch: u64,
    collections: u64,
}

impl Space {
    fn new(
        mm: &mut HostMm,
        guest: &mut GuestOs,
        pid: Pid,
        pages: usize,
        live_fraction: f64,
        untouched_fraction: f64,
        phase_salt: u64,
    ) -> Space {
        let pages = pages.max(2);
        let base = guest.map_region(mm, pid, pages, MemTag::JavaHeap);
        let live_pages = ((pages as f64) * live_fraction.clamp(0.0, 0.95)) as usize;
        let tail = ((pages as f64) * untouched_fraction.clamp(0.0, 0.5)) as usize;
        let hwm = (pages - tail).max(live_pages + 1).min(pages);
        // Start the allocation cursor at a salt-derived phase so identical
        // VMs do not collect in lockstep (their request streams are not
        // synchronized in reality either).
        let free = hwm - live_pages;
        let cursor = live_pages
            + if free > 0 {
                (phase_salt % free as u64) as usize
            } else {
                0
            };
        Space {
            base,
            pages,
            live_pages,
            hwm,
            cursor,
            fill: ProgressFill::new(live_pages),
            tail_written: false,
            epoch: 0,
            collections: 0,
        }
    }

    fn free_pages(&self) -> usize {
        self.hwm - self.live_pages
    }

    /// Gradually populate the live set during warm-up.
    fn warmup(
        &mut self,
        mm: &mut HostMm,
        guest: &mut GuestOs,
        pid: Pid,
        salt: u64,
        fraction: f64,
        now: Tick,
    ) {
        let fill = self.fill.advance(fraction);
        if !fill.is_empty() {
            let (start, head) = (fill.start as u64, run_head(&[HEAP_TOKEN, salt]));
            guest.write_run(mm, pid, self.base.offset(start), fill.len(), now, |i| {
                let mut fp = head.clone();
                fp.push(start + i);
                fp.push(0);
                fp.finish()
            });
        }
        if fraction >= 1.0 && !self.tail_written {
            // First-touch of the committed-but-never-reused tail: the
            // allocator zeroes it when committing the heap.
            self.tail_written = true;
            let tail = self.base.offset(self.hwm as u64);
            guest.write_run(mm, pid, tail, self.pages - self.hwm, now, |_| {
                Fingerprint::ZERO
            });
        }
    }

    /// Allocates `count` pages, collecting when the space fills. Returns
    /// the number of collections triggered.
    fn allocate(
        &mut self,
        mm: &mut HostMm,
        guest: &mut GuestOs,
        pid: Pid,
        salt: u64,
        mut count: usize,
        now: Tick,
    ) -> u64 {
        if self.free_pages() == 0 || count == 0 {
            return 0;
        }
        let mut collections = 0;
        let head = run_head(&[HEAP_TOKEN, salt]);
        while count > 0 {
            if self.cursor >= self.hwm {
                self.collect(mm, guest, pid, now);
                collections += 1;
            }
            // One run up to the next collection.
            let len = count.min(self.hwm - self.cursor);
            let (start, epoch) = (self.cursor as u64, self.epoch + 1);
            guest.write_run(mm, pid, self.base.offset(start), len, now, |i| {
                let mut fp = head.clone();
                fp.push(start + i);
                fp.push(epoch);
                fp.finish()
            });
            self.cursor += len;
            count -= len;
        }
        collections
    }

    /// Stop-the-world collection: all garbage in the free area dies and
    /// the space is zero-filled for reuse.
    fn collect(&mut self, mm: &mut HostMm, guest: &mut GuestOs, pid: Pid, now: Tick) {
        let free = self.base.offset(self.live_pages as u64);
        guest.write_run(mm, pid, free, self.hwm - self.live_pages, now, |_| {
            Fingerprint::ZERO
        });
        mm.tracer().emit_with(|| EventKind::GcCollect {
            pid: pid.0,
            gvpn: self.base.offset(self.live_pages as u64).0,
            zeroed_pages: (self.hwm - self.live_pages) as u64,
        });
        self.cursor = self.live_pages;
        self.epoch += 1;
        self.collections += 1;
    }
}

/// The heap simulator driven by [`JavaVm`](crate::JavaVm).
#[derive(Debug)]
pub(crate) struct HeapSim {
    profile: HeapProfile,
    nursery: Space,
    /// Tenured space (generational policy only).
    tenured: Option<Space>,
    /// Survivor pages promoted per nursery collection.
    promote_per_gc: usize,
    alloc_carry: f64,
}

impl HeapSim {
    pub(crate) fn launch(
        mm: &mut HostMm,
        guest: &mut GuestOs,
        pid: Pid,
        profile: &HeapProfile,
        phase_salt: u64,
    ) -> HeapSim {
        match profile.policy {
            GcPolicy::Flat => {
                let pages = mem::mib_to_pages(profile.heap_mib);
                let nursery = Space::new(
                    mm,
                    guest,
                    pid,
                    pages,
                    profile.live_fraction,
                    profile.untouched_fraction,
                    phase_salt,
                );
                HeapSim {
                    profile: profile.clone(),
                    nursery,
                    tenured: None,
                    promote_per_gc: 0,
                    alloc_carry: 0.0,
                }
            }
            GcPolicy::Generational {
                nursery_mib,
                tenured_mib,
            } => {
                // The nursery's "live" part is the survivor residue; the
                // long-lived data sits in the tenured space.
                let nursery_pages = mem::mib_to_pages(nursery_mib);
                let tenured_pages = mem::mib_to_pages(tenured_mib);
                let nursery = Space::new(
                    mm,
                    guest,
                    pid,
                    nursery_pages,
                    0.08,
                    profile.untouched_fraction,
                    phase_salt,
                );
                let tenured = Space::new(
                    mm,
                    guest,
                    pid,
                    tenured_pages,
                    profile.live_fraction,
                    profile.untouched_fraction,
                    phase_salt / 7,
                );
                let promote_per_gc = (nursery_pages / 64).max(1);
                HeapSim {
                    profile: profile.clone(),
                    nursery,
                    tenured: Some(tenured),
                    promote_per_gc,
                    alloc_carry: 0.0,
                }
            }
        }
    }

    pub(crate) fn tick(
        &mut self,
        mm: &mut HostMm,
        guest: &mut GuestOs,
        pid: Pid,
        salt: u64,
        warmup_fraction: f64,
        now: Tick,
    ) {
        self.warm(mm, guest, pid, salt, warmup_fraction, now);
        self.serve(
            mm,
            guest,
            pid,
            salt,
            mem::mib_to_pages(self.profile.alloc_mib_per_sec) as f64 / mem::TICKS_PER_SECOND as f64,
            now,
        );
    }

    /// Populates the live set up to `warmup_fraction` (start-up only;
    /// already-written pages are never rewritten).
    pub(crate) fn warm(
        &mut self,
        mm: &mut HostMm,
        guest: &mut GuestOs,
        pid: Pid,
        salt: u64,
        warmup_fraction: f64,
        now: Tick,
    ) {
        self.nursery
            .warmup(mm, guest, pid, salt, warmup_fraction, now);
        if let Some(tenured) = &mut self.tenured {
            tenured.warmup(mm, guest, pid, salt ^ 0x7e4, warmup_fraction, now);
        }
    }

    /// Allocates `pages` (fractional amounts carry over), collecting and
    /// promoting survivors as spaces fill — the request-driven GC
    /// pressure path.
    pub(crate) fn serve(
        &mut self,
        mm: &mut HostMm,
        guest: &mut GuestOs,
        pid: Pid,
        salt: u64,
        pages: f64,
        now: Tick,
    ) {
        self.alloc_carry += pages;
        let count = self.alloc_carry as usize;
        self.alloc_carry -= count as f64;
        let minor_gcs = self.nursery.allocate(mm, guest, pid, salt, count, now);
        if minor_gcs > 0 {
            if let Some(tenured) = &mut self.tenured {
                // Survivors are promoted: moving writes into the tenured
                // allocation frontier.
                let promoted = self.promote_per_gc * minor_gcs as usize;
                tenured.allocate(mm, guest, pid, salt ^ 0x7e4, promoted, now);
            }
        }
    }

    /// Collections so far (minor + major).
    pub(crate) fn gc_count(&self) -> u64 {
        self.nursery.collections + self.tenured.as_ref().map_or(0, |t| t.collections)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use oskernel::OsImage;
    use paging::HostMm;

    fn setup() -> (HostMm, GuestOs, Pid) {
        let mut mm = HostMm::new();
        let space = mm.create_space("vm");
        let mut guest = GuestOs::boot(
            &mut mm,
            space,
            mem::mib_to_pages(64.0),
            &OsImage::tiny_test(),
            1,
            Tick(0),
        );
        let pid = guest.spawn("java");
        (mm, guest, pid)
    }

    fn flat_profile() -> HeapProfile {
        HeapProfile {
            heap_mib: 2.0,
            policy: GcPolicy::Flat,
            live_fraction: 0.5,
            alloc_mib_per_sec: 4.0,
            untouched_fraction: 0.05,
        }
    }

    #[test]
    fn warmup_fills_live_set_once() {
        let (mut mm, mut guest, pid) = setup();
        let mut heap = HeapSim::launch(&mut mm, &mut guest, pid, &flat_profile(), 0);
        let before = mm.phys().allocated_frames();
        heap.nursery
            .warmup(&mut mm, &mut guest, pid, 1, 1.0, Tick(1));
        let after = mm.phys().allocated_frames();
        // Live set plus the zeroed never-reused tail fault in.
        let tail = heap.nursery.pages - heap.nursery.hwm;
        assert!(tail > 0);
        assert_eq!(after - before, heap.nursery.live_pages + tail);
        // Re-warming writes nothing.
        let writes = mm.phys().total_writes();
        heap.nursery
            .warmup(&mut mm, &mut guest, pid, 1, 1.0, Tick(2));
        assert_eq!(mm.phys().total_writes(), writes);
    }

    #[test]
    fn allocation_triggers_gc_and_zero_fills() {
        let (mut mm, mut guest, pid) = setup();
        let mut heap = HeapSim::launch(&mut mm, &mut guest, pid, &flat_profile(), 0);
        // Run long enough to wrap the free space several times.
        for t in 1..200u64 {
            heap.tick(&mut mm, &mut guest, pid, 1, 1.0, Tick(t));
        }
        assert!(heap.gc_count() >= 2, "gc_count = {}", heap.gc_count());
        // Immediately after the last tick some zero pages exist between
        // the allocation cursor and the end of the space.
        let space = &heap.nursery;
        let mut zeros = 0;
        for i in space.cursor..space.hwm {
            if guest.fingerprint_at(&mm, pid, space.base.offset(i as u64))
                == Some(Fingerprint::ZERO)
            {
                zeros += 1;
            }
        }
        assert_eq!(zeros, space.hwm - space.cursor);
        mm.assert_consistent();
    }

    #[test]
    fn allocated_pages_are_salted_per_process_and_epoch() {
        let (mut mm, mut guest, pid) = setup();
        let mut h1 = HeapSim::launch(&mut mm, &mut guest, pid, &flat_profile(), 0);
        let pid2 = guest.spawn("java2");
        let mut h2 = HeapSim::launch(&mut mm, &mut guest, pid2, &flat_profile(), 0);
        for t in 1..50u64 {
            h1.tick(&mut mm, &mut guest, pid, 1, 1.0, Tick(t));
            h2.tick(&mut mm, &mut guest, pid2, 2, 1.0, Tick(t));
        }
        // Same logical page, different process salt → different content.
        let p1 = guest
            .fingerprint_at(&mm, pid, h1.nursery.base.offset(0))
            .unwrap();
        let p2 = guest
            .fingerprint_at(&mm, pid2, h2.nursery.base.offset(0))
            .unwrap();
        assert_ne!(p1, p2);
    }

    #[test]
    fn generational_promotes_into_tenured() {
        let (mut mm, mut guest, pid) = setup();
        let profile = HeapProfile {
            heap_mib: 3.0,
            policy: GcPolicy::Generational {
                nursery_mib: 2.0,
                tenured_mib: 1.0,
            },
            live_fraction: 0.5,
            alloc_mib_per_sec: 8.0,
            untouched_fraction: 0.0,
        };
        let mut heap = HeapSim::launch(&mut mm, &mut guest, pid, &profile, 0);
        let tenured_cursor_before = heap.tenured.as_ref().unwrap().cursor;
        for t in 1..400u64 {
            heap.tick(&mut mm, &mut guest, pid, 1, 1.0, Tick(t));
        }
        assert!(heap.gc_count() > 0);
        let tenured = heap.tenured.as_ref().unwrap();
        assert!(
            tenured.cursor > tenured_cursor_before || tenured.collections > 0,
            "promotion should advance the tenured frontier"
        );
    }

    #[test]
    fn full_live_fraction_never_collects() {
        let (mut mm, mut guest, pid) = setup();
        let mut profile = flat_profile();
        profile.live_fraction = 1.0; // clamped to 0.95 internally, free > 0
        profile.alloc_mib_per_sec = 0.0;
        let mut heap = HeapSim::launch(&mut mm, &mut guest, pid, &profile, 0);
        for t in 1..50u64 {
            heap.tick(&mut mm, &mut guest, pid, 1, 1.0, Tick(t));
        }
        assert_eq!(heap.gc_count(), 0);
    }
}
