//! The JVM work area: private structures, NIO buffers, zeroed arena tails.

use crate::fill::{run_head, ProgressFill};
use crate::profile::AppProfile;
use mem::{Fingerprint, Tick};
use oskernel::{GuestOs, Pid};
use paging::{HostMm, MallocArena, MemTag, PageSink, Vpn};

const WORK_TOKEN: u64 = 0x3041;
const NIO_TOKEN: u64 = 0x310;

/// Mean size of one JVM-internal malloc'd structure.
const MEAN_CHUNK_BYTES: usize = 7 * 1024;

/// A [`PageSink`] that materialises arena pages inside a guest process.
struct GuestSink<'a> {
    mm: &'a mut HostMm,
    guest: &'a mut GuestOs,
    pid: Pid,
    tag: MemTag,
    pages_hint: usize,
    first_base: Option<Vpn>,
}

impl PageSink for GuestSink<'_> {
    fn grow(&mut self, pages: usize) -> Vpn {
        let base = self
            .guest
            .add_region(self.pid, pages.max(self.pages_hint), self.tag);
        self.first_base.get_or_insert(base);
        base
    }
    fn write(&mut self, vpn: Vpn, fp: Fingerprint, now: Tick) {
        self.guest.write_page(self.mm, self.pid, vpn, fp, now);
    }
}

/// JVM work area simulator.
///
/// §III.A found three residual sources of sharing inside the otherwise
/// private "JVM and JIT work" area, and this module models all three:
///
/// 1. **NIO socket buffers** — the drivers send every VM the same request
///    stream and the database returns the same rows, so buffer *contents*
///    are workload-determined and identical across VMs (about half of the
///    observed sharing). The paper cautions this is benchmark luck, not a
///    property of real deployments.
/// 2. **Unused parts of malloc-arena blocks** — the zeroed tail of the
///    [`MallocArena`] block the internal structures are carved from.
/// 3. **Bulk-allocated, not-yet-used internal structures** — also zero.
#[derive(Debug)]
pub(crate) struct WorkArea {
    arena: MallocArena,
    data_base: Vpn,
    data_pages: usize,
    /// Bytes of structures still to allocate during start-up.
    bytes_remaining: usize,
    bytes_total: usize,
    alloc_seq: u64,
    nio_base: Vpn,
    nio_fill: ProgressFill,
    churn_cursor: u64,
    churn_carry: f64,
}

impl WorkArea {
    pub(crate) fn launch(
        mm: &mut HostMm,
        guest: &mut GuestOs,
        pid: Pid,
        profile: &AppProfile,
        now: Tick,
    ) -> WorkArea {
        let data_pages = mem::mib_to_pages(profile.work_data_mib).max(1);
        let zero_pages = mem::mib_to_pages(profile.work_zero_mib);
        let nio_pages = mem::mib_to_pages(profile.nio_mib).max(1);
        let block_pages = data_pages + zero_pages.max(1);
        // The JVM's internal allocator grabs one arena block covering its
        // working structures; what start-up doesn't consume stays zero.
        let mut arena = MallocArena::new(block_pages);
        let mut sink = GuestSink {
            mm,
            guest,
            pid,
            tag: MemTag::JavaJvmWork,
            pages_hint: block_pages,
            first_base: None,
        };
        // Prime the block so the zero tail exists from the start.
        let first = arena.malloc(&mut sink, WORK_TOKEN, 64, now);
        let data_base = sink.first_base.expect("arena grew a block");
        debug_assert_eq!(first.base, data_base);
        let nio_base = guest.add_region(pid, nio_pages, MemTag::JavaJvmWork);
        let bytes_total = data_pages * mem::PAGE_SIZE - 4096;
        WorkArea {
            arena,
            data_base,
            data_pages,
            bytes_remaining: bytes_total,
            bytes_total,
            alloc_seq: 0,
            nio_base,
            nio_fill: ProgressFill::new(nio_pages),
            churn_cursor: 0,
            churn_carry: 0.0,
        }
    }

    #[allow(clippy::too_many_arguments)] // simulation context threading
    pub(crate) fn tick(
        &mut self,
        mm: &mut HostMm,
        guest: &mut GuestOs,
        pid: Pid,
        profile: &AppProfile,
        salt: u64,
        startup_fraction: f64,
        nio_fraction: f64,
        now: Tick,
    ) {
        self.startup(mm, guest, pid, salt, startup_fraction, now);
        self.fill_nio(mm, guest, pid, profile, nio_fraction, now);
        self.churn(
            mm,
            guest,
            pid,
            salt,
            mem::mib_to_pages(profile.work_churn_mib_per_sec) as f64 / mem::TICKS_PER_SECOND as f64,
            now,
        );
    }

    /// Private structures materialise during start-up: a stream of
    /// salted malloc calls packed into the arena block.
    pub(crate) fn startup(
        &mut self,
        mm: &mut HostMm,
        guest: &mut GuestOs,
        pid: Pid,
        salt: u64,
        startup_fraction: f64,
        now: Tick,
    ) {
        let target_remaining =
            ((1.0 - startup_fraction.clamp(0.0, 1.0)) * self.bytes_total as f64) as usize;
        while self.bytes_remaining > target_remaining {
            let len = MEAN_CHUNK_BYTES.min(self.bytes_remaining).max(64);
            self.alloc_seq += 1;
            let token = Fingerprint::of(&[WORK_TOKEN, salt, self.alloc_seq]).as_u128() as u64;
            let mut sink = GuestSink {
                mm,
                guest,
                pid,
                tag: MemTag::JavaJvmWork,
                pages_hint: 0,
                first_base: None,
            };
            self.arena.malloc(&mut sink, token, len, now);
            self.bytes_remaining -= len;
        }
    }

    /// NIO buffers fill with the first requests; contents derive from
    /// the workload (identical across VMs), not the process.
    pub(crate) fn fill_nio(
        &mut self,
        mm: &mut HostMm,
        guest: &mut GuestOs,
        pid: Pid,
        profile: &AppProfile,
        nio_fraction: f64,
        now: Tick,
    ) {
        let fill = self.nio_fill.advance(nio_fraction);
        if !fill.is_empty() {
            let start = fill.start as u64;
            let head = run_head(&[NIO_TOKEN, profile.workload_id]);
            guest.write_run(mm, pid, self.nio_base.offset(start), fill.len(), now, |i| {
                let mut fp = head.clone();
                fp.push(start + i);
                fp.finish()
            });
        }
    }

    /// Rewrites `pages` of the hot slice of the private structures
    /// (string tables, monitor tables, …); fractions carry over.
    pub(crate) fn churn(
        &mut self,
        mm: &mut HostMm,
        guest: &mut GuestOs,
        pid: Pid,
        salt: u64,
        pages: f64,
        now: Tick,
    ) {
        self.churn_carry += pages;
        let mut writes = self.churn_carry as usize;
        self.churn_carry -= writes as f64;
        if writes == 0 {
            return;
        }
        // Only the first quarter of the data area is hot.
        let hot = (self.data_pages / 4).max(1);
        let head = run_head(&[WORK_TOKEN, salt]);
        while writes > 0 {
            // One run up to the end of the hot slice, then wrap.
            let start = self.churn_cursor % hot as u64;
            let len = writes.min(hot - start as usize);
            guest.write_run(mm, pid, self.data_base.offset(start), len, now, |i| {
                let mut fp = head.clone();
                fp.push(start + i);
                fp.push(now.0);
                fp.finish()
            });
            self.churn_cursor += len as u64;
            writes -= len;
        }
    }

    /// Zero pages still unused at the arena tail.
    #[cfg(test)]
    pub(crate) fn zero_tail_pages(&self) -> usize {
        self.arena.zero_tail_pages()
    }

    #[cfg(test)]
    pub(crate) fn nio_base(&self) -> Vpn {
        self.nio_base
    }

    #[cfg(test)]
    pub(crate) fn data_base(&self) -> Vpn {
        self.data_base
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use oskernel::OsImage;
    use paging::HostMm;

    fn setup() -> (HostMm, GuestOs, Pid, Pid) {
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
        let p1 = guest.spawn("java1");
        let p2 = guest.spawn("java2");
        (mm, guest, p1, p2)
    }

    #[test]
    fn nio_content_identical_across_processes_private_data_differs() {
        let (mut mm, mut guest, p1, p2) = setup();
        let profile = AppProfile::tiny_test();
        let mut w1 = WorkArea::launch(&mut mm, &mut guest, p1, &profile, Tick(0));
        let mut w2 = WorkArea::launch(&mut mm, &mut guest, p2, &profile, Tick(0));
        w1.tick(&mut mm, &mut guest, p1, &profile, 1, 1.0, 1.0, Tick(1));
        w2.tick(&mut mm, &mut guest, p2, &profile, 2, 1.0, 1.0, Tick(1));
        // Same benchmark ⇒ same buffer bytes.
        assert_eq!(
            guest.fingerprint_at(&mm, p1, w1.nio_base()),
            guest.fingerprint_at(&mm, p2, w2.nio_base())
        );
        // Private structures are salted (and arena offsets differ anyway).
        assert_ne!(
            guest.fingerprint_at(&mm, p1, w1.data_base()),
            guest.fingerprint_at(&mm, p2, w2.data_base())
        );
    }

    #[test]
    fn arena_tail_stays_zero_after_startup() {
        let (mut mm, mut guest, p1, _) = setup();
        let profile = AppProfile::tiny_test();
        let mut w = WorkArea::launch(&mut mm, &mut guest, p1, &profile, Tick(0));
        w.tick(&mut mm, &mut guest, p1, &profile, 1, 1.0, 0.0, Tick(1));
        let zero_pages = mem::mib_to_pages(profile.work_zero_mib);
        assert!(w.zero_tail_pages() >= zero_pages, "{}", w.zero_tail_pages());
        // The tail pages really are zero.
        for i in 0..w.zero_tail_pages() {
            let vpn = w.data_base().offset((w.data_pages + i) as u64);
            assert_eq!(guest.fingerprint_at(&mm, p1, vpn), Some(Fingerprint::ZERO));
        }
    }

    #[test]
    fn startup_allocation_is_gradual() {
        let (mut mm, mut guest, p1, _) = setup();
        let profile = AppProfile::tiny_test();
        let mut w = WorkArea::launch(&mut mm, &mut guest, p1, &profile, Tick(0));
        w.tick(&mut mm, &mut guest, p1, &profile, 1, 0.5, 0.0, Tick(1));
        let half = w.arena.allocations();
        w.tick(&mut mm, &mut guest, p1, &profile, 1, 1.0, 0.0, Tick(2));
        assert!(w.arena.allocations() > half);
        assert_eq!(w.bytes_remaining, 0);
        // Further ticks allocate nothing more.
        let done = w.arena.allocations();
        w.tick(&mut mm, &mut guest, p1, &profile, 1, 1.0, 0.0, Tick(3));
        assert_eq!(w.arena.allocations(), done);
    }

    #[test]
    fn churn_rewrites_hot_slice_only() {
        let (mut mm, mut guest, p1, _) = setup();
        let mut profile = AppProfile::tiny_test();
        profile.work_churn_mib_per_sec = 4.0;
        let mut w = WorkArea::launch(&mut mm, &mut guest, p1, &profile, Tick(0));
        w.tick(&mut mm, &mut guest, p1, &profile, 1, 1.0, 0.0, Tick(1));
        let cold_index = w.data_pages as u64 - 1;
        let cold_before = guest.fingerprint_at(&mm, p1, w.data_base().offset(cold_index));
        for t in 2..40u64 {
            w.tick(&mut mm, &mut guest, p1, &profile, 1, 1.0, 0.0, Tick(t));
        }
        // Cold tail untouched by churn; hot head rewritten.
        assert_eq!(
            guest.fingerprint_at(&mm, p1, w.data_base().offset(cold_index)),
            cold_before
        );
    }
}
