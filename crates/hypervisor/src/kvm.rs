//! The KVM-style process-VM host.

use mem::{FingerprintBuilder, Tick};
use oskernel::{GuestOs, OsImage, Pid};
use paging::{HostMm, MemTag, ThpPolicy};

/// VM-process overhead outside guest memory (QEMU device state, runtime
/// heap) — "the pages used by the guest VM itself", which §II.D found to
/// be quite small: ≈26 MiB per 1 GiB guest. Proportional to guest size
/// so scaled experiments keep the paper's proportions.
const VM_OVERHEAD_MIB_PER_GIB: f64 = 26.0;

/// Non-Java guest user processes (init, sshd, cron, …), also small in
/// the paper's breakdown: ≈20 MiB per 1 GiB guest.
const DAEMONS_MIB_PER_GIB: f64 = 20.0;
const DAEMON_COUNT: usize = 5;

/// Physical host configuration (Table I).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct HostConfig {
    /// Physical RAM, MiB.
    pub ram_mib: f64,
    /// RAM consumed by the host kernel and hypervisor runtime, MiB —
    /// unavailable to guests.
    pub reserve_mib: f64,
}

impl HostConfig {
    /// The paper's Intel host: IBM BladeCenter LS21, 6 GB RAM, RHEL 5.5
    /// host kernel + KVM.
    #[must_use]
    pub fn paper_intel() -> HostConfig {
        HostConfig {
            ram_mib: 6.0 * 1024.0,
            reserve_mib: 420.0,
        }
    }

    /// The paper's POWER host: IBM BladeCenter PS701, 128 GB RAM,
    /// PowerVM 2.1.
    #[must_use]
    pub fn paper_power() -> HostConfig {
        HostConfig {
            ram_mib: 128.0 * 1024.0,
            reserve_mib: 2048.0,
        }
    }

    /// Scales the host by `divisor` (matches scaling the guests, so
    /// over-commit ratios — and therefore the throughput knees — are
    /// preserved).
    #[must_use]
    pub fn scaled(&self, divisor: f64) -> HostConfig {
        assert!(divisor >= 1.0, "scale divisor must be >= 1");
        HostConfig {
            ram_mib: self.ram_mib / divisor,
            reserve_mib: self.reserve_mib / divisor,
        }
    }

    /// RAM usable by guests, MiB.
    #[must_use]
    pub fn usable_mib(&self) -> f64 {
        self.ram_mib - self.reserve_mib
    }
}

/// One guest VM: a host process containing the guest memslot, the booted
/// guest OS, and the VM runtime's own overhead pages.
#[derive(Debug)]
pub struct KvmGuest {
    /// Guest name (e.g. `"vm1"`).
    pub name: String,
    /// The booted guest operating system.
    pub os: GuestOs,
    /// Pids of the guest's background daemons.
    pub daemon_pids: Vec<Pid>,
}

/// A host machine running KVM guests over one shared frame pool.
///
/// See the [crate docs](crate) for an example.
#[derive(Debug)]
pub struct KvmHost {
    mm: HostMm,
    config: HostConfig,
    guests: Vec<KvmGuest>,
    thp: ThpPolicy,
}

impl KvmHost {
    /// Creates an empty host.
    #[must_use]
    pub fn new(config: HostConfig) -> KvmHost {
        KvmHost {
            mm: HostMm::new(),
            config,
            guests: Vec::new(),
            thp: ThpPolicy::Never,
        }
    }

    /// Sets the THP policy of both sides: the host's khugepaged and
    /// every *subsequently created* guest kernel.
    pub fn set_thp_policy(&mut self, policy: ThpPolicy) {
        self.thp = policy;
    }

    /// Host configuration.
    #[must_use]
    pub fn config(&self) -> HostConfig {
        self.config
    }

    /// The host memory manager.
    #[must_use]
    pub fn mm(&self) -> &HostMm {
        &self.mm
    }

    /// Mutable access to the host memory manager (the KSM scanner drives
    /// merges through this).
    pub fn mm_mut(&mut self) -> &mut HostMm {
        &mut self.mm
    }

    /// The guests, in creation order.
    #[must_use]
    pub fn guests(&self) -> &[KvmGuest] {
        &self.guests
    }

    /// One guest by index.
    #[must_use]
    pub fn guest(&self, idx: usize) -> &KvmGuest {
        &self.guests[idx]
    }

    /// Split borrow for the per-tick loop: the memory manager *and* one
    /// guest, mutably.
    pub fn mm_and_guest_mut(&mut self, idx: usize) -> (&mut HostMm, &mut KvmGuest) {
        (&mut self.mm, &mut self.guests[idx])
    }

    /// Split borrow for whole-host operations (Satori sharing, placement
    /// summaries): the memory manager mutably plus read access to every
    /// guest OS.
    pub fn mm_and_all_guests(&mut self) -> (&mut HostMm, Vec<&GuestOs>) {
        (&mut self.mm, self.guests.iter().map(|g| &g.os).collect())
    }

    /// Creates a guest VM: a new VM process with `mem_mib` of guest
    /// memory, boots `image` in it, writes the VM runtime overhead, and
    /// starts the guest's background daemons. Returns the guest index.
    pub fn create_guest(
        &mut self,
        name: impl Into<String>,
        mem_mib: f64,
        image: &OsImage,
        boot_salt: u64,
        now: Tick,
    ) -> usize {
        let name = name.into();
        let vm_space = self.mm.create_space(format!("qemu-{name}"));
        self.mm
            .tracer()
            .emit_with(|| obs::EventKind::MemslotCreate {
                space: vm_space.index() as u32,
                pages: mem::mib_to_pages(mem_mib) as u64,
            });
        let mut os = GuestOs::boot(
            &mut self.mm,
            vm_space,
            mem::mib_to_pages(mem_mib),
            image,
            boot_salt,
            now,
        );
        os.set_thp_policy(self.thp);
        // VM-process overhead: private, outside guest memory, not
        // madvise(MERGEABLE) (QEMU only advises the guest RAM block).
        let overhead_pages = mem::mib_to_pages(VM_OVERHEAD_MIB_PER_GIB * mem_mib / 1024.0).max(1);
        let overhead_base = self
            .mm
            .map_region(vm_space, overhead_pages, MemTag::VmOverhead, false);
        let mut head = FingerprintBuilder::new();
        head.push(0x9e40);
        head.push(boot_salt);
        let overhead = (0..overhead_pages as u64).map(|i| {
            let mut fp = head.clone();
            fp.push(i);
            (overhead_base.offset(i), fp.finish())
        });
        self.mm.write_run(vm_space, now, overhead);
        // Guest daemons: small, private.
        let mut daemon_pids = Vec::new();
        let per_daemon_pages =
            mem::mib_to_pages(DAEMONS_MIB_PER_GIB * mem_mib / 1024.0) / DAEMON_COUNT;
        for d in 0..DAEMON_COUNT {
            let pid = os.spawn(format!("daemon{d}"));
            let base = os.map_region(
                &mut self.mm,
                pid,
                per_daemon_pages.max(1),
                MemTag::OtherProcess,
            );
            let mut head = FingerprintBuilder::new();
            head.push(0x0dae + d as u64);
            head.push(boot_salt);
            os.write_run(&mut self.mm, pid, base, per_daemon_pages, now, |i| {
                let mut fp = head.clone();
                fp.push(i);
                fp.finish()
            });
            daemon_pids.push(pid);
        }
        self.guests.push(KvmGuest {
            name,
            os,
            daemon_pids,
        });
        self.guests.len() - 1
    }

    /// One khugepaged pass: scans every guest memslot for collapsible
    /// 2 MiB blocks under the host THP policy — every block when
    /// `always`, only guest-hinted blocks when `madvise`, nothing when
    /// `never`. [`HostMm::try_collapse`] re-verifies eligibility
    /// (fully populated, exclusively owned, not KSM-latched) per block.
    pub fn thp_scan(&mut self, _now: Tick) {
        if self.thp == ThpPolicy::Never {
            return;
        }
        for idx in 0..self.guests.len() {
            let space = self.guests[idx].os.vm_space();
            let base = self.guests[idx].os.host_vpn(0);
            let candidates: Vec<usize> = match self.thp {
                ThpPolicy::Never => unreachable!("early return above"),
                ThpPolicy::Always => {
                    let Some(region) = self.mm.space(space).region_at(base) else {
                        continue;
                    };
                    (0..region.block_count())
                        .filter(|&b| !region.is_huge_block(b) && !region.ksm_split_latched(b))
                        .collect()
                }
                ThpPolicy::Madvise => self.guests[idx]
                    .os
                    .huge_hint_blocks()
                    .map(|b| b as usize)
                    .collect(),
            };
            for block in candidates {
                self.mm.try_collapse(space, base, block);
            }
        }
    }

    /// Host pages currently mapped through 2 MiB translations in one
    /// guest's memslot.
    #[must_use]
    pub fn guest_huge_pages(&self, idx: usize) -> usize {
        let g = &self.guests[idx];
        let space = g.os.vm_space();
        self.mm
            .space(space)
            .region_at(g.os.host_vpn(0))
            .map_or(0, paging::Region::huge_pages)
    }

    /// Host pages currently mapped through 2 MiB translations across
    /// every guest memslot.
    #[must_use]
    pub fn huge_pages(&self) -> usize {
        (0..self.guests.len())
            .map(|i| self.guest_huge_pages(i))
            .sum()
    }

    /// Memory reached through 2 MiB translations, MiB — the TLB-reach
    /// numerator of the THP × KSM frontier.
    #[must_use]
    pub fn huge_mib(&self) -> f64 {
        mem::pages_to_mib(self.huge_pages())
    }

    /// Host physical memory currently allocated, MiB.
    #[must_use]
    pub fn resident_mib(&self) -> f64 {
        mem::pages_to_mib(self.mm.phys().allocated_frames())
    }

    /// Over-commit: resident beyond usable RAM, MiB (zero when healthy).
    #[must_use]
    pub fn overcommit_mib(&self) -> f64 {
        (self.resident_mib() - self.config.usable_mib()).max(0.0)
    }

    /// Exports the host-level deterministic gauges — resident/huge/
    /// over-commit MiB, guest count, usable RAM — into `reg`, then the
    /// memory manager's own counters via [`HostMm::record_metrics`].
    pub fn record_metrics(&self, reg: &mut obs::MetricsRegistry) {
        reg.gauge(
            "host_resident_mib",
            "Host physical memory currently allocated, MiB.",
            &[],
            self.resident_mib(),
        );
        reg.gauge(
            "host_huge_mib",
            "Memory reached through 2 MiB translations, MiB.",
            &[],
            self.huge_mib(),
        );
        reg.gauge(
            "host_overcommit_mib",
            "Resident beyond usable RAM, MiB (zero when healthy).",
            &[],
            self.overcommit_mib(),
        );
        reg.gauge(
            "host_usable_mib",
            "Usable host RAM after the hypervisor reserve, MiB.",
            &[],
            self.config.usable_mib(),
        );
        reg.gauge(
            "host_guests",
            "Guest VMs currently defined.",
            &[],
            self.guests.len() as f64,
        );
        self.mm.record_metrics(reg);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use mem::{Fingerprint, HUGE_PAGE_SPAN};

    fn host_with_two_guests() -> KvmHost {
        let mut host = KvmHost::new(HostConfig::paper_intel().scaled(16.0));
        for (i, name) in ["vm1", "vm2"].iter().enumerate() {
            host.create_guest(*name, 64.0, &OsImage::tiny_test(), i as u64 + 1, Tick(0));
        }
        host
    }

    #[test]
    fn guests_boot_with_kernel_overhead_and_daemons() {
        let host = host_with_two_guests();
        assert_eq!(host.guests().len(), 2);
        for guest in host.guests() {
            assert_eq!(guest.daemon_pids.len(), DAEMON_COUNT);
            // Kernel + daemons populated.
            assert!(guest.os.gpfns_in_use() > 0);
        }
        // Both the memslots and overhead regions exist in the host mm.
        assert!(host.resident_mib() > 2.0 * OsImage::tiny_test().total_mib());
        host.mm().assert_consistent();
    }

    #[test]
    fn overhead_region_is_not_mergeable() {
        let host = host_with_two_guests();
        for space in host.mm().spaces() {
            for region in space.regions() {
                if region.tag() == MemTag::VmOverhead {
                    assert!(!region.mergeable());
                }
                if region.tag() == MemTag::VmGuestMemory {
                    assert!(region.mergeable());
                }
            }
        }
    }

    #[test]
    fn overcommit_accounting() {
        let mut host = KvmHost::new(HostConfig {
            ram_mib: 10.0,
            reserve_mib: 2.0,
        });
        assert_eq!(host.overcommit_mib(), 0.0);
        host.create_guest("vm1", 64.0, &OsImage::tiny_test(), 1, Tick(0));
        host.create_guest("vm2", 64.0, &OsImage::tiny_test(), 2, Tick(0));
        host.create_guest("vm3", 64.0, &OsImage::tiny_test(), 3, Tick(0));
        // Three guests' boot footprints exceed 8 MiB usable.
        assert!(host.overcommit_mib() > 0.0);
    }

    #[test]
    fn split_borrow_allows_guest_writes() {
        let mut host = host_with_two_guests();
        let (mm, guest) = host.mm_and_guest_mut(0);
        let pid = guest.os.spawn("p");
        let r = guest.os.add_region(pid, 2, MemTag::OtherProcess);
        guest
            .os
            .write_page(mm, pid, r, Fingerprint::of(&[1]), Tick(1));
        host.mm().assert_consistent();
    }

    #[test]
    fn thp_scan_collapses_under_always_policy() {
        let mut host = KvmHost::new(HostConfig::paper_intel().scaled(16.0));
        host.set_thp_policy(ThpPolicy::Always);
        host.create_guest("vm1", 16.0, &OsImage::tiny_test(), 1, Tick(0));
        // Gpfns allocate densely from zero; filling past the boot
        // footprint completes the first memslot blocks even though the
        // guest itself faults 4 KiB at a time.
        let (mm, guest) = host.mm_and_guest_mut(0);
        let pid = guest.os.spawn("filler");
        let r = guest
            .os
            .add_region(pid, 2 * HUGE_PAGE_SPAN, MemTag::OtherProcess);
        for i in 0..(2 * HUGE_PAGE_SPAN) as u64 {
            guest
                .os
                .write_page(mm, pid, r.offset(i), Fingerprint::of(&[0xf1, i]), Tick(1));
        }
        host.thp_scan(Tick(1));
        assert!(host.huge_pages() >= HUGE_PAGE_SPAN, "{}", host.huge_pages());
        assert!(host.huge_mib() >= 2.0);
        host.mm().assert_consistent();
    }

    #[test]
    fn thp_scan_madvise_skips_unhinted_blocks() {
        // The fill that collapses under `always` leaves no hint (only
        // Java-heap faults hint under `madvise`), so nothing collapses.
        let mut host = KvmHost::new(HostConfig::paper_intel().scaled(16.0));
        host.set_thp_policy(ThpPolicy::Madvise);
        host.create_guest("vm1", 16.0, &OsImage::tiny_test(), 1, Tick(0));
        let (mm, guest) = host.mm_and_guest_mut(0);
        let pid = guest.os.spawn("filler");
        let r = guest
            .os
            .add_region(pid, 2 * HUGE_PAGE_SPAN, MemTag::OtherProcess);
        for i in 0..(2 * HUGE_PAGE_SPAN) as u64 {
            guest
                .os
                .write_page(mm, pid, r.offset(i), Fingerprint::of(&[0xf1, i]), Tick(1));
        }
        assert_eq!(guest.os.huge_hint_blocks().count(), 0);
        host.thp_scan(Tick(1));
        assert_eq!(host.huge_pages(), 0);
    }

    #[test]
    fn thp_scan_madvise_follows_guest_hints() {
        let mut host = KvmHost::new(HostConfig::paper_intel().scaled(16.0));
        host.set_thp_policy(ThpPolicy::Madvise);
        host.create_guest("vm1", 16.0, &OsImage::tiny_test(), 1, Tick(0));
        host.thp_scan(Tick(1));
        assert_eq!(host.huge_pages(), 0, "no heap faulted yet");
        // A Java-heap huge fault produces a hint khugepaged honors.
        let (mm, guest) = host.mm_and_guest_mut(0);
        let pid = guest.os.spawn("java");
        let heap = guest
            .os
            .add_region(pid, 2 * HUGE_PAGE_SPAN, MemTag::JavaHeap);
        guest
            .os
            .write_page(mm, pid, heap, Fingerprint::of(&[1]), Tick(2));
        assert_eq!(guest.os.huge_hint_blocks().count(), 1);
        host.thp_scan(Tick(3));
        assert_eq!(host.huge_pages(), HUGE_PAGE_SPAN);
        host.mm().assert_consistent();
    }
}
