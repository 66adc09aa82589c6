//! Owner-oriented and distribution-oriented accounting, rolled up into
//! the paper's figure quantities.

use crate::snapshot::{MemorySnapshot, PageUser};
use jvm::MemoryCategory;
use oskernel::Pid;
use paging::MemTag;
use std::collections::BTreeMap;

/// Usage of one Table IV category by one Java process.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct CategoryUsage {
    /// Virtually resident MiB (mapped pages — the bar length in
    /// Figs. 3/5).
    pub resident_mib: f64,
    /// Owner-oriented physical MiB charged to this process.
    pub owned_mib: f64,
    /// MiB whose backing frame is TPS-shared (the graded shading).
    pub tps_shared_mib: f64,
    /// Distribution-oriented (PSS) MiB, for cross-checking.
    pub pss_mib: f64,
}

impl CategoryUsage {
    /// MiB this process uses without owning — its TPS saving.
    #[must_use]
    pub fn saved_mib(&self) -> f64 {
        (self.resident_mib - self.owned_mib).max(0.0)
    }
}

/// Per-guest rollup (Figs. 2/4).
#[derive(Debug, Clone, Default, PartialEq)]
pub struct GuestBreakdown {
    /// Guest name.
    pub name: String,
    /// Owner-oriented MiB charged to the guest's Java processes.
    pub java_owned_mib: f64,
    /// … to the other guest user processes.
    pub other_owned_mib: f64,
    /// … to the guest kernel (incl. buffers and page cache).
    pub kernel_owned_mib: f64,
    /// … to the VM process itself.
    pub vm_overhead_owned_mib: f64,
    /// Virtually resident MiB across the guest.
    pub resident_mib: f64,
}

impl GuestBreakdown {
    /// Total owner-oriented usage of the guest.
    #[must_use]
    pub fn owned_total_mib(&self) -> f64 {
        self.java_owned_mib
            + self.other_owned_mib
            + self.kernel_owned_mib
            + self.vm_overhead_owned_mib
    }

    /// The guest's TPS saving: memory it uses but does not own.
    #[must_use]
    pub fn tps_saving_mib(&self) -> f64 {
        (self.resident_mib - self.owned_total_mib()).max(0.0)
    }
}

/// Per-Java-process rollup (Figs. 3/5).
#[derive(Debug, Clone, PartialEq)]
pub struct JavaBreakdown {
    /// Guest index.
    pub guest: u32,
    /// Guest name.
    pub guest_name: String,
    /// Guest pid of the Java process.
    pub pid: Pid,
    /// Usage per Table IV category.
    pub categories: BTreeMap<MemoryCategory, CategoryUsage>,
}

impl JavaBreakdown {
    /// Usage for one category (zero if the process has none).
    #[must_use]
    pub fn category(&self, cat: MemoryCategory) -> CategoryUsage {
        self.categories.get(&cat).copied().unwrap_or_default()
    }

    /// Total resident MiB of the process.
    #[must_use]
    pub fn resident_total_mib(&self) -> f64 {
        self.categories.values().map(|c| c.resident_mib).sum()
    }

    /// Total owner-oriented MiB of the process.
    #[must_use]
    pub fn owned_total_mib(&self) -> f64 {
        self.categories.values().map(|c| c.owned_mib).sum()
    }

    /// Total TPS saving of the process (used but not owned).
    #[must_use]
    pub fn saved_total_mib(&self) -> f64 {
        (self.resident_total_mib() - self.owned_total_mib()).max(0.0)
    }

    /// Fraction of the class-metadata category this process uses without
    /// owning — the paper's headline "89.6 % of the memory used for class
    /// metadata was eliminated" metric for non-primary JVMs.
    #[must_use]
    pub fn class_metadata_saving_fraction(&self) -> f64 {
        let c = self.category(MemoryCategory::ClassMetadata);
        if c.resident_mib <= 0.0 {
            0.0
        } else {
            c.saved_mib() / c.resident_mib
        }
    }
}

/// The full report: per-guest and per-Java-process rollups.
#[derive(Debug, Clone, PartialEq)]
pub struct BreakdownReport {
    /// Per-guest rollups, in guest order.
    pub guests: Vec<GuestBreakdown>,
    /// Per-Java-process rollups, in (guest, pid) order.
    pub javas: Vec<JavaBreakdown>,
    /// Total host physical memory in use, MiB (sum of owned).
    pub total_owned_mib: f64,
}

const PAGE_MIB: f64 = 4096.0 / (1024.0 * 1024.0);

/// Number of Table IV categories; `cat as usize` indexes
/// [`MemoryCategory::all`].
const CATEGORIES: usize = 7;

impl MemorySnapshot {
    /// Applies the paper's accounting rules and rolls up the report.
    ///
    /// One pass over frames and their users, in frame-index order. Each
    /// user's Java process is found in a short per-guest `(pid, slot)`
    /// list and its categories accumulate in an array indexed by
    /// [`MemoryCategory`], so the pass makes no hash or tree lookups.
    /// Every `f64` accumulator receives the same additions in the same
    /// order as [`breakdown_naive`](Self::breakdown_naive), so the two
    /// reports are bit-identical.
    #[must_use]
    pub fn breakdown(&self) -> BreakdownReport {
        let mut guests: Vec<GuestBreakdown> = self
            .guest_names
            .iter()
            .map(|name| GuestBreakdown {
                name: name.clone(),
                ..GuestBreakdown::default()
            })
            .collect();
        // Slots number the Java processes in (guest, pid) order, the
        // order of the report's `javas`.
        let mut keys: Vec<(u32, Pid)> = self.java_set.iter().copied().collect();
        keys.sort_unstable();
        let mut java_of: Vec<Vec<(Pid, usize)>> = vec![Vec::new(); guests.len()];
        for (slot, &(g, pid)) in keys.iter().enumerate() {
            java_of[g as usize].push((pid, slot));
        }
        let slot_of = |user: &PageUser| {
            let pid = user.pid?;
            java_of[user.guest? as usize]
                .iter()
                .find(|&&(p, _)| p == pid)
                .map(|&(_, slot)| slot)
        };
        let mut usage: Vec<[Option<CategoryUsage>; CATEGORIES]> =
            vec![[None; CATEGORIES]; keys.len()];

        let mut total_owned_pages = 0u64;
        let mut slots: Vec<Option<usize>> = Vec::new();
        for (_, users, ksm_shared) in self.frames.iter() {
            total_owned_pages += 1;
            slots.clear();
            slots.extend(users.iter().map(slot_of));
            let owner = select_owner(users, |i| slots[i].is_some());
            let pss_share = 1.0 / users.len() as f64;
            for (i, (user, &slot)) in users.iter().zip(&slots).enumerate() {
                let is_owner = i == owner;
                // Guest rollup.
                if let Some(g) = user.guest {
                    let gb = &mut guests[g as usize];
                    gb.resident_mib += PAGE_MIB;
                    if is_owner {
                        let bucket = if slot.is_some() {
                            &mut gb.java_owned_mib
                        } else if user.tag == MemTag::VmOverhead {
                            &mut gb.vm_overhead_owned_mib
                        } else if user.tag.is_guest_kernel() {
                            &mut gb.kernel_owned_mib
                        } else {
                            &mut gb.other_owned_mib
                        };
                        *bucket += PAGE_MIB;
                    }
                }
                // Java per-category rollup.
                if let (Some(slot), Some(cat)) = (slot, MemoryCategory::from_tag(user.tag)) {
                    let usage =
                        usage[slot][cat as usize].get_or_insert_with(CategoryUsage::default);
                    usage.resident_mib += PAGE_MIB;
                    usage.pss_mib += PAGE_MIB * pss_share;
                    if is_owner {
                        usage.owned_mib += PAGE_MIB;
                    }
                    if ksm_shared && users.len() > 1 {
                        usage.tps_shared_mib += PAGE_MIB;
                    }
                }
            }
        }

        let javas = keys
            .iter()
            .zip(usage)
            .map(|(&(g, pid), usage)| JavaBreakdown {
                guest: g,
                guest_name: self.guest_names[g as usize].clone(),
                pid,
                categories: MemoryCategory::all()
                    .iter()
                    .zip(usage)
                    .filter_map(|(&cat, u)| Some((cat, u?)))
                    .collect(),
            })
            .collect();
        BreakdownReport {
            guests,
            javas,
            total_owned_mib: total_owned_pages as f64 * PAGE_MIB,
        }
    }

    /// The original map-based rollup, retained as the differential
    /// oracle for [`breakdown`](Self::breakdown): the same accounting
    /// rules, but every user probes the Java set and a per-process
    /// `BTreeMap` of categories. Used only by tests and the audit, which
    /// demand an exactly equal report.
    #[must_use]
    pub fn breakdown_naive(&self) -> BreakdownReport {
        let mut guests: Vec<GuestBreakdown> = self
            .guest_names
            .iter()
            .map(|name| GuestBreakdown {
                name: name.clone(),
                ..GuestBreakdown::default()
            })
            .collect();
        let mut javas: BTreeMap<(u32, Pid), JavaBreakdown> = BTreeMap::new();
        for &(g, pid) in &self.java_set {
            javas.insert(
                (g, pid),
                JavaBreakdown {
                    guest: g,
                    guest_name: self.guest_names[g as usize].clone(),
                    pid,
                    categories: BTreeMap::new(),
                },
            );
        }

        let mut total_owned_pages = 0u64;
        for (_, users, ksm_shared) in self.frames.iter() {
            total_owned_pages += 1;
            let owner = select_owner(users, |i| users[i].is_java(&self.java_set));
            let pss_share = 1.0 / users.len() as f64;
            for (i, user) in users.iter().enumerate() {
                let is_owner = i == owner;
                // Guest rollup.
                if let Some(g) = user.guest {
                    let gb = &mut guests[g as usize];
                    gb.resident_mib += PAGE_MIB;
                    if is_owner {
                        let bucket = if user.pid.is_some_and(|p| self.java_set.contains(&(g, p))) {
                            &mut gb.java_owned_mib
                        } else if user.tag == MemTag::VmOverhead {
                            &mut gb.vm_overhead_owned_mib
                        } else if user.tag.is_guest_kernel() {
                            &mut gb.kernel_owned_mib
                        } else {
                            &mut gb.other_owned_mib
                        };
                        *bucket += PAGE_MIB;
                    }
                }
                // Java per-category rollup.
                if let (Some(g), Some(pid)) = (user.guest, user.pid) {
                    if let Some(jb) = javas.get_mut(&(g, pid)) {
                        if let Some(cat) = MemoryCategory::from_tag(user.tag) {
                            let usage = jb.categories.entry(cat).or_default();
                            usage.resident_mib += PAGE_MIB;
                            usage.pss_mib += PAGE_MIB * pss_share;
                            if is_owner {
                                usage.owned_mib += PAGE_MIB;
                            }
                            if ksm_shared && users.len() > 1 {
                                usage.tps_shared_mib += PAGE_MIB;
                            }
                        }
                    }
                }
            }
        }

        BreakdownReport {
            guests,
            javas: javas.into_values().collect(),
            total_owned_mib: total_owned_pages as f64 * PAGE_MIB,
        }
    }
}

/// Owner selection, §II.A: a Java process wins; among Java processes,
/// the smallest pid (pids being unrelated across VMs); otherwise the
/// first user in (pid, guest) order. `is_java(i)` says whether
/// `users[i]` is a Java process.
fn select_owner(users: &[PageUser], is_java: impl Fn(usize) -> bool) -> usize {
    let key = |u: &PageUser| (u.pid.map_or(u32::MAX, |p| p.0), u.guest.unwrap_or(u32::MAX));
    let mut best: Option<usize> = None;
    for (i, user) in users.iter().enumerate() {
        let java = is_java(i);
        let better = match best {
            None => true,
            Some(b) => {
                let bu = &users[b];
                let b_java = is_java(b);
                match (java, b_java) {
                    (true, false) => true,
                    (false, true) => false,
                    _ => key(user) < key(bu),
                }
            }
        };
        if better {
            best = Some(i);
        }
    }
    best.unwrap_or(0)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::snapshot::GuestView;
    use mem::{Fingerprint, Tick};
    use oskernel::{GuestOs, OsImage};
    use paging::HostMm;

    /// Two guests, one "java" process each, with some identical pages
    /// merged across them.
    fn scenario() -> (HostMm, GuestOs, GuestOs, Pid, Pid) {
        let mut mm = HostMm::new();
        let s1 = mm.create_space("vm1");
        let s2 = mm.create_space("vm2");
        let img = OsImage::tiny_test();
        let mut g1 = GuestOs::boot(&mut mm, s1, mem::mib_to_pages(32.0), &img, 1, Tick(0));
        let mut g2 = GuestOs::boot(&mut mm, s2, mem::mib_to_pages(32.0), &img, 2, Tick(0));
        let p1 = g1.spawn("java");
        let p2 = g2.spawn("java");
        let r1 = g1.add_region(p1, 8, MemTag::JavaClassMetadata);
        let r2 = g2.add_region(p2, 8, MemTag::JavaClassMetadata);
        for i in 0..8 {
            g1.write_page(&mut mm, p1, r1.offset(i), Fingerprint::of(&[i]), Tick(1));
            g2.write_page(&mut mm, p2, r2.offset(i), Fingerprint::of(&[i]), Tick(1));
        }
        // Merge all eight pairs (what KSM would do).
        for i in 0..8 {
            let f1 = mm
                .frame_at(
                    g1.vm_space(),
                    g1.host_vpn(g1.translate(p1, r1.offset(i)).unwrap()),
                )
                .unwrap();
            let f2 = mm
                .frame_at(
                    g2.vm_space(),
                    g2.host_vpn(g2.translate(p2, r2.offset(i)).unwrap()),
                )
                .unwrap();
            mm.merge_frames(f2, f1);
        }
        (mm, g1, g2, p1, p2)
    }

    #[test]
    fn owner_oriented_charges_one_java_process() {
        let (mm, g1, g2, p1, p2) = scenario();
        let views = vec![
            GuestView::new("vm1", &g1, vec![p1]),
            GuestView::new("vm2", &g2, vec![p2]),
        ];
        let report = MemorySnapshot::collect(&mm, &views).breakdown();
        assert_eq!(report.javas.len(), 2);
        let owner = report
            .javas
            .iter()
            .find(|j| j.owned_total_mib() > 0.0)
            .expect("one java process owns the pages");
        let sharer = report
            .javas
            .iter()
            .find(|j| (j.owned_total_mib() - 0.0).abs() < 1e-9)
            .expect("the other shares for free");
        let cat = MemoryCategory::ClassMetadata;
        let page = 4096.0 / (1024.0 * 1024.0);
        assert!((owner.category(cat).owned_mib - 8.0 * page).abs() < 1e-9);
        assert!((sharer.category(cat).resident_mib - 8.0 * page).abs() < 1e-9);
        // The non-primary process saves 100 % of its class metadata.
        assert!((sharer.class_metadata_saving_fraction() - 1.0).abs() < 1e-9);
        // Both show the pages as TPS-shared.
        assert!(owner.category(cat).tps_shared_mib > 0.0);
        assert!(sharer.category(cat).tps_shared_mib > 0.0);
    }

    #[test]
    fn pss_splits_shared_pages_evenly() {
        let (mm, g1, g2, p1, p2) = scenario();
        let views = vec![
            GuestView::new("vm1", &g1, vec![p1]),
            GuestView::new("vm2", &g2, vec![p2]),
        ];
        let report = MemorySnapshot::collect(&mm, &views).breakdown();
        let cat = MemoryCategory::ClassMetadata;
        for j in &report.javas {
            let u = j.category(cat);
            assert!((u.pss_mib - u.resident_mib / 2.0).abs() < 1e-9);
        }
    }

    #[test]
    fn guest_savings_equal_resident_minus_owned() {
        let (mm, g1, g2, p1, p2) = scenario();
        let views = vec![
            GuestView::new("vm1", &g1, vec![p1]),
            GuestView::new("vm2", &g2, vec![p2]),
        ];
        let report = MemorySnapshot::collect(&mm, &views).breakdown();
        let total_saving: f64 = report.guests.iter().map(|g| g.tps_saving_mib()).sum();
        let page = 4096.0 / (1024.0 * 1024.0);
        // Eight merged pairs = eight pages saved in one of the guests.
        assert!((total_saving - 8.0 * page).abs() < 1e-9);
        // Total owned equals unique frames.
        let owned: f64 = report.guests.iter().map(|g| g.owned_total_mib()).sum();
        assert!((owned - report.total_owned_mib).abs() < 1e-9);
    }

    /// The host frame behind `pid`'s page `vpn` in guest `os`.
    fn frame_of(mm: &HostMm, os: &GuestOs, pid: Pid, vpn: paging::Vpn) -> mem::FrameId {
        let gpfn = os.translate(pid, vpn).expect("page is mapped");
        mm.frame_at(os.vm_space(), os.host_vpn(gpfn))
            .expect("page is resident")
    }

    /// Writes one page of `tag` memory holding `fp` for `pid`.
    fn page(
        mm: &mut HostMm,
        os: &mut GuestOs,
        pid: Pid,
        tag: MemTag,
        fp: Fingerprint,
    ) -> mem::FrameId {
        let vpn = os.add_region(pid, 1, tag);
        os.write_page(mm, pid, vpn, fp, Tick(1));
        frame_of(mm, os, pid, vpn)
    }

    /// One world that reaches every owner-selection arm of §II.A, each
    /// on a frame of its own, with the owner pinned exactly.
    #[test]
    fn owner_selection_covers_every_arm() {
        let mut mm = HostMm::new();
        let s0 = mm.create_space("vm0");
        let s1 = mm.create_space("vm1");
        let img = OsImage::tiny_test();
        let mut g0 = GuestOs::boot(&mut mm, s0, mem::mib_to_pages(32.0), &img, 1, Tick(0));
        let mut g1 = GuestOs::boot(&mut mm, s1, mem::mib_to_pages(32.0), &img, 2, Tick(0));
        let app = g0.spawn("app");
        let java_a = g0.spawn("java");
        let java_b = g0.spawn("java");
        let java_1 = g1.spawn("java");
        // The arms below rely on this pid order.
        assert!(app < java_1 && java_1 < java_a && java_a < java_b);
        let fp = |i: u64| Fingerprint::of(&[i]);

        // Java beats a non-Java user that comes first in walk order and
        // in (pid, guest) order.
        let f = page(&mut mm, &mut g0, app, MemTag::OtherProcess, fp(1));
        let d = page(&mut mm, &mut g1, java_1, MemTag::JavaHeap, fp(1));
        mm.merge_frames(d, f);
        // Two Java pids in one guest: the smaller wins although the
        // larger's page comes first in walk order.
        let f = page(&mut mm, &mut g0, java_b, MemTag::JavaClassMetadata, fp(2));
        let d = page(&mut mm, &mut g0, java_a, MemTag::JavaClassMetadata, fp(2));
        mm.merge_frames(d, f);
        // Java pids across guests: the smaller pid wins although its
        // guest comes second.
        let f = page(&mut mm, &mut g0, java_a, MemTag::JavaCode, fp(3));
        let d = page(&mut mm, &mut g1, java_1, MemTag::JavaCode, fp(3));
        mm.merge_frames(d, f);
        // No Java user: guest 1's kernel (pid 0) beats guest 0's app,
        // which comes first in walk order and in guest order.
        let kernel_vpn = g1
            .context(oskernel::KERNEL_PID)
            .and_then(|k| k.regions().next())
            .and_then(|r| r.iter_mapped().next())
            .map(|(vpn, _)| vpn)
            .expect("booted kernel has a mapped page");
        let kernel = frame_of(&mm, &g1, oskernel::KERNEL_PID, kernel_vpn);
        let content = mm.phys().fingerprint(kernel);
        let d = page(&mut mm, &mut g0, app, MemTag::OtherProcess, content);
        mm.merge_frames(d, kernel);
        // Private pages: a Java stack, and VM-process overhead.
        page(&mut mm, &mut g0, java_a, MemTag::JavaStack, fp(4));
        let overhead = mm.map_region(s0, 1, MemTag::VmOverhead, false);
        mm.write_page(s0, overhead, fp(5), Tick(1));

        let views = vec![
            GuestView::new("vm0", &g0, vec![java_a, java_b]),
            GuestView::new("vm1", &g1, vec![java_1]),
        ];
        let snapshot = MemorySnapshot::collect(&mm, &views);
        let report = snapshot.breakdown();
        assert_eq!(report, snapshot.breakdown_naive());

        let page_mib = 4096.0 / (1024.0 * 1024.0);
        let java = |pid: Pid| {
            report
                .javas
                .iter()
                .find(|j| j.pid == pid)
                .expect("java process reported")
        };
        let owned = |pid: Pid, cat: MemoryCategory| java(pid).category(cat).owned_mib;
        assert_eq!(owned(java_1, MemoryCategory::JavaHeap), page_mib);
        assert_eq!(owned(java_a, MemoryCategory::ClassMetadata), page_mib);
        assert_eq!(owned(java_b, MemoryCategory::ClassMetadata), 0.0);
        assert_eq!(owned(java_1, MemoryCategory::Code), page_mib);
        assert_eq!(owned(java_a, MemoryCategory::Code), 0.0);
        assert_eq!(owned(java_a, MemoryCategory::Stack), page_mib);
        // Every shared Java page is KSM-shared; the private stack is not.
        let usage = java(java_b).category(MemoryCategory::ClassMetadata);
        assert_eq!(usage.tps_shared_mib, page_mib);
        assert_eq!(usage.pss_mib, page_mib / 2.0);
        assert_eq!(usage.resident_mib, page_mib);
        assert_eq!(
            java(java_a).category(MemoryCategory::Stack).tps_shared_mib,
            0.0
        );

        let (r0, r1) = (&report.guests[0], &report.guests[1]);
        assert_eq!(r0.java_owned_mib, 2.0 * page_mib);
        assert_eq!(r1.java_owned_mib, 2.0 * page_mib);
        // The app owns none of its pages: one is a Java page, the other
        // guest 1's kernel page.
        assert_eq!(r0.other_owned_mib, 0.0);
        assert_eq!(r0.vm_overhead_owned_mib, page_mib);
        assert_eq!(r1.vm_overhead_owned_mib, 0.0);
        assert!(r1.kernel_owned_mib > 0.0);
        assert_eq!(snapshot.users_of(kernel).len(), 2);
        let owned_total: f64 = report
            .guests
            .iter()
            .map(GuestBreakdown::owned_total_mib)
            .sum();
        assert!((owned_total - report.total_owned_mib).abs() < 1e-9);
    }

    #[test]
    fn non_java_frames_fall_into_kernel_or_other() {
        let (mm, g1, g2, p1, p2) = scenario();
        let views = vec![
            GuestView::new("vm1", &g1, vec![p1]),
            GuestView::new("vm2", &g2, vec![p2]),
        ];
        let report = MemorySnapshot::collect(&mm, &views).breakdown();
        for g in &report.guests {
            assert!(
                g.kernel_owned_mib > 0.0,
                "kernel usage missing in {}",
                g.name
            );
        }
    }
}
