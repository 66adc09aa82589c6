//! Walking the translation layers.

use mem::{FrameId, PhysMemory};
use oskernel::{GuestOs, Pid, KERNEL_PID};
use paging::{HostMm, MemTag, Vpn};
use std::collections::{BTreeMap, HashMap, HashSet};

/// What the analyst knows about one guest VM: its name, its guest OS
/// (holding the guest-side page tables), and which of its processes are
/// Java VMs.
#[derive(Debug)]
pub struct GuestView<'a> {
    name: &'a str,
    os: &'a GuestOs,
    java_pids: std::borrow::Cow<'a, [Pid]>,
}

impl<'a> GuestView<'a> {
    /// Creates a view. `java_pids` drives the owner-oriented accounting
    /// ("a Java process is always selected as the owner", §II.A).
    pub fn new(name: &'a str, os: &'a GuestOs, java_pids: Vec<Pid>) -> GuestView<'a> {
        GuestView {
            name,
            os,
            java_pids: std::borrow::Cow::Owned(java_pids),
        }
    }

    /// [`new`](Self::new) without allocating: borrows a pid slice the
    /// caller already maintains. Used on per-sample hot paths (the
    /// monitoring daemon snapshots the fleet on every publish).
    pub fn borrowed(name: &'a str, os: &'a GuestOs, java_pids: &'a [Pid]) -> GuestView<'a> {
        GuestView {
            name,
            os,
            java_pids: std::borrow::Cow::Borrowed(java_pids),
        }
    }

    /// Guest name.
    #[must_use]
    pub fn name(&self) -> &str {
        self.name
    }

    /// The guest OS.
    #[must_use]
    pub fn os(&self) -> &GuestOs {
        self.os
    }

    /// Java pids within this guest.
    #[must_use]
    pub fn java_pids(&self) -> &[Pid] {
        &self.java_pids
    }
}

/// One page-table entry's worth of usage: who references a frame.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct PageUser {
    /// Guest index within the snapshot, or `None` for host-side pages
    /// outside any guest.
    pub guest: Option<u32>,
    /// Guest process, or `None` for VM-process overhead pages.
    pub pid: Option<Pid>,
    /// Region tag at the referencing PTE.
    pub tag: MemTag,
}

impl PageUser {
    /// `true` if this user is a Java process mapping (used for ownership
    /// priority).
    #[must_use]
    pub fn is_java(&self, java: &HashSet<(u32, Pid)>) -> bool {
        match (self.guest, self.pid) {
            (Some(g), Some(p)) => java.contains(&(g, p)),
            _ => false,
        }
    }
}

/// One attributed PTE before assembly: the raw frame index it references
/// and the user behind it, in walk order. The per-space segments the
/// [`SnapshotEngine`](crate::SnapshotEngine) caches are vectors of these.
pub(crate) type SegEntry = (u32, PageUser);

/// Frame-indexed attribution storage: a compressed-sparse-row table
/// mapping every attributed frame to its users.
///
/// `users_of(frame)` is the slice `users[offsets[i] .. offsets[i + 1]]`
/// for `i = frame.index()`; a frame with an empty slice is not
/// attributed (free, or beyond the table). Iteration runs in frame-index
/// order, which equals `FrameId`'s `Ord` order — so rollups accumulate
/// in exactly the order the naive `BTreeMap` walk used, keeping float
/// sums bit-identical.
#[derive(Debug, Clone, PartialEq, Default)]
pub(crate) struct FrameTable {
    /// CSR row offsets; `len = slots + 1` where `slots` is one past the
    /// highest attributed frame index.
    offsets: Vec<u32>,
    /// All users, grouped by frame, in global walk order within a frame.
    users: Vec<PageUser>,
    /// Per-slot KSM stable-tree flag (meaningful only for attributed
    /// slots).
    ksm: Vec<bool>,
    /// Number of attributed (non-empty) slots.
    live: usize,
}

impl FrameTable {
    fn slots(&self) -> usize {
        self.offsets.len().saturating_sub(1)
    }

    fn row(&self, index: usize) -> &[PageUser] {
        if index + 1 < self.offsets.len() {
            &self.users[self.offsets[index] as usize..self.offsets[index + 1] as usize]
        } else {
            &[]
        }
    }

    /// Iterates attributed frames in index order as
    /// `(frame, users, ksm_shared)`.
    pub(crate) fn iter(&self) -> impl Iterator<Item = (FrameId, &[PageUser], bool)> {
        (0..self.slots()).filter_map(move |i| {
            let users = self.row(i);
            (!users.is_empty()).then(|| (FrameId::from_index(i), users, self.ksm[i]))
        })
    }

    /// Builds the table from per-space walk segments, in segment order.
    ///
    /// Reconstruction is routed through [`PhysMemory::is_live`]: an
    /// entry whose frame has been freed since the segment was recorded
    /// (possible only through out-of-band frame-pool mutation, which
    /// bumps no region generation) is dropped instead of reviving a
    /// stale id, and the KSM flag is read fresh only for live frames —
    /// [`PhysMemory::is_ksm_shared`] panics on freed ones. Both are read
    /// once per referenced frame, in index order: the entries are
    /// counted per raw index first, and one pass over the counted rows
    /// zeroes the dead ones before the users are scattered.
    pub(crate) fn assemble(segments: &[&[SegEntry]], phys: &PhysMemory) -> FrameTable {
        let rows = segments
            .iter()
            .flat_map(|seg| seg.iter())
            .map(|&(raw, _)| raw as usize + 1)
            .max()
            .unwrap_or(0);
        let mut offsets = vec![0u32; rows + 1];
        for seg in segments {
            for &(raw, _) in *seg {
                offsets[raw as usize + 1] += 1;
            }
        }
        let mut ksm = vec![false; rows];
        let mut slots = 0usize;
        let mut live = 0usize;
        for i in 0..rows {
            if offsets[i + 1] == 0 {
                continue;
            }
            let frame = FrameId::from_index(i);
            if phys.is_live(frame) {
                ksm[i] = phys.is_ksm_shared(frame);
                live += 1;
                slots = i + 1;
            } else {
                offsets[i + 1] = 0;
            }
        }
        offsets.truncate(slots + 1);
        ksm.truncate(slots);
        for i in 1..offsets.len() {
            offsets[i] += offsets[i - 1];
        }
        let total = offsets.last().copied().unwrap_or(0) as usize;
        let filler = PageUser {
            guest: None,
            pid: None,
            tag: MemTag::Other,
        };
        let mut users = vec![filler; total];
        let mut cursor = offsets.clone();
        for seg in segments {
            for &(raw, user) in *seg {
                let i = raw as usize;
                // A row with no users is a dead frame (or past the last
                // live one).
                if i < slots && offsets[i] != offsets[i + 1] {
                    users[cursor[i] as usize] = user;
                    cursor[i] += 1;
                }
            }
        }
        FrameTable {
            offsets,
            users,
            ksm,
            live,
        }
    }

    /// Converts the naive walk's `BTreeMap` accumulator into the dense
    /// layout (the map iterates in `FrameId` order already).
    fn from_records(records: &BTreeMap<FrameId, FrameRecord>) -> FrameTable {
        let slots = records
            .keys()
            .next_back()
            .map_or(0, |last| last.index() + 1);
        let mut offsets = vec![0u32; slots + 1];
        let mut ksm = vec![false; slots];
        let mut users = Vec::with_capacity(records.values().map(|r| r.users.len()).sum());
        for (frame, record) in records {
            users.extend_from_slice(&record.users);
            offsets[frame.index() + 1] = record.users.len() as u32;
            ksm[frame.index()] = record.ksm_shared;
        }
        for i in 1..offsets.len() {
            offsets[i] += offsets[i - 1];
        }
        FrameTable {
            offsets,
            users,
            ksm,
            live: records.len(),
        }
    }
}

/// One 2 MiB huge mapping, attributed as a single segment: the frames
/// under it belong to one owner by construction (collapse requires
/// refcount-1, unshared subframes), so the huge view never splits a
/// block across users the way the per-PTE walk can for 4 KiB pages.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct HugeSegment {
    /// Host address space holding the mapping.
    pub space: paging::AsId,
    /// First virtual page of the 2 MiB-aligned block.
    pub base: Vpn,
    /// Pages spanned — always [`mem::HUGE_PAGE_SPAN`].
    pub pages: usize,
}

/// Every live huge mapping in the host, one segment per 2 MiB block, in
/// deterministic walk order (space order, region base order, block
/// order). Empty under `ThpPolicy::Never`.
#[must_use]
pub fn huge_segments(mm: &HostMm) -> Vec<HugeSegment> {
    let mut out = Vec::new();
    for space in mm.spaces() {
        for region in space.regions() {
            for block in region.huge_block_indices() {
                out.push(HugeSegment {
                    space: space.id(),
                    base: region.base().offset((block * mem::HUGE_PAGE_SPAN) as u64),
                    pages: mem::HUGE_PAGE_SPAN,
                });
            }
        }
    }
    out
}

/// A full attribution of host physical memory at one instant.
///
/// Equality is field-identical: two snapshots compare equal only if they
/// attribute the same frames to the same users in the same per-frame
/// order with the same KSM flags — the contract the incremental
/// [`SnapshotEngine`](crate::SnapshotEngine) upholds against
/// [`collect_naive`](Self::collect_naive).
#[derive(Debug, Clone, PartialEq)]
pub struct MemorySnapshot {
    pub(crate) frames: FrameTable,
    pub(crate) guest_names: Vec<String>,
    pub(crate) java_set: HashSet<(u32, Pid)>,
}

#[derive(Debug)]
struct FrameRecord {
    users: Vec<PageUser>,
    ksm_shared: bool,
}

impl MemorySnapshot {
    /// Walks every translation layer and attributes every mapped host
    /// frame.
    ///
    /// The walk is layered exactly as in §II.B: guest process page tables
    /// give guest vpn → gpfn with the region's semantic tag; the memslot
    /// gives gpfn → host vpn; the VM process's host page table gives
    /// host vpn → frame. Memslot pages backed by a host frame but not
    /// referenced by any guest page table (memory the guest freed) are
    /// attributed to the guest kernel, and the VM process's non-memslot
    /// regions are attributed as VM overhead.
    ///
    /// This runs the frame-indexed engine once. For repeated snapshots
    /// of an evolving world (timeline sampling), hold a
    /// [`SnapshotEngine`](crate::SnapshotEngine) instead.
    #[must_use]
    pub fn collect(mm: &HostMm, guests: &[GuestView<'_>]) -> MemorySnapshot {
        crate::SnapshotEngine::default().snapshot(mm, guests)
    }

    /// The original hash-accumulator reference walk, retained verbatim as
    /// the differential oracle for the engine: same layering as
    /// [`collect`](Self::collect), but accumulating through a
    /// `BTreeMap<FrameId, _>` and a per-page claims `HashMap` instead of
    /// dense frame-indexed vectors. Allocation-heavy;
    /// the audit compares its output field-for-field against the engine.
    #[must_use]
    pub fn collect_naive(mm: &HostMm, guests: &[GuestView<'_>]) -> MemorySnapshot {
        let mut frames: BTreeMap<FrameId, FrameRecord> = BTreeMap::new();
        let mut java_set = HashSet::new();
        let mut record = |frame: FrameId, user: PageUser, ksm: bool| {
            frames
                .entry(frame)
                .or_insert_with(|| FrameRecord {
                    users: Vec::new(),
                    ksm_shared: ksm,
                })
                .users
                .push(user);
        };

        // Map each VM-process host address space to its guest index.
        let mut space_to_guest = HashMap::new();
        for (g, view) in guests.iter().enumerate() {
            space_to_guest.insert(view.os.vm_space(), g as u32);
            for &pid in view.java_pids() {
                java_set.insert((g as u32, pid));
            }
        }

        // Layer 1+2: guest page tables through the memslot.
        // claimed[(guest, host_vpn)] = (pid, tag)
        let mut claimed: HashMap<(u32, Vpn), (Pid, MemTag)> = HashMap::new();
        for (g, view) in guests.iter().enumerate() {
            for (pid, gas) in view.os.contexts() {
                for region in gas.regions() {
                    for (_, gpfn) in region.iter_mapped() {
                        claimed.insert((g as u32, view.os.host_vpn(gpfn)), (pid, region.tag()));
                    }
                }
            }
        }

        // Layer 3: host page tables.
        for space in mm.spaces() {
            let guest = space_to_guest.get(&space.id()).copied();
            for region in space.regions() {
                for (vpn, frame) in region.iter_mapped() {
                    let ksm = mm.phys().is_ksm_shared(frame);
                    let user = match (region.tag(), guest) {
                        (MemTag::VmGuestMemory, Some(g)) => match claimed.get(&(g, vpn)) {
                            Some(&(pid, tag)) => PageUser {
                                guest: Some(g),
                                pid: Some(pid),
                                tag,
                            },
                            // Host-resident but guest-free: buffers the
                            // guest kernel once used and released.
                            None => PageUser {
                                guest: Some(g),
                                pid: Some(KERNEL_PID),
                                tag: MemTag::GuestKernelData,
                            },
                        },
                        (tag, g) => PageUser {
                            guest: g,
                            pid: None,
                            tag,
                        },
                    };
                    record(frame, user, ksm);
                }
            }
        }

        MemorySnapshot {
            frames: FrameTable::from_records(&frames),
            guest_names: guests.iter().map(|g| g.name.to_string()).collect(),
            java_set,
        }
    }

    pub(crate) fn from_parts(
        frames: FrameTable,
        guest_names: Vec<String>,
        java_set: HashSet<(u32, Pid)>,
    ) -> MemorySnapshot {
        MemorySnapshot {
            frames,
            guest_names,
            java_set,
        }
    }

    /// Number of distinct host frames attributed.
    #[must_use]
    pub fn frame_count(&self) -> usize {
        self.frames.live
    }

    /// Total PTEs (virtual resident pages) attributed.
    #[must_use]
    pub fn pte_count(&self) -> usize {
        self.frames.users.len()
    }

    /// Frames referenced by more than one PTE (CoW/KSM shared).
    #[must_use]
    pub fn shared_frame_count(&self) -> usize {
        self.frames
            .iter()
            .filter(|(_, users, _)| users.len() > 1)
            .count()
    }

    /// The users attributed to `frame`, in walk order — empty if the
    /// frame was not attributed.
    #[must_use]
    pub fn users_of(&self, frame: FrameId) -> &[PageUser] {
        self.frames.row(frame.index())
    }

    /// `true` if `frame` was attributed as a KSM stable-tree frame.
    #[must_use]
    pub fn ksm_shared(&self, frame: FrameId) -> bool {
        frame.index() < self.frames.slots() && self.frames.ksm[frame.index()]
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use mem::{Fingerprint, Tick};
    use oskernel::OsImage;

    fn boot(mm: &mut HostMm, name: &str, salt: u64) -> GuestOs {
        let space = mm.create_space(name);
        GuestOs::boot(
            mm,
            space,
            mem::mib_to_pages(32.0),
            &OsImage::tiny_test(),
            salt,
            Tick(0),
        )
    }

    #[test]
    fn every_allocated_frame_is_attributed() {
        let mut mm = HostMm::new();
        let g1 = boot(&mut mm, "vm1", 1);
        let g2 = boot(&mut mm, "vm2", 2);
        let views = vec![
            GuestView::new("vm1", &g1, vec![]),
            GuestView::new("vm2", &g2, vec![]),
        ];
        let snap = MemorySnapshot::collect(&mm, &views);
        assert_eq!(snap.frame_count(), mm.phys().allocated_frames());
        assert_eq!(snap.pte_count(), snap.frame_count()); // nothing merged yet
    }

    #[test]
    fn merged_frames_have_multiple_users() {
        let mut mm = HostMm::new();
        let mut g1 = boot(&mut mm, "vm1", 1);
        let mut g2 = boot(&mut mm, "vm2", 2);
        let p1 = g1.spawn("java");
        let p2 = g2.spawn("java");
        let r1 = g1.add_region(p1, 1, MemTag::JavaHeap);
        let r2 = g2.add_region(p2, 1, MemTag::JavaHeap);
        g1.write_page(&mut mm, p1, r1, Fingerprint::of(&[9]), Tick(1));
        g2.write_page(&mut mm, p2, r2, Fingerprint::of(&[9]), Tick(1));
        let f1 = mm
            .frame_at(g1.vm_space(), g1.host_vpn(g1.translate(p1, r1).unwrap()))
            .unwrap();
        let f2 = mm
            .frame_at(g2.vm_space(), g2.host_vpn(g2.translate(p2, r2).unwrap()))
            .unwrap();
        mm.merge_frames(f2, f1);
        let views = vec![
            GuestView::new("vm1", &g1, vec![p1]),
            GuestView::new("vm2", &g2, vec![p2]),
        ];
        let snap = MemorySnapshot::collect(&mm, &views);
        assert_eq!(snap.shared_frame_count(), 1);
        assert_eq!(snap.pte_count(), snap.frame_count() + 1);
        assert_eq!(snap.users_of(f1).len(), 2);
        assert!(snap.ksm_shared(f1));
    }

    #[test]
    fn freed_guest_pages_attributed_to_kernel() {
        let mut mm = HostMm::new();
        let mut g1 = boot(&mut mm, "vm1", 1);
        let pid = g1.spawn("p");
        let r = g1.add_region(pid, 4, MemTag::OtherProcess);
        for i in 0..4 {
            g1.write_page(&mut mm, pid, r.offset(i), Fingerprint::of(&[i]), Tick(1));
        }
        // Free the guest region WITHOUT unmapping host pages: simulate by
        // removing the guest mapping only (kill path unmaps, so emulate a
        // guest that just dropped its page tables).
        // Here we simply check that kernel attribution covers all memslot
        // pages claimed by no process — the kernel's own pages qualify
        // after we drop its context from the walk.
        let views = vec![GuestView::new("vm1", &g1, vec![])];
        let snap = MemorySnapshot::collect(&mm, &views);
        // All frames attributed; process pages are tagged OtherProcess.
        let other = snap
            .frames
            .iter()
            .flat_map(|(_, users, _)| users.iter())
            .filter(|u| u.tag == MemTag::OtherProcess)
            .count();
        assert_eq!(other, 4);
    }

    #[test]
    fn huge_blocks_attribute_as_single_segments() {
        use mem::HUGE_PAGE_SPAN;
        let mut mm = HostMm::new();
        let s = mm.create_space("direct");
        let r = mm.map_region(s, 2 * HUGE_PAGE_SPAN, MemTag::VmGuestMemory, true);
        for i in 0..(2 * HUGE_PAGE_SPAN) as u64 {
            mm.write_page(s, r.offset(i), Fingerprint::of(&[900 + i]), Tick(1));
        }
        assert!(huge_segments(&mm).is_empty());
        assert!(mm.try_collapse(s, r, 1));
        let segments = huge_segments(&mm);
        assert_eq!(
            segments,
            vec![HugeSegment {
                space: s,
                base: r.offset(HUGE_PAGE_SPAN as u64),
                pages: HUGE_PAGE_SPAN,
            }]
        );
        // The per-frame attribution is unchanged: hugeness is a mapping
        // property, not an ownership change.
        let snap = MemorySnapshot::collect(&mm, &[]);
        assert_eq!(snap.frame_count(), mm.phys().allocated_frames());
        assert_eq!(snap.pte_count(), snap.frame_count());
    }

    #[test]
    fn naive_reference_matches_engine_one_shot() {
        let mut mm = HostMm::new();
        let mut g1 = boot(&mut mm, "vm1", 1);
        let g2 = boot(&mut mm, "vm2", 2);
        let p1 = g1.spawn("java");
        let r1 = g1.add_region(p1, 4, MemTag::JavaHeap);
        for i in 0..4 {
            g1.write_page(&mut mm, p1, r1.offset(i), Fingerprint::of(&[i]), Tick(1));
        }
        let views = vec![
            GuestView::new("vm1", &g1, vec![p1]),
            GuestView::new("vm2", &g2, vec![]),
        ];
        assert_eq!(
            MemorySnapshot::collect(&mm, &views),
            MemorySnapshot::collect_naive(&mm, &views)
        );
    }
}
