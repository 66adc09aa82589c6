//! Frame-indexed attribution engine.
//!
//! [`MemorySnapshot::collect_naive`] re-derives the whole three-layer
//! walk through hash accumulators on every call. The engine walks the
//! same layers into dense storage instead:
//!
//! * **Frame-indexed storage** — per-frame users accumulate into dense
//!   vectors indexed by [`FrameId::index`](mem::FrameId::index) (a CSR
//!   table) instead of a `BTreeMap<FrameId, _>`, and guest-side claims
//!   into a dense gpfn-indexed vector instead of a
//!   `HashMap<(u32, Vpn), _>`.
//! * **One walk, reused only when nothing moved** — every host address
//!   space is walked in creation order (its guest's page tables first,
//!   then its host PTEs) into one buffer, which reproduces the exact
//!   global walk order of the naive reference. The buffer is keyed on
//!   [`HostMm::epoch`] and the space → guest assignment: a snapshot with
//!   the same key reassembles from it, any other walks again. KSM
//!   stable flags and frame liveness are *never* kept — they are
//!   re-read from the frame pool at every assembly.
#![allow(rustdoc::private_intra_doc_links)]

use crate::snapshot::{FrameTable, GuestView, MemorySnapshot, PageUser, SegEntry};
use oskernel::{Pid, KERNEL_PID};
use paging::{AddressSpace, HostMm, MemTag};
use std::collections::HashSet;

/// Reusable attribution engine: holds the last walk of an evolving
/// world and the key it was taken under. Hold one engine per world: the
/// key does not tell two `HostMm`s at the same epoch apart.
///
/// One-shot use is equivalent to [`MemorySnapshot::collect`] (which is
/// implemented on top of it). A snapshot whose [`HostMm::epoch`] and
/// space → guest assignment equal the previous walk's reassembles the
/// frame table from that walk; any other snapshot walks every space
/// again. The output is guaranteed field-identical to
/// [`MemorySnapshot::collect_naive`] on the same world regardless of
/// call history; the audit layer re-checks that guarantee
/// differentially.
#[derive(Debug, Default)]
pub struct SnapshotEngine {
    /// `(epoch, assignment)` of the walk in `walk`, where
    /// `assignment[space index] = guest index` for VM spaces. `None`
    /// before the first walk.
    key: Option<(u64, Vec<Option<u32>>)>,
    /// The walk: one `(frame index, user)` entry per host PTE, space
    /// by space in creation order, each in region-address / vpn order.
    walk: Vec<SegEntry>,
    rewalked: usize,
    /// Cumulative accounting across the engine's lifetime
    /// (deterministic: derived from epochs and space counts only).
    snapshots_total: u64,
    rewalked_total: u64,
    cached_total: u64,
    epoch_short_circuits: u64,
}

impl SnapshotEngine {
    /// The same as [`SnapshotEngine::default`]: the walk is serial, so
    /// the worker count is ignored. Kept only because the `perfbench`
    /// package calls it; it goes at the next change to the benchmark.
    #[must_use]
    pub fn new(_threads: usize) -> SnapshotEngine {
        SnapshotEngine::default()
    }

    /// How many address spaces the most recent
    /// [`snapshot`](Self::snapshot) walked: all of them, or none when it
    /// reassembled the previous walk.
    #[must_use]
    pub fn rewalked_spaces(&self) -> usize {
        self.rewalked
    }

    /// Exports the engine's deterministic counters into `reg`:
    /// snapshots taken, spaces walked vs served from the previous walk,
    /// and snapshots that reassembled the previous walk. Walk *latency*
    /// is wall-clock and is recorded by the caller (the daemon / benches)
    /// into a separated [`obs::MetricClass::Wall`] histogram.
    pub fn record_metrics(&self, reg: &mut obs::MetricsRegistry) {
        reg.counter(
            "engine_snapshots_total",
            "Snapshots taken by the attribution engine.",
            &[],
            self.snapshots_total,
        );
        reg.counter(
            "engine_spaces_rewalked_total",
            "Address spaces re-walked because their generation signature moved (cache misses).",
            &[],
            self.rewalked_total,
        );
        reg.counter(
            "engine_spaces_cached_total",
            "Address spaces served from cached walk segments (cache hits).",
            &[],
            self.cached_total,
        );
        reg.counter("engine_epoch_short_circuits_total", "Snapshots that skipped even the signature scans because the HostMm epoch was unchanged.", &[], self.epoch_short_circuits);
        reg.gauge(
            "engine_last_rewalked_spaces",
            "Spaces re-walked by the most recent snapshot.",
            &[],
            self.rewalked as f64,
        );
    }

    /// Attributes every mapped host frame, reusing the previous walk
    /// when the world provably did not change.
    ///
    /// `guests` must describe the same world as `mm`; guest order defines
    /// the guest indices in the result. A guest list that assigns the
    /// spaces to other guest indices than the previous call's (a
    /// reordered or different list) changes the key, so the world is
    /// walked again.
    pub fn snapshot(&mut self, mm: &HostMm, guests: &[GuestView<'_>]) -> MemorySnapshot {
        let spaces = mm.spaces();
        let mut assignment: Vec<Option<u32>> = vec![None; spaces.len()];
        for (g, view) in guests.iter().enumerate() {
            if let Some(slot) = assignment.get_mut(view.os().vm_space().index()) {
                *slot = Some(g as u32);
            }
        }
        let key = (mm.epoch(), assignment);
        if self.key.as_ref() == Some(&key) {
            self.rewalked = 0;
            self.epoch_short_circuits += 1;
        } else {
            self.walk.clear();
            for (space, &guest) in spaces.iter().zip(&key.1) {
                walk_space(
                    space,
                    guest.map(|g| (g, &guests[g as usize])),
                    &mut self.walk,
                );
            }
            self.rewalked = spaces.len();
            self.key = Some(key);
        }
        self.snapshots_total += 1;
        self.rewalked_total += self.rewalked as u64;
        self.cached_total += (spaces.len() - self.rewalked) as u64;

        let frames = FrameTable::assemble(&self.walk, mm.phys());

        let mut java_set = HashSet::new();
        for (g, view) in guests.iter().enumerate() {
            for &pid in view.java_pids() {
                java_set.insert((g as u32, pid));
            }
        }
        MemorySnapshot::from_parts(
            frames,
            guests.iter().map(|g| g.name().to_string()).collect(),
            java_set,
        )
    }
}

/// The per-space pass: the guest-side claims walk (layers 1+2, dense by
/// gpfn) followed by the host-PTE walk (layer 3) of this space only,
/// appended to `walk`. Reads nothing but the space and the guest's own
/// page tables.
fn walk_space(
    space: &AddressSpace,
    guest: Option<(u32, &GuestView<'_>)>,
    walk: &mut Vec<SegEntry>,
) {
    let claims = guest.map(|(_, view)| {
        let os = view.os();
        let mut claims: Vec<Option<(Pid, MemTag)>> = vec![None; os.guest_pages()];
        for (pid, gas) in os.contexts() {
            for region in gas.regions() {
                for (_, gpfn) in region.iter_mapped() {
                    if let Some(slot) = claims.get_mut(gpfn as usize) {
                        *slot = Some((pid, region.tag()));
                    }
                }
            }
        }
        (os.host_vpn(0), claims)
    });
    let guest_idx = guest.map(|(g, _)| g);

    walk.reserve(space.mapped_pages());
    for region in space.regions() {
        match (region.tag(), &claims) {
            (MemTag::VmGuestMemory, Some((memslot_base, claims))) => {
                for (vpn, frame) in region.iter_mapped() {
                    let claim = vpn
                        .0
                        .checked_sub(memslot_base.0)
                        .and_then(|gpfn| claims.get(gpfn as usize))
                        .copied()
                        .flatten();
                    let user = match claim {
                        Some((pid, tag)) => PageUser {
                            guest: guest_idx,
                            pid: Some(pid),
                            tag,
                        },
                        // Host-resident but guest-free: buffers the guest
                        // kernel once used and released.
                        None => PageUser {
                            guest: guest_idx,
                            pid: Some(KERNEL_PID),
                            tag: MemTag::GuestKernelData,
                        },
                    };
                    walk.push((frame.index() as u32, user));
                }
            }
            (tag, _) => {
                for (_, frame) in region.iter_mapped() {
                    walk.push((
                        frame.index() as u32,
                        PageUser {
                            guest: guest_idx,
                            pid: None,
                            tag,
                        },
                    ));
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use mem::{mib_to_pages, Fingerprint, Tick};
    use oskernel::{GuestOs, OsImage};

    fn boot(mm: &mut HostMm, name: &str, salt: u64) -> GuestOs {
        let space = mm.create_space(name);
        GuestOs::boot(
            mm,
            space,
            mib_to_pages(32.0),
            &OsImage::tiny_test(),
            salt,
            Tick(0),
        )
    }

    fn world(mm: &mut HostMm, n: usize) -> Vec<(String, GuestOs, Pid)> {
        (0..n)
            .map(|i| {
                let name = format!("vm{i}");
                let mut os = boot(mm, &name, i as u64 + 1);
                let pid = os.spawn("java");
                let r = os.add_region(pid, 8, MemTag::JavaHeap);
                for p in 0..8 {
                    os.write_page(
                        mm,
                        pid,
                        r.offset(p),
                        Fingerprint::of(&[i as u64, p]),
                        Tick(1),
                    );
                }
                (name, os, pid)
            })
            .collect()
    }

    fn views(guests: &[(String, GuestOs, Pid)]) -> Vec<GuestView<'_>> {
        guests
            .iter()
            .map(|(name, os, pid)| GuestView::new(name, os, vec![*pid]))
            .collect()
    }

    #[test]
    fn engine_matches_naive() {
        let mut mm = HostMm::new();
        let guests = world(&mut mm, 3);
        let views = views(&guests);
        let snap = SnapshotEngine::default().snapshot(&mm, &views);
        assert_eq!(snap, MemorySnapshot::collect_naive(&mm, &views));
    }

    #[test]
    fn clean_world_is_served_entirely_from_cache() {
        let mut mm = HostMm::new();
        let guests = world(&mut mm, 2);
        let views = views(&guests);
        let mut engine = SnapshotEngine::default();
        let first = engine.snapshot(&mm, &views);
        assert_eq!(engine.rewalked_spaces(), mm.spaces().len());
        let second = engine.snapshot(&mm, &views);
        assert_eq!(engine.rewalked_spaces(), 0);
        assert_eq!(first, second);
    }

    /// The previous walk is reused only under the same epoch *and* the
    /// same space → guest assignment: reordering the guests at an
    /// unchanged epoch renumbers every guest user, so it walks again.
    #[test]
    fn a_reordered_guest_list_walks_again() {
        let mut mm = HostMm::new();
        let guests = world(&mut mm, 3);
        let mut engine = SnapshotEngine::default();
        engine.snapshot(&mm, &views(&guests));
        let mut reversed = views(&guests);
        reversed.reverse();
        let epoch = mm.epoch();
        let snap = engine.snapshot(&mm, &reversed);
        assert_eq!(mm.epoch(), epoch);
        assert_eq!(engine.rewalked_spaces(), mm.spaces().len());
        assert_eq!(snap, MemorySnapshot::collect_naive(&mm, &reversed));
    }

    #[test]
    fn ksm_flags_are_never_stale() {
        let mut mm = HostMm::new();
        let mut g0 = boot(&mut mm, "vm0", 1);
        let mut g1 = boot(&mut mm, "vm1", 2);
        let p0 = g0.spawn("java");
        let p1 = g1.spawn("java");
        let r0 = g0.add_region(p0, 1, MemTag::JavaHeap);
        let r1 = g1.add_region(p1, 1, MemTag::JavaHeap);
        g0.write_page(&mut mm, p0, r0, Fingerprint::of(&[7]), Tick(1));
        g1.write_page(&mut mm, p1, r1, Fingerprint::of(&[7]), Tick(1));
        let mut engine = SnapshotEngine::default();
        {
            let v = vec![
                GuestView::new("vm0", &g0, vec![p0]),
                GuestView::new("vm1", &g1, vec![p1]),
            ];
            engine.snapshot(&mm, &v);
        }
        // Merge the two identical pages: repoints a PTE, moves the
        // epoch AND sets the canonical frame's stable flag, which lives
        // in the frame pool and must be re-read at assembly.
        let f0 = mm
            .frame_at(g0.vm_space(), g0.host_vpn(g0.translate(p0, r0).unwrap()))
            .unwrap();
        let f1 = mm
            .frame_at(g1.vm_space(), g1.host_vpn(g1.translate(p1, r1).unwrap()))
            .unwrap();
        mm.merge_frames(f1, f0);
        let v = vec![
            GuestView::new("vm0", &g0, vec![p0]),
            GuestView::new("vm1", &g1, vec![p1]),
        ];
        let snap = engine.snapshot(&mm, &v);
        assert_eq!(snap, MemorySnapshot::collect_naive(&mm, &v));
        assert!(snap.ksm_shared(f0));
    }
}
