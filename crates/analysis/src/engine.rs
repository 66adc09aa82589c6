//! Frame-indexed, incremental attribution engine.
//!
//! [`MemorySnapshot::collect_naive`] re-derives the whole three-layer
//! walk from scratch through hash accumulators on every call. Timeline
//! sampling calls it once per sample over a world that barely changed
//! between samples, which made attribution the dominant phase of every
//! timeline run (`run --profile` shows the `attribution` phase). The
//! engine removes both costs:
//!
//! * **Frame-indexed storage** — per-frame users accumulate into dense
//!   vectors indexed by [`FrameId::index`](mem::FrameId::index) (a CSR
//!   table) instead of a `BTreeMap<FrameId, _>`, and guest-side claims
//!   into a dense gpfn-indexed vector instead of a
//!   `HashMap<(u32, Vpn), _>`.
//! * **Incrementality** — each host address space is walked on its own
//!   (its guest's page tables first, then its host PTEs) into a segment
//!   cached keyed on the space's region-generation signature
//!   ([`AddressSpace::generation_signature`]). A snapshot only re-walks
//!   spaces whose signature moved; when [`HostMm::epoch`] itself is
//!   unchanged even the signature scans are skipped. The segments are
//!   merged in space-creation order, which reproduces the exact global
//!   walk order of the naive reference. KSM stable flags are *never*
//!   cached — `mark_ksm_stable` bumps the epoch without touching any
//!   region generation, so flags are re-read from the frame pool at
//!   every assembly.
#![allow(rustdoc::private_intra_doc_links)]

use crate::snapshot::{FrameTable, GuestView, MemorySnapshot, PageUser, SegEntry};
use oskernel::{Pid, KERNEL_PID};
use paging::{AddressSpace, HostMm, MemTag};
use std::collections::HashSet;

/// Cached state for one host address space.
#[derive(Debug, Default)]
struct SpaceCache {
    /// Region-generation signature the segment was walked under. Empty
    /// for a never-walked space (an empty signature only matches a space
    /// with no regions, whose segment is trivially empty too).
    sig: Vec<(u64, u64)>,
    /// The walk segment: one `(frame index, user)` entry per host PTE,
    /// in region-address / vpn order.
    seg: Vec<SegEntry>,
}

/// Reusable attribution engine: holds per-space walk caches across
/// snapshots of the *same* evolving world.
///
/// One-shot use is equivalent to [`MemorySnapshot::collect`] (which is
/// implemented on top of it). Across calls the engine re-walks only the
/// address spaces whose region generations moved and reassembles the
/// frame table from the cached segments. The output is guaranteed
/// field-identical to [`MemorySnapshot::collect_naive`] on the same
/// world regardless of call history; the audit layer re-checks that
/// guarantee differentially.
#[derive(Debug, Default)]
pub struct SnapshotEngine {
    last_epoch: Option<u64>,
    /// `assignment[space index] = guest index` for VM spaces.
    assignment: Vec<Option<u32>>,
    caches: Vec<SpaceCache>,
    rewalked: usize,
    /// Cumulative cache accounting across the engine's lifetime
    /// (deterministic: derived from region generations and epochs only).
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

    /// How many address spaces the most recent [`snapshot`](Self::snapshot)
    /// actually re-walked (the rest were served from cache).
    #[must_use]
    pub fn rewalked_spaces(&self) -> usize {
        self.rewalked
    }

    /// Exports the engine's deterministic cache-hit/miss counters into
    /// `reg`: snapshots taken, spaces re-walked vs served from cache,
    /// and whole-snapshot epoch short-circuits. Walk *latency* is
    /// wall-clock and is recorded by the caller (the daemon / benches)
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

    /// Attributes every mapped host frame, reusing cached per-space
    /// segments where the world provably did not change.
    ///
    /// `guests` must describe the same world as `mm`; guest order defines
    /// the guest indices in the result. Passing a different guest list
    /// (or a different `mm`) than the previous call is detected via the
    /// space→guest assignment and resets the caches conservatively.
    pub fn snapshot(&mut self, mm: &HostMm, guests: &[GuestView<'_>]) -> MemorySnapshot {
        let spaces = mm.spaces();

        let mut assignment: Vec<Option<u32>> = vec![None; spaces.len()];
        for (g, view) in guests.iter().enumerate() {
            if let Some(slot) = assignment.get_mut(view.os().vm_space().index()) {
                *slot = Some(g as u32);
            }
        }
        if assignment != self.assignment || spaces.len() < self.caches.len() {
            self.caches.clear();
            self.last_epoch = None;
        }
        self.assignment = assignment;
        self.caches.resize_with(spaces.len(), SpaceCache::default);

        let epoch = mm.epoch();
        self.rewalked = 0;
        if self.last_epoch == Some(epoch) {
            self.epoch_short_circuits += 1;
        } else {
            for ((space, cache), &guest) in
                spaces.iter().zip(&mut self.caches).zip(&self.assignment)
            {
                if !sig_matches(space, &cache.sig) {
                    walk_space(
                        space,
                        guest.map(|g| (g, &guests[g as usize])),
                        &mut cache.seg,
                    );
                    cache.sig = space.generation_signature();
                    self.rewalked += 1;
                }
            }
        }
        self.snapshots_total += 1;
        self.rewalked_total += self.rewalked as u64;
        self.cached_total += (spaces.len() - self.rewalked) as u64;
        self.last_epoch = Some(epoch);

        let segs: Vec<&[SegEntry]> = self.caches.iter().map(|c| c.seg.as_slice()).collect();
        let frames = FrameTable::assemble(&segs, mm.phys());

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

/// Compares a space's current region generations against a cached
/// signature without allocating.
fn sig_matches(space: &AddressSpace, cached: &[(u64, u64)]) -> bool {
    let mut it = cached.iter();
    for region in space.regions() {
        match it.next() {
            Some(&(id, generation)) if id == region.id() && generation == region.generation() => {}
            _ => return false,
        }
    }
    it.next().is_none()
}

/// The per-space pass: the guest-side claims walk (layers 1+2, dense by
/// gpfn) followed by the host-PTE walk (layer 3) of this space only,
/// written over `seg` (the space's cache slot, whose allocation it
/// reuses). Reads nothing but the space and the guest's own page tables.
fn walk_space(space: &AddressSpace, guest: Option<(u32, &GuestView<'_>)>, seg: &mut Vec<SegEntry>) {
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

    seg.clear();
    seg.reserve(space.mapped_pages());
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
                    seg.push((frame.index() as u32, user));
                }
            }
            (tag, _) => {
                for (_, frame) in region.iter_mapped() {
                    seg.push((
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

    #[test]
    fn only_mutated_guests_are_rewalked() {
        let mut mm = HostMm::new();
        let mut guests = world(&mut mm, 3);
        {
            let v = views(&guests);
            let mut engine = SnapshotEngine::default();
            engine.snapshot(&mm, &v);
        }
        let mut engine = SnapshotEngine::default();
        {
            let v = views(&guests);
            engine.snapshot(&mm, &v);
        }
        // Touch one page in guest 1 only.
        let (_, os, pid) = &mut guests[1];
        let r = os.add_region(*pid, 1, MemTag::JavaHeap);
        os.write_page(&mut mm, *pid, r, Fingerprint::of(&[0xAA]), Tick(2));
        let v = views(&guests);
        let incremental = engine.snapshot(&mm, &v);
        assert_eq!(engine.rewalked_spaces(), 1);
        assert_eq!(incremental, MemorySnapshot::collect_naive(&mm, &v));
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
        // Merge the two identical pages: bumps the touched regions'
        // generations AND sets the canonical frame's stable flag, which
        // lives in the frame pool and must be re-read at assembly.
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
