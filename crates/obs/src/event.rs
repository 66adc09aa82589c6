//! Typed trace events and their JSONL serialization.
//!
//! Events carry raw numeric identifiers (address-space indices, virtual
//! page numbers, frame indices) rather than the originating crates'
//! newtypes, so that `obs` sits below every layer that emits into it:
//! `paging`, `oskernel`, `jvm`, `hypervisor` and `ksm` all depend on
//! `obs`, never the other way round.

use std::fmt::Write as _;

/// One recorded event: a sequence number (total order within the run),
/// the simulated tick it happened at, and the typed payload.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct TraceEvent {
    /// Position in the run's total event order (monotonic, gap-free
    /// until the ring starts dropping).
    pub seq: u64,
    /// Simulated time of the event.
    pub tick: u64,
    /// What happened.
    pub kind: EventKind,
}

/// The typed payload of a [`TraceEvent`].
///
/// Identifier conventions: `space` is an address-space index
/// (`AsId::index()`), `vpn` a host virtual page number, `frame` a host
/// physical frame index, `pid` a guest process id, `gvpn` a
/// guest-virtual page number.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
#[non_exhaustive]
pub enum EventKind {
    /// A host region was mapped (`HostMm::map_region`).
    RegionMap {
        /// Address-space index.
        space: u32,
        /// First virtual page of the region.
        base: u64,
        /// Length in pages.
        pages: u64,
        /// Whether the region is madvise(MERGEABLE)-registered.
        mergeable: bool,
    },
    /// A whole host region was unmapped.
    RegionUnmap {
        /// Address-space index.
        space: u32,
        /// First virtual page of the region.
        base: u64,
        /// Pages released.
        pages: u64,
    },
    /// A single host page was unmapped.
    PageUnmap {
        /// Address-space index.
        space: u32,
        /// Virtual page number.
        vpn: u64,
        /// The frame it referenced.
        frame: u64,
    },
    /// A write to a shared frame copied it (copy-on-write break).
    CowBreak {
        /// Address-space index of the writer.
        space: u32,
        /// Virtual page number written.
        vpn: u64,
        /// The shared frame before the break.
        old_frame: u64,
        /// The private copy after the break.
        new_frame: u64,
        /// Whether the old frame was KSM-stable (an unmerge) rather
        /// than plain CoW (e.g. unshared cache pages).
        was_ksm_shared: bool,
    },
    /// KSM merged a page into an existing stable frame.
    MergeStable {
        /// Address-space index of the merged mapping.
        space: u32,
        /// Virtual page number of the merged mapping.
        vpn: u64,
        /// The duplicate frame that was freed.
        dup_frame: u64,
        /// The canonical stable frame it now references.
        stable_frame: u64,
    },
    /// KSM matched two unstable-tree pages and created a new stable
    /// frame from them.
    MergeUnstable {
        /// Address-space index of the newly merged mapping.
        space: u32,
        /// Virtual page number of the newly merged mapping.
        vpn: u64,
        /// The duplicate frame that was freed.
        dup_frame: u64,
        /// The frame promoted into the stable tree.
        stable_frame: u64,
    },
    /// A candidate was skipped because its content is still volatile
    /// (written within the scanner's volatility window).
    VolatileSkip {
        /// Address-space index of the skipped mapping.
        space: u32,
        /// Virtual page number of the skipped mapping.
        vpn: u64,
        /// The frame whose checksum was unstable.
        frame: u64,
        /// The frame's last-write tick.
        last_write: u64,
    },
    /// A stable chain hit `max_page_sharing` and a duplicate was
    /// promoted to head a new chain instead of merging.
    ChainSplit {
        /// Address-space index of the promoting mapping.
        space: u32,
        /// Virtual page number of the promoting mapping.
        vpn: u64,
        /// The frame promoted to a fresh chain head.
        frame: u64,
    },
    /// A stable-tree node pointed at a dead or rewritten frame and was
    /// dropped.
    StaleNodeDrop {
        /// The dropped frame.
        frame: u64,
    },
    /// A full KSM scan pass completed.
    PassComplete {
        /// Pass number (1-based, == `full_scans` after the pass).
        pass: u64,
        /// Cumulative pages scanned at completion.
        pages_scanned: u64,
        /// Cumulative merges at completion.
        merges: u64,
    },
    /// A guest process mapped a region (guest-virtual view).
    GuestRegionMap {
        /// Guest process id.
        pid: u32,
        /// First guest-virtual page.
        gvpn: u64,
        /// Length in pages.
        pages: u64,
    },
    /// A guest process freed a region.
    GuestRegionFree {
        /// Guest process id.
        pid: u32,
        /// First guest-virtual page.
        gvpn: u64,
        /// Pages released.
        pages: u64,
    },
    /// A guest released one page back to the host (ballooning path).
    GuestPageRelease {
        /// Guest process id.
        pid: u32,
        /// Guest-virtual page number.
        gvpn: u64,
    },
    /// A JVM garbage collection zero-filled the dead span of a space.
    GcCollect {
        /// Guest process id of the JVM.
        pid: u32,
        /// First guest-virtual page zero-filled.
        gvpn: u64,
        /// Pages zero-filled.
        zeroed_pages: u64,
    },
    /// The JIT emitted compiled code pages this tick.
    JitEmit {
        /// Guest process id of the JVM.
        pid: u32,
        /// Code-cache pages written this tick.
        pages: u64,
    },
    /// The class loader materialized class metadata pages this tick.
    ClassLoad {
        /// Guest process id of the JVM.
        pid: u32,
        /// Pages written this tick.
        pages: u64,
        /// Whether they were read from the shared class cache (versus
        /// private malloc'd metadata).
        from_cache: bool,
    },
    /// The hypervisor created a guest memory slot.
    MemslotCreate {
        /// Host address-space index backing the slot.
        space: u32,
        /// Slot size in pages.
        pages: u64,
    },
    /// The balloon driver reclaimed zero pages from a guest.
    BalloonInflate {
        /// Host address-space index of the guest.
        space: u32,
        /// Pages reclaimed.
        pages: u64,
    },
    /// The balloon driver returned pages to a guest.
    BalloonDeflate {
        /// Host address-space index of the guest.
        space: u32,
        /// Pages returned.
        pages: u64,
    },
    /// The traffic engine delivered a batch of requests to a guest JVM.
    RequestServe {
        /// Guest process id of the JVM.
        pid: u32,
        /// Requests served in this batch.
        served: u64,
        /// Requests shed because the guest was over capacity.
        dropped: u64,
    },
    /// The traffic engine entered a new load phase (warm-up plateau,
    /// diurnal peak, flash-crowd spike, deploy wave, …), letting
    /// `explain` attribute merge misses to the phase they happened in.
    TrafficPhase {
        /// Ordinal of the phase within the scenario (0-based).
        phase: u32,
        /// Offered load for the phase in requests/sec across the fleet,
        /// rounded to the nearest integer.
        offered_rps: u64,
    },
    /// khugepaged collapsed an aligned 512-page run into one 2 MiB
    /// translation.
    HugeCollapse {
        /// Address-space index of the region.
        space: u32,
        /// First virtual page of the owning region.
        base: u64,
        /// Region-relative 2 MiB block index that went huge.
        block: u64,
    },
    /// A 2 MiB translation was demoted back to 512 base pages.
    HugeSplit {
        /// Address-space index of the region.
        space: u32,
        /// First virtual page of the owning region.
        base: u64,
        /// Region-relative 2 MiB block index that was split.
        block: u64,
        /// Why it split (`SplitReason::code()`: 0 madvise, 1 CoW,
        /// 2 KSM candidacy).
        reason: u64,
    },
}

impl EventKind {
    /// The event's type tag as it appears in the JSONL `"event"` field.
    #[must_use]
    pub fn name(&self) -> &'static str {
        match self {
            EventKind::RegionMap { .. } => "region_map",
            EventKind::RegionUnmap { .. } => "region_unmap",
            EventKind::PageUnmap { .. } => "page_unmap",
            EventKind::CowBreak { .. } => "cow_break",
            EventKind::MergeStable { .. } => "merge_stable",
            EventKind::MergeUnstable { .. } => "merge_unstable",
            EventKind::VolatileSkip { .. } => "volatile_skip",
            EventKind::ChainSplit { .. } => "chain_split",
            EventKind::StaleNodeDrop { .. } => "stale_node_drop",
            EventKind::PassComplete { .. } => "pass_complete",
            EventKind::GuestRegionMap { .. } => "guest_region_map",
            EventKind::GuestRegionFree { .. } => "guest_region_free",
            EventKind::GuestPageRelease { .. } => "guest_page_release",
            EventKind::GcCollect { .. } => "gc_collect",
            EventKind::JitEmit { .. } => "jit_emit",
            EventKind::ClassLoad { .. } => "class_load",
            EventKind::MemslotCreate { .. } => "memslot_create",
            EventKind::BalloonInflate { .. } => "balloon_inflate",
            EventKind::BalloonDeflate { .. } => "balloon_deflate",
            EventKind::RequestServe { .. } => "request_serve",
            EventKind::TrafficPhase { .. } => "traffic_phase",
            EventKind::HugeCollapse { .. } => "huge_collapse",
            EventKind::HugeSplit { .. } => "huge_split",
        }
    }

    /// The `(space, vpn)` host mapping this event concerns, if it is a
    /// per-page host event. Used to stitch page lifecycles together.
    /// Huge-page lifecycle events report the first page of their 2 MiB
    /// block, so a collapse/split chain stitches to one lifecycle.
    #[must_use]
    pub fn mapping(&self) -> Option<(u32, u64)> {
        match *self {
            EventKind::PageUnmap { space, vpn, .. }
            | EventKind::CowBreak { space, vpn, .. }
            | EventKind::MergeStable { space, vpn, .. }
            | EventKind::MergeUnstable { space, vpn, .. }
            | EventKind::VolatileSkip { space, vpn, .. }
            | EventKind::ChainSplit { space, vpn, .. } => Some((space, vpn)),
            EventKind::HugeCollapse { space, base, block }
            | EventKind::HugeSplit {
                space, base, block, ..
            } => Some((space, base + block * 512)),
            _ => None,
        }
    }
}

impl TraceEvent {
    /// Serializes the event as one JSON object (no trailing newline).
    /// Field order is fixed, so equal events serialize identically.
    #[must_use]
    pub fn to_json(&self) -> String {
        let mut s = String::with_capacity(96);
        let _ = write!(
            s,
            "{{\"seq\":{},\"tick\":{},\"event\":\"{}\"",
            self.seq,
            self.tick,
            self.kind.name()
        );
        let mut field = |name: &str, value: u64| {
            let _ = write!(s, ",\"{name}\":{value}");
        };
        match self.kind {
            EventKind::RegionMap {
                space,
                base,
                pages,
                mergeable,
            } => {
                field("space", u64::from(space));
                field("base", base);
                field("pages", pages);
                field("mergeable", u64::from(mergeable));
            }
            EventKind::RegionUnmap { space, base, pages } => {
                field("space", u64::from(space));
                field("base", base);
                field("pages", pages);
            }
            EventKind::PageUnmap { space, vpn, frame } => {
                field("space", u64::from(space));
                field("vpn", vpn);
                field("frame", frame);
            }
            EventKind::CowBreak {
                space,
                vpn,
                old_frame,
                new_frame,
                was_ksm_shared,
            } => {
                field("space", u64::from(space));
                field("vpn", vpn);
                field("old_frame", old_frame);
                field("new_frame", new_frame);
                field("was_ksm_shared", u64::from(was_ksm_shared));
            }
            EventKind::MergeStable {
                space,
                vpn,
                dup_frame,
                stable_frame,
            }
            | EventKind::MergeUnstable {
                space,
                vpn,
                dup_frame,
                stable_frame,
            } => {
                field("space", u64::from(space));
                field("vpn", vpn);
                field("dup_frame", dup_frame);
                field("stable_frame", stable_frame);
            }
            EventKind::VolatileSkip {
                space,
                vpn,
                frame,
                last_write,
            } => {
                field("space", u64::from(space));
                field("vpn", vpn);
                field("frame", frame);
                field("last_write", last_write);
            }
            EventKind::ChainSplit { space, vpn, frame } => {
                field("space", u64::from(space));
                field("vpn", vpn);
                field("frame", frame);
            }
            EventKind::StaleNodeDrop { frame } => field("frame", frame),
            EventKind::PassComplete {
                pass,
                pages_scanned,
                merges,
            } => {
                field("pass", pass);
                field("pages_scanned", pages_scanned);
                field("merges", merges);
            }
            EventKind::GuestRegionMap { pid, gvpn, pages }
            | EventKind::GuestRegionFree { pid, gvpn, pages } => {
                field("pid", u64::from(pid));
                field("gvpn", gvpn);
                field("pages", pages);
            }
            EventKind::GuestPageRelease { pid, gvpn } => {
                field("pid", u64::from(pid));
                field("gvpn", gvpn);
            }
            EventKind::GcCollect {
                pid,
                gvpn,
                zeroed_pages,
            } => {
                field("pid", u64::from(pid));
                field("gvpn", gvpn);
                field("zeroed_pages", zeroed_pages);
            }
            EventKind::JitEmit { pid, pages } => {
                field("pid", u64::from(pid));
                field("pages", pages);
            }
            EventKind::ClassLoad {
                pid,
                pages,
                from_cache,
            } => {
                field("pid", u64::from(pid));
                field("pages", pages);
                field("from_cache", u64::from(from_cache));
            }
            EventKind::MemslotCreate { space, pages }
            | EventKind::BalloonInflate { space, pages }
            | EventKind::BalloonDeflate { space, pages } => {
                field("space", u64::from(space));
                field("pages", pages);
            }
            EventKind::RequestServe {
                pid,
                served,
                dropped,
            } => {
                field("pid", u64::from(pid));
                field("served", served);
                field("dropped", dropped);
            }
            EventKind::TrafficPhase { phase, offered_rps } => {
                field("phase", u64::from(phase));
                field("offered_rps", offered_rps);
            }
            EventKind::HugeCollapse { space, base, block } => {
                field("space", u64::from(space));
                field("base", base);
                field("block", block);
            }
            EventKind::HugeSplit {
                space,
                base,
                block,
                reason,
            } => {
                field("space", u64::from(space));
                field("base", base);
                field("block", block);
                field("reason", reason);
            }
        }
        s.push('}');
        s
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn json_shape_is_fixed() {
        let ev = TraceEvent {
            seq: 3,
            tick: 17,
            kind: EventKind::CowBreak {
                space: 1,
                vpn: 0x40,
                old_frame: 9,
                new_frame: 12,
                was_ksm_shared: true,
            },
        };
        assert_eq!(
            ev.to_json(),
            "{\"seq\":3,\"tick\":17,\"event\":\"cow_break\",\"space\":1,\
             \"vpn\":64,\"old_frame\":9,\"new_frame\":12,\"was_ksm_shared\":1}"
        );
    }

    #[test]
    fn mapping_extraction_covers_page_events_only() {
        let merge = EventKind::MergeStable {
            space: 2,
            vpn: 5,
            dup_frame: 1,
            stable_frame: 0,
        };
        assert_eq!(merge.mapping(), Some((2, 5)));
        let pass = EventKind::PassComplete {
            pass: 1,
            pages_scanned: 10,
            merges: 0,
        };
        assert_eq!(pass.mapping(), None);
    }
}
