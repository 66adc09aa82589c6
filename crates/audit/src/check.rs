//! The cross-layer conservation audit.
//!
//! [`check_world`] re-verifies, from first principles and independently
//! of the code paths that maintain them, the invariants the paper's
//! accounting methodology (§II) rests on:
//!
//! * **Host layer** — every PTE references a live frame, every live
//!   frame's refcount equals the number of PTEs referencing it, no live
//!   frame is unreferenced, and any frame with more than one reference
//!   is a KSM-shared frame (the only multi-mapping mechanism in the
//!   model; a violated copy-on-write would show up here).
//! * **Guest layer** — each guest's page tables map every gpfn at most
//!   once, only below the allocation watermark, never while the gpfn is
//!   on the kernel free list, and each mapped gpfn is backed by a host
//!   frame. Conversely, balloon-deflated / madvised gpfns and the
//!   never-allocated tail hold **no** host frames.
//! * **Attribution layer** — the `analysis` walk claims every allocated
//!   frame exactly once: its frame and PTE counts match the ground
//!   truth, and the owner-oriented breakdown partitions resident memory
//!   (guest totals sum to the global total, which equals the frame
//!   pool's size). The frame-indexed snapshot engine is also checked
//!   differentially: its output must be field-identical to the retained
//!   naive reference walk on the same world, and its rollup exactly
//!   equal to the retained map-based one.
//! * **KSM layer** — `pages_shared`/`pages_sharing` equal a from-scratch
//!   recount over the scanner's stable tree, i.e. for every valid
//!   stable node the frame refcount contributes `sharing + 1`.
//!
//! The KSM comparison assumes the scanner's counters are fresh: call
//! [`ksm::KsmScanner::recount`] before auditing (the experiment runner
//! does this at every audit point).

use analysis::{GuestView, MemorySnapshot};
use ksm::KsmScanner;
use mem::{pages_to_mib, Fingerprint, FrameId, HUGE_PAGE_SPAN};
use oskernel::Pid;
use paging::{AsId, HostMm, Vpn};
use std::collections::HashMap;

/// Everything the auditor needs to see: the host memory state, the
/// guest views (same shape the `analysis` walk consumes), and
/// optionally the KSM scanner whose counters should be validated.
#[derive(Debug)]
pub struct World<'a> {
    /// Host memory: address spaces, page tables, frame pool.
    pub mm: &'a HostMm,
    /// One view per guest VM, naming its OS and Java processes.
    pub guests: Vec<GuestView<'a>>,
    /// The incremental scanner to validate, if any.
    pub scanner: Option<&'a KsmScanner>,
}

/// The layer of the translation/accounting stack a violation was
/// detected in.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Layer {
    /// Host page tables vs. the frame pool.
    Host,
    /// Guest page tables vs. the memslot.
    Guest,
    /// The `analysis` attribution walk and breakdown.
    Attribution,
    /// KSM scanner counters vs. the stable tree.
    Ksm,
}

impl std::fmt::Display for Layer {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(match self {
            Layer::Host => "host",
            Layer::Guest => "guest",
            Layer::Attribution => "attribution",
            Layer::Ksm => "ksm",
        })
    }
}

/// A broken conservation invariant, naming the layer, the frame or page
/// involved, and the expected/actual values.
#[derive(Debug, Clone, PartialEq)]
pub enum Violation {
    /// A PTE references a frame that is not live.
    DanglingPte {
        /// Space holding the PTE.
        space: AsId,
        /// Page of the PTE.
        vpn: Vpn,
        /// The dead frame it references.
        frame: FrameId,
    },
    /// A live frame's refcount disagrees with the number of PTEs that
    /// reference it.
    RefcountMismatch {
        /// The frame.
        frame: FrameId,
        /// PTEs observed referencing it (the ground truth).
        expected: u32,
        /// The frame's recorded refcount.
        actual: u32,
    },
    /// A live frame is referenced by no PTE at all.
    LeakedFrame {
        /// The frame.
        frame: FrameId,
        /// Its recorded refcount.
        refcount: u32,
    },
    /// A frame is multi-mapped without being KSM-shared: some write
    /// skipped its copy-on-write break.
    AnonymousSharing {
        /// The frame.
        frame: FrameId,
        /// Its refcount (> 1).
        refcount: u32,
    },
    /// A live 2 MiB huge frame is torn: fewer than
    /// [`HUGE_PAGE_SPAN`] of its subframe slots are populated with live
    /// frames. Every huge block must be conservation-complete — a
    /// split must demote the block before any subframe is unmapped or
    /// freed.
    HugeFrameTorn {
        /// Space holding the huge block.
        space: AsId,
        /// Base of the region containing it.
        base: Vpn,
        /// Region-relative block index.
        block: usize,
        /// Live, populated subframe slots found (must be 512).
        populated: usize,
    },
    /// A page inside a live huge frame is merged (KSM-shared or
    /// multi-referenced): KSM must split a huge page before any of its
    /// subpages can share a frame.
    HugeMergedSubframe {
        /// Space holding the huge block.
        space: AsId,
        /// The offending subpage.
        vpn: Vpn,
        /// Its shared frame.
        frame: FrameId,
    },
    /// A guest PTE maps a gpfn at or above the allocation watermark.
    GpfnOutOfRange {
        /// Guest name.
        guest: String,
        /// Process whose page table holds the mapping.
        pid: Pid,
        /// Guest-virtual page.
        vpn: Vpn,
        /// The out-of-range gpfn.
        gpfn: u64,
        /// The allocation watermark it must be below.
        watermark: u64,
    },
    /// Two guest PTEs map the same gpfn.
    GpfnAliased {
        /// Guest name.
        guest: String,
        /// The doubly-mapped gpfn.
        gpfn: u64,
        /// First claimant.
        first: (Pid, Vpn),
        /// Second claimant.
        second: (Pid, Vpn),
    },
    /// A guest PTE maps a gpfn that is on the kernel free list.
    FreedGpfnMapped {
        /// Guest name.
        guest: String,
        /// The freed-but-mapped gpfn.
        gpfn: u64,
        /// The process mapping it.
        pid: Pid,
        /// The guest-virtual page mapping it.
        vpn: Vpn,
    },
    /// A mapped guest page has no backing host frame in the memslot.
    GuestPageNotResident {
        /// Guest name.
        guest: String,
        /// Process owning the page.
        pid: Pid,
        /// Guest-virtual page.
        vpn: Vpn,
        /// Its gpfn, unbacked on the host side.
        gpfn: u64,
    },
    /// A balloon-deflated / never-allocated gpfn still holds a host
    /// frame.
    BalloonedPageResident {
        /// Guest name.
        guest: String,
        /// The gpfn that should be empty.
        gpfn: u64,
        /// The frame found backing it.
        frame: FrameId,
    },
    /// A host frame backing the memslot is claimed by no guest PTE.
    MemslotPageUnclaimed {
        /// Guest name.
        guest: String,
        /// The unclaimed gpfn.
        gpfn: u64,
        /// The orphaned frame.
        frame: FrameId,
    },
    /// The frame-indexed attribution engine diverged from the naive
    /// reference walk: [`MemorySnapshot::collect`] and
    /// [`MemorySnapshot::collect_naive`] produced snapshots that are not
    /// field-identical on the same world.
    SnapshotDivergence {
        /// The first frame whose attribution differs, if the frame sets
        /// agree but a frame's users or KSM flag differ (`None` when the
        /// attributed frame sets themselves differ).
        frame: Option<FrameId>,
    },
    /// The owner-oriented rollup diverged from the retained map-based
    /// reference: [`MemorySnapshot::breakdown`] and
    /// [`MemorySnapshot::breakdown_naive`] are not exactly equal on the
    /// same snapshot.
    BreakdownDivergence {
        /// The first part that differs (`"guests"`, `"javas"` or
        /// `"total owned"`).
        what: &'static str,
    },
    /// The attribution walk did not claim every allocated frame exactly
    /// once (frame or PTE counts disagree with the ground truth).
    AttributionIncomplete {
        /// What was being counted (`"frames"` or `"ptes"`).
        what: &'static str,
        /// Ground-truth count.
        expected: usize,
        /// The snapshot's count.
        actual: usize,
    },
    /// The owner-oriented breakdown does not partition physical memory.
    AccountingDrift {
        /// Which rollup drifted.
        what: &'static str,
        /// Ground-truth MiB.
        expected_mib: f64,
        /// Reported MiB.
        actual_mib: f64,
    },
    /// A scanner counter disagrees with a from-scratch recount over the
    /// stable tree.
    KsmStatsMismatch {
        /// The counter (`"pages_shared"` / `"pages_sharing"`).
        field: &'static str,
        /// Ground-truth value.
        expected: u64,
        /// The scanner's value.
        actual: u64,
    },
}

impl Violation {
    /// The layer the violation was detected in.
    #[must_use]
    pub fn layer(&self) -> Layer {
        match self {
            Violation::DanglingPte { .. }
            | Violation::RefcountMismatch { .. }
            | Violation::LeakedFrame { .. }
            | Violation::AnonymousSharing { .. }
            | Violation::HugeFrameTorn { .. }
            | Violation::HugeMergedSubframe { .. } => Layer::Host,
            Violation::GpfnOutOfRange { .. }
            | Violation::GpfnAliased { .. }
            | Violation::FreedGpfnMapped { .. }
            | Violation::GuestPageNotResident { .. }
            | Violation::BalloonedPageResident { .. }
            | Violation::MemslotPageUnclaimed { .. } => Layer::Guest,
            Violation::SnapshotDivergence { .. }
            | Violation::BreakdownDivergence { .. }
            | Violation::AttributionIncomplete { .. }
            | Violation::AccountingDrift { .. } => Layer::Attribution,
            Violation::KsmStatsMismatch { .. } => Layer::Ksm,
        }
    }
}

impl std::fmt::Display for Violation {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "[{} layer] ", self.layer())?;
        match self {
            Violation::DanglingPte { space, vpn, frame } => write!(
                f,
                "PTE {space:?}:{vpn:?} references dead frame {frame:?}"
            ),
            Violation::RefcountMismatch {
                frame,
                expected,
                actual,
            } => write!(
                f,
                "frame {frame:?}: {expected} PTE(s) reference it but refcount is {actual}"
            ),
            Violation::LeakedFrame { frame, refcount } => write!(
                f,
                "frame {frame:?} (refcount {refcount}) is live but referenced by no PTE"
            ),
            Violation::AnonymousSharing { frame, refcount } => write!(
                f,
                "frame {frame:?} has refcount {refcount} without being KSM-shared (missed CoW break)"
            ),
            Violation::HugeFrameTorn {
                space,
                base,
                block,
                populated,
            } => write!(
                f,
                "huge block {block} of region {space:?}:{base:?} is torn: {populated}/{HUGE_PAGE_SPAN} live subframes"
            ),
            Violation::HugeMergedSubframe { space, vpn, frame } => write!(
                f,
                "page {space:?}:{vpn:?} inside a live huge frame shares frame {frame:?}"
            ),
            Violation::GpfnOutOfRange {
                guest,
                pid,
                vpn,
                gpfn,
                watermark,
            } => write!(
                f,
                "{guest}: {pid:?} maps {vpn:?} to gpfn {gpfn} beyond watermark {watermark}"
            ),
            Violation::GpfnAliased {
                guest,
                gpfn,
                first,
                second,
            } => write!(
                f,
                "{guest}: gpfn {gpfn} mapped twice, by {:?}:{:?} and {:?}:{:?}",
                first.0, first.1, second.0, second.1
            ),
            Violation::FreedGpfnMapped {
                guest,
                gpfn,
                pid,
                vpn,
            } => write!(
                f,
                "{guest}: gpfn {gpfn} is on the free list but mapped by {pid:?}:{vpn:?}"
            ),
            Violation::GuestPageNotResident {
                guest,
                pid,
                vpn,
                gpfn,
            } => write!(
                f,
                "{guest}: {pid:?}:{vpn:?} (gpfn {gpfn}) has no backing host frame"
            ),
            Violation::BalloonedPageResident { guest, gpfn, frame } => write!(
                f,
                "{guest}: deflated/unallocated gpfn {gpfn} still backed by frame {frame:?}"
            ),
            Violation::MemslotPageUnclaimed { guest, gpfn, frame } => write!(
                f,
                "{guest}: memslot gpfn {gpfn} holds frame {frame:?} but no guest PTE claims it"
            ),
            Violation::SnapshotDivergence { frame } => match frame {
                Some(frame) => write!(
                    f,
                    "engine and naive walks disagree on frame {frame:?}'s attribution"
                ),
                None => write!(
                    f,
                    "engine and naive walks attribute different frame sets"
                ),
            },
            Violation::BreakdownDivergence { what } => write!(
                f,
                "breakdown and its naive reference disagree on {what}"
            ),
            Violation::AttributionIncomplete {
                what,
                expected,
                actual,
            } => write!(
                f,
                "snapshot covers {actual} {what} but the ground truth has {expected}"
            ),
            Violation::AccountingDrift {
                what,
                expected_mib,
                actual_mib,
            } => write!(
                f,
                "{what}: expected {expected_mib:.6} MiB, accounted {actual_mib:.6} MiB"
            ),
            Violation::KsmStatsMismatch {
                field,
                expected,
                actual,
            } => write!(
                f,
                "scanner reports {field} = {actual}, stable-tree recount says {expected}"
            ),
        }
    }
}

impl std::error::Error for Violation {}

/// Summary counters of a clean audit — what was walked and verified.
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub struct AuditReport {
    /// Live frames verified against their PTE fan-in.
    pub frames: usize,
    /// Host PTEs walked.
    pub host_ptes: usize,
    /// Guest PTEs walked across all guests.
    pub guest_ptes: usize,
    /// Free-list and never-allocated gpfns verified empty.
    pub empty_gpfns: usize,
    /// Valid stable-tree nodes verified (0 when no scanner was given).
    pub stable_nodes: usize,
    /// Live 2 MiB huge blocks verified complete and unshared.
    pub huge_blocks: usize,
    /// MiB attributed by the breakdown (equals the frame pool's size).
    pub attributed_mib: f64,
}

/// Tolerance for MiB rollups, which accumulate `pages / 256` floats.
const MIB_EPS: f64 = 1e-6;

/// Audits the world. Returns counters describing the walk on success,
/// or the first [`Violation`] found.
///
/// # Errors
///
/// Returns the first broken invariant; the checks run in layer order
/// (host, guest, attribution, KSM), so the reported violation is the
/// lowest-layer one.
pub fn check_world(world: &World<'_>) -> Result<AuditReport, Violation> {
    let mut report = AuditReport::default();
    check_host_layer(world.mm, &mut report)?;
    for view in &world.guests {
        check_guest_layer(world.mm, view, &mut report)?;
    }
    check_attribution(world, &mut report)?;
    if let Some(scanner) = world.scanner {
        check_ksm_stats(world.mm, scanner, &mut report)?;
    }
    Ok(report)
}

/// Host layer: walk every PTE of every space, then reconcile the
/// per-frame fan-in with the frame pool's refcounts.
fn check_host_layer(mm: &HostMm, report: &mut AuditReport) -> Result<(), Violation> {
    let phys = mm.phys();
    // Huge-frame conservation first, so a torn 2 MiB block reports as
    // the huge-page invariant it is rather than as the dangling PTE or
    // refcount noise it causes downstream.
    for space in mm.spaces() {
        for region in space.regions() {
            for block in region.huge_block_indices() {
                let start = block * HUGE_PAGE_SPAN;
                let live = (0..HUGE_PAGE_SPAN)
                    .filter(|&i| {
                        region
                            .frame_at_index(start + i)
                            .is_some_and(|f| phys.is_live(f))
                    })
                    .count();
                if live != HUGE_PAGE_SPAN {
                    return Err(Violation::HugeFrameTorn {
                        space: space.id(),
                        base: region.base(),
                        block,
                        populated: live,
                    });
                }
                for i in 0..HUGE_PAGE_SPAN {
                    let frame = region
                        .frame_at_index(start + i)
                        .expect("slot verified populated above");
                    if phys.is_ksm_shared(frame) || phys.refcount(frame) > 1 {
                        return Err(Violation::HugeMergedSubframe {
                            space: space.id(),
                            vpn: region.base().offset((start + i) as u64),
                            frame,
                        });
                    }
                }
                report.huge_blocks += 1;
            }
        }
    }
    let mut fan_in: HashMap<FrameId, u32> = HashMap::new();
    for space in mm.spaces() {
        for region in space.regions() {
            for (vpn, frame) in region.iter_mapped() {
                if !phys.is_live(frame) {
                    return Err(Violation::DanglingPte {
                        space: space.id(),
                        vpn,
                        frame,
                    });
                }
                *fan_in.entry(frame).or_insert(0) += 1;
                report.host_ptes += 1;
            }
        }
    }
    for (id, frame) in phys.iter() {
        let ptes = fan_in.get(&id).copied().unwrap_or(0);
        if ptes == 0 {
            return Err(Violation::LeakedFrame {
                frame: id,
                refcount: frame.refcount(),
            });
        }
        if ptes != frame.refcount() {
            return Err(Violation::RefcountMismatch {
                frame: id,
                expected: ptes,
                actual: frame.refcount(),
            });
        }
        if frame.refcount() > 1 && !frame.ksm_shared() {
            return Err(Violation::AnonymousSharing {
                frame: id,
                refcount: frame.refcount(),
            });
        }
        report.frames += 1;
    }
    Ok(())
}

/// Guest layer: guest page tables against the memslot, including the
/// balloon/madvise emptiness invariants.
fn check_guest_layer(
    mm: &HostMm,
    view: &GuestView<'_>,
    report: &mut AuditReport,
) -> Result<(), Violation> {
    let os = view.os();
    let guest = view.name();
    let vm_space = os.vm_space();
    let watermark = os.gpfn_watermark();

    // Walk every process page table, collecting gpfn claims.
    let mut claims: HashMap<u64, (Pid, Vpn)> = HashMap::new();
    for (pid, gas) in os.contexts() {
        for region in gas.regions() {
            for (vpn, gpfn) in region.iter_mapped() {
                if gpfn >= watermark {
                    return Err(Violation::GpfnOutOfRange {
                        guest: guest.to_string(),
                        pid,
                        vpn,
                        gpfn,
                        watermark,
                    });
                }
                if let Some(&first) = claims.get(&gpfn) {
                    return Err(Violation::GpfnAliased {
                        guest: guest.to_string(),
                        gpfn,
                        first,
                        second: (pid, vpn),
                    });
                }
                claims.insert(gpfn, (pid, vpn));
                if mm.frame_at(vm_space, os.host_vpn(gpfn)).is_none() {
                    return Err(Violation::GuestPageNotResident {
                        guest: guest.to_string(),
                        pid,
                        vpn,
                        gpfn,
                    });
                }
                report.guest_ptes += 1;
            }
        }
    }

    // Free-listed gpfns must be unmapped on both sides.
    for &gpfn in os.free_gpfns() {
        if let Some(&(pid, vpn)) = claims.get(&gpfn) {
            return Err(Violation::FreedGpfnMapped {
                guest: guest.to_string(),
                gpfn,
                pid,
                vpn,
            });
        }
        if let Some(frame) = mm.frame_at(vm_space, os.host_vpn(gpfn)) {
            return Err(Violation::BalloonedPageResident {
                guest: guest.to_string(),
                gpfn,
                frame,
            });
        }
        report.empty_gpfns += 1;
    }

    // ... as must the never-allocated tail above the watermark.
    for gpfn in watermark..os.guest_pages() as u64 {
        if let Some(frame) = mm.frame_at(vm_space, os.host_vpn(gpfn)) {
            return Err(Violation::BalloonedPageResident {
                guest: guest.to_string(),
                gpfn,
                frame,
            });
        }
        report.empty_gpfns += 1;
    }

    // Conversely, every resident memslot page below the watermark must
    // be claimed by exactly one guest PTE (exactness follows from the
    // alias check above).
    for gpfn in 0..watermark {
        if let Some(frame) = mm.frame_at(vm_space, os.host_vpn(gpfn)) {
            if !claims.contains_key(&gpfn) {
                return Err(Violation::MemslotPageUnclaimed {
                    guest: guest.to_string(),
                    gpfn,
                    frame,
                });
            }
        }
    }
    Ok(())
}

/// Attribution layer: the `analysis` walk must claim every allocated
/// frame exactly once and its owner-oriented rollup must partition
/// resident memory. The frame-indexed engine behind
/// [`MemorySnapshot::collect`] is additionally validated differentially
/// against the retained naive reference walk
/// ([`MemorySnapshot::collect_naive`]): the two must be field-identical,
/// and so must [`MemorySnapshot::breakdown`] and the retained
/// [`MemorySnapshot::breakdown_naive`].
fn check_attribution(world: &World<'_>, report: &mut AuditReport) -> Result<(), Violation> {
    let phys = world.mm.phys();
    let snapshot = MemorySnapshot::collect(world.mm, &world.guests);
    let naive = MemorySnapshot::collect_naive(world.mm, &world.guests);
    if snapshot != naive {
        let frame = phys.iter().map(|(id, _)| id).find(|&id| {
            snapshot.users_of(id) != naive.users_of(id)
                || snapshot.ksm_shared(id) != naive.ksm_shared(id)
        });
        return Err(Violation::SnapshotDivergence { frame });
    }
    if snapshot.frame_count() != phys.allocated_frames() {
        return Err(Violation::AttributionIncomplete {
            what: "frames",
            expected: phys.allocated_frames(),
            actual: snapshot.frame_count(),
        });
    }
    if snapshot.pte_count() != report.host_ptes {
        return Err(Violation::AttributionIncomplete {
            what: "ptes",
            expected: report.host_ptes,
            actual: snapshot.pte_count(),
        });
    }
    let breakdown = snapshot.breakdown();
    let reference = naive.breakdown_naive();
    if breakdown != reference {
        let what = if breakdown.guests != reference.guests {
            "guests"
        } else if breakdown.javas != reference.javas {
            "javas"
        } else {
            "total owned"
        };
        return Err(Violation::BreakdownDivergence { what });
    }
    let resident_mib = pages_to_mib(phys.allocated_frames());
    if (breakdown.total_owned_mib - resident_mib).abs() > MIB_EPS {
        return Err(Violation::AccountingDrift {
            what: "total owned vs. allocated frames",
            expected_mib: resident_mib,
            actual_mib: breakdown.total_owned_mib,
        });
    }
    let guest_sum: f64 = breakdown.guests.iter().map(|g| g.owned_total_mib()).sum();
    if (guest_sum - breakdown.total_owned_mib).abs() > MIB_EPS {
        return Err(Violation::AccountingDrift {
            what: "guest owned sum vs. total owned",
            expected_mib: breakdown.total_owned_mib,
            actual_mib: guest_sum,
        });
    }
    report.attributed_mib = breakdown.total_owned_mib;
    Ok(())
}

/// KSM layer: recompute `pages_shared` / `pages_sharing` from scratch
/// over the scanner's stable tree and compare with its counters.
fn check_ksm_stats(
    mm: &HostMm,
    scanner: &KsmScanner,
    report: &mut AuditReport,
) -> Result<(), Violation> {
    let phys = mm.phys();
    let mut shared = 0u64;
    let mut sharing = 0u64;
    for (fp, frame) in scanner.stable_frames() {
        let valid =
            phys.is_live(frame) && phys.is_ksm_shared(frame) && phys.fingerprint(frame) == fp;
        if valid {
            shared += 1;
            sharing += u64::from(phys.refcount(frame).saturating_sub(1));
            report.stable_nodes += 1;
        }
    }
    let stats = scanner.stats();
    if stats.pages_shared != shared {
        return Err(Violation::KsmStatsMismatch {
            field: "pages_shared",
            expected: shared,
            actual: stats.pages_shared,
        });
    }
    if stats.pages_sharing != sharing {
        return Err(Violation::KsmStatsMismatch {
            field: "pages_sharing",
            expected: sharing,
            actual: stats.pages_sharing,
        });
    }
    Ok(())
}

/// A value-typed snapshot of the frame table, for asserting two worlds
/// converged to bit-identical physical state.
#[must_use]
pub fn frame_table(mm: &HostMm) -> Vec<(usize, Fingerprint, u32, bool)> {
    let phys = mm.phys();
    phys.iter()
        .map(|(id, frame)| {
            (
                id.index(),
                frame.fingerprint(),
                frame.refcount(),
                frame.ksm_shared(),
            )
        })
        .collect()
}

/// A value-typed snapshot of every PTE, for asserting two worlds hold
/// identical translations.
#[must_use]
pub fn pte_table(mm: &HostMm) -> Vec<(usize, u64, usize)> {
    let mut ptes = Vec::new();
    for space in mm.spaces() {
        for region in space.regions() {
            for (vpn, frame) in region.iter_mapped() {
                ptes.push((space.id().index(), vpn.0, frame.index()));
            }
        }
    }
    ptes
}
