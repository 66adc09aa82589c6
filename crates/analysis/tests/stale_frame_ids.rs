//! Regression test for stale frame ids in cached walk segments.
//!
//! `HostMm::phys_mut` lets fault-injection code free a frame behind the
//! page tables' back: the epoch moves but no region generation does, so
//! an incremental [`analysis::SnapshotEngine`] keeps serving the cached
//! segment that still names the dead frame. Snapshot assembly must route
//! every cached entry through `PhysMemory::is_live` — reviving the stale
//! id would resurrect a freed frame in the report, and reading its KSM
//! flag would panic in the frame pool.

use analysis::{GuestView, SnapshotEngine};
use mem::{Fingerprint, Tick};
use oskernel::{GuestOs, OsImage};
use paging::{HostMm, MemTag};

#[test]
fn out_of_band_freed_frames_are_dropped_not_revived() {
    let mut mm = HostMm::new();
    let space = mm.create_space("vm1");
    let mut os = GuestOs::boot(&mut mm, space, 1024, &OsImage::tiny_test(), 1, Tick::ZERO);
    let pid = os.spawn("java");
    let heap = os.add_region(pid, 4, MemTag::JavaHeap);
    for p in 0..4 {
        os.write_page(
            &mut mm,
            pid,
            heap.offset(p),
            Fingerprint::of(&[p]),
            Tick::ZERO,
        );
    }

    let mut engine = SnapshotEngine::default();
    {
        let views = vec![GuestView::new("vm1", &os, vec![pid])];
        let before = engine.snapshot(&mm, &views);
        assert_eq!(engine.rewalked_spaces(), mm.spaces().len());
        let gpfn = os.translate(pid, heap).unwrap();
        let victim = mm.frame_at(os.vm_space(), os.host_vpn(gpfn)).unwrap();
        assert_eq!(before.users_of(victim).len(), 1);

        // Free the frame out-of-band: refcounts drop to zero in the
        // frame pool while the host PTE still names the frame. No
        // region generation moves, so the cached segment goes stale.
        mm.phys_mut().dec_ref(victim);
        assert!(!mm.phys().is_live(victim));

        let after = engine.snapshot(&mm, &views);
        assert_eq!(
            engine.rewalked_spaces(),
            0,
            "an out-of-band free must not dirty any space"
        );
        assert!(
            after.users_of(victim).is_empty(),
            "freed frame must be dropped from the report"
        );
        assert_eq!(after.frame_count(), before.frame_count() - 1);
        assert_eq!(after.pte_count(), before.pte_count() - 1);
    }
}
