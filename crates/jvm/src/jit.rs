//! The JIT compiler: profile-salted code cache and volatile scratch.

use crate::fill::ProgressFill;
use crate::profile::AppProfile;
use mem::{Fingerprint, Tick};
use obs::EventKind;
use oskernel::{GuestOs, Pid};
use paging::{HostMm, MemTag, Vpn};

const JIT_CODE_TOKEN: u64 = 0x717c;
const JIT_WORK_TOKEN: u64 = 0x717e;

/// JIT activity: code-cache growth during warm-up plus scratch churn.
///
/// Generated code "can differ from one Java process to another [because]
/// the JIT compiler uses runtime information for the optimizations"
/// (§IV.A) — so every code page is salted with the process identity and
/// is unshareable by construction. The work area is mostly read-write
/// scratch, discarded per compilation, plus a bulk-reserved zero tail.
#[derive(Debug)]
pub(crate) struct JitSim {
    code_base: Vpn,
    code_fill: ProgressFill,
    work_base: Vpn,
    scratch_pages: usize,
    #[cfg_attr(not(test), allow(dead_code))]
    zero_pages: usize,
    churn_cursor: u64,
    churn_carry: f64,
}

impl JitSim {
    pub(crate) fn launch(
        mm: &mut HostMm,
        guest: &mut GuestOs,
        pid: Pid,
        profile: &AppProfile,
        now: Tick,
    ) -> JitSim {
        let code_pages = mem::mib_to_pages(profile.jit_code_mib).max(1);
        let scratch_pages = mem::mib_to_pages(profile.jit_work_mib).max(1);
        let zero_pages = mem::mib_to_pages(profile.jit_work_zero_mib);
        let code_base = guest.map_region(mm, pid, code_pages, MemTag::JavaJitCode);
        let work_base = guest.map_region(
            mm,
            pid,
            scratch_pages + zero_pages.max(1),
            MemTag::JavaJitWork,
        );
        let mut jit = JitSim {
            code_base,
            code_fill: ProgressFill::new(code_pages),
            work_base,
            scratch_pages,
            zero_pages,
            churn_cursor: 0,
            churn_carry: 0.0,
        };
        // The compiler's allocator grabs its arenas up front and zeroes
        // them; the tail beyond current use stays all-zero (one of the
        // three §III.A sources of residual sharing).
        for i in 0..zero_pages {
            guest.write_page(
                mm,
                pid,
                work_base.offset((scratch_pages + i) as u64),
                Fingerprint::ZERO,
                now,
            );
        }
        jit.churn_carry = 0.0;
        jit
    }

    #[allow(clippy::too_many_arguments)] // simulation context threading
    pub(crate) fn tick(
        &mut self,
        mm: &mut HostMm,
        guest: &mut GuestOs,
        pid: Pid,
        profile: &AppProfile,
        salt: u64,
        warmup_fraction: f64,
        now: Tick,
    ) {
        self.emit_code(mm, guest, pid, salt, warmup_fraction, now);
        // Scratch churn: heavy while compiling, a trickle afterwards.
        let rate = if warmup_fraction < 1.0 {
            profile.jit_churn_mib_per_sec
        } else {
            profile.jit_churn_mib_per_sec * 0.05
        };
        self.scratch(
            mm,
            guest,
            pid,
            salt,
            mem::mib_to_pages(rate) as f64 / mem::TICKS_PER_SECOND as f64,
            now,
        );
    }

    /// Grows the code cache up to `warm_fraction` — methods get hot by
    /// being called, so under the traffic engine this fraction tracks
    /// requests served rather than elapsed time.
    pub(crate) fn emit_code(
        &mut self,
        mm: &mut HostMm,
        guest: &mut GuestOs,
        pid: Pid,
        salt: u64,
        warm_fraction: f64,
        now: Tick,
    ) {
        let mut emitted = 0u64;
        for i in self.code_fill.advance(warm_fraction) {
            let fp = Fingerprint::of(&[JIT_CODE_TOKEN, salt, i as u64]);
            guest.write_page(mm, pid, self.code_base.offset(i as u64), fp, now);
            emitted += 1;
        }
        if emitted > 0 {
            mm.tracer().emit_with(|| EventKind::JitEmit {
                pid: pid.0,
                pages: emitted,
            });
        }
    }

    /// Rewrites `pages` of compilation scratch (fractions carry over).
    pub(crate) fn scratch(
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
        while writes > 0 && self.scratch_pages > 0 {
            let i = self.churn_cursor % self.scratch_pages as u64;
            self.churn_cursor += 1;
            let fp = Fingerprint::of(&[JIT_WORK_TOKEN, salt, i, now.0]);
            guest.write_page(mm, pid, self.work_base.offset(i), fp, now);
            writes -= 1;
        }
    }

    /// Pages of the work area that are bulk-reserved zeros.
    #[cfg(test)]
    pub(crate) fn zero_pages(&self) -> usize {
        self.zero_pages
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::profile::AppProfile;
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

    #[test]
    fn zero_tail_written_at_launch() {
        let (mut mm, mut guest, pid) = setup();
        let profile = AppProfile::tiny_test();
        let jit = JitSim::launch(&mut mm, &mut guest, pid, &profile, Tick(0));
        assert!(jit.zero_pages() > 0);
        for i in 0..jit.zero_pages() {
            let vpn = jit.work_base.offset((jit.scratch_pages + i) as u64);
            assert_eq!(guest.fingerprint_at(&mm, pid, vpn), Some(Fingerprint::ZERO));
        }
    }

    #[test]
    fn code_cache_fills_during_warmup_then_stays() {
        let (mut mm, mut guest, pid) = setup();
        let profile = AppProfile::tiny_test();
        let mut jit = JitSim::launch(&mut mm, &mut guest, pid, &profile, Tick(0));
        jit.tick(&mut mm, &mut guest, pid, &profile, 7, 0.5, Tick(1));
        assert!(!jit.code_fill.done());
        jit.tick(&mut mm, &mut guest, pid, &profile, 7, 1.0, Tick(2));
        assert!(jit.code_fill.done());
        // Code pages are salted: two processes' code differs.
        let fp_a = guest.fingerprint_at(&mm, pid, jit.code_base).unwrap();
        assert_ne!(fp_a, Fingerprint::of(&[JIT_CODE_TOKEN, 8, 0]));
        assert_eq!(fp_a, Fingerprint::of(&[JIT_CODE_TOKEN, 7, 0]));
    }

    #[test]
    fn scratch_churns_and_stays_volatile() {
        let (mut mm, mut guest, pid) = setup();
        let mut profile = AppProfile::tiny_test();
        profile.jit_churn_mib_per_sec = 2.0;
        let mut jit = JitSim::launch(&mut mm, &mut guest, pid, &profile, Tick(0));
        let writes_before = mm.phys().total_writes();
        for t in 1..=20u64 {
            jit.tick(&mut mm, &mut guest, pid, &profile, 7, 0.0, Tick(t));
        }
        assert!(mm.phys().total_writes() > writes_before + 10);
        // The same scratch page has been rewritten with different content.
        let fp1 = guest.fingerprint_at(&mm, pid, jit.work_base).unwrap();
        for t in 21..=40u64 {
            jit.tick(&mut mm, &mut guest, pid, &profile, 7, 0.0, Tick(t));
        }
        let fp2 = guest.fingerprint_at(&mm, pid, jit.work_base).unwrap();
        assert_ne!(fp1, fp2);
    }

    #[test]
    fn churn_slows_after_warmup() {
        let (mut mm, mut guest, pid) = setup();
        let mut profile = AppProfile::tiny_test();
        profile.jit_churn_mib_per_sec = 1.0;
        let mut jit = JitSim::launch(&mut mm, &mut guest, pid, &profile, Tick(0));
        let w0 = mm.phys().total_writes();
        for t in 1..=50u64 {
            jit.tick(&mut mm, &mut guest, pid, &profile, 7, 0.5, Tick(t));
        }
        let warm = mm.phys().total_writes() - w0;
        let w1 = mm.phys().total_writes();
        for t in 51..=100u64 {
            jit.tick(&mut mm, &mut guest, pid, &profile, 7, 1.0, Tick(t));
        }
        let steady = mm.phys().total_writes() - w1;
        assert!(steady < warm / 2, "steady {steady} vs warm {warm}");
    }
}
