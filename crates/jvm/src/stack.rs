//! Thread stacks: pointer-laden, per-process, continuously rewritten.

use crate::fill::{run_head, ProgressFill};
use crate::profile::AppProfile;
use mem::Tick;
use oskernel::{GuestOs, Pid};
use paging::{HostMm, MemTag, Vpn};

const STACK_TOKEN: u64 = 0x57ac;

/// Stack simulator: the area is written with process-salted content at
/// start-up and the active top frames keep being rewritten — "not
/// shareable because most of this area is accessed in read-write mode and
/// there are many pointers to internal data structures" (§IV.A).
#[derive(Debug)]
pub(crate) struct StackSim {
    base: Vpn,
    pages: usize,
    fill: ProgressFill,
    churn_cursor: u64,
    churn_carry: f64,
}

impl StackSim {
    pub(crate) fn launch(guest: &mut GuestOs, pid: Pid, profile: &AppProfile) -> StackSim {
        let pages = mem::mib_to_pages(profile.stack_mib).max(1);
        let base = guest.add_region(pid, pages, MemTag::JavaStack);
        StackSim {
            base,
            pages,
            fill: ProgressFill::new(pages),
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
        now: Tick,
    ) {
        self.fill(mm, guest, pid, salt, startup_fraction, now);
        self.churn(
            mm,
            guest,
            pid,
            salt,
            profile.stack_churn_per_sec * self.pages as f64 / mem::TICKS_PER_SECOND as f64,
            now,
        );
    }

    /// Writes the stack area with process-salted content up to
    /// `startup_fraction` of the thread population.
    pub(crate) fn fill(
        &mut self,
        mm: &mut HostMm,
        guest: &mut GuestOs,
        pid: Pid,
        salt: u64,
        startup_fraction: f64,
        now: Tick,
    ) {
        let fill = self.fill.advance(startup_fraction);
        if !fill.is_empty() {
            let (start, head) = (fill.start as u64, run_head(&[STACK_TOKEN, salt]));
            guest.write_run(mm, pid, self.base.offset(start), fill.len(), now, |i| {
                let mut fp = head.clone();
                fp.push(start + i);
                fp.finish()
            });
        }
    }

    /// Rewrites `pages` of active top frames (fractions carry over).
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
        let head = run_head(&[STACK_TOKEN, salt]);
        while writes > 0 {
            // One run up to the end of the area, then wrap.
            let start = self.churn_cursor % self.pages as u64;
            let len = writes.min(self.pages - start as usize);
            guest.write_run(mm, pid, self.base.offset(start), len, now, |i| {
                let mut fp = head.clone();
                fp.push(start + i);
                fp.push(now.0);
                fp.finish()
            });
            self.churn_cursor += len as u64;
            writes -= len;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use oskernel::OsImage;
    use paging::HostMm;

    #[test]
    fn stacks_fill_then_churn() {
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
        let mut profile = AppProfile::tiny_test();
        profile.stack_churn_per_sec = 2.0;
        let mut stack = StackSim::launch(&mut guest, pid, &profile);
        stack.tick(&mut mm, &mut guest, pid, &profile, 1, 1.0, Tick(1));
        assert!(stack.fill.done());
        let fp0 = guest.fingerprint_at(&mm, pid, stack.base).unwrap();
        for t in 2..30u64 {
            stack.tick(&mut mm, &mut guest, pid, &profile, 1, 1.0, Tick(t));
        }
        assert_ne!(guest.fingerprint_at(&mm, pid, stack.base).unwrap(), fp0);
    }
}
