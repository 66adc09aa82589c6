//! The code area: mapped executables and library data.

use crate::fill::{run_head, ProgressFill};
use crate::profile::AppProfile;
use mem::Tick;
use oskernel::{GuestOs, Pid};
use paging::{HostMm, MemTag, Vpn};

const TEXT_TOKEN: u64 = 0xc0de;
const DATA_TOKEN: u64 = 0xda7a;

/// Code-area simulator.
///
/// The executable text "maps identical executable files as long as the
/// same version of the Java VM is in use" (§III.B) — text page contents
/// depend only on the JVM version, so every process (and every VM running
/// the same image) produces byte-identical pages at identical page
/// offsets, the one area the paper found TPS handles well out of the box.
/// Library *data* areas are relocated and written per process.
#[derive(Debug)]
pub(crate) struct CodeArea {
    #[cfg_attr(not(test), allow(dead_code))]
    text_base: Vpn,
    #[cfg_attr(not(test), allow(dead_code))]
    text_pages: usize,
    data_base: Vpn,
    data_fill: ProgressFill,
}

impl CodeArea {
    pub(crate) fn launch(
        mm: &mut HostMm,
        guest: &mut GuestOs,
        pid: Pid,
        profile: &AppProfile,
        jvm_version: u64,
        now: Tick,
    ) -> CodeArea {
        let text_pages = mem::mib_to_pages(profile.code_text_mib).max(1);
        let data_pages = mem::mib_to_pages(profile.code_data_mib).max(1);
        let text_base = guest.add_region(pid, text_pages, MemTag::JavaCode);
        let data_base = guest.add_region(pid, data_pages, MemTag::JavaCode);
        // Text is demand-paged from the same binary: identical content at
        // identical offsets, mapped eagerly here (the dynamic loader
        // touches it all during startup relocation/warm-up).
        let text_head = run_head(&[TEXT_TOKEN, jvm_version]);
        guest.write_run(mm, pid, text_base, text_pages, now, |i| {
            let mut fp = text_head.clone();
            fp.push(i);
            fp.finish()
        });
        CodeArea {
            text_base,
            text_pages,
            data_base,
            data_fill: ProgressFill::new(data_pages),
        }
    }

    pub(crate) fn tick(
        &mut self,
        mm: &mut HostMm,
        guest: &mut GuestOs,
        pid: Pid,
        salt: u64,
        startup_fraction: f64,
        now: Tick,
    ) {
        let fill = self.data_fill.advance(startup_fraction);
        if !fill.is_empty() {
            let (start, head) = (fill.start as u64, run_head(&[DATA_TOKEN, salt]));
            let base = self.data_base.offset(start);
            guest.write_run(mm, pid, base, fill.len(), now, |i| {
                let mut fp = head.clone();
                fp.push(start + i);
                fp.finish()
            });
        }
    }

    #[cfg(test)]
    pub(crate) fn text_base(&self) -> Vpn {
        self.text_base
    }

    #[cfg(test)]
    pub(crate) fn text_pages(&self) -> usize {
        self.text_pages
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use oskernel::OsImage;
    use paging::HostMm;

    #[test]
    fn text_identical_across_processes_with_same_version() {
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
        let p1 = guest.spawn("java1");
        let p2 = guest.spawn("java2");
        let p3 = guest.spawn("java3");
        let profile = AppProfile::tiny_test();
        let c1 = CodeArea::launch(&mut mm, &mut guest, p1, &profile, 6, Tick(0));
        let c2 = CodeArea::launch(&mut mm, &mut guest, p2, &profile, 6, Tick(0));
        let c3 = CodeArea::launch(&mut mm, &mut guest, p3, &profile, 7, Tick(0)); // other JVM version
        for i in 0..c1.text_pages() {
            let f1 = guest.fingerprint_at(&mm, p1, c1.text_base().offset(i as u64));
            let f2 = guest.fingerprint_at(&mm, p2, c2.text_base().offset(i as u64));
            let f3 = guest.fingerprint_at(&mm, p3, c3.text_base().offset(i as u64));
            assert_eq!(f1, f2);
            assert_ne!(f1, f3);
        }
    }

    #[test]
    fn data_areas_are_private() {
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
        let p1 = guest.spawn("java1");
        let p2 = guest.spawn("java2");
        let profile = AppProfile::tiny_test();
        let mut c1 = CodeArea::launch(&mut mm, &mut guest, p1, &profile, 6, Tick(0));
        let mut c2 = CodeArea::launch(&mut mm, &mut guest, p2, &profile, 6, Tick(0));
        c1.tick(&mut mm, &mut guest, p1, 1, 1.0, Tick(1));
        c2.tick(&mut mm, &mut guest, p2, 2, 1.0, Tick(1));
        assert_ne!(
            guest.fingerprint_at(&mm, p1, c1.data_base),
            guest.fingerprint_at(&mm, p2, c2.data_base)
        );
    }
}
