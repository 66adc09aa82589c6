//! The PowerVM-style system-VM host (§V.B, Fig. 6).

use ksm::{PowerVmReport, PowerVmScanner};
use mem::Tick;
use oskernel::{GuestOs, OsImage};
use paging::HostMm;

/// One LPAR (logical partition): a guest whose memory the hypervisor maps
/// directly, with no VM-process layer in between (Fig. 1a).
#[derive(Debug)]
pub struct PowerVmLpar {
    /// LPAR name.
    pub name: String,
    /// The booted guest OS (AIX in the paper's POWER measurements).
    pub os: GuestOs,
}

/// A PowerVM host: LPARs over a shared frame pool, deduplicated by the
/// run-to-convergence Active Memory Deduplication scanner.
///
/// # Example
///
/// ```
/// use hypervisor::PowerVmHost;
/// use mem::Tick;
/// use oskernel::OsImage;
///
/// let mut host = PowerVmHost::new();
/// host.create_lpar("lpar1", 64.0, &OsImage::tiny_test(), 1, Tick(0));
/// host.create_lpar("lpar2", 64.0, &OsImage::tiny_test(), 2, Tick(0));
/// let before = host.resident_mib();
/// let report = host.dedupe(Tick(1));
/// assert!(report.pages_merged > 0);
/// assert!(host.resident_mib() < before);
/// ```
#[derive(Debug, Default)]
pub struct PowerVmHost {
    mm: HostMm,
    lpars: Vec<PowerVmLpar>,
}

impl PowerVmHost {
    /// Creates an empty host.
    #[must_use]
    pub fn new() -> PowerVmHost {
        PowerVmHost::default()
    }

    /// The host memory manager.
    #[must_use]
    pub fn mm(&self) -> &HostMm {
        &self.mm
    }

    /// The LPARs in creation order.
    #[must_use]
    pub fn lpars(&self) -> &[PowerVmLpar] {
        &self.lpars
    }

    /// Split borrow for the per-tick loop.
    pub fn mm_and_lpar_mut(&mut self, idx: usize) -> (&mut HostMm, &mut PowerVmLpar) {
        (&mut self.mm, &mut self.lpars[idx])
    }

    /// Creates and boots an LPAR with `mem_mib` of memory. Returns its
    /// index.
    pub fn create_lpar(
        &mut self,
        name: impl Into<String>,
        mem_mib: f64,
        image: &OsImage,
        boot_salt: u64,
        now: Tick,
    ) -> usize {
        let name = name.into();
        let space = self.mm.create_space(format!("lpar-{name}"));
        let os = GuestOs::boot(
            &mut self.mm,
            space,
            mem::mib_to_pages(mem_mib),
            image,
            boot_salt,
            now,
        );
        self.lpars.push(PowerVmLpar { name, os });
        self.lpars.len() - 1
    }

    /// Runs Active Memory Deduplication to convergence — the paper's
    /// "after finishing page sharing" measurement point.
    pub fn dedupe(&mut self, now: Tick) -> PowerVmReport {
        PowerVmScanner::new().run_to_convergence(&mut self.mm, now)
    }

    /// Host physical memory currently allocated, MiB — what the paper
    /// reads from "the monitoring feature of PowerVM".
    #[must_use]
    pub fn resident_mib(&self) -> f64 {
        mem::pages_to_mib(self.mm.phys().allocated_frames())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn three_lpars_share_image_pages() {
        let mut host = PowerVmHost::new();
        for i in 0..3u64 {
            host.create_lpar(
                format!("lpar{i}"),
                32.0,
                &OsImage::tiny_test(),
                i + 1,
                Tick(0),
            );
        }
        let before = host.resident_mib();
        let report = host.dedupe(Tick(1));
        let after = host.resident_mib();
        assert!((before - after - report.saved_mib()).abs() < 0.01);
        // Kernel code + clean page cache are identical across the three:
        // two duplicate copies of each shareable page were merged.
        let img = OsImage::tiny_test();
        let expected = 2.0 * img.shareable_mib();
        assert!(
            (report.saved_mib() - expected).abs() < 0.2,
            "saved {} expected {expected}",
            report.saved_mib()
        );
        host.mm().assert_consistent();
    }

    #[test]
    fn dedupe_is_idempotent_at_convergence() {
        let mut host = PowerVmHost::new();
        host.create_lpar("a", 32.0, &OsImage::tiny_test(), 1, Tick(0));
        host.create_lpar("b", 32.0, &OsImage::tiny_test(), 2, Tick(0));
        let first = host.dedupe(Tick(1));
        let second = host.dedupe(Tick(2));
        assert!(first.pages_merged > 0);
        assert_eq!(second.pages_merged, 0);
    }
}
