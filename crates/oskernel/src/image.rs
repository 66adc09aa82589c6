//! Base disk / kernel images.

/// Description of a guest base image: how much kernel memory the guest
/// boots with and how much of it is derived from the image (and therefore
/// byte-identical across guests cloned from the same image).
///
/// The paper's guests are RHEL 5.5 clones of one base image; §II.D reports
/// a 219 MB kernel footprint of which ~106 MB (about half) was TPS-shared
/// with the owning VM — exactly the image-derived part (kernel text plus
/// the clean page cache of the shared disk image).
///
/// # Example
///
/// ```
/// use oskernel::OsImage;
///
/// let img = OsImage::rhel55();
/// assert!(img.shareable_mib() > 100.0 && img.shareable_mib() < 115.0);
/// assert!((img.total_mib() - 219.0).abs() < 5.0);
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct OsImage {
    /// Stable identifier mixed into page fingerprints; two guests share
    /// pages only if their images match.
    pub image_id: u64,
    /// Kernel text and read-only data, MiB.
    pub kernel_code_mib: f64,
    /// Kernel dynamic data (slabs, page tables, per-boot state), MiB.
    pub kernel_data_mib: f64,
    /// Clean page cache of image files, MiB (identical across guests).
    pub pagecache_clean_mib: f64,
    /// Dirty/per-guest page cache (logs, tmp), MiB.
    pub pagecache_dirty_mib: f64,
    /// Fraction of kernel dynamic data rewritten per simulated second
    /// (keeps those pages volatile so KSM leaves them alone).
    pub kernel_churn_per_second: f64,
}

impl OsImage {
    /// The paper's RHEL 5.5 base image, calibrated to §II.D: 219 MB kernel
    /// area, ~50 % of it image-derived and shareable.
    #[must_use]
    pub fn rhel55() -> OsImage {
        OsImage {
            image_id: 0x5e15,
            kernel_code_mib: 14.0,
            kernel_data_mib: 101.0,
            pagecache_clean_mib: 92.0,
            pagecache_dirty_mib: 12.0,
            kernel_churn_per_second: 0.002,
        }
    }

    /// An AIX 6.1 image for the PowerVM experiments (§V.B). AIX guests in
    /// the paper are 3.5 GB; the kernel/page-cache split is scaled from
    /// the same measurement methodology.
    #[must_use]
    pub fn aix61() -> OsImage {
        OsImage {
            image_id: 0xa1c5,
            kernel_code_mib: 24.0,
            kernel_data_mib: 160.0,
            pagecache_clean_mib: 120.0,
            pagecache_dirty_mib: 24.0,
            kernel_churn_per_second: 0.002,
        }
    }

    /// A miniature image for fast unit tests.
    #[must_use]
    pub fn tiny_test() -> OsImage {
        OsImage {
            image_id: 0x7e57,
            kernel_code_mib: 0.25,
            kernel_data_mib: 0.5,
            pagecache_clean_mib: 0.25,
            pagecache_dirty_mib: 0.125,
            kernel_churn_per_second: 0.0,
        }
    }

    /// Returns a copy scaled down by `divisor` (page counts shrink,
    /// proportions stay). Used by the experiment scale knob.
    #[must_use]
    pub fn scaled(&self, divisor: f64) -> OsImage {
        assert!(divisor >= 1.0, "scale divisor must be >= 1");
        OsImage {
            image_id: self.image_id,
            kernel_code_mib: self.kernel_code_mib / divisor,
            kernel_data_mib: self.kernel_data_mib / divisor,
            pagecache_clean_mib: self.pagecache_clean_mib / divisor,
            pagecache_dirty_mib: self.pagecache_dirty_mib / divisor,
            kernel_churn_per_second: self.kernel_churn_per_second,
        }
    }

    /// Image-derived MiB — the upper bound on cross-guest kernel sharing.
    #[must_use]
    pub fn shareable_mib(&self) -> f64 {
        self.kernel_code_mib + self.pagecache_clean_mib
    }

    /// Guest pages the kernel area takes at boot: kernel code and data
    /// plus the clean and dirty page cache, each rounded up to whole
    /// pages as the boot lays them out. A guest smaller than this cannot
    /// boot the image.
    #[must_use]
    pub fn kernel_pages(&self) -> usize {
        [
            self.kernel_code_mib,
            self.kernel_data_mib,
            self.pagecache_clean_mib,
            self.pagecache_dirty_mib,
        ]
        .into_iter()
        .map(mem::mib_to_pages)
        .sum()
    }

    /// Total kernel-area MiB at boot.
    #[must_use]
    pub fn total_mib(&self) -> f64 {
        self.kernel_code_mib
            + self.kernel_data_mib
            + self.pagecache_clean_mib
            + self.pagecache_dirty_mib
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn rhel55_matches_paper_kernel_numbers() {
        let img = OsImage::rhel55();
        // §II.D: 219 MB kernel area, ~106 MB shared (≈50 %).
        assert!((img.total_mib() - 219.0).abs() < 2.0);
        assert!((img.shareable_mib() - 106.0).abs() < 2.0);
    }

    #[test]
    fn scaling_preserves_proportions() {
        let img = OsImage::rhel55().scaled(10.0);
        let full = OsImage::rhel55();
        let ratio = img.shareable_mib() / img.total_mib();
        let full_ratio = full.shareable_mib() / full.total_mib();
        assert!((ratio - full_ratio).abs() < 1e-9);
    }

    #[test]
    #[should_panic(expected = "scale divisor")]
    fn scaling_up_rejected() {
        let _ = OsImage::rhel55().scaled(0.5);
    }

    #[test]
    fn different_images_have_different_ids() {
        assert_ne!(OsImage::rhel55().image_id, OsImage::aix61().image_id);
    }
}
