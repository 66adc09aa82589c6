//! Host physical memory substrate for the TPS-Java reproduction.
//!
//! This crate models the lowest layer of the simulated machine: host
//! physical page frames. Following the central design decision of the
//! reproduction (see `DESIGN.md` §2), a page's *content* is represented by a
//! 128-bit [`Fingerprint`] derived from the semantic identity of the bytes
//! that would occupy it, rather than by 4096 raw bytes. Two pages that would
//! be byte-identical on real hardware carry equal fingerprints; any
//! per-process, per-offset or per-epoch variation enters the hash and makes
//! the fingerprints differ.
//!
//! The main type is [`PhysMemory`], a frame allocator with reference counts
//! and the copy-on-write metadata that Kernel Samepage Merging needs:
//! per-frame last-write ticks (the stand-in for KSM's volatility checksum)
//! and a "KSM-shared" marker for frames that live in the scanner's stable
//! tree.
//!
//! # Example
//!
//! ```
//! use mem::{Fingerprint, PhysMemory, Tick};
//!
//! let mut pm = PhysMemory::new();
//! let fp = Fingerprint::of(&[1, 2, 3]);
//! let frame = pm.alloc(fp, Tick(0));
//! assert_eq!(pm.fingerprint(frame), fp);
//! assert_eq!(pm.refcount(frame), 1);
//! pm.dec_ref(frame);
//! assert_eq!(pm.allocated_frames(), 0);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod fingerprint;
mod idhash;
mod layout;
mod phys;
mod tick;

pub use fingerprint::{Fingerprint, FingerprintBuilder};
pub use idhash::{IdHasher, IdMap, IdSet};
pub use layout::{LayoutImage, LayoutWriter};
pub use phys::{Frame, FrameId, PhysMemory};
pub use tick::{Tick, TICKS_PER_SECOND};

/// The size of one page frame in bytes (4 KiB, as on the paper's x86 and
/// POWER hosts).
pub const PAGE_SIZE: usize = 4096;

/// Number of 4 KiB subframes backing one 2 MiB transparent huge page
/// (x86-64 PMD span). Huge mappings are modeled as an aligned run of
/// this many base frames collapsed into a single translation.
pub const HUGE_PAGE_SPAN: usize = 512;

/// Converts a byte count to a page count, rounding up.
///
/// # Example
///
/// ```
/// assert_eq!(mem::pages_for_bytes(1), 1);
/// assert_eq!(mem::pages_for_bytes(4096), 1);
/// assert_eq!(mem::pages_for_bytes(4097), 2);
/// assert_eq!(mem::pages_for_bytes(0), 0);
/// ```
pub fn pages_for_bytes(bytes: usize) -> usize {
    bytes.div_ceil(PAGE_SIZE)
}

/// Converts a page count to mebibytes as a floating point value, which is
/// the unit the paper's figures are drawn in.
///
/// # Example
///
/// ```
/// assert_eq!(mem::pages_to_mib(256), 1.0);
/// ```
pub fn pages_to_mib(pages: usize) -> f64 {
    (pages as f64) * (PAGE_SIZE as f64) / (1024.0 * 1024.0)
}

/// Converts mebibytes to a page count, rounding up.
///
/// # Example
///
/// ```
/// assert_eq!(mem::mib_to_pages(1.0), 256);
/// ```
pub fn mib_to_pages(mib: f64) -> usize {
    ((mib * 1024.0 * 1024.0) / (PAGE_SIZE as f64)).ceil() as usize
}
