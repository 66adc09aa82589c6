//! Transparent Page Sharing scanners.
//!
//! Two TPS implementations back the paper's experiments:
//!
//! * [`KsmScanner`] — a faithful model of Linux Kernel Samepage Merging
//!   (Arcangeli, Eidus & Wright, Linux Symposium 2009), the scanner KVM
//!   uses. It wakes every `sleep_millis`, scans `pages_to_scan` candidate
//!   pages from the `madvise(MADV_MERGEABLE)` regions, and maintains the
//!   two KSM trees: the **stable tree** of already-merged, write-protected
//!   pages and the **unstable tree** of merge candidates that is rebuilt on
//!   every full pass. A page only enters the unstable tree if its content
//!   has not changed since the previous pass — the volatility filter that
//!   keeps KSM away from rapidly rewritten Java-heap pages (§III.A of the
//!   paper: only 0.7 % of the heap ever stays merged).
//! * [`PowerVmScanner`] — a model of PowerVM's Active Memory
//!   Deduplication, which the paper uses for Fig. 6: a background dedupe
//!   that is simply run to convergence, after which "PowerVM finished
//!   scanning and sharing pages".
//!
//! Both operate on a [`HostMm`](paging::HostMm) and merge frames through
//! [`HostMm::merge_frames`](paging::HostMm::merge_frames), so all
//! copy-on-write bookkeeping is shared
//! with the rest of the system.
//!
//! # Example
//!
//! ```
//! use mem::{Fingerprint, Tick};
//! use paging::{HostMm, MemTag};
//! use ksm::{KsmParams, KsmScanner};
//!
//! let mut mm = HostMm::new();
//! let (a, b) = (mm.create_space("vm1"), mm.create_space("vm2"));
//! let ra = mm.map_region(a, 8, MemTag::VmGuestMemory, true);
//! let rb = mm.map_region(b, 8, MemTag::VmGuestMemory, true);
//! for i in 0..8 {
//!     let fp = Fingerprint::of(&[i]);
//!     mm.write_page(a, ra.offset(i), fp, Tick(0));
//!     mm.write_page(b, rb.offset(i), fp, Tick(0));
//! }
//!
//! let mut scanner = KsmScanner::new(KsmParams::new(1000, 100));
//! // Let several passes elapse so the volatility filter admits the pages.
//! for t in 1..6 {
//!     scanner.run(&mut mm, Tick(t));
//! }
//! assert_eq!(scanner.stats().pages_sharing, 8);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod params;
mod powervm;
mod scanner;
mod stats;

pub use params::KsmParams;
pub use powervm::{PowerVmReport, PowerVmScanner};
pub use scanner::{KsmScanner, WakePhases};
pub use stats::KsmStats;
