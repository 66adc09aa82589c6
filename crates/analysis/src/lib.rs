//! Physical-memory attribution: the paper's measurement methodology.
//!
//! §II.A–B of the paper describes collecting the address-translation
//! information of every layer (guest OS page tables, the KVM process's
//! memslots, host page tables) from crash dumps and a custom kernel
//! module, then attributing **every host physical page frame** to the
//! component that uses it. This crate is that tool, pointed at the
//! simulator instead of at `/proc` and `crash`:
//!
//! * [`MemorySnapshot::collect`] walks all translation layers for a set
//!   of guests and records, per host frame, every (guest, process,
//!   region-tag) page-table entry referencing it.
//! * [`BreakdownReport`] applies the paper's **owner-oriented**
//!   accounting — a Java process (smallest pid) owns each shared frame,
//!   everyone else shares it "for free" — as well as the
//!   distribution-oriented (Linux **PSS**) accounting for cross-checking,
//!   and rolls the result up into exactly the quantities plotted in
//!   Figs. 2–5: per-guest usage + TPS saving, and per-Java-process
//!   per-category usage + TPS-shared sizes.
//!
//! # Example
//!
//! ```
//! use analysis::{GuestView, MemorySnapshot};
//! use hypervisor::{HostConfig, KvmHost};
//! use mem::Tick;
//! use oskernel::OsImage;
//!
//! let mut host = KvmHost::new(HostConfig::paper_intel().scaled(16.0));
//! host.create_guest("vm1", 64.0, &OsImage::tiny_test(), 1, Tick(0));
//! let views: Vec<GuestView> = host
//!     .guests()
//!     .iter()
//!     .map(|g| GuestView::new(&g.name, &g.os, vec![]))
//!     .collect();
//! let snapshot = MemorySnapshot::collect(host.mm(), &views);
//! let report = snapshot.breakdown();
//! assert_eq!(report.guests.len(), 1);
//! assert!(report.guests[0].owned_total_mib() > 0.0);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod breakdown;
mod engine;
mod missdiag;
mod render;
mod snapshot;

pub use breakdown::{BreakdownReport, CategoryUsage, GuestBreakdown, JavaBreakdown};
pub use engine::SnapshotEngine;
pub use missdiag::{diagnose_misses, MergeMissReport, MissGroup, MissReason};
pub use render::{guest_csv, java_csv, render_guest_table, summarize_java};
pub use snapshot::{GuestView, MemorySnapshot, PageUser};
