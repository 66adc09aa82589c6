//! The shared class cache (class data sharing).
//!
//! Models the JVM class-sharing feature the paper builds on (§IV):
//! HotSpot calls it Class Data Sharing, IBM J9 calls it shared classes
//! (`-Xshareclasses`, with the `persistent` sub-option for a
//! memory-mapped file). One JVM run **populates** the cache by storing the
//! read-only part of every class it loads, in load order, into a
//! fixed-capacity region; the resulting [`SharedClassCache`] is
//! **copied to every guest VM** (a `clone()` stands in for copying the
//! file) and mapped by each JVM there. Because the mapping is a
//! page-aligned memory-mapped file with identical bytes, every guest
//! ends up with byte-identical class pages — which is what lets
//! Transparent Page Sharing merge them.
//!
//! The cache stores only the read-only class half (bytecode, constant
//! pools, string literals — "ROMClasses" in J9). Writable structures
//! (method tables, static fields) are always created privately by each
//! JVM and are modelled in the `jvm` crate.
//!
//! # Example
//!
//! ```
//! use cds::CacheBuilder;
//!
//! // First JVM run populates the cache in class-load order.
//! let mut builder = CacheBuilder::new("webapp", 1.0);
//! assert!(builder.add(1001, 30_000));
//! assert!(builder.add(1002, 45_000));
//! let cache = builder.finish();
//!
//! // The cache file is copied to another guest VM…
//! let copied = cache.clone();
//! // …and maps to byte-identical pages there.
//! assert_eq!(cache.image().pages, copied.image().pages);
//! assert!(copied.contains(1001));
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod cache;

pub use cache::{CacheBuilder, CacheEntry, SharedClassCache};
