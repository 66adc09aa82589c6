//! Cache population and lookup.

use mem::{LayoutImage, LayoutWriter};
use std::ops::Range;

/// Alignment of items inside the cache (J9 aligns ROMClasses to
/// double-word boundaries).
const ITEM_ALIGN: usize = 8;

/// Directory entry for one cached item (one class's read-only half).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct CacheEntry {
    /// Identity of the cached class.
    pub token: u64,
    /// Byte offset of the item within the cache.
    pub offset: u64,
    /// Item length in bytes.
    pub len: u64,
}

impl CacheEntry {
    /// The cache pages the item overlaps (indices into
    /// [`SharedClassCache::image`]'s pages).
    #[must_use]
    pub fn page_range(&self) -> Range<usize> {
        let first = (self.offset as usize) / mem::PAGE_SIZE;
        let last = ((self.offset + self.len - 1) as usize) / mem::PAGE_SIZE;
        first..last + 1
    }
}

/// Populates a shared class cache in class-load order.
///
/// See the [crate docs](crate) for an example.
#[derive(Debug)]
pub struct CacheBuilder {
    name: String,
    capacity_bytes: usize,
    writer: LayoutWriter,
    entries: Vec<CacheEntry>,
    rejected: u64,
}

impl CacheBuilder {
    /// Creates a builder for a cache named `name` holding up to
    /// `capacity_mib` MiB (the `-Xshareclasses` cache size, Table III of
    /// the paper: 120 MB for the WAS workloads, 25 MB for Tuscany).
    ///
    /// # Panics
    ///
    /// Panics if `capacity_mib` is not positive.
    #[must_use]
    pub fn new(name: impl Into<String>, capacity_mib: f64) -> CacheBuilder {
        assert!(capacity_mib > 0.0, "cache capacity must be positive");
        CacheBuilder {
            name: name.into(),
            capacity_bytes: (capacity_mib * 1024.0 * 1024.0) as usize,
            writer: LayoutWriter::new(),
            entries: Vec::new(),
            rejected: 0,
        }
    }

    /// Stores one class's read-only half. Returns `false` (and stores
    /// nothing) if the cache is full or the class is already present —
    /// exactly the soft-failure behaviour of the real feature, where
    /// overflowing classes simply load privately.
    pub fn add(&mut self, token: u64, ro_bytes: usize) -> bool {
        if ro_bytes == 0 || self.entries.iter().any(|e| e.token == token) {
            return false;
        }
        let mut probe = self.writer.clone();
        probe.align_to(ITEM_ALIGN);
        if probe.position() + ro_bytes > self.capacity_bytes {
            self.rejected += 1;
            return false;
        }
        self.writer.align_to(ITEM_ALIGN);
        let offset = self.writer.position() as u64;
        self.writer.append(token, ro_bytes);
        self.entries.push(CacheEntry {
            token,
            offset,
            len: ro_bytes as u64,
        });
        true
    }

    /// Classes that did not fit.
    #[must_use]
    pub fn rejected(&self) -> u64 {
        self.rejected
    }

    /// Finalises the cache.
    #[must_use]
    pub fn finish(self) -> SharedClassCache {
        SharedClassCache {
            name: self.name,
            capacity_bytes: self.capacity_bytes,
            image: self.writer.finish(),
            entries: self.entries,
        }
    }
}

/// A populated, immutable shared class cache — the content of the
/// memory-mapped cache file.
///
/// Equality of two caches' [`image`](Self::image) pages is the crate's
/// central guarantee: build the cache once, copy it everywhere, and every
/// mapping is byte-identical.
#[derive(Debug, Clone, PartialEq)]
pub struct SharedClassCache {
    name: String,
    capacity_bytes: usize,
    image: LayoutImage,
    entries: Vec<CacheEntry>,
}

impl SharedClassCache {
    /// The cache name. J9 keys caches by name so each Java application can
    /// use its own cache (§IV.B); WAS ships a predefined name shared by
    /// all WAS processes.
    #[must_use]
    pub fn name(&self) -> &str {
        &self.name
    }

    /// Configured capacity in bytes.
    #[must_use]
    pub fn capacity_bytes(&self) -> usize {
        self.capacity_bytes
    }

    /// The page-content image of the cache file.
    #[must_use]
    pub fn image(&self) -> &LayoutImage {
        &self.image
    }

    /// Number of classes stored.
    #[must_use]
    pub fn class_count(&self) -> usize {
        self.entries.len()
    }

    /// Directory lookup.
    #[must_use]
    pub fn entry(&self, token: u64) -> Option<&CacheEntry> {
        self.entries.iter().find(|e| e.token == token)
    }

    /// `true` if the class is cached.
    #[must_use]
    pub fn contains(&self, token: u64) -> bool {
        self.entry(token).is_some()
    }

    /// All directory entries in store order.
    #[must_use]
    pub fn entries(&self) -> &[CacheEntry] {
        &self.entries
    }

    /// Bytes actually populated.
    #[must_use]
    pub fn used_bytes(&self) -> usize {
        self.image.len_bytes
    }

    /// Populated fraction of the configured capacity.
    #[must_use]
    pub fn utilization(&self) -> f64 {
        self.used_bytes() as f64 / self.capacity_bytes as f64
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn same_load_order_identical_images() {
        let build = || {
            let mut b = CacheBuilder::new("was", 1.0);
            for (token, len) in [(1, 5000), (2, 12_000), (3, 777)] {
                assert!(b.add(token, len));
            }
            b.finish()
        };
        let (a, b) = (build(), build());
        assert_eq!(a.image().pages, b.image().pages);
        assert_eq!(a, b);
    }

    #[test]
    fn different_load_order_different_images() {
        let mut a = CacheBuilder::new("was", 1.0);
        a.add(1, 5000);
        a.add(2, 5000);
        let mut b = CacheBuilder::new("was", 1.0);
        b.add(2, 5000);
        b.add(1, 5000);
        assert_ne!(a.finish().image().pages, b.finish().image().pages);
    }

    #[test]
    fn capacity_overflow_rejects_softly() {
        let mut b = CacheBuilder::new("small", 0.01); // ~10 KiB
        assert!(b.add(1, 8000));
        assert!(!b.add(2, 8000));
        assert_eq!(b.rejected(), 1);
        let cache = b.finish();
        assert!(cache.contains(1));
        assert!(!cache.contains(2));
        assert_eq!(cache.class_count(), 1);
    }

    #[test]
    fn duplicate_tokens_rejected() {
        let mut b = CacheBuilder::new("c", 1.0);
        assert!(b.add(1, 100));
        assert!(!b.add(1, 100));
        assert_eq!(b.finish().class_count(), 1);
    }

    #[test]
    fn entry_page_range() {
        let mut b = CacheBuilder::new("c", 1.0);
        b.add(1, 4000);
        b.add(2, 5000);
        let cache = b.finish();
        let e1 = cache.entry(1).unwrap();
        let e2 = cache.entry(2).unwrap();
        assert_eq!(e1.page_range(), 0..1);
        // Item 2 starts at 4000 (aligned) and ends past page 2.
        assert_eq!(e2.page_range(), 0..3);
        assert!(cache.utilization() > 0.0 && cache.utilization() < 0.01);
    }

    #[test]
    fn items_are_aligned() {
        let mut b = CacheBuilder::new("c", 1.0);
        b.add(1, 13);
        b.add(2, 10);
        let cache = b.finish();
        assert_eq!(cache.entry(2).unwrap().offset % ITEM_ALIGN as u64, 0);
    }

    #[test]
    fn zero_length_items_rejected() {
        let mut b = CacheBuilder::new("c", 1.0);
        assert!(!b.add(1, 0));
    }
}
