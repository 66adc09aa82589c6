//! The class loader: execution-order private layout vs. shared-cache
//! mapping. This module is the heart of the reproduction.

use crate::classes::ClassSet;
use crate::fill::ProgressFill;
use cds::SharedClassCache;
use mem::{Fingerprint, LayoutImage, LayoutWriter, Tick};
use obs::EventKind;
use oskernel::{GuestOs, Pid};
use paging::{HostMm, MemTag, Vpn};
use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};

/// Window within which class-load order varies between processes: thread
/// scheduling and request arrival reorder nearby loads but not the
/// coarse phase structure of start-up.
const JITTER_WINDOW: usize = 8;

/// Derives the private (writable-half) token for a class in one process.
fn rw_token(class_token: u64, salt: u64) -> u64 {
    class_token ^ salt.rotate_left(17) ^ 0x5157
}

#[derive(Debug)]
struct CacheMapping {
    base: Vpn,
    pages: Vec<Fingerprint>,
    /// Cache page indices in first-touch order for this process.
    fault_order: Vec<u32>,
    fill: ProgressFill,
}

/// Loads a workload's classes into guest memory over the start-up phase.
///
/// Two modes, matching the paper §IV.B:
///
/// * **Baseline** — every class's read-only and writable halves are
///   malloc'd into class segments *in this process's load order* (the
///   canonical order perturbed by a per-process jitter window, plus
///   occasional interleaved allocations that shift offsets). Byte
///   contents of the read-only halves are identical across processes, but
///   the layouts differ, so page contents differ and TPS finds nothing.
/// * **Shared cache** — cacheable classes' read-only halves are *mapped*
///   from the shared class cache file, which is byte-identical in every
///   VM it was copied to; only the small writable halves (and classes
///   that missed the cache, e.g. the EJB application classes) go to the
///   private segments.
#[derive(Debug)]
pub struct ClassLoader {
    private_image: LayoutImage,
    private_base: Vpn,
    private_fill: ProgressFill,
    cache: Option<CacheMapping>,
    class_count: usize,
    cached_classes: usize,
    unloaded_pages: usize,
}

impl ClassLoader {
    /// Plans the load and reserves the regions. `shared_cache` is this
    /// guest's copy of the cache file, if class sharing is enabled.
    pub(crate) fn launch(
        guest: &mut GuestOs,
        pid: Pid,
        classes: &ClassSet,
        shared_cache: Option<&SharedClassCache>,
        process_salt: u64,
    ) -> ClassLoader {
        // This process's load order: canonical order with window jitter.
        let mut order: Vec<usize> = (0..classes.len()).collect();
        let mut rng = SmallRng::seed_from_u64(process_salt ^ 0x10ad);
        for chunk in order.chunks_mut(JITTER_WINDOW) {
            // Fisher–Yates within the window.
            for i in (1..chunk.len()).rev() {
                chunk.swap(i, rng.gen_range(0..=i));
            }
        }

        // Lay out the private class segments in that order.
        let mut writer = LayoutWriter::new();
        let mut cached_classes = 0usize;
        let mut fault_pages: Vec<u32> = Vec::new();
        let mut seen = vec![false; shared_cache.map_or(0, |c| c.image().len_pages())];
        for &idx in &order {
            let class = classes.classes()[idx];
            let cached = shared_cache.and_then(|c| c.entry(class.token));
            match cached {
                Some(entry) => {
                    cached_classes += 1;
                    for page in entry.page_range() {
                        if !seen[page] {
                            seen[page] = true;
                            fault_pages.push(page as u32);
                        }
                    }
                }
                None => {
                    writer.align_to(8);
                    writer.append(class.token, class.ro_bytes);
                }
            }
            // The writable half is always private.
            writer.align_to(8);
            writer.append(rw_token(class.token, process_salt), class.rw_bytes.max(16));
            // Interleaved allocations from other subsystems shift
            // subsequent offsets unpredictably.
            if rng.gen_bool(0.35) {
                writer.pad(rng.gen_range(8..=192));
            }
        }
        let private_image = writer.finish();
        let private_pages = private_image.len_pages();
        let private_base = guest.add_region(pid, private_pages.max(1), MemTag::JavaClassMetadata);
        let cache = shared_cache.map(|c| {
            let pages = c.image().pages.clone();
            let base = guest.add_region(pid, pages.len().max(1), MemTag::JavaSharedClassCache);
            let fill = ProgressFill::new(fault_pages.len());
            CacheMapping {
                base,
                pages,
                fault_order: fault_pages,
                fill,
            }
        });
        ClassLoader {
            private_image,
            private_base,
            private_fill: ProgressFill::new(private_pages),
            cache,
            class_count: classes.len(),
            cached_classes,
            unloaded_pages: 0,
        }
    }

    /// Advances loading to `fraction` of the start-up phase.
    pub(crate) fn tick(
        &mut self,
        mm: &mut HostMm,
        guest: &mut GuestOs,
        pid: Pid,
        fraction: f64,
        now: Tick,
    ) {
        let mut private_pages = 0u64;
        for i in self.private_fill.advance(fraction) {
            let fp = self.private_image.pages[i];
            guest.write_page(mm, pid, self.private_base.offset(i as u64), fp, now);
            private_pages += 1;
        }
        if private_pages > 0 {
            mm.tracer().emit_with(|| EventKind::ClassLoad {
                pid: pid.0,
                pages: private_pages,
                from_cache: false,
            });
        }
        if let Some(cache) = &mut self.cache {
            let mut cache_pages = 0u64;
            for i in cache.fill.advance(fraction) {
                let page = cache.fault_order[i] as usize;
                guest.write_page(
                    mm,
                    pid,
                    cache.base.offset(page as u64),
                    cache.pages[page],
                    now,
                );
                cache_pages += 1;
            }
            if cache_pages > 0 {
                mm.tracer().emit_with(|| EventKind::ClassLoad {
                    pid: pid.0,
                    pages: cache_pages,
                    from_cache: true,
                });
            }
        }
    }

    /// Number of classes this loader will load.
    #[must_use]
    pub fn class_count(&self) -> usize {
        self.class_count
    }

    /// Classes satisfied from the shared cache.
    #[must_use]
    pub fn cached_classes(&self) -> usize {
        self.cached_classes
    }

    /// Classes loaded so far (approximated by load progress).
    #[must_use]
    pub fn loaded(&self) -> usize {
        let total = self.private_fill.total();
        if total == 0 {
            return self.class_count;
        }
        let frac = self.private_fill.written() as f64 / total as f64;
        (self.class_count as f64 * frac).round() as usize
    }

    /// `true` once everything is loaded.
    #[must_use]
    pub fn done(&self) -> bool {
        self.private_fill.done() && self.cache.as_ref().is_none_or(|c| c.fill.done())
    }

    /// Unloads a fraction of the loaded classes (§IV.B). The private
    /// halves (writable structures and privately loaded read-only data)
    /// are freed back to the guest; the read-only halves in the shared
    /// class cache *stay mapped* — "the preloaded read-only part of an
    /// unloaded class will stay in memory as a part of the shared class
    /// cache even after it is unloaded, and so the pages will remain
    /// shared". Returns the number of private pages released.
    ///
    /// # Panics
    ///
    /// Panics if `fraction` is not in `[0, 1]`.
    pub fn unload(
        &mut self,
        mm: &mut HostMm,
        guest: &mut GuestOs,
        pid: Pid,
        fraction: f64,
    ) -> usize {
        assert!(
            (0.0..=1.0).contains(&fraction),
            "fraction must be in [0, 1]"
        );
        let total = self.private_image.len_pages();
        let target = ((total as f64) * fraction) as usize;
        let mut released = 0;
        // Unload from the top of the segments (most recently loaded
        // classes go first, as with redeployed applications).
        for i in (total.saturating_sub(target)..total).rev() {
            if guest.release_page(mm, pid, self.private_base.offset(i as u64)) {
                released += 1;
            }
        }
        self.unloaded_pages += released;
        released
    }

    /// Private class pages released by unloading so far.
    #[must_use]
    pub fn unloaded_pages(&self) -> usize {
        self.unloaded_pages
    }

    /// Base and page count of the private class segments (for tests).
    #[must_use]
    pub fn private_extent(&self) -> (Vpn, usize) {
        (self.private_base, self.private_image.len_pages())
    }

    /// Base and page count of the shared-cache mapping, if enabled.
    #[must_use]
    pub fn cache_extent(&self) -> Option<(Vpn, usize)> {
        self.cache.as_ref().map(|c| (c.base, c.pages.len()))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use cds::CacheBuilder;
    use oskernel::OsImage;
    use paging::HostMm;

    fn setup() -> (HostMm, GuestOs) {
        let mut mm = HostMm::new();
        let space = mm.create_space("vm");
        let guest = GuestOs::boot(
            &mut mm,
            space,
            mem::mib_to_pages(128.0),
            &OsImage::tiny_test(),
            1,
            Tick(0),
        );
        (mm, guest)
    }

    fn classes() -> ClassSet {
        ClassSet::generate(99, 31, 120, 6000, 700, 0.8)
    }

    fn build_cache(set: &ClassSet) -> SharedClassCache {
        let mut b = CacheBuilder::new("test", 16.0);
        for c in set.cacheable() {
            b.add(c.token, c.ro_bytes);
        }
        b.finish()
    }

    fn collect_fps(
        mm: &HostMm,
        guest: &GuestOs,
        pid: Pid,
        base: Vpn,
        pages: usize,
    ) -> Vec<Option<Fingerprint>> {
        (0..pages as u64)
            .map(|i| guest.fingerprint_at(mm, pid, base.offset(i)))
            .collect()
    }

    #[test]
    fn baseline_layouts_differ_across_processes() {
        let (mut mm, mut guest) = setup();
        let set = classes();
        let p1 = guest.spawn("java1");
        let p2 = guest.spawn("java2");
        let mut l1 = ClassLoader::launch(&mut guest, p1, &set, None, 111);
        let mut l2 = ClassLoader::launch(&mut guest, p2, &set, None, 222);
        l1.tick(&mut mm, &mut guest, p1, 1.0, Tick(1));
        l2.tick(&mut mm, &mut guest, p2, 1.0, Tick(1));
        let (b1, n1) = l1.private_extent();
        let (b2, n2) = l2.private_extent();
        let f1 = collect_fps(&mm, &guest, p1, b1, n1);
        let f2 = collect_fps(&mm, &guest, p2, b2, n2.min(n1));
        let matches = f1
            .iter()
            .zip(&f2)
            .filter(|(a, b)| a.is_some() && a == b)
            .count();
        // Execution-order layout: essentially nothing coincides.
        assert!(
            (matches as f64) < 0.02 * n1 as f64,
            "{matches} of {n1} pages coincide"
        );
    }

    #[test]
    fn shared_cache_pages_identical_across_processes() {
        let (mut mm, mut guest) = setup();
        let set = classes();
        let cache = build_cache(&set);
        let p1 = guest.spawn("java1");
        let p2 = guest.spawn("java2");
        let mut l1 = ClassLoader::launch(&mut guest, p1, &set, Some(&cache), 111);
        let mut l2 = ClassLoader::launch(&mut guest, p2, &set, Some(&cache), 222);
        l1.tick(&mut mm, &mut guest, p1, 1.0, Tick(1));
        l2.tick(&mut mm, &mut guest, p2, 1.0, Tick(1));
        let (cb1, cn1) = l1.cache_extent().unwrap();
        let (cb2, _) = l2.cache_extent().unwrap();
        let f1 = collect_fps(&mm, &guest, p1, cb1, cn1);
        let f2 = collect_fps(&mm, &guest, p2, cb2, cn1);
        let mapped: usize = f1.iter().filter(|f| f.is_some()).count();
        assert!(mapped > 0);
        let matches = f1
            .iter()
            .zip(&f2)
            .filter(|(a, b)| a.is_some() && a == b)
            .count();
        // Every faulted cache page is byte-identical in both processes.
        assert_eq!(matches, mapped);
        assert_eq!(l1.cached_classes(), l2.cached_classes());
        assert!(l1.cached_classes() > 0);
    }

    #[test]
    fn cache_shrinks_private_segments() {
        let (_, mut guest) = setup();
        let set = classes();
        let cache = build_cache(&set);
        let p1 = guest.spawn("java1");
        let p2 = guest.spawn("java2");
        let baseline = ClassLoader::launch(&mut guest, p1, &set, None, 111);
        let with_cache = ClassLoader::launch(&mut guest, p2, &set, Some(&cache), 111);
        assert!(
            with_cache.private_extent().1 < baseline.private_extent().1 / 2,
            "cache should absorb most read-only bytes"
        );
    }

    #[test]
    fn gradual_loading_is_monotone_and_completes() {
        let (mut mm, mut guest) = setup();
        let set = classes();
        let p1 = guest.spawn("java1");
        let mut loader = ClassLoader::launch(&mut guest, p1, &set, None, 111);
        assert!(!loader.done());
        loader.tick(&mut mm, &mut guest, p1, 0.5, Tick(1));
        assert!(!loader.done());
        let frames_half = mm.phys().allocated_frames();
        loader.tick(&mut mm, &mut guest, p1, 1.0, Tick(2));
        assert!(loader.done());
        assert!(mm.phys().allocated_frames() > frames_half);
        assert_eq!(loader.loaded(), loader.class_count());
    }

    #[test]
    fn unloading_frees_private_pages_but_keeps_cache_mapped() {
        let (mut mm, mut guest) = setup();
        let set = classes();
        let cache = build_cache(&set);
        let pid = guest.spawn("java");
        let mut loader = ClassLoader::launch(&mut guest, pid, &set, Some(&cache), 111);
        loader.tick(&mut mm, &mut guest, pid, 1.0, Tick(1));
        let (cb, cn) = loader.cache_extent().unwrap();
        let cache_mapped_before: usize = (0..cn as u64)
            .filter(|&i| guest.translate(pid, cb.offset(i)).is_some())
            .count();
        let frames_before = mm.phys().allocated_frames();

        let released = loader.unload(&mut mm, &mut guest, pid, 0.5);
        assert!(released > 0);
        assert_eq!(loader.unloaded_pages(), released);
        assert_eq!(mm.phys().allocated_frames(), frames_before - released);
        // The shared-cache mapping is untouched.
        let cache_mapped_after: usize = (0..cn as u64)
            .filter(|&i| guest.translate(pid, cb.offset(i)).is_some())
            .count();
        assert_eq!(cache_mapped_before, cache_mapped_after);
        mm.assert_consistent();

        // Unloading everything releases the rest; repeating is a no-op.
        loader.unload(&mut mm, &mut guest, pid, 1.0);
        assert_eq!(loader.unload(&mut mm, &mut guest, pid, 1.0), 0);
    }

    #[test]
    fn overflowing_cache_classes_fall_back_to_private() {
        let (_, mut guest) = setup();
        let set = classes();
        // A cache big enough for only a few classes.
        let mut b = CacheBuilder::new("small", 0.05);
        for c in set.cacheable() {
            b.add(c.token, c.ro_bytes);
        }
        let cache = b.finish();
        assert!(cache.class_count() < set.cacheable().count());
        let p1 = guest.spawn("java1");
        let loader = ClassLoader::launch(&mut guest, p1, &set, Some(&cache), 111);
        assert_eq!(loader.cached_classes(), cache.class_count());
    }
}
