//! The assembled Java VM process.

use crate::classes::ClassSet;
use crate::classloader::ClassLoader;
use crate::codearea::CodeArea;
use crate::fill::phase_fraction;
use crate::heap::HeapSim;
use crate::jit::JitSim;
use crate::profile::AppProfile;
use crate::request::RequestCost;
use crate::stack::StackSim;
use crate::workarea::WorkArea;
use cds::SharedClassCache;
use mem::Tick;
use oskernel::{GuestOs, Pid};
use paging::HostMm;

/// Seconds after class loading during which the NIO buffers fill with the
/// first request/response traffic.
const NIO_FILL_SECONDS: f64 = 30.0;

/// Per-process JVM configuration.
///
/// # Example
///
/// ```
/// use jvm::JvmConfig;
///
/// let cfg = JvmConfig::new(6, 42); // "Java 6 SR9", process salt 42
/// assert!(cfg.shared_cache.is_none());
/// ```
#[derive(Debug, Clone)]
pub struct JvmConfig {
    /// Identity of the JVM build. Processes with equal versions map
    /// byte-identical executable text.
    pub jvm_version: u64,
    /// Per-process salt: seeds load-order jitter and all process-private
    /// page contents (pointers, profile data).
    pub process_salt: u64,
    /// This guest's copy of the shared class cache file, if
    /// `-Xshareclasses` is on (the paper's technique).
    pub shared_cache: Option<SharedClassCache>,
}

impl JvmConfig {
    /// Baseline configuration: no class sharing.
    #[must_use]
    pub fn new(jvm_version: u64, process_salt: u64) -> JvmConfig {
        JvmConfig {
            jvm_version,
            process_salt,
            shared_cache: None,
        }
    }

    /// Enables class sharing with (a copy of) `cache`.
    #[must_use]
    pub fn with_shared_cache(mut self, cache: SharedClassCache) -> JvmConfig {
        self.shared_cache = Some(cache);
        self
    }
}

/// A running Java VM process inside a guest OS.
///
/// Drive it with [`tick`](Self::tick) once per simulation tick; the model
/// sequences its own start-up phases (code mapping at launch, class
/// loading and heap warm-up over `class_load_seconds`, JIT warm-up over
/// `jit_warmup_seconds`, NIO buffer fill with the first requests) and then
/// settles into steady-state allocation, collection and churn.
///
/// See the [crate docs](crate) for an example.
#[derive(Debug)]
pub struct JavaVm {
    pid: Pid,
    profile: AppProfile,
    salt: u64,
    start: Tick,
    code: CodeArea,
    loader: ClassLoader,
    heap: HeapSim,
    jit: JitSim,
    work: WorkArea,
    stack: StackSim,
    /// Request-driven JIT warm-up progress (0..=1); only the traffic
    /// engine advances this — the tick path uses wall-clock fractions.
    traffic_jit: f64,
    /// Request-driven NIO buffer-fill progress (0..=1).
    traffic_nio: f64,
    requests_served: u64,
}

impl JavaVm {
    /// Spawns the process in `guest` and lays the groundwork: code text is
    /// mapped, regions reserved, the class-load plan fixed.
    pub fn launch(
        mm: &mut HostMm,
        guest: &mut GuestOs,
        cfg: JvmConfig,
        profile: AppProfile,
        now: Tick,
    ) -> JavaVm {
        let pid = guest.spawn(profile.name.clone());
        let classes = ClassSet::for_profile(&profile);
        let code = CodeArea::launch(mm, guest, pid, &profile, cfg.jvm_version, now);
        let loader = ClassLoader::launch(
            guest,
            pid,
            &classes,
            cfg.shared_cache.as_ref(),
            cfg.process_salt,
        );
        let heap = HeapSim::launch(mm, guest, pid, &profile.heap, cfg.process_salt);
        let jit = JitSim::launch(mm, guest, pid, &profile, now);
        let work = WorkArea::launch(mm, guest, pid, &profile, now);
        let stack = StackSim::launch(guest, pid, &profile);
        JavaVm {
            pid,
            profile,
            salt: cfg.process_salt,
            start: now,
            code,
            loader,
            heap,
            jit,
            work,
            stack,
            traffic_jit: 0.0,
            traffic_nio: 0.0,
            requests_served: 0,
        }
    }

    /// The guest pid of this JVM process.
    #[must_use]
    pub fn pid(&self) -> Pid {
        self.pid
    }

    /// The workload profile this JVM runs.
    #[must_use]
    pub fn profile(&self) -> &AppProfile {
        &self.profile
    }

    /// Advances the JVM by one simulation tick.
    pub fn tick(&mut self, mm: &mut HostMm, guest: &mut GuestOs, now: Tick) {
        let elapsed_s = (now - self.start) as f64 / mem::TICKS_PER_SECOND as f64;
        let load_f = phase_fraction(elapsed_s, self.profile.class_load_seconds);
        let jit_f = phase_fraction(elapsed_s, self.profile.jit_warmup_seconds);
        let nio_f = phase_fraction(
            elapsed_s - self.profile.class_load_seconds,
            NIO_FILL_SECONDS,
        );
        self.code.tick(mm, guest, self.pid, self.salt, load_f, now);
        self.loader.tick(mm, guest, self.pid, load_f, now);
        self.heap.tick(mm, guest, self.pid, self.salt, load_f, now);
        self.jit
            .tick(mm, guest, self.pid, &self.profile, self.salt, jit_f, now);
        self.work.tick(
            mm,
            guest,
            self.pid,
            &self.profile,
            self.salt,
            load_f,
            nio_f,
            now,
        );
        self.stack
            .tick(mm, guest, self.pid, &self.profile, self.salt, load_f, now);
    }

    /// Advances only the *wall-clock* start-up phases: code mapping,
    /// class loading, heap warm-up, work-area materialisation, stack
    /// fill. JIT warm-up and NIO fill are *not* advanced — under the
    /// traffic engine those track requests served (via
    /// [`serve_requests`](Self::serve_requests)), not elapsed time.
    ///
    /// The traffic engine calls this on a sparse schedule (once per
    /// simulated second until [`startup_done`](Self::startup_done)), so
    /// an idle-but-booted JVM costs nothing per tick.
    pub fn advance_startup(&mut self, mm: &mut HostMm, guest: &mut GuestOs, now: Tick) {
        let elapsed_s = (now - self.start) as f64 / mem::TICKS_PER_SECOND as f64;
        let load_f = phase_fraction(elapsed_s, self.profile.class_load_seconds);
        self.code.tick(mm, guest, self.pid, self.salt, load_f, now);
        self.loader.tick(mm, guest, self.pid, load_f, now);
        self.heap.warm(mm, guest, self.pid, self.salt, load_f, now);
        self.work
            .startup(mm, guest, self.pid, self.salt, load_f, now);
        self.stack.fill(mm, guest, self.pid, self.salt, load_f, now);
    }

    /// `true` once the wall-clock start-up phases have nothing left to
    /// write (class loading finished).
    #[must_use]
    pub fn startup_done(&self, now: Tick) -> bool {
        let elapsed_s = (now - self.start) as f64 / mem::TICKS_PER_SECOND as f64;
        elapsed_s >= self.profile.class_load_seconds
    }

    /// Serves `count` requests at `cost` each: heap allocation (young-gen
    /// pressure and collections), JIT warm-up progress and scratch churn,
    /// work-area and stack dirtying, NIO fill — all batched so a burst of
    /// requests costs one pass per subsystem, not one per request.
    pub fn serve_requests(
        &mut self,
        mm: &mut HostMm,
        guest: &mut GuestOs,
        cost: &RequestCost,
        count: u64,
        now: Tick,
    ) {
        if count == 0 {
            return;
        }
        let n = count as f64;
        self.traffic_jit = (self.traffic_jit + cost.jit_warm_delta * n).min(1.0);
        self.traffic_nio = (self.traffic_nio + cost.nio_delta * n).min(1.0);
        self.heap.serve(
            mm,
            guest,
            self.pid,
            self.salt,
            cost.heap_alloc_pages * n,
            now,
        );
        self.jit
            .emit_code(mm, guest, self.pid, self.salt, self.traffic_jit, now);
        self.jit.scratch(
            mm,
            guest,
            self.pid,
            self.salt,
            cost.jit_scratch_pages * n,
            now,
        );
        self.work
            .fill_nio(mm, guest, self.pid, &self.profile, self.traffic_nio, now);
        self.work.churn(
            mm,
            guest,
            self.pid,
            self.salt,
            cost.work_dirty_pages * n,
            now,
        );
        self.stack.churn(
            mm,
            guest,
            self.pid,
            self.salt,
            cost.stack_dirty_pages * n,
            now,
        );
        self.requests_served += count;
    }

    /// Requests served via [`serve_requests`](Self::serve_requests).
    #[must_use]
    pub fn requests_served(&self) -> u64 {
        self.requests_served
    }

    /// Request-driven JIT warm-up progress in `0..=1` (1.0 = code cache
    /// fully populated by traffic).
    #[must_use]
    pub fn traffic_warmth(&self) -> f64 {
        self.traffic_jit
    }

    /// `true` once all start-up phases are over.
    #[must_use]
    pub fn warmed_up(&self, now: Tick) -> bool {
        let elapsed_s = (now - self.start) as f64 / mem::TICKS_PER_SECOND as f64;
        elapsed_s
            >= self
                .profile
                .class_load_seconds
                .max(self.profile.jit_warmup_seconds)
                + NIO_FILL_SECONDS
    }

    /// Classes loaded so far.
    #[must_use]
    pub fn classes_loaded(&self) -> usize {
        self.loader.loaded()
    }

    /// Classes served from the shared class cache.
    #[must_use]
    pub fn classes_from_cache(&self) -> usize {
        self.loader.cached_classes()
    }

    /// Garbage collections so far.
    #[must_use]
    pub fn gc_count(&self) -> u64 {
        self.heap.gc_count()
    }

    /// The class loader (extents are useful for analysis and tests).
    #[must_use]
    pub fn loader(&self) -> &ClassLoader {
        &self.loader
    }

    /// Unloads a fraction of loaded classes (application redeploy):
    /// private class structures are freed, shared-cache pages stay
    /// mapped and shared (§IV.B). Returns private pages released.
    pub fn unload_classes(&mut self, mm: &mut HostMm, guest: &mut GuestOs, fraction: f64) -> usize {
        self.loader.unload(mm, guest, self.pid, fraction)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use cds::CacheBuilder;
    use oskernel::OsImage;
    use paging::{HostMm, MemTag};

    fn boot(mm: &mut HostMm, name: &str, salt: u64) -> GuestOs {
        let space = mm.create_space(name);
        GuestOs::boot(
            mm,
            space,
            mem::mib_to_pages(96.0),
            &OsImage::tiny_test(),
            salt,
            Tick(0),
        )
    }

    fn run(java: &mut JavaVm, mm: &mut HostMm, guest: &mut GuestOs, from: u64, to: u64) {
        for t in from..to {
            java.tick(mm, guest, Tick(t));
        }
    }

    #[test]
    fn full_lifecycle_reaches_steady_state() {
        let mut mm = HostMm::new();
        let mut guest = boot(&mut mm, "vm1", 1);
        let profile = AppProfile::tiny_test();
        let mut java = JavaVm::launch(&mut mm, &mut guest, JvmConfig::new(6, 7), profile, Tick(0));
        run(&mut java, &mut mm, &mut guest, 1, 600);
        assert!(java.warmed_up(Tick(600)));
        assert_eq!(java.classes_loaded(), java.loader().class_count());
        assert!(java.gc_count() > 0, "heap should have collected");
        mm.assert_consistent();
    }

    #[test]
    fn memory_footprint_has_every_category() {
        let mut mm = HostMm::new();
        let mut guest = boot(&mut mm, "vm1", 1);
        let mut java = JavaVm::launch(
            &mut mm,
            &mut guest,
            JvmConfig::new(6, 7),
            AppProfile::tiny_test(),
            Tick(0),
        );
        run(&mut java, &mut mm, &mut guest, 1, 600);
        let gas = guest.context(java.pid()).unwrap();
        for tag in [
            MemTag::JavaCode,
            MemTag::JavaClassMetadata,
            MemTag::JavaJitCode,
            MemTag::JavaJitWork,
            MemTag::JavaHeap,
            MemTag::JavaJvmWork,
            MemTag::JavaStack,
        ] {
            let pages: usize = gas
                .regions()
                .filter(|r| r.tag() == tag)
                .map(|r| r.mapped_pages())
                .sum();
            assert!(pages > 0, "no mapped pages for {tag:?}");
        }
    }

    #[test]
    fn cached_jvm_uses_cache_region() {
        let mut mm = HostMm::new();
        let mut guest = boot(&mut mm, "vm1", 1);
        let profile = AppProfile::tiny_test();
        let classes = ClassSet::for_profile(&profile);
        let mut b = CacheBuilder::new("tiny", 8.0);
        for c in classes.cacheable() {
            b.add(c.token, c.ro_bytes);
        }
        let cache = b.finish();
        let cfg = JvmConfig::new(6, 7).with_shared_cache(cache);
        let mut java = JavaVm::launch(&mut mm, &mut guest, cfg, profile, Tick(0));
        run(&mut java, &mut mm, &mut guest, 1, 600);
        assert!(java.classes_from_cache() > 0);
        let gas = guest.context(java.pid()).unwrap();
        let cache_pages: usize = gas
            .regions()
            .filter(|r| r.tag() == MemTag::JavaSharedClassCache)
            .map(|r| r.mapped_pages())
            .sum();
        assert!(cache_pages > 0);
    }

    #[test]
    fn two_vms_same_workload_share_only_the_invariant_areas() {
        // End-to-end sanity: count cross-VM page-content matches by tag.
        let mut mm = HostMm::new();
        let mut g1 = boot(&mut mm, "vm1", 1);
        let mut g2 = boot(&mut mm, "vm2", 2);
        let profile = AppProfile::tiny_test();
        let mut j1 = JavaVm::launch(
            &mut mm,
            &mut g1,
            JvmConfig::new(6, 11),
            profile.clone(),
            Tick(0),
        );
        let mut j2 = JavaVm::launch(&mut mm, &mut g2, JvmConfig::new(6, 22), profile, Tick(0));
        for t in 1..600u64 {
            j1.tick(&mut mm, &mut g1, Tick(t));
            j2.tick(&mut mm, &mut g2, Tick(t));
        }
        use std::collections::HashSet;
        let fps_by_tag = |guest: &GuestOs, java: &JavaVm, tag: MemTag| -> HashSet<u128> {
            guest
                .context(java.pid())
                .unwrap()
                .regions()
                .filter(|r| r.tag() == tag)
                .flat_map(|r| r.iter_mapped().collect::<Vec<_>>())
                .filter_map(|(_, gpfn)| {
                    mm.fingerprint_at(guest.vm_space(), guest.host_vpn(gpfn))
                        .map(|fp| fp.as_u128())
                })
                .collect()
        };
        // Code text overlaps heavily.
        let c1 = fps_by_tag(&g1, &j1, MemTag::JavaCode);
        let c2 = fps_by_tag(&g2, &j2, MemTag::JavaCode);
        let code_common = c1.intersection(&c2).count();
        assert!(code_common > 0, "code text should match across VMs");
        // Baseline class metadata: essentially no overlap.
        let m1 = fps_by_tag(&g1, &j1, MemTag::JavaClassMetadata);
        let m2 = fps_by_tag(&g2, &j2, MemTag::JavaClassMetadata);
        let class_common = m1.intersection(&m2).filter(|&&fp| fp != 0).count();
        assert!(
            class_common * 50 < m1.len().max(1),
            "baseline class pages should not match ({class_common}/{})",
            m1.len()
        );
        // JIT code: zero overlap (profile-salted).
        let x1 = fps_by_tag(&g1, &j1, MemTag::JavaJitCode);
        let x2 = fps_by_tag(&g2, &j2, MemTag::JavaJitCode);
        assert_eq!(x1.intersection(&x2).count(), 0);
    }
}

#[cfg(test)]
mod unload_tests {
    use super::*;
    use cds::CacheBuilder;
    use oskernel::OsImage;
    use paging::HostMm;

    #[test]
    fn unload_frees_private_but_not_cache_memory() {
        let mut mm = HostMm::new();
        let space = mm.create_space("vm");
        let mut guest = GuestOs::boot(
            &mut mm,
            space,
            mem::mib_to_pages(96.0),
            &OsImage::tiny_test(),
            1,
            Tick(0),
        );
        let profile = AppProfile::tiny_test();
        let classes = ClassSet::for_profile(&profile);
        let mut builder = CacheBuilder::new("t", 8.0);
        for c in classes.cacheable() {
            builder.add(c.token, c.ro_bytes);
        }
        let cfg = JvmConfig::new(6, 7).with_shared_cache(builder.finish());
        let mut java = JavaVm::launch(&mut mm, &mut guest, cfg, profile, Tick(0));
        for t in 1..200u64 {
            java.tick(&mut mm, &mut guest, Tick(t));
        }
        let frames_before = mm.phys().allocated_frames();
        let released = java.unload_classes(&mut mm, &mut guest, 1.0);
        assert!(released > 0);
        assert_eq!(mm.phys().allocated_frames(), frames_before - released);
        // Cache mapping survives the unload (§IV.B).
        let (cache_base, cache_pages) = java.loader().cache_extent().unwrap();
        let still_mapped = (0..cache_pages as u64)
            .filter(|&i| guest.translate(java.pid(), cache_base.offset(i)).is_some())
            .count();
        assert!(still_mapped > 0, "cache pages must stay resident");
        mm.assert_consistent();
    }

    #[test]
    fn warmed_up_timing_matches_profile() {
        let mut mm = HostMm::new();
        let space = mm.create_space("vm");
        let mut guest = GuestOs::boot(
            &mut mm,
            space,
            mem::mib_to_pages(96.0),
            &OsImage::tiny_test(),
            1,
            Tick(0),
        );
        let profile = AppProfile::tiny_test();
        let warm_after = profile.class_load_seconds.max(profile.jit_warmup_seconds) + 30.0;
        let java = JavaVm::launch(&mut mm, &mut guest, JvmConfig::new(6, 7), profile, Tick(0));
        assert!(!java.warmed_up(Tick::from_seconds(warm_after - 1.0)));
        assert!(java.warmed_up(Tick::from_seconds(warm_after)));
    }
}
