//! The simulated host as one steppable world.
//!
//! [`World`] owns everything one KVM host runs: the hypervisor and its
//! memory manager, the KSM scanner, and one [`GuestSlot`] per guest
//! holding the guest's JVM and the pid list attribution reads. A
//! [`Drive`] decides what moves the guests each tick: the paper's
//! scripted per-tick workloads, or the discrete-event request engine
//! (`traffic_run.rs` holds that half). [`World::step`] then runs the
//! host-daemon tail both share: khugepaged at second boundaries, the
//! KSM warm-up → steady switch, and the scanner wake.
//!
//! Every entry point is a thin loop over `step`:
//! [`Experiment::run`](crate::Experiment::run) (plus its timeline
//! samples), [`Experiment::build_world`](crate::Experiment::build_world),
//! [`Experiment::run_traffic`](crate::Experiment::run_traffic), the
//! telemetry golden scrape and the `tpsd` ticker. Each keeps its own
//! recount and audit cadence: a recount drops stale stable-tree
//! entries, so it is part of the simulated state, not just a read.

use crate::run::{mix, JVM_VERSION};
use crate::traffic_run::Traffic;
use crate::ExperimentConfig;
use analysis::GuestView;
use cds::SharedClassCache;
use hypervisor::KvmHost;
use jvm::{JavaVm, JvmConfig, RequestCost};
use ksm::KsmScanner;
use mem::Tick;
use obs::Profiler;
use oskernel::Pid;
use std::collections::HashMap;
use std::time::Instant;
use traffic::Scenario;

/// One guest's JVM and the bookkeeping that outlives any one launch.
pub(crate) struct GuestSlot {
    /// The JVM currently running in this guest, if any (a drained
    /// traffic guest has none; a scripted guest always has one).
    pub(crate) java: Option<JavaVm>,
    /// JVM launch generation (bumps the process salt on relaunch).
    pub(crate) generation: u64,
    /// Last tick the traffic drive advanced this guest's kernel
    /// background churn to.
    pub(crate) churned_to: u64,
    /// Per-request memory cost for this guest's workload.
    pub(crate) cost: RequestCost,
    /// The running JVM's pid, if any — maintained alongside `java` so
    /// attribution views borrow it without allocating.
    pub(crate) pids: Vec<Pid>,
}

/// What moves the guests each tick.
pub(crate) enum Drive {
    /// The paper's scripted workloads: every guest OS and its JVM tick
    /// every tick, in guest order.
    Scripted,
    /// Seeded request traffic: each tick applies the events the engine
    /// has due. Boxed: it carries the whole event queue.
    Traffic(Box<Traffic>),
}

/// A booted host, advanced one tick at a time by [`step`](Self::step).
pub(crate) struct World {
    pub(crate) config: ExperimentConfig,
    pub(crate) host: KvmHost,
    pub(crate) scanner: KsmScanner,
    pub(crate) slots: Vec<GuestSlot>,
    pub(crate) drive: Drive,
    /// The per-workload master caches: every launch maps its own copy,
    /// and the report lists them.
    pub(crate) caches: HashMap<u64, SharedClassCache>,
    warmup_end: Tick,
    switched: bool,
    /// Whether [`recount`](Self::recount) also audits: always in debug
    /// builds, so every test that runs an experiment audits it, and
    /// under `config.audit` (`--audit`) in release runs.
    audit: bool,
    /// The world's one wall clock: every phase of its step and runs.
    pub(crate) prof: Profiler,
}

impl World {
    /// Boots the configured host, its guests and their JVMs (no ticks
    /// yet), driven by `scenario`'s traffic or, without one, by the
    /// scripted workloads. Times the boot as the `setup` phase.
    pub(crate) fn new(config: &ExperimentConfig, scenario: Option<&Scenario>) -> World {
        let setup_started = Instant::now();
        let mut host = KvmHost::new(config.host);
        host.set_thp_policies(config.thp, config.thp);
        if config.trace {
            host.mm_mut().tracer_mut().enable(None);
        }
        // One master cache per distinct workload.
        let mut caches = HashMap::new();
        if config.class_sharing {
            for spec in &config.guests {
                let p = &spec.benchmark.profile;
                caches
                    .entry(p.workload_id)
                    .or_insert_with(|| jvm::master_cache(p, spec.benchmark.cache_mib));
            }
        }
        let mut world = World {
            config: config.clone(),
            host,
            scanner: KsmScanner::new(config.ksm.warmup),
            slots: Vec::with_capacity(config.guests.len()),
            drive: match scenario {
                Some(scenario) => Drive::Traffic(Box::new(Traffic::new(config, scenario))),
                None => Drive::Scripted,
            },
            caches,
            warmup_end: Tick::from_seconds(config.ksm.warmup_seconds as f64),
            switched: false,
            audit: config.audit || cfg!(debug_assertions),
            prof: Profiler::default(),
        };
        let noisy = scenario.and_then(|s| s.noisy_factor);
        for (i, spec) in config.guests.iter().enumerate() {
            world.host.create_guest(
                format!("vm{}", i + 1),
                spec.mem_mib,
                &config.image,
                mix(config.seed, 0xb007, i as u64),
                Tick::ZERO,
            );
            let bench = &spec.benchmark;
            let mut cost = bench.drive.request_cost(&bench.profile);
            if let Some(factor) = noisy.filter(|_| i == 0) {
                cost = cost.scaled(factor);
            }
            world.slots.push(GuestSlot {
                java: None,
                generation: 0,
                churned_to: 0,
                cost,
                pids: Vec::new(),
            });
            world.launch(i, Tick::ZERO);
        }
        let frames = world.host.mm().phys().allocated_frames() as u64;
        world.prof.end("setup", setup_started, 0, frames);
        world
    }

    /// Advances the world through tick `t` (1-based): the drive moves
    /// the guests, then the host daemons run (khugepaged once per
    /// simulated second, the warm-up → steady switch, the KSM wake) —
    /// like the real kernel's independent kthreads, collapse and merge
    /// interleave with guest activity. Under traffic the tick ends
    /// with a sharing sample on the sample cadence. Each part is a
    /// phase of `prof`: `guest_jvm_tick` (or the traffic drive's own
    /// three), `thp_scan`, `ksm_scan` and `timeline_sample`.
    pub(crate) fn step(&mut self, t: u64) {
        let now = Tick(t);
        match self.drive {
            Drive::Scripted => {
                let tick_started = Instant::now();
                let writes_before = self.host.mm().phys().total_writes();
                for (i, slot) in self.slots.iter_mut().enumerate() {
                    let java = slot.java.as_mut().expect("a scripted guest runs its JVM");
                    tick_guest(&mut self.host, i, java, now);
                }
                let writes = self.host.mm().phys().total_writes() - writes_before;
                self.prof.end("guest_jvm_tick", tick_started, 1, writes);
            }
            Drive::Traffic(_) => self.apply_due(now),
        }

        if t.is_multiple_of(mem::TICKS_PER_SECOND) {
            let thp_started = Instant::now();
            self.host.thp_scan(now);
            self.prof.end("thp_scan", thp_started, 0, 0);
        }
        if !self.switched && now >= self.warmup_end {
            self.scanner.set_params(self.config.ksm.steady);
            self.switched = true;
        }
        let scan_started = Instant::now();
        let scanned_before = self.scanner.stats().pages_scanned;
        self.scanner.run(self.host.mm_mut(), now);
        let scanned = self.scanner.stats().pages_scanned - scanned_before;
        self.prof.end("ksm_scan", scan_started, 1, scanned);
        if let Drive::Traffic(_) = self.drive {
            self.end_traffic_tick(now);
        }
    }

    /// Recounts the scanner's sharing counters and, when auditing
    /// (`config.audit`, or any debug build), runs the cross-layer
    /// conservation audit against the fresh counts, panicking with the
    /// structured violation on failure.
    pub(crate) fn recount(&mut self) {
        self.scanner.recount(self.host.mm());
        if self.audit {
            let world = audit::World {
                mm: self.host.mm(),
                guests: self.views(),
                scanner: Some(&self.scanner),
            };
            if let Err(violation) = audit::check_world(&world) {
                panic!("memory-accounting audit failed: {violation}");
            }
        }
    }

    /// Guest views over the fleet (a guest without a JVM exposes no
    /// Java pids), for attribution snapshots and the audit. Borrows
    /// each slot's pid list — no per-view allocation on the daemon's
    /// publish path.
    pub(crate) fn views(&self) -> Vec<GuestView<'_>> {
        self.host
            .guests()
            .iter()
            .zip(&self.slots)
            .map(|(g, slot)| GuestView::borrowed(&g.name, &g.os, &slot.pids))
            .collect()
    }

    /// The traffic drive's state, when traffic drives this world.
    pub(crate) fn traffic(&self) -> Option<&Traffic> {
        match &self.drive {
            Drive::Traffic(traffic) => Some(traffic),
            Drive::Scripted => None,
        }
    }

    /// Launches guest `guest`'s JVM at `at`, salted by the slot's launch
    /// generation. Under class sharing the process maps its own
    /// byte-identical copy of the workload's cache file (§IV.C), a clone
    /// of the master — a relaunch re-creates the CDS merge opportunity
    /// the paper measures.
    pub(crate) fn launch(&mut self, guest: usize, at: Tick) {
        let slot = &mut self.slots[guest];
        let profile = &self.config.guests[guest].benchmark.profile;
        let salt = mix(
            self.config.seed,
            0x9a17 ^ (slot.generation << 16),
            guest as u64,
        );
        let mut cfg = JvmConfig::new(JVM_VERSION, salt);
        if let Some(cache) = self.caches.get(&profile.workload_id) {
            cfg = cfg.with_shared_cache(cache.clone());
        }
        let (mm, g) = self.host.mm_and_guest_mut(guest);
        let java = JavaVm::launch(mm, &mut g.os, cfg, profile.clone(), at);
        slot.pids.clear();
        slot.pids.push(java.pid());
        slot.java = Some(java);
    }
}

/// One scripted tick of guest `guest`: its OS, then its JVM.
pub(crate) fn tick_guest(host: &mut KvmHost, guest: usize, java: &mut JavaVm, now: Tick) {
    let (mm, g) = host.mm_and_guest_mut(guest);
    g.os.tick(mm, now);
    java.tick(mm, &mut g.os, now);
}
