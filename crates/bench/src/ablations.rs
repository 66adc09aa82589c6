//! Our ablations X1–X5 (DESIGN.md §4), each rendered as the text
//! `bench <name>` prints.

use std::fmt::Write as _;

use hypervisor::{
    share_page_caches, BalloonDriver, DiffEngine, DiffEngineReport, PageSummary, SharingPlanner,
};
use mem::Tick;
use tpslab::hypervisor::{HostConfig, KvmHost};
use tpslab::jvm::{master_cache, JavaVm, JvmConfig};
use tpslab::oskernel::OsImage;
use tpslab::{ExperimentConfig, KsmSchedule};

use crate::{banner_text, RunOpts};

/// X1: KSM `pages_to_scan` sweep — how the scan rate trades scanning
/// CPU against time-to-converge and achieved sharing. This is the
/// design dimension behind the paper's two-phase 10 000 → 1 000
/// schedule (§II.C).
pub fn scan_rate_text(opts: &RunOpts) -> String {
    const RATES: [usize; 5] = [100, 300, 1_000, 3_000, 10_000];
    let mut out = banner_text(
        "Ablation X1",
        "KSM scan-rate sweep, 4 x DayTrader with preloading",
        opts,
    );
    let seconds = (opts.minutes * 60.0) as u64;
    let configs: Vec<ExperimentConfig> = RATES
        .iter()
        .map(|&pages| {
            let params = tpslab::ksm::KsmParams::new(pages, 100);
            ExperimentConfig::paper_daytrader_4vm(opts.scale)
                .with_class_sharing()
                .with_duration_seconds(seconds)
                .with_ksm(KsmSchedule {
                    warmup: params,
                    steady: params,
                    warmup_seconds: 0,
                })
        })
        .collect();
    let reports = opts.run_sweep(&configs);
    let _ = writeln!(
        out,
        "{:>16} {:>12} {:>16} {:>14} {:>12}",
        "pages/100ms", "CPU (%)", "saving (MiB)", "full scans", "merges"
    );
    for (pages, report) in RATES.iter().zip(&reports) {
        let params = tpslab::ksm::KsmParams::new(*pages, 100);
        let _ = writeln!(
            out,
            "{:>16} {:>12.1} {:>16.1} {:>14} {:>12}",
            pages,
            params.cpu_percent(),
            report.total_tps_saving_mib() * opts.unscale(),
            report.ksm.full_scans,
            report.ksm.merges,
        );
    }
    let _ = writeln!(
        out,
        "\nmore scanning converges sooner and holds more sharing, at linear CPU cost."
    );
    out
}

/// X2: shared-class-cache capacity sweep — how much cache is needed
/// before the class-metadata sharing saturates (the paper used 120 MB
/// for WAS, 25 MB for Tuscany; ≈100 MB was populated).
pub fn cache_size_text(opts: &RunOpts) -> String {
    const CAPS: [f64; 6] = [15.0, 30.0, 60.0, 90.0, 120.0, 240.0];
    let mut out = banner_text(
        "Ablation X2",
        "cache capacity sweep, 4 x DayTrader with preloading",
        opts,
    );
    let configs: Vec<ExperimentConfig> = CAPS
        .iter()
        .map(|&cap| {
            let mut cfg =
                opts.apply(ExperimentConfig::paper_daytrader_4vm(opts.scale).with_class_sharing());
            for guest in &mut cfg.guests {
                guest.benchmark.cache_mib = cap / opts.scale;
            }
            cfg
        })
        .collect();
    let reports = opts.run_sweep(&configs);
    let _ = writeln!(
        out,
        "{:>18} {:>16} {:>18} {:>22}",
        "cache cap (MiB)", "populated (MiB)", "saving (MiB)", "class shared (%)"
    );
    for (cap, report) in CAPS.iter().zip(&reports) {
        let populated: f64 = report.caches.iter().map(|(_, _, mib)| mib).sum();
        let _ = writeln!(
            out,
            "{:>18.0} {:>16.1} {:>18.1} {:>21.1}%",
            cap,
            populated * opts.unscale(),
            report.total_tps_saving_mib() * opts.unscale(),
            100.0 * report.mean_nonprimary_class_saving_fraction(),
        );
    }
    let _ = writeln!(
        out,
        "\nsharing saturates once the cache holds the full middleware class set (~100 MiB)."
    );
    out
}

/// One ballooned guest: resident before ballooning, pages reclaimed,
/// resident after.
struct GuestOutcome {
    resident_before: f64,
    reclaimed_pages: usize,
    resident_after: f64,
}

/// Builds one DayTrader guest in its own host, warms it up, and
/// balloons it. With no KSM scanner running the guests never interact,
/// so per-guest hosts sum to exactly the single shared host's numbers —
/// which is what lets the sweep pool run them concurrently.
fn balloon_guest(opts: &RunOpts, i: u64) -> GuestOutcome {
    let bench = workloads::daytrader().scaled(opts.scale);
    let mut host = KvmHost::new(HostConfig::paper_intel().scaled(opts.scale));
    let image = OsImage::rhel55().scaled(opts.scale);
    let g = host.create_guest(
        format!("vm{}", i + 1),
        1024.0 / opts.scale,
        &image,
        i + 1,
        Tick::ZERO,
    );
    let (mm, guest) = host.mm_and_guest_mut(g);
    let mut java = JavaVm::launch(
        mm,
        &mut guest.os,
        JvmConfig::new(6, 100 + i),
        bench.profile.clone(),
        Tick::ZERO,
    );
    let end = Tick::from_seconds(opts.minutes * 60.0);
    for t in 1..=end.0 {
        let (mm, guest) = host.mm_and_guest_mut(g);
        java.tick(mm, &mut guest.os, Tick(t));
    }
    let resident_before = host.resident_mib();

    // Balloon the guest: reclaim every zero page.
    let balloon = BalloonDriver::new(4096.0);
    let (mm, guest) = host.mm_and_guest_mut(g);
    let reclaimed_pages = balloon.inflate(mm, &mut guest.os);
    GuestOutcome {
        resident_before,
        reclaimed_pages,
        resident_after: host.resident_mib(),
    }
}

/// X3: the ballooning baseline (§VI related work). Ballooning reclaims
/// guest-free (zero) pages by unmapping them; TPS shares them. Both
/// relieve memory pressure — but ballooning cannot deduplicate the
/// *used* read-only pages that class preloading exposes, so its savings
/// cap out at the free-page pool.
pub fn balloon_text(opts: &RunOpts) -> String {
    let mut out = banner_text(
        "Ablation X3",
        "ballooning vs TPS: reclaimable memory in 2 DayTrader guests",
        opts,
    );
    let guests: Vec<u64> = (0..2).collect();
    let outcomes = par::map_parallel(&guests, par::default_threads(), |&i| balloon_guest(opts, i));
    let resident_before: f64 = outcomes.iter().map(|o| o.resident_before).sum();
    let reclaimed: usize = outcomes.iter().map(|o| o.reclaimed_pages).sum();
    let resident_after: f64 = outcomes.iter().map(|o| o.resident_after).sum();
    let _ = writeln!(
        out,
        "resident before: {:.1} MiB",
        resident_before * opts.unscale()
    );
    let _ = writeln!(
        out,
        "ballooning reclaimed {:.1} MiB of guest-free (zero) pages -> {:.1} MiB",
        mem::pages_to_mib(reclaimed) * opts.unscale(),
        resident_after * opts.unscale()
    );
    let _ = writeln!(
        out,
        "\nTPS with preloading additionally shares the *in-use* read-only class\n\
         pages (~100 MiB per extra guest) that ballooning cannot touch; and\n\
         KVM ships no balloon manager, which is why the paper pursues TPS."
    );
    out
}

/// Two warmed-up DayTrader guests on one KVM host.
fn two_daytrader_host(opts: &RunOpts) -> (KvmHost, Tick) {
    let bench = workloads::daytrader().scaled(opts.scale);
    let mut host = KvmHost::new(HostConfig::paper_intel().scaled(opts.scale));
    let image = OsImage::rhel55().scaled(opts.scale);
    let mut javas = Vec::new();
    for i in 0..2u64 {
        let g = host.create_guest(
            format!("vm{}", i + 1),
            1024.0 / opts.scale,
            &image,
            i + 1,
            Tick::ZERO,
        );
        let (mm, guest) = host.mm_and_guest_mut(g);
        javas.push(JavaVm::launch(
            mm,
            &mut guest.os,
            JvmConfig::new(6, 100 + i),
            bench.profile.clone(),
            Tick::ZERO,
        ));
    }
    let end = Tick::from_seconds(opts.minutes * 60.0);
    for t in 1..=end.0 {
        for (i, java) in javas.iter_mut().enumerate() {
            let (mm, guest) = host.mm_and_guest_mut(i);
            java.tick(mm, &mut guest.os, Tick(t));
        }
    }
    (host, end)
}

/// One technique's measurement, taken at its point in the cumulative
/// Satori → Ballooning → Difference Engine order.
enum Stage {
    Resident(f64),
    Satori(u64),
    Balloon(usize),
    Diff(DiffEngineReport),
}

/// Replays the deterministic host build plus the cumulative prefix of
/// techniques up to `stage`. Each replica is independent, so the four
/// stages run concurrently yet report exactly what a single host walked
/// through the techniques in order would.
fn related_work_stage(opts: &RunOpts, stage: usize) -> Stage {
    let (mut host, end) = two_daytrader_host(opts);
    if stage == 0 {
        return Stage::Resident(host.resident_mib());
    }
    // Satori: page cache only, instant.
    let (mm, guests) = host.mm_and_all_guests();
    let satori_pages = share_page_caches(mm, &guests);
    if stage == 1 {
        return Stage::Satori(satori_pages);
    }
    // Ballooning on top: zero pages.
    let mut balloon_pages = 0;
    for i in 0..2 {
        let (mm, guest) = host.mm_and_guest_mut(i);
        balloon_pages += BalloonDriver::new(1_000_000.0).inflate(mm, &mut guest.os);
    }
    if stage == 2 {
        return Stage::Balloon(balloon_pages);
    }
    // Difference Engine estimate on what remains.
    Stage::Diff(DiffEngine::default().estimate(host.mm(), end))
}

/// X4: the §VI related-work landscape on one scenario — what each
/// technique reclaims from two DayTrader guests, and at what cost.
///
/// * TPS/KSM (+ preloading): whole-page sharing, free reads.
/// * Satori: instant page-cache sharing only.
/// * Difference Engine: compression + sub-page patches on cold pages,
///   but every access to a squeezed page pays reconstruction.
/// * Ballooning: reclaims guest-free pages only; needs a manager.
pub fn related_work_text(opts: &RunOpts) -> String {
    let mut out = banner_text(
        "Ablation X4",
        "related-work techniques on 2 DayTrader guests",
        opts,
    );
    let unscale = opts.unscale();
    let stages: Vec<usize> = (0..4).collect();
    let results = par::map_parallel(&stages, par::default_threads(), |&s| {
        related_work_stage(opts, s)
    });
    let [Stage::Resident(resident), Stage::Satori(satori_pages), Stage::Balloon(balloon_pages), Stage::Diff(report)] =
        &results[..]
    else {
        unreachable!("stages return in input order");
    };
    let _ = writeln!(
        out,
        "resident without any technique: {:.1} MiB\n",
        resident * unscale
    );
    let _ = writeln!(
        out,
        "{:<22} {:>16} {:>28}",
        "technique", "saving (MiB)", "caveat"
    );
    let _ = writeln!(
        out,
        "{:<22} {:>16.1} {:>28}",
        "Satori (page cache)",
        mem::pages_to_mib(*satori_pages as usize) * unscale,
        "kernel memory only"
    );
    let _ = writeln!(
        out,
        "{:<22} {:>16.1} {:>28}",
        "Ballooning (free pages)",
        mem::pages_to_mib(*balloon_pages) * unscale,
        "needs a manager; KVM has none"
    );
    let _ = writeln!(
        out,
        "{:<22} {:>16.1} {:>28}",
        "Diff. Engine (extra)",
        report.extra_saving_mib() * unscale,
        format!("{} slow-access pages", report.slow_access_pages)
    );
    let _ = writeln!(
        out,
        "{:<22} {:>16.1} {:>28}",
        "  whole-page dupes",
        mem::pages_to_mib(report.whole_page_dup_pages as usize) * unscale,
        "= what TPS gets for free"
    );
    let _ = writeln!(
        out,
        "\nTPS + class preloading reaches ~{:.0} MiB per extra guest with zero\n\
         read overhead — see fig4/fig5 — which is why the paper builds on TPS.",
        100.0
    );
    out
}

/// X5: Memory Buddies-style sharing-aware placement on top of class
/// preloading. Four guests — two DayTrader, two Tuscany — must be split
/// across two hosts. Bloom-filter page summaries predict which pairing
/// shares most; with preloading, same-workload guests are excellent
/// buddies (they map the same cache file).
///
/// # Panics
///
/// Panics if the planner does not collocate the same-benchmark guests.
pub fn placement_text(opts: &RunOpts) -> String {
    let mut out = banner_text(
        "Ablation X5",
        "sharing-aware placement: 2 x DayTrader + 2 x Tuscany over 2 hosts",
        opts,
    );
    let daytrader = workloads::daytrader().scaled(opts.scale);
    let tuscany = workloads::tuscany().scaled(opts.scale);
    let image = OsImage::rhel55().scaled(opts.scale);
    let caches = [&daytrader, &tuscany].map(|b| master_cache(&b.profile, b.cache_mib));

    // Boot all four guests on one staging host to collect summaries.
    let mut host = KvmHost::new(HostConfig::paper_power().scaled(opts.scale));
    let mut javas = Vec::new();
    let specs = [&daytrader, &tuscany, &daytrader, &tuscany];
    for (i, bench) in specs.iter().enumerate() {
        let g = host.create_guest(
            format!("vm{}-{}", i + 1, bench.profile.name),
            1024.0 / opts.scale,
            &image,
            i as u64 + 1,
            Tick::ZERO,
        );
        let cache = &caches[i % 2];
        let cfg = JvmConfig::new(6, 500 + i as u64).with_shared_cache(cache.clone());
        let (mm, guest) = host.mm_and_guest_mut(g);
        javas.push(JavaVm::launch(
            mm,
            &mut guest.os,
            cfg,
            bench.profile.clone(),
            Tick::ZERO,
        ));
    }
    let end = Tick::from_seconds(opts.minutes * 60.0);
    for t in 1..=end.0 {
        for (i, java) in javas.iter_mut().enumerate() {
            let (mm, guest) = host.mm_and_guest_mut(i);
            java.tick(mm, &mut guest.os, Tick(t));
        }
    }

    // Summarise each VM's pages and plan the split.
    let summaries: Vec<PageSummary> = host
        .guests()
        .iter()
        .map(|g| PageSummary::of_space(host.mm(), g.os.vm_space(), 1 << 20))
        .collect();
    let _ = writeln!(out, "pairwise estimated common pages (MiB):");
    for i in 0..4 {
        for j in (i + 1)..4 {
            let _ = writeln!(
                out,
                "  {} <-> {}: {:.1}",
                host.guest(i).name,
                host.guest(j).name,
                mem::pages_to_mib(summaries[i].estimated_common_pages(&summaries[j]) as usize)
                    * opts.unscale(),
            );
        }
    }
    let placement = SharingPlanner::new(2).place(&summaries);
    let _ = writeln!(out, "\nplacement (2 slots per host):");
    for (vm, host_idx) in placement.assignment.iter().enumerate() {
        let _ = writeln!(out, "  {} -> host {}", host.guest(vm).name, host_idx);
    }
    let _ = writeln!(
        out,
        "estimated intra-host sharing: {:.1} MiB",
        mem::pages_to_mib(placement.estimated_saving_pages as usize) * opts.unscale()
    );
    assert_eq!(placement.assignment[0], placement.assignment[2]);
    assert_eq!(placement.assignment[1], placement.assignment[3]);
    let _ = writeln!(
        out,
        "\nsame-benchmark guests were collocated, as Memory Buddies intends."
    );
    out
}
