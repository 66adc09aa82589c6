//! The fleet-scale KSM scenario: one synthetic consolidation host with
//! tens to thousands of guests, built directly on [`paging::HostMm`] so
//! the sharded scanner is measured in isolation from the JVM and guest-OS
//! layers.
//!
//! Each guest maps three mergeable regions modelling the memory classes
//! of the paper's workloads:
//!
//! * **common** pages — identical across every guest (the OS image and
//!   shared class cache), the sharing opportunity KSM exists for;
//! * **unique** pages — per-guest distinct content (live Java heap
//!   data), pure unstable-tree traffic that never merges;
//! * **volatile** pages — rewritten before every wake (the nursery),
//!   which the volatility filter must keep rejecting.
//!
//! The same world backs three consumers: the deterministic convergence
//! report pinned by the golden-master test (`tests/golden/fleet.txt` —
//! byte-identical at any `--threads` value) and the measured
//! `results/BENCH_fleet.json` record that `bench fleet --json` prints.

use std::fmt::Write as _;
use std::time::Instant;

use ksm::{KsmParams, KsmScanner, SHARD_COUNT};
use mem::{Fingerprint, Tick};
use paging::{AsId, HostMm, MemTag, Vpn};

/// Shape of one synthetic fleet: guest count and the per-guest page mix.
#[derive(Debug, Clone, Copy)]
pub struct FleetSpec {
    /// Number of guest address spaces.
    pub guests: usize,
    /// Pages per guest with fleet-wide identical content.
    pub common_pages: u64,
    /// Pages per guest with guest-unique content.
    pub unique_pages: u64,
    /// Pages per guest rewritten before every wake.
    pub volatile_pages: u64,
}

impl FleetSpec {
    /// The benchmark mix: 256 common + 128 unique + 64 volatile pages
    /// per guest, at the given guest count.
    #[must_use]
    pub fn preset(guests: usize) -> FleetSpec {
        FleetSpec {
            guests,
            common_pages: 256,
            unique_pages: 128,
            volatile_pages: 64,
        }
    }

    /// The small fixed shape the golden-master test pins: 32 guests,
    /// 112 pages each — seconds to run, but enough distinct fingerprints
    /// to populate many shards.
    #[must_use]
    pub fn golden() -> FleetSpec {
        FleetSpec {
            guests: 32,
            common_pages: 64,
            unique_pages: 32,
            volatile_pages: 16,
        }
    }

    /// Mergeable pages mapped per guest.
    #[must_use]
    pub fn pages_per_guest(&self) -> u64 {
        self.common_pages + self.unique_pages + self.volatile_pages
    }

    /// Mergeable pages mapped across the whole fleet.
    #[must_use]
    pub fn total_pages(&self) -> u64 {
        self.pages_per_guest() * self.guests as u64
    }
}

/// A built fleet world: the host MM plus the handles needed to keep the
/// volatile regions churning between wakes.
#[derive(Debug)]
pub struct FleetWorld {
    /// The host memory manager holding every guest's regions.
    pub mm: HostMm,
    spec: FleetSpec,
    volatile: Vec<(AsId, Vpn)>,
}

/// Builds the fleet world: all guests mapped and written at [`Tick::ZERO`].
#[must_use]
pub fn build(spec: &FleetSpec) -> FleetWorld {
    let mut mm = HostMm::new();
    let mut volatile = Vec::with_capacity(spec.guests);
    for g in 0..spec.guests as u64 {
        let s = mm.create_space(format!("guest{g:04}"));
        let common = mm.map_region(s, spec.common_pages as usize, MemTag::VmGuestMemory, true);
        for i in 0..spec.common_pages {
            mm.write_page(s, common.offset(i), Fingerprint::of(&[1, i]), Tick::ZERO);
        }
        let unique = mm.map_region(s, spec.unique_pages as usize, MemTag::VmGuestMemory, true);
        for i in 0..spec.unique_pages {
            mm.write_page(s, unique.offset(i), Fingerprint::of(&[2, g, i]), Tick::ZERO);
        }
        let vol = mm.map_region(s, spec.volatile_pages as usize, MemTag::VmGuestMemory, true);
        for i in 0..spec.volatile_pages {
            mm.write_page(s, vol.offset(i), Fingerprint::of(&[3, g, i, 0]), Tick::ZERO);
        }
        volatile.push((s, vol));
    }
    FleetWorld {
        mm,
        spec: *spec,
        volatile,
    }
}

impl FleetWorld {
    /// Rewrites every volatile page with tick-fresh content — the
    /// workload churn each wake observes.
    pub fn churn(&mut self, now: Tick) {
        for gi in 0..self.volatile.len() {
            let (s, base) = self.volatile[gi];
            for i in 0..self.spec.volatile_pages {
                self.mm.write_page(
                    s,
                    base.offset(i),
                    Fingerprint::of(&[3, gi as u64, i, now.0]),
                    now,
                );
            }
        }
    }

    /// A scanner budgeted for one full pass per wake at this fleet size
    /// (one spare budget unit lets the pass boundary land in the same
    /// wake as the final page).
    #[must_use]
    pub fn scanner(&self, threads: usize) -> KsmScanner {
        let budget = usize::try_from(self.spec.total_pages() + 1).expect("fleet fits usize");
        KsmScanner::new(KsmParams::new(budget, 100)).with_threads(threads)
    }
}

/// Cumulative [`ksm::KsmStats`] snapshots, one per completed pass.
#[must_use]
pub fn run_passes(
    world: &mut FleetWorld,
    scanner: &mut KsmScanner,
    passes: u64,
) -> Vec<ksm::KsmStats> {
    let mut rows = Vec::with_capacity(passes as usize);
    for t in 1..=passes {
        world.churn(Tick(t));
        scanner.run(&mut world.mm, Tick(t));
        rows.push(scanner.stats());
    }
    rows
}

/// The report pinned at `tests/golden/fleet.txt`: the golden fleet over
/// five passes, which `bench fleet` prints.
#[must_use]
pub fn golden_text(threads: usize) -> String {
    report_text(&FleetSpec::golden(), threads, 5)
}

/// Renders the deterministic fleet convergence report. Thread count is
/// deliberately absent from the text: the golden-master test renders it
/// at several `--threads` values and requires byte identity.
#[must_use]
pub fn report_text(spec: &FleetSpec, threads: usize, passes: u64) -> String {
    let mut world = build(spec);
    let mut scanner = world.scanner(threads);
    let rows = run_passes(&mut world, &mut scanner, passes);
    let mut out = String::new();
    let _ = writeln!(
        out,
        "================================================================"
    );
    let _ = writeln!(
        out,
        "Fleet: sharded KSM scan, {} guests x ({} common + {} unique + {} volatile) pages",
        spec.guests, spec.common_pages, spec.unique_pages, spec.volatile_pages
    );
    let _ = writeln!(
        out,
        "{} shards | {} mergeable pages, one full pass per wake",
        SHARD_COUNT,
        spec.total_pages()
    );
    let _ = writeln!(
        out,
        "================================================================"
    );
    let _ = writeln!(
        out,
        "{:>4} {:>10} {:>8} {:>9} {:>8} {:>7} {:>9} {:>11}",
        "pass", "scanned", "shared", "sharing", "merges", "splits", "volatile", "clean_skips"
    );
    for (i, s) in rows.iter().enumerate() {
        let _ = writeln!(
            out,
            "{:>4} {:>10} {:>8} {:>9} {:>8} {:>7} {:>9} {:>11}",
            i + 1,
            s.pages_scanned,
            s.pages_shared,
            s.pages_sharing,
            s.merges,
            s.chain_splits,
            s.volatile_skips,
            s.clean_region_skips,
        );
    }
    let mut per_shard = vec![0usize; SHARD_COUNT];
    for (shard, _, _) in scanner.stable_frames_by_shard() {
        per_shard[shard] += 1;
    }
    let occupied: Vec<usize> = per_shard.iter().copied().filter(|&n| n > 0).collect();
    let _ = writeln!(
        out,
        "\nstable tree: {} nodes over {} of {} shards (min {} / max {} per occupied shard)",
        occupied.iter().sum::<usize>(),
        occupied.len(),
        SHARD_COUNT,
        occupied.iter().min().copied().unwrap_or(0),
        occupied.iter().max().copied().unwrap_or(0),
    );
    let last = rows.last().expect("at least one pass");
    let _ = writeln!(
        out,
        "final: pages_shared {} | pages_sharing {} | full_scans {} | volatile pages never merged: {}",
        last.pages_shared,
        last.pages_sharing,
        last.full_scans,
        spec.volatile_pages * spec.guests as u64,
    );
    out
}

/// One guest-count's measurements for `BENCH_fleet.json`.
struct ScalePoint {
    guests: usize,
    total_pages: u64,
    merges: u64,
    merge_phase_ms: f64,
    merge_throughput_per_s: f64,
    converged_wake_us: f64,
    plan_ns: u64,
    classify_ns: u64,
    resolve_ns: u64,
    commit_ns: u64,
    parallel_fraction: f64,
    projected_speedup_8t: f64,
    scan_projected_speedup_8t: f64,
    steady_parallel_fraction: f64,
    steady_projected_speedup_8t: f64,
    measured_1t_ms: f64,
    measured_8t_ms: f64,
}

/// Passes to run before calling a fleet converged: merges complete by
/// pass 2, stable skips by 3; two more passes exercise the clean-region
/// credit steady state.
const CONVERGE_PASSES: u64 = 5;
/// Converged wakes sampled for the steady-state median.
const STEADY_WAKES: u64 = 9;

fn measure_scale(guests: usize) -> ScalePoint {
    let spec = FleetSpec::preset(guests);

    // Serial run: wall-clock plus the scanner's own phase split
    // (plan/classify/resolve/commit), which feeds the Amdahl projection.
    let mut world = build(&spec);
    let mut scanner = world.scanner(1);
    let (mut plan_ns, mut classify_ns, mut resolve_ns, mut commit_ns) = (0u64, 0u64, 0u64, 0u64);
    let start = Instant::now();
    for t in 1..=CONVERGE_PASSES {
        world.churn(Tick(t));
        scanner.run(&mut world.mm, Tick(t));
        let w = scanner.last_wake_phases();
        plan_ns += w.plan_nanos;
        classify_ns += w.classify_nanos;
        resolve_ns += w.resolve_nanos;
        commit_ns += w.commit_nanos;
    }
    let measured_1t = start.elapsed();
    let converged_stats = scanner.stats();
    let merges = converged_stats.merges;
    let merge_phase_ms = measured_1t.as_secs_f64() * 1e3;

    // Converged steady state: median wake time once every common page is
    // stable and only churn + clean-region credits remain. The phase
    // split here is the scanner's common case — no merges to commit.
    let mut steady_us: Vec<f64> = Vec::new();
    let (mut st_serial_ns, mut st_parallel_ns) = (0u64, 0u64);
    for t in (CONVERGE_PASSES + 1)..=(CONVERGE_PASSES + STEADY_WAKES) {
        world.churn(Tick(t));
        let start = Instant::now();
        scanner.run(&mut world.mm, Tick(t));
        steady_us.push(start.elapsed().as_secs_f64() * 1e6);
        let w = scanner.last_wake_phases();
        st_serial_ns += w.serial_nanos();
        st_parallel_ns += w.parallel_nanos();
    }
    steady_us.sort_by(f64::total_cmp);
    let converged_wake_us = steady_us[steady_us.len() / 2];

    // Classify and resolve are the pool-parallel phases; plan and commit
    // are serial by construction. Amdahl at 8 workers on the measured
    // split.
    let serial_ns = plan_ns + commit_ns;
    let parallel_ns = classify_ns + resolve_ns;
    let total_ns = (serial_ns + parallel_ns).max(1);
    let parallel_fraction = parallel_ns as f64 / total_ns as f64;
    let projected_speedup_8t = total_ns as f64 / (serial_ns as f64 + parallel_ns as f64 / 8.0);
    // Scan-phase projection: the page-examination pipeline alone
    // (plan + classify + resolve), excluding the commit phase, which is
    // the serial merge application the merge-throughput number prices.
    let scan_total_ns = (plan_ns + parallel_ns).max(1);
    let scan_projected_speedup_8t =
        scan_total_ns as f64 / (plan_ns as f64 + parallel_ns as f64 / 8.0);
    let st_total_ns = (st_serial_ns + st_parallel_ns).max(1);
    let steady_parallel_fraction = st_parallel_ns as f64 / st_total_ns as f64;
    let steady_projected_speedup_8t =
        st_total_ns as f64 / (st_serial_ns as f64 + st_parallel_ns as f64 / 8.0);

    // Honest 8-thread wall-clock on this host, whatever its core count.
    let mut world8 = build(&spec);
    let mut scanner8 = world8.scanner(8);
    let start = Instant::now();
    for t in 1..=CONVERGE_PASSES {
        world8.churn(Tick(t));
        scanner8.run(&mut world8.mm, Tick(t));
    }
    let measured_8t = start.elapsed();
    assert_eq!(
        scanner8.stats(),
        converged_stats,
        "thread count changed the scan"
    );

    ScalePoint {
        guests,
        total_pages: spec.total_pages(),
        merges,
        merge_phase_ms,
        merge_throughput_per_s: merges as f64 / measured_1t.as_secs_f64(),
        converged_wake_us,
        plan_ns,
        classify_ns,
        resolve_ns,
        commit_ns,
        parallel_fraction,
        projected_speedup_8t,
        scan_projected_speedup_8t,
        steady_parallel_fraction,
        steady_projected_speedup_8t,
        measured_1t_ms: measured_1t.as_secs_f64() * 1e3,
        measured_8t_ms: measured_8t.as_secs_f64() * 1e3,
    }
}

/// Measures the fleet scenario at 32, 256 and 1024 guests and renders
/// the `results/BENCH_fleet.json` record.
///
/// # Panics
///
/// Panics if an 8-thread run's counters diverge from the serial run's —
/// the determinism claim this benchmark rides on.
#[must_use]
pub fn bench_json() -> String {
    let host_cores = std::thread::available_parallelism().map_or(1, std::num::NonZeroUsize::get);
    let mut out = String::from("{\n");
    let _ = writeln!(
        out,
        "  \"benchmark\": \"fleet sharded KSM scan: converge + steady state at 32/256/1024 guests\","
    );
    let _ = writeln!(out, "  \"source\": \"crates/bench/src/fleet.rs\",");
    let _ = writeln!(
        out,
        "  \"command\": \"cargo run --release -p bench -- fleet --json\","
    );
    let _ = writeln!(
        out,
        "  \"workload\": \"per guest: 256 fleet-common + 128 unique + 64 volatile mergeable pages; full pass per wake; 5 passes to converge, then 9 steady wakes\","
    );
    let _ = writeln!(out, "  \"host_cores\": {host_cores},");
    let _ = writeln!(
        out,
        "  \"measurement_note\": \"measured_*_ms are wall-clock on this host ({host_cores} core(s)); the *_speedup_8t numbers are Amdahl projections from the measured serial (plan+commit) vs parallel (classify+resolve) phase split of the serial run, labelled as such because this container cannot run 8 workers concurrently; scan_projected_speedup_8t covers the page-examination pipeline (plan+classify+resolve), with the serial merge application priced separately as merge_throughput_per_s\","
    );
    let _ = writeln!(out, "  \"scales\": [");
    let points: Vec<ScalePoint> = [32usize, 256, 1024]
        .iter()
        .map(|&n| measure_scale(n))
        .collect();
    for (i, p) in points.iter().enumerate() {
        let _ = writeln!(out, "    {{");
        let _ = writeln!(out, "      \"guests\": {},", p.guests);
        let _ = writeln!(out, "      \"mergeable_pages\": {},", p.total_pages);
        let _ = writeln!(out, "      \"merges\": {},", p.merges);
        let _ = writeln!(out, "      \"merge_phase_ms\": {:.3},", p.merge_phase_ms);
        let _ = writeln!(
            out,
            "      \"merge_throughput_per_s\": {:.0},",
            p.merge_throughput_per_s
        );
        let _ = writeln!(
            out,
            "      \"converged_wake_median_us\": {:.2},",
            p.converged_wake_us
        );
        let _ = writeln!(out, "      \"plan_ns\": {},", p.plan_ns);
        let _ = writeln!(out, "      \"classify_ns\": {},", p.classify_ns);
        let _ = writeln!(out, "      \"resolve_ns\": {},", p.resolve_ns);
        let _ = writeln!(out, "      \"commit_ns\": {},", p.commit_ns);
        let _ = writeln!(
            out,
            "      \"parallel_fraction\": {:.3},",
            p.parallel_fraction
        );
        let _ = writeln!(
            out,
            "      \"projected_speedup_8t\": {:.2},",
            p.projected_speedup_8t
        );
        let _ = writeln!(
            out,
            "      \"scan_projected_speedup_8t\": {:.2},",
            p.scan_projected_speedup_8t
        );
        let _ = writeln!(
            out,
            "      \"steady_parallel_fraction\": {:.3},",
            p.steady_parallel_fraction
        );
        let _ = writeln!(
            out,
            "      \"steady_projected_speedup_8t\": {:.2},",
            p.steady_projected_speedup_8t
        );
        let _ = writeln!(out, "      \"measured_1t_ms\": {:.3},", p.measured_1t_ms);
        let _ = writeln!(out, "      \"measured_8t_ms\": {:.3}", p.measured_8t_ms);
        let _ = writeln!(out, "    }}{}", if i + 1 < points.len() { "," } else { "" });
    }
    let _ = writeln!(out, "  ],");
    let _ = writeln!(
        out,
        "  \"equivalence\": \"every 8-thread run is asserted counter-identical to its serial run; the fleet golden report is byte-identical at 1 vs N threads (tests/golden/fleet.txt)\""
    );
    out.push_str("}\n");
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fleet_world_converges_and_respects_the_mix() {
        let spec = FleetSpec::golden();
        let mut world = build(&spec);
        let mut scanner = world.scanner(2);
        let rows = run_passes(&mut world, &mut scanner, 4);
        let last = rows.last().unwrap();
        // All common pages share (chains permitting), nothing volatile does.
        assert!(last.pages_sharing > 0);
        assert!(last.volatile_skips > 0);
        assert_eq!(
            last.pages_shared + last.pages_sharing,
            spec.common_pages * spec.guests as u64,
            "every common page should end up in a stable chain"
        );
    }

    #[test]
    fn report_is_thread_count_invariant() {
        let spec = FleetSpec::golden();
        let one = report_text(&spec, 1, 4);
        let four = report_text(&spec, 4, 4);
        assert_eq!(one, four);
    }
}
