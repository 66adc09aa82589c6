//! The fleet-scale KSM scenario: one synthetic consolidation host with
//! tens to thousands of guests, built directly on [`paging::HostMm`] so
//! the scanner is measured in isolation from the JVM and guest-OS
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
//! The same world backs two consumers: the deterministic convergence
//! report pinned by the golden-master test (`tests/golden/fleet.txt`)
//! and the measured `results/BENCH_fleet.json` record that
//! `bench fleet --json` prints.

use std::fmt::Write as _;
use std::time::Instant;

use ksm::{KsmParams, KsmScanner};
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
    /// 112 pages each — seconds to run, with every page class present.
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
    pub fn scanner(&self) -> KsmScanner {
        let budget = usize::try_from(self.spec.total_pages() + 1).expect("fleet fits usize");
        KsmScanner::new(KsmParams::new(budget, 100))
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
pub fn golden_text() -> String {
    report_text(&FleetSpec::golden(), 5)
}

/// Renders the deterministic fleet convergence report.
#[must_use]
pub fn report_text(spec: &FleetSpec, passes: u64) -> String {
    let mut world = build(spec);
    let mut scanner = world.scanner();
    let rows = run_passes(&mut world, &mut scanner, passes);
    let mut out = String::new();
    let _ = writeln!(
        out,
        "================================================================"
    );
    let _ = writeln!(
        out,
        "Fleet: KSM scan, {} guests x ({} common + {} unique + {} volatile) pages",
        spec.guests, spec.common_pages, spec.unique_pages, spec.volatile_pages
    );
    let _ = writeln!(
        out,
        "{} mergeable pages, one full pass per wake",
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
    let _ = writeln!(out, "\nstable tree: {} nodes", scanner.stable_nodes());
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
    commit_ns: u64,
    measured_1t_ms: f64,
}

/// Passes to run before calling a fleet converged: merges complete by
/// pass 2, stable skips by 3; two more passes exercise the clean-region
/// credit steady state.
const CONVERGE_PASSES: u64 = 5;
/// Converged wakes sampled for the steady-state median.
const STEADY_WAKES: u64 = 9;

fn measure_scale(guests: usize) -> ScalePoint {
    let spec = FleetSpec::preset(guests);

    // Convergence: wall-clock plus the scanner's own phase split
    // (the judging pass vs the commit).
    let mut world = build(&spec);
    let mut scanner = world.scanner();
    let (mut plan_ns, mut commit_ns) = (0u64, 0u64);
    let start = Instant::now();
    for t in 1..=CONVERGE_PASSES {
        world.churn(Tick(t));
        scanner.run(&mut world.mm, Tick(t));
        let w = scanner.last_wake_phases();
        plan_ns += w.plan_nanos;
        commit_ns += w.commit_nanos;
    }
    let measured_1t = start.elapsed().as_secs_f64();
    let merges = scanner.stats().merges;

    // Converged steady state: median wake time once every common page is
    // stable and only churn + clean-region credits remain.
    let mut steady_us: Vec<f64> = Vec::new();
    for t in (CONVERGE_PASSES + 1)..=(CONVERGE_PASSES + STEADY_WAKES) {
        world.churn(Tick(t));
        let start = Instant::now();
        scanner.run(&mut world.mm, Tick(t));
        steady_us.push(start.elapsed().as_secs_f64() * 1e6);
    }
    steady_us.sort_by(f64::total_cmp);
    let converged_wake_us = steady_us[steady_us.len() / 2];

    ScalePoint {
        guests,
        total_pages: spec.total_pages(),
        merges,
        merge_phase_ms: measured_1t * 1e3,
        merge_throughput_per_s: merges as f64 / measured_1t,
        converged_wake_us,
        plan_ns,
        commit_ns,
        measured_1t_ms: measured_1t * 1e3,
    }
}

/// Measures the fleet scenario at 32, 256 and 1024 guests and renders
/// the `results/BENCH_fleet.json` record.
#[must_use]
pub fn bench_json() -> String {
    let host_cores = std::thread::available_parallelism().map_or(1, std::num::NonZeroUsize::get);
    let mut out = String::from("{\n");
    let _ = writeln!(
        out,
        "  \"benchmark\": \"fleet KSM scan: converge + steady state at 32/256/1024 guests\","
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
        "  \"measurement_note\": \"wall-clock on this host ({host_cores} core(s)), one run per scale; the KSM wake is serial, so the host core count does not change it; plan_ns is the judging pass and commit_ns the mutations applied in scan order, summed over the converging wakes\","
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
        let _ = writeln!(out, "      \"commit_ns\": {},", p.commit_ns);
        let _ = writeln!(out, "      \"measured_1t_ms\": {:.3}", p.measured_1t_ms);
        let _ = writeln!(out, "    }}{}", if i + 1 < points.len() { "," } else { "" });
    }
    let _ = writeln!(out, "  ]");
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
        let mut scanner = world.scanner();
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
}
