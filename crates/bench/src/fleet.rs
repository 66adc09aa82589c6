//! The fleet-scale KSM scenario: one synthetic consolidation host with
//! many guests, built directly on [`paging::HostMm`] so the scanner
//! runs in isolation from the JVM and guest-OS layers.
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
//! `bench fleet` prints the world's deterministic convergence report,
//! pinned by the golden-master test (`tests/golden/fleet.txt`).
//! `perfbench` times the KSM wake on its workloads
//! (`ksm.{wake,plan,commit}_s`).

use std::fmt::Write as _;

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
        "{:>4} {:>10} {:>8} {:>9} {:>8} {:>7} {:>9}",
        "pass", "scanned", "shared", "sharing", "merges", "splits", "volatile"
    );
    for (i, s) in rows.iter().enumerate() {
        let _ = writeln!(
            out,
            "{:>4} {:>10} {:>8} {:>9} {:>8} {:>7} {:>9}",
            i + 1,
            s.pages_scanned,
            s.pages_shared,
            s.pages_sharing,
            s.merges,
            s.chain_splits,
            s.volatile_skips,
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
