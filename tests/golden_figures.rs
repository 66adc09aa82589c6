//! Golden-master regression tests for the figure binaries.
//!
//! Each test renders a figure through `bench::figures` at the fixed
//! [`RunOpts::golden`] preset and compares the output byte-for-byte
//! against the committed file under `tests/golden/`. Figure output is
//! deterministic (timings go to stderr, sweeps return results in input
//! order regardless of thread count), so any diff here is a real
//! behaviour change in the simulation or the report formatting.
//!
//! To regenerate after an intentional change:
//!
//! ```text
//! UPDATE_GOLDEN=1 cargo test --test golden_figures
//! ```
//!
//! then review and commit the updated `tests/golden/*.txt`.

use bench::{figures, fleet, fleet_traffic, thp, traffic, RunOpts};
use std::fs;
use std::path::PathBuf;

fn golden_path(name: &str) -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR"))
        .join("tests/golden")
        .join(name)
}

/// Diffs `actual` against the golden file, or rewrites the file when
/// `UPDATE_GOLDEN` is set.
fn assert_golden(name: &str, actual: &str) {
    let path = golden_path(name);
    if std::env::var_os("UPDATE_GOLDEN").is_some() {
        fs::create_dir_all(path.parent().unwrap()).unwrap();
        fs::write(&path, actual).unwrap();
        return;
    }
    let expected = fs::read_to_string(&path).unwrap_or_else(|e| {
        panic!(
            "cannot read golden file {}: {e}\n\
             regenerate with: UPDATE_GOLDEN=1 cargo test --test golden_figures",
            path.display()
        )
    });
    if expected == actual {
        return;
    }
    // Report the first diverging line to make the diff readable.
    let mut exp_lines = expected.lines();
    let mut act_lines = actual.lines();
    let mut line_no = 1usize;
    loop {
        match (exp_lines.next(), act_lines.next()) {
            (Some(e), Some(a)) if e == a => line_no += 1,
            (e, a) => panic!(
                "{name} diverges from the golden master at line {line_no}:\n\
                 golden: {:?}\n\
                 actual: {:?}\n\
                 if the change is intentional, regenerate with:\n\
                 UPDATE_GOLDEN=1 cargo test --test golden_figures",
                e.unwrap_or("<end of file>"),
                a.unwrap_or("<end of file>"),
            ),
        }
    }
}

#[test]
fn fig2_matches_golden_master() {
    assert_golden("fig2.txt", &figures::fig2_text(&RunOpts::golden()));
}

#[test]
fn fig7_matches_golden_master() {
    assert_golden("fig7.txt", &figures::fig7_text(&RunOpts::golden()));
}

#[test]
fn fig8_matches_golden_master() {
    assert_golden("fig8.txt", &figures::fig8_text(&RunOpts::golden()));
}

#[test]
fn tables_match_golden_master() {
    assert_golden("tables.txt", &figures::tables_text());
}

#[test]
fn fleet_matches_golden_master() {
    // The committed file was generated with --threads 1; rendering at 4
    // threads here asserts the sharded scanner's core guarantee — the
    // fleet report is byte-identical at any thread count.
    assert_golden(
        "fleet.txt",
        &fleet::report_text(&fleet::FleetSpec::golden(), 4, 5),
    );
}

#[test]
fn fleet_report_is_identical_at_one_and_many_threads() {
    let spec = fleet::FleetSpec::golden();
    let one = fleet::report_text(&spec, 1, 5);
    for threads in [2, 8] {
        assert_eq!(
            one,
            fleet::report_text(&spec, threads, 5),
            "fleet report diverged at {threads} threads"
        );
    }
}

#[test]
fn thp_matches_golden_master() {
    // The THP x KSM ablation sweep. golden_text() also asserts the
    // sharing-vs-TLB-reach frontier is non-degenerate and runs the
    // cross-layer conservation audit in every cell, so this test is
    // simultaneously a physics check and a formatting pin.
    assert_golden("thp.txt", &thp::golden_text());
}

#[test]
fn traffic_matches_golden_master() {
    // Three request-driven scenarios on the same miniature fleet. The
    // traffic engine is deterministic by construction (DESIGN.md §11),
    // so this text is byte-identical at any thread count and any diff
    // is a real behaviour change in the engine or the report.
    assert_golden("traffic.txt", &traffic::golden_text());
}

#[test]
fn fleet_traffic_matches_golden_master() {
    // Fleet-preset traffic: flash-crowd and rolling-deploy on a 64-guest
    // fleet at the over-commit knee. Asserting the same golden at 1 and
    // 4 threads pins the KSM scanner's sharded wake under traffic: the
    // worker count may not change a single byte.
    assert_golden("fleet_traffic.txt", &fleet_traffic::golden_text(1));
    assert_golden("fleet_traffic.txt", &fleet_traffic::golden_text(4));
}

#[test]
fn attribution_matches_golden_master() {
    // The golden preset runs at 2 worker threads; the committed file was
    // generated single-threaded. Passing byte-for-byte here is itself an
    // assertion — attribution output is thread-count invariant.
    assert_golden(
        "attribution.txt",
        &figures::attribution_text(&RunOpts::golden()),
    );
}
