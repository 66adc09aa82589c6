//! Golden-master regression tests for the `bench` runner's names.
//!
//! Each test renders a name through the runner's table
//! ([`bench::BENCHES`]) at the fixed [`RunOpts::golden`] preset and
//! compares the output byte-for-byte against the committed file under
//! `tests/golden/`. The output is what `cargo run --release -p bench --
//! <name> --scale 128 --minutes 0.2` prints (the fixed-shape names
//! ignore the sizes). Figure output is deterministic (timings go to
//! stderr, sweeps return results in input order at any worker count),
//! so any diff here is a real behaviour change in the simulation or the
//! report formatting.
//!
//! To regenerate after an intentional change:
//!
//! ```text
//! UPDATE_GOLDEN=1 cargo test --test golden_figures
//! ```
//!
//! then review and commit the updated `tests/golden/*.txt`.

use bench::{RunOpts, BENCHES};
use std::fs;
use std::path::PathBuf;

fn golden_path(name: &str) -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR"))
        .join("tests/golden")
        .join(name)
}

/// What the runner prints for `name` at `opts`.
fn render(name: &str, opts: &RunOpts) -> String {
    let bench = BENCHES
        .iter()
        .find(|b| b.name == name)
        .unwrap_or_else(|| panic!("the runner has no {name}"));
    (bench.text)(opts)
}

/// Diffs `bench <name>` at the golden preset against `<name>.txt`.
fn assert_runner_golden(name: &str) {
    assert_golden(&format!("{name}.txt"), &render(name, &RunOpts::golden()));
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
    assert_runner_golden("fig2");
}

#[test]
fn fig3_matches_golden_master() {
    assert_runner_golden("fig3");
}

#[test]
fn fig4_matches_golden_master() {
    assert_runner_golden("fig4");
}

#[test]
fn fig5_matches_golden_master() {
    assert_runner_golden("fig5");
}

#[test]
fn fig6_matches_golden_master() {
    assert_runner_golden("fig6");
}

#[test]
fn fig7_matches_golden_master() {
    assert_runner_golden("fig7");
}

#[test]
fn fig8_matches_golden_master() {
    assert_runner_golden("fig8");
}

#[test]
fn tables_match_golden_master() {
    assert_runner_golden("tables");
}

#[test]
fn timeline_matches_golden_master() {
    assert_runner_golden("timeline");
}

#[test]
fn ablation_scan_rate_matches_golden_master() {
    assert_runner_golden("ablation_scan_rate");
}

#[test]
fn ablation_cache_size_matches_golden_master() {
    assert_runner_golden("ablation_cache_size");
}

#[test]
fn ablation_balloon_matches_golden_master() {
    assert_runner_golden("ablation_balloon");
}

#[test]
fn ablation_related_work_matches_golden_master() {
    assert_runner_golden("ablation_related_work");
}

#[test]
fn ablation_placement_matches_golden_master() {
    assert_runner_golden("ablation_placement");
}

#[test]
fn fleet_matches_golden_master() {
    // The KSM scanner alone on a synthetic 32-guest fleet: five passes
    // of convergence with volatile churn.
    assert_runner_golden("fleet");
}

#[test]
fn thp_matches_golden_master() {
    // The THP x KSM ablation sweep. Its text also asserts the
    // sharing-vs-TLB-reach frontier is non-degenerate and runs the
    // cross-layer conservation audit in every cell, so this test is
    // simultaneously a physics check and a formatting pin.
    assert_runner_golden("thp");
}

#[test]
fn traffic_matches_golden_master() {
    // Three request-driven scenarios on the same miniature fleet. The
    // traffic engine is deterministic by construction (DESIGN.md §11),
    // so this text is byte-identical at any thread count and any diff
    // is a real behaviour change in the engine or the report.
    assert_runner_golden("traffic");
}

#[test]
fn fleet_traffic_matches_golden_master() {
    // Fleet-preset traffic: flash-crowd and rolling-deploy on a 64-guest
    // fleet at the over-commit knee.
    assert_runner_golden("fleet_traffic");
}

#[test]
fn attribution_matches_golden_master() {
    // The scale32 timeline's TPS-saving rows come from the incremental
    // attribution engine at every sample, so this pins its walk.
    assert_runner_golden("attribution");
}
