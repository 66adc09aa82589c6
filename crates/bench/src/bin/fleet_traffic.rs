//! Fleet-scale traffic benchmark (see [`bench::fleet_traffic`]).
//!
//! Two modes:
//!
//! * default — renders the deterministic fleet-preset traffic report
//!   (the text pinned at `tests/golden/fleet_traffic.txt`); pass
//!   `--threads <n>` to prove the rendering is thread-invariant:
//!
//!   ```text
//!   cargo run --release -p bench --bin fleet_traffic -- --threads 4
//!   ```
//!
//! * `--json` — measures the scale256 and scale1024 flash crowds at 1
//!   and 8 threads, asserts report identity, and prints the record
//!   committed as `results/BENCH_fleet_traffic.json`:
//!
//!   ```text
//!   cargo run --release -p bench --bin fleet_traffic -- --json > results/BENCH_fleet_traffic.json
//!   ```

use bench::fleet_traffic;

fn main() {
    let mut json = false;
    let mut threads = 1usize;
    let mut args = std::env::args().skip(1);
    while let Some(arg) = args.next() {
        match arg.as_str() {
            "--json" => json = true,
            "--threads" => {
                let v = args.next().expect("--threads needs a value");
                threads = v.parse().expect("--threads needs an integer");
            }
            other => panic!("unknown argument {other} (try --json or --threads <n>)"),
        }
    }
    if json {
        print!("{}", fleet_traffic::bench_json());
    } else {
        print!("{}", fleet_traffic::golden_text(threads));
    }
}
