//! `bench` — regenerates a figure, table, ablation or measurement
//! record by name; `bench` with no arguments lists them.
//!
//! ```text
//! cargo run --release -p bench -- <name> [--scale S] [--minutes M] [--paper] [--audit] [--json]
//! ```

use std::process::ExitCode;

fn main() -> ExitCode {
    match bench::RunOpts::parse(std::env::args().skip(1)) {
        Ok((bench, opts)) => {
            print!("{}", bench.render(&opts));
            ExitCode::SUCCESS
        }
        Err(err) => {
            eprintln!("error: {err}");
            eprintln!("{}", bench::usage());
            ExitCode::from(2)
        }
    }
}
