//! `bench` — regenerates a figure, table, ablation or extension report
//! by name; `bench` with no arguments lists them.
//!
//! ```text
//! cargo run --release -p bench -- <name> [--scale S] [--minutes M] [--paper] [--audit]
//! ```

use std::io::{self, Write};
use std::process::ExitCode;

fn main() -> ExitCode {
    match bench::RunOpts::parse(std::env::args().skip(1)) {
        Ok((bench, opts)) => match emit(io::stdout().lock(), &(bench.text)(&opts)) {
            Ok(()) => ExitCode::SUCCESS,
            Err(_) => ExitCode::FAILURE,
        },
        Err(err) => {
            let _ = emit(
                io::stderr().lock(),
                &format!("error: {err}\n{}\n", bench::usage()),
            );
            ExitCode::from(2)
        }
    }
}

/// Writes `text` to `out`. A reader that stops early (`| head -1`)
/// closes the pipe, which fails nothing: a broken pipe counts as
/// written.
fn emit(mut out: impl Write, text: &str) -> io::Result<()> {
    match out.write_all(text.as_bytes()).and_then(|()| out.flush()) {
        Err(e) if e.kind() == io::ErrorKind::BrokenPipe => Ok(()),
        other => other,
    }
}
