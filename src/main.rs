//! `tps-java` — command-line front end for the reproduction. Its
//! subcommands and the flags each one reads are listed in
//! `tps_java_repro::cli::USAGE`, which a bad command line prints.

use std::io::{self, Write};
use std::process::ExitCode;
use tps_java_repro::cli;

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    match cli::dispatch(&args) {
        Ok(output) => match emit(io::stdout().lock(), &output) {
            Ok(()) => ExitCode::SUCCESS,
            Err(_) => ExitCode::FAILURE,
        },
        Err(err) => {
            let _ = emit(
                io::stderr().lock(),
                &format!("error: {err}\n{}\n", cli::USAGE),
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
