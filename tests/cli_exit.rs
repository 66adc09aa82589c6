//! Exit codes of `tps-java-repro` when nobody reads its output: a
//! reader that stops early (`| head -1`) must not turn a bad command
//! line or a finished run into a panic.

use std::process::Command;

/// Runs the binary with `args`, its stdout and stderr on a pipe whose
/// reader is already closed, and returns its exit code.
fn exit_code_into_closed_pipe(args: &[&str]) -> Option<i32> {
    let (reader, writer) = std::io::pipe().expect("pipe");
    drop(reader);
    Command::new(env!("CARGO_BIN_EXE_tps-java-repro"))
        .args(args)
        .stdout(writer.try_clone().expect("clone pipe"))
        .stderr(writer)
        .status()
        .expect("spawn tps-java-repro")
        .code()
}

/// An unknown flag, and a flag the subcommand does not read, which it
/// used to drop silently.
#[test]
fn bad_command_line_exits_2_into_a_closed_pipe() {
    for args in [["run", "--bogus"], ["traffic", "--profile"]] {
        assert_eq!(exit_code_into_closed_pipe(&args), Some(2), "{args:?}");
    }
}

/// A scale past the cap used to reach a guest-OOM or kernel-fit panic
/// (exit 101) instead of the parser.
#[test]
fn oversized_scale_exits_2_into_a_closed_pipe() {
    for scale in ["30000", "100000"] {
        let args = ["run", "--guests", "2", "--scale", scale, "--minutes", "0.1"];
        assert_eq!(
            exit_code_into_closed_pipe(&args),
            Some(2),
            "--scale {scale}"
        );
    }
}

#[test]
fn finished_run_exits_0_into_a_closed_pipe() {
    assert_eq!(exit_code_into_closed_pipe(&["scenario", "list"]), Some(0));
}
