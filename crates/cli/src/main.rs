//! `socl` — command-line interface for the SoCL reproduction.
//!
//! `socl help` prints the commands and their flags ([`commands::USAGE`]);
//! a command rejects any flag its entry there does not list.
//!
//! Every command additionally accepts the global `--threads N` flag, which
//! sizes the worker pool of the parallel hot paths (0 = auto-detect, 1 =
//! fully serial). Results are identical for every thread count.
//!
//! Argument parsing is hand-rolled (`--key value` pairs) to keep the binary
//! dependency-free; see [`args::Args`].

/// `println!` for command output: once the reader has closed stdout
/// (`socl solve | head -2`), the process stops quietly with status 0
/// instead of panicking with a backtrace.
macro_rules! out {
    ($($arg:tt)*) => {
        $crate::write_line(format_args!($($arg)*))
    };
}

mod args;
mod commands;

use args::Args;
use std::io::{ErrorKind, Write as _};

/// One line of command output; see [`out!`].
fn write_line(line: std::fmt::Arguments<'_>) {
    if let Err(e) = writeln!(std::io::stdout(), "{line}") {
        if e.kind() == ErrorKind::BrokenPipe {
            std::process::exit(0);
        }
        eprintln!("error: writing to stdout: {e}");
        std::process::exit(1);
    }
}

fn main() {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let code = run(&argv);
    std::process::exit(code);
}

fn run(argv: &[String]) -> i32 {
    let Some((command, rest)) = argv.split_first() else {
        eprintln!("{}", commands::USAGE);
        return 2;
    };
    if matches!(command.as_str(), "help" | "--help" | "-h") {
        out!("{}", commands::USAGE);
        return 0;
    }
    match dispatch(command, rest) {
        Ok(()) => 0,
        Err(e) => {
            eprintln!("error: {e}");
            eprintln!("{}", commands::USAGE);
            2
        }
    }
}

fn dispatch(command: &str, rest: &[String]) -> Result<(), String> {
    let run: fn(&Args) -> Result<(), String> = match command {
        "solve" => commands::solve,
        "compare" => commands::compare,
        "simulate" => commands::simulate,
        "testbed" => commands::testbed,
        "autoscale" => commands::autoscale,
        "trace" => commands::trace,
        "serve" => commands::serve,
        "export" => commands::export,
        other => return Err(format!("unknown command `{other}`")),
    };
    let args = commands::parse_args(command, rest)?;
    // Global flag: worker threads for the parallel hot paths (0 = auto).
    socl::net::set_threads(args.get("threads", 0)?);
    run(&args)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn s(v: &[&str]) -> Vec<String> {
        v.iter().map(|x| x.to_string()).collect()
    }

    #[test]
    fn no_args_prints_usage() {
        assert_eq!(run(&[]), 2);
    }

    #[test]
    fn unknown_command_rejected() {
        assert_eq!(run(&s(&["frobnicate"])), 2);
        assert_eq!(run(&s(&["resilience"])), 2);
        assert_eq!(run(&s(&["chaos"])), 2);
    }

    #[test]
    fn help_succeeds() {
        assert_eq!(run(&s(&["help"])), 0);
    }

    #[test]
    fn solve_runs_tiny() {
        assert_eq!(
            run(&s(&[
                "solve", "--nodes", "5", "--users", "8", "--seed", "1"
            ])),
            0
        );
    }

    #[test]
    fn chaos_dispatches_and_validates_flags() {
        // `chaos` is retired: an old invocation, flags and all, is refused
        // as an unknown command before anything runs.
        assert_eq!(run(&s(&["chaos", "--torn", "shredded"])), 2);
    }

    #[test]
    fn bad_flag_value_rejected() {
        assert_eq!(run(&s(&["solve", "--nodes", "banana"])), 2);
    }

    #[test]
    fn threads_flag_is_accepted_and_validated() {
        assert_eq!(
            run(&s(&[
                "solve",
                "--nodes",
                "5",
                "--users",
                "8",
                "--seed",
                "1",
                "--threads",
                "2"
            ])),
            0
        );
        assert_eq!(run(&s(&["solve", "--threads", "lots"])), 2);
        socl::net::set_threads(0);
    }
}
