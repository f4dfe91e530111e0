//! `socl` — command-line interface for the SoCL reproduction.
//!
//! ```text
//! socl solve    [--nodes N] [--users U] [--seed S] [--budget B] [--lambda L]
//!               [--algo socl|rp|jdr|gcog|opt] [--omega W] [--xi X] [--theta T]
//!               [--node-limit N]
//! socl compare  [--nodes N] [--users U] [--seed S] [--budget B]
//! socl simulate [--nodes N] [--users U] [--slots K] [--seed S]
//!               [--policy socl|rp|jdr] [--fail-prob P]
//!               [--mid-slot-fail-prob P] [--recover-prob P] [--repair]
//! socl testbed  [--nodes N] [--users U] [--seed S] [--epochs E]
//!               [--algo socl|rp|jdr] [--fault-intensity F]
//!               [--schedule targeted|noncritical|random] [--retries R]
//!               [--timeout SECS] [--hedge SECS] [--no-degrade]
//!               [--cold-start SECS] [--keep-warm SECS] [autoscaler flags]
//! socl autoscale [--nodes N] [--users U] [--seed S] [--epochs E]
//!               [--surge REQS] [--cold-start SECS] [autoscaler flags]
//! socl trace    [--seed S]
//! socl resilience [--nodes N] [--seed S] [--top K]
//!               [--schedule targeted|noncritical|random]
//! socl chaos    [--nodes N] [--users U] [--slots K] [--policy socl|rp|jdr]
//!               [--seeds S1,S2,..] [--kill-slots K1,K2,..]
//!               [--checkpoint-every N] [--guided N] [--torn MODE,..]
//! socl serve    [--nodes N] [--regions R] [--shards S] [--users U]
//!               [--ticks T] [--rate R] [--shape flash|diurnal] [--seed S]
//!               [--policy socl|rp|jdr] [--kill-shard K] [--kill-at T]
//!               [--torn clean|garbage|partial] [--csv]
//! ```
//!
//! Every command additionally accepts the global `--threads N` flag, which
//! sizes the worker pool of the parallel hot paths (0 = auto-detect, 1 =
//! fully serial). Results are identical for every thread count.
//!
//! Argument parsing is hand-rolled (`--key value` pairs) to keep the binary
//! dependency-free; see [`args::Args`].

mod args;
mod commands;

use args::Args;

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
    let args = match Args::parse(rest) {
        Ok(a) => a,
        Err(e) => {
            eprintln!("error: {e}");
            eprintln!("{}", commands::USAGE);
            return 2;
        }
    };
    // Global flag: worker threads for the parallel hot paths (0 = auto).
    match args.get::<usize>("threads", 0) {
        Ok(threads) => socl::net::set_threads(threads),
        Err(e) => {
            eprintln!("error: {e}");
            eprintln!("{}", commands::USAGE);
            return 2;
        }
    }
    let result = match command.as_str() {
        "solve" => commands::solve(&args),
        "compare" => commands::compare(&args),
        "simulate" => commands::simulate(&args),
        "testbed" => commands::testbed(&args),
        "autoscale" => commands::autoscale(&args),
        "trace" => commands::trace(&args),
        "resilience" => commands::resilience(&args),
        "chaos" => commands::chaos(&args),
        "serve" => commands::serve(&args),
        "export" => commands::export(&args),
        "help" | "--help" | "-h" => {
            println!("{}", commands::USAGE);
            Ok(())
        }
        other => Err(format!("unknown command `{other}`")),
    };
    match result {
        Ok(()) => 0,
        Err(e) => {
            eprintln!("error: {e}");
            eprintln!("{}", commands::USAGE);
            2
        }
    }
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
        // Flag validation happens before any soak run, so this is cheap.
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
