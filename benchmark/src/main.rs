//! The SoCL control-plane benchmark: serve tick, SoCL solve, online slot
//! and recovery — end to end and layer by layer. See README.md.
//!
//! ```sh
//! cargo run --release --manifest-path benchmark/Cargo.toml -- --all [--seed N]
//! cargo run --release --manifest-path benchmark/Cargo.toml -- \
//!     --workload serve-steady --seed 17 --seconds 25 --trace 0
//! ```
//!
//! Exit code 0: ran and every correctness check passed; 1: a check failed;
//! 2: bad usage, or a build with `debug_assertions` asked to measure.

mod env;
mod json;
mod metrics;
mod report;
mod stats;
mod trace;
mod workloads;

use metrics::{Better, END_TO_END, RUN_SECONDS, WORKLOADS};
use std::process::{Command, ExitCode, Stdio};
use workloads::{Args, Ctx};

const USAGE: &str = "usage: socl-benchmark \
    (--workload <name> | --all | --repeat <k> | --smoke | --print-contract) \
    [--seed <n>] [--seconds <s>] [--trace <0|1>] [--trace-out <file>]";

enum Mode {
    One,
    All,
    Repeat(usize),
    Smoke,
    PrintContract,
}

fn parse(argv: &[String]) -> Result<(Mode, Args), String> {
    let mut mode = None;
    let mut args = Args {
        workload: String::new(),
        seed: 17,
        seconds: f64::from(RUN_SECONDS),
        trace: false,
        trace_out: None,
        smoke: false,
    };
    let mut it = argv.iter();
    while let Some(flag) = it.next() {
        let mut value = || it.next().ok_or_else(|| format!("{flag} needs a value"));
        match flag.as_str() {
            "--workload" => {
                args.workload = value()?.clone();
                mode = Some(Mode::One);
            }
            "--all" => mode = Some(Mode::All),
            "--repeat" => {
                let k = value()?.parse().map_err(|_| "--repeat takes a count")?;
                mode = Some(Mode::Repeat(k));
            }
            "--smoke" => {
                args.smoke = true;
                mode.get_or_insert(Mode::Smoke);
            }
            "--print-contract" => mode = Some(Mode::PrintContract),
            "--seed" => args.seed = value()?.parse().map_err(|_| "--seed takes an integer")?,
            "--seconds" => {
                args.seconds = value()?.parse().map_err(|_| "--seconds takes a number")?;
            }
            "--trace" => {
                args.trace = match value()?.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err("--trace takes 0 or 1 (spans go to --trace-out <file>)".into()),
                }
            }
            "--trace-out" => args.trace_out = Some(value()?.into()),
            other => return Err(format!("unknown argument {other}")),
        }
    }
    if matches!(mode, Some(Mode::One)) && !WORKLOADS.iter().any(|w| w.name == args.workload) {
        let names: Vec<_> = WORKLOADS.iter().map(|w| w.name).collect();
        return Err(format!(
            "unknown workload {}; one of {}",
            args.workload,
            names.join(", ")
        ));
    }
    if !(args.seconds > 0.0 && args.seconds <= 60.0) {
        return Err("--seconds must be in (0, 60]".into());
    }
    mode.map(|m| (m, args))
        .ok_or_else(|| "nothing to do".into())
}

/// Run one workload in this process and print its record and result line.
fn run_one(args: Args) -> Result<bool, String> {
    let mut ctx = Ctx::new(args.clone(), env::Conditions::detect(args.seed));
    workloads::run(&mut ctx)?;
    if let (Some(path), Some(rec)) = (&args.trace_out, &ctx.rec) {
        rec.write(path)
            .map_err(|e| format!("{}: {e}", path.display()))?;
    }
    let metrics = report::metrics(&mut ctx);
    report::print_record(&ctx, &metrics);
    println!("{}", report::result_line(&ctx, &metrics));
    Ok(report::is_correct(&ctx))
}

fn child(workload: &str, args: &Args, trace: bool) -> Command {
    let exe = std::env::current_exe().unwrap_or_else(|_| "socl-benchmark".into());
    let mut cmd = Command::new(exe);
    cmd.args(["--workload", workload])
        .args(["--seed", &args.seed.to_string()])
        .args(["--seconds", &args.seconds.to_string()])
        .args(["--trace", if trace { "1" } else { "0" }]);
    cmd
}

/// Every workload, untraced then traced, each in its own process.
fn run_all(args: &Args) -> bool {
    let mut ok = true;
    for w in WORKLOADS {
        for trace in [false, true] {
            let status = child(w.name, args, trace).stdout(Stdio::inherit()).status();
            ok &= status.is_ok_and(|s| s.success());
        }
    }
    println!(
        "# --all: {}",
        if ok { "every check passed" } else { "FAILED" }
    );
    ok
}

/// The value of `name` in a result line this program printed.
fn metric_in(line: &str, name: &str) -> Option<f64> {
    let key = format!("{}: {{\"value\": ", json::string(name));
    let rest = &line[line.find(&key)? + key.len()..];
    rest[..rest.find([',', '}'])?].trim().parse().ok()
}

/// `k` untraced sets; per metric x workload the median, quartiles and
/// (max - min) / median, and PASS / FAIL of the IQR against the bound.
fn run_repeat(k: usize, args: &Args) -> bool {
    let mut ok = true;
    println!(
        "| workload | metric | median | q1 | q3 | iqr/median | (max-min)/median | bound | verdict |"
    );
    println!("|---|---|---|---|---|---|---|---|---|");
    for w in WORKLOADS {
        let mut lines = Vec::new();
        for set in 0..k {
            let run = Args {
                seed: args.seed + set as u64,
                ..args.clone()
            };
            let out = child(w.name, &run, false).output();
            let line = out.ok().filter(|o| o.status.success()).and_then(|o| {
                String::from_utf8_lossy(&o.stdout)
                    .lines()
                    .last()
                    .map(str::to_string)
            });
            match line {
                Some(l) => lines.push(l),
                None => {
                    println!("| {} | run {set} failed | | | | | | | FAIL |", w.name);
                    ok = false;
                }
            }
        }
        for m in END_TO_END {
            let values: Vec<f64> = lines.iter().filter_map(|l| metric_in(l, m.name)).collect();
            let (Some((q1, q2, q3)), Some(spread)) =
                (stats::quartiles(&values), stats::iqr_over_median(&values))
            else {
                continue;
            };
            let lo = values.iter().copied().fold(f64::INFINITY, f64::min);
            let hi = values.iter().copied().fold(f64::NEG_INFINITY, f64::max);
            let pass = spread <= m.bound || m.name == "setup_s";
            ok &= pass;
            println!(
                "| {} | {} ({}, {}) | {q2:.4} | {q1:.4} | {q3:.4} | {spread:.4} | {:.4} | {} | {} |",
                w.name,
                m.name,
                m.unit,
                if m.better == Better::Higher { "higher" } else { "lower" },
                (hi - lo) / q2.abs(),
                m.bound,
                if pass { "PASS" } else { "FAIL" },
            );
        }
    }
    ok
}

/// Every workload, one short untraced and one short traced round, in
/// this process; returns the names each printed and whether checks held.
fn run_smoke(args: &Args) -> Result<bool, String> {
    let mut ok = true;
    for w in WORKLOADS {
        for trace in [false, true] {
            ok &= run_one(Args {
                workload: w.name.into(),
                trace,
                smoke: true,
                ..args.clone()
            })?;
        }
    }
    Ok(ok)
}

fn main() -> ExitCode {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let (mode, args) = match parse(&argv) {
        Ok(parsed) => parsed,
        Err(e) => {
            eprintln!("error: {e}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    if cfg!(debug_assertions) && !matches!(mode, Mode::PrintContract) {
        eprintln!("error: built with debug_assertions; measure a --release build");
        return ExitCode::from(2);
    }
    let ok = match mode {
        Mode::One => run_one(args),
        Mode::All => Ok(run_all(&args)),
        Mode::Repeat(k) => Ok(run_repeat(k, &args)),
        Mode::Smoke => run_smoke(&args),
        Mode::PrintContract => {
            print!("{}", metrics::contract_json());
            Ok(true)
        }
    };
    match ok {
        Ok(true) => ExitCode::SUCCESS,
        Ok(false) => ExitCode::from(1),
        Err(e) => {
            eprintln!("error: {e}");
            ExitCode::from(2)
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn argv(s: &str) -> Vec<String> {
        s.split_whitespace().map(str::to_string).collect()
    }

    #[test]
    fn the_driver_invocation_parses() {
        let (mode, args) = parse(&argv(
            "--workload solve-metro --seed 9 --seconds 25 --trace 1",
        ))
        .unwrap();
        assert!(matches!(mode, Mode::One));
        assert_eq!(
            (args.workload.as_str(), args.seed, args.seconds, args.trace),
            ("solve-metro", 9, 25.0, true)
        );
        assert!(parse(&argv("--workload nope")).is_err());
        assert!(parse(&argv("--workload solve-metro --trace spans.json")).is_err());
        assert!(parse(&argv("--seed 3")).is_err());
        assert!(parse(&argv("--all --seconds 0")).is_err());
    }

    #[test]
    fn result_lines_round_trip_through_the_extractor() {
        let line = "{\"correct\": true, \"attempted\": 3, \"failed\": 0, \"metrics\": \
                    {\"setup_s\": {\"value\": 0.8127, \"unit\": \"s\"}, \
                    \"step_ms_p50\": {\"value\": 1.25e-3, \"unit\": \"ms\"}}}";
        assert_eq!(metric_in(line, "setup_s"), Some(0.8127));
        assert_eq!(metric_in(line, "step_ms_p50"), Some(0.00125));
        assert_eq!(metric_in(line, "step_ms_p90"), None);
    }

    /// Every workload at 1/20 length with every check on: the names each
    /// run emits are exactly the names BENCHMARK.json declares, and every
    /// declared per-layer metric is fed by at least one workload.
    #[test]
    #[cfg_attr(debug_assertions, ignore = "measures; run with `cargo test --release`")]
    fn smoke_emits_exactly_the_declared_names() {
        let mut touched = std::collections::BTreeSet::new();
        for w in WORKLOADS {
            for trace in [false, true] {
                let args = Args {
                    workload: w.name.into(),
                    seed: 17,
                    seconds: 1.0,
                    trace,
                    trace_out: None,
                    smoke: true,
                };
                let mut ctx = Ctx::new(args, env::Conditions::detect(17));
                workloads::run(&mut ctx).unwrap();
                let metrics = report::metrics(&mut ctx);
                let emitted: Vec<&str> = metrics.iter().map(|(name, _, _)| *name).collect();
                let declared: Vec<&str> = if trace {
                    metrics::PER_LAYER.iter().map(|l| l.name).collect()
                } else {
                    END_TO_END.iter().map(|m| m.name).collect()
                };
                assert_eq!(emitted, declared, "{} --trace {trace}", w.name);
                assert!(report::is_correct(&ctx), "{}: {:?}", w.name, ctx.failures);
                let line = report::result_line(&ctx, &metrics);
                assert!(line.starts_with("{\"correct\": true, \"attempted\": "));
                touched.extend(ctx.acc.finalize().1);
            }
        }
        let unfed: Vec<&str> = metrics::PER_LAYER
            .iter()
            .map(|l| l.name)
            .filter(|n| !touched.contains(n))
            .collect();
        assert!(unfed.is_empty(), "declared but never measured: {unfed:?}");
    }
}
