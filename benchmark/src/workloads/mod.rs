//! The four workloads and what they share: the round loop, the samples
//! behind the end-to-end metrics, and the correctness-check ledger.
//!
//! A run is a sequence of *rounds*. A round builds a fresh instance on the
//! workload's fixture metro with traffic from a sub-seed of `--seed`
//! (set-up, timed as such), then executes a fixed number of steps, each
//! timed on its own. Round sizes are constants, so a step does the same
//! work whichever commit is measured; `--seconds` only decides how many
//! rounds fit. Samples pool over rounds.

pub mod online;
pub mod probes;
pub mod serve;
pub mod solve;

use crate::env::Conditions;
use crate::metrics::{Acc, END_TO_END};
use crate::stats;
use crate::trace::Recorder;
use std::collections::BTreeMap;
use std::path::PathBuf;
use std::time::{Duration, Instant};

#[derive(Debug, Clone)]
pub struct Args {
    pub workload: String,
    pub seed: u64,
    pub seconds: f64,
    pub trace: bool,
    pub trace_out: Option<PathBuf>,
    /// One short round, every check on: the self-test's mode.
    pub smoke: bool,
}

/// Traffic seed of round `r`: round 0 runs on `--seed` itself, later
/// rounds on well-separated derived seeds, so two seeds share no traffic.
pub fn sub_seed(seed: u64, r: usize) -> u64 {
    seed.wrapping_add((r as u64).wrapping_mul(0x9E37_79B9_7F4A_7C15))
}

/// Samples behind the end-to-end metrics.
#[derive(Debug, Default)]
pub struct EndToEndSamples {
    pub setup_s: Vec<f64>,
    pub step_ms: Vec<f64>,
    /// Decisions issued inside timed steps.
    pub decided: u64,
    /// Requests offered inside timed steps, and how many were served at
    /// the edge (not shed, not sent to the cloud).
    pub offered: u64,
    pub served: u64,
    pub objective: Vec<f64>,
    /// Operations (steps and recoveries) attempted / failing a check.
    pub attempted: u64,
    pub failed: u64,
}

/// Everything a workload reads and writes while it runs.
pub struct Ctx {
    pub args: Args,
    pub cond: Conditions,
    pub started: Instant,
    pub rounds: usize,
    last_round: Duration,
    /// Σ step wall of round 0 of a traced run (the untraced reference).
    untraced_wall_ms: f64,
    /// `e2e.step_ms.len()` and `e2e.decided` at the end of each round.
    round_ends: Vec<(usize, u64)>,
    pub e2e: EndToEndSamples,
    pub acc: Acc,
    /// Present in a traced run, from the first traced round on.
    pub rec: Option<Recorder>,
    /// One line per failed correctness check.
    pub failures: Vec<String>,
    /// Informational fingerprints and counts, printed, never compared.
    /// `decision_digest` covers round 0 only (the round on `--seed`
    /// itself), so it repeats exactly for a seed whatever the run length.
    pub info: BTreeMap<&'static str, String>,
}

impl Ctx {
    pub fn new(args: Args, cond: Conditions) -> Self {
        Self {
            args,
            cond,
            started: Instant::now(),
            rounds: 0,
            last_round: Duration::ZERO,
            untraced_wall_ms: 0.0,
            round_ends: Vec::new(),
            e2e: EndToEndSamples::default(),
            acc: Acc::default(),
            rec: None,
            failures: Vec::new(),
            info: BTreeMap::new(),
        }
    }

    /// Divide a step count for the smoke run (1/20 length, at least `min`).
    pub fn scaled(&self, full: u32, min: u32) -> u32 {
        if self.args.smoke {
            (full / 20).max(min)
        } else {
            full
        }
    }

    /// Whether another round fits. A traced run makes at least two rounds
    /// (an untraced reference, then traced ones); a smoke run exactly that.
    pub fn more_rounds(&self) -> bool {
        let floor = if self.args.trace { 2 } else { 1 };
        if self.rounds < floor {
            return true;
        }
        if self.args.smoke {
            return false;
        }
        let spent = self.started.elapsed().as_secs_f64();
        spent + 0.5 * self.last_round.as_secs_f64() < self.args.seconds
    }

    /// Start a round; returns whether it is traced. A traced run keeps
    /// round 0 untraced as the overhead reference and traces from round 1
    /// on (the recorder appears then).
    pub fn begin_round(&mut self) -> bool {
        let traced = self.args.trace && self.rounds >= 1;
        if traced && self.rec.is_none() {
            self.rec = Some(Recorder::new());
        }
        traced
    }

    /// Traffic seed of the current round. Rounds 0 and 1 of a traced run
    /// share sub-seed 0, so they execute the same steps untraced and
    /// traced: their step-wall difference is the tracing overhead.
    pub fn round_seed(&self) -> u64 {
        let index = if self.args.trace {
            self.rounds.saturating_sub(1)
        } else {
            self.rounds
        };
        sub_seed(self.args.seed, index)
    }

    /// Close a round whose timed steps took `step_wall_ms` in total.
    pub fn end_round(&mut self, began: Instant, step_wall_ms: f64) {
        match (self.args.trace, self.rounds) {
            (true, 0) => self.untraced_wall_ms = step_wall_ms,
            (true, 1) if self.untraced_wall_ms > 0.0 => {
                let extra = step_wall_ms - self.untraced_wall_ms;
                self.acc
                    .push("harness.trace.overhead_frac", extra / self.untraced_wall_ms);
            }
            _ => {}
        }
        self.last_round = began.elapsed();
        self.rounds += 1;
        self.round_ends
            .push((self.e2e.step_ms.len(), self.e2e.decided));
    }

    /// `(step walls in ms, decisions)` of each finished round.
    fn by_round(&self) -> impl Iterator<Item = (&[f64], u64)> + '_ {
        let starts = std::iter::once((0, 0)).chain(self.round_ends.iter().copied());
        starts
            .zip(&self.round_ends)
            .map(|((a, d0), &(b, d1))| (&self.e2e.step_ms[a..b], d1 - d0))
    }

    /// Median step wall of each round, ms: drift across a run shows here.
    pub fn round_medians(&self) -> Vec<f64> {
        self.by_round()
            .filter_map(|(steps, _)| stats::median(steps))
            .collect()
    }

    /// Decisions ÷ Σ step wall of each round, 1/s.
    fn round_rates(&self) -> Vec<f64> {
        self.by_round()
            .map(|(steps, decided)| (decided as f64, steps.iter().sum::<f64>() / 1e3))
            .filter(|&(_, wall)| wall > 0.0)
            .map(|(decided, wall)| decided / wall)
            .collect()
    }

    /// Record a correctness check; a failure invalidates the run.
    pub fn check(&mut self, ok: bool, what: impl FnOnce() -> String) -> bool {
        if !ok {
            self.e2e.failed += 1;
            if self.failures.len() < 20 {
                self.failures.push(what());
            }
        }
        ok
    }

    /// The end-to-end metrics, in contract order. A value that cannot be
    /// formed (no samples, too few for the percentile) fails the run.
    pub fn end_to_end(&mut self) -> Vec<(&'static str, &'static str, f64)> {
        let e = &self.e2e;
        let values: Vec<Option<f64>> = END_TO_END
            .iter()
            .map(|m| match m.name {
                "setup_s" => stats::median(&e.setup_s),
                "decisions_per_s" => stats::median(&self.round_rates()),
                "step_ms_p50" => stats::median(&e.step_ms),
                "step_ms_p90" => stats::tail_percentile(&e.step_ms, 0.90),
                "served_frac" => (e.offered > 0).then(|| e.served as f64 / e.offered as f64),
                "objective_mean" => stats::mean(&e.objective),
                "peak_rss_mb" => Some(crate::env::peak_rss_mib()),
                _ => None,
            })
            .collect();
        let smoke = self.args.smoke;
        let steps = e.step_ms.len();
        END_TO_END
            .iter()
            .zip(values)
            .map(|(m, v)| {
                // The smoke run is too short for a p90; it still names it.
                let v = if smoke && m.name == "step_ms_p90" {
                    v.or(Some(0.0))
                } else {
                    v
                };
                let v = v.filter(|x| x.is_finite());
                self.check(v.is_some(), || {
                    format!("{}: cannot be formed from {steps} timed steps", m.name)
                });
                (m.name, m.unit, v.unwrap_or(0.0))
            })
            .collect()
    }
}

/// Run the workload named in `ctx.args`.
pub fn run(ctx: &mut Ctx) -> Result<(), String> {
    socl::net::set_threads(ctx.cond.threads);
    match ctx.args.workload.as_str() {
        "serve-steady" => serve::run(ctx, &serve::STEADY),
        "serve-flash-crash" => serve::run(ctx, &serve::FLASH_CRASH),
        "solve-metro" => solve::run(ctx),
        "online-churn" => online::run(ctx),
        other => return Err(format!("unknown workload {other}")),
    }
    Ok(())
}

/// FNV-1a over 64-bit words: the informational decision fingerprints.
pub fn fingerprint(words: impl IntoIterator<Item = u64>) -> u64 {
    let mut h = 0xcbf2_9ce4_8422_2325u64;
    for w in words {
        for b in w.to_le_bytes() {
            h ^= u64::from(b);
            h = h.wrapping_mul(0x0000_0100_0000_01b3);
        }
    }
    h
}

/// Milliseconds in a duration.
pub fn ms(d: Duration) -> f64 {
    d.as_secs_f64() * 1e3
}
