//! Command implementations.

use crate::args::Args;
use socl::net::time::Stopwatch;
use socl::prelude::*;
use socl::trace::similarity::{offdiag_max, offdiag_mean};

/// Top-level usage text.
pub const USAGE: &str = "\
socl — SoCL microservice provisioning (CLUSTER 2025 reproduction)

USAGE:
  socl solve    [--nodes N] [--users U] [--seed S] [--budget B] [--lambda L]
                [--algo socl|rp|jdr|gcog|opt] [--omega W] [--xi X] [--theta T]
                [--node-limit N] [--verbose]
  socl compare  [--nodes N] [--users U] [--seed S] [--budget B] [--lambda L]
  socl simulate [--nodes N] [--users U] [--slots K] [--seed S]
                [--policy socl|rp|jdr] [--fail-prob P]
                [--mid-slot-fail-prob P] [--recover-prob P] [--repair]
                [autoscaler flags]
  socl testbed  [--nodes N] [--users U] [--seed S] [--budget B] [--lambda L]
                [--epochs E] [--algo socl|rp|jdr] [--fault-intensity F]
                [--retries R] [--timeout SECS] [--hedge SECS] [--no-degrade]
                [--cold-start SECS] [--keep-warm SECS] [autoscaler flags]
  socl autoscale [--nodes N] [--users U] [--seed S] [--budget B] [--lambda L]
                [--epochs E] [--surge REQS] [--cold-start SECS]
                [autoscaler flags]
  socl trace    [--seed S]
  socl serve    [--nodes N] [--regions R] [--shards S] [--users U]
                [--ticks T] [--rate R] [--shape flash|diurnal] [--seed S]
                [--policy socl|rp|jdr] [--kill-shard K] [--kill-at T]
                [--torn clean|garbage|partial] [--csv]
  socl export   [--nodes N] [--users U] [--seed S] [--budget B] [--lambda L]
                [--solve]
  socl help

Autoscaler flags (testbed, simulate, autoscale):
  --autoscale MODE           static|reactive — run the serverless
                             control plane; replica pools track concurrency
  --target-concurrency C     in-flight requests one replica should absorb
  --scale-interval SECS      control-loop period
  --min-replicas R           per-service floor (0 allows scale-to-zero)
  --max-replicas-per-node R  per-cell ceiling (storage may bind first)
  --admission                enable priority-classed load shedding

Global flags (any command):
  --threads N   worker threads for the parallel hot paths (0 = auto, 1 = serial;
                output is identical for every thread count)

A command accepts only the flags listed for it; any other flag is an error.
Defaults follow the paper's setup: 10 nodes, 40 users, budget 6000, λ=0.5
(`testbed`: the paper's 8-node testbed with 50 users).
`solve --algo opt` runs the exact branch-and-bound; --node-limit N caps
the nodes it expands (default 50000000), and a capped run prints its gap
instead of `proved optimal`.
`autoscale` replays a flash-crowd workload under every scaling mode and
prints a latency/replica-seconds comparison. `export` prints a scenario
snapshot as JSON to stdout (add --solve to append the SoCL placement
snapshot), for inspection or other tools; no command reads it back.
`serve` runs the sharded control-plane service: a persistent event loop
that partitions the base-station graph into regions, streams a synthetic
user population through bounded per-region queues into the admission
controller, routes admitted chains against an epoch-refreshed placement,
and journals every region to a checkpoint + WAL substrate. Optional
--kill-shard K --kill-at T kills shard K at tick T and restores it from
its checkpoint, replaying the WAL; the stitched state must be
bit-identical to never having crashed.";

/// The flags `command` accepts: every `--flag` its [`USAGE`] entry names
/// (`[autoscaler flags]` expanded), plus the global `--threads`.
pub fn flags_of(command: &str) -> Vec<&'static str> {
    fn names(text: &'static str) -> impl Iterator<Item = &'static str> {
        text.split("--").skip(1).map(|rest| {
            let end = rest
                .find(|c: char| !(c.is_ascii_alphanumeric() || c == '-'))
                .unwrap_or(rest.len());
            &rest[..end]
        })
    }
    let head = format!("  socl {command} ");
    let mut flags = vec!["threads"];
    let mut lines = USAGE.lines().skip_while(|l| !l.starts_with(&head));
    if let Some(first) = lines.next() {
        // An entry's continuation lines are indented past `  socl`.
        for line in std::iter::once(first).chain(lines.take_while(|l| l.starts_with("   "))) {
            flags.extend(names(line));
            if line.contains("[autoscaler flags]") {
                let (_, section) = USAGE.split_once("\nAutoscaler flags").unwrap_or_default();
                flags.extend(names(section.split("\n\n").next().unwrap_or_default()));
            }
        }
    }
    flags
}

/// Parse `argv` as `command`'s flags; a flag [`flags_of`] does not list
/// is an error, so a typo never runs with the default silently.
pub fn parse_args(command: &str, argv: &[String]) -> Result<Args, String> {
    let args = Args::parse(argv)?;
    let known = flags_of(command);
    if let Some(unknown) = args.keys().find(|k| !known.contains(k)) {
        return Err(format!("unknown flag --{unknown}"));
    }
    Ok(args)
}

/// The scenario the `--nodes --users --seed --budget --lambda` flags
/// describe, with `nodes` × `users` when those two are absent.
fn scenario_from(args: &Args, nodes: usize, users: usize) -> Result<Scenario, String> {
    let nodes: usize = args.get("nodes", nodes)?;
    let users: usize = args.get("users", users)?;
    let seed: u64 = args.get("seed", 42)?;
    let budget: f64 = args.get("budget", 6000.0)?;
    let lambda: f64 = args.get("lambda", 0.5)?;
    if nodes == 0 || users == 0 {
        return Err("--nodes and --users must be positive".into());
    }
    if !(0.0..=1.0).contains(&lambda) {
        return Err("--lambda must be in [0, 1]".into());
    }
    let mut cfg = ScenarioConfig::paper(nodes, users);
    cfg.budget = budget;
    cfg.lambda = lambda;
    Ok(cfg.build(seed))
}

fn socl_config_from(args: &Args) -> Result<SoclConfig, String> {
    let cfg = SoclConfig {
        omega: args.get("omega", 0.2)?,
        xi: args.get("xi", 2.0)?,
        theta: args.get("theta", 1.0)?,
        ..SoclConfig::default()
    };
    if cfg.omega <= 0.0 || cfg.omega > 1.0 {
        return Err("--omega must be in (0, 1]".into());
    }
    Ok(cfg)
}

/// Exact-solver options for `--algo opt`: `--node-limit N` caps the B&B
/// nodes expanded (default [`ExactOptions::default`]'s).
fn exact_options_from(args: &Args) -> Result<ExactOptions, String> {
    Ok(ExactOptions {
        node_limit: args.get("node-limit", ExactOptions::default().node_limit)?,
    })
}

/// The `--algo opt` status line: nodes expanded, bound, and proof or gap.
fn opt_verdict(res: &ExactSolution) -> String {
    format!(
        "nodes explored {}, bound {:.1}, {}",
        res.nodes,
        res.bound,
        if res.proved_optimal {
            "proved optimal".to_string()
        } else {
            format!("gap {:.2}%", res.gap() * 100.0)
        }
    )
}

/// Build the autoscaler configuration from CLI flags; `None` when
/// `--autoscale` was not given. Defaults mirror [`AutoscaleConfig::default`].
fn autoscale_from(args: &Args) -> Result<Option<AutoscaleConfig>, String> {
    let tag = args.get_str("autoscale", "");
    if tag.is_empty() {
        return Ok(None);
    }
    if tag == "true" {
        return Err("--autoscale needs a mode (static|reactive)".into());
    }
    let mode = ScalingMode::parse(&tag)?;
    let d = AutoscaleConfig::default();
    let cfg = AutoscaleConfig {
        mode,
        target_concurrency: args.get("target-concurrency", d.target_concurrency)?,
        scale_interval: args.get("scale-interval", d.scale_interval)?,
        min_replicas: args.get("min-replicas", d.min_replicas)?,
        max_replicas_per_node: args.get("max-replicas-per-node", d.max_replicas_per_node)?,
        admission: AdmissionPolicy {
            enabled: args.flag("admission"),
            ..d.admission
        },
        ..d
    };
    if cfg.target_concurrency <= 0.0 {
        return Err("--target-concurrency must be positive".into());
    }
    if cfg.scale_interval <= 0.0 {
        return Err("--scale-interval must be positive".into());
    }
    if cfg.max_replicas_per_node == 0 {
        return Err("--max-replicas-per-node must be at least 1".into());
    }
    Ok(Some(cfg))
}

/// Parse the `--policy` flag shared by `simulate` and `serve`.
fn policy_from(args: &Args) -> Result<Policy, String> {
    match args.get_str("policy", "socl").as_str() {
        "socl" => Ok(Policy::Socl(SoclConfig::default())),
        "rp" => Ok(Policy::Rp {
            seed: args.get("seed", 42)?,
        }),
        "jdr" => Ok(Policy::Jdr),
        other => Err(format!("unknown --policy `{other}`")),
    }
}

/// The result rows of `solve` and `compare`, printed as they come, and the
/// algorithms whose cost exceeds the budget: below the one-copy floor every
/// algorithm returns a placement over it, and a row does not say so.
struct Rows {
    budget: f64,
    over: Vec<&'static str>,
}

impl Rows {
    /// One result row; `fallbacks` counts the requests sent to the cloud
    /// because a service on their chain has no edge instance.
    fn print(
        &mut self,
        name: &'static str,
        objective: f64,
        cost: f64,
        latency: f64,
        secs: f64,
        fallbacks: usize,
    ) {
        out!(
            "{name:<6} objective {objective:>10.1}  cost {cost:>8.1}  latency {:>9.1} ms  time {:>8.3}s  fallbacks {fallbacks}",
            latency * 1e3,
            secs
        );
        if cost > self.budget {
            self.over.push(name);
        }
    }

    /// Names, after the rows, every algorithm whose cost exceeds the budget.
    fn close(self) {
        if !self.over.is_empty() {
            out!("over budget {}: {}", self.budget, self.over.join(", "));
        }
    }
}

/// `socl solve`.
pub fn solve(args: &Args) -> Result<(), String> {
    let sc = scenario_from(args, 10, 40)?;
    let algo = args.get_str("algo", "socl");
    out!(
        "scenario: {} nodes, {} users, {} services, budget {}, λ {}",
        sc.nodes(),
        sc.users(),
        sc.services(),
        sc.budget,
        sc.lambda
    );
    let mut rows = Rows {
        budget: sc.budget,
        over: Vec::new(),
    };
    let t = Stopwatch::start();
    match algo.as_str() {
        "socl" => {
            let cfg = socl_config_from(args)?;
            let res = SoclSolver::with_config(cfg).solve(&sc);
            let secs = t.elapsed().as_secs_f64();
            rows.print(
                "SoCL",
                res.objective(),
                res.evaluation.cost,
                res.evaluation.total_latency,
                secs,
                res.evaluation.cloud_fallbacks,
            );
            out!(
                "stages: partition {:?} | pre-provision {:?} | combine {:?}",
                res.timings.partition,
                res.timings.preprovision,
                res.timings.combine
            );
            out!(
                "combine: {} parallel + {} serial removals, {} rollbacks, {} migrations",
                res.combine_stats.large_removed,
                res.combine_stats.small_removed,
                res.combine_stats.rollbacks,
                res.combine_stats.migrations
            );
            if args.flag("verbose") {
                out!(
                    "combine work: {} trials scored, {} requests re-routed, {} rows patched, {} requests' rows filled at every node",
                    res.combine_stats.trials,
                    res.combine_stats.routes,
                    res.combine_stats.patched,
                    res.combine_stats.row_fills
                );
                out!("deployment map:");
                for m in sc.catalog.ids() {
                    let hosts = res.placement.hosts_of(m);
                    if hosts.is_empty() {
                        continue;
                    }
                    let hosts: Vec<String> = hosts.iter().map(|k| k.to_string()).collect();
                    out!(
                        "  {:<22} x{:<2} on {}",
                        sc.catalog.get(m).name,
                        hosts.len(),
                        hosts.join(", ")
                    );
                }
            }
        }
        "rp" => {
            let res = random_provisioning(&sc, args.get("seed", 42)?);
            rows.print(
                "RP",
                res.objective,
                res.cost,
                res.total_latency,
                t.elapsed().as_secs_f64(),
                res.cloud_fallbacks,
            );
        }
        "jdr" => {
            let res = jdr(&sc);
            rows.print(
                "JDR",
                res.objective,
                res.cost,
                res.total_latency,
                t.elapsed().as_secs_f64(),
                res.cloud_fallbacks,
            );
        }
        "gcog" => {
            let res = gc_og(&sc);
            rows.print(
                "GC-OG",
                res.objective,
                res.cost,
                res.total_latency,
                t.elapsed().as_secs_f64(),
                res.cloud_fallbacks,
            );
        }
        "opt" => {
            let res = solve_exact(&sc, &exact_options_from(args)?);
            let secs = t.elapsed().as_secs_f64();
            match &res.evaluation {
                Some(ev) => rows.print(
                    "OPT",
                    res.objective,
                    ev.cost,
                    ev.total_latency,
                    secs,
                    ev.cloud_fallbacks,
                ),
                None => out!("OPT found no feasible solution within the node limit"),
            }
            out!("{}", opt_verdict(&res));
        }
        other => return Err(format!("unknown --algo `{other}`")),
    }
    rows.close();
    Ok(())
}

/// `socl compare`.
pub fn compare(args: &Args) -> Result<(), String> {
    let sc = scenario_from(args, 10, 40)?;
    out!(
        "scenario: {} nodes, {} users, budget {}, λ {}\n",
        sc.nodes(),
        sc.users(),
        sc.budget,
        sc.lambda
    );
    let mut rows = Rows {
        budget: sc.budget,
        over: Vec::new(),
    };
    let t = Stopwatch::start();
    let socl = SoclSolver::new().solve(&sc);
    rows.print(
        "SoCL",
        socl.objective(),
        socl.evaluation.cost,
        socl.evaluation.total_latency,
        t.elapsed().as_secs_f64(),
        socl.evaluation.cloud_fallbacks,
    );
    for res in [
        random_provisioning(&sc, args.get("seed", 42)?),
        jdr(&sc),
        gc_og(&sc),
    ] {
        rows.print(
            res.name,
            res.objective,
            res.cost,
            res.total_latency,
            res.elapsed.as_secs_f64(),
            res.cloud_fallbacks,
        );
    }
    rows.close();
    Ok(())
}

/// `socl simulate`.
pub fn simulate(args: &Args) -> Result<(), String> {
    let policy = policy_from(args)?;
    let cfg = OnlineConfig {
        slots: args.get("slots", 12)?,
        users: args.get("users", 50)?,
        nodes: args.get("nodes", 16)?,
        seed: args.get("seed", 42)?,
        fail_prob: args.get("fail-prob", 0.0)?,
        mid_slot_fail_prob: args.get("mid-slot-fail-prob", 0.0)?,
        recover_prob: args.get("recover-prob", 0.5)?,
        repair: args.flag("repair"),
        autoscale: autoscale_from(args)?,
        ..OnlineConfig::default()
    };
    out!(
        "online simulation: {} nodes, {} users, {} slots, policy {}{}{}",
        cfg.nodes,
        cfg.users,
        cfg.slots,
        policy.name(),
        if cfg.repair { " (repair on)" } else { "" },
        cfg.autoscale
            .as_ref()
            .map(|a| format!(" (autoscale {})", a.mode.name()))
            .unwrap_or_default()
    );
    out!(
        "{:>4} {:>10} {:>9} {:>10} {:>10} {:>5} {:>5} {:>5} {:>5} {:>5} {:>5}",
        "slot",
        "objective",
        "cost",
        "mean(ms)",
        "max(ms)",
        "down",
        "fb",
        "crash",
        "churn",
        "repl",
        "shed"
    );
    let mut sim = OnlineSimulator::new(cfg);
    for r in sim.run(&policy) {
        out!(
            "{:>4} {:>10.1} {:>9.1} {:>10.2} {:>10.2} {:>5} {:>5} {:>5} {:>5} {:>5} {:>5}",
            r.slot,
            r.objective,
            r.cost,
            r.mean_latency * 1e3,
            r.max_latency * 1e3,
            r.failed_nodes,
            r.fallbacks,
            r.mid_slot_failures,
            r.repair_churn,
            r.replicas,
            r.shed_requests
        );
    }
    Ok(())
}

/// `socl testbed`.
pub fn testbed(args: &Args) -> Result<(), String> {
    // The paper's testbed: 8 nodes, 50 users.
    let sc = scenario_from(args, 8, 50)?;
    let placement = match args.get_str("algo", "socl").as_str() {
        "socl" => SoclSolver::new().solve(&sc).placement,
        "rp" => random_provisioning(&sc, args.get("seed", 42)?).placement,
        "jdr" => jdr(&sc).placement,
        other => return Err(format!("unknown --algo `{other}`")),
    };
    let epochs: usize = args.get("epochs", 4)?;
    let seed: u64 = args.get("seed", 42)?;
    let intensity: f64 = args.get("fault-intensity", 0.0)?;
    let base = TestbedConfig::default();
    let faults = if intensity > 0.0 {
        let horizon = epochs as f64 * base.epoch_secs;
        FaultPlan::at_intensity(horizon, intensity).generate(&sc.net, &placement, sc.users(), seed)
    } else {
        FaultSchedule::empty()
    };
    let hedge: f64 = args.get("hedge", 0.0)?;
    let retry = RetryPolicy {
        max_retries: args.get("retries", 0)?,
        timeout: args.get("timeout", f64::INFINITY)?,
        hedge_after: (hedge > 0.0).then_some(hedge),
    };
    let cold_start: f64 = args.get("cold-start", base.cold_start)?;
    let keep_warm: f64 = args.get("keep-warm", base.keep_warm)?;
    if cold_start < 0.0 || keep_warm < 0.0 {
        return Err("--cold-start and --keep-warm must be non-negative".into());
    }
    let cfg = TestbedConfig {
        epochs,
        seed,
        faults,
        retry,
        degrade_to_cloud: !args.flag("no-degrade"),
        cold_start,
        keep_warm,
        autoscale: autoscale_from(args)?,
        ..base
    };
    let res = run_testbed(&sc, &placement, &cfg);
    out!(
        "testbed: {} nodes, {} users, {} epochs",
        sc.nodes(),
        sc.users(),
        cfg.epochs
    );
    out!(
        "mean {:.2} ms, max {:.2} ms, cold starts {}, fallbacks {}",
        res.mean * 1e3,
        res.max * 1e3,
        res.cold_starts,
        res.fallbacks
    );
    if let Some(ac) = &cfg.autoscale {
        out!(
            "control plane ({}): {} scale-ups, {} scale-downs, {} shed, {:.0} replica-seconds, p99 {:.2} ms",
            ac.mode.name(),
            res.scale_up_events,
            res.scale_down_events,
            res.shed_requests,
            res.replica_seconds,
            res.latency_percentile(0.99) * 1e3
        );
    }
    if !cfg.faults.is_empty() || !cfg.retry.is_disabled() {
        let st = cfg.faults.stats();
        out!(
            "faults: {} crashes, {} link degrades, {} instance kills, {} losses (mttr {:.1} s)",
            st.node_crashes,
            st.link_degrades,
            st.instance_kills,
            st.request_losses,
            res.mttr
        );
        out!(
            "availability {:.4} | retried {} hedged {} timeouts {} | degraded {} dropped {} | effective mean {:.2} ms",
            res.availability,
            res.retried,
            res.hedged,
            res.timeouts,
            res.degraded,
            res.dropped,
            res.effective_mean(sc.cloud_penalty) * 1e3
        );
    }
    for (e, m) in res.per_epoch_mean.iter().enumerate() {
        out!("  epoch {e}: mean {:.2} ms", m * 1e3);
    }
    Ok(())
}

/// `socl autoscale` — replay a flash-crowd workload on the testbed under
/// every scaling mode and compare latency against replica-seconds billed.
pub fn autoscale(args: &Args) -> Result<(), String> {
    let sc = scenario_from(args, 10, 40)?;
    let placement = SoclSolver::new().solve(&sc).placement;
    let epochs: usize = args.get("epochs", 4)?;
    if epochs == 0 {
        return Err("--epochs must be positive".into());
    }
    let seed: u64 = args.get("seed", 42)?;
    let base = TestbedConfig::default();
    let cold_start: f64 = args.get("cold-start", base.cold_start)?;
    if cold_start < 0.0 {
        return Err("--cold-start must be non-negative".into());
    }

    // Flash crowd: quiet epochs, then one epoch with `surge` requests, then
    // quiet again. The surge lands two-thirds into the run.
    let quiet = sc.users();
    let surge: usize = args.get("surge", quiet * 8)?;
    let peak = (epochs * 2 / 3).min(epochs - 1);
    let arrivals: Vec<usize> = (0..epochs)
        .map(|e| if e == peak { surge } else { quiet })
        .collect();

    // The scaled modes share every knob except the mode itself; static and
    // max-scale are the two extremes they are judged against. Without
    // explicit autoscaler flags, use a control loop tight enough that a few
    // 30-second epochs hold several scaling decisions — the library defaults
    // are tuned for long-running deployments and would sit still here.
    let knobs = autoscale_from(args)?.unwrap_or_else(|| AutoscaleConfig {
        target_concurrency: 1.0,
        stable_window: 10.0,
        panic_window: 4.0,
        scale_interval: 1.0,
        down_cooldown: 10.0,
        min_replicas: 1,
        keep_alive: KeepAlivePolicy::Fixed(15.0),
        ..AutoscaleConfig::default()
    });
    let modes: Vec<(&str, AutoscaleConfig)> = vec![
        (
            "static",
            AutoscaleConfig {
                mode: ScalingMode::Static,
                min_replicas: 1,
                ..knobs.clone()
            },
        ),
        (
            "reactive",
            AutoscaleConfig {
                mode: ScalingMode::Reactive,
                ..knobs.clone()
            },
        ),
        (
            "max-scale",
            AutoscaleConfig {
                max_replicas_per_node: knobs.max_replicas_per_node,
                ..AutoscaleConfig::max_scale()
            },
        ),
    ];

    out!(
        "autoscale comparison: {} nodes, {} users, {} epochs, surge {} requests at epoch {}",
        sc.nodes(),
        sc.users(),
        epochs,
        surge,
        peak
    );
    out!(
        "{:>10} {:>10} {:>10} {:>6} {:>6} {:>6} {:>6} {:>12}",
        "mode",
        "mean(ms)",
        "p99(ms)",
        "cold",
        "ups",
        "downs",
        "shed",
        "repl-seconds"
    );
    for (name, ac) in modes {
        let cfg = TestbedConfig {
            epochs,
            seed,
            cold_start,
            epoch_arrivals: Some(arrivals.clone()),
            autoscale: Some(ac),
            ..base.clone()
        };
        let res = run_testbed(&sc, &placement, &cfg);
        out!(
            "{:>10} {:>10.2} {:>10.2} {:>6} {:>6} {:>6} {:>6} {:>12.0}",
            name,
            res.mean * 1e3,
            res.latency_percentile(0.99) * 1e3,
            res.cold_starts,
            res.scale_up_events,
            res.scale_down_events,
            res.shed_requests,
            res.replica_seconds
        );
    }
    Ok(())
}

/// `socl trace`.
pub fn trace(args: &Args) -> Result<(), String> {
    let seed: u64 = args.get("seed", 42)?;
    let g = TraceGenerator::new(seed);
    let all = g.sample_all(seed ^ 1);
    let m = similarity_matrix(&all, |a, b| cosine_similarity(&a.usage, &b.usage));
    let n = all.len();
    out!("service similarity (cosine, {n}x{n}): ");
    out!(
        "  off-diagonal mean {:.3}, max {:.3}",
        offdiag_mean(&m, n),
        offdiag_max(&m, n)
    );

    let w = TemporalWorkload::generate(&TemporalConfig::default(), seed);
    out!("temporal workload (120 x 5-minute bins):");
    out!(
        "  mean {:.1}, peak-to-mean {:.2}, cv {:.2}, bursts {}",
        w.mean(),
        w.peak_to_mean(),
        socl::trace::coefficient_of_variation(&w.volumes),
        socl::trace::burst_count(&w.volumes, 1.5)
    );
    Ok(())
}

/// `socl export`.
pub fn export(args: &Args) -> Result<(), String> {
    use socl::model::{PlacementSnapshot, ScenarioSnapshot};
    let sc = scenario_from(args, 10, 40)?;
    out!("{}", ScenarioSnapshot::capture(&sc).to_json());
    if args.flag("solve") {
        let res = SoclSolver::new().solve(&sc);
        out!("{}", PlacementSnapshot::capture(&res.placement).to_json());
    }
    Ok(())
}

/// `socl serve` — run the sharded control-plane service.
pub fn serve(args: &Args) -> Result<(), String> {
    let seed: u64 = args.get("seed", 42)?;
    let ticks: u32 = args.get("ticks", 60)?;
    let kill_shard: i64 = args.get("kill-shard", -1)?;
    let kill_at: u32 = args.get("kill-at", 0)?;
    let csv = args.flag("csv");
    let shape = match args.get_str("shape", "flash").as_str() {
        "flash" => TemporalConfig::flash_crowd(),
        "diurnal" => TemporalConfig::diurnal(),
        other => return Err(format!("unknown --shape `{other}`")),
    };
    let torn = match args.get_str("torn", "partial").as_str() {
        "clean" => TornTail::Clean,
        "garbage" => TornTail::Garbage,
        "partial" => TornTail::PartialRecord,
        other => return Err(format!("unknown --torn `{other}`")),
    };
    let cfg = ServeConfig {
        nodes: args.get("nodes", 16)?,
        regions: args.get("regions", 4)?,
        shards: args.get("shards", 4)?,
        policy: policy_from(args)?,
        feed: FeedConfig {
            // User ids are 32-bit: a larger population is a usage error.
            users: args.get::<u32>("users", 100_000)? as usize,
            shape,
            arrivals_per_tick: args.get("rate", 500.0)?,
            seed: seed ^ 0x5EED,
            ..FeedConfig::default()
        },
        ..ServeConfig::small(seed)
    };
    if cfg.nodes == 0 || cfg.regions == 0 || cfg.shards == 0 || ticks == 0 {
        return Err("--nodes, --regions, --shards, and --ticks must be positive".into());
    }
    if kill_shard >= 0 && (kill_at == 0 || kill_at > ticks) {
        return Err("--kill-at must be in 1..=--ticks when --kill-shard is given".into());
    }
    let shards = cfg.shards;
    let mut serve = SoclServe::new(cfg);
    out!(
        "serve: {} nodes in {} regions on {} shards, {} users, policy {}, {} ticks",
        serve.config().nodes,
        serve.region_map().regions(),
        shards,
        serve.feed().config().users,
        serve.config().policy.name(),
        ticks
    );
    if csv {
        out!("tick,arrivals,decided,shed_queue,shed_admission,queued");
    }
    let watch = Stopwatch::start();
    for tick in 1..=ticks {
        let s = serve.step();
        if csv {
            out!(
                "{},{},{},{},{},{}",
                s.tick,
                s.arrivals,
                s.decided,
                s.shed_queue,
                s.shed_admission,
                s.queued
            );
        }
        if kill_shard >= 0 && tick == kill_at {
            let report = serve.kill_and_restore(kill_shard as usize, torn)?;
            out!(
                "killed shard {kill_shard} at tick {tick}: regions {:?} restored from \
                 checkpoint {} ({} tick(s) replayed, {} torn byte(s), {} oracle mismatch(es))",
                report.killed_regions,
                report.checkpoint_tick,
                report.replayed_ticks,
                report.torn_bytes,
                report.oracle_mismatches
            );
            if report.oracle_mismatches > 0 {
                return Err("replay diverged from the WAL oracle".into());
            }
        }
    }
    let secs = watch.elapsed_secs();
    let t = serve.totals();
    out!(
        "{} arrivals, {} decided ({} cloud fallback), {} shed (queue {} + admission {}), \
         {} still queued; peak queue depth {}",
        t.arrivals,
        t.decided,
        t.cloud_fallbacks,
        t.shed_queue + t.shed_admission,
        t.shed_queue,
        t.shed_admission,
        t.queued,
        t.queue_peak
    );
    out!(
        "{:.0} decisions/s over {ticks} ticks; WAL {} B, largest checkpoint {} B",
        t.decided as f64 / secs.max(1e-9),
        serve.wal_bytes(),
        serve.max_checkpoint_bytes()
    );
    let violations = audit_serve(&serve);
    if !violations.is_empty() {
        for v in &violations {
            out!("violation: {v}");
        }
        return Err(format!("{} invariant violation(s)", violations.len()));
    }
    out!("invariant audit clean");
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    fn args(v: &[&str]) -> Args {
        Args::parse(&v.iter().map(|x| x.to_string()).collect::<Vec<_>>()).unwrap()
    }

    #[test]
    fn compare_runs_on_small_scenario() {
        compare(&args(&["--nodes", "5", "--users", "8", "--seed", "2"])).unwrap();
    }

    #[test]
    fn solve_rejects_unknown_algo() {
        assert!(solve(&args(&["--algo", "quantum"])).is_err());
    }

    #[test]
    fn solve_opt_under_a_node_limit_reports_a_gap() {
        let a = args(&[
            "--algo",
            "opt",
            "--node-limit",
            "3",
            "--nodes",
            "5",
            "--users",
            "10",
        ]);
        solve(&a).unwrap();
        let res = solve_exact(
            &scenario_from(&a, 10, 40).unwrap(),
            &exact_options_from(&a).unwrap(),
        );
        assert_eq!(res.nodes, 3);
        let verdict = opt_verdict(&res);
        assert!(
            verdict.contains("gap") && !verdict.contains("proved optimal"),
            "{verdict}"
        );
    }

    #[test]
    fn solve_rejects_bad_lambda() {
        assert!(solve(&args(&["--lambda", "1.5"])).is_err());
    }

    #[test]
    fn simulate_runs_small() {
        simulate(&args(&[
            "--nodes", "6", "--users", "10", "--slots", "2", "--seed", "3",
        ]))
        .unwrap();
    }

    #[test]
    fn testbed_runs_small() {
        testbed(&args(&["--users", "10", "--epochs", "1", "--seed", "4"])).unwrap();
    }

    #[test]
    fn serve_runs_tiny_with_kill_and_restore() {
        serve(&args(&[
            "--nodes",
            "8",
            "--regions",
            "2",
            "--shards",
            "2",
            "--users",
            "2000",
            "--rate",
            "40",
            "--ticks",
            "6",
            "--kill-shard",
            "1",
            "--kill-at",
            "4",
            "--seed",
            "9",
        ]))
        .unwrap();
    }

    #[test]
    fn serve_rejects_bad_shape_and_kill_window() {
        assert!(serve(&args(&["--shape", "sawtooth"])).is_err());
        // One past the 32-bit user-id space.
        assert!(serve(&args(&["--users", "4294967296"])).is_err());
        assert!(serve(&args(&[
            "--kill-shard",
            "0",
            "--kill-at",
            "99",
            "--ticks",
            "5"
        ]))
        .is_err());
    }

    #[test]
    fn testbed_runs_with_faults_and_retries() {
        testbed(&args(&[
            "--users",
            "10",
            "--epochs",
            "2",
            "--seed",
            "4",
            "--fault-intensity",
            "1.0",
            "--retries",
            "2",
            "--timeout",
            "30",
            "--hedge",
            "2",
        ]))
        .unwrap();
    }

    #[test]
    fn testbed_rejects_unknown_schedule() {
        // `--schedule` is not a testbed flag and `--retires` is a typo of
        // `--retries`: each exits 2 before anything runs.
        for (flag, value) in [("--schedule", "chaotic"), ("--retires", "3")] {
            let argv: Vec<String> = ["--users", "10", "--fault-intensity", "1.0", flag, value]
                .iter()
                .map(|x| x.to_string())
                .collect();
            assert_eq!(
                parse_args("testbed", &argv).unwrap_err(),
                format!("unknown flag {flag}")
            );
            let mut cli = vec!["testbed".to_string()];
            cli.extend(argv);
            assert_eq!(crate::run(&cli), 2, "{flag}");
        }
        // Listed flags, autoscaler and global ones included, still parse.
        let ok: Vec<String> = ["--retries", "3", "--admission", "--threads", "1"]
            .iter()
            .map(|x| x.to_string())
            .collect();
        assert!(parse_args("testbed", &ok).is_ok());
    }

    #[test]
    fn simulate_runs_with_mid_slot_repair() {
        simulate(&args(&[
            "--nodes",
            "6",
            "--users",
            "10",
            "--slots",
            "2",
            "--seed",
            "3",
            "--mid-slot-fail-prob",
            "0.9",
            "--repair",
        ]))
        .unwrap();
    }

    #[test]
    fn trace_runs() {
        trace(&args(&["--seed", "5"])).unwrap();
    }

    #[test]
    fn testbed_runs_with_the_control_plane() {
        testbed(&args(&[
            "--users",
            "10",
            "--epochs",
            "2",
            "--seed",
            "4",
            "--autoscale",
            "reactive",
            "--target-concurrency",
            "1.5",
            "--min-replicas",
            "0",
            "--cold-start",
            "0.8",
            "--keep-warm",
            "120",
            "--admission",
        ]))
        .unwrap();
    }

    #[test]
    fn testbed_rejects_bad_autoscaler_flags() {
        // Bare --autoscale (no mode).
        assert!(testbed(&args(&["--users", "10", "--epochs", "1", "--autoscale"])).is_err());
        // Unknown mode.
        assert!(testbed(&args(&[
            "--users",
            "10",
            "--epochs",
            "1",
            "--autoscale",
            "magic",
        ]))
        .is_err());
        // Non-positive knobs.
        assert!(testbed(&args(&[
            "--users",
            "10",
            "--epochs",
            "1",
            "--autoscale",
            "reactive",
            "--target-concurrency",
            "0",
        ]))
        .is_err());
        assert!(testbed(&args(&[
            "--users",
            "10",
            "--epochs",
            "1",
            "--autoscale",
            "reactive",
            "--max-replicas-per-node",
            "0",
        ]))
        .is_err());
        // Negative cold-start.
        assert!(testbed(&args(&[
            "--users",
            "10",
            "--epochs",
            "1",
            "--cold-start",
            "-1",
        ]))
        .is_err());
    }

    #[test]
    fn simulate_runs_with_the_control_plane() {
        simulate(&args(&[
            "--nodes",
            "6",
            "--users",
            "10",
            "--slots",
            "2",
            "--seed",
            "3",
            "--autoscale",
            "reactive",
        ]))
        .unwrap();
    }

    #[test]
    fn autoscale_compares_all_modes() {
        autoscale(&args(&[
            "--nodes", "5", "--users", "8", "--epochs", "2", "--seed", "9", "--surge", "40",
        ]))
        .unwrap();
    }

    #[test]
    fn autoscale_rejects_zero_epochs() {
        assert!(autoscale(&args(&["--epochs", "0"])).is_err());
    }

    #[test]
    fn export_roundtrips_via_model() {
        // In-process smoke run; `tests/export.rs` checks the printed documents.
        export(&args(&["--nodes", "4", "--users", "6", "--seed", "7"])).unwrap();
    }
}
