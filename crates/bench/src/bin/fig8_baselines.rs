//! FIG8 — objective (cost & latency) against the baselines for user scales
//! 80/120/160/200 on 10 servers (Figures 8a–8d).
//!
//! Paper shape to reproduce: SoCL lowest at every scale; RP worst and
//! deteriorating fastest; JDR overspending (high cost, decent latency);
//! GC-OG close on quality but increasingly slow.
//!
//! ```sh
//! cargo run --release -p socl-bench --bin fig8_baselines
//! SOCL_FULL=1 cargo run --release -p socl-bench --bin fig8_baselines   # + 30/50/100-node sweep
//! ```
//!
//! `SOCL_FULL=1` appends the scalability sweep the paper's title claims:
//! 30 / 50 / 100 servers at 20 users per server. GC-OG joins it up to
//! [`GCOG_MAX_NODES`] servers; larger points read `capped`.

use socl::model::stats::percentile;
use socl::prelude::*;
use socl_bench::out;
use std::time::Instant;

/// The largest sweep point GC-OG runs at. Its runtime grows ~4× per step of
/// the sweep on the way to 50 servers (18–25 s a point on two cores) and
/// faster beyond (a 100-server point did not finish in 20 minutes). The cap
/// is a size, not a time, so no runner's speed changes which rows run.
const GCOG_MAX_NODES: usize = 50;

struct Row {
    objective: f64,
    cost: f64,
    latency: f64,
    seconds: f64,
}

/// Median over `seeds` of every algorithm's result on `nodes` servers and
/// `users` requests, in the order SoCL, RP, JDR, GC-OG (the last only when
/// `with_gcog`).
fn point(nodes: usize, users: usize, seeds: &[u64], with_gcog: bool) -> Vec<(&'static str, Row)> {
    let mut per_algo: Vec<(&str, Vec<Row>)> = vec![
        ("SoCL", Vec::new()),
        ("RP", Vec::new()),
        ("JDR", Vec::new()),
        ("GC-OG", Vec::new()),
    ];
    if !with_gcog {
        per_algo.pop();
    }
    for &seed in seeds {
        let sc = ScenarioConfig::paper(nodes, users).build(seed);

        let t = Instant::now();
        let socl = SoclSolver::new().solve(&sc);
        per_algo[0].1.push(Row {
            objective: socl.objective(),
            cost: socl.evaluation.cost,
            latency: socl.evaluation.total_latency,
            seconds: t.elapsed().as_secs_f64(),
        });

        let mut baseline = |slot: usize, res: BaselineResult| {
            per_algo[slot].1.push(Row {
                objective: res.objective,
                cost: res.cost,
                latency: res.total_latency,
                seconds: res.elapsed.as_secs_f64(),
            });
        };
        baseline(1, random_provisioning(&sc, seed ^ 0xBEEF));
        baseline(2, jdr(&sc));
        if with_gcog {
            baseline(3, gc_og(&sc));
        }
    }
    per_algo
        .into_iter()
        .map(|(name, rows)| {
            let col = |f: fn(&Row) -> f64| percentile(&rows.iter().map(f).collect::<Vec<_>>(), 0.5);
            let row = Row {
                objective: col(|r| r.objective),
                cost: col(|r| r.cost),
                latency: col(|r| r.latency),
                seconds: col(|r| r.seconds),
            };
            (name, row)
        })
        .collect()
}

fn main() {
    let seeds: &[u64] = &[1, 2, 3];
    let scales: &[usize] = &[80, 120, 160, 200];

    out!(
        "# FIG8: objective vs baselines (10 servers; median of {} seeds)",
        seeds.len()
    );
    out!("users,algo,objective,cost,latency_s,runtime_s");
    let mut summary: Vec<(usize, String, f64)> = Vec::new();

    for &users in scales {
        for (name, r) in point(10, users, seeds, true) {
            out!(
                "{users},{name},{:.1},{:.1},{:.2},{:.4}",
                r.objective,
                r.cost,
                r.latency,
                r.seconds
            );
            summary.push((users, name.to_string(), r.objective));
        }
        out!();
    }

    out!("# shape check (paper: SoCL < GC-OG/JDR < RP at every scale,");
    out!("# RP growing fastest; SoCL growth modest)");
    for &users in scales {
        let get = |name: &str| {
            summary
                .iter()
                .find(|(u, n, _)| *u == users && n == name)
                .map(|(_, _, o)| *o)
                .unwrap()
        };
        let (s, r, j, g) = (get("SoCL"), get("RP"), get("JDR"), get("GC-OG"));
        out!(
            "users={users}: SoCL {s:.0} | GC-OG {g:.0} | JDR {j:.0} | RP {r:.0}  (SoCL lowest: {})",
            s <= r.min(j).min(g)
        );
    }

    if std::env::var_os("SOCL_FULL").is_some() {
        scale_sweep(seeds);
    }
}

/// The scalability sweep: 20 users per server up to 100 servers.
fn scale_sweep(seeds: &[u64]) {
    out!(
        "\n# FIG8-SCALE: 20 users per server (median of {} seeds; GC-OG up to {GCOG_MAX_NODES} servers)",
        seeds.len()
    );
    out!("nodes,users,algo,objective,cost,latency_s,runtime_s");
    let mut verdicts = Vec::new();
    for nodes in [30, 50, 100] {
        let users = 20 * nodes;
        let with_gcog = nodes <= GCOG_MAX_NODES;
        let rows = point(nodes, users, seeds, with_gcog);
        for (name, r) in &rows {
            out!(
                "{nodes},{users},{name},{:.1},{:.1},{:.2},{:.4}",
                r.objective,
                r.cost,
                r.latency,
                r.seconds
            );
        }
        if !with_gcog {
            out!("{nodes},{users},GC-OG,capped,capped,capped,capped");
        }
        let socl = &rows[0].1;
        let lowest = rows.iter().all(|(_, r)| socl.objective <= r.objective);
        verdicts.push((nodes, users, socl.seconds, lowest));
        out!();
    }
    out!("# scale check (SoCL lowest on objective among the algorithms that ran)");
    for (nodes, users, secs, lowest) in verdicts {
        out!("nodes={nodes} users={users}: SoCL {secs:.3} s  (SoCL lowest: {lowest})");
    }
}
