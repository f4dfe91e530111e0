//! Testbed replay: run RP, JDR and SoCL placements through the
//! discrete-event cluster emulator (the Kubernetes stand-in of Section V.C)
//! and compare measured per-request latency, including queueing contention
//! and serverless cold starts.
//!
//! ```sh
//! cargo run --release -p socl --example testbed_replay
//! ```

#![allow(clippy::unwrap_used, clippy::disallowed_methods, reason = "test code")]

use socl::prelude::*;

fn main() {
    // The paper's small testbed: 8 edge nodes (+1 master, implicit here),
    // 50 users.
    let sc = ScenarioConfig::paper(8, 50).build(21);
    println!("testbed: 8 edge nodes, 50 users, 4 epochs of 5 minutes\n");

    let tb_cfg = TestbedConfig {
        epochs: 4,
        ..TestbedConfig::default()
    };

    println!(
        "{:<6} {:>9} {:>9} {:>10} {:>10} {:>7} {:>6}",
        "algo", "cost", "obj", "mean(ms)", "max(ms)", "cold", "p95(ms)"
    );
    for (name, placement) in [
        ("RP", random_provisioning(&sc, 5).placement),
        ("JDR", jdr(&sc).placement),
        ("SoCL", SoclSolver::new().solve(&sc).placement),
    ] {
        let res = run_testbed(&sc, &placement, &tb_cfg);
        let ev = evaluate(&sc, &placement);
        let mut served: Vec<f64> = res.per_request.iter().flatten().copied().collect();
        served.sort_by(|a, b| a.partial_cmp(b).unwrap());
        let p95 = served
            .get((served.len() as f64 * 0.95) as usize)
            .copied()
            .unwrap_or(0.0);
        println!(
            "{:<6} {:>9.1} {:>9.1} {:>10.2} {:>10.2} {:>7} {:>6.1}",
            name,
            ev.cost,
            ev.objective,
            res.mean * 1e3,
            res.max * 1e3,
            res.cold_starts,
            p95 * 1e3
        );
    }

    // Epoch-by-epoch trace for SoCL (warm-up effect visible in epoch 0).
    let placement = SoclSolver::new().solve(&sc).placement;
    let res = run_testbed(&sc, &placement, &tb_cfg);
    println!("\nSoCL per-epoch mean latency (cold start amortization):");
    for (e, m) in res.per_epoch_mean.iter().enumerate() {
        println!("  epoch {e}: {:.2} ms", m * 1e3);
    }
}
