//! FIG9 — testbed-emulator evaluation on 8 edge nodes (Figures 9a/9b).
//!
//! The paper runs RP, JDR and SoCL on an 8-node Kubernetes cluster under 50
//! and 70 users, comparing the objective and its cost/latency components,
//! then analyzes per-user medians. This harness reproduces the measurement
//! pipeline on the discrete-event emulator.
//!
//! Paper shape to reproduce: RP and JDR buy their latency with near-full
//! budget consumption while SoCL balances both; per-user median latency of
//! SoCL is on par with RP and better than JDR.
//!
//! ```sh
//! cargo run --release -p socl-bench --bin fig9_testbed
//! ```

use socl::prelude::*;
use socl_bench::out;

fn percentile(sorted: &[f64], p: f64) -> f64 {
    if sorted.is_empty() {
        return 0.0;
    }
    let idx = ((sorted.len() as f64 - 1.0) * p).round() as usize;
    sorted[idx]
}

fn main() {
    out!("# FIG9: emulated 8-node testbed, 50 and 70 users");
    out!("users,algo,objective,cost,latency_total_s,median_ms,p95_ms,max_ms,cold_starts");
    for users in [50usize, 70] {
        let sc = ScenarioConfig::paper(8, users).build(31);
        let tb = TestbedConfig {
            epochs: 4,
            ..TestbedConfig::default()
        };
        for (name, placement) in [
            ("RP", random_provisioning(&sc, 5).placement),
            ("JDR", jdr(&sc).placement),
            ("SoCL", SoclSolver::new().solve(&sc).placement),
        ] {
            let ev = evaluate(&sc, &placement);
            let res = run_testbed(&sc, &placement, &tb);
            let mut served: Vec<f64> = res.per_request.iter().flatten().copied().collect();
            served.sort_by(f64::total_cmp);
            out!(
                "{users},{name},{:.1},{:.1},{:.2},{:.1},{:.1},{:.1},{}",
                ev.objective,
                ev.cost,
                ev.total_latency,
                percentile(&served, 0.5) * 1e3,
                percentile(&served, 0.95) * 1e3,
                res.max * 1e3,
                res.cold_starts
            );
        }
        out!();
    }
    out!("# shape check (paper): SoCL achieves the lowest objective by balancing");
    out!("# deployment cost against latency; RP/JDR lean on the full budget.");
}
