//! FIG2 — "Runtime of optimal solutions using Gurobi" (Figure 2).
//!
//! The paper runs Gurobi on 10–30 edge servers and 40–60 users and shows
//! runtime exploding (log-scale y axis, >10× growth from 40 to 60 users).
//! Our Gurobi stand-in is the specialized exact branch-and-bound; its search
//! is exponential in the same way, so the *shape* reproduces at a scale a
//! laptop can certify: servers ∈ {4, 6, 8}, users 2–10. The search is capped
//! at `ExactOptions::default().node_limit` (50M B&B nodes), not by seconds,
//! so which points finish is the same on every machine; a point that hits
//! the cap is marked `(>cap)`. No default point comes near it.
//!
//! ```sh
//! cargo run --release -p socl-bench --bin fig2_opt_runtime
//! SOCL_FULL=1 cargo run --release -p socl-bench --bin fig2_opt_runtime   # wider sweep
//! ```

use socl::prelude::*;
use socl_bench::GeoSeries;

fn main() {
    let full = std::env::var_os("SOCL_FULL").is_some();
    let servers: &[usize] = if full { &[4, 6, 8, 10] } else { &[4, 6, 8] };
    let users: Vec<usize> = if full {
        (2..=16).step_by(2).collect()
    } else {
        (2..=10).step_by(2).collect()
    };

    println!("# FIG2: exact-optimizer (OPT) runtime blow-up");
    println!("servers,users,opt_seconds,opt_nodes,proved,socl_seconds");
    let mut growths = Vec::new();
    for &n in servers {
        let mut series = GeoSeries::new(format!("{n} servers"));
        for &u in &users {
            let mut cfg = ScenarioConfig::paper(n, u);
            cfg.requests.chain_len = (2, 4);
            let sc = cfg.build(7);
            let opt = solve_exact(&sc, &ExactOptions::default());
            let t = std::time::Instant::now();
            let _ = SoclSolver::new().solve(&sc);
            let socl_secs = t.elapsed().as_secs_f64();
            println!(
                "{n},{u},{:.4}{},{},{},{:.4}",
                opt.elapsed.as_secs_f64(),
                if opt.proved_optimal { "" } else { " (>cap)" },
                opt.nodes,
                opt.proved_optimal,
                socl_secs
            );
            if opt.proved_optimal {
                series.push(u as f64, opt.elapsed.as_secs_f64().max(1e-6));
            }
        }
        growths.push((n, series.growth_factor()));
    }
    println!("\n# shape check: per-2-users runtime growth factor (paper: ~exponential)");
    for (n, g) in growths {
        println!("servers={n}: x{g:.2} per step");
    }
}
