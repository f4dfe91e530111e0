//! FIG7 + TAB-GAP — OPT (exact) vs SoCL: objective value and runtime across
//! user and node scales (Figures 7a–7d), plus the optimality-gap table
//! (the paper reports gaps below 9.9% and ≥10× speedups).
//!
//! The exact optimizer is certified only at laptop scale. OPT is capped at
//! `ExactOptions::default().node_limit` (50M B&B nodes), not by seconds, so
//! `opt_status` is the same on every machine: a point that hits the cap
//! reports its incumbent as `capped`. No default point comes near it. SoCL
//! runs at every point.
//!
//! ```sh
//! cargo run --release -p socl-bench --bin fig7_opt_vs_socl
//! SOCL_FULL=1 cargo run --release -p socl-bench --bin fig7_opt_vs_socl
//! ```

use socl::prelude::*;

fn run_point(nodes: usize, users: usize, seed: u64) {
    let mut cfg = ScenarioConfig::paper(nodes, users);
    cfg.requests.chain_len = (2, 4);
    let sc = cfg.build(seed);

    let opt = solve_exact(&sc, &ExactOptions::default());
    let t = std::time::Instant::now();
    let socl = SoclSolver::new().solve(&sc);
    let socl_secs = t.elapsed().as_secs_f64();

    let gap = if opt.objective.is_finite() {
        (socl.objective() - opt.objective) / opt.objective * 100.0
    } else {
        f64::NAN
    };
    let speedup = opt.elapsed.as_secs_f64() / socl_secs.max(1e-9);
    println!(
        "{nodes},{users},{:.1},{:.1},{gap:.2},{:.4},{:.5},{speedup:.1},{}",
        opt.objective,
        socl.objective(),
        opt.elapsed.as_secs_f64(),
        socl_secs,
        if opt.proved_optimal {
            "optimal"
        } else {
            "capped"
        }
    );
}

fn main() {
    let full = std::env::var_os("SOCL_FULL").is_some();
    println!("# FIG7a/b: user-scale sweep (fixed 5 nodes)");
    println!("nodes,users,opt_obj,socl_obj,gap_pct,opt_seconds,socl_seconds,speedup,opt_status");
    let user_sweep: Vec<usize> = if full {
        (4..=24).step_by(4).collect()
    } else {
        (4..=12).step_by(2).collect()
    };
    for &u in &user_sweep {
        run_point(5, u, 11);
    }

    println!("\n# FIG7c/d: node-scale sweep (fixed 8 users)");
    println!("nodes,users,opt_obj,socl_obj,gap_pct,opt_seconds,socl_seconds,speedup,opt_status");
    let node_sweep: Vec<usize> = if full {
        (3..=10).collect()
    } else {
        (3..=7).collect()
    };
    for &n in &node_sweep {
        run_point(n, 8, 13);
    }

    println!("\n# TAB-GAP: the paper reports SoCL gaps < 9.9% and runtime wins");
    println!("# growing to orders of magnitude at the scales where OPT hits its cap.");
}
