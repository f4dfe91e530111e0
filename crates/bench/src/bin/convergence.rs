//! Convergence anatomy: where does SoCL's objective reduction come from?
//!
//! Decomposes the pipeline's objective trajectory — pre-provisioning →
//! large-scale parallel combination → serial descent → final migration — and
//! compares the end point against the proven optimum on small instances.
//!
//! ```sh
//! cargo run --release -p socl-bench --bin convergence
//! ```

use socl::core::{initial_partition, preprovision, Combiner};
use socl::prelude::*;
use socl_bench::out;

fn main() {
    out!("# stage-wise objective trajectory (10 nodes)");
    out!("users,seed,pre,after_large,after_serial,final,reduction_pct");
    for users in [40usize, 100, 200] {
        for seed in [1u64, 2, 3] {
            let sc = ScenarioConfig::paper(10, users).build(seed);
            let cfg = SoclConfig::default();
            let parts = initial_partition(&sc, &cfg);
            let pre = preprovision(&sc, &parts, &cfg);
            let pre_obj = evaluate(&sc, &pre.placement).objective;
            let (_, stats) = Combiner::new(&sc, &cfg, &parts, pre.placement).run();
            out!(
                "{users},{seed},{pre_obj:.1},{:.1},{:.1},{:.1},{:.1}",
                stats.objective_after_large,
                stats.objective_after_serial,
                stats.final_objective,
                (pre_obj - stats.final_objective) / pre_obj * 100.0
            );
        }
    }

    out!("\n# distance to the proven optimum on exact-solvable instances");
    out!("nodes,users,seed,socl,optimum,gap_pct");
    for seed in [1u64, 2, 3] {
        let mut cfg = ScenarioConfig::paper(4, 8);
        cfg.requests.chain_len = (2, 3);
        let sc = cfg.build(seed);
        let socl = SoclSolver::new().solve(&sc).objective();
        let opt = solve_exact(&sc, &ExactOptions::default());
        out!(
            "4,8,{seed},{socl:.1},{:.1},{:.2}",
            opt.objective,
            (socl - opt.objective) / opt.objective * 100.0
        );
    }
}
