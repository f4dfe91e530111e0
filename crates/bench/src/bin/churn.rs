//! Churn study (extension): warm-started slot-to-slot re-provisioning vs
//! independent cold solves over a mobility trace.
//!
//! Every placement cell that changes between slots is a container teardown
//! plus a cold start somewhere else — exactly the serverless cost the
//! paper's storage-planning feature ("more warm instances in the nearby
//! area") is meant to control. The warm-start solver unions the previous
//! placement into stage 2 so stage 3 prefers dismantling fresh duplicates
//! over touching warm instances.
//!
//! ```sh
//! cargo run --release -p socl-bench --bin churn
//! ```

use socl::core::{placement_churn, WarmStartSolver};
use socl::prelude::*;
use socl_bench::out;

fn main() {
    let slots = 12usize;
    let cfg = OnlineConfig {
        slots,
        users: 50,
        nodes: 12,
        seed: 5,
        ..OnlineConfig::default()
    };
    // Drive user state with the online simulator, but provision through
    // both solvers on the same slot scenarios.
    let mut sim = OnlineSimulator::new(cfg);
    let mut warm = WarmStartSolver::new(SoclConfig::default());
    let cold = SoclSolver::new();

    out!("# churn per slot: cold (independent solves) vs warm start");
    out!("slot,cold_churn,warm_churn,cold_obj,warm_obj");
    let mut prev_cold: Option<Placement> = None;
    let mut totals = (0usize, 0usize);
    let mut obj_ratio_sum = 0.0;

    // Reuse the simulator's state evolution via run_measured's callback.
    let records: Vec<(usize, usize, f64, f64)> = {
        let mut rows = Vec::new();
        sim.run_measured(&Policy::Jdr, |sc, _| {
            let cold_res = cold.solve(sc);
            let warm_res = warm.solve_slot(sc);
            let cold_churn = prev_cold
                .as_ref()
                .map(|p| placement_churn(p, &cold_res.placement))
                .unwrap_or(0);
            rows.push((
                cold_churn,
                warm_res.churn,
                cold_res.objective(),
                warm_res.result.objective(),
            ));
            prev_cold = Some(cold_res.placement);
            None
        });
        rows
    };
    for (slot_idx, (cold_churn, warm_churn, cold_obj, warm_obj)) in records.into_iter().enumerate()
    {
        out!("{slot_idx},{cold_churn},{warm_churn},{cold_obj:.1},{warm_obj:.1}");
        totals.0 += cold_churn;
        totals.1 += warm_churn;
        if cold_obj > 0.0 {
            obj_ratio_sum += warm_obj / cold_obj;
        }
    }

    out!("\n# summary over {slots} slots");
    out!("total_cold_churn,{}", totals.0);
    out!("total_warm_churn,{}", totals.1);
    out!("warm_objective_vs_cold,{:.3}", obj_ratio_sum / slots as f64);
    out!("# shape check: warm churn should be well below cold churn at ~equal objective");
}
