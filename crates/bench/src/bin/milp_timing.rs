//! Timings of the from-scratch LP/MILP solver: simplex and branch-and-bound
//! on knapsacks plus the lowered SoCL ILP — median (min, max) of 15 runs.

use socl::ilp::build_ilp;
use socl::milp::solve_lp;
use socl::prelude::*;
use socl_bench::{print_csv_header, print_csv_row};
use std::time::Instant;

/// Deterministic pseudo-random knapsack of n binary items.
fn knapsack(n: usize) -> Model {
    let mut m = Model::new();
    let vars: Vec<_> = (0..n)
        .map(|i| m.add_binary(-((i * 7919 % 17 + 1) as f64)))
        .collect();
    m.add_constraint(
        vars.iter()
            .enumerate()
            .map(|(i, &v)| (v, ((i * 104729) % 9 + 1) as f64)),
        Relation::Le,
        (2 * n) as f64 / 3.0,
    );
    m
}

fn time<T>(case: &str, mut run: impl FnMut() -> T) {
    let mut ms = [0.0; 15];
    for slot in &mut ms {
        let t = Instant::now();
        std::hint::black_box(run());
        *slot = t.elapsed().as_secs_f64() * 1e3;
    }
    ms.sort_by(f64::total_cmp);
    print_csv_row(case, &[ms[7], ms[0], ms[14]]);
}

fn main() {
    print_csv_header(&["case", "median_ms", "min_ms", "max_ms"]);
    let (milp, exact) = (MilpOptions::default(), ExactOptions::default());
    for n in [10usize, 16, 22] {
        let model = knapsack(n);
        time(&format!("lp_relaxation/{n}"), || solve_lp(&model));
        time(&format!("branch_bound/{n}"), || solve_milp(&model, &milp));
    }
    // ILP lowering of a tiny SoCL scenario: building and solving.
    let mut cfg = ScenarioConfig::paper(3, 4);
    cfg.requests.chain_len = (2, 3);
    let sc = cfg.build(2);
    time("build_socl_ilp", || build_ilp(&sc));
    time("solve_socl_ilp", || solve_ilp(&sc, &milp));
    time("solve_socl_exact_bb", || solve_exact(&sc, &exact));
}
