//! ABL — ablations of the design choices called out in DESIGN.md §6.
//!
//! 1. `ω` (parallel-combine fraction): batch size vs quality/rounds.
//! 2. `ξ` (virtual-link threshold): partition granularity vs objective.
//! 3. `Θ` (disturbance factor): descent-stop tolerance.
//! 4. Candidate-node filter (Theorem 1): on/off.
//! 5. Storage policy: FuzzyAHP `ρ` vs cheapest-out eviction.
//! 6. ζ mode: exact chain-aware gradient vs the ψ surrogate of Def. 8.
//! 7. Relocation (objective-guided migration): on/off.
//! 8. Serial execution: the whole pipeline on one pool thread.
//!
//! ```sh
//! cargo run --release -p socl-bench --bin ablation
//! ```

use socl::prelude::*;
use socl_bench::out;
use std::time::Instant;

fn score(cfg: SoclConfig, seeds: &[u64]) -> (f64, f64) {
    let mut objs = Vec::new();
    let mut secs = Vec::new();
    for &seed in seeds {
        let sc = ScenarioConfig::paper(10, 100).build(seed);
        let t = Instant::now();
        let res = SoclSolver::with_config(cfg.clone()).solve(&sc);
        secs.push(t.elapsed().as_secs_f64());
        objs.push(res.objective());
    }
    let mean = |v: &[f64]| v.iter().sum::<f64>() / v.len() as f64;
    (mean(&objs), mean(&secs))
}

fn sweep(tag: &str, base: &SoclConfig, seeds: &[u64]) {
    let (o, s) = score(base.clone(), seeds);
    out!("{tag}/baseline,{o:.1},{s:.4}");

    for omega in [0.05, 0.2, 0.5, 1.0] {
        let (o, s) = score(
            SoclConfig {
                omega,
                ..base.clone()
            },
            seeds,
        );
        out!("{tag}/omega={omega},{o:.1},{s:.4}");
    }
    for xi in [2.0, 30.0, 50.0, 100.0] {
        let (o, s) = score(SoclConfig { xi, ..base.clone() }, seeds);
        out!("{tag}/xi={xi},{o:.1},{s:.4}");
    }
    for theta in [0.0, 10.0, 100.0] {
        let (o, s) = score(
            SoclConfig {
                theta,
                ..base.clone()
            },
            seeds,
        );
        out!("{tag}/theta={theta},{o:.1},{s:.4}");
    }
    let (o, s) = score(
        SoclConfig {
            candidate_filter: false,
            ..base.clone()
        },
        seeds,
    );
    out!("{tag}/no_candidate_filter,{o:.1},{s:.4}");
    let (o, s) = score(
        SoclConfig {
            storage_policy: StoragePolicy::CheapestOut,
            ..base.clone()
        },
        seeds,
    );
    out!("{tag}/cheapest_out_storage,{o:.1},{s:.4}");
    let (o, s) = score(
        SoclConfig {
            exact_zeta: false,
            ..base.clone()
        },
        seeds,
    );
    out!("{tag}/surrogate_zeta,{o:.1},{s:.4}");
    set_threads(1);
    let (o, s) = score(base.clone(), seeds);
    set_threads(0);
    out!("{tag}/serial_execution,{o:.1},{s:.4}");
}

fn main() {
    let seeds: &[u64] = &[1, 2, 3];
    out!(
        "# ABLATIONS (10 nodes, 100 users, mean of {} seeds)",
        seeds.len()
    );
    out!("# The relocation pass is a strong equalizer: it converges to similar");
    out!("# local optima from different descent paths, masking the other knobs.");
    out!("# Both pipelines are therefore swept: with and without relocation.");
    out!("variant,objective,seconds");

    sweep("full", &SoclConfig::default(), seeds);
    sweep(
        "no_reloc",
        &SoclConfig {
            relocation: false,
            ..SoclConfig::default()
        },
        seeds,
    );
}
