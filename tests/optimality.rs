//! Optimality cross-checks: SoCL and the heuristics against the exact
//! optimum.
//!
//! The exact branch-and-bound is checked against brute-force enumeration and
//! Eqs. 4–6 in its own unit tests (`socl_ilp::exact`); here the proven
//! optimum lower-bounds every heuristic, and SoCL must stay within a small
//! gap of it (the paper reports ≤ 9.9%).

#![allow(clippy::disallowed_methods, reason = "test code")]

use socl::prelude::*;

/// Tiny scenarios the exact search can afford.
fn tiny(seed: u64, nodes: usize, users: usize) -> Scenario {
    let mut cfg = ScenarioConfig::paper(nodes, users);
    cfg.requests.chain_len = (2, 3);
    cfg.build(seed)
}

#[test]
fn socl_gap_to_optimum_is_small() {
    // The paper reports optimality gaps below 9.9%; on small instances we
    // verify SoCL stays within a modest factor of the proven optimum.
    let mut worst: f64 = 0.0;
    for seed in 0..6 {
        let sc = tiny(seed + 100, 4, 8);
        let opt = solve_exact(&sc, &ExactOptions::default());
        assert!(opt.proved_optimal);
        let socl = SoclSolver::new().solve(&sc);
        let gap = (socl.objective() - opt.objective) / opt.objective;
        assert!(
            gap >= -1e-6,
            "seed {seed}: SoCL {} beat the 'optimum' {} — exact solver bug",
            socl.objective(),
            opt.objective
        );
        worst = worst.max(gap);
    }
    assert!(
        worst <= 0.35,
        "worst SoCL gap {worst:.3} too large on tiny instances"
    );
}

#[test]
fn exact_dominates_every_heuristic() {
    for seed in 0..3 {
        let sc = tiny(seed + 50, 4, 6);
        let opt = solve_exact(&sc, &ExactOptions::default());
        assert!(opt.proved_optimal);
        let socl = SoclSolver::new().solve(&sc).objective();
        let g = gc_og(&sc).objective;
        // RP and JDR route sub-optimally (their own policies); the exact
        // optimum must still lower-bound every placement evaluated with
        // optimal routing.
        let rp_opt_routing = evaluate(&sc, &random_provisioning(&sc, 9).placement).objective;
        let jdr_opt_routing = evaluate(&sc, &jdr(&sc).placement).objective;
        for (name, obj) in [
            ("SoCL", socl),
            ("GC-OG", g),
            ("RP(opt-routing)", rp_opt_routing),
            ("JDR(opt-routing)", jdr_opt_routing),
        ] {
            assert!(
                opt.objective <= obj + 1e-6,
                "seed {seed}: {name} {obj} beats the optimum {}",
                opt.objective
            );
        }
    }
}

#[test]
fn exact_runtime_blows_up_with_scale_while_socl_stays_flat() {
    // The Figure 2/7 phenomenon in miniature. Node counts are not strictly
    // monotone in users (pruning luck varies), so assert the robust shape:
    // the exact search does combinatorial work (thousands of nodes) on a
    // 14-user instance while SoCL solves it interactively.
    let large = tiny(7, 4, 14);
    let opt_large = solve_exact(&large, &ExactOptions::default());
    assert!(
        opt_large.nodes > 1_000,
        "exact search suspiciously cheap: {} nodes",
        opt_large.nodes
    );
    // SoCL completes instantly (guarded generously for CI noise).
    let t = std::time::Instant::now();
    let _ = SoclSolver::new().solve(&large);
    assert!(t.elapsed() < std::time::Duration::from_secs(5));
}
