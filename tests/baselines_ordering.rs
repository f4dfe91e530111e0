//! The paper's headline comparative claims (Figure 8): SoCL achieves the
//! lowest objective; RP is the worst; the ordering stabilizes as users grow.

#![allow(clippy::unwrap_used, clippy::disallowed_methods, reason = "test code")]

use socl::prelude::*;

/// Median-of-seeds objective for each algorithm at one scale.
fn run_scale(users: usize, seeds: &[u64]) -> (f64, f64, f64, f64) {
    let mut socl = Vec::new();
    let mut rp = Vec::new();
    let mut j = Vec::new();
    let mut g = Vec::new();
    for &seed in seeds {
        let sc = ScenarioConfig::paper(10, users).build(seed);
        socl.push(SoclSolver::new().solve(&sc).objective());
        rp.push(random_provisioning(&sc, seed ^ 0xBEEF).objective);
        j.push(jdr(&sc).objective);
        g.push(gc_og(&sc).objective);
    }
    let med = |v: &mut Vec<f64>| {
        v.sort_by(|a, b| a.partial_cmp(b).unwrap());
        v[v.len() / 2]
    };
    (med(&mut socl), med(&mut rp), med(&mut j), med(&mut g))
}

#[test]
fn socl_beats_all_baselines_at_moderate_scale() {
    let (socl, rp, jdr_obj, gcog) = run_scale(80, &[1, 2, 3]);
    assert!(socl < rp, "SoCL {socl} vs RP {rp}");
    assert!(socl < jdr_obj, "SoCL {socl} vs JDR {jdr_obj}");
    assert!(
        socl <= gcog * 1.05,
        "SoCL {socl} should at least match GC-OG {gcog}"
    );
}

#[test]
fn rp_is_the_weakest_structured_strategy() {
    // The paper: "RP performed the worst due to its random placement and
    // routing strategy". GC-OG and SoCL must beat it; JDR usually does.
    let (socl, rp, _jdr_obj, gcog) = run_scale(60, &[4, 5, 6]);
    assert!(socl < rp);
    assert!(gcog < rp);
}

#[test]
fn ordering_holds_across_growing_user_scales() {
    // Figure 8's sweep (scaled down for CI): SoCL lowest at every scale.
    for users in [40, 80, 120] {
        let (socl, rp, jdr_obj, gcog) = run_scale(users, &[7, 8]);
        assert!(
            socl < rp && socl < jdr_obj && socl <= gcog * 1.05,
            "users={users}: SoCL {socl}, RP {rp}, JDR {jdr_obj}, GC-OG {gcog}"
        );
    }
}

#[test]
fn socl_runtime_beats_gcog_at_scale() {
    // GC-OG re-evaluates every instance each round — the paper's "low search
    // efficiency". At 200 users SoCL must be clearly faster.
    let sc = ScenarioConfig::paper(10, 200).build(9);
    let t = std::time::Instant::now();
    let _ = SoclSolver::new().solve(&sc);
    let socl_time = t.elapsed();
    let t = std::time::Instant::now();
    let _ = gc_og(&sc);
    let gcog_time = t.elapsed();
    assert!(
        socl_time < gcog_time,
        "SoCL {socl_time:?} should beat GC-OG {gcog_time:?}"
    );
}

#[test]
fn jdr_overspends_relative_to_socl() {
    // The paper: JDR "caused resource redundancy that led to consistently
    // high objective values" by neglecting provisioning cost.
    let mut jdr_cost_total = 0.0;
    let mut socl_cost_total = 0.0;
    for seed in [10, 11, 12] {
        let sc = ScenarioConfig::paper(10, 100).build(seed);
        jdr_cost_total += jdr(&sc).cost;
        socl_cost_total += SoclSolver::new().solve(&sc).evaluation.cost;
    }
    assert!(
        jdr_cost_total > socl_cost_total,
        "JDR {jdr_cost_total} should spend more than SoCL {socl_cost_total}"
    );
}
