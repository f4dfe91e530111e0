//! Property-based tests for the SoCL pipeline.

use crate::config::SoclConfig;
use crate::pipeline::SoclSolver;
use socl_model::{evaluate, Scenario, ScenarioConfig};
use socl_net::rng::{cases, ChaCha12Rng};

fn arb_config(rng: &mut ChaCha12Rng) -> SoclConfig {
    SoclConfig {
        omega: rng.gen_range(0.05..=1.0),
        xi: rng.gen_range(0.1..=20.0),
        theta: rng.gen_range(0.0..=5.0),
        candidate_filter: rng.gen(),
        ..SoclConfig::default()
    }
}

/// The paper's configuration, whatever the case.
fn paper_config(_: &mut ChaCha12Rng) -> SoclConfig {
    SoclConfig::default()
}

/// A scenario of 5..=14 nodes and 10..=45 users at the paper's budget.
fn paper_scenario(rng: &mut ChaCha12Rng) -> Scenario {
    let (nodes, users) = (rng.gen_range(5usize..=14), rng.gen_range(10usize..=45));
    ScenarioConfig::paper(nodes, users).build(rng.next_u64())
}

/// A scenario of 5..=14 nodes and 10..=200 users at a budget drawn from the
/// floor (one copy of each requested service) to 4× the paper's. A slack
/// budget stops the large-scale descent while pre-provisioning still
/// overflows storage, so the storage pass decides what leaves.
fn budget_scenario(rng: &mut ChaCha12Rng) -> Scenario {
    let (nodes, users) = (rng.gen_range(5usize..=14), rng.gen_range(10usize..=200));
    let mut sc = ScenarioConfig::paper(nodes, users).build(rng.next_u64());
    let floor: f64 = (sc.requested_services().iter())
        .map(|&m| sc.catalog.deploy_cost(m))
        .sum();
    sc.budget = rng.gen_range(floor..=4.0 * sc.budget);
    sc
}

/// Runs `check` on 24 seeded `scenario`s under `config`, after eight fixed
/// cases: the one failure proptest ever saved for this file shrank to a
/// 5-node / 15-user scenario under ξ and ω at their floors, no disturbance
/// and no candidate filter. Only proptest could replay the shrunk scenario
/// itself; the configuration and the size are kept.
fn for_inputs(
    scenario: fn(&mut ChaCha12Rng) -> Scenario,
    config: fn(&mut ChaCha12Rng) -> SoclConfig,
    check: impl Fn(&Scenario, &SoclConfig),
) {
    let saved = SoclConfig {
        xi: 0.1,
        omega: 0.05,
        theta: 0.0,
        candidate_filter: false,
        ..SoclConfig::default()
    };
    for seed in 0..8 {
        eprintln!("for_inputs: fixed case, ScenarioConfig::paper(5, 15).build({seed})");
        check(&ScenarioConfig::paper(5, 15).build(seed), &saved);
    }
    cases(24, |rng| {
        let sc = scenario(rng);
        check(&sc, &config(rng));
    });
}

/// SoCL always returns a solution that (a) serves every request from the
/// edge, (b) satisfies per-node storage, and (c) meets the budget
/// whenever a single instance of each requested service fits in it — at
/// any budget from that floor to 4× the paper's.
#[test]
fn socl_solutions_are_feasible() {
    let check = |sc: &Scenario, cfg: &SoclConfig| {
        let res = SoclSolver::with_config(cfg.clone()).solve(sc);
        // Storage feasibility is unconditional (the closing storage pass).
        assert!(res.placement.storage_feasible(&sc.catalog, &sc.net));
        // Full edge service is guaranteed whenever the aggregate storage
        // comfortably fits one instance of each requested service; in
        // over-packed micro-topologies a cloud fallback is the correct
        // semantics, so the assertion is conditional.
        let requested = sc.requested_services();
        let min_storage: f64 = requested.iter().map(|&m| sc.catalog.storage(m)).sum();
        if sc.net.total_storage() >= 2.0 * min_storage {
            assert_eq!(res.evaluation.cloud_fallbacks, 0, "budget {}", sc.budget);
        }
        let min_cost: f64 = requested.iter().map(|&m| sc.catalog.deploy_cost(m)).sum();
        if min_cost <= sc.budget {
            let cost = res.evaluation.cost;
            assert!(
                cost <= sc.budget + 1e-6,
                "cost {cost} > budget {}",
                sc.budget
            );
        }
        // Instance counts stay within demand-node counts + partition slack
        // (the stage-2 bound) — combination only ever removes instances.
        for m in requested {
            let hosts = res.placement.instance_count(m);
            let parts = res.partitions.partitions_of(m).map_or(1, |p| p.len());
            assert!(hosts <= sc.request_nodes(m).len().max(1) + parts + sc.nodes());
        }
    };
    // Twice the paper's budget once dropped a service's only instance here
    // (objective 214 151 against JDR's 44 140).
    let mut slack = ScenarioConfig::paper(10, 160);
    slack.budget = 12_000.0;
    check(&slack.build(34), &SoclConfig::default());
    for_inputs(budget_scenario, arb_config, check);
}

/// The evaluation inside the result matches a fresh evaluation of the
/// returned placement (no stale state).
#[test]
fn result_evaluation_is_fresh() {
    for_inputs(paper_scenario, paper_config, |sc, cfg| {
        let res = SoclSolver::with_config(cfg.clone()).solve(sc);
        let fresh = evaluate(sc, &res.placement);
        assert!((res.objective() - fresh.objective).abs() < 1e-9);
    });
}

/// SoCL dominates the trivial single-hub placement (everything on the
/// globally busiest node) — a sanity floor for solution quality.
#[test]
fn socl_beats_single_hub() {
    for_inputs(paper_scenario, paper_config, |sc, cfg| {
        let res = SoclSolver::with_config(cfg.clone()).solve(sc);
        // Single hub: all requested services on the node with most users.
        let nodes = sc.net.node_ids();
        let hub = nodes.max_by_key(|&k| sc.users_at(k).count()).unwrap();
        let mut hub_placement = socl_model::Placement::empty(sc.services(), sc.nodes());
        for m in sc.requested_services() {
            hub_placement.set(m, hub, true);
        }
        if hub_placement.storage_feasible(&sc.catalog, &sc.net) {
            // SoCL should beat or roughly match the hub (it can use the hub
            // placement's cost level with strictly better spread). Allow a
            // small tolerance for adversarial tiny scenarios.
            let (socl, hub) = (res.objective(), evaluate(sc, &hub_placement).objective);
            assert!(socl <= hub * 1.10 + 1e-6, "socl {socl} vs hub {hub}");
        }
    });
}

/// λ extremes steer the solution: λ→1 (cost only) never yields a more
/// expensive deployment than λ→0 (latency only).
#[test]
fn lambda_steers_cost() {
    for_inputs(paper_scenario, paper_config, |sc, cfg| {
        let cost_at = |lambda: f64| {
            let mut sc = sc.clone();
            sc.lambda = lambda;
            SoclSolver::with_config(cfg.clone())
                .solve(&sc)
                .evaluation
                .cost
        };
        let (a, b) = (cost_at(0.95), cost_at(0.05));
        assert!(a <= b + 1e-6, "λ=0.95 cost {a} > λ=0.05 cost {b}");
    });
}
