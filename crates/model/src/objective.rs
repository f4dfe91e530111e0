//! The joint objective (Eq. 3/8) and constraint checking (Eqs. 4–6).
//!
//! `evaluate` routes every request optimally under the given placement and
//! returns the weighted objective
//!
//! ```text
//! Q(x) = λ · Σ_k 𝒦_k + (1-λ) · latency_scale · Σ_h 𝒟_h
//! ```
//!
//! where cloud fallbacks contribute `cloud_penalty` seconds each. The
//! [`ConstraintReport`] collects violations of the per-request completion
//! bound (Eq. 4), the budget (Eq. 5) and per-node storage (Eq. 6).

use crate::placement::{Assignment, Placement};
use crate::routing::{optimal_route, RouteOutcome};
use crate::scenario::Scenario;
use socl_net::NodeId;

/// Full evaluation of a placement: routing, latency, cost, objective.
#[derive(Debug, Clone)]
pub struct Evaluation {
    /// Total deployment cost `Σ_k 𝒦_k`.
    pub cost: f64,
    /// Sum of completion times `Σ_h 𝒟_h` in seconds (cloud fallbacks counted
    /// at `cloud_penalty` each).
    pub total_latency: f64,
    /// Per-request completion times in seconds (fallbacks at the penalty).
    pub per_request: Vec<f64>,
    /// Number of requests that fell back to the cloud.
    pub cloud_fallbacks: usize,
    /// The optimal assignment used for the latency terms.
    pub assignment: Assignment,
    /// The weighted objective `Q`.
    pub objective: f64,
}

impl Evaluation {
    /// Mean completion time per request, seconds.
    pub fn mean_latency(&self) -> f64 {
        if self.per_request.is_empty() {
            0.0
        } else {
            self.total_latency / self.per_request.len() as f64
        }
    }

    /// Maximum completion time across requests, seconds.
    pub fn max_latency(&self) -> f64 {
        self.per_request.iter().copied().fold(0.0, f64::max)
    }
}

/// Evaluate `placement` on `scenario` with exact (DP) routing.
///
/// Requests are independent, so the routing DP fans out over the configured
/// thread pool when the workload clears the spawn-overhead threshold. Results
/// are reassembled and summed in request order, so the evaluation is
/// bit-identical for any thread count (including the serial path).
pub fn evaluate(scenario: &Scenario, placement: &Placement) -> Evaluation {
    // The per-request DP is O(|chain| · |V|²).
    let unit = scenario.nodes() * scenario.nodes() * 8;
    let threads = if socl_net::parallel_worthwhile(scenario.requests.len(), unit) {
        socl_net::effective_threads()
    } else {
        1
    };
    let outcomes = socl_net::par::par_map_with(&scenario.requests, threads, |req| {
        optimal_route(
            req,
            placement,
            &scenario.net,
            &scenario.ap,
            &scenario.catalog,
        )
    });
    let mut per_request = Vec::with_capacity(scenario.users());
    let mut routes = Vec::with_capacity(scenario.users());
    let mut fallbacks = 0;
    for outcome in outcomes {
        match outcome {
            RouteOutcome::Edge { route, breakdown } => {
                per_request.push(breakdown.total());
                routes.push(Some(route));
            }
            RouteOutcome::CloudFallback => {
                per_request.push(scenario.cloud_penalty);
                routes.push(None);
                fallbacks += 1;
            }
        }
    }
    let total_latency: f64 = per_request.iter().sum();
    let cost = placement.deployment_cost(&scenario.catalog);
    let objective = scenario.objective(cost, total_latency);
    Evaluation {
        cost,
        total_latency,
        per_request,
        cloud_fallbacks: fallbacks,
        assignment: Assignment::new(routes),
        objective,
    }
}

/// Violations of the QoS and capacity constraints (Definitions 2/4).
#[derive(Debug, Clone, Default)]
pub struct ConstraintReport {
    /// Requests whose `𝒟_h > 𝒟_h^max` (index, latency, bound).
    pub latency_violations: Vec<(usize, f64, f64)>,
    /// Budget overshoot `Σ𝒦_k − 𝒦^max` if positive.
    pub budget_overshoot: Option<f64>,
    /// Per-node storage overshoots.
    pub storage_violations: Vec<(NodeId, f64)>,
}

impl ConstraintReport {
    /// True when every constraint holds.
    pub fn is_feasible(&self) -> bool {
        self.latency_violations.is_empty()
            && self.budget_overshoot.is_none()
            && self.storage_violations.is_empty()
    }
}

/// Check Eqs. 4–6 for `placement` on `scenario`, reusing `eval` if already
/// computed (pass `None` to evaluate internally).
pub fn check_constraints(
    scenario: &Scenario,
    placement: &Placement,
    eval: Option<&Evaluation>,
) -> ConstraintReport {
    let owned;
    let eval = match eval {
        Some(e) => e,
        None => {
            owned = evaluate(scenario, placement);
            &owned
        }
    };
    let mut report = ConstraintReport::default();
    for (h, (&d, req)) in eval.per_request.iter().zip(&scenario.requests).enumerate() {
        if d > req.d_max + 1e-9 {
            report.latency_violations.push((h, d, req.d_max));
        }
    }
    let over = eval.cost - scenario.budget;
    if over > 1e-9 {
        report.budget_overshoot = Some(over);
    }
    report.storage_violations = placement.storage_violations(&scenario.catalog, &scenario.net);
    report
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::scenario::ScenarioConfig;

    fn scenario() -> Scenario {
        ScenarioConfig::paper(8, 20).build(5)
    }

    #[test]
    fn empty_placement_sends_everyone_to_cloud() {
        let sc = scenario();
        let p = Placement::empty(sc.services(), sc.nodes());
        let ev = evaluate(&sc, &p);
        assert_eq!(ev.cloud_fallbacks, sc.users());
        assert_eq!(ev.cost, 0.0);
        assert!((ev.total_latency - sc.users() as f64 * sc.cloud_penalty).abs() < 1e-9);
        assert!(ev.objective > 0.0);
    }

    #[test]
    fn full_placement_minimizes_latency_maximizes_cost() {
        let sc = scenario();
        let full = Placement::full(sc.services(), sc.nodes());
        let ev_full = evaluate(&sc, &full);
        assert_eq!(ev_full.cloud_fallbacks, 0);
        assert!(ev_full.cost > 0.0);

        // Any sub-placement that still covers everything has >= latency.
        let mut sub = full.clone();
        // Remove all instances from node 0 (keep coverage via other nodes).
        for m in sc.catalog.ids() {
            sub.set(m, NodeId(0), false);
        }
        let ev_sub = evaluate(&sc, &sub);
        assert!(ev_sub.cost < ev_full.cost);
        assert!(ev_sub.total_latency >= ev_full.total_latency - 1e-9);
    }

    #[test]
    fn objective_blends_cost_and_latency_by_lambda() {
        let sc = scenario();
        let p = Placement::full(sc.services(), sc.nodes());
        let ev = evaluate(&sc, &p);
        let manual = sc.lambda * ev.cost + (1.0 - sc.lambda) * sc.latency_scale * ev.total_latency;
        assert!((ev.objective - manual).abs() < 1e-9);

        let mut sc1 = sc.clone();
        sc1.lambda = 1.0;
        let ev1 = evaluate(&sc1, &p);
        assert!((ev1.objective - ev1.cost).abs() < 1e-9);

        let mut sc0 = sc.clone();
        sc0.lambda = 0.0;
        let ev0 = evaluate(&sc0, &p);
        assert!((ev0.objective - sc0.latency_scale * ev0.total_latency).abs() < 1e-9);
    }

    #[test]
    fn constraint_report_flags_budget() {
        let sc = scenario();
        let full = Placement::full(sc.services(), sc.nodes());
        let mut tight = sc.clone();
        tight.budget = 1.0;
        let rep = check_constraints(&tight, &full, None);
        assert!(rep.budget_overshoot.is_some());
        assert!(!rep.is_feasible());
    }

    #[test]
    fn constraint_report_flags_latency() {
        let mut sc = scenario();
        for r in &mut sc.requests {
            r.d_max = 0.0; // everything violates
        }
        let p = Placement::full(sc.services(), sc.nodes());
        let ev = evaluate(&sc, &p);
        let rep = check_constraints(&sc, &p, Some(&ev));
        assert_eq!(rep.latency_violations.len(), sc.users());
    }

    #[test]
    fn feasible_placement_reports_clean() {
        let sc = scenario();
        // One instance of each requested service on its busiest node; storage
        // per node is at most ~a few units so this is storage-feasible in
        // practice for this seed.
        let mut p = Placement::empty(sc.services(), sc.nodes());
        for m in sc.requested_services() {
            let best = sc.net.node_ids().max_by_key(|&k| sc.demand(m, k)).unwrap();
            p.set(m, best, true);
        }
        let ev = evaluate(&sc, &p);
        assert_eq!(ev.cloud_fallbacks, 0);
        let rep = check_constraints(&sc, &p, Some(&ev));
        assert!(rep.latency_violations.is_empty());
    }

    #[test]
    fn stats_helpers() {
        let sc = scenario();
        let p = Placement::full(sc.services(), sc.nodes());
        let ev = evaluate(&sc, &p);
        assert!(ev.mean_latency() > 0.0);
        assert!(ev.max_latency() >= ev.mean_latency());
        assert!(ev.max_latency() <= ev.total_latency + 1e-12);
    }
}
