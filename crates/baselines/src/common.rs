//! Shared result type and evaluation helpers for the baselines.

use socl_model::{completion_time, Placement, Scenario};
use socl_net::NodeId;
use std::time::Duration;

/// Outcome of one baseline run.
#[derive(Debug, Clone)]
pub struct BaselineResult {
    /// Human-readable algorithm tag ("RP", "JDR", "GC-OG").
    pub name: &'static str,
    /// The deployment decision.
    pub placement: Placement,
    /// Weighted objective `Q` under the algorithm's own routing.
    pub objective: f64,
    /// Deployment cost `Σ𝒦_k`.
    pub cost: f64,
    /// Total completion time `Σ𝒟_h` (seconds), fallbacks at the penalty.
    pub total_latency: f64,
    /// Requests that fell back to the cloud.
    pub cloud_fallbacks: usize,
    /// Wall-clock solve time.
    pub elapsed: Duration,
}

/// Evaluate `placement` with an arbitrary per-request routing policy.
///
/// `route_fn(h)` returns the node sequence for request `h`, or `None` for a
/// cloud fallback. Returns `(objective, cost, total_latency, fallbacks)`.
pub fn evaluate_with_routes<F>(
    sc: &Scenario,
    placement: &Placement,
    mut route_fn: F,
) -> (f64, f64, f64, usize)
where
    F: FnMut(usize) -> Option<Vec<NodeId>>,
{
    let mut total_latency = 0.0;
    let mut fallbacks = 0;
    for (h, req) in sc.requests.iter().enumerate() {
        match route_fn(h) {
            Some(route) => {
                let b = completion_time(req, &route, &sc.net, &sc.ap, &sc.catalog);
                total_latency += b.total();
            }
            None => {
                total_latency += sc.cloud_penalty;
                fallbacks += 1;
            }
        }
    }
    let cost = placement.deployment_cost(&sc.catalog);
    let objective = sc.lambda * cost + (1.0 - sc.lambda) * sc.latency_scale * total_latency;
    (objective, cost, total_latency, fallbacks)
}

/// Ensure each requested service has ≥ 1 instance: deploy any missing
/// service on the storage-feasible node with the highest local demand
/// (falling back to the emptiest node). Used by all baselines so that none
/// of them silently loses to SoCL by stranding requests in the cloud.
pub fn ensure_coverage(sc: &Scenario, placement: &mut Placement) {
    for m in sc.requested_services() {
        if placement.instance_count(m) > 0 {
            continue;
        }
        let candidate = sc
            .net
            .node_ids()
            .filter(|&k| placement.fits(&sc.catalog, &sc.net, m, k))
            .max_by_key(|&k| sc.demand(m, k));
        if let Some(k) = candidate {
            placement.set(m, k, true);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use socl_model::{evaluate, route_all, ScenarioConfig};

    #[test]
    fn evaluate_with_optimal_routes_matches_model_evaluate() {
        let sc = ScenarioConfig::paper(8, 20).build(3);
        let placement = Placement::full(sc.services(), sc.nodes());
        let asg = route_all(&sc.requests, &placement, &sc.net, &sc.ap, &sc.catalog);
        let (obj, cost, lat, fb) =
            evaluate_with_routes(&sc, &placement, |h| asg.route(h).map(|r| r.to_vec()));
        let ev = evaluate(&sc, &placement);
        assert!((obj - ev.objective).abs() < 1e-9);
        assert!((cost - ev.cost).abs() < 1e-9);
        assert!((lat - ev.total_latency).abs() < 1e-9);
        assert_eq!(fb, ev.cloud_fallbacks);
    }

    #[test]
    fn ensure_coverage_fills_gaps() {
        let sc = ScenarioConfig::paper(8, 30).build(4);
        let mut placement = Placement::empty(sc.services(), sc.nodes());
        ensure_coverage(&sc, &mut placement);
        for m in sc.requested_services() {
            assert!(placement.instance_count(m) >= 1, "{m} uncovered");
        }
        assert!(placement.storage_feasible(&sc.catalog, &sc.net));
    }

    #[test]
    fn ensure_coverage_is_idempotent() {
        let sc = ScenarioConfig::paper(8, 30).build(5);
        let mut a = Placement::empty(sc.services(), sc.nodes());
        ensure_coverage(&sc, &mut a);
        let mut b = a.clone();
        ensure_coverage(&sc, &mut b);
        assert_eq!(a, b);
    }
}
