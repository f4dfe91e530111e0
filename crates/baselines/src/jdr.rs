//! JDR — Joint Deployment and Routing (after Peng et al. [11], as described
//! in the paper's evaluation section).
//!
//! Microservices are split into a *single-user* group (requested by exactly
//! one user) and a *multi-user* group. Single-user services deploy as close
//! to their user's node as storage allows; multi-user services deploy onto
//! high-capacity servers, replicating across the capacity ranking while the
//! budget lasts ("JDR attempted to optimize latency … by neglecting
//! provisioning costs, JDR caused resource redundancy"). Routing is optimal
//! per request (the algorithm's focus is latency).

use crate::common::{ensure_coverage, BaselineResult};
use socl_model::{evaluate, Placement, Scenario, ServiceId};
use socl_net::NodeId;

use socl_net::time::Stopwatch;

/// Nodes ordered by descending compute capacity (ties to smaller id).
fn capacity_ranking(sc: &Scenario) -> Vec<NodeId> {
    let mut nodes: Vec<NodeId> = sc.net.node_ids().collect();
    nodes.sort_by(|&a, &b| {
        sc.net
            .compute_gflops(b)
            .total_cmp(&sc.net.compute_gflops(a))
            .then(a.cmp(&b))
    });
    nodes
}

/// Run JDR on `scenario`.
pub fn jdr(sc: &Scenario) -> BaselineResult {
    let start = Stopwatch::start();
    let mut placement = Placement::empty(sc.services(), sc.nodes());

    // Classify.
    let requested = sc.requested_services();
    let (single, multi): (Vec<ServiceId>, Vec<ServiceId>) = requested
        .iter()
        .copied()
        .partition(|&m| sc.total_demand(m) == 1);

    // Single-user services: on (or as near as possible to) the user's node.
    for &m in &single {
        // A single-user service has, by the partition above, exactly one
        // requesting user; skip defensively if the invariant ever breaks.
        let Some(user) = sc.requests.iter().find(|r| r.uses(m)) else {
            continue;
        };
        // Nearest by channel speed from the user's location.
        let mut candidates: Vec<NodeId> = sc.net.node_ids().collect();
        candidates.sort_by(|&a, &b| {
            sc.ap
                .best_speed(user.location, b)
                .total_cmp(&sc.ap.best_speed(user.location, a))
                .then(a.cmp(&b))
        });
        if let Some(&k) = candidates
            .iter()
            .find(|&&k| placement.fits(&sc.catalog, &sc.net, m, k))
        {
            placement.set(m, k, true);
        }
    }

    // Multi-user services: replicate across high-capacity servers while the
    // budget allows, round-robin over the capacity ranking.
    let ranking = capacity_ranking(sc);
    // First pass: one instance each on the top-capacity feasible node.
    for &m in &multi {
        if let Some(&k) = ranking
            .iter()
            .find(|&&k| placement.fits(&sc.catalog, &sc.net, m, k))
        {
            placement.set(m, k, true);
        }
    }
    // Redundancy passes: keep adding replicas (budget-blind latency focus,
    // stopped only by the hard budget constraint and storage).
    let mut progress = true;
    while progress {
        progress = false;
        for &m in &multi {
            let kappa = sc.catalog.deploy_cost(m);
            if placement.deployment_cost(&sc.catalog) + kappa > sc.budget {
                continue;
            }
            // Prefer capacity ranking order for the next replica.
            if let Some(&k) = ranking
                .iter()
                .find(|&&k| !placement.get(m, k) && placement.fits(&sc.catalog, &sc.net, m, k))
            {
                // Only replicate where the service actually has demand reach:
                // cap replicas at the number of demand-hosting nodes.
                if placement.instance_count(m) < sc.request_nodes(m).len() {
                    placement.set(m, k, true);
                    progress = true;
                }
            }
        }
    }
    ensure_coverage(sc, &mut placement);

    let ev = evaluate(sc, &placement);
    BaselineResult {
        name: "JDR",
        placement,
        objective: ev.objective,
        cost: ev.cost,
        total_latency: ev.total_latency,
        cloud_fallbacks: ev.cloud_fallbacks,
        elapsed: start.elapsed(),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use socl_model::ScenarioConfig;

    #[test]
    fn jdr_is_feasible() {
        let sc = ScenarioConfig::paper(10, 40).build(1);
        let res = jdr(&sc);
        assert!(res.cost <= sc.budget + 1e-6);
        assert!(res.placement.storage_feasible(&sc.catalog, &sc.net));
        assert_eq!(res.cloud_fallbacks, 0);
    }

    #[test]
    fn jdr_spends_generously() {
        // The redundancy passes should push cost well above the one-instance
        // minimum (the paper's critique of JDR).
        let sc = ScenarioConfig::paper(10, 60).build(2);
        let res = jdr(&sc);
        let min_cost: f64 = sc
            .requested_services()
            .iter()
            .map(|&m| sc.catalog.deploy_cost(m))
            .sum();
        assert!(
            res.cost > min_cost,
            "JDR cost {} should exceed minimal {min_cost}",
            res.cost
        );
    }

    #[test]
    fn multi_user_services_prefer_high_capacity_nodes() {
        let sc = ScenarioConfig::paper(10, 50).build(3);
        let res = jdr(&sc);
        let ranking = capacity_ranking(&sc);
        let top = ranking[0];
        // The highest-capacity node should host at least one multi-user
        // service (it is everyone's first choice).
        let multi_there = res
            .placement
            .services_on(top)
            .iter()
            .any(|&m| sc.total_demand(m) > 1);
        assert!(
            multi_there || res.placement.services_on(top).is_empty(),
            "top node unused by multi-user services despite capacity priority"
        );
    }

    #[test]
    fn jdr_is_deterministic() {
        let sc = ScenarioConfig::paper(10, 40).build(4);
        let a = jdr(&sc);
        let b = jdr(&sc);
        assert_eq!(a.placement, b.placement);
    }
}
