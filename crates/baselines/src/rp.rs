//! RP — Random Provisioning.
//!
//! Unstructured baseline: deploy random instances until a random fraction of
//! the budget is consumed (subject to per-node storage), then route every
//! chain position to a uniformly random instance of the service. Seeded for
//! reproducibility.

use crate::common::{ensure_coverage, evaluate_with_routes, BaselineResult};
use socl_model::{Placement, Scenario, ServiceId};
use socl_net::rng::ChaCha12Rng;
use socl_net::time::Stopwatch;
use socl_net::NodeId;

/// Run RP on `scenario` with the given RNG seed.
pub fn random_provisioning(sc: &Scenario, seed: u64) -> BaselineResult {
    let start = Stopwatch::start();
    let mut rng = ChaCha12Rng::seed_from_u64(seed);
    let mut placement = Placement::empty(sc.services(), sc.nodes());
    let requested = sc.requested_services();

    // Guarantee coverage first (random node per service).
    for &m in &requested {
        let feasible: Vec<NodeId> = sc
            .net
            .node_ids()
            .filter(|&k| placement.fits(&sc.catalog, &sc.net, m, k))
            .collect();
        if let Some(&k) = rng.choose(&feasible) {
            placement.set(m, k, true);
        }
    }
    ensure_coverage(sc, &mut placement);

    // Spend a random share of the remaining budget on random instances.
    let target = placement.deployment_cost(&sc.catalog)
        + rng.gen_range(0.3..0.9) * (sc.budget - placement.deployment_cost(&sc.catalog)).max(0.0);
    let mut attempts = 0;
    while placement.deployment_cost(&sc.catalog) < target
        && attempts < 10 * sc.nodes() * requested.len()
    {
        attempts += 1;
        let Some(&m) = rng.choose(&requested) else {
            break; // no requested services: nothing to provision
        };
        let k = NodeId(rng.gen_range(0..sc.nodes() as u32));
        if placement.get(m, k) {
            continue;
        }
        if !placement.fits(&sc.catalog, &sc.net, m, k) {
            continue;
        }
        if placement.deployment_cost(&sc.catalog) + sc.catalog.deploy_cost(m) > sc.budget {
            continue;
        }
        placement.set(m, k, true);
    }

    // Random routing: uniform host per chain position.
    let routes: Vec<Option<Vec<NodeId>>> = sc
        .requests
        .iter()
        .map(|req| {
            req.chain
                .iter()
                .map(|&m: &ServiceId| {
                    let hosts = placement.hosts_of(m);
                    rng.choose(&hosts).copied()
                })
                .collect::<Option<Vec<NodeId>>>()
        })
        .collect();

    let (objective, cost, total_latency, cloud_fallbacks) =
        evaluate_with_routes(sc, &placement, |h| routes[h].clone());
    BaselineResult {
        name: "RP",
        placement,
        objective,
        cost,
        total_latency,
        cloud_fallbacks,
        elapsed: start.elapsed(),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use socl_model::ScenarioConfig;

    #[test]
    fn rp_is_feasible_and_covers() {
        let sc = ScenarioConfig::paper(10, 40).build(1);
        let res = random_provisioning(&sc, 42);
        assert!(res.cost <= sc.budget + 1e-6);
        assert!(res.placement.storage_feasible(&sc.catalog, &sc.net));
        assert_eq!(res.cloud_fallbacks, 0);
        assert!(res.objective > 0.0);
    }

    #[test]
    fn rp_is_seed_deterministic() {
        let sc = ScenarioConfig::paper(10, 40).build(2);
        let a = random_provisioning(&sc, 7);
        let b = random_provisioning(&sc, 7);
        assert_eq!(a.placement, b.placement);
        assert_eq!(a.objective, b.objective);
    }

    #[test]
    fn different_seeds_usually_differ() {
        let sc = ScenarioConfig::paper(10, 40).build(3);
        let a = random_provisioning(&sc, 1);
        let b = random_provisioning(&sc, 2);
        assert!(a.placement != b.placement || (a.objective - b.objective).abs() > 0.0);
    }

    #[test]
    fn random_routing_is_no_better_than_optimal() {
        let sc = ScenarioConfig::paper(10, 40).build(4);
        let res = random_provisioning(&sc, 5);
        let ev = socl_model::evaluate(&sc, &res.placement);
        assert!(res.total_latency >= ev.total_latency - 1e-9);
    }
}
