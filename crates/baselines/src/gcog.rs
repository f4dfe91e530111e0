//! GC-OG — Greedy Combine with Objective Gradient.
//!
//! Starts from the demand-saturated placement (an instance of every service
//! on every node where it has demand, storage permitting) and repeatedly
//! removes the single instance whose removal most improves the full
//! objective, re-evaluating *every* candidate with exact routing each round.
//! While the budget is violated, the least-bad removal is forced even if the
//! objective worsens. The search stops when no removal improves the
//! objective and the budget holds.
//!
//! Quality is good; cost is the full `O(instances² · eval)` sweep the paper
//! calls out ("its low search efficiency became a limiting factor … with
//! 120 users GC-OG required 2,274.8 seconds").

use crate::common::{ensure_coverage, BaselineResult};
use socl_model::{evaluate, Placement, Scenario};
use socl_net::time::Stopwatch;

/// Run GC-OG on `scenario`.
pub fn gc_og(sc: &Scenario) -> BaselineResult {
    let start = Stopwatch::start();
    let mut placement = Placement::empty(sc.services(), sc.nodes());

    // Coverage first (one instance per requested service), so storage
    // saturation below can never strand a service with zero instances.
    ensure_coverage(sc, &mut placement);
    // Demand-saturated start: every service everywhere it has local demand.
    for m in sc.requested_services() {
        for k in sc.request_nodes(m) {
            if !placement.get(m, k) && placement.fits(&sc.catalog, &sc.net, m, k) {
                placement.set(m, k, true);
            }
        }
    }

    loop {
        let current = evaluate(sc, &placement);
        let over_budget = current.cost > sc.budget + 1e-9;

        // Evaluate removing each instance (keeping coverage).
        let mut best: Option<(f64, socl_model::ServiceId, socl_net::NodeId)> = None;
        for (m, k) in placement.iter_deployed() {
            if placement.instance_count(m) <= 1 {
                continue;
            }
            let mut trial = placement.clone();
            trial.set(m, k, false);
            let ev = evaluate(sc, &trial);
            if best.as_ref().is_none_or(|&(b, _, _)| ev.objective < b) {
                best = Some((ev.objective, m, k));
            }
        }

        match best {
            Some((obj, m, k)) if over_budget || obj < current.objective - 1e-9 => {
                placement.set(m, k, false);
            }
            _ => break,
        }
    }

    let ev = evaluate(sc, &placement);
    BaselineResult {
        name: "GC-OG",
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
    fn gcog_is_feasible_and_within_budget() {
        let sc = ScenarioConfig::paper(8, 30).build(1);
        let res = gc_og(&sc);
        assert!(res.cost <= sc.budget + 1e-6, "cost {}", res.cost);
        assert_eq!(res.cloud_fallbacks, 0);
        assert!(res.placement.storage_feasible(&sc.catalog, &sc.net));
    }

    #[test]
    fn gcog_reaches_a_local_minimum() {
        let sc = ScenarioConfig::paper(8, 30).build(2);
        let res = gc_og(&sc);
        // No single removal can improve further.
        let current = evaluate(&sc, &res.placement);
        for (m, k) in res.placement.iter_deployed() {
            if res.placement.instance_count(m) <= 1 {
                continue;
            }
            let mut trial = res.placement.clone();
            trial.set(m, k, false);
            let ev = evaluate(&sc, &trial);
            assert!(
                ev.objective >= current.objective - 1e-9,
                "removal of {m}@{k} improves: {} < {}",
                ev.objective,
                current.objective
            );
        }
    }

    #[test]
    fn gcog_improves_on_its_starting_point() {
        let sc = ScenarioConfig::paper(8, 40).build(3);
        // Rebuild the start.
        let mut start_p = Placement::empty(sc.services(), sc.nodes());
        ensure_coverage(&sc, &mut start_p);
        for m in sc.requested_services() {
            for k in sc.request_nodes(m) {
                if !start_p.get(m, k) && start_p.fits(&sc.catalog, &sc.net, m, k) {
                    start_p.set(m, k, true);
                }
            }
        }
        let before = evaluate(&sc, &start_p).objective;
        let res = gc_og(&sc);
        assert!(res.objective <= before + 1e-9);
    }

    #[test]
    fn gcog_is_deterministic() {
        let sc = ScenarioConfig::paper(8, 25).build(4);
        let a = gc_og(&sc);
        let b = gc_og(&sc);
        assert_eq!(a.placement, b.placement);
        assert_eq!(a.objective, b.objective);
    }
}
