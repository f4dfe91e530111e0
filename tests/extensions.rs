//! Integration tests for the extension subsystems: extra datasets and warm
//! starts.

use socl::core::{placement_churn, WarmStartSolver};
use socl::prelude::*;

#[test]
fn socl_runs_on_every_embedded_dataset() {
    for (name, ds) in [
        ("eshop", EshopDataset::build()),
        ("sock-shop", SockShopDataset::build()),
        ("train-ticket", TrainTicketDataset::build()),
    ] {
        // Scale the budget with the catalog size: Train Ticket has 24
        // services, so the paper's 6000 cannot even cover one instance each.
        let mut cfg = ScenarioConfig::paper(10, 50);
        cfg.budget = 6000.0 * (ds.len() as f64 / 12.0);
        let sc = cfg.build_with_dataset(&ds, 2);
        let res = SoclSolver::new().solve(&sc);
        assert_eq!(res.evaluation.cloud_fallbacks, 0, "{name}");
        assert!(res.evaluation.cost <= sc.budget + 1e-6, "{name}");
        assert!(
            res.placement.storage_feasible(&sc.catalog, &sc.net),
            "{name}"
        );
    }
}

#[test]
fn warm_start_tracks_a_drifting_system() {
    let mut solver = WarmStartSolver::new(SoclConfig::default());
    let mut previous: Option<Placement> = None;
    let mut total_churn = 0usize;
    for slot in 0..5u64 {
        // Drift: same topology seed, evolving request seed.
        let mut cfg = ScenarioConfig::paper(10, 40);
        cfg.nodes = 10;
        let sc = {
            // Keep the topology fixed by reusing the same build seed for the
            // net, but vary request locations by rotating them.
            let mut sc = cfg.build(7);
            for r in sc.requests.iter_mut() {
                r.location = NodeId((r.location.0 + slot as u32) % 10);
            }
            sc
        };
        let out = solver.solve_slot(&sc);
        assert_eq!(out.result.evaluation.cloud_fallbacks, 0);
        if let Some(prev) = &previous {
            total_churn += placement_churn(prev, &out.result.placement);
        }
        previous = Some(out.result.placement.clone());
    }
    // The drifting system forces some churn but the warm start keeps it far
    // below a full redeploy per slot (placements have ~15 instances; 4
    // transitions × 2·15 would be a full swap every slot).
    assert!(
        total_churn < 4 * 30,
        "churn {total_churn} looks like full redeploys"
    );
}
