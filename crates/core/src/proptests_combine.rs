//! Additional property tests focused on the combination stage's invariants.

use crate::combine::Combiner;
use crate::config::{SoclConfig, StoragePolicy};
use crate::partition::initial_partition;
use crate::preprovision::preprovision;
use socl_model::{
    evaluate, optimal_route, optimal_route_with, through_costs, RouteScratch, Scenario,
    ScenarioConfig, ServiceId, ThroughFill, ThroughScratch,
};
use socl_net::rng::{cases, ChaCha12Rng};
use socl_net::NodeId;

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

/// Run the combiner on a random scenario and configuration (both storage
/// policies, exact ζ and relocation on and off), showing `audit` the
/// starting state and the state after every step.
fn audited_run(rng: &mut ChaCha12Rng, audit: &(dyn Fn(&Combiner<'_>) + Sync)) {
    let sc = arb_scenario(rng);
    let cfg = SoclConfig {
        exact_zeta: rng.gen(),
        relocation: rng.gen(),
        storage_policy: *rng.choose(&POLICIES).unwrap(),
        ..SoclConfig::default()
    };
    let parts = initial_partition(&sc, &cfg);
    let pre = preprovision(&sc, &parts, &cfg);
    let mut combiner = Combiner::new(&sc, &cfg, &parts, pre.placement);
    combiner.audit = Some(audit);
    combiner.run();
}

/// Every candidate a round may score from state `c`: the removals of
/// Algorithm 4 and the single-instance moves of the migration sweep, as
/// `(service, dropped host, added host)`.
fn trials(c: &Combiner<'_>) -> Vec<(ServiceId, NodeId, Option<NodeId>)> {
    let removals = c.combinable().into_iter().map(|(m, k)| (m, k, None));
    let moves = c
        .feasible_moves()
        .into_iter()
        .map(|(m, k, q)| (m, k, Some(q)));
    removals.chain(moves).collect()
}

/// The combiner's kept per-request times and objective are, bit for bit,
/// what a fresh `evaluate` of its placement returns — after every step.
#[test]
fn combiner_state_is_a_fresh_evaluation() {
    cases(16, |rng| {
        audited_run(rng, &|c| {
            let ev = evaluate(c.sc, c.placement());
            for (h, (kept, fresh)) in c.per_request.iter().zip(&ev.per_request).enumerate() {
                assert_eq!(kept.to_bits(), fresh.to_bits(), "request {h}");
            }
            assert_eq!(c.objective().to_bits(), ev.objective.to_bits());
        });
    });
}

/// Every trial's table score equals, bit for bit, the score obtained the
/// way the combiner used to compute it: flip the cells on a scratch
/// placement, re-run the chain DP for every user of the service, and sum the
/// differences in request order. Removals are scored at every state,
/// migrations wherever every row is complete — every state of the migration
/// sweep, the completed one before its first move included.
#[test]
fn table_scores_equal_rerouted_scores() {
    cases(16, |rng| {
        audited_run(rng, &|c| {
            let sc = c.sc;
            let mut flipped = c.placement().clone();
            let mut scratch = RouteScratch::new();
            let complete = c.complete.iter().all(|&done| done);
            assert!(
                complete || !c.sweeping,
                "a sweep state with incomplete rows"
            );
            for (m, drop, add) in trials(c).into_iter().filter(|t| t.2.is_none() || complete) {
                flipped.set(m, drop, false);
                add.inspect(|&q| flipped.set(m, q, true));
                let mut rerouted = 0.0;
                for &(h, _) in &c.users_of[m.idx()] {
                    let req = &sc.requests[h];
                    let new_d = optimal_route_with(
                        &mut scratch,
                        req,
                        &flipped,
                        &sc.net,
                        &sc.ap,
                        &sc.catalog,
                    )
                    .edge_time()
                    .unwrap_or(sc.cloud_penalty);
                    rerouted += new_d - c.per_request[h];
                }
                assert_eq!(
                    c.trial_delta(m, drop, add).to_bits(),
                    rerouted.to_bits(),
                    "{m}: {drop} -> {add:?}"
                );
                add.inspect(|&q| flipped.set(m, q, false));
                flipped.set(m, drop, true);
            }
        });
    });
}

/// For every trial and every request it affects, the route the tables pick
/// is the route `optimal_route` finds on the flipped placement; and the kept
/// tables are what `through_costs` builds from the current placement (no row
/// is ever stale): every entry of a request the combiner holds complete, the
/// current hosts' entries of any other, whose off-host entries are `NaN`.
/// Migrations are checked wherever the request is complete.
#[test]
fn table_routes_equal_dp_routes() {
    cases(16, |rng| {
        audited_run(rng, &|c| {
            let sc = c.sc;
            let trials = trials(c);
            let mut flipped = c.placement().clone();
            let mut scratch = ThroughScratch::new();
            let mut fresh = Vec::new();
            for (h, req) in sc.requests.iter().enumerate() {
                let rows = c.row_of[h]..c.row_of[h] + req.len();
                let kept = &c.through[rows.start * sc.nodes()..rows.end * sc.nodes()];
                // `through_costs` leaves the table alone on cloud fallback,
                // where the combiner keeps the penalty in every entry.
                fresh.clear();
                fresh.resize(kept.len(), sc.cloud_penalty);
                let edge = through_costs(
                    &mut scratch,
                    req,
                    c.placement(),
                    &sc.net,
                    &sc.ap,
                    &sc.catalog,
                    ThroughFill::Every,
                    &mut fresh,
                )
                .is_some();
                for (e, (kept, fresh)) in kept.iter().zip(&fresh).enumerate() {
                    let (j, k) = (e / sc.nodes(), NodeId((e % sc.nodes()) as u32));
                    if c.complete[h] || c.placement().get(req.chain[j], k) {
                        assert_eq!(
                            kept.to_bits(),
                            fresh.to_bits(),
                            "request {h}: stale {j}@{k}"
                        );
                    } else {
                        assert!(kept.is_nan(), "request {h}: {j}@{k} filled off-host");
                    }
                }

                for (j, row) in rows.enumerate() {
                    for &(m, drop, add) in trials
                        .iter()
                        .filter(|t| t.0 == req.chain[j] && (t.2.is_none() || c.complete[h]))
                    {
                        flipped.set(m, drop, false);
                        add.inspect(|&q| flipped.set(m, q, true));
                        let dp = optimal_route(req, &flipped, &sc.net, &sc.ap, &sc.catalog);
                        let table = c
                            .trial_host(row, drop, add)
                            .filter(|_| edge)
                            .and_then(|k| scratch.route_through(req, &sc.ap, j, k));
                        assert_eq!(table, dp.route(), "request {h}, {m}: {drop} -> {add:?}");
                        add.inspect(|&q| flipped.set(m, q, false));
                        flipped.set(m, drop, true);
                    }
                }
            }
        });
    });
}
