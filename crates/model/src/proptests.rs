//! Property-based tests spanning the model crate.

use crate::latency::completion_time;
use crate::objective::evaluate;
use crate::placement::Placement;
use crate::request::{UserId, UserRequest};
use crate::routing::{
    optimal_hosts_into, optimal_route, optimal_route_with, through_costs, RouteOutcome,
    RouteScratch, ThroughFill, ThroughScratch,
};
use crate::scenario::{Scenario, ScenarioConfig};
use crate::service::{Microservice, ServiceCatalog, ServiceId};
use socl_net::rng::{cases, ChaCha12Rng};
use socl_net::{AllPairs, EdgeNetwork, EdgeServer, LinkParams, NodeId};

fn arb_scenario(rng: &mut ChaCha12Rng) -> Scenario {
    let (nodes, users) = (rng.gen_range(3usize..=10), rng.gen_range(5usize..=25));
    ScenarioConfig::paper(nodes, users).build(rng.next_u64())
}

/// Random placement with roughly `density` of all (service, node) pairs set,
/// patched to cover all requested services.
fn random_covering_placement(sc: &Scenario, density: f64, rng: &mut ChaCha12Rng) -> Placement {
    let mut p = Placement::empty(sc.services(), sc.nodes());
    for i in 0..sc.services() {
        for k in 0..sc.nodes() {
            if rng.gen::<f64>() < density {
                p.set(ServiceId(i as u32), NodeId(k as u32), true);
            }
        }
    }
    for m in sc.requested_services() {
        if p.instance_count(m) == 0 {
            let k = rng.gen_range(0..sc.nodes());
            p.set(m, NodeId(k as u32), true);
        }
    }
    p
}

/// `optimal_hosts_into` appends exactly the route `optimal_route_with`
/// returns, after whatever the buffer holds, with the DP's time; a cloud
/// fallback leaves the buffer as it was. Sparse placements, some with a
/// requested service left unhosted.
#[test]
fn hosts_only_route_equals_the_full_route() {
    cases(48, |rng| {
        let sc = arb_scenario(rng);
        let mut p = random_covering_placement(&sc, rng.gen_range(0.05..0.9), rng);
        if rng.gen::<bool>() {
            let m = ServiceId(rng.gen_range(0..sc.services()) as u32);
            for k in sc.net.node_ids() {
                p.set(m, k, false);
            }
        }
        let (mut scratch, mut full_scratch) = (RouteScratch::new(), RouteScratch::new());
        let (mut hosts, mut want) = (vec![NodeId(u32::MAX)], vec![NodeId(u32::MAX)]);
        for req in &sc.requests {
            let (net, ap, cat) = (&sc.net, &sc.ap, &sc.catalog);
            let full = optimal_route_with(&mut full_scratch, req, &p, net, ap, cat);
            let dp_s = optimal_hosts_into(&mut scratch, req, &p, net, ap, cat, &mut hosts);
            match full {
                RouteOutcome::Edge { route, breakdown } => {
                    want.extend(route);
                    let dp_s = dp_s.expect("edge-served");
                    assert!((dp_s - breakdown.total()).abs() < 1e-6, "{}", req.id);
                }
                RouteOutcome::CloudFallback => assert_eq!(dp_s, None),
            }
            assert_eq!(hosts, want, "{}", req.id);
        }
    });
}

/// Adding instances never increases any request's optimal latency
/// (monotonicity of the routing relaxation).
#[test]
fn more_instances_never_hurt_latency() {
    cases(48, |rng| {
        let sc = arb_scenario(rng);
        let small = random_covering_placement(&sc, 0.3, rng);
        let mut big = small.clone();
        // Add instances everywhere for service 0 and on node 0 for all.
        for k in 0..sc.nodes() {
            big.set(ServiceId(0), NodeId(k as u32), true);
        }
        for i in 0..sc.services() {
            big.set(ServiceId(i as u32), NodeId(0), true);
        }
        let ev_small = evaluate(&sc, &small);
        let ev_big = evaluate(&sc, &big);
        for (a, b) in ev_small.per_request.iter().zip(&ev_big.per_request) {
            assert!(b <= &(a + 1e-9), "latency rose after adding instances");
        }
        assert!(ev_big.cost >= ev_small.cost);
    });
}

/// Routing respects Eq. 9/10: exactly one node per chain position, every
/// node hosts the service it serves.
#[test]
fn routing_respects_decision_constraints() {
    cases(48, |rng| {
        let sc = arb_scenario(rng);
        let p = random_covering_placement(&sc, 0.4, rng);
        let ev = evaluate(&sc, &p);
        assert!(ev.assignment.consistent_with(&p, &sc.requests));
        for (h, req) in sc.requests.iter().enumerate() {
            if let Some(route) = ev.assignment.route(h) {
                assert_eq!(route.len(), req.chain.len());
            }
        }
    });
}

/// The objective is exactly λ·cost + (1-λ)·scale·latency.
#[test]
fn objective_identity() {
    cases(48, |rng| {
        let sc = arb_scenario(rng);
        let p = random_covering_placement(&sc, rng.gen_range(0.2..0.9), rng);
        let ev = evaluate(&sc, &p);
        let manual = sc.lambda * ev.cost + (1.0 - sc.lambda) * sc.latency_scale * ev.total_latency;
        assert!((ev.objective - manual).abs() < 1e-6);
        assert!((ev.per_request.iter().sum::<f64>() - ev.total_latency).abs() < 1e-6);
    });
}

/// Evaluation is deterministic.
#[test]
fn evaluation_deterministic() {
    cases(48, |rng| {
        let sc = arb_scenario(rng);
        let p = random_covering_placement(&sc, 0.5, rng);
        let a = evaluate(&sc, &p);
        let b = evaluate(&sc, &p);
        assert_eq!(a.objective, b.objective);
        assert_eq!(a.per_request, b.per_request);
    });
}

/// Full placement gives per-request latencies that lower-bound every
/// covering placement's (the full placement is the latency-optimal
/// relaxation).
#[test]
fn full_placement_is_latency_lower_bound() {
    cases(48, |rng| {
        let sc = arb_scenario(rng);
        let full = Placement::full(sc.services(), sc.nodes());
        let any = random_covering_placement(&sc, 0.35, rng);
        let ev_full = evaluate(&sc, &full);
        let ev_any = evaluate(&sc, &any);
        for (f, a) in ev_full.per_request.iter().zip(&ev_any.per_request) {
            assert!(f <= &(a + 1e-9));
        }
    });
}

/// Small routing instance for exhaustive oracle checks: a connected random
/// topology with ≤ 6 nodes, a chain of ≤ 5 distinct services, and a random
/// covering placement.
fn small_instance(
    nodes: usize,
    chain_len: usize,
    rng: &mut ChaCha12Rng,
) -> (Scenario, Placement, crate::request::UserRequest) {
    use crate::request::{UserId, UserRequest};
    use crate::service::{Microservice, ServiceCatalog};
    use socl_net::TopologyConfig;

    let net = TopologyConfig::paper(nodes).build(rng.next_u64());
    let catalog = ServiceCatalog::from_services(
        (0..chain_len)
            .map(|_| {
                Microservice::new(
                    rng.gen_range(0.5..3.0),
                    rng.gen_range(0.5..2.0),
                    rng.gen_range(1.0..3.0),
                )
            })
            .collect(),
    );
    let chain: Vec<ServiceId> = (0..chain_len as u32).map(ServiceId).collect();
    let edge_data: Vec<f64> = (1..chain_len).map(|_| rng.gen_range(0.1..4.0)).collect();
    let req = UserRequest::new(
        UserId(0),
        NodeId(rng.gen_range(0..nodes) as u32),
        chain,
        edge_data,
        rng.gen_range(0.1..4.0),
        rng.gen_range(0.05..1.0),
        1e9,
    );
    let mut placement = Placement::empty(chain_len, nodes);
    for i in 0..chain_len {
        for k in 0..nodes {
            if rng.gen::<f64>() < 0.55 {
                placement.set(ServiceId(i as u32), NodeId(k as u32), true);
            }
        }
        if placement.instance_count(ServiceId(i as u32)) == 0 {
            placement.set(
                ServiceId(i as u32),
                NodeId(rng.gen_range(0..nodes) as u32),
                true,
            );
        }
    }
    let scenario = ScenarioConfig::paper(nodes, 1).assemble(net, catalog, vec![req.clone()]);
    (scenario, placement, req)
}

/// Brute-force oracle: on small instances, enumerating every assignment
/// `Y` (one host per chain position) exhaustively must not find anything
/// better than the layered DP — and the DP's claimed cost must be
/// realized by its own route.
#[test]
fn dp_is_latency_optimal_against_exhaustive_enumeration() {
    use crate::latency::completion_time;

    cases(64, |rng| {
        let (nodes, chain_len) = (rng.gen_range(2usize..=6), rng.gen_range(1usize..=5));
        let (sc, placement, req) = small_instance(nodes, chain_len, rng);
        let layers: Vec<Vec<NodeId>> = req.chain.iter().map(|&m| placement.hosts_of(m)).collect();
        assert!(layers.iter().all(|l| !l.is_empty()));

        let out = optimal_route(&req, &placement, &sc.net, &sc.ap, &sc.catalog);
        let RouteOutcome::Edge { route, breakdown } = out else {
            panic!("covering placement must route on the edge");
        };
        let dp_cost = breakdown.total();

        // Odometer over the full assignment space (≤ 6^5 combinations).
        let mut idx = vec![0usize; layers.len()];
        let mut best = f64::INFINITY;
        let mut best_route = Vec::new();
        loop {
            let candidate: Vec<NodeId> = idx.iter().zip(&layers).map(|(&i, l)| l[i]).collect();
            let t = completion_time(&req, &candidate, &sc.net, &sc.ap, &sc.catalog).total();
            if t < best {
                best = t;
                best_route = candidate;
            }
            let mut j = 0;
            loop {
                if j == layers.len() {
                    break;
                }
                idx[j] += 1;
                if idx[j] < layers[j].len() {
                    break;
                }
                idx[j] = 0;
                j += 1;
            }
            if j == layers.len() {
                break;
            }
        }

        assert!(
            (dp_cost - best).abs() < 1e-9,
            "DP {dp_cost} vs exhaustive {best} (dp route {route:?}, best {best_route:?})"
        );
        // The DP's route itself achieves the optimum.
        let realized = completion_time(&req, &route, &sc.net, &sc.ap, &sc.catalog).total();
        assert!((realized - best).abs() < 1e-9);
    });
}

/// Parallel chain evaluation is bit-identical to serial: same objective
/// bits, `total_cmp`-equal per-request latencies, identical routes. The
/// scenario is sized so the fan-out threshold genuinely engages.
#[test]
fn parallel_evaluation_identical_to_serial() {
    cases(6, |rng| {
        let sc = ScenarioConfig::paper(30, 120).build(rng.next_u64());
        let p = random_covering_placement(&sc, 0.4, rng);
        socl_net::set_threads(1);
        let serial = evaluate(&sc, &p);
        socl_net::set_threads(4);
        let parallel = evaluate(&sc, &p);
        socl_net::set_threads(0);
        assert_eq!(serial.objective.to_bits(), parallel.objective.to_bits());
        assert_eq!(serial.cost.to_bits(), parallel.cost.to_bits());
        assert_eq!(
            serial.total_latency.to_bits(),
            parallel.total_latency.to_bits()
        );
        assert_eq!(serial.cloud_fallbacks, parallel.cloud_fallbacks);
        assert_eq!(serial.per_request.len(), parallel.per_request.len());
        for (a, b) in serial.per_request.iter().zip(&parallel.per_request) {
            assert!(a.total_cmp(b) == std::cmp::Ordering::Equal);
        }
        for h in 0..sc.requests.len() {
            assert_eq!(serial.assignment.route(h), parallel.assignment.route(h));
        }
    });
}

/// `through_costs` against its definition, bit for bit: every entry of a
/// full-width fill is `completion_time` of the route `route_through` names
/// (`INFINITY` where it names none), a hosts-only fill agrees at the current
/// hosts and is `NaN` elsewhere, and both return `optimal_route`'s time.
fn assert_through_costs_are_route_times(
    net: &EdgeNetwork,
    ap: &AllPairs,
    catalog: &ServiceCatalog,
    placement: &Placement,
    req: &UserRequest,
) {
    let nodes = net.node_count();
    let mut scratch = ThroughScratch::new();
    let mut hosts_only = vec![0.0; req.len() * nodes];
    let mut every = hosts_only.clone();
    let dp = optimal_route(req, placement, net, ap, catalog).edge_time();
    for (fill, out) in [
        (ThroughFill::Hosts, &mut hosts_only),
        (ThroughFill::Every, &mut every),
    ] {
        let own = through_costs(&mut scratch, req, placement, net, ap, catalog, fill, out);
        assert_eq!(
            own.map(f64::to_bits),
            dp.map(f64::to_bits),
            "{fill:?} own time"
        );
    }
    for j in 0..req.len() {
        for k in net.node_ids() {
            let want = match scratch.route_through(req, ap, j, k) {
                Some(route) => completion_time(req, route, net, ap, catalog).total(),
                None => f64::INFINITY,
            };
            let e = j * nodes + k.idx();
            assert_eq!(every[e].to_bits(), want.to_bits(), "every: {j}@{k}");
            if placement.get(req.chain[j], k) {
                assert_eq!(hosts_only[e].to_bits(), want.to_bits(), "hosts: {j}@{k}");
            } else {
                assert!(hosts_only[e].is_nan(), "hosts: {j}@{k} filled off-host");
            }
        }
    }
}

/// The folds `through_costs` assembles its entries from add the same terms
/// in the same order as `completion_time` on the entry's route.
#[test]
fn through_costs_equal_route_completion_times() {
    cases(32, |rng| {
        let sc = arb_scenario(rng);
        let p = random_covering_placement(&sc, rng.gen_range(0.1..0.7), rng);
        for req in &sc.requests {
            assert_through_costs_are_route_times(&sc.net, &sc.ap, &sc.catalog, &p, req);
        }
    });
}

/// The cases random scenarios rarely or never produce, staged: a
/// one-service chain, hosts cut off from each other (two components), and
/// two hosts at exactly the same cost.
#[test]
fn through_costs_equal_route_completion_times_in_staged_corners() {
    let catalog = ServiceCatalog::from_services(vec![
        Microservice::new(1.0, 1.0, 2.0),
        Microservice::new(1.0, 1.0, 3.0),
        Microservice::new(1.0, 1.0, 1.0),
    ]);
    let request = |location: u32, chain: Vec<ServiceId>| {
        let edge_data = vec![1.5; chain.len() - 1];
        UserRequest::new(UserId(0), NodeId(location), chain, edge_data, 1.0, 0.2, 1e9)
    };
    let placed = |hosts: &[&[u32]]| {
        let mut p = Placement::empty(3, 4);
        for (m, on) in hosts.iter().enumerate() {
            for &k in *on {
                p.set(ServiceId(m as u32), NodeId(k), true);
            }
        }
        p
    };

    // Two components {0, 1} and {2, 3}: entries across them read INFINITY,
    // hosts cut off from the previous layer included.
    let mut split = EdgeNetwork::new();
    for c in [10.0, 20.0, 15.0, 30.0] {
        split.push_server(EdgeServer::new(c, 8.0));
    }
    split.add_link(NodeId(0), NodeId(1), LinkParams::from_rate(40.0));
    split.add_link(NodeId(2), NodeId(3), LinkParams::from_rate(60.0));
    let ap = AllPairs::build(&split);
    let p = placed(&[&[0, 2], &[1, 3], &[1, 2]]);
    let chain = vec![ServiceId(0), ServiceId(1), ServiceId(2)];
    assert_through_costs_are_route_times(&split, &ap, &catalog, &p, &request(0, chain.clone()));
    assert_through_costs_are_route_times(&split, &ap, &catalog, &p, &request(3, chain));
    // A one-service chain: no transfer term, no neighbouring layer.
    for loc in 0..4 {
        let req = request(loc, vec![ServiceId(1)]);
        assert_through_costs_are_route_times(&split, &ap, &catalog, &p, &req);
    }

    // A star with identical arms: hosts 1 and 2 tie exactly, in both
    // directions, so the lower id must win in the folds as in the scans.
    let mut star = EdgeNetwork::new();
    for _ in 0..4 {
        star.push_server(EdgeServer::new(10.0, 8.0));
    }
    for arm in 1..4 {
        star.add_link(NodeId(0), NodeId(arm), LinkParams::from_rate(40.0));
    }
    let ap = AllPairs::build(&star);
    let p = placed(&[&[1, 2], &[0], &[1, 2]]);
    let req = request(0, vec![ServiceId(0), ServiceId(1), ServiceId(2)]);
    let dp = optimal_route(&req, &p, &star, &ap, &catalog);
    assert_eq!(dp.route(), Some(&[NodeId(1), NodeId(0), NodeId(1)][..]));
    assert_through_costs_are_route_times(&star, &ap, &catalog, &p, &req);
}

/// Removes from `placement` the hosts of `chain[j]` that `pick` selects
/// among those `req`'s table is not pinned to, and checks the lemma of
/// [`ThroughScratch::pinned`]: a fresh table has the same own time and
/// every remaining host entry, bit for bit, and pins no host the old table
/// did not. Returns how many hosts it removed.
fn assert_unpinned_removal_keeps_the_table(
    net: &EdgeNetwork,
    ap: &AllPairs,
    catalog: &ServiceCatalog,
    placement: &Placement,
    req: &UserRequest,
    j: usize,
    mut pick: impl FnMut(NodeId) -> bool,
) -> usize {
    let nodes = net.node_count();
    let (mut scratch, mut fresh_scratch) = (ThroughScratch::new(), ThroughScratch::new());
    let mut kept = vec![0.0; req.len() * nodes];
    let mut fresh = kept.clone();
    let Some(own) = through_costs(
        &mut scratch,
        req,
        placement,
        net,
        ap,
        catalog,
        ThroughFill::Hosts,
        &mut kept,
    ) else {
        return 0;
    };
    let mut pins = Vec::new();
    scratch.pinned(|j, k| pins.push((j, k)));
    let m = req.chain[j];
    let mut cut = placement.clone();
    let mut removed = 0;
    for k in placement.hosts_iter(m) {
        if !pins.contains(&(j, k)) && pick(k) {
            cut.set(m, k, false);
            removed += 1;
        }
    }
    let fresh_own = through_costs(
        &mut fresh_scratch,
        req,
        &cut,
        net,
        ap,
        catalog,
        ThroughFill::Hosts,
        &mut fresh,
    );
    assert_eq!(fresh_own.map(f64::to_bits), Some(own.to_bits()), "own time");
    for (jj, &s) in req.chain.iter().enumerate() {
        for k in cut.hosts_iter(s) {
            let e = jj * nodes + k.idx();
            assert_eq!(fresh[e].to_bits(), kept[e].to_bits(), "{jj}@{k}");
        }
    }
    let mut fresh_pins = Vec::new();
    fresh_scratch.pinned(|j, k| fresh_pins.push((j, k)));
    assert!(
        fresh_pins.iter().all(|pin| pins.contains(pin)),
        "new pins {fresh_pins:?} beyond {pins:?}"
    );
    removed
}

/// The lemma behind the combiner's patched rows: removing any set of
/// unpinned hosts of one chain position changes no number of the table
/// (own time, remaining host entries) and adds no pin.
#[test]
fn removing_unpinned_hosts_keeps_the_table() {
    let mut removed = 0;
    cases(32, |rng| {
        let sc = arb_scenario(rng);
        let p = random_covering_placement(&sc, rng.gen_range(0.2..0.8), rng);
        for req in &sc.requests {
            let j = rng.gen_range(0..req.len());
            let keep_odds = rng.gen_range(0.0..1.0);
            removed += assert_unpinned_removal_keeps_the_table(
                &sc.net,
                &sc.ap,
                &sc.catalog,
                &p,
                req,
                j,
                |_| rng.gen::<f64>() >= keep_odds,
            );
        }
    });
    assert!(removed > 0, "no host was ever removed");
}

/// The lemma in the corners random scenarios rarely reach, staged: a
/// one-service chain, where only the terminal pin protects the best host,
/// and two hosts at exactly the same cost, where only the lower id is
/// pinned.
#[test]
fn removing_unpinned_hosts_keeps_the_table_in_staged_corners() {
    let catalog = ServiceCatalog::from_services(vec![
        Microservice::new(1.0, 1.0, 2.0),
        Microservice::new(1.0, 1.0, 3.0),
        Microservice::new(1.0, 1.0, 1.0),
    ]);
    let request = |location: u32, chain: Vec<ServiceId>| {
        let edge_data = vec![1.5; chain.len() - 1];
        UserRequest::new(UserId(0), NodeId(location), chain, edge_data, 1.0, 0.2, 1e9)
    };
    // A line 0 — 1 — 2 — 3 with rising compute: every node hosts every
    // service, so each corner has hosts to remove.
    let mut line = EdgeNetwork::new();
    for c in [10.0, 20.0, 15.0, 30.0] {
        line.push_server(EdgeServer::new(c, 8.0));
    }
    for k in 0..3 {
        line.add_link(NodeId(k), NodeId(k + 1), LinkParams::from_rate(40.0));
    }
    let ap = AllPairs::build(&line);
    let mut everywhere = Placement::empty(3, 4);
    for m in 0..3 {
        for k in 0..4 {
            everywhere.set(ServiceId(m), NodeId(k), true);
        }
    }
    for loc in 0..4 {
        let req = request(loc, vec![ServiceId(1)]);
        let removed = assert_unpinned_removal_keeps_the_table(
            &line,
            &ap,
            &catalog,
            &everywhere,
            &req,
            0,
            |_| true,
        );
        assert_eq!(
            removed, 3,
            "one-service chain at {loc}: only the best host is pinned"
        );
    }

    // A star with identical arms: hosts 1 and 2 tie exactly at both ends
    // of the chain, and the lower id carries the pins.
    let mut star = EdgeNetwork::new();
    for _ in 0..4 {
        star.push_server(EdgeServer::new(10.0, 8.0));
    }
    for arm in 1..4 {
        star.add_link(NodeId(0), NodeId(arm), LinkParams::from_rate(40.0));
    }
    let ap = AllPairs::build(&star);
    let mut p = Placement::empty(3, 4);
    for (m, on) in [&[1, 2][..], &[0], &[1, 2]].iter().enumerate() {
        for &k in *on {
            p.set(ServiceId(m as u32), NodeId(k), true);
        }
    }
    let req = request(0, vec![ServiceId(0), ServiceId(1), ServiceId(2)]);
    for j in [0, 2] {
        let removed =
            assert_unpinned_removal_keeps_the_table(&star, &ap, &catalog, &p, &req, j, |_| true);
        assert_eq!(removed, 1, "tie at position {j}: the higher id goes");
    }
}
