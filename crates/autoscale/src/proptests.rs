//! Property tests for the control plane's hard invariants.

use crate::config::{AdmissionPolicy, AutoscaleConfig, KeepAlivePolicy, ScalingMode};
use crate::scaler::Autoscaler;
use socl_model::{Microservice, Placement, ServiceCatalog, ServiceId};
use socl_net::rng::{cases, ChaCha12Rng};
use socl_net::{EdgeNetwork, EdgeServer, LinkParams, NodeId};

const SERVICES: usize = 3;
const NODES: usize = 4;

fn fixture() -> (ServiceCatalog, EdgeNetwork, Placement) {
    let catalog = ServiceCatalog::from_services(vec![
        Microservice::new(100.0, 1.0, 1.0),
        Microservice::new(250.0, 2.0, 1.5),
        Microservice::new(400.0, 3.0, 2.0),
    ]);
    let mut net = EdgeNetwork::new();
    for i in 0..NODES {
        // Heterogeneous storage so per-node ceilings differ.
        net.push_server(EdgeServer::new(10.0, 3.0 + i as f64 * 2.0));
    }
    for i in 1..NODES {
        net.add_link(NodeId(0), NodeId(i as u32), LinkParams::from_rate(1.0));
    }
    let mut p = Placement::empty(SERVICES, NODES);
    p.set(ServiceId(0), NodeId(0), true);
    p.set(ServiceId(0), NodeId(1), true);
    p.set(ServiceId(1), NodeId(1), true);
    p.set(ServiceId(1), NodeId(2), true);
    p.set(ServiceId(2), NodeId(3), true);
    (catalog, net, p)
}

fn arb_config(rng: &mut ChaCha12Rng) -> AutoscaleConfig {
    let modes = [ScalingMode::Reactive, ScalingMode::Static];
    let keep_alive = if rng.gen() {
        KeepAlivePolicy::Fixed(rng.gen_range(0.0..60.0))
    } else {
        KeepAlivePolicy::CostOptimal {
            idle_cost_per_unit: rng.gen_range(1e-5..1e-2),
            latency_value: 1.0,
        }
    };
    AutoscaleConfig {
        mode: *rng.choose(&modes).unwrap(),
        target_concurrency: rng.gen_range(0.5..4.0),
        stable_window: 12.0,
        panic_window: 4.0,
        scale_interval: 1.0,
        down_cooldown: rng.gen_range(0.0..30.0),
        min_replicas: rng.gen_range(1u32..3),
        max_replicas_per_node: rng.gen_range(1u32..6),
        keep_alive,
        ..AutoscaleConfig::default()
    }
}

/// Per-service in-flight samples below `max` for `1..max_ticks` ticks.
fn arb_loads(rng: &mut ChaCha12Rng, max: f64, max_ticks: usize) -> Vec<Vec<f64>> {
    (0..rng.gen_range(1..max_ticks))
        .map(|_| (0..SERVICES).map(|_| rng.gen_range(0.0..max)).collect())
        .collect()
}

/// Constraint (6) analogue: per-cell replica counts never exceed the
/// cell ceiling (configured cap ∧ node storage / service image size),
/// under any config and any in-flight trajectory.
#[test]
fn replicas_never_exceed_node_capacity() {
    cases(12, |rng| {
        let (cfg, loads) = (arb_config(rng), arb_loads(rng, 50.0, 60));
        let (catalog, net, p) = fixture();
        let mut sc = Autoscaler::new(cfg, 0.5, SERVICES, NODES);
        sc.seed_from_placement(&p, &catalog, &net);
        let mut t = 0.0;
        for inflight in &loads {
            sc.tick(t, inflight, &p, &catalog, &net);
            for i in 0..SERVICES {
                let m = ServiceId(i as u32);
                for k in 0..NODES {
                    let node = NodeId(k as u32);
                    let count = sc.counts().get(m, node);
                    if count > 0 {
                        assert!(p.get(m, node), "replicas on an undeployed cell");
                        let ceiling = sc.cell_ceiling(&catalog, &net, m, node);
                        assert!(
                            count <= ceiling,
                            "{count} replicas of {m:?} on {node:?} exceed ceiling {ceiling}"
                        );
                    }
                }
            }
            t += 1.0;
        }
    });
}

/// Identical configs and observation streams give bit-identical
/// scaling timelines — the scaler has no hidden entropy source.
#[test]
fn scaling_timeline_is_deterministic() {
    cases(12, |rng| {
        let (cfg, loads) = (arb_config(rng), arb_loads(rng, 50.0, 40));
        let (catalog, net, p) = fixture();
        let run = || {
            let mut sc = Autoscaler::new(cfg.clone(), 0.5, SERVICES, NODES);
            sc.seed_from_placement(&p, &catalog, &net);
            let mut timeline = Vec::new();
            let mut t = 0.0;
            for inflight in &loads {
                timeline.extend(sc.tick(t, inflight, &p, &catalog, &net));
                t += 1.0;
            }
            timeline
        };
        assert_eq!(run(), run());
    });
}

/// Scale-to-zero never strands a live request: after any tick in which
/// a deployed service observes positive in-flight concurrency, at least
/// one replica of it stays warm — the keep-alive floor always covers
/// the current demand sample, even with `min_replicas == 0`.
#[test]
fn scale_to_zero_never_strands_inflight_requests() {
    cases(12, |rng| {
        let (cfg, loads) = (arb_config(rng), arb_loads(rng, 20.0, 60));
        let cfg = AutoscaleConfig {
            mode: if cfg.mode == ScalingMode::Static {
                ScalingMode::Reactive
            } else {
                cfg.mode
            },
            min_replicas: 0,
            ..cfg
        };
        let (catalog, net, p) = fixture();
        let mut sc = Autoscaler::new(cfg, 0.5, SERVICES, NODES);
        sc.seed_from_placement(&p, &catalog, &net);
        let mut t = 0.0;
        for inflight in &loads {
            sc.tick(t, inflight, &p, &catalog, &net);
            for (i, &y) in inflight.iter().enumerate() {
                let m = ServiceId(i as u32);
                if y > 0.0 && sc.max_capacity(m) > 0 {
                    assert!(
                        sc.counts().total_of(m) >= 1,
                        "{m:?} scaled to zero with {y} in flight at t={t}"
                    );
                }
            }
            t += 1.0;
        }
    });
}

/// Admission is monotone in priority: whenever a long chain is
/// admitted at some load, every shorter chain is admitted too.
#[test]
fn admission_is_monotone_in_chain_length() {
    cases(12, |rng| {
        let p = AdmissionPolicy {
            enabled: true,
            queue_limit: rng.gen_range(0.5..8.0),
            classes: rng.gen_range(1u32..5),
            strict_overload: rng.gen_range(1.0..4.0),
        };
        let (in_flight, cap) = (rng.gen_range(0.0..200.0), rng.gen_range(1u32..20));
        let long_chain = rng.gen_range(1usize..16);
        if p.admits(long_chain, in_flight, cap) {
            for shorter in 1..long_chain {
                assert!(
                    p.admits(shorter, in_flight, cap),
                    "chain {shorter} shed while {long_chain} admitted"
                );
            }
        }
    });
}
