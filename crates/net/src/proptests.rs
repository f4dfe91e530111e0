//! Property-based tests for the network substrate.

#![allow(clippy::disallowed_types, reason = "test code")]

use crate::graph::{EdgeNetwork, NodeId};
use crate::incremental::ApspCache;
use crate::paths::{AllPairs, PathMetric, ShortestPaths};
use crate::rng::{cases, ChaCha12Rng};
use crate::topology::TopologyConfig;
use crate::virtual_graph::VirtualGraph;

/// Runs `check` on 64 connected random topologies of 2..=20 nodes.
fn for_nets(mut check: impl FnMut(&EdgeNetwork, &mut ChaCha12Rng)) {
    cases(64, |rng| {
        let config = TopologyConfig::paper(rng.gen_range(2usize..=20));
        check(&config.build(rng.next_u64()), rng);
    });
}

/// Triangle inequality holds for shortest-path latency weights.
#[test]
fn triangle_inequality() {
    for_nets(|net, _| {
        let ap = AllPairs::build(net);
        let n = net.node_count();
        for a in 0..n {
            for b in 0..n {
                for c in 0..n {
                    let (a, b, c) = (NodeId(a as u32), NodeId(b as u32), NodeId(c as u32));
                    let direct = ap.latency_weight(a, c);
                    let via = ap.latency_weight(a, b) + ap.latency_weight(b, c);
                    assert!(
                        direct <= via + 1e-9,
                        "triangle violated: {a}->{c} {direct} > {a}->{b}->{c} {via}"
                    );
                }
            }
        }
    });
}

/// The latency-metric path is never slower than the hop-metric path.
#[test]
fn latency_metric_dominates() {
    for_nets(|net, _| {
        let ap = AllPairs::build(net);
        for a in net.node_ids() {
            for b in net.node_ids() {
                assert!(ap.latency_weight(a, b) <= ap.hop_path_weight(a, b) + 1e-9);
            }
        }
    });
}

/// Hop-metric distances match plain BFS hop counts.
#[test]
fn hop_counts_match_bfs() {
    for_nets(|net, _| {
        let ap = AllPairs::build(net);
        for s in net.node_ids() {
            // BFS.
            let n = net.node_count();
            let mut dist = vec![u32::MAX; n];
            dist[s.idx()] = 0;
            let mut queue = std::collections::VecDeque::from([s]);
            while let Some(u) = queue.pop_front() {
                for nb in net.neighbors(u) {
                    if dist[nb.node.idx()] == u32::MAX {
                        dist[nb.node.idx()] = dist[u.idx()] + 1;
                        queue.push_back(nb.node);
                    }
                }
            }
            for t in net.node_ids() {
                assert_eq!(ap.hop_count(s, t), dist[t.idx()]);
            }
        }
    });
}

/// Reconstructed paths are consistent: edge-connected, start/end correct,
/// and their accumulated weight equals the reported weight.
#[test]
fn paths_are_consistent() {
    for_nets(|net, _| {
        for s in net.node_ids() {
            for metric in [PathMetric::Latency, PathMetric::Hops] {
                let sp = ShortestPaths::dijkstra(net, s, metric);
                for t in net.node_ids() {
                    let Some(path) = sp.path_to(t) else { continue };
                    assert_eq!(path[0], s);
                    assert_eq!(*path.last().unwrap(), t);
                    let mut acc = 0.0;
                    for w in path.windows(2) {
                        let rate = net.direct_rate(w[0], w[1]);
                        assert!(rate.is_some(), "path uses missing edge");
                        acc += 1.0 / rate.unwrap();
                    }
                    // Accumulated weight can only be <= due to parallel-link max.
                    assert!(acc <= sp.latency_weight(t) + 1e-9);
                    assert_eq!(path.len() as u32 - 1, sp.hop_count(t));
                }
            }
        }
    });
}

/// Virtual-link speed never exceeds the slowest link of the underlying
/// shortest path (harmonic composition is dominated by its minimum), and
/// never exceeds any direct link's rate upper bound.
#[test]
fn virtual_speed_bounded_by_components() {
    for_nets(|net, _| {
        let ap = AllPairs::build(net);
        let max_rate = net.links().iter().map(|l| l.rate()).fold(0.0_f64, f64::max);
        for a in net.node_ids() {
            for b in net.node_ids() {
                if a == b {
                    continue;
                }
                let v = ap.virtual_speed(a, b);
                assert!(
                    v <= max_rate + 1e-9,
                    "virtual speed {v} exceeds fastest physical link {max_rate}"
                );
            }
        }
    });
}

/// Partition is a disjoint cover of the member set for any threshold.
#[test]
fn partition_is_disjoint_cover() {
    for_nets(|net, rng| {
        let xi = rng.gen_range(0.0..100.0);
        let ap = AllPairs::build(net);
        let members: Vec<NodeId> = net.node_ids().collect();
        let vg = VirtualGraph::build(&members, &ap);
        let parts = vg.partition(xi);
        let mut seen = std::collections::HashSet::new();
        for p in &parts {
            assert!(!p.is_empty());
            for &n in p {
                assert!(seen.insert(n), "node {n} in two partitions");
            }
        }
        assert_eq!(seen.len(), members.len());
    });
}

/// Raising the threshold never merges partitions (monotone refinement).
#[test]
fn partition_refines_monotonically() {
    for_nets(|net, _| {
        let ap = AllPairs::build(net);
        let members: Vec<NodeId> = net.node_ids().collect();
        let vg = VirtualGraph::build(&members, &ap);
        let coarse = vg.partition(1.0);
        let fine = vg.partition(10.0);
        // Every fine partition must be contained in exactly one coarse one.
        for f in &fine {
            let container = coarse
                .iter()
                .filter(|c| f.iter().all(|n| c.contains(n)))
                .count();
            assert_eq!(container, 1, "fine part {f:?} not nested in coarse");
        }
    });
}

/// Generated topology attribute ranges hold for arbitrary sizes/seeds.
#[test]
fn topology_ranges() {
    cases(64, |rng| {
        let net = TopologyConfig::paper(rng.gen_range(1usize..=25)).build(rng.next_u64());
        assert!(net.is_connected());
        for id in net.node_ids() {
            let s = net.server(id);
            assert!((5.0..=20.0).contains(&s.compute_gflops));
            assert!((4.0..=8.0).contains(&s.storage_units));
        }
    });
}

/// Parallel APSP construction is bit-identical to the serial reference
/// for every thread count: `total_cmp`-equal weights, identical hop
/// counts and identical predecessor (i.e. path) matrices.
#[test]
fn parallel_apsp_identical_to_serial() {
    for_nets(|net, rng| {
        let threads = rng.gen_range(2usize..=8);
        let serial = AllPairs::build_serial(net);
        let parallel = AllPairs::build_with_threads(net, threads);
        assert!(parallel.identical(&serial), "threads={threads} diverged");
    });
}

/// Incremental post-fault recompute is bit-identical to a serial full
/// rebuild after every event of a random fault/repair schedule (node
/// crashes, link degradations, restores — the PR 1 fault vocabulary).
#[test]
fn incremental_matches_rebuild_under_fault_schedule() {
    for_nets(|net, rng| {
        let steps = rng.gen_range(1usize..=12);
        let mut cache = ApspCache::new(net);
        for step in 0..steps {
            match rng.gen_range(0..4u8) {
                0 if net.link_count() > 0 => {
                    // Degrade (or kill) a random link.
                    let idx = rng.gen_range(0..net.link_count());
                    let factor = [0.0, 0.1, 0.5, 0.9][rng.gen_range(0..4)];
                    cache.set_link_rate(idx, cache.base_rate(idx) * factor);
                }
                1 if net.link_count() > 0 => {
                    // Restore a random link to pristine.
                    let idx = rng.gen_range(0..net.link_count());
                    cache.set_link_rate(idx, cache.base_rate(idx));
                }
                2 => {
                    let node = NodeId(rng.gen_range(0..net.node_count()) as u32);
                    cache.mask_node(node);
                }
                _ => {
                    let node = NodeId(rng.gen_range(0..net.node_count()) as u32);
                    cache.unmask_node(node);
                }
            }
            let rebuilt = AllPairs::build_serial(cache.network());
            assert!(
                cache.all_pairs().identical(&rebuilt),
                "cache diverged from full rebuild at step {step}"
            );
        }
    });
}

/// The same equivalence through the simulator's entry point, on mixed
/// batches: each `sync_rates` call hands the cache a whole desired rate
/// vector that kills, degrades and restores links and crashes a node at once,
/// and the cache must match a serial full rebuild after every batch. Half
/// the cases draw every link's rate from {1, 2, 4}: path weights are then
/// exact binary fractions, so equal-cost paths (the ties the dirtiness tests'
/// non-strict offers exist for) are common.
#[test]
fn incremental_matches_rebuild_under_mixed_batches() {
    for_nets(|net, rng| {
        let tied: bool = rng.gen();
        let base: Vec<f64> = (0..net.link_count())
            .map(|idx| match tied {
                true => *rng.choose(&[1.0, 2.0, 4.0]).unwrap(),
                false => net.links()[idx].rate(),
            })
            .collect();
        let mut cache = ApspCache::new(net);
        let mut desired = base.clone();
        for batch in 0..rng.gen_range(1usize..=8) {
            for (rate, &pristine) in desired.iter_mut().zip(&base) {
                *rate = match rng.gen_range(0..8u8) {
                    0 => 0.0,
                    1 => pristine * 0.5,
                    2 => pristine * 0.25,
                    3 | 4 => pristine,
                    _ => *rate,
                };
            }
            if rng.gen() {
                let node = NodeId(rng.gen_range(0..net.node_count()) as u32);
                for nb in net.neighbors(node) {
                    desired[nb.link] = 0.0;
                }
            }
            cache.sync_rates(&desired);
            let rebuilt = AllPairs::build_serial(cache.network());
            assert!(
                cache.all_pairs().identical(&rebuilt),
                "cache diverged from full rebuild at batch {batch} (tied rates: {tied})"
            );
        }
    });
}

/// Brute-force Bellman-Ford cross-check of Dijkstra on small graphs.
#[test]
fn dijkstra_matches_bellman_ford() {
    for seed in 0..20 {
        let net = TopologyConfig::paper(12).build(seed);
        let n = net.node_count();
        for s in net.node_ids() {
            let sp = ShortestPaths::dijkstra(&net, s, PathMetric::Latency);
            // Bellman-Ford.
            let mut dist = vec![f64::INFINITY; n];
            dist[s.idx()] = 0.0;
            for _ in 0..n {
                let mut changed = false;
                for l in net.links() {
                    let w = 1.0 / l.rate();
                    let (a, b) = (l.a.idx(), l.b.idx());
                    if dist[a] + w < dist[b] - 1e-15 {
                        dist[b] = dist[a] + w;
                        changed = true;
                    }
                    if dist[b] + w < dist[a] - 1e-15 {
                        dist[a] = dist[b] + w;
                        changed = true;
                    }
                }
                if !changed {
                    break;
                }
            }
            for t in net.node_ids() {
                assert!(
                    (sp.latency_weight(t) - dist[t.idx()]).abs() < 1e-9,
                    "seed={seed} s={s} t={t}: dijkstra {} vs bf {}",
                    sp.latency_weight(t),
                    dist[t.idx()]
                );
            }
        }
    }
}
