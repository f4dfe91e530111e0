//! What-if failure analysis: link and node criticality.
//!
//! Edge operators need to know which components the latency structure hangs
//! on. For every single link (or node) failure this module re-evaluates the
//! all-pairs latency weights — through the incremental [`ApspCache`], which
//! masks the component, repairs only the affected source rows, and restores
//! it, instead of rebuilding the topology and the full matrix per candidate —
//! and reports:
//!
//! * whether the failure partitions the network,
//! * the *stretch*: mean ratio of post-failure to pre-failure pairwise
//!   latency weight over still-connected pairs (1.0 = no impact),
//! * the worst-hit pair.
//!
//! Rankings feed topology design (where to add redundancy) and pair with the
//! simulator's failure injection (which only fails non-critical components —
//! this module is how you find the critical ones).

use crate::graph::{EdgeNetwork, NodeId};
use crate::incremental::ApspCache;
use crate::paths::AllPairs;

/// Impact of removing one component.
#[derive(Debug, Clone)]
pub struct FailureImpact {
    /// Human-readable component tag ("link v0-v3", "node v2").
    pub component: String,
    /// True when the removal disconnects some pair.
    pub partitions: bool,
    /// Mean latency stretch over pairs connected both before and after
    /// (≥ 1.0; 1.0 means the component was latency-irrelevant).
    pub mean_stretch: f64,
    /// Maximum stretch over those pairs.
    pub max_stretch: f64,
}

/// Stretch statistics of `after` relative to `before`, ignoring pairs
/// involving `exclude` (used for node failures, where the dead node's own
/// pairs are meaningless).
fn stretch(
    net: &EdgeNetwork,
    before: &AllPairs,
    after: &AllPairs,
    exclude: Option<NodeId>,
) -> (bool, f64, f64) {
    let mut partitions = false;
    let mut sum = 0.0;
    let mut count = 0usize;
    let mut max = 1.0f64;
    for a in net.node_ids() {
        for b in net.node_ids() {
            if a >= b || Some(a) == exclude || Some(b) == exclude {
                continue;
            }
            let w0 = before.latency_weight(a, b);
            let w1 = after.latency_weight(a, b);
            if w0.is_infinite() {
                continue; // was already unreachable
            }
            if w1.is_infinite() {
                partitions = true;
                continue;
            }
            let s = if w0 == 0.0 { 1.0 } else { w1 / w0 };
            sum += s;
            count += 1;
            max = max.max(s);
        }
    }
    let mean = if count == 0 { 1.0 } else { sum / count as f64 };
    (partitions, mean, max)
}

/// Impact of each single-link failure, most critical first (partitioning
/// failures sort above everything, then by mean stretch).
pub fn link_criticality(net: &EdgeNetwork) -> Vec<FailureImpact> {
    let mut cache = ApspCache::new(net);
    let before = cache.all_pairs().clone();
    let mut impacts: Vec<FailureImpact> = (0..net.link_count())
        .map(|idx| {
            let l = net.links()[idx];
            let base = cache.base_rate(idx);
            cache.set_link_rate(idx, 0.0);
            let (partitions, mean_stretch, max_stretch) =
                stretch(net, &before, cache.all_pairs(), None);
            cache.set_link_rate(idx, base);
            FailureImpact {
                component: format!("link {}-{}", l.a, l.b),
                partitions,
                mean_stretch,
                max_stretch,
            }
        })
        .collect();
    impacts.sort_by(|a, b| {
        b.partitions
            .cmp(&a.partitions)
            .then(b.mean_stretch.total_cmp(&a.mean_stretch))
    });
    impacts
}

/// Impact of each single-node failure, most critical first.
pub fn node_criticality(net: &EdgeNetwork) -> Vec<FailureImpact> {
    let mut cache = ApspCache::new(net);
    let before = cache.all_pairs().clone();
    let mut impacts: Vec<FailureImpact> = net
        .node_ids()
        .map(|k| {
            // The dead node keeps its vertex (indices stay stable) but all
            // its incident links are masked — same semantics as rebuilding
            // the topology without the node's links.
            cache.mask_node(k);
            let (partitions, mean_stretch, max_stretch) =
                stretch(net, &before, cache.all_pairs(), Some(k));
            cache.unmask_node(k);
            FailureImpact {
                component: format!("node {k}"),
                partitions,
                mean_stretch,
                max_stretch,
            }
        })
        .collect();
    impacts.sort_by(|a, b| {
        b.partitions
            .cmp(&a.partitions)
            .then(b.mean_stretch.total_cmp(&a.mean_stretch))
    });
    impacts
}

#[cfg(test)]
mod tests {
    #![allow(clippy::disallowed_methods, reason = "test code")]

    use super::*;
    use crate::graph::{EdgeServer, LinkParams};
    use crate::topology::TopologyConfig;

    /// Line v0 - v1 - v2 plus a redundant fast v0-v2 detour.
    fn net_with_detour() -> EdgeNetwork {
        let mut net = EdgeNetwork::new();
        for _ in 0..3 {
            net.push_server(EdgeServer::new(10.0, 8.0));
        }
        net.add_link(NodeId(0), NodeId(1), LinkParams::from_rate(50.0)); // 0
        net.add_link(NodeId(1), NodeId(2), LinkParams::from_rate(50.0)); // 1
        net.add_link(NodeId(0), NodeId(2), LinkParams::from_rate(10.0)); // 2
        net
    }

    #[test]
    fn redundant_topology_survives_any_single_link() {
        let net = net_with_detour();
        let impacts = link_criticality(&net);
        assert_eq!(impacts.len(), 3);
        assert!(impacts.iter().all(|i| !i.partitions));
        // Losing a fast 50 GB/s link forces detours: stretch > 1 somewhere.
        assert!(impacts[0].max_stretch > 1.0);
    }

    #[test]
    fn bridge_links_partition() {
        // Pure line: both links are bridges.
        let mut net = EdgeNetwork::new();
        for _ in 0..3 {
            net.push_server(EdgeServer::new(10.0, 8.0));
        }
        net.add_link(NodeId(0), NodeId(1), LinkParams::from_rate(50.0));
        net.add_link(NodeId(1), NodeId(2), LinkParams::from_rate(50.0));
        let impacts = link_criticality(&net);
        assert!(impacts.iter().all(|i| i.partitions));
    }

    #[test]
    fn cut_vertices_partition() {
        // v1 is the cut vertex of the line.
        let mut net = EdgeNetwork::new();
        for _ in 0..3 {
            net.push_server(EdgeServer::new(10.0, 8.0));
        }
        net.add_link(NodeId(0), NodeId(1), LinkParams::from_rate(50.0));
        net.add_link(NodeId(1), NodeId(2), LinkParams::from_rate(50.0));
        let impacts = node_criticality(&net);
        // Most critical first: node v1.
        assert_eq!(impacts[0].component, "node v1");
        assert!(impacts[0].partitions);
        // Leaves are harmless to the remaining pairs.
        assert!(!impacts[2].partitions);
    }

    #[test]
    fn irrelevant_link_has_unit_stretch() {
        let net = net_with_detour();
        let impacts = link_criticality(&net);
        // The slow detour link (v0-v2 at 10) never carries latency-optimal
        // traffic: its removal has stretch exactly 1.
        let detour = impacts
            .iter()
            .find(|i| i.component == "link v0-v2")
            .unwrap();
        assert!((detour.mean_stretch - 1.0).abs() < 1e-12);
        assert!((detour.max_stretch - 1.0).abs() < 1e-12);
    }

    #[test]
    fn rankings_are_sorted_most_critical_first() {
        let net = TopologyConfig::paper(12).build(5);
        for impacts in [link_criticality(&net), node_criticality(&net)] {
            for w in impacts.windows(2) {
                let key = |i: &FailureImpact| (i.partitions as u8, i.mean_stretch);
                assert!(key(&w[0]).partial_cmp(&key(&w[1])).unwrap() != std::cmp::Ordering::Less);
            }
        }
    }

    #[test]
    fn masked_analysis_matches_explicit_removal() {
        // The incremental cache masks components instead of rebuilding the
        // topology; the reported impacts must match an explicit rebuild.
        let net = TopologyConfig::paper(14).build(21);
        let before = AllPairs::build(&net);
        let impacts = link_criticality(&net);
        for idx in 0..net.link_count() {
            let l = net.links()[idx];
            let mut reduced = EdgeNetwork::new();
            for k in net.node_ids() {
                reduced.push_server(net.server(k).clone());
            }
            for (j, link) in net.links().iter().enumerate() {
                if j != idx {
                    reduced.add_link(link.a, link.b, link.params);
                }
            }
            let after = AllPairs::build(&reduced);
            let (partitions, mean_stretch, max_stretch) = stretch(&net, &before, &after, None);
            let tag = format!("link {}-{}", l.a, l.b);
            let got = impacts.iter().find(|i| i.component == tag).unwrap();
            assert_eq!(got.partitions, partitions, "{tag}");
            assert!((got.mean_stretch - mean_stretch).abs() < 1e-12, "{tag}");
            assert!((got.max_stretch - max_stretch).abs() < 1e-12, "{tag}");
        }
    }

    #[test]
    fn stretch_is_at_least_one() {
        let net = TopologyConfig::paper(10).build(9);
        for i in link_criticality(&net) {
            assert!(
                i.mean_stretch >= 1.0 - 1e-12,
                "{}: {}",
                i.component,
                i.mean_stretch
            );
            assert!(i.max_stretch >= i.mean_stretch - 1e-12);
        }
    }
}
