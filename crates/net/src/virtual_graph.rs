//! Virtual graphs `G'(m_i)` and threshold partitioning (Algorithm 1, step 1).
//!
//! For each microservice the paper collects the nodes hosting its requests,
//! reconnects them with *virtual links* riding minimum-hop shortest paths
//! (effective speed `𝔹(l') = 1/Σ 1/b(l)`), keeps only virtual links with
//! `𝔹 > ξ`, and takes connected components of the filtered graph as the
//! initial partitions `𝒫(m_i) = {p_s(m_i)}`.
//!
//! This module is service-agnostic: it works on any subset of nodes plus an
//! [`AllPairs`] cache, so the same machinery also serves tests and ablations.

use crate::graph::NodeId;
use crate::paths::AllPairs;
use std::collections::BTreeMap;
use std::sync::Arc;

/// A virtual graph over a subset of substrate nodes.
///
/// Stores the member list and the dense matrix of virtual channel speeds
/// `𝔹(l'_{k,q})` between members (GB/s, `INFINITY` on the diagonal).
#[derive(Debug, Clone)]
pub struct VirtualGraph {
    members: Vec<NodeId>,
    /// Row-major `members.len() × members.len()` speed matrix.
    speeds: Vec<f64>,
}

/// One partition `p_s(m_i)`: a set of substrate nodes.
pub type Partition = Vec<NodeId>;

impl VirtualGraph {
    /// Build the virtual graph over `members` using the precomputed
    /// minimum-hop path speeds from `ap`.
    ///
    /// Duplicated members are deduplicated; order is preserved otherwise.
    pub fn build(members: &[NodeId], ap: &AllPairs) -> Self {
        let mut uniq: Vec<NodeId> = Vec::with_capacity(members.len());
        for &m in members {
            if !uniq.contains(&m) {
                uniq.push(m);
            }
        }
        let n = uniq.len();
        let mut speeds = vec![0.0; n * n];
        for i in 0..n {
            for j in 0..n {
                speeds[i * n + j] = if i == j {
                    f64::INFINITY
                } else {
                    ap.virtual_speed(uniq[i], uniq[j])
                };
            }
        }
        Self {
            members: uniq,
            speeds,
        }
    }

    /// Member nodes of this virtual graph.
    pub fn members(&self) -> &[NodeId] {
        &self.members
    }

    /// Number of members.
    pub fn len(&self) -> usize {
        self.members.len()
    }

    /// True if there are no members.
    pub fn is_empty(&self) -> bool {
        self.members.is_empty()
    }

    /// Virtual channel speed between member *indices* `i` and `j`.
    #[inline]
    pub fn speed(&self, i: usize, j: usize) -> f64 {
        self.speeds[i * self.members.len() + j]
    }

    /// Partition members into connected components of the graph that keeps
    /// only virtual links with `𝔹 > ξ` (Algorithm 1). Components are returned
    /// largest-first; ties broken by smallest member id for determinism.
    pub fn partition(&self, xi: f64) -> Vec<Partition> {
        let n = self.members.len();
        let mut comp = vec![usize::MAX; n];
        let mut count = 0;
        for start in 0..n {
            if comp[start] != usize::MAX {
                continue;
            }
            let id = count;
            count += 1;
            let mut stack = vec![start];
            comp[start] = id;
            while let Some(u) = stack.pop() {
                for (v, cv) in comp.iter_mut().enumerate() {
                    if *cv == usize::MAX && self.speed(u, v) > xi {
                        *cv = id;
                        stack.push(v);
                    }
                }
            }
        }
        let mut parts: Vec<Partition> = vec![Vec::new(); count];
        for (i, &c) in comp.iter().enumerate() {
            parts[c].push(self.members[i]);
        }
        for p in &mut parts {
            p.sort();
        }
        parts.sort_by(|a, b| b.len().cmp(&a.len()).then(a[0].cmp(&b[0])));
        parts
    }
}

/// Memoized virtual graphs, keyed by (deduplicated) hosting set and a
/// topology generation counter.
///
/// Within one generation the virtual graph of a hosting set is immutable —
/// `𝔹` values only depend on the substrate and the member set — so services
/// sharing a hosting set, and consecutive slots whose topology did not
/// change, share one build. Any generation bump (from the incremental APSP
/// cache, or a fingerprint change of the substrate) drops the memo wholesale.
#[derive(Debug, Clone, Default)]
pub struct VgCache {
    generation: u64,
    // BTreeMap (not HashMap) so every traversal of the memo — debugging
    // dumps, future eviction policies — is deterministic (`clippy.toml`'s `disallowed-types`).
    memo: BTreeMap<Vec<NodeId>, Arc<VirtualGraph>>,
    hits: u64,
    misses: u64,
    /// Dedup buffer for lookups, recycled across calls so cache *hits* —
    /// the steady state — allocate nothing. On a miss
    /// the buffer moves into the memo as the key and is replaced lazily.
    key_scratch: Vec<NodeId>,
}

impl VgCache {
    /// An empty cache at generation 0.
    pub fn new() -> Self {
        Self::default()
    }

    /// The virtual graph over `members` at topology `generation`, building it
    /// on miss. A generation different from the cache's current one clears
    /// every memoized graph first.
    pub fn get(&mut self, generation: u64, members: &[NodeId], ap: &AllPairs) -> Arc<VirtualGraph> {
        if generation != self.generation {
            self.memo.clear();
            self.generation = generation;
        }
        self.key_scratch.clear();
        for &m in members {
            if !self.key_scratch.contains(&m) {
                self.key_scratch.push(m);
            }
        }
        if let Some(vg) = self.memo.get(&self.key_scratch) {
            self.hits += 1;
            return Arc::clone(vg);
        }
        self.misses += 1;
        let vg = Arc::new(VirtualGraph::build(&self.key_scratch, ap));
        // The scratch becomes the stored key; a fresh (empty) buffer takes
        // its place and regrows on the next lookup. Misses are rare by
        // construction, so the steady state stays allocation-free.
        self.memo
            .insert(std::mem::take(&mut self.key_scratch), Arc::clone(&vg));
        vg
    }

    /// Cache hits since construction.
    pub fn hits(&self) -> u64 {
        self.hits
    }

    /// Cache misses (i.e. actual builds) since construction.
    pub fn misses(&self) -> u64 {
        self.misses
    }

    /// Number of graphs currently memoized.
    pub fn len(&self) -> usize {
        self.memo.len()
    }

    /// True when nothing is memoized.
    pub fn is_empty(&self) -> bool {
        self.memo.is_empty()
    }
}

/// Communication intensity `χ(v_k) = Σ_{q ≠ k} 𝔹(l'_{k,q})` over the whole
/// substrate (Section IV.A). Candidate-node checks are performed in ascending
/// order of `χ`, prioritizing weakly connected nodes.
pub fn communication_intensity(ap: &AllPairs, node: NodeId) -> f64 {
    let n = ap.node_count();
    (0..n)
        .filter(|&q| q != node.idx())
        .map(|q| {
            let s = ap.virtual_speed(node, NodeId(q as u32));
            if s.is_finite() {
                s
            } else {
                0.0
            }
        })
        .sum()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::graph::{EdgeNetwork, EdgeServer, LinkParams};

    /// Two fast cliques {0,1} and {2,3} joined by one slow bridge 1-2.
    fn two_islands() -> EdgeNetwork {
        let mut net = EdgeNetwork::new();
        for _ in 0..4 {
            net.push_server(EdgeServer::new(10.0, 8.0));
        }
        net.add_link(NodeId(0), NodeId(1), LinkParams::from_rate(50.0));
        net.add_link(NodeId(2), NodeId(3), LinkParams::from_rate(50.0));
        net.add_link(NodeId(1), NodeId(2), LinkParams::from_rate(1.0));
        net
    }

    #[test]
    fn virtual_speeds_come_from_min_hop_paths() {
        let net = two_islands();
        let ap = AllPairs::build(&net);
        let vg = VirtualGraph::build(&[NodeId(0), NodeId(3)], &ap);
        // Path 0-1-2-3: 1/50 + 1/1 + 1/50 = 1.04 → speed ≈ 0.9615.
        let expected = 1.0 / (1.0 / 50.0 + 1.0 + 1.0 / 50.0);
        assert!((vg.speed(0, 1) - expected).abs() < 1e-9);
        assert!(vg.speed(0, 0).is_infinite());
    }

    #[test]
    fn threshold_splits_across_slow_bridge() {
        let net = two_islands();
        let ap = AllPairs::build(&net);
        let all: Vec<NodeId> = net.node_ids().collect();
        let vg = VirtualGraph::build(&all, &ap);

        // Low threshold: everything in one partition.
        let parts = vg.partition(0.1);
        assert_eq!(parts.len(), 1);
        assert_eq!(parts[0].len(), 4);

        // Threshold above the bridge speed (~0.96..1) but below clique speed
        // (50): two partitions of two.
        let parts = vg.partition(5.0);
        assert_eq!(parts.len(), 2);
        assert_eq!(parts[0], vec![NodeId(0), NodeId(1)]);
        assert_eq!(parts[1], vec![NodeId(2), NodeId(3)]);

        // Threshold above everything: four singletons.
        let parts = vg.partition(1000.0);
        assert_eq!(parts.len(), 4);
        assert!(parts.iter().all(|p| p.len() == 1));
    }

    #[test]
    fn partitions_cover_all_members_exactly_once() {
        let net = two_islands();
        let ap = AllPairs::build(&net);
        let all: Vec<NodeId> = net.node_ids().collect();
        let vg = VirtualGraph::build(&all, &ap);
        for xi in [0.0, 0.5, 2.0, 10.0, 100.0] {
            let parts = vg.partition(xi);
            let mut covered: Vec<NodeId> = parts.iter().flatten().copied().collect();
            covered.sort();
            assert_eq!(covered, all, "xi={xi}");
        }
    }

    #[test]
    fn duplicates_are_removed() {
        let net = two_islands();
        let ap = AllPairs::build(&net);
        let vg = VirtualGraph::build(&[NodeId(0), NodeId(0), NodeId(1)], &ap);
        assert_eq!(vg.len(), 2);
    }

    #[test]
    fn intensity_orders_central_nodes_higher() {
        let net = two_islands();
        let ap = AllPairs::build(&net);
        // Bridge endpoints (1, 2) see one fast link plus short paths; leaves
        // (0, 3) pay an extra hop to everyone — strictly lower intensity.
        let chi0 = communication_intensity(&ap, NodeId(0));
        let chi1 = communication_intensity(&ap, NodeId(1));
        assert!(chi1 > chi0);
    }

    #[test]
    fn empty_virtual_graph() {
        let net = two_islands();
        let ap = AllPairs::build(&net);
        let vg = VirtualGraph::build(&[], &ap);
        assert!(vg.is_empty());
        assert!(vg.partition(1.0).is_empty());
    }

    #[test]
    fn vg_cache_shares_builds_within_a_generation() {
        let net = two_islands();
        let ap = AllPairs::build(&net);
        let mut cache = VgCache::new();
        let members = [NodeId(0), NodeId(1), NodeId(3)];
        let a = cache.get(0, &members, &ap);
        let b = cache.get(0, &members, &ap);
        assert!(Arc::ptr_eq(&a, &b));
        // Duplicates normalize to the same key.
        let c = cache.get(0, &[NodeId(0), NodeId(0), NodeId(1), NodeId(3)], &ap);
        assert!(Arc::ptr_eq(&a, &c));
        assert_eq!(cache.hits(), 2);
        assert_eq!(cache.misses(), 1);
    }

    #[test]
    fn vg_cache_invalidates_on_generation_bump() {
        let net = two_islands();
        let ap = AllPairs::build(&net);
        let mut cache = VgCache::new();
        let members = [NodeId(0), NodeId(3)];
        let a = cache.get(0, &members, &ap);
        let b = cache.get(1, &members, &ap);
        assert!(!Arc::ptr_eq(&a, &b));
        assert_eq!(cache.misses(), 2);
        assert_eq!(cache.len(), 1);
    }
}
