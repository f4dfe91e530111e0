//! Shortest paths over the substrate network.
//!
//! Two metrics matter in the paper:
//!
//! * **Latency** — the time to push one data unit across a path,
//!   `w(π) = Σ_{l ∈ π} 1/b(l)`. Transferring `r` GB along `π` takes `r·w(π)`
//!   seconds, and the effective channel speed of the whole path is the
//!   harmonic-style composition `𝔹 = 1/w(π)` used for virtual links.
//! * **Hops** — the paper's `π*` return path is the minimum-hop path; we break
//!   hop ties by latency so results are deterministic.
//!
//! [`ShortestPaths`] is a single-source Dijkstra tree; [`AllPairs`] caches the
//! full matrix (the networks in the paper have ≤ 30 nodes, so `O(V·E log V)`
//! precomputation is trivially cheap and every downstream query is O(1)).

use crate::graph::{EdgeNetwork, NodeId};
use std::cmp::Ordering;
use std::collections::BinaryHeap;

/// Which weight the shortest-path computation minimizes.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum PathMetric {
    /// Minimize `Σ 1/b(l)` (transfer time per data unit).
    Latency,
    /// Minimize hop count, breaking ties by latency (the paper's `π*`).
    Hops,
}

/// Max-heap entry ordered so the smallest key pops first.
#[derive(PartialEq)]
struct HeapEntry {
    key: (f64, f64),
    node: NodeId,
}

impl Eq for HeapEntry {}

impl Ord for HeapEntry {
    fn cmp(&self, other: &Self) -> Ordering {
        // Reverse: BinaryHeap is a max-heap, we want smallest key first.
        // `total_cmp` on each key component gives a NaN-safe *total* order
        // (a NaN key sorts above every finite key instead of collapsing the
        // comparison to Equal, which under `partial_cmp().unwrap_or(Equal)`
        // silently corrupted heap invariants for degenerate link rates).
        other
            .key
            .0
            .total_cmp(&self.key.0)
            .then_with(|| other.key.1.total_cmp(&self.key.1))
            .then_with(|| other.node.0.cmp(&self.node.0))
    }
}

impl PartialOrd for HeapEntry {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}

/// Single-source shortest-path tree.
#[derive(Debug, Clone)]
pub struct ShortestPaths {
    source: NodeId,
    metric: PathMetric,
    /// Per node: accumulated latency `Σ 1/b` along the chosen path (seconds
    /// per GB). `f64::INFINITY` for unreachable nodes.
    latency: Vec<f64>,
    /// Per node: hop count along the chosen path. `u32::MAX` if unreachable.
    hops: Vec<u32>,
    /// Predecessor on the chosen path (`None` for source / unreachable).
    pred: Vec<Option<NodeId>>,
}

impl ShortestPaths {
    /// Run Dijkstra from `source` under `metric`.
    pub fn dijkstra(net: &EdgeNetwork, source: NodeId, metric: PathMetric) -> Self {
        let n = net.node_count();
        assert!(source.idx() < n, "source {source} out of range");
        let mut latency = vec![f64::INFINITY; n];
        let mut hops = vec![u32::MAX; n];
        let mut pred: Vec<Option<NodeId>> = vec![None; n];
        let mut done = vec![false; n];

        latency[source.idx()] = 0.0;
        hops[source.idx()] = 0;

        let key_of = |lat: f64, h: u32| -> (f64, f64) {
            match metric {
                PathMetric::Latency => (lat, h as f64),
                PathMetric::Hops => (h as f64, lat),
            }
        };

        let mut heap = BinaryHeap::new();
        heap.push(HeapEntry {
            key: key_of(0.0, 0),
            node: source,
        });

        while let Some(HeapEntry { node, key }) = heap.pop() {
            let u = node.idx();
            if done[u] {
                continue;
            }
            // Stale entry check.
            if key != key_of(latency[u], hops[u]) {
                continue;
            }
            done[u] = true;
            for nb in net.neighbors(node) {
                let v = nb.node.idx();
                if done[v] {
                    continue;
                }
                // Masked-out links (rate overridden to 0 by the incremental
                // cache layer) behave exactly like removed links.
                if nb.rate <= 0.0 {
                    continue;
                }
                let cand_lat = latency[u] + 1.0 / nb.rate;
                let cand_hops = hops[u] + 1;
                if key_of(cand_lat, cand_hops) < key_of(latency[v], hops[v]) {
                    latency[v] = cand_lat;
                    hops[v] = cand_hops;
                    pred[v] = Some(node);
                    heap.push(HeapEntry {
                        key: key_of(cand_lat, cand_hops),
                        node: nb.node,
                    });
                }
            }
        }

        Self {
            source,
            metric,
            latency,
            hops,
            pred,
        }
    }

    /// The source node.
    pub fn source(&self) -> NodeId {
        self.source
    }

    /// Metric this tree was computed under.
    pub fn metric(&self) -> PathMetric {
        self.metric
    }

    /// Accumulated `Σ 1/b` to `target` (seconds per GB), `INFINITY` if
    /// unreachable, `0` for the source itself.
    #[inline]
    pub fn latency_weight(&self, target: NodeId) -> f64 {
        self.latency[target.idx()]
    }

    /// Hop count to `target` (`u32::MAX` if unreachable).
    #[inline]
    pub fn hop_count(&self, target: NodeId) -> u32 {
        self.hops[target.idx()]
    }

    /// Predecessor of `target` on the chosen path (`None` for the source
    /// itself and for unreachable nodes).
    #[inline]
    pub fn predecessor(&self, target: NodeId) -> Option<NodeId> {
        self.pred[target.idx()]
    }

    /// Reconstruct the node sequence source → target (inclusive), or `None`
    /// if unreachable.
    pub fn path_to(&self, target: NodeId) -> Option<Vec<NodeId>> {
        if self.latency[target.idx()].is_infinite() {
            return None;
        }
        let mut path = vec![target];
        let mut cur = target;
        while let Some(p) = self.pred[cur.idx()] {
            path.push(p);
            cur = p;
        }
        debug_assert_eq!(cur, self.source);
        path.reverse();
        Some(path)
    }
}

/// All-pairs shortest paths under both metrics, precomputed once per topology.
///
/// `latency[a][b]` is the per-GB transfer weight of the latency-optimal path;
/// `hop_latency[a][b]` is the per-GB weight along the *minimum-hop* path
/// (the paper's `π*`, used for return transfers and virtual links built from
/// `π*`); `hops[a][b]` is that path's hop count.
#[derive(Debug, Clone)]
pub struct AllPairs {
    n: usize,
    latency: Vec<f64>,
    hop_latency: Vec<f64>,
    hops: Vec<u32>,
    /// Predecessor matrices (`u32::MAX` = none): `pred_lat[a·n + b]` is the
    /// node before `b` on the latency-optimal path `a → b`; `pred_hop` the
    /// same for the minimum-hop path `π*`. They make path reconstruction
    /// O(hops) and are what lets the incremental cache decide which source
    /// trees a topology change can actually touch.
    pred_lat: Vec<u32>,
    pred_hop: Vec<u32>,
}

/// The latency-metric half of a source row (distances + predecessors). A
/// full build computes both halves of every row; the incremental cache
/// recomputes the dirty ones one at a time.
pub(crate) struct LatHalf {
    latency: Vec<f64>,
    pred_lat: Vec<u32>,
}

/// The hop-metric half of a source row.
pub(crate) struct HopHalf {
    hop_latency: Vec<f64>,
    hops: Vec<u32>,
    pred_hop: Vec<u32>,
}

/// A tree's predecessors in the matrices' encoding (`u32::MAX` = none).
fn pred_ids(pred: &[Option<NodeId>]) -> Vec<u32> {
    pred.iter().map(|p| p.map_or(u32::MAX, |p| p.0)).collect()
}

/// Workers for per-source Dijkstra runs on an `n`-node graph: the one fan-out
/// rule of [`AllPairs::build`] and `ApspCache::apply`. One source is
/// O(E log V), so below ~64 nodes the runs are cheaper than spawning workers.
pub(crate) fn apsp_threads(n: usize) -> usize {
    if n < 64 {
        1
    } else {
        crate::par::effective_threads()
    }
}

impl AllPairs {
    /// Precompute both metrics from every source, fanning the per-source
    /// Dijkstra trees out over the configured thread pool. Results are
    /// bit-identical to [`AllPairs::build_serial`] for any thread count.
    pub fn build(net: &EdgeNetwork) -> Self {
        Self::build_with_threads(net, apsp_threads(net.node_count()))
    }

    /// Serial reference implementation (also the fallback for tiny graphs).
    pub fn build_serial(net: &EdgeNetwork) -> Self {
        Self::build_with_threads(net, 1)
    }

    /// Precompute on an explicit number of worker threads (no size heuristic —
    /// equivalence tests use this to force real fan-out on small graphs).
    pub fn build_with_threads(net: &EdgeNetwork, threads: usize) -> Self {
        let n = net.node_count();
        let rows = crate::par::par_map_indexed_with(n, threads, |s| {
            let s = NodeId(s as u32);
            (Self::fresh_lat_half(net, s), Self::fresh_hop_half(net, s))
        });
        let mut ap = Self {
            n,
            latency: Vec::with_capacity(n * n),
            hop_latency: Vec::with_capacity(n * n),
            hops: Vec::with_capacity(n * n),
            pred_lat: Vec::with_capacity(n * n),
            pred_hop: Vec::with_capacity(n * n),
        };
        for (mut lat, mut hop) in rows {
            ap.latency.append(&mut lat.latency);
            ap.pred_lat.append(&mut lat.pred_lat);
            ap.hop_latency.append(&mut hop.hop_latency);
            ap.hops.append(&mut hop.hops);
            ap.pred_hop.append(&mut hop.pred_hop);
        }
        ap
    }

    /// Compute only the latency half of row `s` (parallel-safe).
    pub(crate) fn fresh_lat_half(net: &EdgeNetwork, s: NodeId) -> LatHalf {
        let tree = ShortestPaths::dijkstra(net, s, PathMetric::Latency);
        LatHalf {
            pred_lat: pred_ids(&tree.pred),
            latency: tree.latency,
        }
    }

    /// Compute only the hop half of row `s` (parallel-safe).
    pub(crate) fn fresh_hop_half(net: &EdgeNetwork, s: NodeId) -> HopHalf {
        let tree = ShortestPaths::dijkstra(net, s, PathMetric::Hops);
        HopHalf {
            pred_hop: pred_ids(&tree.pred),
            hop_latency: tree.latency,
            hops: tree.hops,
        }
    }

    /// Replace only the latency half of source row `s`.
    pub(crate) fn install_lat_half(&mut self, s: NodeId, half: LatHalf) {
        let base = s.idx() * self.n;
        self.latency[base..base + self.n].copy_from_slice(&half.latency);
        self.pred_lat[base..base + self.n].copy_from_slice(&half.pred_lat);
    }

    /// Replace only the hop half of source row `s`.
    pub(crate) fn install_hop_half(&mut self, s: NodeId, half: HopHalf) {
        let base = s.idx() * self.n;
        self.hop_latency[base..base + self.n].copy_from_slice(&half.hop_latency);
        self.hops[base..base + self.n].copy_from_slice(&half.hops);
        self.pred_hop[base..base + self.n].copy_from_slice(&half.pred_hop);
    }

    /// Number of nodes the matrix covers.
    pub fn node_count(&self) -> usize {
        self.n
    }

    /// Predecessor of `b` on the latency-optimal path `a → b`.
    #[inline]
    pub fn pred_latency(&self, a: NodeId, b: NodeId) -> Option<NodeId> {
        match self.pred_lat[a.idx() * self.n + b.idx()] {
            u32::MAX => None,
            p => Some(NodeId(p)),
        }
    }

    /// Predecessor of `b` on the minimum-hop path `π*(a → b)`.
    #[inline]
    pub fn pred_hop(&self, a: NodeId, b: NodeId) -> Option<NodeId> {
        match self.pred_hop[a.idx() * self.n + b.idx()] {
            u32::MAX => None,
            p => Some(NodeId(p)),
        }
    }

    fn walk(&self, pred: &[u32], a: NodeId, b: NodeId) -> Option<Vec<NodeId>> {
        if a == b {
            return Some(vec![a]);
        }
        let mut path = vec![b];
        let mut cur = b;
        while cur != a {
            match pred[a.idx() * self.n + cur.idx()] {
                u32::MAX => return None,
                p => {
                    cur = NodeId(p);
                    path.push(cur);
                }
            }
        }
        path.reverse();
        Some(path)
    }

    /// The latency-optimal node sequence `a → b`, or `None` if unreachable.
    pub fn path_latency(&self, a: NodeId, b: NodeId) -> Option<Vec<NodeId>> {
        self.walk(&self.pred_lat, a, b)
    }

    /// The minimum-hop node sequence `π*(a → b)`, or `None` if unreachable.
    pub fn path_hops(&self, a: NodeId, b: NodeId) -> Option<Vec<NodeId>> {
        self.walk(&self.pred_hop, a, b)
    }

    /// Bit-exact equality of every matrix (`total_cmp`-equal weights,
    /// identical hop counts and predecessors). This is the equivalence
    /// relation the parallel/incremental proptests assert.
    pub fn identical(&self, other: &AllPairs) -> bool {
        self.n == other.n
            && self.hops == other.hops
            && self.pred_lat == other.pred_lat
            && self.pred_hop == other.pred_hop
            && self
                .latency
                .iter()
                .zip(&other.latency)
                .all(|(a, b)| a.total_cmp(b) == std::cmp::Ordering::Equal)
            && self
                .hop_latency
                .iter()
                .zip(&other.hop_latency)
                .all(|(a, b)| a.total_cmp(b) == std::cmp::Ordering::Equal)
    }

    /// Per-GB weight `Σ 1/b` of the latency-optimal path `a → b`.
    #[inline]
    pub fn latency_weight(&self, a: NodeId, b: NodeId) -> f64 {
        self.latency[a.idx() * self.n + b.idx()]
    }

    /// Per-GB weight along the minimum-hop path `π*(a, b)`.
    #[inline]
    pub fn hop_path_weight(&self, a: NodeId, b: NodeId) -> f64 {
        self.hop_latency[a.idx() * self.n + b.idx()]
    }

    /// Hop count of `π*(a, b)`.
    #[inline]
    pub fn hop_count(&self, a: NodeId, b: NodeId) -> u32 {
        self.hops[a.idx() * self.n + b.idx()]
    }

    /// Effective channel speed `𝔹(l'_{a,b})` of the virtual link riding the
    /// minimum-hop shortest path, GB/s (Section IV.A). Infinite when `a == b`.
    #[inline]
    pub fn virtual_speed(&self, a: NodeId, b: NodeId) -> f64 {
        let w = self.hop_path_weight(a, b);
        if w == 0.0 {
            f64::INFINITY
        } else {
            1.0 / w
        }
    }

    /// Effective channel speed of the latency-optimal path, GB/s. This is the
    /// fastest achievable per-GB speed between `a` and `b` and is what the
    /// routing engine uses for data transfers.
    #[inline]
    pub fn best_speed(&self, a: NodeId, b: NodeId) -> f64 {
        let w = self.latency_weight(a, b);
        if w == 0.0 {
            f64::INFINITY
        } else {
            1.0 / w
        }
    }

    /// Time in seconds to move `r` GB from `a` to `b` along the
    /// latency-optimal path (0 when `a == b`).
    #[inline]
    pub fn transfer_time(&self, a: NodeId, b: NodeId, r: f64) -> f64 {
        if a == b {
            0.0
        } else {
            r * self.latency_weight(a, b)
        }
    }

    /// Time in seconds to move `r` GB along the minimum-hop return path `π*`.
    #[inline]
    pub fn return_time(&self, a: NodeId, b: NodeId, r: f64) -> f64 {
        if a == b {
            0.0
        } else {
            r * self.hop_path_weight(a, b)
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::graph::{EdgeServer, LinkParams};

    /// Diamond: v0-v1 fast-fast (2 hops), v0-v3 direct slow (1 hop).
    ///
    /// ```text
    ///     v1
    ///   /    \      v0-v1: 100, v1-v3: 100   (latency 0.02, 2 hops)
    /// v0      v3    v0-v3: 10                (latency 0.1, 1 hop)
    ///   \    /
    ///     v2        v0-v2: 1, v2-v3: 1       (latency 2.0, 2 hops)
    /// ```
    fn diamond() -> EdgeNetwork {
        let mut net = EdgeNetwork::new();
        for _ in 0..4 {
            net.push_server(EdgeServer::new(10.0, 8.0));
        }
        net.add_link(NodeId(0), NodeId(1), LinkParams::from_rate(100.0));
        net.add_link(NodeId(1), NodeId(3), LinkParams::from_rate(100.0));
        net.add_link(NodeId(0), NodeId(3), LinkParams::from_rate(10.0));
        net.add_link(NodeId(0), NodeId(2), LinkParams::from_rate(1.0));
        net.add_link(NodeId(2), NodeId(3), LinkParams::from_rate(1.0));
        net
    }

    #[test]
    fn latency_metric_prefers_fast_two_hop() {
        let net = diamond();
        let sp = ShortestPaths::dijkstra(&net, NodeId(0), PathMetric::Latency);
        assert!((sp.latency_weight(NodeId(3)) - 0.02).abs() < 1e-12);
        assert_eq!(sp.hop_count(NodeId(3)), 2);
        assert_eq!(
            sp.path_to(NodeId(3)).unwrap(),
            vec![NodeId(0), NodeId(1), NodeId(3)]
        );
    }

    #[test]
    fn hop_metric_prefers_direct_link() {
        let net = diamond();
        let sp = ShortestPaths::dijkstra(&net, NodeId(0), PathMetric::Hops);
        assert_eq!(sp.hop_count(NodeId(3)), 1);
        assert!((sp.latency_weight(NodeId(3)) - 0.1).abs() < 1e-12);
        assert_eq!(sp.path_to(NodeId(3)).unwrap(), vec![NodeId(0), NodeId(3)]);
    }

    #[test]
    fn hop_metric_breaks_ties_by_latency() {
        // Two 2-hop routes to v3; the faster one must win.
        let mut net = EdgeNetwork::new();
        for _ in 0..4 {
            net.push_server(EdgeServer::new(10.0, 8.0));
        }
        net.add_link(NodeId(0), NodeId(1), LinkParams::from_rate(1.0));
        net.add_link(NodeId(1), NodeId(3), LinkParams::from_rate(1.0));
        net.add_link(NodeId(0), NodeId(2), LinkParams::from_rate(100.0));
        net.add_link(NodeId(2), NodeId(3), LinkParams::from_rate(100.0));
        let sp = ShortestPaths::dijkstra(&net, NodeId(0), PathMetric::Hops);
        assert_eq!(sp.hop_count(NodeId(3)), 2);
        assert_eq!(
            sp.path_to(NodeId(3)).unwrap(),
            vec![NodeId(0), NodeId(2), NodeId(3)]
        );
    }

    #[test]
    fn unreachable_nodes_are_infinite() {
        let mut net = diamond();
        let lone = net.push_server(EdgeServer::new(1.0, 1.0));
        let sp = ShortestPaths::dijkstra(&net, NodeId(0), PathMetric::Latency);
        assert!(sp.latency_weight(lone).is_infinite());
        assert_eq!(sp.hop_count(lone), u32::MAX);
        assert!(sp.path_to(lone).is_none());
    }

    #[test]
    fn source_has_zero_weight_and_infinite_speed() {
        let net = diamond();
        let sp = ShortestPaths::dijkstra(&net, NodeId(0), PathMetric::Latency);
        assert_eq!(sp.latency_weight(NodeId(0)), 0.0);
        assert!((1.0 / sp.latency_weight(NodeId(0))).is_infinite());
        assert_eq!(sp.path_to(NodeId(0)).unwrap(), vec![NodeId(0)]);
    }

    #[test]
    fn all_pairs_matches_single_source() {
        let net = diamond();
        let ap = AllPairs::build(&net);
        for s in net.node_ids() {
            let lat = ShortestPaths::dijkstra(&net, s, PathMetric::Latency);
            let hop = ShortestPaths::dijkstra(&net, s, PathMetric::Hops);
            for t in net.node_ids() {
                assert!((ap.latency_weight(s, t) - lat.latency_weight(t)).abs() < 1e-12);
                assert_eq!(ap.hop_count(s, t), hop.hop_count(t));
                assert!((ap.hop_path_weight(s, t) - hop.latency_weight(t)).abs() < 1e-12);
            }
        }
    }

    #[test]
    fn transfer_time_scales_linearly() {
        let net = diamond();
        let ap = AllPairs::build(&net);
        let t1 = ap.transfer_time(NodeId(0), NodeId(3), 1.0);
        let t5 = ap.transfer_time(NodeId(0), NodeId(3), 5.0);
        assert!((t5 - 5.0 * t1).abs() < 1e-12);
        assert_eq!(ap.transfer_time(NodeId(2), NodeId(2), 100.0), 0.0);
    }

    #[test]
    fn virtual_speed_is_harmonic_composition() {
        // v0 -a- v1 -b- v2 line: 𝔹 = 1/(1/a + 1/b).
        let mut net = EdgeNetwork::new();
        for _ in 0..3 {
            net.push_server(EdgeServer::new(10.0, 8.0));
        }
        net.add_link(NodeId(0), NodeId(1), LinkParams::from_rate(10.0));
        net.add_link(NodeId(1), NodeId(2), LinkParams::from_rate(40.0));
        let ap = AllPairs::build(&net);
        let expected = 1.0 / (1.0 / 10.0 + 1.0 / 40.0);
        assert!((ap.virtual_speed(NodeId(0), NodeId(2)) - expected).abs() < 1e-9);
        // The harmonic composition is below the slowest constituent link.
        assert!(ap.virtual_speed(NodeId(0), NodeId(2)) < 10.0);
    }

    #[test]
    fn heap_entries_with_nan_keys_keep_a_total_order() {
        // Regression: the old `partial_cmp().unwrap_or(Equal)` collapsed NaN
        // keys to Equal, silently corrupting heap invariants. `total_cmp`
        // sorts NaN above every finite key, so finite entries still pop in
        // ascending order and NaN entries pop last.
        let mut heap = BinaryHeap::new();
        for (i, key) in [
            (f64::NAN, 0.0),
            (1.0, f64::NAN),
            (0.5, 1.0),
            (f64::INFINITY, 0.0),
            (0.5, 0.0),
        ]
        .into_iter()
        .enumerate()
        {
            heap.push(HeapEntry {
                key,
                node: NodeId(i as u32),
            });
        }
        let order: Vec<NodeId> = std::iter::from_fn(|| heap.pop().map(|e| e.node)).collect();
        // (0.5, 0.0) < (0.5, 1.0) < (1.0, NaN) < (inf, 0.0) < (NaN, 0.0).
        assert_eq!(
            order,
            vec![NodeId(4), NodeId(2), NodeId(1), NodeId(3), NodeId(0)]
        );
    }

    #[test]
    fn degenerate_link_rates_yield_sane_trees() {
        // Zero-bandwidth params clamp to a tiny positive rate; an explicitly
        // masked (rate 0) link must behave as absent. Dijkstra must terminate
        // with consistent weights either way.
        let mut net = EdgeNetwork::new();
        for _ in 0..4 {
            net.push_server(EdgeServer::new(10.0, 8.0));
        }
        let degenerate = LinkParams {
            bandwidth: 0.0,
            tx_power: 0.0,
            channel_gain: 0.0,
            noise: 1.0,
        };
        net.add_link(NodeId(0), NodeId(1), degenerate); // rate = 1e-12 clamp
        net.add_link(
            NodeId(1),
            NodeId(2),
            LinkParams::from_rate(f64::MIN_POSITIVE),
        );
        net.add_link(NodeId(2), NodeId(3), LinkParams::from_rate(1e300));
        for metric in [PathMetric::Latency, PathMetric::Hops] {
            let sp = ShortestPaths::dijkstra(&net, NodeId(0), metric);
            for t in net.node_ids() {
                let w = sp.latency_weight(t);
                assert!(!w.is_nan(), "{metric:?} produced NaN for {t}");
                assert!(w >= 0.0);
                assert!(sp.path_to(t).is_some(), "{metric:?} lost {t}");
            }
        }
        // Masking the clamp-rate link cuts v0 off from everyone.
        net.override_link_rate(0, 0.0);
        let sp = ShortestPaths::dijkstra(&net, NodeId(0), PathMetric::Latency);
        for t in [NodeId(1), NodeId(2), NodeId(3)] {
            assert!(sp.latency_weight(t).is_infinite());
            assert!(sp.path_to(t).is_none());
        }
    }

    #[test]
    fn parallel_all_pairs_identical_to_serial() {
        use crate::topology::TopologyConfig;
        for seed in 0..3 {
            let net = TopologyConfig::paper(30).build(seed);
            let serial = AllPairs::build_serial(&net);
            for threads in [2, 3, 4, 8] {
                let par = AllPairs::build_with_threads(&net, threads);
                assert!(
                    par.identical(&serial),
                    "seed={seed} threads={threads} diverged"
                );
            }
        }
    }

    #[test]
    fn masked_link_identical_to_removed_link() {
        let net = diamond();
        let skip = 2; // the direct v0-v3 link
        let mut masked = net.clone();
        masked.override_link_rate(skip, 0.0);
        let mut rebuilt = EdgeNetwork::new();
        for n in net.node_ids() {
            rebuilt.push_server(net.server(n).clone());
        }
        for (idx, l) in net.links().iter().enumerate() {
            if idx != skip {
                rebuilt.add_link(l.a, l.b, l.params);
            }
        }
        let ap_masked = AllPairs::build_serial(&masked);
        let ap_rebuilt = AllPairs::build_serial(&rebuilt);
        assert!(ap_masked.identical(&ap_rebuilt));
    }

    #[test]
    fn reconstructed_paths_match_single_source_trees() {
        use crate::topology::TopologyConfig;
        let net = TopologyConfig::paper(16).build(5);
        let ap = AllPairs::build(&net);
        for a in net.node_ids() {
            let lat = ShortestPaths::dijkstra(&net, a, PathMetric::Latency);
            let hop = ShortestPaths::dijkstra(&net, a, PathMetric::Hops);
            for b in net.node_ids() {
                assert_eq!(ap.path_latency(a, b), lat.path_to(b), "{a}->{b}");
                assert_eq!(ap.path_hops(a, b), hop.path_to(b), "{a}->{b}");
                assert_eq!(ap.pred_latency(a, b), lat.predecessor(b));
                assert_eq!(ap.pred_hop(a, b), hop.predecessor(b));
            }
        }
    }

    #[test]
    fn symmetric_weights_on_undirected_graph() {
        let net = diamond();
        let ap = AllPairs::build(&net);
        for a in net.node_ids() {
            for b in net.node_ids() {
                assert!(
                    (ap.latency_weight(a, b) - ap.latency_weight(b, a)).abs() < 1e-12,
                    "asymmetric latency {a}->{b}"
                );
                assert_eq!(ap.hop_count(a, b), ap.hop_count(b, a));
            }
        }
    }
}
