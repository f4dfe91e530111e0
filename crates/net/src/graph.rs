//! The substrate edge network `G(V, L)`.
//!
//! Nodes are edge servers with a computing capability `c(v_k)` (GFLOP/s), a
//! storage capacity `Φ(v_k)` (abstract storage units) and a planar position
//! (used only by topology generators and mobility models). Links are
//! undirected and carry the parameters of the Shannon-capacity rate model.

/// Dense identifier of an edge server (`v_k` in the paper).
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct NodeId(pub u32);

impl NodeId {
    /// Index into per-node vectors.
    #[inline]
    pub fn idx(self) -> usize {
        self.0 as usize
    }
}

impl std::fmt::Display for NodeId {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "v{}", self.0)
    }
}

/// An edge server `v_k`.
#[derive(Debug, Clone, PartialEq)]
pub struct EdgeServer {
    /// Computing capability `c(v_k)` in GFLOP/s.
    pub compute_gflops: f64,
    /// Storage capacity `Φ(v_k)` in abstract storage units.
    pub storage_units: f64,
    /// Planar position in meters (topology/mobility only; the algorithms
    /// never read positions directly).
    pub position: (f64, f64),
}

impl EdgeServer {
    /// A server with the given compute and storage, positioned at the origin.
    pub fn new(compute_gflops: f64, storage_units: f64) -> Self {
        Self {
            compute_gflops,
            storage_units,
            position: (0.0, 0.0),
        }
    }
}

/// Physical-layer parameters of a link, from which the effective transmission
/// rate `b(l) = B · log2(1 + γ·g/N)` is derived (Section III.C, refs [20]-[22]).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct LinkParams {
    /// Raw bandwidth `B(l_{i,j})` in GB/s.
    pub bandwidth: f64,
    /// Transmission power `γ` of the sending edge server (W).
    pub tx_power: f64,
    /// Channel gain `g_{i,j}` (dimensionless).
    pub channel_gain: f64,
    /// Noise power `N` (W).
    pub noise: f64,
}

impl LinkParams {
    /// Effective transmission rate `b(l)` in GB/s.
    ///
    /// Clamped below by a tiny positive epsilon so latency computations never
    /// divide by zero even for pathological parameters.
    #[inline]
    pub fn rate(&self) -> f64 {
        let snr = (self.tx_power * self.channel_gain / self.noise).max(0.0);
        (self.bandwidth * (1.0 + snr).log2()).max(1e-12)
    }

    /// A link whose effective rate is exactly `rate` GB/s (SNR = 1 so
    /// `log2(1+1) = 1`). Convenient for tests and synthetic topologies that
    /// specify rates directly.
    pub fn from_rate(rate: f64) -> Self {
        Self {
            bandwidth: rate,
            tx_power: 1.0,
            channel_gain: 1.0,
            noise: 1.0,
        }
    }
}

/// An undirected physical link `l_{k,k'}` of the substrate network.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Link {
    pub a: NodeId,
    pub b: NodeId,
    pub params: LinkParams,
}

impl Link {
    /// Effective transmission rate `b(l)` in GB/s.
    #[inline]
    pub fn rate(&self) -> f64 {
        self.params.rate()
    }

    /// The endpoint that is not `n`. Panics if `n` is not an endpoint.
    #[inline]
    pub fn other(&self, n: NodeId) -> NodeId {
        if self.a == n {
            self.b
        } else {
            debug_assert_eq!(self.b, n);
            self.a
        }
    }
}

/// Compressed-sparse-row style adjacency entry.
#[derive(Debug, Clone, Copy)]
pub struct Neighbor {
    pub node: NodeId,
    /// Effective rate `b(l)` of the connecting link, GB/s.
    pub rate: f64,
    /// Index of the link in [`EdgeNetwork::links`].
    pub link: usize,
}

/// Reusable DFS state for [`EdgeNetwork::is_connected_masked`], so repeated
/// connectivity probes (one per candidate fault in the online simulator's
/// hot loop) allocate nothing after the first call.
#[derive(Debug, Clone, Default)]
pub struct ConnScratch {
    seen: Vec<bool>,
    stack: Vec<NodeId>,
}

impl ConnScratch {
    /// Empty scratch; buffers grow on first use and are then recycled.
    #[must_use]
    pub fn new() -> Self {
        Self::default()
    }
}

/// The substrate topology `G(V, L)` of the edge network.
///
/// Construction is additive (`add_node` / `add_link`); the adjacency structure
/// is maintained incrementally so reads are always consistent.
#[derive(Debug, Clone, Default)]
pub struct EdgeNetwork {
    servers: Vec<EdgeServer>,
    links: Vec<Link>,
    adjacency: Vec<Vec<Neighbor>>,
}

impl EdgeNetwork {
    /// An empty network.
    pub fn new() -> Self {
        Self::default()
    }

    /// Build a network from servers and links in one shot.
    ///
    /// # Panics
    /// Panics if a link references an out-of-range node or is a self-loop.
    pub fn from_parts(servers: Vec<EdgeServer>, links: Vec<(NodeId, NodeId, LinkParams)>) -> Self {
        let mut net = Self::new();
        for s in servers {
            net.push_server(s);
        }
        for (a, b, p) in links {
            net.add_link(a, b, p);
        }
        net
    }

    /// Add an edge server, returning its id.
    pub fn push_server(&mut self, server: EdgeServer) -> NodeId {
        let id = NodeId(self.servers.len() as u32);
        self.servers.push(server);
        self.adjacency.push(Vec::new());
        id
    }

    /// Add an undirected link between `a` and `b`.
    ///
    /// # Panics
    /// Panics on self-loops or out-of-range endpoints. Parallel links are
    /// allowed (shortest paths simply pick the better one).
    pub fn add_link(&mut self, a: NodeId, b: NodeId, params: LinkParams) -> usize {
        assert!(a != b, "self-loop on {a}");
        assert!(a.idx() < self.servers.len(), "node {a} out of range");
        assert!(b.idx() < self.servers.len(), "node {b} out of range");
        let idx = self.links.len();
        let link = Link { a, b, params };
        let rate = link.rate();
        self.links.push(link);
        self.adjacency[a.idx()].push(Neighbor {
            node: b,
            rate,
            link: idx,
        });
        self.adjacency[b.idx()].push(Neighbor {
            node: a,
            rate,
            link: idx,
        });
        idx
    }

    /// Number of edge servers `|V|`.
    #[inline]
    pub fn node_count(&self) -> usize {
        self.servers.len()
    }

    /// Number of physical links `|L|`.
    #[inline]
    pub fn link_count(&self) -> usize {
        self.links.len()
    }

    /// Iterator over all node ids.
    pub fn node_ids(&self) -> impl Iterator<Item = NodeId> + '_ {
        (0..self.servers.len() as u32).map(NodeId)
    }

    /// The server record for `n`.
    #[inline]
    pub fn server(&self, n: NodeId) -> &EdgeServer {
        &self.servers[n.idx()]
    }

    /// Mutable server record (used by failure injection in the simulator).
    #[inline]
    pub fn server_mut(&mut self, n: NodeId) -> &mut EdgeServer {
        &mut self.servers[n.idx()]
    }

    /// Computing capability `c(v_k)` in GFLOP/s.
    #[inline]
    pub fn compute_gflops(&self, n: NodeId) -> f64 {
        self.servers[n.idx()].compute_gflops
    }

    /// Storage capacity `Φ(v_k)`.
    #[inline]
    pub fn storage(&self, n: NodeId) -> f64 {
        self.servers[n.idx()].storage_units
    }

    /// All links.
    #[inline]
    pub fn links(&self) -> &[Link] {
        &self.links
    }

    /// Neighbors of `n` with link rates.
    #[inline]
    pub fn neighbors(&self, n: NodeId) -> &[Neighbor] {
        &self.adjacency[n.idx()]
    }

    /// Node degree `H(v)` — the number of direct connections, as used by the
    /// Theorem 1 candidate-node filter (`H(v) > 2`).
    #[inline]
    pub fn degree(&self, n: NodeId) -> usize {
        self.adjacency[n.idx()].len()
    }

    /// Effective rate of the direct link between `a` and `b`, if one exists.
    /// With parallel links, returns the fastest.
    pub fn direct_rate(&self, a: NodeId, b: NodeId) -> Option<f64> {
        self.adjacency[a.idx()]
            .iter()
            .filter(|nb| nb.node == b)
            .map(|nb| nb.rate)
            .fold(None, |acc, r| Some(acc.map_or(r, |a: f64| a.max(r))))
    }

    /// True if every node can reach every other node.
    pub fn is_connected(&self) -> bool {
        if self.servers.is_empty() {
            return true;
        }
        let mut seen = vec![false; self.servers.len()];
        let mut stack = vec![NodeId(0)];
        seen[0] = true;
        let mut count = 1;
        while let Some(n) = stack.pop() {
            for nb in self.neighbors(n) {
                if !seen[nb.node.idx()] {
                    seen[nb.node.idx()] = true;
                    count += 1;
                    stack.push(nb.node);
                }
            }
        }
        count == self.servers.len()
    }

    /// [`is_connected`](Self::is_connected) on the subgraph keeping only
    /// links with `alive[idx]` true, additionally dropping `extra_dead`
    /// (pass `usize::MAX` for none) — without building the subgraph.
    /// Reusable `scratch` keeps repeated checks (the simulator probes one
    /// candidate link per fault event) allocation-free after the first
    /// call. Links whose index is beyond `alive` are
    /// treated as alive.
    pub fn is_connected_masked(
        &self,
        alive: &[bool],
        extra_dead: usize,
        scratch: &mut ConnScratch,
    ) -> bool {
        if self.servers.is_empty() {
            return true;
        }
        scratch.seen.clear();
        scratch.seen.resize(self.servers.len(), false);
        scratch.stack.clear();
        scratch.stack.push(NodeId(0));
        scratch.seen[0] = true;
        let mut count = 1;
        while let Some(n) = scratch.stack.pop() {
            for nb in self.neighbors(n) {
                let dead = nb.link == extra_dead || alive.get(nb.link) == Some(&false);
                if !dead && !scratch.seen[nb.node.idx()] {
                    scratch.seen[nb.node.idx()] = true;
                    count += 1;
                    scratch.stack.push(nb.node);
                }
            }
        }
        count == self.servers.len()
    }

    /// A copy of this network keeping only links with `alive[idx]` true.
    /// Servers (and their ids) are preserved; masked links are absent, so
    /// link indices are *not* comparable across the copy.
    pub fn masked_clone(&self, alive: &[bool]) -> EdgeNetwork {
        let mut net = EdgeNetwork::new();
        for s in &self.servers {
            net.push_server(s.clone());
        }
        for (idx, link) in self.links.iter().enumerate() {
            if alive.get(idx).copied().unwrap_or(true) {
                net.add_link(link.a, link.b, link.params);
            }
        }
        net
    }

    /// Total storage across all servers, `Σ_k Φ(v_k)` — the left side of the
    /// aggregate-capacity test in Algorithm 5.
    pub fn total_storage(&self) -> f64 {
        self.servers.iter().map(|s| s.storage_units).sum()
    }

    /// Euclidean distance between two servers' positions (meters).
    pub fn distance(&self, a: NodeId, b: NodeId) -> f64 {
        let pa = self.servers[a.idx()].position;
        let pb = self.servers[b.idx()].position;
        ((pa.0 - pb.0).powi(2) + (pa.1 - pb.1).powi(2)).sqrt()
    }

    /// Override the effective rate of link `idx` as seen by shortest-path
    /// computations (both adjacency directions). A rate of `0.0` masks the
    /// link out entirely: Dijkstra skips zero-rate edges, so a masked network
    /// is path-identical to one rebuilt without the link — which is what lets
    /// the incremental APSP cache model crashes and degradations without
    /// reallocating the topology.
    pub fn override_link_rate(&mut self, idx: usize, rate: f64) {
        let Link { a, b, .. } = self.links[idx];
        for nb in self.adjacency[a.idx()].iter_mut() {
            if nb.link == idx {
                nb.rate = rate;
            }
        }
        for nb in self.adjacency[b.idx()].iter_mut() {
            if nb.link == idx {
                nb.rate = rate;
            }
        }
    }

    /// Current effective rate of link `idx` as seen by shortest paths
    /// (respects any [`override_link_rate`](Self::override_link_rate)).
    pub fn effective_rate(&self, idx: usize) -> f64 {
        let a = self.links[idx].a;
        self.adjacency[a.idx()]
            .iter()
            .find(|nb| nb.link == idx)
            .map(|nb| nb.rate)
            .unwrap_or(0.0)
    }

    /// Structural fingerprint of the topology: node count, link endpoints and
    /// current *effective* rates (FNV-1a over their bit patterns). Two
    /// networks with equal fingerprints produce identical shortest paths, so
    /// caches keyed on it (e.g. memoized virtual graphs) survive across slots
    /// whose topology did not change.
    pub fn fingerprint(&self) -> u64 {
        const PRIME: u64 = 0x0000_0100_0000_01b3;
        let mut h: u64 = 0xcbf2_9ce4_8422_2325;
        let mix = |h: &mut u64, v: u64| {
            *h ^= v;
            *h = h.wrapping_mul(PRIME);
        };
        mix(&mut h, self.servers.len() as u64);
        for (idx, l) in self.links.iter().enumerate() {
            mix(&mut h, u64::from(l.a.0));
            mix(&mut h, u64::from(l.b.0));
            mix(&mut h, self.effective_rate(idx).to_bits());
        }
        h
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn line3() -> EdgeNetwork {
        // v0 -10- v1 -20- v2
        let mut net = EdgeNetwork::new();
        let a = net.push_server(EdgeServer::new(10.0, 4.0));
        let b = net.push_server(EdgeServer::new(10.0, 4.0));
        let c = net.push_server(EdgeServer::new(10.0, 4.0));
        net.add_link(a, b, LinkParams::from_rate(10.0));
        net.add_link(b, c, LinkParams::from_rate(20.0));
        net
    }

    #[test]
    fn from_rate_roundtrips() {
        let p = LinkParams::from_rate(42.5);
        assert!((p.rate() - 42.5).abs() < 1e-9);
    }

    #[test]
    fn shannon_rate_matches_formula() {
        let p = LinkParams {
            bandwidth: 20.0,
            tx_power: 2.0,
            channel_gain: 3.0,
            noise: 1.5,
        };
        let expected = 20.0 * (1.0 + 2.0 * 3.0 / 1.5_f64).log2();
        assert!((p.rate() - expected).abs() < 1e-9);
    }

    #[test]
    fn rate_is_never_zero() {
        let p = LinkParams {
            bandwidth: 0.0,
            tx_power: 0.0,
            channel_gain: 0.0,
            noise: 1.0,
        };
        assert!(p.rate() > 0.0);
    }

    #[test]
    fn adjacency_is_symmetric() {
        let net = line3();
        assert_eq!(net.degree(NodeId(0)), 1);
        assert_eq!(net.degree(NodeId(1)), 2);
        assert_eq!(net.degree(NodeId(2)), 1);
        assert_eq!(net.direct_rate(NodeId(0), NodeId(1)), Some(10.0));
        assert_eq!(net.direct_rate(NodeId(1), NodeId(0)), Some(10.0));
        assert_eq!(net.direct_rate(NodeId(0), NodeId(2)), None);
    }

    #[test]
    fn parallel_links_pick_fastest() {
        let mut net = line3();
        net.add_link(NodeId(0), NodeId(1), LinkParams::from_rate(50.0));
        assert_eq!(net.direct_rate(NodeId(0), NodeId(1)), Some(50.0));
    }

    #[test]
    fn connectivity_detects_islands() {
        let mut net = line3();
        assert!(net.is_connected());
        net.push_server(EdgeServer::new(5.0, 4.0));
        assert!(!net.is_connected());
    }

    #[test]
    fn link_other_endpoint() {
        let net = line3();
        let l = net.links()[0];
        assert_eq!(l.other(NodeId(0)), NodeId(1));
        assert_eq!(l.other(NodeId(1)), NodeId(0));
    }

    #[test]
    #[should_panic(expected = "self-loop")]
    fn self_loops_rejected() {
        let mut net = line3();
        net.add_link(NodeId(0), NodeId(0), LinkParams::from_rate(1.0));
    }

    #[test]
    fn total_storage_sums() {
        let net = line3();
        assert!((net.total_storage() - 12.0).abs() < 1e-12);
    }

    #[test]
    fn override_masks_both_directions_and_restores() {
        let mut net = line3();
        assert_eq!(net.effective_rate(0), 10.0);
        net.override_link_rate(0, 0.0);
        assert_eq!(net.effective_rate(0), 0.0);
        assert!(net.neighbors(NodeId(0)).iter().all(|nb| nb.rate == 0.0));
        assert!(net
            .neighbors(NodeId(1))
            .iter()
            .find(|nb| nb.link == 0)
            .is_some_and(|nb| nb.rate == 0.0));
        net.override_link_rate(0, 10.0);
        assert_eq!(net.effective_rate(0), 10.0);
        assert_eq!(net.direct_rate(NodeId(0), NodeId(1)), Some(10.0));
    }

    #[test]
    fn fingerprint_tracks_effective_rates() {
        let mut net = line3();
        let base = net.fingerprint();
        assert_eq!(base, line3().fingerprint());
        net.override_link_rate(1, 2.5);
        let degraded = net.fingerprint();
        assert_ne!(base, degraded);
        net.override_link_rate(1, 20.0);
        assert_eq!(net.fingerprint(), base);
    }
}
