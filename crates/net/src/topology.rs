//! Random topology generation matching the paper's evaluation setup.
//!
//! Section V.A: edge servers with [5, 20] GFLOP/s compute, [4, 8] storage
//! units and [20, 80] GB/s link bandwidth; base stations placed near the
//! National Stadium in Beijing. We reproduce the statistical shape with a
//! seeded planar generator: nodes are scattered in clusters on a disk,
//! mimicking base-station groupings around a venue, and connected by a
//! distance-biased random graph that is then patched to be connected.

use crate::graph::{EdgeNetwork, EdgeServer, LinkParams, NodeId};
use crate::rng::ChaCha12Rng;

/// Disk radius in meters.
const RADIUS_M: f64 = 1_000.0;
/// Base-station hotspots on the disk (venue-like, the paper's stadium
/// scenario): most nodes sit in hotspots, a few stragglers in between.
const CLUSTERS: usize = 3;
/// Per-node compute range in GFLOP/s (paper: [5, 20]).
const COMPUTE_GFLOPS: (f64, f64) = (5.0, 20.0);
/// Per-link raw bandwidth range in GB/s (paper: [20, 80]).
const BANDWIDTH: (f64, f64) = (20.0, 80.0);
/// Average node degree targeted by the distance-biased wiring.
const MEAN_DEGREE: f64 = 3.5;
/// Transmission power γ (W).
const TX_POWER: f64 = 1.0;
/// Noise power N (W).
const NOISE: f64 = 1.0;

/// Parameters of the random topology generator.
///
/// ```
/// use socl_net::TopologyConfig;
///
/// let net = TopologyConfig::paper(12).build(7);
/// assert_eq!(net.node_count(), 12);
/// assert!(net.is_connected());
/// // Same seed, same network:
/// assert_eq!(net.link_count(), TopologyConfig::paper(12).build(7).link_count());
/// ```
#[derive(Debug, Clone)]
pub struct TopologyConfig {
    /// Number of edge servers.
    pub nodes: usize,
    /// Per-node storage range in units (paper: [4, 8]).
    pub storage_units: (f64, f64),
}

impl Default for TopologyConfig {
    fn default() -> Self {
        Self {
            nodes: 10,
            storage_units: (4.0, 8.0),
        }
    }
}

impl TopologyConfig {
    /// Convenience constructor with the paper's parameter ranges and `n` nodes.
    pub fn paper(n: usize) -> Self {
        Self {
            nodes: n,
            ..Self::default()
        }
    }

    /// Generate a connected random topology with the given seed.
    ///
    /// Determinism: the same `(config, seed)` always produces the same
    /// network, independent of platform.
    pub fn build(&self, seed: u64) -> EdgeNetwork {
        assert!(self.nodes >= 1, "topology needs at least one node");
        let mut rng = ChaCha12Rng::seed_from_u64(seed);
        let mut net = EdgeNetwork::new();

        let positions = self.positions(&mut rng);
        for &(x, y) in &positions {
            let compute = rng.gen_range(COMPUTE_GFLOPS.0..=COMPUTE_GFLOPS.1);
            let storage = rng.gen_range(self.storage_units.0..=self.storage_units.1);
            let mut server = EdgeServer::new(compute, storage);
            server.position = (x, y);
            net.push_server(server);
        }

        wire(&mut net, &mut rng);
        connect_components(&mut net, &mut rng);
        debug_assert!(net.is_connected());
        net
    }

    /// Node positions: `CLUSTERS` hotspot centres on the inner disk, each
    /// node near a random one.
    fn positions(&self, rng: &mut ChaCha12Rng) -> Vec<(f64, f64)> {
        let centers: Vec<(f64, f64)> = (0..CLUSTERS)
            .map(|_| {
                let r = RADIUS_M * 0.7 * rng.gen::<f64>().sqrt();
                let theta = rng.gen::<f64>() * std::f64::consts::TAU;
                (r * theta.cos(), r * theta.sin())
            })
            .collect();
        (0..self.nodes)
            .map(|_| {
                let c = centers[rng.gen_range(0..CLUSTERS)];
                let spread = RADIUS_M * 0.15;
                (
                    c.0 + rng.gen_range(-spread..=spread),
                    c.1 + rng.gen_range(-spread..=spread),
                )
            })
            .collect()
    }
}

fn random_link_params(rng: &mut ChaCha12Rng) -> LinkParams {
    LinkParams {
        bandwidth: rng.gen_range(BANDWIDTH.0..=BANDWIDTH.1),
        tx_power: TX_POWER,
        // Gain so that SNR sits near 1 with mild variance; the Shannon
        // term then stays O(1) and rates land in the configured band.
        channel_gain: rng.gen_range(0.5..=2.0),
        noise: NOISE,
    }
}

/// Distance-biased wiring: the probability of a link decays with distance
/// (Waxman-style), scaled to hit the target degree.
fn wire(net: &mut EdgeNetwork, rng: &mut ChaCha12Rng) {
    let n = net.node_count();
    if n < 2 {
        return;
    }
    let target_links = (MEAN_DEGREE * n as f64 / 2.0).ceil();
    let pairs = (n * (n - 1) / 2) as f64;
    let base_p = (target_links / pairs).min(1.0);
    let scale = RADIUS_M.max(1.0);
    for a in 0..n {
        for b in (a + 1)..n {
            let d = net.distance(NodeId(a as u32), NodeId(b as u32));
            // Waxman kernel: closer pairs are ~4x more likely than
            // diameter-distant pairs.
            let p = base_p * 2.0 * (-d / (0.8 * scale)).exp() * 2.0;
            if rng.gen::<f64>() < p.min(1.0) {
                let params = random_link_params(rng);
                net.add_link(NodeId(a as u32), NodeId(b as u32), params);
            }
        }
    }
}

/// Join remaining components by linking each component's node closest to
/// the largest component.
fn connect_components(net: &mut EdgeNetwork, rng: &mut ChaCha12Rng) {
    loop {
        let comps = components(net);
        if comps.len() <= 1 {
            return;
        }
        // Attach every smaller component to the first by nearest pair.
        let main = &comps[0];
        let other = &comps[1];
        let mut best = (f64::INFINITY, main[0], other[0]);
        for &a in main {
            for &b in other {
                let d = net.distance(a, b);
                if d < best.0 {
                    best = (d, a, b);
                }
            }
        }
        let p = random_link_params(rng);
        net.add_link(best.1, best.2, p);
    }
}

/// Connected components, largest first.
fn components(net: &EdgeNetwork) -> Vec<Vec<NodeId>> {
    let n = net.node_count();
    let mut seen = vec![false; n];
    let mut comps = Vec::new();
    for start in net.node_ids() {
        if seen[start.idx()] {
            continue;
        }
        let mut comp = Vec::new();
        let mut stack = vec![start];
        seen[start.idx()] = true;
        while let Some(u) = stack.pop() {
            comp.push(u);
            for nb in net.neighbors(u) {
                if !seen[nb.node.idx()] {
                    seen[nb.node.idx()] = true;
                    stack.push(nb.node);
                }
            }
        }
        comps.push(comp);
    }
    comps.sort_by_key(|c| std::cmp::Reverse(c.len()));
    comps
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn generated_topologies_are_connected() {
        for n in [1, 2, 5, 10, 20, 30] {
            for seed in 0..5 {
                let net = TopologyConfig::paper(n).build(seed);
                assert_eq!(net.node_count(), n);
                assert!(net.is_connected(), "n={n} seed={seed} disconnected");
            }
        }
    }

    #[test]
    fn generation_is_deterministic() {
        let cfg = TopologyConfig::paper(15);
        let a = cfg.build(42);
        let b = cfg.build(42);
        assert_eq!(a.node_count(), b.node_count());
        assert_eq!(a.link_count(), b.link_count());
        for (la, lb) in a.links().iter().zip(b.links()) {
            assert_eq!(la.a, lb.a);
            assert_eq!(la.b, lb.b);
            assert!((la.rate() - lb.rate()).abs() < 1e-12);
        }
        for n in a.node_ids() {
            assert_eq!(a.server(n), b.server(n));
        }
    }

    #[test]
    fn different_seeds_differ() {
        let cfg = TopologyConfig::paper(15);
        let a = cfg.build(1);
        let b = cfg.build(2);
        // Positions almost surely differ.
        let same = a
            .node_ids()
            .all(|n| a.server(n).position == b.server(n).position);
        assert!(!same);
    }

    #[test]
    fn node_attributes_in_paper_ranges() {
        let net = TopologyConfig::paper(30).build(7);
        for n in net.node_ids() {
            let s = net.server(n);
            assert!((5.0..=20.0).contains(&s.compute_gflops));
            assert!((4.0..=8.0).contains(&s.storage_units));
        }
        for l in net.links() {
            assert!((20.0..=80.0).contains(&l.params.bandwidth));
        }
    }

    #[test]
    fn single_node_topology_is_valid() {
        let net = TopologyConfig::paper(1).build(0);
        assert_eq!(net.node_count(), 1);
        assert_eq!(net.link_count(), 0);
        assert!(net.is_connected());
    }
}
