//! Scenario assembly: one seeded, self-contained problem instance.
//!
//! A [`Scenario`] bundles everything Definition 4's ILP needs — the substrate
//! network with its all-pairs path cache, the microservice catalog, the
//! request set, and the objective/constraint knobs (`λ`, `𝒦^max`,
//! per-request `𝒟^max`, the cloud-fallback penalty). All downstream solvers
//! (SoCL, OPT, baselines, simulator) take a `&Scenario`.

use crate::dataset::{DependencyDataset, EshopDataset};
use crate::request::{RequestConfig, UserRequest};
use crate::service::{ServiceCatalog, ServiceId};
use socl_net::rng::ChaCha12Rng;
use socl_net::{AllPairs, EdgeNetwork, NodeId, TopologyConfig};

/// A complete problem instance.
#[derive(Debug, Clone)]
pub struct Scenario {
    /// Substrate topology `G(V, L)`.
    pub net: EdgeNetwork,
    /// Precomputed all-pairs shortest paths over `net`.
    pub ap: AllPairs,
    /// Microservice set `M`.
    pub catalog: ServiceCatalog,
    /// Request set `U`.
    pub requests: Vec<UserRequest>,
    /// Cost/latency trade-off `λ ∈ [0, 1]` in Eq. 3/8.
    pub lambda: f64,
    /// Total provisioning budget `𝒦^max` (Eq. 5).
    pub budget: f64,
    /// Conversion factor from seconds of completion time to objective units
    /// (default 1000: the objective weighs milliseconds against cost units,
    /// which reproduces the magnitude balance of the paper's reported
    /// objective values).
    pub latency_scale: f64,
    /// Completion time charged (in seconds, before `latency_scale`) for a
    /// request that must fall back to the cloud because some chain service
    /// has no edge instance.
    pub cloud_penalty: f64,
}

impl Scenario {
    /// Number of edge servers `|V|`.
    pub fn nodes(&self) -> usize {
        self.net.node_count()
    }

    /// Number of microservices `|M|`.
    pub fn services(&self) -> usize {
        self.catalog.len()
    }

    /// The weighted objective `Q = λ·Σ𝒦 + (1−λ)·latency_scale·Σ𝒟` (Eq. 3/8)
    /// from a deployment cost and a completion-time sum — the one expression
    /// [`evaluate`](crate::evaluate) and the combiner's running state share,
    /// so equal inputs give bit-equal objectives.
    #[inline]
    pub fn objective(&self, cost: f64, total_latency: f64) -> f64 {
        self.lambda * cost + (1.0 - self.lambda) * self.latency_scale * total_latency
    }

    /// Number of user requests `|U|`.
    pub fn users(&self) -> usize {
        self.requests.len()
    }

    /// `U_k`: requests whose user sits in the coverage area of `k`.
    pub fn users_at(&self, k: NodeId) -> impl Iterator<Item = &UserRequest> + '_ {
        self.requests.iter().filter(move |r| r.location == k)
    }

    /// `𝕌_{v_k}^{m_i}`: requests located at `k` whose chain invokes `m`.
    pub fn users_requesting(
        &self,
        m: ServiceId,
        k: NodeId,
    ) -> impl Iterator<Item = &UserRequest> + '_ {
        self.users_at(k).filter(move |r| r.uses(m))
    }

    /// `|𝕌_{v_k}^{m_i}|`.
    pub fn demand(&self, m: ServiceId, k: NodeId) -> usize {
        self.users_requesting(m, k).count()
    }

    /// `V(m_i)`: nodes hosting at least one request that invokes `m`,
    /// ascending by id.
    pub fn request_nodes(&self, m: ServiceId) -> Vec<NodeId> {
        self.net
            .node_ids()
            .filter(|&k| self.requests.iter().any(|r| r.location == k && r.uses(m)))
            .collect()
    }

    /// Services that appear in at least one request chain.
    pub fn requested_services(&self) -> Vec<ServiceId> {
        self.catalog
            .ids()
            .filter(|&m| self.requests.iter().any(|r| r.uses(m)))
            .collect()
    }

    /// Total demand for `m` across the network.
    pub fn total_demand(&self, m: ServiceId) -> usize {
        self.requests.iter().filter(|r| r.uses(m)).count()
    }
}

/// Seconds of completion time to objective units: the objective weighs
/// milliseconds against cost units.
const LATENCY_SCALE: f64 = 1000.0;
/// Completion time charged, in seconds, for a cloud fallback.
const CLOUD_PENALTY: f64 = 5.0;

/// Seeded scenario generator following the paper's evaluation setup
/// (Section V.A): eshopOnContainers services, [5,20] GFLOP/s servers,
/// [20,80] GB/s links, cost constraints in the thousands.
///
/// ```
/// use socl_model::{evaluate, Placement, ScenarioConfig};
///
/// let sc = ScenarioConfig::paper(10, 40).build(42);
/// assert_eq!(sc.nodes(), 10);
/// assert_eq!(sc.users(), 40);
///
/// // Evaluating the everything-everywhere placement gives the latency
/// // lower bound at maximum cost:
/// let full = Placement::full(sc.services(), sc.nodes());
/// let ev = evaluate(&sc, &full);
/// assert_eq!(ev.cloud_fallbacks, 0);
/// assert!(ev.cost > sc.budget); // full deployment blows the budget
/// ```
#[derive(Debug, Clone)]
pub struct ScenarioConfig {
    /// Number of edge servers.
    pub nodes: usize,
    /// Number of user requests.
    pub users: usize,
    /// Trade-off weight `λ`.
    pub lambda: f64,
    /// Budget `𝒦^max` (paper: 5000–8000).
    pub budget: f64,
    /// Topology generation parameters (node count is overridden by `nodes`).
    pub topology: TopologyConfig,
    /// Request chain/data parameters.
    pub requests: RequestConfig,
}

impl Default for ScenarioConfig {
    fn default() -> Self {
        Self {
            nodes: 10,
            users: 40,
            lambda: 0.5,
            budget: 6000.0,
            topology: TopologyConfig::default(),
            requests: RequestConfig::default(),
        }
    }
}

impl ScenarioConfig {
    /// The paper's default setup with `nodes` servers and `users` requests.
    pub fn paper(nodes: usize, users: usize) -> Self {
        Self {
            nodes,
            users,
            ..Self::default()
        }
    }

    /// Build the scenario from the eshopOnContainers dataset with `seed`.
    pub fn build(&self, seed: u64) -> Scenario {
        self.build_with_dataset(&EshopDataset::build(), seed)
    }

    /// Build with an arbitrary dependency dataset.
    pub fn build_with_dataset(&self, dataset: &DependencyDataset, seed: u64) -> Scenario {
        let mut topo = self.topology.clone();
        topo.nodes = self.nodes;
        let net = topo.build(seed);
        let ap = AllPairs::build(&net);
        let mut rng =
            ChaCha12Rng::seed_from_u64(seed.wrapping_mul(0x9E37_79B9_7F4A_7C15).wrapping_add(1));
        let catalog = dataset.catalog(&mut rng);
        let requests = dataset.sample_requests(&mut rng, self.users, self.nodes, &self.requests);
        Scenario {
            net,
            ap,
            catalog,
            requests,
            lambda: self.lambda,
            budget: self.budget,
            latency_scale: LATENCY_SCALE,
            cloud_penalty: CLOUD_PENALTY,
        }
    }

    /// Build with an explicit catalog and request set (used by tests and the
    /// simulator, which regenerates requests per time slot).
    pub fn assemble(
        &self,
        net: EdgeNetwork,
        catalog: ServiceCatalog,
        requests: Vec<UserRequest>,
    ) -> Scenario {
        let ap = AllPairs::build(&net);
        Scenario {
            net,
            ap,
            catalog,
            requests,
            lambda: self.lambda,
            budget: self.budget,
            latency_scale: LATENCY_SCALE,
            cloud_penalty: CLOUD_PENALTY,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn build_produces_consistent_scenario() {
        let sc = ScenarioConfig::paper(10, 40).build(1);
        assert_eq!(sc.nodes(), 10);
        assert_eq!(sc.users(), 40);
        assert_eq!(sc.services(), 12);
        for r in &sc.requests {
            assert!(r.location.0 < 10);
            for &m in &r.chain {
                assert!(m.idx() < sc.services());
            }
        }
    }

    #[test]
    fn build_is_deterministic() {
        let a = ScenarioConfig::paper(8, 20).build(9);
        let b = ScenarioConfig::paper(8, 20).build(9);
        assert_eq!(a.requests, b.requests);
        assert_eq!(a.net.link_count(), b.net.link_count());
        for m in a.catalog.ids() {
            assert_eq!(a.catalog.get(m), b.catalog.get(m));
        }
    }

    #[test]
    fn demand_bookkeeping_is_consistent() {
        let sc = ScenarioConfig::paper(10, 60).build(2);
        for m in sc.catalog.ids() {
            // Sum of per-node demand equals total demand.
            let sum: usize = sc.net.node_ids().map(|k| sc.demand(m, k)).sum();
            assert_eq!(sum, sc.total_demand(m));
            // request_nodes are exactly nodes with positive demand.
            let nodes = sc.request_nodes(m);
            for k in sc.net.node_ids() {
                assert_eq!(nodes.contains(&k), sc.demand(m, k) > 0);
            }
        }
    }

    #[test]
    fn users_at_partitions_requests() {
        let sc = ScenarioConfig::paper(10, 50).build(3);
        let total: usize = sc.net.node_ids().map(|k| sc.users_at(k).count()).sum();
        assert_eq!(total, 50);
    }

    #[test]
    fn requested_services_subset_of_catalog() {
        let sc = ScenarioConfig::paper(10, 30).build(4);
        let reqd = sc.requested_services();
        assert!(!reqd.is_empty());
        assert!(reqd.len() <= sc.services());
        for m in &reqd {
            assert!(sc.total_demand(*m) > 0);
        }
    }
}
