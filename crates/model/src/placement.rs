//! Deployment decisions `x(i,k)` and service assignments `y(h,i,k)`.
//!
//! [`Placement`] is the binary matrix of deployment decisions (Definition
//! 3), one row of 64-bit words per service with bit `k % 64` of word `k / 64`
//! standing for node `k`; [`Assignment`] materializes the service decision —
//! for each request and each chain position, the node that serves it. The
//! assignment representation exploits that `Σ_k y(h,i,k) = 1` (Eq. 9): we
//! store one node per (request, position) instead of the full tensor.

use crate::request::UserRequest;
use crate::service::{ServiceCatalog, ServiceId};
use socl_net::{EdgeNetwork, NodeId};

/// The deployment matrix `x(i,k) ∈ {0,1}` for `|M|` services × `|V|` nodes.
///
/// Row `i` is `⌈|V|/64⌉` words; bits at or past `|V|` are always zero, so
/// two placements with the same cells compare equal word for word.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Placement {
    services: usize,
    nodes: usize,
    /// Words per service row.
    words: usize,
    /// Row-major service-by-node bitmap.
    x: Vec<u64>,
}

/// Ascending indices of the set bits of a run of words, bit `b` of word
/// `w` being index `64·w + b` — how every listing of a [`Placement`] row
/// ([`Placement::host_row`]) walks it.
pub fn ones<I: Iterator<Item = u64>>(words: I) -> Ones<I> {
    Ones {
        words: words.enumerate(),
        word: 0,
        base: 0,
    }
}

/// The iterator [`ones`] returns.
#[derive(Debug, Clone)]
pub struct Ones<I> {
    words: std::iter::Enumerate<I>,
    word: u64,
    base: usize,
}

impl<I: Iterator<Item = u64>> Iterator for Ones<I> {
    type Item = usize;

    #[inline]
    fn next(&mut self) -> Option<usize> {
        while self.word == 0 {
            let (w, word) = self.words.next()?;
            (self.base, self.word) = (64 * w, word);
        }
        let bit = self.word.trailing_zeros() as usize;
        self.word &= self.word - 1;
        Some(self.base + bit)
    }
}

impl Placement {
    /// All-zero placement.
    pub fn empty(services: usize, nodes: usize) -> Self {
        let words = nodes.div_ceil(64);
        Self {
            services,
            nodes,
            words,
            x: vec![0; services * words],
        }
    }

    /// Placement with an instance of every service on every node
    /// (GC-OG's starting point; also the latency-optimal extreme).
    pub fn full(services: usize, nodes: usize) -> Self {
        let mut row = vec![u64::MAX; nodes.div_ceil(64)];
        if let Some(last) = row.last_mut().filter(|_| nodes % 64 != 0) {
            *last = (1 << (nodes % 64)) - 1;
        }
        Self {
            services,
            nodes,
            words: row.len(),
            x: row.repeat(services),
        }
    }

    /// Number of services `|M|` this matrix covers.
    #[inline]
    pub fn services(&self) -> usize {
        self.services
    }

    /// Number of nodes `|V|` this matrix covers.
    #[inline]
    pub fn nodes(&self) -> usize {
        self.nodes
    }

    /// Read `x(i,k)`.
    #[inline]
    pub fn get(&self, m: ServiceId, k: NodeId) -> bool {
        debug_assert!(k.idx() < self.nodes, "node {k} of {}", self.nodes);
        (self.x[m.idx() * self.words + k.idx() / 64] >> (k.idx() % 64)) & 1 != 0
    }

    /// Write `x(i,k)`.
    #[inline]
    pub fn set(&mut self, m: ServiceId, k: NodeId, v: bool) {
        debug_assert!(k.idx() < self.nodes, "node {k} of {}", self.nodes);
        let (word, bit) = (m.idx() * self.words + k.idx() / 64, 1 << (k.idx() % 64));
        if v {
            self.x[word] |= bit;
        } else {
            self.x[word] &= !bit;
        }
    }

    /// Row `m` of the matrix as words: bit `k % 64` of word `k / 64` is
    /// `x(m, k)`, and every bit at or past `|V|` is zero.
    #[inline]
    pub fn host_row(&self, m: ServiceId) -> &[u64] {
        &self.x[m.idx() * self.words..(m.idx() + 1) * self.words]
    }

    /// Nodes hosting an instance of `m`.
    pub fn hosts_of(&self, m: ServiceId) -> Vec<NodeId> {
        self.hosts_iter(m).collect()
    }

    /// Nodes hosting an instance of `m`, in ascending id order, without
    /// allocating — the hot-loop variant of [`hosts_of`](Self::hosts_of).
    #[inline]
    pub fn hosts_iter(&self, m: ServiceId) -> impl Iterator<Item = NodeId> + '_ {
        ones(self.host_row(m).iter().copied()).map(|k| NodeId(k as u32))
    }

    /// Number of instances of `m` across the network.
    #[inline]
    pub fn instance_count(&self, m: ServiceId) -> usize {
        self.host_row(m)
            .iter()
            .map(|w| w.count_ones() as usize)
            .sum()
    }

    /// Services hosted on `k`.
    pub fn services_on(&self, k: NodeId) -> Vec<ServiceId> {
        self.services_on_iter(k).collect()
    }

    /// Number of services hosted on `k` — [`services_on`](Self::services_on)
    /// without materializing the list.
    pub fn services_count_on(&self, k: NodeId) -> usize {
        self.services_on_iter(k).count()
    }

    /// Services hosted on `k`, in ascending id order.
    fn services_on_iter(&self, k: NodeId) -> impl Iterator<Item = ServiceId> + '_ {
        (0..self.services)
            .map(|i| ServiceId(i as u32))
            .filter(move |&m| self.get(m, k))
    }

    /// Total number of deployed instances.
    pub fn total_instances(&self) -> usize {
        self.x.iter().map(|w| w.count_ones() as usize).sum()
    }

    /// Total deployment cost `Σ_k 𝒦_k = Σ_k Σ_i κ(m_i)·x(i,k)` (Eq. 1).
    pub fn deployment_cost(&self, catalog: &ServiceCatalog) -> f64 {
        let mut total = 0.0;
        for i in 0..self.services {
            let m = ServiceId(i as u32);
            total += catalog.deploy_cost(m) * self.instance_count(m) as f64;
        }
        total
    }

    /// Storage used on node `k`: `Σ_i x(i,k)·φ(m_i)`.
    pub fn storage_used(&self, catalog: &ServiceCatalog, k: NodeId) -> f64 {
        self.services_on_iter(k).map(|m| catalog.storage(m)).sum()
    }

    /// True if one more instance of `m` fits in node `k`'s free storage
    /// (Eq. 6 with `1e-9` of slack). Whether `m` is already on `k` is the
    /// caller's question.
    pub fn fits(
        &self,
        catalog: &ServiceCatalog,
        net: &EdgeNetwork,
        m: ServiceId,
        k: NodeId,
    ) -> bool {
        net.storage(k) - self.storage_used(catalog, k) >= catalog.storage(m) - 1e-9
    }

    /// True if every node satisfies the storage constraint (Eq. 6):
    /// `Σ_i x(i,k)·φ(m_i) ≤ Φ(v_k)`.
    pub fn storage_feasible(&self, catalog: &ServiceCatalog, net: &EdgeNetwork) -> bool {
        net.node_ids()
            .all(|k| self.storage_used(catalog, k) <= net.storage(k) + 1e-9)
    }

    /// Nodes whose storage constraint is violated, with the overshoot.
    pub fn storage_violations(
        &self,
        catalog: &ServiceCatalog,
        net: &EdgeNetwork,
    ) -> Vec<(NodeId, f64)> {
        net.node_ids()
            .filter_map(|k| {
                let over = self.storage_used(catalog, k) - net.storage(k);
                (over > 1e-9).then_some((k, over))
            })
            .collect()
    }

    /// True if every service requested by at least one user has at least one
    /// instance somewhere (otherwise those users must fall back to the cloud).
    pub fn covers(&self, requests: &[UserRequest]) -> bool {
        requests
            .iter()
            .flat_map(|r| r.chain.iter())
            .all(|&m| self.instance_count(m) > 0)
    }

    /// Iterator over all deployed `(service, node)` pairs, in ascending
    /// `(service, node)` order.
    pub fn iter_deployed(&self) -> impl Iterator<Item = (ServiceId, NodeId)> + '_ {
        (0..self.services).flat_map(move |i| {
            let m = ServiceId(i as u32);
            self.hosts_iter(m).map(move |k| (m, k))
        })
    }
}

/// Per-(service, node) warm replica counts — the serverless refinement of
/// [`Placement`].
///
/// A placement says *where* a service is deployed (`x(i,k) ∈ {0,1}`); a
/// replica-count grid says *how many* warm instances each deployment cell
/// holds. The autoscaling control plane (`socl-autoscale`) owns these counts
/// and adjusts them against observed concurrency; the execution layers
/// (`socl-sim`) serve requests from the pools they describe. The invariant
/// linking the two representations is `counts.get(m, k) > 0 ⇒
/// placement.get(m, k)` — a cell cannot hold warm replicas without being
/// deployed (see [`ReplicaCounts::consistent_with`]).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ReplicaCounts {
    services: usize,
    nodes: usize,
    /// Row-major service-by-node counts.
    counts: Vec<u32>,
}

impl ReplicaCounts {
    /// All-zero grid (everything scaled to zero).
    pub fn zero(services: usize, nodes: usize) -> Self {
        Self {
            services,
            nodes,
            counts: vec![0; services * nodes],
        }
    }

    /// One warm replica per deployed cell — the implicit
    /// one-instance-per-placement-entry model the testbed used before the
    /// control plane existed.
    pub fn from_placement(placement: &Placement) -> Self {
        let mut counts = Self::zero(placement.services(), placement.nodes());
        for (m, k) in placement.iter_deployed() {
            counts.set(m, k, 1);
        }
        counts
    }

    /// Number of services the grid covers.
    #[inline]
    pub fn services(&self) -> usize {
        self.services
    }

    /// Number of nodes the grid covers.
    #[inline]
    pub fn nodes(&self) -> usize {
        self.nodes
    }

    /// Warm replicas of `m` on `k`.
    #[inline]
    pub fn get(&self, m: ServiceId, k: NodeId) -> u32 {
        self.counts[m.idx() * self.nodes + k.idx()]
    }

    /// Set the warm replica count of `m` on `k`.
    #[inline]
    pub fn set(&mut self, m: ServiceId, k: NodeId, v: u32) {
        self.counts[m.idx() * self.nodes + k.idx()] = v;
    }

    /// Total warm replicas of `m` across the network.
    pub fn total_of(&self, m: ServiceId) -> u32 {
        let row = m.idx() * self.nodes;
        self.counts[row..row + self.nodes].iter().sum()
    }

    /// Total warm replicas across every service and node.
    pub fn total(&self) -> u32 {
        self.counts.iter().sum()
    }

    /// Iterator over all `(service, node, count)` cells with `count > 0`.
    pub fn iter_positive(&self) -> impl Iterator<Item = (ServiceId, NodeId, u32)> + '_ {
        (0..self.services).flat_map(move |i| {
            let row = i * self.nodes;
            (0..self.nodes).filter_map(move |k| {
                let c = self.counts[row + k];
                (c > 0).then_some((ServiceId(i as u32), NodeId(k as u32), c))
            })
        })
    }

    /// True when every positive cell is also deployed in `placement` —
    /// warm replicas can only live where an instance exists.
    pub fn consistent_with(&self, placement: &Placement) -> bool {
        self.iter_positive().all(|(m, k, _)| placement.get(m, k))
    }
}

/// The service decision: for request `h` and chain position `j`, the node
/// `loc^h(m)` chosen to execute the `j`-th microservice of the chain.
///
/// `None` per-request means the request could not be served from the edge at
/// all (some chain service has no instance) and fell back to the cloud.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Assignment {
    /// `per_request[h]` has one entry per chain position of request `h`.
    per_request: Vec<Option<Vec<NodeId>>>,
}

impl Assignment {
    /// Build from raw per-request routes.
    pub fn new(per_request: Vec<Option<Vec<NodeId>>>) -> Self {
        Self { per_request }
    }

    /// Number of requests covered.
    pub fn len(&self) -> usize {
        self.per_request.len()
    }

    /// True when no requests are covered.
    pub fn is_empty(&self) -> bool {
        self.per_request.is_empty()
    }

    /// The route of request `h` (node per chain position), if edge-served.
    pub fn route(&self, h: usize) -> Option<&[NodeId]> {
        self.per_request[h].as_deref()
    }

    /// Number of requests that had to fall back to the cloud.
    pub fn cloud_fallbacks(&self) -> usize {
        self.per_request.iter().filter(|r| r.is_none()).count()
    }

    /// Check Eq. 10 (`y(h,i,k) ≤ x(i,k)`): every routed node actually hosts
    /// the corresponding service instance.
    pub fn consistent_with(&self, placement: &Placement, requests: &[UserRequest]) -> bool {
        self.per_request.iter().zip(requests).all(|(route, req)| {
            route.as_ref().is_none_or(|nodes| {
                nodes.len() == req.chain.len()
                    && nodes
                        .iter()
                        .zip(&req.chain)
                        .all(|(&k, &m)| placement.get(m, k))
            })
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::request::UserId;
    use crate::service::Microservice;
    use socl_net::rng::cases;
    use socl_net::{EdgeServer, LinkParams};

    fn catalog() -> ServiceCatalog {
        ServiceCatalog::from_services(vec![
            crate::service::Microservice::new(100.0, 1.0, 1.0),
            crate::service::Microservice::new(250.0, 2.0, 2.0),
        ])
    }

    fn net2() -> EdgeNetwork {
        let mut net = EdgeNetwork::new();
        net.push_server(EdgeServer::new(10.0, 2.5));
        net.push_server(EdgeServer::new(10.0, 8.0));
        net.add_link(NodeId(0), NodeId(1), LinkParams::from_rate(10.0));
        net
    }

    /// The matrix as first written, one `bool` per cell in row-major order,
    /// with its listings and folds. Frozen — the reference the bit rows are
    /// held to.
    struct DenseReference {
        services: usize,
        nodes: usize,
        x: Vec<bool>,
    }

    impl DenseReference {
        fn hosts(&self, i: usize) -> Vec<NodeId> {
            (0..self.nodes)
                .filter(|&k| self.x[i * self.nodes + k])
                .map(|k| NodeId(k as u32))
                .collect()
        }

        fn services_on(&self, k: usize) -> Vec<ServiceId> {
            (0..self.services)
                .filter(|&i| self.x[i * self.nodes + k])
                .map(|i| ServiceId(i as u32))
                .collect()
        }

        fn storage_used(&self, catalog: &ServiceCatalog, k: usize) -> f64 {
            self.services_on(k)
                .iter()
                .map(|&m| catalog.storage(m))
                .sum()
        }

        fn deployment_cost(&self, catalog: &ServiceCatalog) -> f64 {
            let mut total = 0.0;
            for i in 0..self.services {
                let count = self.hosts(i).len();
                total += catalog.deploy_cost(ServiceId(i as u32)) * count as f64;
            }
            total
        }
    }

    /// Random set and clear sequences from the empty or the full matrix, at
    /// node counts on both sides of a word boundary: every read, listing and
    /// float fold equals the dense reference's (the folds to the bit), and
    /// clearing every cell gives the empty matrix word for word, padding
    /// included.
    #[test]
    fn bit_rows_equal_the_dense_reference() {
        cases(24, |rng| {
            for nodes in [1, 63, 64, 65, 130] {
                let services = rng.gen_range(1..=5usize);
                let catalog = ServiceCatalog::from_services(
                    (0..services)
                        .map(|_| {
                            Microservice::new(
                                rng.gen_range(200.0..=500.0),
                                rng.gen_range(1.0..=2.0),
                                1.0,
                            )
                        })
                        .collect(),
                );
                let full = rng.gen::<bool>();
                let mut p = if full {
                    Placement::full(services, nodes)
                } else {
                    Placement::empty(services, nodes)
                };
                let mut want = DenseReference {
                    services,
                    nodes,
                    x: vec![full; services * nodes],
                };
                for _ in 0..rng.gen_range(0..=3 * nodes) {
                    let (i, k, v) = (
                        rng.gen_range(0..services),
                        rng.gen_range(0..nodes),
                        rng.gen::<bool>(),
                    );
                    p.set(ServiceId(i as u32), NodeId(k as u32), v);
                    want.x[i * nodes + k] = v;
                }
                let mut deployed = Vec::new();
                for i in 0..services {
                    let m = ServiceId(i as u32);
                    for k in 0..nodes {
                        assert_eq!(p.get(m, NodeId(k as u32)), want.x[i * nodes + k]);
                    }
                    assert_eq!(p.hosts_of(m), want.hosts(i), "|V| = {nodes}");
                    assert_eq!(p.instance_count(m), want.hosts(i).len());
                    deployed.extend(want.hosts(i).into_iter().map(|k| (m, k)));
                }
                assert_eq!(p.iter_deployed().collect::<Vec<_>>(), deployed);
                assert_eq!(p.total_instances(), deployed.len());
                for k in 0..nodes {
                    let node = NodeId(k as u32);
                    assert_eq!(p.services_on(node), want.services_on(k));
                    assert_eq!(p.services_count_on(node), want.services_on(k).len());
                    assert_eq!(
                        p.storage_used(&catalog, node).to_bits(),
                        want.storage_used(&catalog, k).to_bits()
                    );
                }
                assert_eq!(
                    p.deployment_cost(&catalog).to_bits(),
                    want.deployment_cost(&catalog).to_bits()
                );

                let (m, k) = (
                    ServiceId(rng.gen_range(0..services) as u32),
                    NodeId(rng.gen_range(0..nodes) as u32),
                );
                let mut q = p.clone();
                q.set(m, k, !p.get(m, k));
                assert_ne!(q, p);
                q.set(m, k, p.get(m, k));
                assert_eq!(q, p);
                for (m, k) in deployed {
                    p.set(m, k, false);
                }
                assert_eq!(p, Placement::empty(services, nodes), "|V| = {nodes}");
            }
        });
    }

    #[test]
    fn set_get_roundtrip() {
        let mut p = Placement::empty(2, 3);
        assert!(!p.get(ServiceId(1), NodeId(2)));
        p.set(ServiceId(1), NodeId(2), true);
        assert!(p.get(ServiceId(1), NodeId(2)));
        assert!(!p.get(ServiceId(0), NodeId(2)));
        assert_eq!(p.total_instances(), 1);
    }

    #[test]
    fn hosts_and_services_listings() {
        let mut p = Placement::empty(2, 3);
        p.set(ServiceId(0), NodeId(0), true);
        p.set(ServiceId(0), NodeId(2), true);
        p.set(ServiceId(1), NodeId(2), true);
        assert_eq!(p.hosts_of(ServiceId(0)), vec![NodeId(0), NodeId(2)]);
        assert_eq!(p.instance_count(ServiceId(0)), 2);
        assert_eq!(p.services_on(NodeId(2)), vec![ServiceId(0), ServiceId(1)]);
        let deployed: Vec<_> = p.iter_deployed().collect();
        assert_eq!(deployed.len(), 3);
    }

    #[test]
    fn deployment_cost_weights_by_kappa() {
        let cat = catalog();
        let mut p = Placement::empty(2, 2);
        p.set(ServiceId(0), NodeId(0), true);
        p.set(ServiceId(1), NodeId(0), true);
        p.set(ServiceId(1), NodeId(1), true);
        assert_eq!(p.deployment_cost(&cat), 100.0 + 2.0 * 250.0);
    }

    #[test]
    fn storage_feasibility_detects_overflow() {
        let cat = catalog();
        let net = net2();
        let mut p = Placement::empty(2, 2);
        // Node 0 has capacity 2.5; φ = 1 + 2 = 3 overflows it.
        p.set(ServiceId(0), NodeId(0), true);
        assert!(p.storage_feasible(&cat, &net));
        p.set(ServiceId(1), NodeId(0), true);
        assert!(!p.storage_feasible(&cat, &net));
        let v = p.storage_violations(&cat, &net);
        assert_eq!(v.len(), 1);
        assert_eq!(v[0].0, NodeId(0));
        assert!((v[0].1 - 0.5).abs() < 1e-9);
    }

    #[test]
    fn full_placement_covers_everything() {
        let p = Placement::full(2, 2);
        let req = UserRequest::new(
            UserId(0),
            NodeId(0),
            vec![ServiceId(0), ServiceId(1)],
            vec![1.0],
            0.1,
            0.1,
            10.0,
        );
        assert!(p.covers(&[req]));
        let empty = Placement::empty(2, 2);
        let req2 = UserRequest::new(
            UserId(1),
            NodeId(0),
            vec![ServiceId(0)],
            vec![],
            0.1,
            0.1,
            1.0,
        );
        assert!(!empty.covers(&[req2]));
    }

    #[test]
    fn assignment_consistency_checks_eq10() {
        let mut p = Placement::empty(2, 2);
        p.set(ServiceId(0), NodeId(1), true);
        let req = UserRequest::new(
            UserId(0),
            NodeId(0),
            vec![ServiceId(0)],
            vec![],
            0.1,
            0.1,
            1.0,
        );
        let good = Assignment::new(vec![Some(vec![NodeId(1)])]);
        assert!(good.consistent_with(&p, std::slice::from_ref(&req)));
        let bad = Assignment::new(vec![Some(vec![NodeId(0)])]);
        assert!(!bad.consistent_with(&p, std::slice::from_ref(&req)));
        let cloud = Assignment::new(vec![None]);
        assert!(cloud.consistent_with(&p, &[req]));
        assert_eq!(cloud.cloud_fallbacks(), 1);
    }
}
