//! Deployment decisions `x(i,k)` and service assignments `y(h,i,k)`.
//!
//! [`Placement`] is the dense binary matrix of deployment decisions
//! (Definition 3); [`Assignment`] materializes the service decision — for
//! each request and each chain position, the node that serves it. The
//! assignment representation exploits that `Σ_k y(h,i,k) = 1` (Eq. 9): we
//! store one node per (request, position) instead of the full tensor.

use crate::request::UserRequest;
use crate::service::{ServiceCatalog, ServiceId};
use socl_net::{EdgeNetwork, NodeId};

/// The deployment matrix `x(i,k) ∈ {0,1}` for `|M|` services × `|V|` nodes.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Placement {
    services: usize,
    nodes: usize,
    /// Row-major service-by-node bitmap.
    x: Vec<bool>,
}

impl Placement {
    /// All-zero placement.
    pub fn empty(services: usize, nodes: usize) -> Self {
        Self {
            services,
            nodes,
            x: vec![false; services * nodes],
        }
    }

    /// Placement with an instance of every service on every node
    /// (GC-OG's starting point; also the latency-optimal extreme).
    pub fn full(services: usize, nodes: usize) -> Self {
        Self {
            services,
            nodes,
            x: vec![true; services * nodes],
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
        self.x[m.idx() * self.nodes + k.idx()]
    }

    /// Write `x(i,k)`.
    #[inline]
    pub fn set(&mut self, m: ServiceId, k: NodeId, v: bool) {
        self.x[m.idx() * self.nodes + k.idx()] = v;
    }

    /// Row `m` of the matrix: `x(m, k)` for every node `k`, in id order.
    #[inline]
    pub fn host_row(&self, m: ServiceId) -> &[bool] {
        &self.x[m.idx() * self.nodes..(m.idx() + 1) * self.nodes]
    }

    /// Nodes hosting an instance of `m`.
    pub fn hosts_of(&self, m: ServiceId) -> Vec<NodeId> {
        self.hosts_iter(m).collect()
    }

    /// Nodes hosting an instance of `m`, in ascending id order, without
    /// allocating — the hot-loop variant of [`hosts_of`](Self::hosts_of)
    /// (rule `A1-hot-alloc`).
    pub fn hosts_iter(&self, m: ServiceId) -> impl Iterator<Item = NodeId> + '_ {
        let row = m.idx() * self.nodes;
        (0..self.nodes)
            .filter(move |&k| self.x[row + k])
            .map(|k| NodeId(k as u32))
    }

    /// Number of instances of `m` across the network.
    pub fn instance_count(&self, m: ServiceId) -> usize {
        let row = m.idx() * self.nodes;
        self.x[row..row + self.nodes].iter().filter(|&&b| b).count()
    }

    /// Services hosted on `k`.
    pub fn services_on(&self, k: NodeId) -> Vec<ServiceId> {
        (0..self.services)
            .filter(|&i| self.x[i * self.nodes + k.idx()])
            .map(|i| ServiceId(i as u32))
            .collect()
    }

    /// Number of services hosted on `k` — [`services_on`](Self::services_on)
    /// without materializing the list.
    pub fn services_count_on(&self, k: NodeId) -> usize {
        (0..self.services)
            .filter(|&i| self.x[i * self.nodes + k.idx()])
            .count()
    }

    /// Total number of deployed instances.
    pub fn total_instances(&self) -> usize {
        self.x.iter().filter(|&&b| b).count()
    }

    /// Total deployment cost `Σ_k 𝒦_k = Σ_k Σ_i κ(m_i)·x(i,k)` (Eq. 1).
    pub fn deployment_cost(&self, catalog: &ServiceCatalog) -> f64 {
        let mut total = 0.0;
        for i in 0..self.services {
            let kappa = catalog.deploy_cost(ServiceId(i as u32));
            let row = i * self.nodes;
            let count = self.x[row..row + self.nodes].iter().filter(|&&b| b).count();
            total += kappa * count as f64;
        }
        total
    }

    /// Storage used on node `k`: `Σ_i x(i,k)·φ(m_i)`.
    pub fn storage_used(&self, catalog: &ServiceCatalog, k: NodeId) -> f64 {
        (0..self.services)
            .filter(|&i| self.x[i * self.nodes + k.idx()])
            .map(|i| catalog.storage(ServiceId(i as u32)))
            .sum()
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

    /// Iterator over all deployed `(service, node)` pairs.
    pub fn iter_deployed(&self) -> impl Iterator<Item = (ServiceId, NodeId)> + '_ {
        (0..self.services).flat_map(move |i| {
            let row = i * self.nodes;
            (0..self.nodes)
                .filter(move |&k| self.x[row + k])
                .map(move |k| (ServiceId(i as u32), NodeId(k as u32)))
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
