//! Microservice dependency datasets.
//!
//! The paper evaluates on the *eshopOnContainers* project from the curated
//! "Microservices (Version 1.0)" dataset [23]. We embed the public
//! eshopOnContainers architecture as a static dependency DAG (service names
//! and caller→callee edges) and sample request chains as loop-free walks over
//! it. Per-service parameters (`q(m_i)` ∈ [1,3] GFLOPs, etc.) are sampled
//! from the paper's published ranges with a seeded RNG.
//!
//! [`DependencyDataset`] is the generic interface, so synthetic DAGs (used by
//! tests and the trace generator) plug in the same way as the real dataset.

use crate::request::{RequestConfig, UserId, UserRequest};
use crate::service::{Microservice, ServiceCatalog, ServiceId};
use socl_net::rng::ChaCha12Rng;
use socl_net::NodeId;

/// Reusable buffers for in-place chain sampling
/// ([`DependencyDataset::sample_chain_into`] and
/// [`PreferenceModel::sample_chain_into`](crate::preferences::PreferenceModel::sample_chain_into)).
/// One instance amortizes every chain re-sample in a simulation run;
/// contents between calls are meaningless.
#[derive(Debug, Clone, Default)]
pub struct ChainScratch {
    /// Candidate chain for the current attempt.
    pub attempt: Vec<ServiceId>,
    /// Successor candidates of the walk's current service.
    pub succ: Vec<u32>,
    /// Single-service head chain (preference-guided sampling only).
    pub head: Vec<ServiceId>,
}

impl ChainScratch {
    /// Empty scratch; buffers grow on first use and are then recycled.
    #[must_use]
    pub fn new() -> Self {
        Self::default()
    }
}

/// A microservice dependency graph from which request chains are sampled.
#[derive(Debug, Clone)]
pub struct DependencyDataset {
    /// Service names, indexed by [`ServiceId`].
    names: Vec<&'static str>,
    /// Caller → callee edges; acyclic by construction.
    edges: Vec<(u32, u32)>,
    /// Services at which user-facing chains start (front doors).
    entries: Vec<u32>,
}

impl DependencyDataset {
    /// Build a dataset from parts.
    ///
    /// # Panics
    /// Panics if edges reference out-of-range services, if an entry is out of
    /// range, or if the edge set has a directed cycle.
    pub fn new(names: Vec<&'static str>, edges: Vec<(u32, u32)>, entries: Vec<u32>) -> Self {
        let n = names.len() as u32;
        for &(a, b) in &edges {
            assert!(a < n && b < n, "edge ({a},{b}) out of range");
            assert!(a != b, "self-dependency on service {a}");
        }
        for &e in &entries {
            assert!(e < n, "entry {e} out of range");
        }
        let ds = Self {
            names,
            edges,
            entries,
        };
        assert!(ds.is_acyclic(), "dependency graph has a cycle");
        ds
    }

    /// Number of microservices.
    pub fn len(&self) -> usize {
        self.names.len()
    }

    /// True when the dataset has no services.
    pub fn is_empty(&self) -> bool {
        self.names.is_empty()
    }

    /// Service names in id order.
    pub fn names(&self) -> &[&'static str] {
        &self.names
    }

    /// Raw dependency edges.
    pub fn edges(&self) -> &[(u32, u32)] {
        &self.edges
    }

    /// Direct callees of `s`.
    pub fn successors(&self, s: u32) -> Vec<u32> {
        self.successors_iter(s).collect()
    }

    /// Direct callees of `s`, without allocating — the form hot loops use.
    pub fn successors_iter(&self, s: u32) -> impl Iterator<Item = u32> + '_ {
        self.edges
            .iter()
            .filter(move |&&(a, _)| a == s)
            .map(|&(_, b)| b)
    }

    fn is_acyclic(&self) -> bool {
        // Kahn's algorithm.
        let n = self.names.len();
        let mut indeg = vec![0usize; n];
        for &(_, b) in &self.edges {
            indeg[b as usize] += 1;
        }
        let mut queue: Vec<usize> = (0..n).filter(|&i| indeg[i] == 0).collect();
        let mut seen = 0;
        while let Some(u) = queue.pop() {
            seen += 1;
            for &(a, b) in &self.edges {
                if a as usize == u {
                    indeg[b as usize] -= 1;
                    if indeg[b as usize] == 0 {
                        queue.push(b as usize);
                    }
                }
            }
        }
        seen == n
    }

    /// Instantiate a [`ServiceCatalog`] with parameters sampled from the
    /// paper's ranges: compute `q ∈ [1,3]` GFLOP, deployment cost
    /// `κ ∈ [200, 500]`, storage `φ ∈ [1, 2]` units.
    pub fn catalog(&self, rng: &mut ChaCha12Rng) -> ServiceCatalog {
        let mut cat = ServiceCatalog::new();
        for &name in &self.names {
            cat.push(Microservice::named(
                name,
                rng.gen_range(200.0..=500.0),
                rng.gen_range(1.0..=2.0),
                rng.gen_range(1.0..=3.0),
            ));
        }
        cat
    }

    /// Sample one loop-free dependency chain of at most `max_len` services,
    /// starting from a random entry point.
    ///
    /// The walk follows caller→callee edges, never revisits a service (the
    /// graph is a DAG, so this is automatic) and stops at a sink or when the
    /// target length is reached. Always returns at least one service.
    pub fn sample_chain(
        &self,
        rng: &mut ChaCha12Rng,
        min_len: usize,
        max_len: usize,
    ) -> Vec<ServiceId> {
        let mut attempt = Vec::new();
        let mut succ = Vec::new();
        let mut out = Vec::new();
        self.sample_chain_into(rng, min_len, max_len, &mut attempt, &mut succ, &mut out);
        out
    }

    /// [`sample_chain`](Self::sample_chain) into caller-owned buffers, so the
    /// online simulator's churn loop re-samples chains without allocating.
    /// `attempt` and `succ` are pure scratch; the chain is left in `out`
    /// (previous contents discarded).
    ///
    /// Draws from `rng` in exactly the same order as `sample_chain`, so a
    /// seeded run produces identical chains through either entry point.
    pub fn sample_chain_into(
        &self,
        rng: &mut ChaCha12Rng,
        min_len: usize,
        max_len: usize,
        attempt: &mut Vec<ServiceId>,
        succ: &mut Vec<u32>,
        out: &mut Vec<ServiceId>,
    ) {
        assert!(!self.names.is_empty(), "empty dataset");
        let max_len = max_len.max(1);
        let min_len = min_len.clamp(1, max_len);
        // Retry a few times to satisfy min_len; fall back to the longest
        // seen, which accumulates in `out`.
        out.clear();
        for _ in 0..8 {
            let target = rng.gen_range(min_len..=max_len);
            attempt.clear();
            let mut cur = *rng.choose(&self.entries).unwrap_or(&0);
            attempt.push(ServiceId(cur));
            while attempt.len() < target {
                succ.clear();
                succ.extend(self.successors_iter(cur));
                if succ.is_empty() {
                    break;
                }
                match rng.choose(succ) {
                    Some(&next) => cur = next,
                    None => break,
                }
                attempt.push(ServiceId(cur));
            }
            if attempt.len() >= min_len {
                std::mem::swap(out, attempt);
                return;
            }
            if attempt.len() > out.len() {
                std::mem::swap(out, attempt);
            }
        }
    }

    /// Sample a full request set: `users` requests located uniformly at
    /// random over `nodes` edge servers, chains per [`RequestConfig`].
    pub fn sample_requests(
        &self,
        rng: &mut ChaCha12Rng,
        users: usize,
        nodes: usize,
        cfg: &RequestConfig,
    ) -> Vec<UserRequest> {
        assert!(nodes > 0, "need at least one edge server");
        (0..users)
            .map(|h| {
                let chain = self.sample_chain(rng, cfg.chain_len.0, cfg.chain_len.1);
                let edge_data = (0..chain.len().saturating_sub(1))
                    .map(|_| rng.gen_range(cfg.edge_data.0..=cfg.edge_data.1))
                    .collect();
                UserRequest::new(
                    UserId(h as u32),
                    NodeId(rng.gen_range(0..nodes as u32)),
                    chain,
                    edge_data,
                    rng.gen_range(cfg.r_in.0..=cfg.r_in.1),
                    rng.gen_range(cfg.r_out.0..=cfg.r_out.1),
                    cfg.d_max,
                )
            })
            .collect()
    }
}

/// The embedded eshopOnContainers dependency dataset.
///
/// Twelve services of the public eshopOnContainers reference architecture.
/// Edges are caller→callee dependencies; the two shopping aggregators and the
/// web-status front end are entry points.
pub struct EshopDataset;

impl EshopDataset {
    /// Service ids by name, for readability in examples and tests.
    pub const WEB_SHOPPING_AGG: u32 = 0;
    pub const MOBILE_SHOPPING_AGG: u32 = 1;
    pub const WEB_STATUS: u32 = 2;
    pub const IDENTITY_API: u32 = 3;
    pub const CATALOG_API: u32 = 4;
    pub const BASKET_API: u32 = 5;
    pub const ORDERING_API: u32 = 6;
    pub const ORDERING_BACKGROUND: u32 = 7;
    pub const PAYMENT_API: u32 = 8;
    pub const WEBHOOKS_API: u32 = 9;
    pub const SIGNALR_HUB: u32 = 10;
    pub const LOCATIONS_API: u32 = 11;

    /// Build the dependency dataset.
    pub fn build() -> DependencyDataset {
        let names = vec![
            "web-shopping-agg",
            "mobile-shopping-agg",
            "web-status",
            "identity-api",
            "catalog-api",
            "basket-api",
            "ordering-api",
            "ordering-background",
            "payment-api",
            "webhooks-api",
            "signalr-hub",
            "locations-api",
        ];
        use EshopDataset as E;
        let edges = vec![
            // Web shopping aggregator fans out to the domain services.
            (E::WEB_SHOPPING_AGG, E::IDENTITY_API),
            (E::WEB_SHOPPING_AGG, E::CATALOG_API),
            (E::WEB_SHOPPING_AGG, E::BASKET_API),
            (E::WEB_SHOPPING_AGG, E::ORDERING_API),
            // Mobile aggregator mirrors the web one plus locations.
            (E::MOBILE_SHOPPING_AGG, E::IDENTITY_API),
            (E::MOBILE_SHOPPING_AGG, E::CATALOG_API),
            (E::MOBILE_SHOPPING_AGG, E::BASKET_API),
            (E::MOBILE_SHOPPING_AGG, E::ORDERING_API),
            (E::MOBILE_SHOPPING_AGG, E::LOCATIONS_API),
            // Health dashboard probes everything user-facing.
            (E::WEB_STATUS, E::CATALOG_API),
            (E::WEB_STATUS, E::ORDERING_API),
            // Basket checks identity and reads catalog prices.
            (E::BASKET_API, E::IDENTITY_API),
            (E::BASKET_API, E::CATALOG_API),
            // Ordering validates identity, drains the basket, kicks off
            // background grace-period processing and notifies via SignalR.
            (E::ORDERING_API, E::IDENTITY_API),
            (E::ORDERING_API, E::BASKET_API),
            (E::ORDERING_API, E::ORDERING_BACKGROUND),
            (E::ORDERING_API, E::SIGNALR_HUB),
            // Background ordering settles payments.
            (E::ORDERING_BACKGROUND, E::PAYMENT_API),
            // Payment confirmation flows into webhooks.
            (E::PAYMENT_API, E::WEBHOOKS_API),
            // Webhooks verify callers against identity.
            (E::WEBHOOKS_API, E::IDENTITY_API),
            // Locations checks identity too.
            (E::LOCATIONS_API, E::IDENTITY_API),
        ];
        let entries = vec![E::WEB_SHOPPING_AGG, E::MOBILE_SHOPPING_AGG, E::WEB_STATUS];
        DependencyDataset::new(names, edges, entries)
    }
}

/// A small synthetic linear dataset (`m0 → m1 → … → m{n-1}`) for tests.
pub fn linear_dataset(n: usize) -> DependencyDataset {
    const NAMES: [&str; 16] = [
        "s0", "s1", "s2", "s3", "s4", "s5", "s6", "s7", "s8", "s9", "s10", "s11", "s12", "s13",
        "s14", "s15",
    ];
    assert!(n >= 1 && n <= NAMES.len());
    let names = NAMES[..n].to_vec();
    let edges = (0..n.saturating_sub(1) as u32)
        .map(|i| (i, i + 1))
        .collect();
    DependencyDataset::new(names, edges, vec![0])
}

#[cfg(test)]
mod tests {
    use super::*;

    fn rng() -> ChaCha12Rng {
        ChaCha12Rng::seed_from_u64(7)
    }

    #[test]
    fn eshop_is_a_valid_dag() {
        let ds = EshopDataset::build();
        assert_eq!(ds.len(), 12);
        // Aggregator fans out to four+ services.
        assert!(ds.successors(EshopDataset::WEB_SHOPPING_AGG).len() >= 4);
        // Identity is a sink.
        assert!(ds.successors(EshopDataset::IDENTITY_API).is_empty());
    }

    #[test]
    #[should_panic(expected = "cycle")]
    fn cycles_rejected() {
        DependencyDataset::new(vec!["a", "b"], vec![(0, 1), (1, 0)], vec![0]);
    }

    #[test]
    #[should_panic(expected = "self-dependency")]
    fn self_edges_rejected() {
        DependencyDataset::new(vec!["a"], vec![(0, 0)], vec![0]);
    }

    #[test]
    fn chains_are_paths_in_the_dag() {
        let ds = EshopDataset::build();
        let mut rng = rng();
        for _ in 0..200 {
            let chain = ds.sample_chain(&mut rng, 2, 8);
            assert!(!chain.is_empty());
            assert!(chain.len() <= 8);
            for w in chain.windows(2) {
                assert!(
                    ds.successors(w[0].0).contains(&w[1].0),
                    "{:?} not an edge",
                    w
                );
            }
            // No duplicates.
            let mut s = chain.clone();
            s.sort();
            s.dedup();
            assert_eq!(s.len(), chain.len());
        }
    }

    #[test]
    fn chains_can_reach_depth_five() {
        // agg → ordering → ordering-background → payment → webhooks → identity
        let ds = EshopDataset::build();
        let mut rng = rng();
        let mut max = 0;
        for _ in 0..500 {
            max = max.max(ds.sample_chain(&mut rng, 4, 8).len());
        }
        assert!(max >= 5, "never sampled a deep chain (max={max})");
    }

    #[test]
    fn catalog_parameters_in_paper_ranges() {
        let ds = EshopDataset::build();
        let cat = ds.catalog(&mut rng());
        assert_eq!(cat.len(), 12);
        for m in cat.ids() {
            assert!((1.0..=3.0).contains(&cat.compute_gflop(m)));
            assert!((200.0..=500.0).contains(&cat.deploy_cost(m)));
            assert!((1.0..=2.0).contains(&cat.storage(m)));
        }
        assert_eq!(cat.get(ServiceId(4)).name, "catalog-api");
    }

    #[test]
    fn sampled_requests_are_well_formed() {
        let ds = EshopDataset::build();
        let cfg = RequestConfig::default();
        let reqs = ds.sample_requests(&mut rng(), 50, 10, &cfg);
        assert_eq!(reqs.len(), 50);
        for (h, r) in reqs.iter().enumerate() {
            assert_eq!(r.id, UserId(h as u32));
            assert!(r.location.0 < 10);
            assert!(!r.chain.is_empty());
            for &d in &r.edge_data {
                assert!((cfg.edge_data.0..=cfg.edge_data.1).contains(&d));
            }
        }
    }

    #[test]
    fn request_sampling_is_deterministic() {
        let ds = EshopDataset::build();
        let cfg = RequestConfig::default();
        let a = ds.sample_requests(&mut ChaCha12Rng::seed_from_u64(3), 20, 5, &cfg);
        let b = ds.sample_requests(&mut ChaCha12Rng::seed_from_u64(3), 20, 5, &cfg);
        assert_eq!(a, b);
    }

    #[test]
    fn linear_dataset_chains_are_prefix_paths() {
        let ds = linear_dataset(5);
        let mut rng = rng();
        let chain = ds.sample_chain(&mut rng, 5, 5);
        assert_eq!(
            chain,
            (0..5).map(ServiceId).collect::<Vec<_>>(),
            "linear walk must follow the line"
        );
    }
}
