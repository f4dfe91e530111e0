//! Microservices `M = {m_i}` and the service catalog.

/// Dense identifier of a microservice (`m_i` in the paper).
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
#[allow(clippy::disallowed_methods, reason = "derived over integer fields")]
pub struct ServiceId(pub u32);

impl ServiceId {
    /// Index into per-service vectors.
    #[inline]
    pub fn idx(self) -> usize {
        self.0 as usize
    }
}

impl std::fmt::Display for ServiceId {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "m{}", self.0)
    }
}

/// One microservice `m_i`.
#[derive(Debug, Clone, PartialEq)]
pub struct Microservice {
    /// Human-readable name (from the dataset; synthetic services get `m<i>`).
    pub name: String,
    /// Per-instance deployment cost `κ(m_i)` (abstract cost units).
    pub deploy_cost: f64,
    /// Storage footprint `φ(m_i)` (storage units, counted against `Φ(v_k)`).
    pub storage: f64,
    /// Compute requirement `q(m_i)` in GFLOP per invocation
    /// (paper: sampled from [1, 3] GFLOPs).
    pub compute_gflop: f64,
}

impl Microservice {
    /// Anonymous microservice with the given parameters.
    pub fn new(deploy_cost: f64, storage: f64, compute_gflop: f64) -> Self {
        Self {
            name: String::new(),
            deploy_cost,
            storage,
            compute_gflop,
        }
    }

    /// Same, with a name.
    pub fn named(
        name: impl Into<String>,
        deploy_cost: f64,
        storage: f64,
        compute_gflop: f64,
    ) -> Self {
        Self {
            name: name.into(),
            deploy_cost,
            storage,
            compute_gflop,
        }
    }
}

/// The set `M` of all microservices in a scenario.
#[derive(Debug, Clone, Default)]
pub struct ServiceCatalog {
    services: Vec<Microservice>,
}

impl ServiceCatalog {
    /// Empty catalog.
    pub fn new() -> Self {
        Self::default()
    }

    /// Catalog from a pre-built list.
    pub fn from_services(services: Vec<Microservice>) -> Self {
        Self { services }
    }

    /// Add a microservice, returning its id.
    pub fn push(&mut self, service: Microservice) -> ServiceId {
        let id = ServiceId(self.services.len() as u32);
        self.services.push(service);
        id
    }

    /// Number of microservices `|M|`.
    #[inline]
    pub fn len(&self) -> usize {
        self.services.len()
    }

    /// True when the catalog is empty.
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.services.is_empty()
    }

    /// Iterator over all service ids.
    pub fn ids(&self) -> impl Iterator<Item = ServiceId> + '_ {
        (0..self.services.len() as u32).map(ServiceId)
    }

    /// The record for `m`.
    #[inline]
    pub fn get(&self, m: ServiceId) -> &Microservice {
        &self.services[m.idx()]
    }

    /// Deployment cost `κ(m_i)`.
    #[inline]
    pub fn deploy_cost(&self, m: ServiceId) -> f64 {
        self.services[m.idx()].deploy_cost
    }

    /// Storage footprint `φ(m_i)`.
    #[inline]
    pub fn storage(&self, m: ServiceId) -> f64 {
        self.services[m.idx()].storage
    }

    /// Compute requirement `q(m_i)` (GFLOP).
    #[inline]
    pub fn compute_gflop(&self, m: ServiceId) -> f64 {
        self.services[m.idx()].compute_gflop
    }

    /// Sum of `κ(m_j)` over all services except `m` — the paper's
    /// `Σ_{m_j ∈ M \ {m_i}} κ(m_j)` used by the budget bound `𝒦^u(m_i)`.
    pub fn cost_of_others(&self, m: ServiceId) -> f64 {
        self.services
            .iter()
            .enumerate()
            .filter(|(j, _)| *j != m.idx())
            .map(|(_, s)| s.deploy_cost)
            .sum()
    }

    /// Total cost of one instance of every service.
    pub fn total_single_cost(&self) -> f64 {
        self.services.iter().map(|s| s.deploy_cost).sum()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn catalog3() -> ServiceCatalog {
        ServiceCatalog::from_services(vec![
            Microservice::named("a", 100.0, 1.0, 2.0),
            Microservice::named("b", 200.0, 1.5, 1.0),
            Microservice::named("c", 300.0, 2.0, 3.0),
        ])
    }

    #[test]
    fn push_assigns_sequential_ids() {
        let mut cat = ServiceCatalog::new();
        assert_eq!(cat.push(Microservice::new(1.0, 1.0, 1.0)), ServiceId(0));
        assert_eq!(cat.push(Microservice::new(1.0, 1.0, 1.0)), ServiceId(1));
        assert_eq!(cat.len(), 2);
    }

    #[test]
    fn accessors_return_fields() {
        let cat = catalog3();
        assert_eq!(cat.deploy_cost(ServiceId(1)), 200.0);
        assert_eq!(cat.storage(ServiceId(2)), 2.0);
        assert_eq!(cat.compute_gflop(ServiceId(0)), 2.0);
        assert_eq!(cat.get(ServiceId(0)).name, "a");
    }

    #[test]
    fn cost_of_others_excludes_self() {
        let cat = catalog3();
        assert_eq!(cat.cost_of_others(ServiceId(0)), 500.0);
        assert_eq!(cat.cost_of_others(ServiceId(2)), 300.0);
        assert_eq!(cat.total_single_cost(), 600.0);
    }

    #[test]
    fn ids_iterate_in_order() {
        let cat = catalog3();
        let ids: Vec<ServiceId> = cat.ids().collect();
        assert_eq!(ids, vec![ServiceId(0), ServiceId(1), ServiceId(2)]);
    }
}
