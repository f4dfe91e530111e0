//! Stage 1 — region-based initial partitioning (Algorithm 1).
//!
//! For every requested microservice `m_i`:
//!
//! 1. collect `V(m_i)`, the nodes hosting user requests for `m_i`,
//! 2. reconnect them into the virtual graph `G′(m_i)` whose links carry the
//!    harmonic channel speed `𝔹(l′)` of the underlying min-hop paths,
//! 3. keep virtual links with `𝔹 > ξ` and take connected components as the
//!    initial partitions `𝒫(m_i) = {p_s(m_i)}`,
//! 4. admit *candidate nodes* `v_η ∉ V(m_i)` into a partition when the
//!    Theorem 1 degree filter holds (`H(v_η) > 2`) and the proactive factor
//!    is negative (Definition 5/6): serving the partition's demand from
//!    `v_η` would be strictly faster than from the best in-partition host.
//!    In-partition alternatives `v_a` are checked in ascending order of
//!    communication intensity `χ(v_a)` with early termination, exactly as
//!    lines 8–14 of Algorithm 1 prescribe.

use crate::config::SoclConfig;
use socl_model::{Scenario, ServiceId};
use socl_net::{communication_intensity, NodeId, Partition, VgCache, VirtualGraph};
use std::sync::Arc;

/// The output of stage 1: partitions per requested service.
#[derive(Debug, Clone)]
pub struct ServicePartitions {
    /// `(service, partitions)`; each partition lists its member nodes
    /// (request-hosting nodes first, admitted candidates appended).
    pub per_service: Vec<(ServiceId, Vec<Partition>)>,
    /// Total number of candidate-node admissions across services.
    pub candidates_added: usize,
}

impl ServicePartitions {
    /// Partitions of `service`, if it was requested.
    pub fn partitions_of(&self, service: ServiceId) -> Option<&[Partition]> {
        self.per_service
            .iter()
            .find(|(s, _)| *s == service)
            .map(|(_, p)| p.as_slice())
    }

    /// Index of the partition of `service` containing `node`.
    pub fn group_of(&self, service: ServiceId, node: NodeId) -> Option<usize> {
        self.partitions_of(service)?
            .iter()
            .position(|p| p.contains(&node))
    }

    /// All requested services covered by this partitioning.
    pub fn services(&self) -> impl Iterator<Item = ServiceId> + '_ {
        self.per_service.iter().map(|(s, _)| *s)
    }
}

/// Per-partition candidate admission (lines 8–14 of Algorithm 1).
///
/// `demand_nodes` are partition members with positive demand `r_i`;
/// `chi_order` lists them in ascending communication intensity.
fn admit_candidates(
    sc: &Scenario,
    service: ServiceId,
    partition: &mut Partition,
    outside: &[NodeId],
    chi: &[f64],
    candidate_filter: bool,
) -> usize {
    // Demand weights r_i within this partition.
    let demand: Vec<(NodeId, f64)> = partition
        .iter()
        .map(|&v| (v, sc.demand(service, v) as f64))
        .filter(|&(_, r)| r > 0.0)
        .collect();
    if demand.is_empty() {
        return 0;
    }

    // In-partition alternatives ordered by ascending χ (line 12).
    let mut alternatives: Vec<NodeId> = demand.iter().map(|&(v, _)| v).collect();
    alternatives.sort_by(|&a, &b| chi[a.idx()].total_cmp(&chi[b.idx()]).then(a.cmp(&b)));

    // Total remote-access delay if the instance lives on `host`.
    // A node serving itself contributes zero (requests are local).
    let total_delay = |host: NodeId| -> f64 {
        demand
            .iter()
            .filter(|&&(v, _)| v != host)
            .map(|&(v, r)| {
                let speed = sc.ap.virtual_speed(v, host);
                if speed.is_finite() && speed > 0.0 {
                    r / speed
                } else {
                    f64::INFINITY
                }
            })
            .sum()
    };

    let mut added = 0;
    for &eta in outside {
        // Theorem 1: candidates need degree > 2.
        if candidate_filter && sc.net.degree(eta) <= 2 {
            continue;
        }
        let term1 = total_delay(eta);
        if !term1.is_finite() {
            continue;
        }
        // Check Δ = term1 − term2 against alternatives in ascending χ,
        // stopping at the first success (lines 11–14).
        let qualifies = alternatives.iter().any(|&a| term1 - total_delay(a) < 0.0);
        if qualifies {
            partition.push(eta);
            added += 1;
        }
    }
    added
}

/// Run Algorithm 1 for every requested service.
pub fn initial_partition(sc: &Scenario, cfg: &SoclConfig) -> ServicePartitions {
    initial_partition_cached(sc, cfg, &mut VgCache::new())
}

/// [`initial_partition`] with a caller-owned virtual-graph memo.
///
/// The virtual graph `G′(m_i)` depends only on the substrate and the hosting
/// set `V(m_i)`, so services sharing a hosting set — and, across slots, any
/// service whose hosting set and topology did not change — share one build.
/// The memo is keyed by [`EdgeNetwork::fingerprint`](socl_net::EdgeNetwork::fingerprint),
/// so a topology change (crash, degradation, repair) invalidates it wholesale.
pub fn initial_partition_cached(
    sc: &Scenario,
    cfg: &SoclConfig,
    vg_cache: &mut VgCache,
) -> ServicePartitions {
    cfg.validate();
    let services = sc.requested_services();
    // Communication intensity χ per node, shared across services.
    let chi: Vec<f64> = sc
        .net
        .node_ids()
        .map(|k| communication_intensity(&sc.ap, k))
        .collect();

    // Resolve every service's virtual graph up front, through the memo.
    let generation = sc.net.fingerprint();
    let prepared: Vec<(ServiceId, Vec<NodeId>, Arc<VirtualGraph>)> = services
        .iter()
        .map(|&service| {
            let hosts = sc.request_nodes(service);
            let vg = vg_cache.get(generation, &hosts, &sc.ap);
            (service, hosts, vg)
        })
        .collect();

    type Prepared = (ServiceId, Vec<NodeId>, Arc<VirtualGraph>);
    let run_one = |(service, hosts, vg): &Prepared| -> (ServiceId, Vec<Partition>, usize) {
        let mut partitions = vg.partition(cfg.xi);
        let outside: Vec<NodeId> = sc.net.node_ids().filter(|k| !hosts.contains(k)).collect();
        let mut added = 0;
        for p in &mut partitions {
            added += admit_candidates(sc, *service, p, &outside, &chi, cfg.candidate_filter);
        }
        (*service, partitions, added)
    };

    // Services are independent; fan out over the thread pool when worth a
    // spawn: per service, one O(|U|) demand scan per partition
    // member plus the candidate × alternative delay sums, both bounded by
    // |V|. par_map reassembles in service order, so output is identical to
    // serial.
    let unit = sc.nodes() * (sc.users() + sc.nodes());
    let results: Vec<(ServiceId, Vec<Partition>, usize)> =
        if socl_net::parallel_worthwhile(prepared.len(), unit) {
            socl_net::par::par_map(&prepared, run_one)
        } else {
            prepared.iter().map(run_one).collect()
        };

    let candidates_added = results.iter().map(|(_, _, a)| a).sum();
    ServicePartitions {
        per_service: results.into_iter().map(|(s, p, _)| (s, p)).collect(),
        candidates_added,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use socl_model::ScenarioConfig;

    fn scenario(seed: u64) -> Scenario {
        ScenarioConfig::paper(12, 40).build(seed)
    }

    #[test]
    fn partitions_cover_request_nodes() {
        let sc = scenario(1);
        let parts = initial_partition(&sc, &SoclConfig::default());
        for (service, partitions) in &parts.per_service {
            let hosts = sc.request_nodes(*service);
            // Every request-hosting node appears in exactly one partition.
            for &h in &hosts {
                let count = partitions.iter().filter(|p| p.contains(&h)).count();
                assert_eq!(count, 1, "{service}: host {h} in {count} partitions");
            }
        }
    }

    #[test]
    fn candidates_have_sufficient_degree_and_no_demand() {
        let sc = scenario(2);
        let parts = initial_partition(&sc, &SoclConfig::default());
        for (service, partitions) in &parts.per_service {
            let hosts = sc.request_nodes(*service);
            for p in partitions {
                for &v in p {
                    if !hosts.contains(&v) {
                        // Candidate node: Theorem 1 filter enforced.
                        assert!(sc.net.degree(v) > 2, "{service}: candidate {v} degree ≤ 2");
                        assert_eq!(sc.demand(*service, v), 0);
                    }
                }
            }
        }
    }

    #[test]
    fn disabling_filter_is_a_superset_relaxation() {
        let sc = scenario(3);
        let with = initial_partition(&sc, &SoclConfig::default());
        let without = initial_partition(
            &sc,
            &SoclConfig {
                candidate_filter: false,
                ..SoclConfig::default()
            },
        );
        // Without the degree filter, at least as many candidates qualify.
        assert!(without.candidates_added >= with.candidates_added);
    }

    /// Empirical support for Theorem 1: on the paper's clustered topologies,
    /// disabling the degree filter admits *no additional* candidates — every
    /// node with `H(v) ≤ 2` also fails the `Δ < 0` proactive test, exactly
    /// as the theorem argues. The filter is therefore purely a computation
    /// saver, not a quality knob.
    #[test]
    fn theorem_1_degree_filter_is_output_neutral() {
        for seed in [3, 11, 27] {
            let sc = ScenarioConfig::paper(20, 30).build(seed);
            let with = initial_partition(&sc, &SoclConfig::default());
            let without = initial_partition(
                &sc,
                &SoclConfig {
                    candidate_filter: false,
                    ..SoclConfig::default()
                },
            );
            assert_eq!(
                with.per_service, without.per_service,
                "seed {seed}: filter changed admitted candidates — Theorem 1 violated?"
            );
        }
    }

    #[test]
    fn higher_xi_fragments_partitions() {
        let sc = scenario(4);
        let coarse = initial_partition(
            &sc,
            &SoclConfig {
                xi: 0.1,
                ..SoclConfig::default()
            },
        );
        let fine = initial_partition(
            &sc,
            &SoclConfig {
                xi: 50.0,
                ..SoclConfig::default()
            },
        );
        let count =
            |p: &ServicePartitions| -> usize { p.per_service.iter().map(|(_, ps)| ps.len()).sum() };
        assert!(count(&fine) >= count(&coarse));
    }

    #[test]
    fn parallel_and_serial_agree() {
        let sc = scenario(5);
        let serial = crate::at_threads(1, || initial_partition(&sc, &SoclConfig::default()));
        let parallel = crate::at_threads(4, || initial_partition(&sc, &SoclConfig::default()));
        assert_eq!(serial.candidates_added, parallel.candidates_added);
        assert_eq!(serial.per_service.len(), parallel.per_service.len());
        for ((s1, p1), (s2, p2)) in serial.per_service.iter().zip(&parallel.per_service) {
            assert_eq!(s1, s2);
            assert_eq!(p1, p2);
        }
    }

    #[test]
    fn group_lookup_is_consistent() {
        let sc = scenario(6);
        let parts = initial_partition(&sc, &SoclConfig::default());
        for (service, partitions) in &parts.per_service {
            for (idx, p) in partitions.iter().enumerate() {
                for &v in p {
                    assert_eq!(parts.group_of(*service, v), Some(idx));
                }
            }
        }
        assert_eq!(parts.group_of(ServiceId(0), NodeId(999)), None);
    }

    #[test]
    fn vg_memo_is_transparent_and_reused_across_calls() {
        let sc = scenario(8);
        let cold = initial_partition(&sc, &SoclConfig::default());
        let mut cache = VgCache::new();
        let first = initial_partition_cached(&sc, &SoclConfig::default(), &mut cache);
        let builds = cache.misses();
        assert!(builds > 0);
        let second = initial_partition_cached(&sc, &SoclConfig::default(), &mut cache);
        // Unchanged topology and hosting sets: the second call builds nothing.
        assert_eq!(cache.misses(), builds, "memo missed on identical input");
        assert!(cache.hits() >= builds);
        // The memo never changes the output.
        assert_eq!(cold.per_service, first.per_service);
        assert_eq!(first.per_service, second.per_service);
    }

    #[test]
    fn only_requested_services_are_partitioned() {
        let sc = scenario(7);
        let parts = initial_partition(&sc, &SoclConfig::default());
        let requested = sc.requested_services();
        let covered: Vec<ServiceId> = parts.services().collect();
        assert_eq!(covered, requested);
    }
}
