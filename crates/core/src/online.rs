//! Online re-provisioning with warm starts and churn accounting.
//!
//! The paper's SoCL is time-slotted: each slot re-solves on the observed
//! state. Solving from scratch every slot is wasteful *and* operationally
//! expensive — every instance that moves between slots is a container to
//! tear down and cold-start elsewhere (the serverless cost the paper's
//! "flexible storage planning … more warm instances in the nearby area"
//! feature targets). This module adds:
//!
//! * [`placement_churn`] — the number of per-(service, node) changes
//!   between two placements (adds + removals),
//! * [`WarmStartSolver`] — re-provision with the previous slot's placement
//!   as the stage-2 starting point: the previous deployment (pruned to the
//!   current scenario's feasibility) is unioned with the fresh
//!   pre-provisioning, then stage 3 combines as usual and an explicit
//!   churn-penalized relocation acceptance keeps instances where they are
//!   unless moving pays for more than `churn_cost` objective units,
//! * [`repair_placement`] — *failure-triggered* repair: when nodes die
//!   mid-slot, prune the instances they hosted and greedily re-provision
//!   only the affected services on alive nodes. Orders of magnitude cheaper
//!   than a full re-solve, because the untouched services keep their warm
//!   instances (zero churn outside the blast radius).

use crate::config::SoclConfig;
use crate::pipeline::{SoclResult, SoclSolver};
use socl_model::{evaluate, Placement, ReplicaCounts, Scenario, ServiceId};
use socl_net::{NodeId, VgCache};

/// Number of (service, node) cells that differ between two placements.
///
/// # Panics
/// Panics when the shapes differ.
pub fn placement_churn(a: &Placement, b: &Placement) -> usize {
    assert_eq!(a.services(), b.services(), "shape mismatch");
    assert_eq!(a.nodes(), b.nodes(), "shape mismatch");
    let mut churn = 0;
    for i in 0..a.services() {
        for k in 0..a.nodes() {
            let (m, n) = (ServiceId(i as u32), NodeId(k as u32));
            if a.get(m, n) != b.get(m, n) {
                churn += 1;
            }
        }
    }
    churn
}

/// Result of a failure-triggered repair pass.
#[derive(Debug, Clone)]
pub struct RepairReport {
    /// The repaired placement.
    pub placement: Placement,
    /// Instances pruned from dead (storage-infeasible) nodes.
    pub pruned: usize,
    /// Requested services that lost at least one instance.
    pub repaired_services: Vec<ServiceId>,
    /// Replicas added back on alive nodes.
    pub replicas_added: usize,
    /// Total cell churn vs the broken placement (prunes + adds).
    pub churn: usize,
}

impl RepairReport {
    /// True when nothing was broken and nothing changed.
    pub fn is_noop(&self) -> bool {
        self.churn == 0
    }
}

/// Failure-triggered repair: prune instances stranded on dead nodes, then
/// greedily re-provision *only the affected services* on alive nodes.
///
/// A node counts as dead when its instances no longer fit its storage —
/// the online simulator models a crash by zeroing the victim's storage, so
/// every hosted instance becomes infeasible at once. For each requested
/// service that lost an instance, replicas are added back one at a time on
/// the alive node that minimizes the evaluated objective, until no addition
/// improves it (cloud fallbacks are charged `cloud_penalty`, so restoring
/// lost coverage always pays first). Services outside the blast radius are
/// never touched, which is what keeps repair cheap and churn low.
pub fn repair_placement(scenario: &Scenario, broken: &Placement) -> RepairReport {
    let mut placement = broken.clone();

    // 1. Prune: drop every instance on a node whose deployment no longer
    //    fits (the node died or shrank under its load).
    let mut pruned = 0usize;
    let mut affected: Vec<ServiceId> = Vec::new();
    for k in scenario.net.node_ids() {
        let used = placement.storage_used(&scenario.catalog, k);
        if used <= scenario.net.storage(k) + 1e-9 {
            continue;
        }
        for i in 0..placement.services() {
            let m = ServiceId(i as u32);
            if placement.get(m, k) {
                placement.set(m, k, false);
                pruned += 1;
                if !affected.contains(&m) {
                    affected.push(m);
                }
            }
        }
    }

    // Only requested services are worth re-provisioning.
    let requested = scenario.requested_services();
    affected.retain(|m| requested.contains(m));
    affected.sort_by_key(|m| m.0);

    // 2. Re-provision the blast radius: per affected service, add replicas
    //    greedily while they improve the objective.
    let mut replicas_added = 0usize;
    if !affected.is_empty() {
        // 2a. Coverage first: a chain falls back to the cloud when *any*
        //     stage is missing, so a lone replica of one stranded service
        //     may show no objective gain until its chain-mates are also
        //     restored. Give every stranded service its best feasible
        //     replica unconditionally before gating on improvement.
        for &m in &affected {
            if placement.instance_count(m) > 0 {
                continue;
            }
            let mut winner: Option<(f64, NodeId)> = None;
            for k in scenario.net.node_ids() {
                if !placement.fits(&scenario.catalog, &scenario.net, m, k) {
                    continue;
                }
                placement.set(m, k, true);
                let obj = evaluate(scenario, &placement).objective;
                placement.set(m, k, false);
                let better = match winner {
                    None => true,
                    Some((w, _)) => obj < w - 1e-12,
                };
                if better {
                    winner = Some((obj, k));
                }
            }
            if let Some((_, k)) = winner {
                placement.set(m, k, true);
                replicas_added += 1;
            }
        }
        // 2b. Then add further replicas wherever they keep improving.
        let mut best = evaluate(scenario, &placement).objective;
        for &m in &affected {
            loop {
                let mut winner: Option<(f64, NodeId)> = None;
                for k in scenario.net.node_ids() {
                    if placement.get(m, k)
                        || !placement.fits(&scenario.catalog, &scenario.net, m, k)
                    {
                        continue;
                    }
                    placement.set(m, k, true);
                    let obj = evaluate(scenario, &placement).objective;
                    placement.set(m, k, false);
                    let better = match winner {
                        None => obj < best - 1e-9,
                        Some((w, _)) => obj < w - 1e-12,
                    };
                    if better {
                        winner = Some((obj, k));
                    }
                }
                match winner {
                    Some((obj, k)) => {
                        placement.set(m, k, true);
                        best = obj;
                        replicas_added += 1;
                    }
                    None => break,
                }
            }
        }
    }

    let churn = placement_churn(broken, &placement);
    RepairReport {
        placement,
        pruned,
        repaired_services: affected,
        replicas_added,
        churn,
    }
}

/// Result of a replica-aware repair pass: the usual [`RepairReport`] plus
/// the warm-replica bookkeeping the serverless control plane needs.
#[derive(Debug, Clone)]
pub struct ReplicaRepairReport {
    /// The underlying placement repair.
    pub report: RepairReport,
    /// Replica counts rewritten for the repaired placement: surviving cells
    /// keep their warm pools, stranded pools are re-homed, and every cell
    /// the repair pass added holds at least one replica.
    pub counts: ReplicaCounts,
    /// Stranded replicas that could be re-homed on surviving hosts.
    pub replicas_transferred: u32,
    /// Stranded replicas for which no surviving host had storage headroom.
    pub replicas_lost: u32,
}

/// How many container images of a service sized `phi` fit node `k`'s
/// storage; a deployed host can always hold one.
fn storage_fit(scenario: &Scenario, k: NodeId, phi: f64) -> u32 {
    if phi <= 0.0 {
        return u32::MAX;
    }
    let fit = (scenario.net.storage(k) / phi).floor();
    if fit >= u32::MAX as f64 {
        u32::MAX
    } else {
        (fit as u32).max(1)
    }
}

/// Failure-triggered repair that preserves the autoscaler's warm-replica
/// pools: [`repair_placement`] fixes the placement, then the stranded
/// cells' replica counts are re-homed onto the surviving hosts instead of
/// being reset to one-per-cell. Re-homing water-fills in node-id order
/// (deterministic), each cell bounded by how many container images fit the
/// node's storage (constraint (6)); replicas that fit nowhere are lost and
/// reported. After the pass, `counts` is consistent with the repaired
/// placement, and every cell repair added holds at least one warm replica
/// (cells the keep-alive policy had scaled to zero stay at zero).
///
/// # Panics
/// Panics when `counts` and `broken` have different shapes.
pub fn repair_with_replicas(
    scenario: &Scenario,
    broken: &Placement,
    counts: &ReplicaCounts,
) -> ReplicaRepairReport {
    assert_eq!(counts.services(), broken.services(), "shape mismatch");
    assert_eq!(counts.nodes(), broken.nodes(), "shape mismatch");
    let report = repair_placement(scenario, broken);
    let repaired = &report.placement;

    let mut new_counts = ReplicaCounts::zero(broken.services(), broken.nodes());
    let mut transferred = 0u32;
    let mut lost = 0u32;
    for i in 0..broken.services() {
        let m = ServiceId(i as u32);
        // Surviving cells keep their pools; pools on pruned cells strand.
        let mut stranded = 0u32;
        for k in scenario.net.node_ids() {
            let c = counts.get(m, k);
            if repaired.get(m, k) {
                new_counts.set(m, k, c);
            } else {
                stranded = stranded.saturating_add(c);
            }
        }
        // Re-home stranded replicas across the surviving hosts, one per
        // host per round in node-id order, bounded by storage fit.
        let hosts = repaired.hosts_of(m);
        let phi = scenario.catalog.storage(m);
        let mut remaining = stranded;
        while remaining > 0 {
            let mut progressed = false;
            for &k in &hosts {
                if remaining == 0 {
                    break;
                }
                let c = new_counts.get(m, k);
                if c < storage_fit(scenario, k, phi) {
                    new_counts.set(m, k, c + 1);
                    remaining -= 1;
                    transferred += 1;
                    progressed = true;
                }
            }
            if !progressed {
                break;
            }
        }
        lost = lost.saturating_add(remaining);
        // Cells repair just added must be warm for the restored coverage to
        // be real; surviving cells the keep-alive policy scaled to zero
        // stay at zero (boot-on-demand owns that case).
        for &k in &hosts {
            if new_counts.get(m, k) == 0 && !broken.get(m, k) {
                new_counts.set(m, k, 1);
            }
        }
    }
    ReplicaRepairReport {
        report,
        counts: new_counts,
        replicas_transferred: transferred,
        replicas_lost: lost,
    }
}

/// Union the scaler-owned warm cells into a freshly solved placement: a
/// cell that still holds warm replicas survives a policy re-solve that
/// dropped it (tearing down a warm pool is exactly the serverless cost the
/// keep-alive policy paid to avoid). Cells that no longer fit their node's
/// storage — e.g. the node died — are instead zeroed in `counts`. Returns
/// the number of cells re-added; afterwards `counts` is consistent with
/// `placement`.
pub fn merge_scaler_owned(
    scenario: &Scenario,
    placement: &mut Placement,
    counts: &mut ReplicaCounts,
) -> usize {
    let warm: Vec<(ServiceId, NodeId)> = counts.iter_positive().map(|(m, k, _)| (m, k)).collect();
    let mut merged = 0usize;
    for (m, k) in warm {
        if placement.get(m, k) {
            continue;
        }
        if placement.fits(&scenario.catalog, &scenario.net, m, k) {
            placement.set(m, k, true);
            merged += 1;
        } else {
            counts.set(m, k, 0);
        }
    }
    merged
}

/// A slot-to-slot solver that remembers the previous placement and memoizes
/// virtual-graph builds across slots (the memo self-invalidates when the
/// substrate fingerprint changes, so crashes and degradations stay correct).
#[derive(Debug, Clone)]
pub struct WarmStartSolver {
    /// SoCL configuration used for each slot.
    pub config: SoclConfig,
    previous: Option<Placement>,
    vg_cache: VgCache,
}

/// Result of one warm slot: the SoCL result plus churn relative to the
/// previous slot's placement.
#[derive(Debug, Clone)]
pub struct WarmSlotResult {
    pub result: SoclResult,
    /// Instance churn vs the previous slot (0 for the first slot).
    pub churn: usize,
}

impl WarmStartSolver {
    /// Fresh solver with the given configuration.
    pub fn new(config: SoclConfig) -> Self {
        config.validate();
        Self {
            config,
            previous: None,
            vg_cache: VgCache::new(),
        }
    }

    /// Discard the remembered placement (e.g. after a topology change).
    /// The virtual-graph memo is generation-keyed and needs no flush.
    pub fn reset(&mut self) {
        self.previous = None;
    }

    /// The cross-slot virtual-graph memo (hit/miss counters for telemetry).
    pub fn vg_cache(&self) -> &VgCache {
        &self.vg_cache
    }

    /// Solve one slot. The previous slot's surviving instances are unioned
    /// into the stage-2 starting placement (storage permitting), so stage 3
    /// prefers combining *fresh* duplicates over tearing down warm
    /// instances; the final churn is reported alongside the result.
    pub fn solve_slot(&mut self, scenario: &Scenario) -> WarmSlotResult {
        let previous = self.previous.take();
        let solver = SoclSolver::with_config(self.config.clone());
        let result = solver.solve_from(scenario, &mut self.vg_cache, |start| {
            // Union the previous placement into the stage-2 start, respecting
            // shape (topology is fixed across slots in the online model) and
            // per-node storage.
            let Some(prev) = previous
                .as_ref()
                .filter(|p| p.services() == start.services() && p.nodes() == start.nodes())
            else {
                return;
            };
            for (m, k) in prev.iter_deployed() {
                if !start.get(m, k) && start.fits(&scenario.catalog, &scenario.net, m, k) {
                    start.set(m, k, true);
                }
            }
        });
        let churn = previous
            .as_ref()
            .map_or(0, |p| placement_churn(p, &result.placement));
        self.previous = Some(result.placement.clone());
        WarmSlotResult { result, churn }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use socl_model::ScenarioConfig;

    fn slot_scenario(seed: u64) -> Scenario {
        ScenarioConfig::paper(10, 40).build(seed)
    }

    #[test]
    fn churn_counts_symmetric_differences() {
        let mut a = Placement::empty(2, 3);
        let mut b = Placement::empty(2, 3);
        assert_eq!(placement_churn(&a, &b), 0);
        a.set(ServiceId(0), NodeId(0), true);
        b.set(ServiceId(1), NodeId(2), true);
        assert_eq!(placement_churn(&a, &b), 2);
        b.set(ServiceId(0), NodeId(0), true);
        assert_eq!(placement_churn(&a, &b), 1);
    }

    #[test]
    #[should_panic(expected = "shape mismatch")]
    fn churn_requires_matching_shapes() {
        placement_churn(&Placement::empty(1, 2), &Placement::empty(2, 2));
    }

    #[test]
    fn first_slot_has_zero_churn() {
        let mut solver = WarmStartSolver::new(SoclConfig::default());
        let out = solver.solve_slot(&slot_scenario(1));
        assert_eq!(out.churn, 0);
        assert_eq!(out.result.evaluation.cloud_fallbacks, 0);
    }

    #[test]
    fn identical_slots_have_zero_warm_churn() {
        let sc = slot_scenario(2);
        let mut solver = WarmStartSolver::new(SoclConfig::default());
        let first = solver.solve_slot(&sc);
        let second = solver.solve_slot(&sc);
        // Same scenario, warm start from its own solution: the combiner
        // starts at (pre ∪ previous) and removes back down; the result must
        // not oscillate.
        assert_eq!(second.churn, 0, "solution oscillated on identical input");
        assert_eq!(
            first.result.placement, second.result.placement,
            "warm start changed the placement on identical input"
        );
    }

    #[test]
    fn warm_start_reduces_churn_between_similar_slots() {
        // Two slots differing only in a few user locations.
        let sc1 = slot_scenario(3);
        let mut sc2 = sc1.clone();
        for r in sc2.requests.iter_mut().take(6) {
            r.location = NodeId((r.location.0 + 1) % 10);
        }

        // Cold: independent solves.
        let cold1 = SoclSolver::with_config(SoclConfig::default())
            .solve(&sc1)
            .placement;
        let cold2 = SoclSolver::with_config(SoclConfig::default())
            .solve(&sc2)
            .placement;
        let cold_churn = placement_churn(&cold1, &cold2);

        // Warm: second slot starts from the first slot's placement.
        let mut solver = WarmStartSolver::new(SoclConfig::default());
        let w1 = solver.solve_slot(&sc1);
        let w2 = solver.solve_slot(&sc2);

        assert!(
            w2.churn <= cold_churn,
            "warm churn {} vs cold churn {cold_churn}",
            w2.churn
        );
        // Quality must not collapse: within 10% of the cold solve.
        let cold_obj = evaluate(&sc2, &cold2).objective;
        assert!(
            w2.result.objective() <= cold_obj * 1.10 + 1e-6,
            "warm {} vs cold {cold_obj}",
            w2.result.objective()
        );
        assert_eq!(w1.churn, 0);
    }

    #[test]
    fn warm_slots_reuse_virtual_graph_builds() {
        let sc = slot_scenario(13);
        let mut solver = WarmStartSolver::new(SoclConfig::default());
        let _ = solver.solve_slot(&sc);
        let builds = solver.vg_cache().misses();
        assert!(builds > 0);
        let _ = solver.solve_slot(&sc);
        // Same topology and hosting sets: the second slot builds no G′.
        assert_eq!(
            solver.vg_cache().misses(),
            builds,
            "warm slot rebuilt virtual graphs"
        );
        assert!(solver.vg_cache().hits() >= builds);
        // A topology change invalidates the memo rather than serving stale
        // graphs: degrade one link and solve again.
        let mut degraded = sc.clone();
        let rate = degraded.net.links()[0].rate();
        degraded.net.override_link_rate(0, rate * 0.25);
        degraded.ap = socl_net::AllPairs::build(&degraded.net);
        let _ = solver.solve_slot(&degraded);
        assert!(
            solver.vg_cache().misses() > builds,
            "memo served stale graphs across a topology change"
        );
    }

    #[test]
    fn reset_forgets_the_previous_placement() {
        let sc = slot_scenario(4);
        let mut solver = WarmStartSolver::new(SoclConfig::default());
        let _ = solver.solve_slot(&sc);
        solver.reset();
        let after_reset = solver.solve_slot(&sc);
        assert_eq!(after_reset.churn, 0, "reset did not clear the memory");
    }

    #[test]
    fn repair_is_a_noop_on_a_healthy_cluster() {
        let sc = slot_scenario(10);
        let placement = SoclSolver::with_config(SoclConfig::default())
            .solve(&sc)
            .placement;
        let report = repair_placement(&sc, &placement);
        assert!(report.is_noop());
        assert_eq!(report.placement, placement);
        assert_eq!(report.pruned, 0);
        assert!(report.repaired_services.is_empty());
    }

    /// Kill `node` the way the online simulator does: zero its storage.
    fn kill_node(sc: &mut Scenario, node: NodeId) {
        sc.net.server_mut(node).storage_units = 0.0;
    }

    /// A node that hosts at least one instance of the placement.
    fn loaded_node(sc: &Scenario, p: &Placement) -> NodeId {
        sc.net
            .node_ids()
            .find(|&k| p.storage_used(&sc.catalog, k) > 0.0)
            .expect("placement deploys nothing")
    }

    #[test]
    fn repair_restores_coverage_after_a_node_death() {
        let mut sc = slot_scenario(11);
        let placement = SoclSolver::with_config(SoclConfig::default())
            .solve(&sc)
            .placement;
        assert_eq!(evaluate(&sc, &placement).cloud_fallbacks, 0);

        let victim = loaded_node(&sc, &placement);
        kill_node(&mut sc, victim);
        let report = repair_placement(&sc, &placement);

        assert!(report.pruned > 0, "the victim hosted instances");
        assert!(!report.repaired_services.is_empty());
        // No instance may remain on the dead node…
        for i in 0..report.placement.services() {
            assert!(!report.placement.get(ServiceId(i as u32), victim));
        }
        // …the repaired placement is feasible and at least as good as the
        // pruned-but-unrepaired one.
        assert!(report.placement.storage_feasible(&sc.catalog, &sc.net));
        let mut pruned_only = placement.clone();
        for i in 0..pruned_only.services() {
            pruned_only.set(ServiceId(i as u32), victim, false);
        }
        let unrepaired = evaluate(&sc, &pruned_only).objective;
        let repaired = evaluate(&sc, &report.placement).objective;
        assert!(
            repaired <= unrepaired + 1e-9,
            "repair made things worse: {repaired} vs {unrepaired}"
        );
        assert_eq!(report.churn, report.pruned + report.replicas_added);
    }

    #[test]
    fn repair_never_touches_unaffected_services() {
        let mut sc = slot_scenario(12);
        let placement = SoclSolver::with_config(SoclConfig::default())
            .solve(&sc)
            .placement;
        let victim = loaded_node(&sc, &placement);
        kill_node(&mut sc, victim);
        let report = repair_placement(&sc, &placement);
        for i in 0..placement.services() {
            let m = ServiceId(i as u32);
            if report.repaired_services.contains(&m) {
                continue;
            }
            for k in 0..placement.nodes() {
                let n = NodeId(k as u32);
                // Unrequested services can still be pruned off dead nodes;
                // everything else must be untouched.
                if n == victim {
                    continue;
                }
                assert_eq!(
                    placement.get(m, n),
                    report.placement.get(m, n),
                    "repair touched unaffected service {m:?} on node {n:?}"
                );
            }
        }
    }

    #[test]
    fn replica_repair_rehomes_stranded_pools() {
        let mut sc = slot_scenario(14);
        let placement = SoclSolver::with_config(SoclConfig::default())
            .solve(&sc)
            .placement;
        // Warm pools: 3 replicas on every deployed cell.
        let mut counts = ReplicaCounts::from_placement(&placement);
        for (m, k) in placement.iter_deployed() {
            counts.set(m, k, 3);
        }
        let victim = loaded_node(&sc, &placement);
        let stranded: u32 = (0..placement.services())
            .map(|i| counts.get(ServiceId(i as u32), victim))
            .sum();
        assert!(stranded > 0);
        kill_node(&mut sc, victim);

        let out = repair_with_replicas(&sc, &placement, &counts);
        // Counts are consistent with the repaired placement and the dead
        // node holds nothing.
        assert!(out.counts.consistent_with(&out.report.placement));
        for i in 0..placement.services() {
            assert_eq!(out.counts.get(ServiceId(i as u32), victim), 0);
        }
        // Every stranded replica is accounted for: re-homed or lost.
        assert_eq!(out.replicas_transferred + out.replicas_lost, stranded);
        // Cells repair added are warm.
        for (m, k) in out.report.placement.iter_deployed() {
            if !placement.get(m, k) {
                assert!(out.counts.get(m, k) >= 1, "repair cell {m:?}@{k:?} cold");
            }
        }
    }

    #[test]
    fn replica_repair_preserves_scaled_to_zero_cells() {
        let mut sc = slot_scenario(15);
        let placement = SoclSolver::with_config(SoclConfig::default())
            .solve(&sc)
            .placement;
        let mut counts = ReplicaCounts::from_placement(&placement);
        // One surviving cell was scaled to zero by keep-alive economics.
        let victim = loaded_node(&sc, &placement);
        let zeroed = placement
            .iter_deployed()
            .find(|&(_, k)| k != victim)
            .expect("placement spans more than the victim");
        counts.set(zeroed.0, zeroed.1, 0);
        kill_node(&mut sc, victim);
        let out = repair_with_replicas(&sc, &placement, &counts);
        if out.report.placement.get(zeroed.0, zeroed.1) && out.replicas_transferred == 0 {
            assert_eq!(
                out.counts.get(zeroed.0, zeroed.1),
                0,
                "repair warmed a cell the scaler had deliberately reclaimed"
            );
        }
    }

    #[test]
    fn merge_keeps_warm_cells_alive_across_a_resolve() {
        let sc = slot_scenario(16);
        let solved = SoclSolver::with_config(SoclConfig::default())
            .solve(&sc)
            .placement;
        let mut counts = ReplicaCounts::from_placement(&solved);
        // The policy re-solve "drops" every cell; the warm pools bring
        // their cells back.
        let mut fresh = Placement::empty(solved.services(), solved.nodes());
        let merged = merge_scaler_owned(&sc, &mut fresh, &mut counts);
        assert_eq!(merged, solved.iter_deployed().count());
        assert_eq!(fresh, solved);
        assert!(counts.consistent_with(&fresh));
    }

    #[test]
    fn merge_zeroes_pools_on_dead_nodes() {
        let mut sc = slot_scenario(17);
        let solved = SoclSolver::with_config(SoclConfig::default())
            .solve(&sc)
            .placement;
        let mut counts = ReplicaCounts::from_placement(&solved);
        let victim = loaded_node(&sc, &solved);
        let warm_on_victim: u32 = (0..solved.services())
            .map(|i| counts.get(ServiceId(i as u32), victim))
            .sum();
        assert!(warm_on_victim > 0);
        kill_node(&mut sc, victim);
        let mut fresh = Placement::empty(solved.services(), solved.nodes());
        merge_scaler_owned(&sc, &mut fresh, &mut counts);
        for i in 0..solved.services() {
            let m = ServiceId(i as u32);
            assert!(!fresh.get(m, victim), "merged a cell onto a dead node");
            assert_eq!(counts.get(m, victim), 0, "warm pool survived node death");
        }
        assert!(counts.consistent_with(&fresh));
    }

    #[test]
    fn warm_solutions_stay_feasible() {
        let mut solver = WarmStartSolver::new(SoclConfig::default());
        for seed in 5..9 {
            let sc = slot_scenario(seed);
            let out = solver.solve_slot(&sc);
            assert!(out.result.placement.storage_feasible(&sc.catalog, &sc.net));
            assert!(out.result.evaluation.cost <= sc.budget + 1e-6);
            assert_eq!(out.result.evaluation.cloud_fallbacks, 0);
        }
    }
}
