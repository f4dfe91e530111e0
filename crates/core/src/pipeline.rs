//! The assembled SoCL pipeline (Figure 5): partition → pre-provision →
//! multi-scale combination, with per-stage wall-clock timings.

use crate::combine::{CombineStats, Combiner};
use crate::config::SoclConfig;
use crate::partition::{initial_partition_cached, ServicePartitions};
use crate::preprovision::{preprovision, PreProvisioning};
use socl_model::{evaluate, Evaluation, Placement, Scenario};
use socl_net::time::Stopwatch;
use socl_net::VgCache;
use std::time::Duration;

/// Wall-clock time spent in each stage.
#[derive(Debug, Clone, Copy, Default)]
pub struct StageTimings {
    pub partition: Duration,
    pub preprovision: Duration,
    pub combine: Duration,
}

impl StageTimings {
    /// End-to-end solve time.
    pub fn total(&self) -> Duration {
        self.partition + self.preprovision + self.combine
    }
}

/// Everything SoCL produces for one scenario.
#[derive(Debug, Clone)]
pub struct SoclResult {
    /// The final deployment decision `x`.
    pub placement: Placement,
    /// Full evaluation (optimal routing, cost, latency, objective).
    pub evaluation: Evaluation,
    /// Stage-1 output (kept for inspection/ablation).
    pub partitions: ServicePartitions,
    /// Stage-2 output.
    pub preprovisioning: PreProvisioning,
    /// Stage-3 statistics.
    pub combine_stats: CombineStats,
    /// Per-stage timings.
    pub timings: StageTimings,
}

impl SoclResult {
    /// The weighted objective `Q` (Eq. 8).
    pub fn objective(&self) -> f64 {
        self.evaluation.objective
    }
}

/// The SoCL solver: a configuration plus `solve`.
///
/// ```
/// use socl_core::{SoclConfig, SoclSolver};
/// use socl_model::ScenarioConfig;
///
/// let scenario = ScenarioConfig::paper(8, 20).build(7);
/// let result = SoclSolver::new().solve(&scenario);
/// assert_eq!(result.evaluation.cloud_fallbacks, 0);
/// assert!(result.evaluation.cost <= scenario.budget);
///
/// // Hyper-parameters are plain fields:
/// let aggressive = SoclSolver::with_config(SoclConfig { omega: 0.5, ..SoclConfig::default() });
/// assert!(aggressive.solve(&scenario).objective() > 0.0);
/// ```
#[derive(Debug, Clone, Default)]
pub struct SoclSolver {
    pub config: SoclConfig,
}

impl SoclSolver {
    /// Solver with the paper's default hyper-parameters.
    pub fn new() -> Self {
        Self::default()
    }

    /// Solver with a custom configuration.
    pub fn with_config(config: SoclConfig) -> Self {
        config.validate();
        Self { config }
    }

    /// Run the three stages on `scenario`.
    pub fn solve(&self, scenario: &Scenario) -> SoclResult {
        self.solve_with_vg_cache(scenario, &mut VgCache::new())
    }

    /// Like [`solve`](Self::solve), but stage 1 resolves virtual graphs
    /// through a caller-owned memo. Callers that solve a sequence of related
    /// scenarios (the online layers) keep one [`VgCache`] alive so slots with
    /// unchanged topology and hosting sets skip the `G′(m_i)` rebuilds.
    pub fn solve_with_vg_cache(&self, scenario: &Scenario, vg_cache: &mut VgCache) -> SoclResult {
        let mut timings = StageTimings::default();

        let t = Stopwatch::start();
        let partitions = initial_partition_cached(scenario, &self.config, vg_cache);
        timings.partition = t.elapsed();

        let t = Stopwatch::start();
        let preprovisioning = preprovision(scenario, &partitions, &self.config);
        timings.preprovision = t.elapsed();

        let t = Stopwatch::start();
        let (placement, combine_stats) = Combiner::new(
            scenario,
            &self.config,
            &partitions,
            preprovisioning.placement.clone(),
        )
        .run();
        timings.combine = t.elapsed();

        let evaluation = evaluate(scenario, &placement);
        SoclResult {
            placement,
            evaluation,
            partitions,
            preprovisioning,
            combine_stats,
            timings,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use socl_model::ScenarioConfig;

    #[test]
    fn pipeline_produces_feasible_solutions() {
        for seed in 0..4 {
            let sc = ScenarioConfig::paper(10, 40).build(seed);
            let res = SoclSolver::new().solve(&sc);
            assert_eq!(res.evaluation.cloud_fallbacks, 0, "seed {seed}");
            assert!(res.placement.storage_feasible(&sc.catalog, &sc.net));
            assert!(
                res.evaluation.cost <= sc.budget + 1e-6,
                "seed {seed}: cost {} > budget {}",
                res.evaluation.cost,
                sc.budget
            );
            assert!(res.objective() > 0.0);
        }
    }

    #[test]
    fn pipeline_is_deterministic() {
        let sc = ScenarioConfig::paper(10, 50).build(7);
        let a = SoclSolver::new().solve(&sc);
        let b = SoclSolver::new().solve(&sc);
        assert_eq!(a.placement, b.placement);
        assert_eq!(a.objective(), b.objective());
    }

    #[test]
    fn timings_are_recorded() {
        let sc = ScenarioConfig::paper(10, 40).build(1);
        let res = SoclSolver::new().solve(&sc);
        assert!(res.timings.total() > Duration::ZERO);
        assert_eq!(
            res.timings.total(),
            res.timings.partition + res.timings.preprovision + res.timings.combine
        );
    }

    /// Which side the routing fan-out of `evaluate` and `route_all` takes at
    /// the benchmark's sizes. SoCL hosts each service once there, so it stays
    /// serial at the `SoclServe` epochs (48 and 24 nodes, a 48-user sample),
    /// `solve-metro`'s 16 × 96 and `online-churn`'s 24 × 40, where one
    /// dispatch costs several times the routing. It opens at 100 × 2000 and
    /// on GC-OG's demand-saturated start at Fig. 8's 30 × 600.
    #[test]
    fn routing_gate_at_benchmark_sizes() {
        struct ResetThreads;
        impl Drop for ResetThreads {
            fn drop(&mut self) {
                socl_net::set_threads(0);
            }
        }
        socl_net::set_threads(4);
        let _reset = ResetThreads;
        let fans_out = |sc: &Scenario, placement: &Placement| {
            socl_model::route_threads(&sc.requests, placement) > 1
        };
        for (nodes, users, opens) in [
            (48, 48, false),
            (24, 48, false),
            (16, 96, false),
            (24, 40, false),
            (100, 2000, true),
        ] {
            let sc = ScenarioConfig::paper(nodes, users).build(17);
            let placement = SoclSolver::new().solve(&sc).placement;
            assert_eq!(fans_out(&sc, &placement), opens, "{nodes} x {users}");
        }
        let sc = ScenarioConfig::paper(30, 600).build(17);
        let mut saturated = Placement::empty(sc.services(), sc.nodes());
        for m in sc.requested_services() {
            for k in sc.request_nodes(m) {
                let free = sc.net.storage(k) - saturated.storage_used(&sc.catalog, k);
                if free >= sc.catalog.storage(m) - 1e-9 {
                    saturated.set(m, k, true);
                }
            }
        }
        assert!(fans_out(&sc, &saturated));
    }

    #[test]
    fn scales_to_larger_instances_quickly() {
        // 200 users / 10 nodes — the paper's largest Figure 8 scale — must
        // stay cheap (the whole point of SoCL). Counted, not timed: each
        // request is routed once up front and afterwards only when a step
        // that was accepted touched its chain.
        let sc = ScenarioConfig::paper(10, 200).build(2);
        let res = SoclSolver::new().solve(&sc);
        assert!(res.evaluation.cloud_fallbacks == 0);
        let stats = &res.combine_stats;
        let steps = stats.large_removed + stats.small_removed + stats.migrations;
        assert!(
            stats.routes <= sc.users() * (2 + steps),
            "{} requests re-routed for {steps} accepted steps on 200 users",
            stats.routes
        );
    }
}
