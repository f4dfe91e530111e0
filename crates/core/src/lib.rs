//! # socl-core — the SoCL framework (the paper's contribution)
//!
//! SoCL (Scalable optimization with Cost-efficiency and Latency reduction)
//! solves joint microservice provisioning and routing in three stages
//! (Section IV, Figure 5):
//!
//! 1. **Region-based initial partition** ([`partition`], Algorithm 1) —
//!    per-service virtual graphs over request-hosting nodes, threshold-`ξ`
//!    clustering, and proactive *candidate nodes* admitted by the Theorem 1
//!    degree filter (`H > 2`) plus the `Δ < 0` proactive-factor test.
//! 2. **Instance pre-provisioning** ([`preprovision`], Algorithm 2) —
//!    budget-based instance bounds `N̄(m_i)`, per-partition quotas `ε_s`,
//!    and contribution-guided placement (`𝔻`, Definition 7).
//! 3. **Multi-scale combination** ([`combine`], Algorithms 3–5) —
//!    parallel large-scale instance merging (latency loss `ζ`,
//!    Definition 8, ω-fraction batches, dependency-conflict filtering),
//!    serial small-scale gradient descent with disturbance `Θ`,
//!    FuzzyAHP-driven storage planning ([`fuzzy`], Definition 9) and
//!    roll-back on latency-bound violations.
//!
//! [`pipeline::SoclSolver`] wires the stages together and reports per-stage
//! timings; [`config::SoclConfig`] exposes every hyper-parameter the paper
//! names (`ξ`, `ω`, `Θ`) plus ablation toggles used by the bench harness.

pub mod combine;
pub mod config;
pub mod fuzzy;
pub mod online;
pub mod partition;
pub mod pipeline;
pub mod preprovision;

pub use combine::{CombineStats, Combiner};
pub use config::{SoclConfig, StoragePolicy};
pub use fuzzy::{FuzzyAhp, TriangularFuzzy};
pub use online::{
    merge_scaler_owned, placement_churn, repair_placement, repair_with_replicas, RepairReport,
    ReplicaRepairReport, WarmSlotResult, WarmStartSolver,
};
pub use partition::{initial_partition, ServicePartitions};
pub use pipeline::{SoclResult, SoclSolver, StageTimings};
pub use preprovision::{preprovision, PreProvisioning};

#[cfg(test)]
mod proptests;
#[cfg(test)]
mod proptests_combine;

/// Runs `f` with the worker pool at `n` threads. Tests that set the
/// process-wide count take turns, and a failed assert still resets it.
#[cfg(test)]
pub(crate) fn at_threads<T>(n: usize, f: impl FnOnce() -> T) -> T {
    struct Reset;
    impl Drop for Reset {
        fn drop(&mut self) {
            socl_net::set_threads(0);
        }
    }
    static TURN: std::sync::Mutex<()> = std::sync::Mutex::new(());
    let _turn = socl_net::lock_recover(&TURN);
    socl_net::set_threads(n);
    let _reset = Reset;
    f()
}
