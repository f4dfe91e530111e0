//! # socl-autoscale — a serverless control plane for SoCL's online layer
//!
//! The paper's placement model is binary: a microservice is deployed on a
//! node or it is not, and each deployment serves requests one at a time.
//! Real serverless edge platforms interpose a *control plane* between the
//! placement and the data path: each deployed `(service, node)` cell backs
//! a **pool of replicas** whose size tracks demand. This crate provides
//! that control plane, deterministic end to end:
//!
//! * [`Autoscaler`] — the replica-count controller. Reactive mode is
//!   Knative-shaped concurrency targeting (stable window mean + panic
//!   window max). Capacity ceilings come from the paper's per-node
//!   constraints (4)–(6): replicas hold container images, so a node's
//!   storage bounds its pool.
//! * [`KeepAlivePolicy`] — scale-to-zero economics. The cost-optimal
//!   variant solves the ski-rental trade between Eq. 1 deployment cost
//!   (idle replicas keep paying `κ(m)`) and cold-start latency, giving
//!   each service its own break-even keep-alive window.
//! * [`AdmissionPolicy`] — priority-classed load shedding that engages
//!   only when even max-scale capacity is exceeded; short request chains
//!   (cheapest to complete) are admitted longest.
//!
//! Everything here is a pure fold over observations — no wall clocks, no
//! unseeded RNG, no hash-order iteration — so identical seeds and configs
//! yield bit-identical scaling timelines at any worker-thread count.

pub mod admission;
pub mod config;
pub mod scaler;

pub use config::{AdmissionPolicy, AutoscaleConfig, KeepAlivePolicy, ScalingMode};
pub use scaler::{
    get_scaler_state, put_scaler_state, Autoscaler, ScalerState, ScalingAction,
    ServiceStateSnapshot,
};

#[cfg(test)]
mod proptests;
