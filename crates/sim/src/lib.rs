//! # socl-sim — simulation platform and testbed emulator
//!
//! Five pieces:
//!
//! * [`mobility`] — the user mobility model: between time slots users hop
//!   between base stations (random-waypoint over the topology), reproducing
//!   the paper's "users randomly moved among edge nodes" trace setup.
//! * [`online`] — the time-slotted online simulator: per slot the user
//!   distribution shifts, some users re-draw their service chains
//!   ("stochastic service dependencies"), the configured policy (SoCL or a
//!   baseline) re-provisions one-shot, and the slot is scored. Supports
//!   node-failure injection between slots, mid-slot instance kills, and
//!   failure-triggered warm repair (`socl-core::online::repair_placement`).
//! * [`faults`] — deterministic, seedable fault schedules (node crash and
//!   recovery, link degradation, instance cold-kills, in-flight request
//!   loss) drawn uniformly at random from a seeded plan.
//! * [`recovery`] — crash-consistent checkpoint/restore for the online
//!   simulator: a versioned binary [`recovery::Checkpoint`] of every live
//!   piece of state, a checksummed write-ahead [`recovery::DecisionLog`]
//!   (envelope, framing and torn-tail detection are `socl_model::codec`'s),
//!   and an invariant auditor ([`recovery::audit_invariants`]). The
//!   kill-and-replay drill and its soak run on the service
//!   (`socl-serve`), the system that takes load.
//! * [`testbed`] — a discrete-event emulator standing in for the paper's
//!   17-machine Kubernetes cluster (Section V.C): per-node FIFO CPU queues,
//!   bandwidth-delayed transfers along the routed paths, serverless
//!   cold-start penalties for instances that have gone cold, and per-request
//!   end-to-end latency recording. Queueing contention is what makes RP's
//!   unbalanced placements spike in Figure 10; the emulator reproduces that
//!   mechanism. A [`faults::FaultSchedule`] can be replayed mid-run, with a
//!   configurable [`testbed::RetryPolicy`] (timeouts, bounded backoff
//!   retries, hedged duplicates) and graceful cloud degradation.

pub mod faults;
pub mod mobility;
pub mod online;
pub mod policy;
pub mod recovery;
pub mod testbed;

pub use faults::{FaultEvent, FaultKind, FaultPlan, FaultSchedule, FaultStats, FaultTimeline};
pub use mobility::MobilityModel;
pub use online::{OnlineConfig, OnlineSimulator, SlotRecord};
pub use policy::Policy;
pub use recovery::{
    audit_invariants, AuditReport, Checkpoint, DecisionLog, LogRecord, RestoreError, RngState,
    SlotMetrics, TailReport, TornTailReason,
};
/// The journal crash model (`socl_model::codec`), where its callers import it.
pub use socl_model::codec::TornTail;
pub use testbed::{run_testbed, RetryPolicy, TestbedConfig, TestbedResult};

#[cfg(test)]
mod proptests;
