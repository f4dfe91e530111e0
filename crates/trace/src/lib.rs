//! # socl-trace — synthetic microservice traces and similarity analysis
//!
//! The paper motivates SoCL with measurements on the Alibaba Cluster Trace
//! Program (Figures 3 and 4): service-to-service similarity is heterogeneous
//! (max pairwise trace similarity ≈ 0.65) and request volume fluctuates with
//! strong recurring peaks. Those datasets are not redistributable, so this
//! crate synthesizes traces with the same statistical shape:
//!
//! * [`generator`] — call-graph traces: each *service* owns a preference-
//!   biased dependency graph over a shared microservice pool (dependency
//!   chains of 12+ microservices); each *trace file* samples invocations
//!   whose structure varies stochastically call to call.
//! * [`similarity`] — cosine similarity between microservice-usage vectors
//!   (Figure 3a) and Jaccard similarity between dependency-edge sets
//!   (Figure 3b).
//! * [`temporal`] — diurnal request-volume series with configurable peaks,
//!   noise and bursts (Figure 4).
//! * [`metrics`] — the coefficient of variation and burst count that make
//!   Figure 4's fluctuation checkable.

pub mod generator;
pub mod metrics;
pub mod similarity;
pub mod temporal;

pub use generator::{ServiceTrace, TraceGenerator};
pub use metrics::{burst_count, coefficient_of_variation};
pub use similarity::{cosine_similarity, jaccard_similarity, similarity_matrix};
pub use temporal::{TemporalConfig, TemporalWorkload};
