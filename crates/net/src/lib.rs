//! # socl-net — edge-network substrate for the SoCL reproduction
//!
//! This crate models the substrate topology of the edge network from the SoCL
//! paper (Section III.A): a weighted undirected graph `G(V, L)` whose vertices
//! are edge servers and whose links carry a Shannon-capacity transmission rate
//!
//! ```text
//! b(l_{i,j}) = B(l_{i,j}) · log2(1 + γ · g_{i,j} / N)
//! ```
//!
//! On top of the raw graph it provides:
//!
//! * single-source and all-pairs shortest paths under the *latency* metric
//!   (transfer time of one data unit, `Σ 1/b(l)` along a path) and under the
//!   *hop* metric (`π*`, used by the paper for return paths),
//! * virtual graphs `G'(m_i)` over node subsets, whose virtual links carry the
//!   harmonic-style effective channel speed
//!   `𝔹(l'_{k,q}) = 1 / Σ_{l ∈ π*(v_k,v_q)} 1/b(l)`,
//! * threshold-based partitioning of virtual graphs (connected components of
//!   the `𝔹 > ξ` filtered graph), the first stage of Algorithm 1,
//! * the communication intensity `χ(v_k) = Σ_q 𝔹(l'_{k,q})` used to order
//!   candidate-node checks,
//! * random topology generators matching the paper's evaluation setup
//!   (base stations on a plane, [20,80] GB/s links, [5,20] GFLOP/s servers,
//!   [4,8] storage units).
//!
//! All identifiers are dense newtypes so hot paths index `Vec`s directly.

pub mod fcmp;
pub mod graph;
pub mod incremental;
pub mod par;
pub mod paths;
pub mod rng;
pub mod time;
pub mod topology;
pub mod virtual_graph;

pub use fcmp::OrdF64;
pub use graph::{ConnScratch, EdgeNetwork, EdgeServer, Link, LinkParams, NodeId};
pub use incremental::{ApspCache, CacheStats};
pub use par::{effective_threads, lock_recover, parallel_worthwhile, set_threads};
pub use paths::{AllPairs, PathMetric, ShortestPaths};
pub use time::Stopwatch;
pub use topology::TopologyConfig;
pub use virtual_graph::{communication_intensity, Partition, VgCache, VirtualGraph};

#[cfg(test)]
mod proptests;
