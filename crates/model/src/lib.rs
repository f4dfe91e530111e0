//! # socl-model — workload, cost and completion-time models for SoCL
//!
//! This crate implements Section III of the paper:
//!
//! * microservices `M = {m_i}` with deployment cost `κ(m_i)`, storage
//!   footprint `φ(m_i)` and compute requirement `q(m_i)` ([`service`]),
//! * user requests `u_h = {M_h, E_h}` modeled as directed chains of
//!   microservices with per-edge data flows ([`request`]),
//! * the deployment-cost model `𝒦_k = Σ κ(m_i)·x(i,k)` (Eq. 1, [`placement`]),
//! * the completion-time model `𝒟_h` (Eq. 2/7, [`latency`]),
//! * the joint objective `λ Σ 𝒦_k + (1-λ) Σ 𝒟_h` and its constraints
//!   (Eqs. 3–6, [`objective`]),
//! * exact latency-optimal routing given a placement — a layered DP over
//!   (chain position × hosting node) ([`routing`]),
//! * the embedded eshopOnContainers dependency dataset and request
//!   generators ([`dataset`]),
//! * scenario assembly: topology + catalog + users + constraint knobs in one
//!   seeded, reproducible bundle ([`scenario`]).
//!
//! Everything downstream (the SoCL heuristic, the exact optimizer, the
//! baselines, the simulator and the benches) consumes [`scenario::Scenario`].

pub mod codec;
pub mod dataset;
pub mod datasets_extra;
pub mod io;
pub mod latency;
pub mod objective;
pub mod placement;
pub mod request;
pub mod routing;
pub mod scenario;
pub mod service;
pub mod stats;

pub use codec::{crc32, BinReader, BinWriter, CodecError};
pub use dataset::{DependencyDataset, EshopDataset};
pub use datasets_extra::{SockShopDataset, TrainTicketDataset};
pub use io::{PlacementSnapshot, ScenarioSnapshot};
pub use latency::{completion_time, CompletionBreakdown};
pub use objective::{evaluate, ConstraintReport, Evaluation};
pub use placement::{Assignment, Placement, ReplicaCounts};
pub use request::{RequestConfig, UserId, UserRequest};
pub use routing::{
    greedy_route, optimal_route, optimal_route_with, route_all, route_threads, through_costs,
    RouteOutcome, RouteScratch, ThroughFill, ThroughScratch,
};
pub use scenario::{Scenario, ScenarioConfig};
pub use service::{Microservice, ServiceCatalog, ServiceId};

#[cfg(test)]
mod proptests;
