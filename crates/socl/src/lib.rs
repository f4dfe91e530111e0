//! # socl — facade crate for the SoCL reproduction
//!
//! Re-exports the public API of every subsystem so applications depend on a
//! single crate:
//!
//! ```
//! use socl::prelude::*;
//!
//! let scenario = ScenarioConfig::paper(10, 40).build(7);
//! let result = SoclSolver::new().solve(&scenario);
//! assert_eq!(result.evaluation.cloud_fallbacks, 0);
//! ```
//!
//! Subsystem map (see DESIGN.md for the full inventory):
//!
//! | module | crate | contents |
//! |---|---|---|
//! | [`net`] | socl-net | edge topology, shortest paths, virtual graphs |
//! | [`model`] | socl-model | workload, cost/latency models, routing DP |
//! | [`ilp`] | socl-ilp | exact optimizer (Gurobi stand-in): node-capped branch-and-bound |
//! | [`core`] | socl-core | the SoCL three-stage pipeline |
//! | [`autoscale`] | socl-autoscale | serverless control plane: autoscaling, keep-alive, admission |
//! | [`baselines`] | socl-baselines | RP, JDR, GC-OG |
//! | [`sim`] | socl-sim | online simulator + testbed emulator |
//! | [`serve`] | socl-serve | sharded control-plane service + load feed |
//! | [`trace`] | socl-trace | synthetic Alibaba-like traces |

pub use socl_autoscale as autoscale;
pub use socl_baselines as baselines;
pub use socl_core as core;
pub use socl_ilp as ilp;
pub use socl_model as model;
pub use socl_net as net;
pub use socl_serve as serve;
pub use socl_sim as sim;
pub use socl_trace as trace;

/// One-stop imports for applications and examples.
pub mod prelude {
    pub use socl_autoscale::{
        AdmissionPolicy, AutoscaleConfig, Autoscaler, KeepAlivePolicy, ScalingAction, ScalingMode,
    };
    pub use socl_baselines::{gc_og, jdr, random_provisioning, BaselineResult};
    pub use socl_core::{
        merge_scaler_owned, placement_churn, repair_placement, repair_with_replicas, RepairReport,
        ReplicaRepairReport, SoclConfig, SoclResult, SoclSolver, StoragePolicy, WarmSlotResult,
        WarmStartSolver,
    };
    pub use socl_ilp::{solve_exact, ExactOptions, ExactSolution};
    pub use socl_model::{
        evaluate, optimal_route, Assignment, EshopDataset, Evaluation, Microservice, Placement,
        ReplicaCounts, RequestConfig, Scenario, ScenarioConfig, ServiceCatalog, ServiceId,
        SockShopDataset, TrainTicketDataset, UserId, UserRequest,
    };
    pub use socl_net::fcmp;
    pub use socl_net::{
        effective_threads, set_threads, AllPairs, ApspCache, CacheStats, EdgeNetwork, EdgeServer,
        LinkParams, NodeId, OrdF64, PathMetric, ShortestPaths, Stopwatch, TopologyConfig, VgCache,
    };
    pub use socl_serve::{
        audit_serve, BoundedQueue, DecisionEvent, FeedConfig, LoadFeed, RegionCheckpoint,
        RegionMap, RegionState, RegionWal, RestoreReport, ServeConfig, ServeTotals, SoclServe,
        TickRecord, TickSummary,
    };
    pub use socl_sim::{
        audit_invariants, run_testbed, AuditReport, Checkpoint, DecisionLog, FaultEvent, FaultKind,
        FaultPlan, FaultSchedule, FaultStats, FaultTimeline, LogRecord, MobilityModel,
        OnlineConfig, OnlineSimulator, Policy, RestoreError, RetryPolicy, RngState, SlotMetrics,
        SlotRecord, TailReport, TestbedConfig, TestbedResult, TornTail, TornTailReason,
    };
    pub use socl_trace::{
        cosine_similarity, jaccard_similarity, similarity_matrix, TemporalConfig, TemporalWorkload,
        TraceGenerator,
    };
}
