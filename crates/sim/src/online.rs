//! The time-slotted online simulator.
//!
//! SoCL "processes decisions in a time-slotted manner, where at each time
//! slot it adapts to the observed system state and current user demand".
//! The simulator realizes exactly that loop:
//!
//! 1. users move ([`MobilityModel`]), some re-draw their service chain,
//! 2. the policy re-provisions one-shot on the observed state,
//! 3. optionally a node crashes *mid-slot* — after the policy committed its
//!    placement — stranding the instances it hosted; with `repair` on, a
//!    failure-triggered [`socl_core::repair_placement`] pass re-provisions
//!    only the affected services (repair latency and churn are recorded),
//! 4. the slot is scored with exact routing (objective, mean/max latency),
//! 5. optionally, a node fails or recovers between slots (failure
//!    injection).
//!
//! Between-slot failure injection removes a node's instances and detours its
//! users to the nearest alive station, exercising the re-provisioning and
//! roll-back machinery under churn; mid-slot crashes exercise the *repair*
//! path, where a full re-solve is not an option.

use crate::faults::{FaultKind, FaultSchedule};
use crate::mobility::MobilityModel;
use crate::policy::Policy;
use socl_autoscale::{AutoscaleConfig, Autoscaler};
use socl_model::{
    evaluate, DependencyDataset, EshopDataset, ReplicaCounts, Scenario, ScenarioConfig, UserRequest,
};
use socl_net::rng::ChaCha12Rng;
use socl_net::time::Stopwatch;
use socl_net::NodeId;
use std::time::Duration;

/// Cold-start penalty (seconds) assumed by the online layer's keep-alive
/// economics — matches the testbed emulator's default `cold_start`.
const ONLINE_COLD_START: f64 = 0.5;

/// Online simulation parameters.
#[derive(Debug, Clone)]
pub struct OnlineConfig {
    /// Number of slots (the paper's 4-hour trace at 5-minute slots = 48).
    pub slots: usize,
    /// Users in the system.
    pub users: usize,
    /// Edge servers.
    pub nodes: usize,
    /// Probability a user re-draws its chain each slot
    /// ("stochastic service dependencies").
    pub rechain_prob: f64,
    /// Mobility parameters.
    pub move_prob: f64,
    /// Base scenario knobs (budget, λ, ranges).
    pub scenario: ScenarioConfig,
    /// Per-slot probability that a random alive node fails (0 disables).
    pub fail_prob: f64,
    /// Per-slot probability that a failed node recovers.
    pub recover_prob: f64,
    /// Per-slot probability that a random alive link fails (0 disables).
    /// Only links whose removal keeps the network connected are eligible —
    /// the simulator models degradation, not partitions.
    pub link_fail_prob: f64,
    /// Per-slot probability that a failed link recovers.
    pub link_recover_prob: f64,
    /// Use the user-preference model (the paper's future-work feature):
    /// chain churn re-draws follow each user's stable service affinities,
    /// so successive requests of one user stay self-similar.
    pub user_preferences: bool,
    /// Per-slot probability that an alive node crashes *mid-slot*, after
    /// the policy has committed its placement (0 disables). The victim is
    /// the alive node hosting the most instances — the worst-case crash —
    /// and stays down going into following slots until it recovers.
    pub mid_slot_fail_prob: f64,
    /// Failure-triggered repair: when a mid-slot crash strands instances,
    /// re-provision only the affected services instead of serving the slot
    /// broken. Repair latency and churn are recorded per slot.
    pub repair: bool,
    /// Serverless control plane: when set, an [`Autoscaler`] owns per-cell
    /// warm-replica counts across slots. Each slot it (a) merges still-warm
    /// cells back into the policy's placement (tearing down a warm pool is
    /// the cost keep-alive paid to avoid), (b) sheds requests per the
    /// admission policy, and (c) runs one control-loop step on the observed
    /// per-service concurrency. The scaler clock advances by
    /// `scale_interval` per slot, so its windows span multiple slots. With
    /// `repair` on, mid-slot crashes go through
    /// [`socl_core::repair_with_replicas`] so stranded pools are re-homed
    /// rather than reset.
    pub autoscale: Option<AutoscaleConfig>,
    /// Deterministic scheduled faults, applied at the boundary of the slot
    /// containing each event's timestamp (in addition to — and before —
    /// the probabilistic injection above). Node crashes and recoveries
    /// toggle the alive set, link degradations mask the link (bridge-
    /// guarded, like probabilistic link failure), instance kills reap one
    /// warm replica from the control plane, and request losses are a
    /// testbed-layer concern ignored here. An empty schedule (the default)
    /// leaves every run bit-identical to configs that predate this field.
    pub faults: FaultSchedule,
    /// Simulated seconds per slot, mapping `faults` timestamps onto slots
    /// (paper: 5-minute slots).
    pub slot_secs: f64,
    /// Master seed.
    pub seed: u64,
}

impl Default for OnlineConfig {
    fn default() -> Self {
        Self {
            slots: 48,
            users: 50,
            nodes: 16,
            rechain_prob: 0.3,
            move_prob: 0.4,
            scenario: ScenarioConfig::default(),
            fail_prob: 0.0,
            recover_prob: 0.5,
            link_fail_prob: 0.0,
            link_recover_prob: 0.5,
            user_preferences: false,
            mid_slot_fail_prob: 0.0,
            repair: false,
            autoscale: None,
            faults: FaultSchedule::empty(),
            slot_secs: 300.0,
            seed: 0,
        }
    }
}

/// Per-slot measurement record.
#[derive(Debug, Clone)]
pub struct SlotRecord {
    pub slot: usize,
    /// Weighted objective of the slot's placement.
    pub objective: f64,
    /// Deployment cost.
    pub cost: f64,
    /// Mean completion time across requests (seconds).
    pub mean_latency: f64,
    /// Maximum completion time (seconds).
    pub max_latency: f64,
    /// Requests that fell back to the cloud.
    pub fallbacks: usize,
    /// Policy solve time for the slot.
    pub solve_time: Duration,
    /// Nodes down during the slot.
    pub failed_nodes: usize,
    /// Nodes that crashed mid-slot (after the placement was committed).
    pub mid_slot_failures: usize,
    /// Failure-triggered repair latency (zero when no repair ran).
    pub repair_time: Duration,
    /// Instance churn caused by the repair pass (prunes + adds).
    pub repair_churn: usize,
    /// Service-level scale-up events this slot (0 without a control plane).
    pub scale_ups: usize,
    /// Service-level scale-down events this slot.
    pub scale_downs: usize,
    /// Requests refused by admission control this slot.
    pub shed_requests: usize,
    /// Total warm replicas across all cells at the end of the slot
    /// (0 without a control plane).
    pub replicas: u32,
}

/// Error from control-plane accessors on a run configured without an
/// autoscaler (`OnlineConfig::autoscale` is `None`).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ControlPlaneDisabled;

impl std::fmt::Display for ControlPlaneDisabled {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str("control plane not configured: OnlineConfig::autoscale is None")
    }
}

impl std::error::Error for ControlPlaneDisabled {}

/// The simulator: owns the evolving user state.
///
/// Fields are `pub(crate)` so the [`crate::recovery`] module can freeze and
/// restore the complete live state without an ever-growing accessor surface.
pub struct OnlineSimulator {
    pub(crate) cfg: OnlineConfig,
    pub(crate) dataset: DependencyDataset,
    pub(crate) base: Scenario,
    pub(crate) locations: Vec<NodeId>,
    pub(crate) requests: Vec<UserRequest>,
    pub(crate) mobility: MobilityModel,
    pub(crate) rng: ChaCha12Rng,
    pub(crate) alive: Vec<bool>,
    pub(crate) alive_links: Vec<bool>,
    pub(crate) preferences: Option<socl_model::PreferenceModel>,
    /// Incrementally-maintained APSP over the substrate with dead links
    /// masked out; only trees crossing a flipped link are recomputed when
    /// the alive-link set changes between slots.
    pub(crate) apsp: socl_net::ApspCache,
    /// The serverless control plane, when configured. Owns the warm-replica
    /// counts that persist across slots.
    pub(crate) scaler: Option<Autoscaler>,
    /// Index of the next slot [`step`](Self::step) will run — the slot
    /// clock, and part of every checkpoint.
    pub(crate) next_slot: usize,
    /// Cursor into `cfg.faults`: events before it have been applied.
    pub(crate) fault_cursor: usize,
    /// Cumulative replica-slots billed so far (Σ end-of-slot warm replicas)
    /// — the keep-alive economics bill, audited for conservation after
    /// every crash recovery.
    pub(crate) billed_replica_slots: u64,
    /// Reusable DFS state for bridge probes — transient scratch, never
    /// checkpointed.
    pub(crate) conn_scratch: socl_net::ConnScratch,
    /// Reusable chain-sampling buffers for the churn loop — transient
    /// scratch, never checkpointed.
    pub(crate) chain_scratch: socl_model::ChainScratch,
}

impl OnlineSimulator {
    /// Build the simulator (topology and catalog are fixed across slots).
    pub fn new(cfg: OnlineConfig) -> Self {
        let dataset = EshopDataset::build();
        let mut scenario_cfg = cfg.scenario.clone();
        scenario_cfg.nodes = cfg.nodes;
        scenario_cfg.users = cfg.users;
        let base = scenario_cfg.build_with_dataset(&dataset, cfg.seed);
        let locations = base.requests.iter().map(|r| r.location).collect();
        let requests = base.requests.clone();
        let mobility = MobilityModel::new(cfg.move_prob, 0.7, cfg.seed ^ 0xA5A5);
        // The generator's position is observable and settable, which is
        // what makes the RNG checkpointable (see `crate::recovery`).
        let rng = ChaCha12Rng::seed_from_u64(cfg.seed ^ 0x5A5A_5A5A);
        let alive = vec![true; cfg.nodes];
        let alive_links = vec![true; base.net.link_count()];
        let preferences = cfg
            .user_preferences
            .then(|| socl_model::PreferenceModel::sample(cfg.users, base.catalog.len(), cfg.seed));
        let apsp = socl_net::ApspCache::new(&base.net);
        let scaler = cfg
            .autoscale
            .clone()
            .map(|ac| Autoscaler::new(ac, ONLINE_COLD_START, base.catalog.len(), cfg.nodes));
        Self {
            cfg,
            dataset,
            base,
            locations,
            requests,
            mobility,
            rng,
            alive,
            alive_links,
            preferences,
            apsp,
            scaler,
            next_slot: 0,
            fault_cursor: 0,
            billed_replica_slots: 0,
            conn_scratch: socl_net::ConnScratch::new(),
            chain_scratch: socl_model::ChainScratch::new(),
        }
    }

    /// The control plane's warm-replica counts (None without autoscaling).
    pub fn replica_counts(&self) -> Option<&ReplicaCounts> {
        self.scaler.as_ref().map(|s| s.counts())
    }

    /// The control plane's warm-replica counts, as a structured error when
    /// the run has no control plane — for callers that *require* one and
    /// previously had to panic on the `None`.
    ///
    /// # Errors
    /// [`ControlPlaneDisabled`] when `OnlineConfig::autoscale` is `None`.
    pub fn replica_counts_checked(&self) -> Result<&ReplicaCounts, ControlPlaneDisabled> {
        self.replica_counts().ok_or(ControlPlaneDisabled)
    }

    /// Index of the next slot [`step`](Self::step) will execute.
    pub fn next_slot(&self) -> usize {
        self.next_slot
    }

    /// Cumulative end-of-slot warm-replica totals billed so far.
    pub fn billed_replica_slots(&self) -> u64 {
        self.billed_replica_slots
    }

    /// Incremental APSP cache statistics (rows recomputed vs reused).
    pub fn apsp_stats(&self) -> socl_net::CacheStats {
        self.apsp.stats()
    }

    /// True when removing every currently-dead link *plus* `extra` keeps the
    /// substrate connected. Probes the masked substrate in place — no
    /// subgraph is materialized, and the DFS buffers are recycled across
    /// calls.
    fn connected_without(&mut self, extra: usize) -> bool {
        self.base
            .net
            .is_connected_masked(&self.alive_links, extra, &mut self.conn_scratch)
    }

    /// The fixed substrate scenario (topology, catalog, knobs).
    pub fn base(&self) -> &Scenario {
        &self.base
    }

    /// Apply every scheduled fault whose timestamp falls inside the slot
    /// about to run (`[next_slot·slot_secs, (next_slot+1)·slot_secs)`).
    /// Events are consumed through `fault_cursor`, which is checkpointed —
    /// a restored run resumes mid-schedule without replaying or skipping
    /// events. Draws no randomness, so probabilistic injection streams are
    /// untouched by the schedule's presence.
    fn apply_scheduled_faults(&mut self) {
        let window_end = (self.next_slot as f64 + 1.0) * self.cfg.slot_secs;
        while self.fault_cursor < self.cfg.faults.len() {
            let ev = match self.cfg.faults.events().get(self.fault_cursor) {
                Some(ev) if ev.time < window_end => *ev,
                _ => break,
            };
            self.fault_cursor += 1;
            match ev.kind {
                FaultKind::NodeCrash(k) => {
                    let alive_count = self.alive.iter().filter(|&&a| a).count();
                    if let Some(a) = self.alive.get_mut(k.idx()) {
                        // Never take the last node down — same guard as
                        // probabilistic injection.
                        if alive_count > 1 {
                            *a = false;
                        }
                    }
                }
                FaultKind::NodeRecover(k) => {
                    if let Some(a) = self.alive.get_mut(k.idx()) {
                        *a = true;
                    }
                }
                FaultKind::LinkDegrade { link, .. } => {
                    // The placement layer has no notion of partial
                    // bandwidth; a degraded link is masked outright,
                    // bridge-guarded so the substrate never partitions.
                    if self.alive_links.get(link).copied() == Some(true)
                        && self.connected_without(link)
                    {
                        if let Some(l) = self.alive_links.get_mut(link) {
                            *l = false;
                        }
                    }
                }
                FaultKind::LinkRestore { link } => {
                    if let Some(l) = self.alive_links.get_mut(link) {
                        *l = true;
                    }
                }
                FaultKind::InstanceKill { service, node } => {
                    // Reap one warm replica; the control plane re-warms it
                    // on a later tick if demand still wants it.
                    if let Some(scaler) = self.scaler.as_mut() {
                        let cur = scaler.counts().get(service, node);
                        scaler.confirm(service, node, cur.saturating_sub(1));
                    }
                }
                FaultKind::RequestLoss { .. } => {
                    // In-flight transfer loss is a testbed-emulator concern;
                    // the slot-granular placement layer has no transfers.
                }
            }
        }
    }

    /// Advance user state by one slot and return the slot's scenario.
    fn advance(&mut self) -> Scenario {
        // Scheduled faults land first: they are part of the configuration,
        // not the random environment.
        self.apply_scheduled_faults();
        // Failure injection.
        if self.cfg.fail_prob > 0.0 {
            let alive_count = self.alive.iter().filter(|&&a| a).count();
            if alive_count > 1 && self.rng.gen::<f64>() < self.cfg.fail_prob {
                let idx = loop {
                    let i = self.rng.gen_range(0..self.cfg.nodes);
                    if self.alive[i] {
                        break i;
                    }
                };
                self.alive[idx] = false;
            }
        }
        // Recovery also covers nodes crashed mid-slot by `run_measured`.
        if self.cfg.fail_prob > 0.0 || self.cfg.mid_slot_fail_prob > 0.0 {
            for i in 0..self.cfg.nodes {
                if !self.alive[i] && self.rng.gen::<f64>() < self.cfg.recover_prob {
                    self.alive[i] = true;
                }
            }
        }

        // Link failure injection (degradation only — never a partition).
        if self.cfg.link_fail_prob > 0.0 {
            if self.rng.gen::<f64>() < self.cfg.link_fail_prob {
                let n_links = self.alive_links.len();
                if n_links > 0 {
                    // Try a few random candidates; skip bridges.
                    for _ in 0..8 {
                        let idx = self.rng.gen_range(0..n_links);
                        if self.alive_links[idx] && self.connected_without(idx) {
                            self.alive_links[idx] = false;
                            break;
                        }
                    }
                }
            }
            for idx in 0..self.alive_links.len() {
                if !self.alive_links[idx] && self.rng.gen::<f64>() < self.cfg.link_recover_prob {
                    self.alive_links[idx] = true;
                }
            }
        }

        // Mobility, detouring users away from dead stations.
        self.mobility.step(&self.base.net, &mut self.locations);
        for loc in &mut self.locations {
            if !self.alive[loc.idx()] {
                // Re-attach to the nearest alive station (max channel speed).
                let target = self
                    .base
                    .net
                    .node_ids()
                    .filter(|k| self.alive[k.idx()])
                    .max_by(|&a, &b| {
                        self.base
                            .ap
                            .best_speed(*loc, a)
                            .total_cmp(&self.base.ap.best_speed(*loc, b))
                    });
                if let Some(t) = target {
                    *loc = t;
                }
            }
        }

        // Chain churn + location update.
        let req_cfg = &self.cfg.scenario.requests;
        for (h, (req, &loc)) in self.requests.iter_mut().zip(&self.locations).enumerate() {
            req.location = loc;
            if self.rng.gen::<f64>() < self.cfg.rechain_prob {
                // Chains are re-sampled straight into the request's own
                // buffers; `chain_scratch` is recycled across users and
                // slots. Draw order matches the
                // allocating samplers exactly, so seeded runs are unchanged.
                match &self.preferences {
                    Some(prefs) => prefs.sample_chain_into(
                        &self.dataset,
                        h,
                        &mut self.rng,
                        req_cfg.chain_len.0,
                        req_cfg.chain_len.1,
                        &mut self.chain_scratch,
                        &mut req.chain,
                    ),
                    None => self.dataset.sample_chain_into(
                        &mut self.rng,
                        req_cfg.chain_len.0,
                        req_cfg.chain_len.1,
                        &mut self.chain_scratch.attempt,
                        &mut self.chain_scratch.succ,
                        &mut req.chain,
                    ),
                }
                req.edge_data.clear();
                for _ in 0..req.chain.len().saturating_sub(1) {
                    req.edge_data.push(
                        self.rng
                            .gen_range(req_cfg.edge_data.0..=req_cfg.edge_data.1),
                    );
                }
            }
        }

        // Slot scenario: shrink dead nodes' storage to zero so no policy can
        // place instances there; rebuild the substrate graph (cheap) when
        // links are down, but take the path cache from the incrementally
        // maintained APSP — masked links yield bit-identical distance,
        // predecessor and hop tables to a from-scratch rebuild without them,
        // and only trees crossing a flipped link are recomputed.
        let mut sc = self.base.clone();
        sc.requests = self.requests.clone();
        let desired: Vec<f64> = self
            .base
            .net
            .links()
            .iter()
            .enumerate()
            .map(|(idx, l)| if self.alive_links[idx] { l.rate() } else { 0.0 })
            .collect();
        self.apsp.sync_rates(&desired);
        if self.alive_links.iter().any(|&a| !a) {
            sc.ap = self.apsp.all_pairs().clone();
            sc.net = self.base.net.masked_clone(&self.alive_links);
        }
        for i in 0..self.cfg.nodes {
            if !self.alive[i] {
                sc.net.server_mut(NodeId(i as u32)).storage_units = 0.0;
            }
        }
        sc
    }

    /// Run `policy` for the configured number of slots, scoring latency with
    /// the exact (unloaded) routing model.
    pub fn run(&mut self, policy: &Policy) -> Vec<SlotRecord> {
        self.run_measured(policy, |_, _| None)
    }

    /// Like [`run`](Self::run), but lets the caller override the latency
    /// measurement per slot — e.g. with the discrete-event testbed emulator,
    /// which adds the queueing and cold-start effects a real cluster shows.
    /// `measure(scenario, placement)` returns `Some((mean, max))` in seconds
    /// to override, or `None` to keep the unloaded routing measurement.
    pub fn run_measured<F>(&mut self, policy: &Policy, mut measure: F) -> Vec<SlotRecord>
    where
        F: FnMut(&Scenario, &socl_model::Placement) -> Option<(f64, f64)>,
    {
        let remaining = self.cfg.slots.saturating_sub(self.next_slot);
        let mut records = Vec::with_capacity(remaining);
        while self.next_slot < self.cfg.slots {
            records.push(self.step(policy, &mut measure));
        }
        records
    }

    /// Execute exactly one slot and return its record, advancing the slot
    /// clock. [`run_measured`](Self::run_measured) is a loop over this; the
    /// crash-recovery driver calls it directly so it can tear a run down at
    /// any slot boundary and resume from a restored checkpoint.
    pub fn step<F>(&mut self, policy: &Policy, measure: &mut F) -> SlotRecord
    where
        F: FnMut(&Scenario, &socl_model::Placement) -> Option<(f64, f64)>,
    {
        let slot = self.next_slot;
        {
            let mut sc = self.advance();
            let t = Stopwatch::start();
            let mut placement = policy.place(&sc, slot as u64);
            let solve_time = t.elapsed();

            // Serverless control plane: merge warm cells into the committed
            // placement, shed per admission policy, run one scaler step.
            let mut scale_ups = 0usize;
            let mut scale_downs = 0usize;
            let mut shed_requests = 0usize;
            if let Some(scaler) = self.scaler.as_mut() {
                if slot == 0 {
                    scaler.seed_from_placement(&placement, &sc.catalog, &sc.net);
                } else {
                    // Cells still holding warm replicas survive the policy
                    // re-solve; pools on since-dead nodes are torn down.
                    let mut counts = scaler.counts().clone();
                    socl_core::merge_scaler_owned(&sc, &mut placement, &mut counts);
                    scaler.restore_counts(counts);
                }
                // Observed demand: instantaneous concurrency per service is
                // the number of chain stages that traverse it this slot.
                let mut demand = vec![0.0f64; sc.catalog.len()];
                for req in &sc.requests {
                    for &m in &req.chain {
                        demand[m.idx()] += 1.0;
                    }
                }
                // Admission: a request is shed when any of its chain stages
                // must yield at the current overload.
                if scaler.config().admission.enabled {
                    let offered = sc.requests.len();
                    sc.requests.retain(|req| {
                        req.chain
                            .iter()
                            .all(|&m| scaler.admit(m, req.chain.len(), demand[m.idx()]))
                    });
                    shed_requests = offered - sc.requests.len();
                }
                let tick_t = slot as f64 * scaler.config().scale_interval;
                let (u0, d0) = scaler.events();
                scaler.tick(tick_t, &demand, &placement, &sc.catalog, &sc.net);
                let (u1, d1) = scaler.events();
                scale_ups = (u1 - u0) as usize;
                scale_downs = (d1 - d0) as usize;
            }

            // Mid-slot crash: a node dies *after* the policy committed its
            // placement, stranding every instance it hosted.
            let mut mid_slot_failures = 0usize;
            let mut repair_time = Duration::ZERO;
            let mut repair_churn = 0usize;
            if self.cfg.mid_slot_fail_prob > 0.0 {
                let alive_count = self.alive.iter().filter(|&&a| a).count();
                if alive_count > 1 && self.rng.gen::<f64>() < self.cfg.mid_slot_fail_prob {
                    // Crash where it hurts: the alive node hosting the most
                    // instances of the committed placement (lowest index on
                    // ties). Deterministic given the slot's placement, so
                    // repair-on and repair-off runs see the same victims.
                    let mut victim = usize::MAX;
                    let mut most = 0usize;
                    for i in 0..self.cfg.nodes {
                        if !self.alive[i] {
                            continue;
                        }
                        let hosted = placement.services_count_on(NodeId(i as u32));
                        if victim == usize::MAX || hosted > most {
                            victim = i;
                            most = hosted;
                        }
                    }
                    // The victim stays down into following slots until the
                    // between-slot recovery process revives it.
                    self.alive[victim] = false;
                    let v = NodeId(victim as u32);
                    sc.net.server_mut(v).storage_units = 0.0;
                    mid_slot_failures = 1;
                    if self.cfg.repair {
                        let t = Stopwatch::start();
                        if let Some(scaler) = self.scaler.as_mut() {
                            // Replica-aware repair: stranded warm pools are
                            // re-homed onto the surviving hosts.
                            let out =
                                socl_core::repair_with_replicas(&sc, &placement, scaler.counts());
                            repair_time = t.elapsed();
                            repair_churn = out.report.churn;
                            placement = out.report.placement;
                            scaler.restore_counts(out.counts);
                        } else {
                            let report = socl_core::repair_placement(&sc, &placement);
                            repair_time = t.elapsed();
                            repair_churn = report.churn;
                            placement = report.placement;
                        }
                    } else {
                        // Unrepaired: the stranded instances are simply
                        // gone and the slot is served without them.
                        for i in 0..placement.services() {
                            placement.set(socl_model::ServiceId(i as u32), v, false);
                        }
                        if let Some(scaler) = self.scaler.as_mut() {
                            for i in 0..sc.catalog.len() {
                                scaler.confirm(socl_model::ServiceId(i as u32), v, 0);
                            }
                        }
                    }
                }
            }

            let ev = evaluate(&sc, &placement);
            let (mean_latency, max_latency) =
                measure(&sc, &placement).unwrap_or_else(|| (ev.mean_latency(), ev.max_latency()));
            let replicas = self
                .scaler
                .as_ref()
                .map(|s| s.counts().total())
                .unwrap_or(0);
            self.billed_replica_slots = self
                .billed_replica_slots
                .saturating_add(u64::from(replicas));
            self.next_slot += 1;
            SlotRecord {
                slot,
                objective: ev.objective,
                cost: ev.cost,
                mean_latency,
                max_latency,
                fallbacks: ev.cloud_fallbacks,
                solve_time,
                failed_nodes: self.alive.iter().filter(|&&a| !a).count(),
                mid_slot_failures,
                repair_time,
                repair_churn,
                scale_ups,
                scale_downs,
                shed_requests,
                replicas,
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use socl_core::SoclConfig;

    fn small_cfg(seed: u64) -> OnlineConfig {
        OnlineConfig {
            slots: 6,
            users: 20,
            nodes: 8,
            seed,
            ..OnlineConfig::default()
        }
    }

    #[test]
    fn simulation_produces_one_record_per_slot() {
        let mut sim = OnlineSimulator::new(small_cfg(1));
        let records = sim.run(&Policy::Socl(SoclConfig::default()));
        assert_eq!(records.len(), 6);
        for (i, r) in records.iter().enumerate() {
            assert_eq!(r.slot, i);
            assert!(r.objective > 0.0);
            assert!(r.mean_latency >= 0.0);
            assert!(r.max_latency >= r.mean_latency);
        }
    }

    #[test]
    fn socl_serves_all_requests_each_slot() {
        let mut sim = OnlineSimulator::new(small_cfg(2));
        let records = sim.run(&Policy::Socl(SoclConfig::default()));
        for r in &records {
            assert_eq!(r.fallbacks, 0, "slot {} had fallbacks", r.slot);
        }
    }

    fn reactive() -> socl_autoscale::AutoscaleConfig {
        socl_autoscale::AutoscaleConfig {
            min_replicas: 1,
            stable_window: 8.0,
            panic_window: 2.0,
            scale_interval: 1.0,
            down_cooldown: 2.0,
            keep_alive: socl_autoscale::KeepAlivePolicy::Fixed(2.0),
            ..socl_autoscale::AutoscaleConfig::default()
        }
    }

    #[test]
    fn legacy_runs_report_no_control_plane_activity() {
        let mut sim = OnlineSimulator::new(small_cfg(3));
        let records = sim.run(&Policy::Socl(SoclConfig::default()));
        for r in &records {
            assert_eq!(r.scale_ups + r.scale_downs + r.shed_requests, 0);
            assert_eq!(r.replicas, 0);
        }
        assert!(sim.replica_counts().is_none());
    }

    #[test]
    fn control_plane_tracks_replicas_and_is_deterministic() {
        let cfg = OnlineConfig {
            autoscale: Some(reactive()),
            ..small_cfg(30)
        };
        let run = || {
            let mut sim = OnlineSimulator::new(cfg.clone());
            let records = sim.run(&Policy::Socl(SoclConfig::default()));
            assert_eq!(
                sim.replica_counts().map(|c| c.total()),
                records.last().map(|r| r.replicas)
            );
            records
        };
        let (a, b) = (run(), run());
        for (ra, rb) in a.iter().zip(&b) {
            assert!(
                ra.replicas > 0,
                "slot {} ran with no warm replicas",
                ra.slot
            );
            assert_eq!(ra.scale_ups, rb.scale_ups);
            assert_eq!(ra.scale_downs, rb.scale_downs);
            assert_eq!(ra.shed_requests, rb.shed_requests);
            assert_eq!(ra.replicas, rb.replicas);
            assert_eq!(ra.mean_latency.to_bits(), rb.mean_latency.to_bits());
        }
    }

    #[test]
    fn admission_sheds_under_a_tight_queue_limit() {
        let cfg = OnlineConfig {
            autoscale: Some(socl_autoscale::AutoscaleConfig {
                admission: socl_autoscale::AdmissionPolicy {
                    enabled: true,
                    queue_limit: 0.05,
                    classes: 2,
                    strict_overload: 4.0,
                },
                ..reactive()
            }),
            ..small_cfg(31)
        };
        let mut sim = OnlineSimulator::new(cfg);
        let records = sim.run(&Policy::Socl(SoclConfig::default()));
        let shed: usize = records.iter().map(|r| r.shed_requests).sum();
        assert!(shed > 0, "nothing shed at queue limit 0.05");
        // The latency score must still be finite for the admitted share.
        for r in &records {
            assert!(r.mean_latency.is_finite());
        }
    }

    #[test]
    fn repair_preserves_warm_pools_across_mid_slot_crashes() -> Result<(), ControlPlaneDisabled> {
        let cfg = OnlineConfig {
            mid_slot_fail_prob: 1.0,
            repair: true,
            autoscale: Some(reactive()),
            ..small_cfg(32)
        };
        let mut sim = OnlineSimulator::new(cfg);
        let records = sim.run(&Policy::Socl(SoclConfig::default()));
        assert!(records.iter().any(|r| r.mid_slot_failures > 0));
        for r in &records {
            assert!(r.replicas > 0, "slot {} lost every warm replica", r.slot);
        }
        let counts = sim.replica_counts_checked()?;
        assert!(counts.total() > 0);
        Ok(())
    }

    #[test]
    fn control_plane_accessor_reports_a_structured_error() {
        let sim = OnlineSimulator::new(small_cfg(33));
        assert_eq!(sim.replica_counts_checked(), Err(ControlPlaneDisabled));
        // The error carries a human-readable explanation.
        assert!(ControlPlaneDisabled.to_string().contains("autoscale"));
    }

    #[test]
    fn scheduled_faults_apply_at_their_slot_and_checkpoint_cursor_advances() {
        use socl_net::NodeId;
        let schedule = FaultSchedule::from_events(vec![
            crate::faults::FaultEvent {
                time: 0.0,
                kind: FaultKind::NodeCrash(NodeId(2)),
            },
            crate::faults::FaultEvent {
                time: 650.0, // slot 2 at 300 s slots
                kind: FaultKind::NodeRecover(NodeId(2)),
            },
        ]);
        let cfg = OnlineConfig {
            faults: schedule,
            ..small_cfg(34)
        };
        let mut sim = OnlineSimulator::new(cfg);
        let records = sim.run(&Policy::Socl(SoclConfig::default()));
        assert_eq!(records[0].failed_nodes, 1, "crash missed its slot");
        assert_eq!(records[1].failed_nodes, 1);
        assert_eq!(records[2].failed_nodes, 0, "recovery missed its slot");
        assert_eq!(sim.fault_cursor, 2, "cursor must consume applied events");
    }

    #[test]
    fn empty_schedule_changes_nothing() {
        let run = |faults| {
            let cfg = OnlineConfig {
                faults,
                fail_prob: 0.3,
                recover_prob: 0.4,
                ..small_cfg(35)
            };
            OnlineSimulator::new(cfg)
                .run(&Policy::Socl(SoclConfig::default()))
                .iter()
                .map(|r| (r.objective.to_bits(), r.failed_nodes))
                .collect::<Vec<_>>()
        };
        assert_eq!(run(FaultSchedule::empty()), run(FaultSchedule::default()));
    }

    #[test]
    fn simulation_is_deterministic() {
        let run = |seed| {
            let mut sim = OnlineSimulator::new(small_cfg(seed));
            sim.run(&Policy::Jdr)
                .iter()
                .map(|r| r.objective)
                .collect::<Vec<f64>>()
        };
        assert_eq!(run(3), run(3));
        assert_ne!(run(3), run(4));
    }

    #[test]
    fn user_state_evolves_across_slots() {
        let mut sim = OnlineSimulator::new(small_cfg(5));
        let first = sim.advance();
        let second = sim.advance();
        // With 20 users, 40% mobility and 30% chain churn, the request sets
        // almost surely differ between consecutive slots.
        assert_ne!(first.requests, second.requests);
    }

    #[test]
    fn preference_mode_keeps_chains_self_similar() {
        use socl_model::chain_similarity;
        // Two simulators differing only in the preference flag; measure the
        // mean similarity of each user's chain across consecutive slots.
        let sim_mean = |prefs: bool| -> f64 {
            let mut sim = OnlineSimulator::new(OnlineConfig {
                rechain_prob: 1.0, // re-draw every chain every slot
                user_preferences: prefs,
                ..small_cfg(13)
            });
            let mut total = 0.0;
            let mut n = 0.0;
            let mut prev = sim.advance().requests;
            for _ in 0..6 {
                let cur = sim.advance().requests;
                for (a, b) in prev.iter().zip(&cur) {
                    total += chain_similarity(&a.chain, &b.chain);
                    n += 1.0;
                }
                prev = cur;
            }
            total / n
        };
        let with = sim_mean(true);
        let without = sim_mean(false);
        assert!(
            with > without,
            "preference chains ({with:.3}) should be more self-similar than random ({without:.3})"
        );
    }

    #[test]
    fn link_failures_degrade_but_never_partition() {
        let cfg = OnlineConfig {
            link_fail_prob: 0.9,
            link_recover_prob: 0.2,
            ..small_cfg(11)
        };
        let mut sim = OnlineSimulator::new(cfg);
        // Run several slots; the substrate must stay connected throughout
        // and SoCL must keep serving from the edge.
        for _ in 0..8 {
            let sc = sim.advance();
            assert!(sc.net.is_connected(), "link failure partitioned the net");
            let placement = Policy::Socl(SoclConfig::default()).place(&sc, 0);
            let ev = evaluate(&sc, &placement);
            assert_eq!(ev.cloud_fallbacks, 0);
        }
        // Failures must actually have occurred at p = 0.9.
        assert!(
            sim.alive_links.iter().any(|&a| !a) || sim.base.net.link_count() == 0,
            "no link ever failed at p=0.9"
        );
    }

    #[test]
    fn incremental_apsp_matches_full_rebuild_every_slot() {
        let cfg = OnlineConfig {
            link_fail_prob: 0.9,
            link_recover_prob: 0.3,
            ..small_cfg(17)
        };
        let mut sim = OnlineSimulator::new(cfg);
        let mut saw_failure = false;
        for _ in 0..10 {
            let sc = sim.advance();
            saw_failure |= sim.alive_links.iter().any(|&a| !a);
            let rebuilt = socl_net::AllPairs::build_serial(&sc.net);
            assert!(
                sc.ap.identical(&rebuilt),
                "slot APSP diverged from a from-scratch rebuild"
            );
        }
        assert!(saw_failure, "no link ever failed at p=0.9");
        let stats = sim.apsp_stats();
        assert!(stats.incremental_updates > 0, "cache never engaged");
        assert!(
            stats.rows_reused > 0,
            "incremental updates reused no rows: {stats:?}"
        );
        assert_eq!(stats.full_rebuilds, 1, "slots fell back to full rebuilds");
    }

    #[test]
    fn mid_slot_crashes_with_repair_keep_serving() {
        let cfg = OnlineConfig {
            mid_slot_fail_prob: 0.8,
            recover_prob: 0.4,
            repair: true,
            slots: 8,
            ..small_cfg(7)
        };
        let mut sim = OnlineSimulator::new(cfg);
        let records = sim.run(&Policy::Socl(SoclConfig::default()));
        // Crashes must actually land mid-slot…
        assert!(records.iter().any(|r| r.mid_slot_failures > 0));
        // …repair must have done work at least once…
        assert!(records.iter().any(|r| r.repair_churn > 0));
        // …and at least one crashed slot must end up fully restored (the
        // crash takes out the *most-loaded* node, so with several nodes
        // already down the survivors cannot always absorb everything).
        assert!(
            records
                .iter()
                .any(|r| r.mid_slot_failures > 0 && r.fallbacks == 0),
            "repair never fully restored a crashed slot: {records:?}"
        );
    }

    #[test]
    fn repair_never_serves_worse_than_no_repair() {
        let run = |repair: bool| {
            let cfg = OnlineConfig {
                mid_slot_fail_prob: 0.8,
                recover_prob: 0.4,
                repair,
                slots: 8,
                ..small_cfg(8)
            };
            OnlineSimulator::new(cfg).run(&Policy::Socl(SoclConfig::default()))
        };
        let with = run(true);
        let without = run(false);
        // Identical seeds drive identical crash sequences, so the records
        // pair up slot by slot; repair can only remove fallbacks.
        let fb_with: usize = with.iter().map(|r| r.fallbacks).sum();
        let fb_without: usize = without.iter().map(|r| r.fallbacks).sum();
        assert!(
            fb_with <= fb_without,
            "repair increased fallbacks: {fb_with} vs {fb_without}"
        );
        // Repair reports latency only on the slots where it ran.
        for r in &with {
            if r.mid_slot_failures == 0 {
                assert_eq!(r.repair_churn, 0);
                assert!(r.repair_time.is_zero());
            }
        }
        for r in &without {
            assert_eq!(r.repair_churn, 0);
        }
    }

    #[test]
    fn failure_injection_keeps_system_serving() {
        let cfg = OnlineConfig {
            fail_prob: 0.8,
            recover_prob: 0.3,
            ..small_cfg(6)
        };
        let mut sim = OnlineSimulator::new(cfg);
        let records = sim.run(&Policy::Socl(SoclConfig::default()));
        // Failures must actually occur…
        assert!(records.iter().any(|r| r.failed_nodes > 0));
        // …and SoCL must keep serving everyone from the remaining nodes.
        for r in &records {
            assert_eq!(r.fallbacks, 0, "slot {}: fallbacks under failure", r.slot);
        }
    }
}
