//! The per-microservice autoscaler: a deterministic control loop over
//! observed in-flight concurrency.
//!
//! ```text
//! every scale_interval seconds:
//!   for each deployed service m:
//!     stable  = mean in-flight over stable_window
//!     panicky = max  in-flight over panic_window
//!     desired = ceil(stable / target_concurrency)
//!     if predictive: desired = max(desired, ceil(forecast / target))
//!     if ceil(panicky / target) >= panic_factor * current: enter panic
//!     clamp desired to [min_replicas, capacity ceiling (constraints 4-6)]
//!     scale up immediately; scale down only after down_cooldown,
//!       never during panic, never below the keep-alive floor
//! ```
//!
//! The loop is a pure function of its observations — no clocks, no RNG —
//! so identical seeds and configs produce bit-identical scaling timelines
//! regardless of worker-thread count.

use crate::config::{AutoscaleConfig, ScalingMode};
use socl_model::{Placement, ReplicaCounts, ServiceCatalog, ServiceId};
use socl_net::{EdgeNetwork, NodeId};
use socl_trace::ForecasterState;

/// One replica-count change for a single `(service, node)` cell, as
/// *planned* by the scaler. The execution layer applies it best-effort
/// (busy replicas cannot be reclaimed mid-request) and reports what
/// actually happened via [`Autoscaler::confirm`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ScalingAction {
    /// Microservice being scaled.
    pub service: ServiceId,
    /// Node whose pool changes.
    pub node: NodeId,
    /// Replica count before this tick.
    pub before: u32,
    /// Planned replica count after this tick.
    pub after: u32,
}

/// Per-service controller state.
#[derive(Debug, Clone)]
struct ServiceState {
    /// Recent `(time, in-flight)` samples, pruned to the stable window.
    samples: Vec<(f64, f64)>,
    /// Recent `(time, instantaneous desired)` pairs, pruned to the
    /// keep-alive window — their max is the scale-down floor, which is how
    /// "a replica stays warm for W seconds after it was last needed" is
    /// realised without per-replica timers.
    desires: Vec<(f64, u32)>,
    /// Holt forecaster over the per-tick in-flight series.
    forecaster: socl_trace::Forecaster,
    /// Time of the last executed scale-down.
    last_down: f64,
    /// Panic mode is active until this time.
    panic_until: f64,
}

impl ServiceState {
    fn new() -> Self {
        Self {
            samples: Vec::new(),
            desires: Vec::new(),
            forecaster: socl_trace::Forecaster::scaling_default(),
            last_down: f64::NEG_INFINITY,
            panic_until: f64::NEG_INFINITY,
        }
    }
}

/// Frozen per-service controller state (checkpoint payload).
#[derive(Debug, Clone, PartialEq)]
pub struct ServiceStateSnapshot {
    /// Recent `(time, in-flight)` samples within the stable window.
    pub samples: Vec<(f64, f64)>,
    /// Recent `(time, instantaneous desired)` keep-alive markers.
    pub desires: Vec<(f64, u32)>,
    /// Holt forecaster smoothing state.
    pub forecaster: ForecasterState,
    /// Time of the last executed scale-down.
    pub last_down: f64,
    /// Panic mode is active until this time.
    pub panic_until: f64,
}

/// Frozen [`Autoscaler`] state: everything the control loop accumulates at
/// runtime, excluding the static [`AutoscaleConfig`] (which the restoring
/// side reconstructs from its own run configuration). Capturing this plus
/// the replica-count grid makes a restored scaler's future ticks
/// bit-identical to the uninterrupted run's.
#[derive(Debug, Clone, PartialEq)]
pub struct ScalerState {
    /// Grid dimensions: services.
    pub services: usize,
    /// Grid dimensions: nodes.
    pub nodes: usize,
    /// Row-major replica counts (`services × nodes`).
    pub counts: Vec<u32>,
    /// Per-service capacity ceilings as of the last tick/seed — `admit`
    /// consults these *before* the next tick refreshes them, so they are
    /// state, not derived data.
    pub caps: Vec<u32>,
    /// Per-service controller state.
    pub states: Vec<ServiceStateSnapshot>,
    /// Cumulative service-level scale-up events.
    pub up_events: u64,
    /// Cumulative service-level scale-down events.
    pub down_events: u64,
    /// Cold-start penalty the scaler was constructed with.
    pub cold_start: f64,
}

/// The serverless control plane's replica-count controller.
///
/// Owns the authoritative [`ReplicaCounts`]: the data plane (testbed
/// engine, online simulator) sizes its pools from these counts, and the
/// repair path preserves them across node failures.
#[derive(Debug, Clone)]
pub struct Autoscaler {
    cfg: AutoscaleConfig,
    /// Cold-start penalty of the surrounding run (seconds) — the price a
    /// request pays when it lands on a scaled-to-zero service.
    cold_start: f64,
    counts: ReplicaCounts,
    /// Total capacity ceiling per service across its current hosts,
    /// refreshed every tick (hosts move when placements change mid-run).
    caps: Vec<u32>,
    states: Vec<ServiceState>,
    /// Cumulative service-level scale-up / scale-down events.
    up_events: u64,
    down_events: u64,
    /// Water-fill scratch (hosts / per-cell ceilings / per-cell targets),
    /// recycled across [`apply_total_into`](Self::apply_total_into) calls so
    /// the per-service tick loop allocates nothing.
    /// Dead between calls; excluded from checkpoints.
    fill_hosts: Vec<NodeId>,
    fill_ceil: Vec<u32>,
    fill_alloc: Vec<u32>,
}

impl Autoscaler {
    /// New scaler with all counts at zero. Call
    /// [`seed_from_placement`](Self::seed_from_placement) before the run.
    pub fn new(cfg: AutoscaleConfig, cold_start: f64, services: usize, nodes: usize) -> Self {
        cfg.validate();
        Self {
            cfg,
            cold_start: cold_start.max(0.0),
            counts: ReplicaCounts::zero(services, nodes),
            caps: vec![0; services],
            states: (0..services).map(|_| ServiceState::new()).collect(),
            up_events: 0,
            down_events: 0,
            fill_hosts: Vec::new(),
            fill_ceil: Vec::new(),
            fill_alloc: Vec::new(),
        }
    }

    /// Configuration this scaler runs with.
    pub fn config(&self) -> &AutoscaleConfig {
        &self.cfg
    }

    /// Authoritative replica counts.
    pub fn counts(&self) -> &ReplicaCounts {
        &self.counts
    }

    /// Replace the replica-count table wholesale — used by the repair path
    /// after node failures rewrite the placement.
    pub fn restore_counts(&mut self, counts: ReplicaCounts) {
        self.counts = counts;
    }

    /// Capacity ceiling for `m` across its hosts, as of the last tick/seed.
    pub fn max_capacity(&self, m: ServiceId) -> u32 {
        self.caps.get(m.idx()).copied().unwrap_or(0)
    }

    /// Cumulative `(scale-up, scale-down)` service-level events.
    pub fn events(&self) -> (u64, u64) {
        (self.up_events, self.down_events)
    }

    /// Initialise counts from a placement (one replica per deployed cell —
    /// the legacy model), then raise every deployed service to the
    /// `min_replicas` floor. With `min_replicas == u32::MAX` this fills
    /// every service to its capacity ceiling: the max-scale extreme.
    pub fn seed_from_placement(
        &mut self,
        placement: &Placement,
        catalog: &ServiceCatalog,
        net: &EdgeNetwork,
    ) {
        self.counts = ReplicaCounts::from_placement(placement);
        self.refresh_caps(placement, catalog, net);
        // Seeding ignores the per-cell actions; one buffer absorbs them all.
        let mut actions = Vec::new();
        for i in 0..self.caps.len() {
            let m = ServiceId(i as u32);
            let cap = self.caps[i];
            let floor = self.cfg.min_replicas.min(cap);
            if self.counts.total_of(m) < floor {
                self.apply_total_into(m, floor, placement, catalog, net, &mut actions);
            }
        }
    }

    /// Per-cell replica ceiling: the configured per-node cap, additionally
    /// bounded by how many container images of `m` fit in the node's
    /// storage (constraint (6)). A deployed host can always hold one.
    pub fn cell_ceiling(
        &self,
        catalog: &ServiceCatalog,
        net: &EdgeNetwork,
        m: ServiceId,
        k: NodeId,
    ) -> u32 {
        let by_storage = if catalog.storage(m) > 0.0 {
            let fit = (net.storage(k) / catalog.storage(m)).floor();
            if fit >= u32::MAX as f64 {
                u32::MAX
            } else {
                fit as u32
            }
        } else {
            self.cfg.max_replicas_per_node
        };
        self.cfg.max_replicas_per_node.min(by_storage.max(1))
    }

    /// Admission decision for a request whose chain has `chain_len`
    /// services: sheddable only when the configured policy says the
    /// request's priority class must yield at the service's current
    /// overload. `in_flight` is the service's instantaneous concurrency.
    pub fn admit(&self, m: ServiceId, chain_len: usize, in_flight: f64) -> bool {
        self.cfg
            .admission
            .admits(chain_len, in_flight, self.max_capacity(m))
    }

    /// The execution layer reports the count it actually reached for a
    /// cell (scale-downs are best-effort: busy replicas finish first).
    pub fn confirm(&mut self, m: ServiceId, k: NodeId, actual: u32) {
        self.counts.set(m, k, actual);
    }

    /// One control-loop step at time `t`. `in_flight` holds the current
    /// concurrency per service (indexed by `ServiceId::idx`). Returns the
    /// planned per-cell changes; counts are updated optimistically and the
    /// engine corrects any shortfall via [`confirm`](Self::confirm).
    pub fn tick(
        &mut self,
        t: f64,
        in_flight: &[f64],
        placement: &Placement,
        catalog: &ServiceCatalog,
        net: &EdgeNetwork,
    ) -> Vec<ScalingAction> {
        self.refresh_caps(placement, catalog, net);
        if self.cfg.mode == ScalingMode::Static {
            return Vec::new();
        }
        let mut actions = Vec::new();
        for i in 0..self.states.len() {
            let m = ServiceId(i as u32);
            let cap = self.caps[i];
            if cap == 0 {
                continue; // not deployed anywhere
            }
            let y = in_flight.get(i).copied().unwrap_or(0.0).max(0.0);
            let target = self.cfg.target_concurrency;
            let desired_inst = ceil_div(y, target);
            let keep_window = self.cfg.keep_alive.window(catalog, m, self.cold_start);

            let st = &mut self.states[i];
            st.samples.push((t, y));
            st.samples
                .retain(|&(ts, _)| ts >= t - self.cfg.stable_window);
            st.desires.push((t, desired_inst));
            if keep_window.is_finite() {
                st.desires.retain(|&(ts, _)| ts >= t - keep_window);
            }
            st.forecaster.observe(y);

            let stable_mean =
                st.samples.iter().map(|&(_, v)| v).sum::<f64>() / st.samples.len().max(1) as f64;
            let panic_max = st
                .samples
                .iter()
                .filter(|&&(ts, _)| ts >= t - self.cfg.panic_window)
                .map(|&(_, v)| v)
                .fold(0.0, f64::max);

            let current = self.counts.total_of(m);
            let mut desired = ceil_div(stable_mean, target);
            if self.cfg.mode == ScalingMode::Predictive {
                let predicted = st.forecaster.forecast(self.cfg.lead_ticks);
                desired = desired.max(ceil_div(predicted, target));
            }
            let desired_panic = ceil_div(panic_max, target);
            if desired_panic as f64 >= self.cfg.panic_factor * current.max(1) as f64 {
                st.panic_until = t + self.cfg.stable_window;
            }
            let in_panic = t < st.panic_until;
            if in_panic {
                desired = desired.max(desired_panic);
            }

            let floor = self.cfg.min_replicas.min(cap);
            desired = desired.clamp(floor, cap);

            if desired > current {
                self.up_events += 1;
                self.apply_total_into(m, desired, placement, catalog, net, &mut actions);
            } else if desired < current {
                if in_panic || t - st.last_down < self.cfg.down_cooldown {
                    continue;
                }
                // Keep-alive floor: don't reclaim replicas that were needed
                // within the keep-alive window (ski-rental break-even).
                let keep_floor = st
                    .desires
                    .iter()
                    .map(|&(_, d)| d)
                    .max()
                    .unwrap_or(0)
                    .min(cap);
                let target_count = desired.max(keep_floor).max(floor);
                if target_count < current {
                    self.states[i].last_down = t;
                    self.down_events += 1;
                    self.apply_total_into(m, target_count, placement, catalog, net, &mut actions);
                }
            }
        }
        actions
    }

    /// Freeze the scaler's full runtime state for checkpointing.
    pub fn state(&self) -> ScalerState {
        let services = self.counts.services();
        let nodes = self.counts.nodes();
        let mut counts = Vec::with_capacity(services * nodes);
        for i in 0..services {
            for k in 0..nodes {
                counts.push(self.counts.get(ServiceId(i as u32), NodeId(k as u32)));
            }
        }
        ScalerState {
            services,
            nodes,
            counts,
            caps: self.caps.clone(),
            states: self
                .states
                .iter()
                .map(|st| ServiceStateSnapshot {
                    samples: st.samples.clone(),
                    desires: st.desires.clone(),
                    forecaster: st.forecaster.state(),
                    last_down: st.last_down,
                    panic_until: st.panic_until,
                })
                .collect(),
            up_events: self.up_events,
            down_events: self.down_events,
            cold_start: self.cold_start,
        }
    }

    /// Replace the scaler's runtime state with a frozen one (the static
    /// config is kept — the caller reconstructs it from the run config and
    /// is responsible for it matching the checkpointed run's).
    ///
    /// # Errors
    /// Returns a message when the state's dimensions disagree with this
    /// scaler's grid or a forecaster state is corrupt.
    pub fn restore_state(&mut self, s: &ScalerState) -> Result<(), String> {
        let services = self.counts.services();
        let nodes = self.counts.nodes();
        if s.services != services || s.nodes != nodes {
            return Err(format!(
                "scaler state is {}x{}, this run is {services}x{nodes}",
                s.services, s.nodes
            ));
        }
        if s.counts.len() != services * nodes {
            return Err("scaler count grid has wrong cell count".to_string());
        }
        if s.caps.len() != services || s.states.len() != services {
            return Err("scaler per-service vectors have wrong length".to_string());
        }
        if !s.cold_start.is_finite() || s.cold_start < 0.0 {
            return Err("scaler cold_start invalid".to_string());
        }
        let mut states = Vec::with_capacity(s.states.len());
        for snap in &s.states {
            states.push(ServiceState {
                samples: snap.samples.clone(),
                desires: snap.desires.clone(),
                forecaster: socl_trace::Forecaster::from_state(snap.forecaster)?,
                last_down: snap.last_down,
                panic_until: snap.panic_until,
            });
        }
        let mut counts = ReplicaCounts::zero(services, nodes);
        for i in 0..services {
            for k in 0..nodes {
                let v = s.counts.get(i * nodes + k).copied().unwrap_or(0);
                counts.set(ServiceId(i as u32), NodeId(k as u32), v);
            }
        }
        self.counts = counts;
        self.caps = s.caps.clone();
        self.states = states;
        self.up_events = s.up_events;
        self.down_events = s.down_events;
        self.cold_start = s.cold_start;
        Ok(())
    }

    /// Recompute per-service capacity ceilings from the current placement.
    fn refresh_caps(&mut self, placement: &Placement, catalog: &ServiceCatalog, net: &EdgeNetwork) {
        for i in 0..self.caps.len() {
            let m = ServiceId(i as u32);
            self.caps[i] = placement.hosts_iter(m).fold(0u32, |acc, k| {
                acc.saturating_add(self.cell_ceiling(catalog, net, m, k))
            });
        }
    }

    /// Set `m`'s total replica count to `total`, water-filled across its
    /// hosts in node-id order (deterministic), each host capped at its
    /// cell ceiling. Per-cell actions are appended to `actions`.
    fn apply_total_into(
        &mut self,
        m: ServiceId,
        total: u32,
        placement: &Placement,
        catalog: &ServiceCatalog,
        net: &EdgeNetwork,
        actions: &mut Vec<ScalingAction>,
    ) {
        // The scratch buffers move out of `self` for the duration (they are
        // dead between calls) so `self` stays borrowable for `cell_ceiling`
        // and `counts` below.
        let mut hosts = std::mem::take(&mut self.fill_hosts);
        let mut ceilings = std::mem::take(&mut self.fill_ceil);
        let mut alloc = std::mem::take(&mut self.fill_alloc);
        hosts.clear();
        hosts.extend(placement.hosts_iter(m));
        ceilings.clear();
        for &k in &hosts {
            ceilings.push(self.cell_ceiling(catalog, net, m, k));
        }
        let capacity: u32 = ceilings.iter().fold(0u32, |a, &c| a.saturating_add(c));
        let mut remaining = total.min(capacity);
        // Water-fill one replica per host per round, in node-id order:
        // spreads load evenly and deterministically across hosts.
        alloc.clear();
        alloc.resize(hosts.len(), 0);
        while remaining > 0 {
            let mut progressed = false;
            for (a, &c) in alloc.iter_mut().zip(&ceilings) {
                if remaining == 0 {
                    break;
                }
                if *a < c {
                    *a += 1;
                    remaining -= 1;
                    progressed = true;
                }
            }
            if !progressed {
                break;
            }
        }
        for ((&k, &c), &new) in hosts.iter().zip(&ceilings).zip(&alloc) {
            let _ = c;
            let before = self.counts.get(m, k);
            if before != new {
                actions.push(ScalingAction {
                    service: m,
                    node: k,
                    before,
                    after: new,
                });
                self.counts.set(m, k, new);
            }
        }
        self.fill_hosts = hosts;
        self.fill_ceil = ceilings;
        self.fill_alloc = alloc;
    }
}

/// `ceil(num / den)` as a saturating u32, for non-negative float inputs.
fn ceil_div(num: f64, den: f64) -> u32 {
    let v = (num / den).ceil();
    if v <= 0.0 {
        0
    } else if v >= u32::MAX as f64 {
        u32::MAX
    } else {
        v as u32
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::{AdmissionPolicy, KeepAlivePolicy};
    use socl_model::Microservice;
    use socl_net::{EdgeServer, LinkParams};

    /// Two services, three nodes, services deployed on nodes {0,1}.
    fn fixture() -> (ServiceCatalog, EdgeNetwork, Placement) {
        let catalog = ServiceCatalog::from_services(vec![
            Microservice::new(100.0, 1.0, 1.0),
            Microservice::new(200.0, 2.0, 1.0),
        ]);
        let mut net = EdgeNetwork::new();
        for _ in 0..3 {
            net.push_server(EdgeServer::new(10.0, 6.0));
        }
        net.add_link(NodeId(0), NodeId(1), LinkParams::from_rate(1.0));
        net.add_link(NodeId(1), NodeId(2), LinkParams::from_rate(1.0));
        let mut p = Placement::empty(2, 3);
        p.set(ServiceId(0), NodeId(0), true);
        p.set(ServiceId(0), NodeId(1), true);
        p.set(ServiceId(1), NodeId(1), true);
        (catalog, net, p)
    }

    fn cfg() -> AutoscaleConfig {
        AutoscaleConfig {
            stable_window: 10.0,
            panic_window: 4.0,
            scale_interval: 1.0,
            down_cooldown: 5.0,
            min_replicas: 0,
            max_replicas_per_node: 4,
            keep_alive: KeepAlivePolicy::Fixed(3.0),
            ..AutoscaleConfig::default()
        }
    }

    #[test]
    fn seed_matches_placement_then_honors_min_replicas() {
        let (catalog, net, p) = fixture();
        let mut sc = Autoscaler::new(cfg(), 0.5, 2, 3);
        sc.seed_from_placement(&p, &catalog, &net);
        assert_eq!(sc.counts().total_of(ServiceId(0)), 2);
        assert_eq!(sc.counts().total_of(ServiceId(1)), 1);

        let mut pinned = Autoscaler::new(
            AutoscaleConfig {
                min_replicas: 3,
                ..cfg()
            },
            0.5,
            2,
            3,
        );
        pinned.seed_from_placement(&p, &catalog, &net);
        assert_eq!(pinned.counts().total_of(ServiceId(0)), 3);
        assert_eq!(pinned.counts().total_of(ServiceId(1)), 3);
    }

    #[test]
    fn max_scale_seed_fills_the_capacity_ceiling() {
        let (catalog, net, p) = fixture();
        let mut sc = Autoscaler::new(AutoscaleConfig::max_scale(), 0.5, 2, 3);
        sc.seed_from_placement(&p, &catalog, &net);
        // Service 0: two hosts, each min(8, floor(6/1)=6) -> but max_scale
        // uses default max_replicas_per_node 8, storage bound 6 -> 12 total.
        assert_eq!(sc.counts().total_of(ServiceId(0)), 12);
        // Service 1: one host, min(8, floor(6/2)=3) = 3.
        assert_eq!(sc.counts().total_of(ServiceId(1)), 3);
    }

    #[test]
    fn sustained_load_scales_up_to_meet_the_target() {
        let (catalog, net, p) = fixture();
        let mut sc = Autoscaler::new(cfg(), 0.5, 2, 3);
        sc.seed_from_placement(&p, &catalog, &net);
        // 8 concurrent on service 0 with target 2.0 -> wants 4 replicas.
        let mut t = 0.0;
        for _ in 0..12 {
            sc.tick(t, &[8.0, 0.0], &p, &catalog, &net);
            t += 1.0;
        }
        assert_eq!(sc.counts().total_of(ServiceId(0)), 4);
        // Water-filled evenly over the two hosts.
        assert_eq!(sc.counts().get(ServiceId(0), NodeId(0)), 2);
        assert_eq!(sc.counts().get(ServiceId(0), NodeId(1)), 2);
    }

    #[test]
    fn replicas_never_exceed_the_cell_ceiling() {
        let (catalog, net, p) = fixture();
        let mut sc = Autoscaler::new(cfg(), 0.5, 2, 3);
        sc.seed_from_placement(&p, &catalog, &net);
        let mut t = 0.0;
        for _ in 0..30 {
            sc.tick(t, &[1e6, 1e6], &p, &catalog, &net);
            t += 1.0;
        }
        // Service 0: 2 hosts x min(4, 6) = 8 total cap.
        assert_eq!(sc.counts().total_of(ServiceId(0)), 8);
        for k in 0..3 {
            assert!(sc.counts().get(ServiceId(0), NodeId(k)) <= 4);
        }
        // Service 1: 1 host x min(4, floor(6/2)=3) = 3.
        assert_eq!(sc.counts().total_of(ServiceId(1)), 3);
    }

    #[test]
    fn idle_service_scales_to_zero_after_keepalive_and_cooldown() {
        let (catalog, net, p) = fixture();
        let mut sc = Autoscaler::new(cfg(), 0.5, 2, 3);
        sc.seed_from_placement(&p, &catalog, &net);
        let mut t = 0.0;
        for _ in 0..40 {
            sc.tick(t, &[0.0, 0.0], &p, &catalog, &net);
            t += 1.0;
        }
        assert_eq!(sc.counts().total_of(ServiceId(0)), 0);
        assert_eq!(sc.counts().total(), 0);
        let (_, downs) = sc.events();
        assert!(downs >= 1);
    }

    #[test]
    fn min_replicas_blocks_scale_to_zero() {
        let (catalog, net, p) = fixture();
        let mut sc = Autoscaler::new(
            AutoscaleConfig {
                min_replicas: 1,
                ..cfg()
            },
            0.5,
            2,
            3,
        );
        sc.seed_from_placement(&p, &catalog, &net);
        let mut t = 0.0;
        for _ in 0..40 {
            sc.tick(t, &[0.0, 0.0], &p, &catalog, &net);
            t += 1.0;
        }
        assert_eq!(sc.counts().total_of(ServiceId(0)), 1);
        assert_eq!(sc.counts().total_of(ServiceId(1)), 1);
    }

    #[test]
    fn keep_alive_floor_delays_scale_down() {
        let (catalog, net, p) = fixture();
        let mut sc = Autoscaler::new(
            AutoscaleConfig {
                keep_alive: KeepAlivePolicy::Fixed(20.0),
                down_cooldown: 0.0,
                ..cfg()
            },
            0.5,
            2,
            3,
        );
        sc.seed_from_placement(&p, &catalog, &net);
        // Burst to 4 replicas...
        let mut t = 0.0;
        for _ in 0..12 {
            sc.tick(t, &[8.0, 0.0], &p, &catalog, &net);
            t += 1.0;
        }
        assert_eq!(sc.counts().total_of(ServiceId(0)), 4);
        // ...then go idle: within the 20 s keep-alive window the replicas
        // stay warm even though desired has collapsed.
        for _ in 0..10 {
            sc.tick(t, &[0.0, 0.0], &p, &catalog, &net);
            t += 1.0;
        }
        assert_eq!(sc.counts().total_of(ServiceId(0)), 4);
        // Past the window they are reclaimed.
        for _ in 0..30 {
            sc.tick(t, &[0.0, 0.0], &p, &catalog, &net);
            t += 1.0;
        }
        assert_eq!(sc.counts().total_of(ServiceId(0)), 0);
    }

    #[test]
    fn panic_mode_reacts_to_a_flash_crowd_within_one_tick() {
        let (catalog, net, p) = fixture();
        let mut sc = Autoscaler::new(cfg(), 0.5, 2, 3);
        sc.seed_from_placement(&p, &catalog, &net);
        // Long calm phase fills the stable window with zeros.
        let mut t = 0.0;
        for _ in 0..20 {
            sc.tick(t, &[0.1, 0.0], &p, &catalog, &net);
            t += 1.0;
        }
        let before = sc.counts().total_of(ServiceId(0));
        // One flash-crowd sample: stable mean barely moves, but the panic
        // window's max fires immediately.
        sc.tick(t, &[12.0, 0.0], &p, &catalog, &net);
        let after = sc.counts().total_of(ServiceId(0));
        assert!(
            after >= before + 3,
            "panic should jump replicas: {before} -> {after}"
        );
    }

    #[test]
    fn static_mode_never_emits_actions() {
        let (catalog, net, p) = fixture();
        let mut sc = Autoscaler::new(
            AutoscaleConfig {
                mode: ScalingMode::Static,
                ..cfg()
            },
            0.5,
            2,
            3,
        );
        sc.seed_from_placement(&p, &catalog, &net);
        let mut t = 0.0;
        for _ in 0..20 {
            let actions = sc.tick(t, &[50.0, 50.0], &p, &catalog, &net);
            assert!(actions.is_empty());
            t += 1.0;
        }
        assert_eq!(sc.counts().total_of(ServiceId(0)), 2);
    }

    #[test]
    fn predictive_mode_leads_a_ramp() {
        let (catalog, net, p) = fixture();
        let mk = |mode| {
            let mut sc = Autoscaler::new(
                AutoscaleConfig {
                    mode,
                    lead_ticks: 4.0,
                    ..cfg()
                },
                0.5,
                2,
                3,
            );
            sc.seed_from_placement(&p, &catalog, &net);
            sc
        };
        let mut reactive = mk(ScalingMode::Reactive);
        let mut predictive = mk(ScalingMode::Predictive);
        // A steady ramp: in-flight grows 1 per tick.
        let mut t = 0.0;
        for i in 0..8 {
            let y = i as f64;
            reactive.tick(t, &[y, 0.0], &p, &catalog, &net);
            predictive.tick(t, &[y, 0.0], &p, &catalog, &net);
            t += 1.0;
        }
        assert!(
            predictive.counts().total_of(ServiceId(0)) > reactive.counts().total_of(ServiceId(0)),
            "predictive {} should lead reactive {}",
            predictive.counts().total_of(ServiceId(0)),
            reactive.counts().total_of(ServiceId(0))
        );
    }

    #[test]
    fn scaling_timeline_is_bit_identical_across_runs() {
        let (catalog, net, p) = fixture();
        let run = || {
            let mut sc = Autoscaler::new(cfg(), 0.5, 2, 3);
            sc.seed_from_placement(&p, &catalog, &net);
            let mut timeline = Vec::new();
            let mut t = 0.0;
            for i in 0..50 {
                let y = ((i * 13) % 17) as f64;
                let actions = sc.tick(t, &[y, y * 0.5], &p, &catalog, &net);
                timeline.extend(actions);
                t += 1.0;
            }
            timeline
        };
        assert_eq!(run(), run());
    }

    #[test]
    fn frozen_state_roundtrips_and_continues_bit_identically() {
        let (catalog, net, p) = fixture();
        let mut sc = Autoscaler::new(cfg(), 0.5, 2, 3);
        sc.seed_from_placement(&p, &catalog, &net);
        let mut t = 0.0;
        for i in 0..17 {
            let y = ((i * 13) % 17) as f64;
            sc.tick(t, &[y, y * 0.5], &p, &catalog, &net);
            t += 1.0;
        }
        // Clone-free restore into a freshly constructed scaler.
        let frozen = sc.state();
        let mut restored = Autoscaler::new(cfg(), 0.5, 2, 3);
        restored.restore_state(&frozen).unwrap();
        assert_eq!(restored.state(), frozen);
        assert_eq!(restored.events(), sc.events());
        // Future ticks are indistinguishable.
        for i in 17..40 {
            let y = ((i * 13) % 17) as f64;
            let a = sc.tick(t, &[y, y * 0.5], &p, &catalog, &net);
            let b = restored.tick(t, &[y, y * 0.5], &p, &catalog, &net);
            assert_eq!(a, b, "tick {i} diverged after restore");
            t += 1.0;
        }
        assert_eq!(sc.state(), restored.state());
    }

    #[test]
    fn restore_state_rejects_mismatched_dimensions() {
        let (catalog, net, p) = fixture();
        let mut sc = Autoscaler::new(cfg(), 0.5, 2, 3);
        sc.seed_from_placement(&p, &catalog, &net);
        let frozen = sc.state();
        let mut wrong = Autoscaler::new(cfg(), 0.5, 3, 3);
        assert!(wrong.restore_state(&frozen).is_err());
        let mut truncated = frozen.clone();
        truncated.caps.pop();
        assert!(sc.restore_state(&truncated).is_err());
        let mut corrupt = frozen.clone();
        if let Some(st) = corrupt.states.first_mut() {
            st.forecaster.alpha = 7.0;
        }
        assert!(sc.restore_state(&corrupt).is_err());
        // The good state still restores after the failed attempts.
        assert!(sc.restore_state(&frozen).is_ok());
    }

    #[test]
    fn confirm_overrides_optimistic_counts() {
        let (catalog, net, p) = fixture();
        let mut sc = Autoscaler::new(cfg(), 0.5, 2, 3);
        sc.seed_from_placement(&p, &catalog, &net);
        sc.confirm(ServiceId(0), NodeId(0), 3);
        assert_eq!(sc.counts().get(ServiceId(0), NodeId(0)), 3);
        assert_eq!(sc.counts().total_of(ServiceId(0)), 4);
    }

    #[test]
    fn admission_is_open_when_disabled_and_sheds_overload_when_enabled() {
        let (catalog, net, p) = fixture();
        let mut sc = Autoscaler::new(cfg(), 0.5, 2, 3);
        sc.seed_from_placement(&p, &catalog, &net);
        // Disabled by default: admits anything.
        assert!(sc.admit(ServiceId(0), 12, 1e9));

        let mut strict = Autoscaler::new(
            AutoscaleConfig {
                admission: AdmissionPolicy {
                    enabled: true,
                    queue_limit: 2.0,
                    classes: 2,
                    strict_overload: 2.0,
                },
                ..cfg()
            },
            0.5,
            2,
            3,
        );
        strict.seed_from_placement(&p, &catalog, &net);
        // Service 0 capacity 8, queue_limit 2 -> overload 1.0 at 16.
        assert!(strict.admit(ServiceId(0), 1, 10.0)); // below capacity
        assert!(!strict.admit(ServiceId(0), 12, 17.0)); // low class sheds at 1.0
        assert!(strict.admit(ServiceId(0), 1, 17.0)); // high class holds on
        assert!(!strict.admit(ServiceId(0), 1, 33.0)); // strict limit sheds all
    }
}
