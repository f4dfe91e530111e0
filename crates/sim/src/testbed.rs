//! Discrete-event testbed emulator (the Kubernetes-cluster stand-in).
//!
//! The paper's Section V.C runs RP/JDR/SoCL placements on a 17-machine
//! cluster and records per-request latency. This emulator reproduces the
//! measurement pipeline:
//!
//! * requests arrive with uniform jitter inside each epoch (the paper's
//!   "users issued requests every 5 minutes on average"),
//! * every chain stage queues FIFO on its host's CPU (service time
//!   `q(m)/c(v)`, non-preemptive) — contention is real: two requests on one
//!   node wait on each other, which is how unbalanced placements (RP) grow
//!   latency spikes,
//! * transfers between stages are delayed by the routed path's bandwidth,
//! * serverless cold starts: an instance idle for longer than `keep_warm`
//!   pays `cold_start` before serving (warm instances nearby — SoCL's
//!   storage-planning goal — avoid this).
//!
//! Routing follows the exact per-request DP for the placement under test;
//! with the default (fault-free) configuration the emulator behaves exactly
//! as the original pipeline.
//!
//! # Fault injection, retries, hedging
//!
//! A [`FaultSchedule`] can be replayed mid-run: node crashes wipe the
//! victim's queue and fail its in-flight work (the radio keeps forwarding —
//! only the compute is lost), link degradations stretch transfer times (one
//! [`ApspCache`] re-derives the all-pairs paths at every link-state
//! change), instance cold-kills force the next request to pay the cold
//! start again, and request losses drop an in-flight transfer.
//!
//! The dispatcher reacts through a [`RetryPolicy`]: per-stage attempt
//! timeouts, bounded retries with exponential backoff and deterministic
//! jitter, and hedged dispatch — when the chosen replica's predicted
//! completion exceeds `hedge_after`, the dispatcher dry-runs a duplicate on
//! the next-best replica and commits whichever copy is predicted to win
//! (an analytic stand-in for racing both copies that avoids double queue
//! occupancy; the duplicate's dispatch is delayed by the hedge threshold,
//! as a real hedger only fires after waiting that long). Attempt 0 follows
//! the DP-optimal route blindly — liveness is only discovered when the data
//! arrives, as on a real cluster — so *retries are the failover mechanism*:
//! they re-dispatch to the best alive replica by predicted completion.
//! A scheduled request loss claims the victim user's next transfer at or
//! after the loss instant (each loss fails exactly one attempt).
//!
//! When every replica of a service is dead, or retries are exhausted, the
//! request degrades to the cloud (counted, never silently lost) unless
//! `degrade_to_cloud` is off, in which case it is dropped. Every issued
//! request ends in exactly one outcome and the conservation identity
//! `completed + degraded + dropped + fallbacks + shed == issued` is
//! enforced by property tests.
//!
//! # Replica pools and the serverless control plane
//!
//! Each deployed `(service, node)` cell holds a pool of replicas, and every
//! stage is served by one of them. Without [`TestbedConfig::autoscale`] the
//! pools are static: one cold replica per deployed cell, and the replicas
//! on a node share its one CPU (a stage holds every replica on its node
//! until it is done), which is the paper's cluster. With it, the
//! [`Autoscaler`] sizes the pools mid-run from observed concurrency and
//! each replica is an isolated container serving at the node's rate
//! `c(v)`: scaled-up replicas boot cold (their first request pays
//! `cold_start`), scale-downs reclaim only idle replicas, a request
//! landing on a scaled-to-zero cell boots one on demand rather than being
//! stranded, and admission control (priority-classed shedding, counted in
//! `shed_requests`) runs at each request's arrival event against live
//! in-flight state. The whole control loop is seeded-deterministic: same
//! seed and config, same scaling timeline, at any `--threads`.

use crate::faults::{FaultSchedule, FaultTimeline};
use socl_autoscale::{AutoscaleConfig, Autoscaler};
use socl_model::{optimal_route, Placement, ReplicaCounts, RouteOutcome, Scenario};
use socl_net::rng::ChaCha12Rng;
use socl_net::{AllPairs, ApspCache, NodeId};
use std::cmp::Ordering;
use std::collections::BinaryHeap;

/// Backoff before the first retry of a stage, in seconds.
const BACKOFF_BASE: f64 = 0.05;
/// Multiplicative backoff growth per attempt.
const BACKOFF_FACTOR: f64 = 2.0;
/// Uniform jitter fraction applied to each backoff, drawn from the run's
/// seeded RNG, so runs stay deterministic.
const BACKOFF_JITTER: f64 = 0.2;

/// Dispatcher policy for failed or slow stage attempts.
#[derive(Debug, Clone)]
pub struct RetryPolicy {
    /// Per-attempt timeout in seconds, measured from dispatch to stage
    /// completion (transfer + queue + service). `f64::INFINITY` disables.
    pub timeout: f64,
    /// Retries allowed per stage after the first attempt (0 disables),
    /// each after a jittered exponential backoff (50 ms, doubling per
    /// attempt, ±20 %).
    pub max_retries: usize,
    /// Hedged dispatch: when the chosen replica's predicted completion lies
    /// more than this many seconds after dispatch, dry-run a duplicate on
    /// the next-best replica and commit the predicted winner. `None`
    /// disables.
    pub hedge_after: Option<f64>,
}

impl Default for RetryPolicy {
    /// Everything disabled — the fault-free testbed behaves exactly as the
    /// original (pre-fault) emulator.
    fn default() -> Self {
        Self {
            timeout: f64::INFINITY,
            max_retries: 0,
            hedge_after: None,
        }
    }
}

impl RetryPolicy {
    /// A production-ish policy: 3 retries, 30 s attempt timeout, hedging
    /// after 2 s.
    pub fn resilient() -> Self {
        Self {
            timeout: 30.0,
            max_retries: 3,
            hedge_after: Some(2.0),
        }
    }

    /// True when neither timeouts, retries, nor hedging are active.
    pub fn is_disabled(&self) -> bool {
        self.timeout.is_infinite() && self.max_retries == 0 && self.hedge_after.is_none()
    }
}

/// Emulator parameters.
#[derive(Debug, Clone)]
pub struct TestbedConfig {
    /// Number of epochs to run.
    pub epochs: usize,
    /// Epoch length in seconds (paper: 5 minutes).
    pub epoch_secs: f64,
    /// Cold-start penalty in seconds for an instance gone cold.
    pub cold_start: f64,
    /// Idle time after which an instance goes cold.
    pub keep_warm: f64,
    /// Arrival jitter seed.
    pub seed: u64,
    /// Mid-run fault schedule (empty = the original fault-free emulator).
    pub faults: FaultSchedule,
    /// Dispatcher retry/timeout/hedging policy.
    pub retry: RetryPolicy,
    /// Graceful degradation: when a request's next stage has no alive
    /// replica (or retries are exhausted), serve it from the cloud at the
    /// scenario's `cloud_penalty` instead of dropping it.
    pub degrade_to_cloud: bool,
    /// Serverless control plane. `None` keeps static pools: one replica per
    /// deployed `(service, node)` cell, the replicas on a node sharing its
    /// one CPU. `Some` sizes each cell's **replica pool** with the
    /// [`Autoscaler`]: each replica is an isolated container serving at the
    /// node's rate `c(v)`, scaled-up replicas boot cold, scale-downs reclaim
    /// only idle replicas, and a request landing on a scaled-to-zero cell
    /// boots one on demand (it is never stranded — it pays the cold start
    /// instead).
    pub autoscale: Option<AutoscaleConfig>,
    /// Requests issued per epoch (diurnal load shaping). `None` keeps the
    /// paper's workload — every user issues exactly one request per epoch.
    /// `Some(v)` issues `v[e]` requests in epoch `e` (the last entry
    /// repeats if the run is longer), each from a seeded-uniformly chosen
    /// user, which is how the autoscale bench replays a diurnal trace with
    /// a flash crowd.
    pub epoch_arrivals: Option<Vec<usize>>,
}

impl Default for TestbedConfig {
    fn default() -> Self {
        Self {
            epochs: 1,
            epoch_secs: 300.0,
            cold_start: 0.5,
            keep_warm: 600.0,
            seed: 0,
            faults: FaultSchedule::empty(),
            retry: RetryPolicy::default(),
            degrade_to_cloud: true,
            autoscale: None,
            epoch_arrivals: None,
        }
    }
}

/// Measured latencies and per-request outcome accounting.
#[derive(Debug, Clone, PartialEq)]
pub struct TestbedResult {
    /// End-to-end latency per (epoch, request), seconds; `None` for cloud
    /// fallbacks and for requests degraded or dropped mid-flight.
    pub per_request: Vec<Option<f64>>,
    /// Mean latency per epoch (fallbacks/degraded/dropped excluded).
    pub per_epoch_mean: Vec<f64>,
    /// Global mean and max over edge-served requests.
    pub mean: f64,
    pub max: f64,
    /// Cold starts incurred.
    pub cold_starts: usize,
    /// Requests that had no edge route at issue time (placement gap).
    pub fallbacks: usize,
    /// Requests issued in total (epochs × users).
    pub issued: usize,
    /// Requests served end-to-end on the edge.
    pub completed: usize,
    /// Stage retry attempts dispatched.
    pub retried: usize,
    /// Hedged duplicates that were committed over the primary.
    pub hedged: usize,
    /// Attempts abandoned on timeout.
    pub timeouts: usize,
    /// Requests that fell back to the cloud mid-flight (dead replicas or
    /// exhausted retries, with `degrade_to_cloud` on).
    pub degraded: usize,
    /// Requests lost outright (`degrade_to_cloud` off).
    pub dropped: usize,
    /// Fraction of issued requests served end-to-end on the edge.
    pub availability: f64,
    /// Mean node outage duration within the run horizon, seconds.
    pub mttr: f64,
    /// Service-level scale-up decisions taken by the autoscaler (0 when
    /// the control plane is off).
    pub scale_up_events: usize,
    /// Service-level scale-down decisions taken by the autoscaler.
    pub scale_down_events: usize,
    /// Requests refused by admission control at issue time.
    pub shed_requests: usize,
    /// Billed warm-pool integral Σ replicas × seconds over the run horizon
    /// — the Eq. 1 deployment-cost proxy the keep-alive economics trade
    /// against cold starts. 0 when the control plane is off.
    pub replica_seconds: f64,
}

impl TestbedResult {
    /// `p`-quantile of served-request latencies (seconds); 0 when nothing
    /// was served.
    pub fn latency_percentile(&self, p: f64) -> f64 {
        let served: Vec<f64> = self.per_request.iter().flatten().copied().collect();
        socl_model::stats::percentile(&served, p)
    }

    /// Mean completion time with degraded, dropped, **and shed** requests
    /// charged `cloud_penalty` seconds each — the delay a user actually
    /// experiences under faults and overload (0 when nothing beyond
    /// fallbacks was issued). Shed requests are charged exactly like
    /// degraded ones: admission control turns them away at the edge, so
    /// the user retries against the cloud and pays its penalty — shedding
    /// is never free in the reported means.
    pub fn effective_mean(&self, cloud_penalty: f64) -> f64 {
        let served: f64 = self.per_request.iter().flatten().sum();
        let cloud_bound = self.degraded + self.dropped + self.shed_requests;
        let charged = self.completed + cloud_bound;
        if charged == 0 {
            return 0.0;
        }
        (served + cloud_bound as f64 * cloud_penalty) / charged as f64
    }
}

#[derive(Debug, Clone, Copy)]
struct Event {
    /// Arrival of the stage's input data at `node` (or, for arrival
    /// events, the instant the request is issued at the user's station).
    time: f64,
    /// Request index within the flattened (epoch × request) list.
    job: usize,
    /// Chain stage about to be *served*.
    stage: usize,
    /// Attempt number for this stage (0 = first).
    attempt: usize,
    /// Serving node for this attempt.
    node: u32,
    /// Node (or user location) the data was sent from.
    from: u32,
    /// Time the attempt was dispatched (timeout baseline).
    dispatch: f64,
    /// Request issue event: runs admission (with a control plane) and
    /// makes the first attempt at stage 0, against the live queues.
    is_arrival: bool,
}

impl PartialEq for Event {
    fn eq(&self, other: &Self) -> bool {
        self.time == other.time
            && self.job == other.job
            && self.stage == other.stage
            && self.attempt == other.attempt
            && self.node == other.node
            && self.is_arrival == other.is_arrival
    }
}
impl Eq for Event {}
impl Ord for Event {
    fn cmp(&self, other: &Self) -> Ordering {
        // Min-heap by time, deterministic tie-breaks; at equal keys an
        // arrival (issue) event runs before serve events.
        other
            .time
            .total_cmp(&self.time)
            .then(other.job.cmp(&self.job))
            .then(other.stage.cmp(&self.stage))
            .then(other.attempt.cmp(&self.attempt))
            .then(other.node.cmp(&self.node))
            .then(self.is_arrival.cmp(&other.is_arrival))
    }
}
impl PartialOrd for Event {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}

/// Terminal outcome of one issued request.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Outcome {
    Fallback,
    Completed,
    Degraded,
    Dropped,
    /// Refused by admission control at issue time.
    Shed,
}

/// Why a serve attempt failed.
#[derive(Debug, Clone, Copy)]
enum FailReason {
    /// In-flight transfer lost (consumes the indexed RequestLoss fault).
    Loss(usize),
    /// Serving node down on arrival, or crashed while queued/serving;
    /// carries the recovery time (∞ if it never comes back).
    NodeDown { recover_at: f64 },
    /// Attempt exceeded the per-stage timeout.
    Timeout,
}

/// Result of assessing one serve attempt (pure — nothing committed).
struct Assessment {
    done: f64,
    cold: bool,
    /// `Some((detect_time, reason))` when the attempt fails.
    fail: Option<(f64, FailReason)>,
    /// Index of the chosen replica in its cell's pool; `usize::MAX` when
    /// the cell is scaled to zero and a replica must be booted on demand.
    replica: usize,
}

struct Job {
    user: usize,
    arrival: f64,
    epoch: usize,
}

/// One container in a `(service, node)` replica pool.
#[derive(Debug, Clone, Copy)]
struct Replica {
    /// When its current request (if any) finishes.
    free_at: f64,
    /// When it last finished serving (`-inf` for a never-used cold boot).
    last_done: f64,
}

/// Serverless control plane: the scaler and the bookkeeping it reads.
struct ControlPlane {
    scaler: Autoscaler,
    /// Pending serve attempts per service (dispatched, data not yet
    /// arrived at the serving node).
    inflight: Vec<usize>,
    /// Scheduled completion times of committed stage executions, per
    /// service; entries in the future are work currently queued on or
    /// being served by a replica. Together with `inflight` this is the
    /// concurrency signal the scaler targets and the shedder measures
    /// overload against (pruned lazily at tick time).
    completions: Vec<Vec<f64>>,
    /// Next scaler tick time.
    next_tick: f64,
    /// Billed warm-pool integral Σ replicas × seconds, up to `last_change`.
    replica_seconds: f64,
    last_change: f64,
}

impl ControlPlane {
    /// Fold the pool-size integral forward to `t` (call *before* any
    /// replica-count change).
    fn account(&mut self, t: f64) {
        let total = self.scaler.counts().total();
        self.replica_seconds += total as f64 * (t - self.last_change).max(0.0);
        self.last_change = self.last_change.max(t);
    }

    /// Observed concurrency of service `i` at time `t`: attempts in
    /// transfer plus executions that finish after `t`.
    fn observed_load(&self, i: usize, t: f64) -> f64 {
        (self.inflight[i] + self.completions[i].iter().filter(|&&d| d > t).count()) as f64
    }
}

struct Engine<'a> {
    sc: &'a Scenario,
    placement: &'a Placement,
    cfg: &'a TestbedConfig,
    timeline: FaultTimeline,
    /// Link-state snapshots: `(valid_from, all_pairs)` sorted by time.
    aps: Vec<(f64, AllPairs)>,
    routes: Vec<Option<Vec<NodeId>>>,
    jobs: Vec<Job>,
    heap: BinaryHeap<Event>,
    rng: ChaCha12Rng,
    /// Replica pools indexed by `service.idx() * nodes + node.idx()`.
    pools: Vec<Vec<Replica>>,
    loss_used: Vec<bool>,
    outcome: Vec<Option<Outcome>>,
    frontier: Vec<usize>,
    per_request: Vec<Option<f64>>,
    cold_starts: usize,
    retried: usize,
    hedged: usize,
    timeouts: usize,
    /// Serverless control plane; `None` = static pools on one CPU a node.
    control: Option<ControlPlane>,
}

impl<'a> Engine<'a> {
    /// The all-pairs snapshot in force at time `t`.
    fn ap_at(&self, t: f64) -> &AllPairs {
        let mut best = &self.aps[0].1;
        for (from, ap) in &self.aps {
            if *from <= t {
                best = ap;
            } else {
                break;
            }
        }
        best
    }

    fn service_of(&self, job: usize, stage: usize) -> socl_model::ServiceId {
        self.sc.requests[self.jobs[job].user].chain[stage]
    }

    /// Payload size entering `stage` of `job`'s chain.
    fn stage_data(&self, job: usize, stage: usize) -> f64 {
        let req = &self.sc.requests[self.jobs[job].user];
        if stage == 0 {
            req.r_in
        } else {
            req.edge_data[stage - 1]
        }
    }

    /// Nominal service time (no cold start) of `stage` on `node`.
    fn exec_time(&self, job: usize, stage: usize, node: NodeId) -> f64 {
        self.sc.catalog.compute_gflop(self.service_of(job, stage))
            / self.sc.net.compute_gflops(node)
    }

    /// First unconsumed RequestLoss for `user` scheduled at or before
    /// `t1`: a loss claims the user's next transfer after its instant.
    fn find_loss(&self, user: usize, t1: f64) -> Option<usize> {
        self.timeline
            .losses()
            .iter()
            .enumerate()
            .find(|&(i, &(t, u))| !self.loss_used[i] && u == user && t <= t1)
            .map(|(i, _)| i)
    }

    /// Pure assessment of serving `stage` of `job` on `node`, with data
    /// dispatched at `dispatch` and arriving at `arrival`.
    fn assess(
        &self,
        job: usize,
        stage: usize,
        node: NodeId,
        dispatch: f64,
        arrival: f64,
    ) -> Assessment {
        let user = self.jobs[job].user;
        if let Some(idx) = self.find_loss(user, arrival) {
            // The packet vanishes in flight; the failure is only detected
            // at the expected arrival time.
            return Assessment {
                done: arrival,
                cold: false,
                fail: Some((arrival, FailReason::Loss(idx))),
                replica: 0,
            };
        }
        let svc = self.service_of(job, stage);
        let wi = svc.idx() * self.sc.nodes() + node.idx();
        // Serve on the replica that frees up first (index tie-break); a
        // scaled-to-zero cell boots a replica on demand.
        let (replica, queue_free, last) = match self.pools[wi]
            .iter()
            .enumerate()
            .min_by(|a, b| a.1.free_at.total_cmp(&b.1.free_at).then(a.0.cmp(&b.0)))
        {
            Some((ix, r)) => (ix, r.free_at, r.last_done),
            None => (usize::MAX, arrival, f64::NEG_INFINITY),
        };
        let cold = arrival - last > self.cfg.keep_warm
            || self.timeline.killed_between(svc, node, last, arrival)
            || self
                .timeline
                .down_overlap(node, last.max(0.0), arrival)
                .is_some();
        if self.timeline.is_down(node, arrival) {
            return Assessment {
                done: arrival,
                cold,
                fail: Some((
                    arrival,
                    FailReason::NodeDown {
                        recover_at: self.timeline.next_up(node, arrival),
                    },
                )),
                replica,
            };
        }
        let mut service_time = self.exec_time(job, stage, node);
        if cold {
            service_time += self.cfg.cold_start;
        }
        let start = arrival.max(queue_free);
        let done = start + service_time;
        let crash = self
            .timeline
            .down_overlap(node, arrival, done)
            .map(|(a, b)| (arrival.max(a), b));
        let timeout_at = dispatch + self.cfg.retry.timeout;
        let fail = match (crash, done > timeout_at) {
            (Some((at, rec)), true) if at <= timeout_at => {
                Some((at, FailReason::NodeDown { recover_at: rec }))
            }
            (_, true) => Some((timeout_at, FailReason::Timeout)),
            (Some((at, rec)), false) => Some((at, FailReason::NodeDown { recover_at: rec })),
            (None, false) => None,
        };
        Assessment {
            done,
            cold,
            fail,
            replica,
        }
    }

    /// Commit a successful attempt: consume the queue slot and warmth.
    /// `arrival` is when the stage's data reached the node (pool-size
    /// accounting instant for on-demand boots).
    fn commit(&mut self, job: usize, stage: usize, node: NodeId, arrival: f64, a: &Assessment) {
        let svc = self.service_of(job, stage);
        let nodes = self.sc.nodes();
        let wi = svc.idx() * nodes + node.idx();
        if a.cold {
            self.cold_starts += 1;
        }
        let served = Replica {
            free_at: a.done,
            last_done: a.done,
        };
        match self.control.as_mut() {
            // Static pools share the node's one CPU (the paper's FIFO
            // queue): the stage holds every replica on the node until done.
            None => {
                for cell in self.pools.iter_mut().skip(node.idx()).step_by(nodes) {
                    for r in cell {
                        r.free_at = a.done;
                    }
                }
            }
            Some(cp) => {
                cp.completions[svc.idx()].push(a.done);
                if a.replica == usize::MAX {
                    // On-demand boot of a scaled-to-zero cell: the platform
                    // starts one replica (the request just paid its cold
                    // start) and the scaler now owns it.
                    cp.account(arrival);
                    self.pools[wi].push(served);
                    cp.scaler.confirm(svc, node, 1);
                    return;
                }
            }
        }
        self.pools[wi][a.replica] = served;
    }

    /// Alive replicas of `stage`'s service at time `t`, ordered by
    /// predicted completion from `from` (transfer + queue wait + service),
    /// node index tie-break. Used for retry failover and hedge backups.
    fn candidates(&self, job: usize, stage: usize, from: NodeId, t: f64) -> Vec<NodeId> {
        let svc = self.service_of(job, stage);
        let r = self.stage_data(job, stage);
        let ap = self.ap_at(t);
        let mut alive: Vec<(f64, u32)> = self
            .placement
            .hosts_of(svc)
            .into_iter()
            .filter(|&k| !self.timeline.is_down(k, t))
            .map(|k| {
                let arr = t + ap.transfer_time(from, k, r);
                let wait = match self.pools[svc.idx() * self.sc.nodes() + k.idx()]
                    .iter()
                    .map(|rep| rep.free_at)
                    .min_by(|a, b| a.total_cmp(b))
                {
                    Some(free) => (free - arr).max(0.0),
                    // Scaled to zero: an on-demand boot pays the cold start
                    // before serving.
                    None => self.cfg.cold_start,
                };
                (arr + wait + self.exec_time(job, stage, k), k.0)
            })
            .collect();
        alive.sort_by(|a, b| a.0.total_cmp(&b.0).then(a.1.cmp(&b.1)));
        alive.into_iter().map(|(_, k)| NodeId(k)).collect()
    }

    /// Resolve a request that can no longer be served from the edge.
    fn resolve_unservable(&mut self, job: usize) {
        self.outcome[job] = Some(if self.cfg.degrade_to_cloud {
            Outcome::Degraded
        } else {
            Outcome::Dropped
        });
    }

    fn backoff_delay(&mut self, attempt: usize) -> f64 {
        let base = BACKOFF_BASE * BACKOFF_FACTOR.powi(attempt as i32);
        let u: f64 = self.rng.gen::<f64>();
        base * (1.0 + BACKOFF_JITTER * (2.0 * u - 1.0))
    }

    /// Handle a failed attempt: back off and retry, or give up.
    #[allow(clippy::too_many_arguments)]
    fn handle_failure(
        &mut self,
        job: usize,
        stage: usize,
        node: NodeId,
        from: NodeId,
        attempt: usize,
        fail_time: f64,
        reason: FailReason,
    ) {
        match reason {
            FailReason::Loss(idx) => self.loss_used[idx] = true,
            FailReason::Timeout => self.timeouts += 1,
            FailReason::NodeDown { recover_at } => {
                // The crash wiped the victim's queue: it restarts idle once
                // it recovers, so nothing can start on it before then.
                if recover_at.is_finite() {
                    let nodes = self.sc.nodes();
                    for cell in self.pools.iter_mut().skip(node.idx()).step_by(nodes) {
                        for rep in cell {
                            rep.free_at = rep.free_at.max(recover_at);
                        }
                    }
                }
            }
        }
        if attempt >= self.cfg.retry.max_retries {
            self.resolve_unservable(job);
            return;
        }
        self.retried += 1;
        let t = fail_time + self.backoff_delay(attempt);
        self.dispatch(job, stage, from, t, attempt + 1);
    }

    /// Dispatch `stage` of `job` from `from` at time `t`. Attempt 0 follows
    /// the static DP route blindly — liveness is only discovered when the
    /// data arrives — while retries fail over to the best alive replica.
    /// Hedging dry-runs a duplicate when the chosen target looks slow or
    /// doomed. Resolves the request when a failover finds no alive replica.
    fn dispatch(&mut self, job: usize, stage: usize, from: NodeId, t: f64, attempt: usize) {
        let target0 = if attempt == 0 {
            self.routes[self.jobs[job].user].as_ref().map(|r| r[stage])
        } else {
            self.candidates(job, stage, from, t).first().copied()
        };
        let Some(primary) = target0 else {
            self.resolve_unservable(job);
            return;
        };
        let r = self.stage_data(job, stage);
        let arr = t + self.ap_at(t).transfer_time(from, primary, r);

        let mut target = primary;
        let mut dispatch_t = t;
        let mut arrive_t = arr;
        if let Some(h) = self.cfg.retry.hedge_after {
            let pa = self.assess(job, stage, primary, t, arr);
            let slow = pa.fail.is_some() || pa.done - t > h;
            if slow {
                let backup = self
                    .candidates(job, stage, from, t)
                    .into_iter()
                    .find(|&k| k != primary);
                if let Some(backup) = backup {
                    let t2 = t + h; // a real hedger fires only after waiting h
                    let arr2 = t2 + self.ap_at(t2).transfer_time(from, backup, r);
                    let ba = self.assess(job, stage, backup, t2, arr2);
                    let backup_wins = match (&pa.fail, &ba.fail) {
                        (Some(_), None) => true,
                        (None, None) => ba.done < pa.done,
                        _ => false,
                    };
                    if backup_wins {
                        self.hedged += 1;
                        target = backup;
                        dispatch_t = t2;
                        arrive_t = arr2;
                    }
                }
            }
        }

        let svc_ix = self.service_of(job, stage).idx();
        if let Some(cp) = self.control.as_mut() {
            cp.inflight[svc_ix] += 1;
        }
        self.heap.push(Event {
            time: arrive_t,
            job,
            stage,
            attempt,
            node: target.0,
            from: from.0,
            dispatch: dispatch_t,
            is_arrival: false,
        });
    }

    /// Stage `stage` finished on `node` at `done`: dispatch the next stage
    /// or close out the request.
    fn advance_job(&mut self, job: usize, stage: usize, node: NodeId, done: f64) {
        self.frontier[job] = stage + 1;
        let user = self.jobs[job].user;
        let req = &self.sc.requests[user];
        if stage + 1 < req.chain.len() {
            self.dispatch(job, stage + 1, node, done, 0);
        } else {
            let finish = done + self.ap_at(done).return_time(node, req.location, req.r_out);
            debug_assert!(
                finish >= self.jobs[job].arrival,
                "job {job} finished before it arrived"
            );
            self.per_request[job] = Some(finish - self.jobs[job].arrival);
            self.outcome[job] = Some(Outcome::Completed);
        }
    }

    /// Run scaler ticks (and apply their pool changes) up to time `t`.
    fn run_ticks_until(&mut self, t: f64) {
        let sc = self.sc;
        let placement = self.placement;
        let nodes = sc.nodes();
        let Some(cp) = self.control.as_mut() else {
            return;
        };
        while cp.next_tick <= t {
            let now = cp.next_tick;
            cp.next_tick += cp.scaler.config().scale_interval;
            for done in cp.completions.iter_mut() {
                done.retain(|&d| d > now);
            }
            let observed: Vec<f64> = (0..cp.inflight.len())
                .map(|i| cp.observed_load(i, now))
                .collect();
            let actions = cp
                .scaler
                .tick(now, &observed, placement, &sc.catalog, &sc.net);
            if actions.is_empty() {
                continue;
            }
            cp.account(now);
            for act in actions {
                let wi = act.service.idx() * nodes + act.node.idx();
                if act.after > act.before {
                    // New replicas boot cold: their first request pays the
                    // cold start (last_done = -inf trips the warmth rule).
                    while (self.pools[wi].len() as u32) < act.after {
                        self.pools[wi].push(Replica {
                            free_at: now,
                            last_done: f64::NEG_INFINITY,
                        });
                    }
                } else {
                    // Reclaim idle replicas only (busy ones finish their
                    // request first), most-stale first, index tie-break.
                    let cell = &mut self.pools[wi];
                    let need = cell.len().saturating_sub(act.after as usize);
                    let mut idle: Vec<usize> = (0..cell.len())
                        .filter(|&i| cell[i].free_at <= now)
                        .collect();
                    idle.sort_by(|&x, &y| {
                        cell[x]
                            .last_done
                            .total_cmp(&cell[y].last_done)
                            .then(x.cmp(&y))
                    });
                    idle.truncate(need);
                    idle.sort_unstable_by(|x, y| y.cmp(x));
                    for i in idle {
                        cell.remove(i);
                    }
                    let actual = cell.len() as u32;
                    if actual != act.after {
                        cp.scaler.confirm(act.service, act.node, actual);
                    }
                }
            }
        }
    }

    /// A request is issued at the user's station: run admission (with a
    /// control plane), then make the first attempt at stage 0.
    fn handle_arrival(&mut self, ev: Event) {
        let job = ev.job;
        let req = &self.sc.requests[self.jobs[job].user];
        if let Some(cp) = &self.control {
            let admitted = req.chain.iter().all(|&m| {
                cp.scaler
                    .admit(m, req.chain.len(), cp.observed_load(m.idx(), ev.time))
            });
            if !admitted {
                self.outcome[job] = Some(Outcome::Shed);
                return;
            }
        }
        self.dispatch(job, 0, req.location, ev.time, 0);
    }

    fn run(&mut self) {
        while let Some(ev) = self.heap.pop() {
            self.run_ticks_until(ev.time);
            if ev.is_arrival {
                self.handle_arrival(ev);
                continue;
            }
            // Every serve-event push incremented its service's in-flight
            // count; the matching pop (stale or not) releases it.
            let svc_ix = self.service_of(ev.job, ev.stage).idx();
            if let Some(cp) = self.control.as_mut() {
                cp.inflight[svc_ix] = cp.inflight[svc_ix].saturating_sub(1);
            }
            if self.outcome[ev.job].is_some() || self.frontier[ev.job] != ev.stage {
                continue; // stale: the request was already resolved
            }
            let node = NodeId(ev.node);
            let a = self.assess(ev.job, ev.stage, node, ev.dispatch, ev.time);
            match a.fail {
                Some((at, reason)) => {
                    self.handle_failure(
                        ev.job,
                        ev.stage,
                        node,
                        NodeId(ev.from),
                        ev.attempt,
                        at,
                        reason,
                    );
                }
                None => {
                    self.commit(ev.job, ev.stage, node, ev.time, &a);
                    self.advance_job(ev.job, ev.stage, node, a.done);
                }
            }
        }
    }
}

/// Run the emulator for `placement` on `scenario`.
///
/// ```
/// use socl_core::SoclSolver;
/// use socl_model::ScenarioConfig;
/// use socl_sim::{run_testbed, TestbedConfig};
///
/// let sc = ScenarioConfig::paper(8, 20).build(3);
/// let placement = SoclSolver::new().solve(&sc).placement;
/// let measured = run_testbed(&sc, &placement, &TestbedConfig::default());
/// assert_eq!(measured.fallbacks, 0);
/// assert_eq!(measured.completed + measured.fallbacks, measured.issued);
/// assert!(measured.mean > 0.0 && measured.max >= measured.mean);
/// ```
pub fn run_testbed(sc: &Scenario, placement: &Placement, cfg: &TestbedConfig) -> TestbedResult {
    let mut rng = ChaCha12Rng::seed_from_u64(cfg.seed);
    let users = sc.requests.len();
    let horizon = cfg.epochs as f64 * cfg.epoch_secs;

    // Static DP routes per request — the dispatcher's nominal plan; under
    // faults it deviates to the best alive replica.
    let routes: Vec<Option<Vec<NodeId>>> = sc
        .requests
        .iter()
        .map(
            |r| match optimal_route(r, placement, &sc.net, &sc.ap, &sc.catalog) {
                RouteOutcome::Edge { route, .. } => Some(route),
                RouteOutcome::CloudFallback => None,
            },
        )
        .collect();

    // Job list. By default, one job per (epoch, user) with jittered arrival.
    // With `epoch_arrivals`, epoch `e` issues `arrivals[e]` requests from
    // seeded-uniformly drawn users (diurnal load shaping).
    let mut jobs: Vec<Job> = Vec::with_capacity(cfg.epochs * users);
    for e in 0..cfg.epochs {
        let base = e as f64 * cfg.epoch_secs;
        let n = match &cfg.epoch_arrivals {
            Some(v) if !v.is_empty() && users > 0 => v[e.min(v.len() - 1)],
            _ => users,
        };
        for i in 0..n {
            let user = if cfg.epoch_arrivals.is_some() {
                rng.gen_range(0..users)
            } else {
                i
            };
            let jitter = rng.gen_range(0.0..cfg.epoch_secs);
            jobs.push(Job {
                user,
                arrival: base + jitter,
                epoch: e,
            });
        }
    }

    let timeline = FaultTimeline::build(&cfg.faults, sc.nodes());

    // All-pairs snapshots: the cache re-derives the path metrics at every
    // link-state change point (a degradation holds until restored).
    let mut aps: Vec<(f64, AllPairs)> = vec![(f64::NEG_INFINITY, sc.ap.clone())];
    if !timeline.link_changes().is_empty() {
        let mut cache = ApspCache::new(&sc.net);
        for &(t, link, change) in timeline.link_changes() {
            if link >= sc.net.link_count() {
                continue;
            }
            let factor = change.unwrap_or(1.0).max(1.0);
            cache.set_link_rate(link, cache.base_rate(link) / factor);
            aps.push((t, cache.all_pairs().clone()));
        }
    }

    // Serverless control plane: the scaler seeds from the placement (one
    // replica per deployed cell, raised to the min-replica floor) and
    // drives pool sizes mid-run.
    let control = cfg.autoscale.as_ref().map(|ac| {
        let mut scaler = Autoscaler::new(ac.clone(), cfg.cold_start, sc.services(), sc.nodes());
        scaler.seed_from_placement(placement, &sc.catalog, &sc.net);
        ControlPlane {
            scaler,
            inflight: vec![0; sc.services()],
            completions: vec![Vec::new(); sc.services()],
            next_tick: 0.0,
            replica_seconds: 0.0,
            last_change: 0.0,
        }
    });
    // Seed the pools (one replica per deployed cell without a control
    // plane); every seeded replica starts cold.
    let counts = control.as_ref().map_or_else(
        || ReplicaCounts::from_placement(placement),
        |cp| cp.scaler.counts().clone(),
    );
    let cold = Replica {
        free_at: 0.0,
        last_done: f64::NEG_INFINITY,
    };
    let mut pools: Vec<Vec<Replica>> = vec![Vec::new(); sc.services() * sc.nodes()];
    for (m, k, count) in counts.iter_positive() {
        pools[m.idx() * sc.nodes() + k.idx()] = vec![cold; count as usize];
    }

    let n_jobs = jobs.len();
    let loss_count = timeline.losses().len();
    let mut engine = Engine {
        sc,
        placement,
        cfg,
        timeline,
        aps,
        routes,
        jobs,
        heap: BinaryHeap::new(),
        rng,
        pools,
        loss_used: vec![false; loss_count],
        outcome: vec![None; n_jobs],
        frontier: vec![0usize; n_jobs],
        per_request: vec![None; n_jobs],
        cold_starts: 0,
        retried: 0,
        hedged: 0,
        timeouts: 0,
        control,
    };

    // Every request with an edge route enters through its arrival event, so
    // its first attempt (and admission) sees the live state at issue time.
    for (j, job) in engine.jobs.iter().enumerate() {
        if engine.routes[job.user].is_none() {
            engine.outcome[j] = Some(Outcome::Fallback);
            continue;
        }
        let loc = sc.requests[job.user].location;
        engine.heap.push(Event {
            time: job.arrival,
            job: j,
            stage: 0,
            attempt: 0,
            node: loc.0,
            from: loc.0,
            dispatch: job.arrival,
            is_arrival: true,
        });
    }

    engine.run();

    // Close the warm-pool integral at the run horizon.
    if let Some(cp) = engine.control.as_mut() {
        let end = horizon.max(cp.last_change);
        cp.account(end);
    }

    // Aggregate (per-epoch via each job's epoch tag — epochs may issue
    // different request counts under `epoch_arrivals`).
    let per_request = engine.per_request;
    let mut epoch_sum = vec![0.0f64; cfg.epochs];
    let mut epoch_count = vec![0usize; cfg.epochs];
    for (j, lat) in per_request.iter().enumerate() {
        if let Some(l) = lat {
            let e = engine.jobs[j].epoch;
            epoch_sum[e] += l;
            epoch_count[e] += 1;
        }
    }
    let per_epoch_mean: Vec<f64> = epoch_sum
        .iter()
        .zip(&epoch_count)
        .map(|(&s, &c)| if c == 0 { 0.0 } else { s / c as f64 })
        .collect();
    let served: Vec<f64> = per_request.iter().flatten().copied().collect();
    let mean = socl_model::stats::mean(&served);
    let max = served.iter().copied().fold(0.0, f64::max);

    let mut fallbacks = 0usize;
    let mut completed = 0usize;
    let mut degraded = 0usize;
    let mut dropped = 0usize;
    let mut shed = 0usize;
    for out in engine.outcome.iter() {
        match out {
            Some(Outcome::Completed) => completed += 1,
            Some(Outcome::Degraded) => degraded += 1,
            Some(Outcome::Dropped) => dropped += 1,
            Some(Outcome::Shed) => shed += 1,
            Some(Outcome::Fallback) => fallbacks += 1,
            None => {
                // Every dispatched request must resolve; a hole here would
                // be an emulator bug. Surface it loudly in debug builds and
                // fold it into `dropped` so accounting still conserves.
                debug_assert!(false, "request left unresolved by the event loop");
                dropped += 1;
            }
        }
    }
    let issued = n_jobs;

    let (scale_ups, scale_downs, replica_seconds) = match &engine.control {
        Some(cp) => {
            let (u, d) = cp.scaler.events();
            (u as usize, d as usize, cp.replica_seconds)
        }
        None => (0, 0, 0.0),
    };

    TestbedResult {
        per_request,
        per_epoch_mean,
        mean,
        max,
        cold_starts: engine.cold_starts,
        fallbacks,
        issued,
        completed,
        retried: engine.retried,
        hedged: engine.hedged,
        timeouts: engine.timeouts,
        degraded,
        dropped,
        availability: if issued == 0 {
            1.0
        } else {
            completed as f64 / issued as f64
        },
        mttr: engine.timeline.mttr(horizon),
        scale_up_events: scale_ups,
        scale_down_events: scale_downs,
        shed_requests: shed,
        replica_seconds,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::faults::{FaultEvent, FaultKind, FaultPlan};
    use socl_core::SoclSolver;
    use socl_model::ScenarioConfig;

    fn scenario(seed: u64) -> Scenario {
        ScenarioConfig::paper(8, 30).build(seed)
    }

    #[test]
    fn testbed_measures_every_served_request() {
        let sc = scenario(1);
        let placement = SoclSolver::new().solve(&sc).placement;
        let res = run_testbed(&sc, &placement, &TestbedConfig::default());
        assert_eq!(res.fallbacks, 0);
        assert_eq!(res.per_request.len(), sc.users());
        for lat in res.per_request.iter().flatten() {
            assert!(*lat > 0.0);
        }
        assert!(res.max >= res.mean && res.mean > 0.0);
        assert_eq!(res.completed, sc.users());
        assert_eq!(res.availability, 1.0);
        assert_eq!(res.mttr, 0.0);
    }

    #[test]
    fn queueing_makes_testbed_latency_at_least_unloaded_latency() {
        let sc = scenario(2);
        let placement = SoclSolver::new().solve(&sc).placement;
        let ev = socl_model::evaluate(&sc, &placement);
        let res = run_testbed(&sc, &placement, &TestbedConfig::default());
        // Unloaded DP latency is a lower bound on the queued latency.
        // (Same routes; the testbed adds waiting and cold starts.)
        assert!(
            res.mean + 1e-9 >= ev.mean_latency() * 0.999,
            "testbed mean {} below unloaded mean {}",
            res.mean,
            ev.mean_latency()
        );
    }

    #[test]
    fn empty_placement_all_fallbacks() {
        let sc = scenario(3);
        let placement = Placement::empty(sc.services(), sc.nodes());
        let res = run_testbed(&sc, &placement, &TestbedConfig::default());
        assert_eq!(res.fallbacks, sc.users());
        assert!(res.per_request.iter().all(|r| r.is_none()));
        assert_eq!(res.mean, 0.0);
        assert_eq!(
            res.completed + res.degraded + res.dropped + res.fallbacks,
            res.issued
        );
    }

    #[test]
    fn multiple_epochs_reuse_warm_instances() {
        let sc = scenario(4);
        let placement = SoclSolver::new().solve(&sc).placement;
        let cfg = TestbedConfig {
            epochs: 4,
            ..TestbedConfig::default()
        };
        let res = run_testbed(&sc, &placement, &cfg);
        assert_eq!(res.per_epoch_mean.len(), 4);
        // Cold starts happen at most once per (instance, cold period); with
        // keep_warm (600 s) > epoch (300 s), later epochs stay warm, so cold
        // starts are far fewer than stage executions.
        let total_stages: usize = sc.requests.iter().map(|r| r.len()).sum();
        assert!(res.cold_starts <= total_stages, "{}", res.cold_starts);
        assert!(res.cold_starts > 0);
    }

    #[test]
    fn contention_raises_latency_versus_a_big_cluster() {
        // The same workload on a placement spread across all nodes beats a
        // single-node pile-up.
        let sc = scenario(5);
        let spread = Placement::full(sc.services(), sc.nodes());
        let mut pile = Placement::empty(sc.services(), sc.nodes());
        for m in sc.requested_services() {
            pile.set(m, socl_net::NodeId(0), true);
        }
        let cfg = TestbedConfig::default();
        let res_spread = run_testbed(&sc, &spread, &cfg);
        let res_pile = run_testbed(&sc, &pile, &cfg);
        assert!(
            res_pile.mean > res_spread.mean,
            "pile {} should exceed spread {}",
            res_pile.mean,
            res_spread.mean
        );
    }

    #[test]
    fn percentiles_are_ordered() {
        let sc = scenario(7);
        let placement = SoclSolver::new().solve(&sc).placement;
        let res = run_testbed(&sc, &placement, &TestbedConfig::default());
        let p50 = res.latency_percentile(0.5);
        let p95 = res.latency_percentile(0.95);
        assert!(p50 > 0.0);
        assert!(p95 >= p50);
        assert!(res.max >= p95 - 1e-12);
    }

    #[test]
    fn testbed_is_deterministic() {
        let sc = scenario(6);
        let placement = SoclSolver::new().solve(&sc).placement;
        let cfg = TestbedConfig::default();
        let a = run_testbed(&sc, &placement, &cfg);
        let b = run_testbed(&sc, &placement, &cfg);
        assert_eq!(a.per_request, b.per_request);
        assert_eq!(a.cold_starts, b.cold_starts);
    }

    // ---- fault-injection behavior ---------------------------------------

    /// A schedule crashing `node` over `[t0, t1)`.
    fn crash(node: u32, t0: f64, t1: f64) -> FaultSchedule {
        FaultSchedule::from_events(vec![
            FaultEvent {
                time: t0,
                kind: FaultKind::NodeCrash(NodeId(node)),
            },
            FaultEvent {
                time: t1,
                kind: FaultKind::NodeRecover(NodeId(node)),
            },
        ])
    }

    #[test]
    fn crash_without_retries_degrades_requests() {
        let sc = scenario(8);
        // Single-node pile-up: crashing node 0 takes every replica down.
        let mut pile = Placement::empty(sc.services(), sc.nodes());
        for m in sc.requested_services() {
            pile.set(m, NodeId(0), true);
        }
        let cfg = TestbedConfig {
            faults: crash(0, 0.0, 300.0),
            ..TestbedConfig::default()
        };
        let res = run_testbed(&sc, &pile, &cfg);
        assert_eq!(res.completed, 0, "node 0 was down the whole run");
        assert_eq!(res.degraded + res.fallbacks, res.issued);
        assert!(res.availability < 1.0);
        assert!(res.mttr > 0.0);
        // Degraded requests are charged the cloud penalty.
        assert!(res.effective_mean(sc.cloud_penalty) > 0.0);
    }

    #[test]
    fn no_degrade_means_dropped() {
        let sc = scenario(8);
        let mut pile = Placement::empty(sc.services(), sc.nodes());
        for m in sc.requested_services() {
            pile.set(m, NodeId(0), true);
        }
        let cfg = TestbedConfig {
            faults: crash(0, 0.0, 300.0),
            degrade_to_cloud: false,
            ..TestbedConfig::default()
        };
        let res = run_testbed(&sc, &pile, &cfg);
        assert_eq!(res.degraded, 0);
        assert_eq!(res.dropped + res.fallbacks, res.issued);
    }

    #[test]
    fn retries_reroute_around_a_crashed_node() {
        let sc = scenario(9);
        // Full placement: every node hosts every service, so a single crash
        // always leaves alive replicas for the dispatcher to fall over to.
        let placement = Placement::full(sc.services(), sc.nodes());
        let cfg = TestbedConfig {
            faults: crash(0, 0.0, 400.0),
            retry: RetryPolicy {
                max_retries: 3,
                ..RetryPolicy::default()
            },
            ..TestbedConfig::default()
        };
        let res = run_testbed(&sc, &placement, &cfg);
        assert_eq!(
            res.completed + res.fallbacks,
            res.issued,
            "with replicas everywhere and retries on, nothing degrades: {res:?}"
        );
        assert_eq!(res.degraded + res.dropped, 0);
    }

    #[test]
    fn faulted_run_is_deterministic_and_conserves_requests() {
        let sc = scenario(10);
        let placement = SoclSolver::new().solve(&sc).placement;
        let plan = FaultPlan::moderate(300.0);
        let cfg = TestbedConfig {
            faults: plan.generate(&sc.net, &placement, sc.users(), 5),
            retry: RetryPolicy {
                max_retries: 2,
                timeout: 60.0,
                ..RetryPolicy::default()
            },
            ..TestbedConfig::default()
        };
        let a = run_testbed(&sc, &placement, &cfg);
        let b = run_testbed(&sc, &placement, &cfg);
        assert_eq!(a, b, "same seed + schedule must reproduce exactly");
        assert_eq!(a.completed + a.degraded + a.dropped + a.fallbacks, a.issued);
    }

    #[test]
    fn hedging_commits_duplicates_when_the_primary_is_slow() {
        // An aggressive hedge threshold forces duplicates: any stage slower
        // than a microsecond hedges, and on a full placement the backup
        // replica wins wherever the primary's queue has built up. Whether a
        // queue builds depends on the scenario, so the property is over a
        // sweep of them (9 of these 16 commit hedges), not over one seed.
        let cfg = TestbedConfig {
            retry: RetryPolicy {
                hedge_after: Some(1e-6),
                ..RetryPolicy::default()
            },
            ..TestbedConfig::default()
        };
        let mut committed = 0;
        for seed in 0..16 {
            let sc = scenario(seed);
            let placement = Placement::full(sc.services(), sc.nodes());
            let res = run_testbed(&sc, &placement, &cfg);
            assert_eq!(res.completed + res.fallbacks, res.issued, "seed {seed}");
            committed += usize::from(res.hedged > 0);
        }
        assert!(committed > 0, "no scenario committed a hedged duplicate");
    }

    #[test]
    fn tight_timeouts_count_and_still_conserve() {
        let sc = scenario(12);
        let placement = SoclSolver::new().solve(&sc).placement;
        let cfg = TestbedConfig {
            retry: RetryPolicy {
                timeout: 1e-4, // unmeetable: every attempt times out
                max_retries: 1,
                ..RetryPolicy::default()
            },
            ..TestbedConfig::default()
        };
        let res = run_testbed(&sc, &placement, &cfg);
        assert!(res.timeouts > 0);
        assert!(res.retried > 0);
        assert_eq!(
            res.completed + res.degraded + res.dropped + res.fallbacks,
            res.issued
        );
    }

    #[test]
    fn link_degradation_slows_transfers() {
        let sc = scenario(13);
        let placement = SoclSolver::new().solve(&sc).placement;
        let mut events = Vec::new();
        for link in 0..sc.net.link_count() {
            events.push(FaultEvent {
                time: 0.0,
                kind: FaultKind::LinkDegrade { link, factor: 50.0 },
            });
        }
        let cfg = TestbedConfig {
            faults: FaultSchedule::from_events(events),
            ..TestbedConfig::default()
        };
        let slow = run_testbed(&sc, &placement, &cfg);
        let fast = run_testbed(&sc, &placement, &TestbedConfig::default());
        assert!(
            slow.mean > fast.mean,
            "degraded links ({}) should beat nominal ({})",
            slow.mean,
            fast.mean
        );
    }

    #[test]
    fn instance_kills_cause_extra_cold_starts() {
        let sc = scenario(14);
        let placement = SoclSolver::new().solve(&sc).placement;
        let baseline = run_testbed(&sc, &placement, &TestbedConfig::default());
        let mut events = Vec::new();
        for (m, k) in placement.iter_deployed() {
            events.push(FaultEvent {
                time: 150.0,
                kind: FaultKind::InstanceKill {
                    service: m,
                    node: k,
                },
            });
        }
        let cfg = TestbedConfig {
            faults: FaultSchedule::from_events(events),
            ..TestbedConfig::default()
        };
        let killed = run_testbed(&sc, &placement, &cfg);
        assert!(
            killed.cold_starts > baseline.cold_starts,
            "cold-kills should add cold starts ({} vs {})",
            killed.cold_starts,
            baseline.cold_starts
        );
    }

    #[test]
    fn request_loss_is_retried_or_degraded() {
        let sc = scenario(15);
        let placement = SoclSolver::new().solve(&sc).placement;
        // Lose every user's first transfer window; without retries those
        // requests degrade, with retries they recover.
        let events: Vec<FaultEvent> = (0..sc.users())
            .map(|u| FaultEvent {
                time: 150.0,
                kind: FaultKind::RequestLoss { user: u },
            })
            .collect();
        let faults = FaultSchedule::from_events(events);
        let no_retry = run_testbed(
            &sc,
            &placement,
            &TestbedConfig {
                faults: faults.clone(),
                ..TestbedConfig::default()
            },
        );
        let with_retry = run_testbed(
            &sc,
            &placement,
            &TestbedConfig {
                faults,
                retry: RetryPolicy {
                    max_retries: 2,
                    ..RetryPolicy::default()
                },
                ..TestbedConfig::default()
            },
        );
        assert!(with_retry.completed >= no_retry.completed);
        assert_eq!(
            with_retry.completed + with_retry.degraded + with_retry.fallbacks,
            with_retry.issued
        );
    }

    // ---- serverless control plane ---------------------------------------

    use socl_autoscale::{AdmissionPolicy, AutoscaleConfig, ScalingMode};

    /// A reactive control plane (the default mode) sized for 3 short epochs.
    fn scaled_cfg() -> TestbedConfig {
        TestbedConfig {
            epochs: 3,
            epoch_secs: 60.0,
            autoscale: Some(AutoscaleConfig {
                scale_interval: 2.0,
                stable_window: 20.0,
                down_cooldown: 10.0,
                min_replicas: 0,
                keep_alive: socl_autoscale::KeepAlivePolicy::Fixed(15.0),
                ..AutoscaleConfig::default()
            }),
            ..TestbedConfig::default()
        }
    }

    #[test]
    fn control_plane_conserves_requests_and_scales() {
        let sc = scenario(20);
        let placement = SoclSolver::new().solve(&sc).placement;
        let cfg = scaled_cfg();
        let res = run_testbed(&sc, &placement, &cfg);
        assert_eq!(
            res.completed + res.degraded + res.dropped + res.fallbacks + res.shed_requests,
            res.issued
        );
        assert!(res.replica_seconds > 0.0, "pools must accrue billed time");
        // Idle gaps between sparse requests trigger scale-downs.
        assert!(
            res.scale_down_events > 0,
            "expected scale-downs over 3 sparse epochs: {res:?}"
        );
    }

    #[test]
    fn control_plane_is_deterministic() {
        let sc = scenario(21);
        let placement = SoclSolver::new().solve(&sc).placement;
        let cfg = scaled_cfg();
        let a = run_testbed(&sc, &placement, &cfg);
        let b = run_testbed(&sc, &placement, &cfg);
        assert_eq!(a, b, "same seed + config must reproduce exactly");
    }

    #[test]
    fn scale_to_zero_never_strands_a_request() {
        let sc = scenario(22);
        let placement = SoclSolver::new().solve(&sc).placement;
        // Aggressive scale-to-zero: tiny keep-alive, no cooldown, long
        // epochs so pools collapse between arrivals.
        let cfg = TestbedConfig {
            epochs: 4,
            epoch_secs: 300.0,
            autoscale: Some(AutoscaleConfig {
                scale_interval: 1.0,
                stable_window: 5.0,
                down_cooldown: 0.0,
                min_replicas: 0,
                keep_alive: socl_autoscale::KeepAlivePolicy::Fixed(2.0),
                ..AutoscaleConfig::default()
            }),
            ..TestbedConfig::default()
        };
        let res = run_testbed(&sc, &placement, &cfg);
        // Every admitted request resolves: on-demand boots serve requests
        // that land on scaled-to-zero cells (paying cold starts instead).
        assert_eq!(res.completed + res.fallbacks, res.issued);
        assert_eq!(res.dropped, 0);
        assert!(res.scale_down_events > 0);
        assert!(res.cold_starts > 0);
    }

    #[test]
    fn static_pools_match_the_replica_count_of_the_placement() {
        let sc = scenario(23);
        let placement = SoclSolver::new().solve(&sc).placement;
        let cfg = TestbedConfig {
            autoscale: Some(AutoscaleConfig {
                mode: ScalingMode::Static,
                min_replicas: 0,
                ..AutoscaleConfig::default()
            }),
            ..TestbedConfig::default()
        };
        let res = run_testbed(&sc, &placement, &cfg);
        assert_eq!(res.scale_up_events, 0);
        assert_eq!(res.scale_down_events, 0);
        // Static pools: replica-seconds = instances × horizon exactly.
        let expected = placement.total_instances() as f64 * 300.0;
        assert!(
            (res.replica_seconds - expected).abs() < 1e-6,
            "{} vs {expected}",
            res.replica_seconds
        );
    }

    #[test]
    fn diurnal_arrivals_shape_the_workload() {
        let sc = scenario(24);
        let placement = SoclSolver::new().solve(&sc).placement;
        let cfg = TestbedConfig {
            epochs: 3,
            epoch_secs: 60.0,
            epoch_arrivals: Some(vec![5, 40, 5]),
            ..TestbedConfig::default()
        };
        let res = run_testbed(&sc, &placement, &cfg);
        assert_eq!(res.issued, 50);
        assert_eq!(res.per_epoch_mean.len(), 3);
        assert_eq!(
            res.completed + res.degraded + res.dropped + res.fallbacks + res.shed_requests,
            res.issued
        );
    }

    #[test]
    fn admission_sheds_under_overload_and_prefers_short_chains() {
        let sc = scenario(25);
        // Single-node pile-up with a tiny capacity ceiling and a flash
        // crowd: the shedder must engage.
        let mut pile = Placement::empty(sc.services(), sc.nodes());
        for m in sc.requested_services() {
            pile.set(m, NodeId(0), true);
        }
        let cfg = TestbedConfig {
            epochs: 1,
            epoch_secs: 10.0,
            epoch_arrivals: Some(vec![400]),
            autoscale: Some(AutoscaleConfig {
                max_replicas_per_node: 1,
                admission: AdmissionPolicy {
                    enabled: true,
                    queue_limit: 1.0,
                    classes: 2,
                    strict_overload: 4.0,
                },
                ..AutoscaleConfig::default()
            }),
            ..TestbedConfig::default()
        };
        let res = run_testbed(&sc, &pile, &cfg);
        assert!(res.shed_requests > 0, "flash crowd must shed: {res:?}");
        assert_eq!(
            res.completed + res.degraded + res.dropped + res.fallbacks + res.shed_requests,
            res.issued
        );
        // Shed requests are charged the cloud penalty in the effective mean.
        assert!(res.effective_mean(sc.cloud_penalty) > res.mean);
    }

    #[test]
    fn autoscaling_beats_static_pools_under_a_flash_crowd() {
        let sc = scenario(26);
        let placement = SoclSolver::new().solve(&sc).placement;
        // Calm → flash crowd → calm. The crowd must actually saturate the
        // static pools (one replica per cell), so it is large and the
        // epochs short; a tight concurrency target makes the scaler react.
        let flash = vec![10, 10, 400, 10];
        // A day curve: quiet night, midday peak around three times the floor.
        let diurnal = vec![12, 8, 8, 14, 26, 36, 40, 34, 28, 22, 16, 12];
        for (shape, epoch_secs, arrivals) in [("flash", 30.0, flash), ("diurnal", 60.0, diurnal)] {
            let base = TestbedConfig {
                epochs: arrivals.len(),
                epoch_secs,
                epoch_arrivals: Some(arrivals),
                ..TestbedConfig::default()
            };
            let run = |autoscale| {
                let cfg = TestbedConfig {
                    autoscale: Some(autoscale),
                    ..base.clone()
                };
                run_testbed(&sc, &placement, &cfg)
            };
            let mk = |mode| AutoscaleConfig {
                mode,
                target_concurrency: 1.0,
                scale_interval: 1.0,
                stable_window: 10.0,
                panic_window: 4.0,
                min_replicas: 1,
                ..AutoscaleConfig::default()
            };
            let reactive = run(mk(ScalingMode::Reactive));
            assert!(reactive.scale_up_events > 0, "{shape}");
            // Adaptive pools must cost less than holding every pool at its
            // ceiling all day.
            let max_scale = run(AutoscaleConfig::max_scale());
            assert!(
                reactive.replica_seconds < max_scale.replica_seconds,
                "{shape}: reactive bills {} replica-seconds, max-scale {}",
                reactive.replica_seconds,
                max_scale.replica_seconds
            );
            if shape == "flash" {
                let stat = run(mk(ScalingMode::Static));
                assert!(
                    reactive.latency_percentile(0.99) < stat.latency_percentile(0.99),
                    "reactive p99 {} should beat static p99 {}",
                    reactive.latency_percentile(0.99),
                    stat.latency_percentile(0.99)
                );
            }
        }
    }

    #[test]
    fn static_pools_share_one_cpu_per_node() {
        // Two one-stage requests at node 0, for two services both hosted
        // there, issued within a microsecond of each other: the node's one
        // CPU serves them back to back, so the later one starts when the
        // earlier one is done. Under the control plane each replica is its
        // own container, and neither waits.
        use socl_model::{ServiceId, UserId, UserRequest};
        let mut sc = scenario(27);
        let (a, b, k) = (ServiceId(0), ServiceId(1), NodeId(0));
        sc.requests = [a, b]
            .into_iter()
            .enumerate()
            .map(|(h, m)| UserRequest::new(UserId(h as u32), k, vec![m], vec![], 0.1, 0.1, 10.0))
            .collect();
        let mut placement = Placement::empty(sc.services(), sc.nodes());
        placement.set(a, k, true);
        placement.set(b, k, true);
        let exec = |m| sc.catalog.compute_gflop(m) / sc.net.compute_gflops(k);
        let base = TestbedConfig {
            epoch_secs: 1e-6,
            cold_start: 0.0,
            ..TestbedConfig::default()
        };
        let shared = run_testbed(&sc, &placement, &base);
        assert_eq!(shared.completed, 2);
        assert!(
            (shared.max - (exec(a) + exec(b))).abs() < 1e-5,
            "the later request must queue behind the earlier: {shared:?}"
        );
        let isolated = TestbedConfig {
            autoscale: Some(AutoscaleConfig {
                mode: ScalingMode::Static,
                min_replicas: 0,
                ..AutoscaleConfig::default()
            }),
            ..base
        };
        let pooled = run_testbed(&sc, &placement, &isolated);
        assert_eq!(pooled.completed, 2);
        assert!(
            (pooled.max - exec(a).max(exec(b))).abs() < 1e-5,
            "{pooled:?}"
        );
    }
}
