//! The long-running control-plane service: a persistent event loop over
//! region-sharded worlds.
//!
//! Every tick the service consumes the streaming request feed, pushes
//! arrivals through per-region bounded queues (explicit backpressure),
//! drains a budget of requests through the PR 4 admission controller,
//! routes admitted chains with the exact DP against the current global
//! placement, charges in-flight concurrency to the regions hosting each
//! chain stage (cross-region stages are the stitching traffic), ticks
//! every region's autoscaler, and cuts a WAL record per region. Placement
//! is re-solved on an epoch cadence from a deterministic tracer sample of
//! the feed.
//!
//! Concurrency runs exclusively on the deterministic pool
//! (`socl_net::par`): shards own disjoint region subsets (`region %
//! shards`) and chunk outputs merge in index order, so the decision
//! stream is **bit-identical for any shard count and any thread count**.
//! Only the two phases that can outweigh a spawn fan out — the arrival
//! scan and phase 3 (synthesis, admission and routing) — and each first
//! asks `socl_net::parallel_worthwhile` with a unit read off its own loop
//! bounds, otherwise running the same closure in index order on the
//! calling thread. The autoscaler tick and checkpoint encoding cost less
//! than one dispatch at any traffic the queues admit and always run on
//! the calling thread.
//! No async runtime, no wall clock, no hash-order iteration anywhere in
//! the decision path.
//!
//! Tick phase order (the digest depends on it, so replay mirrors it):
//!
//! 1. arrival scan (user chunks, concatenated in ascending user id);
//! 2. epoch boundary: re-solve placement from the scan's tracer sample;
//! 3. per-shard: expire in-flight, ingest arrivals (queue-full sheds),
//!    drain + admission (cloud fallbacks and admission sheds decided
//!    here), then routing of the region's admitted jobs in queue order;
//! 4. head: fold edge decisions in region then queue order, charge
//!    in-flight per stage to the hosting region, record cross-region
//!    sends in the outbox;
//! 5. autoscaler tick and WAL record per region;
//! 6. checkpoint every `checkpoint_every` ticks.

use crate::feed::{FeedConfig, LoadFeed};
use crate::region::RegionMap;
use crate::shard::{
    Pending, RegionState, IN_FLIGHT_TICKS, TAG_CLOUD, TAG_EDGE, TAG_SHED_ADMISSION, TAG_SHED_QUEUE,
};
use crate::wal::{RegionCheckpoint, RegionWal, TickRecord};
use socl_autoscale::{AdmissionPolicy, AutoscaleConfig};
use socl_core::SoclConfig;
use socl_model::codec::TornTail;
use socl_model::{
    optimal_hosts_into, optimal_route_with, Placement, RouteOutcome, RouteScratch, Scenario,
    ScenarioConfig,
};
use socl_net::par::{lock_recover, par_map_indexed_with};
use socl_net::{effective_threads, parallel_worthwhile, NodeId};
use socl_sim::Policy;
use std::collections::VecDeque;
use std::ops::Range;
use std::sync::Mutex;

/// Service configuration.
#[derive(Debug, Clone)]
pub struct ServeConfig {
    /// Base stations in the metro topology.
    pub nodes: usize,
    /// Regions the graph is partitioned into (the state-sharding unit).
    pub regions: usize,
    /// Execution shards; region `r` runs on shard `r % shards`. Changing
    /// this never changes results.
    pub shards: usize,
    /// Topology/catalog/placement seed.
    pub seed: u64,
    /// Ingest-queue capacity per base station (region capacity scales
    /// with its station count).
    pub queue_cap_per_station: usize,
    /// Decision budget per base station per tick (region drain budget).
    pub drain_per_station: usize,
    /// Ticks between placement re-solves.
    pub resolve_every: u32,
    /// Ticks between region checkpoints.
    pub checkpoint_every: u32,
    /// Tracer-sample size fed to the placement policy at each re-solve.
    pub placement_sample: usize,
    /// Placement policy (SoCL / RP / JDR).
    pub policy: Policy,
    /// Per-region autoscaler + admission configuration.
    pub autoscale: AutoscaleConfig,
    /// Cold-start penalty handed to the autoscalers (seconds).
    pub cold_start_s: f64,
    /// Wall seconds one tick represents (drives scaler windows).
    pub tick_secs: f64,
    /// The streaming load source.
    pub feed: FeedConfig,
}

impl ServeConfig {
    /// A small but fully exercised configuration: 4 regions over 16
    /// stations, admission enabled, checkpoints every 4 ticks.
    #[must_use]
    pub fn small(seed: u64) -> Self {
        Self {
            nodes: 16,
            regions: 4,
            shards: 4,
            seed,
            queue_cap_per_station: 24,
            drain_per_station: 12,
            resolve_every: 8,
            checkpoint_every: 4,
            placement_sample: 48,
            policy: Policy::Socl(SoclConfig::default()),
            autoscale: AutoscaleConfig {
                admission: AdmissionPolicy {
                    enabled: true,
                    ..AutoscaleConfig::default().admission
                },
                ..AutoscaleConfig::default()
            },
            cold_start_s: 0.5,
            tick_secs: 1.0,
            feed: FeedConfig {
                users: 20_000,
                arrivals_per_tick: 120.0,
                seed: seed ^ 0x5EED,
                ..FeedConfig::default()
            },
        }
    }
}

/// One decision as observed by the capture hook (test/diagnostic use):
/// which user was decided, how, and along which route. Comparable across
/// region partitionings, unlike the per-region digests.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct DecisionEvent {
    /// Tick the decision was made.
    pub tick: u32,
    /// The decided user.
    pub user: u32,
    /// Outcome tag (edge / cloud / shed — the digest tags).
    pub tag: u64,
    /// One host per chain layer; empty for non-edge outcomes.
    pub route: Vec<socl_net::NodeId>,
}

/// What one tick did, summed over regions.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct TickSummary {
    /// The tick (1-based).
    pub tick: u32,
    /// Arrivals across all regions.
    pub arrivals: u32,
    /// Decisions issued (edge routes + cloud fallbacks).
    pub decided: u32,
    /// Queue-full sheds.
    pub shed_queue: u32,
    /// Admission sheds.
    pub shed_admission: u32,
    /// Total queue depth after the tick.
    pub queued: usize,
    /// Global digest: per-region digests folded in region order.
    pub digest: u64,
}

/// Lifetime totals across regions.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct ServeTotals {
    /// Arrivals homed anywhere.
    pub arrivals: u64,
    /// Decisions issued.
    pub decided: u64,
    /// Queue-full sheds.
    pub shed_queue: u64,
    /// Admission sheds.
    pub shed_admission: u64,
    /// Cloud fallbacks among the decisions.
    pub cloud_fallbacks: u64,
    /// Requests still queued.
    pub queued: u64,
    /// Deepest any region queue has been.
    pub queue_peak: u64,
}

/// What a kill-and-restore did (per-shard crash recovery).
#[derive(Debug, Clone)]
pub struct RestoreReport {
    /// Regions the killed shard owned.
    pub killed_regions: Vec<u32>,
    /// Checkpoint tick every killed region restored from.
    pub checkpoint_tick: u32,
    /// Ticks replayed per region to catch back up.
    pub replayed_ticks: u32,
    /// WAL bytes discarded as torn, summed over killed regions.
    pub torn_bytes: usize,
    /// Replayed ticks whose recomputation disagreed with the WAL oracle
    /// (digest or counters) — must be zero.
    pub oracle_mismatches: usize,
}

/// One region's bounded cross-region send history:
/// `(tick, [(target region, service)])` per retained tick.
type OutboxHistory = VecDeque<(u32, Vec<(u32, u32)>)>;

/// The sharded control-plane service.
#[derive(Debug)]
pub struct SoclServe {
    cfg: ServeConfig,
    /// The metro: topology, all-pairs paths, catalog and scenario constants,
    /// built once. Its `requests` are the tracer sample of the newest epoch,
    /// the only part a re-solve changes.
    world: Scenario,
    region_map: RegionMap,
    feed: LoadFeed,
    regions: Vec<RegionState>,
    /// Placement per resolve epoch, in epoch order, from epoch
    /// `placement_base` on (head state; survives shard kills, so replay
    /// looks placements up instead of re-solving). Epochs before the
    /// oldest retained checkpoint's are dropped: no replay reaches them.
    placements: VecDeque<Placement>,
    /// Epoch of `placements[0]`.
    placement_base: usize,
    wals: Vec<RegionWal>,
    /// Checkpoint history per region: `(tick, bytes)` in tick order,
    /// trimmed to the outbox window (see `take_checkpoints`).
    checkpoints: Vec<Vec<(u32, Vec<u8>)>>,
    /// Largest checkpoint image ever taken, in bytes.
    max_checkpoint_bytes: usize,
    /// Per-origin sent history: `(tick, [(target region, service)])` for
    /// cross-region in-flight charges, bounded to the recovery window.
    /// Head state — it survives shard kills, which is what lets a torn
    /// WAL tail be reconstructed from the peers that sent the traffic.
    outbox: Vec<OutboxHistory>,
    /// Per-region digest after every executed tick (the stitched-timeline
    /// equality witness).
    digest_timeline: Vec<Vec<u64>>,
    /// Last completed tick (0 = none yet).
    tick: u32,
    /// Decision capture sink (None = disabled, the default).
    capture: Option<Vec<DecisionEvent>>,
}

/// Ticks of outbox history retained: enough to bridge a checkpoint gap
/// plus the in-flight residency plus torn-tail slack.
fn outbox_window(checkpoint_every: u32) -> usize {
    checkpoint_every as usize + IN_FLIGHT_TICKS + 4
}

/// `parallel_worthwhile` unit of one arrival-coin flip: the three
/// multiplies of `Coin::hits_into` (the tick's prefix is hashed once, the
/// user's low byte is a table look-up).
const COIN_UNIT: usize = 3;

/// `parallel_worthwhile` unit of one arrival in phase 3: its
/// `LoadFeed::synthesize` (two 16-word ChaCha12 blocks × 6 double rounds)
/// plus as much again for admitting and routing it — generous now that a
/// route is only its hosts over bit rows, and kept so the gate opens at
/// the same arrival counts.
const SYNTHESIZE_UNIT: usize = 2 * (2 * 16 * 6);

/// Run `f` over every region, grouped by shard, on the deterministic
/// pool when `unit` abstract operations per region are worth a spawn.
/// Regions mutate in place; outputs come back in region order.
/// Determinism: each region is touched by exactly one shard, shard
/// outputs are merged by region index, and `f` itself is pure in the
/// pool sense (no cross-region reads).
fn sharded<T: Send>(
    regions: &mut [RegionState],
    shards: usize,
    unit: usize,
    f: &(impl Fn(&mut RegionState) -> T + Sync),
) -> Vec<T> {
    let n = regions.len();
    let shards = shards.clamp(1, n.max(1));
    let threads = effective_threads().min(shards);
    if shards == 1 || threads <= 1 || !parallel_worthwhile(n, unit) {
        return regions.iter_mut().map(f).collect();
    }
    let mut by_shard: Vec<Vec<(usize, &mut RegionState)>> =
        (0..shards).map(|_| Vec::new()).collect();
    for (i, st) in regions.iter_mut().enumerate() {
        by_shard[i % shards].push((i, st));
    }
    let buckets: Vec<Mutex<Vec<(usize, &mut RegionState)>>> =
        by_shard.into_iter().map(Mutex::new).collect();
    let shard_outs: Vec<Vec<(usize, T)>> = par_map_indexed_with(shards, threads, |s| {
        // A poisoned lock would mean `f` panicked on another worker; the
        // scope join re-raises that, so recovering here is sound.
        let mut guard = lock_recover(&buckets[s]);
        guard.iter_mut().map(|(i, st)| (*i, f(st))).collect()
    });
    let mut slots: Vec<Option<T>> = (0..n).map(|_| None).collect();
    for outs in shard_outs {
        for (i, v) in outs {
            slots[i] = Some(v);
        }
    }
    slots.into_iter().flatten().collect()
}

impl SoclServe {
    /// Build the service: the world scenario (topology, all-pairs paths,
    /// catalog) from the scenario generator, region partition, per-region
    /// states, and a mandatory tick-0 checkpoint of every region (so a kill
    /// at any point has an image to restore from).
    #[must_use]
    pub fn new(cfg: ServeConfig) -> Self {
        let world = ScenarioConfig::paper(cfg.nodes, cfg.placement_sample.max(1)).build(cfg.seed);
        let region_map = RegionMap::partition(&world.net, cfg.regions);
        let feed = LoadFeed::new(cfg.feed.clone(), cfg.nodes);
        let services = world.catalog.len();
        let nodes = world.net.node_count();
        let regions: Vec<RegionState> = (0..region_map.regions() as u32)
            .map(|r| {
                let cap = cfg.queue_cap_per_station * region_map.count(r).max(1);
                RegionState::new(r, services, nodes, cap, &cfg.autoscale, cfg.cold_start_s)
            })
            .collect();
        let n = regions.len();
        let mut serve = Self {
            cfg,
            world,
            region_map,
            feed,
            regions,
            placements: VecDeque::new(),
            placement_base: 0,
            wals: (0..n).map(|_| RegionWal::new()).collect(),
            checkpoints: (0..n).map(|_| Vec::new()).collect(),
            max_checkpoint_bytes: 0,
            outbox: (0..n).map(|_| VecDeque::new()).collect(),
            digest_timeline: (0..n).map(|_| Vec::new()).collect(),
            tick: 0,
            capture: None,
        };
        serve.take_checkpoints(0);
        serve
    }

    /// Service configuration.
    #[must_use]
    pub fn config(&self) -> &ServeConfig {
        &self.cfg
    }

    /// The region partition.
    #[must_use]
    pub fn region_map(&self) -> &RegionMap {
        &self.region_map
    }

    /// The load feed.
    #[must_use]
    pub fn feed(&self) -> &LoadFeed {
        &self.feed
    }

    /// Per-region states (read-only view for audits and benches).
    #[must_use]
    pub fn regions(&self) -> &[RegionState] {
        &self.regions
    }

    /// Last completed tick.
    #[must_use]
    pub fn completed_ticks(&self) -> u32 {
        self.tick
    }

    /// Per-region digest after every executed tick.
    #[must_use]
    pub fn digest_timeline(&self) -> &[Vec<u64>] {
        &self.digest_timeline
    }

    /// Current placement, if an epoch has been resolved.
    #[must_use]
    pub fn placement(&self) -> Option<&Placement> {
        self.placements.back()
    }

    /// Record every decision into a capture buffer (off by default; the
    /// cross-partition proptests compare per-user decisions through it).
    pub fn enable_capture(&mut self) {
        if self.capture.is_none() {
            self.capture = Some(Vec::new());
        }
    }

    /// Drain the captured decisions (empty when capture is disabled).
    pub fn take_captured(&mut self) -> Vec<DecisionEvent> {
        self.capture
            .as_mut()
            .map(std::mem::take)
            .unwrap_or_default()
    }

    /// Global digest: per-region digests folded in region order.
    #[must_use]
    pub fn global_digest(&self) -> u64 {
        let mut h = 0u64;
        for st in &self.regions {
            h = crate::shard::mix(h, &[st.digest]);
        }
        h
    }

    /// Lifetime totals over all regions.
    #[must_use]
    pub fn totals(&self) -> ServeTotals {
        let mut t = ServeTotals::default();
        for st in &self.regions {
            t.arrivals += st.arrivals;
            t.decided += st.decided;
            t.shed_queue += st.shed_queue;
            t.shed_admission += st.shed_admission;
            t.cloud_fallbacks += st.cloud_fallbacks;
            t.queued += st.queue.len() as u64;
            t.queue_peak = t.queue_peak.max(st.queue.high_watermark() as u64);
        }
        t
    }

    /// Largest serialized checkpoint taken so far, in bytes.
    #[must_use]
    pub fn max_checkpoint_bytes(&self) -> usize {
        self.max_checkpoint_bytes
    }

    /// Total WAL bytes across regions.
    #[must_use]
    pub fn wal_bytes(&self) -> usize {
        self.wals.iter().map(RegionWal::len_bytes).sum()
    }

    /// Route one request against the current placement (no state change)
    /// — the bench's per-decision latency probe.
    #[must_use]
    pub fn probe_route(
        &self,
        scratch: &mut RouteScratch,
        req: &socl_model::UserRequest,
    ) -> RouteOutcome {
        match self.placements.back() {
            Some(p) => {
                let w = &self.world;
                optimal_route_with(scratch, req, p, &w.net, &w.ap, &w.catalog)
            }
            None => RouteOutcome::CloudFallback,
        }
    }

    /// Execute `n` ticks, returning the summary of each.
    pub fn run(&mut self, n: u32) -> Vec<TickSummary> {
        (0..n).map(|_| self.step()).collect()
    }

    /// Execute one tick of the event loop.
    pub fn step(&mut self) -> TickSummary {
        let t = self.tick + 1;
        // Phase 1: arrival scan.
        let arrivals = self.scan_arrivals(t);
        // Phase 2: placement epoch, sampled from the scan.
        if (t - 1) % self.cfg.resolve_every.max(1) == 0 {
            self.resolve_placement(t, &arrivals);
        }
        let epoch = self.epoch_of(t);
        let per_region = self.by_region(&arrivals);
        // Phase 3: per-shard ingest + drain + admission, then routing of
        // the admitted jobs in queue order.
        let placement = &self.placements[epoch - self.placement_base];
        let feed = &self.feed;
        let map = &self.region_map;
        let world = &self.world;
        let drain_per_station = self.cfg.drain_per_station;
        let capturing = self.capture.is_some();
        let mut phase_a = sharded(
            &mut self.regions,
            self.cfg.shards,
            arrivals.len().div_ceil(per_region.len().max(1)) * SYNTHESIZE_UNIT,
            &|st: &mut RegionState| {
                let budget = drain_per_station * map.count(st.id).max(1);
                let (jobs, events) = region_phase_a(
                    st,
                    t,
                    per_region
                        .get(st.id as usize)
                        .map_or(&[][..], Vec::as_slice),
                    feed,
                    placement,
                    budget,
                    capturing,
                );
                (route_jobs(jobs, placement, world), events)
            },
        );
        // Phase 4: fold decisions in region then queue order, charge
        // in-flight, record cross sends.
        let mut events: Vec<DecisionEvent> = Vec::new();
        for (_, evts) in &mut phase_a {
            events.append(evts);
        }
        let mut sent: Vec<Vec<(u32, u32)>> = (0..self.regions.len()).map(|_| Vec::new()).collect();
        for (o, (routed, _)) in phase_a.iter().enumerate() {
            let origin = o as u32;
            for (p, route) in routed.iter() {
                match route {
                    Some(route) => {
                        self.regions[o].decide(t, p.user, Some(route));
                        for (j, &host) in route.iter().enumerate() {
                            let m = p.request.chain[j];
                            let target = self.region_map.region_of(host);
                            let remote = target != origin;
                            self.regions[target as usize].charge(m, t, remote);
                            if remote {
                                sent[o].push((target, m.0));
                            }
                        }
                        if capturing {
                            events.push(DecisionEvent {
                                tick: t,
                                user: p.user,
                                tag: TAG_EDGE,
                                route: route.to_vec(),
                            });
                        }
                    }
                    // Unreachable under a fixed placement (coverage was
                    // checked at drain), but a decision is a decision.
                    None => {
                        self.regions[o].decide(t, p.user, None);
                        if capturing {
                            events.push(DecisionEvent {
                                tick: t,
                                user: p.user,
                                tag: TAG_CLOUD,
                                route: Vec::new(),
                            });
                        }
                    }
                }
            }
        }
        if let Some(sink) = self.capture.as_mut() {
            sink.extend(events);
        }
        let window = outbox_window(self.cfg.checkpoint_every);
        for (o, sent_o) in sent.into_iter().enumerate() {
            self.outbox[o].push_back((t, sent_o));
            while self.outbox[o].len() > window {
                self.outbox[o].pop_front();
            }
        }
        // Phase 5: autoscaler tick per region, then the WAL record.
        let tick_secs = self.cfg.tick_secs;
        let placement = &self.placements[epoch - self.placement_base];
        let world = &self.world;
        let records: Vec<TickRecord> = self
            .regions
            .iter_mut()
            .map(|st| region_phase_scale(st, t, tick_secs, placement, world))
            .collect();
        let mut summary = TickSummary {
            tick: t,
            arrivals: 0,
            decided: 0,
            shed_queue: 0,
            shed_admission: 0,
            queued: 0,
            digest: 0,
        };
        for (r, rec) in records.iter().enumerate() {
            summary.arrivals += rec.arrivals;
            summary.decided += rec.decided;
            summary.shed_queue += rec.shed_queue;
            summary.shed_admission += rec.shed_admission;
            self.wals[r].append(rec);
            self.digest_timeline[r].push(rec.digest);
            self.regions[r].clear_tick_locals();
        }
        for st in &self.regions {
            summary.queued += st.queue.len();
        }
        self.tick = t;
        summary.digest = self.global_digest();
        // Phase 6: checkpoint cadence.
        if t % self.cfg.checkpoint_every.max(1) == 0 {
            self.take_checkpoints(t);
        }
        summary
    }

    /// Epoch index of tick `t` (1-based ticks).
    fn epoch_of(&self, t: u32) -> usize {
        ((t - 1) / self.cfg.resolve_every.max(1)) as usize
    }

    /// Re-solve the global placement from a tracer sample of tick `t`'s
    /// arrivals: the first `placement_sample` of `arrivals` (the tick's
    /// scan, ascending by user id), padded with the lowest user ids when
    /// arrivals are scarce. The sample becomes the world's request set and
    /// the policy solves the world as it stands: the network never changes,
    /// so no epoch rebuilds all-pairs paths or copies the topology or the
    /// catalog. Pure in `(feed, t)` — replay looks the result up from
    /// history instead of re-solving.
    fn resolve_placement(&mut self, t: u32, arrivals: &[(u32, u32)]) {
        let k = self.cfg.placement_sample.max(1);
        let mut sample: Vec<_> = arrivals
            .iter()
            .take(k)
            .map(|&(_, u)| self.feed.synthesize(u))
            .collect();
        let pad = k - sample.len();
        sample.extend(
            (0..self.feed.population())
                .take(pad)
                .map(|u| self.feed.synthesize(u)),
        );
        self.world.requests = sample;
        let placement = self.cfg.policy.place(&self.world, u64::from(t));
        let first = self.placements.is_empty();
        self.placements.push_back(placement);
        if first {
            // Initial replica pools: seed every region's scaler from the
            // first placement (mirrored by replay at t == 1).
            for st in &mut self.regions {
                st.scaler.seed_from_placement(
                    &self.placements[0],
                    &self.world.catalog,
                    &self.world.net,
                );
            }
        }
    }

    /// Bernoulli scan of the user population at tick `t`: every arrival as
    /// `(home region, user)`, ascending by user id. Chunked over the pool
    /// when the population is worth a spawn; chunk outputs concatenate in
    /// order, so the list is identical for any thread count.
    fn scan_arrivals(&self, t: u32) -> Vec<(u32, u32)> {
        const CHUNK: u32 = 16_384;
        let users = self.feed.population();
        let coin = self.feed.coin(t);
        let feed = &self.feed;
        let map = &self.region_map;
        let threads = if parallel_worthwhile(users as usize, COIN_UNIT) {
            effective_threads()
        } else {
            1
        };
        let chunks = users.div_ceil(CHUNK) as usize;
        par_map_indexed_with(chunks, threads, |c| {
            let lo = c as u32 * CHUNK;
            let mut hits = Vec::new();
            coin.hits_into(lo..users.min(lo.saturating_add(CHUNK)), &mut hits);
            hits.into_iter()
                .map(|u| (map.region_of(feed.home_station(u)), u))
                .collect::<Vec<_>>()
        })
        .concat()
    }

    /// Group a scan's arrivals by home region, keeping user-id order.
    fn by_region(&self, arrivals: &[(u32, u32)]) -> Vec<Vec<u32>> {
        let mut per_region: Vec<Vec<u32>> = (0..self.regions.len()).map(|_| Vec::new()).collect();
        for &(r, u) in arrivals {
            per_region[r as usize].push(u);
        }
        per_region
    }

    /// Serialize every region at tick `t` and append to the checkpoint
    /// history. Images older than the outbox
    /// window are dropped: a restore point the peers' outboxes no longer
    /// reach could not rebuild a torn tick's remote charges anyway. So are
    /// the placements of epochs before the oldest image's next tick, the
    /// first a replay can run (the newest placement always stays).
    fn take_checkpoints(&mut self, t: u32) {
        let window = outbox_window(self.cfg.checkpoint_every);
        for (r, st) in self.regions.iter().enumerate() {
            let bytes = snapshot_region(st, t).to_bytes();
            self.max_checkpoint_bytes = self.max_checkpoint_bytes.max(bytes.len());
            self.checkpoints[r].retain(|(tick, _)| *tick as usize + window >= t as usize);
            self.checkpoints[r].push((t, bytes));
        }
        let oldest = self
            .checkpoints
            .iter()
            .filter_map(|images| images.first().map(|(tick, _)| *tick))
            .min()
            .unwrap_or(t);
        let keep_from = self.epoch_of(oldest + 1);
        while self.placement_base < keep_from && self.placements.len() > 1 {
            self.placements.pop_front();
            self.placement_base += 1;
        }
    }

    /// Serialize the current state of every region (stitched-equality
    /// witness for the recovery driver).
    #[must_use]
    pub fn snapshot_all(&self) -> Vec<Vec<u8>> {
        self.regions
            .iter()
            .map(|st| snapshot_region(st, self.tick).to_bytes())
            .collect()
    }

    /// Kill shard `shard` at the current tick boundary and bring its
    /// regions back: mangle each region's durable WAL per `torn`,
    /// truncate the torn tail, restore from the newest checkpoint the
    /// clean WAL still covers, and replay forward to the present — using
    /// the WAL's remote-traffic records where the log is clean and the
    /// surviving peers' outboxes where it is torn. Recomputed ticks are
    /// checked against the WAL oracle; the caller asserts
    /// `oracle_mismatches == 0` and bit-equality against a golden run.
    ///
    /// # Errors
    /// A corrupt checkpoint image or an inconsistent scaler restore.
    pub fn kill_and_restore(
        &mut self,
        shard: usize,
        torn: TornTail,
    ) -> Result<RestoreReport, String> {
        let t_kill = self.tick;
        let shards = self.cfg.shards.clamp(1, self.regions.len().max(1));
        let killed: Vec<usize> = (0..self.regions.len())
            .filter(|r| r % shards == shard % shards)
            .collect();
        if killed.is_empty() {
            return Err("shard owns no regions".into());
        }
        // 1. Recover each region's durable log: mangle, then truncate.
        let mut torn_bytes = 0usize;
        let mut clean_tick: Vec<u32> = Vec::with_capacity(killed.len());
        let mut records: Vec<Vec<TickRecord>> = Vec::with_capacity(killed.len());
        for &r in &killed {
            let mut bytes = self.wals[r].as_bytes().to_vec();
            torn.mangle(&mut bytes, self.cfg.seed ^ r as u64);
            let (wal, report) = RegionWal::from_bytes(&bytes);
            torn_bytes += report.truncated_bytes;
            let recs = wal.records().map_err(|e| format!("wal decode: {e:?}"))?;
            clean_tick.push(recs.last().map_or(0, |rec| rec.tick));
            records.push(recs);
            self.wals[r] = wal;
        }
        // 2. Uniform restore point: the newest checkpoint at or before
        // every killed region's clean WAL horizon.
        let horizon = clean_tick.iter().copied().min().unwrap_or(0);
        let c0 = horizon - horizon % self.cfg.checkpoint_every.max(1);
        for (&r, _) in killed.iter().zip(&clean_tick) {
            let image = self.checkpoints[r]
                .iter()
                .rev()
                .find(|(tick, _)| *tick <= c0)
                .ok_or_else(|| format!("region {r}: no checkpoint at or before {c0}"))?;
            let ck = RegionCheckpoint::from_bytes(&image.1)
                .map_err(|e| format!("region {r}: checkpoint decode: {e:?}"))?;
            if ck.tick != c0 {
                return Err(format!(
                    "region {r}: checkpoint tick {} != restore point {c0}",
                    ck.tick
                ));
            }
            self.regions[r] = restore_region(&ck, &self.cfg, &self.region_map, &self.feed)?;
            self.digest_timeline[r].truncate(c0 as usize);
        }
        // 3. Replay (c0, t_kill] per killed region. All inputs are
        // external state that survived the kill: the feed (pure), the
        // placement history, the clean WAL records, and peer outboxes.
        let mut mismatches = 0usize;
        for t in c0 + 1..=t_kill {
            let epoch = self.epoch_of(t);
            let placement = &self.placements[epoch - self.placement_base];
            let per_region = self.by_region(&self.scan_arrivals(t));
            for (ki, &r) in killed.iter().enumerate() {
                if t == 1 {
                    self.regions[r].scaler.seed_from_placement(
                        placement,
                        &self.world.catalog,
                        &self.world.net,
                    );
                }
                let budget = self.cfg.drain_per_station * self.region_map.count(r as u32).max(1);
                let (jobs, _) = region_phase_a(
                    &mut self.regions[r],
                    t,
                    &per_region[r],
                    &self.feed,
                    placement,
                    budget,
                    false,
                );
                // Route and fold the region's own decisions; charge only
                // stages hosted in this region (remote stages belong to
                // peers that never lost them).
                for (p, route) in route_jobs(jobs, placement, &self.world).iter() {
                    match route {
                        Some(route) => {
                            self.regions[r].decide(t, p.user, Some(route));
                            for (j, &host) in route.iter().enumerate() {
                                if self.region_map.region_of(host) == r as u32 {
                                    let m = p.request.chain[j];
                                    self.regions[r].charge(m, t, false);
                                }
                            }
                        }
                        None => self.regions[r].decide(t, p.user, None),
                    }
                }
                // Remote in-flight traffic: from the WAL record where the
                // log is clean, from peer outboxes where it is torn.
                let stored = records[ki].iter().find(|rec| rec.tick == t).cloned();
                match &stored {
                    Some(rec) => {
                        for (m, &count) in rec.remote_add.iter().enumerate() {
                            for _ in 0..count {
                                self.regions[r].charge(socl_model::ServiceId(m as u32), t, true);
                            }
                        }
                    }
                    None => {
                        let adds: Vec<u32> = self
                            .outbox
                            .iter()
                            .enumerate()
                            .filter(|&(o, _)| o != r)
                            .flat_map(|(_, ob)| ob.iter())
                            .filter(|(tick, _)| *tick == t)
                            .flat_map(|(_, sends)| sends.iter())
                            .filter(|(target, _)| *target == r as u32)
                            .map(|&(_, m)| m)
                            .collect();
                        for m in adds {
                            self.regions[r].charge(socl_model::ServiceId(m), t, true);
                        }
                    }
                }
                // Scaler tick + rebuilt record.
                let rec = region_phase_scale(
                    &mut self.regions[r],
                    t,
                    self.cfg.tick_secs,
                    placement,
                    &self.world,
                );
                // Oracle: a clean WAL tick must be reproduced exactly.
                if let Some(stored) = stored {
                    if stored != rec {
                        mismatches += 1;
                    }
                } else {
                    // Torn tick: re-append the rebuilt record so the log
                    // is whole again going forward.
                    self.wals[r].append(&rec);
                }
                self.digest_timeline[r].push(rec.digest);
                self.regions[r].clear_tick_locals();
            }
        }
        Ok(RestoreReport {
            killed_regions: killed.iter().map(|&r| r as u32).collect(),
            checkpoint_tick: c0,
            replayed_ticks: t_kill - c0,
            torn_bytes,
            oracle_mismatches: mismatches,
        })
    }
}

/// Ingest + drain + admission for one region at tick `t`. Shared verbatim
/// by the live shard phase and crash replay — the digest depends on the
/// exact fold order, so there is exactly one implementation.
fn region_phase_a(
    st: &mut RegionState,
    t: u32,
    arrivals: &[u32],
    feed: &LoadFeed,
    placement: &Placement,
    budget: usize,
    capturing: bool,
) -> (Vec<Pending>, Vec<DecisionEvent>) {
    let mut events = Vec::new();
    let mut capture = |tick: u32, user: u32, tag: u64| {
        if capturing {
            events.push(DecisionEvent {
                tick,
                user,
                tag,
                route: Vec::new(),
            });
        }
    };
    st.expire(t);
    for &user in arrivals {
        st.arrivals += 1;
        st.tick_arrivals += 1;
        let request = feed.synthesize(user);
        if st
            .queue
            .push(Pending {
                user,
                tick: t,
                request,
            })
            .is_err()
        {
            st.shed_queue += 1;
            st.tick_shed_queue += 1;
            st.fold_decision(t, user, TAG_SHED_QUEUE, &[]);
            capture(t, user, TAG_SHED_QUEUE);
        }
    }
    let mut jobs = Vec::new();
    for _ in 0..budget {
        let Some(p) = st.queue.pop() else {
            break;
        };
        let covered = p
            .request
            .chain
            .iter()
            .all(|&m| placement.hosts_iter(m).next().is_some());
        if !covered {
            st.decide(t, p.user, None);
            capture(t, p.user, TAG_CLOUD);
            continue;
        }
        let chain_len = p.request.chain.len();
        let admitted = p.request.chain.iter().all(|&m| {
            let y = f64::from(st.in_flight.get(m.idx()).copied().unwrap_or(0));
            st.scaler.admit(m, chain_len, y)
        });
        if !admitted {
            st.shed_admission += 1;
            st.tick_shed_admission += 1;
            st.fold_decision(t, p.user, TAG_SHED_ADMISSION, &[]);
            capture(t, p.user, TAG_SHED_ADMISSION);
            continue;
        }
        jobs.push(p);
    }
    (jobs, events)
}

/// One region's admitted jobs of a tick with their routes: the hosts of
/// every edge route back to back in `hosts`, and per job the range of its
/// route there (`None`: cloud fallback).
struct Routed {
    jobs: Vec<(Pending, Option<Range<usize>>)>,
    hosts: Vec<NodeId>,
}

impl Routed {
    /// Each job with its route, in queue order.
    fn iter(&self) -> impl Iterator<Item = (&Pending, Option<&[NodeId]>)> {
        self.jobs
            .iter()
            .map(|(p, route)| (p, route.clone().map(|r| &self.hosts[r])))
    }
}

/// Route one region's admitted jobs against `placement`, in queue order
/// (live and replay share it).
fn route_jobs(jobs: Vec<Pending>, placement: &Placement, world: &Scenario) -> Routed {
    let Scenario {
        net, ap, catalog, ..
    } = world;
    let mut scratch = RouteScratch::new();
    let mut hosts = Vec::new();
    let jobs = jobs
        .into_iter()
        .map(|p| {
            let start = hosts.len();
            let route = optimal_hosts_into(
                &mut scratch,
                &p.request,
                placement,
                net,
                ap,
                catalog,
                &mut hosts,
            )
            .map(|_| start..hosts.len());
            (p, route)
        })
        .collect();
    Routed { jobs, hosts }
}

/// Autoscaler tick + WAL record for one region (live and replay share it).
fn region_phase_scale(
    st: &mut RegionState,
    t: u32,
    tick_secs: f64,
    placement: &Placement,
    world: &Scenario,
) -> TickRecord {
    for m in 0..st.services() {
        st.signal[m] = f64::from(st.in_flight[m]);
    }
    let signal = std::mem::take(&mut st.signal);
    let _actions = st.scaler.tick(
        f64::from(t) * tick_secs,
        &signal,
        placement,
        &world.catalog,
        &world.net,
    );
    st.signal = signal;
    TickRecord {
        tick: t,
        remote_add: st.remote_add.clone(),
        arrivals: st.tick_arrivals,
        decided: st.tick_decided,
        shed_queue: st.tick_shed_queue,
        shed_admission: st.tick_shed_admission,
        digest: st.digest,
    }
}

/// Freeze one region into a checkpoint image at tick `t`.
fn snapshot_region(st: &RegionState, t: u32) -> RegionCheckpoint {
    RegionCheckpoint {
        region: st.id,
        tick: t,
        pending: st.queue.iter().map(|p| (p.user, p.tick)).collect(),
        queue_high_watermark: st.queue.high_watermark() as u64,
        scaler: st.scaler.state(),
        in_flight: st.in_flight.clone(),
        ring: st.ring.clone(),
        arrivals: st.arrivals,
        decided: st.decided,
        shed_queue: st.shed_queue,
        shed_admission: st.shed_admission,
        cloud_fallbacks: st.cloud_fallbacks,
        digest: st.digest,
    }
}

/// Rebuild a region from a checkpoint image; queued requests are
/// re-synthesized from the feed.
fn restore_region(
    ck: &RegionCheckpoint,
    cfg: &ServeConfig,
    map: &RegionMap,
    feed: &LoadFeed,
) -> Result<RegionState, String> {
    let services = ck.in_flight.len();
    let nodes = cfg.nodes;
    let cap = cfg.queue_cap_per_station * map.count(ck.region).max(1);
    let mut st = RegionState::new(
        ck.region,
        services,
        nodes,
        cap,
        &cfg.autoscale,
        cfg.cold_start_s,
    );
    st.scaler
        .restore_state(&ck.scaler)
        .map_err(|e| format!("region {}: scaler restore: {e}", ck.region))?;
    for &(user, tick) in &ck.pending {
        let request = feed.synthesize(user);
        if st
            .queue
            .push(Pending {
                user,
                tick,
                request,
            })
            .is_err()
        {
            return Err(format!("region {}: checkpoint overflows queue", ck.region));
        }
    }
    st.queue
        .set_high_watermark(ck.queue_high_watermark as usize);
    st.in_flight = ck.in_flight.clone();
    st.ring = ck.ring.clone();
    st.arrivals = ck.arrivals;
    st.decided = ck.decided;
    st.shed_queue = ck.shed_queue;
    st.shed_admission = ck.shed_admission;
    st.cloud_fallbacks = ck.cloud_fallbacks;
    st.digest = ck.digest;
    Ok(st)
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The overloaded flash-crowd configuration `serve-flash-crash`
    /// measures in `benchmark/`.
    fn flash() -> ServeConfig {
        ServeConfig {
            nodes: 24,
            regions: 4,
            shards: 4,
            feed: FeedConfig {
                users: 200_000,
                shape: socl_trace::TemporalConfig::flash_crowd(),
                arrivals_per_tick: 300.0,
                seed: 0xFEED ^ 17,
                ..FeedConfig::default()
            },
            ..ServeConfig::small(17)
        }
    }

    #[test]
    fn service_runs_and_conserves() {
        let small = ServeConfig {
            feed: FeedConfig {
                users: 2000,
                arrivals_per_tick: 60.0,
                ..FeedConfig::default()
            },
            ..ServeConfig::small(3)
        };
        // Both shed paths fire under `flash`, and the decision stream is a
        // pure function of the configuration, so its totals are exact.
        for (cfg, ticks, pinned) in [
            (small, 10, None),
            (flash(), 60, Some([11475, 6514, 10, 4951])),
        ] {
            let mut serve = SoclServe::new(cfg);
            let summaries = serve.run(ticks);
            assert_eq!(serve.completed_ticks(), ticks);
            let t = serve.totals();
            assert!(t.arrivals > 0, "feed produced no load");
            assert!(t.decided > 0, "no decisions issued");
            assert_eq!(
                t.arrivals,
                t.decided + t.shed_queue + t.shed_admission + t.queued,
                "conservation violated"
            );
            if let Some(pinned) = pinned {
                assert_eq!(
                    [t.arrivals, t.decided, t.shed_queue, t.shed_admission],
                    pinned,
                    "arrivals / decided / queue-shed / admission-shed drifted"
                );
            }
            assert!(serve.max_checkpoint_bytes() <= 256 * 1024);
            // Digest timeline is dense: one entry per region per tick.
            for tl in serve.digest_timeline() {
                assert_eq!(tl.len(), ticks as usize);
            }
            let last = summaries.last().copied();
            assert_eq!(last.map(|s| s.tick), Some(ticks));
        }
    }

    #[test]
    fn shard_count_does_not_change_results() {
        let base = ServeConfig {
            feed: FeedConfig {
                users: 1500,
                arrivals_per_tick: 50.0,
                ..FeedConfig::default()
            },
            ..ServeConfig::small(11)
        };
        let digests: Vec<Vec<u64>> = [1usize, 2, 4]
            .iter()
            .map(|&shards| {
                let mut serve = SoclServe::new(ServeConfig {
                    shards,
                    ..base.clone()
                });
                serve.run(8).iter().map(|s| s.digest).collect()
            })
            .collect();
        assert_eq!(digests[0], digests[1]);
        assert_eq!(digests[0], digests[2]);
    }

    /// Holds the process-wide thread override at `n` for a test's scope:
    /// tests that set it take turns, and a failed assert still resets it.
    struct Threads {
        _turn: std::sync::MutexGuard<'static, ()>,
    }

    fn threads(n: usize) -> Threads {
        static TURN: Mutex<()> = Mutex::new(());
        let _turn = lock_recover(&TURN);
        socl_net::set_threads(n);
        Threads { _turn }
    }

    impl Drop for Threads {
        fn drop(&mut self) {
            socl_net::set_threads(0);
        }
    }

    /// Both sides of both fan-out gates: one worker is all-serial; with
    /// more, `flash` scans 200 000 users on the pool and crosses the
    /// phase A gate on the 584-arrival burst of tick 8.
    #[test]
    fn thread_count_does_not_change_results() {
        let runs: Vec<_> = [1usize, 2, 4]
            .iter()
            .map(|&n| {
                let _held = threads(n);
                let mut serve = SoclServe::new(flash());
                serve.run(24);
                (serve.digest_timeline().to_vec(), serve.snapshot_all())
            })
            .collect();
        assert_eq!(runs[0], runs[1]);
        assert_eq!(runs[0], runs[2]);
    }

    /// `sharded` hands results back in region order however the regions
    /// are dealt to shards. With more regions than shards, shard order
    /// (0, 3, 6, 1, …) is not region order, and no end-to-end test opens
    /// the phase A gate in that shape.
    #[test]
    fn sharded_returns_region_order() {
        let mut serve = SoclServe::new(ServeConfig {
            regions: 8,
            shards: 3,
            ..ServeConfig::small(1)
        });
        let ids: Vec<u32> = (0..8).collect();
        let id = |st: &mut RegionState| st.id;
        for n in [1, 2, 4] {
            let _held = threads(n);
            assert_eq!(
                sharded(&mut serve.regions, 3, 1 << 20, &id),
                ids,
                "threads={n}"
            );
        }
    }

    /// Which side the two gated fan-outs take at the benchmark's sizes,
    /// from the units `scan_arrivals` and phase A pass.
    #[test]
    fn gates_at_benchmark_sizes() {
        let _held = threads(4);
        let scan = |cfg: &ServeConfig| parallel_worthwhile(cfg.feed.users, COIN_UNIT);
        let phase_a = |cfg: &ServeConfig, arrivals: usize| {
            parallel_worthwhile(
                cfg.regions,
                arrivals.div_ceil(cfg.regions) * SYNTHESIZE_UNIT,
            )
        };
        // `serve-steady`: 40 000 users at a diurnal 2000 arrivals a tick.
        let steady = ServeConfig {
            nodes: 48,
            regions: 8,
            feed: FeedConfig {
                users: 40_000,
                arrivals_per_tick: 2000.0,
                ..FeedConfig::default()
            },
            ..ServeConfig::small(17)
        };
        assert!(scan(&flash()));
        assert!(!scan(&steady));
        assert!(!phase_a(&flash(), flash().feed.arrivals_per_tick as usize));
        assert!(phase_a(&flash(), 584));
        assert!(phase_a(&steady, steady.feed.arrivals_per_tick as usize));
    }

    /// A re-solve solves the world the service built once, with the epoch's
    /// tracer sample swapped in, and that is the scenario `assemble` builds
    /// from an independently generated metro and the same sample: all-pairs
    /// paths identical to a fresh build, the same placement. 48 nodes in 8
    /// regions under a diurnal feed, as `serve-steady`, for two epochs.
    #[test]
    fn epoch_world_is_the_assembled_world() {
        let cfg = ServeConfig {
            nodes: 48,
            regions: 8,
            feed: FeedConfig {
                users: 40_000,
                shape: socl_trace::TemporalConfig::diurnal(),
                arrivals_per_tick: 2000.0,
                ..FeedConfig::default()
            },
            ..ServeConfig::small(17)
        };
        let scenario_cfg = ScenarioConfig::paper(cfg.nodes, cfg.placement_sample);
        let base = scenario_cfg.build(cfg.seed);
        let mut serve = SoclServe::new(cfg.clone());
        for t in [1, 9] {
            let sample: Vec<_> = serve
                .scan_arrivals(t)
                .iter()
                .map(|&(_, u)| u)
                .chain(0..)
                .take(cfg.placement_sample)
                .map(|u| serve.feed().synthesize(u))
                .collect();
            serve.run(t - serve.completed_ticks());
            let world = &serve.world;
            let fresh = socl_net::AllPairs::build(&world.net);
            assert!(world.ap.identical(&fresh), "tick {t}");
            assert_eq!(world.requests, sample, "tick {t}");
            let assembled = scenario_cfg.assemble(base.net.clone(), base.catalog.clone(), sample);
            assert_eq!(
                serve.placement(),
                Some(&cfg.policy.place(&assembled, u64::from(t))),
                "tick {t}"
            );
        }
        assert_eq!(serve.placements.len(), 2);
    }

    #[test]
    fn kill_and_restore_is_bit_identical() {
        let cfg = ServeConfig {
            feed: FeedConfig {
                users: 1500,
                arrivals_per_tick: 50.0,
                ..FeedConfig::default()
            },
            ..ServeConfig::small(5)
        };
        let mut golden = SoclServe::new(cfg.clone());
        golden.run(12);
        let golden_final = golden.snapshot_all();

        let mut victim = SoclServe::new(cfg);
        victim.run(7);
        let report = victim
            .kill_and_restore(1, socl_sim::TornTail::PartialRecord)
            .expect("restore");
        assert_eq!(report.oracle_mismatches, 0);
        assert!(report.replayed_ticks > 0);
        victim.run(5);
        assert_eq!(
            victim.snapshot_all(),
            golden_final,
            "stitched state differs"
        );
        assert_eq!(victim.digest_timeline(), golden.digest_timeline());
    }

    /// The placement history keeps the epochs a replay can still reach,
    /// not one per epoch ever run: over 200 ticks of an epoch every two
    /// ticks it stays bounded by the outbox window, and a torn kill right
    /// after the checkpoint of tick 200 — which restores from tick 196's
    /// image and replays two epochs — still reproduces the WAL.
    #[test]
    fn placement_history_is_bounded_by_the_outbox_window() {
        let cfg = ServeConfig {
            resolve_every: 2,
            feed: FeedConfig {
                users: 1500,
                arrivals_per_tick: 50.0,
                ..FeedConfig::default()
            },
            ..ServeConfig::small(5)
        };
        let window = outbox_window(cfg.checkpoint_every);
        let bound = (window + cfg.checkpoint_every as usize).div_ceil(2) + 1;
        let mut serve = SoclServe::new(cfg);
        for t in 1..=200 {
            serve.step();
            assert_eq!(
                serve.placement_base + serve.placements.len(),
                serve.epoch_of(t) + 1,
                "tick {t}"
            );
            assert!(serve.placements.len() <= bound, "tick {t}");
        }
        assert!(serve.placement_base > 0);
        let report = serve
            .kill_and_restore(0, socl_sim::TornTail::PartialRecord)
            .expect("restore after the history was trimmed");
        assert_eq!(report.checkpoint_tick, 196);
        assert_eq!(report.oracle_mismatches, 0);
        serve.step();
    }

    /// The kill matrix: every shard × every torn-tail mode, killed after
    /// tick 1 (restore from the tick-0 image, replaying the scaler seeding),
    /// after a checkpoint tick, one tick after it, and on the first tick of
    /// a new placement epoch — by which point the checkpoint history has
    /// been trimmed. Rows share one victim on purpose: every row after the
    /// first starts from a restored service, so a restore that leaves head
    /// state (WAL, outbox, checkpoint history) subtly wrong surfaces in a
    /// later row; kills at 12 and 13 are also the "two kills one tick
    /// apart" case.
    #[test]
    fn kill_matrix_is_bit_identical() {
        use socl_sim::TornTail::{Clean, Garbage, PartialRecord};
        const KILL_TICKS: [u32; 4] = [1, 12, 13, 17];
        const END: u32 = 22;
        let cfg = ServeConfig {
            feed: FeedConfig {
                users: 1500,
                arrivals_per_tick: 50.0,
                ..FeedConfig::default()
            },
            ..ServeConfig::small(5)
        };
        assert_eq!((cfg.checkpoint_every, cfg.resolve_every), (4, 8));
        let mut golden = SoclServe::new(cfg.clone());
        let golden_at: Vec<Vec<Vec<u8>>> = KILL_TICKS
            .iter()
            .map(|&k| {
                golden.run(k - golden.completed_ticks());
                golden.snapshot_all()
            })
            .collect();
        golden.run(END - golden.completed_ticks());

        let mut victim = SoclServe::new(cfg.clone());
        for (&k, want) in KILL_TICKS.iter().zip(&golden_at) {
            victim.run(k - victim.completed_ticks());
            for torn in [Clean, Garbage, PartialRecord] {
                for shard in 0..cfg.shards {
                    let row = format!("kill after tick {k}, {torn:?}, shard {shard}");
                    let report = victim.kill_and_restore(shard, torn).expect(&row);
                    assert_eq!(report.oracle_mismatches, 0, "{row}");
                    assert_eq!(&victim.snapshot_all(), want, "{row}");
                    for (got, full) in victim
                        .digest_timeline()
                        .iter()
                        .zip(golden.digest_timeline())
                    {
                        assert_eq!(got[..], full[..k as usize], "{row}");
                    }
                }
            }
        }
        victim.run(END - victim.completed_ticks());
        assert_eq!(victim.snapshot_all(), golden.snapshot_all());
        assert_eq!(victim.digest_timeline(), golden.digest_timeline());
        // Both histories are bounded by the outbox window, not the run.
        let window = outbox_window(cfg.checkpoint_every);
        for images in &victim.checkpoints {
            assert!(images.iter().all(|(t, _)| *t as usize + window >= 20));
            assert_eq!(images.last().map(|(t, _)| *t), Some(20));
        }
        assert_eq!(victim.max_checkpoint_bytes(), golden.max_checkpoint_bytes());
    }
}
