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
//! (`socl_net::par`), and a tick fans out exactly once: one
//! `par_map_then` whose first stage scans the users in chunks and whose
//! second stage claims whole regions, with the calling thread among the
//! workers and a barrier between the stages. Chunk outputs merge in index
//! order and region outputs in region order, so the decision stream is
//! **bit-identical for any shard count and any thread count**. The
//! fan-out first asks `socl_net::parallel_worthwhile` about the tick's
//! work (every user's coin flip plus every expected arrival's draws,
//! admission and routing), otherwise running the same closures in index
//! order on the calling thread; `ServeConfig::shards` caps its workers.
//! The autoscaler tick and checkpoint encoding cost less than one
//! dispatch at any traffic the queues admit and always run on the calling
//! thread.
//! No async runtime, no wall clock, no hash-order iteration anywhere in
//! the decision path.
//!
//! Tick phase order (the digest depends on it, so replay mirrors it):
//!
//! 1. epoch boundary: re-solve placement from the tick's first
//!    `placement_sample` arrivals (a prefix scan that stops at the last
//!    one it needs);
//! 2. the fan-out: the arrival scan (user chunks, concatenated in
//!    ascending user id and grouped by home region between the stages),
//!    then per region: expire in-flight, ingest arrivals (queue-full
//!    sheds), and one pass over the drained requests — each popped
//!    request draws its chain, and two tables built for the region's tick
//!    decide the rest: each service's hosts under the placement (none: a
//!    cloud fallback) and admission's refusals per chain length and
//!    service (a shed). An admitted chain whose every service has a sole
//!    host takes those hosts as its route and draws nothing more; any
//!    other draws the rest of its request and is routed by the DP. Both
//!    land in the region's flat buffers — then the fold of the routed
//!    decisions into the region's digest, in queue order;
//! 3. head: charge in-flight per edge stage to the hosting region, in
//!    region then queue order, and record cross-region sends in the
//!    outbox (after the fan-out, because admission reads `in_flight`);
//! 4. autoscaler tick and WAL record per region;
//! 5. checkpoint every `checkpoint_every` ticks.

use crate::feed::{Coin, FeedConfig, LoadFeed};
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
    ScenarioConfig, ServiceId, UserId, UserRequest,
};
use socl_net::par::{lock_recover, par_map_indexed_with, par_map_then};
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

/// `parallel_worthwhile` unit of one expected arrival, in nanoseconds as
/// measured at the drain: a plain `serve-steady` tick on one thread drains
/// 2000 requests in ~0.77 ms as timed by per-request probes (chain draws
/// 0.51, coverage and admission 0.12, routes 0.10, folds 0.05), which
/// include the probes' own cost, so a drained request costs ~0.38 µs.
/// Every drained request seeds its stream and walks its chain; the ~70 %
/// admitted route and fold, and there every route is forced, drawing no
/// rest and running no DP. The gate opens at every tick of both `serve-*`
/// workloads (`tick_gate_at_benchmark_sizes`); `serve-steady`'s quietest
/// tick would still clear it at ~85 ns an arrival.
const SYNTHESIZE_UNIT: usize = 384;

/// Users one chunk of the arrival scan covers.
const SCAN_CHUNK: u32 = 16_384;

/// Chunks of a scan over `feed`'s population.
fn scan_chunks(feed: &LoadFeed) -> usize {
    feed.population().div_ceil(SCAN_CHUNK) as usize
}

/// Chunk `c` of a tick's arrival scan: every arrival among its users as
/// `(home region, user)`, ascending by user id. The live tick and crash
/// replay both scan through here.
fn scan_chunk(feed: &LoadFeed, map: &RegionMap, coin: &Coin, c: usize) -> Vec<(u32, u32)> {
    let lo = c as u32 * SCAN_CHUNK;
    let mut hits = Vec::new();
    coin.hits_into(
        lo..feed.population().min(lo.saturating_add(SCAN_CHUNK)),
        &mut hits,
    );
    hits.into_iter()
        .map(|u| (map.region_of(feed.home_station(u)), u))
        .collect()
}

/// Group a scan's arrivals by home region, keeping user-id order.
fn by_region<'a>(
    regions: usize,
    arrivals: impl IntoIterator<Item = &'a (u32, u32)>,
) -> Vec<Vec<u32>> {
    let mut per_region: Vec<Vec<u32>> = (0..regions).map(|_| Vec::new()).collect();
    for &(r, u) in arrivals {
        per_region[r as usize].push(u);
    }
    per_region
}

/// A tick's one fan-out on `threads` workers: stage one maps `first` over
/// `0..n1`, `between` gets its outputs in index order, and stage two runs
/// `f` on every region, each region claimed whole by one worker; outputs
/// come back in region order. Regions mutate in place, and `f` reads no
/// other region, so the result is the serial loop's for any thread count.
fn scan_then_regions<A, B, T>(
    regions: &mut [RegionState],
    threads: usize,
    n1: usize,
    first: impl Fn(usize) -> A + Sync,
    between: impl FnOnce(Vec<A>) -> B,
    f: impl Fn(&B, &mut RegionState) -> T + Sync,
) -> (B, Vec<T>)
where
    A: Send,
    B: Send + Sync,
    T: Send,
{
    let n = regions.len();
    let regions: Vec<Mutex<&mut RegionState>> = regions.iter_mut().map(Mutex::new).collect();
    par_map_then(threads, n1, first, between, n, |b, r| {
        // Each region is claimed by exactly one worker, so the lock is never
        // contended; a poisoned one means another worker panicked, which
        // the join re-raises.
        f(b, &mut lock_recover(&regions[r]))
    })
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
        // Phase 1: placement epoch, sampled from the tick's first arrivals.
        if (t - 1) % self.cfg.resolve_every.max(1) == 0 {
            self.resolve_placement(t);
        }
        let epoch = self.epoch_of(t);
        // Phase 2: the tick's one fan-out. Stage one scans the users in
        // chunks; between the stages the arrivals are grouped by home
        // region; stage two runs each region's ingest, drain, admission,
        // routing and own-decision fold.
        let threads = self.tick_threads(t);
        let placement = &self.placements[epoch - self.placement_base];
        let feed = &self.feed;
        let map = &self.region_map;
        let tick = Tick {
            t,
            feed,
            placement,
            world: &self.world,
            capturing: self.capture.is_some(),
        };
        let coin = feed.coin(t);
        let drain_per_station = self.cfg.drain_per_station;
        let n = self.regions.len();
        let (_, mut phase_a) = scan_then_regions(
            &mut self.regions,
            threads,
            scan_chunks(feed),
            |c| scan_chunk(feed, map, &coin, c),
            |chunks| by_region(n, chunks.iter().flatten()),
            |per_region, st| {
                let budget = drain_per_station * map.count(st.id).max(1);
                region_tick(st, &tick, &per_region[st.id as usize], budget)
            },
        );
        // Phase 3: charge in-flight per edge stage to its hosting region,
        // in region then queue order, and record cross-region sends. The
        // charges wait for every region's admission, which reads
        // `in_flight`.
        let mut events: Vec<DecisionEvent> = Vec::new();
        for (_, evts) in &mut phase_a {
            events.append(evts);
        }
        let mut sent: Vec<Vec<(u32, u32)>> = (0..n).map(|_| Vec::new()).collect();
        for (o, (routed, _)) in phase_a.iter().enumerate() {
            let origin = o as u32;
            for (user, chain, route) in routed.iter() {
                for (&m, &host) in chain.iter().zip(route.unwrap_or_default()) {
                    let target = self.region_map.region_of(host);
                    let remote = target != origin;
                    self.regions[target as usize].charge(m, t, remote);
                    if remote {
                        sent[o].push((target, m.0));
                    }
                }
                if tick.capturing {
                    events.push(DecisionEvent {
                        tick: t,
                        user,
                        tag: if route.is_some() { TAG_EDGE } else { TAG_CLOUD },
                        route: route.unwrap_or_default().to_vec(),
                    });
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
        // Phase 4: autoscaler tick per region, then the WAL record.
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
        // Phase 5: checkpoint cadence.
        if t % self.cfg.checkpoint_every.max(1) == 0 {
            self.take_checkpoints(t);
        }
        summary
    }

    /// Epoch index of tick `t` (1-based ticks).
    fn epoch_of(&self, t: u32) -> usize {
        ((t - 1) / self.cfg.resolve_every.max(1)) as usize
    }

    /// Workers for tick `t`'s fan-out (and a replayed tick's scan): up to
    /// `shards` when the tick's work — every user's coin flip plus every
    /// expected arrival's draws, admission and routing — outweighs a
    /// dispatch, else the calling thread alone. The count never changes a
    /// result.
    fn tick_threads(&self, t: u32) -> usize {
        let users = self.feed.population() as usize;
        let expected = (self.feed.arrival_probability(t) * users as f64) as usize;
        let work = users
            .saturating_mul(COIN_UNIT)
            .saturating_add(expected.saturating_mul(SYNTHESIZE_UNIT));
        let items = scan_chunks(&self.feed).max(self.regions.len());
        if parallel_worthwhile(items, work.div_ceil(items.max(1))) {
            effective_threads().min(self.cfg.shards.max(1))
        } else {
            1
        }
    }

    /// Re-solve the global placement from a tracer sample of tick `t`'s
    /// arrivals: the first `placement_sample` of them in user-id order
    /// (`LoadFeed::first_arrivals`, a prefix of the tick's scan), padded
    /// with the lowest user ids when arrivals are scarce. The sample
    /// becomes the world's request set and the policy solves the world as
    /// it stands: the network never changes, so no epoch rebuilds
    /// all-pairs paths or copies the topology or the catalog. Pure in
    /// `(feed, t)` — replay looks the result up from history instead of
    /// re-solving.
    fn resolve_placement(&mut self, t: u32) {
        let k = self.cfg.placement_sample.max(1);
        let mut sample: Vec<_> = self
            .feed
            .first_arrivals(t, k)
            .into_iter()
            .map(|u| self.feed.synthesize(u))
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
    /// `(home region, user)`, ascending by user id — the chunks of the live
    /// tick's first stage, concatenated in order, on as many workers as
    /// the tick would use.
    fn scan_arrivals(&self, t: u32) -> Vec<(u32, u32)> {
        let coin = self.feed.coin(t);
        par_map_indexed_with(scan_chunks(&self.feed), self.tick_threads(t), |c| {
            scan_chunk(&self.feed, &self.region_map, &coin, c)
        })
        .concat()
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
            self.regions[r] = restore_region(&ck, &self.cfg, &self.region_map)?;
            self.digest_timeline[r].truncate(c0 as usize);
        }
        // 3. Replay (c0, t_kill] per killed region. All inputs are
        // external state that survived the kill: the feed (pure), the
        // placement history, the clean WAL records, and peer outboxes.
        let mut mismatches = 0usize;
        for t in c0 + 1..=t_kill {
            let epoch = self.epoch_of(t);
            let placement = &self.placements[epoch - self.placement_base];
            let per_region = by_region(self.regions.len(), &self.scan_arrivals(t));
            for (ki, &r) in killed.iter().enumerate() {
                if t == 1 {
                    self.regions[r].scaler.seed_from_placement(
                        placement,
                        &self.world.catalog,
                        &self.world.net,
                    );
                }
                let budget = self.cfg.drain_per_station * self.region_map.count(r as u32).max(1);
                let tick = Tick {
                    t,
                    feed: &self.feed,
                    placement,
                    world: &self.world,
                    capturing: false,
                };
                let (routed, _) = region_tick(&mut self.regions[r], &tick, &per_region[r], budget);
                // Charge only stages hosted in this region (remote stages
                // belong to peers that never lost them).
                for (_, chain, route) in routed.iter() {
                    for (&m, &host) in chain.iter().zip(route.unwrap_or_default()) {
                        if self.region_map.region_of(host) == r as u32 {
                            self.regions[r].charge(m, t, false);
                        }
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

/// One region's share of tick `t`: expiry, ingest, then one pass over
/// the drained requests, then the fold of the routed decisions. An arrival
/// is queued as its `(user, tick)`, so a queue-full shed never draws
/// anything. Each popped request draws only its chain
/// ([`LoadFeed::draw_chain`]) into one scratch request, and two tables
/// built for this drain judge it: each service's [`Hosting`] under the
/// placement (coverage) and the [`Refusals`] of admission. A cloud
/// fallback or an admission shed is folded there and then. An admitted
/// chain whose every service has a sole host is routed to those hosts
/// without another draw: with one candidate per layer the DP has nothing
/// to choose. Any other admitted request draws the rest
/// ([`LoadFeed::draw_rest`]) and is routed by the DP. Either way its chain
/// and its hosts are appended to the region's flat buffers. The routed
/// decisions are folded after the pass, in queue order. The live tick's
/// second stage and crash replay both run this, so a region's digest takes
/// the same folds in the same order on both: the sheds and cloud fallbacks
/// as they are drained, then the routed decisions.
fn region_tick(
    st: &mut RegionState,
    tick: &Tick<'_>,
    arrivals: &[u32],
    budget: usize,
) -> (Routed, Vec<DecisionEvent>) {
    let Tick {
        t,
        feed,
        placement,
        world,
        capturing,
    } = *tick;
    let Scenario {
        net, ap, catalog, ..
    } = world;
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
        if st.queue.push(Pending { user, tick: t }).is_err() {
            st.shed_queue += 1;
            st.tick_shed_queue += 1;
            st.fold_decision(t, user, TAG_SHED_QUEUE, &[]);
            capture(t, user, TAG_SHED_QUEUE);
        }
    }
    let mut routed = Routed::default();
    let mut request = UserRequest {
        id: UserId(0),
        location: NodeId(0),
        chain: Vec::new(),
        edge_data: Vec::new(),
        r_in: 0.0,
        r_out: 0.0,
        d_max: feed.config().request.d_max,
    };
    let mut attempt = Vec::new();
    let mut scratch = RouteScratch::new();
    let hosting = hosting(placement);
    let mut refusals = Refusals::default();
    for _ in 0..budget {
        let Some(p) = st.queue.pop() else {
            break;
        };
        let mut rng = feed.draw_chain(p.user, &mut attempt, &mut request.chain);
        let chain = &request.chain;
        if chain.iter().any(|m| hosting[m.idx()] == Hosting::Unhosted) {
            st.decide(t, p.user, None);
            capture(t, p.user, TAG_CLOUD);
            continue;
        }
        if !refusals.admits(st, chain) {
            st.shed_admission += 1;
            st.tick_shed_admission += 1;
            st.fold_decision(t, p.user, TAG_SHED_ADMISSION, &[]);
            capture(t, p.user, TAG_SHED_ADMISSION);
            continue;
        }
        // A chain whose every service has one host has one route: those
        // hosts. Otherwise the rest of the request is drawn and the DP
        // picks among the hosts.
        let host_at = routed.hosts.len();
        routed
            .hosts
            .extend(chain.iter().map_while(|m| hosting[m.idx()].sole()));
        let route = if routed.hosts.len() - host_at == chain.len() {
            Some(host_at..routed.hosts.len())
        } else {
            routed.hosts.truncate(host_at);
            (request.r_in, request.r_out) =
                feed.draw_rest(&mut rng, request.chain.len(), &mut request.edge_data);
            request.id = UserId(p.user);
            request.location = feed.home_station(p.user);
            optimal_hosts_into(
                &mut scratch,
                &request,
                placement,
                net,
                ap,
                catalog,
                &mut routed.hosts,
            )
            .map(|_| host_at..routed.hosts.len())
        };
        let chain_at = routed.chains.len();
        routed.chains.extend_from_slice(&request.chain);
        routed
            .jobs
            .push((p.user, chain_at..routed.chains.len(), route));
    }
    for (user, _, route) in routed.iter() {
        st.decide(t, user, route);
    }
    (routed, events)
}

/// How many hosts a service has under a placement, as the drain reads it.
#[derive(Clone, Copy, PartialEq, Eq)]
enum Hosting {
    /// No host: a chain with this service falls back to the cloud.
    Unhosted,
    /// Exactly one host: every route serves the service there.
    Sole(NodeId),
    /// Two hosts or more: the DP chooses.
    Many,
}

impl Hosting {
    fn sole(self) -> Option<NodeId> {
        match self {
            Hosting::Sole(k) => Some(k),
            Hosting::Unhosted | Hosting::Many => None,
        }
    }
}

/// Every service's [`Hosting`] under `placement`, by service id.
fn hosting(placement: &Placement) -> Vec<Hosting> {
    (0..placement.services() as u32)
        .map(|m| {
            let mut hosts = placement.hosts_iter(ServiceId(m));
            match (hosts.next(), hosts.next()) {
                (None, _) => Hosting::Unhosted,
                (Some(k), None) => Hosting::Sole(k),
                (Some(_), Some(_)) => Hosting::Many,
            }
        })
        .collect()
}

/// Admission's verdicts for one region's drain: per chain length, which
/// services refuse a chain of that length. A verdict reads the region's
/// `in_flight` and its scaler's caps, and neither moves while the region
/// drains (charges land in the head phase, the scaler ticks after it), so
/// each row is built the first time a chain of its length is drained, by
/// the same [`Autoscaler::admit`](socl_autoscale::Autoscaler::admit) call
/// per service, and the table lives for one drain only.
#[derive(Default)]
struct Refusals {
    /// `rows[len][m]`: service `m` refuses a chain of length `len`; an
    /// empty row is not built yet.
    rows: Vec<Vec<bool>>,
}

impl Refusals {
    /// Does admission let `chain` through `st` this tick?
    fn admits(&mut self, st: &RegionState, chain: &[ServiceId]) -> bool {
        let len = chain.len();
        if self.rows.len() <= len {
            self.rows.resize_with(len + 1, Vec::new);
        }
        let row = &mut self.rows[len];
        if row.is_empty() {
            row.extend(
                st.in_flight
                    .iter()
                    .enumerate()
                    .map(|(m, &y)| !st.scaler.admit(ServiceId(m as u32), len, f64::from(y))),
            );
        }
        chain.iter().all(|m| !row[m.idx()])
    }
}

/// What every region reads during one tick.
struct Tick<'a> {
    t: u32,
    feed: &'a LoadFeed,
    placement: &'a Placement,
    world: &'a Scenario,
    /// Record decision events for the capture hook.
    capturing: bool,
}

/// One region's routed requests of a tick, in queue order, in flat
/// buffers: every request's chain back to back in `chains`, every edge
/// route's hosts back to back in `hosts`, and per request its user, the
/// range of its chain and the range of its route (`None`: cloud
/// fallback).
#[derive(Default)]
struct Routed {
    jobs: Vec<(u32, Range<usize>, Option<Range<usize>>)>,
    chains: Vec<ServiceId>,
    hosts: Vec<NodeId>,
}

impl Routed {
    /// Each request as `(user, chain, route)`, in queue order.
    fn iter(&self) -> impl Iterator<Item = (u32, &[ServiceId], Option<&[NodeId]>)> {
        self.jobs.iter().map(|(user, chain, route)| {
            (
                *user,
                &self.chains[chain.clone()],
                route.clone().map(|r| &self.hosts[r]),
            )
        })
    }
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

/// Rebuild a region from a checkpoint image; queued requests go back as
/// their `(user, tick)` and are drawn from the feed when drained.
fn restore_region(
    ck: &RegionCheckpoint,
    cfg: &ServeConfig,
    map: &RegionMap,
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
        if st.queue.push(Pending { user, tick }).is_err() {
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
    use crate::shard::RING_SLOTS;

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

    /// The global decision digest — every region's folds, in order — of
    /// the overloaded flash crowd (both shed paths, the fan-out open at
    /// more than one worker), of the small configuration (all serial) and
    /// of the small configuration under JDR. SoCL's placements host every
    /// service once, so each of their routes is forced; JDR's host some
    /// services twice, so the DP chooses among hosts by each request's
    /// home and volumes. The conservation totals above cannot see a fold
    /// moved within a region; these can.
    #[test]
    fn decision_digests_are_pinned() {
        let jdr = ServeConfig {
            policy: Policy::Jdr,
            ..ServeConfig::small(3)
        };
        for (cfg, ticks, pinned) in [
            (flash(), 60, 0xf074_b297_f08f_5a63),
            (ServeConfig::small(3), 24, 0xb98d_e2d8_ce8a_0fe9),
            (jdr, 24, 0xaed2_af40_3172_157a),
        ] {
            let dp = matches!(cfg.policy, Policy::Jdr);
            let mut serve = SoclServe::new(cfg);
            serve.run(ticks);
            assert_eq!(
                serve.global_digest(),
                pinned,
                "{:016x}",
                serve.global_digest()
            );
            if dp {
                let p = serve.placement().expect("placed");
                let hosts: Vec<usize> = (0..p.services() as u32)
                    .map(|m| p.instance_count(ServiceId(m)))
                    .collect();
                assert!(hosts.contains(&1), "no sole host: {hosts:?}");
                assert!(hosts.iter().any(|&n| n > 1), "no service on two hosts");
            }
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

    /// The tick's fan-out hands stage two's results back in region order
    /// whichever worker claimed each region, with more regions than
    /// workers, and `between` sees the first stage in index order.
    #[test]
    fn tick_fan_out_returns_region_order() {
        let mut serve = SoclServe::new(ServeConfig {
            regions: 8,
            shards: 3,
            ..ServeConfig::small(1)
        });
        let ids: Vec<u32> = (0..8).collect();
        for threads in 1..=4 {
            let (seen, got) = scan_then_regions(
                &mut serve.regions,
                threads,
                5,
                |c| c * 10,
                |a| a,
                |_, st| st.id,
            );
            assert_eq!(seen, [0, 10, 20, 30, 40], "threads={threads}");
            assert_eq!(got, ids, "threads={threads}");
        }
    }

    /// Which side the tick's fan-out gate takes at every tick of the
    /// intensity horizon: open on `serve-steady` (40 000 users,
    /// a diurnal 2000 arrivals a tick) and on `serve-flash-crash` (the
    /// 200 000-user scan alone clears it), shut on `ServeConfig::small`.
    #[test]
    fn tick_gate_at_benchmark_sizes() {
        let _held = threads(4);
        let steady = ServeConfig {
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
        for (cfg, opens) in [
            (steady, true),
            (flash(), true),
            (ServeConfig::small(17), false),
        ] {
            let serve = SoclServe::new(cfg);
            for t in 1..=serve.feed.horizon() as u32 {
                assert_eq!(serve.tick_threads(t) > 1, opens, "tick {t}");
            }
        }
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

    /// A tick's flat buffers hold exactly its routed requests, in queue
    /// order: each one's chain is its synthesized chain, nothing of a shed
    /// request is left in `chains`, and each route is the one the DP gives
    /// the synthesized request. Tick 11 of `flash`, where two of the four
    /// regions shed by admission, routed against the placement that hosts
    /// every service everywhere: `flash`'s own placements host each service
    /// once, which forces every route whatever the request's home and
    /// volumes.
    #[test]
    fn routed_buffers_hold_only_the_routed_requests() {
        let mut serve = SoclServe::new(flash());
        serve.run(10);
        let t = 11;
        let per_region = by_region(serve.regions.len(), &serve.scan_arrivals(t));
        let placement = &Placement::full(serve.world.catalog.len(), serve.world.net.node_count());
        let tick = Tick {
            t,
            feed: &serve.feed,
            placement,
            world: &serve.world,
            capturing: false,
        };
        let w = &serve.world;
        let mut scratch = RouteScratch::new();
        let shed: u64 = serve.regions.iter().map(|st| st.shed_admission).sum();
        let mut routed_any = false;
        for (r, st) in serve.regions.iter_mut().enumerate() {
            let budget = serve.cfg.drain_per_station * serve.region_map.count(st.id).max(1);
            let (routed, _) = region_tick(st, &tick, &per_region[r], budget);
            let mut chains = Vec::new();
            for (user, chain, route) in routed.iter() {
                let request = serve.feed.synthesize(user);
                assert_eq!(chain, request.chain, "user {user}");
                chains.extend_from_slice(chain);
                let mut want = Vec::new();
                optimal_hosts_into(
                    &mut scratch,
                    &request,
                    placement,
                    &w.net,
                    &w.ap,
                    &w.catalog,
                    &mut want,
                );
                assert_eq!(route, Some(&want[..]), "user {user}");
            }
            assert_eq!(routed.chains, chains, "region {r}");
            routed_any |= !chains.is_empty();
        }
        let now: u64 = serve.regions.iter().map(|st| st.shed_admission).sum();
        assert!(now > shed && routed_any, "no admission shed or no route");
    }

    /// The drain against placements in which chain services have no host,
    /// one host or several: a drained request falls back to the cloud
    /// exactly when a service of its chain is unhosted, and every routed
    /// request's hosts are the DP's on the synthesized request, whether the
    /// drain took the sole hosts or ran the DP. Each case serves `small`
    /// for a few ticks, then drains one tick against a random placement.
    #[test]
    fn mixed_placement_drain_matches_the_dp() {
        let (mut forced, mut chosen, mut cloud) = (0, 0, 0);
        socl_net::rng::cases(12, |rng| {
            let mut serve = SoclServe::new(ServeConfig::small(rng.gen_range(0..1000u64)));
            serve.run(rng.gen_range(1..=4u32));
            let w = &serve.world;
            let (services, nodes) = (w.catalog.len(), w.net.node_count() as u32);
            let mut placement = Placement::empty(services, nodes as usize);
            for m in 0..services as u32 {
                for _ in 0..[0, 1, 1, 1, 2, 3][rng.gen_range(0..6usize)] {
                    placement.set(ServiceId(m), NodeId(rng.gen_range(0..nodes)), true);
                }
            }
            let t = serve.completed_ticks() + 1;
            let per_region = by_region(serve.regions.len(), &serve.scan_arrivals(t));
            let tick = Tick {
                t,
                feed: &serve.feed,
                placement: &placement,
                world: w,
                capturing: true,
            };
            let hosted = |m: &ServiceId| placement.instance_count(*m);
            let mut scratch = RouteScratch::new();
            for (r, st) in serve.regions.iter_mut().enumerate() {
                let budget = serve.cfg.drain_per_station * serve.region_map.count(st.id).max(1);
                let (routed, events) = region_tick(st, &tick, &per_region[r], budget);
                for e in events {
                    let chain = serve.feed.synthesize(e.user).chain;
                    let unhosted = chain.iter().any(|m| hosted(m) == 0);
                    match e.tag {
                        TAG_CLOUD => assert!(unhosted, "user {}", e.user),
                        TAG_SHED_ADMISSION => assert!(!unhosted, "user {}", e.user),
                        _ => {}
                    }
                    cloud += usize::from(e.tag == TAG_CLOUD);
                }
                for (user, chain, route) in routed.iter() {
                    let request = serve.feed.synthesize(user);
                    assert_eq!(chain, request.chain, "user {user}");
                    let mut want = Vec::new();
                    let dp = optimal_hosts_into(
                        &mut scratch,
                        &request,
                        &placement,
                        &w.net,
                        &w.ap,
                        &w.catalog,
                        &mut want,
                    );
                    assert!(dp.is_some(), "user {user}: routed an uncovered chain");
                    assert_eq!(route, Some(&want[..]), "user {user}");
                    if chain.iter().all(|m| hosted(m) == 1) {
                        forced += 1;
                    } else {
                        chosen += 1;
                    }
                }
            }
        });
        assert!(
            forced > 0 && chosen > 0 && cloud > 0,
            "{forced} {chosen} {cloud}"
        );
    }

    /// The drain's refusal table gives the verdict per-request
    /// `Autoscaler::admit` calls give, for random in-flight counts and
    /// capacity ceilings (zero among them), every chain length up to the
    /// feed's longest, admission on and off, and more services than one
    /// 64-bit word holds.
    #[test]
    fn refusal_table_matches_per_request_admit() {
        let longest = FeedConfig::default().request.chain_len.1;
        socl_net::rng::cases(24, |rng| {
            let services = rng.gen_range(1..=80usize);
            let autoscale = AutoscaleConfig {
                admission: AdmissionPolicy {
                    enabled: rng.gen_range(0..4u32) != 0,
                    ..AdmissionPolicy::default()
                },
                ..AutoscaleConfig::default()
            };
            let mut st = RegionState::new(0, services, 4, 8, &autoscale, 0.5);
            let mut state = st.scaler.state();
            state.caps = (0..services).map(|_| rng.gen_range(0..=6u32)).collect();
            st.scaler.restore_state(&state).expect("caps restore");
            st.in_flight = (0..services).map(|_| rng.gen_range(0..=60u32)).collect();
            let mut refusals = Refusals::default();
            for _ in 0..64 {
                let len = rng.gen_range(1..=longest);
                let chain: Vec<ServiceId> = (0..len)
                    .map(|_| ServiceId(rng.gen_range(0..services as u32)))
                    .collect();
                let admit = chain
                    .iter()
                    .all(|&m| st.scaler.admit(m, len, f64::from(st.in_flight[m.idx()])));
                assert_eq!(refusals.admits(&st, &chain), admit, "{chain:?}");
            }
        });
    }

    /// Through the live tick, tick after tick: every drained request's
    /// admission verdict is the per-request `admit` against the region's
    /// in-flight after expiry and the scaler as the tick found it, across
    /// the scaler ticks that move the caps at an epoch's placement — so
    /// no verdict outlives the tick it was computed for. One worker drains
    /// every region, so anything a drain kept would reach the next.
    #[test]
    fn drain_admission_matches_per_request_admit() {
        let _held = threads(1);
        let mut serve = SoclServe::new(flash());
        serve.step();
        serve.enable_capture();
        let services = serve.world.catalog.len();
        let (mut moved, mut shed, mut admitted) = (0, 0, 0);
        let mut last_caps = Vec::new();
        for t in 2..=60 {
            let before: Vec<(Vec<u32>, socl_autoscale::Autoscaler)> = serve
                .regions
                .iter()
                .map(|st| {
                    let slot = &st.ring[(t as usize % RING_SLOTS) * services..];
                    let y = st.in_flight.iter().zip(slot);
                    let y = y.map(|(f, gone)| f.saturating_sub(*gone)).collect();
                    (y, st.scaler.clone())
                })
                .collect();
            let caps: Vec<u32> = before
                .iter()
                .flat_map(|(_, s)| (0..services as u32).map(|m| s.max_capacity(ServiceId(m))))
                .collect();
            moved += usize::from(!last_caps.is_empty() && caps != last_caps);
            last_caps = caps;
            serve.step();
            let events = serve.take_captured();
            let placement = serve.placement().expect("placed");
            for e in events {
                let request = serve.feed.synthesize(e.user);
                let chain = &request.chain;
                if e.tag == TAG_SHED_QUEUE
                    || chain.iter().any(|&m| placement.instance_count(m) == 0)
                {
                    continue;
                }
                let (y, scaler) = &before[serve.region_map.region_of(request.location) as usize];
                let admit = chain
                    .iter()
                    .all(|&m| scaler.admit(m, chain.len(), f64::from(y[m.idx()])));
                assert_eq!(
                    e.tag != TAG_SHED_ADMISSION,
                    admit,
                    "tick {t}, user {}",
                    e.user
                );
                shed += usize::from(!admit);
                admitted += usize::from(admit);
            }
        }
        assert!(
            moved > 0 && shed > 0 && admitted > 0,
            "{moved} {shed} {admitted}"
        );
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
