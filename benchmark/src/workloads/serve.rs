//! `serve-steady` and `serve-flash-crash`: `SoclServe::step` timed from
//! outside, tick by tick, with the recovery drill on the second.
//!
//! Arrivals are a schedule in *tick* time — a slow tick does not thin them,
//! overflow is shed — and ticks run back to back in wall time, so the
//! number decided per tick is set by `drain_per_station`, not by speed:
//! an open loop whose sustainable rate is configuration. Capacity in wall
//! time is `decisions_per_s`.

use crate::metrics::Acc;
use crate::trace::{Recorder, SpanId};
use crate::workloads::probes::{self, Attach};
use crate::workloads::{fingerprint, ms, Ctx};
use socl::autoscale::Autoscaler;
use socl::model::{evaluate, RouteScratch, Scenario, ScenarioConfig, UserRequest};
use socl::net::{set_threads, VgCache};
use socl::serve::{
    audit_serve, FeedConfig, RegionCheckpoint, RegionMap, RegionWal, ServeConfig, SoclServe,
    TickRecord, TickSummary,
};
use socl::sim::TornTail;
use socl::trace::TemporalConfig;
use std::time::{Duration, Instant};

/// Digest tags `SoclServe` stamps on captured decisions (private there).
const TAG_EDGE: u64 = 1;
const TAG_SHED_QUEUE: u64 = 4;

/// Frozen workload constants; see CALIBRATION.md for how they were chosen.
pub struct ServeSizes {
    pub nodes: usize,
    pub regions: usize,
    pub users: usize,
    pub shape: fn() -> TemporalConfig,
    pub arrivals_per_tick: f64,
    pub drain_per_station: usize,
    pub queue_cap_per_station: usize,
    /// Untimed ticks a round starts with (part of set-up).
    pub warmup: u32,
    /// Timed ticks per round.
    pub timed: u32,
    /// Kill-and-restore one shard after every this many timed ticks.
    pub kill_every: Option<u32>,
    /// Ticks the 1-shard / 1-thread reference instance must reproduce.
    pub reference_ticks: u32,
}

pub const STEADY: ServeSizes = ServeSizes {
    nodes: 48,
    regions: 8,
    users: 40_000,
    shape: TemporalConfig::diurnal,
    arrivals_per_tick: 2000.0,
    drain_per_station: 64,
    queue_cap_per_station: 128,
    warmup: 24,
    timed: 120,
    kill_every: None,
    reference_ticks: 40,
};

pub const FLASH_CRASH: ServeSizes = ServeSizes {
    nodes: 24,
    regions: 4,
    users: 200_000,
    shape: TemporalConfig::flash_crowd,
    arrivals_per_tick: 300.0,
    drain_per_station: 12,
    queue_cap_per_station: 24,
    warmup: 8,
    timed: 240,
    kill_every: Some(37),
    reference_ticks: 64,
};

const TORN_CYCLE: [TornTail; 3] = [TornTail::Clean, TornTail::Garbage, TornTail::PartialRecord];

/// Seed of the fixture — topology, catalog, placement tie-breaks. Every
/// round of every run serves the same metro (the `BENCH_serve.json` one);
/// `--seed` drives the traffic. A topology per seed would put a 2x spread
/// of re-solve cost between two runs of the same code.
pub const FIXTURE_SEED: u64 = 17;

/// The service on the fixture metro, fed by the feed `feed_seed` selects
/// (arrival noise, arrival hash, user homes, chains, data volumes).
fn config(sizes: &ServeSizes, feed_seed: u64, shards: usize) -> ServeConfig {
    ServeConfig {
        nodes: sizes.nodes,
        regions: sizes.regions,
        shards,
        queue_cap_per_station: sizes.queue_cap_per_station,
        drain_per_station: sizes.drain_per_station,
        resolve_every: 8,
        checkpoint_every: 4,
        feed: FeedConfig {
            users: sizes.users,
            shape: (sizes.shape)(),
            arrivals_per_tick: sizes.arrivals_per_tick,
            seed: 0xFEED ^ feed_seed,
            ..FeedConfig::default()
        },
        ..ServeConfig::small(FIXTURE_SEED)
    }
}

/// The topology and catalog `SoclServe::new` builds internally, rebuilt by
/// the harness from the same generator call so replays see the same world.
fn base_scenario(cfg: &ServeConfig) -> Scenario {
    ScenarioConfig::paper(cfg.nodes, cfg.placement_sample.max(1)).build(cfg.seed)
}

/// First tick of the placement epoch `t` belongs to.
fn epoch_start(cfg: &ServeConfig, t: u32) -> u32 {
    let every = cfg.resolve_every.max(1);
    (t - 1) / every * every + 1
}

/// The scenario `SoclServe` re-solves placement on at epoch tick `t`: the
/// first `placement_sample` arrivals of the tick, padded with low user ids.
fn epoch_scenario(serve: &SoclServe, base: &Scenario, t: u32) -> Scenario {
    let cfg = serve.config();
    let feed = serve.feed();
    let k = cfg.placement_sample.max(1);
    let users = feed.config().users as u32;
    let mut sample: Vec<UserRequest> = (0..users)
        .filter(|&u| feed.arrives(t, u))
        .take(k)
        .map(|u| feed.synthesize(u))
        .collect();
    let pad = k - sample.len();
    sample.extend((0..users).take(pad).map(|u| feed.synthesize(u)));
    ScenarioConfig::paper(cfg.nodes, k).assemble(base.net.clone(), base.catalog.clone(), sample)
}

pub fn run(ctx: &mut Ctx, sizes: &ServeSizes) {
    let mut kills = 0usize;
    while ctx.more_rounds() {
        let began = Instant::now();
        let traced = ctx.begin_round();
        let wall_ms = round(ctx, sizes, traced, &mut kills);
        ctx.end_round(began, wall_ms);
    }
    if let Some(frac) = ctx
        .rec
        .as_ref()
        .and_then(|rec| rec.child_sum_frac("serve.step"))
    {
        ctx.acc.push("serve.service.unattributed_frac", 1.0 - frac);
    }
}

/// One round; returns the summed wall of its timed steps, ms.
fn round(ctx: &mut Ctx, sizes: &ServeSizes, traced: bool, kills: &mut usize) -> f64 {
    let seed = ctx.round_seed();
    let threads = ctx.cond.threads;
    let cfg = config(sizes, seed, ctx.cond.shards);
    let warmup = ctx.scaled(sizes.warmup, 8);
    let timed = ctx.scaled(sizes.timed, 16);
    let kill_every = sizes.kill_every.map(|k| if ctx.args.smoke { 7 } else { k });

    // Set-up: construction plus the warm-up ticks.
    let t_setup = Instant::now();
    let mut serve = SoclServe::new(cfg.clone());
    let mut prev_queued = 0usize;
    for _ in 0..warmup {
        let s = serve.step();
        conservation(ctx, &s, &mut prev_queued);
    }
    ctx.e2e.setup_s.push(t_setup.elapsed().as_secs_f64());

    let mut replay = traced.then(|| Replay::new(&serve, threads));
    if traced {
        serve.enable_capture();
    }
    let totals_at_start = serve.totals();
    let rss_at_start = crate::env::rss_mib();
    let (mut wall_sum, mut resolve_sum, mut ckpt_sum) = (0.0f64, 0.0f64, 0.0f64);
    for i in 0..timed {
        let t = serve.completed_ticks() + 1;
        let span = replay
            .as_ref()
            .and(ctx.rec.as_mut())
            .map(|rec| rec.begin("serve.step", None, u64::from(t)));
        let t0 = Instant::now();
        let s = serve.step();
        let wall = t0.elapsed();
        if let (Some(span), Some(rec)) = (span, ctx.rec.as_mut()) {
            rec.end(span);
        }
        let wall_ms = ms(wall);
        wall_sum += wall_ms;
        ctx.e2e.step_ms.push(wall_ms);
        ctx.e2e.attempted += 1;
        ctx.e2e.decided += u64::from(s.decided);
        ctx.e2e.offered += u64::from(s.arrivals);
        conservation(ctx, &s, &mut prev_queued);
        // Classify the tick from outside by the service's own cadence.
        if (t - 1).is_multiple_of(cfg.resolve_every) {
            resolve_sum += wall_ms;
            ctx.acc.push("serve.service.tick_resolve_ms_p50", wall_ms);
        } else if t.is_multiple_of(cfg.checkpoint_every) {
            ckpt_sum += wall_ms;
            ctx.acc.push("serve.service.tick_ckpt_ms_p50", wall_ms);
        } else {
            ctx.acc.push("serve.service.tick_plain_ms_p50", wall_ms);
        }
        if let (Some(replay), Some(span), Some(rec)) = (replay.as_mut(), span, ctx.rec.as_mut()) {
            if let Err(why) = replay.after_step(rec, &mut ctx.acc, &mut serve, span, &s) {
                ctx.check(false, || why);
            }
        }
        if kill_every.is_some_and(|k| (i + 1) % k == 0) {
            recover(ctx, &mut serve, *kills);
            *kills += 1;
        }
    }

    // Round-end checks and the window's totals.
    let violations = audit_serve(&serve);
    ctx.check(violations.is_empty(), || {
        format!("audit_serve: {}", violations.join("; "))
    });
    let totals = serve.totals();
    let arrivals = totals.arrivals - totals_at_start.arrivals;
    let cloud = totals.cloud_fallbacks - totals_at_start.cloud_fallbacks;
    let decided = totals.decided - totals_at_start.decided;
    let shed_queue = totals.shed_queue - totals_at_start.shed_queue;
    let shed_admission = totals.shed_admission - totals_at_start.shed_admission;
    ctx.e2e.served += decided - cloud;
    let base = replay
        .take()
        .map_or_else(|| base_scenario(&cfg), |r| r.finish(ctx, &serve));
    if let Some(placement) = serve.placement() {
        let t_epoch = epoch_start(&cfg, serve.completed_ticks());
        let sc = epoch_scenario(&serve, &base, t_epoch);
        ctx.e2e.objective.push(evaluate(&sc, placement).objective);
    }
    let acc = &mut ctx.acc;
    let ticks = f64::from(timed);
    if wall_sum > 0.0 {
        acc.push("serve.service.resolve_time_share", resolve_sum / wall_sum);
        acc.push("serve.service.ckpt_time_share", ckpt_sum / wall_sum);
    }
    acc.push(
        "serve.service.decisions_per_tick_mean",
        decided as f64 / ticks,
    );
    acc.push(
        "serve.service.rss_growth_mb_per_kilotick",
        (crate::env::rss_mib() - rss_at_start) / ticks * 1e3,
    );
    acc.push("serve.queue.depth_peak", totals.queue_peak as f64);
    acc.push("serve.queue.shed", shed_queue as f64 / ticks);
    acc.push("serve.queue.queued_at_end", totals.queued as f64);
    if arrivals > 0 {
        let lost = shed_queue + shed_admission + cloud;
        acc.push("serve.queue.shed_frac", lost as f64 / arrivals as f64);
    }
    acc.push(
        "serve.wal.bytes_per_tick",
        serve.wal_bytes() as f64 / f64::from(serve.completed_ticks()),
    );
    acc.push(
        "serve.wal.ckpt_bytes_max",
        serve.max_checkpoint_bytes() as f64,
    );
    acc.push("autoscale.admission.shed", shed_admission as f64 / ticks);
    let (ups, downs) = serve
        .regions()
        .iter()
        .map(|st| st.scaler.events())
        .fold((0, 0), |a, e| (a.0 + e.0, a.1 + e.1));
    let lifetime = f64::from(serve.completed_ticks());
    acc.push("autoscale.scaler.scale_ups", ups as f64 / lifetime);
    acc.push("autoscale.scaler.scale_downs", downs as f64 / lifetime);
    if ctx.rounds == 0 {
        // Round 0 runs on `--seed` itself whatever the run length, so its
        // fingerprint repeats exactly for a seed.
        ctx.info
            .insert("decision_digest", format!("{:016x}", serve.global_digest()));
        ctx.info.insert(
            "round_0_window",
            format!(
                "{arrivals} arrivals, {decided} decided ({cloud} cloud), {shed_queue} queue-shed, \
                 {shed_admission} admission-shed, {} queued at end",
                totals.queued
            ),
        );
        reference(ctx, sizes, seed, &serve, warmup + timed);
    }
    wall_sum
}

/// `arrivals + queued before = decided + shed + queued after`, every tick.
fn conservation(ctx: &mut Ctx, s: &TickSummary, prev_queued: &mut usize) {
    let ok = conserves(s, *prev_queued);
    ctx.check(ok, || {
        format!(
            "tick {}: {} arrivals + {} queued != {} decided + {} + {} shed + {} queued",
            s.tick, s.arrivals, prev_queued, s.decided, s.shed_queue, s.shed_admission, s.queued
        )
    });
    *prev_queued = s.queued;
}

fn conserves(s: &TickSummary, prev_queued: usize) -> bool {
    u64::from(s.arrivals) + prev_queued as u64
        == u64::from(s.decided)
            + u64::from(s.shed_queue)
            + u64::from(s.shed_admission)
            + s.queued as u64
}

/// Kill one shard at the current tick boundary and bring it back; the
/// stitched state and the digest timeline must be what they were.
fn recover(ctx: &mut Ctx, serve: &mut SoclServe, kill: usize) {
    let shard = kill % ctx.cond.shards;
    let torn = TORN_CYCLE[kill % TORN_CYCLE.len()];
    let state_before = serve.snapshot_all();
    let timeline_before = serve.digest_timeline().to_vec();
    let t0 = Instant::now();
    let report = serve.kill_and_restore(shard, torn);
    let wall = t0.elapsed();
    ctx.e2e.attempted += 1;
    match report {
        Ok(r) => {
            ctx.check(r.oracle_mismatches == 0, || {
                format!(
                    "kill {kill}: {} replayed ticks disagree with the WAL",
                    r.oracle_mismatches
                )
            });
            ctx.check(serve.snapshot_all() == state_before, || {
                format!("kill {kill} ({torn:?}): restored state differs from the state killed")
            });
            ctx.check(
                serve.digest_timeline() == timeline_before.as_slice(),
                || format!("kill {kill} ({torn:?}): digest timeline differs after restore"),
            );
            let acc = &mut ctx.acc;
            acc.push("serve.service.recovery_ms_p50", ms(wall));
            acc.push(
                "serve.service.restore_replayed_ticks_mean",
                f64::from(r.replayed_ticks),
            );
            acc.push("serve.service.restore_torn_bytes_mean", r.torn_bytes as f64);
            if r.replayed_ticks > 0 {
                acc.push(
                    "serve.service.restore_ms_per_replayed_tick",
                    ms(wall) / f64::from(r.replayed_ticks),
                );
            }
        }
        Err(e) => {
            ctx.check(false, || {
                format!("kill {kill} ({torn:?}): kill_and_restore failed: {e}")
            });
        }
    }
}

/// A 1-shard instance on 1 thread must reproduce the digest timeline of
/// the measured instance (T shards, T threads, kills and all).
fn reference(ctx: &mut Ctx, sizes: &ServeSizes, seed: u64, measured: &SoclServe, ran: u32) {
    let ticks = ctx.scaled(sizes.reference_ticks, 12).min(ran);
    set_threads(1);
    let mut single = SoclServe::new(config(sizes, seed, 1));
    single.run(ticks);
    set_threads(ctx.cond.threads);
    let same = measured
        .digest_timeline()
        .iter()
        .zip(single.digest_timeline())
        .all(|(a, b)| {
            a.get(..ticks as usize) == b.get(..ticks as usize) && b.len() == ticks as usize
        });
    ctx.check(same, || {
        format!("1-shard / 1-thread instance diverges within the first {ticks} ticks")
    });
}

/// Per-round state of the traced run: mirrors and harness-built journals
/// the replayed calls run against.
struct Replay {
    base: Scenario,
    threads: u32,
    mirrors: Vec<Autoscaler>,
    seeded: bool,
    wal: RegionWal,
    vg: VgCache,
    scratch: RouteScratch,
    last_epoch: Option<Scenario>,
    largest_image: Vec<u8>,
}

impl Replay {
    fn new(serve: &SoclServe, threads: usize) -> Self {
        let cfg = serve.config();
        let base = base_scenario(cfg);
        let mirrors = serve
            .regions()
            .iter()
            .map(|_| {
                Autoscaler::new(
                    cfg.autoscale.clone(),
                    cfg.cold_start_s,
                    base.catalog.len(),
                    cfg.nodes,
                )
            })
            .collect();
        Self {
            base,
            threads: threads as u32,
            mirrors,
            seeded: false,
            wal: RegionWal::new(),
            vg: VgCache::new(),
            scratch: RouteScratch::new(),
            last_epoch: None,
            largest_image: Vec::new(),
        }
    }

    /// Replay, between steps, the calls tick `s.tick` made inside
    /// `SoclServe::step`, each as a child of the step's span. Phases the
    /// service fans out over its shards are replayed on one thread and
    /// attributed at `wall / threads`.
    fn after_step(
        &mut self,
        rec: &mut Recorder,
        acc: &mut Acc,
        serve: &mut SoclServe,
        span: SpanId,
        s: &TickSummary,
    ) -> Result<(), String> {
        let t = s.tick;
        let events = serve.take_captured();
        let cfg = serve.config();
        let feed = serve.feed();
        let users = feed.config().users as u32;
        let fanned = |wall: Duration| wall / self.threads;

        // Feed: the O(users) Bernoulli scan, then synthesis of the arrivals.
        let t0 = Instant::now();
        let arrivals: Vec<u32> = (0..users).filter(|&u| feed.arrives(t, u)).collect();
        let wall = t0.elapsed();
        acc.push_per_call("serve.feed.arrives_ns", wall, users as usize, 1.0);
        rec.replayed("replay.feed.scan", span, fanned(wall));
        let scan_ms = ms(fanned(wall));
        let t0 = Instant::now();
        let synthesized: Vec<UserRequest> = arrivals.iter().map(|&u| feed.synthesize(u)).collect();
        let wall = t0.elapsed();
        acc.push_per_call("serve.feed.synthesize_us", wall, synthesized.len(), 1e3);
        rec.replayed("replay.feed.synthesize", span, fanned(wall));
        if !(t - 1).is_multiple_of(cfg.resolve_every) && !t.is_multiple_of(cfg.checkpoint_every) {
            let tick_ms = rec.span_nanos(span) as f64 / 1e6;
            if tick_ms > 0.0 {
                acc.push("serve.feed.scan_share", scan_ms / tick_ms);
            }
        }

        // Queue wait of everything drained this tick (edge, cloud, admission).
        for e in events.iter().filter(|e| e.tag != TAG_SHED_QUEUE) {
            let arrived = (1..=e.tick)
                .rev()
                .take(64)
                .find(|&a| feed.arrives(a, e.user));
            if let Some(a) = arrived {
                let wait = f64::from(e.tick - a);
                acc.push("serve.queue.wait_ticks_p50", wait);
                acc.push("serve.queue.wait_ticks_p99", wait);
            }
        }

        // Admission and routing of the drained requests.
        let drained: Vec<(u32, UserRequest)> = events
            .iter()
            .filter(|e| e.tag != TAG_SHED_QUEUE)
            .map(|e| {
                (
                    serve.region_map().region_of(feed.home_station(e.user)),
                    feed.synthesize(e.user),
                )
            })
            .collect();
        if self.seeded {
            let t0 = Instant::now();
            let mut admits = 0usize;
            for (region, req) in &drained {
                let mirror = &self.mirrors[*region as usize];
                for &m in &req.chain {
                    std::hint::black_box(mirror.admit(m, req.chain.len(), 1.0));
                    admits += 1;
                }
            }
            let wall = t0.elapsed();
            acc.push_per_call("autoscale.admission.admit_ns", wall, admits, 1.0);
            rec.replayed("replay.autoscale.admit", span, fanned(wall));
        }
        let routed: Vec<&UserRequest> = events
            .iter()
            .zip(&drained)
            .filter(|(e, _)| e.tag == TAG_EDGE)
            .map(|(_, (_, req))| req)
            .collect();
        let t0 = Instant::now();
        for req in &routed {
            std::hint::black_box(serve.probe_route(&mut self.scratch, req).route().is_some());
        }
        rec.replayed("replay.model.route", span, fanned(t0.elapsed()));

        // Epoch boundary: assemble the tracer scenario and re-solve it.
        let placement = serve
            .placement()
            .ok_or("no placement after a tick")?
            .clone();
        if (t - 1).is_multiple_of(cfg.resolve_every) {
            let t0 = Instant::now();
            let sc = epoch_scenario(serve, &self.base, t);
            rec.replayed("replay.model.assemble", span, t0.elapsed());
            let composed =
                probes::pipeline(rec, acc, Attach::Replay { parent: span }, &sc, &mut self.vg);
            if composed.placement != placement {
                return Err(format!(
                    "tick {t}: replayed epoch solve differs from the service's placement"
                ));
            }
            probes::model(acc, &sc, &placement, 2);
            self.last_epoch = Some(sc);
        }

        // Scaler: mirrors fed the regions' in-flight signal.
        if !self.seeded {
            for m in &mut self.mirrors {
                m.seed_from_placement(&placement, &self.base.catalog, &self.base.net);
            }
            self.seeded = true;
        }
        let now = f64::from(t) * cfg.tick_secs;
        let mut scaler_wall = Duration::ZERO;
        for (mirror, st) in self.mirrors.iter_mut().zip(serve.regions()) {
            let signal: Vec<f64> = st.in_flight.iter().map(|&y| f64::from(y)).collect();
            let t0 = Instant::now();
            std::hint::black_box(
                mirror
                    .tick(now, &signal, &placement, &self.base.catalog, &self.base.net)
                    .len(),
            );
            let wall = t0.elapsed();
            acc.push("autoscale.scaler.tick_us_p50", wall.as_secs_f64() * 1e6);
            scaler_wall += wall;
        }
        rec.replayed("replay.autoscale.tick", span, fanned(scaler_wall));

        // Journal: one WAL record per region, appended to a harness log.
        let records: Vec<TickRecord> = serve
            .regions()
            .iter()
            .map(|st| TickRecord {
                tick: t,
                remote_add: vec![0; st.services()],
                arrivals: s.arrivals,
                decided: s.decided,
                shed_queue: s.shed_queue,
                shed_admission: s.shed_admission,
                digest: st.digest,
            })
            .collect();
        let t0 = Instant::now();
        for r in &records {
            self.wal.append(r);
        }
        let wall = t0.elapsed();
        acc.push_per_call("serve.wal.append_us", wall, records.len(), 1e3);
        rec.replayed("replay.serve.wal_append", span, wall);

        // Checkpoint cadence: encode every region, then decode the images.
        if t.is_multiple_of(cfg.checkpoint_every) {
            let t0 = Instant::now();
            let images = serve.snapshot_all();
            let wall = t0.elapsed();
            acc.push_per_call("serve.wal.ckpt_encode_us", wall, images.len(), 1e3);
            rec.replayed("replay.serve.ckpt_encode", span, fanned(wall));
            let t0 = Instant::now();
            for image in &images {
                RegionCheckpoint::from_bytes(image)
                    .map_err(|e| format!("tick {t}: image decode: {e:?}"))?;
            }
            acc.push_per_call("serve.wal.ckpt_decode_us", t0.elapsed(), images.len(), 1e3);
            if let Some(largest) = images.into_iter().max_by_key(Vec::len) {
                if largest.len() > self.largest_image.len() {
                    self.largest_image = largest;
                }
            }
        }
        Ok(())
    }

    /// Once-per-round probes; hands the base scenario back.
    fn finish(self, ctx: &mut Ctx, serve: &SoclServe) -> Scenario {
        let acc = &mut ctx.acc;
        let bytes = self.wal.as_bytes();
        let t0 = Instant::now();
        let (wal, _) = RegionWal::from_bytes(bytes);
        let decoded = wal.records().map_or(0, |r| r.len());
        acc.push_mb_s("serve.wal.scan_mb_s", bytes.len(), t0.elapsed());
        std::hint::black_box(decoded);
        let t0 = Instant::now();
        let map = RegionMap::partition(&self.base.net, serve.config().regions);
        acc.push("serve.region.partition_ms", ms(t0.elapsed()));
        let counts: Vec<usize> = (0..map.regions() as u32).map(|r| map.count(r)).collect();
        let mean = counts.iter().sum::<usize>() as f64 / counts.len().max(1) as f64;
        if mean > 0.0 {
            acc.push(
                "serve.region.skew",
                counts.iter().copied().max().unwrap_or(0) as f64 / mean,
            );
        }
        probes::codec(acc, &self.largest_image);
        probes::net(acc, &self.base.net, self.threads as usize);
        if let Some(sc) = &self.last_epoch {
            probes::virtual_graphs(acc, sc);
        }
        probes::vg_cache_hits(acc, &self.vg);
        ctx.info.insert(
            "placement_fingerprint",
            format!(
                "{:016x}",
                fingerprint(serve.placement().into_iter().flat_map(|p| {
                    p.iter_deployed()
                        .map(|(m, k)| u64::from(m.0) << 32 | u64::from(k.0))
                }))
            ),
        );
        self.base
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tick(
        arrivals: u32,
        decided: u32,
        shed_queue: u32,
        shed_admission: u32,
        queued: usize,
    ) -> TickSummary {
        TickSummary {
            tick: 1,
            arrivals,
            decided,
            shed_queue,
            shed_admission,
            queued,
            digest: 0,
        }
    }

    #[test]
    fn conservation_law_accepts_balanced_and_refuses_broken_sums() {
        // 10 arrive on top of 5 queued: 8 decided, 2 + 1 shed, 4 stay.
        assert!(conserves(&tick(10, 8, 2, 1, 4), 5));
        // One request vanished.
        assert!(!conserves(&tick(10, 8, 2, 1, 3), 5));
        // One request decided twice.
        assert!(!conserves(&tick(10, 9, 2, 1, 4), 5));
    }

    #[test]
    fn a_broken_conservation_sum_fails_the_run() {
        let args = crate::workloads::Args {
            workload: "serve-steady".into(),
            seed: 1,
            seconds: 1.0,
            trace: false,
            trace_out: None,
            smoke: true,
        };
        let mut ctx = Ctx::new(args, crate::env::Conditions::detect(1));
        let mut queued = 5;
        conservation(&mut ctx, &tick(10, 8, 2, 1, 4), &mut queued);
        assert!(ctx.failures.is_empty() && ctx.e2e.failed == 0 && queued == 4);
        conservation(&mut ctx, &tick(10, 8, 2, 1, 9), &mut queued);
        assert_eq!(ctx.e2e.failed, 1);
        assert!(ctx.failures[0].contains("tick 1"));
        assert!(!crate::report::is_correct(&ctx));
    }

    #[test]
    fn epoch_start_follows_the_resolve_cadence() {
        let cfg = config(&STEADY, 1, 1);
        assert_eq!(epoch_start(&cfg, 1), 1);
        assert_eq!(epoch_start(&cfg, 8), 1);
        assert_eq!(epoch_start(&cfg, 9), 9);
        assert_eq!(epoch_start(&cfg, 144), 137);
    }
}
