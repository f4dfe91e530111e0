//! `online-churn`: `OnlineSimulator::step` under mobility, chain churn,
//! node and link faults, mid-slot crashes with repair, the reactive
//! autoscaler and admission.

use crate::metrics::Acc;
use crate::trace::{Recorder, SpanId};
use crate::workloads::probes::{self, Attach};
use crate::workloads::{fingerprint, ms, Ctx};
use socl::autoscale::{AdmissionPolicy, AutoscaleConfig, Autoscaler, KeepAlivePolicy};
use socl::core::{SoclConfig, WarmStartSolver};
use socl::model::{Placement, Scenario};
use socl::net::{ApspCache, CacheStats, NodeId, VgCache};
use socl::sim::{
    audit_invariants, Checkpoint, DecisionLog, FaultPlan, LogRecord, OnlineConfig, OnlineSimulator,
    Policy, SlotMetrics, SlotRecord,
};
use std::time::{Duration, Instant};

/// Frozen workload constants; see CALIBRATION.md for how they were chosen.
pub const NODES: usize = 24;
pub const USERS: usize = 40;
/// Untimed slots a round starts with (part of set-up), then timed slots.
pub const WARMUP: u32 = 8;
pub const TIMED: u32 = 72;
/// The harness checkpoints every this many slots (traced run).
pub const CHECKPOINT_EVERY: usize = 8;
/// Slots the restored simulator must continue bit-identically for.
pub const CONTINUITY_SLOTS: usize = 8;

/// Seed of the fixture — topology, catalog, user base, and the
/// simulator's own mobility / churn / fault dice (`OnlineConfig` has one
/// seed for all of them). `--seed` drives the scheduled-fault input.
pub const FIXTURE_SEED: u64 = 17;

/// The simulator on the fixture, under the fault schedule `fault_seed`
/// draws: a `FaultPlan::moderate` of node outages and link flaps over the
/// round, on top of the probabilistic injection.
fn config(fault_seed: u64, slots: u32) -> OnlineConfig {
    let reactive = AutoscaleConfig {
        min_replicas: 1,
        stable_window: 8.0,
        panic_window: 2.0,
        scale_interval: 1.0,
        down_cooldown: 2.0,
        keep_alive: KeepAlivePolicy::Fixed(2.0),
        admission: AdmissionPolicy {
            enabled: true,
            ..AutoscaleConfig::default().admission
        },
        ..AutoscaleConfig::default()
    };
    let quiet = OnlineConfig {
        slots: usize::MAX,
        users: USERS,
        nodes: NODES,
        move_prob: 0.4,
        rechain_prob: 0.3,
        fail_prob: 0.05,
        link_fail_prob: 0.2,
        mid_slot_fail_prob: 0.1,
        repair: true,
        autoscale: Some(reactive),
        seed: FIXTURE_SEED,
        ..OnlineConfig::default()
    };
    let base = OnlineSimulator::new(quiet.clone());
    let net = &base.base().net;
    let horizon = f64::from(slots) * quiet.slot_secs;
    let nobody = Placement::empty(base.base().catalog.len(), NODES);
    OnlineConfig {
        faults: FaultPlan::moderate(horizon).generate(net, &nobody, USERS, fault_seed),
        ..quiet
    }
}

fn no_measure(_: &Scenario, _: &Placement) -> Option<(f64, f64)> {
    None
}

fn metrics_words(m: &SlotMetrics) -> [u64; 6] {
    [
        m.slot,
        m.objective_bits,
        m.cost_bits,
        m.fallbacks,
        m.shed_requests,
        u64::from(m.replicas),
    ]
}

pub fn run(ctx: &mut Ctx) {
    let policy = Policy::Socl(SoclConfig::default());
    let warmup = ctx.scaled(WARMUP, 2);
    let timed = ctx.scaled(TIMED, 10);
    let mut digest = 0u64;
    while ctx.more_rounds() {
        let began = Instant::now();
        let traced = ctx.begin_round();
        // Set-up: the fault schedule, construction, the warm-up slots.
        let t_setup = Instant::now();
        let cfg = config(ctx.round_seed(), warmup + timed + CONTINUITY_SLOTS as u32);
        let mut sim = OnlineSimulator::new(cfg.clone());
        let mut timeline: Vec<SlotMetrics> = Vec::new();
        for _ in 0..warmup {
            timeline.push(SlotMetrics::of(&sim.step(&policy, &mut no_measure)));
        }
        ctx.e2e.setup_s.push(t_setup.elapsed().as_secs_f64());

        let mut replay = traced.then(|| Replay::new(&sim, &cfg, ctx.cond.threads));
        let mut wall_sum = 0.0;
        for _ in 0..timed {
            let slot = sim.next_slot() as u64;
            if let Some(r) = replay.as_mut() {
                r.before_slot(&mut ctx.acc, &sim);
            }
            let span = replay
                .as_ref()
                .and(ctx.rec.as_mut())
                .map(|rec| rec.begin("sim.slot", None, slot));
            let mut captured: Option<(Scenario, Placement)> = None;
            let t0 = Instant::now();
            let record = if traced {
                sim.step(&policy, &mut |sc: &Scenario, p: &Placement| {
                    captured = Some((sc.clone(), p.clone()));
                    None
                })
            } else {
                sim.step(&policy, &mut no_measure)
            };
            let wall = t0.elapsed();
            if let (Some(span), Some(rec)) = (span, ctx.rec.as_mut()) {
                rec.end(span);
            }
            wall_sum += ms(wall);
            ctx.e2e.step_ms.push(ms(wall));
            ctx.e2e.attempted += 1;
            let offered = cfg.users as u64;
            let lost = (record.shed_requests + record.fallbacks) as u64;
            ctx.e2e.offered += offered;
            ctx.e2e.served += offered - lost.min(offered);
            ctx.e2e.decided += offered - (record.shed_requests as u64).min(offered);
            ctx.e2e.objective.push(record.objective);
            let m = SlotMetrics::of(&record);
            if ctx.rounds == 0 {
                digest = fingerprint([digest].into_iter().chain(metrics_words(&m)));
            }
            timeline.push(m);
            slot_breakdown(&mut ctx.acc, &record, wall);
            if let (Some(r), Some(span), Some(rec), Some((sc, placement))) =
                (replay.as_mut(), span, ctx.rec.as_mut(), captured)
            {
                r.after_slot(rec, &mut ctx.acc, span, &record, &sc, &placement);
            }
        }

        let audit = audit_invariants(&sim, &timeline);
        ctx.check(audit.is_clean(), || {
            format!("audit_invariants: {}", audit.violations.join("; "))
        });
        if let Some(r) = replay.take() {
            r.finish(ctx, &sim);
        }
        if ctx.rounds == 0 {
            continuity(ctx, &cfg, &policy, &mut sim);
        }
        ctx.end_round(began, wall_sum);
    }
    ctx.info.insert("decision_digest", format!("{digest:016x}"));
}

/// Split a slot's wall by the program's own solve / repair stopwatches.
fn slot_breakdown(acc: &mut Acc, record: &SlotRecord, wall: Duration) {
    let solve = record.solve_time;
    acc.push("sim.online.solve_ms_p50", ms(solve));
    if wall > Duration::ZERO {
        acc.push(
            "sim.online.solve_share",
            solve.as_secs_f64() / wall.as_secs_f64(),
        );
    }
    acc.push(
        "sim.online.other_ms_p50",
        ms(wall.saturating_sub(solve + record.repair_time)),
    );
    acc.push("sim.online.failed_nodes_mean", record.failed_nodes as f64);
    acc.push(
        "sim.online.mid_slot_failures",
        record.mid_slot_failures as f64,
    );
    if record.mid_slot_failures > 0 {
        acc.push("core.online.repair_ms_p50", ms(record.repair_time));
        acc.push("core.online.repair_churn_mean", record.repair_churn as f64);
    }
    acc.push("autoscale.scaler.scale_ups", record.scale_ups as f64);
    acc.push("autoscale.scaler.scale_downs", record.scale_downs as f64);
    acc.push("autoscale.admission.shed", record.shed_requests as f64);
}

/// One checkpoint -> bytes -> `from_bytes` -> `restore` into a fresh
/// simulator must continue bit-identically with the original.
fn continuity(ctx: &mut Ctx, cfg: &OnlineConfig, policy: &Policy, sim: &mut OnlineSimulator) {
    let image = sim.snapshot().to_bytes();
    let mut fresh = OnlineSimulator::new(cfg.clone());
    let restored = Checkpoint::from_bytes(&image)
        .map_err(|e| format!("{e:?}"))
        .and_then(|ck| fresh.restore(&ck).map_err(|e| e.to_string()));
    if let Err(e) = &restored {
        ctx.check(false, || format!("checkpoint round-trip failed: {e}"));
        return;
    }
    for i in 0..CONTINUITY_SLOTS {
        let a = SlotMetrics::of(&sim.step(policy, &mut no_measure));
        let b = SlotMetrics::of(&fresh.step(policy, &mut no_measure));
        if !ctx.check(a == b, || {
            format!("restored simulator diverges {i} slots after the checkpoint")
        }) {
            break;
        }
    }
}

/// Per-round state of the traced run.
struct Replay {
    threads: usize,
    /// Incremental APSP mirror, fed the link rates of successive slots.
    apsp: ApspCache,
    apsp_before: CacheStats,
    scaler: Autoscaler,
    seeded: bool,
    warm: WarmStartSolver,
    vg: VgCache,
    log: DecisionLog,
    spare: OnlineSimulator,
    previous_locations: Option<Vec<NodeId>>,
    last: Option<Scenario>,
    image: Vec<u8>,
    /// Slots replayed so far this round.
    slots: usize,
}

impl Replay {
    fn new(sim: &OnlineSimulator, cfg: &OnlineConfig, threads: usize) -> Self {
        let base = sim.base();
        let apsp = ApspCache::new(&base.net);
        let autoscale = cfg.autoscale.clone().unwrap_or_default();
        Self {
            threads,
            apsp_before: apsp.stats(),
            apsp,
            scaler: Autoscaler::new(autoscale, 0.5, base.catalog.len(), cfg.nodes),
            seeded: false,
            warm: WarmStartSolver::new(SoclConfig::default()),
            vg: VgCache::new(),
            log: DecisionLog::new(),
            spare: OnlineSimulator::new(cfg.clone()),
            previous_locations: None,
            last: None,
            image: Vec::new(),
            slots: 0,
        }
    }

    /// Checkpoint cadence, the way `run_crash_recovery` journals a run:
    /// image every [`CHECKPOINT_EVERY`] slots, `SlotBegin` every slot.
    fn before_slot(&mut self, acc: &mut Acc, sim: &OnlineSimulator) {
        let slot = sim.next_slot();
        if slot.is_multiple_of(CHECKPOINT_EVERY) {
            let t0 = Instant::now();
            let image = sim.snapshot().to_bytes();
            acc.push(
                "sim.recovery.ckpt_encode_us",
                t0.elapsed().as_secs_f64() * 1e6,
            );
            acc.push("sim.recovery.ckpt_bytes", image.len() as f64);
            let t0 = Instant::now();
            let decoded = Checkpoint::from_bytes(&image);
            acc.push(
                "sim.recovery.ckpt_decode_us",
                t0.elapsed().as_secs_f64() * 1e6,
            );
            if let Ok(ck) = decoded {
                let t0 = Instant::now();
                let restored = self.spare.restore(&ck).is_ok();
                acc.push("sim.recovery.restore_us", t0.elapsed().as_secs_f64() * 1e6);
                std::hint::black_box(restored);
            }
            self.log.append(&LogRecord::CheckpointTaken {
                slot: slot as u64,
                bytes: image.len() as u64,
            });
            self.image = image;
        }
        self.log.append(&LogRecord::SlotBegin { slot: slot as u64 });
    }

    /// Replay the slot's layer calls on the inputs `step` handed to its
    /// `measure` callback, each as a child of the slot's span.
    fn after_slot(
        &mut self,
        rec: &mut Recorder,
        acc: &mut Acc,
        span: SpanId,
        record: &SlotRecord,
        sc: &Scenario,
        placement: &Placement,
    ) {
        let slot = record.slot as u64;
        self.slots += 1;
        // The program timed these two itself, inside the slot.
        rec.replayed("sim.slot.solve", span, record.solve_time);
        if record.mid_slot_failures > 0 {
            rec.replayed("sim.slot.repair", span, record.repair_time);
        }

        // Journal: the records `run_crash_recovery` writes per slot.
        let m = SlotMetrics::of(record);
        let mut entries = vec![LogRecord::FaultCursor { slot, cursor: 0 }];
        if m.scale_ups + m.scale_downs > 0 {
            entries.push(LogRecord::ScalerTick {
                slot,
                ups: m.scale_ups,
                downs: m.scale_downs,
            });
        }
        if m.shed_requests > 0 {
            entries.push(LogRecord::Shed {
                slot,
                count: m.shed_requests,
            });
        }
        if m.mid_slot_failures > 0 {
            entries.push(LogRecord::Repair {
                slot,
                churn: m.repair_churn,
            });
        }
        entries.push(LogRecord::SlotEnd { slot, metrics: m });
        let t0 = Instant::now();
        for e in &entries {
            self.log.append(e);
        }
        acc.push_per_call(
            "sim.recovery.log_append_us",
            t0.elapsed(),
            entries.len(),
            1e3,
        );

        // Mobility: users whose station changed since the previous slot
        // (shed requests are missing from `sc`, so compare by user id).
        let mut locations = self.previous_locations.take().unwrap_or_default();
        locations.resize(USERS.max(locations.len()), NodeId(u32::MAX));
        let mut moves = 0usize;
        for r in &sc.requests {
            if let Some(loc) = locations.get_mut(r.id.idx()) {
                moves += usize::from(loc.0 != u32::MAX && *loc != r.location);
                *loc = r.location;
            }
        }
        acc.push("sim.mobility.moves_per_slot", moves as f64);
        self.previous_locations = Some(locations);

        // Incremental APSP: reconcile the mirror with this slot's links.
        let desired: Vec<f64> = self
            .apsp
            .network()
            .links()
            .iter()
            .enumerate()
            .map(|(idx, l)| {
                if sc.net.direct_rate(l.a, l.b).is_some() {
                    self.apsp.base_rate(idx)
                } else {
                    0.0
                }
            })
            .collect();
        let t0 = Instant::now();
        self.apsp.sync_rates(&desired);
        let wall = t0.elapsed();
        rec.replayed("replay.net.apsp_apply", span, wall);
        let us = wall.as_secs_f64() * 1e6;
        acc.push("net.incremental.apply_us_p50", us);
        acc.push("net.incremental.apply_us_p90", us);

        // Scaler: a mirror fed the slot's per-service demand.
        let mut demand = vec![0.0f64; sc.catalog.len()];
        for r in &sc.requests {
            for &m in &r.chain {
                demand[m.idx()] += 1.0;
            }
        }
        if !self.seeded {
            self.scaler
                .seed_from_placement(placement, &sc.catalog, &sc.net);
            self.seeded = true;
        }
        let t0 = Instant::now();
        let mut admits = 0usize;
        for r in &sc.requests {
            for &m in &r.chain {
                std::hint::black_box(self.scaler.admit(m, r.chain.len(), demand[m.idx()]));
                admits += 1;
            }
        }
        let wall = t0.elapsed();
        acc.push_per_call("autoscale.admission.admit_ns", wall, admits, 1.0);
        rec.replayed("replay.autoscale.admit", span, wall);
        let t0 = Instant::now();
        std::hint::black_box(
            self.scaler
                .tick(slot as f64, &demand, placement, &sc.catalog, &sc.net)
                .len(),
        );
        let wall = t0.elapsed();
        acc.push("autoscale.scaler.tick_us_p50", wall.as_secs_f64() * 1e6);
        rec.replayed("replay.autoscale.tick", span, wall);

        // The SoCL stages on the slot's scenario, then what a warm start
        // would cost on the same input (unused by the simulator today).
        probes::pipeline(rec, acc, Attach::Replay { parent: span }, sc, &mut self.vg);
        let t0 = Instant::now();
        let warm = self.warm.solve_slot(sc);
        acc.push("core.online.warm_solve_ms_p50", ms(t0.elapsed()));
        acc.push("core.online.warm_churn_mean", warm.churn as f64);
        if record.slot.is_multiple_of(CHECKPOINT_EVERY) {
            probes::model(acc, sc, placement, 8);
        }
        self.last = Some(sc.clone());
    }

    /// Once-per-round probes.
    fn finish(self, ctx: &mut Ctx, sim: &OnlineSimulator) {
        let acc = &mut ctx.acc;
        let bytes = self.log.as_bytes();
        let t0 = Instant::now();
        let (log, _) = DecisionLog::from_bytes(bytes);
        let decoded = log.records().map_or(0, |r| r.len());
        acc.push_mb_s("sim.recovery.log_scan_mb_s", bytes.len(), t0.elapsed());
        std::hint::black_box(decoded);
        let (now, before) = (self.apsp.stats(), self.apsp_before);
        let recomputed = now.rows_recomputed - before.rows_recomputed;
        let reused = now.rows_reused - before.rows_reused;
        if recomputed + reused > 0 {
            acc.push(
                "net.incremental.rows_recomputed_frac",
                recomputed as f64 / (recomputed + reused) as f64,
            );
        }
        let slots = self.slots.max(1) as f64;
        acc.push(
            "net.incremental.full_rebuilds",
            (now.full_rebuilds - before.full_rebuilds) as f64 / slots,
        );
        acc.push(
            "net.incremental.halves_repaired",
            (now.halves_repaired - before.halves_repaired) as f64 / slots,
        );
        acc.push(
            "net.incremental.halves_recomputed",
            (now.halves_recomputed - before.halves_recomputed) as f64 / slots,
        );
        probes::codec(acc, &self.image);
        probes::net(acc, &sim.base().net, self.threads);
        if let Some(sc) = &self.last {
            probes::virtual_graphs(acc, sc);
        }
        probes::vg_cache_hits(acc, &self.vg);
        let program = sim.apsp_stats();
        ctx.info.insert(
            "apsp_cache",
            format!(
                "program: {} rows recomputed, {} reused, {} full rebuilds",
                program.rows_recomputed, program.rows_reused, program.full_rebuilds
            ),
        );
    }
}
