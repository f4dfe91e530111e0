//! Property tests for the simulator and the testbed emulator.

use crate::faults::{FaultPlan, FaultSchedule};
use crate::policy::Policy;
use crate::testbed::{run_testbed, RetryPolicy, TestbedConfig};
use socl_core::SoclConfig;
use socl_model::{evaluate, Placement, Scenario, ScenarioConfig};
use socl_net::par::lock_recover;
use socl_net::rng::{cases, ChaCha12Rng};
use std::sync::Mutex;

use crate::online::{OnlineConfig, OnlineSimulator};
use crate::recovery::{audit_invariants, Checkpoint, DecisionLog, LogRecord, SlotMetrics};
use socl_model::codec::TornTail;

/// The tests that set the process-wide thread override take turns, so no
/// test resets another's count mid-case.
static THREADS_TURN: Mutex<()> = Mutex::new(());

fn arb_scenario(rng: &mut ChaCha12Rng) -> Scenario {
    let (nodes, users) = (rng.gen_range(6usize..=12), rng.gen_range(10usize..=40));
    ScenarioConfig::paper(nodes, users).build(rng.next_u64())
}

/// A 5-slot online config exercising node and link failure injection (and
/// optionally the control plane with mid-slot crashes + repair) — small
/// enough for property-test case counts, rich enough to churn every
/// checkpoint field. Links recover slowly, so a frozen run often carries a
/// masked link into the restore.
fn small_online_cfg(seed: u64, scaled: bool) -> OnlineConfig {
    OnlineConfig {
        slots: 5,
        users: 12,
        nodes: 6,
        fail_prob: 0.3,
        recover_prob: 0.4,
        link_fail_prob: 0.3,
        link_recover_prob: 0.2,
        autoscale: scaled.then(|| socl_autoscale::AutoscaleConfig {
            min_replicas: 1,
            stable_window: 8.0,
            panic_window: 2.0,
            scale_interval: 1.0,
            down_cooldown: 2.0,
            keep_alive: socl_autoscale::KeepAlivePolicy::Fixed(2.0),
            ..socl_autoscale::AutoscaleConfig::default()
        }),
        mid_slot_fail_prob: if scaled { 0.4 } else { 0.0 },
        repair: scaled,
        seed,
        ..OnlineConfig::default()
    }
}

/// A moderate fault schedule over `cfg`'s horizon, targeted at its
/// topology and `policy`'s slot-0 placement.
fn scheduled_faults(cfg: &OnlineConfig, policy: &Policy) -> FaultSchedule {
    let sim = OnlineSimulator::new(cfg.clone());
    let sc = sim.base();
    let horizon = cfg.slots as f64 * cfg.slot_secs;
    FaultPlan::moderate(horizon).generate(&sc.net, &policy.place(sc, 0), cfg.users, cfg.seed)
}

/// Step `sim` to its horizon, collecting the deterministic metrics.
fn drain_metrics(sim: &mut OnlineSimulator, policy: &Policy) -> Vec<SlotMetrics> {
    let mut out = Vec::new();
    while sim.next_slot() < 5 {
        let r = sim.step(policy, &mut |_, _| None);
        out.push(SlotMetrics::of(&r));
    }
    out
}

/// A fault schedule of arbitrary intensity up to `max_level` against the
/// given scenario/placement pair.
fn arb_faults(
    rng: &mut ChaCha12Rng,
    sc: &Scenario,
    placement: &Placement,
    epochs: usize,
    max_level: f64,
) -> FaultSchedule {
    let horizon = epochs as f64 * TestbedConfig::default().epoch_secs;
    FaultPlan::at_intensity(horizon, rng.gen_range(0.0..=max_level)).generate(
        &sc.net,
        placement,
        sc.users(),
        rng.next_u64(),
    )
}

/// Testbed latencies dominate unloaded DP latencies per request: the
/// emulator adds queueing and cold starts on top of the same routes, so
/// no request can finish faster than its unloaded completion time.
#[test]
fn testbed_dominates_unloaded_latency() {
    cases(12, |rng| {
        let sc = arb_scenario(rng);
        let placement = Policy::Socl(SoclConfig::default()).place(&sc, 0);
        let ev = evaluate(&sc, &placement);
        let cfg = TestbedConfig {
            seed: rng.next_u64(),
            ..TestbedConfig::default()
        };
        let res = run_testbed(&sc, &placement, &cfg);
        assert_eq!(res.fallbacks, ev.cloud_fallbacks);
        for (measured, unloaded) in res.per_request.iter().zip(&ev.per_request) {
            if let Some(m) = measured {
                let bound = unloaded - 1e-9;
                assert!(*m >= bound, "testbed {m} below unloaded bound {unloaded}");
            }
        }
    });
}

/// Longer epochs (lighter load) can only reduce queueing: the mean
/// latency with double the epoch length is no larger.
#[test]
fn lighter_load_reduces_queueing() {
    cases(12, |rng| {
        let sc = arb_scenario(rng);
        let placement = Policy::Jdr.place(&sc, 0);
        let run = |epoch_secs: f64| {
            let cfg = TestbedConfig {
                epoch_secs,
                cold_start: 0.0,
                ..TestbedConfig::default()
            };
            run_testbed(&sc, &placement, &cfg).mean
        };
        let (tight, loose) = (run(10.0), run(1000.0));
        assert!(
            loose <= tight + 1e-9,
            "spreading arrivals raised latency: {loose} vs {tight}"
        );
    });
}

/// Conservation: every issued request ends in exactly one outcome —
/// completed, degraded to the cloud mid-chain, dropped, or a cloud
/// fallback — under any fault schedule, targeting, and retry policy.
#[test]
fn faults_conserve_requests() {
    cases(12, |rng| {
        let sc = arb_scenario(rng);
        let placement = Policy::Jdr.place(&sc, 0);
        let epochs = 2usize;
        let cfg = TestbedConfig {
            epochs,
            seed: rng.next_u64(),
            faults: arb_faults(rng, &sc, &placement, epochs, 2.0),
            retry: if rng.gen() {
                RetryPolicy::resilient()
            } else {
                RetryPolicy::default()
            },
            degrade_to_cloud: rng.gen(),
            ..TestbedConfig::default()
        };
        let res = run_testbed(&sc, &placement, &cfg);
        let outcomes = [res.completed, res.degraded, res.dropped, res.fallbacks];
        let (sum, issued) = (outcomes.iter().sum::<usize>(), res.issued);
        assert_eq!(
            sum, issued,
            "conservation violated: {outcomes:?} vs {issued}"
        );
        assert!(res.availability >= 0.0 && res.availability <= 1.0);
        // Measured latencies are only recorded for requests that ran.
        let measured = res.per_request.iter().filter(|r| r.is_some()).count();
        assert!(measured <= res.issued);
    });
}

/// Determinism: the same scenario, placement, fault schedule, and seed
/// reproduce the identical result, field for field — retries, hedging
/// jitter, and fault timing all draw from the run's seeded RNG.
#[test]
fn faulted_runs_are_deterministic() {
    cases(12, |rng| {
        let sc = arb_scenario(rng);
        let placement = Policy::Socl(SoclConfig::default()).place(&sc, 0);
        let epochs = 2usize;
        let cfg = TestbedConfig {
            epochs,
            seed: rng.next_u64(),
            faults: arb_faults(rng, &sc, &placement, epochs, 1.5),
            retry: RetryPolicy::resilient(),
            ..TestbedConfig::default()
        };
        let a = run_testbed(&sc, &placement, &cfg);
        let b = run_testbed(&sc, &placement, &cfg);
        assert_eq!(a, b);
    });
}

/// The control plane adds no entropy: with autoscaling (and admission)
/// enabled, identical seeds and configs reproduce the identical testbed
/// result — scaling events, shed counts, replica-seconds and per-request
/// latencies — at any worker-thread count.
#[test]
fn scaling_timelines_are_thread_count_invariant() {
    use socl_autoscale::{AdmissionPolicy, AutoscaleConfig, KeepAlivePolicy, ScalingMode};
    let _turn = lock_recover(&THREADS_TURN);
    cases(12, |rng| {
        let sc = arb_scenario(rng);
        let placement = Policy::Socl(SoclConfig::default()).place(&sc, 0);
        let ac = AutoscaleConfig {
            mode: ScalingMode::Reactive,
            target_concurrency: 2.0,
            stable_window: 8.0,
            panic_window: 3.0,
            scale_interval: 1.0,
            down_cooldown: 2.0,
            min_replicas: 1,
            max_replicas_per_node: 4,
            keep_alive: KeepAlivePolicy::Fixed(4.0),
            admission: AdmissionPolicy {
                enabled: rng.gen(),
                queue_limit: 1.0,
                classes: 3,
                strict_overload: 3.0,
            },
        };
        let cfg = TestbedConfig {
            epochs: 3,
            seed: rng.next_u64(),
            autoscale: Some(ac),
            ..TestbedConfig::default()
        };
        let run_at = |threads: usize| {
            socl_net::set_threads(threads);
            let r = run_testbed(&sc, &placement, &cfg);
            socl_net::set_threads(0);
            r
        };
        assert_eq!(run_at(1), run_at(3));
    });
}

/// Crash consistency: `restore(snapshot(s))` is observationally the
/// identity for arbitrary mid-run states. A simulator frozen after any
/// number of slots of node and link churn — with or without the control
/// plane, with or without a scheduled fault storm, at any worker-thread
/// count — and round-tripped through the binary checkpoint format into a
/// *fresh* simulator continues bit-identically to the uninterrupted run,
/// and the stitched timeline passes the invariant auditor (billing,
/// replicas, fault-cursor partition, cache-vs-rebuild).
#[test]
fn snapshot_restore_is_observational_identity() {
    let _turn = lock_recover(&THREADS_TURN);
    cases(12, |rng| {
        let freeze_at = rng.gen_range(0usize..=5);
        let mut cfg = small_online_cfg(rng.next_u64(), rng.gen());
        let policy = Policy::Socl(SoclConfig::default());
        if rng.gen() {
            cfg.faults = scheduled_faults(&cfg, &policy);
        }
        socl_net::set_threads(rng.gen_range(1usize..=3));
        let mut golden_sim = OnlineSimulator::new(cfg.clone());
        let golden = drain_metrics(&mut golden_sim, &policy);
        let mut victim = OnlineSimulator::new(cfg.clone());
        for _ in 0..freeze_at {
            victim.step(&policy, &mut |_, _| None);
        }
        let ck = Checkpoint::from_bytes(&victim.snapshot().to_bytes())
            .unwrap_or_else(|e| panic!("checkpoint failed to decode: {e:?}"));
        drop(victim);
        let mut thawed = OnlineSimulator::new(cfg);
        assert!(thawed.restore(&ck).is_ok());
        let suffix = drain_metrics(&mut thawed, &policy);
        socl_net::set_threads(0);
        assert_eq!(&golden[freeze_at..], &suffix[..]);
        let stitched = [&golden[..freeze_at], &suffix[..]].concat();
        let audit = audit_invariants(&thawed, &stitched);
        assert!(audit.is_clean(), "audit: {:?}", audit.violations);
    });
}

/// Crash consistency through the durable bytes: a victim logs every
/// slot's `SlotEnd` into a [`DecisionLog`] and checkpoints on a drawn
/// cadence, dies at an arbitrary slot boundary with a torn log tail, and
/// recovers from its last checkpoint image. The clean log prefix supplies
/// the slots before the restore point, every replayed slot the log still
/// holds reproduces its record, the stitched timeline equals the
/// uninterrupted run at any worker-thread count, and the invariant auditor
/// stays clean.
#[test]
fn crash_recovery_replay_matches_golden() {
    const TORN_TAILS: [TornTail; 3] = [TornTail::Clean, TornTail::Garbage, TornTail::PartialRecord];
    let _turn = lock_recover(&THREADS_TURN);
    cases(12, |rng| {
        let cfg = small_online_cfg(rng.next_u64(), rng.gen());
        let policy = Policy::Socl(SoclConfig::default());
        let (every, kill) = (rng.gen_range(1usize..=4), rng.gen_range(0usize..=5));
        let torn = *rng.choose(&TORN_TAILS).unwrap();
        socl_net::set_threads(rng.gen_range(1usize..=3));
        let golden = drain_metrics(&mut OnlineSimulator::new(cfg.clone()), &policy);

        let mut victim = OnlineSimulator::new(cfg.clone());
        let (mut log, mut image) = (DecisionLog::new(), victim.snapshot().to_bytes());
        while victim.next_slot() < kill {
            let slot = victim.next_slot();
            if slot % every == 0 {
                image = victim.snapshot().to_bytes();
            }
            let metrics = SlotMetrics::of(&victim.step(&policy, &mut |_, _| None));
            let slot = slot as u64;
            log.append(&LogRecord::SlotEnd { slot, metrics });
        }
        drop(victim);
        let mut wire = log.into_bytes();
        torn.mangle(&mut wire, rng.next_u64());

        let (clean, tail) = DecisionLog::from_bytes(&wire);
        let logged: Vec<SlotMetrics> = clean
            .records()
            .unwrap_or_else(|e| panic!("clean log prefix failed to decode: {e:?}"))
            .into_iter()
            .filter_map(|r| match r {
                LogRecord::SlotEnd { metrics, .. } => Some(metrics),
                _ => None,
            })
            .collect();
        let ck = Checkpoint::from_bytes(&image)
            .unwrap_or_else(|e| panic!("checkpoint failed to decode: {e:?}"));
        let mut thawed = OnlineSimulator::new(cfg);
        assert!(thawed.restore(&ck).is_ok());
        let from = thawed.next_slot();
        let replayed = drain_metrics(&mut thawed, &policy);
        socl_net::set_threads(0);

        let torn_away = torn != TornTail::Clean && !wire.is_empty();
        assert_eq!(tail.truncated_bytes > 0, torn_away);
        assert!(
            logged.len() >= from,
            "a slot before the checkpoint was lost"
        );
        let relogged = &replayed[..logged.len() - from];
        assert_eq!(&logged[from..], relogged, "replay contradicted the log");
        let stitched = [&logged[..from], &replayed[..]].concat();
        assert_eq!(golden, stitched, "stitched timeline diverged from golden");
        let audit = audit_invariants(&thawed, &stitched);
        assert!(audit.is_clean(), "audit: {:?}", audit.violations);
    });
}

/// Cold starts only ever add latency.
#[test]
fn cold_starts_only_add() {
    cases(12, |rng| {
        let sc = arb_scenario(rng);
        let placement = Policy::Socl(SoclConfig::default()).place(&sc, 0);
        let with = TestbedConfig {
            cold_start: 1.0,
            keep_warm: 0.0,
            ..TestbedConfig::default()
        };
        let without = TestbedConfig {
            cold_start: 0.0,
            ..TestbedConfig::default()
        };
        let with = run_testbed(&sc, &placement, &with);
        let without = run_testbed(&sc, &placement, &without);
        assert!(with.mean >= without.mean - 1e-9);
        assert!(with.cold_starts > 0);
    });
}
