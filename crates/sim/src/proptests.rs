//! Property tests for the simulator and the testbed emulator.

use crate::faults::{FaultPlan, FaultSchedule};
use crate::policy::Policy;
use crate::testbed::{run_testbed, RetryPolicy, TestbedConfig};
use socl_core::SoclConfig;
use socl_model::{evaluate, Placement, Scenario, ScenarioConfig};
use socl_net::rng::{cases, ChaCha12Rng};

use crate::online::{OnlineConfig, OnlineSimulator};
use crate::recovery::{Checkpoint, SlotMetrics};

fn arb_scenario(rng: &mut ChaCha12Rng) -> Scenario {
    let (nodes, users) = (rng.gen_range(6usize..=12), rng.gen_range(10usize..=40));
    ScenarioConfig::paper(nodes, users).build(rng.next_u64())
}

/// A 5-slot online config exercising failure injection (and optionally
/// the control plane with mid-slot crashes + repair) — small enough for
/// property-test case counts, rich enough to churn every checkpoint field.
fn small_online_cfg(seed: u64, scaled: bool) -> OnlineConfig {
    OnlineConfig {
        slots: 5,
        users: 12,
        nodes: 6,
        fail_prob: 0.3,
        recover_prob: 0.4,
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
            ..AutoscaleConfig::default()
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

/// Crash consistency, part 1: `restore(snapshot(s))` is observationally
/// the identity for arbitrary mid-run states — a simulator frozen after
/// any number of slots, round-tripped through the binary checkpoint
/// format into a *fresh* simulator, continues bit-identically to the
/// uninterrupted run, with and without the control plane.
#[test]
fn snapshot_restore_is_observational_identity() {
    cases(12, |rng| {
        let freeze_at = rng.gen_range(0usize..=5);
        let cfg = small_online_cfg(rng.next_u64(), rng.gen());
        let policy = Policy::Socl(SoclConfig::default());
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
        assert_eq!(&golden[freeze_at..], &suffix[..]);
    });
}

/// Crash consistency, part 2: the full kill-and-recover driver matches
/// the uninterrupted golden run bit for bit — for arbitrary kill-points,
/// checkpoint cadences and torn-tail modes, at any worker-thread count —
/// and the invariant auditor stays clean.
#[test]
fn crash_recovery_replay_matches_golden() {
    use crate::recovery::{run_crash_recovery, RecoveryConfig, TornTail};
    const TORN_TAILS: [TornTail; 3] = [TornTail::Clean, TornTail::Garbage, TornTail::PartialRecord];
    cases(12, |rng| {
        let cfg = small_online_cfg(rng.next_u64(), rng.gen());
        let policy = Policy::Socl(SoclConfig::default());
        let rcfg = RecoveryConfig {
            checkpoint_every: rng.gen_range(1usize..=4),
            kill_at_slot: rng.gen_range(0usize..=5),
            torn_tail: *rng.choose(&TORN_TAILS).unwrap(),
        };
        socl_net::set_threads(rng.gen_range(1usize..=3));
        let out = run_crash_recovery(&cfg, &policy, &rcfg);
        socl_net::set_threads(0);
        let out = out.unwrap_or_else(|e| panic!("recovery failed: {e:?}"));
        let (metrics, log) = (out.metric_mismatches, out.replay_log_mismatches);
        assert_eq!(metrics, 0, "stitched timeline diverged from golden");
        assert_eq!(log, 0, "replay contradicted the durable log");
        assert!(out.audit.is_clean(), "audit: {:?}", out.audit.violations);
        assert_eq!(out.stitched.len(), out.golden.len());
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
