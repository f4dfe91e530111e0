//! FAULT_TOLERANCE — availability and delay under mid-run fault injection.
//!
//! Two sweeps:
//!
//! 1. **Testbed**: RP/JDR/SoCL placements replayed on the discrete-event
//!    emulator under seedable fault schedules of increasing intensity
//!    (node crashes, link degradation, instance cold-kills, request loss),
//!    with the dispatcher's retry/hedging policy off and on. Reported per
//!    cell: availability, completed/degraded/dropped accounting and the
//!    effective mean delay (degraded requests charged the cloud penalty).
//! 2. **Online**: the time-slotted simulator with mid-slot crashes of the
//!    most-loaded node, with failure-triggered repair off and on. Each
//!    slot's delay is measured on the emulator (queueing + cold starts),
//!    charging the cloud penalty for requests the edge could not serve.
//!    Repair re-provisions only the affected services, so its latency and
//!    churn stay small while the cloud-fallback count drops.
//!
//! Expected shape: retries absorb moderate fault rates with zero dropped
//! requests, and SoCL with repair beats RP/JDR on both mean delay and
//! availability — latency-optimized placements also degrade more
//! gracefully, because their replicas sit close to the users they lose.
//!
//! ```sh
//! cargo run --release -p socl-bench --bin fault_tolerance
//! ```

use socl::prelude::*;
use socl_bench::out;

fn policy_placements(sc: &Scenario) -> Vec<(&'static str, Placement)> {
    vec![
        ("RP", random_provisioning(sc, 5).placement),
        ("JDR", jdr(sc).placement),
        ("SoCL", SoclSolver::new().solve(sc).placement),
    ]
}

fn main() {
    let nodes = 10usize;
    let users = 40usize;
    let sc = ScenarioConfig::paper(nodes, users).build(31);
    let epochs = 4usize;
    let horizon = epochs as f64 * 300.0;

    out!("# FAULT_TOLERANCE part 1: emulated testbed, fault intensity x policy x retries");
    out!(
        "intensity,algo,retries,availability,completed,retried,hedged,degraded,dropped,\
         timeouts,mean_ms,effective_mean_ms,mttr_s"
    );

    // Bench verdict accumulators.
    let mut moderate_drops = 0usize;
    let mut socl_at_one: Option<(f64, f64)> = None; // (availability, eff_mean)
    let mut rivals_at_one: Vec<(f64, f64)> = Vec::new();

    for intensity in [0.0f64, 0.5, 1.0, 2.0] {
        for (name, placement) in policy_placements(&sc) {
            let faults = FaultPlan::at_intensity(horizon, intensity)
                .generate(&sc.net, &placement, users, 17);
            for retries in [false, true] {
                let retry = if retries {
                    RetryPolicy::resilient()
                } else {
                    RetryPolicy::default()
                };
                let cfg = TestbedConfig {
                    epochs,
                    faults: faults.clone(),
                    retry,
                    ..TestbedConfig::default()
                };
                let res = run_testbed(&sc, &placement, &cfg);
                let eff = res.effective_mean(sc.cloud_penalty);
                out!(
                    "{intensity},{name},{},{:.4},{},{},{},{},{},{},{:.1},{:.1},{:.1}",
                    if retries { "on" } else { "off" },
                    res.availability,
                    res.completed,
                    res.retried,
                    res.hedged,
                    res.degraded,
                    res.dropped,
                    res.timeouts,
                    res.mean * 1e3,
                    eff * 1e3,
                    res.mttr,
                );
                if retries && intensity <= 1.0 {
                    moderate_drops += res.dropped;
                }
                if retries && intensity == 1.0 {
                    if name == "SoCL" {
                        socl_at_one = Some((res.availability, eff));
                    } else {
                        rivals_at_one.push((res.availability, eff));
                    }
                }
            }
        }
        out!();
    }

    out!("# FAULT_TOLERANCE part 2: online slots with mid-slot crashes, repair off/on");
    out!("algo,repair,fallbacks_total,mean_latency_ms,repair_churn_total,mean_repair_ms,crashed_slots");

    let mut socl_online: Option<(usize, f64)> = None; // (fallbacks, mean latency)
    let mut rival_online: Vec<(usize, f64)> = Vec::new();
    for (name, policy) in [
        ("RP", Policy::Rp { seed: 5 }),
        ("JDR", Policy::Jdr),
        ("SoCL", Policy::Socl(SoclConfig::default())),
    ] {
        for repair in [false, true] {
            // Aggregate three independent crash sequences so the verdict
            // reflects the regime, not one lucky seed.
            let mut records = Vec::new();
            for seed in [1u64, 3, 5] {
                let cfg = OnlineConfig {
                    slots: 12,
                    users,
                    nodes,
                    mid_slot_fail_prob: 0.5,
                    recover_prob: 0.7,
                    repair,
                    seed,
                    ..OnlineConfig::default()
                };
                let run = OnlineSimulator::new(cfg).run_measured(&policy, |sc, placement| {
                    // Queueing-aware delay from the emulator; requests the
                    // edge cannot serve are charged the cloud penalty.
                    let tb = TestbedConfig {
                        epochs: 1,
                        ..TestbedConfig::default()
                    };
                    let res = run_testbed(sc, placement, &tb);
                    let served_sum = res.mean * res.completed as f64;
                    let charged = (res.degraded + res.dropped + res.fallbacks) as f64;
                    let mean = (served_sum + charged * sc.cloud_penalty) / res.issued as f64;
                    Some((mean, res.max))
                });
                records.extend(run);
            }
            let fallbacks: usize = records.iter().map(|r| r.fallbacks).sum();
            let mean_lat =
                records.iter().map(|r| r.mean_latency).sum::<f64>() / records.len() as f64;
            let churn: usize = records.iter().map(|r| r.repair_churn).sum();
            let crashed = records.iter().filter(|r| r.mid_slot_failures > 0).count();
            let repaired: Vec<f64> = records
                .iter()
                .filter(|r| !r.repair_time.is_zero())
                .map(|r| r.repair_time.as_secs_f64() * 1e3)
                .collect();
            let mean_repair = if repaired.is_empty() {
                0.0
            } else {
                repaired.iter().sum::<f64>() / repaired.len() as f64
            };
            out!(
                "{name},{},{fallbacks},{:.1},{churn},{:.2},{crashed}",
                if repair { "on" } else { "off" },
                mean_lat * 1e3,
                mean_repair,
            );
            if repair {
                if name == "SoCL" {
                    socl_online = Some((fallbacks, mean_lat));
                } else {
                    rival_online.push((fallbacks, mean_lat));
                }
            }
        }
    }
    out!();

    // Shape verdicts, computed from the rows above.
    out!(
        "# check 1 (dropped==0 with retries at intensity<=1): {}",
        if moderate_drops == 0 { "PASS" } else { "FAIL" }
    );
    let (s_av, s_eff) = socl_at_one.expect("SoCL row at intensity 1 missing");
    let tb_ok = rivals_at_one
        .iter()
        .all(|&(av, eff)| s_av >= av && s_eff <= eff + 1e-9);
    out!(
        "# check 2 (testbed: SoCL+retries >= rivals on availability, <= on effective delay): {}",
        if tb_ok { "PASS" } else { "FAIL" }
    );
    let (s_fb, s_lat) = socl_online.expect("SoCL online row missing");
    let on_ok = rival_online
        .iter()
        .all(|&(fb, lat)| s_fb <= fb && s_lat <= lat + 1e-9);
    out!(
        "# check 3 (online: SoCL+repair <= rivals on fallbacks and mean delay): {}",
        if on_ok { "PASS" } else { "FAIL" }
    );
}
