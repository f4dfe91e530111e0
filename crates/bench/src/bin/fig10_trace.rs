//! FIG10 — 4-hour average-delay trace on 16 edge nodes (Figure 10).
//!
//! The paper traces 50 users moving randomly between edge nodes, issuing
//! requests every 5 minutes with stochastic service dependencies, for 4
//! hours (48 slots); each algorithm re-provisions per slot and the per-slot
//! average delay is recorded.
//!
//! Paper shape to reproduce: SoCL lowest average delay with the lowest
//! maximum; RP noisy with spikes; JDR between.
//!
//! ```sh
//! cargo run --release -p socl-bench --bin fig10_trace
//! ```

use socl::prelude::*;
use socl_bench::out;

fn run(policy: &Policy, seed: u64, slots: usize) -> Vec<SlotRecord> {
    let mut sim = OnlineSimulator::new(OnlineConfig {
        slots,
        users: 50,
        nodes: 16,
        seed,
        ..OnlineConfig::default()
    });
    // Measure each slot on the discrete-event testbed emulator (queueing,
    // transfers, cold starts) — the paper's trace records real cluster
    // latency, not the unloaded routing model.
    let tb = TestbedConfig {
        epochs: 1,
        seed,
        ..TestbedConfig::default()
    };
    sim.run_measured(policy, |sc, placement| {
        let res = run_testbed(sc, placement, &tb);
        Some((res.mean, res.max))
    })
}

fn main() {
    let slots = if std::env::var_os("SOCL_FULL").is_some() {
        48
    } else {
        24
    };
    let policies = [
        Policy::Rp { seed: 7 },
        Policy::Jdr,
        Policy::Socl(SoclConfig::default()),
    ];

    out!("# FIG10: per-slot average delay (ms), 16 nodes, 50 mobile users");
    let names: String = policies.iter().map(|p| format!(",{}", p.name())).collect();
    out!("slot,minutes{names}");

    let traces: Vec<Vec<SlotRecord>> = policies.iter().map(|p| run(p, 9, slots)).collect();
    for s in 0..slots {
        let delays: String = (traces.iter())
            .map(|tr| format!(",{:.2}", tr[s].mean_latency * 1e3))
            .collect();
        out!("{s},{}{delays}", s * 5);
    }

    out!("\n# summary");
    out!("algo,avg_delay_ms,max_slot_avg_ms,max_request_ms_proxy,solve_ms_per_slot");
    for (p, tr) in policies.iter().zip(&traces) {
        let avg = tr.iter().map(|r| r.mean_latency).sum::<f64>() / tr.len() as f64;
        let max_avg = tr.iter().map(|r| r.mean_latency).fold(0.0, f64::max);
        let max_req = tr.iter().map(|r| r.max_latency).fold(0.0, f64::max);
        let solve = tr.iter().map(|r| r.solve_time.as_secs_f64()).sum::<f64>() / tr.len() as f64;
        out!(
            "{},{:.2},{:.2},{:.2},{:.2}",
            p.name(),
            avg * 1e3,
            max_avg * 1e3,
            max_req * 1e3,
            solve * 1e3
        );
    }
    out!("# shape check (paper): SoCL has the lowest average delay and the");
    out!("# lowest maximum; RP shows unstable peaks.");
}
