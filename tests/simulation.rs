//! Integration tests across the simulator, testbed emulator and policies.

use socl::prelude::*;

#[test]
fn online_socl_beats_rp_on_average_delay() {
    // The Figure 10 claim in miniature: across a mobile-user trace, SoCL's
    // average delay stays below RP's.
    let cfg = OnlineConfig {
        slots: 10,
        users: 40,
        nodes: 12,
        seed: 1,
        ..OnlineConfig::default()
    };
    let avg = |policy: &Policy, cfg: &OnlineConfig| {
        let mut sim = OnlineSimulator::new(cfg.clone());
        let recs = sim.run(policy);
        recs.iter().map(|r| r.mean_latency).sum::<f64>() / recs.len() as f64
    };
    let socl = avg(&Policy::Socl(SoclConfig::default()), &cfg);
    let rp = avg(&Policy::Rp { seed: 2 }, &cfg);
    assert!(
        socl < rp,
        "SoCL mean delay {socl} should beat RP {rp} over the trace"
    );
}

#[test]
fn testbed_ranks_placements_like_the_objective() {
    // A placement that the objective says is much worse (single pile-up
    // node) must also measure worse on the testbed.
    let sc = ScenarioConfig::paper(8, 40).build(3);
    let socl_p = SoclSolver::new().solve(&sc).placement;
    let mut pile = Placement::empty(sc.services(), sc.nodes());
    for m in sc.requested_services() {
        pile.set(m, NodeId(0), true);
    }
    let cfg = TestbedConfig::default();
    let socl_m = run_testbed(&sc, &socl_p, &cfg);
    let pile_m = run_testbed(&sc, &pile, &cfg);
    assert!(
        socl_m.mean < pile_m.mean,
        "testbed: SoCL {} should beat pile-up {}",
        socl_m.mean,
        pile_m.mean
    );
}

#[test]
fn four_hour_trace_shape() {
    // 48 slots of 5 minutes = 4 hours (Figure 10's horizon), 16 nodes,
    // 50 users, trimmed to 16 slots for CI speed but same mechanics.
    let cfg = OnlineConfig {
        slots: 16,
        users: 50,
        nodes: 16,
        seed: 4,
        ..OnlineConfig::default()
    };
    let mut sim = OnlineSimulator::new(cfg);
    let recs = sim.run(&Policy::Socl(SoclConfig::default()));
    assert_eq!(recs.len(), 16);
    // Delays stay bounded and positive; no slot collapses.
    for r in &recs {
        assert!(r.mean_latency > 0.0);
        assert!(r.max_latency < 5.0, "slot {}: runaway delay", r.slot);
        assert_eq!(r.fallbacks, 0);
    }
}

#[test]
fn temporal_workload_drives_scenarios() {
    // Fig. 4 workload → per-interval user counts → scenarios. The pipeline
    // must absorb fluctuating load without failures.
    let workload = TemporalWorkload::generate(&TemporalConfig::default(), 5);
    let counts = workload.as_user_counts(10, 60);
    for (i, &users) in counts.iter().take(6).enumerate() {
        let sc = ScenarioConfig::paper(10, users).build(i as u64);
        let res = SoclSolver::new().solve(&sc);
        assert_eq!(res.evaluation.cloud_fallbacks, 0, "interval {i}");
    }
}

#[test]
fn trace_generator_supports_scenario_style_analysis() {
    // Figures 3a/3b end-to-end: generate traces, compute both similarity
    // matrices, check ranges.
    let g = TraceGenerator::new(6);
    let all = g.sample_all(1);
    let usage_sim = similarity_matrix(&all, |a, b| cosine_similarity(&a.usage, &b.usage));
    for (idx, &v) in usage_sim.iter().enumerate() {
        assert!((0.0..=1.0 + 1e-9).contains(&v), "entry {idx} = {v}");
    }
    let series = g.sample_series(0, 6, 2);
    let edge_sim = similarity_matrix(&series, |a, b| jaccard_similarity(&a.edges, &b.edges));
    for &v in &edge_sim {
        assert!((0.0..=1.0).contains(&v));
    }
}

#[test]
fn cold_starts_decline_when_instances_stay_warm() {
    let sc = ScenarioConfig::paper(8, 40).build(7);
    let placement = SoclSolver::new().solve(&sc).placement;
    let cold_heavy = run_testbed(
        &sc,
        &placement,
        &TestbedConfig {
            epochs: 3,
            keep_warm: 0.0, // everything is always cold
            ..TestbedConfig::default()
        },
    );
    let warm = run_testbed(
        &sc,
        &placement,
        &TestbedConfig {
            epochs: 3,
            keep_warm: 1e9, // nothing ever goes cold after first use
            ..TestbedConfig::default()
        },
    );
    assert!(cold_heavy.cold_starts > warm.cold_starts);
    assert!(cold_heavy.mean > warm.mean);
}
