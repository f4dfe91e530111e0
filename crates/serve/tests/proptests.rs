//! Property tests for the sharded service:
//!
//! * **Partition equivalence** — with no resource limit binding (generous
//!   queues and drain budget, admission disabled), the per-user routing
//!   decisions of an N-region, M-shard run are identical to the unsharded
//!   single-world run, for chains confined within one region and for
//!   chains spanning regions alike. Regions group work; they must never
//!   change it.
//! * **Shard-count invariance** — with every limit binding (tiny queues,
//!   admission on), the full digest timeline and final serialized state
//!   are identical for any shard count: shards are execution workers, not
//!   semantics.
//! * **Backpressure conservation** — under queue-full bursts no request
//!   is silently dropped: every arrival is decided, shed with an explicit
//!   outcome, or still queued, and the invariant auditor stays clean.
//! * **Kill soak** — shards killed at random tick boundaries with random
//!   torn WAL tails, over random shard, region, checkpoint and epoch
//!   cadences, always restore to the uninterrupted run's state and end
//!   bit-identical to it. The soak asserts it still reaches a fixed set
//!   of recovery behaviours, so a generator that stops reaching one fails.
//!
//! Each property lives in a plain function; the seeded case loops explore
//! the parameter space and the fixed-seed pins below run the same code.

use socl_autoscale::AdmissionPolicy;
use socl_model::codec::TornTail;
use socl_net::rng::{cases, ChaCha12Rng};
use socl_serve::{audit_serve, DecisionEvent, FeedConfig, ServeConfig, SoclServe};
use socl_trace::TemporalConfig;
use std::collections::BTreeSet;

/// A configuration where no queue, budget, or admission limit can bind:
/// decisions depend only on the feed and the placement, which are both
/// independent of the partition.
fn unconstrained(seed: u64, users: usize, regions: usize, shards: usize) -> ServeConfig {
    let mut cfg = ServeConfig::small(seed);
    cfg.nodes = 12;
    cfg.regions = regions;
    cfg.shards = shards;
    cfg.queue_cap_per_station = 10_000;
    cfg.drain_per_station = 10_000;
    cfg.autoscale.admission = AdmissionPolicy {
        enabled: false,
        ..cfg.autoscale.admission
    };
    cfg.feed = FeedConfig {
        users,
        arrivals_per_tick: 40.0,
        seed: seed ^ 0xFEED,
        ..FeedConfig::default()
    };
    cfg
}

/// A configuration where every limit binds: tiny queues, tiny drain
/// budget, admission on, heavy arrivals.
fn constrained(seed: u64, shards: usize, queue_cap: usize, drain: usize, rate: f64) -> ServeConfig {
    let mut cfg = ServeConfig::small(seed);
    cfg.shards = shards;
    cfg.queue_cap_per_station = queue_cap;
    cfg.drain_per_station = drain;
    cfg.feed = FeedConfig {
        users: 700,
        arrivals_per_tick: rate,
        seed: seed ^ 0xFEED,
        ..FeedConfig::default()
    };
    cfg
}

/// Run `ticks` with capture on and return the decisions sorted by
/// `(tick, user)` — the partition-independent canonical order.
fn captured_decisions(mut serve: SoclServe, ticks: u32) -> Vec<DecisionEvent> {
    serve.enable_capture();
    serve.run(ticks);
    let mut events = serve.take_captured();
    events.sort_by_key(|e| (e.tick, e.user));
    events
}

/// Count `(confined, spanning)` multi-stage routes against the partition
/// of `reference`.
fn classify_routes(events: &[DecisionEvent], reference: &SoclServe) -> (usize, usize) {
    let map = reference.region_map();
    let mut confined = 0usize;
    let mut spanning = 0usize;
    for e in events {
        let Some(&first) = e.route.first() else {
            continue;
        };
        if e.route.len() < 2 {
            continue;
        }
        let r0 = map.region_of(first);
        if e.route.iter().all(|&h| map.region_of(h) == r0) {
            confined += 1;
        } else {
            spanning += 1;
        }
    }
    (confined, spanning)
}

/// Partition equivalence: identical per-user decisions for the 1-region
/// single world and the `regions`-region, `shards`-shard service.
/// Returns `(confined, spanning)` route counts for coverage assertions.
fn check_partition_equivalence(seed: u64, regions: usize, shards: usize) -> (usize, usize) {
    let ticks = 5;
    let users = 800;
    let single = captured_decisions(SoclServe::new(unconstrained(seed, users, 1, 1)), ticks);
    let reference = SoclServe::new(unconstrained(seed, users, regions, shards));
    let sharded = captured_decisions(
        SoclServe::new(unconstrained(seed, users, regions, shards)),
        ticks,
    );
    assert!(!single.is_empty(), "no decisions to compare (seed {seed})");
    assert_eq!(
        single, sharded,
        "decisions diverged: seed {seed}, {regions} regions, {shards} shards"
    );
    let (confined, spanning) = classify_routes(&sharded, &reference);
    assert!(
        confined + spanning > 0,
        "no multi-stage routes among {} decisions (seed {seed})",
        sharded.len()
    );
    (confined, spanning)
}

/// Shard-count invariance under binding limits: digest timeline and
/// final serialized state identical for 1 and `shards` shards.
fn check_shard_invariance(seed: u64, shards: usize) {
    let mut one = SoclServe::new(constrained(seed, 1, 3, 2, 120.0));
    let mut many = SoclServe::new(constrained(seed, shards, 3, 2, 120.0));
    one.run(6);
    many.run(6);
    assert_eq!(
        one.digest_timeline(),
        many.digest_timeline(),
        "digest timelines diverged: seed {seed}, {shards} shards"
    );
    assert_eq!(
        one.snapshot_all(),
        many.snapshot_all(),
        "final state diverged: seed {seed}, {shards} shards"
    );
}

/// Backpressure conservation: every arrival decided, explicitly shed, or
/// still queued; invariant audit clean.
fn check_backpressure_conservation(
    seed: u64,
    queue_cap: usize,
    drain: usize,
    rate: f64,
    ticks: u32,
) {
    let mut serve = SoclServe::new(constrained(seed, 4, queue_cap, drain, rate));
    serve.run(ticks);
    let t = serve.totals();
    assert!(t.arrivals > 0, "burst produced no arrivals (seed {seed})");
    assert_eq!(
        t.arrivals,
        t.decided + t.shed_queue + t.shed_admission + t.queued,
        "conservation violated: arrivals {} decided {} shed_queue {} shed_admission {} \
         queued {} (seed {seed})",
        t.arrivals,
        t.decided,
        t.shed_queue,
        t.shed_admission,
        t.queued
    );
    let violations = audit_serve(&serve);
    assert!(violations.is_empty(), "violations: {violations:?}");
}

/// The recovery behaviours the kill soak must reach across its cases.
const SOAK_FEATURES: [&str; 9] = [
    // The torn-tail scan discarded bytes.
    "torn-bytes",
    // Nothing to replay: the restore point is the kill tick.
    "replay-empty",
    // Restored from the tick-0 image (replaying the scaler seeding).
    "from-tick-0",
    // Killed on a checkpoint tick.
    "kill-on-checkpoint",
    // Two different shards killed at one boundary.
    "multi-shard",
    // A shard killed again before any tick ran since its restore.
    "kill-after-restore",
    // The replayed window crossed a placement epoch.
    "replay-crosses-epoch",
    // The replayed window had queue-full sheds in a killed region.
    "queue-shed-replayed",
    // The replayed window had admission sheds in a killed region.
    "admission-shed-replayed",
];

/// A kill-soak configuration: `ServeConfig::small` with drawn shard and
/// region counts and checkpoint and epoch cadences; half the draws are a
/// flash crowd into tiny queues and drain budgets, so both shed paths fire.
fn soak_cfg(rng: &mut ChaCha12Rng) -> ServeConfig {
    let mut cfg = ServeConfig::small(rng.gen_range(0u64..500));
    cfg.shards = rng.gen_range(1usize..=4);
    cfg.regions = rng.gen_range(2usize..=5);
    cfg.checkpoint_every = rng.gen_range(1u32..=5);
    cfg.resolve_every = rng.gen_range(2u32..=8);
    cfg.feed = FeedConfig {
        users: 1500,
        arrivals_per_tick: 50.0,
        seed: cfg.seed ^ 0xFEED,
        ..FeedConfig::default()
    };
    if rng.gen() {
        cfg.feed.shape = TemporalConfig::flash_crowd();
        cfg.feed.arrivals_per_tick = 150.0;
        cfg.queue_cap_per_station = rng.gen_range(1usize..=3);
        cfg.drain_per_station = rng.gen_range(1usize..=2);
    }
    cfg
}

/// Lifetime `(queue, admission)` sheds per region.
fn region_sheds(serve: &SoclServe) -> Vec<(u64, u64)> {
    serve
        .regions()
        .iter()
        .map(|st| (st.shed_queue, st.shed_admission))
        .collect()
}

/// Kill soak: run `cfg` for `ticks` ticks, killing shards at random tick
/// boundaries with random torn tails — sometimes two shards at one
/// boundary, sometimes the shard just restored again. Every restore must
/// agree with the WAL oracle, reproduce the uninterrupted run's state and
/// digests at that boundary, and audit clean; the run ends bit-identical
/// to the uninterrupted one. Returns the features reached and the kills,
/// or the restore error.
fn check_kill_soak(
    cfg: &ServeConfig,
    ticks: u32,
    rng: &mut ChaCha12Rng,
) -> Result<(BTreeSet<&'static str>, usize), String> {
    const TORN_TAILS: [TornTail; 3] = [TornTail::Clean, TornTail::Garbage, TornTail::PartialRecord];
    let mut golden = SoclServe::new(cfg.clone());
    let mut states = vec![golden.snapshot_all()];
    let mut sheds = vec![region_sheds(&golden)];
    for _ in 0..ticks {
        golden.step();
        states.push(golden.snapshot_all());
        sheds.push(region_sheds(&golden));
    }
    let shards = cfg.shards.clamp(1, golden.regions().len());
    let epoch = |t: u32| (t - 1) / cfg.resolve_every;
    let mut features = BTreeSet::new();
    let mut kills = 0;
    let mut victim = SoclServe::new(cfg.clone());
    for t in 1..=ticks {
        victim.step();
        if rng.gen::<f64>() >= 0.5 {
            continue;
        }
        let first = rng.gen_range(0..shards);
        let mut plan = vec![first];
        if shards > 1 && rng.gen::<f64>() < 0.3 {
            plan.push((first + rng.gen_range(1..shards)) % shards);
            features.insert("multi-shard");
        }
        if rng.gen::<f64>() < 0.2 {
            plan.push(first);
            features.insert("kill-after-restore");
        }
        for shard in plan {
            let torn = TORN_TAILS[rng.gen_range(0..TORN_TAILS.len())];
            let row = format!(
                "seed {}, kill shard {shard} after tick {t}, {torn:?}",
                cfg.seed
            );
            let report = victim
                .kill_and_restore(shard, torn)
                .map_err(|e| format!("{row}: {e}"))?;
            kills += 1;
            assert_eq!(report.oracle_mismatches, 0, "{row}");
            assert_eq!(victim.snapshot_all(), states[t as usize], "{row}");
            for (got, full) in victim
                .digest_timeline()
                .iter()
                .zip(golden.digest_timeline())
            {
                assert_eq!(got[..], full[..t as usize], "{row}");
            }
            let violations = audit_serve(&victim);
            assert!(violations.is_empty(), "{row}: {violations:?}");

            let c0 = report.checkpoint_tick;
            let (mut queue_shed, mut admission_shed) = (false, false);
            for &r in &report.killed_regions {
                let (from, to) = (
                    sheds[c0 as usize][r as usize],
                    sheds[t as usize][r as usize],
                );
                queue_shed |= to.0 > from.0;
                admission_shed |= to.1 > from.1;
            }
            for (hit, feature) in [
                (report.torn_bytes > 0, "torn-bytes"),
                (report.replayed_ticks == 0, "replay-empty"),
                (c0 == 0, "from-tick-0"),
                (t % cfg.checkpoint_every == 0, "kill-on-checkpoint"),
                (c0 < t && epoch(c0 + 1) != epoch(t), "replay-crosses-epoch"),
                (queue_shed, "queue-shed-replayed"),
                (admission_shed, "admission-shed-replayed"),
            ] {
                if hit {
                    features.insert(feature);
                }
            }
        }
    }
    assert_eq!(
        victim.snapshot_all(),
        golden.snapshot_all(),
        "seed {}",
        cfg.seed
    );
    assert_eq!(
        victim.digest_timeline(),
        golden.digest_timeline(),
        "seed {}",
        cfg.seed
    );
    Ok((features, kills))
}

#[test]
fn partitioned_run_matches_single_world() {
    cases(8, |rng| {
        let (regions, shards) = (rng.gen_range(2usize..=4), rng.gen_range(1usize..=4));
        check_partition_equivalence(rng.gen_range(0u64..500), regions, shards);
    });
}

#[test]
fn shard_count_is_invisible_under_load() {
    cases(8, |rng| {
        check_shard_invariance(rng.gen_range(0u64..500), rng.gen_range(2usize..=4))
    });
}

#[test]
fn backpressure_conserves_every_request() {
    cases(8, |rng| {
        let (queue_cap, drain) = (rng.gen_range(1usize..=4), rng.gen_range(1usize..=3));
        let (rate, ticks) = (rng.gen_range(100.0..400.0), rng.gen_range(3u32..=8));
        check_backpressure_conservation(rng.gen_range(0u64..500), queue_cap, drain, rate, ticks);
    });
}

#[test]
fn kill_soak_matches_golden_and_reaches_every_feature() {
    let mut reached = BTreeSet::new();
    let (mut runs, mut kills) = (0, 0);
    cases(12, |rng| {
        let cfg = soak_cfg(rng);
        let ticks = rng.gen_range(12u32..=24);
        let (features, n) =
            check_kill_soak(&cfg, ticks, rng).unwrap_or_else(|e| panic!("restore failed: {e}"));
        reached.extend(features);
        runs += 1;
        kills += n;
    });
    eprintln!("kill soak: {runs} cases, {kills} kills, reached {reached:?}");
    let missing: Vec<_> = SOAK_FEATURES
        .iter()
        .filter(|f| !reached.contains(*f))
        .collect();
    assert!(
        missing.is_empty(),
        "the kill soak stopped reaching {missing:?} ({kills} kills)"
    );
}

/// Pins: each property at fixed seeds, chosen so the partition-equivalence
/// sample is known to contain both a chain confined to one region and a
/// chain spanning two.
#[test]
fn partition_equivalence_pinned_covers_both_chain_kinds() {
    let mut confined_total = 0usize;
    let mut spanning_total = 0usize;
    for seed in [17u64, 101, 333] {
        let (confined, spanning) = check_partition_equivalence(seed, 3, 3);
        confined_total += confined;
        spanning_total += spanning;
    }
    assert!(confined_total > 0, "no region-confined chain in any sample");
    assert!(spanning_total > 0, "no region-spanning chain in any sample");
}

#[test]
fn shard_invariance_pinned() {
    for seed in [5u64, 88, 421] {
        check_shard_invariance(seed, 3);
        check_shard_invariance(seed, 4);
    }
}

#[test]
fn backpressure_conservation_pinned() {
    check_backpressure_conservation(9, 1, 1, 350.0, 6);
    check_backpressure_conservation(77, 2, 2, 180.0, 8);
    check_backpressure_conservation(123, 4, 3, 120.0, 4);
}
