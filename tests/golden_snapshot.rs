//! Golden snapshot: every solver pipeline pinned on one fixed scenario.
//!
//! The hot-path engine work (parallel fan-out, incremental APSP repair,
//! memoized virtual graphs) is only acceptable if it never changes *what* is
//! computed — these tests pin objective, cost, and total completion time for
//! SoCL, the exact ILP, and all three baselines on a single seeded scenario.
//! Any drift — an accidental reordering of folds, a tie broken differently, a
//! cache returning stale data — moves at least one of these numbers and fails
//! loudly here with a diff of expected vs actual.
//!
//! If a change *intentionally* alters results (e.g. a model fix), regenerate
//! with: `cargo test -p socl --test golden_snapshot -- --ignored --nocapture`
//! and copy the printed block.

#![allow(clippy::expect_used, reason = "test code")]

use socl::prelude::*;

/// One scenario small enough for the exact solver, rich enough to exercise
/// routing, partitioning, and migration: 5 nodes, 12 users, fixed seed, over
/// the embedded eshopOnContainers dependency dataset (`ScenarioConfig::build`
/// assembles chains from `EshopDataset`).
fn golden_scenario() -> Scenario {
    let mut cfg = ScenarioConfig::paper(5, 12);
    cfg.requests.chain_len = (2, 3);
    cfg.build(0xC0FFEE)
}

/// (objective, cost, total completion time) per algorithm.
fn measure() -> [(&'static str, f64, f64, f64); 5] {
    let sc = golden_scenario();
    let socl = SoclSolver::new().solve(&sc);
    let exact = solve_exact(&sc, &ExactOptions::default());
    let exact_eval = exact.evaluation.expect("exact solver found a placement");
    let rp = random_provisioning(&sc, 0xBEEF);
    let j = jdr(&sc);
    let g = gc_og(&sc);
    [
        (
            "socl",
            socl.objective(),
            socl.evaluation.cost,
            socl.evaluation.total_latency,
        ),
        (
            "exact",
            exact.objective,
            exact_eval.cost,
            exact_eval.total_latency,
        ),
        ("rp", rp.objective, rp.cost, rp.total_latency),
        ("jdr", j.objective, j.cost, j.total_latency),
        ("gc_og", g.objective, g.cost, g.total_latency),
    ]
}

/// Pinned values (printed by `print_current_values` below), recorded under
/// `socl_net::rng`. PR 2 (e940f81), where this test was written, prints these
/// same fifteen numbers when built against that generator: the values pinned
/// before PR 19 came from a different random stream, not from different code.
#[allow(clippy::excessive_precision)]
const GOLDEN: [(&str, f64, f64, f64); 5] = [
    ("socl", 3663.886927095648, 2928.185349739043, 4.399588504452),
    (
        "exact",
        3645.789859295395,
        2928.185349739043,
        4.363394368852,
    ),
    ("rp", 5350.092219935364, 4419.748121288249, 6.280436318582),
    ("jdr", 5202.605389420998, 5924.652300839168, 4.480558478003),
    (
        "gc_og",
        4421.399433597840,
        2928.185349739043,
        5.914613517457,
    ),
];

#[test]
fn all_solvers_match_the_golden_snapshot() {
    let got = measure();
    for ((name, obj, cost, lat), (gname, gobj, gcost, glat)) in got.iter().zip(GOLDEN.iter()) {
        assert_eq!(name, gname);
        for (what, have, want) in [
            ("objective", obj, gobj),
            ("cost", cost, gcost),
            ("completion", lat, glat),
        ] {
            assert!(
                (have - want).abs() <= want.abs() * 1e-9,
                "{name} {what} drifted: expected {want:.12}, got {have:.12}"
            );
        }
    }
}

#[test]
fn snapshot_is_reproducible_within_one_process() {
    // The snapshot only makes sense if repeated runs agree bit-for-bit.
    let a = measure();
    let b = measure();
    for ((name, o1, c1, l1), (_, o2, c2, l2)) in a.iter().zip(b.iter()) {
        assert_eq!(o1.to_bits(), o2.to_bits(), "{name} objective not stable");
        assert_eq!(c1.to_bits(), c2.to_bits(), "{name} cost not stable");
        assert_eq!(l1.to_bits(), l2.to_bits(), "{name} completion not stable");
    }
}

#[test]
#[ignore = "regeneration helper: run with --ignored --nocapture and copy the block"]
fn print_current_values() {
    for (name, obj, cost, lat) in measure() {
        println!("    (\"{name}\", {obj:.12}, {cost:.12}, {lat:.12}),");
    }
}
