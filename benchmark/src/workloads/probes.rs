//! Layer probes shared by the workloads' traced runs: timed calls into the
//! public functions of `core`, `model` and `net`, on inputs the workload
//! hands over (an epoch's or slot's scenario, a placement, a checkpoint
//! image). Every call expected under 5 us is timed in batches of at least
//! [`BATCH`] calls and reported per call.

use crate::metrics::Acc;
use crate::trace::{Recorder, SpanId};
use crate::workloads::ms;
use socl::core::combine::{CombineStats, Combiner};
use socl::core::partition::initial_partition_cached;
use socl::core::preprovision::preprovision;
use socl::core::SoclConfig;
use socl::model::{
    crc32, evaluate, optimal_route_with, route_all, BinReader, BinWriter, Evaluation, Placement,
    RouteScratch, Scenario, ScenarioConfig,
};
use socl::net::par::par_map_indexed_with;
use socl::net::{AllPairs, EdgeNetwork, PathMetric, ShortestPaths, VgCache, VirtualGraph};
use std::time::{Duration, Instant};

/// Calls per timed batch for sub-5-us operations.
pub const BATCH: usize = 1000;

/// What the stage-by-stage pipeline produced.
pub struct Composed {
    pub placement: Placement,
    pub evaluation: Evaluation,
    pub stats: CombineStats,
}

/// How a pipeline stage is attached to its parent span.
#[derive(Clone, Copy)]
pub enum Attach {
    /// The harness makes the stage calls itself: real children.
    Real { parent: SpanId, step: u64 },
    /// The parent step was opaque; these are replays on its inputs.
    Replay { parent: SpanId },
}

fn stage<T>(
    rec: &mut Recorder,
    attach: Attach,
    names: (&'static str, &'static str),
    f: impl FnOnce() -> T,
) -> (T, Duration) {
    match attach {
        Attach::Real { parent, step } => rec.scope(names.0, Some(parent), step, f),
        Attach::Replay { parent } => {
            let t = Instant::now();
            let out = f();
            let wall = t.elapsed();
            rec.replayed(names.1, parent, wall);
            (out, wall)
        }
    }
}

/// The SoCL pipeline composed from its public stages — partition,
/// pre-provision, combine, evaluate — exactly as `SoclSolver::solve`
/// composes them, each under its own span, with the stage counts.
pub fn pipeline(
    rec: &mut Recorder,
    acc: &mut Acc,
    attach: Attach,
    sc: &Scenario,
    vg: &mut VgCache,
) -> Composed {
    let cfg = SoclConfig::default();
    let (parts, d) = stage(
        rec,
        attach,
        ("core.partition", "replay.core.partition"),
        || initial_partition_cached(sc, &cfg, vg),
    );
    acc.push("core.partition.ms", ms(d));
    let (pre, d) = stage(
        rec,
        attach,
        ("core.preprovision", "replay.core.preprovision"),
        || preprovision(sc, &parts, &cfg),
    );
    acc.push("core.preprovision.ms", ms(d));
    acc.push(
        "core.preprovision.instances",
        pre.placement.total_instances() as f64,
    );
    let ((placement, stats), d) =
        stage(rec, attach, ("core.combine", "replay.core.combine"), || {
            Combiner::new(sc, &cfg, &parts, pre.placement.clone()).run()
        });
    acc.push("core.combine.ms", ms(d));
    let (evaluation, d) = stage(
        rec,
        attach,
        ("core.evaluate", "replay.core.evaluate"),
        || evaluate(sc, &placement),
    );
    acc.push("core.evaluate.ms", ms(d));
    acc.push("core.combine.large_rounds", stats.large_rounds as f64);
    acc.push("core.combine.large_removed", stats.large_removed as f64);
    acc.push("core.combine.small_removed", stats.small_removed as f64);
    acc.push("core.combine.rollbacks", stats.rollbacks as f64);
    acc.push("core.combine.migrations", stats.migrations as f64);
    let tried = stats.large_removed + stats.small_removed + stats.rollbacks;
    if tried > 0 {
        acc.push(
            "core.combine.rollback_frac",
            stats.rollbacks as f64 / tried as f64,
        );
    }
    Composed {
        placement,
        evaluation,
        stats,
    }
}

/// Routing DP, `route_all` and scenario assembly on one (scenario,
/// placement) pair. `batches` batches of at least [`BATCH`] routing calls.
pub fn model(acc: &mut Acc, sc: &Scenario, placement: &Placement, batches: usize) {
    if sc.requests.is_empty() {
        return;
    }
    // DP table cells one pass over the requests fills.
    let cells_per_pass: usize = sc
        .requests
        .iter()
        .map(|r| {
            r.chain
                .windows(2)
                .map(|w| placement.instance_count(w[0]) * placement.instance_count(w[1]))
                .sum::<usize>()
        })
        .sum();
    acc.push(
        "model.routing.dp_cells_per_route",
        cells_per_pass as f64 / sc.requests.len() as f64,
    );
    let passes = BATCH.div_ceil(sc.requests.len());
    let calls = passes * sc.requests.len();
    let mut scratch = RouteScratch::new();
    let mut edge = 0usize;
    for _ in 0..batches {
        let t = Instant::now();
        for _ in 0..passes {
            for r in &sc.requests {
                let out =
                    optimal_route_with(&mut scratch, r, placement, &sc.net, &sc.ap, &sc.catalog);
                edge += usize::from(out.route().is_some());
            }
        }
        let wall = t.elapsed();
        let per_call_us = wall.as_nanos() as f64 / calls as f64 / 1e3;
        acc.push("model.routing.route_us_p50", per_call_us);
        acc.push("model.routing.route_us_p90", per_call_us);
        if cells_per_pass > 0 {
            acc.push_per_call(
                "model.routing.ns_per_cell",
                wall,
                passes * cells_per_pass,
                1.0,
            );
        }
    }
    std::hint::black_box(edge);
    let t = Instant::now();
    let assignment = route_all(&sc.requests, placement, &sc.net, &sc.ap, &sc.catalog);
    acc.push("model.routing.route_all_ms", ms(t.elapsed()));
    std::hint::black_box(assignment.len());
    let (net, catalog, requests) = (sc.net.clone(), sc.catalog.clone(), sc.requests.clone());
    let t = Instant::now();
    let assembled = ScenarioConfig::default().assemble(net, catalog, requests);
    acc.push("model.scenario.assemble_ms", ms(t.elapsed()));
    std::hint::black_box(assembled.nodes());
}

/// `BinWriter` / `BinReader` / `crc32` throughput over a real checkpoint
/// image: the image's words as a `u32` slice plus its bytes as a blob.
pub fn codec(acc: &mut Acc, image: &[u8]) {
    if image.len() < 64 {
        return;
    }
    let words: Vec<u32> = image
        .chunks_exact(4)
        .map(|c| u32::from_le_bytes([c[0], c[1], c[2], c[3]]))
        .collect();
    let reps = (1usize << 20).div_ceil(image.len());
    let t = Instant::now();
    let mut sum = 0u32;
    for _ in 0..reps {
        sum = sum.wrapping_add(crc32(std::hint::black_box(image)));
    }
    acc.push_mb_s("model.codec.crc32_mb_s", reps * image.len(), t.elapsed());
    std::hint::black_box(sum);
    let t = Instant::now();
    let mut encoded = Vec::new();
    for _ in 0..reps {
        let mut w = BinWriter::new();
        w.put_u32_slice(&words);
        w.put_bytes(image);
        encoded = w.into_bytes();
    }
    acc.push_mb_s("model.codec.encode_mb_s", reps * encoded.len(), t.elapsed());
    let t = Instant::now();
    let mut decoded = 0usize;
    for _ in 0..reps {
        let mut r = BinReader::new(&encoded);
        decoded += r.get_u32_vec().map_or(0, |v| v.len());
        decoded += r.get_bytes().map_or(0, <[u8]>::len);
    }
    acc.push_mb_s("model.codec.decode_mb_s", reps * encoded.len(), t.elapsed());
    std::hint::black_box(decoded);
}

/// APSP builds (pool and serial), one Dijkstra row, and the cost of an
/// empty fan-out on the deterministic pool.
pub fn net(acc: &mut Acc, net: &EdgeNetwork, threads: usize) {
    let t = Instant::now();
    let par = AllPairs::build_with_threads(net, threads);
    let par_wall = t.elapsed();
    let t = Instant::now();
    let serial = AllPairs::build_serial(net);
    let serial_wall = t.elapsed();
    std::hint::black_box((par.node_count(), serial.node_count()));
    acc.push("net.paths.apsp_build_ms", ms(par_wall));
    acc.push("net.paths.apsp_build_serial_ms", ms(serial_wall));
    if par_wall > Duration::ZERO {
        acc.push(
            "net.par.apsp_speedup",
            serial_wall.as_secs_f64() / par_wall.as_secs_f64(),
        );
    }
    let t = Instant::now();
    let mut rows = 0usize;
    for source in net.node_ids() {
        for metric in [PathMetric::Latency, PathMetric::Hops] {
            std::hint::black_box(ShortestPaths::dijkstra(net, source, metric).source());
            rows += 1;
        }
    }
    acc.push_per_call("net.paths.dijkstra_row_us", t.elapsed(), rows, 1e3);
    let fanouts = 200;
    let t = Instant::now();
    for _ in 0..fanouts {
        std::hint::black_box(par_map_indexed_with(4 * threads, threads, |i| i).len());
    }
    acc.push_per_call("net.par.dispatch_us", t.elapsed(), fanouts, 1e3);
}

/// One virtual-graph build per requested service of `sc`.
pub fn virtual_graphs(acc: &mut Acc, sc: &Scenario) {
    let hosts: Vec<_> = sc
        .requested_services()
        .into_iter()
        .map(|m| sc.request_nodes(m))
        .collect();
    let t = Instant::now();
    for h in &hosts {
        std::hint::black_box(VirtualGraph::build(h, &sc.ap).len());
    }
    acc.push_per_call("net.virtual_graph.build_us", t.elapsed(), hosts.len(), 1e3);
}

/// Hit share of the harness-owned virtual-graph memo, once per run.
pub fn vg_cache_hits(acc: &mut Acc, vg: &VgCache) {
    let lookups = vg.hits() + vg.misses();
    if lookups > 0 {
        acc.push(
            "net.virtual_graph.cache_hit_frac",
            vg.hits() as f64 / lookups as f64,
        );
    }
}
