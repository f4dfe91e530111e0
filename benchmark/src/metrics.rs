//! What the benchmark measures: the workloads, the end-to-end metrics with
//! their regression bounds, and the per-layer metrics — one table each.
//! `/BENCHMARK.json` is exactly [`contract_json`]; a self-test pins that.

use crate::json;
use crate::stats;
use std::collections::{BTreeMap, BTreeSet};

/// How long one run measures, seconds (`run_seconds` in the contract).
pub const RUN_SECONDS: u32 = 25;

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Better {
    Higher,
    Lower,
}

impl Better {
    pub fn as_str(self) -> &'static str {
        match self {
            Better::Higher => "higher",
            Better::Lower => "lower",
        }
    }
}

pub struct WorkloadDecl {
    pub name: &'static str,
    pub why: &'static str,
}

pub const WORKLOADS: &[WorkloadDecl] = &[
    WorkloadDecl {
        name: "serve-steady",
        why: "SoclServe ticks at a sustainable diurnal rate on a small population: per-decision work and the epoch re-solve dominate, the load generator does not; journal written, never read",
    },
    WorkloadDecl {
        name: "serve-flash-crash",
        why: "The same tick loop overloaded: 200k-user scan, queues at cap, admission shedding, scale-ups, and a shard killed and recovered from its journal every 37 ticks with clean and torn tails",
    },
    WorkloadDecl {
        name: "solve-metro",
        why: "Cold one-shot SoclSolver::solve on fresh scenarios past the paper's 10 servers: nothing to reuse, no feed, no journal - the bypass for every incremental, caching and serve-side optimisation",
    },
    WorkloadDecl {
        name: "online-churn",
        why: "OnlineSimulator slots under mobility, chain churn, node and link faults and mid-slot crashes: the only workload running incremental APSP, replica repair and the sim checkpoint codec",
    },
];

pub struct EndToEnd {
    pub name: &'static str,
    pub unit: &'static str,
    pub better: Better,
    /// Share of the parent's median by which the metric may worsen.
    pub bound: f64,
}

/// Every workload reports every one of these, measured with tracing off.
/// A *step* is one `SoclServe::step`, one `SoclSolver::solve`, or one
/// `OnlineSimulator::step`; see README.md for the per-workload reading.
pub const END_TO_END: &[EndToEnd] = &[
    EndToEnd {
        name: "setup_s",
        unit: "s",
        better: Better::Lower,
        bound: 0.25,
    },
    EndToEnd {
        name: "decisions_per_s",
        unit: "1/s",
        better: Better::Higher,
        bound: 0.25,
    },
    EndToEnd {
        name: "step_ms_p50",
        unit: "ms",
        better: Better::Lower,
        bound: 0.25,
    },
    EndToEnd {
        name: "step_ms_p90",
        unit: "ms",
        better: Better::Lower,
        bound: 0.25,
    },
    EndToEnd {
        name: "served_frac",
        unit: "ratio",
        better: Better::Higher,
        bound: 0.15,
    },
    EndToEnd {
        name: "objective_mean",
        unit: "objective",
        better: Better::Lower,
        bound: 0.1,
    },
    EndToEnd {
        name: "peak_rss_mb",
        unit: "MiB",
        better: Better::Lower,
        bound: 0.2,
    },
];

/// How the samples pushed under a per-layer name become its one value.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Agg {
    Median,
    Mean,
    Max,
    /// Nearest-rank p90 / p99 under the ten-samples-beyond rule.
    P90,
    P99,
}

pub struct Layer {
    pub name: &'static str,
    pub unit: &'static str,
    pub better: Better,
    pub agg: Agg,
}

const fn layer(name: &'static str, unit: &'static str, better: Better, agg: Agg) -> Layer {
    Layer {
        name,
        unit,
        better,
        agg,
    }
}

use Agg::{Max, Mean, Median, P90, P99};
use Better::{Higher, Lower};

/// Per-layer metrics, `<crate>.<module>.<metric>`. Reported by the traced
/// run only; a layer a workload does not exercise reads 0 there. Event
/// counts are means per step (tick or slot), so they do not grow with the
/// number of rounds a run fits.
pub const PER_LAYER: &[Layer] = &[
    // serve: the tick seen from outside, classified by cadence.
    layer("serve.service.tick_plain_ms_p50", "ms", Lower, Median),
    layer("serve.service.tick_resolve_ms_p50", "ms", Lower, Median),
    layer("serve.service.tick_ckpt_ms_p50", "ms", Lower, Median),
    layer("serve.service.resolve_time_share", "ratio", Lower, Mean),
    layer("serve.service.ckpt_time_share", "ratio", Lower, Mean),
    layer(
        "serve.service.decisions_per_tick_mean",
        "count",
        Higher,
        Mean,
    ),
    layer("serve.service.unattributed_frac", "ratio", Lower, Mean),
    layer(
        "serve.service.rss_growth_mb_per_kilotick",
        "MiB",
        Lower,
        Median,
    ),
    layer("serve.service.recovery_ms_p50", "ms", Lower, Median),
    layer(
        "serve.service.restore_replayed_ticks_mean",
        "count",
        Lower,
        Mean,
    ),
    layer(
        "serve.service.restore_torn_bytes_mean",
        "count",
        Lower,
        Mean,
    ),
    layer(
        "serve.service.restore_ms_per_replayed_tick",
        "ms",
        Lower,
        Mean,
    ),
    layer("serve.feed.arrives_ns", "ns", Lower, Median),
    layer("serve.feed.synthesize_us", "us", Lower, Median),
    layer("serve.feed.scan_share", "ratio", Lower, Mean),
    layer("serve.queue.depth_peak", "count", Lower, Max),
    layer("serve.queue.shed", "count", Lower, Mean),
    layer("serve.queue.shed_frac", "ratio", Lower, Mean),
    layer("serve.queue.queued_at_end", "count", Lower, Mean),
    layer("serve.queue.wait_ticks_p50", "count", Lower, Median),
    layer("serve.queue.wait_ticks_p99", "count", Lower, P99),
    layer("serve.wal.bytes_per_tick", "count", Lower, Mean),
    layer("serve.wal.append_us", "us", Lower, Median),
    layer("serve.wal.scan_mb_s", "MB/s", Higher, Median),
    layer("serve.wal.ckpt_encode_us", "us", Lower, Median),
    layer("serve.wal.ckpt_decode_us", "us", Lower, Median),
    layer("serve.wal.ckpt_bytes_max", "count", Lower, Max),
    layer("serve.region.partition_ms", "ms", Lower, Median),
    layer("serve.region.skew", "ratio", Lower, Mean),
    // core: the SoCL pipeline, stage by stage.
    layer("core.partition.ms", "ms", Lower, Median),
    layer("core.preprovision.ms", "ms", Lower, Median),
    layer("core.combine.ms", "ms", Lower, Median),
    layer("core.evaluate.ms", "ms", Lower, Median),
    layer("core.pipeline.stage_cover_frac", "ratio", Higher, Mean),
    layer("core.preprovision.instances", "count", Lower, Mean),
    layer("core.combine.large_rounds", "count", Lower, Mean),
    layer("core.combine.large_removed", "count", Lower, Mean),
    layer("core.combine.small_removed", "count", Lower, Mean),
    layer("core.combine.rollbacks", "count", Lower, Mean),
    layer("core.combine.migrations", "count", Lower, Mean),
    layer("core.combine.rollback_frac", "ratio", Lower, Mean),
    layer("core.online.repair_ms_p50", "ms", Lower, Median),
    layer("core.online.repair_churn_mean", "count", Lower, Mean),
    layer("core.online.warm_solve_ms_p50", "ms", Lower, Median),
    layer("core.online.warm_churn_mean", "count", Lower, Mean),
    // model: routing DP, scenario assembly, the binary codec.
    layer("model.routing.route_us_p50", "us", Lower, Median),
    layer("model.routing.route_us_p90", "us", Lower, P90),
    layer("model.routing.dp_cells_per_route", "count", Lower, Mean),
    layer("model.routing.ns_per_cell", "ns", Lower, Median),
    layer("model.routing.route_all_ms", "ms", Lower, Median),
    layer("model.scenario.assemble_ms", "ms", Lower, Median),
    layer("model.codec.encode_mb_s", "MB/s", Higher, Median),
    layer("model.codec.decode_mb_s", "MB/s", Higher, Median),
    layer("model.codec.crc32_mb_s", "MB/s", Higher, Median),
    // net: shortest paths, the pool, virtual graphs, incremental APSP.
    layer("net.paths.apsp_build_ms", "ms", Lower, Median),
    layer("net.paths.apsp_build_serial_ms", "ms", Lower, Median),
    layer("net.paths.dijkstra_row_us", "us", Lower, Median),
    layer("net.par.dispatch_us", "us", Lower, Median),
    layer("net.par.apsp_speedup", "ratio", Higher, Median),
    layer("net.virtual_graph.build_us", "us", Lower, Median),
    layer("net.virtual_graph.cache_hit_frac", "ratio", Higher, Mean),
    layer("net.incremental.apply_us_p50", "us", Lower, Median),
    layer("net.incremental.apply_us_p90", "us", Lower, P90),
    layer("net.incremental.rows_recomputed_frac", "ratio", Lower, Mean),
    layer("net.incremental.full_rebuilds", "count", Lower, Mean),
    layer("net.incremental.halves_repaired", "count", Lower, Mean),
    layer("net.incremental.halves_recomputed", "count", Lower, Mean),
    // sim: the online slot, mobility, and the sim checkpoint / log codec.
    layer("sim.online.solve_ms_p50", "ms", Lower, Median),
    layer("sim.online.solve_share", "ratio", Lower, Mean),
    layer("sim.online.other_ms_p50", "ms", Lower, Median),
    layer("sim.online.failed_nodes_mean", "count", Lower, Mean),
    layer("sim.online.mid_slot_failures", "count", Lower, Mean),
    layer("sim.mobility.moves_per_slot", "count", Lower, Mean),
    layer("sim.recovery.ckpt_encode_us", "us", Lower, Median),
    layer("sim.recovery.ckpt_decode_us", "us", Lower, Median),
    layer("sim.recovery.ckpt_bytes", "count", Lower, Max),
    layer("sim.recovery.restore_us", "us", Lower, Median),
    layer("sim.recovery.log_append_us", "us", Lower, Median),
    layer("sim.recovery.log_scan_mb_s", "MB/s", Higher, Median),
    // autoscale: the scaler tick and admission.
    layer("autoscale.scaler.tick_us_p50", "us", Lower, Median),
    layer("autoscale.scaler.scale_ups", "count", Lower, Mean),
    layer("autoscale.scaler.scale_downs", "count", Lower, Mean),
    layer("autoscale.admission.shed", "count", Lower, Mean),
    layer("autoscale.admission.admit_ns", "ns", Lower, Median),
    // the harness itself.
    layer("harness.trace.overhead_frac", "ratio", Lower, Mean),
    layer("harness.trace.spans", "count", Lower, Max),
];

/// Samples collected under per-layer names during a traced run.
#[derive(Debug, Default)]
pub struct Acc {
    samples: BTreeMap<&'static str, Vec<f64>>,
}

impl Acc {
    /// Add one sample. The name must be declared in [`PER_LAYER`] — an
    /// undeclared name is a harness bug, caught by the smoke self-test.
    pub fn push(&mut self, name: &'static str, value: f64) {
        assert!(
            PER_LAYER.iter().any(|l| l.name == name),
            "per-layer metric {name} is not declared"
        );
        self.samples.entry(name).or_default().push(value);
    }

    /// Nanoseconds of `wall` spread over `calls` calls, in `unit_ns`-sized
    /// units (1 = ns, 1e3 = us, 1e6 = ms): the batched form every call
    /// expected under 5 us is timed in.
    pub fn push_per_call(
        &mut self,
        name: &'static str,
        wall: std::time::Duration,
        calls: usize,
        unit_ns: f64,
    ) {
        if calls > 0 {
            self.push(name, wall.as_nanos() as f64 / calls as f64 / unit_ns);
        }
    }

    /// Throughput sample: `bytes` moved in `wall`, MB/s.
    pub fn push_mb_s(&mut self, name: &'static str, bytes: usize, wall: std::time::Duration) {
        let secs = wall.as_secs_f64();
        if bytes > 0 && secs > 0.0 {
            self.push(name, bytes as f64 / 1e6 / secs);
        }
    }

    pub fn samples(&self, name: &str) -> &[f64] {
        self.samples.get(name).map_or(&[], Vec::as_slice)
    }

    /// One value per declared metric (0 for a layer this workload never
    /// touched), the set of names that were touched, and a note for each
    /// tail percentile that lacked samples.
    pub fn finalize(
        &self,
    ) -> (
        BTreeMap<&'static str, f64>,
        BTreeSet<&'static str>,
        Vec<String>,
    ) {
        let mut values = BTreeMap::new();
        let mut notes = Vec::new();
        for l in PER_LAYER {
            let s = self.samples(l.name);
            let v = match l.agg {
                Agg::Median => stats::median(s),
                Agg::Mean => stats::mean(s),
                Agg::Max => s.iter().copied().max_by(f64::total_cmp),
                Agg::P90 | Agg::P99 => {
                    let p = if l.agg == Agg::P90 { 0.90 } else { 0.99 };
                    let v = stats::tail_percentile(s, p);
                    if v.is_none() && !s.is_empty() {
                        notes.push(format!(
                            "{}: {} samples do not leave {} beyond the percentile; reported as 0",
                            l.name,
                            s.len(),
                            stats::BEYOND
                        ));
                    }
                    v
                }
            };
            values.insert(l.name, v.unwrap_or(0.0));
        }
        let touched = self.samples.keys().copied().collect();
        (values, touched, notes)
    }
}

fn metric_line(name: &str, unit: &str, better: Better, bound: Option<f64>) -> String {
    let mut fields = vec![
        ("name", json::string(name)),
        ("unit", json::string(unit)),
        ("better", json::string(better.as_str())),
    ];
    if let Some(b) = bound {
        fields.push(("bound", json::number(b)));
    }
    json::object(fields)
}

/// The exact text of `/BENCHMARK.json`.
pub fn contract_json() -> String {
    let block = |lines: Vec<String>| format!("[\n    {}\n  ]", lines.join(",\n    "));
    let command = [
        "cargo",
        "run",
        "--offline",
        "--release",
        "--quiet",
        "--manifest-path",
        "benchmark/Cargo.toml",
        "--",
    ];
    format!(
        "{{\n  \"command\": {},\n  \"paths\": [\"benchmark\"],\n  \"run_seconds\": {},\n  \"workloads\": {},\n  \"end_to_end\": {},\n  \"per_layer\": {}\n}}\n",
        json::array(command.iter().map(|c| json::string(c))),
        RUN_SECONDS,
        block(
            WORKLOADS
                .iter()
                .map(|w| json::object([("name", json::string(w.name)), ("why", json::string(w.why))]))
                .collect()
        ),
        block(
            END_TO_END
                .iter()
                .map(|m| metric_line(m.name, m.unit, m.better, Some(m.bound)))
                .collect()
        ),
        block(
            PER_LAYER
                .iter()
                .map(|m| metric_line(m.name, m.unit, m.better, None))
                .collect()
        ),
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    fn well_formed_name(name: &str) -> bool {
        !name.is_empty()
            && name.len() <= 64
            && name
                .chars()
                .next()
                .is_some_and(|c| c.is_ascii_alphanumeric())
            && name
                .chars()
                .all(|c| c.is_ascii_alphanumeric() || "_.-".contains(c))
    }

    fn well_formed_unit(unit: &str) -> bool {
        !unit.is_empty()
            && unit.len() <= 16
            && unit
                .chars()
                .all(|c| c.is_ascii_alphanumeric() || "_/%.-".contains(c))
    }

    #[test]
    fn names_and_units_meet_the_contract() {
        let mut seen = BTreeSet::new();
        for w in WORKLOADS {
            assert!(well_formed_name(w.name), "{}", w.name);
            assert!(
                w.why.len() <= 200 && !w.why.contains('\n'),
                "{}: why",
                w.name
            );
            assert!(seen.insert(w.name), "{} used twice", w.name);
        }
        for (name, unit) in END_TO_END
            .iter()
            .map(|m| (m.name, m.unit))
            .chain(PER_LAYER.iter().map(|m| (m.name, m.unit)))
        {
            assert!(well_formed_name(name), "{name}");
            assert!(well_formed_unit(unit), "{name}: unit {unit}");
            assert!(seen.insert(name), "{name} used twice");
        }
        assert!((2..=8).contains(&WORKLOADS.len()));
        assert!((1..=16).contains(&END_TO_END.len()));
        assert!((1..=128).contains(&PER_LAYER.len()));
        assert!((1..=60).contains(&RUN_SECONDS));
        for m in END_TO_END {
            assert!(m.bound > 0.0 && m.bound <= 0.25, "{}", m.name);
        }
        let setup = END_TO_END
            .iter()
            .find(|m| m.name == "setup_s")
            .expect("setup_s");
        assert!(setup.unit == "s" && setup.better == Better::Lower);
        assert!(END_TO_END.iter().all(|m| m.bound <= setup.bound));
        // 4 + 22 runs per workload, each at most run_seconds plus one
        // round of slack, inside the driver's cap with two builds.
        let runs = 4 + 22 * WORKLOADS.len() as u32;
        assert!(runs * (RUN_SECONDS + 6) + 2 * 120 <= 3420);
    }

    #[test]
    fn per_layer_names_are_crate_module_metric() {
        for l in PER_LAYER {
            assert_eq!(l.name.split('.').count(), 3, "{}", l.name);
        }
    }

    #[test]
    fn benchmark_json_is_the_rendered_contract() {
        let committed = include_str!("../../BENCHMARK.json");
        assert_eq!(
            committed,
            contract_json(),
            "regenerate with --print-contract"
        );
        assert!(committed.len() <= 64 * 1024);
        // No golden digest rides along in the contract.
        assert!(!committed.contains("digest"));
    }

    #[test]
    fn acc_aggregates_by_declared_rule() {
        let mut acc = Acc::default();
        for v in [1.0, 2.0, 9.0] {
            acc.push("core.combine.ms", v);
            acc.push("serve.wal.ckpt_bytes_max", v);
            acc.push("serve.queue.depth_peak", v);
            acc.push("core.combine.rollbacks", v);
            acc.push("serve.queue.wait_ticks_p99", v);
        }
        let (values, touched, notes) = acc.finalize();
        assert_eq!(values["core.combine.ms"], 2.0);
        assert_eq!(values["serve.wal.ckpt_bytes_max"], 9.0);
        assert_eq!(values["serve.queue.depth_peak"], 9.0);
        assert_eq!(values["core.combine.rollbacks"], 4.0);
        assert_eq!(values["serve.queue.wait_ticks_p99"], 0.0);
        assert_eq!(values["net.par.dispatch_us"], 0.0);
        assert_eq!(values.len(), PER_LAYER.len());
        assert_eq!(touched.len(), 5);
        assert_eq!(notes.len(), 1);
    }

    #[test]
    #[should_panic(expected = "not declared")]
    fn undeclared_names_are_refused() {
        Acc::default().push("serve.made.up", 1.0);
    }
}
