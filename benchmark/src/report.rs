//! What a run prints: the conditions, every metric by name with its unit,
//! the check ledger, and — as the last line of standard output — the one
//! JSON object the driver reads.

use crate::json;
use crate::metrics::PER_LAYER;
use crate::workloads::Ctx;

/// A run is correct when no check failed.
pub fn is_correct(ctx: &Ctx) -> bool {
    ctx.failures.is_empty() && ctx.e2e.failed == 0
}

/// Metrics of the finished run, in contract order: the end-to-end set
/// with tracing off, the per-layer set with tracing on.
pub fn metrics(ctx: &mut Ctx) -> Vec<(&'static str, &'static str, f64)> {
    if ctx.args.trace {
        if let Some(rec) = &ctx.rec {
            ctx.acc.push("harness.trace.spans", rec.len() as f64);
        }
        let (values, _, notes) = ctx.acc.finalize();
        for n in notes {
            eprintln!("note: {n}");
        }
        PER_LAYER
            .iter()
            .map(|l| (l.name, l.unit, values[l.name]))
            .collect()
    } else {
        ctx.end_to_end()
    }
}

/// The driver's line: exactly `correct`, `attempted`, `failed`, `metrics`.
pub fn result_line(ctx: &Ctx, metrics: &[(&'static str, &'static str, f64)]) -> String {
    json::object([
        ("correct", is_correct(ctx).to_string()),
        ("attempted", ctx.e2e.attempted.max(1).to_string()),
        ("failed", ctx.e2e.failed.to_string()),
        (
            "metrics",
            json::object(metrics.iter().map(|(name, unit, v)| {
                (
                    *name,
                    json::object([("value", json::number(*v)), ("unit", json::string(unit))]),
                )
            })),
        ),
    ])
}

/// The human-readable record, printed before the result line.
pub fn print_record(ctx: &Ctx, metrics: &[(&'static str, &'static str, f64)]) {
    println!(
        "# {} --trace {} --seconds {}: {} rounds, {} timed steps, {:.1} s wall",
        ctx.args.workload,
        u8::from(ctx.args.trace),
        ctx.args.seconds,
        ctx.rounds,
        ctx.e2e.step_ms.len(),
        ctx.started.elapsed().as_secs_f64(),
    );
    println!("# conditions {}", ctx.cond.to_json());
    println!(
        "# samples: setup {}, step {}, objective {}; operations attempted {}, failed {}",
        ctx.e2e.setup_s.len(),
        ctx.e2e.step_ms.len(),
        ctx.e2e.objective.len(),
        ctx.e2e.attempted,
        ctx.e2e.failed,
    );
    let per_round: Vec<String> = ctx
        .round_medians()
        .iter()
        .map(|m| format!("{m:.3}"))
        .collect();
    println!("# step_ms_p50 by round: {}", per_round.join(" "));
    for (key, value) in &ctx.info {
        println!("# {key}: {value}");
    }
    for (name, unit, v) in metrics {
        let n = if ctx.args.trace {
            ctx.acc.samples(name).len()
        } else {
            0
        };
        if ctx.args.trace {
            println!("{name:<46} {v:>16.6} {unit:<10} n={n}");
        } else {
            println!("{name:<46} {v:>16.6} {unit}");
        }
    }
    for f in &ctx.failures {
        println!("# CHECK FAILED: {f}");
    }
    println!(
        "# checks: {}",
        if is_correct(ctx) {
            "all passed"
        } else {
            "FAILED"
        }
    );
}
