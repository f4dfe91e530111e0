//! `solve-metro`: `SoclSolver::solve` once on each of a stream of freshly
//! generated scenarios. Cold one-shot solves — no feed, no journal, no
//! state carried from one solve to the next.

use crate::workloads::probes::{self, Attach};
use crate::workloads::{fingerprint, ms, Ctx};
use socl::core::SoclSolver;
use socl::model::{Placement, Scenario, ScenarioConfig};
use socl::net::{set_threads, VgCache};
use std::time::Instant;

/// Frozen workload constants; see CALIBRATION.md for how they were chosen.
pub const NODES: usize = 16;
pub const USERS: usize = 96;
pub const BUDGET_PER_NODE: f64 = 600.0;
/// Scenarios generated (set-up) and solved (timed) per round: scenario `i`
/// of every round stands on fixture `i` — topology and catalog generated
/// from seed `i`, the same in every run — and carries the requests the
/// round's seed draws. `--seed` moves the users, not the metro.
pub const PER_ROUND: u32 = 20;

fn scenario_config() -> ScenarioConfig {
    ScenarioConfig {
        budget: BUDGET_PER_NODE * NODES as f64,
        ..ScenarioConfig::paper(NODES, USERS)
    }
}

fn placement_words(p: &Placement) -> impl Iterator<Item = u64> + '_ {
    p.iter_deployed()
        .map(|(m, k)| u64::from(m.0) << 32 | u64::from(k.0))
}

pub fn run(ctx: &mut Ctx) {
    let per_round = ctx.scaled(PER_ROUND, 2) as usize;
    let mut digest = 0u64;
    while ctx.more_rounds() {
        let began = Instant::now();
        let traced = ctx.begin_round();
        let seed = ctx.round_seed();

        // Set-up: generate the round's scenarios (topology, APSP, catalog,
        // requests).
        let t_setup = Instant::now();
        let cfg = scenario_config();
        let scenarios: Vec<Scenario> = (0..per_round as u64)
            .map(|i| {
                let fixture = cfg.build(i);
                let traffic = cfg.build(seed.wrapping_add(i));
                cfg.assemble(fixture.net, fixture.catalog, traffic.requests)
            })
            .collect();
        ctx.e2e.setup_s.push(t_setup.elapsed().as_secs_f64());

        let mut wall_sum = 0.0;
        for (i, sc) in scenarios.iter().enumerate() {
            let step = (ctx.rounds * per_round + i) as u64;
            let wall_ms = if traced {
                solve_traced(ctx, sc, step)
            } else {
                solve_plain(ctx, sc, &mut digest)
            };
            wall_sum += wall_ms;
            ctx.e2e.step_ms.push(wall_ms);
            ctx.e2e.attempted += 1;
        }
        if ctx.rounds == 0 {
            if let Some(sc) = scenarios.first() {
                thread_invariance(ctx, sc);
            }
        }
        if traced {
            if let Some(sc) = scenarios.first() {
                probes::net(&mut ctx.acc, &sc.net, ctx.cond.threads);
                probes::virtual_graphs(&mut ctx.acc, sc);
            }
        }
        ctx.end_round(began, wall_sum);
    }
    ctx.info.insert("decision_digest", format!("{digest:016x}"));
    if let Some(rec) = &ctx.rec {
        let cover = rec.cover_frac("core.solve").unwrap_or(0.0);
        ctx.acc.push("core.pipeline.stage_cover_frac", cover);
        ctx.check(cover >= 0.98 || ctx.args.smoke, || {
            format!("stage spans cover {cover:.4} of the solve, below 0.98")
        });
    }
}

/// The feasibility every produced placement must have.
fn feasible(ctx: &mut Ctx, sc: &Scenario, placement: &Placement, cost: f64, fallbacks: usize) {
    ctx.check(fallbacks == 0, || {
        format!("{fallbacks} requests fell back to the cloud")
    });
    ctx.check(cost <= sc.budget + 1e-6, || {
        format!("cost {cost} exceeds budget {}", sc.budget)
    });
    ctx.check(placement.storage_feasible(&sc.catalog, &sc.net), || {
        "placement violates node storage".into()
    });
    ctx.e2e.offered += sc.users() as u64;
    ctx.e2e.served += (sc.users() - fallbacks) as u64;
    ctx.e2e.decided += sc.users() as u64;
}

/// One timed `solve`; returns its wall in ms.
fn solve_plain(ctx: &mut Ctx, sc: &Scenario, digest: &mut u64) -> f64 {
    let t0 = Instant::now();
    let result = SoclSolver::new().solve(sc);
    let wall = t0.elapsed();
    feasible(
        ctx,
        sc,
        &result.placement,
        result.evaluation.cost,
        result.evaluation.cloud_fallbacks,
    );
    ctx.e2e.objective.push(result.objective());
    if ctx.rounds == 0 {
        *digest = fingerprint(
            [*digest]
                .into_iter()
                .chain(placement_words(&result.placement)),
        );
    }
    ms(wall)
}

/// The same solve composed stage by stage under real child spans, checked
/// against `SoclSolver::solve`'s placement; returns the composed wall in ms.
fn solve_traced(ctx: &mut Ctx, sc: &Scenario, step: u64) -> f64 {
    let Some(rec) = ctx.rec.as_mut() else {
        return 0.0;
    };
    let parent = rec.begin("core.solve", None, step);
    let composed = probes::pipeline(
        rec,
        &mut ctx.acc,
        Attach::Real { parent, step },
        sc,
        &mut VgCache::new(),
    );
    let wall = rec.end(parent);
    let reference = SoclSolver::new().solve(sc);
    ctx.check(composed.placement == reference.placement, || {
        format!("solve {step}: composed pipeline and SoclSolver::solve place differently")
    });
    let ev = &composed.evaluation;
    feasible(ctx, sc, &composed.placement, ev.cost, ev.cloud_fallbacks);
    ctx.e2e.objective.push(ev.objective);
    std::hint::black_box(composed.stats.final_objective);
    probes::model(&mut ctx.acc, sc, &composed.placement, 2);
    ms(wall)
}

/// The first instance solved on 1 thread and on T threads must agree.
fn thread_invariance(ctx: &mut Ctx, sc: &Scenario) {
    set_threads(1);
    let serial = SoclSolver::new().solve(sc).placement;
    set_threads(ctx.cond.threads);
    let parallel = SoclSolver::new().solve(sc).placement;
    let threads = ctx.cond.threads;
    ctx.check(serial == parallel, || {
        format!("1-thread and {threads}-thread placements differ")
    });
}
