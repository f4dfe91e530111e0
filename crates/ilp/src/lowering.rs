//! Faithful ILP lowering of Definition 4 onto the `socl-milp` solver.
//!
//! Variables (all per scenario):
//!
//! * `x(i,k)` — binary deployment of service `i` on node `k` (only services
//!   that appear in at least one request chain get columns; others are
//!   trivially zero at any optimum),
//! * `y(h,j,k)` — binary: chain position `j` of request `h` served at `k`,
//! * `z(h,j,k,k′)` — continuous in `[0,1]`: linearization of
//!   `y(h,j,k)·y(h,j+1,k′)`, carrying the inter-service transfer cost.
//!   Because its objective coefficient is non-negative and it is constrained
//!   by `z ≥ y₁ + y₂ − 1`, it equals the product at every optimal binary
//!   point.
//!
//! Constraints: Eq. 9 (`Σ_k y = 1`), Eq. 10 (`y ≤ x`), Eq. 6 (per-node
//! storage), Eq. 5 (budget), Eq. 4 (per-request completion bound, expressed
//! over the same linear terms), plus the `z` linking rows.
//!
//! Cloud fallback is *not* modeled here: the ILP requires every chain to be
//! served from the edge (the exact solver treats fallback as a very costly
//! alternative, and at the default penalty no optimal solution uses it —
//! asserted in tests).

use socl_milp::{solve_milp, MilpOptions, MilpSolution, Model, Relation, VarId};
use socl_model::{Placement, Scenario, ServiceId};
use socl_net::NodeId;

/// Handles into the lowered model, for solution extraction and inspection.
#[derive(Debug, Clone)]
pub struct IlpArtifacts {
    /// Requested services, in column order.
    pub services: Vec<ServiceId>,
    /// `x_vars[s][k]` for `services[s]` on node `k`.
    pub x_vars: Vec<Vec<VarId>>,
    /// `y_vars[h][j][k]`.
    pub y_vars: Vec<Vec<Vec<VarId>>>,
    /// Total number of variables (diagnostics).
    pub num_vars: usize,
    /// Total number of constraints (diagnostics).
    pub num_constraints: usize,
}

/// Build the ILP for `scenario`.
pub fn build_ilp(sc: &Scenario) -> (Model, IlpArtifacts) {
    let mut m = Model::new();
    let services = sc.requested_services();
    let n = sc.nodes();
    let scale = (1.0 - sc.lambda) * sc.latency_scale;

    // x(i,k) with deployment cost in the objective.
    let x_vars: Vec<Vec<VarId>> = services
        .iter()
        .map(|&s| {
            (0..n)
                .map(|_| m.add_binary(sc.lambda * sc.catalog.deploy_cost(s)))
                .collect()
        })
        .collect();
    #[expect(
        clippy::unwrap_used,
        reason = "`requested_services()` contains every service referenced by any request chain by construction, so the lookup cannot miss; a panic here is a lowering bug worth failing loudly on"
    )]
    let service_col = |s: ServiceId| services.iter().position(|&t| t == s).unwrap();

    // y(h,j,k) with node-local cost terms (upload, compute, return).
    let mut y_vars: Vec<Vec<Vec<VarId>>> = Vec::with_capacity(sc.users());
    for req in &sc.requests {
        let last = req.chain.len() - 1;
        let mut per_req = Vec::with_capacity(req.chain.len());
        for (j, &svc) in req.chain.iter().enumerate() {
            let mut per_pos = Vec::with_capacity(n);
            for k in 0..n {
                let node = NodeId(k as u32);
                let mut cost = sc.catalog.compute_gflop(svc) / sc.net.compute_gflops(node);
                if j == 0 {
                    cost += sc.ap.transfer_time(req.location, node, req.r_in);
                }
                if j == last {
                    cost += sc.ap.return_time(node, req.location, req.r_out);
                }
                per_pos.push(m.add_binary(scale * cost));
            }
            per_req.push(per_pos);
        }
        y_vars.push(per_req);
    }

    // Eq. 9: each chain position served exactly once.
    for per_req in &y_vars {
        for per_pos in per_req {
            m.add_constraint(per_pos.iter().map(|&v| (v, 1.0)), Relation::Eq, 1.0);
        }
    }

    // Eq. 10: y(h,j,k) ≤ x(i,k).
    for (h, req) in sc.requests.iter().enumerate() {
        for (j, &svc) in req.chain.iter().enumerate() {
            let s = service_col(svc);
            for k in 0..n {
                m.add_constraint(
                    [(y_vars[h][j][k], 1.0), (x_vars[s][k], -1.0)],
                    Relation::Le,
                    0.0,
                );
            }
        }
    }

    // Eq. 6: per-node storage.
    #[allow(clippy::needless_range_loop)]
    for k in 0..n {
        m.add_constraint(
            services
                .iter()
                .enumerate()
                .map(|(s, &svc)| (x_vars[s][k], sc.catalog.storage(svc))),
            Relation::Le,
            sc.net.storage(NodeId(k as u32)),
        );
    }

    // Eq. 5: budget.
    m.add_constraint(
        services.iter().enumerate().flat_map(|(s, &svc)| {
            let kappa = sc.catalog.deploy_cost(svc);
            x_vars[s].iter().map(move |&v| (v, kappa))
        }),
        Relation::Le,
        sc.budget,
    );

    // z(h,j,k,k') transfer linearization + per-request latency rows (Eq. 4).
    for (h, req) in sc.requests.iter().enumerate() {
        // Collect this request's latency terms as (var, seconds).
        let mut latency_terms: Vec<(VarId, f64)> = Vec::new();
        let last = req.chain.len() - 1;
        for (j, &svc) in req.chain.iter().enumerate() {
            #[allow(clippy::needless_range_loop)]
            for k in 0..n {
                let node = NodeId(k as u32);
                let mut secs = sc.catalog.compute_gflop(svc) / sc.net.compute_gflops(node);
                if j == 0 {
                    secs += sc.ap.transfer_time(req.location, node, req.r_in);
                }
                if j == last {
                    secs += sc.ap.return_time(node, req.location, req.r_out);
                }
                latency_terms.push((y_vars[h][j][k], secs));
            }
        }
        for j in 0..req.chain.len() - 1 {
            let r = req.edge_data[j];
            for k in 0..n {
                for k2 in 0..n {
                    if k == k2 {
                        continue; // zero transfer cost, z would be 0 anyway
                    }
                    let secs = sc.ap.transfer_time(NodeId(k as u32), NodeId(k2 as u32), r);
                    if secs <= 0.0 {
                        continue;
                    }
                    let z = m.add_var(0.0, 1.0, scale * secs, socl_milp::VarKind::Continuous);
                    // z ≥ y(h,j,k) + y(h,j+1,k') − 1
                    m.add_constraint(
                        [
                            (z, -1.0),
                            (y_vars[h][j][k], 1.0),
                            (y_vars[h][j + 1][k2], 1.0),
                        ],
                        Relation::Le,
                        1.0,
                    );
                    latency_terms.push((z, secs));
                }
            }
        }
        // Eq. 4: 𝒟_h ≤ 𝒟_h^max.
        m.add_constraint(latency_terms, Relation::Le, req.d_max);
    }

    let artifacts = IlpArtifacts {
        services,
        x_vars,
        y_vars,
        num_vars: m.num_vars(),
        num_constraints: m.num_constraints(),
    };
    (m, artifacts)
}

/// Solve the lowered ILP and extract the placement.
///
/// Returns `None` when the MILP terminates without an incumbent (infeasible
/// or limit hit before any integral solution).
pub fn solve_ilp(sc: &Scenario, options: &MilpOptions) -> Option<(Placement, MilpSolution)> {
    let (model, art) = build_ilp(sc);
    let sol = solve_milp(&model, options);
    if sol.values.is_empty() {
        return None;
    }
    let mut placement = Placement::empty(sc.services(), sc.nodes());
    for (s, &svc) in art.services.iter().enumerate() {
        for k in 0..sc.nodes() {
            if sol.values[art.x_vars[s][k].0] > 0.5 {
                placement.set(svc, NodeId(k as u32), true);
            }
        }
    }
    Some((placement, sol))
}

#[cfg(test)]
mod tests {
    use super::*;
    use socl_milp::MilpStatus;
    use socl_model::{evaluate, ScenarioConfig};

    /// Tiny scenario the dense simplex can handle quickly.
    fn tiny(seed: u64, nodes: usize, users: usize) -> Scenario {
        let mut cfg = ScenarioConfig::paper(nodes, users);
        cfg.requests.chain_len = (2, 3);
        cfg.build(seed)
    }

    #[test]
    fn ilp_counts_scale_with_instance() {
        let sc = tiny(1, 3, 4);
        let (_, art) = build_ilp(&sc);
        let chain_positions: usize = sc.requests.iter().map(|r| r.len()).sum();
        // x: |services|·|V|; y: Σ positions·|V|; z: extra.
        assert!(art.num_vars >= art.services.len() * 3 + chain_positions * 3);
        assert!(art.num_constraints > 0);
        assert_eq!(art.y_vars.len(), sc.users());
    }

    #[test]
    fn ilp_optimum_is_feasible_and_evaluates_consistently() {
        let sc = tiny(2, 3, 4);
        let (placement, sol) = solve_ilp(&sc, &MilpOptions::default()).expect("solved");
        assert_eq!(sol.status, MilpStatus::Optimal);
        let ev = evaluate(&sc, &placement);
        assert_eq!(ev.cloud_fallbacks, 0);
        // The MILP objective equals the model evaluation: same placement,
        // and DP routing achieves exactly the MILP's y/z cost.
        assert!(
            (sol.objective - ev.objective).abs() < 1e-4,
            "milp {} vs evaluate {}",
            sol.objective,
            ev.objective
        );
        // Constraints hold.
        assert!(placement.storage_feasible(&sc.catalog, &sc.net));
        assert!(ev.cost <= sc.budget + 1e-6);
    }

    #[test]
    fn ilp_beats_or_matches_naive_placements() {
        let sc = tiny(3, 3, 5);
        let (_, sol) = solve_ilp(&sc, &MilpOptions::default()).expect("solved");
        // Any specific covering placement is an upper bound.
        let mut naive = Placement::empty(sc.services(), sc.nodes());
        for m in sc.requested_services() {
            naive.set(m, NodeId(0), true);
        }
        if naive.storage_feasible(&sc.catalog, &sc.net) {
            let ev = evaluate(&sc, &naive);
            assert!(sol.objective <= ev.objective + 1e-6);
        }
    }

    #[test]
    fn tight_budget_makes_ilp_infeasible() {
        let mut sc = tiny(4, 3, 3);
        sc.budget = 0.0; // cannot deploy anything, yet Eq. 9 requires service
        let res = solve_ilp(&sc, &MilpOptions::default());
        assert!(res.is_none(), "zero budget must be infeasible");
    }
}
