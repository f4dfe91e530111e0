//! Property tests: the simplex and branch-and-bound against brute force.

use crate::branch_bound::{solve_milp, MilpOptions, MilpStatus};
use crate::model::{Model, Relation, VarId};
use crate::simplex::{solve_lp, LpStatus};
use socl_net::rng::{cases, ChaCha12Rng};

/// A random binary program with n ≤ 10 variables and a few knapsack-style
/// rows, solvable by brute force.
struct BinaryProgram {
    n: usize,
    obj: Vec<f64>,
    rows: Vec<(Vec<f64>, f64)>, // Σ aᵢxᵢ ≤ b
}

/// Runs `check` on 96 seeded programs and their models.
fn for_programs(check: impl Fn(&BinaryProgram, &Model, &[VarId])) {
    cases(96, |rng| {
        let (n, m) = (rng.gen_range(2usize..=9), rng.gen_range(1usize..=3));
        let obj = (0..n).map(|_| rng.gen_range(-10.0..10.0)).collect();
        let row = |rng: &mut ChaCha12Rng| (0..n).map(|_| rng.gen_range(0.0..5.0)).collect();
        let rows = (0..m)
            .map(|_| (row(rng), rng.gen_range(2.0..12.0)))
            .collect();
        let bp = BinaryProgram { n, obj, rows };
        let (model, vars) = bp.to_model();
        check(&bp, &model, &vars);
    });
}

impl BinaryProgram {
    fn to_model(&self) -> (Model, Vec<VarId>) {
        let mut m = Model::new();
        let vars: Vec<VarId> = self.obj.iter().map(|&c| m.add_binary(c)).collect();
        for (coeffs, b) in &self.rows {
            m.add_constraint(
                vars.iter().zip(coeffs).map(|(&v, &a)| (v, a)),
                Relation::Le,
                *b,
            );
        }
        (m, vars)
    }

    /// Brute-force optimum over all 2^n assignments (always feasible:
    /// all-zero satisfies every row since a ≥ 0 and b > 0).
    fn brute_force(&self) -> f64 {
        let mut best = f64::INFINITY;
        for mask in 0u32..(1 << self.n) {
            let x: Vec<f64> = (0..self.n).map(|i| ((mask >> i) & 1) as f64).collect();
            let ok = self.rows.iter().all(|(coeffs, b)| {
                coeffs.iter().zip(&x).map(|(a, xi)| a * xi).sum::<f64>() <= *b + 1e-9
            });
            if ok {
                let obj: f64 = self.obj.iter().zip(&x).map(|(c, xi)| c * xi).sum();
                best = best.min(obj);
            }
        }
        best
    }
}

/// Branch-and-bound matches exhaustive enumeration on binary programs.
#[test]
fn milp_matches_brute_force() {
    for_programs(|bp, m, _| {
        let sol = solve_milp(m, &MilpOptions::default());
        assert_eq!(sol.status, MilpStatus::Optimal);
        let (bb, exact) = (sol.objective, bp.brute_force());
        assert!((bb - exact).abs() < 1e-5, "bb {bb} vs brute {exact}");
        assert!(m.is_feasible(&sol.values, 1e-6));
    });
}

/// The LP relaxation lower-bounds the ILP optimum.
#[test]
fn lp_bounds_ilp() {
    for_programs(|bp, m, _| {
        let lp = solve_lp(m);
        assert_eq!(lp.status, LpStatus::Optimal);
        let (lp, exact) = (lp.objective, bp.brute_force());
        assert!(
            lp <= exact + 1e-6,
            "relaxation {lp} above integer optimum {exact}"
        );
    });
}

/// The simplex solution satisfies all constraints and bounds.
#[test]
fn lp_solution_feasible() {
    for_programs(|bp, m, _| {
        let lp = solve_lp(m);
        assert_eq!(lp.status, LpStatus::Optimal);
        // Feasible ignoring integrality: check rows and [0,1] box manually.
        for (v, &x) in lp.values.iter().enumerate() {
            assert!((-1e-6..=1.0 + 1e-6).contains(&x), "var {v} = {x}");
        }
        for (coeffs, b) in &bp.rows {
            let lhs: f64 = coeffs.iter().zip(&lp.values).map(|(a, x)| a * x).sum();
            assert!(lhs <= b + 1e-6);
        }
    });
}

/// Solving twice gives identical results (determinism).
#[test]
fn deterministic() {
    for_programs(|_, m, _| {
        let a = solve_milp(m, &MilpOptions::default());
        let b = solve_milp(m, &MilpOptions::default());
        assert_eq!(a.status, b.status);
        assert_eq!(a.objective, b.objective);
        assert_eq!(a.nodes, b.nodes);
    });
}

/// Presolve never changes the proven optimum.
#[test]
fn presolve_is_transparent() {
    for_programs(|_, m, _| {
        let mut options = MilpOptions::default();
        let with = solve_milp(m, &options);
        options.presolve = false;
        let without = solve_milp(m, &options);
        assert_eq!(with.status, without.status);
        if with.status == MilpStatus::Optimal {
            let (a, b) = (with.objective, without.objective);
            assert!(
                (a - b).abs() < 1e-6,
                "presolve changed the optimum: {a} vs {b}"
            );
        }
    });
}

/// Adding a redundant constraint never changes the optimum.
#[test]
fn redundant_row_invariance() {
    for_programs(|bp, m, vars| {
        let base = solve_milp(m, &MilpOptions::default());
        let mut m2 = m.clone();
        // Σ xᵢ ≤ n is implied by binarity.
        m2.add_constraint(vars.iter().map(|&v| (v, 1.0)), Relation::Le, bp.n as f64);
        let with = solve_milp(&m2, &MilpOptions::default());
        assert!((base.objective - with.objective).abs() < 1e-6);
    });
}

/// Equality-constrained integer program cross-check: exact cover style.
#[test]
fn equality_cover() {
    // Choose exactly 2 of 4 items minimizing cost, with item pair conflicts.
    let mut m = Model::new();
    let costs = [5.0, 3.0, 4.0, 6.0];
    let vars: Vec<VarId> = costs.iter().map(|&c| m.add_binary(c)).collect();
    m.add_constraint(vars.iter().map(|&v| (v, 1.0)), Relation::Eq, 2.0);
    // items 1 and 2 conflict
    m.add_constraint([(vars[1], 1.0), (vars[2], 1.0)], Relation::Le, 1.0);
    let sol = solve_milp(&m, &MilpOptions::default());
    assert_eq!(sol.status, MilpStatus::Optimal);
    // Best: {1, 0} = 8? options: {0,1}=8, {0,2}=9, {0,3}=11, {1,3}=9, {2,3}=10.
    assert!((sol.objective - 8.0).abs() < 1e-6, "obj {}", sol.objective);
}

/// Timeout produces a limit status, not a wrong answer.
#[test]
fn time_limit_is_honored() {
    use std::time::Duration;
    // A 24-variable knapsack; with a zero time budget we must get a limit
    // status immediately.
    let mut m = Model::new();
    let vars: Vec<VarId> = (0..24)
        .map(|i| m.add_binary(-((i % 7 + 1) as f64)))
        .collect();
    m.add_constraint(
        vars.iter()
            .enumerate()
            .map(|(i, &v)| (v, ((i * 13) % 5 + 1) as f64)),
        Relation::Le,
        20.0,
    );
    let sol = solve_milp(
        &m,
        &MilpOptions {
            time_limit: Some(Duration::ZERO),
            ..MilpOptions::default()
        },
    );
    assert!(matches!(
        sol.status,
        MilpStatus::Limit | MilpStatus::FeasibleLimit
    ));
}
