//! Specialized exact branch-and-bound over the deployment matrix.
//!
//! Key structural fact: once the placement `x` is fixed, the optimal
//! assignment `y` decomposes per request into a layered shortest-path DP
//! (requests do not interact — capacity constraints bind only `x`). The
//! search therefore branches on individual `x(i,k)` bits:
//!
//! * **State** — each (requested service, node) pair is `Forced1`, `Forced0`
//!   or `Free`.
//! * **Bound** — `λ·cost(Forced1) + (1−λ)·scale·Σ_h DP(Forced1 ∪ Free)`:
//!   the relaxed placement treats free instances as deployed but unpaid,
//!   which can only under-estimate both terms ⇒ admissible.
//! * **Leaf shortcut** — if the relaxed routing only ever uses `Forced1`
//!   instances, setting every free bit to 0 is optimal for this subtree and
//!   the bound is exact; the node closes immediately.
//! * **Branching** — on the free pair most used by the relaxed routing,
//!   `x=1` child first (finds good incumbents early).
//! * **Feasibility** — budget (Eq. 5) and per-node storage (Eq. 6) prune
//!   `Forced1` sets; the per-request bound (Eq. 4) rejects candidate leaves.
//! * **Limit** — a count of expanded nodes (`ExactOptions::node_limit`),
//!   never wall-clock time, so a capped result is the same on every machine.
//!
//! Runtime grows exponentially with users and nodes — by design, this is the
//! behaviour of the paper's Gurobi baseline that Figures 2 and 7 measure.

use socl_model::{evaluate, Evaluation, Placement, Scenario, ServiceId};
use socl_net::time::Stopwatch;
use socl_net::NodeId;
use std::time::Duration;

/// Options for the exact search.
#[derive(Debug, Clone)]
pub struct ExactOptions {
    /// Cap on branch-and-bound nodes expanded. When it fires, the incumbent
    /// (if any) is returned with `proved_optimal = false` and the tree's
    /// greatest proved lower bound. A node count, not a clock, so the result
    /// is the same on every machine.
    pub node_limit: usize,
}

impl Default for ExactOptions {
    fn default() -> Self {
        Self {
            node_limit: 50_000_000,
        }
    }
}

/// Result of the exact search.
#[derive(Debug, Clone)]
pub struct ExactSolution {
    /// Best placement found (empty placement if none was feasible).
    pub placement: Placement,
    /// Evaluation of `placement` (routing, cost, objective).
    pub evaluation: Option<Evaluation>,
    /// Incumbent objective (`f64::INFINITY` when none found).
    pub objective: f64,
    /// Greatest lower bound proved for the whole tree.
    pub bound: f64,
    /// Branch-and-bound nodes expanded.
    pub nodes: usize,
    /// Wall-clock time spent.
    pub elapsed: Duration,
    /// True when the tree was exhausted (objective is the global optimum).
    pub proved_optimal: bool,
}

impl ExactSolution {
    /// Relative optimality gap of the incumbent.
    pub fn gap(&self) -> f64 {
        if self.objective.is_finite() {
            (self.objective - self.bound).max(0.0) / self.objective.abs().max(1.0)
        } else {
            f64::INFINITY
        }
    }
}

#[derive(Clone, Copy, PartialEq, Eq)]
enum Bit {
    Free,
    Forced0,
    Forced1,
}

struct Search<'a> {
    sc: &'a Scenario,
    services: Vec<ServiceId>,
    n: usize,
    node_limit: usize,
    nodes: usize,
    incumbent: f64,
    best: Option<(Placement, Evaluation)>,
    hit_limit: bool,
}

impl<'a> Search<'a> {
    fn pair_index(&self, s: usize, k: usize) -> usize {
        s * self.n + k
    }

    /// Placement where every non-Forced0 bit is set (the relaxation).
    fn relaxed_placement(&self, state: &[Bit]) -> Placement {
        let mut p = Placement::empty(self.sc.services(), self.sc.nodes());
        for (s, &svc) in self.services.iter().enumerate() {
            for k in 0..self.n {
                if state[self.pair_index(s, k)] != Bit::Forced0 {
                    p.set(svc, NodeId(k as u32), true);
                }
            }
        }
        p
    }

    /// Placement of only the Forced1 bits.
    fn forced_placement(&self, state: &[Bit]) -> Placement {
        let mut p = Placement::empty(self.sc.services(), self.sc.nodes());
        for (s, &svc) in self.services.iter().enumerate() {
            for k in 0..self.n {
                if state[self.pair_index(s, k)] == Bit::Forced1 {
                    p.set(svc, NodeId(k as u32), true);
                }
            }
        }
        p
    }

    /// Try to install a fully decided placement as the incumbent.
    fn offer(&mut self, placement: Placement) {
        if !placement.storage_feasible(&self.sc.catalog, &self.sc.net) {
            return;
        }
        let ev = evaluate(self.sc, &placement);
        if ev.cost > self.sc.budget + 1e-9 {
            return;
        }
        for (d, req) in ev.per_request.iter().zip(&self.sc.requests) {
            if *d > req.d_max + 1e-9 {
                return;
            }
        }
        if ev.objective < self.incumbent - 1e-9 {
            self.incumbent = ev.objective;
            self.best = Some((placement, ev));
        }
    }

    /// Depth-first search. Returns the proved lower bound for this subtree
    /// (≥ actual optimum of the subtree; INFINITY when pruned infeasible).
    fn dfs(&mut self, state: &mut Vec<Bit>) -> f64 {
        if self.nodes >= self.node_limit {
            self.hit_limit = true;
            // Unexplored: only the admissible bound is known.
            return self.lower_bound_only(state);
        }
        self.nodes += 1;

        // Feasibility of the forced part.
        let forced = self.forced_placement(state);
        let forced_cost = forced.deployment_cost(&self.sc.catalog);
        if forced_cost > self.sc.budget + 1e-9 {
            return f64::INFINITY;
        }
        if !forced.storage_feasible(&self.sc.catalog, &self.sc.net) {
            return f64::INFINITY;
        }

        // Relaxed bound.
        let relaxed = self.relaxed_placement(state);
        let ev_relaxed = evaluate(self.sc, &relaxed);
        let bound = self.sc.lambda * forced_cost
            + (1.0 - self.sc.lambda) * self.sc.latency_scale * ev_relaxed.total_latency;
        if bound >= self.incumbent - 1e-9 {
            return bound;
        }

        // Which free pairs does the relaxed routing actually use?
        let mut usage = vec![0usize; self.services.len() * self.n];
        let mut uses_free = false;
        for (h, req) in self.sc.requests.iter().enumerate() {
            if let Some(route) = ev_relaxed.assignment.route(h) {
                for (j, &node) in route.iter().enumerate() {
                    let svc = req.chain[j];
                    // Every routed service is in `services` by construction;
                    // skip defensively instead of panicking if not.
                    let Some(s) = self.services.iter().position(|&t| t == svc) else {
                        continue;
                    };
                    let idx = self.pair_index(s, node.idx());
                    if state[idx] == Bit::Free {
                        usage[idx] += 1;
                        uses_free = true;
                    }
                }
            }
        }

        if !uses_free {
            // Optimal completion for this subtree: drop every free bit.
            self.offer(forced);
            return bound;
        }

        // Branch on the most-used free pair. `uses_free` was set inside the
        // loop above, so a free pair exists; if that invariant ever breaks we
        // close the subtree like the `!uses_free` case instead of panicking.
        let Some((branch_idx, _)) = usage
            .iter()
            .enumerate()
            .filter(|&(i, _)| state[i] == Bit::Free)
            .max_by_key(|&(_, &u)| u)
        else {
            self.offer(forced);
            return bound;
        };

        // x = 1 child first.
        state[branch_idx] = Bit::Forced1;
        let b1 = self.dfs(state);
        state[branch_idx] = Bit::Forced0;
        let b0 = self.dfs(state);
        state[branch_idx] = Bit::Free;
        b1.min(b0).max(bound)
    }

    /// Bound of an unexplored subtree (used when the node limit fires).
    fn lower_bound_only(&self, state: &[Bit]) -> f64 {
        let forced = self.forced_placement(state);
        let forced_cost = forced.deployment_cost(&self.sc.catalog);
        if forced_cost > self.sc.budget + 1e-9 {
            return f64::INFINITY;
        }
        let relaxed = self.relaxed_placement(state);
        let ev = evaluate(self.sc, &relaxed);
        self.sc.lambda * forced_cost
            + (1.0 - self.sc.lambda) * self.sc.latency_scale * ev.total_latency
    }
}

/// The search's first incumbent: each requested service on its
/// highest-demand node (best-effort second copies are left to the search).
fn greedy_seed(sc: &Scenario, services: &[ServiceId]) -> Placement {
    let mut seed = Placement::empty(sc.services(), sc.nodes());
    for &svc in services {
        if let Some(best) = sc.net.node_ids().max_by_key(|&k| sc.demand(svc, k)) {
            seed.set(svc, best, true);
        }
    }
    seed
}

/// Solve `scenario` to proven optimality (or until the node limit fires).
///
/// ```
/// use socl_ilp::{solve_exact, ExactOptions};
/// use socl_model::ScenarioConfig;
///
/// let mut cfg = ScenarioConfig::paper(4, 6);
/// cfg.requests.chain_len = (2, 3);
/// let sc = cfg.build(5);
/// let opt = solve_exact(&sc, &ExactOptions::default());
/// assert!(opt.proved_optimal);
/// assert!(opt.gap() < 1e-9);
/// ```
pub fn solve_exact(sc: &Scenario, opts: &ExactOptions) -> ExactSolution {
    let start = Stopwatch::start();
    let services = sc.requested_services();
    let n = sc.nodes();
    let mut search = Search {
        sc,
        services: services.clone(),
        n,
        node_limit: opts.node_limit,
        nodes: 0,
        incumbent: f64::INFINITY,
        best: None,
        hit_limit: false,
    };

    // Pruning benefits enormously from any incumbent.
    search.offer(greedy_seed(sc, &services));

    let mut state = vec![Bit::Free; services.len() * n];
    let bound = search.dfs(&mut state);

    let proved_optimal = !search.hit_limit;
    let (placement, evaluation, objective) = match search.best {
        Some((p, e)) => {
            let obj = e.objective;
            (p, Some(e), obj)
        }
        None => (
            Placement::empty(sc.services(), sc.nodes()),
            None,
            f64::INFINITY,
        ),
    };
    ExactSolution {
        placement,
        evaluation,
        objective,
        bound: if proved_optimal { objective } else { bound },
        nodes: search.nodes,
        elapsed: start.elapsed(),
        proved_optimal,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use socl_model::ScenarioConfig;

    fn tiny(seed: u64, nodes: usize, users: usize) -> Scenario {
        let mut cfg = ScenarioConfig::paper(nodes, users);
        cfg.requests.chain_len = (2, 3);
        cfg.build(seed)
    }

    /// Brute-force over all placements of the requested services on a tiny
    /// instance (≤ 2^(s·n) ≈ 2^12 placements).
    fn brute_force(sc: &Scenario) -> f64 {
        let services = sc.requested_services();
        let n = sc.nodes();
        let bits = services.len() * n;
        assert!(bits <= 16, "instance too large for brute force");
        let mut best = f64::INFINITY;
        for mask in 0u32..(1 << bits) {
            let mut p = Placement::empty(sc.services(), sc.nodes());
            for (s, &svc) in services.iter().enumerate() {
                for k in 0..n {
                    if (mask >> (s * n + k)) & 1 == 1 {
                        p.set(svc, NodeId(k as u32), true);
                    }
                }
            }
            if !p.storage_feasible(&sc.catalog, &sc.net) {
                continue;
            }
            let ev = evaluate(sc, &p);
            if ev.cost > sc.budget + 1e-9 {
                continue;
            }
            if ev
                .per_request
                .iter()
                .zip(&sc.requests)
                .any(|(d, r)| *d > r.d_max + 1e-9)
            {
                continue;
            }
            best = best.min(ev.objective);
        }
        best
    }

    /// A scenario small enough for brute force: restrict to 2 services.
    fn micro(seed: u64) -> Scenario {
        use socl_model::dataset::linear_dataset;
        let ds = linear_dataset(2);
        let mut cfg = ScenarioConfig::paper(3, 4);
        cfg.requests.chain_len = (1, 2);
        cfg.build_with_dataset(&ds, seed)
    }

    #[test]
    fn exact_matches_brute_force() {
        for seed in 0..6 {
            let sc = micro(seed);
            let sol = solve_exact(&sc, &ExactOptions::default());
            assert!(sol.proved_optimal, "seed {seed} did not prove optimality");
            let bf = brute_force(&sc);
            assert!(
                (sol.objective - bf).abs() < 1e-6,
                "seed {seed}: exact {} vs brute force {}",
                sol.objective,
                bf
            );
        }
        // Eq. 4 binds: cap the slowest request just below its latency in the
        // unconstrained optimum, which forces a strictly costlier placement.
        for seed in [1, 6, 8] {
            let mut sc = micro(seed);
            for req in &mut sc.requests {
                req.d_max = f64::INFINITY;
            }
            let free = solve_exact(&sc, &ExactOptions::default());
            let ev = free.evaluation.as_ref().expect("has incumbent");
            let (slowest, &d) = ev
                .per_request
                .iter()
                .enumerate()
                .max_by(|a, b| a.1.total_cmp(b.1))
                .unwrap();
            sc.requests[slowest].d_max = 0.999 * d;
            let sol = solve_exact(&sc, &ExactOptions::default());
            assert!(
                sol.proved_optimal,
                "seed {seed} (Eq. 4 bound) did not prove"
            );
            let bf = brute_force(&sc);
            assert!(
                (sol.objective - bf).abs() < 1e-6,
                "seed {seed} (Eq. 4 bound): exact {} vs brute force {bf}",
                sol.objective
            );
            assert!(
                sol.objective > free.objective + 1e-6,
                "seed {seed}: Eq. 4 does not bind ({} vs unconstrained {})",
                sol.objective,
                free.objective
            );
        }
    }

    #[test]
    fn exact_optimum_satisfies_eqs_4_to_6() {
        // Paper instances: at the default cloud penalty no optimum falls back.
        let mut cases: Vec<(String, Scenario, bool)> = (0..4)
            .map(|s| (format!("seed {s}"), tiny(s, 3, 4), false))
            .chain([("seed 11".to_string(), tiny(11, 4, 6), false)])
            .collect();
        // Eq. 5 binds: the budget is just under the greedy seed's cost, the
        // cheapest placement that hosts every requested service, so the seed
        // must be rejected and the optimum leaves some service to the cloud.
        for seed in 20..28 {
            let mut sc = tiny(seed, 3, 4);
            for req in &mut sc.requests {
                req.d_max = f64::INFINITY;
            }
            sc.budget =
                greedy_seed(&sc, &sc.requested_services()).deployment_cost(&sc.catalog) - 1e-3;
            cases.push((format!("seed {seed}, budget below the seed"), sc, true));
        }
        for (what, sc, falls_back) in cases {
            let sol = solve_exact(&sc, &ExactOptions::default());
            assert!(sol.proved_optimal, "{what}: did not prove optimality");
            assert!(sol.gap() < 1e-9, "{what}: gap {}", sol.gap());
            let ev = sol.evaluation.as_ref().expect("has incumbent");
            assert!(
                sol.placement.storage_feasible(&sc.catalog, &sc.net),
                "{what}: storage (Eq. 6) overflows"
            );
            assert!(
                ev.cost <= sc.budget + 1e-9,
                "{what}: cost {} over budget {} (Eq. 5)",
                ev.cost,
                sc.budget
            );
            for (h, (d, req)) in ev.per_request.iter().zip(&sc.requests).enumerate() {
                assert!(
                    *d <= req.d_max + 1e-9,
                    "{what}: request {h} takes {d} > d_max {} (Eq. 4)",
                    req.d_max
                );
            }
            assert_eq!(
                ev.cloud_fallbacks > 0,
                falls_back,
                "{what}: cloud fallbacks"
            );
        }
    }

    #[test]
    fn node_limit_returns_incumbent_without_proof() {
        let sc = tiny(12, 5, 10);
        let sol = solve_exact(&sc, &ExactOptions { node_limit: 3 });
        assert!(!sol.proved_optimal);
        // Greedy seed guarantees an incumbent exists.
        assert!(sol.objective.is_finite());
        assert!(sol.bound <= sol.objective + 1e-9);
    }

    #[test]
    fn exact_never_worse_than_greedy_seed() {
        let sc = tiny(13, 4, 8);
        let sol = solve_exact(&sc, &ExactOptions::default());
        let ev_seed = evaluate(&sc, &greedy_seed(&sc, &sc.requested_services()));
        assert!(sol.objective <= ev_seed.objective + 1e-9);
    }

    #[test]
    fn runtime_grows_with_users() {
        // Shape check (the Figure 2 phenomenon): more users ⇒ more nodes
        // explored. Uses node counts rather than wall-clock for robustness.
        let small = solve_exact(&tiny(14, 4, 4), &ExactOptions::default());
        let large = solve_exact(&tiny(14, 4, 12), &ExactOptions::default());
        assert!(
            large.nodes >= small.nodes,
            "expected monotone node growth: {} vs {}",
            small.nodes,
            large.nodes
        );
    }
}
