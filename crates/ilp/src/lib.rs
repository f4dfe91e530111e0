//! # socl-ilp — the exact optimizer (Gurobi stand-in)
//!
//! The paper benchmarks SoCL against the optimal solution produced by Gurobi
//! on the ILP reformulation of Definition 4 (stated in prose in
//! `docs/ALGORITHMS.md`). This crate solves the same problem with
//! [`exact`], a specialized branch-and-bound over the deployment matrix
//! alone. For any fixed placement the optimal assignment decomposes per
//! request into a layered shortest-path DP (see `socl_model::routing`), so
//! the search only branches on `x(i,k)`, using an admissible bound built
//! from the relaxed placement (forced-1 ∪ free). The search is capped by a
//! count of expanded nodes, never by wall-clock time, so a capped result is
//! the same on every machine.
//!
//! This is the `OPT` of the Figure 2/7 harnesses, the golden snapshot and
//! `socl solve --algo opt`; its runtime grows exponentially with users and
//! nodes, reproducing the blow-up the paper reports for Gurobi. Its tests
//! check it against brute-force enumeration and assert Eqs. 4–6 on every
//! returned optimum.

pub mod exact;

pub use exact::{solve_exact, ExactOptions, ExactSolution};
