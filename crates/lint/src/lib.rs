//! # socl-lint — workspace invariant linter for the SoCL reproduction
//!
//! The workspace's determinism and numerical-safety contract (DESIGN.md,
//! "Enforced invariants") is enforced mechanically by this crate rather than
//! by prose. It is dependency-free and layered:
//!
//! 1. a small **lexer** strips comments/strings and masks `#[cfg(test)]`
//!    regions, then token-level checks run per line;
//! 2. an item-level **parser** + **call graph** resolve `fn`/`impl`/`use`
//!    items workspace-wide, and one reachability engine ([`reach`]) serves
//!    the passes that need it.
//!
//! | rule | contract |
//! |------|----------|
//! | `L1-float-cmp`  | no raw f64 comparisons (`partial_cmp`, NaN-collapsing `unwrap_or(Equal)`, bare `f64` `BinaryHeap` keys) outside the NaN-safe wrappers |
//! | `L2-panic-free` | no `unwrap`/`expect`/`panic!`-family in library code (bins, benches, tests exempt) |
//! | `L3-nondet-time`| no `Instant::now`/`SystemTime::now`/`thread_rng`/`from_entropy` outside `crates/bench` |
//! | `L3-nondet-hash`| no `HashMap`/`HashSet` in deterministic code |
//! | `L3-nondet-env` | no process environment (`env::var*`, `available_parallelism`), filesystem (`fs::*`, `File::open/create`) or thread identity in library code |
//! | `L4-unsafe-doc` | every `unsafe` carries a `// SAFETY:` comment |
//! | `T3-units`        | suffix-declared units (`_s`, `_gb`, `_gbps`, `_gflop`, …) combine dimensionally in the latency/objective arithmetic |
//! | `A1-hot-alloc`    | no allocation primitive executes inside a loop of a hot entry point (APSP builds, routing DP, online step, scaler tick, cache repair) |
//! | `X1-lock-discipline` | no second `.lock()` while a guard is live, no guard held across a pool dispatch or loop-allocating call, no lock inside a sequential loop |
//! | `X2-capture-disjoint` | closures dispatched to the pool share mutable state only through the index-tagged `Mutex` bucket or per-worker scratch patterns |
//! | `X3-order-restore` | parallel aggregation into a shared collection is index-tagged and re-sorted before the contents escape |
//! | `W0-stale-waiver` | (via `--stale-waivers`) every `LINT-ALLOW`/`LINT-HOT` marker still suppresses at least one diagnostic |
//! | `P0-parse`        | the item parser could structure the file (otherwise the call-graph passes are blind there — reported as a finding, not a crash) |
//!
//! The L rules are token-level on purpose: they flag *every* library
//! occurrence, whether or not a `pub` fn reaches it today. (Two earlier
//! interprocedural twins, T1-nondet-taint and T2-panic-reach, reported the
//! pub-reachable subset of the same lines and were retired; so was
//! C1-codec-coverage, whose mutants `tests/persistence.rs` kills.) The
//! call-graph passes report the *shortest call chain* from an entry point
//! to the offending site, so the diagnostic names the path to cut. Residual
//! uses that are genuinely sound carry an inline waiver the linter parses
//! and validates:
//!
//! ```text
//! // LINT-ALLOW(L2-panic-free): mutex poisoning is converted to a panic
//! // that std::thread::scope already propagates to the caller.
//! let guard = lock.lock().unwrap();
//! ```
//!
//! A waiver must name the rule (full id or the `L1`…`X3` shorthand) and give
//! a non-empty reason; a reason-less waiver is itself reported. For the
//! call-graph passes a waiver doubles as a **barrier**: at an allocation
//! line it un-seeds the site, at a call line it severs just that edge.
//!
//! Run as `cargo run -p socl-lint -- check [--json] [--passes
//! token,units,alloc,lock,capture,order] [--stale-waivers]`.
//! Diagnostics use the stable format `file:line:rule: message`; exit code
//! is `0` clean / `1` violations (including `P0-parse`) / `2` internal
//! error, so CI and editors can parse and gate on it. `--stale-waivers`
//! swaps the check for the waiver audit: each `LINT-ALLOW`/`LINT-HOT`
//! marker is masked in turn and re-linted; markers that change nothing are
//! reported as `W0-stale-waiver`.

pub mod alloc;
pub mod callgraph;
pub mod capture;
pub mod conc;
pub mod engine;
pub mod lexer;
pub mod lock;
pub mod parser;
pub mod reach;
pub mod reduction;
pub mod units;

pub use engine::{classify, lint_source, lint_workspace, Diagnostic, FileKind, Rule};

/// Find the workspace root: walk up from `start` to the first directory
/// containing both `Cargo.toml` and `crates/`.
pub fn find_workspace_root(start: &std::path::Path) -> Option<std::path::PathBuf> {
    let mut cur = Some(start.to_path_buf());
    while let Some(dir) = cur {
        if dir.join("Cargo.toml").is_file() && dir.join("crates").is_dir() {
            return Some(dir);
        }
        cur = dir.parent().map(|p| p.to_path_buf());
    }
    None
}
