//! Contract tests for the A1-hot-alloc pass (and the P0 finding every
//! call-graph pass carries) over in-memory mini-workspaces, pinning exact
//! `(rule, file, line)` triples and the rendered call chains / remediation
//! text. The chain is part of the linter's interface — it is what a
//! developer follows to decide where to hoist a buffer or place a waiver
//! barrier — so a resolution or summary change that reroutes, truncates, or
//! drops a diagnostic must fail here.

use socl_lint::engine::{lint_files, Passes};
use socl_lint::Rule;

fn alloc_only() -> Passes {
    Passes::from_list("alloc").expect("pass list parses")
}

fn files(pairs: &[(&str, &str)]) -> Vec<(String, String)> {
    pairs
        .iter()
        .map(|(p, s)| (p.to_string(), s.to_string()))
        .collect()
}

// ---------------------------------------------------------------- A1 ----

/// An allocation two hops below a `LINT-HOT(A1)` entry, reached through a
/// labeled `while let` loop (the P0-parse constructs), is reported at the
/// primitive with the full chain from the entry.
#[test]
fn a1_loop_chain_is_pinned() {
    let ws = files(&[(
        "crates/model/src/hotfix.rs",
        "// LINT-HOT(A1)\n\
         pub fn slot_step(mut jobs: Vec<usize>) -> usize {\n\
             let mut acc = 0;\n\
             'slots: while let Some(n) = jobs.pop() {\n\
                 if n == 0 {\n\
                     break 'slots;\n\
                 }\n\
                 acc += widen(n);\n\
             }\n\
             acc\n\
         }\n\
         fn widen(n: usize) -> usize {\n\
             let row = vec![0u8; n];\n\
             row.len()\n\
         }\n",
    )]);
    let diags = lint_files(&ws, &alloc_only());
    let a1: Vec<_> = diags
        .iter()
        .filter(|d| d.rule == Rule::A1HotAlloc)
        .collect();
    assert_eq!(a1.len(), 1, "diags: {diags:?}");
    assert_eq!(a1[0].file, "crates/model/src/hotfix.rs");
    assert_eq!(a1[0].line, 13, "expected the `vec![0u8; n]` line");
    assert!(
        a1[0]
            .message
            .contains("call chain: socl_model::hotfix::slot_step -> socl_model::hotfix::widen"),
        "chain text changed: {}",
        a1[0].message
    );
}

/// A looped call leaving the covered set is flagged *at the call line* with
/// the summary's witness — the opaque-boundary rule.
#[test]
fn a1_boundary_call_is_flagged_at_the_call_site() {
    let ws = files(&[
        (
            "crates/model/src/hotfix.rs",
            "use crate::helper_pool::make_row;\n\
             // LINT-HOT(A1)\n\
             pub fn sweep(n: usize) -> usize {\n\
                 let mut total = 1;\n\
                 while total < n {\n\
                     total += make_row(total).len();\n\
                 }\n\
                 total\n\
             }\n",
        ),
        (
            "crates/model/src/helper_pool.rs",
            "pub(crate) fn make_row(n: usize) -> Vec<u32> {\n\
                 (0..n as u32).collect()\n\
             }\n",
        ),
    ]);
    let diags = lint_files(&ws, &alloc_only());
    let a1: Vec<_> = diags
        .iter()
        .filter(|d| d.rule == Rule::A1HotAlloc)
        .collect();
    assert_eq!(a1.len(), 1, "diags: {diags:?}");
    assert_eq!(a1[0].file, "crates/model/src/hotfix.rs");
    assert_eq!(a1[0].line, 6, "expected the `make_row(total)` call line");
    assert!(
        a1[0]
            .message
            .contains("call to `socl_model::helper_pool::make_row` allocates"),
        "boundary message changed: {}",
        a1[0].message
    );
    assert!(
        a1[0].message.contains("`.collect()`"),
        "witness should name the concrete primitive: {}",
        a1[0].message
    );
}

/// A `LINT-ALLOW(A1-hot-alloc)` on the call line is an edge barrier: the
/// same workspace as above lints clean with the waiver in place.
#[test]
fn a1_waiver_is_an_edge_barrier() {
    let ws = files(&[
        (
            "crates/model/src/hotfix.rs",
            "use crate::helper_pool::make_row;\n\
             // LINT-HOT(A1)\n\
             pub fn sweep(n: usize) -> usize {\n\
                 let mut total = 1;\n\
                 while total < n {\n\
                     // LINT-ALLOW(A1-hot-alloc): rows are pooled upstream\n\
                     total += make_row(total).len();\n\
                 }\n\
                 total\n\
             }\n",
        ),
        (
            "crates/model/src/helper_pool.rs",
            "pub(crate) fn make_row(n: usize) -> Vec<u32> {\n\
                 (0..n as u32).collect()\n\
             }\n",
        ),
    ]);
    let diags = lint_files(&ws, &alloc_only());
    assert_eq!(diags, Vec::new(), "waived edge must sever the finding");
}

/// The ambiguity rule: a method call that resolves to a *name union* only
/// participates when every candidate allocates. One allocation-free
/// candidate kills the finding; making all candidates allocate restores it.
#[test]
fn a1_ambiguous_union_requires_all_candidates_to_allocate() {
    let hot = (
        "crates/model/src/hotreg.rs",
        "use crate::cachemap::CacheMap;\n\
         // LINT-HOT(A1)\n\
         pub fn hot_probe(table: &CacheMap, n: usize) -> usize {\n\
             let mut acc = 0;\n\
             for i in 0..n {\n\
                 acc += table.get(i);\n\
             }\n\
             acc\n\
         }\n",
    );
    let alloc_get = (
        "crates/model/src/cachemap.rs",
        "pub struct CacheMap {\n\
             rows: Vec<Vec<u32>>,\n\
         }\n\
         impl CacheMap {\n\
             pub fn get(&self, k: usize) -> usize {\n\
                 self.rows[k].to_vec().len()\n\
             }\n\
         }\n",
    );
    // A second same-name method that does NOT allocate makes the union
    // uncertain-and-mixed: no finding.
    let clean_get = (
        "crates/model/src/flatrow.rs",
        "pub struct FlatRow {\n\
             xs: Vec<u32>,\n\
         }\n\
         impl FlatRow {\n\
             pub fn get(&self, k: usize) -> usize {\n\
                 self.xs[k] as usize\n\
             }\n\
         }\n",
    );
    let mixed = files(&[hot, alloc_get, clean_get]);
    let diags = lint_files(&mixed, &alloc_only());
    assert_eq!(
        diags,
        Vec::new(),
        "a mixed name-union must not pin the allocating candidate"
    );

    // Same workspace, but the second candidate allocates too — now every
    // candidate of the site allocates and the looped call is a finding.
    let alloc_get2 = (
        "crates/model/src/flatrow.rs",
        "pub struct FlatRow {\n\
             xs: Vec<u32>,\n\
         }\n\
         impl FlatRow {\n\
             pub fn get(&self, k: usize) -> usize {\n\
                 self.xs.to_vec()[k] as usize\n\
             }\n\
         }\n",
    );
    let all_alloc = files(&[hot, alloc_get, alloc_get2]);
    let diags = lint_files(&all_alloc, &alloc_only());
    let a1: Vec<_> = diags
        .iter()
        .filter(|d| d.rule == Rule::A1HotAlloc)
        .collect();
    assert_eq!(a1.len(), 1, "diags: {diags:?}");
    assert_eq!(a1[0].file, "crates/model/src/hotreg.rs");
    assert_eq!(a1[0].line, 6, "expected the `table.get(i)` call line");
}

// ---------------------------------------------------------------- P0 ----

/// Structural parse failure surfaces as `P0-parse` (and blinds the
/// call-graph passes for that file, which the message says).
#[test]
fn parse_failure_is_reported_as_p0() {
    let ws = files(&[(
        "crates/model/src/broken.rs",
        "pub fn truncated() {\n    let x = 1;\n",
    )]);
    let diags = lint_files(&ws, &alloc_only());
    let p0: Vec<_> = diags.iter().filter(|d| d.rule == Rule::P0Parse).collect();
    assert_eq!(p0.len(), 1, "diags: {diags:?}");
    assert!(
        p0[0].message.contains("interprocedural passes cannot see"),
        "{}",
        p0[0].message
    );
}
