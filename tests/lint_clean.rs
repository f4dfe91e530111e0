//! Repository-level dogfood test: the SoCL workspace must satisfy its own
//! linter — the token rules, the units-of-measure pass and the call-graph
//! pass (hot-loop allocation).
//!
//! The per-crate `workspace_dogfood_is_clean` test inside `socl-lint` covers
//! the same ground when that crate's tests run; this copy lives in the
//! facade crate's suite so `cargo test -p socl` — the tier-1 gate — fails
//! on a lint regression even if the lint crate's own tests are skipped.

use socl_lint::engine::{lint_workspace_passes, render_json, Passes};
use socl_lint::find_workspace_root;

#[test]
fn workspace_passes_its_own_linter() {
    let cwd = std::env::current_dir().expect("cwd");
    let root = find_workspace_root(&cwd).expect("workspace root not found");
    let diags = lint_workspace_passes(&root, &Passes::default()).expect("workspace walk failed");
    assert!(
        diags.is_empty(),
        "workspace has {} violation(s):\n{}",
        diags.len(),
        diags
            .iter()
            .map(|d| d.to_string())
            .collect::<Vec<_>>()
            .join("\n")
    );
    // The machine-readable payload `socl-lint --json` would print for this
    // run: a clean workspace is exactly the empty array, so JSON consumers
    // (the CI gate) never need a special case.
    assert_eq!(render_json(&diags), "[]");
}

#[test]
fn every_pass_is_individually_clean() {
    // Run each pass alone so a failure names the responsible analysis
    // instead of burying it in a combined report.
    let cwd = std::env::current_dir().expect("cwd");
    let root = find_workspace_root(&cwd).expect("workspace root not found");
    for sel in ["token", "units", "alloc"] {
        let passes = Passes::from_list(sel).expect("pass list parses");
        let diags = lint_workspace_passes(&root, &passes).expect("workspace walk failed");
        assert!(
            diags.is_empty(),
            "pass `{sel}` reports {} violation(s):\n{}",
            diags.len(),
            diags
                .iter()
                .map(|d| d.to_string())
                .collect::<Vec<_>>()
                .join("\n")
        );
    }
}
