//! Repository-level dogfood test: the SoCL workspace must satisfy its own
//! linter — the token rules and the units-of-measure pass.
//!
//! The per-crate `workspace_dogfood_is_clean` test inside `socl-lint` covers
//! the same ground when that crate's tests run; this copy lives in the
//! facade crate's suite so `cargo test -p socl` — the tier-1 gate — fails
//! on a lint regression even if the lint crate's own tests are skipped.

use socl_lint::engine::render_json;
use socl_lint::{find_workspace_root, lint_workspace};

#[test]
fn workspace_passes_its_own_linter() {
    let cwd = std::env::current_dir().expect("cwd");
    let root = find_workspace_root(&cwd).expect("workspace root not found");
    let diags = lint_workspace(&root).expect("workspace walk failed");
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
