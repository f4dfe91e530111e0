//! Fixture-driven contract tests for the linter.
//!
//! Each fixture under `tests/fixtures/` is a deliberately violating (or
//! deliberately clean) source file; these tests pin the *exact* diagnostics
//! — rule id and 1-based line — the engine must produce, so any change to
//! the detection logic shows up as a precise diff, not a count drift.

use socl_lint::engine::stale_waivers;
use socl_lint::{lint_source, lint_workspace, Diagnostic, FileKind, Rule};

/// Lint a fixture as library-kind code under a synthetic workspace path
/// (the fixtures' real path would classify as `Test` and be skipped).
fn lint_lib(name: &str, src: &str) -> Vec<(usize, Rule)> {
    let path = format!("crates/model/src/{name}");
    lint_source(&path, src, Some(FileKind::Lib))
        .into_iter()
        .map(|d| (d.line, d.rule))
        .collect()
}

#[test]
fn l1_float_comparisons_are_pinned() {
    let got = lint_lib("bad_l1.rs", include_str!("fixtures/bad_l1.rs"));
    assert_eq!(
        got,
        vec![
            (7, Rule::L1FloatCmp),   // .partial_cmp(
            (7, Rule::L1FloatCmp),   // unwrap_or(Ordering::Equal)
            (11, Rule::L1FloatCmp),  // .partial_cmp(
            (11, Rule::L2PanicFree), // .expect( on the same line
            (14, Rule::L1FloatCmp),  // bare f64 BinaryHeap key
        ]
    );
}

#[test]
fn l2_panic_family_is_pinned() {
    let got = lint_lib("bad_l2.rs", include_str!("fixtures/bad_l2.rs"));
    assert_eq!(
        got,
        vec![
            (3, Rule::L2PanicFree),  // .unwrap()
            (7, Rule::L2PanicFree),  // .expect(
            (11, Rule::L2PanicFree), // todo!
            (17, Rule::L2PanicFree), // unreachable!
        ]
    );
}

#[test]
fn l3_nondeterminism_is_pinned() {
    let got = lint_lib("bad_l3.rs", include_str!("fixtures/bad_l3.rs"));
    assert_eq!(
        got,
        vec![
            (2, Rule::L3Hash), // use ... HashMap
            (6, Rule::L3Time), // Instant::now
            (7, Rule::L3Hash), // HashMap type + ctor: one diagnostic per line
        ]
    );
}

/// The ambient-state needles (what the retired T1 pass alone knew) are
/// token-level: a private, never-called fn is flagged like a `pub` one,
/// one diagnostic per line, in library code outside the linter only.
#[test]
fn l3_env_fs_and_thread_identity_are_pinned() {
    let src = "use std::fs::read_to_string;\n\
               fn private_and_uncalled() -> usize {\n\
                   let _ = std::env::var_os(\"HOME\");\n\
                   let _ = std::fs::File::open(\"x\").or(std::fs::File::create(\"x\"));\n\
                   let _id: std::thread::ThreadId = std::thread::current().id();\n\
                   // LINT-ALLOW(L3-nondet-env): sizes the pool, never a result.\n\
                   std::thread::available_parallelism().map_or(1, |n| n.get())\n\
               }\n\
               #[cfg(test)]\n\
               mod tests {\n\
                   fn t() { std::fs::write(\"x\", \"y\").ok(); }\n\
               }\n";
    let got = lint_lib("ambient.rs", src);
    assert_eq!(
        got,
        vec![
            (1, Rule::L3Env), // the import names the primitive
            (3, Rule::L3Env), // env::var_os
            (4, Rule::L3Env), // File::open
            (4, Rule::L3Env), // File::create
            (5, Rule::L3Env), // thread::current
            (5, Rule::L3Env), // ThreadId
        ]
    );
    // Bins own their I/O, and the linter reads the workspace by design.
    for (path, kind) in [
        ("crates/cli/src/main.rs", FileKind::Bin),
        ("crates/lint/src/engine.rs", FileKind::Lib),
    ] {
        assert_eq!(lint_source(path, src, Some(kind)), Vec::new(), "{path}");
    }
}

#[test]
fn l4_unsafe_documentation_is_pinned() {
    let got = lint_lib("bad_l4.rs", include_str!("fixtures/bad_l4.rs"));
    // Line 3 has no SAFETY comment; line 10 is documented two lines above.
    assert_eq!(got, vec![(3, Rule::L4Safety)]);
}

#[test]
fn allowlist_semantics_are_pinned() {
    let src = include_str!("fixtures/allowlist.rs");
    let diags = lint_source("crates/model/src/allowlist.rs", src, Some(FileKind::Lib));
    let got: Vec<(usize, Rule)> = diags.iter().map(|d| (d.line, d.rule)).collect();
    assert_eq!(
        got,
        vec![
            (13, Rule::L2PanicFree), // LINT-ALLOW without a reason
            (18, Rule::L2PanicFree), // LINT-ALLOW for a different rule
            (24, Rule::L2PanicFree), // blank line detaches the waiver comment
        ]
    );
    // A reason-less waiver is reported *as* such, so the fix is obvious.
    assert!(
        diags[0].message.contains("missing a reason"),
        "{}",
        diags[0].message
    );
    // The other two are ordinary violations, not waiver complaints.
    assert!(!diags[1].message.contains("missing a reason"));
    assert!(!diags[2].message.contains("missing a reason"));
}

#[test]
fn clean_fixture_produces_no_diagnostics() {
    let got = lint_lib("clean.rs", include_str!("fixtures/clean.rs"));
    assert_eq!(got, Vec::new(), "clean fixture must lint clean");
}

#[test]
fn bin_kind_waives_l2_but_not_l1_l3() {
    // L2 (panic-freedom) applies to library code only; bins may unwrap.
    let l2 = lint_source(
        "crates/cli/src/main.rs",
        include_str!("fixtures/bad_l2.rs"),
        Some(FileKind::Bin),
    );
    assert_eq!(l2, Vec::new());
    // L1 and L3 still apply to bins.
    let l1 = lint_source(
        "crates/cli/src/main.rs",
        include_str!("fixtures/bad_l1.rs"),
        Some(FileKind::Bin),
    );
    let rules: Vec<Rule> = l1.iter().map(|d| d.rule).collect();
    assert_eq!(
        rules,
        vec![
            Rule::L1FloatCmp,
            Rule::L1FloatCmp,
            Rule::L1FloatCmp,
            Rule::L1FloatCmp
        ]
    );
    let l3 = lint_source(
        "crates/cli/src/main.rs",
        include_str!("fixtures/bad_l3.rs"),
        Some(FileKind::Bin),
    );
    assert_eq!(l3.len(), 3);
}

#[test]
fn test_kind_is_fully_exempt() {
    for src in [
        include_str!("fixtures/bad_l1.rs"),
        include_str!("fixtures/bad_l2.rs"),
        include_str!("fixtures/bad_l3.rs"),
        include_str!("fixtures/bad_l4.rs"),
    ] {
        let got = lint_source("crates/model/src/x.rs", src, Some(FileKind::Test));
        assert_eq!(got, Vec::new());
    }
}

#[test]
fn bench_crate_is_exempt_from_wall_clock_rule() {
    // crates/bench owns timing by design; L3-nondet-time does not apply
    // there, but the hash-order rule still does.
    let got = lint_source(
        "crates/bench/src/lib.rs",
        include_str!("fixtures/bad_l3.rs"),
        Some(FileKind::Lib),
    );
    let rules: Vec<(usize, Rule)> = got.into_iter().map(|d| (d.line, d.rule)).collect();
    assert_eq!(rules, vec![(2, Rule::L3Hash), (7, Rule::L3Hash)]);
}

#[test]
fn diagnostic_display_format_is_stable() {
    let d = Diagnostic {
        file: "crates/model/src/stats.rs".to_string(),
        line: 42,
        rule: Rule::L1FloatCmp,
        message: "raw `partial_cmp` call".to_string(),
    };
    // `file:line:rule: message` — machine-parseable, promised by DESIGN.md.
    assert_eq!(
        d.to_string(),
        "crates/model/src/stats.rs:42:L1-float-cmp: raw `partial_cmp` call"
    );
}

#[test]
fn workspace_dogfood_is_clean() {
    // The repository itself must satisfy its own invariants — every pass.
    // Integration tests run with the package directory (or workspace root)
    // as cwd; walk upward to the workspace root either way.
    let cwd = std::env::current_dir().expect("cwd");
    let root = socl_lint::find_workspace_root(&cwd).expect("workspace root not found");
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
}

#[test]
fn stale_waiver_audit_separates_live_from_dead() {
    let live = "pub fn f(x: Option<u32>) -> u32 {\n    \
                // LINT-ALLOW(L2-panic-free): fixture — always Some here.\n    \
                x.unwrap()\n}\n";
    let dead = "pub fn g(x: u32) -> u32 {\n    \
                // LINT-ALLOW(L2-panic-free): nothing on the next line panics.\n    \
                x + 1\n}\n";
    let files = vec![
        ("crates/model/src/w1.rs".to_string(), live.to_string()),
        ("crates/model/src/w2.rs".to_string(), dead.to_string()),
    ];
    let diags = stale_waivers(&files);
    let got: Vec<(usize, Rule)> = diags.iter().map(|d| (d.line, d.rule)).collect();
    assert_eq!(got, vec![(2, Rule::W0StaleWaiver)], "{diags:#?}");
    assert_eq!(diags[0].file, "crates/model/src/w2.rs");
    assert!(diags[0].message.contains("stale"), "{}", diags[0].message);
}

#[test]
fn stale_waiver_audit_skips_tests_and_the_linter_itself() {
    let dead = "pub fn g(x: u32) -> u32 {\n    \
                // LINT-ALLOW(L2-panic-free): dead waiver.\n    \
                x + 1\n}\n";
    for path in ["crates/model/tests/t.rs", "crates/lint/src/x.rs"] {
        let files = vec![(path.to_string(), dead.to_string())];
        assert_eq!(
            stale_waivers(&files),
            Vec::new(),
            "{path} must be exempt from the waiver audit"
        );
    }
}

#[test]
fn workspace_waivers_are_all_load_bearing() {
    // Every committed `LINT-ALLOW` marker must still suppress at least one
    // diagnostic; dead waivers hide future violations.
    let cwd = std::env::current_dir().expect("cwd");
    let root = socl_lint::find_workspace_root(&cwd).expect("workspace root not found");
    let stale = socl_lint::engine::stale_waivers_workspace(&root).expect("workspace walk failed");
    assert!(
        stale.is_empty(),
        "workspace has {} stale waiver(s):\n{}",
        stale.len(),
        stale
            .iter()
            .map(|d| d.to_string())
            .collect::<Vec<_>>()
            .join("\n")
    );
}
