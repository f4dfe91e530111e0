//! End-to-end tests of the `socl-lint` binary: the exit-code contract
//! (`0` clean / `1` violations / `2` internal error) and the `--json`
//! output shape, exercised against the committed mini-workspaces under
//! `tests/exitcases/`.
//!
//! CI and the dogfood test key off these codes, so they are interface, not
//! implementation detail.

use std::path::{Path, PathBuf};
use std::process::{Command, Output};

fn exitcase(name: &str) -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR"))
        .join("tests/exitcases")
        .join(name)
}

fn run_lint(args: &[&str]) -> Output {
    Command::new(env!("CARGO_BIN_EXE_socl-lint"))
        .args(args)
        .output()
        .expect("socl-lint binary runs")
}

fn check(root: &Path, extra: &[&str]) -> Output {
    let mut args = vec!["check", "--root", root.to_str().unwrap()];
    args.extend_from_slice(extra);
    run_lint(&args)
}

#[test]
fn clean_workspace_exits_zero() {
    let out = check(&exitcase("clean"), &[]);
    assert_eq!(out.status.code(), Some(0), "{out:?}");
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(stdout.contains("clean"), "{stdout}");
}

#[test]
fn violations_exit_one_with_stable_lines() {
    let out = check(&exitcase("violation"), &[]);
    assert_eq!(out.status.code(), Some(1), "{out:?}");
    let stdout = String::from_utf8_lossy(&out.stdout);
    // Stable `file:line:rule: message` lines; one diagnostic per site.
    assert_eq!(stdout.lines().count(), 1, "{stdout}");
    assert!(
        stdout.starts_with("crates/m/src/lib.rs:4:L2-panic-free:"),
        "{stdout}"
    );
}

#[test]
fn internal_errors_exit_two() {
    // A root that is not a workspace is the linter's own failure to run,
    // distinct from any verdict about the code: exit 2, message on stderr.
    let missing = exitcase("clean").join("crates"); // exists but has no crates/
    let out = check(&missing, &[]);
    assert_eq!(out.status.code(), Some(2), "{out:?}");
    assert!(out.stdout.is_empty(), "exit-2 must not fake a verdict");
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(stderr.contains("workspace root"), "{stderr}");
}

#[test]
fn unknown_arguments_exit_two() {
    let out = run_lint(&["check", "--frobnicate"]);
    assert_eq!(out.status.code(), Some(2), "{out:?}");
}

#[test]
fn json_mode_emits_parseable_records_on_stdout_only() {
    let out = check(&exitcase("violation"), &["--json"]);
    assert_eq!(out.status.code(), Some(1), "--json keeps the exit contract");
    let stdout = String::from_utf8_lossy(&out.stdout);
    let trimmed = stdout.trim();
    assert!(
        trimmed.starts_with('[') && trimmed.ends_with(']'),
        "{stdout}"
    );
    // One record per diagnostic with the four promised keys.
    assert_eq!(trimmed.matches("\"file\":").count(), 1, "{stdout}");
    assert_eq!(trimmed.matches("\"line\":").count(), 1, "{stdout}");
    assert_eq!(trimmed.matches("\"rule\":").count(), 1, "{stdout}");
    assert_eq!(trimmed.matches("\"message\":").count(), 1, "{stdout}");
    assert!(trimmed.contains("\"rule\": \"L2-panic-free\""), "{stdout}");
    // The human summary stays on stderr so stdout is pure JSON.
    assert!(!stdout.contains("violation(s)"), "{stdout}");
}

#[test]
fn json_mode_on_clean_workspace_is_an_empty_array() {
    let out = check(&exitcase("clean"), &["--json"]);
    assert_eq!(out.status.code(), Some(0), "{out:?}");
    assert_eq!(String::from_utf8_lossy(&out.stdout).trim(), "[]");
}

#[test]
fn stale_waivers_mode_keeps_the_exit_contract() {
    // A dead waiver is a violation in audit mode only: plain `check`
    // exits 0 on the same tree.
    let root = exitcase("stale_waiver");
    let plain = check(&root, &[]);
    assert_eq!(plain.status.code(), Some(0), "{plain:?}");
    let audit = check(&root, &["--stale-waivers"]);
    assert_eq!(audit.status.code(), Some(1), "{audit:?}");
    let stdout = String::from_utf8_lossy(&audit.stdout);
    assert!(
        stdout.contains("crates/m/src/lib.rs:6:W0-stale-waiver:"),
        "{stdout}"
    );
    // A tree with only load-bearing waivers audits clean.
    let clean = check(&exitcase("clean"), &["--stale-waivers"]);
    assert_eq!(clean.status.code(), Some(0), "{clean:?}");
    // The audit honors --json like the ordinary check.
    let json = check(&root, &["--stale-waivers", "--json"]);
    assert_eq!(json.status.code(), Some(1), "{json:?}");
    let stdout = String::from_utf8_lossy(&json.stdout);
    assert!(stdout.contains("\"rule\": \"W0-stale-waiver\""), "{stdout}");
}
