//! The workspace has no registry dependencies. ROADMAP's north star: "a
//! dependency … that cannot point to the test or number that needs it goes".
//! The last three went in PR 19: the random stream every pinned value and
//! checkpoint rests on is `socl_net::rng`, and the property suites run on its
//! case loop. `cargo build --offline --locked` is the standing proof; this
//! test says which line broke it. Adding a registry crate means editing this
//! test and saying what needs it.
//!
//! The manifests also decide which crates the lint contract covers: every
//! member inherits `[workspace.lints]`.

#![allow(clippy::expect_used, clippy::disallowed_methods, reason = "test code")]

use std::fs;
use std::path::Path;

/// `(key, value)` for every entry of the manifest tables whose header
/// satisfies `table`. Enough TOML for Cargo manifests written one entry per
/// line, which these are.
fn entries(manifest: &str, table: impl Fn(&str) -> bool) -> Vec<(String, String)> {
    let mut inside = false;
    let mut out = Vec::new();
    for line in manifest.lines().map(str::trim) {
        if let Some(header) = line.strip_prefix('[') {
            inside = table(header.trim_end_matches(']'));
        } else if inside && !line.is_empty() && !line.starts_with('#') {
            let (key, value) = line.split_once('=').expect("`key = value`");
            out.push((key.trim().to_string(), value.trim().to_string()));
        }
    }
    out
}

/// `(name, is_path)` for every dependency in the tables `table` selects.
fn deps(manifest: &str, table: impl Fn(&str) -> bool) -> Vec<(String, bool)> {
    entries(manifest, table)
        .into_iter()
        .map(|(key, value)| {
            // `socl-net.workspace = true` and `socl-net = { … }` both name `socl-net`.
            let name = key.split('.').next().unwrap_or_default();
            (name.to_string(), value.contains("path"))
        })
        .collect()
}

#[test]
fn every_dependency_is_a_workspace_path() {
    let root = Path::new(env!("CARGO_MANIFEST_DIR")).join("../..");
    let read = |p: &Path| fs::read_to_string(p).unwrap_or_else(|e| panic!("{}: {e}", p.display()));

    let root_manifest = read(&root.join("Cargo.toml"));
    assert!(
        !root_manifest
            .lines()
            .any(|l| l.trim().starts_with("[patch")),
        "a [patch] table would select another source for a dependency"
    );
    let workspace = deps(&root_manifest, |t| t == "workspace.dependencies");
    assert!(!workspace.is_empty(), "member crates are path entries");
    for (name, path) in &workspace {
        assert!(
            *path,
            "[workspace.dependencies] `{name}` is not a path entry"
        );
    }

    let mut crates = 0;
    for dir in fs::read_dir(root.join("crates")).expect("crates/") {
        let manifest = dir.expect("dir entry").path().join("Cargo.toml");
        for (name, path) in deps(&read(&manifest), |t| t.ends_with("dependencies")) {
            assert!(
                path || workspace.iter().any(|(known, _)| *known == name),
                "{}: `{name}` is not a workspace crate",
                manifest.display()
            );
        }
        crates += 1;
    }
    assert!(crates >= 12, "walked {crates} crate manifests");

    let lock = read(&root.join("Cargo.lock"));
    assert!(
        lock.contains("name = \"socl-net\""),
        "Cargo.lock lists the members"
    );
    assert!(
        !lock.lines().any(|l| l.trim().starts_with("source =")),
        "Cargo.lock names a registry package"
    );
}

/// clippy applies `[workspace.lints]` (and so the deny set DESIGN.md §6c
/// enforces) only to a crate whose manifest says `[lints] workspace = true`.
/// A crate that drops the line leaves the contract silently, so every member
/// must carry it. The one exception is `crates/bench`, whose figure binaries
/// declare their own `[lints.clippy]` table.
#[test]
fn every_crate_inherits_the_workspace_lints() {
    let root = Path::new(env!("CARGO_MANIFEST_DIR")).join("../..");
    let mut crates = 0;
    for dir in fs::read_dir(root.join("crates")).expect("crates/") {
        let dir = dir.expect("dir entry").path();
        let manifest = dir.join("Cargo.toml");
        let text = fs::read_to_string(&manifest).expect("Cargo.toml");
        let own_table = !entries(&text, |t| t == "lints.clippy").is_empty();
        let inherits = entries(&text, |t| t == "lints") == [("workspace".into(), "true".into())];
        assert!(
            inherits || (dir.ends_with("bench") && own_table),
            "{}: `[lints] workspace = true` is missing",
            manifest.display()
        );
        crates += 1;
    }
    assert!(crates >= 12, "walked {crates} crate manifests");
}
