//! The workspace has no registry dependencies. ROADMAP's north star: "a
//! dependency … that cannot point to the test or number that needs it goes".
//! The last three went in PR 19: the random stream every pinned value and
//! checkpoint rests on is `socl_net::rng`, and the property suites run on its
//! case loop. `cargo build --offline --locked` is the standing proof; this
//! test says which line broke it. Adding a registry crate means editing this
//! test and saying what needs it.

use std::fs;
use std::path::Path;

/// `(name, is_path)` for every entry of the manifest tables whose header
/// satisfies `table`. Enough TOML for Cargo manifests written one dependency
/// per line, which these are.
fn deps(manifest: &str, table: impl Fn(&str) -> bool) -> Vec<(String, bool)> {
    let mut inside = false;
    let mut out = Vec::new();
    for line in manifest.lines().map(str::trim) {
        if let Some(header) = line.strip_prefix('[') {
            inside = table(header.trim_end_matches(']'));
        } else if inside && !line.is_empty() && !line.starts_with('#') {
            let (key, value) = line.split_once('=').expect("`key = value`");
            // `socl-net.workspace = true` and `socl-net = { … }` both name `socl-net`.
            let name = key.trim().split('.').next().unwrap_or_default();
            out.push((name.to_string(), value.contains("path")));
        }
    }
    out
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
    assert!(crates >= 14, "walked {crates} crate manifests");

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
