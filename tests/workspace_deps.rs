//! The workspace's registry dependencies are a closed set. ROADMAP's north
//! star: "a dependency … that cannot point to the test or number that needs
//! it goes" — `rand`/`rand_chacha` are the seeded streams every pinned value
//! and checkpoint rests on, `proptest` drives the property suites. Adding a
//! fourth means editing this test and saying what needs it.

use std::collections::BTreeSet;
use std::fs;
use std::path::Path;

const REGISTRY: [&str; 3] = ["proptest", "rand", "rand_chacha"];

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
            // `rand.workspace = true` and `rand = { … }` both name `rand`.
            let name = key.trim().split('.').next().unwrap_or_default();
            out.push((name.to_string(), value.contains("path")));
        }
    }
    out
}

#[test]
fn registry_dependencies_are_exactly_rand_rand_chacha_proptest() {
    let root = Path::new(env!("CARGO_MANIFEST_DIR")).join("../..");
    let read = |p: &Path| fs::read_to_string(p).unwrap_or_else(|e| panic!("{}: {e}", p.display()));

    let workspace = deps(&read(&root.join("Cargo.toml")), |t| {
        t == "workspace.dependencies"
    });
    let (local, registry): (Vec<_>, Vec<_>) = workspace.into_iter().partition(|(_, path)| *path);
    let registry: BTreeSet<String> = registry.into_iter().map(|(name, _)| name).collect();
    assert_eq!(registry, REGISTRY.map(String::from).into());
    assert!(!local.is_empty(), "member crates are path entries");

    let known: BTreeSet<String> = local
        .into_iter()
        .map(|(name, _)| name)
        .chain(registry)
        .collect();
    let mut crates = 0;
    for dir in fs::read_dir(root.join("crates")).expect("crates/") {
        let manifest = dir.expect("dir entry").path().join("Cargo.toml");
        let named = deps(&read(&manifest), |t| t.ends_with("dependencies"));
        for (name, path) in named {
            assert!(
                path || known.contains(&name),
                "{}: `{name}` is neither a workspace crate nor one of {REGISTRY:?}",
                manifest.display()
            );
        }
        crates += 1;
    }
    assert!(crates >= 14, "walked {crates} crate manifests");
}
