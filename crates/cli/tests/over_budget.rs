//! `socl compare` names, after its rows, every algorithm whose placement
//! costs more than `--budget`, run as the binary is run.

use std::process::Command;

/// The stdout of a successful `socl compare` at `budget`, or what failed.
fn compare(budget: &str) -> Result<String, String> {
    let out = Command::new(env!("CARGO_BIN_EXE_socl"))
        .args([
            "compare", "--nodes", "10", "--users", "160", "--seed", "3", "--budget", budget,
        ])
        .output()
        .map_err(|e| e.to_string())?;
    if out.status.code() != Some(0) {
        return Err(String::from_utf8_lossy(&out.stderr).into_owned());
    }
    String::from_utf8(out.stdout).map_err(|e| e.to_string())
}

/// Below the one-copy floor (4368.4 here) no algorithm fits the budget:
/// the rows keep their shape and one closing line names all four. At the
/// paper's budget every placement fits, and nothing more is printed.
#[test]
fn a_budget_below_the_floor_is_reported() {
    let stdout = compare("4000").unwrap();
    let lines: Vec<&str> = stdout.lines().collect();
    assert_eq!(
        lines.last(),
        Some(&"over budget 4000: SoCL, RP, JDR, GC-OG"),
        "{stdout}"
    );
    let socl = lines
        .iter()
        .find(|l| l.starts_with("SoCL "))
        .expect("SoCL row");
    assert!(socl.contains("  cost   4368.4  "), "{socl}");
    assert!(socl.ends_with(" fallbacks 0"), "{socl}");

    let stdout = compare("6000").unwrap();
    assert!(!stdout.contains("over budget"), "{stdout}");
}
