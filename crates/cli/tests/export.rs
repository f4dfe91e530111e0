//! `socl export --solve` prints the scenario document and then the SoCL
//! placement document, run as the binary is run.

use std::process::Command;

#[test]
fn export_with_solve_prints_both_documents() {
    let out = Command::new(env!("CARGO_BIN_EXE_socl"))
        .args([
            "export", "--nodes", "4", "--users", "6", "--seed", "7", "--solve",
        ])
        .output()
        .expect("run socl");
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert_eq!(out.status.code(), Some(0), "stderr:\n{stderr}");
    let stdout = String::from_utf8(out.stdout).expect("utf-8 output");

    // Each document is a top-level object that opens with its first field.
    let docs: Vec<&str> = stdout.split_inclusive("\n}\n").collect();
    assert_eq!(docs.len(), 2, "two documents expected:\n{stdout}");
    assert!(docs[0].starts_with("{\n  \"version\": 1,\n"), "{}", docs[0]);
    assert!(docs[1].starts_with("{\n  \"services\": "), "{}", docs[1]);
}
