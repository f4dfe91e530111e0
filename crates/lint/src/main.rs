//! `socl-lint` CLI.
//!
//! ```text
//! socl-lint check [--root <dir>] [--json]
//!                 [--passes token,units,alloc,lock,capture,order]
//!                 [--stale-waivers]
//!                                  lint the workspace (default command);
//!                                  with --stale-waivers, audit the
//!                                  LINT-ALLOW/LINT-HOT markers instead
//! socl-lint rules                  list rules with their rationale
//! ```
//!
//! Exit codes: `0` clean, `1` violations found (including `P0-parse`
//! structural parse failures), `2` internal error (unreadable files, bad
//! arguments, no workspace root). Diagnostics go to stdout, one per line, in
//! the stable `file:line:rule: message` format — or as a JSON array with
//! `--json` — and errors go to stderr.

use socl_lint::engine::{lint_workspace_passes, render_json, stale_waivers_workspace, Passes};
use socl_lint::{find_workspace_root, Rule};
use std::path::PathBuf;
use std::process::ExitCode;

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let mut cmd: Option<&str> = None;
    let mut root: Option<PathBuf> = None;
    let mut json = false;
    let mut stale = false;
    let mut passes = Passes::default();
    let mut i = 0;
    while i < args.len() {
        match args[i].as_str() {
            "check" | "rules" if cmd.is_none() => cmd = Some(args[i].as_str()),
            "--json" => json = true,
            "--stale-waivers" => stale = true,
            "--passes" => {
                i += 1;
                match args.get(i) {
                    Some(list) => match Passes::from_list(list) {
                        Ok(p) => passes = p,
                        Err(e) => {
                            eprintln!("socl-lint: --passes: {e}");
                            return ExitCode::from(2);
                        }
                    },
                    None => {
                        eprintln!(
                            "socl-lint: --passes requires a list \
                             (token,units,alloc,lock,capture,order)"
                        );
                        return ExitCode::from(2);
                    }
                }
            }
            "--root" => {
                i += 1;
                match args.get(i) {
                    Some(p) => root = Some(PathBuf::from(p)),
                    None => {
                        eprintln!("socl-lint: --root requires a path");
                        return ExitCode::from(2);
                    }
                }
            }
            other => {
                eprintln!("socl-lint: unknown argument `{other}` (try `check` or `rules`)");
                return ExitCode::from(2);
            }
        }
        i += 1;
    }

    match cmd.unwrap_or("check") {
        "rules" => {
            for r in Rule::ALL {
                println!("{}: {}", r.id(), r.rationale());
            }
            ExitCode::SUCCESS
        }
        _ => {
            let root = match root {
                Some(r) => r,
                None => {
                    let cwd = match std::env::current_dir() {
                        Ok(c) => c,
                        Err(e) => {
                            eprintln!("socl-lint: cannot determine cwd: {e}");
                            return ExitCode::from(2);
                        }
                    };
                    match find_workspace_root(&cwd) {
                        Some(r) => r,
                        None => {
                            eprintln!(
                                "socl-lint: no workspace root found above {} \
                                 (pass --root)",
                                cwd.display()
                            );
                            return ExitCode::from(2);
                        }
                    }
                }
            };
            let result = if stale {
                stale_waivers_workspace(&root, &passes)
            } else {
                lint_workspace_passes(&root, &passes)
            };
            match result {
                Ok(diags) => {
                    if json {
                        println!("{}", render_json(&diags));
                    } else if diags.is_empty() {
                        println!("socl-lint: clean");
                    } else {
                        for d in &diags {
                            println!("{d}");
                        }
                    }
                    if diags.is_empty() {
                        ExitCode::SUCCESS
                    } else {
                        eprintln!("socl-lint: {} violation(s)", diags.len());
                        ExitCode::from(1)
                    }
                }
                Err(e) => {
                    eprintln!("socl-lint: error: {e}");
                    ExitCode::from(2)
                }
            }
        }
    }
}
