//! X2-capture-disjoint: closures handed to the deterministic pool
//! (`par_map*` dispatch sites) or to scoped `.spawn(…)` may share mutable
//! state only through the sanctioned patterns:
//!
//! * the **index-tagged Mutex bucket** — capture a `Mutex`-wrapped
//!   collection, lock it (directly or via `lock_recover`), push
//!   `(index, value)` tuples (X3 audits the tag + re-sort discipline);
//! * **per-worker scratch** — `par_map_scratch_with` hands each worker its
//!   own scratch value, so the closure's mutable state is a parameter, not
//!   a capture.
//!
//! Everything else is a finding:
//!
//! * a captured identifier used mutably (`&mut` borrow, mutator method,
//!   assignment) — scoped threads make disjoint `&mut` captures compile,
//!   and the resulting write interleaving is scheduler-dependent;
//! * a captured identifier *called* inside the closure that resolves —
//!   via the call graph's bare-name union, gated like PR 8's A1 (every
//!   same-name candidate must misbehave) — to a function with interior
//!   mutability (it transitively takes a lock). The closure looks pure at
//!   the dispatch site while the callee serializes workers on hidden
//!   shared state; the diagnostic carries the capture site and the
//!   witness chain down to the lock.
//!
//! Waivers: `LINT-ALLOW(X2-capture-disjoint)` on the diagnosis line (the
//! mutating use, or the capture's first occurrence for the call-resolution
//! case).

use crate::conc::Summaries;
use crate::engine::{Diagnostic, Rule};
use crate::parser::SyncKind;
use crate::reach::Ctx;
use std::collections::BTreeSet;

/// Helpers a dispatched closure may always call: the never-panicking
/// guard helper is *how* the sanctioned bucket pattern locks, so its own
/// interior mutability is the point, not a finding.
const SANCTIONED_CALLS: [&str; 1] = ["lock_recover"];

/// Run the X2 pass over the graph in `cx`.
pub fn check(cx: &Ctx, summ: &Summaries) -> Vec<Diagnostic> {
    const X2: Rule = Rule::X2CaptureDisjoint;
    let graph = cx.graph;
    let mut out = Vec::new();
    let mut emitted: BTreeSet<(String, usize, String)> = BTreeSet::new();
    for node in graph.nodes.iter() {
        let item = &node.item;
        for s in &item.sync {
            if !matches!(s.kind, SyncKind::Dispatch | SyncKind::Spawn) {
                continue;
            }
            for &ci in &s.closures {
                let closure = &item.closures[ci];
                for cap in &closure.captures {
                    if SANCTIONED_CALLS.contains(&cap.name.as_str()) {
                        continue;
                    }
                    // A mutable use of a captured outer identifier.
                    if let Some((mline, desc)) = &cap.raw_mut {
                        if !cx.waived(&node.file, *mline, X2)
                            && emitted.insert((node.file.clone(), *mline, cap.name.clone()))
                        {
                            out.push(Diagnostic {
                                file: node.file.clone(),
                                line: *mline,
                                rule: X2,
                                message: format!(
                                    "closure dispatched via `{}` (line {}) mutates \
                                     captured `{}` ({desc}) — shared mutable capture \
                                     outside the index-tagged Mutex bucket / \
                                     per-worker scratch patterns; push index-tagged \
                                     values through a Mutex (and re-sort), return \
                                     values from the closure, or justify with \
                                     `LINT-ALLOW({})`",
                                    s.what,
                                    s.line,
                                    cap.name,
                                    X2.id()
                                ),
                            });
                        }
                        continue;
                    }
                    // A captured identifier called inside the closure that
                    // resolves to a fn with interior mutability. Gate: the
                    // bare-name union must be non-empty and unanimous.
                    if cap.called && !cap.locked {
                        let cands = graph.fns_named(&cap.name);
                        if cands.is_empty() || !cands.iter().all(|&k| summ.interior.has[k]) {
                            continue;
                        }
                        if cx.waived(&node.file, cap.line, X2)
                            || !emitted.insert((node.file.clone(), cap.line, cap.name.clone()))
                        {
                            continue;
                        }
                        let target = cands[0];
                        out.push(Diagnostic {
                            file: node.file.clone(),
                            line: cap.line,
                            rule: X2,
                            message: format!(
                                "captured `{}` is called inside a closure dispatched \
                                 via `{}` (line {}) and resolves to `{}`, which takes \
                                 a lock ({}) — hidden shared state serializes the \
                                 workers; hoist the locked work out of the closure, \
                                 or justify with `LINT-ALLOW({})`",
                                cap.name,
                                s.what,
                                s.line,
                                graph.nodes[target].item.qual,
                                summ.interior.witness(cx, target),
                                X2.id()
                            ),
                        });
                    }
                }
            }
        }
    }
    out
}
