//! X3-order-restore: parallel aggregation into a shared collection must
//! be **index-tagged** and **re-sorted** before the collection's contents
//! escape — the `Mutex<Vec<(usize, Vec<T>)>>` + `sort_by_key` idiom of
//! `socl_net::par` and `socl_serve`'s shard buckets.
//!
//! Workers finish in scheduler order. A bare `guard.push(value)` from a
//! dispatched closure therefore produces a permutation that varies run to
//! run — a determinism hole the L3 rules cannot see, because no
//! nondeterminism *source* (clock, RNG, hash order) is named; the scheduler
//! itself is the source. Two findings close it:
//!
//! * an **untagged aggregation**: a dispatched closure pushes plain values
//!   (not `(index, value)` tuples) into a captured, locked collection;
//! * a **missing re-sort**: the aggregation is index-tagged, but no
//!   `sort*`/`sort_by_key` on the same collection follows the dispatch in
//!   the dispatching function — tags nobody sorts by restore nothing.
//!
//! `extend`/`append` count as tagged (they splice whole runs whose
//! internal order the producing worker fixed); the tag discipline then
//! lives on whatever produced the runs.
//!
//! Waivers: `LINT-ALLOW(X3-order-restore)` on the aggregation line (for
//! untagged pushes) or the dispatch line (for missing re-sorts).

use crate::engine::{Diagnostic, Rule};
use crate::parser::SyncKind;
use crate::reach::Ctx;
use std::collections::BTreeSet;

/// Run the X3 pass over the graph in `cx`.
pub fn check(cx: &Ctx) -> Vec<Diagnostic> {
    const X3: Rule = Rule::X3OrderRestore;
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
                    if !cap.locked || cap.aggregates.is_empty() {
                        continue;
                    }
                    let mut any_tagged = false;
                    for agg in &cap.aggregates {
                        if agg.tagged {
                            any_tagged = true;
                            continue;
                        }
                        if cx.waived(&node.file, agg.line, X3)
                            || !emitted.insert((node.file.clone(), agg.line, cap.name.clone()))
                        {
                            continue;
                        }
                        out.push(Diagnostic {
                            file: node.file.clone(),
                            line: agg.line,
                            rule: X3,
                            message: format!(
                                "untagged parallel aggregation: closure dispatched \
                                 via `{}` (line {}) pushes plain values into `{}` — \
                                 completion order is scheduler-dependent; push \
                                 `(index, value)` tuples and `sort_by_key` the \
                                 collection after the dispatch, or justify with \
                                 `LINT-ALLOW({})`",
                                s.what,
                                s.line,
                                cap.name,
                                X3.id()
                            ),
                        });
                    }
                    // Tagged pushes need a deterministic re-sort on the same
                    // collection after the dispatch, in this function.
                    if any_tagged {
                        let sorted = item.sync.iter().any(|t| {
                            t.kind == SyncKind::Sort && t.tok > s.tok && t.recv == cap.name
                        });
                        if sorted
                            || cx.waived(&node.file, s.line, X3)
                            || !emitted.insert((node.file.clone(), s.line, cap.name.clone()))
                        {
                            continue;
                        }
                        out.push(Diagnostic {
                            file: node.file.clone(),
                            line: s.line,
                            rule: X3,
                            message: format!(
                                "index-tagged aggregation into `{}` is never re-sorted \
                                 after the `{}` dispatch — tags nobody sorts by do not \
                                 restore order; `{}.sort_by_key(|(i, _)| *i)` before \
                                 the contents escape, or justify with \
                                 `LINT-ALLOW({})`",
                                cap.name,
                                s.what,
                                cap.name,
                                X3.id()
                            ),
                        });
                    }
                }
            }
        }
    }
    out
}
