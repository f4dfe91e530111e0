//! X1-lock-discipline: static lock hygiene over the workspace.
//!
//! Three hazard shapes, all anchored on the parser's guard live ranges
//! (`let guard = m.lock()…;` → live from the end of the binding statement
//! to the enclosing block close / `drop(guard)` / body end):
//!
//! 1. **Second lock while a guard is live.** Nested acquisitions order
//!    locks implicitly; two call paths nesting in opposite orders deadlock.
//!    The deterministic pool makes this concrete: a worker blocked on a
//!    mutex the dispatcher holds never finishes its chunk.
//! 2. **Guard held across a call that dispatches to the pool or
//!    allocates in a loop** (transitively, via [`crate::conc`] with the
//!    PR 8 ambiguity gate). Dispatching with a lock held serializes the
//!    workers behind the critical section at best, deadlocks at worst;
//!    loop-allocating calls make the critical section long enough to
//!    matter. Direct `par_map*`/`.spawn` sites inside a guard range are
//!    flagged the same way.
//! 3. **Lock inside a sequential loop.** Reacquiring a mutex every
//!    iteration is contention by construction when the receiver is
//!    loop-invariant; hoist the guard above the loop. Locks inside
//!    closures are exempt — a worker closure locking per chunk is the
//!    sanctioned fine-grained pattern (X2/X3 audit those), a sequential
//!    loop locking per iteration is not.
//!
//! Waivers: `LINT-ALLOW(X1-lock-discipline)` on the diagnosis line (the
//! second lock, the call, the dispatch or the in-loop lock) suppresses
//! that finding — edge-barrier placement, like A1.

use crate::conc::Summaries;
use crate::engine::{Diagnostic, Rule};
use crate::parser::SyncKind;
use crate::reach::Ctx;
use std::collections::BTreeSet;

/// Run the X1 pass over the graph in `cx`.
pub fn check(cx: &Ctx, summ: &Summaries) -> Vec<Diagnostic> {
    const X1: Rule = Rule::X1LockDiscipline;
    let graph = cx.graph;
    let mut out = Vec::new();
    let mut emitted: BTreeSet<(String, usize)> = BTreeSet::new();
    for (ni, node) in graph.nodes.iter().enumerate() {
        let item = &node.item;
        let in_closure = |tok: usize| {
            item.closures
                .iter()
                .any(|c| tok >= c.body.0 && tok < c.body.1)
        };

        for g in &item.guards {
            let live = |tok: usize| tok > g.tok && tok < g.end_tok;

            // (1) Second acquisition while this guard is live.
            for s in &item.sync {
                if !matches!(s.kind, SyncKind::Lock | SyncKind::LockHelper) || !live(s.tok) {
                    continue;
                }
                if cx.waived(&node.file, s.line, X1) || !emitted.insert((node.file.clone(), s.line))
                {
                    continue;
                }
                out.push(Diagnostic {
                    file: node.file.clone(),
                    line: s.line,
                    rule: X1,
                    message: format!(
                        "second lock (`{}`) while guard `{}` over `{}` (line {}) is \
                         live — implicit lock order, deadlock hazard; drop or scope \
                         the first guard, or justify with `LINT-ALLOW({})`",
                        if s.recv.is_empty() {
                            s.what.clone()
                        } else {
                            s.recv.clone()
                        },
                        g.name,
                        g.recv,
                        g.line,
                        X1.id()
                    ),
                });
            }

            // (2a) Direct pool dispatch / spawn inside the guard range.
            for s in &item.sync {
                if !matches!(s.kind, SyncKind::Dispatch | SyncKind::Spawn) || !live(s.tok) {
                    continue;
                }
                if cx.waived(&node.file, s.line, X1) || !emitted.insert((node.file.clone(), s.line))
                {
                    continue;
                }
                out.push(Diagnostic {
                    file: node.file.clone(),
                    line: s.line,
                    rule: X1,
                    message: format!(
                        "pool dispatch `{}` while guard `{}` over `{}` (line {}) is \
                         live — workers serialize behind (or deadlock against) the \
                         held lock; release the guard before dispatching",
                        s.what, g.name, g.recv, g.line
                    ),
                });
            }

            // (2b) Calls made while the guard is live whose callee
            // transitively dispatches or allocates in a loop.
            for &ei in &graph.fwd[ni] {
                let e = &graph.edges[ei];
                if !live(e.tok) || cx.waived(&node.file, e.line, X1) {
                    continue;
                }
                let callee = &graph.nodes[e.to].item.qual;
                if summ.dispatches.has[e.to] && cx.trusted(e, &summ.dispatches.has) {
                    if emitted.insert((node.file.clone(), e.line)) {
                        out.push(Diagnostic {
                            file: node.file.clone(),
                            line: e.line,
                            rule: X1,
                            message: format!(
                                "call to `{callee}` dispatches to the pool ({}) while \
                                 guard `{}` over `{}` (line {}) is live; release the \
                                 guard first, or justify with `LINT-ALLOW({})`",
                                summ.dispatches.witness(cx, e.to),
                                g.name,
                                g.recv,
                                g.line,
                                X1.id()
                            ),
                        });
                    }
                } else if summ.loop_alloc.has[e.to]
                    && cx.trusted(e, &summ.loop_alloc.has)
                    && emitted.insert((node.file.clone(), e.line))
                {
                    out.push(Diagnostic {
                        file: node.file.clone(),
                        line: e.line,
                        rule: X1,
                        message: format!(
                            "call to `{callee}` allocates in a loop ({}) while guard \
                             `{}` over `{}` (line {}) is live — long critical \
                             section; move the work outside the guard, or justify \
                             with `LINT-ALLOW({})`",
                            summ.loop_alloc.witness(cx, e.to),
                            g.name,
                            g.recv,
                            g.line,
                            X1.id()
                        ),
                    });
                }
            }
        }

        // (3) Lock inside a sequential loop (closures exempt — per-chunk
        // locking inside dispatched workers is the sanctioned pattern).
        for s in &item.sync {
            if !matches!(s.kind, SyncKind::Lock | SyncKind::LockHelper)
                || s.loop_depth == 0
                || in_closure(s.tok)
            {
                continue;
            }
            if cx.waived(&node.file, s.line, X1) || !emitted.insert((node.file.clone(), s.line)) {
                continue;
            }
            out.push(Diagnostic {
                file: node.file.clone(),
                line: s.line,
                rule: X1,
                message: format!(
                    "lock acquired inside a loop (`{}`) — the mutex is reacquired \
                     every iteration; hoist the guard above the loop, or justify \
                     with `LINT-ALLOW({})`",
                    if s.recv.is_empty() {
                        s.what.clone()
                    } else {
                        s.recv.clone()
                    },
                    X1.id()
                ),
            });
        }
    }
    out
}
