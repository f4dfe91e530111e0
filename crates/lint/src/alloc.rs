//! A1-hot-alloc: interprocedural hot-loop allocation analysis.
//!
//! ROADMAP item 1 diagnoses why the parallel hot path loses: inner loops
//! allocate, so per-task overhead swamps the parallelism. This pass makes
//! that regression class statically visible. It combines three ingredients:
//!
//! 1. **Loop structure** from the parser: every call site and allocation
//!    primitive carries its syntactic loop depth (`for`/`while`/
//!    `while let`/`loop`, labeled or not).
//! 2. **A transitive "allocates" summary** over the workspace call graph:
//!    a function allocates if its body contains an allocation primitive
//!    (`Vec::new`, `vec![]`, `.collect()`, `.clone()`, `.to_vec()`,
//!    `format!`, `String::from`, `Box::new`, map `.insert`, …) or if it
//!    calls an allocating function. Each summary entry keeps a shortest
//!    *witness chain* down to the concrete primitive.
//! 3. **A hot-entry traversal**: starting from the hot entry points
//!    (APSP builds, the routing DP, the online per-slot step, the scaler
//!    tick, incremental cache repair — plus any fn marked `LINT-HOT(A1)`),
//!    walk forward through the [`COVERED_FILES`] with a two-state visit
//!    `(fn, in_loop)`: the context flips to *in-loop* when a call edge sits
//!    inside a loop. Any allocation that executes in loop context — a
//!    direct primitive at loop depth > 0, any primitive in a fn reached
//!    through a looped edge, or a looped call into an allocating
//!    *uncovered* fn — is a diagnostic with the shortest call chain from
//!    the entry.
//!
//! Coverage boundary: only fns in [`COVERED_FILES`] (or files containing a
//! `LINT-HOT` marker) are traversed and flagged. Calls that leave the
//! covered set are treated as opaque: they are flagged at the call line iff
//! the summary says the callee allocates and the edge is in loop context.
//! This keeps the finding surface reviewable — the hot files — while the
//! summary still sees the whole workspace.
//!
//! Ambiguity rule: a method call with an unknown receiver resolves to the
//! union of same-name workspace methods (see [`crate::callgraph`]). A1
//! goes through the ambiguity gate of [`crate::reach`]: an ambiguous call
//! site participates (in the summary and in the hot traversal) only when
//! **every** candidate allocates. A lint that pinned every `.get(i)`
//! slice read in a hot loop to the one allocating `get` method in the
//! workspace would drown the real findings in false positives.
//!
//! Deliberately out of scope: closures handed to `socl_net::par::par_map*`.
//! Each parallel task returns its output, so per-task output allocation is
//! the mechanism, not a defect; treating a par_map closure as a loop body
//! would flag every output row of the APSP build. Syntactic loops only.
//!
//! Waivers are barriers: `LINT-ALLOW(A1-hot-alloc)` at an allocation line
//! un-seeds that site (for both the direct check and the summary); at a
//! call line it severs that edge.

use crate::callgraph::Edge;
use crate::engine::{attached, Diagnostic, Rule};
use crate::lexer::LineView;
use crate::reach::Ctx;
use std::collections::BTreeSet;

/// Files whose fns are traversed and flagged (workspace-relative). A file
/// containing a `LINT-HOT` marker anywhere joins the set automatically —
/// that is the extension point the fixtures (and future hot files) use.
pub const COVERED_FILES: [&str; 5] = [
    "crates/net/src/paths.rs",
    "crates/net/src/incremental.rs",
    "crates/model/src/routing.rs",
    "crates/sim/src/online.rs",
    "crates/autoscale/src/scaler.rs",
];

/// Fully-qualified hot entry points: the per-slot / per-request / per-build
/// code whose loops dominate the benchmark's step time. Fns carrying a
/// `LINT-HOT(A1)` marker comment are entries too.
pub const HOT_ENTRIES: [&str; 9] = [
    "socl_net::paths::AllPairs::build",
    "socl_net::paths::AllPairs::build_serial",
    "socl_net::paths::AllPairs::build_with_threads",
    "socl_net::incremental::ApspCache::apply",
    "socl_model::routing::optimal_route",
    "socl_model::routing::greedy_route",
    "socl_model::routing::route_all",
    "socl_sim::online::OnlineSimulator::step",
    "socl_autoscale::scaler::Autoscaler::tick",
];

/// Is this file in the A1 traversal set?
fn covered(rel: &str, marker_files: &BTreeSet<String>) -> bool {
    let p = rel.replace('\\', "/");
    COVERED_FILES.contains(&p.as_str()) || marker_files.contains(&p)
}

/// Does the comment on `line` or the contiguous comment block above carry a
/// `LINT-HOT(A1)` marker? (Same attachment rule as `LINT-ALLOW`.)
fn hot_marked(views: &[LineView], line: usize) -> bool {
    let has = |c: &str| c.contains("LINT-HOT(A1)").then_some(());
    line >= 1 && attached(views, line - 1, has).is_some()
}

/// Run the A1 pass over the graph in `cx`.
pub fn check(files: &[(String, String)], cx: &Ctx) -> Vec<Diagnostic> {
    const A1: Rule = Rule::A1HotAlloc;
    let graph = cx.graph;
    let marker_files: BTreeSet<String> = files
        .iter()
        .filter(|(_, src)| src.contains("LINT-HOT"))
        .map(|(rel, _)| rel.replace('\\', "/"))
        .collect();

    // ---- Transitive "allocates" summary over the whole graph ----------
    // Seeded by each fn's first unwaived primitive; a waiver on a call
    // line vouches for that call (it does not make the caller allocating).
    let seeds = graph
        .nodes
        .iter()
        .map(|node| {
            let mut allocs = node.item.allocs.iter();
            allocs
                .find(|a| !cx.waived(&node.file, a.line, A1))
                .map(|a| a.what.clone())
        })
        .collect();
    let allocates = cx.propagate(seeds, Some(A1));

    // ---- Hot traversal over the covered files -------------------------
    // Two states per node: reached outside any loop (ctx = false) or inside
    // one (ctx = true). First visit per state wins → shortest chains.
    let state = |ni: usize, ctx: bool| ni * 2 + usize::from(ctx);
    let roots: Vec<usize> = (0..graph.nodes.len())
        .filter(|&ni| {
            let node = &graph.nodes[ni];
            covered(&node.file, &marker_files)
                && (HOT_ENTRIES.contains(&node.item.qual.as_str())
                    || hot_marked(cx.views(&node.file), node.item.line))
        })
        .map(|ni| state(ni, false))
        .collect();
    // The loop context a call edge hands its callee, or `None` when the
    // edge is not followed: a waiver on the call line is a barrier, and an
    // uncertain edge must pass the ambiguity gate (whichever method the
    // call really hits, it allocates).
    let edge_ctx = |ctx: bool, e: &Edge| -> Option<bool> {
        let open =
            !cx.waived(&graph.nodes[e.from].file, e.line, A1) && cx.trusted(e, &allocates.has);
        open.then_some(ctx || e.loop_depth > 0)
    };
    let walk = cx.forward(2, &roots, |st, e| {
        let ctx = edge_ctx(st % 2 == 1, e)?;
        covered(&graph.nodes[e.to].file, &marker_files).then(|| state(e.to, ctx))
    });

    // `entry -> … -> node` for a state, plus the entry qual.
    let chain_of = |st: usize| -> (String, String) {
        let mut chain: Vec<usize> = walk.path(st).iter().map(|s| s / 2).collect();
        chain.dedup(); // ctx flips revisit the same fn
        (graph.nodes[chain[0]].item.qual.clone(), cx.render(&chain))
    };

    let mut out = Vec::new();
    let mut emitted: BTreeSet<(String, usize)> = BTreeSet::new();
    for &st in &walk.order {
        let (ni, ctx) = (st / 2, st % 2 == 1);
        let node = &graph.nodes[ni];

        // Direct allocation primitives that execute in loop context.
        for a in &node.item.allocs {
            if !(ctx || a.loop_depth > 0) || cx.waived(&node.file, a.line, A1) {
                continue;
            }
            if !emitted.insert((node.file.clone(), a.line)) {
                continue;
            }
            let (entry, chain) = chain_of(st);
            let message = if node.item.qual == entry {
                format!(
                    "`{}` allocates inside a loop of hot entry `{entry}`; hoist \
                     the buffer into a reusable scratch or justify with \
                     `LINT-ALLOW({})`",
                    a.what,
                    A1.id()
                )
            } else {
                format!(
                    "`{}` allocates in a loop context of hot entry `{entry}`; \
                     call chain: {chain}",
                    a.what
                )
            };
            out.push(Diagnostic {
                file: node.file.clone(),
                line: a.line,
                rule: A1,
                message,
            });
        }

        // Opaque boundary: a looped call into an allocating fn outside the
        // covered set is flagged at the call site. Skip if a direct
        // primitive already flagged this line (e.g. `.to_vec()` resolving
        // to a workspace method of the same name).
        for &ei in &graph.fwd[ni] {
            let e = &graph.edges[ei];
            let callee = &graph.nodes[e.to];
            if edge_ctx(ctx, e) != Some(true)
                || covered(&callee.file, &marker_files)
                || !allocates.has[e.to]
                || !emitted.insert((node.file.clone(), e.line))
            {
                continue;
            }
            let (entry, chain) = chain_of(st);
            let message = format!(
                "call to `{}` allocates ({}) inside a loop of hot entry \
                 `{entry}`; call chain: {chain} -> {}; hoist the \
                 allocation out of the loop or add a `LINT-ALLOW({})` \
                 barrier on this call",
                callee.item.qual,
                allocates.witness(cx, e.to),
                callee.item.qual,
                A1.id()
            );
            out.push(Diagnostic {
                file: node.file.clone(),
                line: e.line,
                rule: A1,
                message,
            });
        }
    }
    out
}
