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
//!    the entry, T1-style.
//!
//! Coverage boundary: only fns in [`COVERED_FILES`] (or files containing a
//! `LINT-HOT` marker) are traversed and flagged. Calls that leave the
//! covered set are treated as opaque: they are flagged at the call line iff
//! the summary says the callee allocates and the edge is in loop context.
//! This keeps the finding surface reviewable — the hot files — while the
//! summary still sees the whole workspace.
//!
//! Ambiguity rule: a method call with an unknown receiver resolves to the
//! union of same-name workspace methods (see [`crate::callgraph`]). The
//! taint passes keep that over-approximation; A1 does not — an ambiguous
//! call site participates (in the summary and in the hot traversal) only
//! when **every** candidate allocates. A lint that pinned every `.get(i)`
//! slice read in a hot loop to the one allocating `get` method in the
//! workspace would drown the real findings in false positives.
//!
//! Deliberately out of scope: closures handed to `socl_net::par::par_map*`.
//! Each parallel task returns its output, so per-task output allocation is
//! the mechanism, not a defect; treating a par_map closure as a loop body
//! would flag every output row of the APSP build. Syntactic loops only.
//!
//! Waivers are barriers, exactly like T1: `LINT-ALLOW(A1-hot-alloc)` at an
//! allocation line un-seeds that site (for both the direct check and the
//! summary); at a call line it severs that edge.

use crate::callgraph::Graph;
use crate::engine::{allow_status, AllowStatus, Diagnostic, Rule};
use crate::lexer::{line_views, LineView};
use std::collections::{BTreeMap, BTreeSet, VecDeque};

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

fn waived(views: &BTreeMap<&str, Vec<LineView>>, file: &str, line: usize) -> bool {
    let Some(v) = views.get(file) else {
        return false;
    };
    if line == 0 || line > v.len() {
        return false;
    }
    matches!(
        allow_status(v, line - 1, Rule::A1HotAlloc),
        AllowStatus::Allowed
    )
}

/// Does the comment on `line` or the contiguous comment block above carry a
/// `LINT-HOT(A1)` marker? (Same attachment rule as `LINT-ALLOW`.)
fn hot_marked(views: &[LineView], line: usize) -> bool {
    if line == 0 || line > views.len() {
        return false;
    }
    let idx = line - 1;
    let has = |v: &LineView| v.comment.contains("LINT-HOT(A1)");
    if has(&views[idx]) {
        return true;
    }
    let mut j = idx;
    while j > 0 {
        j -= 1;
        let v = &views[j];
        if !v.is_code_blank() {
            break;
        }
        if has(v) {
            return true;
        }
        if v.comment.trim().is_empty() && v.code.trim().is_empty() {
            break;
        }
    }
    false
}

/// Run the A1 pass. `files` must be the set the graph was built from.
pub fn check(files: &[(String, String)], graph: &Graph) -> Vec<Diagnostic> {
    let views: BTreeMap<&str, Vec<LineView>> = files
        .iter()
        .map(|(rel, src)| (rel.as_str(), line_views(src)))
        .collect();
    let marker_files: BTreeSet<String> = files
        .iter()
        .filter(|(_, src)| src.contains("LINT-HOT"))
        .map(|(rel, _)| rel.replace('\\', "/"))
        .collect();

    let n = graph.nodes.len();

    // Edges of one syntactic call site, by site id. An ambiguous method
    // call (`.get(i)` with an unknown receiver) fans out into one edge per
    // same-name candidate; those edges share a site, and A1 only trusts the
    // site when *every* candidate allocates. Otherwise a ubiquitous name
    // like `get` would pin every slice read in a hot loop to the one
    // allocating workspace method that happens to share it.
    let mut site_edges: BTreeMap<usize, Vec<usize>> = BTreeMap::new();
    for (ei, e) in graph.edges.iter().enumerate() {
        site_edges.entry(e.site).or_default().push(ei);
    }
    let site_allocates = |site: usize, allocates: &[bool]| -> bool {
        site_edges
            .get(&site)
            .is_some_and(|v| v.iter().all(|&oi| allocates[graph.edges[oi].to]))
    };

    // ---- Transitive "allocates" summary over the whole graph ----------
    // alloc_parent[i] = Some(callee) on the shortest path toward a direct
    // allocation; alloc_site[i] = the direct primitive when node i itself
    // allocates. BFS from all directly-allocating nodes along reverse
    // (callee → caller) edges; first visit wins → shortest witness.
    let mut alloc_site: Vec<Option<usize>> = vec![None; n]; // index into item.allocs
    let mut allocates: Vec<bool> = vec![false; n];
    let mut alloc_parent: Vec<Option<usize>> = vec![None; n];
    let mut queue = VecDeque::new();
    for (ni, node) in graph.nodes.iter().enumerate() {
        for (ai, a) in node.item.allocs.iter().enumerate() {
            if waived(&views, &node.file, a.line) {
                continue;
            }
            alloc_site[ni] = Some(ai);
            allocates[ni] = true;
            queue.push_back(ni);
            break;
        }
    }
    while let Some(ni) = queue.pop_front() {
        for &ei in &graph.rev[ni] {
            let e = graph.edges[ei];
            if allocates[e.from] {
                continue;
            }
            // A waiver on the call line vouches for this call: it does not
            // make the *caller* allocating.
            if waived(&views, &graph.nodes[e.from].file, e.line) {
                continue;
            }
            if !e.certain && !site_allocates(e.site, &allocates) {
                continue;
            }
            allocates[e.from] = true;
            alloc_parent[e.from] = Some(ni);
            queue.push_back(e.from);
        }
    }

    // Witness description for an allocating node: the primitive, plus the
    // chain of intermediate fns when the allocation is indirect.
    let witness = |start: usize| -> String {
        let mut chain = vec![start];
        let mut cur = start;
        while let Some(next) = alloc_parent[cur] {
            chain.push(next);
            cur = next;
        }
        let what = alloc_site[cur]
            .map(|ai| graph.nodes[cur].item.allocs[ai].what.clone())
            .unwrap_or_else(|| "allocation".to_string());
        if chain.len() == 1 {
            format!("`{what}`")
        } else {
            let via: Vec<&str> = chain[1..]
                .iter()
                .map(|&k| graph.nodes[k].item.qual.as_str())
                .collect();
            format!("`{what}` via {}", via.join(" -> "))
        }
    };

    // ---- Hot traversal over the covered files -------------------------
    // Two states per node: reached outside any loop (ctx = false) or inside
    // one (ctx = true). First visit per state wins → shortest chains.
    let state = |ni: usize, ctx: bool| ni * 2 + usize::from(ctx);
    let mut visited = vec![false; n * 2];
    let mut parent: Vec<Option<usize>> = vec![None; n * 2]; // parent *state*
    let mut bfs = VecDeque::new();
    for (ni, node) in graph.nodes.iter().enumerate() {
        if !covered(&node.file, &marker_files) {
            continue;
        }
        let marked = views
            .get(node.file.as_str())
            .is_some_and(|v| hot_marked(v, node.item.line));
        if HOT_ENTRIES.contains(&node.item.qual.as_str()) || marked {
            visited[state(ni, false)] = true;
            bfs.push_back((ni, false));
        }
    }

    // Render `entry -> … -> node` for a state, plus the entry qual.
    let chain_of = |st: usize, parent: &[Option<usize>]| -> (String, String) {
        let mut chain = vec![st / 2];
        let mut cur = st;
        while let Some(p) = parent[cur] {
            chain.push(p / 2);
            cur = p;
        }
        chain.reverse();
        chain.dedup(); // ctx flips revisit the same fn
        let entry = graph.nodes[chain[0]].item.qual.clone();
        let rendered = chain
            .iter()
            .map(|&k| graph.nodes[k].item.qual.as_str())
            .collect::<Vec<_>>()
            .join(" -> ");
        (entry, rendered)
    };

    let mut out = Vec::new();
    let mut emitted: BTreeSet<(String, usize)> = BTreeSet::new();
    while let Some((ni, ctx)) = bfs.pop_front() {
        let st = state(ni, ctx);
        let node = &graph.nodes[ni];

        // Direct allocation primitives that execute in loop context.
        for a in &node.item.allocs {
            if !(ctx || a.loop_depth > 0) || waived(&views, &node.file, a.line) {
                continue;
            }
            if !emitted.insert((node.file.clone(), a.line)) {
                continue;
            }
            let (entry, chain) = chain_of(st, &parent);
            let message = if node.item.qual == entry {
                format!(
                    "`{}` allocates inside a loop of hot entry `{entry}`; hoist \
                     the buffer into a reusable scratch or justify with \
                     `LINT-ALLOW({})`",
                    a.what,
                    Rule::A1HotAlloc.id()
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
                rule: Rule::A1HotAlloc,
                message,
            });
        }

        for &ei in &graph.fwd[ni] {
            let e = graph.edges[ei];
            // A waiver on the call line is an edge barrier.
            if waived(&views, &node.file, e.line) {
                continue;
            }
            let edge_ctx = ctx || e.loop_depth > 0;
            let callee = &graph.nodes[e.to];
            // Ambiguity gate: an uncertain edge is one maybe-candidate of a
            // name-union; follow or flag it only when every candidate of
            // the site allocates (so whichever method the call really hits,
            // it allocates).
            if !e.certain && !site_allocates(e.site, &allocates) {
                continue;
            }
            if covered(&callee.file, &marker_files) {
                let nxt = state(e.to, edge_ctx);
                if !visited[nxt] {
                    visited[nxt] = true;
                    parent[nxt] = Some(st);
                    bfs.push_back((e.to, edge_ctx));
                }
            } else if edge_ctx && allocates[e.to] {
                // Opaque boundary: flag the looped call into an allocating
                // fn at the call site. Skip if a direct primitive already
                // flagged this line (e.g. `.to_vec()` resolving to a
                // workspace method of the same name).
                if !emitted.insert((node.file.clone(), e.line)) {
                    continue;
                }
                let (entry, chain) = chain_of(st, &parent);
                let message = format!(
                    "call to `{}` allocates ({}) inside a loop of hot entry \
                     `{entry}`; call chain: {chain} -> {}; hoist the \
                     allocation out of the loop or add a `LINT-ALLOW({})` \
                     barrier on this call",
                    callee.item.qual,
                    witness(e.to),
                    callee.item.qual,
                    Rule::A1HotAlloc.id()
                );
                out.push(Diagnostic {
                    file: node.file.clone(),
                    line: e.line,
                    rule: Rule::A1HotAlloc,
                    message,
                });
            }
        }
    }
    out
}
