//! Shared transitive summaries for the concurrency-discipline passes
//! (X1-lock-discipline, X2-capture-disjoint, X3-order-restore).
//!
//! Each summary answers "does this function, directly or through calls,
//! …" with a shortest witness chain down to the concrete site:
//!
//! * **dispatches** — reach a `par_map*` pool dispatch or a scoped
//!   `.spawn(…)`. X1 uses it to flag guards held across calls that fan
//!   out to the pool.
//! * **loop_alloc** — reach an allocation that executes inside a loop:
//!   a direct primitive at loop depth > 0, a looped call into an
//!   allocating fn, or any call into a loop-allocating fn.
//! * **interior** — reach a `.lock()` / `lock_recover(…)` acquisition.
//!   X2 uses it to flag captured identifiers that resolve to functions
//!   with interior mutability.
//!
//! Propagation, the ambiguity gate and the witness renderer are
//! [`crate::reach`]'s; this module only chooses the seeds.
//!
//! The summaries are deliberately waiver-free: `LINT-ALLOW` is applied by
//! each pass at its diagnosis line (the lock, capture, aggregation or call
//! site it reports), which keeps one marker from silently severing chains
//! for three different rules at once.

use crate::parser::SyncKind;
use crate::reach::{Ctx, Reach};

/// All summaries, built once per lint run and shared by the X passes.
pub struct Summaries {
    pub dispatches: Reach,
    pub loop_alloc: Reach,
    pub interior: Reach,
}

impl Summaries {
    pub fn build(cx: &Ctx) -> Summaries {
        let graph = cx.graph;
        // First sync event of one of `kinds` in each fn, as its seed.
        let sync_seeds = |kinds: [SyncKind; 2]| -> Vec<Option<String>> {
            graph
                .nodes
                .iter()
                .map(|node| {
                    let mut sync = node.item.sync.iter();
                    sync.find(|s| kinds.contains(&s.kind))
                        .map(|s| s.what.clone())
                })
                .collect()
        };

        // Direct pool dispatch / scoped spawn.
        let dispatches = cx.propagate(sync_seeds([SyncKind::Dispatch, SyncKind::Spawn]), None);

        // Direct allocation primitive (A1's seed set, un-waived — see the
        // module docs for why the summaries ignore waivers).
        let alloc_seeds = graph
            .nodes
            .iter()
            .map(|node| node.item.allocs.first().map(|a| a.what.clone()))
            .collect();
        let allocates = cx.propagate(alloc_seeds, None);

        // Allocation in loop context: a direct primitive at loop depth > 0
        // seeds the node; a looped call edge into an `allocates` node seeds
        // the caller (the loop is the caller's, the allocation the
        // callee's).
        let mut loop_seeds: Vec<Option<String>> = graph
            .nodes
            .iter()
            .map(|node| {
                let mut allocs = node.item.allocs.iter();
                allocs.find(|a| a.loop_depth > 0).map(|a| a.what.clone())
            })
            .collect();
        for e in &graph.edges {
            if e.loop_depth == 0
                || loop_seeds[e.from].is_some()
                || !allocates.has[e.to]
                || !cx.trusted(e, &allocates.has)
            {
                continue;
            }
            loop_seeds[e.from] = Some(format!(
                "looped call to `{}` ({})",
                graph.nodes[e.to].item.qual,
                allocates.witness(cx, e.to)
            ));
        }
        let loop_alloc = cx.propagate(loop_seeds, None);

        // Direct lock acquisition (interior mutability).
        let interior = cx.propagate(sync_seeds([SyncKind::Lock, SyncKind::LockHelper]), None);

        Summaries {
            dispatches,
            loop_alloc,
            interior,
        }
    }
}
