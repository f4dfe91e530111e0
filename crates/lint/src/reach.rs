//! The reachability engine behind the call-graph pass (A1).
//!
//! [`Ctx`] bundles what a graph pass needs, built once per lint run:
//! the call graph, the per-file line views that waivers are read from, and
//! the call-site → edges index behind the ambiguity gate. On top of it:
//!
//! * [`Ctx::waived`] — is a diagnosis or call line covered by a
//!   `LINT-ALLOW` for this rule?
//! * [`Ctx::trusted`] — the **ambiguity gate** (PR 8 semantics): an edge
//!   produced by a name-union over several same-name methods counts only
//!   when *every* candidate of its call site has the property, otherwise a
//!   ubiquitous name like `get` would smear the property over the whole
//!   workspace.
//! * [`Ctx::propagate`] — reverse (callee → caller) propagation of a
//!   seeded property, gated, severed at waived call lines, with shortest
//!   witness chains ([`Reach::witness`]).
//! * [`Ctx::forward`] — forward BFS over caller-defined states, with
//!   shortest chains from a root ([`Forward::path`]).

use crate::callgraph::{Edge, Graph};
use crate::engine::{allow_status, AllowStatus, Rule};
use crate::lexer::{line_views, LineView};
use std::collections::{BTreeMap, VecDeque};

/// Graph, waiver views and call-site index of one lint run.
pub struct Ctx<'a> {
    pub graph: &'a Graph,
    views: BTreeMap<&'a str, Vec<LineView>>,
    /// Edge indices per call-site id: the candidate set of an ambiguous
    /// method call.
    site_edges: Vec<Vec<usize>>,
}

/// One transitive property over the call graph with witness chains.
pub struct Reach {
    /// Does node `i` have the property (directly or transitively)?
    pub has: Vec<bool>,
    /// Next node on the shortest path toward a direct site.
    parent: Vec<Option<usize>>,
    /// For direct holders: what the concrete site is (`vec!`, `.clone()`,
    /// …).
    what: Vec<Option<String>>,
}

/// Result of a forward BFS: visit order plus first-visit parents.
pub struct Forward {
    /// States in the order they were dequeued (roots first).
    pub order: Vec<usize>,
    parent: Vec<Option<usize>>,
}

impl<'a> Ctx<'a> {
    /// `files` must be the set `graph` was built from.
    pub fn new(files: &'a [(String, String)], graph: &'a Graph) -> Ctx<'a> {
        let views = files
            .iter()
            .map(|(rel, src)| (rel.as_str(), line_views(src)))
            .collect();
        let sites = graph.edges.iter().map(|e| e.site + 1).max().unwrap_or(0);
        let mut site_edges = vec![Vec::new(); sites];
        for (ei, e) in graph.edges.iter().enumerate() {
            site_edges[e.site].push(ei);
        }
        Ctx {
            graph,
            views,
            site_edges,
        }
    }

    /// Line views of a linted file.
    pub fn views(&self, file: &str) -> &[LineView] {
        self.views.get(file).map_or(&[], Vec::as_slice)
    }

    /// Does a reasoned `LINT-ALLOW(rule)` cover 1-based `line` of `file`?
    pub fn waived(&self, file: &str, line: usize, rule: Rule) -> bool {
        let status = |idx| allow_status(self.views(file), idx, rule);
        line >= 1 && matches!(status(line - 1), AllowStatus::Allowed)
    }

    /// The ambiguity gate for one edge against the property `has`.
    pub fn trusted(&self, e: &Edge, has: &[bool]) -> bool {
        e.certain
            || self.site_edges[e.site]
                .iter()
                .all(|&oi| has[self.graph.edges[oi].to])
    }

    /// `a -> b -> c` over the quals of `nodes`.
    pub fn render(&self, nodes: &[usize]) -> String {
        nodes
            .iter()
            .map(|&k| self.graph.nodes[k].item.qual.as_str())
            .collect::<Vec<_>>()
            .join(" -> ")
    }

    /// Reverse-BFS from the seeded nodes along callee → caller edges; first
    /// visit wins, so the witness chains are shortest. `seeds[i]` names
    /// node `i`'s direct site when it has one. An edge is followed only
    /// through the ambiguity gate (which closes over the fixpoint because
    /// `has` only grows: a site is re-checked from each candidate's own
    /// queue entry) and only when its call line carries no `barrier`
    /// waiver — a waived call does not make the *caller* a holder.
    pub fn propagate(&self, seeds: Vec<Option<String>>, barrier: Rule) -> Reach {
        let graph = self.graph;
        let mut has: Vec<bool> = seeds.iter().map(Option::is_some).collect();
        let mut parent: Vec<Option<usize>> = vec![None; has.len()];
        let mut queue: VecDeque<usize> = (0..has.len()).filter(|&ni| has[ni]).collect();
        while let Some(ni) = queue.pop_front() {
            for &ei in &graph.rev[ni] {
                let e = &graph.edges[ei];
                if has[e.from]
                    || self.waived(&graph.nodes[e.from].file, e.line, barrier)
                    || !self.trusted(e, &has)
                {
                    continue;
                }
                has[e.from] = true;
                parent[e.from] = Some(ni);
                queue.push_back(e.from);
            }
        }
        Reach {
            has,
            parent,
            what: seeds,
        }
    }

    /// Forward BFS over `(node, sub)` states encoded `node * subs + sub`.
    /// `step(state, edge)` is called for every outgoing edge of the
    /// state's node and returns the successor state, or `None` to not
    /// follow the edge. First visit wins, so [`Forward::path`] is a
    /// shortest chain from some root.
    pub fn forward(
        &self,
        subs: usize,
        roots: &[usize],
        mut step: impl FnMut(usize, &Edge) -> Option<usize>,
    ) -> Forward {
        let states = self.graph.nodes.len() * subs;
        let mut visited = vec![false; states];
        let mut parent: Vec<Option<usize>> = vec![None; states];
        // The visit order doubles as the BFS queue.
        let mut order = roots.to_vec();
        for &r in roots {
            visited[r] = true;
        }
        let mut head = 0;
        while let Some(&st) = order.get(head) {
            head += 1;
            for &ei in &self.graph.fwd[st / subs] {
                let Some(nxt) = step(st, &self.graph.edges[ei]) else {
                    continue;
                };
                if !visited[nxt] {
                    visited[nxt] = true;
                    parent[nxt] = Some(st);
                    order.push(nxt);
                }
            }
        }
        Forward { order, parent }
    }
}

impl Reach {
    /// `` `what` `` for a direct holder, `` `what` via a -> b `` when the
    /// property is reached through intermediate fns.
    pub fn witness(&self, cx: &Ctx, start: usize) -> String {
        let mut chain = Vec::new();
        let mut cur = start;
        while let Some(next) = self.parent[cur] {
            chain.push(next);
            cur = next;
        }
        let what = self.what[cur].as_deref().unwrap_or("site");
        if chain.is_empty() {
            format!("`{what}`")
        } else {
            format!("`{what}` via {}", cx.render(&chain))
        }
    }
}

impl Forward {
    /// States from the root that first reached `state` down to `state`.
    pub fn path(&self, state: usize) -> Vec<usize> {
        let mut chain = vec![state];
        let mut cur = state;
        while let Some(p) = self.parent[cur] {
            chain.push(p);
            cur = p;
        }
        chain.reverse();
        chain
    }
}
