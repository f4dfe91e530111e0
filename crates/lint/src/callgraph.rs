//! Workspace symbol table and call graph over [`crate::parser`] output.
//!
//! Resolution is deliberately an *over*-approximation: a method call
//! `.name(…)` whose receiver type is unknown resolves to the union of all
//! workspace methods with that name. Such edges are marked uncertain and
//! share a call-site id, so the passes can put them through the ambiguity
//! gate of [`crate::reach`] (trust the site only when every candidate
//! misbehaves). Calls that resolve to nothing (std / external crates)
//! simply have no edge; the passes see the primitives themselves instead
//! (`vec![]`, `.collect()`, `Box::new`, …).

use crate::parser::{parse_file, CallSite, FnItem};
use std::collections::{BTreeMap, BTreeSet};

/// One function in the graph.
#[derive(Debug, Clone)]
pub struct FnNode {
    /// Workspace-relative file path.
    pub file: String,
    /// Crate name (`socl_core`).
    pub crate_name: String,
    /// Module path inside the crate (derived from the file and inline mods).
    pub mods: Vec<String>,
    pub item: FnItem,
}

/// A resolved call edge.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Edge {
    pub from: usize,
    pub to: usize,
    /// 1-based line of the call site in `from`'s file.
    pub line: usize,
    /// Syntactic loop depth of the call site inside `from`'s body.
    pub loop_depth: usize,
    /// Call-site id, unique across the graph: an ambiguous method call fans
    /// out into several edges sharing one `site`, so passes can reason about
    /// the candidate *set* instead of each maybe-target in isolation.
    pub site: usize,
    /// False when this edge came from a name-union over several candidate
    /// methods — the callee is one possibility, not a known target; the
    /// passes only trust an ambiguous site when *every* candidate
    /// misbehaves ([`crate::reach::Ctx::trusted`]).
    pub certain: bool,
}

/// The workspace call graph.
#[derive(Debug, Default)]
pub struct Graph {
    pub nodes: Vec<FnNode>,
    pub edges: Vec<Edge>,
    /// Outgoing edge indices per node.
    pub fwd: Vec<Vec<usize>>,
    /// Incoming edge indices per node.
    pub rev: Vec<Vec<usize>>,
    /// Structural parse problems: (file, line, message).
    pub parse_errors: Vec<(String, usize, String)>,
    qual_index: BTreeMap<String, usize>,
    name_index: BTreeMap<String, Vec<usize>>,
    /// Methods (fns with an enclosing type) by bare name.
    method_index: BTreeMap<String, Vec<usize>>,
}

/// Per-file resolution context.
struct FileCtx {
    crate_name: String,
    /// `use` aliases: alias → full path segments (globs under alias `"*"`).
    uses: Vec<(String, Vec<String>)>,
}

impl Graph {
    /// Build the graph from `(workspace-relative path, source)` pairs.
    /// Callers choose the file set (the engine feeds it library-kind files
    /// only).
    pub fn build(files: &[(String, String)]) -> Graph {
        let mut g = Graph::default();
        let mut ctxs: Vec<FileCtx> = Vec::new();
        let mut node_file_ctx: Vec<usize> = Vec::new();

        for (rel, src) in files {
            let parsed = parse_file(rel, src);
            let (crate_name, _) = crate::parser::module_of(rel);
            for (line, msg) in &parsed.errors {
                g.parse_errors.push((rel.clone(), *line, msg.clone()));
            }
            let ctx_idx = ctxs.len();
            ctxs.push(FileCtx {
                crate_name: crate_name.clone(),
                uses: parsed.uses.clone(),
            });
            for item in parsed.fns {
                let idx = g.nodes.len();
                let mods = mods_of(&item, &crate_name);
                g.qual_index.insert(item.qual.clone(), idx);
                g.name_index.entry(item.name.clone()).or_default().push(idx);
                if item.type_name.is_some() {
                    g.method_index
                        .entry(item.name.clone())
                        .or_default()
                        .push(idx);
                }
                g.nodes.push(FnNode {
                    file: rel.clone(),
                    crate_name: crate_name.clone(),
                    mods,
                    item,
                });
                node_file_ctx.push(ctx_idx);
            }
        }

        // Resolve call sites into edges.
        let mut edges = Vec::new();
        let mut site = 0usize;
        for idx in 0..g.nodes.len() {
            let ctx = &ctxs[node_file_ctx[idx]];
            let calls = g.nodes[idx].item.calls.clone();
            for call in &calls {
                let targets = g.resolve(idx, call, ctx);
                if targets.is_empty() {
                    continue;
                }
                let certain = targets.len() == 1;
                for to in targets {
                    edges.push(Edge {
                        from: idx,
                        to,
                        line: call.line,
                        loop_depth: call.loop_depth,
                        site,
                        certain,
                    });
                }
                site += 1;
            }
        }
        edges.sort_by_key(|e| (e.from, e.to, e.line, e.loop_depth, e.site));
        edges.dedup();
        g.fwd = vec![Vec::new(); g.nodes.len()];
        g.rev = vec![Vec::new(); g.nodes.len()];
        for (ei, e) in edges.iter().enumerate() {
            g.fwd[e.from].push(ei);
            g.rev[e.to].push(ei);
        }
        g.edges = edges;
        g
    }

    /// Index of the node with this fully-qualified path.
    pub fn node_by_qual(&self, qual: &str) -> Option<usize> {
        self.qual_index.get(qual).copied()
    }

    /// Sorted, deduplicated callee quals of a function — for golden tests.
    pub fn callees_of(&self, qual: &str) -> Vec<String> {
        let Some(idx) = self.node_by_qual(qual) else {
            return Vec::new();
        };
        let mut out: BTreeSet<String> = BTreeSet::new();
        for &ei in &self.fwd[idx] {
            out.insert(self.nodes[self.edges[ei].to].item.qual.clone());
        }
        out.into_iter().collect()
    }

    /// Resolve one call site to candidate node indices.
    fn resolve(&self, from: usize, call: &CallSite, ctx: &FileCtx) -> Vec<usize> {
        let mut out: BTreeSet<usize> = BTreeSet::new();
        let node = &self.nodes[from];

        if call.method {
            let name = &call.path[0];
            // `self.helper()` — prefer methods of the enclosing type.
            if call.recv_self {
                if let Some(ty) = &node.item.type_name {
                    let exact: Vec<usize> = self
                        .method_index
                        .get(name)
                        .map(|v| {
                            v.iter()
                                .copied()
                                .filter(|&m| {
                                    self.nodes[m].item.type_name.as_deref() == Some(ty)
                                        && self.nodes[m].crate_name == node.crate_name
                                })
                                .collect()
                        })
                        .unwrap_or_default();
                    if !exact.is_empty() {
                        return exact;
                    }
                }
            }
            // Unknown receiver: union of all same-name methods.
            if let Some(v) = self.method_index.get(name) {
                out.extend(v.iter().copied());
            }
            return out.into_iter().collect();
        }

        let full = self.expand_path(&call.path, node, ctx);
        let joined = full.join("::");

        // 1. Exact qualified match.
        if let Some(&idx) = self.qual_index.get(&joined) {
            return vec![idx];
        }

        // 2. Same-module / same-scope candidates.
        let mut prefixed = vec![node.crate_name.clone()];
        prefixed.extend(node.mods.iter().cloned());
        prefixed.extend(full.iter().cloned());
        if let Some(&idx) = self.qual_index.get(&prefixed.join("::")) {
            return vec![idx];
        }

        // 3. Glob imports: `use a::b::*;` puts `a::b::name` in scope.
        for (alias, base) in &ctx.uses {
            if alias == "*" {
                let mut p = self.normalize_head(base, node);
                p.extend(full.iter().cloned());
                if let Some(&idx) = self.qual_index.get(&p.join("::")) {
                    out.insert(idx);
                }
            }
        }
        if !out.is_empty() {
            return out.into_iter().collect();
        }

        // 4. Suffix fallback: any fn whose qual ends with the written path.
        //    (`paths::transfer_time` matches `socl_net::paths::transfer_time`.)
        if let (true, Some(last)) = (full.len() >= 2, full.last()) {
            if let Some(cands) = self.name_index.get(last) {
                let suffix = format!("::{joined}");
                for &c in cands {
                    if self.nodes[c].item.qual.ends_with(&suffix) {
                        out.insert(c);
                    }
                }
            }
        }
        out.into_iter().collect()
    }

    /// Expand `crate`/`self`/`super`/`Self`/use-alias heads of a call path.
    fn expand_path(&self, path: &[String], node: &FnNode, ctx: &FileCtx) -> Vec<String> {
        let head = &path[0];
        let rest = &path[1..];
        let mut out: Vec<String>;
        match head.as_str() {
            "crate" => {
                out = vec![ctx.crate_name.clone()];
            }
            "self" => {
                out = vec![ctx.crate_name.clone()];
                out.extend(node.mods.iter().cloned());
            }
            "super" => {
                out = vec![ctx.crate_name.clone()];
                let n = node.mods.len().saturating_sub(1);
                out.extend(node.mods[..n].iter().cloned());
            }
            "Self" => {
                out = vec![ctx.crate_name.clone()];
                out.extend(node.mods.iter().cloned());
                if let Some(ty) = &node.item.type_name {
                    out.push(ty.clone());
                }
            }
            _ => {
                if let Some((_, base)) = ctx.uses.iter().find(|(a, _)| a == head) {
                    out = self.normalize_head(base, node);
                } else {
                    out = vec![head.clone()];
                }
            }
        }
        out.extend(rest.iter().cloned());
        out
    }

    /// Normalize the head of a `use` path (`crate::x` → `socl_foo::x`).
    fn normalize_head(&self, base: &[String], node: &FnNode) -> Vec<String> {
        let mut out = Vec::new();
        match base.first().map(String::as_str) {
            Some("crate") => {
                out.push(node.crate_name.clone());
                out.extend(base[1..].iter().cloned());
            }
            Some("super") => {
                out.push(node.crate_name.clone());
                let n = node.mods.len().saturating_sub(1);
                out.extend(node.mods[..n].iter().cloned());
                out.extend(base[1..].iter().cloned());
            }
            Some("self") => {
                out.push(node.crate_name.clone());
                out.extend(node.mods.iter().cloned());
                out.extend(base[1..].iter().cloned());
            }
            _ => out.extend(base.iter().cloned()),
        }
        out
    }
}

/// Module path of a fn: its qual minus crate, type and name segments.
fn mods_of(item: &FnItem, crate_name: &str) -> Vec<String> {
    let mut segs: Vec<String> = item.qual.split("::").map(str::to_string).collect();
    if segs.first().map(String::as_str) == Some(crate_name) {
        segs.remove(0);
    }
    segs.pop(); // fn name
    if item.type_name.is_some() {
        segs.pop(); // type
    }
    segs
}

#[cfg(test)]
mod tests {
    use super::*;

    fn two_file_graph() -> Graph {
        let files = vec![
            (
                "crates/core/src/solve.rs".to_string(),
                "use socl_model::util::now_ms;\n\
                 pub fn entry() { now_ms(); local(); }\n\
                 fn local() { crate::solve::leaf(); }\n\
                 pub fn leaf() {}\n"
                    .to_string(),
            ),
            (
                "crates/model/src/util.rs".to_string(),
                "pub fn now_ms() -> u64 { helper() }\nfn helper() -> u64 { 0 }\n".to_string(),
            ),
        ];
        Graph::build(&files)
    }

    #[test]
    fn cross_crate_use_alias_resolves() {
        let g = two_file_graph();
        assert_eq!(
            g.callees_of("socl_core::solve::entry"),
            vec!["socl_core::solve::local", "socl_model::util::now_ms"]
        );
    }

    #[test]
    fn crate_prefixed_path_resolves() {
        let g = two_file_graph();
        assert_eq!(
            g.callees_of("socl_core::solve::local"),
            vec!["socl_core::solve::leaf"]
        );
    }

    #[test]
    fn same_module_call_resolves() {
        let g = two_file_graph();
        assert_eq!(
            g.callees_of("socl_model::util::now_ms"),
            vec!["socl_model::util::helper"]
        );
    }

    #[test]
    fn self_method_prefers_enclosing_type() {
        let files = vec![(
            "crates/net/src/x.rs".to_string(),
            "struct A;\nimpl A { pub fn run(&self) { self.step(); } fn step(&self) {} }\n\
             struct B;\nimpl B { fn step(&self) {} }\n"
                .to_string(),
        )];
        let g = Graph::build(&files);
        assert_eq!(
            g.callees_of("socl_net::x::A::run"),
            vec!["socl_net::x::A::step"]
        );
    }

    #[test]
    fn unknown_receiver_unions_methods() {
        let files = vec![(
            "crates/net/src/x.rs".to_string(),
            "struct A;\nimpl A { pub fn step(&self) {} }\n\
             struct B;\nimpl B { pub fn step(&self) {} }\n\
             pub fn drive(v: &A) { v.step(); }\n"
                .to_string(),
        )];
        let g = Graph::build(&files);
        assert_eq!(
            g.callees_of("socl_net::x::drive"),
            vec!["socl_net::x::A::step", "socl_net::x::B::step"]
        );
    }

    #[test]
    fn unresolved_externals_have_no_edges() {
        let files = vec![(
            "crates/net/src/x.rs".to_string(),
            "pub fn f() { Vec::<f64>::with_capacity(4); format_args(); }\n".to_string(),
        )];
        let g = Graph::build(&files);
        assert!(g.callees_of("socl_net::x::f").is_empty());
    }
}
