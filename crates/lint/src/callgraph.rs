//! A full transitive call graph over the workspace.
//!
//! PR 5's R1 chased calls exactly one level below `Stage::step`, which is a
//! polite fiction: the stage bodies in this tree are thin dispatchers over
//! store/tier/queue helpers, so a blocking call two hops down was invisible.
//! This module builds the whole graph once — every non-test function with a
//! body is a node, every call site an edge — and answers reachability with a
//! cycle-safe BFS that remembers *how* it got there, so a report can print
//! the offending chain (`UtpsWorker::step → drain_ring → retire → .lock()`).
//!
//! Resolution is name-based with the same deliberate over/under-approximation
//! trade the one-level version made, now applied uniformly at every depth:
//!
//! * `T::f(...)` — matched by function name + impl-owner name, workspace-wide
//!   (types cross crate boundaries freely in this tree);
//! * `x.f(...)` — matched by method name against every impl in the
//!   workspace (receiver types are beyond a token-level linter);
//! * `f(...)` — matched against free functions in the caller's crate (bare
//!   calls across crates go through a `use`d path, which lexes as one of the
//!   qualified forms above).
//!
//! A name with more than [`AMBIGUITY_BOUND`] candidate definitions (`new`,
//! `push`, `get`, `step`, ...) is considered too ambiguous to chase: edges to
//! it are dropped rather than fanning out to dozens of false targets. That
//! keeps the graph honest — the rules that consume it prefer missing one
//! exotic chain (the audited escape hatch and the runtime suites still stand
//! behind them) over burying the report in noise.

use std::collections::BTreeMap;

use crate::parser::{calls_in, Call};
use crate::LintWorkspace;

/// Maximum candidate definitions a call name may have before resolution
/// refuses to guess.
pub const AMBIGUITY_BOUND: usize = 8;

/// A node: `(file index, fn index)` into the workspace's parsed files.
pub type Node = (usize, usize);

/// The workspace call graph.
pub struct CallGraph {
    /// Node id → `(file, fn)`.
    pub nodes: Vec<Node>,
    /// Adjacency: node id → callee node ids (deduped, in discovery order).
    pub edges: Vec<Vec<usize>>,
    /// Reverse of `nodes`.
    ids: BTreeMap<Node, usize>,
}

/// One step of a reconstructed call chain.
#[derive(Clone, Debug)]
pub struct ChainStep {
    /// `Owner::name` (or bare `name` for free functions).
    pub label: String,
    /// File the function lives in.
    pub file: String,
    /// Line of its `fn` keyword.
    pub line: u32,
}

impl CallGraph {
    /// Builds the graph over every non-test function with a body.
    pub fn build(ws: &LintWorkspace) -> CallGraph {
        let mut nodes: Vec<Node> = Vec::new();
        let mut ids: BTreeMap<Node, usize> = BTreeMap::new();
        // name → definition node ids, for O(1) call resolution.
        let mut by_name: BTreeMap<&str, Vec<usize>> = BTreeMap::new();

        for (fi, f) in ws.files.iter().enumerate() {
            if f.path_is_test {
                continue;
            }
            for (ii, item) in f.fns.iter().enumerate() {
                if item.is_test || item.body.is_none() {
                    continue;
                }
                let id = nodes.len();
                nodes.push((fi, ii));
                ids.insert((fi, ii), id);
                by_name.entry(item.name.as_str()).or_default().push(id);
            }
        }

        let mut edges: Vec<Vec<usize>> = vec![Vec::new(); nodes.len()];
        for (id, &(fi, ii)) in nodes.iter().enumerate() {
            let f = &ws.files[fi];
            let item = &f.fns[ii];
            let (s, e) = item.body.expect("nodes have bodies");
            let caller_crate = LintWorkspace::crate_of(&f.path);
            let mut calls = calls_in(&f.src, &f.code, s, e);
            calls.dedup_by(|a, b| {
                a.name == b.name && a.qualifier == b.qualifier && a.is_method == b.is_method
            });
            for call in &calls {
                for cid in resolve(ws, &nodes, &by_name, caller_crate, call) {
                    if cid != id && !edges[id].contains(&cid) {
                        edges[id].push(cid);
                    }
                }
            }
        }

        CallGraph { nodes, edges, ids }
    }

    /// Node id of `(file, fn)`, if it is in the graph.
    pub fn id_of(&self, node: Node) -> Option<usize> {
        self.ids.get(&node).copied()
    }

    /// Every node reachable from `start` (inclusive), BFS order, with a
    /// parent map for chain reconstruction. Cycle-safe: each node is visited
    /// once.
    pub fn reachable(&self, start: usize) -> Reach {
        let mut parent: BTreeMap<usize, usize> = BTreeMap::new();
        let mut order = vec![start];
        let mut head = 0;
        while head < order.len() {
            let n = order[head];
            head += 1;
            for &m in &self.edges[n] {
                if m != start && !parent.contains_key(&m) {
                    parent.insert(m, n);
                    order.push(m);
                }
            }
        }
        Reach {
            start,
            order,
            parent,
        }
    }

    /// `Owner::name` label for a node.
    pub fn label(&self, ws: &LintWorkspace, id: usize) -> String {
        let (fi, ii) = self.nodes[id];
        let item = &ws.files[fi].fns[ii];
        match &item.owner {
            Some(o) => format!("{o}::{}", item.name),
            None => item.name.clone(),
        }
    }
}

/// The result of a BFS: visit order plus parent pointers.
pub struct Reach {
    start: usize,
    /// Reachable node ids, BFS order, `start` first.
    pub order: Vec<usize>,
    parent: BTreeMap<usize, usize>,
}

impl Reach {
    /// The call chain from the BFS root to `id`, inclusive of both ends.
    pub fn chain(&self, cg: &CallGraph, ws: &LintWorkspace, id: usize) -> Vec<ChainStep> {
        let mut rev = vec![id];
        let mut cur = id;
        while cur != self.start {
            match self.parent.get(&cur) {
                Some(&p) => {
                    rev.push(p);
                    cur = p;
                }
                None => break,
            }
        }
        rev.reverse();
        rev.into_iter()
            .map(|n| {
                let (fi, ii) = cg.nodes[n];
                let f = &ws.files[fi];
                ChainStep {
                    label: cg.label(ws, n),
                    file: f.path.clone(),
                    line: f.fns[ii].line,
                }
            })
            .collect()
    }
}

/// Resolves one call site to candidate node ids (see module docs for the
/// matching rules).
fn resolve(
    ws: &LintWorkspace,
    nodes: &[Node],
    by_name: &BTreeMap<&str, Vec<usize>>,
    caller_crate: &str,
    call: &Call,
) -> Vec<usize> {
    let Some(cands) = by_name.get(call.name.as_str()) else {
        return Vec::new();
    };
    let hits: Vec<usize> = cands
        .iter()
        .copied()
        .filter(|&id| {
            let (fi, ii) = nodes[id];
            let item = &ws.files[fi].fns[ii];
            match &call.qualifier {
                // `T::f(...)`: by impl owner, workspace-wide.
                Some(q) => item.owner.as_deref() == Some(q.as_str()),
                // `.f(...)`: any method of that name, workspace-wide.
                None if call.is_method => item.owner.is_some(),
                // bare `f(...)`: free functions in the caller's crate.
                None => {
                    item.owner.is_none()
                        && LintWorkspace::crate_of(&ws.files[fi].path) == caller_crate
                }
            }
        })
        .collect();
    if hits.len() > AMBIGUITY_BOUND {
        Vec::new()
    } else {
        hits
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::parser::parse_file;

    fn ws(files: &[(&str, &str)]) -> LintWorkspace {
        LintWorkspace {
            files: files
                .iter()
                .map(|(p, s)| parse_file(p, s.to_string()))
                .collect(),
        }
    }

    fn node_named(cg: &CallGraph, ws: &LintWorkspace, name: &str) -> usize {
        (0..cg.nodes.len())
            .find(|&i| {
                let (fi, ii) = cg.nodes[i];
                ws.files[fi].fns[ii].name == name
            })
            .unwrap()
    }

    #[test]
    fn transitive_chain_resolves_across_levels() {
        let w = ws(&[(
            "crates/core/src/a.rs",
            "fn top() { mid(); }\nfn mid() { deep(); }\nfn deep() {}\n",
        )]);
        let cg = CallGraph::build(&w);
        let top = node_named(&cg, &w, "top");
        let deep = node_named(&cg, &w, "deep");
        let r = cg.reachable(top);
        assert!(r.order.contains(&deep));
        let chain = r.chain(&cg, &w, deep);
        let labels: Vec<&str> = chain.iter().map(|s| s.label.as_str()).collect();
        assert_eq!(labels, ["top", "mid", "deep"]);
    }

    #[test]
    fn cycles_terminate() {
        let w = ws(&[(
            "crates/core/src/a.rs",
            "fn ping() { pong(); }\nfn pong() { ping(); }\n",
        )]);
        let cg = CallGraph::build(&w);
        let r = cg.reachable(node_named(&cg, &w, "ping"));
        assert_eq!(r.order.len(), 2);
    }

    #[test]
    fn qualified_calls_cross_crates_but_bare_calls_do_not() {
        let w = ws(&[
            (
                "crates/core/src/a.rs",
                "fn caller() { Helper::go(); loose(); }\n",
            ),
            (
                "crates/sim/src/b.rs",
                "pub struct Helper;\nimpl Helper { fn go() {} }\nfn loose() {}\n",
            ),
        ]);
        let cg = CallGraph::build(&w);
        let r = cg.reachable(node_named(&cg, &w, "caller"));
        assert!(r.order.contains(&node_named(&cg, &w, "go")));
        assert!(!r.order.contains(&node_named(&cg, &w, "loose")));
    }

    #[test]
    fn ambiguous_names_are_not_chased() {
        let mut files = vec![(
            "crates/core/src/a.rs".to_string(),
            "fn caller() { x.common(); }\n".to_string(),
        )];
        for i in 0..10 {
            files.push((
                format!("crates/core/src/m{i}.rs"),
                format!("struct T{i};\nimpl T{i} {{ fn common(&self) {{}} }}\n"),
            ));
        }
        let w = LintWorkspace {
            files: files
                .iter()
                .map(|(p, s)| parse_file(p, s.clone()))
                .collect(),
        };
        let cg = CallGraph::build(&w);
        let r = cg.reachable(node_named(&cg, &w, "caller"));
        assert_eq!(r.order.len(), 1, "over-ambiguous `common` must be dropped");
    }
}
