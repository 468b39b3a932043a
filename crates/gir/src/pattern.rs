//! Pattern graphs — the `MATCH_PATTERN` payload of the GIR.
//!
//! A [`Pattern`] is a small connected directed graph whose vertices and edges carry
//! [`TypeConstraint`]s, optional tags (user aliases), optional predicates (pushed in by
//! the `FilterIntoPattern` rule) and optional column lists (pruned by `FieldTrim`).
//!
//! The CBO reasons entirely in terms of patterns and their sub-patterns, so this module
//! also provides the structural utilities that the optimizer and the GLogue statistics
//! store rely on: sub-pattern extraction with **stable element ids**, connectivity tests,
//! canonical encoding (used as the statistics key), and tag-based merging (used by the
//! `JoinToPattern` and `ComSubPattern` rules).

use crate::expr::Expr;
use crate::types::TypeConstraint;
use gopt_graph::{LabelId, PropValue};
use std::collections::{BTreeMap, BTreeSet};
use std::fmt;

/// Identifier of a vertex inside one [`Pattern`]. Stable across sub-pattern extraction.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct PatternVertexId(pub usize);

/// Identifier of an edge inside one [`Pattern`]. Stable across sub-pattern extraction.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct PatternEdgeId(pub usize);

/// Direction of an expansion step relative to the source vertex.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Direction {
    /// Follow outgoing edges.
    Out,
    /// Follow incoming edges.
    In,
    /// Follow both directions.
    Both,
}

/// Path-matching semantics for variable-length (path) edges, following the paper's
/// `EXPAND_PATH` operator.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum PathSemantics {
    /// No constraint on repeated vertices/edges.
    Arbitrary,
    /// No repeated vertex.
    Simple,
    /// No repeated edge.
    Trail,
}

/// Hop bounds and semantics of a variable-length path edge.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct PathSpec {
    /// Minimum number of hops (>= 1).
    pub min_hops: u32,
    /// Maximum number of hops (inclusive).
    pub max_hops: u32,
    /// Path semantics.
    pub semantics: PathSemantics,
}

impl PathSpec {
    /// A fixed-length path of exactly `hops` hops with arbitrary semantics.
    pub fn exact(hops: u32) -> Self {
        PathSpec {
            min_hops: hops,
            max_hops: hops,
            semantics: PathSemantics::Arbitrary,
        }
    }
}

/// A pattern vertex.
#[derive(Debug, Clone, PartialEq)]
pub struct PatternVertex {
    /// Stable id within the owning pattern.
    pub id: PatternVertexId,
    /// User-visible alias (`Alias("v1")`), if any.
    pub tag: Option<String>,
    /// Type constraint (`τ_P(v)`).
    pub constraint: TypeConstraint,
    /// Predicate pushed into the pattern (e.g. by `FilterIntoPattern`).
    pub predicate: Option<Expr>,
    /// Properties to retain for this vertex (`COLUMNS`), `None` meaning "all".
    /// Set by the `FieldTrim` rule; an empty set means no properties are needed.
    pub columns: Option<BTreeSet<String>>,
}

/// A pattern edge, directed from `src` to `dst`.
#[derive(Debug, Clone, PartialEq)]
pub struct PatternEdge {
    /// Stable id within the owning pattern.
    pub id: PatternEdgeId,
    /// Source pattern vertex.
    pub src: PatternVertexId,
    /// Destination pattern vertex.
    pub dst: PatternVertexId,
    /// User-visible alias, if any.
    pub tag: Option<String>,
    /// Type constraint (`τ_P(e)`).
    pub constraint: TypeConstraint,
    /// Predicate on the edge.
    pub predicate: Option<Expr>,
    /// When `Some`, this edge is a variable-length path edge (`EXPAND_PATH`).
    pub path: Option<PathSpec>,
}

/// A pattern graph.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct Pattern {
    vertices: BTreeMap<PatternVertexId, PatternVertex>,
    edges: BTreeMap<PatternEdgeId, PatternEdge>,
    next_vertex: usize,
    next_edge: usize,
}

impl Pattern {
    /// Create an empty pattern.
    pub fn new() -> Self {
        Self::default()
    }

    /// Add an untagged vertex with the given type constraint; returns its id.
    pub fn add_vertex(&mut self, constraint: TypeConstraint) -> PatternVertexId {
        self.add_vertex_full(None, constraint, None)
    }

    /// Add a tagged vertex.
    pub fn add_vertex_tagged(
        &mut self,
        tag: impl Into<String>,
        constraint: TypeConstraint,
    ) -> PatternVertexId {
        self.add_vertex_full(Some(tag.into()), constraint, None)
    }

    /// Add a vertex with all attributes.
    pub fn add_vertex_full(
        &mut self,
        tag: Option<String>,
        constraint: TypeConstraint,
        predicate: Option<Expr>,
    ) -> PatternVertexId {
        let id = PatternVertexId(self.next_vertex);
        self.next_vertex += 1;
        self.vertices.insert(
            id,
            PatternVertex {
                id,
                tag,
                constraint,
                predicate,
                columns: None,
            },
        );
        id
    }

    /// Add an untagged edge; returns its id.
    pub fn add_edge(
        &mut self,
        src: PatternVertexId,
        dst: PatternVertexId,
        constraint: TypeConstraint,
    ) -> PatternEdgeId {
        self.add_edge_full(src, dst, None, constraint, None, None)
    }

    /// Add a tagged edge.
    pub fn add_edge_tagged(
        &mut self,
        src: PatternVertexId,
        dst: PatternVertexId,
        tag: impl Into<String>,
        constraint: TypeConstraint,
    ) -> PatternEdgeId {
        self.add_edge_full(src, dst, Some(tag.into()), constraint, None, None)
    }

    /// Add an edge with all attributes (including an optional variable-length path spec).
    pub fn add_edge_full(
        &mut self,
        src: PatternVertexId,
        dst: PatternVertexId,
        tag: Option<String>,
        constraint: TypeConstraint,
        predicate: Option<Expr>,
        path: Option<PathSpec>,
    ) -> PatternEdgeId {
        debug_assert!(self.vertices.contains_key(&src) && self.vertices.contains_key(&dst));
        let id = PatternEdgeId(self.next_edge);
        self.next_edge += 1;
        self.edges.insert(
            id,
            PatternEdge {
                id,
                src,
                dst,
                tag,
                constraint,
                predicate,
                path,
            },
        );
        id
    }

    /// Number of vertices.
    pub fn vertex_count(&self) -> usize {
        self.vertices.len()
    }

    /// Number of edges.
    pub fn edge_count(&self) -> usize {
        self.edges.len()
    }

    /// Whether the pattern has no vertices.
    pub fn is_empty(&self) -> bool {
        self.vertices.is_empty()
    }

    /// Access a vertex.
    pub fn vertex(&self, id: PatternVertexId) -> &PatternVertex {
        &self.vertices[&id]
    }

    /// Mutable access to a vertex.
    pub fn vertex_mut(&mut self, id: PatternVertexId) -> &mut PatternVertex {
        self.vertices.get_mut(&id).expect("vertex id in pattern")
    }

    /// Access an edge.
    pub fn edge(&self, id: PatternEdgeId) -> &PatternEdge {
        &self.edges[&id]
    }

    /// Mutable access to an edge.
    pub fn edge_mut(&mut self, id: PatternEdgeId) -> &mut PatternEdge {
        self.edges.get_mut(&id).expect("edge id in pattern")
    }

    /// Iterate over vertices (in id order).
    pub fn vertices(&self) -> impl Iterator<Item = &PatternVertex> {
        self.vertices.values()
    }

    /// Iterate over edges (in id order).
    pub fn edges(&self) -> impl Iterator<Item = &PatternEdge> {
        self.edges.values()
    }

    /// Vertex ids (in order).
    pub fn vertex_ids(&self) -> Vec<PatternVertexId> {
        self.vertices.keys().copied().collect()
    }

    /// Edge ids (in order).
    pub fn edge_ids(&self) -> Vec<PatternEdgeId> {
        self.edges.keys().copied().collect()
    }

    /// Normalize comparison constants in every vertex and edge predicate into
    /// parameter slots (vertices first, then edges, both in id order). See
    /// [`Expr::parameterize_into`].
    pub fn parameterize_into(&mut self, params: &mut Vec<PropValue>) {
        for v in self.vertices.values_mut() {
            if let Some(p) = &mut v.predicate {
                p.parameterize_into(params);
            }
        }
        for e in self.edges.values_mut() {
            if let Some(p) = &mut e.predicate {
                p.parameterize_into(params);
            }
        }
    }

    /// Whether the pattern contains the given vertex id.
    pub fn contains_vertex(&self, id: PatternVertexId) -> bool {
        self.vertices.contains_key(&id)
    }

    /// Edges incident to `v` (either endpoint).
    pub fn adjacent_edges(&self, v: PatternVertexId) -> Vec<PatternEdgeId> {
        self.edges
            .values()
            .filter(|e| e.src == v || e.dst == v)
            .map(|e| e.id)
            .collect()
    }

    /// Outgoing edges of `v`.
    pub fn out_edges(&self, v: PatternVertexId) -> Vec<PatternEdgeId> {
        self.edges
            .values()
            .filter(|e| e.src == v)
            .map(|e| e.id)
            .collect()
    }

    /// Incoming edges of `v`.
    pub fn in_edges(&self, v: PatternVertexId) -> Vec<PatternEdgeId> {
        self.edges
            .values()
            .filter(|e| e.dst == v)
            .map(|e| e.id)
            .collect()
    }

    /// Degree (number of incident edges) of `v`.
    pub fn degree(&self, v: PatternVertexId) -> usize {
        self.adjacent_edges(v).len()
    }

    /// Undirected neighbours of `v`.
    pub fn neighbors(&self, v: PatternVertexId) -> Vec<PatternVertexId> {
        let mut out: Vec<PatternVertexId> = self
            .edges
            .values()
            .filter_map(|e| {
                if e.src == v {
                    Some(e.dst)
                } else if e.dst == v {
                    Some(e.src)
                } else {
                    None
                }
            })
            .collect();
        out.sort_unstable();
        out.dedup();
        out
    }

    /// All edges connecting `u` and `v` (in either direction).
    pub fn edges_between(&self, u: PatternVertexId, v: PatternVertexId) -> Vec<PatternEdgeId> {
        self.edges
            .values()
            .filter(|e| (e.src == u && e.dst == v) || (e.src == v && e.dst == u))
            .map(|e| e.id)
            .collect()
    }

    /// Find a vertex by tag.
    pub fn vertex_by_tag(&self, tag: &str) -> Option<PatternVertexId> {
        self.vertices
            .values()
            .find(|v| v.tag.as_deref() == Some(tag))
            .map(|v| v.id)
    }

    /// Find an edge by tag.
    pub fn edge_by_tag(&self, tag: &str) -> Option<PatternEdgeId> {
        self.edges
            .values()
            .find(|e| e.tag.as_deref() == Some(tag))
            .map(|e| e.id)
    }

    /// All tags used in the pattern (vertices and edges).
    pub fn tags(&self) -> BTreeSet<String> {
        self.vertices
            .values()
            .filter_map(|v| v.tag.clone())
            .chain(self.edges.values().filter_map(|e| e.tag.clone()))
            .collect()
    }

    /// Whether the pattern contains any variable-length path edge.
    pub fn has_path_edges(&self) -> bool {
        self.edges.values().any(|e| e.path.is_some())
    }

    /// Whether the pattern (viewed as an undirected graph) is connected.
    /// The empty pattern is considered connected.
    pub fn is_connected(&self) -> bool {
        if self.vertices.len() <= 1 {
            return true;
        }
        let start = *self.vertices.keys().next().expect("non-empty");
        let mut seen = BTreeSet::new();
        let mut stack = vec![start];
        seen.insert(start);
        while let Some(v) = stack.pop() {
            for n in self.neighbors(v) {
                if seen.insert(n) {
                    stack.push(n);
                }
            }
        }
        seen.len() == self.vertices.len()
    }

    /// The sub-pattern induced by a set of edge ids: contains exactly those edges and
    /// the vertices they touch. Element ids are preserved.
    pub fn induced_by_edges(&self, edge_ids: &BTreeSet<PatternEdgeId>) -> Pattern {
        let mut p = Pattern {
            vertices: BTreeMap::new(),
            edges: BTreeMap::new(),
            next_vertex: self.next_vertex,
            next_edge: self.next_edge,
        };
        for eid in edge_ids {
            let e = &self.edges[eid];
            p.edges.insert(*eid, e.clone());
            for vid in [e.src, e.dst] {
                p.vertices
                    .entry(vid)
                    .or_insert_with(|| self.vertices[&vid].clone());
            }
        }
        p
    }

    /// The sub-pattern induced by explicit vertex and edge id sets (edges must have both
    /// endpoints in the vertex set, which is extended automatically). Ids are preserved.
    pub fn induced(
        &self,
        vertex_ids: &BTreeSet<PatternVertexId>,
        edge_ids: &BTreeSet<PatternEdgeId>,
    ) -> Pattern {
        let mut p = self.induced_by_edges(edge_ids);
        for vid in vertex_ids {
            if !p.contains_vertex(*vid) {
                p.vertices.insert(*vid, self.vertices[vid].clone());
            }
        }
        p
    }

    /// The sub-pattern obtained by removing vertex `v` and all its incident edges.
    /// Element ids are preserved.
    pub fn remove_vertex(&self, v: PatternVertexId) -> Pattern {
        let mut p = self.clone();
        p.vertices.remove(&v);
        p.edges.retain(|_, e| e.src != v && e.dst != v);
        p
    }

    /// A single-vertex pattern containing only `v` (id preserved).
    pub fn single_vertex(&self, v: PatternVertexId) -> Pattern {
        let mut p = Pattern {
            vertices: BTreeMap::new(),
            edges: BTreeMap::new(),
            next_vertex: self.next_vertex,
            next_edge: self.next_edge,
        };
        p.vertices.insert(v, self.vertices[&v].clone());
        p
    }

    /// Vertex ids shared with another sub-pattern of the *same* original pattern
    /// (ids are comparable because sub-pattern extraction preserves them).
    pub fn common_vertices(&self, other: &Pattern) -> Vec<PatternVertexId> {
        self.vertices
            .keys()
            .filter(|id| other.vertices.contains_key(id))
            .copied()
            .collect()
    }

    /// Edge ids shared with another sub-pattern of the same original pattern.
    pub fn common_edges(&self, other: &Pattern) -> Vec<PatternEdgeId> {
        self.edges
            .keys()
            .filter(|id| other.edges.contains_key(id))
            .copied()
            .collect()
    }

    /// The intersection sub-pattern (`P_s1 ∩ P_s2` in Eq. 1): common edges plus common
    /// vertices.
    pub fn intersection(&self, other: &Pattern) -> Pattern {
        let mut p = Pattern {
            vertices: BTreeMap::new(),
            edges: BTreeMap::new(),
            next_vertex: self.next_vertex,
            next_edge: self.next_edge,
        };
        for (id, v) in &self.vertices {
            if other.vertices.contains_key(id) {
                p.vertices.insert(*id, v.clone());
            }
        }
        for (id, e) in &self.edges {
            if other.edges.contains_key(id) {
                p.edges.insert(*id, e.clone());
            }
        }
        p
    }

    /// Merge another pattern into this one, unifying vertices **by tag**: a vertex of
    /// `other` whose tag matches a vertex here is mapped onto it (type constraints are
    /// intersected); all other elements are appended with fresh ids.
    ///
    /// This is the structural operation behind the `JoinToPattern` rule: two
    /// `MATCH_PATTERN`s joined on their common tags collapse into one pattern.
    /// Returns the merged pattern and the vertex-id mapping from `other` into the result.
    pub fn merge_by_tag(
        &self,
        other: &Pattern,
    ) -> (Pattern, BTreeMap<PatternVertexId, PatternVertexId>) {
        let mut merged = self.clone();
        let mut vmap: BTreeMap<PatternVertexId, PatternVertexId> = BTreeMap::new();
        for v in other.vertices.values() {
            let target = v.tag.as_deref().and_then(|t| merged.vertex_by_tag(t));
            match target {
                Some(existing) => {
                    let mv = merged.vertex_mut(existing);
                    mv.constraint = mv.constraint.intersect(&v.constraint);
                    if mv.predicate.is_none() {
                        mv.predicate = v.predicate.clone();
                    } else if let Some(p) = &v.predicate {
                        mv.predicate = Some(mv.predicate.clone().expect("checked").and(p.clone()));
                    }
                    vmap.insert(v.id, existing);
                }
                None => {
                    let nid = merged.add_vertex_full(
                        v.tag.clone(),
                        v.constraint.clone(),
                        v.predicate.clone(),
                    );
                    merged.vertex_mut(nid).columns = v.columns.clone();
                    vmap.insert(v.id, nid);
                }
            }
        }
        for e in other.edges.values() {
            merged.add_edge_full(
                vmap[&e.src],
                vmap[&e.dst],
                e.tag.clone(),
                e.constraint.clone(),
                e.predicate.clone(),
                e.path,
            );
        }
        (merged, vmap)
    }

    /// Canonical encoding of the pattern structure and type constraints, invariant under
    /// renaming (re-identification) of pattern vertices and edges.
    ///
    /// Tags, predicates and column lists are deliberately **not** part of the code: the
    /// code identifies the statistical object (which labelled structure is being counted),
    /// which is what GLogue keys on. Two patterns get the same code exactly when they are
    /// isomorphic as labelled multigraphs (vertex constraints, edge constraints and hop
    /// ranges; path semantics are not part of the code).
    ///
    /// Vertices are first sorted by an isomorphism invariant: their own constraint, then
    /// the sorted list of incident `(direction, edge constraint, hops, neighbour
    /// constraint)` tuples. Only orderings that permute vertices *within* a class of equal
    /// invariant are searched, over sorted integer edge tuples, and the least edge list is
    /// formatted once. An isomorphism maps every class onto the class with the same
    /// invariant, so isomorphic patterns search the same candidate set and keep the same
    /// minimum; the code spells out every vertex and edge, so equal codes imply
    /// isomorphic patterns.
    pub fn canonical_code(&self) -> String {
        use std::fmt::Write as _;
        let n = self.vertices.len();
        if n == 0 {
            return "()".to_string();
        }
        // rank the distinct vertex constraints and edge labels in a fixed total order, so
        // the integer codes below do not depend on element ids
        let vkeys: Vec<Option<&[LabelId]>> = self
            .vertices
            .values()
            .map(|v| v.constraint.as_labels())
            .collect();
        let vdict = sorted_distinct(&vkeys);
        let vlabel: Vec<usize> = vkeys.iter().map(|k| rank_in(&vdict, k)).collect();
        let ekeys: Vec<EdgeKey<'_>> = self
            .edges
            .values()
            .map(|e| {
                (
                    e.constraint.as_labels(),
                    e.path.map(|p| (p.min_hops, p.max_hops)),
                )
            })
            .collect();
        let edict = sorted_distinct(&ekeys);
        let ids: Vec<PatternVertexId> = self.vertices.keys().copied().collect();
        let index = |v: PatternVertexId| ids.binary_search(&v).expect("endpoint in pattern");
        let edges: Vec<(usize, usize, usize)> = self
            .edges
            .values()
            .zip(&ekeys)
            .map(|(e, k)| (index(e.src), index(e.dst), rank_in(&edict, k)))
            .collect();

        // the invariant: own constraint, then sorted incident (direction, label, neighbour)
        let mut incident: Vec<Vec<(u8, usize, usize)>> = vec![Vec::new(); n];
        for &(s, d, l) in &edges {
            incident[s].push((0, l, vlabel[d]));
            incident[d].push((1, l, vlabel[s]));
        }
        for inc in &mut incident {
            inc.sort_unstable();
        }
        let invariant = |v: usize| (vlabel[v], &incident[v]);
        let mut order: Vec<usize> = (0..n).collect();
        order.sort_by(|&a, &b| invariant(a).cmp(&invariant(b)));
        // class_end[pos] = one past the last position holding the same invariant
        let mut class_end = vec![n; n];
        for pos in (0..n - 1).rev() {
            class_end[pos] = if invariant(order[pos]) == invariant(order[pos + 1]) {
                class_end[pos + 1]
            } else {
                pos + 1
            };
        }

        // the least sorted edge list over the orderings that permute within classes
        let mut best: Vec<(usize, usize, usize)> = Vec::new();
        if !edges.is_empty() {
            let mut rank = vec![0usize; n];
            let mut cur = Vec::with_capacity(edges.len());
            permute_within(&mut order.clone(), &class_end, 0, &mut |perm| {
                for (pos, &v) in perm.iter().enumerate() {
                    rank[v] = pos;
                }
                cur.clear();
                cur.extend(edges.iter().map(|&(s, d, l)| (rank[s], rank[d], l)));
                cur.sort_unstable();
                if best.is_empty() || cur < best {
                    best.clone_from(&cur);
                }
            });
        }

        // every ordering searched puts the same constraint at each position
        let mut code = String::from("V[");
        for (pos, &v) in order.iter().enumerate() {
            if pos > 0 {
                code.push(',');
            }
            let _ = write!(code, "{pos}:");
            push_constraint_code(&mut code, vdict[vlabel[v]]);
        }
        code.push_str("]E[");
        for (i, &(s, d, l)) in best.iter().enumerate() {
            if i > 0 {
                code.push(',');
            }
            let _ = write!(code, "{s}->{d}:");
            let (constraint, hops) = edict[l];
            push_constraint_code(&mut code, constraint);
            match hops {
                None => code.push_str(":1"),
                Some((min, max)) => {
                    let _ = write!(code, ":{min}..{max}");
                }
            }
        }
        code.push(']');
        code
    }

    /// The canonical code by brute force over all `n!` vertex orderings: the reference
    /// the invariant-pruned [`canonical_code`](Self::canonical_code) is checked against.
    #[cfg(test)]
    pub(crate) fn canonical_code_brute_force(&self) -> String {
        let ids = self.vertex_ids();
        let n = ids.len();
        if n == 0 {
            return "()".to_string();
        }
        let mut best: Option<String> = None;
        let mut perm: Vec<usize> = (0..n).collect();
        permute_within(&mut perm, &vec![n; n], 0, &mut |perm| {
            // position[i] = rank of vertex ids[i] under this permutation
            let mut rank = BTreeMap::new();
            for (i, &p) in perm.iter().enumerate() {
                rank.insert(ids[i], p);
            }
            let mut vcodes: Vec<(usize, String)> = self
                .vertices
                .values()
                .map(|v| (rank[&v.id], constraint_code(&v.constraint)))
                .collect();
            vcodes.sort();
            let mut ecodes: Vec<String> = self
                .edges
                .values()
                .map(|e| {
                    format!(
                        "{}->{}:{}:{}",
                        rank[&e.src],
                        rank[&e.dst],
                        constraint_code(&e.constraint),
                        match e.path {
                            None => "1".to_string(),
                            Some(p) => format!("{}..{}", p.min_hops, p.max_hops),
                        }
                    )
                })
                .collect();
            ecodes.sort();
            let code = format!(
                "V[{}]E[{}]",
                vcodes
                    .iter()
                    .map(|(r, c)| format!("{r}:{c}"))
                    .collect::<Vec<_>>()
                    .join(","),
                ecodes.join(",")
            );
            match &best {
                Some(b) if *b <= code => {}
                _ => best = Some(code),
            }
        });
        best.expect("non-empty pattern has a code")
    }

    /// Render the pattern using label names from a naming function.
    pub fn render(
        &self,
        vertex_name: impl Fn(gopt_graph::LabelId) -> String,
        edge_name: impl Fn(gopt_graph::LabelId) -> String,
    ) -> String {
        let vs: Vec<String> = self
            .vertices
            .values()
            .map(|v| {
                format!(
                    "({}:{})",
                    v.tag.clone().unwrap_or_else(|| format!("_{}", v.id.0)),
                    v.constraint.render(&vertex_name)
                )
            })
            .collect();
        let es: Vec<String> = self
            .edges
            .values()
            .map(|e| {
                format!(
                    "(_{})-[{}:{}]->(_{})",
                    e.src.0,
                    e.tag.clone().unwrap_or_else(|| format!("_{}", e.id.0)),
                    e.constraint.render(&edge_name),
                    e.dst.0
                )
            })
            .collect();
        format!("Pattern{{ {} ; {} }}", vs.join(", "), es.join(", "))
    }
}

/// An edge's part of the canonical code: its constraint (`None` = AllType) and hop range.
type EdgeKey<'a> = (Option<&'a [LabelId]>, Option<(u32, u32)>);

/// The distinct values of `keys`, sorted.
fn sorted_distinct<K: Ord + Copy>(keys: &[K]) -> Vec<K> {
    let mut dict = keys.to_vec();
    dict.sort_unstable();
    dict.dedup();
    dict
}

/// Position of `key` in a [`sorted_distinct`] dictionary that contains it.
fn rank_in<K: Ord>(dict: &[K], key: &K) -> usize {
    dict.binary_search(key).expect("key in dictionary")
}

/// Append a constraint's code: `*` for AllType, otherwise the labels joined by `|`.
fn push_constraint_code(out: &mut String, labels: Option<&[LabelId]>) {
    use std::fmt::Write as _;
    match labels {
        None => out.push('*'),
        Some(ls) => {
            for (i, l) in ls.iter().enumerate() {
                if i > 0 {
                    out.push('|');
                }
                let _ = write!(out, "{}", l.0);
            }
        }
    }
}

#[cfg(test)]
fn constraint_code(c: &TypeConstraint) -> String {
    match c {
        TypeConstraint::All => "*".to_string(),
        TypeConstraint::Labels(v) => v
            .iter()
            .map(|l| l.0.to_string())
            .collect::<Vec<_>>()
            .join("|"),
    }
}

/// Enumerate every permutation of `items[at..]` that only swaps items within their
/// class (`class_end[i]` is one past the last position of the class holding position
/// `i`), invoking `f` on each complete permutation.
fn permute_within(
    items: &mut [usize],
    class_end: &[usize],
    at: usize,
    f: &mut impl FnMut(&[usize]),
) {
    if at == items.len() {
        f(items);
        return;
    }
    for i in at..class_end[at] {
        items.swap(at, i);
        permute_within(items, class_end, at + 1, f);
        items.swap(at, i);
    }
}

impl fmt::Display for Pattern {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{}",
            self.render(|l| format!("{}", l.0), |l| format!("{}", l.0))
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use gopt_graph::LabelId;

    const PERSON: LabelId = LabelId(0);
    const PRODUCT: LabelId = LabelId(1);
    const PLACE: LabelId = LabelId(2);
    const KNOWS: LabelId = LabelId(0);
    const LOCATED: LabelId = LabelId(2);

    /// The paper's Fig. 4(b) triangle: v1 -> v2 -> v3 <- v1.
    fn triangle() -> (Pattern, PatternVertexId, PatternVertexId, PatternVertexId) {
        let mut p = Pattern::new();
        let v1 = p.add_vertex_tagged("v1", TypeConstraint::all());
        let v2 = p.add_vertex_tagged("v2", TypeConstraint::all());
        let v3 = p.add_vertex_tagged("v3", TypeConstraint::basic(PLACE));
        p.add_edge_tagged(v1, v2, "e1", TypeConstraint::all());
        p.add_edge_tagged(v2, v3, "e2", TypeConstraint::all());
        p.add_edge_tagged(v1, v3, "e3", TypeConstraint::basic(LOCATED));
        (p, v1, v2, v3)
    }

    #[test]
    fn structure_accessors() {
        let (p, v1, v2, v3) = triangle();
        assert_eq!(p.vertex_count(), 3);
        assert_eq!(p.edge_count(), 3);
        assert!(!p.is_empty());
        assert_eq!(p.degree(v1), 2);
        assert_eq!(p.neighbors(v1), vec![v2, v3]);
        assert_eq!(p.out_edges(v1).len(), 2);
        assert_eq!(p.in_edges(v3).len(), 2);
        assert_eq!(p.adjacent_edges(v2).len(), 2);
        assert_eq!(p.edges_between(v1, v3).len(), 1);
        assert_eq!(p.edges_between(v3, v1).len(), 1);
        assert_eq!(p.vertex_by_tag("v2"), Some(v2));
        assert!(p.vertex_by_tag("nope").is_none());
        assert!(p.edge_by_tag("e3").is_some());
        assert_eq!(p.tags().len(), 6);
        assert!(p.is_connected());
        assert!(!p.has_path_edges());
        assert!(p.contains_vertex(v1));
    }

    #[test]
    fn subpattern_extraction_preserves_ids() {
        let (p, v1, v2, v3) = triangle();
        let e_ids = p.edge_ids();
        // sub-pattern with only e1 (v1->v2)
        let sub = p.induced_by_edges(&[e_ids[0]].into_iter().collect());
        assert_eq!(sub.vertex_count(), 2);
        assert!(sub.contains_vertex(v1) && sub.contains_vertex(v2) && !sub.contains_vertex(v3));
        // removing v3 leaves the v1->v2 edge
        let no_v3 = p.remove_vertex(v3);
        assert_eq!(no_v3.vertex_count(), 2);
        assert_eq!(no_v3.edge_count(), 1);
        assert!(no_v3.is_connected());
        // single vertex
        let sv = p.single_vertex(v2);
        assert_eq!(sv.vertex_count(), 1);
        assert_eq!(sv.edge_count(), 0);
        assert!(sv.is_connected());
        // common vertices / intersection between two sub-patterns
        let left = p.induced_by_edges(&[e_ids[0]].into_iter().collect()); // v1-v2
        let right = p.induced_by_edges(&[e_ids[1]].into_iter().collect()); // v2-v3
        assert_eq!(left.common_vertices(&right), vec![v2]);
        assert!(left.common_edges(&right).is_empty());
        let inter = left.intersection(&right);
        assert_eq!(inter.vertex_count(), 1);
        assert_eq!(inter.edge_count(), 0);
    }

    #[test]
    fn disconnected_pattern_detected() {
        let mut p = Pattern::new();
        let a = p.add_vertex(TypeConstraint::basic(PERSON));
        let b = p.add_vertex(TypeConstraint::basic(PERSON));
        let c = p.add_vertex(TypeConstraint::basic(PRODUCT));
        p.add_edge(a, b, TypeConstraint::basic(KNOWS));
        assert!(!p.is_connected());
        p.add_edge(b, c, TypeConstraint::all());
        assert!(p.is_connected());
        assert!(Pattern::new().is_connected());
    }

    #[test]
    fn canonical_code_invariant_under_relabelling() {
        // same triangle built with vertices inserted in a different order
        let (p1, ..) = triangle();
        let mut p2 = Pattern::new();
        let v3 = p2.add_vertex_tagged("x3", TypeConstraint::basic(PLACE));
        let v1 = p2.add_vertex_tagged("x1", TypeConstraint::all());
        let v2 = p2.add_vertex_tagged("x2", TypeConstraint::all());
        p2.add_edge(v1, v3, TypeConstraint::basic(LOCATED));
        p2.add_edge(v2, v3, TypeConstraint::all());
        p2.add_edge(v1, v2, TypeConstraint::all());
        assert_eq!(p1.canonical_code(), p2.canonical_code());
        // but a structurally different pattern (path instead of triangle) differs
        let mut p3 = Pattern::new();
        let a = p3.add_vertex(TypeConstraint::all());
        let b = p3.add_vertex(TypeConstraint::all());
        let c = p3.add_vertex(TypeConstraint::basic(PLACE));
        p3.add_edge(a, b, TypeConstraint::all());
        p3.add_edge(b, c, TypeConstraint::all());
        assert_ne!(p1.canonical_code(), p3.canonical_code());
        // and different labels differ
        let mut p4 = Pattern::new();
        let a = p4.add_vertex(TypeConstraint::all());
        let b = p4.add_vertex(TypeConstraint::all());
        let c = p4.add_vertex(TypeConstraint::basic(PERSON));
        p4.add_edge(a, b, TypeConstraint::all());
        p4.add_edge(b, c, TypeConstraint::all());
        assert_ne!(p3.canonical_code(), p4.canonical_code());
    }

    /// SplitMix64: a tiny seeded generator for the property test below.
    struct SplitMix(u64);

    impl SplitMix {
        fn below(&mut self, n: usize) -> usize {
            self.0 = self.0.wrapping_add(0x9e37_79b9_7f4a_7c15);
            let mut z = self.0;
            z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
            z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
            ((z ^ (z >> 31)) % n as u64) as usize
        }
    }

    /// A constraint from the first `alphabet` of: All, two basic types, their union.
    fn random_constraint(rng: &mut SplitMix, alphabet: usize) -> TypeConstraint {
        match rng.below(alphabet) {
            0 => TypeConstraint::all(),
            1 => TypeConstraint::basic(LabelId(0)),
            2 => TypeConstraint::basic(LabelId(1)),
            _ => TypeConstraint::union([LabelId(0), LabelId(1)]),
        }
    }

    /// 1-5 vertices and up to 2n edges, with self-loops, parallel edges and path edges.
    /// Small alphabets make vertices with equal invariants common, including ones no
    /// automorphism maps onto each other (as the middle of a directed path), and make
    /// random patterns often isomorphic to one another.
    fn random_pattern(rng: &mut SplitMix) -> Pattern {
        let mut p = Pattern::new();
        let alphabet = [1, 2, 4][rng.below(3)];
        let n = 1 + rng.below(5);
        let vs: Vec<_> = (0..n)
            .map(|_| p.add_vertex(random_constraint(rng, alphabet)))
            .collect();
        for _ in 0..rng.below(2 * n + 1) {
            let path = match rng.below(3 * alphabet) {
                0 => Some(PathSpec::exact(2)),
                1 => Some(PathSpec {
                    min_hops: 1,
                    max_hops: 3,
                    semantics: PathSemantics::Simple,
                }),
                _ => None,
            };
            let (s, d) = (vs[rng.below(n)], vs[rng.below(n)]);
            p.add_edge_full(s, d, None, random_constraint(rng, alphabet), None, path);
        }
        p
    }

    /// The same pattern rebuilt with vertices and edges inserted in a shuffled order,
    /// sometimes behind a removed placeholder vertex so that the ids are sparse.
    fn rebuilt_shuffled(p: &Pattern, rng: &mut SplitMix) -> Pattern {
        let shuffle = |mut items: Vec<usize>, rng: &mut SplitMix| {
            for i in (1..items.len()).rev() {
                items.swap(i, rng.below(i + 1));
            }
            items
        };
        let mut q = Pattern::new();
        let placeholder = (rng.below(2) == 0).then(|| q.add_vertex(TypeConstraint::all()));
        let old_vs = p.vertex_ids();
        let mut map = BTreeMap::new();
        for i in shuffle((0..old_vs.len()).collect(), rng) {
            let v = p.vertex(old_vs[i]);
            map.insert(v.id, q.add_vertex(v.constraint.clone()));
        }
        let old_es = p.edge_ids();
        for i in shuffle((0..old_es.len()).collect(), rng) {
            let e = p.edge(old_es[i]);
            q.add_edge_full(
                map[&e.src],
                map[&e.dst],
                None,
                e.constraint.clone(),
                None,
                e.path,
            );
        }
        match placeholder {
            Some(v) => q.remove_vertex(v),
            None => q,
        }
    }

    #[test]
    fn canonical_code_agrees_with_brute_force_on_random_patterns() {
        let mut rng = SplitMix(0x00c0_ffee);
        let patterns: Vec<Pattern> = (0..1500).map(|_| random_pattern(&mut rng)).collect();
        // intern both codes so every pair compares two integers
        let intern = |codes: Vec<String>| -> Vec<usize> {
            let mut ids: BTreeMap<String, usize> = BTreeMap::new();
            codes
                .into_iter()
                .map(|c| {
                    let next = ids.len();
                    *ids.entry(c).or_insert(next)
                })
                .collect()
        };
        let fast = intern(patterns.iter().map(Pattern::canonical_code).collect());
        let slow = intern(
            patterns
                .iter()
                .map(Pattern::canonical_code_brute_force)
                .collect(),
        );
        let mut isomorphic_pairs = 0usize;
        for i in 0..patterns.len() {
            for j in 0..patterns.len() {
                assert_eq!(
                    fast[i] == fast[j],
                    slow[i] == slow[j],
                    "code equality disagrees with brute force on\n{}\n{}",
                    patterns[i],
                    patterns[j]
                );
                isomorphic_pairs += usize::from(i != j && slow[i] == slow[j]);
            }
        }
        assert!(
            isomorphic_pairs > 100,
            "the generator must produce isomorphic pairs, got {isomorphic_pairs}"
        );
        for p in &patterns {
            let q = rebuilt_shuffled(p, &mut rng);
            assert_eq!(p.canonical_code(), q.canonical_code(), "{p}");
            assert_eq!(
                p.canonical_code_brute_force(),
                q.canonical_code_brute_force()
            );
        }
    }

    #[test]
    fn merge_by_tag_unifies_common_vertices() {
        // pattern1: (v1)-[e1]->(v2)-[e2]->(v3)   pattern2: (v1)-[e3]->(v3:Place)
        let mut p1 = Pattern::new();
        let a1 = p1.add_vertex_tagged("v1", TypeConstraint::all());
        let b1 = p1.add_vertex_tagged("v2", TypeConstraint::all());
        let c1 = p1.add_vertex_tagged("v3", TypeConstraint::all());
        p1.add_edge_tagged(a1, b1, "e1", TypeConstraint::all());
        p1.add_edge_tagged(b1, c1, "e2", TypeConstraint::all());

        let mut p2 = Pattern::new();
        let a2 = p2.add_vertex_tagged("v1", TypeConstraint::all());
        let c2 = p2.add_vertex_tagged("v3", TypeConstraint::basic(PLACE));
        p2.add_edge_tagged(a2, c2, "e3", TypeConstraint::basic(LOCATED));

        let (merged, vmap) = p1.merge_by_tag(&p2);
        assert_eq!(merged.vertex_count(), 3, "v1 and v3 unified by tag");
        assert_eq!(merged.edge_count(), 3);
        assert_eq!(vmap[&a2], a1);
        assert_eq!(vmap[&c2], c1);
        // the constraint of the unified v3 is the intersection (Place)
        assert_eq!(merged.vertex(c1).constraint, TypeConstraint::basic(PLACE));
        assert!(merged.is_connected());
    }

    #[test]
    fn merge_by_tag_appends_unmatched_vertices_and_predicates() {
        let mut p1 = Pattern::new();
        let a1 = p1.add_vertex_tagged("a", TypeConstraint::all());
        p1.vertex_mut(a1).predicate = Some(Expr::prop_eq("a", "x", 1));
        let mut p2 = Pattern::new();
        let a2 = p2.add_vertex_tagged("a", TypeConstraint::all());
        p2.vertex_mut(a2).predicate = Some(Expr::prop_eq("a", "y", 2));
        let b2 = p2.add_vertex_tagged("b", TypeConstraint::basic(PERSON));
        p2.add_edge(a2, b2, TypeConstraint::all());
        let (merged, _) = p1.merge_by_tag(&p2);
        assert_eq!(merged.vertex_count(), 2);
        // predicates are conjoined
        let pred = merged.vertex(a1).predicate.clone().unwrap();
        assert_eq!(pred.conjuncts().len(), 2);
    }

    #[test]
    fn path_edges_and_pathspec() {
        let mut p = Pattern::new();
        let a = p.add_vertex_tagged("p1", TypeConstraint::basic(PERSON));
        let b = p.add_vertex_tagged("p2", TypeConstraint::basic(PERSON));
        p.add_edge_full(
            a,
            b,
            Some("path".into()),
            TypeConstraint::all(),
            None,
            Some(PathSpec::exact(6)),
        );
        assert!(p.has_path_edges());
        assert_eq!(p.edge(p.edge_ids()[0]).path.unwrap().max_hops, 6);
        let code = p.canonical_code();
        assert!(code.contains("6..6"));
    }

    #[test]
    fn display_and_render() {
        let (p, ..) = triangle();
        let s = p.to_string();
        assert!(s.contains("v1") && s.contains("e3"));
        let named = p.render(
            |l| ["Person", "Product", "Place"][l.index()].to_string(),
            |l| ["Knows", "Purchases", "LocatedIn"][l.index()].to_string(),
        );
        assert!(named.contains("Place") && named.contains("LocatedIn"));
    }
}
