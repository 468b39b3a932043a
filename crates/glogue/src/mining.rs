//! Homomorphism counting of patterns over a property graph.
//!
//! The counter performs a backtracking search in a connected order of the pattern
//! vertices: each new pattern vertex is matched by expanding from an already-matched
//! neighbour and verifying every pattern edge to previously matched vertices. Matching
//! follows the paper's homomorphism semantics: distinct pattern vertices may map to the
//! same data vertex, and the counted object is the number of *vertex mappings* (parallel
//! data edges between the same endpoints do not multiply the count). The search runs on
//! a `MatchPlan` computed once per pattern, so its inner loops index plain vectors and
//! reuse one candidate buffer per depth.
//!
//! [`count_homomorphisms_sampled`] additionally supports *anchor sampling*: only a random
//! subset of candidates for the first pattern vertex is explored and the result is scaled
//! by the inverse sampling ratio. This is the laptop-scale stand-in for the graph
//! sparsification used by GLogS when building statistics over very large graphs.

use gopt_gir::pattern::{Pattern, PatternVertexId};
use gopt_gir::types::TypeConstraint;
use gopt_graph::{LabelId, PropertyGraph, VertexId};
use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};
#[cfg(test)]
use std::collections::BTreeMap;
use std::collections::BTreeSet;

/// Exact homomorphism count of `pattern` in `graph`.
///
/// Variable-length path edges are not supported by the counter (they never appear in the
/// mined statistics patterns); such edges are ignored with a `debug_assert`.
pub fn count_homomorphisms(graph: &PropertyGraph, pattern: &Pattern) -> f64 {
    count_homomorphisms_sampled(graph, pattern, None, 0)
}

/// Homomorphism count with optional anchor sampling.
///
/// When `max_anchors` is `Some(n)` and the first pattern vertex has more than `n`
/// candidate data vertices, only `n` uniformly sampled candidates are explored and the
/// count is scaled by `candidates / n`.
pub fn count_homomorphisms_sampled(
    graph: &PropertyGraph,
    pattern: &Pattern,
    max_anchors: Option<usize>,
    seed: u64,
) -> f64 {
    if pattern.vertex_count() == 0 {
        return 0.0;
    }
    let plan = MatchPlan::new(graph, pattern);
    let mut anchor_candidates = Vec::new();
    plan.steps[0].scan(graph, &mut anchor_candidates);
    let (anchors, scale) = sample_anchors(anchor_candidates, max_anchors, seed);
    let n = plan.steps.len();
    let mut assignment = vec![VertexId(0); n];
    let mut buffers: Vec<Vec<VertexId>> = vec![Vec::new(); n];
    let mut total = 0u64;
    for a in anchors {
        assignment[0] = a;
        total += plan.extend(graph, 1, &mut assignment, &mut buffers);
    }
    total as f64 * scale
}

/// Anchor sampling: `n` uniform draws (with replacement) when there are more than `n`
/// candidates, with the scale that corrects the count back up.
fn sample_anchors(
    candidates: Vec<VertexId>,
    max_anchors: Option<usize>,
    seed: u64,
) -> (Vec<VertexId>, f64) {
    match max_anchors {
        Some(n) if candidates.len() > n && n > 0 => {
            let mut rng = SmallRng::seed_from_u64(seed);
            let mut sampled = Vec::with_capacity(n);
            for _ in 0..n {
                sampled.push(candidates[rng.gen_range(0..candidates.len())]);
            }
            (sampled, candidates.len() as f64 / n as f64)
        }
        _ => (candidates, 1.0),
    }
}

/// A connected matching order of the pattern vertices (every vertex after the first is
/// adjacent to at least one earlier vertex when the pattern is connected).
fn matching_order(pattern: &Pattern) -> Vec<PatternVertexId> {
    let ids = pattern.vertex_ids();
    let mut order = Vec::with_capacity(ids.len());
    let mut placed: BTreeSet<PatternVertexId> = BTreeSet::new();
    // start with the most constrained vertex (fewest admissible labels, highest degree)
    let mut start = ids[0];
    let mut best_key = (usize::MAX, 0usize);
    for &v in &ids {
        let nlabels = pattern.vertex(v).constraint.len().unwrap_or(usize::MAX);
        let key = (nlabels, usize::MAX - pattern.degree(v));
        if key < best_key {
            best_key = key;
            start = v;
        }
    }
    order.push(start);
    placed.insert(start);
    while order.len() < ids.len() {
        // next: a vertex adjacent to the placed set (fall back to any if disconnected)
        let next = ids
            .iter()
            .copied()
            .filter(|v| !placed.contains(v))
            .max_by_key(|v| {
                pattern
                    .neighbors(*v)
                    .iter()
                    .filter(|n| placed.contains(n))
                    .count()
            })
            .expect("unplaced vertex exists");
        order.push(next);
        placed.insert(next);
    }
    order
}

/// A back edge of a matching step: a pattern edge to a vertex at an earlier position.
struct BackEdge {
    /// Matching-order position of the already-matched endpoint.
    other: usize,
    /// Whether the step's vertex is the edge's source.
    from_step: bool,
    /// The edge constraint, materialised against the schema's edge labels.
    labels: Vec<LabelId>,
}

/// How one matching-order position finds and verifies its candidates.
struct Step<'p> {
    constraint: &'p TypeConstraint,
    /// The constraint materialised against the schema's vertex labels (for scans).
    scan_labels: Vec<LabelId>,
    /// Candidates come from expanding this back edge's matched endpoint; `None` scans
    /// `scan_labels` (the anchor, or a vertex disconnected from the earlier ones).
    expand: Option<BackEdge>,
    /// The remaining back edges, verified per candidate.
    checks: Vec<BackEdge>,
    /// No later step reads this position, so every verified candidate has the same
    /// number of extensions: they are counted once and multiplied.
    unread: bool,
}

impl Step<'_> {
    fn scan(&self, graph: &PropertyGraph, out: &mut Vec<VertexId>) {
        for &l in &self.scan_labels {
            out.extend_from_slice(graph.vertices_with_label(l));
        }
    }
}

/// The per-pattern matching plan, computed once: one [`Step`] per matching-order
/// position, so the search indexes plain vectors instead of walking the pattern.
struct MatchPlan<'p> {
    steps: Vec<Step<'p>>,
}

impl<'p> MatchPlan<'p> {
    fn new(graph: &PropertyGraph, pattern: &'p Pattern) -> Self {
        let schema = graph.schema();
        let vertex_universe: Vec<LabelId> = schema.vertex_label_ids().collect();
        let edge_universe: Vec<LabelId> = schema.edge_label_ids().collect();
        let order = matching_order(pattern);
        let position = |v: PatternVertexId| order.iter().position(|&o| o == v);
        let mut steps = order
            .iter()
            .enumerate()
            .map(|(depth, &pv)| {
                let constraint = &pattern.vertex(pv).constraint;
                // back edges in edge-id order; a self-loop's other end is the step itself,
                // which is not matched yet, so self-loops are never verified
                let mut back: Vec<BackEdge> = pattern
                    .adjacent_edges(pv)
                    .into_iter()
                    .filter_map(|eid| {
                        let e = pattern.edge(eid);
                        debug_assert!(e.path.is_none(), "path edges are not counted by the miner");
                        let from_step = e.src == pv;
                        let other = position(if from_step { e.dst } else { e.src })?;
                        (other < depth).then(|| BackEdge {
                            other,
                            from_step,
                            labels: e.constraint.materialize(&edge_universe),
                        })
                    })
                    .collect();
                let expand = (!back.is_empty()).then(|| back.remove(0));
                Step {
                    constraint,
                    scan_labels: constraint.materialize(&vertex_universe),
                    expand,
                    checks: back,
                    unread: true,
                }
            })
            .collect::<Vec<Step>>();
        // back edges always point to earlier positions
        let mut read = vec![false; steps.len()];
        for e in steps.iter().flat_map(|s| s.expand.iter().chain(&s.checks)) {
            read[e.other] = true;
        }
        for (step, read) in steps.iter_mut().zip(read) {
            step.unread = !read;
        }
        MatchPlan { steps }
    }

    /// Count the extensions of `assignment[..depth]` to the whole pattern. `buffers[d]`
    /// is position `d`'s candidate buffer, reused across calls.
    fn extend(
        &self,
        graph: &PropertyGraph,
        depth: usize,
        assignment: &mut [VertexId],
        buffers: &mut [Vec<VertexId>],
    ) -> u64 {
        if depth == self.steps.len() {
            return 1;
        }
        let step = &self.steps[depth];
        let mut candidates = std::mem::take(&mut buffers[depth]);
        candidates.clear();
        match &step.expand {
            Some(e) => {
                let from = assignment[e.other];
                for &el in &e.labels {
                    let adj = if e.from_step {
                        graph.in_edges_with_label(from, el)
                    } else {
                        graph.out_edges_with_label(from, el)
                    };
                    candidates.extend(adj.neighbors().iter().map(|&n| VertexId(u64::from(n))));
                }
                candidates.sort_unstable();
                candidates.dedup();
                candidates.retain(|c| step.constraint.contains(graph.vertex_label(*c)));
            }
            None => step.scan(graph, &mut candidates),
        }
        let mut total = 0u64;
        let mut verified = 0u64;
        'cand: for &c in &candidates {
            // the expanded edge holds by construction; verify the others
            for e in &step.checks {
                let m = assignment[e.other];
                let (s, d) = if e.from_step { (c, m) } else { (m, c) };
                if !e.labels.iter().any(|&l| graph.has_edge(s, l, d)) {
                    continue 'cand;
                }
            }
            verified += 1;
            if !step.unread {
                assignment[depth] = c;
                total += self.extend(graph, depth + 1, assignment, buffers);
            }
        }
        buffers[depth] = candidates;
        if step.unread && verified > 0 {
            total = verified * self.extend(graph, depth + 1, assignment, buffers);
        }
        total
    }
}

/// The homomorphism counter as it was before [`MatchPlan`]: a `BTreeMap` assignment and
/// per-call back-edge, label and candidate vectors. Kept as the oracle the planned
/// counter must match bit for bit.
#[cfg(test)]
pub(crate) fn count_homomorphisms_sampled_reference(
    graph: &PropertyGraph,
    pattern: &Pattern,
    max_anchors: Option<usize>,
    seed: u64,
) -> f64 {
    if pattern.vertex_count() == 0 {
        return 0.0;
    }
    let order = matching_order(pattern);
    let anchor = order[0];
    let anchor_candidates =
        reference::candidate_vertices(graph, &pattern.vertex(anchor).constraint);
    let (anchors, scale) = sample_anchors(anchor_candidates, max_anchors, seed);
    let mut total = 0u64;
    let mut assignment: BTreeMap<PatternVertexId, VertexId> = BTreeMap::new();
    for a in anchors {
        assignment.insert(anchor, a);
        total += reference::extend(graph, pattern, &order, 1, &mut assignment);
        assignment.remove(&anchor);
    }
    total as f64 * scale
}

#[cfg(test)]
mod reference {
    use super::*;
    use gopt_gir::pattern::PatternEdge;

    pub(super) fn candidate_vertices(
        graph: &PropertyGraph,
        constraint: &TypeConstraint,
    ) -> Vec<VertexId> {
        let labels: Vec<LabelId> =
            constraint.materialize(&graph.schema().vertex_label_ids().collect::<Vec<_>>());
        let mut out = Vec::new();
        for l in labels {
            out.extend_from_slice(graph.vertices_with_label(l));
        }
        out
    }

    fn edge_matches(
        graph: &PropertyGraph,
        edge: &PatternEdge,
        src: VertexId,
        dst: VertexId,
    ) -> bool {
        debug_assert!(
            edge.path.is_none(),
            "path edges are not counted by the miner"
        );
        let labels: Vec<LabelId> = edge
            .constraint
            .materialize(&graph.schema().edge_label_ids().collect::<Vec<_>>());
        labels.iter().any(|l| graph.has_edge(src, *l, dst))
    }

    pub(super) fn extend(
        graph: &PropertyGraph,
        pattern: &Pattern,
        order: &[PatternVertexId],
        depth: usize,
        assignment: &mut BTreeMap<PatternVertexId, VertexId>,
    ) -> u64 {
        if depth == order.len() {
            return 1;
        }
        let pv = order[depth];
        let vertex = pattern.vertex(pv);
        // collect pattern edges between pv and already-assigned vertices
        let mut back_edges: Vec<&PatternEdge> = Vec::new();
        for eid in pattern.adjacent_edges(pv) {
            let e = pattern.edge(eid);
            let other = if e.src == pv { e.dst } else { e.src };
            if assignment.contains_key(&other) {
                back_edges.push(e);
            }
        }
        // candidate generation: expand from one assigned neighbour if possible, else scan
        let candidates: Vec<VertexId> = if let Some(e) = back_edges.first() {
            let (from_pv, outgoing) = if e.dst == pv {
                (e.src, true)
            } else {
                (e.dst, false)
            };
            let from = assignment[&from_pv];
            let elabels: Vec<LabelId> = e
                .constraint
                .materialize(&graph.schema().edge_label_ids().collect::<Vec<_>>());
            let mut cands: Vec<VertexId> = Vec::new();
            for el in elabels {
                let adj = if outgoing {
                    graph.out_edges_with_label(from, el)
                } else {
                    graph.in_edges_with_label(from, el)
                };
                cands.extend(adj.iter().map(|a| a.neighbor));
            }
            cands.sort_unstable();
            cands.dedup();
            cands
                .into_iter()
                .filter(|c| vertex.constraint.contains(graph.vertex_label(*c)))
                .collect()
        } else {
            candidate_vertices(graph, &vertex.constraint)
        };
        let mut total = 0u64;
        'cand: for c in candidates {
            for e in &back_edges {
                let (s, d) = if e.src == pv {
                    (c, assignment[&e.dst])
                } else {
                    (assignment[&e.src], c)
                };
                if !edge_matches(graph, e, s, d) {
                    continue 'cand;
                }
            }
            assignment.insert(pv, c);
            total += extend(graph, pattern, order, depth + 1, assignment);
            assignment.remove(&pv);
        }
        total
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use gopt_graph::graph::GraphBuilder;
    use gopt_graph::schema::fig6_schema;
    use gopt_graph::PropValue;

    /// Fixed small graph:
    /// persons p0,p1,p2; products q0; places c0
    /// knows: p0->p1, p0->p2, p1->p2
    /// purchases: p0->q0, p1->q0
    /// locatedin: p0->c0, p1->c0, p2->c0
    /// producedin: q0->c0
    fn graph() -> PropertyGraph {
        let schema = fig6_schema();
        let mut b = GraphBuilder::new(schema);
        let p: Vec<_> = (0..3)
            .map(|i| {
                b.add_vertex_by_name("Person", vec![("id", PropValue::Int(i))])
                    .unwrap()
            })
            .collect();
        let q = b.add_vertex_by_name("Product", vec![]).unwrap();
        let c = b.add_vertex_by_name("Place", vec![]).unwrap();
        b.add_edge_by_name("Knows", p[0], p[1], vec![]).unwrap();
        b.add_edge_by_name("Knows", p[0], p[2], vec![]).unwrap();
        b.add_edge_by_name("Knows", p[1], p[2], vec![]).unwrap();
        b.add_edge_by_name("Purchases", p[0], q, vec![]).unwrap();
        b.add_edge_by_name("Purchases", p[1], q, vec![]).unwrap();
        for v in &p {
            b.add_edge_by_name("LocatedIn", *v, c, vec![]).unwrap();
        }
        b.add_edge_by_name("ProducedIn", q, c, vec![]).unwrap();
        b.finish()
    }

    fn labels(
        g: &PropertyGraph,
    ) -> (
        LabelId,
        LabelId,
        LabelId,
        LabelId,
        LabelId,
        LabelId,
        LabelId,
    ) {
        let s = g.schema();
        (
            s.vertex_label("Person").unwrap(),
            s.vertex_label("Product").unwrap(),
            s.vertex_label("Place").unwrap(),
            s.edge_label("Knows").unwrap(),
            s.edge_label("Purchases").unwrap(),
            s.edge_label("LocatedIn").unwrap(),
            s.edge_label("ProducedIn").unwrap(),
        )
    }

    #[test]
    fn single_vertex_and_single_edge_counts() {
        let g = graph();
        let (person, _product, _place, knows, purchases, located, _produced) = labels(&g);
        let mut p = Pattern::new();
        p.add_vertex(TypeConstraint::basic(person));
        assert_eq!(count_homomorphisms(&g, &p), 3.0);

        let mut p = Pattern::new();
        let a = p.add_vertex(TypeConstraint::basic(person));
        let b = p.add_vertex(TypeConstraint::basic(person));
        p.add_edge(a, b, TypeConstraint::basic(knows));
        assert_eq!(count_homomorphisms(&g, &p), 3.0);

        // union edge type: knows or purchases from person
        let mut p = Pattern::new();
        let a = p.add_vertex(TypeConstraint::basic(person));
        let b = p.add_vertex(TypeConstraint::all());
        p.add_edge(a, b, TypeConstraint::union([knows, purchases]));
        assert_eq!(count_homomorphisms(&g, &p), 5.0);

        // all-type edges from person: 3 + 2 + 3 = 8
        let mut p = Pattern::new();
        let a = p.add_vertex(TypeConstraint::basic(person));
        let b = p.add_vertex(TypeConstraint::all());
        p.add_edge(a, b, TypeConstraint::all());
        assert_eq!(count_homomorphisms(&g, &p), 8.0);
        let _ = located;
    }

    #[test]
    fn wedge_and_triangle_counts() {
        let g = graph();
        let (person, _product, place, knows, _purchases, located, _produced) = labels(&g);
        // wedge: (a:Person)-Knows->(b:Person)-LocatedIn->(c:Place)
        let mut p = Pattern::new();
        let a = p.add_vertex(TypeConstraint::basic(person));
        let b = p.add_vertex(TypeConstraint::basic(person));
        let c = p.add_vertex(TypeConstraint::basic(place));
        p.add_edge(a, b, TypeConstraint::basic(knows));
        p.add_edge(b, c, TypeConstraint::basic(located));
        // knows edges: 3, each destination is located in c0 => 3
        assert_eq!(count_homomorphisms(&g, &p), 3.0);

        // triangle: persons a-knows->b, both located in same place
        let mut p = Pattern::new();
        let a = p.add_vertex(TypeConstraint::basic(person));
        let b = p.add_vertex(TypeConstraint::basic(person));
        let c = p.add_vertex(TypeConstraint::basic(place));
        p.add_edge(a, b, TypeConstraint::basic(knows));
        p.add_edge(a, c, TypeConstraint::basic(located));
        p.add_edge(b, c, TypeConstraint::basic(located));
        assert_eq!(count_homomorphisms(&g, &p), 3.0);

        // knows-triangle among persons: p0->p1->p2<-p0 (only one such mapping)
        let mut p = Pattern::new();
        let a = p.add_vertex(TypeConstraint::basic(person));
        let b = p.add_vertex(TypeConstraint::basic(person));
        let c = p.add_vertex(TypeConstraint::basic(person));
        p.add_edge(a, b, TypeConstraint::basic(knows));
        p.add_edge(b, c, TypeConstraint::basic(knows));
        p.add_edge(a, c, TypeConstraint::basic(knows));
        assert_eq!(count_homomorphisms(&g, &p), 1.0);
    }

    #[test]
    fn homomorphism_allows_repeated_vertices() {
        let g = graph();
        let (person, ..) = labels(&g);
        let located = g.schema().edge_label("LocatedIn").unwrap();
        // wedge with the center at the place: two persons located in the same place,
        // homomorphism semantics allows both pattern vertices to map to the same person
        let mut p = Pattern::new();
        let a = p.add_vertex(TypeConstraint::basic(person));
        let b = p.add_vertex(TypeConstraint::basic(person));
        let c = p.add_vertex(TypeConstraint::all());
        p.add_edge(a, c, TypeConstraint::basic(located));
        p.add_edge(b, c, TypeConstraint::basic(located));
        // 3 persons located in c0 -> 3*3 = 9 mappings
        assert_eq!(count_homomorphisms(&g, &p), 9.0);
    }

    #[test]
    fn empty_and_unsatisfiable_patterns() {
        let g = graph();
        assert_eq!(count_homomorphisms(&g, &Pattern::new()), 0.0);
        let (person, product, ..) = labels(&g);
        let knows = g.schema().edge_label("Knows").unwrap();
        // person -knows-> product never exists
        let mut p = Pattern::new();
        let a = p.add_vertex(TypeConstraint::basic(person));
        let b = p.add_vertex(TypeConstraint::basic(product));
        p.add_edge(a, b, TypeConstraint::basic(knows));
        assert_eq!(count_homomorphisms(&g, &p), 0.0);
        // empty constraint set
        let mut p = Pattern::new();
        p.add_vertex(TypeConstraint::Labels(vec![]));
        assert_eq!(count_homomorphisms(&g, &p), 0.0);
    }

    #[test]
    fn sampling_scales_roughly() {
        let g = graph();
        let (person, ..) = labels(&g);
        let mut p = Pattern::new();
        p.add_vertex(TypeConstraint::basic(person));
        // sample 1 of the 3 persons -> scaled back to ~3
        let est = count_homomorphisms_sampled(&g, &p, Some(1), 1);
        assert_eq!(est, 3.0);
        // sampling disabled when the candidate count is below the cap
        let est = count_homomorphisms_sampled(&g, &p, Some(100), 1);
        assert_eq!(est, 3.0);
    }
}
