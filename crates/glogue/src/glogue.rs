//! The GLogue high-order statistics store.
//!
//! GLogue pre-computes the frequencies of all schema-consistent small patterns (motifs)
//! with **basic types**, up to a configurable number of vertices (`k = 3` by default,
//! matching the paper). These high-order statistics capture label correlations that
//! per-label counts cannot (e.g. "Persons who know each other are usually located in the
//! same Country"), which is what makes cardinality estimation for complex patterns
//! accurate (Fig. 8(d) of the paper).
//!
//! Patterns are keyed by their [`canonical code`](gopt_gir::pattern::Pattern::canonical_code),
//! so lookups are invariant to how the query pattern happens to number its vertices.

use crate::mining::count_homomorphisms_sampled;
use gopt_gir::pattern::Pattern;
use gopt_gir::types::TypeConstraint;
use gopt_graph::{GraphSchema, LabelId, PropertyGraph};
use std::collections::{HashMap, HashSet};

/// A homomorphism counter with anchor sampling, as
/// [`count_homomorphisms_sampled`].
type Counter = fn(&PropertyGraph, &Pattern, Option<usize>, u64) -> f64;

/// Configuration for building a [`GLogue`] from a data graph.
#[derive(Debug, Clone)]
pub struct GLogueConfig {
    /// Maximum number of vertices of the mined patterns (the paper's `k`). Patterns of
    /// size 1 and 2 are always included; `3` adds wedges and triangles.
    pub max_pattern_vertices: usize,
    /// Anchor-sampling cap used while counting size-3 patterns; `None` counts exactly.
    /// This plays the role of GLogS's graph sparsification for large graphs.
    pub max_anchors: Option<usize>,
    /// RNG seed for anchor sampling.
    pub seed: u64,
}

impl Default for GLogueConfig {
    fn default() -> Self {
        GLogueConfig {
            max_pattern_vertices: 3,
            max_anchors: Some(2_000),
            seed: 0x610906,
        }
    }
}

/// The high-order statistics store.
#[derive(Debug, Clone)]
pub struct GLogue {
    schema: GraphSchema,
    vertex_counts: Vec<f64>,
    edge_counts: Vec<f64>,
    /// Distinct connected (src, dst) pair counts per (src label, edge label, dst label).
    typed_pair_counts: HashMap<(LabelId, LabelId, LabelId), f64>,
    /// Frequencies of mined patterns keyed by canonical code.
    pattern_freqs: HashMap<String, f64>,
    max_pattern_vertices: usize,
}

impl GLogue {
    /// Build the statistics by mining the data graph.
    pub fn build(graph: &PropertyGraph, config: &GLogueConfig) -> Self {
        let schema = graph.schema().clone();
        let mut vertex_counts = vec![0.0; schema.vertex_label_count()];
        for l in schema.vertex_label_ids() {
            vertex_counts[l.index()] = graph.vertex_count_by_label(l) as f64;
        }
        let mut edge_counts = vec![0.0; schema.edge_label_count()];
        for l in schema.edge_label_ids() {
            edge_counts[l.index()] = graph.edge_count_by_label(l) as f64;
        }
        // distinct connected pairs per (src label, edge label, dst label): each CSR
        // (vertex, label) segment is sorted by neighbour, so distinct neighbours per
        // label are a linear scan of the segment.
        let mut typed_pair_counts: HashMap<(LabelId, LabelId, LabelId), f64> = HashMap::new();
        for u in graph.vertex_ids() {
            let ul = graph.vertex_label(u);
            for el in schema.edge_label_ids() {
                let mut prev = None;
                for a in graph.out_edges_with_label(u, el) {
                    if prev != Some(a.neighbor) {
                        let nl = graph.vertex_label(a.neighbor);
                        *typed_pair_counts.entry((ul, el, nl)).or_insert(0.0) += 1.0;
                        prev = Some(a.neighbor);
                    }
                }
            }
        }
        let mut glogue = GLogue {
            schema,
            vertex_counts,
            edge_counts,
            typed_pair_counts,
            pattern_freqs: HashMap::new(),
            max_pattern_vertices: config.max_pattern_vertices,
        };
        glogue.seed_small_patterns();
        if config.max_pattern_vertices >= 3 {
            glogue.mine_size3(graph, config, count_homomorphisms_sampled);
        }
        glogue
    }

    /// [`GLogue::build`] with the size-3 patterns counted by the reference miner.
    #[cfg(test)]
    fn build_reference(graph: &PropertyGraph, config: &GLogueConfig) -> Self {
        let mut glogue = GLogue::build(
            graph,
            &GLogueConfig {
                max_pattern_vertices: 2,
                ..config.clone()
            },
        );
        glogue.max_pattern_vertices = config.max_pattern_vertices;
        if config.max_pattern_vertices >= 3 {
            glogue.mine_size3(
                graph,
                config,
                crate::mining::count_homomorphisms_sampled_reference,
            );
        }
        glogue
    }

    /// Build a GLogue directly from known counts, without a data graph.
    ///
    /// Used by tests (e.g. to reproduce the paper's Fig. 6 example) and by deployments
    /// that import statistics computed elsewhere. Size-1/2 pattern frequencies are seeded
    /// from the provided counts; size-3 frequencies can be added with [`GLogue::insert`].
    pub fn from_counts(
        schema: GraphSchema,
        vertex_counts: Vec<(LabelId, f64)>,
        typed_edge_counts: Vec<(LabelId, LabelId, LabelId, f64)>,
    ) -> Self {
        let mut vc = vec![0.0; schema.vertex_label_count()];
        for (l, c) in vertex_counts {
            vc[l.index()] = c;
        }
        let mut ec = vec![0.0; schema.edge_label_count()];
        let mut typed = HashMap::new();
        for (s, e, d, c) in typed_edge_counts {
            typed.insert((s, e, d), c);
            ec[e.index()] += c;
        }
        let mut glogue = GLogue {
            schema,
            vertex_counts: vc,
            edge_counts: ec,
            typed_pair_counts: typed,
            pattern_freqs: HashMap::new(),
            max_pattern_vertices: 2,
        };
        glogue.seed_small_patterns();
        glogue
    }

    /// Insert (or override) the frequency of a pattern, keyed by its canonical code.
    pub fn insert(&mut self, pattern: &Pattern, freq: f64) {
        self.pattern_freqs.insert(pattern.canonical_code(), freq);
        self.max_pattern_vertices = self.max_pattern_vertices.max(pattern.vertex_count());
    }

    fn seed_small_patterns(&mut self) {
        // size-1 patterns
        for l in self.schema.vertex_label_ids() {
            let mut p = Pattern::new();
            p.add_vertex(TypeConstraint::basic(l));
            self.pattern_freqs
                .insert(p.canonical_code(), self.vertex_counts[l.index()]);
        }
        // size-2 patterns from typed pair counts
        let entries: Vec<((LabelId, LabelId, LabelId), f64)> = self
            .typed_pair_counts
            .iter()
            .map(|(k, v)| (*k, *v))
            .collect();
        for ((s, e, d), c) in entries {
            let mut p = Pattern::new();
            let a = p.add_vertex(TypeConstraint::basic(s));
            let b = p.add_vertex(TypeConstraint::basic(d));
            p.add_edge(a, b, TypeConstraint::basic(e));
            self.pattern_freqs.insert(p.canonical_code(), c);
        }
    }

    /// Enumerate and count all schema-consistent 3-vertex basic-typed patterns
    /// (wedges and triangles) present in the schema.
    fn mine_size3(&mut self, graph: &PropertyGraph, config: &GLogueConfig, count: Counter) {
        let mut seen: HashSet<String> = HashSet::new();
        let patterns = enumerate_size3_patterns(&self.schema);
        for p in patterns {
            let code = p.canonical_code();
            if !seen.insert(code.clone()) {
                continue;
            }
            let freq = count(graph, &p, config.max_anchors, config.seed);
            if freq > 0.0 {
                self.pattern_freqs.insert(code, freq);
            }
        }
    }

    /// The schema the statistics were computed against.
    pub fn schema(&self) -> &GraphSchema {
        &self.schema
    }

    /// The largest pattern size stored.
    pub fn max_pattern_vertices(&self) -> usize {
        self.max_pattern_vertices
    }

    /// Number of stored pattern frequencies.
    pub fn pattern_count(&self) -> usize {
        self.pattern_freqs.len()
    }

    /// Frequency of a vertex label.
    pub fn vertex_freq(&self, label: LabelId) -> f64 {
        self.vertex_counts
            .get(label.index())
            .copied()
            .unwrap_or(0.0)
    }

    /// Total number of vertices.
    pub fn total_vertex_freq(&self) -> f64 {
        self.vertex_counts.iter().sum()
    }

    /// Frequency (raw edge count) of an edge label.
    pub fn edge_freq(&self, label: LabelId) -> f64 {
        self.edge_counts.get(label.index()).copied().unwrap_or(0.0)
    }

    /// Frequency of `(src_label)-[edge_label]->(dst_label)` connected pairs.
    pub fn typed_edge_freq(&self, src: LabelId, edge: LabelId, dst: LabelId) -> f64 {
        self.typed_pair_counts
            .get(&(src, edge, dst))
            .copied()
            .unwrap_or(0.0)
    }

    /// Look up the stored frequency of a pattern (by canonical code).
    pub fn lookup(&self, pattern: &Pattern) -> Option<f64> {
        self.lookup_code(&pattern.canonical_code())
    }

    /// Look up a stored frequency by an already computed
    /// [`canonical code`](Pattern::canonical_code).
    pub fn lookup_code(&self, code: &str) -> Option<f64> {
        self.pattern_freqs.get(code).copied()
    }

    /// Sum of vertex frequencies admitted by a constraint.
    pub fn vertex_constraint_freq(&self, constraint: &TypeConstraint) -> f64 {
        match constraint.as_labels() {
            None => self.total_vertex_freq(),
            Some(labels) => labels.iter().map(|l| self.vertex_freq(*l)).sum(),
        }
    }

    /// Sum of typed-pair frequencies over all `(src, edge, dst)` triples admitted by the
    /// given constraints and the schema.
    pub fn edge_constraint_freq(
        &self,
        src: &TypeConstraint,
        edge: &TypeConstraint,
        dst: &TypeConstraint,
    ) -> f64 {
        // one running sum over labels (AllType in schema order), then endpoints
        let mut total = 0.0;
        let mut add = |el: LabelId| {
            for &(s, d) in self.schema.edge_endpoints(el) {
                if src.contains(s) && dst.contains(d) {
                    total += self.typed_edge_freq(s, el, d);
                }
            }
        };
        match edge.as_labels() {
            None => self.schema.edge_label_ids().for_each(&mut add),
            Some(labels) => labels.iter().copied().for_each(&mut add),
        }
        total
    }
}

/// Enumerate all 3-vertex basic-typed patterns (wedges and triangles) permitted by the
/// schema. Duplicates (up to canonical equivalence) may be produced; callers de-duplicate.
fn enumerate_size3_patterns(schema: &GraphSchema) -> Vec<Pattern> {
    // branch = (edge label, outgoing?, other vertex label), relative to a center label
    let branches = |center: LabelId| -> Vec<(LabelId, bool, LabelId)> {
        let mut out = Vec::new();
        for el in schema.edge_label_ids() {
            for &(s, d) in schema.edge_endpoints(el) {
                if s == center {
                    out.push((el, true, d));
                }
                if d == center {
                    out.push((el, false, s));
                }
            }
        }
        out
    };
    let mut patterns = Vec::new();
    // wedges: center + two branches (unordered, with repetition)
    for center in schema.vertex_label_ids() {
        let bs = branches(center);
        for i in 0..bs.len() {
            for j in i..bs.len() {
                let mut p = Pattern::new();
                let c = p.add_vertex(TypeConstraint::basic(center));
                for &(el, outgoing, other) in [&bs[i], &bs[j]] {
                    let o = p.add_vertex(TypeConstraint::basic(other));
                    if outgoing {
                        p.add_edge(c, o, TypeConstraint::basic(el));
                    } else {
                        p.add_edge(o, c, TypeConstraint::basic(el));
                    }
                }
                patterns.push(p);
            }
        }
    }
    // triangles: three vertex labels and one connecting option per side
    let vlabels: Vec<LabelId> = schema.vertex_label_ids().collect();
    let side_options = |x: LabelId, y: LabelId| -> Vec<(LabelId, bool)> {
        // (edge label, true if x -> y else y -> x)
        let mut out = Vec::new();
        for el in schema.edge_label_ids() {
            for &(s, d) in schema.edge_endpoints(el) {
                if s == x && d == y {
                    out.push((el, true));
                }
                if s == y && d == x {
                    out.push((el, false));
                }
            }
        }
        out
    };
    for &la in &vlabels {
        for &lb in &vlabels {
            for &lc in &vlabels {
                let ab = side_options(la, lb);
                let bc = side_options(lb, lc);
                let ac = side_options(la, lc);
                if ab.is_empty() || bc.is_empty() || ac.is_empty() {
                    continue;
                }
                for &(e_ab, d_ab) in &ab {
                    for &(e_bc, d_bc) in &bc {
                        for &(e_ac, d_ac) in &ac {
                            let mut p = Pattern::new();
                            let a = p.add_vertex(TypeConstraint::basic(la));
                            let b = p.add_vertex(TypeConstraint::basic(lb));
                            let c = p.add_vertex(TypeConstraint::basic(lc));
                            let mut add = |x, y, el, fwd: bool| {
                                if fwd {
                                    p.add_edge(x, y, TypeConstraint::basic(el));
                                } else {
                                    p.add_edge(y, x, TypeConstraint::basic(el));
                                }
                            };
                            add(a, b, e_ab, d_ab);
                            add(b, c, e_bc, d_bc);
                            add(a, c, e_ac, d_ac);
                            patterns.push(p);
                        }
                    }
                }
            }
        }
    }
    patterns
}

#[cfg(test)]
mod tests {
    use super::*;
    use gopt_graph::generator::{random_graph, RandomGraphConfig};
    use gopt_graph::graph::GraphBuilder;
    use gopt_graph::schema::fig6_schema;

    fn small_graph() -> PropertyGraph {
        let schema = fig6_schema();
        let mut b = GraphBuilder::new(schema);
        let p: Vec<_> = (0..3)
            .map(|_| b.add_vertex_by_name("Person", vec![]).unwrap())
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

    #[test]
    fn low_order_counts_are_exact() {
        let g = small_graph();
        let gl = GLogue::build(&g, &GLogueConfig::default());
        let s = g.schema();
        let person = s.vertex_label("Person").unwrap();
        let product = s.vertex_label("Product").unwrap();
        let place = s.vertex_label("Place").unwrap();
        let knows = s.edge_label("Knows").unwrap();
        let located = s.edge_label("LocatedIn").unwrap();
        assert_eq!(gl.vertex_freq(person), 3.0);
        assert_eq!(gl.vertex_freq(product), 1.0);
        assert_eq!(gl.total_vertex_freq(), 5.0);
        assert_eq!(gl.edge_freq(knows), 3.0);
        assert_eq!(gl.typed_edge_freq(person, knows, person), 3.0);
        assert_eq!(gl.typed_edge_freq(person, located, place), 3.0);
        assert_eq!(gl.typed_edge_freq(place, located, person), 0.0);
        assert_eq!(
            gl.vertex_constraint_freq(&TypeConstraint::union([person, product])),
            4.0
        );
        assert_eq!(gl.vertex_constraint_freq(&TypeConstraint::all()), 5.0);
        assert_eq!(
            gl.edge_constraint_freq(
                &TypeConstraint::basic(person),
                &TypeConstraint::all(),
                &TypeConstraint::all()
            ),
            3.0 + 2.0 + 3.0
        );
    }

    #[test]
    fn mined_patterns_include_wedges_and_triangles() {
        let g = small_graph();
        let gl = GLogue::build(&g, &GLogueConfig::default());
        let s = g.schema();
        let person = s.vertex_label("Person").unwrap();
        let place = s.vertex_label("Place").unwrap();
        let knows = s.edge_label("Knows").unwrap();
        let located = s.edge_label("LocatedIn").unwrap();
        assert!(gl.pattern_count() > 5);
        assert_eq!(gl.max_pattern_vertices(), 3);
        // wedge (a:Person)-Knows->(b:Person)-LocatedIn->(c:Place) has 3 homomorphisms
        let mut p = Pattern::new();
        let a = p.add_vertex(TypeConstraint::basic(person));
        let b = p.add_vertex(TypeConstraint::basic(person));
        let c = p.add_vertex(TypeConstraint::basic(place));
        p.add_edge(a, b, TypeConstraint::basic(knows));
        p.add_edge(b, c, TypeConstraint::basic(located));
        assert_eq!(gl.lookup(&p), Some(3.0));
        // triangle person-knows-person both located in place: 3 mappings
        let mut t = Pattern::new();
        let a = t.add_vertex(TypeConstraint::basic(person));
        let b = t.add_vertex(TypeConstraint::basic(person));
        let c = t.add_vertex(TypeConstraint::basic(place));
        t.add_edge(a, b, TypeConstraint::basic(knows));
        t.add_edge(a, c, TypeConstraint::basic(located));
        t.add_edge(b, c, TypeConstraint::basic(located));
        assert_eq!(gl.lookup(&t), Some(3.0));
        // a pattern that does not occur is absent
        let mut z = Pattern::new();
        let a = z.add_vertex(TypeConstraint::basic(place));
        let b = z.add_vertex(TypeConstraint::basic(place));
        z.add_edge(a, b, TypeConstraint::basic(knows));
        assert_eq!(gl.lookup(&z), None);
    }

    /// The planned miner must reproduce the reference miner bit for bit: on every
    /// size-3 pattern `GLogue::build` enumerates, and on the whole frequency map.
    fn assert_miner_matches_reference(g: &PropertyGraph, config: &GLogueConfig) {
        let mut seen = HashSet::new();
        let mut counted = 0;
        for p in enumerate_size3_patterns(g.schema()) {
            if !seen.insert(p.canonical_code()) {
                continue;
            }
            let new = count_homomorphisms_sampled(g, &p, config.max_anchors, config.seed);
            let old = crate::mining::count_homomorphisms_sampled_reference(
                g,
                &p,
                config.max_anchors,
                config.seed,
            );
            assert_eq!(new.to_bits(), old.to_bits(), "{p}: {new} vs {old}");
            counted += usize::from(new > 0.0);
        }
        assert!(counted > 0, "the graph must contain size-3 patterns");
        let built = GLogue::build(g, config);
        let reference = GLogue::build_reference(g, config);
        assert_eq!(built.pattern_freqs, reference.pattern_freqs);
        assert_eq!(built.max_pattern_vertices, reference.max_pattern_vertices);
    }

    #[test]
    fn planned_miner_matches_reference_on_ldbc() {
        let g = gopt_workloads::generate_ldbc_graph(&gopt_workloads::LdbcScale {
            persons: 120,
            seed: 42,
        });
        for max_anchors in [Some(500), None] {
            let config = GLogueConfig {
                max_pattern_vertices: 3,
                max_anchors,
                seed: 9,
            };
            assert_miner_matches_reference(&g, &config);
        }
    }

    #[test]
    fn planned_miner_matches_reference_on_fig6_random_graph() {
        let g = random_graph(
            &fig6_schema(),
            &RandomGraphConfig {
                vertices_per_label: 15,
                edges_per_endpoint: 40,
                seed: 3,
            },
        );
        for max_anchors in [Some(7), None] {
            let config = GLogueConfig {
                max_pattern_vertices: 3,
                max_anchors,
                seed: 5,
            };
            assert_miner_matches_reference(&g, &config);
        }
    }

    #[test]
    fn from_counts_reproduces_paper_fig6_glogue() {
        // Fig. 6(a): Person:10, Product:20, Place:5; Knows:40, Purchases:30,
        // LocatedIn:10, ProducedIn:20
        let schema = fig6_schema();
        let person = schema.vertex_label("Person").unwrap();
        let product = schema.vertex_label("Product").unwrap();
        let place = schema.vertex_label("Place").unwrap();
        let knows = schema.edge_label("Knows").unwrap();
        let purchases = schema.edge_label("Purchases").unwrap();
        let located = schema.edge_label("LocatedIn").unwrap();
        let produced = schema.edge_label("ProducedIn").unwrap();
        let gl = GLogue::from_counts(
            schema.clone(),
            vec![(person, 10.0), (product, 20.0), (place, 5.0)],
            vec![
                (person, knows, person, 40.0),
                (person, purchases, product, 30.0),
                (person, located, place, 10.0),
                (product, produced, place, 20.0),
            ],
        );
        assert_eq!(gl.vertex_freq(person), 10.0);
        assert_eq!(gl.edge_freq(knows), 40.0);
        assert_eq!(gl.typed_edge_freq(person, purchases, product), 30.0);
        // union-typed edge frequency (the paper's Ps): Knows|Purchases from Person = 70
        let f = gl.edge_constraint_freq(
            &TypeConstraint::basic(person),
            &TypeConstraint::union([knows, purchases]),
            &TypeConstraint::union([person, product]),
        );
        assert_eq!(f, 70.0);
        // insert a synthetic 3-vertex frequency and read it back
        let mut p = Pattern::new();
        let a = p.add_vertex(TypeConstraint::basic(person));
        let b = p.add_vertex(TypeConstraint::basic(person));
        let c = p.add_vertex(TypeConstraint::basic(place));
        p.add_edge(a, b, TypeConstraint::basic(knows));
        p.add_edge(b, c, TypeConstraint::basic(located));
        let mut gl = gl;
        gl.insert(&p, 25.0);
        assert_eq!(gl.lookup(&p), Some(25.0));
        assert_eq!(gl.max_pattern_vertices(), 3);
    }

    #[test]
    fn build_on_random_graph_is_consistent_with_exact_counts() {
        let schema = fig6_schema();
        let g = random_graph(
            &schema,
            &RandomGraphConfig {
                vertices_per_label: 15,
                edges_per_endpoint: 40,
                seed: 3,
            },
        );
        // no sampling -> stored frequencies must equal exact homomorphism counts
        let gl = GLogue::build(
            &g,
            &GLogueConfig {
                max_pattern_vertices: 3,
                max_anchors: None,
                seed: 0,
            },
        );
        let person = schema.vertex_label("Person").unwrap();
        let place = schema.vertex_label("Place").unwrap();
        let located = schema.edge_label("LocatedIn").unwrap();
        let knows = schema.edge_label("Knows").unwrap();
        let mut p = Pattern::new();
        let a = p.add_vertex(TypeConstraint::basic(person));
        let b = p.add_vertex(TypeConstraint::basic(person));
        let c = p.add_vertex(TypeConstraint::basic(place));
        p.add_edge(a, b, TypeConstraint::basic(knows));
        p.add_edge(b, c, TypeConstraint::basic(located));
        let exact = crate::mining::count_homomorphisms(&g, &p);
        if exact > 0.0 {
            assert_eq!(gl.lookup(&p), Some(exact));
        } else {
            assert_eq!(gl.lookup(&p), None);
        }
    }
}
