//! Cardinality estimation: `GlogueQuery::get_freq` for arbitrary patterns.
//!
//! The paper's estimator (Section 6.3.1) handles patterns whose vertices and edges carry
//! *arbitrary* type constraints (BasicType, UnionType, AllType) — something the original
//! GLogS statistics cannot do — by combining:
//!
//! * direct lookups in [`GLogue`] when the pattern is small and basic-typed,
//! * **Eq. 1**: `F(P_t) = F(P_s1) × F(P_s2) / F(P_s1 ∩ P_s2)` for join decompositions, and
//! * **Eq. 2**: `F(P_t) = F(P_s) × Π σ_e` where the *expand ratio* `σ_e` of an edge `e`
//!   is the ratio between the (union-typed) edge frequency and the frequency of its
//!   already-bound endpoint(s).
//!
//! Results are memoized by canonical pattern code, mirroring the paper's description of
//! `GLogueQuery` caching intermediate sub-pattern frequencies.

use crate::glogue::GLogue;
use crate::selectivity::SelectivityEstimator;
use gopt_gir::pattern::{Pattern, PatternVertexId};
use parking_lot::Mutex;
use std::collections::HashMap;

/// Default selectivity applied per filtered pattern element whose predicate no
/// statistics cover (the paper's Remark 7.1 pre-defines a constant selectivity
/// for vertices/edges with filter conditions). This is the **single** source of
/// the constant: the estimator fallback, its tests and the RBO conjunct
/// ordering all reference it, so the magic number cannot drift.
pub const DEFAULT_SELECTIVITY: f64 = 0.1;

/// A cardinality estimator for patterns.
///
/// Two implementations exist: [`GlogueQuery`] (high-order statistics) and
/// [`LowOrderEstimator`] (label counts + independence assumption). The cost-based
/// optimizer is generic over this trait, which is what enables the Fig. 8(d) ablation.
pub trait CardEstimator {
    /// Estimated number of homomorphisms of `pattern`, ignoring predicates.
    fn pattern_freq(&self, pattern: &Pattern) -> f64;

    /// Estimated frequency including the selectivity of each filtered element.
    ///
    /// Each element's predicate is priced by `sel` (histogram-derived when the
    /// caller passes [`crate::StatsSelectivity`]); elements whose predicate the
    /// statistics do not cover fall back to [`DEFAULT_SELECTIVITY`]. Passing
    /// [`crate::ConstSelectivity`] covers nothing, which reproduces the
    /// Remark 7.1 behaviour (`freq × DEFAULT_SELECTIVITY^filters`) bit for
    /// bit.
    fn pattern_freq_with_filters(&self, pattern: &Pattern, sel: &dyn SelectivityEstimator) -> f64 {
        let mut fallbacks = 0i32;
        let mut known = 1.0f64;
        for v in pattern.vertices() {
            if let Some(p) = &v.predicate {
                match sel.vertex_predicate(&v.constraint, p) {
                    Some(s) => known *= s.clamp(0.0, 1.0),
                    None => fallbacks += 1,
                }
            }
        }
        for e in pattern.edges() {
            if let Some(p) = &e.predicate {
                match sel.edge_predicate(&e.constraint, p) {
                    Some(s) => known *= s.clamp(0.0, 1.0),
                    None => fallbacks += 1,
                }
            }
        }
        // `known` starts at exactly 1.0, so the all-fallback case multiplies
        // by DEFAULT_SELECTIVITY.powi(filters) unchanged
        self.pattern_freq(pattern) * (DEFAULT_SELECTIVITY.powi(fallbacks) * known)
    }
}

/// The `getFreq` interface over a [`GLogue`] store (high-order statistics), with
/// memoization of intermediate sub-pattern frequencies.
pub struct GlogueQuery<'a> {
    glogue: &'a GLogue,
    cache: Mutex<HashMap<String, f64>>,
}

impl<'a> GlogueQuery<'a> {
    /// Create a query interface over the given statistics store.
    pub fn new(glogue: &'a GLogue) -> Self {
        GlogueQuery {
            glogue,
            cache: Mutex::new(HashMap::new()),
        }
    }

    /// The underlying statistics store.
    pub fn glogue(&self) -> &GLogue {
        self.glogue
    }

    /// Number of memoized sub-pattern frequencies.
    pub fn cached_entries(&self) -> usize {
        self.cache.lock().len()
    }

    /// Estimated frequency of an arbitrary pattern (Eq. 1 / Eq. 2 decomposition).
    pub fn get_freq(&self, pattern: &Pattern) -> f64 {
        if pattern.vertex_count() == 0 {
            return 0.0;
        }
        let code = pattern.canonical_code();
        if let Some(f) = self.cache.lock().get(&code) {
            return *f;
        }
        let f = self.compute(pattern, &code);
        self.cache.lock().insert(code, f);
        f
    }

    /// Eq. 1: frequency of the join of two sub-patterns given their intersection.
    /// `F(P_t) = F(P_s1) × F(P_s2) / F(P_s1 ∩ P_s2)`; when the intersection is empty the
    /// product is returned (Cartesian combination).
    pub fn join_freq(&self, left: &Pattern, right: &Pattern) -> f64 {
        let f1 = self.get_freq(left);
        let f2 = self.get_freq(right);
        let inter = left.intersection(right);
        if inter.vertex_count() == 0 {
            return f1 * f2;
        }
        let fi = self.get_freq(&inter).max(1.0);
        f1 * f2 / fi
    }

    /// Estimate `pattern`, whose canonical code is `code`.
    fn compute(&self, pattern: &Pattern, code: &str) -> f64 {
        let glogue = self.glogue;
        // no edges: product of vertex-constraint frequencies (usually a single vertex)
        if pattern.edge_count() == 0 {
            return pattern
                .vertices()
                .map(|v| glogue.vertex_constraint_freq(&v.constraint))
                .product();
        }
        // single edge
        if pattern.edge_count() == 1 {
            let e = pattern.edges().next().expect("one edge");
            let src = &pattern.vertex(e.src).constraint;
            let dst = &pattern.vertex(e.dst).constraint;
            let edge_f = glogue.edge_constraint_freq(src, &e.constraint, dst);
            if let Some(spec) = e.path {
                // variable-length path: start from the source frequency and apply the
                // per-hop ratio `hops` times (using the midpoint of the hop range).
                let src_f = glogue.vertex_constraint_freq(src).max(1.0);
                let ratio = edge_f / src_f;
                let hops = f64::from(spec.min_hops + spec.max_hops) / 2.0;
                return src_f * ratio.powf(hops);
            }
            return edge_f;
        }
        // exact lookup for basic-typed patterns within the mined size
        if pattern.vertex_count() <= glogue.max_pattern_vertices()
            && !pattern.has_path_edges()
            && pattern.vertices().all(|v| v.constraint.is_basic())
            && pattern.edges().all(|e| e.constraint.is_basic())
        {
            if let Some(f) = glogue.lookup_code(code) {
                return f;
            }
            // a schema-consistent pattern absent from GLogue genuinely has frequency 0,
            // but fall through to the decomposition to stay robust to sampling misses
        }
        // Eq. 2: remove a non-cut vertex v, estimate the remainder, multiply by the
        // expand ratios of v's incident edges.
        let v = self.pick_removal_vertex(pattern);
        let remainder = pattern.remove_vertex(v);
        let base = self.get_freq(&remainder);
        let mut freq = base;
        let v_freq = glogue
            .vertex_constraint_freq(&pattern.vertex(v).constraint)
            .max(1.0);
        for (i, eid) in pattern.adjacent_edges(v).into_iter().enumerate() {
            let e = pattern.edge(eid);
            let (anchor, _new) = if e.src == v {
                (e.dst, e.src)
            } else {
                (e.src, e.dst)
            };
            let src_c = &pattern.vertex(e.src).constraint;
            let dst_c = &pattern.vertex(e.dst).constraint;
            let edge_f = glogue.edge_constraint_freq(src_c, &e.constraint, dst_c);
            let anchor_f = glogue
                .vertex_constraint_freq(&pattern.vertex(anchor).constraint)
                .max(1.0);
            let hops = e
                .path
                .map(|p| f64::from(p.min_hops + p.max_hops) / 2.0)
                .unwrap_or(1.0);
            let mut sigma = (edge_f / anchor_f).powf(hops);
            if i > 0 {
                // v is already part of the intermediate pattern: closing a cycle
                sigma /= v_freq;
            }
            freq *= sigma;
        }
        freq
    }

    /// Choose a vertex whose removal keeps the remainder connected and non-empty,
    /// preferring low-degree vertices (so the remainder keeps as much mined structure as
    /// possible). A connected pattern always has such a vertex.
    fn pick_removal_vertex(&self, pattern: &Pattern) -> PatternVertexId {
        let mut best: Option<(usize, PatternVertexId)> = None;
        for v in pattern.vertex_ids() {
            let rest = pattern.remove_vertex(v);
            if rest.vertex_count() == 0 || !rest.is_connected() {
                continue;
            }
            let deg = pattern.degree(v);
            if best.is_none_or(|(d, _)| deg < d) {
                best = Some((deg, v));
            }
        }
        best.map(|(_, v)| v)
            .unwrap_or_else(|| pattern.vertex_ids()[0])
    }
}

impl CardEstimator for GlogueQuery<'_> {
    fn pattern_freq(&self, pattern: &Pattern) -> f64 {
        self.get_freq(pattern)
    }
}

/// Baseline estimator using only per-label counts and an independence assumption:
/// `F(P) = Π_v F(v) × Π_e F(e) / (F(src_e) × F(dst_e))`.
///
/// It shares the [`GLogue`] store but deliberately ignores the mined pattern frequencies,
/// which is exactly the "Low-order Stats" configuration of Fig. 8(d).
pub struct LowOrderEstimator<'a> {
    glogue: &'a GLogue,
}

impl<'a> LowOrderEstimator<'a> {
    /// Create a low-order estimator over the same statistics store.
    pub fn new(glogue: &'a GLogue) -> Self {
        LowOrderEstimator { glogue }
    }
}

impl CardEstimator for LowOrderEstimator<'_> {
    fn pattern_freq(&self, pattern: &Pattern) -> f64 {
        if pattern.vertex_count() == 0 {
            return 0.0;
        }
        let mut freq: f64 = pattern
            .vertices()
            .map(|v| self.glogue.vertex_constraint_freq(&v.constraint))
            .product();
        for e in pattern.edges() {
            let src = &pattern.vertex(e.src).constraint;
            let dst = &pattern.vertex(e.dst).constraint;
            let edge_f = self.glogue.edge_constraint_freq(src, &e.constraint, dst);
            let src_f = self.glogue.vertex_constraint_freq(src).max(1.0);
            let dst_f = self.glogue.vertex_constraint_freq(dst).max(1.0);
            let hops = e
                .path
                .map(|p| f64::from(p.min_hops + p.max_hops) / 2.0)
                .unwrap_or(1.0);
            freq *= (edge_f / (src_f * dst_f)).powf(hops);
        }
        freq
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::glogue::GLogueConfig;
    use crate::mining::count_homomorphisms;
    use gopt_gir::pattern::PathSpec;
    use gopt_gir::types::TypeConstraint;
    use gopt_gir::Expr;
    use gopt_graph::generator::{random_graph, RandomGraphConfig};
    use gopt_graph::schema::fig6_schema;
    use gopt_graph::LabelId;

    struct Fig6 {
        glogue: GLogue,
        person: LabelId,
        product: LabelId,
        place: LabelId,
        knows: LabelId,
        purchases: LabelId,
        located: LabelId,
        produced: LabelId,
    }

    /// The paper's Fig. 6(a) GLogue.
    fn fig6_glogue() -> Fig6 {
        let schema = fig6_schema();
        let person = schema.vertex_label("Person").unwrap();
        let product = schema.vertex_label("Product").unwrap();
        let place = schema.vertex_label("Place").unwrap();
        let knows = schema.edge_label("Knows").unwrap();
        let purchases = schema.edge_label("Purchases").unwrap();
        let located = schema.edge_label("LocatedIn").unwrap();
        let produced = schema.edge_label("ProducedIn").unwrap();
        let glogue = GLogue::from_counts(
            schema,
            vec![(person, 10.0), (product, 20.0), (place, 5.0)],
            vec![
                (person, knows, person, 40.0),
                (person, purchases, product, 30.0),
                (person, located, place, 10.0),
                (product, produced, place, 20.0),
            ],
        );
        Fig6 {
            glogue,
            person,
            product,
            place,
            knows,
            purchases,
            located,
            produced,
        }
    }

    /// Build the paper's target pattern of Fig. 6(d): the triangle
    /// (v1:Person)-[Knows|Purchases]->(v2:Person|Product),
    /// (v2)-[LocatedIn|ProducedIn]->(v3:Place), (v1)-[LocatedIn]->(v3).
    fn fig6_target(f: &Fig6) -> Pattern {
        let mut p = Pattern::new();
        let v1 = p.add_vertex(TypeConstraint::basic(f.person));
        let v2 = p.add_vertex(TypeConstraint::union([f.person, f.product]));
        let v3 = p.add_vertex(TypeConstraint::basic(f.place));
        p.add_edge(v1, v2, TypeConstraint::union([f.knows, f.purchases]));
        p.add_edge(v2, v3, TypeConstraint::union([f.located, f.produced]));
        p.add_edge(v1, v3, TypeConstraint::basic(f.located));
        p
    }

    #[test]
    fn reproduces_paper_example_6_2() {
        let f = fig6_glogue();
        let q = GlogueQuery::new(&f.glogue);
        // source pattern Ps: (v1:Person)-[Knows|Purchases]->(v2:Person|Product), F = 70
        let mut ps = Pattern::new();
        let v1 = ps.add_vertex(TypeConstraint::basic(f.person));
        let v2 = ps.add_vertex(TypeConstraint::union([f.person, f.product]));
        ps.add_edge(v1, v2, TypeConstraint::union([f.knows, f.purchases]));
        assert_eq!(q.get_freq(&ps), 70.0);
        // the full target pattern estimates to 70 × 1.0 × 0.2 = 14
        let pt = fig6_target(&f);
        let est = q.get_freq(&pt);
        assert!((est - 14.0).abs() < 1e-6, "estimated {est}, expected 14");
        // memoization kicks in
        assert!(q.cached_entries() > 0);
        assert_eq!(q.get_freq(&pt), est);
        assert!(std::ptr::eq(q.glogue(), &f.glogue));
    }

    #[test]
    fn single_vertex_and_single_edge_frequencies() {
        let f = fig6_glogue();
        let q = GlogueQuery::new(&f.glogue);
        let mut p = Pattern::new();
        p.add_vertex(TypeConstraint::basic(f.person));
        assert_eq!(q.get_freq(&p), 10.0);
        let mut p = Pattern::new();
        p.add_vertex(TypeConstraint::all());
        assert_eq!(q.get_freq(&p), 35.0);
        let mut p = Pattern::new();
        let a = p.add_vertex(TypeConstraint::all());
        let b = p.add_vertex(TypeConstraint::basic(f.place));
        p.add_edge(a, b, TypeConstraint::all());
        // LocatedIn(10) + ProducedIn(20)
        assert_eq!(q.get_freq(&p), 30.0);
        assert_eq!(q.get_freq(&Pattern::new()), 0.0);
    }

    #[test]
    fn join_freq_follows_eq1() {
        let f = fig6_glogue();
        let q = GlogueQuery::new(&f.glogue);
        let pt = fig6_target(&f);
        let eids = pt.edge_ids();
        // split the triangle into {e0,e1} and {e2}
        let left = pt.induced_by_edges(&[eids[0], eids[1]].into_iter().collect());
        let right = pt.induced_by_edges(&[eids[2]].into_iter().collect());
        let f_left = q.get_freq(&left);
        let f_right = q.get_freq(&right);
        let inter = left.intersection(&right);
        let f_inter = q.get_freq(&inter).max(1.0);
        assert!((q.join_freq(&left, &right) - f_left * f_right / f_inter).abs() < 1e-9);
        // disjoint sub-patterns (of the same parent) multiply
        let v1_only = pt.single_vertex(pt.vertex_ids()[0]); // Person, F = 10
        let v3_only = pt.single_vertex(pt.vertex_ids()[2]); // Place, F = 5
        assert_eq!(q.join_freq(&v1_only, &v3_only), 50.0);
    }

    #[test]
    fn filters_apply_default_selectivity() {
        let f = fig6_glogue();
        let q = GlogueQuery::new(&f.glogue);
        let mut p = fig6_target(&f);
        let v3 = p.vertex_ids()[2];
        p.vertex_mut(v3).predicate = Some(Expr::prop_eq("v3", "name", "China"));
        let unfiltered = q.pattern_freq(&p);
        // without stats every filtered element gets the Remark 7.1 constant,
        // bit-identical to freq * DEFAULT_SELECTIVITY^filters
        let filtered = q.pattern_freq_with_filters(&p, &crate::ConstSelectivity);
        assert_eq!(filtered, unfiltered * DEFAULT_SELECTIVITY.powi(1));
        let e0 = p.edge_ids()[0];
        p.edge_mut(e0).predicate = Some(Expr::prop_eq("e0", "w", 1));
        let two = q.pattern_freq_with_filters(&p, &crate::ConstSelectivity);
        assert_eq!(two, q.pattern_freq(&p) * DEFAULT_SELECTIVITY.powi(2));
    }

    #[test]
    fn filters_use_stats_when_they_cover_the_predicate() {
        use gopt_graph::graph::GraphBuilder;
        use gopt_graph::{GraphStats, PropValue};
        // 10 Places, one named China; Person.age dense 0..50
        let mut b = GraphBuilder::new(fig6_schema());
        for i in 0..50i64 {
            b.add_vertex_by_name("Person", vec![("age", PropValue::Int(i))])
                .unwrap();
        }
        for i in 0..10 {
            let name = if i == 0 { "China" } else { "Else" };
            b.add_vertex_by_name("Place", vec![("name", PropValue::str(name))])
                .unwrap();
        }
        let g = b.finish();
        let stats = crate::StatsSelectivity::new(GraphStats::shared(&g));
        let f = fig6_glogue();
        let q = GlogueQuery::new(&f.glogue);
        let place = f.glogue.schema().vertex_label("Place").unwrap();
        let mut p = Pattern::new();
        let v = p.add_vertex(TypeConstraint::basic(place));
        p.vertex_mut(v).predicate = Some(Expr::prop_eq("v", "name", "China"));
        let base = q.pattern_freq(&p);
        let with = q.pattern_freq_with_filters(&p, &stats);
        assert!(
            (with - base * 0.1).abs() < 1e-9,
            "1 of 10 places is China: {with} vs {}",
            base * 0.1
        );
        // a predicate the stats cannot cover still falls back to the constant
        p.vertex_mut(v).predicate = Some(Expr::binary(
            gopt_gir::BinOp::Lt,
            Expr::prop("v", "name"),
            Expr::prop("v", "id"),
        ));
        let fallback = q.pattern_freq_with_filters(&p, &stats);
        assert_eq!(fallback, base * DEFAULT_SELECTIVITY.powi(1));
    }

    #[test]
    fn path_edges_estimate_multiplicatively() {
        let f = fig6_glogue();
        let q = GlogueQuery::new(&f.glogue);
        let mut p = Pattern::new();
        let a = p.add_vertex(TypeConstraint::basic(f.person));
        let b = p.add_vertex(TypeConstraint::basic(f.person));
        p.add_edge_full(
            a,
            b,
            None,
            TypeConstraint::basic(f.knows),
            None,
            Some(PathSpec::exact(3)),
        );
        // per-hop ratio = 40/10 = 4; 10 * 4^3 = 640
        assert!((q.get_freq(&p) - 640.0).abs() < 1e-6);
    }

    #[test]
    fn high_order_beats_low_order_on_correlated_graph() {
        // Build a graph where Person-Knows->Person pairs are always co-located, a
        // correlation only the 3-vertex statistics can see.
        let schema = fig6_schema();
        let g = random_graph(
            &schema,
            &RandomGraphConfig {
                vertices_per_label: 30,
                edges_per_endpoint: 120,
                seed: 11,
            },
        );
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
        let knows = schema.edge_label("Knows").unwrap();
        let located = schema.edge_label("LocatedIn").unwrap();
        // the triangle pattern person-knows-person co-located
        let mut p = Pattern::new();
        let a = p.add_vertex(TypeConstraint::basic(person));
        let b = p.add_vertex(TypeConstraint::basic(person));
        let c = p.add_vertex(TypeConstraint::basic(place));
        p.add_edge(a, b, TypeConstraint::basic(knows));
        p.add_edge(a, c, TypeConstraint::basic(located));
        p.add_edge(b, c, TypeConstraint::basic(located));
        let actual = count_homomorphisms(&g, &p);
        let hi = GlogueQuery::new(&gl).pattern_freq(&p);
        let lo = LowOrderEstimator::new(&gl).pattern_freq(&p);
        let err = |est: f64| ((est.max(1.0)) / actual.max(1.0)).max(actual.max(1.0) / est.max(1.0));
        assert!(
            err(hi) <= err(lo) + 1e-9,
            "high-order error {} should not exceed low-order error {} (actual {actual}, hi {hi}, lo {lo})",
            err(hi),
            err(lo)
        );
        // the triangle is stored, so the high-order estimate is exact
        assert!((hi - actual).abs() < 1e-6);
    }

    #[test]
    fn low_order_estimator_basicproperties() {
        let f = fig6_glogue();
        let lo = LowOrderEstimator::new(&f.glogue);
        let mut p = Pattern::new();
        p.add_vertex(TypeConstraint::basic(f.person));
        assert_eq!(lo.pattern_freq(&p), 10.0);
        let mut p = Pattern::new();
        let a = p.add_vertex(TypeConstraint::basic(f.person));
        let b = p.add_vertex(TypeConstraint::basic(f.person));
        p.add_edge(a, b, TypeConstraint::basic(f.knows));
        // 10 * 10 * (40 / (10*10)) = 40 : exact for a single edge
        assert_eq!(lo.pattern_freq(&p), 40.0);
        assert_eq!(lo.pattern_freq(&Pattern::new()), 0.0);
    }
}
