//! Criterion micro-benchmarks of the statistics layer: GLogue construction (k=2 vs k=3,
//! the ablation of DESIGN.md), cardinality estimation for union-typed patterns, the
//! canonical pattern code the estimator memoizes on (3-, 5- and 7-vertex sub-patterns of
//! QC4a) and one cold `GOpt::optimize` of QC4a, whose time is mostly spent pricing
//! sub-patterns through those codes.
//!
//! After timing, the invariant-pruned `Pattern::canonical_code` is checked against a
//! brute force over all vertex orderings on every connected sub-pattern of QC4a: two
//! sub-patterns must share a code exactly when their brute-force codes are equal.
//!
//! Set `GOPT_BENCH_SMOKE=1` to run the whole file in test mode (tiny graph, same code
//! paths) — CI uses this to keep the bench and its correctness check from bit-rotting.

use criterion::{criterion_group, criterion_main, Criterion};
use gopt_bench::{cypher, gopt_plan, Env, Target};
use gopt_core::GOptConfig;
use gopt_gir::pattern::{Pattern, PatternEdgeId};
use gopt_glogue::{CardEstimator, GLogue, GLogueConfig, GlogueQuery, LowOrderEstimator};
use gopt_workloads::qc_queries;
use std::collections::{BTreeSet, HashMap};

fn smoke() -> bool {
    std::env::var("GOPT_BENCH_SMOKE").is_ok_and(|v| !v.is_empty() && v != "0")
}

/// The canonical code by brute force: the least rendering over all vertex orderings.
fn brute_force_code(p: &Pattern) -> String {
    let ids = p.vertex_ids();
    let mut best: Option<String> = None;
    let mut rank: Vec<usize> = (0..ids.len()).collect();
    for_each_permutation(&mut rank, 0, &mut |rank| {
        let pos = |v| rank[ids.binary_search(&v).expect("vertex in pattern")];
        let mut vs: Vec<(usize, String)> = p
            .vertices()
            .map(|v| (pos(v.id), format!("{:?}", v.constraint)))
            .collect();
        vs.sort();
        let mut es: Vec<String> = p
            .edges()
            .map(|e| {
                let hops = e.path.map(|s| (s.min_hops, s.max_hops));
                format!("{}->{}:{:?}:{hops:?}", pos(e.src), pos(e.dst), e.constraint)
            })
            .collect();
        es.sort();
        let code = format!("{vs:?}{es:?}");
        if best.as_ref().is_none_or(|b| code < *b) {
            best = Some(code);
        }
    });
    best.unwrap_or_default()
}

fn for_each_permutation(items: &mut [usize], at: usize, f: &mut impl FnMut(&[usize])) {
    if at == items.len() {
        f(items);
        return;
    }
    for i in at..items.len() {
        items.swap(at, i);
        for_each_permutation(items, at + 1, f);
        items.swap(at, i);
    }
}

/// Every connected sub-pattern of `p` induced by a non-empty edge subset.
fn connected_subpatterns(p: &Pattern) -> Vec<Pattern> {
    let edges = p.edge_ids();
    (1u32..1 << edges.len())
        .map(|mask| {
            let subset: BTreeSet<PatternEdgeId> = edges
                .iter()
                .enumerate()
                .filter(|(i, _)| mask & (1 << i) != 0)
                .map(|(_, &e)| e)
                .collect();
            p.induced_by_edges(&subset)
        })
        .filter(Pattern::is_connected)
        .collect()
}

/// The first connected sub-pattern of `p` with exactly `n` vertices.
fn subpattern_with(subs: &[Pattern], n: usize) -> Pattern {
    subs.iter()
        .find(|s| s.vertex_count() == n)
        .cloned()
        .unwrap_or_else(|| panic!("QC4a has a connected {n}-vertex sub-pattern"))
}

fn bench_glogue(c: &mut Criterion) {
    let persons = if smoke() { 60 } else { 120 };
    let env = Env::ldbc("G-micro", persons);
    c.bench_function("glogue_build_k2", |b| {
        b.iter(|| {
            std::hint::black_box(GLogue::build(
                &env.graph,
                &GLogueConfig {
                    max_pattern_vertices: 2,
                    max_anchors: Some(200),
                    seed: 1,
                },
            ))
        })
    });
    c.bench_function("glogue_build_k3_sampled", |b| {
        b.iter(|| {
            std::hint::black_box(GLogue::build(
                &env.graph,
                &GLogueConfig {
                    max_pattern_vertices: 3,
                    max_anchors: Some(100),
                    seed: 1,
                },
            ))
        })
    });
    let qc4b = qc_queries().into_iter().find(|q| q.name == "QC4b").unwrap();
    let pattern = cypher(&env, &qc4b.text).match_nodes()[0].1.clone();
    c.bench_function("estimate_qc4b_high_order", |b| {
        b.iter(|| {
            let gq = GlogueQuery::new(&env.glogue);
            std::hint::black_box(gq.pattern_freq(&pattern))
        })
    });
    c.bench_function("estimate_qc4b_low_order", |b| {
        let lo = LowOrderEstimator::new(&env.glogue);
        b.iter(|| std::hint::black_box(lo.pattern_freq(&pattern)))
    });

    let qc4a = qc_queries().into_iter().find(|q| q.name == "QC4a").unwrap();
    let logical = cypher(&env, &qc4a.text);
    let qc4a_pattern = logical.match_nodes()[0].1.clone();
    let subs = connected_subpatterns(&qc4a_pattern);
    for n in [3, 5, 7] {
        let p = subpattern_with(&subs, n);
        c.bench_function(&format!("canonical_code_{n}v"), |b| {
            b.iter(|| std::hint::black_box(p.canonical_code()))
        });
    }
    c.bench_function("gopt_optimize_qc4a_cold", |b| {
        b.iter(|| {
            std::hint::black_box(gopt_plan(
                &env,
                &logical,
                Target::Partitioned(2),
                GOptConfig::default(),
            ))
        })
    });

    // correctness after timing: code equality is exactly brute-force code equality
    let mut fast_ids: HashMap<String, usize> = HashMap::new();
    let mut slow_ids: HashMap<String, usize> = HashMap::new();
    let mut classes: Vec<(usize, usize)> = Vec::with_capacity(subs.len());
    for s in &subs {
        let next = fast_ids.len();
        let fast = *fast_ids.entry(s.canonical_code()).or_insert(next);
        let next = slow_ids.len();
        let slow = *slow_ids.entry(brute_force_code(s)).or_insert(next);
        classes.push((fast, slow));
    }
    for (i, a) in classes.iter().enumerate() {
        for (j, b) in classes.iter().enumerate() {
            assert_eq!(
                a.0 == b.0,
                a.1 == b.1,
                "canonical code disagrees with brute force on\n{}\n{}",
                subs[i],
                subs[j]
            );
        }
    }
    println!(
        "canonical code == brute force on {} connected QC4a sub-patterns ({} classes)",
        subs.len(),
        slow_ids.len()
    );
}

criterion_group! {
    name = benches;
    config = Criterion::default().sample_size(10);
    targets = bench_glogue
}
criterion_main!(benches);
