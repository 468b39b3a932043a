//! The three traffic mixes and the seeded closed-loop request sequence.
//!
//! Request `i` of a run is a pure function of `(seed, i)`: requests come in
//! rounds of one request per template, each round in its own seeded order,
//! so every seed sends the same template mix in a different sequence. The
//! anchored templates (IC1–IC12) additionally re-draw their `p.id` literal
//! per request, uniformly over the graph's persons. The draw is stratified:
//! persons are grouped by a cost proxy into strata of [`STRATUM`], and each
//! template visits every stratum once per block of rounds in a seeded order.
//! Every person is still equally likely on every request, but each seed
//! sends about the same number of expensive anchors (hub persons), which
//! otherwise dominate throughput and spread it by about ten percent from one
//! seed to the next.

use gopt_graph::{PropValue, PropertyGraph, VertexId};
use gopt_workloads::{bi_queries, ic_queries, qc_queries, qt_queries, NamedQuery};
use rand::rngs::SmallRng;
use rand::seq::SliceRandom;
use rand::{Rng, SeedableRng};

/// One of the benchmark's workloads.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    /// IC1–IC12 with re-drawn anchors, hot plan cache, 2 clients.
    Interactive,
    /// BI1–BI18 and QC1a–QC4b, hot plan cache, 1 client; not gated.
    Analytic,
    /// IC1–IC12, QT1–QT5 and QC1a–QC3b on a small graph, every request a
    /// plan-cache miss, 1 client.
    Adhoc,
}

impl Workload {
    /// Every workload. `BENCHMARK.json` lists `interactive` and `adhoc`;
    /// `analytic` runs by hand (see `README.md`).
    pub const ALL: [Workload; 3] = [Workload::Interactive, Workload::Analytic, Workload::Adhoc];

    /// The workload called `name` on the command line.
    pub fn parse(name: &str) -> Option<Workload> {
        Workload::ALL.into_iter().find(|w| w.name() == name)
    }

    /// The command-line name.
    pub fn name(self) -> &'static str {
        match self {
            Workload::Interactive => "interactive",
            Workload::Analytic => "analytic",
            Workload::Adhoc => "adhoc",
        }
    }

    /// LDBC `Person` count of the workload's graph.
    pub fn persons(self) -> usize {
        match self {
            Workload::Interactive | Workload::Analytic => 3000,
            Workload::Adhoc => 300,
        }
    }

    /// The workload over `graph`, whose persons are the anchor domain.
    pub fn spec(self, graph: &PropertyGraph) -> Spec {
        let (clients, plan_cache_capacity, queries): (_, _, Vec<NamedQuery>) = match self {
            Workload::Interactive => (2, 64, ic_queries()),
            Workload::Analytic => (
                1,
                64,
                bi_queries().into_iter().chain(qc_queries()).collect(),
            ),
            // QC4a/b are left out: one cold QC4 optimize takes about two
            // seconds and would outweigh hundreds of other requests
            Workload::Adhoc => (
                1,
                0,
                ic_queries()
                    .into_iter()
                    .chain(qt_queries())
                    .chain(
                        qc_queries()
                            .into_iter()
                            .filter(|q| !q.name.starts_with("QC4")),
                    )
                    .collect(),
            ),
        };
        Spec {
            clients,
            plan_cache_capacity,
            templates: queries.into_iter().map(Template::new).collect(),
            strata: anchor_strata(graph),
        }
    }
}

/// Persons per anchor stratum.
pub const STRATUM: usize = 10;

/// The graph's person ids grouped into strata of [`STRATUM`], cheapest
/// first. The cost proxy is the person's degree plus its two-hop `Knows`
/// fan-out, which the IC templates expand.
fn anchor_strata(graph: &PropertyGraph) -> Vec<Vec<i64>> {
    let schema = graph.schema();
    let (Some(person), Some(knows)) = (schema.vertex_label("Person"), schema.edge_label("Knows"))
    else {
        return Vec::new();
    };
    let mut costed: Vec<(usize, i64)> = graph
        .vertices_with_label(person)
        .iter()
        .filter_map(|&v| {
            let Some(PropValue::Int(id)) = graph.vertex_prop_by_name(v, "id") else {
                return None;
            };
            let fanout: usize = graph
                .out_edges_with_label(v, knows)
                .neighbors()
                .iter()
                .map(|&f| {
                    graph
                        .out_edges_with_label(VertexId(u64::from(f)), knows)
                        .len()
                })
                .sum();
            Some((graph.out_degree(v) + graph.in_degree(v) + fanout, id))
        })
        .collect();
    costed.sort_unstable();
    costed
        .chunks(STRATUM)
        .map(|c| c.iter().map(|&(_, id)| id).collect())
        .collect()
}

/// A query text, split around its anchor literal when it has one.
#[derive(Debug, Clone)]
pub struct Template {
    /// Query name (`IC3`, `BI11`, …).
    pub name: String,
    head: String,
    /// Text after the anchor literal; `None` for a fixed text held in `head`.
    tail: Option<String>,
}

/// The start-person filter of the IC templates; a template with it is
/// anchored.
const ANCHOR: &str = "p.id = ";

impl Template {
    fn new(q: NamedQuery) -> Template {
        match q.text.find(ANCHOR) {
            Some(at) => {
                let start = at + ANCHOR.len();
                let digits = q.text[start..]
                    .find(|c: char| !c.is_ascii_digit())
                    .unwrap_or(q.text.len() - start);
                Template {
                    name: q.name,
                    head: q.text[..start].to_string(),
                    tail: Some(q.text[start + digits..].to_string()),
                }
            }
            None => Template {
                name: q.name,
                head: q.text,
                tail: None,
            },
        }
    }

    /// Whether requests re-draw this template's anchor literal.
    pub fn anchored(&self) -> bool {
        self.tail.is_some()
    }
}

/// One request: a template and, for anchored templates, its literal.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct Request {
    /// Index into [`Spec::templates`].
    pub template: usize,
    /// The `p.id` anchor, for anchored templates.
    pub literal: Option<i64>,
}

/// A workload over one graph: server settings, request templates and the
/// anchor domain.
#[derive(Debug, Clone)]
pub struct Spec {
    /// Closed-loop client threads of the measured window.
    pub clients: usize,
    /// Server plan-cache capacity (0 makes every request a miss).
    pub plan_cache_capacity: usize,
    /// The request templates.
    pub templates: Vec<Template>,
    /// Anchor person ids in strata of similar cost, cheapest first.
    strata: Vec<Vec<i64>>,
}

fn mix(seed: u64, a: u64, b: u64) -> u64 {
    (seed.wrapping_mul(0x9E37_79B9_7F4A_7C15) ^ a.wrapping_mul(0xD6E8_FEB8_6659_FD93))
        .wrapping_add(b.wrapping_mul(0xA076_1D64_78BD_642F))
}

fn permutation(len: usize, seed: u64) -> Vec<usize> {
    let mut order: Vec<usize> = (0..len).collect();
    order.shuffle(&mut SmallRng::seed_from_u64(seed));
    order
}

impl Spec {
    /// Request `i` of the sequence seeded by `seed`.
    ///
    /// Panics for an anchored template over a graph without persons.
    pub fn request(&self, seed: u64, i: u64) -> Request {
        let n = self.templates.len() as u64;
        let round = i / n;
        let template = permutation(self.templates.len(), mix(seed, 0, round))[(i % n) as usize];
        let literal = self.templates[template].anchored().then(|| {
            let k = self.strata.len() as u64;
            assert!(k > 0, "anchored templates need a graph with persons");
            let visit = permutation(k as usize, mix(seed, 2 + template as u64, round / k));
            let stratum = &self.strata[visit[(round % k) as usize]];
            stratum[SmallRng::seed_from_u64(mix(seed, 1, i)).gen_range(0..stratum.len())]
        });
        Request { template, literal }
    }

    /// The Cypher text of `req`.
    pub fn text(&self, req: &Request) -> String {
        let t = &self.templates[req.template];
        match (&t.tail, req.literal) {
            (Some(tail), Some(lit)) => format!("{}{lit}{tail}", t.head),
            _ => t.head.clone(),
        }
    }

    /// A short label for `req` (`IC3[1742]`, `BI11`).
    pub fn label(&self, req: &Request) -> String {
        let name = &self.templates[req.template].name;
        match req.literal {
            Some(lit) => format!("{name}[{lit}]"),
            None => name.clone(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use gopt_workloads::{generate_ldbc_graph, LdbcScale};
    use std::collections::{BTreeMap, BTreeSet};

    fn tiny() -> PropertyGraph {
        generate_ldbc_graph(&LdbcScale::tiny())
    }

    #[test]
    fn anchored_templates_rewrite_only_the_anchor() {
        let spec = Workload::Interactive.spec(&tiny());
        assert!(spec.templates.iter().all(Template::anchored));
        let ic1 = &ic_queries()[0].text;
        let at = |lit| Request {
            template: 0,
            literal: Some(lit),
        };
        assert_eq!(&spec.text(&at(10)), ic1);
        assert_eq!(
            spec.text(&at(2999)),
            ic1.replace("p.id = 10", "p.id = 2999")
        );
        assert!(Workload::Analytic
            .spec(&tiny())
            .templates
            .iter()
            .all(|t| !t.anchored()));
    }

    #[test]
    fn strata_cover_every_person_once() {
        let graph = tiny();
        let spec = Workload::Adhoc.spec(&graph);
        let ids: Vec<i64> = spec.strata.iter().flatten().copied().collect();
        let unique: BTreeSet<i64> = ids.iter().copied().collect();
        assert_eq!(ids.len(), unique.len());
        assert_eq!(unique, (0..LdbcScale::tiny().persons as i64).collect());
    }

    #[test]
    fn second_seed_changes_the_sequence_but_not_the_template_mix() {
        let graph = tiny();
        for w in Workload::ALL {
            let spec = w.spec(&graph);
            let n = 5 * spec.templates.len() as u64;
            let seq = |seed| (0..n).map(|i| spec.request(seed, i)).collect::<Vec<_>>();
            let mix = |reqs: &[Request]| {
                let mut m = BTreeMap::new();
                for r in reqs {
                    *m.entry(r.template).or_insert(0) += 1;
                }
                m
            };
            let (a, b) = (seq(1), seq(2));
            assert_eq!(a, seq(1), "{}: one seed, one sequence", w.name());
            assert_ne!(a, b, "{}: a second seed must change the sequence", w.name());
            assert_eq!(mix(&a), mix(&b), "{}: same template mix", w.name());
            assert!(mix(&a).values().all(|&c| c == 5));
        }
    }

    #[test]
    fn each_template_visits_every_stratum_once_per_block() {
        let graph = tiny();
        let spec = Workload::Interactive.spec(&graph);
        let k = spec.strata.len() as u64;
        let stratum_of: BTreeMap<i64, usize> = spec
            .strata
            .iter()
            .enumerate()
            .flat_map(|(s, ids)| ids.iter().map(move |&id| (id, s)))
            .collect();
        let rounds = k * spec.templates.len() as u64;
        let mut visits: BTreeMap<usize, Vec<usize>> = BTreeMap::new();
        for i in 0..rounds {
            let r = spec.request(7, i);
            visits
                .entry(r.template)
                .or_default()
                .push(stratum_of[&r.literal.expect("anchored")]);
        }
        for seen in visits.values() {
            let set: BTreeSet<usize> = seen[..k as usize].iter().copied().collect();
            assert_eq!(set.len(), k as usize, "one visit per stratum per block");
        }
    }
}
