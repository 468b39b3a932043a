//! Self-test at tiny scale: every workload runs briefly in both modes, every
//! metric `BENCHMARK.json` names is printed with its unit, the oracle gate
//! rejects a corrupted row, and the deterministic counts repeat for a seed.

use crate::serve::{self, boot, fixed_pass, oracle_gate, rows_hash, Image, RunConfig};
use crate::trace;
use crate::workload::Workload;
use gopt_graph::PropValue;
use std::path::Path;

fn tiny(workload: Workload, seed: u64) -> RunConfig {
    RunConfig {
        workload,
        persons: 60,
        seed,
        seconds: 0.2,
        setup_reps: 2,
    }
}

/// `(name, unit)` of every metric in one section of `BENCHMARK.json`.
fn declared(section: &str) -> Vec<(String, String)> {
    let path = Path::new(env!("CARGO_MANIFEST_DIR")).join("../BENCHMARK.json");
    let text = std::fs::read_to_string(&path).expect("BENCHMARK.json beside the benchmark");
    let start = text
        .find(&format!("\"{section}\""))
        .expect("section present");
    let body = &text[start..];
    let body = &body[..body.find(']').expect("section is a list")];
    let field = |obj: &str, key: &str| -> String {
        let at = obj.find(&format!("\"{key}\"")).expect("field present");
        obj[at..]
            .split('"')
            .nth(3)
            .expect("string value")
            .to_string()
    };
    body.split('{')
        .skip(1)
        .map(|obj| (field(obj, "name"), field(obj, "unit")))
        .collect()
}

fn printed(report: &serve::Report) -> Vec<(String, String)> {
    report
        .metrics
        .iter()
        .map(|m| (m.name.to_string(), m.unit.to_string()))
        .collect()
}

#[test]
fn every_workload_prints_every_declared_metric_in_both_modes() {
    let (e2e, layers) = (declared("end_to_end"), declared("per_layer"));
    assert!(e2e.iter().any(|(n, u)| n == "setup_s" && u == "s"));
    for w in Workload::ALL {
        let report = serve::run(&tiny(w, 1)).expect("measured run");
        assert!(report.correct, "{}: {:?}", w.name(), report.notes);
        assert_eq!(report.failed, 0);
        assert_eq!(printed(&report), e2e, "{}: end-to-end metrics", w.name());
        assert!(report.metrics.iter().all(|m| m.value.is_finite()));

        let report = trace::run(&tiny(w, 1)).expect("traced run");
        assert!(report.correct, "{}: {:?}", w.name(), report.notes);
        assert_eq!(printed(&report), layers, "{}: per-layer metrics", w.name());
        assert!(report.metrics.iter().all(|m| m.value.is_finite()));
    }
}

#[test]
fn oracle_gate_rejects_a_corrupted_row() {
    let cfg = tiny(Workload::Interactive, 3);
    let (image, spec) = Image::generate(&cfg).expect("image");
    let (server, _) = boot(&image, &spec).expect("boot");
    let (_, answers, plans) = fixed_pass(&server, &spec, cfg.seed).expect("pass");
    let mismatches = oracle_gate(&server, &spec, &plans, &answers);
    assert!(
        mismatches.is_empty(),
        "served answers match: {mismatches:?}"
    );

    let req = spec.request(cfg.seed, 0);
    let out = server.session().submit(&spec.text(&req)).expect("served");
    let mut rows = out.result.rows();
    assert!(!rows.is_empty(), "{} has rows to corrupt", spec.label(&req));
    rows[0][0] = PropValue::Int(-1);
    let corrupted = |rows: &[Vec<PropValue>]| {
        let mut answers = answers.clone();
        answers.insert(req, rows_hash(rows));
        oracle_gate(&server, &spec, &plans, &answers)
    };
    for mismatches in [corrupted(&rows), corrupted(&[])] {
        assert_eq!(mismatches.len(), 1, "{mismatches:?}");
        assert!(
            mismatches[0].starts_with(&spec.label(&req)),
            "{mismatches:?}"
        );
    }
}

#[test]
fn deterministic_counts_repeat_exactly_for_one_seed() {
    for w in Workload::ALL {
        let counts = |seed| {
            let cfg = tiny(w, seed);
            let (image, spec) = Image::generate(&cfg).expect("image");
            let (server, _) = boot(&image, &spec).expect("boot");
            let (mut counts, answers, _) = fixed_pass(&server, &spec, seed).expect("pass");
            // scheduling-dependent, never compared
            counts.exchange_peak_bytes = 0;
            (counts, answers)
        };
        let (a, b) = (counts(5), counts(5));
        assert_eq!(a.0, b.0, "{}: counts repeat", w.name());
        assert_eq!(a.1, b.1, "{}: answers repeat", w.name());
        assert!(a.0.intermediate_records > 0 && a.0.comm_records > 0);
    }
}
