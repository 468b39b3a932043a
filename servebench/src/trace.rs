//! The traced run: the set-up broken into its layer calls, then each request
//! submitted through the server and replayed through every layer's public
//! call, each call timed from outside as one span. One client, so the spans
//! measure uncontended layer cost; spans stay in memory until the end.

use crate::measure::{median, quantile};
use crate::serve::{
    boot, fixed_pass, glogue_config, oracle_gate, provenance, rows_hash, server_config, Image,
    Metric, Report, RunConfig,
};
use crate::workload::Spec;
use gopt_core::{plan_shape, GOpt, GraphScopeSpec};
use gopt_exec::{Backend, PartitionedBackend, QueryContext, SingleMachineBackend};
use gopt_glogue::{GLogue, GlogueQuery};
use gopt_graph::{load_image, GraphStats, PropertyGraph};
use gopt_parser::parse_cypher;
use gopt_server::SubmitOptions;
use std::hint::black_box;
use std::sync::Arc;
use std::time::{Duration, Instant};

/// The layer objects the replay calls: a graph, GLogue, statistics and
/// backend built the way `Server::from_image` builds its own.
struct Layers {
    graph: Arc<PropertyGraph>,
    stats: Arc<GraphStats>,
    glogue: GLogue,
    backend: PartitionedBackend,
}

/// Milliseconds of each set-up step, one entry per boot.
#[derive(Default)]
struct SetupSpans {
    from_image: Vec<f64>,
    load_image: Vec<f64>,
    glogue_build: Vec<f64>,
    prepare: Vec<f64>,
    install: Vec<f64>,
}

fn ms(t: Instant) -> f64 {
    t.elapsed().as_secs_f64() * 1e3
}

fn us(t: Instant) -> f64 {
    t.elapsed().as_secs_f64() * 1e6
}

/// Repeat the steps of `Server::from_image` one by one from outside.
fn build_layers(spec: &Spec, image: &Image, spans: &mut SetupSpans) -> Result<Layers, String> {
    let t = Instant::now();
    let img = load_image(&image.path).map_err(|e| format!("loading the image: {e}"))?;
    spans.load_image.push(ms(t));

    let t = Instant::now();
    let glogue = GLogue::build(&img.graph, &glogue_config());
    spans.glogue_build.push(ms(t));

    let config = server_config(spec);
    let t = Instant::now();
    let backend = PartitionedBackend::new(config.partitions)
        .map_err(|e| format!("backend: {e}"))?
        .with_threads(config.threads)
        .with_partitioner(config.partitioner)
        .with_hub_replication(config.replicate_hubs);
    backend
        .prepare(&img.graph)
        .map_err(|e| format!("preparing the backend: {e}"))?;
    // `Server::new` starts the pool right after sharding; count it here
    black_box(backend.pool());
    spans.prepare.push(ms(t));

    let t = Instant::now();
    backend
        .install_sharded(Arc::clone(&img.partitioned))
        .map_err(|e| format!("installing the image's shards: {e}"))?;
    spans.install.push(ms(t));
    Ok(Layers {
        graph: img.graph,
        stats: img.stats,
        glogue,
        backend,
    })
}

/// Microseconds of each layer call for one request (0 for a call the
/// request did not need).
#[derive(Debug, Clone, Copy, Default)]
struct Spans {
    submit: f64,
    parse: f64,
    parameterize: f64,
    plan_shape: f64,
    rbo_typeinfer: f64,
    cbo_lower: f64,
    bind: f64,
    execute: f64,
    single_machine: f64,
}

impl Spans {
    fn layers(&self) -> [f64; 7] {
        [
            self.parse,
            self.parameterize,
            self.plan_shape,
            self.rbo_typeinfer,
            self.cbo_lower,
            self.bind,
            self.execute,
        ]
    }

    /// `server.submit_us` minus every layer span of the same request.
    fn overhead(&self) -> f64 {
        self.submit - self.layers().iter().sum::<f64>()
    }
}

/// The traced run.
pub fn run(cfg: &RunConfig) -> Result<Report, String> {
    let (image, spec) = Image::generate(cfg)?;
    let spec = &spec;
    let mut setup = SetupSpans::default();
    let (mut server, mut layers) = (None, None);
    for _ in 0..cfg.setup_reps.max(1) {
        drop((server.take(), layers.take()));
        let (s, secs) = boot(&image, spec)?;
        setup.from_image.push(secs * 1e3);
        server = Some(s);
        layers = Some(build_layers(spec, &image, &mut setup)?);
    }
    let server = server.expect("at least one boot");
    let layers = layers.expect("at least one boot");
    let (counts, mut answers, plans) = fixed_pass(&server, spec, cfg.seed)?;

    let gq = GlogueQuery::new(&layers.glogue);
    let gopt = GOpt::new(layers.graph.schema(), &gq, &GraphScopeSpec)
        .with_config(server_config(spec).opt)
        .with_stats(Arc::clone(&layers.stats));
    let session = server.session();
    let opts = SubmitOptions::default();
    let cache0 = server.cache_metrics();
    let mut spans: Vec<Spans> = Vec::new();
    let (mut failed, mut replay_mismatches) = (0u64, Vec::new());
    let window = Duration::from_secs_f64(cfg.seconds);
    let start = Instant::now();
    let mut i = spec.templates.len() as u64;
    while start.elapsed() < window {
        let req = spec.request(cfg.seed, i);
        i += 1;
        let text = spec.text(&req);
        let mut s = Spans::default();

        let t = Instant::now();
        let out = session.submit_with(&text, &opts);
        s.submit = us(t);
        let Ok(out) = out else {
            failed += 1;
            continue;
        };

        let t = Instant::now();
        let logical = parse_cypher(&text, layers.graph.schema())
            .map_err(|e| format!("replay parse of {}: {e}", spec.label(&req)))?;
        s.parse = us(t);

        let t = Instant::now();
        let (generic, params) = logical.parameterize();
        s.parameterize = us(t);

        let t = Instant::now();
        black_box(plan_shape(&generic));
        s.plan_shape = us(t);

        if !out.cache_hit {
            let t = Instant::now();
            black_box(gopt.optimize_logical(&generic).map_err(|e| e.to_string())?);
            s.rbo_typeinfer = us(t);
            let t = Instant::now();
            black_box(gopt.optimize(&generic).map_err(|e| e.to_string())?);
            // optimize() runs optimize_logical() first; keep only its own part
            s.cbo_lower = (us(t) - s.rbo_typeinfer).max(0.0);
        }

        if !params.is_empty() {
            let t = Instant::now();
            black_box(out.plan.bind_params(&params));
            s.bind = us(t);
        }

        let t = Instant::now();
        let replayed = layers
            .backend
            .execute_with_ctx(&layers.graph, &out.exec_plan, &QueryContext::new())
            .map_err(|e| format!("replay execute of {}: {e}", spec.label(&req)))?;
        s.execute = us(t);

        let t = Instant::now();
        black_box(
            SingleMachineBackend::new()
                .execute(&layers.graph, &out.exec_plan)
                .map_err(|e| format!("single-machine replay of {}: {e}", spec.label(&req)))?,
        );
        s.single_machine = us(t);

        if replayed.records.len() != out.result.records.len() {
            replay_mismatches.push(format!(
                "{}: replay returned {} rows, the server {}",
                spec.label(&req),
                replayed.len(),
                out.result.len()
            ));
        }
        spans.push(s);
        answers
            .entry(req)
            .or_insert_with(|| rows_hash(&out.result.rows()));
    }
    let cache1 = server.cache_metrics();
    if spans.is_empty() {
        return Err("no traced request completed".into());
    }

    let mut mismatches = oracle_gate(&server, spec, &plans, &answers);
    mismatches.extend(replay_mismatches);

    let col = |f: fn(&Spans) -> f64| -> Vec<f64> { spans.iter().map(f).collect() };
    let med = |f: fn(&Spans) -> f64| median(&col(f));
    let total_submit: f64 = col(|s| s.submit).iter().sum();
    let share = |f: fn(&Spans) -> f64| 100.0 * col(f).iter().sum::<f64>() / total_submit;
    let mut execute = col(|s| s.execute);
    execute.sort_by(f64::total_cmp);
    let hits = (cache1.hits - cache0.hits) as f64;
    let lookups = hits + (cache1.misses - cache0.misses) as f64;
    let setup_parts = median(&setup.load_image)
        + median(&setup.glogue_build)
        + median(&setup.prepare)
        + median(&setup.install);

    let m = |name, value, unit| Metric { name, value, unit };
    let metrics = vec![
        m("server.submit_us", med(|s| s.submit), "us"),
        m("parser.parse_us", med(|s| s.parse), "us"),
        m("gir.parameterize_us", med(|s| s.parameterize), "us"),
        m("gir.bind_us", med(|s| s.bind), "us"),
        m("core.plan_shape_us", med(|s| s.plan_shape), "us"),
        m("core.rbo_typeinfer_us", med(|s| s.rbo_typeinfer), "us"),
        m("core.cbo_lower_us", med(|s| s.cbo_lower), "us"),
        m("exec.execute_us", median(&execute), "us"),
        m("exec.execute_p99_us", quantile(&execute, 0.99), "us"),
        m("exec.single_machine_us", med(|s| s.single_machine), "us"),
        m("server.overhead_us", med(Spans::overhead), "us"),
        m("parser.share_pct", share(|s| s.parse), "%"),
        m("gir.share_pct", share(|s| s.parameterize + s.bind), "%"),
        m(
            "core.share_pct",
            share(|s| s.plan_shape + s.rbo_typeinfer + s.cbo_lower),
            "%",
        ),
        m("exec.share_pct", share(|s| s.execute), "%"),
        m("server.overhead_share_pct", share(Spans::overhead), "%"),
        m(
            "server.cache_hit_ratio",
            if lookups > 0.0 { hits / lookups } else { 0.0 },
            "ratio",
        ),
        m(
            "exec.intermediate_records",
            counts.intermediate_records as f64,
            "count",
        ),
        m("exec.comm_records", counts.comm_records as f64, "count"),
        m("exec.comm_bytes", counts.comm_bytes as f64, "B"),
        m("exec.locality_hits", counts.locality_hits as f64, "count"),
        m("exec.rows_out", counts.rows_out as f64, "count"),
        m(
            "exec.exchange_peak_bytes",
            counts.exchange_peak_bytes as f64,
            "B",
        ),
        m("graph.load_image_ms", median(&setup.load_image), "ms"),
        m(
            "graph.bytes_per_edge",
            image.bytes as f64 / image.edges.max(1) as f64,
            "B/edge",
        ),
        m("glogue.build_ms", median(&setup.glogue_build), "ms"),
        m("exec.prepare_ms", median(&setup.prepare), "ms"),
        m("exec.install_ms", median(&setup.install), "ms"),
        m("setup.from_image_ms", median(&setup.from_image), "ms"),
        m(
            "setup.accounted_pct",
            100.0 * setup_parts / median(&setup.from_image),
            "%",
        ),
    ];

    let mut notes = vec![
        provenance(cfg, spec, &image, true),
        format!("counts {}", counts.to_json()),
        format!(
            "trace {{\"traced_requests\": {}, \"failed\": {failed}, \"oracle_checked\": {}, \
             \"oracle_mismatches\": {}}}",
            spans.len(),
            answers.len(),
            mismatches.len(),
        ),
    ];
    notes.extend(mismatches.iter().take(10).map(|m| format!("MISMATCH {m}")));
    Ok(Report {
        correct: mismatches.is_empty(),
        attempted: spans.len() as u64 + failed,
        failed,
        metrics,
        notes,
    })
}
