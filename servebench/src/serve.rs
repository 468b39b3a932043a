//! The measured (untraced) run: graph image, server boots, the fixed pass,
//! the closed-loop window and the oracle gate.

use crate::measure::{self, median, quantile};
use crate::workload::{Request, Spec, Workload};
use gopt_exec::{Backend, ExecMode, ExecStats, SingleMachineBackend};
use gopt_gir::PhysicalPlan;
use gopt_glogue::GLogueConfig;
use gopt_graph::{
    write_image, GraphStats, PartitionedGraph, PartitionerSpec, PropValue, PropertyGraph,
};
use gopt_parser::parse_cypher;
use gopt_server::{Server, ServerConfig, SubmitOptions};
use gopt_workloads::{generate_ldbc_graph, LdbcScale};
use std::collections::hash_map::DefaultHasher;
use std::collections::HashMap;
use std::hash::{Hash, Hasher};
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Graph partitions of the served backend.
pub const PARTITIONS: usize = 2;
/// Threads of the server's shared morsel pool.
pub const THREADS: usize = 2;

/// The fixed server configuration every workload is served under: hash
/// placement, no hub replication, and the workload's plan-cache capacity.
pub fn server_config(spec: &Spec) -> ServerConfig {
    ServerConfig {
        partitions: PARTITIONS,
        threads: THREADS,
        partitioner: PartitionerSpec::Hash,
        replicate_hubs: 0,
        plan_cache_capacity: spec.plan_cache_capacity,
        ..ServerConfig::default()
    }
}

/// The GLogue the server mines at boot.
pub fn glogue_config() -> GLogueConfig {
    GLogueConfig {
        max_pattern_vertices: 3,
        max_anchors: Some(500),
        ..GLogueConfig::default()
    }
}

/// How one run is sized.
#[derive(Debug, Clone)]
pub struct RunConfig {
    /// The workload.
    pub workload: Workload,
    /// LDBC `Person` count of the generated graph.
    pub persons: usize,
    /// Seed of the request sequence.
    pub seed: u64,
    /// Minimum length of the measured window.
    pub seconds: f64,
    /// Server boots timed for `setup_s` (the first one serves).
    pub setup_reps: usize,
}

/// Completed requests a measured window needs at least, so the p99 has ten
/// samples beyond it.
const MIN_SAMPLES: u64 = TAIL_SAMPLES as u64;

/// A metric as printed in the result line.
#[derive(Debug, Clone)]
pub struct Metric {
    /// Name, as in `BENCHMARK.json`.
    pub name: &'static str,
    /// Value as measured.
    pub value: f64,
    /// Unit.
    pub unit: &'static str,
}

/// The deterministic `ExecStats` counts of the fixed pass.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct Counts {
    /// Sum of `intermediate_records`.
    pub intermediate_records: u64,
    /// Sum of `comm_records`.
    pub comm_records: u64,
    /// Sum of `comm_bytes`.
    pub comm_bytes: u64,
    /// Sum of `locality_hits`.
    pub locality_hits: u64,
    /// Sum of result rows.
    pub rows_out: u64,
    /// Largest `exchange_peak_bytes` (scheduling-dependent, not gated).
    pub exchange_peak_bytes: u64,
}

impl Counts {
    fn add(&mut self, stats: &ExecStats, rows: usize) {
        self.intermediate_records += stats.intermediate_records;
        self.comm_records += stats.comm_records;
        self.comm_bytes += stats.comm_bytes;
        self.locality_hits += stats.locality_hits;
        self.rows_out += rows as u64;
        self.exchange_peak_bytes = self.exchange_peak_bytes.max(stats.exchange_peak_bytes);
    }

    /// The counts as one JSON object; every field but `exchange_peak_bytes`
    /// repeats exactly for one seed.
    pub fn to_json(&self) -> String {
        format!(
            "{{\"exec.intermediate_records\": {}, \"exec.comm_records\": {}, \"exec.comm_bytes\": {}, \
             \"exec.locality_hits\": {}, \"exec.rows_out\": {}, \"exec.exchange_peak_bytes\": {}}}",
            self.intermediate_records,
            self.comm_records,
            self.comm_bytes,
            self.locality_hits,
            self.rows_out,
            self.exchange_peak_bytes
        )
    }
}

/// What one run reports.
#[derive(Debug, Clone)]
pub struct Report {
    /// Every checked answer matched the oracle.
    pub correct: bool,
    /// Requests attempted in the measured window.
    pub attempted: u64,
    /// Requests that returned a `ServerError`.
    pub failed: u64,
    /// The metrics of the result line.
    pub metrics: Vec<Metric>,
    /// Provenance and diagnostic lines printed before the result line.
    pub notes: Vec<String>,
}

/// A generated graph image, removed again on drop.
pub struct Image {
    /// Where the image was written.
    pub path: PathBuf,
    /// Vertices of the graph.
    pub vertices: usize,
    /// Edges of the graph.
    pub edges: usize,
    /// Size of the image file.
    pub bytes: u64,
}

/// Seed of the LDBC generator. The graph is the same for every `--seed`:
/// graphs of different seeds differ in their hubs, which moved throughput by
/// up to twenty percent between seeds.
const GRAPH_SEED: u64 = 42;

impl Image {
    /// Generate the workload's LDBC graph, shard it the way the server does
    /// and write graph, shards and statistics under `.run/` beside this
    /// package; returns the image with the workload over that graph.
    pub fn generate(cfg: &RunConfig) -> Result<(Image, Spec), String> {
        let graph = generate_ldbc_graph(&LdbcScale {
            persons: cfg.persons,
            seed: GRAPH_SEED,
        });
        let spec = cfg.workload.spec(&graph);
        let dir = Path::new(env!("CARGO_MANIFEST_DIR")).join(".run");
        let pg = PartitionedGraph::build(&graph, PARTITIONS);
        let stats = GraphStats::from_graph(&graph);
        std::fs::create_dir_all(&dir).map_err(|e| format!("creating {}: {e}", dir.display()))?;
        // unique per process and per image, as tests generate several at once
        static NEXT: AtomicU64 = AtomicU64::new(0);
        let path = dir.join(format!(
            "{}-{}-{}-{}.gimg",
            cfg.workload.name(),
            cfg.seed,
            std::process::id(),
            NEXT.fetch_add(1, Ordering::Relaxed)
        ));
        write_image(&graph, &pg, &stats, &path)
            .map_err(|e| format!("writing {}: {e}", path.display()))?;
        let mut image = Image {
            bytes: 0,
            vertices: graph.vertex_count(),
            edges: graph.edge_count(),
            path,
        };
        image.bytes = std::fs::metadata(&image.path)
            .map_err(|e| format!("sizing {}: {e}", image.path.display()))?
            .len();
        Ok((image, spec))
    }
}

impl Drop for Image {
    fn drop(&mut self) {
        let _ = std::fs::remove_file(&self.path);
    }
}

/// Boot one server from the image; returns it with the boot's wall time in
/// seconds.
pub fn boot(image: &Image, spec: &Spec) -> Result<(Server, f64), String> {
    let t = Instant::now();
    let server = Server::from_image(&image.path, &glogue_config(), server_config(spec))
        .map_err(|e| format!("booting the server: {e}"))?;
    Ok((server, t.elapsed().as_secs_f64()))
}

/// The first served answer of each distinct request, as a hash of its rows
/// (eight bytes per request, so keeping them does not inflate
/// `peak_rss_mb`).
pub type Answers = HashMap<Request, u64>;

/// Hash of an answer's rows, in order.
pub fn rows_hash(rows: &[Vec<PropValue>]) -> u64 {
    let mut h = DefaultHasher::new();
    rows.hash(&mut h);
    h.finish()
}

/// The generic plan the server served for each template, indexed like
/// [`Spec::templates`].
pub type Plans = Vec<Arc<PhysicalPlan>>;

/// Submit the first round of the sequence (one request per template), fill
/// the plan cache on hot-cache workloads and sum the deterministic counts.
pub fn fixed_pass(
    server: &Server,
    spec: &Spec,
    seed: u64,
) -> Result<(Counts, Answers, Plans), String> {
    let session = server.session();
    let mut counts = Counts::default();
    let mut answers = Answers::new();
    let mut plans = vec![None; spec.templates.len()];
    for i in 0..spec.templates.len() as u64 {
        let req = spec.request(seed, i);
        let out = session
            .submit(&spec.text(&req))
            .map_err(|e| format!("fixed pass, {}: {e}", spec.label(&req)))?;
        counts.add(&out.result.stats, out.result.len());
        answers.insert(req, rows_hash(&out.result.rows()));
        plans[req.template] = Some(out.plan);
    }
    let plans = plans.into_iter().collect::<Option<Plans>>();
    Ok((
        counts,
        answers,
        plans.ok_or("the first round missed a template")?,
    ))
}

/// The plan the server executes for `req`: the template's generic plan with
/// the request's constants bound, derived the way `Session::submit_with`
/// derives it.
fn bound_plan(
    graph: &PropertyGraph,
    spec: &Spec,
    plans: &Plans,
    req: &Request,
) -> Result<PhysicalPlan, String> {
    let logical = parse_cypher(&spec.text(req), graph.schema()).map_err(|e| e.to_string())?;
    let (_, params) = logical.parameterize();
    Ok(plans[req.template].bind_params(&params))
}

/// Hash of the rows the scalar single-machine engine returns for `plan`,
/// with their count.
fn oracle_answer(graph: &PropertyGraph, plan: &PhysicalPlan) -> Result<(u64, usize), String> {
    let oracle = SingleMachineBackend::new()
        .with_mode(ExecMode::Scalar)
        .execute(graph, plan)
        .map_err(|e| format!("the scalar oracle failed: {e}"))?;
    let rows = oracle.rows();
    Ok((rows_hash(&rows), rows.len()))
}

/// The oracle gate, outside the measured window: the answer served first
/// for every distinct request must equal, row for row and in order, what
/// `SingleMachineBackend` in `ExecMode::Scalar` returns for the same bound
/// plan. Returns one line per mismatch.
pub fn oracle_gate(server: &Server, spec: &Spec, plans: &Plans, answers: &Answers) -> Vec<String> {
    let graph = server.graph();
    let mut reqs: Vec<(Request, u64)> = answers.iter().map(|(r, h)| (*r, *h)).collect();
    reqs.sort();
    let check = |(req, served): &(Request, u64)| -> Result<(), String> {
        let plan = bound_plan(&graph, spec, plans, req)?;
        let (expected, rows) = oracle_answer(&graph, &plan)?;
        if expected == *served {
            Ok(())
        } else {
            Err(format!(
                "the served answer differs from the scalar oracle's {rows} rows"
            ))
        }
    };
    let chunk = reqs.len().div_ceil(THREADS).max(1);
    std::thread::scope(|s| {
        let workers: Vec<_> = reqs
            .chunks(chunk)
            .map(|part| {
                let check = &check;
                s.spawn(move || {
                    part.iter()
                        .filter_map(|a| {
                            check(a).err().map(|e| format!("{}: {e}", spec.label(&a.0)))
                        })
                        .collect::<Vec<_>>()
                })
            })
            .collect();
        workers
            .into_iter()
            .flat_map(|w| w.join().expect("oracle worker panicked"))
            .collect()
    })
}

/// One slice of the measured window.
#[derive(Debug)]
struct Slice {
    /// Wall seconds the slice lasted.
    secs: f64,
    /// Process CPU seconds spent in it.
    cpu_s: f64,
    /// Share of the host's CPU time the hypervisor stole in it, in percent.
    steal_pct: f64,
    /// Latencies of the requests that completed in it.
    latencies_ms: Vec<f64>,
}

impl Slice {
    fn qps(&self) -> f64 {
        self.latencies_ms.len() as f64 / self.secs
    }

    fn cpu_ms_per_query(&self) -> f64 {
        self.cpu_s * 1e3 / self.latencies_ms.len() as f64
    }
}

/// The closed-loop measured window.
struct Window {
    /// Every slice, in order.
    slices: Vec<Slice>,
    /// Indices of the calm slices the metrics are taken over, see
    /// [`calm_slices`].
    calm: Vec<usize>,
    wall_s: f64,
    attempted: u64,
    failed: u64,
    first_error: Option<String>,
    answers: Answers,
}

impl Window {
    fn calm(&self) -> impl Iterator<Item = &Slice> + '_ {
        self.calm.iter().map(|&i| &self.slices[i])
    }

    /// Latencies of the requests completed in the calm slices, ascending.
    fn calm_latencies_ms(&self) -> Vec<f64> {
        let mut l: Vec<f64> = self
            .calm()
            .flat_map(|s| s.latencies_ms.iter().copied())
            .collect();
        l.sort_by(f64::total_cmp);
        l
    }

    /// Latencies of every request completed in a slice, ascending.
    fn all_latencies_ms(&self) -> Vec<f64> {
        let mut l: Vec<f64> = self
            .slices
            .iter()
            .flat_map(|s| s.latencies_ms.iter().copied())
            .collect();
        l.sort_by(f64::total_cmp);
        l
    }
}

/// Completions the calm slices must hold at least: ten samples beyond the
/// p99.
const TAIL_SAMPLES: usize = 1000;

/// Slices a measured window is cut into.
const SLICES: u32 = 30;

/// The share of the slices that are taken as calm: a third.
const CALM_DIVISOR: usize = 3;

/// How long a window may run past `seconds` to reach [`MIN_SAMPLES`], so a
/// server that fails every request still ends the run.
const OVERTIME: Duration = Duration::from_secs(60);

/// The slices the metrics are taken over. The host is shared: when the
/// hypervisor runs another machine on this one's CPUs (steal), a request in
/// flight stalls for milliseconds, and at a few percent steal such stalls
/// set the p99. So the slices are ranked by their steal share, and the
/// calmest third is kept, together with every slice that stole no more than
/// the calmest third's worst; on a quiet host, where most slices steal
/// nothing, that is most of the window.
/// Slices are added in the same order until they hold [`TAIL_SAMPLES`]
/// completions. Returns slice indices, ascending.
fn calm_slices(slices: &[Slice]) -> Vec<usize> {
    let mut order: Vec<usize> = (0..slices.len()).collect();
    order.sort_by(|&a, &b| {
        slices[a]
            .steal_pct
            .total_cmp(&slices[b].steal_pct)
            .then(a.cmp(&b))
    });
    let third = slices.len().div_ceil(CALM_DIVISOR);
    let Some(&worst) = order.get(third.max(1) - 1) else {
        return Vec::new();
    };
    let (mut calm, mut samples) = (Vec::new(), 0);
    for (rank, i) in order.into_iter().enumerate() {
        if rank >= third && slices[i].steal_pct > slices[worst].steal_pct && samples >= TAIL_SAMPLES
        {
            break;
        }
        samples += slices[i].latencies_ms.len();
        calm.push(i);
    }
    calm.sort_unstable();
    calm
}

/// `clients` sessions send requests back to back, continuing the sequence
/// after the fixed pass. The calling thread samples the process CPU time and
/// the host's steal at every slice boundary, and stops the clients at the
/// first boundary at or after `seconds` by which at least [`MIN_SAMPLES`]
/// requests completed (or when [`OVERTIME`] ran out). Requests still in
/// flight then finish but fall outside every slice.
fn closed_loop(server: &Server, spec: &Spec, cfg: &RunConfig) -> Result<Window, String> {
    let next = AtomicU64::new(spec.templates.len() as u64);
    let completed = AtomicU64::new(0);
    let stop = AtomicBool::new(false);
    let window = Duration::from_secs_f64(cfg.seconds);
    let slice = window / SLICES;
    let opts = SubmitOptions::default();
    let start = Instant::now();
    let (per_client, samples) = std::thread::scope(|s| {
        let workers: Vec<_> = (0..spec.clients)
            .map(|_| {
                let session = server.session();
                let (next, completed, stop, opts) = (&next, &completed, &stop, &opts);
                s.spawn(move || {
                    let mut latencies = Vec::new();
                    let mut failed = Vec::new();
                    let mut answers = Answers::new();
                    while !stop.load(Ordering::Relaxed) {
                        let req = spec.request(cfg.seed, next.fetch_add(1, Ordering::Relaxed));
                        let text = spec.text(&req);
                        let t = Instant::now();
                        match session.submit_with(&text, opts) {
                            Ok(out) => {
                                let done = start.elapsed().as_secs_f64();
                                latencies.push((done, t.elapsed().as_secs_f64() * 1e3));
                                completed.fetch_add(1, Ordering::Relaxed);
                                answers
                                    .entry(req)
                                    .or_insert_with(|| rows_hash(&out.result.rows()));
                            }
                            Err(e) => failed.push(format!("{}: {e}", spec.label(&req))),
                        }
                    }
                    (latencies, failed, answers)
                })
            })
            .collect();
        let sample = || -> Result<_, String> {
            let at = start.elapsed();
            Ok((at, measure::cpu_seconds()?, measure::host_cpu_ticks()?))
        };
        let sampled = (|| -> Result<Vec<_>, String> {
            let mut samples = vec![sample()?];
            let mut boundary = slice;
            loop {
                let at = start.elapsed();
                if at < boundary {
                    std::thread::sleep(boundary - at);
                    continue;
                }
                samples.push(sample()?);
                boundary += slice;
                let enough = completed.load(Ordering::Relaxed) >= MIN_SAMPLES;
                if at >= window && (enough || at >= window + OVERTIME) {
                    return Ok(samples);
                }
            }
        })();
        stop.store(true, Ordering::Relaxed);
        let per_client: Vec<_> = workers
            .into_iter()
            .map(|w| w.join().expect("client thread panicked"))
            .collect();
        (per_client, sampled)
    });
    let samples = samples?;
    let wall_s = start.elapsed().as_secs_f64();
    let mut slices: Vec<Slice> = samples
        .windows(2)
        .map(|pair| {
            let ((t0, c0, h0), (t1, c1, h1)) = (pair[0], pair[1]);
            Slice {
                secs: (t1 - t0).as_secs_f64(),
                cpu_s: c1 - c0,
                steal_pct: 100.0 * (h1.1 - h0.1) as f64 / (h1.0 - h0.0).max(1) as f64,
                latencies_ms: Vec::new(),
            }
        })
        .collect();
    let ends: Vec<f64> = samples[1..].iter().map(|s| s.0.as_secs_f64()).collect();
    let mut w = Window {
        slices: Vec::new(),
        calm: Vec::new(),
        wall_s,
        attempted: 0,
        failed: 0,
        first_error: None,
        answers: Answers::new(),
    };
    for (latencies, failed, answers) in per_client {
        w.attempted += (latencies.len() + failed.len()) as u64;
        w.failed += failed.len() as u64;
        w.first_error = w.first_error.or(failed.into_iter().next());
        for (done, ms) in latencies {
            // the slice whose end is the first sample taken at or after `done`
            if let Some(slice) = slices.get_mut(ends.partition_point(|&end| end < done)) {
                slice.latencies_ms.push(ms);
            }
        }
        for (req, h) in answers {
            w.answers.entry(req).or_insert(h);
        }
    }
    w.calm = calm_slices(&slices);
    w.slices = slices;
    Ok(w)
}

/// Provenance of a run, printed before the result line.
pub fn provenance(cfg: &RunConfig, spec: &Spec, image: &Image, trace: bool) -> String {
    let repo = Path::new(env!("CARGO_MANIFEST_DIR"))
        .parent()
        .unwrap_or(Path::new("."));
    let nproc = std::thread::available_parallelism().map_or(0, |n| n.get());
    format!(
        "provenance {{\"rev\": \"{}\", \"nproc\": {nproc}, \"workload\": \"{}\", \"seed\": {}, \
         \"trace\": {trace}, \"persons\": {}, \"vertices\": {}, \"edges\": {}, \"image_bytes\": {}, \
         \"partitions\": {PARTITIONS}, \"pool_threads\": {THREADS}, \"placement\": \"hash\", \
         \"replicate_hubs\": 0, \"plan_cache_capacity\": {}, \"clients\": {}, \"templates\": {}, \
         \"setup_reps\": {}}}",
        measure::git_rev(repo),
        cfg.workload.name(),
        cfg.seed,
        cfg.persons,
        image.vertices,
        image.edges,
        image.bytes,
        spec.plan_cache_capacity,
        if trace { 1 } else { spec.clients },
        spec.templates.len(),
        cfg.setup_reps,
    )
}

/// The end-to-end run: boot, fixed pass, measured window, oracle gate,
/// then the remaining timed boots. The boots that only time set-up come
/// last, so `peak_rss_mb` covers one boot and the window, not heap left
/// behind by earlier servers.
pub fn run(cfg: &RunConfig) -> Result<Report, String> {
    let t = Instant::now();
    let (image, spec) = Image::generate(cfg)?;
    let spec = &spec;
    let generate_s = t.elapsed().as_secs_f64();
    measure::reset_peak_rss()?;
    let (server, first_boot) = boot(&image, spec)?;
    let t = Instant::now();
    let (counts, mut answers, plans) = fixed_pass(&server, spec, cfg.seed)?;
    let pass_s = t.elapsed().as_secs_f64();

    let cache0 = server.cache_metrics();
    let host0 = measure::host_cpu_ticks()?;
    let mut w = closed_loop(&server, spec, cfg)?;
    let host1 = measure::host_cpu_ticks()?;
    let peak_rss_mb = measure::peak_rss_mb()?;
    let cache1 = server.cache_metrics();

    let latencies = w.calm_latencies_ms();
    if latencies.is_empty() {
        return Err(format!(
            "no request completed; first error: {}",
            w.first_error.unwrap_or_default()
        ));
    }
    for (req, h) in w.answers.drain() {
        answers.entry(req).or_insert(h);
    }
    let t = Instant::now();
    let mismatches = oracle_gate(&server, spec, &plans, &answers);
    let oracle_s = t.elapsed().as_secs_f64();
    drop(server);
    let mut setup = vec![first_boot];
    for _ in 1..cfg.setup_reps {
        setup.push(boot(&image, spec)?.1);
    }

    let all = w.all_latencies_ms();
    let calm_steal: Vec<f64> = w.calm().map(|s| s.steal_pct).collect();
    let mut notes = vec![
        provenance(cfg, spec, &image, false),
        format!("counts {}", counts.to_json()),
        format!(
            "window {{\"wall_s\": {}, \"completed\": {}, \"mean_qps\": {}, \"slices\": {}, \
             \"calm_slices\": {}, \"calm_completed\": {}, \"host_steal_pct\": {}, \
             \"calm_steal_pct_max\": {}, \"failed\": {}, \"error_frac\": {}, \
             \"window_p50_ms\": {}, \"window_p99_ms\": {}, \"cache_hits\": {}, \
             \"cache_misses\": {}, \"oracle_checked\": {}, \"oracle_mismatches\": {}}}",
            w.wall_s,
            all.len(),
            all.len() as f64 / w.slices.iter().map(|s| s.secs).sum::<f64>(),
            w.slices.len(),
            w.calm.len(),
            latencies.len(),
            100.0 * (host1.1 - host0.1) as f64 / (host1.0 - host0.0).max(1) as f64,
            calm_steal.iter().copied().fold(0.0, f64::max),
            w.failed,
            w.failed as f64 / w.attempted as f64,
            quantile(&all, 0.5),
            quantile(&all, 0.99),
            cache1.hits - cache0.hits,
            cache1.misses - cache0.misses,
            answers.len(),
            mismatches.len()
        ),
        format!(
            "phases {{\"generate_s\": {generate_s}, \"setup_total_s\": {}, \"fixed_pass_s\": {pass_s}, \
             \"oracle_s\": {oracle_s}}}",
            setup.iter().sum::<f64>()
        ),
    ];
    if let Some(e) = &w.first_error {
        notes.push(format!("first error: {e}"));
    }
    notes.extend(mismatches.iter().take(10).map(|m| format!("MISMATCH {m}")));

    let qps: Vec<f64> = w.calm().map(Slice::qps).collect();
    let cpu: Vec<f64> = w
        .calm()
        .filter(|s| !s.latencies_ms.is_empty())
        .map(Slice::cpu_ms_per_query)
        .collect();
    let mut metrics = vec![
        Metric {
            name: "qps",
            value: median(&qps),
            unit: "1/s",
        },
        Metric {
            name: "latency_p50_ms",
            value: quantile(&latencies, 0.5),
            unit: "ms",
        },
    ];
    // the p99 is reported only when at least ten samples lie beyond it
    if latencies.len() >= TAIL_SAMPLES {
        metrics.push(Metric {
            name: "latency_p99_ms",
            value: quantile(&latencies, 0.99),
            unit: "ms",
        });
    }
    metrics.extend([
        Metric {
            name: "cpu_ms_per_query",
            value: median(&cpu),
            unit: "ms",
        },
        Metric {
            name: "setup_s",
            value: median(&setup),
            unit: "s",
        },
        Metric {
            name: "peak_rss_mb",
            value: peak_rss_mb,
            unit: "MiB",
        },
    ]);
    Ok(Report {
        correct: mismatches.is_empty(),
        attempted: w.attempted,
        failed: w.failed,
        metrics,
        notes,
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    fn slice(steal_pct: f64, completions: usize) -> Slice {
        Slice {
            secs: 1.0,
            cpu_s: 1.0,
            steal_pct,
            latencies_ms: vec![1.0; completions],
        }
    }

    #[test]
    fn calm_slices_keep_the_least_stolen_third_and_its_ties() {
        let steal = [5.0, 0.0, 9.0, 0.5, 0.5, 7.0, 0.0, 3.0, 8.0];
        let slices: Vec<Slice> = steal.iter().map(|&s| slice(s, TAIL_SAMPLES)).collect();
        // the third is slices 1, 6 and 3; slice 4 ties with 3
        assert_eq!(calm_slices(&slices), vec![1, 3, 4, 6]);
        let quiet: Vec<Slice> = (0..6).map(|_| slice(0.0, TAIL_SAMPLES)).collect();
        assert_eq!(calm_slices(&quiet), (0..6).collect::<Vec<_>>());
    }

    #[test]
    fn calm_slices_grow_until_they_hold_enough_completions() {
        let steal = [4.0, 1.0, 3.0, 2.0, 5.0, 6.0];
        let slices: Vec<Slice> = steal.iter().map(|&s| slice(s, TAIL_SAMPLES / 3)).collect();
        // two slices are the third; the next two calmest make up the count
        assert_eq!(calm_slices(&slices), vec![0, 1, 2, 3]);
        assert!(calm_slices(&[]).is_empty());
    }
}
