//! Same-host serving benchmark for GOpt.
//!
//! ```text
//! servebench --workload <interactive|analytic|adhoc> --seed <n> --seconds <s> --trace <0|1>
//! ```
//!
//! Boots a `gopt_server::Server` from a generated LDBC graph image, drives
//! closed-loop Cypher traffic drawn from the seed through
//! `Session::submit_with`, checks every distinct answer against the scalar
//! single-machine oracle and prints one JSON result line last. `--trace 1` replaces the measured run with a
//! traced replay that times each layer's public calls from outside. See
//! `README.md` beside this package for the workloads and metrics.

mod measure;
#[cfg(test)]
mod selftest;
mod serve;
mod trace;
mod workload;

use serve::{Report, RunConfig};
use workload::Workload;

/// Environment variables that override the server configuration; any of them
/// would silently change what is measured.
const OVERRIDES: [&str; 5] = [
    "GOPT_PARTITIONER",
    "GOPT_EXCHANGE_MODE",
    "GOPT_EXCHANGE_CAP",
    "GOPT_FAILPOINTS",
    "GOPT_THREADS",
];

/// Server boots per run; `setup_s` is their median.
const SETUP_REPS: usize = 5;

struct Args {
    workload: Workload,
    seed: u64,
    seconds: f64,
    trace: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut workload = None;
    let mut seed = None;
    let mut seconds = None;
    let mut trace = None;
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        let bad = |what: &str| format!("{flag}: {what}, got {value:?}");
        match flag.as_str() {
            "--workload" => {
                workload = Some(
                    Workload::parse(&value)
                        .ok_or_else(|| bad("expected interactive, analytic or adhoc"))?,
                )
            }
            "--seed" => seed = Some(value.parse().map_err(|_| bad("expected an integer"))?),
            "--seconds" => {
                let s: f64 = value.parse().map_err(|_| bad("expected a number"))?;
                if !(s > 0.0 && s <= 600.0) {
                    return Err(bad("expected 0 < seconds <= 600"));
                }
                seconds = Some(s);
            }
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(bad("expected 0 or 1")),
                })
            }
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    Ok(Args {
        workload: workload.ok_or("--workload is required")?,
        seed: seed.ok_or("--seed is required")?,
        seconds: seconds.ok_or("--seconds is required")?,
        trace: trace.unwrap_or(false),
    })
}

fn result_line(report: &Report) -> String {
    let metrics: Vec<String> = report
        .metrics
        .iter()
        .map(|m| {
            format!(
                "\"{}\": {{\"value\": {}, \"unit\": \"{}\"}}",
                m.name, m.value, m.unit
            )
        })
        .collect();
    format!(
        "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
        report.correct,
        report.attempted,
        report.failed,
        metrics.join(", ")
    )
}

fn main() {
    let set: Vec<&str> = OVERRIDES
        .into_iter()
        .filter(|v| std::env::var_os(v).is_some())
        .collect();
    if !set.is_empty() {
        eprintln!(
            "servebench: refusing to run with {} set; these override the fixed server \
             configuration",
            set.join(", ")
        );
        std::process::exit(2);
    }
    let args = parse_args().unwrap_or_else(|e| {
        eprintln!("servebench: {e}");
        std::process::exit(2);
    });
    let cfg = RunConfig {
        workload: args.workload,
        persons: args.workload.persons(),
        seed: args.seed,
        seconds: args.seconds,
        setup_reps: SETUP_REPS,
    };
    let report = if args.trace {
        trace::run(&cfg)
    } else {
        serve::run(&cfg)
    };
    match report {
        Ok(report) => {
            for note in &report.notes {
                println!("{note}");
            }
            println!("{}", result_line(&report));
            if !report.correct {
                eprintln!("servebench: served answers differ from the scalar oracle");
                std::process::exit(1);
            }
        }
        Err(e) => {
            eprintln!("servebench: {e}");
            std::process::exit(1);
        }
    }
}
