//! Wall-clock benchmark of the MultiCast forecast path.
//!
//! ```text
//! cargo run --release --offline --manifest-path perfbench/Cargo.toml -- \
//!     --workload engine-digit --seed 1 --seconds 10 --trace 0
//! ```
//!
//! Runs one workload for `--seconds` of measured time, checks every
//! output, prints a table of metrics and, as its last line, one JSON
//! object: end-to-end metrics with `--trace 0`, per-layer metrics with
//! `--trace 1`. See `README.md` beside this crate.

mod calib;
mod engine;
mod inputs;
mod layers;
mod report;
mod serve;
mod stats;

use std::process::ExitCode;
use std::time::{Duration, Instant};

use mc_tslib::error::Result;

use crate::inputs::Window;
use crate::layers::Forecast;
use crate::report::{Metric, OpResult, Report};

/// Set-ups per untraced run; `setup_s` is their median.
const SETUP_REPS: usize = 5;

/// The workloads (`README.md` says why each was chosen).
const WORKLOADS: [&str; 3] = ["engine-digit", "engine-sax", "serve-mixed"];

/// What one invocation runs.
#[derive(Debug, Clone)]
pub struct Options {
    pub workload: String,
    pub seed: u64,
    /// Measured time.
    pub seconds: f64,
    /// Per-layer (traced) run instead of the end-to-end one.
    pub trace: bool,
    /// Worker threads for the serve pool.
    pub nproc: usize,
    /// Stop after this many operations even if time remains.
    pub max_ops: usize,
    /// Corrupt the first forecast before its check (self-test only).
    pub perturb: bool,
}

fn usage() -> String {
    format!(
        "usage: mc-perfbench --workload <{}> --seed <u64> --seconds <secs> --trace <0|1>",
        WORKLOADS.join("|")
    )
}

fn parse(args: &[String]) -> std::result::Result<Options, String> {
    let mut opts = Options {
        workload: String::new(),
        seed: 1,
        seconds: 10.0,
        trace: false,
        nproc: std::thread::available_parallelism().map_or(1, usize::from),
        max_ops: usize::MAX,
        perturb: false,
    };
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        let bad = |what: &str| format!("{flag}: {what}, got {value:?}");
        match flag.as_str() {
            "--workload" => opts.workload.clone_from(value),
            "--seed" => {
                opts.seed = value.parse().map_err(|_| bad("expected an unsigned integer"))?;
            }
            "--seconds" => {
                opts.seconds = value
                    .parse::<f64>()
                    .ok()
                    .filter(|s| s.is_finite() && *s > 0.0)
                    .ok_or_else(|| bad("expected a positive number"))?;
            }
            "--trace" => {
                opts.trace = match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(bad("expected 0 or 1")),
                };
            }
            _ => return Err(format!("unknown argument {flag}")),
        }
    }
    if !WORKLOADS.contains(&opts.workload.as_str()) {
        return Err(format!("unknown workload {:?}", opts.workload));
    }
    Ok(opts)
}

/// Runs the workload `opts` names.
pub fn run(opts: &Options) -> Report {
    let mut report = match opts.workload.as_str() {
        "engine-digit" => engine::run(engine::Kind::Digit, opts),
        "engine-sax" => engine::run(engine::Kind::Sax, opts),
        _ => serve::run(opts),
    };
    report.scale_to_reference();
    report
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let opts = match parse(&args) {
        Ok(o) => o,
        Err(e) => {
            eprintln!("{e}\n{}", usage());
            return ExitCode::from(2);
        }
    };
    let report = run(&opts);
    if report.metrics.iter().any(|m| !m.value.is_finite()) {
        eprintln!("a metric is not a finite number");
        return ExitCode::FAILURE;
    }
    print!("{}", report.table());
    println!("{}", report.json());
    ExitCode::SUCCESS
}

pub fn nanos(since: Instant) -> u64 {
    as_nanos(since.elapsed())
}

pub fn as_nanos(d: Duration) -> u64 {
    u64::try_from(d.as_nanos()).unwrap_or(u64::MAX)
}

/// Checks one forecast: it completed, has `dims x horizon` finite values
/// and equals every reference bit for bit. `perturb` flips the lowest bit
/// of its first value first.
pub fn verdict(
    latency_ns: u64,
    out: Result<Forecast>,
    references: &[Result<Forecast>],
    w: &Window,
    horizon: usize,
    dataset: usize,
    perturb: bool,
) -> OpResult {
    let Ok(mut f) = out else {
        return OpResult { latency_ns, ok: false, degraded: false, nrmse: 0.0, dataset };
    };
    if perturb {
        if let Some(v) = f.columns.first_mut().and_then(|c| c.first_mut()) {
            *v = f64::from_bits(v.to_bits() ^ 1);
        }
    }
    let ok = f.well_formed(w.train.dims(), horizon)
        && references.iter().all(|r| r.as_ref().is_ok_and(|r| f.same_bits(r)));
    let nrmse = if ok { f.nrmse(&w.train, &w.test) } else { 0.0 };
    OpResult { latency_ns, ok, degraded: f.degraded, nrmse, dataset }
}

/// `obs.trace_overhead_fraction`: traced vs untraced median latency.
pub fn overhead_metric(plain_ns: &[f64], traced_ns: &[f64]) -> Metric {
    let (plain, traced) = (stats::median(plain_ns), stats::median(traced_ns));
    Metric::new(
        "obs.trace_overhead_fraction",
        "ratio",
        stats::ratio(traced - plain, plain),
        plain_ns.len(),
    )
    .note(format!(
        "(traced p50 {:.4} ms - untraced p50 {:.4} ms) / untraced",
        traced / 1e6,
        plain / 1e6
    ))
}

#[cfg(test)]
mod tests {
    use super::*;

    const END_TO_END: [&str; 8] = [
        "setup_s",
        "latency_ms_p50",
        "latency_ms_p90",
        "forecasts_per_s",
        "success_fraction",
        "sampled_fraction",
        "nrmse",
        "peak_rss_mb",
    ];

    fn short(workload: &str, trace: bool) -> Options {
        let mut opts = parse(&["--workload".into(), workload.into(), "--seed".into(), "7".into()])
            .expect("valid");
        opts.seconds = 0.05;
        opts.max_ops = 12;
        opts.trace = trace;
        opts
    }

    #[test]
    fn every_workload_reports_the_end_to_end_metrics() {
        for name in WORKLOADS {
            let report = run(&short(name, false));
            let names: Vec<&str> = report.metrics.iter().map(|m| m.name).collect();
            assert_eq!(names, END_TO_END, "{name}");
            assert!(
                report.metric("latency_ms_p99").is_some()
                    && report.metric("failed_fraction").is_some()
                    && report.metric("degraded_fraction").is_some()
            );
            assert!(report.attempted > 0 && report.failed == 0, "{name}: {}", report.table());
            assert!(
                report.metrics.iter().all(|m| m.value.is_finite() && m.value > 0.0),
                "{name}: {}",
                report.table()
            );
        }
    }

    #[test]
    fn traced_runs_report_every_layer_and_match_the_engine() {
        for name in WORKLOADS {
            let report = run(&short(name, true));
            assert_eq!(report.failed, 0, "{name}: decomposed replay diverged\n{}", report.table());
            for layer in ["codec.", "lm.", "robust.", "engine.", "serve.", "cache.", "obs."] {
                assert!(
                    report.metrics.iter().any(|m| m.name.starts_with(layer)),
                    "{name}: no {layer} metric"
                );
            }
            assert_eq!(report.metrics.len(), 29, "{name}");
        }
    }

    #[test]
    fn decomposed_replay_matches_engine_run() {
        let pool = inputs::WindowPool::generate(3);
        for kind in [engine::Kind::Digit, engine::Kind::Sax] {
            for i in 0..3 {
                let req = kind.request(&pool, i);
                let plain = layers::engine_forecast(&req).expect("forecast");
                let (replay, sample) = layers::decomposed_forecast(&req).expect("replay");
                assert!(plain.same_bits(&replay), "{kind:?} window {i}");
                assert!(sample.attributed_ns() <= sample.total_ns);
            }
        }
    }

    #[test]
    fn a_perturbed_forecast_counts_as_failed() {
        for name in WORKLOADS {
            for trace in [false, true] {
                let mut opts = short(name, trace);
                opts.perturb = true;
                let report = run(&opts);
                assert_eq!(report.failed, 1, "{name} trace {trace}");
                if !trace {
                    let failed = report.metric("failed_fraction").expect("reported").value;
                    assert!(failed > 0.0, "{name}");
                    assert!(report.metric("success_fraction").expect("reported").value < 1.0);
                }
                assert!(report.json().starts_with("{\"correct\": false"));
            }
        }
    }

    #[test]
    fn bad_arguments_are_rejected() {
        let args = |s: &str| s.split_whitespace().map(String::from).collect::<Vec<_>>();
        assert!(parse(&args("--workload nope")).is_err());
        assert!(parse(&args("--workload engine-sax --trace 2")).is_err());
        assert!(parse(&args("--workload engine-sax --seconds 0")).is_err());
        assert!(parse(&args("--workload engine-sax --seed")).is_err());
        assert!(parse(&args("--workload engine-sax --seed 4 --seconds 3 --trace 1")).is_ok());
    }
}
