//! Sequential refit vs shared-frozen concurrent serving.
//!
//! A thin wrapper over the `concurrent_serving` scenario: `R` sequential
//! pipeline runs vs one shared frozen context fanned across a worker
//! pool, bit-identical by construction (the runner asserts it), timed on
//! the paper's three datasets at varying request counts and sampling
//! widths. Writes `results/concurrent_serving.md`.
//!
//! With `--trace <path>` (and/or `--metrics`), runs the `telemetry`
//! scenario instead: one representative batch served bare, through a
//! no-op recorder, and under a recording observer on the logical clock.
//! The canonical span record goes to `<path>` as JSONL (one span half
//! per line, facts as attributes on close halves), `--metrics` prints the
//! metrics snapshot derived from that record, and both measurements land
//! in `results/serving_telemetry.md`.

use mc_spec::cli::Cli;
use mc_spec::{RunOptions, Runner, ScenarioKind};

fn fail(message: impl std::fmt::Display) -> ! {
    eprintln!("{message}");
    std::process::exit(2);
}

fn main() {
    let mut cli = Cli::from_env();
    let trace = cli.value("--trace").unwrap_or_else(|e| fail(e));
    let metrics = cli.flag("--metrics");
    cli.finish().unwrap_or_else(|e| fail(e));

    let kind = if trace.is_some() || metrics {
        ScenarioKind::Telemetry
    } else {
        ScenarioKind::ConcurrentServing
    };
    let opts = RunOptions {
        trace_path: trace.map(Into::into),
        print_metrics: metrics,
        ..RunOptions::default()
    };
    let summary = Runner::new(opts).run_kind(kind).unwrap_or_else(|e| fail(e));
    for note in &summary.notes {
        println!("{note}");
    }
}
