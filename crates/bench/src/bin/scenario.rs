//! Generic scenario driver: runs any `.spec` file through the engine.
//!
//! ```text
//! scenario <file.spec>... [--fast] [--results-dir DIR] [--bench-dir DIR]
//!          [--figure figN] [--trace PATH] [--spans PATH] [--metrics]
//! ```
//!
//! Each file is parsed as a [`ScenarioSpec`] (unknown keys, duplicate
//! keys and malformed values are typed errors), lowered onto the
//! engine/serve seams and executed. `--bench-dir` additionally writes
//! the scenario's canonical `BENCH_<name>.json` there; `--trace` exports
//! the telemetry scenario's canonical span record (JSONL, one span half
//! per line with its attributes) and `--spans` the latency audit's Chrome
//! trace-event (Perfetto) JSON — they are different formats, so pointing
//! both at one path is a typed conflict.

use mc_spec::cli::{Cli, CliError};
use mc_spec::{RunOptions, Runner, ScenarioSpec};

fn fail(message: impl std::fmt::Display) -> ! {
    eprintln!("{message}");
    std::process::exit(2);
}

fn main() {
    let mut cli = Cli::from_env();
    let fast = cli.flag("--fast");
    let print_metrics = cli.flag("--metrics");
    let results_dir =
        cli.value("--results-dir").unwrap_or_else(|e| fail(e)).unwrap_or_else(|| "results".into());
    let bench_dir = cli.value("--bench-dir").unwrap_or_else(|e| fail(e));
    let figure = cli.value("--figure").unwrap_or_else(|e| fail(e));
    let trace = cli.value("--trace").unwrap_or_else(|e| fail(e));
    let spans = cli.value("--spans").unwrap_or_else(|e| fail(e));
    if let (Some(t), Some(s)) = (&trace, &spans) {
        if t == s {
            fail(CliError::conflict(
                "--trace",
                "--spans",
                format!("both would write `{t}` (JSONL trace vs Chrome trace-event JSON)"),
            ));
        }
    }
    let mut files = Vec::new();
    while let Some(p) = cli.positional() {
        files.push(p);
    }
    cli.finish().unwrap_or_else(|e| fail(e));
    if files.is_empty() {
        fail("usage: scenario <file.spec>... [--fast] [--results-dir DIR] [--bench-dir DIR]");
    }

    let runner = Runner::new(RunOptions {
        fast,
        results_dir: results_dir.into(),
        bench_dir: bench_dir.map(Into::into),
        figure,
        trace_path: trace.map(Into::into),
        spans_path: spans.map(Into::into),
        print_metrics,
    });
    for file in files {
        let text = std::fs::read_to_string(&file).unwrap_or_else(|e| fail(format!("{file}: {e}")));
        let spec = ScenarioSpec::parse(&text).unwrap_or_else(|e| fail(format!("{file}: {e}")));
        let summary = runner.run(&spec).unwrap_or_else(|e| fail(format!("{}: {e}", spec.name)));
        for note in &summary.notes {
            println!("{note}");
        }
        println!("{}: ok ({} artifact(s))", summary.name, summary.artifacts.len());
    }
}
