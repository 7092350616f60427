//! `cargo xtask` — workspace automation driver.
//!
//! Subcommands:
//! - `lint` — run mc-lint over the workspace (see `xtask::run_lint`).
//!   Exits non-zero on any violation or stale allowlist entry.
//! - `analyze` — run mc-analyze, the structural analysis layer (see
//!   `xtask::analyze::run_analyze`): lock-order and seam checks,
//!   spec/scenario drift passes, allowlist staleness, and the
//!   tree-based `no-direct-fit` / `single-construction` rules. Same
//!   deny-by-default contract and allowlist file as `lint`;
//!   `--report PATH` additionally writes a machine-readable JSON
//!   findings report.
//! - `bench-gate` — compare freshly generated `BENCH_*.json` reports
//!   against the committed baseline and fail on regressions beyond
//!   tolerance (default 10 %) in any gated metric (p99 latencies, RMSE,
//!   throughput). `--baseline DIR` defaults to `results/`; `--current
//!   DIR` is required; `--tolerance FRAC` overrides the 0.10 default.

use std::path::PathBuf;
use std::process::ExitCode;

fn workspace_root() -> PathBuf {
    // When run through cargo (`cargo xtask ...`) the manifest dir is
    // crates/xtask; the workspace root is two levels up.
    match std::env::var_os("CARGO_MANIFEST_DIR") {
        Some(dir) => {
            let mut root = PathBuf::from(dir);
            root.pop();
            root.pop();
            root
        }
        None => PathBuf::from("."),
    }
}

fn lint() -> ExitCode {
    let root = workspace_root();
    let allow_path = root.join("mc-lint.allow");
    let allowlist = match std::fs::read_to_string(&allow_path) {
        Ok(text) => text,
        Err(e) if e.kind() == std::io::ErrorKind::NotFound => String::new(),
        Err(e) => {
            eprintln!("mc-lint: cannot read {}: {e}", allow_path.display());
            return ExitCode::FAILURE;
        }
    };
    let report = match xtask::run_lint(&root, &allowlist) {
        Ok(report) => report,
        Err(e) => {
            eprintln!("mc-lint: {e}");
            return ExitCode::FAILURE;
        }
    };
    for v in &report.violations {
        println!("{v}");
    }
    for e in &report.errors {
        println!("{e}");
    }
    if report.clean() {
        println!(
            "mc-lint: {} files clean ({} allowlist entr{} in use)",
            report.files,
            report.suppressions_in_use,
            if report.suppressions_in_use == 1 { "y" } else { "ies" }
        );
        ExitCode::SUCCESS
    } else {
        println!(
            "mc-lint: {} violation(s), {} stale allowlist entr{} — fix the code or add a \
             justified entry to mc-lint.allow",
            report.violations.len(),
            report.errors.len(),
            if report.errors.len() == 1 { "y" } else { "ies" }
        );
        ExitCode::FAILURE
    }
}

fn analyze(args: Vec<String>) -> ExitCode {
    let mut cli = mc_spec::cli::Cli::new(args);
    let report_path = match cli.value("--report").map_err(|e| e.to_string()).and_then(|p| {
        cli.finish().map_err(|e| e.to_string())?;
        Ok(p)
    }) {
        Ok(p) => p,
        Err(e) => {
            eprintln!("mc-analyze: {e}");
            return ExitCode::FAILURE;
        }
    };
    let root = workspace_root();
    let allow_path = root.join("mc-lint.allow");
    let allowlist = match std::fs::read_to_string(&allow_path) {
        Ok(text) => text,
        Err(e) if e.kind() == std::io::ErrorKind::NotFound => String::new(),
        Err(e) => {
            eprintln!("mc-analyze: cannot read {}: {e}", allow_path.display());
            return ExitCode::FAILURE;
        }
    };
    let report = match xtask::analyze::run_analyze(&root, &allowlist) {
        Ok(report) => report,
        Err(e) => {
            eprintln!("mc-analyze: {e}");
            return ExitCode::FAILURE;
        }
    };
    if let Some(path) = report_path {
        let path = root.join(path);
        if let Err(e) = std::fs::write(&path, report.to_json()) {
            eprintln!("mc-analyze: cannot write {}: {e}", path.display());
            return ExitCode::FAILURE;
        }
    }
    for f in &report.findings {
        println!("{f}");
    }
    for e in &report.errors {
        println!("{e}");
    }
    if report.clean() {
        println!(
            "mc-analyze: {} files clean ({} lock sites covered, {} allowlist entr{} in use)",
            report.files,
            report.lock_sites,
            report.suppressions_in_use,
            if report.suppressions_in_use == 1 { "y" } else { "ies" }
        );
        ExitCode::SUCCESS
    } else {
        println!(
            "mc-analyze: {} finding(s), {} stale allowlist entr{} — fix the code or add a \
             justified entry to mc-lint.allow",
            report.findings.len(),
            report.errors.len(),
            if report.errors.len() == 1 { "y" } else { "ies" }
        );
        ExitCode::FAILURE
    }
}

/// Loads and parses one `BENCH_*.json`, mapping both error layers into
/// one message.
fn load_report(path: &std::path::Path) -> Result<mc_spec::BenchReport, String> {
    let text =
        std::fs::read_to_string(path).map_err(|e| format!("read {}: {e}", path.display()))?;
    mc_spec::BenchReport::parse(&text).map_err(|e| format!("{}: {e}", path.display()))
}

fn bench_gate(args: Vec<String>) -> ExitCode {
    let mut cli = mc_spec::cli::Cli::new(args);
    let run = || -> Result<Vec<String>, String> {
        let baseline =
            cli.value("--baseline").map_err(|e| e.to_string())?.unwrap_or_else(|| "results".into());
        let current = cli
            .value("--current")
            .map_err(|e| e.to_string())?
            .ok_or("bench-gate needs --current <dir> (the freshly generated reports)")?;
        let tolerance: f64 = cli.parsed_or("--tolerance", 0.10_f64).map_err(|e| e.to_string())?;
        cli.finish().map_err(|e| e.to_string())?;
        let baseline_dir = workspace_root().join(baseline);
        let current_dir = workspace_root().join(current);

        let mut names: Vec<String> = std::fs::read_dir(&baseline_dir)
            .map_err(|e| format!("read {}: {e}", baseline_dir.display()))?
            .filter_map(Result::ok)
            .filter_map(|entry| entry.file_name().into_string().ok())
            .filter(|name| name.starts_with("BENCH_") && name.ends_with(".json"))
            .collect();
        names.sort();
        if names.is_empty() {
            return Err(format!("no BENCH_*.json baselines under {}", baseline_dir.display()));
        }

        let mut regressions = Vec::new();
        for name in &names {
            let base = load_report(&baseline_dir.join(name))?;
            let current_path = current_dir.join(name);
            if !current_path.is_file() {
                regressions.push(format!("{name}: baseline report has no current-run counterpart"));
                continue;
            }
            let cur = load_report(&current_path)?;
            let found = mc_spec::bencher::gate(&base, &cur, tolerance);
            if found.is_empty() {
                println!("bench-gate: {name} ok ({} metrics)", base.metrics.len());
            }
            regressions.extend(found);
        }
        Ok(regressions)
    };
    match run() {
        Ok(regressions) if regressions.is_empty() => {
            println!("bench-gate: all reports within tolerance");
            ExitCode::SUCCESS
        }
        Ok(regressions) => {
            for r in &regressions {
                println!("bench-gate: REGRESSION {r}");
            }
            println!("bench-gate: {} regression(s)", regressions.len());
            ExitCode::FAILURE
        }
        Err(e) => {
            eprintln!("bench-gate: {e}");
            ExitCode::FAILURE
        }
    }
}

fn main() -> ExitCode {
    let mut args = std::env::args().skip(1);
    match args.next().as_deref() {
        Some("lint") => lint(),
        Some("analyze") => analyze(args.collect()),
        Some("bench-gate") => bench_gate(args.collect()),
        Some(other) => {
            eprintln!("xtask: unknown task `{other}` (available: lint, analyze, bench-gate)");
            ExitCode::FAILURE
        }
        None => {
            eprintln!(
                "usage: cargo xtask <task>\n\ntasks:\n  lint          run mc-lint over the \
                 workspace\n  analyze       run mc-analyze (lock order, spec/scenario \
                 drift, allowlist staleness) [--report PATH]\n  bench-gate    compare \
                 BENCH_*.json reports against the committed baseline"
            );
            ExitCode::FAILURE
        }
    }
}
