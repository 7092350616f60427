//! Scenario execution: the one place bench code is allowed to touch the
//! `ForecastEngine` / serve-scheduler seams.
//!
//! [`Runner`] takes a parsed [`ScenarioSpec`], lowers it
//! ([`Lowered::lower`]) and dispatches on [`ScenarioKind`]. Scenarios
//! that only drive forecaster traits live in [`scenarios`];
//! the ones that exercise the engine split or the serve scheduler
//! (prompt reuse, concurrent serving, telemetry, serve chaos, cache
//! reuse) are implemented here, because the `no-adhoc-bench` lint forbids every
//! other bench module — and every bench *bin* — from naming those seams
//! directly (see `mc-lint.allow`).
//!
//! Execution is deterministic where the artifact is: markdown tables and
//! `BENCH_*.json` files carry only schedule-independent numbers; notes
//! (and the wall-clock studies' timing columns) are the only place
//! physical time appears.

use std::fmt;
use std::io;
use std::path::PathBuf;
use std::sync::Arc;

use mc_datasets::generators::sinusoids;
use mc_datasets::PaperDataset;
use mc_lm::cache::CacheStats;
use mc_obs::{
    blame, build_trees, chrome_trace, critical_path, pair_spans, NoopRecorder, Observer, Recorder,
    SpanKind, SpanNode, SpanTree,
};
use mc_tslib::error::TsError;
use mc_tslib::forecast::MultivariateForecaster;
use mc_tslib::series::MultivariateSeries;
use mc_tslib::split::holdout_split;
use multicast_core::codec::{Codec, DigitCodec};
use multicast_core::engine::PreparedBackend;
use multicast_core::pipeline::run_continuation;
use multicast_core::robust::DefectClass;
use multicast_core::serve::{
    serve_all, serve_all_observed, ForecastRequest, ServeHandle, ServeOutcome,
};
use multicast_core::{ForecastConfig, ForecastEngine, MultiCastForecaster, Priority, ServeConfig};

use crate::bencher::BenchReport;
use crate::builder::Lowered;
use crate::report::Table;
use crate::spec::{ScenarioKind, ScenarioSpec, SpecError};
use crate::timing::{format_seconds, timed};
use crate::{figs, scenarios, tables, TEST_FRACTION};

/// How a scenario run failed.
#[derive(Debug)]
pub enum RunError {
    /// A pipeline/forecast error bubbled up.
    Ts(TsError),
    /// Writing an artifact failed.
    Io(io::Error),
    /// The spec itself was invalid for this runner.
    Spec(SpecError),
    /// Encoding/decoding text through a tokenizer failed.
    Token(mc_lm::tokenizer::TokenizeError),
    /// An asserted invariant (zero stalls, trace determinism, exact
    /// accounting, bit-identical serve results) did not hold.
    Invariant(String),
}

impl RunError {
    /// A violated-invariant error.
    pub fn invariant(message: impl Into<String>) -> Self {
        RunError::Invariant(message.into())
    }
}

impl fmt::Display for RunError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            RunError::Ts(e) => write!(f, "{e}"),
            RunError::Io(e) => write!(f, "io: {e}"),
            RunError::Spec(e) => write!(f, "spec: {e}"),
            RunError::Token(e) => write!(f, "tokenize: {e}"),
            RunError::Invariant(m) => write!(f, "invariant violated: {m}"),
        }
    }
}

impl std::error::Error for RunError {}

impl From<TsError> for RunError {
    fn from(e: TsError) -> Self {
        RunError::Ts(e)
    }
}

impl From<io::Error> for RunError {
    fn from(e: io::Error) -> Self {
        RunError::Io(e)
    }
}

impl From<SpecError> for RunError {
    fn from(e: SpecError) -> Self {
        RunError::Spec(e)
    }
}

impl From<mc_lm::tokenizer::TokenizeError> for RunError {
    fn from(e: mc_lm::tokenizer::TokenizeError) -> Self {
        RunError::Token(e)
    }
}

/// Knobs a bin passes alongside the spec (the spec says *what*, options
/// say *where/how verbosely*).
#[derive(Debug, Clone)]
pub struct RunOptions {
    /// CI smoke shrink (the old bins' `--fast`); only affects knobs the
    /// spec left unset.
    pub fast: bool,
    /// Where markdown/SVG artifacts land.
    pub results_dir: PathBuf,
    /// When set, scenarios with a [`BenchReport`] also write
    /// `BENCH_<name>.json` here.
    pub bench_dir: Option<PathBuf>,
    /// Figures scenario: render only this figure (`fig2`..`fig8`).
    pub figure: Option<String>,
    /// Telemetry scenario: export the canonical span record (JSONL) here.
    pub trace_path: Option<PathBuf>,
    /// Latency-audit scenario: export the Chrome trace-event JSON
    /// (Perfetto-loadable) here.
    pub spans_path: Option<PathBuf>,
    /// Fold sample reports / observer metrics into a printed snapshot
    /// (returned via [`RunSummary::notes`]).
    pub print_metrics: bool,
}

impl Default for RunOptions {
    fn default() -> Self {
        Self {
            fast: false,
            results_dir: PathBuf::from(crate::RESULTS_DIR),
            bench_dir: None,
            figure: None,
            trace_path: None,
            spans_path: None,
            print_metrics: false,
        }
    }
}

/// What a scenario run produced.
#[derive(Debug)]
pub struct RunSummary {
    /// Scenario name.
    pub name: String,
    /// Files written (markdown, SVG, BENCH json).
    pub artifacts: Vec<PathBuf>,
    /// The machine-readable result set, when the scenario emits one.
    pub bench: Option<BenchReport>,
    /// Human-facing lines for the driving bin to print (the library
    /// never prints).
    pub notes: Vec<String>,
}

impl RunSummary {
    /// Assembles a summary, writing `BENCH_<name>.json` when the run
    /// options ask for it.
    pub(crate) fn of(
        l: &Lowered,
        mut artifacts: Vec<PathBuf>,
        bench: Option<BenchReport>,
        opts: &RunOptions,
    ) -> Result<RunSummary, RunError> {
        if let (Some(dir), Some(report)) = (&opts.bench_dir, &bench) {
            artifacts.push(report.write(dir)?);
        }
        Ok(RunSummary { name: l.name.clone(), artifacts, bench, notes: Vec::new() })
    }
}

/// Executes scenarios.
#[derive(Debug, Default)]
pub struct Runner {
    opts: RunOptions,
}

impl Runner {
    /// A runner with the given options.
    pub fn new(opts: RunOptions) -> Self {
        Self { opts }
    }

    /// The options this runner was built with.
    pub fn options(&self) -> &RunOptions {
        &self.opts
    }

    /// Runs one scenario.
    ///
    /// # Errors
    /// On pipeline errors, artifact I/O failures, or violated invariants.
    pub fn run(&self, spec: &ScenarioSpec) -> Result<RunSummary, RunError> {
        let l = Lowered::lower(spec, self.opts.fast);
        match l.kind {
            ScenarioKind::Table(_) => self.tables(&l),
            ScenarioKind::Figures => self.figures(&l),
            ScenarioKind::Backtest => scenarios::backtest_study(&l, &self.opts),
            ScenarioKind::FaultInjection => scenarios::fault_injection(&l, &self.opts),
            ScenarioKind::Ablation => scenarios::ablation(&l, &self.opts),
            ScenarioKind::Tokenization => scenarios::tokenization(&l, &self.opts),
            ScenarioKind::TasksEval => scenarios::tasks_eval(&l, &self.opts),
            ScenarioKind::PromptReuse => self.prompt_reuse(&l),
            ScenarioKind::ConcurrentServing => self.concurrent_serving(&l),
            ScenarioKind::Telemetry => self.telemetry(&l),
            ScenarioKind::ServeChaos => self.serve_chaos(&l),
            ScenarioKind::CacheReuse => self.cache_reuse(&l),
            ScenarioKind::LatencyAudit => self.latency_audit(&l),
        }
    }

    /// Runs a default-spec scenario of the given kind.
    ///
    /// # Errors
    /// As [`Runner::run`].
    pub fn run_kind(&self, kind: ScenarioKind) -> Result<RunSummary, RunError> {
        self.run(&ScenarioSpec::new(kind))
    }

    /// Runs a grid of scenarios in order, stopping at the first failure.
    ///
    /// # Errors
    /// As [`Runner::run`].
    pub fn run_grid(&self, specs: &[ScenarioSpec]) -> Result<Vec<RunSummary>, RunError> {
        specs.iter().map(|s| self.run(s)).collect()
    }

    /// Paper tables I–IX. Table I also renders Table II (dataset
    /// inventory and parameters travel together, as in the old bin).
    fn tables(&self, l: &Lowered) -> Result<RunSummary, RunError> {
        let dir = &self.opts.results_dir;
        let samples = l.config.samples;
        let mut artifacts = Vec::new();
        match l.kind {
            ScenarioKind::Table(1) => {
                artifacts.push(tables::table1_datasets().emit(dir, "table1.md")?);
                artifacts.push(tables::table2_parameters().emit(dir, "table2.md")?);
            }
            ScenarioKind::Table(2) => {
                artifacts.push(tables::table2_parameters().emit(dir, "table2.md")?);
            }
            ScenarioKind::Table(3) => {
                artifacts.push(tables::table3_model_comparison(samples)?.emit(dir, "table3.md")?);
            }
            ScenarioKind::Table(4) => {
                artifacts.push(tables::table4_gas_rate(samples)?.emit(dir, "table4.md")?);
            }
            ScenarioKind::Table(5) => {
                artifacts.push(tables::table5_electricity(samples)?.emit(dir, "table5.md")?);
            }
            ScenarioKind::Table(6) => {
                artifacts.push(tables::table6_weather(samples)?.emit(dir, "table6.md")?);
            }
            ScenarioKind::Table(7) => {
                artifacts.push(tables::table7_samples_sweep(&l.sweep)?.emit(dir, "table7.md")?);
            }
            ScenarioKind::Table(8) => {
                artifacts
                    .push(tables::table8_segment_sweep(&l.sweep, samples)?.emit(dir, "table8.md")?);
            }
            ScenarioKind::Table(9) => {
                artifacts.push(
                    tables::table9_alphabet_sweep(&l.sweep, samples)?.emit(dir, "table9.md")?,
                );
            }
            other => return Err(RunError::invariant(format!("not a table scenario: {other:?}"))),
        }
        RunSummary::of(l, artifacts, None, &self.opts)
    }

    /// Figures 2–8 (all, or the one named in [`RunOptions::figure`]).
    fn figures(&self, l: &Lowered) -> Result<RunSummary, RunError> {
        let dir = &self.opts.results_dir;
        let samples = l.config.samples;
        let artifacts = match self.opts.figure.as_deref() {
            None | Some("all") => figs::all_figures(dir, samples)?,
            Some("fig2") => figs::fig2(dir, samples)?,
            Some("fig3") => vec![figs::fig3(dir, samples)?],
            Some("fig4") => vec![figs::fig4(dir, samples)?],
            Some("fig5") => vec![figs::fig5(dir, samples)?],
            Some("fig6") => vec![figs::fig6(dir, samples)?],
            Some("fig7") => vec![figs::fig7(dir, samples)?],
            Some("fig8") => vec![figs::fig8(dir, samples)?],
            Some(other) => {
                return Err(RunError::invariant(format!(
                    "unknown figure `{other}` (expected fig2..fig8 or all)"
                )))
            }
        };
        let mut summary = RunSummary::of(l, artifacts, None, &self.opts)?;
        summary.notes =
            summary.artifacts.iter().map(|p| format!("wrote {}", p.display())).collect();
        Ok(summary)
    }

    /// Fit-once vs refit-per-sample (`results/prompt_reuse.md`): what the
    /// `FrozenLm` split buys, at the paper's sampling widths.
    fn prompt_reuse(&self, l: &Lowered) -> Result<RunSummary, RunError> {
        let series = l.dataset.load();
        let (train, test) = holdout_split(&series, TEST_FRACTION)?;
        let horizon = test.len();
        let config = ForecastConfig::default();
        let codec = DigitCodec::from_config(l.mux, &config);
        let fitted = codec.fit(&train)?;
        let cont = ForecastEngine::new(config).continuation_spec(fitted.as_ref(), horizon);

        let mut table = Table::new(
            "Prompt reuse on Gas Rate (VI): refit per sample vs fit-once + forked sessions",
            &["S", "refit per sample", "fit-once", "speedup"],
        );
        for &samples in &l.sweep {
            let (refit_ok, refit) = timed(|| -> Result<(), TsError> {
                for i in 0..samples {
                    run_continuation(&cont, config.sampler_for(i))?;
                }
                Ok(())
            });
            refit_ok?;
            let (reuse_ok, reuse) = timed(|| -> Result<(), TsError> {
                let backend = PreparedBackend::fit(&cont)?;
                let sampler = backend.sampler(cont.separators, cont.max_tokens);
                for i in 0..samples {
                    sampler.draw(config.sampler_for(i))?;
                }
                Ok(())
            });
            reuse_ok?;
            table.row(vec![
                samples.to_string(),
                format_seconds(refit),
                format_seconds(reuse),
                format!("{:.2}x", refit / reuse),
            ]);
        }
        let path = table.emit(&self.opts.results_dir, "prompt_reuse.md")?;
        RunSummary::of(l, vec![path], None, &self.opts)
    }

    /// Sequential refit vs shared-frozen concurrent serving
    /// (`results/concurrent_serving.md`), with a bit-identical check
    /// between both paths at every (dataset, R, S) point.
    fn concurrent_serving(&self, l: &Lowered) -> Result<RunSummary, RunError> {
        let workers = l.serve.workers;
        let mut table = Table::new(
            format!(
                "Concurrent serving (VI): R sequential refits vs one shared frozen context \
                 + {workers} workers"
            ),
            &["dataset", "R", "S", "sequential refit", "shared serve", "speedup"],
        );
        for dataset in PaperDataset::ALL {
            let series = dataset.load();
            let (train, test) = holdout_split(&series, TEST_FRACTION)?;
            let horizon = test.len();
            for &requests in &l.sweep {
                for &samples in &l.samples_sweep {
                    let configs: Vec<ForecastConfig> = (0..requests)
                        .map(|r| ForecastConfig {
                            samples,
                            seed: l.config.seed + r as u64,
                            ..ForecastConfig::default()
                        })
                        .collect();

                    let (sequential, seq_time) = best_of(|| {
                        timed(|| -> Result<Vec<_>, TsError> {
                            configs
                                .iter()
                                .map(|cfg| {
                                    MultiCastForecaster::new(l.mux, *cfg).forecast(&train, horizon)
                                })
                                .collect()
                        })
                    });
                    let sequential = sequential?;

                    let batch: Vec<ForecastRequest> = configs
                        .iter()
                        .map(|cfg| ForecastRequest::digit(train.clone(), horizon, l.mux, *cfg))
                        .collect();
                    let (run, serve_time) = best_of(|| {
                        timed(|| serve_all(&batch, &ServeConfig::with_workers(workers)))
                    });

                    // The scheduler must not change the numbers, only the
                    // clock.
                    if run.contexts.len() != 1 {
                        return Err(RunError::invariant("one history, one frozen context"));
                    }
                    for (solo, outcome) in sequential.iter().zip(&run.outcomes) {
                        let served = outcome
                            .forecast
                            .as_ref()
                            .map_err(|e| RunError::invariant(format!("served forecast: {e}")))?;
                        for d in 0..solo.dims() {
                            let (a, b) = (solo.column(d)?, served.column(d)?);
                            if !a.iter().zip(b).all(|(x, y)| x.to_bits() == y.to_bits()) {
                                return Err(RunError::invariant(format!(
                                    "{dataset}: served forecast diverged from sequential"
                                )));
                            }
                        }
                    }

                    table.row(vec![
                        dataset.to_string(),
                        requests.to_string(),
                        samples.to_string(),
                        format_seconds(seq_time),
                        format_seconds(serve_time),
                        format!("{:.2}x", seq_time / serve_time),
                    ]);
                }
            }
        }
        let path = table.emit(&self.opts.results_dir, "concurrent_serving.md")?;
        RunSummary::of(l, vec![path], None, &self.opts)
    }

    /// The telemetry study (`results/serving_telemetry.md`): recorder-seam
    /// overhead plus the traced run feeding the canonical JSONL export.
    fn telemetry(&self, l: &Lowered) -> Result<RunSummary, RunError> {
        use std::fmt::Write as _;
        let workers = l.serve.workers;
        let series = l.dataset.load();
        let (train, test) = holdout_split(&series, TEST_FRACTION)?;
        let horizon = test.len();
        let batch: Vec<ForecastRequest> = (0..l.per_wave)
            .map(|r| {
                let config = ForecastConfig {
                    samples: l.config.samples,
                    seed: l.config.seed + r as u64,
                    ..ForecastConfig::default()
                };
                ForecastRequest::digit(train.clone(), horizon, l.mux, config)
            })
            .collect();
        let serve_config = ServeConfig::with_workers(workers);
        let mut notes = Vec::new();

        // Overhead of the recorder seam itself: bare serve_all vs the same
        // batch through a disabled recorder (one virtual call per probe).
        // One untimed pass first so dataset/codec warm-up is not charged
        // to whichever variant happens to run first.
        serve_all(&batch, &serve_config);
        let (_, bare) = best_of(|| timed(|| serve_all(&batch, &serve_config)));
        let noop: Arc<dyn Recorder> = Arc::new(NoopRecorder);
        let (_, disabled) =
            best_of(|| timed(|| serve_all_observed(&batch, &serve_config, noop.clone())));

        // The recording run: logical clock, canonical export.
        let obs = Arc::new(Observer::logical());
        let (run, traced) = timed(|| serve_all_observed(&batch, &serve_config, obs.clone()));
        for outcome in &run.outcomes {
            if outcome.forecast.is_err() {
                return Err(RunError::invariant("telemetry batch request failed"));
            }
        }
        let jsonl = obs.spans_to_jsonl();
        if let Some(path) = &self.opts.trace_path {
            std::fs::write(path, &jsonl)?;
            notes.push(format!("wrote {} ({} span halves)", path.display(), jsonl.lines().count()));
        }
        let snapshot = obs.metrics().snapshot();
        if self.opts.print_metrics {
            notes.push(snapshot.to_markdown());
        }

        let mut md = String::new();
        md.push_str("# Serving telemetry\n\n");
        let _ = writeln!(
            md,
            "One shared-context batch on Gas Rate: {} requests x {} samples, {workers} workers.\n",
            l.per_wave, l.config.samples
        );
        md.push_str("| serve path | wall clock |\n|---|---:|\n");
        let _ = writeln!(md, "| `serve_all` (no recorder seam) | {} |", format_seconds(bare));
        let _ = writeln!(
            md,
            "| `serve_all_observed` + `NoopRecorder` | {} |",
            format_seconds(disabled)
        );
        let _ = writeln!(
            md,
            "| `serve_all_observed` + `Observer` (logical clock) | {} |",
            format_seconds(traced)
        );
        let _ = writeln!(
            md,
            "\nNo-op overhead: {:+.1} % (best-of-3; the disabled recorder adds one \
             virtual call per probe and must stay in the noise). Canonical span \
             record: {} fact records in {} JSONL span halves, byte-identical across \
             worker counts and submission orders (`tests/serving.rs`).\n",
            (disabled / bare - 1.0) * 100.0,
            fact_records(&obs),
            jsonl.lines().count()
        );
        md.push_str("## Metrics snapshot (recorded run)\n\n");
        md.push_str(&snapshot.to_markdown());

        // Span-tree view from a single-worker reference run of the same
        // batch: one worker's schedule is total, so the tree shape and
        // its logical ticks are deterministic and the committed doc is
        // reproducible.
        let ref_obs = Arc::new(Observer::logical());
        serve_all_observed(&batch, &ServeConfig::with_workers(1), ref_obs.clone());
        let paired = pair_spans(&ref_obs.spans())
            .map_err(|e| RunError::invariant(format!("telemetry span pairing: {e}")))?;
        let trees = build_trees(&paired);
        let first = trees
            .iter()
            .find(|t| t.root.span.kind == SpanKind::Request)
            .ok_or_else(|| RunError::invariant("telemetry batch emits a request span"))?;
        md.push_str("\n## Span tree (request 0, single-worker reference)\n\n");
        md.push_str(
            "Causal spans reconstructed from the same batch on one worker \
             (`pair_spans` + `build_trees`); durations are logical ticks.\n\n",
        );
        render_span_tree(&first.root, 0, &mut md);
        let blamed = blame(first);
        let parts: Vec<String> =
            blamed.iter().map(|(name, ticks)| format!("`{name}` {ticks}")).collect();
        let _ = writeln!(
            md,
            "\nStage blame (ticks, partitions the root exactly): {}. See \
             `results/latency_audit.md` for the gated percentile study.",
            parts.join(", ")
        );
        std::fs::create_dir_all(&self.opts.results_dir)?;
        let out = self.opts.results_dir.join("serving_telemetry.md");
        std::fs::write(&out, md)?;
        notes.push(format!("wrote {}", out.display()));

        let mut summary = RunSummary::of(l, vec![out], None, &self.opts)?;
        summary.notes = notes;
        Ok(summary)
    }

    /// The chaos drill (`results/serve_chaos.md`): a saturating,
    /// fault-injected load through every overload knob, with zero-stall
    /// and trace-determinism invariants checked rather than reported.
    fn serve_chaos(&self, l: &Lowered) -> Result<RunSummary, RunError> {
        let profile =
            l.faults.ok_or_else(|| RunError::invariant("serve_chaos lowers a fault profile"))?;
        let deadline = l
            .deadline_tokens
            .ok_or_else(|| RunError::invariant("serve_chaos lowers a deadline"))?;
        let queue_cap = l
            .serve
            .queue_cap
            .ok_or_else(|| RunError::invariant("serve_chaos lowers a queue cap"))?;
        let workers = l.serve.workers;
        let waves = l.waves;
        let config = l.serve;

        let load = chaos_load(l, profile);
        let submitted: usize = load.iter().map(Vec::len).sum();

        let obs = Arc::new(Observer::logical());
        let mut handle = ServeHandle::with_recorder(config, obs.clone());
        let mut ids = Vec::with_capacity(submitted);
        for wave in &load {
            for request in wave {
                ids.push(handle.submit(request.clone()));
            }
            handle.flush();
        }

        // Zero worker stalls: every id resolves to a typed outcome. A lost
        // settlement would have hung flush() before we ever got here; an
        // unknown id would return a typed error and fail this loop.
        let outcomes = ids
            .iter()
            .map(|&id| handle.collect(id))
            .collect::<Result<Vec<_>, _>>()
            .map_err(|e| RunError::invariant(format!("every submitted id collects: {e}")))?;
        if outcomes.len() != submitted {
            return Err(RunError::invariant("zero worker stalls: all ids resolved"));
        }

        let mut shed = 0usize;
        let mut queue_full = 0usize;
        let mut quota = 0usize;
        let mut breaker = 0usize;
        let mut completed = 0usize;
        let mut fallbacks = 0usize;
        let mut expiries = 0usize;
        let mut prompt_tokens = 0u64;
        let mut generated_tokens = 0u64;
        let mut spends: Vec<u64> = Vec::new();
        for outcome in &outcomes {
            match &outcome.forecast {
                Ok(_) => {
                    completed += 1;
                    prompt_tokens += outcome.cost.prompt_tokens;
                    generated_tokens += outcome.cost.generated_tokens;
                    spends.push(outcome.cost.generated_tokens);
                    if let Some(report) = &outcome.report {
                        if report.degraded() {
                            fallbacks += 1;
                        }
                        expiries += report.defect_count(DefectClass::DeadlineExpired);
                    }
                }
                Err(TsError::Overloaded { kind, .. }) => match *kind {
                    "shed" => shed += 1,
                    "queue-full" => queue_full += 1,
                    "quota" => quota += 1,
                    "breaker-open" => breaker += 1,
                    other => {
                        return Err(RunError::invariant(format!(
                            "unexpected overload kind `{other}`"
                        )))
                    }
                },
                Err(e) => {
                    return Err(RunError::invariant(format!(
                        "chaos run must degrade, not error: {e}"
                    )))
                }
            }
        }
        spends.sort_unstable();

        // Scheduling independence under chaos: one admitted wave, canonical
        // span record byte-identical across worker counts.
        let reference_wave = &load[0];
        let observe_at = |w: usize| {
            let obs = Arc::new(Observer::logical());
            let cfg = ServeConfig { workers: w, ..config };
            serve_all_observed(reference_wave, &cfg, obs.clone());
            obs
        };
        let reference_obs = observe_at(1);
        let reference = reference_obs.spans_to_jsonl();
        for w in [2usize, workers.max(2)] {
            if observe_at(w).spans_to_jsonl() != reference {
                return Err(RunError::invariant(format!(
                    "{w} workers changed the canonical span trace"
                )));
            }
        }

        // Queue-wait attribution from the single-worker reference run: the
        // uncovered root segments of each admitted request's span tree are
        // exactly the time it spent queued or scheduled (see
        // [`mc_obs::blame`]). One worker's schedule is total, so these
        // ticks are deterministic and independent of the configured
        // worker count.
        let paired = pair_spans(&reference_obs.spans())
            .map_err(|e| RunError::invariant(format!("chaos span pairing: {e}")))?;
        let mut queue_waits: Vec<u64> = build_trees(&paired)
            .iter()
            .filter(|t| t.root.span.kind == SpanKind::Request)
            .map(|t| blame(t).iter().filter(|&&(n, _)| n == "queue_wait").map(|&(_, d)| d).sum())
            .collect();
        queue_waits.sort_unstable();

        let mut t = Table::new(
            format!(
                "Serve chaos — {submitted} requests ({waves} flushes), faults `{profile}`, \
                 queue cap {queue_cap}, deadline {deadline} tokens, {workers} workers"
            ),
            &["outcome", "count", "rate"],
        );
        t.row(vec!["completed".into(), completed.to_string(), pct(completed, submitted)]);
        t.row(vec!["  of which fallback".into(), fallbacks.to_string(), pct(fallbacks, submitted)]);
        t.row(vec!["shed (admission)".into(), shed.to_string(), pct(shed, submitted)]);
        t.row(vec![
            "queue-full (submit)".into(),
            queue_full.to_string(),
            pct(queue_full, submitted),
        ]);
        t.row(vec!["quota-rejected".into(), quota.to_string(), pct(quota, submitted)]);
        t.row(vec!["breaker-rejected".into(), breaker.to_string(), pct(breaker, submitted)]);
        t.row(vec!["deadline expiries (samples)".into(), expiries.to_string(), "-".into()]);
        t.row(vec![
            "p50 spend (generated tokens)".into(),
            percentile(&spends, 0.50).to_string(),
            "-".into(),
        ]);
        t.row(vec![
            "p99 spend (generated tokens)".into(),
            percentile(&spends, 0.99).to_string(),
            "-".into(),
        ]);
        t.row(vec![
            "p50 queue wait (ticks, 1-worker reference)".into(),
            percentile(&queue_waits, 0.50).to_string(),
            "gated".into(),
        ]);
        t.row(vec![
            "p99 queue wait (ticks, 1-worker reference)".into(),
            percentile(&queue_waits, 0.99).to_string(),
            "gated".into(),
        ]);
        t.row(vec!["worker stalls".into(), "0".into(), "asserted".into()]);
        t.row(vec![
            "trace determinism (1/2/N workers)".into(),
            format!("{} facts", fact_records(&reference_obs)),
            "byte-identical".into(),
        ]);
        let path = t.emit(&self.opts.results_dir, "serve_chaos.md")?;

        if completed + shed + queue_full + quota + breaker != submitted {
            return Err(RunError::invariant("every request accounted for exactly once"));
        }

        // `trace_events` counts the canonical record's fact records.
        let trace_events = fact_records(&obs);
        let mut bench = BenchReport::new(l.kind, &l.name);
        bench
            .push("submitted", submitted as f64)
            .push("completed", completed as f64)
            .push("fallbacks", fallbacks as f64)
            .push("shed", shed as f64)
            .push("queue_full", queue_full as f64)
            .push("quota_rejected", quota as f64)
            .push("breaker_rejected", breaker as f64)
            .push("deadline_expiries", expiries as f64)
            .push("p50_spend_tokens", percentile(&spends, 0.50) as f64)
            .push("p99_spend_tokens", percentile(&spends, 0.99) as f64)
            .push("p50_queue_wait_ticks", percentile(&queue_waits, 0.50) as f64)
            .push("p99_queue_wait_ticks", percentile(&queue_waits, 0.99) as f64)
            .push("prompt_tokens", prompt_tokens as f64)
            .push("generated_tokens", generated_tokens as f64)
            .push("trace_events", trace_events as f64)
            .push(
                "throughput_tokens_per_event",
                generated_tokens as f64 / (trace_events.max(1)) as f64,
            );
        RunSummary::of(l, vec![path], Some(bench), &self.opts)
    }

    /// The cache-reuse study (`results/cache_reuse.md`): the same
    /// `waves x per_wave` load over one shared history served warm (one
    /// `ServeHandle`, cross-batch cache on) and cold (cache off), with
    /// warm-vs-cold bit-identity, canonical-trace determinism across
    /// worker counts, and an exact hit/miss ledger asserted rather than
    /// reported. An incremental-refit probe on a grown synthetic history
    /// closes the loop: the refit context must forecast bit-identically
    /// to a cold fit of the grown history.
    fn cache_reuse(&self, l: &Lowered) -> Result<RunSummary, RunError> {
        let workers = l.serve.workers;
        let (waves, per_wave) = (l.waves, l.per_wave);
        let submitted = waves * per_wave;
        if l.serve.cache.is_none() {
            return Err(RunError::invariant("cache_reuse lowers a cache config"));
        }

        let series = l.dataset.load();
        let (train, test) = holdout_split(&series, TEST_FRACTION)?;
        let horizon = test.len().min(8);
        let load: Vec<Vec<ForecastRequest>> = (0..waves)
            .map(|w| {
                (0..per_wave)
                    .map(|i| {
                        let n = w * per_wave + i;
                        let mut config = l.config;
                        config.seed = l.config.seed + n as u64;
                        ForecastRequest::digit(train.clone(), horizon, l.mux, config)
                    })
                    .collect()
            })
            .collect();

        struct Pass {
            outcomes: Vec<ServeOutcome>,
            trace: String,
            facts: usize,
            stats: Option<CacheStats>,
            seconds: f64,
        }

        // One pass of the full load through a single handle: warm keeps
        // the lowered cache, cold serves the identical load with the
        // cache off. Flush boundaries and workers match, so canonical
        // span records must agree byte-for-byte (cache spans are
        // scheduler-scoped, and a warm hit re-uses the cold context
        // fingerprint).
        let run = |warm: bool, w: usize| -> Result<Pass, RunError> {
            let obs = Arc::new(Observer::logical());
            let config =
                ServeConfig { workers: w, cache: l.serve.cache.filter(|_| warm), ..l.serve };
            let mut handle = ServeHandle::with_recorder(config, obs.clone());
            let (ids, seconds) = timed(|| {
                let mut ids = Vec::with_capacity(submitted);
                for wave in &load {
                    for request in wave {
                        ids.push(handle.submit(request.clone()));
                    }
                    handle.flush();
                }
                ids
            });
            let outcomes =
                ids.iter().map(|&id| handle.collect(id)).collect::<Result<Vec<_>, _>>().map_err(
                    |e| RunError::invariant(format!("every submitted id collects: {e}")),
                )?;
            let (trace, facts) = (obs.spans_to_jsonl(), fact_records(&obs));
            Ok(Pass { outcomes, trace, facts, stats: handle.cache_stats(), seconds })
        };

        let mut cold = run(false, workers)?;
        let mut warm = run(true, workers)?;
        // Best-of-3 wall clock, as everywhere else; the fast smoke run
        // keeps one timing sample.
        if !self.opts.fast {
            for _ in 0..2 {
                cold.seconds = cold.seconds.min(run(false, workers)?.seconds);
                warm.seconds = warm.seconds.min(run(true, workers)?.seconds);
            }
        }

        if cold.stats.is_some() {
            return Err(RunError::invariant("cold run must not build a cache"));
        }
        if warm.trace != cold.trace {
            return Err(RunError::invariant("warm canonical trace diverged from cold"));
        }
        for w in [1usize, 2] {
            if w != workers && run(true, w)?.trace != warm.trace {
                return Err(RunError::invariant(format!(
                    "{w} workers changed the warm canonical trace"
                )));
            }
        }

        let mut spends: Vec<u64> = Vec::new();
        let mut prompt_tokens = 0u64;
        let mut generated_tokens = 0u64;
        for (c, w) in cold.outcomes.iter().zip(&warm.outcomes) {
            let a = c
                .forecast
                .as_ref()
                .map_err(|e| RunError::invariant(format!("cold forecast: {e}")))?;
            let b = w
                .forecast
                .as_ref()
                .map_err(|e| RunError::invariant(format!("warm forecast: {e}")))?;
            if c.cost != w.cost {
                return Err(RunError::invariant("warm cost accounting diverged from cold"));
            }
            for d in 0..a.dims() {
                let (x, y) = (a.column(d)?, b.column(d)?);
                if !x.iter().zip(y).all(|(p, q)| p.to_bits() == q.to_bits()) {
                    return Err(RunError::invariant("warm forecast diverged from cold"));
                }
            }
            prompt_tokens += w.cost.prompt_tokens;
            generated_tokens += w.cost.generated_tokens;
            spends.push(w.cost.generated_tokens);
        }
        spends.sort_unstable();

        // Exact ledger: one shared history means one lookup per wave —
        // the first misses and fits, every later wave hits. Nothing may
        // have been evicted (the load uses a single context).
        let stats = warm.stats.expect("warm run exposes cache stats");
        if (stats.hits, stats.misses, stats.insertions, stats.evictions)
            != ((waves - 1) as u64, 1, 1, 0)
        {
            return Err(RunError::invariant(format!("unexpected cache ledger: {stats:?}")));
        }

        // Incremental-refit probe. The sinusoid extension keeps each
        // column's min/max (hence the digit scaling) stable, so the
        // longer prompt strictly extends the shorter one and the cache
        // refits the resident context in place instead of refitting
        // from scratch.
        let probe = |n: usize| -> Result<ForecastRequest, RunError> {
            let a = sinusoids(n, &[(1.0, 12.0, 0.0)]);
            let b: Vec<f64> = a.iter().map(|&v| 4.0 + 0.5 * v).collect();
            let grown = MultivariateSeries::from_columns(vec!["a".into(), "b".into()], vec![a, b])?;
            let config = ForecastConfig {
                samples: l.config.samples,
                seed: l.config.seed,
                ..ForecastConfig::default()
            };
            Ok(ForecastRequest::digit(grown, 6, l.mux, config))
        };
        let mut handle = ServeHandle::with_recorder(l.serve, Arc::new(Observer::logical()));
        let short = handle.submit(probe(48)?);
        handle.flush();
        let grown = handle.submit(probe(52)?);
        handle.flush();
        let refit_stats = handle.cache_stats().expect("probe handle exposes cache stats");
        if (refit_stats.refits, refit_stats.insertions) != (1, 1) {
            return Err(RunError::invariant(format!(
                "probe expected one incremental refit: {refit_stats:?}"
            )));
        }
        handle
            .collect(short)
            .map_err(|e| RunError::invariant(format!("probe short request: {e}")))?;
        let warm_grown = handle
            .collect(grown)
            .map_err(|e| RunError::invariant(format!("probe grown request: {e}")))?;
        let cold_grown = serve_all(&[probe(52)?], &ServeConfig { cache: None, ..l.serve });
        let a = warm_grown
            .forecast
            .map_err(|e| RunError::invariant(format!("probe refit forecast: {e}")))?;
        let b = cold_grown.outcomes[0]
            .forecast
            .as_ref()
            .map_err(|e| RunError::invariant(format!("probe cold forecast: {e}")))?;
        for d in 0..a.dims() {
            let (x, y) = (a.column(d)?, b.column(d)?);
            if !x.iter().zip(y).all(|(p, q)| p.to_bits() == q.to_bits()) {
                return Err(RunError::invariant(
                    "incremental refit diverged from a cold fit of the grown history",
                ));
            }
        }

        // Fit-normalized throughput: requests served per context fit.
        // Cold fits once per wave; warm fits once for the whole run.
        let warm_fits = (stats.misses + stats.refits).max(1);
        let warm_rpf = submitted as f64 / warm_fits as f64;
        let cold_rpf = per_wave as f64;

        let mut t = Table::new(
            format!(
                "Cache reuse — {waves} x {per_wave} requests over one shared context, \
                 {workers} workers"
            ),
            &["measure", "value", "check"],
        );
        t.row(vec![
            "submitted / completed".into(),
            format!("{submitted} / {submitted}"),
            "-".into(),
        ]);
        t.row(vec![
            "cache hits / misses / evictions".into(),
            format!("{} / {} / {}", stats.hits, stats.misses, stats.evictions),
            "exact ledger asserted".into(),
        ]);
        t.row(vec!["hit rate".into(), format!("{:.3}", stats.hit_rate()), "gated".into()]);
        t.row(vec!["requests per context fit (cold)".into(), format!("{cold_rpf:.0}"), "-".into()]);
        t.row(vec!["requests per context fit (warm)".into(), format!("{warm_rpf:.0}"), "-".into()]);
        t.row(vec![
            "warm / cold fit throughput".into(),
            format!("{:.2}x", warm_rpf / cold_rpf),
            "gated".into(),
        ]);
        t.row(vec![
            "p99 spend (generated tokens)".into(),
            percentile(&spends, 0.99).to_string(),
            "gated".into(),
        ]);
        t.row(vec![
            "incremental refits (grown-history probe)".into(),
            refit_stats.refits.to_string(),
            "bit-identical to cold fit".into(),
        ]);
        t.row(vec![
            "warm vs cold forecasts & costs".into(),
            "byte-identical".into(),
            "asserted".into(),
        ]);
        t.row(vec![
            "trace determinism (1/2/N workers, warm vs cold)".into(),
            format!("{} facts", warm.facts),
            "byte-identical".into(),
        ]);
        t.row(vec![
            "wall clock cold -> warm".into(),
            format!("{} -> {}", format_seconds(cold.seconds), format_seconds(warm.seconds)),
            format!("{:.2}x", cold.seconds / warm.seconds),
        ]);
        let path = t.emit(&self.opts.results_dir, "cache_reuse.md")?;

        let mut bench = BenchReport::new(l.kind, &l.name);
        bench
            .push("submitted", submitted as f64)
            .push("completed", submitted as f64)
            .push("cache_hits", stats.hits as f64)
            .push("cache_misses", stats.misses as f64)
            .push("cache_insertions", stats.insertions as f64)
            .push("cache_evictions", stats.evictions as f64)
            .push("probe_refits", refit_stats.refits as f64)
            .push("hit_rate", stats.hit_rate())
            .push("throughput_requests_per_fit_cold", cold_rpf)
            .push("throughput_requests_per_fit_warm", warm_rpf)
            .push("throughput_warm_over_cold", warm_rpf / cold_rpf)
            .push("p99_spend_tokens", percentile(&spends, 0.99) as f64)
            .push("prompt_tokens", prompt_tokens as f64)
            .push("generated_tokens", generated_tokens as f64)
            .push("trace_events", warm.facts as f64);
        RunSummary::of(l, vec![path], Some(bench), &self.opts)
    }

    /// The latency audit (`results/latency_audit.md`): causal span trees
    /// from a pinned single-worker reference run of one fault-injected
    /// wave, per-stage blame percentiles gated in
    /// `BENCH_latency_audit.json`, the critical path and span tree of
    /// the slowest request, and an optional Perfetto trace export
    /// (`--spans`). The blame partition is exact by construction
    /// ([`mc_obs::blame`]); the lowered tolerance guards the
    /// aggregation arithmetic.
    fn latency_audit(&self, l: &Lowered) -> Result<RunSummary, RunError> {
        use std::fmt::Write as _;
        let profile =
            l.faults.ok_or_else(|| RunError::invariant("latency_audit lowers a fault profile"))?;
        let requests = l.audit_requests;
        if requests == 0 {
            return Err(RunError::invariant("latency_audit needs at least one request"));
        }
        // The audited load is one chaos wave: same shared history, same
        // priority/client cycling, same decorrelated fault seeds.
        let mut shaped = l.clone();
        shaped.waves = 1;
        shaped.per_wave = requests;
        let load = chaos_load(&shaped, profile).into_iter().next().unwrap_or_default();
        if load.len() != requests {
            return Err(RunError::invariant("audit load construction failed"));
        }

        // Every gated number comes from a pinned single-worker run: on
        // one worker the schedule is total, so logical ticks are
        // deterministic and independent of the configured worker count.
        let observe_at = |w: usize| {
            let obs = Arc::new(Observer::logical());
            let cfg = ServeConfig { workers: w, ..l.serve };
            let run = serve_all_observed(&load, &cfg, obs.clone());
            (run, obs)
        };
        let (run, obs) = observe_at(1);
        for outcome in &run.outcomes {
            if let Err(e) = &outcome.forecast {
                return Err(RunError::invariant(format!("audited request failed: {e}")));
            }
        }

        // The canonical span export must be byte-identical at any worker
        // count, as in the chaos drill.
        let reference = obs.spans_to_jsonl();
        for w in [2usize, l.serve.workers.max(2)] {
            let (_, other) = observe_at(w);
            if other.spans_to_jsonl() != reference {
                return Err(RunError::invariant(format!(
                    "{w} workers changed the canonical span trace"
                )));
            }
        }

        let paired = pair_spans(&obs.spans())
            .map_err(|e| RunError::invariant(format!("audit span pairing: {e}")))?;
        let trees = build_trees(&paired);
        let audited: Vec<&SpanTree> =
            trees.iter().filter(|t| t.root.span.kind == SpanKind::Request).collect();
        if audited.len() != requests {
            return Err(RunError::invariant(format!(
                "expected {requests} request trees, found {}",
                audited.len()
            )));
        }

        // Per-request blame. Every request contributes to every stage
        // (absent stages as 0) so each percentile is over `requests`
        // values.
        let totals: Vec<u64> = audited.iter().map(|t| t.root.span.ticks()).collect();
        let per_request: Vec<Vec<(&'static str, u64)>> = audited.iter().map(|t| blame(t)).collect();
        let mut stage_names: Vec<&'static str> =
            per_request.iter().flatten().map(|&(n, _)| n).collect();
        stage_names.sort_unstable();
        stage_names.dedup();
        let stages: Vec<(&'static str, Vec<u64>)> = stage_names
            .iter()
            .map(|&name| {
                let mut vals: Vec<u64> = per_request
                    .iter()
                    .map(|parts| parts.iter().find(|&&(n, _)| n == name).map_or(0, |&(_, d)| d))
                    .collect();
                vals.sort_unstable();
                (name, vals)
            })
            .collect();
        let grand_total: u64 = totals.iter().sum();
        let stage_sum: u64 = stages.iter().flat_map(|(_, v)| v.iter()).sum();
        let fraction_sum = stage_sum as f64 / grand_total.max(1) as f64;
        if (fraction_sum - 1.0).abs() > l.blame_tolerance {
            return Err(RunError::invariant(format!(
                "blame fractions sum to {fraction_sum:.4} (tolerance {})",
                l.blame_tolerance
            )));
        }
        let mut sorted_totals = totals.clone();
        sorted_totals.sort_unstable();
        let slowest = audited
            .iter()
            .enumerate()
            .max_by_key(|&(i, t)| (t.root.span.ticks(), std::cmp::Reverse(i)))
            .map(|(i, t)| (i, *t))
            .expect("at least one audited request");

        let mut notes = Vec::new();
        if let Some(path) = &self.opts.spans_path {
            let trace = chrome_trace(&paired);
            std::fs::write(path, &trace)?;
            notes.push(format!("wrote {} ({} spans)", path.display(), paired.len()));
        }

        let workers = l.serve.workers;
        let mut md = String::new();
        md.push_str("# Latency audit\n\n");
        let _ = writeln!(
            md,
            "One fault-injected wave on Gas Rate: {requests} requests x {} samples, faults \
             `{profile}`, served on a pinned single worker so every tick below is \
             deterministic. The canonical span export is asserted byte-identical at 1, 2 \
             and {workers} workers before anything is measured.\n",
            l.config.samples
        );
        md.push_str("## Stage blame\n\n");
        md.push_str(
            "Each request's end-to-end interval is partitioned at every span boundary and \
             each segment is blamed on the deepest covering span; uncovered segments are \
             queue/scheduler time (`queue_wait`). The partition is exact, so the blame \
             column sums to 100 %.\n\n",
        );
        md.push_str("| stage | total ticks | blame | p50 ticks | p99 ticks |\n");
        md.push_str("|---|---:|---:|---:|---:|\n");
        for (name, vals) in &stages {
            let sum: u64 = vals.iter().sum();
            let _ = writeln!(
                md,
                "| `{name}` | {sum} | {:.1}% | {} | {} |",
                100.0 * sum as f64 / grand_total.max(1) as f64,
                percentile(vals, 0.50),
                percentile(vals, 0.99),
            );
        }
        let _ = writeln!(
            md,
            "| **end-to-end** | {grand_total} | 100.0% | {} | {} |",
            percentile(&sorted_totals, 0.50),
            percentile(&sorted_totals, 0.99),
        );
        let _ = writeln!(
            md,
            "\n## Critical path (slowest request, #{})\n\nThe chain of spans that bounded \
             completion — from the root, repeatedly the latest-closing child:\n",
            slowest.0
        );
        for span in critical_path(slowest.1) {
            let _ = writeln!(md, "- `{}` — {} ticks", span.kind.name(), span.ticks());
        }
        md.push_str("\n## Span tree (slowest request)\n\n");
        render_span_tree(&slowest.1.root, 0, &mut md);
        let _ = writeln!(
            md,
            "\n{} paired spans over the wave; blame partition drift {:.4} (tolerance {}). \
             Run `mc-scenario specs/latency_audit.spec --spans trace.json` for a \
             Perfetto-loadable view of the same wave.",
            paired.len(),
            (fraction_sum - 1.0).abs(),
            l.blame_tolerance
        );
        std::fs::create_dir_all(&self.opts.results_dir)?;
        let out = self.opts.results_dir.join("latency_audit.md");
        std::fs::write(&out, md)?;
        notes.push(format!("wrote {}", out.display()));

        let mut bench = BenchReport::new(l.kind, &l.name);
        bench
            .push("submitted", requests as f64)
            .push("completed", requests as f64)
            .push("paired_spans", paired.len() as f64)
            .push("p50_total_ticks", percentile(&sorted_totals, 0.50) as f64)
            .push("p99_total_ticks", percentile(&sorted_totals, 0.99) as f64);
        for (name, vals) in &stages {
            let sum: u64 = vals.iter().sum();
            bench
                .push(format!("p50_stage_{name}_ticks"), percentile(vals, 0.50) as f64)
                .push(format!("p99_stage_{name}_ticks"), percentile(vals, 0.99) as f64)
                .push(format!("blame_fraction_{name}"), sum as f64 / grand_total.max(1) as f64);
        }
        let mut summary = RunSummary::of(l, vec![out], Some(bench), &self.opts)?;
        summary.notes = notes;
        Ok(summary)
    }
}

/// Fact records in an observer's canonical (deterministic) span record:
/// attributed closes and point spans, each one fact.
fn fact_records(obs: &Observer) -> usize {
    obs.spans().iter().filter(|s| s.span.kind.deterministic() && s.span.is_fact()).count()
}

/// Renders one span tree as an indented markdown list (durations on the
/// observer clock).
fn render_span_tree(node: &SpanNode, depth: usize, out: &mut String) {
    use std::fmt::Write as _;
    let _ = writeln!(
        out,
        "{}- `{}` — {} ticks",
        "  ".repeat(depth),
        node.span.kind.name(),
        node.span.ticks()
    );
    for child in &node.children {
        render_span_tree(child, depth + 1, out);
    }
}

/// The chaos load: `waves x per_wave` requests over one shared history,
/// cycling priorities and two clients, every draw filtered through the
/// fault profile. Deterministic by construction — seeds derive from the
/// request index alone.
fn chaos_load(
    l: &Lowered,
    profile: multicast_core::robust::FaultProfile,
) -> Vec<Vec<ForecastRequest>> {
    let series = l.dataset.load();
    let Ok((train, test)) = holdout_split(&series, TEST_FRACTION) else {
        return Vec::new();
    };
    let horizon = test.len().min(8);
    (0..l.waves)
        .map(|w| {
            (0..l.per_wave)
                .map(|i| {
                    let n = w * l.per_wave + i;
                    let mut config = l.config;
                    config.seed = l.config.seed + n as u64;
                    let mut request = ForecastRequest::digit(train.clone(), horizon, l.mux, config);
                    // Decorrelate corruption decisions across requests:
                    // FaultSpec hashes (seed, sample, attempt), so a shared
                    // seed would corrupt every request identically.
                    request.source = multicast_core::robust::FaultProfile {
                        seed: profile.seed.wrapping_add(n as u64),
                        ..profile
                    }
                    .source();
                    request.priority = match n % 3 {
                        0 => Priority::Batch,
                        1 => Priority::Normal,
                        _ => Priority::Interactive,
                    };
                    request.client = (n % 2) as u32;
                    request
                })
                .collect()
        })
        .collect()
}

/// Best-of-3 wall clock: one-shot timings of millisecond-scale runs are
/// dominated by scheduler noise; the minimum is the stable estimate.
fn best_of<T>(mut f: impl FnMut() -> (T, f64)) -> (T, f64) {
    let mut best = f();
    for _ in 0..2 {
        let next = f();
        if next.1 < best.1 {
            best = next;
        }
    }
    best
}

/// Value at quantile `q` of an ascending-sorted slice (nearest-rank).
fn percentile(sorted: &[u64], q: f64) -> u64 {
    if sorted.is_empty() {
        return 0;
    }
    let rank = ((sorted.len() as f64) * q).ceil() as usize;
    sorted[rank.clamp(1, sorted.len()) - 1]
}

fn pct(part: usize, total: usize) -> String {
    if total == 0 {
        return "0%".into();
    }
    format!("{:.1}%", 100.0 * part as f64 / total as f64)
}
