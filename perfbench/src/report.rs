//! Metrics: the human-readable table and the one-line JSON result.

use std::fmt::Write as _;

use multicast_core::ForecastConfig;

use crate::calib::{Calibration, REFERENCE_US};
use crate::layers::LayerSample;
use crate::stats::{block_tail, mean, median, percentile, ratio};

/// One reported number.
#[derive(Debug, Clone)]
pub struct Metric {
    pub name: &'static str,
    pub unit: &'static str,
    pub value: f64,
    /// Samples the value was computed from.
    pub samples: usize,
    /// How the value was computed (printed in the table only).
    pub note: String,
    /// The value as measured, for a time scaled to reference speed.
    pub raw: Option<f64>,
}

impl Metric {
    pub fn new(name: &'static str, unit: &'static str, value: f64, samples: usize) -> Self {
        Self { name, unit, value, samples, note: String::new(), raw: None }
    }

    pub fn note(mut self, note: impl Into<String>) -> Self {
        self.note = note.into();
        self
    }
}

/// What one run measured.
#[derive(Debug, Default)]
pub struct Report {
    /// Operations run in the measured phase.
    pub attempted: usize,
    /// Operations that returned an error or failed a correctness check.
    pub failed: usize,
    /// The metrics of the JSON line (end-to-end, or per-layer when traced).
    pub metrics: Vec<Metric>,
    /// Further rows printed in the table but not in the JSON line.
    pub info: Vec<Metric>,
    /// Free-form lines printed above the table.
    pub header: Vec<String>,
    /// Machine speed through the measured phase.
    pub calibration: Calibration,
}

impl Report {
    pub fn metric(&self, name: &str) -> Option<&Metric> {
        self.metrics.iter().chain(&self.info).find(|m| m.name == name)
    }

    /// Scales every time and rate to reference machine speed (see
    /// [`crate::calib`]), keeping the measured value beside it.
    pub fn scale_to_reference(&mut self) {
        let f = self.calibration.scale();
        let (median, n) = self.calibration.median_us();
        self.header.push(format!(
            "machine speed: calibration kernel median {median:.1} us over {n} timings \
             (reference {REFERENCE_US} us); times x {f:.4}, rates / {f:.4}"
        ));
        for m in self.metrics.iter_mut().chain(&mut self.info) {
            let scaled = match m.unit {
                "s" | "ms" | "us" | "ns" => m.value * f,
                "1/s" => m.value / f,
                _ => continue,
            };
            m.raw = Some(m.value);
            m.value = scaled;
        }
    }

    /// The human-readable table: every metric with unit, sample count and
    /// how it was computed.
    pub fn table(&self) -> String {
        let mut out = String::new();
        for line in &self.header {
            let _ = writeln!(out, "{line}");
        }
        let _ = writeln!(
            out,
            "{:<30} {:>14} {:>14} {:<6} {:>8}  note",
            "metric", "value", "raw", "unit", "samples"
        );
        for (m, json) in
            self.metrics.iter().map(|m| (m, true)).chain(self.info.iter().map(|m| (m, false)))
        {
            let note = if json { m.note.clone() } else { format!("{} [table only]", m.note) };
            let raw = m.raw.map_or_else(String::new, |r| format!("{r:.6}"));
            let _ = writeln!(
                out,
                "{:<30} {:>14.6} {:>14} {:<6} {:>8}  {}",
                m.name, m.value, raw, m.unit, m.samples, note
            );
        }
        let _ = writeln!(out, "attempted {} failed {}", self.attempted, self.failed);
        out
    }

    /// The result line: exactly `correct`, `attempted`, `failed` and
    /// `metrics`.
    pub fn json(&self) -> String {
        let mut metrics = String::new();
        for (i, m) in self.metrics.iter().enumerate() {
            if i > 0 {
                metrics.push_str(", ");
            }
            let _ = write!(
                metrics,
                "\"{}\": {{\"value\": {:?}, \"unit\": \"{}\"}}",
                m.name, m.value, m.unit
            );
        }
        format!(
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{metrics}}}}}",
            self.failed == 0,
            self.attempted,
            self.failed
        )
    }
}

/// The per-operation outcome the end-to-end metrics are computed from.
#[derive(Debug, Clone, Copy)]
pub struct OpResult {
    pub latency_ns: u64,
    /// Completed, well formed and equal to its reference.
    pub ok: bool,
    pub degraded: bool,
    /// z-normalised RMSE against the held-out window (successes only).
    pub nrmse: f64,
    /// The dataset the input came from; `nrmse` weighs every dataset
    /// equally.
    pub dataset: usize,
}

/// The eight end-to-end metrics of a run.
pub fn end_to_end(
    ops: &[OpResult],
    timed_s: f64,
    setups: &[f64],
    peak_rss_mb: f64,
) -> (Vec<Metric>, Vec<Metric>) {
    let n = ops.len();
    let ok: Vec<&OpResult> = ops.iter().filter(|o| o.ok).collect();
    let failed = n - ok.len();
    let degraded = ok.iter().filter(|o| o.degraded).count();
    let lat: Vec<f64> = ops.iter().map(|o| o.latency_ns as f64 / 1e6).collect();
    let (p, p_tail) = block_tail(&lat);
    let mut per_dataset: Vec<Vec<f64>> = Vec::new();
    for o in &ok {
        if per_dataset.len() <= o.dataset {
            per_dataset.resize(o.dataset + 1, Vec::new());
        }
        per_dataset[o.dataset].push(o.nrmse);
    }
    let nrmse: Vec<f64> = per_dataset.iter().filter(|d| !d.is_empty()).map(|d| mean(d)).collect();
    let metrics = vec![
        Metric::new("setup_s", "s", median(setups), setups.len())
            .note(format!("median of {} set-ups", setups.len())),
        Metric::new("latency_ms_p50", "ms", median(&lat), n).note("per-operation latency, median"),
        Metric::new("latency_ms_p90", "ms", percentile(&lat, 0.9), n)
            .note("per-operation latency, p90 (the gated tail)"),
        Metric::new("forecasts_per_s", "1/s", ratio(ok.len() as f64, timed_s), ok.len())
            .note(format!("successful forecasts over {timed_s:.3} s of timed operations")),
        Metric::new("success_fraction", "ratio", ratio(ok.len() as f64, n as f64), n)
            .note("1 - failed_fraction"),
        Metric::new(
            "sampled_fraction",
            "ratio",
            ratio((ok.len() - degraded) as f64, ok.len() as f64),
            ok.len(),
        )
        .note("1 - degraded_fraction"),
        Metric::new("nrmse", "ratio", mean(&nrmse), ok.len()).note(format!(
            "RMSE on z-normalised dimensions vs held-out window, mean over {} datasets",
            nrmse.len()
        )),
        Metric::new("peak_rss_mb", "MiB", peak_rss_mb, 1).note("VmHWM of the process"),
    ];
    let info = vec![
        Metric::new("latency_ms_p99", "ms", p_tail, n).note(format!(
            "p{} (highest with >= 10 samples beyond), median over blocks of >= 1000",
            p * 100.0
        )),
        Metric::new("failed_fraction", "ratio", ratio(failed as f64, n as f64), n)
            .note("errors + correctness failures / attempted"),
        Metric::new(
            "degraded_fraction",
            "ratio",
            ratio(degraded as f64, ok.len() as f64),
            ok.len(),
        )
        .note("seasonal-naive fallbacks / forecasts"),
    ];
    (metrics, info)
}

/// Per-layer metrics of the decomposed forecasts: codec, lm, robust and
/// engine.
pub fn layer_metrics(samples: &[LayerSample], nproc: usize) -> Vec<Metric> {
    let us = |f: &dyn Fn(&LayerSample) -> u64| -> Vec<f64> {
        samples.iter().map(|s| f(s) as f64 / 1e3).collect()
    };
    let n = samples.len();
    let codec_fit = us(&|s| s.codec_fit_ns);
    let lm_fit = us(&|s| s.lm_fit_ns);
    let ladder = us(&|s| s.ladder_ns);
    let decodes: Vec<f64> =
        samples.iter().flat_map(|s| s.decodes.iter().map(|&d| d as f64 / 1e3)).collect();
    let draws: Vec<f64> =
        samples.iter().flat_map(|s| s.draws.iter().map(|&(d, _)| d as f64 / 1e3)).collect();
    let draw_ns: f64 = samples.iter().flat_map(|s| &s.draws).map(|&(d, _)| d as f64).sum();
    let draw_tokens: f64 = samples.iter().flat_map(|s| &s.draws).map(|&(_, t)| t as f64).sum();
    let decode_ns: f64 = samples.iter().flat_map(|s| &s.decodes).map(|&d| d as f64).sum();
    let fit_ns: f64 = samples.iter().map(|s| s.lm_fit_ns as f64).sum();
    let prompt_tokens: f64 = samples.iter().map(|s| s.prompt_tokens as f64).sum();
    let attempts: f64 = samples.iter().map(|s| s.attempts as f64).sum();
    let valid: f64 = samples.iter().map(|s| s.valid as f64).sum();
    let ladder_ns: f64 = samples.iter().map(|s| s.ladder_ns as f64).sum();
    let lanes = ForecastConfig::default().samples.min(nproc).max(1) as f64;
    let aggregate: Vec<f64> =
        samples.iter().filter_map(|s| s.aggregate_ns.map(|a| a as f64 / 1e3)).collect();
    let total: f64 = samples.iter().map(|s| s.total_ns as f64).sum();
    let attributed: f64 = samples.iter().map(|s| s.attributed_ns() as f64).sum();
    vec![
        Metric::new("codec.fit_us_p50", "us", median(&codec_fit), n).note("Codec::fit"),
        Metric::new("codec.decode_us_p50", "us", median(&decodes), decodes.len())
            .note("FittedCodec::decode"),
        Metric::new("codec.prompt_tokens_mean", "count", ratio(prompt_tokens, n as f64), n),
        Metric::new("lm.fit_us_p50", "us", median(&lm_fit), n).note("PreparedBackend::fit"),
        Metric::new("lm.fit_us_p99", "us", block_tail(&lm_fit).1, n)
            .note(format!("p{}", block_tail(&lm_fit).0 * 100.0)),
        Metric::new("lm.ns_per_prompt_token", "ns", ratio(fit_ns, prompt_tokens), n),
        Metric::new("lm.draw_us_p50", "us", median(&draws), draws.len())
            .note("SessionSampler::draw_budgeted, on its ladder thread"),
        Metric::new("lm.draw_us_p99", "us", block_tail(&draws).1, draws.len())
            .note(format!("p{}", block_tail(&draws).0 * 100.0)),
        Metric::new("lm.ns_per_decode_token", "ns", ratio(draw_ns, draw_tokens), draws.len()),
        Metric::new(
            "lm.decode_tokens_mean",
            "count",
            ratio(draw_tokens, draws.len() as f64),
            draws.len(),
        ),
        Metric::new("robust.ladder_us_p50", "us", median(&ladder), n)
            .note("robust::run_attempts wall"),
        Metric::new("robust.attempts_per_forecast", "count", ratio(attempts, n as f64), n),
        Metric::new("robust.useful_ratio", "ratio", ratio(valid, attempts), n)
            .note("valid samples / attempts"),
        Metric::new(
            "robust.parallel_efficiency",
            "ratio",
            ratio(draw_ns + decode_ns, ladder_ns * lanes),
            n,
        )
        .note(format!("(draw + decode) / (ladder wall x {lanes})")),
        Metric::new("engine.aggregate_us_p50", "us", median(&aggregate), aggregate.len())
            .note("pipeline::median_aggregate"),
        Metric::new("engine.unattributed_fraction", "ratio", ratio(total - attributed, total), n)
            .note("(traced forecast - codec fit - lm fit - ladder - resolve) / traced forecast"),
    ]
}

/// Peak resident memory of this process (`VmHWM`), MiB.
pub fn peak_rss_mb() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| {
            s.lines()
                .find(|l| l.starts_with("VmHWM:"))
                .and_then(|l| l.split_whitespace().nth(1).and_then(|kb| kb.parse::<f64>().ok()))
        })
        .map_or(0.0, |kb| kb / 1024.0)
}
