//! The forecast path as the benchmark calls it: once through the public
//! entry points (`ForecastEngine::run` + `EngineRun::resolve`), and once
//! decomposed into the calls it makes into each layer, with a wall-clock
//! probe around every call.

use std::sync::Mutex;
use std::time::Instant;

use mc_tslib::error::Result;
use mc_tslib::series::MultivariateSeries;
use multicast_core::pipeline::median_aggregate;
use multicast_core::robust::{resolve_quorum_failure, run_attempts};
use multicast_core::{ForecastEngine, ForecastRequest, PreparedBackend};

use crate::nanos;

/// A resolved forecast (`dimension -> horizon`) and how it was produced.
#[derive(Debug, Clone, PartialEq)]
pub struct Forecast {
    pub columns: Vec<Vec<f64>>,
    /// Resolved by the seasonal-naive fallback instead of sampling.
    pub degraded: bool,
}

impl Forecast {
    pub fn new(series: &MultivariateSeries, degraded: bool) -> Self {
        Self { columns: series.columns().to_vec(), degraded }
    }

    /// Whether the forecast has `dims x horizon` finite values.
    pub fn well_formed(&self, dims: usize, horizon: usize) -> bool {
        self.columns.len() == dims
            && self.columns.iter().all(|c| c.len() == horizon && c.iter().all(|v| v.is_finite()))
    }

    /// Bit-for-bit equality of every value.
    pub fn same_bits(&self, other: &Forecast) -> bool {
        self.degraded == other.degraded
            && self.columns.len() == other.columns.len()
            && self.columns.iter().zip(&other.columns).all(|(a, b)| {
                a.len() == b.len() && a.iter().zip(b).all(|(x, y)| x.to_bits() == y.to_bits())
            })
    }

    /// Mean over dimensions of the RMSE against `test`, each dimension
    /// z-normalised by the mean and deviation of its history in `train`.
    pub fn nrmse(&self, train: &MultivariateSeries, test: &MultivariateSeries) -> f64 {
        let per_dim: Vec<f64> = self
            .columns
            .iter()
            .zip(train.columns().iter().zip(test.columns()))
            .map(|(f, (hist, actual))| {
                let n = hist.len() as f64;
                let mean = hist.iter().sum::<f64>() / n;
                let sd = (hist.iter().map(|v| (v - mean).powi(2)).sum::<f64>() / n).sqrt();
                let mse = f.iter().zip(actual).map(|(p, a)| (p - a).powi(2)).sum::<f64>()
                    / actual.len().max(1) as f64;
                mse.sqrt() / sd.max(1e-12)
            })
            .collect();
        crate::stats::mean(&per_dim)
    }
}

/// One forecast of `req` through the public entry points, untraced:
/// what `ForecastEngine::run` computes for a request.
pub fn engine_forecast(req: &ForecastRequest) -> Result<Forecast> {
    let engine = ForecastEngine::with_source(req.config, req.source);
    let run = engine.run(req.codec.build(&req.config).as_ref(), &req.train, req.horizon)?;
    let series = run.resolve(&req.train, req.horizon)?;
    Ok(Forecast::new(&series, run.report().degraded()))
}

/// Wall time of every layer call one decomposed forecast made.
#[derive(Debug, Default, Clone)]
pub struct LayerSample {
    /// The whole decomposed forecast.
    pub total_ns: u64,
    /// `Codec::fit`.
    pub codec_fit_ns: u64,
    /// `PreparedBackend::fit` (prompt encode + model fit).
    pub lm_fit_ns: u64,
    /// `robust::run_attempts`: the retry/quorum ladder with its fan-out.
    pub ladder_ns: u64,
    /// `median_aggregate` plus series assembly, or the fallback forecast.
    pub resolve_ns: u64,
    /// `median_aggregate` alone (absent when the quorum failed).
    pub aggregate_ns: Option<u64>,
    pub prompt_tokens: u64,
    /// `SessionSampler::draw_budgeted` calls: (wall ns, generated tokens),
    /// each timed on the ladder thread that made it.
    pub draws: Vec<(u64, u64)>,
    /// `FittedCodec::decode` calls (wall ns).
    pub decodes: Vec<u64>,
    pub attempts: usize,
    pub valid: usize,
}

impl LayerSample {
    /// The time the layer probes account for on the forecast's blocking
    /// path.
    pub fn attributed_ns(&self) -> u64 {
        self.codec_fit_ns + self.lm_fit_ns + self.ladder_ns + self.resolve_ns
    }
}

/// The same forecast as [`engine_forecast`], assembled from the layers'
/// public functions in the order `ForecastEngine::run_fitted` and
/// `EngineRun::resolve` call them, timing each call.
pub fn decomposed_forecast(req: &ForecastRequest) -> Result<(Forecast, LayerSample)> {
    let mut s = LayerSample::default();
    let start = Instant::now();
    let (cfg, train, horizon) = (req.config, &req.train, req.horizon);
    let engine = ForecastEngine::with_source(cfg, req.source);
    let codec = req.codec.build(&cfg);

    let t = Instant::now();
    let fitted = codec.fit(train)?;
    s.codec_fit_ns = nanos(t);

    let spec = engine.continuation_spec(fitted.as_ref(), horizon);
    let t = Instant::now();
    let backend = PreparedBackend::fit(&spec)?;
    s.lm_fit_ns = nanos(t);
    s.prompt_tokens = backend.prompt_cost().prompt_tokens;

    let sampler = backend.sampler(spec.separators, spec.max_tokens);
    let expect = fitted.expectations(horizon);
    let draws = Mutex::new(Vec::new());
    let decodes = Mutex::new(Vec::new());
    let t = Instant::now();
    let run = run_attempts(
        cfg.samples.max(1),
        cfg.robust,
        engine.source,
        &expect,
        |vi, budget| {
            let t = Instant::now();
            let out = sampler.draw_budgeted(cfg.sampler_for(vi), budget);
            let ns = nanos(t);
            let tokens = out.as_ref().map_or(0, |(_, cost)| cost.generated_tokens);
            draws.lock().expect("draw probe lock").push((ns, tokens));
            out
        },
        |text| {
            let t = Instant::now();
            let out = fitted.decode(text, horizon);
            let ns = nanos(t);
            decodes.lock().expect("decode probe lock").push(ns);
            out
        },
    )?;
    s.ladder_ns = nanos(t);
    s.draws = draws.into_inner().expect("draw probe lock");
    s.decodes = decodes.into_inner().expect("decode probe lock");
    s.attempts = run.report.samples.iter().map(|r| r.attempts).sum();
    s.valid = run.report.valid_samples;

    let t = Instant::now();
    let series = if run.quorum_met {
        let columns = median_aggregate(&run.samples)?;
        s.aggregate_ns = Some(nanos(t));
        MultivariateSeries::from_columns(train.names().to_vec(), columns)?
    } else {
        resolve_quorum_failure(cfg.robust, &run.report, train, horizon)?
    };
    s.resolve_ns = nanos(t);
    s.total_ns = nanos(start);
    Ok((Forecast::new(&series, !run.quorum_met), s))
}
