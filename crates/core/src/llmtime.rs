//! LLMTime baseline (Gruver et al. 2023 — the paper's ref \[15\]).
//!
//! The state of the art the paper compares against: zero-shot *univariate*
//! forecasting, "applied in each dimension separately" (§IV-A3). The
//! pipeline is identical to MultiCast's minus the multiplexing — one
//! prompt, one continuation stream, one dimension at a time — so any
//! accuracy difference between the two isolates the effect of dimensional
//! multiplexing, exactly the comparison Tables IV–VI make.

use mc_tslib::error::{pipeline_error, Result, TsError};
use mc_tslib::forecast::{MultivariateForecaster, UnivariateForecaster};
use mc_tslib::series::MultivariateSeries;

use mc_lm::cost::InferenceCost;

use crate::codec::DigitCodec;
use crate::config::ForecastConfig;
use crate::engine::ForecastEngine;
use crate::mux::MuxMethod;
use crate::robust::{ForecastReport, SampleSource};
use crate::sched::fan_out;

/// Zero-shot univariate LLM forecaster, applied per dimension.
#[derive(Debug, Clone)]
pub struct LlmTimeForecaster {
    /// Pipeline configuration (shared with MultiCast for fair comparison).
    pub config: ForecastConfig,
    /// Cost of the most recent forecast call (summed over dimensions and
    /// samples).
    pub last_cost: Option<InferenceCost>,
    /// Where continuations come from (real backend or fault-injected).
    pub source: SampleSource,
    /// Sampling-health report of the most recent forecast call, merged
    /// over every dimension the call touched.
    pub last_report: Option<ForecastReport>,
}

impl LlmTimeForecaster {
    /// Creates the baseline forecaster.
    pub fn new(config: ForecastConfig) -> Self {
        Self { config, last_cost: None, source: SampleSource::Model, last_report: None }
    }

    /// Same forecaster with a different continuation source.
    pub fn with_source(mut self, source: SampleSource) -> Self {
        self.source = source;
        self
    }

    fn merge_report(&mut self, report: ForecastReport) {
        match self.last_report.as_mut() {
            Some(existing) => existing.merge(report),
            None => self.last_report = Some(report),
        }
    }

    fn forecast_column(
        &self,
        column: &[f64],
        horizon: usize,
    ) -> Result<(Vec<f64>, InferenceCost, ForecastReport)> {
        // With one dimension, value-interleaving is the plain LLMTime
        // serialization: "017,042,..." — one value per separator.
        let codec = DigitCodec::from_config(MuxMethod::ValueInterleave, &self.config);
        let train = MultivariateSeries::from_columns(vec!["value".into()], vec![column.to_vec()])?;
        let engine = ForecastEngine::with_source(self.config, self.source);
        let run = engine.run(&codec, &train, horizon)?;
        let resolved = run.resolve(&train, horizon)?;
        let forecast = resolved.column(0).map_err(|_| TsError::Empty)?.to_vec();
        Ok((forecast, run.cost(), run.into_report()))
    }
}

impl UnivariateForecaster for LlmTimeForecaster {
    fn name(&self) -> String {
        "LLMTIME".into()
    }

    fn forecast_univariate(&mut self, train: &[f64], horizon: usize) -> Result<Vec<f64>> {
        let (fc, cost, report) = self.forecast_column(train, horizon)?;
        let mut total = self.last_cost.take().unwrap_or_default();
        total.absorb(cost);
        self.last_cost = Some(total);
        self.merge_report(report);
        Ok(fc)
    }
}

impl MultivariateForecaster for LlmTimeForecaster {
    fn name(&self) -> String {
        "LLMTIME".into()
    }

    fn forecast(
        &mut self,
        train: &MultivariateSeries,
        horizon: usize,
    ) -> Result<MultivariateSeries> {
        self.last_cost = None;
        self.last_report = None;
        // Dimensions are forecast independently (the whole point of the
        // baseline), so they fan out over the executor. Every dimension
        // uses the same deterministic per-sample seeds the sequential loop
        // used, and results merge in dimension order below, so outputs,
        // costs and reports are identical to sequential execution.
        let this = &*self;
        let per_dim = fan_out(train.dims(), |d| {
            train.column(d).and_then(|col| this.forecast_column(col, horizon))
        });
        let mut columns = Vec::with_capacity(per_dim.len());
        let mut total = InferenceCost::default();
        for (d, outcome) in per_dim.into_iter().enumerate() {
            let (fc, cost, report) = outcome.map_err(|_| {
                pipeline_error("sample-thread", format!("dimension {d} panicked"))
            })??;
            total.absorb(cost);
            self.merge_report(report);
            columns.push(fc);
        }
        self.last_cost = Some(total);
        MultivariateSeries::from_columns(train.names().to_vec(), columns)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use mc_datasets::generators::sinusoids;
    use mc_tslib::metrics::rmse;
    use mc_tslib::split::holdout_split;

    fn config(samples: usize, seed: u64) -> ForecastConfig {
        ForecastConfig { samples, seed, ..Default::default() }
    }

    #[test]
    fn forecasts_every_dimension_independently() {
        let a = sinusoids(80, &[(1.0, 10.0, 0.0)]);
        let b: Vec<f64> = (0..80).map(|t| t as f64).collect();
        let series =
            MultivariateSeries::from_columns(vec!["s".into(), "ramp".into()], vec![a, b]).unwrap();
        let mut f = LlmTimeForecaster::new(config(2, 1));
        let fc = MultivariateForecaster::forecast(&mut f, &series, 6).unwrap();
        assert_eq!(fc.dims(), 2);
        assert_eq!(fc.len(), 6);
        assert!(f.last_cost.unwrap().generated_tokens > 0);
        let report = f.last_report.as_ref().unwrap();
        assert_eq!(report.requested_samples, 4, "2 samples x 2 dimensions merged");
        assert!(!report.degraded());
    }

    #[test]
    fn tracks_periodic_univariate_series() {
        let xs = sinusoids(160, &[(1.0, 16.0, 0.0)]);
        let series = MultivariateSeries::from_columns(vec!["x".into()], vec![xs]).unwrap();
        let (train, test) = holdout_split(&series, 0.1).unwrap();
        let mut f = LlmTimeForecaster::new(config(5, 2));
        let fc = f.forecast_univariate(train.column(0).unwrap(), test.len()).unwrap();
        let err = rmse(test.column(0).unwrap(), &fc).unwrap();
        let mean_err = rmse(test.column(0).unwrap(), &vec![0.0; test.len()]).unwrap();
        assert!(err < mean_err, "llmtime {err:.3} vs mean predictor {mean_err:.3}");
    }

    #[test]
    fn deterministic_per_seed() {
        let xs = sinusoids(60, &[(1.0, 12.0, 0.5)]);
        let mut f1 = LlmTimeForecaster::new(config(3, 5));
        let mut f2 = LlmTimeForecaster::new(config(3, 5));
        assert_eq!(
            f1.forecast_univariate(&xs, 5).unwrap(),
            f2.forecast_univariate(&xs, 5).unwrap()
        );
    }

    #[test]
    fn univariate_cost_accumulates_across_calls() {
        let xs = sinusoids(40, &[(1.0, 8.0, 0.0)]);
        let mut f = LlmTimeForecaster::new(config(1, 3));
        f.forecast_univariate(&xs, 3).unwrap();
        let first = f.last_cost.unwrap().total_tokens();
        f.forecast_univariate(&xs, 3).unwrap();
        assert!(f.last_cost.unwrap().total_tokens() > first);
    }
}
