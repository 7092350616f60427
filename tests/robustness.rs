//! Fault-injection integration tests: the sampling pipeline must survive
//! truncated, garbage and panicking continuations, degrade gracefully when
//! the quorum fails, and account for every defect in `last_report`.

use std::sync::Arc;

use multicast_suite::core::robust::{
    DefectClass, FallbackPolicy, FaultSpec, ForecastOutcome, ForecastReport, RobustPolicy,
    SampleSource,
};
use multicast_suite::core::{
    serve_all_observed, CodecChoice, ForecastConfig, ForecastRequest, LlmTimeForecaster,
    MultiCastForecaster, MuxMethod, Priority, SaxForecastConfig, SaxMultiCastForecaster,
    ServeConfig, StreamingMultiCast,
};
use multicast_suite::datasets::generators::sinusoids;
use multicast_suite::obs::{Counter, MetricsRegistry, Observer};
use multicast_suite::prelude::*;
use multicast_suite::sax::alphabet::SaxAlphabetKind;
use multicast_suite::tslib::error::TsError;

fn series(n: usize) -> MultivariateSeries {
    let a = sinusoids(n, &[(1.0, 16.0, 0.0)]);
    let b: Vec<f64> = a.iter().map(|&v| 40.0 + 8.0 * v).collect();
    MultivariateSeries::from_columns(vec!["a".into(), "b".into()], vec![a, b]).unwrap()
}

/// 40 % of continuations corrupted plus one guaranteed panicking sample.
fn heavy_faults() -> SampleSource {
    SampleSource::FaultInjected(FaultSpec {
        rate: 0.4,
        seed: 7,
        panic_sample: Some(0),
        latency_tokens: 0,
    })
}

#[test]
fn multicast_survives_heavy_faults_for_every_mux_method() {
    let s = series(96);
    let (train, test) = holdout_split(&s, 0.1).unwrap();
    for method in MuxMethod::ALL {
        let config = ForecastConfig { samples: 5, ..Default::default() };
        let mut f = MultiCastForecaster::new(method, config).with_source(heavy_faults());
        let fc = f.forecast(&train, test.len()).unwrap();
        assert_eq!(fc.dims(), 2, "{method:?}");
        assert_eq!(fc.len(), test.len(), "{method:?}");
        assert!(fc.columns().iter().flatten().all(|v| v.is_finite()), "{method:?}");
        let report = f.last_report.as_ref().expect("report recorded");
        assert_eq!(report.requested_samples, 5);
        assert_eq!(
            report.defect_count(DefectClass::Panicked),
            1,
            "{method:?}: exactly one injected panic"
        );
        assert!(report.retries_used >= 1, "{method:?}: the panicked sample retried");
        // Every sample either recovered or exhausted its retry budget.
        for rec in &report.samples {
            assert!(
                rec.valid || rec.attempts == 3,
                "{method:?} sample {}: invalid with attempts {}",
                rec.index,
                rec.attempts
            );
        }
    }
}

#[test]
fn fault_report_accounts_for_each_defect_class() {
    let s = series(96);
    let (train, _) = holdout_split(&s, 0.1).unwrap();
    // Rate 1.0: every attempt is corrupted by one of the three corruption
    // kinds (hard truncation, garbage groups, total loss), so across
    // 6 samples x 3 attempts both text-level defect classes must appear —
    // and everything observed must be fatal (no silent repairs of garbage).
    let source = SampleSource::FaultInjected(FaultSpec {
        rate: 1.0,
        seed: 3,
        panic_sample: None,
        latency_tokens: 0,
    });
    let config = ForecastConfig { samples: 6, ..Default::default() };
    let mut f = MultiCastForecaster::new(MuxMethod::ValueInterleave, config).with_source(source);
    let fc = f.forecast(&train, 8).unwrap();
    assert_eq!(fc.len(), 8, "fallback still yields the right shape");
    let report = f.last_report.as_ref().unwrap();
    assert_eq!(report.valid_samples, 0, "no sample survives total corruption");
    assert!(report.degraded());
    assert_eq!(report.outcome, ForecastOutcome::Degraded { valid: 0, required: 1 });
    assert_eq!(report.retries_used, 12, "6 samples x 2 retries all spent");
    assert!(report.defect_count(DefectClass::Truncated) > 0);
    assert!(report.defect_count(DefectClass::NonNumericGroup) > 0);
    assert_eq!(report.defect_count(DefectClass::Panicked), 0);
    let attempts: usize = report.samples.iter().map(|r| r.attempts).sum();
    assert_eq!(attempts, 18, "every sample used all 3 attempts");
}

#[test]
fn error_policy_surfaces_typed_quorum_failure() {
    let s = series(96);
    let (train, _) = holdout_split(&s, 0.1).unwrap();
    let source = SampleSource::FaultInjected(FaultSpec {
        rate: 1.0,
        seed: 4,
        panic_sample: None,
        latency_tokens: 0,
    });
    let config = ForecastConfig {
        samples: 3,
        robust: RobustPolicy {
            max_retries: 1,
            min_valid_samples: 2,
            fallback: FallbackPolicy::Error,
            ..RobustPolicy::default()
        },
        ..Default::default()
    };
    let mut f = MultiCastForecaster::new(MuxMethod::DigitInterleave, config).with_source(source);
    let err = f.forecast(&train, 6).unwrap_err();
    assert_eq!(err, TsError::SampleQuorum { valid: 0, required: 2 });
    // The report survives the error for post-mortem inspection.
    let report = f.last_report.as_ref().unwrap();
    assert!(report.degraded());
}

#[test]
fn llmtime_survives_heavy_faults_per_dimension() {
    let s = series(96);
    let (train, test) = holdout_split(&s, 0.1).unwrap();
    let config = ForecastConfig { samples: 4, ..Default::default() };
    let mut f = LlmTimeForecaster::new(config).with_source(heavy_faults());
    let fc = MultivariateForecaster::forecast(&mut f, &train, test.len()).unwrap();
    assert_eq!(fc.dims(), 2);
    assert_eq!(fc.len(), test.len());
    let report = f.last_report.as_ref().unwrap();
    assert_eq!(report.requested_samples, 8, "4 samples x 2 dimensions merged");
    assert_eq!(report.defect_count(DefectClass::Panicked), 2, "sample 0 panics once per dimension");
}

#[test]
fn sax_pipeline_survives_heavy_faults() {
    let s = series(96);
    let (train, test) = holdout_split(&s, 0.15).unwrap();
    let config = SaxForecastConfig {
        base: ForecastConfig { samples: 4, ..Default::default() },
        ..SaxForecastConfig::paper_default(SaxAlphabetKind::Alphabetic)
    };
    let mut f = SaxMultiCastForecaster::new(config).with_source(heavy_faults());
    let fc = f.forecast(&train, test.len()).unwrap();
    assert_eq!(fc.dims(), 2);
    assert_eq!(fc.len(), test.len());
    let report = f.last_report.as_ref().unwrap();
    assert_eq!(report.defect_count(DefectClass::Panicked), 1);
    // SAX garbage is out-of-band symbols, not non-numeric digit groups.
    assert_eq!(report.defect_count(DefectClass::NonNumericGroup), 0);
}

#[test]
fn streaming_survives_heavy_faults_and_degrades_gracefully() {
    let s = series(140);
    let (train, rest) = holdout_split(&s, 0.2).unwrap();
    let config = ForecastConfig { samples: 4, ..Default::default() };
    let mut stream = StreamingMultiCast::new(MuxMethod::ValueInterleave, config, &train)
        .unwrap()
        .with_source(heavy_faults());
    for t in 0..8 {
        stream.observe_row(&rest.row(t).unwrap()).unwrap();
    }
    let fc = stream.predict(10).unwrap();
    assert_eq!(fc.dims(), 2);
    assert_eq!(fc.len(), 10);
    let report = stream.last_report.as_ref().expect("report recorded");
    assert_eq!(report.requested_samples, 4);
    assert_eq!(report.defect_count(DefectClass::Panicked), 1);

    // Total corruption: streaming falls back to its rolling-tail forecast.
    let source = SampleSource::FaultInjected(FaultSpec {
        rate: 1.0,
        seed: 9,
        panic_sample: None,
        latency_tokens: 0,
    });
    let mut dead = StreamingMultiCast::new(MuxMethod::ValueInterleave, config, &train)
        .unwrap()
        .with_source(source);
    let fc = dead.predict(6).unwrap();
    assert_eq!(fc.len(), 6);
    assert!(fc.columns().iter().flatten().all(|v| v.is_finite()));
    assert!(dead.last_report.as_ref().unwrap().degraded());
}

#[test]
fn defect_taxonomy_is_pinned_across_crates() {
    // Core re-exports the one table mc-obs defines, so the report's
    // classes and the registry's counter slots are the same type.
    assert_eq!(
        std::any::TypeId::of::<DefectClass>(),
        std::any::TypeId::of::<multicast_suite::obs::DefectClass>()
    );
    for (i, class) in DefectClass::ALL.into_iter().enumerate() {
        assert_eq!(class.index(), i, "{class:?} is out of slot order");
    }
}

#[test]
fn serve_registry_counters_match_rigged_fault_reports() {
    // Three requests with different fault profiles: 40 % corruption plus a
    // guaranteed panic, total corruption (quorum failure + fallback), and a
    // clean model-backed run. The registry derived live from spans must
    // agree exactly with the per-request reports' own accounting.
    let s = series(96);
    let (train, _) = holdout_split(&s, 0.1).unwrap();
    let requests = vec![
        ForecastRequest {
            train: train.clone(),
            horizon: 8,
            codec: CodecChoice::Digit(MuxMethod::ValueInterleave),
            config: ForecastConfig { samples: 4, ..Default::default() },
            source: heavy_faults(),
            priority: Priority::Normal,
            client: 0,
        },
        ForecastRequest {
            train: train.clone(),
            horizon: 8,
            codec: CodecChoice::Digit(MuxMethod::DigitInterleave),
            config: ForecastConfig { samples: 5, ..Default::default() },
            source: SampleSource::FaultInjected(FaultSpec {
                rate: 1.0,
                seed: 3,
                panic_sample: None,
                latency_tokens: 0,
            }),
            priority: Priority::Normal,
            client: 0,
        },
        ForecastRequest::digit(
            train.clone(),
            8,
            MuxMethod::ValueConcat,
            ForecastConfig { samples: 3, ..Default::default() },
        ),
    ];
    let obs = Arc::new(Observer::logical());
    let run = serve_all_observed(&requests, &ServeConfig::with_workers(3), obs.clone());
    let reports: Vec<&ForecastReport> =
        run.outcomes.iter().filter_map(|o| o.report.as_ref()).collect();
    assert_eq!(reports.len(), 3, "every request carries a report");

    let m = obs.metrics();
    for class in DefectClass::ALL {
        let expected: usize = reports.iter().map(|r| r.defect_count(class)).sum();
        assert_eq!(m.defect_count(class), expected as u64, "{class:?} counter drifted");
    }
    assert!(m.defect_count(DefectClass::Panicked) >= 1, "the rigged panic was counted");
    let total_defects: usize = reports.iter().map(|r| r.total_defects()).sum();
    assert_eq!(m.get(Counter::Defects), total_defects as u64);
    let retries: usize = reports.iter().map(|r| r.retries_used).sum();
    assert_eq!(m.get(Counter::Retries), retries as u64);
    assert_eq!(
        m.get(Counter::PanicsIsolated),
        m.defect_count(DefectClass::Panicked),
        "every panic defect came through the isolation layer"
    );
    let attempts: usize = reports.iter().flat_map(|r| &r.samples).map(|s| s.attempts).sum();
    assert_eq!(m.get(Counter::Attempts), attempts as u64);
    let valid: usize = reports.iter().map(|r| r.valid_samples).sum();
    assert_eq!(m.get(Counter::AttemptsValid), valid as u64);
    assert_eq!(m.get(Counter::QuorumResolves), 3);
    let degraded = reports.iter().filter(|r| r.degraded()).count() as u64;
    assert!(degraded >= 1, "total corruption must fail its quorum");
    assert_eq!(m.get(Counter::QuorumFailures), degraded);
    assert_eq!(m.get(Counter::Fallbacks), degraded, "every failed quorum fell back");
}

#[test]
fn record_into_mirrors_the_reports_own_accounting() {
    // The sequential pipeline's bridge into the registry must agree with
    // the report accessors it summarizes.
    let s = series(96);
    let (train, _) = holdout_split(&s, 0.1).unwrap();
    let config = ForecastConfig { samples: 5, ..Default::default() };
    let mut f =
        MultiCastForecaster::new(MuxMethod::ValueInterleave, config).with_source(heavy_faults());
    f.forecast(&train, 8).unwrap();
    let report = f.last_report.as_ref().unwrap();

    let reg = MetricsRegistry::new();
    report.record_into(&reg);
    for class in DefectClass::ALL {
        assert_eq!(reg.defect_count(class), report.defect_count(class) as u64);
    }
    assert_eq!(reg.get(Counter::Defects), report.total_defects() as u64);
    assert_eq!(reg.get(Counter::Retries), report.retries_used as u64);
    assert_eq!(reg.get(Counter::QuorumResolves), 1);
    assert_eq!(reg.get(Counter::QuorumFailures), u64::from(report.degraded()));
    assert_eq!(reg.get(Counter::Fallbacks), u64::from(report.degraded()));
}

#[test]
fn clean_backend_report_is_spotless_and_forecasts_match_plain_pipeline() {
    // With no injected faults the robust layer must be a no-op: same seeds,
    // zero retries, no degradation.
    let s = series(96);
    let (train, _) = holdout_split(&s, 0.1).unwrap();
    let config = ForecastConfig { samples: 3, ..Default::default() };
    let mut f = MultiCastForecaster::new(MuxMethod::ValueInterleave, config);
    let fc = f.forecast(&train, 8).unwrap();
    let report = f.last_report.as_ref().unwrap();
    assert_eq!(report.valid_samples, 3);
    assert_eq!(report.retries_used, 0);
    assert!(!report.degraded());
    assert_eq!(report.outcome, ForecastOutcome::Sampled);
    // A second identical forecaster reproduces the forecast exactly.
    let mut g = MultiCastForecaster::new(MuxMethod::ValueInterleave, config);
    assert_eq!(g.forecast(&train, 8).unwrap(), fc);
}
