//! Property-based tests (proptest) for the invariants the pipeline's
//! correctness rests on. Each property is documented with the failure it
//! guards against.

use proptest::prelude::*;

use multicast_suite::core::scaling::FixedDigitScaler;
use multicast_suite::core::{MultiCastForecaster, MuxMethod};
use multicast_suite::lm::sampler::{Sampler, SamplerConfig};
use multicast_suite::prelude::*;
use multicast_suite::sax::alphabet::{SaxAlphabet, SaxAlphabetKind};
use multicast_suite::sax::encoder::{SaxConfig, SaxEncoder};
use multicast_suite::sax::gaussian::{breakpoints, cell_of};
use multicast_suite::tslib::transform;

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// Mux → demux is the identity on well-formed streams for every
    /// scheme, dimension count and digit budget. A violation silently
    /// corrupts every forecast.
    #[test]
    fn mux_demux_identity(
        dims in 1usize..5,
        digits in 1u32..5,
        n in 1usize..40,
        seed in any::<u64>(),
    ) {
        let max = 10u64.pow(digits) - 1;
        let mut state = seed;
        let codes: Vec<Vec<u64>> = (0..dims)
            .map(|_| {
                (0..n)
                    .map(|_| {
                        state = state.wrapping_mul(6364136223846793005).wrapping_add(1);
                        (state >> 33) % (max + 1)
                    })
                    .collect()
            })
            .collect();
        for method in MuxMethod::ALL {
            let m = method.build();
            let text = m.mux(&codes, digits);
            let back = m.demux(&text, dims, digits, n);
            prop_assert_eq!(&back, &codes, "{:?}", method);
        }
    }

    /// Lenient demux never panics and always returns the requested shape,
    /// whatever garbage the LLM emits within its constrained alphabet.
    #[test]
    fn demux_total_on_arbitrary_constrained_text(
        text in "[0-9,]{0,120}",
        dims in 1usize..4,
        digits in 1u32..4,
        horizon in 1usize..20,
    ) {
        for method in MuxMethod::ALL {
            let m = method.build();
            let back = m.demux(&text, dims, digits, horizon);
            prop_assert_eq!(back.len(), dims);
            let max = 10u64.pow(digits) - 1;
            for col in &back {
                prop_assert_eq!(col.len(), horizon);
                prop_assert!(col.iter().all(|&c| c <= max));
            }
        }
    }

    /// Demux is total on *completely arbitrary* text — not just the
    /// constrained `[0-9,]` alphabet. Even under backend bugs or injected
    /// corruption, demux must never panic and must yield exactly
    /// `dims x horizon` in-range codes for every scheme.
    #[test]
    fn demux_total_on_fully_arbitrary_text(
        text in any::<String>(),
        dims in 1usize..4,
        digits in 1u32..4,
        horizon in 1usize..16,
    ) {
        for method in MuxMethod::ALL {
            let m = method.build();
            let back = m.demux(&text, dims, digits, horizon);
            prop_assert_eq!(back.len(), dims, "{:?}", method);
            let max = 10u64.pow(digits) - 1;
            for col in &back {
                prop_assert_eq!(col.len(), horizon, "{:?}", method);
                prop_assert!(col.iter().all(|&c| c <= max), "{:?}", method);
            }
        }
    }

    /// Scale → descale round-trips within half a quantization step.
    #[test]
    fn scaler_round_trip_error_bounded(
        values in prop::collection::vec(-1e4f64..1e4, 2..60),
        digits in 2u32..5,
    ) {
        let scaler = FixedDigitScaler::fit(std::slice::from_ref(&values), digits, 0.1).unwrap();
        let step = scaler.step(0).unwrap();
        for &v in &values {
            let code = scaler.scale_value(0, v).unwrap();
            let back = scaler.descale_value(0, code).unwrap();
            prop_assert!((back - v).abs() <= step / 2.0 + 1e-9);
        }
    }

    /// A SAX cell representative always decodes back into its own cell,
    /// for every alphabet size — otherwise symbol-space forecasts drift.
    #[test]
    fn sax_representative_stays_in_cell(a in 2usize..21) {
        let breaks = breakpoints(a);
        for i in 0..a {
            let r = multicast_suite::sax::gaussian::cell_representative(i, a);
            prop_assert_eq!(cell_of(r, &breaks), i);
        }
    }

    /// SAX encode → decode stays within the (normalized) band implied by
    /// the outermost breakpoints, scaled back to data units.
    #[test]
    fn sax_decode_is_bounded(
        values in prop::collection::vec(-100f64..100.0, 8..80),
        segment in 1usize..8,
        a in 3usize..11,
    ) {
        let enc = SaxEncoder::new(SaxConfig {
            segment_len: segment,
            alphabet: SaxAlphabet::new(SaxAlphabetKind::Alphabetic, a).unwrap(),
        });
        let e = enc.encode(&values);
        let dec = enc.decode_expanded(&e.symbols, e.znorm, values.len());
        prop_assert_eq!(dec.len(), values.len());
        // All decoded values lie within the most extreme representatives.
        let lo = multicast_suite::sax::gaussian::cell_representative(0, a);
        let hi = multicast_suite::sax::gaussian::cell_representative(a - 1, a);
        for &v in &dec {
            let z = (v - e.znorm.mean) / e.znorm.std;
            prop_assert!(z >= lo - 1e-9 && z <= hi + 1e-9, "z = {}", z);
        }
    }

    /// The constrained sampler can only emit allowed tokens, whatever the
    /// distribution looks like.
    #[test]
    fn sampler_respects_any_mask(
        probs in prop::collection::vec(0f64..1.0, 4..12),
        mask_bits in any::<u16>(),
        seed in any::<u64>(),
    ) {
        let n = probs.len();
        // Ensure at least one allowed token.
        let allowed: Vec<bool> =
            (0..n).map(|i| mask_bits & (1 << (i % 16)) != 0 || i == (mask_bits as usize % n)).collect();
        let mut sampler = Sampler::new(SamplerConfig { seed, ..SamplerConfig::default() });
        for _ in 0..16 {
            let t = sampler.sample(&probs, |id| allowed[id as usize]);
            prop_assert!(allowed[t as usize]);
        }
    }

    /// Differencing round-trips exactly through integration.
    #[test]
    fn difference_integrate_identity(
        values in prop::collection::vec(-1e3f64..1e3, 4..50),
        d in 1usize..3,
    ) {
        prop_assume!(values.len() > d + 1);
        let (w, heads) = transform::difference(&values, d).unwrap();
        let back = transform::undifference(&w, &heads);
        prop_assert_eq!(back.len(), values.len());
        for (a, b) in back.iter().zip(&values) {
            prop_assert!((a - b).abs() < 1e-6);
        }
    }

    /// The pointwise median of forecasts lies within the per-point min/max
    /// envelope of the samples (aggregation can't extrapolate).
    #[test]
    fn median_within_sample_envelope(
        base in prop::collection::vec(-50f64..50.0, 3..20),
        jitters in prop::collection::vec(-5f64..5.0, 3..8),
    ) {
        let samples: Vec<Vec<Vec<f64>>> = jitters
            .iter()
            .map(|j| vec![base.iter().map(|v| v + j).collect::<Vec<f64>>()])
            .collect();
        let med = multicast_suite::core::pipeline::median_aggregate(&samples).unwrap();
        for (t, m) in med[0].iter().enumerate() {
            let lo = samples.iter().map(|s| s[0][t]).fold(f64::MAX, f64::min);
            let hi = samples.iter().map(|s| s[0][t]).fold(f64::MIN, f64::max);
            prop_assert!(*m >= lo - 1e-12 && *m <= hi + 1e-12);
        }
    }
}

proptest! {
    // Forecast-level properties are more expensive: fewer cases.
    #![proptest_config(ProptestConfig::with_cases(8))]

    /// End-to-end: a MultiCast forecast never leaves the scaler's
    /// headroom-extended band, on arbitrary bounded inputs.
    #[test]
    fn forecast_respects_value_band(
        raw in prop::collection::vec(-100f64..100.0, 30..60),
        seed in 0u64..1000,
    ) {
        let shifted: Vec<f64> = raw.iter().map(|v| v + 200.0).collect();
        let series = MultivariateSeries::from_columns(
            vec!["a".into(), "b".into()],
            vec![raw.clone(), shifted],
        )
        .unwrap();
        let cfg = ForecastConfig { samples: 1, seed, ..ForecastConfig::default() };
        let mut f = MultiCastForecaster::new(MuxMethod::ValueInterleave, cfg);
        let fc = f.forecast(&series, 5).unwrap();
        for d in 0..2 {
            let col = series.column(d).unwrap();
            let (mn, mx) = col.iter().fold((f64::MAX, f64::MIN), |(a, b), &v| (a.min(v), b.max(v)));
            let range = (mx - mn).max(1e-9);
            for &v in fc.column(d).unwrap() {
                prop_assert!(v >= mn - 0.151 * range && v <= mx + 0.151 * range);
            }
        }
    }

    /// Serving an arbitrary batch over shared frozen contexts conserves
    /// cost: the sum of per-request attributed costs equals the metered
    /// ground truth recorded inside the model boundary, each context's
    /// prompt pass is charged to exactly one request, and outcomes come
    /// back in submission order with matching ids.
    #[test]
    fn serve_attribution_is_conserved_and_ordered(
        specs in prop::collection::vec((0usize..3, 2usize..6, 1usize..4, 0u64..1000), 1..6),
        workers in 1usize..5,
    ) {
        use multicast_suite::core::serve::{serve_all, ForecastRequest, RequestId, ServeConfig};

        // Two fixed histories so some requests share a frozen context
        // while others do not — both attribution paths get exercised.
        let trains: Vec<MultivariateSeries> = (0..2usize)
            .map(|t| {
                let a: Vec<f64> =
                    (0..40).map(|i| ((i + 7 * t) as f64 * 0.31).sin() * 10.0 + 30.0).collect();
                let b: Vec<f64> = a.iter().map(|v| 100.0 - v).collect();
                MultivariateSeries::from_columns(vec!["a".into(), "b".into()], vec![a, b]).unwrap()
            })
            .collect();
        let requests: Vec<ForecastRequest> = specs
            .iter()
            .enumerate()
            .map(|(i, &(m, horizon, samples, seed))| {
                let method = MuxMethod::ALL[m % MuxMethod::ALL.len()];
                let config = ForecastConfig { samples, seed, ..ForecastConfig::default() };
                ForecastRequest::digit(trains[i % trains.len()].clone(), horizon, method, config)
            })
            .collect();

        let run = serve_all(&requests, &ServeConfig::with_workers(workers));

        // Ordering: one outcome per request, ids equal to submission indices.
        prop_assert_eq!(run.outcomes.len(), requests.len());
        for (i, outcome) in run.outcomes.iter().enumerate() {
            prop_assert_eq!(outcome.id, RequestId(i));
            prop_assert!(outcome.forecast.is_ok());
            prop_assert_eq!(outcome.forecast.as_ref().unwrap().len(), requests[i].horizon);
        }

        // Conservation: attribution matches the in-boundary meter exactly
        // — no double-charging, no lost tokens.
        let attributed = run.attributed_cost();
        let metered = run.metered_cost();
        prop_assert_eq!(attributed.prompt_tokens, metered.prompt_tokens);
        prop_assert_eq!(attributed.generated_tokens, metered.generated_tokens);
        prop_assert_eq!(attributed.work_units, metered.work_units);

        // Each context's prompt pass is paid by exactly one member request,
        // and the context's membership count matches the outcomes.
        for (c, stats) in run.contexts.iter().enumerate() {
            let members: Vec<_> =
                run.outcomes.iter().filter(|o| o.context == Some(c)).collect();
            prop_assert_eq!(members.len(), stats.requests);
            prop_assert!(stats.prompt_cost.prompt_tokens > 0);
            let payers = members.iter().filter(|o| o.cost.prompt_tokens > 0).count();
            prop_assert_eq!(payers, 1, "context {} has {} prompt payers", c, payers);
        }
    }

    /// Worker-pool width is invisible: the same batch served
    /// single-threaded and over several workers yields bit-identical
    /// forecasts and identical per-request attributed costs.
    #[test]
    fn serve_is_invariant_to_worker_count(
        specs in prop::collection::vec((0usize..3, 2usize..5, 1usize..3, 0u64..1000), 1..4),
        workers in 2usize..6,
    ) {
        use multicast_suite::core::serve::{serve_all, ForecastRequest, ServeConfig};

        let a: Vec<f64> = (0..36).map(|i| (i as f64 * 0.4).cos() * 8.0 + 20.0).collect();
        let b: Vec<f64> = a.iter().map(|v| v * 2.0 + 5.0).collect();
        let train =
            MultivariateSeries::from_columns(vec!["a".into(), "b".into()], vec![a, b]).unwrap();
        let requests: Vec<ForecastRequest> = specs
            .iter()
            .map(|&(m, horizon, samples, seed)| {
                let method = MuxMethod::ALL[m % MuxMethod::ALL.len()];
                let config = ForecastConfig { samples, seed, ..ForecastConfig::default() };
                ForecastRequest::digit(train.clone(), horizon, method, config)
            })
            .collect();

        let solo = serve_all(&requests, &ServeConfig::with_workers(1));
        let pool = serve_all(&requests, &ServeConfig::with_workers(workers));

        prop_assert_eq!(solo.outcomes.len(), pool.outcomes.len());
        for (s, p) in solo.outcomes.iter().zip(&pool.outcomes) {
            prop_assert_eq!(s.cost, p.cost);
            let (sf, pf) = (s.forecast.as_ref().unwrap(), p.forecast.as_ref().unwrap());
            prop_assert_eq!(sf.dims(), pf.dims());
            for d in 0..sf.dims() {
                let (sc, pc) = (sf.column(d).unwrap(), pf.column(d).unwrap());
                for (x, y) in sc.iter().zip(pc) {
                    prop_assert_eq!(x.to_bits(), y.to_bits());
                }
            }
        }
    }

    /// Observability is exact accounting, not sampling: for an arbitrary
    /// served batch, per-request costs reconstructed purely from the span
    /// record's attributes (attempt closes keyed by request fingerprint,
    /// the context-fit close's prompt pass for the owner) equal the
    /// scheduler's attributed costs, and per-context session closes
    /// reproduce the metered `CostLedger` snapshot exactly.
    #[test]
    fn trace_events_reconstruct_costs_exactly(
        specs in prop::collection::vec((0usize..3, 2usize..5, 1usize..4, 0u64..1000), 1..5),
        workers in 1usize..5,
    ) {
        use std::sync::Arc;
        use multicast_suite::core::serve::{
            request_fingerprints, serve_all_observed, ForecastRequest, ServeConfig,
        };
        use multicast_suite::obs::{Attrs, Observer, SpanKind};

        let trains: Vec<MultivariateSeries> = (0..2usize)
            .map(|t| {
                let a: Vec<f64> =
                    (0..40).map(|i| ((i + 5 * t) as f64 * 0.27).sin() * 12.0 + 25.0).collect();
                let b: Vec<f64> = a.iter().map(|v| 90.0 - v).collect();
                MultivariateSeries::from_columns(vec!["a".into(), "b".into()], vec![a, b]).unwrap()
            })
            .collect();
        let requests: Vec<ForecastRequest> = specs
            .iter()
            .enumerate()
            .map(|(i, &(m, horizon, samples, seed))| {
                let method = MuxMethod::ALL[m % MuxMethod::ALL.len()];
                let config = ForecastConfig { samples, seed, ..ForecastConfig::default() };
                ForecastRequest::digit(trains[i % trains.len()].clone(), horizon, method, config)
            })
            .collect();

        let fps = request_fingerprints(&requests);
        let obs = Arc::new(Observer::logical());
        let run = serve_all_observed(&requests, &ServeConfig::with_workers(workers), obs.clone());
        // The span record's fact-bearing close halves: (scope, kind, attrs).
        let facts: Vec<(u64, SpanKind, Attrs)> = obs
            .spans()
            .iter()
            .filter(|s| s.span.is_fact())
            .map(|s| (s.span.req, s.span.kind, s.span.attrs))
            .collect();

        // One context_fit per context, agreeing with the backend's prompt
        // cost; session closes reproduce the metered ledger.
        for stats in &run.contexts {
            let fits: Vec<_> = facts
                .iter()
                .filter_map(|&(scope, _, attrs)| match attrs {
                    Attrs::Fit { prompt_tokens, work_units } if scope == stats.fingerprint => {
                        Some((prompt_tokens, work_units))
                    }
                    _ => None,
                })
                .collect();
            prop_assert_eq!(fits.len(), 1, "one fit per context");
            prop_assert_eq!(fits[0].0, stats.prompt_cost.prompt_tokens);
            prop_assert_eq!(fits[0].1, stats.prompt_cost.work_units);
            let (mut sessions, mut gen, mut work) = (0u64, 0u64, 0u64);
            for &(scope, _, attrs) in &facts {
                if let Attrs::Session { generated_tokens, work_units } = attrs {
                    if scope == stats.fingerprint {
                        sessions += 1;
                        gen += generated_tokens;
                        work += work_units;
                    }
                }
            }
            prop_assert_eq!(sessions, stats.sessions, "session count from session spans");
            prop_assert_eq!(gen, stats.metered.generated_tokens, "ledger generated tokens");
            prop_assert_eq!(
                work + stats.prompt_cost.work_units,
                stats.metered.work_units,
                "ledger work = prompt pass + sessions"
            );
        }

        // Per-request: summing attempt closes scoped to the request's trace
        // fingerprint reconstructs its attributed cost exactly; the
        // context owner additionally carries the one-time prompt pass.
        for (i, outcome) in run.outcomes.iter().enumerate() {
            let (mut gen, mut work) = (0u64, 0u64);
            for &(scope, kind, attrs) in &facts {
                if let (SpanKind::Attempt { .. }, Attrs::Attempt { generated_tokens, work_units, .. }) =
                    (kind, attrs)
                {
                    if scope == fps[i] {
                        gen += generated_tokens;
                        work += work_units;
                    }
                }
            }
            prop_assert_eq!(outcome.cost.generated_tokens, gen, "request {} generated", i);
            let context = &run.contexts[outcome.context.unwrap()];
            let prompt = if outcome.cost.prompt_tokens > 0 { context.prompt_cost } else { Default::default() };
            prop_assert_eq!(outcome.cost.prompt_tokens, prompt.prompt_tokens, "request {} prompt", i);
            prop_assert_eq!(outcome.cost.work_units, work + prompt.work_units, "request {} work", i);
        }
    }

    /// Charset defects are impossible by construction: the constrained
    /// sampler masks every token outside `[0-9,]`, so an uncorrupted
    /// continuation can never contain a non-numeric group or out-of-band
    /// symbol — only truncation/width defects. Validation must agree.
    #[test]
    fn sampler_constraint_makes_charset_defects_impossible(
        seed in any::<u64>(),
        temperature in 0.1f64..2.0,
        separators in 1usize..6,
    ) {
        use multicast_suite::core::pipeline::{run_continuation, ContinuationSpec};
        use multicast_suite::core::robust::{validate_text, DefectClass, SampleExpectations};
        use multicast_suite::lm::presets::ModelPreset;
        use multicast_suite::lm::vocab::Vocab;

        let spec = ContinuationSpec {
            prompt: "017,023,042,017,023,042,017,023,042,017,023,042,".into(),
            vocab: Vocab::numeric(),
            allowed_chars: "0123456789,".into(),
            preset: ModelPreset::Large,
            separators,
            max_tokens: 120,
            refit_epoch: 0,
        };
        let cfg = SamplerConfig { seed, temperature, ..SamplerConfig::default() };
        let (text, _) = run_continuation(&spec, cfg).unwrap();
        prop_assert!(text.chars().all(|c| c.is_ascii_digit() || c == ','), "{}", text);
        let expect = SampleExpectations {
            separators,
            group_width: 3,
            alphabet: "0123456789".into(),
            numeric: true,
            dims: 1,
            horizon: separators,
        };
        for defect in validate_text(&text, &expect) {
            let class = defect.class();
            prop_assert!(
                class != DefectClass::NonNumericGroup && class != DefectClass::OutOfBandCode,
                "constrained sampling emitted a charset defect: {:?} in {:?}", defect, text
            );
        }
    }

    /// The cache's incremental-refit path is differentially equivalent
    /// to a from-scratch fit: inserting a prefix-fitted context and then
    /// acquiring with a grown prompt must resolve as a refit whose
    /// forked sessions emit bit-identical distributions — and draw
    /// identical seeded tokens — to a model fitted on the full prompt
    /// in one pass.
    #[test]
    fn cache_refit_is_bit_identical_to_full_fit(
        preset_idx in 0usize..multicast_suite::lm::ModelPreset::ALL.len(),
        vocab in 2usize..10,
        raw in prop::collection::vec(0u32..64, 2..60),
        split_frac in 0.0f64..1.0,
        seed in any::<u64>(),
    ) {
        use multicast_suite::lm::cache::{CacheConfig, Found, LmCache};
        use multicast_suite::lm::{fit_model, ModelPreset, TokenId};

        let preset = ModelPreset::ALL[preset_idx];
        let tokens: Vec<TokenId> = raw.iter().map(|&t| t as TokenId % vocab as TokenId).collect();
        let split = 1 + ((tokens.len() - 2) as f64 * split_frac) as usize;
        let (family, fp_prefix, fp_full) = (42u64, 7u64, 8u64);

        let cache = LmCache::new(CacheConfig::default());
        let resident: std::sync::Arc<dyn multicast_suite::lm::FrozenLm> =
            std::sync::Arc::from(fit_model(preset, vocab, &tokens[..split]));
        cache.insert(family, fp_prefix, &tokens[..split], resident);
        cache.release(family, fp_prefix);

        let (frozen, epoch, appended) = match cache.acquire(family, fp_full, &tokens) {
            Found::Refit { frozen, epoch, appended } => (frozen, epoch, appended),
            Found::Hit { .. } => return Err(TestCaseError::Fail("exact hit, expected refit".into())),
            Found::Miss => return Err(TestCaseError::Fail("miss, expected refit".into())),
        };
        prop_assert_eq!(epoch, 1);
        prop_assert_eq!(appended, tokens.len() - split);

        let full = fit_model(preset, vocab, &tokens);
        prop_assert_eq!(frozen.prompt_cost(), full.prompt_cost());
        let cfg = SamplerConfig { seed, ..SamplerConfig::default() };
        let (mut draw_a, mut draw_b) = (Sampler::new(cfg), Sampler::new(cfg));
        let (mut a, mut b) = (full.fork(), frozen.fork());
        let (mut pa, mut pb) = (vec![0.0; vocab], vec![0.0; vocab]);
        for _ in 0..16 {
            a.next_distribution(&mut pa);
            b.next_distribution(&mut pb);
            prop_assert!(
                pa.iter().zip(&pb).all(|(x, y)| x.to_bits() == y.to_bits()),
                "cache refit distribution diverged from a full fit"
            );
            let (ta, tb) = (draw_a.sample(&pa, |_| true), draw_b.sample(&pb, |_| true));
            prop_assert_eq!(ta, tb);
            a.observe(ta);
            b.observe(tb);
        }
        drop((a, b));
        cache.release(family, fp_full);
        prop_assert_eq!(cache.stats().refits, 1);
    }
}

proptest! {
    // Parser fuzzing is cheap: many cases.
    #![proptest_config(ProptestConfig::with_cases(512))]

    /// `FaultProfile::parse` is total: arbitrary text, and key=value lists
    /// that mix real keys with junk values, yield a profile or a typed
    /// `InvalidParameter` error, never a panic. A parsed profile always
    /// holds a rate in `[0, 1]`.
    #[test]
    fn fault_profile_parse_is_total(
        text in any::<String>(),
        parts in prop::collection::vec((0usize..6, "[0-9.eE+-]{0,6}"), 0..5),
    ) {
        use multicast_suite::core::robust::FaultProfile;
        use multicast_suite::tslib::error::TsError;
        const KEYS: [&str; 6] = ["rate", "seed", "panic", "latency", "quota", "bogus"];
        let keyed: Vec<String> = parts.iter().map(|(k, v)| format!("{}={v}", KEYS[*k])).collect();
        let keyed = keyed.join(",");
        for input in [text.clone(), keyed.clone(), format!("{keyed},{text}")] {
            match FaultProfile::parse(&input) {
                Ok(p) => prop_assert!((0.0..=1.0).contains(&p.rate), "{input:?} -> {p:?}"),
                Err(e) => prop_assert!(
                    matches!(e, TsError::InvalidParameter { .. }),
                    "{input:?} -> {e:?}"
                ),
            }
        }
    }

    /// Every valid profile round-trips through its `Display` form,
    /// including the omitted-when-default knobs (no panic sample, zero
    /// latency, no quota) and both rate endpoints.
    #[test]
    fn fault_profile_round_trips_through_display(
        rate in (0usize..4, 0.0f64..1.0),
        seed in any::<u64>(),
        panic in (any::<bool>(), any::<usize>()),
        latency in (any::<bool>(), any::<u64>()),
        quota in (any::<bool>(), any::<u64>()),
    ) {
        use multicast_suite::core::robust::FaultProfile;
        let profile = FaultProfile {
            rate: [0.0, 1.0, rate.1, rate.1][rate.0],
            seed,
            panic_sample: panic.0.then_some(panic.1),
            latency_tokens: if latency.0 { latency.1 } else { 0 },
            quota_tokens: quota.0.then_some(quota.1),
        };
        prop_assert_eq!(FaultProfile::parse(&profile.to_string()), Ok(profile));
    }
}

/// A `dims`-column history of `n` points drawn from `seed`: a sinusoid
/// per column plus a seeded jitter, so every column has spread.
fn fuzz_history(dims: usize, n: usize, seed: u64) -> MultivariateSeries {
    let mut state = seed | 1;
    let columns = (0..dims)
        .map(|d| {
            (0..n)
                .map(|t| {
                    state = state.wrapping_mul(6364136223846793005).wrapping_add(1);
                    let jitter = (state >> 40) as f64 / (1u64 << 24) as f64;
                    (d + 1) as f64 * (t as f64 * 0.7).sin() + jitter
                })
                .collect()
        })
        .collect();
    let names = (0..dims).map(|d| format!("x{d}")).collect();
    MultivariateSeries::from_columns(names, columns).unwrap()
}

/// Checks one decode of arbitrary continuation text: a typed error, or
/// exactly `dims x horizon` values.
fn assert_decode_is_well_shaped(
    fitted: &dyn multicast_suite::core::codec::FittedCodec,
    text: &str,
    horizon: usize,
) -> Result<(), TestCaseError> {
    if let Ok(decoded) = fitted.decode(text, horizon) {
        prop_assert_eq!(decoded.len(), fitted.dims(), "{:?}", text);
        for column in &decoded {
            prop_assert_eq!(column.len(), horizon, "{:?}", text);
        }
    }
    Ok(())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// Continuation decoding is total for the digit codecs (VI, VC and
    /// DI): model text, whether fully arbitrary or drawn from the output
    /// alphabet plus letters, decodes to a typed error or a well-shaped
    /// forecast, never a panic.
    #[test]
    fn digit_codec_decode_is_total(
        dims in 1usize..4,
        n in 8usize..40,
        seed in any::<u64>(),
        horizon in 1usize..16,
        wild in any::<String>(),
        near in "[0-9a-z,]{0,90}",
    ) {
        use multicast_suite::core::codec::{Codec, DigitCodec};
        let train = fuzz_history(dims, n, seed);
        for method in MuxMethod::ALL {
            let codec = DigitCodec { method, digits: 3, headroom: 0.15 };
            let fitted = codec.fit(&train).unwrap();
            for text in [wild.as_str(), near.as_str()] {
                assert_decode_is_well_shaped(fitted.as_ref(), text, horizon)?;
            }
        }
    }

    /// The same totality for the SAX codec, over both alphabet kinds and
    /// a range of segment lengths and alphabet sizes.
    #[test]
    fn sax_codec_decode_is_total(
        dims in 1usize..4,
        n in 8usize..40,
        seed in any::<u64>(),
        horizon in 1usize..16,
        segment_len in 1usize..7,
        size in 3usize..11,
        wild in any::<String>(),
        near in "[0-9a-z,]{0,90}",
    ) {
        use multicast_suite::core::codec::{Codec, SaxCodec};
        let train = fuzz_history(dims, n, seed);
        for kind in [SaxAlphabetKind::Alphabetic, SaxAlphabetKind::Digital] {
            let alphabet = SaxAlphabet::new(kind, size).unwrap();
            let fitted = SaxCodec { sax: SaxConfig { segment_len, alphabet } }.fit(&train).unwrap();
            for text in [wild.as_str(), near.as_str()] {
                assert_decode_is_well_shaped(fitted.as_ref(), text, horizon)?;
            }
        }
    }

    /// `SaxEncoder::parse` is total: it yields `None` or one in-alphabet
    /// index per character, and it inverts `to_string` on any word.
    #[test]
    fn sax_parse_is_total_and_inverts_to_string(
        wild in any::<String>(),
        near in "[0-9a-z]{0,40}",
        size in 3usize..11,
        word in prop::collection::vec(0usize..64, 0..30),
    ) {
        for kind in [SaxAlphabetKind::Alphabetic, SaxAlphabetKind::Digital] {
            let alphabet = SaxAlphabet::new(kind, size).unwrap();
            let encoder = SaxEncoder::new(SaxConfig { segment_len: 2, alphabet });
            for text in [wild.as_str(), near.as_str()] {
                if let Some(symbols) = encoder.parse(text) {
                    prop_assert_eq!(symbols.len(), text.chars().count(), "{:?}", text);
                    prop_assert!(symbols.iter().all(|&s| s < size), "{:?} -> {:?}", text, symbols);
                }
            }
            let word: Vec<usize> = word.iter().map(|&s| s % size).collect();
            prop_assert_eq!(encoder.parse(&encoder.to_string(&word)), Some(word));
        }
    }

    /// The CSV readers are total: arbitrary and near-valid text (a short
    /// header over rows of number-ish fields) yields a rectangular series
    /// or a typed error, never a panic; `read_values` likewise yields a
    /// non-empty column or a typed error.
    #[test]
    fn csv_readers_are_total(
        wild in any::<String>(),
        header in "[ab ,]{0,8}",
        rows in prop::collection::vec("[0-9.,eE+ -]{0,12}", 0..6),
    ) {
        use multicast_suite::tslib::error::TsError;
        use multicast_suite::tslib::io::{read_csv_str, read_values};
        let near = format!("{header}\n{}", rows.join("\n"));
        for text in [wild.as_str(), near.as_str(), &near[header.len()..]] {
            match read_csv_str(text) {
                Ok(series) => {
                    for d in 0..series.dims() {
                        prop_assert_eq!(series.column(d).unwrap().len(), series.len());
                    }
                }
                Err(e) => prop_assert!(
                    matches!(e, TsError::Parse { .. } | TsError::Empty | TsError::InvalidParameter { .. }),
                    "{:?} -> {:?}", text, e
                ),
            }
            match read_values(text) {
                Ok(values) => prop_assert!(!values.is_empty()),
                Err(e) => prop_assert!(
                    matches!(e, TsError::Parse { .. } | TsError::Empty),
                    "{:?} -> {:?}", text, e
                ),
            }
        }
    }

    /// `write_csv_str` → `read_csv_str` is the identity on every series
    /// the writer can represent: distinct names without `,`, newlines or
    /// outer whitespace, and finite values (bit-exact, zero rows
    /// included).
    #[test]
    fn csv_write_read_round_trips(
        inner in prop::collection::vec("[a-zA-Z0-9_ .;:\t]{0,6}", 1..4),
        bits in prop::collection::vec(any::<u64>(), 0..40),
    ) {
        use multicast_suite::tslib::io::{read_csv_str, write_csv_str};
        let names: Vec<String> = inner.iter().enumerate().map(|(i, s)| format!("n{s}{i}")).collect();
        let dims = names.len();
        let rows = bits.len() / dims;
        let columns: Vec<Vec<f64>> = (0..dims)
            .map(|d| {
                (0..rows)
                    .map(|t| {
                        let b = bits[t * dims + d];
                        let v = f64::from_bits(b);
                        if v.is_finite() { v } else { (b % 1000) as f64 - 500.0 }
                    })
                    .collect()
            })
            .collect();
        let series = MultivariateSeries::from_columns(names, columns).unwrap();
        let back = read_csv_str(&write_csv_str(&series)).unwrap();
        prop_assert_eq!(back.names(), series.names());
        prop_assert_eq!(back.len(), rows);
        for d in 0..dims {
            let (a, b) = (series.column(d).unwrap(), back.column(d).unwrap());
            prop_assert!(a.iter().zip(b).all(|(x, y)| x.to_bits() == y.to_bits()), "dim {}", d);
        }
    }
}
