//! Determinism, stress and cost-conservation suite for the concurrent
//! serving layer (`multicast_core::serve`).
//!
//! The scheduler's contract is that concurrency is invisible to the
//! numbers: a request's forecast depends only on its own configuration and
//! seeds, never on the worker-pool width, the submission order, or what
//! other requests share its frozen context. These tests pin that down with
//! `f64::to_bits` comparisons, then stress a 32-request mixed batch (four
//! codecs, varying horizons/seeds/sample counts, one request rigged to
//! fail its quorum and one rigged to panic) and audit the per-request cost
//! attribution against the ledger metered inside the model boundary.

use std::sync::Arc;

use mc_datasets::generators::sinusoids;
use mc_lm::cost::InferenceCost;
use mc_obs::{Counter, Observer};
use mc_sax::alphabet::{SaxAlphabet, SaxAlphabetKind};
use mc_sax::encoder::SaxConfig;
use mc_tslib::error::TsError;
use mc_tslib::forecast::MultivariateForecaster;
use mc_tslib::series::MultivariateSeries;
use multicast_core::robust::{DefectClass, FaultSpec, RobustPolicy, SampleSource};
use multicast_core::serve::ServeHandle;
use multicast_core::{
    serve_all, serve_all_observed, CodecChoice, ForecastConfig, ForecastRequest,
    MultiCastForecaster, MuxMethod, Priority, RequestId, ServeConfig, ServeOutcome, ServeRun,
};

fn series(n: usize, phase: f64, offset: f64) -> MultivariateSeries {
    let a = sinusoids(n, &[(1.0, 12.0, phase), (0.3, 5.0, 0.4)]);
    let b: Vec<f64> = a.iter().map(|&v| offset + 2.0 * v).collect();
    MultivariateSeries::from_columns(vec!["a".into(), "b".into()], vec![a, b]).unwrap()
}

fn assert_bit_identical(x: &MultivariateSeries, y: &MultivariateSeries, tag: &str) {
    assert_eq!(x.len(), y.len(), "{tag}: horizon");
    assert_eq!(x.dims(), y.dims(), "{tag}: dims");
    for d in 0..x.dims() {
        for (t, (a, b)) in x.column(d).unwrap().iter().zip(y.column(d).unwrap()).enumerate() {
            assert_eq!(a.to_bits(), b.to_bits(), "{tag}: dim {d} step {t}: {a} vs {b}");
        }
    }
}

/// Deterministic Fisher–Yates over a SplitMix64 stream — no RNG crate
/// needed, and the permutation is stable across platforms.
fn shuffled<T: Clone>(items: &[T], mut seed: u64) -> Vec<T> {
    let mut next = move || {
        seed = seed.wrapping_add(0x9E3779B97F4A7C15);
        let mut z = seed;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58476D1CE4E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D049BB133111EB);
        z ^ (z >> 31)
    };
    let mut out = items.to_vec();
    for i in (1..out.len()).rev() {
        let j = (next() % (i as u64 + 1)) as usize;
        out.swap(i, j);
    }
    out
}

fn digit_request(
    train: MultivariateSeries,
    horizon: usize,
    method: MuxMethod,
    seed: u64,
    samples: usize,
) -> ForecastRequest {
    let config = ForecastConfig { samples, seed, ..ForecastConfig::default() };
    ForecastRequest::digit(train, horizon, method, config)
}

/// A request that drives every branch of the retry ladder: an injected
/// panic on sample 0, corrupted continuations that retry under backoff,
/// and a token deadline tight enough that some retries expire. It gets a
/// history of its own, so it always owns (and pays for) its context.
fn faulted_request() -> ForecastRequest {
    let mut request = digit_request(series(80, 0.7, 12.0), 6, MuxMethod::ValueInterleave, 77, 5);
    request.config.robust = RobustPolicy {
        max_retries: 3,
        backoff_base: 2,
        // 60 tokens per sample: a first attempt fits, a retry after a
        // corrupted draw runs dry.
        deadline_tokens: Some(300),
        ..RobustPolicy::default()
    };
    request.source = SampleSource::FaultInjected(FaultSpec {
        rate: 0.5,
        seed: 11,
        panic_sample: Some(0),
        latency_tokens: 0,
    });
    request
}

/// A served request's cost as the engine reports it: a request that joined
/// a context another request owns is not charged the prompt pass, so add it
/// back before comparing.
fn engine_equivalent_cost(run: &ServeRun, outcome: &ServeOutcome) -> InferenceCost {
    let mut cost = outcome.cost;
    if cost.prompt_tokens == 0 {
        cost.absorb(run.contexts[outcome.context.unwrap()].prompt_cost);
    }
    cost
}

/// Satellite: a fixed-seed request is bit-identical whether run alone
/// (through the sequential engine), through `serve_all` with 1 worker, or
/// through `serve_all` with 8 workers under a shuffled submission order —
/// both for a clean request and for one that exercises panics, retries,
/// backoff and deadline expiry.
#[test]
fn fixed_seed_request_is_bit_identical_across_schedulers() {
    let train = series(72, 0.0, 10.0);
    let targets =
        [digit_request(train.clone(), 6, MuxMethod::ValueInterleave, 42, 4), faulted_request()];

    // Reference: the engine path (MultiCastForecaster).
    let references: Vec<_> = targets
        .iter()
        .map(|target| {
            let mut solo = MultiCastForecaster::new(MuxMethod::ValueInterleave, target.config)
                .with_source(target.source);
            let forecast = solo.forecast(&target.train, target.horizon).unwrap();
            (forecast, solo.last_report.unwrap(), solo.last_cost.unwrap())
        })
        .collect();
    let faulted = &references[1].1;
    assert_eq!(faulted.defect_count(DefectClass::Panicked), 1, "{}", faulted.summary());
    assert!(faulted.defect_count(DefectClass::DeadlineExpired) > 0, "{}", faulted.summary());
    assert!(faulted.samples.iter().any(|s| s.attempts > 2), "{}", faulted.summary());
    assert!(faulted.valid_samples > 0, "{}", faulted.summary());

    // A batch with neighbors competing for the worker pool — some sharing
    // the clean target's frozen context (same train/codec), some not.
    let mut requests = targets.to_vec();
    for (i, horizon) in [3usize, 9, 5, 7].iter().enumerate() {
        requests.push(digit_request(
            train.clone(),
            *horizon,
            MuxMethod::ValueInterleave,
            100 + i as u64,
            3,
        ));
        requests.push(digit_request(
            series(64, 0.3 * i as f64, 5.0),
            *horizon,
            MuxMethod::ValueConcat,
            200 + i as u64,
            2,
        ));
    }

    let check = |run: &ServeRun, order: &[ForecastRequest], tag: &str| {
        for (target, (forecast, report, cost)) in targets.iter().zip(&references) {
            let fp = target.content_fingerprint();
            let position = order.iter().position(|r| r.content_fingerprint() == fp).unwrap();
            let outcome = &run.outcomes[position];
            let tag = format!("{tag}, seed {}", target.config.seed);
            assert_eq!(outcome.id, RequestId(position), "{tag}");
            assert_bit_identical(forecast, outcome.forecast.as_ref().unwrap(), &tag);
            assert_eq!(outcome.report.as_ref().unwrap(), report, "{tag}: report");
            assert_eq!(engine_equivalent_cost(run, outcome), *cost, "{tag}: cost");
        }
    };
    check(&serve_all(&requests, &ServeConfig::with_workers(1)), &requests, "1 worker");
    for shuffle_seed in [1u64, 7, 31] {
        let order = shuffled(&requests, shuffle_seed);
        let wide = serve_all(&order, &ServeConfig::with_workers(8));
        check(&wide, &order, &format!("8 workers, shuffle {shuffle_seed}"));
    }
}

/// Every neighbor in a batch must also be scheduling-independent — not
/// just one probe request. Runs the same batch at several pool widths and
/// compares every forecast pairwise.
#[test]
fn whole_batch_is_invariant_to_worker_count() {
    let mut requests = Vec::new();
    for i in 0..6u64 {
        let method = MuxMethod::ALL[i as usize % 3];
        requests.push(digit_request(
            series(60 + 4 * i as usize, 0.1 * i as f64, 8.0),
            4 + (i as usize % 3),
            method,
            1000 + i,
            2 + (i as usize % 2),
        ));
    }
    let runs: Vec<ServeRun> =
        [1, 2, 8].iter().map(|&w| serve_all(&requests, &ServeConfig::with_workers(w))).collect();
    for run in &runs[1..] {
        for (a, b) in runs[0].outcomes.iter().zip(&run.outcomes) {
            assert_bit_identical(
                a.forecast.as_ref().unwrap(),
                b.forecast.as_ref().unwrap(),
                &format!("request {:?}", a.id),
            );
            assert_eq!(a.report, b.report, "request {:?}", a.id);
            assert_eq!(a.cost, b.cost, "request {:?}", a.id);
        }
    }
}

/// Builds the 32-request mixed stress batch: four distinct histories,
/// all three digit multiplexers plus SAX, varying horizons, seeds and
/// sample counts. Request 7 is rigged to fail its quorum (every
/// continuation corrupted, no retries left); request 19 panics on its
/// first attempt of sample 0 and recovers on retry.
fn stress_batch() -> Vec<ForecastRequest> {
    let trains: Vec<MultivariateSeries> =
        (0..4).map(|i| series(56 + 8 * i, 0.2 * i as f64, 6.0 + i as f64)).collect();
    let sax = SaxConfig {
        segment_len: 3,
        alphabet: SaxAlphabet::new(SaxAlphabetKind::Alphabetic, 5).unwrap(),
    };
    let mut requests = Vec::with_capacity(32);
    for i in 0..32usize {
        let codec = match i % 4 {
            0 => CodecChoice::Digit(MuxMethod::ValueInterleave),
            1 => CodecChoice::Digit(MuxMethod::ValueConcat),
            2 => CodecChoice::Digit(MuxMethod::DigitInterleave),
            _ => CodecChoice::Sax(sax),
        };
        let config = ForecastConfig {
            samples: 2 + i % 3,
            seed: 5000 + i as u64,
            ..ForecastConfig::default()
        };
        let mut request = ForecastRequest {
            train: trains[i / 8].clone(),
            horizon: 3 + i % 6,
            codec,
            config,
            source: SampleSource::Model,
            priority: Priority::Normal,
            client: 0,
        };
        if i == 7 {
            // Every attempt of every sample corrupted, one retry: the
            // quorum fails and the policy degrades to seasonal-naive.
            request.config.robust =
                RobustPolicy { max_retries: 1, min_valid_samples: 2, ..RobustPolicy::default() };
            request.source = SampleSource::FaultInjected(FaultSpec::with_rate(1.0, 77));
        }
        if i == 19 {
            request.source = SampleSource::FaultInjected(FaultSpec {
                rate: 0.0,
                seed: 0,
                panic_sample: Some(0),
                latency_tokens: 0,
            });
        }
        requests.push(request);
    }
    requests
}

/// Satellite: the 32-request stress batch — per-request isolation, every
/// request resolves, and exact token-cost conservation against the
/// metered ledgers.
#[test]
fn stress_batch_isolates_faults_and_conserves_cost() {
    let requests = stress_batch();
    let run = serve_all(&requests, &ServeConfig::with_workers(8));
    assert_eq!(run.outcomes.len(), 32);

    // Every request resolves to a forecast of its requested shape — the
    // degraded request through its fallback, the panicked one after retry.
    for (request, outcome) in requests.iter().zip(&run.outcomes) {
        let fc = outcome
            .forecast
            .as_ref()
            .unwrap_or_else(|e| panic!("request {:?} failed: {e}", outcome.id));
        assert_eq!(fc.len(), request.horizon, "request {:?}", outcome.id);
        assert_eq!(fc.dims(), request.train.dims(), "request {:?}", outcome.id);
        assert!(fc.columns().iter().flatten().all(|v| v.is_finite()), "request {:?}", outcome.id);
    }

    // The rigged requests fail/recover exactly as configured...
    let degraded = run.outcomes[7].report.as_ref().unwrap();
    assert!(degraded.degraded(), "request 7 must hit the quorum fallback");
    assert_eq!(degraded.valid_samples, 0);
    let panicked = run.outcomes[19].report.as_ref().unwrap();
    assert_eq!(panicked.defect_count(DefectClass::Panicked), 1, "request 19 panics once");
    assert!(!panicked.degraded(), "request 19 recovers on retry");
    assert_eq!(panicked.valid_samples, panicked.requested_samples);

    // ...and nobody else even notices: every other request is pristine.
    for (i, outcome) in run.outcomes.iter().enumerate() {
        if i == 7 || i == 19 {
            continue;
        }
        let report = outcome.report.as_ref().unwrap();
        assert!(!report.degraded(), "request {i} must not degrade");
        assert_eq!(report.total_defects(), 0, "request {i} must see no defects");
        assert_eq!(report.retries_used, 0, "request {i} must not retry");
        assert_eq!(report.valid_samples, report.requested_samples, "request {i}");
    }

    // Isolation the strong way: clean requests are bit-identical to
    // running alone, faulty neighbors or not.
    for probe in [0usize, 6, 8, 18, 20] {
        let request = &requests[probe];
        let CodecChoice::Digit(method) = request.codec else { continue };
        let mut solo = MultiCastForecaster::new(method, request.config);
        let reference = solo.forecast(&request.train, request.horizon).unwrap();
        assert_bit_identical(
            &reference,
            run.outcomes[probe].forecast.as_ref().unwrap(),
            &format!("request {probe} vs solo"),
        );
    }

    assert_cost_conserved(&run);
}

/// Exact token conservation: summed per-request attribution equals the
/// ledgers metered inside the model boundary — prompt charged exactly once
/// per context, generated tokens neither lost nor double-charged.
fn assert_cost_conserved(run: &ServeRun) {
    let attributed = run.attributed_cost();
    let metered = run.metered_cost();
    assert_eq!(attributed.prompt_tokens, metered.prompt_tokens, "prompt tokens conserved");
    assert_eq!(attributed.generated_tokens, metered.generated_tokens, "generated tokens conserved");
    assert_eq!(attributed.work_units, metered.work_units, "work units conserved");

    for (c, context) in run.contexts.iter().enumerate() {
        let members: Vec<_> = run.outcomes.iter().filter(|o| o.context == Some(c)).collect();
        assert_eq!(members.len(), context.requests, "context {c} membership");
        // Prompt charged exactly once per context, to exactly one member.
        let prompt_charges: Vec<u64> = members.iter().map(|o| o.cost.prompt_tokens).collect();
        assert_eq!(
            prompt_charges.iter().sum::<u64>(),
            context.prompt_cost.prompt_tokens,
            "context {c}: prompt amortized once"
        );
        assert_eq!(
            prompt_charges.iter().filter(|&&p| p > 0).count(),
            1,
            "context {c}: exactly one owner pays the prompt"
        );
        // Generated tokens attributed to members equal the context ledger.
        let generated: u64 = members.iter().map(|o| o.cost.generated_tokens).sum();
        assert_eq!(
            generated, context.metered.generated_tokens,
            "context {c}: generated tokens conserved"
        );
    }
}

/// The same conservation audit under heavy (non-panic) fault injection:
/// corrupted draws are still paid for, retries included, so the invariant
/// must survive the chaos drill.
#[test]
fn cost_conservation_survives_fault_injection() {
    let train = series(64, 0.0, 9.0);
    let mut requests = Vec::new();
    for i in 0..6u64 {
        let mut request = digit_request(train.clone(), 5, MuxMethod::ValueInterleave, 9000 + i, 3);
        request.source = SampleSource::FaultInjected(FaultSpec::with_rate(0.5, i));
        requests.push(request);
    }
    let run = serve_all(&requests, &ServeConfig::with_workers(4));
    for outcome in &run.outcomes {
        assert!(outcome.forecast.is_ok(), "request {:?} must resolve", outcome.id);
    }
    assert_cost_conserved(&run);
    // The drill actually exercised the retry path somewhere.
    let retries: usize =
        run.outcomes.iter().filter_map(|o| o.report.as_ref()).map(|r| r.retries_used).sum();
    assert!(retries > 0, "rate-0.5 corruption should force retries");
}

/// Tentpole acceptance: with fixed seeds and the logical clock, the
/// canonical trace — the span export, the one trace record — is
/// *byte-identical* across worker counts and submission orders:
/// concurrency is invisible to the trace exactly as it is to the
/// forecasts, and to the attempt count the trace's facts are built from.
/// Runs the full 32-request stress batch, rigged faults included.
#[test]
fn canonical_trace_is_byte_identical_across_schedules() {
    let requests = stress_batch();
    let serve_traced = |order: &[ForecastRequest], workers: usize| {
        let obs = Arc::new(Observer::logical());
        serve_all_observed(order, &ServeConfig::with_workers(workers), obs.clone());
        let facts =
            obs.spans().iter().filter(|s| s.span.kind.deterministic() && s.span.is_fact()).count();
        (obs.spans_to_jsonl(), obs.metrics().get(Counter::Attempts), facts)
    };

    let (reference, attempts, facts) = serve_traced(&requests, 1);
    assert!(!reference.is_empty(), "the stress batch must produce a trace");
    assert!(facts > 32, "more fact records than requests: attempts, joins, resolves");
    for line in reference.lines() {
        assert!(line.starts_with("{\"t\":") && line.ends_with('}'), "JSONL row: {line}");
    }

    for workers in [2usize, 4, 8] {
        let (trace, n, f) = serve_traced(&requests, workers);
        assert_eq!(trace, reference, "{workers} workers changed the canonical trace");
        assert_eq!(n, attempts, "{workers} workers changed the attempt count");
        assert_eq!(f, facts, "{workers} workers changed the fact-record count");
    }
    for shuffle_seed in [3u64, 11] {
        let order = shuffled(&requests, shuffle_seed);
        let (trace, n, _) = serve_traced(&order, 8);
        assert_eq!(trace, reference, "shuffle {shuffle_seed} changed the canonical trace");
        assert_eq!(n, attempts, "shuffle {shuffle_seed} changed the attempt count");
    }
}

/// Tentpole acceptance: the canonical span export never leaks wall
/// stamps, stays byte-identical across worker counts and submission
/// orders, and every span half pairs cleanly (no orphaned opens, no
/// double closes), rigged faults and a panicking draw included.
#[test]
fn canonical_span_export_is_byte_identical_across_schedules() {
    use mc_obs::pair_spans;
    let requests = stress_batch();
    let serve_spanned = |order: &[ForecastRequest], workers: usize| {
        let obs = Arc::new(Observer::logical());
        serve_all_observed(order, &ServeConfig::with_workers(workers), obs.clone());
        (obs.spans_to_jsonl(), obs.spans())
    };

    let (reference, spans) = serve_spanned(&requests, 1);
    assert!(!reference.is_empty(), "the stress batch must produce spans");
    for line in reference.lines() {
        assert!(line.starts_with("{\"t\":") && line.ends_with('}'), "span JSONL row: {line}");
        assert!(!line.contains("\"wall\""), "canonical spans must not leak wall stamps: {line}");
    }
    // Every span half pairs: no orphaned open, no double close — even
    // with request 19's rigged panic unwinding through a draw.
    let paired = pair_spans(&spans).expect("1-worker span stream pairs cleanly");
    assert_eq!(paired.len() * 2, spans.len(), "every half belongs to exactly one pair");
    // The whole serve-path vocabulary shows up in one stress batch.
    for kind in [
        "request",
        "context_fit",
        "join",
        "attempt",
        "draw",
        "defect",
        "panic_isolated",
        "retry",
        "quorum",
        "fallback",
        "queue_wait",
        "session",
        "dedup",
    ] {
        assert!(
            paired.iter().any(|p| p.kind.name() == kind),
            "stress batch must emit at least one {kind} span"
        );
    }

    for workers in [2usize, 4, 8] {
        let (jsonl, spans) = serve_spanned(&requests, workers);
        assert_eq!(jsonl, reference, "{workers} workers changed the canonical span export");
        pair_spans(&spans).expect("span stream pairs at any pool width");
    }
    for shuffle_seed in [3u64, 11] {
        let order = shuffled(&requests, shuffle_seed);
        let (jsonl, spans) = serve_spanned(&order, 8);
        assert_eq!(jsonl, reference, "shuffle {shuffle_seed} changed the canonical span export");
        pair_spans(&spans).expect("span stream pairs under shuffled submission");
    }
}

/// Satellite: `collect` with an id the handle never issued is a *typed*
/// error ([`TsError::UnknownRequest`]) — and the bad probe still flushes
/// pending work first, so valid ids submitted before it are executed, not
/// stranded.
#[test]
fn collect_unknown_id_is_typed_and_still_flushes() {
    let train = series(64, 0.0, 9.0);
    let mut handle = ServeHandle::new(ServeConfig::with_workers(2));
    let id = handle.submit(digit_request(train, 4, MuxMethod::ValueInterleave, 5, 2));
    let err = handle.collect(RequestId(17)).unwrap_err();
    assert_eq!(err, TsError::UnknownRequest { id: 17 });
    assert_eq!(
        handle.contexts().len(),
        1,
        "the unknown-id probe must flush pending work, not strand it"
    );
    // The flushed request is collectible without re-running anything,
    // and exactly once: the outcome moves out of the handle.
    assert!(handle.collect(id).unwrap().forecast.is_ok());
    assert_eq!(handle.contexts().len(), 1);
    assert_eq!(handle.collect(id).unwrap_err(), TsError::UnknownRequest { id: id.0 });
    // A fresh handle with nothing pending: same typed error, no flush.
    let mut empty = ServeHandle::new(ServeConfig::default());
    assert_eq!(empty.collect(RequestId(0)).unwrap_err(), TsError::UnknownRequest { id: 0 });
}

/// Satellite: deterministic shedding — under a `queue_cap`, the *sets* of
/// shed and served requests are identical across worker counts and
/// submission orders (matched by content, not submission index), and the
/// canonical trace of the overloaded batch is byte-identical too.
#[test]
fn shed_and_served_sets_are_schedule_independent() {
    // 10 requests, capacity 6: priorities cycle so the cut crosses a
    // priority boundary and must fall back to fingerprint order.
    let requests: Vec<ForecastRequest> = (0..10u64)
        .map(|i| {
            let mut request = digit_request(
                series(56 + 4 * (i as usize % 3), 0.1 * i as f64, 7.0),
                4 + (i as usize % 3),
                MuxMethod::ValueInterleave,
                3000 + i,
                2,
            );
            request.priority = match i % 3 {
                0 => Priority::Batch,
                1 => Priority::Normal,
                _ => Priority::Interactive,
            };
            request
        })
        .collect();
    let config = ServeConfig { queue_cap: Some(6), ..ServeConfig::with_workers(1) };

    // A request's fate, keyed by content fingerprint so it can be compared
    // across submission orders.
    let fates = |order: &[ForecastRequest], workers: usize| {
        let cfg = ServeConfig { workers, ..config };
        let obs = Arc::new(Observer::logical());
        let run = serve_all_observed(order, &cfg, obs.clone());
        let mut fates: Vec<(u64, bool)> = order
            .iter()
            .map(multicast_core::ForecastRequest::content_fingerprint)
            .zip(run.outcomes.iter().map(|o| o.forecast.is_ok()))
            .collect();
        fates.sort_unstable();
        (fates, obs.spans_to_jsonl())
    };

    let (reference, trace) = fates(&requests, 1);
    let shed = reference.iter().filter(|(_, served)| !served).count();
    assert_eq!(shed, 4, "10 requests, capacity 6: exactly 4 shed");
    // Interactive requests must all survive a cut this shallow.
    for (request, (_, served)) in requests.iter().zip(requests.iter().map(|r| {
        let fp = r.content_fingerprint();
        *reference.iter().find(|(f, _)| *f == fp).unwrap()
    })) {
        if request.priority == Priority::Interactive {
            assert!(served, "interactive request shed while lower classes ran");
        }
    }

    for workers in [2usize, 8] {
        let (f, t) = fates(&requests, workers);
        assert_eq!(f, reference, "{workers} workers changed who was shed");
        assert_eq!(t, trace, "{workers} workers changed the overloaded canonical trace");
    }
    for shuffle_seed in [5u64, 23] {
        let order = shuffled(&requests, shuffle_seed);
        let (f, t) = fates(&order, 8);
        assert_eq!(f, reference, "shuffle {shuffle_seed} changed who was shed");
        assert_eq!(t, trace, "shuffle {shuffle_seed} changed the overloaded canonical trace");
    }
}

/// Tentpole: the cross-batch context cache never changes the bytes. A
/// three-wave load of mixed histories — contexts shared both within and
/// across flushes — is served through one warm `ServeHandle` (cache on)
/// and cold (cache off), across worker counts and shuffled submission
/// orders. Forecasts and per-request costs must be bit-identical
/// everywhere, the canonical trace must not move, and the warm handle
/// must actually hit its cache (one miss per distinct prompt, hits for
/// every later wave).
#[test]
fn warm_cache_serving_is_bit_identical_to_cold_across_schedules() {
    use mc_lm::cache::CacheConfig;

    let train_a = series(72, 0.0, 10.0);
    let train_b = series(64, 0.5, 3.0);
    // Unique seeds key outcomes across shuffled submission orders.
    let waves: Vec<Vec<ForecastRequest>> = (0..3)
        .map(|w| {
            vec![
                digit_request(train_a.clone(), 5, MuxMethod::ValueInterleave, 10 + w, 2),
                digit_request(train_a.clone(), 7, MuxMethod::ValueInterleave, 20 + w, 3),
                digit_request(train_b.clone(), 4, MuxMethod::ValueInterleave, 30 + w, 2),
            ]
        })
        .collect();

    // Serves every wave through one handle (flush per wave) and returns
    // outcomes keyed by request seed, the canonical trace, and stats.
    let run = |cache: bool, workers: usize, shuffle: Option<u64>| {
        let obs = Arc::new(Observer::logical());
        let config = ServeConfig {
            workers,
            cache: if cache { Some(CacheConfig::default()) } else { None },
            ..ServeConfig::default()
        };
        let mut handle = ServeHandle::with_recorder(config, obs.clone());
        let mut ids = Vec::new();
        for wave in &waves {
            let order = match shuffle {
                Some(seed) => shuffled(wave, seed),
                None => wave.clone(),
            };
            for request in &order {
                ids.push((request.config.seed, handle.submit(request.clone())));
            }
            handle.flush();
        }
        let mut outcomes: Vec<(u64, MultivariateSeries, mc_lm::cost::InferenceCost)> = ids
            .into_iter()
            .map(|(seed, id)| {
                let outcome = handle.collect(id).expect("submitted id collects");
                (seed, outcome.forecast.expect("warm/cold load never errors"), outcome.cost)
            })
            .collect();
        outcomes.sort_by_key(|&(seed, ..)| seed);
        (outcomes, obs.spans_to_jsonl(), handle.cache_stats())
    };

    let (cold, cold_trace, cold_stats) = run(false, 4, None);
    assert!(cold_stats.is_none(), "cache off means no stats");
    let (warm, warm_trace, warm_stats) = run(true, 4, None);

    // The warm handle really was warm: two distinct prompts fit once
    // each, every later wave hit, nothing was evicted.
    let stats = warm_stats.expect("cache on exposes stats");
    assert_eq!(
        (stats.misses, stats.hits, stats.insertions, stats.evictions),
        (2, 4, 2, 0),
        "2 prompts x 3 waves: one miss each, hits for the rest"
    );

    assert_eq!(warm_trace, cold_trace, "the cache leaked into the canonical trace");
    for ((sa, fa, ca), (sb, fb, cb)) in cold.iter().zip(&warm) {
        assert_eq!(sa, sb);
        assert_bit_identical(fa, fb, &format!("warm vs cold, seed {sa}"));
        assert_eq!(ca, cb, "warm cost accounting diverged from cold, seed {sa}");
    }

    // And neither worker count nor submission order moves any byte,
    // warm or cold.
    for workers in [1usize, 8] {
        for cache in [false, true] {
            let (outcomes, trace, _) = run(cache, workers, None);
            assert_eq!(trace, cold_trace, "{workers} workers, cache {cache}: trace moved");
            for ((sa, fa, ca), (sb, fb, cb)) in cold.iter().zip(&outcomes) {
                assert_eq!(sa, sb);
                assert_bit_identical(fa, fb, &format!("{workers} workers, cache {cache}"));
                assert_eq!(ca, cb, "{workers} workers, cache {cache}: cost moved, seed {sa}");
            }
        }
    }
    for shuffle_seed in [3u64, 17] {
        let (outcomes, trace, _) = run(true, 4, Some(shuffle_seed));
        assert_eq!(trace, cold_trace, "shuffle {shuffle_seed} moved the warm trace");
        for ((sa, fa, _), (sb, fb, _)) in cold.iter().zip(&outcomes) {
            assert_eq!(sa, sb);
            assert_bit_identical(fa, fb, &format!("warm shuffle {shuffle_seed}"));
        }
    }
}

/// Context sharing is what the scheduler exists for: requests with the
/// same history and codec — regardless of horizon — must share one frozen
/// context, and requests with different prompts must not.
#[test]
fn context_sharing_follows_prompts_not_horizons() {
    let train_a = series(60, 0.0, 7.0);
    let train_b = series(60, 0.5, 3.0);
    let requests = vec![
        digit_request(train_a.clone(), 4, MuxMethod::ValueInterleave, 1, 2),
        digit_request(train_a.clone(), 9, MuxMethod::ValueInterleave, 2, 2),
        digit_request(train_a.clone(), 6, MuxMethod::ValueInterleave, 3, 2),
        digit_request(train_b, 4, MuxMethod::ValueInterleave, 4, 2),
        digit_request(train_a, 4, MuxMethod::ValueConcat, 5, 2),
    ];
    let run = serve_all(&requests, &ServeConfig::with_workers(4));
    assert_eq!(run.contexts.len(), 3, "three distinct prompts");
    assert_eq!(run.outcomes[0].context, run.outcomes[1].context);
    assert_eq!(run.outcomes[0].context, run.outcomes[2].context);
    assert_ne!(run.outcomes[0].context, run.outcomes[3].context);
    assert_ne!(run.outcomes[0].context, run.outcomes[4].context);
    let shared = run.outcomes[0].context.unwrap();
    assert_eq!(run.contexts[shared].requests, 3);
    assert_cost_conserved(&run);
}
