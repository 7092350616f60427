//! The `serve-mixed` workload: one closed-loop caller submitting batches
//! of requests to a `ServeHandle` with a persistent worker pool and a
//! context cache smaller than the stream count; plus the serve and cache
//! layer metrics every traced run reports.

use std::collections::HashMap;
use std::sync::Arc;
use std::time::{Duration, Instant};

use mc_lm::cache::{CacheConfig, CachePolicy, CacheStats, RefitMode};
use mc_obs::{pair_spans, Observer, Recorder, SpanKind};
use mc_tslib::error::Result;
use multicast_core::{
    ContextStats, ForecastConfig, ForecastReport, ForecastRequest, MuxMethod, ServeConfig,
    ServeHandle, ServeOutcome,
};

use crate::calib::Calibration;
use crate::inputs::{Planned, Traffic, BATCH, CACHE_CAPACITY, STREAMS};
use crate::layers::{decomposed_forecast, engine_forecast, Forecast, LayerSample};
use crate::report::{end_to_end, layer_metrics, peak_rss_mb, Metric, Report};
use crate::stats::{block_tail, median, ratio};
use crate::{nanos, verdict, Options, SETUP_REPS};

/// Flushes of the request mix each set-up runs after the cache fill.
const WARM_FLUSHES: usize = 8;

fn serve_config(workers: usize) -> ServeConfig {
    ServeConfig {
        cache: Some(CacheConfig {
            capacity: CACHE_CAPACITY,
            // Every stream is one family (same preset and vocabulary), and
            // a shard holds `capacity / shards` entries: one shard keeps
            // the whole capacity usable.
            shards: 1,
            policy: CachePolicy::Lru,
            refit: RefitMode::Incremental,
        }),
        ..ServeConfig::with_workers(workers)
    }
}

/// Digit VI with the paper defaults (Table II); one seed per request.
fn request(traffic: &Traffic, p: &Planned) -> ForecastRequest {
    let config = ForecastConfig { seed: p.seed, ..ForecastConfig::default() };
    ForecastRequest::digit(traffic.window(p).train, p.horizon, MuxMethod::ValueInterleave, config)
}

/// A served outcome in the shape the checks compare.
fn as_forecast(outcome: &ServeOutcome) -> Result<Forecast> {
    let series = outcome.forecast.clone()?;
    Ok(Forecast::new(&series, outcome.report.as_ref().is_some_and(ForecastReport::degraded)))
}

/// Submits `requests` as one flush and collects every outcome. Returns
/// each request's latency (submit until its outcome is collected) and
/// outcome, plus the wall time of `ServeHandle::flush` alone.
fn serve_batch(
    handle: &mut ServeHandle,
    requests: Vec<ForecastRequest>,
) -> (Vec<(u64, Result<Forecast>)>, u64) {
    let ids: Vec<_> = requests
        .into_iter()
        .map(|r| {
            let t = Instant::now();
            (handle.submit(r), t)
        })
        .collect();
    let t = Instant::now();
    handle.flush();
    let flush_ns = nanos(t);
    let out = ids
        .into_iter()
        .map(|(id, t)| {
            let outcome = handle.collect(id).and_then(|o| as_forecast(&o));
            (nanos(t), outcome)
        })
        .collect();
    (out, flush_ns)
}

/// One request as a one-request flush: outcome and flush wall time.
pub fn served_forecast(
    handle: &mut ServeHandle,
    request: ForecastRequest,
) -> (Result<Forecast>, u64) {
    let (mut out, flush_ns) = serve_batch(handle, vec![request]);
    (out.pop().expect("one outcome per request").1, flush_ns)
}

/// Builds the streams, the handle(s) and fills the cache: one request per
/// stream, then a few flushes of the request mix.
fn set_up(
    seed: u64,
    handles: usize,
    workers: usize,
    obs: Option<&Arc<Observer>>,
) -> (Traffic, Vec<ServeHandle>, f64) {
    let start = Instant::now();
    let mut traffic = Traffic::generate(seed);
    let mut hs: Vec<ServeHandle> = (0..handles)
        .map(|h| match (h, obs) {
            (1, Some(obs)) => ServeHandle::with_recorder(serve_config(workers), obs.clone()),
            _ => ServeHandle::new(serve_config(workers)),
        })
        .collect();
    let fill = traffic.fill();
    let mut batches: Vec<Vec<Planned>> = fill.chunks(BATCH).map(<[Planned]>::to_vec).collect();
    batches.extend((0..WARM_FLUSHES).map(|_| traffic.next_batch()));
    for batch in &batches {
        for h in &mut hs {
            serve_batch(h, batch.iter().map(|p| request(&traffic, p)).collect());
        }
    }
    (traffic, hs, start.elapsed().as_secs_f64())
}

pub fn run(opts: &Options) -> Report {
    let mut report = if opts.trace { traced(opts) } else { untraced(opts) };
    report.header.insert(
        0,
        format!(
            "workload serve-mixed seed {} seconds {} trace {} workers {} (closed loop, 1 caller; {BATCH} requests per flush over {STREAMS} streams, cache capacity {CACHE_CAPACITY}; digit VI, S = 5, Large preset)",
            opts.seed,
            opts.seconds,
            u8::from(opts.trace),
            opts.nproc,
        ),
    );
    report
}

fn untraced(opts: &Options) -> Report {
    let mut setups = Vec::with_capacity(SETUP_REPS);
    let mut state = None;
    for _ in 0..SETUP_REPS {
        let (traffic, hs, secs) = set_up(opts.seed, 1, opts.nproc, None);
        setups.push(secs);
        state = Some((traffic, hs));
    }
    let (mut traffic, mut hs) = state.expect("at least one set-up");
    let handle = &mut hs[0];
    let budget = Duration::from_secs_f64(opts.seconds);
    let mut ops = Vec::new();
    let mut timed = Duration::ZERO;
    let mut calibration = Calibration::default();
    while ops.len() < opts.max_ops && (ops.is_empty() || timed < budget) {
        calibration.tick();
        let batch = traffic.next_batch();
        let requests: Vec<ForecastRequest> = batch.iter().map(|p| request(&traffic, p)).collect();
        let submitted = requests.clone();
        let t = Instant::now();
        let (out, _) = serve_batch(handle, submitted);
        timed += t.elapsed();
        // Correctness, untimed: every outcome against `ForecastEngine::run`
        // on the same request.
        for ((p, req), (ns, out)) in batch.iter().zip(&requests).zip(out) {
            let w = traffic.window(p);
            let reference = engine_forecast(req);
            let perturb = opts.perturb && ops.is_empty();
            ops.push(verdict(ns, out, &[reference], &w, p.horizon, p.dataset(), perturb));
        }
    }
    let (metrics, info) = end_to_end(&ops, timed.as_secs_f64(), &setups, peak_rss_mb());
    Report {
        attempted: ops.len(),
        failed: ops.iter().filter(|o| !o.ok).count(),
        metrics,
        info,
        header: Vec::new(),
        calibration,
    }
}

fn traced(opts: &Options) -> Report {
    let obs = Arc::new(Observer::wall());
    let (mut traffic, mut hs, _) = set_up(opts.seed, 2, opts.nproc, Some(&obs));
    let cutoff = obs.wall();
    let stats_before = hs[1].cache_stats().unwrap_or_default();
    let contexts_before = hs[1].contexts().len();
    let budget = Duration::from_secs_f64(opts.seconds);
    let (mut plain_ns, mut traced_ns, mut flush_ms) = (Vec::new(), Vec::new(), Vec::new());
    let mut samples: Vec<LayerSample> = Vec::new();
    let (mut attempted, mut failed, mut flushes) = (0, 0, 0);
    let mut calibration = Calibration::default();
    let start = Instant::now();
    while attempted < opts.max_ops && (attempted == 0 || start.elapsed() < budget) {
        calibration.tick();
        let batch = traffic.next_batch();
        let requests: Vec<ForecastRequest> = batch.iter().map(|p| request(&traffic, p)).collect();
        let replayed = requests.clone();
        // Plain handle and traced handle serve the same batch; alternate
        // which goes first.
        let (plain, (traced, f_ns)) = if flushes % 2 == 0 {
            let p = serve_batch(&mut hs[0], requests.clone()).0;
            (p, serve_batch(&mut hs[1], requests))
        } else {
            let t = serve_batch(&mut hs[1], requests.clone());
            (serve_batch(&mut hs[0], requests).0, t)
        };
        flush_ms.push(f_ns as f64 / 1e6);
        flushes += 1;
        for (k, ((p, req), ((p_ns, p_out), (t_ns, t_out)))) in
            batch.iter().zip(&replayed).zip(plain.into_iter().zip(traced)).enumerate()
        {
            let w = traffic.window(p);
            let (replay, sample) = match decomposed_forecast(req) {
                Ok((f, s)) => (Ok(f), Some(s)),
                Err(e) => (Err(e), None),
            };
            let op = verdict(
                p_ns,
                p_out,
                &[t_out, replay],
                &w,
                p.horizon,
                p.dataset(),
                opts.perturb && attempted == 0 && k == 0,
            );
            failed += usize::from(!op.ok);
            plain_ns.push(p_ns as f64);
            traced_ns.push(t_ns as f64);
            samples.extend(sample);
            attempted += 1;
        }
    }

    let mut metrics = layer_metrics(&samples, opts.nproc);
    let (serve, spans_ok) = serve_layer_metrics(
        &obs,
        cutoff,
        &flush_ms,
        opts.nproc,
        &hs[1].contexts()[contexts_before..],
    );
    failed += usize::from(!spans_ok);
    metrics.extend(serve);
    let stats = hs[1].cache_stats().unwrap_or_default();
    metrics.extend(cache_metrics(&stats_before, &stats, flushes));
    metrics.push(crate::overhead_metric(&plain_ns, &traced_ns));
    Report {
        attempted,
        failed,
        metrics,
        info: Vec::new(),
        header: vec![
            "traced run: each batch served by a plain handle and by a handle recording into \
             Observer::wall(); each request also replayed decomposed with layer probes"
                .into(),
        ],
        calibration,
    }
}

/// Serve-layer metrics from the flush timings, the context accounting and
/// the wall sidecar of the handle's `Observer::wall()` recorder (spans
/// opened before `cutoff` belong to set-up and are skipped). The flag is
/// false when the recorded spans do not pair up.
pub fn serve_layer_metrics(
    obs: &Observer,
    cutoff: u64,
    flush_ms: &[f64],
    workers: usize,
    contexts: &[ContextStats],
) -> (Vec<Metric>, bool) {
    let (paired, ok) = match pair_spans(&obs.spans()) {
        Ok(p) => (p, true),
        Err(_) => (Vec::new(), false),
    };
    let mut request_open: HashMap<u64, u64> = HashMap::new();
    let mut first_attempt: HashMap<u64, u64> = HashMap::new();
    let (mut fits, mut draws) = (Vec::new(), Vec::new());
    let mut queue_wait_ns = 0.0;
    for s in paired.iter().filter(|s| s.open_wall >= cutoff) {
        match s.kind {
            SpanKind::Request => {
                request_open.insert(s.req, s.open_wall);
            }
            SpanKind::Attempt { .. } => {
                let first = first_attempt.entry(s.req).or_insert(s.open_wall);
                *first = (*first).min(s.open_wall);
            }
            SpanKind::ContextFit => fits.push(s.wall_nanos() as f64 / 1e3),
            SpanKind::Draw { .. } => draws.push(s.wall_nanos() as f64 / 1e3),
            SpanKind::QueueWait => queue_wait_ns += s.wall_nanos() as f64,
            _ => {}
        }
    }
    let mut waits: Vec<(u64, f64)> = request_open
        .iter()
        .filter_map(|(req, &open)| {
            first_attempt.get(req).map(|&a| (open, a.saturating_sub(open) as f64 / 1e3))
        })
        .collect();
    waits.sort_by_key(|&(open, _)| open);
    let waits: Vec<f64> = waits.into_iter().map(|(_, w)| w).collect();
    let served: usize = contexts.iter().map(|c| c.requests).sum();
    let flush_ns: f64 = flush_ms.iter().sum::<f64>() * 1e6;
    let n = flush_ms.len();
    let metrics = vec![
        Metric::new("serve.flush_ms_p50", "ms", median(flush_ms), n).note("ServeHandle::flush"),
        Metric::new("serve.flush_ms_p99", "ms", block_tail(flush_ms).1, n)
            .note(format!("p{}", block_tail(flush_ms).0 * 100.0)),
        Metric::new(
            "serve.requests_per_context",
            "count",
            ratio(served as f64, contexts.len() as f64),
            contexts.len(),
        )
        .note("ServeHandle::contexts()"),
        Metric::new("serve.queue_wait_us_p50", "us", median(&waits), waits.len())
            .note("request span open -> first attempt open"),
        Metric::new("serve.queue_wait_us_p99", "us", block_tail(&waits).1, waits.len())
            .note(format!("p{}", block_tail(&waits).0 * 100.0)),
        Metric::new("serve.context_fit_us_p50", "us", median(&fits), fits.len())
            .note("context_fit spans"),
        Metric::new("serve.draw_us_p50", "us", median(&draws), draws.len()).note("draw spans"),
        Metric::new(
            "serve.worker_idle_fraction",
            "ratio",
            ratio(queue_wait_ns, flush_ns * workers as f64),
            n,
        )
        .note(format!("queue_wait spans / (flush wall x {workers} workers)")),
    ];
    (metrics, ok)
}

/// Cache metrics over the measured phase (`before` to `after`).
fn cache_metrics(before: &CacheStats, after: &CacheStats, flushes: usize) -> Vec<Metric> {
    let hits = (after.hits - before.hits) as f64;
    let refits = (after.refits - before.refits) as f64;
    let misses = (after.misses - before.misses) as f64;
    let lookups = hits + refits + misses;
    let n = lookups as usize;
    vec![
        Metric::new("cache.hit_rate", "ratio", ratio(hits, lookups), n)
            .note("exact hits / lookups"),
        Metric::new("cache.refit_rate", "ratio", ratio(refits, lookups), n)
            .note("incremental refits / lookups"),
        Metric::new("cache.miss_rate", "ratio", ratio(misses, lookups), n).note("misses / lookups"),
        Metric::new(
            "cache.evictions_per_flush",
            "count",
            ratio((after.evictions - before.evictions) as f64, flushes as f64),
            flushes,
        ),
    ]
}

/// The engine workloads have no cache: every context is fitted cold, so
/// each lookup counts as a miss.
pub fn bypassed_cache_metrics() -> Vec<Metric> {
    let bypass = |m: Metric| m.note("no cache on this workload: every context fitted cold");
    vec![
        bypass(Metric::new("cache.hit_rate", "ratio", 0.0, 0)),
        bypass(Metric::new("cache.refit_rate", "ratio", 0.0, 0)),
        bypass(Metric::new("cache.miss_rate", "ratio", 1.0, 0)),
        bypass(Metric::new("cache.evictions_per_flush", "count", 0.0, 0)),
    ]
}
