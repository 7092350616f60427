//! Atomic counters and fixed-bucket histograms, derived from spans.
//!
//! [`MetricsRegistry`] is the aggregate side of observability: where the
//! span record answers "what happened to request X", the registry answers
//! "how much of everything happened". It holds no vocabulary of its own:
//! [`MetricsRegistry::record_span`] derives every counter and histogram
//! from span halves — open counts per kind, and one fact per close half
//! from its kind and [`Attrs`]. It is built exclusively on
//! [`mc_sync::atomic`], so a `--cfg loom` build model-checks it exactly
//! like `mc-lm`'s `CostLedger` — lost increments would be found by the
//! loom suite, not production.
//!
//! Counters are a closed set ([`Counter`]) rather than string-keyed: the
//! registry never allocates, updates are single `fetch_add`s, and the
//! defect taxonomy gets one fixed slot per class
//! ([`DefectClass::index`]).
//!
//! `record_span` is an exhaustive match over [`SpanKind`], and clippy's
//! wildcard lints are denied in this file, so a new span kind fails the
//! build until it is routed here.

#![deny(clippy::wildcard_enum_match_arm, clippy::match_wildcard_for_single_variants)]

use mc_sync::atomic::{AtomicU64, Ordering};

use crate::attrs::{AttemptClass, Attrs, DefectClass};
use crate::span::{SpanEvent, SpanKind, SpanPhase, SPAN_KINDS};

taxonomy! {
    /// Every counter the registry tracks.
    pub enum Counter {
        /// Task dequeues observed by the worker pool.
        QueueWaits => "queue_waits",
        /// Requests that reused an already-fitted frozen context.
        DedupHits => "fit_dedup_hits",
        /// Decode sessions that completed inside the model boundary.
        Sessions => "sessions",
        /// Tokens generated across completed sessions (metered ground truth).
        SessionTokens => "session_tokens",
        /// Work units across completed sessions (metered ground truth).
        SessionWork => "session_work",
        /// Frozen contexts fitted (prompt conditioned).
        ContextFits => "context_fits",
        /// Requests joined to a frozen context.
        ContextJoins => "context_joins",
        /// One-time prompt-conditioning tokens across fitted contexts.
        PromptTokens => "prompt_tokens",
        /// `(sample, attempt)` draws executed.
        Attempts => "attempts",
        /// Attempts that produced a valid sample.
        AttemptsValid => "attempts_valid",
        /// Attempts that completed but were fatally defective.
        AttemptsDefective => "attempts_defective",
        /// Attempts that failed on infrastructure.
        AttemptsInfra => "attempts_infra",
        /// Attempts that panicked and were isolated.
        AttemptsPanicked => "attempts_panicked",
        /// Generated tokens attributed to attempts.
        GeneratedTokens => "generated_tokens",
        /// Work units attributed to attempts.
        WorkUnits => "work_units",
        /// Samples re-queued for another attempt.
        Retries => "retries",
        /// Defects observed (all classes).
        Defects => "defects",
        /// Panics caught and converted to defects.
        PanicsIsolated => "panics_isolated",
        /// Requests whose quorum was checked at finalization.
        QuorumResolves => "quorum_resolves",
        /// Quorum checks that failed.
        QuorumFailures => "quorum_failures",
        /// Forecasts produced by the classical fallback.
        Fallbacks => "fallbacks",
        /// Requests rejected at admission on an exhausted client quota.
        QuotaRejections => "quota_rejections",
        /// Requests shed at admission by the queue-capacity ordering.
        Sheds => "sheds",
        /// Retries deferred by the bounded exponential backoff.
        Backoffs => "backoffs",
        /// Submissions bounced off the hard submission cap.
        QueueFullRejections => "queue_full_rejections",
        /// Circuit-breaker open transitions (trips).
        BreakerTrips => "breaker_trips",
        /// Circuit-breaker close transitions.
        BreakerCloses => "breaker_closes",
        /// Requests rejected at admission while a breaker was open.
        BreakerRejections => "breaker_rejections",
        /// Context fits served from the cross-batch frozen-context cache.
        CacheHits => "cache_hits",
        /// Context fits the cache could not serve (from-scratch fit paid).
        CacheMisses => "cache_misses",
        /// Cached contexts delta-updated in place by incremental refit.
        CacheRefits => "cache_refits",
        /// Cache entries evicted to make room for insertions.
        CacheEvictions => "cache_evictions",
        /// Span open halves recorded (any kind).
        SpanOpens => "span_opens",
        /// Span close halves recorded (any kind).
        SpanCloses => "span_closes",
    }
}

/// Histogram bucket count: 8 finite upper bounds plus one overflow slot.
const BUCKETS: usize = 9;

/// A fixed-bucket histogram over `u64` observations.
///
/// Bounds are inclusive upper edges; anything above the last bound lands
/// in the overflow bucket. Count and sum are tracked alongside, so mean
/// and totals come for free.
#[derive(Debug)]
pub struct Histogram {
    bounds: [u64; BUCKETS - 1],
    buckets: [AtomicU64; BUCKETS],
    count: AtomicU64,
    sum: AtomicU64,
}

impl Histogram {
    /// A histogram with the given inclusive upper bucket bounds
    /// (ascending).
    pub fn new(bounds: [u64; BUCKETS - 1]) -> Self {
        Self {
            bounds,
            buckets: std::array::from_fn(|_| AtomicU64::new(0)),
            count: AtomicU64::new(0),
            sum: AtomicU64::new(0),
        }
    }

    /// Records one observation.
    pub fn observe(&self, value: u64) {
        let slot = self.bounds.iter().position(|&b| value <= b).unwrap_or(BUCKETS - 1);
        self.buckets[slot].fetch_add(1, Ordering::Relaxed);
        self.count.fetch_add(1, Ordering::Relaxed);
        self.sum.fetch_add(value, Ordering::Relaxed);
    }

    /// Observations recorded.
    pub fn count(&self) -> u64 {
        self.count.load(Ordering::Relaxed)
    }

    /// Sum of all observations.
    pub fn sum(&self) -> u64 {
        self.sum.load(Ordering::Relaxed)
    }

    /// Per-bucket counts (last slot is overflow).
    pub fn buckets(&self) -> [u64; BUCKETS] {
        std::array::from_fn(|i| self.buckets[i].load(Ordering::Relaxed))
    }

    /// The inclusive upper bounds this histogram was built with.
    pub fn bounds(&self) -> [u64; BUCKETS - 1] {
        self.bounds
    }
}

/// The serve path's metrics: one atomic slot per [`Counter`], one per
/// defect class, plus queue-wait and attempt-token histograms.
#[derive(Debug)]
pub struct MetricsRegistry {
    counters: [AtomicU64; Counter::ALL.len()],
    defects: [AtomicU64; DefectClass::ALL.len()],
    span_opens: [AtomicU64; SPAN_KINDS],
    queue_wait: Histogram,
    attempt_tokens: Histogram,
}

impl MetricsRegistry {
    /// A registry with every counter at zero.
    pub fn new() -> Self {
        Self {
            counters: std::array::from_fn(|_| AtomicU64::new(0)),
            defects: std::array::from_fn(|_| AtomicU64::new(0)),
            span_opens: std::array::from_fn(|_| AtomicU64::new(0)),
            // Queue waits in clock units (ticks or nanoseconds): decade
            // buckets cover sub-microsecond dequeues through second-long
            // stalls.
            queue_wait: Histogram::new([
                10,
                100,
                1_000,
                10_000,
                100_000,
                1_000_000,
                10_000_000,
                1_000_000_000,
            ]),
            // Attempt sizes in generated tokens: power-of-4 buckets.
            attempt_tokens: Histogram::new([4, 16, 64, 256, 1_024, 4_096, 16_384, 65_536]),
        }
    }

    /// Adds `n` to a counter.
    pub fn add(&self, counter: Counter, n: u64) {
        self.counters[counter.index()].fetch_add(n, Ordering::Relaxed);
    }

    /// Adds 1 to a counter.
    pub fn incr(&self, counter: Counter) {
        self.add(counter, 1);
    }

    /// Current value of a counter.
    pub fn get(&self, counter: Counter) -> u64 {
        self.counters[counter.index()].load(Ordering::Relaxed)
    }

    /// Adds one defect of the given taxonomy class.
    pub fn add_defect(&self, class: DefectClass) {
        self.defects[class.index()].fetch_add(1, Ordering::Relaxed);
    }

    /// Defects of one taxonomy class recorded so far.
    pub fn defect_count(&self, class: DefectClass) -> u64 {
        self.defects[class.index()].load(Ordering::Relaxed)
    }

    /// The queue-wait histogram (clock units per dequeue).
    pub fn queue_wait(&self) -> &Histogram {
        &self.queue_wait
    }

    /// The attempt-size histogram (generated tokens per attempt).
    pub fn attempt_tokens(&self) -> &Histogram {
        &self.attempt_tokens
    }

    /// Folds one span half into the counters and histograms. This is the
    /// single routing table from the span record to metrics;
    /// [`crate::record::Observer`] calls it for every span half. An open
    /// half counts its kind ([`SpanKind::index`] slot); a close half
    /// routes its kind and [`Attrs`] — one fact record per close.
    pub fn record_span(&self, span: &SpanEvent) {
        if span.phase == SpanPhase::Open {
            self.incr(Counter::SpanOpens);
            self.span_opens[span.kind.index()].fetch_add(1, Ordering::Relaxed);
            return;
        }
        self.incr(Counter::SpanCloses);
        match (span.kind, span.attrs) {
            (
                SpanKind::Attempt { .. },
                Attrs::Attempt { outcome, generated_tokens, work_units, .. },
            ) => {
                self.incr(Counter::Attempts);
                self.incr(match outcome {
                    AttemptClass::Valid => Counter::AttemptsValid,
                    AttemptClass::Defective => Counter::AttemptsDefective,
                    AttemptClass::Infra => Counter::AttemptsInfra,
                    AttemptClass::Panicked => Counter::AttemptsPanicked,
                });
                self.add(Counter::GeneratedTokens, generated_tokens);
                self.add(Counter::WorkUnits, work_units);
                self.attempt_tokens.observe(generated_tokens);
            }
            (SpanKind::ContextFit, Attrs::Fit { prompt_tokens, .. }) => {
                self.incr(Counter::ContextFits);
                self.add(Counter::PromptTokens, prompt_tokens);
            }
            (SpanKind::Session, Attrs::Session { generated_tokens, work_units }) => {
                self.incr(Counter::Sessions);
                self.add(Counter::SessionTokens, generated_tokens);
                self.add(Counter::SessionWork, work_units);
            }
            (SpanKind::Quorum, Attrs::Quorum { met, .. }) => {
                self.incr(Counter::QuorumResolves);
                if !met {
                    self.incr(Counter::QuorumFailures);
                }
            }
            (SpanKind::Defect { .. }, Attrs::Defect { class, .. }) => {
                self.incr(Counter::Defects);
                self.add_defect(class);
            }
            (SpanKind::QueueWait, Attrs::Wait { ticks }) => {
                self.incr(Counter::QueueWaits);
                self.queue_wait.observe(ticks);
            }
            (SpanKind::CacheLookup, Attrs::CacheHit) => self.incr(Counter::CacheHits),
            (SpanKind::CacheLookup, Attrs::CacheMiss) => self.incr(Counter::CacheMisses),
            (SpanKind::CacheLookup, Attrs::CacheRefit { .. }) => self.incr(Counter::CacheRefits),
            (SpanKind::CacheEvict, Attrs::Evict { evictions }) => {
                self.add(Counter::CacheEvictions, evictions);
            }
            (SpanKind::Breaker, Attrs::BreakerTrip { .. }) => self.incr(Counter::BreakerTrips),
            (SpanKind::Breaker, Attrs::BreakerClose { .. }) => self.incr(Counter::BreakerCloses),
            (SpanKind::Breaker, Attrs::BreakerReject) => self.incr(Counter::BreakerRejections),
            (SpanKind::Retry { .. }, _) => self.incr(Counter::Retries),
            (SpanKind::Backoff { .. }, _) => self.incr(Counter::Backoffs),
            (SpanKind::Fallback, _) => self.incr(Counter::Fallbacks),
            (SpanKind::Shed, _) => self.incr(Counter::Sheds),
            (SpanKind::Quota, _) => self.incr(Counter::QuotaRejections),
            (SpanKind::Join, _) => self.incr(Counter::ContextJoins),
            (SpanKind::PanicIsolated { .. }, _) => self.incr(Counter::PanicsIsolated),
            (SpanKind::Dedup, _) => self.incr(Counter::DedupHits),
            (SpanKind::QueueFull, _) => self.incr(Counter::QueueFullRejections),
            // Intervals whose close carries no fact: requests, draws, and
            // an attributed kind closed without its attributes (a guard
            // dropped during unwinding).
            (
                SpanKind::Request
                | SpanKind::Draw { .. }
                | SpanKind::Attempt { .. }
                | SpanKind::ContextFit
                | SpanKind::Session
                | SpanKind::Quorum
                | SpanKind::Defect { .. }
                | SpanKind::QueueWait
                | SpanKind::CacheLookup
                | SpanKind::CacheEvict
                | SpanKind::Breaker,
                _,
            ) => {}
        }
    }

    /// Spans of one kind opened so far.
    pub fn span_open_count(&self, kind: &SpanKind) -> u64 {
        self.span_opens[kind.index()].load(Ordering::Relaxed)
    }

    /// A plain-data copy of every counter and histogram.
    pub fn snapshot(&self) -> MetricsSnapshot {
        MetricsSnapshot {
            counters: Counter::ALL.iter().map(|&c| (c.name(), self.get(c))).collect(),
            defects: std::array::from_fn(|i| self.defects[i].load(Ordering::Relaxed)),
            spans: SpanKind::NAMES
                .iter()
                .enumerate()
                .map(|(i, &name)| (name, self.span_opens[i].load(Ordering::Relaxed)))
                .collect(),
            histograms: vec![
                HistogramSnapshot::of("queue_wait", &self.queue_wait),
                HistogramSnapshot::of("attempt_tokens", &self.attempt_tokens),
            ],
        }
    }
}

impl Default for MetricsRegistry {
    fn default() -> Self {
        Self::new()
    }
}

/// Plain-data copy of one histogram.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct HistogramSnapshot {
    /// Histogram name.
    pub name: &'static str,
    /// Inclusive upper bucket bounds.
    pub bounds: [u64; BUCKETS - 1],
    /// Per-bucket counts (last slot is overflow).
    pub buckets: [u64; BUCKETS],
    /// Observations recorded.
    pub count: u64,
    /// Sum of all observations.
    pub sum: u64,
}

impl HistogramSnapshot {
    fn of(name: &'static str, h: &Histogram) -> Self {
        Self { name, bounds: h.bounds(), buckets: h.buckets(), count: h.count(), sum: h.sum() }
    }
}

/// Plain-data copy of a whole registry, render-able as markdown.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct MetricsSnapshot {
    /// `(name, value)` per counter, in [`Counter::ALL`] order.
    pub counters: Vec<(&'static str, u64)>,
    /// Per-class defect counts, in [`DefectClass::ALL`] order.
    pub defects: [u64; DefectClass::ALL.len()],
    /// `(name, opens)` per span kind, in [`SpanKind::NAMES`] order.
    pub spans: Vec<(&'static str, u64)>,
    /// Histogram snapshots.
    pub histograms: Vec<HistogramSnapshot>,
}

impl MetricsSnapshot {
    /// Value of a named counter (0 when absent).
    pub fn counter(&self, name: &str) -> u64 {
        self.counters.iter().find(|(n, _)| *n == name).map_or(0, |&(_, v)| v)
    }

    /// Renders the snapshot as markdown tables (for
    /// `results/serving_telemetry.md` and `--metrics` output).
    pub fn to_markdown(&self) -> String {
        use std::fmt::Write;
        let mut md = String::new();
        md.push_str("| counter | value |\n|---|---:|\n");
        for &(name, value) in &self.counters {
            let _ = writeln!(md, "| {name} | {value} |");
        }
        md.push_str("\n| defect class | count |\n|---|---:|\n");
        for (class, count) in DefectClass::ALL.iter().zip(self.defects) {
            let _ = writeln!(md, "| {} | {count} |", class.name());
        }
        md.push_str("\n| span kind | opens |\n|---|---:|\n");
        for &(name, opens) in &self.spans {
            let _ = writeln!(md, "| {name} | {opens} |");
        }
        for h in &self.histograms {
            let _ = write!(
                md,
                "\n`{}` histogram (count {}, sum {}):\n\n| ≤ bound | count |\n|---:|---:|\n",
                h.name, h.count, h.sum
            );
            for (i, &n) in h.buckets.iter().enumerate() {
                match h.bounds.get(i) {
                    Some(b) => {
                        let _ = writeln!(md, "| {b} | {n} |");
                    }
                    None => {
                        let _ = writeln!(md, "| overflow | {n} |");
                    }
                }
            }
        }
        md
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::span::EVERY_KIND;

    #[test]
    fn counters_accumulate_independently() {
        let reg = MetricsRegistry::new();
        reg.incr(Counter::Attempts);
        reg.add(Counter::Attempts, 2);
        reg.incr(Counter::Retries);
        assert_eq!(reg.get(Counter::Attempts), 3);
        assert_eq!(reg.get(Counter::Retries), 1);
        assert_eq!(reg.get(Counter::Fallbacks), 0);
    }

    #[test]
    fn histogram_buckets_and_overflow() {
        let h = Histogram::new([1, 2, 4, 8, 16, 32, 64, 128]);
        for v in [0, 1, 2, 3, 200] {
            h.observe(v);
        }
        assert_eq!(h.count(), 5);
        assert_eq!(h.sum(), 206);
        let buckets = h.buckets();
        assert_eq!(buckets[0], 2, "0 and 1 land in the first bucket");
        assert_eq!(buckets[1], 1);
        assert_eq!(buckets[2], 1, "3 lands in the ≤4 bucket");
        assert_eq!(buckets[BUCKETS - 1], 1, "200 overflows");
    }

    #[test]
    fn empty_histogram_snapshots_and_exports_cleanly() {
        let reg = MetricsRegistry::new();
        let snap = reg.snapshot();
        for h in &snap.histograms {
            assert_eq!(h.count, 0);
            assert_eq!(h.sum, 0);
            assert_eq!(h.buckets, [0; BUCKETS]);
        }
        let md = snap.to_markdown();
        assert!(md.contains("`queue_wait` histogram (count 0, sum 0):"), "{md}");
        assert!(md.contains("`attempt_tokens` histogram (count 0, sum 0):"), "{md}");
        assert_eq!(md.matches("| overflow | 0 |").count(), 2, "{md}");
    }

    #[test]
    fn top_bucket_saturation_lands_in_overflow_without_wrapping() {
        let h = Histogram::new([1, 2, 4, 8, 16, 32, 64, 128]);
        h.observe(128);
        h.observe(129);
        h.observe(u64::MAX);
        let buckets = h.buckets();
        assert_eq!(buckets[BUCKETS - 2], 1, "exactly-on-bound stays finite");
        assert_eq!(buckets[BUCKETS - 1], 2, "above-bound saturates into overflow");
        assert_eq!(h.count(), 3);
        assert_eq!(
            h.sum(),
            128u64.wrapping_add(129).wrapping_add(u64::MAX),
            "sum wraps, by design"
        );
    }

    #[test]
    fn snapshots_are_deterministic_across_worker_interleavings() {
        // The same observation multiset must produce byte-identical
        // snapshots no matter how many mc-sync workers raced to record
        // it or how the scheduler interleaved them.
        let snapshot_with = |workers: usize| {
            let reg = MetricsRegistry::new();
            std::thread::scope(|scope| {
                for w in 0..workers {
                    let reg = &reg;
                    scope.spawn(move || {
                        for i in (w..240).step_by(workers) {
                            reg.queue_wait().observe((i as u64 % 6) * 30);
                            reg.incr(Counter::Attempts);
                            reg.record_span(&SpanEvent::open(i as u64, SpanKind::Quorum));
                        }
                    });
                }
            });
            reg.snapshot()
        };
        let reference = snapshot_with(1);
        for workers in [2, 3, 8] {
            assert_eq!(snapshot_with(workers), reference, "workers={workers}");
        }
    }

    #[test]
    fn span_routing_covers_every_kind() {
        let reg = MetricsRegistry::new();
        for kind in EVERY_KIND {
            reg.record_span(&SpanEvent::open(9, kind));
            reg.record_span(&SpanEvent::close(9, kind));
        }
        reg.record_span(&SpanEvent::open(10, SpanKind::Request));
        let snap = reg.snapshot();
        assert_eq!(snap.counter("span_opens"), SPAN_KINDS as u64 + 1);
        assert_eq!(snap.counter("span_closes"), SPAN_KINDS as u64);
        assert_eq!(reg.span_open_count(&SpanKind::Request), 2);
        assert_eq!(reg.span_open_count(&SpanKind::Session), 1);
        assert_eq!(snap.spans.len(), SPAN_KINDS);
        assert_eq!(snap.spans[0], ("request", 2));
        for (name, fact) in [("retries", 1), ("fallbacks", 1), ("context_joins", 1)] {
            assert_eq!(snap.counter(name), fact, "kinds whose close is the fact: {name}");
        }
        assert_eq!(snap.counter("attempts"), 0, "an attempt closed without attributes");
        assert_eq!(snap.counter("quorum_resolves"), 0, "a quorum closed without attributes");
    }

    #[test]
    fn close_attributes_route_to_counters_and_histograms() {
        let reg = MetricsRegistry::new();
        let close = |kind, attrs| reg.record_span(&SpanEvent::close(1, kind).with(attrs));
        let attempt = SpanKind::Attempt { sample: 0, attempt: 0 };
        close(
            attempt,
            Attrs::Attempt {
                outcome: AttemptClass::Valid,
                defects: 0,
                generated_tokens: 7,
                work_units: 70,
            },
        );
        close(SpanKind::ContextFit, Attrs::Fit { prompt_tokens: 11, work_units: 110 });
        close(SpanKind::Session, Attrs::Session { generated_tokens: 7, work_units: 70 });
        close(SpanKind::Quorum, Attrs::Quorum { valid: 0, required: 1, met: false });
        close(
            SpanKind::Defect { sample: 0, attempt: 0 },
            Attrs::Defect { class: DefectClass::Panicked, fatal: true },
        );
        close(SpanKind::QueueWait, Attrs::Wait { ticks: 5 });
        close(SpanKind::CacheLookup, Attrs::CacheHit);
        close(SpanKind::CacheLookup, Attrs::CacheMiss);
        close(SpanKind::CacheLookup, Attrs::CacheRefit { appended: 12, epoch: 1 });
        close(SpanKind::CacheEvict, Attrs::Evict { evictions: 3 });
        close(SpanKind::Breaker, Attrs::BreakerTrip { trips: 1 });
        close(SpanKind::Breaker, Attrs::BreakerClose { trips: 1 });
        close(SpanKind::Breaker, Attrs::BreakerReject);
        close(SpanKind::Backoff { sample: 0, attempt: 1 }, Attrs::Backoff { delay: 2 });
        close(SpanKind::Shed, Attrs::Shed { priority: 2 });
        close(SpanKind::Quota, Attrs::Quota { client: 3 });
        close(SpanKind::Join, Attrs::Join { ctx: 4 });
        for kind in [
            SpanKind::Retry { sample: 0, attempt: 1 },
            SpanKind::Fallback,
            SpanKind::PanicIsolated { sample: 0, attempt: 0 },
            SpanKind::Dedup,
            SpanKind::QueueFull,
        ] {
            close(kind, Attrs::None);
        }
        let snap = reg.snapshot();
        for (name, value) in [
            ("queue_waits", 1),
            ("fit_dedup_hits", 1),
            ("sessions", 1),
            ("session_tokens", 7),
            ("session_work", 70),
            ("context_fits", 1),
            ("context_joins", 1),
            ("prompt_tokens", 11),
            ("attempts", 1),
            ("attempts_valid", 1),
            ("generated_tokens", 7),
            ("work_units", 70),
            ("retries", 1),
            ("defects", 1),
            ("panics_isolated", 1),
            ("quorum_resolves", 1),
            ("quorum_failures", 1),
            ("fallbacks", 1),
            ("quota_rejections", 1),
            ("sheds", 1),
            ("backoffs", 1),
            ("queue_full_rejections", 1),
            ("breaker_trips", 1),
            ("breaker_closes", 1),
            ("breaker_rejections", 1),
            ("cache_hits", 1),
            ("cache_misses", 1),
            ("cache_refits", 1),
            ("cache_evictions", 3),
            ("span_opens", 0),
            ("span_closes", 22),
        ] {
            assert_eq!(snap.counter(name), value, "{name}");
        }
        assert_eq!(snap.defects[DefectClass::Panicked.index()], 1, "panic defect class");
        assert_eq!(reg.queue_wait().sum(), 5);
        assert_eq!(reg.attempt_tokens().sum(), 7);
    }

    #[test]
    fn registry_is_thread_safe() {
        let reg = MetricsRegistry::new();
        std::thread::scope(|scope| {
            for _ in 0..8 {
                let reg = &reg;
                scope.spawn(move || {
                    for _ in 0..1000 {
                        reg.incr(Counter::Attempts);
                        reg.add_defect(DefectClass::OutOfBandCode);
                        reg.queue_wait().observe(42);
                    }
                });
            }
        });
        assert_eq!(reg.get(Counter::Attempts), 8000);
        assert_eq!(reg.defect_count(DefectClass::OutOfBandCode), 8000);
        assert_eq!(reg.queue_wait().count(), 8000);
        assert_eq!(reg.queue_wait().sum(), 8000 * 42);
    }

    #[test]
    fn markdown_snapshot_names_every_counter_and_class() {
        let reg = MetricsRegistry::new();
        reg.incr(Counter::Fallbacks);
        let md = reg.snapshot().to_markdown();
        for c in Counter::ALL {
            assert!(md.contains(c.name()), "missing counter {}", c.name());
        }
        for class in DefectClass::ALL {
            assert!(md.contains(class.name()), "missing defect class {}", class.name());
        }
        for name in SpanKind::NAMES {
            assert!(md.contains(name), "missing span kind {name}");
        }
        assert!(md.contains("| fallbacks | 1 |"));
        assert!(md.contains("queue_wait"));
        assert!(md.contains("overflow"));
    }
}
