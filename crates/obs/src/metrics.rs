//! Atomic counters and fixed-bucket histograms.
//!
//! [`MetricsRegistry`] is the aggregate side of observability: where the
//! trace answers "what happened to request X", the registry answers "how
//! much of everything happened". It is built exclusively on
//! [`mc_sync::atomic`], so a `--cfg loom` build model-checks it exactly
//! like `mc-lm`'s `CostLedger` — lost increments would be found by the
//! loom suite, not production.
//!
//! Counters are a closed set ([`Counter`]) rather than string-keyed: the
//! registry never allocates, updates are single `fetch_add`s, and the
//! defect taxonomy gets one fixed slot per class
//! ([`DefectClass::index`]).
//!
//! [`MetricsRegistry::record_event`] is an exhaustive match over
//! [`EventKind`], and clippy's wildcard lints are denied in this file, so
//! a new event kind fails the build until it is routed here.

#![deny(clippy::wildcard_enum_match_arm, clippy::match_wildcard_for_single_variants)]

use mc_sync::atomic::{AtomicU64, Ordering};

use crate::event::{AttemptClass, DefectClass, EventKind, TraceEvent};
use crate::span::{SpanEvent, SpanKind, SpanPhase, SPAN_KINDS};

taxonomy! {
    /// Every counter the registry tracks.
    pub enum Counter {
        /// Events recorded (any kind).
        Events => "events",
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

    /// Folds one trace event into the counters and histograms. This is
    /// the single routing table from the event vocabulary to metrics;
    /// [`crate::record::Observer`] calls it for every recorded event.
    pub fn record_event(&self, event: &TraceEvent) {
        self.incr(Counter::Events);
        match event.kind {
            EventKind::QueueWait { ticks } => {
                self.incr(Counter::QueueWaits);
                self.queue_wait.observe(ticks);
            }
            EventKind::FitDedupHit => self.incr(Counter::DedupHits),
            EventKind::SessionCost { generated_tokens, work_units } => {
                self.incr(Counter::Sessions);
                self.add(Counter::SessionTokens, generated_tokens);
                self.add(Counter::SessionWork, work_units);
            }
            EventKind::ContextFit { prompt_tokens, work_units: _ } => {
                self.incr(Counter::ContextFits);
                self.add(Counter::PromptTokens, prompt_tokens);
            }
            EventKind::ContextJoin => self.incr(Counter::ContextJoins),
            EventKind::Attempt { outcome, generated_tokens, work_units, .. } => {
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
            EventKind::Retry { .. } => self.incr(Counter::Retries),
            EventKind::Defect { class, .. } => {
                self.incr(Counter::Defects);
                self.add_defect(class);
            }
            EventKind::PanicIsolated { .. } => self.incr(Counter::PanicsIsolated),
            EventKind::QuorumResolve { met, .. } => {
                self.incr(Counter::QuorumResolves);
                if !met {
                    self.incr(Counter::QuorumFailures);
                }
            }
            EventKind::Fallback => self.incr(Counter::Fallbacks),
            EventKind::QuotaExhausted { .. } => self.incr(Counter::QuotaRejections),
            EventKind::Shed { .. } => self.incr(Counter::Sheds),
            EventKind::Backoff { .. } => self.incr(Counter::Backoffs),
            EventKind::QueueFull => self.incr(Counter::QueueFullRejections),
            EventKind::BreakerTrip { .. } => self.incr(Counter::BreakerTrips),
            EventKind::BreakerClose { .. } => self.incr(Counter::BreakerCloses),
            EventKind::BreakerReject => self.incr(Counter::BreakerRejections),
            EventKind::CacheHit => self.incr(Counter::CacheHits),
            EventKind::CacheMiss => self.incr(Counter::CacheMisses),
            EventKind::CacheRefit { .. } => self.incr(Counter::CacheRefits),
            EventKind::CacheEvict { evictions } => {
                self.add(Counter::CacheEvictions, evictions);
            }
        }
    }

    /// Folds one span half into the counters: open/close totals plus a
    /// per-kind open count in the kind's [`SpanKind::index`] slot;
    /// [`crate::record::Observer`] calls it for every span.
    pub fn record_span(&self, span: &SpanEvent) {
        match span.phase {
            SpanPhase::Open => self.incr(Counter::SpanOpens),
            SpanPhase::Close => {
                self.incr(Counter::SpanCloses);
                return;
            }
        }
        self.span_opens[span.kind.index()].fetch_add(1, Ordering::Relaxed);
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
    fn event_routing_covers_every_kind() {
        let reg = MetricsRegistry::new();
        let ev = |kind| TraceEvent { req: 1, ctx: 2, kind };
        reg.record_event(&ev(EventKind::QueueWait { ticks: 5 }));
        reg.record_event(&ev(EventKind::FitDedupHit));
        reg.record_event(&ev(EventKind::SessionCost { generated_tokens: 7, work_units: 70 }));
        reg.record_event(&ev(EventKind::ContextFit { prompt_tokens: 11, work_units: 110 }));
        reg.record_event(&ev(EventKind::ContextJoin));
        reg.record_event(&ev(EventKind::Attempt {
            sample: 0,
            attempt: 0,
            outcome: AttemptClass::Valid,
            defects: 0,
            generated_tokens: 7,
            work_units: 70,
        }));
        reg.record_event(&ev(EventKind::Retry { sample: 0, attempt: 1 }));
        reg.record_event(&ev(EventKind::Defect {
            sample: 0,
            attempt: 0,
            class: DefectClass::Panicked,
            fatal: true,
        }));
        reg.record_event(&ev(EventKind::PanicIsolated { sample: 0, attempt: 0 }));
        reg.record_event(&ev(EventKind::QuorumResolve { valid: 0, required: 1, met: false }));
        reg.record_event(&ev(EventKind::Fallback));
        reg.record_event(&ev(EventKind::QuotaExhausted { client: 3 }));
        reg.record_event(&ev(EventKind::Shed { priority: 2 }));
        reg.record_event(&ev(EventKind::Backoff { sample: 0, attempt: 1, delay: 2 }));
        reg.record_event(&ev(EventKind::QueueFull));
        reg.record_event(&ev(EventKind::BreakerTrip { trips: 1 }));
        reg.record_event(&ev(EventKind::BreakerClose { trips: 1 }));
        reg.record_event(&ev(EventKind::BreakerReject));
        reg.record_event(&ev(EventKind::CacheHit));
        reg.record_event(&ev(EventKind::CacheMiss));
        reg.record_event(&ev(EventKind::CacheRefit { appended: 12, epoch: 1 }));
        reg.record_event(&ev(EventKind::CacheEvict { evictions: 3 }));
        let snap = reg.snapshot();
        assert_eq!(snap.counter("events"), 22);
        assert_eq!(snap.counter("queue_waits"), 1);
        assert_eq!(snap.counter("fit_dedup_hits"), 1);
        assert_eq!(snap.counter("sessions"), 1);
        assert_eq!(snap.counter("session_tokens"), 7);
        assert_eq!(snap.counter("prompt_tokens"), 11);
        assert_eq!(snap.counter("attempts"), 1);
        assert_eq!(snap.counter("attempts_valid"), 1);
        assert_eq!(snap.counter("generated_tokens"), 7);
        assert_eq!(snap.counter("retries"), 1);
        assert_eq!(snap.counter("defects"), 1);
        assert_eq!(snap.defects[DefectClass::Panicked.index()], 1, "panic defect class");
        assert_eq!(snap.counter("panics_isolated"), 1);
        assert_eq!(snap.counter("quorum_resolves"), 1);
        assert_eq!(snap.counter("quorum_failures"), 1);
        assert_eq!(snap.counter("fallbacks"), 1);
        assert_eq!(snap.counter("quota_rejections"), 1);
        assert_eq!(snap.counter("sheds"), 1);
        assert_eq!(snap.counter("backoffs"), 1);
        assert_eq!(snap.counter("queue_full_rejections"), 1);
        assert_eq!(snap.counter("breaker_trips"), 1);
        assert_eq!(snap.counter("breaker_closes"), 1);
        assert_eq!(snap.counter("breaker_rejections"), 1);
        assert_eq!(snap.counter("cache_hits"), 1);
        assert_eq!(snap.counter("cache_misses"), 1);
        assert_eq!(snap.counter("cache_refits"), 1);
        assert_eq!(snap.counter("cache_evictions"), 3);
        assert_eq!(reg.queue_wait().count(), 1);
        assert_eq!(reg.attempt_tokens().sum(), 7);
    }

    #[test]
    fn span_routing_covers_every_kind() {
        let reg = MetricsRegistry::new();
        let kinds = [
            SpanKind::Request,
            SpanKind::ContextFit,
            SpanKind::Attempt { sample: 0, attempt: 0 },
            SpanKind::Draw { sample: 0, attempt: 0 },
            SpanKind::Retry { sample: 0, attempt: 1 },
            SpanKind::Backoff { sample: 0, attempt: 1 },
            SpanKind::Quorum,
            SpanKind::Fallback,
            SpanKind::Shed,
            SpanKind::QueueWait,
            SpanKind::CacheLookup,
            SpanKind::Session,
        ];
        assert_eq!(kinds.len(), SPAN_KINDS);
        for kind in kinds {
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
        assert_eq!(snap.counter("events"), 0, "spans do not inflate the event counter");
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
