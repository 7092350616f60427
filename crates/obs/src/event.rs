//! The trace-event vocabulary of the serve path.
//!
//! [`TraceEvent`] is `Copy` and carries numeric payloads only — no
//! strings, no heap — so constructing one for a disabled
//! [`Recorder`](crate::record::Recorder) is free and the hot path stays
//! allocation-free when telemetry is off.
//!
//! Events split into two determinism classes (see
//! [`EventKind::deterministic`]):
//!
//! - **Request-scoped** events (`quota_exhausted`, `shed`, `context_fit`,
//!   `context_join`, `attempt`, `retry`, `defect`, `panic_isolated`,
//!   `backoff`, `quorum_resolve`, `fallback`) depend only on request
//!   content and seeds. Their multiset is invariant to worker count and
//!   submission order, so they form the canonical trace — admission
//!   decisions (quota, priority shedding) are made in canonical request
//!   order precisely so these events qualify.
//! - **Scheduler-scoped** events (`queue_wait`, `fit_dedup_hit`,
//!   `session_cost`, `queue_full`, `breaker_trip`, `breaker_close`,
//!   `breaker_reject`, `cache_hit`, `cache_miss`, `cache_refit`,
//!   `cache_evict`) depend on which worker ran first or which request
//!   happened to arrive ahead of its twin (queue-full rejection depends
//!   on submission order; breaker transitions on outcome arrival; cache
//!   outcomes on which flush ran first against a shared handle). They
//!   feed the metrics registry and the wall-clock (emission-order)
//!   export only.
//!
//! The module also owns [`DefectClass`], the sample-defect taxonomy:
//! `defect` events carry it, the metrics registry counts it per class,
//! and `multicast-core` re-exports it for its defect reports.

taxonomy! {
    /// Payload-free kind of a sample defect, for counting and reporting.
    ///
    /// `multicast-core` classifies each decoded continuation's defects
    /// into these classes and re-exports the type; the metrics registry
    /// keeps one counter slot per class ([`DefectClass::index`]).
    pub enum DefectClass {
        /// Generation stopped before emitting every separator.
        Truncated => "truncated",
        /// A group's character count differs from the serialization width
        /// (repaired in place by the lenient demultiplexer).
        WrongGroupWidth => "wrong-width",
        /// A group of a digit-serialized stream contains non-digit
        /// characters.
        NonNumericGroup => "non-numeric",
        /// A symbol outside the permitted output alphabet (SAX streams).
        OutOfBandCode => "out-of-band",
        /// A decoded value is NaN or infinite after descaling.
        NonFinite => "non-finite",
        /// The decoded sample does not have the `dims x horizon` shape.
        ShapeMismatch => "shape",
        /// The sample's draw or decode panicked and was isolated.
        Panicked => "panic",
        /// The sample's deadline budget ran out before a draw could start.
        DeadlineExpired => "deadline",
    }
}

/// How one `(sample, attempt)` draw ended.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum AttemptClass {
    /// Decoded cleanly (possibly with repaired, non-fatal defects).
    Valid,
    /// Completed but fatally defective — the sample retries or settles
    /// invalid.
    Defective,
    /// An infrastructure error failed the whole run.
    Infra,
    /// The draw or decode panicked and was isolated.
    Panicked,
}

impl AttemptClass {
    /// Stable name for exports.
    pub fn name(self) -> &'static str {
        match self {
            AttemptClass::Valid => "valid",
            AttemptClass::Defective => "defective",
            AttemptClass::Infra => "infra",
            AttemptClass::Panicked => "panicked",
        }
    }
}

/// One serve-path happening, with its numeric payload.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum EventKind {
    /// A worker dequeued a task after waiting `ticks` clock units
    /// (scheduler-scoped: wait lengths depend on the schedule).
    QueueWait {
        /// Clock delta around the blocking dequeue.
        ticks: u64,
    },
    /// A request's codec fit resolved to an already-fitted frozen context
    /// (scheduler-scoped: which twin fitted first depends on submission
    /// order).
    FitDedupHit,
    /// A forked decode session completed and recorded its cost inside the
    /// model boundary (scheduler-scoped: drop order is racy).
    SessionCost {
        /// Tokens the session generated.
        generated_tokens: u64,
        /// Abstract work units the session consumed.
        work_units: u64,
    },
    /// A frozen context was fitted (prompt conditioned) for the first
    /// time.
    ContextFit {
        /// One-time prompt-conditioning token cost.
        prompt_tokens: u64,
        /// One-time prompt-conditioning work.
        work_units: u64,
    },
    /// A request resolved to (joined) a frozen context.
    ContextJoin,
    /// One `(sample, attempt)` draw completed.
    Attempt {
        /// Sample slot index.
        sample: u32,
        /// Attempt number (0 = first try).
        attempt: u32,
        /// How the draw ended.
        outcome: AttemptClass,
        /// Defects observed on this attempt.
        defects: u32,
        /// Generated-token cost (0 for panicked/infra attempts).
        generated_tokens: u64,
        /// Work-unit cost (0 for panicked/infra attempts).
        work_units: u64,
    },
    /// A fatally-defective sample was re-queued for another attempt.
    Retry {
        /// Sample slot index.
        sample: u32,
        /// The attempt number the retry will run as.
        attempt: u32,
    },
    /// One defect observed on an attempt.
    Defect {
        /// Sample slot index.
        sample: u32,
        /// Attempt number.
        attempt: u32,
        /// The defect's class (exported as [`DefectClass::index`]).
        class: DefectClass,
        /// Whether the defect invalidates the sample.
        fatal: bool,
    },
    /// A panicking attempt was caught and converted to a defect.
    PanicIsolated {
        /// Sample slot index.
        sample: u32,
        /// Attempt number.
        attempt: u32,
    },
    /// A request's quorum was checked at finalization.
    QuorumResolve {
        /// Valid samples that survived.
        valid: u32,
        /// Samples the policy required.
        required: u32,
        /// Whether the quorum was met.
        met: bool,
    },
    /// The quorum failed and the classical fallback produced the
    /// forecast.
    Fallback,
    /// A request was rejected at admission because its client's quota
    /// was already exhausted (deterministic: quotas are settled at batch
    /// boundaries and checked in canonical request order).
    QuotaExhausted {
        /// The client id whose quota ran out.
        client: u32,
    },
    /// A request was shed at admission: the batch exceeded the queue
    /// capacity and this request lost the (priority, fingerprint)
    /// ordering (deterministic: the ordering is content-based).
    Shed {
        /// The shed request's priority class (0 = highest).
        priority: u8,
    },
    /// A fatally-defective sample's retry was deferred by the bounded
    /// exponential backoff before re-queueing.
    Backoff {
        /// Sample slot index.
        sample: u32,
        /// The attempt number the retry will run as.
        attempt: u32,
        /// Logical dispatch delay applied (base · 2^(attempt−1), bounded).
        delay: u32,
    },
    /// A submission bounced off the handle's hard submission cap
    /// (scheduler-scoped: which submission arrives over the cap depends
    /// on submission order).
    QueueFull,
    /// A backend circuit breaker tripped open (scheduler-scoped: the
    /// trip is settled from racy per-attempt records).
    BreakerTrip {
        /// Monotone trip count after this transition.
        trips: u32,
    },
    /// A backend circuit breaker closed again after a clean probe batch.
    BreakerClose {
        /// Monotone trip count (unchanged by closing).
        trips: u32,
    },
    /// A request was rejected at admission because its backend's breaker
    /// was open.
    BreakerReject,
    /// A batch's context fit resolved to a frozen context cached by an
    /// earlier flush (scheduler-scoped: warmth depends on flush history,
    /// not request content).
    CacheHit,
    /// The cross-batch cache had no reusable context and a from-scratch
    /// fit was paid (scheduler-scoped: the first flush misses, reruns
    /// hit).
    CacheMiss,
    /// A cached context was delta-updated in place to cover a longer
    /// prompt instead of refitting from scratch.
    CacheRefit {
        /// Tokens appended by the incremental refit.
        appended: u64,
        /// The context's refit epoch after this delta (monotone).
        epoch: u64,
    },
    /// Unpinned contexts were evicted to make room for an insertion.
    CacheEvict {
        /// Entries evicted by this insertion.
        evictions: u64,
    },
}

impl EventKind {
    /// Stable snake_case name for exports and metrics.
    pub fn name(&self) -> &'static str {
        match self {
            EventKind::QueueWait { .. } => "queue_wait",
            EventKind::FitDedupHit => "fit_dedup_hit",
            EventKind::SessionCost { .. } => "session_cost",
            EventKind::ContextFit { .. } => "context_fit",
            EventKind::ContextJoin => "context_join",
            EventKind::Attempt { .. } => "attempt",
            EventKind::Retry { .. } => "retry",
            EventKind::Defect { .. } => "defect",
            EventKind::PanicIsolated { .. } => "panic_isolated",
            EventKind::QuorumResolve { .. } => "quorum_resolve",
            EventKind::Fallback => "fallback",
            EventKind::QuotaExhausted { .. } => "quota_exhausted",
            EventKind::Shed { .. } => "shed",
            EventKind::Backoff { .. } => "backoff",
            EventKind::QueueFull => "queue_full",
            EventKind::BreakerTrip { .. } => "breaker_trip",
            EventKind::BreakerClose { .. } => "breaker_close",
            EventKind::BreakerReject => "breaker_reject",
            EventKind::CacheHit => "cache_hit",
            EventKind::CacheMiss => "cache_miss",
            EventKind::CacheRefit { .. } => "cache_refit",
            EventKind::CacheEvict { .. } => "cache_evict",
        }
    }

    /// Whether the event's content is invariant to worker count and
    /// submission order (given identical seeds and request content).
    /// Deterministic events form the canonical trace; the rest feed
    /// metrics and wall-clock exports only.
    pub fn deterministic(&self) -> bool {
        self.rank() != u8::MAX
    }

    /// Ordering rank used by the canonical export so a request's events
    /// read in pipeline order: admission, fit, join, then per-sample
    /// attempts. Scheduler-scoped kinds rank `u8::MAX`, which is what
    /// [`EventKind::deterministic`] reads.
    pub fn rank(&self) -> u8 {
        match self {
            EventKind::QuotaExhausted { .. } => 0,
            EventKind::Shed { .. } => 1,
            EventKind::ContextFit { .. } => 2,
            EventKind::ContextJoin => 3,
            EventKind::Defect { .. } => 4,
            EventKind::PanicIsolated { .. } => 5,
            EventKind::Attempt { .. } => 6,
            EventKind::Retry { .. } => 7,
            EventKind::Backoff { .. } => 8,
            EventKind::QuorumResolve { .. } => 9,
            EventKind::Fallback => 10,
            EventKind::QueueWait { .. }
            | EventKind::FitDedupHit
            | EventKind::SessionCost { .. }
            | EventKind::QueueFull
            | EventKind::BreakerTrip { .. }
            | EventKind::BreakerClose { .. }
            | EventKind::BreakerReject
            | EventKind::CacheHit
            | EventKind::CacheMiss
            | EventKind::CacheRefit { .. }
            | EventKind::CacheEvict { .. } => u8::MAX,
        }
    }

    /// `(sample, attempt)` coordinates, when the event has them.
    pub fn coords(&self) -> (u32, u32) {
        match *self {
            EventKind::Attempt { sample, attempt, .. }
            | EventKind::Retry { sample, attempt }
            | EventKind::Defect { sample, attempt, .. }
            | EventKind::PanicIsolated { sample, attempt }
            | EventKind::Backoff { sample, attempt, .. } => (sample, attempt),
            _ => (0, 0),
        }
    }
}

/// One recorded event: which request, which frozen context, what
/// happened. `req` and `ctx` are content fingerprints
/// ([`crate::fingerprint`]); zero means "not scoped to one".
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct TraceEvent {
    /// Content fingerprint of the request (0 = not request-scoped).
    pub req: u64,
    /// Content fingerprint of the frozen context (0 = not context-scoped).
    pub ctx: u64,
    /// What happened.
    pub kind: EventKind,
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn scheduler_scoped_kinds_are_not_deterministic() {
        assert!(!EventKind::QueueWait { ticks: 3 }.deterministic());
        assert!(!EventKind::FitDedupHit.deterministic());
        assert!(!EventKind::SessionCost { generated_tokens: 1, work_units: 2 }.deterministic());
        assert!(!EventKind::QueueFull.deterministic());
        assert!(!EventKind::BreakerTrip { trips: 1 }.deterministic());
        assert!(!EventKind::BreakerClose { trips: 1 }.deterministic());
        assert!(!EventKind::BreakerReject.deterministic());
        assert!(!EventKind::CacheHit.deterministic());
        assert!(!EventKind::CacheMiss.deterministic());
        assert!(!EventKind::CacheRefit { appended: 4, epoch: 1 }.deterministic());
        assert!(!EventKind::CacheEvict { evictions: 1 }.deterministic());
        assert!(EventKind::ContextFit { prompt_tokens: 1, work_units: 2 }.deterministic());
        assert!(EventKind::Fallback.deterministic());
        assert!(EventKind::QuorumResolve { valid: 1, required: 1, met: true }.deterministic());
        assert!(EventKind::QuotaExhausted { client: 3 }.deterministic());
        assert!(EventKind::Shed { priority: 1 }.deterministic());
        assert!(EventKind::Backoff { sample: 0, attempt: 1, delay: 2 }.deterministic());
    }

    #[test]
    fn ranks_order_the_pipeline_stages() {
        let fit = EventKind::ContextFit { prompt_tokens: 0, work_units: 0 };
        let attempt = EventKind::Attempt {
            sample: 0,
            attempt: 0,
            outcome: AttemptClass::Valid,
            defects: 0,
            generated_tokens: 0,
            work_units: 0,
        };
        assert!(
            EventKind::QuotaExhausted { client: 0 }.rank() < EventKind::Shed { priority: 0 }.rank()
        );
        assert!(EventKind::Shed { priority: 0 }.rank() < fit.rank());
        assert!(fit.rank() < EventKind::ContextJoin.rank());
        assert!(EventKind::ContextJoin.rank() < attempt.rank());
        assert!(attempt.rank() < EventKind::Backoff { sample: 0, attempt: 1, delay: 1 }.rank());
        assert!(attempt.rank() < EventKind::Fallback.rank());
    }

    #[test]
    fn backoff_carries_sample_coordinates() {
        assert_eq!(EventKind::Backoff { sample: 3, attempt: 2, delay: 4 }.coords(), (3, 2));
        assert_eq!(EventKind::Shed { priority: 1 }.coords(), (0, 0));
    }

    #[test]
    fn events_are_copy_and_small() {
        // The no-op hot path builds events unconditionally; keep them
        // register-sized, not boxed.
        let e = TraceEvent { req: 1, ctx: 2, kind: EventKind::Fallback };
        let f = e; // Copy
        assert_eq!(e, f);
        assert!(std::mem::size_of::<TraceEvent>() <= 64);
    }
}
