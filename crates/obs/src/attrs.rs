//! Span attributes: the numeric facts a span carries.
//!
//! A span records that something took time; its [`Attrs`] record what
//! that something *was* — how an attempt ended and what it cost, whether
//! a quorum was met, which context a request joined. Following the
//! OpenTelemetry trace model, an instantaneous fact is a zero-width point
//! span with attributes, and a fact about an interval is carried by the
//! interval's close half. Counters and histograms are derived from these
//! attributes ([`crate::metrics::MetricsRegistry::record_span`]); nothing
//! else feeds them.
//!
//! [`Attrs`] is `Copy` and holds numbers only — no strings, no heap — so
//! building one for a disabled [`Recorder`](crate::record::Recorder) is
//! free and the hot path stays allocation-free when telemetry is off.
//!
//! The module also owns [`DefectClass`], the sample-defect taxonomy:
//! `defect` spans carry it, the metrics registry counts it per class, and
//! `multicast-core` re-exports it for its defect reports.

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

/// The facts one span half carries. Open halves carry [`Attrs::None`];
/// the variant on a close half is fixed by the span's kind (see
/// [`crate::span::SpanKind`]).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum Attrs {
    /// No facts (open halves, and kinds whose existence is the fact).
    #[default]
    None,
    /// `attempt` close: how the draw ended and what it cost.
    Attempt {
        /// How the draw ended.
        outcome: AttemptClass,
        /// Defects observed on this attempt.
        defects: u32,
        /// Generated-token cost (0 for panicked/infra attempts).
        generated_tokens: u64,
        /// Work-unit cost (0 for panicked/infra attempts).
        work_units: u64,
    },
    /// `context_fit` close: the one-time prompt-conditioning cost.
    Fit {
        /// Prompt tokens conditioned.
        prompt_tokens: u64,
        /// Prompt-conditioning work.
        work_units: u64,
    },
    /// `session` close: what the forked decode session consumed, metered
    /// inside the model boundary.
    Session {
        /// Tokens the session generated.
        generated_tokens: u64,
        /// Work units the session consumed.
        work_units: u64,
    },
    /// `quorum` close: the finalization check.
    Quorum {
        /// Valid samples that survived.
        valid: u32,
        /// Samples the policy required.
        required: u32,
        /// Whether the quorum was met.
        met: bool,
    },
    /// `backoff` point: the logical dispatch delay applied
    /// (base · 2^(attempt−1), bounded).
    Backoff {
        /// Delay in dispatch rounds.
        delay: u32,
    },
    /// `shed` point: the shed request's priority class (0 = highest).
    Shed {
        /// Priority rank.
        priority: u8,
    },
    /// `defect` point: one defect observed on an attempt.
    Defect {
        /// The defect's class (exported as [`DefectClass::index`]).
        class: DefectClass,
        /// Whether the defect invalidates the sample.
        fatal: bool,
    },
    /// `join` point: the frozen context a request resolved to — the
    /// request → `context_fit` link.
    Join {
        /// The context fingerprint (the `context_fit` span's scope).
        ctx: u64,
    },
    /// `quota` point: the client whose exhausted quota rejected the
    /// request.
    Quota {
        /// Client id.
        client: u32,
    },
    /// `queue_wait` close: the clock delta spent inside the blocking
    /// dequeue.
    Wait {
        /// Observer-clock units waited.
        ticks: u64,
    },
    /// `cache_lookup` close: an earlier flush's context was reused as is.
    CacheHit,
    /// `cache_lookup` close: nothing reusable; a from-scratch fit follows.
    CacheMiss,
    /// `cache_lookup` close: a cached context was delta-updated in place
    /// to cover a longer prompt.
    CacheRefit {
        /// Tokens appended by the incremental refit.
        appended: u64,
        /// The context's refit epoch after this delta (monotone).
        epoch: u64,
    },
    /// `cache_evict` point: unpinned contexts evicted for an insertion.
    Evict {
        /// Entries evicted.
        evictions: u64,
    },
    /// `breaker` point: a backend circuit breaker tripped open.
    BreakerTrip {
        /// Monotone trip count after this transition.
        trips: u32,
    },
    /// `breaker` point: a backend circuit breaker closed again.
    BreakerClose {
        /// Monotone trip count (unchanged by closing).
        trips: u32,
    },
    /// `breaker` point: a request was rejected while its breaker was open.
    BreakerReject,
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn attrs_are_copy_and_small() {
        // Emitters build attributes unconditionally; keep them
        // register-sized, not boxed.
        let a = Attrs::Join { ctx: 7 };
        let b = a; // Copy
        assert_eq!(a, b);
        assert_eq!(Attrs::default(), Attrs::None);
        assert!(std::mem::size_of::<Attrs>() <= 32);
    }
}
