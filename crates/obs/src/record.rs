//! Recorders: where spans go.
//!
//! The serve path emits [`SpanEvent`] halves unconditionally through a
//! [`Recorder`]; what happens next is the recorder's business:
//!
//! - [`NoopRecorder`] — the default. `enabled()` is `false` and the span
//!   methods are empty bodies, so an un-instrumented serve pays a virtual
//!   call and nothing else: no clock reads, no locking, no allocation.
//! - [`Observer`] — the real sink. Stamps each span half with its
//!   [`Clock`] and a wall-clock sidecar, folds it into a
//!   [`MetricsRegistry`] and appends it to the one in-memory span buffer
//!   for JSONL export ([`crate::export`]) and analysis
//!   ([`crate::span::pair_spans`]).
//!
//! The buffer lock and the registry both live behind [`mc_sync`], so the
//! `--cfg loom` suite explores a recording observer like any other piece
//! of serve-path state.

use mc_sync::Mutex;

use crate::clock::{Clock, LogicalClock, WallClock};
use crate::export;
use crate::metrics::MetricsRegistry;
use crate::span::{SpanEvent, StampedSpan};

/// A sink for span halves. Implementations must be cheap when disabled:
/// emitters consult [`Recorder::enabled`] before doing any per-span work
/// beyond constructing the (Copy, allocation-free) span half itself.
pub trait Recorder: Send + Sync {
    /// Whether spans are actually being kept. Emitters may skip
    /// expensive enumeration (e.g. per-defect point spans) when `false`.
    fn enabled(&self) -> bool;

    /// A timestamp from the recorder's clock (0 for disabled recorders).
    /// Emitters use it to back-date retroactive opens and to measure
    /// duration attributes (`queue_wait` ticks).
    fn now(&self) -> u64;

    /// A wall-clock sidecar reading (elapsed nanos; 0 for recorders
    /// without one). Emitters capture this *before* a blocking section
    /// so a retroactive span open carries the true pre-wait stamp.
    fn wall(&self) -> u64 {
        0
    }

    /// Accepts one span half, stamping it with both clocks now. The
    /// default drops it.
    fn span(&self, _span: SpanEvent) {}

    /// Accepts one span half with caller-supplied stamps — the
    /// retroactive-open path (a worker that blocked on a queue reads
    /// `now()`/`wall()` before waiting and back-dates the `queue_wait`
    /// open to them once it knows the wait actually produced work) and
    /// the one-stamp point span ([`crate::span::point_span`]).
    fn span_at(&self, _span: SpanEvent, _t: u64, _wall: u64) {}
}

/// The default recorder: drops everything, costs nothing.
#[derive(Debug, Clone, Copy, Default)]
pub struct NoopRecorder;

impl Recorder for NoopRecorder {
    fn enabled(&self) -> bool {
        false
    }

    fn now(&self) -> u64 {
        0
    }
}

/// Which clock an [`Observer`] stamps with — and therefore which export
/// shape it produces (canonical vs emission-order; see [`crate::export`]).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ClockMode {
    /// Deterministic ticks; exports are canonical and byte-identical
    /// across schedules.
    Logical,
    /// Elapsed wall nanoseconds; exports keep emission order and real
    /// timestamps.
    Wall,
}

enum ClockSource {
    Logical(LogicalClock),
    Wall(WallClock),
}

/// A recording sink: one dual-clock-stamped span buffer plus the metrics
/// registry derived from it.
///
/// Every half carries two stamps: `t` from the observer's own clock (the
/// determinism contract) and `wall` from a sidecar [`WallClock`] started
/// at construction (real durations for humans; dropped from canonical
/// exports).
pub struct Observer {
    clock: ClockSource,
    sidecar: WallClock,
    spans: Mutex<Vec<StampedSpan>>,
    metrics: MetricsRegistry,
}

impl Observer {
    /// An observer on a fresh [`LogicalClock`] — the deterministic
    /// default for tests and trace comparison.
    pub fn logical() -> Self {
        Self::with_clock(ClockSource::Logical(LogicalClock::new()))
    }

    /// An observer on a [`WallClock`] started now — for live profiling;
    /// traces are *not* reproducible.
    pub fn wall() -> Self {
        Self::with_clock(ClockSource::Wall(WallClock::start()))
    }

    fn with_clock(clock: ClockSource) -> Self {
        Self {
            clock,
            sidecar: WallClock::start(),
            spans: Mutex::new(Vec::new()),
            metrics: MetricsRegistry::new(),
        }
    }

    /// Which clock this observer stamps with.
    pub fn mode(&self) -> ClockMode {
        match self.clock {
            ClockSource::Logical(_) => ClockMode::Logical,
            ClockSource::Wall(_) => ClockMode::Wall,
        }
    }

    /// The metrics registry every recorded span half is folded into.
    pub fn metrics(&self) -> &MetricsRegistry {
        &self.metrics
    }

    /// A copy of every span half recorded so far, in emission order.
    pub fn spans(&self) -> Vec<StampedSpan> {
        self.spans.lock().expect("span buffer lock").clone()
    }

    /// The span JSONL export: canonical (deterministic kinds, sorted by
    /// content key, re-stamped) in [`ClockMode::Logical`],
    /// emission-order with both stamps in [`ClockMode::Wall`]. See
    /// [`crate::export::spans_to_jsonl`].
    pub fn spans_to_jsonl(&self) -> String {
        export::spans_to_jsonl(&self.spans(), self.mode())
    }
}

impl Recorder for Observer {
    fn enabled(&self) -> bool {
        true
    }

    fn now(&self) -> u64 {
        match &self.clock {
            ClockSource::Logical(c) => c.now(),
            ClockSource::Wall(c) => c.now(),
        }
    }

    fn wall(&self) -> u64 {
        self.sidecar.now()
    }

    fn span(&self, span: SpanEvent) {
        let t = self.now();
        let wall = self.sidecar.now();
        self.span_at(span, t, wall);
    }

    fn span_at(&self, span: SpanEvent, t: u64, wall: u64) {
        self.metrics.record_span(&span);
        self.spans.lock().expect("span buffer lock").push(StampedSpan { t, wall, span });
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::attrs::Attrs;
    use crate::metrics::Counter;
    use crate::span::{point_span, SpanGuard, SpanKind, SpanPhase};

    #[test]
    fn noop_recorder_is_disabled_and_silent() {
        let noop = NoopRecorder;
        assert!(!noop.enabled());
        assert_eq!(noop.now(), 0);
        assert_eq!(noop.wall(), 0);
        point_span(&noop, 1, SpanKind::Fallback, Attrs::None);
        noop.span(SpanEvent::open(1, SpanKind::Request));
    }

    #[test]
    fn observer_stamps_buffers_and_derives_counters() {
        let obs = Observer::logical();
        assert!(obs.enabled());
        assert_eq!(obs.mode(), ClockMode::Logical);
        point_span(&obs, 1, SpanKind::Join, Attrs::Join { ctx: 9 });
        point_span(&obs, 2, SpanKind::Fallback, Attrs::None);
        let spans = obs.spans();
        assert_eq!(spans.len(), 4);
        assert!(spans[1].t < spans[2].t, "logical stamps are ordered");
        assert_eq!(obs.metrics().get(Counter::ContextJoins), 1);
        assert_eq!(obs.metrics().get(Counter::Fallbacks), 1);
        assert_eq!(obs.metrics().get(Counter::SpanCloses), 2);
    }

    #[test]
    fn concurrent_recording_loses_nothing() {
        let obs = Observer::logical();
        std::thread::scope(|scope| {
            for _ in 0..4 {
                let obs = &obs;
                scope.spawn(move || {
                    for i in 0..250 {
                        point_span(obs, i, SpanKind::Join, Attrs::Join { ctx: 0 });
                    }
                });
            }
        });
        let spans = obs.spans();
        assert_eq!(spans.len(), 2000);
        assert_eq!(obs.metrics().get(Counter::ContextJoins), 1000);
        let mut stamps: Vec<u64> = spans.iter().map(|s| s.t).collect();
        stamps.sort_unstable();
        stamps.dedup();
        assert_eq!(stamps.len(), 1000, "one stamp per point span, never shared across spans");
    }

    #[test]
    fn wall_observer_reports_wall_mode() {
        let obs = Observer::wall();
        assert_eq!(obs.mode(), ClockMode::Wall);
        point_span(&obs, 0, SpanKind::Fallback, Attrs::None);
        assert_eq!(obs.spans().len(), 2);
    }

    #[test]
    fn observer_dual_stamps_spans_and_counts_them() {
        let obs = Observer::logical();
        {
            let _req = SpanGuard::open(&obs, 7, SpanKind::Request);
            let _quorum = SpanGuard::open(&obs, 7, SpanKind::Quorum);
        }
        let spans = obs.spans();
        assert_eq!(spans.len(), 4, "two opens, two closes");
        assert_eq!(spans[0].span.phase, SpanPhase::Open);
        assert_eq!(spans[3].span.phase, SpanPhase::Close);
        assert_eq!(spans[3].span.kind, SpanKind::Request, "guards close in reverse order");
        assert!(spans[0].t < spans[3].t, "logical stamps are ordered");
        assert!(spans[0].wall <= spans[3].wall, "wall sidecar is monotone");
        assert_eq!(obs.metrics().get(Counter::SpanOpens), 2);
        assert_eq!(obs.metrics().get(Counter::SpanCloses), 2);
        assert_eq!(
            obs.metrics().get(Counter::QuorumResolves),
            0,
            "a quorum dropped without its attributes is not a fact"
        );
    }

    #[test]
    fn span_at_backdates_the_open_half() {
        let obs = Observer::logical();
        let (t0, w0) = (obs.now(), obs.wall());
        let id = crate::fingerprint::mix(t0, 0x51);
        obs.span_at(SpanEvent::open_with_id(id, 0, SpanKind::QueueWait), t0, w0);
        obs.span(SpanEvent::close_with_id(id, 0, SpanKind::QueueWait));
        let spans = obs.spans();
        assert_eq!(spans[0].t, t0, "open carries the pre-wait stamp");
        assert!(spans[1].t > t0);
    }
}
