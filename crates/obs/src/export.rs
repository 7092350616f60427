//! JSONL trace export.
//!
//! One event per line, hand-rolled (no `serde` — the workspace is
//! dependency-free by policy). Two shapes, keyed by the observer's
//! [`ClockMode`]:
//!
//! - **Canonical** ([`ClockMode::Logical`]) — the determinism contract.
//!   Scheduler-scoped events are dropped (their multiset depends on the
//!   schedule), the rest are sorted by `(request fingerprint, context
//!   fingerprint, pipeline rank, sample, attempt)`, and `t` is
//!   re-stamped as the canonical index. Given identical seeds, the
//!   result is byte-identical across worker counts and submission
//!   orders.
//! - **Emission order** ([`ClockMode::Wall`]) — every event, in the
//!   order the buffer received them, with real elapsed-nanosecond
//!   timestamps. For humans profiling a live run.
//!
//! `body` and `span_body` are exhaustive matches over [`EventKind`] and
//! [`SpanKind`](crate::span::SpanKind), and clippy's wildcard lints are
//! denied in this file, so a new kind fails the build until it has an
//! export arm.

#![deny(clippy::wildcard_enum_match_arm, clippy::match_wildcard_for_single_variants)]

use std::fmt::Write;

use crate::event::{EventKind, TraceEvent};
use crate::record::{ClockMode, Stamped};
use crate::span::{SpanEvent, SpanPhase, StampedSpan};

/// Renders buffered events as JSONL in the given mode.
pub fn to_jsonl(events: &[Stamped], mode: ClockMode) -> String {
    match mode {
        ClockMode::Logical => canonical(events),
        ClockMode::Wall => emission_order(events),
    }
}

fn canonical(events: &[Stamped]) -> String {
    let mut rows: Vec<(u64, u64, u8, u32, u32, String)> = events
        .iter()
        .filter(|s| s.event.kind.deterministic())
        .map(|s| {
            let (sample, attempt) = s.event.kind.coords();
            (s.event.req, s.event.ctx, s.event.kind.rank(), sample, attempt, body(&s.event))
        })
        .collect();
    rows.sort();
    let mut out = String::new();
    for (i, (.., line)) in rows.iter().enumerate() {
        let _ = writeln!(out, "{{\"t\":{i},{line}}}");
    }
    out
}

fn emission_order(events: &[Stamped]) -> String {
    let mut out = String::new();
    for s in events {
        let _ = writeln!(out, "{{\"t\":{},{}}}", s.t, body(&s.event));
    }
    out
}

/// The event's JSON fields after `t` (no surrounding braces).
fn body(event: &TraceEvent) -> String {
    let mut s = String::with_capacity(96);
    let _ = write!(
        s,
        "\"req\":\"{:016x}\",\"ctx\":\"{:016x}\",\"kind\":\"{}\"",
        event.req,
        event.ctx,
        event.kind.name()
    );
    match event.kind {
        EventKind::QueueWait { ticks } => {
            let _ = write!(s, ",\"ticks\":{ticks}");
        }
        EventKind::FitDedupHit | EventKind::ContextJoin | EventKind::Fallback => {}
        EventKind::SessionCost { generated_tokens, work_units } => {
            let _ =
                write!(s, ",\"generated_tokens\":{generated_tokens},\"work_units\":{work_units}");
        }
        EventKind::ContextFit { prompt_tokens, work_units } => {
            let _ = write!(s, ",\"prompt_tokens\":{prompt_tokens},\"work_units\":{work_units}");
        }
        EventKind::Attempt { sample, attempt, outcome, defects, generated_tokens, work_units } => {
            let _ = write!(
                s,
                ",\"sample\":{sample},\"attempt\":{attempt},\"outcome\":\"{}\",\"defects\":{defects},\"generated_tokens\":{generated_tokens},\"work_units\":{work_units}",
                outcome.name()
            );
        }
        EventKind::Retry { sample, attempt } => {
            let _ = write!(s, ",\"sample\":{sample},\"attempt\":{attempt}");
        }
        EventKind::Defect { sample, attempt, class, fatal } => {
            let _ = write!(
                s,
                ",\"sample\":{sample},\"attempt\":{attempt},\"class\":{},\"fatal\":{fatal}",
                class.index()
            );
        }
        EventKind::PanicIsolated { sample, attempt } => {
            let _ = write!(s, ",\"sample\":{sample},\"attempt\":{attempt}");
        }
        EventKind::QuorumResolve { valid, required, met } => {
            let _ = write!(s, ",\"valid\":{valid},\"required\":{required},\"met\":{met}");
        }
        EventKind::QuotaExhausted { client } => {
            let _ = write!(s, ",\"client\":{client}");
        }
        EventKind::Shed { priority } => {
            let _ = write!(s, ",\"priority\":{priority}");
        }
        EventKind::Backoff { sample, attempt, delay } => {
            let _ = write!(s, ",\"sample\":{sample},\"attempt\":{attempt},\"delay\":{delay}");
        }
        EventKind::QueueFull | EventKind::BreakerReject => {}
        EventKind::BreakerTrip { trips } | EventKind::BreakerClose { trips } => {
            let _ = write!(s, ",\"trips\":{trips}");
        }
        EventKind::CacheHit | EventKind::CacheMiss => {}
        EventKind::CacheRefit { appended, epoch } => {
            let _ = write!(s, ",\"appended\":{appended},\"epoch\":{epoch}");
        }
        EventKind::CacheEvict { evictions } => {
            let _ = write!(s, ",\"evictions\":{evictions}");
        }
    }
    s
}

/// Renders buffered span halves as JSONL in the given mode.
///
/// - **Canonical** ([`ClockMode::Logical`]) — scheduler-scoped kinds are
///   dropped, the rest are sorted by `(scope fingerprint, pipeline rank,
///   sample, attempt, phase, id)` and `t` is re-stamped as the canonical
///   index; the wall sidecar stamp is omitted. Deterministic span ids
///   are pure content functions ([`crate::span::span_id`]), so the
///   result is byte-identical across worker counts and submission
///   orders.
/// - **Emission order** ([`ClockMode::Wall`]) — every half, in buffer
///   order, with both stamps (`t` and `wall`).
pub fn spans_to_jsonl(spans: &[StampedSpan], mode: ClockMode) -> String {
    match mode {
        ClockMode::Logical => canonical_spans(spans),
        ClockMode::Wall => emission_order_spans(spans),
    }
}

fn canonical_spans(spans: &[StampedSpan]) -> String {
    let mut rows: Vec<(u64, u8, u32, u32, u8, u64, String)> = spans
        .iter()
        .filter(|s| s.span.kind.deterministic())
        .map(|s| {
            let (sample, attempt) = s.span.kind.coords();
            let phase = match s.span.phase {
                SpanPhase::Open => 0,
                SpanPhase::Close => 1,
            };
            (s.span.req, s.span.kind.rank(), sample, attempt, phase, s.span.id, span_body(&s.span))
        })
        .collect();
    rows.sort();
    let mut out = String::new();
    for (i, (.., line)) in rows.iter().enumerate() {
        let _ = writeln!(out, "{{\"t\":{i},{line}}}");
    }
    out
}

fn emission_order_spans(spans: &[StampedSpan]) -> String {
    let mut out = String::new();
    for s in spans {
        let _ = writeln!(out, "{{\"t\":{},\"wall\":{},{}}}", s.t, s.wall, span_body(&s.span));
    }
    out
}

/// The span's JSON fields after the stamps (no surrounding braces).
fn span_body(span: &SpanEvent) -> String {
    use crate::span::SpanKind;
    let mut s = String::with_capacity(128);
    let _ = write!(
        s,
        "\"id\":\"{:016x}\",\"parent\":\"{:016x}\",\"req\":\"{:016x}\",\"kind\":\"{}\",\"phase\":\"{}\"",
        span.id,
        span.parent,
        span.req,
        span.kind.name(),
        span.phase.name()
    );
    match span.kind {
        SpanKind::Request
        | SpanKind::ContextFit
        | SpanKind::Quorum
        | SpanKind::Fallback
        | SpanKind::Shed
        | SpanKind::QueueWait
        | SpanKind::CacheLookup
        | SpanKind::Session => {}
        SpanKind::Attempt { sample, attempt }
        | SpanKind::Draw { sample, attempt }
        | SpanKind::Retry { sample, attempt }
        | SpanKind::Backoff { sample, attempt } => {
            let _ = write!(s, ",\"sample\":{sample},\"attempt\":{attempt}");
        }
    }
    s
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::event::{AttemptClass, DefectClass};

    fn stamped(t: u64, req: u64, kind: EventKind) -> Stamped {
        Stamped { t, event: TraceEvent { req, ctx: 7, kind } }
    }

    #[test]
    fn canonical_drops_scheduler_scoped_events_and_restamps() {
        let events = vec![
            stamped(5, 2, EventKind::QueueWait { ticks: 3 }),
            stamped(9, 2, EventKind::ContextJoin),
            stamped(1, 1, EventKind::ContextJoin),
            stamped(3, 1, EventKind::FitDedupHit),
        ];
        let jsonl = to_jsonl(&events, ClockMode::Logical);
        let lines: Vec<&str> = jsonl.lines().collect();
        assert_eq!(lines.len(), 2, "queue_wait and dedup hit are excluded");
        assert!(lines[0].starts_with("{\"t\":0,"));
        assert!(lines[1].starts_with("{\"t\":1,"));
        assert!(lines[0].contains("\"req\":\"0000000000000001\""), "sorted by fingerprint");
        assert!(lines[1].contains("\"req\":\"0000000000000002\""));
    }

    #[test]
    fn canonical_is_invariant_to_emission_order() {
        let attempt = |sample, attempt| EventKind::Attempt {
            sample,
            attempt,
            outcome: AttemptClass::Valid,
            defects: 0,
            generated_tokens: 12,
            work_units: 44,
        };
        let a = vec![
            stamped(0, 1, attempt(0, 0)),
            stamped(1, 1, attempt(1, 0)),
            stamped(2, 2, EventKind::QuorumResolve { valid: 2, required: 1, met: true }),
        ];
        let mut b = a.clone();
        b.reverse();
        // Different stamps too — canonical export must not care.
        for (i, s) in b.iter_mut().enumerate() {
            s.t = 100 + i as u64;
        }
        assert_eq!(to_jsonl(&a, ClockMode::Logical), to_jsonl(&b, ClockMode::Logical));
    }

    #[test]
    fn emission_order_keeps_everything_with_real_stamps() {
        let events = vec![
            stamped(17, 1, EventKind::QueueWait { ticks: 3 }),
            stamped(29, 1, EventKind::SessionCost { generated_tokens: 5, work_units: 9 }),
        ];
        let jsonl = to_jsonl(&events, ClockMode::Wall);
        let lines: Vec<&str> = jsonl.lines().collect();
        assert_eq!(lines.len(), 2);
        assert!(lines[0].contains("\"t\":17"));
        assert!(lines[0].contains("\"ticks\":3"));
        assert!(lines[1].contains("\"t\":29"));
        assert!(lines[1].contains("\"generated_tokens\":5"));
    }

    #[test]
    fn every_kind_renders_its_payload() {
        let kinds = [
            EventKind::QueueWait { ticks: 1 },
            EventKind::FitDedupHit,
            EventKind::SessionCost { generated_tokens: 2, work_units: 3 },
            EventKind::ContextFit { prompt_tokens: 4, work_units: 5 },
            EventKind::ContextJoin,
            EventKind::Attempt {
                sample: 1,
                attempt: 2,
                outcome: AttemptClass::Defective,
                defects: 3,
                generated_tokens: 6,
                work_units: 7,
            },
            EventKind::Retry { sample: 1, attempt: 2 },
            EventKind::Defect { sample: 1, attempt: 2, class: DefectClass::NonFinite, fatal: true },
            EventKind::PanicIsolated { sample: 1, attempt: 2 },
            EventKind::QuorumResolve { valid: 1, required: 2, met: false },
            EventKind::Fallback,
            EventKind::QuotaExhausted { client: 4 },
            EventKind::Shed { priority: 1 },
            EventKind::Backoff { sample: 1, attempt: 2, delay: 4 },
            EventKind::QueueFull,
            EventKind::BreakerTrip { trips: 1 },
            EventKind::BreakerClose { trips: 1 },
            EventKind::BreakerReject,
            EventKind::CacheHit,
            EventKind::CacheMiss,
            EventKind::CacheRefit { appended: 8, epoch: 1 },
            EventKind::CacheEvict { evictions: 2 },
        ];
        for kind in kinds {
            let line = body(&TraceEvent { req: 0xabc, ctx: 0xdef, kind });
            assert!(line.contains(&format!("\"kind\":\"{}\"", kind.name())), "{line}");
            assert!(line.starts_with("\"req\":\"0000000000000abc\""), "{line}");
        }
        let defect = body(&TraceEvent {
            req: 0,
            ctx: 0,
            kind: EventKind::Defect {
                sample: 1,
                attempt: 2,
                class: DefectClass::NonFinite,
                fatal: true,
            },
        });
        assert!(defect.contains("\"class\":4,\"fatal\":true"), "{defect}");
    }

    mod spans {
        use super::super::*;
        use crate::span::SpanKind;

        fn half(t: u64, span: SpanEvent) -> StampedSpan {
            StampedSpan { t, wall: t * 7, span }
        }

        #[test]
        fn canonical_drops_scheduler_scoped_spans_and_restamps() {
            let halves = vec![
                half(4, SpanEvent::open_with_id(9, 0, SpanKind::QueueWait)),
                half(5, SpanEvent::close_with_id(9, 0, SpanKind::QueueWait)),
                half(6, SpanEvent::open(2, SpanKind::Request)),
                half(8, SpanEvent::close(2, SpanKind::Request)),
            ];
            let jsonl = spans_to_jsonl(&halves, ClockMode::Logical);
            let lines: Vec<&str> = jsonl.lines().collect();
            assert_eq!(lines.len(), 2, "queue_wait halves are excluded: {jsonl}");
            assert!(lines[0].starts_with("{\"t\":0,"), "{jsonl}");
            assert!(lines[0].contains("\"phase\":\"open\""), "{jsonl}");
            assert!(lines[1].contains("\"phase\":\"close\""), "{jsonl}");
            assert!(!jsonl.contains("\"wall\""), "canonical omits the sidecar stamp");
        }

        #[test]
        fn canonical_spans_are_invariant_to_emission_order() {
            let attempt = SpanKind::Attempt { sample: 1, attempt: 0 };
            let a = vec![
                half(0, SpanEvent::open(3, SpanKind::Request)),
                half(1, SpanEvent::open(3, attempt)),
                half(2, SpanEvent::close(3, attempt)),
                half(3, SpanEvent::close(3, SpanKind::Request)),
            ];
            let mut b = a.clone();
            b.reverse();
            for (i, s) in b.iter_mut().enumerate() {
                s.t = 50 + i as u64;
                s.wall = 5000 + i as u64;
            }
            assert_eq!(
                spans_to_jsonl(&a, ClockMode::Logical),
                spans_to_jsonl(&b, ClockMode::Logical)
            );
        }

        #[test]
        fn emission_order_keeps_both_stamps() {
            let halves = vec![half(3, SpanEvent::open(1, SpanKind::Quorum))];
            let jsonl = spans_to_jsonl(&halves, ClockMode::Wall);
            assert!(jsonl.starts_with("{\"t\":3,\"wall\":21,"), "{jsonl}");
            assert!(jsonl.contains("\"kind\":\"quorum\""), "{jsonl}");
        }

        #[test]
        fn every_span_kind_renders_its_payload() {
            let kinds = [
                SpanKind::Request,
                SpanKind::ContextFit,
                SpanKind::Attempt { sample: 1, attempt: 2 },
                SpanKind::Draw { sample: 1, attempt: 2 },
                SpanKind::Retry { sample: 1, attempt: 2 },
                SpanKind::Backoff { sample: 1, attempt: 2 },
                SpanKind::Quorum,
                SpanKind::Fallback,
                SpanKind::Shed,
                SpanKind::QueueWait,
                SpanKind::CacheLookup,
                SpanKind::Session,
            ];
            for kind in kinds {
                let line = span_body(&SpanEvent::open(0xabc, kind));
                assert!(line.contains(&format!("\"kind\":\"{}\"", kind.name())), "{line}");
                assert!(line.contains("\"req\":\"0000000000000abc\""), "{line}");
                if kind.coords() != (0, 0) {
                    assert!(line.contains("\"sample\":1,\"attempt\":2"), "{line}");
                }
            }
        }
    }
}
