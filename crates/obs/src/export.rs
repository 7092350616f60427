//! JSONL span export.
//!
//! One span half per line, hand-rolled (no `serde` — the workspace is
//! dependency-free by policy). Each line carries the half's identity,
//! lineage, kind and phase, then the kind's `(sample, attempt)`
//! coordinates, then its [`Attrs`] — so the export is the whole record:
//! every fact a counter is derived from appears on some close half. Two
//! shapes, keyed by the observer's [`ClockMode`]:
//!
//! - **Canonical** ([`ClockMode::Logical`]) — the determinism contract.
//!   Scheduler-scoped kinds are dropped (their multiset depends on the
//!   schedule), the rest are sorted by content key and `t` is re-stamped
//!   as the canonical index. Given identical seeds, the result is
//!   byte-identical across worker counts and submission orders.
//! - **Emission order** ([`ClockMode::Wall`]) — every half, in the order
//!   the buffer received them, with both stamps. For humans profiling a
//!   live run.
//!
//! `span_body` matches exhaustively over [`SpanKind`] and [`Attrs`], and
//! clippy's wildcard lints are denied in this file, so a new kind or
//! attribute fails the build until it has an export arm.

#![deny(clippy::wildcard_enum_match_arm, clippy::match_wildcard_for_single_variants)]

use std::fmt::Write;

use crate::attrs::Attrs;
use crate::record::ClockMode;
use crate::span::{SpanEvent, SpanKind, SpanPhase, StampedSpan};

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

/// The span's JSON fields after the stamps (no surrounding braces):
/// identity, lineage, kind and phase, then the kind's coordinates, then
/// its attributes.
fn span_body(span: &SpanEvent) -> String {
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
        | SpanKind::Session
        | SpanKind::Quota
        | SpanKind::Join
        | SpanKind::Dedup
        | SpanKind::QueueFull
        | SpanKind::Breaker
        | SpanKind::CacheEvict => {}
        SpanKind::Attempt { sample, attempt }
        | SpanKind::Draw { sample, attempt }
        | SpanKind::Retry { sample, attempt }
        | SpanKind::Backoff { sample, attempt }
        | SpanKind::Defect { sample, attempt }
        | SpanKind::PanicIsolated { sample, attempt } => {
            let _ = write!(s, ",\"sample\":{sample},\"attempt\":{attempt}");
        }
    }
    let _ = match span.attrs {
        Attrs::None => Ok(()),
        Attrs::Attempt { outcome, defects, generated_tokens, work_units } => write!(
            s,
            ",\"outcome\":\"{}\",\"defects\":{defects},\"generated_tokens\":{generated_tokens},\"work_units\":{work_units}",
            outcome.name()
        ),
        Attrs::Fit { prompt_tokens, work_units } => {
            write!(s, ",\"prompt_tokens\":{prompt_tokens},\"work_units\":{work_units}")
        }
        Attrs::Session { generated_tokens, work_units } => {
            write!(s, ",\"generated_tokens\":{generated_tokens},\"work_units\":{work_units}")
        }
        Attrs::Quorum { valid, required, met } => {
            write!(s, ",\"valid\":{valid},\"required\":{required},\"met\":{met}")
        }
        Attrs::Backoff { delay } => write!(s, ",\"delay\":{delay}"),
        Attrs::Shed { priority } => write!(s, ",\"priority\":{priority}"),
        Attrs::Defect { class, fatal } => {
            write!(s, ",\"class\":{},\"fatal\":{fatal}", class.index())
        }
        Attrs::Join { ctx } => write!(s, ",\"ctx\":\"{ctx:016x}\""),
        Attrs::Quota { client } => write!(s, ",\"client\":{client}"),
        Attrs::Wait { ticks } => write!(s, ",\"ticks\":{ticks}"),
        Attrs::CacheHit => write!(s, ",\"cache\":\"hit\""),
        Attrs::CacheMiss => write!(s, ",\"cache\":\"miss\""),
        Attrs::CacheRefit { appended, epoch } => {
            write!(s, ",\"cache\":\"refit\",\"appended\":{appended},\"epoch\":{epoch}")
        }
        Attrs::Evict { evictions } => write!(s, ",\"evictions\":{evictions}"),
        Attrs::BreakerTrip { trips } => write!(s, ",\"breaker\":\"trip\",\"trips\":{trips}"),
        Attrs::BreakerClose { trips } => write!(s, ",\"breaker\":\"close\",\"trips\":{trips}"),
        Attrs::BreakerReject => write!(s, ",\"breaker\":\"reject\""),
    };
    s
}
#[cfg(test)]
mod tests {
    use super::*;
    use crate::attrs::{AttemptClass, DefectClass};
    use crate::span::EVERY_KIND;

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
        assert_eq!(spans_to_jsonl(&a, ClockMode::Logical), spans_to_jsonl(&b, ClockMode::Logical));
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
        for kind in EVERY_KIND {
            let line = span_body(&SpanEvent::open(0xabc, kind));
            assert!(line.contains(&format!("\"kind\":\"{}\"", kind.name())), "{line}");
            assert!(line.contains("\"req\":\"0000000000000abc\""), "{line}");
            if kind.coords() != (0, 0) {
                assert!(line.contains("\"sample\":1,\"attempt\":2"), "{line}");
            }
        }
    }

    #[test]
    fn close_halves_render_their_attributes() {
        let close = |kind, attrs| span_body(&SpanEvent::close(1, kind).with(attrs));
        let attempt = close(
            SpanKind::Attempt { sample: 0, attempt: 1 },
            Attrs::Attempt {
                outcome: AttemptClass::Defective,
                defects: 3,
                generated_tokens: 6,
                work_units: 7,
            },
        );
        assert!(
            attempt.ends_with(
                "\"sample\":0,\"attempt\":1,\"outcome\":\"defective\",\"defects\":3,\
                 \"generated_tokens\":6,\"work_units\":7"
            ),
            "{attempt}"
        );
        let defect = close(
            SpanKind::Defect { sample: 1, attempt: 2 },
            Attrs::Defect { class: DefectClass::NonFinite, fatal: true },
        );
        assert!(defect.ends_with("\"class\":4,\"fatal\":true"), "{defect}");
        let join = close(SpanKind::Join, Attrs::Join { ctx: 0xdef });
        assert!(join.ends_with("\"ctx\":\"0000000000000def\""), "{join}");
        let lookup = close(SpanKind::CacheLookup, Attrs::CacheRefit { appended: 8, epoch: 1 });
        assert!(lookup.ends_with("\"cache\":\"refit\",\"appended\":8,\"epoch\":1"), "{lookup}");
        let open = span_body(&SpanEvent::open(1, SpanKind::Quorum));
        assert!(open.ends_with("\"phase\":\"open\""), "open halves carry no facts: {open}");
    }
}
