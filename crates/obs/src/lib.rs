//! # mc-obs — deterministic tracing + metrics for the serve path
//!
//! `deny.toml` bans external crates, so this is the workspace's own
//! structured observability layer: no `tracing`, no `serde`, no
//! `prometheus` — just the pieces the serve scheduler actually needs,
//! built on the same [`mc_sync`] shim as the rest of the concurrency
//! layer so the loom model checker can explore it.
//!
//! One record, four pieces:
//!
//! - **[`Clock`]** — timestamps come from a pluggable
//!   clock. [`LogicalClock`] (the default in tests)
//!   hands out deterministic ticks; [`WallClock`] reads
//!   real elapsed nanoseconds and is the *only* sanctioned `Instant::now`
//!   outside the bench harness (a justified `mc-lint.allow` entry keeps
//!   the `no-wallclock` invariant alive).
//! - **[`SpanEvent`]** — the only thing a recorder
//!   accepts: one `Copy`, allocation-free half of a parent-linked span
//!   (request → context_fit / join / attempt → draw / defect / retry /
//!   backoff / quorum / fallback, plus scheduler-scoped lanes). Spans
//!   carry [`Attrs`], a small numeric payload: an
//!   interval's facts ride on its close half (an attempt's outcome and
//!   cost, a quorum's verdict), and an instantaneous fact (a defect, a
//!   shed, a retry) is a zero-width point span. Each fact is one record.
//! - **[`MetricsRegistry`]** — atomic counters
//!   and fixed-bucket histograms *derived from the span record*
//!   ([`MetricsRegistry::record_span`] is the one routing table), routed
//!   through [`mc_sync`]'s atomics so the registry is loom-checkable
//!   exactly like `mc-lm`'s `CostLedger`. Its counter and defect-class
//!   slots come from [`Counter`] and [`DefectClass`], each one
//!   `taxonomy!` table defined in this crate (`multicast-core`
//!   re-exports `DefectClass`).
//! - **[`Recorder`] / [`Observer`]**
//!   — the sink. [`NoopRecorder`] is the default
//!   and keeps the hot path free of buffering; [`Observer`] stamps every
//!   span half with its clock and a wall sidecar, folds it into a
//!   registry, and exports JSONL ([`export`]) plus a metrics snapshot.
//!
//! ## Determinism contract
//!
//! With identical seeds and a [`LogicalClock`], the
//! canonical JSONL export is **byte-identical across worker counts and
//! submission orders**, matching the serve layer's bit-identical-forecast
//! guarantee. Two mechanisms make that hold:
//!
//! 1. Deterministic span ids are pure functions of *content
//!    fingerprints* (what was requested) and `(sample, attempt)`
//!    coordinates, never of submission indices, thread ids or clocks.
//! 2. Export distinguishes request-scoped kinds (attempts, retries,
//!    defects, quorum resolution — schedule-invariant multisets) from
//!    scheduler-scoped ones (`queue_wait`, `cache_lookup`, `session`,
//!    `dedup`, `breaker`, ... — whose owners or orderings depend on
//!    scheduling). The canonical export sorts the former and re-stamps
//!    logical times; the latter feed the metrics registry and appear only
//!    in wall-clock (emission-order) exports.
//!
//! ## Analysis
//!
//! [`span::pair_spans`] / [`span::build_trees`] / [`span::blame`] /
//! [`span::critical_path`] reconstruct per-request trees and attribute
//! end-to-end latency to stages; [`span::chrome_trace`] renders
//! Perfetto-loadable JSON.

/// Declares a field-less taxonomy enum from one `Variant => "name"` table.
///
/// Each row is a variant with its doc comment and its stable export name.
/// The macro generates the enum, `ALL` (every variant in table order; its
/// length is counted from the rows), `name()` and `index()` (the variant's
/// position in `ALL`, which is its slot in per-class metric arrays and the
/// integer the trace export writes). The table is the only place a variant
/// and its name are written.
macro_rules! taxonomy {
    (
        $(#[$meta:meta])*
        pub enum $name:ident {
            $( $(#[$vmeta:meta])* $variant:ident => $text:literal, )+
        }
    ) => {
        $(#[$meta])*
        #[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
        pub enum $name {
            $( $(#[$vmeta])* $variant, )+
        }

        impl $name {
            /// Every variant, in table order.
            pub const ALL: [$name; [$(stringify!($variant)),+].len()] = [$($name::$variant),+];

            /// Stable name for exports, snapshots and reports.
            pub fn name(self) -> &'static str {
                match self {
                    $( $name::$variant => $text, )+
                }
            }

            /// Position in [`Self::ALL`].
            pub fn index(self) -> usize {
                self as usize
            }
        }
    };
}

pub mod attrs;
pub mod clock;
pub mod export;
pub mod fingerprint;
pub mod metrics;
pub mod record;
pub mod span;

pub use attrs::{AttemptClass, Attrs, DefectClass};
pub use clock::{Clock, LogicalClock, WallClock};
pub use fingerprint::{mix, Fingerprint};
pub use metrics::{Counter, Histogram, MetricsRegistry, MetricsSnapshot};
pub use record::{ClockMode, NoopRecorder, Observer, Recorder};
pub use span::{
    blame, build_trees, chrome_trace, critical_path, pair_spans, parent_of, point_span, span_id,
    PairedSpan, SpanError, SpanEvent, SpanGuard, SpanKind, SpanNode, SpanPhase, SpanTree,
    StampedSpan, SPAN_KINDS,
};
