//! # mc-obs — deterministic tracing + metrics for the serve path
//!
//! `deny.toml` bans external crates, so this is the workspace's own
//! structured observability layer: no `tracing`, no `serde`, no
//! `prometheus` — just the pieces the serve scheduler actually needs,
//! built on the same [`mc_sync`] shim as the rest of the concurrency
//! layer so the loom model checker can explore it.
//!
//! Four pieces:
//!
//! - **[`Clock`](clock::Clock)** — timestamps come from a pluggable
//!   clock. [`LogicalClock`](clock::LogicalClock) (the default in tests)
//!   hands out deterministic ticks; [`WallClock`](clock::WallClock) reads
//!   real elapsed nanoseconds and is the *only* sanctioned `Instant::now`
//!   outside the bench harness (a justified `mc-lint.allow` entry keeps
//!   the `no-wallclock` invariant alive).
//! - **[`TraceEvent`](event::TraceEvent)** — a `Copy`, allocation-free
//!   record of one serve-path happening (`queue_wait`, `context_fit`,
//!   `attempt`, `retry`, `quorum_resolve`, `fallback`,
//!   `panic_isolated`, ...). Events carry numeric payloads only, so
//!   building one for a disabled recorder costs nothing.
//! - **[`MetricsRegistry`](metrics::MetricsRegistry)** — atomic counters
//!   and fixed-bucket histograms, routed through [`mc_sync`]'s atomics so
//!   the registry is loom-checkable exactly like `mc-lm`'s `CostLedger`.
//!   Its counter and defect-class slots come from [`Counter`] and
//!   [`DefectClass`], each one `taxonomy!` table defined in this crate
//!   (`multicast-core` re-exports `DefectClass`).
//! - **[`Recorder`](record::Recorder) / [`Observer`](record::Observer)**
//!   — the sink. [`NoopRecorder`](record::NoopRecorder) is the default
//!   and keeps the hot path free of buffering; [`Observer`] stamps every
//!   event with its clock, folds it into a registry, and exports JSONL
//!   traces ([`export`]) plus a metrics snapshot.
//!
//! ## Determinism contract
//!
//! With identical seeds and a [`LogicalClock`](clock::LogicalClock), the
//! canonical JSONL export is **byte-identical across worker counts and
//! submission orders**, matching the serve layer's bit-identical-forecast
//! guarantee. Two mechanisms make that hold:
//!
//! 1. Events are keyed by *content fingerprints* (what was requested),
//!    never by submission indices or thread ids.
//! 2. Export distinguishes request-scoped events (attempts, retries,
//!    defects, quorum resolution — schedule-invariant multisets) from
//!    scheduler-scoped ones (`queue_wait`, `fit_dedup_hit`,
//!    `session_cost` — whose owners or orderings depend on scheduling).
//!    The canonical export sorts the former and re-stamps logical times;
//!    the latter feed the metrics registry and appear only in wall-clock
//!    (emission-order) exports.

//! ## Spans
//!
//! On top of the flat event stream, [`span`] adds causal *intervals*:
//! parent-linked [`SpanEvent`](span::SpanEvent) open/close pairs
//! (request → context_fit / attempt → draw / retry / backoff / quorum /
//! fallback, plus scheduler-scoped queue_wait / cache_lookup / session
//! lanes) with the same two determinism classes as events and
//! dual-clock stamps. [`span::pair_spans`] / [`span::build_trees`] /
//! [`span::blame`] / [`span::critical_path`] reconstruct per-request
//! trees and attribute end-to-end latency to stages;
//! [`span::chrome_trace`] renders Perfetto-loadable JSON.

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

pub mod clock;
pub mod event;
pub mod export;
pub mod fingerprint;
pub mod metrics;
pub mod record;
pub mod span;

pub use clock::{Clock, LogicalClock, WallClock};
pub use event::{AttemptClass, DefectClass, EventKind, TraceEvent};
pub use fingerprint::{mix, Fingerprint};
pub use metrics::{Counter, Histogram, MetricsRegistry, MetricsSnapshot};
pub use record::{ClockMode, NoopRecorder, Observer, Recorder, Stamped};
pub use span::{
    blame, build_trees, chrome_trace, critical_path, pair_spans, parent_of, point_span, span_id,
    PairedSpan, SpanError, SpanEvent, SpanGuard, SpanKind, SpanNode, SpanPhase, SpanTree,
    StampedSpan, SPAN_KINDS,
};
