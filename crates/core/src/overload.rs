//! Overload-resilience primitives for the serve path.
//!
//! The serve scheduler ([`crate::serve`]) protects itself under
//! saturating load with four layered mechanisms, applied in a fixed
//! order (documented in DESIGN.md §10):
//!
//! 1. **Admission control** — a hard submission cap plus priority-aware
//!    shedding when a flush exceeds `queue_cap`; rejected requests get a
//!    typed [`ServeDefect`] instead of growing an unbounded queue.
//! 2. **Quotas** — per-client generated-token allowances enforced from
//!    the serve layer's cost attribution ([`QuotaLedger`]).
//! 3. **Circuit breaking** — a per-backend-preset [`CircuitBreaker`]
//!    trips after a flush full of failures and rejects further load
//!    until a cooldown and a successful half-open probe.
//! 4. **Deadlines / retry backoff** live in [`crate::robust`] — this
//!    module only hosts the state that outlives a single flush.
//!
//! Everything here synchronizes through the [`mc_sync`] shim, so the
//! `--cfg loom` suite can model-check the concurrent pieces (breaker
//! recording races, shed-settlement wakeups) exhaustively.

use mc_lm::presets::ModelPreset;
use mc_obs::{point_span, Attrs, Recorder, SpanKind};
use mc_sync::atomic::{AtomicU64, Ordering};
use mc_sync::{Arc, Mutex};
use mc_tslib::error::TsError;

/// Priority class of a forecast request: under admission shedding,
/// lower classes are dropped first.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
pub enum Priority {
    /// Bulk / backfill work — first to shed.
    Batch,
    /// The default class.
    #[default]
    Normal,
    /// Latency-sensitive work — last to shed.
    Interactive,
}

impl Priority {
    /// Numeric rank (higher survives shedding longer); also the attribute
    /// of `shed` point spans.
    pub fn rank(self) -> u8 {
        match self {
            Priority::Batch => 0,
            Priority::Normal => 1,
            Priority::Interactive => 2,
        }
    }
}

/// Why the serve path rejected a request without running it. Rejection
/// is an *outcome*, not a panic or a hang: the request's
/// [`crate::serve::ServeOutcome`] carries the defect as a typed
/// [`TsError::Overloaded`] and zero attributed cost.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ServeDefect {
    /// The handle's hard submission cap was hit at `submit` time.
    QueueFull {
        /// The cap that was exceeded.
        cap: usize,
    },
    /// Admission shedding dropped the request: the flush exceeded
    /// `queue_cap` and higher-priority work filled every slot.
    Shed {
        /// The dropped request's priority class.
        priority: Priority,
    },
    /// The client had spent its token quota before this flush.
    QuotaExhausted {
        /// The over-quota client.
        client: u32,
        /// Tokens the client had been attributed so far.
        spent: u64,
        /// The configured allowance.
        quota: u64,
    },
    /// The backend preset's circuit breaker was open.
    BreakerOpen {
        /// The preset whose breaker rejected the request.
        preset: ModelPreset,
        /// Trips the breaker has accumulated (monotone).
        trips: u64,
    },
}

impl ServeDefect {
    /// Stable rejection kind (the `kind` of the [`TsError::Overloaded`]
    /// this defect converts to).
    pub fn kind(&self) -> &'static str {
        match self {
            ServeDefect::QueueFull { .. } => "queue-full",
            ServeDefect::Shed { .. } => "shed",
            ServeDefect::QuotaExhausted { .. } => "quota",
            ServeDefect::BreakerOpen { .. } => "breaker-open",
        }
    }

    /// The typed error surfaced through a rejected request's outcome.
    pub fn to_error(&self) -> TsError {
        let detail = match self {
            ServeDefect::QueueFull { cap } => format!("submission cap {cap} reached"),
            ServeDefect::Shed { priority } => {
                format!("shed at priority {priority:?} (rank {})", priority.rank())
            }
            ServeDefect::QuotaExhausted { client, spent, quota } => {
                format!("client {client} spent {spent} of {quota} tokens")
            }
            ServeDefect::BreakerOpen { preset, trips } => {
                format!("{preset:?} breaker open after {trips} trip(s)")
            }
        };
        TsError::Overloaded { kind: self.kind(), detail }
    }
}

/// Emits the deterministic telemetry for one admission shed: a `shed`
/// point span carrying the priority, keyed by the dropped request's trace
/// fingerprint. Shedding is a value-based cut (priority
/// desc, fingerprint asc), so the shed *set* — and with it this span
/// multiset — is invariant across submission orders and worker counts.
pub fn record_shed(obs: &dyn Recorder, req: u64, priority: Priority) {
    if !obs.enabled() {
        return;
    }
    point_span(obs, req, SpanKind::Shed, Attrs::Shed { priority: priority.rank() });
}

/// When a per-preset circuit breaker trips and how long it stays open.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct BreakerPolicy {
    /// Failed attempts within one flush that trip the breaker (0 never
    /// trips).
    pub trip_failures: u64,
    /// Flushes the breaker stays open before probing half-open.
    pub cooldown_flushes: u64,
}

impl Default for BreakerPolicy {
    fn default() -> Self {
        Self { trip_failures: 8, cooldown_flushes: 1 }
    }
}

/// The breaker's lifecycle position.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum BreakerState {
    /// Healthy: admitting everything.
    Closed,
    /// Tripped: rejecting everything until the cooldown elapses.
    Open,
    /// Probing: admitting load again; one bad flush re-trips.
    HalfOpen,
}

/// A state change [`CircuitBreaker::settle_flush`] decided on.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum BreakerTransition {
    /// The breaker opened (`trips` is the new monotone trip count).
    Tripped {
        /// Total trips including this one.
        trips: u64,
    },
    /// A half-open probe succeeded and the breaker closed again.
    Closed {
        /// Trips accumulated before recovery.
        trips: u64,
    },
}

const CLOSED: u64 = 0;
const OPEN: u64 = 1;
const HALF_OPEN: u64 = 2;

/// A per-backend-preset circuit breaker.
///
/// Split into two halves with different concurrency stories:
///
/// - [`record`](CircuitBreaker::record) is called by **workers
///   concurrently**, once per attempt, and only bumps relaxed atomic
///   window counters — the loom suite proves no increment is lost and
///   the trip count stays monotone under arbitrary interleavings.
/// - [`settle_flush`](CircuitBreaker::settle_flush) runs
///   **single-threaded at flush boundaries** and is the only place state
///   transitions happen. Transitions therefore depend on order-invariant
///   window *sums*, never on attempt interleaving — the same flush
///   sequence produces the same breaker history on any worker count.
#[derive(Debug, Default)]
pub struct CircuitBreaker {
    state: AtomicU64,
    trips: AtomicU64,
    cooldown_left: AtomicU64,
    window_failures: AtomicU64,
    window_successes: AtomicU64,
}

impl CircuitBreaker {
    /// A closed breaker with no history.
    pub fn new() -> Self {
        Self::default()
    }

    /// Records one attempt outcome into the current flush window.
    /// Concurrent and wait-free; never transitions state.
    pub fn record(&self, success: bool) {
        if success {
            self.window_successes.fetch_add(1, Ordering::Relaxed);
        } else {
            self.window_failures.fetch_add(1, Ordering::Relaxed);
        }
    }

    /// Whether admission should reject load right now.
    pub fn is_open(&self) -> bool {
        self.state.load(Ordering::Acquire) == OPEN
    }

    /// The breaker's current lifecycle position.
    pub fn state(&self) -> BreakerState {
        match self.state.load(Ordering::Acquire) {
            OPEN => BreakerState::Open,
            HALF_OPEN => BreakerState::HalfOpen,
            _ => BreakerState::Closed,
        }
    }

    /// Monotone count of trips this breaker has accumulated.
    pub fn trips(&self) -> u64 {
        self.trips.load(Ordering::Acquire)
    }

    fn trip(&self, policy: BreakerPolicy) -> BreakerTransition {
        self.state.store(OPEN, Ordering::Release);
        self.cooldown_left.store(policy.cooldown_flushes.max(1), Ordering::Release);
        let trips = self.trips.fetch_add(1, Ordering::AcqRel) + 1;
        BreakerTransition::Tripped { trips }
    }

    /// Folds the flush window and transitions state. Call exactly once
    /// per flush, single-threaded, after every worker has drained.
    pub fn settle_flush(&self, policy: BreakerPolicy) -> Option<BreakerTransition> {
        let failures = self.window_failures.swap(0, Ordering::AcqRel);
        let successes = self.window_successes.swap(0, Ordering::AcqRel);
        match self.state.load(Ordering::Acquire) {
            OPEN => {
                // No load was admitted; tick the cooldown toward a probe.
                let left = self.cooldown_left.load(Ordering::Acquire).saturating_sub(1);
                self.cooldown_left.store(left, Ordering::Release);
                if left == 0 {
                    self.state.store(HALF_OPEN, Ordering::Release);
                }
                None
            }
            HALF_OPEN => {
                if failures > 0 {
                    Some(self.trip(policy))
                } else if successes > 0 {
                    self.state.store(CLOSED, Ordering::Release);
                    Some(BreakerTransition::Closed { trips: self.trips() })
                } else {
                    // No probe ran this flush; keep probing.
                    None
                }
            }
            _ => {
                if policy.trip_failures > 0 && failures >= policy.trip_failures {
                    Some(self.trip(policy))
                } else {
                    None
                }
            }
        }
    }
}

/// Per-client spent-token ledger backing quota admission. Charged at
/// flush boundaries from the serve layer's attributed outcome costs, so
/// what a client is billed is exactly what conservation audits against
/// the metered ground truth.
#[derive(Debug, Default)]
pub struct QuotaLedger {
    spent: Mutex<Vec<(u32, u64)>>,
}

impl QuotaLedger {
    /// An empty ledger.
    pub fn new() -> Self {
        Self::default()
    }

    /// Tokens attributed to `client` so far.
    pub fn spent(&self, client: u32) -> u64 {
        let spent = self.spent.lock().expect("quota lock");
        spent.iter().find(|(c, _)| *c == client).map_or(0, |&(_, tokens)| tokens)
    }

    /// Adds `tokens` to the client's tally.
    pub fn charge(&self, client: u32, tokens: u64) {
        if tokens == 0 {
            return;
        }
        let mut spent = self.spent.lock().expect("quota lock");
        match spent.iter_mut().find(|(c, _)| *c == client) {
            Some((_, tally)) => *tally += tokens,
            None => spent.push((client, tokens)),
        }
    }

    /// Whether the client has consumed at least `quota` tokens.
    pub fn exhausted(&self, client: u32, quota: u64) -> bool {
        self.spent(client) >= quota
    }
}

/// Overload state that outlives a single flush: one breaker per backend
/// preset plus the quota ledger. Owned by a
/// [`crate::serve::ServeHandle`] (and created throwaway by
/// [`crate::serve::serve_all`], where nothing persists anyway).
#[derive(Debug, Default)]
pub struct OverloadState {
    breakers: Mutex<Vec<(ModelPreset, Arc<CircuitBreaker>)>>,
    quota: QuotaLedger,
}

impl OverloadState {
    /// Fresh state: every breaker closed, every quota unspent.
    pub fn new() -> Self {
        Self::default()
    }

    /// The breaker for `preset`, created closed on first use.
    pub fn breaker(&self, preset: ModelPreset) -> Arc<CircuitBreaker> {
        let mut breakers = self.breakers.lock().expect("breaker lock");
        if let Some((_, b)) = breakers.iter().find(|(p, _)| *p == preset) {
            return b.clone();
        }
        let breaker = Arc::new(CircuitBreaker::new());
        breakers.push((preset, breaker.clone()));
        breaker
    }

    /// Snapshot of every breaker, in first-use order (flush settlement).
    pub fn breakers(&self) -> Vec<(ModelPreset, Arc<CircuitBreaker>)> {
        self.breakers.lock().expect("breaker lock").clone()
    }

    /// The per-client quota ledger.
    pub fn quota(&self) -> &QuotaLedger {
        &self.quota
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn priorities_order_and_rank() {
        assert!(Priority::Batch < Priority::Normal);
        assert!(Priority::Normal < Priority::Interactive);
        assert_eq!(Priority::default(), Priority::Normal);
        assert_eq!(Priority::Batch.rank(), 0);
        assert_eq!(Priority::Interactive.rank(), 2);
    }

    #[test]
    fn defects_convert_to_typed_overload_errors() {
        let cases = [
            (ServeDefect::QueueFull { cap: 4 }, "queue-full"),
            (ServeDefect::Shed { priority: Priority::Batch }, "shed"),
            (ServeDefect::QuotaExhausted { client: 7, spent: 100, quota: 64 }, "quota"),
            (ServeDefect::BreakerOpen { preset: ModelPreset::Large, trips: 2 }, "breaker-open"),
        ];
        for (defect, kind) in cases {
            assert_eq!(defect.kind(), kind);
            match defect.to_error() {
                TsError::Overloaded { kind: k, detail } => {
                    assert_eq!(k, kind);
                    assert!(!detail.is_empty());
                }
                other => panic!("expected Overloaded, got {other:?}"),
            }
        }
    }

    #[test]
    fn breaker_trips_cools_down_probes_and_recovers() {
        let policy = BreakerPolicy { trip_failures: 3, cooldown_flushes: 2 };
        let b = CircuitBreaker::new();
        assert_eq!(b.state(), BreakerState::Closed);
        // Two failures: below threshold, stays closed.
        b.record(false);
        b.record(false);
        assert_eq!(b.settle_flush(policy), None);
        assert!(!b.is_open());
        // Three failures: trips.
        for _ in 0..3 {
            b.record(false);
        }
        assert_eq!(b.settle_flush(policy), Some(BreakerTransition::Tripped { trips: 1 }));
        assert!(b.is_open());
        assert_eq!(b.trips(), 1);
        // Cooldown: two empty flushes before half-open.
        assert_eq!(b.settle_flush(policy), None);
        assert!(b.is_open());
        assert_eq!(b.settle_flush(policy), None);
        assert_eq!(b.state(), BreakerState::HalfOpen);
        assert!(!b.is_open(), "half-open admits the probe");
        // A flush with no probe keeps probing.
        assert_eq!(b.settle_flush(policy), None);
        assert_eq!(b.state(), BreakerState::HalfOpen);
        // Clean probe closes; trips stay monotone.
        b.record(true);
        assert_eq!(b.settle_flush(policy), Some(BreakerTransition::Closed { trips: 1 }));
        assert_eq!(b.state(), BreakerState::Closed);
        assert_eq!(b.trips(), 1);
    }

    #[test]
    fn half_open_failure_retrips_monotonically() {
        let policy = BreakerPolicy { trip_failures: 1, cooldown_flushes: 1 };
        let b = CircuitBreaker::new();
        b.record(false);
        assert_eq!(b.settle_flush(policy), Some(BreakerTransition::Tripped { trips: 1 }));
        assert_eq!(b.settle_flush(policy), None); // cooldown -> half-open
        b.record(true);
        b.record(false); // a mixed probe still counts as failure
        assert_eq!(b.settle_flush(policy), Some(BreakerTransition::Tripped { trips: 2 }));
        assert_eq!(b.trips(), 2, "trips never decrease");
    }

    #[test]
    fn zero_threshold_never_trips() {
        let policy = BreakerPolicy { trip_failures: 0, cooldown_flushes: 1 };
        let b = CircuitBreaker::new();
        for _ in 0..100 {
            b.record(false);
        }
        assert_eq!(b.settle_flush(policy), None);
        assert_eq!(b.state(), BreakerState::Closed);
    }

    #[test]
    fn quota_ledger_accumulates_per_client() {
        let q = QuotaLedger::new();
        assert_eq!(q.spent(1), 0);
        q.charge(1, 40);
        q.charge(2, 10);
        q.charge(1, 9);
        assert_eq!(q.spent(1), 49);
        assert_eq!(q.spent(2), 10);
        assert!(!q.exhausted(1, 50));
        q.charge(1, 1);
        assert!(q.exhausted(1, 50));
        assert!(!q.exhausted(3, 1), "unknown clients have spent nothing");
        q.charge(3, 0);
        assert_eq!(q.spent(3), 0, "zero charges allocate nothing");
    }

    #[test]
    fn overload_state_interns_breakers_per_preset() {
        let state = OverloadState::new();
        let a = state.breaker(ModelPreset::Large);
        let b = state.breaker(ModelPreset::Large);
        assert!(Arc::ptr_eq(&a, &b), "same preset, same breaker");
        let c = state.breaker(ModelPreset::Small);
        assert!(!Arc::ptr_eq(&a, &c));
        assert_eq!(state.breakers().len(), 2);
    }
}
