//! Global cost metering for shared frozen backends.
//!
//! The serving layer attributes inference cost per request (prompt paid
//! once per frozen context, generated tokens charged to the session that
//! drew them). That attribution needs an independent ground truth to be
//! checked against: [`CostLedger`] is that ground truth — an atomic,
//! thread-safe counter that [`MeteredLm`] feeds from *inside* the model
//! boundary, recording the prompt once at wrap time and every fork's
//! session cost when the session drops. If the per-request sums and the
//! ledger disagree, tokens were double-charged or lost.
//!
//! The wrapper is transparent: [`MeteredLm`] implements [`FrozenLm`] by
//! delegation, so decoding through it is bit-identical to decoding through
//! the wrapped backend.

use mc_sync::atomic::{AtomicU64, Ordering};
use mc_sync::Arc;

use mc_obs::{mix, Attrs, NoopRecorder, Recorder, SpanEvent, SpanKind};

use crate::cost::InferenceCost;
use crate::model::{DecodeSession, FrozenLm};
use crate::vocab::TokenId;

/// Thread-safe running totals of everything a metered backend consumed.
///
/// Relaxed ordering suffices: counters are independent monotone sums, and
/// readers that need a consistent view (the serving layer) only snapshot
/// after joining the threads that recorded.
#[derive(Debug, Default)]
pub struct CostLedger {
    prompt_tokens: AtomicU64,
    generated_tokens: AtomicU64,
    work_units: AtomicU64,
    sessions: AtomicU64,
}

impl CostLedger {
    /// A fresh ledger with all counters at zero.
    pub fn new() -> Self {
        Self::default()
    }

    /// Adds one cost observation to the totals.
    pub fn record(&self, cost: InferenceCost) {
        self.prompt_tokens.fetch_add(cost.prompt_tokens, Ordering::Relaxed);
        self.generated_tokens.fetch_add(cost.generated_tokens, Ordering::Relaxed);
        self.work_units.fetch_add(cost.work_units, Ordering::Relaxed);
    }

    /// Current totals as one [`InferenceCost`].
    pub fn snapshot(&self) -> InferenceCost {
        InferenceCost {
            prompt_tokens: self.prompt_tokens.load(Ordering::Relaxed),
            generated_tokens: self.generated_tokens.load(Ordering::Relaxed),
            work_units: self.work_units.load(Ordering::Relaxed),
        }
    }

    /// Decode sessions that completed (dropped) against this ledger.
    pub fn sessions(&self) -> u64 {
        self.sessions.load(Ordering::Relaxed)
    }

    fn record_session(&self, cost: InferenceCost) {
        self.record(cost);
        self.sessions.fetch_add(1, Ordering::Relaxed);
    }
}

/// A [`FrozenLm`] that records everything it consumes into a [`CostLedger`].
///
/// Wrapping records the backend's one-time [`FrozenLm::prompt_cost`]
/// immediately (the prompt was paid when the inner backend was fitted);
/// every session forked from the wrapper records its own cost exactly once,
/// when it drops. Wrap a backend at most once per ledger, or the prompt is
/// counted again.
pub struct MeteredLm {
    inner: Arc<dyn FrozenLm>,
    ledger: Arc<CostLedger>,
    recorder: Arc<dyn Recorder>,
    ctx: u64,
}

impl MeteredLm {
    /// Wraps `inner`, immediately recording its prompt cost into `ledger`.
    pub fn new(inner: Arc<dyn FrozenLm>, ledger: Arc<CostLedger>) -> Self {
        Self::observed(inner, ledger, Arc::new(NoopRecorder), 0)
    }

    /// Like [`MeteredLm::new`], but every forked session is also a
    /// `session` span scoped to the `ctx` context fingerprint, whose close
    /// carries the session's metered cost. Session-drop order is
    /// scheduler-dependent, so these spans feed metrics and wall-clock
    /// exports, never the canonical trace.
    pub fn observed(
        inner: Arc<dyn FrozenLm>,
        ledger: Arc<CostLedger>,
        recorder: Arc<dyn Recorder>,
        ctx: u64,
    ) -> Self {
        ledger.record(inner.prompt_cost());
        Self { inner, ledger, recorder, ctx }
    }

    /// The ledger this wrapper records into.
    pub fn ledger(&self) -> &Arc<CostLedger> {
        &self.ledger
    }
}

impl FrozenLm for MeteredLm {
    fn vocab_size(&self) -> usize {
        self.inner.vocab_size()
    }

    fn prompt_cost(&self) -> InferenceCost {
        self.inner.prompt_cost()
    }

    fn name(&self) -> &str {
        self.inner.name()
    }

    fn fork(&self) -> Box<dyn DecodeSession + '_> {
        // A `session` span covers the fork-to-drop life of the cursor.
        // Drop order is scheduler-dependent, so the id is minted from a
        // logical tick (sidecar lane, never canonical); the close half is
        // emitted in Drop, which runs even during unwinding.
        let span = if self.recorder.enabled() {
            let id = mix(self.recorder.now(), SpanKind::Session.index() as u64);
            self.recorder.span(SpanEvent::open_with_id(id, self.ctx, SpanKind::Session));
            Some(id)
        } else {
            None
        };
        Box::new(MeteredSession {
            inner: self.inner.fork(),
            ledger: &self.ledger,
            recorder: self.recorder.as_ref(),
            ctx: self.ctx,
            span,
        })
    }
}

/// A session that records its final cost into the ledger when dropped.
struct MeteredSession<'a> {
    inner: Box<dyn DecodeSession + 'a>,
    ledger: &'a CostLedger,
    recorder: &'a dyn Recorder,
    ctx: u64,
    span: Option<u64>,
}

impl DecodeSession for MeteredSession<'_> {
    fn vocab_size(&self) -> usize {
        self.inner.vocab_size()
    }

    fn observe(&mut self, token: TokenId) {
        self.inner.observe(token);
    }

    fn next_distribution(&mut self, out: &mut [f64]) {
        self.inner.next_distribution(out);
    }

    fn cost(&self) -> InferenceCost {
        self.inner.cost()
    }
}

impl Drop for MeteredSession<'_> {
    fn drop(&mut self) {
        let cost = self.inner.cost();
        self.ledger.record_session(cost);
        if let Some(id) = self.span {
            let attrs = Attrs::Session {
                generated_tokens: cost.generated_tokens,
                work_units: cost.work_units,
            };
            self.recorder
                .span(SpanEvent::close_with_id(id, self.ctx, SpanKind::Session).with(attrs));
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::presets::{fit_model, ModelPreset};
    use crate::vocab::Vocab;

    fn frozen() -> Arc<dyn FrozenLm> {
        let vocab = Vocab::numeric();
        let prompt: Vec<TokenId> = "12,34,56,78,".chars().map(|c| vocab.id(c).unwrap()).collect();
        Arc::from(fit_model(ModelPreset::Small, vocab.len(), &prompt))
    }

    #[test]
    fn wrapping_records_prompt_once() {
        let inner = frozen();
        let ledger = Arc::new(CostLedger::new());
        let metered = MeteredLm::new(inner.clone(), ledger.clone());
        assert_eq!(ledger.snapshot().prompt_tokens, inner.prompt_cost().prompt_tokens);
        assert_eq!(metered.prompt_cost(), inner.prompt_cost());
        assert_eq!(ledger.sessions(), 0);
    }

    #[test]
    fn sessions_record_on_drop_and_decode_identically() {
        let inner = frozen();
        let ledger = Arc::new(CostLedger::new());
        let metered = MeteredLm::new(inner.clone(), ledger.clone());
        let before = ledger.snapshot();
        let mut plain = inner.fork();
        let mut wrapped = metered.fork();
        let n = inner.vocab_size();
        let (mut p, mut q) = (vec![0.0; n], vec![0.0; n]);
        for &tok in &[1u32, 2, 3] {
            plain.next_distribution(&mut p);
            wrapped.next_distribution(&mut q);
            assert_eq!(p, q, "metering must not perturb decoding");
            plain.observe(tok as TokenId);
            wrapped.observe(tok as TokenId);
        }
        let session_cost = wrapped.cost();
        assert_eq!(session_cost, plain.cost());
        assert_eq!(ledger.snapshot(), before, "cost records only at drop");
        drop(wrapped);
        let after = ledger.snapshot();
        assert_eq!(after.generated_tokens, before.generated_tokens + session_cost.generated_tokens);
        assert_eq!(ledger.sessions(), 1);
        drop(plain);
        assert_eq!(ledger.snapshot(), after, "unmetered sessions never record");
    }

    #[test]
    fn ledger_sums_across_threads() {
        let ledger = Arc::new(CostLedger::new());
        std::thread::scope(|scope| {
            for _ in 0..8 {
                let ledger = &ledger;
                scope.spawn(move || {
                    for _ in 0..100 {
                        ledger.record(InferenceCost {
                            prompt_tokens: 1,
                            generated_tokens: 2,
                            work_units: 3,
                        });
                    }
                });
            }
        });
        let total = ledger.snapshot();
        assert_eq!(total.prompt_tokens, 800);
        assert_eq!(total.generated_tokens, 1600);
        assert_eq!(total.work_units, 2400);
    }
}
