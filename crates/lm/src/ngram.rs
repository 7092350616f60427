//! Interpolated back-off n-gram language model with in-context learning.
//!
//! This is the primary LLM stand-in (see `DESIGN.md` §2). The model keeps
//! suffix counts for every context order `0..=max_order`, updated *as the
//! prompt streams in* — which is precisely what zero-shot forecasting
//! exploits in a pretrained transformer: the prompt itself establishes the
//! patterns the continuation must follow. Prediction mixes all orders with
//! count-confidence weights (Jelinek–Mercer interpolation with a
//! Witten–Bell-flavoured λ), so sparse-but-exact long-context matches
//! dominate when available and the model degrades gracefully to shorter
//! contexts otherwise.
//!
//! Capacity is governed by `max_order` and the interpolation concentration
//! `gamma`: a deep, low-`gamma` instance locks onto long repetitive
//! patterns (the "LLaMA2" preset), a shallow high-`gamma` one can only see
//! local digit statistics (the "Phi-2" preset).

use crate::cost::InferenceCost;
use crate::counts::{Context, CountTable, Layered};
use crate::model::{observe_all, DecodeSession, FrozenLm, LanguageModel};
use crate::vocab::TokenId;

/// Interpolated n-gram LM. See the module docs.
#[derive(Debug, Clone)]
pub struct NGramLm {
    vocab_size: usize,
    max_order: usize,
    gamma: f64,
    /// Next-token counts for every context order `0..=max_order`.
    counts: CountTable,
    /// Radix keys of the most recent `max_order` tokens.
    context: Context,
    cost: InferenceCost,
    name: String,
}

impl NGramLm {
    /// Creates a model over `vocab_size` tokens mixing context orders
    /// `0..=max_order` with interpolation concentration `gamma`.
    ///
    /// # Panics
    /// If `vocab_size == 0`, `gamma <= 0`, or the radix encoding of
    /// `max_order` tokens would overflow 64 bits.
    pub fn new(vocab_size: usize, max_order: usize, gamma: f64, name: impl Into<String>) -> Self {
        assert!(vocab_size > 0, "vocab_size must be positive");
        assert!(gamma > 0.0, "gamma must be positive");
        let bits = (vocab_size as f64).log2().ceil().max(1.0) * max_order as f64;
        assert!(bits <= 63.0, "max_order {max_order} too deep for vocab {vocab_size}");
        Self {
            vocab_size,
            max_order,
            gamma,
            counts: CountTable::new(vocab_size, max_order),
            context: Context::new(vocab_size, max_order),
            cost: InferenceCost::default(),
            name: name.into(),
        }
    }

    /// Context depth this model mixes up to.
    pub fn max_order(&self) -> usize {
        self.max_order
    }

    /// The model conditioned on `prompt` (see [`NGramLm::observe_prompt`]).
    pub(crate) fn fitted(mut self, prompt: &[TokenId]) -> Self {
        self.observe_prompt(prompt);
        self
    }

    /// Observes a whole prompt, sizing the count table for it first.
    fn observe_prompt(&mut self, prompt: &[TokenId]) {
        self.counts.reserve(prompt.len());
        observe_all(self, prompt);
    }

    /// Freezes the model after prompt conditioning; decode via
    /// [`FrozenLm::fork`] sessions.
    pub fn into_frozen(self) -> FrozenNGram {
        FrozenNGram { base: self }
    }
}

/// Writes the interpolated next-token distribution for `context` into
/// `out` and returns the number of count rows consulted.
///
/// Order 0 is a unigram with add-one smoothing toward uniform; each
/// higher order with a seen context is mixed in with
/// `λ = n / (n + gamma · distinct)`, and a missing context keeps the
/// lower-order estimate (full back-off). Row totals are exact integers,
/// so `total as f64` equals the left-to-right `f64` sum of the counts.
fn interpolate(rows: Layered<'_>, context: &Context, gamma: f64, out: &mut [f64]) -> u64 {
    let v = out.len() as f64;
    match rows.row(0, 0) {
        Some(row) => {
            let total = row.total as f64;
            for (slot, &x) in out.iter_mut().zip(row.counts) {
                *slot = (x as f64 + 1.0) / (total + v);
            }
        }
        None => out.fill(1.0 / v),
    }
    let deepest = context.depth();
    for k in 1..=deepest {
        let Some(row) = rows.row(k, context.key(k)) else {
            continue;
        };
        let total = row.total as f64;
        if total > 0.0 {
            let lambda = total / (total + gamma * row.distinct as f64);
            for (slot, &c) in out.iter_mut().zip(row.counts) {
                *slot = lambda * (c as f64 / total) + (1.0 - lambda) * *slot;
            }
        }
    }
    deepest as u64 + 1
}

/// A prompt-conditioned [`NGramLm`] frozen for sampling.
#[derive(Debug)]
pub struct FrozenNGram {
    base: NGramLm,
}

impl FrozenLm for FrozenNGram {
    fn vocab_size(&self) -> usize {
        self.base.vocab_size
    }

    fn prompt_cost(&self) -> InferenceCost {
        self.base.cost
    }

    fn name(&self) -> &str {
        &self.base.name
    }

    fn fork(&self) -> Box<dyn DecodeSession + '_> {
        Box::new(NGramSession::new(&self.base))
    }

    fn refit_extend(&mut self, tokens: &[TokenId]) -> bool {
        // Fitting is observing: replaying the suffix through the same
        // observe path reaches the exact state a from-scratch fit on the
        // extended prompt would (same counts, history, cost).
        self.base.observe_prompt(tokens);
        true
    }
}

/// One sample's decode cursor over a frozen [`NGramLm`].
///
/// Count updates for generated tokens go into a copy-on-write overlay
/// table (a row and its cached sums are copied from the base on first
/// touch), so the frozen base is shared read-only and the session sees
/// exactly the counts a mutated clone would — same `u32` counts, same
/// `f64` arithmetic, bit-identical distributions.
#[derive(Debug)]
pub struct NGramSession<'a> {
    base: &'a NGramLm,
    overlay: CountTable,
    context: Context,
    cost: InferenceCost,
}

impl<'a> NGramSession<'a> {
    pub(crate) fn new(base: &'a NGramLm) -> Self {
        Self {
            base,
            overlay: CountTable::new(base.vocab_size, base.max_order),
            context: base.context.clone(),
            cost: InferenceCost::default(),
        }
    }
}

impl DecodeSession for NGramSession<'_> {
    fn vocab_size(&self) -> usize {
        self.base.vocab_size
    }

    fn observe(&mut self, token: TokenId) {
        self.cost.work_units +=
            self.context.observe(&mut self.overlay, Some(&self.base.counts), token);
        self.cost.generated_tokens += 1;
    }

    fn next_distribution(&mut self, out: &mut [f64]) {
        assert_eq!(out.len(), self.base.vocab_size, "distribution buffer size");
        let rows = Layered { top: Some(&self.overlay), base: &self.base.counts };
        self.cost.work_units += interpolate(rows, &self.context, self.base.gamma, out);
    }

    fn cost(&self) -> InferenceCost {
        self.cost
    }
}

impl LanguageModel for NGramLm {
    fn vocab_size(&self) -> usize {
        self.vocab_size
    }

    fn reset(&mut self) {
        self.counts.clear();
        self.context.clear();
        self.cost = InferenceCost::default();
    }

    fn observe(&mut self, token: TokenId, generated: bool) {
        // Update every order's counts for the transition (context → token).
        self.cost.work_units += self.context.observe(&mut self.counts, None, token);
        if generated {
            self.cost.generated_tokens += 1;
        } else {
            self.cost.prompt_tokens += 1;
        }
    }

    fn next_distribution(&mut self, out: &mut [f64]) {
        assert_eq!(out.len(), self.vocab_size, "distribution buffer size");
        let rows = Layered { top: None, base: &self.counts };
        self.cost.work_units += interpolate(rows, &self.context, self.gamma, out);
    }

    fn cost(&self) -> InferenceCost {
        self.cost
    }

    fn name(&self) -> &str {
        &self.name
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::model::{is_distribution, observe_all};

    fn feed(model: &mut NGramLm, tokens: &[TokenId]) {
        observe_all(model, tokens);
    }

    #[test]
    fn uniform_before_any_context() {
        let mut m = NGramLm::new(4, 3, 0.5, "t");
        let mut p = vec![0.0; 4];
        m.next_distribution(&mut p);
        assert!(is_distribution(&p));
        for &x in &p {
            assert!((x - 0.25).abs() < 1e-12);
        }
    }

    #[test]
    fn learns_deterministic_cycle() {
        // Pattern 0 1 2 0 1 2 ... — after enough context the model should
        // predict the next element of the cycle with high confidence.
        let mut m = NGramLm::new(3, 4, 0.5, "t");
        let cycle: Vec<TokenId> = (0..60).map(|i| (i % 3) as TokenId).collect();
        feed(&mut m, &cycle);
        // History ends ... 0 1 2 (i=59 → token 2); next must be 0.
        let mut p = vec![0.0; 3];
        m.next_distribution(&mut p);
        assert!(is_distribution(&p));
        assert!(p[0] > 0.8, "expected confident cycle continuation, got {p:?}");
    }

    #[test]
    fn deeper_model_is_sharper_on_long_patterns() {
        // Period-4 pattern is invisible to order-1 contexts that alias.
        // Pattern: 0 1 0 2 repeated. After "0", order-1 sees P(1)≈P(2)≈0.5;
        // an order-2+ model knows which "0" this is.
        let pattern: Vec<TokenId> = [0u32, 1, 0, 2].iter().cycle().take(80).copied().collect();
        let mut shallow = NGramLm::new(3, 1, 0.5, "s");
        let mut deep = NGramLm::new(3, 4, 0.5, "d");
        feed(&mut shallow, &pattern);
        feed(&mut deep, &pattern);
        // Sequence ends ...0 2 (len 80 = 20 cycles); next is 0 then 1.
        let mut ps = vec![0.0; 3];
        let mut pd = vec![0.0; 3];
        shallow.next_distribution(&mut ps);
        deep.next_distribution(&mut pd);
        assert!(pd[0] > 0.8);
        // Feed the 0; now the interesting prediction: 1 (deep) vs aliased.
        shallow.observe(0, true);
        deep.observe(0, true);
        shallow.next_distribution(&mut ps);
        deep.next_distribution(&mut pd);
        assert!(
            pd[1] > ps[1] + 0.2,
            "deep model should disambiguate the aliased context: deep {pd:?} shallow {ps:?}"
        );
    }

    #[test]
    fn distribution_always_valid_under_random_feed() {
        let mut m = NGramLm::new(5, 3, 1.0, "t");
        let mut state = 42u64;
        let mut p = vec![0.0; 5];
        for _ in 0..500 {
            state = state.wrapping_mul(6364136223846793005).wrapping_add(1);
            m.observe(((state >> 33) % 5) as TokenId, false);
            m.next_distribution(&mut p);
            assert!(is_distribution(&p));
        }
    }

    #[test]
    fn reset_clears_context_and_cost() {
        let mut m = NGramLm::new(3, 2, 0.5, "t");
        feed(&mut m, &[0, 1, 2, 0, 1, 2]);
        assert!(m.cost().prompt_tokens == 6);
        m.reset();
        assert_eq!(m.cost(), InferenceCost::default());
        let mut p = vec![0.0; 3];
        m.next_distribution(&mut p);
        for &x in &p {
            assert!((x - 1.0 / 3.0).abs() < 1e-12);
        }
    }

    #[test]
    fn cost_distinguishes_prompt_and_generated() {
        let mut m = NGramLm::new(3, 2, 0.5, "t");
        m.observe(0, false);
        m.observe(1, true);
        m.observe(2, true);
        let c = m.cost();
        assert_eq!(c.prompt_tokens, 1);
        assert_eq!(c.generated_tokens, 2);
        assert!(c.work_units > 0);
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn out_of_range_token_panics() {
        let mut m = NGramLm::new(3, 2, 0.5, "t");
        m.observe(3, false);
    }

    #[test]
    #[should_panic(expected = "too deep")]
    fn order_overflow_guard() {
        NGramLm::new(64, 64, 0.5, "t");
    }

    #[test]
    fn name_is_reported() {
        let m = NGramLm::new(3, 2, 0.5, "my-model");
        assert_eq!(m.name(), "my-model");
    }
}
