//! Differential tests of the n-gram/PPM count store and the sampler
//! against reference implementations kept here as test-only oracles.
//!
//! The oracles are the straightforward formulations the optimised code
//! replaced: one `HashMap<u64, Vec<u32>>` per context order keyed by the
//! radix encoding of the last `k` tokens (recomputed from a history
//! vector on every step), sums recomputed from the counts on every
//! prediction, and a sampler that collects candidates into a fresh `Vec`
//! and orders them with `sort_by`. A decode session over a frozen model
//! is, by contract, indistinguishable from a mutated clone of the model,
//! so the oracle session is exactly that.
//!
//! The property everywhere: bit-equal distributions, identical seeded
//! tokens, identical [`InferenceCost`].

use std::collections::HashMap;

use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

use mc_lm::cost::InferenceCost;
use mc_lm::model::DecodeSession;
use mc_lm::presets::{build_model, fit_model, ModelPreset};
use mc_lm::sampler::{Sampler, SamplerConfig};
use mc_lm::vocab::TokenId;

/// The presets backed by the count table, with their oracle parameters.
const PRESETS: [ModelPreset; 3] = [ModelPreset::Large, ModelPreset::Small, ModelPreset::Ppm];

#[derive(Debug, Clone, Copy)]
enum Family {
    /// Interpolated n-gram with concentration `gamma`.
    NGram { gamma: f64 },
    /// PPM-C.
    Ppm,
}

/// The reference model: radix keys recomputed from a history vector,
/// one count vector per context, sums recomputed per prediction.
#[derive(Debug, Clone)]
struct Oracle {
    family: Family,
    vocab: usize,
    max_order: usize,
    counts: Vec<HashMap<u64, Vec<u32>>>,
    history: Vec<TokenId>,
    cost: InferenceCost,
}

fn radix_key(history: &[TokenId], k: usize, vocab: usize) -> u64 {
    let mut key = 0u64;
    for &t in &history[history.len() - k..] {
        key = key * vocab as u64 + t as u64;
    }
    key
}

impl Oracle {
    fn for_preset(preset: ModelPreset, vocab: usize) -> Self {
        let (family, max_order) = match preset {
            ModelPreset::Large => (Family::NGram { gamma: 0.25 }, 10),
            ModelPreset::Small => (Family::NGram { gamma: 2.0 }, 2),
            ModelPreset::Ppm => (Family::Ppm, 8),
            other => panic!("{other:?} has no count-table oracle"),
        };
        Self {
            family,
            vocab,
            max_order,
            counts: vec![HashMap::new(); max_order + 1],
            history: Vec::new(),
            cost: InferenceCost::default(),
        }
    }

    fn fit(mut self, prompt: &[TokenId]) -> Self {
        for &t in prompt {
            self.observe(t, false);
        }
        self
    }

    /// A decode session: a clone whose cost starts from zero.
    fn fork(&self) -> Self {
        Self { cost: InferenceCost::default(), ..self.clone() }
    }

    fn reset(&mut self) {
        self.counts.iter_mut().for_each(HashMap::clear);
        self.history.clear();
        self.cost = InferenceCost::default();
    }

    fn observe(&mut self, token: TokenId, generated: bool) {
        for k in 0..=self.max_order.min(self.history.len()) {
            let key = radix_key(&self.history, k, self.vocab);
            let slot = self.counts[k].entry(key).or_insert_with(|| vec![0u32; self.vocab]);
            slot[token as usize] += 1;
            self.cost.work_units += 1;
        }
        self.history.push(token);
        if self.history.len() > self.max_order {
            self.history.remove(0);
        }
        if generated {
            self.cost.generated_tokens += 1;
        } else {
            self.cost.prompt_tokens += 1;
        }
    }

    fn next_distribution(&mut self, out: &mut [f64]) {
        match self.family {
            Family::NGram { gamma } => self.ngram_distribution(gamma, out),
            Family::Ppm => self.ppm_distribution(out),
        }
    }

    fn ngram_distribution(&mut self, gamma: f64, out: &mut [f64]) {
        let v = self.vocab as f64;
        let mut p: Vec<f64> = {
            let zero = self.counts[0].get(&0);
            self.cost.work_units += 1;
            match zero {
                Some(c) => {
                    let total: f64 = c.iter().map(|&x| x as f64).sum();
                    c.iter().map(|&x| (x as f64 + 1.0) / (total + v)).collect()
                }
                None => vec![1.0 / v; self.vocab],
            }
        };
        let deepest = self.max_order.min(self.history.len());
        for k in 1..=deepest {
            let key = radix_key(&self.history, k, self.vocab);
            self.cost.work_units += 1;
            if let Some(c) = self.counts[k].get(&key) {
                let total: f64 = c.iter().map(|&x| x as f64).sum();
                if total > 0.0 {
                    let distinct = c.iter().filter(|&&x| x > 0).count() as f64;
                    let lambda = total / (total + gamma * distinct);
                    for (i, slot) in p.iter_mut().enumerate() {
                        *slot = lambda * (c[i] as f64 / total) + (1.0 - lambda) * *slot;
                    }
                }
            }
        }
        out.copy_from_slice(&p);
    }

    fn ppm_distribution(&mut self, out: &mut [f64]) {
        out.iter_mut().for_each(|v| *v = 0.0);
        let mut excluded = vec![false; self.vocab];
        let mut remaining = 1.0f64;
        let deepest = self.max_order.min(self.history.len());
        for k in (0..=deepest).rev() {
            let key = radix_key(&self.history, k, self.vocab);
            self.cost.work_units += 1;
            let Some(c) = self.counts[k].get(&key) else {
                continue;
            };
            let mut total = 0u64;
            let mut distinct = 0u64;
            for (i, &cnt) in c.iter().enumerate() {
                if cnt > 0 && !excluded[i] {
                    total += cnt as u64;
                    distinct += 1;
                }
            }
            if total == 0 {
                continue;
            }
            let denom = (total + distinct) as f64;
            for (i, &cnt) in c.iter().enumerate() {
                if cnt > 0 && !excluded[i] {
                    out[i] += remaining * cnt as f64 / denom;
                    excluded[i] = true;
                }
            }
            remaining *= distinct as f64 / denom;
            if remaining < 1e-15 {
                break;
            }
        }
        let free = excluded.iter().filter(|&&e| !e).count();
        if free > 0 {
            let share = remaining / free as f64;
            for (o, &e) in out.iter_mut().zip(&excluded) {
                if !e {
                    *o += share;
                }
            }
        } else {
            let total: f64 = out.iter().sum();
            for o in out.iter_mut() {
                *o /= total;
            }
            return;
        }
        let total: f64 = out.iter().sum();
        for o in out.iter_mut() {
            *o /= total;
        }
    }
}

fn assert_bits_equal(step: usize, got: &[f64], want: &[f64]) {
    for (i, (g, w)) in got.iter().zip(want).enumerate() {
        assert_eq!(g.to_bits(), w.to_bits(), "step {step}, token {i}: {g} vs oracle {w}");
    }
}

/// Decodes `blind.len()` tokens from a session and the oracle session
/// in lockstep. At steps where `blind[step]` is set the session observes a
/// token without a preceding `next_distribution`; elsewhere both draw
/// with identically seeded samplers.
fn assert_session_matches(
    session: &mut dyn DecodeSession,
    oracle: &mut Oracle,
    blind: &[bool],
    seed: u64,
) {
    let vocab = oracle.vocab;
    let config = SamplerConfig { seed, ..SamplerConfig::default() };
    let (mut draw, mut draw_oracle) = (Sampler::new(config), Sampler::new(config));
    let (mut p, mut q) = (vec![0.0; vocab], vec![0.0; vocab]);
    for (step, &blind) in blind.iter().enumerate() {
        let token = if blind {
            (step * 7 % vocab) as TokenId
        } else {
            session.next_distribution(&mut p);
            oracle.next_distribution(&mut q);
            assert_bits_equal(step, &p, &q);
            let (t, u) = (draw.sample(&p, |_| true), draw_oracle.sample(&q, |_| true));
            assert_eq!(t, u, "step {step}: seeded draws diverged");
            t
        };
        session.observe(token);
        oracle.observe(token, true);
    }
    session.next_distribution(&mut p);
    oracle.next_distribution(&mut q);
    assert_bits_equal(blind.len(), &p, &q);
    assert_eq!(session.cost(), oracle.cost, "session cost");
}

fn tokens(raw: &[u32], vocab: usize) -> Vec<TokenId> {
    raw.iter().map(|&t| t % vocab as TokenId).collect()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// fit → fork → decode, against the oracle, including prompts
    /// shorter than the deepest context order and blind observes.
    #[test]
    fn frozen_sessions_match_oracle(
        preset_idx in 0usize..PRESETS.len(),
        vocab in 2usize..29,
        raw in prop::collection::vec(0u32..64, 0..60),
        blind in prop::collection::vec(0u8..5, 1..40),
        seed in 0u64..1_000,
    ) {
        let preset = PRESETS[preset_idx];
        let prompt = tokens(&raw, vocab);
        let blind: Vec<bool> = blind.iter().map(|&b| b == 0).collect();
        let frozen = fit_model(preset, vocab, &prompt);
        let oracle = Oracle::for_preset(preset, vocab).fit(&prompt);
        prop_assert_eq!(frozen.prompt_cost(), oracle.cost);
        // Two forks of one base: the first must not leak into the second.
        for fork_seed in [seed, seed + 1] {
            assert_session_matches(frozen.fork().as_mut(), &mut oracle.fork(), &blind, fork_seed);
        }
    }

    /// refit_extend then fork equals the oracle fitted on the whole
    /// prompt.
    #[test]
    fn refit_then_fork_matches_oracle(
        preset_idx in 0usize..PRESETS.len(),
        vocab in 2usize..29,
        raw in prop::collection::vec(0u32..64, 1..60),
        split_frac in 0.0f64..1.0,
        blind in prop::collection::vec(0u8..5, 1..30),
        seed in 0u64..1_000,
    ) {
        let preset = PRESETS[preset_idx];
        let prompt = tokens(&raw, vocab);
        let split = (prompt.len() as f64 * split_frac) as usize;
        let blind: Vec<bool> = blind.iter().map(|&b| b == 0).collect();
        let mut frozen = fit_model(preset, vocab, &prompt[..split]);
        prop_assert!(frozen.refit_extend(&prompt[split..]));
        let oracle = Oracle::for_preset(preset, vocab).fit(&prompt);
        prop_assert_eq!(frozen.prompt_cost(), oracle.cost);
        assert_session_matches(frozen.fork().as_mut(), &mut oracle.fork(), &blind, seed);
    }

    /// The mutable model: prompt, generated tokens, `reset`, and a second
    /// prompt, against the oracle.
    #[test]
    fn live_model_matches_oracle_across_reset(
        preset_idx in 0usize..PRESETS.len(),
        vocab in 2usize..29,
        first in prop::collection::vec(0u32..64, 0..40),
        second in prop::collection::vec(0u32..64, 0..40),
        generated in prop::collection::vec(0u32..64, 0..20),
    ) {
        let preset = PRESETS[preset_idx];
        let mut model = build_model(preset, vocab);
        let mut oracle = Oracle::for_preset(preset, vocab);
        let (mut p, mut q) = (vec![0.0; vocab], vec![0.0; vocab]);
        for prompt in [&first, &second] {
            for (step, &t) in tokens(prompt, vocab).iter().enumerate() {
                model.observe(t, false);
                oracle.observe(t, false);
                if step % 3 == 0 {
                    model.next_distribution(&mut p);
                    oracle.next_distribution(&mut q);
                    assert_bits_equal(step, &p, &q);
                }
            }
            for (step, &t) in tokens(&generated, vocab).iter().enumerate() {
                model.next_distribution(&mut p);
                oracle.next_distribution(&mut q);
                assert_bits_equal(step, &p, &q);
                model.observe(t, true);
                oracle.observe(t, true);
            }
            prop_assert_eq!(model.cost(), oracle.cost);
            model.reset();
            oracle.reset();
        }
    }
}

/// The sampler as it was: candidates collected into a fresh `Vec`,
/// ordered with a stable `sort_by`.
fn oracle_sample(
    config: &SamplerConfig,
    rng: &mut StdRng,
    dist: &[f64],
    allowed: impl Fn(TokenId) -> bool,
) -> TokenId {
    let mut probs: Vec<(TokenId, f64)> = dist
        .iter()
        .enumerate()
        .filter(|(i, _)| allowed(*i as TokenId))
        .map(|(i, &p)| (i as TokenId, p.max(0.0)))
        .collect();
    assert!(!probs.is_empty(), "constraint excludes every token");
    let mass: f64 = probs.iter().map(|(_, p)| p).sum();
    if mass <= 0.0 {
        let u = 1.0 / probs.len() as f64;
        for p in &mut probs {
            p.1 = u;
        }
    } else {
        for p in &mut probs {
            p.1 /= mass;
        }
    }
    if (config.temperature - 1.0).abs() > 1e-12 {
        let inv_t = 1.0 / config.temperature;
        let mut total = 0.0;
        for p in &mut probs {
            p.1 = p.1.powf(inv_t);
            total += p.1;
        }
        for p in &mut probs {
            p.1 /= total;
        }
    }
    probs.sort_by(|a, b| b.1.partial_cmp(&a.1).unwrap_or(std::cmp::Ordering::Equal));
    if let Some(k) = config.top_k {
        probs.truncate(k.max(1));
    }
    if let Some(top_p) = config.top_p {
        let mut cum = 0.0;
        let mut keep = probs.len();
        for (i, (_, p)) in probs.iter().enumerate() {
            cum += p;
            if cum >= top_p {
                keep = i + 1;
                break;
            }
        }
        probs.truncate(keep);
    }
    let mut total: f64 = probs.iter().map(|(_, p)| p).sum();
    if config.epsilon > 0.0 {
        let uniform = total / probs.len() as f64;
        for p in &mut probs {
            p.1 = (1.0 - config.epsilon) * p.1 + config.epsilon * uniform;
        }
        total = probs.iter().map(|(_, p)| p).sum();
    }
    let mut u = rng.gen::<f64>() * total;
    for &(id, p) in &probs {
        u -= p;
        if u <= 0.0 {
            return id;
        }
    }
    probs.last().map(|&(id, _)| id).unwrap_or_default()
}

/// The largest vocabulary the repository decodes over: the numeric
/// alphabet (13 symbols) plus the 64 merges of the largest BPE
/// tokenizer, rounded up.
const LARGEST_VOCAB: usize = 128;

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    /// The allocation-free sampler draws the oracle's token stream.
    /// Probabilities come from a small set of levels, so exact ties (and
    /// zero mass on the allowed set) are common.
    #[test]
    fn sampler_matches_oracle(
        levels in prop::collection::vec(0usize..6, 1..LARGEST_VOCAB + 1),
        mask in prop::collection::vec(0u8..5, LARGEST_VOCAB),
        temperature_idx in 0usize..4,
        top_k in 0usize..12,
        top_p in 0.0f64..1.3,
        epsilon_idx in 0usize..3,
        seed in 0u64..10_000,
    ) {
        const LEVELS: [f64; 6] = [0.0, 0.0, 0.05, 0.1, 0.25, 0.5];
        let dist: Vec<f64> = levels.iter().map(|&l| LEVELS[l]).collect();
        let mut allowed: Vec<bool> = mask[..dist.len()].iter().map(|&m| m != 0).collect();
        allowed[seed as usize % dist.len()] = true; // never an empty allowed set
        let config = SamplerConfig {
            temperature: [1.0, 0.9, 0.5, 1.7][temperature_idx],
            top_k: (top_k > 0).then_some(top_k),
            top_p: (top_p <= 1.0).then_some(top_p.max(0.01)),
            epsilon: [0.0, 0.05, 0.3][epsilon_idx],
            seed,
        };
        let mut sampler = Sampler::new(config);
        let mut rng = StdRng::seed_from_u64(seed);
        let is_allowed = |t: TokenId| allowed[t as usize];
        for draw in 0..32 {
            let got = sampler.sample(&dist, is_allowed);
            let want = oracle_sample(&config, &mut rng, &dist, is_allowed);
            prop_assert_eq!(got, want, "draw {}", draw);
        }
    }
}
