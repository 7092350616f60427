//! Constrained stochastic sampling from next-token distributions.
//!
//! Reproduces the decoding side of LLMTime/MultiCast: the output alphabet
//! is *hard-restricted* (e.g. to `[0-9,]`), the distribution is sharpened
//! with a temperature, optionally truncated (top-k / nucleus), and a token
//! is drawn. Sampling is seeded so every experiment is replayable.

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

use crate::vocab::TokenId;

/// Sampler configuration.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct SamplerConfig {
    /// Softmax-style temperature applied in probability space
    /// (`p^(1/T)`, renormalized). `1.0` = sample from the model.
    pub temperature: f64,
    /// Keep only the `k` most probable tokens (before renormalizing).
    pub top_k: Option<usize>,
    /// Nucleus sampling: keep the smallest set of tokens whose cumulative
    /// probability reaches `p`.
    pub top_p: Option<f64>,
    /// Exploration floor: after temperature and truncation, the final
    /// distribution is mixed with `epsilon` of uniform mass over the
    /// surviving candidates. Zero (the default) samples the model as-is;
    /// the prediction-interval path uses a small positive value to model
    /// token-level uncertainty a pathologically confident in-context
    /// backend underestimates.
    pub epsilon: f64,
    /// RNG seed.
    pub seed: u64,
}

impl Default for SamplerConfig {
    fn default() -> Self {
        Self { temperature: 0.9, top_k: None, top_p: Some(0.95), epsilon: 0.0, seed: 0 }
    }
}

/// A seeded sampler over token distributions.
#[derive(Debug, Clone)]
pub struct Sampler {
    config: SamplerConfig,
    rng: StdRng,
    /// Candidate `(id, probability)` scratch, reused across draws.
    probs: Vec<(TokenId, f64)>,
}

impl Sampler {
    /// Creates a sampler from a config (seed included in the config).
    pub fn new(config: SamplerConfig) -> Self {
        assert!(config.temperature > 0.0, "temperature must be positive");
        if let Some(p) = config.top_p {
            assert!(p > 0.0 && p <= 1.0, "top_p must be in (0, 1]");
        }
        if let Some(k) = config.top_k {
            assert!(k > 0, "top_k must be positive");
        }
        assert!((0.0..1.0).contains(&config.epsilon), "epsilon must be in [0, 1)");
        Self { rng: StdRng::seed_from_u64(config.seed), config, probs: Vec::new() }
    }

    /// Draws a token from `dist`, considering only ids where
    /// `allowed(id)` is true.
    ///
    /// # Panics
    /// If no allowed token has positive probability mass *and* uniform
    /// fallback over the allowed set is impossible (empty allowed set).
    pub fn sample(&mut self, dist: &[f64], allowed: impl Fn(TokenId) -> bool) -> TokenId {
        let probs = &mut self.probs;
        // 1. Mask.
        probs.clear();
        probs.extend(
            dist.iter()
                .enumerate()
                .filter(|(i, _)| allowed(*i as TokenId))
                .map(|(i, &p)| (i as TokenId, p.max(0.0))),
        );
        assert!(!probs.is_empty(), "constraint excludes every token");
        let mass: f64 = probs.iter().map(|(_, p)| p).sum();
        if mass <= 0.0 {
            // Model put no mass on the allowed set: fall back to uniform.
            let u = 1.0 / probs.len() as f64;
            for p in probs.iter_mut() {
                p.1 = u;
            }
        } else {
            for p in probs.iter_mut() {
                p.1 /= mass;
            }
        }

        // 2. Temperature in probability space.
        if (self.config.temperature - 1.0).abs() > 1e-12 {
            let inv_t = 1.0 / self.config.temperature;
            let mut total = 0.0;
            for p in probs.iter_mut() {
                p.1 = p.1.powf(inv_t);
                total += p.1;
            }
            for p in probs.iter_mut() {
                p.1 /= total;
            }
        }

        // 3. Truncation: order by probability descending once for both
        // rules. Stable, so equal probabilities keep id order.
        sort_descending(probs);
        if let Some(k) = self.config.top_k {
            probs.truncate(k.max(1));
        }
        if let Some(top_p) = self.config.top_p {
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

        // 4. Exploration floor over the surviving candidates.
        if self.config.epsilon > 0.0 {
            let uniform = total / probs.len() as f64;
            for p in probs.iter_mut() {
                p.1 = (1.0 - self.config.epsilon) * p.1 + self.config.epsilon * uniform;
            }
            total = probs.iter().map(|(_, p)| p).sum();
        }

        // 5. Draw.
        let mut u = self.rng.gen::<f64>() * total;
        for &(id, p) in probs.iter() {
            u -= p;
            if u <= 0.0 {
                return id;
            }
        }
        probs.last().expect("non-empty after truncation").0
    }

    /// The configuration this sampler was built with.
    pub fn config(&self) -> SamplerConfig {
        self.config
    }
}

/// Stable insertion sort by probability, descending: the order `sort_by`
/// with a descending `partial_cmp` gives, without its allocation.
/// Candidate lists are at most vocabulary-sized.
fn sort_descending(probs: &mut [(TokenId, f64)]) {
    for i in 1..probs.len() {
        let item = probs[i];
        let mut j = i;
        while j > 0 && probs[j - 1].1 < item.1 {
            probs[j] = probs[j - 1];
            j -= 1;
        }
        probs[j] = item;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn counts(sampler: &mut Sampler, dist: &[f64], n: usize) -> Vec<usize> {
        let mut c = vec![0usize; dist.len()];
        for _ in 0..n {
            c[sampler.sample(dist, |_| true) as usize] += 1;
        }
        c
    }

    #[test]
    fn respects_hard_constraint() {
        let mut s = Sampler::new(SamplerConfig { seed: 1, ..Default::default() });
        let dist = [0.7, 0.1, 0.1, 0.1];
        for _ in 0..200 {
            let t = s.sample(&dist, |id| id % 2 == 1);
            assert!(t == 1 || t == 3, "sampled disallowed token {t}");
        }
    }

    #[test]
    fn falls_back_to_uniform_when_mass_excluded() {
        let mut s = Sampler::new(SamplerConfig {
            temperature: 1.0,
            top_k: None,
            top_p: None,
            seed: 2,
            epsilon: 0.0,
        });
        // All mass on token 0, but only 1 and 2 are allowed.
        let dist = [1.0, 0.0, 0.0];
        let c = counts_with(&mut s, &dist, |id| id != 0, 400);
        assert_eq!(c[0], 0);
        assert!(c[1] > 100 && c[2] > 100, "uniform fallback expected: {c:?}");
    }

    fn counts_with(
        sampler: &mut Sampler,
        dist: &[f64],
        allowed: impl Fn(TokenId) -> bool + Copy,
        n: usize,
    ) -> Vec<usize> {
        let mut c = vec![0usize; dist.len()];
        for _ in 0..n {
            c[sampler.sample(dist, allowed) as usize] += 1;
        }
        c
    }

    #[test]
    fn seeded_sampling_is_deterministic() {
        let dist = [0.25, 0.25, 0.25, 0.25];
        let cfg = SamplerConfig { seed: 99, ..Default::default() };
        let a: Vec<TokenId> = {
            let mut s = Sampler::new(cfg);
            (0..50).map(|_| s.sample(&dist, |_| true)).collect()
        };
        let b: Vec<TokenId> = {
            let mut s = Sampler::new(cfg);
            (0..50).map(|_| s.sample(&dist, |_| true)).collect()
        };
        assert_eq!(a, b);
    }

    #[test]
    fn low_temperature_sharpens() {
        let dist = [0.6, 0.4];
        let mut cold = Sampler::new(SamplerConfig {
            temperature: 0.05,
            top_k: None,
            top_p: None,
            seed: 3,
            epsilon: 0.0,
        });
        let c = counts(&mut cold, &dist, 300);
        assert!(c[0] > 290, "cold sampling should almost always pick the mode: {c:?}");
        let mut warm = Sampler::new(SamplerConfig {
            temperature: 1.0,
            top_k: None,
            top_p: None,
            seed: 3,
            epsilon: 0.0,
        });
        let w = counts(&mut warm, &dist, 300);
        assert!(w[1] > 60, "warm sampling keeps diversity: {w:?}");
    }

    #[test]
    fn top_k_truncates() {
        let dist = [0.5, 0.3, 0.15, 0.05];
        let mut s = Sampler::new(SamplerConfig {
            temperature: 1.0,
            top_k: Some(2),
            top_p: None,
            seed: 4,
            epsilon: 0.0,
        });
        let c = counts(&mut s, &dist, 500);
        assert_eq!(c[2] + c[3], 0, "top-2 must exclude tail tokens: {c:?}");
    }

    #[test]
    fn top_p_keeps_nucleus() {
        let dist = [0.9, 0.05, 0.03, 0.02];
        let mut s = Sampler::new(SamplerConfig {
            temperature: 1.0,
            top_k: None,
            top_p: Some(0.5),
            seed: 5,
            epsilon: 0.0,
        });
        let c = counts(&mut s, &dist, 300);
        assert_eq!(c[1] + c[2] + c[3], 0, "nucleus of 0.5 is just the mode: {c:?}");
    }

    #[test]
    #[should_panic(expected = "excludes every token")]
    fn empty_constraint_panics() {
        let mut s = Sampler::new(SamplerConfig::default());
        s.sample(&[0.5, 0.5], |_| false);
    }

    #[test]
    #[should_panic(expected = "temperature must be positive")]
    fn zero_temperature_rejected() {
        Sampler::new(SamplerConfig {
            temperature: 0.0,
            top_k: None,
            top_p: None,
            seed: 0,
            epsilon: 0.0,
        });
    }
}
