//! The zero-shot sampling pipeline shared by every LLM-based forecaster.
//!
//! One forecast = `S` independent constrained continuations of the
//! serialized history, each decoded back to numbers, aggregated pointwise
//! by the median (LLMTime's recipe, inherited by MultiCast — §IV-D).
//! Samples are embarrassingly parallel and fan out over the executor in
//! [`crate::sched`]; each sample gets its own backend instance and a
//! deterministic seed, so parallelism never changes results.

use mc_tslib::error::{pipeline_error, Result, TsError};

use mc_lm::cost::InferenceCost;
use mc_lm::generate::{generate, GenerateOptions};
use mc_lm::model::observe_all;
use mc_lm::presets::{build_model, ModelPreset};
use mc_lm::sampler::{Sampler, SamplerConfig};
use mc_lm::tokenizer::{CharTokenizer, Tokenizer};
use mc_lm::vocab::{TokenId, Vocab};

use crate::sched::fan_out;

/// Everything one sampled continuation needs to run.
#[derive(Debug, Clone)]
pub struct ContinuationSpec {
    /// Serialized history (must end with a separator).
    pub prompt: String,
    /// Vocabulary the backend speaks.
    pub vocab: Vocab,
    /// Characters the continuation may contain (the paper's `[0-9,]`-style
    /// output restriction).
    pub allowed_chars: String,
    /// Backend preset.
    pub preset: ModelPreset,
    /// Stop after this many separator emissions.
    pub separators: usize,
    /// Hard token cap.
    pub max_tokens: usize,
    /// Monotone incremental-refit generation of the frozen context this
    /// spec describes. Freshly built specs are epoch 0; the serve-side
    /// context cache bumps the epoch each time it delta-extends a cached
    /// context (`mc-lm::cache`), so a refit context and its pre-refit
    /// ancestor can never collide in [`crate::engine::spec_fingerprint`].
    pub refit_epoch: u64,
}

/// Runs one constrained continuation; returns the generated text and the
/// backend's cost counters.
///
/// # Errors
/// [`TsError::Pipeline`] when the prompt is not encodable by the chosen
/// vocabulary, the vocabulary lacks the separator, or the backend emits an
/// out-of-vocabulary token — all infrastructure bugs, not sample defects.
pub fn run_continuation(
    spec: &ContinuationSpec,
    sampler_config: SamplerConfig,
) -> Result<(String, InferenceCost)> {
    let tokenizer = CharTokenizer::new(spec.vocab.clone());
    let prompt_tokens = tokenizer
        .encode(&spec.prompt)
        .map_err(|e| pipeline_error("encode-prompt", e.to_string()))?;
    let sep = spec
        .vocab
        .id(',')
        .ok_or_else(|| pipeline_error("separator", "vocabulary lacks the ',' separator"))?;
    let allowed: Vec<bool> = {
        let mut mask = vec![false; spec.vocab.len()];
        for id in spec.vocab.ids_of(&spec.allowed_chars) {
            mask[id as usize] = true;
        }
        mask
    };
    let mut model = build_model(spec.preset, spec.vocab.len());
    observe_all(model.as_mut(), &prompt_tokens);
    let mut sampler = Sampler::new(sampler_config);
    let options = GenerateOptions::until_separators(sep, spec.separators, spec.max_tokens);
    let out = generate(model.as_mut(), &mut sampler, |t: TokenId| allowed[t as usize], &options);
    let text =
        tokenizer.decode(&out).map_err(|e| pipeline_error("decode-continuation", e.to_string()))?;
    Ok((text, model.cost()))
}

/// Runs `samples` continuations (fanned out over [`crate::sched`],
/// deterministic seeds) and decodes each with `decode`; returns the
/// per-sample decodings (`sample → dimension → horizon`) and the summed
/// cost.
///
/// A panicking sample is isolated by `catch_unwind` and surfaced as a
/// [`TsError::Pipeline`] error rather than aborting the process. For
/// per-sample retry, quorum and fallback semantics use
/// [`crate::robust::run_samples_robust`], which builds on this primitive's
/// seeding scheme.
///
/// # Errors
/// The first error among: an invalid `samples` count, a failed
/// continuation ([`run_continuation`]), a failed decode, or a panicked
/// sample.
pub fn run_samples<D>(
    spec: &ContinuationSpec,
    samples: usize,
    sampler_for: impl Fn(usize) -> SamplerConfig + Sync,
    decode: D,
) -> Result<(Vec<Vec<Vec<f64>>>, InferenceCost)>
where
    D: Fn(&str) -> Result<Vec<Vec<f64>>> + Sync,
{
    if samples == 0 {
        return Err(mc_tslib::error::invalid_param("samples", "at least one sample required"));
    }
    let per_sample = fan_out(samples, |i| {
        let (text, cost) = run_continuation(spec, sampler_for(i))?;
        Ok((decode(&text)?, cost))
    });
    collect_samples(per_sample, InferenceCost::default())
}

/// One sample's decoding (`dimension → horizon`) and generation cost.
pub(crate) type DecodedSample = Result<(Vec<Vec<f64>>, InferenceCost)>;

/// Folds `fan_out` results of per-sample draws into the decodings (in
/// sample order) and their cost summed onto `base`.
///
/// # Errors
/// The first failed sample in sample order, with a panic surfaced as a
/// `sample-thread` [`TsError::Pipeline`].
pub(crate) fn collect_samples(
    per_sample: Vec<std::thread::Result<DecodedSample>>,
    base: InferenceCost,
) -> Result<(Vec<Vec<Vec<f64>>>, InferenceCost)> {
    let mut decoded = Vec::with_capacity(per_sample.len());
    let mut total = base;
    for (i, outcome) in per_sample.into_iter().enumerate() {
        let (d, cost) = outcome
            .map_err(|_| pipeline_error("sample-thread", format!("sample {i} panicked")))??;
        decoded.push(d);
        total.absorb(cost);
    }
    Ok((decoded, total))
}

/// Pointwise median across samples: `samples[s][d][t]` → `out[d][t]`.
///
/// # Errors
/// [`TsError::Empty`] with zero samples; [`TsError::RaggedRows`] when a
/// sample's dimension count disagrees with the first sample's;
/// [`TsError::LengthMismatch`] when any column's length disagrees.
pub fn median_aggregate(samples: &[Vec<Vec<f64>>]) -> Result<Vec<Vec<f64>>> {
    if samples.is_empty() {
        return Err(TsError::Empty);
    }
    let dims = samples[0].len();
    let horizon = samples[0].first().map_or(0, Vec::len);
    for (s, sample) in samples.iter().enumerate() {
        if sample.len() != dims {
            return Err(TsError::RaggedRows { row: s, expected: dims, actual: sample.len() });
        }
        for col in sample {
            if col.len() != horizon {
                return Err(TsError::LengthMismatch { expected: horizon, actual: col.len() });
            }
        }
    }
    let mut out = vec![vec![0.0; horizon]; dims];
    let mut buf = Vec::with_capacity(samples.len());
    for d in 0..dims {
        for t in 0..horizon {
            buf.clear();
            for s in samples {
                buf.push(s[d][t]);
            }
            // O(n) selection instead of a full sort: the upper-middle
            // element lands at `mid` and, for even counts, the lower one
            // is the maximum of the left partition — the same two operands
            // the sorted version averaged, so results are bit-identical.
            let mid = buf.len() / 2;
            let cmp = |a: &f64, b: &f64| a.partial_cmp(b).unwrap_or(std::cmp::Ordering::Equal);
            out[d][t] = if buf.len() % 2 == 1 {
                *buf.select_nth_unstable_by(mid, cmp).1
            } else {
                let (left, hi, _) = buf.select_nth_unstable_by(mid, cmp);
                let lo = left.iter().copied().fold(f64::NEG_INFINITY, f64::max);
                0.5 * (lo + *hi)
            };
        }
    }
    Ok(out)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn spec(prompt: &str, separators: usize) -> ContinuationSpec {
        ContinuationSpec {
            prompt: prompt.into(),
            vocab: Vocab::numeric(),
            allowed_chars: "0123456789,".into(),
            preset: ModelPreset::Large,
            separators,
            max_tokens: 200,
            refit_epoch: 0,
        }
    }

    #[test]
    fn continuation_respects_constraint_and_stop() {
        let s = spec("123,123,123,123,123,123,123,123,", 3);
        let cfg = SamplerConfig { temperature: 0.2, seed: 1, ..Default::default() };
        let (text, cost) = run_continuation(&s, cfg).unwrap();
        assert!(text.chars().all(|c| c.is_ascii_digit() || c == ','), "{text}");
        assert_eq!(text.matches(',').count(), 3);
        assert!(cost.prompt_tokens > 0 && cost.generated_tokens > 0);
    }

    #[test]
    fn strongly_periodic_prompt_is_continued() {
        // A constant history must be continued (nearly) constantly at low
        // temperature by the in-context backend.
        let s = spec(&"042,".repeat(40), 4);
        let cfg =
            SamplerConfig { temperature: 0.05, top_k: None, top_p: None, seed: 2, epsilon: 0.0 };
        let (text, _) = run_continuation(&s, cfg).unwrap();
        assert_eq!(text, "042,042,042,042,", "got {text}");
    }

    #[test]
    fn run_samples_is_deterministic_and_parallel_safe() {
        let s = spec(&"017,023,".repeat(20), 2);
        let decode = |text: &str| -> Result<Vec<Vec<f64>>> {
            Ok(vec![text.split(',').filter(|g| !g.is_empty()).map(|g| g.len() as f64).collect()])
        };
        let sampler_for =
            |i: usize| SamplerConfig { seed: 10 + i as u64, ..SamplerConfig::default() };
        let (a, cost_a) = run_samples(&s, 4, sampler_for, decode).unwrap();
        let (b, cost_b) = run_samples(&s, 4, sampler_for, decode).unwrap();
        assert_eq!(a, b, "parallel sampling must be deterministic");
        assert_eq!(cost_a, cost_b);
        assert_eq!(a.len(), 4);
    }

    #[test]
    fn run_samples_isolates_panicking_decode() {
        let s = spec(&"042,".repeat(30), 2);
        let out = run_samples(
            &s,
            2,
            |i| SamplerConfig { seed: i as u64, ..SamplerConfig::default() },
            |_: &str| -> Result<Vec<Vec<f64>>> { panic!("decoder bug") },
        );
        assert!(
            matches!(out, Err(TsError::Pipeline { stage: "sample-thread", .. })),
            "panic must surface as a typed error: {out:?}"
        );
    }

    #[test]
    fn run_samples_rejects_zero_samples() {
        let s = spec("1,", 1);
        let out = run_samples(&s, 0, |_| SamplerConfig::default(), |_: &str| Ok(vec![vec![0.0]]));
        assert!(matches!(out, Err(TsError::InvalidParameter { name: "samples", .. })));
    }

    #[test]
    fn median_odd_and_even() {
        let samples = vec![vec![vec![1.0, 10.0]], vec![vec![3.0, 30.0]], vec![vec![2.0, 20.0]]];
        assert_eq!(median_aggregate(&samples).unwrap(), vec![vec![2.0, 20.0]]);
        let even = vec![vec![vec![1.0]], vec![vec![2.0]], vec![vec![3.0]], vec![vec![10.0]]];
        assert_eq!(median_aggregate(&even).unwrap(), vec![vec![2.5]]);
    }

    #[test]
    fn median_is_robust_to_one_wild_sample() {
        let samples = vec![
            vec![vec![5.0]],
            vec![vec![5.1]],
            vec![vec![4.9]],
            vec![vec![999.0]], // degenerate continuation
            vec![vec![5.05]],
        ];
        let m = median_aggregate(&samples).unwrap();
        assert!((m[0][0] - 5.05).abs() < 1e-12);
    }

    #[test]
    fn median_requires_samples() {
        assert_eq!(median_aggregate(&[]), Err(TsError::Empty));
    }

    #[test]
    fn median_rejects_malformed_shapes() {
        // Second sample has 1 dimension where the first has 2.
        let ragged = vec![vec![vec![1.0], vec![2.0]], vec![vec![3.0]]];
        assert_eq!(
            median_aggregate(&ragged),
            Err(TsError::RaggedRows { row: 1, expected: 2, actual: 1 })
        );
        // Second sample's column is shorter than the first's.
        let short = vec![vec![vec![1.0, 2.0]], vec![vec![3.0]]];
        assert_eq!(
            median_aggregate(&short),
            Err(TsError::LengthMismatch { expected: 2, actual: 1 })
        );
    }
}
