//! The shared forecast engine: one ladder, four forecasters.
//!
//! Every LLM-based forecaster in this crate used to assemble the same
//! pipeline by hand: fit a codec on the history, build a
//! [`ContinuationSpec`], run robust sampling, aggregate by the median and
//! fall back on quorum failure. [`ForecastEngine`] owns that ladder once,
//! parameterized by a [`Codec`]; `MultiCastForecaster`, `LlmTimeForecaster`,
//! `SaxMultiCastForecaster` and `StreamingMultiCast` are now thin
//! configurations of it.
//!
//! The engine is also where the fit-once / sample-many split pays off:
//! [`PreparedBackend::fit`] conditions the backend on the prompt exactly
//! once (via [`fit_model`]) and every sample decodes through a cheap
//! [`mc_lm::FrozenLm::fork`] session. Session decoding is bit-identical
//! to the refit-per-sample path (see `mc-lm`'s preset tests), so forecasts
//! are unchanged while `prompt_tokens` drops from `S` prompt passes to one.

use std::sync::Arc;

use mc_tslib::error::{invalid_param, pipeline_error, Result};
use mc_tslib::series::MultivariateSeries;

use mc_lm::cost::InferenceCost;
use mc_lm::generate::{generate_session_budgeted, DecodeBudget, GenerateOptions};
use mc_lm::metered::{CostLedger, MeteredLm};
use mc_lm::model::FrozenLm;
use mc_lm::presets::fit_model;
use mc_lm::sampler::{Sampler, SamplerConfig};
use mc_lm::tokenizer::{CharTokenizer, Tokenizer};
use mc_lm::vocab::{TokenId, Vocab};

use mc_obs::{Fingerprint, Recorder};

use crate::codec::{Codec, FittedCodec};
use crate::config::ForecastConfig;
use crate::pipeline::{collect_samples, median_aggregate, ContinuationSpec};
use crate::robust::{
    resolve_quorum_failure, run_attempts, ForecastReport, RobustRun, SampleSource,
};
use crate::sched::fan_out;

/// Content fingerprint of a continuation spec — the trace key (`ctx`)
/// for the frozen context it fits. Mirrors the serve layer's context
/// dedup key (prompt, preset, output restriction, vocabulary); the stop
/// rule is per-sampler and deliberately excluded, so requests that share
/// a context share a fingerprint.
pub fn spec_fingerprint(spec: &ContinuationSpec) -> u64 {
    let mut fp = Fingerprint::new();
    fp.write_str(&spec.prompt);
    fp.write_str(&spec.allowed_chars);
    fp.write_str(&format!("{:?}", spec.preset));
    // Hash the vocabulary through its id-ordered characters: Debug output
    // would include a HashMap whose iteration order varies per run.
    for &c in spec.vocab.chars() {
        fp.write_u64(c as u64);
    }
    fp.write_u64(spec.refit_epoch);
    fp.finish()
}

/// Family fingerprint of a continuation spec: every identity component
/// of [`spec_fingerprint`] *except* the prompt and refit epoch. Two
/// specs share a family exactly when one's frozen context could be
/// delta-extended into the other's (same preset, output restriction and
/// vocabulary, different observation lengths) — the shard/prefix-scan
/// key of the serve-side context cache.
pub fn spec_family(spec: &ContinuationSpec) -> u64 {
    let mut fp = Fingerprint::new();
    fp.write_str(&spec.allowed_chars);
    fp.write_str(&format!("{:?}", spec.preset));
    for &c in spec.vocab.chars() {
        fp.write_u64(c as u64);
    }
    fp.finish()
}

/// Builds the token mask for an output-character restriction.
pub(crate) fn decode_mask(vocab: &Vocab, chars: &str) -> Vec<bool> {
    let mut mask = vec![false; vocab.len()];
    for id in vocab.ids_of(chars) {
        mask[id as usize] = true;
    }
    mask
}

/// The shared sampling ladder, parameterized by a [`Codec`].
#[derive(Debug, Clone, Copy)]
pub struct ForecastEngine {
    /// Shared pipeline knobs (samples, sampler seeds, preset, robustness).
    pub config: ForecastConfig,
    /// Where sample text comes from (model, or fault-injected for tests).
    pub source: SampleSource,
}

impl ForecastEngine {
    /// An engine drawing real model samples.
    pub fn new(config: ForecastConfig) -> Self {
        Self::with_source(config, SampleSource::Model)
    }

    /// An engine with an explicit sample source.
    pub fn with_source(config: ForecastConfig, source: SampleSource) -> Self {
        Self { config, source }
    }

    /// The [`ContinuationSpec`] this engine runs a fitted codec with —
    /// the single construction site of specs in the production pipeline.
    pub fn continuation_spec(&self, fitted: &dyn FittedCodec, horizon: usize) -> ContinuationSpec {
        let separators = fitted.separators_for(horizon);
        ContinuationSpec {
            prompt: fitted.prompt().to_string(),
            vocab: fitted.vocab(),
            allowed_chars: fitted.allowed_chars(),
            preset: self.config.preset,
            separators,
            max_tokens: self.config.max_tokens(separators, fitted.group_width()),
            refit_epoch: 0,
        }
    }

    /// Fits `codec` on `train` and runs the full robust ladder.
    pub fn run(
        &self,
        codec: &dyn Codec,
        train: &MultivariateSeries,
        horizon: usize,
    ) -> Result<EngineRun> {
        let fitted = codec.fit(train)?;
        self.run_fitted(fitted.as_ref(), horizon)
    }

    /// Runs the robust ladder with an already-fitted codec: fit the
    /// backend once, fork one decode session per (sample, attempt),
    /// validate/retry/quorum via [`crate::robust::run_attempts`].
    pub fn run_fitted(&self, fitted: &dyn FittedCodec, horizon: usize) -> Result<EngineRun> {
        let cfg = self.config;
        let spec = self.continuation_spec(fitted, horizon);
        let backend = PreparedBackend::fit(&spec)?;
        let sampler = backend.sampler(spec.separators, spec.max_tokens);
        let run = run_attempts(
            cfg.samples.max(1),
            cfg.robust,
            self.source,
            &fitted.expectations(horizon),
            |vi, budget| sampler.draw_budgeted(cfg.sampler_for(vi), budget),
            |text| fitted.decode(text, horizon),
        )?;
        Ok(EngineRun::new(run, cfg, backend.prompt_cost()))
    }

    /// The non-robust sibling of [`ForecastEngine::run`]: draws exactly
    /// `samples` continuations with caller-chosen sampler configs and no
    /// validation/retry — the interval estimator needs every raw sample,
    /// defects included, to keep its quantiles honest. Semantics mirror
    /// [`crate::pipeline::run_samples`] (same errors, deterministic, the
    /// samples fanned out by [`crate::sched`]) except the prompt is fitted
    /// once.
    pub fn draw(
        &self,
        codec: &dyn Codec,
        train: &MultivariateSeries,
        horizon: usize,
        samples: usize,
        sampler_for: impl Fn(usize) -> SamplerConfig + Sync,
    ) -> Result<(Vec<Vec<Vec<f64>>>, InferenceCost)> {
        if samples == 0 {
            return Err(invalid_param("samples", "at least one sample required"));
        }
        let fitted = codec.fit(train)?;
        let spec = self.continuation_spec(fitted.as_ref(), horizon);
        let backend = PreparedBackend::fit(&spec)?;
        let sampler = backend.sampler(spec.separators, spec.max_tokens);
        let per_sample = fan_out(samples, |i| {
            let (text, cost) = sampler.draw(sampler_for(i))?;
            Ok((fitted.decode(&text, horizon)?, cost))
        });
        collect_samples(per_sample, backend.prompt_cost())
    }
}

/// The fit-once half of a forecast: a backend conditioned on the prompt
/// exactly once, plus the tokenizer and output mask every sample shares.
pub struct PreparedBackend {
    frozen: Arc<dyn FrozenLm>,
    tokenizer: CharTokenizer,
    allowed: Vec<bool>,
    separator: TokenId,
}

impl PreparedBackend {
    /// Encodes the prompt, conditions the preset backend on it and
    /// freezes the result. Fails exactly where [`crate::pipeline::run_continuation`]
    /// would: unencodable prompt, or a vocabulary without the separator.
    pub fn fit(spec: &ContinuationSpec) -> Result<Self> {
        let tokenizer = CharTokenizer::new(spec.vocab.clone());
        let prompt_tokens = tokenizer
            .encode(&spec.prompt)
            .map_err(|e| pipeline_error("encode-prompt", e.to_string()))?;
        let separator = spec
            .vocab
            .id(',')
            .ok_or_else(|| pipeline_error("separator", "vocabulary lacks the ',' separator"))?;
        let allowed = decode_mask(&spec.vocab, &spec.allowed_chars);
        let frozen: Arc<dyn FrozenLm> =
            Arc::from(fit_model(spec.preset, spec.vocab.len(), &prompt_tokens));
        Ok(Self { frozen, tokenizer, allowed, separator })
    }

    /// Assembles a backend around an **already fitted** frozen context
    /// (the serve layer's warm-cache path), replicating exactly the
    /// tokenizer/mask/separator assembly of [`PreparedBackend::fit`] —
    /// only the prompt conditioning itself is skipped. The caller is
    /// responsible for `frozen` actually being the fit of `spec` (the
    /// cache guarantees this by keying on [`spec_fingerprint`]).
    ///
    /// # Errors
    /// As [`PreparedBackend::fit`], minus prompt encoding (the prompt is
    /// already conditioned into `frozen`).
    pub fn from_frozen(frozen: Arc<dyn FrozenLm>, spec: &ContinuationSpec) -> Result<Self> {
        let tokenizer = CharTokenizer::new(spec.vocab.clone());
        let separator = spec
            .vocab
            .id(',')
            .ok_or_else(|| pipeline_error("separator", "vocabulary lacks the ',' separator"))?;
        let allowed = decode_mask(&spec.vocab, &spec.allowed_chars);
        Ok(Self { frozen, tokenizer, allowed, separator })
    }

    /// Wraps this backend's frozen context in a [`MeteredLm`] recording
    /// into `ledger`: the prompt cost lands in the ledger immediately, and
    /// every session forked from this backend records its generated-token
    /// cost when it completes, and is a `session` span scoped to the `ctx`
    /// context fingerprint whose close carries that cost
    /// (scheduler-scoped: it feeds metrics and wall-clock exports, never
    /// the canonical trace).
    /// Decoding is bit-identical to the unmetered backend. Metering a warm
    /// cached context attributes exactly what metering the equivalent
    /// fresh fit would — warm and cold serving produce identical cost
    /// audits.
    pub fn meter_observed(
        mut self,
        ledger: Arc<CostLedger>,
        recorder: Arc<dyn Recorder>,
        ctx: u64,
    ) -> Self {
        self.frozen = Arc::new(MeteredLm::observed(self.frozen, ledger, recorder, ctx));
        self
    }

    /// The frozen context this backend decodes from.
    ///
    /// The serve layer calls this *before* [`PreparedBackend::meter_observed`]
    /// to hand the plain fitted context to the cross-batch cache: the
    /// cache must store the unwrapped context so a later batch can
    /// re-meter it into its own ledger.
    pub fn frozen(&self) -> Arc<dyn FrozenLm> {
        Arc::clone(&self.frozen)
    }

    /// The one-time prompt-conditioning cost (independent of how many
    /// sessions are forked later).
    pub fn prompt_cost(&self) -> InferenceCost {
        self.frozen.prompt_cost()
    }

    /// A sampler over this backend with the given stop rule.
    pub fn sampler(&self, separators: usize, max_tokens: usize) -> SessionSampler<'_> {
        SessionSampler::new(
            self.frozen.as_ref(),
            &self.tokenizer,
            &self.allowed,
            GenerateOptions::until_separators(self.separator, separators, max_tokens),
        )
    }
}

/// The sample-many half: draws constrained continuations by forking
/// throwaway decode sessions off a frozen backend. `Sync`, so the
/// executor's workers can draw samples from it concurrently.
pub struct SessionSampler<'a> {
    frozen: &'a dyn FrozenLm,
    tokenizer: &'a CharTokenizer,
    allowed: &'a [bool],
    options: GenerateOptions,
}

impl<'a> SessionSampler<'a> {
    /// A sampler over any frozen backend (the streaming forecaster passes
    /// its live model, which implements [`FrozenLm`] by forking).
    pub fn new(
        frozen: &'a dyn FrozenLm,
        tokenizer: &'a CharTokenizer,
        allowed: &'a [bool],
        options: GenerateOptions,
    ) -> Self {
        Self { frozen, tokenizer, allowed, options }
    }

    /// Draws one continuation: fork a session, generate under the output
    /// restriction and stop rule, decode to text. The returned cost covers
    /// only this session's generated tokens — the prompt was paid for at
    /// fit time.
    ///
    /// # Errors
    /// [`mc_tslib::error::TsError::Pipeline`] when the backend emits an
    /// out-of-vocabulary token (an infrastructure bug, not a sample defect).
    pub fn draw(&self, config: SamplerConfig) -> Result<(String, InferenceCost)> {
        self.draw_budgeted(config, None)
    }

    /// [`SessionSampler::draw`] under an optional decode deadline: the
    /// session stops cooperatively once `budget` generated tokens are
    /// spent, returning whatever (possibly truncated) text exists at that
    /// point — the robust layer's validation classifies the truncation.
    /// A `None` budget is exactly [`SessionSampler::draw`].
    ///
    /// # Errors
    /// Exactly as [`SessionSampler::draw`].
    pub fn draw_budgeted(
        &self,
        config: SamplerConfig,
        budget: Option<u64>,
    ) -> Result<(String, InferenceCost)> {
        let mut session = self.frozen.fork();
        let mut sampler = Sampler::new(config);
        let budget = budget.map(DecodeBudget::new);
        let out = generate_session_budgeted(
            session.as_mut(),
            &mut sampler,
            |t: TokenId| self.allowed[t as usize],
            &self.options,
            budget.as_ref(),
        );
        let text = self
            .tokenizer
            .decode(&out)
            .map_err(|e| pipeline_error("decode-continuation", e.to_string()))?;
        Ok((text, session.cost()))
    }
}

/// A completed robust run plus the engine context needed to resolve it
/// into a forecast.
#[derive(Debug, Clone)]
pub struct EngineRun {
    run: RobustRun,
    config: ForecastConfig,
    cost: InferenceCost,
}

impl EngineRun {
    /// Combines a robust run with the one-time prompt cost.
    pub(crate) fn new(run: RobustRun, config: ForecastConfig, prompt_cost: InferenceCost) -> Self {
        let mut cost = prompt_cost;
        cost.absorb(run.cost);
        Self { run, config, cost }
    }

    /// Total cost: one prompt pass plus every attempt's generated tokens.
    pub fn cost(&self) -> InferenceCost {
        self.cost
    }

    /// The run's accounting report.
    pub fn report(&self) -> &ForecastReport {
        &self.run.report
    }

    /// Whether enough valid samples survived to aggregate.
    pub fn quorum_met(&self) -> bool {
        self.run.quorum_met
    }

    /// The valid decoded samples (`sample -> dimension -> horizon`).
    pub fn samples(&self) -> &[Vec<Vec<f64>>] {
        &self.run.samples
    }

    /// Resolves the run into a forecast: pointwise median over the valid
    /// samples on quorum, the policy's fallback path otherwise. This is
    /// the single median/fallback sequencing site shared by the
    /// forecasters.
    pub fn resolve(
        &self,
        train: &MultivariateSeries,
        horizon: usize,
    ) -> Result<MultivariateSeries> {
        if self.run.quorum_met {
            let columns = median_aggregate(&self.run.samples)?;
            MultivariateSeries::from_columns(train.names().to_vec(), columns)
        } else {
            resolve_quorum_failure(self.config.robust, &self.run.report, train, horizon)
        }
    }

    /// Surrenders the report (forecasters stash it as `last_report`).
    pub fn into_report(self) -> ForecastReport {
        self.run.report
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::codec::DigitCodec;
    use crate::mux::MuxMethod;
    use crate::pipeline::run_continuation;
    use mc_datasets::generators::sinusoids;

    fn series(n: usize) -> MultivariateSeries {
        let a = sinusoids(n, &[(1.0, 12.0, 0.0)]);
        let b: Vec<f64> = a.iter().map(|&v| 4.0 + 0.5 * v).collect();
        MultivariateSeries::from_columns(vec!["a".into(), "b".into()], vec![a, b]).unwrap()
    }

    /// A header-only CSV parses to a zero-row history; both codecs must
    /// reject it with a typed error instead of panicking inside the fit.
    #[test]
    fn zero_row_history_is_a_typed_error_for_both_codecs() {
        use crate::codec::SaxCodec;
        use mc_sax::alphabet::{SaxAlphabet, SaxAlphabetKind};
        use mc_sax::encoder::SaxConfig;
        use mc_tslib::error::TsError;
        let train = mc_tslib::io::read_csv_str("a,b\n").unwrap();
        assert!(train.is_empty());
        let cfg = ForecastConfig::default();
        let engine = ForecastEngine::new(cfg);
        let alphabet = SaxAlphabet::new(SaxAlphabetKind::Alphabetic, 5).unwrap();
        let sax = SaxCodec { sax: SaxConfig { segment_len: 6, alphabet } };
        assert_eq!(engine.run(&sax, &train, 4).err(), Some(TsError::Empty));
        let digit = DigitCodec::from_config(MuxMethod::ValueInterleave, &cfg);
        assert_eq!(engine.run(&digit, &train, 4).err(), Some(TsError::Empty));
    }

    #[test]
    fn spec_matches_manual_assembly() {
        let train = series(48);
        let cfg = ForecastConfig::default();
        let engine = ForecastEngine::new(cfg);
        let codec = DigitCodec::from_config(MuxMethod::ValueInterleave, &cfg);
        let fitted = codec.fit_digit(&train).unwrap();
        let spec = engine.continuation_spec(&fitted, 6);
        assert_eq!(spec.prompt, fitted.prompt());
        assert_eq!(spec.allowed_chars, "0123456789,");
        assert_eq!(spec.preset, cfg.preset);
        assert_eq!(spec.separators, 6, "VI: one separator per horizon step");
        assert_eq!(spec.max_tokens, cfg.max_tokens(6, 2 * cfg.digits as usize));
    }

    /// A fit-once backend must draw the exact text a refit-per-sample
    /// `run_continuation` draws, while charging the prompt only at fit
    /// time — the whole point of the split.
    #[test]
    fn session_draw_is_bit_identical_to_run_continuation() {
        let train = series(48);
        let cfg = ForecastConfig::default();
        let engine = ForecastEngine::new(cfg);
        let fitted =
            DigitCodec::from_config(MuxMethod::ValueInterleave, &cfg).fit_digit(&train).unwrap();
        let spec = engine.continuation_spec(&fitted, 4);
        let backend = PreparedBackend::fit(&spec).unwrap();
        let sampler = backend.sampler(spec.separators, spec.max_tokens);
        for i in 0..3 {
            let sc = cfg.sampler_for(i);
            let (text_new, cost_new) = sampler.draw(sc).unwrap();
            let (text_old, cost_old) = run_continuation(&spec, sc).unwrap();
            assert_eq!(text_new, text_old, "sample {i}");
            assert_eq!(cost_new.generated_tokens, cost_old.generated_tokens);
            assert_eq!(cost_new.prompt_tokens, 0, "sessions never re-pay the prompt");
            assert_eq!(backend.prompt_cost().prompt_tokens, cost_old.prompt_tokens);
        }
    }

    /// `draw` (the non-robust path) reproduces `run_samples` semantics:
    /// deterministic, errors on zero samples, and the cost covers one
    /// prompt pass plus all sessions.
    #[test]
    fn draw_is_deterministic_and_prompt_counted_once() {
        let train = series(40);
        let cfg = ForecastConfig { samples: 3, ..ForecastConfig::default() };
        let engine = ForecastEngine::new(cfg);
        let codec = DigitCodec::from_config(MuxMethod::ValueConcat, &cfg);
        let (a, cost_a) = engine.draw(&codec, &train, 4, 3, |i| cfg.sampler_for(i)).unwrap();
        let (b, cost_b) = engine.draw(&codec, &train, 4, 3, |i| cfg.sampler_for(i)).unwrap();
        assert_eq!(a, b);
        assert_eq!(cost_a, cost_b);
        assert_eq!(a.len(), 3);
        // One prompt pass, not three.
        let fitted = codec.fit_digit(&train).unwrap();
        let spec = engine.continuation_spec(&fitted, 4);
        let prompt_len = spec.prompt.chars().count() as u64;
        assert_eq!(cost_a.prompt_tokens, prompt_len);
        let zero = engine.draw(&codec, &train, 4, 0, |i| cfg.sampler_for(i));
        assert!(zero.is_err());
    }
}
