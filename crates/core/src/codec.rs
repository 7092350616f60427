//! Composable serialization codecs for the [`crate::engine::ForecastEngine`].
//!
//! Every LLM-based forecaster in this crate follows the same ladder:
//! fit a representation on the history, serialize it into a prompt over a
//! small character vocabulary, sample constrained continuations, and decode
//! each continuation back to `dims x horizon` values. The only genuine
//! difference between the digit pipelines (MultiCast, LLMTime, streaming,
//! intervals) and the SAX pipeline is the *codec*: how values become
//! characters and back. This module captures that difference behind two
//! traits:
//!
//! - [`Codec`] — the unfitted configuration (`fit` consumes the training
//!   history and returns the stateful half);
//! - [`FittedCodec`] — everything the engine needs to prompt, constrain,
//!   validate and decode: the serialized prompt, the vocabulary, the
//!   output-character restriction, separator/width bookkeeping, and the
//!   inverse transform.
//!
//! Two implementations cover the whole crate: [`DigitCodec`] (rescale to
//! fixed-width integers + dimensional multiplexing — §III-A) and
//! [`SaxCodec`] (z-norm → PAA → Gaussian symbols — §III-B).

use mc_tslib::error::{Result, TsError};
use mc_tslib::series::MultivariateSeries;
use mc_tslib::transform::ZNormState;

use mc_lm::vocab::Vocab;

use mc_sax::alphabet::{SaxAlphabet, SaxAlphabetKind};
use mc_sax::encoder::{SaxConfig, SaxEncoder};

use crate::config::ForecastConfig;
use crate::mux::{Multiplexer, MuxMethod};
use crate::robust::SampleExpectations;
use crate::scaling::FixedDigitScaler;

/// The characters a digit-serialized group may contain.
pub const DIGIT_ALPHABET: &str = "0123456789";

/// The full output restriction of a digit-serialized stream: digits plus
/// the group separator (the paper's `[0-9,]` constraint).
pub const DIGIT_STREAM_CHARS: &str = "0123456789,";

/// An unfitted serialization scheme: fitting it on the training history
/// produces the stateful [`FittedCodec`] the engine runs with.
pub trait Codec {
    /// Fits the codec on `train` (scaler statistics, z-norm states, the
    /// serialized prompt) and returns the runnable half.
    fn fit(&self, train: &MultivariateSeries) -> Result<Box<dyn FittedCodec>>;
}

/// A codec fitted on a concrete history: serializer state plus the exact
/// inverse. `Send + Sync` because decode runs on the executor's workers.
pub trait FittedCodec: Send + Sync {
    /// The serialized history (ends with a separator, so a continuation
    /// appended to it starts a fresh group).
    fn prompt(&self) -> &str;

    /// The vocabulary the backend speaks.
    fn vocab(&self) -> Vocab;

    /// Characters the continuation may contain (output restriction).
    fn allowed_chars(&self) -> String;

    /// Dimensions of the fitted history.
    fn dims(&self) -> usize;

    /// Separator emissions after which a `horizon`-step continuation is
    /// complete (the generation stop rule).
    fn separators_for(&self, horizon: usize) -> usize;

    /// Characters per comma-separated group.
    fn group_width(&self) -> usize;

    /// Non-separator characters the decode path understands.
    fn alphabet(&self) -> String;

    /// Whether groups must be pure ASCII digits.
    fn numeric(&self) -> bool;

    /// Decodes a continuation back to `dims x horizon` values (lenient on
    /// malformed text — repairs are the validator's business to report).
    fn decode(&self, text: &str, horizon: usize) -> Result<Vec<Vec<f64>>>;

    /// What a well-formed continuation looks like, for the robust layer.
    /// This is the single construction site of [`SampleExpectations`] in
    /// the production pipeline.
    fn expectations(&self, horizon: usize) -> SampleExpectations {
        SampleExpectations {
            separators: self.separators_for(horizon),
            group_width: self.group_width(),
            alphabet: self.alphabet(),
            numeric: self.numeric(),
            dims: self.dims(),
            horizon,
        }
    }
}

/// The digit codec: per-dimension fixed-width rescaling plus one of the
/// paper's three multiplexing schemes (§III-A, Figure 1).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct DigitCodec {
    /// Which multiplexing scheme serializes the dimensions.
    pub method: MuxMethod,
    /// Digits per rescaled value (`b` in formulas (1)–(3)).
    pub digits: u32,
    /// Rescaling headroom fraction.
    pub headroom: f64,
}

impl DigitCodec {
    /// The codec a [`ForecastConfig`] implies for a multiplexing method.
    pub fn from_config(method: MuxMethod, config: &ForecastConfig) -> Self {
        Self { method, digits: config.digits, headroom: config.headroom }
    }

    /// Fits to the concrete type (the streaming forecaster needs
    /// [`FittedDigitCodec::encode_row`], which the trait does not expose).
    pub fn fit_digit(&self, train: &MultivariateSeries) -> Result<FittedDigitCodec> {
        let dims = train.dims();
        let scaler = FixedDigitScaler::fit(train.columns(), self.digits, self.headroom)?;
        let mut codes = Vec::with_capacity(dims);
        for d in 0..dims {
            codes.push(scaler.scale_column(d, train.column(d)?)?);
        }
        let mux = self.method.build();
        let prompt = mux.mux(&codes, self.digits);
        Ok(FittedDigitCodec { method: self.method, digits: self.digits, scaler, mux, prompt, dims })
    }
}

impl Codec for DigitCodec {
    fn fit(&self, train: &MultivariateSeries) -> Result<Box<dyn FittedCodec>> {
        Ok(Box::new(self.fit_digit(train)?))
    }
}

/// A [`DigitCodec`] fitted on a history: the scaler statistics, the
/// multiplexer and the serialized prompt.
pub struct FittedDigitCodec {
    method: MuxMethod,
    digits: u32,
    scaler: FixedDigitScaler,
    mux: Box<dyn Multiplexer>,
    prompt: String,
    dims: usize,
}

impl FittedDigitCodec {
    /// Serializes one new row with the fitted scaler — the streaming
    /// forecaster's incremental encode path (O(tokens-per-row)).
    pub fn encode_row(&self, row: &[f64]) -> Result<String> {
        let codes: Vec<Vec<u64>> = row
            .iter()
            .enumerate()
            .map(|(d, &v)| Ok(vec![self.scaler.scale_value(d, v)?]))
            .collect::<Result<_>>()?;
        Ok(self.mux.mux(&codes, self.digits))
    }
}

impl FittedCodec for FittedDigitCodec {
    fn prompt(&self) -> &str {
        &self.prompt
    }

    fn vocab(&self) -> Vocab {
        Vocab::numeric()
    }

    fn allowed_chars(&self) -> String {
        DIGIT_STREAM_CHARS.to_string()
    }

    fn dims(&self) -> usize {
        self.dims
    }

    fn separators_for(&self, horizon: usize) -> usize {
        self.mux.separators_for(self.dims, horizon)
    }

    fn group_width(&self) -> usize {
        self.method.group_width(self.dims, self.digits)
    }

    fn alphabet(&self) -> String {
        DIGIT_ALPHABET.to_string()
    }

    fn numeric(&self) -> bool {
        true
    }

    fn decode(&self, text: &str, horizon: usize) -> Result<Vec<Vec<f64>>> {
        let codes = self.mux.demux(text, self.dims, self.digits, horizon);
        codes.iter().enumerate().map(|(d, col)| self.scaler.descale_column(d, col)).collect()
    }
}

/// The SAX codec: z-normalize → PAA → Gaussian-breakpoint symbols per
/// dimension, symbols of all dimensions interleaved segment-major
/// (§III-B, Tables VIII–IX).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct SaxCodec {
    /// SAX knobs (segment length, alphabet kind and size).
    pub sax: SaxConfig,
}

impl Codec for SaxCodec {
    /// # Errors
    /// [`TsError::Empty`] on a zero-row history (z-normalization needs at
    /// least one value per dimension).
    fn fit(&self, train: &MultivariateSeries) -> Result<Box<dyn FittedCodec>> {
        if train.is_empty() {
            return Err(TsError::Empty);
        }
        let dims = train.dims();
        let encoder = SaxEncoder::new(self.sax);
        // Encode every dimension; remember its z-norm state for decoding.
        let mut words = Vec::with_capacity(dims);
        let mut states: Vec<ZNormState> = Vec::with_capacity(dims);
        for d in 0..dims {
            let enc = encoder.encode(train.column(d)?);
            states.push(enc.znorm);
            words.push(enc.symbols);
        }
        let prompt = mux_symbols(&words, self.sax.alphabet);
        Ok(Box::new(FittedSaxCodec { sax: self.sax, encoder, states, prompt, dims }))
    }
}

/// A [`SaxCodec`] fitted on a history: the per-dimension z-norm states and
/// the symbol-interleaved prompt.
pub struct FittedSaxCodec {
    sax: SaxConfig,
    encoder: SaxEncoder,
    states: Vec<ZNormState>,
    prompt: String,
    dims: usize,
}

impl FittedCodec for FittedSaxCodec {
    fn prompt(&self) -> &str {
        &self.prompt
    }

    fn vocab(&self) -> Vocab {
        match self.sax.alphabet.kind() {
            SaxAlphabetKind::Alphabetic => Vocab::sax_alphabetic(self.sax.alphabet.size()),
            SaxAlphabetKind::Digital => Vocab::sax_digital(self.sax.alphabet.size()),
        }
    }

    fn allowed_chars(&self) -> String {
        self.sax.alphabet.chars().chain([',']).collect()
    }

    fn dims(&self) -> usize {
        self.dims
    }

    fn separators_for(&self, horizon: usize) -> usize {
        horizon.div_ceil(self.sax.segment_len)
    }

    fn group_width(&self) -> usize {
        self.dims
    }

    /// SAX streams are validated against the *actual* alphabet (not the
    /// full digit charset), so a digital alphabet of size 5 still flags
    /// '7' as out-of-band.
    fn alphabet(&self) -> String {
        self.sax.alphabet.chars().collect()
    }

    fn numeric(&self) -> bool {
        false
    }

    fn decode(&self, text: &str, horizon: usize) -> Result<Vec<Vec<f64>>> {
        let segments = self.separators_for(horizon);
        let words = demux_symbols(text, self.dims, self.sax.alphabet, segments);
        Ok(words
            .iter()
            .zip(&self.states)
            .map(|(w, &st)| {
                let mut expanded =
                    self.encoder.decode_expanded(w, st, segments * self.sax.segment_len);
                expanded.truncate(horizon);
                expanded
            })
            .collect())
    }
}

/// Serializes per-dimension SAX words, segment-major:
/// segment `s` contributes the symbols of every dimension, then a comma.
pub(crate) fn mux_symbols(words: &[Vec<usize>], alphabet: SaxAlphabet) -> String {
    let n = words.first().map_or(0, Vec::len);
    let mut out = String::with_capacity(n * (words.len() + 1));
    for s in 0..n {
        for w in words {
            out.push(alphabet.symbol(w[s]));
        }
        out.push(',');
    }
    out
}

/// Parses a generated continuation into per-dimension symbol indices,
/// leniently (wrong-width groups repaired, missing segments repeated).
pub(crate) fn demux_symbols(
    text: &str,
    dims: usize,
    alphabet: SaxAlphabet,
    segments: usize,
) -> Vec<Vec<usize>> {
    let mid = alphabet.size() / 2;
    let mut out = vec![Vec::with_capacity(segments); dims];
    for group in text.split(',').map(str::trim).filter(|g| !g.is_empty()).take(segments) {
        let symbols: Vec<usize> = group.chars().filter_map(|c| alphabet.index(c)).collect();
        for (d, col) in out.iter_mut().enumerate() {
            let sym = symbols.get(d).copied().or_else(|| col.last().copied()).unwrap_or(mid);
            col.push(sym);
        }
    }
    for col in &mut out {
        let fill = col.last().copied().unwrap_or(mid);
        while col.len() < segments {
            col.push(fill);
        }
        col.truncate(segments);
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use mc_datasets::generators::sinusoids;

    fn series(n: usize) -> MultivariateSeries {
        let a = sinusoids(n, &[(1.0, 12.0, 0.0)]);
        let b: Vec<f64> = a.iter().map(|&v| 10.0 - 3.0 * v).collect();
        MultivariateSeries::from_columns(vec!["a".into(), "b".into()], vec![a, b]).unwrap()
    }

    #[test]
    fn mux_symbols_format() {
        let alphabet = SaxAlphabet::new(SaxAlphabetKind::Alphabetic, 5).unwrap();
        let s = mux_symbols(&[vec![0, 1], vec![1, 2]], alphabet);
        assert_eq!(s, "ab,bc,");
    }

    #[test]
    fn demux_symbols_round_trip() {
        let alphabet = SaxAlphabet::new(SaxAlphabetKind::Alphabetic, 5).unwrap();
        let words = vec![vec![0, 1, 4], vec![2, 2, 0]];
        let text = mux_symbols(&words, alphabet);
        assert_eq!(demux_symbols(&text, 2, alphabet, 3), words);
    }

    #[test]
    fn demux_symbols_repairs_malformed() {
        let alphabet = SaxAlphabet::new(SaxAlphabetKind::Alphabetic, 5).unwrap();
        // Second group is short one dimension, third is missing entirely.
        let words = demux_symbols("ab,c,", 2, alphabet, 3);
        assert_eq!(words[0], vec![0, 2, 2]);
        // Dim 1 falls back to its previous symbol (b), then repeats.
        assert_eq!(words[1], vec![1, 1, 1]);
    }

    #[test]
    fn digit_codec_matches_manual_assembly() {
        let train = series(48);
        let cfg = ForecastConfig::default();
        for method in MuxMethod::ALL {
            let fitted = DigitCodec::from_config(method, &cfg).fit_digit(&train).unwrap();
            // The prompt is exactly scaler + mux applied by hand.
            let scaler = FixedDigitScaler::fit(train.columns(), cfg.digits, cfg.headroom).unwrap();
            let codes: Vec<Vec<u64>> =
                (0..2).map(|d| scaler.scale_column(d, train.column(d).unwrap()).unwrap()).collect();
            assert_eq!(fitted.prompt(), method.build().mux(&codes, cfg.digits));
            assert_eq!(fitted.dims(), 2);
            assert_eq!(fitted.group_width(), method.group_width(2, cfg.digits));
            assert_eq!(fitted.separators_for(4), method.build().separators_for(2, 4));
            let expect = fitted.expectations(4);
            assert!(expect.numeric);
            assert_eq!(expect.alphabet, DIGIT_ALPHABET);
            // Decoding the prompt itself recovers the (quantized) history.
            let decoded = fitted.decode(fitted.prompt(), train.len()).unwrap();
            assert_eq!(decoded.len(), 2);
            assert_eq!(decoded[0].len(), train.len());
        }
    }

    #[test]
    fn digit_codec_encode_row_matches_prompt_tail() {
        let train = series(32);
        let cfg = ForecastConfig::default();
        let fitted =
            DigitCodec::from_config(MuxMethod::ValueInterleave, &cfg).fit_digit(&train).unwrap();
        // Re-encoding the last row reproduces the prompt's final group.
        let last = train.row(train.len() - 1).unwrap();
        let tail = fitted.encode_row(&last).unwrap();
        assert!(fitted.prompt().ends_with(&tail), "{tail} should end the prompt");
    }

    #[test]
    fn sax_codec_matches_pipeline_conventions() {
        let train = series(60);
        let sax = SaxConfig {
            segment_len: 6,
            alphabet: SaxAlphabet::new(SaxAlphabetKind::Alphabetic, 5).unwrap(),
        };
        let fitted = SaxCodec { sax }.fit(&train).unwrap();
        assert_eq!(fitted.group_width(), 2, "one symbol per dimension per segment");
        assert_eq!(fitted.separators_for(10), 2, "10 steps = 2 segments of 6");
        assert!(!fitted.numeric());
        assert_eq!(fitted.alphabet(), "abcde");
        assert_eq!(fitted.allowed_chars(), "abcde,");
        // Horizon not a segment multiple: decode truncates to the horizon.
        let decoded = fitted.decode("ab,cd,", 10).unwrap();
        assert_eq!(decoded.len(), 2);
        assert!(decoded.iter().all(|col| col.len() == 10));
    }
}
