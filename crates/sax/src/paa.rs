//! Piecewise Aggregate Approximation (Keogh et al., 2001; Yi & Faloutsos,
//! 2000 — the paper's refs \[30\], \[31\]).
//!
//! PAA compresses a series on the x-axis by replacing each block of
//! `segment_len` consecutive values with their mean. The paper's "SAX
//! segment length" parameter (Table II: 3, 6, 9) is exactly this block
//! size; larger blocks mean fewer segments, fewer symbols, fewer tokens.

/// PAA with a fixed *segment length* (block size).
///
/// A trailing partial block is averaged over its actual length, so every
/// input point contributes to exactly one coefficient.
///
/// # Panics
/// If `segment_len == 0` or `xs` is empty.
pub fn paa(xs: &[f64], segment_len: usize) -> Vec<f64> {
    assert!(segment_len > 0, "segment_len must be positive");
    assert!(!xs.is_empty(), "PAA of an empty series");
    xs.chunks(segment_len).map(|c| c.iter().sum::<f64>() / c.len() as f64).collect()
}

/// Expands PAA coefficients back to the original sampling rate by holding
/// each coefficient for its block ("staircase" reconstruction).
///
/// `original_len` controls the final partial block, matching [`paa`]'s
/// chunking; the result always has exactly `original_len` values.
///
/// # Panics
/// If the coefficient count is inconsistent with
/// `ceil(original_len / segment_len)`.
pub fn inverse_paa(coeffs: &[f64], segment_len: usize, original_len: usize) -> Vec<f64> {
    assert!(segment_len > 0, "segment_len must be positive");
    let expected = original_len.div_ceil(segment_len);
    assert_eq!(
        coeffs.len(),
        expected,
        "coefficient count {} inconsistent with length {original_len} / segment {segment_len}",
        coeffs.len()
    );
    let mut out = Vec::with_capacity(original_len);
    for (i, &c) in coeffs.iter().enumerate() {
        let block = segment_len.min(original_len - i * segment_len);
        out.extend(std::iter::repeat_n(c, block));
    }
    out
}

/// Mean squared reconstruction error of a PAA round trip; used by tests and
/// the ablation harness to quantify the x-axis information loss the paper
/// discusses ("quantizing the time series leads to a loss of information").
pub fn reconstruction_mse(xs: &[f64], segment_len: usize) -> f64 {
    let rec = inverse_paa(&paa(xs, segment_len), segment_len, xs.len());
    xs.iter().zip(&rec).map(|(a, b)| (a - b) * (a - b)).sum::<f64>() / xs.len() as f64
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn paa_averages_blocks() {
        let xs = [1.0, 3.0, 5.0, 7.0, 9.0, 11.0];
        assert_eq!(paa(&xs, 2), vec![2.0, 6.0, 10.0]);
        assert_eq!(paa(&xs, 3), vec![3.0, 9.0]);
        assert_eq!(paa(&xs, 6), vec![6.0]);
    }

    #[test]
    fn paa_partial_tail_block() {
        let xs = [2.0, 4.0, 6.0, 10.0];
        assert_eq!(paa(&xs, 3), vec![4.0, 10.0]);
    }

    #[test]
    fn paa_segment_one_is_identity() {
        let xs = [1.5, -2.0, 3.25];
        assert_eq!(paa(&xs, 1), xs.to_vec());
    }

    #[test]
    fn inverse_expands_staircase() {
        let rec = inverse_paa(&[2.0, 6.0], 2, 4);
        assert_eq!(rec, vec![2.0, 2.0, 6.0, 6.0]);
        let rec = inverse_paa(&[4.0, 10.0], 3, 4);
        assert_eq!(rec, vec![4.0, 4.0, 4.0, 10.0]);
    }

    #[test]
    fn round_trip_preserves_block_means() {
        let xs = [1.0, 2.0, 3.0, 4.0, 5.0, 6.0, 7.0];
        let rec = inverse_paa(&paa(&xs, 3), 3, xs.len());
        assert_eq!(rec.len(), xs.len());
        // Each reconstructed block holds the block mean.
        assert_eq!(&rec[..3], &[2.0, 2.0, 2.0]);
        assert_eq!(&rec[3..6], &[5.0, 5.0, 5.0]);
        assert_eq!(rec[6], 7.0);
    }

    #[test]
    fn constant_series_reconstructs_exactly() {
        let xs = [4.2; 10];
        assert_eq!(reconstruction_mse(&xs, 3), 0.0);
    }

    #[test]
    fn coarser_segments_lose_more() {
        let xs: Vec<f64> = (0..60).map(|t| (t as f64 * 0.7).sin()).collect();
        let e3 = reconstruction_mse(&xs, 3);
        let e6 = reconstruction_mse(&xs, 6);
        let e9 = reconstruction_mse(&xs, 9);
        assert!(e3 <= e6 && e6 <= e9, "loss must grow with segment: {e3} {e6} {e9}");
        assert!(e3 > 0.0);
    }

    #[test]
    #[should_panic(expected = "inconsistent")]
    fn inverse_checks_count() {
        inverse_paa(&[1.0, 2.0, 3.0], 2, 4);
    }

    #[test]
    #[should_panic(expected = "empty")]
    fn paa_rejects_empty() {
        paa(&[], 2);
    }
}
