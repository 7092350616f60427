//! Fixed-digit rescaling (paper §III-A: "after each dimension has been
//! rescaled to avoid decimals").
//!
//! Each dimension is affinely mapped into `[0, 10^b - 1]` and rounded, so
//! every timestamp serializes to **exactly `b` digit characters**
//! (zero-padded). The fixed width is not cosmetic: the DI and VI
//! demultiplexers can only invert the token stream if every value
//! contributes the same digit count — formulas (1)–(3) in the paper all
//! assume `b` digits per timestamp.
//!
//! A configurable *headroom* extends the observed range before mapping so
//! the forecast can move beyond the training extremes without clipping
//! (the LLM may legitimately continue a trend past the historical max).

use mc_tslib::error::{invalid_param, Result, TsError};

/// Per-dimension affine scaler into fixed-width integers.
#[derive(Debug, Clone, PartialEq)]
pub struct FixedDigitScaler {
    /// Digits per value (`b` in the paper's formulas).
    digits: u32,
    /// Lower bound of the mapped range, per dimension.
    lo: Vec<f64>,
    /// Upper bound of the mapped range, per dimension.
    hi: Vec<f64>,
}

impl FixedDigitScaler {
    /// Fits a scaler to the columns of a series.
    ///
    /// `headroom` is the fraction of the observed range added on both ends
    /// (0.15 is the library default, see [`crate::config::ForecastConfig`]).
    ///
    /// # Errors
    /// If `digits` is 0 or > 9, any column is empty, contains non-finite
    /// values, or spans a range whose headroom-widened bounds overflow
    /// `f64`.
    pub fn fit(columns: &[Vec<f64>], digits: u32, headroom: f64) -> Result<Self> {
        if digits == 0 || digits > 9 {
            return Err(invalid_param("digits", format!("{digits} not in 1..=9")));
        }
        if !(0.0..=10.0).contains(&headroom) {
            return Err(invalid_param("headroom", format!("{headroom} not in [0, 10]")));
        }
        if columns.is_empty() {
            return Err(TsError::Empty);
        }
        let mut lo = Vec::with_capacity(columns.len());
        let mut hi = Vec::with_capacity(columns.len());
        for col in columns {
            if col.is_empty() {
                return Err(TsError::Empty);
            }
            if col.iter().any(|v| !v.is_finite()) {
                return Err(invalid_param("values", "non-finite value in series"));
            }
            let (mut mn, mut mx) = (f64::MAX, f64::MIN);
            for &v in col {
                mn = mn.min(v);
                mx = mx.max(v);
            }
            let range = (mx - mn).max(1e-9);
            let (l, h) = (mn - headroom * range, mx + headroom * range);
            // Every code maps through `hi - lo`; a non-finite span (which
            // includes infinite or NaN bounds) would scale everything to 0
            // and descale everything to NaN.
            if !(h - l).is_finite() {
                return Err(invalid_param(
                    "values",
                    format!("range [{mn}, {mx}] with headroom {headroom} overflows f64"),
                ));
            }
            lo.push(l);
            hi.push(h);
        }
        Ok(Self { digits, lo, hi })
    }

    /// Digits per value.
    pub fn digits(&self) -> u32 {
        self.digits
    }

    /// Number of dimensions this scaler was fitted on.
    pub fn dims(&self) -> usize {
        self.lo.len()
    }

    /// Largest representable integer (`10^b - 1`).
    pub fn max_int(&self) -> u64 {
        10u64.pow(self.digits) - 1
    }

    /// Scales one value of dimension `d` to its integer code (clamped to
    /// the representable range).
    pub fn scale_value(&self, d: usize, v: f64) -> Result<u64> {
        self.check_dim(d)?;
        let frac = (v - self.lo[d]) / (self.hi[d] - self.lo[d]);
        let code = (frac * self.max_int() as f64).round();
        Ok(code.clamp(0.0, self.max_int() as f64) as u64)
    }

    /// Inverse of [`Self::scale_value`]; codes beyond the digit budget are
    /// clamped first (defensive against malformed LLM output).
    pub fn descale_value(&self, d: usize, code: u64) -> Result<f64> {
        self.check_dim(d)?;
        let code = code.min(self.max_int());
        let frac = code as f64 / self.max_int() as f64;
        Ok(self.lo[d] + frac * (self.hi[d] - self.lo[d]))
    }

    /// Scales a whole column.
    pub fn scale_column(&self, d: usize, col: &[f64]) -> Result<Vec<u64>> {
        col.iter().map(|&v| self.scale_value(d, v)).collect()
    }

    /// Descales a whole column of codes.
    pub fn descale_column(&self, d: usize, codes: &[u64]) -> Result<Vec<f64>> {
        codes.iter().map(|&c| self.descale_value(d, c)).collect()
    }

    /// Quantization step of dimension `d` (the worst-case round-trip error
    /// is half of this).
    pub fn step(&self, d: usize) -> Result<f64> {
        self.check_dim(d)?;
        Ok((self.hi[d] - self.lo[d]) / self.max_int() as f64)
    }

    fn check_dim(&self, d: usize) -> Result<()> {
        if d >= self.lo.len() {
            return Err(TsError::DimensionOutOfBounds { dim: d, dims: self.lo.len() });
        }
        Ok(())
    }
}

/// Renders an integer code as exactly `digits` zero-padded characters.
pub fn format_code(code: u64, digits: u32) -> String {
    format!("{code:0width$}", width = digits as usize)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn round_trip_error_bounded_by_step() {
        let col: Vec<f64> = (0..50).map(|t| 40.0 + (t as f64 * 0.3).sin() * 7.0).collect();
        let s = FixedDigitScaler::fit(std::slice::from_ref(&col), 3, 0.15).unwrap();
        let step = s.step(0).unwrap();
        for &v in &col {
            let code = s.scale_value(0, v).unwrap();
            let back = s.descale_value(0, code).unwrap();
            assert!((back - v).abs() <= step / 2.0 + 1e-12, "v={v} back={back} step={step}");
        }
    }

    #[test]
    fn codes_fit_digit_budget() {
        let col = vec![-5.0, 0.0, 5.0];
        for digits in 1..=4u32 {
            let s = FixedDigitScaler::fit(std::slice::from_ref(&col), digits, 0.0).unwrap();
            for &v in &col {
                let code = s.scale_value(0, v).unwrap();
                assert!(code <= s.max_int());
                assert_eq!(format_code(code, digits).len(), digits as usize);
            }
        }
    }

    #[test]
    fn headroom_leaves_room_beyond_extremes() {
        let col = vec![0.0, 10.0];
        let s = FixedDigitScaler::fit(&[col], 3, 0.15).unwrap();
        // Values moderately outside the training range stay distinguishable.
        let over = s.scale_value(0, 11.0).unwrap();
        let max = s.scale_value(0, 10.0).unwrap();
        assert!(over > max, "headroom must leave codes above the train max");
        assert!(over < s.max_int(), "11.0 is inside the 15% headroom band");
        // Far outside clamps.
        assert_eq!(s.scale_value(0, 1e9).unwrap(), s.max_int());
        assert_eq!(s.scale_value(0, -1e9).unwrap(), 0);
    }

    #[test]
    fn zero_padding_is_fixed_width() {
        assert_eq!(format_code(7, 3), "007");
        assert_eq!(format_code(42, 3), "042");
        assert_eq!(format_code(999, 3), "999");
        assert_eq!(format_code(7, 1), "7");
    }

    #[test]
    fn constant_column_does_not_collapse() {
        let s = FixedDigitScaler::fit(&[vec![5.0, 5.0, 5.0]], 2, 0.15).unwrap();
        let code = s.scale_value(0, 5.0).unwrap();
        let back = s.descale_value(0, code).unwrap();
        assert!((back - 5.0).abs() < 1e-6);
    }

    #[test]
    fn per_dimension_independence() {
        let s = FixedDigitScaler::fit(&[vec![0.0, 1.0], vec![100.0, 200.0]], 3, 0.0).unwrap();
        assert_eq!(s.dims(), 2);
        // Same physical value scales differently per dimension.
        let a = s.scale_value(0, 0.5).unwrap();
        let b = s.scale_value(1, 150.0).unwrap();
        assert_eq!(a, 500); // midpoint of dim 0
        assert_eq!(b, 500); // midpoint of dim 1
        assert!(s.scale_value(2, 1.0).is_err());
    }

    #[test]
    fn invalid_parameters_rejected() {
        assert!(FixedDigitScaler::fit(&[vec![1.0]], 0, 0.1).is_err());
        assert!(FixedDigitScaler::fit(&[vec![1.0]], 10, 0.1).is_err());
        assert!(FixedDigitScaler::fit(&[vec![1.0]], 3, -0.1).is_err());
        assert!(FixedDigitScaler::fit(&[], 3, 0.1).is_err());
        assert!(FixedDigitScaler::fit(&[vec![]], 3, 0.1).is_err());
        assert!(FixedDigitScaler::fit(&[vec![f64::NAN]], 3, 0.1).is_err());
    }

    #[test]
    fn huge_ranges_that_overflow_after_headroom_are_rejected() {
        for headroom in [0.0, 0.15] {
            let err = FixedDigitScaler::fit(&[vec![-1e308, 1e308]], 3, headroom).unwrap_err();
            assert!(err.to_string().contains("overflows f64"), "{err}");
        }
        // Finite bounds whose span still overflows are rejected too.
        assert!(FixedDigitScaler::fit(&[vec![-0.8e308, 0.8e308]], 3, 0.15).is_err());
        // Huge but representable ranges still fit and round-trip.
        let s = FixedDigitScaler::fit(&[vec![-1e307, 1e307]], 3, 0.15).unwrap();
        let back = s.descale_value(0, s.scale_value(0, 1e307).unwrap()).unwrap();
        assert!(back.is_finite() && (back - 1e307).abs() <= s.step(0).unwrap());
    }

    #[test]
    fn descale_clamps_overflow_codes() {
        let s = FixedDigitScaler::fit(&[vec![0.0, 1.0]], 2, 0.0).unwrap();
        let at_max = s.descale_value(0, 99).unwrap();
        let beyond = s.descale_value(0, 10_000).unwrap();
        assert_eq!(at_max, beyond);
    }
}
