//! Order statistics over timing samples.

/// The upper percentiles a tail metric may report, highest first.
const TAIL_LADDER: [f64; 6] = [0.99, 0.98, 0.95, 0.9, 0.75, 0.5];

/// Median (mean of the two middle values for an even count); 0 when empty.
pub fn median(values: &[f64]) -> f64 {
    if values.is_empty() {
        return 0.0;
    }
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let n = v.len();
    if n % 2 == 1 {
        v[n / 2]
    } else {
        (v[n / 2 - 1] + v[n / 2]) / 2.0
    }
}

/// Nearest-rank percentile `p` in `(0, 1]`; 0 when empty.
pub fn percentile(values: &[f64], p: f64) -> f64 {
    if values.is_empty() {
        return 0.0;
    }
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    v[rank(v.len(), p)]
}

fn rank(n: usize, p: f64) -> usize {
    ((p * n as f64).ceil() as usize).clamp(1, n) - 1
}

/// The highest percentile of [`TAIL_LADDER`] that leaves at least ten
/// samples beyond it, with its value; `(0.5, median)` below 20 samples.
pub fn tail(values: &[f64]) -> (f64, f64) {
    let n = values.len();
    if n == 0 {
        return (0.5, 0.0);
    }
    let p = TAIL_LADDER.iter().copied().find(|&p| n - rank(n, p) > 10).unwrap_or(0.5);
    (p, if p == 0.5 { median(values) } else { percentile(values, p) })
}

/// Samples per block of [`block_tail`]: enough for a p99 with ten
/// samples beyond it.
const TAIL_BLOCK: usize = 1000;

/// [`tail`] made robust to bursts of interference: `values` (in
/// measurement order) are cut into consecutive blocks of at least
/// [`TAIL_BLOCK`] samples, and the median of the blocks' tails is
/// returned with the percentile used. Below two blocks this is [`tail`].
pub fn block_tail(values: &[f64]) -> (f64, f64) {
    let blocks = (values.len() / TAIL_BLOCK).max(1);
    let size = values.len() / blocks;
    let tails: Vec<(f64, f64)> = (0..blocks)
        .map(|b| {
            let end = if b + 1 == blocks { values.len() } else { (b + 1) * size };
            tail(&values[b * size..end])
        })
        .collect();
    let values: Vec<f64> = tails.iter().map(|t| t.1).collect();
    (tails[0].0, median(&values))
}

/// Arithmetic mean; 0 when empty.
pub fn mean(values: &[f64]) -> f64 {
    if values.is_empty() {
        0.0
    } else {
        values.iter().sum::<f64>() / values.len() as f64
    }
}

/// `num / den`, or 0 when the denominator is 0.
pub fn ratio(num: f64, den: f64) -> f64 {
    if den == 0.0 {
        0.0
    } else {
        num / den
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn median_and_percentiles() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 2.0, 3.0]), 2.5);
        let v: Vec<f64> = (1..=100).map(f64::from).collect();
        assert_eq!(percentile(&v, 0.99), 99.0);
        assert_eq!(percentile(&v, 0.5), 50.0);
    }

    #[test]
    fn tail_keeps_ten_samples_beyond() {
        let v: Vec<f64> = (1..=2000).map(f64::from).collect();
        assert_eq!(tail(&v), (0.99, 1980.0));
        let v: Vec<f64> = (1..=200).map(f64::from).collect();
        assert_eq!(tail(&v), (0.95, 190.0));
        let v: Vec<f64> = (1..=5).map(f64::from).collect();
        assert_eq!(tail(&v), (0.5, 3.0));
    }

    #[test]
    fn block_tail_takes_the_median_block() {
        let mut v: Vec<f64> = (0..3000).map(|i| f64::from(i % 1000)).collect();
        // A burst in the last block moves its tail but not the median.
        v[2990..].iter_mut().for_each(|x| *x = 1e6);
        assert_eq!(block_tail(&v), (0.99, 989.0));
        assert_eq!(block_tail(&v[..500]), tail(&v[..500]));
    }
}
