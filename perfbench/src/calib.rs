//! Machine-speed calibration.
//!
//! On a shared virtual machine the same binary runs 10–20% faster or
//! slower from one minute to the next. A fixed kernel (hash-map counting,
//! allocation, sort; no code of the program under test) timed between
//! operations measures that drift, and every reported time is scaled to
//! the speed at which the kernel takes [`REFERENCE_US`]. Across runs the
//! scaled times spread less than the raw ones; the table prints both.

use std::collections::HashMap;
use std::hash::{BuildHasherDefault, DefaultHasher};
use std::time::{Duration, Instant};

/// Kernel time the reported times are scaled to: the kernel's median on
/// the 2-vCPU guest the bounds in `BENCHMARK.json` were measured on, so
/// scaled times there read like raw ones.
pub const REFERENCE_US: f64 = 850.0;

/// Minimum measured-phase time between two kernel timings.
const INTERVAL: Duration = Duration::from_millis(50);

/// One run of the kernel, in microseconds.
fn kernel_us() -> f64 {
    let t = Instant::now();
    let mut counts: HashMap<u64, u64, BuildHasherDefault<DefaultHasher>> = HashMap::default();
    let mut x = 0x2545_f491_4f6c_dd1d_u64;
    for _ in 0..20_000 {
        x = x.wrapping_mul(6_364_136_223_846_793_005).wrapping_add(1_442_695_040_888_963_407);
        *counts.entry((x >> 33) % 5_000).or_insert(0) += 1;
    }
    let mut values: Vec<f64> = counts.values().map(|&c| c as f64 * 1.37).collect();
    values.sort_by(f64::total_cmp);
    std::hint::black_box(&values);
    t.elapsed().as_secs_f64() * 1e6
}

/// Kernel timings taken through a run.
#[derive(Debug, Clone, Default)]
pub struct Calibration {
    samples: Vec<f64>,
    last: Option<Instant>,
}

impl Calibration {
    /// Times the kernel if [`INTERVAL`] has passed since the last timing.
    /// Called between operations, never inside a timed one.
    pub fn tick(&mut self) {
        if self.last.is_none_or(|t| t.elapsed() >= INTERVAL) {
            self.samples.push(kernel_us());
            self.last = Some(Instant::now());
        }
    }

    /// Median kernel time (µs) and the number of timings.
    pub fn median_us(&self) -> (f64, usize) {
        (crate::stats::median(&self.samples), self.samples.len())
    }

    /// The factor that scales a time measured in this run to reference
    /// speed (1 when nothing was timed).
    pub fn scale(&self) -> f64 {
        match self.median_us() {
            (_, 0) => 1.0,
            (median, _) => REFERENCE_US / median,
        }
    }
}
