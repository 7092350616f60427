//! Seeded workload inputs. The series are the repository's three paper
//! datasets as their generators produce them by default; everything a
//! run picks from them derives from the `--seed` argument: the same seed
//! gives the same window order, streams, request mix and sampler seeds.

use mc_datasets::PaperDataset;
use mc_tslib::series::MultivariateSeries;

/// History length of an engine forecast window.
pub const HISTORY: usize = 144;
/// Forecast horizon of the engine workloads.
pub const HORIZON: usize = 24;

/// Streams of the serve workload (more than the cache holds).
pub const STREAMS: usize = 12;
/// Cache capacity of the serve workload, below [`STREAMS`].
pub const CACHE_CAPACITY: usize = 10;
/// Requests per flush.
pub const BATCH: usize = 8;
/// History length a stream starts from (and returns to after its last
/// advance).
const STREAM_BASE: usize = 96;
/// Points appended by one advance.
const STREAM_STEP: usize = 6;
/// Advances before a stream returns to its base history.
const STREAM_ADVANCES: usize = 8;
/// Stream `k` is requested with weight `(k + 1)^-ZIPF_EXPONENT`.
const ZIPF_EXPONENT: f64 = 1.5;
/// Horizons a serve request draws from.
const SERVE_HORIZONS: [usize; 3] = [8, 16, 24];

/// SplitMix64: a tiny deterministic generator for workload choices.
#[derive(Debug, Clone)]
pub struct Rng(u64);

impl Rng {
    pub fn new(seed: u64) -> Self {
        Self(seed)
    }

    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    }

    /// Uniform in `0..n` (`n > 0`).
    pub fn below(&mut self, n: usize) -> usize {
        (self.next_u64() % n as u64) as usize
    }

    /// A fresh stream of choices derived from this seed and `salt`.
    pub fn fork(seed: u64, salt: u64) -> Self {
        let mut r = Rng::new(seed ^ salt.wrapping_mul(0xa076_1d64_78bd_642f));
        r.next_u64();
        r
    }
}

/// `0..n` in a seeded random order.
fn shuffled(n: usize, rng: &mut Rng) -> Vec<usize> {
    let mut order: Vec<usize> = (0..n).collect();
    for i in (1..n).rev() {
        order.swap(i, rng.below(i + 1));
    }
    order
}

/// One rolling-origin window: the history a forecast conditions on and
/// the held-out values it is scored against.
pub struct Window {
    pub train: MultivariateSeries,
    pub test: MultivariateSeries,
}

/// Rolling-origin windows over Gas Rate, Electricity and Weather, one
/// shuffled list per dataset. Operation `i` uses dataset `i % 3`, so
/// every run sees the same dataset mix whatever its length.
pub struct WindowPool {
    per_dataset: Vec<Vec<Window>>,
    seed: u64,
}

impl WindowPool {
    pub fn generate(seed: u64) -> Self {
        let per_dataset = PaperDataset::ALL
            .iter()
            .enumerate()
            .map(|(k, d)| {
                let mut rng = Rng::fork(seed, 1 + k as u64);
                let series = d.load();
                shuffled(series.len() - HISTORY - HORIZON + 1, &mut rng)
                    .into_iter()
                    .map(|o| Window {
                        train: series.slice(o, o + HISTORY).expect("origin within series"),
                        test: series
                            .slice(o + HISTORY, o + HISTORY + HORIZON)
                            .expect("horizon within series"),
                    })
                    .collect()
            })
            .collect();
        Self { per_dataset, seed }
    }

    /// The window operation `i` forecasts.
    pub fn window(&self, i: usize) -> &Window {
        let list = &self.per_dataset[i % self.per_dataset.len()];
        &list[(i / self.per_dataset.len()) % list.len()]
    }

    /// The sampler base seed of operation `i`.
    pub fn op_seed(&self, i: usize) -> u64 {
        Rng::fork(self.seed, 1_000_003 + i as u64).next_u64()
    }
}

/// One serve request as the benchmark plans it: which stream, how much
/// of its history, which horizon and sampler seed.
#[derive(Debug, Clone, Copy)]
pub struct Planned {
    pub stream: usize,
    pub len: usize,
    pub horizon: usize,
    pub seed: u64,
}

impl Planned {
    /// Index of the dataset the stream is a window of.
    pub fn dataset(&self) -> usize {
        self.stream % PaperDataset::ALL.len()
    }
}

/// The serve workload's streams and its closed-loop request mix. The
/// streams are fixed windows of the datasets; the seed drives the mix.
///
/// Stream `k` is requested with a Zipf weight, so a few streams
/// stay hot while the tail is evicted from a cache smaller than the
/// stream count (misses). Repeated histories with new horizons and seeds
/// are reads (in-flush dedup, cross-flush hits). Before every flush the
/// first stream of the batch advances by a few points, a write that the
/// cache serves by incremental refit; after its last advance a stream
/// returns to its base history, which misses.
pub struct Traffic {
    streams: Vec<MultivariateSeries>,
    lens: Vec<usize>,
    cumulative: Vec<f64>,
    rng: Rng,
}

impl Traffic {
    pub fn generate(seed: u64) -> Self {
        let full = STREAM_BASE + STREAM_STEP * STREAM_ADVANCES + HORIZON;
        let datasets: Vec<MultivariateSeries> =
            PaperDataset::ALL.iter().map(|d| d.load()).collect();
        let per_dataset = STREAMS.div_ceil(datasets.len());
        let streams = (0..STREAMS)
            .map(|k| {
                let series = &datasets[k % datasets.len()];
                // The streams of one dataset start at evenly spaced offsets.
                let start = k / datasets.len() * (series.len() - full) / (per_dataset - 1).max(1);
                clamp_to_base(&series.slice(start, start + full).expect("stream within series"))
            })
            .collect();
        let mut total = 0.0;
        let cumulative = (0..STREAMS)
            .map(|k| {
                total += ((k + 1) as f64).powf(-ZIPF_EXPONENT);
                total
            })
            .collect();
        Self { streams, lens: vec![STREAM_BASE; STREAMS], cumulative, rng: Rng::fork(seed, 99) }
    }

    /// One request per stream at its current length: the cache fill.
    pub fn fill(&mut self) -> Vec<Planned> {
        (0..STREAMS).map(|stream| self.request(stream)).collect()
    }

    /// The next flush's batch (advancing its first stream first).
    pub fn next_batch(&mut self) -> Vec<Planned> {
        let first = self.pick();
        let len = &mut self.lens[first];
        *len = if *len >= STREAM_BASE + STREAM_STEP * STREAM_ADVANCES {
            STREAM_BASE
        } else {
            *len + STREAM_STEP
        };
        let mut batch = vec![self.request(first)];
        while batch.len() < BATCH {
            let stream = self.pick();
            batch.push(self.request(stream));
        }
        batch
    }

    fn pick(&mut self) -> usize {
        let total = *self.cumulative.last().expect("at least one stream");
        let u = (self.rng.next_u64() >> 11) as f64 / (1u64 << 53) as f64 * total;
        self.cumulative.iter().position(|&c| u < c).unwrap_or(STREAMS - 1)
    }

    fn request(&mut self, stream: usize) -> Planned {
        let horizon = SERVE_HORIZONS[self.rng.below(SERVE_HORIZONS.len())];
        Planned { stream, len: self.lens[stream], horizon, seed: self.rng.next_u64() }
    }

    /// The history and held-out values of a planned request.
    pub fn window(&self, p: &Planned) -> Window {
        let s = &self.streams[p.stream];
        Window {
            train: s.slice(0, p.len).expect("history within stream"),
            test: s.slice(p.len, p.len + p.horizon).expect("horizon within stream"),
        }
    }
}

/// Clamps every value after the base history into the base history's
/// range, per column. The digit codec's scaler then stays fixed as the
/// stream grows, so a longer history's prompt strictly extends a shorter
/// one's and the cache can refit instead of refitting from scratch.
fn clamp_to_base(window: &MultivariateSeries) -> MultivariateSeries {
    let columns = window
        .columns()
        .iter()
        .map(|col| {
            let base = &col[..STREAM_BASE];
            let lo = base.iter().copied().fold(f64::INFINITY, f64::min);
            let hi = base.iter().copied().fold(f64::NEG_INFINITY, f64::max);
            col.iter()
                .enumerate()
                .map(|(t, &v)| if t < STREAM_BASE { v } else { v.clamp(lo, hi) })
                .collect()
        })
        .collect();
    MultivariateSeries::from_columns(window.names().to_vec(), columns).expect("same shape")
}
