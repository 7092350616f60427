//! The `engine-digit` and `engine-sax` workloads: a closed loop of single
//! forecasts through `ForecastEngine::run` + `EngineRun::resolve`, each
//! fitting its prompt cold.

use std::sync::Arc;
use std::time::{Duration, Instant};

use mc_obs::{Observer, Recorder};
use mc_sax::alphabet::{SaxAlphabet, SaxAlphabetKind};
use mc_sax::encoder::SaxConfig;
use multicast_core::{
    CodecChoice, ForecastConfig, ForecastRequest, MuxMethod, Priority, SampleSource, ServeConfig,
    ServeHandle,
};

use crate::calib::Calibration;
use crate::inputs::{WindowPool, HORIZON};
use crate::layers::{decomposed_forecast, engine_forecast, LayerSample};
use crate::report::{end_to_end, layer_metrics, peak_rss_mb, OpResult, Report};
use crate::serve::{bypassed_cache_metrics, serve_layer_metrics, served_forecast};
use crate::{as_nanos, nanos, verdict, Options, SETUP_REPS};

/// Which codec the loop forecasts through.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Kind {
    /// `DigitCodec`, value interleaving (VI).
    Digit,
    /// `SaxCodec`, segment 6, alphabetical, size 5 (§IV-E defaults).
    Sax,
}

impl Kind {
    fn codec(self) -> CodecChoice {
        match self {
            Kind::Digit => CodecChoice::Digit(MuxMethod::ValueInterleave),
            Kind::Sax => CodecChoice::Sax(SaxConfig {
                segment_len: 6,
                alphabet: SaxAlphabet::new(SaxAlphabetKind::Alphabetic, 5)
                    .expect("size 5 is a valid alphabet"),
            }),
        }
    }

    /// Forecasts each set-up runs before the timed phase.
    fn warmup_ops(self) -> usize {
        match self {
            Kind::Digit => 16,
            Kind::Sax => 192,
        }
    }

    /// Operation `i`: its window's history, horizon 24, the paper
    /// defaults (Table II: `Large` preset, S = 5) and its own seed.
    pub fn request(self, pool: &WindowPool, i: usize) -> ForecastRequest {
        ForecastRequest {
            train: pool.window(i).train.clone(),
            horizon: HORIZON,
            codec: self.codec(),
            config: ForecastConfig { seed: pool.op_seed(i), ..ForecastConfig::default() },
            source: SampleSource::Model,
            priority: Priority::Normal,
            client: 0,
        }
    }
}

/// Operation indices of warm-up forecasts start here, apart from the
/// timed ones.
const WARMUP_BASE: usize = 1 << 40;

/// Builds the inputs and warms the path up; returns the pool and the
/// wall time it took.
fn set_up(kind: Kind, seed: u64) -> (WindowPool, f64) {
    let start = Instant::now();
    let pool = WindowPool::generate(seed);
    for w in 0..kind.warmup_ops() {
        let _ = engine_forecast(&kind.request(&pool, WARMUP_BASE + w));
    }
    (pool, start.elapsed().as_secs_f64())
}

pub fn run(kind: Kind, opts: &Options) -> Report {
    let reps = if opts.trace { 1 } else { SETUP_REPS };
    let mut setups = Vec::with_capacity(reps);
    let mut pool = None;
    for _ in 0..reps {
        let (p, secs) = set_up(kind, opts.seed);
        setups.push(secs);
        pool = Some(p);
    }
    let pool = pool.expect("at least one set-up");
    let budget = Duration::from_secs_f64(opts.seconds);
    let mut report = if opts.trace {
        traced(kind, opts, &pool, budget)
    } else {
        untraced(kind, opts, &pool, budget, &setups)
    };
    report.header.insert(
        0,
        format!(
            "workload engine-{} seed {} seconds {} trace {} workers {} (closed loop, 1 caller; S = 5, Large preset, history {}, horizon {HORIZON})",
            if kind == Kind::Digit { "digit" } else { "sax" },
            opts.seed,
            opts.seconds,
            u8::from(opts.trace),
            opts.nproc,
            crate::inputs::HISTORY,
        ),
    );
    report
}

fn untraced(
    kind: Kind,
    opts: &Options,
    pool: &WindowPool,
    budget: Duration,
    setups: &[f64],
) -> Report {
    let mut ops: Vec<OpResult> = Vec::new();
    let mut timed = Duration::ZERO;
    let mut calibration = Calibration::default();
    while ops.len() < opts.max_ops && (ops.is_empty() || timed < budget) {
        calibration.tick();
        let i = ops.len();
        let req = kind.request(pool, i);
        let t = Instant::now();
        let out = engine_forecast(&req);
        let elapsed = t.elapsed();
        timed += elapsed;
        // Correctness, untimed: the forecast against the decomposed replay.
        let replay = decomposed_forecast(&req).map(|(f, _)| f);
        let perturb = opts.perturb && i == 0;
        ops.push(verdict(
            as_nanos(elapsed),
            out,
            &[replay],
            pool.window(i),
            HORIZON,
            i % 3,
            perturb,
        ));
    }
    let (metrics, info) = end_to_end(&ops, timed.as_secs_f64(), setups, peak_rss_mb());
    Report {
        attempted: ops.len(),
        failed: ops.iter().filter(|o| !o.ok).count(),
        metrics,
        info,
        header: Vec::new(),
        calibration,
    }
}

fn traced(kind: Kind, opts: &Options, pool: &WindowPool, budget: Duration) -> Report {
    let obs = Arc::new(Observer::wall());
    let mut handle = ServeHandle::with_recorder(ServeConfig::with_workers(opts.nproc), obs.clone());
    let cutoff = obs.wall();
    let (mut plain_ns, mut traced_ns, mut flush_ms) = (Vec::new(), Vec::new(), Vec::new());
    let mut samples: Vec<LayerSample> = Vec::new();
    let mut failed = 0;
    let mut calibration = Calibration::default();
    let start = Instant::now();
    let mut i = 0;
    while i < opts.max_ops && (i == 0 || start.elapsed() < budget) {
        calibration.tick();
        let req = kind.request(pool, i);
        let plain = || {
            let t = Instant::now();
            let out = engine_forecast(&req);
            (nanos(t), out)
        };
        let decomposed = || {
            let t = Instant::now();
            let out = decomposed_forecast(&req);
            (nanos(t), out)
        };
        // Alternate which runs first, so neither side always finds the
        // caches warm.
        let ((p_ns, p_out), (d_ns, d_out)) = if i % 2 == 0 {
            let p = plain();
            (p, decomposed())
        } else {
            let d = decomposed();
            (plain(), d)
        };
        let (s_out, f_ns) = served_forecast(&mut handle, req.clone());
        flush_ms.push(f_ns as f64 / 1e6);
        let (d_out, sample) = match d_out {
            Ok((f, s)) => (Ok(f), Some(s)),
            Err(e) => (Err(e), None),
        };
        let perturb = opts.perturb && i == 0;
        let op = verdict(p_ns, p_out, &[d_out, s_out], pool.window(i), HORIZON, i % 3, perturb);
        failed += usize::from(!op.ok);
        plain_ns.push(p_ns as f64);
        traced_ns.push(d_ns as f64);
        samples.extend(sample);
        i += 1;
    }

    let mut metrics = layer_metrics(&samples, opts.nproc);
    let (serve, spans_ok) =
        serve_layer_metrics(&obs, cutoff, &flush_ms, opts.nproc, handle.contexts());
    failed += usize::from(!spans_ok);
    metrics.extend(serve);
    metrics.extend(bypassed_cache_metrics());
    metrics.push(crate::overhead_metric(&plain_ns, &traced_ns));
    Report {
        attempted: i,
        failed,
        metrics,
        info: Vec::new(),
        header: vec![format!(
            "traced run: each input forecast plain, decomposed with layer probes, and as a \
             one-request flush through ServeHandle (workers {}, no cache)",
            opts.nproc
        )],
        calibration,
    }
}
