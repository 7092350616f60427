//! Bounded-exhaustive model checking of the observability layer.
//!
//! Runs only under `--cfg loom` (the dedicated CI job):
//!
//! ```text
//! RUSTFLAGS="--cfg loom" cargo test -p multicast-core --test loom_obs --release
//! ```
//!
//! Under that cfg the [`mc_sync`] shim inside `mc-obs` resolves to the
//! [`mc_loom`] primitives, so the *production* [`MetricsRegistry`],
//! [`LogicalClock`] and [`Observer`] are explored across thread
//! interleavings. The properties proved here are the ones the serve
//! path's emitters rely on: concurrent recording loses no increments and
//! no span halves, whatever the schedule.
#![cfg(loom)]

use mc_loom::sync::Arc;
use mc_loom::{explore, model, thread};

use mc_obs::{
    pair_spans, point_span, Attrs, Clock, Counter, DefectClass, LogicalClock, MetricsRegistry,
    Observer, SpanGuard, SpanKind,
};

/// Racing `fetch_add`s on the registry's counters, defect slots and a
/// histogram: every increment lands, in every interleaving.
#[test]
fn metrics_registry_loses_no_increments() {
    let stats = explore(|| {
        let reg = Arc::new(MetricsRegistry::new());
        let workers: Vec<_> = (0..2u64)
            .map(|i| {
                let reg = Arc::clone(&reg);
                thread::spawn(move || {
                    reg.incr(Counter::Attempts);
                    reg.add(Counter::GeneratedTokens, 3 + i);
                    reg.add_defect(DefectClass::ALL[i as usize]);
                    reg.attempt_tokens().observe(5);
                })
            })
            .collect();
        for w in workers {
            w.join().expect("worker");
        }
        assert_eq!(reg.get(Counter::Attempts), 2, "no lost attempt increments");
        assert_eq!(reg.get(Counter::GeneratedTokens), 7, "no lost token adds");
        assert_eq!(reg.defect_count(DefectClass::Truncated), 1);
        assert_eq!(reg.defect_count(DefectClass::WrongGroupWidth), 1);
        assert_eq!(reg.attempt_tokens().count(), 2);
        assert_eq!(reg.attempt_tokens().sum(), 10);
    });
    assert!(stats.iterations > 1, "expected schedule exploration, got {stats:?}");
}

/// The logical clock never repeats or skips under contention: two racing
/// tickers observe distinct values and the final tick count equals the
/// number of reads.
#[test]
fn logical_clock_ticks_are_unique_across_interleavings() {
    model(|| {
        let clock = Arc::new(LogicalClock::new());
        let workers: Vec<_> = (0..2)
            .map(|_| {
                let clock = Arc::clone(&clock);
                thread::spawn(move || [clock.now(), clock.now()])
            })
            .collect();
        let mut ticks = Vec::new();
        for w in workers {
            ticks.extend(w.join().expect("worker"));
        }
        ticks.sort_unstable();
        ticks.dedup();
        assert_eq!(ticks.len(), 4, "every tick is unique");
        assert_eq!(clock.now(), 4, "the counter saw exactly four reads");
    });
}

/// Fact conservation through the one recording path (clock stamp,
/// registry fold, span-buffer push): every point span recorded by racing
/// emitters is buffered whole and counted once, and the derived counters
/// agree with the buffer in every interleaving.
#[test]
fn observer_conserves_concurrent_facts() {
    model(|| {
        let obs = Arc::new(Observer::logical());
        let workers: Vec<_> = (0..2u64)
            .map(|i| {
                let obs = Arc::clone(&obs);
                thread::spawn(move || {
                    point_span(obs.as_ref(), i, SpanKind::Join, Attrs::Join { ctx: 0 });
                    let retry = SpanKind::Retry { sample: 0, attempt: 1 };
                    point_span(obs.as_ref(), i, retry, Attrs::None);
                })
            })
            .collect();
        for w in workers {
            w.join().expect("worker");
        }
        let spans = obs.spans();
        assert_eq!(spans.len(), 8, "no recorded half is lost");
        let facts = spans.iter().filter(|s| s.span.is_fact()).count() as u64;
        assert_eq!(
            obs.metrics().get(Counter::SpanCloses),
            facts,
            "registry agrees with the buffer"
        );
        assert_eq!(obs.metrics().get(Counter::ContextJoins), 2);
        assert_eq!(obs.metrics().get(Counter::Retries), 2);
        pair_spans(&spans).expect("point spans pair in every interleaving");
        let mut stamps: Vec<u64> = spans.iter().map(|s| s.t).collect();
        stamps.sort_unstable();
        stamps.dedup();
        assert_eq!(stamps.len(), 4, "one stamp per point span, never shared across spans");
    });
}

/// Span-pairing safety under contention: two racing emitters, each
/// opening and closing nested spans through RAII [`SpanGuard`]s (one of
/// them unwinding out of a panicking closure), leave a buffer in which no
/// span is orphaned or double-closed, in every interleaving — and the
/// per-kind open counters agree with the buffer.
#[test]
fn racing_span_guards_never_orphan_or_double_close() {
    model(|| {
        let obs = Arc::new(Observer::logical());
        let workers: Vec<_> = (0..2u64)
            .map(|i| {
                let obs = Arc::clone(&obs);
                thread::spawn(move || {
                    let inner = {
                        let _attempt = SpanGuard::open(
                            obs.as_ref(),
                            i,
                            SpanKind::Attempt { sample: i as u32, attempt: 0 },
                        );
                        std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
                            let _draw = SpanGuard::open(
                                obs.as_ref(),
                                i,
                                SpanKind::Draw { sample: i as u32, attempt: 0 },
                            );
                            if i == 1 {
                                panic!("rigged draw");
                            }
                        }))
                    };
                    assert_eq!(inner.is_err(), i == 1, "exactly worker 1 unwinds");
                })
            })
            .collect();
        for w in workers {
            w.join().expect("worker");
        }
        let spans = obs.spans();
        assert_eq!(spans.len(), 8, "2 workers x (attempt + draw) x (open + close)");
        let paired = pair_spans(&spans).expect("no orphaned or double-closed span");
        assert_eq!(paired.len(), 4);
        for p in &paired {
            assert!(p.close_t > p.open_t, "closes stamp after opens");
        }
        let metrics = obs.metrics();
        assert_eq!(metrics.span_open_count(&SpanKind::Attempt { sample: 0, attempt: 0 }), 2);
        assert_eq!(metrics.span_open_count(&SpanKind::Draw { sample: 0, attempt: 0 }), 2);
    });
}
