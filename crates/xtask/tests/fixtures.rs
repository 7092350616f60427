//! mc-lint end-to-end: every fixture under `tests/fixtures/` is a
//! known-bad snippet, and these tests pin down exactly what each rule
//! flags, what the test-span exemption skips, and how the allowlist
//! suppresses (or goes stale). The structural rules (`no-direct-fit`,
//! `single-construction`, lock order, drift) are exercised end-to-end
//! in `tests/analyze.rs`.

use xtask::allow::Allowlist;
use xtask::lints::{lint_file, Violation, RULE_NAMES};

const UNWRAP_FIXTURE: &str = include_str!("fixtures/unwrap_in_lib.rs");
const PRINTLN_FIXTURE: &str = include_str!("fixtures/println_in_lib.rs");
const WALLCLOCK_FIXTURE: &str = include_str!("fixtures/wallclock.rs");
const SYNC_FIXTURE: &str = include_str!("fixtures/direct_sync.rs");
const QUEUE_FIXTURE: &str = include_str!("fixtures/unbounded_queue.rs");
const ADHOC_FIXTURE: &str = include_str!("fixtures/adhoc_bench.rs");
const SPAWN_FIXTURE: &str = include_str!("fixtures/scoped_spawn.rs");

fn known() -> Vec<&'static str> {
    xtask::known_rules()
}

/// `(rule, symbol, line)` triples, sorted, for compact assertions.
fn shape(violations: &[Violation]) -> Vec<(&'static str, String, usize)> {
    let mut out: Vec<_> =
        violations.iter().map(|v| (v.rule.name(), v.symbol.clone(), v.line)).collect();
    out.sort();
    out
}

#[test]
fn unwrap_fixture_flags_production_but_not_tests() {
    let got = shape(&lint_file("tests/fixtures/unwrap_in_lib.rs", UNWRAP_FIXTURE));
    assert_eq!(
        got,
        vec![
            ("no-unwrap", "expect".to_string(), 9),
            ("no-unwrap", "panic".to_string(), 13),
            ("no-unwrap", "unwrap".to_string(), 5),
            // cfg(not(test)) is production code, so line 35 stays flagged;
            // the #[test] fn and #[cfg(test)] mod are exempt.
            ("no-unwrap", "unwrap".to_string(), 35),
        ]
    );
}

#[test]
fn println_fixture_flags_library_stdio_but_not_tests_or_bins() {
    let got = shape(&lint_file("tests/fixtures/println_in_lib.rs", PRINTLN_FIXTURE));
    assert_eq!(
        got,
        vec![("no-println", "eprintln".to_string(), 8), ("no-println", "println".to_string(), 4),]
    );
    // The same source under a binary path raises nothing.
    assert!(lint_file("src/bin/println_in_lib.rs", PRINTLN_FIXTURE).is_empty());
    assert!(lint_file("crates/demo/src/main.rs", PRINTLN_FIXTURE).is_empty());
}

#[test]
fn wallclock_fixture_flags_every_nondeterminism_source() {
    let got = shape(&lint_file("tests/fixtures/wallclock.rs", WALLCLOCK_FIXTURE));
    assert_eq!(
        got,
        vec![
            ("no-wallclock", "Instant::now".to_string(), 6),
            ("no-wallclock", "SystemTime".to_string(), 3),
            ("no-wallclock", "SystemTime".to_string(), 8),
            ("no-wallclock", "thread_rng".to_string(), 15),
        ]
    );
}

#[test]
fn sync_fixture_flags_locks_in_path_and_use_tree_form() {
    let got = shape(&lint_file("tests/fixtures/direct_sync.rs", SYNC_FIXTURE));
    assert_eq!(
        got,
        vec![
            ("no-direct-sync", "Condvar".to_string(), 5),
            ("no-direct-sync", "Mutex".to_string(), 4),
            ("no-direct-sync", "Mutex".to_string(), 8),
        ]
    );
}

#[test]
fn queue_fixture_flags_imports_types_and_constructors_but_not_tests() {
    let got = shape(&lint_file("tests/fixtures/unbounded_queue.rs", QUEUE_FIXTURE));
    assert_eq!(
        got,
        vec![
            ("no-unbounded-queue", "VecDeque".to_string(), 2),
            ("no-unbounded-queue", "VecDeque".to_string(), 4),
            ("no-unbounded-queue", "VecDeque".to_string(), 5),
            ("no-unbounded-queue", "mpsc".to_string(), 9),
        ]
    );
    // The sanctioned backing store is suppressed the same way the real
    // workspace allowlist suppresses sched.rs — by named symbol.
    let allow = Allowlist::parse(
        "no-unbounded-queue tests/fixtures/unbounded_queue.rs VecDeque -- fixture exercise\n\
         no-unbounded-queue tests/fixtures/unbounded_queue.rs mpsc -- fixture exercise\n",
        &known(),
    )
    .unwrap();
    let (kept, stale) =
        allow.apply(lint_file("tests/fixtures/unbounded_queue.rs", QUEUE_FIXTURE), &RULE_NAMES);
    assert!(kept.is_empty() && stale.is_empty());
}

#[test]
fn spawn_fixture_flags_thread_fan_out_but_not_tests() {
    let got = shape(&lint_file("tests/fixtures/scoped_spawn.rs", SPAWN_FIXTURE));
    assert_eq!(
        got,
        vec![
            ("no-scoped-spawn", "thread::Builder".to_string(), 12),
            ("no-scoped-spawn", "thread::scope".to_string(), 7),
            ("no-scoped-spawn", "thread::spawn".to_string(), 4),
        ]
    );
    // The executor is suppressed the way the workspace allowlist
    // suppresses sched.rs — by named symbol, so a new kind of spawn
    // there still needs its own entry.
    let allow = Allowlist::parse(
        "no-scoped-spawn tests/fixtures/scoped_spawn.rs thread::scope -- fixture exercise\n",
        &known(),
    )
    .unwrap();
    let (kept, stale) =
        allow.apply(lint_file("tests/fixtures/scoped_spawn.rs", SPAWN_FIXTURE), &RULE_NAMES);
    assert!(stale.is_empty());
    assert_eq!(
        shape(&kept),
        vec![
            ("no-scoped-spawn", "thread::Builder".to_string(), 12),
            ("no-scoped-spawn", "thread::spawn".to_string(), 4),
        ]
    );
}

#[test]
fn adhoc_bench_fixture_flags_bins_in_bench_land_only() {
    // Under a bench-bin path every direct engine/serve touch is flagged
    // — the bin exemption that softens no-unwrap/no-println does NOT
    // apply, because bench bins are exactly what this rule polices.
    let got = shape(&lint_file("crates/bench/src/bin/adhoc_bench.rs", ADHOC_FIXTURE));
    assert_eq!(
        got,
        vec![
            ("no-adhoc-bench", "ForecastEngine".to_string(), 7),
            ("no-adhoc-bench", "ServeHandle".to_string(), 9),
            ("no-adhoc-bench", "serve_all".to_string(), 10),
            ("no-adhoc-bench", "serve_all_observed".to_string(), 11),
        ]
    );
    // The spec crate is bench-land too; the same source under the
    // runner path is what the workspace allowlist entry suppresses.
    let runner = lint_file("crates/spec/src/runner.rs", ADHOC_FIXTURE);
    assert_eq!(runner.len(), 4);
    let allow = Allowlist::parse(
        "no-adhoc-bench crates/spec/src/runner.rs * -- the runner is the sanctioned seam\n",
        &known(),
    )
    .unwrap();
    let (kept, stale) = allow.apply(runner, &RULE_NAMES);
    assert!(kept.is_empty() && stale.is_empty());
    // Outside bench-land the rule never fires.
    assert!(lint_file("crates/core/src/serve.rs", ADHOC_FIXTURE).is_empty());
}

#[test]
fn allowlist_suppresses_exactly_what_it_names() {
    let violations = lint_file("tests/fixtures/unwrap_in_lib.rs", UNWRAP_FIXTURE);
    assert_eq!(violations.len(), 4);

    // Symbol-specific entries: the two unwraps and the expect are
    // suppressed, the panic survives.
    let allow = Allowlist::parse(
        "no-unwrap tests/fixtures/unwrap_in_lib.rs unwrap -- fixture exercise\n\
         no-unwrap tests/fixtures/unwrap_in_lib.rs expect -- fixture exercise\n",
        &known(),
    )
    .unwrap();
    let (kept, stale) = allow.apply(violations.clone(), &RULE_NAMES);
    assert!(stale.is_empty());
    assert_eq!(shape(&kept), vec![("no-unwrap", "panic".to_string(), 13)]);

    // A wildcard symbol with a path prefix suppresses the whole family.
    let allow =
        Allowlist::parse("no-unwrap tests/fixtures * -- fixtures are known-bad\n", &known())
            .unwrap();
    let (kept, stale) = allow.apply(violations.clone(), &RULE_NAMES);
    assert!(kept.is_empty() && stale.is_empty());

    // The rule must match, not just the path: a no-wallclock entry
    // suppresses nothing here and is reported stale.
    let allow = Allowlist::parse(
        "no-wallclock tests/fixtures/unwrap_in_lib.rs * -- wrong rule\n",
        &known(),
    )
    .unwrap();
    let (kept, stale) = allow.apply(violations, &RULE_NAMES);
    assert_eq!(kept.len(), 4);
    assert_eq!(stale.len(), 1);
    assert!(stale[0].contains("no-wallclock"), "stale message names the entry: {}", stale[0]);
}

#[test]
fn stale_entries_fail_even_when_everything_else_is_clean() {
    let allow = Allowlist::parse(
        "no-direct-sync crates/nonexistent * -- covers nothing at all\n",
        &known(),
    )
    .unwrap();
    let (kept, stale) = allow.apply(Vec::<Violation>::new(), &RULE_NAMES);
    assert!(kept.is_empty());
    assert_eq!(stale.len(), 1);
}

#[test]
fn allowlist_rejects_missing_or_empty_justification() {
    assert!(Allowlist::parse("no-unwrap crates/foo *\n", &known()).is_err());
    assert!(Allowlist::parse("no-unwrap crates/foo * --\n", &known()).is_err());
    assert!(Allowlist::parse("no-such-rule crates/foo * -- why\n", &known()).is_err());
    // Comments and blank lines are fine.
    let allow =
        Allowlist::parse("# header\n\nno-unwrap crates/foo bar -- reason\n", &known()).unwrap();
    let (_, stale) = allow.apply(Vec::<Violation>::new(), &RULE_NAMES);
    assert_eq!(stale.len(), 1);
}

#[test]
fn every_known_rule_name_is_accepted_and_unique() {
    let rules = known();
    // Lint and analyze scopes must not collide: an entry's rule name
    // decides which run owns it.
    let mut sorted = rules.clone();
    sorted.sort_unstable();
    sorted.dedup();
    assert_eq!(sorted.len(), rules.len(), "duplicate rule name across scopes: {rules:?}");
    for rule in &rules {
        let line = format!("{rule} crates/foo * -- exercising every rule name\n");
        assert!(Allowlist::parse(&line, &rules).is_ok(), "rule {rule} rejected");
    }
    assert!(xtask::lints::RULE_NAMES.iter().all(|r| rules.contains(r)));
    assert!(xtask::analyze::RULE_NAMES.iter().all(|r| rules.contains(r)));
}
