//! End-to-end tests for `cargo xtask analyze`.
//!
//! Three layers: the committed workspace must come out clean; the
//! lock-order pass must provably cover every `mc-sync` acquisition site
//! in serve-land (cross-checked against an independent token count);
//! and each seeded fixture under `fixtures/analyze/` must fail with a
//! span-accurate diagnostic.

use std::path::Path;

use xtask::allow::Allowlist;
use xtask::analyze::index::SymbolIndex;
use xtask::analyze::{drift, locks, rules, run_analyze, stale, Workspace};

const LOCK_CYCLE: &str = include_str!("fixtures/analyze/lock_cycle.rs");
const SPEC_SPEC: &str = include_str!("fixtures/analyze/spec_drift_spec.rs");
const SPEC_BUILDER: &str = include_str!("fixtures/analyze/spec_drift_builder.rs");
const DIRECT_FIT: &str = include_str!("fixtures/direct_fit.rs");
const DUP: &str = include_str!("fixtures/dup_construction.rs");

fn root() -> &'static Path {
    Path::new(env!("CARGO_MANIFEST_DIR")).parent().unwrap().parent().unwrap()
}

fn ws(files: &[(&str, &str)]) -> Workspace {
    Workspace::from_sources(
        files.iter().map(|(p, s)| ((*p).to_string(), (*s).to_string())).collect(),
    )
}

/// 1-based column of the first `pat` on 1-based `line` of `src` — spans
/// are asserted against the fixture text itself, not hand-counted.
fn col(src: &str, line: usize, pat: &str) -> usize {
    src.lines().nth(line - 1).unwrap().find(pat).unwrap() + 1
}

#[test]
fn the_committed_workspace_is_clean() {
    let allow = std::fs::read_to_string(root().join("mc-lint.allow")).unwrap();
    let report = run_analyze(root(), &allow).unwrap();
    assert!(report.errors.is_empty(), "{:?}", report.errors);
    assert!(report.clean(), "{:?}", report.findings);
    assert!(report.files >= 100, "only {} files analyzed", report.files);
    assert_eq!(report.lock_sites, 18, "lock inventory moved; update DESIGN.md §13");
    assert!(report.to_json().contains("\"lock_sites\":18"), "{}", report.to_json());
}

#[test]
fn lock_pass_covers_every_acquisition_site_in_serve_land() {
    let ws = Workspace::load(root()).unwrap();
    let report = locks::check(&ws);
    assert!(report.findings.is_empty(), "{:?}", report.findings);

    // serve.rs takes no lock of its own: request progress is locked by the
    // executor's attempt step in sched.rs.
    let serve_land =
        ["crates/core/src/sched.rs", "crates/core/src/overload.rs", "crates/lm/src/cache.rs"];
    let mut covered = 0;
    for path in serve_land {
        let file = ws.file(path).unwrap_or_else(|| panic!("{path} missing"));
        // Independent count of non-test `.lock(` call sites, straight
        // off the token stream with no help from the lock pass.
        let expected = file
            .tokens
            .iter()
            .enumerate()
            .filter(|(i, t)| {
                t.is_ident("lock")
                    && *i > 0
                    && file.tokens[i - 1].is_punct('.')
                    && file.tokens.get(i + 1).is_some_and(|n| n.is_punct('('))
                    && !file.test_mask[*i]
            })
            .count();
        assert!(expected > 0, "{path} has no acquisition sites — inventory is stale");
        let reported = report.sites.iter().filter(|s| s.path == path).count();
        assert_eq!(reported, expected, "{path}: pass covers {reported} of {expected} sites");
        covered += reported;
    }
    assert_eq!(covered, 16, "serve-land acquisition count moved; re-audit lock order");
    assert_eq!(report.sites.len(), 18, "workspace-wide site count (incl. obs/record.rs)");
}

#[test]
fn seeded_lock_cycle_fails_at_the_reversed_acquisition() {
    let w = ws(&[("crates/core/src/sched.rs", LOCK_CYCLE)]);
    let report = locks::check(&w);
    assert_eq!(report.sites.len(), 4);
    assert_eq!(report.edges.len(), 2);
    assert_eq!(report.findings.len(), 1, "{:?}", report.findings);
    let f = &report.findings[0];
    assert_eq!(f.rule, "lock-order");
    assert_eq!(
        (f.path.as_str(), f.line, f.col),
        ("crates/core/src/sched.rs", 22, col(LOCK_CYCLE, 22, "lock")),
    );
    assert!(
        f.message.contains("lock acquisition cycle: Pair.a -> Pair.b -> Pair.a"),
        "{}",
        f.message
    );
}

#[test]
fn seeded_cycle_without_the_shim_import_also_breaks_the_seam() {
    let outside = LOCK_CYCLE.replace("use mc_sync::Mutex;", "use std::sync::Mutex;");
    let w = ws(&[("crates/core/src/sched.rs", outside.as_str())]);
    let report = locks::check(&w);
    let seam: Vec<_> = report.findings.iter().filter(|f| f.rule == "lock-seam").collect();
    assert_eq!(seam.len(), 4, "one per acquisition site: {:?}", report.findings);
    assert_eq!((seam[0].line, seam[0].col), (15, col(&outside, 15, "lock")));
    assert!(seam[0].message.contains("does not import the mc-sync shim"), "{}", seam[0].message);
    // The cycle is still found — the two passes are independent.
    assert!(report.findings.iter().any(|f| f.message.contains("cycle")), "{:?}", report.findings);
}

#[test]
fn seeded_dead_spec_key_fails_at_the_grammar_arm() {
    let w = ws(&[(drift::SPEC_RS, SPEC_SPEC), (drift::BUILDER_RS, SPEC_BUILDER)]);
    let findings = drift::spec_drift(&w);
    assert_eq!(findings.len(), 1, "{findings:?}");
    let f = &findings[0];
    assert_eq!(f.rule, "spec-drift");
    assert_eq!(f.symbol, "dead_knob");
    assert_eq!(
        (f.path.as_str(), f.line, f.col),
        (drift::SPEC_RS, 9, col(SPEC_SPEC, 9, "\"dead_knob\"")),
    );
    assert!(f.message.contains("the knob is silently dead"), "{}", f.message);
}

#[test]
fn stale_allowlist_entry_fails_at_its_own_line() {
    let ws = Workspace::load(root()).unwrap();
    let idx = SymbolIndex::build(&ws);
    let allow = Allowlist::parse(
        "# header comment\n\
         no-unwrap crates/core/src * -- live path, must not be flagged -- since PR9\n\
         lock-order crates/core/src/serve_old.rs * -- seeded: file renamed away -- since PR9\n",
        &xtask::known_rules(),
    )
    .unwrap();
    let findings = stale::check(&idx, &allow);
    assert_eq!(findings.len(), 1, "{findings:?}");
    let f = &findings[0];
    assert_eq!((f.path.as_str(), f.line, f.col), ("mc-lint.allow", 3, 1));
    assert_eq!(f.rule, "stale-allow");
    assert!(f.message.contains("crates/core/src/serve_old.rs"), "{}", f.message);
}

#[test]
fn direct_fit_fixture_flags_every_sidestep_of_the_seam() {
    let w = ws(&[("crates/core/src/serve.rs", DIRECT_FIT)]);
    let findings = rules::no_direct_fit(&w);
    let got: Vec<(usize, usize, &str)> =
        findings.iter().map(|f| (f.line, f.col, f.symbol.as_str())).collect();
    assert_eq!(
        got,
        vec![
            (8, col(DIRECT_FIT, 8, "PreparedBackend"), "PreparedBackend::fit"),
            (9, col(DIRECT_FIT, 9, "fit_metered_observed"), "fit_metered_observed"),
            (10, col(DIRECT_FIT, 10, "from_frozen"), "from_frozen"),
            (10, col(DIRECT_FIT, 10, "meter_observed"), "meter_observed"),
            (11, col(DIRECT_FIT, 11, "fit_model"), "fit_model"),
        ],
        "{findings:?}"
    );
    assert!(findings.iter().all(|f| f.rule == "no-direct-fit"));
}

#[test]
fn dup_construction_fixture_flags_all_four_sites() {
    let w = ws(&[("crates/core/src/samples.rs", DUP)]);
    let findings = rules::single_construction(&w);
    let got: Vec<(usize, &str)> = findings.iter().map(|f| (f.line, f.symbol.as_str())).collect();
    assert_eq!(
        got,
        vec![
            (10, "SampleExpectations"),
            (16, "SampleExpectations"),
            (19, "continuation_spec"),
            (25, "continuation_spec"),
        ],
        "{findings:?}"
    );
    assert!(findings
        .iter()
        .all(|f| f.rule == "single-construction" && f.message.contains("2 places")));
}
