//! Property tests for the spec surface: `parse(display(spec)) == spec`
//! over randomly-populated specs, duplicate/unknown keys are typed
//! errors, and hostile input never panics the spec or BENCH parsers.

use mc_datasets::PaperDataset;
use mc_lm::presets::ModelPreset;
use mc_spec::{BenchReport, ScenarioKind, ScenarioSpec, SpecError};
use multicast_core::robust::FaultProfile;
use multicast_core::MuxMethod;
use proptest::prelude::*;

const FAULT_PROFILES: [&str; 4] = [
    "rate=0.3,seed=77,latency=8,quota=2500",
    "rate=0,seed=1024023,panic=0",
    "rate=1,seed=9",
    "rate=0.05,seed=3,panic=2,latency=1,quota=100",
];

const DATASETS: [PaperDataset; 3] =
    [PaperDataset::GasRate, PaperDataset::Electricity, PaperDataset::Weather];
const MUXES: [MuxMethod; 3] =
    [MuxMethod::DigitInterleave, MuxMethod::ValueInterleave, MuxMethod::ValueConcat];
const PRESETS: [ModelPreset; 5] = [
    ModelPreset::Large,
    ModelPreset::Small,
    ModelPreset::Suffix,
    ModelPreset::Ensemble,
    ModelPreset::Ppm,
];

proptest! {
    #![proptest_config(ProptestConfig::with_cases(96))]

    /// The canonical `Display` form parses back to the identical spec,
    /// whatever subset of knobs is populated.
    #[test]
    fn display_then_parse_round_trips(
        kind_idx in 0usize..ScenarioKind::ALL.len(),
        mask in any::<u32>(),
        name in "[a-z][a-z0-9_]{0,11}",
        picks in (0usize..3, 0usize..3, 0usize..5, 0usize..4),
        samples in 1usize..64,
        digits in 1u32..9,
        seed in any::<u64>(),
        temp_milli in 0u64..5000,
        sweep in prop::collection::vec(1usize..200, 1..6),
        samples_sweep in prop::collection::vec(1usize..40, 1..4),
        robust in (0usize..8, 1usize..8, 1u64..600, 0u32..6),
        serve in (1usize..16, 1usize..32, 1usize..40, 1usize..6, 1usize..20),
        breaker_on in any::<bool>(),
        latency in (1usize..32, 0u64..200),
    ) {
        let mut spec = ScenarioSpec::new(ScenarioKind::ALL[kind_idx]);
        let bit = |i: u32| mask & (1 << i) != 0;
        if bit(0) { spec.name = name; }
        if bit(1) { spec.dataset = Some(DATASETS[picks.0]); }
        if bit(2) { spec.mux = Some(MUXES[picks.1]); }
        if bit(3) { spec.preset = Some(PRESETS[picks.2]); }
        if bit(4) { spec.samples = Some(samples); }
        if bit(5) { spec.digits = Some(digits); }
        if bit(6) { spec.seed = Some(seed); }
        if bit(7) { spec.temperature = Some(temp_milli as f64 / 1000.0); }
        if bit(8) {
            spec.faults =
                Some(FaultProfile::parse(FAULT_PROFILES[picks.3]).expect("fixture profile"));
        }
        if bit(9) { spec.sweep = Some(sweep); }
        if bit(10) { spec.samples_sweep = Some(samples_sweep); }
        if bit(11) { spec.robust.retries = Some(robust.0); }
        if bit(12) { spec.robust.min_valid = Some(robust.1); }
        if bit(13) { spec.robust.deadline_tokens = Some(robust.2); }
        if bit(14) { spec.robust.backoff_base = Some(robust.3); }
        if bit(15) { spec.serve.workers = Some(serve.0); }
        if bit(16) { spec.serve.queue_cap = Some(serve.1); }
        if bit(17) { spec.serve.submit_cap = Some(serve.2); }
        if bit(18) { spec.serve.breaker = Some(breaker_on); }
        if bit(19) { spec.serve.waves = Some(serve.3); }
        if bit(20) { spec.serve.per_wave = Some(serve.4); }
        if bit(21) { spec.latency.requests = Some(latency.0); }
        // Permille keeps the f64 round-trip exact through `Display`.
        if bit(22) { spec.latency.tolerance = Some(latency.1 as f64 / 1000.0); }

        let text = spec.to_string();
        let parsed = match ScenarioSpec::parse(&text) {
            Ok(parsed) => parsed,
            Err(e) => return Err(TestCaseError::Fail(format!("reparse failed: {e}\n{text}"))),
        };
        prop_assert_eq!(parsed, spec, "canonical form:\n{}", text);
    }

    /// Appending any already-present top-level key is a typed
    /// `DuplicateKey` error, never a silent last-one-wins.
    #[test]
    fn duplicate_keys_are_rejected(
        kind_idx in 0usize..ScenarioKind::ALL.len(),
        samples in 1usize..50,
        again in 1usize..50,
    ) {
        let mut spec = ScenarioSpec::new(ScenarioKind::ALL[kind_idx]);
        spec.samples = Some(samples);
        // No sections are populated, so the duplicate lands top-level.
        let text = format!("{spec}samples = {again}\n");
        let err = ScenarioSpec::parse(&text).expect_err("duplicate must not parse");
        prop_assert!(
            matches!(&err, SpecError::DuplicateKey { key, .. } if key == "samples"),
            "got {:?}", err
        );
    }

    /// Unknown top-level keys are typed errors regardless of value.
    #[test]
    fn unknown_keys_are_rejected(
        key in "[a-z][a-z_]{0,11}",
        value in "[a-z0-9,.=]{0,16}",
    ) {
        const KNOWN: [&str; 12] = [
            "scenario", "name", "dataset", "mux", "preset", "samples", "digits", "seed",
            "temperature", "faults", "sweep", "samples_sweep",
        ];
        prop_assume!(!KNOWN.contains(&key.as_str()));
        let text = format!("scenario = backtest\n{key} = {value}\n");
        let err = ScenarioSpec::parse(&text).expect_err("unknown key must not parse");
        prop_assert!(
            matches!(&err, SpecError::UnknownKey { key: k, section: None, .. } if *k == key),
            "got {:?}", err
        );
    }

    /// Arbitrary printable line soup parses or fails with a typed error;
    /// it never panics and never fabricates a scenario.
    #[test]
    fn hostile_input_never_panics(
        lines in prop::collection::vec("[ -~]{0,32}", 0..10),
    ) {
        let text = lines.join("\n");
        if let Ok(spec) = ScenarioSpec::parse(&text) {
            // Anything that parses must re-parse to itself.
            prop_assert_eq!(ScenarioSpec::parse(&spec.to_string()).ok(), Some(spec));
        }
    }

    /// `BenchReport::parse` is total: arbitrary text and near-valid
    /// reports (a rendered report cut short, or with one character
    /// replaced) parse or fail with a typed error, never a panic. Any
    /// report of finite metrics round-trips through `to_pretty`, and its
    /// rendering is canonical (re-rendering the parse is byte-identical).
    #[test]
    fn bench_report_parse_is_total_and_round_trips(
        wild in any::<String>(),
        name in any::<String>(),
        keys in prop::collection::vec(any::<String>(), 0..5),
        bits in prop::collection::vec(any::<u64>(), 0..5),
        cut in any::<usize>(),
        patch in any::<char>(),
    ) {
        let mut report = BenchReport::new(ScenarioKind::ServeChaos, name);
        for (key, &b) in keys.iter().zip(&bits) {
            let v = f64::from_bits(b);
            report.push(key.clone(), if v.is_finite() { v } else { (b % 1000) as f64 });
        }
        let text = report.to_pretty();
        prop_assert_eq!(BenchReport::parse(&text), Ok(report));

        let chars: Vec<char> = text.chars().collect();
        let at = cut % (chars.len() + 1);
        let truncated: String = chars[..at].iter().collect();
        let mut patched = chars.clone();
        if at < patched.len() {
            patched[at] = patch;
        }
        let patched: String = patched.into_iter().collect();
        for input in [wild, truncated, patched] {
            let Ok(parsed) = BenchReport::parse(&input) else { continue };
            if parsed.metrics.iter().all(|(_, v)| v.is_finite()) {
                let canonical = parsed.to_pretty();
                let reparsed = BenchReport::parse(&canonical);
                prop_assert_eq!(reparsed.as_ref().map(BenchReport::to_pretty), Ok(canonical));
                prop_assert_eq!(reparsed, Ok(parsed));
            }
        }
    }
}
