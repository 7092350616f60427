//! Cross-file exhaustiveness-drift passes.
//!
//! The scenario contracts span files the compiler cannot connect: a
//! `.spec` grammar key must be read by the builder, and a `ScenarioKind`
//! must have a committed golden spec, and a BENCH baseline when its
//! runner emits one. The links run through string tables and file stems,
//! so each contract is checked structurally here and fails with a
//! span-accurate finding at the drifted declaration. (The telemetry
//! taxonomies need no pass: each is one `mc-obs` definition, and its
//! export and metrics routing are exhaustive matches that rustc and
//! clippy check.)
//!
//! Contract locations are pinned by path — moving one of these files is
//! itself a contract change and should fail loudly:

use std::collections::{BTreeMap, BTreeSet};
use std::path::Path;

use super::tree::{all_items, find, Item, ItemKind};
use super::{Finding, SourceFile, Workspace};
use crate::lexer::Kind;

/// Where the cross-file contracts live.
pub const SPEC_RS: &str = "crates/spec/src/spec.rs";
pub const BUILDER_RS: &str = "crates/spec/src/builder.rs";
pub const RUNNER_RS: &str = "crates/spec/src/runner.rs";
pub const SCENARIOS_RS: &str = "crates/spec/src/scenarios.rs";

/// Committed scenario artifacts: golden spec stems (`specs/*.spec`) and
/// BENCH baseline tokens (`results/BENCH_<token>.json`).
#[derive(Debug, Default)]
pub struct ScenarioArtifacts {
    pub spec_stems: BTreeSet<String>,
    pub bench_tokens: BTreeSet<String>,
}

impl ScenarioArtifacts {
    /// Reads the committed artifact directories under `root`.
    ///
    /// # Errors
    /// On filesystem errors (missing directories included — a workspace
    /// without golden specs has bigger problems than drift).
    pub fn load(root: &Path) -> Result<ScenarioArtifacts, String> {
        let mut out = ScenarioArtifacts::default();
        let specs = root.join("specs");
        for entry in
            std::fs::read_dir(&specs).map_err(|e| format!("read {}: {e}", specs.display()))?
        {
            let name = entry.map_err(|e| e.to_string())?.file_name();
            if let Some(stem) = name.to_string_lossy().strip_suffix(".spec") {
                out.spec_stems.insert(stem.to_string());
            }
        }
        let results = root.join("results");
        for entry in
            std::fs::read_dir(&results).map_err(|e| format!("read {}: {e}", results.display()))?
        {
            let name = entry.map_err(|e| e.to_string())?.file_name();
            let name = name.to_string_lossy();
            if let Some(token) = name.strip_prefix("BENCH_").and_then(|n| n.strip_suffix(".json")) {
                out.bench_tokens.insert(token.to_string());
            }
        }
        Ok(out)
    }
}

fn missing_contract_file(rule: &'static str, path: &str) -> Finding {
    Finding {
        path: "<workspace>".to_string(),
        line: 0,
        col: 0,
        rule,
        symbol: path.to_string(),
        message: format!("contract file {path} is not in the workspace — moved files must be re-pinned in analyze/drift.rs"),
    }
}

/// The inner text of a string literal token (`"x"`, `r#"x"#`, ...).
fn literal_str(text: &str) -> Option<&str> {
    let open = text.find('"')?;
    let close = text.rfind('"')?;
    if close > open {
        Some(&text[open + 1..close])
    } else {
        None
    }
}

/// Finds the first non-test `fn name` in the file, at any nesting.
fn find_fn<'a>(file: &'a SourceFile, name: &str) -> Option<&'a Item> {
    all_items(&file.tree)
        .into_iter()
        .find(|i| i.kind == ItemKind::Fn && i.name == name && !i.cfg_test)
}

/// Every `.spec` grammar key (a string-literal match arm in spec.rs's
/// `apply_*` section handlers, assigning a ScenarioSpec field) must be
/// consumed by the builder — a read of that field in builder.rs.
pub fn spec_drift(ws: &Workspace) -> Vec<Finding> {
    let mut out = Vec::new();
    let Some(spec) = ws.file(SPEC_RS) else {
        return vec![missing_contract_file("spec-drift", SPEC_RS)];
    };
    let Some(builder) = ws.file(BUILDER_RS) else {
        return vec![missing_contract_file("spec-drift", BUILDER_RS)];
    };
    // A field is "read by the builder" when `.field` appears there.
    let reads: BTreeSet<&str> = builder
        .tokens
        .windows(2)
        .filter(|w| w[0].is_punct('.') && w[1].kind == Kind::Ident)
        .map(|w| w[1].text.as_str())
        .collect();

    for f in all_items(&spec.tree) {
        if f.kind != ItemKind::Fn || !f.name.starts_with("apply") || f.cfg_test {
            continue;
        }
        let Some((b0, b1)) = f.body else { continue };
        let mut i = b0;
        while i + 2 < b1 {
            let t = &spec.tokens[i];
            let is_arm = t.kind == Kind::Literal
                && spec.tokens[i + 1].is_punct('=')
                && spec.tokens[i + 2].is_punct('>');
            if !is_arm {
                i += 1;
                continue;
            }
            let Some(key) = literal_str(&t.text).map(str::to_string) else {
                i += 1;
                continue;
            };
            // The arm body starts after `=>` (optionally `{`); a
            // field-assigning arm reads `self(.field)+ =`.
            let mut j = i + 3;
            if spec.tokens.get(j).is_some_and(|t| t.is_punct('{')) {
                j += 1;
            }
            if spec.tokens.get(j).is_some_and(|t| t.is_ident("self")) {
                let mut field: Option<String> = None;
                let mut k = j + 1;
                while spec.tokens.get(k).is_some_and(|t| t.is_punct('.'))
                    && spec.tokens.get(k + 1).is_some_and(|t| t.kind == Kind::Ident)
                {
                    field = Some(spec.tokens[k + 1].text.clone());
                    k += 2;
                }
                let assigns = spec.tokens.get(k).is_some_and(|t| t.is_punct('='))
                    && !spec.tokens.get(k + 1).is_some_and(|t| t.is_punct('='));
                if let (Some(field), true) = (field, assigns) {
                    if !reads.contains(field.as_str()) {
                        out.push(Finding {
                            path: spec.path.clone(),
                            line: t.line,
                            col: t.col,
                            rule: "spec-drift",
                            symbol: key.clone(),
                            message: format!(
                                "spec key \"{key}\" assigns field `{field}` that the builder \
                                 never reads — the knob is silently dead"
                            ),
                        });
                    }
                }
            }
            i += 1;
        }
    }
    out
}

/// Every `ScenarioKind` must have a committed golden spec, and a BENCH
/// baseline exactly when its runner handler emits a `BenchReport`.
pub fn scenario_drift(ws: &Workspace, artifacts: &ScenarioArtifacts) -> Vec<Finding> {
    let mut out = Vec::new();
    let Some(spec) = ws.file(SPEC_RS) else {
        return vec![missing_contract_file("scenario-drift", SPEC_RS)];
    };
    let Some(runner) = ws.file(RUNNER_RS) else {
        return vec![missing_contract_file("scenario-drift", RUNNER_RS)];
    };

    // token() literal arms: ScenarioKind::V => "token".
    let mut token_of: BTreeMap<String, String> = BTreeMap::new();
    if let Some(f) = find_fn(spec, "token") {
        if let Some((b0, b1)) = f.body {
            let mut i = b0;
            while i + 6 < b1 {
                if spec.tokens[i].is_ident("ScenarioKind")
                    && spec.tokens[i + 1].is_punct(':')
                    && spec.tokens[i + 2].is_punct(':')
                    && spec.tokens[i + 3].kind == Kind::Ident
                    && spec.tokens[i + 4].is_punct('=')
                    && spec.tokens[i + 5].is_punct('>')
                    && spec.tokens[i + 6].kind == Kind::Literal
                {
                    if let Some(s) = literal_str(&spec.tokens[i + 6].text) {
                        token_of.insert(spec.tokens[i + 3].text.clone(), s.to_string());
                    }
                }
                i += 1;
            }
        }
    }

    // ALL entries: every kind the workspace claims to support, with the
    // `Table(n) -> "table<n>"` convention expanded structurally.
    let mut kinds: Vec<(String, String, usize, usize)> = Vec::new(); // (variant, token, line, col)
    if let Some(item) = find(&spec.tree, ItemKind::Const, "ALL") {
        let (s, e) = (item.start, item.end);
        let mut i = s;
        while i + 3 < e {
            if spec.tokens[i].is_ident("ScenarioKind")
                && spec.tokens[i + 1].is_punct(':')
                && spec.tokens[i + 2].is_punct(':')
                && spec.tokens[i + 3].kind == Kind::Ident
            {
                let v = &spec.tokens[i + 3];
                if v.is_ident("ALL") {
                    i += 1;
                    continue;
                }
                let token = if spec.tokens.get(i + 4).is_some_and(|t| t.is_punct('('))
                    && spec.tokens.get(i + 5).is_some_and(|t| t.kind == Kind::Number)
                {
                    format!("{}{}", v.text.to_lowercase(), spec.tokens[i + 5].text)
                } else {
                    match token_of.get(&v.text) {
                        Some(t) => t.clone(),
                        None => {
                            out.push(Finding {
                                path: spec.path.clone(),
                                line: v.line,
                                col: v.col,
                                rule: "scenario-drift",
                                symbol: v.text.clone(),
                                message: format!(
                                    "ScenarioKind::{} has no literal token() arm — its spec \
                                     token cannot be derived",
                                    v.text
                                ),
                            });
                            i += 1;
                            continue;
                        }
                    }
                };
                kinds.push((v.text.clone(), token, v.line, v.col));
            }
            i += 1;
        }
    } else {
        out.push(missing_contract_file("scenario-drift", "const ScenarioKind::ALL"));
    }

    // Dispatch arms of Runner::run: variant -> handler fn.
    let mut handler_of: BTreeMap<String, (String, usize, usize)> = BTreeMap::new();
    if let Some(f) = find_fn(runner, "run") {
        if let Some((b0, b1)) = f.body {
            let mut i = b0;
            while i + 3 < b1 {
                if runner.tokens[i].is_ident("ScenarioKind")
                    && runner.tokens[i + 1].is_punct(':')
                    && runner.tokens[i + 2].is_punct(':')
                    && runner.tokens[i + 3].kind == Kind::Ident
                {
                    let v = &runner.tokens[i + 3];
                    let mut j = i + 4;
                    // Skip a pattern payload like `(_)`.
                    if runner.tokens.get(j).is_some_and(|t| t.is_punct('(')) {
                        while j < b1 && !runner.tokens[j].is_punct(')') {
                            j += 1;
                        }
                        j += 1;
                    }
                    if runner.tokens.get(j).is_some_and(|t| t.is_punct('='))
                        && runner.tokens.get(j + 1).is_some_and(|t| t.is_punct('>'))
                    {
                        // Handler: the identifier called first in the arm.
                        let mut k = j + 2;
                        while k + 1 < b1 && !runner.tokens[k + 1].is_punct('(') {
                            k += 1;
                        }
                        if runner.tokens[k].kind == Kind::Ident {
                            handler_of.insert(
                                v.text.clone(),
                                (runner.tokens[k].text.clone(), v.line, v.col),
                            );
                        }
                    }
                }
                i += 1;
            }
        }
    }

    // Which handlers emit a BenchReport? Handlers live in runner.rs or
    // scenarios.rs.
    let emits_bench = |name: &str| -> bool {
        [Some(runner), ws.file(SCENARIOS_RS)].into_iter().flatten().any(|file| {
            find_fn(file, name).and_then(|f| f.body).is_some_and(|(b0, b1)| {
                file.tokens[b0..b1].iter().any(|t| t.is_ident("BenchReport"))
            })
        })
    };

    let mut required_bench: BTreeSet<String> = BTreeSet::new();
    for (variant, token, line, col) in &kinds {
        if !artifacts.spec_stems.contains(token) {
            out.push(Finding {
                path: spec.path.clone(),
                line: *line,
                col: *col,
                rule: "scenario-drift",
                symbol: variant.clone(),
                message: format!(
                    "ScenarioKind::{variant} has no committed golden spec specs/{token}.spec"
                ),
            });
        }
        if let Some((handler, hline, hcol)) = handler_of.get(variant) {
            if emits_bench(handler) {
                required_bench.insert(token.clone());
                if !artifacts.bench_tokens.contains(token) {
                    out.push(Finding {
                        path: runner.path.clone(),
                        line: *hline,
                        col: *hcol,
                        rule: "scenario-drift",
                        symbol: variant.clone(),
                        message: format!(
                            "scenario `{token}` emits a BenchReport (handler `{handler}`) but \
                             has no committed baseline results/BENCH_{token}.json — the bench \
                             gate cannot cover it"
                        ),
                    });
                }
            }
        }
    }

    // Reverse direction: no stale artifacts.
    let known: BTreeSet<&str> = kinds.iter().map(|(_, t, _, _)| t.as_str()).collect();
    for stem in &artifacts.spec_stems {
        if !known.contains(stem.as_str()) {
            out.push(Finding {
                path: format!("specs/{stem}.spec"),
                line: 0,
                col: 0,
                rule: "scenario-drift",
                symbol: stem.clone(),
                message: format!(
                    "golden spec specs/{stem}.spec matches no ScenarioKind token — stale \
                     artifact"
                ),
            });
        }
    }
    for token in &artifacts.bench_tokens {
        if !required_bench.contains(token) {
            out.push(Finding {
                path: format!("results/BENCH_{token}.json"),
                line: 0,
                col: 0,
                rule: "scenario-drift",
                symbol: token.clone(),
                message: format!(
                    "baseline results/BENCH_{token}.json corresponds to no BenchReport-emitting \
                     scenario — stale artifact"
                ),
            });
        }
    }
    out
}
