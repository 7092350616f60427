//! mc-lint: deny-by-default workspace invariant lints.
//!
//! Seven rule families over the lexed token stream (see DESIGN.md §8):
//!
//! - **`no-unwrap`** — no `.unwrap()` / `.expect(..)` / `panic!` in
//!   library code. Test spans (`#[cfg(test)]` items, `#[test]` functions)
//!   and binary targets (`src/bin/`, `main.rs`) are exempt; everything
//!   else needs an allowlist entry with a written justification.
//! - **`no-println`** — no `println!` / `eprintln!` in library code:
//!   libraries report through return values and the structured trace
//!   layer (`mc-obs`), never by writing to the process's stdio behind
//!   the caller's back. Binary targets and test spans are exempt.
//! - **`no-wallclock`** — no `SystemTime`, `Instant::now` or `thread_rng`
//!   in forecast paths: forecasts are seeded and reproducible, ambient
//!   time or entropy would silently break bit-identical replay.
//! - **`no-direct-sync`** — no `std::sync::Mutex` / `std::sync::Condvar`
//!   outside the `mc-sync` shim: locks taken behind the shim's back are
//!   invisible to the loom model checker, so the concurrency suite would
//!   vouch for code it never explored.
//! - **`no-unbounded-queue`** — no raw `VecDeque` or `std::sync::mpsc`
//!   channel use outside `sched::TaskQueue`: every work queue must flow
//!   through the bounded admission path (capacity cap, shed settlement,
//!   deferred-release backoff), so an ad-hoc queue cannot reintroduce
//!   the unbounded growth the overload layer exists to prevent.
//! - **`no-adhoc-bench`** — inside bench-land (`crates/bench/`,
//!   `crates/spec/`), no direct `ForecastEngine` / `serve_all` /
//!   `serve_all_observed` / `ServeHandle` access. Experiments go through
//!   the `mc-spec` runner — the one allowlisted seam — so every bench
//!   bin stays a thin spec wrapper and its numbers stay comparable.
//!   Binary targets are **not** exempt: the rule exists for them.
//! - **`no-scoped-spawn`** — no `thread::scope` / `thread::spawn` /
//!   `thread::Builder` outside the executor (`sched.rs`, allowlisted):
//!   every fan-out goes through `sched::drain`, which caps its threads at
//!   the hardware count and makes the caller one of the workers, so an
//!   ad-hoc spawn site cannot bring back a thread per sample.
//!
//! The two scope-sensitive rules that used to live here —
//! `no-direct-fit` and `single-construction` — migrated onto the
//! structural item tree in [`crate::analyze::rules`] (DESIGN.md §13),
//! where "inside the sanctioned seam" is a function body instead of an
//! allowlist entry.
//!
//! Rules report violations; suppression and its justification live in
//! the allowlist file ([`crate::allow`]), never in the rules.

use std::fmt;

use crate::lexer::{lex, Kind, Token};

/// Lint rule names, for reports and allowlist scoping (the analyze
/// layer has its own set in [`crate::analyze::RULE_NAMES`]).
pub const RULE_NAMES: [&str; 7] = [
    "no-unwrap",
    "no-println",
    "no-wallclock",
    "no-direct-sync",
    "no-unbounded-queue",
    "no-adhoc-bench",
    "no-scoped-spawn",
];

/// Rule families, used for reporting and allowlist matching.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Rule {
    NoUnwrap,
    NoPrintln,
    NoWallclock,
    NoDirectSync,
    NoUnboundedQueue,
    NoAdhocBench,
    NoScopedSpawn,
}

impl Rule {
    /// The rule's allowlist / report name.
    pub fn name(self) -> &'static str {
        match self {
            Rule::NoUnwrap => "no-unwrap",
            Rule::NoPrintln => "no-println",
            Rule::NoWallclock => "no-wallclock",
            Rule::NoDirectSync => "no-direct-sync",
            Rule::NoUnboundedQueue => "no-unbounded-queue",
            Rule::NoAdhocBench => "no-adhoc-bench",
            Rule::NoScopedSpawn => "no-scoped-spawn",
        }
    }
}

/// One lint hit: where, which rule, and what matched.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Violation {
    /// Workspace-relative path of the offending file.
    pub path: String,
    pub line: usize,
    pub rule: Rule,
    /// The matched symbol (`unwrap`, `Instant::now`, ...).
    pub symbol: String,
    pub message: String,
}

impl fmt::Display for Violation {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}:{}: [{}] {}", self.path, self.line, self.rule.name(), self.message)
    }
}

/// Marks tokens covered by `#[cfg(test)]` items or `#[test]`/`#[bench]`
/// functions so library-only rules can skip them.
///
/// Returns one flag per token. The scan is structural, not syntactic: an
/// exempting attribute skips over any further attributes, then exempts
/// the next item — either up to its matching close brace or through a
/// terminating `;` (for `mod tests;` forms). Public because the analyze
/// layer applies the same exemption to its full-fidelity token streams.
pub fn test_spans(tokens: &[Token]) -> Vec<bool> {
    let mut exempt = vec![false; tokens.len()];
    let mut i = 0;
    while i < tokens.len() {
        if let Some(after_attr) = exempting_attribute(tokens, i) {
            let end = item_end(tokens, after_attr);
            for flag in exempt.iter_mut().take(end).skip(i) {
                *flag = true;
            }
            i = end;
        } else {
            i += 1;
        }
    }
    exempt
}

/// If an exempting attribute (`#[test]`, `#[bench]`, or any `#[cfg(..)]`
/// mentioning `test`) starts at `i`, returns the index just past it.
fn exempting_attribute(tokens: &[Token], i: usize) -> Option<usize> {
    if !tokens[i].is_punct('#') || !tokens.get(i + 1)?.is_punct('[') {
        return None;
    }
    let close = matching(tokens, i + 1, '[', ']')?;
    let body = &tokens[i + 2..close];
    let exempts = match body.first() {
        Some(t) if t.is_ident("test") || t.is_ident("bench") => body.len() == 1,
        // `not(test)` guards production-only code — the opposite of
        // an exemption — so any negation disables the shortcut.
        Some(t) if t.is_ident("cfg") => {
            body.iter().any(|t| t.is_ident("test")) && !body.iter().any(|t| t.is_ident("not"))
        }
        _ => false,
    };
    if exempts {
        Some(close + 1)
    } else {
        None
    }
}

/// Index just past the item starting at `i`: skips further attributes,
/// then runs through the first `{...}` block or terminating `;`.
fn item_end(tokens: &[Token], mut i: usize) -> usize {
    // Skip any further attributes on the same item.
    while i < tokens.len() && tokens[i].is_punct('#') {
        match tokens
            .get(i + 1)
            .filter(|t| t.is_punct('['))
            .and_then(|_| matching(tokens, i + 1, '[', ']'))
        {
            Some(close) => i = close + 1,
            None => break,
        }
    }
    while i < tokens.len() {
        if tokens[i].is_punct(';') {
            return i + 1;
        }
        if tokens[i].is_punct('{') {
            return matching(tokens, i, '{', '}').map_or(tokens.len(), |c| c + 1);
        }
        i += 1;
    }
    tokens.len()
}

/// Index of the `close` matching the `open` at `start`.
fn matching(tokens: &[Token], start: usize, open: char, close: char) -> Option<usize> {
    let mut depth = 0usize;
    for (j, t) in tokens.iter().enumerate().skip(start) {
        if t.is_punct(open) {
            depth += 1;
        } else if t.is_punct(close) {
            depth -= 1;
            if depth == 0 {
                return Some(j);
            }
        }
    }
    None
}

fn violation(path: &str, t: &Token, rule: Rule, symbol: &str, message: String) -> Violation {
    Violation { path: path.to_string(), line: t.line, rule, symbol: symbol.to_string(), message }
}

/// Runs every file-local rule over one source file.
///
/// `path` is the workspace-relative label used in reports and allowlist
/// matching.
pub fn lint_file(path: &str, src: &str) -> Vec<Violation> {
    let tokens = lex(src);
    let exempt = test_spans(&tokens);
    let mut out = Vec::new();
    let in_bin = path.contains("/bin/") || path.ends_with("/main.rs");
    let in_bench_land = path.starts_with("crates/bench/") || path.starts_with("crates/spec/");
    for (i, is_exempt) in exempt.iter().enumerate() {
        if *is_exempt {
            continue;
        }
        if !in_bin {
            no_unwrap(path, &tokens, i, &mut out);
            no_println(path, &tokens, i, &mut out);
        }
        if in_bench_land {
            no_adhoc_bench(path, &tokens, i, &mut out);
        }
        no_wallclock(path, &tokens, i, &mut out);
        no_direct_sync(path, &tokens, i, &mut out);
        no_unbounded_queue(path, &tokens, i, &mut out);
        no_scoped_spawn(path, &tokens, i, &mut out);
    }
    out
}

fn prev_is(tokens: &[Token], i: usize, c: char) -> bool {
    i > 0 && tokens[i - 1].is_punct(c)
}

fn next_is_punct(tokens: &[Token], i: usize, c: char) -> bool {
    tokens.get(i + 1).is_some_and(|t| t.is_punct(c))
}

fn no_unwrap(path: &str, tokens: &[Token], i: usize, out: &mut Vec<Violation>) {
    let t = &tokens[i];
    if t.kind != Kind::Ident {
        return;
    }
    if (t.text == "unwrap" || t.text == "expect") && prev_is(tokens, i, '.') {
        out.push(violation(
            path,
            t,
            Rule::NoUnwrap,
            &t.text,
            format!(".{}() in library code: return a typed error instead", t.text),
        ));
    } else if t.text == "panic" && next_is_punct(tokens, i, '!') {
        out.push(violation(
            path,
            t,
            Rule::NoUnwrap,
            "panic",
            "panic! in library code: return a typed error instead".to_string(),
        ));
    }
}

fn no_println(path: &str, tokens: &[Token], i: usize, out: &mut Vec<Violation>) {
    let t = &tokens[i];
    if t.kind != Kind::Ident {
        return;
    }
    if (t.text == "println" || t.text == "eprintln") && next_is_punct(tokens, i, '!') {
        out.push(violation(
            path,
            t,
            Rule::NoPrintln,
            &t.text,
            format!("{}! in library code: report through return values or the trace layer", t.text),
        ));
    }
}

fn no_wallclock(path: &str, tokens: &[Token], i: usize, out: &mut Vec<Violation>) {
    let t = &tokens[i];
    if t.kind != Kind::Ident {
        return;
    }
    if t.text == "SystemTime" || t.text == "thread_rng" {
        out.push(violation(
            path,
            t,
            Rule::NoWallclock,
            &t.text,
            format!("{}: forecast paths must stay deterministic and seeded", t.text),
        ));
    } else if t.text == "Instant"
        && next_is_punct(tokens, i, ':')
        && tokens.get(i + 2).is_some_and(|t| t.is_punct(':'))
        && tokens.get(i + 3).is_some_and(|t| t.is_ident("now"))
    {
        out.push(violation(
            path,
            t,
            Rule::NoWallclock,
            "Instant::now",
            "Instant::now: forecast paths must stay deterministic and seeded".to_string(),
        ));
    }
}

/// Matches `std::sync::Mutex`/`Condvar` paths and `use std::sync::{..}`
/// trees that import them.
fn no_direct_sync(path: &str, tokens: &[Token], i: usize, out: &mut Vec<Violation>) {
    if !tokens[i].is_ident("std")
        || !next_is_punct(tokens, i, ':')
        || !tokens.get(i + 2).is_some_and(|t| t.is_punct(':'))
        || !tokens.get(i + 3).is_some_and(|t| t.is_ident("sync"))
        || !next_is_punct(tokens, i + 3, ':')
        || !tokens.get(i + 5).is_some_and(|t| t.is_punct(':'))
    {
        return;
    }
    let after = i + 6;
    let flagged: Vec<&Token> = match tokens.get(after) {
        Some(t) if t.is_ident("Mutex") || t.is_ident("Condvar") => vec![t],
        Some(t) if t.is_punct('{') => match matching(tokens, after, '{', '}') {
            Some(close) => tokens[after..close]
                .iter()
                .filter(|t| t.is_ident("Mutex") || t.is_ident("Condvar"))
                .collect(),
            None => Vec::new(),
        },
        _ => Vec::new(),
    };
    for t in flagged {
        out.push(violation(
            path,
            t,
            Rule::NoDirectSync,
            &t.text,
            format!(
                "std::sync::{} bypasses the mc-sync shim and hides from the loom model checker",
                t.text
            ),
        ));
    }
}

/// Flags raw queue primitives: any `VecDeque` mention (import, type or
/// constructor — importing one is how ad-hoc queues start) and any
/// `std::sync::mpsc` path or import. Queues belong behind
/// `sched::TaskQueue`, whose bounded admission the overload layer
/// depends on; the one sanctioned backing store is allowlisted.
fn no_unbounded_queue(path: &str, tokens: &[Token], i: usize, out: &mut Vec<Violation>) {
    let t = &tokens[i];
    if t.kind != Kind::Ident {
        return;
    }
    if t.text == "VecDeque" {
        out.push(violation(
            path,
            t,
            Rule::NoUnboundedQueue,
            "VecDeque",
            "raw VecDeque: queues must go through sched::TaskQueue so bounded admission \
             (capacity cap, shed settlement) cannot be bypassed"
                .to_string(),
        ));
    } else if t.text == "mpsc" {
        out.push(violation(
            path,
            t,
            Rule::NoUnboundedQueue,
            "mpsc",
            "std::sync::mpsc channel: queues must go through sched::TaskQueue, which the \
             admission layer bounds and the loom suite models"
                .to_string(),
        ));
    }
}

/// Flags thread creation outside the executor: `thread::scope`,
/// `thread::spawn` and `thread::Builder` paths, and `thread::{..}` use
/// trees importing them. Fan-out belongs to `sched::drain`, which caps
/// its workers at the hardware thread count and runs the caller as one
/// of them; the executor itself is allowlisted.
fn no_scoped_spawn(path: &str, tokens: &[Token], i: usize, out: &mut Vec<Violation>) {
    if !tokens[i].is_ident("thread")
        || !next_is_punct(tokens, i, ':')
        || !tokens.get(i + 2).is_some_and(|t| t.is_punct(':'))
    {
        return;
    }
    let spawns = |t: &&Token| t.is_ident("scope") || t.is_ident("spawn") || t.is_ident("Builder");
    let after = i + 3;
    let flagged: Vec<&Token> = match tokens.get(after) {
        Some(t) if spawns(&t) => vec![t],
        Some(t) if t.is_punct('{') => match matching(tokens, after, '{', '}') {
            Some(close) => tokens[after..close].iter().filter(spawns).collect(),
            None => Vec::new(),
        },
        _ => Vec::new(),
    };
    for t in flagged {
        let symbol = format!("thread::{}", t.text);
        out.push(violation(
            path,
            t,
            Rule::NoScopedSpawn,
            &symbol,
            format!(
                "{symbol} outside the executor: fan out through sched::drain, which caps \
                 threads at the hardware count and makes the caller a worker"
            ),
        ));
    }
}

/// Flags direct engine/serve access in bench-land. The spec runner is
/// the one sanctioned seam (allowlisted); everything else in
/// `crates/bench/` and `crates/spec/` — bins very much included —
/// must describe its experiment as a `ScenarioSpec` instead.
fn no_adhoc_bench(path: &str, tokens: &[Token], i: usize, out: &mut Vec<Violation>) {
    let t = &tokens[i];
    if t.kind != Kind::Ident {
        return;
    }
    let banned = matches!(
        t.text.as_str(),
        "ForecastEngine" | "serve_all" | "serve_all_observed" | "ServeHandle"
    );
    if banned {
        out.push(violation(
            path,
            t,
            Rule::NoAdhocBench,
            &t.text,
            format!(
                "{} accessed directly in bench-land: drive the experiment through the \
                 mc-spec runner so the scenario stays declarative and gated",
                t.text
            ),
        ));
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn unwrap_in_test_mod_is_exempt() {
        let src = r#"
            pub fn lib_path(x: Option<u32>) -> u32 { x.unwrap() }
            #[cfg(test)]
            mod tests {
                #[test]
                fn t() { Some(1).unwrap(); panic!("fine here"); }
            }
        "#;
        let v = lint_file("crates/demo/src/lib.rs", src);
        assert_eq!(v.len(), 1, "{v:?}");
        assert_eq!(v[0].line, 2);
        assert_eq!(v[0].rule, Rule::NoUnwrap);
    }

    #[test]
    fn test_attribute_exempts_only_that_item() {
        let src = r#"
            #[test]
            fn covered() { panic!("ok") }
            fn exposed() { panic!("flagged") }
        "#;
        let v = lint_file("crates/demo/src/lib.rs", src);
        assert_eq!(v.len(), 1, "{v:?}");
        assert_eq!(v[0].line, 4);
    }

    #[test]
    fn use_tree_and_path_forms_of_std_sync_are_flagged() {
        let src =
            "use std::sync::{Arc, Mutex, Condvar};\nfn f() { let _ = std::sync::Mutex::new(()); }";
        let v = lint_file("crates/demo/src/lib.rs", src);
        let symbols: Vec<&str> = v.iter().map(|v| v.symbol.as_str()).collect();
        assert_eq!(symbols, vec!["Mutex", "Condvar", "Mutex"]);
        assert!(v.iter().all(|v| v.rule == Rule::NoDirectSync));
    }

    #[test]
    fn wallclock_sources_are_flagged() {
        let src = "fn f() { let _ = Instant::now(); let _ = thread_rng(); }\nfn ok() { let _ = Instant::from_nanos; }";
        let v = lint_file("crates/demo/src/lib.rs", src);
        let symbols: Vec<&str> = v.iter().map(|v| v.symbol.as_str()).collect();
        assert_eq!(symbols, vec!["Instant::now", "thread_rng"]);
    }

    #[test]
    fn raw_queue_primitives_are_flagged_in_every_form() {
        let src = "use std::collections::VecDeque;\nfn f() { let q: VecDeque<u32> = VecDeque::new(); let (_t, _r) = std::sync::mpsc::channel::<u8>(); }";
        let v = lint_file("crates/demo/src/lib.rs", src);
        let symbols: Vec<&str> = v.iter().map(|v| v.symbol.as_str()).collect();
        assert_eq!(symbols, vec!["VecDeque", "VecDeque", "VecDeque", "mpsc"]);
        assert!(v.iter().all(|v| v.rule == Rule::NoUnboundedQueue));
        // Tests may build scratch queues.
        let test_src = "#[cfg(test)]\nmod tests { use std::collections::VecDeque; }";
        assert!(lint_file("crates/demo/src/lib.rs", test_src).is_empty());
    }

    #[test]
    fn bins_are_exempt_from_unwrap_but_not_determinism() {
        let src = "fn main() { foo().unwrap(); println!(\"x\"); let _ = thread_rng(); }";
        let v = lint_file("src/bin/tool.rs", src);
        assert_eq!(v.len(), 1, "{v:?}");
        assert_eq!(v[0].rule, Rule::NoWallclock);
        let v = lint_file("crates/xtask/src/main.rs", src);
        assert_eq!(v.len(), 1, "{v:?}");
        assert_eq!(v[0].rule, Rule::NoWallclock);
    }

    #[test]
    fn adhoc_bench_applies_only_in_bench_land_and_ignores_bin_exemption() {
        let src = "fn main() { let e = ForecastEngine::new(c); let _ = serve_all(&b, &s); }";
        // Bench bins are exactly what the rule polices — no bin exemption.
        let v = lint_file("crates/bench/src/bin/quick.rs", src);
        let symbols: Vec<&str> = v.iter().map(|v| v.symbol.as_str()).collect();
        assert_eq!(symbols, vec!["ForecastEngine", "serve_all"]);
        assert!(v.iter().all(|v| v.rule == Rule::NoAdhocBench));
        // The spec crate is in scope too (its runner is allowlisted).
        assert_eq!(lint_file("crates/spec/src/runner.rs", src).len(), 2);
        // Outside bench-land the engine is fair game.
        assert!(lint_file("crates/core/src/engine.rs", src).is_empty());
        assert!(lint_file("crates/tasks/src/lib.rs", src).is_empty());
        // `observe_all` is a different identifier, not a match.
        let near = "fn main() { observe_all(&mut m, &p); }";
        assert!(lint_file("crates/spec/src/scenarios.rs", near).is_empty());
    }

    #[test]
    fn thread_fan_out_is_flagged_in_path_and_use_tree_form() {
        let src = "use std::thread::{self, scope};\nfn f() { std::thread::scope(|s| { s.spawn(|| ()); }); thread::spawn(|| ()); }\nfn ok() { let _ = std::thread::available_parallelism(); thread::sleep(d); }";
        let v = lint_file("crates/demo/src/lib.rs", src);
        let symbols: Vec<&str> = v.iter().map(|v| v.symbol.as_str()).collect();
        assert_eq!(symbols, vec!["thread::scope", "thread::scope", "thread::spawn"]);
        assert!(v.iter().all(|v| v.rule == Rule::NoScopedSpawn));
        let test_src = "#[cfg(test)]\nmod tests { fn t() { std::thread::scope(|_| ()); } }";
        assert!(lint_file("crates/demo/src/lib.rs", test_src).is_empty());
    }

    #[test]
    fn println_in_library_code_is_flagged_but_tests_are_exempt() {
        let src = r#"
            pub fn report() { println!("lib stdout"); }
            pub fn complain() { eprintln!("lib stderr"); }
            #[cfg(test)]
            mod tests {
                #[test]
                fn t() { println!("fine here"); }
            }
        "#;
        let v = lint_file("crates/demo/src/lib.rs", src);
        let symbols: Vec<&str> = v.iter().map(|v| v.symbol.as_str()).collect();
        assert_eq!(symbols, vec!["println", "eprintln"]);
        assert!(v.iter().all(|v| v.rule == Rule::NoPrintln));
    }
}
