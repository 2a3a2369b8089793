//! The rule set. Each rule is a token-sequence matcher over one file,
//! scoped by `Lint.toml` and exempt in test regions.

use crate::config::RuleScope;
use crate::lexer::{Tok, TokKind};
use crate::scope::TestRegions;

/// Rule names, sorted. `Config::parse` validates against this list, and
/// so does the suppression parser.
pub const RULE_NAMES: &[&str] = &[
    "determinism-hazards",
    "lossy-cast-in-parser",
    "no-raw-eprintln",
    "no-unwrap-in-analyzer",
    "thread-spawn-audit",
];

/// Pseudo-rule reported when a suppression comment carries the marker
/// but cannot be parsed. Not in [`RULE_NAMES`]: it cannot be scoped
/// away or allowed.
pub const MALFORMED_RULE: &str = "malformed-suppression";

/// One violation.
#[derive(Debug, Clone, PartialEq, Eq, PartialOrd, Ord)]
pub struct Finding {
    /// Workspace-relative path, `/`-separated.
    pub path: String,
    /// 1-based line.
    pub line: u32,
    /// 1-based column.
    pub col: u32,
    /// Rule name.
    pub rule: String,
    /// Human-readable explanation.
    pub message: String,
}

/// Everything a rule needs to examine one file.
pub struct FileCtx<'a> {
    /// Workspace-relative path.
    pub path: &'a str,
    /// Lexed code tokens.
    pub tokens: &'a [Tok],
    /// Detected `#[cfg(test)]` / `#[test]` line ranges.
    pub tests: &'a TestRegions,
    /// Whole file is test scope (`tests/`, `benches/`, `examples/`).
    pub file_is_test: bool,
}

impl FileCtx<'_> {
    fn exempt(&self, line: u32) -> bool {
        self.file_is_test || self.tests.contains(line)
    }

    fn finding(&self, tok: &Tok, rule: &str, message: String) -> Finding {
        Finding {
            path: self.path.to_string(),
            line: tok.line,
            col: tok.col,
            rule: rule.to_string(),
            message,
        }
    }
}

/// Runs every rule whose scope covers `ctx.path`.
pub fn run_all(ctx: &FileCtx<'_>, scope_for: impl Fn(&str) -> RuleScope) -> Vec<Finding> {
    let mut out = Vec::new();
    for &rule in RULE_NAMES {
        let scope = scope_for(rule);
        if !scope.applies(ctx.path) {
            continue;
        }
        match rule {
            "no-unwrap-in-analyzer" => no_unwrap(ctx, &scope, &mut out),
            "no-raw-eprintln" => no_raw_eprintln(ctx, &mut out),
            "determinism-hazards" => determinism_hazards(ctx, &scope, &mut out),
            "lossy-cast-in-parser" => lossy_cast(ctx, &mut out),
            "thread-spawn-audit" => thread_spawn(ctx, &mut out),
            _ => unreachable!("rule list and dispatch table must agree"),
        }
    }
    out
}

const PANIC_MACROS: &[&str] = &["panic", "unreachable", "todo", "unimplemented"];

/// `no-unwrap-in-analyzer`: `.unwrap()` / `.expect()`, the panic macro
/// family, and (in the `index` sub-scope) unchecked range slicing — the
/// salvage path must degrade, not die.
fn no_unwrap(ctx: &FileCtx<'_>, scope: &RuleScope, out: &mut Vec<Finding>) {
    let t = ctx.tokens;
    for i in 0..t.len() {
        if ctx.exempt(t[i].line) {
            continue;
        }
        // `.unwrap(` / `.expect(`
        if t[i].is_punct('.')
            && t.get(i + 2).is_some_and(|p| p.is_punct('('))
            && t.get(i + 1)
                .is_some_and(|m| m.is_ident("unwrap") || m.is_ident("expect"))
        {
            let m = &t[i + 1];
            out.push(ctx.finding(
                m,
                "no-unwrap-in-analyzer",
                format!(
                    "`.{}()` on an analyzer path can abort the whole corpus run; \
                     return a typed error instead",
                    m.text
                ),
            ));
            continue;
        }
        // panic! family
        if t[i].kind == TokKind::Ident
            && PANIC_MACROS.contains(&t[i].text.as_str())
            && t.get(i + 1).is_some_and(|p| p.is_punct('!'))
        {
            out.push(ctx.finding(
                &t[i],
                "no-unwrap-in-analyzer",
                format!(
                    "`{}!` in analyzer code kills the process instead of degrading \
                     the one trace that misbehaved",
                    t[i].text
                ),
            ));
            continue;
        }
        // Unchecked range slicing `expr[a..b]` (index sub-scope only).
        if t[i].is_punct('[')
            && i > 0
            && scope.applies_sub("index", ctx.path)
            && is_indexable(&t[i - 1])
        {
            if let Some(close) = matching_square(t, i) {
                let has_range = t[i + 1..close]
                    .iter()
                    .scan(0i32, |depth, tok| {
                        let d = *depth;
                        if tok.is_punct('[') || tok.is_punct('(') {
                            *depth += 1;
                        } else if tok.is_punct(']') || tok.is_punct(')') {
                            *depth -= 1;
                        }
                        Some((d, tok))
                    })
                    .any(|(d, tok)| d == 0 && tok.kind == TokKind::DotDot);
                if has_range {
                    out.push(
                        ctx.finding(
                            &t[i],
                            "no-unwrap-in-analyzer",
                            "unchecked range slice panics when the bounds lie; use `.get(..)` \
                         or prove the bounds in a comment-justified allow"
                                .to_string(),
                        ),
                    );
                }
            }
        }
    }
}

fn is_indexable(prev: &Tok) -> bool {
    prev.kind == TokKind::Ident || prev.is_punct(')') || prev.is_punct(']')
}

fn matching_square(t: &[Tok], open: usize) -> Option<usize> {
    let mut depth = 0i32;
    for (j, tok) in t.iter().enumerate().skip(open) {
        if tok.is_punct('[') {
            depth += 1;
        } else if tok.is_punct(']') {
            depth -= 1;
            if depth == 0 {
                return Some(j);
            }
        }
    }
    None
}

const PRINT_MACROS: &[&str] = &["println", "print", "eprintln", "eprint", "dbg"];

/// `no-raw-eprintln`: diagnostics must route through the `tcpa-obs`
/// logger, and census stdout through the single `report.rs` choke point —
/// stray prints break stdout byte-stability.
fn no_raw_eprintln(ctx: &FileCtx<'_>, out: &mut Vec<Finding>) {
    let t = ctx.tokens;
    for i in 0..t.len() {
        if ctx.exempt(t[i].line) {
            continue;
        }
        if t[i].kind == TokKind::Ident
            && PRINT_MACROS.contains(&t[i].text.as_str())
            && t.get(i + 1).is_some_and(|p| p.is_punct('!'))
        {
            out.push(ctx.finding(
                &t[i],
                "no-raw-eprintln",
                format!(
                    "`{}!` bypasses the obs logger / census choke point and breaks \
                     stdout byte-stability",
                    t[i].text
                ),
            ));
        }
    }
}

const ENV_READS: &[&str] = &[
    "args",
    "args_os",
    "current_dir",
    "remove_var",
    "set_var",
    "var",
    "var_os",
    "vars",
    "vars_os",
];

/// `determinism-hazards`: unordered-map types in output-feeding crates
/// (`hash` sub-scope), wall-clock reads outside whitelisted timing
/// modules (`clock` sub-scope), and `std::env` reads outside CLI parsing
/// (`env` sub-scope).
///
/// The `span_clock` sub-scope covers the files the `clock` whitelist
/// exempts: there, raw `Instant::now()`/`SystemTime::now()` is still
/// flagged — not as an output hazard but because it bypasses the span
/// API, so the time never reaches metrics or the trace. Only
/// `crates/obs` itself (where the span clock lives) is excluded.
fn determinism_hazards(ctx: &FileCtx<'_>, scope: &RuleScope, out: &mut Vec<Finding>) {
    let t = ctx.tokens;
    let hash = scope.applies_sub("hash", ctx.path);
    let clock = scope.applies_sub("clock", ctx.path);
    let span_clock = scope.applies_sub("span_clock", ctx.path);
    let env = scope.applies_sub("env", ctx.path);
    for i in 0..t.len() {
        if ctx.exempt(t[i].line) {
            continue;
        }
        if hash && (t[i].is_ident("HashMap") || t[i].is_ident("HashSet")) {
            out.push(ctx.finding(
                &t[i],
                "determinism-hazards",
                format!(
                    "`{}` iteration order varies run-to-run; use `BTreeMap`/`BTreeSet` \
                     in crates that feed sorted or serialized output",
                    t[i].text
                ),
            ));
            continue;
        }
        if clock
            && (t[i].is_ident("Instant") || t[i].is_ident("SystemTime"))
            && t.get(i + 1).is_some_and(|p| p.kind == TokKind::PathSep)
            && t.get(i + 2).is_some_and(|m| m.is_ident("now"))
        {
            out.push(ctx.finding(
                &t[i],
                "determinism-hazards",
                format!(
                    "`{}::now()` outside the whitelisted timing modules leaks wall-clock \
                     into analysis output",
                    t[i].text
                ),
            ));
            continue;
        }
        // Only where the `clock` whitelist opted the file out — under the
        // default (full) scope the branch above already owns the pattern.
        if !clock
            && span_clock
            && (t[i].is_ident("Instant") || t[i].is_ident("SystemTime"))
            && t.get(i + 1).is_some_and(|p| p.kind == TokKind::PathSep)
            && t.get(i + 2).is_some_and(|m| m.is_ident("now"))
        {
            out.push(ctx.finding(
                &t[i],
                "determinism-hazards",
                format!(
                    "raw `{}::now()` bypasses the span API; time through \
                     `tcpa_obs::span`/`time` so the measurement reaches metrics \
                     and the trace, or add a justified allow",
                    t[i].text
                ),
            ));
            continue;
        }
        if env {
            // `std::env` anywhere (imports included).
            if t[i].is_ident("std")
                && t.get(i + 1).is_some_and(|p| p.kind == TokKind::PathSep)
                && t.get(i + 2).is_some_and(|m| m.is_ident("env"))
            {
                out.push(
                    ctx.finding(
                        &t[i],
                        "determinism-hazards",
                        "`std::env` reads outside CLI parsing make results depend on ambient \
                     process state"
                            .to_string(),
                    ),
                );
                continue;
            }
            // `env::var(..)` etc. via a prior import (skip when the `std::`
            // qualifier already produced a finding two tokens back).
            if t[i].is_ident("env")
                && t.get(i + 1).is_some_and(|p| p.kind == TokKind::PathSep)
                && t.get(i + 2).is_some_and(|m| {
                    m.kind == TokKind::Ident && ENV_READS.contains(&m.text.as_str())
                })
                && !(i >= 2 && t[i - 1].kind == TokKind::PathSep && t[i - 2].is_ident("std"))
            {
                out.push(ctx.finding(
                    &t[i],
                    "determinism-hazards",
                    format!(
                        "`env::{}` outside CLI parsing makes results depend on ambient \
                         process state",
                        t[i + 2].text
                    ),
                ));
            }
        }
    }
}

/// Narrowing targets for `lossy-cast-in-parser`. Widening casts
/// (`as u64`, `as u128`, `as f64`) are deliberately absent.
const NARROW_TARGETS: &[&str] = &[
    "i16", "i32", "i64", "i8", "isize", "u16", "u32", "u8", "usize",
];

/// `lossy-cast-in-parser`: `as` narrowing in byte-decoding paths — PR 2's
/// salvage fuzzing showed oversized length fields bite exactly here.
fn lossy_cast(ctx: &FileCtx<'_>, out: &mut Vec<Finding>) {
    let t = ctx.tokens;
    for i in 0..t.len() {
        if ctx.exempt(t[i].line) {
            continue;
        }
        if t[i].is_ident("as")
            && t.get(i + 1).is_some_and(|n| {
                n.kind == TokKind::Ident && NARROW_TARGETS.contains(&n.text.as_str())
            })
        {
            out.push(ctx.finding(
                &t[i],
                "lossy-cast-in-parser",
                format!(
                    "`as {}` silently truncates oversized length fields; use `try_from` \
                     and surface a parse error with the byte offset",
                    t[i + 1].text
                ),
            ));
        }
    }
}

/// `thread-spawn-audit`: ad-hoc threads escape the corpus runner's
/// per-item deadline, audit trail and span tree; every spawn outside
/// `corpus.rs` needs a justified allow.
fn thread_spawn(ctx: &FileCtx<'_>, out: &mut Vec<Finding>) {
    let t = ctx.tokens;
    for i in 1..t.len() {
        if ctx.exempt(t[i].line) {
            continue;
        }
        if t[i].is_ident("spawn")
            && t.get(i + 1).is_some_and(|p| p.is_punct('('))
            && (t[i - 1].kind == TokKind::PathSep || t[i - 1].is_punct('.'))
        {
            out.push(
                ctx.finding(
                    &t[i],
                    "thread-spawn-audit",
                    "thread spawned outside corpus.rs bypasses the watchdog and audit-trail \
                 absorption; justify with an allow or move under the corpus runner"
                        .to_string(),
                ),
            );
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::Config;
    use crate::lexer::lex;
    use crate::scope::detect;

    fn check(path: &str, src: &str) -> Vec<Finding> {
        let lexed = lex(src);
        let tests = detect(&lexed.tokens);
        let ctx = FileCtx {
            path,
            tokens: &lexed.tokens,
            tests: &tests,
            file_is_test: crate::scope::path_is_test(path),
        };
        let config = Config::default();
        run_all(&ctx, |r| config.scope(r))
    }

    fn rules_hit(findings: &[Finding]) -> Vec<&str> {
        findings.iter().map(|f| f.rule.as_str()).collect()
    }

    #[test]
    fn unwrap_expect_and_panics_fire() {
        let f = check(
            "a.rs",
            "fn f() { x.unwrap(); y.expect(\"m\"); panic!(\"no\"); }",
        );
        assert_eq!(rules_hit(&f), vec!["no-unwrap-in-analyzer"; 3], "{f:?}");
    }

    #[test]
    fn unwrap_or_is_not_unwrap() {
        let f = check("a.rs", "fn f() { x.unwrap_or(0); y.unwrap_or_else(|| 1); }");
        assert!(f.is_empty(), "{f:?}");
    }

    #[test]
    fn range_slice_fires_only_as_indexing() {
        let f = check("a.rs", "fn f() { let a = &buf[1..n]; let b = [0u8; 4]; }");
        assert_eq!(rules_hit(&f), vec!["no-unwrap-in-analyzer"]);
        let g = check("a.rs", "fn f() { for i in 0..n { q(i); } }");
        assert!(g.is_empty(), "{g:?}");
    }

    #[test]
    fn print_family_fires() {
        let f = check("a.rs", "fn f() { println!(\"x\"); eprintln!(\"y\"); }");
        assert_eq!(rules_hit(&f), vec!["no-raw-eprintln"; 2]);
    }

    #[test]
    fn determinism_hazards_fire() {
        let src = "use std::collections::HashMap;\nfn f() { let t = Instant::now(); let v = std::env::var(\"X\"); }";
        let f = check("a.rs", src);
        assert_eq!(rules_hit(&f), vec!["determinism-hazards"; 3], "{f:?}");
    }

    #[test]
    fn span_clock_fires_only_where_clock_whitelist_applies() {
        let config = Config::parse(
            "[rule.determinism-hazards]\n\
             clock_exclude = [\"crates/bench/\", \"crates/obs/src/\"]\n\
             span_clock_exclude = [\"crates/obs/src/\"]\n",
            RULE_NAMES,
        )
        .expect("config parses");
        let src = "fn f() { let t = Instant::now(); }";
        let lexed = lex(src);
        let tests = detect(&lexed.tokens);
        let run = |path| {
            let ctx = FileCtx {
                path,
                tokens: &lexed.tokens,
                tests: &tests,
                file_is_test: false,
            };
            run_all(&ctx, |r| config.scope(r))
        };
        // Full scope: the legacy clock branch owns the pattern (one finding).
        let f = run("crates/core/src/a.rs");
        assert_eq!(rules_hit(&f), vec!["determinism-hazards"], "{f:?}");
        assert!(f[0].message.contains("whitelisted timing modules"), "{f:?}");
        // Clock-whitelisted file: the span-clock branch takes over.
        let f = run("crates/bench/src/a.rs");
        assert_eq!(rules_hit(&f), vec!["determinism-hazards"], "{f:?}");
        assert!(f[0].message.contains("bypasses the span API"), "{f:?}");
        // The span implementation itself is exempt from both.
        let f = run("crates/obs/src/span.rs");
        assert!(f.is_empty(), "{f:?}");
    }

    #[test]
    fn env_via_import_fires_once() {
        let f = check("a.rs", "fn f() { let v = env::var(\"X\"); }");
        assert_eq!(rules_hit(&f), vec!["determinism-hazards"]);
        // Fully qualified: one finding (at `std`), not two.
        let g = check("a.rs", "fn f() { let v = std::env::var(\"X\"); }");
        assert_eq!(rules_hit(&g), vec!["determinism-hazards"]);
    }

    #[test]
    fn narrowing_casts_fire_widening_do_not() {
        let f = check(
            "a.rs",
            "fn f(x: u64) { let a = x as u32; let b = x as u64; }",
        );
        assert_eq!(rules_hit(&f), vec!["lossy-cast-in-parser"]);
    }

    #[test]
    fn spawn_fires_outside_corpus() {
        let f = check(
            "a.rs",
            "fn f() { std::thread::spawn(|| {}); s.spawn(|| {}); }",
        );
        assert_eq!(rules_hit(&f), vec!["thread-spawn-audit"; 2]);
    }

    #[test]
    fn test_regions_are_exempt() {
        let src = "#[cfg(test)]\nmod tests {\n    fn t() { x.unwrap(); panic!(); }\n}\n";
        assert!(check("a.rs", src).is_empty());
        assert!(check("crates/x/tests/t.rs", "fn t() { x.unwrap(); }").is_empty());
    }

    #[test]
    fn scoping_excludes_paths() {
        let config = Config::parse(
            "[rule.no-unwrap-in-analyzer]\ninclude = [\"crates/core/\"]\n",
            RULE_NAMES,
        )
        .expect("config parses");
        let src = "fn f() { x.unwrap(); }";
        let lexed = lex(src);
        let tests = detect(&lexed.tokens);
        let ctx = FileCtx {
            path: "crates/obs/src/log.rs",
            tokens: &lexed.tokens,
            tests: &tests,
            file_is_test: false,
        };
        let f = run_all(&ctx, |r| config.scope(r));
        assert!(f.iter().all(|f| f.rule != "no-unwrap-in-analyzer"), "{f:?}");
    }
}
