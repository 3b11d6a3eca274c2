//! The rule catalog: token-stream checks enforcing the workspace's
//! determinism, panic-policy, and API-discipline contracts.
//!
//! Every rule reports [`Finding`]s with a stable rule id (`area/name`),
//! the workspace-relative path, and a 1-based line — the coordinates the
//! waiver file ([`crate::waivers`]) matches against.
//!
//! # Scope
//!
//! * **Library code** (`src/**` of a workspace crate, including binaries)
//!   outside `#[cfg(test)]` regions is held to every contract.
//! * **Test regions** (`#[cfg(test)]` modules/items, `#[test]` functions)
//!   are exempt from every code rule — tests may hash, time, and unwrap
//!   freely. Top-level `tests/`, `benches/` and `examples/` files are not
//!   read at all.
//! * Vendored shims under `vendor/` are never code-linted (they *implement*
//!   the APIs these rules police); their manifests are still checked.

use crate::lexer::{lex, TokenKind};

/// A single rule violation (or waived ex-violation) at a source location.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Finding {
    /// Stable rule identifier, e.g. `determinism/hash-container`.
    pub rule: &'static str,
    /// Workspace-relative path with `/` separators.
    pub path: String,
    /// 1-based source line.
    pub line: u32,
    /// Human explanation of the contract that was broken.
    pub message: String,
    /// The trimmed source line, truncated for stable artifact output.
    pub snippet: String,
    /// Whether a `lint-allow.toml` waiver covers this finding.
    pub waived: bool,
    /// The waiver's rationale when `waived`.
    pub reason: Option<String>,
    /// Call-path witness (root → … → sink) for graph-reachability
    /// findings; empty for token-level findings.
    pub witness: Vec<String>,
}

/// Rule id: `HashMap`/`HashSet` in artifact-serializing library code.
pub const RULE_HASH: &str = "determinism/hash-container";
/// Rule id: `Instant::now`/`SystemTime::now` outside the timings quarantine.
pub const RULE_WALL_CLOCK: &str = "determinism/wall-clock";
/// Rule id: entropy-seeded RNG (`thread_rng`, `from_entropy`).
pub const RULE_ENTROPY: &str = "determinism/entropy-rng";
/// Rule id: unmarked `unwrap`/`expect`/`panic!`/`assert!` family call.
pub const RULE_PANIC: &str = "panic-policy/unmarked-panic";
/// Rule id: a `// PANIC-POLICY:` marker with no rationale text.
pub const RULE_EMPTY_MARKER: &str = "panic-policy/empty-marker";
/// Rule id: `Ordering::Relaxed` outside the telemetry allowlist.
pub const RULE_RELAXED: &str = "api/relaxed-ordering";

/// Per-file context handed to [`check_source`].
#[derive(Debug, Clone)]
pub struct FileContext<'a> {
    /// Workspace-relative path with `/` separators.
    pub rel_path: &'a str,
    /// Exact relative paths allowed to call `Instant::now`/`SystemTime::now`
    /// (the telemetry wall-clock quarantine).
    pub wall_clock_allow: &'a [String],
    /// Relative-path prefixes allowed to use `Ordering::Relaxed`.
    pub relaxed_allow: &'a [String],
}

/// Macro names whose invocation panics (checked with a trailing `!`).
/// `debug_assert*` is deliberately absent: it is compiled out of the
/// release builds that produce artifacts.
pub(crate) const PANIC_MACROS: &[&str] =
    &["panic", "assert", "assert_eq", "assert_ne", "unreachable", "todo", "unimplemented"];

/// Methods whose call panics (checked as `.name(`).
pub(crate) const PANIC_METHODS: &[&str] = &["unwrap", "expect"];

/// Runs every code rule over one file's source.
#[must_use]
pub fn check_source(ctx: &FileContext<'_>, source: &str) -> Vec<Finding> {
    let lexed = lex(source);
    let lines: Vec<&str> = source.lines().collect();
    let tokens = &lexed.tokens;
    let mut findings = Vec::new();

    let snippet = |line: u32| -> String {
        let text = lines.get(line as usize - 1).map_or("", |l| l.trim());
        let mut s: String = text.chars().take(96).collect();
        if text.chars().count() > 96 {
            s.push('…');
        }
        s
    };
    let mut push = |rule: &'static str, line: u32, message: String| {
        findings.push(Finding {
            rule,
            path: ctx.rel_path.to_string(),
            line,
            message,
            snippet: snippet(line),
            waived: false,
            reason: None,
            witness: Vec::new(),
        });
    };

    let wall_clock_quarantined = ctx.wall_clock_allow.iter().any(|p| p == ctx.rel_path);
    let relaxed_allowed = ctx.relaxed_allow.iter().any(|p| ctx.rel_path.starts_with(p.as_str()));

    // --- test-region tracking ---------------------------------------------
    let mut brace_depth: i64 = 0;
    let mut test_regions: Vec<i64> = Vec::new(); // brace depths of open test bodies
    let mut pending_test = false; // saw a test-gating attribute, body not yet entered
    let mut file_is_test = false; // inner `#![cfg(test)]`

    let ident = |idx: usize| -> Option<&str> {
        match tokens.get(idx).map(|t| &t.kind) {
            Some(TokenKind::Ident(s)) => Some(s.as_str()),
            _ => None,
        }
    };
    let punct = |idx: usize, c: char| -> bool {
        matches!(tokens.get(idx).map(|t| &t.kind), Some(TokenKind::Punct(p)) if *p == c)
    };

    let mut i = 0usize;
    while i < tokens.len() {
        let line = tokens[i].line;
        match &tokens[i].kind {
            TokenKind::Punct('#') => {
                // Attribute: `#[…]` or inner `#![…]`; collect its idents.
                let mut j = i + 1;
                let inner = punct(j, '!');
                if inner {
                    j += 1;
                }
                if punct(j, '[') {
                    let mut depth = 1i64;
                    j += 1;
                    let mut ids: Vec<&str> = Vec::new();
                    while j < tokens.len() && depth > 0 {
                        match &tokens[j].kind {
                            TokenKind::Punct('[') => depth += 1,
                            TokenKind::Punct(']') => depth -= 1,
                            TokenKind::Ident(s) => ids.push(s.as_str()),
                            _ => {}
                        }
                        j += 1;
                    }
                    let gating = (ids.first() == Some(&"cfg")
                        && ids.contains(&"test")
                        && !ids.contains(&"not"))
                        || ids == ["test"];
                    if gating {
                        if inner {
                            file_is_test = true;
                        } else {
                            pending_test = true;
                        }
                    }
                    i = j;
                    continue;
                }
            }
            TokenKind::Punct('{') => {
                brace_depth += 1;
                if pending_test {
                    test_regions.push(brace_depth);
                    pending_test = false;
                }
            }
            TokenKind::Punct('}') => {
                if test_regions.last() == Some(&brace_depth) {
                    test_regions.pop();
                }
                brace_depth -= 1;
            }
            TokenKind::Punct(';') => {
                // `#[cfg(test)] use …;` — a body-less test item ends here.
                pending_test = false;
            }
            _ => {}
        }
        let in_test = file_is_test || pending_test || !test_regions.is_empty();

        if in_test {
            i += 1;
            continue;
        }

        // --- determinism: hash containers ---------------------------------
        if let Some(name) = ident(i) {
            if name == "HashMap" || name == "HashSet" {
                push(
                    RULE_HASH,
                    line,
                    format!(
                        "`{name}` iteration order is nondeterministic; use `BTreeMap`/\
                         `BTreeSet` or waive with proof the order never reaches an artifact"
                    ),
                );
            }
            // --- determinism: wall clock ----------------------------------
            if (name == "Instant" || name == "SystemTime")
                && punct(i + 1, ':')
                && punct(i + 2, ':')
                && ident(i + 3) == Some("now")
                && !wall_clock_quarantined
            {
                push(
                    RULE_WALL_CLOCK,
                    line,
                    format!(
                        "`{name}::now` outside the telemetry timings quarantine breaks \
                         byte-for-byte artifact determinism"
                    ),
                );
            }
            // --- determinism: entropy-seeded RNG --------------------------
            if name == "thread_rng" || name == "from_entropy" {
                push(
                    RULE_ENTROPY,
                    line,
                    format!(
                        "`{name}` draws OS entropy; all randomness must come from a \
                         seeded ChaCha8 stream (see `faults::rng::derive_seed`)"
                    ),
                );
            }
            // --- api discipline: relaxed atomics --------------------------
            if name == "Ordering"
                && punct(i + 1, ':')
                && punct(i + 2, ':')
                && ident(i + 3) == Some("Relaxed")
                && !relaxed_allowed
            {
                push(
                    RULE_RELAXED,
                    line,
                    "`Ordering::Relaxed` outside the telemetry allowlist; use a stronger \
                     ordering or waive with proof the value never reaches an artifact"
                        .to_string(),
                );
            }
        }

        // --- panic policy --------------------------------------------------
        let panic_hit: Option<String> = match ident(i) {
            Some(name) if PANIC_MACROS.contains(&name) && punct(i + 1, '!') => {
                Some(format!("{name}!"))
            }
            Some(name)
                if PANIC_METHODS.contains(&name) && i > 0 && punct(i - 1, '.') && punct(i + 1, '(') =>
            {
                Some(format!(".{name}()"))
            }
            _ => None,
        };
        if let Some(what) = panic_hit {
            let marker = lexed
                .panic_markers
                .get(&line)
                .or_else(|| line.checked_sub(1).and_then(|l| lexed.panic_markers.get(&l)));
            match marker {
                None => push(
                    RULE_PANIC,
                    line,
                    format!(
                        "`{what}` in non-test library code without a `// PANIC-POLICY:` \
                         contract marker (DESIGN.md §12); return a `Result` or document \
                         the programmer-error contract"
                    ),
                ),
                Some(rationale) if rationale.is_empty() => push(
                    RULE_EMPTY_MARKER,
                    line,
                    format!("`{what}` carries a `// PANIC-POLICY:` marker with no rationale"),
                ),
                Some(_) => {}
            }
        }

        i += 1;
    }
    findings
}

#[cfg(test)]
mod tests {
    use super::*;

    fn lib_ctx<'a>() -> FileContext<'a> {
        FileContext {
            rel_path: "crates/x/src/lib.rs",
            wall_clock_allow: &[],
            relaxed_allow: &[],
        }
    }

    fn rules_of(findings: &[Finding]) -> Vec<&'static str> {
        findings.iter().map(|f| f.rule).collect()
    }

    #[test]
    fn cfg_test_module_is_exempt() {
        let src = "
            pub fn f() -> u32 { 1 }
            #[cfg(test)]
            mod tests {
                use std::collections::HashMap;
                #[test]
                fn t() { let _ = HashMap::<u32, u32>::new(); assert!(true); }
            }
        ";
        assert!(check_source(&lib_ctx(), src).is_empty());
    }

    #[test]
    fn cfg_not_test_is_not_exempt() {
        let src = "#[cfg(not(test))]\nfn f() { let x: Option<u32> = None; x.unwrap(); }\n";
        assert_eq!(rules_of(&check_source(&lib_ctx(), src)), vec![RULE_PANIC]);
    }

    #[test]
    fn marker_on_same_or_previous_line_exempts() {
        let src = "
            fn f(x: Option<u32>) -> u32 {
                let a = x.unwrap(); // PANIC-POLICY: caller guarantees Some
                // PANIC-POLICY: second call shares the contract
                let b = x.unwrap();
                a + b
            }
        ";
        assert!(check_source(&lib_ctx(), src).is_empty());
    }

    #[test]
    fn empty_marker_is_reported() {
        let src = "fn f(x: Option<u32>) -> u32 { x.unwrap() } // PANIC-POLICY:\n";
        assert_eq!(rules_of(&check_source(&lib_ctx(), src)), vec![RULE_EMPTY_MARKER]);
    }

    #[test]
    fn unwrap_or_variants_do_not_trigger() {
        let src = "fn f(x: Option<u32>) -> u32 { x.unwrap_or(0) + x.unwrap_or_default() }\n";
        assert!(check_source(&lib_ctx(), src).is_empty());
    }

    #[test]
    fn wall_clock_quarantine_and_relaxed_allowlist() {
        let src = "fn f() { let _ = Instant::now(); ENABLED.load(Ordering::Relaxed); }\n";
        let allowed = FileContext {
            rel_path: "crates/telemetry/src/global.rs",
            wall_clock_allow: &["crates/telemetry/src/global.rs".to_string()],
            relaxed_allow: &["crates/telemetry/src/".to_string()],
        };
        assert!(check_source(&allowed, src).is_empty());
        let denied = lib_ctx();
        assert_eq!(
            rules_of(&check_source(&denied, src)),
            vec![RULE_WALL_CLOCK, RULE_RELAXED]
        );
    }

    #[test]
    fn entropy_rng_flagged_outside_tests() {
        let src = "fn f() { let mut rng = rand::thread_rng(); }\n";
        assert_eq!(rules_of(&check_source(&lib_ctx(), src)), vec![RULE_ENTROPY]);
    }

    #[test]
    fn strings_and_comments_never_fire() {
        let src = "
            /// Docs mentioning HashMap, Instant::now() and .unwrap().
            fn f() -> &'static str { \"HashMap thread_rng panic!\" }
        ";
        assert!(check_source(&lib_ctx(), src).is_empty());
    }

    #[test]
    fn findings_carry_location_and_snippet() {
        let src = "fn f() {\n    let m = std::collections::HashMap::<u32, u32>::new();\n}\n";
        let f = &check_source(&lib_ctx(), src)[0];
        assert_eq!((f.rule, f.line), (RULE_HASH, 2));
        assert!(f.snippet.contains("HashMap"));
        assert_eq!(f.path, "crates/x/src/lib.rs");
    }
}
