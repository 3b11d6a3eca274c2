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
//!   freely. The rules do not track regions themselves: they read the
//!   per-token flag [`crate::parser::parse`] computes once per file for
//!   both lint passes. Top-level `tests/`, `benches/` and `examples/`
//!   files are not read at all.
//! * Vendored shims under `vendor/` are never code-linted (they *implement*
//!   the APIs these rules police); their manifests are still checked.

use crate::lexer::TokenKind;
use crate::parser::ParsedFile;

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

/// Exact workspace-relative paths allowed to call `Instant::now` /
/// `SystemTime::now`: `telemetry::global::span` is *the* wall-clock
/// quarantine, whose measurements land only in the final `timings`
/// section of `Snapshot::to_json()`, which thread-invariance checks skip.
const WALL_CLOCK_ALLOW: &[&str] = &["crates/telemetry/src/global.rs"];

/// Workspace-relative path prefixes allowed to use `Ordering::Relaxed`:
/// the telemetry fast path, whose counters merge by commutative sums,
/// never by read order.
const RELAXED_ALLOW: &[&str] = &["crates/telemetry/src/"];

/// Per-file context handed to [`check_source`].
#[derive(Debug, Clone)]
pub struct FileContext<'a> {
    /// Workspace-relative path with `/` separators.
    pub rel_path: &'a str,
}

/// Macro names whose invocation panics (checked with a trailing `!`).
/// `debug_assert*` is deliberately absent: it is compiled out of the
/// release builds that produce artifacts.
const PANIC_MACROS: &[&str] =
    &["panic", "assert", "assert_eq", "assert_ne", "unreachable", "todo", "unimplemented"];

/// Methods whose call panics (checked as `.name(`).
const PANIC_METHODS: &[&str] = &["unwrap", "expect"];

/// Runs every code rule over one parsed file, skipping the tokens the
/// parser marked as test code.
#[must_use]
pub fn check_source(ctx: &FileContext<'_>, file: &ParsedFile) -> Vec<Finding> {
    let tokens = &file.tokens;
    let mut findings = Vec::new();
    let mut push = |rule: &'static str, line: u32, message: String| {
        findings.push(Finding {
            rule,
            path: ctx.rel_path.to_string(),
            line,
            message,
            snippet: file.snippet(line),
            waived: false,
            reason: None,
            witness: Vec::new(),
        });
    };

    let wall_clock_quarantined = WALL_CLOCK_ALLOW.contains(&ctx.rel_path);
    let relaxed_allowed = RELAXED_ALLOW.iter().any(|p| ctx.rel_path.starts_with(p));

    let ident = |idx: usize| -> Option<&str> {
        match tokens.get(idx).map(|t| &t.kind) {
            Some(TokenKind::Ident(s)) => Some(s.as_str()),
            _ => None,
        }
    };
    let punct = |idx: usize, c: char| -> bool {
        matches!(tokens.get(idx).map(|t| &t.kind), Some(TokenKind::Punct(p)) if *p == c)
    };

    for (i, (token, &in_test)) in tokens.iter().zip(&file.in_test).enumerate() {
        if in_test {
            continue;
        }
        let line = token.line;

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
                if PANIC_METHODS.contains(&name)
                    && i > 0
                    && punct(i - 1, '.')
                    && punct(i + 1, '(') =>
            {
                Some(format!(".{name}()"))
            }
            _ => None,
        };
        if let Some(what) = panic_hit {
            let marker = file
                .markers
                .get(&line)
                .or_else(|| line.checked_sub(1).and_then(|l| file.markers.get(&l)));
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
    }
    findings
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::parser::parse;

    fn check_at(rel_path: &str, src: &str) -> Vec<Finding> {
        check_source(&FileContext { rel_path }, &parse(src))
    }

    fn check(src: &str) -> Vec<Finding> {
        check_at("crates/x/src/lib.rs", src)
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
        assert!(check(src).is_empty());
    }

    #[test]
    fn cfg_not_test_is_not_exempt() {
        let src = "#[cfg(not(test))]\nfn f() { let x: Option<u32> = None; x.unwrap(); }\n";
        assert_eq!(rules_of(&check(src)), vec![RULE_PANIC]);
    }

    #[test]
    fn test_gated_struct_field_does_not_exempt_the_next_impl() {
        let src = "
            struct S {
                #[cfg(test)]
                x: u32,
                y: u32,
            }
            impl S {
                fn f(v: Option<u32>) -> u32 { v.unwrap() }
            }
        ";
        let findings = check(src);
        assert_eq!(rules_of(&findings), vec![RULE_PANIC], "{findings:?}");
        assert_eq!(findings[0].line, 8);
    }

    #[test]
    fn test_gated_enum_variant_does_not_exempt_the_next_fn() {
        let src = "
            enum E {
                A,
                #[cfg(test)]
                B,
            }
            fn f(v: Option<u32>) -> u32 { v.unwrap() }
        ";
        assert_eq!(rules_of(&check(src)), vec![RULE_PANIC]);
    }

    #[test]
    fn test_fn_returning_an_array_stays_exempt() {
        let src = "
            #[cfg(test)]
            fn f() -> [u8; 4] {
                let _m = std::collections::HashMap::<u8, u8>::new();
                [0; 4]
            }
        ";
        let findings = check(src);
        assert!(findings.is_empty(), "{findings:?}");
    }

    #[test]
    fn test_gated_last_field_without_comma_ends_at_the_brace() {
        let src = "
            struct S {
                y: u32,
                #[cfg(test)]
                x: u32
            }
            impl S {
                fn f(v: Option<u32>) -> u32 { v.unwrap() }
            }
        ";
        assert_eq!(rules_of(&check(src)), vec![RULE_PANIC]);
    }

    #[test]
    fn separators_nested_in_a_test_item_header_keep_it_exempt() {
        let src = "
            #[cfg(test)]
            struct Fixture<A, B> { m: std::collections::HashMap<A, B> }
            #[cfg(test)]
            const TABLE: [u8; 2] = { let _ = std::time::Instant::now(); [1, 2] };
        ";
        let findings = check(src);
        assert!(findings.is_empty(), "{findings:?}");
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
        assert!(check(src).is_empty());
    }

    #[test]
    fn empty_marker_is_reported() {
        let src = "fn f(x: Option<u32>) -> u32 { x.unwrap() } // PANIC-POLICY:\n";
        assert_eq!(rules_of(&check(src)), vec![RULE_EMPTY_MARKER]);
    }

    #[test]
    fn unwrap_or_variants_do_not_trigger() {
        let src = "fn f(x: Option<u32>) -> u32 { x.unwrap_or(0) + x.unwrap_or_default() }\n";
        assert!(check(src).is_empty());
    }

    #[test]
    fn wall_clock_quarantine_and_relaxed_allowlist() {
        let src = "fn f() { let _ = Instant::now(); ENABLED.load(Ordering::Relaxed); }\n";
        assert!(check_at("crates/telemetry/src/global.rs", src).is_empty());
        assert_eq!(rules_of(&check(src)), vec![RULE_WALL_CLOCK, RULE_RELAXED]);
    }

    #[test]
    fn entropy_rng_flagged_outside_tests() {
        let src = "fn f() { let mut rng = rand::thread_rng(); }\n";
        assert_eq!(rules_of(&check(src)), vec![RULE_ENTROPY]);
    }

    #[test]
    fn strings_and_comments_never_fire() {
        let src = "
            /// Docs mentioning HashMap, Instant::now() and .unwrap().
            fn f() -> &'static str { \"HashMap thread_rng panic!\" }
        ";
        assert!(check(src).is_empty());
    }

    #[test]
    fn findings_carry_location_and_snippet() {
        let src = "fn f() {\n    let m = std::collections::HashMap::<u32, u32>::new();\n}\n";
        let f = &check(src)[0];
        assert_eq!((f.rule, f.line), (RULE_HASH, 2));
        assert!(f.snippet.contains("HashMap"));
        assert_eq!(f.path, "crates/x/src/lib.rs");
    }
}
