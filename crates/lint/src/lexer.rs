//! A hand-rolled, token-level lexer for Rust source.
//!
//! The linter deliberately avoids a full parser (`syn` is not in the
//! vendored tree and never will be): every rule it enforces is expressible
//! over a token stream that correctly skips comments, string/char literals,
//! and raw strings — the places where naive substring matching goes wrong.
//!
//! Two outputs matter:
//!
//! * the token stream itself ([`Token`]), carrying 1-based line numbers so
//!   findings are clickable;
//! * the per-line [`PANIC-POLICY` marker map](LexOutput::panic_markers),
//!   collected from line comments, which the panic-policy rule consults.

use std::collections::BTreeMap;

/// One lexed token.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Token {
    /// What the token is.
    pub kind: TokenKind,
    /// 1-based source line on which the token starts.
    pub line: u32,
}

/// Token classification — only as fine-grained as the rules need.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum TokenKind {
    /// An identifier or keyword (`HashMap`, `fn`, `unwrap`, …).
    Ident(String),
    /// A single punctuation character (`{`, `}`, `:`, `#`, `!`, …).
    Punct(char),
    /// A string, char, byte, or numeric literal (contents discarded —
    /// literals can never trigger a rule, only shield false positives).
    Literal,
}

/// Result of lexing one file.
#[derive(Debug, Default)]
pub struct LexOutput {
    /// The token stream, comments and whitespace stripped.
    pub tokens: Vec<Token>,
    /// `line → rationale` for every `// PANIC-POLICY: …` line comment.
    /// The rationale is the trimmed text after the colon; it may be empty,
    /// which the panic-policy rule reports as a marker without a contract.
    pub panic_markers: BTreeMap<u32, String>,
}

/// The comment tag that exempts a panicking call site, per DESIGN.md §12.
pub const PANIC_MARKER: &str = "PANIC-POLICY:";

/// Lexes `source` into tokens plus the panic-marker map.
///
/// The lexer is lossy in ways the rules do not care about (literal
/// contents, multi-character operators split into single puncts) and
/// resilient: malformed input cannot make it panic, only produce a
/// best-effort stream.
#[must_use]
pub fn lex(source: &str) -> LexOutput {
    let mut out = LexOutput::default();
    let bytes: Vec<char> = source.chars().collect();
    let mut i = 0usize;
    let mut line: u32 = 1;
    let n = bytes.len();

    // Advances `idx` past the char at `idx`, bumping the line counter.
    macro_rules! bump {
        ($idx:ident) => {{
            if bytes[$idx] == '\n' {
                line += 1;
            }
            $idx += 1;
        }};
    }

    while i < n {
        let c = bytes[i];
        // Whitespace.
        if c.is_whitespace() {
            bump!(i);
            continue;
        }
        // Comments.
        if c == '/' && i + 1 < n {
            match bytes[i + 1] {
                '/' => {
                    // Line comment (incl. `///` and `//!` doc comments):
                    // capture the text for PANIC-POLICY markers.
                    let start = i + 2;
                    let mut j = start;
                    while j < n && bytes[j] != '\n' {
                        j += 1;
                    }
                    let text: String = bytes[start..j].iter().collect();
                    if let Some(pos) = text.find(PANIC_MARKER) {
                        let rationale = text[pos + PANIC_MARKER.len()..].trim().to_string();
                        out.panic_markers.insert(line, rationale);
                    }
                    i = j;
                    continue;
                }
                '*' => {
                    // Block comment, possibly nested.
                    let mut depth = 1usize;
                    i += 2;
                    while i < n && depth > 0 {
                        if bytes[i] == '/' && i + 1 < n && bytes[i + 1] == '*' {
                            depth += 1;
                            i += 2;
                        } else if bytes[i] == '*' && i + 1 < n && bytes[i + 1] == '/' {
                            depth -= 1;
                            i += 2;
                        } else {
                            bump!(i);
                        }
                    }
                    continue;
                }
                _ => {}
            }
        }
        // Identifiers, keywords, and raw/byte string prefixes.
        if c.is_ascii_alphabetic() || c == '_' {
            let start = i;
            let start_line = line;
            while i < n && (bytes[i].is_ascii_alphanumeric() || bytes[i] == '_') {
                i += 1;
            }
            let ident: String = bytes[start..i].iter().collect();
            // `r"…"`, `r#"…"#`, `b"…"`, `br#"…"#`, `rb"…"` are literals,
            // not an identifier followed by a string.
            if matches!(ident.as_str(), "r" | "b" | "br" | "rb") && i < n {
                let mut j = i;
                let mut hashes = 0usize;
                while j < n && bytes[j] == '#' {
                    hashes += 1;
                    j += 1;
                }
                // A raw identifier (`r#type`) is hashes followed by an
                // ident char, not a quote — fall through to plain idents.
                if j < n && bytes[j] == '"' {
                    // `b"…"` (no `r`) is an escaped byte string: `\"` does
                    // not close it. Every `r`-prefixed form is raw: no
                    // escapes, closed only by `"` + the right hash count.
                    let raw = ident.as_str() != "b";
                    i = j + 1;
                    'raw: while i < n {
                        match bytes[i] {
                            '\\' if !raw && i + 1 < n => {
                                bump!(i);
                                bump!(i);
                                continue;
                            }
                            '"' => {
                                let mut k = 0usize;
                                while k < hashes && i + 1 + k < n && bytes[i + 1 + k] == '#' {
                                    k += 1;
                                }
                                if k == hashes {
                                    i += 1 + hashes;
                                    break 'raw;
                                }
                            }
                            _ => {}
                        }
                        bump!(i);
                    }
                    out.tokens.push(Token { kind: TokenKind::Literal, line: start_line });
                    continue;
                }
            }
            out.tokens.push(Token { kind: TokenKind::Ident(ident), line: start_line });
            continue;
        }
        // Numeric literals. A dot is consumed only when followed by a
        // digit, so `self.0.unwrap()` still yields a `.` + `unwrap` pair.
        if c.is_ascii_digit() {
            let start_line = line;
            while i < n {
                let d = bytes[i];
                let part_of_number = d.is_ascii_alphanumeric()
                    || d == '_'
                    || (d == '.' && i + 1 < n && bytes[i + 1].is_ascii_digit())
                    || ((d == '+' || d == '-')
                        && i > 0
                        && matches!(bytes[i - 1], 'e' | 'E')
                        && i + 1 < n
                        && bytes[i + 1].is_ascii_digit());
                if part_of_number {
                    i += 1;
                } else {
                    break;
                }
            }
            out.tokens.push(Token { kind: TokenKind::Literal, line: start_line });
            continue;
        }
        // String literals.
        if c == '"' {
            let start_line = line;
            bump!(i);
            while i < n {
                match bytes[i] {
                    '\\' if i + 1 < n => {
                        bump!(i);
                        bump!(i);
                    }
                    '"' => {
                        i += 1;
                        break;
                    }
                    _ => bump!(i),
                }
            }
            out.tokens.push(Token { kind: TokenKind::Literal, line: start_line });
            continue;
        }
        // Char literal vs lifetime.
        if c == '\'' {
            let start_line = line;
            if i + 1 < n && bytes[i + 1] == '\\' {
                // Escaped char literal: the character after the backslash
                // is consumed unconditionally (it may itself be `'`, as in
                // `'\''`), then scan to the closing quote.
                i += 2;
                if i < n {
                    bump!(i);
                }
                while i < n && bytes[i] != '\'' {
                    bump!(i);
                }
                i = (i + 1).min(n);
                out.tokens.push(Token { kind: TokenKind::Literal, line: start_line });
            } else if i + 2 < n && bytes[i + 2] == '\'' {
                // Plain char literal `'x'`.
                i += 3;
                out.tokens.push(Token { kind: TokenKind::Literal, line: start_line });
            } else {
                // Lifetime: `'` + identifier, no closing quote.
                i += 1;
                while i < n && (bytes[i].is_ascii_alphanumeric() || bytes[i] == '_') {
                    i += 1;
                }
                out.tokens.push(Token { kind: TokenKind::Literal, line: start_line });
            }
            continue;
        }
        // Everything else: single punctuation char.
        out.tokens.push(Token { kind: TokenKind::Punct(c), line });
        i += 1;
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn idents(src: &str) -> Vec<String> {
        lex(src)
            .tokens
            .into_iter()
            .filter_map(|t| match t.kind {
                TokenKind::Ident(s) => Some(s),
                _ => None,
            })
            .collect()
    }

    #[test]
    fn strings_and_comments_are_not_idents() {
        let src = r##"
            // HashMap in a comment
            /* Instant::now() in /* a nested */ block */
            let s = "HashMap::new()";
            let r = r#"thread_rng"#;
            let c = 'u';
            let real = HashMap::new();
        "##;
        let ids = idents(src);
        assert_eq!(ids.iter().filter(|s| *s == "HashMap").count(), 1);
        assert!(!ids.iter().any(|s| s == "Instant" || s == "thread_rng"));
    }

    #[test]
    fn tuple_field_unwrap_is_visible() {
        let toks = lex("self.0.unwrap()").tokens;
        let has_unwrap =
            toks.iter().any(|t| matches!(&t.kind, TokenKind::Ident(s) if s == "unwrap"));
        assert!(has_unwrap, "numeric field access must not swallow `.unwrap`: {toks:?}");
    }

    #[test]
    fn float_exponents_stay_literals() {
        let toks = lex("let x = 1.0e-9.max(2.5);").tokens;
        let maxes =
            toks.iter().filter(|t| matches!(&t.kind, TokenKind::Ident(s) if s == "max")).count();
        assert_eq!(maxes, 1);
    }

    #[test]
    fn panic_markers_are_collected_with_rationale() {
        let src = "let a = x.unwrap(); // PANIC-POLICY: invariant held by caller\nlet b = 1; // PANIC-POLICY:\n";
        let out = lex(src);
        assert_eq!(out.panic_markers.get(&1).map(String::as_str), Some("invariant held by caller"));
        assert_eq!(out.panic_markers.get(&2).map(String::as_str), Some(""));
    }

    #[test]
    fn lifetimes_do_not_eat_following_tokens() {
        let ids = idents("fn f<'a>(x: &'a str) -> &'a str { x }");
        assert!(ids.contains(&"str".to_string()));
    }

    #[test]
    fn escaped_quote_char_literal_does_not_derail_the_stream() {
        // `'\''` — the escaped character is itself a quote; before the fix
        // the literal was closed at the escape and the trailing `'` opened
        // a phantom lifetime that swallowed the next identifier.
        let ids = idents("let q = '\\''; let real = HashMap::new();");
        assert_eq!(ids.iter().filter(|s| *s == "HashMap").count(), 1, "{ids:?}");
        let ids = idents("match c { '\\'' => 1, '\\\\' => 2, _ => 0 }; Instant::now()");
        assert!(ids.iter().any(|s| s == "Instant"), "{ids:?}");
    }

    #[test]
    fn byte_strings_honor_escapes() {
        // `b"…"` is escaped, not raw: `\"` must not close it. Before the
        // fix the literal ended at the escaped quote and `HashMap` inside
        // the bytes leaked into the token stream.
        let ids = idents(r#"let b = b"a\"HashMap\""; let t = thread_rng();"#);
        assert!(!ids.iter().any(|s| s == "HashMap"), "{ids:?}");
        assert!(ids.iter().any(|s| s == "thread_rng"), "{ids:?}");
    }

    #[test]
    fn raw_strings_ignore_backslashes_and_respect_hash_counts() {
        // In raw strings the backslash is inert; `"#` with too few hashes
        // must not close an `r##"…"##` literal.
        let ids = idents(r####"let r = r##"tail\"# HashMap "##; let ok = Instant::now();"####);
        assert!(!ids.iter().any(|s| s == "HashMap"), "{ids:?}");
        assert!(ids.iter().any(|s| s == "Instant"), "{ids:?}");
        // A raw byte string still closes on the bare quote when hashless.
        let ids = idents(r#"let b = br"x\"; let m = HashSet::new();"#);
        assert_eq!(ids.iter().filter(|s| *s == "HashSet").count(), 1, "{ids:?}");
    }

    #[test]
    fn raw_identifiers_are_not_swallowed_as_strings() {
        let ids = idents("let r#type = 1; let b = r#match;");
        assert!(ids.contains(&"type".to_string()), "{ids:?}");
        assert!(ids.contains(&"match".to_string()), "{ids:?}");
    }

    #[test]
    fn deeply_nested_block_comments_terminate_correctly() {
        let src = "/* a /* b /* c */ d */ e */ HashMap /* /*x*/ */";
        let ids = idents(src);
        assert_eq!(ids, vec!["HashMap".to_string()]);
        // Unterminated nesting swallows the rest without panicking.
        assert!(idents("/* /* open */ still in comment HashMap").is_empty());
    }

    #[test]
    fn lifetimes_and_char_literals_disambiguate_in_generic_soup() {
        let ids = idents("fn f<'a, 'b: 'a>(x: &'a u8) -> char { 'x' } let y: &'static str = s;");
        assert!(ids.contains(&"char".to_string()), "{ids:?}");
        assert!(ids.contains(&"str".to_string()), "{ids:?}");
        // `'_'` is a char literal, `'_` alone is a lifetime.
        let toks = lex("let c = '_'; let r: &'_ u8 = x;").tokens;
        let lits = toks.iter().filter(|t| t.kind == TokenKind::Literal).count();
        assert!(lits >= 2, "{toks:?}");
    }

    #[test]
    fn line_numbers_survive_multiline_strings() {
        let src = "let s = \"line\none\";\nlet t = HashMap::new();";
        let out = lex(src);
        let hm =
            out.tokens.iter().find(|t| matches!(&t.kind, TokenKind::Ident(s) if s == "HashMap"));
        assert_eq!(hm.map(|t| t.line), Some(3));
    }
}
