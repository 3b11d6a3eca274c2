//! A lightweight Rust item/expression parser layered on [`crate::lexer`].
//!
//! This is *not* a full Rust parser (no `syn` in the vendored tree, by
//! design). It recovers exactly the structure the call-graph analyses
//! ([`crate::graph`], [`crate::analysis`]) need:
//!
//! * item nesting — inline `mod`s, `impl` blocks (with the target type,
//!   the `Type` of `impl Trait for Type`), `trait` blocks;
//! * `fn` definitions with their bare name, visibility (`pub` without a
//!   restriction), test-ness (`#[test]` / `#[cfg(test)]` regions),
//!   whether they sit in an `impl Trait for Type` block, and 1-based
//!   definition line;
//! * body *events*: path calls (`a::b::f(…)`) and paths passed as values
//!   (`.map(T::f)`), bare calls (`f(…)`), method calls (`.m(…)`, with a
//!   best-effort receiver hint and a zero-argument flag), and macro
//!   invocations (`name!(…)`);
//! * `use` imports (leaf name → full path), per file and per fn body, so
//!   bare calls to imported functions resolve across crates;
//! * the token stream itself, with an `in_test` flag per token, and the
//!   `// PANIC-POLICY:` marker map, both forwarded from the lexer so the
//!   token rules ([`crate::rules`]) read the same test scoping as the
//!   call graph instead of tracking it a second time.
//!
//! # Test regions
//!
//! A test-gating attribute (`#[test]`, or `#[cfg(…)]` naming `test`
//! without `not`) marks the item it precedes: the item's header and, when
//! it has one, its brace-delimited body. The pending mark ends at the
//! body's `{`, or without a body at the `;`, `,` or enclosing `}` that
//! ends the item — so a gated field, variant or `use` never leaks onto
//! the next item. A `,` or `;` nested in the item's header (`S<A, B>`,
//! `[u8; 4]`) does not end it. An inner `#![cfg(test)]` marks the whole
//! file.
//!
//! What it deliberately does **not** do (see DESIGN.md §18): type
//! inference, trait dispatch, macro expansion, or shadowing-aware name
//! resolution. Callers over-approximate on top of this output; the
//! analyses document where that over- or under-approximates.

use std::collections::BTreeMap;

use crate::lexer::{lex, Token, TokenKind};

/// One body event inside a function.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Event {
    /// `a::b::f(…)` — a call through a path with ≥ 2 segments, or such a
    /// path passed as a value (`.map(T::f)`), which the callee may call.
    PathCall {
        /// The path segments, turbofish stripped.
        segments: Vec<String>,
        /// 1-based line of the final segment.
        line: u32,
    },
    /// `f(…)` — a call through a single identifier.
    BareCall {
        /// The callee identifier.
        name: String,
        /// 1-based line.
        line: u32,
    },
    /// `.m(…)` — a method call.
    MethodCall {
        /// The method name.
        name: String,
        /// Best-effort receiver hint: the identifier immediately before
        /// the `.` (e.g. `self`, a variable, or for chained calls the
        /// *name of the producing call* — `shard_for(k).read()` hints
        /// `shard_for`). `None` when the receiver is an opaque expression.
        receiver: Option<String>,
        /// Whether the call site passes zero arguments (`.read()`), the
        /// signature shared by `Mutex::lock` / `RwLock::read` / `write`.
        zero_args: bool,
        /// 1-based line.
        line: u32,
    },
    /// `name!(…)` — a macro invocation.
    MacroCall {
        /// The macro name (final path segment).
        name: String,
        /// 1-based line.
        line: u32,
    },
}

impl Event {
    /// The 1-based source line of the event.
    #[must_use]
    pub fn line(&self) -> u32 {
        match self {
            Event::PathCall { line, .. }
            | Event::BareCall { line, .. }
            | Event::MethodCall { line, .. }
            | Event::MacroCall { line, .. } => *line,
        }
    }
}

/// One parsed `fn` definition (only definitions with bodies are recorded;
/// trait method *declarations* have no events and are skipped).
#[derive(Debug, Clone)]
pub struct FnDef {
    /// The bare function name.
    pub name: String,
    /// The `impl`/`trait` target type the fn is a method of, if any.
    /// For `impl Trait for Type` this is `Type`.
    pub impl_target: Option<String>,
    /// Defined in an `impl Trait for Type` block, so callers may reach it
    /// through the trait (std, serde, operators) rather than by name.
    pub trait_impl: bool,
    /// Inline module path from the file root, outermost first.
    pub modules: Vec<String>,
    /// 1-based line of the `fn` keyword.
    pub line: u32,
    /// `pub` without a restriction (`pub(crate)` and friends are *not*
    /// public API).
    pub is_pub: bool,
    /// Inside a `#[cfg(test)]` region, `#[test]`-attributed, or in a file
    /// with an inner `#![cfg(test)]`.
    pub is_test: bool,
    /// Body events in source order.
    pub events: Vec<Event>,
    /// `use` imports inside the body, shaped like [`ParsedFile::imports`];
    /// they shadow the file's imports for this fn's calls.
    pub imports: BTreeMap<String, Vec<String>>,
}

impl FnDef {
    /// `Target::name` when the fn is a method, the bare name otherwise.
    #[must_use]
    pub fn qualified(&self) -> String {
        match &self.impl_target {
            Some(t) => format!("{t}::{}", self.name),
            None => self.name.clone(),
        }
    }
}

/// Result of parsing one file.
#[derive(Debug, Default)]
pub struct ParsedFile {
    /// The lexed token stream, comments and literals' contents stripped.
    pub tokens: Vec<Token>,
    /// Parallel to `tokens`: whether each token lies in a test region
    /// (see the module docs).
    pub in_test: Vec<bool>,
    /// The source lines, for finding snippets.
    pub lines: Vec<String>,
    /// Every fn definition in the file, in source order.
    pub fns: Vec<FnDef>,
    /// File-level `use` imports: leaf name → full path segments.
    /// `use a::b::c` maps `c → [a, b, c]`; grouped imports
    /// (`use a::{b, c as d}`) expand. Glob imports record nothing, so a
    /// bare call to a glob-imported fn resolves only through the
    /// same-crate fallback and misses a fn in another crate.
    pub imports: BTreeMap<String, Vec<String>>,
    /// `line → rationale` for `// PANIC-POLICY:` markers (from the lexer).
    pub markers: BTreeMap<u32, String>,
}

impl ParsedFile {
    /// The trimmed source line at 1-based `line`, truncated to 96 chars
    /// so artifact rows stay stable and narrow; empty past the file.
    #[must_use]
    pub fn snippet(&self, line: u32) -> String {
        let text =
            line.checked_sub(1).and_then(|l| self.lines.get(l as usize)).map_or("", |l| l.trim());
        let mut s: String = text.chars().take(96).collect();
        if text.chars().count() > 96 {
            s.push('…');
        }
        s
    }
}

/// Scope kinds the parser tracks while walking the token stream.
#[derive(Debug)]
enum Scope {
    Module(String),
    /// An impl block: its target, and whether it implements a trait.
    Impl(String, bool),
    Trait(String),
    /// Index into `ParsedFile::fns` of the fn whose body is open.
    Fn(usize),
    /// A brace pair that is none of the above (blocks, match arms, …).
    Block,
}

/// Parses one file's source into its tokens, test regions, fn
/// definitions and imports.
///
/// The parser is resilient by construction: it walks the token stream
/// with bounded lookahead and treats anything it does not recognize as
/// opaque, so malformed input degrades to fewer recorded events, never
/// a panic.
#[must_use]
pub fn parse(source: &str) -> ParsedFile {
    let lexed = lex(source);
    let toks = &lexed.tokens;
    let n = toks.len();
    let mut out = ParsedFile {
        in_test: Vec::with_capacity(n),
        lines: source.lines().map(str::to_string).collect(),
        markers: lexed.panic_markers,
        ..ParsedFile::default()
    };

    // Scope stack entries: (scope, brace depth at which the scope closes).
    let mut scopes: Vec<(Scope, i64)> = Vec::new();
    let mut depth: i64 = 0;
    // Test-region tracking: brace depths of open test bodies, a gating
    // attribute whose item has not started its body yet, and an inner
    // `#![cfg(test)]`.
    let mut test_depths: Vec<i64> = Vec::new();
    let mut pending_test = false;
    let mut file_is_test = false;
    // Delimiters opened in the pending item's header, so a separator
    // nested in it (`S<A, B>`, `[u8; 4]`) does not end the item.
    let mut header_open: Vec<char> = Vec::new();
    // The test flag of the step that consumed the tokens up to `i`.
    let mut step_in_test = false;
    // Pending visibility for the next item.
    let mut pending_pub = false;

    let ident = |idx: usize| -> Option<&str> {
        match toks.get(idx).map(|t| &t.kind) {
            Some(TokenKind::Ident(s)) => Some(s.as_str()),
            _ => None,
        }
    };
    let punct = |idx: usize, c: char| -> bool {
        matches!(toks.get(idx).map(|t| &t.kind), Some(TokenKind::Punct(p)) if *p == c)
    };
    // `idx` points at `<`: returns the index just past the matching `>`,
    // treating `->` as inert so `Fn() -> R` bounds do not unbalance.
    let skip_angles = |mut idx: usize| -> usize {
        let mut d = 0i64;
        while idx < n {
            match &toks[idx].kind {
                TokenKind::Punct('<') => d += 1,
                TokenKind::Punct('>') => {
                    if idx > 0 && punct(idx - 1, '-') {
                        // `->`: not a closing bracket.
                    } else {
                        d -= 1;
                        if d == 0 {
                            return idx + 1;
                        }
                    }
                }
                _ => {}
            }
            idx += 1;
        }
        idx
    };
    // `idx` points at `(`: returns the index just past the matching `)`.
    let skip_parens = |mut idx: usize| -> usize {
        let mut d = 0i64;
        while idx < n {
            match &toks[idx].kind {
                TokenKind::Punct('(') => d += 1,
                TokenKind::Punct(')') => {
                    d -= 1;
                    if d == 0 {
                        return idx + 1;
                    }
                }
                _ => {}
            }
            idx += 1;
        }
        idx
    };

    let mut i = 0usize;
    while i < n {
        // Every step consumes `toks[i..next]` under one test flag: a step
        // that skips ahead (signatures, `use` trees, impl headers, call
        // paths) never crosses a region boundary before its last token.
        out.in_test.resize(i, step_in_test);
        step_in_test = file_is_test || pending_test || !test_depths.is_empty();
        match &toks[i].kind {
            // ---- attributes ------------------------------------------------
            TokenKind::Punct('#') => {
                let mut j = i + 1;
                let inner = punct(j, '!');
                if inner {
                    j += 1;
                }
                if punct(j, '[') {
                    let mut d = 1i64;
                    j += 1;
                    let mut ids: Vec<&str> = Vec::new();
                    while j < n && d > 0 {
                        match &toks[j].kind {
                            TokenKind::Punct('[') => d += 1,
                            TokenKind::Punct(']') => d -= 1,
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
                            header_open.clear();
                        }
                    }
                    i = j;
                    continue;
                }
                i += 1;
            }
            TokenKind::Punct(c @ ('(' | '[' | '<')) if pending_test => {
                header_open.push(*c);
                i += 1;
            }
            TokenKind::Punct(c @ (')' | ']' | '>')) if pending_test => {
                let opener = match c {
                    ')' => '(',
                    ']' => '[',
                    _ => '<',
                };
                // The `>` of `->` closes nothing.
                let arrow = *c == '>' && i > 0 && punct(i - 1, '-');
                if !arrow && header_open.last() == Some(&opener) {
                    header_open.pop();
                }
                i += 1;
            }
            TokenKind::Punct('{') => {
                depth += 1;
                if pending_test {
                    test_depths.push(depth);
                    pending_test = false;
                }
                scopes.push((Scope::Block, depth));
                pending_pub = false;
                i += 1;
            }
            TokenKind::Punct('}') => {
                while scopes.last().is_some_and(|(_, d)| *d == depth) {
                    scopes.pop();
                }
                if test_depths.last() == Some(&depth) {
                    test_depths.pop();
                }
                depth -= 1;
                pending_pub = false;
                // A gated last field or variant (`#[cfg(test)] b: u32 }`)
                // ends with its enclosing brace.
                pending_test = false;
                i += 1;
            }
            TokenKind::Punct(sep @ (';' | ',')) => {
                // `,` also ends struct-field visibility (`pub a: usize,`),
                // which must not leak onto the next item.
                pending_pub = false;
                // A gated field, variant or body-less item ends here,
                // unless the separator is nested in its header.
                let nested =
                    if *sep == ',' { !header_open.is_empty() } else { header_open.contains(&'[') };
                if !nested {
                    pending_test = false;
                }
                i += 1;
            }
            TokenKind::Ident(word) => {
                let in_fn = scopes.iter().rev().find_map(|(s, _)| match s {
                    Scope::Fn(idx) => Some(*idx),
                    _ => None,
                });
                match word.as_str() {
                    "pub" if in_fn.is_none() => {
                        if punct(i + 1, '(') {
                            // `pub(crate)` / `pub(super)`: restricted, not API.
                            i = skip_parens(i + 1);
                        } else {
                            pending_pub = true;
                            i += 1;
                        }
                    }
                    "mod" if in_fn.is_none() => {
                        let name = ident(i + 1).map(str::to_string);
                        i += if name.is_some() { 2 } else { 1 };
                        if let Some(name) = name {
                            if punct(i, '{') {
                                depth += 1;
                                scopes.push((Scope::Module(name), depth));
                                if pending_test {
                                    test_depths.push(depth);
                                    pending_test = false;
                                }
                                pending_pub = false;
                                i += 1;
                            }
                            // `mod name;` — out-of-line; its file is parsed
                            // separately. The `;` branch clears flags.
                        }
                    }
                    "impl" | "trait" if in_fn.is_none() => {
                        let is_impl = word == "impl";
                        let mut j = i + 1;
                        if punct(j, '<') {
                            j = skip_angles(j);
                        }
                        // Collect the target: path idents until `{`, with
                        // `for` restarting the collection (trait impls) and
                        // `where` ending it (bound idents are not targets).
                        let mut target: Option<String> = None;
                        let mut of_trait = false;
                        while j < n {
                            match &toks[j].kind {
                                TokenKind::Punct('{') => break,
                                TokenKind::Punct(';') => break, // `impl Foo;`? degrade
                                TokenKind::Punct('<') => {
                                    j = skip_angles(j);
                                    continue;
                                }
                                TokenKind::Punct('(') => {
                                    // Tuple/fn-pointer target: opaque.
                                    j = skip_parens(j);
                                    continue;
                                }
                                TokenKind::Ident(id) if id == "for" => {
                                    target = None;
                                    of_trait = true;
                                }
                                TokenKind::Ident(id) if id == "where" => {
                                    // Scan to the `{` without recording.
                                    while j < n && !punct(j, '{') {
                                        j += 1;
                                    }
                                    continue;
                                }
                                TokenKind::Ident(id) => {
                                    target = Some(id.clone());
                                }
                                _ => {}
                            }
                            j += 1;
                        }
                        if punct(j, '{') {
                            depth += 1;
                            let name = target.unwrap_or_else(|| "<opaque>".to_string());
                            scopes.push((
                                if is_impl {
                                    Scope::Impl(name, of_trait)
                                } else {
                                    Scope::Trait(name)
                                },
                                depth,
                            ));
                            if pending_test {
                                test_depths.push(depth);
                                pending_test = false;
                            }
                            pending_pub = false;
                            j += 1;
                        }
                        i = j;
                    }
                    "use" => {
                        let imports = match in_fn {
                            Some(fn_idx) => &mut out.fns[fn_idx].imports,
                            None => &mut out.imports,
                        };
                        i = parse_use(toks, i + 1, imports);
                        pending_pub = false;
                        pending_test = false;
                    }
                    "fn" => {
                        // `fn(` is a fn-pointer type, not a definition.
                        let Some(name) = ident(i + 1) else {
                            i += 1;
                            continue;
                        };
                        let name = name.to_string();
                        let fn_line = toks[i].line;
                        let mut j = i + 2;
                        if punct(j, '<') {
                            j = skip_angles(j);
                        }
                        if !punct(j, '(') {
                            i += 1;
                            continue;
                        }
                        j = skip_parens(j);
                        // Signature tail: scan to the body `{` or a `;`
                        // (trait declaration — no body, nothing to record).
                        // Array types in the return position (`-> [u32; N]`)
                        // carry an inner `;` that must not end the item.
                        while j < n && !punct(j, '{') && !punct(j, ';') {
                            if punct(j, '<') {
                                j = skip_angles(j);
                            } else if punct(j, '[') {
                                let mut d = 0i64;
                                while j < n {
                                    match &toks[j].kind {
                                        TokenKind::Punct('[') => d += 1,
                                        TokenKind::Punct(']') => {
                                            d -= 1;
                                            if d == 0 {
                                                break;
                                            }
                                        }
                                        _ => {}
                                    }
                                    j += 1;
                                }
                                j += 1;
                            } else {
                                j += 1;
                            }
                        }
                        if punct(j, '{') {
                            let (impl_target, trait_impl) = scopes
                                .iter()
                                .rev()
                                .find_map(|(s, _)| match s {
                                    Scope::Impl(t, of_trait) => Some((Some(t.clone()), *of_trait)),
                                    Scope::Trait(t) => Some((Some(t.clone()), false)),
                                    _ => None,
                                })
                                .unwrap_or((None, false));
                            let modules = scopes
                                .iter()
                                .filter_map(|(s, _)| match s {
                                    Scope::Module(m) => Some(m.clone()),
                                    _ => None,
                                })
                                .collect();
                            let is_test = file_is_test || pending_test || !test_depths.is_empty();
                            out.fns.push(FnDef {
                                name,
                                impl_target,
                                trait_impl,
                                modules,
                                line: fn_line,
                                is_pub: pending_pub,
                                is_test,
                                events: Vec::new(),
                                imports: BTreeMap::new(),
                            });
                            depth += 1;
                            scopes.push((Scope::Fn(out.fns.len() - 1), depth));
                            if pending_test {
                                test_depths.push(depth);
                            }
                            pending_test = false;
                            pending_pub = false;
                            j += 1;
                        } else {
                            // Declaration only.
                            pending_test = false;
                            pending_pub = false;
                        }
                        i = j;
                    }
                    _ => {
                        if let Some(fn_idx) = in_fn {
                            i = record_event(toks, i, &mut out.fns[fn_idx], &skip_angles);
                        } else {
                            i += 1;
                        }
                    }
                }
            }
            TokenKind::Punct('.') => {
                // Method calls are recognized from the `.`-prefixed name.
                let in_fn = scopes.iter().rev().find_map(|(s, _)| match s {
                    Scope::Fn(idx) => Some(*idx),
                    _ => None,
                });
                if let (Some(fn_idx), Some(_)) = (in_fn, ident(i + 1)) {
                    i = record_method(toks, i, &mut out.fns[fn_idx], &skip_angles);
                } else {
                    i += 1;
                }
            }
            _ => {
                i += 1;
            }
        }
    }
    out.in_test.resize(n, step_in_test);
    out.tokens = lexed.tokens;
    out
}

/// Parses `use …;` starting just past the `use` keyword. Returns the index
/// past the terminating `;`. Handles `a::b::c`, `as` renames, one level of
/// `{…}` groups (nested groups degrade to their leaves with the outer
/// prefix), and ignores globs.
fn parse_use(toks: &[Token], mut i: usize, imports: &mut BTreeMap<String, Vec<String>>) -> usize {
    let n = toks.len();
    let mut prefix: Vec<String> = Vec::new();
    let mut group_stack: Vec<usize> = Vec::new(); // prefix lengths at group entry
    let mut current: Vec<String> = Vec::new();

    let flush = |current: &mut Vec<String>,
                 prefix: &[String],
                 rename: Option<String>,
                 imports: &mut BTreeMap<String, Vec<String>>| {
        if current.is_empty() {
            return;
        }
        let mut full: Vec<String> = prefix.to_vec();
        full.extend(current.iter().cloned());
        let leaf = rename.unwrap_or_else(|| full.last().cloned().unwrap_or_default());
        if !leaf.is_empty() && leaf != "self" {
            imports.insert(leaf, full);
        }
        current.clear();
    };

    let mut rename: Option<String> = None;
    while i < n {
        match &toks[i].kind {
            TokenKind::Punct(';') => {
                flush(&mut current, &prefix, rename.take(), imports);
                return i + 1;
            }
            TokenKind::Punct('{') => {
                group_stack.push(prefix.len());
                prefix.append(&mut current);
                i += 1;
            }
            TokenKind::Punct('}') => {
                flush(&mut current, &prefix, rename.take(), imports);
                if let Some(len) = group_stack.pop() {
                    prefix.truncate(len);
                }
                i += 1;
            }
            TokenKind::Punct(',') => {
                flush(&mut current, &prefix, rename.take(), imports);
                i += 1;
            }
            TokenKind::Ident(id) if id == "as" => {
                if let Some(TokenKind::Ident(alias)) = toks.get(i + 1).map(|t| &t.kind) {
                    rename = Some(alias.clone());
                    i += 2;
                } else {
                    i += 1;
                }
            }
            TokenKind::Ident(id) => {
                current.push(id.clone());
                i += 1;
            }
            _ => {
                // `::`, `*`, whitespace-equivalents: path separators or
                // globs; globs record nothing.
                i += 1;
            }
        }
    }
    i
}

/// Records a path/bare call, a path passed as a value, or a macro
/// invocation starting at the identifier at `i`. Returns the index to
/// resume from.
fn record_event(
    toks: &[Token],
    i: usize,
    fun: &mut FnDef,
    skip_angles: &dyn Fn(usize) -> usize,
) -> usize {
    let punct = |idx: usize, c: char| -> bool {
        matches!(toks.get(idx).map(|t| &t.kind), Some(TokenKind::Punct(p)) if *p == c)
    };

    // Collect the path: ident (:: ident)*, skipping one turbofish.
    let mut segments: Vec<String> = Vec::new();
    let mut j = i;
    let mut last_line = toks[i].line;
    while let Some(TokenKind::Ident(s)) = toks.get(j).map(|t| &t.kind) {
        segments.push(s.clone());
        last_line = toks[j].line;
        j += 1;
        if punct(j, ':') && punct(j + 1, ':') {
            j += 2;
            if punct(j, '<') {
                // Turbofish: `collect::<Vec<_>>()` — skip, then the call
                // parens (if any) follow.
                j = skip_angles(j);
                break;
            }
        } else {
            break;
        }
    }
    if segments.is_empty() {
        return i + 1;
    }

    // Keywords that look like idents but never name calls.
    const KEYWORDS: &[&str] = &[
        "if", "else", "match", "while", "for", "loop", "let", "mut", "return", "break", "continue",
        "move", "ref", "in", "as", "dyn", "impl", "where", "unsafe", "async", "await", "box",
        "static", "const", "struct", "enum", "union", "type", "self", "Self", "super", "crate",
        "true", "false",
    ];

    let name = segments.last().cloned().unwrap_or_default();
    if punct(j, '!') {
        // Macro invocation. The macro's argument tokens are still walked
        // by the main loop (calls inside `assert_eq!(f(x), …)` execute).
        fun.events.push(Event::MacroCall { name, line: last_line });
        return j + 1;
    }
    if KEYWORDS.contains(&name.as_str()) {
        return j.max(i + 1);
    }
    if punct(j, '(') {
        if segments.len() >= 2 {
            fun.events.push(Event::PathCall { segments, line: last_line });
        } else {
            fun.events.push(Event::BareCall { name, line: last_line });
        }
        return j + 1;
    }
    if segments.len() >= 2 {
        // A path not followed by `(`: a fn passed as a value
        // (`.map(T::f)`, `map_err(E::from)`) is a call the callee makes.
        // Types, variants and constants record an event that resolves to
        // no fn, or over-approximates to a same-named one.
        fun.events.push(Event::PathCall { segments, line: last_line });
    }
    j.max(i + 1)
}

/// Records a method call starting at the `.` at `i`. Returns the index to
/// resume from.
fn record_method(
    toks: &[Token],
    i: usize,
    fun: &mut FnDef,
    skip_angles: &dyn Fn(usize) -> usize,
) -> usize {
    let punct = |idx: usize, c: char| -> bool {
        matches!(toks.get(idx).map(|t| &t.kind), Some(TokenKind::Punct(p)) if *p == c)
    };
    let Some(TokenKind::Ident(name)) = toks.get(i + 1).map(|t| &t.kind) else {
        return i + 1;
    };
    let name = name.clone();
    let line = toks[i + 1].line;
    let mut j = i + 2;
    if punct(j, ':') && punct(j + 1, ':') && punct(j + 2, '<') {
        j = skip_angles(j + 2);
    }
    if !punct(j, '(') {
        // Field access / `.await` — not a call.
        return i + 2;
    }
    let zero_args = punct(j + 1, ')');

    // Receiver hint: the token before the `.`; when it is a `)` or `]`,
    // walk back over the balanced group and hint the producing name.
    let receiver = receiver_hint(toks, i);
    fun.events.push(Event::MethodCall { name, receiver, zero_args, line });
    j + 1
}

/// Best-effort receiver hint for the method call whose `.` is at `dot`.
fn receiver_hint(toks: &[Token], dot: usize) -> Option<String> {
    if dot == 0 {
        return None;
    }
    match &toks[dot - 1].kind {
        TokenKind::Ident(s) => Some(s.clone()),
        TokenKind::Punct(close @ (')' | ']')) => {
            let open = if *close == ')' { '(' } else { '[' };
            let mut d = 0i64;
            let mut k = dot - 1;
            loop {
                match &toks[k].kind {
                    TokenKind::Punct(c) if *c == *close => d += 1,
                    TokenKind::Punct(c) if *c == open => {
                        d -= 1;
                        if d == 0 {
                            break;
                        }
                    }
                    _ => {}
                }
                if k == 0 {
                    return None;
                }
                k -= 1;
            }
            match k.checked_sub(1).map(|p| &toks[p].kind) {
                Some(TokenKind::Ident(s)) => Some(s.clone()),
                _ => None,
            }
        }
        _ => None,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn parse_fns(src: &str) -> Vec<FnDef> {
        parse(src).fns
    }

    #[test]
    fn records_fns_with_visibility_and_impl_targets() {
        let src = "
            pub fn free() {}
            pub(crate) fn restricted() {}
            struct S;
            impl S {
                pub fn method(&self) {}
                fn private(&self) {}
            }
            impl std::fmt::Display for S {
                fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result { Ok(()) }
            }
            trait T {
                fn decl_only(&self);
                fn with_default(&self) { helper(); }
            }
        ";
        let fns = parse_fns(src);
        let names: Vec<String> = fns.iter().map(FnDef::qualified).collect();
        assert_eq!(
            names,
            vec!["free", "restricted", "S::method", "S::private", "S::fmt", "T::with_default"]
        );
        assert!(fns[0].is_pub);
        assert!(!fns[1].is_pub, "pub(crate) is not public API");
        assert!(fns[2].is_pub);
        assert!(!fns[3].is_pub);
        let trait_impls: Vec<bool> = fns.iter().map(|f| f.trait_impl).collect();
        assert_eq!(trait_impls, vec![false, false, false, false, true, false]);
    }

    #[test]
    fn struct_field_visibility_does_not_leak_onto_the_next_fn() {
        let src = "
            pub struct S {
                pub with_comma: usize,
                pub trailing: usize
            }
            fn private_after_struct() {}
            pub enum E { A, B }
            fn private_after_enum() {}
        ";
        let fns = parse_fns(src);
        assert!(
            fns.iter().all(|f| !f.is_pub),
            "field/variant `pub` must not mark following fns public: {:?}",
            fns.iter().map(|f| (&f.name, f.is_pub)).collect::<Vec<_>>()
        );
    }

    #[test]
    fn impl_for_uses_the_type_not_the_trait_and_where_is_ignored() {
        let src = "
            impl<T: Clone> MyTrait for Holder<T> where T: Send { fn go(&self) {} }
        ";
        let fns = parse_fns(src);
        assert_eq!(fns[0].qualified(), "Holder::go");
    }

    #[test]
    fn body_events_capture_calls_methods_and_macros() {
        let src = "
            fn driver() {
                let x = helper(1);
                let y = module::inner::compute(x);
                let z = cache.get(&y);
                let w = self.shard_for(k).read();
                total += items.iter::<u32>().count();
                assert_eq!(check(z), w);
            }
        ";
        let fns = parse_fns(src);
        let ev = &fns[0].events;
        assert!(ev.iter().any(|e| matches!(e, Event::BareCall { name, .. } if name == "helper")));
        assert!(ev.iter().any(
            |e| matches!(e, Event::PathCall { segments, .. } if segments.last().unwrap() == "compute")
        ));
        assert!(ev.iter().any(|e| matches!(
            e,
            Event::MethodCall { name, receiver: Some(r), .. } if name == "get" && r == "cache"
        )));
        assert!(
            ev.iter().any(|e| matches!(
                e,
                Event::MethodCall { name, receiver: Some(r), zero_args: true, .. }
                    if name == "read" && r == "shard_for"
            )),
            "{ev:?}"
        );
        assert!(ev
            .iter()
            .any(|e| matches!(e, Event::MacroCall { name, .. } if name == "assert_eq")));
        // Calls inside macro arguments still count.
        assert!(ev.iter().any(|e| matches!(e, Event::BareCall { name, .. } if name == "check")));
    }

    #[test]
    fn test_regions_mark_fns() {
        let src = "
            fn prod() {}
            #[cfg(test)]
            mod tests {
                fn helper_in_tests() {}
                #[test]
                fn t() {}
            }
            #[test]
            fn top_level_test() {}
        ";
        let fns = parse_fns(src);
        let test_flags: Vec<(String, bool)> =
            fns.iter().map(|f| (f.name.clone(), f.is_test)).collect();
        assert_eq!(
            test_flags,
            vec![
                ("prod".to_string(), false),
                ("helper_in_tests".to_string(), true),
                ("t".to_string(), true),
                ("top_level_test".to_string(), true),
            ]
        );
    }

    #[test]
    fn in_test_flags_cover_tokens_the_parser_skips() {
        let src = "
            #[cfg(test)]
            use std::collections::HashMap;
            #[cfg(test)]
            fn sig(m: HashMap<u8, u8>) -> HashMap<u8, u8> { m }
            #[cfg(test)]
            impl Probe for HashMap<u8, u8> {}
            fn prod() -> HashMap<u8, u8> { HashMap::new() }
        ";
        let parsed = parse(src);
        let flags: Vec<(u32, bool)> = parsed
            .tokens
            .iter()
            .zip(&parsed.in_test)
            .filter(|(t, _)| matches!(&t.kind, TokenKind::Ident(s) if s == "HashMap"))
            .map(|(t, &flag)| (t.line, flag))
            .collect();
        assert_eq!(flags, vec![(3, true), (5, true), (5, true), (7, true), (8, false), (8, false)]);
        assert_eq!(parsed.in_test.len(), parsed.tokens.len());
    }

    #[test]
    fn nested_modules_and_nested_fns_attribute_events_to_the_innermost_fn() {
        let src = "
            mod outer {
                mod inner {
                    fn deep() {
                        fn nested() { nested_call(); }
                        outer_call();
                    }
                }
            }
        ";
        let fns = parse_fns(src);
        assert_eq!(fns.len(), 2);
        let deep = fns.iter().find(|f| f.name == "deep").unwrap();
        let nested = fns.iter().find(|f| f.name == "nested").unwrap();
        assert_eq!(deep.modules, vec!["outer", "inner"]);
        assert!(deep
            .events
            .iter()
            .any(|e| matches!(e, Event::BareCall { name, .. } if name == "outer_call")));
        assert!(!deep
            .events
            .iter()
            .any(|e| matches!(e, Event::BareCall { name, .. } if name == "nested_call")));
        assert!(nested
            .events
            .iter()
            .any(|e| matches!(e, Event::BareCall { name, .. } if name == "nested_call")));
    }

    #[test]
    fn use_imports_resolve_groups_and_renames() {
        let src = "
            use std::collections::BTreeMap;
            use macgame_dcf::{solve, fixedpoint::solve_classes as sc, cache::SolveCache};
            use glob::*;
        ";
        let parsed = parse(src);
        assert_eq!(
            parsed.imports.get("BTreeMap"),
            Some(&vec!["std".to_string(), "collections".to_string(), "BTreeMap".to_string()])
        );
        assert_eq!(
            parsed.imports.get("solve"),
            Some(&vec!["macgame_dcf".to_string(), "solve".to_string()])
        );
        assert_eq!(
            parsed.imports.get("sc"),
            Some(&vec![
                "macgame_dcf".to_string(),
                "fixedpoint".to_string(),
                "solve_classes".to_string()
            ])
        );
        assert_eq!(
            parsed.imports.get("SolveCache").map(|p| p.len()),
            Some(3),
            "{:?}",
            parsed.imports
        );
    }

    #[test]
    fn generic_fns_and_where_clauses_parse() {
        let src = "
            fn generic<T: Fn() -> u32, const N: usize>(f: T) -> [u32; N]
            where
                T: Send,
            {
                inner(f)
            }
        ";
        let fns = parse_fns(src);
        assert_eq!(fns.len(), 1);
        assert!(fns[0]
            .events
            .iter()
            .any(|e| matches!(e, Event::BareCall { name, .. } if name == "inner")));
    }

    #[test]
    fn markers_are_forwarded() {
        let parsed = parse("fn f() { x.unwrap() } // PANIC-POLICY: held\n");
        assert_eq!(parsed.markers.get(&1).map(String::as_str), Some("held"));
    }
}
