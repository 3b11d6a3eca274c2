//! A minimal TOML subset parser — just enough for `Cargo.toml` manifests
//! and `lint-allow.toml` waiver files.
//!
//! Supported: `[section]` and `[[array-of-tables]]` headers (dotted names
//! kept verbatim), `key = value` pairs with string / boolean / integer /
//! inline-table / array values, dotted keys (`version.workspace = true`),
//! `#` comments, and arrays continued across lines. Unsupported TOML
//! (multi-line strings, datetimes) degrades to [`Value::Other`] rather
//! than failing: the linter's manifest rules only ever need to *recognize*
//! the shapes above.

/// A parsed TOML value, as coarse as the manifest rules need.
#[derive(Debug, Clone, PartialEq)]
pub enum Value {
    /// A quoted string.
    Str(String),
    /// `true` / `false`.
    Bool(bool),
    /// An integer literal.
    Int(i64),
    /// An inline table `{ k = v, … }`, keys in source order.
    InlineTable(Vec<(String, Value)>),
    /// An array — kept as raw text; no rule inspects array elements.
    Array(String),
    /// Anything else, kept as raw text.
    Other(String),
}

/// One `key = value` assignment with its 1-based source line.
#[derive(Debug, Clone, PartialEq)]
pub struct Entry {
    /// The key, dotted segments preserved (`version.workspace`).
    pub key: String,
    /// The parsed value.
    pub value: Value,
    /// 1-based line of the assignment.
    pub line: u32,
}

/// One `[section]` or `[[section]]` table.
#[derive(Debug, Clone, PartialEq)]
pub struct Table {
    /// Section name without brackets (empty for the implicit root table).
    pub name: String,
    /// Whether the header used `[[…]]` (array-of-tables) syntax.
    pub is_array: bool,
    /// 1-based line of the header (0 for the implicit root table).
    pub line: u32,
    /// Assignments in source order.
    pub entries: Vec<Entry>,
}

impl Table {
    /// Looks up the first entry with `key`.
    #[must_use]
    pub fn get(&self, key: &str) -> Option<&Value> {
        self.entries.iter().find(|e| e.key == key).map(|e| &e.value)
    }
}

/// Parses `source` into tables in file order, starting with the implicit
/// root table (which holds assignments before the first header).
#[must_use]
pub fn parse(source: &str) -> Vec<Table> {
    let mut tables =
        vec![Table { name: String::new(), is_array: false, line: 0, entries: Vec::new() }];
    let mut lines = source.lines().enumerate().peekable();
    while let Some((idx, raw)) = lines.next() {
        let lineno = (idx + 1) as u32;
        let line = strip_comment(raw).trim().to_string();
        if line.is_empty() {
            continue;
        }
        if let Some(rest) = line.strip_prefix("[[") {
            if let Some(name) = rest.strip_suffix("]]") {
                tables.push(Table {
                    name: name.trim().to_string(),
                    is_array: true,
                    line: lineno,
                    entries: Vec::new(),
                });
                continue;
            }
        }
        if let Some(rest) = line.strip_prefix('[') {
            if let Some(name) = rest.strip_suffix(']') {
                tables.push(Table {
                    name: name.trim().to_string(),
                    is_array: false,
                    line: lineno,
                    entries: Vec::new(),
                });
                continue;
            }
        }
        if let Some(eq) = find_top_level_eq(&line) {
            let key = line[..eq].trim().trim_matches('"').to_string();
            let mut value_text = line[eq + 1..].trim().to_string();
            // Arrays and inline tables may continue over following lines.
            while !balanced(&value_text) {
                match lines.next() {
                    Some((_, cont)) => {
                        value_text.push(' ');
                        value_text.push_str(strip_comment(cont).trim());
                    }
                    None => break,
                }
            }
            if let Some(table) = tables.last_mut() {
                table.entries.push(Entry { key, value: parse_value(&value_text), line: lineno });
            }
        }
    }
    tables
}

/// Removes a trailing `#` comment, respecting quoted strings.
fn strip_comment(line: &str) -> &str {
    let mut in_str = false;
    let mut escaped = false;
    for (i, c) in line.char_indices() {
        if escaped {
            escaped = false;
            continue;
        }
        match c {
            '\\' if in_str => escaped = true,
            '"' => in_str = !in_str,
            '#' if !in_str => return &line[..i],
            _ => {}
        }
    }
    line
}

/// Finds the first `=` outside quotes/brackets (the key/value separator).
fn find_top_level_eq(line: &str) -> Option<usize> {
    let mut in_str = false;
    for (i, c) in line.char_indices() {
        match c {
            '"' => in_str = !in_str,
            '=' if !in_str => return Some(i),
            _ => {}
        }
    }
    None
}

/// Whether brackets/braces/quotes are balanced (value complete on line).
fn balanced(text: &str) -> bool {
    let mut depth = 0i32;
    let mut in_str = false;
    let mut escaped = false;
    for c in text.chars() {
        if escaped {
            escaped = false;
            continue;
        }
        match c {
            '\\' if in_str => escaped = true,
            '"' => in_str = !in_str,
            '[' | '{' if !in_str => depth += 1,
            ']' | '}' if !in_str => depth -= 1,
            _ => {}
        }
    }
    depth <= 0 && !in_str
}

fn parse_value(text: &str) -> Value {
    let t = text.trim();
    if t == "true" {
        return Value::Bool(true);
    }
    if t == "false" {
        return Value::Bool(false);
    }
    if let Some(stripped) = t.strip_prefix('"') {
        if let Some(s) = stripped.strip_suffix('"') {
            return Value::Str(unescape(s));
        }
    }
    if let Ok(i) = t.parse::<i64>() {
        return Value::Int(i);
    }
    if t.starts_with('[') {
        return Value::Array(t.to_string());
    }
    if let Some(inner) = t.strip_prefix('{').and_then(|r| r.strip_suffix('}')) {
        let mut pairs = Vec::new();
        for part in split_top_level_commas(inner) {
            if let Some(eq) = find_top_level_eq(&part) {
                let key = part[..eq].trim().trim_matches('"').to_string();
                pairs.push((key, parse_value(part[eq + 1..].trim())));
            }
        }
        return Value::InlineTable(pairs);
    }
    Value::Other(t.to_string())
}

/// Splits an inline-table body on commas outside nested structures.
fn split_top_level_commas(text: &str) -> Vec<String> {
    let mut parts = Vec::new();
    let mut depth = 0i32;
    let mut in_str = false;
    let mut escaped = false;
    let mut current = String::new();
    for c in text.chars() {
        if escaped {
            escaped = false;
            current.push(c);
            continue;
        }
        match c {
            '\\' if in_str => {
                escaped = true;
                current.push(c);
            }
            '"' => {
                in_str = !in_str;
                current.push(c);
            }
            '[' | '{' if !in_str => {
                depth += 1;
                current.push(c);
            }
            ']' | '}' if !in_str => {
                depth -= 1;
                current.push(c);
            }
            ',' if !in_str && depth == 0 => {
                parts.push(current.trim().to_string());
                current = String::new();
            }
            _ => current.push(c),
        }
    }
    if !current.trim().is_empty() {
        parts.push(current.trim().to_string());
    }
    parts
}

fn unescape(s: &str) -> String {
    let mut out = String::with_capacity(s.len());
    let mut chars = s.chars();
    while let Some(c) = chars.next() {
        if c == '\\' {
            match chars.next() {
                Some('n') => out.push('\n'),
                Some('t') => out.push('\t'),
                Some('"') => out.push('"'),
                Some('\\') => out.push('\\'),
                Some(other) => {
                    out.push('\\');
                    out.push(other);
                }
                None => out.push('\\'),
            }
        } else {
            out.push(c);
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parses_sections_entries_and_dotted_keys() {
        let src = "\n[package]\nname = \"x\" # comment\nversion.workspace = true\n\n[dependencies]\nserde = { path = \"vendor/serde\", features = [\"derive\"] }\n";
        let tables = parse(src);
        assert_eq!(tables.len(), 3);
        let pkg = &tables[1];
        assert_eq!(pkg.name, "package");
        assert_eq!(pkg.get("name"), Some(&Value::Str("x".into())));
        assert_eq!(pkg.get("version.workspace"), Some(&Value::Bool(true)));
        let deps = &tables[2];
        match deps.get("serde") {
            Some(Value::InlineTable(pairs)) => {
                assert_eq!(pairs[0], ("path".to_string(), Value::Str("vendor/serde".into())));
                assert!(matches!(&pairs[1].1, Value::Array(_)));
            }
            other => panic!("unexpected serde value: {other:?}"),
        }
    }

    #[test]
    fn parses_array_of_tables_with_lines() {
        let src = "[[allow]]\nrule = \"a\"\nline = 12\n\n[[allow]]\nrule = \"b\"\n";
        let tables = parse(src);
        let allows: Vec<&Table> = tables.iter().filter(|t| t.is_array).collect();
        assert_eq!(allows.len(), 2);
        assert_eq!(allows[0].line, 1);
        assert_eq!(allows[0].get("line"), Some(&Value::Int(12)));
        assert_eq!(allows[1].line, 5);
    }

    #[test]
    fn multiline_arrays_are_joined() {
        let src = "members = [\n  \"crates/*\",\n  \"vendor/*\",\n]\nnext = 1\n";
        let tables = parse(src);
        let root = &tables[0];
        assert!(matches!(root.get("members"), Some(Value::Array(a)) if a.contains("vendor/*")));
        assert_eq!(root.get("next"), Some(&Value::Int(1)));
    }

    #[test]
    fn comments_inside_strings_survive() {
        let tables = parse("reason = \"keep # this\"\n");
        assert_eq!(tables[0].get("reason"), Some(&Value::Str("keep # this".into())));
    }
}
