//! Report assembly, shared by both lint passes: canonical finding order,
//! the waiver verdict, the human table rows, and deterministic
//! `artifacts/LINT.json` / `artifacts/ANALYSIS.json` bytes.
//!
//! The JSON is hand-rolled (the crate is dependency-free) with sorted
//! findings, sorted rule counts, and no timestamps or absolute paths, so
//! two runs over the same tree produce byte-identical artifacts — the
//! same contract the other `artifacts/*.json` files honor.

use std::collections::BTreeMap;

use crate::rules::Finding;

/// The artifact-specific part of a [`Report`]: its schema id and the
/// counters that open its JSON summary.
pub trait Summary {
    /// The `schema` field of the rendered JSON.
    const SCHEMA: &'static str;
    /// Whether each JSON finding carries its call-path `witness` array.
    const WITNESS: bool;
    /// `(key, value)` counters, in rendering order, ahead of the shared
    /// finding tallies.
    fn counters(&self) -> Vec<(&'static str, usize)>;
}

/// Counters of the token pass (`LINT.json`).
#[derive(Debug, Clone, Copy, Default)]
pub struct LintStats {
    /// Number of source files scanned.
    pub files_scanned: usize,
    /// Number of manifests checked.
    pub manifests_checked: usize,
}

impl Summary for LintStats {
    const SCHEMA: &'static str = "macgame-lint/1";
    const WITNESS: bool = false;
    fn counters(&self) -> Vec<(&'static str, usize)> {
        vec![("files_scanned", self.files_scanned), ("manifests_checked", self.manifests_checked)]
    }
}

/// The outcome of one lint pass: findings plus the pass's counters.
#[derive(Debug)]
pub struct Report<S> {
    /// Every finding, waived or not, sorted by `(path, line, rule)`.
    pub findings: Vec<Finding>,
    /// Pass-specific counters.
    pub stats: S,
}

/// The outcome of the token pass.
pub type LintReport = Report<LintStats>;

impl<S> Report<S> {
    /// Builds a report in canonical artifact order: findings sorted by
    /// `(path, line, rule)`, and two hits of one rule on one line (e.g.
    /// `HashMap::<_,_>::new()` naming the type twice) kept as one.
    #[must_use]
    pub fn new(mut findings: Vec<Finding>, stats: S) -> Self {
        findings.sort_by(|a, b| {
            (a.path.as_str(), a.line, a.rule).cmp(&(b.path.as_str(), b.line, b.rule))
        });
        findings.dedup_by(|a, b| a.rule == b.rule && a.path == b.path && a.line == b.line);
        Report { findings, stats }
    }

    /// Findings not covered by a waiver — the CI-failing set.
    #[must_use]
    pub fn unwaived(&self) -> Vec<&Finding> {
        self.findings.iter().filter(|f| !f.waived).collect()
    }

    /// Whether the workspace passes (every finding waived with rationale).
    #[must_use]
    pub fn is_clean(&self) -> bool {
        self.findings.iter().all(|f| f.waived)
    }

    /// Per-rule `(total, waived)` counts, sorted by rule id.
    #[must_use]
    pub fn rule_counts(&self) -> BTreeMap<&'static str, (usize, usize)> {
        let mut counts: BTreeMap<&'static str, (usize, usize)> = BTreeMap::new();
        for f in &self.findings {
            let entry = counts.entry(f.rule).or_default();
            entry.0 += 1;
            if f.waived {
                entry.1 += 1;
            }
        }
        counts
    }

    /// Rows for a `rule | location | status | detail` table: unwaived
    /// findings first (they are what the reader must act on), then waived
    /// grants with their rationale. Witnesses stay out of the table (full
    /// paths live in the JSON).
    #[must_use]
    pub fn table_rows(&self) -> Vec<Vec<String>> {
        let mut rows = Vec::new();
        for pass in [false, true] {
            for f in self.findings.iter().filter(|f| f.waived == pass) {
                let detail = if f.waived {
                    format!("waived: {}", f.reason.as_deref().unwrap_or(""))
                } else {
                    f.message.clone()
                };
                rows.push(vec![
                    f.rule.to_string(),
                    format!("{}:{}", f.path, f.line),
                    if f.waived { "allow".to_string() } else { "FAIL".to_string() },
                    detail,
                ]);
            }
        }
        rows
    }
}

impl<S: Summary> Report<S> {
    /// Renders the deterministic artifact bytes.
    #[must_use]
    pub fn to_json(&self) -> String {
        let mut out = String::with_capacity(4096);
        out.push_str(&format!("{{\n  \"schema\": {},\n", json_string(S::SCHEMA)));
        out.push_str("  \"summary\": {\n");
        let waived = self.findings.iter().filter(|f| f.waived).count();
        let tallies = [
            ("findings", self.findings.len()),
            ("waived", waived),
            ("unwaived", self.findings.len() - waived),
        ];
        for (key, value) in self.stats.counters().into_iter().chain(tallies) {
            out.push_str(&format!("    \"{key}\": {value},\n"));
        }
        out.push_str("    \"rules\": {");
        let counts = self.rule_counts();
        let mut first = true;
        for (rule, (total, waived)) in &counts {
            if !first {
                out.push(',');
            }
            first = false;
            out.push_str(&format!(
                "\n      {}: {{\"total\": {total}, \"waived\": {waived}}}",
                json_string(rule)
            ));
        }
        if !counts.is_empty() {
            out.push_str("\n    ");
        }
        out.push_str("}\n  },\n");
        out.push_str("  \"findings\": [");
        let mut first = true;
        for f in &self.findings {
            if !first {
                out.push(',');
            }
            first = false;
            out.push_str("\n    {");
            out.push_str(&format!("\"rule\": {}, ", json_string(f.rule)));
            out.push_str(&format!("\"path\": {}, ", json_string(&f.path)));
            out.push_str(&format!("\"line\": {}, ", f.line));
            out.push_str(&format!("\"waived\": {}, ", f.waived));
            match &f.reason {
                Some(r) => out.push_str(&format!("\"reason\": {}, ", json_string(r))),
                None => out.push_str("\"reason\": null, "),
            }
            out.push_str(&format!("\"message\": {}, ", json_string(&f.message)));
            out.push_str(&format!("\"snippet\": {}", json_string(&f.snippet)));
            if S::WITNESS {
                let steps: Vec<String> = f.witness.iter().map(|s| json_string(s)).collect();
                out.push_str(&format!(", \"witness\": [{}]", steps.join(", ")));
            }
            out.push('}');
        }
        if !self.findings.is_empty() {
            out.push_str("\n  ");
        }
        out.push_str("]\n}\n");
        out
    }
}

/// Escapes `s` as a JSON string literal (with surrounding quotes).
#[must_use]
pub fn json_string(s: &str) -> String {
    let mut out = String::with_capacity(s.len() + 2);
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
            c => out.push(c),
        }
    }
    out.push('"');
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn finding(rule: &'static str, path: &str, line: u32, waived: bool) -> Finding {
        Finding {
            rule,
            path: path.to_string(),
            line,
            message: format!("broke {rule}"),
            snippet: "let x = 1;".to_string(),
            waived,
            reason: waived.then(|| "because".to_string()),
            witness: Vec::new(),
        }
    }

    #[test]
    fn json_is_sorted_and_stable() {
        let report = LintReport::new(
            vec![
                finding("b/rule", "z.rs", 9, false),
                finding("a/rule", "a.rs", 3, true),
                finding("a/rule", "a.rs", 1, false),
            ],
            LintStats { files_scanned: 3, manifests_checked: 1 },
        );
        let one = report.to_json();
        let two = report.to_json();
        assert_eq!(one, two);
        let a1 = one.find("\"line\": 1").expect("line 1 present");
        let a3 = one.find("\"line\": 3").expect("line 3 present");
        let z9 = one.find("\"line\": 9").expect("line 9 present");
        assert!(a1 < a3 && a3 < z9, "findings must be path/line ordered");
        assert!(one.contains("\"unwaived\": 2"));
    }

    #[test]
    fn json_escapes_special_characters() {
        assert_eq!(json_string("a\"b\\c\nd"), "\"a\\\"b\\\\c\\nd\"");
    }

    #[test]
    fn empty_report_is_clean_and_valid() {
        let report = LintReport::new(vec![], LintStats::default());
        assert!(report.is_clean());
        let json = report.to_json();
        assert!(json.contains("\"findings\": []"));
        assert!(json.contains("\"rules\": {}"));
    }

    #[test]
    fn table_lists_unwaived_first() {
        let report = LintReport::new(
            vec![finding("a/rule", "a.rs", 1, true), finding("b/rule", "b.rs", 2, false)],
            LintStats { files_scanned: 2, manifests_checked: 0 },
        );
        let rows = report.table_rows();
        assert_eq!(rows[0][2], "FAIL");
        assert_eq!(rows[1][2], "allow");
        assert!(rows[1][3].starts_with("waived: "));
    }
}
