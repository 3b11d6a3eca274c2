//! `lint-allow.toml` waivers: per-line grants that silence a finding
//! *with a recorded rationale*.
//!
//! Format (checked in at the workspace root):
//!
//! ```toml
//! [[allow]]
//! rule = "determinism/hash-container"      # required: exact rule id
//! path = "crates/dcf/src/cache.rs"         # required: workspace-relative
//! line = 37                                 # optional: omit = whole file
//! reason = "keyed lookup only, never iterated; order cannot reach artifacts"
//! ```
//!
//! Every entry must carry a non-empty `reason`; a waiver that matches no
//! finding is itself reported (`waiver/stale`) so grants cannot silently
//! outlive the code they excused. Waivers never apply to `waiver/*`
//! findings — the waiver file cannot excuse its own defects.

use crate::rules::Finding;
use crate::toml;

/// Rule id: a waiver entry that matched no finding this run.
pub const RULE_STALE_WAIVER: &str = "waiver/stale";
/// Rule id: a waiver entry missing `rule`, `path`, or a non-empty `reason`.
pub const RULE_INVALID_WAIVER: &str = "waiver/invalid";

/// The conventional waiver-file name at the workspace root.
pub const WAIVER_FILE: &str = "lint-allow.toml";

/// One parsed `[[allow]]` entry.
#[derive(Debug, Clone, PartialEq)]
pub struct Waiver {
    /// Exact rule id the waiver applies to.
    pub rule: String,
    /// Workspace-relative path the waiver applies to.
    pub path: String,
    /// Specific line, or `None` for a whole-file grant.
    pub line: Option<u32>,
    /// The mandatory rationale.
    pub reason: String,
    /// 1-based line of the `[[allow]]` header in the waiver file.
    pub entry_line: u32,
}

/// Result of parsing the waiver file: usable waivers plus findings for
/// malformed entries.
#[derive(Debug, Default)]
pub struct WaiverSet {
    /// Well-formed waivers.
    pub waivers: Vec<Waiver>,
    /// `waiver/invalid` findings produced during parsing.
    pub findings: Vec<Finding>,
}

/// Parses waiver-file contents (path used only for finding locations).
#[must_use]
pub fn parse_waivers(source: &str) -> WaiverSet {
    let mut set = WaiverSet::default();
    for table in toml::parse(source) {
        if !(table.is_array && table.name == "allow") {
            continue;
        }
        let get_str = |key: &str| -> Option<String> {
            match table.get(key) {
                Some(toml::Value::Str(s)) => Some(s.clone()),
                _ => None,
            }
        };
        let rule = get_str("rule");
        let path = get_str("path");
        let reason = get_str("reason").unwrap_or_default();
        let line = match table.get("line") {
            Some(toml::Value::Int(i)) if *i > 0 => Some(*i as u32),
            Some(_) => {
                set.findings.push(invalid(
                    table.line,
                    "waiver `line` must be a positive integer (omit it for a whole-file grant)",
                ));
                continue;
            }
            None => None,
        };
        match (rule, path) {
            (Some(rule), Some(path)) if !reason.trim().is_empty() => {
                set.waivers.push(Waiver { rule, path, line, reason, entry_line: table.line });
            }
            (Some(_), Some(_)) => {
                set.findings.push(invalid(
                    table.line,
                    "waiver is missing the mandatory non-empty `reason` rationale",
                ));
            }
            _ => {
                set.findings.push(invalid(
                    table.line,
                    "waiver is missing the required `rule` and/or `path` keys",
                ));
            }
        }
    }
    set
}

fn invalid(line: u32, message: &str) -> Finding {
    Finding {
        rule: RULE_INVALID_WAIVER,
        path: WAIVER_FILE.to_string(),
        line,
        message: message.to_string(),
        snippet: String::new(),
        waived: false,
        reason: None,
        witness: Vec::new(),
    }
}

/// Applies `waivers` to `findings` in place, then appends `waiver/stale`
/// findings for unused entries.
pub fn apply_waivers(findings: &mut Vec<Finding>, waivers: &[Waiver]) {
    let mut used = vec![false; waivers.len()];
    for finding in findings.iter_mut() {
        if finding.rule.starts_with("waiver/") {
            continue;
        }
        for (w, waiver) in waivers.iter().enumerate() {
            let line_matches = waiver.line.map_or(true, |l| l == finding.line);
            if waiver.rule == finding.rule && waiver.path == finding.path && line_matches {
                finding.waived = true;
                finding.reason = Some(waiver.reason.clone());
                used[w] = true;
                break;
            }
        }
    }
    for (waiver, used) in waivers.iter().zip(used) {
        if !used {
            findings.push(Finding {
                rule: RULE_STALE_WAIVER,
                path: WAIVER_FILE.to_string(),
                line: waiver.entry_line,
                message: format!(
                    "waiver for `{}` at `{}{}` matched no finding; delete it or fix its \
                     coordinates",
                    waiver.rule,
                    waiver.path,
                    waiver.line.map(|l| format!(":{l}")).unwrap_or_default()
                ),
                snippet: format!("reason: {}", waiver.reason),
                waived: false,
                reason: None,
                witness: Vec::new(),
            });
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::rules::RULE_HASH;

    fn finding(rule: &'static str, path: &str, line: u32) -> Finding {
        Finding {
            rule,
            path: path.to_string(),
            line,
            message: String::new(),
            snippet: String::new(),
            waived: false,
            reason: None,
            witness: Vec::new(),
        }
    }

    #[test]
    fn parses_and_matches_line_and_file_scoped_waivers() {
        let src = "\
[[allow]]
rule = \"determinism/hash-container\"
path = \"crates/dcf/src/cache.rs\"
line = 57
reason = \"keyed lookups only\"

[[allow]]
rule = \"determinism/hash-container\"
path = \"crates/core/src/evaluator.rs\"
reason = \"whole-file grant\"
";
        let set = parse_waivers(src);
        assert!(set.findings.is_empty());
        assert_eq!(set.waivers.len(), 2);
        let mut findings = vec![
            finding(RULE_HASH, "crates/dcf/src/cache.rs", 57),
            finding(RULE_HASH, "crates/dcf/src/cache.rs", 99),
            finding(RULE_HASH, "crates/core/src/evaluator.rs", 5),
        ];
        apply_waivers(&mut findings, &set.waivers);
        assert!(findings[0].waived);
        assert!(!findings[1].waived, "line-scoped waiver must not cover other lines");
        assert!(findings[2].waived, "file-scoped waiver covers any line");
        assert_eq!(findings.len(), 3, "no stale findings expected");
    }

    #[test]
    fn missing_reason_is_invalid() {
        let set = parse_waivers("[[allow]]\nrule = \"r\"\npath = \"p\"\nreason = \"  \"\n");
        assert!(set.waivers.is_empty());
        assert_eq!(set.findings.len(), 1);
        assert_eq!(set.findings[0].rule, RULE_INVALID_WAIVER);
    }

    #[test]
    fn unused_waiver_goes_stale() {
        let set =
            parse_waivers("[[allow]]\nrule = \"r\"\npath = \"p.rs\"\nline = 3\nreason = \"x\"\n");
        let mut findings = Vec::new();
        apply_waivers(&mut findings, &set.waivers);
        assert_eq!(findings.len(), 1);
        assert_eq!(findings[0].rule, RULE_STALE_WAIVER);
        assert_eq!(findings[0].line, 1);
    }

    #[test]
    fn waiver_findings_cannot_be_waived() {
        let set = parse_waivers(
            "[[allow]]\nrule = \"waiver/stale\"\npath = \"lint-allow.toml\"\nreason = \"no\"\n",
        );
        let mut findings = vec![finding(RULE_STALE_WAIVER, WAIVER_FILE, 1)];
        apply_waivers(&mut findings, &set.waivers);
        assert!(!findings[0].waived);
    }
}
