//! Manifest rules: every workspace crate inherits the shared package
//! fields and depends only on in-tree (vendored or sibling) crates.
//!
//! The build environment has no network access to a registry, so a
//! registry dependency (`foo = "1.0"`) is not merely a style problem —
//! it breaks the build for everyone. Likewise, a crate that pins its own
//! `version`/`edition`/`license` drifts from the workspace the first time
//! the shared values change.

use crate::rules::Finding;
use crate::toml::{self, Value};

/// Rule id: a `[package]` field that must use workspace inheritance.
pub const RULE_WORKSPACE_FIELD: &str = "manifest/workspace-field";
/// Rule id: a dependency that is not workspace-inherited or an in-tree path.
pub const RULE_EXTERNAL_DEP: &str = "manifest/external-dependency";

/// `[package]` keys that must read `<key>.workspace = true`.
const INHERITED_FIELDS: &[&str] = &["version", "edition", "license"];

/// Dependency-table names subject to the vendored-deps rule.
const DEP_SECTIONS: &[&str] = &["dependencies", "dev-dependencies", "build-dependencies"];

/// Checks one `Cargo.toml`.
///
/// * `rel_path` — workspace-relative manifest path for findings.
/// * `is_vendor` — vendored shims impersonate external crates (their own
///   `name`/`version`), so they are exempt from the inheritance rule but
///   still must not pull registry dependencies.
/// * `is_workspace_root` — additionally checks `[workspace.dependencies]`
///   entries resolve to in-tree paths.
#[must_use]
pub fn check_manifest(
    rel_path: &str,
    source: &str,
    is_vendor: bool,
    is_workspace_root: bool,
) -> Vec<Finding> {
    let tables = toml::parse(source);
    let mut findings = Vec::new();
    let mut push = |rule: &'static str, line: u32, message: String, snippet: String| {
        findings.push(Finding {
            rule,
            path: rel_path.to_string(),
            line,
            message,
            snippet,
            waived: false,
            reason: None,
            witness: Vec::new(),
        });
    };

    for table in &tables {
        if table.name == "package" && !is_vendor {
            for field in INHERITED_FIELDS {
                let dotted = format!("{field}.workspace");
                let inherited = match table.get(&dotted) {
                    Some(Value::Bool(true)) => true,
                    _ => matches!(
                        table.get(field),
                        Some(Value::InlineTable(pairs))
                            if pairs.iter().any(|(k, v)| k == "workspace" && *v == Value::Bool(true))
                    ),
                };
                if !inherited {
                    push(
                        RULE_WORKSPACE_FIELD,
                        table.line.max(1),
                        format!(
                            "`[package]` must inherit `{field}` from the workspace \
                             (`{field}.workspace = true`)"
                        ),
                        format!("[package] in {rel_path}"),
                    );
                }
            }
        }

        let is_dep_table = DEP_SECTIONS.contains(&table.name.as_str())
            || (is_workspace_root && table.name == "workspace.dependencies")
            || (table.name.starts_with("target.")
                && DEP_SECTIONS.iter().any(|s| table.name.ends_with(&format!(".{s}"))));
        if is_dep_table {
            for entry in &table.entries {
                // `foo.workspace = true` dotted-key form.
                if let Some(plain) = entry.key.strip_suffix(".workspace") {
                    if entry.value == Value::Bool(true) && !plain.is_empty() {
                        continue;
                    }
                }
                let ok = match &entry.value {
                    Value::InlineTable(pairs) => {
                        let has = |k: &str| pairs.iter().any(|(key, _)| key == k);
                        let workspace =
                            pairs.iter().any(|(k, v)| k == "workspace" && *v == Value::Bool(true));
                        let in_tree_path = pairs.iter().any(|(k, v)| {
                            k == "path" && matches!(v, Value::Str(p) if !p.starts_with('/'))
                        });
                        (workspace || in_tree_path) && !has("version") && !has("git")
                    }
                    // Bare version string (`foo = "1.0"`) or anything else:
                    // a registry/git dependency.
                    _ => false,
                };
                if !ok {
                    push(
                        RULE_EXTERNAL_DEP,
                        entry.line,
                        format!(
                            "dependency `{}` in `[{}]` must be workspace-inherited or an \
                             in-tree path — registry/git dependencies cannot build in the \
                             offline vendored tree",
                            entry.key, table.name
                        ),
                        format!("{} = …", entry.key),
                    );
                }
            }
        }
    }
    findings
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn conforming_manifest_is_clean() {
        let src = "\
[package]
name = \"macgame-x\"
version.workspace = true
edition.workspace = true
license.workspace = true

[dependencies]
macgame-dcf.workspace = true
serde = { workspace = true }
local = { path = \"../local\" }

[dev-dependencies]
proptest.workspace = true
";
        assert!(check_manifest("crates/x/Cargo.toml", src, false, false).is_empty());
    }

    #[test]
    fn pinned_fields_and_registry_deps_are_flagged() {
        let src = "\
[package]
name = \"macgame-x\"
version = \"0.1.0\"
edition.workspace = true
license.workspace = true

[dependencies]
serde = \"1.0\"
rand = { version = \"0.8\", features = [\"std\"] }
";
        let findings = check_manifest("crates/x/Cargo.toml", src, false, false);
        let rules: Vec<&str> = findings.iter().map(|f| f.rule).collect();
        assert_eq!(rules, vec![RULE_WORKSPACE_FIELD, RULE_EXTERNAL_DEP, RULE_EXTERNAL_DEP]);
        assert_eq!(findings[1].line, 8);
    }

    #[test]
    fn vendor_manifests_skip_inheritance_but_not_dep_rule() {
        let src = "\
[package]
name = \"rand\"
version = \"0.8.99\"
edition = \"2021\"

[dependencies]
getrandom = \"0.2\"
";
        let findings = check_manifest("vendor/rand/Cargo.toml", src, true, false);
        assert_eq!(findings.len(), 1);
        assert_eq!(findings[0].rule, RULE_EXTERNAL_DEP);
    }

    #[test]
    fn workspace_dependencies_must_be_in_tree_paths() {
        let src = "\
[workspace.dependencies]
macgame-dcf = { path = \"crates/dcf\" }
serde = { path = \"vendor/serde\", features = [\"derive\"] }
reqwest = \"0.12\"
";
        let findings = check_manifest("Cargo.toml", src, false, true);
        assert_eq!(findings.len(), 1);
        assert!(findings[0].message.contains("reqwest"));
    }

    #[test]
    fn absolute_path_deps_are_flagged() {
        let src = "[dependencies]\nevil = { path = \"/tmp/evil\" }\n";
        let findings = check_manifest("crates/x/Cargo.toml", src, false, false);
        assert_eq!(findings.len(), 1);
        assert_eq!(findings[0].rule, RULE_EXTERNAL_DEP);
    }
}
