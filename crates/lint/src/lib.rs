//! `macgame-lint` — the workspace invariant checker.
//!
//! PRs 1–4 made three prose policies load-bearing: byte-for-byte artifact
//! determinism (`CONFORMANCE.json` / `TELEMETRY.json` / `ROBUSTNESS.json`
//! are thread-count-invariant), the DESIGN.md §12 panic-to-error policy,
//! and seeded-ChaCha8-only randomness. Each was guarded only by spot
//! regression tests; one stray `HashMap` iteration, `Instant::now()`, or
//! `unwrap()` in a new code path silently breaks them. This crate turns
//! those contracts into *mechanically enforced invariants*, the way the
//! parameter-verification machinery of Banchs et al. ("Thwarting Selfish
//! Behavior in 802.11 WLANs") detects protocol deviations mechanically
//! rather than by inspection.
//!
//! It is dependency-free by design (no `syn` in the vendored tree): a
//! hand-rolled lexer ([`lexer`]) and item parser ([`parser`]) read each
//! library file once, marking its test regions once; the token rules
//! ([`rules`]) and the call-graph passes ([`analysis`], over [`graph`])
//! both consume that one parse. The graph also reads `examples/` and
//! `macbench/src/`, whose fns root it; no token rule runs on them. A minimal TOML subset parser ([`toml`])
//! reads the crate manifests ([`manifest`]) and the `lint-allow.toml`
//! waiver file ([`waivers`]), and [`report`] renders the human table plus
//! deterministic `artifacts/LINT.json` and `artifacts/ANALYSIS.json`
//! bytes.
//!
//! # Rule catalog
//!
//! Each contract has exactly one enforcer: the token rules own every
//! contract about a *site*, the graph passes only those about a *path*.
//!
//! | rule | contract |
//! |------|----------|
//! | `determinism/hash-container` | no `HashMap`/`HashSet` in library code — iteration order can leak into artifacts; use `BTreeMap`/`BTreeSet` or waive with proof |
//! | `determinism/wall-clock` | no `Instant::now`/`SystemTime::now` outside the telemetry timings quarantine |
//! | `determinism/entropy-rng` | no `thread_rng`/`from_entropy` — randomness comes from seeded ChaCha8 streams |
//! | `panic-policy/unmarked-panic` | `unwrap`/`expect`/`panic!`/`assert!`-family calls in non-test library code need a `// PANIC-POLICY:` contract marker |
//! | `panic-policy/empty-marker` | a marker must carry a rationale |
//! | `api/relaxed-ordering` | no `Ordering::Relaxed` outside the telemetry allowlist |
//! | `analysis/determinism-taint` | no thread-identity read or raw thread reachable from an artifact root |
//! | `analysis/lock-order` | no cycle in the lock-acquisition order |
//! | `analysis/test-only-pub` | every library `pub fn` is reachable from a production root (bins, `examples/`, `macbench/`, trait impls, artifact roots) |
//! | `manifest/workspace-field` | crates inherit `version`/`edition`/`license` from the workspace |
//! | `manifest/external-dependency` | only workspace-inherited or in-tree path dependencies |
//! | `waiver/stale`, `waiver/invalid` | the waiver file itself must stay honest |
//!
//! # Usage
//!
//! ```text
//! cargo run --release -p macgame-bench --bin repro -- lint
//! ```
//!
//! Exit is nonzero on any unwaived finding; `lint-allow.toml` grants
//! per-line (or per-file) waivers that must carry a rationale.

#![warn(missing_docs)]
#![warn(missing_debug_implementations)]

pub mod analysis;
pub mod graph;
pub mod lexer;
pub mod manifest;
pub mod parser;
pub mod report;
pub mod rules;
pub mod toml;
pub mod waivers;

use std::fmt;
use std::fs;
use std::path::{Path, PathBuf};

pub use analysis::{AnalysisConfig, AnalysisReport};
pub use report::LintReport;
use report::LintStats;
pub use rules::{FileContext, Finding};
pub use waivers::WAIVER_FILE;

/// Errors a lint run can hit. The linter itself never panics.
#[derive(Debug)]
pub enum LintError {
    /// A filesystem operation failed.
    Io {
        /// The path involved.
        path: PathBuf,
        /// The underlying error.
        source: std::io::Error,
    },
    /// `root` is not a workspace root (no `Cargo.toml` with `[workspace]`).
    NotAWorkspace(PathBuf),
}

impl fmt::Display for LintError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            LintError::Io { path, source } => {
                write!(f, "io error at {}: {source}", path.display())
            }
            LintError::NotAWorkspace(p) => {
                write!(f, "{} is not a cargo workspace root", p.display())
            }
        }
    }
}

impl std::error::Error for LintError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            LintError::Io { source, .. } => Some(source),
            LintError::NotAWorkspace(_) => None,
        }
    }
}

fn read(path: &Path) -> Result<String, LintError> {
    fs::read_to_string(path).map_err(|source| LintError::Io { path: path.to_path_buf(), source })
}

/// Walks up from `start` to the nearest directory whose `Cargo.toml`
/// declares `[workspace]`.
#[must_use]
pub fn find_workspace_root(start: &Path) -> Option<PathBuf> {
    let mut dir = Some(start);
    while let Some(d) = dir {
        let manifest = d.join("Cargo.toml");
        if let Ok(contents) = fs::read_to_string(&manifest) {
            if toml::parse(&contents).iter().any(|t| t.name == "workspace" && !t.is_array) {
                return Some(d.to_path_buf());
            }
        }
        dir = d.parent();
    }
    None
}

/// Turns a path relative to `root` into the canonical `/`-separated form
/// used in findings and waivers.
fn rel_str(root: &Path, path: &Path) -> String {
    let rel = path.strip_prefix(root).unwrap_or(path);
    rel.components().map(|c| c.as_os_str().to_string_lossy()).collect::<Vec<_>>().join("/")
}

/// Lists the immediate subdirectories of `dir` that contain a
/// `Cargo.toml`, sorted by name for deterministic traversal.
fn package_dirs(dir: &Path) -> Result<Vec<PathBuf>, LintError> {
    let mut out = Vec::new();
    if !dir.is_dir() {
        return Ok(out);
    }
    let entries =
        fs::read_dir(dir).map_err(|source| LintError::Io { path: dir.to_path_buf(), source })?;
    for entry in entries {
        let entry = entry.map_err(|source| LintError::Io { path: dir.to_path_buf(), source })?;
        let path = entry.path();
        if path.is_dir() && path.join("Cargo.toml").is_file() {
            out.push(path);
        }
    }
    out.sort();
    Ok(out)
}

/// Recursively collects `*.rs` files under `dir`, sorted.
fn rust_files_recursive(dir: &Path, out: &mut Vec<PathBuf>) -> Result<(), LintError> {
    if !dir.is_dir() {
        return Ok(());
    }
    let entries =
        fs::read_dir(dir).map_err(|source| LintError::Io { path: dir.to_path_buf(), source })?;
    let mut paths: Vec<PathBuf> = Vec::new();
    for entry in entries {
        let entry = entry.map_err(|source| LintError::Io { path: dir.to_path_buf(), source })?;
        paths.push(entry.path());
    }
    paths.sort();
    for path in paths {
        if path.is_dir() {
            rust_files_recursive(&path, out)?;
        } else if path.extension().is_some_and(|e| e == "rs") {
            out.push(path);
        }
    }
    Ok(())
}

/// Combined outcome of the token lint and the call-graph analyses over
/// one workspace, with waivers applied across the union (an
/// `analysis/*` waiver is not "stale" to the token pass and vice versa).
#[derive(Debug)]
pub struct WorkspaceReport {
    /// Token-level findings (`LINT.json`), including waiver-file defects.
    pub lint: LintReport,
    /// Call-graph reachability findings (`ANALYSIS.json`).
    pub analysis: AnalysisReport,
}

impl WorkspaceReport {
    /// Whether both passes are clean (every finding waived).
    #[must_use]
    pub fn is_clean(&self) -> bool {
        self.lint.is_clean() && self.analysis.is_clean()
    }

    /// Total unwaived findings across both passes.
    #[must_use]
    pub fn unwaived_count(&self) -> usize {
        self.lint.unwaived().len() + self.analysis.unwaived().len()
    }
}

/// Runs the token lint and the call-graph analyses with the default
/// taint roots.
///
/// # Errors
///
/// Returns [`LintError`] on filesystem failures or when `root` is not a
/// workspace root. Findings — including malformed waivers — are *not*
/// errors; they are reported in the [`WorkspaceReport`].
pub fn run_workspace(root: &Path) -> Result<WorkspaceReport, LintError> {
    run_workspace_with(root, &AnalysisConfig::default())
}

/// Runs the token lint and the call-graph analyses with explicit taint
/// roots. Each library file is read and parsed once; both passes consume
/// the parse. `lint-allow.toml` waivers apply to findings from either
/// pass, and stale-waiver detection runs once over the union.
///
/// # Errors
///
/// See [`run_workspace`].
pub fn run_workspace_with(
    root: &Path,
    config: &AnalysisConfig,
) -> Result<WorkspaceReport, LintError> {
    let root_manifest_path = root.join("Cargo.toml");
    let root_manifest = read(&root_manifest_path)?;
    if !toml::parse(&root_manifest).iter().any(|t| t.name == "workspace" && !t.is_array) {
        return Err(LintError::NotAWorkspace(root.to_path_buf()));
    }

    let mut findings: Vec<Finding> = Vec::new();
    let mut parsed_files: Vec<(String, parser::ParsedFile)> = Vec::new();
    let mut manifests_checked = 0usize;

    // Waivers first: malformed entries are findings too.
    let waiver_path = root.join(WAIVER_FILE);
    let waiver_set = if waiver_path.is_file() {
        waivers::parse_waivers(&read(&waiver_path)?)
    } else {
        waivers::WaiverSet::default()
    };
    findings.extend(waiver_set.findings.iter().cloned());

    // The root manifest: workspace-field + workspace.dependencies checks.
    findings.extend(manifest::check_manifest("Cargo.toml", &root_manifest, false, true));
    manifests_checked += 1;

    // Package set: the root package plus crates/* and vendor/*.
    let mut packages: Vec<(PathBuf, bool)> = vec![(root.to_path_buf(), false)];
    for dir in package_dirs(&root.join("crates"))? {
        packages.push((dir, false));
    }
    for dir in package_dirs(&root.join("vendor"))? {
        packages.push((dir, true));
    }

    for (pkg_dir, is_vendor) in &packages {
        // Manifests (the root package's manifest was already checked above).
        if pkg_dir != root {
            let manifest_path = pkg_dir.join("Cargo.toml");
            let rel = rel_str(root, &manifest_path);
            findings.extend(manifest::check_manifest(
                &rel,
                &read(&manifest_path)?,
                *is_vendor,
                false,
            ));
            manifests_checked += 1;
        }
        if *is_vendor {
            // Vendored shims implement the very APIs the code rules police;
            // the determinism contracts bind their *call sites* in macgame
            // crates, not the shims themselves.
            continue;
        }
        // Library sources: everything under src/, recursively (bins
        // included). Tests and benches never ship, so no code rule
        // applies to them and they are not read; examples are read
        // below, for the call graph only.
        let mut lib_files = Vec::new();
        rust_files_recursive(&pkg_dir.join("src"), &mut lib_files)?;
        for file in lib_files {
            let rel = rel_str(root, &file);
            let parsed = parser::parse(&read(&file)?);
            findings.extend(rules::check_source(&FileContext { rel_path: &rel }, &parsed));
            parsed_files.push((rel, parsed));
        }
    }

    // Call-graph analyses over the same parsed library files, plus the
    // graph-only inputs: production roots that no token rule reads.
    let stats = LintStats { files_scanned: parsed_files.len(), manifests_checked };
    for dir in analysis::GRAPH_ONLY_DIRS {
        let mut files = Vec::new();
        rust_files_recursive(&root.join(dir), &mut files)?;
        for file in files {
            parsed_files.push((rel_str(root, &file), parser::parse(&read(&file)?)));
        }
    }
    let analyzed = analysis::analyze(&parsed_files, config);
    findings.extend(analyzed.findings);

    // Waivers apply across the union so stale detection sees both passes.
    waivers::apply_waivers(&mut findings, &waiver_set.waivers);
    let (analysis_findings, lint_findings): (Vec<Finding>, Vec<Finding>) =
        findings.into_iter().partition(|f| f.rule.starts_with("analysis/"));
    Ok(WorkspaceReport {
        lint: LintReport::new(lint_findings, stats),
        analysis: AnalysisReport::new(analysis_findings, analyzed.stats),
    })
}
