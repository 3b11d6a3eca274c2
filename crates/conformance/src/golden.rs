//! Golden-snapshot plumbing: fixture paths, byte-for-byte comparison,
//! blessing, and human-readable diffs.
//!
//! A fixture is the pretty-printed JSON of a deterministic solve. Fresh
//! values are rendered through the same serializer before comparison, so
//! string equality is exactly bitwise value equality (the float writer is
//! shortest-roundtrip). `UPDATE_GOLDEN=1` switches [`check_golden`] from
//! comparing to (re)writing — `scripts/bless.sh` wraps that.

use std::path::PathBuf;

use serde::Serialize;

use crate::ConformanceError;

/// Max differing lines quoted in a mismatch diff before truncating.
const DIFF_LINE_CAP: usize = 24;

/// The checked-in fixture directory, `tests/golden/` at the workspace
/// root. Resolved from this crate's manifest directory, so it is
/// independent of the process working directory.
#[must_use]
pub fn golden_dir() -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("..").join("..").join("tests").join("golden")
}

/// Path of the fixture file for `name`.
#[must_use]
pub fn golden_path(name: &str) -> PathBuf {
    golden_dir().join(format!("{name}.json"))
}

/// Whether the caller asked to (re)write fixtures instead of checking
/// them (`UPDATE_GOLDEN` set to anything but `0`).
#[must_use]
pub fn bless_requested() -> bool {
    std::env::var_os("UPDATE_GOLDEN").is_some_and(|v| v != "0")
}

/// Renders a fixture value exactly as it is stored on disk.
///
/// # Errors
///
/// Propagates serialization failures.
pub fn render<T: Serialize + ?Sized>(value: &T) -> Result<String, ConformanceError> {
    Ok(serde_json::to_string_pretty(value)? + "\n")
}

/// Compares `value` byte-for-byte against the checked-in fixture `name`,
/// or (re)writes the fixture when [`bless_requested`].
///
/// # Errors
///
/// * [`ConformanceError::MissingGolden`] if the fixture does not exist;
/// * [`ConformanceError::Mismatch`] with a line diff if it disagrees;
/// * IO/serialization failures.
pub fn check_golden<T: Serialize + ?Sized>(name: &str, value: &T) -> Result<(), ConformanceError> {
    let fresh = render(value)?;
    let path = golden_path(name);
    if bless_requested() {
        if let Some(parent) = path.parent() {
            std::fs::create_dir_all(parent)?;
        }
        std::fs::write(&path, fresh)?;
        return Ok(());
    }
    let golden = match std::fs::read_to_string(&path) {
        Ok(text) => text,
        Err(e) if e.kind() == std::io::ErrorKind::NotFound => {
            return Err(ConformanceError::MissingGolden { name: name.to_string(), path });
        }
        Err(e) => return Err(ConformanceError::Io(e)),
    };
    if golden == fresh {
        Ok(())
    } else {
        Err(ConformanceError::Mismatch {
            name: name.to_string(),
            diff: diff_lines(&golden, &fresh),
        })
    }
}

/// Line-oriented diff of two fixture renderings: every differing line is
/// quoted with its 1-based line number, `-` for the golden side and `+`
/// for the fresh side, truncated after `DIFF_LINE_CAP` differences.
#[must_use]
pub fn diff_lines(golden: &str, fresh: &str) -> String {
    let golden_lines: Vec<&str> = golden.lines().collect();
    let fresh_lines: Vec<&str> = fresh.lines().collect();
    let mut out = String::new();
    let mut shown = 0usize;
    let mut skipped = 0usize;
    let total = golden_lines.len().max(fresh_lines.len());
    for i in 0..total {
        let g = golden_lines.get(i).copied();
        let f = fresh_lines.get(i).copied();
        if g == f {
            continue;
        }
        if shown == DIFF_LINE_CAP {
            skipped += 1;
            continue;
        }
        shown += 1;
        out.push_str(&format!("line {}:\n", i + 1));
        if let Some(g) = g {
            out.push_str(&format!("  - golden: {g}\n"));
        } else {
            out.push_str("  - golden: <end of file>\n");
        }
        if let Some(f) = f {
            out.push_str(&format!("  + fresh:  {f}\n"));
        } else {
            out.push_str("  + fresh:  <end of file>\n");
        }
    }
    if skipped > 0 {
        out.push_str(&format!("… {skipped} more differing line(s)\n"));
    }
    if golden_lines.len() != fresh_lines.len() {
        out.push_str(&format!(
            "({} golden lines vs {} fresh lines)\n",
            golden_lines.len(),
            fresh_lines.len()
        ));
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn golden_dir_points_into_workspace_tests() {
        let dir = golden_dir();
        assert!(dir.ends_with("tests/golden"));
        assert_eq!(golden_path("x"), dir.join("x.json"));
    }

    #[test]
    fn diff_quotes_both_sides_with_line_numbers() {
        let diff = diff_lines("a\nb\nc\n", "a\nB\nc\n");
        assert!(diff.contains("line 2:"));
        assert!(diff.contains("- golden: b"));
        assert!(diff.contains("+ fresh:  B"));
        assert!(!diff.contains("line 1:"));
        assert!(!diff.contains("line 3:"));
    }

    #[test]
    fn diff_handles_length_mismatch() {
        let diff = diff_lines("a\n", "a\nb\n");
        assert!(diff.contains("<end of file>"));
        assert!(diff.contains("1 golden lines vs 2 fresh lines"));
    }

    #[test]
    fn diff_truncates_noise() {
        let golden: String = (0..100).map(|i| format!("{i}\n")).collect();
        let fresh: String = (0..100).map(|i| format!("{}\n", i + 1)).collect();
        let diff = diff_lines(&golden, &fresh);
        assert!(diff.contains("more differing line(s)"));
        assert!(diff.matches("line ").count() <= DIFF_LINE_CAP + 10);
    }

    #[test]
    fn render_appends_trailing_newline() {
        assert_eq!(render(&7u32).unwrap(), "7\n");
    }
}
