//! Plain-text table rendering and JSON artifact output for the `repro`
//! binary.

use serde::Serialize;
use std::fs;
use std::path::{Path, PathBuf};

use crate::BenchError;

/// Renders a fixed-width text table.
///
/// # Panics
///
/// Panics if any row's length differs from the header's.
#[must_use]
pub fn text_table(headers: &[&str], rows: &[Vec<String>]) -> String {
    for row in rows {
        assert_eq!(row.len(), headers.len(), "ragged table row"); // PANIC-POLICY: documented # Panics contract (programmer-error guard)
    }
    let mut widths: Vec<usize> = headers.iter().map(|h| h.chars().count()).collect();
    for row in rows {
        for (w, cell) in widths.iter_mut().zip(row) {
            *w = (*w).max(cell.chars().count());
        }
    }
    let mut out = String::new();
    let fmt_row = |cells: Vec<&str>, widths: &[usize]| -> String {
        let mut line = String::new();
        for (cell, w) in cells.iter().zip(widths) {
            line.push_str(&format!("{cell:>w$}  ", w = w));
        }
        line.trim_end().to_string() + "\n"
    };
    out.push_str(&fmt_row(headers.to_vec(), &widths));
    out.push_str(&fmt_row(widths.iter().map(|_| "─").collect(), &widths.to_vec()));
    for row in rows {
        out.push_str(&fmt_row(row.iter().map(String::as_str).collect(), &widths));
    }
    out
}

/// Writes a JSON artifact under `artifacts/`, creating the directory.
///
/// # Errors
///
/// Returns [`BenchError::Io`] on filesystem failures.
pub fn write_artifact<T: Serialize>(name: &str, value: &T) -> Result<PathBuf, BenchError> {
    let dir = Path::new("artifacts");
    fs::create_dir_all(dir)?;
    let path = dir.join(format!("{name}.json"));
    let json = serde_json::to_string_pretty(value)?;
    fs::write(&path, json)?;
    Ok(path)
}

/// Writes an already-rendered artifact under `artifacts/`, creating the
/// directory. Used for payloads that control their own byte-exact layout
/// (e.g. the telemetry snapshot, whose non-`timings` bytes are compared
/// across thread counts).
///
/// # Errors
///
/// Returns [`BenchError::Io`] on filesystem failures.
pub fn write_raw_artifact(name: &str, contents: &str) -> Result<PathBuf, BenchError> {
    let dir = Path::new("artifacts");
    fs::create_dir_all(dir)?;
    let path = dir.join(format!("{name}.json"));
    fs::write(&path, contents)?;
    Ok(path)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn table_alignment() {
        let t = text_table(
            &["n", "W*"],
            &[vec!["5".into(), "76".into()], vec!["50".into(), "879".into()]],
        );
        let lines: Vec<&str> = t.lines().collect();
        assert_eq!(lines.len(), 4);
        assert!(lines[0].contains('n') && lines[0].contains("W*"));
        assert!(lines[3].contains("879"));
    }

    #[test]
    #[should_panic(expected = "ragged")]
    fn ragged_rows_rejected() {
        let _ = text_table(&["a", "b"], &[vec!["1".into()]]);
    }
}
