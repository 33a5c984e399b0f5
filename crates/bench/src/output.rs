//! Tabular output shared by all figure harnesses: aligned text tables for
//! the terminal plus JSON dumps under `results/` for plotting.

use crate::json::Json;
use crate::obj;
use std::fmt::Write as _;
use std::path::PathBuf;

/// A simple column-aligned table.
#[derive(Debug, Clone, Default)]
pub struct Table {
    pub headers: Vec<String>,
    pub rows: Vec<Vec<String>>,
}

impl Table {
    pub fn new<S: Into<String>>(headers: Vec<S>) -> Self {
        Self { headers: headers.into_iter().map(Into::into).collect(), rows: Vec::new() }
    }

    pub fn row<S: Into<String>>(&mut self, cells: Vec<S>) {
        let cells: Vec<String> = cells.into_iter().map(Into::into).collect();
        assert_eq!(cells.len(), self.headers.len(), "row arity");
        self.rows.push(cells);
    }

    pub fn render(&self) -> String {
        let ncols = self.headers.len();
        let mut widths: Vec<usize> = self.headers.iter().map(|h| h.len()).collect();
        for row in &self.rows {
            for (i, c) in row.iter().enumerate() {
                widths[i] = widths[i].max(c.len());
            }
        }
        let mut out = String::new();
        let fmt_row = |cells: &[String], widths: &[usize], out: &mut String| {
            for (i, c) in cells.iter().enumerate() {
                let pad = widths[i] - c.len();
                let _ = write!(out, "{}{}", c, " ".repeat(pad));
                if i + 1 < ncols {
                    let _ = write!(out, "  ");
                }
            }
            let _ = writeln!(out);
        };
        fmt_row(&self.headers, &widths, &mut out);
        let _ = writeln!(out, "{}", "-".repeat(widths.iter().sum::<usize>() + 2 * (ncols - 1)));
        for row in &self.rows {
            fmt_row(row, &widths, &mut out);
        }
        out
    }
}

/// One regenerated figure/table.
#[derive(Debug, Clone)]
pub struct FigureResult {
    /// e.g. "fig6".
    pub id: String,
    pub title: String,
    /// Free-form notes (paper-reported values, calibration remarks).
    pub notes: Vec<String>,
    pub tables: Vec<(String, Table)>,
}

impl FigureResult {
    pub fn new(id: &str, title: &str) -> Self {
        Self { id: id.into(), title: title.into(), notes: Vec::new(), tables: Vec::new() }
    }

    pub fn note(&mut self, s: impl Into<String>) {
        self.notes.push(s.into());
    }

    pub fn table(&mut self, caption: &str, t: Table) {
        self.tables.push((caption.into(), t));
    }

    pub fn render(&self) -> String {
        let mut out = String::new();
        let _ = writeln!(out, "== {}: {} ==", self.id, self.title);
        for n in &self.notes {
            let _ = writeln!(out, "   {n}");
        }
        for (cap, t) in &self.tables {
            let _ = writeln!(out, "\n-- {cap} --");
            let _ = write!(out, "{}", t.render());
        }
        out
    }

    /// Persist as JSON under `results/<id>.json` (best-effort).
    pub fn save_json(&self) -> Option<PathBuf> {
        let dir = PathBuf::from("results");
        std::fs::create_dir_all(&dir).ok()?;
        let path = dir.join(format!("{}.json", self.id));
        std::fs::write(&path, self.to_json().render()).ok()?;
        Some(path)
    }

    /// The figure as a JSON document: id, title, notes, and each table's
    /// caption, headers, and rows.
    pub fn to_json(&self) -> Json {
        let tables: Vec<Json> = self
            .tables
            .iter()
            .map(|(caption, t)| {
                let rows: Vec<Json> = t.rows.iter().map(|r| r.clone().into()).collect();
                obj! { "caption": caption.as_str(), "headers": t.headers.clone(), "rows": rows }
            })
            .collect();
        obj! {
            "id": self.id.as_str(),
            "title": self.title.as_str(),
            "notes": self.notes.clone(),
            "tables": tables,
        }
    }

    /// Print, save, and return.
    pub fn emit(self) -> Self {
        println!("{}", self.render());
        if let Some(p) = self.save_json() {
            println!("   [saved {}]", p.display());
        }
        self
    }
}

/// Sweep size selector: `Full` reproduces the paper's ranges; `Quick` is a
/// reduced version for tests and Criterion benches.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Scale {
    Full,
    Quick,
}

impl Scale {
    pub fn from_env() -> Self {
        match std::env::var("STEPSTONE_SCALE").as_deref() {
            Ok("quick") => Scale::Quick,
            _ => Scale::Full,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn table_renders_aligned() {
        let mut t = Table::new(vec!["a", "long-header"]);
        t.row(vec!["1", "2"]);
        t.row(vec!["333", "4"]);
        let s = t.render();
        let lines: Vec<&str> = s.lines().collect();
        assert_eq!(lines.len(), 4);
        assert!(lines[0].starts_with("a    "));
        assert!(lines[2].starts_with("1    "));
    }

    #[test]
    #[should_panic(expected = "row arity")]
    fn arity_mismatch_panics() {
        let mut t = Table::new(vec!["a", "b"]);
        t.row(vec!["only-one"]);
    }

    #[test]
    fn figure_renders_notes_and_tables() {
        let mut f = FigureResult::new("figX", "test");
        f.note("calibration note");
        let mut t = Table::new(vec!["col"]);
        t.row(vec!["val"]);
        f.table("caption", t);
        let s = f.render();
        assert!(s.contains("figX"));
        assert!(s.contains("calibration note"));
        assert!(s.contains("caption"));
        assert!(s.contains("val"));
    }
}
