//! Column-oriented result tables with plain-text and CSV output.

use std::fmt::Write as _;
use std::io;
use std::path::Path;

/// A cell value: experiments mix integers, floats and labels.
#[derive(Debug, Clone, PartialEq)]
pub enum Cell {
    /// Integer (worker counts, trial counts, ...).
    Int(i64),
    /// Floating-point value, rendered with four decimals.
    Float(f64),
    /// Free-form label.
    Text(String),
}

impl From<i64> for Cell {
    fn from(v: i64) -> Self {
        Cell::Int(v)
    }
}
impl From<i32> for Cell {
    fn from(v: i32) -> Self {
        Cell::Int(v as i64)
    }
}
impl From<usize> for Cell {
    fn from(v: usize) -> Self {
        Cell::Int(v as i64)
    }
}
impl From<f64> for Cell {
    fn from(v: f64) -> Self {
        Cell::Float(v)
    }
}
impl From<&str> for Cell {
    fn from(v: &str) -> Self {
        Cell::Text(v.to_string())
    }
}
impl From<String> for Cell {
    fn from(v: String) -> Self {
        Cell::Text(v)
    }
}

/// Decimal places of every rendered float.
const PRECISION: usize = 4;

impl Cell {
    fn render(&self) -> String {
        match self {
            Cell::Int(v) => v.to_string(),
            Cell::Float(v) => {
                let s = format!("{v:.PRECISION$}");
                // A value that rounds to zero prints without a sign, so the
                // bytes never depend on the sign of rounding noise.
                match s.strip_prefix('-') {
                    Some(rest) if rest.bytes().all(|b| b == b'0' || b == b'.') => rest.to_string(),
                    _ => s,
                }
            }
            Cell::Text(s) => s.clone(),
        }
    }

    fn render_csv(&self) -> String {
        match self {
            Cell::Text(s) if s.contains(',') || s.contains('"') || s.contains('\n') => {
                format!("\"{}\"", s.replace('"', "\"\""))
            }
            other => other.render(),
        }
    }
}

/// A results table with named columns.
///
/// ```
/// use dlt_stats::Table;
/// let mut t = Table::new(&["p", "ratio"]);
/// t.row([10.into(), 1.01.into()]);
/// t.row([100.into(), 1.02.into()]);
/// assert_eq!(t.n_rows(), 2);
/// assert!(t.to_csv().starts_with("p,ratio\n10,"));
/// ```
#[derive(Debug, Clone)]
pub struct Table {
    headers: Vec<String>,
    rows: Vec<Vec<Cell>>,
    title: Option<String>,
}

impl Table {
    /// New table with the given column headers.
    pub fn new(headers: &[&str]) -> Self {
        Self {
            headers: headers.iter().map(|s| s.to_string()).collect(),
            rows: Vec::new(),
            title: None,
        }
    }

    /// Sets a title displayed above plain-text renderings.
    pub fn with_title(mut self, title: &str) -> Self {
        self.title = Some(title.to_string());
        self
    }

    /// Appends a row. Panics when the arity does not match the headers —
    /// a row of the wrong width is always a harness bug.
    pub fn row<I: IntoIterator<Item = Cell>>(&mut self, cells: I) {
        let row: Vec<Cell> = cells.into_iter().collect();
        assert_eq!(
            row.len(),
            self.headers.len(),
            "row width {} does not match {} headers",
            row.len(),
            self.headers.len()
        );
        self.rows.push(row);
    }

    /// Number of data rows.
    pub fn n_rows(&self) -> usize {
        self.rows.len()
    }

    /// Column headers.
    pub fn headers(&self) -> &[String] {
        &self.headers
    }

    /// Returns the column of `f64` values for header `name`. Integer cells
    /// are widened; text cells yield `None`.
    pub fn column(&self, name: &str) -> Option<Vec<f64>> {
        let idx = self.headers.iter().position(|h| h == name)?;
        let mut out = Vec::with_capacity(self.rows.len());
        for row in &self.rows {
            match &row[idx] {
                Cell::Int(v) => out.push(*v as f64),
                Cell::Float(v) => out.push(*v),
                Cell::Text(_) => return None,
            }
        }
        Some(out)
    }

    fn rendered(&self) -> (Vec<String>, Vec<Vec<String>>) {
        let header = self.headers.clone();
        let rows = self
            .rows
            .iter()
            .map(|r| r.iter().map(Cell::render).collect())
            .collect();
        (header, rows)
    }

    /// Aligned plain-text rendering (right-aligned numeric style).
    pub fn to_text(&self) -> String {
        let (header, rows) = self.rendered();
        let mut widths: Vec<usize> = header.iter().map(|h| h.len()).collect();
        for row in &rows {
            for (i, cell) in row.iter().enumerate() {
                widths[i] = widths[i].max(cell.len());
            }
        }
        let mut out = String::new();
        if let Some(t) = &self.title {
            let _ = writeln!(out, "# {t}");
        }
        let fmt_row = |cells: &[String], widths: &[usize]| -> String {
            cells
                .iter()
                .zip(widths)
                .map(|(c, w)| format!("{c:>w$}"))
                .collect::<Vec<_>>()
                .join("  ")
        };
        let _ = writeln!(out, "{}", fmt_row(&header, &widths));
        let total: usize = widths.iter().sum::<usize>() + 2 * (widths.len().saturating_sub(1));
        let _ = writeln!(out, "{}", "-".repeat(total));
        for row in &rows {
            let _ = writeln!(out, "{}", fmt_row(row, &widths));
        }
        out
    }

    /// CSV rendering with a header line.
    pub fn to_csv(&self) -> String {
        let mut out = String::new();
        let _ = writeln!(out, "{}", self.headers.join(","));
        for row in &self.rows {
            let line: Vec<String> = row.iter().map(Cell::render_csv).collect();
            let _ = writeln!(out, "{}", line.join(","));
        }
        out
    }

    /// Writes the CSV rendering to `path`, creating parent directories.
    pub fn write_csv<P: AsRef<Path>>(&self, path: P) -> io::Result<()> {
        if let Some(parent) = path.as_ref().parent() {
            std::fs::create_dir_all(parent)?;
        }
        std::fs::write(path, self.to_csv())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> Table {
        let mut t = Table::new(&["p", "strategy", "ratio"]);
        t.row([10.into(), "hom".into(), 1.5.into()]);
        t.row([100.into(), "het".into(), 1.01.into()]);
        t
    }

    #[test]
    fn text_rendering_is_aligned() {
        let text = sample().to_text();
        let lines: Vec<&str> = text.lines().collect();
        assert!(lines[0].contains("p"));
        assert!(lines[0].contains("ratio"));
        assert!(lines[1].starts_with('-'));
        assert_eq!(lines.len(), 4);
    }

    #[test]
    fn title_is_rendered() {
        let t = sample().with_title("Figure 4");
        assert!(t.to_text().starts_with("# Figure 4"));
    }

    #[test]
    fn csv_rendering_and_quoting() {
        let mut t = Table::new(&["name", "v"]);
        t.row(["has,comma".into(), 1.0.into()]);
        t.row(["has\"quote".into(), 2.0.into()]);
        let csv = t.to_csv();
        assert!(csv.contains("\"has,comma\""));
        assert!(csv.contains("\"has\"\"quote\""));
    }

    #[test]
    fn column_extraction() {
        let t = sample();
        assert_eq!(t.column("p"), Some(vec![10.0, 100.0]));
        assert_eq!(t.column("ratio"), Some(vec![1.5, 1.01]));
        assert_eq!(t.column("strategy"), None); // text column
        assert_eq!(t.column("missing"), None);
    }

    #[test]
    #[should_panic(expected = "row width")]
    fn arity_mismatch_panics() {
        let mut t = Table::new(&["a", "b"]);
        t.row([1.into()]);
    }

    #[test]
    fn write_csv_creates_directories() {
        let dir = std::env::temp_dir().join("dlt_stats_test_csv");
        let _ = std::fs::remove_dir_all(&dir);
        let path = dir.join("nested/table.csv");
        sample().write_csv(&path).unwrap();
        let content = std::fs::read_to_string(&path).unwrap();
        assert!(content.starts_with("p,strategy,ratio\n"));
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn precision_applies_to_floats_only() {
        let mut t = Table::new(&["x"]);
        t.row([1.25.into()]);
        assert!(t.to_text().contains("1.2500"));
        let mut t2 = Table::new(&["n"]);
        t2.row([7usize.into()]);
        assert!(t2.to_text().contains('7'));
        assert!(!t2.to_text().contains("7.0"));
    }

    #[test]
    fn floats_that_round_to_zero_print_without_a_sign() {
        let mut t = Table::new(&["x"]);
        for v in [
            -1e-17,
            -0.0,
            -0.00004,
            0.0,
            -0.0002,
            -1.5,
            f64::NEG_INFINITY,
        ] {
            t.row([v.into()]);
        }
        assert_eq!(
            t.to_csv(),
            "x\n0.0000\n0.0000\n0.0000\n0.0000\n-0.0002\n-1.5000\n-inf\n"
        );
    }
}
