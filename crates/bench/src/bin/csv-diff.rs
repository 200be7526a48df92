//! Cell-level diff of two directories of CSV tables: names every cell
//! that differs, so a result that stops reproducing points at its file,
//! line and column instead of a whole file.
//!
//! ```text
//! csv-diff <old_dir> <new_dir>
//! ```
//!
//! Compares every `*.csv` file of the two directories (not recursive).
//! For each file present on both sides it prints one line per differing
//! cell:
//!
//! ```text
//! sec_amdahl.csv:21 makespan_hom: 4294970368.0000 -> 4294970367.9999 (-2.33e-14)
//! ```
//!
//! with the 1-based line number, the column's header (from the old file),
//! both values and, when both parse as numbers, the relative change
//! `(new − old)/|old|`. A line or column present on one side only, and
//! a file present in one directory only, is reported too. Cells are
//! split on `,` with no quoting, which is how `dlt_stats::Table` writes
//! them; line endings are not compared (the `git diff` after it in CI
//! is the byte-level check). Exits 0 when nothing differs, 1 on any
//! difference, 2 when a directory or file cannot be read.

use std::collections::BTreeSet;
use std::path::Path;
use std::process::ExitCode;

/// The `*.csv` file names directly inside `dir`.
fn csv_names(dir: &Path) -> Result<BTreeSet<String>, String> {
    let entries =
        std::fs::read_dir(dir).map_err(|e| format!("cannot read {}: {e}", dir.display()))?;
    let mut names = BTreeSet::new();
    for entry in entries {
        let entry = entry.map_err(|e| format!("cannot read {}: {e}", dir.display()))?;
        let name = entry.file_name().to_string_lossy().into_owned();
        if name.ends_with(".csv") {
            names.insert(name);
        }
    }
    Ok(names)
}

/// `(new − old)/|old|` as text when both cells are numbers.
fn relative_change(old: &str, new: &str) -> Option<String> {
    let (old, new) = (old.parse::<f64>().ok()?, new.parse::<f64>().ok()?);
    let change = (new - old) / old.abs();
    Some(if change.is_finite() {
        format!("{change:+.2e}")
    } else {
        "from 0".to_string()
    })
}

/// One report line per difference between two versions of the table
/// `file`.
fn diff_table(file: &str, old: &str, new: &str) -> Vec<String> {
    let old_lines: Vec<&str> = old.lines().collect();
    let new_lines: Vec<&str> = new.lines().collect();
    let header: Vec<&str> = old_lines
        .first()
        .map_or(Vec::new(), |h| h.split(',').collect());
    let mut out = Vec::new();
    for row in 0..old_lines.len().max(new_lines.len()) {
        let line = row + 1;
        match (old_lines.get(row), new_lines.get(row)) {
            (Some(o), Some(n)) if o != n => {
                let old_cells: Vec<&str> = o.split(',').collect();
                let new_cells: Vec<&str> = n.split(',').collect();
                for col in 0..old_cells.len().max(new_cells.len()) {
                    let (o, n) = (old_cells.get(col).copied(), new_cells.get(col).copied());
                    if o == n {
                        continue;
                    }
                    let name = header
                        .get(col)
                        .map_or_else(|| format!("column {}", col + 1), |h| h.to_string());
                    let mut report = format!(
                        "{file}:{line} {name}: {} -> {}",
                        o.unwrap_or("(missing)"),
                        n.unwrap_or("(missing)")
                    );
                    if let Some(change) = o.zip(n).and_then(|(o, n)| relative_change(o, n)) {
                        report.push_str(&format!(" ({change})"));
                    }
                    out.push(report);
                }
            }
            (Some(o), None) => out.push(format!("{file}:{line} only in old: {o}")),
            (None, Some(n)) => out.push(format!("{file}:{line} only in new: {n}")),
            _ => {}
        }
    }
    out
}

/// Prints every difference between the two directories and returns how
/// many there are.
fn run(old_dir: &Path, new_dir: &Path) -> Result<usize, String> {
    let old_names = csv_names(old_dir)?;
    let new_names = csv_names(new_dir)?;
    let read = |dir: &Path, name: &str| {
        let path = dir.join(name);
        std::fs::read_to_string(&path).map_err(|e| format!("cannot read {}: {e}", path.display()))
    };
    let names: BTreeSet<&String> = old_names.union(&new_names).collect();
    let mut differences = 0;
    let mut files_differing = 0;
    for name in &names {
        let report = match (old_names.contains(*name), new_names.contains(*name)) {
            (true, true) => diff_table(name, &read(old_dir, name)?, &read(new_dir, name)?),
            (true, false) => vec![format!("{name} only in {}", old_dir.display())],
            _ => vec![format!("{name} only in {}", new_dir.display())],
        };
        if !report.is_empty() {
            files_differing += 1;
        }
        differences += report.len();
        for line in report {
            println!("{line}");
        }
    }
    println!(
        "csv-diff: {differences} differences in {files_differing} of {} files",
        names.len()
    );
    Ok(differences)
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let [old_dir, new_dir] = args.as_slice() else {
        eprintln!("usage: csv-diff <old_dir> <new_dir>");
        return ExitCode::from(2);
    };
    match run(Path::new(old_dir), Path::new(new_dir)) {
        Ok(0) => ExitCode::SUCCESS,
        Ok(_) => ExitCode::FAILURE,
        Err(msg) => {
            eprintln!("csv-diff: {msg}");
            ExitCode::from(2)
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn names_each_differing_cell_by_line_and_header() {
        let old = "P,alpha,makespan\n2,1.5,100.0000\n4,2.0,8.0000\n";
        let new = "P,alpha,makespan\n2,1.5,100.0001\n4,2.0,8.0000\n";
        assert_eq!(
            diff_table("t.csv", old, new),
            ["t.csv:2 makespan: 100.0000 -> 100.0001 (+1.00e-6)"]
        );
        assert!(diff_table("t.csv", old, old).is_empty());
    }

    #[test]
    fn reports_rows_and_cells_on_one_side_only() {
        let old = "a,b\n1,x\n2,y\n";
        let new = "a,b,c\n1,z\n";
        assert_eq!(
            diff_table("t.csv", old, new),
            [
                "t.csv:1 column 3: (missing) -> c",
                "t.csv:2 b: x -> z",
                "t.csv:3 only in old: 2,y",
            ]
        );
    }

    #[test]
    fn counts_files_present_in_one_directory() {
        let dir = std::env::temp_dir().join(format!("csv-diff-test-{}", std::process::id()));
        let (old, new) = (dir.join("old"), dir.join("new"));
        std::fs::create_dir_all(&old).unwrap();
        std::fs::create_dir_all(&new).unwrap();
        for d in [&old, &new] {
            std::fs::write(d.join("same.csv"), "a\n1\n").unwrap();
        }
        assert_eq!(run(&old, &new), Ok(0));
        std::fs::write(old.join("gone.csv"), "a\n").unwrap();
        std::fs::write(new.join("same.csv"), "a\n0\n").unwrap();
        // One cell (relative change −100 %) and one missing file.
        assert_eq!(run(&old, &new), Ok(2));
        assert!(run(&dir.join("absent"), &new).is_err());
        let _ = std::fs::remove_dir_all(&dir);
    }
}
