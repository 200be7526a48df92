//! Cell-level diff of two directories of CSV tables: names every cell
//! that differs, so a result that stops reproducing points at its file,
//! line and column instead of a whole file.
//!
//! ```text
//! csv-diff <old_dir> <new_dir>
//! ```
//!
//! Compares every `*.csv` file of the two directories (not recursive).
//! Columns are paired by their header name, rows by line number. For
//! each file present on both sides it prints one line per column present
//! on one side only, and one line per differing cell of a shared column:
//!
//! ```text
//! multiload_competitive_uniform.csv:1 column flow_ratio_min only in new
//! sec_amdahl.csv:21 makespan_hom: 4294970368.0000 -> 4294970367.9999 (-2.33e-14)
//! ```
//!
//! with the 1-based line number, the column's header, both values and,
//! when both parse as numbers, the relative change `(new − old)/|old|`.
//! Shared columns that change order, a line present on one side only, a
//! row that differs outside its named columns, and a file present in one
//! directory only are reported too. Cells are split on `,` with no
//! quoting, which is how `dlt_stats::Table` writes them; line endings are
//! not compared (the `git diff` after it in CI is the byte-level check).
//! Exits 0 when nothing differs, 1 on any difference, 2 when a directory
//! or file cannot be read.

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

/// The columns of a header line, keyed by name and by how often that
/// name occurred before, so repeated names pair in order.
fn column_keys(header: &str) -> Vec<(&str, usize)> {
    let names: Vec<&str> = header.split(',').collect();
    names
        .iter()
        .enumerate()
        .map(|(i, &name)| (name, names[..i].iter().filter(|&&n| n == name).count()))
        .collect()
}

/// One report line per difference between two versions of the table
/// `file`.
fn diff_table(file: &str, old: &str, new: &str) -> Vec<String> {
    let old_lines: Vec<&str> = old.lines().collect();
    let new_lines: Vec<&str> = new.lines().collect();
    let old_cols = old_lines.first().map_or(Vec::new(), |h| column_keys(h));
    let new_cols = new_lines.first().map_or(Vec::new(), |h| column_keys(h));
    let mut out = Vec::new();
    for (side, cols, other) in [("old", &old_cols, &new_cols), ("new", &new_cols, &old_cols)] {
        for (name, _) in cols.iter().filter(|key| !other.contains(key)) {
            out.push(format!("{file}:1 column {name} only in {side}"));
        }
    }
    // Shared columns as (name, old index, new index), in old order.
    let shared: Vec<(&str, usize, usize)> = old_cols
        .iter()
        .enumerate()
        .filter_map(|(o, key)| Some((key.0, o, new_cols.iter().position(|k| k == key)?)))
        .collect();
    if shared.windows(2).any(|w| w[0].2 > w[1].2) {
        out.push(format!("{file}:1 shared columns change order"));
    }
    let same_header = old_lines.first() == new_lines.first();
    for row in 1..old_lines.len().max(new_lines.len()) {
        let line = row + 1;
        match (old_lines.get(row), new_lines.get(row)) {
            (Some(o), Some(n)) => {
                let old_cells: Vec<&str> = o.split(',').collect();
                let new_cells: Vec<&str> = n.split(',').collect();
                let before = out.len();
                for &(name, oi, ni) in &shared {
                    let (o, n) = (old_cells.get(oi).copied(), new_cells.get(ni).copied());
                    if o == n {
                        continue;
                    }
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
                // Cells past the header's columns: the only way two rows
                // under one header can differ with every named cell equal.
                if same_header && o != n && out.len() == before {
                    out.push(format!(
                        "{file}:{line} outside the named columns: {o} -> {n}"
                    ));
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
                "t.csv:1 column c only in new",
                "t.csv:2 b: x -> z",
                "t.csv:3 only in old: 2,y",
            ]
        );
    }

    #[test]
    fn a_column_inserted_mid_table_is_one_line() {
        let old = "a,b,c\n1,2,3\n4,5,6\n";
        let new = "a,x,b,c\n1,9,2,3\n4,8,5,6\n";
        assert_eq!(
            diff_table("t.csv", old, new),
            ["t.csv:1 column x only in new"]
        );
        // Removed and added columns, each once; a shared cell that moved
        // is still named under its own header.
        let new = "a,c,y\n1,3,0\n4,7,0\n";
        assert_eq!(
            diff_table("t.csv", old, new),
            [
                "t.csv:1 column b only in old",
                "t.csv:1 column y only in new",
                "t.csv:3 c: 6 -> 7 (+1.67e-1)",
            ]
        );
    }

    #[test]
    fn reordered_columns_and_unnamed_cells_still_differ() {
        let old = "a,b\n1,2\n";
        assert_eq!(
            diff_table("t.csv", old, "b,a\n2,1\n"),
            ["t.csv:1 shared columns change order"]
        );
        assert_eq!(
            diff_table("t.csv", old, "a,b\n1,2,3\n"),
            ["t.csv:2 outside the named columns: 1,2 -> 1,2,3"]
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
