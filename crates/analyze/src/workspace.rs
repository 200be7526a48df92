//! The analysis driver: source classification, context building, rule
//! execution and pragma application.
//!
//! Two entry points, one engine:
//!
//! * [`analyze_sources`] — pure, in-memory: takes `(path, source)`
//!   pairs and a [`Config`], returns sorted findings. This is what the
//!   fixture tests drive — no filesystem, fully deterministic.
//! * [`analyze_workspace`] — walks a repository root (`crates/` and
//!   `src/`), reads every `.rs` file and delegates to
//!   [`analyze_sources`]. This is what the CLI and the live self-check
//!   test run.
//!
//! Classification is path-based: a file with a `tests` path component
//! is a **test source** — never linted (tests are free to build raw
//! oracles), but harvested into its crate's twin-coverage `test_idents`
//! set when its filename contains one of the configured markers
//! (`properties`, `engines`). Everything else is a **lint source**.
//! Directories named `target`, `vendor`, `benches` or `examples` are
//! skipped entirely: build output, vendored third-party code and
//! benchmark drivers are outside the determinism contracts.

use crate::config::Config;
use crate::idents::code_identifier_set;
use crate::pragma::Pragmas;
use crate::rules::{registry, rule_names, Context, Finding};
use crate::scan::FileScan;
use std::path::{Path, PathBuf};

/// Directory names the walker never descends into.
const SKIP_DIRS: [&str; 4] = ["target", "vendor", "benches", "examples"];

/// True when `path` (workspace-relative, `/`-separated) has a `tests`
/// component — integration-test trees like `crates/multiload/tests/`.
fn is_test_path(path: &str) -> bool {
    path.split('/').any(|c| c == "tests")
}

/// The crate owning the test file at `path`: the component before
/// `tests` (`crates/multiload/tests/properties.rs` → `multiload`), or the
/// root facade for the workspace's own `tests/`.
fn test_crate_of(path: &str) -> &str {
    let parts: Vec<&str> = path.split('/').collect();
    match parts.iter().position(|&c| c == "tests") {
        Some(k) if k > 0 => parts[k - 1],
        _ => "nonlinear_dlt",
    }
}

/// True when the test file at `path` counts as gating coverage: its
/// file stem contains one of the configured markers.
fn is_gating_test_path(path: &str, cfg: &Config) -> bool {
    let stem = path
        .rsplit('/')
        .next()
        .unwrap_or(path)
        .trim_end_matches(".rs");
    cfg.twin_test_markers.iter().any(|m| stem.contains(m))
}

/// Runs the full rule set over in-memory sources. `sources` is
/// `(workspace-relative path, file contents)`; classification and
/// pragma handling follow the module docs. Findings come back sorted
/// by `(file, line, rule)`.
pub fn analyze_sources(sources: &[(String, String)], cfg: &Config) -> Vec<Finding> {
    let mut scans: Vec<FileScan> = Vec::new();
    let mut ctx = Context::default();
    for (path, src) in sources {
        if is_test_path(path) {
            if is_gating_test_path(path, cfg) {
                let idents = ctx
                    .test_idents
                    .entry(test_crate_of(path).to_string())
                    .or_default();
                crate::idents::collect_identifiers(src, idents);
            }
            continue;
        }
        let scan = FileScan::new(path, src);
        code_identifier_set(&scan, false, &mut ctx.code_idents);
        scans.push(scan);
    }

    let rules = registry();
    let known = rule_names();
    let mut findings: Vec<Finding> = Vec::new();
    for scan in &scans {
        let mut raw: Vec<Finding> = Vec::new();
        for rule in &rules {
            rule.check(scan, &ctx, cfg, &mut raw);
        }
        let pragmas = Pragmas::parse(scan);
        raw.retain(|f| !pragmas.allows(f.rule, f.line));
        findings.extend(raw);
        for (line, rule) in pragmas.unknown_rules(&known) {
            findings.push(Finding {
                file: scan.path.clone(),
                line,
                rule: "pragma",
                message: format!(
                    "pragma names unknown rule `{rule}` — it suppresses nothing; \
                     known rules: {}",
                    known.join(", ")
                ),
            });
        }
    }
    findings.sort();
    // Two identical calls on one line (e.g. `a.ln() / b.ln()`) produce
    // identical findings; one diagnostic per site is enough.
    findings.dedup();
    findings
}

/// Collects every `.rs` file under `root`'s lint roots (`crates/` and
/// `src/`), returning `(workspace-relative path, contents)` pairs.
/// Ordering is sorted, so the whole pipeline is reproducible.
pub fn workspace_sources(root: &Path) -> std::io::Result<Vec<(String, String)>> {
    let mut files: Vec<PathBuf> = Vec::new();
    let mut stack: Vec<PathBuf> = Vec::new();
    for top in ["crates", "src"] {
        let dir = root.join(top);
        if dir.is_dir() {
            stack.push(dir);
        }
    }
    while let Some(dir) = stack.pop() {
        for entry in std::fs::read_dir(&dir)? {
            let path = entry?.path();
            if path.is_dir() {
                let name = path.file_name().and_then(|n| n.to_str()).unwrap_or("");
                if !SKIP_DIRS.contains(&name) {
                    stack.push(path);
                }
            } else if path.extension().is_some_and(|e| e == "rs") {
                files.push(path);
            }
        }
    }
    files.sort();
    let mut sources = Vec::with_capacity(files.len());
    for path in files {
        let rel = path
            .strip_prefix(root)
            .unwrap_or(&path)
            .components()
            .map(|c| c.as_os_str().to_string_lossy())
            .collect::<Vec<_>>()
            .join("/");
        sources.push((rel, std::fs::read_to_string(&path)?));
    }
    Ok(sources)
}

/// Walks `root` and runs [`analyze_sources`] under `cfg`.
pub fn analyze_workspace(root: &Path, cfg: &Config) -> std::io::Result<Vec<Finding>> {
    Ok(analyze_sources(&workspace_sources(root)?, cfg))
}

#[cfg(test)]
mod tests {
    use super::*;

    fn src(pairs: &[(&str, &str)]) -> Vec<(String, String)> {
        pairs
            .iter()
            .map(|(p, s)| (p.to_string(), s.to_string()))
            .collect()
    }

    #[test]
    fn test_paths_are_classified_not_linted() {
        // A raw powf inside a tests/ file must not produce a finding.
        let findings = analyze_sources(
            &src(&[(
                "crates/x/tests/oracle_properties.rs",
                "fn oracle(x: f64, a: f64) -> f64 { x.powf(a) }",
            )]),
            &Config::empty(),
        );
        assert!(findings.is_empty(), "{findings:?}");
    }

    #[test]
    fn gating_markers_gate_test_harvest() {
        assert!(is_gating_test_path(
            "crates/multiload/tests/batch_engines.rs",
            &Config::empty()
        ));
        assert!(is_gating_test_path(
            "crates/core/tests/batch_properties.rs",
            &Config::empty()
        ));
        assert!(!is_gating_test_path(
            "crates/multiload/tests/smoke.rs",
            &Config::empty()
        ));
    }

    #[test]
    fn unknown_pragma_rules_become_findings() {
        let findings = analyze_sources(
            &src(&[(
                "crates/x/src/lib.rs",
                "// dlt-analyze: allow(not-a-rule) — typo\nfn f() {}\n",
            )]),
            &Config::empty(),
        );
        assert_eq!(findings.len(), 1);
        assert_eq!(findings[0].rule, "pragma");
        assert_eq!(findings[0].line, 1);
    }

    #[test]
    fn pragmas_suppress_matching_findings() {
        let body = "pub fn f(x: f64, a: f64) -> f64 {\n    \
                    x.powf(a) // dlt-analyze: allow(raw-powf) — test fixture\n}\n";
        let clean = analyze_sources(&src(&[("crates/x/src/lib.rs", body)]), &Config::empty());
        assert!(clean.is_empty(), "{clean:?}");
        let hot = analyze_sources(
            &src(&[(
                "crates/x/src/lib.rs",
                "pub fn f(x: f64, a: f64) -> f64 { x.powf(a) }\n",
            )]),
            &Config::empty(),
        );
        assert_eq!(hot.len(), 1);
        assert_eq!(hot[0].rule, "raw-powf");
    }

    #[test]
    fn findings_come_back_sorted() {
        let findings = analyze_sources(
            &src(&[
                (
                    "crates/z/src/lib.rs",
                    "pub fn g(x: f64) -> f64 { x.exp() }\n",
                ),
                (
                    "crates/a/src/lib.rs",
                    "pub fn f(x: f64) -> f64 { x.ln() }\n",
                ),
            ]),
            &Config::empty(),
        );
        assert_eq!(findings.len(), 2);
        assert!(findings[0].file < findings[1].file);
    }
}
