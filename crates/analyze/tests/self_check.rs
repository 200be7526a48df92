//! Live-workspace self-check: the repository this crate lives in must
//! be clean under the default configuration — the same invocation CI's
//! `analyze` job runs, so a violating change fails `cargo test` locally
//! before it ever reaches CI.

use dlt_analyze::workspace::{analyze_workspace, workspace_sources};
use dlt_analyze::Config;
use std::path::PathBuf;

fn repo_root() -> PathBuf {
    // crates/analyze → workspace root.
    PathBuf::from(env!("CARGO_MANIFEST_DIR"))
        .join("../..")
        .canonicalize()
        .expect("workspace root resolves")
}

#[test]
fn workspace_is_clean_under_the_default_config() {
    let findings = analyze_workspace(&repo_root(), &Config::workspace_default())
        .expect("workspace walk succeeds");
    assert!(
        findings.is_empty(),
        "determinism contract violations:\n{}",
        findings
            .iter()
            .map(|f| format!("  {f}"))
            .collect::<Vec<_>>()
            .join("\n")
    );
}

#[test]
fn workspace_walk_sees_every_crate() {
    // Guard against the walker silently skipping lint roots: every
    // workspace member must contribute at least one scanned file.
    let sources = workspace_sources(&repo_root()).expect("workspace walk succeeds");
    for krate in [
        "analyze",
        "bench",
        "core",
        "experiments",
        "linalg",
        "mapreduce",
        "multiload",
        "outer",
        "partition",
        "platform",
        "samplesort",
        "sim",
        "stats",
    ] {
        let prefix = format!("crates/{krate}/src/");
        assert!(
            sources.iter().any(|(p, _)| p.starts_with(&prefix)),
            "walker found no sources under {prefix}"
        );
    }
    assert!(
        sources.iter().any(|(p, _)| p.starts_with("src/")),
        "walker found no sources under the root facade"
    );
    // The gating test harvest must see the multiload engine suites.
    assert!(
        sources
            .iter()
            .any(|(p, _)| p == "crates/multiload/tests/properties.rs"),
        "walker missed the multiload properties gating suite"
    );
}

#[test]
fn the_live_engine_entry_points_fall_under_twin_coverage() {
    // Without the multiload gating suites, every engine entry point must
    // lose its coverage: proof that the naming contract binds the live
    // API (the bare `schedule` included), not just fixtures.
    let sources: Vec<_> = workspace_sources(&repo_root())
        .expect("workspace walk succeeds")
        .into_iter()
        .filter(|(p, _)| !p.starts_with("crates/multiload/tests/"))
        .collect();
    let findings = dlt_analyze::analyze_sources(&sources, &Config::workspace_default());
    let mut flagged: Vec<&str> = findings
        .iter()
        .filter(|f| f.rule == "twin-coverage")
        .filter_map(|f| f.message.split('`').nth(1))
        .collect();
    flagged.sort_unstable();
    assert_eq!(
        flagged,
        [
            "round_robin_schedule",
            "schedule",
            "serve_trace",
            "serve_trace_with_failures"
        ]
    );
}

#[test]
fn violations_fail_with_exit_style_findings() {
    // End-to-end sanity on the live tree + an injected bad file: the
    // in-memory API reports against the default config exactly as the
    // CLI would.
    let mut sources = workspace_sources(&repo_root()).expect("workspace walk succeeds");
    sources.push((
        "crates/sim/src/injected.rs".to_string(),
        "pub fn hot(x: f64, a: f64) -> f64 { x.powf(a) }\n".to_string(),
    ));
    let findings = dlt_analyze::analyze_sources(&sources, &Config::workspace_default());
    assert_eq!(findings.len(), 1, "{findings:?}");
    assert_eq!(findings[0].rule, "raw-powf");
    assert_eq!(findings[0].file, "crates/sim/src/injected.rs");
}
