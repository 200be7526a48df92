//! Fixture suite for the rule engine: one positive (violating) and one
//! negative (clean) snippet per rule, plus the suppression and scoping
//! edge cases each rule's soundness depends on — pragmas, allowlists,
//! test regions, strings and comments.
//!
//! Everything runs through the same in-memory [`analyze_sources`] entry
//! point the CLI uses, under reduced configs built from
//! [`Config::empty`], so a fixture exercises exactly one decision.

use dlt_analyze::workspace::analyze_sources;
use dlt_analyze::Config;

fn findings_for(path: &str, src: &str, cfg: Config) -> Vec<(String, u32)> {
    analyze_sources(&[(path.to_string(), src.to_string())], &cfg)
        .into_iter()
        .map(|f| (f.rule.to_string(), f.line))
        .collect()
}

fn lint(src: &str, cfg: Config) -> Vec<(String, u32)> {
    findings_for("crates/x/src/lib.rs", src, cfg)
}

// ------------------------------------------------------------------ raw-powf

#[test]
fn raw_powf_flags_method_and_path_calls() {
    assert_eq!(
        lint(
            "pub fn f(x: f64, a: f64) -> f64 { x.powf(a) }",
            Config::empty()
        ),
        vec![("raw-powf".to_string(), 1)]
    );
    assert_eq!(
        lint(
            "pub fn f(x: f64, a: f64) -> f64 { f64::powf(x, a) }",
            Config::empty()
        ),
        vec![("raw-powf".to_string(), 1)]
    );
    assert_eq!(
        lint(
            "pub fn f(x: f64) -> f64 { x.exp() + x.ln() }",
            Config::empty()
        ),
        vec![("raw-powf".to_string(), 1), ("raw-powf".to_string(), 1)]
    );
}

#[test]
fn raw_powf_ignores_non_call_mentions() {
    // A field or variable named `exp`, strings, comments: not calls.
    assert!(lint("pub struct S { pub exp: f64 }", Config::empty()).is_empty());
    assert!(lint("// x.powf(a) in prose\nfn f() {}", Config::empty()).is_empty());
    assert!(lint("fn f() -> &'static str { \"x.powf(a)\" }", Config::empty()).is_empty());
    // `powf` as a free fn of ours, not a method/path call.
    assert!(lint(
        "fn powf(x: f64) -> f64 { x }\nfn g(x: f64) -> f64 { powf(x) }",
        Config::empty()
    )
    .is_empty());
}

#[test]
fn raw_powf_respects_test_regions_allowlists_and_reference_modules() {
    let test_src = "#[cfg(test)]\nmod tests {\n  fn oracle(x: f64) -> f64 { x.exp() }\n}";
    assert!(lint(test_src, Config::empty()).is_empty());
    let hot = "pub fn f(x: f64, a: f64) -> f64 { x.powf(a) }";
    assert!(findings_for(
        "crates/core/src/fastmath.rs",
        hot,
        Config::empty().allow_powf("core::fastmath")
    )
    .is_empty());
    // An oracle module gets the allowance by naming convention alone.
    assert!(findings_for("crates/x/src/demand_reference.rs", hot, Config::empty()).is_empty());
    assert!(!findings_for("crates/x/src/demand.rs", hot, Config::empty()).is_empty());
}

// ------------------------------------- nondeterministic-iteration

#[test]
fn nondet_iteration_flags_hash_collections_in_scoped_crates() {
    let src =
        "use std::collections::HashMap;\npub fn f() { let m: HashMap<u32, u32> = HashMap::new(); }";
    let got = lint(src, Config::empty().nondet_crate("x"));
    // One finding per line: the use and the declaration.
    assert_eq!(
        got,
        vec![
            ("nondeterministic-iteration".to_string(), 1),
            ("nondeterministic-iteration".to_string(), 2)
        ]
    );
}

#[test]
fn nondet_iteration_ignores_btree_out_of_scope_crates_and_tests() {
    let btree = "use std::collections::BTreeMap;\npub fn f() { let _m: BTreeMap<u32, u32> = BTreeMap::new(); }";
    assert!(lint(btree, Config::empty().nondet_crate("x")).is_empty());
    let hash = "use std::collections::HashMap;\n";
    assert!(lint(hash, Config::empty()).is_empty(), "crate not in scope");
    assert!(lint(hash, Config::empty().nondet_crate("y")).is_empty());
    let test_only = "#[cfg(test)]\nmod tests {\n  use std::collections::HashMap;\n}";
    assert!(lint(test_only, Config::empty().nondet_crate("x")).is_empty());
}

// ------------------------------------------- wall-clock-in-kernel

#[test]
fn wall_clock_flags_instant_now_and_system_time() {
    let src = "use std::time::Instant;\npub fn f() -> Instant { Instant::now() }";
    // The import and return type are not reads; only `Instant::now()` is.
    assert_eq!(
        lint(src, Config::empty()),
        vec![("wall-clock-in-kernel".to_string(), 2)]
    );
    assert_eq!(
        lint(
            "pub fn f() { let _ = std::time::SystemTime::now(); }",
            Config::empty()
        ),
        vec![("wall-clock-in-kernel".to_string(), 1)]
    );
}

#[test]
fn wall_clock_respects_allowlist_and_tests() {
    let src = "use std::time::Instant;\npub fn f() { let _t = Instant::now(); }";
    assert!(findings_for(
        "crates/experiments/src/runner.rs",
        src,
        Config::empty().allow_wall_clock("experiments::runner")
    )
    .is_empty());
    let test_only =
        "#[cfg(test)]\nmod tests {\n  use std::time::Instant;\n  fn t() { Instant::now(); }\n}";
    assert!(lint(test_only, Config::empty()).is_empty());
}

// ------------------------------------------------- twin-coverage

/// A fast engine with its twin defined and a gating test naming it.
const COVERED: &[(&str, &str)] = &[
    (
        "crates/x/src/fast.rs",
        "pub fn demand_schedule(n: usize) -> usize { n }\n\
         pub fn demand_schedule_reference(n: usize) -> usize { n }\n",
    ),
    (
        "crates/x/tests/engine_properties.rs",
        "#[test]\nfn gate() { assert_eq!(demand_schedule(3), demand_schedule_reference(3)); }\n",
    ),
];

fn twin_findings(sources: &[(&str, &str)]) -> Vec<(String, u32)> {
    let owned: Vec<(String, String)> = sources
        .iter()
        .map(|(p, s)| (p.to_string(), s.to_string()))
        .collect();
    analyze_sources(&owned, &Config::empty().twin_crate("x"))
        .into_iter()
        .map(|f| (f.rule.to_string(), f.line))
        .collect()
}

#[test]
fn twin_coverage_passes_covered_engines() {
    assert!(twin_findings(COVERED).is_empty());
}

#[test]
fn twin_coverage_flags_missing_twin_and_missing_test() {
    // No twin, no test: two findings on the engine.
    let got = twin_findings(&[(
        "crates/x/src/fast.rs",
        "pub fn demand_schedule(n: usize) -> usize { n }\n",
    )]);
    assert_eq!(got.len(), 2, "{got:?}");
    assert!(got.iter().all(|(r, l)| r == "twin-coverage" && *l == 1));
    // Twin present but the test file name lacks a gating marker.
    let got = twin_findings(&[
        (COVERED[0].0, COVERED[0].1),
        ("crates/x/tests/smoke.rs", COVERED[1].1),
    ]);
    assert_eq!(got.len(), 1, "{got:?}");
    // A twin mentioned only in a comment must not resolve.
    let got = twin_findings(&[
        (
            "crates/x/src/fast.rs",
            "// see demand_schedule_reference\npub fn demand_schedule(n: usize) -> usize { n }\n",
        ),
        ("crates/x/tests/engine_properties.rs", COVERED[1].1),
    ]);
    assert_eq!(got.len(), 1, "{got:?}");
}

#[test]
fn twin_coverage_binds_the_bare_schedule_name() {
    // `schedule` itself is an engine name: no twin, no test, two findings.
    let bare = "pub fn schedule(n: usize) -> usize { n }\n";
    let got = twin_findings(&[("crates/x/src/fast.rs", bare)]);
    assert_eq!(got.len(), 2, "{got:?}");
    // Its `_reference` twin plus a gating test cover it.
    let got = twin_findings(&[
        (
            "crates/x/src/fast.rs",
            "pub fn schedule(n: usize) -> usize { n }\n\
             pub fn schedule_reference(n: usize) -> usize { n }\n",
        ),
        (
            "crates/x/tests/engine_properties.rs",
            "#[test]\nfn gate() { assert_eq!(schedule(3), schedule_reference(3)); }\n",
        ),
    ]);
    assert!(got.is_empty(), "{got:?}");
    // Another crate's suite naming a `schedule` local is no coverage.
    let got = twin_findings(&[
        (
            "crates/x/src/fast.rs",
            "pub fn schedule(n: usize) -> usize { n }\n\
             pub fn schedule_reference(n: usize) -> usize { n }\n",
        ),
        (
            "crates/y/tests/engine_properties.rs",
            "#[test]\nfn gate() { let schedule = 3; assert_eq!(schedule, 3); }\n",
        ),
    ]);
    assert_eq!(got.len(), 1, "{got:?}");
}

#[test]
fn twin_coverage_skips_methods_references_and_out_of_scope_crates() {
    // A method named after `schedule` is a conversion, not an engine.
    let method = "pub struct S;\nimpl S {\n  pub fn to_schedule(&self) -> usize { 0 }\n}\n";
    assert!(twin_findings(&[("crates/x/src/m.rs", method)]).is_empty());
    // Reference twins themselves are never checked.
    let twin_only = "pub fn demand_schedule_reference(n: usize) -> usize { n }\n";
    assert!(twin_findings(&[("crates/x/src/r.rs", twin_only)]).is_empty());
    // Same engine in a crate outside the scope: silent.
    let engine = "pub fn demand_schedule(n: usize) -> usize { n }\n";
    let got = analyze_sources(
        &[("crates/y/src/fast.rs".to_string(), engine.to_string())],
        &Config::empty().twin_crate("x"),
    );
    assert!(got.is_empty(), "{got:?}");
}

// -------------------------------------------------- unsafe-audit

#[test]
fn unsafe_audit_flags_unsanctioned_modules() {
    let src = "pub fn f(p: *const u8) -> u8 { unsafe { *p } }";
    let got = lint(src, Config::empty());
    assert_eq!(got, vec![("unsafe-audit".to_string(), 1)]);
}

#[test]
fn unsafe_audit_requires_safety_comments_in_sanctioned_modules() {
    let cfg = || Config::empty().allow_unsafe("x");
    let bare = "pub fn f(p: *const u8) -> u8 { unsafe { *p } }";
    assert_eq!(lint(bare, cfg()), vec![("unsafe-audit".to_string(), 1)]);
    let documented =
        "// SAFETY: caller guarantees p is valid.\npub fn f(p: *const u8) -> u8 { unsafe { *p } }";
    assert!(lint(documented, cfg()).is_empty());
    let doc_section = "/// # Safety\n///\n/// `p` must be valid.\npub unsafe fn f(p: *const u8) -> u8 { unsafe { *p } }";
    assert!(lint(doc_section, cfg()).is_empty());
    // A SAFETY comment further above than the window does not count.
    let far = format!("// SAFETY: stale.\n{}{bare}", "\n".repeat(20));
    assert_eq!(lint(&far, cfg()), vec![("unsafe-audit".to_string(), 22)]);
}

#[test]
fn unsafe_audit_skips_test_regions() {
    let src = "#[cfg(test)]\nmod tests {\n  fn f(p: *const u8) -> u8 { unsafe { *p } }\n}";
    assert!(lint(src, Config::empty()).is_empty());
}

// ----------------------------------------------------- pragmas

#[test]
fn pragma_suppresses_only_the_named_rule() {
    let src = "pub fn f(x: f64, a: f64) -> f64 {\n    \
               // dlt-analyze: allow(raw-powf) — fixture\n    x.powf(a)\n}";
    assert!(lint(src, Config::empty()).is_empty());
    let wrong_rule = "pub fn f(x: f64, a: f64) -> f64 {\n    \
                      // dlt-analyze: allow(unsafe-audit) — wrong rule\n    x.powf(a)\n}";
    assert_eq!(
        lint(wrong_rule, Config::empty()),
        vec![("raw-powf".to_string(), 3)]
    );
}

#[test]
fn pragma_does_not_leak_past_the_next_line() {
    let src = "// dlt-analyze: allow(raw-powf) — first call only\n\
               pub fn f(x: f64, a: f64) -> f64 { x.powf(a) }\n\
               pub fn g(x: f64, a: f64) -> f64 { x.powf(a) }\n";
    assert_eq!(
        lint(src, Config::empty()),
        vec![("raw-powf".to_string(), 3)]
    );
}
