//! The rule engine: a [`Rule`] trait, the [`Finding`] diagnostic type,
//! the cross-file [`Context`] and the registry of the five shipped
//! rules. Each rule encodes one of the workspace's determinism
//! contracts; `docs/analysis.md` carries the rule table and the
//! contract each rule pins.

use crate::config::Config;
use crate::scan::FileScan;
use std::collections::{BTreeMap, BTreeSet};

mod nondet_iter;
mod raw_powf;
mod twin_coverage;
mod unsafe_audit;
mod wall_clock;

pub use nondet_iter::NondetIteration;
pub use raw_powf::RawPowf;
pub use twin_coverage::TwinCoverage;
pub use unsafe_audit::UnsafeAudit;
pub use wall_clock::WallClock;

/// One diagnostic: `file:line: [rule] message`.
#[derive(Debug, Clone, PartialEq, Eq, PartialOrd, Ord)]
pub struct Finding {
    /// Workspace-relative path.
    pub file: String,
    /// 1-based line.
    pub line: u32,
    /// Rule name (stable identifier, also the pragma key).
    pub rule: &'static str,
    /// Human-readable explanation with the expected remedy.
    pub message: String,
}

impl std::fmt::Display for Finding {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "{}:{}: [{}] {}",
            self.file, self.line, self.rule, self.message
        )
    }
}

/// Cross-file knowledge the per-file rules draw on.
#[derive(Debug, Default)]
pub struct Context {
    /// Identifiers appearing as non-test code tokens anywhere in the
    /// linted sources — the `twin-coverage` resolution set.
    pub code_idents: BTreeSet<String>,
    /// Identifiers appearing in the harvested `tests/*` files (those
    /// whose names match the configured markers), per owning crate: an
    /// engine counts as covered only by its own crate's gating tests.
    pub test_idents: BTreeMap<String, BTreeSet<String>>,
}

/// A determinism-contract rule, checked file by file.
pub trait Rule {
    /// Stable rule name (diagnostic tag and pragma key).
    fn name(&self) -> &'static str;
    /// One-line description for `--list-rules`.
    fn describe(&self) -> &'static str;
    /// Appends findings for `file` to `out`.
    fn check(&self, file: &FileScan, ctx: &Context, cfg: &Config, out: &mut Vec<Finding>);
}

/// The shipped rule set, in reporting order.
pub fn registry() -> Vec<Box<dyn Rule>> {
    vec![
        Box::new(RawPowf),
        Box::new(NondetIteration),
        Box::new(WallClock),
        Box::new(TwinCoverage),
        Box::new(UnsafeAudit),
    ]
}

/// The rule names the pragma parser accepts (the registry plus the
/// reserved `pragma` tag unknown-rule findings are reported under).
pub fn rule_names() -> Vec<&'static str> {
    registry().iter().map(|r| r.name()).collect()
}
