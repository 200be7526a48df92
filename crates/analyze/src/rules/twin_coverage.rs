//! `twin-coverage`: every fast engine has a gating twin and a test
//! naming it.
//!
//! **Contract.** Since PR 2 the performance discipline has been: a fast
//! kernel ships only next to an executable specification — a
//! `_reference` twin it is property-tested bit-identical (or
//! oracle-bounded) against. This rule pins that state at the source
//! level for the scheduling engines: every free `pub fn` in the
//! configured crates whose name matches the fast-engine naming
//! contract (has `schedule` as one of its `_`-separated words — the bare
//! `schedule` included — or starts with `serve_trace`) must
//!
//! 1. **resolve a twin** — `{name}_reference` exists as a code
//!    identifier; and
//! 2. **be named in a gating test** — the identifier appears in at
//!    least one harvested `tests/*properties*.rs`/`tests/*engines*.rs`
//!    file **of the same crate** (a `schedule` local in another crate's
//!    suite is no coverage).
//!
//! `*_reference*` functions are the twins themselves and are skipped;
//! methods are skipped (the naming contract binds free engine entry
//! points, not conversions like `to_schedule`).

use super::{Context, Finding, Rule};
use crate::config::Config;
use crate::lexer::TokKind;
use crate::scan::FileScan;

/// See the module docs.
pub struct TwinCoverage;

/// True when `name` falls under the fast-engine naming contract.
fn matches_contract(name: &str) -> bool {
    name.split('_').any(|word| word == "schedule") || name.starts_with("serve_trace")
}

impl Rule for TwinCoverage {
    fn name(&self) -> &'static str {
        "twin-coverage"
    }

    fn describe(&self) -> &'static str {
        "every fast-engine pub fn has a resolvable _reference twin and a gating test naming it"
    }

    fn check(&self, file: &FileScan, ctx: &Context, cfg: &Config, out: &mut Vec<Finding>) {
        let krate = file.module.split("::").next().unwrap_or("");
        if !cfg.twin_crates.contains(&krate) {
            return;
        }
        for (i, t) in file.toks.iter().enumerate() {
            if !t.is_ident("fn") || file.in_test[i] || file.in_impl[i] {
                continue;
            }
            // Free `pub fn` only: previous code token `pub`, or the `)`
            // of a `pub(crate)`-style visibility group.
            let Some(prev) = file.prev_code(i) else {
                continue;
            };
            let is_pub = file.toks[prev].is_ident("pub")
                || (file.toks[prev].is_punct(')') && {
                    let mut j = prev;
                    let mut depth = 0usize;
                    let mut found = false;
                    while let Some(p) = file.prev_code(j) {
                        if file.toks[p].is_punct(')') {
                            depth += 1;
                        } else if file.toks[p].is_punct('(') {
                            if depth == 0 {
                                found = file
                                    .prev_code(p)
                                    .is_some_and(|q| file.toks[q].is_ident("pub"));
                                break;
                            }
                            depth -= 1;
                        }
                        j = p;
                    }
                    found
                });
            if !is_pub {
                continue;
            }
            let Some(name_idx) = file.next_code(i) else {
                continue;
            };
            let name_tok = &file.toks[name_idx];
            if name_tok.kind != TokKind::Ident {
                continue;
            }
            let name = name_tok.text.as_str();
            if !matches_contract(name) || name.contains("reference") {
                continue;
            }
            let twin = format!("{name}_reference");
            if !ctx.code_idents.contains(&twin) {
                out.push(Finding {
                    file: file.path.clone(),
                    line: name_tok.line,
                    rule: self.name(),
                    message: format!(
                        "fast engine `{name}` has no resolvable twin (looked for `{twin}`) — \
                         add the reference twin or pragma with the gating argument"
                    ),
                });
            }
            if !ctx
                .test_idents
                .get(krate)
                .is_some_and(|idents| idents.contains(name))
            {
                out.push(Finding {
                    file: file.path.clone(),
                    line: name_tok.line,
                    rule: self.name(),
                    message: format!(
                        "fast engine `{name}` is not named in any gating test file of its \
                         crate (tests/*{{properties,engines}}*.rs) — add differential coverage"
                    ),
                });
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn contract_matching() {
        assert!(matches_contract("schedule"));
        assert!(matches_contract("round_robin_schedule"));
        assert!(matches_contract("schedule_batch"));
        assert!(matches_contract("serve_trace_with_failures"));
        assert!(!matches_contract("alone_makespans"));
        assert!(!matches_contract("replay_ledger"));
        assert!(!matches_contract("scheduler_name"));
    }
}
