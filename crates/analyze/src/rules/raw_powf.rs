//! `raw-powf`: raw transcendental calls outside the sanctioned modules.
//!
//! **Contract.** Every hot-path power in the workspace routes through
//! `core::fastmath` (`fast_powf`/`pow_slice`, two bit-identical
//! bodies) or through a `core::costmodel` law; a stray `f64::powf` in
//! an engine silently forks the arithmetic the `_reference` twins and
//! committed CSVs pin. This rule flags `.powf(`, `.exp(` and `.ln(`
//! method calls (and their `f64::powf(x, a)` path forms) in non-test
//! code, outside the configured allowlist and outside `*_reference`
//! oracle modules (which reproduce pre-optimization arithmetic
//! verbatim by design).

use super::{Context, Finding, Rule};
use crate::config::{allowed, allows_reference_modules, Config};
use crate::lexer::TokKind;
use crate::scan::FileScan;

/// See the module docs.
pub struct RawPowf;

const CALLS: [&str; 3] = ["powf", "exp", "ln"];

impl Rule for RawPowf {
    fn name(&self) -> &'static str {
        "raw-powf"
    }

    fn describe(&self) -> &'static str {
        "raw .powf()/.exp()/.ln() outside core::fastmath, core::costmodel and oracle modules"
    }

    fn check(&self, file: &FileScan, _ctx: &Context, cfg: &Config, out: &mut Vec<Finding>) {
        if allowed(&cfg.powf_allow, &file.module) || allows_reference_modules(&file.module) {
            return;
        }
        for (i, t) in file.toks.iter().enumerate() {
            if file.in_test[i] || t.kind != TokKind::Ident {
                continue;
            }
            if !CALLS.contains(&t.text.as_str()) {
                continue;
            }
            // A call: the next code token must open the argument list.
            let Some(next) = file.next_code(i) else {
                continue;
            };
            if !file.toks[next].is_punct('(') {
                continue;
            }
            // Method (`.powf(`) or path (`f64::powf(`) position.
            let Some(prev) = file.prev_code(i) else {
                continue;
            };
            let is_method = file.toks[prev].is_punct('.');
            let is_path = file.toks[prev].is_punct(':')
                && file
                    .prev_code(prev)
                    .is_some_and(|p2| file.toks[p2].is_punct(':'));
            if !(is_method || is_path) {
                continue;
            }
            out.push(Finding {
                file: file.path.clone(),
                line: t.line,
                rule: self.name(),
                message: format!(
                    "raw `{}` call — route through core::fastmath (fast_powf/pow_slice) or a \
                     core::costmodel law, or pragma with a bit-identity justification",
                    t.text
                ),
            });
        }
    }
}
