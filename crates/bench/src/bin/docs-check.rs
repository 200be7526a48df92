//! CI docs reference checker: fails (exit 1) when a markdown file
//! references a Rust symbol that no longer exists in the workspace
//! sources.
//!
//! ```text
//! docs-check <file.md | dir>... [--src <dir>]...
//! ```
//!
//! The contract is deliberately grep-simple, mirroring `bench-guard`:
//!
//! * a *symbol reference* is an inline markdown code span (single
//!   backticks, outside fenced ``` blocks) containing `::` — e.g.
//!   `` `nonlinear::equal_finish_parallel` `` or
//!   `` `SolverConfig::max_inner` ``;
//! * the reference *resolves* when its final path segment (with any
//!   trailing `()`/`!` and generic `<...>` suffix stripped) occurs as an
//!   identifier anywhere in the `.rs` sources under the `--src` roots
//!   (default: `crates` and `src`, relative to the working directory).
//!
//! The identifier set is every identifier-shaped word of the sources,
//! comments and strings included, so docs may cite a symbol that only a
//! doc comment mentions. Matching identifiers instead of declarations
//! keeps the checker free of parsing
//! while still catching the failure mode that matters: a symbol renamed
//! or deleted in the sources disappears from the identifier set, and
//! every doc span still pointing at it turns into a CI failure.
//! Directories passed as inputs are scanned recursively for `.md` files.

use std::collections::BTreeSet;
use std::path::{Path, PathBuf};
use std::process::ExitCode;

/// Extracts the inline code spans of a markdown document: single-backtick
/// runs on lines outside fenced ``` blocks.
fn inline_code_spans(markdown: &str) -> Vec<String> {
    let mut spans = Vec::new();
    let mut in_fence = false;
    for line in markdown.lines() {
        if line.trim_start().starts_with("```") {
            in_fence = !in_fence;
            continue;
        }
        if in_fence {
            continue;
        }
        let mut rest = line;
        while let Some(open) = rest.find('`') {
            let after = &rest[open + 1..];
            let Some(close) = after.find('`') else { break };
            if close > 0 {
                spans.push(after[..close].to_string());
            }
            rest = &after[close + 1..];
        }
    }
    spans
}

/// The checkable identifier of a span, when the span is a symbol
/// reference: spans without `::` are prose, not references; the final
/// segment is stripped of call/macro/generic decoration and must look
/// like an identifier.
fn referenced_identifier(span: &str) -> Option<String> {
    if !span.contains("::") {
        return None;
    }
    let last = span.rsplit("::").next()?;
    let last = last
        .trim_end_matches("()")
        .trim_end_matches('!')
        .split('<')
        .next()?
        .trim();
    if last.is_empty()
        || last.starts_with(|c: char| c.is_ascii_digit())
        || !last.chars().all(|c| c.is_ascii_alphanumeric() || c == '_')
    {
        return None;
    }
    Some(last.to_string())
}

/// Recursively lists the files with extension `ext` named by `input` (a
/// file or a directory tree).
fn files_under(input: &Path, ext: &str) -> std::io::Result<Vec<PathBuf>> {
    if input.is_file() {
        return Ok(vec![input.to_path_buf()]);
    }
    let mut files = Vec::new();
    let mut stack = vec![input.to_path_buf()];
    while let Some(dir) = stack.pop() {
        for entry in std::fs::read_dir(&dir)? {
            let path = entry?.path();
            if path.is_dir() {
                stack.push(path);
            } else if path.extension().is_some_and(|e| e == ext) {
                files.push(path);
            }
        }
    }
    files.sort();
    Ok(files)
}

/// Every `[A-Za-z_][A-Za-z0-9_]*` word of the `.rs` files under `roots`,
/// comments and string literals included.
fn identifier_set(roots: &[PathBuf]) -> std::io::Result<BTreeSet<String>> {
    let mut idents = BTreeSet::new();
    for root in roots {
        for path in files_under(root, "rs")? {
            let text = std::fs::read_to_string(&path)?;
            idents.extend(
                text.split(|c: char| !c.is_ascii_alphanumeric() && c != '_')
                    .filter(|word| word.starts_with(|c: char| c.is_ascii_alphabetic() || c == '_'))
                    .map(str::to_string),
            );
        }
    }
    Ok(idents)
}

fn run(inputs: &[PathBuf], src_roots: &[PathBuf]) -> Result<(), String> {
    let idents =
        identifier_set(src_roots).map_err(|e| format!("cannot scan sources {src_roots:?}: {e}"))?;
    if idents.is_empty() {
        return Err(format!("no identifiers found under {src_roots:?}"));
    }
    let mut failures = Vec::new();
    let mut checked = 0usize;
    for input in inputs {
        let files = files_under(input, "md")
            .map_err(|e| format!("cannot read {}: {e}", input.display()))?;
        for file in files {
            let text = std::fs::read_to_string(&file)
                .map_err(|e| format!("cannot read {}: {e}", file.display()))?;
            for span in inline_code_spans(&text) {
                let Some(ident) = referenced_identifier(&span) else {
                    continue;
                };
                checked += 1;
                if !idents.contains(&ident) {
                    failures.push(format!(
                        "{}: `{span}` — `{ident}` not found in sources",
                        file.display()
                    ));
                }
            }
        }
    }
    println!(
        "docs-check: {checked} symbol references checked, {} stale",
        failures.len()
    );
    if failures.is_empty() {
        Ok(())
    } else {
        Err(failures.join("\n"))
    }
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let mut inputs = Vec::new();
    let mut src_roots = Vec::new();
    let mut it = args.iter();
    while let Some(arg) = it.next() {
        if arg == "--src" {
            match it.next() {
                Some(dir) => src_roots.push(PathBuf::from(dir)),
                None => {
                    eprintln!("docs-check: --src needs a directory");
                    return ExitCode::FAILURE;
                }
            }
        } else {
            inputs.push(PathBuf::from(arg));
        }
    }
    if inputs.is_empty() {
        eprintln!("usage: docs-check <file.md | dir>... [--src <dir>]...");
        return ExitCode::FAILURE;
    }
    if src_roots.is_empty() {
        src_roots = vec![PathBuf::from("crates"), PathBuf::from("src")];
    }
    match run(&inputs, &src_roots) {
        Ok(()) => ExitCode::SUCCESS,
        Err(msg) => {
            eprintln!("docs-check: FAIL\n{msg}");
            ExitCode::FAILURE
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn spans_skip_fenced_blocks() {
        let md = "a `one::two` b\n```rust\nlet x = `not::this`;\n```\nc `three::four()` d\n";
        let spans = inline_code_spans(md);
        assert_eq!(
            spans,
            vec!["one::two".to_string(), "three::four()".to_string()]
        );
    }

    #[test]
    fn prose_spans_are_not_references() {
        assert_eq!(referenced_identifier("plain words"), None);
        assert_eq!(referenced_identifier("cargo test"), None);
        assert_eq!(referenced_identifier("x^2"), None);
    }

    #[test]
    fn decorated_references_resolve_to_the_identifier() {
        assert_eq!(
            referenced_identifier("nonlinear::equal_finish_parallel"),
            Some("equal_finish_parallel".into())
        );
        assert_eq!(referenced_identifier("a::b::c()"), Some("c".into()));
        assert_eq!(referenced_identifier("vec::vec!"), Some("vec".into()));
        assert_eq!(referenced_identifier("x::Foo<T>"), Some("Foo".into()));
        assert_eq!(referenced_identifier("x::"), None);
    }

    #[test]
    fn identifier_set_keeps_full_fidelity() {
        // The resolution contract: identifiers mentioned only in
        // comments or strings still resolve (docs may cite them), and
        // digit-led words are not identifiers.
        let dir = std::env::temp_dir().join(format!("docs-check-fid-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        std::fs::write(
            dir.join("lib.rs"),
            "// commented_symbol\npub fn real_symbol(x: u32) -> Baz2 { let _ = \"string_symbol\"; 32 }",
        )
        .unwrap();
        let set = identifier_set(std::slice::from_ref(&dir)).unwrap();
        for ident in [
            "real_symbol",
            "commented_symbol",
            "string_symbol",
            "u32",
            "Baz2",
        ] {
            assert!(set.contains(ident), "{ident}");
        }
        assert!(!set.contains("32"));
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn end_to_end_flags_stale_symbol() {
        let dir = std::env::temp_dir().join(format!("docs-check-test-{}", std::process::id()));
        let src = dir.join("src");
        let docs = dir.join("docs");
        std::fs::create_dir_all(&src).unwrap();
        std::fs::create_dir_all(&docs).unwrap();
        std::fs::write(src.join("lib.rs"), "pub fn real_symbol() {}").unwrap();
        std::fs::write(docs.join("ok.md"), "see `lib::real_symbol`\n").unwrap();
        assert!(run(std::slice::from_ref(&docs), std::slice::from_ref(&src)).is_ok());
        std::fs::write(docs.join("bad.md"), "see `lib::gone_symbol`\n").unwrap();
        let err = run(std::slice::from_ref(&docs), std::slice::from_ref(&src)).unwrap_err();
        assert!(err.contains("gone_symbol"), "{err}");
        let _ = std::fs::remove_dir_all(&dir);
    }
}
