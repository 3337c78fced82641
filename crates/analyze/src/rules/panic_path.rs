//! Panic-path analysis: flags `unwrap`/`expect`, panicking macros and
//! unchecked indexing in the wire-facing service modules. A panic in
//! these files unwinds a connection (or the whole reactor thread) on
//! attacker-controlled input, so every site must either be converted
//! into an in-band protocol error or carry an inline waiver explaining
//! why it cannot fire.
//!
//! Known limitation: range slicing (`buf[a..b]`) is *not* flagged even
//! though it can panic — the service uses length-guarded ranges
//! pervasively in frame parsing and flagging them all would drown the
//! signal. Plain index expressions (`links[i]`, `cell[0]`) are flagged.

use crate::lexer::TokKind;
use crate::model::{SourceFile, Workspace};
use crate::report::Finding;

/// The wire-facing modules the rule applies to.
const WIRE_FILES: &[&str] = &[
    "dispatch.rs",
    "protocol.rs",
    "http.rs",
    "reactor.rs",
    "fed.rs",
    "session.rs",
    "framing.rs",
    "json.rs",
    "json/float.rs",
];

const PANIC_MACROS: &[&str] = &["panic", "unreachable", "unimplemented", "todo"];

/// Runs the rule over the wire-facing subset of the workspace.
pub fn run(ws: &Workspace) -> Vec<Finding> {
    let mut findings = Vec::new();
    for file in &ws.files {
        if !WIRE_FILES.iter().any(|w| file.rel.ends_with(w)) {
            continue;
        }
        scan_file(file, &mut findings);
    }
    findings.sort_by(|a, b| (&a.file, a.line).cmp(&(&b.file, b.line)));
    findings
}

fn scan_file(file: &SourceFile, findings: &mut Vec<Finding>) {
    for def in &file.fns {
        if def.is_test {
            continue;
        }
        let Some((start, end)) = def.body else {
            continue;
        };
        let toks = &file.tokens;
        for i in start..end.min(toks.len()) {
            let message = match &toks[i].kind {
                TokKind::Ident if toks[i].text == "unwrap" => {
                    if is_zero_arg_method(toks, i) {
                        Some("`.unwrap()` on a wire path".to_owned())
                    } else {
                        None
                    }
                }
                TokKind::Ident if toks[i].text == "expect" => {
                    if i > 0
                        && toks[i - 1].is_punct('.')
                        && toks.get(i + 1).is_some_and(|t| t.is_punct('('))
                    {
                        Some("`.expect(..)` on a wire path".to_owned())
                    } else {
                        None
                    }
                }
                TokKind::Ident if PANIC_MACROS.contains(&toks[i].text.as_str()) => {
                    if toks.get(i + 1).is_some_and(|t| t.is_punct('!'))
                        && (i == 0 || !toks[i - 1].is_punct('.'))
                    {
                        Some(format!("`{}!` on a wire path", toks[i].text))
                    } else {
                        None
                    }
                }
                TokKind::Punct('[') if is_index_expr(toks, i) => {
                    Some("unchecked index expression on a wire path".to_owned())
                }
                _ => None,
            };
            if let Some(message) = message {
                findings.push(Finding {
                    rule: "panic_path",
                    file: file.rel.clone(),
                    line: toks[i].line,
                    function: def.name.clone(),
                    message,
                    waived_by: None,
                });
            }
        }
    }
}

fn is_zero_arg_method(toks: &[crate::lexer::Token], i: usize) -> bool {
    i > 0
        && toks[i - 1].is_punct('.')
        && toks.get(i + 1).is_some_and(|t| t.is_punct('('))
        && toks.get(i + 2).is_some_and(|t| t.is_punct(')'))
}

/// Whether `[` at `i` opens an index expression (receiver before it)
/// rather than an array literal, attribute or macro — and the content
/// is not a range (ranges are the documented blind spot).
fn is_index_expr(toks: &[crate::lexer::Token], i: usize) -> bool {
    let Some(prev) = i.checked_sub(1).map(|p| &toks[p]) else {
        return false;
    };
    let indexable = matches!(
        prev.kind,
        TokKind::Ident | TokKind::Punct(']') | TokKind::Punct(')')
    ) && !(prev.kind == TokKind::Ident
        && KEYWORD_BEFORE_BRACKET.contains(&prev.text.as_str()));
    if !indexable {
        return false;
    }
    // Scan the bracket content for a top-level `..`.
    let mut depth = 1i32;
    let mut j = i + 1;
    while j < toks.len() && depth > 0 {
        match toks[j].kind {
            TokKind::Punct('[') => depth += 1,
            TokKind::Punct(']') => depth -= 1,
            TokKind::Punct('.')
                if depth == 1 && toks.get(j + 1).is_some_and(|t| t.is_punct('.')) =>
            {
                return false;
            }
            _ => {}
        }
        j += 1;
    }
    true
}

/// Identifiers that precede `[` without forming an index expression.
const KEYWORD_BEFORE_BRACKET: &[&str] = &["in", "return", "else", "match"];

#[cfg(test)]
mod tests {
    use super::*;
    use crate::model::SourceFile;
    use std::path::Path;

    fn run_src(name: &str, src: &str) -> Vec<Finding> {
        let files = vec![SourceFile::parse(Path::new(name), name.to_owned(), src)];
        run(&Workspace::new(files))
    }

    #[test]
    fn unwrap_expect_and_macros_fire_in_wire_files_only() {
        let src = "fn f() { x.unwrap(); y.expect(\"m\"); unreachable!(); panic!(\"b\"); }";
        assert_eq!(run_src("dispatch.rs", src).len(), 4);
        assert!(run_src("mining.rs", src).is_empty());
    }

    #[test]
    fn test_code_is_exempt() {
        let src = "#[cfg(test)]\nmod t { fn f() { x.unwrap(); } }\n#[test]\nfn g() { y.unwrap(); }";
        assert!(run_src("fed.rs", src).is_empty());
    }

    #[test]
    fn indexing_fires_but_ranges_array_literals_and_attrs_do_not() {
        let hits = run_src("fed.rs", "fn f() { a = links[peer]; }");
        assert_eq!(hits.len(), 1, "{hits:?}");
        assert!(run_src("fed.rs", "fn f() { s = &buf[1..n]; }").is_empty());
        assert!(run_src("fed.rs", "fn f() { v = vec![1, 2]; }").is_empty());
        assert!(run_src("fed.rs", "#[derive(Debug)]\nstruct S;\nfn f() {}").is_empty());
    }

    #[test]
    fn unwrap_or_variants_are_not_flagged() {
        assert!(run_src(
            "fed.rs",
            "fn f() { x.unwrap_or(0); x.unwrap_or_default(); }"
        )
        .is_empty());
    }
}
