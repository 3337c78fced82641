//! The source model: files, functions, calls and the name-resolved
//! call graph the rules traverse.
//!
//! Resolution is purely lexical — no type information. A call site
//! resolves to *every* non-test function sharing its name, which makes
//! the rules conservative over-approximations: they may traverse an
//! edge the compiler never would, but they cannot miss one inside the
//! workspace. The one narrowing is a path call `Type::name(..)` or
//! `Self::name(..)`: when the workspace has an `impl Type` defining
//! `name`, the call resolves to that impl's definitions alone.
//! Functions inside `#[cfg(test)]` modules or under `#[test]` are
//! modeled (so waiver lines still resolve) but excluded from rule
//! roots, findings and call-graph targets: test code is allowed to
//! unwrap and block.

use crate::lexer::{lex, InlineWaiver, TokKind, Token};
use std::collections::HashMap;
use std::path::{Path, PathBuf};

/// One parsed source file.
#[derive(Debug)]
pub struct SourceFile {
    /// Absolute path on disk.
    pub path: PathBuf,
    /// Path relative to the analysis root (stable across machines —
    /// this is what reports and waiver files use).
    pub rel: String,
    /// The file stem (`fed` for `fed.rs`) — the namespace lock
    /// identifiers are qualified with.
    pub stem: String,
    /// All tokens.
    pub tokens: Vec<Token>,
    /// Inline waiver comments, bound to lines.
    pub waivers: Vec<InlineWaiver>,
    /// Functions defined in this file, in source order.
    pub fns: Vec<FnDef>,
}

/// One `fn` definition.
#[derive(Debug, Clone)]
pub struct FnDef {
    /// Bare name.
    pub name: String,
    /// Token index range of the signature (from `fn` to the body `{`
    /// or the trailing `;`, exclusive).
    pub sig: (usize, usize),
    /// Token index range of the body *including* both braces, when the
    /// function has one.
    pub body: Option<(usize, usize)>,
    /// Whether this is test code (`#[test]` or inside `#[cfg(test)]`).
    pub is_test: bool,
    /// Source line of the `fn` keyword.
    pub line: u32,
    /// The self type of the `impl` block the function is an item of
    /// (`Foo` for `impl<T> Trait for a::Foo<T>`), if any.
    pub impl_type: Option<String>,
}

/// A call site inside a function body.
#[derive(Debug, Clone)]
pub struct Call {
    /// Callee name (last path segment or method name).
    pub name: String,
    /// For path calls `A::b()`, the segment before the name.
    pub qualifier: Option<String>,
    /// Whether this is a `.name(...)` method call.
    pub is_method: bool,
    /// Whether this is a macro invocation `name!(...)`.
    pub is_macro: bool,
    /// Whether the call site sits inside the argument list of a
    /// `spawn(..)` call — i.e. inside a closure that runs on another
    /// thread. Such calls are opaque to the caller-thread rules.
    pub in_spawn: bool,
    /// Source line.
    pub line: u32,
    /// Token index of the callee name.
    pub tok: usize,
}

impl SourceFile {
    /// Lexes and parses one file. `rel` is the root-relative path used
    /// in reports.
    pub fn parse(path: &Path, rel: String, src: &str) -> SourceFile {
        let lexed = lex(src);
        let stem = path
            .file_stem()
            .map(|s| s.to_string_lossy().into_owned())
            .unwrap_or_default();
        let fns = extract_fns(&lexed.tokens);
        SourceFile {
            path: path.to_owned(),
            rel,
            stem,
            tokens: lexed.tokens,
            waivers: lexed.waivers,
            fns,
        }
    }

    /// All call sites in `f`'s body (empty for bodyless signatures).
    pub fn calls(&self, f: &FnDef) -> Vec<Call> {
        let Some((start, end)) = f.body else {
            return Vec::new();
        };
        extract_calls(&self.tokens, start, end)
    }
}

/// Returns the token index of the `}` matching the `{` at `open`.
pub fn matching_brace(tokens: &[Token], open: usize) -> usize {
    let mut depth = 0i32;
    for (i, t) in tokens.iter().enumerate().skip(open) {
        match t.kind {
            TokKind::Punct('{') => depth += 1,
            TokKind::Punct('}') => {
                depth -= 1;
                if depth == 0 {
                    return i;
                }
            }
            _ => {}
        }
    }
    tokens.len().saturating_sub(1)
}

/// Whether an attribute's tokens mark the following item as test code.
fn attr_is_test(attr: &[Token]) -> bool {
    let idents: Vec<&str> = attr
        .iter()
        .filter(|t| t.kind == TokKind::Ident)
        .map(|t| t.text.as_str())
        .collect();
    if idents == ["test"] {
        return true;
    }
    // #[cfg(test)] and friends — but not #[cfg(not(test))].
    idents.first() == Some(&"cfg") && idents.contains(&"test") && !idents.contains(&"not")
}

fn extract_fns(tokens: &[Token]) -> Vec<FnDef> {
    let mut fns = Vec::new();
    // Stack of (brace depth at open, is_test) for test-marked mods.
    let mut test_mods: Vec<i32> = Vec::new();
    // Stack of (self type, brace depth of the body) of open impl blocks.
    let mut impls: Vec<(String, i32)> = Vec::new();
    let mut depth = 0i32;
    let mut pending_test = false;
    let mut i = 0usize;
    while i < tokens.len() {
        match &tokens[i].kind {
            TokKind::Punct('{') => {
                depth += 1;
                i += 1;
            }
            TokKind::Punct('}') => {
                depth -= 1;
                while test_mods.last().is_some_and(|&d| d > depth) {
                    test_mods.pop();
                }
                while impls.last().is_some_and(|&(_, d)| d > depth) {
                    impls.pop();
                }
                i += 1;
            }
            TokKind::Punct('#') if tokens.get(i + 1).is_some_and(|t| t.is_punct('[')) => {
                // Attribute: scan to its matching `]`.
                let mut j = i + 2;
                let mut bdepth = 1;
                while j < tokens.len() && bdepth > 0 {
                    match tokens[j].kind {
                        TokKind::Punct('[') => bdepth += 1,
                        TokKind::Punct(']') => bdepth -= 1,
                        _ => {}
                    }
                    j += 1;
                }
                if attr_is_test(&tokens[i + 2..j.saturating_sub(1)]) {
                    pending_test = true;
                }
                i = j;
            }
            TokKind::Ident if tokens[i].text == "mod" => {
                // `mod name {` opens a module scope; a test attribute
                // on it taints everything inside.
                if tokens.get(i + 2).is_some_and(|t| t.is_punct('{')) && pending_test {
                    test_mods.push(depth + 1);
                }
                pending_test = false;
                i += 1;
            }
            TokKind::Ident if tokens[i].text == "fn" => {
                let Some(name_tok) = tokens.get(i + 1) else {
                    break;
                };
                let name = name_tok.text.clone();
                let line = tokens[i].line;
                // Scan the signature for the body `{` or a `;`, skipping
                // the `;` of array types such as `[u8; 4]`.
                let mut j = i + 2;
                let mut brackets = 0usize;
                while j < tokens.len()
                    && !tokens[j].is_punct('{')
                    && !(tokens[j].is_punct(';') && brackets == 0)
                {
                    if tokens[j].is_punct('[') {
                        brackets += 1;
                    } else if tokens[j].is_punct(']') {
                        brackets = brackets.saturating_sub(1);
                    }
                    j += 1;
                }
                let body = if tokens.get(j).is_some_and(|t| t.is_punct('{')) {
                    Some((j, matching_brace(tokens, j) + 1))
                } else {
                    None
                };
                fns.push(FnDef {
                    name,
                    sig: (i, j),
                    body,
                    is_test: pending_test || !test_mods.is_empty(),
                    line,
                    impl_type: impls
                        .last()
                        .filter(|&&(_, d)| d == depth)
                        .map(|(ty, _)| ty.clone()),
                });
                pending_test = false;
                // Continue scanning from just inside the signature so
                // nested fns (inside bodies) are still found.
                i += 2;
            }
            TokKind::Ident if tokens[i].text == "impl" && starts_item(tokens, i) => {
                if let Some(ty) = impl_self_type(tokens, i) {
                    impls.push((ty, depth + 1));
                }
                pending_test = false;
                i += 1;
            }
            _ => {
                // Any other item consumes a pending test attribute
                // only when it is an item keyword; expression tokens
                // leave it for the next item.
                if matches!(
                    tokens[i].text.as_str(),
                    "struct" | "enum" | "impl" | "trait"
                ) {
                    pending_test = false;
                }
                i += 1;
            }
        }
    }
    fns
}

/// Whether the token at `i` begins an item, as an `impl` block does,
/// rather than sitting inside a type, as `impl Trait` does.
fn starts_item(tokens: &[Token], i: usize) -> bool {
    match i.checked_sub(1).map(|p| &tokens[p]) {
        None => true,
        Some(prev) => {
            prev.is_ident("unsafe") || matches!(prev.kind, TokKind::Punct('}' | ';' | '{' | ']'))
        }
    }
}

/// The self type of the `impl` block at `at`: the last path segment
/// before its generic arguments, after `for` when it implements a
/// trait. `None` for a header without a body.
fn impl_self_type(tokens: &[Token], at: usize) -> Option<String> {
    let mut angle = 0usize;
    let mut ty = None;
    let mut in_bounds = false;
    for (j, t) in tokens.iter().enumerate().skip(at + 1) {
        match t.kind {
            TokKind::Punct('{') if angle == 0 => return ty,
            TokKind::Punct(';') if angle == 0 => return None,
            TokKind::Punct('<') => angle += 1,
            // The `>` of `->` closes nothing.
            TokKind::Punct('>') if !tokens[j - 1].is_punct('-') => {
                angle = angle.saturating_sub(1);
            }
            TokKind::Ident if angle == 0 && !in_bounds => match t.text.as_str() {
                "for" => ty = None,
                "where" => in_bounds = true,
                "dyn" | "mut" => {}
                name => ty = Some(name.to_owned()),
            },
            _ => {}
        }
    }
    None
}

const KEYWORDS: &[&str] = &[
    "if", "else", "match", "while", "for", "loop", "return", "in", "let", "fn", "mut", "ref",
    "move", "async", "await", "unsafe", "pub", "use", "mod", "impl", "trait", "struct", "enum",
    "where", "as", "dyn", "box", "break", "continue",
];

fn extract_calls(tokens: &[Token], start: usize, end: usize) -> Vec<Call> {
    let mut calls = Vec::new();
    for i in start..end.min(tokens.len()) {
        if tokens[i].kind != TokKind::Ident {
            continue;
        }
        let name = tokens[i].text.as_str();
        let next = tokens.get(i + 1);
        let is_macro = next.is_some_and(|t| t.is_punct('!'));
        let is_call = next.is_some_and(|t| t.is_punct('('));
        if !is_macro && !is_call {
            continue;
        }
        if !is_macro && KEYWORDS.contains(&name) {
            continue;
        }
        let prev = i.checked_sub(1).map(|p| &tokens[p]);
        if prev.is_some_and(|t| t.is_ident("fn")) {
            continue; // definition, not a call
        }
        let is_method = prev.is_some_and(|t| t.is_punct('.'));
        let qualifier = if !is_method
            && prev.is_some_and(|t| t.is_punct(':'))
            && i >= 3
            && tokens[i - 2].is_punct(':')
            && tokens[i - 3].kind == TokKind::Ident
        {
            Some(tokens[i - 3].text.clone())
        } else {
            None
        };
        calls.push(Call {
            name: name.to_owned(),
            qualifier,
            is_method,
            is_macro,
            in_spawn: false,
            line: tokens[i].line,
            tok: i,
        });
    }
    mark_spawn_args(tokens, &mut calls);
    calls
}

/// Marks calls lexically inside the argument parentheses of a
/// `spawn(..)` call: the closure body runs on a different thread, so
/// the caller-thread rules must not attribute its calls to the caller.
fn mark_spawn_args(tokens: &[Token], calls: &mut [Call]) {
    let spawn_ranges: Vec<(usize, usize)> = calls
        .iter()
        .filter(|c| c.name == "spawn" && !c.is_macro)
        .filter_map(|c| {
            let open = c.tok + 1;
            if !tokens.get(open).is_some_and(|t| t.is_punct('(')) {
                return None;
            }
            let mut depth = 0i32;
            for (j, t) in tokens.iter().enumerate().skip(open) {
                match t.kind {
                    TokKind::Punct('(') => depth += 1,
                    TokKind::Punct(')') => {
                        depth -= 1;
                        if depth == 0 {
                            return Some((open, j));
                        }
                    }
                    _ => {}
                }
            }
            None
        })
        .collect();
    for call in calls.iter_mut() {
        if spawn_ranges
            .iter()
            .any(|&(a, b)| call.tok > a && call.tok < b)
        {
            call.in_spawn = true;
        }
    }
}

/// The whole scanned workspace plus the lexical call graph.
pub struct Workspace {
    /// Every parsed file.
    pub files: Vec<SourceFile>,
    /// `name -> [(file index, fn index)]` over non-test functions.
    pub by_name: HashMap<String, Vec<(usize, usize)>>,
    /// `(impl self type, name) -> [(file index, fn index)]` over the
    /// same functions, for those defined in an `impl` block.
    pub by_impl: HashMap<(String, String), Vec<(usize, usize)>>,
}

impl Workspace {
    /// Builds the workspace model from parsed files.
    pub fn new(files: Vec<SourceFile>) -> Workspace {
        let mut by_name: HashMap<String, Vec<(usize, usize)>> = HashMap::new();
        let mut by_impl: HashMap<(String, String), Vec<(usize, usize)>> = HashMap::new();
        for (fi, file) in files.iter().enumerate() {
            for (di, f) in file.fns.iter().enumerate() {
                if !f.is_test && f.body.is_some() {
                    by_name.entry(f.name.clone()).or_default().push((fi, di));
                    if let Some(ty) = &f.impl_type {
                        by_impl
                            .entry((ty.clone(), f.name.clone()))
                            .or_default()
                            .push((fi, di));
                    }
                }
            }
        }
        Workspace {
            files,
            by_name,
            by_impl,
        }
    }

    /// All definitions a call name may resolve to.
    pub fn resolve(&self, name: &str) -> &[(usize, usize)] {
        self.by_name.get(name).map(Vec::as_slice).unwrap_or(&[])
    }

    /// All definitions `call`, made in the body of `caller`, may
    /// resolve to: for a path call `Type::name(..)` (a capitalised
    /// qualifier) or `Self::name(..)`, the `name`s of that type's impl
    /// blocks if it has any; otherwise every function named `name`.
    pub fn resolve_call(&self, call: &Call, caller: &FnDef) -> &[(usize, usize)] {
        let ty = match call.qualifier.as_deref() {
            _ if call.is_method => None,
            Some("Self") => caller.impl_type.as_deref(),
            Some(q) if q.starts_with(|c: char| c.is_ascii_uppercase()) => Some(q),
            _ => None,
        };
        ty.and_then(|ty| self.by_impl.get(&(ty.to_owned(), call.name.clone())))
            .map_or_else(|| self.resolve(&call.name), Vec::as_slice)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn parse(src: &str) -> SourceFile {
        SourceFile::parse(Path::new("x.rs"), "x.rs".into(), src)
    }

    #[test]
    fn finds_fns_and_bodies() {
        let f = parse(
            "fn a() { b(); }\npub fn c(x: u32) -> u32 { x }\ntrait T { fn d(&self); }\n\
             const fn e<const N: usize>(x: [u8; 2]) -> [u64; N] { t[0] }",
        );
        let names: Vec<&str> = f.fns.iter().map(|d| d.name.as_str()).collect();
        assert_eq!(names, vec!["a", "c", "d", "e"]);
        assert!(f.fns[0].body.is_some());
        assert!(f.fns[2].body.is_none());
        // An array type's `;` does not end the signature.
        assert!(f.fns[3].body.is_some());
        let calls = f.calls(&f.fns[0]);
        assert_eq!(calls.len(), 1);
        assert_eq!(calls[0].name, "b");
    }

    #[test]
    fn test_code_is_marked() {
        let src = "\
fn live() {}
#[cfg(test)]
mod tests {
    fn helper() {}
    #[test]
    fn case() {}
}
#[test]
fn top_level_case() {}
fn also_live() {}
";
        let f = parse(src);
        let flags: Vec<(String, bool)> =
            f.fns.iter().map(|d| (d.name.clone(), d.is_test)).collect();
        assert_eq!(
            flags,
            vec![
                ("live".into(), false),
                ("helper".into(), true),
                ("case".into(), true),
                ("top_level_case".into(), true),
                ("also_live".into(), false),
            ]
        );
    }

    #[test]
    fn cfg_not_test_is_live_code() {
        let f = parse("#[cfg(not(test))]\nfn gated() {}\n");
        assert!(!f.fns[0].is_test);
    }

    #[test]
    fn calls_capture_method_path_and_macro_forms() {
        let f = parse("fn a() { x.recv(); File::create(p); sleep(d); panic!(\"boom\"); }");
        let calls = f.calls(&f.fns[0]);
        let recv = calls.iter().find(|c| c.name == "recv").unwrap();
        assert!(recv.is_method);
        let create = calls.iter().find(|c| c.name == "create").unwrap();
        assert_eq!(create.qualifier.as_deref(), Some("File"));
        let mac = calls.iter().find(|c| c.name == "panic").unwrap();
        assert!(mac.is_macro);
        assert!(calls.iter().any(|c| c.name == "sleep" && !c.is_method));
    }

    #[test]
    fn impl_blocks_give_their_fns_a_self_type() {
        let f = parse(
            "fn free(f: impl Fn() -> u8) {}\n\
             impl<const N: usize> Text<N> { fn a() {} }\n\
             impl<F: Fn() -> u8> fmt::Display for crate::x::Wrap<F> where F: Copy {\n\
                 fn fmt(&self) { fn inner() {} }\n\
             }\n\
             unsafe impl Send for Raw {}\n\
             trait T { fn d(&self) {} }",
        );
        let types: Vec<(&str, Option<&str>)> = f
            .fns
            .iter()
            .map(|d| (d.name.as_str(), d.impl_type.as_deref()))
            .collect();
        assert_eq!(
            types,
            [
                ("free", None),
                ("a", Some("Text")),
                ("fmt", Some("Wrap")),
                ("inner", None),
                ("d", None),
            ]
        );
    }

    #[test]
    fn type_and_self_paths_resolve_to_their_impl_only() {
        // Two unrelated `of`s, as `Scale::of` and a federated read's
        // `Owners::of` once were; only the bare `of` call (and a type
        // without an impl of its own) keeps bare-name resolution.
        let ws = Workspace::new(vec![
            parse("impl Scale { fn of() {} fn up() { Self::of(); } }"),
            parse(
                "impl Owners { fn of() { counts(); } }\n\
                 fn caller() { Scale::of(); Owners::of(); of(); Other::of(); x.of(); }",
            ),
        ]);
        let scale = (0, 0);
        let owners = (1, 0);
        let file = &ws.files[0];
        let up = &file.fns[1];
        let calls = file.calls(up);
        assert_eq!(ws.resolve_call(&calls[0], up), [scale]);
        let file = &ws.files[1];
        let caller = &file.fns[1];
        let got: Vec<&[(usize, usize)]> = file
            .calls(caller)
            .iter()
            .map(|c| ws.resolve_call(c, caller))
            .collect();
        let both = [scale, owners];
        assert_eq!(
            got,
            [&[scale][..], &[owners], &both, &both, &both],
            "Scale::of, Owners::of, of, Other::of, x.of"
        );
    }

    #[test]
    fn call_graph_resolves_by_name_excluding_tests() {
        let ws = Workspace::new(vec![
            parse("fn a() { b(); }\nfn b() {}"),
            parse("#[cfg(test)]\nmod t { fn b() {} }"),
        ]);
        assert_eq!(ws.resolve("b").len(), 1);
    }
}
