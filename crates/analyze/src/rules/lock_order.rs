//! Lock-order analysis: extract nested `Mutex`/`RwLock` acquisition
//! scopes per function, build the inter-procedural lock graph, and
//! fail on cycles (deadlock risk) and on locks held across blocking
//! calls.
//!
//! A lock is identified as `<file stem>::<field>` from the receiver of
//! a zero-argument `.lock()` / `.read()` / `.write()` call (the
//! zero-argument requirement keeps `io::Read::read(&mut buf)` out).
//! Functions whose signature returns a guard type (any identifier
//! containing `Guard`) are treated as *lock helpers*: a call to one
//! acquires the lock its body locks directly, held by the caller under
//! normal scope rules. Scopes are tracked lexically: a `let`-bound
//! guard lives to the end of its block, a temporary to the end of its
//! statement, and `drop(binding)` releases early.

use crate::lexer::TokKind;
use crate::model::{Call, FnDef, SourceFile, Workspace};
use crate::report::Finding;
use crate::rules::common::{blocking_primitive, resolvable, BlockingIndex};
use std::collections::{BTreeMap, BTreeSet, HashMap};

/// The acquisition methods the rule recognizes (zero-argument only).
const ACQUIRE_METHODS: &[&str] = &["lock", "read", "write"];

/// Runs the rule over the workspace. Returns findings plus the derived
/// acquisition order (a topological sort of the edge graph, isolated
/// locks last) for the report.
pub fn run(ws: &Workspace) -> (Vec<Finding>, Vec<String>) {
    let model = LockModel::build(ws);
    let mut findings = Vec::new();
    let mut edges: BTreeMap<(String, String), (String, u32, String)> = BTreeMap::new();
    let mut blocking = BlockingIndex::new();

    for (fi, file) in ws.files.iter().enumerate() {
        for (di, def) in file.fns.iter().enumerate() {
            if def.is_test || def.body.is_none() {
                continue;
            }
            walk_fn(
                ws,
                &model,
                &mut blocking,
                (fi, di),
                &mut edges,
                &mut findings,
            );
        }
    }

    // Cycle check over the edge graph.
    let order = check_cycles(&model, &edges, &mut findings);
    (findings, order)
}

/// Workspace-wide lock facts.
struct LockModel {
    /// `(file, fn)` of guard-returning helpers -> lock ids they
    /// acquire for the caller.
    helpers: HashMap<(usize, usize), Vec<String>>,
    /// Memoized transitive lock sets per function.
    locks: HashMap<(usize, usize), BTreeSet<String>>,
    /// Every lock id seen anywhere (for the report).
    all_locks: BTreeSet<String>,
}

impl LockModel {
    fn build(ws: &Workspace) -> LockModel {
        let mut helpers = HashMap::new();
        let mut all_locks = BTreeSet::new();
        for (fi, file) in ws.files.iter().enumerate() {
            for (di, def) in file.fns.iter().enumerate() {
                if def.is_test {
                    continue;
                }
                let direct = direct_acquisitions(file, def);
                for (id, _, _) in &direct {
                    all_locks.insert(id.clone());
                }
                if !direct.is_empty() && returns_guard(file, def) {
                    let ids: Vec<String> = direct.iter().map(|(id, _, _)| id.clone()).collect();
                    helpers.insert((fi, di), ids);
                }
            }
        }
        let mut model = LockModel {
            helpers,
            locks: HashMap::new(),
            all_locks,
        };
        for (fi, file) in ws.files.iter().enumerate() {
            for di in 0..file.fns.len() {
                model.locks_of(ws, (fi, di));
            }
        }
        model
    }

    /// The set of locks `(fi, di)` may acquire, transitively.
    fn locks_of(&mut self, ws: &Workspace, key: (usize, usize)) -> BTreeSet<String> {
        if let Some(hit) = self.locks.get(&key) {
            return hit.clone();
        }
        self.locks.insert(key, BTreeSet::new()); // cycle guard
        let file = &ws.files[key.0];
        let def = &file.fns[key.1];
        let mut set: BTreeSet<String> = direct_acquisitions(file, def)
            .into_iter()
            .map(|(id, _, _)| id)
            .collect();
        if def.body.is_some() && !def.is_test {
            for call in file.calls(def) {
                if !resolvable(&call) {
                    continue;
                }
                for cand in ws.resolve_call(&call, def) {
                    if *cand != key {
                        set.extend(self.locks_of(ws, *cand));
                    }
                }
            }
        }
        self.locks.insert(key, set.clone());
        set
    }
}

/// Whether a function's signature mentions a guard type.
fn returns_guard(file: &SourceFile, def: &FnDef) -> bool {
    file.tokens[def.sig.0..def.sig.1]
        .iter()
        .any(|t| t.kind == TokKind::Ident && t.text.contains("Guard"))
}

/// Direct zero-argument `.lock()`/`.read()`/`.write()` sites in a
/// function body: `(lock id, token index of the method name, line)`.
fn direct_acquisitions(file: &SourceFile, def: &FnDef) -> Vec<(String, usize, u32)> {
    let Some((start, end)) = def.body else {
        return Vec::new();
    };
    let toks = &file.tokens;
    let mut out = Vec::new();
    for i in start..end.min(toks.len()) {
        if toks[i].kind != TokKind::Ident || !ACQUIRE_METHODS.contains(&toks[i].text.as_str()) {
            continue;
        }
        // `.method()` — zero args, method form.
        if i == 0
            || !toks[i - 1].is_punct('.')
            || !toks.get(i + 1).is_some_and(|t| t.is_punct('('))
            || !toks.get(i + 2).is_some_and(|t| t.is_punct(')'))
        {
            continue;
        }
        if let Some(field) = receiver_field(toks, i - 1) {
            out.push((format!("{}::{field}", file.stem), i, toks[i].line));
        }
    }
    out
}

/// Walks back from the `.` before an acquisition method to the field
/// identifier of the receiver (`self.shards[i].lock()` -> `shards`).
fn receiver_field(toks: &[crate::lexer::Token], dot: usize) -> Option<String> {
    let mut j = dot.checked_sub(1)?;
    // Skip a trailing index expression.
    if toks[j].is_punct(']') {
        let mut depth = 1i32;
        while depth > 0 {
            j = j.checked_sub(1)?;
            match toks[j].kind {
                TokKind::Punct(']') => depth += 1,
                TokKind::Punct('[') => depth -= 1,
                _ => {}
            }
        }
        j = j.checked_sub(1)?;
    }
    match toks[j].kind {
        TokKind::Ident => Some(toks[j].text.clone()),
        TokKind::Number => Some(toks[j].text.clone()),
        _ => None,
    }
}

/// One lock held at a point in the scope walk.
#[derive(Debug, Clone)]
struct Held {
    id: String,
    /// The `let` binding name, when block-bound (for `drop(x)`).
    binding: Option<String>,
}

/// One lexical scope frame: block-bound guards plus statement
/// temporaries.
#[derive(Debug, Default)]
struct Frame {
    held: Vec<Held>,
    stmt: Vec<Held>,
}

#[allow(clippy::too_many_arguments)]
fn walk_fn(
    ws: &Workspace,
    model: &LockModel,
    blocking: &mut BlockingIndex,
    key: (usize, usize),
    edges: &mut BTreeMap<(String, String), (String, u32, String)>,
    findings: &mut Vec<Finding>,
) {
    let file = &ws.files[key.0];
    let def = &file.fns[key.1];
    let (body_open, body_end) = def.body.expect("walk_fn requires a body");
    let toks = &file.tokens;
    let calls = file.calls(def);
    let mut call_at: HashMap<usize, &Call> = calls.iter().map(|c| (c.tok, c)).collect();

    let mut frames: Vec<Frame> = vec![Frame::default()];
    let mut stmt_start = body_open + 1;

    let held_ids = |frames: &[Frame]| -> Vec<String> {
        let mut ids = Vec::new();
        for f in frames {
            for h in f.held.iter().chain(&f.stmt) {
                if !ids.contains(&h.id) {
                    ids.push(h.id.clone());
                }
            }
        }
        ids
    };

    let mut i = body_open + 1;
    while i + 1 < body_end.min(toks.len()) {
        match toks[i].kind {
            TokKind::Punct('{') => {
                frames.push(Frame::default());
                stmt_start = i + 1;
            }
            TokKind::Punct('}') => {
                frames.pop();
                if frames.is_empty() {
                    frames.push(Frame::default());
                }
                stmt_start = i + 1;
            }
            TokKind::Punct(';') => {
                if let Some(f) = frames.last_mut() {
                    f.stmt.clear();
                }
                stmt_start = i + 1;
            }
            _ => {
                if let Some(call) = call_at.remove(&i) {
                    handle_call(
                        ws,
                        model,
                        blocking,
                        key,
                        call,
                        toks,
                        stmt_start,
                        &mut frames,
                        &held_ids,
                        edges,
                        findings,
                    );
                }
            }
        }
        i += 1;
    }
}

/// How a freshly acquired guard is scoped at `stmt_start`.
fn binding_of(toks: &[crate::lexer::Token], stmt_start: usize) -> Option<String> {
    let mut j = stmt_start;
    // Tolerate leading `#[attr]` on the statement.
    while toks.get(j).is_some_and(|t| t.is_punct('#')) {
        if toks.get(j + 1).is_some_and(|t| t.is_punct('[')) {
            let mut depth = 1;
            j += 2;
            while depth > 0 && j < toks.len() {
                match toks[j].kind {
                    TokKind::Punct('[') => depth += 1,
                    TokKind::Punct(']') => depth -= 1,
                    _ => {}
                }
                j += 1;
            }
        } else {
            break;
        }
    }
    if !toks.get(j).is_some_and(|t| t.is_ident("let")) {
        return None;
    }
    let mut b = j + 1;
    if toks.get(b).is_some_and(|t| t.is_ident("mut")) {
        b += 1;
    }
    let tok = toks.get(b)?;
    if tok.kind == TokKind::Ident && tok.text != "_" {
        Some(tok.text.clone())
    } else {
        None // `let _ = guard` drops immediately; destructuring is rare
    }
}

#[allow(clippy::too_many_arguments)]
fn handle_call(
    ws: &Workspace,
    model: &LockModel,
    blocking: &mut BlockingIndex,
    key: (usize, usize),
    call: &Call,
    toks: &[crate::lexer::Token],
    stmt_start: usize,
    frames: &mut [Frame],
    held_ids: &dyn Fn(&[Frame]) -> Vec<String>,
    edges: &mut BTreeMap<(String, String), (String, u32, String)>,
    findings: &mut Vec<Finding>,
) {
    let file = &ws.files[key.0];
    let def = &file.fns[key.1];
    if call.is_macro || call.in_spawn {
        // Macros are opaque; spawn-closure bodies run on another
        // thread and do not hold this thread's guards.
        return;
    }
    // Early release: `drop(binding)`.
    if call.name == "drop" && !call.is_method {
        if let Some(arg) = toks.get(call.tok + 2) {
            if arg.kind == TokKind::Ident {
                for f in frames.iter_mut() {
                    f.held.retain(|h| h.binding.as_deref() != Some(&arg.text));
                }
            }
        }
        return;
    }
    let held = held_ids(frames);

    // Direct acquisition?
    let direct = ACQUIRE_METHODS.contains(&call.name.as_str())
        && call.is_method
        && toks.get(call.tok + 2).is_some_and(|t| t.is_punct(')'));
    let acquired: Vec<String> = if direct {
        receiver_field(toks, call.tok - 1)
            .map(|f| vec![format!("{}::{f}", file.stem)])
            .unwrap_or_default()
    } else if resolvable(call) {
        // A call to a guard-returning helper acquires for the caller.
        let mut ids = Vec::new();
        for cand in ws.resolve_call(call, def) {
            if let Some(provided) = model.helpers.get(cand) {
                for id in provided {
                    if !ids.contains(id) {
                        ids.push(id.clone());
                    }
                }
            }
        }
        ids
    } else {
        Vec::new()
    };

    if !acquired.is_empty() {
        for id in &acquired {
            for h in &held {
                if h != id {
                    edges.entry((h.clone(), id.clone())).or_insert((
                        file.rel.clone(),
                        call.line,
                        def.name.clone(),
                    ));
                }
            }
        }
        let binding = binding_of(toks, stmt_start);
        let frame = frames.last_mut().expect("at least one frame");
        for id in acquired {
            let h = Held {
                id,
                binding: binding.clone(),
            };
            if binding.is_some() {
                frame.held.push(h);
            } else {
                frame.stmt.push(h);
            }
        }
        return;
    }

    if held.is_empty() {
        return;
    }

    // Non-acquiring call while locks are held: pull in the callee's
    // transitive lock set as edges, and flag blocking calls.
    if resolvable(call) {
        for cand in ws.resolve_call(call, def) {
            if *cand == key {
                continue;
            }
            if let Some(locks) = model.locks.get(cand) {
                for l in locks {
                    for h in &held {
                        if h != l {
                            edges.entry((h.clone(), l.clone())).or_insert((
                                file.rel.clone(),
                                call.line,
                                format!("{} (via {})", def.name, call.name),
                            ));
                        }
                    }
                }
            }
        }
    }

    let block_hit = if let Some(desc) = blocking_primitive(call) {
        Some((call.name.clone(), desc))
    } else if resolvable(call) {
        ws.resolve_call(call, def)
            .iter()
            .filter(|cand| **cand != key)
            .find_map(|cand| blocking.blocks(ws, *cand))
    } else {
        None
    };
    if let Some((via, desc)) = block_hit {
        findings.push(Finding {
            rule: "lock_order",
            file: file.rel.clone(),
            line: call.line,
            function: def.name.clone(),
            message: format!(
                "lock `{}` held across blocking call `{}` ({desc}{})",
                held.join("`, `"),
                call.name,
                if via == call.name {
                    String::new()
                } else {
                    format!(", reached via `{via}`")
                }
            ),
            waived_by: None,
        });
    }
}

/// Cycle detection + topological order over the edge graph.
fn check_cycles(
    model: &LockModel,
    edges: &BTreeMap<(String, String), (String, u32, String)>,
    findings: &mut Vec<Finding>,
) -> Vec<String> {
    let mut adj: BTreeMap<&str, Vec<&str>> = BTreeMap::new();
    for (a, b) in edges.keys() {
        adj.entry(a.as_str()).or_default().push(b.as_str());
        adj.entry(b.as_str()).or_default();
    }
    // Iterative DFS with colors; report each back edge as a cycle.
    #[derive(Clone, Copy, PartialEq)]
    enum Color {
        White,
        Gray,
        Black,
    }
    let mut color: BTreeMap<&str, Color> = adj.keys().map(|k| (*k, Color::White)).collect();
    let mut order: Vec<String> = Vec::new();
    fn dfs<'a>(
        node: &'a str,
        adj: &BTreeMap<&'a str, Vec<&'a str>>,
        color: &mut BTreeMap<&'a str, Color>,
        order: &mut Vec<String>,
        stack: &mut Vec<&'a str>,
        cycles: &mut Vec<Vec<String>>,
    ) {
        color.insert(node, Color::Gray);
        stack.push(node);
        for &next in adj.get(node).into_iter().flatten() {
            match color[next] {
                Color::White => dfs(next, adj, color, order, stack, cycles),
                Color::Gray => {
                    let from = stack.iter().position(|n| *n == next).unwrap_or(0);
                    let mut cycle: Vec<String> =
                        stack[from..].iter().map(|s| (*s).to_owned()).collect();
                    cycle.push(next.to_owned());
                    cycles.push(cycle);
                }
                Color::Black => {}
            }
        }
        stack.pop();
        color.insert(node, Color::Black);
        order.push(node.to_owned());
    }
    let mut cycles = Vec::new();
    let keys: Vec<&str> = adj.keys().copied().collect();
    for k in keys {
        if color[k] == Color::White {
            let mut stack = Vec::new();
            dfs(k, &adj, &mut color, &mut order, &mut stack, &mut cycles);
        }
    }
    for cycle in cycles {
        let (file, line, function) = cycle
            .windows(2)
            .find_map(|w| edges.get(&(w[0].clone(), w[1].clone())))
            .cloned()
            .unwrap_or_default();
        findings.push(Finding {
            rule: "lock_order",
            file,
            line,
            function,
            message: format!("lock acquisition cycle: {}", cycle.join(" -> ")),
            waived_by: None,
        });
    }
    order.reverse(); // post-order reversed = topological order
    for l in &model.all_locks {
        if !order.iter().any(|o| o == l) {
            order.push(l.clone());
        }
    }
    order
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::model::SourceFile;
    use std::path::Path;

    fn run_src(srcs: &[(&str, &str)]) -> (Vec<Finding>, Vec<String>) {
        let files = srcs
            .iter()
            .map(|(name, src)| SourceFile::parse(Path::new(name), (*name).to_owned(), src))
            .collect();
        run(&Workspace::new(files))
    }

    #[test]
    fn nested_acquisition_order_is_derived_without_findings() {
        let (findings, order) = run_src(&[(
            "a.rs",
            "fn f(&self) { let g = self.alpha.lock(); let h = self.beta.lock(); }",
        )]);
        assert!(findings.is_empty(), "{findings:?}");
        assert_eq!(order, vec!["a::alpha", "a::beta"]);
    }

    #[test]
    fn conflicting_orders_report_a_cycle() {
        let (findings, _) = run_src(&[(
            "a.rs",
            "fn f(&self) { let g = self.alpha.lock(); let h = self.beta.lock(); }\n\
             fn g(&self) { let h = self.beta.lock(); let g = self.alpha.lock(); }",
        )]);
        assert_eq!(findings.len(), 1, "{findings:?}");
        assert!(findings[0].message.contains("cycle"));
    }

    #[test]
    fn helper_guards_and_interprocedural_edges_are_tracked() {
        let src = "\
impl S {
    fn lock_alpha(&self) -> MutexGuard<'_, A> { self.alpha.lock().unwrap() }
    fn touch_beta(&self) { let b = self.beta.lock(); }
    fn f(&self) { let a = self.lock_alpha(); self.touch_beta(); }
    fn g(&self) { let b = self.beta.lock(); let a = self.lock_alpha(); }
}
";
        let (findings, _) = run_src(&[("a.rs", src)]);
        // f: alpha -> beta (via call); g: beta -> alpha => cycle.
        assert_eq!(findings.len(), 1, "{findings:?}");
        assert!(findings[0].message.contains("cycle"), "{findings:?}");
    }

    #[test]
    fn statement_temporaries_release_at_the_semicolon() {
        let (findings, order) = run_src(&[(
            "a.rs",
            "fn f(&self) { self.alpha.lock().insert(1); let b = self.beta.lock(); rx.recv(); }",
        )]);
        // The temporary alpha guard is gone before beta is taken: no
        // alpha->beta edge, so the derived order is alphabetical-by-
        // discovery, and the recv fires a held-across-blocking finding
        // for beta only.
        assert_eq!(findings.len(), 1, "{findings:?}");
        assert!(findings[0].message.contains("`a::beta`"));
        assert!(!findings[0].message.contains("alpha"));
        assert_eq!(order.len(), 2);
    }

    #[test]
    fn drop_releases_a_block_bound_guard() {
        let (findings, _) = run_src(&[(
            "a.rs",
            "fn f(&self) { let g = self.alpha.lock(); drop(g); rx.recv(); }",
        )]);
        assert!(findings.is_empty(), "{findings:?}");
    }

    #[test]
    fn blocking_while_holding_is_flagged_transitively() {
        let src = "\
fn f(&self) { let g = self.alpha.lock(); helper(); }
fn helper() { std::thread::sleep(d); }
";
        let (findings, _) = run_src(&[("a.rs", src)]);
        assert_eq!(findings.len(), 1, "{findings:?}");
        assert!(findings[0].message.contains("held across blocking"));
        assert!(findings[0].message.contains("helper"));
    }
}
