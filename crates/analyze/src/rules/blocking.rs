//! Reactor-blocking analysis: computes the call graph reachable from
//! the event-loop root (`reactor_loop` in `reactor.rs`) and flags
//! blocking operations on it — socket connects, synchronous client
//! round trips, file I/O, channel receives and sleeps all stall every
//! connection multiplexed on the reactor thread.
//!
//! Thread spawns are a natural boundary: the closure body passed to
//! `thread::spawn` is a different function only when it is a named
//! function; inline closures are conservatively treated as running on
//! the caller's thread (the reactor must not spawn-and-join anyway).

use crate::model::Workspace;
use crate::report::Finding;
use crate::rules::common::{blocking_primitive, resolvable};
use std::collections::HashMap;

/// Runs the rule. Returns findings in the reactor-reachable call
/// graph; each message carries the call path from the root for
/// diagnosis.
pub fn run(ws: &Workspace) -> Vec<Finding> {
    // Roots: the event-loop function(s).
    let mut queue: Vec<(usize, usize)> = Vec::new();
    // Breadcrumb: how each function was first reached.
    let mut parent: HashMap<(usize, usize), Option<(usize, usize)>> = HashMap::new();
    for (fi, file) in ws.files.iter().enumerate() {
        if !file.rel.ends_with("reactor.rs") {
            continue;
        }
        for (di, def) in file.fns.iter().enumerate() {
            if def.name == "reactor_loop" && !def.is_test && def.body.is_some() {
                queue.push((fi, di));
                parent.insert((fi, di), None);
            }
        }
    }

    // BFS over the lexical call graph.
    let mut head = 0;
    while head < queue.len() {
        let key = queue[head];
        head += 1;
        let file = &ws.files[key.0];
        let def = &file.fns[key.1];
        for call in file.calls(def) {
            if !resolvable(&call) {
                continue;
            }
            for &cand in ws.resolve_call(&call, def) {
                if let std::collections::hash_map::Entry::Vacant(slot) = parent.entry(cand) {
                    slot.insert(Some(key));
                    queue.push(cand);
                }
            }
        }
    }

    let path_to = |mut key: (usize, usize)| -> String {
        let mut names = vec![ws.files[key.0].fns[key.1].name.clone()];
        while let Some(Some(p)) = parent.get(&key) {
            names.push(ws.files[p.0].fns[p.1].name.clone());
            key = *p;
        }
        names.reverse();
        names.join(" -> ")
    };

    let mut findings = Vec::new();
    for &key in &queue {
        let file = &ws.files[key.0];
        let def = &file.fns[key.1];
        for call in file.calls(def) {
            if let Some(desc) = blocking_primitive(&call) {
                findings.push(Finding {
                    rule: "reactor_blocking",
                    file: file.rel.clone(),
                    line: call.line,
                    function: def.name.clone(),
                    message: format!(
                        "`{}` ({desc}) is reachable from the reactor event loop via {}",
                        call.name,
                        path_to(key)
                    ),
                    waived_by: None,
                });
            }
        }
    }
    findings.sort_by(|a, b| (&a.file, a.line).cmp(&(&b.file, b.line)));
    findings
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::model::SourceFile;
    use std::path::Path;

    fn run_src(srcs: &[(&str, &str)]) -> Vec<Finding> {
        let files = srcs
            .iter()
            .map(|(name, src)| SourceFile::parse(Path::new(name), (*name).to_owned(), src))
            .collect();
        run(&Workspace::new(files))
    }

    #[test]
    fn blocking_call_reachable_from_reactor_loop_is_flagged_with_path() {
        let findings = run_src(&[
            (
                "reactor.rs",
                "fn reactor_loop() { handle(); }\nfn handle() { forward(); }",
            ),
            ("fed.rs", "fn forward() { stream.write_all(buf); }"),
        ]);
        assert_eq!(findings.len(), 1, "{findings:?}");
        assert_eq!(findings[0].file, "fed.rs");
        assert_eq!(findings[0].function, "forward");
        assert!(findings[0]
            .message
            .contains("reactor_loop -> handle -> forward"));
    }

    #[test]
    fn unreachable_blocking_code_is_not_flagged() {
        let findings = run_src(&[
            ("reactor.rs", "fn reactor_loop() { ok(); }\nfn ok() {}"),
            ("worker.rs", "fn background() { rx.recv(); }"),
        ]);
        assert!(findings.is_empty(), "{findings:?}");
    }

    #[test]
    fn excluded_method_names_stop_traversal() {
        // `.send()` is in the unresolved set; a workspace fn named
        // `send` containing blocking I/O must not leak into the
        // reactor graph through it.
        let findings = run_src(&[
            ("reactor.rs", "fn reactor_loop() { tx.send(m); }"),
            ("link.rs", "fn send() { rx.recv(); }"),
        ]);
        assert!(findings.is_empty(), "{findings:?}");
    }
}
