//! Shared machinery for the call-graph rules: blocking-primitive
//! recognition and the name-resolution exclusion list.

use crate::model::{Call, Workspace};
use std::collections::HashMap;

/// Method names too ubiquitous to resolve lexically: almost every one
/// of these hits a std collection/iterator method, and resolving them
/// to a same-named workspace function would fabricate call edges (and
/// with them phantom lock cycles). The cost is an under-approximation:
/// a real call to a workspace function with one of these names is not
/// traversed. `docs/ANALYSIS.md` documents the trade.
pub const UNRESOLVED_METHODS: &[&str] = &[
    "get",
    "insert",
    "remove",
    "push",
    "pop",
    "len",
    "is_empty",
    "iter",
    "into_iter",
    "next",
    "clone",
    "contains",
    "contains_key",
    "entry",
    "extend",
    "clear",
    "retain",
    "keys",
    "values",
    "drain",
    "send",
    "map",
    "and_then",
    "ok_or_else",
    "unwrap_or",
    "filter",
    "collect",
    "to_owned",
    "to_string",
    "into",
    "from",
    "new",
    "default",
    "fmt",
    "eq",
    "cmp",
    "hash",
    "take",
    "as_ref",
    "as_mut",
    "min",
    "max",
    "sum",
    "position",
    "find",
    "any",
    "all",
    "sort",
];

/// Names too ambiguous to resolve in *any* call form: every type has a
/// `new`, `spawn` is both `thread::spawn` and various `Foo::spawn`
/// constructors, and `run` names a dozen unrelated entry points. A
/// lexical resolver following these fabricates call edges between
/// unrelated subsystems.
pub const UNRESOLVED_ANY: &[&str] = &["new", "spawn", "run", "default", "from", "main", "drop"];

/// Whether a call site should be resolved through the lexical call
/// graph.
pub fn resolvable(call: &Call) -> bool {
    !(call.is_macro
        || call.in_spawn
        || UNRESOLVED_ANY.contains(&call.name.as_str())
        || (call.is_method && UNRESOLVED_METHODS.contains(&call.name.as_str())))
}

/// Recognizes calls that block the current thread: sleeps, channel
/// receives, socket connects/round-trips and file I/O. Returns a short
/// description, or `None` for non-blocking calls.
///
/// `JoinHandle::join` is deliberately absent: `.join()` is dominated
/// by `PathBuf::join`/`slice::join` and cannot be told apart without
/// types. Thread joins on hot paths are caught indirectly — they
/// always sit next to a `spawn` or a channel the rules do see.
pub fn blocking_primitive(call: &Call) -> Option<&'static str> {
    if call.in_spawn {
        return None; // runs on the spawned thread, not the caller's
    }
    let q = call.qualifier.as_deref();
    match call.name.as_str() {
        "sleep" | "park" | "park_timeout" => Some("thread sleep"),
        "recv" | "recv_timeout" if call.is_method => Some("blocking channel recv"),
        "wait" | "wait_timeout" if call.is_method => Some("condvar wait"),
        "connect" | "connect_timeout" | "connect_with_timeouts" => Some("socket connect"),
        "request" | "request_frame" | "send_frame_nowait" if call.is_method => {
            Some("synchronous client socket round trip")
        }
        "write_all" | "read_exact" | "read_line" | "read_until" | "flush" if call.is_method => {
            Some("blocking stream I/O")
        }
        "read_to_string" | "create_dir_all" | "remove_file" | "rename" | "read_dir" | "copy"
        | "metadata" | "canonicalize" => Some("file I/O"),
        "sync_all" | "sync_data" if call.is_method => Some("file sync"),
        _ if q == Some("File") => Some("file I/O"),
        _ if q == Some("fs") => Some("file I/O"),
        _ if q == Some("TcpStream") && call.name.starts_with("connect") => Some("socket connect"),
        _ => None,
    }
}

/// Per-function memo of "does this function transitively reach a
/// blocking primitive", with the primitive description and the name of
/// the function that contains it.
pub struct BlockingIndex {
    memo: HashMap<(usize, usize), Option<(String, &'static str)>>,
}

impl BlockingIndex {
    /// Builds the (lazily filled) index.
    pub fn new() -> BlockingIndex {
        BlockingIndex {
            memo: HashMap::new(),
        }
    }

    /// Whether function `(fi, di)` transitively reaches a blocking
    /// primitive; returns `(containing function, description)`.
    pub fn blocks(
        &mut self,
        ws: &Workspace,
        key: (usize, usize),
    ) -> Option<(String, &'static str)> {
        if let Some(hit) = self.memo.get(&key) {
            return hit.clone();
        }
        // In-progress marker: recursion resolves as non-blocking; the
        // outermost frame still sees every acyclic path.
        self.memo.insert(key, None);
        let file = &ws.files[key.0];
        let def = &file.fns[key.1];
        let mut found = None;
        for call in file.calls(def) {
            if let Some(desc) = blocking_primitive(&call) {
                found = Some((def.name.clone(), desc));
                break;
            }
            if !resolvable(&call) {
                continue;
            }
            let candidates: Vec<(usize, usize)> = ws.resolve(&call.name).to_vec();
            for cand in candidates {
                if cand == key {
                    continue;
                }
                if let Some(hit) = self.blocks(ws, cand) {
                    found = Some(hit);
                    break;
                }
            }
            if found.is_some() {
                break;
            }
        }
        self.memo.insert(key, found.clone());
        found
    }
}

impl Default for BlockingIndex {
    fn default() -> Self {
        Self::new()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::model::SourceFile;
    use std::path::Path;

    fn ws(src: &str) -> Workspace {
        Workspace::new(vec![SourceFile::parse(
            Path::new("a.rs"),
            "a.rs".into(),
            src,
        )])
    }

    #[test]
    fn primitives_are_recognized() {
        let w = ws("fn f() { rx.recv(); thread::sleep(d); File::create(p); x.get(k); }");
        let calls = w.files[0].calls(&w.files[0].fns[0]);
        let descs: Vec<Option<&str>> = calls.iter().map(blocking_primitive).collect();
        assert_eq!(
            descs,
            vec![
                Some("blocking channel recv"),
                Some("thread sleep"),
                Some("file I/O"),
                None
            ]
        );
    }

    #[test]
    fn blocking_propagates_transitively_but_not_through_excluded_names() {
        let w = ws("fn a() { b(); }\nfn b() { c(); }\nfn c() { rx.recv(); }\nfn d() { x.get(y); }\nfn get() { rx.recv(); }");
        let mut idx = BlockingIndex::new();
        let hit = idx.blocks(&w, (0, 0)).unwrap();
        assert_eq!(hit.0, "c");
        // `.get()` is in the unresolved set: `d` must not pick up the
        // blocking body of the local fn named `get`.
        assert!(idx.blocks(&w, (0, 3)).is_none());
    }
}
