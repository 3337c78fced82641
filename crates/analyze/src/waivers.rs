//! Waiver application: inline `// analyze: allow(rule): reason`
//! comments plus the checked-in waiver file.
//!
//! Waiver-file grammar (one entry per line, `#` comments allowed):
//!
//! ```text
//! <rule> <file> <function|*> <justification...>
//! ```
//!
//! `<file>` matches a finding whose root-relative path *ends with* the
//! given component (so `fed.rs` matches `crates/service/src/fed.rs`).
//! `<function>` is the enclosing function name or `*` for the whole
//! file. Inline waivers match a finding on their exact line; the rule
//! name `*` waives every rule on that line. An entry that can waive
//! nothing — no scanned file ends with its `<file>`, or no such file
//! defines its `<function>` outside test code — is an error
//! ([`stale`]), so the file cannot outlive the code it excuses.

use crate::model::SourceFile;
use crate::report::Finding;

/// One parsed waiver-file entry.
#[derive(Debug, Clone)]
pub struct FileWaiver {
    /// Rule name or `*`.
    pub rule: String,
    /// File-path suffix the waiver applies to.
    pub file: String,
    /// Function name or `*`.
    pub function: String,
    /// Mandatory justification.
    pub reason: String,
}

/// Parses the waiver file contents. Malformed lines (fewer than four
/// fields — a waiver without a justification is not a waiver) are
/// returned as errors so the gate can refuse them loudly.
pub fn parse_waiver_file(text: &str) -> Result<Vec<FileWaiver>, String> {
    let mut out = Vec::new();
    for (n, line) in text.lines().enumerate() {
        let line = line.trim();
        if line.is_empty() || line.starts_with('#') {
            continue;
        }
        let mut parts = line.splitn(4, char::is_whitespace);
        let (rule, file, function, reason) = (
            parts.next().unwrap_or_default(),
            parts.next().unwrap_or_default(),
            parts.next().unwrap_or_default(),
            parts.next().unwrap_or_default().trim(),
        );
        if rule.is_empty() || file.is_empty() || function.is_empty() || reason.is_empty() {
            return Err(format!(
                "waiver file line {}: expected `<rule> <file> <function|*> <reason>`",
                n + 1
            ));
        }
        out.push(FileWaiver {
            rule: rule.to_owned(),
            file: file.to_owned(),
            function: function.to_owned(),
            reason: reason.to_owned(),
        });
    }
    Ok(out)
}

/// The waiver-file entries that can match no finding, one error text
/// each: those whose file suffix matches no scanned file, and those
/// whose function (other than `*`) no matching file defines outside
/// test code.
pub fn stale(file_waivers: &[FileWaiver], files: &[SourceFile]) -> Vec<String> {
    file_waivers
        .iter()
        .filter_map(|w| {
            let mut matching = files.iter().filter(|f| f.rel.ends_with(&w.file)).peekable();
            let entry = format!("`{} {} {}`", w.rule, w.file, w.function);
            if matching.peek().is_none() {
                Some(format!("{entry}: no scanned file ends with `{}`", w.file))
            } else if w.function != "*"
                && !matching.any(|f| f.fns.iter().any(|d| !d.is_test && d.name == w.function))
            {
                Some(format!(
                    "{entry}: no `{}` defines `fn {}`",
                    w.file, w.function
                ))
            } else {
                None
            }
        })
        .collect()
}

/// Splits raw findings into (unwaived, waived) by consulting inline
/// waivers in the scanned files and the waiver-file entries.
pub fn apply(
    mut findings: Vec<Finding>,
    files: &[SourceFile],
    file_waivers: &[FileWaiver],
) -> (Vec<Finding>, Vec<Finding>) {
    let mut live = Vec::new();
    let mut waived = Vec::new();
    for f in findings.drain(..) {
        let mut f = f;
        if let Some(why) = waiver_for(&f, files, file_waivers) {
            f.waived_by = Some(why);
            waived.push(f);
        } else {
            live.push(f);
        }
    }
    (live, waived)
}

fn waiver_for(f: &Finding, files: &[SourceFile], file_waivers: &[FileWaiver]) -> Option<String> {
    if let Some(src) = files.iter().find(|s| s.rel == f.file) {
        for w in &src.waivers {
            if w.line == f.line && (w.rule == f.rule || w.rule == "*") {
                return Some(format!("inline: {}", w.reason));
            }
        }
    }
    for w in file_waivers {
        if (w.rule == f.rule || w.rule == "*")
            && f.file.ends_with(&w.file)
            && (w.function == "*" || w.function == f.function)
        {
            return Some(format!("waiver file: {}", w.reason));
        }
    }
    None
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn waiver_file_parses_and_rejects_reasonless_lines() {
        let parsed = parse_waiver_file(
            "# comment\n\nreactor_blocking fed.rs recv_link link threads own the socket\n",
        )
        .unwrap();
        assert_eq!(parsed.len(), 1);
        assert_eq!(parsed[0].function, "recv_link");
        assert!(parse_waiver_file("panic_path fed.rs f").is_err());
    }

    #[test]
    fn waivers_for_missing_files_or_functions_are_stale() {
        let file = |rel: &str, src: &str| {
            SourceFile::parse(std::path::Path::new(rel), rel.to_owned(), src)
        };
        let files = [
            file("crates/service/src/fed.rs", "fn recv_link() {}"),
            file(
                "crates/service/src/json.rs",
                "#[cfg(test)]\nmod tests { fn helper() {} }",
            ),
        ];
        let ws = parse_waiver_file(
            "reactor_blocking fed.rs recv_link live\n\
             panic_path fed.rs * whole file\n\
             panic_path json/float.rs shl1 the file is gone\n\
             panic_path fed.rs send_link the function is gone\n\
             panic_path json.rs helper test code raises no finding\n",
        )
        .unwrap();
        assert_eq!(
            stale(&ws, &files),
            [
                "`panic_path json/float.rs shl1`: no scanned file ends with `json/float.rs`",
                "`panic_path fed.rs send_link`: no `fed.rs` defines `fn send_link`",
                "`panic_path json.rs helper`: no `json.rs` defines `fn helper`",
            ]
        );
    }

    #[test]
    fn file_waivers_match_by_suffix_and_function() {
        let finding = Finding {
            rule: "reactor_blocking",
            file: "crates/service/src/fed.rs".into(),
            line: 10,
            function: "recv_link".into(),
            message: "m".into(),
            waived_by: None,
        };
        let ws = parse_waiver_file("reactor_blocking fed.rs recv_link why\n").unwrap();
        let (live, waived) = apply(vec![finding.clone()], &[], &ws);
        assert!(live.is_empty());
        assert_eq!(waived.len(), 1);
        // Wrong function does not match.
        let ws = parse_waiver_file("reactor_blocking fed.rs other why\n").unwrap();
        let (live, _) = apply(vec![finding], &[], &ws);
        assert_eq!(live.len(), 1);
    }
}
