//! Findings and report rendering (human-readable and JSON).

/// One rule violation (or waived violation) at a source location.
#[derive(Debug, Clone)]
pub struct Finding {
    /// Rule family: `lock_order`, `reactor_blocking` or `panic_path`.
    pub rule: &'static str,
    /// Root-relative file path.
    pub file: String,
    /// 1-based source line (0 for file-level findings).
    pub line: u32,
    /// Enclosing function name (empty for file-level findings).
    pub function: String,
    /// Human-readable description.
    pub message: String,
    /// When waived: where the waiver came from (inline comment or the
    /// waiver file) plus its recorded justification.
    pub waived_by: Option<String>,
}

/// The full analysis result.
#[derive(Debug, Default)]
pub struct Analysis {
    /// Unwaived findings — any entry here fails the gate.
    pub findings: Vec<Finding>,
    /// Findings covered by a waiver (reported for transparency).
    pub waived: Vec<Finding>,
    /// The lock acquisition order derived from the workspace, as
    /// `file::lock` identifiers in before-to-after order.
    pub lock_order: Vec<String>,
}

impl Analysis {
    /// Whether the gate passes (no unwaived findings).
    pub fn clean(&self) -> bool {
        self.findings.is_empty()
    }

    /// Renders the human-readable report.
    pub fn to_text(&self) -> String {
        let mut out = String::new();
        if !self.lock_order.is_empty() {
            out.push_str("derived lock order (acquire left before right):\n  ");
            out.push_str(&self.lock_order.join(" < "));
            out.push('\n');
        }
        for rule in RULES {
            let hits: Vec<&Finding> = self.findings.iter().filter(|f| f.rule == *rule).collect();
            let waived = self.waived.iter().filter(|f| f.rule == *rule).count();
            out.push_str(&format!(
                "\n{rule}: {} finding(s), {} waived\n",
                hits.len(),
                waived
            ));
            for f in hits {
                out.push_str(&format!("  {}\n", render(f)));
            }
        }
        let verdict = if self.clean() { "CLEAN" } else { "FAIL" };
        out.push_str(&format!(
            "\n{verdict}: {} unwaived finding(s), {} waived\n",
            self.findings.len(),
            self.waived.len()
        ));
        out
    }

    /// Renders the `--json` report.
    pub fn to_json(&self) -> String {
        let mut out = String::from("{\"clean\":");
        out.push_str(if self.clean() { "true" } else { "false" });
        out.push_str(",\"lock_order\":[");
        for (i, l) in self.lock_order.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            push_json_str(&mut out, l);
        }
        out.push_str("],\"findings\":[");
        for (i, f) in self.findings.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            push_finding(&mut out, f);
        }
        out.push_str("],\"waived\":[");
        for (i, f) in self.waived.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            push_finding(&mut out, f);
        }
        out.push_str("]}");
        out
    }
}

/// The rule families, in report order.
pub const RULES: &[&str] = &["lock_order", "reactor_blocking", "panic_path"];

fn render(f: &Finding) -> String {
    if f.line == 0 {
        format!("{}: {}", f.file, f.message)
    } else if f.function.is_empty() {
        format!("{}:{}: {}", f.file, f.line, f.message)
    } else {
        format!("{}:{} ({}): {}", f.file, f.line, f.function, f.message)
    }
}

fn push_finding(out: &mut String, f: &Finding) {
    out.push_str("{\"rule\":");
    push_json_str(out, f.rule);
    out.push_str(",\"file\":");
    push_json_str(out, &f.file);
    out.push_str(&format!(",\"line\":{}", f.line));
    out.push_str(",\"function\":");
    push_json_str(out, &f.function);
    out.push_str(",\"message\":");
    push_json_str(out, &f.message);
    if let Some(w) = &f.waived_by {
        out.push_str(",\"waived_by\":");
        push_json_str(out, w);
    }
    out.push('}');
}

fn push_json_str(out: &mut String, s: &str) {
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
            c => out.push(c),
        }
    }
    out.push('"');
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn json_report_escapes_and_flags_cleanliness() {
        let mut a = Analysis::default();
        assert!(a.clean());
        assert!(a.to_json().starts_with("{\"clean\":true"));
        a.findings.push(Finding {
            rule: "panic_path",
            file: "a \"b\".rs".into(),
            line: 3,
            function: "f".into(),
            message: "x\ny".into(),
            waived_by: None,
        });
        let json = a.to_json();
        assert!(json.contains("\"clean\":false"));
        assert!(json.contains("a \\\"b\\\".rs"));
        assert!(json.contains("x\\ny"));
        assert!(a.to_text().contains("FAIL"));
    }
}
