//! Diagnostic types and rendering (human and machine-readable).

use serde::Serialize;

/// How a rule's findings gate CI.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Severity {
    /// Any finding fails the run.
    Error,
    /// Reported, never fails the run (hygiene signals, unused pragmas).
    Warn,
    /// Findings are *counted* and compared against the committed ratchet
    /// baseline; the run fails only if the count increases.
    Ratchet,
}

impl Severity {
    /// Lowercase label used in human output and JSON.
    #[must_use]
    pub fn as_str(self) -> &'static str {
        match self {
            Severity::Error => "error",
            Severity::Warn => "warn",
            Severity::Ratchet => "ratchet",
        }
    }
}

/// One diagnostic: a rule firing at a source position.
#[derive(Debug, Clone)]
pub struct Finding {
    /// Rule identifier (kebab-case, e.g. `hash-collections`).
    pub rule: &'static str,
    /// Gate class of the rule that fired.
    pub severity: Severity,
    /// Workspace-relative path, `/`-separated.
    pub path: String,
    /// 1-based line.
    pub line: usize,
    /// 1-based column (byte-based).
    pub col: usize,
    /// What was found and why it matters.
    pub message: String,
    /// The offending source line, trimmed.
    pub excerpt: String,
    /// Enclosing item path (`serve::FleetShard::advance_to`), when the finding
    /// sits inside a segmented item.
    pub item: Option<String>,
}

impl Finding {
    /// `severity[rule]: path:line:col (in item) — message` plus the
    /// excerpt line.
    #[must_use]
    pub fn render(&self) -> String {
        let item = self.item.as_ref().map(|i| format!(" (in {i})")).unwrap_or_default();
        format!(
            "{}[{}]: {}:{}:{}{} — {}\n    | {}",
            self.severity.as_str(),
            self.rule,
            self.path,
            self.line,
            self.col,
            item,
            self.message,
            self.excerpt
        )
    }
}

/// Serializable mirror of [`Finding`] for `--json` output (the vendored
/// serde derives on owned field types only).
#[derive(Debug, Serialize)]
pub struct FindingJson {
    /// Rule identifier.
    pub rule: String,
    /// Severity label (`error` / `warn` / `ratchet`).
    pub severity: String,
    /// Workspace-relative path.
    pub path: String,
    /// 1-based line.
    pub line: usize,
    /// 1-based column.
    pub col: usize,
    /// Human message.
    pub message: String,
    /// Offending line, trimmed.
    pub excerpt: String,
    /// Enclosing item path, when known.
    pub item: Option<String>,
}

impl From<&Finding> for FindingJson {
    fn from(f: &Finding) -> Self {
        FindingJson {
            rule: f.rule.to_string(),
            severity: f.severity.as_str().to_string(),
            path: f.path.clone(),
            line: f.line,
            col: f.col,
            message: f.message.clone(),
            excerpt: f.excerpt.clone(),
            item: f.item.clone(),
        }
    }
}
