//! Lint results: violations, allowlist suppressions and the per-rule
//! summary, serializable through the vendored serde stub so `repro lint
//! --json` artifacts round-trip like every other report in the
//! workspace.

use serde::{Deserialize, Serialize};

use crate::rules;

/// One rule violation at a specific source line.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct Violation {
    /// Stable error code, e.g. `AMRM-L001`.
    pub code: String,
    /// Path relative to the scan root.
    pub file: String,
    /// 1-based line number.
    pub line: usize,
    /// The offending source line, trimmed.
    pub excerpt: String,
    /// One-line fix hint.
    pub hint: String,
}

/// A violation suppressed by a justified `lint.allow` entry.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct Suppression {
    /// The suppressed rule code.
    pub code: String,
    /// Path relative to the scan root.
    pub file: String,
    /// 1-based line number of the suppressed violation.
    pub line: usize,
    /// The allowlist entry's reason string.
    pub reason: String,
}

/// Per-rule tallies — every registered rule appears, zeros included, so
/// downstream greps can assert a rule ran rather than silently no-op.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct RuleCount {
    /// Stable error code.
    pub code: String,
    /// Short rule name.
    pub name: String,
    /// Violations after allowlisting.
    pub violations: usize,
    /// Violations suppressed by the allowlist.
    pub allowed: usize,
}

/// The complete result of one lint pass.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct LintReport {
    /// Scan root (for display only; paths in the report are relative).
    pub root: String,
    /// Number of `.rs` files scanned.
    pub files_scanned: usize,
    /// Per-rule tallies in rule-code order, zeros included.
    pub rules: Vec<RuleCount>,
    /// Violations after allowlisting, sorted by (file, line, code).
    pub violations: Vec<Violation>,
    /// Allowlist suppressions, sorted by (file, line, code).
    pub allowed: Vec<Suppression>,
}

impl LintReport {
    /// Whether the pass found no violations (stale allowlist entries
    /// included — they surface as `AMRM-L008` violations).
    pub fn is_clean(&self) -> bool {
        self.violations.is_empty()
    }

    /// Builds the per-rule tally rows from the flat lists, zeros
    /// included for every registered rule.
    pub fn tally(violations: &[Violation], allowed: &[Suppression]) -> Vec<RuleCount> {
        rules::all()
            .iter()
            .map(|rule| RuleCount {
                code: rule.code.to_string(),
                name: rule.name.to_string(),
                violations: violations.iter().filter(|v| v.code == rule.code).count(),
                allowed: allowed.iter().filter(|s| s.code == rule.code).count(),
            })
            .collect()
    }
}

/// Renders the human-readable report: the rule table, then each
/// violation with its fix hint, then the suppression tally.
pub fn render(report: &LintReport) -> String {
    let mut out = String::new();
    out.push_str(&format!(
        "amrm-lint: {} files scanned under {}\n\n",
        report.files_scanned, report.root
    ));
    out.push_str("code       rule                  violations  allowed\n");
    out.push_str("---------  --------------------  ----------  -------\n");
    for r in &report.rules {
        out.push_str(&format!(
            "{:<9}  {:<20}  {:>10}  {:>7}\n",
            r.code, r.name, r.violations, r.allowed
        ));
    }
    if !report.violations.is_empty() {
        out.push('\n');
        for v in &report.violations {
            out.push_str(&format!(
                "{}:{}: [{}] {}\n    hint: {}\n",
                v.file, v.line, v.code, v.excerpt, v.hint
            ));
        }
    }
    out.push_str(&format!(
        "\n{} violation(s), {} allowlisted exception(s)\n",
        report.violations.len(),
        report.allowed.len()
    ));
    out
}
