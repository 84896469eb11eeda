//! The diagnostic engine: lint identities, severities, spans and reports.

use std::fmt;

use mssp_isa::PcSpan;

/// How bad a finding is.
///
/// Errors are structural soundness violations (the engine can hang or storm
/// squashes on them); warnings are performance hazards and smells that
/// still leave MSSP correct.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum Severity {
    /// Performance hazard or suspicious structure; MSSP stays correct.
    Warning,
    /// Structural obligation violated; run-time misbehaviour is likely.
    Error,
}

impl fmt::Display for Severity {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(match self {
            Severity::Warning => "warning",
            Severity::Error => "error",
        })
    }
}

/// Which address space a diagnostic's span lives in.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum AddrSpace {
    /// Original-program addresses (slave / architected space).
    Original,
    /// Distilled-program addresses (master space).
    Distilled,
}

impl fmt::Display for AddrSpace {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(match self {
            AddrSpace::Original => "original",
            AddrSpace::Distilled => "distilled",
        })
    }
}

/// The identity of one lint check.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum LintId {
    /// A task boundary has no distilled-PC correspondence.
    BoundaryUnmapped,
    /// A statically inferred task live-in is not covered by the distilled
    /// image feeding the master's checkpoint overlay.
    LiveinsUncovered,
    /// An asserted branch's training bias is below the configured
    /// threshold (or the branch was never executed in training).
    AssertUnjustified,
    /// Control can leave the text segment: distilled control falls through
    /// off its end, or a direct jump or branch of either program targets
    /// a PC outside it.
    CfgFallthroughOffEnd,
    /// Distilled code unreachable from every master entry point.
    UnreachableAfterAssert,
    /// A task boundary placed in code the training run never crossed.
    BoundaryInColdCode,
    /// A register write in the distilled program whose value is never
    /// observed.
    DeadStoreInDistilled,
    /// The boundary set degenerated to the entry PC alone.
    DegenerateBoundarySet,
    /// A pre-computation slice reads values that are not available at
    /// spawn time (undeclared inputs, stores, control flow), or is not
    /// the short straight-line program its kind promises.
    SliceUnsound,
}

impl LintId {
    /// Every lint, in a stable order.
    pub const ALL: [LintId; 9] = [
        LintId::BoundaryUnmapped,
        LintId::LiveinsUncovered,
        LintId::AssertUnjustified,
        LintId::CfgFallthroughOffEnd,
        LintId::UnreachableAfterAssert,
        LintId::BoundaryInColdCode,
        LintId::DeadStoreInDistilled,
        LintId::DegenerateBoundarySet,
        LintId::SliceUnsound,
    ];

    /// The lint's kebab-case name, as shown in reports.
    #[must_use]
    pub(crate) fn name(self) -> &'static str {
        match self {
            LintId::BoundaryUnmapped => "boundary-unmapped",
            LintId::LiveinsUncovered => "liveins-uncovered",
            LintId::AssertUnjustified => "assert-unjustified",
            LintId::CfgFallthroughOffEnd => "cfg-fallthrough-off-end",
            LintId::UnreachableAfterAssert => "unreachable-after-assert",
            LintId::BoundaryInColdCode => "boundary-in-cold-code",
            LintId::DeadStoreInDistilled => "dead-store-in-distilled",
            LintId::DegenerateBoundarySet => "degenerate-boundary-set",
            LintId::SliceUnsound => "slice-unsound",
        }
    }

    /// The severity findings of this lint carry.
    #[must_use]
    pub(crate) fn severity(self) -> Severity {
        match self {
            LintId::BoundaryUnmapped
            | LintId::LiveinsUncovered
            | LintId::CfgFallthroughOffEnd
            | LintId::SliceUnsound => Severity::Error,
            LintId::AssertUnjustified
            | LintId::UnreachableAfterAssert
            | LintId::BoundaryInColdCode
            | LintId::DeadStoreInDistilled
            | LintId::DegenerateBoundarySet => Severity::Warning,
        }
    }
}

impl fmt::Display for LintId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.name())
    }
}

/// One finding: a lint, where it fired, and why.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Diagnostic {
    /// Which check fired.
    pub lint: LintId,
    /// The finding's severity (the lint's default severity).
    pub severity: Severity,
    /// Where it fired.
    pub span: PcSpan,
    /// Which address space `span` is in.
    pub space: AddrSpace,
    /// Human-readable explanation.
    pub message: String,
}

impl Diagnostic {
    /// Builds a diagnostic with the lint's default severity.
    #[must_use]
    pub(crate) fn new(lint: LintId, span: PcSpan, space: AddrSpace, message: String) -> Diagnostic {
        Diagnostic {
            lint,
            severity: lint.severity(),
            span,
            space,
            message,
        }
    }
}

impl fmt::Display for Diagnostic {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{}[{}] {} ({}): {}",
            self.severity, self.lint, self.span, self.space, self.message
        )
    }
}

/// A collection of findings plus renderers for terminals and tooling.
#[derive(Debug, Clone, Default)]
pub struct Report {
    diagnostics: Vec<Diagnostic>,
}

impl Report {
    /// An empty report.
    #[must_use]
    pub(crate) fn new() -> Report {
        Report::default()
    }

    /// Appends a finding.
    pub(crate) fn push(&mut self, d: Diagnostic) {
        self.diagnostics.push(d);
    }

    /// Sorts findings: errors first, then by address space and span.
    pub(crate) fn sort(&mut self) {
        self.diagnostics.sort_by(|a, b| {
            b.severity
                .cmp(&a.severity)
                .then(a.space.cmp(&b.space))
                .then(a.span.cmp(&b.span))
                .then(a.lint.cmp(&b.lint))
        });
    }

    /// All findings.
    pub fn iter(&self) -> impl Iterator<Item = &Diagnostic> {
        self.diagnostics.iter()
    }

    /// Number of findings.
    #[must_use]
    pub(crate) fn len(&self) -> usize {
        self.diagnostics.len()
    }

    /// Whether the report is empty.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.diagnostics.is_empty()
    }

    /// Number of error-severity findings.
    #[must_use]
    pub fn errors(&self) -> usize {
        self.iter()
            .filter(|d| d.severity == Severity::Error)
            .count()
    }

    /// Number of warning-severity findings.
    #[must_use]
    pub(crate) fn warnings(&self) -> usize {
        self.iter()
            .filter(|d| d.severity == Severity::Warning)
            .count()
    }

    /// Whether any error-severity finding is present (the CLI's non-zero
    /// exit condition).
    #[must_use]
    pub fn has_errors(&self) -> bool {
        self.errors() > 0
    }

    /// Findings of one lint, in report order.
    pub fn of(&self, lint: LintId) -> impl Iterator<Item = &Diagnostic> {
        self.iter().filter(move |d| d.lint == lint)
    }

    /// Renders the report for a terminal: one line per finding plus a
    /// summary line.
    #[must_use]
    pub fn render_text(&self) -> String {
        let mut out = String::new();
        for d in &self.diagnostics {
            out.push_str(&d.to_string());
            out.push('\n');
        }
        out.push_str(&format!(
            "{} finding{} ({} error{}, {} warning{})\n",
            self.len(),
            plural(self.len()),
            self.errors(),
            plural(self.errors()),
            self.warnings(),
            plural(self.warnings()),
        ));
        out
    }

    /// Renders the report as machine-readable JSON.
    #[must_use]
    pub fn render_json(&self) -> String {
        let mut out = String::from("{\"findings\":[");
        for (i, d) in self.diagnostics.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            out.push_str(&format!(
                "{{\"lint\":\"{}\",\"severity\":\"{}\",\"space\":\"{}\",\
                 \"start\":\"{:#x}\",\"end\":\"{:#x}\",\"message\":\"{}\"}}",
                d.lint,
                d.severity,
                d.space,
                d.span.start,
                d.span.end,
                escape_json(&d.message)
            ));
        }
        out.push_str(&format!(
            "],\"errors\":{},\"warnings\":{}}}",
            self.errors(),
            self.warnings()
        ));
        out
    }
}

fn plural(n: usize) -> &'static str {
    if n == 1 {
        ""
    } else {
        "s"
    }
}

/// Escapes `s` for a JSON string literal, as [`Report::render_json`]
/// escapes each message: quotes, backslashes and control characters.
///
/// # Examples
///
/// ```
/// use mssp_lint::escape_json;
///
/// assert_eq!(escape_json(r#"a"b\c"#), r#"a\"b\\c"#);
/// ```
#[must_use]
pub fn escape_json(s: &str) -> String {
    let mut out = String::with_capacity(s.len());
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\t' => out.push_str("\\t"),
            '\r' => out.push_str("\\r"),
            c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
            c => out.push(c),
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> Report {
        let mut r = Report::new();
        r.push(Diagnostic::new(
            LintId::DeadStoreInDistilled,
            PcSpan::point(0x80_0000),
            AddrSpace::Distilled,
            "write to a0 at 0x800000 is dead".into(),
        ));
        r.push(Diagnostic::new(
            LintId::BoundaryUnmapped,
            PcSpan::point(0x1_0008),
            AddrSpace::Original,
            "task boundary 0x10008 has no distilled-PC correspondence".into(),
        ));
        r.sort();
        r
    }

    #[test]
    fn errors_sort_before_warnings() {
        let r = sample();
        let first = r.iter().next().unwrap();
        assert_eq!(first.lint, LintId::BoundaryUnmapped);
        assert_eq!(first.severity, Severity::Error);
        assert!(r.has_errors());
        assert_eq!((r.errors(), r.warnings()), (1, 1));
    }

    #[test]
    fn text_render_carries_ids_and_spans() {
        let text = sample().render_text();
        assert!(text.contains("error[boundary-unmapped] 0x10008..0x1000c (original)"));
        assert!(text.contains("warning[dead-store-in-distilled]"));
        assert!(text.contains("2 findings (1 error, 1 warning)"));
    }

    #[test]
    fn json_render_is_well_formed() {
        let json = sample().render_json();
        assert!(json.starts_with("{\"findings\":["));
        assert!(json.ends_with("],\"errors\":1,\"warnings\":1}"));
        assert!(json.contains("\"lint\":\"boundary-unmapped\""));
        assert!(json.contains("\"start\":\"0x10008\""));
        // Balanced braces (no stray quotes breaking the structure).
        assert_eq!(json.matches('{').count(), json.matches('}').count());
    }

    #[test]
    fn json_escapes_special_characters() {
        let mut r = Report::new();
        r.push(Diagnostic::new(
            LintId::DegenerateBoundarySet,
            PcSpan::point(0),
            AddrSpace::Original,
            "quote \" backslash \\ newline \n".into(),
        ));
        let json = r.render_json();
        assert!(json.contains("quote \\\" backslash \\\\ newline \\n"));
    }

    #[test]
    fn every_lint_has_a_unique_name() {
        let names: std::collections::BTreeSet<&str> =
            LintId::ALL.iter().map(|l| l.name()).collect();
        assert_eq!(names.len(), LintId::ALL.len());
    }
}
