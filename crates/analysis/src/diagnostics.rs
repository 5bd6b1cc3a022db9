//! The diagnostics vocabulary: lints, severities, and renderers.

use std::fmt;

use crate::json;

/// The static checks `hope-analysis` performs.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
#[non_exhaustive]
pub enum Lint {
    /// An AID is guessed but no `affirm`/`deny`/`free_of` of it exists
    /// anywhere, so the guesser can never become definite.
    LeakedSpeculation,
    /// A process guesses an AID and later asserts `free_of` of it with no
    /// intervening decider: Equation 19 turns the assertion into a
    /// self-rollback (or it is skipped as consumed) on every schedule.
    DoomedFreeOf,
    /// An AID is decided (`affirm`/`deny`/`free_of`) more than once; §5.2
    /// makes AIDs one-shot, so all but one decider is skipped or undone.
    ConsumedReassertion,
    /// A process executes more `recv` statements than messages the whole
    /// program can ever send to it, so it can never run to completion.
    UnreachableRecv,
    /// A statement names a process or AID the program does not declare
    /// (error — the machine would panic), or a process sends to itself
    /// (warning — legal but usually a mistake in a straight-line program).
    InvalidTarget,
    /// Denying one AID may roll back speculation across many processes;
    /// fired when the may-depend process set reaches a threshold.
    CascadeDepth,
    /// A `deny`/`free_of` may execute while the decider itself depends on
    /// the AID: Equation 15/19 makes that a definite self-deny that rolls
    /// the decider back and skips the statement's own re-execution
    /// (warning — the dependence may not materialize on every schedule).
    DependentDeny,
    /// A `send` whose tag may carry an AID that a `deny`/`free_of`
    /// elsewhere can condemn: the message may arrive as a ghost and be
    /// silently dropped (§7) (warning).
    GhostRisk,
    /// A `guess` of an AID that another process may deny first: the guess
    /// would return `false` with no causal link to the deny (warning).
    GuessDecideRace,
}

impl Lint {
    /// The lint's stable kebab-case name (used in renderers and CLI).
    pub fn name(self) -> &'static str {
        match self {
            Lint::LeakedSpeculation => "leaked-speculation",
            Lint::DoomedFreeOf => "doomed-free-of",
            Lint::ConsumedReassertion => "consumed-reassertion",
            Lint::UnreachableRecv => "unreachable-recv",
            Lint::InvalidTarget => "invalid-target",
            Lint::CascadeDepth => "cascade-depth",
            Lint::DependentDeny => "dependent-deny",
            Lint::GhostRisk => "ghost-risk",
            Lint::GuessDecideRace => "guess-decide-race",
        }
    }

    /// Every lint, in reporting order.
    pub fn all() -> [Lint; 9] {
        [
            Lint::InvalidTarget,
            Lint::LeakedSpeculation,
            Lint::DoomedFreeOf,
            Lint::ConsumedReassertion,
            Lint::UnreachableRecv,
            Lint::CascadeDepth,
            Lint::DependentDeny,
            Lint::GhostRisk,
            Lint::GuessDecideRace,
        ]
    }
}

impl fmt::Display for Lint {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.name())
    }
}

/// How bad a diagnostic is.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum Severity {
    /// Suspicious but legal; the program may still run to full
    /// finalization.
    Warning,
    /// Statically doomed: **no** schedule lets the program run to full
    /// finalization (completion with every process definite and no
    /// rollback, ghost, or skipped primitive). These are what
    /// [`Analyzer::errors`](crate::Analyzer::errors) returns.
    Error,
}

impl Severity {
    /// `"warning"` or `"error"`.
    pub fn name(self) -> &'static str {
        match self {
            Severity::Warning => "warning",
            Severity::Error => "error",
        }
    }
}

impl fmt::Display for Severity {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.name())
    }
}

/// One finding of the analyzer.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Diagnostic {
    /// Which check fired.
    pub lint: Lint,
    /// How bad it is.
    pub severity: Severity,
    /// The process the finding is anchored to, if any.
    pub proc: Option<usize>,
    /// The statement index within that process, if any.
    pub stmt_idx: Option<usize>,
    /// The AID variable the finding is about, if any. Not rendered (the
    /// message already names it); used programmatically, e.g. by the
    /// dynamic race detector's coverage check.
    pub aid: Option<usize>,
    /// Human-readable explanation.
    pub message: String,
}

impl Diagnostic {
    /// Build an error diagnostic anchored at `proc`/`stmt_idx`.
    pub fn error(lint: Lint, proc: usize, stmt_idx: usize, message: impl Into<String>) -> Self {
        Diagnostic {
            lint,
            severity: Severity::Error,
            proc: Some(proc),
            stmt_idx: Some(stmt_idx),
            aid: None,
            message: message.into(),
        }
    }

    /// Build a warning diagnostic anchored at `proc`/`stmt_idx`.
    pub fn warning(lint: Lint, proc: usize, stmt_idx: usize, message: impl Into<String>) -> Self {
        Diagnostic {
            lint,
            severity: Severity::Warning,
            proc: Some(proc),
            stmt_idx: Some(stmt_idx),
            aid: None,
            message: message.into(),
        }
    }

    /// Attach the AID variable the finding is about.
    pub fn with_aid(mut self, aid: usize) -> Self {
        self.aid = Some(aid);
        self
    }
}

impl fmt::Display for Diagnostic {
    /// The one-line text form: `error[lint] P0:3: message`.
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}[{}]", self.severity, self.lint)?;
        match (self.proc, self.stmt_idx) {
            (Some(p), Some(i)) => write!(f, " P{p}:{i}")?,
            (Some(p), None) => write!(f, " P{p}")?,
            _ => {}
        }
        write!(f, ": {}", self.message)
    }
}

/// Render diagnostics as one line each, ending with a summary line.
pub fn render_text(diagnostics: &[Diagnostic]) -> String {
    let mut out = String::new();
    for d in diagnostics {
        out.push_str(&d.to_string());
        out.push('\n');
    }
    let errors = diagnostics
        .iter()
        .filter(|d| d.severity == Severity::Error)
        .count();
    let warnings = diagnostics.len() - errors;
    out.push_str(&format!(
        "{} error{}, {} warning{}\n",
        errors,
        if errors == 1 { "" } else { "s" },
        warnings,
        if warnings == 1 { "" } else { "s" },
    ));
    out
}

/// Render diagnostics as a JSON array, one object per line, with keys
/// `lint`, `severity`, `proc`, `stmt`, and `message` (`proc`/`stmt` are
/// `null` for program-level findings).
pub fn render_json(diagnostics: &[Diagnostic]) -> String {
    let or_null = |n: Option<usize>| n.map_or_else(|| "null".into(), |n| n.to_string());
    json::array_lines(diagnostics.iter().map(|d| {
        json::object([
            ("lint", json::string(d.lint.name())),
            ("severity", json::string(d.severity.name())),
            ("proc", or_null(d.proc)),
            ("stmt", or_null(d.stmt_idx)),
            ("message", json::string(&d.message)),
        ])
    })) + "\n"
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display_renders_site_and_message() {
        let d = Diagnostic::error(Lint::DoomedFreeOf, 0, 3, "free_of of a guessed AID");
        assert_eq!(
            d.to_string(),
            "error[doomed-free-of] P0:3: free_of of a guessed AID"
        );
        let d = Diagnostic {
            lint: Lint::LeakedSpeculation,
            severity: Severity::Error,
            proc: None,
            stmt_idx: None,
            aid: None,
            message: "x0 never decided".into(),
        };
        assert_eq!(d.to_string(), "error[leaked-speculation]: x0 never decided");
    }

    #[test]
    fn text_renderer_counts_severities() {
        let ds = vec![
            Diagnostic::error(Lint::UnreachableRecv, 1, 0, "a"),
            Diagnostic::warning(Lint::CascadeDepth, 0, 0, "b"),
            Diagnostic::warning(Lint::InvalidTarget, 0, 1, "c"),
        ];
        let text = render_text(&ds);
        assert!(text.ends_with("1 error, 2 warnings\n"), "{text}");
        assert_eq!(text.lines().count(), 4);
    }

    #[test]
    fn json_renderer_nulls_missing_sites() {
        let ds = vec![Diagnostic {
            lint: Lint::InvalidTarget,
            severity: Severity::Warning,
            proc: Some(2),
            stmt_idx: None,
            aid: None,
            message: "m".into(),
        }];
        let json = render_json(&ds);
        assert!(json.contains("\"proc\": 2, \"stmt\": null"), "{json}");
        assert_eq!(render_json(&[]), "[]\n");
    }
}
