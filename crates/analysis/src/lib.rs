//! # hope-analysis — static speculation-flow analysis for HOPE programs
//!
//! The HOPE semantics (Cowan & Lutfiyya, PODC 1995) makes several misuses
//! of the optimism primitives *dynamically* fatal: a re-used assumption
//! identifier is skipped (§5.2's one-shot rule), a `free_of` of an AID the
//! asserter depends on denies it and rolls the asserter back (Equation 19),
//! and a guessed AID nobody ever decides pins its guesser speculative
//! forever. This crate finds those shapes **before** running the program,
//! by abstract interpretation over [`hope_core::program::Program`]:
//!
//! * [`flow`] computes, per process and program point, an over-approximate
//!   *may*-IDO set — the AIDs the process's state may depend on — and
//!   propagates dependence across `send`/`recv` edges through message tags
//!   to a joint fixpoint (§3's implicit guess, statically).
//! * [`lints`] interprets the flow through nine checks; every
//!   [`Severity::Error`] finding carries a machine-checked guarantee: *no*
//!   schedule lets the program run to full finalization (see the agreement
//!   test-suite in `tests/`).
//! * [`cost`] ranks every `guess` site by expected rollback damage
//!   (re-execution, checkpoint, and ghost-message components weighed over
//!   the may-IDO fixpoint).
//! * [`diagnostics`] renders findings as one-line text or JSON.
//! * [`json`] is the workspace's one JSON writer: `hope-lint --json` and
//!   the bench harness's `tables --json` both write through it.
//! * [`dynamic`] is the runtime side: a [`hope_core::RuntimeObserver`]
//!   race detector whose reports the agreement suite checks against the
//!   static warnings.
//!
//! The [`Analyzer`] bundles the passes. [`Analyzer::errors`] is the check
//! to run before a machine: a program it flags cannot finalize on any
//! schedule.
//!
//! ```
//! use hope_analysis::{Analyzer, Lint};
//! use hope_core::machine::Machine;
//! use hope_core::program::{Program, Stmt};
//!
//! // guess(x0) … free_of(x0): Equation 19 dooms this on every schedule.
//! let doomed = Program::new(vec![vec![Stmt::Guess(0), Stmt::FreeOf(0)]]);
//! let errors = Analyzer::default().errors(&doomed);
//! assert_eq!(errors[0].lint, Lint::DoomedFreeOf);
//!
//! let fine = Program::new(vec![
//!     vec![Stmt::Guess(0), Stmt::Compute],
//!     vec![Stmt::Affirm(0)],
//! ]);
//! assert!(Analyzer::default().errors(&fine).is_empty());
//! assert!(Machine::new(fine).run(100).completed);
//! ```
//!
//! The `hope-lint` binary exposes the same analysis on the command line.

#![forbid(unsafe_code)]
#![deny(missing_docs)]
#![warn(missing_debug_implementations)]

pub mod cost;
pub mod diagnostics;
pub mod dynamic;
pub mod flow;
pub mod json;
pub mod lints;

pub use cost::{rank, rank_with, CostWeights, SpeculationCost};
pub use diagnostics::{render_json, render_text, Diagnostic, Lint, Severity};
pub use dynamic::{covered_by, RaceDetector, RaceKind, RaceReport};
pub use flow::{analyze as analyze_flow, DeciderKind, Flow};

use hope_core::program::Program;

/// Default [`Analyzer::cascade_threshold`]: warn when a single deny may
/// roll back three or more processes.
pub const DEFAULT_CASCADE_THRESHOLD: usize = 3;

/// The bundled static analyzer: runs the flow pass and every lint.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Analyzer {
    /// Minimum may-depend process count at which
    /// [`Lint::CascadeDepth`] warns.
    pub cascade_threshold: usize,
}

impl Default for Analyzer {
    fn default() -> Self {
        Analyzer {
            cascade_threshold: DEFAULT_CASCADE_THRESHOLD,
        }
    }
}

impl Analyzer {
    /// An analyzer with the default configuration.
    pub fn new() -> Self {
        Analyzer::default()
    }

    /// Set the [`Lint::CascadeDepth`] warning threshold.
    pub fn with_cascade_threshold(mut self, threshold: usize) -> Self {
        self.cascade_threshold = threshold;
        self
    }

    /// Run every lint over `program`.
    ///
    /// Findings are ordered by site (process, then statement index;
    /// program-level findings first within a process), then by lint, so
    /// output is deterministic and diff-friendly.
    pub fn analyze(&self, program: &Program) -> Vec<Diagnostic> {
        self.analyze_with_flow(program).0
    }

    /// Like [`Analyzer::analyze`], but also returns the flow results (for
    /// tooling that wants the may-IDO sets themselves).
    pub fn analyze_with_flow(&self, program: &Program) -> (Vec<Diagnostic>, Flow) {
        let flow = flow::analyze(program);
        let mut out = Vec::new();
        out.extend(lints::invalid_target(program, &flow));
        out.extend(lints::leaked_speculation(program, &flow));
        out.extend(lints::doomed_free_of(program, &flow));
        out.extend(lints::consumed_reassertion(program, &flow));
        out.extend(lints::unreachable_recv(program, &flow));
        out.extend(lints::cascade_depth(program, &flow, self.cascade_threshold));
        out.extend(lints::dependent_deny(program, &flow));
        out.extend(lints::ghost_risk(program, &flow));
        out.extend(lints::guess_decide_race(program, &flow));
        out.sort_by_key(|d| (d.proc, d.stmt_idx, d.lint));
        (out, flow)
    }

    /// The error-severity subset of [`Analyzer::analyze`].
    pub fn errors(&self, program: &Program) -> Vec<Diagnostic> {
        self.analyze(program)
            .into_iter()
            .filter(|d| d.severity == Severity::Error)
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use hope_core::program::Stmt;

    #[test]
    fn analyzer_orders_findings_by_site() {
        let program = Program::new(vec![
            vec![Stmt::Guess(0), Stmt::FreeOf(0)],
            vec![Stmt::Recv, Stmt::Guess(1)],
        ]);
        let ds = Analyzer::new().analyze(&program);
        let sites: Vec<(Option<usize>, Option<usize>)> =
            ds.iter().map(|d| (d.proc, d.stmt_idx)).collect();
        let mut sorted = sites.clone();
        sorted.sort();
        assert_eq!(sites, sorted);
        assert!(ds.iter().any(|d| d.lint == Lint::DoomedFreeOf));
        assert!(ds.iter().any(|d| d.lint == Lint::UnreachableRecv));
        assert!(ds.iter().any(|d| d.lint == Lint::LeakedSpeculation));
    }

    #[test]
    fn validator_passes_warnings_blocks_errors() {
        // Self-send is only a warning: no error.
        let warn_only = Program::new(vec![vec![Stmt::Send { to: 0 }, Stmt::Recv]]);
        assert!(Analyzer::new().errors(&warn_only).is_empty());

        let doomed = Program::new(vec![vec![Stmt::Guess(0)]]);
        let errors = Analyzer::new().errors(&doomed);
        assert_eq!(errors.len(), 1);
        let reason = errors[0].to_string();
        assert!(
            reason.starts_with("error[leaked-speculation] P0:0:"),
            "{reason}"
        );
    }

    #[test]
    fn threshold_is_configurable() {
        let program = Program::new(vec![
            vec![Stmt::Guess(0), Stmt::Send { to: 1 }, Stmt::Affirm(0)],
            vec![Stmt::Recv],
        ]);
        assert!(Analyzer::new().analyze(&program).is_empty());
        let strict = Analyzer::new().with_cascade_threshold(2);
        let ds = strict.analyze(&program);
        assert_eq!(ds.len(), 1);
        assert_eq!(ds[0].lint, Lint::CascadeDepth);
        assert_eq!(ds[0].severity, Severity::Warning);
    }
}
