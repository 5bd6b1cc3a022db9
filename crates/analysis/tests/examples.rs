//! The repo's own example programs (`examples/programs/*.hope`) must stay
//! free of error-severity diagnostics, and the model checker must exhaust
//! each one's schedule space and confirm that verdict — the gates CI
//! enforces by running `hope-lint --mc` over each file.

use std::path::PathBuf;

use hope_analysis::{Analyzer, Severity};
use hope_core::program::Program;
use hope_mc::{check, Completeness, McConfig};

fn programs_dir() -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("../../examples/programs")
}

/// Every `examples/programs/*.hope` with its parsed program.
fn example_programs() -> Vec<(PathBuf, Program)> {
    let mut out = Vec::new();
    for entry in std::fs::read_dir(programs_dir()).expect("examples/programs exists") {
        let path = entry.expect("readable dir entry").path();
        if path.extension().is_none_or(|e| e != "hope") {
            continue;
        }
        let src = std::fs::read_to_string(&path).expect("readable program");
        let program: Program = src
            .parse()
            .unwrap_or_else(|e| panic!("{}: parse failure: {e}", path.display()));
        out.push((path, program));
    }
    assert!(
        out.len() >= 4,
        "expected the example programs, found {}",
        out.len()
    );
    out
}

/// Each example's schedule space is exhausted within 50,000 states, so
/// `hope-lint --mc` reports it `confirmed`: exhausted, and no pristine
/// schedule against an error diagnostic (that would be `refuted`).
#[test]
fn every_example_program_is_exhausted_and_confirmed() {
    let cfg = McConfig {
        max_states: 50_000,
        ..McConfig::default()
    };
    for (path, program) in example_programs() {
        let name = path.display();
        let report = check(&program, &cfg);
        assert_eq!(
            report.completeness,
            Completeness::Exhausted,
            "{name}: {} states",
            report.states
        );
        let has_error = !Analyzer::new().errors(&program).is_empty();
        assert!(
            !(has_error && report.pristine_witness.is_some()),
            "{name}: refuted — a pristine schedule exists despite an error diagnostic"
        );
    }
}

#[test]
fn every_example_program_is_error_free() {
    for (path, program) in example_programs() {
        let errors: Vec<_> = Analyzer::new()
            .analyze(&program)
            .into_iter()
            .filter(|d| d.severity == Severity::Error)
            .collect();
        assert!(
            errors.is_empty(),
            "{}: error diagnostics on a shipped example:\n{errors:?}",
            path.display()
        );
    }
}

#[test]
fn the_showcase_example_warns_exactly_as_its_header_promises() {
    // cascade_chain.hope exists to display the speculative-hazard
    // warnings; pin the set so the example and the analyzer cannot drift
    // apart silently.
    let src = std::fs::read_to_string(programs_dir().join("cascade_chain.hope")).expect("example");
    let program: Program = src.parse().expect("parses");
    let mut names: Vec<&str> = Analyzer::new()
        .analyze(&program)
        .iter()
        .map(|d| d.lint.name())
        .collect();
    names.sort_unstable();
    names.dedup();
    assert_eq!(
        names,
        vec![
            "cascade-depth",
            "dependent-deny",
            "ghost-risk",
            "guess-decide-race",
        ]
    );
}
