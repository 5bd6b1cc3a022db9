//! **E17 — model checking: the reduction and schedule-complete
//! verdicts**: what exhaustive exploration costs and what sampling missed.
//!
//! Two explorations of the same schedule spaces, per corpus:
//!
//! * **naive** — every interleaving, no canonical-state cache, no
//!   reduction: the raw size of the space;
//! * **reduced** — canonical-state cache + sleep sets + persistent
//!   singletons, the configuration every consumer uses.
//!
//! Each corpus row also compares the *schedule-complete* pristine verdict
//! (does any schedule run to full finalization?) against the sampled
//! verdict the agreement suite used before `hope-mc` existed — a
//! round-robin schedule plus 12 seeded random schedules. Sampling may
//! *miss* pristine schedules (counted per corpus); it must never find one
//! the full space lacks (asserted zero — that would be a model-checker
//! soundness bug, not a sampling artefact).
//!
//! The two-process 7⁴ corpus is the honest place to measure reduction:
//! its programs actually interleave. The 7³ corpus is single-process —
//! exactly one schedule per program — so its naive/reduced ratio is 1 by
//! construction and is reported only as a baseline.

use hope_core::machine::Machine;
use hope_core::program::{Program, Stmt};
use hope_core::NullObserver;
use hope_mc::{check, McConfig, McReport, Mode};

use crate::table::Table;

/// Seeded random schedules per program for the sampled verdict (matches
/// the pre-`hope-mc` agreement suite).
const SCHEDULE_SEEDS: u64 = 12;
/// Fuel per sampled run.
const FUEL: u64 = 500;

/// Aggregates for one corpus.
#[derive(Debug, Clone)]
pub struct E17Row {
    /// Corpus label.
    pub corpus: String,
    /// Programs explored.
    pub programs: usize,
    /// Transitions over all programs, naive exploration.
    pub naive_transitions: u64,
    /// Transitions, reduced exploration.
    pub reduced_transitions: u64,
    /// Canonical states, reduced exploration.
    pub reduced_states: u64,
    /// naive / reduced transition ratio.
    pub prune_ratio: f64,
    /// Programs with a pristine schedule (schedule-complete verdict).
    pub pristine_full: usize,
    /// Programs the 13-schedule sample calls pristine.
    pub pristine_sampled: usize,
    /// Pristine programs whose witnesses all lie outside the sample.
    pub sampling_missed: usize,
}

/// Did this run reach full finalization ([`hope_mc::is_pristine`])?
fn pristine_under(program: &Program, seed: Option<u64>) -> bool {
    let mut m = Machine::new(program.clone());
    let report = m.run_with(FUEL, seed, &mut NullObserver);
    report.completed && hope_mc::is_pristine(&m)
}

fn sampled_pristine(program: &Program) -> bool {
    pristine_under(program, None) || (0..SCHEDULE_SEEDS).any(|s| pristine_under(program, Some(s)))
}

fn explore(program: &Program, mode: Mode) -> McReport {
    let cfg = McConfig {
        mode,
        ..McConfig::default()
    };
    let report = check(program, &cfg);
    assert!(
        report.completeness.is_exhausted(),
        "E17 corpus program exceeded the budget under {mode:?}:\n{program}"
    );
    report
}

/// Explore every program in `programs` under both modes and compare
/// full-space verdicts against sampled ones.
///
/// # Panics
///
/// Panics if the two modes disagree on a verdict, if sampling
/// finds a pristine schedule the full space lacks, or if any program
/// exceeds the exploration budget.
pub fn measure_corpus(corpus: &str, programs: &[Program]) -> E17Row {
    let mut row = E17Row {
        corpus: corpus.to_string(),
        programs: programs.len(),
        naive_transitions: 0,
        reduced_transitions: 0,
        reduced_states: 0,
        prune_ratio: 0.0,
        pristine_full: 0,
        pristine_sampled: 0,
        sampling_missed: 0,
    };
    for program in programs {
        let naive = explore(program, Mode::Naive);
        let reduced = explore(program, Mode::SleepSet);
        // The two modes are two traversals of one space: they must agree
        // on everything observable.
        let full_pristine = reduced.pristine_witness.is_some();
        assert_eq!(naive.pristine_witness.is_some(), full_pristine, "{program}");
        assert_eq!(naive.outputs(), reduced.outputs(), "{program}");
        row.naive_transitions += naive.transitions as u64;
        row.reduced_transitions += reduced.transitions as u64;
        row.reduced_states += reduced.states as u64;
        let sampled = sampled_pristine(program);
        assert!(
            full_pristine || !sampled,
            "sampling found a pristine schedule the full space lacks:\n{program}"
        );
        row.pristine_full += usize::from(full_pristine);
        row.pristine_sampled += usize::from(sampled);
        row.sampling_missed += usize::from(full_pristine && !sampled);
    }
    row.prune_ratio = row.naive_transitions as f64 / row.reduced_transitions.max(1) as f64;
    row
}

/// The 7-statement alphabet over one AID, `send` targeting `peer`.
fn alphabet(peer: usize) -> [Stmt; 7] {
    [
        Stmt::Guess(0),
        Stmt::Affirm(0),
        Stmt::Deny(0),
        Stmt::FreeOf(0),
        Stmt::Compute,
        Stmt::Send { to: peer },
        Stmt::Recv,
    ]
}

/// All 7³ single-process length-3 programs (one schedule each).
pub fn corpus_7_3() -> Vec<Program> {
    let mut v = Vec::new();
    for a in alphabet(0) {
        for b in alphabet(0) {
            for c in alphabet(0) {
                v.push(Program {
                    code: vec![vec![a, b, c]],
                    aid_count: 1,
                });
            }
        }
    }
    v
}

/// All 7⁴ two-process length-2 programs — the agreement envelope whose
/// interleavings the reduction is measured on.
pub fn corpus_7_4() -> Vec<Program> {
    let mut v = Vec::new();
    for a in alphabet(1) {
        for b in alphabet(1) {
            for c in alphabet(0) {
                for d in alphabet(0) {
                    v.push(Program {
                        code: vec![vec![a, b], vec![c, d]],
                        aid_count: 1,
                    });
                }
            }
        }
    }
    v
}

/// Seeded generated programs with genuinely large interleaving spaces.
pub fn corpus_generated(count: u64) -> Vec<Program> {
    (0..count).map(|s| Program::generate(s, 2, 4, 2)).collect()
}

fn push_row(t: &mut Table, r: &E17Row) {
    t.push(vec![
        r.corpus.clone(),
        r.programs.to_string(),
        r.naive_transitions.to_string(),
        r.reduced_transitions.to_string(),
        format!("{:.1}x", r.prune_ratio),
        r.pristine_full.to_string(),
        r.pristine_sampled.to_string(),
        r.sampling_missed.to_string(),
    ]);
}

/// The default E17 table over the two exhaustive envelopes plus a
/// generated corpus.
pub fn table() -> Table {
    let mut t = Table::new(
        "E17: schedule-space exploration (naive vs reduced) and full-vs-sampled verdicts",
        &[
            "corpus",
            "programs",
            "naive trans",
            "reduced trans",
            "prune",
            "pristine (full)",
            "pristine (13 scheds)",
            "missed by sampling",
        ],
    );
    let r3 = measure_corpus("7^3 single-proc", &corpus_7_3());
    let r4 = measure_corpus("7^4 two-proc", &corpus_7_4());
    let rg = measure_corpus("generated 2x4x2 (40 seeds)", &corpus_generated(40));
    assert!(
        r4.prune_ratio >= 2.0,
        "the reduction must prune the two-process envelope at least 2x: {:.2}",
        r4.prune_ratio
    );
    push_row(&mut t, &r3);
    push_row(&mut t, &r4);
    push_row(&mut t, &rg);
    t.note("prune = naive transitions / reduced transitions; asserted >= 2x on the 7^4 corpus");
    t.note(
        "7^3 programs are single-process (exactly one schedule), so their ratio is 1x by \
         construction — the row is the no-concurrency baseline",
    );
    t.note(
        "verdicts: both modes agree per program; sampling (round-robin + 12 seeded \
         schedules, the pre-hope-mc agreement suite) never finds a pristine schedule the \
         full space lacks (asserted). On these small envelopes sampling happens to find \
         every pristine program too — the last column counts where it would not have, \
         and only the full exploration *proves* the zero",
    );
    t
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn generated_corpus_modes_agree_and_reduce() {
        let r = measure_corpus("gen smoke", &corpus_generated(8));
        assert_eq!(r.programs, 8);
        assert!(r.reduced_transitions <= r.naive_transitions);
    }

    #[test]
    fn two_proc_sample_prunes_at_least_2x() {
        // A slice of the 7^4 envelope (all programs with a leading guess
        // in P0) is enough to see the reduction working.
        let programs: Vec<Program> = corpus_7_4()
            .into_iter()
            .filter(|p| p.code[0][0] == Stmt::Guess(0))
            .collect();
        let r = measure_corpus("7^4 guess-slice", &programs);
        assert_eq!(r.programs, 343);
        assert!(
            r.prune_ratio >= 2.0,
            "expected >=2x reduction, got {:.2}",
            r.prune_ratio
        );
        assert_eq!(
            r.pristine_sampled + r.sampling_missed,
            r.pristine_full,
            "sampled + missed must partition the pristine programs"
        );
    }
}
