//! Random schedules are a subset of the exhaustive schedule space.
//!
//! For random in-budget programs, anything 64 seeded random schedules can
//! observe must already be in the model checker's report:
//!
//! * every committed outcome a completed seeded run produces is one of the
//!   checker's recorded terminal outputs (random ⊆ exhaustive on
//!   outcomes);
//! * if any seeded run finalizes pristinely, the checker holds a pristine
//!   witness (random ⊆ exhaustive on verdicts) — and replaying that
//!   witness reproduces a pristine run.
//!
//! A failure here means the reduction pruned a *reachable inequivalent*
//! behaviour: a soundness bug in the independence relation, the canonical
//! state key, or the sleep-set/cache interaction.

use hope_core::machine::{Event, Machine};
use hope_core::observer::NullObserver;
use hope_core::program::Program;
use hope_mc::{check, commit_fingerprint, McConfig};
use proptest::prelude::*;

const SEEDED_SCHEDULES: u64 = 64;
const FUEL: u64 = 10_000;

/// Full-finalization check on a finished machine (mirrors the agreement
/// suite's definition: completed, no rollback, no ghosts, no skips, all
/// processes definite).
fn is_pristine(m: &Machine, completed: bool) -> bool {
    let stats = m.engine().stats();
    completed
        && stats.rollback_events == 0
        && stats.ghosts == 0
        && (0..m.process_count()).all(|p| {
            !m.engine().is_speculative(m.pid(p)).expect("registered pid")
                && m.history(p)
                    .states()
                    .iter()
                    .all(|s| !matches!(s.event, Event::Skipped { .. }))
        })
}

fn random_is_subset_of_exhaustive(program: &Program) {
    let report = check(program, &McConfig::default());
    assert!(
        report.completeness.is_exhausted(),
        "corpus program exceeded the model-checking budget:\n{program}"
    );
    let mut seeded_pristine = None;
    for seed in 0..SEEDED_SCHEDULES {
        let mut m = Machine::new(program.clone());
        let run = m.run_seeded(FUEL, seed);
        if !run.completed {
            // An unfinished run is not a terminal state; nothing to compare.
            continue;
        }
        let fp = commit_fingerprint(&m);
        assert!(
            report.contains_output(&fp),
            "seed {seed} committed an outcome the checker never saw:\n{program}"
        );
        if is_pristine(&m, run.completed) {
            seeded_pristine = Some(seed);
        }
    }
    if let Some(seed) = seeded_pristine {
        assert!(
            report.pristine_witness.is_some(),
            "seed {seed} finalized pristinely but the checker found no witness:\n{program}"
        );
        let schedule = report.pristine_witness.clone().expect("checked above");
        let replayed = hope_mc::replay(program, &schedule, &mut NullObserver);
        assert!(
            is_pristine(&replayed, true),
            "pristine witness does not replay pristinely:\n{program}"
        );
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(120))]

    #[test]
    fn seeded_random_schedules_are_covered_by_the_model_checker(
        seed in 0u64..1_000_000,
        procs in 1usize..=3,
        len in 1usize..=4,
        aids in 1usize..=2,
    ) {
        let program = Program::generate(seed, procs, len, aids);
        random_is_subset_of_exhaustive(&program);
    }
}

/// The fixed exhaustive-envelope shapes the agreement suite sweeps are
/// also covered, pinned here against generator drift.
#[test]
fn envelope_shapes_are_covered() {
    for seed in [0, 1, 2, 3, 17, 99] {
        let two = Program::generate(seed, 2, 2, 1);
        random_is_subset_of_exhaustive(&two);
        let one = Program::generate(seed, 1, 3, 1);
        random_is_subset_of_exhaustive(&one);
    }
}

/// The `hope-mc` binary has one reduced mode and its `--naive` oracle: the
/// flags of the removed modes are usage errors, and the JSON report names
/// the mode it ran under exactly these keys.
#[test]
fn cli_rejects_removed_mode_flags() {
    let run = |args: &[&str]| {
        std::process::Command::new(env!("CARGO_BIN_EXE_hope-mc"))
            .args(args)
            .output()
            .expect("hope-mc runs")
    };
    for flag in ["--stateful", "--sleepset", "--dpor"] {
        let out = run(&[flag, "--generate", "3,2,3,2"]);
        assert_eq!(out.status.code(), Some(2), "{flag}");
        let err = String::from_utf8_lossy(&out.stderr);
        assert!(err.contains(&format!("unknown option `{flag}`")), "{err}");
        assert!(err.contains("[--naive] [--max-states N]"), "{err}");
    }
    for (extra, mode) in [(None, "reduced"), (Some("--naive"), "naive")] {
        let mut args = vec!["--json", "--generate", "3,2,3,2"];
        args.extend(extra);
        let out = run(&args);
        assert_eq!(out.status.code(), Some(0));
        let json = String::from_utf8_lossy(&out.stdout);
        // Every quoted string of the report: its keys in order, plus the
        // two string values.
        let quoted: Vec<&str> = json.split('"').skip(1).step_by(2).collect();
        assert_eq!(
            quoted,
            [
                "verdict",
                "exhausted",
                "mode",
                mode,
                "states",
                "transitions",
                "cache_hits",
                "sleep_pruned",
                "singleton_states",
                "frontier_remaining",
                "explored_fraction",
                "completed_terminals",
                "deadlock_terminals",
                "distinct_outputs",
                "pristine_schedule",
                "proves_no_pristine_schedule",
            ],
            "{json}"
        );
    }
}
