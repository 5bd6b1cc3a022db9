//! Restart resumes at the newest surviving snapshot.
//!
//! Every restart of a body — a rollback, a deeper rollback during the
//! restoration hold, a crash-restart, the revival of a finished body —
//! goes through one path: `Ctx` starts replay at the newest
//! [`Ctx::checkpoint`] the truncation left in the journal, and
//! [`Ctx::restore`] hands the body that snapshot's state. Nothing before
//! the snapshot is replayed. Each test records what `restore()` answered
//! on every attempt at the body, and (a) pins the `Shared` lock count
//! that replay costs.
//!
//! The denies come from a definite judge that receives nothing: AIDs are
//! allocated densely in `aid_init` order, so it can name the guesser's by
//! index, and its decisions are never speculative.

use std::sync::{Arc, Mutex};

use hope_core::AidId;
use hope_runtime::{FaultPlan, RunReport, SimConfig, Simulation, Value};
use hope_sim::VirtualDuration;

fn ms(v: u64) -> VirtualDuration {
    VirtualDuration::from_millis(v)
}

/// What `restore()` answered at the top of each attempt, in order.
type Attempts = Arc<Mutex<Vec<Option<i64>>>>;

/// Spawn the guesser: `prologue` guesses before the first checkpoint,
/// then `iters` iterations of `checkpoint(i); aid_init; guess`, an output
/// line per iteration naming the guess's answer, and `linger` of compute
/// at the end (zero: the body finishes while still speculative).
fn spawn_guesser(
    sim: &mut Simulation,
    prologue: bool,
    iters: i64,
    guess_in: impl Fn(i64) -> bool + Send + Sync + 'static,
    linger: VirtualDuration,
) -> Attempts {
    let attempts = Attempts::default();
    let log = attempts.clone();
    sim.spawn("guesser", move |ctx| {
        let resumed = ctx.restore()?.map(|v| v.expect_int());
        log.lock().unwrap().push(resumed);
        if resumed.is_none() && prologue {
            let aid = ctx.aid_init()?;
            let held = ctx.guess(aid)?;
            ctx.output(format!("prologue {held}"))?;
        }
        for i in resumed.unwrap_or(0)..iters {
            ctx.checkpoint(Value::Int(i))?;
            if guess_in(i) {
                let aid = ctx.aid_init()?;
                let held = ctx.guess(aid)?;
                ctx.output(format!("iteration {i} {held}"))?;
            } else {
                ctx.random_u64()?;
            }
        }
        if !linger.is_zero() {
            ctx.compute(linger)?;
        }
        Ok(())
    });
    attempts
}

/// Spawn the judge: deny the AID with index `aid` at virtual time `at`,
/// for each `(at, aid)` in order.
fn spawn_judge(sim: &mut Simulation, denies: &'static [(u64, u64)]) {
    sim.spawn("judge", move |ctx| {
        let mut now = 0;
        for &(at, aid) in denies {
            ctx.compute(ms(at - now))?;
            now = at;
            ctx.deny(AidId::from_index(aid))?;
        }
        Ok(())
    });
}

fn attempts_of(a: &Attempts) -> Vec<Option<i64>> {
    a.lock().unwrap().clone()
}

/// (a) One guess, in iteration `k` of 50; denied once the body has run
/// ahead through all 50.
fn denied_in_iteration(k: i64) -> (RunReport, Vec<Option<i64>>) {
    let mut sim = Simulation::new(SimConfig::with_seed(1));
    let attempts = spawn_guesser(&mut sim, false, 50, move |i| i == k, ms(20));
    spawn_judge(&mut sim, &[(5, 0)]);
    let report = sim.run();
    assert!(report.completed(), "{report}");
    assert_eq!(report.stats().replays, 1, "{report}");
    (report, attempts_of(&attempts))
}

#[test]
fn rollback_resumes_at_the_iteration_that_guessed() {
    let (early, early_attempts) = denied_in_iteration(3);
    let (late, late_attempts) = denied_in_iteration(43);
    assert_eq!(early_attempts, vec![None, Some(3)]);
    assert_eq!(late_attempts, vec![None, Some(43)]);
    assert_eq!(early.output_lines(), vec!["iteration 3 false"]);
    assert_eq!(late.output_lines(), vec!["iteration 43 false"]);
    // Replaying from step zero, attempt two re-issued every primitive of
    // the body once whatever `k` was — 216 locks for the run either way.
    // Resuming at snapshot `k` skips the `k` iterations before it, two
    // primitives each, and replays only restore, checkpoint(k), aid_init.
    const FROM_STEP_ZERO: u64 = 216;
    assert_eq!(early.stats().ctx_lock_acquisitions, FROM_STEP_ZERO - 2 * 3);
    assert_eq!(late.stats().ctx_lock_acquisitions, FROM_STEP_ZERO - 2 * 43);
}

/// (b) Guesses in the prologue (AID 0) and in iterations 0..3 (AIDs 1–3).
/// Denying AID 2 truncates at iteration 1's guess: snapshot 2 goes,
/// snapshot 1 is the newest survivor. Denying AID 0 then truncates below
/// every snapshot: replay starts at the `Restore` marker.
#[test]
fn truncation_decides_which_snapshot_resumes() {
    let mut sim = Simulation::new(SimConfig::with_seed(2).commit_at_quiescence());
    let attempts = spawn_guesser(&mut sim, true, 3, |_| true, VirtualDuration::ZERO);
    spawn_judge(&mut sim, &[(5, 2), (10, 0)]);
    let report = sim.run();
    assert!(report.completed(), "{report}");
    assert_eq!(attempts_of(&attempts), vec![None, Some(1), None]);
    assert_eq!(report.stats().replays, 2, "{report}");
    assert_eq!(
        report.output_lines(),
        vec![
            "prologue false",
            "iteration 0 true",
            "iteration 1 true",
            "iteration 2 true"
        ]
    );
}

/// (c) PR 9's double rollback: the second deny lands while the guesser
/// holds for the first one's restoration charge. The first truncation (at
/// iteration 3's guess) keeps all four snapshots; the second (at
/// iteration 1's) keeps 0 and 1 and removes 2 and 3. The first restart is
/// abandoned before its body runs; the second resumes at snapshot 1.
#[test]
fn deeper_rollback_during_the_restoration_hold_resumes_at_its_own_snapshot() {
    let mut sim = Simulation::new(
        SimConfig::with_seed(3)
            .with_rollback_overhead(ms(10))
            .commit_at_quiescence(),
    );
    let attempts = spawn_guesser(&mut sim, false, 4, |_| true, ms(1));
    spawn_judge(&mut sim, &[(2, 3), (4, 1)]);
    let report = sim.run();
    assert!(report.completed(), "{report}");
    assert_eq!(attempts_of(&attempts), vec![None, Some(1)]);
    assert_eq!(report.stats().rollback_events, 2, "{report}");
    assert_eq!(report.stats().replays, 2, "{report}");
    assert_eq!(
        report.output_lines(),
        vec![
            "iteration 0 true",
            "iteration 1 false",
            "iteration 2 true",
            "iteration 3 true"
        ]
    );
}

/// (d) Crash-restart without fossil collection: the journal still starts
/// at step zero, and the restart resumes at the snapshot just below the
/// guess the kill denied — a mid-journal one.
#[test]
fn crash_restart_resumes_at_a_mid_journal_snapshot() {
    // The guesser computes once per iteration, so scheduler step 9 finds
    // it in iteration 7, two past the guess the kill denies.
    let plan = FaultPlan::new(4).kill(0, 9, Some(ms(2)));
    let mut sim = Simulation::new(
        SimConfig::with_seed(4)
            .with_faults(plan)
            .commit_at_quiescence(),
    );
    let attempts = Attempts::default();
    let log = attempts.clone();
    sim.spawn("guesser", move |ctx| {
        let resumed = ctx.restore()?.map(|v| v.expect_int());
        log.lock().unwrap().push(resumed);
        for i in resumed.unwrap_or(0)..12 {
            ctx.checkpoint(Value::Int(i))?;
            if i == 5 {
                let aid = ctx.aid_init()?;
                let held = ctx.guess(aid)?;
                ctx.output(format!("iteration 5 {held}"))?;
            }
            ctx.compute(ms(1))?;
        }
        Ok(())
    });
    let report = sim.run();
    assert!(report.completed(), "{report}");
    let faults = report.stats().faults;
    assert_eq!((faults.kills, faults.restarts), (1, 1), "{report}");
    assert_eq!(report.stats().memory.reclaimed_journal_entries, 0);
    assert_eq!(attempts_of(&attempts), vec![None, Some(5)]);
    assert_eq!(report.output_lines(), vec!["iteration 5 false"]);
}

/// (e) A body that returned `Ok(())` while speculative is revived by a
/// later deny, and resumes at a snapshot like any other restart.
#[test]
fn revived_finished_body_resumes_at_its_snapshot() {
    let mut sim = Simulation::new(SimConfig::with_seed(5).commit_at_quiescence());
    let attempts = spawn_guesser(&mut sim, false, 6, |i| i % 2 == 0, VirtualDuration::ZERO);
    // AIDs 0, 1, 2 belong to iterations 0, 2, 4.
    spawn_judge(&mut sim, &[(5, 1)]);
    let report = sim.run();
    assert!(report.completed(), "{report}");
    assert_eq!(attempts_of(&attempts), vec![None, Some(2)]);
    assert_eq!(report.stats().replays, 1, "{report}");
    assert_eq!(
        report.output_lines(),
        vec!["iteration 0 true", "iteration 2 false", "iteration 4 true"]
    );
}
