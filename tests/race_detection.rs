//! The vector-clock race detector watching a real `Simulation`.
//!
//! `hope_analysis::RaceDetector` is a [`RuntimeObserver`]; a run is watched
//! by handing it the process actions of the event stream that
//! `Simulation::set_observer`, the one way to watch a run, delivers. The agreement suite (`hope-analysis`) exercises
//! the detector against the abstract machine's exhaustive schedules; these
//! tests check the other embedding: virtual time, journal replay and
//! message latency report the same action stream, the detector fires on
//! ghosts and decided-AID reuse, stays silent on the paper's well-behaved
//! Call Streaming example, and watching changes nothing about the run.

use std::sync::{Arc, Mutex};

use hope_analysis::{RaceDetector, RaceKind, RaceReport};
use hope_core::{AidId, ProcessId, RuntimeObserver};
use hope_runtime::{FaultPlan, RunEvent, RunReport, SimConfig, Simulation, Value, VirtualDuration};

fn ms(v: u64) -> VirtualDuration {
    VirtualDuration::from_millis(v)
}

/// Run `sim` with a detector attached through `set_observer`; its findings
/// in observation order.
fn run_watched(mut sim: Simulation) -> (RunReport, Vec<RaceReport>) {
    let detector = Arc::new(Mutex::new(RaceDetector::new()));
    let hook = detector.clone();
    sim.set_observer(move |_, event| {
        if let RunEvent::Action {
            process,
            action,
            effects,
            ..
        } = event
        {
            hook.lock().unwrap().observe(*process, action, effects);
        }
    });
    let report = sim.run();
    let races = detector.lock().unwrap().races().to_vec();
    (report, races)
}

fn of_kind(races: &[RaceReport], kind: RaceKind) -> Vec<&RaceReport> {
    races.iter().filter(|r| r.kind == kind).collect()
}

/// A speculative send condemned as a ghost by a later deny is reported as
/// a `SendAfterDeny` race charged to the sender.
#[test]
fn ghost_condemnation_is_reported_as_send_after_deny() {
    let mut sim = Simulation::new(SimConfig::with_seed(7));
    let relay = ProcessId(1);
    let judge = ProcessId(2);
    sim.spawn("origin", move |ctx| {
        let x = ctx.aid_init()?;
        ctx.send(judge, Value::Int(x.index() as i64))?;
        if ctx.guess(x)? {
            ctx.send(relay, Value::Str("speculative hello".into()))?;
        }
        Ok(())
    });
    sim.spawn("relay", |ctx| {
        // Never receives anything definite: the only message aimed at it
        // becomes a ghost, so it parks at `recv` until quiescence.
        let _ = ctx.recv()?;
        Ok(())
    });
    sim.spawn("judge", |ctx| {
        let m = ctx.recv()?;
        let aid = AidId::from_index(m.payload.expect_int() as u64);
        ctx.compute(ms(1))?;
        ctx.deny(aid)?;
        Ok(())
    });
    let (report, races) = run_watched(sim);

    assert!(report.stats().ghosts_dropped >= 1);
    let ghosts = of_kind(&races, RaceKind::SendAfterDeny);
    assert_eq!(ghosts.len(), 1, "races: {races:?}");
    assert_eq!(ghosts[0].process, ProcessId(0), "charged to the sender");
}

/// Two verifiers race to decide the same AID: the late one has its decider
/// skipped by §5.2's one-shot rule, and the detector reports the skip as
/// decided-AID reuse, charged to the skipper.
#[test]
fn competing_deciders_report_decided_aid_reuse() {
    let mut sim = Simulation::new(SimConfig::with_seed(7));
    let affirmer = ProcessId(1);
    let denier = ProcessId(2);
    sim.spawn("origin", move |ctx| {
        let x = ctx.aid_init()?;
        ctx.send(affirmer, Value::Int(x.index() as i64))?;
        ctx.send(denier, Value::Int(x.index() as i64))?;
        let _ = ctx.guess(x)?;
        Ok(())
    });
    sim.spawn("affirmer", |ctx| {
        let m = ctx.recv()?;
        let x = AidId::from_index(m.payload.expect_int() as u64);
        ctx.affirm(x)?;
        Ok(())
    });
    // The denier deliberately decides late, after the affirm has consumed
    // the AID: its deny is skipped.
    sim.spawn("denier", |ctx| {
        let m = ctx.recv()?;
        let x = AidId::from_index(m.payload.expect_int() as u64);
        ctx.compute(ms(50))?;
        ctx.deny(x)?;
        Ok(())
    });
    let (report, races) = run_watched(sim);
    assert!(report.completed(), "{report}");

    let reuses = of_kind(&races, RaceKind::DecidedAidReuse);
    assert_eq!(reuses.len(), 1, "races: {races:?}");
    assert_eq!(reuses[0].process, ProcessId(2));
    assert_eq!(reuses[0].aid, AidId::from_index(0));
}

/// The paper's Call Streaming skeleton (worker + worrywart, Figure 2): one
/// guess, one affirm, no reuse, no ghosts, no unordered decides. The
/// detector must stay silent.
#[test]
fn detector_is_silent_on_the_call_streaming_example() {
    let mut sim = Simulation::new(SimConfig::with_seed(1));
    let worrywart = ProcessId(1);
    sim.spawn("worker", move |ctx| {
        let part_page = ctx.aid_init()?;
        ctx.send(worrywart, Value::Int(part_page.index() as i64))?;
        if ctx.guess(part_page)? {
            ctx.output("summary printed on current page")?;
        } else {
            ctx.output("new page forced")?;
        }
        Ok(())
    });
    sim.spawn("worrywart", |ctx| {
        let msg = ctx.recv()?;
        let aid = AidId::from_index(msg.payload.expect_int() as u64);
        ctx.compute(ms(1))?; // the real page-position check
        ctx.affirm(aid)?;
        Ok(())
    });
    let (report, races) = run_watched(sim);
    assert!(report.completed(), "{report}");
    assert_eq!(
        report.output_lines(),
        vec!["summary printed on current page"]
    );
    assert!(races.is_empty(), "{races:?}");
}

/// A deny that rolls the guesser back is a *causal* consequence — the
/// re-executed guess returning `false` (Equation 24) must not be reported
/// as a guess/decide race. But the ghost copy of the rolled-back send is
/// a real send-after-deny anomaly and must be.
#[test]
fn rollback_reexecution_is_ordered_but_ghosts_are_reported() {
    let mut sim = Simulation::new(SimConfig::with_seed(3));
    let relay = ProcessId(1);
    let judge = ProcessId(2);
    sim.spawn("origin", move |ctx| {
        let x = ctx.aid_init()?;
        ctx.send(judge, Value::Int(x.index() as i64))?;
        let flag = ctx.guess(x)?;
        ctx.send(relay, Value::Bool(flag))?;
        Ok(())
    });
    sim.spawn("relay", |ctx| {
        let m = ctx.recv()?;
        ctx.output(format!("saw {}", m.payload))?;
        Ok(())
    });
    sim.spawn("judge", |ctx| {
        let m = ctx.recv()?;
        let x = AidId::from_index(m.payload.expect_int() as u64);
        ctx.compute(ms(5))?;
        ctx.deny(x)?;
        Ok(())
    });
    let (report, races) = run_watched(sim);
    assert!(report.completed(), "{report}");
    assert_eq!(report.output_lines(), vec!["saw false"]);

    assert!(
        of_kind(&races, RaceKind::GuessAfterDecide).is_empty(),
        "rollback must causally order the re-executed guess: {races:?}"
    );
    assert!(
        !of_kind(&races, RaceKind::SendAfterDeny).is_empty(),
        "the ghost copy of the speculative send must be reported: {races:?}"
    );
}

/// Two reliable streams from one sender: each copy to `relay` rides on the
/// "delivered" assumption of the copy to `receiver` before it, so a timeout
/// deny turns it into a ghost.
fn two_streams(cfg: SimConfig) -> Simulation {
    let mut sim = Simulation::new(cfg);
    let (receiver, relay) = (ProcessId(1), ProcessId(2));
    sim.spawn("sender", move |ctx| {
        for i in 0..4 {
            ctx.send_reliable(receiver, Value::Int(i))?;
            ctx.send_reliable(relay, Value::Int(i))?;
        }
        ctx.output("sender done")?;
        Ok(())
    });
    for name in ["receiver", "relay"] {
        sim.spawn(name, move |ctx| {
            for expected in 0..4 {
                let m = ctx.recv_matching(move |m| m.payload == Value::Int(expected))?;
                ctx.output(format!("{name} got {}", m.payload))?;
            }
            Ok(())
        });
    }
    sim
}

/// Watching cannot change a run: an observer sees only `&Action` and
/// `&[Effect]`. Under lossy, duplicating fault plans a watched run and an
/// unwatched one agree on `fingerprint()` and `committed()`, and a replay
/// of the watched run reports the same findings in the same order.
#[test]
fn watching_changes_nothing_and_replays_identically() {
    let mut ghosts = 0;
    for plan_seed in 0..6 {
        let plan = FaultPlan::new(plan_seed).drop_rate(0.3).dupe_rate(0.1);
        let cfg = SimConfig::with_seed(plan_seed).with_faults(plan);
        let plain = two_streams(cfg.clone()).run();
        let (watched, races) = run_watched(two_streams(cfg.clone()));
        assert!(watched.completed(), "plan {plan_seed}: {watched}");
        assert_eq!(watched.committed(), plain.committed(), "plan {plan_seed}");
        assert_eq!(
            watched.fingerprint(),
            plain.fingerprint(),
            "plan {plan_seed}"
        );
        let (_, replayed) = run_watched(two_streams(cfg));
        assert_eq!(replayed, races, "plan {plan_seed}");
        ghosts += of_kind(&races, RaceKind::SendAfterDeny).len();
    }
    assert!(
        ghosts > 0,
        "no plan condemned a copy: the detector saw nothing"
    );
}
