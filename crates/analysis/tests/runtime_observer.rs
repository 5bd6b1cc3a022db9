//! The race detector driven by `hope-runtime`'s observer hook.
//!
//! The agreement suite exercises the detector against the abstract
//! machine's exhaustive schedules; these tests check the *other*
//! embedding: a real `Simulation` with virtual time, journal replay, and
//! message latency reports the same action stream, and the detector fires
//! on a hand-built decided-AID-reuse schedule while staying silent on the
//! paper's well-behaved Call Streaming example.

use std::sync::{Arc, Mutex};

use hope_analysis::{RaceDetector, RaceKind};
use hope_core::{AidId, ProcessId, RuntimeObserver};
use hope_runtime::{SimConfig, Simulation, Value, VirtualDuration};

fn ms(v: u64) -> VirtualDuration {
    VirtualDuration::from_millis(v)
}

fn attach(sim: &mut Simulation) -> Arc<Mutex<RaceDetector>> {
    let detector = Arc::new(Mutex::new(RaceDetector::new()));
    let hook = detector.clone();
    sim.set_observer(move |pid, action, effects| {
        hook.lock().unwrap().observe(pid, action, effects);
    });
    detector
}

/// Two verifiers race to decide the same AID: whichever loses has its
/// decider skipped by §5.2's one-shot rule, and the detector must report
/// the skip as decided-AID reuse.
#[test]
fn detector_fires_on_decided_aid_reuse() {
    let mut sim = Simulation::new(SimConfig::with_seed(7));
    let detector = attach(&mut sim);
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
    let report = sim.run();
    assert!(report.completed(), "{report}");

    let detector = detector.lock().unwrap();
    let reuse: Vec<_> = detector
        .races()
        .iter()
        .filter(|r| r.kind == RaceKind::DecidedAidReuse)
        .collect();
    assert_eq!(reuse.len(), 1, "races: {:?}", detector.races());
    assert_eq!(reuse[0].process, ProcessId(2));
    assert_eq!(reuse[0].aid, AidId::from_index(0));
}

/// The paper's Call Streaming skeleton (worker + worrywart, Figure 2): one
/// guess, one affirm, no reuse, no ghosts, no unordered decides. The
/// detector must stay silent.
#[test]
fn detector_is_silent_on_the_call_streaming_example() {
    let mut sim = Simulation::new(SimConfig::with_seed(1));
    let detector = attach(&mut sim);
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
    let report = sim.run();
    assert!(report.completed(), "{report}");
    assert_eq!(
        report.output_lines(),
        vec!["summary printed on current page"]
    );
    let detector = detector.lock().unwrap();
    assert!(detector.races().is_empty(), "{:?}", detector.races());
}

/// A deny that rolls the guesser back is a *causal* consequence — the
/// re-executed guess returning `false` (Equation 24) must not be reported
/// as a guess/decide race. But the ghost copies of the rolled-back sends
/// are real send-after-deny anomalies and must be.
#[test]
fn rollback_reexecution_is_ordered_but_ghosts_are_reported() {
    let mut sim = Simulation::new(SimConfig::with_seed(3));
    let detector = attach(&mut sim);
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
    let report = sim.run();
    assert!(report.completed(), "{report}");
    assert_eq!(report.output_lines(), vec!["saw false"]);

    let detector = detector.lock().unwrap();
    assert!(
        !detector
            .races()
            .iter()
            .any(|r| r.kind == RaceKind::GuessAfterDecide),
        "rollback must causally order the re-executed guess: {:?}",
        detector.races()
    );
    assert!(
        detector
            .races()
            .iter()
            .any(|r| r.kind == RaceKind::SendAfterDeny),
        "the ghost copy of the speculative send must be reported: {:?}",
        detector.races()
    );
}
