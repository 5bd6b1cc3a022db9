//! The handoff seen from outside: the three ways a process thread can
//! leave the rendezvous badly (panicking under the `Shared` lock, exiting
//! while it holds the baton, still parked at shutdown), re-running on a
//! thread an earlier run used, and a parked process dispatching the events
//! that strike itself (its own rollback, kill and revival).

use std::sync::atomic::{AtomicU32, Ordering::SeqCst};
use std::sync::Arc;

use hope_runtime::{CrashReason, FaultPlan, Signal, SimConfig, Simulation, Value};
use hope_runtime::{VirtualDuration, VirtualTime};

fn ms(v: u64) -> VirtualDuration {
    VirtualDuration::from_millis(v)
}

#[test]
fn thread_that_leaves_with_the_baton_is_reported() {
    // No `Ctx` call raised this Shutdown, so the thread exits while it
    // is still the one running: only the baton's drop guard ends the
    // scheduler's wait.
    let mut sim = Simulation::new(SimConfig::default());
    let p = sim.spawn("quitter", |_ctx| Err(Signal::Shutdown));
    sim.spawn("good", |ctx| ctx.output("still here"));
    let report = sim.run();
    assert_eq!(
        report.errors().get(&p).map(String::as_str),
        Some("process thread exited without yielding")
    );
    assert_eq!(report.output_lines(), vec!["still here"]);

    // The same exit by a thread a *peer* resumed: the quitter parks in
    // `recv`, the peer's delivery (dispatched on the peer's thread) wakes
    // it, and it leaves. It alone is charged, and `run`'s thread steps the
    // peer to its end.
    let mut sim = Simulation::new(SimConfig::default());
    let p = sim.spawn("quitter", |ctx| {
        ctx.recv()?;
        Err(Signal::Shutdown)
    });
    let peer = sim.spawn("peer", move |ctx| {
        ctx.send(p, Value::Unit)?;
        ctx.compute(ms(1))?;
        ctx.output("still here")
    });
    let report = sim.run();
    let errors: Vec<_> = report.errors().iter().collect();
    let reason = "process thread exited without yielding".to_string();
    assert_eq!(errors, vec![(&p, &reason)]);
    assert_eq!(report.output_lines(), vec!["still here"]);
    assert_eq!(report.finish_time(peer), Some(VirtualTime::ZERO + ms(1)));
}

#[test]
fn panic_under_the_shared_lock_crashes_only_its_process() {
    let mut sim = Simulation::new(SimConfig::default());
    // `checkpoint` asserts `restore` came first while holding the guard.
    let p = sim.spawn("bad", |ctx| ctx.checkpoint(Value::Unit));
    sim.spawn("good", |ctx| {
        ctx.compute(ms(1))?;
        ctx.output("committed after the poisoning")
    });
    let report = sim.run();
    let err = report
        .errors()
        .get(&p)
        .expect("the panic is a reported crash");
    assert!(err.contains("Ctx::checkpoint requires"), "{err}");
    assert_eq!(report.unfinished(), &[]);
    assert_eq!(report.output_lines(), vec!["committed after the poisoning"]);
}

#[test]
fn run_again_on_one_thread_and_from_a_spawned_one() {
    // Whatever unpark token one run leaves on its caller's thread must
    // be harmless to the next run there.
    let run = || {
        let mut sim = Simulation::new(SimConfig::default());
        sim.spawn("solo", |ctx| {
            ctx.compute(ms(1))?;
            ctx.output("done")
        });
        sim.run().fingerprint()
    };
    let first = run();
    assert_eq!(run(), first);
    assert_eq!(std::thread::spawn(run).join().unwrap(), first);
}

#[test]
fn shutdown_joins_every_blocked_process_thread() {
    let witness = Arc::new(());
    let mut sim = Simulation::new(SimConfig::default());
    for i in 0..32 {
        let held = witness.clone();
        sim.spawn(format!("p{i}"), move |ctx| {
            let _held = &held;
            ctx.recv().map(|_| ())
        });
    }
    let report = sim.run();
    assert_eq!(report.unfinished().len(), 32);
    assert_eq!(Arc::strong_count(&witness), 1, "a body outlived run()");
}

/// A lone process whose first reliable copy (to itself) is lost: whatever
/// happens to it next, its own thread dispatches.
fn lone_sender(config: SimConfig) -> SimConfig {
    let cut = VirtualTime::ZERO + ms(1);
    config.with_faults(FaultPlan::new(0).isolate(0, VirtualTime::ZERO, cut))
}

#[test]
fn parked_stepper_rolls_itself_back() {
    for overhead in [VirtualDuration::ZERO, ms(7)] {
        let rollbacks_seen = Arc::new(AtomicU32::new(0));
        let seen = rollbacks_seen.clone();
        let cfg = SimConfig::default().with_rollback_overhead(overhead);
        let mut sim = Simulation::new(lone_sender(cfg));
        let p = sim.spawn("solo", move |ctx| {
            ctx.send_reliable(ctx.pid(), Value::Unit)?;
            // Parked here, it pops its own `AckTimeout` at 50 ms, which
            // denies the send's assumption: `park` returns the rollback.
            let parked = ctx.compute(ms(100));
            if parked == Err(Signal::Rollback) {
                seen.fetch_add(1, SeqCst);
            }
            parked?;
            ctx.output("sent")
        });
        let report = sim.run();
        assert!(report.completed(), "{report}");
        assert_eq!(rollbacks_seen.load(SeqCst), 1);
        let (stats, faults) = (report.stats(), report.stats().faults);
        assert_eq!((faults.timeout_denies, faults.retries), (1, 1));
        assert_eq!((stats.rollback_events, stats.replays), (1, 1));
        assert_eq!(report.output_lines(), vec!["sent"]);
        let end = VirtualTime::ZERO + ms(50) + overhead + ms(100);
        assert_eq!(report.finish_time(p), Some(end));
    }
}

#[test]
fn parked_stepper_is_killed_by_the_step_it_dispatches() {
    for restart_after in [None, Some(ms(3))] {
        // Event 1 is the body's first wake, dispatched by `run`'s thread;
        // event 2 is the compute wake the body itself pops, and the kill
        // lands just before it.
        let plan = FaultPlan::new(0).kill(0, 2, restart_after);
        let mut sim = Simulation::new(SimConfig::default().with_faults(plan));
        let p = sim.spawn("solo", |ctx| {
            let x = ctx.aid_init()?;
            let guessed = ctx.guess(x)?;
            ctx.compute(ms(1))?;
            ctx.affirm(x)?;
            ctx.output(format!("guessed {guessed}"))
        });
        let report = sim.run();
        let (stats, faults) = (report.stats(), report.stats().faults);
        assert_eq!((faults.kills, faults.crash_denies), (1, 1));
        if restart_after.is_some() {
            assert!(report.completed(), "{report}");
            assert_eq!((faults.restarts, stats.replays), (1, 1));
            assert_eq!(report.output_lines(), vec!["guessed false"]);
        } else {
            assert_eq!(
                report.crash_reasons().get(&p),
                Some(&CrashReason::FaultKill)
            );
            // Dead, its thread still pops the wake the deny cascade left.
            assert_eq!((report.events(), stats.replays), (3, 0));
            assert!(report.output_lines().is_empty());
        }
    }
}

#[test]
fn finished_body_keeps_stepping_until_a_deny_revives_it() {
    let mut sim = Simulation::new(lone_sender(SimConfig::default()));
    let p = sim.spawn("solo", |ctx| {
        ctx.send_reliable(ctx.pid(), Value::Unit)?;
        ctx.output("sent")
    });
    // The body returns at time zero, still speculating that its copy
    // arrived; its thread steps on and at 50 ms pops the timeout that
    // revives it.
    let report = sim.run();
    assert!(report.completed(), "{report}");
    assert_eq!(report.stats().faults.timeout_denies, 1);
    assert_eq!(report.stats().replays, 1);
    assert_eq!(report.stats().outputs_discarded, 1);
    assert_eq!(report.output_lines(), vec!["sent"]);
    assert_eq!(report.finish_time(p), Some(VirtualTime::ZERO + ms(50)));
}
