//! The scheduler↔process handoff seen from outside: the three ways a
//! process thread can leave the rendezvous badly (panicking under the
//! `Shared` lock, exiting while it holds the baton, still parked at
//! shutdown) and re-running on a thread an earlier run used.

use std::sync::Arc;

use hope_runtime::{Signal, SimConfig, Simulation, Value, VirtualDuration};

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
    // Whatever unpark token one run leaves on its scheduler thread must
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
