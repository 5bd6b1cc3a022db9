//! Debugging an optimistic program: execution traces and dependency
//! graphs.
//!
//! Rollback cascades can be bewildering; this example shows the tools the
//! reproduction provides. `Simulation::set_observer` hands the observer
//! every `RunEvent` — primitive, delivery, ghost, rollback — with its
//! virtual timestamp: here it writes each as a trace line and feeds the
//! process actions to `hope::analysis::RaceDetector`, the vector-clock race
//! detector, read once the run is over;
//! `hope::core::trace::render_dependency_graph` exports the engine's live
//! IDO/DOM graph as Graphviz DOT; and `SimConfig::with_faults` injects
//! deterministic network/crash faults whose effects show up in
//! `RunReport::faults`.
//!
//! Run with:
//!
//! ```text
//! cargo run --example debugging_rollback
//! ```

use std::sync::{Arc, Mutex};

use hope::analysis::{RaceDetector, RaceKind};
use hope::core::trace::render_dependency_graph;
use hope::core::{Checkpoint, Engine, RuntimeObserver};
use hope::runtime::{FaultPlan, RunEvent, SimConfig, Simulation, Value};
use hope::sim::VirtualDuration;
use hope::{AidId, ProcessId};

fn main() {
    // --- Part 1: a watched run with a rollback cascade -------------------
    let mut sim = Simulation::new(SimConfig::with_seed(7));
    let detector = Arc::new(Mutex::new(RaceDetector::new()));
    let trace = Arc::new(Mutex::new(Vec::new()));
    let (hook, lines) = (detector.clone(), trace.clone());
    sim.set_observer(move |t, event| {
        lines.lock().unwrap().push(format!("[{t}] {event}"));
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
    let relay = ProcessId(1);
    let judge = ProcessId(2);
    sim.spawn("origin", move |ctx| {
        let x = ctx.aid_init()?;
        ctx.send(judge, Value::Int(x.index() as i64))?;
        if ctx.guess(x)? {
            ctx.send(relay, Value::Str("speculative hello".into()))?;
            ctx.output("origin: took the fast path")?;
        } else {
            ctx.output("origin: took the slow path")?;
        }
        Ok(())
    });
    sim.spawn("relay", |ctx| {
        let m = ctx.recv()?;
        ctx.output(format!("relay saw: {}", m.payload))?;
        Ok(())
    });
    sim.spawn("judge", |ctx| {
        let m = ctx.recv()?;
        let aid = AidId::from_index(m.payload.expect_int() as u64);
        ctx.compute(VirtualDuration::from_millis(1))?;
        ctx.deny(aid)?; // refute the assumption: cascade ensues
        Ok(())
    });
    let report = sim.run();

    let trace = trace.lock().unwrap();
    println!("=== execution trace ===");
    for line in trace.iter() {
        println!("  {line}");
    }
    println!("\ncommitted output: {:?}", report.output_lines());
    assert_eq!(report.output_lines(), vec!["origin: took the slow path"]);
    assert!(trace.iter().any(|l| l.contains("ROLLBACK")));
    assert!(trace.iter().any(|l| l.contains("ghost")));

    println!("\n=== race detector findings ===");
    let detector = detector.lock().unwrap();
    for race in detector.races() {
        println!("  [{}] {}", race.kind.name(), race.detail);
    }
    // The speculative hello was condemned as a ghost by the judge's deny:
    // the detector charges a send-after-deny race to the sender.
    assert!(detector
        .races()
        .iter()
        .any(|r| r.kind == RaceKind::SendAfterDeny));

    // --- Part 2: a dependency graph snapshot ----------------------------
    let mut engine = Engine::new();
    let p = engine.register_process();
    let q = engine.register_process();
    let part_page = engine.aid_init(p);
    let order = engine.aid_init(p);
    engine.guess(p, &[part_page], Checkpoint(0)).unwrap();
    engine.guess(p, &[order], Checkpoint(1)).unwrap();
    let tag = engine.dependence_tag(p).unwrap();
    engine.implicit_guess(q, &tag, Checkpoint(0)).unwrap();

    println!("\n=== dependency graph (Graphviz DOT) ===");
    let dot = render_dependency_graph(&engine);
    println!("{dot}");
    assert!(dot.contains("digraph hope"));
    println!("(pipe this into `dot -Tsvg` to see the IDO edges)");

    // --- Part 3: deterministic fault injection --------------------------
    // A lossy link forces `send_reliable` into its timeout/deny/retry
    // loop; `RunReport::faults` itemises everything the plan injected and
    // everything the protocol did to ride it out.
    let plan = FaultPlan::new(42).drop_rate(0.3);
    let mut sim = Simulation::new(SimConfig::with_seed(7).with_faults(plan));
    let receiver = ProcessId(1);
    sim.spawn("sender", move |ctx| {
        for i in 0..5i64 {
            ctx.send_reliable(receiver, Value::Int(i))?;
        }
        ctx.output("sender: all five delivered")?;
        Ok(())
    });
    sim.spawn("receiver", |ctx| {
        for expected in 0..5i64 {
            ctx.recv_matching(move |m| m.payload == Value::Int(expected))?;
        }
        Ok(())
    });
    let report = sim.run();
    let f = &report.stats().faults;
    println!("\n=== fault counters under a 30% lossy link ===");
    println!(
        "  drops: {}, retries: {}, timeout denies: {}",
        f.drops, f.retries, f.timeout_denies
    );
    assert_eq!(report.output_lines(), vec!["sender: all five delivered"]);
    assert!(f.drops > 0 && f.retries > 0);
}
