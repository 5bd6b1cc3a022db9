//! The simulation: spawning processes and running them to quiescence.
//!
//! Processes execute on dedicated OS threads, but **never concurrently**:
//! exactly one thread holds the turn at any moment (classic
//! coroutine-via-thread discrete-event simulation). Control changes hands
//! through one [`Baton`], created per run: a turn word plus
//! `std::thread::park`/`unpark`. The threads are started one at a time, each
//! checking in through the baton before the next is spawned, so not even
//! thread start-up overlaps anything.
//!
//! There is no scheduler thread, and no lock: the state moves with the turn.
//! A process that parks — in a blocking `Ctx` primitive, or with its body
//! finished, crashed or held for the restoration charge — is the scheduler
//! until someone else has work: it runs [`drive`], which loops `Shared::step`
//! (the machine's transition function, one event per call, see
//! [`shared`](crate::shared)). An event that resumes the stepper returns
//! straight into its body; one that resumes a peer costs one `unpark`, and
//! the giver's wait one yield — then a `park` only if the turn has not come
//! back (on one CPU it often has: see [`baton`](crate::baton) for why once);
//! the end of the run resumes the thread that called [`Simulation::run`],
//! which starts the threads, waits, shuts them down and reports, and steps
//! only while no process can. Who steps decides nothing: every decision in
//! `step` depends only on virtual time, sequence numbers and the master
//! seed, so every run is bit-for-bit reproducible.
//!
//! Rollback never rewinds the virtual clock — exactly as in the real world,
//! a denied assumption wastes the time spent computing under it, and the
//! re-execution (journal replay + live pessimistic branch) proceeds from
//! the moment the deny arrived. This is what makes the Call Streaming
//! latency measurements meaningful.
//!
//! There is one restart path. Whatever ended an attempt at a body — a
//! rollback, a deeper rollback during the restoration hold, a fault kill's
//! restart, a deny reviving a finished body — `process_wrapper` asks
//! `Shared::begin_attempt`, which counts the replay and charges
//! [`SimConfig::rollback_overhead`](crate::SimConfig), and calls the body
//! again with a fresh [`Ctx`], which resumes at the journal's
//! [resume point](crate::journal): replay length is the distance from the
//! newest surviving checkpoint, not from step zero.

use std::panic::{catch_unwind, resume_unwind, AssertUnwindSafe};
use std::sync::Arc;

use hope_core::ProcessId;
use hope_sim::VirtualTime;

use crate::baton::{Baton, RUN};
use crate::config::SimConfig;
use crate::ctx::Ctx;
use crate::shared::{ObserverSlot, ProcShared, ProcState, Shared, Step};
use crate::signal::{Hope, Signal};
use crate::stats::{CrashReason, RunReport};

type Body = Arc<dyn Fn(&mut Ctx) -> Hope<()> + Send + Sync + 'static>;
/// The handoff of a run: the turn, and the state that travels with it.
pub(crate) type Turn = Baton<Box<Shared>>;

/// A configured simulation: spawn processes, then [`run`](Simulation::run).
///
/// # Examples
///
/// The paper's Figure 2 skeleton — a Worker that guesses and a WorryWart
/// that verifies:
///
/// ```
/// use hope_runtime::{Simulation, SimConfig, Value};
/// use hope_sim::VirtualDuration;
///
/// let mut sim = Simulation::new(SimConfig::with_seed(1));
/// // Spawn order fixes ProcessIds: worker = P0, worrywart = P1.
/// let worrywart_pid = hope_core::ProcessId(1);
/// let worker = sim.spawn("worker", move |ctx| {
///     let part_page = ctx.aid_init()?;
///     ctx.send(worrywart_pid, Value::Int(i64::from(part_page.index() as u32)))?;
///     if ctx.guess(part_page)? {
///         ctx.output("summary printed on current page")?;
///     } else {
///         ctx.output("new page forced")?;
///     }
///     Ok(())
/// });
/// sim.spawn("worrywart", |ctx| {
///     let msg = ctx.recv()?;
///     let aid = hope_core::AidId::from_index(msg.payload.expect_int() as u64);
///     ctx.compute(VirtualDuration::from_millis(1))?; // the real check
///     ctx.affirm(aid)?;
///     Ok(())
/// });
/// let report = sim.run();
/// assert!(report.completed());
/// assert_eq!(report.output_lines(), vec!["summary printed on current page"]);
/// # let _ = worker;
/// ```
pub struct Simulation {
    shared: Box<Shared>,
    bodies: Vec<Body>,
}

impl std::fmt::Debug for Simulation {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Simulation")
            .field("processes", &self.bodies.len())
            .finish_non_exhaustive()
    }
}

impl Simulation {
    /// Create a simulation with the given configuration.
    pub fn new(config: SimConfig) -> Self {
        Simulation {
            shared: Box::new(Shared::new(config)),
            bodies: Vec::new(),
        }
    }

    /// Register a process. Ids are assigned densely in spawn order
    /// (`P0, P1, …`), so closures may capture peers' ids by construction
    /// order.
    ///
    /// The body runs when [`run`](Simulation::run) is called. It may be
    /// re-executed after rollback, so it must be `Fn` (not `FnOnce`) and
    /// deterministic given `Ctx` results.
    pub fn spawn(
        &mut self,
        name: impl Into<String>,
        body: impl Fn(&mut Ctx) -> Hope<()> + Send + Sync + 'static,
    ) -> ProcessId {
        self.bodies.push(Arc::new(body));
        self.shared.add_process(name.into())
    }

    /// Number of spawned processes.
    pub fn process_count(&self) -> usize {
        self.bodies.len()
    }

    /// Watch the run — the one way to: `observer` is handed every
    /// [`RunEvent`](crate::RunEvent) with the virtual time it happened at.
    /// A [`RunEvent::Action`](crate::RunEvent::Action) is a process's HOPE
    /// action — a guess (re-executed ones return `false`), a decider
    /// (skipped one-shot re-uses included), a send, receive or ghost drop —
    /// with its engine effects, for a [`hope_core::RuntimeObserver`] such as
    /// the `hope-analysis` race detector; journal *replay* is not reported
    /// (those actions already were), the re-executed live suffix is. An
    /// unwatched run builds no event. `format!("[{t}] {event}")` is the
    /// execution trace:
    ///
    /// ```
    /// use std::sync::{Arc, Mutex};
    /// use hope_runtime::{SimConfig, Simulation};
    ///
    /// let mut sim = Simulation::new(SimConfig::with_seed(1));
    /// sim.spawn("solo", |ctx| ctx.aid_init().and_then(|x| ctx.affirm(x)));
    /// let trace = Arc::new(Mutex::new(Vec::new()));
    /// let lines = trace.clone();
    /// sim.set_observer(move |t, event| lines.lock().unwrap().push(format!("[{t}] {event}")));
    /// sim.run();
    /// assert_eq!(*trace.lock().unwrap(), ["[t=0ns] P0: affirm(X0)"]);
    /// ```
    pub fn set_observer(
        &mut self,
        observer: impl FnMut(VirtualTime, &crate::RunEvent<'_>) + Send + 'static,
    ) {
        self.shared.observer = ObserverSlot(Some(Box::new(observer)));
    }

    /// Install a schedule oracle that overrides earliest-deadline dispatch
    /// (see [`crate::mc`]). Crate-private: the only legitimate driver is
    /// the model checker, whose oracles preserve the realizability
    /// invariants documented on `Shared::next_event`.
    pub(crate) fn set_schedule_oracle(&mut self, oracle: Box<dyn crate::oracle::ScheduleOracle>) {
        self.shared.sched_oracle = crate::oracle::SchedOracleSlot(Some(oracle));
    }

    /// Run the simulation until quiescence (no events left, or every
    /// process finished) or a configured limit, and report what happened.
    pub fn run(self) -> RunReport {
        // The DepSet counters are process-global; report this run's delta.
        let depset_base = (
            hope_core::depset::cow_copies_total(),
            hope_core::depset::spills_total(),
        );
        let mut shared = self.run_to_end();
        if let Some(panic) = shared.step_panic.take() {
            resume_unwind(panic);
        }
        shared.report(depset_base)
    }

    /// [`run`](Simulation::run) short of its report: the state as the run
    /// left it, with what `step` panicked with, if it did.
    fn run_to_end(self) -> Box<Shared> {
        let Simulation { mut shared, bodies } = self;
        let n = bodies.len();
        let baton = Arc::new(Turn::new(n));
        let mut handles = Vec::with_capacity(n);

        for (idx, body) in bodies.iter().enumerate() {
            let (body, bt) = (body.clone(), baton.clone());
            let spawn = || {
                std::thread::Builder::new()
                    .name(format!("hope-{}", shared.procs[idx].name))
                    .spawn(move || process_wrapper(idx, body, bt))
                    .expect("spawn process thread")
            };
            handles.push(baton.start(idx, spawn));
        }
        for idx in 0..n {
            shared.schedule_wake(idx, VirtualTime::ZERO);
        }

        // Turn and state come back here when the run is over, however it ended.
        let mut held = Some(shared);
        drive(&mut held, &baton, RUN);
        baton.shutdown();
        for h in handles {
            let _ = h.join();
        }
        held.expect(TRAVELS)
    }
}

const TRAVELS: &str = "the state travels with the turn";

/// The stepping loop of whichever thread holds the turn (and so `held`) with
/// nothing to run: dispatch events until one resumes `me` (the end of the
/// run resumes [`RUN`]), giving the turn and the state away and waiting for
/// both when one resumes someone else. `false` means shutdown.
pub(crate) fn drive(held: &mut Option<Box<Shared>>, baton: &Turn, me: usize) -> bool {
    loop {
        let step = held.as_mut().expect(TRAVELS).step();
        let next = match step {
            Step::Resume(proc) => proc,
            Step::Continue => continue,
            Step::Done => RUN,
        };
        if next == me {
            return true;
        }
        if !baton.give(me, next, held) {
            return false;
        }
        if me != RUN {
            return true;
        }
        // The turn is `run`'s again: the run is over, which the next `step`
        // says, or a thread died without yielding — machinery bug, or a crash
        // already recorded before it left. Its process is the one still
        // marked running, whoever resumed it.
        let sh = held.as_mut().expect(TRAVELS);
        let running = |p: &ProcShared| p.state == ProcState::Running;
        if let Some(proc) = sh.procs.iter().position(running) {
            let reason = "process thread exited without yielding";
            sh.crash(proc, CrashReason::Panic(reason.to_string()));
        }
    }
}

/// Per-process thread: runs (and on rollback, re-runs) the body.
fn process_wrapper(idx: usize, body: Body, baton: Arc<Turn>) {
    // However this thread leaves, the turn and the state it holds go back.
    let mut seat = baton.return_on_exit(idx);
    // Check in with `Baton::start`, then wait for the first turn.
    if !baton.give(idx, RUN, &mut seat.held) {
        return;
    }
    // One iteration per attempt at the body: the first run, or a rollback's
    // re-execution (which may also revive a body that had finished).
    loop {
        let attempt = seat.held.as_mut().expect(TRAVELS).begin_attempt(idx);
        if let Some(replay) = attempt {
            let mut ctx = Ctx::new(seat.held.take(), baton.clone(), idx, replay);
            let outcome = catch_unwind(AssertUnwindSafe(|| body(&mut ctx)));
            seat.held = ctx.shared.into_inner();
            let panic = match outcome {
                Ok(Ok(())) => None,
                // `apply_effects` set the victim's rollback-pending flag (for
                // self-rollbacks too); the next `begin_attempt` observes it.
                Ok(Err(Signal::Rollback)) => continue, // replay + live
                // Shutdown, or a crash `Ctx` already recorded: just leave.
                Ok(Err(Signal::Shutdown)) => return,
                Err(panic) => Some(panic_message(panic)),
            };
            // No state: the body outlived the run's end and ignored it.
            let Some(sh) = seat.held.as_mut() else { return };
            sh.end_attempt(idx, panic);
        }
        // Held for the restoration charge, finished, or crashed: nothing to
        // run here, so step until an event brings this process back.
        if !drive(&mut seat.held, &baton, idx) {
            return;
        }
    }
}

fn panic_message(panic: Box<dyn std::any::Any + Send>) -> String {
    if let Some(s) = panic.downcast_ref::<&str>() {
        (*s).to_string()
    } else if let Some(s) = panic.downcast_ref::<String>() {
        s.clone()
    } else {
        "process body panicked".to_string()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::value::Value;
    use hope_sim::{Topology, VirtualDuration};

    fn ms(v: u64) -> VirtualDuration {
        VirtualDuration::from_millis(v)
    }

    #[test]
    fn empty_simulation_completes() {
        let report = Simulation::new(SimConfig::default()).run();
        assert!(report.completed());
        assert_eq!(report.events(), 0);
    }

    #[test]
    fn single_process_computes_and_finishes() {
        let mut sim = Simulation::new(SimConfig::default());
        let p = sim.spawn("solo", |ctx| {
            ctx.compute(ms(5))?;
            ctx.output("done")?;
            Ok(())
        });
        let report = sim.run();
        assert!(report.completed(), "{report}");
        assert_eq!(report.output_lines(), vec!["done"]);
        assert_eq!(report.finish_time(p).unwrap().as_millis_f64(), 5.0);
    }

    #[test]
    fn ping_pong_accumulates_latency() {
        let mut sim = Simulation::new(
            SimConfig::with_seed(3)
                .with_topology(Topology::uniform(hope_sim::LatencyModel::Fixed(ms(10)))),
        );
        let ponger = hope_core::ProcessId(1);
        let pinger = sim.spawn("pinger", move |ctx| {
            for i in 0..3 {
                let r = ctx.rpc(ponger, Value::Int(i))?;
                assert_eq!(r, Value::Int(i * 2));
            }
            Ok(())
        });
        sim.spawn("ponger", |ctx| {
            for _ in 0..3 {
                let req = ctx.recv()?;
                let v = req.payload.expect_int();
                ctx.reply(&req, Value::Int(v * 2))?;
            }
            Ok(())
        });
        let report = sim.run();
        assert!(report.completed(), "{report}");
        // 3 round trips × 20 ms.
        assert_eq!(report.finish_time(pinger).unwrap().as_millis_f64(), 60.0);
        assert_eq!(report.stats().messages_sent, 6);
        assert_eq!(report.stats().messages_delivered, 6);
    }

    #[test]
    fn affirmed_guess_keeps_speculative_output() {
        let mut sim = Simulation::new(SimConfig::default());
        let verifier = hope_core::ProcessId(1);
        sim.spawn("worker", move |ctx| {
            let x = ctx.aid_init()?;
            ctx.send(verifier, Value::Int(x.index() as i64))?;
            if ctx.guess(x)? {
                ctx.output("optimistic path")?;
            } else {
                ctx.output("pessimistic path")?;
            }
            Ok(())
        });
        sim.spawn("verifier", |ctx| {
            let m = ctx.recv()?;
            let aid = hope_core::AidId::from_index(m.payload.expect_int() as u64);
            ctx.compute(ms(2))?;
            ctx.affirm(aid)?;
            Ok(())
        });
        let report = sim.run();
        assert!(report.completed(), "{report}");
        assert_eq!(report.output_lines(), vec!["optimistic path"]);
        assert_eq!(report.stats().rollback_events, 0);
        assert_eq!(report.stats().engine.finalized, 1);
    }

    #[test]
    fn denied_guess_rolls_back_and_reexecutes() {
        let mut sim = Simulation::new(SimConfig::default());
        let verifier = hope_core::ProcessId(1);
        sim.spawn("worker", move |ctx| {
            let x = ctx.aid_init()?;
            ctx.send(verifier, Value::Int(x.index() as i64))?;
            if ctx.guess(x)? {
                ctx.output("optimistic path")?;
            } else {
                ctx.output("pessimistic path")?;
            }
            Ok(())
        });
        sim.spawn("verifier", |ctx| {
            let m = ctx.recv()?;
            let aid = hope_core::AidId::from_index(m.payload.expect_int() as u64);
            ctx.compute(ms(2))?;
            ctx.deny(aid)?;
            Ok(())
        });
        let report = sim.run();
        assert!(report.completed(), "{report}");
        // The speculative line was discarded; only the re-executed
        // pessimistic line committed.
        assert_eq!(report.output_lines(), vec!["pessimistic path"]);
        assert_eq!(report.stats().rollback_events, 1);
        assert_eq!(report.stats().replays, 1);
        assert_eq!(report.stats().outputs_discarded, 1);
    }

    #[test]
    fn self_deny_unwinds_inline() {
        let mut sim = Simulation::new(SimConfig::default());
        sim.spawn("solo", |ctx| {
            let x = ctx.aid_init()?;
            if ctx.guess(x)? {
                ctx.compute(ms(1))?;
                ctx.deny(x)?; // definite self-deny: rolls *us* back
                unreachable!("deny of own dependence must unwind");
            } else {
                ctx.output("took the false branch")?;
            }
            Ok(())
        });
        let report = sim.run();
        assert!(report.completed(), "{report}");
        assert_eq!(report.output_lines(), vec!["took the false branch"]);
        assert_eq!(report.stats().replays, 1);
    }

    #[test]
    fn rollback_cascades_through_messages() {
        // P0 guesses and sends to P1; P1 computes on it and sends to P2;
        // P3 denies. P0, P1, P2 all roll back and re-execute.
        let mut sim = Simulation::new(SimConfig::default());
        let p1 = hope_core::ProcessId(1);
        let p2 = hope_core::ProcessId(2);
        let p3 = hope_core::ProcessId(3);
        sim.spawn("origin", move |ctx| {
            let x = ctx.aid_init()?;
            ctx.send(p3, Value::Int(x.index() as i64))?;
            let flag = ctx.guess(x)?;
            ctx.send(p1, Value::Bool(flag))?;
            ctx.output(format!("origin: {flag}"))?;
            Ok(())
        });
        sim.spawn("middle", move |ctx| {
            let m = ctx.recv()?;
            ctx.compute(ms(1))?;
            ctx.send(p2, m.payload.clone())?;
            ctx.output(format!("middle: {}", m.payload))?;
            Ok(())
        });
        sim.spawn("leaf", |ctx| {
            let m = ctx.recv()?;
            ctx.output(format!("leaf: {}", m.payload))?;
            Ok(())
        });
        sim.spawn("judge", |ctx| {
            let m = ctx.recv()?;
            let aid = hope_core::AidId::from_index(m.payload.expect_int() as u64);
            ctx.compute(ms(5))?;
            ctx.deny(aid)?;
            Ok(())
        });
        let report = sim.run();
        assert!(report.completed(), "{report}");
        let lines = report.output_lines();
        assert!(lines.contains(&"origin: false"), "{lines:?}");
        assert!(lines.contains(&"middle: false"), "{lines:?}");
        assert!(lines.contains(&"leaf: false"), "{lines:?}");
        assert!(!lines.contains(&"origin: true"));
        assert!(report.stats().rollback_events >= 3, "{report}");
        assert!(report.stats().ghosts_dropped >= 1, "ghost copies dropped");
    }

    #[test]
    fn rollback_overhead_is_charged() {
        let overhead = ms(7);
        let run = |with_overhead: bool| {
            let cfg = if with_overhead {
                SimConfig::default().with_rollback_overhead(overhead)
            } else {
                SimConfig::default()
            };
            let mut sim = Simulation::new(cfg);
            let v = hope_core::ProcessId(1);
            let w = sim.spawn("worker", move |ctx| {
                let x = ctx.aid_init()?;
                ctx.send(v, Value::Int(x.index() as i64))?;
                let _ = ctx.guess(x)?;
                ctx.compute(ms(1))?;
                Ok(())
            });
            sim.spawn("verifier", |ctx| {
                let m = ctx.recv()?;
                let aid = hope_core::AidId::from_index(m.payload.expect_int() as u64);
                ctx.deny(aid)?;
                Ok(())
            });
            let report = sim.run();
            assert!(report.completed(), "{report}");
            report.finish_time(w).unwrap()
        };
        let without = run(false);
        let with = run(true);
        assert_eq!((with - without), overhead);
    }

    #[test]
    fn deterministic_across_runs() {
        let run = || {
            let mut sim = Simulation::new(SimConfig::with_seed(99).with_topology(
                Topology::uniform(hope_sim::LatencyModel::Uniform {
                    lo: ms(1),
                    hi: ms(5),
                }),
            ));
            let consumer = hope_core::ProcessId(1);
            sim.spawn("producer", move |ctx| {
                for _ in 0..10 {
                    let v = ctx.random_u64()? % 100;
                    ctx.send(consumer, Value::Int(v as i64))?;
                    ctx.compute(ms(1))?;
                }
                Ok(())
            });
            sim.spawn("consumer", |ctx| {
                let mut total = 0;
                for _ in 0..10 {
                    total += ctx.recv()?.payload.expect_int();
                }
                ctx.output(format!("total={total}"))?;
                Ok(())
            });
            let r = sim.run();
            (
                r.end_time(),
                r.output_lines().join(","),
                r.stats().messages_sent,
            )
        };
        assert_eq!(run(), run());
    }

    #[test]
    fn crashed_process_is_reported() {
        let mut sim = Simulation::new(SimConfig::default());
        let p = sim.spawn("bad", |_ctx| panic!("intentional test panic"));
        sim.spawn("good", |ctx| {
            ctx.compute(ms(1))?;
            Ok(())
        });
        let report = sim.run();
        assert!(!report.completed());
        assert_eq!(
            report.errors().get(&p).map(String::as_str),
            Some("intentional test panic")
        );
    }

    #[test]
    fn server_left_blocked_is_unfinished() {
        let mut sim = Simulation::new(SimConfig::default());
        let server = hope_core::ProcessId(0);
        sim.spawn("server", |ctx| loop {
            let req = ctx.recv()?;
            ctx.reply(&req, Value::Int(1))?;
        });
        sim.spawn("client", move |ctx| {
            let r = ctx.rpc(server, Value::Unit)?;
            assert_eq!(r, Value::Int(1));
            Ok(())
        });
        let report = sim.run();
        assert_eq!(report.unfinished(), &[server]);
        assert!(report.errors().is_empty());
    }

    #[test]
    fn max_events_limit_stops_runaway() {
        let cfg = SimConfig::default().with_max_events(50);
        let mut sim = Simulation::new(cfg);
        sim.spawn("spinner", |ctx| loop {
            ctx.compute(ms(1))?;
        });
        let report = sim.run();
        assert!(report.hit_limits());
        assert!(!report.completed());
        // The event that trips the limit is counted once, whoever found it.
        assert_eq!(report.events(), 51);
    }

    #[test]
    fn panic_in_step_is_the_runs_not_the_steppers() {
        /// Defers to earliest-deadline order, until it gives up.
        struct GivesUp(u32);
        impl crate::oracle::ScheduleOracle for GivesUp {
            fn choose(&mut self, _: &Shared) -> Option<u64> {
                self.0 -= 1;
                let thread = std::thread::current();
                assert!(self.0 > 0, "oracle gave up on {}", thread.name().unwrap());
                None
            }
        }
        let witness = Arc::new(());
        let sim = || {
            let held = witness.clone();
            let mut sim = Simulation::new(SimConfig::default());
            sim.spawn("spinner", move |ctx| loop {
                let _held = &held;
                ctx.compute(ms(1))?;
            });
            sim.spawn("bystander", |ctx| ctx.recv().map(|_| ()));
            // Three choices in, the bystander is blocked for good and the
            // spinner pops its own wakes, inside its body's `catch_unwind`.
            sim.set_schedule_oracle(Box::new(GivesUp(5)));
            sim
        };
        let panic = catch_unwind(AssertUnwindSafe(|| sim().run())).expect_err("run panics");
        assert_eq!(panic_message(panic), "oracle gave up on hope-spinner");
        assert_eq!(Arc::strong_count(&witness), 1, "a body outlived run()");
        // The same run short of `run`'s re-raise: the panic, and the state
        // it left behind.
        let mut sh = sim().run_to_end();
        let panic = sh.step_panic.take().expect("step panicked");
        assert_eq!(panic_message(panic), "oracle gave up on hope-spinner");
        let crashes: Vec<_> = sh.procs.iter().filter_map(|p| p.crash.as_ref()).collect();
        assert!(crashes.is_empty(), "an innocent process took the blame");
        assert_eq!(Arc::strong_count(&witness), 1, "a body outlived run()");
    }

    #[test]
    fn free_of_detects_ordering_violation() {
        // A server asserts its handling of request A is free of the
        // client's speculation; because the client's speculative message
        // reached it first, free_of denies and both roll back.
        let mut sim = Simulation::new(SimConfig::default());
        let server = hope_core::ProcessId(1);
        sim.spawn("client", move |ctx| {
            let order = ctx.aid_init()?;
            if ctx.guess(order)? {
                // Speculatively send; the server will assert independence.
                ctx.send(server, Value::Int(order.index() as i64))?;
                ctx.output("client sent speculatively")?;
            } else {
                ctx.output("client held its message")?;
            }
            Ok(())
        });
        sim.spawn("server", |ctx| {
            let m = ctx.recv()?;
            let order = hope_core::AidId::from_index(m.payload.expect_int() as u64);
            // We are *dependent* on `order` (the tag made us guess it), so
            // this free_of denies it and rolls us back; after rollback the
            // message is a ghost and the client's re-execution sends
            // nothing, so recv blocks forever — the server ends unfinished
            // and its speculative output is discarded.
            ctx.free_of(order)?;
            ctx.output("server unreachable line")?;
            Ok(())
        });
        let report = sim.run();
        assert!(report.stats().rollback_events >= 2, "{report}");
        assert_eq!(report.output_lines(), vec!["client held its message"]);
        assert_eq!(report.unfinished(), &[server]);
        assert!(report.finish_time(hope_core::ProcessId(0)).is_some());
        assert!(report.stats().ghosts_dropped >= 1);
    }
}
