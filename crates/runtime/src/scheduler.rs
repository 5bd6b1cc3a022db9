//! The simulation: spawning processes and running them to quiescence.
//!
//! Processes execute on dedicated OS threads, but **never concurrently**:
//! the scheduler resumes exactly one process at a time and waits for it to
//! park (classic coroutine-via-thread discrete-event simulation). Control
//! changes hands through one [`Baton`], created per run: a turn word plus
//! `std::thread::park`/`unpark`. The threads are started one at a time, each
//! checking in through the baton before the next is spawned, so not even
//! thread start-up overlaps anything. All scheduling decisions depend only
//! on virtual time, sequence numbers and the master seed, so every run is
//! bit-for-bit reproducible.
//!
//! Rollback never rewinds the virtual clock — exactly as in the real world,
//! a denied assumption wastes the time spent computing under it, and the
//! re-execution (journal replay + live pessimistic branch) proceeds from
//! the moment the deny arrived. This is what makes the Call Streaming
//! latency measurements meaningful.
//!
//! There is one restart path. Whatever ended an attempt at a body — a
//! rollback, a deeper rollback during the restoration hold, a fault kill's
//! restart, a deny reviving a finished body — `process_wrapper` counts the
//! replay, charges [`SimConfig::rollback_overhead`](crate::SimConfig) and
//! calls the body again with a fresh [`Ctx`], which resumes at the newest
//! snapshot the truncation left in the journal (see
//! [`journal`](crate::journal)); replay length is the distance from that
//! checkpoint, not from step zero.

use std::collections::BTreeMap;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::{Arc, Mutex};
use std::thread::JoinHandle;

use hope_core::ProcessId;
use hope_sim::{VirtualDuration, VirtualTime};

use crate::baton::Baton;
use crate::config::SimConfig;
use crate::ctx::Ctx;
use crate::journal::Journal;
use crate::message::Mailbox;
use crate::shared::{EventKind, ObserverSlot, ProcShared, ProcState, Shared};
use crate::signal::{Hope, Signal};
use crate::stats::{CrashReason, RunReport};

type Body = Arc<dyn Fn(&mut Ctx) -> Hope<()> + Send + Sync + 'static>;

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
    shared: Arc<Mutex<Shared>>,
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
            shared: Arc::new(Mutex::new(Shared::new(config))),
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
        let mut sh = Shared::lock(&self.shared);
        let pid = sh.engine.register_process();
        let seed = sh.config.seed;
        let idx = sh.procs.len();
        debug_assert_eq!(pid.0 as usize, idx, "engine assigns dense pids");
        sh.procs.push(ProcShared {
            pid,
            name: name.into(),
            state: ProcState::Holding,
            mailbox: Mailbox::new(),
            journal: Journal::default(),
            rollback_pending: false,
            wake_epoch: 0,
            rng: hope_sim::SimRng::new(seed).fork(idx as u64),
            finish_time: None,
            crash: None,
            next_reliable: 0,
            own_aids: Vec::new(),
            snapshots: Vec::new(),
            restorable: false,
        });
        self.bodies.push(Arc::new(body));
        pid
    }

    /// Number of spawned processes.
    pub fn process_count(&self) -> usize {
        self.bodies.len()
    }

    /// Install a runtime observer: `observer` is called once per executed
    /// HOPE action — guesses (including re-executed ones returning
    /// `false`), deciders (including skipped one-shot re-uses), sends,
    /// receives, and ghost drops — with the acting process and the engine
    /// effects the action produced.
    ///
    /// Journal *replay* after a rollback is not reported (those actions
    /// already were, on first execution); the re-executed live suffix is.
    /// Feed the callbacks to a [`hope_core::RuntimeObserver`] such as the
    /// `hope-analysis` race detector:
    ///
    /// ```
    /// use std::sync::Arc;
    /// use hope_core::{NullObserver, RuntimeObserver};
    /// use hope_runtime::{SimConfig, Simulation};
    /// use std::sync::Mutex;
    ///
    /// let mut sim = Simulation::new(SimConfig::with_seed(1));
    /// let observer = Arc::new(Mutex::new(NullObserver));
    /// let hook = observer.clone();
    /// sim.set_observer(move |pid, action, effects| {
    ///     hook.lock().unwrap().observe(pid, action, effects);
    /// });
    /// ```
    pub fn set_observer(
        &mut self,
        observer: impl FnMut(ProcessId, &hope_core::Action, &[hope_core::Effect]) + Send + 'static,
    ) {
        Shared::lock(&self.shared).observer = ObserverSlot(Some(Box::new(observer)));
    }

    /// Install a schedule oracle that overrides earliest-deadline dispatch
    /// (see [`crate::mc`]). Crate-private: the only legitimate driver is
    /// the model checker, whose oracles preserve the realizability
    /// invariants documented on `Shared::next_event`.
    pub(crate) fn set_schedule_oracle(&mut self, oracle: Box<dyn crate::oracle::ScheduleOracle>) {
        Shared::lock(&self.shared).sched_oracle = crate::oracle::SchedOracleSlot(Some(oracle));
    }

    /// Run the simulation until quiescence (no events left, or every
    /// process finished) or a configured limit, and report what happened.
    pub fn run(self) -> RunReport {
        let Simulation { shared, bodies } = self;
        // The DepSet counters are process-global; report this run's delta.
        let depset_base = (
            hope_core::depset::cow_copies_total(),
            hope_core::depset::spills_total(),
        );
        let n = bodies.len();
        let baton = Arc::new(Baton::new());
        let mut handles: Vec<JoinHandle<()>> = Vec::with_capacity(n);

        for (idx, body) in bodies.iter().enumerate() {
            let (sh, body, bt) = (shared.clone(), body.clone(), baton.clone());
            let name = Shared::lock(&shared).procs[idx].name.clone();
            let spawn = || {
                std::thread::Builder::new()
                    .name(format!("hope-{name}"))
                    .spawn(move || process_wrapper(sh, idx, body, bt))
                    .expect("spawn process thread")
            };
            handles.push(baton.start(idx, spawn));
        }

        {
            let mut sh = Shared::lock(&shared);
            for idx in 0..n {
                sh.schedule_wake(idx, VirtualTime::ZERO);
            }
        }

        let resume = |proc: usize| {
            {
                let mut sh = Shared::lock(&shared);
                sh.procs[proc].state = ProcState::Running;
            }
            if !baton.resume(proc, handles[proc].thread()) {
                // The thread died without yielding: machinery bug or a
                // crash already recorded before it left.
                let mut sh = Shared::lock(&shared);
                if sh.procs[proc].state == ProcState::Running {
                    sh.procs[proc].state = ProcState::Crashed;
                    sh.procs[proc].crash = Some(CrashReason::Panic(
                        "process thread exited without yielding".to_string(),
                    ));
                }
            }
        };

        // Holds one popped `EventKind` by value for the instant before it
        // runs — indirection would buy nothing here.
        #[allow(clippy::large_enum_variant)]
        enum Step {
            Run(EventKind),
            Quiesced,
            Limits,
        }
        // Fossil-collection cadence: sweeping is transparent (it can only
        // reclaim storage, never change outputs), so any period works; 256
        // keeps the amortized cost per event negligible.
        const FOSSIL_SWEEP_PERIOD: u64 = 256;
        let mut events: u64 = 0;
        let mut hit_limits = false;
        loop {
            let step = {
                let mut sh = Shared::lock(&shared);
                // A Finished process can still be rolled back (its last
                // intervals may be speculative), so quiescence requires
                // both: everyone finished AND no rollback awaiting resume.
                let all_done = sh
                    .procs
                    .iter()
                    .all(|p| matches!(p.state, ProcState::Finished | ProcState::Crashed));
                let any_pending = sh.procs.iter().any(|p| p.rollback_pending);
                // Acks, retransmission deadlines and restarts still change
                // outcomes after every body has returned; drain them first.
                if all_done && !any_pending && sh.pending_system == 0 {
                    Step::Quiesced
                } else {
                    match sh.next_event() {
                        None => Step::Quiesced,
                        Some((t, ev)) => {
                            if t > sh.config.max_virtual_time {
                                Step::Limits
                            } else {
                                events += 1;
                                if events > sh.config.max_events {
                                    Step::Limits
                                } else {
                                    if t > sh.now {
                                        sh.now = t;
                                    }
                                    // Process faults fire between events:
                                    // "crash at the Nth scheduler step"
                                    // means just before the Nth dispatch.
                                    let kills: Vec<(usize, Option<VirtualDuration>)> = sh
                                        .config
                                        .faults
                                        .as_ref()
                                        .map(|plan| {
                                            plan.kills_at(events)
                                                .map(|k| (k.node as usize, k.restart_after))
                                                .collect()
                                        })
                                        .unwrap_or_default();
                                    for (victim, restart_after) in kills {
                                        if victim < sh.procs.len() {
                                            sh.kill_process(victim, restart_after);
                                        }
                                    }
                                    Step::Run(ev)
                                }
                            }
                        }
                    }
                }
            };
            let ev = match step {
                Step::Run(ev) => ev,
                Step::Limits => {
                    hit_limits = true;
                    break;
                }
                Step::Quiesced => {
                    // Optionally let the definite external observer settle
                    // the surviving speculation (see the SimConfig docs);
                    // its cascades may schedule new work, so keep looping.
                    let committed = {
                        let mut sh = Shared::lock(&shared);
                        sh.config.commit_at_quiescence && sh.quiescence_commit()
                    };
                    if committed {
                        continue;
                    }
                    break;
                }
            };
            match ev {
                EventKind::Wake { proc, epoch } => {
                    let live = {
                        let sh = Shared::lock(&shared);
                        sh.procs[proc].wake_epoch == epoch
                            && !matches!(sh.procs[proc].state, ProcState::Crashed | ProcState::Down)
                    };
                    if live {
                        resume(proc);
                    }
                }
                EventKind::Deliver { msg } => {
                    let resume_target = {
                        let mut sh = Shared::lock(&shared);
                        sh.handle_delivery(msg)
                    };
                    if let Some(p) = resume_target {
                        resume(p);
                    }
                }
                EventKind::Ack { aid } => {
                    let mut sh = Shared::lock(&shared);
                    sh.pending_system = sh.pending_system.saturating_sub(1);
                    sh.ack_fire(aid);
                }
                EventKind::AckTimeout { aid } => {
                    let mut sh = Shared::lock(&shared);
                    sh.pending_system = sh.pending_system.saturating_sub(1);
                    sh.timeout_fire(aid);
                }
                EventKind::Restart { proc } => {
                    let mut sh = Shared::lock(&shared);
                    sh.pending_system = sh.pending_system.saturating_sub(1);
                    sh.restart_fire(proc);
                }
            }
            if events.is_multiple_of(FOSSIL_SWEEP_PERIOD) {
                let mut sh = Shared::lock(&shared);
                if sh.config.fossil_collection {
                    sh.fossil_sweep();
                }
            }
        }

        baton.shutdown(handles.iter().map(JoinHandle::thread));
        for h in handles {
            let _ = h.join();
        }

        let mut sh = Shared::lock(&shared);
        let mut outputs = std::mem::take(&mut sh.outputs);
        outputs.sort_by_key(|o| (o.time, o.process));
        let mut finish_times = BTreeMap::new();
        let mut unfinished = Vec::new();
        let mut errors = BTreeMap::new();
        let mut crashes = BTreeMap::new();
        for p in &sh.procs {
            match p.state {
                ProcState::Finished => {
                    if let Some(t) = p.finish_time {
                        finish_times.insert(p.pid, t);
                    }
                }
                ProcState::Crashed => {
                    let reason = p
                        .crash
                        .clone()
                        .unwrap_or_else(|| CrashReason::Panic("crashed".to_string()));
                    errors.insert(p.pid, reason.to_string());
                    crashes.insert(p.pid, reason);
                }
                _ => unfinished.push(p.pid),
            }
        }
        let mut stats = sh.stats;
        stats.engine = sh.engine.stats();
        stats.memory.live_intervals = sh.engine.live_interval_count() as u64;
        stats.memory.live_aids = sh.engine.live_aid_count() as u64;
        stats.memory.interval_horizon = sh.engine.interval_horizon();
        stats.memory.aid_horizon = sh.engine.aid_horizon();
        stats.memory.reclaimed_intervals = stats.engine.fossil_intervals;
        stats.memory.reclaimed_aids = stats.engine.fossil_aids;
        stats.memory.fossil_denied = sh.engine.fossil_denied_count() as u64;
        for p in &sh.procs {
            stats.memory.live_journal_entries += p.journal.live_len() as u64;
            stats.memory.reclaimed_journal_entries += p.journal.reclaimed_entries;
        }
        stats.memory.depset_cow_copies =
            hope_core::depset::cow_copies_total().saturating_sub(depset_base.0);
        stats.memory.depset_spills =
            hope_core::depset::spills_total().saturating_sub(depset_base.1);
        let gov_transitions = match sh.governor.as_mut() {
            Some(g) => {
                stats.governor = g.stats;
                std::mem::take(&mut g.transitions)
            }
            None => Vec::new(),
        };
        RunReport {
            end_time: sh.now,
            events,
            hit_limits,
            outputs,
            stats,
            finish_times,
            unfinished,
            errors,
            crashes,
            trace: std::mem::take(&mut sh.trace_log),
            races: sh
                .race_detector
                .take()
                .map(|d| d.into_races())
                .unwrap_or_default(),
            gov_transitions,
        }
    }
}

/// Per-process thread: runs (and on rollback, re-runs) the body.
fn process_wrapper(shared: Arc<Mutex<Shared>>, idx: usize, body: Body, baton: Arc<Baton>) {
    // However this thread leaves, the scheduler is not left waiting on it.
    let _guard = baton.return_on_exit(idx);
    // Check in with `Baton::start`, then wait for the first turn.
    if !baton.pass(idx) {
        return;
    }
    // One iteration per attempt at the body: the first run, or a rollback's
    // re-execution (which may also revive a body that had finished).
    loop {
        let (replay_len, charge_overhead) = {
            let mut sh = Shared::lock(&shared);
            let mut charge = VirtualDuration::ZERO;
            if sh.procs[idx].rollback_pending {
                // This body run is a rollback-induced re-execution.
                sh.stats.replays += 1;
                sh.procs[idx].rollback_pending = false;
                charge = sh.config.rollback_overhead;
            }
            (sh.procs[idx].journal.len(), charge)
        };
        if !charge_overhead.is_zero() {
            // Charge checkpoint-restoration cost as an inline hold
            // before re-executing.
            {
                let mut sh = Shared::lock(&shared);
                sh.procs[idx].state = ProcState::Holding;
                let at = sh.now + charge_overhead;
                sh.schedule_wake(idx, at);
            }
            if !baton.pass(idx) {
                return;
            }
            // A deeper rollback may have struck while we were holding
            // for the restoration charge: its truncation invalidates
            // the replay length captured above, and the extra rollback
            // deserves its own replay count and restoration charge.
            // Start the restart over from the (now shorter) journal.
            if Shared::lock(&shared).procs[idx].rollback_pending {
                continue;
            }
        }
        let mut ctx = Ctx::new(shared.clone(), baton.clone(), idx, replay_len);
        match catch_unwind(AssertUnwindSafe(|| body(&mut ctx))) {
            Ok(Ok(())) => {
                let mut sh = Shared::lock(&shared);
                sh.procs[idx].state = ProcState::Finished;
                let now = sh.now;
                sh.procs[idx].finish_time = Some(now);
            }
            // The rollback-pending flag (set by apply_effects for the
            // victim, including self-rollbacks) is observed at the top of
            // this loop, which counts the replay and charges the
            // configured restoration overhead.
            Ok(Err(Signal::Rollback)) => continue, // replay + live
            // Shutdown, or a crash `Ctx` already recorded: just leave.
            Ok(Err(Signal::Shutdown)) => return,
            Err(panic) => {
                let mut sh = Shared::lock(&shared);
                sh.procs[idx].state = ProcState::Crashed;
                sh.procs[idx].crash = Some(CrashReason::Panic(panic_message(panic)));
            }
        }
        // Finished or crashed. A crash is final; a finished body comes back
        // only if a rollback revives it.
        if !baton.pass(idx) {
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
