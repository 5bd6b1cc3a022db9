//! The scheduler-shared state: engine, processes, event queue, network.
//!
//! Exactly one thread runs at any moment — whichever holds the
//! [`Baton`](crate::baton::Baton) — and [`Shared`] travels with the turn: the
//! holder owns the one `Box<Shared>` of the run, and hands it over in the
//! baton's slot with the turn. Nothing locks it.
//!
//! [`Shared::step`] is the scheduler: the one transition function over
//! this state, as `hope_core::Machine::step` is over the paper's control
//! variables. There is no scheduler thread: the thread that holds the baton
//! and has nothing to run — a process that just parked — steps once per
//! event, and gives the baton and the state away only when `step` names
//! someone else. States change only through [`Shared::set_state`].

use std::collections::{BTreeMap, BTreeSet, HashSet, VecDeque};
use std::panic::{catch_unwind, AssertUnwindSafe};

use hope_core::observer::decide;
use hope_core::{Action, AidId, AidState, Checkpoint, DecideKind, Effect, Engine, IntervalId};
use hope_core::{ProcessId, ReceiveOutcome};
use hope_sim::{EventQueue, LinkVerdict, SimRng, VirtualDuration, VirtualTime};

use crate::config::SimConfig;
use crate::ctx::backoff_deadline;
use crate::event::RunEvent;
use crate::governor::Governor;
use crate::journal::{Entry, Journal};
use crate::message::{Mailbox, Message, MsgKind};
use crate::oracle::SchedOracleSlot;
use crate::signal::{Hope, Signal};
use crate::stats::{CrashReason, OutputLine, RunReport, RunStats};
use crate::value::Value;

/// What a scheduler event does when it fires.
#[derive(Debug, Clone)]
pub(crate) enum EventKind {
    /// Resume process `proc` if `epoch` is still current.
    Wake { proc: usize, epoch: u64 },
    /// Place a message (boxed: the queue moves a pointer) into its mailbox.
    Deliver { msg: Box<Message> },
    /// A reliable delivery reached its destination: affirm the sender's
    /// "delivered" assumption (if still undecided).
    Ack { aid: AidId },
    /// A reliable send's retransmission deadline: deny the "delivered"
    /// assumption (if still undecided), rolling the sender back into its
    /// retry loop.
    AckTimeout { aid: AidId },
    /// Bring a fault-killed process back up (journal-prefix recovery).
    Restart { proc: usize },
}

/// Scheduler-visible process state.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum ProcState {
    /// Currently executing (at most one process at a time).
    Running,
    /// Waiting for a `Wake` (inside `compute`, or awaiting first resume).
    Holding,
    /// Waiting for a deliverable message.
    BlockedRecv,
    /// Body returned `Ok(())` (may still be rolled back and re-run).
    Finished,
    /// Body panicked; the process is dead.
    Crashed,
    /// Fault-killed with a scheduled restart: deliveries are lost and
    /// wakes suppressed until the `Restart` event brings it back.
    Down,
}

#[derive(Debug)]
pub(crate) struct ProcShared {
    pub(crate) pid: ProcessId,
    pub(crate) name: String,
    /// Written only by [`Shared::set_state`].
    pub(crate) state: ProcState,
    pub(crate) mailbox: Mailbox,
    pub(crate) journal: Journal,
    /// Set when a rollback truncated the journal; the process's next
    /// resume observes it and unwinds, [`Shared::begin_attempt`] clears it.
    pub(crate) rollback_pending: bool,
    /// Only the `Wake` carrying the current epoch is honoured; scheduling a
    /// new wake invalidates older ones.
    pub(crate) wake_epoch: u64,
    pub(crate) rng: SimRng,
    pub(crate) finish_time: Option<VirtualTime>,
    pub(crate) crash: Option<CrashReason>,
    /// Next logical sequence number for `send_reliable` (allocation is
    /// journaled, so replays reuse the recorded number).
    pub(crate) next_reliable: u64,
}

/// What the stepping thread does after one [`Shared::step`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum Step {
    /// This process (now `Running`) runs next, until it parks.
    Resume(usize),
    /// Nothing to hand over; step again.
    Continue,
    /// Quiescent, a configured limit was hit, or `step` panicked: the run
    /// is over, and every later `step` answers `Done` and touches nothing.
    Done,
}

/// What a live `Ctx` primitive did, for [`Shared::record`]: the entry it
/// journals and the body's reply, and for a HOPE action the action
/// observed and the engine effects it caused.
pub(crate) struct Done<R> {
    entry: Entry,
    pub(crate) reply: R,
    action: Option<Action>,
    fx: Vec<Effect>,
    /// A reliable send's `(seq, attempt)`, reported with its action.
    reliable: Option<(u64, u32)>,
}

impl<R> Done<R> {
    /// A step no observer sees: journaled, nothing else.
    pub(crate) fn quiet(entry: Entry, reply: R) -> Self {
        Done {
            entry,
            reply,
            action: None,
            fx: Vec::new(),
            reliable: None,
        }
    }

    /// A HOPE action: observed, journaled, its effects applied.
    pub(crate) fn acted(entry: Entry, reply: R, action: Action, fx: Vec<Effect>) -> Self {
        Done {
            action: Some(action),
            fx,
            ..Done::quiet(entry, reply)
        }
    }
}

/// The boxed form of an installed observer callback.
pub(crate) type ObserverFn = Box<dyn FnMut(VirtualTime, &RunEvent<'_>) + Send>;

/// The installed runtime observer, if any. A newtype so [`Shared`] can
/// keep deriving `Debug` around the unprintable closure.
pub(crate) struct ObserverSlot(pub(crate) Option<ObserverFn>);

impl std::fmt::Debug for ObserverSlot {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(if self.0.is_some() {
            "ObserverSlot(set)"
        } else {
            "ObserverSlot(unset)"
        })
    }
}

#[derive(Debug)]
pub(crate) struct Shared {
    pub(crate) engine: Engine,
    pub(crate) procs: Vec<ProcShared>,
    pub(crate) queue: EventQueue<EventKind>,
    pub(crate) now: VirtualTime,
    pub(crate) config: SimConfig,
    pub(crate) net_rng: SimRng,
    /// Last delivery time per directed link, for FIFO clamping.
    pub(crate) link_last: BTreeMap<(u32, u32), VirtualTime>,
    pub(crate) next_msg_id: u64,
    pub(crate) next_mail_seq: u64,
    /// Output buffered by speculative intervals, ordered by interval and
    /// within one interval by output order: a finalize releases an
    /// interval's range, a rollback discards it.
    pub(crate) pending_output: VecDeque<(IntervalId, OutputLine)>,
    pub(crate) outputs: Vec<OutputLine>,
    pub(crate) stats: RunStats,
    /// Engine process id of the environment — the quiescence commit, acks,
    /// retransmission deadlines and kills — registered on its first
    /// decision (see [`Shared::decide_as_environment`]).
    environment: Option<ProcessId>,
    /// Handed every [`RunEvent`] (see `Simulation::set_observer`).
    pub(crate) observer: ObserverSlot,
    /// Dedicated RNG stream for fault verdicts, seeded from the plan's own
    /// seed so a given plan injects the same faults under any master seed.
    pub(crate) fault_rng: SimRng,
    /// Reliable deliveries already accepted, keyed by (sender, logical
    /// seq); duplicates are suppressed (but still acked).
    pub(crate) seen_reliable: HashSet<(ProcessId, u64)>,
    /// AIDs denied *by fault injection* (timeouts and kills) — consulted by
    /// the ghost-drop paths to attribute ghosts to faults.
    pub(crate) fault_denied: BTreeSet<AidId>,
    /// Queued `Ack`/`AckTimeout`/`Restart` events not yet fired. Unlike
    /// `Wake`/`Deliver`, these change outcomes even after every body has
    /// returned (an ack commits buffered output; a timeout rolls a
    /// finished sender back), so the scheduler must not declare quiescence
    /// while any remain.
    pub(crate) pending_system: u64,
    /// Schedule oracle intercepting the dispatch-order choice point (model
    /// checking; see [`crate::mc`]). Empty in production runs, which then
    /// pay one `Option` check per event in [`Shared::next_event`].
    pub(crate) sched_oracle: SchedOracleSlot,
    /// The optimism governor, present iff
    /// [`SimConfig::with_governor`](crate::SimConfig) was set. Ungoverned
    /// runs pay one `Option` check per guess.
    pub(crate) governor: Option<Governor>,
    /// Events [`Shared::step`] has counted, and whether a limit stopped it.
    pub(crate) events: u64,
    pub(crate) hit_limits: bool,
    /// `step` has answered [`Step::Done`].
    done: bool,
    /// What `step` panicked with, for `run`'s thread to re-raise.
    pub(crate) step_panic: Option<Box<dyn std::any::Any + Send>>,
    /// Processes neither `Finished` nor `Crashed`, and processes with
    /// `rollback_pending` set: quiescence reads these, not `procs`.
    pub(crate) unfinished: usize,
    pub(crate) rollbacks_pending: usize,
    /// The last event closed a sweep period: the next `step` sweeps first,
    /// i.e. after whatever that event resumed has parked.
    sweep_owed: bool,
}

/// Fossil-collection cadence: sweeping is transparent (it can only reclaim
/// storage, never change outputs), so any period works; 256 keeps the
/// amortized cost per event negligible.
const FOSSIL_SWEEP_PERIOD: u64 = 256;

impl Shared {
    pub(crate) fn new(config: SimConfig) -> Self {
        let net_rng = SimRng::new(config.seed).fork(u64::MAX);
        let fault_seed = config.faults.as_ref().map_or(config.seed, |p| p.seed());
        let fault_rng = SimRng::new(fault_seed).fork(0xFA17);
        let mut engine = Engine::new();
        engine.set_invariant_checking(config.check_engine_invariants);
        let governor = config.governor.clone().map(Governor::new);
        Shared {
            engine,
            procs: Vec::new(),
            queue: EventQueue::new(),
            now: VirtualTime::ZERO,
            config,
            net_rng,
            link_last: BTreeMap::new(),
            next_msg_id: 0,
            next_mail_seq: 0,
            pending_output: VecDeque::new(),
            outputs: Vec::new(),
            stats: RunStats::default(),
            environment: None,
            observer: ObserverSlot(None),
            fault_rng,
            seen_reliable: HashSet::new(),
            fault_denied: BTreeSet::new(),
            pending_system: 0,
            sched_oracle: SchedOracleSlot(None),
            governor,
            events: 0,
            hit_limits: false,
            done: false,
            step_panic: None,
            unfinished: 0,
            rollbacks_pending: 0,
            sweep_owed: false,
        }
    }

    /// Register the next process (`P0, P1, …`), awaiting its first wake.
    pub(crate) fn add_process(&mut self, name: String) -> ProcessId {
        let pid = self.engine.register_process();
        let idx = self.procs.len();
        debug_assert_eq!(pid.0 as usize, idx, "engine assigns dense pids");
        self.unfinished += 1;
        self.procs.push(ProcShared {
            pid,
            name,
            state: ProcState::Holding,
            mailbox: Mailbox::default(),
            journal: Journal::default(),
            rollback_pending: false,
            wake_epoch: 0,
            rng: SimRng::new(self.config.seed).fork(idx as u64),
            finish_time: None,
            crash: None,
            next_reliable: 0,
        });
        pid
    }

    /// The one place a process changes state.
    pub(crate) fn set_state(&mut self, idx: usize, state: ProcState) {
        let over = |s| usize::from(matches!(s, ProcState::Finished | ProcState::Crashed));
        let p = &mut self.procs[idx];
        self.unfinished = self.unfinished + over(p.state) - over(state);
        p.state = state;
    }

    /// `procs[idx]` is dead for good, and why.
    pub(crate) fn crash(&mut self, idx: usize, reason: CrashReason) {
        self.set_state(idx, ProcState::Crashed);
        self.procs[idx].crash = Some(reason);
    }

    /// The scheduler's transition function: dispatch at most one event.
    /// Limits, fault kills, the dispatch-order choice, the per-kind handlers,
    /// quiescence and the fossil cadence are all here, none in the caller.
    ///
    /// Any thread holding the turn may call this, a process thread from
    /// inside its body's `catch_unwind` included, so a panic in here (an
    /// engine invariant, a schedule oracle) must not pass for that process's
    /// crash with the run carrying on over half-applied state: it ends the
    /// run, and [`Shared::step_panic`] carries it to `run`'s caller.
    pub(crate) fn step(&mut self) -> Step {
        if self.done {
            return Step::Done;
        }
        let dispatch = AssertUnwindSafe(|| self.dispatch());
        let step = catch_unwind(dispatch).unwrap_or_else(|panic| {
            self.step_panic = Some(panic);
            Step::Done
        });
        self.done = step == Step::Done;
        step
    }

    fn dispatch(&mut self) -> Step {
        if std::mem::take(&mut self.sweep_owed) {
            self.fossil_sweep();
        }
        // A Finished process can still be rolled back (its last intervals
        // may be speculative), and acks, retransmission deadlines and
        // restarts still change outcomes after every body has returned.
        let settled = self.unfinished + self.rollbacks_pending == 0 && self.pending_system == 0;
        let Some((t, ev)) = (!settled).then(|| self.next_event()).flatten() else {
            // Optionally let the definite external observer settle the
            // surviving speculation (see the SimConfig docs); its cascades
            // may schedule new work, so keep stepping.
            if self.config.commit_at_quiescence && self.quiescence_commit() {
                return Step::Continue;
            }
            return Step::Done;
        };
        let in_time = t <= self.config.max_virtual_time;
        self.events += u64::from(in_time);
        if !in_time || self.events > self.config.max_events {
            self.hit_limits = true;
            return Step::Done;
        }
        self.now = self.now.max(t);
        self.sweep_owed =
            self.config.fossil_collection && self.events.is_multiple_of(FOSSIL_SWEEP_PERIOD);
        // Process faults fire between events: "crash at the Nth scheduler
        // step" means just before the Nth dispatch.
        let plans = self.config.faults.iter();
        let kills = plans.flat_map(|plan| plan.kills_at(self.events));
        let kills: Vec<_> = kills.map(|k| (k.node as usize, k.restart_after)).collect();
        for (victim, restart_after) in kills {
            if victim < self.procs.len() {
                self.kill_process(victim, restart_after);
            }
        }
        if !matches!(ev, EventKind::Wake { .. } | EventKind::Deliver { .. }) {
            self.pending_system = self.pending_system.saturating_sub(1);
        }
        if self.is_stale(&ev) {
            return Step::Continue;
        }
        let mut resume = None;
        match ev {
            EventKind::Wake { proc, .. } => resume = Some(proc),
            EventKind::Deliver { msg } => resume = self.handle_delivery(msg),
            EventKind::Ack { aid } => self.ack_fire(aid),
            EventKind::AckTimeout { aid } => self.timeout_fire(aid),
            EventKind::Restart { proc } => self.restart_fire(proc),
        }
        resume.map_or(Step::Continue, |proc| {
            self.set_state(proc, ProcState::Running);
            Step::Resume(proc)
        })
    }

    /// An event that does nothing when dispatched now: a wake whose epoch
    /// was superseded or whose process is dead or down, an ack or deadline
    /// for a decided assumption, a restart of a process that is not down.
    /// `step` drops these; the model checker drains them as non-choices.
    pub(crate) fn is_stale(&self, ev: &EventKind) -> bool {
        match *ev {
            EventKind::Wake { proc, epoch } => {
                let p = &self.procs[proc];
                p.wake_epoch != epoch || matches!(p.state, ProcState::Crashed | ProcState::Down)
            }
            EventKind::Deliver { .. } => false,
            EventKind::Ack { aid } | EventKind::AckTimeout { aid } => {
                self.engine.aid_state(aid).ok() != Some(AidState::Undecided)
            }
            EventKind::Restart { proc } => self.procs[proc].state != ProcState::Down,
        }
    }

    /// Start an attempt at `procs[idx]`'s body: `Some` is the journal range
    /// it replays, from the one resume point of every restart. A rollback's
    /// attempt is counted and, if restoration has a cost, first held for it:
    /// `None` says park and ask again — a deeper rollback may strike in
    /// between, and earns its own count and charge.
    pub(crate) fn begin_attempt(&mut self, idx: usize) -> Option<std::ops::Range<usize>> {
        if std::mem::take(&mut self.procs[idx].rollback_pending) {
            self.stats.replays += 1;
            self.rollbacks_pending -= 1;
            if !self.config.rollback_overhead.is_zero() {
                self.set_state(idx, ProcState::Holding);
                let at = self.now + self.config.rollback_overhead;
                self.schedule_wake(idx, at);
                return None;
            }
        }
        let journal = &self.procs[idx].journal;
        Some(journal.resume_point()..journal.len())
    }

    /// The body returned `Ok(())`, or panicked with this message. A crash
    /// is final; a finished body comes back only if a rollback revives it.
    pub(crate) fn end_attempt(&mut self, idx: usize, panic: Option<String>) {
        if let Some(message) = panic {
            return self.crash(idx, CrashReason::Panic(message));
        }
        self.set_state(idx, ProcState::Finished);
        self.procs[idx].finish_time = Some(self.now);
    }

    /// Assemble the report of a finished run; `depset_base` is the
    /// process-global DepSet counters as it began.
    pub(crate) fn report(&mut self, depset_base: (u64, u64)) -> RunReport {
        let mut outputs = std::mem::take(&mut self.outputs);
        outputs.sort_by_key(|o| (o.time, o.process));
        let mut finish_times = BTreeMap::new();
        let mut unfinished = Vec::new();
        let mut errors = BTreeMap::new();
        let mut crashes = BTreeMap::new();
        let mut stats = self.stats;
        for p in &self.procs {
            // `Shared::crash` is the only way into `Crashed`, and final.
            match (&p.crash, p.state) {
                (Some(reason), _) => {
                    errors.insert(p.pid, reason.to_string());
                    crashes.insert(p.pid, reason.clone());
                }
                (None, ProcState::Finished) => {
                    finish_times.extend(p.finish_time.map(|t| (p.pid, t)))
                }
                (None, _) => unfinished.push(p.pid),
            }
            stats.memory.live_journal_entries += p.journal.live_len() as u64;
            stats.memory.reclaimed_journal_entries += p.journal.base() as u64;
        }
        stats.engine = self.engine.stats();
        stats.memory.live_intervals = self.engine.live_interval_count() as u64;
        stats.memory.live_aids = self.engine.live_aid_count() as u64;
        stats.memory.interval_horizon = self.engine.interval_horizon();
        stats.memory.aid_horizon = self.engine.aid_horizon();
        stats.memory.reclaimed_intervals = stats.engine.fossil_intervals;
        stats.memory.reclaimed_aids = stats.engine.fossil_aids;
        stats.memory.fossil_denied = self.engine.fossil_denied_count() as u64;
        stats.memory.depset_cow_copies =
            hope_core::depset::cow_copies_total().saturating_sub(depset_base.0);
        stats.memory.depset_spills =
            hope_core::depset::spills_total().saturating_sub(depset_base.1);
        let gov_transitions = match self.governor.as_mut() {
            Some(g) => {
                stats.governor = g.stats;
                std::mem::take(&mut g.transitions)
            }
            None => Vec::new(),
        };
        RunReport {
            end_time: self.now,
            events: self.events,
            hit_limits: self.hit_limits,
            outputs,
            stats,
            finish_times,
            unfinished,
            errors,
            crashes,
            gov_transitions,
        }
    }

    /// The next event to dispatch. With no oracle installed this is exactly
    /// `queue.pop()`. With one, the oracle picks any pending event by
    /// sequence number and the event's fire time is clamped up to `now`
    /// (for deliveries the message's `delivered_at` moves with it): firing
    /// a later-deadline event early is thereby reinterpreted as the event
    /// always having been due now, i.e. an alternative latency draw, so
    /// virtual time stays monotone and every oracle schedule is an
    /// execution the production scheduler could have produced.
    pub(crate) fn next_event(&mut self) -> Option<(VirtualTime, EventKind)> {
        if self.sched_oracle.0.is_some() {
            // Take the oracle out so it can inspect `self` immutably.
            let mut orc = self.sched_oracle.0.take();
            let pick = orc.as_mut().and_then(|o| o.choose(self));
            self.sched_oracle.0 = orc;
            if let Some(seq) = pick {
                if let Some((t, mut ev)) = self.queue.remove_by_seq(seq) {
                    let t = t.max(self.now);
                    if let EventKind::Deliver { msg } = &mut ev {
                        msg.delivered_at = t;
                    }
                    return Some((t, ev));
                }
            }
        }
        self.queue.pop()
    }

    /// The one record of a live primitive of `procs[idx]`: observe,
    /// journal, apply the effects, in that order (a self-rollback truncates
    /// the entry just pushed, and answers [`Signal::Rollback`]), and hand
    /// the effect list back to the engine. Unwatched, the observer costs
    /// one `Option` check. Always inlined: out of line, a `checkpoint` paid
    /// ≈8 ns more.
    #[inline(always)]
    pub(crate) fn record<R>(&mut self, idx: usize, done: Done<R>) -> Hope<R> {
        if let Some(f) = self.observer.0.as_mut() {
            if let Some(action) = &done.action {
                let event = RunEvent::Action {
                    process: self.procs[idx].pid,
                    action,
                    effects: &done.fx,
                    reliable: done.reliable,
                };
                f(self.now, &event);
            }
        }
        self.procs[idx].journal.push(done.entry);
        let rolled = !done.fx.is_empty() && self.apply_effects(idx, &done.fx);
        self.engine.recycle(done.fx);
        if rolled {
            return Err(Signal::Rollback);
        }
        Ok(done.reply)
    }

    /// The one receive path: take delivery of the first queued message
    /// satisfying `pred` (an implicit guess of its tag), dropping for good
    /// every ghost met on the way. With nothing deliverable queued the
    /// reply is `None`, journaled as `try_recv`'s empty answer.
    pub(crate) fn take_deliverable(
        &mut self,
        idx: usize,
        pred: &dyn Fn(&Message) -> bool,
    ) -> Done<Option<Message>> {
        let pid = self.procs[idx].pid;
        while let Some(m) = self.procs[idx].mailbox.take_first(pred) {
            let (msg, from) = (m.id, m.from);
            let pos = self.procs[idx].journal.len() as u64;
            let (outcome, fx) = self
                .engine
                .implicit_guess(pid, &m.tag, Checkpoint(pos))
                .expect("receive on engine-owned ids");
            if let ReceiveOutcome::Ghost(denied) = outcome {
                self.stats.ghosts_dropped += 1;
                self.stats.faults.ghosts_from_faults +=
                    u64::from(self.fault_denied.contains(&denied));
                let action = Action::GhostDropped { msg, from, denied };
                self.emit(|| RunEvent::Action {
                    process: pid,
                    action: &action,
                    effects: &[],
                    reliable: None,
                });
                continue;
            }
            let speculative = matches!(outcome, ReceiveOutcome::Speculative(_));
            let action = Action::Recv {
                msg,
                from,
                speculative,
            };
            let reply = (*m).clone();
            return Done::acted(Entry::Recv(m), Some(reply), action, fx);
        }
        Done::quiet(Entry::Flag(false), None)
    }

    /// One `send_reliable` attempt from `procs[idx]`: dispatch the copy and
    /// arm its retransmission deadline.
    pub(crate) fn send_reliable(
        &mut self,
        idx: usize,
        to: ProcessId,
        (seq, attempt): (u64, u32),
        aid: AidId,
        payload: Value,
    ) -> Done<u64> {
        self.stats.faults.reliable_sends += u64::from(attempt == 1);
        self.stats.faults.retries += u64::from(attempt > 1);
        let msg = self.send_message_with(idx, to, |_| MsgKind::Reliable { seq, aid }, payload);
        let (timeout, cap) = (self.config.ack_timeout, self.config.ack_backoff_cap);
        let at = self.now + backoff_deadline(timeout, cap, attempt);
        self.pending_system += 1;
        self.queue.push(at, EventKind::AckTimeout { aid });
        let (entry, action) = (Entry::Send { msg_id: msg }, Action::Send { to, msg });
        Done {
            reliable: Some((seq, attempt)),
            ..Done::acted(entry, msg, action, Vec::new())
        }
    }

    /// Hand the installed observer, if any, the event `event` builds; with
    /// none installed nothing is built.
    #[inline(always)]
    pub(crate) fn emit<'a>(&mut self, event: impl FnOnce() -> RunEvent<'a>) {
        if let Some(f) = self.observer.0.as_mut() {
            f(self.now, &event());
        }
    }

    /// The quiescence commit oracle (see
    /// [`SimConfig::commit_at_quiescence`](crate::SimConfig)): the
    /// environment affirms every still-open assumption. Returns `true` if
    /// anything was decided (the caller keeps running so the cascades —
    /// finalizations, IHD denies, rollbacks — settle).
    fn quiescence_commit(&mut self) -> bool {
        let open = self.engine.open_aids();
        if open.is_empty() {
            return false;
        }
        self.emit(|| RunEvent::QuiescenceCommit { open: &open });
        let mut any = false;
        for x in open {
            // A cascade from an earlier affirm (an IHD deny) may have
            // consumed it in the meantime.
            any |= self.decide_as_environment(x, DecideKind::Affirm, |sh, effects| {
                sh.emit(|| RunEvent::QuiescenceAffirmed { aid: x, effects });
            });
        }
        any
    }

    /// Decide `aid` as the environment: the one engine process, registered
    /// on first use, that stands for everything outside the bodies — the
    /// quiescence commit, acks, retransmission deadlines and kills. It
    /// guesses nothing, so its decisions are definite and it is never a
    /// rollback victim. `noted` runs (counters, event) with the decision's
    /// effects before they are applied, and the engine gets the list back
    /// after. `false`: the AID was already consumed, and nothing happened.
    fn decide_as_environment(
        &mut self,
        aid: AidId,
        kind: DecideKind,
        noted: impl FnOnce(&mut Self, &[Effect]),
    ) -> bool {
        let env = *self
            .environment
            .get_or_insert_with(|| self.engine.register_process());
        let (action, fx) = decide(&mut self.engine, env, aid, kind)
            .unwrap_or_else(|e| unreachable!("environment {} failed: {e}", kind.name()));
        if matches!(action, Action::SkippedDecide { .. }) {
            return false;
        }
        noted(self, &fx);
        // usize::MAX can match no process index.
        let rolled = self.apply_effects(usize::MAX, &fx);
        debug_assert!(!rolled);
        self.engine.recycle(fx);
        true
    }

    /// Place `msg` into its destination mailbox (reliable messages are
    /// deduplicated and acked first); returns the destination index if it
    /// was blocked on `recv` and should be resumed.
    pub(crate) fn handle_delivery(&mut self, msg: Box<Message>) -> Option<usize> {
        let p = self.idx_of(msg.to);
        if matches!(self.procs[p].state, ProcState::Crashed | ProcState::Down) {
            if self.config.faults.is_some() {
                self.stats.faults.lost_to_down += 1;
                self.emit(|| RunEvent::LostToDown(&msg));
            }
            return None;
        }
        if let MsgKind::Reliable { seq, aid } = msg.kind {
            let fresh = self.seen_reliable.insert((msg.from, seq));
            // Ack even duplicates: the original's ack may have been lost,
            // and the retransmitting sender needs its assumption affirmed.
            self.schedule_ack(&msg, aid);
            if !fresh {
                self.stats.faults.dupes_suppressed += 1;
                self.emit(|| RunEvent::DuplicateSuppressed(&msg));
                return None;
            }
        }
        self.stats.messages_delivered += 1;
        self.emit(|| RunEvent::Delivered(&msg));
        self.procs[p].mailbox.insert(msg);
        (self.procs[p].state == ProcState::BlockedRecv).then_some(p)
    }

    /// The fault plan rules on every send and every ack; a plan-free run
    /// always delivers cleanly. The verdict draws from `fault_rng`, not
    /// `net_rng`, so injecting faults never perturbs latency sampling.
    fn link_verdict(&mut self, src: ProcessId, dst: ProcessId) -> LinkVerdict {
        match &self.config.faults {
            Some(plan) => plan.verdict(src.0, dst.0, self.now, &mut self.fault_rng),
            None => LinkVerdict::Deliver {
                extra_delay: VirtualDuration::ZERO,
                duplicate: false,
            },
        }
    }

    /// Schedule the delivery ack for a reliable message: an engine-level
    /// affirm of the sender's "delivered" assumption, travelling the
    /// reverse link (and subject to its faults — minus duplication, which
    /// is harmless for an idempotent affirm and therefore not modelled).
    fn schedule_ack(&mut self, msg: &Message, aid: AidId) {
        let (src, dst) = (msg.to, msg.from);
        let extra = match self.link_verdict(src, dst) {
            LinkVerdict::Drop => {
                self.stats.faults.ack_drops += 1;
                self.emit(|| RunEvent::AckDropped(msg));
                return;
            }
            LinkVerdict::Deliver { extra_delay, .. } => extra_delay,
        };
        let latency = self.config.topology.sample(src.0, dst.0, &mut self.net_rng);
        self.stats.faults.acks += 1;
        let at = self.now + latency + extra;
        self.pending_system += 1;
        self.queue.push(at, EventKind::Ack { aid });
    }

    /// An ack arrived for a still-open "delivered" assumption: affirm it.
    fn ack_fire(&mut self, aid: AidId) {
        self.decide_as_environment(aid, DecideKind::Affirm, |sh, effects| {
            sh.emit(|| RunEvent::Acked { aid, effects });
        });
    }

    /// A reliable send's retransmission deadline passed with the
    /// "delivered" assumption still open: deny it, rolling the sender back
    /// into its retry loop. If a speculative affirm consumed it first, its
    /// fate rides on the affirmer's own assumptions, which is strictly
    /// better informed than a timeout.
    fn timeout_fire(&mut self, aid: AidId) {
        self.decide_as_environment(aid, DecideKind::Deny, |sh, effects| {
            sh.stats.faults.timeout_denies += 1;
            sh.fault_denied.insert(aid);
            sh.emit(|| RunEvent::TimedOut { aid, effects });
        });
    }

    /// Apply a fault-plan kill: deny the victim's own still-open
    /// assumptions (its in-flight guesses die with it — dependents roll
    /// back, its unsent suffix becomes ghosts), then freeze it. With
    /// `restart_after` the process comes back [`ProcState::Down`]-time
    /// later and recovers by replaying its surviving journal prefix — the
    /// paper's recovery story executed by the semantics. Assumptions the
    /// victim merely *inherited* stay with their owners: killing a
    /// dependent must not forge a deny of someone else's guess.
    pub(crate) fn kill_process(&mut self, victim: usize, restart_after: Option<VirtualDuration>) {
        if matches!(
            self.procs[victim].state,
            ProcState::Crashed | ProcState::Down
        ) {
            return;
        }
        self.stats.faults.kills += 1;
        let pid = self.procs[victim].pid;
        self.emit(|| RunEvent::Killed {
            process: pid,
            restart_after,
        });
        let own: Vec<AidId> = self.procs[victim].journal.created_aids().collect();
        for aid in own {
            if self.engine.aid_state(aid).ok() != Some(AidState::Undecided) {
                continue;
            }
            self.decide_as_environment(aid, DecideKind::Deny, |sh, effects| {
                sh.stats.faults.crash_denies += 1;
                sh.fault_denied.insert(aid);
                sh.emit(|| RunEvent::KillDenied { aid, effects });
            });
        }
        // Freeze the victim. The epoch bump invalidates any wake the deny
        // cascade just scheduled for it; a fully-definite victim suffers
        // pure downtime (its journal doubles as a stable log).
        self.procs[victim].wake_epoch += 1;
        match restart_after {
            Some(delay) => {
                self.set_state(victim, ProcState::Down);
                let at = self.now + delay;
                self.pending_system += 1;
                self.queue.push(at, EventKind::Restart { proc: victim });
            }
            None => self.crash(victim, CrashReason::FaultKill),
        }
    }

    /// Bring a killed process back up: crash-restart recovery. If the
    /// kill's denies rolled it back, the body restarts like any rollback
    /// victim — replaying its surviving journal from the newest snapshot
    /// (free and deterministic); a fully definite victim just resumes.
    fn restart_fire(&mut self, proc: usize) {
        self.stats.faults.restarts += 1;
        let pid = self.procs[proc].pid;
        self.emit(|| RunEvent::Restarted { process: pid });
        self.set_state(proc, ProcState::Holding);
        let now = self.now;
        self.schedule_wake(proc, now);
    }

    /// One fossil-collection sweep (see
    /// [`SimConfig::fossil_collection`](crate::SimConfig)): reclaim every
    /// engine record at or below the commit horizon, truncate each
    /// restorable process's journal prefix back to its newest snapshot at
    /// or below its speculative frontier. Transparent by construction —
    /// committed outputs, rollbacks and fault statistics are bit-identical
    /// with collection on or off (the chaos and differential suites assert
    /// it) — so *when* the scheduler calls this can never change a run's
    /// outcome, only its memory footprint.
    pub(crate) fn fossil_sweep(&mut self) {
        let sweep = self.engine.collect_fossils();
        if sweep.intervals > 0 || sweep.aids > 0 {
            self.emit(|| RunEvent::FossilSweep(sweep));
        }
        for p in 0..self.procs.len() {
            let (engine, proc) = (&self.engine, &mut self.procs[p]);
            proc.journal
                .forget_decided_aids(|a| engine.aid_state(a).ok() == Some(AidState::Undecided));
            // The farthest back any rollback can rewind this process; a
            // fully definite history frees the whole journal (up to its
            // newest snapshot; a body without one keeps all of it).
            let pid = proc.pid;
            let frontier = engine.speculative_frontier(pid);
            let frontier = frontier.expect("process is registered");
            let safe = frontier.map_or(proc.journal.len(), |c| c.0 as usize);
            let n = proc.journal.reclaim_prefix(safe);
            if n > 0 {
                let t = proc.journal.base();
                self.emit(|| RunEvent::JournalReclaimed {
                    process: pid,
                    entries: n,
                    base: t,
                });
            }
        }
    }

    pub(crate) fn idx_of(&self, pid: ProcessId) -> usize {
        let idx = pid.0 as usize;
        debug_assert!(idx < self.procs.len(), "foreign pid {pid}");
        idx
    }

    /// Schedule a wake for `proc` at `at`, invalidating earlier wakes.
    pub(crate) fn schedule_wake(&mut self, proc: usize, at: VirtualTime) {
        self.procs[proc].wake_epoch += 1;
        let epoch = self.procs[proc].wake_epoch;
        self.queue.push(at, EventKind::Wake { proc, epoch });
    }

    /// Build and dispatch a message from `from_idx`; returns the message id.
    /// `kind_of` receives the freshly allocated message id so RPC requests
    /// can use it as their call id.
    pub(crate) fn send_message_with(
        &mut self,
        from_idx: usize,
        to: ProcessId,
        kind_of: impl FnOnce(u64) -> MsgKind,
        payload: Value,
    ) -> u64 {
        let from_pid = self.procs[from_idx].pid;
        let tag = self
            .engine
            .dependence_tag(from_pid)
            .expect("sender is registered");
        let id = self.next_msg_id;
        self.next_msg_id += 1;
        let kind = kind_of(id);
        self.stats.messages_sent += 1;
        let verdict = self.link_verdict(from_pid, to);
        let latency = self
            .config
            .topology
            .sample(from_pid.0, to.0, &mut self.net_rng)
            + self.config.tracking_overhead;
        let (extra_delay, duplicate) = match verdict {
            LinkVerdict::Drop => {
                self.stats.faults.drops += 1;
                self.emit(|| RunEvent::Dropped {
                    msg: id,
                    from: from_pid,
                    to,
                });
                return id; // sent, never delivered
            }
            LinkVerdict::Deliver {
                extra_delay,
                duplicate,
            } => (extra_delay, duplicate),
        };
        if !extra_delay.is_zero() {
            self.stats.faults.delay_spikes += 1;
        }
        let link = (from_pid.0, to.0);
        let t_d = self.now + latency + extra_delay;
        let last = self.link_last.entry(link).or_insert(t_d);
        *last = t_d.max(*last); // per-link FIFO: never overtake
        let t_d = *last;
        let seq = self.next_mail_seq;
        self.next_mail_seq += 1;
        let msg = Box::new(Message {
            id,
            from: from_pid,
            to,
            kind,
            payload,
            tag,
            delivered_at: t_d,
            seq,
        });
        if duplicate {
            // The injected copy travels independently (own latency draw)
            // but still respects per-link FIFO.
            self.stats.faults.dupes += 1;
            let extra_latency = self
                .config
                .topology
                .sample(from_pid.0, to.0, &mut self.net_rng)
                + self.config.tracking_overhead;
            let t_dup = (self.now + extra_latency + extra_delay).max(t_d);
            self.link_last.insert(link, t_dup);
            let dup_seq = self.next_mail_seq;
            self.next_mail_seq += 1;
            let mut dup = msg.clone();
            dup.delivered_at = t_dup;
            dup.seq = dup_seq;
            self.emit(|| RunEvent::Duplicated(&msg));
            self.queue.push(t_dup, EventKind::Deliver { msg: dup });
        }
        self.queue.push(t_d, EventKind::Deliver { msg });
        id
    }

    /// Apply engine effects produced by a primitive executed by
    /// `self_idx`. Returns `true` if `self_idx` itself was rolled back (the
    /// caller must unwind with [`Signal::Rollback`](crate::Signal)).
    pub(crate) fn apply_effects(&mut self, self_idx: usize, effects: &[Effect]) -> bool {
        let mut self_rolled_back = false;
        // Governed sites whose assumptions were denied in this batch, and
        // the journal entries the batch's rollbacks discarded: the denies
        // caused the cascade, so the damage is charged to them (the
        // governor's online correction of its damage estimate).
        let mut gov_denied: Vec<(ProcessId, u32)> = Vec::new();
        let mut gov_damage: u64 = 0;
        for e in effects {
            match e {
                Effect::Finalized { interval, process } => {
                    self.emit(|| RunEvent::Applied(e));
                    let range = self.buffered(*interval);
                    if range.is_empty() {
                        continue;
                    }
                    self.stats.outputs_released += range.len() as u64;
                    let (from, now) = (self.outputs.len(), self.now);
                    let lines = self.pending_output.drain(range);
                    self.outputs.extend(lines.map(|(_, l)| OutputLine {
                        committed_at: now,
                        ..l
                    }));
                    if let Some(f) = self.observer.0.as_mut() {
                        let (process, lines) = (*process, &self.outputs[from..]);
                        f(self.now, &RunEvent::OutputCommitted { process, lines });
                    }
                }
                Effect::RolledBack {
                    process,
                    intervals,
                    checkpoint,
                } => {
                    self.stats.rollback_events += 1;
                    let victim = self.idx_of(*process);
                    self.emit(|| RunEvent::Applied(e));
                    // Discard speculative output of the dead intervals.
                    for &a in intervals {
                        let range = self.buffered(a);
                        self.stats.outputs_discarded += range.len() as u64;
                        self.pending_output.drain(range);
                    }
                    // Truncate the journal at the failed guess; re-enqueue
                    // messages that had been delivered in the discarded
                    // suffix (ghost filtering re-examines them on the next
                    // receive).
                    let pos = checkpoint.0 as usize;
                    let suffix = self.procs[victim].journal.truncate(pos);
                    self.stats.truncated_entries += suffix.len() as u64;
                    gov_damage += suffix.len() as u64;
                    // A rolled-back waiter unwinds via rollback_pending; its
                    // conservative-wait registration must not fire a stale
                    // wake at it later (that would bump its epoch and cancel
                    // whatever wake its re-execution is actually holding for).
                    if let Some(gov) = self.governor.as_mut() {
                        gov.waiting.retain(|_, p| *p != victim);
                    }
                    for entry in suffix {
                        if let Entry::Recv(msg) = entry {
                            self.procs[victim].mailbox.insert(msg);
                        }
                    }
                    self.procs[victim].finish_time = None;
                    // The pending flag is observed (and cleared) by the
                    // victim's wrapper when the re-execution begins; for the
                    // running process itself it also guards any further Ctx
                    // calls should the body swallow the Rollback signal.
                    if !std::mem::replace(&mut self.procs[victim].rollback_pending, true) {
                        self.rollbacks_pending += 1;
                    }
                    // A down process cannot resume yet; its pending
                    // Restart event will wake it, and the pending flag
                    // makes that re-execution a recovery replay.
                    if victim == self_idx {
                        self_rolled_back = true;
                    } else if self.procs[victim].state != ProcState::Down {
                        self.schedule_wake(victim, self.now);
                    }
                }
                Effect::AidAffirmed { aid } | Effect::AidDenied { aid } => {
                    let denied = matches!(e, Effect::AidDenied { .. });
                    let now = self.now;
                    let woken = match self.governor.as_mut() {
                        Some(gov) => {
                            if let Some(key) = gov.observe_decided(*aid, denied, now) {
                                if denied {
                                    gov_denied.push(key);
                                }
                            }
                            gov.waiting.remove(aid)
                        }
                        None => None,
                    };
                    // Release a conservative waiter: its assumption is now
                    // decided, so its next guess answers definitively.
                    if let Some(p) = woken {
                        self.schedule_wake(p, now);
                    }
                }
                _ => {}
            }
        }
        if !gov_denied.is_empty() {
            let now = self.now;
            if let Some(gov) = self.governor.as_mut() {
                gov.charge_damage(&gov_denied, gov_damage, now);
            }
        }
        self_rolled_back
    }

    /// Where `interval`'s lines are in `pending_output`. Lines finalize
    /// oldest first and the newest interval writes them, so the ends of
    /// the queue are looked at before it is searched.
    fn buffered(&self, interval: IntervalId) -> std::ops::Range<usize> {
        let queue = &self.pending_output;
        let (Some(&(first, _)), Some(&(last, _))) = (queue.front(), queue.back()) else {
            return 0..0;
        };
        let len = queue.len();
        if interval < first {
            return 0..0;
        }
        if interval > last {
            return len..len;
        }
        let start = if interval == first {
            0
        } else {
            queue.partition_point(|&(a, _)| a < interval)
        };
        let end = if interval == last {
            len
        } else {
            queue.partition_point(|&(a, _)| a <= interval)
        };
        start..end
    }

    /// Buffer or emit one output line from `idx` (output commit).
    pub(crate) fn output(&mut self, idx: usize, line: String) {
        let pid = self.procs[idx].pid;
        let out = OutputLine {
            time: self.now,
            committed_at: self.now, // re-stamped at release if buffered
            process: pid,
            line,
        };
        match self
            .engine
            .current_interval(pid)
            .expect("process is registered")
        {
            Some(interval) => {
                let at = self.buffered(interval).end;
                self.pending_output.insert(at, (interval, out));
            }
            None => {
                self.stats.outputs_released += 1;
                self.outputs.push(out);
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::Step::{Continue, Done, Resume};
    use super::*;
    use hope_core::Checkpoint;
    use hope_sim::{FaultPlan, VirtualDuration};

    const T0: VirtualTime = VirtualTime::ZERO;

    fn shared_with(n: usize, config: SimConfig) -> Shared {
        let mut s = Shared::new(config);
        for i in 0..n {
            s.add_process(format!("p{i}"));
        }
        s
    }

    fn shared_with_procs(n: usize) -> Shared {
        shared_with(n, SimConfig::default())
    }

    fn plain_msg(id: u64, to: ProcessId) -> Box<Message> {
        Box::new(Message {
            id,
            from: ProcessId(0),
            to,
            kind: MsgKind::Plain,
            payload: Value::Unit,
            tag: hope_core::Tag::new(),
            delivered_at: VirtualTime::from_nanos(5),
            seq: id,
        })
    }

    /// Queue `ev` at time zero as the scheduler's producers would.
    fn enqueue(s: &mut Shared, ev: EventKind) {
        if !matches!(ev, EventKind::Wake { .. } | EventKind::Deliver { .. }) {
            s.pending_system += 1;
        }
        s.queue.push(T0, ev);
    }

    /// One `step`, after which both quiescence counters must equal what a
    /// scan of `procs` finds.
    fn step(s: &mut Shared) -> Step {
        let step = s.step();
        let over = |p: &&ProcShared| matches!(p.state, ProcState::Finished | ProcState::Crashed);
        let unfinished = s.procs.len() - s.procs.iter().filter(over).count();
        let pending = s.procs.iter().filter(|p| p.rollback_pending).count();
        assert_eq!((s.unfinished, s.rollbacks_pending), (unfinished, pending));
        step
    }

    /// What a stale event must leave alone.
    fn visible_state(s: &Shared) -> String {
        let procs: Vec<_> = s.procs.iter().map(|p| (&p.mailbox, p.state)).collect();
        format!("{:?} {procs:?}", s.engine)
    }

    #[test]
    fn send_message_applies_latency_and_fifo() {
        let mut s = shared_with_procs(2);
        let a = s.send_message_with(0, ProcessId(1), |_| MsgKind::Plain, Value::Int(1));
        let b = s.send_message_with(0, ProcessId(1), |_| MsgKind::Plain, Value::Int(2));
        assert_ne!(a, b);
        assert_eq!(s.stats.messages_sent, 2);
        let (t1, e1) = s.queue.pop().unwrap();
        let (t2, _e2) = s.queue.pop().unwrap();
        assert_eq!(t1, VirtualTime::ZERO + VirtualDuration::from_micros(100));
        assert!(t2 >= t1, "per-link FIFO");
        match e1 {
            EventKind::Deliver { msg } => assert_eq!(msg.payload, Value::Int(1)),
            _ => panic!("expected delivery"),
        }
    }

    #[test]
    fn schedule_wake_bumps_epoch() {
        let mut s = shared_with_procs(1);
        s.schedule_wake(0, VirtualTime::ZERO);
        s.schedule_wake(0, VirtualTime::ZERO);
        assert_eq!(s.procs[0].wake_epoch, 2);
        assert_eq!(s.queue.len(), 2);
    }

    #[test]
    fn buffered_finds_the_range_the_two_searches_find() {
        // Queues of 0–12 lines over intervals 3–8, some holding none; every
        // interval from 1 to 10 asked for, the queue's ends included.
        let mut rng = hope_sim::SimRng::new(0xB0FF_E4ED);
        let mut s = shared_with_procs(1);
        for case in 0..300 {
            let mut ids: Vec<u64> = (0..rng.index(13))
                .map(|_| 3 + rng.index(6) as u64)
                .collect();
            ids.sort_unstable();
            s.pending_output = ids
                .iter()
                .map(|&a| {
                    let line = OutputLine {
                        time: T0,
                        committed_at: T0,
                        process: ProcessId(0),
                        line: String::new(),
                    };
                    (IntervalId::from_index(a), line)
                })
                .collect();
            for a in (1..=10).map(IntervalId::from_index) {
                let q = &s.pending_output;
                let want = q.partition_point(|&(b, _)| b < a)..q.partition_point(|&(b, _)| b <= a);
                assert_eq!(s.buffered(a), want, "case {case}: {a} in {ids:?}");
            }
        }
    }

    #[test]
    fn output_is_immediate_when_definite() {
        let mut s = shared_with_procs(1);
        s.output(0, "hello".into());
        assert_eq!(s.outputs.len(), 1);
        assert_eq!(s.stats.outputs_released, 1);
        assert!(s.pending_output.is_empty());
    }

    #[test]
    fn output_is_buffered_when_speculative_then_released_on_affirm() {
        let mut s = shared_with_procs(2);
        let pid0 = s.procs[0].pid;
        let x = s.engine.aid_init(pid0);
        s.engine.guess(pid0, &[x], Checkpoint(0)).unwrap();
        s.output(0, "spec".into());
        assert!(s.outputs.is_empty());
        assert_eq!(s.pending_output.len(), 1);
        let pid1 = s.procs[1].pid;
        let fx = s.engine.affirm(pid1, x).unwrap();
        let rolled = s.apply_effects(1, &fx);
        assert!(!rolled);
        assert_eq!(s.outputs.len(), 1);
        assert_eq!(s.stats.outputs_released, 1);
    }

    #[test]
    fn rollback_discards_output_truncates_journal_and_requeues_recvs() {
        let mut s = shared_with_procs(2);
        let pid0 = s.procs[0].pid;
        let x = s.engine.aid_init(pid0);
        // Journal: [Rand] then guess checkpoint at pos 1, then a Recv.
        s.procs[0].journal.push(Entry::Rand(7));
        s.engine.guess(pid0, &[x], Checkpoint(1)).unwrap();
        s.procs[0].journal.push(Entry::Guess {
            aid: x,
            value: true,
        });
        let msg = plain_msg(9, pid0);
        s.procs[0].journal.push(Entry::Recv(msg));
        s.output(0, "spec".into());
        let pid1 = s.procs[1].pid;
        let fx = s.engine.deny(pid1, x).unwrap();
        let rolled = s.apply_effects(1, &fx);
        assert!(!rolled);
        assert_eq!(s.procs[0].journal.len(), 1, "truncated to checkpoint");
        assert_eq!(s.procs[0].mailbox.len(), 1, "recv re-enqueued");
        assert!(s.procs[0].rollback_pending);
        assert_eq!(s.stats.outputs_discarded, 1);
        assert_eq!(s.stats.rollback_events, 1);
        assert!(!s.queue.is_empty(), "victim wake scheduled");
    }

    /// A message keeps the box it was sent in: the box a delivery places
    /// is the one the receive journals, and a rollback re-enqueues it.
    #[test]
    fn the_journal_keeps_the_delivered_box() {
        let mut s = shared_with_procs(2);
        let pid0 = s.procs[0].pid;
        let x = s.engine.aid_init(pid0);
        s.engine.guess(pid0, &[x], Checkpoint(0)).unwrap();
        s.procs[0].journal.push(Entry::Guess {
            aid: x,
            value: true,
        });
        let msg = plain_msg(9, pid0);
        let placed: *const Message = &*msg;
        assert_eq!(s.handle_delivery(msg), None);
        let done = s.take_deliverable(0, &|_| true);
        let received = s.record(0, done).unwrap().expect("a message was queued");
        assert_eq!(received.id, 9);
        assert!(!std::ptr::eq(&received, placed), "the body gets a copy");
        match s.procs[0].journal.get(1) {
            Some(Entry::Recv(m)) => assert!(std::ptr::eq(&**m, placed)),
            other => panic!("expected the receive at position 1, found {other:?}"),
        }
        let fx = s.engine.deny(s.procs[1].pid, x).unwrap();
        assert!(!s.apply_effects(1, &fx));
        assert_eq!(s.procs[0].journal.len(), 0, "truncated to the guess");
        let requeued = s.procs[0].mailbox.first().expect("recv re-enqueued");
        assert!(std::ptr::eq(requeued, placed));
    }

    #[test]
    fn faulty_send_can_drop_and_duplicate() {
        let plan = FaultPlan::new(12).drop_rate(0.5).dupe_rate(0.5);
        let mut s = shared_with(2, SimConfig::default().with_faults(plan));
        for i in 0..64 {
            s.send_message_with(0, ProcessId(1), |_| MsgKind::Plain, Value::Int(i));
        }
        assert_eq!(s.stats.messages_sent, 64);
        assert!(s.stats.faults.drops > 0, "{:?}", s.stats.faults);
        assert!(s.stats.faults.dupes > 0, "{:?}", s.stats.faults);
        // Every surviving message queued exactly once, plus one extra
        // Deliver per duplicate.
        let expected = 64 - s.stats.faults.drops + s.stats.faults.dupes;
        assert_eq!(s.queue.len() as u64, expected);
    }

    #[test]
    fn down_destination_loses_deliveries() {
        let mut s = shared_with(2, SimConfig::default().with_faults(FaultPlan::new(0)));
        s.set_state(1, ProcState::Down);
        let msg = plain_msg(1, ProcessId(1));
        assert_eq!(s.handle_delivery(msg), None);
        assert_eq!(s.stats.faults.lost_to_down, 1);
        assert!(s.procs[1].mailbox.is_empty());
        assert_eq!(s.stats.messages_delivered, 0);
    }

    #[test]
    fn reliable_duplicates_are_suppressed_but_acked() {
        let mut s = shared_with_procs(2);
        let aid = s.engine.aid_init(s.procs[0].pid);
        let mk = |seq: u64, id: u64| {
            Box::new(Message {
                kind: MsgKind::Reliable { seq, aid },
                ..*plain_msg(id, ProcessId(1))
            })
        };
        assert_eq!(s.handle_delivery(mk(7, 1)), None); // Holding, not BlockedRecv
        assert_eq!(s.procs[1].mailbox.len(), 1);
        assert_eq!(s.handle_delivery(mk(7, 2)), None);
        assert_eq!(s.procs[1].mailbox.len(), 1, "duplicate suppressed");
        assert_eq!(s.stats.faults.dupes_suppressed, 1);
        assert_eq!(s.stats.faults.acks, 2, "both copies acked");
        assert_eq!(s.stats.messages_delivered, 1);
    }

    #[test]
    fn kill_denies_own_open_aids_and_restart_revives() {
        let mut s = shared_with_procs(2);
        let pid0 = s.procs[0].pid;
        let own = s.engine.aid_init(pid0);
        s.procs[0].journal.push(Entry::AidInit(own));
        s.engine.guess(pid0, &[own], Checkpoint(1)).unwrap();
        s.procs[0].journal.push(Entry::Guess {
            aid: own,
            value: true,
        });
        s.kill_process(0, Some(VirtualDuration::from_millis(3)));
        assert_eq!(s.procs[0].state, ProcState::Down);
        assert_eq!(s.stats.faults.kills, 1);
        assert_eq!(s.stats.faults.crash_denies, 1);
        assert!(s.fault_denied.contains(&own));
        assert!(s.procs[0].rollback_pending, "own guess denied => rollback");
        assert_eq!(s.engine.aid_state(own).unwrap(), AidState::Denied);
        // The queue holds the Restart event (any wakes are stale-epoch).
        let restart = std::iter::from_fn(|| s.queue.pop())
            .find(|(_, e)| matches!(e, EventKind::Restart { .. }))
            .expect("restart scheduled");
        assert_eq!(restart.0, T0 + VirtualDuration::from_millis(3));
        s.restart_fire(0);
        assert_eq!(s.procs[0].state, ProcState::Holding);
        assert_eq!(s.stats.faults.restarts, 1);
    }

    #[test]
    fn kill_without_restart_is_a_fault_crash() {
        let mut s = shared_with_procs(1);
        s.kill_process(0, None);
        assert_eq!(s.procs[0].state, ProcState::Crashed);
        assert_eq!(s.procs[0].crash, Some(CrashReason::FaultKill));
        assert_eq!(s.stats.faults.crash_denies, 0, "no open aids to deny");
        // A second kill of a dead process is a no-op.
        s.kill_process(0, None);
        assert_eq!(s.stats.faults.kills, 1);
    }

    #[test]
    fn timeout_denies_open_aid_and_ack_affirms() {
        let mut s = shared_with_procs(2);
        let pid0 = s.procs[0].pid;
        let a = s.engine.aid_init(pid0);
        let b = s.engine.aid_init(pid0);
        for ev in [
            EventKind::Ack { aid: a },
            // A later timeout (or second ack) for the same aid is stale.
            EventKind::AckTimeout { aid: a },
            EventKind::Ack { aid: a },
            EventKind::AckTimeout { aid: b },
        ] {
            enqueue(&mut s, ev);
        }
        assert_eq!(step(&mut s), Continue);
        assert_eq!(s.engine.aid_state(a).unwrap(), AidState::Affirmed);
        assert_eq!([step(&mut s), step(&mut s)], [Continue; 2]);
        assert_eq!((s.stats.faults.timeout_denies, s.pending_system), (0, 1));
        assert_eq!(step(&mut s), Continue);
        assert_eq!(s.engine.aid_state(b).unwrap(), AidState::Denied);
        assert_eq!((s.stats.faults.timeout_denies, s.pending_system), (1, 0));
        assert!(s.fault_denied.contains(&b));
        assert_eq!(s.events, 4);
    }

    #[test]
    fn self_rollback_is_reported_to_caller() {
        let mut s = shared_with_procs(1);
        let pid0 = s.procs[0].pid;
        let x = s.engine.aid_init(pid0);
        s.engine.guess(pid0, &[x], Checkpoint(0)).unwrap();
        let fx = s.engine.deny(pid0, x).unwrap(); // self-deny, definite
        let rolled = s.apply_effects(0, &fx);
        assert!(rolled);
        assert!(
            s.procs[0].rollback_pending,
            "flag set so the wrapper counts the re-execution"
        );
    }

    #[test]
    fn step_resumes_live_wakes_and_drops_stale_ones() {
        let mut s = shared_with_procs(2);
        s.schedule_wake(0, VirtualTime::from_nanos(3)); // superseded by ...
        s.schedule_wake(0, VirtualTime::from_nanos(7));
        assert_eq!(step(&mut s), Continue);
        assert_eq!((s.events, s.procs[0].state), (1, ProcState::Holding));
        assert_eq!(step(&mut s), Resume(0));
        assert_eq!((s.events, s.procs[0].state), (2, ProcState::Running));
        assert_eq!(s.now, VirtualTime::from_nanos(7));
        // Nothing queued, P1 still unfinished: the run is over, not limited.
        assert_eq!((step(&mut s), s.hit_limits, s.events), (Done, false, 2));
    }

    #[test]
    fn step_delivers_and_resumes_only_a_blocked_receiver() {
        let mut s = shared_with(3, SimConfig::default().with_faults(FaultPlan::new(0)));
        s.set_state(1, ProcState::BlockedRecv);
        s.set_state(2, ProcState::Down);
        for to in 0..3 {
            let msg = plain_msg(to, ProcessId(to as u32));
            enqueue(&mut s, EventKind::Deliver { msg });
        }
        // Holding: queued for later. Blocked: resumed. Down: lost.
        assert_eq!(
            [(); 3].map(|()| step(&mut s)),
            [Continue, Resume(1), Continue]
        );
        let held: Vec<usize> = s.procs.iter().map(|p| p.mailbox.len()).collect();
        assert_eq!(held, [1, 1, 0]);
        let stats = &s.stats;
        assert_eq!(
            (stats.messages_delivered, stats.faults.lost_to_down),
            (2, 1)
        );
    }

    #[test]
    fn step_kills_before_dispatch_and_restart_brings_the_victim_back() {
        let down = VirtualDuration::from_millis(3);
        let plan = FaultPlan::new(0).kill(0, 2, Some(down));
        let mut s = shared_with(2, SimConfig::default().with_faults(plan));
        s.schedule_wake(1, T0);
        s.schedule_wake(0, T0);
        assert_eq!(step(&mut s), Resume(1));
        // The kill at event 2 lands before dispatch 2: P0's wake, current
        // when it was popped, finds it down.
        assert_eq!(step(&mut s), Continue);
        assert_eq!((s.procs[0].state, s.pending_system), (ProcState::Down, 1));
        // A restart of a process that is up is stale; P0's is not.
        enqueue(&mut s, EventKind::Restart { proc: 1 });
        assert_eq!(step(&mut s), Continue);
        assert_eq!((s.stats.faults.restarts, s.pending_system), (0, 1));
        assert_eq!(step(&mut s), Continue);
        assert_eq!((s.stats.faults.restarts, s.pending_system), (1, 0));
        assert_eq!((s.procs[0].state, s.now), (ProcState::Holding, T0 + down));
        assert_eq!(step(&mut s), Resume(0));
    }

    #[test]
    fn step_stops_at_either_limit() {
        let mut s = shared_with(1, SimConfig::default().with_max_events(2));
        for _ in 0..3 {
            s.schedule_wake(0, T0);
        }
        assert_eq!([step(&mut s), step(&mut s)], [Continue; 2]);
        // The event that trips `max_events` is counted, not dispatched.
        assert_eq!((step(&mut s), s.hit_limits, s.events), (Done, true, 3));
        assert_eq!(s.procs[0].state, ProcState::Holding);

        let horizon = VirtualTime::from_nanos(10);
        let mut s = shared_with(1, SimConfig::default().with_max_virtual_time(horizon));
        s.schedule_wake(0, VirtualTime::from_nanos(11));
        // One past `max_virtual_time` is neither counted nor dispatched.
        assert_eq!((step(&mut s), s.hit_limits, s.events), (Done, true, 0));
        assert_eq!(s.now, T0);
    }

    #[test]
    fn step_after_done_is_inert() {
        // Quiescent with a stale wake still queued; one event past
        // `max_events`; one event past `max_virtual_time`.
        let (mut quiescent, _) = finished_speculating(SimConfig::default());
        quiescent.schedule_wake(0, T0);
        let mut counted_out = shared_with(1, SimConfig::default().with_max_events(0));
        let horizon = VirtualTime::from_nanos(10);
        let mut timed_out = shared_with(1, SimConfig::default().with_max_virtual_time(horizon));
        for i in 0..3 {
            counted_out.schedule_wake(0, T0);
            timed_out.schedule_wake(0, VirtualTime::from_nanos(11 + i));
        }
        for (mut s, limited) in [(quiescent, false), (counted_out, true), (timed_out, true)] {
            assert_eq!((step(&mut s), s.hit_limits), (Done, limited));
            let before = (s.events, s.hit_limits, s.queue.len(), visible_state(&s));
            assert_eq!([step(&mut s), step(&mut s)], [Done; 2]);
            let after = (s.events, s.hit_limits, s.queue.len(), visible_state(&s));
            assert_eq!(after, before);
        }
    }

    /// One process, finished while still speculating on its own `x`.
    fn finished_speculating(config: SimConfig) -> (Shared, AidId) {
        let mut s = shared_with(1, config);
        let pid0 = s.procs[0].pid;
        let x = s.engine.aid_init(pid0);
        s.engine.guess(pid0, &[x], Checkpoint(0)).unwrap();
        s.output(0, "spec".into());
        s.end_attempt(0, None);
        (s, x)
    }

    #[test]
    fn step_quiesces_when_all_is_settled_and_commits_if_asked() {
        let plain = SimConfig::default();
        for cfg in [plain.clone(), plain.commit_at_quiescence()] {
            let commit = cfg.commit_at_quiescence;
            let (mut s, x) = finished_speculating(cfg);
            // A stale wake is still queued; a settled run does not pop it.
            s.schedule_wake(0, T0);
            s.schedule_wake(0, T0);
            if commit {
                assert_eq!(step(&mut s), Continue);
                assert_eq!(s.engine.aid_state(x).unwrap(), AidState::Affirmed);
            }
            assert_eq!((step(&mut s), s.events), (Done, 0));
            assert_eq!(s.outputs.len(), usize::from(commit));
        }
        // A rollback pending on a finished process is not quiescence.
        let (mut s, x) = finished_speculating(SimConfig::default());
        let fx = s.engine.deny(s.procs[0].pid, x).unwrap();
        s.apply_effects(usize::MAX, &fx);
        assert_eq!((s.unfinished, s.rollbacks_pending), (0, 1));
        assert_eq!(step(&mut s), Resume(0));
        assert_eq!(s.begin_attempt(0), Some(0..0));
        let counts = (s.unfinished, s.rollbacks_pending, s.stats.replays);
        assert_eq!(counts, (1, 0, 1));
    }

    #[test]
    fn step_sweeps_at_the_top_of_the_step_after_a_period() {
        let mut s = shared_with(1, SimConfig::default().with_fossil_collection(true));
        let pid0 = s.procs[0].pid;
        let x = s.engine.aid_init(pid0);
        s.engine.affirm(pid0, x).unwrap();
        for _ in 0..=FOSSIL_SWEEP_PERIOD {
            s.schedule_wake(0, T0); // all but the last are stale
        }
        for _ in 0..FOSSIL_SWEEP_PERIOD {
            assert_eq!(step(&mut s), Continue);
        }
        // Event 256 is dispatched; its sweep waits for whatever it resumed.
        assert_eq!((s.events, s.engine.aid_horizon()), (FOSSIL_SWEEP_PERIOD, 0));
        assert_eq!(step(&mut s), Resume(0));
        let after = (s.events, s.engine.aid_horizon());
        assert_eq!(after, (FOSSIL_SWEEP_PERIOD + 1, 1));
    }

    #[test]
    fn step_on_a_stale_event_changes_nothing_visible() {
        let mut s = shared_with_procs(4);
        let pid0 = s.procs[0].pid;
        let (decided, open) = (s.engine.aid_init(pid0), s.engine.aid_init(pid0));
        s.engine.affirm(pid0, decided).unwrap();
        s.schedule_wake(0, VirtualTime::from_nanos(1 << 40));
        s.crash(1, CrashReason::FaultKill);
        s.set_state(2, ProcState::Down);
        let msg = plain_msg(1, ProcessId(2));
        let table = [
            (EventKind::Wake { proc: 0, epoch: 0 }, true),
            (EventKind::Wake { proc: 0, epoch: 1 }, false),
            (EventKind::Wake { proc: 1, epoch: 0 }, true),
            (EventKind::Wake { proc: 2, epoch: 0 }, true),
            (EventKind::Wake { proc: 3, epoch: 0 }, false),
            (EventKind::Deliver { msg }, false),
            (EventKind::Ack { aid: decided }, true),
            (EventKind::AckTimeout { aid: decided }, true),
            (EventKind::Ack { aid: open }, false),
            (EventKind::AckTimeout { aid: open }, false),
            (EventKind::Restart { proc: 0 }, true),
            (EventKind::Restart { proc: 1 }, true),
            (EventKind::Restart { proc: 2 }, false),
        ];
        for (ev, stale) in table {
            assert_eq!(s.is_stale(&ev), stale, "{ev:?}");
            if stale {
                let before = visible_state(&s);
                enqueue(&mut s, ev.clone());
                assert_eq!(step(&mut s), Continue, "{ev:?}");
                assert_eq!(visible_state(&s), before, "{ev:?}");
                assert_eq!(s.pending_system, 0, "{ev:?}");
            }
        }
    }
}
