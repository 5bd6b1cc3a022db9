//! The paper's abstract machine, literally (§4).
//!
//! "The approach taken here is that a distributed program, Prog, consisting
//! of a collection of communicating sequential processes P, Q, …, is a
//! generator of execution sequences or histories. Each process P generates
//! an execution sequence of process states" — Definition 4.1:
//! `H_P : S0 E0 S1 E1 S2 E2 …`.
//!
//! The [`Machine`] interprets a [`Program`] over an
//! [`Engine`], maintaining one explicit [`History`] per process: a sequence
//! of [`StateRecord`]s carrying the paper's per-state control variables
//! (`G`, the last guess value; `I`, the current interval; and the event that
//! produced the state). Rollback performs the paper's `Del(H_P, A)` —
//! truncating the history suffix from interval `A` — and appends the
//! resumed state with `G = False` (Equation 24). Where that suffix starts
//! is read off the history itself ([`Machine::resume_mark`]): nothing per
//! interval is stored beside it.
//!
//! The machine exists for *verification*: the theorem test-suite executes
//! thousands of random programs under random schedules and checks Lemma 5.1,
//! Theorems 5.1/5.2/6.1/6.2/6.3 and Corollary 6.1 against the resulting
//! histories. Applications should use `hope-runtime` instead, which adds
//! real payloads, virtual time and deterministic replay.

use std::collections::VecDeque;
use std::sync::Arc;

use crate::engine::Engine;
use crate::error::Result;
use crate::ids::{AidId, IntervalId, ProcessId};
use crate::interval::Checkpoint;
use crate::observer::{decide, Action, DecideKind, NullObserver, RuntimeObserver};
use crate::program::{Program, SplitMix64, Stmt};
use crate::tag::{ReceiveOutcome, Tag};
use crate::Effect;

/// A message in flight between machine processes: an id, the sender, and
/// the dependence tag recorded at send time (§3).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Msg {
    /// Unique message id (per machine).
    pub id: u64,
    /// Sending process.
    pub from: ProcessId,
    /// The sender's dependence set at send time.
    pub tag: Tag,
}

/// One `S_i` of a history, paired with the event `E_{i-1}` that produced it.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct StateRecord {
    /// The action that led into this state.
    pub event: Action,
    /// The paper's `I`: the current (speculative) interval, `∅` as `None`.
    pub interval: Option<IntervalId>,
    /// The paper's `G`: the value returned by the most recent guess.
    pub g: Option<bool>,
    /// The statement's program counter: the pc of the statement whose
    /// event this is (a record is taken before the pc advances), or for
    /// [`Action::Resumed`] the pc it resumed at.
    pub pc: usize,
}

/// The execution history `H_P` of one process (Definition 4.1).
#[derive(Debug, Default)]
pub struct History {
    states: Vec<StateRecord>,
    /// Count of `Del` truncations applied (rollbacks observed).
    truncations: u64,
}

impl Clone for History {
    fn clone(&self) -> Self {
        let mut history = History::default();
        history.clone_from(self);
        history
    }

    fn clone_from(&mut self, source: &Self) {
        let History {
            states,
            truncations,
        } = self;
        states.clone_from(&source.states);
        *truncations = source.truncations;
    }
}

impl History {
    /// The states recorded so far, oldest first.
    pub fn states(&self) -> &[StateRecord] {
        &self.states
    }

    /// The current state — the paper's `last(H_P)`.
    pub fn last(&self) -> Option<&StateRecord> {
        self.states.last()
    }

    /// Number of `Del(H_P, A)` truncations this history has suffered.
    pub fn truncations(&self) -> u64 {
        self.truncations
    }
}

/// Why [`Machine::step`] made no progress.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum StepOutcome {
    /// A statement executed (or was recorded as skipped).
    Executed,
    /// The process is at a `recv` with no deliverable message.
    Blocked,
    /// The process has executed its whole statement list.
    Done,
}

/// Summary of a [`Machine::run`] call.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct RunReport {
    /// Statements executed.
    pub steps: u64,
    /// `true` if every process ran to completion.
    pub completed: bool,
    /// `true` if the run stopped because every unfinished process was
    /// blocked on `recv` (message deadlock; possible in random programs).
    pub deadlocked: bool,
}

#[derive(Debug)]
struct MProc {
    pid: ProcessId,
    pc: usize,
    mailbox: VecDeque<Msg>,
    /// Messages delivered so far, in delivery order (for re-enqueueing on
    /// rollback).
    delivered: Vec<Msg>,
    history: History,
}

impl Clone for MProc {
    fn clone(&self) -> Self {
        let mut proc = MProc {
            pid: self.pid,
            pc: 0,
            mailbox: VecDeque::new(),
            delivered: Vec::new(),
            history: History::default(),
        };
        proc.clone_from(self);
        proc
    }

    fn clone_from(&mut self, source: &Self) {
        let MProc {
            pid,
            pc,
            mailbox,
            delivered,
            history,
        } = self;
        *pid = source.pid;
        *pc = source.pc;
        mailbox.clone_from(&source.mailbox);
        delivered.clone_from(&source.delivered);
        history.clone_from(&source.history);
    }
}

/// Interpreter for straight-line HOPE programs over an [`Engine`].
///
/// # Examples
///
/// Figure 2's control skeleton as a two-process program:
///
/// ```
/// use hope_core::machine::Machine;
/// use hope_core::program::{Program, Stmt};
///
/// // P0 (Worker): guess(x0); compute; compute.
/// // P1 (WorryWart): compute (the real RPC); affirm(x0).
/// let program = Program::new(vec![
///     vec![Stmt::Guess(0), Stmt::Compute, Stmt::Compute],
///     vec![Stmt::Compute, Stmt::Affirm(0)],
/// ]);
/// let mut m = Machine::new(program);
/// let report = m.run(100);
/// assert!(report.completed);
/// assert_eq!(m.engine().stats().finalized, 1);
/// ```
#[derive(Debug)]
pub struct Machine {
    engine: Engine,
    /// Shared, not copied, by [`Clone`]: a model checker clones a machine
    /// at every branch point, and the program never changes.
    program: Arc<Program>,
    aids: Vec<AidId>,
    procs: Vec<MProc>,
    next_msg: u64,
}

/// A clone is the same state as its original. [`Clone::clone_from`]
/// copies each field into the buffers the destination already holds (its
/// engine's stores, and per process its mailbox, delivered list and
/// history), so a model checker that starts a branch in the machine of a
/// finished one allocates only where the new state outgrows it.
impl Clone for Machine {
    fn clone(&self) -> Self {
        Machine {
            engine: self.engine.clone(),
            program: Arc::clone(&self.program),
            aids: self.aids.clone(),
            procs: self.procs.clone(),
            next_msg: self.next_msg,
        }
    }

    fn clone_from(&mut self, source: &Self) {
        let Machine {
            engine,
            program,
            aids,
            procs,
            next_msg,
        } = self;
        engine.clone_from(&source.engine);
        if !Arc::ptr_eq(program, &source.program) {
            *program = Arc::clone(&source.program);
        }
        aids.clone_from(&source.aids);
        procs.clone_from(&source.procs);
        *next_msg = source.next_msg;
    }
}

impl Machine {
    /// Build a machine for `program`, registering its processes and
    /// pre-declaring its AIDs (all created by process 0, matching the
    /// paper's convention that `aid_init` only names an assumption).
    pub fn new(program: Program) -> Self {
        let mut engine = Engine::new();
        engine.set_invariant_checking(true);
        let procs: Vec<MProc> = (0..program.process_count())
            .map(|_| MProc {
                pid: engine.register_process(),
                pc: 0,
                mailbox: VecDeque::new(),
                delivered: Vec::new(),
                history: History::default(),
            })
            .collect();
        let creator = procs.first().map(|p| p.pid).unwrap_or(ProcessId(0));
        let aids = if program.process_count() == 0 {
            Vec::new()
        } else {
            (0..program.aid_count)
                .map(|_| engine.aid_init(creator))
                .collect()
        };
        Machine {
            engine,
            program: Arc::new(program),
            aids,
            procs,
            next_msg: 0,
        }
    }

    /// The underlying semantics engine (read-only).
    pub fn engine(&self) -> &Engine {
        &self.engine
    }

    /// The pre-declared AIDs, indexed by the program's `AidVar`s.
    pub fn aids(&self) -> &[AidId] {
        &self.aids
    }

    /// The execution history `H_P` of process `p`.
    ///
    /// # Panics
    ///
    /// Panics if `p` is out of range.
    pub fn history(&self, p: usize) -> &History {
        &self.procs[p].history
    }

    /// The engine-level process id of machine process `p`, which is always
    /// `ProcessId(p)`: [`Machine::new`] registers the program's processes
    /// in order with a fresh engine, and a machine registers nothing else.
    /// Canonical naming relies on it (`hope-mc`'s state keys name a process
    /// and an interval's owner by the engine pid).
    ///
    /// # Panics
    ///
    /// Panics if `p` is out of range.
    pub fn pid(&self, p: usize) -> ProcessId {
        self.procs[p].pid
    }

    /// The program being interpreted.
    pub fn program(&self) -> &Program {
        &self.program
    }

    /// Number of machine processes.
    pub fn process_count(&self) -> usize {
        self.procs.len()
    }

    /// Program counter of process `p`.
    ///
    /// # Panics
    ///
    /// Panics if `p` is out of range.
    pub fn pc(&self, p: usize) -> usize {
        self.procs[p].pc
    }

    /// The next statement process `p` would execute, or `None` when done.
    ///
    /// # Panics
    ///
    /// Panics if `p` is out of range.
    pub fn next_stmt(&self, p: usize) -> Option<Stmt> {
        self.program.code[p].get(self.procs[p].pc).copied()
    }

    /// What [`Machine::step`] *would* do for process `p`, without mutating
    /// anything.
    ///
    /// Unlike stepping a blocked process (which pops and records ghost
    /// messages before reporting [`StepOutcome::Blocked`]), this probe
    /// leaves ghosts queued: a `recv` counts as enabled iff the mailbox
    /// holds at least one message none of whose tag AIDs is definitively
    /// denied. Model checkers use this to enumerate enabled transitions
    /// from a state they intend to snapshot.
    ///
    /// # Panics
    ///
    /// Panics if `p` is out of range.
    pub fn poll(&self, p: usize) -> StepOutcome {
        match self.next_stmt(p) {
            None => StepOutcome::Done,
            Some(Stmt::Recv) => {
                let deliverable = self.procs[p].mailbox.iter().any(|m| {
                    !m.tag
                        .iter()
                        .any(|x| matches!(self.engine.aid_state(x), Ok(crate::AidState::Denied)))
                });
                if deliverable {
                    StepOutcome::Executed
                } else {
                    StepOutcome::Blocked
                }
            }
            Some(_) => StepOutcome::Executed,
        }
    }

    /// Pending (undelivered) messages of process `p`, front of queue first.
    ///
    /// # Panics
    ///
    /// Panics if `p` is out of range.
    pub fn mailbox(&self, p: usize) -> impl Iterator<Item = &Msg> {
        self.procs[p].mailbox.iter()
    }

    /// Messages already delivered to process `p`, in delivery order.
    ///
    /// # Panics
    ///
    /// Panics if `p` is out of range.
    pub fn delivered(&self, p: usize) -> &[Msg] {
        &self.procs[p].delivered
    }

    /// Where process `p` would restart if `interval` rolled back:
    /// `(pc, history_len, delivered_len)`. Derived from the history, not
    /// recorded. The interval's first record is the guess or receive that
    /// opened it, so `history_len` is that record's index, `pc` is the
    /// interval's checkpoint (both guess sites pass the guessing pc), and
    /// `delivered_len` counts the `Recv` records before it. `None` if no
    /// record of `p` ran in the interval (it is not `p`'s, was rolled back,
    /// or was definite from birth).
    ///
    /// # Panics
    ///
    /// Panics if `p` is out of range.
    pub fn resume_mark(&self, p: usize, interval: IntervalId) -> Option<(usize, usize, usize)> {
        let states = &self.procs[p].history.states;
        let hist = states.iter().position(|r| r.interval == Some(interval))?;
        let itv = self
            .engine
            .interval(interval)
            .expect("a machine collects no fossils");
        let pc = itv.checkpoint().0 as usize;
        debug_assert_eq!(
            pc, states[hist].pc,
            "{interval}'s checkpoint is not its guessing pc"
        );
        let delivered = states[..hist]
            .iter()
            .filter(|r| matches!(r.event, Action::Recv { .. }))
            .count();
        Some((pc, hist, delivered))
    }

    /// Execute one statement of process `p`.
    ///
    /// # Errors
    ///
    /// Propagates engine errors other than the expected
    /// [`Error::AidConsumed`](crate::Error::AidConsumed) (which is recorded
    /// as an [`Action::SkippedDecide`]). With a well-formed machine none
    /// occur.
    ///
    /// # Panics
    ///
    /// Panics if `p` is out of range.
    pub fn step(&mut self, p: usize) -> Result<StepOutcome> {
        self.step_observed(p, &mut NullObserver)
    }

    /// Like [`Machine::step`], but reporting the executed [`Action`] (with
    /// its engine effects) to `observer`: the same value the history
    /// records. [`Action::Compute`] and [`Action::Resumed`] are recorded
    /// but not observed.
    ///
    /// # Errors
    ///
    /// As for [`Machine::step`].
    ///
    /// # Panics
    ///
    /// Panics if `p` is out of range.
    pub fn step_observed(
        &mut self,
        p: usize,
        observer: &mut dyn RuntimeObserver,
    ) -> Result<StepOutcome> {
        let (pid, pc) = (self.procs[p].pid, self.procs[p].pc);
        let Some(&stmt) = self.program.code[p].get(pc) else {
            return Ok(StepOutcome::Done);
        };
        let (action, effects) = match stmt {
            Stmt::Guess(v) => {
                let aid = self.aids[v];
                let (outcome, effects) = self.engine.guess(pid, &[aid], Checkpoint(pc as u64))?;
                let value = outcome.value();
                (Action::Guess { aid, value }, effects)
            }
            Stmt::Affirm(v) | Stmt::Deny(v) | Stmt::FreeOf(v) => {
                let kind = match stmt {
                    Stmt::Affirm(_) => DecideKind::Affirm,
                    Stmt::Deny(_) => DecideKind::Deny,
                    _ => DecideKind::FreeOf,
                };
                decide(&mut self.engine, pid, self.aids[v], kind)?
            }
            Stmt::Compute => (Action::Compute, Vec::new()),
            Stmt::Send { to } => {
                let tag = self.engine.dependence_tag(pid)?;
                let msg = self.next_msg;
                self.next_msg += 1;
                self.procs[to].mailbox.push_back(Msg {
                    id: msg,
                    from: pid,
                    tag,
                });
                let to = self.procs[to].pid;
                (Action::Send { to, msg }, Vec::new())
            }
            Stmt::Recv => loop {
                let Some(msg) = self.procs[p].mailbox.pop_front() else {
                    return Ok(StepOutcome::Blocked);
                };
                let (outcome, effects) =
                    self.engine
                        .implicit_guess(pid, &msg.tag, Checkpoint(pc as u64))?;
                let (id, from) = (msg.id, msg.from);
                if let ReceiveOutcome::Ghost(denied) = outcome {
                    let action = Action::GhostDropped {
                        msg: id,
                        from,
                        denied,
                    };
                    self.record(p, action, None);
                    observer.observe(pid, &action, &effects);
                    continue; // look for the next deliverable message
                }
                self.procs[p].delivered.push(msg);
                let speculative = matches!(outcome, ReceiveOutcome::Speculative(_));
                break (
                    Action::Recv {
                        msg: id,
                        from,
                        speculative,
                    },
                    effects,
                );
            },
        };
        let g = match action {
            Action::Guess { value, .. } => Some(value),
            _ => None,
        };
        self.record(p, action, g);
        self.procs[p].pc += 1;
        self.apply(&effects);
        if action != Action::Compute {
            observer.observe(pid, &action, &effects);
        }
        self.engine.recycle(effects);
        Ok(StepOutcome::Executed)
    }

    /// Run processes round-robin until completion, deadlock, or `fuel`
    /// statements have executed.
    ///
    /// # Panics
    ///
    /// Panics if the engine reports an error (impossible for machine-built
    /// programs; indicates an engine bug).
    pub fn run(&mut self, fuel: u64) -> RunReport {
        self.run_with(fuel, None, &mut NullObserver)
    }

    /// Run until completion, deadlock, or `fuel` statements have executed,
    /// reporting every executed [`Action`] to `observer`. With `seed`, a
    /// seeded pseudo-random runnable process executes at each step
    /// (deterministic for a given seed); without, processes take turns
    /// round-robin.
    ///
    /// # Panics
    ///
    /// As for [`Machine::run`].
    pub fn run_with(
        &mut self,
        fuel: u64,
        seed: Option<u64>,
        observer: &mut dyn RuntimeObserver,
    ) -> RunReport {
        let mut rng = seed.map(SplitMix64::new);
        let n = self.procs.len();
        let mut steps = 0u64;
        let mut round = 0usize;
        if n == 0 {
            return RunReport {
                steps,
                completed: true,
                deadlocked: false,
            };
        }
        loop {
            if steps >= fuel {
                return RunReport {
                    steps,
                    completed: false,
                    deadlocked: false,
                };
            }
            // Try up to n processes starting from the schedule's pick; track
            // whether anyone can run at all.
            let start = match rng.as_mut() {
                Some(rng) => rng.next() as usize,
                None => round,
            } % n;
            round += 1;
            let mut any_executed = false;
            let mut all_done = true;
            for off in 0..n {
                let p = (start + off) % n;
                match self
                    .step_observed(p, observer)
                    .expect("machine-built programs cannot err")
                {
                    StepOutcome::Executed => {
                        steps += 1;
                        any_executed = true;
                        all_done = false;
                        break;
                    }
                    StepOutcome::Blocked => {
                        all_done = false;
                    }
                    StepOutcome::Done => {}
                }
            }
            if all_done {
                return RunReport {
                    steps,
                    completed: true,
                    deadlocked: false,
                };
            }
            if !any_executed {
                return RunReport {
                    steps,
                    completed: false,
                    deadlocked: true,
                };
            }
        }
    }

    fn record(&mut self, p: usize, event: Action, g: Option<bool>) {
        let pid = self.procs[p].pid;
        let interval = self
            .engine
            .current_interval(pid)
            .expect("machine process is registered");
        let g = g.or_else(|| self.procs[p].history.last().and_then(|s| s.g));
        let pc = self.procs[p].pc;
        self.procs[p].history.states.push(StateRecord {
            event,
            interval,
            g,
            pc,
        });
    }

    /// Apply engine effects: every `RolledBack` effect truncates the
    /// victim's history (`Del(H_P, A)`) at the first rolled-back interval's
    /// [`resume_mark`](Machine::resume_mark), resets its program counter to
    /// the guess point, and re-enqueues messages delivered after that point.
    fn apply(&mut self, effects: &[Effect]) {
        for e in effects {
            if let Effect::RolledBack {
                process, intervals, ..
            } = e
            {
                let p = self
                    .procs
                    .iter()
                    .position(|pr| pr.pid == *process)
                    .expect("effect names a machine process");
                let first = intervals
                    .first()
                    .expect("rollback effect lists at least one interval");
                let (pc, hist, delivered) = self
                    .resume_mark(p, *first)
                    .expect("a rolled-back interval opened with a record");
                let proc = &mut self.procs[p];
                // Del(H_P, A): discard the suffix, then append the resumed
                // state with G = False (Equation 24).
                proc.history.states.truncate(hist);
                proc.history.truncations += 1;
                // Re-enqueue messages delivered in the discarded suffix, in
                // original order, ahead of anything already queued.
                for msg in proc.delivered.split_off(delivered).into_iter().rev() {
                    proc.mailbox.push_front(msg);
                }
                proc.pc = pc;
                self.record(p, Action::Resumed { at_pc: pc }, Some(false));
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::BTreeSet;

    #[test]
    fn affirmed_run_completes_and_finalizes() {
        let program = Program::new(vec![
            vec![Stmt::Guess(0), Stmt::Compute],
            vec![Stmt::Affirm(0)],
        ]);
        let mut m = Machine::new(program);
        let r = m.run(100);
        assert!(r.completed);
        assert!(!r.deadlocked);
        assert_eq!(m.engine().stats().finalized, 1);
        assert_eq!(m.engine().stats().rollback_events, 0);
    }

    #[test]
    fn denied_run_rolls_back_and_reexecutes_false() {
        let program = Program::new(vec![
            vec![Stmt::Guess(0), Stmt::Compute, Stmt::Compute],
            vec![Stmt::Compute, Stmt::Deny(0)],
        ]);
        let mut m = Machine::new(program);
        let r = m.run(100);
        assert!(r.completed);
        let h = m.history(0);
        assert_eq!(h.truncations(), 1);
        // The final history must contain the re-executed guess with G=False.
        let guesses: Vec<&StateRecord> = h
            .states()
            .iter()
            .filter(|s| matches!(s.event, Action::Guess { .. }))
            .collect();
        assert_eq!(guesses.len(), 1, "history was truncated");
        assert_eq!(guesses[0].g, Some(false));
    }

    #[test]
    fn message_propagates_dependence_and_rollback() {
        // P0 guesses then sends to P1; P1 receives (implicit guess), then
        // P2 denies. Both P0 and P1 roll back.
        let program = Program::new(vec![
            vec![Stmt::Guess(0), Stmt::Send { to: 1 }, Stmt::Compute],
            vec![Stmt::Recv, Stmt::Compute],
            vec![Stmt::Compute, Stmt::Compute, Stmt::Compute, Stmt::Deny(0)],
        ]);
        let mut m = Machine::new(program);
        let r = m.run(1000);
        assert!(r.completed, "{r:?}");
        assert!(m.history(0).truncations() >= 1);
        assert!(m.history(1).truncations() >= 1);
        // After rollback the re-sent message (sent while definite, since the
        // re-executed guess returns false) is delivered cleanly.
        let recvs: Vec<&StateRecord> = m
            .history(1)
            .states()
            .iter()
            .filter(|s| matches!(s.event, Action::Recv { .. }))
            .collect();
        assert_eq!(recvs.len(), 1);
        match recvs[0].event {
            Action::Recv { speculative, .. } => assert!(!speculative),
            _ => unreachable!(),
        }
    }

    #[test]
    fn ghost_message_is_dropped() {
        // P0 guesses, sends, then P0 itself denies (self-deny definite).
        // P1's receive must observe a ghost and block for the re-sent copy.
        let program = Program::new(vec![
            vec![
                Stmt::Guess(0),
                Stmt::Send { to: 1 },
                Stmt::Deny(0),
                Stmt::Send { to: 1 },
            ],
            vec![Stmt::Recv],
        ]);
        let mut m = Machine::new(program);
        let r = m.run(1000);
        assert!(r.completed, "{r:?}");
        let ghost_drops = m
            .history(1)
            .states()
            .iter()
            .filter(|s| matches!(s.event, Action::GhostDropped { .. }))
            .count();
        assert!(ghost_drops >= 1);
        assert_eq!(m.engine().stats().rollback_events, 1);
        // P1 never became speculative: the ghost was filtered pre-delivery.
        assert_eq!(m.history(1).truncations(), 0);
    }

    #[test]
    fn deadlock_is_reported() {
        let program = Program::new(vec![vec![Stmt::Recv]]);
        let mut m = Machine::new(program);
        let r = m.run(100);
        assert!(!r.completed);
        assert!(r.deadlocked);
    }

    #[test]
    fn fuel_exhaustion_is_reported() {
        let program = Program::new(vec![vec![Stmt::Compute; 100]]);
        let mut m = Machine::new(program);
        let r = m.run(10);
        assert!(!r.completed);
        assert!(!r.deadlocked);
        assert_eq!(r.steps, 10);
    }

    #[test]
    fn seeded_runs_are_deterministic() {
        let program = Program::generate(11, 3, 30, 4);
        let mut m1 = Machine::new(program.clone());
        let mut m2 = Machine::new(program);
        let r1 = m1.run_with(10_000, Some(99), &mut NullObserver);
        let r2 = m2.run_with(10_000, Some(99), &mut NullObserver);
        assert_eq!(r1, r2);
        assert_eq!(m1.engine().stats(), m2.engine().stats());
    }

    #[test]
    fn random_programs_preserve_engine_invariants() {
        for seed in 0..40 {
            let program = Program::generate(seed, 3, 25, 4);
            let mut m = Machine::new(program);
            m.run_with(5_000, Some(seed.wrapping_mul(7919)), &mut NullObserver);
            m.engine()
                .verify_invariants()
                .unwrap_or_else(|e| panic!("seed {seed}: {e}"));
        }
    }

    #[test]
    fn rolled_back_intervals_stay_rolled_back() {
        // Theorem 5.2 sanity over random runs: no interval is both finalized
        // and rolled back.
        #[derive(Default)]
        struct Fates {
            finalized: BTreeSet<IntervalId>,
            rolled_back: BTreeSet<IntervalId>,
        }
        impl RuntimeObserver for Fates {
            fn observe(&mut self, _process: ProcessId, _action: &Action, effects: &[Effect]) {
                for e in effects {
                    match e {
                        Effect::Finalized { interval, .. } => {
                            self.finalized.insert(*interval);
                        }
                        Effect::RolledBack { intervals, .. } => self.rolled_back.extend(intervals),
                        _ => {}
                    }
                }
            }
        }
        let mut rolled_back = 0;
        for seed in 0..20 {
            let program = Program::generate(seed + 1000, 4, 20, 3);
            let mut m = Machine::new(program);
            let mut fates = Fates::default();
            m.run_with(5_000, Some(seed), &mut fates);
            let both: Vec<_> = fates.finalized.intersection(&fates.rolled_back).collect();
            assert!(
                both.is_empty(),
                "seed {seed}: finalized and rolled back: {both:?}"
            );
            rolled_back += fates.rolled_back.len();
        }
        assert!(rolled_back > 0, "no run rolled an interval back");
    }

    /// What a history records is what the observer was handed: on every
    /// seeded run no rollback truncated, each process's observed actions
    /// are its history minus the unobserved `Compute`/`Resumed` records.
    #[test]
    fn observers_see_the_recorded_actions() {
        #[derive(Default)]
        struct Collect(Vec<(ProcessId, Action)>);
        impl RuntimeObserver for Collect {
            fn observe(&mut self, process: ProcessId, action: &Action, _effects: &[Effect]) {
                self.0.push((process, *action));
            }
        }
        let mut compared = 0;
        for seed in 0..400u64 {
            let program = Program::generate(seed, 2 + seed as usize % 3, 12, 3);
            let mut m = Machine::new(program);
            let mut seen = Collect::default();
            m.run_with(5_000, Some(seed), &mut seen);
            if (0..m.process_count()).any(|p| m.history(p).truncations() > 0) {
                continue;
            }
            compared += 1;
            for p in 0..m.process_count() {
                let recorded: Vec<Action> = m
                    .history(p)
                    .states()
                    .iter()
                    .map(|s| s.event)
                    .filter(|a| !matches!(a, Action::Compute | Action::Resumed { .. }))
                    .collect();
                let observed: Vec<Action> = seen
                    .0
                    .iter()
                    .filter(|(pid, _)| *pid == m.pid(p))
                    .map(|&(_, a)| a)
                    .collect();
                assert_eq!(recorded, observed, "seed {seed}, P{p}");
            }
        }
        assert!(compared > 100, "only {compared} runs without rollback");
    }

    #[test]
    fn machine_process_p_is_engine_pid_p() {
        for n in [0, 3, 70] {
            let mut m = Machine::new(Program::new(vec![vec![Stmt::Guess(0)]; n]));
            m.run(1_000);
            assert_eq!(m.process_count(), n);
            for p in 0..n {
                assert_eq!(m.pid(p), ProcessId(p as u32), "{n} processes");
                for &a in m.engine().history(ProcessId(p as u32)).unwrap() {
                    assert_eq!(m.engine().interval(a).unwrap().process(), m.pid(p));
                }
            }
        }
    }

    /// Everything the engine's views show: the counters and horizons, each
    /// live AID and interval record, and each process's chain.
    fn engine_state(e: &Engine, processes: usize) -> String {
        use std::fmt::Write;
        let mut s = format!(
            "{:?} aids {}..{} intervals {}..{} fossil denies {}\n",
            e.stats(),
            e.aid_horizon(),
            e.aid_count(),
            e.interval_horizon(),
            e.interval_count(),
            e.fossil_denied_count()
        );
        for i in e.aid_horizon()..e.aid_count() as u64 {
            let x = AidId::from_index(i);
            let v = e.aid(x).expect("a live aid");
            let (by_affirm, by_deny) = (v.speculatively_affirmed_by(), v.speculatively_denied_by());
            writeln!(
                s,
                "{x} {} {:?} {} {:?} {by_affirm:?} {by_deny:?} {:?}",
                v.creator(),
                v.state(),
                v.is_consumed(),
                v.dom(),
                e.aid_state(x)
            )
            .unwrap();
        }
        for i in e.interval_horizon()..e.interval_count() as u64 {
            let v = e
                .interval(IntervalId::from_index(i))
                .expect("a live interval");
            writeln!(
                s,
                "{} {} {:?} {:?} {} ido {:?} entered {:?} ihd {:?} iha {:?} guessed {:?}",
                v.id(),
                v.process(),
                v.status(),
                v.checkpoint(),
                v.seq(),
                v.ido(),
                v.entered(),
                v.ihd(),
                v.iha(),
                v.guessed()
            )
            .unwrap();
        }
        for p in 0..processes as u32 {
            let pid = ProcessId(p);
            writeln!(
                s,
                "{pid} {:?} {:?} {:?} {:?}",
                e.history(pid),
                e.current_interval(pid),
                e.is_speculative(pid),
                e.dependence_tag(pid)
            )
            .unwrap();
        }
        s
    }

    /// Everything a machine shows: its program and AIDs, its engine, and
    /// per process the pc, history, mailbox and delivered list.
    fn machine_state(m: &Machine) -> String {
        let mut s = format!("{:?} {:?}\n", m.program(), m.aids());
        s += &engine_state(m.engine(), m.process_count());
        for p in 0..m.process_count() {
            let h = m.history(p);
            s += &format!(
                "P{p} pc {} {:?} {:?} truncations {} mailbox {:?} delivered {:?}\n",
                m.pc(p),
                m.poll(p),
                h.states(),
                h.truncations(),
                m.mailbox(p).collect::<Vec<_>>(),
                m.delivered(p)
            );
        }
        s
    }

    /// A machine of a generated program after `steps` seeded random steps.
    fn machine_after(rng: &mut hope_sim::SimRng, steps: usize) -> Machine {
        let (procs, len) = (1 + rng.index(4), 1 + rng.index(6));
        let program = Program::generate(rng.next_u64(), procs, len, 1 + rng.index(4));
        let mut m = Machine::new(program);
        m.run_with(steps as u64, Some(rng.next_u64()), &mut NullObserver);
        m
    }

    /// Step `m` along a seeded random schedule of enabled processes.
    fn step_along(m: &mut Machine, schedule: &[usize]) -> Vec<String> {
        let mut states = Vec::new();
        for &pick in schedule {
            let enabled: Vec<usize> = (0..m.process_count())
                .filter(|&p| m.poll(p) == StepOutcome::Executed)
                .collect();
            if enabled.is_empty() {
                break;
            }
            m.step(enabled[pick % enabled.len()]).unwrap();
            states.push(machine_state(m));
        }
        states
    }

    /// `b.clone_from(&a)` is `a.clone()`: over generated programs and
    /// random schedules, into a machine of another program or state, with
    /// fewer or more processes, records and messages than `a`. The copy
    /// passes the invariant check and steps like the original.
    #[test]
    fn clone_from_is_clone() {
        let mut rng = hope_sim::SimRng::new(0xC10E_F604);
        let (mut smaller, mut larger) = (0, 0);
        for case in 0..400 {
            let steps = rng.index(30);
            let a = machine_after(&mut rng, steps);
            let steps = rng.index(30);
            let mut b = machine_after(&mut rng, steps);
            let before = |m: &Machine| {
                (0..m.process_count())
                    .map(|p| m.history(p).states().len())
                    .sum::<usize>()
            };
            match before(&b).cmp(&before(&a)) {
                std::cmp::Ordering::Less => smaller += 1,
                std::cmp::Ordering::Greater => larger += 1,
                std::cmp::Ordering::Equal => {}
            }
            b.clone_from(&a);
            let mut c = a.clone();
            let want = machine_state(&a);
            assert_eq!(machine_state(&c), want, "case {case}: clone");
            assert_eq!(machine_state(&b), want, "case {case}: clone_from");
            b.engine()
                .verify_invariants()
                .expect("clone_from keeps the invariants");
            let schedule: Vec<usize> = (0..40).map(|_| rng.index(64)).collect();
            assert_eq!(
                step_along(&mut b, &schedule),
                step_along(&mut c, &schedule),
                "case {case}: the copies step apart"
            );
        }
        assert!(
            smaller > 50 && larger > 50,
            "{smaller} smaller, {larger} larger"
        );
    }

    /// The same for a bare engine whose fossil sweeps dropped a prefix of
    /// several chunks of records, some of them denied.
    #[test]
    fn engine_clone_from_is_clone_past_the_horizon() {
        let mut rng = hope_sim::SimRng::new(0x00E4_C10E);
        let window = |rng: &mut hope_sim::SimRng, cycles: usize| {
            let mut e = Engine::new();
            e.set_invariant_checking(false);
            let (guesser, decider) = (e.register_process(), e.register_process());
            let mut open = VecDeque::new();
            for i in 0..cycles {
                let x = e.aid_init(guesser);
                let (_, fx) = e.guess(guesser, &[x], Checkpoint(i as u64)).unwrap();
                e.recycle(fx);
                open.push_back(x);
                if open.len() > rng.index(8) {
                    let oldest = open.pop_front().unwrap();
                    let fx = if rng.chance(0.1) {
                        open.clear(); // a deny rolls the newer guesses back
                        e.deny(decider, oldest)
                    } else {
                        e.affirm(decider, oldest)
                    };
                    e.recycle(fx.unwrap());
                }
                if i % 97 == 0 {
                    e.collect_fossils();
                }
            }
            e
        };
        for case in 0..12 {
            let cycles = 200 + rng.index(1_200);
            let a = window(&mut rng, cycles);
            let cycles = rng.index(1_400);
            let mut b = window(&mut rng, cycles);
            assert!(a.interval_horizon() > 0, "case {case}: nothing swept");
            b.clone_from(&a);
            let mut c = a.clone();
            let want = engine_state(&a, 2);
            assert_eq!(engine_state(&c, 2), want, "case {case}: clone");
            assert_eq!(engine_state(&b, 2), want, "case {case}: clone_from");
            b.verify_invariants()
                .expect("clone_from keeps the invariants");
            for e in [&mut b, &mut c] {
                let x = e.aid_init(ProcessId(0));
                let (_, fx) = e.guess(ProcessId(0), &[x], Checkpoint(0)).unwrap();
                e.recycle(fx);
                let fx = e.deny(ProcessId(1), x).unwrap();
                e.recycle(fx);
                e.collect_fossils();
            }
            let (b, c) = (engine_state(&b, 2), engine_state(&c, 2));
            assert_eq!(b, c, "case {case}: the copies step apart");
        }
    }

    #[test]
    fn empty_program_completes() {
        let mut m = Machine::new(Program::new(vec![]));
        let r = m.run(10);
        assert!(r.completed);
    }
}
