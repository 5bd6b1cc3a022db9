//! `Ctx`: the process-side API — HOPE primitives, messaging, virtual time.
//!
//! A process body is a closure `Fn(&mut Ctx) -> Hope<()>`. Everything the
//! body learns about the world comes through `Ctx`, which journals each
//! interaction so that a restart can re-execute the body deterministically
//! (see [`journal`](crate::journal)). Every restart — a rollback, a
//! crash-restart, the revival of a finished body — takes one path: the body
//! is called again and `Ctx` replays the journal from the newest
//! [`Ctx::checkpoint`] the truncation left, whose state [`Ctx::restore`]
//! hands the body; a body that never checkpoints replays from the journal's
//! first live entry. The obligations on a body are:
//!
//! 1. **Determinism given `Ctx` results** — no host clocks, no global
//!    mutable state, no `rand` calls outside [`Ctx::random_u64`].
//! 2. **Propagate signals** — every fallible `Ctx` call returns
//!    [`Hope<T>`](crate::Hope); use `?` and let [`Signal`]s unwind.
//! 3. **Externally visible work goes through [`Ctx::output`]** (or happens
//!    after the assumptions it depends on are affirmed): the runtime
//!    buffers speculative output and discards it on rollback, but it cannot
//!    un-write your files.

use std::cell::{RefCell, RefMut};
use std::sync::Arc;

use hope_core::observer::decide;
use hope_core::{Action, AidId, AidState, Checkpoint, DecideKind, ProcessId};
use hope_sim::{VirtualDuration, VirtualTime};

use crate::governor::{Admission, DEFAULT_GUESS_SITE, RELIABLE_SEND_SITE};
use crate::journal::Entry;
use crate::message::{Message, MsgKind};
use crate::scheduler::{drive, Turn};
use crate::shared::{Done, ProcState, Shared};
use crate::signal::{Hope, Signal};
use crate::stats::CrashReason;
use crate::value::Value;

/// The handle a process body uses to interact with the simulated world.
///
/// See the module-level documentation above for the obligations on process bodies, and
/// [`Simulation::spawn`](crate::Simulation::spawn) for how bodies are
/// installed.
#[derive(Debug)]
pub struct Ctx {
    /// The run's state, away with the turn while the body is parked; the
    /// wrapper takes it back when the body returns (`None` after the run).
    pub(crate) shared: RefCell<Option<Box<Shared>>>,
    baton: Arc<Turn>,
    idx: usize,
    pid: ProcessId,
    /// Journal positions still to replay before the body runs live.
    replay: std::ops::Range<usize>,
}

impl Ctx {
    /// `replay`: the journal range `Shared::begin_attempt` answered.
    pub(crate) fn new(
        shared: Option<Box<Shared>>,
        baton: Arc<Turn>,
        idx: usize,
        replay: std::ops::Range<usize>,
    ) -> Self {
        let pid = shared.as_ref().expect("the turn's state").procs[idx].pid;
        Ctx {
            shared: RefCell::new(shared),
            baton,
            idx,
            pid,
            replay,
        }
    }

    /// This process's id.
    pub fn pid(&self) -> ProcessId {
        self.pid
    }

    /// `true` while the body is replaying its journal after a rollback.
    ///
    /// Useful only for diagnostics; bodies must behave identically either
    /// way.
    pub fn replaying(&self) -> bool {
        !self.replay.is_empty()
    }

    /// `true` when this run has a fault schedule installed
    /// ([`SimConfig::with_faults`](crate::SimConfig::with_faults)).
    ///
    /// Constant for the whole run (so it is safe to branch on without
    /// journaling). Protocols use it to choose a delivery discipline: on a
    /// reliable network a plain [`send`](Ctx::send) already delivers, and a
    /// verifier can stay fully definite; under an unreliable one,
    /// loss-sensitive messages must ride
    /// [`send_reliable`](Ctx::send_reliable) at the cost of a brief
    /// speculative window per send.
    pub fn faults_enabled(&self) -> bool {
        self.lock().config.faults.is_some()
    }

    // ------------------------------------------------------------------
    // replay machinery
    // ------------------------------------------------------------------

    /// Borrow the state, counting the access. Every access on behalf of a
    /// process body goes through here so that
    /// `RunStats::ctx_lock_acquisitions` measures the body-side contention
    /// a real multi-core runtime would see; the regression suite pins the
    /// one-access-per-primitive invariant against this counter.
    fn lock(&self) -> RefMut<'_, Shared> {
        let held = self.shared.borrow_mut();
        let mut sh = RefMut::map(held, |h| h.as_deref_mut().expect("Ctx used after the run"));
        sh.stats.ctx_lock_acquisitions += 1;
        sh
    }

    /// One primitive, replayed or live. On replay the recorded entry
    /// answers through `replay`; live, `apply` changes the state under the
    /// primitive's one counted access, and [`Shared::record`] journals what
    /// it did.
    fn call<R>(
        &mut self,
        primitive: &'static str,
        replay: impl FnOnce(&Entry) -> Option<R>,
        apply: impl FnOnce(&mut Shared, usize, ProcessId) -> Done<R>,
    ) -> Hope<R> {
        if let Some(reply) = self.replayed(primitive, replay)? {
            return Ok(reply);
        }
        let mut sh = self.live()?;
        let done = apply(&mut sh, self.idx, self.pid);
        sh.record(self.idx, done)
    }

    /// The one reader of the journal on replay: `None` once the body runs
    /// live, else the next recorded entry's answer to `replay`. An entry
    /// `replay` refuses means the body is not deterministic given `Ctx`
    /// results: the process crashes with [`CrashReason::ReplayDivergence`].
    fn replayed<R>(
        &mut self,
        primitive: &'static str,
        replay: impl FnOnce(&Entry) -> Option<R>,
    ) -> Hope<Option<R>> {
        let Some(at) = self.replay.next() else {
            return Ok(None);
        };
        let mut sh = self.lock();
        let entry = sh.procs[self.idx].journal.get(at);
        let entry = entry.expect("replay cursor within journal");
        if let Some(reply) = replay(entry) {
            return Ok(Some(reply));
        }
        let reason = CrashReason::ReplayDivergence {
            pid: self.pid,
            primitive,
            recorded: entry.kind(),
            at,
        };
        sh.crash(self.idx, reason);
        Err(Signal::Shutdown)
    }

    /// Borrow the state for a **live** (non-replay) primitive, enforcing the
    /// journal budget before the caller appends a new entry. A body stuck in
    /// an unbounded retry loop (e.g. [`Ctx::send_reliable`] to a peer
    /// partitioned away forever) would otherwise grow its journal without
    /// bound; crossing [`SimConfig::max_journal_entries`](crate::SimConfig)
    /// **live** entries crashes the process with the typed
    /// [`CrashReason::JournalOverflow`]. Entries reclaimed by fossil
    /// collection don't count, so checkpointing bodies never trip the
    /// limit merely by running long.
    ///
    /// Returns the borrow *still held*: the caller performs its whole
    /// primitive under this single access, which is what keeps the hot path
    /// at one counted access per primitive.
    fn live(&self) -> Hope<RefMut<'_, Shared>> {
        let mut sh = self.lock();
        let limit = sh.config.max_journal_entries;
        if sh.procs[self.idx].journal.live_len() >= limit && sh.config.fossil_collection {
            // Last-ditch sweep before declaring overflow: the limit bounds
            // *irreducible* live entries, not entries the horizon has
            // already passed but the periodic sweep hasn't reclaimed yet.
            sh.fossil_sweep();
        }
        if sh.procs[self.idx].journal.live_len() >= limit {
            let pid = self.pid;
            sh.trace(|| format!("{pid}: journal limit ({limit} live entries) exceeded"));
            sh.crash(self.idx, CrashReason::JournalOverflow { limit });
            return Err(Signal::Shutdown);
        }
        Ok(sh)
    }

    fn park(&mut self, state: ProcState) -> Hope<()> {
        self.lock().set_state(self.idx, state);
        // Parked, this thread is the scheduler until an event resumes it.
        if !drive(self.shared.get_mut(), &self.baton, self.idx) {
            return Err(Signal::Shutdown);
        }
        if self.lock().procs[self.idx].rollback_pending {
            Err(Signal::Rollback)
        } else {
            Ok(())
        }
    }

    // ------------------------------------------------------------------
    // HOPE primitives
    // ------------------------------------------------------------------

    /// Create a fresh assumption identifier (the paper's `aid_init`).
    ///
    /// # Errors
    ///
    /// Returns a [`Signal`] only on shutdown (never blocks otherwise).
    pub fn aid_init(&mut self) -> Hope<AidId> {
        let replay = |e: &Entry| match *e {
            Entry::AidInit(aid) => Some(aid),
            _ => None,
        };
        self.call("aid_init", replay, |sh, _, pid| {
            let aid = sh.engine.aid_init(pid);
            Done::quiet(Entry::AidInit(aid), aid)
        })
    }

    /// `guess(x)`: begin computing under the assumption identified by `x`.
    ///
    /// Returns `true` immediately (speculatively). If the assumption is
    /// later denied, the process is rolled back to this point, the body is
    /// re-executed, and this call returns `false` (§5.1, Equation 24).
    ///
    /// # Errors
    ///
    /// [`Signal::Rollback`]/[`Signal::Shutdown`] propagated from the
    /// runtime.
    pub fn guess(&mut self, aid: AidId) -> Hope<bool> {
        self.guess_at(aid, DEFAULT_GUESS_SITE)
    }

    /// [`Ctx::guess`] with an explicit **guess site** id for the optimism
    /// governor (see [`crate::governor`]): sites are the granularity at
    /// which the governor tracks deny pressure and throttles or
    /// de-speculates. Without a governor configured, behaves exactly like
    /// [`Ctx::guess`].
    ///
    /// # Errors
    ///
    /// [`Signal::Rollback`]/[`Signal::Shutdown`] propagated from the
    /// runtime.
    pub fn guess_at(&mut self, aid: AidId, site: u32) -> Hope<bool> {
        let replay = |e: &Entry| match *e {
            Entry::Guess { aid: a, value } if a == aid => Some(value),
            _ => None,
        };
        if let Some(value) = self.replayed("guess", replay)? {
            return Ok(value);
        }
        let mut sh = self.live()?;
        if sh.config.governor.is_some() {
            match sh.govern_admit(self.idx, aid, site) {
                Admission::Admit => {}
                Admission::Hold(d) => {
                    // Throttled: spend the optimism a little later. The
                    // hold is an ordinary epoch-guarded wake, so it is a
                    // realizable event for replay and model checking; if
                    // the assumption is denied while we hold, the guess
                    // below answers `false` without any rollback.
                    sh.trace(|| format!("{}: governor holds guess({aid})", self.pid));
                    let at = sh.now + d;
                    sh.schedule_wake(self.idx, at);
                    drop(sh);
                    self.park(ProcState::Holding)?;
                    sh = self.live()?;
                }
                Admission::Wait => {
                    // Conservative: full degradation to non-speculative
                    // execution. Park until the assumption is decided —
                    // the decision handler wakes registered waiters — then
                    // fall through to a guess that answers definitively
                    // and commits the same branch optimism would have.
                    sh.trace(|| format!("{}: governor converts guess({aid}) to a wait", self.pid));
                    while sh.engine.aid_state(aid).ok() == Some(AidState::Undecided) {
                        if let Some(gov) = sh.governor.as_mut() {
                            gov.waiting.insert(aid, self.idx);
                        }
                        drop(sh);
                        self.park(ProcState::Holding)?;
                        sh = self.live()?;
                        if let Some(gov) = sh.governor.as_mut() {
                            gov.waiting.remove(&aid);
                        }
                    }
                }
            }
        }
        let pos = sh.procs[self.idx].journal.len() as u64;
        let (outcome, fx) = sh
            .engine
            .guess(self.pid, &[aid], Checkpoint(pos))
            .expect("guess on engine-owned ids");
        let value = outcome.value();
        let (entry, action) = (Entry::Guess { aid, value }, Action::Guess { aid, value });
        sh.record(self.idx, Done::acted(entry, value, action, fx))
    }

    /// `affirm(x)`: assert the assumption was correct (§5.2).
    ///
    /// Re-affirming an AID that was already decided (which happens
    /// legitimately in re-executed code after a conservative deny) is a
    /// recorded no-op rather than an error.
    ///
    /// # Errors
    ///
    /// [`Signal`]s propagated from the runtime.
    pub fn affirm(&mut self, aid: AidId) -> Hope<()> {
        self.try_affirm(aid).map(|_| ())
    }

    /// Like [`Ctx::affirm`], but reports whether the affirm took effect:
    /// `false` means the AID was already decided (e.g. denied by a crash
    /// kill after its message was delivered) and the affirm was a recorded
    /// no-op. Protocols that use an affirm as a commit acknowledgement
    /// should check this and fall back to an explicit repair when it
    /// returns `false`.
    ///
    /// # Errors
    ///
    /// [`Signal`]s propagated from the runtime.
    pub fn try_affirm(&mut self, aid: AidId) -> Hope<bool> {
        self.decide(aid, DecideKind::Affirm)
    }

    /// `deny(x)`: assert the assumption was wrong, rolling back every
    /// dependent computation (§5.3). If the caller itself depends on `x`,
    /// this call returns `Err(Signal::Rollback)` — propagate it.
    ///
    /// # Errors
    ///
    /// [`Signal`]s propagated from the runtime.
    pub fn deny(&mut self, aid: AidId) -> Hope<()> {
        self.decide(aid, DecideKind::Deny).map(|_| ())
    }

    /// `free_of(x)`: assert this computation is not, and never will be,
    /// causally dependent on `x` (§5.4). If the constraint is already
    /// violated the runtime denies `x`, rolling this process back.
    ///
    /// # Errors
    ///
    /// [`Signal`]s propagated from the runtime.
    pub fn free_of(&mut self, aid: AidId) -> Hope<()> {
        self.decide(aid, DecideKind::FreeOf).map(|_| ())
    }

    /// The one decide path. `Ok(false)`: the AID was already decided and
    /// the call was a recorded no-op (which happens legitimately in code
    /// re-executed after a conservative decision).
    fn decide(&mut self, aid: AidId, kind: DecideKind) -> Hope<bool> {
        let replay = |e: &Entry| match *e {
            Entry::Decide {
                aid: a,
                kind: k,
                applied,
            } if a == aid && k == kind => Some(applied),
            _ => None,
        };
        self.call(kind.name(), replay, |sh, _, pid| {
            let (action, fx) = decide(&mut sh.engine, pid, aid, kind)
                .unwrap_or_else(|e| panic!("engine rejected {}: {e}", kind.name()));
            let applied = !matches!(action, Action::SkippedDecide { .. });
            Done::acted(Entry::Decide { aid, kind, applied }, applied, action, fx)
        })
    }

    /// `true` if this process currently depends on undecided assumptions.
    ///
    /// # Errors
    ///
    /// [`Signal`]s propagated from the runtime.
    pub fn is_speculative(&mut self) -> Hope<bool> {
        let replay = |e: &Entry| match *e {
            Entry::Flag(v) => Some(v),
            _ => None,
        };
        self.call("is_speculative", replay, |sh, _, pid| {
            let v = sh
                .engine
                .is_speculative(pid)
                .expect("process is registered");
            Done::quiet(Entry::Flag(v), v)
        })
    }

    // ------------------------------------------------------------------
    // resume points (snapshot/restore protocol)
    // ------------------------------------------------------------------

    /// Declare this body **restorable** and fetch its resume state, if any.
    ///
    /// Must be the body's *first* `Ctx` call. Together with
    /// [`checkpoint`](Ctx::checkpoint) this is the opt-in protocol for
    /// re-entering a body mid-way: every restart of a restorable body — a
    /// rollback, a crash-restart, the revival of a finished body — replays
    /// from its newest surviving snapshot instead of from step zero, and
    /// fossil collection may reclaim the journal prefix below a snapshot
    /// the commit horizon has passed.
    ///
    /// * On a fresh journal, and on a restart whose rollback truncated
    ///   below every snapshot, this records (or replays) a marker and
    ///   returns `None`: run the body's initialization.
    /// * Otherwise it returns `Some(state)` — the exact [`Value`] recorded
    ///   by the newest [`checkpoint`](Ctx::checkpoint) still in the
    ///   journal. Rebuild your state from it and proceed to the statement
    ///   *after* that checkpoint call; the journal replays the rest.
    ///
    /// Bodies that never call this replay their whole journal on every
    /// restart and keep all of it — fossil collection still reclaims
    /// engine records, just not their journals.
    ///
    /// # Errors
    ///
    /// [`Signal`]s propagated from the runtime.
    pub fn restore(&mut self) -> Hope<Option<Value>> {
        // Replay starts at the resume point, the newest snapshot, so a
        // snapshot met on replay is the one this attempt starts at.
        let replay = |e: &Entry| match e {
            Entry::Restore => Some(None),
            Entry::Snapshot(v) => Some(Some(v.clone())),
            _ => None,
        };
        let state = self.call("restore", replay, |_, _, _| {
            Done::quiet(Entry::Restore, None)
        })?;
        if state.is_some() {
            // Peeked, not consumed: the body's own `checkpoint` call at the
            // top of its loop replays the snapshot.
            self.replay.start -= 1;
        }
        Ok(state)
    }

    /// Record a resumable snapshot of the body's state.
    ///
    /// Call at a point the body can reconstruct itself from `state` alone —
    /// typically the top of its main loop. A snapshot is a resume point
    /// twice over. A rollback (or crash-restart) whose truncation leaves it
    /// the newest one in the journal restarts the body here, via
    /// [`restore`](Ctx::restore), and replays only what follows it — so
    /// `state` must rebuild the body *mid-speculation*: everything later
    /// code reads that earlier code computed, answers of still-open guesses
    /// included. And once the engine's commit horizon passes this point,
    /// fossil collection may truncate everything before the snapshot.
    ///
    /// One journal entry per call, holding `state`: cheap enough to call
    /// every iteration when the state is a counter, quadratic in memory
    /// when the state itself grows with every iteration. A body whose state
    /// grows should call it when the journal it has written since its last
    /// snapshot takes at least as many bytes as the snapshot would — with
    /// [`JOURNAL_ENTRY_BYTES`](crate::JOURNAL_ENTRY_BYTES) as the unit, an
    /// `n`-byte state once `⌈n / JOURNAL_ENTRY_BYTES⌉` entries have been
    /// written: snapshots then cost no more memory than the journal they
    /// sit in, and a restart replays about that many entries.
    /// `hope-timewarp`'s `run_lp` is the model: its state is `8·w` bytes of
    /// `w` little-endian words in one [`Value::Bytes`], so it snapshots
    /// every `⌈8·w / JOURNAL_ENTRY_BYTES⌉` entries, a quarter of `w` at
    /// 32-byte entries. Superseded snapshots are reclaimed with the prefix
    /// they close over.
    ///
    /// # Errors
    ///
    /// [`Signal`]s propagated from the runtime.
    ///
    /// # Panics
    ///
    /// Panics if the body did not call [`restore`](Ctx::restore) first:
    /// a restart must resume *somewhere*, and only `restore` gives it an
    /// entry point.
    pub fn checkpoint(&mut self, state: impl Into<Value>) -> Hope<()> {
        // Matched in place: a replayed snapshot is skipped, not cloned.
        let replay = |e: &Entry| matches!(e, Entry::Snapshot(_)).then_some(());
        self.call("checkpoint", replay, |sh, idx, pid| {
            assert!(
                sh.procs[idx].journal.is_restorable(),
                "{pid}: Ctx::checkpoint requires the body to call Ctx::restore first \
                 (the truncation-safe resume protocol needs an entry point)",
            );
            Done::quiet(Entry::Snapshot(state.into()), ())
        })
    }

    // ------------------------------------------------------------------
    // time, randomness, output
    // ------------------------------------------------------------------

    /// Consume `d` of virtual CPU time.
    ///
    /// # Errors
    ///
    /// [`Signal`]s propagated from the runtime.
    pub fn compute(&mut self, d: VirtualDuration) -> Hope<()> {
        let replay = |e: &Entry| matches!(e, Entry::Compute(_)).then_some(());
        if self.replayed("compute", replay)?.is_some() {
            return Ok(());
        }
        let mut sh = self.live()?;
        let at = sh.now + d;
        sh.schedule_wake(self.idx, at);
        sh.record(self.idx, Done::quiet(Entry::Compute(d), ()))?;
        drop(sh);
        self.park(ProcState::Holding)
    }

    /// The current virtual time.
    ///
    /// # Errors
    ///
    /// [`Signal`]s propagated from the runtime.
    pub fn now(&mut self) -> Hope<VirtualTime> {
        let replay = |e: &Entry| match *e {
            Entry::Now(t) => Some(t),
            _ => None,
        };
        self.call("now", replay, |sh, _, _| {
            Done::quiet(Entry::Now(sh.now), sh.now)
        })
    }

    /// A journaled random `u64` from this process's deterministic stream.
    ///
    /// # Errors
    ///
    /// [`Signal`]s propagated from the runtime.
    pub fn random_u64(&mut self) -> Hope<u64> {
        let replay = |e: &Entry| match *e {
            Entry::Rand(v) => Some(v),
            _ => None,
        };
        self.call("rand", replay, |sh, idx, _| {
            let v = sh.procs[idx].rng.next_u64();
            Done::quiet(Entry::Rand(v), v)
        })
    }

    /// A journaled Bernoulli draw: `true` with probability `p`.
    ///
    /// # Errors
    ///
    /// [`Signal`]s propagated from the runtime.
    pub fn chance(&mut self, p: f64) -> Hope<bool> {
        let v = self.random_u64()?;
        Ok((v as f64 / u64::MAX as f64) < p.clamp(0.0, 1.0))
    }

    /// Emit one output line, subject to output commit: buffered while this
    /// process is speculative, released when the buffering interval
    /// finalizes, discarded if it rolls back.
    ///
    /// # Errors
    ///
    /// [`Signal`]s propagated from the runtime.
    pub fn output(&mut self, line: impl Into<String>) -> Hope<()> {
        let replay = |e: &Entry| matches!(e, Entry::Output).then_some(());
        self.call("output", replay, |sh, idx, _| {
            sh.output(idx, line.into());
            Done::quiet(Entry::Output, ())
        })
    }

    // ------------------------------------------------------------------
    // messaging
    // ------------------------------------------------------------------

    /// Send a one-way message. The runtime tags it with this process's
    /// current dependence set (§3); the call never blocks.
    ///
    /// Returns the message id.
    ///
    /// # Errors
    ///
    /// [`Signal`]s propagated from the runtime.
    pub fn send(&mut self, to: ProcessId, payload: impl Into<Value>) -> Hope<u64> {
        self.send_kind(to, |_| MsgKind::Plain, payload.into())
    }

    /// Send a request *without* blocking for the reply (the asynchronous
    /// half of an RPC). Returns the call id; collect the reply later with
    /// [`Ctx::recv_matching`] — or never, if an optimistic protocol makes
    /// the reply unnecessary.
    ///
    /// # Errors
    ///
    /// [`Signal`]s propagated from the runtime.
    pub fn send_request(&mut self, to: ProcessId, payload: impl Into<Value>) -> Hope<u64> {
        self.send_kind(to, MsgKind::Request, payload.into())
    }

    /// Send `payload` to `to` reliably, built from HOPE's own primitives:
    /// each attempt guesses "this copy was delivered", the runtime's
    /// delivery ack affirms the guess, and a deterministic timeout
    /// ([`SimConfig::ack_timeout`](crate::SimConfig), doubling per retry up
    /// to [`SimConfig::ack_backoff_cap`](crate::SimConfig)) denies it,
    /// rolling the sender back into this loop to retransmit. The logical
    /// sequence number (returned) is journaled once, so every
    /// retransmission carries the same one and the receiver deduplicates;
    /// the sender's dependence tag flows through retries unchanged.
    ///
    /// The call does not block: the guess succeeds speculatively and the
    /// body runs ahead; only a timeout deny rewinds it here. With no fault
    /// plan the first attempt's ack always lands, so this degrades to a
    /// plain send plus one assumption and its ack. The copy is sent
    /// *before* the guess, so its tag excludes the attempt's own
    /// "delivered" AID — a timed-out-but-merely-slow copy still arrives
    /// (deduplicated by sequence) instead of ghosting itself.
    ///
    /// # Errors
    ///
    /// [`Signal`]s propagated from the runtime.
    pub fn send_reliable(&mut self, to: ProcessId, payload: impl Into<Value>) -> Hope<u64> {
        let payload = payload.into();
        // Journaled before the retry loop, so re-executions rolled back into
        // the loop reuse the recorded number — which is what makes
        // receiver-side deduplication sound.
        let replay = |e: &Entry| match *e {
            Entry::ReliableSeq(seq) => Some(seq),
            _ => None,
        };
        let seq = self.call("reliable_seq", replay, |sh, idx, _| {
            let seq = sh.procs[idx].next_reliable;
            sh.procs[idx].next_reliable += 1;
            Done::quiet(Entry::ReliableSeq(seq), seq)
        })?;
        let mut attempt: u32 = 0;
        loop {
            attempt += 1;
            let aid = self.aid_init()?;
            // A replayed attempt re-arms nothing: its fate was decided.
            self.call("send", sent, |sh, idx, _| {
                sh.send_reliable(idx, to, (seq, attempt), aid, payload.clone())
            })?;
            if self.guess_at(aid, RELIABLE_SEND_SITE)? {
                return Ok(seq);
            }
            // Denied (timeout, or a fault kill): re-execution replayed the
            // journal back to this loop; go around for the next attempt.
        }
    }

    /// Receive the next deliverable message (blocking). Ghost messages —
    /// whose tags contain a denied AID — are dropped silently; receiving a
    /// message from a speculative sender implicitly guesses the tag's
    /// undecided AIDs, making this process speculative too.
    ///
    /// # Errors
    ///
    /// [`Signal`]s propagated from the runtime.
    pub fn recv(&mut self) -> Hope<Message> {
        self.recv_where(&|_| true)
    }

    /// Receive the next deliverable message satisfying `pred`, leaving
    /// non-matching messages queued.
    ///
    /// # Errors
    ///
    /// [`Signal`]s propagated from the runtime.
    pub fn recv_matching(&mut self, pred: impl Fn(&Message) -> bool) -> Hope<Message> {
        self.recv_where(&pred)
    }

    /// Receive the next deliverable message if one is already queued,
    /// without blocking. Ghost messages encountered during the scan are
    /// dropped. Returns `None` when the mailbox holds nothing deliverable.
    ///
    /// # Errors
    ///
    /// [`Signal`]s propagated from the runtime.
    pub fn try_recv(&mut self) -> Hope<Option<Message>> {
        self.try_recv_where(&|_| true)
    }

    /// Like [`Ctx::try_recv`], but only considers messages satisfying
    /// `pred`, leaving others queued. Ghosts matching `pred` are dropped
    /// during the scan.
    ///
    /// # Errors
    ///
    /// [`Signal`]s propagated from the runtime.
    pub fn try_recv_matching(&mut self, pred: impl Fn(&Message) -> bool) -> Hope<Option<Message>> {
        self.try_recv_where(&pred)
    }

    fn try_recv_where(&mut self, pred: &dyn Fn(&Message) -> bool) -> Hope<Option<Message>> {
        let replay = |e: &Entry| match e {
            Entry::Recv(m) => Some(Some((**m).clone())),
            Entry::Flag(false) => Some(None),
            _ => None,
        };
        self.call("try_recv", replay, |sh, idx, _| {
            sh.take_deliverable(idx, pred)
        })
    }

    /// A synchronous remote procedure call: sends a request and blocks for
    /// the matching reply, returning its payload. This is the *pessimistic*
    /// building block that Call Streaming (the `hope-callstream` crate)
    /// optimistically transforms away.
    ///
    /// # Errors
    ///
    /// [`Signal`]s propagated from the runtime.
    pub fn rpc(&mut self, to: ProcessId, payload: impl Into<Value>) -> Hope<Value> {
        let call = self.send_kind(to, MsgKind::Request, payload.into())?;
        let reply = self.recv_matching(|m| m.is_reply_to(call))?;
        Ok(reply.payload)
    }

    /// Reply to a received request.
    ///
    /// # Errors
    ///
    /// [`Signal`]s propagated from the runtime.
    ///
    /// # Panics
    ///
    /// Panics if `req` is not a [`MsgKind::Request`].
    pub fn reply(&mut self, req: &Message, payload: impl Into<Value>) -> Hope<u64> {
        let call = req.kind.call_id().expect("reply target must be a request");
        debug_assert!(matches!(req.kind, MsgKind::Request(_)));
        self.send_kind(req.from, move |_| MsgKind::Reply(call), payload.into())
    }

    fn send_kind(
        &mut self,
        to: ProcessId,
        kind_of: impl FnOnce(u64) -> MsgKind,
        payload: Value,
    ) -> Hope<u64> {
        self.call("send", sent, |sh, idx, _| {
            let msg = sh.send_message_with(idx, to, kind_of, payload);
            Done::acted(
                Entry::Send { msg_id: msg },
                msg,
                Action::Send { to, msg },
                Vec::new(),
            )
        })
    }

    fn recv_where(&mut self, pred: &dyn Fn(&Message) -> bool) -> Hope<Message> {
        let replay = |e: &Entry| match e {
            Entry::Recv(m) => Some((**m).clone()),
            _ => None,
        };
        if let Some(m) = self.replayed("recv", replay)? {
            return Ok(m);
        }
        // One access per wake-up, released only to park when nothing
        // deliverable is queued.
        let mut sh = self.live()?;
        loop {
            let mut done = sh.take_deliverable(self.idx, pred);
            if let Some(m) = done.reply.take() {
                sh.record(self.idx, done)?;
                return Ok(m);
            }
            drop(sh);
            self.park(ProcState::BlockedRecv)?;
            sh = self.lock();
        }
    }
}

/// A recorded send answers with its message id.
fn sent(e: &Entry) -> Option<u64> {
    match *e {
        Entry::Send { msg_id } => Some(msg_id),
        _ => None,
    }
}

/// The retransmission deadline for reliable-send `attempt` (1-based):
/// `min(ack_timeout << (attempt-1), ack_backoff_cap)`, with the shift
/// clamped and the multiply saturating so a large configured timeout can
/// never overflow past the cap instead of clamping to it.
pub(crate) fn backoff_deadline(
    timeout: VirtualDuration,
    cap: VirtualDuration,
    attempt: u32,
) -> VirtualDuration {
    let shift = (attempt - 1).min(16);
    timeout.saturating_mul(1u64 << shift).min(cap)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn backoff_doubles_then_caps() {
        let timeout = VirtualDuration::from_millis(50);
        let cap = VirtualDuration::from_millis(400);
        assert_eq!(backoff_deadline(timeout, cap, 1), timeout);
        assert_eq!(
            backoff_deadline(timeout, cap, 2),
            VirtualDuration::from_millis(100)
        );
        // Attempt 4 lands exactly on the cap boundary; everything after
        // stays pinned there.
        assert_eq!(backoff_deadline(timeout, cap, 4), cap);
        assert_eq!(backoff_deadline(timeout, cap, 5), cap);
        assert_eq!(backoff_deadline(timeout, cap, 64), cap);
    }

    #[test]
    fn backoff_saturates_instead_of_overflowing() {
        // A timeout near the representable maximum: the shifted multiply
        // must saturate (not wrap past the cap) so the min() still applies.
        let huge = VirtualDuration::from_nanos(u64::MAX / 2);
        let cap = VirtualDuration::from_millis(400);
        for attempt in 1..=40 {
            assert_eq!(backoff_deadline(huge, cap, attempt), cap);
        }
        // And with an uncapped configuration the result pins to the
        // saturated maximum rather than wrapping around to a tiny value.
        let no_cap = VirtualDuration::from_nanos(u64::MAX);
        assert_eq!(backoff_deadline(huge, no_cap, 17), no_cap);
    }
}
