//! The scheduler-shared state: engine, processes, event queue, network.
//!
//! Exactly one thread runs at any moment — the scheduler, or the process
//! it passed the [`Baton`](crate::baton::Baton) to — so the single
//! [`std::sync::Mutex`] around [`Shared`] is uncontended; it exists to
//! satisfy the borrow checker across threads, not to provide parallelism.
//! Every acquisition goes through [`Shared::lock`].

use std::collections::{BTreeMap, BTreeSet, HashMap, HashSet};
use std::sync::{Mutex, MutexGuard, PoisonError};

use hope_analysis::dynamic::RaceDetector;
use hope_core::{Action, AidId, AidState, Effect, Engine, IntervalId, ProcessId, RuntimeObserver};
use hope_sim::{EventQueue, LinkVerdict, SimRng, VirtualDuration, VirtualTime};

use crate::config::SimConfig;
use crate::governor::Governor;
use crate::journal::{Entry, Journal};
use crate::message::{Mailbox, Message, MsgKind};
use crate::oracle::SchedOracleSlot;
use crate::stats::{CrashReason, OutputLine, RunStats};
use crate::value::Value;

/// What a scheduler event does when it fires.
#[derive(Debug, Clone)]
// `Deliver` holds the `Message` (and its tag's inline `DepSet`) by value:
// boxing it would cost an allocation per send on the simulator's hottest
// queue, and almost every queued event is a `Deliver` anyway.
#[allow(clippy::large_enum_variant)]
pub(crate) enum EventKind {
    /// Resume process `proc` if `epoch` is still current.
    Wake { proc: usize, epoch: u64 },
    /// Place a message into its destination mailbox.
    Deliver { msg: Message },
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
    pub(crate) state: ProcState,
    pub(crate) mailbox: Mailbox,
    pub(crate) journal: Journal,
    /// Set when a rollback truncated the journal while the process was not
    /// running; the process's next resume observes it and unwinds.
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
    /// `(journal position of the AidInit entry, aid)` for every AID this
    /// body created, in journal order. The kill path denies open ones from
    /// here instead of scanning the journal — whose prefix fossil
    /// collection may have reclaimed. Suffix-pruned on rollback in step
    /// with the journal; decided entries are dropped at collection time
    /// (a kill only ever denies undecided AIDs), so it stays bounded.
    pub(crate) own_aids: Vec<(usize, AidId)>,
    /// Absolute journal positions of live [`Entry::Snapshot`]s, ascending.
    /// Fossil collection truncates the journal prefix back to the newest
    /// one at or below the process's speculative frontier.
    pub(crate) snapshots: Vec<usize>,
    /// The body called [`Ctx::restore`](crate::Ctx::restore), so its
    /// journal has a resume entry point and prefix truncation is safe.
    pub(crate) restorable: bool,
}

/// The boxed form of an installed observer callback.
pub(crate) type ObserverFn = Box<dyn FnMut(ProcessId, &Action, &[Effect]) + Send>;

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
    pub(crate) link_last: HashMap<(u32, u32), VirtualTime>,
    pub(crate) next_msg_id: u64,
    pub(crate) next_mail_seq: u64,
    /// Output buffered per speculative interval (released on finalize,
    /// discarded on rollback).
    pub(crate) pending_output: BTreeMap<IntervalId, Vec<OutputLine>>,
    pub(crate) outputs: Vec<OutputLine>,
    pub(crate) stats: RunStats,
    pub(crate) trace_log: Vec<String>,
    /// Engine process id of the quiescence-commit oracle, once created.
    pub(crate) oracle: Option<ProcessId>,
    /// Reported every executed HOPE action (see `Simulation::set_observer`).
    pub(crate) observer: ObserverSlot,
    /// Online race detector, present iff [`SimConfig::detect_races`] was
    /// set; drained into [`RunReport::races`](crate::RunReport::races) at
    /// run end.
    pub(crate) race_detector: Option<RaceDetector>,
    /// Dedicated RNG stream for fault verdicts, seeded from the plan's own
    /// seed so a given plan injects the same faults under any master seed.
    pub(crate) fault_rng: SimRng,
    /// Engine process id of the fault injector (acks, timeouts, kills),
    /// lazily registered like the quiescence oracle. It guesses nothing,
    /// so its affirms and denies are always definite.
    pub(crate) injector: Option<ProcessId>,
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
}

impl Shared {
    /// Lock the shared state, recovering it if the mutex is poisoned. A
    /// process body may panic while holding the guard (a `Ctx` assert such
    /// as `checkpoint` without `restore`, a replay divergence); that panic
    /// is caught and reported as *that process's* crash, and everyone else
    /// keeps running on the state as the panicking primitive left it.
    pub(crate) fn lock(shared: &Mutex<Shared>) -> MutexGuard<'_, Shared> {
        shared.lock().unwrap_or_else(PoisonError::into_inner)
    }

    pub(crate) fn new(config: SimConfig) -> Self {
        let net_rng = SimRng::new(config.seed).fork(u64::MAX);
        let fault_seed = config.faults.as_ref().map_or(config.seed, |p| p.seed());
        let fault_rng = SimRng::new(fault_seed).fork(0xFA17);
        let mut engine = Engine::new();
        engine.set_invariant_checking(config.check_engine_invariants);
        let race_detector = config.detect_races.then(RaceDetector::new);
        let governor = config.governor.clone().map(Governor::new);
        Shared {
            engine,
            procs: Vec::new(),
            queue: EventQueue::new(),
            now: VirtualTime::ZERO,
            config,
            net_rng,
            link_last: HashMap::new(),
            next_msg_id: 0,
            next_mail_seq: 0,
            pending_output: BTreeMap::new(),
            outputs: Vec::new(),
            stats: RunStats::default(),
            trace_log: Vec::new(),
            oracle: None,
            observer: ObserverSlot(None),
            race_detector,
            fault_rng,
            injector: None,
            seen_reliable: HashSet::new(),
            fault_denied: BTreeSet::new(),
            pending_system: 0,
            sched_oracle: SchedOracleSlot(None),
            governor,
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

    /// Report one executed action to the race detector (if configured) and
    /// the installed observer, if any.
    pub(crate) fn observe(&mut self, pid: ProcessId, action: &Action, effects: &[Effect]) {
        if let Some(det) = self.race_detector.as_mut() {
            RuntimeObserver::observe(det, pid, action, effects);
        }
        if let Some(f) = self.observer.0.as_mut() {
            f(pid, action, effects);
        }
    }

    /// The quiescence commit oracle (see
    /// [`SimConfig::commit_at_quiescence`](crate::SimConfig)): a definite
    /// engine-level process that affirms every still-open assumption.
    /// Returns `true` if anything was decided (the caller keeps running so
    /// the cascades — finalizations, IHD denies, rollbacks — settle).
    pub(crate) fn quiescence_commit(&mut self) -> bool {
        let oracle = *self
            .oracle
            .get_or_insert_with(|| self.engine.register_process());
        let open = self.engine.open_aids();
        if open.is_empty() {
            return false;
        }
        self.trace(|| {
            format!(
                "quiescence oracle affirms {} open assumption(s)",
                open.len()
            )
        });
        let mut any = false;
        for x in open {
            match self.engine.affirm(oracle, x) {
                Ok(fx) => {
                    any = true;
                    // The oracle is never a rollback victim: it guesses
                    // nothing. usize::MAX can match no process index.
                    let rolled = self.apply_effects(usize::MAX, &fx);
                    debug_assert!(!rolled);
                }
                // A cascade from an earlier affirm (an IHD deny) may have
                // consumed it in the meantime.
                Err(hope_core::Error::AidConsumed(_)) => {}
                Err(e) => unreachable!("oracle affirm cannot fail otherwise: {e}"),
            }
        }
        any
    }

    /// The fault injector's engine process id (registered on first use).
    /// Like the oracle it guesses nothing, so its decisions are definite
    /// and it can never be a rollback victim.
    pub(crate) fn injector(&mut self) -> ProcessId {
        *self
            .injector
            .get_or_insert_with(|| self.engine.register_process())
    }

    /// Place `msg` into its destination mailbox (reliable messages are
    /// deduplicated and acked first); returns the destination index if it
    /// was blocked on `recv` and should be resumed.
    pub(crate) fn handle_delivery(&mut self, msg: Message) -> Option<usize> {
        let p = self.idx_of(msg.to);
        if matches!(self.procs[p].state, ProcState::Crashed | ProcState::Down) {
            if self.config.faults.is_some() {
                self.stats.faults.lost_to_down += 1;
                let (id, to) = (msg.id, msg.to);
                self.trace(|| format!("FAULT m{id} lost: {to} is down"));
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
                let (id, from, to) = (msg.id, msg.from, msg.to);
                self.trace(|| format!("dedup: reliable m{id} {from} -> {to} suppressed"));
                return None;
            }
        }
        self.stats.messages_delivered += 1;
        let (id, from, to) = (msg.id, msg.from, msg.to);
        self.trace(|| format!("deliver m{id} {from} -> {to}"));
        self.procs[p].mailbox.insert(msg.mail_key(), msg);
        (self.procs[p].state == ProcState::BlockedRecv).then_some(p)
    }

    /// Schedule the delivery ack for a reliable message: an engine-level
    /// affirm of the sender's "delivered" assumption, travelling the
    /// reverse link (and subject to its faults — minus duplication, which
    /// is harmless for an idempotent affirm and therefore not modelled).
    fn schedule_ack(&mut self, msg: &Message, aid: AidId) {
        let (src, dst) = (msg.to, msg.from);
        let verdict = match &self.config.faults {
            Some(plan) => plan.verdict(src.0, dst.0, self.now, &mut self.fault_rng),
            None => LinkVerdict::Deliver {
                extra_delay: VirtualDuration::ZERO,
                duplicate: false,
            },
        };
        let extra = match verdict {
            LinkVerdict::Drop => {
                self.stats.faults.ack_drops += 1;
                let id = msg.id;
                self.trace(|| format!("FAULT ack for m{id} dropped"));
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

    /// An ack arrived: affirm the "delivered" assumption if still open.
    pub(crate) fn ack_fire(&mut self, aid: AidId) {
        if self.engine.aid_state(aid).ok() != Some(AidState::Undecided) {
            return;
        }
        let injector = self.injector();
        match self.engine.affirm(injector, aid) {
            Ok(fx) => {
                self.trace(|| format!("ack: delivered({aid}) affirmed"));
                let rolled = self.apply_effects(usize::MAX, &fx);
                debug_assert!(!rolled);
            }
            Err(hope_core::Error::AidConsumed(_)) => {}
            Err(e) => unreachable!("injector affirm cannot fail otherwise: {e}"),
        }
    }

    /// A reliable send's retransmission deadline passed with the
    /// "delivered" assumption still open: deny it, rolling the sender back
    /// into its retry loop.
    pub(crate) fn timeout_fire(&mut self, aid: AidId) {
        if self.engine.aid_state(aid).ok() != Some(AidState::Undecided) {
            return;
        }
        let injector = self.injector();
        match self.engine.deny(injector, aid) {
            Ok(fx) => {
                self.stats.faults.timeout_denies += 1;
                self.fault_denied.insert(aid);
                self.trace(|| format!("FAULT timeout: delivered({aid}) denied"));
                let rolled = self.apply_effects(usize::MAX, &fx);
                debug_assert!(!rolled);
            }
            // A speculative affirm consumed it; its fate now rides on the
            // affirmer's own assumptions, which is strictly better informed
            // than a timeout.
            Err(hope_core::Error::AidConsumed(_)) => {}
            Err(e) => unreachable!("injector deny cannot fail otherwise: {e}"),
        }
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
        self.trace(|| format!("FAULT kill {pid} (restart after {restart_after:?})"));
        // The victim's created AIDs in journal order (the mirror survives
        // journal-prefix truncation; collection already dropped decided
        // ones, which the loop below would skip anyway).
        let own: Vec<AidId> = self.procs[victim]
            .own_aids
            .iter()
            .map(|&(_, a)| a)
            .collect();
        let injector = self.injector();
        for aid in own {
            if self.engine.aid_state(aid).ok() != Some(AidState::Undecided) {
                continue;
            }
            match self.engine.deny(injector, aid) {
                Ok(fx) => {
                    self.stats.faults.crash_denies += 1;
                    self.fault_denied.insert(aid);
                    let rolled = self.apply_effects(usize::MAX, &fx);
                    debug_assert!(!rolled);
                }
                Err(hope_core::Error::AidConsumed(_)) => {}
                Err(e) => unreachable!("injector deny cannot fail otherwise: {e}"),
            }
        }
        // Freeze the victim. The epoch bump invalidates any wake the deny
        // cascade just scheduled for it; a fully-definite victim suffers
        // pure downtime (its journal doubles as a stable log).
        self.procs[victim].wake_epoch += 1;
        match restart_after {
            Some(delay) => {
                self.procs[victim].state = ProcState::Down;
                let at = self.now + delay;
                self.pending_system += 1;
                self.queue.push(at, EventKind::Restart { proc: victim });
            }
            None => {
                self.procs[victim].state = ProcState::Crashed;
                self.procs[victim].crash = Some(CrashReason::FaultKill);
            }
        }
    }

    /// Bring a killed process back up: crash-restart recovery. If the
    /// kill's denies rolled it back, the body restarts like any rollback
    /// victim — replaying its surviving journal from the newest snapshot
    /// (free and deterministic); a fully definite victim just resumes.
    pub(crate) fn restart_fire(&mut self, proc: usize) {
        if self.procs[proc].state != ProcState::Down {
            return;
        }
        self.stats.faults.restarts += 1;
        let pid = self.procs[proc].pid;
        self.trace(|| format!("FAULT restart {pid}: recovering from journal prefix"));
        self.procs[proc].state = ProcState::Holding;
        let now = self.now;
        self.schedule_wake(proc, now);
    }

    /// One fossil-collection sweep (see
    /// [`SimConfig::fossil_collection`](crate::SimConfig)): reclaim every
    /// engine record at or below the commit horizon, truncate each
    /// restorable process's journal prefix back to its newest snapshot at
    /// or below its speculative frontier, and prune the per-process
    /// bookkeeping that mirrors the journal. Transparent by construction —
    /// committed outputs, rollbacks and fault statistics are bit-identical
    /// with collection on or off (the chaos and differential suites assert
    /// it) — so *when* the scheduler calls this can never change a run's
    /// outcome, only its memory footprint.
    pub(crate) fn fossil_sweep(&mut self) {
        let sweep = self.engine.collect_fossils();
        if sweep.intervals > 0 || sweep.aids > 0 {
            self.trace(|| {
                format!(
                    "fossil sweep: {} interval(s) and {} aid(s) reclaimed \
                     (horizon A{}/X{})",
                    sweep.intervals, sweep.aids, sweep.interval_horizon, sweep.aid_horizon
                )
            });
        }
        for p in 0..self.procs.len() {
            // A kill only denies *undecided* AIDs, so decided ones can
            // leave the mirror; this is what keeps it bounded on long runs.
            let mut own = std::mem::take(&mut self.procs[p].own_aids);
            own.retain(|&(_, a)| self.engine.aid_state(a).ok() == Some(AidState::Undecided));
            self.procs[p].own_aids = own;

            if !self.procs[p].restorable || self.procs[p].snapshots.is_empty() {
                continue; // no resume entry point: keep the whole journal
            }
            // The farthest back any rollback can rewind this process; a
            // fully definite history frees the whole journal for
            // truncation (up to its newest snapshot).
            let pid = self.procs[p].pid;
            let frontier = self
                .engine
                .speculative_frontier(pid)
                .expect("process is registered");
            let safe = frontier.map_or(self.procs[p].journal.len(), |c| c.0 as usize);
            let target = self.procs[p].snapshots.iter().rev().find(|&&s| s <= safe);
            if let Some(&t) = target {
                let n = self.procs[p].journal.truncate_prefix(t);
                if n > 0 {
                    // The snapshot at `t` is the new base entry; older
                    // snapshot positions now point into reclaimed space.
                    self.procs[p].snapshots.retain(|&s| s >= t);
                    self.trace(|| {
                        format!("{pid}: journal prefix reclaimed ({n} entries, base now {t})")
                    });
                }
            }
        }
    }

    /// Append a trace line (no-op unless tracing is configured).
    pub(crate) fn trace(&mut self, line: impl FnOnce() -> String) {
        if self.config.trace {
            let entry = format!("[{}] {}", self.now, line());
            self.trace_log.push(entry);
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
        // The fault plan rules on every send; a plan-free run always
        // delivers cleanly. Note the verdict draws from `fault_rng`, not
        // `net_rng`, so injecting faults never perturbs latency sampling.
        let verdict = match &self.config.faults {
            Some(plan) => plan.verdict(from_pid.0, to.0, self.now, &mut self.fault_rng),
            None => LinkVerdict::Deliver {
                extra_delay: VirtualDuration::ZERO,
                duplicate: false,
            },
        };
        let latency = self
            .config
            .topology
            .sample(from_pid.0, to.0, &mut self.net_rng)
            + self.config.tracking_overhead;
        let (extra_delay, duplicate) = match verdict {
            LinkVerdict::Drop => {
                self.stats.faults.drops += 1;
                self.trace(|| format!("FAULT drop m{id} {from_pid} -> {to}"));
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
        let mut t_d = self.now + latency + extra_delay;
        if let Some(&last) = self.link_last.get(&link) {
            if t_d < last {
                t_d = last; // per-link FIFO: never overtake
            }
        }
        self.link_last.insert(link, t_d);
        let seq = self.next_mail_seq;
        self.next_mail_seq += 1;
        let msg = Message {
            id,
            from: from_pid,
            to,
            kind,
            payload,
            tag,
            delivered_at: t_d,
            seq,
        };
        if duplicate {
            // The injected copy travels independently (own latency draw)
            // but still respects per-link FIFO.
            self.stats.faults.dupes += 1;
            let extra_latency = self
                .config
                .topology
                .sample(from_pid.0, to.0, &mut self.net_rng)
                + self.config.tracking_overhead;
            let mut t_dup = self.now + extra_latency + extra_delay;
            if t_dup < t_d {
                t_dup = t_d;
            }
            self.link_last.insert(link, t_dup.max(t_d));
            let dup_seq = self.next_mail_seq;
            self.next_mail_seq += 1;
            let mut dup = msg.clone();
            dup.delivered_at = t_dup;
            dup.seq = dup_seq;
            self.trace(|| format!("FAULT duplicate m{id} {from_pid} -> {to}"));
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
        // governor's online correction of the static priors).
        let mut gov_denied: Vec<(ProcessId, u32)> = Vec::new();
        let mut gov_damage: u64 = 0;
        for e in effects {
            match e {
                Effect::Finalized { interval, process } => {
                    self.trace(|| format!("{process}: interval {interval} finalized"));
                    if let Some(mut lines) = self.pending_output.remove(interval) {
                        self.stats.outputs_released += lines.len() as u64;
                        for l in &mut lines {
                            l.committed_at = self.now;
                        }
                        self.trace(|| {
                            format!("{process}: {} output line(s) committed", lines.len())
                        });
                        self.outputs.extend(lines);
                    }
                }
                Effect::RolledBack {
                    process,
                    intervals,
                    checkpoint,
                } => {
                    self.stats.rollback_events += 1;
                    let victim = self.idx_of(*process);
                    self.trace(|| {
                        format!(
                            "{process}: ROLLBACK of {} interval(s) to journal position {}",
                            intervals.len(),
                            checkpoint.0
                        )
                    });
                    // Discard speculative output of the dead intervals.
                    for a in intervals {
                        if let Some(lines) = self.pending_output.remove(a) {
                            self.stats.outputs_discarded += lines.len() as u64;
                        }
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
                            self.procs[victim].mailbox.insert(msg.mail_key(), *msg);
                        }
                    }
                    // Keep the journal mirrors in step with the truncation:
                    // AidInit and Snapshot entries in the discarded suffix
                    // are gone (re-execution re-records live ones). Both
                    // mirrors ascend by position, so the cut is a suffix.
                    let v = &mut self.procs[victim];
                    v.own_aids
                        .truncate(v.own_aids.partition_point(|&(p, _)| p < pos));
                    v.snapshots
                        .truncate(v.snapshots.partition_point(|&p| p < pos));
                    self.procs[victim].finish_time = None;
                    // The pending flag is observed (and cleared) by the
                    // victim's wrapper when the re-execution begins; for the
                    // running process itself it also guards any further Ctx
                    // calls should the body swallow the Rollback signal.
                    self.procs[victim].rollback_pending = true;
                    if victim == self_idx {
                        self_rolled_back = true;
                    } else if self.procs[victim].state == ProcState::Down {
                        // A down process cannot resume yet; its pending
                        // Restart event will wake it, and the pending flag
                        // makes that re-execution a recovery replay.
                    } else {
                        let now = self.now;
                        self.schedule_wake(victim, now);
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
                self.pending_output.entry(interval).or_default().push(out);
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
    use super::*;
    use hope_core::Checkpoint;
    use hope_sim::{Topology, VirtualDuration};

    fn shared_with_procs(n: usize) -> Shared {
        let mut s = Shared::new(SimConfig::default().with_topology(Topology::lan()));
        for i in 0..n {
            let pid = s.engine.register_process();
            s.procs.push(ProcShared {
                pid,
                name: format!("p{i}"),
                state: ProcState::Holding,
                mailbox: Mailbox::new(),
                journal: Journal::default(),
                rollback_pending: false,
                wake_epoch: 0,
                rng: SimRng::new(i as u64),
                finish_time: None,
                crash: None,
                next_reliable: 0,
                own_aids: Vec::new(),
                snapshots: Vec::new(),
                restorable: false,
            });
        }
        s
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
        let msg = Message {
            id: 9,
            from: ProcessId(1),
            to: pid0,
            kind: MsgKind::Plain,
            payload: Value::Unit,
            tag: hope_core::Tag::new(),
            delivered_at: VirtualTime::from_nanos(5),
            seq: 3,
        };
        s.procs[0].journal.push(Entry::Recv(Box::new(msg)));
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

    #[test]
    fn faulty_send_can_drop_and_duplicate() {
        use hope_sim::FaultPlan;
        let mut s = Shared::new(
            SimConfig::default()
                .with_topology(Topology::lan())
                .with_faults(FaultPlan::new(12).drop_rate(0.5).dupe_rate(0.5)),
        );
        for i in 0..2 {
            let pid = s.engine.register_process();
            s.procs.push(ProcShared {
                pid,
                name: format!("p{i}"),
                state: ProcState::Holding,
                mailbox: Mailbox::new(),
                journal: Journal::default(),
                rollback_pending: false,
                wake_epoch: 0,
                rng: SimRng::new(i as u64),
                finish_time: None,
                crash: None,
                next_reliable: 0,
                own_aids: Vec::new(),
                snapshots: Vec::new(),
                restorable: false,
            });
        }
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
        use hope_sim::FaultPlan;
        let mut s = Shared::new(SimConfig::default().with_faults(FaultPlan::new(0)));
        for i in 0..2 {
            let pid = s.engine.register_process();
            s.procs.push(ProcShared {
                pid,
                name: format!("p{i}"),
                state: ProcState::Holding,
                mailbox: Mailbox::new(),
                journal: Journal::default(),
                rollback_pending: false,
                wake_epoch: 0,
                rng: SimRng::new(i as u64),
                finish_time: None,
                crash: None,
                next_reliable: 0,
                own_aids: Vec::new(),
                snapshots: Vec::new(),
                restorable: false,
            });
        }
        s.procs[1].state = ProcState::Down;
        let msg = Message {
            id: 1,
            from: ProcessId(0),
            to: ProcessId(1),
            kind: MsgKind::Plain,
            payload: Value::Unit,
            tag: hope_core::Tag::new(),
            delivered_at: VirtualTime::from_nanos(5),
            seq: 0,
        };
        assert_eq!(s.handle_delivery(msg), None);
        assert_eq!(s.stats.faults.lost_to_down, 1);
        assert!(s.procs[1].mailbox.is_empty());
        assert_eq!(s.stats.messages_delivered, 0);
    }

    #[test]
    fn reliable_duplicates_are_suppressed_but_acked() {
        let mut s = shared_with_procs(2);
        let aid = s.engine.aid_init(s.procs[0].pid);
        let mk = |seq: u64, id: u64| Message {
            id,
            from: ProcessId(0),
            to: ProcessId(1),
            kind: MsgKind::Reliable { seq, aid },
            payload: Value::Unit,
            tag: hope_core::Tag::new(),
            delivered_at: VirtualTime::from_nanos(5),
            seq: id,
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
        s.procs[0].own_aids.push((0, own));
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
        assert_eq!(
            s.engine.aid_state(own).unwrap(),
            hope_core::AidState::Denied
        );
        // The queue holds the Restart event (any wakes are stale-epoch).
        let restart = std::iter::from_fn(|| s.queue.pop())
            .find(|(_, e)| matches!(e, EventKind::Restart { .. }))
            .expect("restart scheduled");
        assert_eq!(
            restart.0,
            VirtualTime::ZERO + VirtualDuration::from_millis(3)
        );
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
        s.ack_fire(a);
        assert_eq!(
            s.engine.aid_state(a).unwrap(),
            hope_core::AidState::Affirmed
        );
        // A later timeout for the same aid is a no-op.
        s.timeout_fire(a);
        assert_eq!(s.stats.faults.timeout_denies, 0);
        s.timeout_fire(b);
        assert_eq!(s.engine.aid_state(b).unwrap(), hope_core::AidState::Denied);
        assert_eq!(s.stats.faults.timeout_denies, 1);
        assert!(s.fault_denied.contains(&b));
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
}
