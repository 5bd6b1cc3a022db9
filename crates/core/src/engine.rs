//! The semantics engine: an executable transcription of §5 of the paper.
//!
//! The [`Engine`] owns every assumption identifier, interval and per-process
//! interval history, and implements the five transitions of §5 —
//! [`guess`](Engine::guess) (§5.1), [`affirm`](Engine::affirm) (§5.2),
//! [`deny`](Engine::deny) (§5.3), [`free_of`](Engine::free_of) (§5.4) — with
//! *finalize* (§5.5) and *rollback* (§5.6) occurring internally as cascades.
//! Each public operation returns the ordered [`Effect`] list the transition
//! produced; embedding runtimes act on those effects (restore checkpoints,
//! commit output, drop ghost messages).
//!
//! ## Storage
//!
//! §5 treats AID and interval state as global control variables, and so
//! does the engine: one [`Store`] of live AID records and one of live
//! interval records, each record at its id, and one process table indexed
//! by pid. Ids are dense and never reused. A record is written once and
//! never moved, and [`collect_fossils`](Engine::collect_fossils) frees the
//! chunks below the commit horizon. A transition's cascade runs in a
//! worklist the engine keeps and fills an effect list the engine lends
//! out; [`recycle`](Engine::recycle) takes it back.
//!
//! The dependence relation of Lemma 5.1 (`X ∈ A.IDO ⟺ A ∈ X.DOM`) is
//! stored **chain-compressed**, once per process instead of once per edge.
//! A process's speculative intervals form a chain — the suffix of its
//! history from `first_spec` on — along which `IDO` only grows, so
//!
//! * an interval record keeps only the AIDs that *entered* its process's
//!   dependence at that interval (`Interval::ido`): `A.IDO` is the union
//!   of those sets from the start of the chain up to `A`;
//! * an AID record keeps only its *heads* (`Aid::dom`): for each dependent
//!   process the first interval that depends on it — the one whose stored
//!   set holds the AID. `X.DOM` is every interval from each head to the
//!   end of that head's history;
//! * the process record keeps the current interval's full `IDO`
//!   (`Proc::ido`), which is what `guess` inherits, what
//!   [`dependence_tag`](Engine::dependence_tag) ships, and what `free_of`
//!   and `deny` test membership in.
//!
//! A guess therefore registers only the AIDs its process did not already
//! depend on; a definite affirm removes the AID at its heads and finalizes
//! from the front of each chain while the stored sets there are empty; a
//! speculative affirm rewrites one stored set per dependent process; a
//! rollback withdraws only what entered at the discarded intervals. None
//! of them walks a full `IDO` or a full `DOM`. The read-only views
//! ([`IntervalView::ido`], [`AidView::dom`]) read the full sets off the
//! chains on demand.
//!
//! A receive costs what is unsettled, too. A tag name the receiver holds
//! stands for itself (every member of `Proc::ido` has a head, so its record
//! is live, undecided and not dissolved: invariants 1–2 of
//! [`verify_invariants`](Engine::verify_invariants)), and one definitively
//! affirmed stands for nothing — the engine keeps a bit per live affirmed
//! AID (invariant 3). Neither is looked up: a spilled tag's words are masked
//! with a spilled `ido`, else with the bitmap. `guessed` is `tag ∩ ido` plus
//! what the rest resolved to, and what enters the chain is `guessed \ ido`,
//! taken as `ido` absorbs `guessed`.
//!
//! ## Fidelity notes
//!
//! * **DOM membership for inherited dependencies.** Equation 4 only shows
//!   the *guessed* AID gaining the new interval in its `DOM` set, but
//!   Lemma 5.1 asserts `X ∈ A.IDO ⟺ A ∈ X.DOM` for *all* `X`, and the
//!   finalize cascade (Equations 7–9) discharges dependence by walking `DOM`
//!   sets. The new interval therefore belongs to the `DOM` of every member
//!   of its `IDO` — inherited members included — which is the only reading
//!   under which Lemma 5.1 and Theorem 6.2 hold.
//! * **The stored relation is the chain-compressed form of Lemma 5.1, and
//!   it is exact.** Theorem 5.1's induction invariant says that along one
//!   process's history every interval's `IDO` contains its predecessor's
//!   (a guess inherits, Eq. 4–5; a definite affirm removes an AID from all
//!   of them, Eq. 7–9; a speculative affirm rewrites a whole suffix alike,
//!   Eq. 10–14), and rollback only ever discards a history suffix. So "the
//!   intervals of process `P` that depend on `X`" is always a suffix of
//!   `P`'s history, fixed by where it starts, and `A.IDO` is fixed by
//!   which AIDs' suffixes have started by `A`. Storing each start once is
//!   the same relation, and both Lemma 5.1 and the prefix-subset invariant
//!   hold by construction rather than by upkeep. The literal edge-by-edge
//!   reading is `RefEngine` in `tests/differential_depset.rs`, which drives
//!   it in lockstep with this engine.
//! * **`free_of` inspects `IDO`.** §5.4's prose says `A.DOM`; intervals have
//!   no `DOM` set, and Theorem 6.3's proof reads `X ∈ A.IDO`. We use `IDO`.
//! * **Rollback of a speculative affirm** is a conservative definite deny of
//!   the affirmed AID (§5.6, footnote 2).
//! * **One-shot AIDs.** A second `affirm`/`deny`/`free_of` on the same AID
//!   is "a user error, and the meaning is undefined" (§5.2). Here it is a
//!   defined error: [`Error::AidConsumed`].
//! * **Guessing a speculatively affirmed AID resolves to its affirmer's
//!   dependence set.** Equations 10–14 dissolve dependence on the AID
//!   permanently; if a later guess naively re-added the AID to an `IDO`
//!   set, Theorem 6.3's proof would break (the asserting interval could
//!   become dependent on a freed AID again) and mutual speculative
//!   affirms could form unresolvable cycles. Under the resolution rule
//!   both pathologies vanish — verified mechanically in
//!   `tests/theorems.rs`. (Mutual speculative *denies* can still
//!   livelock; the test suite documents that as a finding.)

use std::borrow::Cow;
use std::collections::{BTreeSet, VecDeque};

use crate::aid::{Aid, AidState, AidView};
use crate::depset::{bit, DepSet};
use crate::effect::{Effect, GuessOutcome};
use crate::error::{Error, Result};
use crate::ids::{AidId, IntervalId, ProcessId};
use crate::interval::{Checkpoint, Interval, IntervalStatus, IntervalView};
use crate::store::Store;
use crate::tag::{ReceiveOutcome, Tag};

/// Counters describing an engine's activity, for benchmarks and tests.
///
/// All fields are cumulative since engine creation.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
#[non_exhaustive]
pub struct EngineStats {
    /// `guess` calls that began speculation.
    pub guesses: u64,
    /// `guess` calls answered `AlreadyFalse`.
    pub failed_guesses: u64,
    /// Intervals finalized (made definite).
    pub finalized: u64,
    /// Intervals discarded by rollback.
    pub rolled_back_intervals: u64,
    /// Rollback events (history truncations; one may discard many intervals).
    pub rollback_events: u64,
    /// Definite affirms (including promotions of speculative affirms and the
    /// affirm half of `free_of`).
    pub definite_affirms: u64,
    /// Speculative affirms recorded.
    pub speculative_affirms: u64,
    /// Definite denies (including promotions from `IHD` and footnote-2
    /// conservative denies).
    pub definite_denies: u64,
    /// Speculative denies recorded into `IHD` sets.
    pub speculative_denies: u64,
    /// `free_of` calls.
    pub free_ofs: u64,
    /// Ghost messages detected by [`Engine::implicit_guess`].
    pub ghosts: u64,
    /// Intervals reclaimed by [`Engine::collect_fossils`].
    pub fossil_intervals: u64,
    /// AIDs reclaimed by [`Engine::collect_fossils`].
    pub fossil_aids: u64,
}

/// What one [`Engine::collect_fossils`] sweep reclaimed, and where the
/// commit horizon now stands.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct FossilSweep {
    /// Intervals reclaimed by this sweep.
    pub intervals: u64,
    /// AIDs reclaimed by this sweep.
    pub aids: u64,
    /// The interval commit horizon after the sweep: every interval with a
    /// smaller id is finalized (or was rolled back) on every process and
    /// its storage has been reclaimed.
    pub interval_horizon: u64,
    /// The AID commit horizon after the sweep: every AID with a smaller id
    /// is definitively decided and its storage has been reclaimed.
    pub aid_horizon: u64,
}

/// Internal cascade work items.
#[derive(Debug, Clone, Copy)]
enum Task {
    Finalize(IntervalId),
    Rollback(IntervalId),
}

/// Per-process interval bookkeeping (the paper's per-process history).
#[derive(Debug, Default)]
struct Proc {
    /// Live intervals, chronological. Rollback truncates a suffix; fossil
    /// collection truncates a definite prefix.
    history: Vec<IntervalId>,
    /// Position in `history` of the first speculative interval
    /// (`history.len()` if there is none): the definite prefix ends and the
    /// dependence chain starts here.
    first_spec: usize,
    /// The current interval's full `IDO` — the union of the chain's stored
    /// sets, kept incrementally. Empty iff the process is definite.
    ido: DepSet<AidId>,
    /// Total intervals ever discarded from this process (for stats/tests).
    discarded: u64,
    /// Definite intervals reclaimed from the front of `history` by fossil
    /// collection. Added to `history.len()` wherever a position in the
    /// *full* live history is needed (interval `seq` numbers), so a
    /// collecting engine assigns exactly the values an uncollected twin
    /// would.
    collected: u64,
}

/// The HOPE semantics engine. See the module-level documentation above.
///
/// # Examples
///
/// The simplest full cycle — guess, then deny, observing the rollback:
///
/// ```
/// use hope_core::{Engine, Effect, GuessOutcome, Checkpoint};
///
/// let mut engine = Engine::new();
/// let p = engine.register_process();
/// let x = engine.aid_init(p);
///
/// let (outcome, _) = engine.guess(p, &[x], Checkpoint(0))?;
/// assert!(outcome.value()); // guess speculatively returns true
///
/// let effects = engine.deny(p, x)?; // our own assumption: definite deny
/// assert!(effects.iter().any(|e| e.is_rollback()));
///
/// // Re-executing the guess now observes the definite answer:
/// let (outcome, _) = engine.guess(p, &[x], Checkpoint(0))?;
/// assert!(!outcome.value());
/// # Ok::<(), hope_core::Error>(())
/// ```
#[derive(Debug)]
pub struct Engine {
    /// Live AID records, each at its id. Ids below `aids.start()` were
    /// reclaimed by fossil collection (ids are never reused; "recycling"
    /// reclaims storage, not numbers — in-flight tags would otherwise
    /// alias).
    aids: Store<Aid>,
    /// Reclaimed AIDs that were *denied*: a late `guess` or inbound tag
    /// naming one must still answer `AlreadyFalse`/ghost exactly as an
    /// uncollected engine would. Reclaimed AIDs absent from this set were
    /// affirmed. Affirm-heavy workloads keep this near-empty; it is the
    /// only per-fossil state retained.
    fossil_denied: BTreeSet<AidId>,
    /// A bit per live, definitively affirmed AID (set once: decisions are
    /// final); word `i` holds ids from `64 * (affirmed_from + i)` on.
    /// Fossils lose theirs, and answer from `fossil_denied` instead.
    affirmed: Vec<u64>,
    affirmed_from: usize,
    /// Live interval records in id order, like `aids`.
    intervals: Store<Interval>,
    /// Process records, indexed by pid (pids are dense).
    procs: Vec<Proc>,
    /// The cascade worklist, empty between transitions, and the list the
    /// next transition fills and returns ([`recycle`](Engine::recycle)
    /// hands one back): both keep their buffers across transitions.
    worklist: VecDeque<Task>,
    spare: Vec<Effect>,
    stats: EngineStats,
    check_invariants: bool,
}

/// Where an id lands relative to the commit horizon.
enum Slot {
    /// Alive in the store.
    Live,
    /// Below the horizon: reclaimed by fossil collection.
    Fossil,
    /// Never allocated by this engine.
    Unknown,
}

impl Slot {
    /// Where `id` lands in the store holding records at their ids.
    fn of<T>(id: u64, store: &Store<T>) -> Slot {
        if id < store.start() as u64 {
            Slot::Fossil
        } else if id < store.end() as u64 {
            Slot::Live
        } else {
            Slot::Unknown
        }
    }
}

impl Clone for Proc {
    fn clone(&self) -> Self {
        let mut proc = Proc::default();
        proc.clone_from(self);
        proc
    }

    fn clone_from(&mut self, source: &Self) {
        let Proc {
            history,
            first_spec,
            ido,
            discarded,
            collected,
        } = self;
        history.clone_from(&source.history);
        *first_spec = source.first_spec;
        ido.clone_from(&source.ido);
        *discarded = source.discarded;
        *collected = source.collected;
    }
}

/// A clone holds every record and counter of its original. The worklist
/// and the spare effect list are scratch, empty between transitions, so a
/// clone starts without them and [`Clone::clone_from`] keeps the
/// destination's; every other field is copied into the buffers the
/// destination already holds.
impl Clone for Engine {
    fn clone(&self) -> Self {
        let mut engine = Engine::new();
        engine.clone_from(self);
        engine
    }

    fn clone_from(&mut self, source: &Self) {
        let Engine {
            aids,
            fossil_denied,
            affirmed,
            affirmed_from,
            intervals,
            procs,
            worklist,
            spare: _,
            stats,
            check_invariants,
        } = self;
        debug_assert!(worklist.is_empty() && source.worklist.is_empty());
        aids.clone_from(&source.aids);
        fossil_denied.clone_from(&source.fossil_denied);
        affirmed.clone_from(&source.affirmed);
        *affirmed_from = source.affirmed_from;
        intervals.clone_from(&source.intervals);
        procs.clone_from(&source.procs);
        *stats = source.stats;
        *check_invariants = source.check_invariants;
    }
}

impl Default for Engine {
    fn default() -> Self {
        Engine::new()
    }
}

impl Engine {
    /// Create an empty engine. Invariant checking
    /// ([`verify_invariants`](Engine::verify_invariants) after every
    /// transition) is on in debug builds and off in release builds by
    /// default.
    pub fn new() -> Self {
        Engine {
            aids: Store::new(),
            fossil_denied: BTreeSet::new(),
            affirmed: Vec::new(),
            affirmed_from: 0,
            intervals: Store::new(),
            procs: Vec::new(),
            worklist: VecDeque::new(),
            spare: Vec::new(),
            stats: EngineStats::default(),
            check_invariants: cfg!(debug_assertions),
        }
    }

    // ------------------------------------------------------------------
    // live-store addressing (ids below the commit horizon are fossils)
    // ------------------------------------------------------------------

    /// Live AID record. Panics on fossils/unknowns: internal callers only
    /// ever hold references to live AIDs (IDO members are undecided, DOM
    /// owners likewise).
    fn aid_ref(&self, x: AidId) -> &Aid {
        &self.aids[x.0 as usize]
    }

    fn aid_mut(&mut self, x: AidId) -> &mut Aid {
        &mut self.aids[x.0 as usize]
    }

    /// Live interval record. Panics on fossils/unknowns: internal callers
    /// only reach intervals above the horizon (DOM members are
    /// speculative, histories are truncated at collection time).
    fn itv_ref(&self, a: IntervalId) -> &Interval {
        &self.intervals[a.0 as usize]
    }

    fn itv_mut(&mut self, a: IntervalId) -> &mut Interval {
        &mut self.intervals[a.0 as usize]
    }

    fn proc_ref(&self, pid: ProcessId) -> Option<&Proc> {
        self.procs.get(pid.0 as usize)
    }

    /// Decision state of a reclaimed AID — exactly what an uncollected
    /// engine would report (fossils are decided by construction).
    fn fossil_aid_state(&self, x: AidId) -> AidState {
        if self.fossil_denied.contains(&x) {
            AidState::Denied
        } else {
            AidState::Affirmed
        }
    }

    /// Enable or disable per-transition invariant checking.
    ///
    /// Checking is linear in the live records (intervals, AIDs and stored
    /// dependence) per transition; benchmarks turn it off, the
    /// property-test suite turns it on.
    pub fn set_invariant_checking(&mut self, on: bool) {
        self.check_invariants = on;
    }

    /// Register a new process and return its id.
    pub fn register_process(&mut self) -> ProcessId {
        let pid = ProcessId(self.procs.len() as u32);
        self.procs.push(Proc::default());
        pid
    }

    /// Create a fresh assumption identifier (the paper's `aid_init`, §3).
    ///
    /// `creator` is recorded for traces only; *any* process may subsequently
    /// apply primitives to the AID (§4: "Any process in the system can apply
    /// HOPE primitives to any assumption identifier").
    pub fn aid_init(&mut self, creator: ProcessId) -> AidId {
        let id = AidId(self.aids.end() as u64);
        self.aids.push(Aid::new(id, creator));
        id
    }

    /// Number of AIDs created so far, including reclaimed fossils.
    pub fn aid_count(&self) -> usize {
        self.aids.end()
    }

    /// Number of intervals created so far (live, definite, rolled back and
    /// reclaimed fossils).
    pub fn interval_count(&self) -> usize {
        self.intervals.end()
    }

    /// Number of AIDs currently held in live storage (above the commit
    /// horizon). This — not [`aid_count`](Engine::aid_count) — is what
    /// bounds memory on a long run with fossil collection.
    pub fn live_aid_count(&self) -> usize {
        self.aids.len()
    }

    /// Number of intervals currently held in live storage (above the
    /// commit horizon).
    pub fn live_interval_count(&self) -> usize {
        self.intervals.len()
    }

    /// The interval commit horizon: every interval with a smaller id is
    /// decided (finalized or rolled back) on every process and has been
    /// reclaimed. `0` until the first sweep reclaims something.
    pub fn interval_horizon(&self) -> u64 {
        self.intervals.start() as u64
    }

    /// The AID commit horizon: every AID with a smaller id is definitively
    /// decided and has been reclaimed.
    pub fn aid_horizon(&self) -> u64 {
        self.aids.start() as u64
    }

    /// Number of reclaimed AIDs retained as *denied* markers (the only
    /// per-fossil state kept; see [`Engine::collect_fossils`]).
    pub fn fossil_denied_count(&self) -> usize {
        self.fossil_denied.len()
    }

    /// Cumulative activity counters.
    pub fn stats(&self) -> EngineStats {
        self.stats
    }

    /// Every AID that is still undecided **and** unconsumed — i.e. still
    /// open to a definite `affirm` or `deny`.
    ///
    /// This is the interface an *external definite observer* (a GVT-style
    /// commit oracle; see the `hope-runtime` quiescence-commit facility)
    /// uses to settle a quiesced system: by Lemma 6.3, speculative affirms
    /// never finalize anything on their own, so some environment-level
    /// agent must eventually issue definite decisions.
    pub fn open_aids(&self) -> Vec<AidId> {
        // Fossils are decided by construction, so scanning the live store
        // answers exactly what a full scan of an uncollected engine would.
        self.aids
            .iter()
            .filter(|a| a.state == AidState::Undecided && !a.consumed)
            .map(|a| a.id)
            .collect()
    }

    /// Read-only view of an AID's control state.
    ///
    /// # Errors
    ///
    /// * [`Error::UnknownAid`] if the AID was not created by this engine.
    /// * [`Error::FossilAid`] if its storage was reclaimed by
    ///   [`collect_fossils`](Engine::collect_fossils) (use
    ///   [`aid_state`](Engine::aid_state), which answers for fossils too).
    pub fn aid(&self, x: AidId) -> Result<AidView<'_>> {
        match Slot::of(x.0, &self.aids) {
            Slot::Live => Ok(AidView {
                engine: self,
                inner: self.aid_ref(x),
            }),
            Slot::Fossil => Err(Error::FossilAid(x)),
            Slot::Unknown => Err(Error::UnknownAid(x)),
        }
    }

    /// Decision state of an AID. Unlike the [`aid`](Engine::aid) view this
    /// answers for reclaimed fossils too (they are decided by
    /// construction), so late referers observe exactly what an uncollected
    /// engine would report.
    ///
    /// # Errors
    ///
    /// [`Error::UnknownAid`] if the AID was not created by this engine.
    pub fn aid_state(&self, x: AidId) -> Result<AidState> {
        match Slot::of(x.0, &self.aids) {
            Slot::Live => Ok(self.aid_ref(x).state),
            Slot::Fossil => Ok(self.fossil_aid_state(x)),
            Slot::Unknown => Err(Error::UnknownAid(x)),
        }
    }

    /// Read-only view of an interval's control variables.
    ///
    /// # Errors
    ///
    /// * [`Error::UnknownInterval`] if the id does not exist.
    /// * [`Error::FossilInterval`] if its storage was reclaimed by
    ///   [`collect_fossils`](Engine::collect_fossils).
    pub fn interval(&self, a: IntervalId) -> Result<IntervalView<'_>> {
        match Slot::of(a.0, &self.intervals) {
            Slot::Live => Ok(IntervalView {
                engine: self,
                inner: self.itv_ref(a),
            }),
            Slot::Fossil => Err(Error::FossilInterval(a)),
            Slot::Unknown => Err(Error::UnknownInterval(a)),
        }
    }

    /// The live interval history of a process (definite prefix followed by
    /// speculative suffix), earliest first. Fossil collection truncates the
    /// definite prefix, so after a sweep only intervals above the commit
    /// horizon appear here.
    ///
    /// # Errors
    ///
    /// [`Error::UnknownProcess`] if `pid` was never registered.
    pub fn history(&self, pid: ProcessId) -> Result<&[IntervalId]> {
        self.proc_ref(pid)
            .map(|p| p.history.as_slice())
            .ok_or(Error::UnknownProcess(pid))
    }

    /// The checkpoint of `pid`'s earliest **speculative** interval — the
    /// farthest back a rollback could ever rewind this process — or `None`
    /// if its history is fully definite (no rollback can touch it at all).
    ///
    /// This is the per-process ingredient a substrate needs to reclaim its
    /// *own* checkpoint storage in step with
    /// [`collect_fossils`](Engine::collect_fossils): anything older than
    /// the returned checkpoint (journal prefix, snapshot files, …) can
    /// never be replayed into.
    ///
    /// # Errors
    ///
    /// [`Error::UnknownProcess`] if `pid` was never registered.
    pub fn speculative_frontier(&self, pid: ProcessId) -> Result<Option<Checkpoint>> {
        let proc = self.proc_ref(pid).ok_or(Error::UnknownProcess(pid))?;
        let first = proc.history.get(proc.first_spec);
        Ok(first.map(|&a| self.itv_ref(a).ps))
    }

    /// The process's current interval if it is speculative (the paper's
    /// `S_i.I`; `None` corresponds to `S_i.I = ∅`).
    ///
    /// # Errors
    ///
    /// [`Error::UnknownProcess`] if `pid` was never registered.
    pub fn current_interval(&self, pid: ProcessId) -> Result<Option<IntervalId>> {
        let proc = self.proc_ref(pid).ok_or(Error::UnknownProcess(pid))?;
        // The speculative suffix, if there is one, runs to the end.
        Ok(proc.history[proc.first_spec..].last().copied())
    }

    /// `true` if the process is currently speculative.
    ///
    /// # Errors
    ///
    /// [`Error::UnknownProcess`] if `pid` was never registered.
    pub fn is_speculative(&self, pid: ProcessId) -> Result<bool> {
        Ok(self.current_interval(pid)?.is_some())
    }

    /// The tag to attach to a message sent by `pid` right now: the set of
    /// AIDs the sender currently depends on (§3).
    ///
    /// # Errors
    ///
    /// [`Error::UnknownProcess`] if `pid` was never registered.
    pub fn dependence_tag(&self, pid: ProcessId) -> Result<Tag> {
        let proc = self.proc_ref(pid).ok_or(Error::UnknownProcess(pid))?;
        // O(1): the sender's IDO is shared into the tag by refcount bump
        // (and is empty exactly when the sender is definite).
        Ok(Tag::from_depset(proc.ido.clone()))
    }

    // ------------------------------------------------------------------
    // guess — §5.1, Equations 1–6
    // ------------------------------------------------------------------

    /// Execute `guess` on one or more assumption identifiers.
    ///
    /// The multi-AID form exists because message receipt implicitly guesses
    /// every undecided AID in the tag at once (§3); an ordinary program
    /// guess names a single AID.
    ///
    /// Creates a new interval whose `IDO` is the current interval's `IDO`
    /// plus every named *undecided* AID (Equation 3; definitively affirmed
    /// AIDs induce no dependence). The interval joins the `DOM` of every
    /// member of its `IDO` (Equation 4, extended per the module-level
    /// fidelity note) — by extending its process's chain, so only AIDs new
    /// to the process are touched. `ps` is the checkpoint token handed
    /// back on rollback (Equation 1).
    ///
    /// If any named AID is definitively denied the guess answers
    /// [`GuessOutcome::AlreadyFalse`] — this is the `False` return of a
    /// re-executed guess after rollback (Equation 24).
    ///
    /// # Errors
    ///
    /// * [`Error::UnknownProcess`] / [`Error::UnknownAid`] for foreign ids.
    /// * [`Error::EmptyGuess`] if `aids` is empty.
    pub fn guess(
        &mut self,
        pid: ProcessId,
        aids: &[AidId],
        ps: Checkpoint,
    ) -> Result<(GuessOutcome, Vec<Effect>)> {
        if aids.is_empty() {
            return Err(Error::EmptyGuess);
        }
        self.proc_ref(pid).ok_or(Error::UnknownProcess(pid))?;
        let mut guessed = DepSet::new();
        if let Some(x) = self.resolve(aids.iter().copied(), &mut guessed)? {
            self.stats.failed_guesses += 1;
            return Ok((GuessOutcome::AlreadyFalse(x), Vec::new()));
        }
        let (id, effects) = self.guess_resolved(pid, guessed, ps);
        Ok((GuessOutcome::Begun(id), effects))
    }

    /// Interpret an inbound message tag: ghost-filter, then implicitly guess
    /// every undecided AID in the tag (§3, §7).
    ///
    /// Returns [`ReceiveOutcome::Ghost`] — and creates no dependence — if any
    /// tag AID is definitively denied; the runtime must drop the message.
    ///
    /// # Errors
    ///
    /// [`Error::UnknownProcess`] / [`Error::UnknownAid`] for foreign ids.
    pub fn implicit_guess(
        &mut self,
        pid: ProcessId,
        tag: &Tag,
        ps: Checkpoint,
    ) -> Result<(ReceiveOutcome, Vec<Effect>)> {
        let held = &self.proc_ref(pid).ok_or(Error::UnknownProcess(pid))?.ido;
        // Held names stand for themselves, affirmed ones for nothing (module
        // docs, § Storage): neither is looked up. The fossil record keeps
        // ghost filtering exact for tags that outlived a collection sweep.
        let affirmed = (self.affirmed_from, &self.affirmed[..]);
        let unsettled = tag.as_set().outside(held, affirmed);
        let mut entering = DepSet::new();
        if let Some(x) = self.resolve(unsettled, &mut entering)? {
            self.stats.ghosts += 1;
            return Ok((ReceiveOutcome::Ghost(x), Vec::new()));
        }
        let held = &self.procs[pid.0 as usize].ido;
        let guessed = if held.is_empty() {
            entering
        } else {
            let mut guessed = tag.as_set().clone();
            guessed.intersect_with(held);
            guessed.union_with(&entering);
            guessed
        };
        if guessed.is_empty() {
            // Nothing in the tag is still undecided: no dependence, no interval.
            return Ok((ReceiveOutcome::Clean, Vec::new()));
        }
        let (id, effects) = self.guess_resolved(pid, guessed, ps);
        Ok((ReceiveOutcome::Speculative(id), effects))
    }

    /// Classify the AIDs a guess names — or an inbound tag carries — in one
    /// pass. The first id this engine never allocated is an error; failing
    /// that, the first definitively denied one is returned and fails the
    /// guess; otherwise `guessed` receives the dependence the names *mean*
    /// right now: an undecided AID stands for itself, but one that was
    /// speculatively affirmed was dissolved by Equations 10–14 — depending
    /// on it means depending on its affirmer's current `IDO`. (Without
    /// this, a late guess would resurrect dependence on the AID and break
    /// Theorem 6.3's proof.) Affirmed AIDs contribute nothing, and a
    /// reclaimed AID answers from the fossil record exactly as the live
    /// record would.
    fn resolve(
        &self,
        named: impl Iterator<Item = AidId>,
        guessed: &mut DepSet<AidId>,
    ) -> Result<Option<AidId>> {
        let mut denied = None;
        for x in named {
            #[cfg(test)]
            tests::CLASSIFIED.with(|n| n.set(n.get() + 1));
            let state = match Slot::of(x.0, &self.aids) {
                Slot::Live => self.aid_ref(x).state,
                Slot::Fossil => self.fossil_aid_state(x),
                Slot::Unknown => return Err(Error::UnknownAid(x)),
            };
            match state {
                AidState::Denied => denied = denied.or(Some(x)),
                AidState::Undecided if denied.is_none() => {
                    let aid = self.aid_ref(x);
                    match aid.spec_affirmed_by {
                        Some(a) => {
                            debug_assert!(
                                aid.dom.is_empty(),
                                "a speculatively affirmed AID has no direct dependents"
                            );
                            guessed.union_with(&self.ido_of(self.itv_ref(a)));
                        }
                        None => {
                            guessed.insert(x);
                        }
                    }
                }
                AidState::Undecided | AidState::Affirmed => {}
            }
        }
        Ok(denied)
    }

    /// Open the interval of a guess whose names [`resolve`](Self::resolve)d
    /// to `guessed` (Equations 1–6), for a validated `pid`.
    fn guess_resolved(
        &mut self,
        pid: ProcessId,
        guessed: DepSet<AidId>,
        ps: Checkpoint,
    ) -> (IntervalId, Vec<Effect>) {
        let id = IntervalId(self.intervals.end() as u64);
        let p = pid.0 as usize;
        // Only what *enters* the process's dependence here is stored and
        // registered — one DOM insert per new AID. Everything inherited
        // (Eq. 4–5) is already headed by an earlier interval of this
        // history, and this interval is behind that head by construction.
        let entered = self.procs[p].ido.add_all(&guessed);
        for x in &entered {
            self.aid_mut(x).dom.insert(id);
        }
        let proc = &mut self.procs[p];
        let definite = proc.ido.is_empty();
        let seq = proc.collected as usize + proc.history.len();
        proc.history.push(id);
        self.intervals.push(Interval {
            id,
            pid,
            ps,
            ido: entered,
            ihd: None,
            iha: None,
            guessed,
            status: IntervalStatus::Speculative,
            seq,
        });

        self.stats.guesses += 1;
        let effects = self.cascade(|e, fx, wl| {
            fx.push(Effect::IntervalStarted {
                interval: id,
                process: pid,
            });
            // Every named AID was already affirmed and the process was
            // definite: the interval is definite from birth.
            if definite {
                e.do_finalize(id, fx, wl);
            }
        });
        (id, effects)
    }

    // ------------------------------------------------------------------
    // affirm — §5.2, Equations 7–14
    // ------------------------------------------------------------------

    /// Execute `affirm(x)` from process `pid`.
    ///
    /// *Definite affirm* (process not speculative, Equations 7–9): `x`
    /// becomes [`AidState::Affirmed`]; every dependent interval drops `x`
    /// from its `IDO` and finalizes if that empties it.
    ///
    /// *Speculative affirm* (process speculative, Equations 10–14):
    /// dependence on `x` is replaced by dependence on the affirming
    /// interval's `IDO`; the affirm is promoted to definite when the
    /// affirmer finalizes, and conservatively converted to a deny if the
    /// affirmer rolls back (footnote 2).
    ///
    /// # Errors
    ///
    /// * [`Error::UnknownProcess`] / [`Error::UnknownAid`] for foreign ids.
    /// * [`Error::AidConsumed`] if `x` already received an
    ///   `affirm`/`deny`/`free_of` (§5.2's one-shot rule).
    pub fn affirm(&mut self, pid: ProcessId, x: AidId) -> Result<Vec<Effect>> {
        self.consume(pid, x)?;
        Ok(self.cascade(|e, fx, wl| e.affirm_inner(pid, x, fx, wl)))
    }

    /// Execute `deny(x)` from process `pid`.
    ///
    /// *Definite deny* (Equation 15 — process not speculative, **or** the
    /// current interval itself depends on `x`): `x` becomes
    /// [`AidState::Denied`] and every interval in `x.DOM` is rolled back
    /// (cascading per Theorem 5.1). A current interval that depends on `x`
    /// rolls back *itself* — the self-deny the paper allows because the deny
    /// "cannot be undone by another process".
    ///
    /// *Speculative deny* (Equation 16): recorded in the current interval's
    /// `IHD`; applied definitively when that interval finalizes (§5.5), or
    /// silently discarded if it rolls back (§5.6).
    ///
    /// # Errors
    ///
    /// Same as [`Engine::affirm`].
    pub fn deny(&mut self, pid: ProcessId, x: AidId) -> Result<Vec<Effect>> {
        self.consume(pid, x)?;
        Ok(self.cascade(|e, fx, wl| e.deny_inner(pid, x, fx, wl)))
    }

    /// Execute `free_of(x)` from process `pid` (§5.4, Equations 17–19).
    ///
    /// Asserts that the current computation is not, and never will be,
    /// dependent on `x`:
    ///
    /// * process definite → definite affirm of `x` (Equation 17);
    /// * process speculative, `x ∉ IDO` → speculative affirm (Equation 18);
    /// * process speculative, `x ∈ IDO` → the ordering constraint was
    ///   violated: deny `x` (Equation 19), rolling back the asserting
    ///   interval among others (Theorem 6.3).
    ///
    /// Like `affirm` and `deny`, `free_of` consumes its argument.
    ///
    /// # Errors
    ///
    /// Same as [`Engine::affirm`].
    pub fn free_of(&mut self, pid: ProcessId, x: AidId) -> Result<Vec<Effect>> {
        self.consume(pid, x)?;
        self.stats.free_ofs += 1;
        Ok(if self.procs[pid.0 as usize].ido.contains(&x) {
            // Eq. 19: constraint violated — deny (definite: x ∈ A.IDO).
            self.cascade(|e, fx, wl| e.deny_inner(pid, x, fx, wl))
        } else {
            // Eq. 17 (definite) and Eq. 18 (speculative): affirm.
            self.cascade(|e, fx, wl| e.affirm_inner(pid, x, fx, wl))
        })
    }

    /// Drive the paper's *finalize* (§5.5) directly.
    ///
    /// Not part of the user programming model — "finalize is not a part of
    /// the user's programming model, and is just used here as a shorthand
    /// notation" (§5.2) — and the engine finalizes automatically the
    /// moment an interval's `IDO` empties, so calling this on a live
    /// speculative interval always fails the Equation 20 precondition.
    /// Exposed for semantics-level tooling and tests; finalizing an
    /// already-definite interval is an idempotent no-op.
    ///
    /// # Errors
    ///
    /// * [`Error::UnknownInterval`] for foreign ids.
    /// * [`Error::FossilInterval`] for intervals reclaimed by
    ///   [`collect_fossils`](Engine::collect_fossils).
    /// * [`Error::FinalizePrecondition`] if the interval is speculative
    ///   (its `IDO` is non-empty) or was rolled back.
    pub fn finalize(&mut self, a: IntervalId) -> Result<Vec<Effect>> {
        // The engine finalizes the moment an `IDO` empties, so a live
        // speculative interval always has dependences left.
        match self.interval(a)?.status() {
            IntervalStatus::Definite => Ok(Vec::new()),
            IntervalStatus::Speculative | IntervalStatus::RolledBack => {
                Err(Error::FinalizePrecondition(a))
            }
        }
    }

    // ------------------------------------------------------------------
    // fossil collection — the GVT commit horizon (Time Warp, ref [17])
    // ------------------------------------------------------------------

    /// Advance the commit horizon and reclaim everything below it.
    ///
    /// The **interval horizon** is the minimum, over all processes, of the
    /// first *speculative* interval id in that process's history (Time
    /// Warp's GVT computed from per-process finalized frontiers). Every
    /// interval below it is definite (Theorem 5.2: it can never roll back)
    /// or already rolled back, heads no `DOM` set (only speculative
    /// intervals store dependence) and is referenced by no
    /// live AID's `spec_affirmed_by`/`spec_denied_by` tie (those are
    /// cleared on finalize and rollback) — so its storage, including its
    /// `IDO`/`IHD`/`IHA`/`guessed` dependence sets, is unreachable and is
    /// dropped. The **AID horizon** advances over the leading run of
    /// definitively decided AIDs; an undecided AID pins it, exactly as an
    /// unacknowledged message pins GVT.
    ///
    /// Collection is *transparent* to the programming model: ids are never
    /// reused, `guess`/`implicit_guess`/`aid_state` answer for reclaimed
    /// AIDs from a retained denied-fossil record exactly as the live
    /// records would, and a second decider on a fossil reports
    /// [`Error::AidConsumed`] just as on any decided AID. Only the
    /// debugging views ([`aid`](Engine::aid)/[`interval`](Engine::interval)
    /// and [`finalize`](Engine::finalize)) distinguish fossils, via
    /// [`Error::FossilAid`]/[`Error::FossilInterval`]. See DESIGN.md for
    /// why this preserves the §5.5 finalize semantics.
    ///
    /// Safe to call at any time, from any embedding, at any frequency;
    /// sweeps are idempotent until new intervals finalize.
    pub fn collect_fossils(&mut self) -> FossilSweep {
        // Interval horizon: min over processes of the first speculative
        // interval's id; a fully definite process imposes no bound.
        let total = self.intervals.end() as u64;
        let mut horizon = total;
        for proc in &self.procs {
            let frontier = proc.history.get(proc.first_spec).map_or(total, |a| a.0);
            horizon = horizon.min(frontier);
        }
        let n_itv = horizon as usize - self.intervals.start();
        if n_itv > 0 {
            for proc in &mut self.procs {
                // History ids are strictly increasing, so the collectable
                // entries form a prefix — of the definite prefix.
                let keep = proc.history.partition_point(|a| a.0 < horizon);
                proc.history.drain(..keep);
                proc.collected += keep as u64;
                proc.first_spec -= keep;
            }
            debug_assert!(self
                .intervals
                .iter()
                .take(n_itv)
                .all(|i| i.status != IntervalStatus::Speculative));
            self.intervals.drop_below(horizon as usize);
            self.stats.fossil_intervals += n_itv as u64;
        }

        // AID horizon: the leading run of definitively decided AIDs.
        let n_aid = self
            .aids
            .iter()
            .position(|a| a.state == AidState::Undecided)
            .unwrap_or(self.aids.len());
        if n_aid > 0 {
            let denied = self.aids.iter().take(n_aid);
            let denied = denied.filter(|a| a.state == AidState::Denied);
            self.fossil_denied.extend(denied.map(|a| a.id));
            let aid_base = self.aids.start() + n_aid;
            self.aids.drop_below(aid_base);
            self.stats.fossil_aids += n_aid as u64;
            let word = aid_base / 64;
            let gone = (word - self.affirmed_from).min(self.affirmed.len());
            self.affirmed.drain(..gone);
            self.affirmed_from = word;
            if let Some(w) = self.affirmed.first_mut() {
                *w &= u64::MAX << (aid_base % 64);
            }
        }
        self.post_check();
        FossilSweep {
            intervals: n_itv as u64,
            aids: n_aid as u64,
            interval_horizon: self.interval_horizon(),
            aid_horizon: self.aid_horizon(),
        }
    }

    // ------------------------------------------------------------------
    // internals
    // ------------------------------------------------------------------

    /// Validate ids and enforce the one-shot rule, marking `x` consumed.
    fn consume(&mut self, pid: ProcessId, x: AidId) -> Result<()> {
        self.proc_ref(pid).ok_or(Error::UnknownProcess(pid))?;
        let aid = match Slot::of(x.0, &self.aids) {
            Slot::Live => self.aid_mut(x),
            // Fossils were decided, hence consumed: a second decider gets
            // the same error an uncollected engine would produce.
            Slot::Fossil => return Err(Error::AidConsumed(x)),
            Slot::Unknown => return Err(Error::UnknownAid(x)),
        };
        if aid.consumed {
            return Err(Error::AidConsumed(x));
        }
        aid.consumed = true;
        Ok(())
    }

    /// Affirm dispatch, assuming `x` is already consumed.
    fn affirm_inner(
        &mut self,
        pid: ProcessId,
        x: AidId,
        effects: &mut Vec<Effect>,
        wl: &mut VecDeque<Task>,
    ) {
        match self.current_interval(pid).expect("validated") {
            None => {
                // Definite affirm (Equations 7–9).
                effects.push(Effect::AidAffirmed { aid: x });
                self.definite_affirm_aid(x, wl);
            }
            Some(a) => {
                // Speculative affirm (Equations 10–14).
                self.stats.speculative_affirms += 1;
                // The affirmer's IDO minus x: a COW share plus one removal.
                let mut a_ido = self.procs[pid.0 as usize].ido.clone();
                a_ido.remove(&x);
                let heads = std::mem::take(&mut self.aid_mut(x).dom);
                // Eqs. 10–14, once per dependent process: from x's head `h`
                // to the end of that history every interval swaps x for the
                // affirmer's IDO. In stored form that is one rewrite of
                // `h`'s set — drop x, take in what the chain did not hold
                // yet, and pull forward what it held only from later on.
                for h in &heads {
                    let p = self.itv_ref(h).pid.0 as usize;
                    self.itv_mut(h).ido.remove(&x);
                    self.procs[p].ido.remove(&x);
                    for y in &a_ido {
                        if self.procs[p].ido.insert(y) {
                            self.itv_mut(h).ido.insert(y);
                            self.aid_mut(y).dom.insert(h);
                        } else if let Some(g) = self.head_after(y, h) {
                            self.itv_mut(g).ido.remove(&y);
                            self.itv_mut(h).ido.insert(y);
                            let dom = &mut self.aid_mut(y).dom;
                            dom.remove(&g);
                            dom.insert(h);
                        }
                    }
                }
                // Only an affirmer that depended on nothing but x can empty
                // a dependent's IDO.
                if a_ido.is_empty() {
                    self.queue_finalizable(&heads, wl);
                }
                self.aid_mut(x).spec_affirmed_by = Some(a);
                self.itv_mut(a).iha.get_or_insert_default().insert(x);
                effects.push(Effect::SpeculativelyAffirmed { aid: x, by: a });
            }
        }
    }

    /// `y`'s head in the process of `h`, if it lies *after* `h` in that
    /// history. Precondition: that process depends on `y`.
    fn head_after(&self, y: AidId, h: IntervalId) -> Option<IntervalId> {
        let pid = self.itv_ref(h).pid;
        self.aid_ref(y)
            .dom
            .iter()
            .find(|&g| self.itv_ref(g).pid == pid)
            .filter(|&g| g > h)
    }

    /// After an AID was discharged at `heads` (its first dependent interval
    /// in each dependent process), queue every interval whose `IDO` that
    /// emptied: in each such history the stored sets from `first_spec` up
    /// to and past the head must all be empty. Intervals before the head
    /// with empty sets are already queued (their `IDO` emptied earlier in
    /// this cascade). Tasks are queued in ascending interval id across
    /// processes — the order a walk over the full `DOM` set produces.
    fn queue_finalizable(&self, heads: &DepSet<IntervalId>, wl: &mut VecDeque<Task>) {
        let queued = wl.len();
        for h in heads {
            let (proc, from) = self.place(self.itv_ref(h));
            for (pos, &b) in proc.history.iter().enumerate().skip(proc.first_spec) {
                if !self.itv_ref(b).ido.is_empty() {
                    break;
                }
                if pos >= from {
                    wl.push_back(Task::Finalize(b));
                }
            }
        }
        // One run per head, each ascending: only several runs need merging.
        if heads.len() > 1 {
            wl.make_contiguous()[queued..].sort_unstable_by_key(|t| match *t {
                Task::Finalize(b) | Task::Rollback(b) => b,
            });
        }
    }

    /// Deny dispatch, assuming `x` is already consumed.
    fn deny_inner(
        &mut self,
        pid: ProcessId,
        x: AidId,
        effects: &mut Vec<Effect>,
        wl: &mut VecDeque<Task>,
    ) {
        let cur = self.current_interval(pid).expect("validated");
        let definite = cur.is_none() || self.procs[pid.0 as usize].ido.contains(&x);
        if definite {
            // Eq. 15.
            effects.push(Effect::AidDenied { aid: x });
            self.definite_deny_aid(x, wl);
        } else {
            // Eq. 16.
            let a = cur.expect("speculative deny requires a current interval");
            self.stats.speculative_denies += 1;
            self.itv_mut(a).ihd.get_or_insert_default().insert(x);
            self.aid_mut(x).spec_denied_by = Some(a);
            effects.push(Effect::SpeculativelyDenied { aid: x, by: a });
        }
    }

    /// Make `x` definitively affirmed and discharge its dependents
    /// (Equations 7–9). Queues finalizations.
    fn definite_affirm_aid(&mut self, x: AidId, wl: &mut VecDeque<Task>) {
        self.stats.definite_affirms += 1;
        let word = (x.0 / 64) as usize - self.affirmed_from;
        self.affirmed.resize(self.affirmed.len().max(word + 1), 0);
        self.affirmed[word] |= 1 << (x.0 % 64);
        let aid = self.aid_mut(x);
        aid.state = AidState::Affirmed;
        aid.spec_affirmed_by = None;
        aid.consumed = true;
        // x leaves each dependent chain where it entered it; every later
        // interval of that history loses it with the head.
        let heads = std::mem::take(&mut aid.dom);
        for h in &heads {
            let itv = self.itv_mut(h);
            itv.ido.remove(&x);
            let p = itv.pid.0 as usize;
            self.procs[p].ido.remove(&x);
        }
        self.queue_finalizable(&heads, wl);
    }

    /// Make `x` definitively denied and queue rollback of its dependents
    /// (Equation 15's universal rollback).
    fn definite_deny_aid(&mut self, x: AidId, wl: &mut VecDeque<Task>) {
        self.stats.definite_denies += 1;
        let aid = self.aid_mut(x);
        aid.state = AidState::Denied;
        aid.spec_affirmed_by = None;
        aid.spec_denied_by = None;
        aid.consumed = true;
        let dom = std::mem::take(&mut aid.dom);
        for b in &dom {
            wl.push_back(Task::Rollback(b));
        }
    }

    /// One transition: its first step, then the cascade it queued, in the
    /// engine's own buffers.
    fn cascade(
        &mut self,
        first: impl FnOnce(&mut Self, &mut Vec<Effect>, &mut VecDeque<Task>),
    ) -> Vec<Effect> {
        let mut effects = std::mem::take(&mut self.spare);
        let mut wl = std::mem::take(&mut self.worklist);
        first(self, &mut effects, &mut wl);
        self.drain(&mut wl, &mut effects);
        self.worklist = wl;
        self.post_check();
        effects
    }

    /// Hand back an effect list a transition returned, so that a later one
    /// fills it instead of allocating; dropping it costs that one
    /// allocation.
    #[inline]
    pub fn recycle(&mut self, mut effects: Vec<Effect>) {
        if effects.capacity() > self.spare.capacity() {
            effects.clear();
            self.spare = effects;
        }
    }

    /// Process queued finalizations and rollbacks until quiescent.
    fn drain(&mut self, wl: &mut VecDeque<Task>, effects: &mut Vec<Effect>) {
        while let Some(task) = wl.pop_front() {
            match task {
                Task::Finalize(a) => self.do_finalize(a, effects, wl),
                Task::Rollback(a) => self.do_rollback(a, effects, wl),
            }
        }
    }

    /// Finalize interval `a` (§5.5). Precondition: `a.IDO = ∅` (Equation
    /// 20) — guaranteed by callers; intervals that lost the race to a
    /// rollback are skipped.
    fn do_finalize(&mut self, a: IntervalId, effects: &mut Vec<Effect>, wl: &mut VecDeque<Task>) {
        if self.itv_ref(a).status != IntervalStatus::Speculative {
            return;
        }
        let itv = self.itv_mut(a);
        itv.status = IntervalStatus::Definite;
        let pid = itv.pid;
        // `a.IDO = ∅` means `a` heads its chain with nothing stored: the
        // definite prefix grows by exactly this interval.
        debug_assert!(itv.ido.is_empty(), "Eq. 20 violated for {a}");
        let proc = &mut self.procs[pid.0 as usize];
        debug_assert_eq!(proc.history.get(proc.first_spec), Some(&a), "Eq. 20, {a}");
        proc.first_spec += 1;
        self.stats.finalized += 1;
        effects.push(Effect::Finalized {
            interval: a,
            process: pid,
        });
        // Speculative affirms issued in `a` become definite (Lemma 6.1):
        // promote the AIDs so later guessers observe `Affirmed`.
        if let Some(iha) = self.itv_ref(a).iha.as_deref().cloned() {
            for x in &iha {
                if self.aid_ref(x).state == AidState::Undecided {
                    effects.push(Effect::AidAffirmed { aid: x });
                    self.definite_affirm_aid(x, wl);
                }
            }
        }
        // Speculative denies issued in `a` become definite (Equation 22).
        if let Some(ihd) = self.itv_ref(a).ihd.as_deref().cloned() {
            for x in &ihd {
                if self.aid_ref(x).state == AidState::Undecided {
                    effects.push(Effect::AidDenied { aid: x });
                    self.definite_deny_aid(x, wl);
                }
            }
        }
    }

    /// Roll back interval `a` (§5.6): truncate its process's history from
    /// `a` onward (Theorem 5.1) and undo speculative primitives.
    fn do_rollback(&mut self, a: IntervalId, effects: &mut Vec<Effect>, wl: &mut VecDeque<Task>) {
        let status = self.itv_ref(a).status;
        debug_assert!(
            status != IntervalStatus::Definite,
            "Theorem 5.2: rollback of definite {a}"
        );
        if status != IntervalStatus::Speculative {
            return;
        }
        let pid = self.itv_ref(a).pid;
        let (proc, pos) = self.place(self.itv_ref(a));
        debug_assert!(pos >= proc.first_spec, "speculative {a}");
        let proc = &mut self.procs[pid.0 as usize];
        // `first_spec` stays put: it is either below `pos` or now the length.
        let discarded = proc.history.split_off(pos);
        proc.discarded += discarded.len() as u64;
        self.stats.rolled_back_intervals += discarded.len() as u64;
        self.stats.rollback_events += 1;
        let checkpoint = self.itv_ref(a).ps;

        // Unwind latest-first, as an implementation would.
        for &c in discarded.iter().rev() {
            debug_assert_ne!(
                self.itv_ref(c).status,
                IntervalStatus::Definite,
                "definite interval {c} in a rolled-back suffix"
            );
            let itv = self.itv_mut(c);
            itv.status = IntervalStatus::RolledBack;
            // Withdraw what entered the chain at `c` — from the process's
            // dependence and, as its head, from each DOM. (AIDs that entered
            // earlier keep their heads: their DOMs shrink with the history.)
            let entered = std::mem::take(&mut itv.ido);
            for x in &entered {
                self.procs[pid.0 as usize].ido.remove(&x);
                self.aid_mut(x).dom.remove(&c);
            }
            // Speculative affirms become conservative definite denies
            // (§5.6, footnote 2).
            if let Some(iha) = self.itv_ref(c).iha.as_deref().cloned() {
                for x in &iha {
                    self.aid_mut(x).spec_affirmed_by = None;
                    if self.aid_ref(x).state == AidState::Undecided {
                        effects.push(Effect::AidDenied { aid: x });
                        self.definite_deny_aid(x, wl);
                    }
                }
            }
            // Speculative denies die with the interval (§5.6: "they die
            // with the interval inside the IHD set"). The deny never took
            // effect, so the AID is released for the re-execution to decide
            // again — the one-shot rule counts only surviving primitives.
            if let Some(ihd) = self.itv_ref(c).ihd.as_deref().cloned() {
                for x in &ihd {
                    if self.aid_ref(x).spec_denied_by == Some(c) {
                        self.aid_mut(x).spec_denied_by = None;
                        if self.aid_ref(x).state == AidState::Undecided {
                            self.aid_mut(x).consumed = false;
                        }
                    }
                }
            }
        }
        effects.push(Effect::RolledBack {
            process: pid,
            intervals: discarded,
            checkpoint,
        });
    }

    fn post_check(&self) {
        if self.check_invariants {
            if let Err(msg) = self.verify_invariants() {
                panic!("engine invariant violated: {msg}");
            }
        }
    }

    /// `A.IDO` for a live interval, read off the chain: the union of the
    /// stored sets from its process's first speculative interval up to `A`.
    /// Borrowed where a stored set already *is* the answer — [`Proc::ido`]
    /// for the current interval, `A`'s own set at the head of the chain or
    /// outside it (definite intervals depend on nothing; a rolled-back
    /// interval's dependence is dead state and reads as empty).
    pub(crate) fn ido_of<'a>(&'a self, itv: &'a Interval) -> Cow<'a, DepSet<AidId>> {
        if itv.status != IntervalStatus::Speculative {
            return Cow::Borrowed(&itv.ido);
        }
        let (proc, pos) = self.place(itv);
        if pos == proc.first_spec {
            return Cow::Borrowed(&itv.ido);
        }
        if pos + 1 == proc.history.len() {
            return Cow::Borrowed(&proc.ido);
        }
        let mut ido = DepSet::new();
        for &b in &proc.history[proc.first_spec..=pos] {
            ido.union_with(&self.itv_ref(b).ido);
        }
        Cow::Owned(ido)
    }

    /// `X.DOM` for a live AID, read off its heads: every interval from each
    /// head to the end of that head's history. Borrowed when no head has a
    /// successor (the stored set is then the whole answer).
    pub(crate) fn dom_of<'a>(&'a self, aid: &'a Aid) -> Cow<'a, DepSet<IntervalId>> {
        let suffix = |h: IntervalId| {
            let (proc, pos) = self.place(self.itv_ref(h));
            &proc.history[pos..]
        };
        if aid.dom.iter().all(|h| suffix(h).len() == 1) {
            return Cow::Borrowed(&aid.dom);
        }
        Cow::Owned(
            aid.dom
                .iter()
                .flat_map(|h| suffix(h).iter().copied())
                .collect(),
        )
    }

    /// Where an interval that is still in its process's history sits: the
    /// process record and the position in `history`. (`seq` counts from the
    /// start of the full history, `collected` of which fossil collection
    /// took from the front.)
    fn place(&self, itv: &Interval) -> (&Proc, usize) {
        let proc = &self.procs[itv.pid.0 as usize];
        let pos = itv.seq - proc.collected as usize;
        debug_assert_eq!(proc.history.get(pos), Some(&itv.id));
        (proc, pos)
    }

    /// Verify the structural invariants the paper's theorems rest on, as
    /// they read on the chain-compressed relation (module docs, § Storage):
    ///
    /// 1. **Heads** (what is left of Lemma 5.1 to check): `h ∈ X.dom ⟺
    ///    X ∈ h.ido` on the *stored* sets, and every head is a speculative
    ///    interval. An AID that is decided or speculatively affirmed has no
    ///    heads.
    /// 2. **Chains**: each history is a definite prefix followed by a
    ///    speculative suffix starting at `first_spec`, with no rolled-back
    ///    interval in it; the stored sets along the suffix are pairwise
    ///    disjoint, their union is the process's `ido`, and the first one
    ///    is non-empty (speculative ⟺ non-empty `IDO`). Intervals outside a
    ///    chain store nothing.
    /// 3. **Affirmed bitmap**: its set bits are exactly the live AIDs that
    ///    are definitively affirmed.
    ///
    /// Two checks of the edge-wise engine now hold by construction and are
    /// not re-checked: Lemma 5.1's symmetry for *inherited* dependence
    /// (`DOM` is read off the heads, so an interval is in `X.DOM` exactly
    /// when `X` entered its chain at or before it) and Theorem 5.1's
    /// prefix-subset invariant (`IDO` is a running union along the chain).
    /// "`DOM` sets only contain speculative intervals" follows from 1 and 2.
    ///
    /// Returns a human-readable description of the first violation.
    ///
    /// # Errors
    ///
    /// `Err(description)` if any invariant is violated (which would be an
    /// engine bug, not caller misuse).
    pub fn verify_invariants(&self) -> std::result::Result<(), String> {
        // 1: interval side.
        for itv in &self.intervals {
            if itv.status != IntervalStatus::Speculative && !itv.ido.is_empty() {
                return Err(format!("{} is {:?} but stores AIDs", itv.id, itv.status));
            }
            for x in &itv.ido {
                if !self.aid_ref(x).dom.contains(&itv.id) {
                    return Err(format!(
                        "Lemma 5.1: {} entered at {} but {} is not a head of {}.DOM",
                        x, itv.id, itv.id, x
                    ));
                }
            }
        }
        // 3: the bitmap marks the live affirmed AIDs and nothing else.
        let marked = self.affirmed.iter().map(|w| w.count_ones() as usize);
        let mut affirmed = self.aids.iter().filter(|a| a.state == AidState::Affirmed);
        let window = (self.affirmed_from, &self.affirmed[..]);
        if affirmed.clone().count() != marked.sum() || !affirmed.all(|a| bit(window, a.id.0)) {
            return Err("the affirmed bitmap is not the live affirmed AIDs".into());
        }
        // 1: AID side.
        for aid in &self.aids {
            for h in &aid.dom {
                let itv = self.itv_ref(h);
                if !itv.ido.contains(&aid.id) {
                    return Err(format!(
                        "Lemma 5.1: {} heads {}.DOM but {} did not enter at {}",
                        h, aid.id, aid.id, h
                    ));
                }
                if itv.status != IntervalStatus::Speculative {
                    return Err(format!("head {} of {}.DOM is not speculative", h, aid.id));
                }
            }
            if aid.state.is_decided() && !aid.dom.is_empty() {
                return Err(format!("{:?} {} has non-empty DOM", aid.state, aid.id));
            }
            if aid.spec_affirmed_by.is_some() && !aid.dom.is_empty() {
                return Err(format!(
                    "speculatively affirmed {} has direct dependents (Eq. 10–14 \
                     dissolve dependence permanently)",
                    aid.id
                ));
            }
        }
        // 2: per-process chains.
        for (i, proc) in self.procs.iter().enumerate() {
            let pid = ProcessId(i as u32);
            let mut ido: DepSet<AidId> = DepSet::new();
            for (pos, &a) in proc.history.iter().enumerate() {
                let itv = self.itv_ref(a);
                let expected = if pos < proc.first_spec {
                    IntervalStatus::Definite
                } else {
                    IntervalStatus::Speculative
                };
                if itv.status != expected {
                    return Err(format!(
                        "{} is {:?} at position {} of {}'s history (first_spec {})",
                        a, itv.status, pos, pid, proc.first_spec
                    ));
                }
                if pos == proc.first_spec && itv.ido.is_empty() {
                    return Err(format!("{} speculative with empty IDO", a));
                }
                for x in &itv.ido {
                    if !ido.insert(x) {
                        return Err(format!("{} entered {}'s chain twice (at {})", x, pid, a));
                    }
                }
            }
            if proc.first_spec > proc.history.len() {
                return Err(format!("{}'s first_spec is past its history", pid));
            }
            if ido != proc.ido {
                return Err(format!(
                    "{}'s IDO {:?} is not the union of its chain {:?}",
                    pid, proc.ido, ido
                ));
            }
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::cell::Cell;
    use std::collections::BTreeSet;

    thread_local! {
        /// Names [`Engine::resolve`] has classified on this thread.
        pub(super) static CLASSIFIED: Cell<u64> = const { Cell::new(0) };
    }

    fn classified() -> u64 {
        CLASSIFIED.with(Cell::get)
    }

    fn engine_with(n_procs: usize) -> (Engine, Vec<ProcessId>) {
        let mut e = Engine::new();
        e.set_invariant_checking(true);
        let pids = (0..n_procs).map(|_| e.register_process()).collect();
        (e, pids)
    }

    #[test]
    fn nested_guess_builds_inherited_ido_at_most_once() {
        // Historically `guess` cloned the full parent IDO twice (once for
        // the working set, once into the stored interval). With DepSet the
        // inherited set is COW-shared and built exactly once: each guess
        // may perform at most ONE copy-on-write duplication, and
        // representation spills are one-time per set (amortized O(1)).
        use crate::depset;
        let (mut e, p) = engine_with(1);
        let spills_before = depset::spills();
        const DEPTH: u64 = 64;
        for i in 0..DEPTH {
            let x = e.aid_init(p[0]);
            let cow_before = depset::cow_copies();
            e.guess(p[0], &[x], Checkpoint(i)).unwrap();
            assert!(
                depset::cow_copies() - cow_before <= 1,
                "guess at depth {i} materialized the inherited IDO more than once"
            );
        }
        // One spill for the IDO chain crossing the inline capacity, at most
        // one per AID's DOM set: never more than one spill per live set.
        assert!(depset::spills() - spills_before <= 1 + DEPTH);
    }

    /// `depth` nested guesses by one process on distinct AIDs, unchecked
    /// (per-transition verification is linear in the chain, and under
    /// `cfg(test)` every set operation re-checks its shadow): the
    /// representation tests below verify once, where they mean to.
    fn deep_chain(depth: usize) -> (Engine, ProcessId, ProcessId, Vec<AidId>) {
        let mut e = Engine::new();
        e.set_invariant_checking(false);
        let (guesser, decider) = (e.register_process(), e.register_process());
        let aids: Vec<AidId> = (0..depth)
            .map(|i| {
                let x = e.aid_init(guesser);
                e.guess(guesser, &[x], Checkpoint(i as u64)).unwrap();
                x
            })
            .collect();
        (e, guesser, decider, aids)
    }

    const DEEP: usize = 4096;

    #[test]
    fn deep_chain_stores_one_head_and_one_aid_per_record() {
        let (e, guesser, _, aids) = deep_chain(DEEP);
        // Stored form: the relation costs O(1) per interval and per AID…
        assert!(e.aids.iter().all(|a| a.dom.len() == 1));
        assert!(e.intervals.iter().all(|i| i.ido.len() == 1));
        assert_eq!(e.procs[guesser.0 as usize].ido.len(), DEEP);
        e.verify_invariants().unwrap();
        // …while the views still report all of Lemma 5.1's: the i-th AID
        // has the d − i intervals from its head on as dependents, the i-th
        // interval depends on the first i + 1 AIDs.
        let history = e.history(guesser).unwrap();
        for i in [0, 1, 31, 32, 33, DEEP / 2, DEEP - 2, DEEP - 1] {
            let dom = e.aid(aids[i]).unwrap().dom();
            assert_eq!(dom.len(), DEEP - i);
            assert!(dom.iter().eq(history[i..].iter().copied()));
            let ido = e.interval(history[i]).unwrap().ido();
            assert_eq!(ido.len(), i + 1);
            assert!(ido.iter().eq(aids[..=i].iter().copied()));
        }
    }

    #[test]
    fn deep_guess_affirm_cycle_copies_at_most_one_set() {
        use crate::depset;
        let (mut e, guesser, decider, aids) = deep_chain(DEEP);
        let before = depset::materializations();
        let x = e.aid_init(guesser);
        e.guess(guesser, &[x], Checkpoint(0)).unwrap();
        let fx = e.affirm(decider, aids[0]).unwrap();
        assert!(
            depset::materializations() - before <= 1,
            "a guess + oldest-affirm cycle at depth {DEEP} copied or spilled {} sets",
            depset::materializations() - before
        );
        // Exactly the oldest interval finalized, and the chain moved up.
        let finalized = fx.iter().filter(|f| matches!(f, Effect::Finalized { .. }));
        assert_eq!(finalized.count(), 1);
        assert_eq!(e.procs[guesser.0 as usize].first_spec, 1);
        assert_eq!(e.procs[guesser.0 as usize].ido.len(), DEEP);
        e.verify_invariants().unwrap();
    }

    #[test]
    fn deep_deny_of_the_oldest_leaves_nothing_stored() {
        let (mut e, guesser, decider, aids) = deep_chain(DEEP);
        let fx = e.deny(decider, aids[0]).unwrap();
        match fx.iter().find(|f| f.is_rollback()).unwrap() {
            Effect::RolledBack { intervals, .. } => assert_eq!(intervals.len(), DEEP),
            _ => unreachable!(),
        }
        assert_eq!(e.stats().rollback_events, 1);
        assert!(e.aids.iter().all(|a| a.dom.is_empty()));
        assert!(e.intervals.iter().all(|i| i.ido.is_empty()));
        let proc = &e.procs[guesser.0 as usize];
        assert!(proc.ido.is_empty() && proc.history.is_empty());
        assert_eq!(proc.first_spec, 0);
        // The younger assumptions were guessed, not denied.
        assert_eq!(e.open_aids().len(), DEEP - 1);
        e.verify_invariants().unwrap();
    }

    #[test]
    fn a_receive_looks_up_only_names_neither_held_nor_affirmed() {
        // DEEP affirmed AIDs with K undecided ones spread among them.
        const K: usize = 7;
        let mut e = Engine::new();
        e.set_invariant_checking(false);
        let [sender, decider, r0, r1, r2] = [(); 5].map(|_| e.register_process());
        let (mut affirmed, mut open) = (Vec::new(), Vec::new());
        for i in 0..DEEP + K {
            let x = e.aid_init(sender);
            if i % (DEEP / K) == DEEP / K / 2 && open.len() < K {
                open.push(x);
            } else {
                e.affirm(decider, x).unwrap();
                affirmed.push(x);
            }
        }
        e.verify_invariants().unwrap();
        let recv = |e: &mut Engine, pid, names: &[AidId]| {
            let before = classified();
            let tag: Tag = names.iter().copied().collect();
            let (out, _) = e.implicit_guess(pid, &tag, Checkpoint(0)).unwrap();
            (out, classified() - before)
        };
        // Into an empty IDO, all affirmed: nothing is looked up.
        assert_eq!(recv(&mut e, r0, &affirmed), (ReceiveOutcome::Clean, 0));
        // The same tag plus the K undecided names: exactly those K are.
        let all: Vec<AidId> = (0..(DEEP + K) as u64).map(AidId).collect();
        let (out, n) = recv(&mut e, r1, &all);
        assert_eq!(n, K as u64);
        let ReceiveOutcome::Speculative(a) = out else {
            panic!("{out:?}")
        };
        assert!(e.interval(a).unwrap().ido().iter().eq(open.iter().copied()));
        // Below the AID horizon names take the fossil path; held ones are
        // still not looked up.
        let horizon = e.collect_fossils().aid_horizon;
        assert_eq!(horizon, open[0].0);
        assert_eq!(
            e.affirmed_from,
            horizon as usize / 64,
            "words below it went"
        );
        e.verify_invariants().unwrap();
        assert_eq!(recv(&mut e, r2, &all).1, horizon + K as u64);
        assert_eq!(recv(&mut e, r1, &all).1, horizon);
        e.verify_invariants().unwrap();
    }

    #[test]
    fn guess_creates_speculative_interval() {
        let (mut e, p) = engine_with(1);
        let x = e.aid_init(p[0]);
        let (out, fx) = e.guess(p[0], &[x], Checkpoint(1)).unwrap();
        let a = out.interval().unwrap();
        assert!(out.value());
        assert_eq!(fx.len(), 1);
        assert_eq!(e.interval(a).unwrap().status(), IntervalStatus::Speculative);
        assert!(e.interval(a).unwrap().ido().contains(&x));
        assert!(e.aid(x).unwrap().dom().contains(&a));
        assert_eq!(e.current_interval(p[0]).unwrap(), Some(a));
        assert!(e.is_speculative(p[0]).unwrap());
    }

    #[test]
    fn guess_requires_aids() {
        let (mut e, p) = engine_with(1);
        assert_eq!(e.guess(p[0], &[], Checkpoint(0)), Err(Error::EmptyGuess));
    }

    #[test]
    fn guess_on_denied_aid_is_already_false() {
        let (mut e, p) = engine_with(2);
        let x = e.aid_init(p[0]);
        e.deny(p[1], x).unwrap(); // definite deny from a definite process
        let (out, fx) = e.guess(p[0], &[x], Checkpoint(0)).unwrap();
        assert_eq!(out, GuessOutcome::AlreadyFalse(x));
        assert!(!out.value());
        assert!(fx.is_empty());
        assert!(!e.is_speculative(p[0]).unwrap());
    }

    #[test]
    fn guess_on_affirmed_aid_finalizes_immediately() {
        let (mut e, p) = engine_with(2);
        let x = e.aid_init(p[0]);
        e.affirm(p[1], x).unwrap();
        let (out, fx) = e.guess(p[0], &[x], Checkpoint(0)).unwrap();
        let a = out.interval().unwrap();
        assert_eq!(e.interval(a).unwrap().status(), IntervalStatus::Definite);
        assert!(fx
            .iter()
            .any(|f| matches!(f, Effect::Finalized { interval, .. } if *interval == a)));
        assert!(!e.is_speculative(p[0]).unwrap());
    }

    #[test]
    fn nested_guess_inherits_parent_ido() {
        let (mut e, p) = engine_with(1);
        let x = e.aid_init(p[0]);
        let y = e.aid_init(p[0]);
        let (a, _) = e.guess(p[0], &[x], Checkpoint(0)).unwrap();
        let (b, _) = e.guess(p[0], &[y], Checkpoint(1)).unwrap();
        let b = b.interval().unwrap();
        let ido = e.interval(b).unwrap().ido();
        assert!(ido.contains(&x) && ido.contains(&y));
        // Inherited dependency shows in DOM too (module fidelity note).
        assert!(e.aid(x).unwrap().dom().contains(&b));
        let _ = a;
    }

    #[test]
    fn definite_affirm_finalizes_dependents() {
        let (mut e, p) = engine_with(2);
        let x = e.aid_init(p[0]);
        let (out, _) = e.guess(p[0], &[x], Checkpoint(0)).unwrap();
        let a = out.interval().unwrap();
        let fx = e.affirm(p[1], x).unwrap();
        assert!(fx.contains(&Effect::AidAffirmed { aid: x }));
        assert!(fx
            .iter()
            .any(|f| matches!(f, Effect::Finalized { interval, .. } if *interval == a)));
        assert_eq!(e.interval(a).unwrap().status(), IntervalStatus::Definite);
        assert_eq!(e.aid_state(x).unwrap(), AidState::Affirmed);
        assert!(!e.is_speculative(p[0]).unwrap());
    }

    #[test]
    fn definite_deny_rolls_back_dependents() {
        let (mut e, p) = engine_with(2);
        let x = e.aid_init(p[0]);
        let (out, _) = e.guess(p[0], &[x], Checkpoint(7)).unwrap();
        let a = out.interval().unwrap();
        let fx = e.deny(p[1], x).unwrap();
        assert!(fx.contains(&Effect::AidDenied { aid: x }));
        let rb = fx.iter().find(|f| f.is_rollback()).unwrap();
        match rb {
            Effect::RolledBack {
                process,
                intervals,
                checkpoint,
            } => {
                assert_eq!(*process, p[0]);
                assert_eq!(intervals, &vec![a]);
                assert_eq!(*checkpoint, Checkpoint(7));
            }
            _ => unreachable!(),
        }
        assert_eq!(e.interval(a).unwrap().status(), IntervalStatus::RolledBack);
        assert_eq!(e.aid_state(x).unwrap(), AidState::Denied);
        assert!(e.history(p[0]).unwrap().is_empty());
    }

    #[test]
    fn self_deny_rolls_back_own_interval() {
        // Eq. 15's second disjunct: X ∈ A.IDO makes the deny definite even
        // though the denier is speculative.
        let (mut e, p) = engine_with(1);
        let x = e.aid_init(p[0]);
        let (out, _) = e.guess(p[0], &[x], Checkpoint(3)).unwrap();
        let a = out.interval().unwrap();
        let fx = e.deny(p[0], x).unwrap();
        assert!(fx.contains(&Effect::AidDenied { aid: x }));
        assert_eq!(e.interval(a).unwrap().status(), IntervalStatus::RolledBack);
    }

    #[test]
    fn speculative_deny_applies_on_finalize() {
        let (mut e, p) = engine_with(3);
        let x = e.aid_init(p[0]); // guessed by p1
        let y = e.aid_init(p[0]); // guessed by p2 (the denier's own dependence)
        let (ox, _) = e.guess(p[1], &[x], Checkpoint(0)).unwrap();
        let ax = ox.interval().unwrap();
        e.guess(p[2], &[y], Checkpoint(0)).unwrap();
        // p2 (speculative on y, not on x) denies x: speculative deny.
        let fx = e.deny(p[2], x).unwrap();
        assert!(fx
            .iter()
            .any(|f| matches!(f, Effect::SpeculativelyDenied { aid, .. } if *aid == x)));
        assert_eq!(e.aid_state(x).unwrap(), AidState::Undecided);
        assert_eq!(
            e.interval(ax).unwrap().status(),
            IntervalStatus::Speculative
        );
        // Affirm y definitively: p2's interval finalizes, the deny becomes
        // definite, and p1's interval rolls back (Equation 22).
        let fx = e.affirm(p[0], y).unwrap();
        assert!(fx.contains(&Effect::AidDenied { aid: x }));
        assert_eq!(e.interval(ax).unwrap().status(), IntervalStatus::RolledBack);
        assert_eq!(e.aid_state(x).unwrap(), AidState::Denied);
    }

    #[test]
    fn speculative_deny_dies_on_rollback() {
        let (mut e, p) = engine_with(3);
        let x = e.aid_init(p[0]);
        let y = e.aid_init(p[0]);
        let (ox, _) = e.guess(p[1], &[x], Checkpoint(0)).unwrap();
        let ax = ox.interval().unwrap();
        e.guess(p[2], &[y], Checkpoint(0)).unwrap();
        e.deny(p[2], x).unwrap(); // speculative deny of x, pending on y
                                  // Deny y: p2 rolls back; its speculative deny of x must die with it.
        e.deny(p[0], y).unwrap();
        // x was never definitively denied: the IHD entry died with p2's
        // interval. x is released (the deny never happened), its state
        // remains Undecided and ax survives.
        assert_eq!(e.aid_state(x).unwrap(), AidState::Undecided);
        assert!(!e.aid(x).unwrap().is_consumed());
        assert_eq!(
            e.interval(ax).unwrap().status(),
            IntervalStatus::Speculative
        );
    }

    #[test]
    fn speculative_deny_state_after_denier_rollback() {
        let (mut e, p) = engine_with(3);
        let x = e.aid_init(p[0]);
        let y = e.aid_init(p[0]);
        e.guess(p[1], &[x], Checkpoint(0)).unwrap();
        e.guess(p[2], &[y], Checkpoint(0)).unwrap();
        e.deny(p[2], x).unwrap();
        e.deny(p[0], y).unwrap();
        assert_eq!(e.aid_state(x).unwrap(), AidState::Undecided);
    }

    #[test]
    fn speculative_affirm_transfers_dependence() {
        // B depends on X; A (speculative on Y) affirms X.
        // Eq. 12: B.IDO = (B.IDO ∪ A.IDO) \ {X} = {Y}.
        let (mut e, p) = engine_with(3);
        let x = e.aid_init(p[0]);
        let y = e.aid_init(p[0]);
        let (ob, _) = e.guess(p[1], &[x], Checkpoint(0)).unwrap();
        let b = ob.interval().unwrap();
        let (oa, _) = e.guess(p[2], &[y], Checkpoint(0)).unwrap();
        let a = oa.interval().unwrap();
        let fx = e.affirm(p[2], x).unwrap();
        assert!(fx.iter().any(
            |f| matches!(f, Effect::SpeculativelyAffirmed { aid, by } if *aid == x && *by == a)
        ));
        let b_ido = e.interval(b).unwrap().ido();
        assert!(!b_ido.contains(&x));
        assert!(b_ido.contains(&y));
        assert!(e.aid(y).unwrap().dom().contains(&b));
        assert!(e.aid(x).unwrap().dom().is_empty());
        assert_eq!(e.aid(x).unwrap().speculatively_affirmed_by(), Some(a));
    }

    #[test]
    fn speculative_affirm_then_affirmer_definite_promotes_aid() {
        // Lemma 6.1: spec affirm + affirmer finalized ≡ definite affirm.
        let (mut e, p) = engine_with(3);
        let x = e.aid_init(p[0]);
        let y = e.aid_init(p[0]);
        let (ob, _) = e.guess(p[1], &[x], Checkpoint(0)).unwrap();
        let b = ob.interval().unwrap();
        e.guess(p[2], &[y], Checkpoint(0)).unwrap();
        e.affirm(p[2], x).unwrap();
        let fx = e.affirm(p[0], y).unwrap();
        // Both the affirmer's interval and B finalize; x becomes Affirmed.
        assert_eq!(e.interval(b).unwrap().status(), IntervalStatus::Definite);
        assert_eq!(e.aid_state(x).unwrap(), AidState::Affirmed);
        assert!(fx
            .iter()
            .any(|f| matches!(f, Effect::AidAffirmed { aid } if *aid == x)));
    }

    #[test]
    fn speculative_affirm_then_affirmer_rollback_denies_aid() {
        // §5.6 footnote 2: rollback of a speculative affirm ≡ deny.
        let (mut e, p) = engine_with(3);
        let x = e.aid_init(p[0]);
        let y = e.aid_init(p[0]);
        let (ob, _) = e.guess(p[1], &[x], Checkpoint(0)).unwrap();
        let b = ob.interval().unwrap();
        e.guess(p[2], &[y], Checkpoint(0)).unwrap();
        e.affirm(p[2], x).unwrap();
        let fx = e.deny(p[0], y).unwrap();
        // Denying y rolls back the affirmer AND (via the transferred
        // dependence) B; x is conservatively denied.
        assert_eq!(e.interval(b).unwrap().status(), IntervalStatus::RolledBack);
        assert_eq!(e.aid_state(x).unwrap(), AidState::Denied);
        assert!(fx
            .iter()
            .any(|f| matches!(f, Effect::AidDenied { aid } if *aid == x)));
    }

    #[test]
    fn self_affirm_finalizes_sole_dependent() {
        // §5.2 "self affirm": A depends only on X and affirms X.
        let (mut e, p) = engine_with(1);
        let x = e.aid_init(p[0]);
        let (oa, _) = e.guess(p[0], &[x], Checkpoint(0)).unwrap();
        let a = oa.interval().unwrap();
        let fx = e.affirm(p[0], x).unwrap();
        assert_eq!(e.interval(a).unwrap().status(), IntervalStatus::Definite);
        assert!(fx
            .iter()
            .any(|f| matches!(f, Effect::Finalized { interval, .. } if *interval == a)));
        assert!(!e.is_speculative(p[0]).unwrap());
        assert_eq!(e.aid_state(x).unwrap(), AidState::Affirmed);
    }

    #[test]
    fn one_shot_rule() {
        let (mut e, p) = engine_with(2);
        let x = e.aid_init(p[0]);
        e.affirm(p[0], x).unwrap();
        assert_eq!(e.affirm(p[1], x), Err(Error::AidConsumed(x)));
        assert_eq!(e.deny(p[1], x), Err(Error::AidConsumed(x)));
        assert_eq!(e.free_of(p[1], x), Err(Error::AidConsumed(x)));
        let y = e.aid_init(p[0]);
        e.deny(p[0], y).unwrap();
        assert_eq!(e.affirm(p[1], y), Err(Error::AidConsumed(y)));
        let z = e.aid_init(p[0]);
        e.free_of(p[0], z).unwrap();
        assert_eq!(e.deny(p[1], z), Err(Error::AidConsumed(z)));
    }

    #[test]
    fn free_of_definite_affirms() {
        let (mut e, p) = engine_with(2);
        let x = e.aid_init(p[0]);
        let (oa, _) = e.guess(p[1], &[x], Checkpoint(0)).unwrap();
        let fx = e.free_of(p[0], x).unwrap();
        assert!(fx.contains(&Effect::AidAffirmed { aid: x }));
        assert_eq!(e.aid_state(x).unwrap(), AidState::Affirmed);
        assert_eq!(
            e.interval(oa.interval().unwrap()).unwrap().status(),
            IntervalStatus::Definite
        );
    }

    #[test]
    fn free_of_speculative_affirms_when_independent() {
        let (mut e, p) = engine_with(2);
        let x = e.aid_init(p[0]);
        let y = e.aid_init(p[0]);
        e.guess(p[1], &[y], Checkpoint(0)).unwrap();
        // p1 depends on y but not x: free_of(x) is a speculative affirm.
        let fx = e.free_of(p[1], x).unwrap();
        assert!(fx
            .iter()
            .any(|f| matches!(f, Effect::SpeculativelyAffirmed { aid, .. } if *aid == x)));
        assert_eq!(e.aid_state(x).unwrap(), AidState::Undecided);
    }

    #[test]
    fn free_of_denies_when_dependent() {
        // Theorem 6.3's violated-constraint case.
        let (mut e, p) = engine_with(1);
        let x = e.aid_init(p[0]);
        let (oa, _) = e.guess(p[0], &[x], Checkpoint(0)).unwrap();
        let fx = e.free_of(p[0], x).unwrap();
        assert!(fx.contains(&Effect::AidDenied { aid: x }));
        assert_eq!(
            e.interval(oa.interval().unwrap()).unwrap().status(),
            IntervalStatus::RolledBack
        );
    }

    #[test]
    fn rollback_truncates_suffix() {
        // Theorem 5.1: rolling back A discards every later interval.
        let (mut e, p) = engine_with(1);
        let x = e.aid_init(p[0]);
        let y = e.aid_init(p[0]);
        let z = e.aid_init(p[0]);
        let (oa, _) = e.guess(p[0], &[x], Checkpoint(10)).unwrap();
        let (ob, _) = e.guess(p[0], &[y], Checkpoint(20)).unwrap();
        let (oc, _) = e.guess(p[0], &[z], Checkpoint(30)).unwrap();
        let (a, b, c) = (
            oa.interval().unwrap(),
            ob.interval().unwrap(),
            oc.interval().unwrap(),
        );
        let fx = e.deny(p[0], x).unwrap(); // definite (x ∈ current IDO)
        let rb = fx.iter().find(|f| f.is_rollback()).unwrap();
        match rb {
            Effect::RolledBack {
                intervals,
                checkpoint,
                ..
            } => {
                assert_eq!(intervals, &vec![a, b, c]);
                assert_eq!(*checkpoint, Checkpoint(10));
            }
            _ => unreachable!(),
        }
        for i in [a, b, c] {
            assert_eq!(e.interval(i).unwrap().status(), IntervalStatus::RolledBack);
        }
        // y and z remain undecided: they were guessed, not denied.
        assert_eq!(e.aid_state(y).unwrap(), AidState::Undecided);
        assert_eq!(e.aid_state(z).unwrap(), AidState::Undecided);
    }

    #[test]
    fn middle_deny_truncates_from_first_dependent() {
        let (mut e, p) = engine_with(2);
        let x = e.aid_init(p[0]);
        let y = e.aid_init(p[0]);
        let (oa, _) = e.guess(p[0], &[x], Checkpoint(1)).unwrap();
        let (ob, _) = e.guess(p[0], &[y], Checkpoint(2)).unwrap();
        // Deny y from outside: only B (and later) rolls back, A survives.
        e.deny(p[1], y).unwrap();
        assert_eq!(
            e.interval(oa.interval().unwrap()).unwrap().status(),
            IntervalStatus::Speculative
        );
        assert_eq!(
            e.interval(ob.interval().unwrap()).unwrap().status(),
            IntervalStatus::RolledBack
        );
        assert_eq!(e.history(p[0]).unwrap().len(), 1);
    }

    #[test]
    fn tags_and_implicit_guess() {
        let (mut e, p) = engine_with(2);
        let x = e.aid_init(p[0]);
        e.guess(p[0], &[x], Checkpoint(0)).unwrap();
        let tag = e.dependence_tag(p[0]).unwrap();
        assert!(tag.contains(x));
        let (out, fx) = e.implicit_guess(p[1], &tag, Checkpoint(5)).unwrap();
        let b = match out {
            ReceiveOutcome::Speculative(b) => b,
            other => panic!("expected speculative receive, got {other:?}"),
        };
        assert!(!fx.is_empty());
        assert!(e.interval(b).unwrap().ido().contains(&x));
        // Deny x: both processes roll back.
        let fx = e.deny(p[0], x).unwrap();
        let rolled: Vec<ProcessId> = fx
            .iter()
            .filter_map(|f| match f {
                Effect::RolledBack { process, .. } => Some(*process),
                _ => None,
            })
            .collect();
        assert!(rolled.contains(&p[0]) && rolled.contains(&p[1]));
    }

    #[test]
    fn ghost_messages_are_filtered() {
        let (mut e, p) = engine_with(2);
        let x = e.aid_init(p[0]);
        e.guess(p[0], &[x], Checkpoint(0)).unwrap();
        let tag = e.dependence_tag(p[0]).unwrap();
        e.deny(p[1], x).unwrap();
        let (out, fx) = e.implicit_guess(p[1], &tag, Checkpoint(0)).unwrap();
        assert_eq!(out, ReceiveOutcome::Ghost(x));
        assert!(fx.is_empty());
        assert!(!out.deliverable());
        assert_eq!(e.stats().ghosts, 1);
    }

    #[test]
    fn clean_receive_from_definite_sender() {
        let (mut e, p) = engine_with(2);
        let tag = e.dependence_tag(p[0]).unwrap();
        assert!(tag.is_empty());
        let (out, fx) = e.implicit_guess(p[1], &tag, Checkpoint(0)).unwrap();
        assert_eq!(out, ReceiveOutcome::Clean, "{fx:?}");
    }

    #[test]
    fn affirmed_tag_member_creates_no_dependence() {
        let (mut e, p) = engine_with(2);
        let x = e.aid_init(p[0]);
        e.guess(p[0], &[x], Checkpoint(0)).unwrap();
        let tag = e.dependence_tag(p[0]).unwrap();
        e.affirm(p[1], x).unwrap();
        let (out, _) = e.implicit_guess(p[1], &tag, Checkpoint(0)).unwrap();
        assert_eq!(out, ReceiveOutcome::Clean);
    }

    #[test]
    fn transitive_rollback_across_three_processes() {
        let (mut e, p) = engine_with(3);
        let x = e.aid_init(p[0]);
        e.guess(p[0], &[x], Checkpoint(0)).unwrap();
        let tag0 = e.dependence_tag(p[0]).unwrap();
        e.implicit_guess(p[1], &tag0, Checkpoint(0)).unwrap();
        let tag1 = e.dependence_tag(p[1]).unwrap();
        e.implicit_guess(p[2], &tag1, Checkpoint(0)).unwrap();
        let fx = e.deny(p[0], x).unwrap();
        let rolled: BTreeSet<ProcessId> = fx
            .iter()
            .filter_map(|f| match f {
                Effect::RolledBack { process, .. } => Some(*process),
                _ => None,
            })
            .collect();
        assert_eq!(rolled.len(), 3);
    }

    #[test]
    fn resume_point_guess_reexecutes_false() {
        // After rollback, re-executing the guess of the earliest discarded
        // interval must observe AlreadyFalse (the runtime relies on this).
        let (mut e, p) = engine_with(2);
        let x = e.aid_init(p[0]);
        e.guess(p[0], &[x], Checkpoint(0)).unwrap();
        e.deny(p[1], x).unwrap();
        let (out, _) = e.guess(p[0], &[x], Checkpoint(0)).unwrap();
        assert_eq!(out, GuessOutcome::AlreadyFalse(x));
    }

    #[test]
    fn stats_accumulate() {
        let (mut e, p) = engine_with(2);
        let x = e.aid_init(p[0]);
        let y = e.aid_init(p[0]);
        e.guess(p[0], &[x], Checkpoint(0)).unwrap();
        e.guess(p[0], &[y], Checkpoint(0)).unwrap();
        e.affirm(p[1], x).unwrap();
        e.deny(p[1], y).unwrap();
        let s = e.stats();
        assert_eq!(s.guesses, 2);
        assert_eq!(s.definite_affirms, 1);
        assert_eq!(s.definite_denies, 1);
        assert_eq!(s.rollback_events, 1);
        assert_eq!(s.rolled_back_intervals, 1);
        // Affirming x empties the first interval's IDO, finalizing it.
        assert_eq!(s.finalized, 1);
    }

    #[test]
    fn unknown_ids_are_rejected() {
        let (mut e, p) = engine_with(1);
        let x = e.aid_init(p[0]);
        let ghost_pid = ProcessId(99);
        let ghost_aid = AidId(99);
        assert_eq!(
            e.guess(ghost_pid, &[x], Checkpoint(0)),
            Err(Error::UnknownProcess(ghost_pid))
        );
        assert_eq!(
            e.guess(p[0], &[ghost_aid], Checkpoint(0)),
            Err(Error::UnknownAid(ghost_aid))
        );
        assert_eq!(
            e.affirm(ghost_pid, x),
            Err(Error::UnknownProcess(ghost_pid))
        );
        assert_eq!(e.affirm(p[0], ghost_aid), Err(Error::UnknownAid(ghost_aid)));
        assert!(e.aid(ghost_aid).is_err());
        assert!(e.interval(IntervalId(42)).is_err());
        assert!(e.history(ghost_pid).is_err());
    }

    #[test]
    fn manual_finalize_respects_equation_20() {
        let (mut e, p) = engine_with(2);
        let x = e.aid_init(p[0]);
        let (oa, _) = e.guess(p[0], &[x], Checkpoint(0)).unwrap();
        let a = oa.interval().unwrap();
        // Speculative with a non-empty IDO: the precondition fails.
        assert_eq!(e.finalize(a), Err(Error::FinalizePrecondition(a)));
        // Once affirmed, the interval is definite; finalize is a no-op.
        e.affirm(p[1], x).unwrap();
        assert_eq!(e.finalize(a), Ok(Vec::new()));
        // Rolled-back intervals can never be finalized.
        let y = e.aid_init(p[0]);
        let (ob, _) = e.guess(p[0], &[y], Checkpoint(1)).unwrap();
        let b = ob.interval().unwrap();
        e.deny(p[1], y).unwrap();
        assert_eq!(e.finalize(b), Err(Error::FinalizePrecondition(b)));
        assert_eq!(
            e.finalize(IntervalId(404)),
            Err(Error::UnknownInterval(IntervalId(404)))
        );
    }

    #[test]
    fn invariants_hold_after_every_scenario() {
        let (mut e, p) = engine_with(3);
        let x = e.aid_init(p[0]);
        let y = e.aid_init(p[1]);
        let z = e.aid_init(p[2]);
        e.guess(p[0], &[x], Checkpoint(0)).unwrap();
        e.guess(p[1], &[y], Checkpoint(0)).unwrap();
        e.guess(p[2], &[z], Checkpoint(0)).unwrap();
        e.affirm(p[1], x).unwrap(); // speculative
        e.deny(p[2], y).unwrap(); // speculative
        e.affirm(p[0], z).unwrap(); // speculative (p0 still spec on... x was
                                    // spec-affirmed; p0's interval IDO now {y})
        assert!(e.verify_invariants().is_ok());
    }

    #[test]
    fn collect_fossils_reclaims_decided_prefix() {
        let (mut e, p) = engine_with(2);
        for i in 0..4 {
            let x = e.aid_init(p[0]);
            e.guess(p[0], &[x], Checkpoint(i)).unwrap();
            e.affirm(p[1], x).unwrap();
        }
        let sweep = e.collect_fossils();
        assert_eq!(sweep.intervals, 4);
        assert_eq!(sweep.aids, 4);
        assert_eq!(sweep.interval_horizon, 4);
        assert_eq!(sweep.aid_horizon, 4);
        assert_eq!(e.live_interval_count(), 0);
        assert_eq!(e.live_aid_count(), 0);
        // Totals keep counting from the beginning of time.
        assert_eq!(e.interval_count(), 4);
        assert_eq!(e.aid_count(), 4);
        assert_eq!(e.stats().fossil_intervals, 4);
        assert_eq!(e.stats().fossil_aids, 4);
        // Affirmed fossils leave no residue.
        assert_eq!(e.fossil_denied_count(), 0);
        // New ids continue above the horizon; seq stays history-absolute.
        let y = e.aid_init(p[0]);
        assert_eq!(y, AidId(4));
        let (out, _) = e.guess(p[0], &[y], Checkpoint(9)).unwrap();
        let a = out.interval().unwrap();
        assert_eq!(a, IntervalId(4));
        assert_eq!(e.interval(a).unwrap().seq(), 4);
    }

    #[test]
    fn collection_is_idempotent_and_pinned_by_speculation() {
        let (mut e, p) = engine_with(2);
        let x = e.aid_init(p[0]);
        e.guess(p[0], &[x], Checkpoint(0)).unwrap();
        e.affirm(p[1], x).unwrap();
        let y = e.aid_init(p[0]);
        e.guess(p[0], &[y], Checkpoint(1)).unwrap(); // still speculative
        let s1 = e.collect_fossils();
        assert_eq!((s1.intervals, s1.aids), (1, 1));
        // The open speculation pins both horizons; a second sweep is a no-op.
        let s2 = e.collect_fossils();
        assert_eq!((s2.intervals, s2.aids), (0, 0));
        assert_eq!(s2.interval_horizon, 1);
        assert_eq!(s2.aid_horizon, 1);
        // Deciding y unblocks the remainder on the next sweep.
        e.affirm(p[0], y).unwrap(); // self-affirm of the sole dependent finalizes
        let s3 = e.collect_fossils();
        assert_eq!((s3.intervals, s3.aids), (1, 1));
        // An undecided AID pins the horizon for every AID created after it.
        let pin = e.aid_init(p[0]);
        let z = e.aid_init(p[0]);
        e.deny(p[1], z).unwrap();
        assert_eq!(e.collect_fossils().aids, 0);
        let _ = pin;
    }

    #[test]
    fn fossil_denied_aids_stay_visible_to_primitives() {
        let (mut e, p) = engine_with(2);
        let x = e.aid_init(p[0]);
        e.guess(p[0], &[x], Checkpoint(0)).unwrap();
        let tag = e.dependence_tag(p[0]).unwrap();
        e.deny(p[1], x).unwrap();
        let sweep = e.collect_fossils();
        assert_eq!(sweep.aids, 1);
        assert_eq!(e.fossil_denied_count(), 1);
        // aid_state answers transparently from the fossil record.
        assert_eq!(e.aid_state(x).unwrap(), AidState::Denied);
        // A late guess on the reclaimed denied AID is still already-false.
        let (out, _) = e.guess(p[0], &[x], Checkpoint(1)).unwrap();
        assert_eq!(out, GuessOutcome::AlreadyFalse(x));
        // A stale in-flight tag naming it is still a ghost message.
        let (out, _) = e.implicit_guess(p[1], &tag, Checkpoint(0)).unwrap();
        assert_eq!(out, ReceiveOutcome::Ghost(x));
        // A second decider still trips the one-shot rule.
        assert_eq!(e.affirm(p[1], x), Err(Error::AidConsumed(x)));
        assert_eq!(e.deny(p[1], x), Err(Error::AidConsumed(x)));
    }

    #[test]
    fn fossil_affirmed_aids_stay_visible_to_primitives() {
        let (mut e, p) = engine_with(2);
        let x = e.aid_init(p[0]);
        e.guess(p[0], &[x], Checkpoint(0)).unwrap();
        let tag = e.dependence_tag(p[0]).unwrap();
        e.affirm(p[1], x).unwrap();
        e.collect_fossils();
        assert_eq!(e.aid_state(x).unwrap(), AidState::Affirmed);
        // Guessing on an affirmed fossil proceeds definitely, as on a live
        // affirmed AID.
        let (out, _) = e.guess(p[0], &[x], Checkpoint(1)).unwrap();
        let a = out.interval().unwrap();
        assert_eq!(e.interval(a).unwrap().status(), IntervalStatus::Definite);
        // An affirmed fossil in a tag creates no dependence.
        let (out, _) = e.implicit_guess(p[1], &tag, Checkpoint(0)).unwrap();
        assert_eq!(out, ReceiveOutcome::Clean);
        assert_eq!(e.affirm(p[0], x), Err(Error::AidConsumed(x)));
    }

    #[test]
    fn fossil_views_report_reclamation() {
        let (mut e, p) = engine_with(2);
        let x = e.aid_init(p[0]);
        let (out, _) = e.guess(p[0], &[x], Checkpoint(0)).unwrap();
        let a = out.interval().unwrap();
        e.affirm(p[1], x).unwrap();
        e.collect_fossils();
        assert_eq!(e.aid(x).map(|_| ()), Err(Error::FossilAid(x)));
        assert_eq!(e.interval(a).map(|_| ()), Err(Error::FossilInterval(a)));
        assert_eq!(e.finalize(a), Err(Error::FossilInterval(a)));
        // Genuinely unknown ids are still distinguished from fossils.
        assert_eq!(
            e.aid(AidId(99)).map(|_| ()),
            Err(Error::UnknownAid(AidId(99)))
        );
    }

    #[test]
    fn collection_is_transparent_to_a_twin_engine() {
        // Drive two engines through an identical op sequence, sweeping one
        // of them aggressively, and compare every observable outcome.
        let run = |collect: bool| -> Vec<String> {
            let (mut e, p) = engine_with(3);
            let mut obs = Vec::new();
            let mut aids = Vec::new();
            for round in 0..12u64 {
                let x = e.aid_init(p[(round % 3) as usize]);
                aids.push(x);
                let (out, fx) = e
                    .guess(p[(round % 3) as usize], &[x], Checkpoint(round))
                    .unwrap();
                obs.push(format!("{out:?} {fx:?}"));
                let decider = p[((round + 1) % 3) as usize];
                let fx = if round % 3 == 0 {
                    e.deny(decider, x).unwrap()
                } else {
                    e.affirm(decider, x).unwrap()
                };
                obs.push(format!("{fx:?}"));
                if collect {
                    e.collect_fossils();
                }
                for &seen in &aids {
                    obs.push(format!("{:?}", e.aid_state(seen)));
                }
            }
            obs
        };
        assert_eq!(run(false), run(true));
    }

    #[test]
    fn history_survives_collection_for_live_suffix() {
        let (mut e, p) = engine_with(2);
        // One definite interval, then an open speculative one.
        let x = e.aid_init(p[0]);
        e.guess(p[0], &[x], Checkpoint(0)).unwrap();
        e.affirm(p[1], x).unwrap();
        let y = e.aid_init(p[0]);
        let (out, _) = e.guess(p[0], &[y], Checkpoint(1)).unwrap();
        let b = out.interval().unwrap();
        e.collect_fossils();
        let hist = e.history(p[0]).unwrap();
        assert_eq!(hist, vec![b]);
        // Rollback of the live suffix still works after truncation.
        e.deny(p[1], y).unwrap();
        assert!(e.history(p[0]).unwrap().is_empty());
        assert!(e.verify_invariants().is_ok());
    }
}
