//! The relation oracle: the chain-compressed engine against the literal
//! transcription of §5.
//!
//! A reference engine (`RefEngine`) transcribes Equations 1–24 edge by edge
//! on plain `BTreeSet`s — every interval holds its full `IDO`, every AID
//! its full `DOM`, in the pre-`DepSet` representation and iteration orders
//! — and random primitive sequences are driven against both engines in
//! lockstep. Every operation must produce identical results and effect
//! streams, and after every step the control-variable state (histories,
//! statuses, materialized `IDO`/`DOM`, `IHD`/`IHA`/`guessed`, tags) must be
//! identical; so must the relation the stored chain alone determines (each
//! interval's entered set). Any divergence introduced by storing the relation as
//! per-process chains (`Engine` module docs, § Storage) or by the hybrid
//! inline/bitset sets — ordering, head bookkeeping, COW aliasing, spill
//! boundaries — fails here.
//!
//! Receives get the widest coverage, because the engine no longer reads a
//! tag name by name: it looks up only the names the receiver neither holds
//! nor knows to be affirmed (`Engine::implicit_guess`). `Op::RecvMixed`
//! delivers inline tags that no send produced — any subset of the AIDs,
//! held, fresh, speculatively affirmed, affirmed, denied (live, or a fossil
//! in the collected twin) and never allocated, at once — and `Op::RecvSpan`
//! spilled ones of hundreds of mostly affirmed names. Every script of the
//! theorem suite's alphabet up to length 3 is played, not sampled. One
//! directed case settles 70,000 AIDs before it starts, so that its spilled
//! sets' word windows sit far from id 0.

use std::collections::{BTreeMap, BTreeSet, VecDeque};
use std::ops::Range;

use hope_core::{
    AidId, AidState, Checkpoint, Effect, Engine, Error, GuessOutcome, IntervalId, IntervalStatus,
    ProcessId, ReceiveOutcome, Tag,
};
use hope_sim::SimRng;

// ---------------------------------------------------------------------
// Reference engine: the original BTreeSet-based algorithm.
// ---------------------------------------------------------------------

#[derive(Clone)]
struct RefAid {
    state: AidState,
    dom: BTreeSet<IntervalId>,
    consumed: bool,
    spec_affirmed_by: Option<IntervalId>,
    spec_denied_by: Option<IntervalId>,
}

#[derive(Clone)]
struct RefInterval {
    pid: ProcessId,
    ps: Checkpoint,
    ido: BTreeSet<AidId>,
    ihd: BTreeSet<AidId>,
    iha: BTreeSet<AidId>,
    guessed: BTreeSet<AidId>,
    status: IntervalStatus,
}

enum Task {
    Finalize(IntervalId),
    Rollback(IntervalId),
}

/// Operation results, shape-compatible with the real engine's.
type RefResult<T> = Result<T, String>;

#[derive(Default)]
struct RefEngine {
    aids: Vec<RefAid>,
    intervals: Vec<RefInterval>,
    procs: BTreeMap<ProcessId, Vec<IntervalId>>,
    next_pid: u32,
}

impl RefEngine {
    fn register_process(&mut self) -> ProcessId {
        let pid = ProcessId(self.next_pid);
        self.next_pid += 1;
        self.procs.insert(pid, Vec::new());
        pid
    }

    fn aid_init(&mut self) -> AidId {
        let id = AidId::from_index(self.aids.len() as u64);
        self.aids.push(RefAid {
            state: AidState::Undecided,
            dom: BTreeSet::new(),
            consumed: false,
            spec_affirmed_by: None,
            spec_denied_by: None,
        });
        id
    }

    fn aid_mut(&mut self, x: AidId) -> &mut RefAid {
        &mut self.aids[x.index() as usize]
    }

    fn current_interval(&self, pid: ProcessId) -> Option<IntervalId> {
        self.procs[&pid]
            .last()
            .copied()
            .filter(|a| self.intervals[a.index() as usize].status == IntervalStatus::Speculative)
    }

    fn dependence_tag(&self, pid: ProcessId) -> BTreeSet<AidId> {
        match self.current_interval(pid) {
            Some(a) => self.intervals[a.index() as usize].ido.clone(),
            None => BTreeSet::new(),
        }
    }

    fn guess(
        &mut self,
        pid: ProcessId,
        aids: &[AidId],
        ps: Checkpoint,
    ) -> RefResult<(Option<IntervalId>, Vec<Effect>)> {
        if aids.is_empty() {
            return Err("EmptyGuess".into());
        }
        if let Some(&denied) = aids
            .iter()
            .find(|&&x| self.aids[x.index() as usize].state == AidState::Denied)
        {
            let _ = denied;
            return Ok((None, Vec::new()));
        }
        // The original hot path: clone the parent IDO (clone #1), resolve
        // the guessed set, store a second clone in the interval (clone #2).
        let parent_ido: BTreeSet<AidId> = match self.current_interval(pid) {
            Some(a) => self.intervals[a.index() as usize].ido.clone(),
            None => BTreeSet::new(),
        };
        let mut guessed: BTreeSet<AidId> = BTreeSet::new();
        for &x in aids {
            let aid = &self.aids[x.index() as usize];
            if aid.state != AidState::Undecided {
                continue;
            }
            match aid.spec_affirmed_by {
                Some(a) => guessed.extend(self.intervals[a.index() as usize].ido.iter().copied()),
                None => {
                    guessed.insert(x);
                }
            }
        }
        let mut ido = parent_ido;
        ido.extend(guessed.iter().copied());

        let id = IntervalId::from_index(self.intervals.len() as u64);
        self.procs.get_mut(&pid).unwrap().push(id);
        self.intervals.push(RefInterval {
            pid,
            ps,
            ido: ido.clone(),
            ihd: BTreeSet::new(),
            iha: BTreeSet::new(),
            guessed,
            status: IntervalStatus::Speculative,
        });
        for &x in &ido {
            self.aids[x.index() as usize].dom.insert(id);
        }

        let mut effects = vec![Effect::IntervalStarted {
            interval: id,
            process: pid,
        }];
        if ido.is_empty() {
            let mut wl = VecDeque::new();
            self.do_finalize(id, &mut effects, &mut wl);
            self.drain(&mut wl, &mut effects);
        }
        Ok((Some(id), effects))
    }

    fn implicit_guess(
        &mut self,
        pid: ProcessId,
        tag: &BTreeSet<AidId>,
        ps: Checkpoint,
    ) -> RefResult<(ReceiveOutcome, Vec<Effect>)> {
        // A name nobody allocated is an error before anything else is read.
        if let Some(&x) = tag.iter().find(|x| x.index() as usize >= self.aids.len()) {
            return Err(Error::UnknownAid(x).to_string());
        }
        if let Some(&denied) = tag
            .iter()
            .find(|&&x| self.aids[x.index() as usize].state == AidState::Denied)
        {
            return Ok((ReceiveOutcome::Ghost(denied), Vec::new()));
        }
        let undecided: Vec<AidId> = tag
            .iter()
            .copied()
            .filter(|&x| self.aids[x.index() as usize].state == AidState::Undecided)
            .collect();
        if undecided.is_empty() {
            return Ok((ReceiveOutcome::Clean, Vec::new()));
        }
        let (outcome, effects) = self.guess(pid, &undecided, ps)?;
        match outcome {
            Some(a) => Ok((ReceiveOutcome::Speculative(a), effects)),
            None => unreachable!("denied AIDs were filtered above"),
        }
    }

    fn consume(&mut self, x: AidId) -> RefResult<()> {
        let aid = self.aid_mut(x);
        if aid.consumed {
            return Err("AidConsumed".into());
        }
        aid.consumed = true;
        Ok(())
    }

    fn affirm(&mut self, pid: ProcessId, x: AidId) -> RefResult<Vec<Effect>> {
        self.consume(x)?;
        let mut effects = Vec::new();
        let mut wl = VecDeque::new();
        self.affirm_inner(pid, x, &mut effects, &mut wl);
        self.drain(&mut wl, &mut effects);
        Ok(effects)
    }

    fn deny(&mut self, pid: ProcessId, x: AidId) -> RefResult<Vec<Effect>> {
        self.consume(x)?;
        let mut effects = Vec::new();
        let mut wl = VecDeque::new();
        self.deny_inner(pid, x, &mut effects, &mut wl);
        self.drain(&mut wl, &mut effects);
        Ok(effects)
    }

    fn free_of(&mut self, pid: ProcessId, x: AidId) -> RefResult<Vec<Effect>> {
        self.consume(x)?;
        let mut effects = Vec::new();
        let mut wl = VecDeque::new();
        let depends = self
            .current_interval(pid)
            .map(|a| self.intervals[a.index() as usize].ido.contains(&x));
        match depends {
            None | Some(false) => self.affirm_inner(pid, x, &mut effects, &mut wl),
            Some(true) => self.deny_inner(pid, x, &mut effects, &mut wl),
        }
        self.drain(&mut wl, &mut effects);
        Ok(effects)
    }

    fn affirm_inner(
        &mut self,
        pid: ProcessId,
        x: AidId,
        effects: &mut Vec<Effect>,
        wl: &mut VecDeque<Task>,
    ) {
        match self.current_interval(pid) {
            None => {
                effects.push(Effect::AidAffirmed { aid: x });
                self.definite_affirm_aid(x, wl);
            }
            Some(a) => {
                let a_idx = a.index() as usize;
                let a_ido: Vec<AidId> = self.intervals[a_idx]
                    .ido
                    .iter()
                    .copied()
                    .filter(|&y| y != x)
                    .collect();
                let x_dom: Vec<IntervalId> = std::mem::take(&mut self.aid_mut(x).dom)
                    .into_iter()
                    .collect();
                for &y in &a_ido {
                    self.aids[y.index() as usize]
                        .dom
                        .extend(x_dom.iter().copied());
                }
                for &b in &x_dom {
                    let b_idx = b.index() as usize;
                    self.intervals[b_idx].ido.remove(&x);
                    self.intervals[b_idx].ido.extend(a_ido.iter().copied());
                    if self.intervals[b_idx].ido.is_empty() {
                        wl.push_back(Task::Finalize(b));
                    }
                }
                self.aid_mut(x).spec_affirmed_by = Some(a);
                self.intervals[a_idx].iha.insert(x);
                effects.push(Effect::SpeculativelyAffirmed { aid: x, by: a });
            }
        }
    }

    fn deny_inner(
        &mut self,
        pid: ProcessId,
        x: AidId,
        effects: &mut Vec<Effect>,
        wl: &mut VecDeque<Task>,
    ) {
        let cur = self.current_interval(pid);
        let definite = match cur {
            None => true,
            Some(a) => self.intervals[a.index() as usize].ido.contains(&x),
        };
        if definite {
            effects.push(Effect::AidDenied { aid: x });
            self.definite_deny_aid(x, wl);
        } else {
            let a = cur.unwrap();
            self.intervals[a.index() as usize].ihd.insert(x);
            self.aid_mut(x).spec_denied_by = Some(a);
            effects.push(Effect::SpeculativelyDenied { aid: x, by: a });
        }
    }

    fn definite_affirm_aid(&mut self, x: AidId, wl: &mut VecDeque<Task>) {
        let aid = self.aid_mut(x);
        aid.state = AidState::Affirmed;
        aid.spec_affirmed_by = None;
        aid.consumed = true;
        let dom: Vec<IntervalId> = std::mem::take(&mut aid.dom).into_iter().collect();
        for b in dom {
            let b_idx = b.index() as usize;
            self.intervals[b_idx].ido.remove(&x);
            if self.intervals[b_idx].ido.is_empty() {
                wl.push_back(Task::Finalize(b));
            }
        }
    }

    fn definite_deny_aid(&mut self, x: AidId, wl: &mut VecDeque<Task>) {
        let aid = self.aid_mut(x);
        aid.state = AidState::Denied;
        aid.spec_affirmed_by = None;
        aid.spec_denied_by = None;
        aid.consumed = true;
        let dom: Vec<IntervalId> = std::mem::take(&mut aid.dom).into_iter().collect();
        for b in dom {
            wl.push_back(Task::Rollback(b));
        }
    }

    fn drain(&mut self, wl: &mut VecDeque<Task>, effects: &mut Vec<Effect>) {
        while let Some(task) = wl.pop_front() {
            match task {
                Task::Finalize(a) => self.do_finalize(a, effects, wl),
                Task::Rollback(a) => self.do_rollback(a, effects, wl),
            }
        }
    }

    fn do_finalize(&mut self, a: IntervalId, effects: &mut Vec<Effect>, wl: &mut VecDeque<Task>) {
        let idx = a.index() as usize;
        if self.intervals[idx].status != IntervalStatus::Speculative {
            return;
        }
        self.intervals[idx].status = IntervalStatus::Definite;
        effects.push(Effect::Finalized {
            interval: a,
            process: self.intervals[idx].pid,
        });
        let iha: Vec<AidId> = self.intervals[idx].iha.iter().copied().collect();
        for x in iha {
            if self.aids[x.index() as usize].state == AidState::Undecided {
                effects.push(Effect::AidAffirmed { aid: x });
                self.definite_affirm_aid(x, wl);
            }
        }
        let ihd: Vec<AidId> = self.intervals[idx].ihd.iter().copied().collect();
        for x in ihd {
            if self.aids[x.index() as usize].state == AidState::Undecided {
                effects.push(Effect::AidDenied { aid: x });
                self.definite_deny_aid(x, wl);
            }
        }
    }

    fn do_rollback(&mut self, a: IntervalId, effects: &mut Vec<Effect>, wl: &mut VecDeque<Task>) {
        let idx = a.index() as usize;
        match self.intervals[idx].status {
            IntervalStatus::RolledBack | IntervalStatus::Definite => return,
            IntervalStatus::Speculative => {}
        }
        let pid = self.intervals[idx].pid;
        let history = self.procs.get_mut(&pid).unwrap();
        let pos = match history.iter().position(|&i| i == a) {
            Some(p) => p,
            None => return,
        };
        let discarded = history.split_off(pos);
        let checkpoint = self.intervals[idx].ps;

        for &c in discarded.iter().rev() {
            let c_idx = c.index() as usize;
            self.intervals[c_idx].status = IntervalStatus::RolledBack;
            let ido = std::mem::take(&mut self.intervals[c_idx].ido); // dead state, read by nothing
            for x in ido {
                self.aids[x.index() as usize].dom.remove(&c);
            }
            let iha: Vec<AidId> = self.intervals[c_idx].iha.iter().copied().collect();
            for x in iha {
                self.aid_mut(x).spec_affirmed_by = None;
                if self.aids[x.index() as usize].state == AidState::Undecided {
                    effects.push(Effect::AidDenied { aid: x });
                    self.definite_deny_aid(x, wl);
                }
            }
            let ihd: Vec<AidId> = self.intervals[c_idx].ihd.iter().copied().collect();
            for x in ihd {
                if self.aids[x.index() as usize].spec_denied_by == Some(c) {
                    self.aid_mut(x).spec_denied_by = None;
                    if self.aids[x.index() as usize].state == AidState::Undecided {
                        self.aid_mut(x).consumed = false;
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
}

// ---------------------------------------------------------------------
// Lockstep driver.
// ---------------------------------------------------------------------

const N_PROCS: u32 = 3;
/// AIDs created before the first op; `Op::AidInit` adds more.
const N_AIDS: u64 = 6;

/// One random primitive. Raw indices are mapped onto the ids that exist at
/// play time (modulo the current AID or tag count).
#[derive(Debug, Clone, Copy)]
enum Op {
    /// Create one more AID, so chains can outgrow the initial pool.
    AidInit,
    Guess(u32, u64),
    Affirm(u32, u64),
    Deny(u32, u64),
    FreeOf(u32, u64),
    Send(u32),
    Recv(u32, u64),
    /// Receive a tag no send produced: bit `i < 15` of the mask names AID
    /// `i` (if it exists), bit 15 an id the engine never allocated.
    RecvMixed(u32, u64),
    /// Create this many AIDs, `P2` affirming each as it is created: one
    /// step, so that a directed case can put its ids far from zero. Never
    /// drawn at random.
    Settled(u64),
    /// Receive a tag naming every AID in `from..to`, and the first id the
    /// engine never allocated if `to` passes the last one: a spilled tag
    /// that no send produced. Never drawn at random.
    RecvSpan(u32, u64, u64),
}

/// The tag an [`Op::RecvSpan`] over `from..to` names once `count` AIDs
/// exist.
fn span_tag(from: u64, to: u64, count: usize) -> BTreeSet<AidId> {
    let count = count as u64;
    let unknown = (to > count).then_some(count);
    (from..to.min(count))
        .chain(unknown)
        .map(AidId::from_index)
        .collect()
}

/// The tag an [`Op::RecvMixed`] mask names once `count` AIDs exist.
fn mixed_tag(mask: u64, count: usize) -> BTreeSet<AidId> {
    let known = (0..count.min(15) as u64).filter(|i| mask >> i & 1 == 1);
    let unknown = (mask >> 15 & 1 == 1).then_some(count as u64 + 1);
    known.chain(unknown).map(AidId::from_index).collect()
}

/// One random op: a kind of ten, a process and a raw index, drawn in that
/// order.
fn random_op(rng: &mut SimRng) -> Op {
    let kind = rng.range_u64(0, 10);
    let p = rng.range_u64(0, N_PROCS.into()) as u32;
    let x = rng.range_u64(0, 1 << 16);
    match kind {
        0..=2 => Op::Guess(p, x),
        3 => Op::Affirm(p, x),
        4 => Op::Deny(p, x),
        5 => Op::FreeOf(p, x),
        6 => Op::Send(p),
        7 => Op::Recv(p, x),
        // Sparse masks (the AND of two draws' worth of bits), so that a
        // tag does not nearly always hold a denied name; one in eight also
        // names an unallocated id.
        8 => Op::RecvMixed(p, (x & (x >> 3) & 0x7fff) | ((x & 7 == 0) as u64 * 0x8000)),
        _ => Op::AidInit,
    }
}

/// The AID a raw op index names once `count` AIDs exist.
fn nth_aid(x: u64, count: usize) -> AidId {
    AidId::from_index(x % count as u64)
}

/// The AID indexes below `count` that are not in `skip`.
fn aids_outside(skip: &Range<u64>, count: u64) -> impl Iterator<Item = u64> {
    (0..skip.start).chain(skip.end..count)
}

/// What [`Op::Settled`] created is compared at the step that created it and
/// at the last step; nothing a case does later names it.
fn settled_skip(settled: &Range<u64>, op: Op, last: bool) -> Range<u64> {
    if last || matches!(op, Op::Settled(_)) {
        0..0
    } else {
        settled.clone()
    }
}

/// Assert the real engine and the reference agree on every observable, on
/// every AID outside `skip`.
fn assert_state_agrees(engine: &Engine, reference: &RefEngine, step: usize, skip: Range<u64>) {
    for p in 0..N_PROCS {
        let pid = ProcessId(p);
        assert_eq!(
            engine.history(pid).unwrap(),
            reference.procs[&pid].as_slice(),
            "history of {pid} diverged at step {step}"
        );
        let tag: Vec<AidId> = engine.dependence_tag(pid).unwrap().iter().collect();
        let ref_tag: Vec<AidId> = reference.dependence_tag(pid).into_iter().collect();
        assert_eq!(tag, ref_tag, "tag of {pid} diverged at step {step}");
    }
    for i in 0..engine.interval_count() {
        let id = IntervalId::from_index(i as u64);
        let view = engine.interval(id).unwrap();
        let r = &reference.intervals[i];
        assert_eq!(view.status(), r.status, "status of {id} at step {step}");
        assert!(
            view.ido().iter().eq(r.ido.iter().copied()),
            "IDO of {id} diverged at step {step}: {:?} vs {:?}",
            view.ido(),
            r.ido
        );
        assert!(view.ihd().iter().eq(r.ihd.iter().copied()), "IHD of {id}");
        assert!(view.iha().iter().eq(r.iha.iter().copied()), "IHA of {id}");
        assert!(
            view.guessed().iter().eq(r.guessed.iter().copied()),
            "guessed of {id}"
        );
    }
    assert_eq!(engine.aid_count(), reference.aids.len());
    for x in aids_outside(&skip, reference.aids.len() as u64) {
        let (id, r) = (AidId::from_index(x), &reference.aids[x as usize]);
        let view = engine.aid(id).unwrap();
        assert_eq!(view.state(), r.state, "state of {id} at step {step}");
        assert_eq!(view.is_consumed(), r.consumed, "consumed of {id}");
        assert_eq!(view.speculatively_affirmed_by(), r.spec_affirmed_by);
        assert_eq!(view.speculatively_denied_by(), r.spec_denied_by);
        assert!(
            view.dom().iter().eq(r.dom.iter().copied()),
            "DOM of {id} diverged at step {step}: {:?} vs {:?}",
            view.dom(),
            r.dom
        );
    }
}

/// Assert that the chain as stored determines the relation, on the engine
/// alone: along each process's chain the entered sets
/// ([`IntervalView::entered`](hope_core::IntervalView::entered)) are
/// pairwise disjoint and every interval's `IDO` is their union up to it,
/// definite intervals store nothing, and every AID outside `skip` has as
/// its `DOM` the history suffixes from the intervals whose entered set
/// holds it.
fn assert_chain_determines_relation(engine: &Engine, step: usize, skip: Range<u64>) {
    let mut dom: BTreeMap<AidId, BTreeSet<IntervalId>> = BTreeMap::new();
    for p in 0..N_PROCS {
        let pid = ProcessId(p);
        let history = engine.history(pid).unwrap();
        let mut ido = BTreeSet::new();
        for (pos, &a) in history.iter().enumerate() {
            let view = engine.interval(a).unwrap();
            if view.status() != IntervalStatus::Speculative {
                assert!(
                    view.entered().is_empty(),
                    "definite {a} stores AIDs at step {step}"
                );
                continue;
            }
            for x in view.entered() {
                assert!(
                    ido.insert(x),
                    "{x} entered {pid}'s chain twice (at {a}, step {step})"
                );
                dom.entry(x).or_default().extend(&history[pos..]);
            }
            assert!(
                view.ido().iter().eq(ido.iter().copied()),
                "IDO of {a} is not its chain's union at step {step}: {:?} vs {ido:?}",
                view.ido()
            );
        }
    }
    for x in aids_outside(&skip, engine.aid_count() as u64) {
        let id = AidId::from_index(x);
        let Ok(view) = engine.aid(id) else { continue };
        let want = dom.remove(&id).unwrap_or_default();
        assert!(
            view.dom().iter().eq(want.iter().copied()),
            "DOM of {id} is not its heads' suffixes at step {step}: {:?} vs {want:?}",
            view.dom()
        );
    }
}

/// Deliver one tag to both engines and compare what they answer, an error
/// included.
fn recv_both(
    engine: &mut Engine,
    reference: &mut RefEngine,
    (pid, ck, step): (ProcessId, Checkpoint, usize),
    tag: &Tag,
    ref_tag: &BTreeSet<AidId>,
) {
    let got = engine.implicit_guess(pid, tag, ck);
    let want = reference.implicit_guess(pid, ref_tag, ck);
    match (got, want) {
        (Ok((out, fx)), Ok((ref_out, ref_fx))) => {
            assert_eq!(out, ref_out, "recv outcome at step {step}");
            assert_eq!(fx, ref_fx, "recv effects at step {step}");
        }
        (Err(e), Err(ref_e)) => assert_eq!(e.to_string(), ref_e, "step {step}"),
        (got, want) => panic!("recv disagreement at {step}: {got:?} vs {want:?}"),
    }
}

fn play(ops: &[Op]) {
    play_comparing_state_every(1, ops);
}

/// Drive both engines through `ops`, comparing results and effect streams
/// at every step, and the whole control-variable state and what the
/// stored chain determines of it at every `stride`-th step and at the end
/// (reading every `IDO` off a 200-deep chain is quadratic; the deep
/// directed cases thin it out).
fn play_comparing_state_every(stride: usize, ops: &[Op]) {
    let mut engine = Engine::new();
    engine.set_invariant_checking(true);
    let mut reference = RefEngine::default();
    for _ in 0..N_PROCS {
        let a = engine.register_process();
        let b = reference.register_process();
        assert_eq!(a, b);
    }
    for _ in 0..N_AIDS {
        let a = engine.aid_init(ProcessId(0));
        let b = reference.aid_init();
        assert_eq!(a, b);
    }

    // Tag pools captured by Send and replayed by Recv.
    let mut tags: Vec<Tag> = Vec::new();
    let mut ref_tags: Vec<BTreeSet<AidId>> = Vec::new();
    let mut ck = 0u64;
    let mut settled = 0..0;

    for (step, &op) in ops.iter().enumerate() {
        ck += 1;
        let n_aids = engine.aid_count();
        match op {
            Op::AidInit => assert_eq!(engine.aid_init(ProcessId(0)), reference.aid_init()),
            Op::Guess(p, x) => {
                let pid = ProcessId(p);
                let x = nth_aid(x, n_aids);
                let got = engine.guess(pid, &[x], Checkpoint(ck));
                let want = reference.guess(pid, &[x], Checkpoint(ck));
                match (got, want) {
                    (Ok((out, fx)), Ok((ref_out, ref_fx))) => {
                        assert_eq!(out.interval(), ref_out, "guess outcome at step {step}");
                        assert!(matches!(out, GuessOutcome::AlreadyFalse(_)) == ref_out.is_none());
                        assert_eq!(fx, ref_fx, "guess effects at step {step}");
                    }
                    (got, want) => panic!("guess disagreement at {step}: {got:?} vs {want:?}"),
                }
            }
            Op::Affirm(p, x) => {
                let pid = ProcessId(p);
                let x = nth_aid(x, n_aids);
                match (engine.affirm(pid, x), reference.affirm(pid, x)) {
                    (Ok(fx), Ok(ref_fx)) => assert_eq!(fx, ref_fx, "affirm fx at {step}"),
                    (Err(_), Err(_)) => {}
                    (got, want) => panic!("affirm disagreement at {step}: {got:?} vs {want:?}"),
                }
            }
            Op::Deny(p, x) => {
                let pid = ProcessId(p);
                let x = nth_aid(x, n_aids);
                match (engine.deny(pid, x), reference.deny(pid, x)) {
                    (Ok(fx), Ok(ref_fx)) => assert_eq!(fx, ref_fx, "deny fx at {step}"),
                    (Err(_), Err(_)) => {}
                    (got, want) => panic!("deny disagreement at {step}: {got:?} vs {want:?}"),
                }
            }
            Op::FreeOf(p, x) => {
                let pid = ProcessId(p);
                let x = nth_aid(x, n_aids);
                match (engine.free_of(pid, x), reference.free_of(pid, x)) {
                    (Ok(fx), Ok(ref_fx)) => assert_eq!(fx, ref_fx, "free_of fx at {step}"),
                    (Err(_), Err(_)) => {}
                    (got, want) => panic!("free_of disagreement at {step}: {got:?} vs {want:?}"),
                }
            }
            Op::Send(p) => {
                let pid = ProcessId(p);
                let tag = engine.dependence_tag(pid).unwrap();
                let ref_tag = reference.dependence_tag(pid);
                assert!(
                    tag.iter().eq(ref_tag.iter().copied()),
                    "send tag diverged at step {step}"
                );
                tags.push(tag);
                ref_tags.push(ref_tag);
            }
            Op::Recv(_, _) if tags.is_empty() => continue,
            Op::Recv(p, i) => {
                let idx = (i as usize) % tags.len();
                let at = (ProcessId(p), Checkpoint(ck), step);
                recv_both(&mut engine, &mut reference, at, &tags[idx], &ref_tags[idx]);
            }
            Op::RecvMixed(_, _) | Op::RecvSpan(_, _, _) => {
                let (p, names) = match op {
                    Op::RecvMixed(p, mask) => (p, mixed_tag(mask, n_aids)),
                    Op::RecvSpan(p, from, to) => (p, span_tag(from, to, n_aids)),
                    _ => unreachable!(),
                };
                let at = (ProcessId(p), Checkpoint(ck), step);
                recv_both(
                    &mut engine,
                    &mut reference,
                    at,
                    &names.iter().copied().collect(),
                    &names,
                );
            }
            Op::Settled(n) => {
                settled = n_aids as u64..n_aids as u64 + n;
                // Invariants once after the `n` affirms, not after each:
                // every check walks every live record.
                engine.set_invariant_checking(false);
                for _ in 0..n {
                    let x = engine.aid_init(ProcessId(0));
                    assert_eq!(x, reference.aid_init());
                    let fx = engine.affirm(ProcessId(2), x).unwrap();
                    assert_eq!(fx, reference.affirm(ProcessId(2), x).unwrap());
                }
                engine.set_invariant_checking(true);
                engine.verify_invariants().unwrap();
            }
        }
        let last = step + 1 == ops.len();
        if step % stride == 0 || last {
            let skip = settled_skip(&settled, op, last);
            assert_state_agrees(&engine, &reference, step, skip.clone());
            assert_chain_determines_relation(&engine, step, skip);
        }
    }
    engine.verify_invariants().unwrap();
}

/// Twin-engine fossil-collection oracle: the same op stream drives two
/// real engines, one sweeping [`Engine::collect_fossils`] after *every*
/// step (the most hostile cadence) and one never. Every primitive result,
/// effect stream, dependence tag and AID state must stay bit-identical —
/// collection is storage reclamation, not semantics — and the collected
/// engine's surviving history must be exactly the uncollected one's
/// suffix above the horizon.
fn play_collected_twin(ops: &[Op]) {
    play_collected_twin_comparing_relation_every(1, ops);
}

/// As [`play_comparing_state_every`]: program-facing state is compared at
/// every step, the relation above the horizon at every `stride`-th.
/// Returns the collected engine.
fn play_collected_twin_comparing_relation_every(stride: usize, ops: &[Op]) -> Engine {
    let mut plain = Engine::new();
    let mut collected = Engine::new();
    collected.set_invariant_checking(true);
    for _ in 0..N_PROCS {
        assert_eq!(plain.register_process(), collected.register_process());
    }
    for _ in 0..N_AIDS {
        assert_eq!(
            plain.aid_init(ProcessId(0)),
            collected.aid_init(ProcessId(0))
        );
    }
    let mut tags: Vec<(Tag, Tag)> = Vec::new();
    let mut ck = 0u64;
    let mut settled = 0..0;
    for (step, &op) in ops.iter().enumerate() {
        ck += 1;
        let n_aids = plain.aid_count();
        match op {
            Op::AidInit => assert_eq!(
                plain.aid_init(ProcessId(0)),
                collected.aid_init(ProcessId(0))
            ),
            Op::Guess(p, x) => {
                let (pid, x) = (ProcessId(p), nth_aid(x, n_aids));
                let a = plain.guess(pid, &[x], Checkpoint(ck));
                let b = collected.guess(pid, &[x], Checkpoint(ck));
                assert_eq!(
                    format!("{a:?}"),
                    format!("{b:?}"),
                    "guess diverged at step {step}"
                );
            }
            Op::Affirm(p, x) => {
                let (pid, x) = (ProcessId(p), nth_aid(x, n_aids));
                let a = plain.affirm(pid, x);
                let b = collected.affirm(pid, x);
                assert_eq!(
                    format!("{a:?}"),
                    format!("{b:?}"),
                    "affirm diverged at step {step}"
                );
            }
            Op::Deny(p, x) => {
                let (pid, x) = (ProcessId(p), nth_aid(x, n_aids));
                let a = plain.deny(pid, x);
                let b = collected.deny(pid, x);
                assert_eq!(
                    format!("{a:?}"),
                    format!("{b:?}"),
                    "deny diverged at step {step}"
                );
            }
            Op::FreeOf(p, x) => {
                let (pid, x) = (ProcessId(p), nth_aid(x, n_aids));
                let a = plain.free_of(pid, x);
                let b = collected.free_of(pid, x);
                assert_eq!(
                    format!("{a:?}"),
                    format!("{b:?}"),
                    "free_of diverged at step {step}"
                );
            }
            Op::Send(p) => {
                let pid = ProcessId(p);
                let a = plain.dependence_tag(pid).unwrap();
                let b = collected.dependence_tag(pid).unwrap();
                assert!(a.iter().eq(b.iter()), "send tag diverged at step {step}");
                tags.push((a, b));
            }
            Op::Recv(p, i) => {
                if tags.is_empty() {
                    continue;
                }
                let pid = ProcessId(p);
                let idx = (i as usize) % tags.len();
                let a = plain.implicit_guess(pid, &tags[idx].0, Checkpoint(ck));
                let b = collected.implicit_guess(pid, &tags[idx].1, Checkpoint(ck));
                assert_eq!(
                    format!("{a:?}"),
                    format!("{b:?}"),
                    "recv diverged at step {step}"
                );
            }
            Op::RecvMixed(_, _) | Op::RecvSpan(_, _, _) => {
                let (p, names) = match op {
                    Op::RecvMixed(p, mask) => (p, mixed_tag(mask, n_aids)),
                    Op::RecvSpan(p, from, to) => (p, span_tag(from, to, n_aids)),
                    _ => unreachable!(),
                };
                let tag: Tag = names.into_iter().collect();
                let a = plain.implicit_guess(ProcessId(p), &tag, Checkpoint(ck));
                let b = collected.implicit_guess(ProcessId(p), &tag, Checkpoint(ck));
                assert_eq!(
                    format!("{a:?}"),
                    format!("{b:?}"),
                    "mixed recv diverged at step {step}"
                );
            }
            Op::Settled(n) => {
                settled = n_aids as u64..n_aids as u64 + n;
                // As in `play_comparing_state_every`; `plain` checks too in
                // debug builds.
                plain.set_invariant_checking(false);
                collected.set_invariant_checking(false);
                for _ in 0..n {
                    let x = plain.aid_init(ProcessId(0));
                    assert_eq!(x, collected.aid_init(ProcessId(0)));
                    let (a, b) = (
                        plain.affirm(ProcessId(2), x),
                        collected.affirm(ProcessId(2), x),
                    );
                    assert_eq!(a, b, "affirm of {x} diverged at step {step}");
                }
                plain.set_invariant_checking(true);
                collected.set_invariant_checking(true);
                collected.verify_invariants().unwrap();
            }
        }
        collected.collect_fossils();
        // Program-facing state stays identical despite reclamation…
        let skip = settled_skip(&settled, op, step + 1 == ops.len());
        for x in aids_outside(&skip, plain.aid_count() as u64) {
            let id = AidId::from_index(x);
            assert_eq!(
                plain.aid_state(id).unwrap(),
                collected.aid_state(id).unwrap(),
                "aid_state of {id} diverged at step {step}"
            );
        }
        // …and so does the relation above the horizon, read off chains
        // whose front was reclaimed.
        let compare_relation = step % stride == 0 || step + 1 == ops.len();
        for x in
            (collected.aid_horizon()..collected.aid_count() as u64).filter(|_| compare_relation)
        {
            let id = AidId::from_index(x);
            assert_eq!(
                collected.aid(id).unwrap().dom(),
                plain.aid(id).unwrap().dom(),
                "DOM of {id} diverged at step {step}"
            );
        }
        let live = collected.interval_horizon()..collected.interval_count() as u64;
        for i in live.filter(|_| compare_relation) {
            let id = IntervalId::from_index(i);
            let (a, b) = (plain.interval(id).unwrap(), collected.interval(id).unwrap());
            assert_eq!(a.status(), b.status(), "status of {id} at step {step}");
            assert_eq!(a.ido(), b.ido(), "IDO of {id} diverged at step {step}");
        }
        for p in 0..N_PROCS {
            let pid = ProcessId(p);
            let a: Vec<AidId> = plain.dependence_tag(pid).unwrap().iter().collect();
            let b: Vec<AidId> = collected.dependence_tag(pid).unwrap().iter().collect();
            assert_eq!(a, b, "tag of {pid} diverged at step {step}");
            // …and the surviving history is exactly the uncollected
            // suffix above the horizon.
            let horizon = collected.interval_horizon();
            let suffix: Vec<IntervalId> = plain
                .history(pid)
                .unwrap()
                .iter()
                .copied()
                .filter(|id| id.index() >= horizon)
                .collect();
            assert_eq!(
                suffix,
                collected.history(pid).unwrap(),
                "history of {pid} diverged at step {step}"
            );
        }
    }
    plain.verify_invariants().unwrap();
    collected.verify_invariants().unwrap();
    collected
}

/// Play 2,000 scripts of 1–120 random ops, all drawn from one stream
/// seeded `seed`; a failing case names itself and its script.
fn play_random_scripts(seed: u64, check: fn(&[Op])) {
    let mut rng = SimRng::new(seed);
    for case in 0..2000 {
        let len = rng.range_u64(1, 121);
        let ops: Vec<Op> = (0..len).map(|_| random_op(&mut rng)).collect();
        let played = std::panic::catch_unwind(|| check(&ops));
        assert!(played.is_ok(), "case {case} failed on {ops:?}");
    }
}

#[test]
fn depset_engine_agrees_with_btreeset_reference() {
    // FNV-1a of "differential_depset::depset_engine_agrees_with_btreeset_reference".
    play_random_scripts(0x4e26_480a_362e_df3a, play);
}

#[test]
fn fossil_collected_twin_agrees_with_uncollected() {
    // FNV-1a of "differential_depset::fossil_collected_twin_agrees_with_uncollected".
    play_random_scripts(0xbaad_7788_6d9e_51a5, play_collected_twin);
}

/// Play one directed case against the reference and against the
/// fossil-collected twin, and return the collected twin.
fn play_both(ops: &[Op]) -> Engine {
    let stride = if ops.len() > 100 { 16 } else { 1 };
    play_comparing_state_every(stride, ops);
    play_collected_twin_comparing_relation_every(stride, ops)
}

/// `P0` nests `depth` guesses on AIDs `0..depth` (creating what the initial
/// pool lacks first).
fn nested_chain(depth: u64) -> Vec<Op> {
    let mut ops = vec![Op::AidInit; depth.saturating_sub(N_AIDS) as usize];
    ops.extend((0..depth).map(|x| Op::Guess(0, x)));
    ops
}

/// A directed deep-inheritance chain — the exact shape the perf work
/// optimizes — checked against the reference beyond the random sweeps.
#[test]
fn deep_chain_agrees_with_reference() {
    let mut ops = Vec::new();
    for x in 0..N_AIDS {
        ops.push(Op::Guess(0, x));
    }
    ops.push(Op::Send(0));
    ops.push(Op::Recv(1, 0));
    for x in 0..N_AIDS - 1 {
        ops.push(Op::Affirm(2, x));
    }
    ops.push(Op::Deny(2, N_AIDS - 1));
    play_both(&ops);
}

/// Affirms arrive out of order in a 200-deep chain: later intervals' stored
/// sets empty first, and the walk from the front of the chain must pass
/// them when the oldest assumptions are finally affirmed.
#[test]
fn out_of_order_affirms_in_a_deep_chain() {
    let mut ops = nested_chain(200);
    // Odd AIDs newest first, then even AIDs oldest first.
    ops.extend(
        (0..200)
            .rev()
            .filter(|x| x % 2 == 1)
            .map(|x| Op::Affirm(1, x)),
    );
    ops.extend((0..200).filter(|x| x % 2 == 0).map(|x| Op::Affirm(1, x)));
    play_both(&ops);
}

/// A speculative affirm of `x` by a process that itself depends on `x`:
/// its own chain collapses onto `x`'s head (every later AID is pulled
/// forward), and a second dependent process takes in the affirmer's `IDO`.
#[test]
fn speculative_affirm_by_a_dependent_of_the_aid() {
    let mut ops = vec![
        Op::Guess(0, 0),
        Op::Guess(0, 1),
        Op::Guess(0, 2),
        Op::Guess(1, 3),
        Op::Guess(1, 0),
        Op::Affirm(0, 0),
    ];
    // Settle what is left both ways: affirm 1, deny 2.
    ops.extend([
        Op::Affirm(2, 1),
        Op::Send(1),
        Op::Deny(2, 2),
        Op::Recv(2, 0),
    ]);
    play_both(&ops);
    // The same, but the affirmer depends on nothing else: its affirm
    // empties every dependent `IDO` and the cascade finalizes them.
    play_both(&[
        Op::Guess(0, 0),
        Op::Guess(1, 0),
        Op::Guess(1, 1),
        Op::Affirm(0, 0),
    ]);
}

/// The affirmer's `IDO` holds an AID the dependent process already depends
/// on, but only from a *later* interval: Equations 11–14 bring it forward,
/// so its head moves to the earlier interval.
#[test]
fn speculative_affirm_moves_a_head_earlier() {
    let mut ops = vec![
        Op::Guess(0, 0), // P0: x0 enters at its first interval,
        Op::Guess(0, 2), //     x2 at the second,
        Op::Guess(0, 1), //     x1 at the third.
        Op::Guess(1, 1), // P1 depends on x1 and x3,
        Op::Guess(1, 3),
        Op::Affirm(1, 0), // and affirms x0: x1's head in P0 moves to the front.
    ];
    // Deny x2 from outside — P0 keeps exactly its first interval, which now
    // depends on x1 — then affirm the rest oldest first.
    ops.extend([
        Op::Deny(2, 2),
        Op::Send(0),
        Op::Affirm(2, 1),
        Op::Affirm(2, 3),
    ]);
    play_both(&ops);
}

/// Deny of the oldest of 200 nested guesses while a second process hangs
/// off the middle of the chain through a message tag.
#[test]
fn deny_of_the_oldest_with_a_process_hanging_off_the_middle() {
    let mut ops = vec![Op::AidInit; 194];
    ops.extend((0..100).map(|x| Op::Guess(0, x)));
    ops.push(Op::Send(0));
    ops.extend((100..200).map(|x| Op::Guess(0, x)));
    ops.extend([Op::Recv(1, 0), Op::Guess(1, 150), Op::Deny(2, 0)]);
    play_both(&ops);
}

/// Rollback, re-guess, affirm: the re-executed chain re-enters AIDs whose
/// earlier heads were withdrawn, over a history whose discarded intervals
/// keep their sequence numbers.
#[test]
fn rollback_then_reguess_then_affirm() {
    let mut ops = nested_chain(8);
    ops.push(Op::Deny(1, 3)); // rolls back the suffix from the fourth interval
    ops.extend([
        Op::Guess(0, 3),
        Op::Guess(0, 4),
        Op::Guess(0, 5),
        Op::Guess(0, 6),
    ]);
    ops.extend([Op::Send(0), Op::Recv(2, 0)]);
    ops.extend((0..8).map(|x| Op::Affirm(1, x)));
    play_both(&ops);
}

/// One receive whose tag holds every kind of name at once, against the
/// literal reading *and* spelled out: the first name the engine never
/// allocated is an error whatever else the tag holds; failing that the
/// first denied name, ascending, makes it a ghost — a fossil below the AID
/// horizon exactly like a live record; failing that the receiver comes to
/// depend on what the names *mean* — a held name and a fresh one on
/// themselves, a speculatively affirmed one on its affirmer's `IDO`
/// (Theorem 6.3's rule), an affirmed one on nothing.
#[test]
fn one_receive_mixing_every_kind_of_name() {
    // x0 denied and x1 affirmed (the leading decided run: fossils once
    // swept), x2 held by the receiver, x3 fresh, x4 speculatively affirmed
    // by P1 under x5, x6 denied behind the undecided x2 (a live record).
    let setup = [
        Op::AidInit, // x6
        Op::Deny(2, 0),
        Op::Affirm(2, 1),
        Op::Guess(0, 2),
        Op::Guess(1, 5),
        Op::Affirm(1, 4),
        Op::Deny(2, 6),
    ];
    const UNKNOWN: u64 = 1 << 15;
    let masks = [
        0b111_1111 | UNKNOWN, // everything: the unallocated id wins
        0b111_1111,           // no unknown: ghost of x0, the fossil
        0b111_1110,           // … of x6, the live record
        0b001_1110,           // deliverable: {x1 affirmed, x2 held, x3, x4 → x5}
        0b001_0010,           // only dissolved and affirmed names: {x5}
        0b000_0010,           // only an affirmed fossil: clean
    ];
    for &mask in &masks {
        let mut ops = setup.to_vec();
        ops.extend([Op::RecvMixed(0, mask), Op::Send(0), Op::Recv(1, 0)]);
        ops.extend([Op::Affirm(2, 5), Op::Affirm(2, 3), Op::Affirm(2, 2)]);
        play_both(&ops);
    }

    // Spelled out, on an engine that has swept its fossils.
    let x = AidId::from_index;
    let build = || {
        let mut e = Engine::new();
        e.set_invariant_checking(true);
        let p: Vec<ProcessId> = (0..3).map(|_| e.register_process()).collect();
        for _ in 0..7 {
            e.aid_init(p[2]);
        }
        e.deny(p[2], x(0)).unwrap();
        e.affirm(p[2], x(1)).unwrap();
        e.guess(p[0], &[x(2)], Checkpoint(1)).unwrap();
        e.guess(p[1], &[x(5)], Checkpoint(2)).unwrap();
        e.affirm(p[1], x(4)).unwrap();
        e.deny(p[2], x(6)).unwrap();
        assert_eq!(e.collect_fossils().aid_horizon, 2, "x0 and x1 are fossils");
        (e, p[0])
    };
    let tag = |mask: u64| -> Tag { mixed_tag(mask, 7).into_iter().collect() };
    let (mut e, p0) = build();
    let before = format!("{e:?}");
    let err = e.implicit_guess(p0, &tag(masks[0]), Checkpoint(9));
    assert_eq!(err.unwrap_err(), Error::UnknownAid(x(8)));
    let ghost = |e: &mut Engine, mask| e.implicit_guess(p0, &tag(mask), Checkpoint(9)).unwrap();
    assert_eq!(
        ghost(&mut e, masks[1]),
        (ReceiveOutcome::Ghost(x(0)), vec![])
    );
    assert_eq!(
        ghost(&mut e, masks[2]),
        (ReceiveOutcome::Ghost(x(6)), vec![])
    );
    let counted = format!("{e:?}").replace("ghosts: 2", "ghosts: 0");
    assert_eq!(counted, before, "an error or a ghost changes no record");
    let (out, _) = e.implicit_guess(p0, &tag(masks[3]), Checkpoint(9)).unwrap();
    let ReceiveOutcome::Speculative(a) = out else {
        panic!("deliverable: {out:?}")
    };
    let view = e.interval(a).unwrap();
    assert!(view.guessed().iter().eq([x(2), x(3), x(5)]));
    assert!(view.ido().iter().eq([x(2), x(3), x(5)]));
    // Interval 0 is P0's guess of x2, interval 1 P1's guess of x5.
    let (i0, i1) = (IntervalId::from_index(0), IntervalId::from_index(1));
    for (aid, dom) in [(2, vec![i0, a]), (3, vec![a]), (5, vec![i1, a])] {
        assert!(e.aid(x(aid)).unwrap().dom().iter().eq(dom), "DOM of x{aid}");
    }
    assert!(e.aid(x(4)).unwrap().dom().is_empty(), "x4 stays dissolved");
    let (mut e, p0) = build();
    let (out, _) = e.implicit_guess(p0, &tag(masks[5]), Checkpoint(9)).unwrap();
    assert_eq!(out, ReceiveOutcome::Clean);
}

/// Both operands spilled — the word-parallel path: a 90-name tag into an
/// `IDO` of 70 names, sharing 40, with affirmed, dissolved and (second
/// receive) denied names among the 50 that are new to the receiver.
#[test]
fn spilled_tag_into_a_spilled_ido() {
    let mut ops = vec![Op::AidInit; 140 - N_AIDS as usize];
    ops.extend((0..90).map(|x| Op::Guess(0, x))); // the sender holds x0..x90
    ops.extend((50..120).map(|x| Op::Guess(1, x))); // the receiver x50..x120
    ops.push(Op::Send(0));
    ops.extend((0..10).map(|x| Op::Affirm(2, x))); // decided since the send,
    ops.extend([Op::Guess(2, 130), Op::Affirm(2, 20)]); // x20 dissolved into {x130}
    ops.extend([Op::Recv(1, 0), Op::Send(1), Op::Recv(2, 1)]);
    ops.extend([Op::Deny(0, 30), Op::Recv(1, 0)]); // now a ghost
    ops.extend((10..140).map(|x| Op::Affirm(2, x)));
    play_both(&ops);
}

/// 300 AIDs for [`spilled_tags_of_mostly_affirmed_names`]: `x0` denied and
/// `x1..x10` affirmed (fossils once swept: the undecided `x10` pins the
/// horizon), `x180` denied, `x120` speculatively affirmed by `P0`, which
/// holds `x10` and `x250..=x280` by tens, `x150` undecided and held by no
/// one, and every other AID affirmed by `P2`.
const SPAN: u64 = 300;
const SPAN_OPEN: [u64; 7] = [10, 120, 150, 250, 260, 270, 280];

fn span_setup() -> Vec<Op> {
    let mut ops = vec![Op::AidInit; (SPAN - N_AIDS) as usize];
    ops.push(Op::Deny(2, 0));
    let affirmed = (1..SPAN).filter(|x| *x != 180 && !SPAN_OPEN.contains(x));
    ops.extend(affirmed.map(|x| Op::Affirm(2, x)));
    ops.push(Op::Deny(2, 180));
    ops.extend([10, 250, 260, 270, 280].map(|x| Op::Guess(0, x)));
    ops.push(Op::Affirm(0, 120));
    ops
}

/// Spilled tags of 179–300 names, nearly all affirmed, into an empty `IDO`
/// (`P1`) and a spilled one (`P0`): the affirmed names are masked out of
/// the tag's words, and what is left — undecided, held, speculatively
/// affirmed, denied after 170 affirmed names, a fossil on the collected
/// twin, never allocated — must classify exactly as the literal reading
/// does: the same outcome, the same first denied id, the same effects.
#[test]
fn spilled_tags_of_mostly_affirmed_names() {
    let mut ops = span_setup();
    ops.extend([
        Op::RecvSpan(1, 0, SPAN),     // ghost of x0, the denied fossil
        Op::RecvSpan(1, 1, SPAN),     // ghost of x180
        Op::RecvSpan(1, 1, SPAN + 1), // x300 was never allocated
        Op::RecvSpan(0, 1, SPAN + 1), // … into a non-empty IDO
        Op::RecvSpan(0, 1, SPAN),     // ghost of x180 there too
        Op::RecvSpan(1, 1, 180),      // deliverable, into an empty IDO
        Op::RecvSpan(0, 1, 180),      // … and into one holding x10
        Op::RecvSpan(1, 181, SPAN),   // P1, now holding x250.., x150
        Op::Affirm(2, 10),
        Op::Affirm(2, 150),
        Op::Deny(2, 260),
        Op::RecvSpan(1, 181, SPAN), // ghost of x260
        Op::RecvSpan(2, 1, 180),    // ghost of x120, denied as P0 rolled back
        Op::Affirm(2, 250),
        Op::RecvSpan(1, 265, SPAN), // x270 and x280 still open
    ]);
    play_both(&ops);

    // Spelled out, on an engine that swept its fossils.
    let x = AidId::from_index;
    let mut e = Engine::new();
    e.set_invariant_checking(false);
    let p: Vec<ProcessId> = (0..N_PROCS).map(|_| e.register_process()).collect();
    for _ in 0..SPAN {
        e.aid_init(p[0]);
    }
    for op in span_setup() {
        match op {
            Op::AidInit => {}
            Op::Guess(q, i) => {
                e.guess(p[q as usize], &[x(i)], Checkpoint(i)).unwrap();
            }
            Op::Affirm(q, i) => {
                e.affirm(p[q as usize], x(i)).unwrap();
            }
            Op::Deny(q, i) => {
                e.deny(p[q as usize], x(i)).unwrap();
            }
            _ => unreachable!("not in the setup"),
        }
    }
    e.verify_invariants().unwrap();
    assert_eq!(e.collect_fossils().aid_horizon, 10, "x0..x9 are fossils");
    let tag = |from, to| -> Tag { span_tag(from, to, SPAN as usize).into_iter().collect() };
    let mut recv = |q: usize, from, to| e.implicit_guess(p[q], &tag(from, to), Checkpoint(0));
    assert_eq!(recv(1, 0, SPAN), Ok((ReceiveOutcome::Ghost(x(0)), vec![])));
    assert_eq!(
        recv(1, 1, SPAN),
        Ok((ReceiveOutcome::Ghost(x(180)), vec![]))
    );
    assert_eq!(recv(0, 1, SPAN + 1), Err(Error::UnknownAid(x(SPAN))));
    let (out, _) = recv(1, 1, 180).unwrap();
    let ReceiveOutcome::Speculative(a) = out else {
        panic!("deliverable: {out:?}")
    };
    // x10 and x150 stand for themselves, x120 for what P0 held when it
    // affirmed it; the 169 affirmed names and the nine fossils for nothing.
    let meant = [10, 150, 250, 260, 270, 280].map(x);
    assert!(e.interval(a).unwrap().guessed().iter().eq(meant));
    e.verify_invariants().unwrap();
}

/// Far from zero: 70,000 AIDs are created and affirmed first, so every set
/// after that holds ids whose words start past word 1,093 (the other
/// directed cases never leave the first few words). Then `P0` guesses over
/// a window of 6 to 40 open AIDs that slides as `P2` affirms the oldest,
/// sends its tag to `P1` every round, hears back from `P1` every third, and
/// loses its newest three intervals to a deny every seventh — spilled
/// windows at high bases through receives, rollback and fossil collection.
#[test]
fn windows_far_from_zero_agree_with_reference() {
    const FAR: u64 = 70_000;
    let mut ops: Vec<Op> = (0..N_AIDS).map(|x| Op::Affirm(2, x)).collect();
    ops.push(Op::Settled(FAR));
    let first = N_AIDS + FAR;
    let (mut next, mut oldest, mut sends) = (first, first, 0);
    for round in 0..120u64 {
        // The window's target width rises from 6 to 40 and falls back.
        let target = 6 + (round % 68).min(68 - round % 68) / 2 * 2;
        while next - oldest < target {
            ops.extend([Op::AidInit, Op::Guess(0, next)]);
            next += 1;
        }
        while next - oldest > target {
            ops.push(Op::Affirm(2, oldest));
            oldest += 1;
        }
        ops.extend([Op::Send(0), Op::Recv(1, sends)]);
        sends += 1;
        if round % 3 == 0 {
            ops.extend([Op::Guess(1, next - 2), Op::Send(1), Op::Recv(0, sends)]);
            sends += 1;
        }
        if round % 7 == 6 {
            ops.push(Op::Deny(2, next - 3));
        }
    }
    let collected = play_both(&ops);
    assert!(
        collected.aid_horizon() > FAR,
        "the settled AIDs were reclaimed"
    );
}

/// Play every script of length `len` over the theorem suite's alphabet
/// (`tests/theorems.rs`: two processes, two AIDs, a send being a tag taken
/// and delivered) — all 18^`len` of them, not a sample — and return how many
/// were played.
fn play_every_script_of_length(len: u32) -> usize {
    let mut alphabet: Vec<[Option<Op>; 2]> = Vec::new();
    for p in 0..2u32 {
        for x in 0..2u64 {
            for op in [
                Op::Guess(p, x),
                Op::Affirm(p, x),
                Op::Deny(p, x),
                Op::FreeOf(p, x),
            ] {
                alphabet.push([Some(op), None]);
            }
        }
        // `Recv`'s index is patched below to name the tag just taken.
        alphabet.push([Some(Op::Send(p)), Some(Op::Recv(1 - p, 0))]);
    }
    assert_eq!(alphabet.len(), 18);
    let mut played = 0;
    for code in 0..18usize.pow(len) {
        let letters = (0..len).map(|i| alphabet[code / 18usize.pow(i) % 18]);
        let mut sends = 0;
        let mut script = Vec::new();
        for op in letters.flatten().flatten() {
            script.push(match op {
                Op::Recv(p, _) => Op::Recv(p, sends - 1),
                Op::Send(_) => {
                    sends += 1;
                    op
                }
                _ => op,
            });
        }
        play_both(&script);
        played += 1;
    }
    played
}

/// Every script up to length 3.
#[test]
fn every_short_script_agrees_with_reference() {
    let played: usize = (1..=3).map(play_every_script_of_length).sum();
    assert_eq!(played, 18 + 324 + 5832);
}

/// Every script of length 4 (CI runs it in release).
#[test]
#[ignore = "104,976 scripts: run with --release -- --ignored"]
fn every_short_script_of_length_four_agrees_with_reference() {
    assert_eq!(play_every_script_of_length(4), 104_976);
}
