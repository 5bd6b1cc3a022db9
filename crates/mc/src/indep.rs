//! Conditional independence between enabled steps, derived from the
//! engine's own control variables.
//!
//! Two steps commute — and one order of them need not be explored — unless
//! they can touch overlapping state. "Touch" is approximated by a
//! [`Footprint`]: the AIDs a step reads or writes (including everything a
//! cascading finalize/rollback closure can reach through `DOM`, `IHD` and
//! `IHA`), the processes whose histories it can truncate, and the mailbox
//! it appends to. Footprints are deliberately conservative: an over-large
//! footprint only costs exploration, an under-small one would lose
//! interleavings, so every closure walks `DOM` transitively and assumes
//! any discharged interval *might* finalize.
//!
//! The same machinery powers the persistent-singleton rule
//! ([`invisible_singleton`]): a definite process whose next step's
//! footprint cannot intersect anything any *other* process could still do
//! (judged against per-process dynamic [`Reach`] over-approximations) can
//! be scheduled alone, without branching — the classic persistent-set
//! reduction with a sound, cheap membership test.
//!
//! Every set here — footprints, reaches, a closure's seen AIDs, and the
//! explorer's enabled, sleep and explored sets — is an [`IdSet`] of bit
//! words over AID or process indices. Ids below 64 live in one inline
//! word, and two footprints are tested for independence by four
//! word-ANDs. The closures read the dependence relation as the engine
//! stores it: `X.DOM` is found through each process's current `IDO` and
//! its intervals' entered sets ([`dependents`]), never built. A pass of
//! `check` over the E22 `mc_exhaust` corpus (1,500 3×3 programs, seed 22)
//! made 1,061,061 allocations with the `BTreeSet`s these sets replaced
//! and 666,841 with the sets alone (19.4 and 12.2 a transition). With
//! `DOM` read off the chain, the singleton prover's [`Reaches`] and the
//! explorer's footprint tables reused, and the state key and `Machine`
//! trimmed alongside, it made 370,242 (6.8 a transition). It makes
//! 132,462 (2.4) now that a branch is written into the machine of a
//! finished one, the keys into one arena and a reused buffer, and a
//! decision's closure allocates a worklist only for a cascade.

use std::fmt;
use std::marker::PhantomData;

use hope_core::machine::Machine;
use hope_core::program::Stmt;
use hope_core::{AidId, AidState, Engine, IntervalId, IntervalStatus};

/// An id an [`IdSet`] holds: a small dense index.
pub(crate) trait Id: Copy {
    fn index(self) -> usize;
    fn from_index(i: usize) -> Self;
}

impl Id for usize {
    fn index(self) -> usize {
        self
    }
    fn from_index(i: usize) -> Self {
        i
    }
}

impl Id for AidId {
    fn index(self) -> usize {
        AidId::index(self) as usize
    }
    fn from_index(i: usize) -> Self {
        AidId::from_index(i as u64)
    }
}

/// A set of small ids as bit words: ids 0–63 in one inline word, and a
/// further word per 64 ids allocated only once an id past 63 arrives.
/// Iteration is ascending, the order a `BTreeSet` walks.
#[derive(Clone)]
pub(crate) struct IdSet<T> {
    low: u64,
    high: Vec<u64>,
    id: PhantomData<T>,
}

impl<T: Id> IdSet<T> {
    fn words(&self) -> impl Iterator<Item = u64> + '_ {
        std::iter::once(self.low).chain(self.high.iter().copied())
    }

    /// Add `x`; `true` if it was not there.
    pub fn insert(&mut self, x: T) -> bool {
        let (i, fresh) = (x.index(), !self.contains(x));
        if i / 64 > self.high.len() {
            self.high.resize(i / 64, 0);
        }
        *(if i < 64 {
            &mut self.low
        } else {
            &mut self.high[i / 64 - 1]
        }) |= 1 << (i % 64);
        fresh
    }

    pub fn contains(&self, x: T) -> bool {
        let i = x.index();
        self.words().nth(i / 64).unwrap_or(0) >> (i % 64) & 1 == 1
    }

    pub fn len(&self) -> usize {
        self.words().map(|w| w.count_ones() as usize).sum()
    }

    pub fn is_empty(&self) -> bool {
        self.words().all(|w| w == 0)
    }

    /// `true` when the two sets share an id.
    pub fn intersects(&self, other: &Self) -> bool {
        self.words().zip(other.words()).any(|(a, b)| a & b != 0)
    }

    /// The ids in ascending order.
    pub fn iter(&self) -> impl Iterator<Item = T> + '_ {
        self.words().enumerate().flat_map(|(k, mut w)| {
            std::iter::from_fn(move || {
                let bit = w.trailing_zeros() as usize;
                w &= w.wrapping_sub(1);
                (bit < 64).then(|| T::from_index(64 * k + bit))
            })
        })
    }
}

impl<T> Default for IdSet<T> {
    fn default() -> Self {
        IdSet {
            low: 0,
            high: Vec::new(),
            id: PhantomData,
        }
    }
}

impl<T: Id> Extend<T> for IdSet<T> {
    fn extend<I: IntoIterator<Item = T>>(&mut self, ids: I) {
        for x in ids {
            self.insert(x);
        }
    }
}

impl<T: Id> FromIterator<T> for IdSet<T> {
    fn from_iter<I: IntoIterator<Item = T>>(ids: I) -> Self {
        let mut set = IdSet::default();
        set.extend(ids);
        set
    }
}

impl<T: Id + fmt::Debug> fmt::Debug for IdSet<T> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_set().entries(self.iter()).finish()
    }
}

/// What one enabled step can read or write.
#[derive(Debug, Clone, Default)]
pub(crate) struct Footprint {
    /// AIDs whose decision state, `DOM`, consumption flag or speculative
    /// ties the step may *mutate* (cascade closure included).
    pub writes: IdSet<AidId>,
    /// AIDs the step only *observes*: a one-shot violation reads the
    /// consumed flag and skips, and a `recv` reads the decision state of
    /// ghost-candidate tags. Two reads of the same AID commute.
    pub reads: IdSet<AidId>,
    /// Processes whose history / pc / mailbox the step may rewrite —
    /// always includes the stepping process; grows with rollback victims.
    pub procs: IdSet<usize>,
    /// Mailbox this step appends to, for `send`.
    pub send_to: Option<usize>,
    /// The stepping process, distinguished from rollback victims inside
    /// [`procs`](Self::procs): a send to `t` commutes with `t`'s own
    /// non-`recv` steps (an append does not touch `t`'s pc, history or
    /// queue head) but not with a step that may *rewind* `t`.
    pub stepper: usize,
    /// Mailbox this step pops from, for `recv` (always the stepper's).
    pub recv_mailbox: Option<usize>,
}

impl Footprint {
    /// `true` when the two steps commute: disjoint process sets, no
    /// write-write or read-write overlap on AIDs, and no mailbox contact.
    /// Read-read overlap is fine — that is the point of splitting the
    /// sets.
    ///
    /// Mailbox contact is queue-granular, mirroring the [`Reach`] rules
    /// the singleton prover uses: an append to `t` conflicts with another
    /// append (queue order), with a pop by `t` (`recv` observes the
    /// queue), and with anything that may rewind `t` (rollback restores
    /// `t`'s consumption point) — but *not* with `t`'s own decision or
    /// send steps, which never look at their inbound queue.
    pub fn independent(&self, other: &Footprint) -> bool {
        !self.procs.intersects(&other.procs)
            && !self.writes.intersects(&other.writes)
            && !self.writes.intersects(&other.reads)
            && !other.writes.intersects(&self.reads)
            && self.mailbox_clear_of(other)
            && other.mailbox_clear_of(self)
    }

    /// `true` when this step's append (if any) cannot contact `other`.
    fn mailbox_clear_of(&self, other: &Footprint) -> bool {
        let Some(t) = self.send_to else { return true };
        other.send_to != Some(t)
            && other.recv_mailbox != Some(t)
            && (t == other.stepper || !other.procs.contains(t))
    }
}

enum Decision {
    Affirm(AidId),
    Deny(AidId),
}

/// The machine process owning live interval `a`: its engine pid
/// ([`Machine::pid`] is the identity on process indices).
fn owner(engine: &Engine, a: IntervalId) -> usize {
    engine.interval(a).expect("live interval").process().0 as usize
}

/// `x.DOM` as the engine stores it, one process at a time: every process
/// whose current `IDO` holds `x`, with the suffix of its history from the
/// interval `x` entered at (the head). Those suffixes are `x.DOM`.
fn dependents(m: &Machine, x: AidId) -> impl Iterator<Item = (usize, &[IntervalId])> {
    let engine = m.engine();
    let itv = move |a| engine.interval(a).expect("live interval");
    (0..m.process_count()).filter_map(move |q| {
        let history = engine.history(m.pid(q)).expect("machine process");
        // The current interval's `IDO` is borrowed (a definite one is empty).
        if !itv(*history.last()?).ido().contains(&x) {
            return None;
        }
        let head = history.iter().rposition(|&a| itv(a).entered().contains(&x));
        let head = head.expect("a dependent's chain holds x's head");
        Some((q, &history[head..]))
    })
}

/// Follow everything a definite affirm/deny of the seed AIDs can cascade
/// into: discharged intervals may finalize (promoting their `IHA`/`IHD`),
/// rolled-back suffixes conservatively deny their `IHA` and release their
/// `IHD`. All touched AIDs and all processes whose history can be
/// truncated land in `fp`. Only a cascade allocates a worklist.
fn decision_closure(m: &Machine, seeds: impl IntoIterator<Item = Decision>, fp: &mut Footprint) {
    let engine = m.engine();
    let mut seeds = seeds.into_iter();
    let mut wl = Vec::new();
    let mut seen_affirm: IdSet<AidId> = IdSet::default();
    let mut seen_deny: IdSet<AidId> = IdSet::default();
    while let Some(d) = wl.pop().or_else(|| seeds.next()) {
        match d {
            Decision::Affirm(x) => {
                if !seen_affirm.insert(x) {
                    continue;
                }
                fp.writes.insert(x);
                for (q, suffix) in dependents(m, x) {
                    fp.procs.insert(q);
                    for &b in suffix {
                        // Discharging x from b.IDO may finalize b, promoting
                        // its speculative affirms and denies.
                        let itv = engine.interval(b).expect("DOM member is live");
                        wl.extend(itv.iha().iter().map(Decision::Affirm));
                        wl.extend(itv.ihd().iter().map(Decision::Deny));
                    }
                }
            }
            Decision::Deny(x) => {
                if !seen_deny.insert(x) {
                    continue;
                }
                fp.writes.insert(x);
                let Ok(v) = engine.aid(x) else { continue };
                // A pending speculative deny of x is released if its
                // holder rolls back; the tie itself is per-AID state.
                if let Some(holder) = v.speculatively_denied_by() {
                    fp.procs.insert(owner(engine, holder));
                }
                for (q, suffix) in dependents(m, x) {
                    // Rollback truncates q's live history from the head on;
                    // every interval in that suffix is a victim.
                    fp.procs.insert(q);
                    // Withdrawing the victims from DOM sets touches their
                    // IDOs, whose union is the last victim's.
                    let last = *suffix.last().expect("a suffix holds its head");
                    fp.writes
                        .extend(engine.interval(last).expect("live interval").ido().iter());
                    for &c in suffix {
                        let itv = engine.interval(c).expect("live interval");
                        // Speculative affirms become conservative denies.
                        wl.extend(itv.iha().iter().map(Decision::Deny));
                        // Speculative denies are released (consumed reset).
                        fp.writes.extend(itv.ihd());
                    }
                }
            }
        }
    }
}

/// AIDs a fresh guess on `named` would read/write right now: the named
/// AIDs, their speculative-affirm resolutions, and the inherited parent
/// `IDO` (every member's `DOM` gains the new interval). A guess is subject
/// to the one-shot rule like any other primitive: a consumed AID makes it
/// a recorded skip, which only *reads* the flag.
fn guess_footprint(m: &Machine, p: usize, named: &[AidId], fp: &mut Footprint) {
    let engine = m.engine();
    let mut live = false;
    for &x in named {
        if engine.aid(x).map(|a| a.is_consumed()).unwrap_or(false) {
            fp.reads.insert(x);
            continue;
        }
        live = true;
        fp.writes.insert(x);
        if let Ok(v) = engine.aid(x) {
            if let Some(a) = v.speculatively_affirmed_by() {
                fp.writes
                    .extend(engine.interval(a).expect("affirmer is live").ido().iter());
            }
        }
    }
    // The parent IDO is inherited only if a new interval actually opens.
    if live {
        if let Ok(Some(a)) = engine.current_interval(m.pid(p)) {
            let itv = engine.interval(a).expect("current interval is live");
            fp.writes.extend(itv.ido().iter());
        }
    }
}

/// Footprint of a *speculative* affirm (Equations 10–14): dependence on
/// `x` is rewired onto the affirmer's remaining `IDO`; every interval in
/// `x.DOM` has its `IDO` rewritten and may finalize.
fn spec_affirm_footprint(m: &Machine, p: usize, x: AidId, fp: &mut Footprint) {
    let engine = m.engine();
    fp.writes.insert(x);
    if let Ok(Some(a)) = engine.current_interval(m.pid(p)) {
        let itv = engine.interval(a).expect("current interval is live");
        fp.writes.extend(itv.ido().iter());
    }
    let mut follow = Vec::new();
    for (q, suffix) in dependents(m, x) {
        fp.procs.insert(q);
        for &b in suffix {
            // b may finalize if the rewiring empties its IDO.
            let itv = engine.interval(b).expect("DOM member is live");
            follow.extend(itv.iha().iter().map(Decision::Affirm));
            follow.extend(itv.ihd().iter().map(Decision::Deny));
        }
    }
    decision_closure(m, follow, fp);
}

/// Compute the footprint of the step process `p` would take from the
/// current state of `m`. `p` must be enabled (its `poll` is `Executed`)
/// or done-free; a blocked `recv` gets the footprint of the probe itself.
pub(crate) fn footprint(m: &Machine, p: usize) -> Footprint {
    let mut fp = Footprint {
        procs: IdSet::from_iter([p]),
        stepper: p,
        ..Footprint::default()
    };
    let engine = m.engine();
    let Some(stmt) = m.next_stmt(p) else {
        return fp;
    };
    match stmt {
        Stmt::Compute => {}
        Stmt::Send { to } => fp.send_to = Some(to),
        Stmt::Guess(v) => {
            let x = m.aids()[v];
            guess_footprint(m, p, &[x], &mut fp);
        }
        Stmt::Recv => {
            fp.recv_mailbox = Some(p);
            // The step pops the ghost prefix and delivers the first live
            // message: deliverability of everything up to and including
            // it depends on those tags' decision states.
            let mut named: Vec<AidId> = Vec::new();
            for msg in m.mailbox(p) {
                let ghost = msg
                    .tag
                    .iter()
                    .any(|x| matches!(engine.aid_state(x), Ok(AidState::Denied)));
                fp.reads.extend(msg.tag.iter());
                if !ghost {
                    named.extend(msg.tag.iter());
                    break;
                }
            }
            guess_footprint(m, p, &named, &mut fp);
        }
        Stmt::Affirm(v) | Stmt::Deny(v) | Stmt::FreeOf(v) => {
            let x = m.aids()[v];
            let consumed = engine.aid(x).map(|a| a.is_consumed()).unwrap_or(false);
            if consumed {
                // One-shot violation: the step records Skipped into p's own
                // history and only *reads* x's consumed flag. Two skips of
                // the same consumed AID commute — this is the read set's
                // main payoff on the exhaustive envelopes.
                fp.reads.insert(x);
                return fp;
            }
            fp.writes.insert(x);
            let cur = engine.current_interval(m.pid(p)).expect("registered");
            let in_ido = cur.map(|a| {
                engine
                    .interval(a)
                    .expect("current interval is live")
                    .ido()
                    .contains(&x)
            });
            // Mirror the engine's dispatch: free_of is an affirm unless
            // x ∈ IDO (then a definite deny); affirm is speculative iff
            // the process is; deny is definite unless speculative and
            // x ∉ IDO.
            let effective = match (stmt, in_ido) {
                (Stmt::Deny(_), None) => Decision::Deny(x),
                (Stmt::Deny(_), Some(true)) => Decision::Deny(x),
                (Stmt::Deny(_), Some(false)) => {
                    // Speculative deny: records into own IHD only.
                    return fp;
                }
                (Stmt::FreeOf(_), Some(true)) => Decision::Deny(x),
                (_, None) => Decision::Affirm(x),
                (_, Some(_)) => {
                    spec_affirm_footprint(m, p, x, &mut fp);
                    return fp;
                }
            };
            decision_closure(m, [effective], &mut fp);
        }
    }
    fp
}

/// Over-approximation of everything process `q` could still touch from
/// the *current* state: the statement suffix from the earliest pc any
/// rollback could rewind `q` to, plus the dependence sets of `q`'s live
/// speculative intervals (the AIDs a cascade through `q` can reach).
///
/// This is deliberately dynamic where the obvious choice would be static.
/// A whole-program approximation is coarser — a process past its last use
/// of an AID would block singletons on it forever — and, worse, a
/// *statement-only* approximation is unsound: a decision's cascade can
/// touch AIDs that appear in no statement of the deciding process,
/// reaching them through a third process's interval `IDO`. Those AIDs are
/// exactly the ones in some live interval's dependence sets, so including
/// each process's interval sets here closes that path: any cascade route
/// to an AID runs through *some* live process whose reach then contains it.
#[derive(Debug, Default)]
struct Reach {
    /// AIDs `q` could still decide, guess, skip over, or cascade into.
    aids: IdSet<AidId>,
    /// Mailboxes `q` could still append to.
    sends: IdSet<usize>,
    /// A `recv` is still reachable: tags can carry arbitrary dependence
    /// into `q`, so every AID must be assumed touchable.
    everything: bool,
}

impl Reach {
    /// `true` when `q` could still touch one of `xs`.
    fn meets(&self, xs: &IdSet<AidId>) -> bool {
        self.everything && !xs.is_empty() || xs.intersects(&self.aids)
    }
}

/// The singleton prover's memo of each process's [`Reach`] at one state,
/// kept by its caller so that the storage is reused from state to state.
#[derive(Debug, Default)]
pub(crate) struct Reaches(Vec<Option<Reach>>);

fn reach(m: &Machine, q: usize) -> Reach {
    let engine = m.engine();
    let mut r = Reach::default();
    // Rollback can rewind q's pc to any live speculative interval's
    // resume mark: the reachable statement suffix starts at the earliest.
    let mut pc = m.pc(q);
    let history = engine.history(m.pid(q)).expect("machine process");
    for &a in history {
        let itv = engine.interval(a).expect("live interval");
        if itv.status() == IntervalStatus::Speculative {
            if let Some((mark_pc, _, _)) = m.resume_mark(q, a) {
                pc = pc.min(mark_pc);
            }
            // Cascades through q's own speculation reach every AID its
            // live intervals depend on (the union of what entered the
            // chain), speculatively decided, or guessed.
            for set in [itv.entered(), itv.ihd(), itv.iha(), itv.guessed()] {
                r.aids.extend(set);
            }
        }
    }
    for stmt in m.program().code[q].iter().skip(pc) {
        match *stmt {
            Stmt::Guess(v) | Stmt::Affirm(v) | Stmt::Deny(v) | Stmt::FreeOf(v) => {
                r.aids.insert(m.aids()[v]);
            }
            Stmt::Send { to } => {
                r.sends.insert(to);
            }
            Stmt::Recv => r.everything = true,
            Stmt::Compute => {}
        }
    }
    r
}

/// Pick a process that can be scheduled as a singleton persistent set: its
/// next step must be invisible to every other still-live process's
/// [`Reach`]. Returns the lowest such index so the choice is
/// deterministic across revisits of the same canonical state.
///
/// Soundness conditions, checked in order:
/// * the process is definite — nobody can roll it back, and its own step
///   cannot become speculative without it moving;
/// * the step is not a `recv` (delivery order couples it to senders);
/// * its dynamic footprint stays within the process itself;
/// * no other live process's reach meets the footprint, and nobody else
///   can still send to the footprint's `send_to` target.
///
/// Each footprint it computes is left in `footprints`, indexed by process.
pub(crate) fn invisible_singleton(
    m: &Machine,
    enabled: &IdSet<usize>,
    footprints: &mut [Option<Footprint>],
    reaches: &mut Reaches,
) -> Option<usize> {
    let engine = m.engine();
    let finished = |q: usize| -> bool {
        // Permanently finished: out of statements *and* definite (a
        // speculative done process can be rolled back and run again).
        m.next_stmt(q).is_none() && !engine.is_speculative(m.pid(q)).unwrap_or(true)
    };
    let reaches = &mut reaches.0;
    reaches.clear();
    reaches.resize_with(m.process_count(), || None);
    'candidates: for p in enabled.iter() {
        if engine.is_speculative(m.pid(p)).unwrap_or(true) {
            continue;
        }
        if matches!(m.next_stmt(p), Some(Stmt::Recv) | None) {
            continue;
        }
        let fp = footprints[p].get_or_insert_with(|| footprint(m, p));
        if fp.procs.len() != 1 || !fp.procs.contains(p) {
            continue;
        }
        // A decided AID is frozen: `consumed` is only ever reset while the
        // state is still `Undecided`, and a definite decision is permanent
        // (Theorem 5.2), so every later primitive on it — in any process —
        // is a one-shot skip that merely reads the flag. Reads of frozen
        // AIDs therefore cannot conflict with anything.
        let live_reads: IdSet<AidId> = fp
            .reads
            .iter()
            .filter(|&x| matches!(engine.aid_state(x), Ok(AidState::Undecided)))
            .collect();
        for (q, slot) in reaches.iter_mut().enumerate() {
            if q == p || finished(q) {
                continue;
            }
            let r = slot.get_or_insert_with(|| reach(m, q));
            if r.meets(&fp.writes) || r.meets(&live_reads) {
                continue 'candidates;
            }
            if let Some(t) = fp.send_to {
                if r.sends.contains(t) {
                    continue 'candidates;
                }
            }
        }
        return Some(p);
    }
    None
}

#[cfg(test)]
mod tests {
    use super::*;
    use hope_core::program::Program;
    use hope_sim::SimRng;
    use std::collections::BTreeSet;

    /// Random insert sequences on pairs of sets, one side inline (ids below
    /// 64) and one spilled past it, agree with `BTreeSet`s on every query.
    /// Ids come from 0..=200, weighted toward the word edges 62–65 and
    /// 126–129.
    #[test]
    fn id_sets_agree_with_btreesets() {
        // FNV-1a of "indep::id_sets_agree_with_btreesets".
        let mut rng = SimRng::new(0x179d_b577_c24e_2296);
        let draw = |rng: &mut SimRng| match rng.index(4) {
            0 => rng.range_u64(62, 66) as usize,
            1 => rng.range_u64(126, 130) as usize,
            _ => rng.range_u64(0, 201) as usize,
        };
        for case in 0..2_000 {
            // One side inline and one spilled; in a third of the cases the
            // inline side spills too, so that words past the first meet.
            let both_spill = rng.chance(1.0 / 3.0);
            let mut inline: Vec<usize> = (0..rng.index(12))
                .map(|_| draw(&mut rng) % if both_spill { 201 } else { 64 })
                .collect();
            let mut spilled: Vec<usize> = (0..rng.index(12)).map(|_| draw(&mut rng)).collect();
            spilled.insert(
                rng.index(spilled.len() + 1),
                rng.range_u64(64, 201) as usize,
            );
            if rng.chance(0.5) {
                std::mem::swap(&mut inline, &mut spilled);
            }
            let inputs = format!("case {case}: {inline:?} then {spilled:?}");
            let build = |ids: &[usize]| {
                let (mut set, mut oracle) = (IdSet::default(), BTreeSet::new());
                for &x in ids {
                    assert_eq!(set.insert(x), oracle.insert(x), "insert {x}, {inputs}");
                }
                (set, oracle)
            };
            let (a, a_oracle) = build(&inline);
            let (b, b_oracle) = build(&spilled);
            for (set, oracle) in [(&a, &a_oracle), (&b, &b_oracle)] {
                for x in (0..=200).chain([1_000]) {
                    assert_eq!(
                        set.contains(x),
                        oracle.contains(&x),
                        "contains {x}, {inputs}"
                    );
                }
                assert_eq!(set.len(), oracle.len(), "{inputs}");
                assert_eq!(set.is_empty(), oracle.is_empty(), "{inputs}");
                let ids: Vec<usize> = set.iter().collect();
                assert_eq!(ids, oracle.iter().copied().collect::<Vec<_>>(), "{inputs}");
                assert_eq!(format!("{set:?}"), format!("{oracle:?}"), "{inputs}");
            }
            let disjoint = a_oracle.is_disjoint(&b_oracle);
            assert_eq!(a.intersects(&b), !disjoint, "{inputs}");
            assert_eq!(b.intersects(&a), !disjoint, "{inputs}");
        }
    }

    fn fresh(program: &str) -> Machine {
        Machine::new(program.parse::<Program>().unwrap())
    }

    /// The singleton pick with both processes enabled; every footprint it
    /// computed must be the one `footprint` gives.
    fn singleton(m: &Machine) -> Option<usize> {
        let mut fps = vec![None, None];
        let pick = invisible_singleton(
            m,
            &IdSet::from_iter([0, 1]),
            &mut fps,
            &mut Reaches::default(),
        );
        for (p, fp) in fps.iter().enumerate() {
            if let Some(fp) = fp {
                assert_eq!(format!("{fp:?}"), format!("{:?}", footprint(m, p)));
            }
        }
        pick
    }

    #[test]
    fn disjoint_guesses_are_independent() {
        let m = fresh("process P0:\n guess(x0)\nprocess P1:\n guess(x1)\n");
        let a = footprint(&m, 0);
        let b = footprint(&m, 1);
        assert!(a.independent(&b));
        assert!(b.independent(&a));
    }

    #[test]
    fn same_aid_decisions_conflict() {
        let m = fresh("process P0:\n affirm(x0)\nprocess P1:\n deny(x0)\n");
        let a = footprint(&m, 0);
        let b = footprint(&m, 1);
        assert!(!a.independent(&b));
    }

    #[test]
    fn send_conflicts_with_receiver() {
        let m = fresh("process P0:\n send(P1)\nprocess P1:\n recv\n");
        let s = footprint(&m, 0);
        let r = footprint(&m, 1);
        assert_eq!(s.send_to, Some(1));
        assert!(!s.independent(&r));
    }

    #[test]
    fn deny_footprint_includes_rollback_victims() {
        // P0 guesses x0 (speculative interval), P1 will deny x0: P1's
        // step must claim P0 as a victim once the dependence exists.
        let mut m = fresh("process P0:\n guess(x0)\n compute\nprocess P1:\n deny(x0)\n");
        m.step(0).unwrap();
        let fp = footprint(&m, 1);
        assert!(fp.procs.contains(0), "rollback victim missing: {fp:?}");
        assert!(fp.writes.contains(m.aids()[0]));
    }

    #[test]
    fn skipped_decisions_on_a_consumed_aid_commute() {
        // P0 consumes x0; afterwards both remaining decisions are one-shot
        // violations that merely read the consumed flag — they commute.
        let mut m = fresh("process P0:\n affirm(x0)\n deny(x0)\nprocess P1:\n free_of(x0)\n");
        let before = footprint(&m, 1);
        assert!(before.writes.contains(m.aids()[0]), "live decision writes");
        m.step(0).unwrap();
        let a = footprint(&m, 0);
        let b = footprint(&m, 1);
        assert!(a.reads.contains(m.aids()[0]) && a.writes.is_empty());
        assert!(a.independent(&b), "skip vs skip must commute: {a:?} {b:?}");
    }

    #[test]
    fn compute_is_invisible_for_definite_process() {
        let m = fresh("process P0:\n compute\n compute\nprocess P1:\n guess(x0)\n");
        let pick = singleton(&m);
        assert_eq!(pick, Some(0));
    }

    #[test]
    fn guess_is_not_invisible_when_another_proc_touches_the_aid() {
        let m = fresh("process P0:\n guess(x0)\nprocess P1:\n affirm(x0)\n");
        assert_eq!(singleton(&m), None);
    }

    #[test]
    fn reach_shrinks_once_a_process_passes_its_last_use() {
        // Before P1 moves, its reach covers x0 and guess(x0) cannot be a
        // singleton; after P1's deny(x0) lands (and the engine settles),
        // only `compute` remains, so P0's next aid-free step is invisible.
        let mut m = fresh("process P0:\n compute\n guess(x0)\nprocess P1:\n deny(x0)\n compute\n");
        assert_eq!(singleton(&m), Some(0), "compute is free");
        m.step(0).unwrap();
        assert_eq!(singleton(&m), None, "guess(x0) races P1's deny(x0)");
        m.step(1).unwrap();
        // P1's remaining suffix is aid-free and both processes are
        // definite: the guess no longer interleaves with anything.
        assert_eq!(singleton(&m), Some(0));
    }
}
