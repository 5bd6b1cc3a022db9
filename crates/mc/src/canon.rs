//! Canonical state fingerprints.
//!
//! Two interleavings that commute independent steps reach machine states
//! that are *semantically* identical but *representationally* different:
//! the engine allocates [`IntervalId`](hope_core::IntervalId)s and message
//! ids from global sequential counters, so the raw ids depend on execution
//! order. A visited-state cache keyed on raw state would never merge them
//! and the reduction would buy nothing.
//!
//! This module writes no order-dependent id:
//!
//! * no interval is named: a live interval is written at its position in
//!   its process's live engine history (stable because rollback only
//!   truncates suffixes and a machine never collects fossils), and a
//!   history record writes only whether it ran in one (the paper's
//!   `I ≠ ∅`);
//! * a process is its engine pid: machine process `p` is engine pid `p`
//!   ([`Machine::pid`]);
//! * message ids are dropped entirely; a message is its `(sender, tag)`;
//! * everything else is encoded field-by-field in a fixed order.
//!
//! [`state_key`] writes, in order: the process count; per AID its
//! decision state and consumption flag; per process its pc, then per live
//! interval of its engine history its status and, for a speculative one,
//! its guessed set, then its mailbox and delivered messages; every
//! process's history records (event, `I ≠ ∅`, `G`, pc); and whether a
//! rollback or a ghost ever happened. The rest of the chain state is a
//! function of these (DESIGN.md, "A state is its history"), so the key is
//! exactly as fine as one that writes it: which interval a record ran in
//! (count the records that opened one), each interval's resume mark and
//! `A.PS` ([`Machine::resume_mark`] reads them off the history), its `IHD`
//! and `IHA` (its records' speculative decisions), each AID's speculative
//! ties (the interval of its surviving speculative decision), and the
//! dependence relation: `IDO` resolves the guessed sets along the chain
//! through the AIDs' states and ties, the entered sets are its increments
//! and `X.DOM` the suffixes they head.
//!
//! The encoding itself — not a hash of it — is the cache key: a hash of
//! it only picks the visited table's chain, and a key is found by
//! comparing all of its bytes. A 64-bit hash collision used as identity
//! would silently merge distinct states and make the checker unsound,
//! while full keys only cost memory the state budget already bounds. [`state_key`] writes integers as LEB128 varints (59.3
//! bytes a distinct state on the E22 corpus at seed 22; 73.8 while it also
//! wrote the entered sets, `IHD`, `IHA`, resume marks, ties and interval
//! names, 79.3 with full `IDO`/`DOM` sets on top); reports keep
//! [`commit_fingerprint`]'s bytes, so it stays fixed-width. Both are exact
//! encodings (see `Enc`).

use hope_core::machine::{Machine, Msg, StateRecord};
use hope_core::{Action, AidId, AidState, DecideKind, IntervalStatus, ProcessId};

/// A process's canonical name: machine process `p` is engine pid `p`.
fn process_name(pid: ProcessId) -> u64 {
    u64::from(pid.0)
}

/// Byte sink appending to a caller's buffer; integers are LEB128 varints
/// if `VARINT`, else 8-byte little-endian words. Unambiguous because every
/// field is written in a fixed order with explicit length prefixes for
/// sequences, and both integer forms are self-delimiting (varints are
/// prefix-free).
struct Enc<'b, const VARINT: bool>(&'b mut Vec<u8>);

impl<const VARINT: bool> Enc<'_, VARINT> {
    fn u(&mut self, mut v: u64) {
        if !VARINT {
            return self.0.extend_from_slice(&v.to_le_bytes());
        }
        while v >= 0x80 {
            self.0.push(v as u8 | 0x80);
            v >>= 7;
        }
        self.0.push(v as u8);
    }

    fn tag(&mut self, t: u8) {
        self.0.push(t);
    }

    fn flag(&mut self, b: bool) {
        self.0.push(b as u8);
    }

    /// A skipped decider: its statement's encoding (tag 1/2/3, then the
    /// AID — the machine's AIDs are pre-declared, so `aid.index()` is the
    /// program's variable).
    fn skipped(&mut self, aid: AidId, kind: DecideKind) {
        self.tag(8);
        self.tag(match kind {
            DecideKind::Affirm => 1,
            DecideKind::Deny => 2,
            DecideKind::FreeOf => 3,
        });
        self.u(aid.index());
    }

    /// A history action with message ids and senders dropped (they are
    /// allocation-order artefacts).
    fn event(&mut self, e: &Action) {
        match e {
            Action::Guess { aid, value } => {
                self.tag(0);
                self.u(aid.index());
                self.flag(*value);
            }
            Action::Affirm { aid, speculative } => {
                self.tag(1);
                self.u(aid.index());
                self.flag(*speculative);
            }
            Action::Deny { aid, speculative } => {
                self.tag(2);
                self.u(aid.index());
                self.flag(*speculative);
            }
            Action::FreeOf { aid } => {
                self.tag(3);
                self.u(aid.index());
            }
            Action::Compute => self.tag(4),
            Action::Send { to, .. } => {
                self.tag(5);
                self.u(process_name(*to));
            }
            Action::Recv { speculative, .. } => {
                self.tag(6);
                self.flag(*speculative);
            }
            Action::GhostDropped { denied, .. } => {
                self.tag(7);
                self.u(denied.index());
            }
            Action::SkippedDecide { aid, kind } => self.skipped(*aid, *kind),
            Action::Resumed { at_pc } => {
                self.tag(9);
                self.u(*at_pc as u64);
            }
            // `Action` is #[non_exhaustive]; new variants must not silently
            // alias an existing encoding.
            _ => self.tag(255),
        }
    }

    fn msg(&mut self, m: &Msg) {
        self.u(process_name(m.from));
        self.u(m.tag.len() as u64);
        for x in m.tag.iter() {
            self.u(x.index());
        }
    }
}

fn aid_state_tag(s: AidState) -> u8 {
    match s {
        AidState::Undecided => 0,
        AidState::Affirmed => 1,
        AidState::Denied => 2,
    }
}

fn encode_histories(e: &mut Enc<'_, true>, m: &Machine) {
    for p in 0..m.process_count() {
        let h = m.history(p);
        e.u(h.states().len() as u64);
        for rec in h.states() {
            e.event(&rec.event);
            // The paper's `I ≠ ∅`; which interval follows from the records
            // that opened one (DESIGN.md, "A state is its history").
            e.flag(rec.interval.is_some());
            e.tag(match rec.g {
                None => 0,
                Some(false) => 1,
                Some(true) => 2,
            });
            e.u(rec.pc as u64);
        }
    }
}

/// Each AID's decision state and consumption flag.
fn encode_aids<const V: bool>(e: &mut Enc<'_, V>, m: &Machine) {
    let engine = m.engine();
    e.u(engine.aid_count() as u64);
    for i in 0..engine.aid_count() {
        let v = engine
            .aid(AidId::from_index(i as u64))
            .expect("aid in range");
        e.tag(aid_state_tag(v.state()));
        e.flag(v.is_consumed());
    }
}

/// Full canonical encoding of a machine state, suitable as a
/// visited-cache key: two states with equal keys have identical futures
/// and identical verdict-relevant pasts (rollback/ghost/skip sins).
pub fn state_key(m: &Machine) -> Vec<u8> {
    let mut key = Vec::new();
    state_key_into(m, &mut key);
    key
}

/// [`state_key`], written over `key`'s bytes: the explorer keeps one
/// buffer for every key it writes.
pub(crate) fn state_key_into(m: &Machine, key: &mut Vec<u8>) {
    let engine = m.engine();
    // Sized up front: no key the generated corpora reach (E22's and the
    // tests') needs more than 8 bytes per history record, AID and process.
    let n = m.process_count();
    let records: usize = (0..n).map(|p| m.history(p).states().len()).sum();
    key.clear();
    key.reserve(8 * (records + engine.aid_count() + n));
    let mut e = Enc::<true>(key);
    e.u(n as u64);
    encode_aids(&mut e, m);
    for p in 0..n {
        e.u(m.pc(p) as u64);
        let history = engine.history(m.pid(p)).expect("machine process");
        e.u(history.len() as u64);
        for &a in history {
            let v = engine.interval(a).expect("live interval");
            match v.status() {
                IntervalStatus::Definite => e.tag(0),
                IntervalStatus::Speculative => {
                    // What the guess named, resolved: with the AIDs'
                    // states it gives the chain (DESIGN.md, "A state is
                    // its history").
                    e.tag(1);
                    let guessed = v.guessed();
                    e.u(guessed.len() as u64);
                    for x in guessed {
                        e.u(x.index());
                    }
                }
                IntervalStatus::RolledBack => unreachable!("live history has no rolled-back"),
            }
        }
        e.u(m.mailbox(p).count() as u64);
        for msg in m.mailbox(p) {
            e.msg(msg);
        }
        e.u(m.delivered(p).len() as u64);
        for msg in m.delivered(p) {
            e.msg(msg);
        }
    }
    encode_histories(&mut e, m);
    // Verdict-relevant sins: states that differ only in *whether* a
    // rollback or ghost ever happened must not merge, or a sinful path
    // could claim a pristine terminal.
    let stats = engine.stats();
    e.flag(stats.rollback_events > 0);
    e.flag(stats.ghosts > 0);
}

/// Canonical encoding of a run's *committed outcome*: final AID decisions
/// plus each process's surviving history restricted to program-visible
/// behaviour. Two completed runs commit the same observable outcome iff
/// their fingerprints are equal — this is what the Theorem 6.x
/// committed-output determinism claims quantify over.
///
/// Scheduling bookkeeping is deliberately excluded: *which* interval was
/// current, whether a primitive happened to be speculative at the time,
/// ghost messages filtered before delivery, and `Resumed` markers all
/// record *when* commitment happened, never *what* was committed (the
/// same scoping the chaos oracle applies to fault plans). What stays is
/// everything a program could act on: each guess's returned value, the
/// decisions taken, computes, send targets, delivered-message senders,
/// and the final decision state of every AID.
/// Integers are fixed-width words: these are the bytes
/// [`McReport::outputs`](crate::McReport::outputs) holds.
pub fn commit_fingerprint(m: &Machine) -> Vec<u8> {
    let mut fingerprint = Vec::new();
    commit_fingerprint_into(m, &mut fingerprint);
    fingerprint
}

/// [`commit_fingerprint`], written over `fingerprint`'s bytes: the
/// explorer keeps one buffer for every terminal it fingerprints.
pub(crate) fn commit_fingerprint_into(m: &Machine, fingerprint: &mut Vec<u8>) {
    let n = m.process_count();
    let records: usize = (0..n).map(|p| m.history(p).states().len()).sum();
    // At most 19 bytes a history record (its delivery's sender included),
    // 17 a process and 2 an AID, so the bytes are written without a copy.
    fingerprint.clear();
    fingerprint.reserve(16 + 19 * records + 17 * n + 2 * m.engine().aid_count());
    let mut e = Enc::<false>(fingerprint);
    e.u(n as u64);
    encode_aids(&mut e, m);
    let visible = |rec: &&StateRecord| {
        !matches!(
            rec.event,
            Action::GhostDropped { .. } | Action::Resumed { .. }
        )
    };
    for p in 0..n {
        e.flag(m.poll(p) == hope_core::machine::StepOutcome::Done);
        let states = m.history(p).states();
        e.u(states.iter().filter(visible).count() as u64);
        for rec in states.iter().filter(visible) {
            match &rec.event {
                Action::Guess { aid, value } => {
                    e.tag(0);
                    e.u(aid.index());
                    e.flag(*value);
                }
                Action::Affirm { aid, .. } => {
                    e.tag(1);
                    e.u(aid.index());
                }
                Action::Deny { aid, .. } => {
                    e.tag(2);
                    e.u(aid.index());
                }
                Action::FreeOf { aid } => {
                    e.tag(3);
                    e.u(aid.index());
                }
                Action::Compute => e.tag(4),
                Action::Send { to, .. } => {
                    e.tag(5);
                    e.u(process_name(*to));
                }
                Action::Recv { .. } => e.tag(6),
                Action::SkippedDecide { aid, kind } => e.skipped(*aid, *kind),
                Action::GhostDropped { .. } | Action::Resumed { .. } => unreachable!("filtered"),
                _ => e.tag(255),
            }
            e.tag(match rec.g {
                None => 0,
                Some(false) => 1,
                Some(true) => 2,
            });
        }
        // The i-th surviving Recv delivered the i-th surviving message:
        // senders are program-visible.
        e.u(m.delivered(p).len() as u64);
        for msg in m.delivered(p) {
            e.u(process_name(msg.from));
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use hope_core::machine::StepOutcome;
    use hope_core::observer::NullObserver;
    use hope_core::program::Program;
    use hope_sim::SimRng;
    use std::collections::{HashMap, HashSet};

    fn machine_after(program: &Program, schedule: &[usize]) -> Machine {
        let mut m = Machine::new(program.clone());
        for &p in schedule {
            m.step(p).expect("machine-built programs cannot err");
        }
        m
    }

    /// A machine of a generated program after seeded random steps.
    fn random_machine(rng: &mut SimRng) -> Machine {
        let (procs, len, aids) = (1 + rng.index(4), 1 + rng.index(5), 1 + rng.index(4));
        let mut m = Machine::new(Program::generate(rng.next_u64(), procs, len, aids));
        let steps = rng.index(25) as u64;
        m.run_with(steps, Some(rng.next_u64()), &mut NullObserver);
        m
    }

    #[test]
    fn clone_from_writes_the_keys_of_a_clone() {
        // A machine written over one of another program or state (fewer or
        // more processes, records and messages) by `clone_from` has the
        // original's key and fingerprint, and keeps them step for step
        // along one schedule. The keys go through the explorer's reused
        // buffers, which hold the previous key's bytes when written.
        let mut rng = SimRng::new(0xC10E_F60B);
        let (mut key, mut fingerprint) = (Vec::new(), Vec::new());
        for case in 0..400 {
            let a = random_machine(&mut rng);
            let mut b = random_machine(&mut rng);
            b.clone_from(&a);
            let mut c = a.clone();
            let (want_key, want_fp) = (state_key(&a), commit_fingerprint(&a));
            for m in [&b, &c] {
                state_key_into(m, &mut key);
                commit_fingerprint_into(m, &mut fingerprint);
                assert_eq!(key, want_key, "case {case}");
                assert_eq!(fingerprint, want_fp, "case {case}");
            }
            for _ in 0..30 {
                let enabled: Vec<usize> = (0..c.process_count())
                    .filter(|&p| c.poll(p) == StepOutcome::Executed)
                    .collect();
                if enabled.is_empty() {
                    break;
                }
                let p = enabled[rng.index(enabled.len())];
                b.step(p).expect("machine-built programs cannot err");
                c.step(p).expect("machine-built programs cannot err");
                assert_eq!(state_key(&b), state_key(&c), "case {case}: after P{p}");
                assert_eq!(
                    commit_fingerprint(&b),
                    commit_fingerprint(&c),
                    "case {case}"
                );
            }
        }
    }

    #[test]
    fn commuting_independent_steps_converge() {
        // P0 and P1 guess disjoint AIDs: raw interval ids differ across
        // the two orders, canonical keys must not.
        let program: Program = "process P0:\n guess(x0)\nprocess P1:\n guess(x1)\n"
            .parse()
            .unwrap();
        let ab = machine_after(&program, &[0, 1]);
        let ba = machine_after(&program, &[1, 0]);
        assert_eq!(state_key(&ab), state_key(&ba));
        assert_eq!(commit_fingerprint(&ab), commit_fingerprint(&ba));
    }

    #[test]
    fn commuting_sends_converge_despite_msg_ids() {
        // Sends to the same mailbox do NOT commute (delivery order): the
        // two orders queue P2's messages differently and must not merge.
        let same_mailbox: Program =
            "process P0:\n send(P2)\nprocess P1:\n send(P2)\nprocess P2:\n recv\n recv\n"
                .parse()
                .unwrap();
        let a = machine_after(&same_mailbox, &[0, 1]);
        let b = machine_after(&same_mailbox, &[1, 0]);
        assert_ne!(state_key(&a), state_key(&b));
        // A send and a step elsewhere do commute; message ids, which
        // follow allocation order, must not distinguish the two orders.
        let elsewhere: Program =
            "process P0:\n send(P1)\nprocess P1:\n recv\nprocess P2:\n compute\n"
                .parse()
                .unwrap();
        let a = machine_after(&elsewhere, &[2, 0]);
        let b = machine_after(&elsewhere, &[0, 2]);
        assert_eq!(state_key(&a), state_key(&b));
    }

    #[test]
    fn dependent_orders_differ() {
        // affirm vs deny race on the same AID: the two orders must NOT
        // collide.
        let program: Program = "process P0:\n affirm(x0)\nprocess P1:\n deny(x0)\n"
            .parse()
            .unwrap();
        let ab = machine_after(&program, &[0, 1]);
        let ba = machine_after(&program, &[1, 0]);
        assert_ne!(state_key(&ab), state_key(&ba));
    }

    #[test]
    fn sins_are_part_of_the_key() {
        // A rolled-back-and-resumed state must not merge with a state that
        // never sinned, even where the rest of the key cannot tell them
        // apart: the key ends with both sins, on every state of a program
        // whose self-deny rolls P0 back and leaves P1 a ghost to drop.
        let program: Program =
            "process P0:\n guess(x0)\n send(P1)\n deny(x0)\n send(P1)\nprocess P1:\n recv\n"
                .parse()
                .unwrap();
        let mut reached = HashSet::new();
        let mut stack = vec![Machine::new(program)];
        while let Some(m) = stack.pop() {
            let stats = m.engine().stats();
            let sins = [stats.rollback_events > 0, stats.ghosts > 0];
            let key = state_key(&m);
            assert_eq!(key[key.len() - 2..], sins.map(u8::from), "{sins:?}");
            reached.insert(sins);
            for p in 0..m.process_count() {
                if m.poll(p) == StepOutcome::Executed {
                    let mut child = m.clone();
                    child.step(p).expect("machine-built programs cannot err");
                    stack.push(child);
                }
            }
        }
        let want = HashSet::from([[false, false], [true, false], [true, true]]);
        assert_eq!(reached, want, "none, a rollback, a rollback and a ghost");
    }

    /// The fixed-width encoding — every integer an 8-byte little-endian
    /// word — transcribed field by field as the oracle for the compact
    /// state key and the unchanged commit fingerprint.
    mod fixed_width {
        use super::super::aid_state_tag;
        use hope_core::machine::{Machine, Msg, StepOutcome};
        use hope_core::{Action, AidId, DecideKind, IntervalId, IntervalStatus, ProcessId};

        /// An interval's name: `(process index, position in that process's
        /// live engine history)`.
        type CanonRef = (u64, u64);

        /// The renaming the compact key used before it read names off the
        /// interval records: a table of every live interval sorted by raw
        /// id, and a pid named by its position in the machine's process
        /// order. Kept here so that the oracle checks the naming as well
        /// as the encoding.
        struct Names<'m> {
            /// Every live interval's name, sorted by raw id.
            intervals: Vec<(IntervalId, CanonRef)>,
            /// The machine, whose process order names pids.
            m: &'m Machine,
        }

        impl<'m> Names<'m> {
            fn build(m: &'m Machine) -> Self {
                let mut intervals = Vec::new();
                for p in 0..m.process_count() {
                    let history = m.engine().history(m.pid(p)).expect("machine process");
                    for (i, &a) in history.iter().enumerate() {
                        intervals.push((a, (p as u64, i as u64)));
                    }
                }
                intervals.sort_unstable_by_key(|&(a, _)| a);
                Names { intervals, m }
            }

            fn interval(&self, a: IntervalId) -> CanonRef {
                let i = self
                    .intervals
                    .binary_search_by_key(&a, |&(b, _)| b)
                    .expect("canonicalized interval is live");
                self.intervals[i].1
            }

            fn process(&self, pid: ProcessId) -> u64 {
                let m = self.m;
                let p = (0..m.process_count()).position(|p| m.pid(p) == pid);
                p.expect("canonicalized pid is registered") as u64
            }
        }

        #[derive(Default)]
        struct W(Vec<u8>);

        impl W {
            fn u(&mut self, v: u64) {
                self.0.extend_from_slice(&v.to_le_bytes());
            }

            fn tag(&mut self, t: u8) {
                self.0.push(t);
            }

            fn opt_cref(&mut self, r: Option<CanonRef>) {
                match r {
                    None => self.tag(0),
                    Some((p, i)) => {
                        self.tag(1);
                        self.u(p);
                        self.u(i);
                    }
                }
            }

            fn g(&mut self, g: Option<bool>) {
                self.tag(match g {
                    None => 0,
                    Some(false) => 1,
                    Some(true) => 2,
                });
            }

            /// A skipped decider is written as its statement: the
            /// statement's tag, then the AID's index.
            fn skipped(&mut self, aid: AidId, kind: DecideKind) {
                self.tag(8);
                self.tag(match kind {
                    DecideKind::Affirm => 1,
                    DecideKind::Deny => 2,
                    DecideKind::FreeOf => 3,
                });
                self.u(aid.index());
            }

            fn event(&mut self, e: &Action, names: &Names) {
                match e {
                    Action::Guess { aid, value } => {
                        self.tag(0);
                        self.u(aid.index());
                        self.tag(*value as u8);
                    }
                    Action::Affirm { aid, speculative } => {
                        self.tag(1);
                        self.u(aid.index());
                        self.tag(*speculative as u8);
                    }
                    Action::Deny { aid, speculative } => {
                        self.tag(2);
                        self.u(aid.index());
                        self.tag(*speculative as u8);
                    }
                    Action::FreeOf { aid } => {
                        self.tag(3);
                        self.u(aid.index());
                    }
                    Action::Compute => self.tag(4),
                    Action::Send { to, .. } => {
                        self.tag(5);
                        self.u(names.process(*to));
                    }
                    Action::Recv { speculative, .. } => {
                        self.tag(6);
                        self.tag(*speculative as u8);
                    }
                    Action::GhostDropped { denied, .. } => {
                        self.tag(7);
                        self.u(denied.index());
                    }
                    Action::SkippedDecide { aid, kind } => self.skipped(*aid, *kind),
                    Action::Resumed { at_pc } => {
                        self.tag(9);
                        self.u(*at_pc as u64);
                    }
                    _ => self.tag(255),
                }
            }

            fn msg(&mut self, m: &Msg, names: &Names) {
                self.u(names.process(m.from));
                self.u(m.tag.len() as u64);
                for x in m.tag.iter() {
                    self.u(x.index());
                }
            }

            fn aids(&mut self, m: &Machine, names: &Names, with_control: bool) {
                let engine = m.engine();
                self.u(engine.aid_count() as u64);
                for i in 0..engine.aid_count() {
                    let v = engine.aid(AidId::from_index(i as u64)).unwrap();
                    self.tag(aid_state_tag(v.state()));
                    self.tag(v.is_consumed() as u8);
                    if with_control {
                        self.opt_cref(v.speculatively_affirmed_by().map(|a| names.interval(a)));
                        self.opt_cref(v.speculatively_denied_by().map(|a| names.interval(a)));
                        let mut dom: Vec<CanonRef> =
                            v.dom().iter().map(|a| names.interval(a)).collect();
                        dom.sort_unstable();
                        self.u(dom.len() as u64);
                        for (p, i) in dom {
                            self.u(p);
                            self.u(i);
                        }
                    }
                }
            }
        }

        pub(super) fn state_key(m: &Machine) -> Vec<u8> {
            let names = Names::build(m);
            let engine = m.engine();
            let mut e = W::default();
            e.u(m.process_count() as u64);
            e.aids(m, &names, true);
            for p in 0..m.process_count() {
                e.u(m.pc(p) as u64);
                let history = engine.history(m.pid(p)).unwrap();
                e.u(history.len() as u64);
                for &a in history {
                    let v = engine.interval(a).unwrap();
                    match v.status() {
                        IntervalStatus::Definite => e.tag(0),
                        IntervalStatus::Speculative => {
                            e.tag(1);
                            for set in [&*v.ido(), v.ihd(), v.iha(), v.guessed()] {
                                e.u(set.len() as u64);
                                for x in set {
                                    e.u(x.index());
                                }
                            }
                            e.u(v.checkpoint().0);
                            let (mpc, mhist, mdel) = m.resume_mark(p, a).unwrap();
                            e.u(mpc as u64);
                            e.u(mhist as u64);
                            e.u(mdel as u64);
                        }
                        IntervalStatus::RolledBack => unreachable!(),
                    }
                }
                e.u(m.mailbox(p).count() as u64);
                for msg in m.mailbox(p) {
                    e.msg(msg, &names);
                }
                e.u(m.delivered(p).len() as u64);
                for msg in m.delivered(p) {
                    e.msg(msg, &names);
                }
            }
            for p in 0..m.process_count() {
                let h = m.history(p);
                e.u(h.states().len() as u64);
                for rec in h.states() {
                    e.event(&rec.event, &names);
                    e.opt_cref(rec.interval.map(|a| names.interval(a)));
                    e.g(rec.g);
                    e.u(rec.pc as u64);
                }
            }
            let stats = engine.stats();
            e.tag((stats.rollback_events > 0) as u8);
            e.tag((stats.ghosts > 0) as u8);
            e.0
        }

        pub(super) fn commit_fingerprint(m: &Machine) -> Vec<u8> {
            let names = Names::build(m);
            let mut e = W::default();
            e.u(m.process_count() as u64);
            e.aids(m, &names, false);
            for p in 0..m.process_count() {
                e.tag((m.poll(p) == StepOutcome::Done) as u8);
                let visible: Vec<_> = m
                    .history(p)
                    .states()
                    .iter()
                    .filter(|r| {
                        !matches!(
                            r.event,
                            Action::GhostDropped { .. } | Action::Resumed { .. }
                        )
                    })
                    .collect();
                e.u(visible.len() as u64);
                for rec in visible {
                    match &rec.event {
                        Action::Guess { aid, value } => {
                            e.tag(0);
                            e.u(aid.index());
                            e.tag(*value as u8);
                        }
                        Action::Affirm { aid, .. } => {
                            e.tag(1);
                            e.u(aid.index());
                        }
                        Action::Deny { aid, .. } => {
                            e.tag(2);
                            e.u(aid.index());
                        }
                        Action::FreeOf { aid } => {
                            e.tag(3);
                            e.u(aid.index());
                        }
                        Action::Compute => e.tag(4),
                        Action::Send { to, .. } => {
                            e.tag(5);
                            e.u(names.process(*to));
                        }
                        Action::Recv { .. } => e.tag(6),
                        Action::SkippedDecide { aid, kind } => e.skipped(*aid, *kind),
                        _ => e.tag(255),
                    }
                    e.g(rec.g);
                }
                e.u(m.delivered(p).len() as u64);
                for msg in m.delivered(p) {
                    e.u(names.process(msg.from));
                }
            }
            e.0
        }
    }

    /// How many distinct states held each piece of chain state the key
    /// leaves to the history: a speculative interval with a non-empty
    /// `IHD` or `IHA`, an AID speculatively decided, a rollback behind it,
    /// and a process whose chain has two or more non-empty entered sets.
    #[derive(Debug, Default)]
    struct Coverage {
        states: usize,
        ihd: usize,
        iha: usize,
        ties: usize,
        rollbacks: usize,
        chains: usize,
    }

    impl Coverage {
        fn count(&mut self, m: &Machine) {
            let engine = m.engine();
            let (mut ihd, mut iha, mut chain) = (false, false, false);
            for p in 0..m.process_count() {
                let history = engine.history(m.pid(p)).unwrap();
                let mut entered = 0;
                for &a in history {
                    let v = engine.interval(a).unwrap();
                    if v.status() == IntervalStatus::Speculative {
                        ihd |= !v.ihd().is_empty();
                        iha |= !v.iha().is_empty();
                        entered += usize::from(!v.entered().is_empty());
                    }
                }
                chain |= entered >= 2;
            }
            let tie = (0..engine.aid_count()).any(|i| {
                let v = engine.aid(AidId::from_index(i as u64)).unwrap();
                v.speculatively_affirmed_by().is_some() || v.speculatively_denied_by().is_some()
            });
            self.states += 1;
            self.ihd += usize::from(ihd);
            self.iha += usize::from(iha);
            self.ties += usize::from(tie);
            self.rollbacks += usize::from(engine.stats().rollback_events > 0);
            self.chains += usize::from(chain);
        }
    }

    /// Every state a DFS over all interleavings reaches, each distinct
    /// fixed-width key expanded once (equal keys have equal futures, which
    /// is the property both keys exist to provide) and counted in `cover`.
    /// Returns the most speculative intervals one process held at once.
    fn reachable(
        program: &Program,
        seen: &mut HashMap<Vec<u8>, Vec<u8>>,
        cover: &mut Coverage,
    ) -> usize {
        let mut deepest = 0;
        let mut stack = vec![Machine::new(program.clone())];
        while let Some(m) = stack.pop() {
            for p in 0..m.process_count() {
                let history = m.engine().history(m.pid(p)).unwrap();
                let chain = history.iter().filter(|&&a| {
                    m.engine().interval(a).unwrap().status() == IntervalStatus::Speculative
                });
                deepest = deepest.max(chain.count());
            }
            assert_eq!(
                commit_fingerprint(&m),
                fixed_width::commit_fingerprint(&m),
                "commit fingerprints are fixed-width\n{program}"
            );
            let (old, new) = (fixed_width::state_key(&m), state_key(&m));
            if let Some(known) = seen.get(&old) {
                assert_eq!(
                    known, &new,
                    "equal fixed-width keys, different keys\n{program}"
                );
                continue;
            }
            seen.insert(old, new);
            cover.count(&m);
            for p in 0..m.process_count() {
                if m.poll(p) == StepOutcome::Executed {
                    let mut child = m.clone();
                    child.step(p).expect("machine-built programs cannot err");
                    stack.push(child);
                }
            }
        }
        deepest
    }

    #[test]
    fn compact_keys_are_the_fixed_width_keys_equivalence() {
        // Over every reachable state of 300 generated programs: the map
        // from fixed-width key to key is a function (checked on arrival)
        // and injective (checked per program below), so equal keys are
        // exactly equal fixed-width keys, although the key leaves out the
        // chain state the history determines and the fixed-width key
        // writes all of it. The deep slice's processes are longer (≈31k
        // states), so that one holds at least three speculative intervals
        // at once and the entered sets form a chain, not one set; the
        // four-process slice adds the third party that a speculative
        // decision's cascade reaches.
        let deep = (0..40u64).map(|s| (true, Program::generate(s, 3, 5, 3)));
        let corpus = (0..120u64)
            .map(|s| (false, Program::generate(s, 3, 3, 3)))
            .chain((0..100u64).map(|s| (false, Program::generate(s, 2, 4, 2))))
            .chain(deep)
            .chain((0..40u64).map(|s| (false, Program::generate(s, 4, 3, 3))));
        let mut cover = Coverage::default();
        let (mut old_bytes, mut new_bytes, mut deepest) = (0, 0, 0);
        for (in_deep_slice, program) in corpus {
            let mut seen = HashMap::new();
            let chain = reachable(&program, &mut seen, &mut cover);
            if in_deep_slice {
                deepest = deepest.max(chain);
            }
            let distinct: HashSet<&Vec<u8>> = seen.values().collect();
            assert_eq!(
                distinct.len(),
                seen.len(),
                "two states share a key\n{program}"
            );
            old_bytes += seen.keys().map(Vec::len).sum::<usize>();
            new_bytes += seen.values().map(Vec::len).sum::<usize>();
        }
        let states = cover.states;
        assert!(states > 10_000, "the corpus reaches only {states} states");
        assert!(deepest >= 3, "the deep slice's longest chain is {deepest}");
        assert!(
            new_bytes * 3 < old_bytes,
            "{new_bytes} vs {old_bytes} bytes"
        );
        // The equivalence is only as strong as the states it ran over:
        // each piece of chain state the key derives must have occurred.
        let c = &cover;
        let counts = [c.ihd, c.iha, c.ties, c.rollbacks, c.chains];
        assert!(!counts.contains(&0), "{cover:?}");
    }
}
