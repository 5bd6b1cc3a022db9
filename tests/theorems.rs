//! E9 — mechanical verification of the paper's §5–§6 lemmas and theorems.
//!
//! A random driver executes arbitrary interleavings of HOPE primitives
//! (including message-mediated dependence transfer) against the semantics
//! engine and checks, after *every* transition:
//!
//! * **Lemma 5.1** — `X ∈ A.IDO ⟺ A ∈ X.DOM` (plus the prefix-subset
//!   property its proof rests on) via `Engine::verify_invariants`;
//! * **Theorem 5.1** — rollback truncates a *suffix*: each process's live
//!   history only ever changes by appending or by cutting a tail;
//! * **Theorem 5.2** — a finalized interval is never rolled back;
//! * **Theorem 6.1 / 6.2** — an interval finalizes exactly when every
//!   assumption it depends on is affirmed by intervals that become
//!   definite;
//! * **Lemma 6.3 / Corollary 6.1** — a speculatively affirmed AID becomes
//!   definitively affirmed iff its affirmer finalizes, and is denied if
//!   its affirmer rolls back;
//! * **Theorem 6.3** — after `free_of(X)`, the asserting interval either
//!   never depends on `X` or is rolled back;
//! * **ghost soundness** — a message whose tag contains a denied AID was
//!   necessarily sent by a rolled-back interval (what makes the runtime's
//!   ghost filtering safe);
//! * **resume-point soundness** — after any rollback, the earliest
//!   discarded interval of each victim has a definitively denied guessed
//!   AID, so the runtime's re-executed guess observes `false` (Equation
//!   24).
//!
//! The suite runs both exhaustively (all short scripts over a small
//! alphabet) and over long random scripts drawn from seeded `SimRng` streams.

use std::collections::BTreeMap;

use hope_core::{
    AidId, AidState, Checkpoint, Effect, Engine, GuessOutcome, IntervalId, IntervalStatus,
    ProcessId, ReceiveOutcome, Tag,
};
use hope_sim::SimRng;

/// One abstract operation of the driver's alphabet.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Op {
    Guess {
        p: usize,
        x: usize,
    },
    Affirm {
        p: usize,
        x: usize,
    },
    Deny {
        p: usize,
        x: usize,
    },
    FreeOf {
        p: usize,
        x: usize,
    },
    /// Transfer dependence: tag a message at `from`, deliver it at `to`.
    Send {
        from: usize,
        to: usize,
    },
}

#[derive(Debug, Clone)]
struct SentMessage {
    tag: Tag,
    sender_interval: Option<IntervalId>,
}

#[derive(Debug, Clone)]
struct SpecAffirmRecord {
    aid: AidId,
    affirmer: IntervalId,
}

#[derive(Debug, Clone)]
struct FreeOfRecord {
    aid: AidId,
    interval: Option<IntervalId>,
    was_dependent: bool,
}

/// Drives an [`Engine`] through a script while checking every theorem.
struct Driver {
    engine: Engine,
    pids: Vec<ProcessId>,
    aids: Vec<AidId>,
    /// Live history snapshot per process, for the Theorem 5.1 check.
    histories: Vec<Vec<IntervalId>>,
    /// Every interval ever finalized (Theorem 5.2).
    finalized: Vec<IntervalId>,
    sent: Vec<SentMessage>,
    spec_affirms: Vec<SpecAffirmRecord>,
    free_ofs: Vec<FreeOfRecord>,
    next_ps: u64,
}

impl Driver {
    fn new(n_procs: usize, n_aids: usize) -> Self {
        let mut engine = Engine::new();
        engine.set_invariant_checking(true);
        let pids: Vec<ProcessId> = (0..n_procs).map(|_| engine.register_process()).collect();
        let aids: Vec<AidId> = (0..n_aids).map(|_| engine.aid_init(pids[0])).collect();
        Driver {
            engine,
            pids,
            aids,
            histories: vec![Vec::new(); n_procs],
            finalized: Vec::new(),
            sent: Vec::new(),
            spec_affirms: Vec::new(),
            free_ofs: Vec::new(),
            next_ps: 0,
        }
    }

    fn ps(&mut self) -> Checkpoint {
        self.next_ps += 1;
        Checkpoint(self.next_ps)
    }

    /// Execute one op; consumed-AID misuse is skipped (the generator is
    /// oblivious to consumption, which is the point: the engine must
    /// reject it cleanly).
    fn exec(&mut self, op: Op) {
        let effects = match op {
            Op::Guess { p, x } => {
                let pid = self.pids[p];
                let aid = self.aids[x];
                let ps = self.ps();
                let (_, fx) = self.engine.guess(pid, &[aid], ps).expect("guess is total");
                fx
            }
            Op::Affirm { p, x } => {
                let pid = self.pids[p];
                let aid = self.aids[x];
                match self.engine.affirm(pid, aid) {
                    Ok(fx) => {
                        if let Some(Effect::SpeculativelyAffirmed { aid, by }) = fx
                            .iter()
                            .find(|e| matches!(e, Effect::SpeculativelyAffirmed { .. }))
                        {
                            self.spec_affirms.push(SpecAffirmRecord {
                                aid: *aid,
                                affirmer: *by,
                            });
                        }
                        fx
                    }
                    Err(hope_core::Error::AidConsumed(_)) => Vec::new(),
                    Err(e) => panic!("unexpected engine error: {e}"),
                }
            }
            Op::Deny { p, x } => {
                let pid = self.pids[p];
                let aid = self.aids[x];
                match self.engine.deny(pid, aid) {
                    Ok(fx) => fx,
                    Err(hope_core::Error::AidConsumed(_)) => Vec::new(),
                    Err(e) => panic!("unexpected engine error: {e}"),
                }
            }
            Op::FreeOf { p, x } => {
                let pid = self.pids[p];
                let aid = self.aids[x];
                let interval = self.engine.current_interval(pid).unwrap();
                let was_dependent = interval
                    .map(|a| self.engine.interval(a).unwrap().ido().contains(&aid))
                    .unwrap_or(false);
                match self.engine.free_of(pid, aid) {
                    Ok(fx) => {
                        self.free_ofs.push(FreeOfRecord {
                            aid,
                            interval,
                            was_dependent,
                        });
                        fx
                    }
                    Err(hope_core::Error::AidConsumed(_)) => Vec::new(),
                    Err(e) => panic!("unexpected engine error: {e}"),
                }
            }
            Op::Send { from, to } => {
                let from_pid = self.pids[from];
                let to_pid = self.pids[to];
                let tag = self.engine.dependence_tag(from_pid).unwrap();
                let sender_interval = self.engine.current_interval(from_pid).unwrap();
                self.sent.push(SentMessage {
                    tag: tag.clone(),
                    sender_interval,
                });
                let ps = self.ps();
                let (outcome, fx) = self.engine.implicit_guess(to_pid, &tag, ps).unwrap();
                if let ReceiveOutcome::Ghost(denied) = outcome {
                    // Engine-level ghost check is immediate here because
                    // this driver delivers synchronously.
                    assert_eq!(
                        self.engine.aid_state(denied).unwrap(),
                        AidState::Denied,
                        "ghost verdicts cite a denied AID"
                    );
                }
                fx
            }
        };
        self.check_after(&effects);
    }

    /// The full post-transition theorem battery.
    fn check_after(&mut self, effects: &[Effect]) {
        // Lemma 5.1 + prefix-subset + status coherence.
        self.engine
            .verify_invariants()
            .unwrap_or_else(|e| panic!("invariant violated: {e}"));

        // Record finalizations; Theorem 5.2 forbids their rollback later.
        for e in effects {
            if let Effect::Finalized { interval, .. } = e {
                self.finalized.push(*interval);
            }
        }
        for a in &self.finalized {
            assert_eq!(
                self.engine.interval(*a).unwrap().status(),
                IntervalStatus::Definite,
                "Theorem 5.2: finalized {a} must stay definite"
            );
        }

        // Theorem 5.1: each process's live history evolved only by
        // appending new intervals and/or truncating a suffix.
        for (i, pid) in self.pids.iter().enumerate() {
            let new: Vec<IntervalId> = self.engine.history(*pid).unwrap().to_vec();
            let old = &self.histories[i];
            let common = old
                .iter()
                .zip(new.iter())
                .take_while(|(a, b)| a == b)
                .count();
            assert!(
                common == old.len()
                    || common == new.len()
                    || new[common..].iter().all(|a| !old.contains(a)),
                "history changed non-suffix-wise: old={old:?} new={new:?}"
            );
            for dropped in &old[common..] {
                if !new.contains(dropped) {
                    assert_eq!(
                        self.engine.interval(*dropped).unwrap().status(),
                        IntervalStatus::RolledBack,
                        "Theorem 5.1: {dropped} left the history without rolling back"
                    );
                }
            }
            self.histories[i] = new;
        }

        // Resume-point soundness: the earliest discarded interval of every
        // rollback has a definitively denied guessed AID.
        for e in effects {
            if let Effect::RolledBack { intervals, .. } = e {
                let first = intervals.first().expect("non-empty rollback");
                let view = self.engine.interval(*first).unwrap();
                if !view.guessed().is_empty() {
                    assert!(
                        view.guessed()
                            .iter()
                            .any(|x| self.engine.aid_state(x).unwrap() == AidState::Denied),
                        "Equation 24: re-executed guess at {first} would speculate again"
                    );
                }
            }
        }

        // Lemma 6.3 / Corollary 6.1: speculative affirms follow their
        // affirmer's fate.
        for rec in &self.spec_affirms {
            let state = self.engine.aid_state(rec.aid).unwrap();
            match self.engine.interval(rec.affirmer).unwrap().status() {
                IntervalStatus::Definite => assert_eq!(
                    state,
                    AidState::Affirmed,
                    "Lemma 6.1: definite affirmer ⇒ affirmed AID {}",
                    rec.aid
                ),
                IntervalStatus::RolledBack => assert_eq!(
                    state,
                    AidState::Denied,
                    "footnote 2: rolled-back affirmer ⇒ denied AID {}",
                    rec.aid
                ),
                IntervalStatus::Speculative => assert_eq!(
                    state,
                    AidState::Undecided,
                    "Lemma 6.3: undecided affirmer ⇒ undecided AID {}",
                    rec.aid
                ),
            }
        }

        // Theorem 6.3: free_of(X) by A ⇒ A never depends on X, or A is
        // rolled back.
        for rec in &self.free_ofs {
            if let Some(a) = rec.interval {
                let view = self.engine.interval(a).unwrap();
                if rec.was_dependent {
                    assert_eq!(
                        view.status(),
                        IntervalStatus::RolledBack,
                        "Theorem 6.3: violated free_of must roll {a} back"
                    );
                } else if view.status() == IntervalStatus::Speculative {
                    assert!(
                        !view.ido().contains(&rec.aid),
                        "Theorem 6.3: {a} became dependent on {} after free_of",
                        rec.aid
                    );
                }
            }
        }

        // Ghost soundness: a denied AID in a sent tag implies the sending
        // interval rolled back.
        for m in &self.sent {
            let has_denied = m
                .tag
                .iter()
                .any(|x| self.engine.aid_state(x).unwrap() == AidState::Denied);
            if has_denied {
                let sender = m
                    .sender_interval
                    .expect("a tagged message has a speculative sender");
                assert_eq!(
                    self.engine.interval(sender).unwrap().status(),
                    IntervalStatus::RolledBack,
                    "ghost soundness: tag {} denied but sender {sender} lives",
                    m.tag
                );
            }
        }

        // Theorem 6.2 (⇐ direction, checkable per state): a definite
        // interval has an empty IDO; a speculative one a non-empty IDO of
        // undecided AIDs.
        for hist in &self.histories {
            for a in hist {
                let view = self.engine.interval(*a).unwrap();
                match view.status() {
                    IntervalStatus::Definite => assert!(view.ido().is_empty()),
                    IntervalStatus::Speculative => {
                        assert!(!view.ido().is_empty());
                        for x in view.ido().iter() {
                            assert_eq!(
                                self.engine.aid_state(x).unwrap(),
                                AidState::Undecided,
                                "live dependence on a decided AID"
                            );
                        }
                    }
                    IntervalStatus::RolledBack => unreachable!("not in live history"),
                }
            }
        }
    }

    /// Theorem 6.1, end-of-run form: affirm every still-affirmable AID
    /// from a fresh definite process. Afterwards a process may remain
    /// speculative **only** through AIDs consumed by *speculative*
    /// primitives whose issuers never became definite — the speculative
    /// cross-affirmation cycles this reproduction documents (Theorem 6.1's
    /// hypothesis "by intervals that eventually become definite" is
    /// unsatisfiable there). Any other residue is a real violation.
    fn settle_and_check_theorem_6_1(mut self) {
        let judge = self.engine.register_process();
        // Affirming can *release* AIDs: a definite deny cascading out of a
        // finalization may roll back an interval holding a speculative
        // deny of some other AID, which un-consumes it. Iterate to a
        // fixpoint (each pass decides at least one AID or stops).
        loop {
            let mut progressed = false;
            for x in self.aids.clone() {
                match self.engine.affirm(judge, x) {
                    Ok(fx) => {
                        progressed = true;
                        self.check_after(&fx);
                    }
                    Err(hope_core::Error::AidConsumed(_)) => {}
                    Err(e) => panic!("unexpected engine error: {e}"),
                }
            }
            if !progressed {
                break;
            }
        }
        for pid in &self.pids {
            if let Some(a) = self.engine.current_interval(*pid).unwrap() {
                for x in self.engine.interval(a).unwrap().ido().iter() {
                    let view = self.engine.aid(x).unwrap();
                    assert!(
                        view.is_consumed(),
                        "Theorem 6.1/6.2: {x} was definitively affirmed, yet \
                         {pid} still depends on it"
                    );
                    assert!(
                        view.speculatively_affirmed_by().is_some()
                            || view.speculatively_denied_by().is_some(),
                        "consumed-but-undecided {x} must be pending a \
                         speculative affirm/deny (a cross-affirmation cycle)"
                    );
                }
            }
        }
    }
}

// ---------------------------------------------------------------------
// exhaustive small-model checking
// ---------------------------------------------------------------------

/// Every op over 2 processes × 2 AIDs.
fn alphabet() -> Vec<Op> {
    let mut ops = Vec::new();
    for p in 0..2 {
        for x in 0..2 {
            ops.push(Op::Guess { p, x });
            ops.push(Op::Affirm { p, x });
            ops.push(Op::Deny { p, x });
            ops.push(Op::FreeOf { p, x });
        }
        ops.push(Op::Send { from: p, to: 1 - p });
    }
    ops
}

#[test]
fn exhaustive_scripts_up_to_length_3() {
    let ops = alphabet(); // 18 ops ⇒ 18³ = 5832 scripts of length 3
    let mut count = 0u64;
    for &a in &ops {
        for &b in &ops {
            for &c in &ops {
                let mut d = Driver::new(2, 2);
                d.exec(a);
                d.exec(b);
                d.exec(c);
                d.settle_and_check_theorem_6_1();
                count += 1;
            }
        }
    }
    assert_eq!(count, 18u64.pow(3));
}

#[test]
fn exhaustive_guess_prefixed_scripts_of_length_4() {
    // Longer scripts, restricted to start from a speculative state (the
    // interesting regime): guess(P0, x0) then any 3 ops.
    let ops = alphabet();
    for &a in &ops {
        for &b in &ops {
            for &c in &ops {
                let mut d = Driver::new(2, 2);
                d.exec(Op::Guess { p: 0, x: 0 });
                d.exec(a);
                d.exec(b);
                d.exec(c);
                d.settle_and_check_theorem_6_1();
            }
        }
    }
}

// ---------------------------------------------------------------------
// seeded random scripts
// ---------------------------------------------------------------------

/// Play `cases` scripts, `script(case)` drawing each, and check the battery
/// after every transition and after settling; a failing case names itself
/// and its script.
fn check_scripts(
    n_procs: usize,
    n_aids: usize,
    cases: u64,
    mut script: impl FnMut(u64) -> Vec<Op>,
) {
    for case in 0..cases {
        let script = script(case);
        let played = std::panic::catch_unwind(|| {
            let mut d = Driver::new(n_procs, n_aids);
            for &op in &script {
                d.exec(op);
            }
            d.settle_and_check_theorem_6_1();
        });
        assert!(played.is_ok(), "case {case} failed on script {script:?}");
    }
}

/// Op `kind` of ten, weighted 3:2:1:1:3 (guess, affirm, deny, free_of,
/// send); a send's operands are its two processes.
fn op(kind: usize, p: usize, x: usize) -> Op {
    match kind {
        0..=2 => Op::Guess { p, x },
        3..=4 => Op::Affirm { p, x },
        5 => Op::Deny { p, x },
        6 => Op::FreeOf { p, x },
        _ => Op::Send { from: p, to: x },
    }
}

/// A script of fewer than `max_len` ops from one stream, each op drawn
/// kind first.
fn random_script(rng: &mut SimRng, n_procs: usize, n_aids: usize, max_len: usize) -> Vec<Op> {
    let len = rng.index(max_len);
    (0..len)
        .map(|_| {
            let kind = rng.index(10);
            let p = rng.index(n_procs);
            op(kind, p, rng.index(if kind < 7 { n_aids } else { n_procs }))
        })
        .collect()
}

/// Case `case`'s script of at most `max_len` ops from a stream of its own,
/// every draw `next_u64() % n` and each op drawn operands first.
fn seeded_script(case: u64, n_procs: usize, n_aids: usize, max_len: usize) -> Vec<Op> {
    let mut rng = SimRng::new(0xC0FF_EE00 ^ case.wrapping_mul(0x9e37_79b9));
    let mut below = |n: usize| (rng.next_u64() % n as u64) as usize;
    let len = below(max_len + 1);
    (0..len)
        .map(|_| {
            let (p, x, kind) = (below(n_procs), below(n_aids), below(10));
            op(kind, p, if kind < 7 { x } else { below(n_procs) })
        })
        .collect()
}

#[test]
fn theorems_hold_on_random_scripts() {
    // FNV-1a of "theorems::theorems_hold_on_random_scripts".
    let mut rng = SimRng::new(0x5e1e_41cb_defd_76aa);
    check_scripts(4, 6, 256, |_| random_script(&mut rng, 4, 6, 48));
}

#[test]
fn theorems_hold_on_dense_two_party_scripts() {
    // FNV-1a of "theorems::theorems_hold_on_dense_two_party_scripts".
    let mut rng = SimRng::new(0x03a7_cea2_003b_8418);
    check_scripts(2, 3, 256, |_| random_script(&mut rng, 2, 3, 64));
}

#[test]
fn theorems_hold_on_seeded_random_scripts() {
    check_scripts(4, 6, 256, |case| seeded_script(case, 4, 6, 48));
}

#[test]
fn theorems_hold_on_seeded_dense_two_party_scripts() {
    check_scripts(2, 3, 256, |case| seeded_script(case, 2, 3, 64));
}

// ---------------------------------------------------------------------
// directed regression scripts for the trickiest interleavings
// ---------------------------------------------------------------------

#[test]
fn chained_speculative_affirms_resolve_transitively() {
    // Corollary 6.1: X depends on Y depends on Z; affirming Z settles all.
    let mut d = Driver::new(3, 3);
    d.exec(Op::Guess { p: 0, x: 0 }); // P0 speculative on X
    d.exec(Op::Guess { p: 1, x: 1 }); // P1 speculative on Y
    d.exec(Op::Affirm { p: 1, x: 0 }); // X now depends on Y
    d.exec(Op::Guess { p: 2, x: 2 }); // P2 speculative on Z
    d.exec(Op::Affirm { p: 2, x: 1 }); // Y now depends on Z
                                       // Definite affirm of Z from a definite process settles the chain.
    let judge = d.engine.register_process();
    let z = d.aids[2];
    let fx = d.engine.affirm(judge, z).unwrap();
    d.check_after(&fx);
    assert_eq!(d.engine.aid_state(d.aids[0]).unwrap(), AidState::Affirmed);
    assert_eq!(d.engine.aid_state(d.aids[1]).unwrap(), AidState::Affirmed);
    for p in 0..3 {
        assert!(!d.engine.is_speculative(d.pids[p]).unwrap());
    }
}

#[test]
fn chained_speculative_affirms_deny_transitively() {
    // Corollary 6.1, negative direction: denying Z kills Y and X.
    let mut d = Driver::new(3, 3);
    d.exec(Op::Guess { p: 0, x: 0 });
    d.exec(Op::Guess { p: 1, x: 1 });
    d.exec(Op::Affirm { p: 1, x: 0 });
    d.exec(Op::Guess { p: 2, x: 2 });
    d.exec(Op::Affirm { p: 2, x: 1 });
    let judge = d.engine.register_process();
    let z = d.aids[2];
    let fx = d.engine.deny(judge, z).unwrap();
    d.check_after(&fx);
    assert_eq!(d.engine.aid_state(d.aids[0]).unwrap(), AidState::Denied);
    assert_eq!(d.engine.aid_state(d.aids[1]).unwrap(), AidState::Denied);
    for p in 0..3 {
        assert!(
            d.engine.history(d.pids[p]).unwrap().is_empty(),
            "everything rolled back"
        );
    }
}

#[test]
fn speculative_deny_chain_applies_on_finalization() {
    // P1, speculative on Y, denies X; X's dependents survive until Y is
    // affirmed, then roll back (Equation 22 via §5.5).
    let mut d = Driver::new(3, 2);
    d.exec(Op::Guess { p: 0, x: 0 }); // P0 depends on X
    d.exec(Op::Guess { p: 1, x: 1 }); // P1 depends on Y
    d.exec(Op::Deny { p: 1, x: 0 }); // speculative deny of X
    assert_eq!(d.engine.aid_state(d.aids[0]).unwrap(), AidState::Undecided);
    assert!(d.engine.is_speculative(d.pids[0]).unwrap());
    d.exec(Op::Affirm { p: 2, x: 1 }); // definite affirm of Y
    assert_eq!(d.engine.aid_state(d.aids[0]).unwrap(), AidState::Denied);
    assert!(!d.engine.is_speculative(d.pids[0]).unwrap());
    assert!(d.engine.history(d.pids[0]).unwrap().is_empty());
}

#[test]
fn dependence_propagates_through_message_chains() {
    let mut d = Driver::new(4, 1);
    d.exec(Op::Guess { p: 0, x: 0 });
    d.exec(Op::Send { from: 0, to: 1 });
    d.exec(Op::Send { from: 1, to: 2 });
    d.exec(Op::Send { from: 2, to: 3 });
    for p in 0..4 {
        assert!(d.engine.is_speculative(d.pids[p]).unwrap());
    }
    d.exec(Op::Deny { p: 0, x: 0 });
    for p in 0..4 {
        assert!(
            d.engine.history(d.pids[p]).unwrap().is_empty(),
            "P{p} must roll back"
        );
    }
}

#[test]
fn guess_after_settlement_is_definite() {
    let mut d = Driver::new(2, 2);
    d.exec(Op::Guess { p: 0, x: 0 });
    d.exec(Op::Affirm { p: 1, x: 0 });
    // P0's interval finalized; a new guess on an affirmed AID finalizes
    // instantly.
    let pid = d.pids[0];
    let aid = d.aids[0];
    let (outcome, fx) = d.engine.guess(pid, &[aid], Checkpoint(99)).unwrap();
    d.check_after(&fx);
    match outcome {
        GuessOutcome::Begun(a) => {
            assert_eq!(
                d.engine.interval(a).unwrap().status(),
                IntervalStatus::Definite
            );
        }
        GuessOutcome::AlreadyFalse(_) => panic!("affirmed, not denied"),
    }
    assert!(!d.engine.is_speculative(pid).unwrap());
}

#[test]
fn interleaved_histories_stay_consistent_under_stress() {
    // A deterministic stress mix exercising every effect kind repeatedly.
    let mut d = Driver::new(4, 6);
    let script = [
        Op::Guess { p: 0, x: 0 },
        Op::Send { from: 0, to: 1 },
        Op::Guess { p: 1, x: 1 },
        Op::Affirm { p: 1, x: 0 },
        Op::Send { from: 1, to: 2 },
        Op::Guess { p: 2, x: 2 },
        Op::Deny { p: 2, x: 1 },
        Op::FreeOf { p: 3, x: 3 },
        Op::Guess { p: 3, x: 4 },
        Op::Send { from: 3, to: 0 },
        Op::Affirm { p: 0, x: 4 },
        Op::Deny { p: 3, x: 5 },
        Op::Guess { p: 0, x: 5 },
        Op::Send { from: 2, to: 3 },
        Op::Affirm { p: 2, x: 2 },
        Op::FreeOf { p: 1, x: 0 },
    ];
    for op in script {
        d.exec(op);
    }
    d.settle_and_check_theorem_6_1();
}

#[test]
fn cross_affirmation_resolves_under_the_resolution_rule() {
    // The naive reading of guess (always add the named AID to IDO) lets
    // two intervals speculatively affirm each other's assumptions into an
    // unresolvable cycle. Our engine resolves a guess of a speculatively
    // affirmed AID to the affirmer's current dependence set (the
    // Eq. 10–14 replacement reading), which makes such scripts *resolve*:
    let mut d = Driver::new(2, 2);
    d.exec(Op::Guess { p: 0, x: 0 }); // A0 depends on X0
    d.exec(Op::Guess { p: 1, x: 1 }); // B0 depends on X1
    d.exec(Op::Affirm { p: 1, x: 0 }); // X0's fate ← B0 (depends on X1)
    d.exec(Op::Guess { p: 0, x: 0 }); // resolves to dependence on X1
    d.exec(Op::Affirm { p: 0, x: 1 }); // self-affirm: settles everything
    for x in [d.aids[0], d.aids[1]] {
        assert_eq!(d.engine.aid_state(x).unwrap(), AidState::Affirmed);
    }
    for p in 0..2 {
        assert!(!d.engine.is_speculative(d.pids[p]).unwrap());
    }
}

#[test]
fn mutual_speculative_denies_livelock() {
    // A reproduction finding the paper does not discuss: two speculative
    // intervals can deny *each other's* assumptions. Each deny pends on
    // its issuer finalizing (§5.5); each issuer's finalization pends on
    // the other's deny taking effect. Both AIDs are consumed, so no third
    // party can break the tie: the system livelocks, consistently.
    let mut d = Driver::new(2, 2);
    d.exec(Op::Guess { p: 0, x: 0 }); // A depends on X0
    d.exec(Op::Guess { p: 1, x: 1 }); // B depends on X1
    d.exec(Op::Deny { p: 0, x: 1 }); // A.IHD = {X1}: applies when A final
    d.exec(Op::Deny { p: 1, x: 0 }); // B.IHD = {X0}: applies when B final
    for x in [d.aids[0], d.aids[1]] {
        assert_eq!(d.engine.aid_state(x).unwrap(), AidState::Undecided);
        assert!(d.engine.aid(x).unwrap().is_consumed());
    }
    let judge = d.engine.register_process();
    for x in [d.aids[0], d.aids[1]] {
        assert!(matches!(
            d.engine.affirm(judge, x),
            Err(hope_core::Error::AidConsumed(_))
        ));
        assert!(matches!(
            d.engine.deny(judge, x),
            Err(hope_core::Error::AidConsumed(_))
        ));
    }
    for p in 0..2 {
        assert!(d.engine.is_speculative(d.pids[p]).unwrap());
    }
    d.engine.verify_invariants().unwrap();
}

#[test]
fn aid_state_and_interval_maps_agree_at_scale() {
    // Larger randomized soak with a fixed seed (cheap, deterministic).
    use hope_core::machine::Machine;
    use hope_core::program::Program;
    use hope_core::NullObserver;
    for seed in 0..25 {
        let program = Program::generate(seed, 4, 40, 5);
        let mut m = Machine::new(program);
        m.run_with(20_000, Some(seed * 31 + 7), &mut NullObserver);
        m.engine()
            .verify_invariants()
            .unwrap_or_else(|e| panic!("seed {seed}: {e}"));
        // Spot-check Theorem 5.2 over the whole interval table.
        let mut statuses: BTreeMap<IntervalId, IntervalStatus> = BTreeMap::new();
        for i in 0..m.engine().interval_count() {
            let id = IntervalId::from_index(i as u64);
            let v = m.engine().interval(id).unwrap();
            statuses.insert(id, v.status());
        }
        assert_eq!(statuses.len(), m.engine().interval_count());
    }
}

/// The full length-4 exhaustive sweep (18⁴ ≈ 105k scripts × the whole
/// theorem battery). Takes tens of seconds; run on demand with
/// `cargo test --test theorems -- --ignored exhaustive_scripts_of_length_4`.
#[test]
#[ignore = "deep verification; ~105k scripts"]
fn exhaustive_scripts_of_length_4() {
    let ops = alphabet();
    for &a in &ops {
        for &b in &ops {
            for &c in &ops {
                for &d0 in &ops {
                    let mut d = Driver::new(2, 2);
                    d.exec(a);
                    d.exec(b);
                    d.exec(c);
                    d.exec(d0);
                    d.settle_and_check_theorem_6_1();
                }
            }
        }
    }
}
