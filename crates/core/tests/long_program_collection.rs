//! Fossil collection on long seeded programs: a collecting twin against a
//! twin that never collects.
//!
//! `differential_depset.rs` holds the same pair side by side on seeded
//! random programs of at most 120 ops over 3 processes and 6 pre-made AIDs. The
//! seeded generator here goes where those cannot: 6 processes, `aid_init`
//! interleaved with multi-AID guesses, tags, and `Collect` ops, in programs
//! of up to 600 ops that keep naming AIDs long after they became fossils.
//! One twin executes the `Collect` ops and the other skips them; collection
//! is storage reclamation, not semantics, so they must agree on every
//! per-call result and effect list, on the state of every AID ever
//! created, on the open set, and on each history above the horizon.

use hope_core::{AidId, Checkpoint, Engine, IntervalId, ProcessId};
use hope_sim::SimRng;

const NPROCS: usize = 6;

/// One op of the seeded driver program.
#[derive(Debug, Clone)]
enum SeqOp {
    Init { p: usize },
    Guess { p: usize, picks: Vec<usize> },
    Affirm { p: usize, x: usize },
    Deny { p: usize, x: usize },
    FreeOf { p: usize, x: usize },
    Implicit { from: usize, to: usize },
    Collect,
}

/// Generate a seeded random program over `NPROCS` processes. Ops reference
/// AIDs by creation index so the same program applies to both twins.
fn gen_seq_program(seed: u64, len: usize) -> Vec<SeqOp> {
    let mut rng = SimRng::new(seed);
    let mut n_aids = 0usize;
    let mut ops = Vec::with_capacity(len);
    for _ in 0..len {
        let p = rng.index(NPROCS);
        let roll = rng.index(100);
        let op = if n_aids == 0 || roll < 22 {
            n_aids += 1;
            SeqOp::Init { p }
        } else if roll < 50 {
            let k = 1 + rng.index(2.min(n_aids));
            let picks = (0..k).map(|_| rng.index(n_aids)).collect();
            SeqOp::Guess { p, picks }
        } else if roll < 65 {
            SeqOp::Affirm {
                p,
                x: rng.index(n_aids),
            }
        } else if roll < 78 {
            SeqOp::Deny {
                p,
                x: rng.index(n_aids),
            }
        } else if roll < 88 {
            SeqOp::FreeOf {
                p,
                x: rng.index(n_aids),
            }
        } else if roll < 96 {
            SeqOp::Implicit {
                from: rng.index(NPROCS),
                to: p,
            }
        } else {
            SeqOp::Collect
        };
        ops.push(op);
    }
    ops
}

/// Apply one op to an engine and render every observable the
/// call produced (outcome/error and effect list) as a comparable string.
fn apply_seq_op(e: &mut Engine, pids: &[ProcessId], aids: &mut Vec<AidId>, op: &SeqOp) -> String {
    match op {
        SeqOp::Init { p } => {
            let x = e.aid_init(pids[*p]);
            aids.push(x);
            format!("init {x:?}")
        }
        SeqOp::Guess { p, picks } => {
            let named: Vec<AidId> = picks.iter().map(|&i| aids[i]).collect();
            let ps = Checkpoint(aids.len() as u64);
            format!("guess {:?}", e.guess(pids[*p], &named, ps))
        }
        SeqOp::Affirm { p, x } => format!("affirm {:?}", e.affirm(pids[*p], aids[*x])),
        SeqOp::Deny { p, x } => format!("deny {:?}", e.deny(pids[*p], aids[*x])),
        SeqOp::FreeOf { p, x } => format!("free_of {:?}", e.free_of(pids[*p], aids[*x])),
        SeqOp::Implicit { from, to } => {
            // Message passing: carry `from`'s dependence tag to `to`.
            let tag = e.dependence_tag(pids[*from]).expect("registered");
            let ps = Checkpoint(aids.len() as u64);
            format!("implicit {:?}", e.implicit_guess(pids[*to], &tag, ps))
        }
        SeqOp::Collect => format!("collect {:?}", e.collect_fossils()),
    }
}

/// Everything program-facing that collection must leave alone: the state
/// of every AID ever created, the open set, each history's suffix above
/// `horizon` with its statuses, and the counters (fossil counts masked).
fn state_digest(e: &Engine, pids: &[ProcessId], aids: &[AidId], horizon: u64) -> String {
    let mut s = String::new();
    for &x in aids {
        s.push_str(&format!("{x:?}:{:?};", e.aid_state(x)));
    }
    s.push_str(&format!("open:{:?};", e.open_aids()));
    for &p in pids {
        let h: Vec<IntervalId> = e
            .history(p)
            .expect("registered")
            .iter()
            .copied()
            .filter(|a| a.index() >= horizon)
            .collect();
        s.push_str(&format!("h{p:?}:{h:?}="));
        for &iv in &h {
            s.push_str(&format!("{:?},", e.interval(iv).expect("live").status()));
        }
        s.push(';');
    }
    let mut stats = e.stats();
    stats.fossil_intervals = 0;
    stats.fossil_aids = 0;
    s.push_str(&format!("stats:{stats:?};"));
    s
}

/// Drive the twins through the same program in lockstep: `collected`
/// executes the `Collect` ops, `plain` skips them. Returns how many ops
/// named an AID that `collected` had already reclaimed.
fn run_twins(seed: u64, len: usize) -> usize {
    let mut plain = Engine::new();
    let mut collected = Engine::new();
    let pids: Vec<ProcessId> = (0..NPROCS)
        .map(|_| {
            let p = plain.register_process();
            assert_eq!(p, collected.register_process());
            p
        })
        .collect();
    let mut plain_aids = Vec::new();
    let mut collected_aids = Vec::new();

    let assert_state = |plain: &Engine, collected: &Engine, aids: &[AidId], at: &str| {
        let horizon = collected.interval_horizon();
        assert_eq!(
            state_digest(plain, &pids, aids, horizon),
            state_digest(collected, &pids, aids, horizon),
            "seed {seed} {at}: state diverged"
        );
    };
    let mut fossil_refs = 0;
    for (i, op) in gen_seq_program(seed, len).iter().enumerate() {
        let named: &[usize] = match op {
            SeqOp::Collect => {
                apply_seq_op(&mut collected, &pids, &mut collected_aids, op);
                continue;
            }
            SeqOp::Guess { picks, .. } => picks,
            SeqOp::Affirm { x, .. } | SeqOp::Deny { x, .. } | SeqOp::FreeOf { x, .. } => {
                std::slice::from_ref(x)
            }
            SeqOp::Init { .. } | SeqOp::Implicit { .. } => &[],
        };
        if named
            .iter()
            .any(|&k| collected_aids[k].index() < collected.aid_horizon())
        {
            fossil_refs += 1;
        }
        assert_eq!(
            apply_seq_op(&mut plain, &pids, &mut plain_aids, op),
            apply_seq_op(&mut collected, &pids, &mut collected_aids, op),
            "seed {seed} op {i} {op:?} diverged"
        );
        if i % 16 == 0 {
            assert_state(&plain, &collected, &plain_aids, &format!("op {i}"));
        }
    }
    assert_eq!(plain_aids, collected_aids);
    assert_state(&plain, &collected, &plain_aids, "end");
    plain.verify_invariants().expect("invariants hold");
    collected.verify_invariants().expect("invariants hold");
    fossil_refs
}

#[test]
fn collecting_twin_agrees_on_seeded_programs() {
    for seed in 0..40 {
        run_twins(seed, 160);
    }
}

#[test]
fn collecting_twin_agrees_on_long_programs_that_outlive_their_fossils() {
    for seed in 1000..1008 {
        let fossil_refs = run_twins(seed, 600);
        assert!(
            fossil_refs >= 10,
            "seed {seed}: only {fossil_refs} ops named a reclaimed AID"
        );
    }
}
