//! Property tests: distributed truth maintenance over random knowledge
//! bases must always settle to a consistent, committed world.

use std::collections::BTreeSet;

use hope_sim::{LatencyModel, SimRng, Topology, VirtualDuration};
use hope_tms::{run_tms, KnowledgeBase, Nogood, Rule};

const ASSUMABLE: u64 = 6; // atoms 1..=6 are assumable
const DERIVED: u64 = 6; // atoms 7..=12 are derivable heads

fn atom(rng: &mut SimRng) -> u32 {
    rng.range_u64(1, ASSUMABLE + DERIVED + 1) as u32
}

/// A rule of a one- or two-atom body, then a derivable head.
fn rule(rng: &mut SimRng) -> Rule {
    let body = (0..rng.range_u64(1, 3)).map(|_| atom(rng)).collect();
    let head = rng.range_u64(ASSUMABLE + 1, ASSUMABLE + DERIVED + 1) as u32;
    Rule { body, head }
}

/// A nogood of two or three distinct atoms, or fewer if 64·(n + 1) draws
/// do not find them.
fn nogood(rng: &mut SimRng) -> Nogood {
    let n = rng.range_u64(2, 4) as usize;
    let mut atoms = BTreeSet::new();
    for _ in 0..64 * (n + 1) {
        if atoms.len() == n {
            break;
        }
        atoms.insert(atom(rng));
    }
    Nogood {
        atoms: atoms.into_iter().collect(),
    }
}

/// Up to five rules, then up to three nogoods.
fn kb(rng: &mut SimRng) -> KnowledgeBase {
    let rules = (0..rng.range_u64(0, 6)).map(|_| rule(rng)).collect();
    let nogoods = (0..rng.range_u64(0, 4)).map(|_| nogood(rng)).collect();
    KnowledgeBase { rules, nogoods }
}

/// One or two reasoners, each requesting up to three assumable atoms.
fn assumption_lists(rng: &mut SimRng) -> Vec<Vec<u32>> {
    (0..rng.range_u64(1, 3))
        .map(|_| {
            (0..rng.range_u64(0, 4))
                .map(|_| rng.range_u64(1, ASSUMABLE + 1) as u32)
                .collect()
        })
        .collect()
}

#[test]
fn committed_worlds_are_consistent() {
    // FNV-1a of "random_kb::committed_worlds_are_consistent".
    let mut rng = SimRng::new(0x472d_ba94_653c_f1e2);
    for case in 0..24 {
        let (kb, lists) = (kb(&mut rng), assumption_lists(&mut rng));
        let seed = rng.range_u64(0, 32);
        let topo = Topology::uniform(LatencyModel::Fixed(VirtualDuration::from_millis(1)));
        let out = run_tms(&kb, &lists, topo, seed);
        let case = format!("case {case}: {kb:?}, lists {lists:?}, seed {seed}");
        assert!(out.report.errors().is_empty(), "{case}: {}", out.report);
        // The judge's live set is consistent under the rules.
        let closed = kb.close(&out.live);
        assert!(
            kb.violated(&closed).is_none(),
            "{case}: live={:?} violates a nogood",
            out.live
        );
        // Live assumptions were actually assumable and were requested.
        let requested: BTreeSet<u32> = lists.iter().flatten().copied().collect();
        assert!(out.live.iter().all(|a| requested.contains(a)), "{case}");
        // Every committed belief set is nogood-free and inside the live
        // closure.
        for (i, b) in out.beliefs.iter().enumerate() {
            assert!(kb.violated(b).is_none(), "{case}: reasoner {i}: {b:?}");
            assert!(
                b.is_subset(&closed),
                "{case}: reasoner {i}: {b:?} ⊄ {closed:?}"
            );
        }
    }
}

#[test]
fn runs_are_deterministic() {
    // FNV-1a of "random_kb::runs_are_deterministic".
    let mut rng = SimRng::new(0xd35b_9c7e_9111_b3c8);
    for case in 0..24 {
        let (kb, lists) = (kb(&mut rng), assumption_lists(&mut rng));
        let seed = rng.range_u64(0, 8);
        let topo = Topology::uniform(LatencyModel::Fixed(VirtualDuration::from_millis(1)));
        let a = run_tms(&kb, &lists, topo.clone(), seed);
        let b = run_tms(&kb, &lists, topo, seed);
        let case = format!("case {case}: {kb:?}, lists {lists:?}, seed {seed}");
        assert_eq!(&a.live, &b.live, "{case}");
        assert_eq!(&a.beliefs, &b.beliefs, "{case}");
        assert_eq!(
            a.report.stats().rollback_events,
            b.report.stats().rollback_events,
            "{case}"
        );
    }
}
