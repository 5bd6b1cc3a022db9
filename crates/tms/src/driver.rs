//! Whole-system driver: spawn reasoners + judge, run, decode the verdict.

use std::collections::BTreeSet;

use hope_runtime::{ProcessId, RunReport, SimConfig, Simulation};
use hope_sim::{Topology, VirtualDuration};

use crate::judge::{run_judge, JudgeConfig};
use crate::logic::{Atom, KnowledgeBase};
use crate::reasoner::{run_reasoner, ReasonerConfig};

/// Result of a distributed TMS run.
#[derive(Debug)]
pub struct TmsOutcome {
    /// Assumptions that survived the judge (committed).
    pub live: BTreeSet<Atom>,
    /// Each reasoner's committed belief set (index = spawn order).
    pub beliefs: Vec<BTreeSet<Atom>>,
    /// The raw simulation report.
    pub report: RunReport,
}

/// Run a TMS over `kb` with one reasoner per assumption list.
pub fn run_tms(
    kb: &KnowledgeBase,
    assumption_lists: &[Vec<Atom>],
    topology: Topology,
    seed: u64,
) -> TmsOutcome {
    let n = assumption_lists.len();
    let mut sim = Simulation::new(SimConfig::with_seed(seed).with_topology(topology));
    let judge_pid = ProcessId(n as u32);
    let max_rounds = assumption_lists.iter().map(Vec::len).max().unwrap_or(0) as u64;
    for (i, assumptions) in assumption_lists.iter().enumerate() {
        let peers: Vec<ProcessId> = (0..n as u32)
            .filter(|&p| p as usize != i)
            .map(ProcessId)
            .collect();
        let cfg = ReasonerConfig {
            judge: judge_pid,
            peers,
            kb: kb.clone(),
            assumptions: assumptions.clone(),
            extra_rounds: max_rounds + 2, // let gossip settle
            // Rounds must outlast the links or facts never land between
            // rounds; 5ms covers every topology the tests and benches use.
            round_time: VirtualDuration::from_millis(5),
        };
        sim.spawn(format!("reasoner{i}"), move |ctx| run_reasoner(ctx, &cfg));
    }
    let jcfg = JudgeConfig {
        kb: kb.clone(),
        reasoners: n,
        step_time: VirtualDuration::from_micros(50),
    };
    sim.spawn("judge", move |ctx| run_judge(ctx, &jcfg));
    let report = sim.run();

    let mut live = BTreeSet::new();
    let mut beliefs = vec![BTreeSet::new(); n];
    for o in report.outputs() {
        if let Some(rest) = o.line.strip_prefix("live=") {
            live = parse_atoms(rest);
        } else if let Some(rest) = o.line.strip_prefix("beliefs=") {
            let idx = o.process.0 as usize;
            if idx < n {
                beliefs[idx] = parse_atoms(rest);
            }
        }
    }
    TmsOutcome {
        live,
        beliefs,
        report,
    }
}

fn parse_atoms(s: &str) -> BTreeSet<Atom> {
    s.split(',')
        .filter(|t| !t.is_empty())
        .filter_map(|t| t.parse().ok())
        .collect()
}

/// The sequential oracle: chronological assumption-based backtracking over
/// one global assumption order. Used by tests to sanity-check the shape of
/// distributed verdicts (exact equality is only guaranteed when the
/// distributed confirmation order matches `order`).
pub fn sequential_oracle(kb: &KnowledgeBase, order: &[Atom]) -> BTreeSet<Atom> {
    let mut live: Vec<Atom> = Vec::new();
    for &atom in order {
        live.push(atom);
        loop {
            let facts: BTreeSet<Atom> = live.iter().copied().collect();
            let closed = kb.close(&facts);
            let Some(violated) = kb.violated(&closed).cloned() else {
                break;
            };
            let culprit = (0..live.len())
                .rev()
                .find(|&i| {
                    let without: BTreeSet<Atom> = live
                        .iter()
                        .enumerate()
                        .filter(|(j, _)| *j != i)
                        .map(|(_, a)| *a)
                        .collect();
                    let closed = kb.close(&without);
                    !violated.atoms.iter().all(|a| closed.contains(a))
                })
                .unwrap_or(live.len() - 1);
            live.remove(culprit);
        }
    }
    live.into_iter().collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use hope_sim::LatencyModel;

    fn topo() -> Topology {
        Topology::uniform(LatencyModel::Fixed(VirtualDuration::from_millis(1)))
    }

    /// Rules: 1∧2→10, 10→11, 3→12; nogoods: {11,12}, {1,4}.
    fn kb() -> KnowledgeBase {
        KnowledgeBase::new(
            &[(&[1, 2], 10), (&[10], 11), (&[3], 12)],
            &[&[11, 12], &[1, 4]],
        )
    }

    #[test]
    fn consistent_assumptions_all_survive() {
        let out = run_tms(&kb(), &[vec![1], vec![2]], topo(), 5);
        assert!(out.report.errors().is_empty(), "{}", out.report);
        assert_eq!(out.live, [1, 2].into());
        // Both reasoners eventually believe the closure {1,2,10,11}.
        for (i, b) in out.beliefs.iter().enumerate() {
            assert_eq!(b, &BTreeSet::from([1, 2, 10, 11]), "reasoner {i}");
        }
        assert_eq!(out.report.stats().rollback_events, 0);
    }

    #[test]
    fn contradiction_across_reasoners_is_revised() {
        // Reasoner 0 assumes 1 and 2 (⇒ 11); reasoner 1 assumes 3 (⇒ 12).
        // {11, 12} is nogood: the judge retracts the newest culpable
        // assumption and the system settles nogood-free.
        let out = run_tms(&kb(), &[vec![1, 2], vec![3]], topo(), 5);
        assert!(out.report.errors().is_empty(), "{}", out.report);
        assert!(out.report.stats().rollback_events > 0, "{}", out.report);
        // The judge's live set is consistent…
        let closed = kb().close(&out.live);
        assert!(kb().violated(&closed).is_none(), "live={:?}", out.live);
        // …and not everything survived.
        assert!(out.live.len() < 3, "live={:?}", out.live);
        // Every committed belief set is nogood-free and within the live
        // closure.
        for (i, b) in out.beliefs.iter().enumerate() {
            assert!(kb().violated(b).is_none(), "reasoner {i}: {b:?}");
            assert!(b.is_subset(&closed), "reasoner {i}: {b:?} ⊄ {closed:?}");
        }
    }

    #[test]
    fn direct_nogood_between_two_reasoners() {
        // {1, 4} is nogood; whichever confirms second is retracted.
        let out = run_tms(&kb(), &[vec![1], vec![4]], topo(), 5);
        assert!(out.report.errors().is_empty(), "{}", out.report);
        assert_eq!(out.live.len(), 1, "live={:?}", out.live);
        assert!(out.report.stats().rollback_events > 0);
        for b in &out.beliefs {
            assert!(kb().violated(b).is_none(), "{b:?}");
        }
    }

    #[test]
    fn matches_sequential_oracle_for_single_reasoner() {
        // One reasoner ⇒ confirmation order == assumption order ⇒ the
        // distributed verdict equals the sequential oracle's.
        let order = vec![1, 2, 3, 4];
        let out = run_tms(&kb(), std::slice::from_ref(&order), topo(), 5);
        assert!(out.report.errors().is_empty(), "{}", out.report);
        let oracle = sequential_oracle(&kb(), &order);
        assert_eq!(out.live, oracle, "{}", out.report);
        assert_eq!(out.beliefs[0], kb().close(&oracle));
    }

    #[test]
    fn deterministic_across_runs() {
        let a = run_tms(&kb(), &[vec![1, 2], vec![3, 4]], topo(), 9);
        let b = run_tms(&kb(), &[vec![1, 2], vec![3, 4]], topo(), 9);
        assert_eq!(a.live, b.live);
        assert_eq!(a.beliefs, b.beliefs);
        assert_eq!(
            a.report.stats().rollback_events,
            b.report.stats().rollback_events
        );
    }

    #[test]
    fn oracle_handles_multiply_supported_nogoods() {
        // a→x, b→x, nogood {x}: removing either alone does not clear it.
        let kb = KnowledgeBase::new(&[(&[1], 10), (&[2], 10)], &[&[10]]);
        let live = sequential_oracle(&kb, &[1, 2]);
        assert!(kb.violated(&kb.close(&live)).is_none(), "{live:?}");
    }
}
