//! Whole-session driver: editors + sequencer, run to convergence.

use hope_runtime::{ProcessId, RunReport, SimConfig, Simulation};
use hope_sim::{Topology, VirtualDuration};

use crate::editor::{run_editor, EditorConfig};
use crate::sequencer::{run_sequencer, SequencerConfig};

/// Result of one editing session.
#[derive(Debug)]
pub struct SessionOutcome {
    /// The sequencer's authoritative final text.
    pub authoritative: String,
    /// Each editor's committed final text (spawn order).
    pub replicas: Vec<String>,
    /// The raw simulation report.
    pub report: RunReport,
}

impl SessionOutcome {
    /// `true` if every replica converged to the authoritative text.
    pub fn converged(&self) -> bool {
        self.replicas.iter().all(|r| *r == self.authoritative)
    }
}

/// Run a co-editing session: `editors` concurrent writers, `edits` each.
pub fn run_session(
    editors: usize,
    edits: u64,
    topology: Topology,
    seed: u64,
    insert_bias: f64,
) -> SessionOutcome {
    let mut sim = Simulation::new(SimConfig::with_seed(seed).with_topology(topology));
    let sequencer = ProcessId(editors as u32);
    let total_versions = editors as u64 * edits;
    for i in 0..editors {
        let cfg = EditorConfig {
            sequencer,
            edits,
            total_versions,
            edit_cost: VirtualDuration::from_millis(2),
            insert_bias,
        };
        sim.spawn(format!("editor{i}"), move |ctx| run_editor(ctx, &cfg));
    }
    let scfg = SequencerConfig {
        editors: (0..editors as u32).map(ProcessId).collect(),
        total_versions,
        step_time: VirtualDuration::from_micros(50),
    };
    sim.spawn("sequencer", move |ctx| run_sequencer(ctx, &scfg));
    let report = sim.run();

    let mut authoritative = String::new();
    let mut replicas = vec![String::new(); editors];
    for o in report.outputs() {
        if let Some(text) = o.line.strip_prefix("doc=") {
            if o.process == sequencer {
                authoritative = text.to_string();
            } else if (o.process.0 as usize) < editors {
                replicas[o.process.0 as usize] = text.to_string();
            }
        }
    }
    SessionOutcome {
        authoritative,
        replicas,
        report,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use hope_sim::LatencyModel;

    fn topo(ms: u64) -> Topology {
        Topology::uniform(LatencyModel::Fixed(VirtualDuration::from_millis(ms)))
    }

    #[test]
    fn single_editor_is_conflict_free() {
        let out = run_session(1, 8, topo(2), 4, 1.0);
        assert!(out.report.errors().is_empty(), "{}", out.report);
        assert!(out.converged(), "{out:?}");
        assert_eq!(out.authoritative.len(), 8, "{out:?}");
        assert_eq!(out.report.stats().rollback_events, 0);
    }

    #[test]
    fn concurrent_editors_converge() {
        let out = run_session(3, 5, topo(3), 7, 0.8);
        assert!(out.report.errors().is_empty(), "{}", out.report);
        assert!(
            out.converged(),
            "authoritative={:?} replicas={:?}",
            out.authoritative,
            out.replicas
        );
        // Three editors racing from the same empty document: conflicts and
        // rebases are inevitable.
        assert!(out.report.stats().rollback_events > 0, "{}", out.report);
    }

    #[test]
    fn insert_only_sessions_preserve_length() {
        let out = run_session(2, 6, topo(1), 9, 1.0);
        assert!(out.converged(), "{out:?}");
        assert_eq!(out.authoritative.chars().count(), 12, "{out:?}");
    }

    #[test]
    fn sessions_are_deterministic() {
        let a = run_session(2, 4, topo(2), 11, 0.7);
        let b = run_session(2, 4, topo(2), 11, 0.7);
        assert_eq!(a.authoritative, b.authoritative);
        assert_eq!(a.replicas, b.replicas);
        assert_eq!(
            a.report.stats().rollback_events,
            b.report.stats().rollback_events
        );
    }

    #[test]
    fn heavy_contention_still_converges() {
        // Zero think-time separation at the message level: everyone
        // proposes against version 0 simultaneously.
        let out = run_session(4, 3, topo(5), 13, 0.6);
        assert!(out.report.errors().is_empty(), "{}", out.report);
        assert!(out.converged(), "{out:?}");
        assert!(out.report.stats().rollback_events >= 3, "{}", out.report);
    }
}
