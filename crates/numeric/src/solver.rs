//! Whole-problem drivers: build the chunk pipeline, run it, collect the
//! committed solution.

use hope_runtime::{ProcessId, RunReport, SimConfig, Simulation};
use hope_sim::{Topology, VirtualDuration};

use crate::worker::{jacobi_step, run_chunk_optimistic, run_chunk_sync, ChunkConfig};

/// Problem parameters for a domain-decomposed Jacobi run.
#[derive(Debug, Clone)]
pub struct Problem {
    /// Number of chunk processes.
    pub n_chunks: usize,
    /// Interior cells per chunk.
    pub chunk_size: usize,
    /// Jacobi iterations.
    pub iterations: u64,
    /// Halo-prediction tolerance (0 ⇒ exact reproduction of the
    /// synchronous solution).
    pub tolerance: f64,
    /// Virtual CPU per iteration per chunk.
    pub compute_per_iter: VirtualDuration,
    /// Dirichlet boundary at the global left edge.
    pub left_boundary: f64,
    /// Dirichlet boundary at the global right edge.
    pub right_boundary: f64,
}

impl Default for Problem {
    fn default() -> Self {
        Problem {
            n_chunks: 4,
            chunk_size: 8,
            iterations: 20,
            tolerance: 0.0,
            compute_per_iter: VirtualDuration::from_micros(200),
            left_boundary: 1.0,
            right_boundary: 0.0,
        }
    }
}

/// The outcome of one run: per-chunk committed sums plus the raw report.
#[derive(Debug)]
pub struct JacobiOutcome {
    /// Committed per-chunk sums (index order); `None` where a chunk's
    /// output never committed (should not happen — asserted in tests).
    pub sums: Vec<Option<f64>>,
    /// The full simulation report.
    pub report: RunReport,
}

impl JacobiOutcome {
    /// Total of all committed sums.
    ///
    /// # Panics
    ///
    /// Panics if any chunk failed to commit its result.
    pub fn total(&self) -> f64 {
        self.sums
            .iter()
            .map(|s| s.expect("every chunk committed"))
            .sum()
    }
}

fn chunk_config(p: &Problem, i: usize) -> ChunkConfig {
    ChunkConfig {
        index: i,
        chunk_size: p.chunk_size,
        iterations: p.iterations,
        tolerance: p.tolerance,
        compute_per_iter: p.compute_per_iter,
        left: (i > 0).then(|| ProcessId(i as u32 - 1)),
        right: (i + 1 < p.n_chunks).then(|| ProcessId(i as u32 + 1)),
        left_boundary: p.left_boundary,
        right_boundary: p.right_boundary,
    }
}

/// Run the problem on the given topology, optimistically or not.
pub fn run(problem: &Problem, topology: Topology, seed: u64, optimistic: bool) -> JacobiOutcome {
    let mut sim = Simulation::new(SimConfig::with_seed(seed).with_topology(topology));
    for i in 0..problem.n_chunks {
        let cfg = chunk_config(problem, i);
        if optimistic {
            sim.spawn(format!("chunk{i}"), move |ctx| {
                run_chunk_optimistic(ctx, &cfg)
            });
        } else {
            sim.spawn(format!("chunk{i}"), move |ctx| run_chunk_sync(ctx, &cfg));
        }
    }
    let report = sim.run();
    let mut sums = vec![None; problem.n_chunks];
    for line in report.output_lines() {
        if let Some(rest) = line.strip_prefix("chunk ") {
            let mut parts = rest.split(" sum=");
            if let (Some(i), Some(v)) = (parts.next(), parts.next()) {
                if let (Ok(i), Ok(v)) = (i.parse::<usize>(), v.parse::<f64>()) {
                    if i < sums.len() {
                        sums[i] = Some(v);
                    }
                }
            }
        }
    }
    JacobiOutcome { sums, report }
}

/// The single-process reference solution (no decomposition, no messages).
pub fn reference(problem: &Problem) -> Vec<f64> {
    let n = problem.n_chunks * problem.chunk_size;
    let mut u = vec![0.0f64; n];
    for _ in 0..problem.iterations {
        u = jacobi_step(&u, problem.left_boundary, problem.right_boundary);
    }
    u
}

/// Per-chunk sums of the reference solution.
pub fn reference_sums(problem: &Problem) -> Vec<f64> {
    reference(problem)
        .chunks(problem.chunk_size)
        .map(|c| c.iter().sum())
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use hope_sim::LatencyModel;

    fn topo(ms: u64) -> Topology {
        Topology::uniform(LatencyModel::Fixed(VirtualDuration::from_millis(ms)))
    }

    #[test]
    fn sync_solver_matches_reference_exactly() {
        let p = Problem::default();
        let out = run(&p, topo(2), 1, false);
        assert!(out.report.errors().is_empty(), "{}", out.report);
        let expected = reference_sums(&p);
        for (i, s) in out.sums.iter().enumerate() {
            let got = s.expect("chunk committed");
            assert!(
                (got - expected[i]).abs() < 1e-9,
                "chunk {i}: {got} vs {}",
                expected[i]
            );
        }
    }

    #[test]
    fn optimistic_with_zero_tolerance_is_exact_and_commits() {
        let p = Problem::default();
        let out = run(&p, topo(2), 1, true);
        assert!(out.report.errors().is_empty(), "{}", out.report);
        let expected = reference_sums(&p);
        for (i, s) in out.sums.iter().enumerate() {
            let got = s.unwrap_or_else(|| panic!("chunk {i} never committed: {}", out.report));
            assert!(
                (got - expected[i]).abs() < 1e-9,
                "chunk {i}: {got} vs {}",
                expected[i]
            );
        }
        // Early iterations mispredict (halos move fast), so rollbacks
        // must have occurred — that is the machinery working.
        assert!(out.report.stats().rollback_events > 0, "{}", out.report);
    }

    #[test]
    fn loose_tolerance_is_faster_and_bounded() {
        let mut p = Problem {
            iterations: 16,
            ..Problem::default()
        };
        let exact = run(&p, topo(5), 2, true);
        p.tolerance = 0.05;
        let loose = run(&p, topo(5), 2, true);
        assert!(loose.report.errors().is_empty(), "{}", loose.report);
        // Fewer rollbacks and no later finish.
        assert!(
            loose.report.stats().rollback_events <= exact.report.stats().rollback_events,
            "loose {} vs exact {}",
            loose.report.stats().rollback_events,
            exact.report.stats().rollback_events
        );
        // Bounded deviation from the reference.
        let expected = reference_sums(&p);
        for (i, s) in loose.sums.iter().enumerate() {
            let got = s.expect("chunk committed");
            let bound = p.tolerance * p.iterations as f64 * p.chunk_size as f64;
            assert!(
                (got - expected[i]).abs() <= bound,
                "chunk {i}: {got} vs {} (bound {bound})",
                expected[i]
            );
        }
    }

    #[test]
    fn optimistic_beats_sync_on_slow_links() {
        let p = Problem {
            tolerance: 0.02,
            ..Problem::default()
        };
        let sync = run(&p, topo(10), 3, false);
        let opt = run(&p, topo(10), 3, true);
        let ts = sync.report.end_time();
        let to = opt.report.end_time();
        assert!(
            to < ts,
            "optimistic {to} !< sync {ts} (rollbacks {})",
            opt.report.stats().rollback_events
        );
    }
}
