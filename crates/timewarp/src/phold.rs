//! The PHOLD workload: the standard Time Warp benchmark, plus a sequential
//! baseline.
//!
//! PHOLD circulates a fixed population of jobs among N logical processes;
//! each handled job is re-scheduled at a random future model time on a
//! random LP. The Time Warp version distributes the work across N
//! simulated nodes with optimistic synchronization (`hope-timewarp`); the
//! baseline processes the identical event stream on one node. Experiment
//! E6 compares their substrate completion times and counts rollbacks.

use std::collections::BinaryHeap;

use hope_runtime::{ProcessId, RunReport, SimConfig, Simulation};
use hope_sim::{SimRng, Topology, VirtualDuration};

use crate::lp::{run_lp, LpConfig};

/// Result of a Time Warp PHOLD run.
#[derive(Debug)]
pub struct PholdReport {
    /// The underlying simulation report.
    pub report: RunReport,
    /// Events handled (including speculatively; engine guess count minus
    /// re-execution noise is a fair "work done" measure).
    pub handled: u64,
    /// Events whose guards committed (released output lines).
    pub committed: u64,
    /// Straggler-induced rollbacks.
    pub rollbacks: u64,
}

/// Run PHOLD on `n_lps` HOPE Time Warp processes (no commitment: the
/// committed count will be zero — the E6 finding).
///
/// # Panics
///
/// Panics if `n_lps == 0`.
pub fn run_phold(
    n_lps: usize,
    topology: Topology,
    service_time: VirtualDuration,
    mean_delay: u64,
    horizon: u64,
    seed: u64,
) -> PholdReport {
    run_phold_with(
        n_lps,
        topology,
        service_time,
        mean_delay,
        horizon,
        seed,
        false,
    )
}

/// Run PHOLD with an optional quiescence-commit oracle — the *external
/// definite observer* that stands in for Time Warp's GVT (see
/// [`SimConfig::commit_at_quiescence`](hope_runtime::SimConfig) and the
/// E6 finding). With `commit = true` the committed-event count equals the
/// surviving handled events.
///
/// # Panics
///
/// Panics if `n_lps == 0`.
pub fn run_phold_with(
    n_lps: usize,
    topology: Topology,
    service_time: VirtualDuration,
    mean_delay: u64,
    horizon: u64,
    seed: u64,
    commit: bool,
) -> PholdReport {
    assert!(n_lps > 0, "need at least one LP");
    let mut cfg_sim = SimConfig::with_seed(seed).with_topology(topology);
    if commit {
        cfg_sim = cfg_sim.commit_at_quiescence();
    }
    let mut sim = Simulation::new(cfg_sim);
    let lps: Vec<ProcessId> = (0..n_lps as u32).map(ProcessId).collect();
    let cfg = LpConfig::phold(lps.clone(), service_time, mean_delay, horizon);
    for (i, _) in lps.iter().enumerate() {
        let cfg = cfg.clone();
        sim.spawn(format!("lp{i}"), move |ctx| run_lp(ctx, &cfg));
    }
    let report = sim.run();
    PholdReport {
        handled: report.stats().engine.guesses,
        committed: report.stats().outputs_released,
        rollbacks: report.stats().rollback_events,
        report,
    }
}

/// This crate's entry in the list of application scenarios the transparency
/// oracles run (`tests/chaos_equivalence.rs`, `mc::check_scenario`): PHOLD
/// on two LPs, one job each, mean increment 2, to model time 4 — small
/// enough to exhaust over every schedule (some 3,000 of them), long enough
/// for stragglers, rollbacks and snapshots. Whether anything commits is the
/// caller's choice ([`SimConfig::commit_at_quiescence`]).
pub fn scenario(cfg: SimConfig) -> Simulation {
    let mut sim = Simulation::new(cfg);
    let lps = vec![ProcessId(0), ProcessId(1)];
    let lp = LpConfig::phold(lps, VirtualDuration::from_micros(100), 2, 4);
    for i in 0..2 {
        let lp = lp.clone();
        sim.spawn(format!("lp{i}"), move |ctx| run_lp(ctx, &lp));
    }
    sim
}

/// Result of the sequential baseline.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SeqReport {
    /// Events processed.
    pub events: u64,
    /// Total (single-CPU) substrate time consumed.
    pub total_time: VirtualDuration,
}

/// Process the same PHOLD parameters on a single sequential node: every
/// event costs `service_time` on one CPU, so total time is linear in the
/// event count. This is the baseline Time Warp must beat.
pub fn run_sequential(
    n_lps: usize,
    service_time: VirtualDuration,
    mean_delay: u64,
    horizon: u64,
    seed: u64,
) -> SeqReport {
    let mut rng = SimRng::new(seed).fork(424242);
    let mut heap: BinaryHeap<std::cmp::Reverse<u64>> = BinaryHeap::new();
    for _ in 0..n_lps {
        heap.push(std::cmp::Reverse(1));
    }
    let mut events = 0u64;
    while let Some(std::cmp::Reverse(ts)) = heap.pop() {
        events += 1;
        if ts <= horizon {
            let delay = 1 + rng.next_u64() % (2 * mean_delay.max(1));
            heap.push(std::cmp::Reverse(ts + delay));
        }
    }
    SeqReport {
        events,
        total_time: service_time * events,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use hope_sim::LatencyModel;

    #[test]
    fn sequential_baseline_is_linear_in_events() {
        let r = run_sequential(4, VirtualDuration::from_micros(100), 10, 100, 7);
        assert!(r.events >= 4);
        assert_eq!(r.total_time, VirtualDuration::from_micros(100) * r.events);
        // Deterministic.
        assert_eq!(
            r,
            run_sequential(4, VirtualDuration::from_micros(100), 10, 100, 7)
        );
    }

    #[test]
    fn timewarp_phold_runs() {
        let r = run_phold(
            4,
            Topology::lan(),
            VirtualDuration::from_micros(100),
            10,
            100,
            7,
        );
        assert!(r.report.errors().is_empty(), "{:?}", r.report.errors());
        assert!(r.handled > 4, "handled={}", r.handled);
        // Symmetric Time Warp never commits under pure HOPE semantics
        // (no definite affirmer exists): see LpConfig::phold.
        assert_eq!(r.committed, 0);
        assert!(!r.report.hit_limits(), "{:?}", r.report.stats());
    }

    #[test]
    fn quiescence_oracle_commits_phold() {
        // Without the oracle nothing commits (the E6 finding)…
        let plain = run_phold(
            3,
            Topology::local(),
            VirtualDuration::from_micros(200),
            10,
            60,
            9,
        );
        assert_eq!(plain.committed, 0);
        // …with it, every surviving handled event commits, in timestamp
        // order per LP.
        let committed = run_phold_with(
            3,
            Topology::local(),
            VirtualDuration::from_micros(200),
            10,
            60,
            9,
            true,
        );
        assert!(committed.committed > 0, "{:?}", committed.report.stats());
        for lp in 0..3u32 {
            let ts: Vec<u64> = committed
                .report
                .outputs()
                .iter()
                .filter(|o| o.process == ProcessId(lp))
                .map(|o| {
                    o.line
                        .split("ts=")
                        .nth(1)
                        .unwrap()
                        .split(' ')
                        .next()
                        .unwrap()
                        .parse()
                        .unwrap()
                })
                .collect();
            let mut sorted = ts.clone();
            sorted.sort_unstable();
            assert_eq!(ts, sorted, "LP{lp} committed out of timestamp order");
        }
    }

    /// The host benchmark's `phold` workload (E22 at `--seed 22`): eight
    /// LPs over 200 µs links, 100 µs service, mean increment 10, horizon
    /// 2,500, committed at quiescence, seeded with the benchmark's first
    /// stream of seed 22. Every count and the digest of the committed
    /// observables were recorded before the snapshot and event formats
    /// changed: a format change must leave the run itself alone.
    #[test]
    fn benchmark_scale_phold_is_pinned() {
        let seed = 22u64.wrapping_mul(0x9E37_79B9_7F4A_7C15);
        let link = Topology::uniform(LatencyModel::Fixed(VirtualDuration::from_micros(200)));
        let service = VirtualDuration::from_micros(100);
        let r = run_phold_with(8, link, service, 10, 2_500, seed, true);
        let report = &r.report;
        let ok = report.errors().is_empty() && !report.hit_limits();
        assert!(ok, "{report}");
        let committed = report.committed();
        // FNV-1a of the committed lines, errors, crashes and unfinished.
        let digest = format!("{committed:?}")
            .bytes()
            .fold(0xcbf2_9ce4_8422_2325, |h, b| {
                (h ^ u64::from(b)).wrapping_mul(0x0100_0000_01b3)
            });
        let lines: usize = committed.outputs.values().map(Vec::len).sum();
        let end = report.end_time().as_nanos();
        let got = (lines, report.events(), end, r.handled, r.rollbacks, digest);
        // Lines, scheduler events, end time (ns), guesses, rollbacks, digest.
        let want = (1_865, 5_884, 107_100_000, 5_767, 772, 0xe042_4b8e_7edb_7293);
        assert_eq!(got, want);
    }

    #[test]
    fn timewarp_beats_sequential_on_compute_bound_workloads() {
        // Large service time, local links: the parallel version should
        // finish well before the single-CPU baseline.
        let service = VirtualDuration::from_millis(1);
        let tw = run_phold(8, Topology::local(), service, 10, 100, 3);
        let seq = run_sequential(8, service, 10, 100, 3);
        let tw_time = tw.report.end_time().as_secs_f64();
        let seq_time = seq.total_time.as_secs_f64();
        assert!(
            tw_time < seq_time,
            "Time Warp {tw_time}s !< sequential {seq_time}s (handled={}, rollbacks={})",
            tw.handled,
            tw.rollbacks
        );
    }
}
