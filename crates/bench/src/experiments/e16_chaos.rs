//! **E16 — chaos: throughput degradation vs fault rate**: the cost of
//! riding out an unreliable network with HOPE's own primitives.
//!
//! The recovery application (optimistic logging over
//! [`Ctx::send_reliable`](hope_runtime::Ctx::send_reliable)) runs against
//! a stable store over a link whose deliveries are dropped with
//! probability `p` by a seeded [`FaultPlan`]. Every dropped entry costs a
//! retransmission timeout (which *denies* the "delivered" assumption,
//! rolling the sender back to retry) — so throughput degrades smoothly
//! with the fault rate while the committed output stays bit-identical to
//! the fault-free run. Each row re-checks that equivalence: this is the
//! chaos oracle's claim, measured instead of merely asserted.
//!
//! Completion is measured from finish/commit times, not the scheduler's
//! end time (stale retransmission timers for already-acked sends fire
//! after the last commit and would inflate the clock).

use hope_recovery::{run_app_optimistic, run_stable_store};
use hope_runtime::{Committed, FaultPlan, ProcessId, SimConfig, Simulation};
use hope_sim::{LatencyModel, Topology};

use super::{completion_ms, ms, us};
use crate::table::{fmt_ms, Table};

/// One measured point.
#[derive(Debug, Clone, Copy)]
pub struct E16Row {
    /// Per-delivery drop probability.
    pub drop_rate: f64,
    /// Completion (virtual ms): app finish or last output commit.
    pub completion_ms: f64,
    /// Committed steps per virtual second.
    pub throughput: f64,
    /// Reliable-send retransmissions.
    pub retries: u64,
    /// "Delivered" assumptions denied by retransmission timeouts.
    pub timeout_denies: u64,
    /// Rollback events (each timeout deny rolls the sender back).
    pub rollbacks: u64,
}

fn run(drop_rate: f64, steps: u64, seed: u64) -> (f64, Committed, E16Row) {
    let topo = Topology::uniform(LatencyModel::Fixed(ms(2)));
    let mut config = SimConfig::with_seed(seed).with_topology(topo);
    if drop_rate > 0.0 {
        config = config.with_faults(FaultPlan::new(seed ^ 0xC4A0).drop_rate(drop_rate));
    }
    let mut sim = Simulation::new(config);
    let store = ProcessId(1);
    let app = sim.spawn("app", move |ctx| {
        run_app_optimistic(ctx, store, steps, us(200))
    });
    sim.spawn("store", move |ctx| run_stable_store(ctx, ms(5)));
    let report = sim.run();
    assert!(report.errors().is_empty(), "{report}");
    let completion = completion_ms(&report, app);
    let row = E16Row {
        drop_rate,
        completion_ms: completion,
        throughput: steps as f64 / completion * 1000.0,
        retries: report.stats().faults.retries,
        timeout_denies: report.stats().faults.timeout_denies,
        rollbacks: report.stats().rollback_events,
    };
    (completion, report.committed(), row)
}

/// Measure one drop-rate point with `steps` application steps, asserting
/// the committed output equals the fault-free run's (the chaos oracle).
pub fn measure(drop_rate: f64, steps: u64, seed: u64) -> E16Row {
    let (_, baseline, _) = run(0.0, steps, seed);
    let (_, faulty, row) = run(drop_rate, steps, seed);
    assert_eq!(
        baseline, faulty,
        "committed outputs must be fault-independent"
    );
    row
}

/// The default E16 table: drop rate ∈ {0, 5, 10, 20, 30}% over 40 steps.
pub fn table() -> Table {
    let mut t = Table::new(
        "E16: throughput vs link drop rate (40 steps, reliable logging, 4ms RTT, 50ms ack timeout)",
        &[
            "drop rate",
            "completion",
            "steps/s",
            "retries",
            "timeout denies",
            "rollbacks",
        ],
    );
    for rate in [0.0, 0.05, 0.1, 0.2, 0.3] {
        let r = measure(rate, 40, 23);
        t.push(vec![
            format!("{:.0}%", r.drop_rate * 100.0),
            fmt_ms(r.completion_ms),
            format!("{:.0}", r.throughput),
            r.retries.to_string(),
            r.timeout_denies.to_string(),
            r.rollbacks.to_string(),
        ]);
    }
    t.note("each row's committed output verified bit-identical to the fault-free run");
    t
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fault_free_point_needs_no_retries() {
        let r = measure(0.0, 10, 3);
        assert_eq!(r.retries, 0, "{r:?}");
        assert_eq!(r.rollbacks, 0, "{r:?}");
    }

    #[test]
    fn lossy_link_costs_retries_and_throughput_not_outputs() {
        let clean = measure(0.0, 10, 3);
        let lossy = measure(0.25, 10, 3);
        assert!(lossy.retries > 0, "{lossy:?}");
        assert!(
            lossy.throughput < clean.throughput,
            "drops must cost throughput: {clean:?} vs {lossy:?}"
        );
        // measure() itself asserts output equivalence.
    }
}
