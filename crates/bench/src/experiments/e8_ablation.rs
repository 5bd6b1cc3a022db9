//! **E8 — ablations on the paper's §7 future-work knobs**: checkpoint
//! (rollback) cost and dependency-tracking overhead.
//!
//! The prototype's checkpoint mechanism was "simple and fairly portable,
//! but not particularly efficient", and §7 proposes optimizing both the
//! tracking algorithms and the checkpoint/rollback machinery. Our runtime
//! exposes both costs as configuration:
//!
//! * `rollback_overhead` — virtual time charged per re-execution (the
//!   restoration cost a snapshot- or journal-based implementation pays);
//! * `tracking_overhead` — extra per-message latency for carrying and
//!   recording tags.
//!
//! The ablation shows where each knob erodes the Call Streaming gain.

use hope_callstream::{serve_verified, stream_call};
use hope_runtime::{ProcessId, SimConfig, Simulation, Value};
use hope_sim::{LatencyModel, Topology, VirtualDuration};

use super::{completion_ms, ms, us};
use crate::table::{fmt_ms, Table};

/// Completion time of a k-call chain with the given overheads, where every
/// prediction is wrong (worst case: one rollback per call). Links are fast
/// (1 ms one-way) so restoration cost dominates rather than hiding under
/// the propagation delay.
pub fn worst_case_chain(
    k: u64,
    rollback_overhead: VirtualDuration,
    tracking_overhead: VirtualDuration,
) -> f64 {
    let topo = Topology::uniform(LatencyModel::Fixed(ms(1)));
    let mut sim = Simulation::new(
        SimConfig::with_seed(17)
            .with_topology(topo)
            .with_rollback_overhead(rollback_overhead)
            .with_tracking_overhead(tracking_overhead),
    );
    let server = ProcessId(1);
    let client = sim.spawn("client", move |ctx| {
        let mut x: i64 = 1;
        for _ in 0..k {
            // Deliberately wrong prediction: always rolls back.
            let r = stream_call(ctx, server, Value::Int(x), Value::Int(-1))?;
            x = r.expect_int();
        }
        ctx.output(format!("x={x}"))?;
        Ok(())
    });
    sim.spawn("server", |ctx| {
        serve_verified(ctx, us(100), |v| Value::Int(v.expect_int() * 2), |_| {})
    });
    let report = sim.run();
    assert!(report.errors().is_empty(), "{report}");
    assert_eq!(report.output_lines(), vec![format!("x={}", 1i64 << k)]);
    completion_ms(&report, client)
}

/// Completion time of a k-call chain with correct predictions under the
/// given tracking overhead.
pub fn best_case_chain(k: u64, tracking_overhead: VirtualDuration) -> f64 {
    let topo = Topology::uniform(LatencyModel::Fixed(ms(15)));
    let mut sim = Simulation::new(
        SimConfig::with_seed(17)
            .with_topology(topo)
            .with_tracking_overhead(tracking_overhead),
    );
    let server = ProcessId(1);
    let client = sim.spawn("client", move |ctx| {
        let mut x: i64 = 1;
        for _ in 0..k {
            let r = stream_call(ctx, server, Value::Int(x), Value::Int(x * 2))?;
            x = r.expect_int();
        }
        ctx.output(format!("x={x}"))?;
        Ok(())
    });
    sim.spawn("server", |ctx| {
        serve_verified(ctx, us(100), |v| Value::Int(v.expect_int() * 2), |_| {})
    });
    let report = sim.run();
    assert!(report.errors().is_empty(), "{report}");
    completion_ms(&report, client)
}

/// The default E8 tables (rendered as one table with a `knob` column).
pub fn table() -> Table {
    let mut t = Table::new(
        "E8: ablation — rollback overhead (2ms RTT) and tracking overhead (30ms RTT), k=4 chain",
        &["knob", "setting", "completion"],
    );
    for ovh in [0u64, 1, 5, 20] {
        let ms_val = worst_case_chain(4, ms(ovh), VirtualDuration::ZERO);
        t.push(vec![
            "rollback overhead (all predictions wrong)".into(),
            format!("{ovh}ms"),
            fmt_ms(ms_val),
        ]);
    }
    for ovh in [0u64, 100, 1000, 5000] {
        let ms_val = best_case_chain(4, VirtualDuration::from_micros(ovh));
        t.push(vec![
            "tracking overhead per message (all correct)".into(),
            format!("{}µs", ovh),
            fmt_ms(ms_val),
        ]);
    }
    t.note("§7: \"the present checkpoint mechanism is simple and fairly portable, but not particularly efficient\"");
    t
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn rollback_overhead_slows_worst_case() {
        let cheap = worst_case_chain(3, VirtualDuration::ZERO, VirtualDuration::ZERO);
        let costly = worst_case_chain(3, ms(10), VirtualDuration::ZERO);
        assert!(costly > cheap, "cheap={cheap} costly={costly}");
        // Three rollbacks at 10ms each; a little of each hold overlaps the
        // reply's propagation, so allow that slack.
        assert!(costly - cheap >= 24.0, "{}", costly - cheap);
    }

    #[test]
    fn tracking_overhead_slows_best_case() {
        let cheap = best_case_chain(3, VirtualDuration::ZERO);
        let costly = best_case_chain(3, ms(2));
        assert!(costly > cheap, "cheap={cheap} costly={costly}");
    }
}
