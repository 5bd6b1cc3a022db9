//! **E7 — optimistic replication (§7 future work)**: update latency of
//! optimistic cached replicas vs a pessimistic primary-copy baseline,
//! swept over contention.
//!
//! Each client performs a sequence of writes against a primary-certified
//! store. With a large key pool writes rarely collide and the optimistic
//! replica hides the certification round trip; shrinking the pool raises
//! the conflict (and hence rollback) rate until the pessimistic discipline
//! catches up.

use hope_replication::{run_primary, Replica};
use hope_runtime::{ProcessId, SimConfig, Simulation, Value};
use hope_sim::{LatencyModel, Topology};

use super::{completion_ms, ms, us};
use crate::table::{fmt_ms, Table};

/// One measured point.
#[derive(Debug, Clone, Copy)]
pub struct E7Row {
    /// Number of concurrent client replicas.
    pub clients: usize,
    /// Number of distinct keys (smaller ⇒ more conflicts).
    pub keys: usize,
    /// Mean client completion, pessimistic (virtual ms).
    pub pessimistic_ms: f64,
    /// Mean client completion, optimistic (virtual ms).
    pub optimistic_ms: f64,
    /// Conflicts observed in the optimistic run.
    pub conflicts: u64,
    /// Rollback events in the optimistic run.
    pub rollbacks: u64,
}

fn run(clients: usize, keys: usize, writes: u64, optimistic: bool, seed: u64) -> (f64, u64, u64) {
    let topo = Topology::uniform(LatencyModel::Fixed(ms(5)));
    let mut sim = Simulation::new(SimConfig::with_seed(seed).with_topology(topo));
    let primary = ProcessId(clients as u32);
    for c in 0..clients {
        sim.spawn(format!("client{c}"), move |ctx| {
            let mut rep = Replica::new(primary);
            for w in 0..writes {
                let key = format!("k{}", ctx.random_u64()? % keys as u64);
                let value = Value::Int((c as i64) * 1000 + w as i64);
                if optimistic {
                    rep.write_optimistic(ctx, &key, value)?;
                } else {
                    rep.write_pessimistic(ctx, &key, value)?;
                }
                ctx.compute(us(200))?;
            }
            ctx.output(format!("client{c} conflicts={}", rep.conflicts))?;
            Ok(())
        });
    }
    let replicas: Vec<ProcessId> = (0..clients as u32).map(ProcessId).collect();
    sim.spawn("primary", move |ctx| {
        run_primary(ctx, replicas.clone(), us(50), |_| {})
    });
    let report = sim.run();
    assert!(report.errors().is_empty(), "{report}");
    let mean_ms = (0..clients as u32)
        .map(|c| completion_ms(&report, ProcessId(c)))
        .sum::<f64>()
        / clients as f64;
    let conflicts: u64 = report
        .output_lines()
        .iter()
        .map(|l| {
            l.split("conflicts=")
                .nth(1)
                .unwrap()
                .parse::<u64>()
                .unwrap()
        })
        .sum();
    (mean_ms, conflicts, report.stats().rollback_events)
}

/// Measure one contention point.
pub fn measure(clients: usize, keys: usize, writes: u64, seed: u64) -> E7Row {
    let (p, _, _) = run(clients, keys, writes, false, seed);
    let (o, conflicts, rollbacks) = run(clients, keys, writes, true, seed);
    E7Row {
        clients,
        keys,
        pessimistic_ms: p,
        optimistic_ms: o,
        conflicts,
        rollbacks,
    }
}

/// The default E7 table: 4 clients × 8 writes, key pool ∈ {64, 8, 2, 1}.
pub fn table() -> Table {
    let mut t = Table::new(
        "E7: optimistic replication vs pessimistic primary copy (4 clients × 8 writes)",
        &[
            "keys",
            "pessimistic",
            "optimistic",
            "conflicts",
            "rollbacks",
        ],
    );
    for keys in [64, 8, 2, 1] {
        let r = measure(4, keys, 8, 31);
        t.push(vec![
            r.keys.to_string(),
            fmt_ms(r.pessimistic_ms),
            fmt_ms(r.optimistic_ms),
            r.conflicts.to_string(),
            r.rollbacks.to_string(),
        ]);
    }
    t.note("send-then-guess keeps the primary definite; conflicts roll the loser back and repair its cache");
    t
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn low_contention_favors_optimism() {
        let r = measure(3, 64, 5, 8);
        assert!(
            r.optimistic_ms < r.pessimistic_ms,
            "uncontended optimistic updates must win: {r:?}"
        );
    }

    #[test]
    fn contention_raises_conflicts() {
        let low = measure(3, 64, 5, 8);
        let high = measure(3, 1, 5, 8);
        assert!(high.conflicts > low.conflicts, "low={low:?} high={high:?}");
        assert!(high.rollbacks >= high.conflicts);
    }
}
