//! **E5 — cascading rollback (Theorem 5.1, §5.6)**: cost and reach of a
//! deny as the dependency chain deepens.
//!
//! A speculative token rings through `n` processes, making each of them a
//! causal descendant of the origin's assumption. A single deny at the end
//! of the chain must roll back every process (the paper's global
//! consistency guarantee); we measure how much state that discards and
//! confirm the re-executed run converges.

use hope_runtime::{ProcessId, RunReport, SimConfig, Simulation, Value};
use hope_sim::{LatencyModel, Topology};

use super::{ms, us};
use crate::table::Table;

/// One measured point.
#[derive(Debug, Clone, Copy)]
pub struct E5Row {
    /// Chain length (number of dependent processes).
    pub n: usize,
    /// Intervals discarded by the cascade.
    pub rolled_back_intervals: u64,
    /// Rollback events (per-process truncations).
    pub rollback_events: u64,
    /// Ghost messages dropped during recovery.
    pub ghosts: u64,
    /// Virtual completion time (ms).
    pub end_ms: f64,
}

/// Run one chain of length `n` and deny at the tail.
pub fn run_chain(n: usize) -> RunReport {
    assert!(n >= 1);
    let topo = Topology::uniform(LatencyModel::Fixed(ms(1)));
    let mut sim = Simulation::new(SimConfig::with_seed(3).with_topology(topo));
    // P0: origin — guesses, then sends the token (speculatively) to P1.
    sim.spawn("origin", move |ctx| {
        let x = ctx.aid_init()?;
        let flag = ctx.guess(x)?;
        ctx.compute(us(50))?;
        ctx.send(
            ProcessId(1),
            Value::List(vec![Value::Int(x.index() as i64), Value::Bool(flag)]),
        )?;
        ctx.output(format!("origin flag={flag}"))?;
        Ok(())
    });
    // P1..Pn-1: relays — receive (becoming dependent), compute, forward.
    for i in 1..n {
        let next = ProcessId((i + 1) as u32);
        sim.spawn(format!("relay{i}"), move |ctx| {
            let m = ctx.recv()?;
            ctx.compute(us(50))?;
            ctx.send(next, m.payload.clone())?;
            Ok(())
        });
    }
    // Pn: judge — denies the origin's assumption on first sight.
    sim.spawn("judge", move |ctx| {
        let m = ctx.recv()?;
        let items = m.payload.expect_list();
        let aid = hope_core::AidId::from_index(items[0].expect_int() as u64);
        let flag = items[1].as_bool().unwrap_or(false);
        ctx.compute(us(50))?;
        if flag {
            // First (speculative) token: refute the assumption. We are
            // dependent on it ourselves, so this also unwinds us.
            ctx.deny(aid)?;
        }
        ctx.output("judge done")?;
        Ok(())
    });
    let report = sim.run();
    assert!(report.errors().is_empty(), "{report}");
    report
}

/// Measure one chain length.
pub fn measure(n: usize) -> E5Row {
    let report = run_chain(n);
    // Every process in the chain (plus origin and judge) must have rolled
    // back exactly once, and the re-executed (flag=false) token must have
    // reached the judge.
    let lines = report.output_lines();
    assert!(lines.contains(&"origin flag=false"), "{lines:?}");
    assert!(lines.contains(&"judge done"), "{lines:?}");
    E5Row {
        n,
        rolled_back_intervals: report.stats().engine.rolled_back_intervals,
        rollback_events: report.stats().rollback_events,
        ghosts: report.stats().ghosts_dropped,
        end_ms: report.end_time().as_millis_f64(),
    }
}

/// The default E5 table: n ∈ {1, 2, 4, 8, 16, 32, 64}.
pub fn table() -> Table {
    let mut t = Table::new(
        "E5: cascading rollback reach vs dependency chain length",
        &[
            "n",
            "rollback events",
            "intervals discarded",
            "ghosts",
            "completion",
        ],
    );
    for n in [1, 2, 4, 8, 16, 32, 64] {
        let r = measure(n);
        t.push(vec![
            r.n.to_string(),
            r.rollback_events.to_string(),
            r.rolled_back_intervals.to_string(),
            r.ghosts.to_string(),
            format!("{:.2}ms", r.end_ms),
        ]);
    }
    t.note("one deny at the tail unwinds the whole chain (Theorem 5.1); recovery re-runs it pessimistically");
    t
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn cascade_reaches_every_process() {
        let r = measure(8);
        // origin + 7 relays + judge are all dependent: 9+ truncations.
        assert!(r.rollback_events >= 9, "{r:?}");
        assert!(r.rolled_back_intervals >= 9, "{r:?}");
        assert!(r.ghosts >= 1, "stale tokens must be ghost-filtered: {r:?}");
    }

    #[test]
    fn reach_scales_linearly() {
        let small = measure(4);
        let large = measure(16);
        assert!(large.rollback_events > small.rollback_events);
        assert!(large.end_ms > small.end_ms);
    }
}
