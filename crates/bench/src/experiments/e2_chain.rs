//! **E2 — the "up to 80%" claim (§7)**: Call Streaming gain vs chain
//! length.
//!
//! A client issues `k` *dependent* calls (each input is the previous
//! output). Pessimistically that is `k` serialized round trips; with Call
//! Streaming all requests are in flight immediately and the chain costs
//! roughly one round trip plus `k` service times. The relative gain is
//! `≈ (k−1)/k` in the latency-dominated limit — crossing 80% at `k = 5` —
//! which is exactly the shape behind the paper's "performance gains of up
//! to 80% using the Call Streaming protocol".

use hope_callstream::{serve_verified, stream_call, sync_call};
use hope_runtime::{ProcessId, SimConfig, Simulation, Value};
use hope_sim::{LatencyModel, Topology};

use super::{completion_ms, ms, us};
use crate::table::{fmt_ms, fmt_pct, Table};

/// One measured point.
#[derive(Debug, Clone, Copy)]
pub struct E2Row {
    /// Number of chained dependent calls.
    pub k: u64,
    /// Pessimistic completion (virtual ms).
    pub pessimistic_ms: f64,
    /// Optimistic completion (virtual ms).
    pub optimistic_ms: f64,
    /// Relative gain.
    pub gain: f64,
}

fn run_chain(k: u64, rtt_ms: u64, optimistic: bool) -> f64 {
    let topo = Topology::uniform(LatencyModel::Fixed(ms(rtt_ms) / 2));
    let mut sim = Simulation::new(SimConfig::with_seed(7).with_topology(topo));
    let server = ProcessId(1);
    let client = sim.spawn("client", move |ctx| {
        let mut x: i64 = 1;
        for _ in 0..k {
            let result = if optimistic {
                // The client can predict the server's function (doubling).
                stream_call(ctx, server, Value::Int(x), Value::Int(x * 2))?
            } else {
                sync_call(ctx, server, Value::Int(x))?
            };
            x = result.expect_int();
        }
        ctx.output(format!("chain result={x}"))?;
        Ok(())
    });
    sim.spawn("server", |ctx| {
        serve_verified(ctx, us(100), |v| Value::Int(v.expect_int() * 2), |_| {})
    });
    let report = sim.run();
    assert!(report.errors().is_empty(), "{report}");
    assert_eq!(
        report.output_lines(),
        vec![format!("chain result={}", 1i64 << k)],
        "both disciplines must compute the same answer"
    );
    completion_ms(&report, client)
}

/// Measure one chain length at the given round-trip time.
pub fn measure(k: u64, rtt_ms: u64) -> E2Row {
    let p = run_chain(k, rtt_ms, false);
    let o = run_chain(k, rtt_ms, true);
    E2Row {
        k,
        pessimistic_ms: p,
        optimistic_ms: o,
        gain: (p - o) / p,
    }
}

/// The default E2 table: k ∈ {1, 2, 3, 5, 8, 12} at the paper's 30 ms RTT.
pub fn table() -> Table {
    let mut t = Table::new(
        "E2: Call Streaming gain vs dependent-call chain length (30ms RTT)",
        &["k", "pessimistic", "optimistic", "gain"],
    );
    for k in [1, 2, 3, 5, 8, 12] {
        let r = measure(k, 30);
        t.push(vec![
            r.k.to_string(),
            fmt_ms(r.pessimistic_ms),
            fmt_ms(r.optimistic_ms),
            fmt_pct(r.gain),
        ]);
    }
    t.note("§7 reports \"performance gains of up to 80%\"; the gain approaches (k−1)/k");
    t
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn gain_crosses_80_percent_by_k5() {
        let r = measure(5, 30);
        assert!(
            r.gain >= 0.75,
            "paper's 80% regime should be reached near k=5: {r:?}"
        );
        let r12 = measure(12, 30);
        assert!(r12.gain > r.gain, "gain grows with k");
        assert!(r12.gain < 1.0);
    }

    #[test]
    fn single_call_still_benefits() {
        // Even k=1 saves the reply leg: the client never waits for it.
        let r = measure(1, 30);
        assert!(r.gain > 0.3, "{r:?}");
    }
}
