//! **E4 — optimism under imperfect assumptions**: gain vs prediction
//! accuracy.
//!
//! The paper's machinery is only worthwhile if mispredictions are rare
//! enough that latency saved exceeds work rolled back. This experiment
//! sweeps the probability `p` that a streamed call's prediction is
//! correct and locates the crossover where Call Streaming stops paying.

use hope_callstream::{serve_verified, stream_call, sync_call};
use hope_runtime::{ProcessId, SimConfig, Simulation, Value};
use hope_sim::{LatencyModel, SimRng, Topology};

use super::{completion_ms, ms, us};
use crate::table::{fmt_ms, fmt_pct, Table};

/// One measured point.
#[derive(Debug, Clone, Copy)]
pub struct E4Row {
    /// Probability a prediction is correct.
    pub accuracy: f64,
    /// Mean pessimistic completion (virtual ms).
    pub pessimistic_ms: f64,
    /// Mean optimistic completion (virtual ms).
    pub optimistic_ms: f64,
    /// Mean rollbacks per run.
    pub rollbacks: f64,
    /// Relative gain (negative once rollback cost dominates).
    pub gain: f64,
}

/// Run one chain of `k` calls where each prediction is correct iff the
/// pre-drawn pattern says so. Returns (completion, rollbacks).
fn run_once(k: usize, rtt_ms: u64, pattern: Vec<bool>, optimistic: bool) -> (f64, u64) {
    let topo = Topology::uniform(LatencyModel::Fixed(ms(rtt_ms) / 2));
    let mut sim = Simulation::new(SimConfig::with_seed(13).with_topology(topo));
    let server = ProcessId(1);
    let client = sim.spawn("client", move |ctx| {
        let mut x: i64 = 1;
        for &correct in pattern.iter().take(k) {
            let truth = x * 2;
            let result = if optimistic {
                let predicted = if correct { truth } else { truth + 1 };
                stream_call(ctx, server, Value::Int(x), Value::Int(predicted))?
            } else {
                sync_call(ctx, server, Value::Int(x))?
            };
            x = result.expect_int();
        }
        ctx.output(format!("x={x}"))?;
        Ok(())
    });
    sim.spawn("server", |ctx| {
        serve_verified(ctx, us(100), |v| Value::Int(v.expect_int() * 2), |_| {})
    });
    let report = sim.run();
    assert!(report.errors().is_empty(), "{report}");
    assert_eq!(
        report.output_lines(),
        vec![format!("x={}", 1i64 << k)],
        "mispredictions must not change the answer"
    );
    (
        completion_ms(&report, client),
        report.stats().rollback_events,
    )
}

/// Measure one accuracy point, averaged over `trials` pre-drawn patterns.
pub fn measure(accuracy: f64, k: usize, rtt_ms: u64, trials: u64) -> E4Row {
    let mut rng = SimRng::new(1000 + (accuracy * 1000.0) as u64);
    let mut tot_p = 0.0;
    let mut tot_o = 0.0;
    let mut tot_rb = 0u64;
    for _ in 0..trials {
        let pattern: Vec<bool> = (0..k).map(|_| rng.chance(accuracy)).collect();
        let (tp, _) = run_once(k, rtt_ms, pattern.clone(), false);
        let (to, rb) = run_once(k, rtt_ms, pattern, true);
        tot_p += tp;
        tot_o += to;
        tot_rb += rb;
    }
    let p = tot_p / trials as f64;
    let o = tot_o / trials as f64;
    E4Row {
        accuracy,
        pessimistic_ms: p,
        optimistic_ms: o,
        rollbacks: tot_rb as f64 / trials as f64,
        gain: (p - o) / p,
    }
}

/// The default E4 table: accuracy ∈ {1.0 … 0.0}, k = 6 calls, 30 ms RTT.
pub fn table() -> Table {
    let mut t = Table::new(
        "E4: Call Streaming gain vs prediction accuracy (k=6, 30ms RTT)",
        &["accuracy", "pessimistic", "optimistic", "rollbacks", "gain"],
    );
    for acc in [1.0, 0.9, 0.75, 0.5, 0.25, 0.0] {
        let r = measure(acc, 6, 30, 5);
        t.push(vec![
            format!("{:.0}%", r.accuracy * 100.0),
            fmt_ms(r.pessimistic_ms),
            fmt_ms(r.optimistic_ms),
            format!("{:.1}", r.rollbacks),
            fmt_pct(r.gain),
        ]);
    }
    t.note(
        "gain shrinks with accuracy; even at 0% the deny ships the true answer, bounding the loss",
    );
    t
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn perfect_accuracy_matches_e2_shape() {
        let r = measure(1.0, 6, 30, 2);
        assert!(r.gain > 0.6, "{r:?}");
        assert_eq!(r.rollbacks, 0.0);
    }

    #[test]
    fn gain_degrades_with_accuracy() {
        let hi = measure(1.0, 4, 30, 3);
        let lo = measure(0.0, 4, 30, 3);
        assert!(lo.gain < hi.gain, "hi={hi:?} lo={lo:?}");
        assert!(lo.rollbacks >= 1.0);
    }
}
