//! **E1 — Figures 1 vs 2**: the Call Streaming transformation on the
//! paper's page-printer program, swept over link latency.
//!
//! Reproduces the paper's central example: the pessimistic Worker pays two
//! serialized round trips (S1, S3); the optimistic Worker hides S1 behind
//! the WorryWart and proceeds straight to S3. The measured saving should
//! grow with the round-trip time and approach the one-of-two-RPCs bound.

use hope_callstream::page::{
    self, paper_topology, print_server, worker_optimistic, worker_pessimistic, PAGE_SIZE,
};
use hope_runtime::{ProcessId, RunReport, SimConfig, Simulation};

use super::{completion_ms, ms, us};
use crate::table::{fmt_ms, fmt_pct, Table};

/// One measured point.
#[derive(Debug, Clone, Copy)]
pub struct E1Row {
    /// Round-trip time of the worker→printer link.
    pub rtt_ms: u64,
    /// Figure 1 completion (virtual ms).
    pub pessimistic_ms: f64,
    /// Figure 2 completion (virtual ms).
    pub optimistic_ms: f64,
    /// Relative saving.
    pub saving: f64,
}

/// Run Figure 1 once; returns the Worker's completion in virtual ms.
pub fn run_pessimistic(rtt_ms: u64, start_line: i64) -> (RunReport, f64) {
    let topo = paper_topology(ms(rtt_ms) / 2);
    let mut sim = Simulation::new(SimConfig::with_seed(1).with_topology(topo));
    let printer = ProcessId(1);
    sim.spawn("worker", move |ctx| {
        worker_pessimistic(ctx, printer, 1234, PAGE_SIZE)
    });
    sim.spawn("printer", move |ctx| print_server(ctx, start_line, us(100)));
    let report = sim.run();
    let t = completion_ms(&report, ProcessId(0));
    (report, t)
}

/// Run Figure 2 once; returns the Worker's completion in virtual ms.
pub fn run_optimistic(rtt_ms: u64, start_line: i64) -> (RunReport, f64) {
    let topo = paper_topology(ms(rtt_ms) / 2);
    let mut sim = Simulation::new(SimConfig::with_seed(1).with_topology(topo));
    let printer = ProcessId(1);
    let wart = ProcessId(2);
    sim.spawn("worker", move |ctx| {
        worker_optimistic(ctx, printer, wart, 1234)
    });
    sim.spawn("printer", move |ctx| print_server(ctx, start_line, us(100)));
    sim.spawn("worrywart", move |ctx| {
        page::worrywart(ctx, printer, PAGE_SIZE)
    });
    let report = sim.run();
    let t = completion_ms(&report, ProcessId(0));
    (report, t)
}

/// Measure one latency point (assumption holds: the page does not
/// overflow).
pub fn measure(rtt_ms: u64) -> E1Row {
    let (_, tp) = run_pessimistic(rtt_ms, 10);
    let (opt_report, to) = run_optimistic(rtt_ms, 10);
    assert_eq!(
        opt_report.stats().rollback_events,
        0,
        "E1 measures the assumption-holds regime"
    );
    let (p, o) = (tp, to);
    E1Row {
        rtt_ms,
        pessimistic_ms: p,
        optimistic_ms: o,
        saving: (p - o) / p,
    }
}

/// The default E1 table: RTT ∈ {1, 3, 10, 30, 100} ms.
pub fn table() -> Table {
    let mut t = Table::new(
        "E1: Call Streaming on the page printer (Figure 1 vs Figure 2)",
        &["rtt", "pessimistic", "optimistic", "saving"],
    );
    for rtt in [1, 3, 10, 30, 100] {
        let r = measure(rtt);
        t.push(vec![
            format!("{}ms", r.rtt_ms),
            fmt_ms(r.pessimistic_ms),
            fmt_ms(r.optimistic_ms),
            fmt_pct(r.saving),
        ]);
    }
    t.note("assumption holds (line < PageSize); paper topology: WorryWart co-located with Worker");
    t
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn saving_grows_with_latency() {
        let low = measure(3);
        let high = measure(30);
        assert!(low.saving > 0.0, "{low:?}");
        assert!(high.saving >= low.saving, "{low:?} vs {high:?}");
        // With two serialized RPCs collapsed to ~one, the bound is ~50%
        // for this program; the measurement must approach it from below.
        assert!(high.saving < 0.6, "{high:?}");
    }

    #[test]
    fn table_has_five_rows() {
        let t = table();
        assert_eq!(t.len(), 5);
    }
}
