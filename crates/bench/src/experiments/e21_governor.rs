//! **E21 — the optimism governor under deny storms**: goodput and tail
//! commit latency with admission control on vs off.
//!
//! The recovery application (optimistic logging over
//! [`Ctx::send_reliable`](hope_runtime::Ctx::send_reliable)) runs against
//! a stable store across a faulty link: E16-style drop sweeps plus a
//! *deny storm* — a blackout partition spanning most of the run during
//! which every retransmission times out, denying the "delivered"
//! assumption again and again. Rollback is given a real price
//! ([`SimConfig::rollback_overhead`]) so cascades cost virtual time, as
//! they cost real work on hardware.
//!
//! Each configuration runs twice: governor off (speculate always, roll
//! back on every timeout deny) and governor on (the deny-rate/damage
//! window throttles and then breaks the reliable-send site, converting
//! guesses into definite waits until calm returns). Three claims are
//! measured:
//!
//! * **fault-free parity** — with nothing to deny the governor never
//!   leaves Optimistic and the paired runs match within noise;
//! * **graceful degradation** — under storms, goodput improves and the
//!   p99 commit latency drops, because work stops being done twice;
//! * **transparency** — every paired run commits bit-identical outputs
//!   (asserted per row, not assumed).

use hope_recovery::{run_app_optimistic, run_stable_store};
use hope_runtime::{Committed, FaultPlan, GovernorConfig, ProcessId, SimConfig, Simulation};
use hope_sim::{LatencyModel, Topology, VirtualTime};

use super::{completion_ms, ms};
use crate::table::{fmt_ms, Table};

/// One fault configuration measured governor-off and governor-on.
#[derive(Debug, Clone)]
pub struct E21Row {
    /// Human label for the fault configuration.
    pub label: String,
    /// Completion (virtual ms), governor off / on.
    pub completion_ms: (f64, f64),
    /// Committed steps per virtual second, governor off / on.
    pub goodput: (f64, f64),
    /// p99 of per-line commit latency (committed_at − produced), ms.
    pub p99_commit_ms: (f64, f64),
    /// Rollback events, governor off / on.
    pub rollbacks: (u64, u64),
    /// Governor-on admission actions: guesses held (Throttled) and
    /// converted to waits (Conservative).
    pub held: u64,
    /// Guesses converted into definite waits by the breaker.
    pub converted: u64,
    /// Mode transitions recorded by the governor.
    pub transitions: u64,
}

/// The fault shape of one measured configuration.
#[derive(Debug, Clone, Copy)]
pub enum Storm {
    /// No faults at all: the parity row.
    None,
    /// Uniform per-delivery drop probability (the E16 sweep shape).
    Drops(f64),
    /// A blackout partition app↔store over `[from_ms, to_ms)` on top of a
    /// small background drop rate: every in-flight send times out until
    /// the link heals — a deny storm.
    Blackout(u64, u64),
}

impl Storm {
    fn plan(self, seed: u64) -> Option<FaultPlan> {
        match self {
            Storm::None => None,
            Storm::Drops(p) => Some(FaultPlan::new(seed ^ 0xC4A0).drop_rate(p)),
            Storm::Blackout(from, to) => Some(
                FaultPlan::new(seed ^ 0xC4A0)
                    .drop_rate(0.05)
                    .partition_between(
                        0,
                        1,
                        VirtualTime::ZERO + ms(from),
                        VirtualTime::ZERO + ms(to),
                    ),
            ),
        }
    }

    fn label(self) -> String {
        match self {
            Storm::None => "fault-free".into(),
            Storm::Drops(p) => format!("{:.0}% drops", p * 100.0),
            Storm::Blackout(from, to) => format!("blackout {from}–{to}ms + 5% drops"),
        }
    }
}

/// The governor tuning used throughout E21: evaluate early, throttle on
/// moderate deny pressure, break under sustained storms, probe back.
fn governor() -> GovernorConfig {
    GovernorConfig::default()
        .with_window(8)
        .with_min_samples(2)
        .with_thresholds(100, 500)
        .with_hold(ms(1))
        .with_probe_after(6)
}

struct RunOut {
    completion: f64,
    goodput: f64,
    p99: f64,
    rollbacks: u64,
    held: u64,
    converted: u64,
    transitions: u64,
    committed: Committed,
}

fn run(storm: Storm, governed: bool, steps: u64, seed: u64) -> RunOut {
    let topo = Topology::uniform(LatencyModel::Fixed(ms(2)));
    // A tight ack timeout makes deny storms dense (every blackout send
    // times out after 10ms, not 50), and a real rollback overhead makes
    // each cascade cost virtual time, as it costs real work on hardware.
    let mut config = SimConfig::with_seed(seed)
        .with_topology(topo)
        .with_ack_timeout(ms(10))
        .with_ack_backoff_cap(ms(40))
        .with_rollback_overhead(ms(10));
    if let Some(plan) = storm.plan(seed) {
        config = config.with_faults(plan);
    }
    if governed {
        config = config.with_governor(governor());
    }
    let mut sim = Simulation::new(config);
    let store = ProcessId(1);
    // 1ms per step spreads the app's sends across the storm window
    // instead of firing them all before the first fault lands.
    let app = sim.spawn("app", move |ctx| {
        run_app_optimistic(ctx, store, steps, ms(1))
    });
    sim.spawn("store", move |ctx| run_stable_store(ctx, ms(5)));
    let report = sim.run();
    assert!(report.errors().is_empty(), "{report}");
    let completion = completion_ms(&report, app);
    let mut latencies: Vec<f64> = report
        .outputs()
        .iter()
        .map(|l| (l.committed_at - l.time).as_millis_f64())
        .collect();
    latencies.sort_by(|a, b| a.partial_cmp(b).expect("finite latency"));
    let p99 = latencies
        .get(((latencies.len() as f64 * 0.99).ceil() as usize).saturating_sub(1))
        .copied()
        .unwrap_or(0.0);
    let g = report.stats().governor;
    RunOut {
        completion,
        goodput: steps as f64 / completion * 1000.0,
        p99,
        rollbacks: report.stats().rollback_events,
        held: g.held,
        converted: g.converted,
        transitions: g.transitions,
        committed: report.committed(),
    }
}

/// Measure one fault configuration governor-off and governor-on,
/// asserting the committed outputs of the pair are bit-identical (the
/// transparency claim, measured per row).
pub fn measure(storm: Storm, steps: u64, seed: u64) -> E21Row {
    let off = run(storm, false, steps, seed);
    let on = run(storm, true, steps, seed);
    assert_eq!(
        off.committed, on.committed,
        "governor changed committed outputs under {:?}",
        storm
    );
    E21Row {
        label: storm.label(),
        completion_ms: (off.completion, on.completion),
        goodput: (off.goodput, on.goodput),
        p99_commit_ms: (off.p99, on.p99),
        rollbacks: (off.rollbacks, on.rollbacks),
        held: on.held,
        converted: on.converted,
        transitions: on.transitions,
    }
}

/// The default E21 table: parity, drop sweeps, and a deny-storm blackout,
/// 40 steps each.
pub fn table() -> Table {
    let mut t = Table::new(
        "E21: goodput and p99 commit latency, governor off vs on (40 steps, 10ms rollback overhead, 4ms RTT)",
        &[
            "faults",
            "completion off/on",
            "steps/s off/on",
            "p99 commit off/on",
            "rollbacks off/on",
            "held",
            "converted",
            "transitions",
        ],
    );
    for storm in [
        Storm::None,
        Storm::Drops(0.1),
        Storm::Drops(0.3),
        Storm::Blackout(5, 120),
    ] {
        let r = measure(storm, 40, 23);
        t.push(vec![
            r.label.clone(),
            format!(
                "{} / {}",
                fmt_ms(r.completion_ms.0),
                fmt_ms(r.completion_ms.1)
            ),
            format!("{:.0} / {:.0}", r.goodput.0, r.goodput.1),
            format!(
                "{} / {}",
                fmt_ms(r.p99_commit_ms.0),
                fmt_ms(r.p99_commit_ms.1)
            ),
            format!("{} / {}", r.rollbacks.0, r.rollbacks.1),
            r.held.to_string(),
            r.converted.to_string(),
            r.transitions.to_string(),
        ]);
    }
    t.note("each row's committed outputs verified bit-identical governor-off vs governor-on");
    t.note(
        "fault-free row: governor never leaves Optimistic (zero held/converted), matching baseline",
    );
    t
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fault_free_pair_matches_and_governor_stays_inert() {
        let r = measure(Storm::None, 10, 3);
        assert_eq!(r.held, 0, "{r:?}");
        assert_eq!(r.converted, 0, "{r:?}");
        assert_eq!(r.transitions, 0, "{r:?}");
        assert_eq!(r.rollbacks, (0, 0), "{r:?}");
        assert!(
            (r.completion_ms.0 - r.completion_ms.1).abs() < 1e-9,
            "an inert governor must not perturb virtual time: {r:?}"
        );
    }

    #[test]
    fn deny_storm_engages_governor_and_reduces_rollbacks() {
        let r = measure(Storm::Blackout(5, 120), 20, 3);
        assert!(
            r.held + r.converted > 0,
            "storm must engage the governor: {r:?}"
        );
        assert!(r.transitions > 0, "{r:?}");
        assert!(
            r.rollbacks.1 < r.rollbacks.0,
            "degradation must avoid rollback work: {r:?}"
        );
        // measure() itself asserts output equivalence.
    }
}
