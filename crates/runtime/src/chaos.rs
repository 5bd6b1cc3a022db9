//! The transparency oracle.
//!
//! HOPE's claim is not that optimism is fast — it is that optimism is
//! *safe*: whatever the network does, cascading rollback and output commit
//! guarantee that only correct results escape. This module turns that claim
//! into one executable check. [`sweep`] runs the same program once under a
//! reference [`SimConfig`] and once per labelled variant of it, and asserts:
//!
//! 1. **Equivalence** — every variant commits exactly what the reference
//!    commits ([`RunReport::committed`](crate::RunReport::committed): the
//!    same output lines per process in the same order, the same errors,
//!    crashes and unfinished processes). A variant may change *when* lines
//!    commit (retries cost time), never *what* commits.
//! 2. **Replayability** — re-running a variant *watched* reproduces a
//!    bit-identical [`RunReport`](crate::RunReport) (compared by
//!    [`RunReport::fingerprint`](crate::RunReport::fingerprint)): a failing
//!    variant is a deterministic repro, and watching a run changes nothing.
//!
//! What a variant varies is the caller's business — fault space, seed
//! space and the lattice of knobs that claim to be transparent are all
//! just iterators of configs:
//!
//! * **faults**: `plans.map(|p| (label, base.clone().with_faults(p)))` —
//!   committed output is fault-independent;
//! * **schedules**: one variant per scheduler seed — the sampled
//!   complement to [`mc::check_scenario`](crate::mc::check_scenario)'s
//!   exhaustive schedule search (a program whose committed output is
//!   schedule-dependent by design will, and should, fail);
//! * **knobs**: fossil collection, the optimism governor and engine
//!   invariant checking, alone and combined, with and without faults.
//!
//! [`sweep`] returns each variant's counters so the caller can assert the
//! thing under test actually fired: a sweep whose plans never inject, whose
//! collector never reclaims or whose governor never holds proves nothing.
//!
//! The oracle is sound only for programs whose committed output does not
//! depend on *post-rollback* randomness: rollback deliberately does not
//! rewind a process's RNG (re-drawing would let a body "un-happen" an
//! observed coin flip), so a body that commits a fresh `random_u64` after
//! being rolled back legitimately commits different bytes under faults.
//! Derive committed values from pre-fault state or message payloads.

use crate::config::SimConfig;
use crate::event::run_watched;
use crate::governor::GovernorConfig;
use crate::scheduler::Simulation;
use crate::stats::RunStats;

/// One variant's run as [`sweep`] saw it: what the caller needs to assert
/// that the variant engaged the feature it varies.
#[derive(Debug, Clone)]
pub struct VariantRun {
    /// The label the caller gave the variant.
    pub label: String,
    /// The run's counters (faults injected, records reclaimed, guesses
    /// held or converted, …).
    pub stats: RunStats,
    /// Events the watched replay saw (none if the variant hit a limit and
    /// was not replayed).
    pub events: usize,
}

/// Run `scenario` under `reference`, then under every labelled config in
/// `variants`, and assert that each variant quiesced without hitting a
/// simulation limit, committed exactly what the reference committed, and
/// replays bit-identically. See the module docs for what the oracle
/// guarantees and the one obligation it places on scenarios.
///
/// `scenario` must build the *same program* for every configuration it is
/// given — it is called `2 + 2 × variants` times (replays watched).
///
/// # Panics
///
/// Panics, naming every offending variant's label, if any check fails
/// (`reference` is the label of the reference run's own limit and replay
/// checks).
///
/// # Examples
///
/// ```
/// use hope_runtime::chaos::sweep;
/// use hope_runtime::{FaultPlan, SimConfig, Simulation, Value};
///
/// let base = SimConfig::with_seed(7);
/// let runs = sweep(
///     base.clone(),
///     (0..4).map(|s| {
///         let plan = FaultPlan::new(s).drop_rate(0.3).dupe_rate(0.2);
///         (format!("plan {s}"), base.clone().with_faults(plan))
///     }),
///     |cfg| {
///         let mut sim = Simulation::new(cfg);
///         let receiver = hope_core::ProcessId(1);
///         sim.spawn("sender", move |ctx| {
///             for i in 0..3 {
///                 ctx.send_reliable(receiver, Value::Int(i))?;
///             }
///             Ok(())
///         });
///         sim.spawn("receiver", |ctx| {
///             for expected in 0..3 {
///                 let m = ctx.recv_matching(move |m| m.payload == Value::Int(expected))?;
///                 ctx.output(format!("got {}", m.payload))?;
///             }
///             Ok(())
///         });
///         sim
///     },
/// );
/// assert_eq!(runs.len(), 4);
/// assert!(runs.iter().any(|r| r.stats.faults.drops + r.stats.faults.dupes > 0));
/// ```
pub fn sweep(
    reference: SimConfig,
    variants: impl IntoIterator<Item = (String, SimConfig)>,
    scenario: impl Fn(SimConfig) -> Simulation,
) -> Vec<VariantRun> {
    let mut failures = Vec::new();
    let ref_report = scenario(reference.clone()).run();
    let want = ref_report.committed();
    if want.hit_limits {
        failures.push("`reference`: hit simulation limits".to_string());
    }
    // The reference itself must replay: a scenario that varies across
    // calls (captured mutable state, host randomness) would fail every
    // variant with a misleading diagnosis.
    if scenario(reference).run().fingerprint() != ref_report.fingerprint() {
        failures.push(
            "`reference`: not replayable — the scenario closure does not build \
             the same program every call"
                .to_string(),
        );
    }
    let mut runs = Vec::new();
    for (label, cfg) in variants {
        let report = scenario(cfg.clone()).run();
        let got = report.committed();
        let mut events = 0;
        if got.hit_limits {
            failures.push(format!("`{label}`: hit simulation limits"));
        } else {
            if got != want {
                failures.push(format!(
                    "`{label}`: committed() differs from the reference:\n  \
                     expected: {want:?}\n  got:      {got:?}"
                ));
            }
            let (replay, seen) = run_watched(scenario(cfg));
            if replay.fingerprint() != report.fingerprint() {
                failures.push(format!(
                    "`{label}`: the watched same-config replay changed the fingerprint"
                ));
            }
            events = seen;
        }
        runs.push(VariantRun {
            label,
            stats: *report.stats(),
            events,
        });
    }
    assert!(
        failures.is_empty(),
        "transparency sweep: {} checks failed over {} variants:\n{}",
        failures.len(),
        runs.len(),
        failures.join("\n")
    );
    runs
}

/// The knobs that claim to be transparent, as a lattice: all 8
/// combinations of fossil collection, the optimism `governor` and engine
/// invariant checking applied to `base`, each labelled by the knobs it
/// turns on (`"fossil+invariants"`; `"plain"` for none). Feed it to
/// [`sweep`] — on its own, or crossed with fault plans — or cell by cell
/// to [`mc::check_scenario`](crate::mc::check_scenario).
pub fn knob_lattice(base: &SimConfig, governor: &GovernorConfig) -> Vec<(String, SimConfig)> {
    const KNOBS: [&str; 3] = ["fossil", "governor", "invariants"];
    (0..1u32 << KNOBS.len())
        .map(|bits| {
            let on = |k: usize| bits >> k & 1 == 1;
            let mut cfg = base.clone();
            cfg.fossil_collection = on(0);
            cfg.governor = on(1).then(|| governor.clone());
            cfg.check_engine_invariants = on(2);
            let names: Vec<&str> = (0..KNOBS.len())
                .filter(|&k| on(k))
                .map(|k| KNOBS[k])
                .collect();
            let label = if names.is_empty() {
                "plain".to_string()
            } else {
                names.join("+")
            };
            (label, cfg)
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::value::Value;
    use hope_sim::{FaultPlan, VirtualDuration};

    fn echo_scenario(cfg: SimConfig) -> Simulation {
        let mut sim = Simulation::new(cfg);
        let receiver = hope_core::ProcessId(1);
        sim.spawn("sender", move |ctx| {
            for i in 0..4 {
                ctx.send_reliable(receiver, Value::Int(i))?;
                ctx.compute(VirtualDuration::from_millis(1))?;
            }
            ctx.output("sender done")?;
            Ok(())
        });
        sim.spawn("receiver", |ctx| {
            for expected in 0..4 {
                let m = ctx.recv_matching(move |m| m.payload == Value::Int(expected))?;
                ctx.output(format!("got {}", m.payload))?;
            }
            Ok(())
        });
        sim
    }

    /// `base` under each of `plans`, labelled by plan seed.
    fn under_plans(
        base: &SimConfig,
        plans: impl IntoIterator<Item = FaultPlan>,
    ) -> Vec<(String, SimConfig)> {
        let variant = |p: FaultPlan| (format!("plan {}", p.seed()), base.clone().with_faults(p));
        plans.into_iter().map(variant).collect()
    }

    /// `base` under each scheduler seed in `seeds`, labelled by seed.
    fn under_seeds(base: &SimConfig, seeds: std::ops::Range<u64>) -> Vec<(String, SimConfig)> {
        let reseeded = |seed| SimConfig {
            seed,
            ..base.clone()
        };
        seeds
            .map(|seed| (format!("seed {seed}"), reseeded(seed)))
            .collect()
    }

    #[test]
    fn clean_sweep_is_ok_and_counts_faults() {
        let base = SimConfig::with_seed(3);
        let plans = (0..6).map(|s| FaultPlan::new(s).drop_rate(0.4).dupe_rate(0.2));
        let runs = sweep(base.clone(), under_plans(&base, plans), echo_scenario);
        assert_eq!(runs.len(), 6);
        assert_eq!(runs[5].label, "plan 5");
        for r in &runs {
            let f = r.stats.faults;
            assert!(
                f.drops + f.dupes > 0,
                "`{}` injected nothing: {f:?}",
                r.label
            );
            // Four receipts and the sender's line, as in the reference.
            assert_eq!(r.stats.outputs_released, 5);
            assert!(r.events > 0, "`{}`: the replay was not watched", r.label);
        }
    }

    /// The panic message of a sweep that must fail.
    fn failure_of(sweep: impl FnOnce() -> Vec<VariantRun>) -> String {
        let payload = std::panic::catch_unwind(std::panic::AssertUnwindSafe(sweep))
            .expect_err("the sweep must fail");
        *payload.downcast::<String>().expect("an assert! message")
    }

    #[test]
    fn divergent_scenario_is_caught() {
        // A program whose committed output depends on post-rollback
        // randomness: the oracle's one excluded class. Dropping its
        // messages forces retries whose rolled-back receive draws fresh
        // randomness, so committed output differs — the sweep must say so.
        let scenario = |cfg: SimConfig| {
            let mut sim = Simulation::new(cfg);
            let receiver = hope_core::ProcessId(1);
            sim.spawn("sender", move |ctx| {
                ctx.send_reliable(receiver, Value::Int(1))?;
                // Fresh randomness after any rollback: violates the
                // oracle's obligation on purpose.
                let salt = ctx.random_u64()?;
                ctx.output(format!("salt {salt}"))?;
                Ok(())
            });
            sim.spawn("receiver", |ctx| {
                ctx.recv()?;
                Ok(())
            });
            sim
        };
        let base = SimConfig::with_seed(5);
        // Heavy drops guarantee at least one retry (timeout deny →
        // rollback past the random_u64).
        let plans = (0..8).map(|s| FaultPlan::new(s).drop_rate(0.9));
        let msg = failure_of(|| sweep(base.clone(), under_plans(&base, plans), scenario));
        assert!(msg.contains("`plan 0`: committed() differs"), "{msg}");
    }

    #[test]
    fn seed_variants_hold_for_protocol_respecting_programs() {
        // The echo protocol totally orders its commits (receiver matches
        // payloads in sequence), so every scheduler seed must commit the
        // same lines.
        let base = SimConfig::with_seed(3);
        let runs = sweep(base.clone(), under_seeds(&base, 10..18), echo_scenario);
        assert_eq!(runs.len(), 8);
        assert!(runs.iter().all(|r| r.stats.outputs_released == 5));
    }

    #[test]
    fn seed_variants_catch_schedule_dependent_output() {
        // Two senders race into one unordered receiver: commit order is
        // the scheduler's choice, so some seed must disagree with the
        // reference — and the sweep must say which.
        let scenario = |cfg: SimConfig| {
            let mut sim = Simulation::new(cfg);
            let receiver = hope_core::ProcessId(2);
            for i in 0..2u32 {
                sim.spawn(format!("sender{i}"), move |ctx| {
                    // A seed-dependent delay before sending: which sender
                    // wins the race is the scheduler's coin flip.
                    let jitter = ctx.random_u64()? % 10;
                    ctx.compute(VirtualDuration::from_millis(jitter))?;
                    ctx.send_reliable(receiver, Value::Int(i64::from(i)))?;
                    Ok(())
                });
            }
            sim.spawn("receiver", |ctx| {
                for _ in 0..2 {
                    let m = ctx.recv()?;
                    ctx.output(format!("saw {}", m.payload))?;
                }
                Ok(())
            });
            sim
        };
        let base = SimConfig::with_seed(0);
        let msg = failure_of(|| sweep(base.clone(), under_seeds(&base, 0..32), scenario));
        assert!(msg.contains("`seed 1`: committed() differs"), "{msg}");
    }

    #[test]
    fn knob_dependent_scenario_is_caught() {
        // A scenario that reads a knob which claims to be transparent and
        // commits something else when it is set: exactly what the knob
        // lattice exists to catch, named by the variant's label.
        let scenario = |cfg: SimConfig| {
            let line = if cfg.fossil_collection {
                "collected"
            } else {
                "kept"
            };
            let mut sim = Simulation::new(cfg);
            sim.spawn("reporter", move |ctx| ctx.output(line));
            sim
        };
        let base = SimConfig::with_seed(1);
        let cells = knob_lattice(&base, &GovernorConfig::default());
        let msg = failure_of(|| sweep(base, cells, scenario));
        // Exactly the collecting half of the lattice is named.
        assert!(msg.contains("4 checks failed over 8 variants"), "{msg}");
        assert!(msg.contains("`fossil`: committed() differs"), "{msg}");
        assert!(msg.contains("`fossil+invariants`: committed()"), "{msg}");
    }
}
