//! The chaos equivalence oracle.
//!
//! HOPE's claim is not that optimism is fast — it is that optimism is
//! *safe*: whatever the network does, cascading rollback and output commit
//! guarantee that only correct results escape. This module turns that claim
//! into an executable check. [`chaos_sweep`] runs the same program once on
//! the perfect substrate and once per seeded [`FaultPlan`], and asserts:
//!
//! 1. **Equivalence** — every faulty run commits exactly the same output
//!    lines, per process and in the same order, as the fault-free run.
//!    Faults may change *when* lines commit (retries cost time), never
//!    *what* commits.
//! 2. **Replayability** — re-running a faulty configuration reproduces a
//!    bit-identical [`RunReport`] (compared by
//!    [`RunReport::fingerprint`]), so any failing seed is a deterministic
//!    repro, not an anecdote.
//!
//! The oracle is sound only for programs whose committed output does not
//! depend on *post-rollback* randomness: rollback deliberately does not
//! rewind a process's RNG (re-drawing would let a body "un-happen" an
//! observed coin flip), so a body that commits a fresh `random_u64` after
//! being rolled back legitimately commits different bytes under faults.
//! Derive committed values from pre-fault state or message payloads.

use std::collections::BTreeMap;

use hope_core::ProcessId;
use hope_sim::FaultPlan;

use crate::config::SimConfig;
use crate::scheduler::Simulation;
use crate::stats::{FaultStats, RunReport};

/// The committed output lines of a run, grouped per process in commit
/// order, with timestamps deliberately dropped: faults move commit times,
/// and the oracle must not care.
pub fn committed_outputs(report: &RunReport) -> BTreeMap<ProcessId, Vec<String>> {
    let mut map: BTreeMap<ProcessId, Vec<String>> = BTreeMap::new();
    for o in report.outputs() {
        map.entry(o.process).or_default().push(o.line.clone());
    }
    map
}

/// One divergence found by [`chaos_sweep`].
#[derive(Debug, Clone)]
pub struct ChaosFailure {
    /// Seed of the offending [`FaultPlan`] — rerunning the sweep with just
    /// this plan reproduces the divergence exactly.
    pub seed: u64,
    /// What diverged.
    pub detail: String,
}

impl std::fmt::Display for ChaosFailure {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "plan seed {}: {}", self.seed, self.detail)
    }
}

/// The aggregate result of a [`chaos_sweep`].
#[derive(Debug, Clone)]
pub struct ChaosOutcome {
    /// Number of fault plans exercised.
    pub plans: usize,
    /// Divergences found (empty when the oracle holds).
    pub failures: Vec<ChaosFailure>,
    /// Fault counters summed across all faulty runs — lets a sweep assert
    /// it actually injected something (a chaos test whose plans never fire
    /// proves nothing).
    pub faults: FaultStats,
    /// The fault-free run's committed output (the reference).
    pub baseline: BTreeMap<ProcessId, Vec<String>>,
}

impl ChaosOutcome {
    /// `true` when every faulty run matched the baseline and replayed
    /// bit-identically.
    pub fn is_ok(&self) -> bool {
        self.failures.is_empty()
    }

    /// Panic with every failing seed if the oracle found divergences.
    ///
    /// # Panics
    ///
    /// Panics when [`ChaosOutcome::is_ok`] is false.
    pub fn assert_ok(&self) {
        assert!(
            self.is_ok(),
            "chaos oracle: {}/{} fault plans diverged:\n{}",
            self.failures.len(),
            self.plans,
            self.failures
                .iter()
                .map(ChaosFailure::to_string)
                .collect::<Vec<_>>()
                .join("\n")
        );
    }
}

/// Run `scenario` once fault-free under `base`, then once per plan in
/// `plans` (each with [`SimConfig::with_faults`]), checking committed-output
/// equivalence and same-seed replayability. See the module docs for what
/// the oracle guarantees and the one obligation it places on scenarios.
///
/// `scenario` must build the *same program* for every configuration it is
/// given — it is called `2 + 2 × plans` times.
///
/// # Examples
///
/// ```
/// use hope_runtime::chaos::chaos_sweep;
/// use hope_runtime::{FaultPlan, SimConfig, Simulation, Value};
///
/// let outcome = chaos_sweep(
///     SimConfig::with_seed(7),
///     (0..4).map(|s| FaultPlan::new(s).drop_rate(0.3).dupe_rate(0.2)),
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
/// outcome.assert_ok();
/// assert_eq!(outcome.plans, 4);
/// ```
pub fn chaos_sweep(
    base: SimConfig,
    plans: impl IntoIterator<Item = FaultPlan>,
    scenario: impl Fn(SimConfig) -> Simulation,
) -> ChaosOutcome {
    let baseline_report = scenario(base.clone()).run();
    let baseline = committed_outputs(&baseline_report);
    let mut failures = Vec::new();
    if baseline_report.hit_limits() {
        failures.push(ChaosFailure {
            seed: base.seed,
            detail: "fault-free baseline hit simulation limits".to_string(),
        });
    }
    // The baseline itself must replay: a scenario that varies across calls
    // (captured mutable state, host randomness) would fail every plan with
    // a misleading diagnosis.
    let baseline_replay = scenario(base.clone()).run();
    if baseline_replay.fingerprint() != baseline_report.fingerprint() {
        failures.push(ChaosFailure {
            seed: base.seed,
            detail: "fault-free baseline is not replayable — the scenario \
                     closure does not build the same program every call"
                .to_string(),
        });
    }
    let mut faults = FaultStats::default();
    let mut plan_count = 0;
    for plan in plans {
        plan_count += 1;
        let seed = plan.seed();
        let cfg = base.clone().with_faults(plan);
        let report = scenario(cfg.clone()).run();
        faults.merge(&report.stats().faults);
        if report.hit_limits() {
            failures.push(ChaosFailure {
                seed,
                detail: "faulty run hit simulation limits".to_string(),
            });
            continue;
        }
        let got = committed_outputs(&report);
        if got != baseline {
            failures.push(ChaosFailure {
                seed,
                detail: format!(
                    "committed output diverged from fault-free run:\n  \
                     expected: {baseline:?}\n  got:      {got:?}"
                ),
            });
        }
        let replay = scenario(cfg).run();
        if replay.fingerprint() != report.fingerprint() {
            failures.push(ChaosFailure {
                seed,
                detail: "same-seed replay produced a different RunReport \
                         fingerprint — determinism violated"
                    .to_string(),
            });
        }
    }
    ChaosOutcome {
        plans: plan_count,
        failures,
        faults,
        baseline,
    }
}

/// Run `scenario` under every scheduler seed in `seeds` and assert each
/// run commits exactly the same output lines as the run under
/// `base.seed` — the schedule-space counterpart to [`chaos_sweep`]'s
/// fault-space oracle, with the same replayability check per seed.
///
/// The scheduler's seed decides every interleaving choice the simulation
/// makes, so sweeping it samples distinct schedules of the same program.
/// This is deliberately a *sampled* complement to the `hope-mc` model
/// checker: machine programs are plain data and can be forked state-by-
/// state for exhaustive exploration, but a [`Simulation`]'s process
/// bodies are closures that cannot be cloned mid-run, so the runtime's
/// schedule coverage comes from seeds. Programs whose committed output is
/// schedule-dependent by design (racing outputs with no HOPE protocol
/// around them) will — and should — fail this sweep.
///
/// If `base` carries a [`FaultPlan`], every seeded run keeps it: the sweep
/// then checks schedule-independence *under* that fixed fault load.
pub fn schedule_sweep(
    base: SimConfig,
    seeds: impl IntoIterator<Item = u64>,
    scenario: impl Fn(SimConfig) -> Simulation,
) -> ChaosOutcome {
    let baseline_report = scenario(base.clone()).run();
    let baseline = committed_outputs(&baseline_report);
    let mut failures = Vec::new();
    if baseline_report.hit_limits() {
        failures.push(ChaosFailure {
            seed: base.seed,
            detail: "baseline schedule hit simulation limits".to_string(),
        });
    }
    let baseline_replay = scenario(base.clone()).run();
    if baseline_replay.fingerprint() != baseline_report.fingerprint() {
        failures.push(ChaosFailure {
            seed: base.seed,
            detail: "baseline schedule is not replayable — the scenario \
                     closure does not build the same program every call"
                .to_string(),
        });
    }
    let mut faults = FaultStats::default();
    let mut seed_count = 0;
    for seed in seeds {
        seed_count += 1;
        let mut cfg = base.clone();
        cfg.seed = seed;
        let report = scenario(cfg.clone()).run();
        faults.merge(&report.stats().faults);
        if report.hit_limits() {
            failures.push(ChaosFailure {
                seed,
                detail: "seeded schedule hit simulation limits".to_string(),
            });
            continue;
        }
        let got = committed_outputs(&report);
        if got != baseline {
            failures.push(ChaosFailure {
                seed,
                detail: format!(
                    "committed output diverged across schedules:\n  \
                     baseline: {baseline:?}\n  got:      {got:?}"
                ),
            });
        }
        let replay = scenario(cfg).run();
        if replay.fingerprint() != report.fingerprint() {
            failures.push(ChaosFailure {
                seed,
                detail: "same-seed replay produced a different RunReport \
                         fingerprint — determinism violated"
                    .to_string(),
            });
        }
    }
    ChaosOutcome {
        plans: seed_count,
        failures,
        faults,
        baseline,
    }
}

/// The governor transparency oracle: prove that the optimism governor
/// reshapes *when* speculation is spent, never *what* commits.
///
/// `base` must carry a governor
/// ([`SimConfig::with_governor`](crate::SimConfig)); for the fault-free
/// configuration and then for each plan in `plans`, the scenario runs once
/// with the governor stripped and once with it installed, and the two runs'
/// [`committed_outputs`] must be bit-identical. Governor-on runs also get
/// the same-seed replayability check as [`chaos_sweep`]. The returned
/// [`ChaosOutcome`]'s `baseline` is the fault-free governor-off output and
/// its `faults` aggregate the governor-on runs' counters (so callers can
/// assert the sweep actually exercised holds and conversions via
/// [`RunStats::governor`](crate::RunStats)).
///
/// # Panics
///
/// Panics if `base` has no governor configured — sweeping without one
/// would vacuously compare identical configs.
pub fn governor_sweep(
    base: SimConfig,
    plans: impl IntoIterator<Item = FaultPlan>,
    scenario: impl Fn(SimConfig) -> Simulation,
) -> ChaosOutcome {
    assert!(
        base.governor.is_some(),
        "governor_sweep needs SimConfig::with_governor on the base config"
    );
    let mut off = base.clone();
    off.governor = None;

    let mut failures = Vec::new();
    let mut faults = FaultStats::default();
    let baseline = committed_outputs(&scenario(off.clone()).run());
    let mut plan_count = 0;
    // Configuration 0 is fault-free; each plan then repeats the off/on
    // comparison under that fault load.
    let configs = std::iter::once(None).chain(plans.into_iter().map(Some));
    for plan in configs {
        let seed = plan.as_ref().map_or(base.seed, FaultPlan::seed);
        let (cfg_off, cfg_on) = match plan {
            Some(p) => {
                plan_count += 1;
                (
                    off.clone().with_faults(p.clone()),
                    base.clone().with_faults(p),
                )
            }
            None => (off.clone(), base.clone()),
        };
        let report_off = scenario(cfg_off).run();
        let report_on = scenario(cfg_on.clone()).run();
        faults.merge(&report_on.stats().faults);
        if report_off.hit_limits() || report_on.hit_limits() {
            failures.push(ChaosFailure {
                seed,
                detail: "run hit simulation limits".to_string(),
            });
            continue;
        }
        let want = committed_outputs(&report_off);
        let got = committed_outputs(&report_on);
        if got != want {
            failures.push(ChaosFailure {
                seed,
                detail: format!(
                    "governor changed committed output:\n  \
                     governor off: {want:?}\n  governor on:  {got:?}"
                ),
            });
        }
        let replay = scenario(cfg_on).run();
        if replay.fingerprint() != report_on.fingerprint() {
            failures.push(ChaosFailure {
                seed,
                detail: "same-seed governed replay produced a different \
                         RunReport fingerprint — determinism violated"
                    .to_string(),
            });
        }
    }
    ChaosOutcome {
        plans: plan_count,
        failures,
        faults,
        baseline,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::governor::GovernorConfig;
    use crate::value::Value;
    use hope_sim::VirtualDuration;

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

    #[test]
    fn clean_sweep_is_ok_and_counts_faults() {
        let outcome = chaos_sweep(
            SimConfig::with_seed(3),
            (0..6).map(|s| FaultPlan::new(s).drop_rate(0.4).dupe_rate(0.2)),
            echo_scenario,
        );
        outcome.assert_ok();
        assert_eq!(outcome.plans, 6);
        assert!(
            outcome.faults.drops + outcome.faults.dupes > 0,
            "plans this hostile must inject something: {:?}",
            outcome.faults
        );
        assert_eq!(
            outcome
                .baseline
                .get(&hope_core::ProcessId(1))
                .unwrap()
                .len(),
            4
        );
    }

    #[test]
    fn governor_sweep_holds_under_heavy_drops() {
        // An aggressive governor (throttle from the first sample) against
        // drop-heavy plans: committed outputs must match governor-off runs
        // on every configuration.
        let gov = GovernorConfig::default()
            .with_window(4)
            .with_min_samples(1)
            .with_thresholds(100, 2000);
        let outcome = governor_sweep(
            SimConfig::with_seed(3).with_governor(gov),
            (0..4).map(|s| FaultPlan::new(s).drop_rate(0.4)),
            echo_scenario,
        );
        outcome.assert_ok();
        assert_eq!(outcome.plans, 4);
        assert!(outcome.faults.reliable_sends > 0, "{:?}", outcome.faults);
    }

    #[test]
    #[should_panic(expected = "with_governor")]
    fn governor_sweep_requires_a_governor() {
        governor_sweep(SimConfig::with_seed(3), std::iter::empty(), echo_scenario);
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
        let outcome = chaos_sweep(
            SimConfig::with_seed(5),
            // Heavy drops guarantee at least one retry (timeout deny →
            // rollback past the random_u64).
            (0..8).map(|s| FaultPlan::new(s).drop_rate(0.9)),
            scenario,
        );
        assert!(
            !outcome.is_ok(),
            "a post-rollback-randomness program under heavy drops must \
             diverge; faults: {:?}",
            outcome.faults
        );
        assert!(outcome.failures[0].detail.contains("diverged"));
    }

    #[test]
    fn schedule_sweep_holds_for_protocol_respecting_programs() {
        // The echo protocol totally orders its commits (receiver matches
        // payloads in sequence), so every scheduler seed must commit the
        // same lines.
        let outcome = schedule_sweep(SimConfig::with_seed(3), 10..18, echo_scenario);
        outcome.assert_ok();
        assert_eq!(outcome.plans, 8);
        assert_eq!(
            outcome
                .baseline
                .get(&hope_core::ProcessId(1))
                .unwrap()
                .len(),
            4
        );
    }

    #[test]
    fn schedule_sweep_catches_schedule_dependent_output() {
        // Two senders race into one unordered receiver: commit order is
        // the scheduler's choice, so some seed must disagree with the
        // baseline — and the sweep must say so.
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
        let outcome = schedule_sweep(SimConfig::with_seed(0), 0..32, scenario);
        assert!(
            !outcome.is_ok(),
            "an order-racy program must diverge somewhere in 32 seeds"
        );
        assert!(outcome.failures[0].detail.contains("across schedules"));
    }
}
