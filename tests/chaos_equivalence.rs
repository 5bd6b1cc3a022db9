//! The chaos equivalence sweep: committed outputs are fault-independent.
//!
//! For three representative applications — a core reliable pipeline (the
//! E5 cascade shape), optimistic recovery (E10) and primary-copy
//! replication (E7) — this suite runs the program fault-free and under
//! hundreds of seeded [`FaultPlan`]s mixing message drops, duplication,
//! delay spikes, temporary partitions and crash-restart kills, asserting
//! via [`chaos_sweep`]:
//!
//! * committed outputs are identical to the fault-free run (Theorem 6.2's
//!   irrevocable effects are fault-independent), and
//! * every faulty configuration replays bit-identically under its seed
//!   (any failure is a deterministic repro).
//!
//! Scenario obligations (see `hope_runtime::chaos`): committed values are
//! derived from payloads/pre-fault state (never post-rollback
//! randomness), loss-sensitive messages ride `send_reliable`, and kills
//! always restart (a permanent crash trivially loses output).

use hope_recovery::{run_app_optimistic, run_stable_store};
use hope_replication::{run_primary, Replica};
use hope_runtime::{
    chaos_sweep, governor_sweep, ChaosOutcome, FaultPlan, GovernorConfig, ProcessId, SimConfig,
    Simulation, Value,
};
use hope_sim::{LatencyModel, SimRng, Topology, VirtualDuration, VirtualTime};
use proptest::prelude::*;

fn ms(v: u64) -> VirtualDuration {
    VirtualDuration::from_millis(v)
}

/// Deterministically derive a mixed fault plan from a seed: always some
/// link chaos, plus (seed-dependent) a temporary partition and/or a
/// crash-restart kill of one of `procs` processes.
fn plan_for_seed(seed: u64, procs: u32) -> FaultPlan {
    let mut rng = SimRng::new(seed.wrapping_mul(0x9E37_79B9_7F4A_7C15) ^ 0xC4A0);
    let mut plan = FaultPlan::new(seed)
        .drop_rate((rng.next_u64() % 30) as f64 / 100.0)
        .dupe_rate((rng.next_u64() % 20) as f64 / 100.0)
        .delay_spikes(
            (rng.next_u64() % 25) as f64 / 100.0,
            ms(1 + rng.next_u64() % 8),
        );
    if rng.next_u64().is_multiple_of(2) {
        let a = (rng.next_u64() % procs as u64) as u32;
        let b = (rng.next_u64() % procs as u64) as u32;
        if a != b {
            let from = VirtualTime::ZERO + ms(1 + rng.next_u64() % 20);
            plan = plan.partition_between(a, b, from, from + ms(5 + rng.next_u64() % 25));
        }
    }
    if rng.next_u64().is_multiple_of(2) {
        let victim = (rng.next_u64() % procs as u64) as u32;
        let at_step = 5 + rng.next_u64() % 70;
        plan = plan.kill(victim, at_step, Some(ms(1 + rng.next_u64() % 20)));
    }
    plan
}

fn base_config(seed: u64) -> SimConfig {
    SimConfig::with_seed(seed).with_topology(Topology::uniform(LatencyModel::Fixed(ms(2))))
}

/// Core scenario: a three-stage pipeline, every hop reliable. Rollback
/// cascades cross process boundaries exactly as in E5 when a hop's
/// "delivered" assumption is denied by a timeout.
fn pipeline_scenario(cfg: SimConfig) -> Simulation {
    const ITEMS: i64 = 5;
    let mut sim = Simulation::new(cfg);
    let relay = ProcessId(1);
    let sink = ProcessId(2);
    sim.spawn("source", move |ctx| {
        for i in 0..ITEMS {
            ctx.send_reliable(relay, Value::Int(i))?;
            ctx.compute(VirtualDuration::from_micros(300))?;
        }
        ctx.output("source done")?;
        Ok(())
    });
    sim.spawn("relay", move |ctx| {
        for expected in 0..ITEMS {
            let m = ctx.recv_matching(move |m| m.payload == Value::Int(expected))?;
            ctx.send_reliable(sink, Value::Int(m.payload.expect_int() * 10))?;
        }
        Ok(())
    });
    sim.spawn("sink", |ctx| {
        for expected in 0..ITEMS {
            let m = ctx.recv_matching(move |m| m.payload == Value::Int(expected * 10))?;
            ctx.output(format!("sink got {}", m.payload))?;
        }
        Ok(())
    });
    sim
}

/// Recovery scenario (E10): optimistic logging to a stable store.
fn recovery_scenario(cfg: SimConfig) -> Simulation {
    let mut sim = Simulation::new(cfg);
    let store = ProcessId(1);
    sim.spawn("app", move |ctx| {
        run_app_optimistic(ctx, store, 8, VirtualDuration::from_micros(200))
    });
    sim.spawn("store", move |ctx| run_stable_store(ctx, ms(5)));
    sim
}

/// Replication scenario (E7): two clients write disjoint keys through the
/// primary over reliable sends; crash-recovering clients converge via the
/// primary's `try_affirm` repair path.
fn replication_scenario(cfg: SimConfig) -> Simulation {
    let mut sim = Simulation::new(cfg);
    let primary = ProcessId(2);
    for c in 0..2u32 {
        sim.spawn(format!("client{c}"), move |ctx| {
            let mut rep = Replica::new(primary);
            let key = format!("k{c}");
            for i in 0..4 {
                rep.write_reliable(ctx, &key, Value::Int(i))?;
                ctx.output(format!("client{c} wrote {i}"))?;
            }
            Ok(())
        });
    }
    sim.spawn("primary", move |ctx| {
        run_primary(
            ctx,
            vec![ProcessId(0), ProcessId(1)],
            VirtualDuration::from_micros(10),
            |_| {},
        )
    });
    sim
}

/// Fossil-collection scenario: a checkpointing open loop (the E19 shape,
/// shortened). Both processes use the [`Ctx::restore`]/[`Ctx::checkpoint`]
/// protocol, so fossil collection truncates their journal prefixes
/// mid-run and any crash-restart replays from the horizon snapshot
/// instead of step zero. Announcements ride `send_reliable` (kills and
/// drops may lose them) and committed lines are fixed strings.
fn checkpointed_loop_scenario(cfg: SimConfig) -> Simulation {
    const ITERS: i64 = 60;
    let mut sim = Simulation::new(cfg);
    let verifier = ProcessId(1);
    sim.spawn("guesser", move |ctx| {
        let mut i = match ctx.restore()? {
            Some(v) => v.expect_int(),
            None => 0,
        };
        while i < ITERS {
            ctx.checkpoint(Value::Int(i))?;
            let aid = ctx.aid_init()?;
            ctx.send_reliable(verifier, Value::Int(aid.index() as i64))?;
            let _ = ctx.guess(aid)?;
            ctx.compute(VirtualDuration::from_micros(200))?;
            i += 1;
        }
        ctx.output("guesser done")?;
        Ok(())
    });
    sim.spawn("verifier", move |ctx| {
        let mut seen = match ctx.restore()? {
            Some(v) => v.expect_int(),
            None => 0,
        };
        while seen < ITERS {
            ctx.checkpoint(Value::Int(seen))?;
            let m = ctx.recv()?;
            ctx.affirm(hope_core::AidId::from_index(m.payload.expect_int() as u64))?;
            seen += 1;
        }
        ctx.output("verifier done")?;
        Ok(())
    });
    sim
}

fn sweep(
    scenario: impl Fn(SimConfig) -> Simulation,
    procs: u32,
    seeds: std::ops::Range<u64>,
) -> ChaosOutcome {
    let outcome = chaos_sweep(
        base_config(11),
        seeds.map(|s| plan_for_seed(s, procs)),
        scenario,
    );
    outcome.assert_ok();
    assert!(
        outcome.faults.drops + outcome.faults.dupes + outcome.faults.kills > 0,
        "the sweep must actually inject faults: {:?}",
        outcome.faults
    );
    outcome
}

// The three acceptance sweeps: ≥ 200 seeded plans across three scenarios.

#[test]
fn pipeline_sweep_70_plans() {
    let outcome = sweep(pipeline_scenario, 3, 0..70);
    assert!(outcome.faults.kills > 0, "{:?}", outcome.faults);
    assert!(outcome.faults.retries > 0, "{:?}", outcome.faults);
    // The retry-pressure signal the governor consumes: every retry is a
    // re-attempt of some first send, so `retries / reliable_sends` is a
    // well-defined per-send pressure ratio. Under these mixed plans it
    // must be strictly positive (faults force retransmissions) yet
    // bounded — each send retries finitely under the backoff cap.
    assert!(outcome.faults.reliable_sends > 0, "{:?}", outcome.faults);
    let pressure = outcome.faults.retries as f64 / outcome.faults.reliable_sends as f64;
    assert!(
        pressure > 0.0 && pressure < 50.0,
        "implausible retry pressure {pressure}: {:?}",
        outcome.faults
    );
}

#[test]
fn recovery_sweep_70_plans() {
    let outcome = sweep(recovery_scenario, 2, 1000..1070);
    assert!(outcome.faults.restarts > 0, "{:?}", outcome.faults);
}

#[test]
fn replication_sweep_70_plans() {
    let outcome = sweep(replication_scenario, 3, 2000..2070);
    assert!(outcome.faults.kills > 0, "{:?}", outcome.faults);
}

/// The checkpointing scenario under crash-restart plans, with collection
/// live under the kills and with it off: every plan commits the fault-free
/// outputs, and the two sweeps share one baseline.
fn fossil_on_off_sweep(seeds: std::ops::Range<u64>) {
    let plans = || seeds.clone().map(|s| plan_for_seed(s, 2));
    let on = chaos_sweep(
        base_config(11).with_fossil_collection(true),
        plans(),
        checkpointed_loop_scenario,
    );
    on.assert_ok();
    assert!(
        on.faults.kills > 0 && on.faults.restarts > 0,
        "the sweep must exercise crash-restart: {:?}",
        on.faults
    );
    let off = chaos_sweep(base_config(11), plans(), checkpointed_loop_scenario);
    off.assert_ok();
    assert_eq!(
        on.baseline, off.baseline,
        "fossil collection changed committed outputs"
    );
}

/// The fossil-collection sweep: crash-restart kills while collection is
/// actively truncating journal prefixes. Committed outputs must match the
/// fault-free run under every plan (chaos_sweep asserts it), and the
/// whole sweep's baseline must match the identical sweep with collection
/// off — replay-from-horizon is observationally invisible.
#[test]
#[ignore = "431 s in debug; run in CI with --release -- --ignored"]
fn slow_fossil_collection_sweep_70_plans() {
    fossil_on_off_sweep(3000..3070);
    // Collection must actually engage, or the sweep proves nothing: check
    // a representative faulty run reclaimed engine records and journal
    // prefixes mid-flight.
    let r = checkpointed_loop_scenario(
        base_config(11)
            .with_fossil_collection(true)
            .with_faults(plan_for_seed(3001, 2)),
    )
    .run();
    let mem = r.stats().memory;
    assert!(
        mem.reclaimed_intervals > 0 && mem.reclaimed_journal_entries > 0,
        "collection never engaged: {mem:?}"
    );
}

/// The governor transparency sweep: with the admission governor enabled —
/// tuned aggressively enough that drops and kills push sites into
/// Throttled and Conservative — committed outputs must stay bit-identical
/// to the governor-off run under every one of 70 seeded plans mixing
/// drops, duplication, delay spikes, temporary partitions and
/// crash-restart kills ([`governor_sweep`] compares the paired runs per
/// plan, fault-free config included). Degradation changes *when* guesses
/// run, never *what* commits.
#[test]
#[ignore = "124 s in debug; run in CI with --release -- --ignored"]
fn slow_governor_equivalence_sweep_70_plans() {
    let gov = GovernorConfig::default()
        .with_window(8)
        .with_min_samples(2)
        .with_thresholds(200, 1200)
        .with_hold(ms(1));
    let outcome = governor_sweep(
        base_config(11).with_governor(gov),
        (4000..4070).map(|s| plan_for_seed(s, 2)),
        checkpointed_loop_scenario,
    );
    outcome.assert_ok();
    assert_eq!(outcome.plans, 70);
    assert!(
        outcome.faults.drops > 0 && outcome.faults.kills > 0,
        "the sweep must actually inject faults: {:?}",
        outcome.faults
    );
    // The sweep proves nothing if the governor never leaves Optimistic:
    // check a representative hostile plan actually throttled or converted.
    let r = checkpointed_loop_scenario(
        base_config(11)
            .with_governor(
                GovernorConfig::default()
                    .with_window(8)
                    .with_min_samples(2)
                    .with_thresholds(200, 1200)
                    .with_hold(ms(1)),
            )
            .with_faults(plan_for_seed(4003, 2)),
    )
    .run();
    let g = r.stats().governor;
    assert!(
        g.held + g.converted > 0 && g.transitions > 0,
        "governor never engaged under a hostile plan: {g:?}"
    );
}

/// A quick deterministic smoke (also run by CI's chaos step): a handful of
/// hostile plans per scenario.
#[test]
fn chaos_smoke() {
    for (scenario, procs) in [
        (pipeline_scenario as fn(SimConfig) -> Simulation, 3u32),
        (recovery_scenario, 2),
        (replication_scenario, 3),
    ] {
        sweep(scenario, procs, 42..48);
    }
    // Tier-1's fossil-transparency check; the 70-plan sweep is `#[ignore]`d.
    fossil_on_off_sweep(42..48);
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// Randomized plans (rates and kill schedules drawn by proptest rather
    /// than our own generator) preserve committed-output equivalence on
    /// the recovery scenario.
    #[test]
    fn random_plans_preserve_recovery_outputs(
        seed in 0u64..10_000,
        drop in 0.0f64..0.35,
        dupe in 0.0f64..0.25,
        victim in 0u32..2,
        at_step in 5u64..60,
        downtime_ms in 1u64..15,
    ) {
        let plan = FaultPlan::new(seed)
            .drop_rate(drop)
            .dupe_rate(dupe)
            .kill(victim, at_step, Some(ms(downtime_ms)));
        let outcome = chaos_sweep(base_config(11), [plan], recovery_scenario);
        prop_assert!(outcome.is_ok(), "{:?}", outcome.failures);
    }
}
