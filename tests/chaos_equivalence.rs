//! The fault-space transparency lattice: what a run commits depends on
//! neither the faults injected nor any knob that claims to be transparent.
//!
//! Nearly everything here goes through the one oracle, [`sweep`]: a fault-free,
//! all-knobs-off reference run, and per variant the assertions that
//! `committed()` equals the reference's (Theorem 6.2's irrevocable effects
//! are fault-independent) and that the variant replays bit-identically
//! under its seed, watched (any failure is a deterministic repro, and
//! watching a run changes nothing). The variants are
//!
//! * three representative applications — a core reliable pipeline (the E5
//!   cascade shape), optimistic recovery (E10) and primary-copy replication
//!   (E7) — under hundreds of seeded [`FaultPlan`]s mixing message drops,
//!   duplication, delay spikes, temporary partitions and crash-restart
//!   kills;
//! * a checkpointing guesser/verifier loop, and the recovery pipeline
//!   (whose bodies checkpoint every step), under every combination of
//!   fossil collection, the optimism governor and engine invariant
//!   checking ([`knob_lattice`]), fault-free and under
//!   the same kind of plans — each cell asserting that what it turns on
//!   actually fired; and
//! * the recovery pipeline, and the Time Warp logical process, each against
//!   its twin without checkpoints — the comparisons made directly, because
//!   a snapshot is only where a restart resumes and the twins must agree
//!   in more than `committed()`.
//!
//! Scenario obligations (see `hope_runtime::chaos`): committed values are
//! derived from payloads/pre-fault state (never post-rollback
//! randomness), loss-sensitive messages ride `send_reliable`, and kills
//! always restart (a permanent crash trivially loses output).

use hope_recovery::{decode_log_entry, log_entry, run_app_optimistic, run_stable_store};
use hope_replication::{run_primary, Replica};
use hope_runtime::mc::{check_scenario, SimMcConfig};
use hope_runtime::{
    knob_lattice, sweep, Ctx, FaultPlan, FaultStats, GovernorConfig, Hope, ProcessId, SimConfig,
    Simulation, Value, VariantRun,
};
use hope_sim::{LatencyModel, SimRng, Topology, VirtualDuration, VirtualTime};
use hope_timewarp::{run_lp, ChannelHorizon, Event, LpConfig};
use std::collections::{BTreeMap, BTreeSet};

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

/// Recovery scenario (E10): optimistic logging to a stable store. Both
/// bodies checkpoint once per step, so every rollback and restart resumes
/// at its newest surviving snapshot.
fn recovery_scenario(cfg: SimConfig) -> Simulation {
    recovery_pipeline(cfg, 8)
}

fn recovery_pipeline(cfg: SimConfig, steps: u64) -> Simulation {
    let mut sim = Simulation::new(cfg);
    let store = ProcessId(1);
    sim.spawn("app", move |ctx| {
        run_app_optimistic(ctx, store, steps, VirtualDuration::from_micros(200))
    });
    sim.spawn("store", move |ctx| run_stable_store(ctx, ms(5)));
    sim
}

/// The recovery pipeline long enough that every run crosses the
/// scheduler's 256-event fossil sweep: the knob lattice's second scenario.
fn long_recovery_scenario(cfg: SimConfig) -> Simulation {
    recovery_pipeline(cfg, 60)
}

/// [`recovery_pipeline`]'s twin: `run_app_optimistic` and the optimistic
/// path of `run_stable_store` with their `restore`/`checkpoint` calls
/// removed and nothing else changed, so every restart replays from step
/// zero.
fn uncheckpointed_recovery_pipeline(cfg: SimConfig, steps: u64) -> Simulation {
    let mut sim = Simulation::new(cfg);
    let store = ProcessId(1);
    sim.spawn("app", move |ctx| {
        for seq in 0..steps {
            loop {
                let aid = ctx.aid_init()?;
                ctx.send_reliable(store, log_entry(aid, seq))?;
                if ctx.guess(aid)? {
                    break;
                }
            }
            ctx.output(format!("step {seq} committed"))?;
            ctx.compute(VirtualDuration::from_micros(200))?;
        }
        Ok(())
    });
    sim.spawn("store", move |ctx| loop {
        let msg = ctx.recv()?;
        let Some((aid, _)) = decode_log_entry(&msg.payload) else {
            continue;
        };
        ctx.compute(ms(5))?;
        ctx.affirm(aid)?;
    });
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

/// Knob-lattice scenario: a checkpointing open loop (the E19 shape,
/// shortened). Both processes use the [`Ctx::restore`]/[`Ctx::checkpoint`]
/// protocol, so fossil collection truncates their journal prefixes
/// mid-run and any crash-restart replays from the horizon snapshot
/// instead of step zero. Announcements ride `send_reliable` (kills and
/// drops may lose them) and committed lines are fixed strings. 66
/// iterations are 266 scheduler events fault-free: every run, however
/// benign its plan, crosses the scheduler's 256-event fossil sweep.
fn checkpointed_loop_scenario(cfg: SimConfig) -> Simulation {
    const ITERS: i64 = 66;
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

/// `cfg` under `plan_for_seed(s, procs)` for every seed, labelled
/// `"<cell> / plan <s>"`.
fn under_plans(
    cell: &str,
    cfg: &SimConfig,
    procs: u32,
    seeds: impl IntoIterator<Item = u64>,
) -> Vec<(String, SimConfig)> {
    let variant = |s| {
        let plan = plan_for_seed(s, procs);
        (format!("{cell} / plan {s}"), cfg.clone().with_faults(plan))
    };
    seeds.into_iter().map(variant).collect()
}

/// Sum one fault counter over `runs`.
fn total(runs: &[VariantRun], counter: fn(&FaultStats) -> u64) -> u64 {
    runs.iter().map(|r| counter(&r.stats.faults)).sum()
}

/// One application under seeded plans, all knobs off; returns the runs for
/// the caller's own engagement assertions.
fn app_sweep(
    scenario: impl Fn(SimConfig) -> Simulation,
    procs: u32,
    seeds: std::ops::Range<u64>,
) -> Vec<VariantRun> {
    let base = base_config(11);
    let runs = sweep(
        base.clone(),
        under_plans("plain", &base, procs, seeds),
        scenario,
    );
    assert!(
        total(&runs, |f| f.drops + f.dupes + f.kills) > 0,
        "the sweep must actually inject faults"
    );
    runs
}

// The three acceptance sweeps: ≥ 200 seeded plans across three scenarios.

#[test]
fn pipeline_sweep_70_plans() {
    let runs = app_sweep(pipeline_scenario, 3, 0..70);
    assert!(total(&runs, |f| f.kills) > 0);
    // The retry-pressure signal the governor consumes: every retry is a
    // re-attempt of some first send, so `retries / reliable_sends` is a
    // well-defined per-send pressure ratio. Under these mixed plans it
    // must be strictly positive (faults force retransmissions) yet
    // bounded — each send retries finitely under the backoff cap.
    let retries = total(&runs, |f| f.retries);
    let sends = total(&runs, |f| f.reliable_sends);
    assert!(
        retries > 0 && sends > 0,
        "{retries} retries of {sends} sends"
    );
    let pressure = retries as f64 / sends as f64;
    assert!(pressure < 50.0, "implausible retry pressure {pressure}");
}

#[test]
fn recovery_sweep_70_plans() {
    let runs = app_sweep(recovery_scenario, 2, 1000..1070);
    assert!(total(&runs, |f| f.restarts) > 0);
}

#[test]
fn replication_sweep_70_plans() {
    let runs = app_sweep(replication_scenario, 3, 2000..2070);
    assert!(total(&runs, |f| f.kills) > 0);
}

/// Checkpoint transparency on the lossy pipeline: a snapshot is where a
/// restart resumes, so the twin that takes none must differ only in how
/// much it replays. Under the recovery sweep's plans and under plain 30%
/// loss both commit the same lines after the same events, virtual time,
/// rollbacks and restarts; over the schedule space of `check_scenario`
/// both have the same schedule tree and outcome set.
#[test]
fn checkpoints_are_transparent_to_the_lossy_pipeline() {
    let plans = (1000..1030)
        .map(|s| plan_for_seed(s, 2))
        .chain((0..10).map(|s| FaultPlan::new(s).drop_rate(0.3)));
    let mut replays = 0;
    for plan in plans {
        let observe = |sim: Simulation| {
            let r = sim.run();
            let s = r.stats();
            let restarts = (s.rollback_events, s.replays, s.faults);
            (r.committed(), r.events(), r.end_time(), restarts)
        };
        let cfg = base_config(11).with_faults(plan.clone());
        let with = observe(recovery_pipeline(cfg.clone(), 20));
        let without = observe(uncheckpointed_recovery_pipeline(cfg, 20));
        assert_eq!(with, without, "plan {}", plan.seed());
        replays += with.3 .1;
    }
    assert!(replays > 1000, "the plans must roll back: {replays}");

    // Each entry's ack races its retransmission deadline, so the schedule
    // tree is wide: one step inside a 12 ms horizon (room for one timeout
    // deny and its retransmission) is exhausted; two steps are not within
    // any affordable budget, so there the first 1024 schedules of the
    // depth-first order — the same schedules iff the trees agree on them
    // — must coincide.
    let explore = |steps, horizon_ms, max_schedules| {
        let cfg = base_config(11)
            .with_ack_timeout(ms(10))
            .with_max_virtual_time(VirtualTime::ZERO + ms(horizon_ms));
        let tree = |scenario: fn(SimConfig, u64) -> Simulation| {
            let r = check_scenario(&SimMcConfig { max_schedules }, || {
                scenario(cfg.clone(), steps)
            });
            let shape = (r.schedules, r.choice_points, r.max_depth);
            (r.outcomes, shape, r.completeness, r.frontier_remaining)
        };
        let with = tree(recovery_pipeline);
        assert_eq!(with, tree(uncheckpointed_recovery_pipeline));
        with
    };
    let (outcomes, _, completeness, _) = explore(1, 12, 4096);
    assert!(completeness.is_exhausted() && outcomes.len() > 1);
    let (_, (schedules, ..), ..) = explore(2, 15, 1024);
    assert_eq!(schedules, 1024);
}

/// [`run_lp`]'s twin: the body as it was before it called
/// `restore`/`checkpoint`, transcribed — every restart replays its journal
/// from step zero — with nothing else changed.
fn run_lp_uncheckpointed(ctx: &mut Ctx, cfg: &LpConfig) -> Hope<()> {
    let me = ctx.pid();
    let mut pending: BTreeSet<(Event, u64)> = BTreeSet::new();
    let mut horizon = ChannelHorizon::new(cfg.senders.clone());
    let mut last_sent: BTreeMap<ProcessId, u64> = BTreeMap::new();
    let mut guards: Vec<(u64, hope_core::AidId)> = Vec::new();
    let mut last_processed: u64 = 0;
    for j in 0..cfg.seed_jobs {
        ctx.send(me, Event { ts: 1 + j, hops: 0 }.to_value())?;
    }
    if cfg.seed_jobs > 0 {
        last_sent.insert(me, cfg.seed_jobs);
    }
    loop {
        let msg = ctx.recv()?;
        let Some(ev) = Event::from_value(&msg.payload) else {
            continue;
        };
        horizon.observe(msg.from, ev.ts);
        pending.insert((ev, msg.id));
        for guard in horizon.drain_safe(&mut guards) {
            ctx.affirm(guard)?;
        }
        while let Some(&(ev, mid)) = pending.iter().next() {
            pending.remove(&(ev, mid));
            if ev.ts < last_processed {
                let &(_, guard) = guards
                    .iter()
                    .find(|(ts, _)| *ts > ev.ts)
                    .expect("a processed guard outranks the straggler");
                ctx.deny(guard)?;
                unreachable!("self-deny always unwinds");
            }
            let guard = ctx.aid_init()?;
            guards.push((ev.ts, guard));
            guards.sort_unstable();
            if ctx.guess(guard)? {
                ctx.compute(cfg.service_time)?;
                ctx.output(format!("handled ts={} hops={}", ev.ts, ev.hops))?;
                last_processed = last_processed.max(ev.ts);
                if ev.ts <= cfg.horizon {
                    let r = ctx.random_u64()?;
                    let target = cfg.lps[(r % cfg.lps.len() as u64) as usize];
                    let delay = 1 + (r >> 32) % (2 * cfg.mean_delay.max(1));
                    let floor = last_sent.get(&target).map_or(0, |t| t + 1);
                    let ts = (ev.ts + delay).max(floor);
                    last_sent.insert(target, ts);
                    let hops = ev.hops + 1;
                    ctx.send(target, Event { ts, hops }.to_value())?;
                }
            } else {
                let pos = guards.iter().position(|(_, g)| *g == guard);
                guards.remove(pos.expect("guard was just pushed"));
                pending.insert((ev, mid));
                while let Some(m) = ctx.try_recv()? {
                    if let Some(e2) = Event::from_value(&m.payload) {
                        horizon.observe(m.from, e2.ts);
                        pending.insert((e2, m.id));
                    }
                }
            }
        }
    }
}

type LpBody = fn(&mut Ctx, &LpConfig) -> Hope<()>;

/// PHOLD on `n_lps` logical processes running `body`, mean increment
/// `mean_delay`, to model time `horizon` (what
/// `hope_timewarp::phold::run_phold_with` builds).
fn phold(cfg: SimConfig, n_lps: u32, mean_delay: u64, horizon: u64, body: LpBody) -> Simulation {
    let mut sim = Simulation::new(cfg);
    let lps: Vec<ProcessId> = (0..n_lps).map(ProcessId).collect();
    let lp = LpConfig::phold(lps, VirtualDuration::from_micros(100), mean_delay, horizon);
    for i in 0..n_lps {
        let lp = lp.clone();
        sim.spawn(format!("lp{i}"), move |ctx| body(ctx, &lp));
    }
    sim
}

/// The straggler scenario of `hope_timewarp`'s unit tests, a little longer:
/// one LP whose two commit channels are drivers, the slow one carrying the
/// oldest timestamp. (The topology that makes it slow is the caller's.)
fn straggler(cfg: SimConfig, body: LpBody) -> Simulation {
    let mut sim = Simulation::new(cfg);
    let lp = LpConfig {
        lps: vec![ProcessId(0)],
        senders: vec![ProcessId(1), ProcessId(2)],
        seed_jobs: 0,
        service_time: VirtualDuration::from_micros(100),
        mean_delay: 10,
        horizon: 0,
    };
    sim.spawn("lp0", move |ctx| body(ctx, &lp));
    for (name, stamps) in [
        ("driver-fast", vec![100, 200, 300]),
        ("driver-slow", vec![7, 150]),
    ] {
        sim.spawn(name, move |ctx| {
            for &ts in &stamps {
                ctx.send(ProcessId(0), Event { ts, hops: 0 }.to_value())?;
            }
            Ok(())
        });
    }
    sim
}

/// Snapshot transparency for the Time Warp LP, PR 16's pattern: `run_lp`
/// snapshots when its journal has grown by a state's worth, its twin
/// never, and the two must differ only in how much a restart replays —
/// same committed lines after the same events, virtual time, rollbacks,
/// restarts and guesses, over PHOLD at three widths with and without the
/// quiescence commit and a restoration hold, over a straggler between two
/// drivers, and over the whole schedule space of `hope_timewarp::scenario`.
#[test]
fn run_lp_snapshots_are_transparent() {
    let observe = |sim: Simulation| {
        let r = sim.run();
        assert!(r.errors().is_empty() && !r.hit_limits(), "{r}");
        let s = r.stats();
        let counts = (s.rollback_events, s.replays, s.engine.guesses);
        let cost = (s.memory.live_journal_entries, s.ctx_lock_acquisitions);
        ((r.committed(), r.events(), r.end_time(), counts), cost)
    };
    let (mut replays, mut snapshots, mut locks) = (0, 0, (0, 0));
    for (n_lps, horizon) in [(2, 150), (4, 100), (8, 60)] {
        for seed in 0..20 {
            for knobs in 0..4 {
                let mut cfg = SimConfig::with_seed(seed)
                    .with_topology(Topology::uniform(LatencyModel::Fixed(ms(1))));
                if knobs & 1 == 1 {
                    cfg = cfg.commit_at_quiescence();
                }
                if knobs & 2 == 2 {
                    cfg = cfg.with_rollback_overhead(ms(3));
                }
                let (with, (with_len, with_locks)) =
                    observe(phold(cfg.clone(), n_lps, 10, horizon, run_lp));
                let (without, (len, without_locks)) =
                    observe(phold(cfg, n_lps, 10, horizon, run_lp_uncheckpointed));
                assert_eq!(with, without, "{n_lps} LPs, seed {seed}, knobs {knobs}");
                replays += with.3 .1;
                // What the journals differ by: one `Restore` per LP and
                // the snapshots no rollback cut.
                snapshots += with_len - len - n_lps as u64;
                locks = (locks.0 + with_locks, locks.1 + without_locks);
            }
        }
    }
    assert!(replays > 500, "the sweep must roll back: {replays}");
    assert!(snapshots > 500, "… and take snapshots: {snapshots}");
    assert!(locks.0 < locks.1, "… that shorten its replays: {locks:?}");

    let mut topo = Topology::uniform(LatencyModel::Fixed(ms(1)));
    topo.set_link(2, 0, LatencyModel::Fixed(ms(50)));
    for seed in 0..5 {
        let cfg = SimConfig::with_seed(seed)
            .with_topology(topo.clone())
            .commit_at_quiescence();
        let (with, _) = observe(straggler(cfg.clone(), run_lp));
        assert_eq!(with, observe(straggler(cfg, run_lp_uncheckpointed)).0);
        assert!(with.3 .0 >= 1, "the straggler must roll the LP back");
        assert!(!with.0.outputs.is_empty(), "quiescence commits the rest");
    }

    // `hope_timewarp::scenario` is the two-LP PHOLD above, smaller.
    let cfg = SimConfig::with_seed(3)
        .with_topology(Topology::uniform(LatencyModel::Fixed(ms(1))))
        .commit_at_quiescence();
    let scenario = observe(hope_timewarp::scenario(cfg.clone()));
    assert_eq!(scenario, observe(phold(cfg.clone(), 2, 2, 4, run_lp)));
    let (twin, (twin_len, _)) = observe(phold(cfg.clone(), 2, 2, 4, run_lp_uncheckpointed));
    assert_eq!(scenario.0, twin);
    assert!(scenario.1 .0 > twin_len + 2, "small, but it snapshots");
    let tree = |scenario: &dyn Fn() -> Simulation| {
        let r = check_scenario(
            &SimMcConfig {
                max_schedules: 4096,
            },
            scenario,
        );
        let shape = (r.schedules, r.choice_points, r.max_depth);
        (r.outcomes, shape, r.completeness, r.limit_runs)
    };
    let with = tree(&|| hope_timewarp::scenario(cfg.clone()));
    assert_eq!(
        with,
        tree(&|| phold(cfg.clone(), 2, 2, 4, run_lp_uncheckpointed))
    );
    let (outcomes, (schedules, ..), completeness, limit_runs) = with;
    assert!(
        completeness.is_exhausted() && limit_runs == 0,
        "{schedules}"
    );
    assert!(outcomes.len() > 1 && schedules > 100, "{schedules}");
}

/// The fault-space knob lattice over `scenario` (a two-process one whose
/// bodies checkpoint): for every [`knob_lattice`] cell that `pick` selects, the cell's config
/// fault-free and under each seeded plan must commit what the plain
/// fault-free run commits. A cell proves that only if what it turns on
/// fired, so each asserts its own engagement: drops injected and
/// crash-restart exercised; records and journal prefixes reclaimed on
/// *every* run with collection on (replay-from-horizon under the kills
/// included); guesses held or converted under the plans with the governor
/// on — tuned so that drops and kills push sites into Throttled and
/// Conservative; events seen by every run's watched replay. (Invariant
/// checking has no counter: it panics.)
fn lattice(
    scenario: impl Fn(SimConfig) -> Simulation,
    pick: impl Fn(&str) -> bool,
    seeds: impl IntoIterator<Item = u64>,
) {
    let seeds: Vec<u64> = seeds.into_iter().collect();
    let gov = GovernorConfig::default()
        .with_window(8)
        .with_min_samples(2)
        .with_thresholds(200, 1200)
        .with_hold(ms(1));
    let mut cells = knob_lattice(&base_config(11), &gov);
    cells.retain(|(cell, _)| pick(cell));
    let mut variants = Vec::new();
    for (cell, cfg) in &cells {
        variants.push((format!("{cell} / fault-free"), cfg.clone()));
        variants.extend(under_plans(cell, cfg, 2, seeds.iter().copied()));
    }
    let runs = sweep(base_config(11), variants, scenario);
    for ((cell, cfg), runs) in cells.iter().zip(runs.chunks(1 + seeds.len())) {
        let faulty = &runs[1..];
        let injected = |counter| total(faulty, counter) > 0;
        assert!(
            injected(|f| f.drops) && injected(|f| f.kills) && injected(|f| f.restarts),
            "`{cell}` must inject drops and crash-restarts"
        );
        for r in runs {
            let mem = r.stats.memory;
            assert!(
                !cfg.fossil_collection
                    || mem.reclaimed_intervals > 0 && mem.reclaimed_journal_entries > 0,
                "`{}`: collection never engaged: {mem:?}",
                r.label
            );
            assert!(r.events > 0, "`{}`: the replay was not watched", r.label);
        }
        if cfg.governor.is_some() {
            let acted: u64 = faulty
                .iter()
                .map(|r| r.stats.governor.held + r.stats.governor.converted)
                .sum();
            assert!(acted > 0, "`{cell}`: the governor never held or converted");
        }
    }
}

const ALL_ON: &str = "fossil+governor+invariants";

/// Plans with a crash-restart under which the *ungoverned* loop stays under
/// ~500 events (17 is the hostile one: some 60 drops, 70 timeout denies).
/// Invariant checking walks every live record after every transition: with
/// collection and governor both off it is affordable only on these — the
/// 70-plan ranges hold plans that run to 12,000 events ungoverned.
const SHORT_PLANS: [u64; 6] = [9, 12, 17, 38, 69, 106];

/// Tier-1's slice of the lattice, fault-free and under plan 17. Invariant
/// checking costs ~8× the rest of a debug-build run, so tier-1 crosses the
/// other two knobs fully and adds it alone and all-on: 6 cells. All 8 run
/// under `--ignored` below and, fault-free over every schedule, in
/// `hope_runtime::mc`.
#[test]
fn knob_lattice_smoke() {
    let pick = |cell: &str| !cell.contains("invariants") || cell == "invariants" || cell == ALL_ON;
    lattice(checkpointed_loop_scenario, pick, [17]);
    lattice(long_recovery_scenario, pick, [17]);
}

/// The 70-plan cells (CI: `--release -- --ignored`): collection on/off ×
/// governor on/off with invariant checking off, and everything on at once,
/// over both 70-plan ranges (3000.. was the fossil sweep's, 4000.. the
/// governor sweep's).
fn is_70_plan_cell(cell: &str) -> bool {
    ["plain", "fossil", "governor", "fossil+governor", ALL_ON].contains(&cell)
}

#[test]
#[ignore = "minutes in debug; run in CI with --release -- --ignored"]
fn slow_knob_lattice_70_plans_from_3000() {
    lattice(checkpointed_loop_scenario, is_70_plan_cell, 3000..3070);
}

#[test]
#[ignore = "minutes in debug; run in CI with --release -- --ignored"]
fn slow_knob_lattice_70_plans_from_4000() {
    lattice(checkpointed_loop_scenario, is_70_plan_cell, 4000..4070);
}

/// All 8 cells, fault-free and under every short plan: each knob
/// *combination* under faults, invariants checked after every transition
/// in half of them.
#[test]
#[ignore = "minutes in debug; run in CI with --release -- --ignored"]
fn slow_knob_lattice_all_cells() {
    lattice(checkpointed_loop_scenario, |_| true, SHORT_PLANS);
    lattice(long_recovery_scenario, |_| true, SHORT_PLANS);
}

/// A quick deterministic smoke (also run by CI's chaos step): a handful of
/// hostile plans per scenario, and collection on/off under the same plans.
#[test]
fn chaos_smoke() {
    for (scenario, procs) in [
        (pipeline_scenario as fn(SimConfig) -> Simulation, 3u32),
        (recovery_scenario, 2),
        (replication_scenario, 3),
    ] {
        app_sweep(scenario, procs, 42..48);
    }
    lattice(
        checkpointed_loop_scenario,
        |cell| cell == "plain" || cell == "fossil",
        42..48,
    );
}

/// Randomized plans (rates and a kill schedule drawn straight from a
/// seeded stream rather than through `plan_for_seed`) preserve
/// committed-output equivalence on the recovery scenario.
#[test]
fn random_plans_preserve_recovery_outputs() {
    // FNV-1a of "chaos_equivalence::random_plans_preserve_recovery_outputs".
    let mut rng = SimRng::new(0xebf0_7ec7_9e11_36d8);
    for case in 0..24 {
        let seed = rng.range_u64(0, 10_000);
        let (drop, dupe) = (rng.next_f64() * 0.35, rng.next_f64() * 0.25);
        let victim = rng.range_u64(0, 2) as u32;
        let (at_step, downtime_ms) = (rng.range_u64(5, 60), rng.range_u64(1, 15));
        let plan = FaultPlan::new(seed).drop_rate(drop).dupe_rate(dupe);
        let plan = plan.kill(victim, at_step, Some(ms(downtime_ms)));
        let base = base_config(11);
        let variant = (
            "random plan".to_string(),
            base.clone().with_faults(plan.clone()),
        );
        let swept = std::panic::catch_unwind(|| sweep(base, [variant], recovery_scenario));
        assert!(swept.is_ok(), "case {case} failed under {plan:?}");
    }
}
