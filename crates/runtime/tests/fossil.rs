//! Fossil collection: bounded memory on open-loop runs, truncation-safe
//! crash recovery, and the typed journal-overflow crash.
//!
//! The engine's commit horizon (GVT analogue) finalizes a growing prefix
//! of every process's history; with
//! [`SimConfig::with_fossil_collection`] the scheduler periodically
//! reclaims everything at or below it — engine interval/AID records and,
//! for bodies using the [`Ctx::restore`]/[`Ctx::checkpoint`] protocol,
//! journal prefixes. Collection must be *transparent*: committed outputs
//! and fault statistics are bit-identical with collection on or off.

use hope_core::AidId;
use hope_runtime::{
    Committed, FaultStats, ProcessId, RunReport, SimConfig, Simulation, Value, VirtualTime,
};
use hope_sim::{FaultPlan, LatencyModel, Topology, VirtualDuration};

fn us(v: u64) -> VirtualDuration {
    VirtualDuration::from_micros(v)
}

/// The open-loop pair: a guesser that checkpoints at every iteration and
/// a definite verifier that affirms each announced assumption. The
/// affirm stream keeps the commit horizon trailing a small constant
/// distance behind the guesser, so live state is O(window), not O(iters).
fn open_loop(cfg: SimConfig, iters: i64) -> Simulation {
    let mut sim = Simulation::new(cfg);
    let verifier = ProcessId(1);
    sim.spawn("guesser", move |ctx| {
        let mut i = match ctx.restore()? {
            Some(v) => v.expect_int(),
            None => 0,
        };
        while i < iters {
            ctx.checkpoint(Value::Int(i))?;
            let aid = ctx.aid_init()?;
            ctx.send(verifier, Value::Int(aid.index() as i64))?;
            let _ = ctx.guess(aid)?;
            ctx.compute(us(100))?;
            i += 1;
        }
        ctx.output(format!("guessed {iters}"))?;
        Ok(())
    });
    sim.spawn("verifier", move |ctx| {
        let mut seen = match ctx.restore()? {
            Some(v) => v.expect_int(),
            None => 0,
        };
        while seen < iters {
            ctx.checkpoint(Value::Int(seen))?;
            let m = ctx.recv()?;
            ctx.affirm(AidId::from_index(m.payload.expect_int() as u64))?;
            seen += 1;
        }
        ctx.output(format!("affirmed {iters}"))?;
        Ok(())
    });
    sim
}

fn fast_lan(seed: u64) -> SimConfig {
    SimConfig::with_seed(seed).with_topology(Topology::uniform(LatencyModel::Fixed(us(50))))
}

/// Everything the oracle compares across collection on/off: collection
/// is transparent to more than what commits, so on top of `committed()`
/// this holds the rollback, replay, ghost and fault counters and the end
/// time equal. Memory counters are deliberately excluded — they are the
/// one thing collection is *supposed* to change.
fn visible_outcome(r: &RunReport) -> (Committed, u64, u64, u64, FaultStats, VirtualTime) {
    let s = r.stats();
    (
        r.committed(),
        s.rollback_events,
        s.replays,
        s.ghosts_dropped,
        s.faults,
        r.end_time(),
    )
}

#[test]
fn open_loop_memory_is_bounded_by_the_horizon() {
    const ITERS: i64 = 5000;
    let report = open_loop(fast_lan(7).with_fossil_collection(true), ITERS).run();
    assert!(report.completed(), "{report}");
    let mem = report.stats().memory;
    // The horizon swept past (almost) the whole run…
    assert!(
        mem.reclaimed_intervals > (ITERS as u64) / 2,
        "horizon never advanced: {mem:?}"
    );
    assert!(mem.reclaimed_aids > (ITERS as u64) / 2, "{mem:?}");
    assert!(mem.reclaimed_journal_entries > (ITERS as u64), "{mem:?}");
    assert!(mem.interval_horizon > 0 && mem.aid_horizon > 0, "{mem:?}");
    // …leaving live state bounded by the speculation window plus one sweep
    // period, independent of ITERS.
    assert!(
        mem.live_intervals < 2048,
        "live intervals not bounded: {mem:?}"
    );
    assert!(mem.live_aids < 2048, "{mem:?}");
    assert!(
        mem.live_journal_entries < 8192,
        "journal prefixes not reclaimed: {mem:?}"
    );
    // Nothing here was denied, so no denied-fossil residue accumulates.
    assert_eq!(mem.fossil_denied, 0, "{mem:?}");
}

#[test]
fn collection_is_transparent_on_the_fault_free_run() {
    const ITERS: i64 = 800;
    let on = open_loop(fast_lan(11).with_fossil_collection(true), ITERS).run();
    let off = open_loop(fast_lan(11), ITERS).run();
    assert!(on.completed() && off.completed(), "{on}\n{off}");
    assert_eq!(visible_outcome(&on), visible_outcome(&off));
    // The off run kept everything; the on run reclaimed most of it.
    assert_eq!(off.stats().memory.reclaimed_intervals, 0);
    assert!(on.stats().memory.reclaimed_intervals > 0);
    assert!(on.stats().memory.live_intervals < off.stats().memory.live_intervals);
}

#[test]
fn checkpointing_body_survives_a_journal_limit_that_kills_the_naive_one() {
    const ITERS: i64 = 2000;
    // ~5 journal entries per iteration: far past 512 total, comfortably
    // under 512 live once prefixes are reclaimed.
    let cfg = || fast_lan(3).with_max_journal_entries(512);
    let with = open_loop(cfg().with_fossil_collection(true), ITERS).run();
    assert!(with.completed(), "{with}");
    assert!(with.stats().memory.reclaimed_journal_entries > 0);

    let without = open_loop(cfg(), ITERS).run();
    assert!(!without.completed());
    assert!(
        without
            .crash_reasons()
            .values()
            .any(|r| matches!(r, hope_runtime::CrashReason::JournalOverflow { limit: 512 })),
        "{:?}",
        without.crash_reasons()
    );
}

#[test]
fn journal_overflow_is_a_typed_recoverable_error() {
    let mut sim = Simulation::new(SimConfig::with_seed(1).with_max_journal_entries(64));
    let p = sim.spawn("spinner", |ctx| loop {
        ctx.compute(us(10))?;
    });
    sim.spawn("bystander", |ctx| {
        ctx.compute(us(5))?;
        ctx.output("bystander fine")?;
        Ok(())
    });
    let report = sim.run();
    assert!(!report.completed());
    assert_eq!(
        report.crash_reasons().get(&p),
        Some(&hope_runtime::CrashReason::JournalOverflow { limit: 64 })
    );
    assert_eq!(
        report.errors().get(&p).map(String::as_str),
        Some("journal grew past 64 live entries")
    );
    // The overflow is contained: the other process still committed.
    assert_eq!(report.output_lines(), vec!["bystander fine"]);
    assert!(
        !report.hit_limits(),
        "overflow must not be an event-cap spin"
    );
}

#[test]
fn crash_restart_replays_from_the_horizon_snapshot() {
    const ITERS: i64 = 600;
    // Kill the guesser mid-run (restarting after a delay), with enough
    // iterations behind the kill that collection has certainly truncated
    // its journal prefix — recovery must resume from the snapshot.
    let plan = || FaultPlan::new(5).kill(0, 1200, Some(VirtualDuration::from_millis(2)));
    let faulty_on = open_loop(
        fast_lan(13)
            .with_fossil_collection(true)
            .with_faults(plan()),
        ITERS,
    )
    .run();
    let faulty_off = open_loop(fast_lan(13).with_faults(plan()), ITERS).run();
    let clean = open_loop(fast_lan(13), ITERS).run();
    assert!(faulty_on.completed(), "{faulty_on}");
    assert!(faulty_on.stats().faults.kills == 1 && faulty_on.stats().faults.restarts == 1);
    // Same faults, same visible outcome, with and without collection…
    assert_eq!(visible_outcome(&faulty_on), visible_outcome(&faulty_off));
    // …and the committed lines match the fault-free run (the chaos
    // equivalence property, now compatible with truncated journals).
    assert_eq!(faulty_on.committed(), clean.committed());
    // The restart actually exercised the truncated-prefix path.
    assert!(
        faulty_on.stats().memory.reclaimed_journal_entries > 0,
        "{:?}",
        faulty_on.stats().memory
    );
}

#[test]
fn determinism_holds_with_collection_enabled() {
    let fp = |seed| {
        open_loop(fast_lan(seed).with_fossil_collection(true), 400)
            .run()
            .fingerprint()
    };
    for seed in [2, 9, 21] {
        assert_eq!(fp(seed), fp(seed), "seed {seed}");
    }
}
