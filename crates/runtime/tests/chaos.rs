//! Chaos tests: arbitrary interleavings of every runtime facility.
//!
//! Each process runs a seeded random script of guesses, affirms, denies,
//! sends, receives and computes, with assumptions shared across processes
//! through message payloads. The scripts have no meaning — the point is
//! that no interleaving may crash a process body, wedge the scheduler,
//! corrupt the journal (a replay divergence crashes the process),
//! violate engine invariants, or break determinism.

use hope_core::AidId;
use hope_runtime::{Ctx, Hope, ProcessId, RunReport, SimConfig, Simulation, Value};
use hope_sim::{LatencyModel, SimRng, Topology, VirtualDuration};

const OPS_PER_PROC: u64 = 18;

/// One chaotic process: a deterministic random script driven by the
/// journaled RNG (so replays after rollback follow the same path).
fn chaos_body(ctx: &mut Ctx, n_procs: u32) -> Hope<()> {
    let me = ctx.pid();
    let mut my_aids: Vec<AidId> = Vec::new();
    let mut known: Vec<AidId> = Vec::new();
    for step in 0..OPS_PER_PROC {
        // Absorb anything queued; remember advertised AIDs.
        while let Some(m) = ctx.try_recv()? {
            if let Some(items) = m.payload.as_list() {
                if items.len() == 2 && items[0].as_str() == Some("aid") {
                    if let Some(v) = items[1].as_int() {
                        known.push(AidId::from_index(v as u64));
                    }
                }
            }
        }
        match ctx.random_u64()? % 10 {
            0..=2 => {
                // Fresh assumption: advertise, then guess it.
                let aid = ctx.aid_init()?;
                let target = ProcessId((ctx.random_u64()? % n_procs as u64) as u32);
                if target != me {
                    ctx.send(
                        target,
                        Value::List(vec![
                            Value::Str("aid".into()),
                            Value::Int(aid.index() as i64),
                        ]),
                    )?;
                }
                if ctx.guess(aid)? {
                    my_aids.push(aid);
                    ctx.output(format!("{me} step {step}: guessed {aid}"))?;
                }
            }
            3..=4 => {
                // Decide something we know about.
                let pool: Vec<AidId> = known.iter().chain(my_aids.iter()).copied().collect();
                if !pool.is_empty() {
                    let aid = pool[(ctx.random_u64()? % pool.len() as u64) as usize];
                    if ctx.chance(0.7)? {
                        ctx.affirm(aid)?;
                    } else {
                        ctx.deny(aid)?;
                    }
                }
            }
            5 => {
                let pool: Vec<AidId> = known.clone();
                if !pool.is_empty() {
                    let aid = pool[(ctx.random_u64()? % pool.len() as u64) as usize];
                    ctx.free_of(aid)?;
                }
            }
            6..=7 => {
                // Plain chatter (tagged with whatever we depend on).
                let target = ProcessId((ctx.random_u64()? % n_procs as u64) as u32);
                ctx.send(target, Value::Int(step as i64))?;
            }
            _ => {
                let micros = 50 + ctx.random_u64()? % 500;
                ctx.compute(VirtualDuration::from_micros(micros))?;
            }
        }
    }
    ctx.output(format!("{me} done"))?;
    Ok(())
}

fn run_chaos(seed: u64, n_procs: u32, commit: bool) -> RunReport {
    let mut rng = SimRng::new(seed);
    let topo = Topology::uniform(LatencyModel::Uniform {
        lo: VirtualDuration::from_micros(100 + rng.next_u64() % 500),
        hi: VirtualDuration::from_millis(2 + rng.next_u64() % 5),
    });
    let mut cfg = SimConfig::with_seed(seed).with_topology(topo);
    if commit {
        cfg = cfg.commit_at_quiescence();
    }
    let mut sim = Simulation::new(cfg);
    for i in 0..n_procs {
        sim.spawn(format!("chaos{i}"), move |ctx| chaos_body(ctx, n_procs));
    }
    sim.run()
}

#[test]
fn chaos_never_crashes_or_wedges() {
    for seed in 0..12 {
        let report = run_chaos(seed, 4, false);
        assert!(
            report.errors().is_empty(),
            "seed {seed}: {:?}",
            report.errors()
        );
        assert!(!report.hit_limits(), "seed {seed} ran away: {report}");
    }
}

#[test]
fn chaos_is_deterministic() {
    for seed in [3, 17, 99] {
        let (a, b) = (run_chaos(seed, 3, false), run_chaos(seed, 3, false));
        assert_eq!(a.fingerprint(), b.fingerprint(), "seed {seed}");
    }
}

#[test]
fn chaos_with_commit_oracle_settles_everything() {
    for seed in 0..8 {
        let report = run_chaos(seed, 3, true);
        assert!(
            report.errors().is_empty(),
            "seed {seed}: {:?}",
            report.errors()
        );
        assert!(!report.hit_limits(), "seed {seed}: {report}");
        // With the oracle, every process's "done" line must commit
        // (whatever speculative residue remained was settled).
        let lines = report.output_lines();
        for p in 0..3 {
            assert!(
                lines.iter().any(|l| *l == format!("P{p} done")),
                "seed {seed}: P{p}'s completion never committed: {lines:?}"
            );
        }
    }
}

#[test]
fn chaos_scales_to_more_processes() {
    let report = run_chaos(42, 8, true);
    assert!(report.errors().is_empty(), "{:?}", report.errors());
    assert!(!report.hit_limits());
    assert!(report.stats().messages_sent > 0);
}
