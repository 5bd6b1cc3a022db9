//! Determinism: every simulation — including its rollback cascades — is a
//! pure function of the program and the seed.
//!
//! Reproducibility is what makes the experiment tables meaningful and
//! rollback bugs debuggable; these tests pin it down across all the
//! moving parts (threads, channels, rollbacks, ghosts, randomness).

use hope::callstream::{serve_verified, stream_call};
use hope::runtime::{RunReport, SimConfig, Simulation, Value};
use hope::sim::{LatencyModel, Topology, VirtualDuration};
use hope::timewarp::phold::run_phold;
use hope::ProcessId;

fn ms(v: u64) -> VirtualDuration {
    VirtualDuration::from_millis(v)
}

fn busy_world(seed: u64) -> RunReport {
    // Random latencies, random denials, random payloads: if anything in
    // the runtime is schedule-dependent, this surfaces it.
    let topo = Topology::uniform(LatencyModel::Uniform {
        lo: ms(1),
        hi: ms(9),
    });
    let mut sim = Simulation::new(SimConfig::with_seed(seed).with_topology(topo));
    let server = ProcessId(2);
    for c in 0..2u32 {
        sim.spawn(format!("client{c}"), move |ctx| {
            let mut x: i64 = c as i64 + 1;
            for _ in 0..6 {
                let noise = (ctx.random_u64()? % 5) as i64;
                let predicted = x * 2 + noise - 2; // sometimes right
                let r = stream_call(ctx, server, Value::Int(x), Value::Int(predicted))?;
                x = r.expect_int() % 10_007;
                ctx.compute(VirtualDuration::from_micros(300))?;
            }
            ctx.output(format!("client{c} final={x}"))?;
            Ok(())
        });
    }
    sim.spawn("server", |ctx| {
        serve_verified(
            ctx,
            VirtualDuration::from_micros(80),
            |v| Value::Int(v.expect_int() * 2),
            |_| {},
        )
    });
    sim.run()
}

#[test]
fn identical_seeds_are_bit_identical() {
    for seed in [0, 1, 7, 123456789] {
        let (a, b) = (busy_world(seed), busy_world(seed));
        assert_eq!(a.fingerprint(), b.fingerprint(), "seed {seed} diverged");
    }
}

#[test]
fn different_seeds_differ_somewhere() {
    use std::collections::BTreeSet;
    let worlds: Vec<RunReport> = (0..4).map(busy_world).collect();
    let prints: BTreeSet<u64> = worlds.iter().map(RunReport::fingerprint).collect();
    assert!(
        prints.len() >= 2,
        "4 different seeds produced identical worlds — randomness is not wired through"
    );
    // The seed moves latencies, mispredictions and rollbacks — never what
    // the verified call streams finally commit.
    let committed: BTreeSet<_> = worlds.iter().map(RunReport::committed).collect();
    assert_eq!(committed.len(), 1, "{committed:?}");
}

#[test]
fn phold_timewarp_is_deterministic() {
    let run = || {
        let r = run_phold(
            6,
            Topology::lan(),
            VirtualDuration::from_micros(400),
            8,
            90,
            31,
        );
        (
            r.handled,
            r.rollbacks,
            r.report.end_time(),
            r.report.stats().ghosts_dropped,
        )
    };
    assert_eq!(run(), run());
}

#[test]
fn rollback_storms_are_reproducible() {
    // All predictions wrong: maximal rollback traffic, still a pure
    // function of the seed.
    let run = |seed| {
        let mut sim = Simulation::new(SimConfig::with_seed(seed));
        let server = ProcessId(1);
        sim.spawn("client", move |ctx| {
            let mut x: i64 = 1;
            for _ in 0..8 {
                let r = stream_call(ctx, server, Value::Int(x), Value::Int(i64::MIN))?;
                x = r.expect_int();
            }
            ctx.output(format!("final={x}"))?;
            Ok(())
        });
        sim.spawn("server", |ctx| {
            serve_verified(
                ctx,
                VirtualDuration::from_micros(50),
                |v| Value::Int(v.expect_int().wrapping_add(1)),
                |_| {},
            )
        });
        sim.run().fingerprint()
    };
    assert_eq!(run(5), run(5));
    assert_eq!(run(6), run(6));
}
