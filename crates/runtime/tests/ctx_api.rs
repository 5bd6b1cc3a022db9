//! Integration tests for the full `Ctx` API surface, including the parts
//! the in-crate scenario tests don't reach: non-blocking receives,
//! selective receives, journaled queries, and replay behaviour of each —
//! plus the hot-path lock discipline: one `Shared` lock per live primitive.

use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Mutex};

use hope_core::AidId;
use hope_runtime::{
    CrashReason, FaultPlan, MsgKind, ProcessId, RunReport, SimConfig, Simulation, Value,
};
use hope_sim::{LatencyModel, Topology, VirtualDuration, VirtualTime};

fn ms(v: u64) -> VirtualDuration {
    VirtualDuration::from_millis(v)
}

/// Run `sim` watched: the report, and every event as its trace line.
fn run_traced(mut sim: Simulation) -> (RunReport, Vec<String>) {
    let lines = Arc::new(Mutex::new(Vec::new()));
    let sink = lines.clone();
    sim.set_observer(move |t, event| sink.lock().unwrap().push(format!("[{t}] {event}")));
    let report = sim.run();
    let trace = std::mem::take(&mut *lines.lock().unwrap());
    (report, trace)
}

#[test]
fn try_recv_returns_none_when_empty_and_some_when_queued() {
    let mut sim = Simulation::new(SimConfig::default());
    let receiver = ProcessId(0);
    sim.spawn("receiver", |ctx| {
        // Nothing queued yet.
        assert!(ctx.try_recv()?.is_none());
        // Wait long enough for the sender's message.
        ctx.compute(ms(10))?;
        let m = ctx.try_recv()?.expect("message queued by now");
        assert_eq!(m.payload, Value::Int(5));
        assert!(ctx.try_recv()?.is_none());
        ctx.output("try_recv exercised")?;
        Ok(())
    });
    sim.spawn("sender", move |ctx| {
        ctx.send(receiver, Value::Int(5))?;
        Ok(())
    });
    let (report, trace) = run_traced(sim);
    assert!(report.completed(), "{report}");
    assert_eq!(report.output_lines(), vec!["try_recv exercised"]);
    // One trace line per primitive call: a successful `try_recv` is a `recv`.
    let recvs = |t: &&String| t.contains("P0: recv m") && t.contains("from P1");
    assert_eq!(trace.iter().filter(recvs).count(), 1);
}

#[test]
fn recv_matching_leaves_non_matching_messages() {
    let mut sim = Simulation::new(SimConfig::default());
    let receiver = ProcessId(0);
    sim.spawn("receiver", |ctx| {
        // Take the Int(2) first even though Int(1) arrives earlier.
        let two = ctx.recv_matching(|m| m.payload == Value::Int(2))?;
        assert_eq!(two.payload, Value::Int(2));
        let one = ctx.recv()?;
        assert_eq!(one.payload, Value::Int(1));
        ctx.output("selective receive ok")?;
        Ok(())
    });
    sim.spawn("sender", move |ctx| {
        ctx.send(receiver, Value::Int(1))?;
        ctx.compute(ms(1))?;
        ctx.send(receiver, Value::Int(2))?;
        Ok(())
    });
    let report = sim.run();
    assert!(report.completed(), "{report}");
    assert_eq!(report.output_lines(), vec!["selective receive ok"]);
}

#[test]
fn try_recv_matching_is_selective_and_non_blocking() {
    let mut sim = Simulation::new(SimConfig::default());
    let receiver = ProcessId(0);
    sim.spawn("receiver", |ctx| {
        ctx.compute(ms(5))?;
        // Both queued; only the matching one is taken.
        assert!(ctx
            .try_recv_matching(|m| m.payload == Value::Int(9))?
            .is_none());
        let m = ctx
            .try_recv_matching(|m| m.payload == Value::Int(2))?
            .expect("two is queued");
        assert_eq!(m.payload, Value::Int(2));
        // Int(1) still queued.
        assert_eq!(ctx.recv()?.payload, Value::Int(1));
        Ok(())
    });
    sim.spawn("sender", move |ctx| {
        ctx.send(receiver, Value::Int(1))?;
        ctx.send(receiver, Value::Int(2))?;
        Ok(())
    });
    assert!(sim.run().completed());
}

#[test]
fn now_random_and_flags_replay_identically() {
    // A process samples time/randomness/speculation state, then is rolled
    // back; the replayed prefix must return identical values (summed into
    // the committed output).
    let mut sim = Simulation::new(SimConfig::with_seed(8));
    let verifier = ProcessId(1);
    sim.spawn("worker", move |ctx| {
        let t0: VirtualTime = ctx.now()?;
        let r0 = ctx.random_u64()?;
        let spec0 = ctx.is_speculative()?;
        assert!(!spec0);
        ctx.compute(ms(2))?;
        let t1 = ctx.now()?;
        assert!(t1 > t0);
        let aid = ctx.aid_init()?;
        ctx.send(verifier, Value::Int(aid.index() as i64))?;
        let flag = ctx.guess(aid)?;
        let spec1 = ctx.is_speculative()?;
        if flag {
            assert!(spec1);
            ctx.compute(ms(1))?;
        }
        // After the deny, this line re-executes with the *same* t0/r0 via
        // replay; committing it pins the values.
        ctx.output(format!("t0={} r0={} flag={flag}", t0.as_nanos(), r0 % 1000))?;
        Ok(())
    });
    sim.spawn("verifier", |ctx| {
        let m = ctx.recv()?;
        let aid = AidId::from_index(m.payload.expect_int() as u64);
        ctx.compute(ms(1))?;
        ctx.deny(aid)?;
        Ok(())
    });
    let report = sim.run();
    assert!(report.completed(), "{report}");
    assert_eq!(report.stats().replays, 1);
    let line = report.output_lines()[0].to_string();
    assert!(line.contains("t0=0 "), "{line}");
    assert!(line.ends_with("flag=false"), "{line}");

    // Re-run the identical world: the committed line is bit-identical,
    // proving now()/random_u64() replay rather than re-sample.
    let mut sim2 = Simulation::new(SimConfig::with_seed(8));
    sim2.spawn("worker", move |ctx| {
        let t0: VirtualTime = ctx.now()?;
        let r0 = ctx.random_u64()?;
        let _ = ctx.is_speculative()?;
        ctx.compute(ms(2))?;
        let _ = ctx.now()?;
        let aid = ctx.aid_init()?;
        ctx.send(verifier, Value::Int(aid.index() as i64))?;
        let flag = ctx.guess(aid)?;
        let _ = ctx.is_speculative()?;
        if flag {
            ctx.compute(ms(1))?;
        }
        ctx.output(format!("t0={} r0={} flag={flag}", t0.as_nanos(), r0 % 1000))?;
        Ok(())
    });
    sim2.spawn("verifier", |ctx| {
        let m = ctx.recv()?;
        let aid = AidId::from_index(m.payload.expect_int() as u64);
        ctx.compute(ms(1))?;
        ctx.deny(aid)?;
        Ok(())
    });
    let report2 = sim2.run();
    assert_eq!(report2.output_lines()[0], line);
}

/// A body that is not deterministic given `Ctx` results reads the clock on
/// its first attempt and draws randomness on the re-execution the judge's
/// deny forces. Replay meets the recorded `now` where the body issues
/// `rand`: the process crashes with a typed divergence whose text is the
/// one the runtime has always reported, and the run goes on without it.
#[test]
fn replay_divergence_is_a_typed_crash() {
    let judge = ProcessId(1);
    let first = Arc::new(AtomicBool::new(true));
    let mut sim = Simulation::new(SimConfig::with_seed(3));
    let p0 = sim.spawn("diverger", move |ctx| {
        let x = ctx.aid_init()?;
        ctx.send(judge, Value::Int(x.index() as i64))?;
        if first.swap(false, Ordering::SeqCst) {
            ctx.now()?;
        } else {
            ctx.random_u64()?;
        }
        ctx.guess(x)?;
        Ok(())
    });
    sim.spawn("judge", |ctx| {
        let x = AidId::from_index(ctx.recv()?.payload.expect_int() as u64);
        ctx.deny(x)?;
        Ok(())
    });
    let report = sim.run();
    assert_eq!(
        report.crash_reasons()[&p0],
        CrashReason::ReplayDivergence {
            pid: p0,
            primitive: "rand",
            recorded: "now",
            at: 2,
        }
    );
    assert_eq!(
        report.errors()[&p0],
        "replay divergence in P0: body issued `rand` but the journal recorded `now` \
         at position 2 — process bodies must be deterministic given Ctx results"
    );
    assert_eq!(report.errors().len(), 1, "{report}");
    assert!(report.finish_time(judge).is_some(), "{report}");
}

#[test]
fn chance_is_journaled_through_rollback() {
    let mut sim = Simulation::new(SimConfig::with_seed(21));
    let verifier = ProcessId(1);
    sim.spawn("worker", move |ctx| {
        let draws: Vec<bool> = (0..8).map(|_| ctx.chance(0.5)).collect::<Result<_, _>>()?;
        let aid = ctx.aid_init()?;
        ctx.send(verifier, Value::Int(aid.index() as i64))?;
        let _ = ctx.guess(aid)?;
        // Re-draw after the guess: these journal entries are truncated by
        // the rollback and re-drawn live, while `draws` replays.
        let post: Vec<bool> = (0..4).map(|_| ctx.chance(0.5)).collect::<Result<_, _>>()?;
        ctx.output(format!("pre={draws:?} post={post:?}"))?;
        Ok(())
    });
    sim.spawn("verifier", |ctx| {
        let m = ctx.recv()?;
        let aid = AidId::from_index(m.payload.expect_int() as u64);
        ctx.compute(ms(1))?;
        ctx.deny(aid)?;
        Ok(())
    });
    let report = sim.run();
    assert!(report.completed(), "{report}");
    // One committed line; the prefix draws survived the rollback.
    assert_eq!(report.outputs().len(), 1);
    assert_eq!(report.stats().replays, 1);
}

#[test]
fn rpc_roundtrips_values_and_kinds() {
    let mut sim = Simulation::new(SimConfig::default());
    let server = ProcessId(1);
    sim.spawn("client", move |ctx| {
        let r = ctx.rpc(server, Value::Str("ping".into()))?;
        assert_eq!(r, Value::Str("pong".into()));
        // send_request without collecting the reply is also legal.
        let call = ctx.send_request(server, Value::Str("ping".into()))?;
        let m = ctx.recv_matching(move |m| m.is_reply_to(call))?;
        assert_eq!(m.kind, MsgKind::Reply(call));
        ctx.output("rpc ok")?;
        Ok(())
    });
    sim.spawn("server", |ctx| {
        for _ in 0..2 {
            let req = ctx.recv()?;
            assert!(matches!(req.kind, MsgKind::Request(_)));
            ctx.reply(&req, Value::Str("pong".into()))?;
        }
        Ok(())
    });
    let report = sim.run();
    assert!(report.completed(), "{report}");
    assert_eq!(report.output_lines(), vec!["rpc ok"]);
}

#[test]
fn replaying_flag_is_visible_only_during_replay() {
    let mut sim = Simulation::new(SimConfig::default());
    let verifier = ProcessId(1);
    sim.spawn("worker", move |ctx| {
        // On the first run this is live; after rollback it replays.
        let was_replaying_at_start = ctx.replaying();
        ctx.compute(ms(1))?;
        let aid = ctx.aid_init()?;
        ctx.send(verifier, Value::Int(aid.index() as i64))?;
        if ctx.guess(aid)? {
            ctx.compute(ms(1))?;
        } else {
            // Live again by the time the re-executed guess returns.
            assert!(!ctx.replaying());
            ctx.output(format!("started replaying={was_replaying_at_start}"))?;
        }
        Ok(())
    });
    sim.spawn("verifier", |ctx| {
        let m = ctx.recv()?;
        let aid = AidId::from_index(m.payload.expect_int() as u64);
        ctx.compute(ms(2))?;
        ctx.deny(aid)?;
        Ok(())
    });
    let report = sim.run();
    assert!(report.completed(), "{report}");
    assert_eq!(report.output_lines(), vec!["started replaying=true"]);
}

#[test]
fn self_send_is_delivered_immediately() {
    let mut sim = Simulation::new(
        SimConfig::default().with_topology(Topology::uniform(LatencyModel::Fixed(ms(50)))),
    );
    let me = ProcessId(0);
    sim.spawn("loner", move |ctx| {
        ctx.send(me, Value::Int(7))?;
        let m = ctx.recv()?;
        assert_eq!(m.payload, Value::Int(7));
        assert_eq!(m.from, me);
        // Self-sends bypass the 50ms links.
        assert_eq!(ctx.now()?, VirtualTime::ZERO);
        ctx.output("self-send ok")?;
        Ok(())
    });
    let report = sim.run();
    assert!(report.completed(), "{report}");
}

#[test]
fn pid_matches_spawn_order() {
    let mut sim = Simulation::new(SimConfig::default());
    let a = sim.spawn("a", |ctx| {
        assert_eq!(ctx.pid(), ProcessId(0));
        Ok(())
    });
    let b = sim.spawn("b", |ctx| {
        assert_eq!(ctx.pid(), ProcessId(1));
        Ok(())
    });
    assert_eq!((a, b), (ProcessId(0), ProcessId(1)));
    assert_eq!(sim.process_count(), 2);
    assert!(sim.run().completed());
}

#[test]
fn deep_nested_speculation_unwinds_to_the_right_guess() {
    // Five nested guesses; deny the middle one: the process re-executes
    // from guess 3 with the outer two intact.
    let mut sim = Simulation::new(SimConfig::with_seed(2));
    let judge = ProcessId(1);
    sim.spawn("nester", move |ctx| {
        let mut flags = Vec::new();
        for i in 0..5 {
            let aid = ctx.aid_init()?;
            // Ship every AID to the (definite) judge *before* guessing, so
            // the judge can settle them without becoming speculative.
            ctx.send(
                judge,
                Value::List(vec![Value::Int(i), Value::Int(aid.index() as i64)]),
            )?;
            flags.push(ctx.guess(aid)?);
            ctx.compute(ms(1))?;
        }
        ctx.output(format!("flags={flags:?}"))?;
        Ok(())
    });
    sim.spawn("judge", |ctx| {
        // Collect all five AIDs first (their tags carry the nester's
        // earlier guards, but FIFO + the final settle order keeps us
        // definite for the deny: process them after a delay, denying #2
        // first, then affirming the rest).
        let mut aids = vec![None; 5];
        let mut seen = 0;
        while seen < 5 {
            let m = ctx.recv()?;
            let items = m.payload.expect_list();
            let i = items[0].expect_int() as usize;
            aids[i] = Some(AidId::from_index(items[1].expect_int() as u64));
            seen += 1;
        }
        ctx.compute(ms(10))?;
        ctx.deny(aids[2].unwrap())?;
        for (i, aid) in aids.into_iter().enumerate() {
            if i != 2 {
                ctx.affirm(aid.unwrap())?;
            }
        }
        Ok(())
    });
    let report = sim.run();
    assert!(report.errors().is_empty(), "{report}");
    assert_eq!(
        report.output_lines(),
        vec!["flags=[true, true, false, true, true]"],
        "{report}"
    );
    // Both the nester and the judge (which was speculative through the
    // announcement tags when it issued the self-denying deny) re-execute.
    assert_eq!(report.stats().replays, 2);
}

#[test]
fn trace_records_the_full_story() {
    let mut sim = Simulation::new(SimConfig::with_seed(3));
    let verifier = ProcessId(1);
    sim.spawn("worker", move |ctx| {
        let aid = ctx.aid_init()?;
        ctx.send(verifier, Value::Int(aid.index() as i64))?;
        if ctx.guess(aid)? {
            ctx.output("optimistic")?;
        } else {
            ctx.output("pessimistic")?;
        }
        Ok(())
    });
    sim.spawn("verifier", |ctx| {
        let m = ctx.recv()?;
        let aid = AidId::from_index(m.payload.expect_int() as u64);
        ctx.compute(ms(1))?;
        ctx.deny(aid)?;
        Ok(())
    });
    let (report, trace) = run_traced(sim);
    assert!(report.completed(), "{report}");
    let trace = trace.join("\n");
    for needle in [
        "guess(X0) -> true",
        "deny(X0)",
        "ROLLBACK",
        "guess(X0) -> false",
        "send m0 -> P1",
        "deliver m0 P0 -> P1",
        "recv m0 from P0",
    ] {
        assert!(
            trace.contains(needle),
            "missing {needle:?} in trace:\n{trace}"
        );
    }

    // Affirmed scenario: the speculative output's commit is traced.
    let mut sim = Simulation::new(SimConfig::with_seed(3));
    sim.spawn("worker", move |ctx| {
        let aid = ctx.aid_init()?;
        ctx.send(verifier, Value::Int(aid.index() as i64))?;
        if ctx.guess(aid)? {
            ctx.output("optimistic")?;
        }
        Ok(())
    });
    sim.spawn("verifier", |ctx| {
        let m = ctx.recv()?;
        let aid = AidId::from_index(m.payload.expect_int() as u64);
        ctx.compute(ms(1))?;
        ctx.affirm(aid)?;
        Ok(())
    });
    let (_, trace) = run_traced(sim);
    let trace = trace.join("\n");
    for needle in ["affirm(X0)", "finalized", "1 output line(s) committed"] {
        assert!(
            trace.contains(needle),
            "missing {needle:?} in trace:\n{trace}"
        );
    }
}

#[test]
fn quiescence_oracle_commits_surviving_speculation() {
    // Nobody ever affirms: the worker's output stays buffered forever…
    let build = |commit: bool| {
        let cfg = if commit {
            SimConfig::with_seed(4).commit_at_quiescence()
        } else {
            SimConfig::with_seed(4)
        };
        let mut sim = Simulation::new(cfg);
        sim.spawn("worker", |ctx| {
            let aid = ctx.aid_init()?;
            if ctx.guess(aid)? {
                ctx.output("speculative forever")?;
            }
            Ok(())
        });
        sim.run()
    };
    let plain = build(false);
    assert!(plain.outputs().is_empty(), "{plain}");
    assert_eq!(plain.stats().engine.finalized, 0);

    // …unless the definite external observer settles it at quiescence.
    let committed = build(true);
    assert_eq!(committed.output_lines(), vec!["speculative forever"]);
    assert!(committed.stats().engine.finalized >= 1);
    assert_eq!(committed.stats().rollback_events, 0);
}

#[test]
fn quiescence_oracle_applies_pending_speculative_denies() {
    // A speculative deny pends on its issuer finalizing; the oracle's
    // affirms finalize the issuer, the deny fires, and the victim rolls
    // back — all *after* apparent quiescence.
    let build = |commit: bool| {
        let cfg = if commit {
            SimConfig::with_seed(4).commit_at_quiescence()
        } else {
            SimConfig::with_seed(4)
        };
        let mut sim = Simulation::new(cfg);
        let denier = ProcessId(1);
        sim.spawn("victim", move |ctx| {
            let x = ctx.aid_init()?;
            ctx.send(denier, Value::Int(x.index() as i64))?;
            if ctx.guess(x)? {
                ctx.output("victim: optimistic")?;
            } else {
                ctx.output("victim: denied after quiescence")?;
            }
            Ok(())
        });
        sim.spawn("denier", |ctx| {
            let m = ctx.recv()?;
            let x = AidId::from_index(m.payload.expect_int() as u64);
            let y = ctx.aid_init()?;
            // Become speculative on our own assumption, then deny x:
            // speculative (x is not among our dependencies).
            let _ = ctx.guess(y)?;
            ctx.deny(x)?;
            Ok(())
        });
        sim.run()
    };
    let plain = build(false);
    assert!(plain.outputs().is_empty(), "{plain}");

    let committed = build(true);
    assert_eq!(
        committed.output_lines(),
        vec!["victim: denied after quiescence"],
        "{committed}"
    );
    assert!(committed.stats().rollback_events >= 1);
}

/// A second deny can land while the victim is still parked charging
/// [`SimConfig::rollback_overhead`] for the first: the deeper truncation
/// invalidates the replay length captured for the first re-execution, so
/// the wrapper must restart its restart. Regression for a crash
/// ("replay cursor within journal") under storms of closely spaced
/// denies with a nonzero restoration charge.
#[test]
fn second_rollback_during_restoration_hold_replays_cleanly() {
    let mut sim = Simulation::new(
        SimConfig::with_seed(5)
            .with_topology(Topology::uniform(LatencyModel::Fixed(ms(2))))
            .with_rollback_overhead(ms(10)),
    );
    let verifier = ProcessId(1);
    sim.spawn("guesser", move |ctx| {
        let outer = ctx.aid_init()?;
        ctx.send(verifier, Value::Int(outer.index() as i64))?;
        let a = ctx.guess(outer)?;
        let inner = ctx.aid_init()?;
        ctx.send(verifier, Value::Int(inner.index() as i64))?;
        let b = ctx.guess(inner)?;
        ctx.output(format!("outer={a} inner={b}"))?;
        Ok(())
    });
    sim.spawn("verifier", move |ctx| {
        let outer = AidId::from_index(ctx.recv()?.payload.expect_int() as u64);
        let inner = AidId::from_index(ctx.recv()?.payload.expect_int() as u64);
        // Deny the inner guess first; while the guesser holds for the
        // 10ms restoration charge, deny the outer one 2ms later —
        // truncating the journal below the first rollback's checkpoint.
        ctx.deny(inner)?;
        ctx.compute(ms(2))?;
        ctx.deny(outer)?;
        Ok(())
    });
    let report = sim.run();
    assert!(report.errors().is_empty(), "{report}");
    assert_eq!(report.output_lines(), vec!["outer=false inner=false"]);
    assert!(report.stats().rollback_events >= 2, "{report}");
    assert!(report.stats().replays >= 2, "{report}");
}

// ---------------------------------------------------------------------
// Ctx hot-path lock discipline (pinned)
// ---------------------------------------------------------------------

/// Every live primitive takes the `Shared` lock exactly once. The body
/// below issues `restore`, then 10 × 50 = 500 non-blocking primitives —
/// every one that does not park — and nothing else; the pre-audit hot path
/// (budget check and primitive each locking separately) would report
/// ≥ 1,000 acquisitions, so the 550 ceiling pins the fix.
#[test]
fn ctx_takes_one_lock_per_live_primitive() {
    let sink = ProcessId(1);
    let mut sim = Simulation::new(SimConfig::with_seed(1));
    sim.spawn("counter", move |ctx| {
        ctx.restore()?;
        for i in 0..50 {
            ctx.checkpoint(i)?;
            let aid = ctx.aid_init()?;
            ctx.guess(aid)?;
            ctx.affirm(aid)?;
            ctx.output("line")?;
            ctx.send(sink, Value::Int(i))?;
            ctx.now()?;
            ctx.random_u64()?;
            ctx.is_speculative()?;
            assert!(ctx.try_recv()?.is_none(), "nothing is ever sent here");
        }
        Ok(())
    });
    sim.spawn("sink", |_| Ok(()));
    let report = sim.run();
    assert!(report.errors().is_empty(), "{:?}", report.errors());
    let locks = report.stats().ctx_lock_acquisitions;
    assert!(
        (501..=550).contains(&locks),
        "expected one Shared lock per live primitive (501 primitives, \
         small scheduler slack), measured {locks}"
    );
}

/// The lock counter is diagnostics, not semantics: it must not perturb the
/// determinism fingerprint (twin runs of the same seed already share a
/// count, but the fingerprint must also ignore it entirely, like the
/// DepSet cow/spill deltas).
#[test]
fn lock_counter_is_excluded_from_fingerprint() {
    let run = || {
        let mut sim = Simulation::new(SimConfig::with_seed(5));
        sim.spawn("p", |ctx| {
            let aid = ctx.aid_init()?;
            ctx.guess(aid)?;
            ctx.affirm(aid)?;
            ctx.output("done")?;
            Ok(())
        });
        sim.run()
    };
    let a = run();
    let b = run();
    assert_eq!(a.fingerprint(), b.fingerprint());
    assert!(a.stats().ctx_lock_acquisitions > 0);
}

/// Every trace line of one run, byte for byte. The scenario reaches each
/// per-primitive line the runtime writes: a guess answering `true` and,
/// re-executed, `false`; definite and speculative affirms and denies; a
/// `free_of`; a decider skipped because its AID was already decided; a
/// plain send and a reliable send that retries after the lossy plan drops
/// its first copy; a speculative receive; and a ghost dropped before
/// delivery.
#[test]
fn trace_lines_are_pinned() {
    let (judge, receiver, peer) = (ProcessId(1), ProcessId(2), ProcessId(4));
    let plan = FaultPlan::new(17).drop_rate(0.3);
    let mut sim = Simulation::new(SimConfig::with_seed(11).with_faults(plan));
    sim.spawn("worker", move |ctx| {
        let x = ctx.aid_init()?;
        ctx.send(judge, Value::Int(x.index() as i64))?;
        if ctx.guess(x)? {
            ctx.send(receiver, Value::Int(1))?;
            ctx.compute(ms(20))?;
        } else {
            ctx.send(receiver, Value::Int(2))?;
        }
        Ok(())
    });
    sim.spawn("judge", |ctx| {
        let m = ctx.recv()?;
        let x = AidId::from_index(m.payload.expect_int() as u64);
        let own = ctx.aid_init()?;
        ctx.affirm(own)?;
        ctx.compute(ms(5))?;
        ctx.deny(x)?;
        Ok(())
    });
    sim.spawn("receiver", |ctx| {
        let (a, b, c) = (ctx.aid_init()?, ctx.aid_init()?, ctx.aid_init()?);
        // First a speculative receive; after the rollback a ghost, then
        // the worker's re-sent message.
        ctx.recv()?;
        // A speculative affirm of `a` turns into a deny when it rolls
        // back, so the re-executed affirm is a skipped decider.
        ctx.affirm(a)?;
        ctx.deny(b)?;
        ctx.compute(ms(20))?;
        ctx.free_of(c)?;
        Ok(())
    });
    sim.spawn("reliable", move |ctx| {
        ctx.send_reliable(peer, Value::Int(7))?;
        Ok(())
    });
    sim.spawn("peer", |ctx| {
        ctx.recv()?;
        Ok(())
    });
    let (report, trace) = run_traced(sim);
    assert!(report.completed(), "{report}");
    let expected = [
        "[t=0ns] P0: send m0 -> P1",
        "[t=0ns] P0: guess(X0) -> true",
        "[t=0ns] P0: send m1 -> P2",
        "[t=0ns] FAULT drop m2 P3 -> P4",
        "[t=0ns] P3: send m2 -> P4 [reliable seq=0 attempt=1]",
        "[t=0ns] P3: guess(X4) -> true",
        "[t=100.000µs] deliver m0 P0 -> P1",
        "[t=100.000µs] P1: recv m0 from P0",
        "[t=100.000µs] P1: affirm(X5)",
        "[t=100.000µs] deliver m1 P0 -> P2",
        "[t=100.000µs] P2: recv m1 from P0 [speculative]",
        "[t=100.000µs] P2: affirm(X1)",
        "[t=100.000µs] P2: deny(X2)",
        "[t=5.100ms] P1: deny(X0)",
        "[t=5.100ms] P0: ROLLBACK of 1 interval(s) to journal position 2",
        "[t=5.100ms] P2: ROLLBACK of 1 interval(s) to journal position 3",
        "[t=5.100ms] P0: guess(X0) -> false",
        "[t=5.100ms] P0: send m3 -> P2",
        "[t=5.100ms] P2: ghost m1 dropped (X0 denied)",
        "[t=5.200ms] deliver m3 P0 -> P2",
        "[t=5.200ms] P2: recv m3 from P0",
        "[t=5.200ms] P2: affirm(X1) [already decided: no-op]",
        "[t=5.200ms] P2: deny(X2)",
        "[t=25.200ms] P2: free_of(X3)",
        "[t=50.000ms] FAULT timeout: delivered(X4) denied",
        "[t=50.000ms] P3: ROLLBACK of 1 interval(s) to journal position 3",
        "[t=50.000ms] P3: guess(X4) -> false",
        "[t=50.000ms] P3: send m4 -> P4 [reliable seq=0 attempt=2]",
        "[t=50.000ms] P3: guess(X6) -> true",
        "[t=50.100ms] deliver m4 P3 -> P4",
        "[t=50.100ms] P4: recv m4 from P3",
        "[t=50.200ms] ack: delivered(X6) affirmed",
        "[t=50.200ms] P3: interval A3 finalized",
    ];
    assert_eq!(trace, expected, "{trace:#?}");
}

/// The trace-line kinds [`trace_lines_are_pinned`] does not reach.
const OTHER_KINDS: [&str; 15] = [
    "FAULT duplicate",
    "lost:",
    "dedup: reliable",
    "FAULT ack for",
    "FAULT kill",
    "FAULT crash:",
    "FAULT restart",
    "fossil sweep:",
    "journal prefix reclaimed",
    "output line(s) committed",
    "quiescence oracle affirms",
    "quiescence:",
    "governor holds",
    "governor converts",
    "journal limit",
];

/// A checkpointing guesser/verifier loop: the guess's AID travels by
/// `send_reliable`, and the verifier denies the rounds `deny` selects.
fn verified_loop(cfg: SimConfig, rounds: i64, deny: fn(i64) -> bool) -> Simulation {
    let mut sim = Simulation::new(cfg);
    let verifier = ProcessId(1);
    sim.spawn("guesser", move |ctx| {
        let mut i = ctx.restore()?.map_or(0, |v| v.expect_int());
        while i < rounds {
            ctx.checkpoint(Value::Int(i))?;
            let aid = ctx.aid_init()?;
            ctx.send_reliable(verifier, Value::Int(aid.index() as i64))?;
            let path = if ctx.guess(aid)? { "fast" } else { "slow" };
            ctx.output(format!("round {i}: {path}"))?;
            ctx.compute(VirtualDuration::from_micros(150))?;
            i += 1;
        }
        Ok(())
    });
    sim.spawn("verifier", move |ctx| {
        let mut seen = ctx.restore()?.map_or(0, |v| v.expect_int());
        while seen < rounds {
            ctx.checkpoint(Value::Int(seen))?;
            let aid = AidId::from_index(ctx.recv()?.payload.expect_int() as u64);
            if deny(seen) {
                ctx.deny(aid)?;
            } else {
                ctx.affirm(aid)?;
            }
            seen += 1;
        }
        Ok(())
    });
    sim
}

/// The first line of each kind in [`OTHER_KINDS`], byte for byte, from
/// five runs: the verified loop under a lossy, duplicating plan with a
/// crash-restart and fossil collection; the same loop governed through a
/// deny storm; a guess nobody decides, committed at quiescence; a body
/// that outgrows its journal limit; and a body killed while its own guess
/// is open.
#[test]
fn every_other_trace_line_kind_is_pinned() {
    let plan = FaultPlan::new(5)
        .drop_rate(0.2)
        .dupe_rate(0.3)
        .kill(1, 40, Some(ms(3)));
    let faulty = SimConfig::with_seed(2)
        .with_faults(plan)
        .with_fossil_collection(true);
    let governor = hope_runtime::GovernorConfig::default()
        .with_window(6)
        .with_min_samples(2)
        .with_thresholds(150, 700)
        .with_hold(ms(1))
        .with_probe_after(4);
    let governed = SimConfig::with_seed(2).with_governor(governor);
    let mut quiescent = Simulation::new(SimConfig::with_seed(2).commit_at_quiescence());
    quiescent.spawn("optimist", |ctx| {
        let x = ctx.aid_init()?;
        if ctx.guess(x)? {
            ctx.output("undecided")?;
        }
        Ok(())
    });
    let mut overflowing = Simulation::new(SimConfig::with_seed(2).with_max_journal_entries(8));
    overflowing.spawn("hoarder", |ctx| loop {
        ctx.random_u64()?;
    });
    let plan = FaultPlan::new(5).kill(0, 2, None);
    let mut killed = Simulation::new(SimConfig::with_seed(2).with_faults(plan));
    killed.spawn("victim", |ctx| {
        let x = ctx.aid_init()?;
        ctx.guess(x)?;
        ctx.compute(ms(5))
    });
    let runs = [
        verified_loop(faulty, 120, |i| i % 5 == 3),
        verified_loop(governed, 60, |i| {
            i % 3 == 0 && i < 21 || (30..50).contains(&i)
        }),
        quiescent,
        overflowing,
        killed,
    ];
    let lines: Vec<String> = runs.into_iter().flat_map(|sim| run_traced(sim).1).collect();
    let firsts: Vec<&str> = OTHER_KINDS
        .iter()
        .map(|kind| {
            let first = lines.iter().find(|l| l.contains(kind));
            first.unwrap_or_else(|| panic!("no {kind:?} line")).as_str()
        })
        .collect();
    let expected = [
        "[t=0ns] FAULT duplicate m0 P0 -> P1",
        "[t=2.000ms] FAULT m12 lost: P1 is down",
        "[t=100.000µs] dedup: reliable m0 P0 -> P1 suppressed",
        "[t=400.000µs] FAULT ack for m2 dropped",
        "[t=2.000ms] FAULT kill P1 (restart after Some(VirtualDuration(3000000)))",
        "[t=5.000ms] FAULT crash: X0 denied",
        "[t=5.000ms] FAULT restart P1: recovering from journal prefix",
        "[t=13.900ms] fossil sweep: 14 interval(s) and 14 aid(s) reclaimed (horizon A14/X14)",
        "[t=13.900ms] P0: journal prefix reclaimed (64 entries, base now 64)",
        "[t=200.000µs] P0: 1 output line(s) committed",
        "[t=0ns] quiescence oracle affirms 1 open assumption(s)",
        "[t=0ns] quiescence: X0 affirmed",
        "[t=5.100ms] P0: governor holds guess(X44)",
        "[t=250.000µs] P0: governor converts guess(X2) to a wait",
        "[t=0ns] P0: journal limit (8 live entries) exceeded",
    ];
    assert_eq!(firsts, expected, "{firsts:#?}");
}
