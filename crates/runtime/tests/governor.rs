//! Behavioural and determinism suite for the speculation admission
//! governor (`hope_runtime::governor`).
//!
//! Three properties are pinned here:
//!
//! 1. **Engagement** — a sustained deny storm really does escalate the
//!    stormed site Optimistic → Throttled → Conservative, and a return to
//!    calm demotes it again (hysteresis): the governor is not decorative.
//! 2. **Inertness when calm** — with no denies the governor never leaves
//!    Optimistic, holds nothing, converts nothing, and the run's
//!    fingerprint is bit-identical to the governor-off run: enabling the
//!    feature on a healthy system costs exactly one branch per guess.
//! 3. **Determinism** — the mode-transition trace is a pure function of
//!    `(seed, config)`: identical across reruns and invariant under
//!    fossil collection (over seeded random configurations).
//!
//! The fault-space half of the transparency claim (`committed()`
//! governor-on ≡ governor-off under seeded fault plans) is the governor
//! cells of the knob lattice in `tests/chaos_equivalence.rs`; the
//! schedule-space half is `hope_runtime::mc`'s
//! `governed_knob_lattice_preserves_outcome_set`.

use hope_core::AidId;
use hope_runtime::{
    Ctx, GovernorConfig, GovernorMode, ProcessId, SimConfig, Simulation, Value, VirtualDuration,
};
use hope_sim::SimRng;

fn ms(v: u64) -> VirtualDuration {
    VirtualDuration::from_millis(v)
}

/// An aggressive governor: evaluates from the first observed outcome and
/// escalates quickly, so short scenarios still cross every mode boundary.
fn aggressive() -> GovernorConfig {
    GovernorConfig::default()
        .with_window(6)
        .with_min_samples(2)
        .with_thresholds(150, 700)
        .with_hold(ms(1))
        .with_probe_after(4)
}

/// Guesser/verifier loop with a scripted verdict pattern: the verifier
/// denies round `r` iff `deny_rounds` has bit `r % 64` set, so a run is a
/// deterministic storm/calm schedule. Rounds ride `checkpoint`/`restore`
/// so the same scenario is valid under fossil collection, and the AID
/// advert rides `send_reliable` so fault plans cannot lose it.
fn scripted_scenario(cfg: SimConfig, rounds: i64, deny_rounds: u64) -> Simulation {
    let mut sim = Simulation::new(cfg);
    let verifier = ProcessId(1);
    sim.spawn("guesser", move |ctx: &mut Ctx| {
        let mut i = match ctx.restore()? {
            Some(v) => v.expect_int(),
            None => 0,
        };
        while i < rounds {
            ctx.checkpoint(Value::Int(i))?;
            let aid = ctx.aid_init()?;
            ctx.send_reliable(verifier, Value::Int(aid.index() as i64))?;
            if ctx.guess(aid)? {
                ctx.output(format!("round {i}: fast path"))?;
            } else {
                ctx.output(format!("round {i}: slow path"))?;
            }
            ctx.compute(VirtualDuration::from_micros(150))?;
            i += 1;
        }
        ctx.output("guesser done")?;
        Ok(())
    });
    sim.spawn("verifier", move |ctx: &mut Ctx| {
        let mut seen = match ctx.restore()? {
            Some(v) => v.expect_int(),
            None => 0,
        };
        while seen < rounds {
            ctx.checkpoint(Value::Int(seen))?;
            let m = ctx.recv()?;
            let aid = AidId::from_index(m.payload.expect_int() as u64);
            if deny_rounds >> (seen as u64 % 64) & 1 == 1 {
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

/// Moderate deny pressure throttles: with the circuit breaker pushed out
/// of reach, a one-in-three deny pattern (pressure ≈ 333‰ × damage,
/// comfortably above the 150 throttle threshold, far below the breaker)
/// drives the guess site to Throttled — every subsequent guess is held
/// for the configured duration before admission — and the calm tail
/// demotes it back to Optimistic via hysteresis.
#[test]
fn moderate_denies_throttle_and_calm_demotes() {
    // rounds 0..21: deny every 3rd; rounds 21..36: all affirmed.
    let deny_every_3rd = 0b001_001_001_001_001_001_001u64;
    let cfg = aggressive().with_thresholds(150, 50_000);
    let report = scripted_scenario(
        SimConfig::with_seed(7).with_governor(cfg),
        36,
        deny_every_3rd,
    )
    .run();
    assert!(report.completed(), "{:?}", report.errors());
    let g = report.stats().governor;
    assert!(g.denials_observed >= 7, "{g:?}");
    assert!(g.held > 0, "moderate storm never throttled: {g:?}");
    assert_eq!(g.converted, 0, "breaker must stay out of reach: {g:?}");
    assert!(g.rollback_damage > 0, "denies must charge damage: {g:?}");
    let trs = report.governor_transitions();
    assert!(
        trs.iter().any(|t| t.to == GovernorMode::Throttled),
        "no Throttled transition: {trs:?}"
    );
    assert_eq!(
        trs.last().map(|t| t.to),
        Some(GovernorMode::Optimistic),
        "calm tail must demote back to Optimistic: {trs:?}"
    );
    // Degradation never changes what commits: denied rounds took the slow
    // branch, the calm tail the fast branch, nothing was lost.
    let lines = report.output_lines();
    assert!(lines.contains(&"round 0: slow path"));
    assert!(lines.contains(&"round 1: fast path"));
    assert!(lines.contains(&"round 35: fast path"));
    assert!(lines.contains(&"guesser done"));
}

/// A dense deny storm breaks the circuit: twenty denies back-to-back
/// trip the site straight to Conservative (guesses become waits, bar the
/// periodic probe), and the calm tail demotes it. Probing is what lets
/// the demotion happen at all — a Conservative site only learns the
/// storm ended because waits and probes keep feeding its window.
#[test]
fn dense_storm_degrades_to_conservative_and_recovers() {
    let deny_first_20 = (1u64 << 20) - 1;
    let report = scripted_scenario(
        SimConfig::with_seed(7).with_governor(aggressive()),
        40,
        deny_first_20,
    )
    .run();
    assert!(report.completed(), "{:?}", report.errors());
    let g = report.stats().governor;
    assert!(g.denials_observed >= 20, "{g:?}");
    assert!(g.affirms_observed >= 20, "{g:?}");
    assert!(g.converted > 0, "storm never degraded to waits: {g:?}");
    assert!(g.probes > 0, "conservative site never probed: {g:?}");
    assert!(g.rollback_damage > 0, "denies must charge damage: {g:?}");
    let trs = report.governor_transitions();
    assert!(
        trs.iter().any(|t| t.to == GovernorMode::Conservative),
        "breaker never tripped: {trs:?}"
    );
    assert_eq!(
        trs.last().map(|t| t.to),
        Some(GovernorMode::Optimistic),
        "calm tail must demote back to Optimistic: {trs:?}"
    );
    // Full degradation never changes what commits: the storm rounds all
    // took the denied branch — by waiting for the verdict instead of
    // speculating and rolling back — and the calm rounds the fast branch.
    let lines = report.output_lines();
    assert!(lines.contains(&"round 0: slow path"));
    assert!(lines.contains(&"round 19: slow path"));
    assert!(lines.contains(&"round 39: fast path"));
    assert!(lines.contains(&"guesser done"));
}

/// Transparency when healthy: an all-affirm run with the governor on has
/// zero holds, zero conversions, zero transitions — and the same
/// fingerprint as the governor-off run, because `RunReport::fingerprint`
/// masks the (intentionally observational) governor counters and an
/// inert governor perturbs nothing else.
#[test]
fn fault_free_governor_is_inert_and_fingerprint_invisible() {
    let on = scripted_scenario(SimConfig::with_seed(9).with_governor(aggressive()), 24, 0).run();
    let off = scripted_scenario(SimConfig::with_seed(9), 24, 0).run();
    assert!(on.completed(), "{:?}", on.errors());
    let g = on.stats().governor;
    assert_eq!(g.held, 0, "{g:?}");
    assert_eq!(g.converted, 0, "{g:?}");
    assert_eq!(g.transitions, 0, "{g:?}");
    // 24 explicit guesses plus 24 reliable-send delivery guesses: the
    // governor watches both sites.
    assert_eq!(g.admitted, 48, "{g:?}");
    assert!(on.governor_transitions().is_empty());
    assert_eq!(
        on.fingerprint(),
        off.fingerprint(),
        "an inert governor must be invisible to the determinism fingerprint"
    );
}

/// The mode-transition trace is a pure function of `(seed, config)`:
/// rerunning the same configuration reproduces it bit-for-bit, and fossil
/// collection — which truncates the very journals whose suffix lengths feed
/// the damage EWMA — never perturbs it or what commits, because damage is
/// charged at rollback time, not read back from retained journals. 64
/// rounds (one full turn of the `deny_rounds` pattern) are ~320 scheduler
/// events, so the collecting run crosses the scheduler's 256-event sweep
/// and must actually reclaim; its fingerprint is *not* compared, since that
/// hashes `MemoryStats`.
#[test]
fn transition_trace_is_pure_function_of_seed_and_config() {
    // FNV-1a of "governor::transition_trace_is_pure_function_of_seed_and_config".
    let mut rng = SimRng::new(0xb64c_a03a_8945_6158);
    for case in 0..16 {
        let (seed, deny_rounds) = (rng.range_u64(0, 500), rng.range_u64(0, u64::MAX));
        let (window, threshold) = (rng.range_u64(2, 10) as usize, rng.range_u64(100, 600));
        let cfg = || {
            SimConfig::with_seed(seed).with_governor(
                GovernorConfig::default()
                    .with_window(window)
                    .with_min_samples(2)
                    .with_thresholds(threshold, threshold * 4)
                    .with_hold(ms(1)),
            )
        };
        let run = |cfg| scripted_scenario(cfg, 64, deny_rounds).run();
        let checked = std::panic::catch_unwind(|| {
            let (reference, rerun) = (run(cfg()), run(cfg()));
            let trace = reference.governor_transitions();
            assert_eq!(trace, rerun.governor_transitions(), "rerun diverged");
            assert_eq!(reference.fingerprint(), rerun.fingerprint());
            let collected = run(cfg().with_fossil_collection(true));
            let mem = collected.stats().memory;
            assert!(
                mem.reclaimed_intervals > 0 && mem.reclaimed_journal_entries > 0,
                "collection never engaged ({} events): {mem:?}",
                collected.events()
            );
            assert_eq!(
                trace,
                collected.governor_transitions(),
                "collection diverged"
            );
            assert_eq!(reference.committed(), collected.committed());
        });
        let inputs = format!("seed {seed}, deny_rounds {deny_rounds:#x}, window {window}");
        assert!(
            checked.is_ok(),
            "case {case} failed: {inputs}, threshold {threshold}"
        );
    }
}
