//! Exhaustive schedule checking at the [`Simulation`]/[`Ctx`](crate::Ctx)
//! layer.
//!
//! [`check_scenario`] enumerates every inequivalent dispatch order of a
//! closure-bodied scenario and reports the set of committed outcomes it
//! can produce. This is the runtime-level counterpart of the `hope-mc`
//! machine-program checker: instead of abstract machine steps, the choice
//! points are the scheduler's own dispatch decisions — which pending
//! `Deliver`/`Wake`/`Ack`/`AckTimeout`/`Restart` event fires next — so
//! `send_reliable` retransmission races, cross-link delivery orders and
//! restart timing are all in scope, with real process bodies (closures
//! over [`Ctx`](crate::Ctx)) executing under each schedule.
//!
//! # Search strategy
//!
//! Process bodies are closures whose control state cannot be forked
//! mid-run, so the search is stateless in the
//! CHESS style: each schedule re-executes the scenario from scratch under
//! a schedule oracle (`ScheduleOracle`) that replays a recorded prefix of
//! choices and defaults to the first alternative beyond it. After each run the driver
//! advances the deepest choice point with an untried sibling (an odometer
//! over the schedule tree, i.e. iterative depth-first search). Scenarios
//! must therefore be deterministic given the schedule: build the same
//! `Simulation` (same seed, same bodies) on every call.
//!
//! # Reductions
//!
//! The raw ready set is reduced before it counts as a choice point, so the
//! enumeration covers only *realizable, inequivalent* orders:
//!
//! - **No-op events auto-drain.** Whatever `Shared::is_stale` says the
//!   scheduler would drop (stale wakes, acks and deadlines of decided
//!   assumptions, restarts of processes that are up) and deliveries to
//!   permanently crashed processes dispatch without recording a choice —
//!   they change no state, so ordering them is irrelevant.
//! - **Per-link FIFO heads.** Only the earliest pending delivery on each
//!   directed link is eligible: the production network never reorders a
//!   link (`link_last` clamping), so a non-head delivery firing first is
//!   unrealizable.
//! - **Singleton ready sets** dispatch without recording a choice.
//!
//! Fire times are clamped monotone when the oracle picks out of deadline
//! order (see `Shared::next_event`), so every explored schedule
//! corresponds to a genuine latency assignment. Outcomes are compared as
//! [`Committed`] values, which exclude virtual time for the same reason.

use std::collections::BTreeSet;
use std::sync::{Arc, Mutex};

use hope_core::ProcessId;
use hope_sim::VirtualTime;

use crate::oracle::ScheduleOracle;
use crate::scheduler::Simulation;
use crate::shared::{EventKind, ProcState, Shared};
use crate::stats::Committed;

/// Budget for [`check_scenario`].
#[derive(Debug, Clone)]
pub struct SimMcConfig {
    /// Maximum number of schedules (full scenario re-executions) to run
    /// before giving up with [`SimCompleteness::BudgetExceeded`].
    pub max_schedules: usize,
}

impl Default for SimMcConfig {
    fn default() -> Self {
        SimMcConfig {
            max_schedules: 4096,
        }
    }
}

/// Did the search cover the whole reduced schedule space?
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SimCompleteness {
    /// Every reduced schedule was executed: the reported outcome set is
    /// exactly the set of outcomes the scenario can produce (under the
    /// scenario's fixed latency seed, modulo the documented reductions).
    Exhausted,
    /// The schedule budget ran out with untried branches remaining; the
    /// outcome set is a sample, not a proof.
    BudgetExceeded,
}

impl SimCompleteness {
    /// `true` for [`SimCompleteness::Exhausted`].
    pub fn is_exhausted(&self) -> bool {
        matches!(self, SimCompleteness::Exhausted)
    }
}

/// Result of [`check_scenario`].
#[derive(Debug, Clone)]
pub struct SimMcReport {
    /// Schedules executed (scenario re-runs).
    pub schedules: usize,
    /// Branching choice points encountered, summed over all runs.
    pub choice_points: usize,
    /// Deepest number of branching choice points in any single run.
    pub max_depth: usize,
    /// Every distinct committed outcome observed. [`Committed`] carries no
    /// virtual-time value, which is what makes it comparable here: the
    /// oracle re-times events (see `Shared::next_event`).
    pub outcomes: BTreeSet<Committed>,
    /// Whether the reduced schedule space was exhausted.
    pub completeness: SimCompleteness,
    /// On budget exhaustion: a lower bound on the unexplored branches
    /// still on the decision stack (0 when exhausted).
    pub frontier_remaining: usize,
    /// Runs that hit `max_events`/`max_virtual_time` instead of quiescing.
    pub limit_runs: usize,
}

impl SimMcReport {
    /// `true` if every explored schedule quiesced with the same committed
    /// outcome — the schedule-space agreement the HOPE semantics promises
    /// for fault-free runs of well-formed scenarios.
    pub fn agreed(&self) -> bool {
        self.outcomes.len() <= 1 && self.limit_runs == 0
    }

    /// Fraction of the reduced schedule space explored: 1.0 when
    /// exhausted, otherwise `schedules / (schedules + frontier)` — an
    /// upper bound, since the frontier is itself a lower bound.
    pub fn explored_fraction(&self) -> f64 {
        if self.completeness.is_exhausted() {
            return 1.0;
        }
        let total = self.schedules + self.frontier_remaining;
        if total == 0 {
            return 1.0;
        }
        self.schedules as f64 / total as f64
    }
}

/// Choice state shared between the driver and the oracle of one run.
struct Trail {
    /// Decisions to replay: `prescribed[k]` is the alternative to take at
    /// the `k`-th branching choice point; beyond the end, take the first.
    prescribed: Vec<usize>,
    /// Fan-out actually observed at each branching choice point this run.
    fanout: Vec<usize>,
}

/// Only [`ReplayOracle::choose`] (inside `Shared::step`, on whichever thread
/// holds the turn) and [`check_scenario`] (between runs) take the trail's
/// lock, never at the same time, and neither can panic under it.
const TRAIL_UNPOISONED: &str = "no panic under the trail lock";

struct ReplayOracle {
    trail: Arc<Mutex<Trail>>,
}

/// An event that provably changes no state when dispatched now, so
/// ordering it against anything is irrelevant and it drains for free.
fn is_noop(sh: &Shared, ev: &EventKind) -> bool {
    // Only a *permanently* crashed destination makes a delivery a sure
    // loss. A `Down` process may restart first, so ordering a delivery
    // against its `Restart` stays a genuine choice.
    sh.is_stale(ev)
        || matches!(ev, EventKind::Deliver { msg }
            if sh.procs[sh.idx_of(msg.to)].state == ProcState::Crashed)
}

/// The reduced ready set: seqs eligible to fire next, in deadline order.
/// Deliveries keep only the head of each directed link (the network never
/// reorders a link, so firing a non-head first is unrealizable).
fn reduced_ready(pending: &[(VirtualTime, u64, &EventKind)]) -> Vec<u64> {
    let mut links_seen: BTreeSet<(ProcessId, ProcessId)> = BTreeSet::new();
    let mut ready = Vec::new();
    for &(_, seq, ev) in pending {
        match ev {
            EventKind::Deliver { msg } => {
                if links_seen.insert((msg.from, msg.to)) {
                    ready.push(seq);
                }
            }
            _ => ready.push(seq),
        }
    }
    ready
}

impl ScheduleOracle for ReplayOracle {
    fn choose(&mut self, sh: &Shared) -> Option<u64> {
        let pending = sh.queue.pending_sorted();
        // Drain no-ops first, without recording a choice.
        for &(_, seq, ev) in &pending {
            if is_noop(sh, ev) {
                return Some(seq);
            }
        }
        let ready = reduced_ready(&pending);
        match ready.len() {
            0 => None,
            1 => Some(ready[0]),
            n => {
                let mut tr = self.trail.lock().expect(TRAIL_UNPOISONED);
                let k = tr.fanout.len();
                let pick = tr.prescribed.get(k).copied().unwrap_or(0).min(n - 1);
                tr.fanout.push(n);
                Some(ready[pick])
            }
        }
    }
}

/// Exhaustively run every reduced schedule of `scenario`, or as many as
/// the budget allows. `scenario` must build the same `Simulation` on
/// every call (same config/seed, same spawn order, same bodies): each
/// schedule is a fresh re-execution, deviating only in dispatch order.
pub fn check_scenario(cfg: &SimMcConfig, scenario: impl Fn() -> Simulation) -> SimMcReport {
    let mut prescribed: Vec<usize> = Vec::new();
    let mut outcomes = BTreeSet::new();
    let mut schedules = 0usize;
    let mut choice_points = 0usize;
    let mut max_depth = 0usize;
    let mut limit_runs = 0usize;
    loop {
        let trail = Arc::new(Mutex::new(Trail {
            prescribed: prescribed.clone(),
            fanout: Vec::new(),
        }));
        let mut sim = scenario();
        sim.set_schedule_oracle(Box::new(ReplayOracle {
            trail: trail.clone(),
        }));
        let report = sim.run();
        schedules += 1;
        if report.hit_limits() {
            limit_runs += 1;
        }
        outcomes.insert(report.committed());
        let fanout = std::mem::take(&mut trail.lock().expect(TRAIL_UNPOISONED).fanout);
        choice_points += fanout.len();
        max_depth = max_depth.max(fanout.len());

        // Odometer: this run's decisions are `prescribed` padded with 0s;
        // advance the deepest one with an untried sibling and truncate.
        let mut decisions: Vec<usize> = (0..fanout.len())
            .map(|k| prescribed.get(k).copied().unwrap_or(0))
            .collect();
        let next = loop {
            let Some(d) = decisions.pop() else { break None };
            if d + 1 < fanout[decisions.len()] {
                decisions.push(d + 1);
                break Some(decisions);
            }
        };
        match next {
            None => {
                return SimMcReport {
                    schedules,
                    choice_points,
                    max_depth,
                    outcomes,
                    completeness: SimCompleteness::Exhausted,
                    frontier_remaining: 0,
                    limit_runs,
                };
            }
            Some(d) => {
                if schedules >= cfg.max_schedules {
                    // `d` itself plus every untried sibling above it.
                    let frontier = 1 + d
                        .iter()
                        .enumerate()
                        .map(|(k, &v)| fanout[k] - 1 - v)
                        .sum::<usize>();
                    return SimMcReport {
                        schedules,
                        choice_points,
                        max_depth,
                        outcomes,
                        completeness: SimCompleteness::BudgetExceeded,
                        frontier_remaining: frontier,
                        limit_runs,
                    };
                }
                prescribed = d;
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::chaos::{knob_lattice, sweep};
    use crate::config::SimConfig;
    use crate::event::watch;
    use crate::value::Value;
    use hope_sim::VirtualDuration;
    use std::sync::atomic::{AtomicUsize, Ordering};

    fn ms(v: u64) -> VirtualDuration {
        VirtualDuration::from_millis(v)
    }

    /// Two senders racing into one receiver: the cross-link delivery
    /// order is genuinely nondeterministic, so the checker must branch
    /// and find both receive orders — and nothing else.
    fn two_sender_race(config: SimConfig) -> Simulation {
        let mut sim = Simulation::new(config);
        sim.spawn("receiver", |ctx| {
            let a = ctx.recv()?;
            let b = ctx.recv()?;
            ctx.output(format!(
                "got {} then {}",
                a.payload.expect_int(),
                b.payload.expect_int()
            ))?;
            Ok(())
        });
        let receiver = ProcessId(0);
        sim.spawn("alice", move |ctx| {
            ctx.send(receiver, Value::Int(1))?;
            Ok(())
        });
        sim.spawn("bob", move |ctx| {
            ctx.send(receiver, Value::Int(2))?;
            Ok(())
        });
        sim
    }

    #[test]
    fn exhausts_two_sender_race_and_finds_both_orders() {
        let report = check_scenario(&SimMcConfig::default(), || {
            two_sender_race(SimConfig::with_seed(7))
        });
        assert!(report.completeness.is_exhausted(), "{report:?}");
        assert_eq!(report.limit_runs, 0);
        assert!(report.schedules >= 2, "must branch: {report:?}");
        let lines: BTreeSet<String> = report
            .outcomes
            .iter()
            .flat_map(|o| o.outputs.values().flatten().cloned())
            .collect();
        assert!(
            lines.contains("got 1 then 2") && lines.contains("got 2 then 1"),
            "both receive orders must be reachable: {lines:?}"
        );
        assert_eq!(report.frontier_remaining, 0);
        assert!((report.explored_fraction() - 1.0).abs() < f64::EPSILON);
    }

    /// A single-link pipeline still branches on the initial wake order
    /// (which body starts first is a real interleaving), but the per-link
    /// FIFO-head reduction guarantees messages cannot be reordered, so
    /// every schedule must commit the identical outcome.
    #[test]
    fn single_link_pipeline_agrees_across_all_schedules() {
        let report = check_scenario(&SimMcConfig::default(), || {
            let mut sim = Simulation::new(SimConfig::with_seed(3));
            sim.spawn("receiver", |ctx| {
                assert_eq!(ctx.recv()?.payload, Value::Int(1));
                assert_eq!(ctx.recv()?.payload, Value::Int(2));
                ctx.output("in order")?;
                Ok(())
            });
            let receiver = ProcessId(0);
            sim.spawn("sender", move |ctx| {
                ctx.send(receiver, Value::Int(1))?;
                ctx.send(receiver, Value::Int(2))?;
                Ok(())
            });
            sim
        });
        assert!(report.completeness.is_exhausted(), "{report:?}");
        assert!(report.agreed(), "{report:?}");
        let only = report.outcomes.first().expect("one outcome");
        assert_eq!(
            only.outputs.get(&ProcessId(0)).map(Vec::as_slice),
            Some(&["in order".to_string()][..])
        );
    }

    /// `send_reliable` schedules an `Ack` and an `AckTimeout` for the same
    /// assumption: the checker must explore both orders (ack first —
    /// delivered; deadline first — denied, roll back, retransmit) and the
    /// retry loop must still converge on every committed outcome being
    /// "delivered".
    #[test]
    fn exhausts_send_reliable_retransmission_race() {
        // The retransmission tree is unbounded in principle (every
        // deadline-first branch spawns a fresh attempt with its own
        // ack/deadline race), so a virtual-time horizon makes it finite:
        // branches that keep losing the race run out of time and are
        // recorded as `hit_limits` outcomes rather than explored forever.
        let report = check_scenario(&SimMcConfig::default(), || {
            let mut sim = Simulation::new(
                SimConfig::with_seed(11)
                    .with_ack_timeout(ms(10))
                    .with_max_virtual_time(VirtualTime::from_nanos(ms(35).as_nanos())),
            );
            sim.spawn("receiver", |ctx| {
                let m = ctx.recv()?;
                ctx.output(format!("received {}", m.payload.expect_int()))?;
                Ok(())
            });
            let receiver = ProcessId(0);
            sim.spawn("sender", move |ctx| {
                ctx.send_reliable(receiver, Value::Int(9))?;
                ctx.output("sender done")?;
                Ok(())
            });
            sim
        });
        assert!(report.completeness.is_exhausted(), "{report:?}");
        assert!(
            report.schedules >= 2,
            "ack/deadline race must branch: {report:?}"
        );
        // Every schedule that quiesced within the horizon must have
        // converged on exactly one delivery (duplicates suppressed) and a
        // finished sender — the point of the reliable-send protocol.
        let mut quiesced = 0;
        for o in report.outcomes.iter().filter(|o| !o.hit_limits) {
            quiesced += 1;
            assert!(o.unfinished.is_empty(), "quiesced schedule: {o:?}");
            assert_eq!(
                o.outputs.get(&ProcessId(0)).map(Vec::as_slice),
                Some(&["received 9".to_string()][..]),
                "retransmission must converge on delivery: {o:?}"
            );
        }
        assert!(quiesced >= 1, "some schedule must quiesce: {report:?}");
    }

    /// The schedule-space scenario of the knob lattice: a strict ping-pong
    /// guesser/verifier loop — one event in flight at a time, so the
    /// checker can exhaust it — long enough to cross the scheduler's
    /// 256-event fossil sweep, guessing every fourth round (so a guess is
    /// open when the sweep lands, and the invariant-checking cells stay
    /// cheap) with the second and third guesses denied (see the lattice
    /// test for what that does to the governor), raced at the very end by
    /// one late message: the guesser's "done" against the verifier's
    /// timer, which gives the outcome set two members.
    fn raced_long_loop(config: SimConfig) -> Simulation {
        raced_long_loop_with(config, true)
    }

    /// `checkpointing: false` is the twin whose bodies make no
    /// `restore`/`checkpoint` call: every restart replays from step zero.
    fn raced_long_loop_with(config: SimConfig, checkpointing: bool) -> Simulation {
        const ROUNDS: i64 = 136;
        let resume = move |ctx: &mut crate::Ctx| {
            let snapshot = if checkpointing { ctx.restore()? } else { None };
            Ok(snapshot.map_or(0, |v| v.expect_int()))
        };
        let checkpoint = move |ctx: &mut crate::Ctx, i: i64| {
            if checkpointing {
                ctx.checkpoint(Value::Int(i))?;
            }
            Ok(())
        };
        let mut sim = Simulation::new(config);
        let verifier = ProcessId(1);
        sim.spawn("guesser", move |ctx| {
            let mut i = resume(ctx)?;
            while i < ROUNDS {
                checkpoint(ctx, i)?;
                if i % 4 == 3 {
                    let aid = ctx.aid_init()?;
                    ctx.send(verifier, Value::Int(aid.index() as i64))?;
                    if !ctx.guess(aid)? {
                        // Denied: the verifier sends no credit.
                        ctx.output(format!("round {i} denied"))?;
                        i += 1;
                        continue;
                    }
                } else {
                    ctx.send(verifier, Value::Int(-1))?;
                }
                // Wait (speculating, on a guess round) for the credit.
                ctx.recv()?;
                i += 1;
            }
            ctx.send(verifier, Value::Int(-1))?;
            ctx.output("guesser done")?;
            Ok(())
        });
        let guesser = ProcessId(0);
        sim.spawn("verifier", move |ctx| {
            let mut seen = resume(ctx)?;
            while seen < ROUNDS {
                checkpoint(ctx, seen)?;
                let aid = ctx.recv()?.payload.expect_int();
                if seen == 7 || seen == 11 {
                    ctx.deny(hope_core::AidId::from_index(aid as u64))?;
                } else {
                    if aid >= 0 {
                        ctx.affirm(hope_core::AidId::from_index(aid as u64))?;
                    }
                    ctx.send(guesser, Value::Unit)?;
                }
                seen += 1;
            }
            ctx.compute(ms(1))?;
            match ctx.try_recv()? {
                Some(_) => ctx.output("done arrived before the timer")?,
                None => {
                    ctx.recv()?;
                    ctx.output("done arrived after the timer")?;
                }
            }
            Ok(())
        });
        sim
    }

    /// The one schedule-space lattice: every combination of the knobs that
    /// claim to be transparent ([`knob_lattice`]), watched and unwatched,
    /// must leave the exhaustive outcome set of `raced_long_loop` exactly
    /// as the plain run has it. Knobs that add no events (fossil
    /// collection, invariant checking) and watching must also leave the
    /// schedule *tree* bit-identical; the governor's conservative waits and
    /// probes ride ordinary epoch-guarded wakes, so it may reshape the tree
    /// and is held to the outcome set only — hence two tests, the 4
    /// `governed` cells and the 4 others. Each cell first goes through
    /// [`sweep`] under the default schedule, whose counters prove it
    /// engaged: collection reclaimed, the governor converted and probed,
    /// the watched replay saw events.
    fn schedule_space_lattice(governed: bool) {
        let base = SimConfig::with_seed(7);
        // One-sample window: the first deny trips the breaker; the next
        // guess is converted to a wait and denied too (no credit races the
        // waiter's wake-up, so the tree stays small); the one after is
        // the half-open probe whose affirm demotes the site.
        let gov = crate::governor::GovernorConfig::default()
            .with_window(1)
            .with_min_samples(1)
            .with_thresholds(400, 900)
            .with_probe_after(2);
        let mut cells = knob_lattice(&base, &gov);
        cells.retain(|(_, cfg)| cfg.governor.is_some() == governed);
        let runs = sweep(base.clone(), cells.clone(), raced_long_loop);
        let plain = check_scenario(&SimMcConfig::default(), || raced_long_loop(base.clone()));
        assert!(plain.completeness.is_exhausted(), "{plain:?}");
        assert_eq!(plain.outcomes.len(), 2, "the late race must show");
        // The default schedule is one of the explored ones.
        assert!(plain
            .outcomes
            .contains(&raced_long_loop(base.clone()).run().committed()));
        for ((label, cfg), run) in cells.iter().zip(&runs) {
            let (mem, g) = (run.stats.memory, run.stats.governor);
            assert!(
                !cfg.fossil_collection
                    || mem.reclaimed_intervals > 0 && mem.reclaimed_journal_entries > 0,
                "`{label}`: collection never engaged: {mem:?}"
            );
            assert!(
                !governed || g.converted > 0 && g.probes > 0,
                "`{label}`: governor never acted: {g:?}"
            );
            assert!(run.events > 0, "`{label}`: the replay was not watched");
            let seen = Arc::new(AtomicUsize::new(0));
            for watched in [false, true] {
                let cell = check_scenario(&SimMcConfig::default(), || {
                    let mut sim = raced_long_loop(cfg.clone());
                    if watched {
                        watch(&mut sim, seen.clone());
                    }
                    sim
                });
                let label = if watched {
                    format!("{label}, watched")
                } else {
                    label.clone()
                };
                assert!(cell.completeness.is_exhausted(), "`{label}`: {cell:?}");
                assert_eq!(
                    cell.outcomes, plain.outcomes,
                    "`{label}` changed the outcome set"
                );
                if !governed {
                    assert_eq!(
                        (cell.schedules, cell.choice_points, cell.max_depth),
                        (plain.schedules, plain.choice_points, plain.max_depth),
                        "`{label}` adds no events, so it must not reshape the schedule tree"
                    );
                }
            }
            assert!(
                seen.load(Ordering::Relaxed) > 0,
                "`{label}`: nothing watched"
            );
        }
    }

    #[test]
    fn knob_lattice_preserves_schedule_tree_and_outcomes() {
        schedule_space_lattice(false);
    }

    #[test]
    fn governed_knob_lattice_preserves_outcome_set() {
        schedule_space_lattice(true);
    }

    /// Checkpoint transparency: a snapshot is the resume point of every
    /// restart, so taking snapshots must change nothing but how much is
    /// replayed. Over every schedule the twin without them has the same
    /// tree and the same outcome set; under crash-restart plans — either
    /// process killed at each of 64 consecutive steps and back before the
    /// next message reaches it, delay spikes re-timing the credits — it
    /// commits the same lines after the same events, virtual time,
    /// rollbacks and restarts.
    #[test]
    fn checkpoints_are_transparent_to_the_raced_long_loop() {
        let base = SimConfig::with_seed(7);
        let exhaust = |checkpointing| {
            let r = check_scenario(&SimMcConfig::default(), || {
                raced_long_loop_with(base.clone(), checkpointing)
            });
            assert!(r.completeness.is_exhausted(), "{r:?}");
            (r.outcomes, r.schedules, r.choice_points, r.max_depth)
        };
        assert_eq!(exhaust(true), exhaust(false));

        // Runs the kill itself rolled back (a third rollback, after the
        // two scripted denies) and that still ran to completion.
        let mut recovered = 0;
        for (victim, step) in (0..2).flat_map(|v| (10..74).map(move |s| (v, s))) {
            let plan = hope_sim::FaultPlan::new(step)
                .delay_spikes(0.2, ms(1 + step % 3))
                .kill(victim, step, Some(VirtualDuration::from_micros(10)));
            let run = |checkpointing| {
                let cfg = base.clone().with_faults(plan.clone());
                let r = raced_long_loop_with(cfg, checkpointing).run();
                let s = r.stats();
                let restarts = (s.rollback_events, s.replays, s.faults);
                (r.committed(), r.events(), r.end_time(), restarts)
            };
            let with = run(true);
            assert_eq!(with, run(false), "P{victim} killed at step {step}");
            let (committed, .., (rollbacks, _, faults)) = with;
            assert_eq!(faults.restarts, 1);
            recovered += u32::from(rollbacks > 2 && committed.unfinished.is_empty());
        }
        assert!(recovered >= 4, "{recovered}");
    }

    /// The budget path: a scenario with more schedules than allowed
    /// reports `BudgetExceeded`, a nonzero frontier, and a fraction < 1.
    #[test]
    fn budget_exceeded_reports_frontier_fraction() {
        let cfg = SimMcConfig { max_schedules: 1 };
        let report = check_scenario(&cfg, || two_sender_race(SimConfig::with_seed(7)));
        assert_eq!(report.completeness, SimCompleteness::BudgetExceeded);
        assert_eq!(report.schedules, 1);
        assert!(report.frontier_remaining >= 1);
        assert!(report.explored_fraction() < 1.0);
    }
}
