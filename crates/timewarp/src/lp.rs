//! The Time Warp logical process, expressed with HOPE primitives.
//!
//! §2 of the paper: "In Time Warp … only one kind of optimistic assumption
//! can be made, which is that messages arrive at each process in time-stamp
//! order … HOPE can specify any optimistic assumption, including message
//! arrival order." This module is that claim, executed:
//!
//! * Processing an event optimistically `guess`es a fresh **guard** AID —
//!   "no event with a smaller timestamp will arrive later".
//! * A **straggler** (an event older than something already processed)
//!   `deny`s the guard of the earliest prematurely processed event; HOPE's
//!   cascading rollback then plays the role of Time Warp's rollback *and*
//!   its anti-messages (speculatively sent events are tagged with the
//!   guard, so receivers unwind automatically and stale copies are ghosts).
//! * Guards become safe to `affirm` once every declared input channel has
//!   delivered something newer (per-link FIFO plus monotone per-sender
//!   timestamps make that sound) — the moral equivalent of GVT-based
//!   fossil collection.

use std::collections::{BTreeMap, BTreeSet};

use hope_core::AidId;
use hope_runtime::{Ctx, Hope, ProcessId};
use hope_sim::VirtualDuration;

use crate::event::Event;
use crate::horizon::ChannelHorizon;

/// Configuration of one logical process.
#[derive(Debug, Clone)]
pub struct LpConfig {
    /// All LP process ids (including this one): forwarding targets.
    pub lps: Vec<ProcessId>,
    /// Processes whose input channel participates in the commit (GVT)
    /// computation. Guards are affirmed only when *every* sender here has
    /// delivered an event at least as new. Usually equals `lps`.
    pub senders: Vec<ProcessId>,
    /// Number of jobs this LP injects to itself at start (timestamps
    /// `1, 2, …`).
    pub seed_jobs: u64,
    /// Substrate CPU time consumed per handled event.
    pub service_time: VirtualDuration,
    /// Mean model-time increment for forwarded events.
    pub mean_delay: u64,
    /// Events with `ts > horizon` are absorbed rather than forwarded.
    pub horizon: u64,
}

impl LpConfig {
    /// A standard PHOLD configuration over `lps`, each LP seeding one job.
    ///
    /// Commit channels are left **empty**: in a fully symmetric Time Warp
    /// system every process is perpetually speculative, and by the paper's
    /// own semantics (Lemma 6.3 / Theorem 6.2) a speculative affirm only
    /// takes definite effect when its issuer finalizes — so intra-LP fossil
    /// affirms can never finalize anything and merely invite conservative
    /// footnote-2 denials when the affirming interval rolls back. Real Time
    /// Warp escapes this with GVT, an *external, definite* observer; a
    /// faithful HOPE encoding therefore measures speculation, rollback and
    /// ghost cancellation (which HOPE does subsume) and leaves commitment
    /// to scenarios that have a definite affirmer (see the straggler test).
    /// This is a finding of the reproduction; see EXPERIMENTS.md (E6).
    pub fn phold(
        lps: Vec<ProcessId>,
        service_time: VirtualDuration,
        mean_delay: u64,
        horizon: u64,
    ) -> Self {
        LpConfig {
            senders: Vec::new(),
            lps,
            seed_jobs: 1,
            service_time,
            mean_delay,
            horizon,
        }
    }
}

/// Run one PHOLD-style logical process until the simulation shuts down.
///
/// Each handled event is re-forwarded to a pseudo-randomly chosen LP with a
/// model-time increment of `1 + (r % (2·mean_delay))`; events beyond the
/// horizon are absorbed. One output line is produced per handled event, so
/// [`RunReport::outputs`](hope_runtime::RunReport::outputs) counts exactly
/// the events whose guards were affirmed (committed), while the engine's
/// guess count includes speculative (possibly rolled back) processing.
///
/// # Errors
///
/// Propagates runtime [`Signal`](hope_runtime::Signal)s (the loop
/// terminates via `Shutdown`).
pub fn run_lp(ctx: &mut Ctx, cfg: &LpConfig) -> Hope<()> {
    let me = ctx.pid();
    // Model state, rebuilt deterministically by journal replay on rollback.
    let mut pending: BTreeSet<(Event, u64)> = BTreeSet::new(); // (event, msg id)
    let mut horizon = ChannelHorizon::new(cfg.senders.clone());
    let mut last_sent: BTreeMap<ProcessId, u64> = BTreeMap::new();
    let mut guards: Vec<(u64, AidId)> = Vec::new(); // (ts, guard), unaffirmed
    let mut last_processed: u64 = 0;

    for j in 0..cfg.seed_jobs {
        ctx.send(me, Event { ts: 1 + j, hops: 0 }.to_value())?;
    }
    if cfg.seed_jobs > 0 {
        last_sent.insert(me, cfg.seed_jobs);
    }

    loop {
        // Block for the next arriving event.
        let msg = ctx.recv()?;
        let ev = match Event::from_value(&msg.payload) {
            Some(ev) => ev,
            None => continue, // not an event; ignore
        };
        horizon.observe(msg.from, ev.ts);
        pending.insert((ev, msg.id));

        // Fossil-collect: once every commit channel has delivered something
        // at least as new, guards below the channel minimum can never be
        // straggled ([`ChannelHorizon`], the local GVT computation).
        for guard in horizon.drain_safe(&mut guards) {
            ctx.affirm(guard)?;
        }

        // Process everything pending, eagerly and optimistically.
        while let Some(&(ev, mid)) = pending.iter().next() {
            pending.remove(&(ev, mid));
            if ev.ts < last_processed {
                // Straggler: deny the guard of the earliest event processed
                // with a larger timestamp. We depend on that guard, so the
                // deny is definite and unwinds us to its guess (§5.3).
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
                // Handle the event under the no-straggler assumption.
                ctx.compute(cfg.service_time)?;
                ctx.output(format!("handled ts={} hops={}", ev.ts, ev.hops))?;
                last_processed = last_processed.max(ev.ts);
                if ev.ts <= cfg.horizon {
                    let r = ctx.random_u64()?;
                    let target = cfg.lps[(r % cfg.lps.len() as u64) as usize];
                    let delay = 1 + (r >> 32) % (2 * cfg.mean_delay.max(1));
                    // Keep per-target timestamps strictly increasing: with
                    // the substrate's per-link FIFO this makes each input
                    // channel monotone, which is what makes the channel-min
                    // commit rule above sound.
                    let floor = last_sent.get(&target).map_or(0, |t| t + 1);
                    let ts = (ev.ts + delay).max(floor);
                    last_sent.insert(target, ts);
                    let next = Event {
                        ts,
                        hops: ev.hops + 1,
                    };
                    ctx.send(target, next.to_value())?;
                }
            } else {
                // Rolled back here: either a straggler older than `ev`
                // was re-enqueued into our mailbox, or a conservative deny
                // (a fossil affirm whose interval rolled back, §5.6
                // footnote 2) invalidated this guard without a straggler.
                // Withdraw the premature attempt, drain everything already
                // deliverable, and let the ordered `pending` set decide
                // what to process next.
                let pos = guards
                    .iter()
                    .position(|(_, g)| *g == guard)
                    .expect("guard was just pushed");
                guards.remove(pos);
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

#[cfg(test)]
mod tests {
    use super::*;
    use hope_runtime::{SimConfig, Simulation};
    use hope_sim::{LatencyModel, Topology};

    /// Two LPs exchanging jobs: the run progresses to the horizon and
    /// quiesces without errors.
    #[test]
    fn phold_pair_progresses() {
        let mut sim = Simulation::new(SimConfig::with_seed(5));
        let lps = vec![ProcessId(0), ProcessId(1)];
        let cfg = LpConfig::phold(lps, VirtualDuration::from_micros(100), 10, 100);
        let c0 = cfg.clone();
        sim.spawn("lp0", move |ctx| run_lp(ctx, &c0));
        let c1 = cfg;
        sim.spawn("lp1", move |ctx| run_lp(ctx, &c1));
        let report = sim.run();
        assert!(report.errors().is_empty(), "{report}");
        assert!(report.stats().engine.guesses > 10, "{report}");
        // Symmetric Time Warp: everyone is perpetually speculative, so no
        // output can commit (Lemma 6.3) — the reproduction's E6 finding.
        assert!(report.outputs().is_empty(), "{report}");
        assert!(!report.hit_limits(), "{report}");
    }

    /// Force a straggler: two senders with very different link latencies.
    #[test]
    fn straggler_rolls_back_and_reorders() {
        let mut topo = Topology::uniform(LatencyModel::Fixed(VirtualDuration::from_millis(1)));
        // Driver 2 → LP0 is slow: its early-timestamped event arrives late.
        topo.set_link(2, 0, LatencyModel::Fixed(VirtualDuration::from_millis(50)));
        let mut sim = Simulation::new(SimConfig::with_seed(5).with_topology(topo));
        let cfg = LpConfig {
            lps: vec![ProcessId(0)],
            senders: vec![ProcessId(1), ProcessId(2)],
            seed_jobs: 0,
            service_time: VirtualDuration::from_micros(100),
            mean_delay: 10,
            horizon: 0, // absorb everything: no forwarding
        };
        sim.spawn("lp0", move |ctx| run_lp(ctx, &cfg));
        sim.spawn("driver-fast", move |ctx| {
            // Arrives first, timestamps 100 and 200.
            ctx.send(ProcessId(0), Event { ts: 100, hops: 0 }.to_value())?;
            ctx.send(ProcessId(0), Event { ts: 200, hops: 0 }.to_value())?;
            Ok(())
        });
        sim.spawn("driver-slow", move |ctx| {
            // Arrives last with the *oldest* timestamp: a straggler.
            ctx.send(ProcessId(0), Event { ts: 7, hops: 0 }.to_value())?;
            Ok(())
        });
        let report = sim.run();
        assert!(report.errors().is_empty(), "{report}");
        assert!(
            report.stats().rollback_events >= 1,
            "the straggler must trigger a Time Warp rollback: {report}"
        );
        // ts=100 was processed at least twice (once prematurely, once after
        // the rollback) and ts=7/200 once each: ≥ 4 guard guesses.
        assert!(report.stats().engine.guesses >= 4, "{report}");
        // The committed prefix (if any) is in timestamp order.
        let ts: Vec<u64> = report
            .outputs()
            .iter()
            .map(|o| {
                o.line
                    .split("ts=")
                    .nth(1)
                    .unwrap()
                    .split(' ')
                    .next()
                    .unwrap()
                    .parse()
                    .unwrap()
            })
            .collect();
        let mut sorted = ts.clone();
        sorted.sort_unstable();
        assert_eq!(ts, sorted);
    }
}
