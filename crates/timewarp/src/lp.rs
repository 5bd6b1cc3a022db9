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
use hope_runtime::{Ctx, Hope, ProcessId, Value, JOURNAL_ENTRY_BYTES};
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

/// The model state of one LP: what replay rebuilds and a snapshot carries.
#[derive(Debug, Clone, Default, PartialEq)]
struct LpState {
    /// Received, not yet processed: `(event, msg id)`.
    pending: BTreeSet<(Event, u64)>,
    horizon: ChannelHorizon,
    last_sent: BTreeMap<ProcessId, u64>,
    /// `(ts, guard)` of the processed events not yet affirmed. Ascending by
    /// construction: an event older than `last_processed` is a straggler,
    /// not pushed, and AIDs are allocated in ascending order.
    guards: Vec<(u64, AidId)>,
    last_processed: u64,
}

impl LpState {
    /// How many words [`to_value`](Self::to_value) writes.
    fn snapshot_len(&self) -> usize {
        let pairs = self.horizon.last_seen().len() + self.last_sent.len() + self.guards.len();
        5 + 3 * self.pending.len() + 2 * pairs
    }

    /// One [`Value::Bytes`] of little-endian `u64` words: four lengths,
    /// `last_processed`, then each collection in order.
    fn to_value(&self) -> Value {
        let (seen, sent, guards) = (self.horizon.last_seen(), &self.last_sent, &self.guards);
        let lens = [self.pending.len(), seen.len(), sent.len(), guards.len()];
        let lens = lens.into_iter().map(|n| n as u64);
        let pending = self.pending.iter().flat_map(|(e, id)| [e.ts, e.hops, *id]);
        let channels = seen.iter().chain(sent);
        let channels = channels.flat_map(|(p, ts)| [u64::from(p.0), *ts]);
        let guards = guards.iter().flat_map(|(ts, g)| [*ts, g.index()]);
        let head = lens.chain([self.last_processed]);
        let words = head.chain(pending).chain(channels).chain(guards);
        let mut bytes = Vec::with_capacity(8 * self.snapshot_len());
        bytes.extend(words.flat_map(u64::to_le_bytes));
        Value::Bytes(bytes)
    }

    /// [`to_value`](Self::to_value)'s inverse; `None` for what it cannot have written.
    fn from_value(v: &Value, senders: Vec<ProcessId>) -> Option<Self> {
        let bytes = v.as_bytes()?;
        if bytes.len() % 8 != 0 {
            return None;
        }
        let word = |w: &[u8]| u64::from_le_bytes(w.try_into().expect("an 8-byte chunk"));
        let words: Vec<u64> = bytes.chunks_exact(8).map(word).collect();
        // `n` records of `k` words off the front of `rest`.
        fn split(rest: &[u64], n: u64, k: usize) -> Option<(&[u64], &[u64])> {
            rest.split_at_checked(k.checked_mul(usize::try_from(n).ok()?)?)
        }
        let (head, rest) = words.split_at_checked(5)?;
        let (pending, rest) = split(rest, head[0], 3)?;
        let (seen, rest) = split(rest, head[1], 2)?;
        let (sent, rest) = split(rest, head[2], 2)?;
        let (guards, rest) = split(rest, head[3], 2)?;
        if !rest.is_empty() {
            return None;
        }
        let channel = |c: &[u64]| Some((ProcessId(u32::try_from(c[0]).ok()?), c[1]));
        let channels = |c: &[u64]| c.chunks(2).map(channel).collect::<Option<BTreeMap<_, _>>>();
        let guard = |c: &[u64]| (c[0], AidId::from_index(c[1]));
        let event = |c: &[u64]| {
            let (ts, hops) = (c[0], c[1]);
            (Event { ts, hops }, c[2])
        };
        Some(LpState {
            pending: pending.chunks(3).map(event).collect(),
            horizon: ChannelHorizon::resume(senders, channels(seen)?),
            last_sent: channels(sent)?,
            guards: guards.chunks(2).map(guard).collect(),
            last_processed: head[4],
        })
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
/// The body is restorable ([`Ctx::restore`]): a rollback resumes it at its
/// newest surviving snapshot. Its state grows with the unaffirmed guards —
/// without bound in symmetric PHOLD — so a snapshot per iteration would be
/// quadratic; it takes one when the journal written since the last takes
/// at least as many bytes as the snapshot would: `8·w` bytes for a state of
/// `w` words, so `⌈8·w / JOURNAL_ENTRY_BYTES⌉` entries. Snapshots then take
/// no more memory than the journal, and a restart replays about a quarter
/// of a state's word count in entries.
///
/// # Errors
///
/// Propagates runtime [`Signal`](hope_runtime::Signal)s (the loop
/// terminates via `Shutdown`).
pub fn run_lp(ctx: &mut Ctx, cfg: &LpConfig) -> Hope<()> {
    let me = ctx.pid();
    // `written`: journal entries since the last snapshot (on a fresh start,
    // from after the seeding sends, so that no snapshot precedes the first
    // guess), counted here so that a replay counts as the first execution
    // did.
    let (mut st, mut written) = match ctx.restore()? {
        // Resuming *at* a snapshot: the loop's first act replays it.
        Some(v) => {
            let st = LpState::from_value(&v, cfg.senders.clone())
                .expect("a snapshot is what this body's own checkpoint wrote");
            (st, usize::MAX)
        }
        None => {
            let mut st = LpState {
                horizon: ChannelHorizon::new(cfg.senders.clone()),
                ..LpState::default()
            };
            for j in 0..cfg.seed_jobs {
                ctx.send(me, Event { ts: 1 + j, hops: 0 }.to_value())?;
            }
            if cfg.seed_jobs > 0 {
                st.last_sent.insert(me, cfg.seed_jobs);
            }
            (st, 0)
        }
    };

    loop {
        // Weighed on the snapshot's side: after a restore `written` is
        // `usize::MAX`.
        if written >= (8 * st.snapshot_len()).div_ceil(JOURNAL_ENTRY_BYTES) {
            ctx.checkpoint(st.to_value())?;
            written = 0;
        }
        // Block for the next arriving event.
        let msg = ctx.recv()?;
        written += 1;
        let ev = match Event::from_value(&msg.payload) {
            Some(ev) => ev,
            None => continue, // not an event; ignore
        };
        st.horizon.observe(msg.from, ev.ts);
        st.pending.insert((ev, msg.id));

        // Fossil-collect: once every commit channel has delivered something
        // at least as new, guards below the channel minimum can never be
        // straggled ([`ChannelHorizon`], the local GVT computation).
        for guard in st.horizon.drain_safe(&mut st.guards) {
            ctx.affirm(guard)?;
            written += 1;
        }

        // Process everything pending, eagerly and optimistically.
        while let Some((ev, mid)) = st.pending.pop_first() {
            if ev.ts < st.last_processed {
                // Straggler: deny the guard of the earliest event processed
                // with a larger timestamp. We depend on that guard, so the
                // deny is definite and unwinds us to its guess (§5.3).
                let newer = st.guards.partition_point(|&(ts, _)| ts <= ev.ts);
                let newer = st.guards.get(newer);
                let &(_, guard) = newer.expect("a processed guard outranks the straggler");
                ctx.deny(guard)?;
                unreachable!("self-deny always unwinds");
            }
            let guard = ctx.aid_init()?;
            st.guards.push((ev.ts, guard));
            debug_assert!(st.guards.is_sorted(), "{:?}", st.guards);
            written += 2;
            if ctx.guess(guard)? {
                // Handle the event under the no-straggler assumption.
                ctx.compute(cfg.service_time)?;
                ctx.output(format!("handled ts={} hops={}", ev.ts, ev.hops))?;
                written += 2;
                st.last_processed = st.last_processed.max(ev.ts);
                if ev.ts <= cfg.horizon {
                    let r = ctx.random_u64()?;
                    let target = cfg.lps[(r % cfg.lps.len() as u64) as usize];
                    let delay = 1 + (r >> 32) % (2 * cfg.mean_delay.max(1));
                    // Keep per-target timestamps strictly increasing: with
                    // the substrate's per-link FIFO this makes each input
                    // channel monotone, which is what makes the channel-min
                    // commit rule above sound.
                    let floor = st.last_sent.get(&target).map_or(0, |t| t + 1);
                    let ts = (ev.ts + delay).max(floor);
                    st.last_sent.insert(target, ts);
                    let hops = ev.hops + 1;
                    ctx.send(target, Event { ts, hops }.to_value())?;
                    written += 2;
                }
            } else {
                // Rolled back here: either a straggler older than `ev`
                // was re-enqueued into our mailbox, or a conservative deny
                // (a fossil affirm whose interval rolled back, §5.6
                // footnote 2) invalidated this guard without a straggler.
                // Withdraw the premature attempt (the guard just pushed),
                // drain everything already deliverable, and let the ordered
                // `pending` set decide what to process next.
                let withdrawn = st.guards.pop();
                debug_assert_eq!(withdrawn, Some((ev.ts, guard)));
                st.pending.insert((ev, mid));
                loop {
                    written += 1;
                    let Some(m) = ctx.try_recv()? else { break };
                    if let Some(e2) = Event::from_value(&m.payload) {
                        st.horizon.observe(m.from, e2.ts);
                        st.pending.insert((e2, m.id));
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
    use hope_sim::{LatencyModel, SimRng, Topology};

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

    /// A random state of up to `max` records per collection, every word
    /// drawn from its whole range.
    fn random_state(rng: &mut SimRng, senders: &[ProcessId], max: u64) -> LpState {
        let mut st = LpState {
            horizon: ChannelHorizon::new(senders.to_vec()),
            last_processed: rng.next_u64(),
            ..LpState::default()
        };
        let pid = |rng: &mut SimRng| ProcessId(rng.next_u64() as u32);
        for _ in 0..rng.range_u64(0, max) {
            let (ts, hops) = (rng.next_u64(), rng.next_u64());
            st.pending.insert((Event { ts, hops }, rng.next_u64()));
        }
        for _ in 0..rng.range_u64(0, max) {
            st.horizon.observe(pid(rng), rng.next_u64());
        }
        for _ in 0..rng.range_u64(0, max) {
            st.last_sent.insert(pid(rng), rng.next_u64());
        }
        for _ in 0..rng.range_u64(0, max) {
            st.guards
                .push((rng.next_u64(), AidId::from_index(rng.next_u64())));
        }
        st.guards.sort_unstable();
        st
    }

    /// State → `Value` → state is the identity and a snapshot is `8 ×
    /// snapshot_len` bytes — in particular a snapshot taken with events
    /// pending and guards open restores both — and anything the body could
    /// not have written is refused, not patched up.
    #[test]
    fn state_round_trips_through_a_snapshot() {
        // FNV-1a of "lp::state_round_trips_through_a_snapshot".
        let mut rng = SimRng::new(0xad48_efa6_2f23_0b4d);
        let senders = [ProcessId(1), ProcessId(2)];
        assert_eq!(LpState::default().snapshot_len(), 5);
        for case in 0..500 {
            let max = if case % 50 == 0 { 300 } else { 12 };
            let st = random_state(&mut rng, &senders, max);
            let v = st.to_value();
            let bytes = v.as_bytes().expect("a snapshot is one Bytes");
            assert_eq!(bytes.len(), 8 * st.snapshot_len(), "case {case}: {st:?}");
            let back = LpState::from_value(&v, senders.to_vec());
            assert_eq!(back.as_ref(), Some(&st), "case {case}");

            // Cut short by 1–7 bytes and by one word, one word extra, one
            // of the four counts overstated, a non-`Bytes` value.
            let mut bad: Vec<Value> = (1..=8)
                .map(|cut| Value::Bytes(bytes[..bytes.len() - cut].to_vec()))
                .collect();
            let mut longer = bytes.to_vec();
            longer.extend(rng.next_u64().to_le_bytes());
            bad.push(Value::Bytes(longer));
            let mut lying = bytes.to_vec();
            let count = &mut lying[8 * rng.index(4)..][..8];
            let n = u64::from_le_bytes((&*count).try_into().expect("a word"));
            count.copy_from_slice(&(n + 1).to_le_bytes());
            bad.push(Value::Bytes(lying));
            bad.push(Value::Int(bytes.len() as i64));
            for (i, v) in bad.iter().enumerate() {
                let got = LpState::from_value(v, senders.to_vec());
                assert_eq!(got, None, "case {case}, malformed input {i}");
            }
        }
    }

    /// A straggler older than everything rolls the LP back to its first
    /// guess — journal position 4, below every snapshot it took. The restart
    /// has no snapshot to resume at: `restore` answers `None` again and the
    /// seeding send is replayed from the journal, not sent a second time.
    #[test]
    fn restart_below_every_snapshot_replays_the_seeding_sends() {
        const FAST: u64 = 6;
        let mut topo = Topology::uniform(LatencyModel::Fixed(VirtualDuration::from_millis(1)));
        topo.set_link(2, 0, LatencyModel::Fixed(VirtualDuration::from_millis(50)));
        let cfg = SimConfig::with_seed(5)
            .with_topology(topo)
            .traced()
            .commit_at_quiescence();
        let mut sim = Simulation::new(cfg);
        let lp = LpConfig {
            lps: vec![ProcessId(0)],
            senders: Vec::new(),
            seed_jobs: 1,
            service_time: VirtualDuration::from_micros(100),
            mean_delay: 10,
            horizon: 0,
        };
        sim.spawn("lp0", move |ctx| run_lp(ctx, &lp));
        sim.spawn("driver-fast", move |ctx| {
            for i in 1..=FAST {
                ctx.send(
                    ProcessId(0),
                    Event {
                        ts: 10 * i,
                        hops: 0,
                    }
                    .to_value(),
                )?;
            }
            Ok(())
        });
        sim.spawn("driver-slow", move |ctx| {
            ctx.send(ProcessId(0), Event { ts: 0, hops: 9 }.to_value())?;
            Ok(())
        });
        let report = sim.run();
        assert!(report.errors().is_empty(), "{report}");
        let stats = report.stats();
        // `Restore`, the seed's send, its recv and aid_init, then the guess.
        let cut = "ROLLBACK of 7 interval(s) to journal position 4";
        assert!(report.trace().iter().any(|l| l.contains(cut)), "{report}");
        // Five entries per event (recv, aid_init, guess, compute, output)
        // less the first two, the straggler's recv and deny — and every
        // snapshot taken by then.
        assert!(stats.truncated_entries > 5 * (1 + FAST), "no snapshot cut");
        // The straggler's `ts = 0` is not past the horizon: it alone is
        // forwarded, once (and straggles again when it bounces back).
        assert_eq!(stats.messages_sent, 1 + FAST + 1 + 1, "one seed, sent once");
        let lines: Vec<&str> = report.outputs().iter().map(|o| o.line.as_str()).collect();
        let mut want = vec!["handled ts=0 hops=9".into(), "handled ts=1 hops=0".into()];
        want.extend((1..=FAST).map(|i| format!("handled ts={} hops=0", 10 * i)));
        assert_eq!(lines.len(), want.len() + 1, "{report}");
        for line in want {
            assert_eq!(lines.iter().filter(|l| **l == line).count(), 1, "{line}");
        }
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
