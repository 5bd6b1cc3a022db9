//! The client-side replica: a local cache with optimistic writes.
//!
//! §7 of the paper: "A local cached replica of a piece of data can greatly
//! reduce the latency of access to that data, and optimistically assuming
//! consistency can reduce the latency of updating replicated data."
//!
//! [`Replica::write_optimistic`] follows the **send-then-guess** discipline
//! of Figure 2: the update leaves *before* the guess, so its dependence tag
//! contains only prior assumptions — which, thanks to per-link FIFO, the
//! primary has already decided by the time the message arrives. The primary
//! therefore stays definite, its affirms commit promptly, and the client
//! hides a full round trip per uncontended update.

use hope_core::ProcessId;
use hope_runtime::{Ctx, Hope, Message, MsgKind, Value};

use crate::kv::VersionedStore;
use crate::messages::RepMsg;

/// A client-side replica handle. Keep it inside the process body; all its
/// decisions flow from `Ctx` results, so journal replay rebuilds it
/// correctly after rollback.
#[derive(Debug)]
pub struct Replica {
    primary: ProcessId,
    cache: VersionedStore,
    /// Updates that were denied at least once (for statistics).
    pub conflicts: u64,
}

impl Replica {
    /// A replica of the store at `primary`, starting with a cold cache.
    pub fn new(primary: ProcessId) -> Self {
        Replica {
            primary,
            cache: VersionedStore::new(),
            conflicts: 0,
        }
    }

    /// The local cache (for inspection in tests).
    pub fn cache(&self) -> &VersionedStore {
        &self.cache
    }

    /// Absorb any queued update notices from the primary without blocking.
    ///
    /// # Errors
    ///
    /// Propagates runtime [`Signal`](hope_runtime::Signal)s.
    pub fn drain_notices(&mut self, ctx: &mut Ctx) -> Hope<usize> {
        let mut n = 0;
        while let Some(m) = ctx.try_recv_matching(is_notice)? {
            if let Some(RepMsg::Notice {
                key,
                value,
                version,
            }) = RepMsg::from_value(&m.payload)
            {
                if version > self.cache.version(&key) {
                    self.cache.install(&key, value, version);
                }
                n += 1;
            }
        }
        Ok(n)
    }

    /// Read `key`: local cache hit if possible, otherwise a synchronous
    /// fetch from the primary (which warms the cache).
    ///
    /// # Errors
    ///
    /// Propagates runtime [`Signal`](hope_runtime::Signal)s.
    pub fn read(&mut self, ctx: &mut Ctx, key: &str) -> Hope<Value> {
        self.drain_notices(ctx)?;
        if let Some((v, _)) = self.cache.get(key) {
            return Ok(v.clone());
        }
        let reply = ctx.rpc(self.primary, RepMsg::Read { key: key.into() }.to_value())?;
        if let Some(RepMsg::State {
            key,
            value,
            version,
        }) = RepMsg::from_value(&reply)
        {
            self.cache.install(&key, value.clone(), version);
            Ok(value)
        } else {
            Ok(Value::Unit)
        }
    }

    /// Optimistically update `key` to `value`, hiding the certification
    /// round trip behind subsequent computation.
    ///
    /// Returns `true` if the first attempt committed; on a conflict the
    /// call transparently rolls back, installs the primary's repair state
    /// into the cache, retries once with the corrected version, and then
    /// reports `false`. (A second conflict repeats the cycle; the loop
    /// terminates because each repair advances the cached version.)
    ///
    /// # Errors
    ///
    /// Propagates runtime [`Signal`](hope_runtime::Signal)s.
    pub fn write_optimistic(&mut self, ctx: &mut Ctx, key: &str, value: Value) -> Hope<bool> {
        self.write_with(ctx, key, value, false)
    }

    /// Like [`Replica::write_optimistic`], but ships the update over
    /// [`Ctx::send_reliable`], so the write survives an unreliable link or
    /// a primary outage: dropped or outage-lost update messages are
    /// retransmitted (with the same dependence tag) until the primary acks
    /// them. Use this variant under fault injection.
    ///
    /// # Errors
    ///
    /// Propagates runtime [`Signal`](hope_runtime::Signal)s.
    pub fn write_reliable(&mut self, ctx: &mut Ctx, key: &str, value: Value) -> Hope<bool> {
        self.write_with(ctx, key, value, true)
    }

    fn write_with(&mut self, ctx: &mut Ctx, key: &str, value: Value, reliable: bool) -> Hope<bool> {
        self.drain_notices(ctx)?;
        let mut first_try = true;
        loop {
            let expected = self.cache.version(key);
            let aid = ctx.aid_init()?;
            let payload = RepMsg::Update {
                aid,
                key: key.into(),
                value: value.clone(),
                expected,
            }
            .to_value();
            if reliable {
                ctx.send_reliable(self.primary, payload)?;
            } else {
                ctx.send(self.primary, payload)?;
            }
            if ctx.guess(aid)? {
                // Optimistic path: assume certification succeeds.
                self.cache.install(key, value, expected + 1);
                return Ok(first_try);
            }
            // Denied: the repair state the primary shipped is (or will be)
            // in our mailbox. Install it and retry with the true version.
            self.conflicts += 1;
            first_try = false;
            let key_owned = key.to_string();
            let m = ctx.recv_matching(move |m| is_state_for(m, &key_owned))?;
            if let Some(RepMsg::State {
                key: k,
                value: v,
                version,
            }) = RepMsg::from_value(&m.payload)
            {
                self.cache.install(&k, v, version);
            }
        }
    }

    /// Atomically (all-or-nothing) update several keys under **one**
    /// assumption, optimistically.
    ///
    /// All updates ship in one message; the primary certifies every key's
    /// version before applying any (see
    /// [`RepMsg::MultiUpdate`](crate::RepMsg)), affirming or denying the
    /// single AID. On denial this client rolls back, installs the repair
    /// states, and retries with corrected versions. Returns `true` if the
    /// first attempt committed.
    ///
    /// # Errors
    ///
    /// Propagates runtime [`Signal`](hope_runtime::Signal)s.
    ///
    /// # Panics
    ///
    /// Panics if `updates` is empty.
    pub fn write_many_optimistic(
        &mut self,
        ctx: &mut Ctx,
        updates: &[(&str, Value)],
    ) -> Hope<bool> {
        assert!(!updates.is_empty(), "atomic write of nothing");
        self.drain_notices(ctx)?;
        let mut first_try = true;
        loop {
            let entries: Vec<(String, Value, u64)> = updates
                .iter()
                .map(|(k, v)| (k.to_string(), v.clone(), self.cache.version(k)))
                .collect();
            let aid = ctx.aid_init()?;
            ctx.send(
                self.primary,
                RepMsg::MultiUpdate {
                    aid,
                    entries: entries.clone(),
                }
                .to_value(),
            )?;
            if ctx.guess(aid)? {
                for (k, v, expected) in entries {
                    self.cache.install(&k, v, expected + 1);
                }
                return Ok(first_try);
            }
            // Denied: repairs for the conflicting keys are in flight.
            self.conflicts += 1;
            first_try = false;
            let keys: Vec<String> = updates.iter().map(|(k, _)| k.to_string()).collect();
            for key in keys {
                let key_for_match = key.clone();
                let m = ctx.recv_matching(move |m| is_state_for(m, &key_for_match))?;
                if let Some(RepMsg::State {
                    key: k,
                    value: v,
                    version,
                }) = RepMsg::from_value(&m.payload)
                {
                    self.cache.install(&k, v, version);
                }
            }
        }
    }

    /// The pessimistic baseline: a synchronous certify round trip, retrying
    /// on conflict. Returns `true` if the first attempt committed.
    ///
    /// # Errors
    ///
    /// Propagates runtime [`Signal`](hope_runtime::Signal)s.
    pub fn write_pessimistic(&mut self, ctx: &mut Ctx, key: &str, value: Value) -> Hope<bool> {
        self.drain_notices(ctx)?;
        let mut first_try = true;
        loop {
            let expected = self.cache.version(key);
            let reply = ctx.rpc(
                self.primary,
                RepMsg::SyncUpdate {
                    key: key.into(),
                    value: value.clone(),
                    expected,
                }
                .to_value(),
            )?;
            if let Some(RepMsg::State {
                key: k,
                value: v,
                version,
            }) = RepMsg::from_value(&reply)
            {
                let committed = version == expected + 1 && v == value;
                self.cache.install(&k, v, version);
                if committed {
                    return Ok(first_try);
                }
                self.conflicts += 1;
                first_try = false;
            } else {
                return Ok(false);
            }
        }
    }
}

fn is_notice(m: &Message) -> bool {
    matches!(RepMsg::from_value(&m.payload), Some(RepMsg::Notice { .. }))
}

fn is_state_for(m: &Message, key: &str) -> bool {
    // Repairs arrive as plain or reliable sends; RPC replies (which also
    // carry `State` payloads) are claimed by the rpc machinery instead.
    !matches!(m.kind, MsgKind::Request(_) | MsgKind::Reply(_))
        && matches!(
            RepMsg::from_value(&m.payload),
            Some(RepMsg::State { key: k, .. }) if k == key
        )
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::primary::run_primary;
    use hope_runtime::{SimConfig, Simulation};
    use hope_sim::{LatencyModel, Topology, VirtualDuration};

    fn ms(v: u64) -> VirtualDuration {
        VirtualDuration::from_millis(v)
    }

    fn topo() -> Topology {
        Topology::uniform(LatencyModel::Fixed(ms(5)))
    }

    #[test]
    fn uncontended_optimistic_writes_commit_and_hide_latency() {
        let primary = ProcessId(1);
        let run = |optimistic: bool| {
            let mut sim = Simulation::new(SimConfig::with_seed(2).with_topology(topo()));
            let client = sim.spawn("client", move |ctx| {
                let mut rep = Replica::new(primary);
                for i in 0..5 {
                    let ok = if optimistic {
                        rep.write_optimistic(ctx, "x", Value::Int(i))?
                    } else {
                        rep.write_pessimistic(ctx, "x", Value::Int(i))?
                    };
                    assert!(ok, "uncontended writes commit first try");
                    ctx.compute(VirtualDuration::from_micros(50))?;
                }
                let final_value = rep.read(ctx, "x")?;
                ctx.output(format!("final={final_value}"))?;
                Ok(())
            });
            sim.spawn("primary", move |ctx| {
                run_primary(
                    ctx,
                    vec![ProcessId(0)],
                    VirtualDuration::from_micros(10),
                    |_| {},
                )
            });
            let r = sim.run();
            assert_eq!(r.output_lines(), vec!["final=4"], "{r}");
            (r.finish_time(client).unwrap(), r.stats().rollback_events)
        };
        let (opt_time, opt_rollbacks) = run(true);
        let (pess_time, _) = run(false);
        assert_eq!(opt_rollbacks, 0);
        assert!(
            opt_time < pess_time,
            "optimistic {opt_time} !< pessimistic {pess_time}"
        );
    }

    #[test]
    fn conflicting_writers_converge() {
        let primary = ProcessId(2);
        let mut sim = Simulation::new(SimConfig::with_seed(3).with_topology(topo()));
        for idx in 0..2u32 {
            sim.spawn(format!("client{idx}"), move |ctx| {
                let mut rep = Replica::new(primary);
                // Both clients race on the same key with a cold cache:
                // one certification wins, the other conflicts and retries.
                let _ = rep.write_optimistic(ctx, "shared", Value::Int(100 + idx as i64))?;
                ctx.output(format!("done conflicts={}", rep.conflicts))?;
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
        let r = sim.run();
        assert!(r.errors().is_empty(), "{r}");
        let lines = r.output_lines();
        assert_eq!(lines.len(), 2, "{r}");
        // Exactly one client conflicted (the loser of the race).
        let total_conflicts: u64 = lines
            .iter()
            .map(|l| {
                l.split("conflicts=")
                    .nth(1)
                    .unwrap()
                    .parse::<u64>()
                    .unwrap()
            })
            .sum();
        assert_eq!(total_conflicts, 1, "{lines:?}");
        assert!(r.stats().rollback_events >= 1);
    }

    #[test]
    fn read_your_writes_holds_while_speculative() {
        // Session guarantee: immediately after an optimistic write —
        // before the primary has certified anything — the writer's own
        // reads observe the new value (from the local cache), and the
        // guarantee survives commitment.
        let primary = ProcessId(1);
        let mut sim = Simulation::new(SimConfig::with_seed(6).with_topology(topo()));
        sim.spawn("client", move |ctx| {
            let mut rep = Replica::new(primary);
            rep.write_optimistic(ctx, "k", Value::Int(1))?;
            // Still speculative: the certification is in flight.
            let v = rep.read(ctx, "k")?;
            assert_eq!(v, Value::Int(1), "read-your-writes while speculative");
            rep.write_optimistic(ctx, "k", Value::Int(2))?;
            let v = rep.read(ctx, "k")?;
            assert_eq!(v, Value::Int(2));
            ctx.output(format!("final read={v}"))?;
            Ok(())
        });
        sim.spawn("primary", move |ctx| {
            run_primary(
                ctx,
                vec![ProcessId(0)],
                VirtualDuration::from_micros(10),
                |_| {},
            )
        });
        let r = sim.run();
        assert_eq!(r.output_lines(), vec!["final read=2"], "{r}");
        assert_eq!(r.stats().rollback_events, 0);
    }

    #[test]
    fn multi_key_write_is_atomic() {
        // Two clients race on an overlapping pair of keys with multi-key
        // transactions; all-or-nothing certification means the final
        // versions of the pair advance in lock-step.
        let primary = ProcessId(2);
        let mut sim = Simulation::new(SimConfig::with_seed(12).with_topology(topo()));
        for c in 0..2u32 {
            sim.spawn(format!("client{c}"), move |ctx| {
                let mut rep = Replica::new(primary);
                let v = 100 + c as i64;
                let ok = rep.write_many_optimistic(
                    ctx,
                    &[("left", Value::Int(v)), ("right", Value::Int(v))],
                )?;
                ctx.output(format!("client{c} first_try={ok}"))?;
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
        // Auditor: both keys must hold the same writer's value.
        sim.spawn("auditor", move |ctx| {
            ctx.compute(ms(200))?;
            let mut rep = Replica::new(primary);
            let l = rep.read(ctx, "left")?;
            let r = rep.read(ctx, "right")?;
            assert_eq!(l, r, "transaction torn apart");
            ctx.output(format!("pair={l}"))?;
            Ok(())
        });
        let report = sim.run();
        assert!(report.errors().is_empty(), "{report}");
        let lines = report.output_lines();
        // One winner, one retried loser.
        assert!(
            lines.iter().any(|l| l.contains("first_try=true")),
            "{lines:?}"
        );
        assert!(
            lines.iter().any(|l| l.contains("first_try=false")),
            "{lines:?}"
        );
        assert!(lines.iter().any(|l| l.starts_with("pair=")), "{lines:?}");
        assert!(report.stats().rollback_events >= 1);
    }

    #[test]
    fn multi_key_write_uncontended_commits_first_try() {
        let primary = ProcessId(1);
        let mut sim = Simulation::new(SimConfig::with_seed(3).with_topology(topo()));
        sim.spawn("client", move |ctx| {
            let mut rep = Replica::new(primary);
            let ok = rep.write_many_optimistic(
                ctx,
                &[
                    ("a", Value::Int(1)),
                    ("b", Value::Int(2)),
                    ("c", Value::Int(3)),
                ],
            )?;
            assert!(ok);
            // Read-your-writes across the transaction.
            assert_eq!(rep.read(ctx, "b")?, Value::Int(2));
            ctx.output("txn ok")?;
            Ok(())
        });
        sim.spawn("primary", move |ctx| {
            run_primary(
                ctx,
                vec![ProcessId(0)],
                VirtualDuration::from_micros(10),
                |_| {},
            )
        });
        let r = sim.run();
        assert_eq!(r.output_lines(), vec!["txn ok"], "{r}");
        assert_eq!(r.stats().rollback_events, 0);
    }

    #[test]
    fn reliable_writes_survive_a_lossy_link() {
        let primary = ProcessId(1);
        let plan = hope_runtime::FaultPlan::new(17).drop_rate(0.3);
        let mut sim = Simulation::new(
            SimConfig::with_seed(2)
                .with_topology(topo())
                .with_faults(plan),
        );
        sim.spawn("client", move |ctx| {
            let mut rep = Replica::new(primary);
            for i in 0..5 {
                rep.write_reliable(ctx, "x", Value::Int(i))?;
                ctx.output(format!("wrote {i}"))?;
            }
            Ok(())
        });
        sim.spawn("primary", move |ctx| {
            run_primary(
                ctx,
                vec![ProcessId(0)],
                VirtualDuration::from_micros(10),
                |_| {},
            )
        });
        let r = sim.run();
        assert_eq!(
            r.output_lines(),
            vec!["wrote 0", "wrote 1", "wrote 2", "wrote 3", "wrote 4"],
            "{r}"
        );
        assert!(r.stats().faults.drops > 0, "{r}");
        assert!(r.stats().faults.retries > 0, "{r}");
    }

    #[test]
    fn killed_client_recovers_via_primary_repair() {
        // The client dies with update assumptions still open. The kill
        // denies them; on restart the client replays its journal prefix,
        // its guesses return false, and it falls into the repair loop —
        // which works because the primary's `try_affirm` detects the
        // no-op affirm and ships the committed state explicitly.
        let primary = ProcessId(1);
        let plan = hope_runtime::FaultPlan::new(9).kill(0, 12, Some(ms(10)));
        let mut sim = Simulation::new(
            SimConfig::with_seed(2)
                .with_topology(topo())
                .with_faults(plan),
        );
        sim.spawn("client", move |ctx| {
            let mut rep = Replica::new(primary);
            for i in 0..5 {
                rep.write_reliable(ctx, "x", Value::Int(i))?;
                ctx.output(format!("wrote {i}"))?;
            }
            Ok(())
        });
        sim.spawn("primary", move |ctx| {
            run_primary(
                ctx,
                vec![ProcessId(0)],
                VirtualDuration::from_micros(10),
                |_| {},
            )
        });
        let r = sim.run();
        assert_eq!(
            r.output_lines(),
            vec!["wrote 0", "wrote 1", "wrote 2", "wrote 3", "wrote 4"],
            "{r}"
        );
        assert_eq!(r.stats().faults.kills, 1, "{r}");
        assert_eq!(r.stats().faults.restarts, 1, "{r}");
        assert!(r.stats().faults.crash_denies > 0, "{r}");
        assert!(r.stats().rollback_events > 0, "{r}");
    }

    #[test]
    fn notices_propagate_to_other_replicas() {
        let primary = ProcessId(2);
        let mut sim = Simulation::new(SimConfig::with_seed(4).with_topology(topo()));
        sim.spawn("writer", move |ctx| {
            let mut rep = Replica::new(primary);
            rep.write_optimistic(ctx, "k", Value::Int(9))?;
            Ok(())
        });
        sim.spawn("reader", move |ctx| {
            let mut rep = Replica::new(primary);
            // Wait long enough for the notice to arrive, then read locally.
            ctx.compute(ms(100))?;
            rep.drain_notices(ctx)?;
            ctx.output(format!("cached={:?}", rep.cache().get("k").is_some()))?;
            Ok(())
        });
        sim.spawn("primary", move |ctx| {
            run_primary(
                ctx,
                vec![ProcessId(0), ProcessId(1)],
                VirtualDuration::from_micros(10),
                |_| {},
            )
        });
        let r = sim.run();
        assert_eq!(r.output_lines(), vec!["cached=true"], "{r}");
    }
}
