//! Server side: the verifying service (the generalized WorryWart).
//!
//! [`serve_verified`] wraps an ordinary request handler so that the same
//! server answers both pessimistic RPCs ([`sync_call`](crate::sync_call))
//! and optimistic streamed calls ([`stream_call`](crate::stream_call)). For
//! a streamed call it plays the paper's WorryWart: it executes the request
//! for real, compares the actual response against the client's prediction,
//! and **affirms** the assumption on a match or **denies** it — shipping
//! the actual response alongside — on a mismatch.

use hope_runtime::{Ctx, Hope, MsgKind, Value};
use hope_sim::VirtualDuration;

use crate::protocol::StreamRequest;

/// Statistics a verifying server accumulates (returned per-request to the
/// supplied observer, and usable by benchmarks via closure capture).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum VerifyOutcome {
    /// The prediction matched; the assumption was affirmed.
    Affirmed,
    /// The prediction missed; the assumption was denied and the actual
    /// response shipped.
    Denied,
    /// The request was a plain pessimistic RPC; answered directly.
    Plain,
}

/// Run a verifying server until shutdown.
///
/// `handler` maps a request payload to a response; `cost` is the virtual
/// CPU time charged per request (the work the RPC actually does).
///
/// This function loops forever; the process ends when the simulation shuts
/// down, so the server always appears in
/// [`RunReport::unfinished`](hope_runtime::RunReport::unfinished).
///
/// # Errors
///
/// Propagates runtime [`Signal`](hope_runtime::Signal)s (that is how the
/// loop terminates).
pub fn serve_verified(
    ctx: &mut Ctx,
    cost: VirtualDuration,
    mut handler: impl FnMut(&Value) -> Value,
    mut observer: impl FnMut(VerifyOutcome),
) -> Hope<()> {
    loop {
        let msg = ctx.recv()?;
        match StreamRequest::from_value(&msg.payload) {
            Some(stream) => {
                ctx.compute(cost)?;
                let actual = handler(&stream.request);
                if actual == stream.predicted {
                    ctx.affirm(stream.aid)?;
                    observer(VerifyOutcome::Affirmed);
                } else {
                    // Ship the truth first so it is already in flight when
                    // the client's rollback re-executes the guess.
                    if matches!(msg.kind, MsgKind::Request(_)) {
                        ctx.reply(&msg, actual)?;
                    }
                    ctx.deny(stream.aid)?;
                    observer(VerifyOutcome::Denied);
                }
            }
            None => {
                // A pessimistic RPC: compute and reply.
                ctx.compute(cost)?;
                let actual = handler(&msg.payload);
                if matches!(msg.kind, MsgKind::Request(_)) {
                    ctx.reply(&msg, actual)?;
                }
                observer(VerifyOutcome::Plain);
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::client::{stream_call, sync_call};
    use hope_runtime::{ProcessId, SimConfig, Simulation};
    use hope_sim::{LatencyModel, Topology};

    fn ms(v: u64) -> VirtualDuration {
        VirtualDuration::from_millis(v)
    }

    /// Doubling server; client predicts correctly.
    #[test]
    fn correct_prediction_hides_latency() {
        let topo = Topology::uniform(LatencyModel::Fixed(ms(10)));
        let server = ProcessId(1);

        // Optimistic client: two dependent calls, both predicted right.
        let mut sim = Simulation::new(SimConfig::with_seed(1).with_topology(topo.clone()));
        let client = sim.spawn("client", move |ctx| {
            let a = stream_call(ctx, server, Value::Int(3), Value::Int(6))?;
            let b = stream_call(ctx, server, a.clone(), Value::Int(12))?;
            ctx.output(format!("result={b}"))?;
            Ok(())
        });
        sim.spawn("server", |ctx| {
            serve_verified(ctx, ms(1), |v| Value::Int(v.expect_int() * 2), |_| {})
        });
        let opt = sim.run();
        assert_eq!(opt.output_lines(), vec!["result=12"]);
        let opt_time = opt.finish_time(client).unwrap();

        // Pessimistic client: same calls, synchronous.
        let mut sim = Simulation::new(SimConfig::with_seed(1).with_topology(topo));
        let client = sim.spawn("client", move |ctx| {
            let a = sync_call(ctx, server, Value::Int(3))?;
            let b = sync_call(ctx, server, a.clone())?;
            ctx.output(format!("result={b}"))?;
            Ok(())
        });
        sim.spawn("server", |ctx| {
            serve_verified(ctx, ms(1), |v| Value::Int(v.expect_int() * 2), |_| {})
        });
        let pess = sim.run();
        assert_eq!(pess.output_lines(), vec!["result=12"]);
        let pess_time = pess.finish_time(client).unwrap();

        // The optimistic client finished immediately (its guesses were
        // affirmed later); the pessimistic one paid 2 round trips + compute.
        assert!(
            opt_time < pess_time,
            "optimistic {opt_time} !< pessimistic {pess_time}"
        );
        assert_eq!(pess_time.as_millis_f64(), 2.0 * (20.0 + 1.0));
        assert_eq!(opt.stats().rollback_events, 0);
    }

    /// Client predicts wrong: rollback, and the result is still correct.
    #[test]
    fn wrong_prediction_rolls_back_to_truth() {
        let topo = Topology::uniform(LatencyModel::Fixed(ms(10)));
        let server = ProcessId(1);
        let mut sim = Simulation::new(SimConfig::with_seed(1).with_topology(topo));
        sim.spawn("client", move |ctx| {
            let a = stream_call(ctx, server, Value::Int(3), Value::Int(999))?;
            ctx.output(format!("result={a}"))?;
            Ok(())
        });
        sim.spawn("server", |ctx| {
            serve_verified(ctx, ms(1), |v| Value::Int(v.expect_int() * 2), |_| {})
        });
        let report = sim.run();
        assert_eq!(report.output_lines(), vec!["result=6"]);
        assert_eq!(report.stats().rollback_events, 1);
        assert!(report.stats().replays >= 1);
    }

    /// A chain where the middle prediction misses: only the suffix re-runs.
    #[test]
    fn chained_calls_with_one_miss() {
        let topo = Topology::uniform(LatencyModel::Fixed(ms(10)));
        let server = ProcessId(1);
        let mut sim = Simulation::new(SimConfig::with_seed(1).with_topology(topo));
        sim.spawn("client", move |ctx| {
            let a = stream_call(ctx, server, Value::Int(1), Value::Int(2))?; // right
            let b = stream_call(ctx, server, a.clone(), Value::Int(5))?; // wrong (4)
            let c = stream_call(ctx, server, b.clone(), Value::Int(8))?; // right (8)
            ctx.output(format!("chain={a},{b},{c}"))?;
            Ok(())
        });
        let outcomes = std::sync::Arc::new(std::sync::Mutex::new(Vec::new()));
        let obs = outcomes.clone();
        sim.spawn("server", move |ctx| {
            let obs = obs.clone();
            serve_verified(
                ctx,
                ms(1),
                |v| Value::Int(v.expect_int() * 2),
                move |o| obs.lock().unwrap().push(o),
            )
        });
        let report = sim.run();
        assert_eq!(report.output_lines(), vec!["chain=2,4,8"]);
        assert!(report.stats().rollback_events >= 1);
        let seen = outcomes.lock().unwrap();
        assert!(seen.contains(&VerifyOutcome::Denied));
        assert!(seen.contains(&VerifyOutcome::Affirmed));
    }
}
