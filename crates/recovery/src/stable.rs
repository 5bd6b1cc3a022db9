//! The stable-storage process: flushes log entries and verifies the
//! paper's canonical fault-tolerance assumption.
//!
//! §1 of the paper lists, among the subtler forms of optimism, "the
//! concurrency introduced between the volatile and stable-storage
//! components of a fault-tolerant application"; §2 describes optimistic
//! recovery protocols \[24\] whose basic mechanism "is to optimistically
//! assume that the sender of a message will checkpoint its state to stable
//! storage before failure at that node occurs". Here the assumption is
//! explicit: every log entry carries an AID meaning *"this entry will
//! reach stable storage"*. A successful flush affirms it.
//!
//! Crashes are no longer simulated by hand inside the store (early
//! versions drew a `chance(crash_rate)` and denied the entry themselves):
//! they are injected by a [`FaultPlan`](hope_runtime::FaultPlan) kill, and
//! the HOPE semantics do the rest. Killing the *application* denies its
//! own stability assumptions, rolling it back to its last stable point on
//! restart — which is precisely recovery. Killing the *store* is pure
//! downtime (it owns no assumptions; its journal doubles as the stable
//! medium), and [`run_app_optimistic`](crate::run_app_optimistic)'s
//! reliable sends retry entries the dead store never saw.

use hope_core::AidId;
use hope_runtime::{Ctx, Hope, MsgKind, Value};
use hope_sim::VirtualDuration;

/// Encode a log-entry message: `["log", aid, seq]`.
pub fn log_entry(aid: AidId, seq: u64) -> Value {
    Value::List(vec![
        Value::Str("log".into()),
        Value::Int(aid.index() as i64),
        Value::Int(seq as i64),
    ])
}

/// Decode a log-entry message.
pub fn decode_log_entry(v: &Value) -> Option<(AidId, u64)> {
    let items = v.as_list()?;
    if items.len() != 3 || items[0].as_str()? != "log" {
        return None;
    }
    Some((
        AidId::from_index(u64::try_from(items[1].as_int()?).ok()?),
        u64::try_from(items[2].as_int()?).ok()?,
    ))
}

/// Run the stable store until simulation shutdown.
///
/// Each entry costs `flush_time` to persist, after which its stability
/// assumption is affirmed. Synchronous (request-kind) entries are
/// acknowledged with a reply instead — the pessimistic baseline path.
///
/// The store deliberately has no failure logic of its own: crash it with a
/// [`FaultPlan`](hope_runtime::FaultPlan) kill and the runtime's recovery
/// machinery (journal-prefix replay on restart, reliable-send retries for
/// entries lost in the outage) does the rest.
///
/// # Errors
///
/// Propagates runtime [`Signal`](hope_runtime::Signal)s.
pub fn run_stable_store(ctx: &mut Ctx, flush_time: VirtualDuration) -> Hope<()> {
    // Stateless, so the snapshot is `Unit`: it only marks where a rolled
    // back store (it receives the application's speculative tags) resumes.
    ctx.restore()?;
    loop {
        ctx.checkpoint(Value::Unit)?;
        let msg = ctx.recv()?;
        let Some((aid, seq)) = decode_log_entry(&msg.payload) else {
            continue;
        };
        ctx.compute(flush_time)?;
        if matches!(msg.kind, MsgKind::Request(_)) {
            ctx.reply(&msg, Value::Bool(true))?;
        } else {
            // The affirm may be a recorded no-op when a kill already denied
            // the application's assumption mid-flight; the application is
            // re-logging under a fresh AID by then.
            ctx.affirm(aid)?;
        }
        let _ = seq;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn log_entry_roundtrip() {
        let aid = AidId::from_index(4);
        let v = log_entry(aid, 9);
        assert_eq!(decode_log_entry(&v), Some((aid, 9)));
    }

    #[test]
    fn rejects_malformed() {
        assert_eq!(decode_log_entry(&Value::Unit), None);
        assert_eq!(
            decode_log_entry(&Value::List(vec![Value::Str("log".into())])),
            None
        );
        assert_eq!(
            decode_log_entry(&Value::List(vec![
                Value::Str("nope".into()),
                Value::Int(0),
                Value::Int(0),
            ])),
            None
        );
    }
}
