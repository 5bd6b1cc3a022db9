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
//!
//! A log entry is one word: [`log_entry`] packs the AID and the step's
//! sequence number into a single `Value::Int`, and [`decode_log_entry`]
//! reads nothing else. As in Mezzina–Tiezzi–Yoshida's checkpoint-based
//! recovery, the store's journal keeps the received message itself for
//! replay, and an `Int` payload makes every copy of it — the retransmit
//! copy, the one each receive and replay hands the body — free of
//! allocation.

use hope_core::AidId;
use hope_runtime::{Ctx, Hope, MsgKind, Value};
use hope_sim::VirtualDuration;

/// Encode a log-entry message: one `Int`, the AID's index in the low 32
/// bits and `seq` in the next 31, so the word is never negative. An entry
/// travels in every send, retransmission, journaled receive and replay,
/// and an `Int` clones without allocating.
///
/// # Panics
///
/// Panics if the AID's index is 2³² or more, or `seq` is 2³¹ or more.
pub fn log_entry(aid: AidId, seq: u64) -> Value {
    let index = aid.index();
    assert!(
        index <= u64::from(u32::MAX),
        "a log entry's AID index must fit in 32 bits: {index}"
    );
    assert!(
        seq < 1 << 31,
        "a log entry's seq must fit in 31 bits: {seq}"
    );
    Value::Int((seq << 32 | index) as i64)
}

/// Decode a log-entry message.
///
/// Returns `None` for anything but a non-negative `Int`; every such `Int`
/// is some entry's encoding.
pub fn decode_log_entry(v: &Value) -> Option<(AidId, u64)> {
    let word = u64::try_from(v.as_int()?).ok()?;
    Some((AidId::from_index(word & u64::from(u32::MAX)), word >> 32))
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
    use hope_sim::SimRng;

    #[test]
    fn a_log_entry_round_trips_as_one_word() {
        let (aid_max, seq_max) = (u64::from(u32::MAX), (1 << 31) - 1);
        let corners = [(0, 0), (aid_max, 0), (0, seq_max), (aid_max, seq_max)];
        // FNV-1a of "stable::a_log_entry_round_trips_as_one_word".
        let mut rng = SimRng::new(0x1708_e94e_6994_2898);
        let drawn = (0..1_000).map(|_| (rng.next_u64() >> 32, rng.next_u64() >> 33));
        for (index, seq) in corners.into_iter().chain(drawn) {
            let aid = AidId::from_index(index);
            let v = log_entry(aid, seq);
            assert!(matches!(v, Value::Int(w) if w >= 0), "{v:?}");
            assert_eq!(decode_log_entry(&v), Some((aid, seq)), "{index} {seq}");
        }
    }

    #[test]
    fn decoding_refuses_every_other_value() {
        let old = Value::List(vec![Value::Str("log".into()), Value::Int(4), Value::Int(9)]);
        for v in [
            old,
            Value::Str("log".into()),
            Value::Unit,
            Value::Bool(true),
            Value::Bytes(vec![0; 8]),
            Value::List(vec![Value::Int(0)]),
            Value::Int(-1),
            Value::Int(i64::MIN),
        ] {
            assert_eq!(decode_log_entry(&v), None, "{v:?}");
        }
    }

    #[test]
    #[should_panic(expected = "AID index must fit in 32 bits")]
    fn an_aid_index_past_32_bits_panics() {
        log_entry(AidId::from_index(1 << 32), 0);
    }

    #[test]
    #[should_panic(expected = "seq must fit in 31 bits")]
    fn a_seq_past_31_bits_panics() {
        log_entry(AidId::from_index(0), 1 << 31);
    }
}
