//! Messages and mailboxes.
//!
//! Every message carries the dependence [`Tag`] its sender had at send time
//! (§3 of the paper); receipt implicitly guesses the tag's undecided AIDs,
//! and messages whose tag contains a denied AID are ghosts, dropped before
//! delivery. Mailboxes are ordered by `(delivery time, sequence)` so runs
//! are deterministic, and per-link FIFO is enforced by the scheduler.

use std::collections::BTreeMap;
use std::fmt;

use hope_core::{AidId, ProcessId, Tag};
use hope_sim::VirtualTime;

use crate::value::Value;

/// How a message participates in the request/reply protocol.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum MsgKind {
    /// A one-way message.
    Plain,
    /// An RPC request; the call id correlates the reply.
    Request(u64),
    /// An RPC reply to the request with the same call id.
    Reply(u64),
    /// A [`Ctx::send_reliable`](crate::Ctx::send_reliable) message: `seq`
    /// is the sender's per-process logical sequence number (stable across
    /// retransmissions, used for receiver-side deduplication) and `aid` is
    /// the sender's "delivered" assumption, which the runtime's ack
    /// affirms on delivery.
    Reliable {
        /// Per-sender logical sequence number.
        seq: u64,
        /// The sender's "delivered" assumption for this attempt.
        aid: AidId,
    },
}

impl MsgKind {
    /// The call id, for requests and replies.
    pub fn call_id(&self) -> Option<u64> {
        match self {
            MsgKind::Plain | MsgKind::Reliable { .. } => None,
            MsgKind::Request(id) | MsgKind::Reply(id) => Some(*id),
        }
    }
}

/// Mailbox ordering key: delivery time, then global sequence number.
pub(crate) type MailKey = (VirtualTime, u64);

/// A message as delivered to a receiving process.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Message {
    /// Globally unique message id.
    pub id: u64,
    /// The sending process.
    pub from: ProcessId,
    /// The destination process.
    pub to: ProcessId,
    /// Protocol role.
    pub kind: MsgKind,
    /// Payload.
    pub payload: Value,
    /// The sender's dependence set at send time.
    pub tag: Tag,
    /// When the message reached the destination's mailbox.
    pub delivered_at: VirtualTime,
    /// Mailbox tiebreak sequence (set by the scheduler).
    pub(crate) seq: u64,
}

impl Message {
    pub(crate) fn mail_key(&self) -> MailKey {
        (self.delivered_at, self.seq)
    }

    /// Construct a free-standing message, for testing protocol decoders
    /// outside a running simulation. Messages delivered by the runtime are
    /// always built by the scheduler.
    pub fn synthetic(from: ProcessId, to: ProcessId, kind: MsgKind, payload: Value) -> Message {
        Message {
            id: 0,
            from,
            to,
            kind,
            payload,
            tag: Tag::new(),
            delivered_at: VirtualTime::ZERO,
            seq: 0,
        }
    }

    /// `true` if this message replies to the call with `call_id`.
    pub fn is_reply_to(&self, call_id: u64) -> bool {
        self.kind == MsgKind::Reply(call_id)
    }

    /// The sender's logical sequence number, for messages sent with
    /// [`Ctx::send_reliable`](crate::Ctx::send_reliable). Retransmissions
    /// of one logical send keep their number (the deduplication key), but
    /// numbers are *not* dense: a send rolled back by a cascade re-executes
    /// under a fresh number (reuse would collide with the receiver's dedup
    /// memory of the dead copy). Receivers expecting in-order data should
    /// therefore match on an index carried in the payload, not on this.
    pub fn reliable_seq(&self) -> Option<u64> {
        match self.kind {
            MsgKind::Reliable { seq, .. } => Some(seq),
            _ => None,
        }
    }
}

impl fmt::Display for Message {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "m{} {}→{} {:?} {} tag={}",
            self.id, self.from, self.to, self.kind, self.payload, self.tag
        )
    }
}

/// A process's inbound queue, ordered by delivery.
pub(crate) type Mailbox = BTreeMap<MailKey, Message>;

#[cfg(test)]
mod tests {
    use super::*;
    use hope_sim::VirtualDuration;

    fn msg(id: u64, ms: u64, seq: u64) -> Message {
        Message {
            id,
            from: ProcessId(0),
            to: ProcessId(1),
            kind: MsgKind::Plain,
            payload: Value::Int(id as i64),
            tag: Tag::new(),
            delivered_at: VirtualTime::ZERO + VirtualDuration::from_millis(ms),
            seq,
        }
    }

    #[test]
    fn mailbox_orders_by_delivery_then_seq() {
        let mut mb: Mailbox = BTreeMap::new();
        for m in [msg(1, 5, 2), msg(2, 3, 1), msg(3, 5, 0)] {
            mb.insert(m.mail_key(), m);
        }
        let order: Vec<u64> = mb.values().map(|m| m.id).collect();
        assert_eq!(order, vec![2, 3, 1]);
    }

    #[test]
    fn kinds_and_call_ids() {
        assert_eq!(MsgKind::Plain.call_id(), None);
        assert_eq!(MsgKind::Request(7).call_id(), Some(7));
        assert_eq!(MsgKind::Reply(7).call_id(), Some(7));
        let mut m = msg(1, 1, 0);
        m.kind = MsgKind::Reply(9);
        assert!(m.is_reply_to(9));
        assert!(!m.is_reply_to(8));
    }

    #[test]
    fn reliable_kind_exposes_seq_but_no_call_id() {
        let mut m = msg(1, 1, 0);
        assert_eq!(m.reliable_seq(), None);
        m.kind = MsgKind::Reliable {
            seq: 42,
            aid: hope_core::AidId::from_index(3),
        };
        assert_eq!(m.reliable_seq(), Some(42));
        assert_eq!(m.kind.call_id(), None);
    }

    #[test]
    fn a_message_is_128_bytes() {
        // The tag is one 40-byte inline `DepSet`; mailboxes, the event
        // queue and every send move messages by value. This crate's tests
        // link `hope-core` with its `shadow-oracle` feature (see
        // Cargo.toml), which gives the tag a `BTreeSet` shadow the shipped
        // message does not have.
        let shadow = std::mem::size_of::<std::collections::BTreeSet<u64>>();
        let size = std::mem::size_of::<Message>() - shadow;
        assert!(size <= 128, "Message is {size} bytes");
    }

    #[test]
    fn display_mentions_route() {
        let m = msg(4, 1, 0);
        let s = m.to_string();
        assert!(s.contains("m4"), "{s}");
        assert!(s.contains("P0→P1"), "{s}");
    }
}
