//! Messages and mailboxes.
//!
//! Every message carries the dependence [`Tag`] its sender had at send time
//! (§3 of the paper); receipt implicitly guesses the tag's undecided AIDs,
//! and messages whose tag contains a denied AID are ghosts, dropped before
//! delivery. Mailboxes are ordered by `(delivery time, sequence)` so runs
//! are deterministic, and per-link FIFO is enforced by the scheduler.

use std::collections::VecDeque;
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

/// A process's inbound queue in delivery order ([`MailKey`], unique): a
/// delivery appends, a rollback's re-enqueue goes back to its place. It
/// holds the box each message was sent in: a receive moves that box into
/// the journal, and a rollback moves it back here.
#[derive(Debug, Default)]
pub(crate) struct Mailbox {
    queue: VecDeque<Box<Message>>,
}

impl Mailbox {
    pub(crate) fn insert(&mut self, msg: Box<Message>) {
        let key = msg.mail_key();
        if self.queue.back().is_some_and(|last| last.mail_key() > key) {
            let at = self.queue.partition_point(|m| m.mail_key() < key);
            self.queue.insert(at, msg);
        } else {
            self.queue.push_back(msg);
        }
    }

    /// Remove the first message in delivery order that satisfies `pred`.
    pub(crate) fn take_first(&mut self, pred: impl Fn(&Message) -> bool) -> Option<Box<Message>> {
        let at = self.queue.iter().position(|m| pred(m))?;
        self.queue.remove(at)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use hope_sim::VirtualDuration;

    impl Mailbox {
        pub(crate) fn len(&self) -> usize {
            self.queue.len()
        }

        pub(crate) fn is_empty(&self) -> bool {
            self.queue.is_empty()
        }

        /// The first message in delivery order, in its box.
        pub(crate) fn first(&self) -> Option<&Message> {
            self.queue.front().map(|m| &**m)
        }
    }

    fn msg(id: u64, ms: u64, seq: u64) -> Box<Message> {
        Box::new(Message {
            id,
            from: ProcessId(0),
            to: ProcessId(1),
            kind: MsgKind::Plain,
            payload: Value::Int(id as i64),
            tag: Tag::new(),
            delivered_at: VirtualTime::ZERO + VirtualDuration::from_millis(ms),
            seq,
        })
    }

    #[test]
    fn mailbox_orders_by_delivery_then_seq() {
        let mut mb = Mailbox::default();
        for m in [msg(1, 5, 2), msg(2, 3, 1), msg(3, 5, 0)] {
            mb.insert(m);
        }
        let order: Vec<u64> = mb.queue.iter().map(|m| m.id).collect();
        assert_eq!(order, vec![2, 3, 1]);
    }

    /// The deque against the `BTreeMap` it replaced, kept here as the
    /// oracle: seeded runs of deliveries in key order, re-enqueues of taken
    /// boxes whose keys precede the tail, and takes whose predicates skip
    /// entries. Order and every taken message agree at each step, and a
    /// take hands back the very box that was inserted.
    #[test]
    fn mailbox_agrees_with_the_ordered_map_it_replaced() {
        use std::collections::BTreeMap;
        // FNV-1a of "message::mailbox_agrees_with_the_ordered_map_it_replaced".
        let mut rng = hope_sim::SimRng::new(0xbd26_2495_63f2_5977);
        let (mut appends, mut reinserts, mut skipping_takes) = (0, 0, 0);
        for case in 0..300 {
            let mut oracle: BTreeMap<MailKey, Box<Message>> = BTreeMap::new();
            let mut mb = Mailbox::default();
            // Boxes taken so far: candidates for a rollback's re-enqueue.
            let mut taken: Vec<Box<Message>> = Vec::new();
            // Where each message's box lives, by message id.
            let mut boxes: BTreeMap<u64, *const Message> = BTreeMap::new();
            let (mut now, mut next_seq) = (0, 0);
            for step in 0..60 {
                match rng.index(4) {
                    // A delivery: never earlier than the last one, and
                    // often at the same instant with a later sequence.
                    0 | 1 => {
                        now += rng.index(3) as u64;
                        let m = msg(next_seq, now, next_seq);
                        next_seq += 1;
                        appends += 1;
                        boxes.insert(m.id, &*m);
                        oracle.insert(m.mail_key(), m.clone());
                        mb.insert(m);
                    }
                    // A rollback re-enqueues a message it had received.
                    2 if !taken.is_empty() => {
                        let m = taken.swap_remove(rng.index(taken.len()));
                        let tail = oracle.last_key_value().map(|(k, _)| *k);
                        reinserts += usize::from(tail.is_some_and(|t| m.mail_key() < t));
                        oracle.insert(m.mail_key(), m.clone());
                        mb.insert(m);
                    }
                    // A receive whose predicate accepts only some ids.
                    _ => {
                        let modulus = 1 + rng.index(3) as u64;
                        let pred = |m: &Message| m.id.is_multiple_of(modulus);
                        let first = oracle.keys().next().copied();
                        let key = oracle.iter().find(|(_, m)| pred(m)).map(|(k, _)| *k);
                        skipping_takes += usize::from(key.is_some() && key != first);
                        let want = key.map(|k| oracle.remove(&k).expect("key just found"));
                        let got = mb.take_first(pred);
                        assert_eq!(got, want, "case {case} step {step}");
                        if let Some(m) = &got {
                            assert!(std::ptr::eq(&**m, boxes[&m.id]), "case {case} step {step}");
                        }
                        taken.extend(got);
                    }
                }
                let order: Vec<MailKey> = mb.queue.iter().map(|m| m.mail_key()).collect();
                let expected: Vec<MailKey> = oracle.keys().copied().collect();
                assert_eq!(order, expected, "case {case} step {step}");
                assert_eq!(mb.len(), oracle.len());
                assert_eq!(mb.is_empty(), oracle.is_empty());
            }
        }
        // Every path was taken, many times over.
        assert!(appends > 1_000 && reinserts > 1_000 && skipping_takes > 1_000);
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
        // The tag is one 40-byte inline `DepSet`. A message lives in the
        // box it was sent in — through the event queue, the mailbox and the
        // journal — and each receive hands the body a copy by value, which
        // allocates nothing for an inline tag and a word payload. This
        // crate's tests link `hope-core` with its `shadow-oracle` feature
        // (see Cargo.toml), which gives the tag a `BTreeSet` shadow the
        // shipped message does not have.
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
