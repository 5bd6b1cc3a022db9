//! Timestamped simulation events exchanged between logical processes.
//!
//! Time Warp's virtual time is a *payload-level* notion: these timestamps
//! are the simulated model's clock, independent of the substrate's
//! [`VirtualTime`](hope_sim::VirtualTime) (which models real network/CPU
//! delays). Jefferson's insight — and the paper's §2 point — is that
//! "messages arrive in timestamp order" is just one particular optimistic
//! assumption; HOPE expresses it with one guard AID per processed event.

use hope_runtime::Value;

/// A logical-process event: a model timestamp plus a hop counter (PHOLD
/// jobs count how many times they have bounced).
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct Event {
    /// Model (Time Warp) timestamp, in abstract ticks.
    pub ts: u64,
    /// How many LPs this job has visited.
    pub hops: u64,
}

impl Event {
    /// Encode for transmission: one `Int`, `ts` in the low 32 bits and
    /// `hops` in the high 32. An event travels in every send, journaled
    /// receive and replayed receive, and an `Int` clones without
    /// allocating.
    ///
    /// # Panics
    ///
    /// Panics if `ts` or `hops` is 2³² or more.
    pub fn to_value(&self) -> Value {
        assert!(
            self.ts <= u64::from(u32::MAX) && self.hops <= u64::from(u32::MAX),
            "an event's ts and hops must each fit in 32 bits: {self:?}"
        );
        Value::Int((self.hops << 32 | self.ts) as i64)
    }

    /// Decode a received payload.
    ///
    /// Returns `None` for anything but an `Int`; every `Int` is some
    /// event's encoding.
    pub fn from_value(v: &Value) -> Option<Event> {
        let word = v.as_int()? as u64;
        Some(Event {
            ts: word & u64::from(u32::MAX),
            hops: word >> 32,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn roundtrip() {
        let max = u64::from(u32::MAX);
        for (ts, hops) in [(42, 3), (0, 0), (max, 0), (0, max), (max, max)] {
            let e = Event { ts, hops };
            assert_eq!(Event::from_value(&e.to_value()), Some(e));
        }
    }

    #[test]
    #[should_panic(expected = "fit in 32 bits")]
    fn a_timestamp_past_32_bits_panics() {
        Event {
            ts: 1 << 32,
            hops: 0,
        }
        .to_value();
    }

    #[test]
    fn rejects_malformed() {
        assert_eq!(Event::from_value(&Value::Unit), None);
        assert_eq!(
            Event::from_value(&Value::List(vec![Value::Int(-1), Value::Int(0)])),
            None
        );
        assert_eq!(Event::from_value(&Value::List(vec![Value::Int(1)])), None);
        // Nor is a two-`Int` list of an in-range `ts` and `hops`.
        let old = Value::List(vec![Value::Int(42), Value::Int(3)]);
        assert_eq!(Event::from_value(&old), None);
    }

    #[test]
    fn orders_by_timestamp_first() {
        let a = Event { ts: 1, hops: 9 };
        let b = Event { ts: 2, hops: 0 };
        assert!(a < b);
    }
}
