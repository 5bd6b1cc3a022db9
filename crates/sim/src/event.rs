//! A deterministic discrete-event queue.
//!
//! Events are ordered by `(time, sequence)`: ties in virtual time break by
//! insertion order, which makes every simulation run a pure function of its
//! inputs — the property the whole experiment suite rests on.

use std::cmp::Reverse;
use std::collections::BinaryHeap;

use crate::time::VirtualTime;

/// A min-heap of timestamped events with deterministic tie-breaking.
#[derive(Debug, Clone)]
pub struct EventQueue<T> {
    heap: BinaryHeap<Reverse<Entry<T>>>,
    next_seq: u64,
}

#[derive(Debug, Clone)]
struct Entry<T> {
    time: VirtualTime,
    seq: u64,
    payload: T,
}

impl<T> PartialEq for Entry<T> {
    fn eq(&self, other: &Self) -> bool {
        self.time == other.time && self.seq == other.seq
    }
}
impl<T> Eq for Entry<T> {}
impl<T> PartialOrd for Entry<T> {
    fn partial_cmp(&self, other: &Self) -> Option<std::cmp::Ordering> {
        Some(self.cmp(other))
    }
}
impl<T> Ord for Entry<T> {
    fn cmp(&self, other: &Self) -> std::cmp::Ordering {
        (self.time, self.seq).cmp(&(other.time, other.seq))
    }
}

impl<T> Default for EventQueue<T> {
    fn default() -> Self {
        EventQueue::new()
    }
}

impl<T> EventQueue<T> {
    /// Create an empty queue.
    pub fn new() -> Self {
        EventQueue {
            heap: BinaryHeap::new(),
            next_seq: 0,
        }
    }

    /// Schedule `payload` at `time`. Returns the event's sequence number
    /// (unique per queue, usable as a cancellation epoch).
    pub fn push(&mut self, time: VirtualTime, payload: T) -> u64 {
        let seq = self.next_seq;
        self.next_seq += 1;
        self.heap.push(Reverse(Entry { time, seq, payload }));
        seq
    }

    /// Remove and return the earliest event.
    pub fn pop(&mut self) -> Option<(VirtualTime, T)> {
        self.heap.pop().map(|Reverse(e)| (e.time, e.payload))
    }

    /// Number of pending events.
    pub fn len(&self) -> usize {
        self.heap.len()
    }

    /// `true` if no events are pending.
    pub fn is_empty(&self) -> bool {
        self.heap.is_empty()
    }

    /// Enumerate every pending event as `(time, seq, payload)` in
    /// deterministic `(time, seq)` order, without removing anything.
    ///
    /// This is the model checker's view of a scheduler choice point: the
    /// full ready set, not just the earliest entry. Costs a sort per call,
    /// so production paths never use it — only oracle-driven runs do.
    pub fn pending_sorted(&self) -> Vec<(VirtualTime, u64, &T)> {
        let mut entries: Vec<&Entry<T>> = self.heap.iter().map(|Reverse(e)| e).collect();
        entries.sort_by_key(|e| (e.time, e.seq));
        entries
            .iter()
            .map(|e| (e.time, e.seq, &e.payload))
            .collect()
    }

    /// Remove and return the event with sequence number `seq`, if pending.
    ///
    /// O(n) heap rebuild — acceptable because only oracle-driven
    /// (model-checking) runs pick non-earliest events.
    pub fn remove_by_seq(&mut self, seq: u64) -> Option<(VirtualTime, T)> {
        let mut found = None;
        let drained = std::mem::take(&mut self.heap);
        for Reverse(e) in drained {
            if e.seq == seq && found.is_none() {
                found = Some((e.time, e.payload));
            } else {
                self.heap.push(Reverse(e));
            }
        }
        found
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::time::VirtualDuration;

    fn t(ms: u64) -> VirtualTime {
        VirtualTime::ZERO + VirtualDuration::from_millis(ms)
    }

    #[test]
    fn pops_in_time_order() {
        let mut q = EventQueue::new();
        q.push(t(5), "c");
        q.push(t(1), "a");
        q.push(t(3), "b");
        assert_eq!(q.len(), 3);
        assert_eq!(q.pop(), Some((t(1), "a")));
        assert_eq!(q.pop(), Some((t(3), "b")));
        assert_eq!(q.pop(), Some((t(5), "c")));
        assert_eq!(q.pop(), None);
        assert!(q.is_empty());
    }

    #[test]
    fn ties_break_by_insertion_order() {
        let mut q = EventQueue::new();
        q.push(t(2), 1);
        q.push(t(2), 2);
        q.push(t(2), 3);
        assert_eq!(q.pop().unwrap().1, 1);
        assert_eq!(q.pop().unwrap().1, 2);
        assert_eq!(q.pop().unwrap().1, 3);
    }

    #[test]
    fn sequence_numbers_are_unique() {
        let mut q = EventQueue::new();
        let a = q.push(t(1), ());
        let b = q.push(t(1), ());
        assert_ne!(a, b);
    }

    #[test]
    fn pending_sorted_lists_without_removing() {
        let mut q = EventQueue::new();
        let c = q.push(t(5), "c");
        let a = q.push(t(1), "a");
        let b = q.push(t(3), "b");
        let listed: Vec<(VirtualTime, u64, &&str)> = q.pending_sorted();
        assert_eq!(
            listed,
            vec![(t(1), a, &"a"), (t(3), b, &"b"), (t(5), c, &"c")]
        );
        assert_eq!(q.len(), 3);
    }

    #[test]
    fn remove_by_seq_plucks_one_event() {
        let mut q = EventQueue::new();
        q.push(t(5), "c");
        let a = q.push(t(1), "a");
        q.push(t(3), "b");
        assert_eq!(q.remove_by_seq(a), Some((t(1), "a")));
        assert_eq!(q.remove_by_seq(a), None);
        assert_eq!(q.pop(), Some((t(3), "b")));
        assert_eq!(q.pop(), Some((t(5), "c")));
        assert_eq!(q.pop(), None);
    }

    #[test]
    fn remove_by_seq_agrees_with_pop_order() {
        let mut q = EventQueue::new();
        for i in 0..10u64 {
            q.push(t(10 - i % 3), i);
        }
        loop {
            let head = q
                .pending_sorted()
                .first()
                .map(|&(time, seq, _)| (time, seq));
            let Some((time, seq)) = head else { break };
            let removed = q.remove_by_seq(seq).expect("listed event is pending");
            assert_eq!(removed.0, time);
        }
        assert!(q.is_empty());
    }
}
