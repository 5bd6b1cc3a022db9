//! An append-only record store that never moves a record once written.
//!
//! HOPE's records change in three ways only: they are appended
//! (Definitions 4.2–4.4), cut back by a suffix when a rollback deletes the
//! tail of a history (`Del(H_P, A)`, §5.6), and retired by a prefix as the
//! commit horizon passes them. A [`Store`] supports exactly that — push,
//! index, iterate, [`drop_below`](Store::drop_below) and
//! [`split_off`](Store::split_off) — over fixed-capacity chunks, so growth
//! allocates one new chunk instead of doubling and copying everything, a
//! retired prefix frees whole chunks, and nothing behind them shifts.
//!
//! Positions are **absolute**: the `i`-th record ever pushed is at `i` for
//! as long as it is held, so a record's position can be its id (an AID or
//! interval number, a journal position). [`start`](Store::start) is the
//! first position still held, [`end`](Store::end) the next one pushed.
//!
//! A small store costs what a `VecDeque` does: its first chunk is one
//! allocation that grows geometrically up to a chunk's 256 records and, as a
//! ring, reuses the slots a dropped prefix freed, so a store whose live
//! window stays under one chunk allocates nothing once warm. A second chunk
//! starts only when the first is full, and every chunk after the first is
//! allocated at 256 records and never grows, in a clone too. Cloning a
//! one-chunk store allocates once, and [`Clone::clone_from`] copies into
//! the chunks the destination already holds.

use std::collections::vec_deque::{self, VecDeque};
use std::iter::{Chain, Flatten};
use std::ops::{Index, IndexMut};

/// Records per chunk: every chunk after the first is allocated at this
/// many, and the first grows to it.
const CHUNK: usize = 256;

/// An append-only deque of records in fixed-capacity chunks. See the
/// module documentation.
#[derive(Debug)]
pub struct Store<T> {
    /// The oldest chunk, the one a prefix is dropped from. The only one
    /// while the store fits in a chunk, when it grows geometrically like a
    /// `VecDeque`.
    head: VecDeque<T>,
    /// Every later chunk, oldest first, each allocated at `CHUNK`
    /// records: all but the last are full, and none is empty. The next
    /// one becomes `head` when `head` is dropped.
    rest: VecDeque<VecDeque<T>>,
    /// Absolute position of the oldest record held: the number dropped.
    start: usize,
    /// Records held.
    len: usize,
}

impl<T: Clone> Clone for Store<T> {
    fn clone(&self) -> Self {
        let mut store = Store::new();
        store.clone_from(self);
        store
    }

    /// Copies `source` into the chunks `self` already holds, and starts
    /// every later chunk it lacks at `CHUNK` records.
    fn clone_from(&mut self, source: &Self) {
        let Store {
            head,
            rest,
            start,
            len,
        } = self;
        head.clone_from(&source.head);
        rest.truncate(source.rest.len());
        for (chunk, from) in rest.iter_mut().zip(&source.rest) {
            chunk.clone_from(from);
        }
        for from in source.rest.range(rest.len()..) {
            let mut chunk = VecDeque::with_capacity(CHUNK);
            chunk.extend(from.iter().cloned());
            rest.push_back(chunk);
        }
        *start = source.start;
        *len = source.len;
    }
}

impl<T> Default for Store<T> {
    fn default() -> Self {
        Store::new()
    }
}

impl<T> Store<T> {
    /// An empty store; allocates nothing until the first push.
    pub const fn new() -> Self {
        Store {
            head: VecDeque::new(),
            rest: VecDeque::new(),
            start: 0,
            len: 0,
        }
    }

    /// Position of the oldest record held; every record below it was
    /// dropped.
    pub fn start(&self) -> usize {
        self.start
    }

    /// Position the next push takes: one past the newest record.
    pub fn end(&self) -> usize {
        self.start + self.len
    }

    /// Number of records held.
    pub fn len(&self) -> usize {
        self.len
    }

    /// `true` if the store holds no record.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Append `v` after the last record.
    #[inline]
    pub fn push(&mut self, v: T) {
        self.len += 1;
        match self.rest.back_mut() {
            Some(last) if last.len() < CHUNK => last.push_back(v),
            None if self.head.len() < CHUNK => self.head.push_back(v),
            _ => self.push_chunk(v),
        }
    }

    /// Start a chunk with `v`: the last one is full.
    #[cold]
    #[inline(never)]
    fn push_chunk(&mut self, v: T) {
        let mut chunk = VecDeque::with_capacity(CHUNK);
        chunk.push_back(v);
        self.rest.push_back(chunk);
    }

    /// The record at position `pos` (`None` if it was dropped or is not
    /// pushed yet).
    pub fn get(&self, pos: usize) -> Option<&T> {
        // Below `start` the offset wraps past every chunk.
        let i = pos.wrapping_sub(self.start);
        match i.checked_sub(self.head.len()) {
            None => self.head.get(i),
            Some(j) => self.rest.get(j / CHUNK)?.get(j % CHUNK),
        }
    }

    /// The record at position `pos`, to change in place.
    pub fn get_mut(&mut self, pos: usize) -> Option<&mut T> {
        let i = pos.wrapping_sub(self.start);
        match i.checked_sub(self.head.len()) {
            None => self.head.get_mut(i),
            Some(j) => self.rest.get_mut(j / CHUNK)?.get_mut(j % CHUNK),
        }
    }

    /// The newest record.
    pub fn last(&self) -> Option<&T> {
        match self.rest.back() {
            Some(chunk) => chunk.back(),
            None => self.head.back(),
        }
    }

    /// The records, oldest first.
    pub fn iter(&self) -> Iter<'_, T> {
        self.head.iter().chain(self.rest.iter().flatten())
    }

    /// Drop every record below position `pos` (all of them if `pos` is
    /// past the end), so that [`start`](Store::start) is at least `pos`. A
    /// chunk the cut passes is freed whole; the first chunk, when it is
    /// the last, is kept for reuse.
    pub fn drop_below(&mut self, pos: usize) {
        let mut n = pos.saturating_sub(self.start).min(self.len);
        self.start += n;
        self.len -= n;
        while n >= self.head.len() {
            let Some(next) = self.rest.pop_front() else {
                self.head.clear();
                return;
            };
            n -= self.head.len();
            self.head = next;
        }
        self.head.drain(..n);
    }

    /// Cut the records from position `pos` on and return them, oldest
    /// first. Chunks the cut empties are freed, except the first.
    ///
    /// # Panics
    ///
    /// If `pos` is below [`start`](Store::start): a dropped record cannot
    /// be cut again.
    pub fn split_off(&mut self, pos: usize) -> Vec<T> {
        let at = pos.checked_sub(self.start).expect("split_off below start");
        if at >= self.len {
            return Vec::new();
        }
        let mut cut = Vec::with_capacity(self.len - at);
        self.len = at;
        match at.checked_sub(self.head.len()) {
            None => cut.extend(self.head.drain(at..)),
            Some(j) => {
                let (c, k) = (j / CHUNK, j % CHUNK);
                cut.extend(self.rest[c].drain(k..));
                // Keep chunk `c` only if the cut left records in it.
                let kept = c + usize::from(k > 0);
                cut.extend(self.rest.drain(c + 1..).flatten());
                self.rest.truncate(kept);
                return cut;
            }
        }
        cut.extend(self.rest.drain(..).flatten());
        cut
    }
}

/// The iterator of [`Store::iter`].
pub type Iter<'a, T> = Chain<vec_deque::Iter<'a, T>, Flatten<vec_deque::Iter<'a, VecDeque<T>>>>;

impl<'a, T> IntoIterator for &'a Store<T> {
    type Item = &'a T;
    type IntoIter = Iter<'a, T>;

    fn into_iter(self) -> Self::IntoIter {
        self.iter()
    }
}

impl<T> Index<usize> for Store<T> {
    type Output = T;

    fn index(&self, i: usize) -> &T {
        self.get(i).expect("store index out of range")
    }
}

impl<T> IndexMut<usize> for Store<T> {
    fn index_mut(&mut self, i: usize) -> &mut T {
        self.get_mut(i).expect("store index out of range")
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use hope_sim::SimRng;

    /// What a store should hold: the records from absolute position
    /// `start` on.
    #[derive(Clone, Default)]
    struct Model {
        start: usize,
        recs: VecDeque<u64>,
    }

    impl Model {
        fn end(&self) -> usize {
            self.start + self.recs.len()
        }

        fn drop_below(&mut self, pos: usize) {
            let n = pos.saturating_sub(self.start).min(self.recs.len());
            self.recs.drain(..n);
            self.start += n;
        }

        fn split_off(&mut self, pos: usize) -> Vec<u64> {
            let at = (pos - self.start).min(self.recs.len());
            self.recs.drain(at..).collect()
        }
    }

    /// The store holds the model's records at the model's positions, and
    /// its shape holds: every chunk after the first is allocated at
    /// `CHUNK`, all but the last are full, none is empty.
    fn check(s: &Store<u64>, m: &Model) {
        assert_eq!(
            (s.start(), s.end(), s.len()),
            (m.start, m.end(), m.recs.len())
        );
        assert_eq!(s.is_empty(), m.recs.is_empty());
        assert!(s.iter().eq(m.recs.iter()), "iteration");
        assert!(s.iter().rev().eq(m.recs.iter().rev()), "reverse iteration");
        for (i, v) in m.recs.iter().enumerate() {
            assert_eq!(s.get(m.start + i), Some(v), "get({})", m.start + i);
        }
        assert_eq!(s.get(m.end()), None, "past the end");
        if m.start > 0 {
            assert_eq!(s.get(m.start - 1), None, "below the start");
        }
        assert_eq!(s.last(), m.recs.back());
        let held = s.head.len() + s.rest.iter().map(VecDeque::len).sum::<usize>();
        assert_eq!(s.len(), held, "the counted length is the chunks'");
        assert!(s.head.len() <= CHUNK);
        for (c, chunk) in s.rest.iter().enumerate() {
            assert!(!chunk.is_empty(), "empty chunk {c}");
            assert!(chunk.capacity() >= CHUNK, "chunk {c} allocated short");
            if c + 1 < s.rest.len() {
                assert_eq!(chunk.len(), CHUNK, "chunk {c} not full");
            }
        }
    }

    fn filled(n: usize) -> (Store<u64>, Model) {
        let mut s = Store::new();
        for v in 0..n as u64 {
            s.push(v);
        }
        let recs = (0..n as u64).collect();
        (s, Model { start: 0, recs })
    }

    #[test]
    fn an_empty_store() {
        let mut s: Store<u64> = Store::new();
        check(&s, &Model::default());
        assert!(s.split_off(0).is_empty());
        s.drop_below(3);
        check(&s, &Model::default());
        assert_eq!(s.iter().count(), 0);
    }

    #[test]
    fn a_second_chunk_starts_only_when_the_first_is_full() {
        let (mut s, mut m) = filled(CHUNK);
        assert!(s.rest.is_empty());
        s.push(7);
        m.recs.push_back(7);
        assert_eq!(s.rest.len(), 1);
        check(&s, &m);
    }

    #[test]
    fn a_cut_at_a_chunk_edge_frees_the_chunk_behind_it() {
        for at in [CHUNK, 2 * CHUNK, 3 * CHUNK] {
            let (mut s, mut m) = filled(3 * CHUNK + 5);
            assert_eq!(s.split_off(at), m.split_off(at), "cut at {at}");
            check(&s, &m);
            assert_eq!(s.rest.len(), at / CHUNK - 1, "chunks left by a cut at {at}");
            // The next push fills a fresh chunk after the full one.
            s.push(7);
            m.recs.push_back(7);
            check(&s, &m);
        }
    }

    #[test]
    fn dropping_everything_keeps_one_chunk_to_reuse() {
        let (mut s, mut m) = filled(2 * CHUNK + 1);
        s.drop_below(usize::MAX);
        m.drop_below(usize::MAX);
        check(&s, &m);
        assert_eq!(s.start(), 2 * CHUNK + 1, "positions survive the drop");
        assert!(s.rest.is_empty() && s.head.capacity() >= CHUNK);
        // Pushing after a drop to empty starts over in the kept chunk.
        let cap = s.head.capacity();
        for v in 0..CHUNK as u64 {
            s.push(v);
            m.recs.push_back(v);
        }
        check(&s, &m);
        assert_eq!(s.head.capacity(), cap, "the kept chunk was reused");
    }

    #[test]
    fn a_clone_and_its_original_grow_apart() {
        // One chunk, and three with a dropped prefix and a last chunk of
        // 100 records: a clone's later chunks are allocated at `CHUNK`, so
        // its next pushes fill them without growing them.
        for (n, dropped) in [(CHUNK - 1, 0), (3 * CHUNK + 100, CHUNK + 7)] {
            let (mut a, mut ma) = filled(n);
            a.drop_below(dropped);
            ma.drop_below(dropped);
            let (mut b, mut mb) = (a.clone(), ma.clone());
            check(&b, &mb);
            let caps: Vec<usize> = b.rest.iter().map(VecDeque::capacity).collect();
            for v in 0..CHUNK as u64 {
                a.push(1000 + v);
                ma.recs.push_back(1000 + v);
                b.push(2000 + v);
                mb.recs.push_back(2000 + v);
            }
            check(&a, &ma);
            check(&b, &mb);
            for (c, &cap) in caps.iter().enumerate() {
                assert_eq!(b.rest[c].capacity(), cap, "chunk {c} of the clone grew");
            }
            a.drop_below(dropped + CHUNK + 3);
            ma.drop_below(dropped + CHUNK + 3);
            check(&a, &ma);
            check(&b, &mb);
        }
    }

    /// `clone_from` into a store of another shape, smaller and larger,
    /// holds what `clone` holds and keeps the chunk rule.
    #[test]
    fn clone_from_any_store_is_a_clone() {
        let shapes = [
            (0, 0),
            (5, 0),
            (CHUNK - 1, 3),
            (CHUNK + 1, 0),
            (3 * CHUNK + 100, CHUNK + 7),
            (5 * CHUNK, 2 * CHUNK),
        ];
        for &(n, dropped) in &shapes {
            let (mut src, mut m) = filled(n);
            src.drop_below(dropped);
            m.drop_below(dropped);
            for &(k, cut) in &shapes {
                let (mut dst, _) = filled(k);
                dst.drop_below(cut);
                dst.clone_from(&src);
                check(&dst, &m);
                let clone = src.clone();
                assert!(dst.iter().eq(clone.iter()), "{n}/{dropped} into {k}/{cut}");
                assert_eq!((dst.start(), dst.len()), (clone.start(), clone.len()));
                dst.push(7);
                let mut grown = m.clone();
                grown.recs.push_back(7);
                check(&dst, &grown);
            }
        }
    }

    /// Random push / index / drop-below / split-off / iterate sequences
    /// against a `VecDeque`, compared after every step.
    #[test]
    fn agrees_with_a_vecdeque_under_random_operations() {
        let mut rng = SimRng::new(0x5702E);
        for case in 0..40 {
            let (mut s, mut m) = (Store::new(), Model::default());
            for step in 0..300 {
                let around = |rng: &mut SimRng, m: &Model| m.start + rng.index(m.recs.len() + 2);
                match rng.index(10) {
                    0..=5 => {
                        for _ in 0..rng.index(2 * CHUNK) {
                            let v = rng.next_u64();
                            s.push(v);
                            m.recs.push_back(v);
                        }
                    }
                    6 | 7 => {
                        let pos = around(&mut rng, &m);
                        s.drop_below(pos);
                        m.drop_below(pos);
                    }
                    8 => {
                        let pos = around(&mut rng, &m);
                        let cut = m.split_off(pos);
                        assert_eq!(s.split_off(pos), cut, "case {case} step {step}");
                    }
                    _ => {
                        if !m.recs.is_empty() {
                            let i = rng.index(m.recs.len());
                            s[m.start + i] ^= 1;
                            m.recs[i] ^= 1;
                        }
                    }
                }
                check(&s, &m);
            }
        }
    }
}
