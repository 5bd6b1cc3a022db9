//! `DepSet`: the dependence-set representation behind `IDO`, `IHD`, `IHA`,
//! `DOM` and message [`Tag`](crate::Tag)s.
//!
//! Every control variable of Definitions 4.2–4.4 is a set of dense ids
//! ([`AidId`] or [`IntervalId`]), and the engine's hot paths (Equations
//! 1–24) copy, union and walk those sets constantly: a nested guess inherits
//! its parent's `IDO` (Eq. 4–5), a send snapshots the sender's `IDO` into a
//! tag (§3), a speculative affirm rewires whole `DOM` sets (Eq. 10–14).
//! `BTreeSet` makes each of those an O(n log n) node-by-node clone.
//!
//! `DepSet` is a hybrid:
//!
//! * sets of **≤ 4 elements** (the overwhelming case: an E22
//!   `pipeline_lossy` run opens 49,867 intervals, and a set outgrows 4
//!   ids 1,893 times) live in a sorted inline array — no allocation at
//!   all, and a `DepSet` is 40 bytes;
//! * larger sets spill to a **window of `u64` bitset words**, from the
//!   word of the lowest id to that of the highest, in one [`Arc`]-shared
//!   allocation with copy-on-write semantics: cloning is an O(1) refcount
//!   bump, and the words are only duplicated when a *shared* set is
//!   mutated. The window drops zero words at both ends as ids leave, so a
//!   spill or a copy costs the set's span, not its largest id. Union,
//!   intersection, difference, subset and iteration over two spilled sets
//!   are word-parallel over their aligned windows.
//!
//! Iteration is always in **ascending id order** — exactly `BTreeSet`'s
//! order — so every effect cascade the engine emits is bit-identical to the
//! original representation. Under `cfg(test)` (or the `shadow-oracle` cargo
//! feature) every `DepSet` additionally carries a real `BTreeSet` shadow
//! and asserts agreement after each mutation: the differential oracle the
//! semantics suites run against.

use std::cell::Cell;
use std::fmt;
use std::hash::{Hash, Hasher};
use std::marker::PhantomData;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

#[cfg(any(test, feature = "shadow-oracle"))]
use std::collections::BTreeSet;

use crate::ids::{AidId, IntervalId};

/// Maximum cardinality stored inline before spilling to the bitset.
///
/// Every interval record carries two inline sets, every AID and every
/// message one, so this constant sizes the records the engine stores,
/// clones, walks and sends: at 4 a `DepSet` is 40 bytes (264 at 32), an
/// `Interval` 128 (576) and an `Aid` 88 (312). E22 (EXPERIMENTS.md, "small
/// dependence sets stay small") measured caps 2, 4, 8 and 32: 4 cut
/// `pipeline_lossy`'s peak RSS from 23.1 to 7.9 MiB and ran no workload
/// slower; 2 read within ±5% of 4, spilled more sets and is no smaller
/// (the spilled form is 32 bytes); 8 was slower on both pipelines. Inserts
/// into inline sets are a bounds-checked array append and clones a 40-byte
/// copy.
const INLINE_CAP: usize = 4;

thread_local! {
    /// Per-thread count of copy-on-write duplications (see [`cow_copies`]).
    static COW_COPIES: Cell<u64> = const { Cell::new(0) };
    /// Per-thread count of inline→bitset spills (see [`spills`]).
    static SPILLS: Cell<u64> = const { Cell::new(0) };
}

/// Process-wide running total behind [`cow_copies_total`].
static COW_COPIES_TOTAL: AtomicU64 = AtomicU64::new(0);
/// Process-wide running total behind [`spills_total`].
static SPILLS_TOTAL: AtomicU64 = AtomicU64::new(0);

/// Number of **copy-on-write duplications** performed by this thread since
/// it started: the word vector of a *shared* spilled set had to be copied
/// because one owner mutated it. O(1) refcount bumps and in-place edits of
/// unshared sets are not counted. The counter is thread-local so tests can
/// assert exact costs (e.g. "one `guess` materializes the inherited `IDO`
/// at most once") without cross-test interference.
pub fn cow_copies() -> u64 {
    COW_COPIES.with(|c| c.get())
}

/// Number of **inline→bitset spills** performed by this thread: a set
/// crossed the inline capacity (4 elements) and upgraded its representation.
/// A set spills at most once before it next empties (an emptied set returns
/// to the inline form), so spills are amortized O(1) per insertion.
pub fn spills() -> u64 {
    SPILLS.with(|c| c.get())
}

/// Total **set materializations** by this thread: [`cow_copies`] plus
/// [`spills`] — every event that copied set contents rather than sharing
/// or editing them in place.
pub fn materializations() -> u64 {
    cow_copies() + spills()
}

/// Process-wide total of copy-on-write duplications across **all**
/// threads, monotone since process start. The multi-threaded runtime runs
/// engine transitions on per-process body threads, so per-run memory
/// accounting ([`RunStats::stats().memory`] in `hope-runtime`) samples this
/// aggregate; single-threaded tests wanting exact deltas should keep using
/// the thread-local [`cow_copies`].
pub fn cow_copies_total() -> u64 {
    COW_COPIES_TOTAL.load(Ordering::Relaxed)
}

/// Process-wide total of inline→bitset spills across all threads; the
/// aggregate sibling of the thread-local [`spills`].
pub fn spills_total() -> u64 {
    SPILLS_TOTAL.load(Ordering::Relaxed)
}

fn note_cow_copy() {
    COW_COPIES.with(|c| c.set(c.get() + 1));
    COW_COPIES_TOTAL.fetch_add(1, Ordering::Relaxed);
}

fn note_spill() {
    SPILLS.with(|c| c.set(c.get() + 1));
    SPILLS_TOTAL.fetch_add(1, Ordering::Relaxed);
}

mod sealed {
    /// Prevents foreign `DepElem` impls: the raw-index contract is an
    /// engine-internal invariant.
    pub trait Sealed {}
}

/// An element storable in a [`DepSet`]: one of the engine's dense id types.
///
/// The trait is sealed; it is implemented exactly for [`AidId`] and
/// [`IntervalId`], whose raw values are dense indexes assigned in
/// increasing order — the property the bitset window relies on.
pub trait DepElem: Copy + Ord + fmt::Debug + sealed::Sealed {
    /// The element's dense raw index.
    fn to_raw(self) -> u64;
    /// Rebuild the element from a raw index previously obtained via
    /// [`DepElem::to_raw`].
    fn from_raw(raw: u64) -> Self;
}

impl sealed::Sealed for AidId {}
impl DepElem for AidId {
    fn to_raw(self) -> u64 {
        self.0
    }
    fn from_raw(raw: u64) -> Self {
        AidId(raw)
    }
}

impl sealed::Sealed for IntervalId {}
impl DepElem for IntervalId {
    fn to_raw(self) -> u64 {
        self.0
    }
    fn from_raw(raw: u64) -> Self {
        IntervalId(raw)
    }
}

/// The spilled representation: a window of bitset words plus a cached
/// cardinality. `words[i]` holds ids `64 * (base + i)` to
/// `64 * (base + i) + 63`. A spilled set is never empty, and its window
/// starts and ends on a non-zero word: ids outside it are absent. The
/// words are one copy-on-write allocation; the header is each set's own.
#[derive(Clone)]
struct Bits {
    /// The word index of `words[0]`.
    base: usize,
    len: usize,
    words: Arc<[u64]>,
}

impl Bits {
    /// The window holding the sorted, non-empty `vals` and `v`, which is
    /// not among them.
    fn spill(vals: &[u64], v: u64) -> Bits {
        let word = |g: usize| {
            vals.iter()
                .chain([&v])
                .filter(|&&x| (x / 64) as usize == g)
                .fold(0, |w, &x| w | 1 << (x % 64))
        };
        let lo = (vals[0].min(v) / 64) as usize;
        let hi = (vals[vals.len() - 1].max(v) / 64) as usize + 1;
        Bits {
            base: lo,
            len: vals.len() + 1,
            words: (lo..hi).map(word).collect(),
        }
    }

    /// One past the window's last word index.
    fn end(&self) -> usize {
        self.base + self.words.len()
    }

    /// The word with index `g`; zero outside the window.
    fn word(&self, g: usize) -> u64 {
        g.checked_sub(self.base)
            .and_then(|i| self.words.get(i))
            .map_or(0, |&w| w)
    }

    fn contains(&self, v: u64) -> bool {
        self.word((v / 64) as usize) >> (v % 64) & 1 == 1
    }

    /// The words with indexes `lo..hi`, to edit in place: the set's own
    /// (copied first if shared) or, for another window, a new allocation.
    fn edit(&mut self, lo: usize, hi: usize) -> &mut [u64] {
        if (lo, hi) != (self.base, self.end()) {
            if Arc::strong_count(&self.words) != 1 {
                note_cow_copy();
            }
            self.words = (lo..hi).map(|g| self.word(g)).collect();
            self.base = lo;
        }
        make_mut(&mut self.words)
    }

    /// Drop the zero words at both ends of the window.
    fn trim(&mut self) {
        let lead = self.words.iter().take_while(|&&w| w == 0).count();
        let trail = self.words[lead..]
            .iter()
            .rev()
            .take_while(|&&w| w == 0)
            .count();
        if lead + trail > 0 {
            self.words = self.words[lead..self.words.len() - trail].into();
            self.base += lead;
        }
    }

    fn insert(&mut self, v: u64) -> bool {
        if self.contains(v) {
            return false;
        }
        let g = (v / 64) as usize;
        let lo = self.base.min(g);
        self.edit(lo, self.end().max(g + 1))[g - lo] |= 1 << (v % 64);
        self.len += 1;
        true
    }

    /// Remove `v`, a member of a set that holds more than `v`.
    fn remove(&mut self, v: u64) {
        let (lo, g) = (self.base, (v / 64) as usize);
        self.edit(lo, self.end())[g - lo] &= !(1 << (v % 64));
        self.len -= 1;
        self.trim();
    }

    /// `self`'s words over `other`'s window, if `self`'s window covers it.
    fn over(&self, other: &Bits) -> Option<&[u64]> {
        let start = other.base.checked_sub(self.base)?;
        self.words.get(start..start + other.words.len())
    }

    /// `true` if every bit of `other` is set in `self`. `other`'s window
    /// starts and ends on a set bit, so it must lie within `self`'s.
    fn superset_of(&self, other: &Bits) -> bool {
        Arc::ptr_eq(&self.words, &other.words)
            || self.over(other).is_some_and(|ours| {
                ours.iter()
                    .zip(other.words.iter())
                    .all(|(s, o)| o & !s == 0)
            })
    }

    /// `self ∪= other`, handing `fresh` each word's newly set bits as
    /// `(id of the word's bit 0, bits)`, ascending.
    fn merge(&mut self, other: &Bits, mut fresh: impl FnMut(u64, u64)) {
        let lo = self.base.min(other.base);
        let words = self.edit(lo, self.end().max(other.end()));
        let mut added = 0;
        let theirs = other.words.iter();
        for (i, (w, &o)) in words[other.base - lo..].iter_mut().zip(theirs).enumerate() {
            let new = o & !*w;
            if new != 0 {
                *w |= new;
                added += new.count_ones() as usize;
                fresh((other.base + i) as u64 * 64, new);
            }
        }
        self.len += added;
    }

    fn overlaps(&self, other: &Bits) -> bool {
        self.base < other.end() && other.base < self.end()
    }

    /// `self ∩= other` for an `other` that [`overlaps`](Bits::overlaps)
    /// `self`: the window shrinks to the overlap. `false` if nothing is left.
    fn retain(&mut self, other: &Bits) -> bool {
        let (lo, hi) = (self.base.max(other.base), self.end().min(other.end()));
        let mut len = 0;
        let theirs = other.words[lo - other.base..].iter();
        for (w, &o) in self.edit(lo, hi).iter_mut().zip(theirs) {
            *w &= o;
            len += w.count_ones() as usize;
        }
        self.len = len;
        if len > 0 {
            self.trim();
        }
        len > 0
    }
}

#[derive(Clone)]
enum Repr {
    /// Sorted ascending; only `vals[..len]` is meaningful.
    Inline { len: u8, vals: [u64; INLINE_CAP] },
    /// Spilled: a copy-on-write window of bitset words.
    Bits(Bits),
}

/// A set of dense engine ids with inline small-set storage and O(1)
/// copy-on-write sharing of large sets. See the [module docs](self).
///
/// The API mirrors the `BTreeSet` surface the engine uses (`contains` takes
/// `&T`, iteration is ascending) so view types remain source-compatible;
/// [`DepSet::iter`] yields elements **by value** since spilled sets store
/// bits, not elements.
pub struct DepSet<T: DepElem> {
    repr: Repr,
    _marker: PhantomData<T>,
    /// The `BTreeSet` differential oracle (tests / `shadow-oracle` only):
    /// every mutation is mirrored here and agreement asserted.
    #[cfg(any(test, feature = "shadow-oracle"))]
    shadow: BTreeSet<u64>,
}

impl<T: DepElem> DepSet<T> {
    /// The empty set.
    pub const fn new() -> Self {
        DepSet {
            repr: Repr::Inline {
                len: 0,
                vals: [0; INLINE_CAP],
            },
            _marker: PhantomData,
            #[cfg(any(test, feature = "shadow-oracle"))]
            shadow: BTreeSet::new(),
        }
    }

    /// Number of elements.
    pub fn len(&self) -> usize {
        match &self.repr {
            Repr::Inline { len, .. } => *len as usize,
            Repr::Bits(b) => b.len,
        }
    }

    /// `true` if the set has no elements.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// `true` if `value` is a member.
    pub fn contains(&self, value: &T) -> bool {
        self.contains_raw(value.to_raw())
    }

    /// Insert `value`; returns `true` if it was not already present.
    pub fn insert(&mut self, value: T) -> bool {
        #[cfg(any(test, feature = "shadow-oracle"))]
        let shadow_changed = self.shadow.insert(value.to_raw());
        let changed = self.insert_raw(value.to_raw());
        #[cfg(any(test, feature = "shadow-oracle"))]
        {
            assert_eq!(changed, shadow_changed, "shadow oracle: insert disagreed");
            self.check_shadow();
        }
        changed
    }

    /// Remove `value`; returns `true` if it was present.
    pub fn remove(&mut self, value: &T) -> bool {
        #[cfg(any(test, feature = "shadow-oracle"))]
        let shadow_changed = self.shadow.remove(&value.to_raw());
        let changed = self.remove_raw(value.to_raw());
        #[cfg(any(test, feature = "shadow-oracle"))]
        {
            assert_eq!(changed, shadow_changed, "shadow oracle: remove disagreed");
            self.check_shadow();
        }
        changed
    }

    /// Add every element of `other` to `self` (set union, in place).
    ///
    /// Word-parallel when both sets are spilled; adopts `other`'s storage
    /// by refcount bump when `self` is small and `other` is spilled; a
    /// no-op (and no materialization) when `other ⊆ self`.
    pub fn union_with(&mut self, other: &DepSet<T>) {
        #[cfg(any(test, feature = "shadow-oracle"))]
        self.shadow.extend(other.shadow.iter().copied());
        self.union_raw(other);
        #[cfg(any(test, feature = "shadow-oracle"))]
        self.check_shadow();
    }

    /// `true` if every element of `self` is in `other`.
    pub fn is_subset(&self, other: &DepSet<T>) -> bool {
        if self.len() > other.len() {
            return false;
        }
        match (&self.repr, &other.repr) {
            (Repr::Bits(a), Repr::Bits(b)) => b.superset_of(a),
            _ => self.iter_raw().all(|v| other.contains_raw(v)),
        }
    }

    /// The elements of `self` that are not in `other`, ascending:
    /// word-parallel (`a & !b`) when both sets are spilled, otherwise a
    /// membership test per element of `self`.
    pub fn difference<'a>(&'a self, other: &'a DepSet<T>) -> Difference<'a, T> {
        self.outside(other, NO_MASK)
    }

    /// [`difference`](DepSet::difference) that also leaves out the ids set
    /// in `window`, without allocating. A spilled `self` is masked word by
    /// word with one operand — a spilled `other`, else `window` — and the
    /// other operand is tested per element that is left.
    pub(crate) fn outside<'a>(
        &'a self,
        other: &'a DepSet<T>,
        window: Window<'a>,
    ) -> Difference<'a, T> {
        let (inner, minus, bitmap) = match (&self.repr, &other.repr) {
            (Repr::Bits(a), Repr::Bits(b)) => {
                (IterRepr::bits(a, (b.base, &b.words)), None, Some(window))
            }
            (Repr::Bits(a), _) => (IterRepr::bits(a, window), Some(other), None),
            _ => (self.iter().inner, Some(other), Some(window)),
        };
        let iter = Iter {
            inner,
            _marker: PhantomData,
        };
        let minus = minus.filter(|m| !m.is_empty());
        let bitmap = bitmap.filter(|(_, words)| !words.is_empty());
        let difference = Difference {
            iter,
            minus,
            bitmap,
        };
        #[cfg(any(test, feature = "shadow-oracle"))]
        {
            let iter = difference.iter.clone();
            let got = Difference { iter, ..difference }.map(DepElem::to_raw);
            let want = self.shadow.difference(&other.shadow);
            let want = want.copied().filter(|&v| !bit(window, v));
            assert!(got.eq(want), "shadow oracle: difference disagreed");
        }
        difference
    }

    /// Keep only the elements that are also in `other` (set intersection,
    /// in place). Word-parallel when both sets are spilled, and a no-op (no
    /// materialization) when `self ⊆ other`; a spilled set cut down by an
    /// inline one, or emptied, returns to the inline form.
    pub fn intersect_with(&mut self, other: &DepSet<T>) {
        self.intersect_raw(other);
        #[cfg(any(test, feature = "shadow-oracle"))]
        {
            self.shadow.retain(|v| other.shadow.contains(v));
            self.check_shadow();
        }
    }

    /// [`union_with`](DepSet::union_with) that returns what was new to
    /// `self` (`other \ self` as it was). One pass over the words when both
    /// sets are spilled, shared storage when `self` is inline and `other`
    /// spilled (an empty `self` copies nothing at all), one insert per
    /// element of an inline `other`.
    pub fn add_all(&mut self, other: &DepSet<T>) -> DepSet<T> {
        let mut new = DepSet::new();
        self.add_all_raw(other, &mut new);
        #[cfg(any(test, feature = "shadow-oracle"))]
        {
            new.shadow = other.shadow.difference(&self.shadow).copied().collect();
            self.shadow.extend(new.shadow.iter().copied());
            self.check_shadow();
            new.check_shadow();
        }
        new
    }

    /// Iterate over the elements in ascending id order.
    pub fn iter(&self) -> Iter<'_, T> {
        Iter {
            inner: match &self.repr {
                Repr::Inline { len, vals } => IterRepr::Inline(vals[..*len as usize].iter()),
                Repr::Bits(b) => IterRepr::bits(b, NO_MASK),
            },
            _marker: PhantomData,
        }
    }

    fn iter_raw(&self) -> impl Iterator<Item = u64> + '_ {
        self.iter().map(DepElem::to_raw)
    }

    fn insert_raw(&mut self, v: u64) -> bool {
        match &mut self.repr {
            Repr::Inline { len, vals } => {
                let n = *len as usize;
                // Fast path: engine ids are allocated in increasing order,
                // so the common insert appends a new maximum.
                if n < INLINE_CAP && (n == 0 || vals[n - 1] < v) {
                    vals[n] = v;
                    *len += 1;
                    return true;
                }
                match vals[..n].binary_search(&v) {
                    Ok(_) => false,
                    Err(pos) if n < INLINE_CAP => {
                        vals.copy_within(pos..n, pos + 1);
                        vals[pos] = v;
                        *len += 1;
                        true
                    }
                    Err(_) => {
                        // Spill: one materialization.
                        note_spill();
                        self.repr = Repr::Bits(Bits::spill(vals, v));
                        true
                    }
                }
            }
            Repr::Bits(b) => b.insert(v),
        }
    }

    fn remove_raw(&mut self, v: u64) -> bool {
        match &mut self.repr {
            Repr::Inline { len, vals } => {
                let n = *len as usize;
                match vals[..n].binary_search(&v) {
                    Ok(pos) => {
                        vals.copy_within(pos + 1..n, pos);
                        *len -= 1;
                        true
                    }
                    Err(_) => false,
                }
            }
            Repr::Bits(b) => {
                if !b.contains(v) {
                    return false;
                }
                if b.len == 1 {
                    // The last element leaves: give the words back (or stop
                    // sharing them) rather than copy them to clear one bit.
                    // A process's `IDO` lives as long as the process; it
                    // must not stay spilled once its speculation window has
                    // drained.
                    self.repr = DepSet::<T>::new().repr;
                    return true;
                }
                b.remove(v);
                true
            }
        }
    }

    fn union_raw(&mut self, other: &DepSet<T>) {
        match &other.repr {
            Repr::Inline { len, vals } => {
                let n = *len as usize;
                let theirs: [u64; INLINE_CAP] = *vals;
                for &v in &theirs[..n] {
                    self.insert_raw(v);
                }
            }
            Repr::Bits(ob) => match &mut self.repr {
                Repr::Inline { len, vals } => {
                    // Adopt the big side's storage and add our few
                    // elements: at most one copy-on-write duplication.
                    let n = *len as usize;
                    let ours: [u64; INLINE_CAP] = *vals;
                    let mut bits = ob.clone();
                    for &v in &ours[..n] {
                        bits.insert(v);
                    }
                    self.repr = Repr::Bits(bits);
                }
                Repr::Bits(sb) => {
                    if !sb.superset_of(ob) {
                        sb.merge(ob, |_, _| {});
                    }
                }
            },
        }
    }

    fn intersect_raw(&mut self, other: &DepSet<T>) {
        if let (Repr::Bits(sb), Repr::Bits(ob)) = (&mut self.repr, &other.repr) {
            if ob.superset_of(sb) {
                return; // nothing to drop, nothing to materialize
            }
            if !sb.overlaps(ob) || !sb.retain(ob) {
                // As in `remove_raw`: an emptied set gives its words back.
                self.repr = DepSet::<T>::new().repr;
            }
            return;
        }
        // One side is inline, so the result is: what it holds of the other.
        let (small, big) = match self.repr {
            Repr::Inline { .. } => (&*self, other),
            Repr::Bits(_) => (other, &*self),
        };
        let (mut vals, mut len) = ([0; INLINE_CAP], 0);
        for v in small.iter_raw().filter(|&v| big.contains_raw(v)) {
            vals[len] = v;
            len += 1;
        }
        let len = len as u8;
        self.repr = Repr::Inline { len, vals };
    }

    /// `self ∪= other`, collecting `other \ self` into the empty `new`.
    fn add_all_raw(&mut self, other: &DepSet<T>, new: &mut DepSet<T>) {
        match (&mut self.repr, &other.repr) {
            (_, Repr::Inline { len, vals }) => {
                for &v in &vals[..*len as usize] {
                    if self.insert_raw(v) {
                        new.insert_raw(v);
                    }
                }
            }
            (Repr::Inline { len, vals }, Repr::Bits(ob)) => {
                // Both results start as shares of `other`'s words; each
                // copies at most once, and neither does for an empty `self`.
                let ours: [u64; INLINE_CAP] = *vals;
                let n = *len as usize;
                new.repr = other.repr.clone();
                self.repr = other.repr.clone();
                for &v in &ours[..n] {
                    if !ob.contains(v) {
                        self.insert_raw(v);
                    } else {
                        new.remove_raw(v);
                    }
                }
            }
            (Repr::Bits(sb), Repr::Bits(ob)) => {
                if sb.superset_of(ob) {
                    return; // nothing to add, nothing to materialize
                }
                sb.merge(ob, |at, mut fresh| {
                    while fresh != 0 {
                        new.insert_raw(at + fresh.trailing_zeros() as u64);
                        fresh &= fresh - 1;
                    }
                });
            }
        }
    }

    fn contains_raw(&self, v: u64) -> bool {
        match &self.repr {
            Repr::Inline { len, vals } => vals[..*len as usize].binary_search(&v).is_ok(),
            Repr::Bits(b) => b.contains(v),
        }
    }

    #[cfg(any(test, feature = "shadow-oracle"))]
    fn check_shadow(&self) {
        assert!(
            self.iter_raw().eq(self.shadow.iter().copied()),
            "DepSet diverged from its BTreeSet shadow oracle: {:?} vs {:?}",
            self.iter_raw().collect::<Vec<_>>(),
            self.shadow
        );
        assert_eq!(
            self.len(),
            self.shadow.len(),
            "shadow oracle: len disagreed"
        );
        if let Repr::Bits(b) = &self.repr {
            let ends = [b.words.first(), b.words.last()];
            assert!(
                ends.iter().all(|w| w.is_some_and(|&w| w != 0)),
                "untrimmed window"
            );
            let ones: u32 = b.words.iter().map(|w| w.count_ones()).sum();
            assert_eq!(ones as usize, b.len, "shadow oracle: cached len disagreed");
        }
    }
}

/// Duplicate the words if (and only if) they are shared, counting the copy.
fn make_mut(arc: &mut Arc<[u64]>) -> &mut [u64] {
    // A relaxed count load, not `Arc::get_mut`: this sits on the engine's
    // hottest path (every DOM registration and IDO removal lands here) and
    // `get_mut`'s uniqueness probe is an atomic RMW we'd pay *in addition*
    // to the one inside `make_mut`. `DepSet` never hands out `Weak` refs,
    // so `strong_count == 1` is exactly the case `Arc::make_mut` resolves
    // in place; anything else is the copy we count.
    if Arc::strong_count(arc) != 1 {
        note_cow_copy();
    }
    Arc::make_mut(arc)
}

impl<T: DepElem> Default for DepSet<T> {
    fn default() -> Self {
        DepSet::new()
    }
}

impl<T: DepElem> Clone for DepSet<T> {
    fn clone(&self) -> Self {
        DepSet {
            // Cloning a spilled set is an O(1) refcount bump.
            repr: self.repr.clone(),
            _marker: PhantomData,
            #[cfg(any(test, feature = "shadow-oracle"))]
            shadow: self.shadow.clone(),
        }
    }
}

impl<T: DepElem> PartialEq for DepSet<T> {
    fn eq(&self, other: &Self) -> bool {
        self.len() == other.len() && self.iter_raw().eq(other.iter_raw())
    }
}

impl<T: DepElem> Eq for DepSet<T> {}

impl<T: DepElem> PartialOrd for DepSet<T> {
    fn partial_cmp(&self, other: &Self) -> Option<std::cmp::Ordering> {
        Some(self.cmp(other))
    }
}

impl<T: DepElem> Ord for DepSet<T> {
    /// Lexicographic over ascending elements — the same order `BTreeSet`
    /// defines.
    fn cmp(&self, other: &Self) -> std::cmp::Ordering {
        self.iter_raw().cmp(other.iter_raw())
    }
}

impl<T: DepElem> Hash for DepSet<T> {
    fn hash<H: Hasher>(&self, state: &mut H) {
        state.write_usize(self.len());
        for v in self.iter_raw() {
            v.hash(state);
        }
    }
}

impl<T: DepElem> fmt::Debug for DepSet<T> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_set().entries(self.iter()).finish()
    }
}

impl<T: DepElem> FromIterator<T> for DepSet<T> {
    fn from_iter<I: IntoIterator<Item = T>>(iter: I) -> Self {
        let mut s = DepSet::new();
        s.extend(iter);
        s
    }
}

impl<T: DepElem> Extend<T> for DepSet<T> {
    fn extend<I: IntoIterator<Item = T>>(&mut self, iter: I) {
        for v in iter {
            self.insert(v);
        }
    }
}

impl<'a, T: DepElem> IntoIterator for &'a DepSet<T> {
    type Item = T;
    type IntoIter = Iter<'a, T>;
    fn into_iter(self) -> Iter<'a, T> {
        self.iter()
    }
}

/// A bitset window as `(index of its first word, its words)`.
pub(crate) type Window<'a> = (usize, &'a [u64]);

const NO_MASK: Window<'static> = (0, &[]);

/// Bit `v` of `window` (clear outside it).
pub(crate) fn bit((from, words): Window<'_>, v: u64) -> bool {
    let i = ((v / 64) as usize).checked_sub(from);
    i.and_then(|i| words.get(i))
        .is_some_and(|w| w >> (v % 64) & 1 == 1)
}

#[derive(Clone)]
enum IterRepr<'a> {
    Inline(std::slice::Iter<'a, u64>),
    /// The set bits of `words & !minus`, where `words[0]` holds ids from
    /// `first` on and `minus[j]` is aligned with `words[skip + j]` (it
    /// reads as zero outside that range).
    Bits {
        words: &'a [u64],
        first: u64,
        minus: &'a [u64],
        skip: usize,
        word_idx: usize,
        current: u64,
    },
}

impl<'a> IterRepr<'a> {
    /// The ids of `bits` that are not in the `minus` window.
    fn bits(bits: &'a Bits, (base, minus): Window<'a>) -> Self {
        let (minus, skip) = match base.checked_sub(bits.base) {
            Some(skip) => (minus, skip),
            None => (minus.get(bits.base - base..).unwrap_or(&[]), 0),
        };
        IterRepr::Bits {
            words: &bits.words,
            first: bits.base as u64 * 64,
            minus,
            skip,
            word_idx: 0,
            current: masked(&bits.words, minus, skip, 0).unwrap_or(0),
        }
    }
}

/// `words[i] & !minus[i - skip]`, `None` past the end of `words`.
fn masked(words: &[u64], minus: &[u64], skip: usize, i: usize) -> Option<u64> {
    let m = i.checked_sub(skip).and_then(|j| minus.get(j));
    Some(words.get(i)? & !m.copied().unwrap_or(0))
}

/// Ascending iterator over a [`DepSet`], yielding elements by value.
#[derive(Clone)]
pub struct Iter<'a, T: DepElem> {
    inner: IterRepr<'a>,
    _marker: PhantomData<T>,
}

impl<T: DepElem> fmt::Debug for Iter<'_, T> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str("depset::Iter")
    }
}

impl<T: DepElem> Iterator for Iter<'_, T> {
    type Item = T;

    fn next(&mut self) -> Option<T> {
        match &mut self.inner {
            IterRepr::Inline(it) => it.next().map(|&v| T::from_raw(v)),
            IterRepr::Bits {
                words,
                first,
                minus,
                skip,
                word_idx,
                current,
            } => {
                while *current == 0 {
                    *word_idx += 1;
                    *current = masked(words, minus, *skip, *word_idx)?;
                }
                let tz = current.trailing_zeros() as u64;
                *current &= *current - 1;
                Some(T::from_raw(*first + *word_idx as u64 * 64 + tz))
            }
        }
    }
}

/// Ascending iterator over [`DepSet::difference`].
#[derive(Debug)]
pub struct Difference<'a, T: DepElem> {
    iter: Iter<'a, T>,
    /// What `iter`'s words do not already leave out, tested per element.
    minus: Option<&'a DepSet<T>>,
    bitmap: Option<Window<'a>>,
}

impl<T: DepElem> Iterator for Difference<'_, T> {
    type Item = T;

    fn next(&mut self) -> Option<T> {
        let (minus, bitmap) = (self.minus, self.bitmap);
        self.iter.find(|v| {
            !minus.is_some_and(|m| m.contains(v)) && !bitmap.is_some_and(|b| bit(b, v.to_raw()))
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use hope_sim::SimRng;
    use std::collections::BTreeSet;

    fn aid(v: u64) -> AidId {
        AidId(v)
    }

    #[test]
    fn empty_set() {
        let s: DepSet<AidId> = DepSet::new();
        assert!(s.is_empty());
        assert_eq!(s.len(), 0);
        assert!(!s.contains(&aid(0)));
        assert_eq!(s.iter().count(), 0);
    }

    #[test]
    fn inline_insert_remove_sorted() {
        let mut s: DepSet<AidId> = DepSet::new();
        for v in [5u64, 1, 3, 7, 3] {
            s.insert(aid(v));
        }
        assert_eq!(s.len(), 4);
        let got: Vec<u64> = s.iter().map(|x| x.index()).collect();
        assert_eq!(got, vec![1, 3, 5, 7], "ascending like BTreeSet");
        assert!(s.remove(&aid(3)));
        assert!(!s.remove(&aid(3)));
        assert_eq!(s.len(), 3);
        assert!(!s.contains(&aid(3)));
    }

    #[test]
    fn spills_past_inline_capacity_and_stays_ordered() {
        let n = INLINE_CAP as u64 + 1;
        let mut s: DepSet<AidId> = DepSet::new();
        for v in (0..n).rev() {
            s.insert(aid(v * 10));
        }
        assert_eq!(s.len(), n as usize);
        let got: Vec<u64> = s.iter().map(|x| x.index()).collect();
        assert_eq!(got, (0..n).map(|v| v * 10).collect::<Vec<_>>());
        assert!(matches!(s.repr, Repr::Bits(_)), "crossed the cap: spilled");
        assert!(s.contains(&aid((n - 1) * 10)));
        assert!(!s.contains(&aid((n - 1) * 10 + 1)));
    }

    #[test]
    fn clone_of_spilled_set_is_shared_until_mutated() {
        let mut a: DepSet<AidId> = (0..INLINE_CAP as u64 + 4).map(aid).collect();
        let before = materializations();
        let b = a.clone();
        assert_eq!(materializations(), before, "clone is a refcount bump");
        a.insert(aid(99));
        assert_eq!(
            materializations(),
            before + 1,
            "first mutation of a shared set copies once"
        );
        assert!(a.contains(&aid(99)));
        assert!(!b.contains(&aid(99)), "COW: the clone is unaffected");
        assert_eq!(b.len(), INLINE_CAP + 4);
    }

    #[test]
    fn emptied_spilled_set_returns_to_inline_without_copying() {
        let mut a: DepSet<AidId> = (1000..1000 + INLINE_CAP as u64 + 4).map(aid).collect();
        let shared = a.clone();
        let before = cow_copies();
        for v in 1001..1000 + INLINE_CAP as u64 + 4 {
            a.remove(&aid(v));
        }
        assert_eq!(cow_copies(), before + 1, "one copy un-shares the words");
        let before = cow_copies();
        let b = a.clone();
        a.remove(&aid(1000));
        assert_eq!(cow_copies(), before, "the last removal drops its share");
        assert!(a.is_empty() && matches!(a.repr, Repr::Inline { len: 0, .. }));
        assert_eq!(b.len(), 1);
        assert_eq!(shared.len(), INLINE_CAP + 4);
    }

    #[test]
    fn union_adopts_big_side_storage() {
        let big: DepSet<AidId> = (0..40).map(aid).collect();
        let mut small: DepSet<AidId> = [aid(100), aid(3)].into_iter().collect();
        small.union_with(&big);
        assert_eq!(small.len(), 41);
        assert!(small.contains(&aid(100)));
        assert!(small.contains(&aid(39)));
    }

    #[test]
    fn union_of_subset_does_not_materialize() {
        let big: DepSet<AidId> = (0..40).map(aid).collect();
        let mut a = big.clone();
        let sub: DepSet<AidId> = (5..15).map(aid).collect();
        let before = materializations();
        a.union_with(&sub);
        assert_eq!(materializations(), before, "other ⊆ self is a no-op");
        assert_eq!(a.len(), 40);
    }

    #[test]
    fn subset_reflexive_and_word_parallel() {
        let a: DepSet<AidId> = (0..100).map(aid).collect();
        let b: DepSet<AidId> = (10..20).map(aid).collect();
        let c: DepSet<AidId> = [aid(5), aid(200)].into_iter().collect();
        assert!(a.is_subset(&a));
        assert!(b.is_subset(&a));
        assert!(!a.is_subset(&b));
        assert!(!c.is_subset(&a));
        let empty: DepSet<AidId> = DepSet::new();
        assert!(empty.is_subset(&a));
        assert!(empty.is_subset(&empty));
    }

    #[test]
    fn eq_ord_hash_match_btreeset_semantics() {
        use std::collections::hash_map::DefaultHasher;
        let a: DepSet<AidId> = [aid(2), aid(9), aid(70)].into_iter().collect();
        let b: DepSet<AidId> = [aid(70), aid(2), aid(9)].into_iter().collect();
        assert_eq!(a, b);
        let mut ha = DefaultHasher::new();
        let mut hb = DefaultHasher::new();
        a.hash(&mut ha);
        b.hash(&mut hb);
        assert_eq!(ha.finish(), hb.finish());
        let c: DepSet<AidId> = [aid(2), aid(9)].into_iter().collect();
        assert_ne!(a, c);
        assert!(c < a, "lexicographic like BTreeSet");
    }

    #[test]
    fn interval_ids_work_too() {
        let mut s: DepSet<IntervalId> = DepSet::new();
        s.insert(IntervalId(7));
        s.insert(IntervalId(300));
        assert!(s.contains(&IntervalId(300)));
        assert_eq!(s.iter().count(), 2);
    }

    /// A set holding exactly `vals`, in the inline form or — built past the
    /// inline capacity and cut back — the spilled one.
    fn set_of(vals: &BTreeSet<u64>, spilled: bool) -> DepSet<AidId> {
        let mut s: DepSet<AidId> = vals.iter().copied().map(aid).collect();
        if spilled && matches!(s.repr, Repr::Inline { .. }) {
            // Past the largest element: the window widens for the filler
            // and shrinks back to the span of `vals` as it leaves.
            let past = vals.last().map_or(0, |v| v + 1);
            let filler: Vec<u64> = (past..past + INLINE_CAP as u64 + 1).collect();
            s.extend(filler.iter().copied().map(aid));
            for v in &filler {
                s.remove(&aid(*v));
            }
            if vals.is_empty() {
                return s; // an emptied set is inline again, by design
            }
            assert!(matches!(s.repr, Repr::Bits(_)));
        }
        s
    }

    fn raw(s: &DepSet<AidId>) -> Vec<u64> {
        s.iter().map(|x| x.index()).collect()
    }

    /// `difference`, `intersect_with` and `add_all` against `BTreeSet`
    /// arithmetic on one pair of operands.
    fn check_pair(a: &DepSet<AidId>, b: &DepSet<AidId>) {
        let (ma, mb): (BTreeSet<u64>, BTreeSet<u64>) =
            (raw(a).into_iter().collect(), raw(b).into_iter().collect());
        let diff: Vec<u64> = a.difference(b).map(|x| x.index()).collect();
        assert_eq!(diff, ma.difference(&mb).copied().collect::<Vec<_>>());
        // `outside`: the same, less every third id of either operand that
        // lies in a bitmap window — whole, or cut short at either end.
        let marked: BTreeSet<u64> = ma.union(&mb).copied().step_by(3).collect();
        if let (Some(&lo), Some(&hi)) = (marked.first(), marked.last()) {
            let from = (lo / 64) as usize;
            let mut words = vec![0u64; (hi / 64) as usize + 1 - from];
            for v in &marked {
                words[(v / 64) as usize - from] |= 1 << (v % 64);
            }
            let cut = words.len() / 2;
            for (at, w) in [
                (from, &words[..]),
                (from + 1, &words[1..]),
                (from, &words[..cut]),
            ] {
                let within = |v: u64| (at..at + w.len()).contains(&((v / 64) as usize));
                let got: Vec<u64> = a.outside(b, (at, w)).map(|x| x.index()).collect();
                let want = ma
                    .difference(&mb)
                    .filter(|&&v| !(marked.contains(&v) && within(v)));
                assert_eq!(got, want.copied().collect::<Vec<_>>());
            }
        }
        let mut i = a.clone();
        i.intersect_with(b);
        assert_eq!(raw(&i), ma.intersection(&mb).copied().collect::<Vec<_>>());
        assert_eq!(i.len(), ma.intersection(&mb).count());
        if i.is_empty() {
            assert!(matches!(i.repr, Repr::Inline { len: 0, .. }), "emptied");
        }
        let mut u = a.clone();
        let new = u.add_all(b);
        assert_eq!(raw(&u), ma.union(&mb).copied().collect::<Vec<_>>());
        assert_eq!(raw(&new), mb.difference(&ma).copied().collect::<Vec<_>>());
        assert_eq!(
            (u.len(), new.len()),
            (ma.union(&mb).count(), raw(&new).len())
        );
        assert_eq!(
            raw(a),
            ma.into_iter().collect::<Vec<_>>(),
            "operands intact"
        );
    }

    /// Where a domain starts: at zero, mid-word past word `k`, and near 2²⁰.
    fn base(round: usize, rng: &mut SimRng) -> u64 {
        [0, 64 * (1 + rng.next_u64() % 40) + 13, 1 << 20][round % 3]
    }

    /// A size that leaves the set inline one time in three.
    fn size(rng: &mut SimRng) -> u64 {
        match rng.next_u64() % 3 {
            0 => rng.next_u64() % (INLINE_CAP as u64 + 1),
            _ => rng.next_u64() % 70,
        }
    }

    #[test]
    fn set_algebra_matches_btreeset_over_every_representation_pairing() {
        let mut rng = SimRng::new(0x5E7A);
        for round in 0..1200 {
            // Domains of different widths and starts, so that spilled
            // operands carry windows of different lengths and offsets.
            let (wa, mut wb) = (
                [40, 200, 2000][round / 3 % 3],
                [40, 200, 2000][round / 9 % 3],
            );
            let ba = base(round, &mut rng);
            let bb = match round / 27 % 4 {
                0 => ba,
                1 => ba + wa + 64 * (rng.next_u64() % 3), // disjoint windows
                2 => {
                    wb = wa / 2; // nested
                    ba + wa / 4
                }
                _ => ba + wa / 2, // overlapping
            };
            let (na, nb) = (size(&mut rng), size(&mut rng));
            let a: BTreeSet<u64> = (0..na).map(|_| ba + rng.next_u64() % wa).collect();
            let mut b: BTreeSet<u64> = (0..nb).map(|_| bb + rng.next_u64() % wb).collect();
            match round % 5 {
                0 => b.retain(|v| !a.contains(v)), // disjoint: an intersection that empties
                1 => b.extend(a.iter().copied()),  // a ⊆ b
                _ => {}
            }
            for (sa, sb) in [(false, false), (false, true), (true, false), (true, true)] {
                if !sa && a.len() > INLINE_CAP || !sb && b.len() > INLINE_CAP {
                    continue;
                }
                let (x, y) = (set_of(&a, sa), set_of(&b, sb));
                check_pair(&x, &y);
                check_pair(&y, &x);
            }
            // The same `Arc` on both sides.
            let shared = set_of(&a, true);
            check_pair(&shared, &shared.clone());
        }
    }

    #[test]
    fn spilled_set_algebra_is_word_parallel() {
        // 100 held names, a 120-name tag sharing 60 of them.
        let held: DepSet<AidId> = (0..200).step_by(2).map(aid).collect();
        let tag: DepSet<AidId> = (80..200).map(aid).collect();
        let more: DepSet<AidId> = (150..260).map(aid).collect();
        let before = (cow_copies(), spills());
        assert_eq!(tag.difference(&held).count(), 60);
        assert_eq!((cow_copies(), spills()), before, "a read copies nothing");

        // Intersection: one copy to un-share the clone, none when ⊆ already.
        let mut kept = tag.clone();
        kept.intersect_with(&held);
        assert_eq!(kept.len(), 60);
        assert_eq!((cow_copies(), spills()), (before.0 + 1, before.1));
        kept.intersect_with(&held);
        let mut same = held.clone();
        same.intersect_with(&held);
        assert_eq!((cow_copies(), spills()), (before.0 + 1, before.1));
        drop(same);

        // add_all: in place on unshared words; the 60 new names are one
        // result set (its one spill), not 60 inserts into a copy.
        let mut ido = held;
        let new = ido.add_all(&tag);
        assert_eq!((ido.len(), new.len()), (160, 60));
        assert_eq!((cow_copies(), spills()), (before.0 + 1, before.1 + 1));
        assert!(ido.add_all(&tag).is_empty() && ido.add_all(&ido.clone()).is_empty());
        assert_eq!((cow_copies(), spills()), (before.0 + 1, before.1 + 1));
        // A shared receiver is copied once, whatever enters.
        let sent = ido.clone();
        assert_eq!(ido.add_all(&more).len(), 60);
        assert_eq!((cow_copies(), spills()), (before.0 + 2, before.1 + 2));
        assert_eq!(sent.len(), 160);

        // An inline receiver shares a spilled operand's words: an empty
        // one copies nothing, and neither result is rebuilt name by name.
        let mut empty: DepSet<AidId> = DepSet::new();
        let before = (cow_copies(), spills());
        assert_eq!(empty.add_all(&tag).len(), 120);
        assert_eq!((cow_copies(), spills()), before);
        let mut few: DepSet<AidId> = [aid(3), aid(90)].into_iter().collect();
        let new = few.add_all(&tag);
        assert_eq!((few.len(), new.len()), (121, 119));
        assert_eq!((cow_copies(), spills()), (before.0 + 2, before.1));
    }

    #[test]
    fn randomized_parity_with_btreeset() {
        // 24 interleaved op streams over domains big enough to force
        // spills, each mirrored into a BTreeSet and compared exhaustively.
        // `other`'s domain starts where `s`'s does, half-way in, or past
        // its end, and both start at zero, mid-word or near 2²⁰.
        let mut rng = SimRng::new(0xD1F7);
        for round in 0..24 {
            let at = base(round, &mut rng);
            let other_at = at + [0, 100, 264][round / 3 % 3];
            let width = [200, 24][round / 9 % 2];
            let mut s: DepSet<AidId> = DepSet::new();
            let mut model: BTreeSet<u64> = BTreeSet::new();
            let mut other: DepSet<AidId> = DepSet::new();
            let mut other_model: BTreeSet<u64> = BTreeSet::new();
            for _ in 0..400 {
                let v = rng.next_u64() % width;
                match rng.next_u64() % 8 {
                    0..=2 => {
                        assert_eq!(s.insert(aid(at + v)), model.insert(at + v), "round {round}");
                    }
                    3 => {
                        assert_eq!(s.remove(&aid(at + v)), model.remove(&(at + v)));
                    }
                    4 => {
                        other.insert(aid(other_at + v));
                        other_model.insert(other_at + v);
                    }
                    5 => {
                        other.remove(&aid(other_at + v));
                        other_model.remove(&(other_at + v));
                    }
                    6 => {
                        s.union_with(&other);
                        model.extend(other_model.iter().copied());
                    }
                    _ => {
                        s.intersect_with(&other);
                        model.retain(|v| other_model.contains(v));
                    }
                }
                assert_eq!(s.len(), model.len());
                assert!(s.iter().map(|x| x.index()).eq(model.iter().copied()));
                assert_eq!(
                    s.is_subset(&other),
                    model.is_subset(&other_model),
                    "round {round}"
                );
                assert_eq!(other.is_subset(&s), other_model.is_subset(&model));
                assert!(s
                    .difference(&other)
                    .map(|x| x.index())
                    .eq(model.difference(&other_model).copied()));
            }
        }
    }

    #[test]
    fn a_set_is_forty_bytes() {
        // Test builds give each set a `BTreeSet` shadow; the shipped set
        // has none.
        let shadow = std::mem::size_of::<BTreeSet<u64>>();
        let size = std::mem::size_of::<DepSet<AidId>>() - shadow;
        assert!(size <= 40, "DepSet is {size} bytes");
    }

    #[test]
    fn a_sliding_window_far_from_zero_stays_two_words() {
        // A 6-wide `IDO` slides across 100,000 ids from 10⁶ on, and each
        // round a send clones it into a tag that lives until the next
        // send: the set stays spilled, holds at most two words, and the
        // insert into the shared words is the round's one copy.
        const FROM: u64 = 1_000_000;
        let window = |s: &DepSet<AidId>| match &s.repr {
            Repr::Bits(b) => b.words.len(),
            Repr::Inline { .. } => panic!("a 6-wide set is spilled"),
        };
        let mut ido: DepSet<AidId> = (FROM..FROM + 6).map(aid).collect();
        let mut tag = ido.clone();
        let spills_before = spills();
        for v in FROM..FROM + 100_000 {
            let before = cow_copies();
            ido.insert(aid(v + 6));
            assert!(
                window(&ido) <= 2,
                "7 ids at {v} span {} words",
                window(&ido)
            );
            ido.remove(&aid(v));
            assert!(
                window(&ido) <= 2,
                "6 ids at {v} span {} words",
                window(&ido)
            );
            assert!(cow_copies() - before <= 1, "round {v} copied twice");
            tag = ido.clone();
        }
        assert_eq!(spills(), spills_before, "the set never emptied");
        assert_eq!(
            raw(&tag),
            (FROM + 100_000..FROM + 100_006).collect::<Vec<_>>()
        );
    }
}
