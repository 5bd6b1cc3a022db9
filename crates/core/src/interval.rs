//! Intervals: the unit of rollback (Definitions 4.3–4.4).
//!
//! An interval is a subsequence of a process's execution history between two
//! guess points. Each interval `A` carries the control-variable tuple of
//! Definition 4.4:
//!
//! * `A.PS` — *Previous State*: the checkpoint taken when the interval's
//!   guess executed. The engine stores an opaque token the runtime supplies
//!   (a journal position, a snapshot index, …); the engine never interprets
//!   it.
//! * `A.IDO` — *I Depend On*: the assumption identifiers the interval
//!   depends on.
//! * `A.IHD` — *I Have Denied*: speculative denies pending finalization
//!   (Equation 16).
//! * `A.PID` — the owning process (a "naming convenience" per §5.1).
//!
//! We additionally record `A.IHA` (*I Have Affirmed*): the AIDs this
//! interval speculatively affirmed. The paper's Equations 10–14 rewire
//! dependence eagerly, so `IHA` is not needed for dependency tracking — it
//! exists so the engine can (a) promote the AID to definitively
//! [`Affirmed`](crate::AidState::Affirmed) when the interval finalizes
//! (Lemma 6.1's conclusion) and (b) conservatively deny it when the interval
//! rolls back (§5.6, footnote 2).

use std::borrow::Cow;

use crate::depset::DepSet;
use crate::engine::Engine;
use crate::ids::{AidId, IntervalId, ProcessId};

/// Lifecycle status of an interval.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum IntervalStatus {
    /// Still dependent on undecided assumptions; may be rolled back.
    Speculative,
    /// Finalized (§5.5): a permanent part of its process's history. Per
    /// Theorem 5.2 a definite interval can never be rolled back.
    Definite,
    /// Discarded by rollback (§5.6): truncated from its process's history.
    RolledBack,
}

/// Opaque checkpoint token — the paper's `A.PS` (*Previous State*).
///
/// The engine records whatever the runtime passes to
/// [`Engine::guess`](crate::Engine::guess) and hands it back in the
/// [`Effect::RolledBack`](crate::Effect::RolledBack) effect so the runtime
/// can restore the process. The deterministic runtime stores a journal
/// position; tests store sequence numbers.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
pub struct Checkpoint(pub u64);

impl std::fmt::Display for Checkpoint {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "ps@{}", self.0)
    }
}

/// Internal record for one interval.
#[derive(Debug, Clone)]
pub(crate) struct Interval {
    pub(crate) id: IntervalId,
    /// `A.PID`.
    pub(crate) pid: ProcessId,
    /// `A.PS`.
    pub(crate) ps: Checkpoint,
    /// The part of `A.IDO` that *entered* the process's dependence at this
    /// interval: the AIDs `A` depends on that its predecessor did not.
    /// `A.IDO` itself is the union of these sets from the process's first
    /// speculative interval up to `A` ([`IntervalView::ido`]); Theorem
    /// 5.1's prefix-subset invariant is what makes that exact. Empty once
    /// the interval is definite or rolled back.
    pub(crate) ido: DepSet<AidId>,
    /// `A.IHD`, out of line: almost every interval leaves it empty, and
    /// `None` is the empty set.
    pub(crate) ihd: Option<Box<DepSet<AidId>>>,
    /// `A.IHA` (see module docs), out of line like `ihd`.
    pub(crate) iha: Option<Box<DepSet<AidId>>>,
    /// The AIDs named in the guess that opened this interval (before
    /// inheriting the parent's `IDO`). Used by runtimes to re-issue the
    /// guess after rollback and by the resume-point invariant tests.
    pub(crate) guessed: DepSet<AidId>,
    pub(crate) status: IntervalStatus,
    /// Position in the owning process's (live) history at creation time.
    pub(crate) seq: usize,
}

/// What [`IntervalView::ihd`] and [`IntervalView::iha`] lend for a set
/// never written.
static EMPTY: DepSet<AidId> = DepSet::new();

/// Read-only view of one interval's control variables.
///
/// Obtained from [`Engine::interval`](crate::Engine::interval).
#[derive(Clone, Copy)]
pub struct IntervalView<'a> {
    pub(crate) engine: &'a Engine,
    pub(crate) inner: &'a Interval,
}

/// The control variables as the accessors report them, not the engine the
/// view borrows.
impl std::fmt::Debug for IntervalView<'_> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("IntervalView")
            .field("id", &self.id())
            .field("pid", &self.process())
            .field("ps", &self.checkpoint())
            .field("ido", &*self.ido())
            .field("ihd", self.ihd())
            .field("iha", self.iha())
            .field("guessed", self.guessed())
            .field("status", &self.status())
            .field("seq", &self.seq())
            .finish()
    }
}

impl<'a> IntervalView<'a> {
    /// The interval this view describes.
    pub fn id(&self) -> IntervalId {
        self.inner.id
    }

    /// `A.PID`: the owning process.
    pub fn process(&self) -> ProcessId {
        self.inner.pid
    }

    /// `A.PS`: the checkpoint token recorded at the guess point.
    pub fn checkpoint(&self) -> Checkpoint {
        self.inner.ps
    }

    /// `A.IDO`: assumption identifiers this interval depends on.
    ///
    /// Read off the chain on demand — the engine stores only what entered
    /// the dependence at each interval (see the [`Engine`] module docs,
    /// § Storage), so this is the union over the process's speculative
    /// history up to `A`: borrowed, O(1), for the current interval and for
    /// the first speculative one; built, linear in the chain before it,
    /// otherwise. Definite intervals depend on nothing, and a rolled-back
    /// interval reports the empty set (its dependence died with it).
    ///
    /// Iterating the [`DepSet`] yields [`AidId`]s by value in ascending
    /// order, exactly as the former `BTreeSet` representation did.
    pub fn ido(&self) -> Cow<'a, DepSet<AidId>> {
        self.engine.ido_of(self.inner)
    }

    /// The part of `A.IDO` that *entered* its process's dependence at `A`:
    /// the AIDs `A` depends on that its predecessor did not — the set the
    /// engine stores (module docs of [`Engine`], § Storage). Borrowed,
    /// O(1).
    ///
    /// Along one process's chain of speculative intervals these sets are
    /// pairwise disjoint, `A.IDO` is their union from the first one up to
    /// `A`, and `X.DOM` is every interval from the one whose entered set
    /// holds `X` to the end of its history. Empty for a definite or
    /// rolled-back interval.
    pub fn entered(&self) -> &'a DepSet<AidId> {
        &self.inner.ido
    }

    /// `A.IHD`: speculative denies pending this interval's finalization.
    pub fn ihd(&self) -> &'a DepSet<AidId> {
        self.inner.ihd.as_deref().unwrap_or(&EMPTY)
    }

    /// `A.IHA`: speculative affirms issued within this interval.
    pub fn iha(&self) -> &'a DepSet<AidId> {
        self.inner.iha.as_deref().unwrap_or(&EMPTY)
    }

    /// The AIDs named by the guess that opened this interval.
    pub fn guessed(&self) -> &'a DepSet<AidId> {
        &self.inner.guessed
    }

    /// Current lifecycle status.
    pub fn status(&self) -> IntervalStatus {
        self.inner.status
    }

    /// Position of this interval within its process's history at creation.
    pub fn seq(&self) -> usize {
        self.inner.seq
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn checkpoint_display() {
        assert_eq!(Checkpoint(9).to_string(), "ps@9");
    }

    #[test]
    fn interval_fields_construct() {
        let i = Interval {
            id: IntervalId(0),
            pid: ProcessId(0),
            ps: Checkpoint(0),
            ido: DepSet::new(),
            ihd: None,
            iha: None,
            guessed: DepSet::new(),
            status: IntervalStatus::Speculative,
            seq: 0,
        };
        assert_eq!(i.status, IntervalStatus::Speculative);
        assert_eq!(i.seq, 0);
    }

    #[test]
    fn the_record_keeps_its_rare_sets_out_of_line() {
        // Two 40-byte inline sets and two pointers: 128 bytes. Every
        // interval the engine stores, clones (the model checker's
        // `Machine::clone`) and walks pays this.
        // Test builds give each inline set a `BTreeSet` shadow; it does
        // not exist in the record the engine ships.
        let shadows = 2 * std::mem::size_of::<std::collections::BTreeSet<u64>>();
        let size = std::mem::size_of::<Interval>() - shadows;
        assert!(size <= 128, "Interval is {size} bytes");
    }
}
