//! Assumption identifiers and their control state.
//!
//! Each AID `X` carries the control variable `X.DOM` ("Depends On Me",
//! Definition 4.2): the set of intervals that are rolled back if `X`'s
//! assumption is discovered to be false. `DOM` is invisible to the
//! programmer "in the same sense that program counters are invisible"; this
//! module is accordingly `pub(crate)` except for the read-only views the
//! engine re-exports for inspection and testing.

use std::borrow::Cow;

use crate::depset::DepSet;
use crate::engine::Engine;
use crate::ids::{AidId, IntervalId, ProcessId};

/// The decision state of an optimistic assumption.
///
/// An AID starts [`Undecided`](AidState::Undecided). A *definite* `affirm`
/// or `deny` moves it to [`Affirmed`](AidState::Affirmed) or
/// [`Denied`](AidState::Denied) permanently. A *speculative* affirm leaves
/// the AID undecided (its fate is tied to the affirming interval's fate);
/// the engine records the tie separately.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum AidState {
    /// Neither definitively affirmed nor definitively denied yet.
    Undecided,
    /// Definitively affirmed: every dependence on this AID has been or will
    /// be discharged; per Theorem 5.2 its former dependents can no longer be
    /// rolled back *on its account*.
    Affirmed,
    /// Definitively denied: every interval that depended on this AID has
    /// been rolled back (Equation 15), and any message tagged with it is a
    /// ghost.
    Denied,
}

impl AidState {
    /// `true` if the assumption has been definitively decided either way.
    pub fn is_decided(self) -> bool {
        !matches!(self, AidState::Undecided)
    }
}

/// Internal record for one assumption identifier.
#[derive(Debug, Clone)]
pub(crate) struct Aid {
    pub(crate) id: AidId,
    /// Process that executed `aid_init` (recorded for traces only).
    pub(crate) creator: ProcessId,
    /// Current decision state.
    pub(crate) state: AidState,
    /// The *heads* of `X.DOM` (Definition 4.2): for each process that
    /// depends on `X`, the first interval of its history that does — the
    /// one whose stored `ido` holds `X`. Every later interval of that
    /// history depends on `X` too (Theorem 5.1's prefix-subset invariant),
    /// so `X.DOM` is each head's history suffix ([`AidView::dom`]) and
    /// Lemma 5.1's symmetry holds by construction. Ascending, so cascades
    /// visit processes in the order the full set would.
    pub(crate) dom: DepSet<IntervalId>,
    /// Whether an `affirm`, `deny` or `free_of` has been applied. One-shot
    /// per §5.2; a second application is [`Error::AidConsumed`].
    ///
    /// [`Error::AidConsumed`]: crate::Error::AidConsumed
    pub(crate) consumed: bool,
    /// If `Some(a)`, the AID was speculatively affirmed by interval `a`
    /// (Equations 10–14) and its definite fate follows `a`'s fate: it becomes
    /// [`AidState::Affirmed`] when `a` finalizes and [`AidState::Denied`]
    /// (footnote 2, §5.6) when `a` rolls back.
    pub(crate) spec_affirmed_by: Option<IntervalId>,
    /// If `Some(a)`, a speculative `deny` by interval `a` is pending in
    /// `a.IHD`; recorded here so traces can explain the AID's limbo.
    pub(crate) spec_denied_by: Option<IntervalId>,
}

impl Aid {
    pub(crate) fn new(id: AidId, creator: ProcessId) -> Self {
        Aid {
            id,
            creator,
            state: AidState::Undecided,
            dom: DepSet::new(),
            consumed: false,
            spec_affirmed_by: None,
            spec_denied_by: None,
        }
    }
}

/// Read-only view of one assumption identifier's control state.
///
/// Obtained from [`Engine::aid`](crate::Engine::aid). The view borrows the
/// engine; it exposes exactly the control variables of Definition 4.2 plus
/// the bookkeeping our engine adds (consumption, speculative ties).
#[derive(Clone, Copy)]
pub struct AidView<'a> {
    pub(crate) engine: &'a Engine,
    pub(crate) inner: &'a Aid,
}

/// The control state as the accessors report it, not the engine the view
/// borrows.
impl std::fmt::Debug for AidView<'_> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("AidView")
            .field("id", &self.id())
            .field("creator", &self.creator())
            .field("state", &self.state())
            .field("dom", &*self.dom())
            .field("consumed", &self.is_consumed())
            .field("spec_affirmed_by", &self.speculatively_affirmed_by())
            .field("spec_denied_by", &self.speculatively_denied_by())
            .finish()
    }
}

impl<'a> AidView<'a> {
    /// The AID this view describes.
    pub fn id(&self) -> AidId {
        self.inner.id
    }

    /// The process that created the AID via `aid_init`.
    pub fn creator(&self) -> ProcessId {
        self.inner.creator
    }

    /// Current decision state.
    pub fn state(&self) -> AidState {
        self.inner.state
    }

    /// `X.DOM`: the intervals currently dependent on this assumption.
    ///
    /// Read off the heads on demand — the engine stores one *head* per
    /// dependent process (see the [`Engine`] module docs, § Storage), and
    /// this is every interval from each head to the end of its process's
    /// history: borrowed when no head has a successor, otherwise built,
    /// linear in the size of the answer.
    ///
    /// Iterating the [`DepSet`] yields [`IntervalId`]s by value in
    /// ascending order, exactly as the former `BTreeSet` representation did.
    pub fn dom(&self) -> Cow<'a, DepSet<IntervalId>> {
        self.engine.dom_of(self.inner)
    }

    /// Whether an `affirm`/`deny`/`free_of` has consumed this AID.
    pub fn is_consumed(&self) -> bool {
        self.inner.consumed
    }

    /// The interval whose fate this AID follows after a speculative affirm,
    /// if any.
    pub fn speculatively_affirmed_by(&self) -> Option<IntervalId> {
        self.inner.spec_affirmed_by
    }

    /// The interval holding a pending speculative deny of this AID, if any.
    pub fn speculatively_denied_by(&self) -> Option<IntervalId> {
        self.inner.spec_denied_by
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn new_aid_is_undecided_and_unconsumed() {
        let a = Aid::new(AidId(0), ProcessId(1));
        assert_eq!(a.state, AidState::Undecided);
        assert!(!a.consumed);
        assert!(a.dom.is_empty());
        assert!(a.spec_affirmed_by.is_none());
        assert!(a.spec_denied_by.is_none());
    }

    #[test]
    fn the_record_is_eighty_eight_bytes() {
        // One 40-byte inline `DOM`: 88 bytes. The engine stores one per AID
        // and the model checker clones them all with every machine. Test
        // builds give the set a `BTreeSet` shadow; the shipped record has
        // none.
        let shadow = std::mem::size_of::<std::collections::BTreeSet<u64>>();
        let size = std::mem::size_of::<Aid>() - shadow;
        assert!(size <= 88, "Aid is {size} bytes");
    }

    #[test]
    fn decided_states() {
        assert!(!AidState::Undecided.is_decided());
        assert!(AidState::Affirmed.is_decided());
        assert!(AidState::Denied.is_decided());
    }
}
