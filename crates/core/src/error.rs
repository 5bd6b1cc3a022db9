//! Error type for the semantics engine.
//!
//! The paper leaves several misuses "undefined" (§5.2: more than one
//! `affirm`/`deny`/`free_of` applied to one AID). A library cannot leave
//! behaviour undefined, so every such misuse is a *defined* error here.

use std::fmt;

use crate::ids::{AidId, IntervalId, ProcessId};

/// Errors returned by [`Engine`](crate::Engine) operations.
///
/// All variants indicate caller misuse; the engine never fails internally.
/// The engine's state is unchanged when an error is returned.
#[derive(Debug, Clone, PartialEq, Eq)]
#[non_exhaustive]
pub enum Error {
    /// The given process id was never registered with this engine.
    UnknownProcess(ProcessId),
    /// The given AID was not created by this engine's
    /// [`aid_init`](crate::Engine::aid_init).
    UnknownAid(AidId),
    /// The given interval id does not exist in this engine.
    UnknownInterval(IntervalId),
    /// An `affirm`, `deny` or `free_of` was applied to an AID that has
    /// already been consumed by a previous `affirm`, `deny` or `free_of`.
    ///
    /// §5.2: "more than one affirm or deny primitive applied to a single
    /// assumption identifier, in any combination, is a user error". The
    /// paper's meaning is undefined; ours is this error.
    AidConsumed(AidId),
    /// A `guess` listed no assumption identifiers.
    ///
    /// An empty guess would create an interval indistinguishable from plain
    /// execution; the engine rejects it so the mistake is caught early.
    EmptyGuess,
    /// `finalize` was requested for an interval whose `IDO` set is not empty
    /// (violates the precondition of Equation 20).
    ///
    /// Only reachable through the low-level testing surface; the engine's own
    /// cascades always respect the precondition.
    FinalizePrecondition(IntervalId),
    /// The given AID was reclaimed by
    /// [`collect_fossils`](crate::Engine::collect_fossils).
    ///
    /// Its decision is still answered transparently by
    /// [`aid_state`](crate::Engine::aid_state) and honoured by every
    /// program-facing primitive; only the record itself (the
    /// [`AidView`](crate::AidView) debugging surface) is gone.
    FossilAid(AidId),
    /// The given interval was reclaimed by
    /// [`collect_fossils`](crate::Engine::collect_fossils).
    ///
    /// Fossil intervals were definite (or rolled back) below the commit
    /// horizon; no primitive can name them again, so only the
    /// [`IntervalView`](crate::IntervalView) debugging surface and the
    /// low-level `finalize` entry point observe this error.
    FossilInterval(IntervalId),
}

impl fmt::Display for Error {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Error::UnknownProcess(p) => write!(f, "unknown process {p}"),
            Error::UnknownAid(x) => write!(f, "unknown assumption identifier {x}"),
            Error::UnknownInterval(a) => write!(f, "unknown interval {a}"),
            Error::AidConsumed(x) => write!(
                f,
                "assumption identifier {x} was already affirmed, denied or freed"
            ),
            Error::EmptyGuess => write!(f, "guess requires at least one assumption identifier"),
            Error::FinalizePrecondition(a) => {
                write!(f, "interval {a} cannot finalize: its IDO set is not empty")
            }
            Error::FossilAid(x) => write!(
                f,
                "assumption identifier {x} was reclaimed by fossil collection"
            ),
            Error::FossilInterval(a) => {
                write!(f, "interval {a} was reclaimed by fossil collection")
            }
        }
    }
}

impl std::error::Error for Error {}

/// Convenient result alias for engine operations.
pub type Result<T> = std::result::Result<T, Error>;

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display_is_lowercase_and_unpunctuated() {
        let msgs = [
            Error::UnknownProcess(ProcessId(1)).to_string(),
            Error::UnknownAid(AidId(2)).to_string(),
            Error::UnknownInterval(IntervalId(3)).to_string(),
            Error::AidConsumed(AidId(4)).to_string(),
            Error::EmptyGuess.to_string(),
            Error::FinalizePrecondition(IntervalId(5)).to_string(),
            Error::FossilAid(AidId(6)).to_string(),
            Error::FossilInterval(IntervalId(7)).to_string(),
        ];
        for m in msgs {
            assert!(!m.ends_with('.'), "no trailing punctuation: {m}");
            assert!(m.chars().next().unwrap().is_lowercase(), "lowercase: {m}");
        }
    }

    #[test]
    fn an_error_is_sixteen_bytes() {
        // Every variant holds at most one id, so the error carries no heap
        // field, and the engine's effect-returning primitives return it in
        // a word less than before.
        assert_eq!(std::mem::size_of::<Error>(), 16);
        assert_eq!(std::mem::size_of::<Result<Vec<crate::Effect>>>(), 24);
    }

    #[test]
    fn error_is_send_sync_static() {
        fn assert_good<T: std::error::Error + Send + Sync + 'static>() {}
        assert_good::<Error>();
    }
}
