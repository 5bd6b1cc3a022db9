//! The one record of what a process did, and its consumers.
//!
//! The [`Engine`] reports *state changes* as [`Effect`]s; an [`Action`] is
//! the primitive that caused them — including the ones the semantics
//! deliberately swallows: a decider skipped because its AID was already
//! consumed (§5.2's one-shot rule), a ghost message filtered before
//! delivery (§7), a re-executed guess answering `False` (Equation 24).
//!
//! Every surface that records a process's steps speaks `Action`: the
//! abstract [`machine`](crate::machine)'s histories (Definition 4.1's
//! `E_i`), the [`RuntimeObserver`] callbacks both embeddings feed, and —
//! through its `Display` — the per-primitive lines of `hope-runtime`'s
//! execution trace. [`decide`] is the one dispatch of
//! `affirm`/`deny`/`free_of` both embeddings call.
//!
//! Observers are fed by the machine via
//! [`Machine::run_with`](crate::machine::Machine::run_with) (used by the
//! exhaustive agreement test-suites) and, on real simulated applications,
//! from `hope-runtime`'s one watch hook, `Simulation::set_observer`, whose
//! `RunEvent::Action` events carry the same triple beside the runtime's
//! other events (deliveries, faults, rollbacks, commits). Each callback
//! delivers the acting process, the [`Action`] it performed, and the
//! ordered [`Effect`] list the engine produced for it, so an observer sees
//! cause and consequence atomically.

use std::fmt;

use crate::engine::Engine;
use crate::error::{Error, Result};
use crate::ids::{AidId, ProcessId};
use crate::Effect;

/// Which decider primitive: what [`decide`] issues, and what an
/// [`Action::SkippedDecide`] skipped.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum DecideKind {
    /// `affirm(x)`.
    Affirm,
    /// `deny(x)`.
    Deny,
    /// `free_of(x)`.
    FreeOf,
}

impl DecideKind {
    /// The primitive's keyword.
    pub fn name(self) -> &'static str {
        match self {
            DecideKind::Affirm => "affirm",
            DecideKind::Deny => "deny",
            DecideKind::FreeOf => "free_of",
        }
    }
}

/// One action a process performed: the event half of a history's
/// `S_i E_i S_{i+1}` alternation, and what observers are handed.
///
/// Message-bearing variants carry a runtime-assigned message id so an
/// observer can pair each receive (or ghost drop) with its send.
/// `Display` writes the trace wording (`guess(X0) -> true`,
/// `recv m3 from P0 [speculative]`, …).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
#[non_exhaustive]
pub enum Action {
    /// A `guess` executed; `value` is what it returned (`false` on
    /// re-execution after rollback, or when the AID was already denied).
    Guess {
        /// The guessed AID.
        aid: AidId,
        /// The value the guess returned.
        value: bool,
    },
    /// An `affirm` executed with effect.
    Affirm {
        /// The affirmed AID.
        aid: AidId,
        /// Whether the affirm was speculative (§5.2's second case).
        speculative: bool,
    },
    /// A `deny` executed with effect.
    Deny {
        /// The denied AID.
        aid: AidId,
        /// Whether the deny was speculative (Equation 16).
        speculative: bool,
    },
    /// A `free_of` executed with effect (an affirm or a deny per
    /// Equations 17–19; the accompanying effects show which).
    FreeOf {
        /// The AID asserted free of.
        aid: AidId,
    },
    /// A decider was skipped because its AID was already consumed — the
    /// dynamic signature of decided-AID reuse.
    SkippedDecide {
        /// The already-consumed AID.
        aid: AidId,
        /// Which primitive was skipped.
        kind: DecideKind,
    },
    /// A message was sent.
    Send {
        /// Destination process.
        to: ProcessId,
        /// Message id.
        msg: u64,
    },
    /// A message was received (after ghost filtering).
    Recv {
        /// Message id.
        msg: u64,
        /// Sending process.
        from: ProcessId,
        /// Whether delivery made the receiver (more) speculative.
        speculative: bool,
    },
    /// A ghost message was discarded before delivery (§7) — the dynamic
    /// signature of a send racing a deny.
    GhostDropped {
        /// Message id.
        msg: u64,
        /// Sending process.
        from: ProcessId,
        /// The denied AID that condemned the message.
        denied: AidId,
    },
    /// An internal computation step (machine histories only; not observed).
    Compute,
    /// The process was rolled back and resumed here with `G = False`
    /// (machine histories only; not observed).
    Resumed {
        /// Program counter of the guess point resumed from.
        at_pc: usize,
    },
}

impl fmt::Display for Action {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match *self {
            Action::Guess { aid, value } => write!(f, "guess({aid}) -> {value}"),
            Action::Affirm { aid, .. } => write!(f, "affirm({aid})"),
            Action::Deny { aid, .. } => write!(f, "deny({aid})"),
            Action::FreeOf { aid } => write!(f, "free_of({aid})"),
            Action::SkippedDecide { aid, kind } => {
                write!(f, "{}({aid}) [already decided: no-op]", kind.name())
            }
            Action::Send { to, msg } => write!(f, "send m{msg} -> {to}"),
            Action::Recv {
                msg,
                from,
                speculative,
            } => {
                let mark = if speculative { " [speculative]" } else { "" };
                write!(f, "recv m{msg} from {from}{mark}")
            }
            Action::GhostDropped { msg, denied, .. } => {
                write!(f, "ghost m{msg} dropped ({denied} denied)")
            }
            Action::Compute => f.write_str("compute"),
            Action::Resumed { at_pc } => write!(f, "resumed at pc {at_pc} with G = False"),
        }
    }
}

/// Issue the decider `kind` on `aid` for `process` — the one dispatch of
/// `affirm`/`deny`/`free_of` both embeddings share.
///
/// Returns the [`Action`] with the engine's effects. An affirm or deny is
/// `speculative` iff the engine answered with
/// [`Effect::SpeculativelyAffirmed`] / [`Effect::SpeculativelyDenied`] for
/// `aid`. A decider whose AID was already consumed is an
/// [`Action::SkippedDecide`] with no effects.
///
/// # Errors
///
/// Engine errors other than [`Error::AidConsumed`].
pub fn decide(
    engine: &mut Engine,
    process: ProcessId,
    aid: AidId,
    kind: DecideKind,
) -> Result<(Action, Vec<Effect>)> {
    let result = match kind {
        DecideKind::Affirm => engine.affirm(process, aid),
        DecideKind::Deny => engine.deny(process, aid),
        DecideKind::FreeOf => engine.free_of(process, aid),
    };
    let effects = match result {
        Ok(effects) => effects,
        Err(Error::AidConsumed(_)) => return Ok((Action::SkippedDecide { aid, kind }, Vec::new())),
        Err(e) => return Err(e),
    };
    let speculative = effects.iter().any(|e| match (kind, e) {
        (DecideKind::Affirm, Effect::SpeculativelyAffirmed { aid: a, .. })
        | (DecideKind::Deny, Effect::SpeculativelyDenied { aid: a, .. }) => *a == aid,
        _ => false,
    });
    let action = match kind {
        DecideKind::Affirm => Action::Affirm { aid, speculative },
        DecideKind::Deny => Action::Deny { aid, speculative },
        DecideKind::FreeOf => Action::FreeOf { aid },
    };
    Ok((action, effects))
}

/// A consumer of runtime actions.
///
/// Implementations must not assume anything about scheduling beyond what
/// the callbacks show: `observe` is invoked once per action, in the global
/// order the embedding executed them, with the engine's effects for that
/// action (empty for pure bookkeeping actions such as a skipped decider).
/// [`Action::Compute`] and [`Action::Resumed`] are never observed.
pub trait RuntimeObserver {
    /// `process` performed `action`, producing `effects`.
    fn observe(&mut self, process: ProcessId, action: &Action, effects: &[Effect]);
}

/// An observer that ignores everything (useful as a default).
#[derive(Debug, Clone, Copy, Default)]
pub struct NullObserver;

impl RuntimeObserver for NullObserver {
    fn observe(&mut self, _process: ProcessId, _action: &Action, _effects: &[Effect]) {}
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn decide_kind_names() {
        assert_eq!(DecideKind::Affirm.name(), "affirm");
        assert_eq!(DecideKind::Deny.name(), "deny");
        assert_eq!(DecideKind::FreeOf.name(), "free_of");
    }

    #[test]
    fn every_action_displays_its_trace_wording() {
        let (x, p0, p1) = (AidId(0), ProcessId(0), ProcessId(1));
        let cases = [
            (
                Action::Guess {
                    aid: x,
                    value: true,
                },
                "guess(X0) -> true",
            ),
            (
                Action::Guess {
                    aid: x,
                    value: false,
                },
                "guess(X0) -> false",
            ),
            (
                Action::Affirm {
                    aid: x,
                    speculative: true,
                },
                "affirm(X0)",
            ),
            (
                Action::Deny {
                    aid: x,
                    speculative: false,
                },
                "deny(X0)",
            ),
            (Action::FreeOf { aid: x }, "free_of(X0)"),
            (
                Action::SkippedDecide {
                    aid: x,
                    kind: DecideKind::Deny,
                },
                "deny(X0) [already decided: no-op]",
            ),
            (
                Action::SkippedDecide {
                    aid: x,
                    kind: DecideKind::FreeOf,
                },
                "free_of(X0) [already decided: no-op]",
            ),
            (Action::Send { to: p1, msg: 3 }, "send m3 -> P1"),
            (
                Action::Recv {
                    msg: 3,
                    from: p0,
                    speculative: true,
                },
                "recv m3 from P0 [speculative]",
            ),
            (
                Action::Recv {
                    msg: 3,
                    from: p0,
                    speculative: false,
                },
                "recv m3 from P0",
            ),
            (
                Action::GhostDropped {
                    msg: 3,
                    from: p0,
                    denied: x,
                },
                "ghost m3 dropped (X0 denied)",
            ),
            (Action::Compute, "compute"),
            (
                Action::Resumed { at_pc: 2 },
                "resumed at pc 2 with G = False",
            ),
        ];
        for (action, text) in cases {
            assert_eq!(action.to_string(), text, "{action:?}");
        }
    }

    #[test]
    fn null_observer_accepts_actions() {
        let mut o = NullObserver;
        o.observe(
            ProcessId(0),
            &Action::Guess {
                aid: AidId(0),
                value: true,
            },
            &[],
        );
    }
}
