//! Effects: what an engine transition did, reported to the embedding
//! runtime.
//!
//! The semantics of §5 *describe* state changes; a runtime must *act* on
//! some of them (restore checkpoints, release retained output, drop ghost
//! messages). Every public [`Engine`](crate::Engine) operation therefore
//! returns the ordered list of [`Effect`]s it produced. The order is the
//! order in which the engine applied them, so replaying the effects in order
//! reconstructs the cascade (a speculative affirm finalizing three intervals
//! produces three `Finalized` effects, and so on).

use std::fmt;

use crate::ids::{AidId, IntervalId, ProcessId};
use crate::interval::Checkpoint;

/// One observable consequence of an engine transition.
#[derive(Debug, Clone, PartialEq, Eq)]
#[non_exhaustive]
pub enum Effect {
    /// A new speculative interval began (Equations 1–6). The process is now
    /// dependent on every AID in the interval's `IDO` set.
    IntervalStarted {
        /// The freshly created interval.
        interval: IntervalId,
        /// Its owning process.
        process: ProcessId,
    },
    /// An interval was finalized (§5.5): it is now a permanent part of its
    /// process's history. Runtimes typically release output buffered for
    /// this interval (output commit) when they see this effect.
    Finalized {
        /// The interval that became definite.
        interval: IntervalId,
        /// Its owning process.
        process: ProcessId,
    },
    /// A suffix of a process's history was discarded (§5.6, Theorem 5.1).
    ///
    /// The runtime must restore the process to `checkpoint` (the `A.PS` of
    /// the *earliest* rolled-back interval) and resume it with the guess
    /// returning `False`.
    RolledBack {
        /// The process whose history was truncated.
        process: ProcessId,
        /// Every discarded interval, earliest first.
        intervals: Vec<IntervalId>,
        /// The checkpoint of the earliest discarded interval — where the
        /// process resumes.
        checkpoint: Checkpoint,
    },
    /// An assumption became definitively true. All dependence on it has been
    /// discharged.
    AidAffirmed {
        /// The affirmed assumption.
        aid: AidId,
    },
    /// An assumption became definitively false. Every interval that depended
    /// on it has been rolled back, and any message tagged with it is a ghost.
    AidDenied {
        /// The denied assumption.
        aid: AidId,
    },
    /// A speculative affirm was recorded (Equations 10–14): dependence on
    /// `aid` was replaced by dependence on the affirming interval's `IDO`.
    SpeculativelyAffirmed {
        /// The assumption that was speculatively affirmed.
        aid: AidId,
        /// The interval that issued the affirm.
        by: IntervalId,
    },
    /// A speculative deny was recorded into the interval's `IHD` set
    /// (Equation 16); it takes definite effect when the interval finalizes.
    SpeculativelyDenied {
        /// The assumption that was speculatively denied.
        aid: AidId,
        /// The interval that issued the deny.
        by: IntervalId,
    },
}

impl Effect {
    /// The process this effect concerns, if it is process-directed.
    pub fn process(&self) -> Option<ProcessId> {
        match self {
            Effect::IntervalStarted { process, .. }
            | Effect::Finalized { process, .. }
            | Effect::RolledBack { process, .. } => Some(*process),
            _ => None,
        }
    }

    /// `true` for effects that require runtime action on a process
    /// (checkpoint restoration).
    pub fn is_rollback(&self) -> bool {
        matches!(self, Effect::RolledBack { .. })
    }
}

impl fmt::Display for Effect {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Effect::IntervalStarted { interval, process } => {
                write!(f, "{process}: interval {interval} started")
            }
            Effect::Finalized { interval, process } => {
                write!(f, "{process}: interval {interval} finalized")
            }
            Effect::RolledBack {
                process,
                intervals,
                checkpoint,
            } => {
                write!(f, "{process}: rolled back to {checkpoint}, discarding [")?;
                for (i, a) in intervals.iter().enumerate() {
                    if i > 0 {
                        write!(f, ", ")?;
                    }
                    write!(f, "{a}")?;
                }
                write!(f, "]")
            }
            Effect::AidAffirmed { aid } => write!(f, "{aid} affirmed"),
            Effect::AidDenied { aid } => write!(f, "{aid} denied"),
            Effect::SpeculativelyAffirmed { aid, by } => {
                write!(f, "{aid} speculatively affirmed by {by}")
            }
            Effect::SpeculativelyDenied { aid, by } => {
                write!(f, "{aid} speculatively denied by {by}")
            }
        }
    }
}

/// Result of [`Engine::guess`](crate::Engine::guess).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum GuessOutcome {
    /// Speculation began (or, if every named AID was already affirmed and
    /// the process was definite, an interval was created and finalized in
    /// the same step). The guess returns `true` to the program.
    Begun(IntervalId),
    /// At least one named AID has been definitively denied: the guess
    /// returns `false` immediately and definitively; no interval is created.
    /// This is also what a re-executed guess observes after rollback.
    AlreadyFalse(AidId),
}

impl GuessOutcome {
    /// The boolean the `guess` primitive returns to the program.
    pub fn value(&self) -> bool {
        matches!(self, GuessOutcome::Begun(_))
    }

    /// The interval that was started, if any.
    pub fn interval(&self) -> Option<IntervalId> {
        match self {
            GuessOutcome::Begun(a) => Some(*a),
            GuessOutcome::AlreadyFalse(_) => None,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display_rollback_lists_intervals() {
        let e = Effect::RolledBack {
            process: ProcessId(2),
            intervals: vec![IntervalId(3), IntervalId(4)],
            checkpoint: Checkpoint(7),
        };
        assert_eq!(
            e.to_string(),
            "P2: rolled back to ps@7, discarding [A3, A4]"
        );
        assert!(e.is_rollback());
        assert_eq!(e.process(), Some(ProcessId(2)));
    }

    #[test]
    fn aid_effects_have_no_process() {
        assert_eq!(Effect::AidAffirmed { aid: AidId(1) }.process(), None);
        assert_eq!(Effect::AidDenied { aid: AidId(1) }.process(), None);
    }
}
