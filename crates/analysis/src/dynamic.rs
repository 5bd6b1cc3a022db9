//! The dynamic side of the analyzer: a vector-clock race detector that
//! consumes the runtime's [`RuntimeObserver`] stream.
//!
//! The static lints predict what *may* go wrong; this module watches what
//! *does*. [`RaceDetector`] maintains one vector clock per process,
//! advanced on every observed action, snapshotted onto messages at `send`
//! and joined at `recv` — so two events are causally ordered exactly when
//! their clocks are. A rollback also joins the victim's clock with the
//! decider's: the paper's Equation 24 (a re-executed guess returns
//! `False`) is a *causal* consequence of the deny, not a race.
//!
//! Three anomaly shapes are reported:
//!
//! * [`RaceKind::DecidedAidReuse`] — a decider was skipped because its AID
//!   was already consumed (§5.2's one-shot rule). Every skip is reported:
//!   the skipped primitive's effect is silently lost.
//! * [`RaceKind::SendAfterDeny`] — a message was condemned as a ghost (§7):
//!   its tag carried an AID that was denied before delivery.
//! * [`RaceKind::GuessAfterDecide`] — a `guess` returned `False` because of
//!   a deny that is *not* causally before the guess: the guesser observes
//!   the decision's outcome with no communication explaining it.
//!
//! [`covered_by`] is the static↔dynamic bridge: it maps each race kind to
//! the static lints that predict it, matched by AID. The agreement
//! test-suite checks that on exhaustive program spaces every dynamic
//! report is covered by a static warning.

use std::collections::HashMap;

use hope_core::{Action, AidId, Effect, ProcessId, RuntimeObserver};

use crate::diagnostics::{Diagnostic, Lint};

/// A vector clock over dense process indices, zero-padded on the right so
/// processes may appear lazily.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
struct VectorClock(Vec<u64>);

impl VectorClock {
    fn get(&self, k: usize) -> u64 {
        self.0.get(k).copied().unwrap_or(0)
    }

    fn tick(&mut self, k: usize) {
        if self.0.len() <= k {
            self.0.resize(k + 1, 0);
        }
        self.0[k] += 1;
    }

    fn join(&mut self, other: &VectorClock) {
        if self.0.len() < other.0.len() {
            self.0.resize(other.0.len(), 0);
        }
        for (k, v) in other.0.iter().enumerate() {
            self.0[k] = self.0[k].max(*v);
        }
    }

    /// `self ≤ other` componentwise: the event stamped `self` happened
    /// before (or is) the event stamped `other`.
    fn leq(&self, other: &VectorClock) -> bool {
        self.0.iter().enumerate().all(|(k, &v)| v <= other.get(k))
    }
}

/// The anomaly shapes the detector reports.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum RaceKind {
    /// A decider executed on an already-consumed AID and was skipped.
    DecidedAidReuse,
    /// A sent message was condemned as a ghost by a deny.
    SendAfterDeny,
    /// A guess returned `False` due to a causally-unordered deny.
    GuessAfterDecide,
}

impl RaceKind {
    /// The race kind's stable kebab-case name.
    pub fn name(self) -> &'static str {
        match self {
            RaceKind::DecidedAidReuse => "decided-aid-reuse",
            RaceKind::SendAfterDeny => "send-after-deny",
            RaceKind::GuessAfterDecide => "guess-after-decide",
        }
    }
}

/// One anomaly observed at runtime.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct RaceReport {
    /// Which anomaly shape.
    pub kind: RaceKind,
    /// The process the anomaly is charged to: the skipper for
    /// [`RaceKind::DecidedAidReuse`], the *sender* for
    /// [`RaceKind::SendAfterDeny`], the guesser for
    /// [`RaceKind::GuessAfterDecide`].
    pub process: ProcessId,
    /// The AID the anomaly is about.
    pub aid: AidId,
    /// Human-readable description.
    pub detail: String,
}

#[derive(Debug, Clone)]
struct DecideRecord {
    by: ProcessId,
    clock: VectorClock,
    denied: bool,
}

/// A [`RuntimeObserver`] that detects the three race shapes online.
///
/// Feed it to [`Machine::run_with`](hope_core::machine::Machine::run_with)
/// or to `hope-runtime`'s `Simulation::set_observer`, then inspect
/// [`RaceDetector::races`]. Process ids are used as dense indices (both
/// embeddings assign them densely from zero).
#[derive(Debug, Default)]
pub struct RaceDetector {
    clocks: Vec<VectorClock>,
    msg_clocks: HashMap<u64, VectorClock>,
    decides: HashMap<AidId, DecideRecord>,
    races: Vec<RaceReport>,
}

impl RaceDetector {
    /// A fresh detector with no observed history.
    pub fn new() -> Self {
        RaceDetector::default()
    }

    /// Every race observed so far, in observation order.
    pub fn races(&self) -> &[RaceReport] {
        &self.races
    }

    /// Consume the detector, returning the observed races.
    pub fn into_races(self) -> Vec<RaceReport> {
        self.races
    }

    fn clock_mut(&mut self, p: usize) -> &mut VectorClock {
        if self.clocks.len() <= p {
            self.clocks.resize(p + 1, VectorClock::default());
        }
        &mut self.clocks[p]
    }
}

impl RuntimeObserver for RaceDetector {
    fn observe(&mut self, process: ProcessId, action: &Action, effects: &[Effect]) {
        let p = process.0 as usize;
        self.clock_mut(p).tick(p);
        match *action {
            Action::Guess { aid, value: false } => {
                if let Some(rec) = self.decides.get(&aid) {
                    if rec.denied && rec.by != process && !rec.clock.leq(&self.clocks[p]) {
                        self.races.push(RaceReport {
                            kind: RaceKind::GuessAfterDecide,
                            process,
                            aid,
                            detail: format!(
                                "{process}'s guess({aid}) returned false because of \
                                 {}'s causally-unordered deny",
                                rec.by
                            ),
                        });
                    }
                }
            }
            Action::SkippedDecide { aid, kind } => {
                self.races.push(RaceReport {
                    kind: RaceKind::DecidedAidReuse,
                    process,
                    aid,
                    detail: format!(
                        "{process}'s {}({aid}) was skipped: {aid} was already consumed",
                        kind.name()
                    ),
                });
            }
            Action::Send { msg, .. } => {
                let snapshot = self.clocks[p].clone();
                self.msg_clocks.insert(msg, snapshot);
            }
            Action::Recv { msg, .. } => {
                if let Some(sent) = self.msg_clocks.get(&msg).cloned() {
                    self.clock_mut(p).join(&sent);
                }
            }
            Action::GhostDropped { from, denied, .. } => {
                self.races.push(RaceReport {
                    kind: RaceKind::SendAfterDeny,
                    process: from,
                    aid: denied,
                    detail: format!(
                        "{from}'s message to {process} was condemned as a ghost: \
                         its tag carried the denied {denied}"
                    ),
                });
            }
            _ => {}
        }
        for effect in effects {
            match effect {
                Effect::AidAffirmed { aid } | Effect::AidDenied { aid } => {
                    let record = DecideRecord {
                        by: process,
                        clock: self.clocks[p].clone(),
                        denied: matches!(effect, Effect::AidDenied { .. }),
                    };
                    self.decides.entry(*aid).or_insert(record);
                }
                Effect::RolledBack {
                    process: victim, ..
                } => {
                    // Rollback is a causal consequence of the deny that
                    // triggered it: order the victim after the decider so
                    // Equation 24 re-executions are not reported as races.
                    let decider = self.clocks[p].clone();
                    self.clock_mut(victim.0 as usize).join(&decider);
                }
                _ => {}
            }
        }
    }
}

/// Does a static diagnostic predict this dynamic race?
///
/// The mapping, matched on the AID variable (the detector's [`AidId`]
/// indices coincide with the program's `AidVar`s in both embeddings):
///
/// * [`RaceKind::DecidedAidReuse`] ← `consumed-reassertion`,
///   `doomed-free-of`, or `dependent-deny` (a definite self-deny re-runs
///   the process past its own decider, consuming the AID twice);
/// * [`RaceKind::SendAfterDeny`] ← `ghost-risk`;
/// * [`RaceKind::GuessAfterDecide`] ← `guess-decide-race`.
pub fn covered_by(race: &RaceReport, diagnostics: &[Diagnostic]) -> bool {
    let aid = race.aid.index() as usize;
    let lints: &[Lint] = match race.kind {
        RaceKind::DecidedAidReuse => &[
            Lint::ConsumedReassertion,
            Lint::DoomedFreeOf,
            Lint::DependentDeny,
        ],
        RaceKind::SendAfterDeny => &[Lint::GhostRisk],
        RaceKind::GuessAfterDecide => &[Lint::GuessDecideRace],
    };
    diagnostics
        .iter()
        .any(|d| d.aid == Some(aid) && lints.contains(&d.lint))
}

#[cfg(test)]
mod tests {
    use super::*;
    use hope_core::{Checkpoint, DecideKind, IntervalId};

    fn aid(v: u64) -> AidId {
        AidId::from_index(v)
    }

    #[test]
    fn skipped_decider_is_always_reported() {
        let mut det = RaceDetector::new();
        det.observe(
            ProcessId(1),
            &Action::SkippedDecide {
                aid: aid(0),
                kind: DecideKind::Deny,
            },
            &[],
        );
        assert_eq!(det.races().len(), 1);
        let race = &det.races()[0];
        assert_eq!(race.kind, RaceKind::DecidedAidReuse);
        assert_eq!(race.process, ProcessId(1));
        assert_eq!(race.aid, aid(0));

        let covering = Diagnostic::warning(Lint::DependentDeny, 1, 0, "x").with_aid(0);
        let unrelated = Diagnostic::warning(Lint::GhostRisk, 1, 0, "x").with_aid(0);
        let wrong_aid = Diagnostic::warning(Lint::DependentDeny, 1, 0, "x").with_aid(3);
        assert!(covered_by(race, &[covering]));
        assert!(!covered_by(race, &[unrelated, wrong_aid]));
    }

    #[test]
    fn ghost_drop_is_charged_to_the_sender() {
        let mut det = RaceDetector::new();
        det.observe(
            ProcessId(1),
            &Action::GhostDropped {
                msg: 7,
                from: ProcessId(0),
                denied: aid(2),
            },
            &[],
        );
        let race = &det.races()[0];
        assert_eq!(race.kind, RaceKind::SendAfterDeny);
        assert_eq!(race.process, ProcessId(0));
        assert_eq!(race.aid, aid(2));
        let covering = Diagnostic::warning(Lint::GhostRisk, 0, 1, "x").with_aid(2);
        assert!(covered_by(race, &[covering]));
    }

    #[test]
    fn unordered_deny_races_the_guess_but_message_delivery_orders_it() {
        // P1 denies x0, then P0 guesses it false with no communication:
        // race.
        let mut det = RaceDetector::new();
        det.observe(
            ProcessId(1),
            &Action::Deny {
                aid: aid(0),
                speculative: false,
            },
            &[Effect::AidDenied { aid: aid(0) }],
        );
        det.observe(
            ProcessId(0),
            &Action::Guess {
                aid: aid(0),
                value: false,
            },
            &[],
        );
        assert_eq!(det.races().len(), 1);
        assert_eq!(det.races()[0].kind, RaceKind::GuessAfterDecide);

        // Same story, but the deny reaches P0 through a message before the
        // guess: causally ordered, no race.
        let mut det = RaceDetector::new();
        det.observe(
            ProcessId(1),
            &Action::Deny {
                aid: aid(0),
                speculative: false,
            },
            &[Effect::AidDenied { aid: aid(0) }],
        );
        det.observe(
            ProcessId(1),
            &Action::Send {
                to: ProcessId(0),
                msg: 0,
            },
            &[],
        );
        det.observe(
            ProcessId(0),
            &Action::Recv {
                msg: 0,
                from: ProcessId(1),
                speculative: false,
            },
            &[],
        );
        det.observe(
            ProcessId(0),
            &Action::Guess {
                aid: aid(0),
                value: false,
            },
            &[],
        );
        assert!(det.races().is_empty());
    }

    #[test]
    fn rollback_orders_the_reexecuted_guess_after_the_deny() {
        let mut det = RaceDetector::new();
        det.observe(
            ProcessId(0),
            &Action::Guess {
                aid: aid(0),
                value: true,
            },
            &[],
        );
        // P1's deny rolls P0 back; the rollback effect carries the causal
        // link.
        det.observe(
            ProcessId(1),
            &Action::Deny {
                aid: aid(0),
                speculative: false,
            },
            &[
                Effect::AidDenied { aid: aid(0) },
                Effect::RolledBack {
                    process: ProcessId(0),
                    intervals: vec![IntervalId::from_index(0)],
                    checkpoint: Checkpoint(0),
                },
            ],
        );
        det.observe(
            ProcessId(0),
            &Action::Guess {
                aid: aid(0),
                value: false,
            },
            &[],
        );
        assert!(det.races().is_empty(), "{:?}", det.races());
    }

    #[test]
    fn affirms_and_program_order_do_not_race() {
        // A guess returning false after a *same-process* deny is program
        // ordered; after an affirm it is not a guess/decide race at all.
        let mut det = RaceDetector::new();
        det.observe(
            ProcessId(0),
            &Action::Deny {
                aid: aid(0),
                speculative: false,
            },
            &[Effect::AidDenied { aid: aid(0) }],
        );
        det.observe(
            ProcessId(0),
            &Action::Guess {
                aid: aid(0),
                value: false,
            },
            &[],
        );
        det.observe(
            ProcessId(1),
            &Action::Affirm {
                aid: aid(1),
                speculative: false,
            },
            &[Effect::AidAffirmed { aid: aid(1) }],
        );
        det.observe(
            ProcessId(0),
            &Action::Guess {
                aid: aid(1),
                value: false,
            },
            &[],
        );
        assert!(det.races().is_empty(), "{:?}", det.races());
    }
}
