//! What a watched run reports: one [`RunEvent`] per thing that happened.
//!
//! A history alternates states and events (Definition 4.1, `S0 E0 S1 …`);
//! the runtime's events are the process actions of [`hope_core::Action`]
//! and what the scheduler does around them — message movement, injected
//! faults, the environment's decisions, rollbacks, output commit, fossil
//! collection and the governor's interventions. An observer installed with
//! [`Simulation::set_observer`](crate::Simulation::set_observer) receives
//! each with the virtual time it happened at; nothing is built when none is
//! installed.
//!
//! `Display` writes an event as one trace line, so `format!("[{t}] {event}")`
//! is the runtime's execution trace (`ctx_api`'s pinned tests hold it byte
//! for byte).

use std::fmt::{self, Write};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Arc;

use hope_core::{Action, AidId, Effect, FossilSweep, ProcessId};
use hope_sim::VirtualDuration;

use crate::message::Message;
use crate::scheduler::Simulation;
use crate::stats::{OutputLine, RunReport};

/// One thing a run did, borrowed from the state it happened in.
#[derive(Debug, Clone, Copy)]
#[non_exhaustive]
pub enum RunEvent<'a> {
    /// A process performed a HOPE action (journal replay is not reported;
    /// the re-executed live suffix is), with the engine effects it caused,
    /// before the runtime applies them. A ghost drop has no effects.
    Action {
        /// The acting process.
        process: ProcessId,
        /// What it did.
        action: &'a Action,
        /// The engine's effects for it, in order.
        effects: &'a [Effect],
        /// A reliable send's `(seq, attempt)`.
        reliable: Option<(u64, u32)>,
    },
    /// The runtime applied an engine effect to a process: an
    /// [`Effect::Finalized`] or an [`Effect::RolledBack`].
    Applied(&'a Effect),
    /// Lines a finalized interval had buffered were committed.
    OutputCommitted {
        /// The producing process.
        process: ProcessId,
        /// The lines, in output order.
        lines: &'a [OutputLine],
    },
    /// A message reached its destination's mailbox.
    Delivered(&'a Message),
    /// The fault plan dropped a message as it was sent; it was never built.
    Dropped {
        /// Message id.
        msg: u64,
        /// Sending process.
        from: ProcessId,
        /// Destination process.
        to: ProcessId,
    },
    /// The fault plan sent a second copy of this message.
    Duplicated(&'a Message),
    /// A message arrived at a process that was down, and was lost.
    LostToDown(&'a Message),
    /// A reliable message arrived a second time and was not delivered
    /// again (it was still acked).
    DuplicateSuppressed(&'a Message),
    /// The fault plan dropped the ack of this reliable message.
    AckDropped(&'a Message),
    /// An ack affirmed a reliable send's "delivered" assumption.
    Acked {
        /// The affirmed assumption.
        aid: AidId,
        /// The affirm's effects, applied after this event.
        effects: &'a [Effect],
    },
    /// A retransmission deadline denied a reliable send's "delivered"
    /// assumption.
    TimedOut {
        /// The denied assumption.
        aid: AidId,
        /// The deny's effects, applied after this event.
        effects: &'a [Effect],
    },
    /// A kill denied an assumption its victim created and left open.
    KillDenied {
        /// The denied assumption.
        aid: AidId,
        /// The deny's effects, applied after this event.
        effects: &'a [Effect],
    },
    /// The fault plan killed a process.
    Killed {
        /// The victim.
        process: ProcessId,
        /// How long it stays down; `None` kills it for good.
        restart_after: Option<VirtualDuration>,
    },
    /// A killed process came back up to recover from its journal.
    Restarted {
        /// The recovering process.
        process: ProcessId,
    },
    /// At quiescence the environment affirms every assumption still open.
    QuiescenceCommit {
        /// The open assumptions, each affirmed next.
        open: &'a [AidId],
    },
    /// The quiescence commit affirmed one open assumption.
    QuiescenceAffirmed {
        /// The affirmed assumption.
        aid: AidId,
        /// The affirm's effects, applied after this event.
        effects: &'a [Effect],
    },
    /// A fossil-collection sweep reclaimed engine records.
    FossilSweep(FossilSweep),
    /// A fossil-collection sweep dropped a journal prefix.
    JournalReclaimed {
        /// Whose journal.
        process: ProcessId,
        /// Entries dropped.
        entries: usize,
        /// The journal position its first kept entry now has.
        base: usize,
    },
    /// The optimism governor throttled a guess: it is held, then admitted.
    GovernorHolds {
        /// The guessing process.
        process: ProcessId,
        /// The assumption it guesses.
        aid: AidId,
    },
    /// The optimism governor turned a guess into a wait for the decision.
    GovernorConverts {
        /// The guessing process.
        process: ProcessId,
        /// The assumption it waits on.
        aid: AidId,
    },
    /// A process's journal outgrew
    /// [`SimConfig::max_journal_entries`](crate::SimConfig); it crashes.
    JournalOverflow {
        /// The crashing process.
        process: ProcessId,
        /// The limit it crossed.
        limit: usize,
    },
}

impl fmt::Display for RunEvent<'_> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match *self {
            RunEvent::Action {
                process,
                action,
                reliable,
                ..
            } => {
                write!(f, "{process}: {action}")?;
                match reliable {
                    Some((seq, attempt)) => write!(f, " [reliable seq={seq} attempt={attempt}]"),
                    None => Ok(()),
                }
            }
            RunEvent::Applied(Effect::Finalized { interval, process }) => {
                write!(f, "{process}: interval {interval} finalized")
            }
            RunEvent::Applied(Effect::RolledBack {
                process,
                intervals,
                checkpoint,
            }) => write!(
                f,
                "{process}: ROLLBACK of {} interval(s) to journal position {}",
                intervals.len(),
                checkpoint.0
            ),
            RunEvent::Applied(effect) => write!(f, "{effect}"),
            RunEvent::OutputCommitted { process, lines } => {
                write!(f, "{process}: {} output line(s) committed", lines.len())
            }
            RunEvent::Delivered(m) => write!(f, "deliver m{} {} -> {}", m.id, m.from, m.to),
            RunEvent::Dropped { msg, from, to } => write!(f, "FAULT drop m{msg} {from} -> {to}"),
            RunEvent::Duplicated(m) => {
                write!(f, "FAULT duplicate m{} {} -> {}", m.id, m.from, m.to)
            }
            RunEvent::LostToDown(m) => write!(f, "FAULT m{} lost: {} is down", m.id, m.to),
            RunEvent::DuplicateSuppressed(m) => {
                write!(
                    f,
                    "dedup: reliable m{} {} -> {} suppressed",
                    m.id, m.from, m.to
                )
            }
            RunEvent::AckDropped(m) => write!(f, "FAULT ack for m{} dropped", m.id),
            RunEvent::Acked { aid, .. } => write!(f, "ack: delivered({aid}) affirmed"),
            RunEvent::TimedOut { aid, .. } => write!(f, "FAULT timeout: delivered({aid}) denied"),
            RunEvent::KillDenied { aid, .. } => write!(f, "FAULT crash: {aid} denied"),
            RunEvent::Killed {
                process,
                restart_after,
            } => write!(f, "FAULT kill {process} (restart after {restart_after:?})"),
            RunEvent::Restarted { process } => {
                write!(f, "FAULT restart {process}: recovering from journal prefix")
            }
            RunEvent::QuiescenceCommit { open } => write!(
                f,
                "quiescence oracle affirms {} open assumption(s)",
                open.len()
            ),
            RunEvent::QuiescenceAffirmed { aid, .. } => write!(f, "quiescence: {aid} affirmed"),
            RunEvent::FossilSweep(s) => write!(
                f,
                "fossil sweep: {} interval(s) and {} aid(s) reclaimed (horizon A{}/X{})",
                s.intervals, s.aids, s.interval_horizon, s.aid_horizon
            ),
            RunEvent::JournalReclaimed {
                process,
                entries,
                base,
            } => write!(
                f,
                "{process}: journal prefix reclaimed ({entries} entries, base now {base})"
            ),
            RunEvent::GovernorHolds { process, aid } => {
                write!(f, "{process}: governor holds guess({aid})")
            }
            RunEvent::GovernorConverts { process, aid } => {
                write!(f, "{process}: governor converts guess({aid}) to a wait")
            }
            RunEvent::JournalOverflow { process, limit } => {
                write!(
                    f,
                    "{process}: journal limit ({limit} live entries) exceeded"
                )
            }
        }
    }
}

/// Watch `sim` as the transparency checks do: write every event as its
/// trace line into one reused buffer, and count it in `seen`.
pub(crate) fn watch(sim: &mut Simulation, seen: Arc<AtomicUsize>) {
    let mut line = String::new();
    sim.set_observer(move |t, event| {
        line.clear();
        write!(line, "[{t}] {event}").expect("writing to a String cannot fail");
        seen.fetch_add(1, Ordering::Relaxed);
    });
}

/// Run `sim` under [`watch`]: its report, and how many events it had.
pub(crate) fn run_watched(mut sim: Simulation) -> (RunReport, usize) {
    let seen = Arc::new(AtomicUsize::new(0));
    watch(&mut sim, seen.clone());
    let report = sim.run();
    (report, seen.load(Ordering::Relaxed))
}
