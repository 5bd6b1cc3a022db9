//! Run reports: what a simulation did, and what it committed.
//!
//! Speculative output must not escape: a line printed under an optimistic
//! assumption is buffered until its interval finalizes (output commit) and
//! discarded if the interval rolls back. [`RunReport::outputs`] therefore
//! contains exactly the lines a real external observer would have seen.

use std::collections::BTreeMap;
use std::fmt;
use std::hash::{Hash, Hasher};

use hope_core::{EngineStats, ProcessId};
use hope_sim::VirtualTime;

use crate::governor::{GovernorStats, ModeTransition};

/// One committed output line.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct OutputLine {
    /// Virtual time at which the line was produced (possibly while
    /// speculative).
    pub time: VirtualTime,
    /// Virtual time at which the line *committed* — when the buffering
    /// interval finalized (equal to `time` for lines produced while
    /// definite). This is the honest completion metric for optimistic
    /// programs, whose bodies often return long before their results are
    /// certain.
    pub committed_at: VirtualTime,
    /// The producing process.
    pub process: ProcessId,
    /// The text.
    pub line: String,
}

impl fmt::Display for OutputLine {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "[{} {}] {}", self.time, self.process, self.line)
    }
}

/// Cumulative counters for one run.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
#[non_exhaustive]
pub struct RunStats {
    /// Messages sent (including those that later became ghosts).
    pub messages_sent: u64,
    /// Messages placed into mailboxes.
    pub messages_delivered: u64,
    /// Ghost messages dropped before delivery to user code.
    pub ghosts_dropped: u64,
    /// Rollback events (process-history truncations).
    pub rollback_events: u64,
    /// Body re-executions caused by rollback.
    pub replays: u64,
    /// Journal entries discarded by truncations.
    pub truncated_entries: u64,
    /// Output lines committed.
    pub outputs_released: u64,
    /// Speculative output lines discarded by rollback.
    pub outputs_discarded: u64,
    /// Engine counters (guesses, affirms, denies, finalizations, …).
    pub engine: EngineStats,
    /// `Shared`-state lock acquisitions made by process-side [`Ctx`]
    /// (crate::Ctx) calls over the whole run. The Ctx hot path takes the
    /// lock once per primitive (not once per sub-step); the regression
    /// suite pins that with this counter. Diagnostics only, excluded from
    /// [`RunReport::fingerprint`] like the DepSet cow/spill deltas.
    pub ctx_lock_acquisitions: u64,
    /// Fault-injection counters (all zero without a
    /// [`FaultPlan`](hope_sim::FaultPlan)).
    pub faults: FaultStats,
    /// Optimism-governor counters (all zero without
    /// [`SimConfig::with_governor`](crate::SimConfig::with_governor)).
    /// Control-plane diagnostics only: the governor reshapes *when*
    /// optimism is spent, not *what* commits, so these are excluded from
    /// [`RunReport::fingerprint`].
    pub governor: GovernorStats,
    /// End-of-run memory footprint: what fossil collection left live (see
    /// [`SimConfig::fossil_collection`](crate::SimConfig)).
    pub memory: MemoryStats,
}

/// End-of-run memory footprint of the engine and the per-process journals.
///
/// With [`SimConfig::fossil_collection`](crate::SimConfig) enabled these
/// stay bounded by the work in flight between sweeps, however long the run;
/// with it disabled (the default) the `live_*` numbers equal the totals and
/// the `reclaimed_*`/horizon numbers are zero.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
#[non_exhaustive]
pub struct MemoryStats {
    /// Interval records held live by the engine.
    pub live_intervals: u64,
    /// AID records held live by the engine.
    pub live_aids: u64,
    /// Journal entries held live across all processes (what
    /// [`SimConfig::max_journal_entries`](crate::SimConfig) bounds).
    pub live_journal_entries: u64,
    /// The engine's interval commit horizon: every interval below it was
    /// finalized (or rolled back) and reclaimed.
    pub interval_horizon: u64,
    /// The engine's AID commit horizon: every AID below it was decided and
    /// reclaimed.
    pub aid_horizon: u64,
    /// Interval records reclaimed over the whole run.
    pub reclaimed_intervals: u64,
    /// AID records reclaimed over the whole run.
    pub reclaimed_aids: u64,
    /// Journal entries reclaimed by horizon prefix truncation (distinct
    /// from [`RunStats::truncated_entries`], which counts rollback
    /// truncations).
    pub reclaimed_journal_entries: u64,
    /// Reclaimed-but-denied AIDs the engine remembers (the sparse residue
    /// that keeps fossil collection transparent to ghost filtering).
    pub fossil_denied: u64,
    /// Dependence-set copy-on-write duplications over this run, measured
    /// as the delta of [`hope_core::depset::cow_copies_total`] across
    /// [`Simulation::run`](crate::Simulation::run). The underlying counter
    /// is process-global, so simulations running *concurrently* (parallel
    /// test threads) bleed into each other's delta; diagnostics only, and
    /// excluded from [`RunReport::fingerprint`].
    pub depset_cow_copies: u64,
    /// Dependence-set inline→bitset spills over this run (delta of
    /// [`hope_core::depset::spills_total`]; same caveat as
    /// [`depset_cow_copies`](MemoryStats::depset_cow_copies)).
    pub depset_spills: u64,
}

/// Counters for injected faults and the recovery machinery they trigger.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
#[non_exhaustive]
pub struct FaultStats {
    /// Data messages dropped by the plan (random drops and partitions).
    pub drops: u64,
    /// Duplicate copies of data messages injected by the plan.
    pub dupes: u64,
    /// Duplicate reliable deliveries suppressed by receiver-side dedup.
    pub dupes_suppressed: u64,
    /// Deliveries that drew extra latency from a delay spike.
    pub delay_spikes: u64,
    /// Messages (of any kind) lost because the destination was crashed or
    /// down when delivery fired.
    pub lost_to_down: u64,
    /// Delivery acks scheduled (one per reliable delivery, dupes included).
    pub acks: u64,
    /// Delivery acks the plan dropped on the reverse link.
    pub ack_drops: u64,
    /// First-attempt reliable sends executed ([`Ctx::send_reliable`]
    /// (crate::Ctx) calls, counting replays after rollback past the first
    /// attempt). `retries / reliable_sends` is the loss/deny pressure
    /// ratio the governor's deny-rate window measures per site. Counted
    /// even without a fault plan, since reliable sends run the same path
    /// on a perfect substrate.
    pub reliable_sends: u64,
    /// Reliable-send retransmissions (attempts beyond the first).
    pub retries: u64,
    /// "Delivered" assumptions denied by a retransmission timeout.
    pub timeout_denies: u64,
    /// Assumptions denied because their owning process was killed.
    pub crash_denies: u64,
    /// Fault-injected process kills applied.
    pub kills: u64,
    /// Killed processes brought back (journal-prefix recovery).
    pub restarts: u64,
    /// Ghost messages dropped whose doomed AID was denied *by fault
    /// injection* (a timeout or a kill), as opposed to program logic.
    pub ghosts_from_faults: u64,
}

/// Why a process died, surfaced through [`RunReport::crash_reasons`].
#[derive(Debug, Clone, PartialEq, Eq)]
#[non_exhaustive]
pub enum CrashReason {
    /// The body panicked; the payload is the panic message.
    Panic(String),
    /// A [`FaultPlan`](hope_sim::FaultPlan) kill with no restart (kills
    /// *with* a restart recover and never appear here).
    FaultKill,
    /// The process's journal exceeded
    /// [`SimConfig::max_journal_entries`](crate::SimConfig) **live**
    /// (post-truncation) entries. Recoverable in the sense that the run
    /// continues and the report records exactly which process overflowed
    /// and at what bound; with
    /// [`SimConfig::fossil_collection`](crate::SimConfig) enabled and a
    /// body that [`checkpoint`](crate::Ctx::checkpoint)s, long runs do not
    /// trip it spuriously.
    JournalOverflow {
        /// The configured live-entry bound that was crossed.
        limit: usize,
    },
    /// Re-executed after a rollback or restart, the body issued a `Ctx`
    /// call its journal did not record at that position: process bodies
    /// must be deterministic given `Ctx` results.
    ReplayDivergence {
        /// The diverging process (its `Display` names it).
        pid: ProcessId,
        /// The primitive the body issued, e.g. `"rand"`.
        primitive: &'static str,
        /// What the journal recorded there, e.g. `"now"`.
        recorded: &'static str,
        /// The absolute journal position.
        at: usize,
    },
}

impl fmt::Display for CrashReason {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            // Bare message: `RunReport::errors` keeps its historical shape.
            CrashReason::Panic(msg) => f.write_str(msg),
            CrashReason::FaultKill => f.write_str("killed by fault injection"),
            CrashReason::JournalOverflow { limit } => {
                write!(f, "journal grew past {limit} live entries")
            }
            CrashReason::ReplayDivergence {
                pid,
                primitive,
                recorded,
                at,
            } => write!(
                f,
                "replay divergence in {pid}: body issued `{primitive}` but the journal \
                 recorded `{recorded}` at position {at} — process bodies must be \
                 deterministic given Ctx results"
            ),
        }
    }
}

/// What a run committed, with every virtual-time value deliberately
/// excluded: faults, schedules and transparent knobs move *when* lines
/// commit (and the model checker re-times events outright), never *what*
/// commits. This is the only projection of a [`RunReport`] that may be
/// compared **across** configurations; replays of **one** configuration
/// compare [`RunReport::fingerprint`] instead.
#[derive(Debug, Clone, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct Committed {
    /// Committed output lines per process, in commit order.
    pub outputs: BTreeMap<ProcessId, Vec<String>>,
    /// Processes whose body returned an error, with the error text.
    pub errors: BTreeMap<ProcessId, String>,
    /// Processes that panicked or were killed without recovery.
    pub crashed: Vec<ProcessId>,
    /// Processes still blocked or down at the end of the run.
    pub unfinished: Vec<ProcessId>,
    /// The run stopped at `max_events`/`max_virtual_time` instead of
    /// quiescing.
    pub hit_limits: bool,
}

/// The result of [`Simulation::run`](crate::Simulation::run).
#[derive(Debug, Clone)]
pub struct RunReport {
    pub(crate) end_time: VirtualTime,
    pub(crate) events: u64,
    pub(crate) hit_limits: bool,
    pub(crate) outputs: Vec<OutputLine>,
    pub(crate) stats: RunStats,
    pub(crate) finish_times: BTreeMap<ProcessId, VirtualTime>,
    pub(crate) unfinished: Vec<ProcessId>,
    pub(crate) errors: BTreeMap<ProcessId, String>,
    pub(crate) crashes: BTreeMap<ProcessId, CrashReason>,
    pub(crate) gov_transitions: Vec<ModeTransition>,
}

impl RunReport {
    /// Virtual time when the last event was processed.
    pub fn end_time(&self) -> VirtualTime {
        self.end_time
    }

    /// Number of scheduler events processed.
    pub fn events(&self) -> u64 {
        self.events
    }

    /// `true` if the run stopped at `max_events`/`max_virtual_time` rather
    /// than quiescence.
    pub fn hit_limits(&self) -> bool {
        self.hit_limits
    }

    /// Committed output lines, ordered by `(time, process)`.
    pub fn outputs(&self) -> &[OutputLine] {
        &self.outputs
    }

    /// Just the committed text lines, in order.
    pub fn output_lines(&self) -> Vec<&str> {
        self.outputs.iter().map(|o| o.line.as_str()).collect()
    }

    /// Counters.
    pub fn stats(&self) -> &RunStats {
        &self.stats
    }

    /// When `pid`'s body returned `Ok(())`, if it did.
    pub fn finish_time(&self, pid: ProcessId) -> Option<VirtualTime> {
        self.finish_times.get(&pid).copied()
    }

    /// Processes that never finished (blocked on `recv` at quiescence —
    /// normal for server loops).
    pub fn unfinished(&self) -> &[ProcessId] {
        &self.unfinished
    }

    /// When the last output line of the whole run committed.
    pub fn last_commit_time(&self) -> Option<VirtualTime> {
        self.outputs.iter().map(|o| o.committed_at).max()
    }

    /// When `pid`'s last output line committed.
    pub fn commit_time(&self, pid: ProcessId) -> Option<VirtualTime> {
        self.outputs
            .iter()
            .filter(|o| o.process == pid)
            .map(|o| o.committed_at)
            .max()
    }

    /// The completion time of `pid`: the later of its body finishing and
    /// its last output committing. The right number to report for
    /// optimistic programs.
    pub fn completion_time(&self, pid: ProcessId) -> Option<VirtualTime> {
        match (self.finish_time(pid), self.commit_time(pid)) {
            (Some(f), Some(c)) => Some(f.max(c)),
            (Some(f), None) => Some(f),
            (None, c) => c,
        }
    }

    /// Panic messages of crashed process bodies, if any (the rendered form
    /// of [`RunReport::crash_reasons`]).
    pub fn errors(&self) -> &BTreeMap<ProcessId, String> {
        &self.errors
    }

    /// Typed reasons for every crashed process: a body panic, a
    /// fault-injected kill, an exceeded per-process limit, or a body that
    /// diverged from its journal on replay. Chaos tests
    /// use this to assert *why* a process died, not just that it did.
    pub fn crash_reasons(&self) -> &BTreeMap<ProcessId, CrashReason> {
        &self.crashes
    }

    /// What this run committed (see [`Committed`]): the value the
    /// transparency oracles ([`chaos::sweep`](crate::chaos::sweep),
    /// [`mc::check_scenario`](crate::mc::check_scenario)) compare across
    /// fault plans, schedules and knob settings.
    pub fn committed(&self) -> Committed {
        let mut outputs: BTreeMap<ProcessId, Vec<String>> = BTreeMap::new();
        for o in &self.outputs {
            outputs.entry(o.process).or_default().push(o.line.clone());
        }
        Committed {
            outputs,
            errors: self.errors.clone(),
            crashed: self.crashes.keys().copied().collect(),
            unfinished: self.unfinished.clone(),
            hit_limits: self.hit_limits,
        }
    }

    /// A deterministic digest of everything observable about the run —
    /// committed outputs, counters, finish times, crashes — but not the
    /// governor's mode transitions. Two runs of the same program under the
    /// same [`SimConfig`](crate::SimConfig) (fault plan included) must
    /// produce equal fingerprints, watched or not; the chaos oracle asserts
    /// exactly that to prove failing seeds replay bit-identically and that
    /// watching a run changes nothing.
    pub fn fingerprint(&self) -> u64 {
        // The DepSet deltas are measured against process-global counters,
        // which concurrent simulations (parallel test threads) pollute, so
        // they are the one pair of counters a replay may legitimately
        // change: mask them out of the digest.
        let mut stats = self.stats;
        stats.memory.depset_cow_copies = 0;
        stats.memory.depset_spills = 0;
        // The lock count follows the lock strategy while committed
        // observables must not, so it is masked like the DepSet deltas.
        stats.ctx_lock_acquisitions = 0;
        // Governor counters are control-plane state: governor-on and
        // governor-off runs must agree on every committed observable while
        // these legitimately differ, and the transparency oracle compares
        // runs across that config change.
        stats.governor = GovernorStats::default();
        let mut h = std::collections::hash_map::DefaultHasher::new();
        format!(
            "{:?}|{:?}|{:?}|{:?}|{:?}|{:?}|{:?}|{:?}",
            self.end_time,
            self.events,
            self.hit_limits,
            self.outputs,
            stats,
            self.finish_times,
            self.unfinished,
            self.crashes,
        )
        .hash(&mut h);
        h.finish()
    }

    /// `true` if every process finished and nothing crashed or hit limits.
    pub fn completed(&self) -> bool {
        self.unfinished.is_empty() && self.errors.is_empty() && !self.hit_limits
    }

    /// The optimism governor's mode-transition trace in virtual-time
    /// order, if [`SimConfig::with_governor`](crate::SimConfig) was set
    /// (empty otherwise). A pure function of `(seed, config)`: the
    /// determinism suite pins it identical across reruns and fossil
    /// collection. It is not part of [`RunReport::fingerprint`].
    pub fn governor_transitions(&self) -> &[ModeTransition] {
        &self.gov_transitions
    }
}

impl fmt::Display for RunReport {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(
            f,
            "run: end={} events={} rollbacks={} replays={} ghosts={}",
            self.end_time,
            self.events,
            self.stats.rollback_events,
            self.stats.replays,
            self.stats.ghosts_dropped
        )?;
        for o in &self.outputs {
            writeln!(f, "  {o}")?;
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::governor::GovernorMode;

    #[test]
    fn report_accessors() {
        let r = RunReport {
            end_time: VirtualTime::from_nanos(10),
            events: 3,
            hit_limits: false,
            outputs: vec![OutputLine {
                time: VirtualTime::ZERO,
                committed_at: VirtualTime::from_nanos(4),
                process: ProcessId(0),
                line: "hello".into(),
            }],
            stats: RunStats::default(),
            finish_times: [(ProcessId(0), VirtualTime::from_nanos(9))].into(),
            unfinished: vec![],
            errors: BTreeMap::new(),
            crashes: BTreeMap::new(),
            gov_transitions: Vec::new(),
        };
        assert!(r.completed());
        assert_eq!(r.output_lines(), vec!["hello"]);
        assert_eq!(
            r.finish_time(ProcessId(0)),
            Some(VirtualTime::from_nanos(9))
        );
        assert_eq!(r.finish_time(ProcessId(1)), None);
        assert_eq!(r.last_commit_time(), Some(VirtualTime::from_nanos(4)));
        assert_eq!(
            r.commit_time(ProcessId(0)),
            Some(VirtualTime::from_nanos(4))
        );
        assert_eq!(r.commit_time(ProcessId(1)), None);
        assert_eq!(
            r.completion_time(ProcessId(0)),
            Some(VirtualTime::from_nanos(9)),
            "finish later than commit"
        );
        assert_eq!(r.completion_time(ProcessId(1)), None);
        assert!(r.to_string().contains("hello"));
    }

    #[test]
    fn unfinished_or_errors_mean_incomplete() {
        let mut r = RunReport {
            end_time: VirtualTime::ZERO,
            events: 0,
            hit_limits: false,
            outputs: vec![],
            stats: RunStats::default(),
            finish_times: BTreeMap::new(),
            unfinished: vec![ProcessId(1)],
            errors: BTreeMap::new(),
            crashes: BTreeMap::new(),
            gov_transitions: Vec::new(),
        };
        assert!(!r.completed());
        r.unfinished.clear();
        r.errors.insert(ProcessId(0), "boom".into());
        r.crashes
            .insert(ProcessId(0), CrashReason::Panic("boom".into()));
        assert!(!r.completed());
        assert_eq!(
            r.crash_reasons().get(&ProcessId(0)),
            Some(&CrashReason::Panic("boom".into()))
        );
        r.errors.clear();
        r.crashes.clear();
        r.hit_limits = true;
        assert!(!r.completed());
    }

    #[test]
    fn fingerprint_distinguishes_observable_changes_but_not_governor_transitions() {
        let base = RunReport {
            end_time: VirtualTime::from_nanos(10),
            events: 3,
            hit_limits: false,
            outputs: vec![],
            stats: RunStats::default(),
            finish_times: BTreeMap::new(),
            unfinished: vec![],
            errors: BTreeMap::new(),
            crashes: BTreeMap::new(),
            gov_transitions: Vec::new(),
        };
        let mut governed = base.clone();
        governed.gov_transitions.push(ModeTransition {
            process: ProcessId(0),
            site: 0,
            at: VirtualTime::ZERO,
            from: GovernorMode::Optimistic,
            to: GovernorMode::Throttled,
        });
        assert_eq!(base.fingerprint(), governed.fingerprint());
        let mut other = base.clone();
        other.events = 4;
        assert_ne!(base.fingerprint(), other.fingerprint());
    }

    #[test]
    fn crash_reason_display_shapes() {
        assert_eq!(CrashReason::Panic("oops".into()).to_string(), "oops");
        assert_eq!(
            CrashReason::FaultKill.to_string(),
            "killed by fault injection"
        );
        assert_eq!(
            CrashReason::JournalOverflow { limit: 64 }.to_string(),
            "journal grew past 64 live entries"
        );
        let diverged = CrashReason::ReplayDivergence {
            pid: ProcessId(3),
            primitive: "rand",
            recorded: "now",
            at: 2,
        };
        assert_eq!(
            diverged.to_string(),
            "replay divergence in P3: body issued `rand` but the journal recorded `now` \
             at position 2 — process bodies must be deterministic given Ctx results"
        );
    }
}
