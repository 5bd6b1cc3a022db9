//! Simulation configuration.

use hope_sim::{FaultPlan, Topology, VirtualDuration, VirtualTime};

use crate::governor::GovernorConfig;

/// Configuration for a [`Simulation`](crate::Simulation).
///
/// The defaults model the paper's prototype environment loosely: a LAN
/// topology, no artificial rollback overhead, and generous safety limits.
#[derive(Debug, Clone)]
pub struct SimConfig {
    /// Master random seed; every run with the same seed and program is
    /// bit-identical.
    pub seed: u64,
    /// Per-link latency models.
    pub topology: Topology,
    /// Extra virtual time charged when a process resumes after rollback
    /// (models checkpoint-restoration cost; the paper's prototype restores
    /// from a state file, ours replays a journal — both cost something).
    pub rollback_overhead: VirtualDuration,
    /// Virtual time charged on the *sender* per message for HOPE dependency
    /// tagging (§7 observes the prototype "never forces a user process to
    /// wait" for tracking messages, so the default is zero; the E8 ablation
    /// sweeps it).
    pub tracking_overhead: VirtualDuration,
    /// Hard stop: no event beyond this virtual time is processed.
    pub max_virtual_time: VirtualTime,
    /// Hard stop: maximum number of scheduler events.
    pub max_events: u64,
    /// Hard stop per process: a body whose journal holds more than this
    /// many **live** entries is crashed with the typed
    /// [`CrashReason::JournalOverflow`](crate::CrashReason) (a runaway
    /// retry loop under a hostile [`FaultPlan`] would otherwise spin until
    /// `max_events`). Entries reclaimed by horizon prefix truncation (see
    /// [`fossil_collection`](SimConfig::fossil_collection)) do not count,
    /// so checkpointing bodies sustain arbitrarily long runs without
    /// tripping it.
    pub max_journal_entries: usize,
    /// Run GVT-style fossil collection: periodically compute the engine's
    /// commit horizon, reclaim every interval/AID record at or below it
    /// ([`hope_core::Engine::collect_fossils`]) and truncate each
    /// checkpointing process's journal prefix back to its newest safe
    /// [`Ctx::checkpoint`](crate::Ctx::checkpoint) snapshot — bounding
    /// memory on open-ended runs. Collection is *transparent*: it never
    /// changes committed outputs, only storage. Off by default so short
    /// runs keep complete histories for post-mortems.
    pub fossil_collection: bool,
    /// Run the engine's O(intervals × AIDs) structural invariant check
    /// ([`hope_core::Engine::verify_invariants`]) after every transition
    /// and panic on a violation. Invaluable when debugging a protocol,
    /// ruinous for long simulations, so this defaults to off. It is a
    /// dimension of the transparency lattices (`tests/chaos_equivalence.rs`,
    /// [`crate::mc`]), which is where the invariants are held under every
    /// combination of fossil collection, governor and faults.
    pub check_engine_invariants: bool,
    /// When the simulation quiesces (no events left), have the scheduler —
    /// which is a *definite external observer* by construction — affirm
    /// every still-open assumption and keep running until the resulting
    /// cascades settle.
    ///
    /// Rationale: by Lemma 6.3 a speculative affirm only takes effect when
    /// its issuer finalizes, so a system in which every process stays
    /// speculative (e.g. symmetric Time Warp) can never commit from
    /// within; real Time Warp solves this with GVT. This flag is that
    /// observer: at quiescence no deny can ever arrive, so surviving
    /// assumptions are vacuously safe to affirm. Off by default — it
    /// changes when (not whether) output commits, and programs with their
    /// own verifiers don't need it.
    pub commit_at_quiescence: bool,
    /// The fault schedule, if any (see [`FaultPlan`]). `None` gives the
    /// perfect substrate: exactly-once delivery, no kills. Fault verdicts
    /// draw from a dedicated RNG stream seeded by the *plan's* seed, so
    /// the same plan injects the same faults regardless of `seed`.
    pub faults: Option<FaultPlan>,
    /// Retransmission timeout for [`Ctx::send_reliable`](crate::Ctx):
    /// the deterministic deadline by which the "delivered" assumption must
    /// be affirmed by an ack before the runtime denies it and the sender
    /// retries. The default (50 ms) comfortably covers a coast-to-coast
    /// round trip, so fault-free runs never time out spuriously.
    pub ack_timeout: VirtualDuration,
    /// Upper bound on the exponential backoff of successive
    /// [`Ctx::send_reliable`](crate::Ctx) retries (the k-th retry waits
    /// `min(ack_timeout << (k-1), ack_backoff_cap)`).
    pub ack_backoff_cap: VirtualDuration,
    /// The optimism governor, if any (see [`crate::governor`]): a per-site
    /// admission controller that throttles or fully de-speculates guess
    /// sites whose recent deny rate × damage estimate crosses the
    /// configured pressure thresholds. `None` (the default) admits every
    /// guess immediately — the ungoverned semantics. Transparent to
    /// committed outputs by construction; [`chaos::sweep`](crate::chaos::sweep)
    /// over governor-on variants asserts it.
    pub governor: Option<GovernorConfig>,
}

impl SimConfig {
    /// A configuration with the given seed and otherwise default values.
    pub fn with_seed(seed: u64) -> Self {
        SimConfig {
            seed,
            ..SimConfig::default()
        }
    }
}

impl Default for SimConfig {
    fn default() -> Self {
        SimConfig {
            seed: 0,
            topology: Topology::lan(),
            rollback_overhead: VirtualDuration::ZERO,
            tracking_overhead: VirtualDuration::ZERO,
            max_virtual_time: VirtualTime::MAX,
            max_events: 10_000_000,
            max_journal_entries: 1_000_000,
            fossil_collection: false,
            check_engine_invariants: false,
            commit_at_quiescence: false,
            faults: None,
            ack_timeout: VirtualDuration::from_millis(50),
            ack_backoff_cap: VirtualDuration::from_millis(400),
            governor: None,
        }
    }
}

impl SimConfig {
    /// Enable the quiescence commit oracle (see
    /// [`SimConfig::commit_at_quiescence`]).
    pub fn commit_at_quiescence(mut self) -> Self {
        self.commit_at_quiescence = true;
        self
    }

    /// Install a fault schedule (see [`SimConfig::faults`]).
    pub fn with_faults(mut self, plan: FaultPlan) -> Self {
        self.faults = Some(plan);
        self
    }

    /// Replace the topology.
    pub fn with_topology(mut self, topology: Topology) -> Self {
        self.topology = topology;
        self
    }

    /// Replace the rollback overhead.
    pub fn with_rollback_overhead(mut self, d: VirtualDuration) -> Self {
        self.rollback_overhead = d;
        self
    }

    /// Replace the per-message tracking overhead.
    pub fn with_tracking_overhead(mut self, d: VirtualDuration) -> Self {
        self.tracking_overhead = d;
        self
    }

    /// Replace the scheduler-event hard stop.
    pub fn with_max_events(mut self, max: u64) -> Self {
        self.max_events = max;
        self
    }

    /// Replace the virtual-time hard stop.
    pub fn with_max_virtual_time(mut self, max: VirtualTime) -> Self {
        self.max_virtual_time = max;
        self
    }

    /// Replace the per-process journal-size hard stop.
    pub fn with_max_journal_entries(mut self, max: usize) -> Self {
        self.max_journal_entries = max;
        self
    }

    /// Enable or disable fossil collection (see
    /// [`SimConfig::fossil_collection`]).
    pub fn with_fossil_collection(mut self, on: bool) -> Self {
        self.fossil_collection = on;
        self
    }

    /// Replace the reliable-send retransmission timeout.
    pub fn with_ack_timeout(mut self, d: VirtualDuration) -> Self {
        self.ack_timeout = d;
        self
    }

    /// Replace the reliable-send backoff cap.
    pub fn with_ack_backoff_cap(mut self, d: VirtualDuration) -> Self {
        self.ack_backoff_cap = d;
        self
    }

    /// Install the optimism governor (see [`SimConfig::governor`]).
    pub fn with_governor(mut self, governor: GovernorConfig) -> Self {
        self.governor = Some(governor);
        self
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use hope_sim::SimRng;

    #[test]
    fn defaults() {
        let c = SimConfig::default();
        assert_eq!(c.seed, 0);
        assert_eq!(c.rollback_overhead, VirtualDuration::ZERO);
        assert_eq!(c.max_virtual_time, VirtualTime::MAX);
        assert!(c.max_events > 0);
        assert!(c.max_journal_entries > 0);
        assert!(!c.fossil_collection);
        assert!(c.faults.is_none());
        assert!(c.ack_timeout < c.ack_backoff_cap);
        assert!(c.governor.is_none());
    }

    #[test]
    fn builder_methods() {
        let plan = FaultPlan::new(11).drop_rate(0.2);
        let c = SimConfig::with_seed(9)
            .with_topology(Topology::coast_to_coast())
            .with_rollback_overhead(VirtualDuration::from_micros(50))
            .with_tracking_overhead(VirtualDuration::from_nanos(10))
            .with_max_events(123)
            .with_max_virtual_time(VirtualTime::from_nanos(999))
            .with_max_journal_entries(77)
            .with_fossil_collection(true)
            .with_ack_timeout(VirtualDuration::from_millis(20))
            .with_ack_backoff_cap(VirtualDuration::from_millis(80))
            .with_faults(plan.clone())
            .with_governor(GovernorConfig::default().with_window(32));
        assert_eq!(c.seed, 9);
        assert_eq!(c.rollback_overhead, VirtualDuration::from_micros(50));
        assert_eq!(c.tracking_overhead, VirtualDuration::from_nanos(10));
        let mut rng = SimRng::new(0);
        assert_eq!(
            c.topology.sample(0, 1, &mut rng),
            VirtualDuration::from_millis(15)
        );
        assert_eq!(c.max_events, 123);
        assert_eq!(c.max_virtual_time, VirtualTime::from_nanos(999));
        assert_eq!(c.max_journal_entries, 77);
        assert!(c.fossil_collection);
        assert_eq!(c.ack_timeout, VirtualDuration::from_millis(20));
        assert_eq!(c.ack_backoff_cap, VirtualDuration::from_millis(80));
        assert_eq!(c.faults, Some(plan));
        assert_eq!(c.governor.as_ref().map(|g| g.window), Some(32));
    }
}
