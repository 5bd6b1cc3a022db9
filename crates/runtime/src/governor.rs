//! The optimism governor: deny-storm admission control for speculation.
//!
//! HOPE makes speculation cheap to *express*; nothing in the semantics says
//! when it is *wise*. Under a lossy link or a hostile verifier, deny
//! cascades can do more rollback work than the optimism saves. This module
//! closes the loop the cost model opened: a per-site admission controller
//! that watches a sliding window of recent deny/affirm outcomes and the
//! rollback damage they caused (an estimate that starts at
//! [`DEFAULT_DAMAGE`] and is corrected online by observed truncation
//! work), and drives a deterministic three-state machine per guess site:
//!
//! * [`GovernorMode::Optimistic`] — admit guesses immediately (the
//!   ungoverned behaviour);
//! * [`GovernorMode::Throttled`] — delay each guess behind a virtual-time
//!   hold, circuit-breaker style, so a storm of high-damage guesses is
//!   spent more slowly than it is denied;
//! * [`GovernorMode::Conservative`] — convert guesses into definite waits:
//!   the process parks until the assumption is decided and then takes the
//!   *known* branch, i.e. full degradation to non-speculative execution.
//!
//! The load-bearing property is **transparency**: the governor reshapes
//! *when* optimism is spent, never *what* commits. A held guess is the same
//! guess a little later; a converted guess commits the same branch the
//! optimistic run would eventually have committed (a denied assumption
//! yields `false` either way — directly, or after a rollback). Holds and
//! wait wake-ups ride the ordinary epoch-guarded [`Wake`] events, so
//! [`mc::check_scenario`](crate::mc::check_scenario) exhaustion and
//! [`FaultPlan`](hope_sim::FaultPlan) replay stay sound with the governor
//! enabled. [`chaos::sweep`](crate::chaos::sweep) over governor-on variants
//! turns the transparency claim into an executable oracle.
//!
//! [`Wake`]: crate::SimConfig
//!
//! # Obligation on conservative waits
//!
//! A guess converted to a wait parks until *someone else* decides the
//! assumption. The decider must therefore not depend on the guesser's
//! post-guess progress — true for [`Ctx::send_reliable`](crate::Ctx), whose
//! assumptions are decided by the runtime's ack/timeout injector, and for
//! any verifier that reads only pre-guess messages. A site whose decider
//! waits on the guesser would deadlock under full degradation exactly as
//! the equivalent non-speculative protocol would.

use std::collections::{BTreeMap, HashMap, VecDeque};

use hope_core::{AidId, AidState, ProcessId};
use hope_sim::{VirtualDuration, VirtualTime};

use crate::shared::Shared;

/// The site id [`Ctx::guess`](crate::Ctx::guess) reports to the governor.
/// Programs that want per-site control use
/// [`Ctx::guess_at`](crate::Ctx::guess_at) with their own ids.
pub const DEFAULT_GUESS_SITE: u32 = 0;

/// The reserved site id of the "delivered" guesses inside
/// [`Ctx::send_reliable`](crate::Ctx::send_reliable), kept out of the
/// statement-index range so reliable-send pressure is governed separately
/// from program guesses.
pub const RELIABLE_SEND_SITE: u32 = u32::MAX;

/// Hysteresis: a mode is left only when pressure falls below
/// `entry_threshold * DEMOTE_PERMILLE / 1000`, so a site oscillating
/// around a threshold does not flap.
pub const DEMOTE_PERMILLE: u64 = 500;

/// Every site's damage estimate (journal entries) until observed
/// rollbacks correct it.
pub const DEFAULT_DAMAGE: u64 = 1;

/// Admission-control state machine position of one guess site.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum GovernorMode {
    /// Admit guesses immediately (the ungoverned behaviour).
    Optimistic,
    /// Delay each admitted guess behind a virtual-time hold
    /// ([`GovernorConfig::hold`]).
    Throttled,
    /// Convert guesses into definite waits; every
    /// [`GovernorConfig::probe_after`]-th guess is admitted optimistically
    /// as a half-open probe so the site can discover that a storm ended.
    Conservative,
}

impl std::fmt::Display for GovernorMode {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(match self {
            GovernorMode::Optimistic => "optimistic",
            GovernorMode::Throttled => "throttled",
            GovernorMode::Conservative => "conservative",
        })
    }
}

/// Configuration of the optimism governor (see the module docs), installed
/// with [`SimConfig::with_governor`](crate::SimConfig::with_governor).
///
/// Pressure is measured in **milli-entries of expected rollback damage per
/// admitted guess**: the deny rate over the sliding window (per-mille)
/// times the site's damage estimate (journal entries, EWMA-corrected from
/// observed truncations from [`DEFAULT_DAMAGE`]), divided by 1000. A
/// site whose guesses are denied 50% of the time and cost 4 discarded
/// journal entries each sits at pressure 2000.
#[derive(Debug, Clone, PartialEq)]
pub struct GovernorConfig {
    /// Sliding-window length: how many recent decided outcomes (affirms
    /// and denies) each site remembers.
    pub window: usize,
    /// Minimum decided outcomes in the window before the mode may change;
    /// below it the site holds its current mode.
    pub min_samples: usize,
    /// Enter [`GovernorMode::Throttled`] at or above this pressure.
    pub throttle_pressure: u64,
    /// Enter [`GovernorMode::Conservative`] at or above this pressure.
    pub break_pressure: u64,
    /// The virtual-time hold a [`GovernorMode::Throttled`] site inserts
    /// before each admitted guess.
    pub hold: VirtualDuration,
    /// In [`GovernorMode::Conservative`], admit every N-th guess
    /// optimistically as a half-open probe (0 disables probing; the site
    /// then recovers only through outcomes observed on converted waits).
    pub probe_after: u32,
}

impl Default for GovernorConfig {
    fn default() -> Self {
        GovernorConfig {
            window: 16,
            min_samples: 8,
            throttle_pressure: 400,
            break_pressure: 1600,
            hold: VirtualDuration::from_millis(2),
            probe_after: 8,
        }
    }
}

impl GovernorConfig {
    /// Replace the sliding-window length (clamped to at least 1).
    #[must_use]
    pub fn with_window(mut self, window: usize) -> Self {
        self.window = window.max(1);
        self
    }

    /// Replace the minimum sample count (clamped to at least 1).
    #[must_use]
    pub fn with_min_samples(mut self, min_samples: usize) -> Self {
        self.min_samples = min_samples.max(1);
        self
    }

    /// Replace both pressure thresholds (throttle, then break).
    #[must_use]
    pub fn with_thresholds(mut self, throttle: u64, brk: u64) -> Self {
        self.throttle_pressure = throttle;
        self.break_pressure = brk;
        self
    }

    /// Replace the throttled hold duration.
    #[must_use]
    pub fn with_hold(mut self, hold: VirtualDuration) -> Self {
        self.hold = hold;
        self
    }

    /// Replace the half-open probe cadence (0 disables probing).
    #[must_use]
    pub fn with_probe_after(mut self, n: u32) -> Self {
        self.probe_after = n;
        self
    }
}

/// One mode change of one guess site, in virtual-time order. The full
/// trace is available as
/// [`RunReport::governor_transitions`](crate::RunReport::governor_transitions)
/// and is a pure function of `(seed, config)` — the determinism suite pins
/// that across reruns and fossil collection.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ModeTransition {
    /// The guessing process.
    pub process: ProcessId,
    /// The guess site within that process.
    pub site: u32,
    /// Virtual time of the observation that triggered the change.
    pub at: VirtualTime,
    /// Mode left.
    pub from: GovernorMode,
    /// Mode entered.
    pub to: GovernorMode,
}

/// Counters of the optimism governor, reported in
/// [`RunStats::governor`](crate::RunStats). Like the tracking and lock
/// counters they are excluded from
/// [`RunReport::fingerprint`](crate::RunReport::fingerprint): the
/// transparency oracle compares committed outputs between governor-on and
/// governor-off runs, whose control counters legitimately differ.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
#[non_exhaustive]
pub struct GovernorStats {
    /// Guesses admitted optimistically (probes included).
    pub admitted: u64,
    /// Admitted guesses that were first delayed by a throttled hold.
    pub held: u64,
    /// Guesses converted into definite waits (full degradation).
    pub converted: u64,
    /// Half-open optimistic probes admitted from conservative mode.
    pub probes: u64,
    /// Denies observed on governed assumptions.
    pub denials_observed: u64,
    /// Affirms observed on governed assumptions.
    pub affirms_observed: u64,
    /// Journal entries discarded by rollbacks attributed to governed
    /// denies (the online damage signal).
    pub rollback_damage: u64,
    /// Mode transitions across all sites.
    pub transitions: u64,
}

/// What the governor tells an arriving guess to do.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum Admission {
    /// Proceed immediately.
    Admit,
    /// Park behind a virtual-time hold, then proceed.
    Hold(VirtualDuration),
    /// Park until the assumption is decided, then take the known branch.
    Wait,
}

#[derive(Debug)]
struct SiteState {
    mode: GovernorMode,
    /// Recent decided outcomes, oldest first; `true` = denied.
    window: VecDeque<bool>,
    /// EWMA of rollback damage per denied guess, in milli-entries.
    damage_milli: u64,
    /// Conservative conversions since the last half-open probe.
    since_probe: u32,
}

/// The runtime state of the admission controller: one [`SiteState`] per
/// `(process, site)` pair that has guessed, plus the aid → site map that
/// routes decision effects back to their windows. Lives in
/// [`Shared`](crate::shared::Shared) beside the engine; every update
/// happens at a deterministic point of the (deterministic) event order, so
/// the whole trace is a pure function of `(seed, config)`.
#[derive(Debug)]
pub(crate) struct Governor {
    cfg: GovernorConfig,
    sites: BTreeMap<(ProcessId, u32), SiteState>,
    /// Undecided governed assumptions: aid → owning site.
    pending: HashMap<AidId, (ProcessId, u32)>,
    /// Processes parked in a conservative wait: aid → process index. An
    /// entry is removed when the decision fires (waking the process) or
    /// when a rollback unwinds the waiter.
    pub(crate) waiting: HashMap<AidId, usize>,
    pub(crate) stats: GovernorStats,
    pub(crate) transitions: Vec<ModeTransition>,
}

impl Governor {
    pub(crate) fn new(cfg: GovernorConfig) -> Self {
        Governor {
            cfg,
            sites: BTreeMap::new(),
            pending: HashMap::new(),
            waiting: HashMap::new(),
            stats: GovernorStats::default(),
            transitions: Vec::new(),
        }
    }

    fn site_mut(&mut self, pid: ProcessId, site: u32) -> &mut SiteState {
        let cfg = &self.cfg;
        self.sites.entry((pid, site)).or_insert_with(|| SiteState {
            mode: GovernorMode::Optimistic,
            window: VecDeque::with_capacity(cfg.window),
            damage_milli: DEFAULT_DAMAGE * 1000,
            since_probe: 0,
        })
    }

    /// Expected rollback damage per admitted guess, in milli-entries.
    fn pressure(s: &SiteState) -> u64 {
        let n = s.window.len() as u64;
        if n == 0 {
            return 0;
        }
        let denies = s.window.iter().filter(|&&d| d).count() as u64;
        (denies * 1000 / n).saturating_mul(s.damage_milli) / 1000
    }

    /// Re-evaluate one site's mode after an observation, recording a
    /// [`ModeTransition`] if it changed.
    fn eval(&mut self, key: (ProcessId, u32), at: VirtualTime) {
        let cfg_min = self.cfg.min_samples;
        let (throttle, brk) = (self.cfg.throttle_pressure, self.cfg.break_pressure);
        let s = self.sites.get_mut(&key).expect("observed site exists");
        if s.window.len() < cfg_min {
            return;
        }
        let p = Self::pressure(s);
        let exit = |entry: u64| entry.saturating_mul(DEMOTE_PERMILLE) / 1000;
        let to = match s.mode {
            GovernorMode::Optimistic => {
                if p >= brk {
                    GovernorMode::Conservative
                } else if p >= throttle {
                    GovernorMode::Throttled
                } else {
                    GovernorMode::Optimistic
                }
            }
            GovernorMode::Throttled => {
                if p >= brk {
                    GovernorMode::Conservative
                } else if p < exit(throttle) {
                    GovernorMode::Optimistic
                } else {
                    GovernorMode::Throttled
                }
            }
            GovernorMode::Conservative => {
                if p < exit(throttle) {
                    GovernorMode::Optimistic
                } else if p < exit(brk) {
                    GovernorMode::Throttled
                } else {
                    GovernorMode::Conservative
                }
            }
        };
        if to != s.mode {
            let from = s.mode;
            s.mode = to;
            s.since_probe = 0;
            self.stats.transitions += 1;
            self.transitions.push(ModeTransition {
                process: key.0,
                site: key.1,
                at,
                from,
                to,
            });
        }
    }

    /// Admission decision for a live guess at `(pid, site)`.
    fn admit(&mut self, pid: ProcessId, site: u32) -> Admission {
        let probe_after = self.cfg.probe_after;
        let hold = self.cfg.hold;
        let s = self.site_mut(pid, site);
        match s.mode {
            GovernorMode::Optimistic => {
                self.stats.admitted += 1;
                Admission::Admit
            }
            GovernorMode::Throttled => {
                self.stats.admitted += 1;
                self.stats.held += 1;
                Admission::Hold(hold)
            }
            GovernorMode::Conservative => {
                s.since_probe += 1;
                if probe_after > 0 && s.since_probe >= probe_after {
                    s.since_probe = 0;
                    self.stats.admitted += 1;
                    self.stats.probes += 1;
                    Admission::Admit
                } else {
                    self.stats.converted += 1;
                    Admission::Wait
                }
            }
        }
    }

    /// Route a decision on a governed assumption to its site's window.
    /// Returns the site key when the aid was governed (for rollback-damage
    /// attribution), `None` for assumptions the governor never admitted.
    pub(crate) fn observe_decided(
        &mut self,
        aid: AidId,
        denied: bool,
        at: VirtualTime,
    ) -> Option<(ProcessId, u32)> {
        let key = self.pending.remove(&aid)?;
        self.push_outcome(key, denied, at);
        Some(key)
    }

    /// Record an outcome for a site directly (used for guesses that found
    /// their assumption already decided: there is no speculation to govern,
    /// but the outcome is still deny-rate signal).
    fn push_outcome(&mut self, key: (ProcessId, u32), denied: bool, at: VirtualTime) {
        if denied {
            self.stats.denials_observed += 1;
        } else {
            self.stats.affirms_observed += 1;
        }
        let window = self.cfg.window;
        let s = self.site_mut(key.0, key.1);
        if s.window.len() >= window {
            s.window.pop_front();
        }
        s.window.push_back(denied);
        self.eval(key, at);
    }

    /// Charge `entries` journal entries of observed rollback damage to the
    /// sites whose denies appeared in the same effect batch, correcting
    /// each site's damage EWMA online.
    pub(crate) fn charge_damage(
        &mut self,
        keys: &[(ProcessId, u32)],
        entries: u64,
        at: VirtualTime,
    ) {
        if entries == 0 || keys.is_empty() {
            return;
        }
        self.stats.rollback_damage += entries;
        for &key in keys {
            let s = self.site_mut(key.0, key.1);
            let observed = entries.saturating_mul(1000);
            s.damage_milli = s.damage_milli.saturating_mul(3).saturating_add(observed) / 4;
            self.eval(key, at);
        }
    }
}

impl Shared {
    /// The governor's admission decision for a live guess by `procs[idx]`
    /// on `aid` at `site`; registers the assumption as governed so its
    /// decision is routed back to the site's window. Returns
    /// [`Admission::Admit`] (and records the outcome directly) when the
    /// assumption is already decided — there is nothing left to govern.
    pub(crate) fn govern_admit(&mut self, idx: usize, aid: AidId, site: u32) -> Admission {
        if self.governor.is_none() {
            return Admission::Admit;
        }
        let pid = self.procs[idx].pid;
        let now = self.now;
        match self.engine.aid_state(aid) {
            Ok(AidState::Undecided) => {}
            Ok(state) => {
                let gov = self.governor.as_mut().expect("checked above");
                gov.push_outcome((pid, site), state == AidState::Denied, now);
                return Admission::Admit;
            }
            // Fossil: decided long ago; the guess answers definitively.
            Err(_) => return Admission::Admit,
        }
        let gov = self.governor.as_mut().expect("checked above");
        let decision = gov.admit(pid, site);
        gov.pending.insert(aid, (pid, site));
        decision
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tight() -> GovernorConfig {
        GovernorConfig::default()
            .with_window(4)
            .with_min_samples(2)
            .with_thresholds(400, 900)
            .with_probe_after(3)
    }

    fn feed(gov: &mut Governor, pid: ProcessId, site: u32, denied: bool, t: u64) {
        let aid = AidId::from_index(t);
        gov.pending.insert(aid, (pid, site));
        gov.observe_decided(aid, denied, VirtualTime::from_nanos(t));
    }

    #[test]
    fn config_builders() {
        let c = GovernorConfig::default()
            .with_window(0)
            .with_min_samples(0)
            .with_thresholds(1, 2)
            .with_hold(VirtualDuration::from_millis(7))
            .with_probe_after(5);
        assert_eq!(c.window, 1);
        assert_eq!(c.min_samples, 1);
        assert_eq!((c.throttle_pressure, c.break_pressure), (1, 2));
        assert_eq!(c.hold, VirtualDuration::from_millis(7));
        assert_eq!(c.probe_after, 5);
    }

    #[test]
    fn deny_storm_escalates_and_calm_demotes_with_hysteresis() {
        let mut gov = Governor::new(tight());
        let pid = ProcessId(0);
        // All-deny window with damage 1 (1000 milli-entries of pressure):
        // past min_samples this crosses 900 → Conservative.
        for t in 0..4 {
            feed(&mut gov, pid, 0, true, t);
        }
        assert_eq!(
            gov.sites[&(pid, 0)].mode,
            GovernorMode::Conservative,
            "transitions: {:?}",
            gov.transitions
        );
        // Calm: affirms wash the denies out of the window; pressure falls
        // through the demotion thresholds back to Optimistic.
        for t in 4..12 {
            feed(&mut gov, pid, 0, false, t);
        }
        assert_eq!(gov.sites[&(pid, 0)].mode, GovernorMode::Optimistic);
        // The trace went up and came back down, in order.
        let modes: Vec<GovernorMode> = gov.transitions.iter().map(|t| t.to).collect();
        assert!(modes.contains(&GovernorMode::Conservative));
        assert_eq!(*modes.last().unwrap(), GovernorMode::Optimistic);
        assert_eq!(gov.stats.transitions, gov.transitions.len() as u64);
    }

    #[test]
    fn conservative_mode_converts_and_probes() {
        let mut gov = Governor::new(tight());
        let pid = ProcessId(3);
        for t in 0..4 {
            feed(&mut gov, pid, 7, true, t);
        }
        assert_eq!(gov.sites[&(pid, 7)].mode, GovernorMode::Conservative);
        let before = gov.stats;
        // probe_after = 3: two conversions, then a probe, repeating.
        let decisions: Vec<Admission> = (0..6).map(|_| gov.admit(pid, 7)).collect();
        assert_eq!(
            decisions,
            vec![
                Admission::Wait,
                Admission::Wait,
                Admission::Admit,
                Admission::Wait,
                Admission::Wait,
                Admission::Admit,
            ]
        );
        assert_eq!(gov.stats.converted - before.converted, 4);
        assert_eq!(gov.stats.probes - before.probes, 2);
    }

    #[test]
    fn throttled_mode_holds_with_configured_duration() {
        let cfg = tight()
            .with_thresholds(400, 100_000)
            .with_hold(VirtualDuration::from_millis(9));
        let mut gov = Governor::new(cfg);
        let pid = ProcessId(1);
        for t in 0..4 {
            feed(&mut gov, pid, 0, true, t);
        }
        assert_eq!(gov.sites[&(pid, 0)].mode, GovernorMode::Throttled);
        assert_eq!(
            gov.admit(pid, 0),
            Admission::Hold(VirtualDuration::from_millis(9))
        );
        assert!(gov.stats.held > 0);
    }

    #[test]
    fn damage_starts_at_the_default_and_rollbacks_correct_it() {
        let mut gov = Governor::new(tight());
        let pid = ProcessId(0);
        gov.admit(pid, 5);
        assert_eq!(gov.sites[&(pid, 5)].damage_milli, DEFAULT_DAMAGE * 1000);
        // Observed damage of 6 entries pulls the EWMA toward 6000.
        gov.charge_damage(&[(pid, 5)], 6, VirtualTime::ZERO);
        assert_eq!(gov.sites[&(pid, 5)].damage_milli, (3000 + 6000) / 4);
        assert_eq!(gov.stats.rollback_damage, 6);
    }

    #[test]
    fn ungoverned_aids_are_ignored() {
        let mut gov = Governor::new(tight());
        assert_eq!(
            gov.observe_decided(AidId::from_index(99), true, VirtualTime::ZERO),
            None
        );
        assert_eq!(gov.stats.denials_observed, 0);
    }
}
