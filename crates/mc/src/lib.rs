//! # hope-mc — schedule-space model checking for HOPE machine programs
//!
//! The theorem and agreement suites in this workspace execute programs
//! under a *sample* of schedules (round-robin plus a handful of seeded
//! random runs). That leaves every "on some schedule" / "on no schedule"
//! claim schedule-incomplete. This crate closes the gap: [`check`]
//! explores **every inequivalent interleaving** of a small
//! [`Program`] under `Machine::step`, and returns a verdict that is
//! either [`Completeness::Exhausted`] — the claim now quantifies over the
//! full schedule space — or an explicit [`Completeness::BudgetExceeded`].
//!
//! Two cooperating reductions keep the space tractable without losing
//! any reachable terminal state:
//!
//! 1. **Canonical-state memoization** ([`mod@canon`]): states reached by
//!    commuting independent steps are renamed onto schedule-independent
//!    coordinates and cached, so each inequivalent state is expanded once.
//! 2. **Sleep sets and persistent singletons**: after exploring step `a`
//!    from a state, sibling branches need not re-run `a`-first
//!    interleavings of independent steps, and a step proven invisible to
//!    every other process is scheduled alone, without branching.
//!    Independence comes from engine-derived footprints (same-AID
//!    contact, DOM/IDO interaction, rollback victims, mailbox order — see
//!    `indep`).
//!
//! Both preserve every reachable *terminal* state (and the sin flags that
//! decide pristineness travel inside the canonical state), so every
//! verdict this crate reports — "some schedule finalizes pristinely", "no
//! schedule can finalize", "all schedules commit the same outputs" —
//! holds over the unreduced space. [`Mode::SleepSet`] applies both and is
//! the default; [`Mode::Naive`] (plain bounded DFS, no cache, no
//! reduction) is the oracle the test-suite holds it to and the E17
//! experiment measures it against.
//!
//! ```
//! use hope_core::program::Program;
//! use hope_mc::{check, Completeness, McConfig};
//!
//! let program: Program = "process P0:\n guess(x0)\nprocess P1:\n affirm(x0)\n"
//!     .parse()
//!     .unwrap();
//! let report = check(&program, &McConfig::default());
//! assert_eq!(report.completeness, Completeness::Exhausted);
//! assert!(report.pristine_witness.is_some());
//! assert_eq!(report.distinct_outputs(), 1);
//! ```

#![forbid(unsafe_code)]
#![deny(missing_docs)]
#![warn(missing_debug_implementations)]

use std::collections::BTreeSet;

use hope_core::machine::{Machine, StepOutcome};
use hope_core::observer::RuntimeObserver;
use hope_core::program::Program;
use hope_core::Action;

pub mod canon;
mod indep;

pub use canon::commit_fingerprint;

use indep::{invisible_singleton, IdSet};

/// Exploration strategy.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Mode {
    /// Plain bounded DFS over the full interleaving tree: no state cache,
    /// no reduction. The oracle the reduced search is checked against; its
    /// `transitions` count is the naive interleaving cost.
    Naive,
    /// The reduced search, and the default: canonical-state memoization +
    /// sleep sets + persistent singletons, with every non-sleeping enabled
    /// transition explored at every state.
    SleepSet,
}

/// Budget and strategy for one [`check`] run.
#[derive(Debug, Clone)]
pub struct McConfig {
    /// Stop after this many states (canonical states in `SleepSet`,
    /// visited nodes in `Naive`).
    pub max_states: usize,
    /// Prune any branch deeper than this many steps (guards against
    /// rollback-re-execution livelock in adversarial programs).
    pub max_depth: usize,
    /// Exploration strategy.
    pub mode: Mode,
    /// Keep at most this many terminal schedules as replayable witnesses.
    pub max_witnesses: usize,
}

impl Default for McConfig {
    fn default() -> Self {
        McConfig {
            max_states: 200_000,
            max_depth: 2_000,
            mode: Mode::SleepSet,
            max_witnesses: 16,
        }
    }
}

impl McConfig {
    /// A small-budget configuration for smoke tests and CI.
    pub fn smoke() -> Self {
        McConfig {
            max_states: 20_000,
            max_depth: 500,
            ..McConfig::default()
        }
    }
}

/// Why a [`check`] run stopped early.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum BudgetReason {
    /// The state budget ran out; unexplored interleavings remain.
    MaxStates,
    /// Some branch exceeded the depth bound and was pruned.
    MaxDepth,
}

/// Whether the verdict quantifies over the full reduced schedule space.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Completeness {
    /// Every inequivalent interleaving was explored: existential and
    /// universal schedule claims from this report are exact.
    Exhausted,
    /// The budget ran out first: "found" results (a pristine witness, a
    /// reached output) are still sound, but absence proves nothing.
    BudgetExceeded(BudgetReason),
}

impl Completeness {
    /// `true` when the full reduced space was explored.
    pub fn is_exhausted(&self) -> bool {
        matches!(self, Completeness::Exhausted)
    }
}

/// One terminal state's schedule, kept for replay.
#[derive(Debug, Clone)]
pub struct TerminalWitness {
    /// Process indices in execution order; replay with [`replay`].
    pub schedule: Vec<usize>,
    /// `true` if every process ran to completion (else: deadlock).
    pub completed: bool,
    /// `true` if the run finalized pristinely — completed with no
    /// rollback, no ghost, no skipped primitive and no leaked
    /// speculation.
    pub pristine: bool,
}

/// The result of exploring a program's schedule space.
#[derive(Debug, Clone)]
pub struct McReport {
    /// Whether the whole reduced space was covered.
    pub completeness: Completeness,
    /// Unique canonical states visited (`Naive`: DFS nodes visited).
    pub states: usize,
    /// Machine steps executed across all explored branches.
    pub transitions: usize,
    /// Re-arrivals at an already-expanded canonical state.
    pub cache_hits: usize,
    /// Enabled transitions skipped because a sleep set proved an
    /// equivalent interleaving already explored.
    pub sleep_pruned: usize,
    /// States where a persistent singleton removed all branching.
    pub singleton_states: usize,
    /// Terminal states where every process completed.
    pub completed_terminals: usize,
    /// Terminal states where some process was blocked forever.
    pub deadlock_terminals: usize,
    /// A schedule that finalizes pristinely, if any explored one does.
    pub pristine_witness: Option<Vec<usize>>,
    /// Up to `max_witnesses` terminal schedules for replay.
    pub witnesses: Vec<TerminalWitness>,
    /// Pending-but-unexplored transitions left behind when a budget
    /// stopped the run (a lower bound: their subtrees were never
    /// counted). `0` when [`Completeness::Exhausted`].
    pub frontier_remaining: usize,
    outputs: BTreeSet<Vec<u8>>,
}

impl McReport {
    /// Number of distinct committed outcomes (commit fingerprints) across
    /// all completed terminals. `1` here with
    /// [`Completeness::Exhausted`] is the Theorem 6.x determinism claim,
    /// verified over every inequivalent schedule.
    pub fn distinct_outputs(&self) -> usize {
        self.outputs.len()
    }

    /// `true` if some completed explored schedule commits exactly this
    /// outcome (a [`commit_fingerprint`] of a finished machine).
    pub fn contains_output(&self, fingerprint: &[u8]) -> bool {
        self.outputs.contains(fingerprint)
    }

    /// The set of committed outcomes reached by explored schedules.
    pub fn outputs(&self) -> &BTreeSet<Vec<u8>> {
        &self.outputs
    }

    /// Exhaustively proven: *no* schedule finalizes pristinely. `false`
    /// when a witness exists **or** the budget ran out first.
    pub fn proves_no_pristine_schedule(&self) -> bool {
        self.pristine_witness.is_none() && self.completeness.is_exhausted()
    }

    /// Fraction of the reduced space covered: `1.0` when exhausted, else
    /// visited states over visited-plus-pending-frontier. Over-budget
    /// consumers log this instead of a bare boolean, so a run that died
    /// at 98% reads differently from one that died at 3%. A budget-ended
    /// run always reports strictly below `1.0`: the frontier is a lower
    /// bound and can be 0, so at least one pending unit is charged.
    pub fn explored_fraction(&self) -> f64 {
        if self.completeness.is_exhausted() {
            return 1.0;
        }
        let total = self.states + self.frontier_remaining.max(1);
        self.states as f64 / total as f64
    }

    /// An empty report assuming exhaustion, filled in by the explorer.
    fn empty() -> McReport {
        McReport {
            completeness: Completeness::Exhausted,
            states: 0,
            transitions: 0,
            cache_hits: 0,
            sleep_pruned: 0,
            singleton_states: 0,
            completed_terminals: 0,
            deadlock_terminals: 0,
            pristine_witness: None,
            witnesses: Vec::new(),
            frontier_remaining: 0,
            outputs: BTreeSet::new(),
        }
    }
}

/// `true` if `m` has *finalized pristinely* — the one definition of "runs
/// to full finalization" the verdicts here, the analyzer's agreement
/// suites and the E17 experiment share: every process completed, no
/// rollback ever happened, no ghost message ever did, no surviving history
/// holds an [`Action::SkippedDecide`], and every process is definite.
pub fn is_pristine(m: &Machine) -> bool {
    let stats = m.engine().stats();
    stats.rollback_events == 0
        && stats.ghosts == 0
        && (0..m.process_count()).all(|p| {
            m.poll(p) == StepOutcome::Done
                && !m.engine().is_speculative(m.pid(p)).unwrap_or(true)
                && m.history(p)
                    .states()
                    .iter()
                    .all(|s| !matches!(s.event, Action::SkippedDecide { .. }))
        })
}

/// States every check's tables are allocated for: seven in eight
/// generated 3×3 programs (the E22 corpus) reach fewer, so their tables
/// never grow.
const PRESIZED_STATES: usize = 64;
/// Key bytes the visited table is allocated for: 64 a state, where the
/// E22 corpus averages 59.
const PRESIZED_KEY_BYTES: usize = 64 * PRESIZED_STATES;

/// The visited states' keys, back to back in one byte arena. A key's hash
/// only picks the chain searched; a key is found by comparing all of its
/// bytes, so no hash collision can merge two states.
struct Visited {
    /// Every key's bytes, in the order the keys were stored.
    bytes: Vec<u8>,
    /// Key `i` ends at `ends[i]` and starts where key `i - 1` ends.
    ends: Vec<usize>,
    /// Per chain, one more than its newest key's index (0: empty). Its
    /// length is a power of two, at least the number of keys.
    heads: Vec<u32>,
    /// Per key, one more than the index of the next key in its chain.
    next: Vec<u32>,
}

impl Visited {
    fn with_capacity(keys: usize, bytes: usize) -> Self {
        Visited {
            bytes: Vec::with_capacity(bytes),
            ends: Vec::with_capacity(keys),
            heads: vec![0; keys.next_power_of_two()],
            next: Vec::with_capacity(keys),
        }
    }

    fn key(&self, i: usize) -> &[u8] {
        let start = if i == 0 { 0 } else { self.ends[i - 1] };
        &self.bytes[start..self.ends[i]]
    }

    /// The chain `key` belongs in: a word-at-a-time multiplicative hash,
    /// mixed down so that every byte reaches the low bits.
    fn chain(&self, key: &[u8]) -> usize {
        const K: u64 = 0x517c_c1b7_2722_0a95;
        let mut h = key.len() as u64;
        let mut words = key.chunks_exact(8);
        for w in &mut words {
            let w = u64::from_le_bytes(w.try_into().expect("an 8-byte chunk"));
            h = (h.rotate_left(5) ^ w).wrapping_mul(K);
        }
        let mut tail = [0u8; 8];
        tail[..words.remainder().len()].copy_from_slice(words.remainder());
        h = (h.rotate_left(5) ^ u64::from_le_bytes(tail)).wrapping_mul(K);
        h ^= h >> 33;
        h = h.wrapping_mul(0xff51_afd7_ed55_8ccd);
        h ^= h >> 33;
        h as usize & (self.heads.len() - 1)
    }

    /// `Ok` with the index of `key` if it is stored, else `Err` with the
    /// index it is stored at now. Indices count up from 0 in the order
    /// keys are stored.
    fn find_or_insert(&mut self, key: &[u8]) -> Result<usize, usize> {
        let chain = self.chain(key);
        let mut at = self.heads[chain];
        while let Some(i) = (at as usize).checked_sub(1) {
            if self.key(i) == key {
                return Ok(i);
            }
            at = self.next[i];
        }
        let i = self.ends.len();
        self.bytes.extend_from_slice(key);
        self.ends.push(self.bytes.len());
        self.next.push(self.heads[chain]);
        self.heads[chain] = u32::try_from(i + 1).expect("fewer than 2^32 states");
        if self.ends.len() > self.heads.len() {
            self.rechain();
        }
        Err(i)
    }

    /// Double the chains and relink every key.
    #[cold]
    fn rechain(&mut self) {
        let chains = 2 * self.heads.len();
        self.heads.clear();
        self.heads.resize(chains, 0);
        for i in 0..self.ends.len() {
            let chain = self.chain(self.key(i));
            self.next[i] = self.heads[chain];
            self.heads[chain] = (i + 1) as u32;
        }
    }
}

struct Explorer {
    cfg: McConfig,
    /// `cfg.mode == Mode::SleepSet`: cache states, prune with sleep sets
    /// and persistent singletons. `false` is the naive oracle.
    reduce: bool,
    /// Each visited state's key, stored once; its index is the state's
    /// index in `explored`.
    visited: Visited,
    /// Per visited state: the steps from it explored or being explored.
    explored: Vec<IdSet<usize>>,
    /// Empty per-state footprint tables, reused: an expanded state takes
    /// one and returns it, so the recursion holds one per level.
    spare_footprints: Vec<Vec<Option<indep::Footprint>>>,
    /// The singleton prover's memo, reused from state to state.
    reaches: indep::Reaches,
    /// Machines of branches whose subtrees are done. A branch starts in
    /// one of them through `clone_from`, which reuses its buffers.
    spare_machines: Vec<Machine>,
    /// The state key and the commit fingerprint are written here.
    key: Vec<u8>,
    fingerprint: Vec<u8>,
    path: Vec<usize>,
    report: McReport,
    stopped: bool,
}

impl Explorer {
    fn new(cfg: &McConfig) -> Self {
        Explorer {
            cfg: cfg.clone(),
            reduce: cfg.mode == Mode::SleepSet,
            visited: Visited::with_capacity(PRESIZED_STATES, PRESIZED_KEY_BYTES),
            explored: Vec::with_capacity(PRESIZED_STATES),
            spare_footprints: Vec::new(),
            reaches: indep::Reaches::default(),
            spare_machines: Vec::new(),
            key: Vec::new(),
            fingerprint: Vec::new(),
            path: Vec::new(),
            report: McReport::empty(),
            stopped: false,
        }
    }

    fn budget_left(&mut self) -> bool {
        if self.report.states >= self.cfg.max_states {
            self.report.completeness = Completeness::BudgetExceeded(BudgetReason::MaxStates);
            self.stopped = true;
        }
        !self.stopped
    }

    fn terminal(&mut self, m: &Machine) {
        let completed = (0..m.process_count()).all(|p| m.poll(p) == StepOutcome::Done);
        let pristine = completed && is_pristine(m);
        if completed {
            self.report.completed_terminals += 1;
            canon::commit_fingerprint_into(m, &mut self.fingerprint);
            if !self.report.outputs.contains(&self.fingerprint) {
                self.report.outputs.insert(self.fingerprint.clone());
            }
        } else {
            self.report.deadlock_terminals += 1;
        }
        if pristine && self.report.pristine_witness.is_none() {
            self.report.pristine_witness = Some(self.path.clone());
        }
        if self.report.witnesses.len() < self.cfg.max_witnesses {
            self.report.witnesses.push(TerminalWitness {
                schedule: self.path.clone(),
                completed,
                pristine,
            });
        }
    }

    /// Step `m` by process `p` and explore the state it reaches.
    fn descend(&mut self, m: &mut Machine, p: usize, sleep: IdSet<usize>, depth: usize) {
        m.step(p).expect("machine-built programs cannot err");
        self.report.transitions += 1;
        self.path.push(p);
        self.explore(m, sleep, depth);
        self.path.pop();
    }

    /// Explore from `m`. Its last child steps `m` itself, so the caller
    /// may not read `m` afterwards.
    fn explore(&mut self, m: &mut Machine, sleep: IdSet<usize>, depth: usize) {
        if !self.budget_left() {
            return;
        }
        let n = m.process_count();
        let enabled: IdSet<usize> = (0..n)
            .filter(|&p| m.poll(p) == StepOutcome::Executed)
            .collect();

        // Visited-state handling. Terminals are cached too, so each
        // inequivalent terminal is counted and recorded exactly once.
        let mut slot = None;
        let explored_before: IdSet<usize> = if self.reduce {
            canon::state_key_into(m, &mut self.key);
            match self.visited.find_or_insert(&self.key) {
                Ok(i) => {
                    self.report.cache_hits += 1;
                    if enabled.is_empty() {
                        return; // terminal already recorded
                    }
                    slot = Some(i);
                    self.explored[i].clone()
                }
                Err(i) => {
                    self.report.states += 1;
                    slot = Some(i);
                    self.explored.push(IdSet::default());
                    IdSet::default()
                }
            }
        } else {
            self.report.states += 1;
            IdSet::default()
        };

        if enabled.is_empty() {
            self.terminal(m);
            return;
        }
        if depth >= self.cfg.max_depth {
            self.report.completeness = Completeness::BudgetExceeded(BudgetReason::MaxDepth);
            self.report.frontier_remaining += enabled.len();
            return;
        }

        // Each process's footprint here, computed at most once: by the
        // singleton prover or for the sleep sets, whichever asks first.
        let mut footprints = self.spare_footprints.pop().unwrap_or_default();
        footprints.resize(n, None);
        let allowed = if self.reduce {
            // Persistent singleton: a provably invisible step needs no
            // branching — and by persistence, no sibling either.
            let pick = invisible_singleton(m, &enabled, &mut footprints, &mut self.reaches);
            let candidates = match pick {
                Some(p) => {
                    self.report.singleton_states += 1;
                    IdSet::from_iter([p])
                }
                None => enabled,
            };
            // Sleep-set filter: steps whose `candidate`-first interleavings
            // a sibling branch already covers.
            let kept: IdSet<usize> = candidates.iter().filter(|&p| !sleep.contains(p)).collect();
            self.report.sleep_pruned += candidates.len() - kept.len();
            for p in kept.iter().chain(sleep.iter()) {
                footprints[p].get_or_insert_with(|| indep::footprint(m, p));
            }
            kept
        } else {
            enabled
        };

        let todo: IdSet<usize> = allowed
            .iter()
            .filter(|&p| !explored_before.contains(p))
            .collect();
        let todo_len = todo.len();
        let mut taken: IdSet<usize> = IdSet::default();
        for (i, p) in todo.iter().enumerate() {
            if let Some(s) = slot {
                // Mark pre-order so cycles (rollback livelocks) cut off.
                self.explored[s].insert(p);
            }
            if self.stopped {
                self.report.frontier_remaining += todo_len - i;
                break;
            }
            let child_sleep: IdSet<usize> = if self.reduce {
                let fp = |q: usize| footprints[q].as_ref().expect("computed above");
                sleep
                    .iter()
                    .chain(taken.iter())
                    .filter(|&u| fp(u).independent(fp(p)))
                    .collect()
            } else {
                IdSet::default()
            };
            if i + 1 == todo_len {
                // The last child steps the parent itself, which nothing
                // reads afterwards: the footprints are owned and the key
                // is stored.
                self.descend(m, p, child_sleep, depth + 1);
            } else {
                // Every other child starts in a finished branch's machine,
                // whose buffers `clone_from` reuses, and is one itself
                // when its subtree is done.
                let mut child = match self.spare_machines.pop() {
                    Some(mut spare) => {
                        spare.clone_from(m);
                        spare
                    }
                    None => m.clone(),
                };
                self.descend(&mut child, p, child_sleep, depth + 1);
                self.spare_machines.push(child);
            }
            if self.reduce {
                taken.insert(p);
            }
        }
        footprints.clear();
        self.spare_footprints.push(footprints);
    }
}

/// Explore the schedule space of `program` under `cfg`.
///
/// Snapshot-based exploration (`Machine` is a pure value): the last child
/// of a branch point steps the parent itself, and every other child is a
/// copy of it, written by `clone_from` into the machine of a branch whose
/// subtree is done and cloned only when no such machine is left. The returned
/// [`McReport`] carries the verdict, the exploration counters the E17
/// experiment records, a pristine witness schedule if one exists, and the
/// set of committed outcomes across all completed terminals.
pub fn check(program: &Program, cfg: &McConfig) -> McReport {
    let mut explorer = Explorer::new(cfg);
    explorer.explore(&mut Machine::new(program.clone()), IdSet::default(), 0);
    explorer.report
}

/// Re-execute a witness schedule step by step, reporting every executed
/// action to `observer` (e.g. `hope_analysis::dynamic::RaceDetector`),
/// and return the finished machine for inspection.
///
/// Steps that poll as blocked or done are skipped rather than executed,
/// so any recorded schedule replays safely.
pub fn replay(
    program: &Program,
    schedule: &[usize],
    observer: &mut dyn RuntimeObserver,
) -> Machine {
    let mut m = Machine::new(program.clone());
    for &p in schedule {
        if p < m.process_count() && m.poll(p) == StepOutcome::Executed {
            m.step_observed(p, observer)
                .expect("machine-built programs cannot err");
        }
    }
    m
}

#[cfg(test)]
mod tests {
    use super::*;
    use hope_core::observer::NullObserver;

    fn parse(src: &str) -> Program {
        src.parse().unwrap()
    }

    #[test]
    fn the_visited_table_finds_keys_by_their_bytes() {
        // Keys of every length from 0 to 40, prefixes of one another and
        // differing in one byte, stored from a table of one chain that
        // doubles as keys arrive. Each is stored once, at the next index,
        // and found again, also in a chain it shares with other keys.
        let mut visited = Visited::with_capacity(1, 0);
        let mut keys: Vec<Vec<u8>> = Vec::new();
        for len in 0..=40u8 {
            keys.push((0..len).collect());
            keys.push((0..len).map(|b| b ^ 0x80).collect());
            keys.push((0..len).rev().collect());
        }
        keys.sort();
        keys.dedup();
        for (i, key) in keys.iter().enumerate() {
            assert_eq!(visited.find_or_insert(key), Err(i), "{key:?}");
            assert_eq!(visited.find_or_insert(key), Ok(i), "{key:?}");
        }
        for (i, key) in keys.iter().enumerate().rev() {
            assert_eq!(visited.find_or_insert(key), Ok(i), "{key:?}");
            assert_eq!(visited.key(i), &key[..]);
        }
        assert!(visited.heads.len() >= keys.len() && visited.heads.len().is_power_of_two());
        let mut chains: Vec<usize> = keys.iter().map(|k| visited.chain(k)).collect();
        chains.sort_unstable();
        chains.dedup();
        assert!(chains.len() < keys.len(), "no two keys share a chain");
    }

    #[test]
    fn single_process_has_one_schedule() {
        let p = parse("process P0:\n guess(x0)\n free_of(x1)\n compute\n");
        let r = check(&p, &McConfig::default());
        assert!(r.completeness.is_exhausted());
        assert_eq!(r.completed_terminals, 1);
        assert_eq!(r.deadlock_terminals, 0);
    }

    #[test]
    fn affirm_race_yields_witness_and_exhausts() {
        let p = parse("process P0:\n guess(x0)\n compute\nprocess P1:\n affirm(x0)\n");
        let r = check(&p, &McConfig::default());
        assert!(r.completeness.is_exhausted());
        assert!(r.pristine_witness.is_some(), "{r:?}");
    }

    #[test]
    fn doomed_self_deny_has_no_pristine_schedule() {
        // guess(x0); deny(x0) self-deny always rolls back: no schedule
        // finalizes pristinely, and the checker proves it.
        let p = parse("process P0:\n guess(x0)\n deny(x0)\n");
        let r = check(&p, &McConfig::default());
        assert!(r.proves_no_pristine_schedule(), "{r:?}");
        assert!(r.completed_terminals > 0);
    }

    fn naive(p: &Program) -> McReport {
        check(
            p,
            &McConfig {
                mode: Mode::Naive,
                ..McConfig::default()
            },
        )
    }

    #[test]
    fn reduced_and_naive_agree_on_generated_programs() {
        // (seeds, processes, statements per process, AIDs). The reduced
        // search must reach exactly the oracle's committed outcomes, agree
        // on whether a pristine schedule and a deadlock exist, and never
        // take more steps. Only programs the oracle cannot finish are
        // skipped.
        let corpora = [
            (0..60u64, 2, 3, 2),
            (0..30, 2, 4, 2),
            (100..140, 3, 3, 2),
            (0..320, 3, 3, 3),
        ];
        for (seeds, procs, len, aids) in corpora {
            let mut compared = 0;
            for seed in seeds.clone() {
                let p = Program::generate(seed, procs, len, aids);
                let base = naive(&p);
                if !base.completeness.is_exhausted() {
                    continue;
                }
                compared += 1;
                let reduced = check(&p, &McConfig::default());
                assert!(reduced.completeness.is_exhausted(), "seed {seed}\n{p}");
                assert_eq!(
                    reduced.outputs, base.outputs,
                    "seed {seed}: committed outcomes disagree\n{p}"
                );
                assert_eq!(
                    reduced.pristine_witness.is_some(),
                    base.pristine_witness.is_some(),
                    "seed {seed}: pristine disagreement\n{p}"
                );
                assert_eq!(
                    reduced.deadlock_terminals > 0,
                    base.deadlock_terminals > 0,
                    "seed {seed}: deadlock disagreement\n{p}"
                );
                assert!(reduced.transitions <= base.transitions, "seed {seed}");
            }
            assert!(
                compared * 10 >= seeds.count() * 9,
                "{procs}x{len}x{aids}: the oracle finished only {compared} programs"
            );
        }
    }

    #[test]
    fn default_mode_finds_all_eight_outcomes_of_the_pr11_program() {
        // The generated 3x3 program on which the removed DPOR modes (then
        // the default) reported 6 of the 8 committed outcomes.
        let seed = 23u64.wrapping_mul(0x9E37_79B9_7F4A_7C15).wrapping_add(620);
        let p = Program::generate(seed, 3, 3, 3);
        let oracle = naive(&p);
        let reduced = check(&p, &McConfig::default());
        assert!(oracle.completeness.is_exhausted());
        assert!(reduced.completeness.is_exhausted());
        assert_eq!(oracle.distinct_outputs(), 8, "{p}");
        assert_eq!(reduced.outputs, oracle.outputs, "{p}");
    }

    #[test]
    fn invisible_sends_do_not_forge_happens_before_edges() {
        // Both processes race on affirm(x1), and the only path from P0's
        // affirm to P1's runs affirm → send(P1) → recv, where the send is a
        // proven-invisible singleton (single-sender append onto a
        // non-empty queue; the recv pops the *earlier* message). A
        // reduction that reads that send as ordering the two affirms drops
        // the schedule where P1 decides x1 first.
        let p = parse(
            "process P0:\n recv\n send(P1)\n affirm(x1)\n send(P1)\n\
             process P1:\n send(P0)\n recv\n affirm(x1)\n send(P0)\n",
        );
        let oracle = naive(&p);
        let reduced = check(&p, &McConfig::default());
        assert!(oracle.completeness.is_exhausted());
        assert!(reduced.completeness.is_exhausted());
        assert_eq!(oracle.distinct_outputs(), 2, "{oracle:?}");
        assert_eq!(reduced.outputs, oracle.outputs, "{p}");
        assert!(reduced.states < oracle.states, "the reduction must reduce");
    }

    #[test]
    fn budget_reports_explored_fraction() {
        let p = Program::generate(7, 3, 10, 3);
        let r = check(
            &p,
            &McConfig {
                max_states: 10,
                ..McConfig::default()
            },
        );
        assert!(!r.completeness.is_exhausted());
        let f = r.explored_fraction();
        assert!(f > 0.0 && f < 1.0, "fraction {f} not in (0, 1)");
        assert!(r.frontier_remaining > 0);
        let done = check(&p, &McConfig::default());
        if done.completeness.is_exhausted() {
            assert_eq!(done.explored_fraction(), 1.0);
            assert_eq!(done.frontier_remaining, 0);
        }
    }

    #[test]
    fn budget_exceeded_is_reported() {
        let p = Program::generate(7, 3, 10, 3);
        let r = check(
            &p,
            &McConfig {
                max_states: 10,
                ..McConfig::default()
            },
        );
        assert_eq!(
            r.completeness,
            Completeness::BudgetExceeded(BudgetReason::MaxStates)
        );
        assert!(!r.proves_no_pristine_schedule());
    }

    #[test]
    fn depth_budget_is_reported() {
        let p = parse("process P0:\n compute\n compute\n compute\n compute\n");
        let r = check(
            &p,
            &McConfig {
                max_depth: 2,
                ..McConfig::default()
            },
        );
        assert_eq!(
            r.completeness,
            Completeness::BudgetExceeded(BudgetReason::MaxDepth)
        );
    }

    #[test]
    fn witness_replays_to_pristine_state() {
        let p = parse("process P0:\n guess(x0)\n send(P1)\nprocess P1:\n recv\n affirm(x0)\n");
        let r = check(&p, &McConfig::default());
        let w = r
            .pristine_witness
            .clone()
            .expect("pristine schedule exists");
        let m = replay(&p, &w, &mut NullObserver);
        assert!(super::is_pristine(&m));
        assert!(r.contains_output(&commit_fingerprint(&m)));
    }

    #[test]
    fn empty_program_is_trivially_pristine() {
        let r = check(&Program::new(vec![]), &McConfig::default());
        assert!(r.completeness.is_exhausted());
        assert_eq!(r.completed_terminals, 1);
        assert_eq!(r.pristine_witness, Some(vec![]));
    }

    #[test]
    fn deterministic_across_runs() {
        let p = Program::generate(42, 2, 4, 2);
        let a = check(&p, &McConfig::default());
        let b = check(&p, &McConfig::default());
        assert_eq!(a.states, b.states);
        assert_eq!(a.transitions, b.transitions);
        assert_eq!(a.outputs, b.outputs);
        assert_eq!(a.pristine_witness, b.pristine_witness);
    }
}
