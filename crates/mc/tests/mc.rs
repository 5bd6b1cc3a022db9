//! Random schedules are a subset of the exhaustive schedule space.
//!
//! For random in-budget programs, anything 64 seeded random schedules can
//! observe must already be in the model checker's report:
//!
//! * every committed outcome a completed seeded run produces is one of the
//!   checker's recorded terminal outputs (random ⊆ exhaustive on
//!   outcomes);
//! * if any seeded run finalizes pristinely, the checker holds a pristine
//!   witness (random ⊆ exhaustive on verdicts) — and replaying that
//!   witness reproduces a pristine run.
//!
//! A failure here means the reduction pruned a *reachable inequivalent*
//! behaviour: a soundness bug in the independence relation, the canonical
//! state key, or the sleep-set/cache interaction.

use hope_core::machine::Machine;
use hope_core::observer::NullObserver;
use hope_core::program::{Program, Stmt};
use hope_mc::{
    check, commit_fingerprint, is_pristine, BudgetReason, Completeness, McConfig, McReport, Mode,
};
use hope_sim::SimRng;

const SEEDED_SCHEDULES: u64 = 64;
const FUEL: u64 = 10_000;

fn random_is_subset_of_exhaustive(program: &Program) {
    let report = check(program, &McConfig::default());
    assert!(
        report.completeness.is_exhausted(),
        "corpus program exceeded the model-checking budget:\n{program}"
    );
    let mut seeded_pristine = None;
    for seed in 0..SEEDED_SCHEDULES {
        let mut m = Machine::new(program.clone());
        let run = m.run_with(FUEL, Some(seed), &mut NullObserver);
        if !run.completed {
            // An unfinished run is not a terminal state; nothing to compare.
            continue;
        }
        let fp = commit_fingerprint(&m);
        assert!(
            report.contains_output(&fp),
            "seed {seed} committed an outcome the checker never saw:\n{program}"
        );
        if is_pristine(&m) {
            seeded_pristine = Some(seed);
        }
    }
    if let Some(seed) = seeded_pristine {
        assert!(
            report.pristine_witness.is_some(),
            "seed {seed} finalized pristinely but the checker found no witness:\n{program}"
        );
        let schedule = report.pristine_witness.clone().expect("checked above");
        let replayed = hope_mc::replay(program, &schedule, &mut NullObserver);
        assert!(
            is_pristine(&replayed),
            "pristine witness does not replay pristinely:\n{program}"
        );
    }
}

#[test]
fn seeded_random_schedules_are_covered_by_the_model_checker() {
    // FNV-1a of "mc::seeded_random_schedules_are_covered_by_the_model_checker".
    let mut rng = SimRng::new(0x3fbc_c51c_ed8f_7176);
    for case in 0..120 {
        let seed = rng.range_u64(0, 1_000_000);
        let procs = rng.range_u64(1, 4) as usize;
        let (len, aids) = (rng.range_u64(1, 5) as usize, rng.range_u64(1, 3) as usize);
        let program = Program::generate(seed, procs, len, aids);
        let checked = std::panic::catch_unwind(|| random_is_subset_of_exhaustive(&program));
        let call = format!("Program::generate({seed}, {procs}, {len}, {aids})");
        assert!(checked.is_ok(), "case {case} failed on {call}");
    }
}

/// The fixed exhaustive-envelope shapes the agreement suite sweeps are
/// also covered, pinned here against generator drift.
#[test]
fn envelope_shapes_are_covered() {
    for seed in [0, 1, 2, 3, 17, 99] {
        let two = Program::generate(seed, 2, 2, 1);
        random_is_subset_of_exhaustive(&two);
        let one = Program::generate(seed, 1, 3, 1);
        random_is_subset_of_exhaustive(&one);
    }
}

/// Every counter and every recorded schedule of a set of `check` runs,
/// summed and digested, so that a change to *how* the explorer walks the
/// space (what it clones, how it keys and indexes states, when it computes
/// footprints) can be held to exactly the same walk.
#[derive(Debug, Default, PartialEq, Eq)]
struct Tally {
    states: usize,
    transitions: usize,
    cache_hits: usize,
    sleep_pruned: usize,
    singleton_states: usize,
    completed_terminals: usize,
    deadlock_terminals: usize,
    frontier_remaining: usize,
    /// FNV-1a over every report's `outputs()`, `pristine_witness` and
    /// witness schedules, in run order.
    digest: u64,
}

impl Tally {
    fn word(&mut self, v: u64) {
        for b in v.to_le_bytes() {
            self.digest = (self.digest ^ u64::from(b)).wrapping_mul(0x0100_0000_01b3);
        }
    }

    fn schedule(&mut self, s: &[usize]) {
        self.word(s.len() as u64);
        for &p in s {
            self.word(p as u64);
        }
    }

    fn add(&mut self, r: &McReport) {
        self.states += r.states;
        self.transitions += r.transitions;
        self.cache_hits += r.cache_hits;
        self.sleep_pruned += r.sleep_pruned;
        self.singleton_states += r.singleton_states;
        self.completed_terminals += r.completed_terminals;
        self.deadlock_terminals += r.deadlock_terminals;
        self.frontier_remaining += r.frontier_remaining;
        self.word(r.outputs().len() as u64);
        for out in r.outputs() {
            self.word(out.len() as u64);
            for &b in out {
                self.word(u64::from(b));
            }
        }
        match &r.pristine_witness {
            None => self.word(0),
            Some(s) => {
                self.word(1);
                self.schedule(s);
            }
        }
        self.word(r.witnesses.len() as u64);
        for w in &r.witnesses {
            self.schedule(&w.schedule);
            self.word(u64::from(w.completed) << 1 | u64::from(w.pristine));
        }
    }

    fn of<'a>(runs: impl IntoIterator<Item = (Program, &'a McConfig)>) -> Tally {
        let mut t = Tally {
            digest: 0xcbf2_9ce4_8422_2325,
            ..Tally::default()
        };
        for (program, cfg) in runs {
            t.add(&check(&program, cfg));
        }
        t
    }
}

/// The explorer's walk is pinned exactly: states, transitions, cache hits,
/// sleep-pruned steps, singletons, terminals, the budget frontier and a
/// digest of every outcome and schedule. The expected values were recorded
/// from the explorer as it stood before it took the machine by value and
/// stepped the parent into its last child, indexed explored sets, keyed
/// states with varints and computed each footprint once per state — none
/// of which may change which states are reached or in what order.
#[test]
fn the_explorer_walk_is_pinned() {
    // The E22 `mc_exhaust` corpus stream at seed 22, first 200 programs.
    let reduced = McConfig::default();
    let corpus = (0..200u64).map(|i| {
        let seed = 22u64.wrapping_mul(0x9E37_79B9_7F4A_7C15).wrapping_add(i);
        (Program::generate(seed, 3, 3, 3), &reduced)
    });
    assert_eq!(
        Tally::of(corpus),
        Tally {
            states: 6_207,
            transitions: 6_483,
            cache_hits: 476,
            sleep_pruned: 1_346,
            singleton_states: 2_782,
            completed_terminals: 372,
            deadlock_terminals: 352,
            frontier_remaining: 0,
            digest: 0xd91e_cd8d_9211_5080,
        },
        "reduced search over 200 3x3x3 programs"
    );

    let naive = McConfig {
        mode: Mode::Naive,
        ..McConfig::default()
    };
    let slice = (0..40u64).map(|seed| (Program::generate(seed, 2, 3, 2), &naive));
    assert_eq!(
        Tally::of(slice),
        Tally {
            states: 5_419,
            transitions: 5_379,
            cache_hits: 0,
            sleep_pruned: 0,
            singleton_states: 0,
            completed_terminals: 1_425,
            deadlock_terminals: 57,
            frontier_remaining: 0,
            digest: 0x6cb5_55cc_19e7_0851,
        },
        "naive search over 40 2x3x2 programs"
    );

    // Budget-ended runs: the frontier left behind is part of the walk.
    let big = Program::generate(7, 3, 10, 3);
    let budgets = [
        McConfig {
            max_states: 10,
            ..McConfig::default()
        },
        McConfig {
            max_states: 1_000,
            ..McConfig::default()
        },
        McConfig {
            max_depth: 9,
            ..McConfig::default()
        },
    ];
    let verdicts: Vec<Completeness> = budgets
        .iter()
        .map(|cfg| check(&big, cfg).completeness)
        .collect();
    assert_eq!(
        verdicts,
        [
            Completeness::BudgetExceeded(BudgetReason::MaxStates),
            Completeness::BudgetExceeded(BudgetReason::MaxStates),
            Completeness::BudgetExceeded(BudgetReason::MaxDepth),
        ]
    );
    assert_eq!(
        Tally::of(budgets.iter().map(|cfg| (big.clone(), cfg))),
        Tally {
            states: 1_202,
            transitions: 1_282,
            cache_hits: 81,
            sleep_pruned: 237,
            singleton_states: 764,
            completed_terminals: 60,
            deadlock_terminals: 0,
            frontier_remaining: 251,
            digest: 0x558f_0c97_d797_e8f9,
        },
        "budget-ended runs of a 3x10x3 program"
    );
}

/// `program` moved onto wider tables: process `p` becomes process
/// `procs[p]` of `width` (the others have no statements) and AID `x`
/// becomes `aids[x]`.
fn spread(program: &Program, procs: &[usize], width: usize, aids: &[usize]) -> Program {
    let mut code = vec![Vec::new(); width];
    for (p, stmts) in program.code.iter().enumerate() {
        code[procs[p]] = stmts
            .iter()
            .map(|&s| match s {
                Stmt::Guess(x) => Stmt::Guess(aids[x]),
                Stmt::Affirm(x) => Stmt::Affirm(aids[x]),
                Stmt::Deny(x) => Stmt::Deny(aids[x]),
                Stmt::FreeOf(x) => Stmt::FreeOf(aids[x]),
                Stmt::Send { to } => Stmt::Send { to: procs[to] },
                s => s,
            })
            .collect();
    }
    Program::new(code)
}

/// Ids past 63 — AIDs x64 and x69 of 70, processes P64 and P69 of 70 —
/// walk the same space as ids below: the reduced search reaches the
/// oracle's outcomes and pristine verdict in no more steps, and its walk
/// is pinned like `the_explorer_walk_is_pinned`'s (recorded before the
/// explorer's sets became bit words).
#[test]
fn ids_past_63_agree_with_the_naive_search() {
    let uses = |p: &Program, x: usize| {
        p.code.iter().flatten().any(|s| {
            matches!(s, Stmt::Guess(y) | Stmt::Affirm(y) | Stmt::Deny(y) | Stmt::FreeOf(y) if *y == x)
        })
    };
    let reduced = McConfig::default();
    let naive = McConfig {
        mode: Mode::Naive,
        max_states: 20_000,
        ..McConfig::default()
    };
    // Only programs the oracle finishes within its budget are compared.
    let finishes = |p: &Program| check(p, &naive).completeness.is_exhausted();
    let wide_aids = (0..200u64)
        .map(|s| {
            spread(
                &Program::generate(s, 3, 3, 4),
                &[0, 1, 2],
                3,
                &[0, 63, 64, 69],
            )
        })
        .filter(|p| [0, 63, 64, 69].iter().all(|&x| uses(p, x)) && finishes(p))
        .take(6);
    let wide_procs = (0..200u64)
        .map(|s| {
            spread(
                &Program::generate(s, 3, 3, 3),
                &[0, 64, 69],
                70,
                &[0, 63, 64],
            )
        })
        .filter(|p| finishes(p))
        .take(6);
    let programs: Vec<Program> = wide_aids.chain(wide_procs).collect();
    assert_eq!(programs.len(), 12);
    for p in &programs {
        let (r, n) = (check(p, &reduced), check(p, &naive));
        assert!(
            r.completeness.is_exhausted() && n.completeness.is_exhausted(),
            "{p}"
        );
        assert_eq!(r.outputs(), n.outputs(), "committed outcomes disagree\n{p}");
        assert_eq!(
            r.pristine_witness.is_some(),
            n.pristine_witness.is_some(),
            "pristine verdicts disagree\n{p}"
        );
        assert!(r.transitions <= n.transitions, "{p}");
    }
    assert_eq!(
        Tally::of(programs.iter().map(|p| (p.clone(), &reduced))),
        Tally {
            states: 603,
            transitions: 681,
            cache_hits: 90,
            sleep_pruned: 187,
            singleton_states: 233,
            completed_terminals: 46,
            deadlock_terminals: 12,
            frontier_remaining: 0,
            digest: 0x7c98_c718_bc48_c758,
        },
        "reduced search over 12 programs with ids past 63"
    );
    assert_eq!(
        Tally::of(programs.iter().map(|p| (p.clone(), &naive))),
        Tally {
            states: 38_972,
            transitions: 38_960,
            cache_hits: 0,
            sleep_pruned: 0,
            singleton_states: 0,
            completed_terminals: 11_760,
            deadlock_terminals: 650,
            frontier_remaining: 0,
            digest: 0xbdf0_0614_b1d3_6214,
        },
        "naive search over 12 programs with ids past 63"
    );
}
