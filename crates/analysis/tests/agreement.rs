//! Static-vs-dynamic agreement: every error-severity verdict must agree
//! with actual machine execution.
//!
//! The contract (the crate's zero-false-positive guarantee): if the
//! analyzer emits **any error diagnostic**, then **no schedule** lets the
//! program run to *full finalization* — completion with every process
//! definite and no rollback event, ghost message, or skipped primitive.
//! Contrapositively, any program observed to finalize fully on some
//! schedule must be free of error diagnostics.
//!
//! Checked two ways: **schedule-completely** over every small program in
//! two fixed shapes (all 7⁴ two-process programs of length 2 over one AID,
//! and all 7³ one-process programs of length 3) using the [`hope_mc`]
//! exhaustive scheduler — so an error diagnostic is checked against *every*
//! inequivalent schedule, not a sample — and over seeded random large
//! programs from [`Program::generate`], which exceed the model-checking
//! budget and fall back to a round-robin schedule plus several seeded
//! random schedules (the fallback can establish "pristine on some
//! schedule" but never prove "no schedule"; each suite logs which path
//! ran for how many programs).

use hope_analysis::{cost, covered_by, Analyzer, RaceDetector, RaceKind};
use hope_core::machine::Machine;
use hope_core::program::{Program, Stmt};
use hope_core::{Action, NullObserver};
use hope_mc::{check, McConfig};

const SCHEDULE_SEEDS: u64 = 12;

/// Run `program` under one schedule and decide whether the run reached
/// full finalization ([`hope_mc::is_pristine`]).
fn pristine_under(program: &Program, seed: Option<u64>, fuel: u64) -> bool {
    let mut m = Machine::new(program.clone());
    let report = m.run_with(fuel, seed, &mut NullObserver);
    report.completed && hope_mc::is_pristine(&m)
}

/// What schedule exploration established about a program.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum PristineVerdict {
    /// Some schedule runs to full finalization (witnessed).
    Pristine,
    /// **No** schedule finalizes — proven over the full reduced
    /// interleaving space by an `Exhausted` model-checking run.
    NoSchedule,
    /// The model-checking budget ran out and no sampled schedule
    /// finalized: absence of evidence, not a proof. The pre-`hope-mc`
    /// suite conflated this with [`PristineVerdict::NoSchedule`].
    Unknown,
}

/// Tallies of which exploration path decided each program, so the suites
/// can log (and, on the exhaustive corpora, assert) coverage. For
/// over-budget programs the checker's [`explored_fraction`] is
/// accumulated, so the fallback log says how much of the reduced space
/// the aborted exhaustive runs did cover — "sampled" with a number
/// attached, never a bare shrug.
///
/// [`explored_fraction`]: hope_mc::McReport::explored_fraction
#[derive(Debug, Default)]
struct PathStats {
    model_checked: usize,
    fell_back: usize,
    /// Sum of explored fractions over the `fell_back` programs.
    fallback_fraction_sum: f64,
    /// Smallest explored fraction seen among fallbacks.
    fallback_fraction_min: Option<f64>,
}

impl PathStats {
    fn log(&self, context: &str) {
        if self.fell_back == 0 {
            eprintln!(
                "{context}: {} programs schedule-complete via hope-mc, 0 over budget",
                self.model_checked
            );
            return;
        }
        eprintln!(
            "{context}: {} programs schedule-complete via hope-mc, \
             {} over budget (seeded-schedule fallback; exhaustive runs \
             covered {:.1}% of the reduced space on average, min {:.1}%)",
            self.model_checked,
            self.fell_back,
            100.0 * self.fallback_fraction_sum / self.fell_back as f64,
            100.0 * self.fallback_fraction_min.unwrap_or(0.0),
        );
    }
}

/// Decide [`PristineVerdict`] for `program`: exhaustive model checking
/// first; seeded-schedule sampling only when the budget runs out.
fn pristine_verdict(
    program: &Program,
    cfg: &McConfig,
    fuel: u64,
    stats: &mut PathStats,
) -> PristineVerdict {
    let report = check(program, cfg);
    if report.completeness.is_exhausted() {
        stats.model_checked += 1;
        return if report.pristine_witness.is_some() {
            PristineVerdict::Pristine
        } else {
            debug_assert!(report.proves_no_pristine_schedule());
            PristineVerdict::NoSchedule
        };
    }
    stats.fell_back += 1;
    let fraction = report.explored_fraction();
    stats.fallback_fraction_sum += fraction;
    stats.fallback_fraction_min = Some(match stats.fallback_fraction_min {
        Some(m) => m.min(fraction),
        None => fraction,
    });
    let sampled = pristine_under(program, None, fuel)
        || (0..SCHEDULE_SEEDS).any(|s| pristine_under(program, Some(s), fuel));
    if sampled {
        PristineVerdict::Pristine
    } else {
        PristineVerdict::Unknown
    }
}

/// The statement alphabet for the exhaustive sweeps: every statement form,
/// one AID, `send` targeting `peer`.
fn alphabet(peer: usize) -> [Stmt; 7] {
    [
        Stmt::Guess(0),
        Stmt::Affirm(0),
        Stmt::Deny(0),
        Stmt::FreeOf(0),
        Stmt::Compute,
        Stmt::Send { to: peer },
        Stmt::Recv,
    ]
}

fn check_agreement(
    program: &Program,
    cfg: &McConfig,
    fuel: u64,
    context: &str,
    stats: &mut PathStats,
) -> (bool, bool) {
    let errors = Analyzer::new().errors(program);
    let verdict = pristine_verdict(program, cfg, fuel, stats);
    assert!(
        errors.is_empty() || verdict != PristineVerdict::Pristine,
        "{context}: static verdict disagrees with execution\n\
         program:\n{program}\nerrors: {errors:?}\n\
         but some schedule ran to full finalization"
    );
    (!errors.is_empty(), verdict == PristineVerdict::Pristine)
}

#[test]
fn exhaustive_two_process_agreement() {
    let mut flagged = 0usize;
    let mut pristine_count = 0usize;
    let mut total = 0usize;
    let mut stats = PathStats::default();
    let cfg = McConfig::default();
    for a in alphabet(1) {
        for b in alphabet(1) {
            for c in alphabet(0) {
                for d in alphabet(0) {
                    let program = Program {
                        code: vec![vec![a, b], vec![c, d]],
                        aid_count: 1,
                    };
                    let (err, pristine) =
                        check_agreement(&program, &cfg, 500, "two-process exhaustive", &mut stats);
                    flagged += usize::from(err);
                    pristine_count += usize::from(pristine);
                    total += 1;
                }
            }
        }
    }
    stats.log("two-process exhaustive (7^4)");
    assert_eq!(total, 7usize.pow(4));
    // Every program in the envelope is small enough to model-check: the
    // agreement above is schedule-complete, not sampled.
    assert_eq!(stats.fell_back, 0, "7^4 envelope must stay in budget");
    // The sweep must exercise both sides of the contract heavily, or the
    // agreement claim would be vacuous.
    assert!(flagged > total / 10, "only {flagged}/{total} flagged");
    assert!(
        pristine_count > total / 10,
        "only {pristine_count}/{total} pristine"
    );
}

#[test]
fn exhaustive_single_process_agreement() {
    // Single process; `send` can only target the process itself, which is
    // the self-send warning's territory — still legal to execute.
    let mut flagged = 0usize;
    let mut pristine_count = 0usize;
    let mut stats = PathStats::default();
    let cfg = McConfig::default();
    for a in alphabet(0) {
        for b in alphabet(0) {
            for c in alphabet(0) {
                let program = Program {
                    code: vec![vec![a, b, c]],
                    aid_count: 1,
                };
                let (err, pristine) =
                    check_agreement(&program, &cfg, 500, "single-process exhaustive", &mut stats);
                flagged += usize::from(err);
                pristine_count += usize::from(pristine);
            }
        }
    }
    stats.log("single-process exhaustive (7^3)");
    assert_eq!(stats.fell_back, 0, "7^3 envelope must stay in budget");
    assert!(flagged > 0 && pristine_count > 0);
}

#[test]
fn error_lints_are_proven_over_the_full_schedule_space() {
    // The sharpest form of the zero-false-positive contract: for every
    // error-flagged program in the 7⁴ envelope, the model checker must
    // *prove* — an `Exhausted` run of the full reduced interleaving
    // space with no pristine terminal — that no schedule finalizes.
    let cfg = McConfig::default();
    let mut proven = 0usize;
    for a in alphabet(1) {
        for b in alphabet(1) {
            for c in alphabet(0) {
                for d in alphabet(0) {
                    let program = Program {
                        code: vec![vec![a, b], vec![c, d]],
                        aid_count: 1,
                    };
                    if Analyzer::new().errors(&program).is_empty() {
                        continue;
                    }
                    let report = check(&program, &cfg);
                    assert!(
                        report.proves_no_pristine_schedule(),
                        "error lint not proven over the full space:\n{program}\n\
                         completeness: {:?}, witness: {:?}",
                        report.completeness,
                        report.pristine_witness
                    );
                    proven += 1;
                }
            }
        }
    }
    eprintln!("error-lint claims proven schedule-completely: {proven}");
    assert!(proven > 200, "only {proven} error programs in the envelope");
}

#[test]
fn generated_large_program_agreement() {
    let mut flagged = 0usize;
    let mut stats = PathStats::default();
    // Generated programs mostly exceed an exhaustive search; cap the
    // budget so the suite stays fast and the fallback path is exercised.
    let cfg = McConfig {
        max_states: 1_000,
        ..McConfig::default()
    };
    for seed in 0..40u64 {
        let program = Program::generate(seed, 4, 25, 4);
        let (err, _) = check_agreement(&program, &cfg, 50_000, "generated 4x25", &mut stats);
        flagged += usize::from(err);
    }
    // Random programs re-decide AIDs constantly; most must be flagged.
    assert!(flagged > 20, "only {flagged}/40 generated programs flagged");

    for seed in 100..110u64 {
        let program = Program::generate(seed, 6, 40, 6);
        check_agreement(&program, &cfg, 100_000, "generated 6x40", &mut stats);
    }
    stats.log("generated programs");
}

#[test]
fn budget_exhaustion_is_not_a_no_schedule_proof() {
    // Regression: the pre-`hope-mc` suite returned a single bool from
    // schedule sampling, conflating "the budget/fuel ran out" with "no
    // schedule finalizes". The two must stay distinguishable.
    let pristine_but_long = Program {
        code: vec![{
            let mut v = vec![Stmt::Guess(0), Stmt::Affirm(0)];
            v.extend(std::iter::repeat_n(Stmt::Compute, 40));
            v
        }],
        aid_count: 1,
    };
    let doomed: Program = "process P0:\n guess(x0)\n deny(x0)\n".parse().unwrap();

    // Starved of both model-checking budget and execution fuel, the
    // pristine program must come back Unknown — not NoSchedule.
    let starved = McConfig {
        max_states: 1,
        ..McConfig::default()
    };
    let mut stats = PathStats::default();
    assert_eq!(
        pristine_verdict(&pristine_but_long, &starved, 5, &mut stats),
        PristineVerdict::Unknown
    );
    assert_eq!(stats.fell_back, 1);

    // With a real budget the same program is witnessed pristine...
    assert_eq!(
        pristine_verdict(&pristine_but_long, &McConfig::default(), 500, &mut stats),
        PristineVerdict::Pristine
    );
    // ...while the doomed program earns an actual proof, which starving
    // the checker must *lose* (Unknown), never fabricate.
    assert_eq!(
        pristine_verdict(&doomed, &McConfig::default(), 500, &mut stats),
        PristineVerdict::NoSchedule
    );
    assert_eq!(
        pristine_verdict(&doomed, &starved, 5, &mut stats),
        PristineVerdict::Unknown
    );
}

/// Run `program` under the round-robin schedule plus every seeded schedule
/// with a [`RaceDetector`] attached, and assert each dynamic race report is
/// predicted by a static diagnostic ([`covered_by`]). Returns per-kind race
/// counts `[decided-aid-reuse, send-after-deny, guess-after-decide]`.
fn check_race_coverage(program: &Program, fuel: u64, context: &str) -> [usize; 3] {
    let diagnostics = Analyzer::new().analyze(program);
    let mut counts = [0usize; 3];
    for seed in std::iter::once(None).chain((0..SCHEDULE_SEEDS).map(Some)) {
        let mut detector = RaceDetector::new();
        let mut m = Machine::new(program.clone());
        m.run_with(fuel, seed, &mut detector);
        for race in detector.races() {
            counts[match race.kind {
                RaceKind::DecidedAidReuse => 0,
                RaceKind::SendAfterDeny => 1,
                RaceKind::GuessAfterDecide => 2,
            }] += 1;
            assert!(
                covered_by(race, &diagnostics),
                "{context}: dynamic race not predicted statically\n\
                 program:\n{program}\nschedule seed: {seed:?}\n\
                 race: {race:?}\ndiagnostics: {diagnostics:?}"
            );
        }
    }
    counts
}

#[test]
fn exhaustive_dynamic_races_are_statically_covered() {
    // The dynamic half of the agreement contract: on the same exhaustive
    // spaces the blanket test sweeps, every race the runtime detector
    // reports — under every schedule — must be covered by a static
    // warning on the same AID. (The static side may over-approximate; the
    // dynamic side must never surprise it.)
    let mut totals = [0usize; 3];
    for a in alphabet(1) {
        for b in alphabet(1) {
            for c in alphabet(0) {
                for d in alphabet(0) {
                    let program = Program {
                        code: vec![vec![a, b], vec![c, d]],
                        aid_count: 1,
                    };
                    let counts = check_race_coverage(&program, 500, "two-process races");
                    for (t, c) in totals.iter_mut().zip(counts) {
                        *t += c;
                    }
                }
            }
        }
    }
    for a in alphabet(0) {
        for b in alphabet(0) {
            for c in alphabet(0) {
                let program = Program {
                    code: vec![vec![a, b, c]],
                    aid_count: 1,
                };
                let counts = check_race_coverage(&program, 500, "single-process races");
                for (t, c) in totals.iter_mut().zip(counts) {
                    *t += c;
                }
            }
        }
    }
    // Non-vacuity: the corpus must actually trigger every race shape, or
    // the coverage claim proves nothing.
    assert!(
        totals.iter().all(|&t| t > 0),
        "race shapes unexercised: [reuse, ghost, guess-race] = {totals:?}"
    );
}

/// A cascade chain with `relays` relay processes: the origin guesses and
/// forwards its tagged dependence hop by hop; the far end denies.
fn cascade_chain(relays: usize) -> Program {
    let mut code = vec![vec![Stmt::Guess(0), Stmt::Send { to: 1 }]];
    for r in 0..relays {
        code.push(vec![Stmt::Recv, Stmt::Compute, Stmt::Send { to: r + 2 }]);
    }
    code.push(vec![Stmt::Recv, Stmt::Compute, Stmt::Deny(0)]);
    Program::new(code)
}

#[test]
fn cost_rank_correlates_with_measured_rollback_work() {
    // The cost model's damage score is a static prediction of how much
    // work a deny destroys. Check it against the machine: on cascade
    // chains of growing length, predicted damage and measured rollback
    // work (intervals discarded when the far-end deny lands) must rank
    // the programs identically — and both must grow strictly.
    let mut predicted = Vec::new();
    let mut measured = Vec::new();
    for relays in [0usize, 1, 2, 4] {
        let program = cascade_chain(relays);
        let costs = cost::rank(&program);
        assert_eq!(costs.len(), 1, "one speculation per chain");
        predicted.push(costs[0].damage);

        // Round-robin lets the whole chain go speculative before the
        // deny lands, so the measured rollback reflects the full cascade.
        let mut m = Machine::new(program.clone());
        let report = m.run(10_000);
        assert!(report.completed, "chain with {relays} relays must finish");
        let stats = m.engine().stats();
        assert!(stats.rollback_events > 0, "the deny must trigger rollback");
        measured.push(stats.rolled_back_intervals + stats.ghosts);
    }
    assert!(
        predicted.windows(2).all(|w| w[0] < w[1]),
        "predicted damage must grow with chain length: {predicted:?}"
    );
    assert!(
        measured.windows(2).all(|w| w[0] < w[1]),
        "measured rollback work must grow with chain length: {measured:?}"
    );
    // Same ranking both ways: the most-damaging prediction is the
    // most-damaging measurement.
    let rank_of = |xs: &[u64]| {
        let mut idx: Vec<usize> = (0..xs.len()).collect();
        idx.sort_by_key(|&i| std::cmp::Reverse(xs[i]));
        idx
    };
    assert_eq!(rank_of(&predicted), rank_of(&measured));
}

#[test]
fn per_lint_dynamic_claims_hold_on_the_exhaustive_corpus() {
    // Sharper per-lint claims than the blanket agreement, over the
    // two-process corpus:
    // * leaked-speculation: every *completed* run leaves some process
    //   speculative or rolled back;
    // * consumed-reassertion / doomed-free-of: every completed run has a
    //   skip or a rollback;
    // * unreachable-recv: no run completes.
    use hope_analysis::Lint;
    for a in alphabet(1) {
        for b in alphabet(1) {
            for c in alphabet(0) {
                for d in alphabet(0) {
                    let program = Program {
                        code: vec![vec![a, b], vec![c, d]],
                        aid_count: 1,
                    };
                    let lints: Vec<Lint> = Analyzer::new()
                        .errors(&program)
                        .iter()
                        .map(|d| d.lint)
                        .collect();
                    if lints.is_empty() {
                        continue;
                    }
                    for seed in 0..4u64 {
                        let mut m = Machine::new(program.clone());
                        let report = m.run_with(500, Some(seed), &mut NullObserver);
                        if lints.contains(&Lint::UnreachableRecv) {
                            assert!(
                                !report.completed,
                                "unreachable-recv but completed:\n{program}"
                            );
                        }
                        if !report.completed {
                            continue;
                        }
                        let stats = m.engine().stats();
                        let rolled = stats.rollback_events > 0;
                        let skipped = (0..program.process_count()).any(|p| {
                            m.history(p)
                                .states()
                                .iter()
                                .any(|s| matches!(s.event, Action::SkippedDecide { .. }))
                        });
                        let speculative = (0..program.process_count())
                            .any(|p| m.engine().is_speculative(m.pid(p)).expect("pid"));
                        if lints.contains(&Lint::LeakedSpeculation) {
                            assert!(
                                speculative || rolled,
                                "leaked-speculation but all definite, no rollback:\n{program}"
                            );
                        }
                        if lints.contains(&Lint::ConsumedReassertion)
                            || lints.contains(&Lint::DoomedFreeOf)
                        {
                            assert!(
                                skipped || rolled,
                                "one-shot violation but no skip/rollback:\n{program}"
                            );
                        }
                    }
                }
            }
        }
    }
}
