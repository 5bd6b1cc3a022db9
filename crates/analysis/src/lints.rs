//! The lints, interpreting the [`flow`](crate::flow) results.
//!
//! Every **error**-severity lint comes with a dynamic guarantee, verified
//! mechanically by the agreement test-suite against the abstract machine: if
//! it fires, **no schedule** lets the program run to *full finalization* —
//! completion with every process definite and no rollback event, ghost
//! message, or skipped primitive. The arguments lean on the §5 semantics:
//! deciders are one-shot (a second use is skipped), `free_of` of a
//! depended-on AID is a self-deny (Equation 19), and a guessed AID with no
//! decider pins its guesser speculative forever.
//!
//! Warnings (`invalid-target`'s self-send form, `cascade-depth`) carry no
//! such guarantee — they flag legal but suspicious shapes.

use hope_core::program::{Program, Stmt};

use crate::diagnostics::{Diagnostic, Lint};
use crate::flow::{DeciderKind, Flow};

/// The decider sites of `x` that can ever execute *with effect*.
///
/// A decider site preceded by an earlier decider of the same AID in the
/// same process never takes effect: the earlier site always executes first
/// (program order survives rollback, which resets the counter *before* the
/// earlier site), so by the time the later site runs the AID is either
/// consumed (the later site is skipped) or was released by a rollback that
/// also re-runs the earlier site first. Only the first site per process can
/// change the AID's state.
fn effective_deciders(flow: &Flow, x: usize) -> Vec<(usize, usize, DeciderKind)> {
    let mut out: Vec<(usize, usize, DeciderKind)> = Vec::new();
    for &(p, i, kind) in &flow.deciders[x] {
        // `flow.deciders[x]` is in (process, index) order.
        if out.last().is_none_or(|&(q, _, _)| q != p) {
            out.push((p, i, kind));
        }
    }
    out
}

/// `true` when a decider of `x` at `site` may act as a *deny*: an explicit
/// `deny`, or a `free_of` issued while the asserter may depend on `x`
/// (Equation 19).
fn may_deny(flow: &Flow, x: usize, site: (usize, usize, DeciderKind)) -> bool {
    let (p, i, kind) = site;
    match kind {
        DeciderKind::Deny => true,
        DeciderKind::FreeOf => flow.may_ido[p][i].contains(&x),
        DeciderKind::Affirm => false,
    }
}

/// `invalid-target`: statements naming undeclared processes/AIDs (error;
/// the machine would panic) and self-sends (warning).
///
/// The undeclared names are [`Program::out_of_bounds`], the rule the
/// machine and the model checker refuse a program by.
pub fn invalid_target(program: &Program, _flow: &Flow) -> Vec<Diagnostic> {
    let undeclared = program.out_of_bounds().map(|o| {
        let message = match o.stmt {
            Stmt::Send { to } => format!(
                "send targets P{to} but the program has only {} processes",
                o.declared
            ),
            Stmt::Guess(x) | Stmt::Affirm(x) | Stmt::Deny(x) | Stmt::FreeOf(x) => format!(
                "statement names x{x} but the program declares only {} AIDs",
                o.declared
            ),
            Stmt::Compute | Stmt::Recv => unreachable!("`{}` names no process or AID", o.stmt),
        };
        Diagnostic::error(Lint::InvalidTarget, o.proc, o.index, message)
    });
    let self_sends = program.code.iter().enumerate().flat_map(|(p, stmts)| {
        stmts
            .iter()
            .enumerate()
            .filter(move |&(_, s)| *s == Stmt::Send { to: p })
            .map(move |(i, _)| {
                Diagnostic::warning(
                    Lint::InvalidTarget,
                    p,
                    i,
                    format!(
                        "process P{p} sends to itself; the message only re-enters its own mailbox"
                    ),
                )
            })
    });
    undeclared.chain(self_sends).collect()
}

/// `leaked-speculation`: an AID is guessed somewhere but no decider of it
/// exists anywhere (error).
///
/// Dynamic guarantee: the AID stays `Undecided` forever, so every executed
/// `guess` of it opens a speculative interval that nothing can finalize —
/// the guesser is speculative (or rolled back) at completion.
pub fn leaked_speculation(_program: &Program, flow: &Flow) -> Vec<Diagnostic> {
    let mut out = Vec::new();
    for (x, sites) in flow.guess_sites.iter().enumerate() {
        if sites.is_empty() || !flow.deciders[x].is_empty() {
            continue;
        }
        let &(p, i) = sites.first().expect("non-empty checked above");
        let extra = if sites.len() > 1 {
            format!(
                " (and {} more guess site{})",
                sites.len() - 1,
                if sites.len() == 2 { "" } else { "s" }
            )
        } else {
            String::new()
        };
        out.push(
            Diagnostic::error(
                Lint::LeakedSpeculation,
                p,
                i,
                format!(
                    "x{x} is guessed here{extra} but no affirm/deny/free_of of x{x} exists \
                     anywhere; the guessing process can never become definite"
                ),
            )
            .with_aid(x),
        );
    }
    out
}

/// `doomed-free-of`: a process guesses an AID and later asserts `free_of`
/// of it, with no intervening decider of that AID in the same process
/// (error).
///
/// Dynamic guarantee: when the `free_of` executes, either the AID is still
/// in the asserter's dependence set — Equation 19 turns the assertion into
/// a definite deny that rolls the asserter itself back — or the AID was
/// already consumed (by another process, or by an earlier incarnation of
/// this statement after a rollback) and the primitive is skipped. Either
/// way the run is not pristine. With an intervening decider the second use
/// is `consumed-reassertion`'s finding instead, so each defect is reported
/// once.
pub fn doomed_free_of(program: &Program, _flow: &Flow) -> Vec<Diagnostic> {
    let aids = program.aid_count;
    let mut out = Vec::new();
    for (p, stmts) in program.code.iter().enumerate() {
        for (j, s) in stmts.iter().enumerate() {
            let Stmt::FreeOf(x) = *s else { continue };
            if x >= aids {
                continue; // invalid-target's finding
            }
            let guess_at = stmts[..j]
                .iter()
                .rposition(|t| matches!(t, Stmt::Guess(y) if *y == x));
            let Some(i) = guess_at else { continue };
            let intervening = stmts[i + 1..j]
                .iter()
                .any(|t| matches!(t, Stmt::Affirm(y) | Stmt::Deny(y) | Stmt::FreeOf(y) if *y == x));
            if !intervening {
                out.push(
                    Diagnostic::error(
                        Lint::DoomedFreeOf,
                        p,
                        j,
                        format!(
                            "free_of(x{x}) follows guess(x{x}) at P{p}:{i}: the asserter depends \
                             on x{x}, so this is a self-deny (Equation 19) or a skipped re-use on \
                             every schedule"
                        ),
                    )
                    .with_aid(x),
                );
            }
        }
    }
    out
}

/// `consumed-reassertion`: an AID has more than one decider statement in
/// the whole program (error).
///
/// Dynamic guarantee: deciders are one-shot (§5.2). Whichever decider
/// executes second finds the AID consumed and is skipped — unless a
/// rollback released it in between (a speculative deny undone by rollback),
/// but that rollback already broke the run. The diagnostic is anchored at
/// the second site in program order.
pub fn consumed_reassertion(_program: &Program, flow: &Flow) -> Vec<Diagnostic> {
    let mut out = Vec::new();
    for (x, sites) in flow.deciders.iter().enumerate() {
        if sites.len() < 2 {
            continue;
        }
        let described: Vec<String> = sites
            .iter()
            .map(|&(p, i, kind)| format!("{}(x{x}) at P{p}:{i}", kind.name()))
            .collect();
        let &(p, i, _) = &sites[1];
        out.push(
            Diagnostic::error(
                Lint::ConsumedReassertion,
                p,
                i,
                format!(
                    "x{x} is decided {} times ({}); affirm/deny/free_of are one-shot, so all but \
                     one use is skipped or undone on every schedule",
                    sites.len(),
                    described.join(", "),
                ),
            )
            .with_aid(x),
        );
    }
    out
}

/// `unreachable-recv`: a process has more `recv` statements than messages
/// the whole program can ever send to it (error).
///
/// Dynamic guarantee: in a run with no rollbacks each in-range `send`
/// executes at most once, so at most [`Flow::sends_to`] messages ever reach
/// the process; its surplus `recv`s block forever and the program never
/// completes. (Rollback re-sends can manufacture extra messages, but a
/// rollback already breaks the run.)
pub fn unreachable_recv(program: &Program, flow: &Flow) -> Vec<Diagnostic> {
    let mut out = Vec::new();
    for (p, stmts) in program.code.iter().enumerate() {
        let recvs = flow.recv_count[p];
        let sends = flow.sends_to[p];
        if recvs <= sends {
            continue;
        }
        // Anchor at the first recv that can never be satisfied.
        let site = stmts
            .iter()
            .enumerate()
            .filter(|(_, s)| matches!(s, Stmt::Recv))
            .nth(sends)
            .map(|(i, _)| i)
            .expect("recvs > sends implies a surplus recv exists");
        out.push(Diagnostic::error(
            Lint::UnreachableRecv,
            p,
            site,
            format!(
                "process P{p} executes {recvs} recv{} but the whole program sends it at most \
                 {sends} message{}; this recv can never be satisfied",
                if recvs == 1 { "" } else { "s" },
                if sends == 1 { "" } else { "s" },
            ),
        ));
    }
    out
}

/// `cascade-depth`: denying one AID may roll back speculation across at
/// least `threshold` processes (warning).
///
/// Uses the flow fixpoint's [`Flow::dependents`] — the transitive
/// may-depend set through message tags — so the estimate covers relayed
/// dependence, not just direct guessers.
pub fn cascade_depth(_program: &Program, flow: &Flow, threshold: usize) -> Vec<Diagnostic> {
    let mut out = Vec::new();
    for (x, procs) in flow.dependents.iter().enumerate() {
        if procs.len() < threshold {
            continue;
        }
        let Some(&(p, i)) = flow.guess_sites[x].first() else {
            continue;
        };
        let members: Vec<String> = procs.iter().map(|q| format!("P{q}")).collect();
        out.push(
            Diagnostic::warning(
                Lint::CascadeDepth,
                p,
                i,
                format!(
                    "a deny of x{x} may cascade a rollback across {} processes ({}); consider \
                     affirming earlier or narrowing the speculation",
                    procs.len(),
                    members.join(", "),
                ),
            )
            .with_aid(x),
        );
    }
    out
}

/// `dependent-deny`: a `deny(x)`/`free_of(x)` site where the decider itself
/// may depend on `x` (warning).
///
/// Equation 15 (deny) and Equation 19 (free_of) make such a decide a
/// *definite self-deny*: it survives the rollback it causes, the decider
/// re-executes from its checkpoint, and the statement's own re-execution is
/// skipped as consumed — the single-site form of decided-AID reuse. Sites
/// already reported by `doomed-free-of` (which proves the dependence on
/// every schedule and is an error) are skipped; this warning covers the
/// may-side: dependence through a received tag or a speculative affirm's
/// substitution.
pub fn dependent_deny(program: &Program, flow: &Flow) -> Vec<Diagnostic> {
    let aids = program.aid_count;
    let mut out = Vec::new();
    for x in 0..aids {
        for site in effective_deciders(flow, x) {
            let (p, i, kind) = site;
            if kind == DeciderKind::Affirm || !flow.may_ido[p][i].contains(&x) {
                continue;
            }
            if kind == DeciderKind::FreeOf && doomed_free_of_condition(program, x, p, i) {
                continue; // doomed-free-of's (stronger) finding
            }
            out.push(
                Diagnostic::warning(
                    Lint::DependentDeny,
                    p,
                    i,
                    format!(
                        "{}(x{x}) may execute while P{p} itself depends on x{x}: that is a \
                         definite self-deny (Equation {}) which rolls P{p} back and skips this \
                         statement's re-execution",
                        kind.name(),
                        if kind == DeciderKind::Deny {
                            "15"
                        } else {
                            "19"
                        },
                    ),
                )
                .with_aid(x),
            );
        }
    }
    out
}

/// `ghost-risk`: a `send` whose tag may carry an AID that some decider can
/// deny — the message may be condemned in flight and dropped as a ghost
/// (§7) (warning).
pub fn ghost_risk(program: &Program, flow: &Flow) -> Vec<Diagnostic> {
    let procs = program.process_count();
    let mut out = Vec::new();
    for (p, stmts) in program.code.iter().enumerate() {
        for (i, s) in stmts.iter().enumerate() {
            let Stmt::Send { to } = *s else { continue };
            if to >= procs {
                continue; // invalid-target's finding
            }
            for &x in &flow.may_ido[p][i] {
                let Some(denier) = effective_deciders(flow, x)
                    .into_iter()
                    .find(|&site| may_deny(flow, x, site))
                else {
                    continue;
                };
                let (q, k, kind) = denier;
                out.push(
                    Diagnostic::warning(
                        Lint::GhostRisk,
                        p,
                        i,
                        format!(
                            "this send's tag may carry x{x}, which {}(x{x}) at P{q}:{k} can \
                             deny; the message would be condemned as a ghost and silently \
                             dropped (§7)",
                            kind.name(),
                        ),
                    )
                    .with_aid(x),
                );
            }
        }
    }
    out
}

/// `guess-decide-race`: a `guess(x)` that another process's deny may beat —
/// the guess would return `false` with no causal link to the decide
/// (warning).
///
/// Only deny-capable deciders in *other* processes qualify: a same-process
/// decide is ordered by program order (or by the rollback it causes), and an
/// affirm never makes a later guess fail — it merely contributes no
/// dependence.
pub fn guess_decide_race(program: &Program, flow: &Flow) -> Vec<Diagnostic> {
    let aids = program.aid_count;
    let mut out = Vec::new();
    for x in 0..aids {
        for &(p, i) in &flow.guess_sites[x] {
            let Some(denier) = effective_deciders(flow, x)
                .into_iter()
                .find(|&site| site.0 != p && may_deny(flow, x, site))
            else {
                continue;
            };
            let (q, k, kind) = denier;
            out.push(
                Diagnostic::warning(
                    Lint::GuessDecideRace,
                    p,
                    i,
                    format!(
                        "guess(x{x}) races {}(x{x}) at P{q}:{k}: if the deny lands first, this \
                         guess returns false with no causal link to the decision",
                        kind.name(),
                    ),
                )
                .with_aid(x),
            );
        }
    }
    out
}

/// `doomed-free-of`'s exact trigger at one site: a same-process `guess(x)`
/// earlier than statement `j` with no intervening decider of `x`.
fn doomed_free_of_condition(program: &Program, x: usize, p: usize, j: usize) -> bool {
    let stmts = &program.code[p];
    let Some(i) = stmts[..j]
        .iter()
        .rposition(|t| matches!(t, Stmt::Guess(y) if *y == x))
    else {
        return false;
    };
    !stmts[i + 1..j]
        .iter()
        .any(|t| matches!(t, Stmt::Affirm(y) | Stmt::Deny(y) | Stmt::FreeOf(y) if *y == x))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::diagnostics::Severity;
    use crate::flow::analyze;

    fn lint_names(program: &Program, threshold: usize) -> Vec<(&'static str, Severity)> {
        let flow = analyze(program);
        let mut out = Vec::new();
        out.extend(invalid_target(program, &flow));
        out.extend(leaked_speculation(program, &flow));
        out.extend(doomed_free_of(program, &flow));
        out.extend(consumed_reassertion(program, &flow));
        out.extend(unreachable_recv(program, &flow));
        out.extend(cascade_depth(program, &flow, threshold));
        out.extend(dependent_deny(program, &flow));
        out.extend(ghost_risk(program, &flow));
        out.extend(guess_decide_race(program, &flow));
        out.into_iter()
            .map(|d| (d.lint.name(), d.severity))
            .collect()
    }

    #[test]
    fn clean_program_is_clean() {
        let program = Program::new(vec![
            vec![Stmt::Guess(0), Stmt::Compute, Stmt::Send { to: 1 }],
            vec![Stmt::Affirm(0), Stmt::Recv],
        ]);
        assert!(lint_names(&program, 3).is_empty());
    }

    #[test]
    fn each_lint_fires_on_its_trigger() {
        let leaked = Program::new(vec![vec![Stmt::Guess(0)]]);
        assert_eq!(
            lint_names(&leaked, 9),
            vec![("leaked-speculation", Severity::Error)]
        );

        let doomed = Program::new(vec![vec![Stmt::Guess(0), Stmt::FreeOf(0)]]);
        assert_eq!(
            lint_names(&doomed, 9),
            vec![("doomed-free-of", Severity::Error)]
        );

        let reassert = Program::new(vec![vec![Stmt::Affirm(0), Stmt::Affirm(0)]]);
        assert_eq!(
            lint_names(&reassert, 9),
            vec![("consumed-reassertion", Severity::Error)]
        );

        let starved = Program::new(vec![vec![Stmt::Recv]]);
        assert_eq!(
            lint_names(&starved, 9),
            vec![("unreachable-recv", Severity::Error)]
        );

        let wild_send = Program::new(vec![vec![Stmt::Send { to: 4 }]]);
        assert_eq!(
            lint_names(&wild_send, 9),
            vec![("invalid-target", Severity::Error)]
        );

        let self_send = Program::new(vec![vec![Stmt::Send { to: 0 }, Stmt::Recv]]);
        assert_eq!(
            lint_names(&self_send, 9),
            vec![("invalid-target", Severity::Warning)]
        );

        let fan_out = Program::new(vec![
            vec![
                Stmt::Guess(0),
                Stmt::Send { to: 1 },
                Stmt::Send { to: 2 },
                Stmt::Affirm(0),
            ],
            vec![Stmt::Recv],
            vec![Stmt::Recv],
        ]);
        assert_eq!(
            lint_names(&fan_out, 3),
            vec![("cascade-depth", Severity::Warning)]
        );
        assert!(lint_names(&fan_out, 4).is_empty(), "below threshold");
    }

    #[test]
    fn doomed_free_of_spares_intervened_and_cross_process_uses() {
        // Intervening affirm: the free_of re-use is consumed-reassertion's
        // finding, not doomed-free-of's.
        let intervened = Program::new(vec![vec![Stmt::Guess(0), Stmt::Affirm(0), Stmt::FreeOf(0)]]);
        assert_eq!(
            lint_names(&intervened, 9),
            vec![("consumed-reassertion", Severity::Error)]
        );

        // Cross-process free_of of a guessed AID is legal (Equation 17/18).
        let cross = Program::new(vec![vec![Stmt::Guess(0)], vec![Stmt::FreeOf(0)]]);
        assert!(lint_names(&cross, 9).is_empty());
    }

    #[test]
    fn dependent_deny_fires_on_may_dependence_only() {
        // Dependence through a received tag: doomed-free-of cannot prove it,
        // dependent-deny warns.
        let tagged = Program::new(vec![
            vec![Stmt::Guess(0), Stmt::Send { to: 1 }, Stmt::Affirm(0)],
            vec![Stmt::Recv, Stmt::Deny(1), Stmt::Guess(1)],
        ]);
        // x1 is never guessed before the deny: no dependence, no warning …
        let flow = analyze(&tagged);
        assert!(dependent_deny(&tagged, &flow).is_empty());

        // … but deny of the *received* x0 dependence is flagged.
        let racy = Program::new(vec![
            vec![Stmt::Guess(0), Stmt::Send { to: 1 }],
            vec![Stmt::Recv, Stmt::Deny(0)],
        ]);
        let flow = analyze(&racy);
        let ds = dependent_deny(&racy, &flow);
        assert_eq!(ds.len(), 1);
        assert_eq!(
            (ds[0].proc, ds[0].stmt_idx, ds[0].aid),
            (Some(1), Some(1), Some(0))
        );

        // A deny of one's own guess is the single-process form.
        let self_deny = Program::new(vec![vec![Stmt::Guess(0), Stmt::Deny(0)]]);
        let flow = analyze(&self_deny);
        assert_eq!(dependent_deny(&self_deny, &flow).len(), 1);

        // The free_of form is doomed-free-of's finding, not ours.
        let doomed = Program::new(vec![vec![Stmt::Guess(0), Stmt::FreeOf(0)]]);
        let flow = analyze(&doomed);
        assert!(dependent_deny(&doomed, &flow).is_empty());
    }

    #[test]
    fn ghost_risk_needs_a_tagged_send_and_a_denier() {
        let risky = Program::new(vec![
            vec![Stmt::Guess(0), Stmt::Send { to: 1 }, Stmt::Deny(0)],
            vec![Stmt::Recv],
        ]);
        let flow = analyze(&risky);
        let ds = ghost_risk(&risky, &flow);
        assert_eq!(ds.len(), 1);
        assert_eq!(
            (ds[0].proc, ds[0].stmt_idx, ds[0].aid),
            (Some(0), Some(1), Some(0))
        );

        // An affirm cannot condemn the message: no ghost possible.
        let safe = Program::new(vec![
            vec![Stmt::Guess(0), Stmt::Send { to: 1 }, Stmt::Affirm(0)],
            vec![Stmt::Recv],
        ]);
        let flow = analyze(&safe);
        assert!(ghost_risk(&safe, &flow).is_empty());

        // An untagged send is never a ghost.
        let untagged = Program::new(vec![
            vec![
                Stmt::Guess(0),
                Stmt::Affirm(0),
                Stmt::Send { to: 1 },
                Stmt::Deny(1),
            ],
            vec![Stmt::Recv, Stmt::Guess(1)],
        ]);
        let flow = analyze(&untagged);
        assert!(ghost_risk(&untagged, &flow).is_empty());
    }

    #[test]
    fn guess_decide_race_needs_a_foreign_denier() {
        let racy = Program::new(vec![vec![Stmt::Guess(0)], vec![Stmt::Deny(0)]]);
        let flow = analyze(&racy);
        let ds = guess_decide_race(&racy, &flow);
        assert_eq!(ds.len(), 1);
        assert_eq!(
            (ds[0].proc, ds[0].stmt_idx, ds[0].aid),
            (Some(0), Some(0), Some(0))
        );

        // A cross-process affirm is the canonical worker/worrywart pattern:
        // never flagged.
        let canonical = Program::new(vec![
            vec![Stmt::Guess(0), Stmt::Compute],
            vec![Stmt::Affirm(0)],
        ]);
        let flow = analyze(&canonical);
        assert!(guess_decide_race(&canonical, &flow).is_empty());

        // An independent cross-process free_of is an affirm (Eq. 17/18):
        // not a denier.
        let free = Program::new(vec![
            vec![Stmt::Guess(0), Stmt::Compute],
            vec![Stmt::FreeOf(0)],
        ]);
        let flow = analyze(&free);
        assert!(guess_decide_race(&free, &flow).is_empty());

        // A same-process deny is ordered by program order or rollback.
        let ordered = Program::new(vec![vec![Stmt::Deny(0), Stmt::Guess(0)]]);
        let flow = analyze(&ordered);
        assert!(guess_decide_race(&ordered, &flow).is_empty());

        // A second decider site in the denier's process never executes with
        // effect, so it is not a denier.
        let shadowed = Program::new(vec![
            vec![Stmt::Guess(0), Stmt::Compute],
            vec![Stmt::Affirm(0), Stmt::Deny(0)],
        ]);
        let flow = analyze(&shadowed);
        assert!(guess_decide_race(&shadowed, &flow).is_empty());
    }

    #[test]
    fn unreachable_recv_counts_program_wide_sends() {
        let balanced = Program::new(vec![
            vec![Stmt::Recv, Stmt::Recv],
            vec![Stmt::Send { to: 0 }],
            vec![Stmt::Send { to: 0 }],
        ]);
        assert!(lint_names(&balanced, 9).is_empty());

        let starved = Program::new(vec![
            vec![Stmt::Recv, Stmt::Recv],
            vec![Stmt::Send { to: 0 }],
        ]);
        let flow = analyze(&starved);
        let ds = unreachable_recv(&starved, &flow);
        assert_eq!(ds.len(), 1);
        assert_eq!((ds[0].proc, ds[0].stmt_idx), (Some(0), Some(1)));
    }
}
