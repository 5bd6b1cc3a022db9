//! The cascade cost model: an expected-rollback-damage score per `guess`
//! site.
//!
//! The flat [`cascade_depth`](crate::lints::cascade_depth) lint counts how
//! many *processes* a deny may roll back. That treats a process that
//! executes one dependent statement the same as one that re-executes fifty
//! and re-sends a dozen tagged messages. The cost model weighs the damage a
//! deny of each guessed AID would actually do, interprocedurally, from the
//! may-IDO fixpoint ([`Flow`]):
//!
//! * **re-execution** — every statement whose post-state may depend on the
//!   AID runs inside the speculation and is discarded and re-run on
//!   rollback (`Del(H_P, A)`, §5.6);
//! * **checkpoint** — the number of statements a dependent process executes
//!   *before* its speculation begins approximates the state the runtime
//!   must snapshot and restore (`A.PS`, Equation 1);
//! * **messages** — every `send` whose tag may carry the AID becomes a
//!   ghost on deny and must be re-sent after rollback (§7).
//!
//! The damage of an AID is the weighted sum of those three components over
//! every may-dependent process; every `guess` site of the AID is charged
//! the full damage (any one of them opens the exposure). Rankings are
//! deterministic: sorted by damage descending, ties broken by
//! `(process, statement, AID)` ascending.

use hope_core::program::{Program, Stmt};

use crate::flow::Flow;
use crate::json;

/// Relative weights of the three damage components.
///
/// The defaults were calibrated against measured rollback work on the
/// bench-suite chain cascades (see `EXPERIMENTS.md`): re-execution is the
/// unit, a checkpointed statement costs about the same again to snapshot
/// and restore, and a ghosted message costs a few re-executions' worth of
/// delivery, filtering, and re-send.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct CostWeights {
    /// Cost per statement executed before a dependent process's speculation
    /// begins (checkpoint size proxy).
    pub checkpoint: u64,
    /// Cost per statement that may need re-execution after a rollback.
    pub reexec: u64,
    /// Cost per message whose tag may carry the AID (ghost + re-send).
    pub message: u64,
}

impl Default for CostWeights {
    fn default() -> Self {
        CostWeights {
            checkpoint: 1,
            reexec: 1,
            message: 3,
        }
    }
}

/// The expected-rollback-damage score of one `guess` site.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SpeculationCost {
    /// The guessing process.
    pub proc: usize,
    /// The `guess` statement's index.
    pub stmt_idx: usize,
    /// The guessed AID variable.
    pub aid: usize,
    /// Unweighted checkpoint component (statements executed before the
    /// speculation begins, summed over dependent processes).
    pub checkpoint: u64,
    /// Unweighted re-execution component (statements that may re-run).
    pub reexec: u64,
    /// Unweighted message component (sends whose tag may carry the AID).
    pub messages: u64,
    /// The weighted total damage.
    pub damage: u64,
}

/// Rank every `guess` site of `program` by expected rollback damage under
/// the default [`CostWeights`].
pub fn rank(program: &Program) -> Vec<SpeculationCost> {
    let flow = crate::flow::analyze(program);
    rank_with(program, &flow, &CostWeights::default())
}

/// Rank every `guess` site of `program` by expected rollback damage,
/// reusing an already-computed [`Flow`].
///
/// The result is sorted by [`SpeculationCost::damage`] descending, ties
/// broken by `(proc, stmt_idx, aid)` ascending — deterministic for a fixed
/// program and weights.
pub fn rank_with(program: &Program, flow: &Flow, weights: &CostWeights) -> Vec<SpeculationCost> {
    let procs = program.process_count();
    let mut out = Vec::new();
    for (x, sites) in flow.guess_sites.iter().enumerate() {
        if sites.is_empty() {
            continue;
        }
        let mut checkpoint = 0u64;
        let mut reexec = 0u64;
        let mut messages = 0u64;
        for q in 0..procs {
            // Statement j runs inside the speculation on x when its
            // post-state may depend on x.
            let dependent: Vec<usize> = (0..program.code[q].len())
                .filter(|&j| flow.may_ido[q][j + 1].contains(&x))
                .collect();
            let Some(&first) = dependent.first() else {
                continue;
            };
            checkpoint += first as u64;
            reexec += dependent.len() as u64;
            messages += program.code[q]
                .iter()
                .enumerate()
                .filter(|&(j, s)| {
                    matches!(s, Stmt::Send { to } if *to < procs) && flow.may_ido[q][j].contains(&x)
                })
                .count() as u64;
        }
        let damage =
            weights.checkpoint * checkpoint + weights.reexec * reexec + weights.message * messages;
        for &(p, i) in sites {
            out.push(SpeculationCost {
                proc: p,
                stmt_idx: i,
                aid: x,
                checkpoint,
                reexec,
                messages,
                damage,
            });
        }
    }
    out.sort_by(|a, b| {
        b.damage
            .cmp(&a.damage)
            .then_with(|| (a.proc, a.stmt_idx, a.aid).cmp(&(b.proc, b.stmt_idx, b.aid)))
    });
    out
}

/// The order of a cost listing.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Order {
    /// By damage, as [`rank`] returns the sites, each numbered from 1
    /// (`hope-lint --rank`).
    Damage,
    /// In program order, `(proc, stmt_idx, aid)` ascending, without rank
    /// numbers (`hope-lint --cost`).
    Site,
}

/// `costs` (as [`rank`] returns them) in `order`.
fn listed(costs: &[SpeculationCost], order: Order) -> Vec<SpeculationCost> {
    let mut sites = costs.to_vec();
    if order == Order::Site {
        sites.sort_by_key(|c| (c.proc, c.stmt_idx, c.aid));
    }
    sites
}

/// Render costs one line per site in `order` (`#1 ` before each line of a
/// damage ranking), plus a summary line.
pub fn render_text(costs: &[SpeculationCost], order: Order) -> String {
    let mut out = String::new();
    for (n, c) in listed(costs, order).iter().enumerate() {
        if order == Order::Damage {
            out.push_str(&format!("#{} ", n + 1));
        }
        out.push_str(&format!(
            "P{}:{} guess(x{}): damage {} (reexec {}, checkpoint {}, messages {})\n",
            c.proc, c.stmt_idx, c.aid, c.damage, c.reexec, c.checkpoint, c.messages,
        ));
    }
    let verb = if order == Order::Damage {
        "ranked"
    } else {
        "costed"
    };
    out.push_str(&format!(
        "{} speculation{} {verb}\n",
        costs.len(),
        if costs.len() == 1 { "" } else { "s" },
    ));
    out
}

/// Render costs as a JSON array in `order`, one object per line, with keys
/// `rank` (a damage ranking only), `proc`, `stmt`, `aid`, `damage`,
/// `reexec`, `checkpoint`, and `messages`.
pub fn render_json(costs: &[SpeculationCost], order: Order) -> String {
    json::array_lines(listed(costs, order).iter().enumerate().map(|(n, c)| {
        let rank = (order == Order::Damage).then(|| ("rank", (n + 1).to_string()));
        let fields = [
            ("proc", c.proc.to_string()),
            ("stmt", c.stmt_idx.to_string()),
            ("aid", c.aid.to_string()),
            ("damage", c.damage.to_string()),
            ("reexec", c.reexec.to_string()),
            ("checkpoint", c.checkpoint.to_string()),
            ("messages", c.messages.to_string()),
        ];
        json::object(rank.into_iter().chain(fields))
    })) + "\n"
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn damage_counts_all_three_components() {
        // P0 guesses, runs one dependent compute, sends a tagged message,
        // then affirms; P1 computes first (checkpoint 1), receives the tag,
        // and runs one more dependent statement.
        let program = Program::new(vec![
            vec![
                Stmt::Guess(0),
                Stmt::Compute,
                Stmt::Send { to: 1 },
                Stmt::Affirm(0),
            ],
            vec![Stmt::Compute, Stmt::Recv, Stmt::Compute],
        ]);
        let costs = rank(&program);
        assert_eq!(costs.len(), 1);
        let c = costs[0];
        assert_eq!((c.proc, c.stmt_idx, c.aid), (0, 0, 0));
        // P0: statements 0..=2 dependent (guess, compute, send) → reexec 3,
        // checkpoint 0. P1: statements 1..=2 dependent (recv, compute) →
        // reexec 2, checkpoint 1. One tagged send.
        assert_eq!(c.reexec, 5);
        assert_eq!(c.checkpoint, 1);
        assert_eq!(c.messages, 1);
        assert_eq!(c.damage, c.checkpoint + c.reexec + 3 * c.messages);
    }

    #[test]
    fn ranking_is_deterministic_and_breaks_ties_by_site() {
        // Two AIDs with identical shapes: equal damage, ordered by site.
        let program = Program::new(vec![
            vec![Stmt::Guess(0), Stmt::Affirm(0)],
            vec![Stmt::Guess(1), Stmt::Affirm(1)],
        ]);
        let a = rank(&program);
        let b = rank(&program);
        assert_eq!(a, b);
        assert_eq!(a.len(), 2);
        assert_eq!(a[0].damage, a[1].damage);
        assert_eq!((a[0].proc, a[0].aid), (0, 0));
        assert_eq!((a[1].proc, a[1].aid), (1, 1));
    }

    #[test]
    fn wider_cascades_cost_more() {
        let narrow = Program::new(vec![
            vec![Stmt::Guess(0), Stmt::Send { to: 1 }, Stmt::Affirm(0)],
            vec![Stmt::Recv],
        ]);
        let wide = Program::new(vec![
            vec![
                Stmt::Guess(0),
                Stmt::Send { to: 1 },
                Stmt::Send { to: 2 },
                Stmt::Affirm(0),
            ],
            vec![Stmt::Recv, Stmt::Compute],
            vec![Stmt::Recv, Stmt::Compute],
        ]);
        assert!(rank(&wide)[0].damage > rank(&narrow)[0].damage);
    }

    #[test]
    fn renderers_list_both_orders_and_handle_empty() {
        // x1's guess sits behind a compute: it outranks x0 but comes after
        // it in program order.
        let program = Program::new(vec![
            vec![Stmt::Guess(0), Stmt::Affirm(0)],
            vec![Stmt::Compute, Stmt::Guess(1), Stmt::Affirm(1)],
        ]);
        let costs = rank(&program);
        assert_eq!((costs[0].aid, costs[1].aid), (1, 0));

        let text = render_text(&costs, Order::Damage);
        assert!(text.starts_with("#1 P1:1 guess(x1): damage "), "{text}");
        assert!(text.contains("\n#2 P0:0 guess(x0): damage "), "{text}");
        assert!(text.ends_with("2 speculations ranked\n"), "{text}");
        let json = render_json(&costs, Order::Damage);
        assert!(
            json.starts_with("[\n  {\"rank\": 1, \"proc\": 1, \"stmt\": 1,"),
            "{json}"
        );
        assert!(
            json.contains("\n  {\"rank\": 2, \"proc\": 0, \"stmt\": 0,"),
            "{json}"
        );

        let text = render_text(&costs, Order::Site);
        assert!(text.starts_with("P0:0 guess(x0): damage "), "{text}");
        assert!(text.contains("\nP1:1 guess(x1): damage "), "{text}");
        assert!(text.ends_with("2 speculations costed\n"), "{text}");
        let json = render_json(&costs, Order::Site);
        assert!(
            json.starts_with("[\n  {\"proc\": 0, \"stmt\": 0,"),
            "{json}"
        );
        assert!(json.contains("\n  {\"proc\": 1, \"stmt\": 1,"), "{json}");
        assert!(!json.contains("\"rank\""), "{json}");

        let one = &costs[..1];
        assert!(render_text(one, Order::Damage).ends_with("\n1 speculation ranked\n"));
        assert!(render_text(one, Order::Site).ends_with("\n1 speculation costed\n"));
        assert_eq!(render_text(&[], Order::Damage), "0 speculations ranked\n");
        assert_eq!(render_text(&[], Order::Site), "0 speculations costed\n");
        assert_eq!(render_json(&[], Order::Damage), "[]\n");
        assert_eq!(render_json(&[], Order::Site), "[]\n");
    }
}
