//! Golden tests for the cascade cost model: pinned text and JSON output,
//! and deterministic tie-breaking.

use hope_analysis::cost::{rank, rank_with, render_json, render_text, CostWeights, Order};
use hope_core::program::{Program, Stmt};

/// The bench-suite chain shape: an origin guesses and fans out through a
/// relay while a judge holds the verdict.
fn chain() -> Program {
    Program::new(vec![
        // P0: origin — guess, tagged sends to relay and judge, then a
        // second (cheap) guess that stays local.
        vec![
            Stmt::Guess(0),
            Stmt::Send { to: 1 },
            Stmt::Send { to: 3 },
            Stmt::Guess(1),
            Stmt::Affirm(1),
        ],
        // P1: relay — picks up the dependence and forwards it.
        vec![Stmt::Recv, Stmt::Compute, Stmt::Send { to: 2 }],
        // P2: leaf.
        vec![Stmt::Recv, Stmt::Compute],
        // P3: judge — decides x0.
        vec![Stmt::Recv, Stmt::Compute, Stmt::Deny(0)],
    ])
}

#[test]
fn chain_rank_text_is_pinned() {
    let costs = rank(&chain());
    let text = render_text(&costs, Order::Damage);
    // x0's cascade reaches every process (12 statements may re-run, three
    // tagged sends may ghost); x1 never leaves P0, but its guess sits
    // behind three statements of checkpointed state.
    let expected = "\
#1 P0:0 guess(x0): damage 21 (reexec 12, checkpoint 0, messages 3)
#2 P0:3 guess(x1): damage 4 (reexec 1, checkpoint 3, messages 0)
2 speculations ranked
";
    assert_eq!(text, expected);
}

#[test]
fn chain_rank_json_is_pinned() {
    let costs = rank(&chain());
    let json = render_json(&costs, Order::Damage);
    let expected = r#"[
  {"rank": 1, "proc": 0, "stmt": 0, "aid": 0, "damage": 21, "reexec": 12, "checkpoint": 0, "messages": 3},
  {"rank": 2, "proc": 0, "stmt": 3, "aid": 1, "damage": 4, "reexec": 1, "checkpoint": 3, "messages": 0}
]
"#;
    assert_eq!(json, expected);
}

#[test]
fn cost_listing_is_site_ordered_and_unnumbered() {
    let costs = rank(&chain());
    let text = render_text(&costs, Order::Site);
    let expected = "\
P0:0 guess(x0): damage 21 (reexec 12, checkpoint 0, messages 3)
P0:3 guess(x1): damage 4 (reexec 1, checkpoint 3, messages 0)
2 speculations costed
";
    assert_eq!(text, expected);
}

#[test]
fn equal_damage_ties_break_by_site_deterministically() {
    // Four structurally identical speculations — two processes share each
    // AID, AID numbers run *against* process order: damage is equal, so
    // the order must be exactly (proc, stmt_idx, aid) ascending — and
    // stable across repeated runs.
    let program = Program::new(vec![
        vec![Stmt::Guess(1), Stmt::Compute],
        vec![Stmt::Guess(1), Stmt::Compute],
        vec![Stmt::Guess(0), Stmt::Compute],
        vec![Stmt::Guess(0), Stmt::Compute],
    ]);
    let costs = rank(&program);
    assert_eq!(costs.len(), 4);
    assert!(costs.windows(2).all(|w| w[0].damage == w[1].damage));
    let sites: Vec<(usize, usize, usize)> =
        costs.iter().map(|c| (c.proc, c.stmt_idx, c.aid)).collect();
    assert_eq!(sites, vec![(0, 0, 1), (1, 0, 1), (2, 0, 0), (3, 0, 0)]);
    for _ in 0..5 {
        assert_eq!(rank(&program), costs);
    }
}

#[test]
fn weights_scale_the_components() {
    let program = chain();
    let flow = hope_analysis::analyze_flow(&program);
    let default = rank_with(&program, &flow, &CostWeights::default());
    let message_heavy = rank_with(
        &program,
        &flow,
        &CostWeights {
            checkpoint: 1,
            reexec: 1,
            message: 100,
        },
    );
    let x0_default = default.iter().find(|c| c.aid == 0).unwrap();
    let x0_heavy = message_heavy.iter().find(|c| c.aid == 0).unwrap();
    assert_eq!(x0_default.messages, x0_heavy.messages);
    assert_eq!(
        x0_heavy.damage,
        x0_heavy.checkpoint + x0_heavy.reexec + 100 * x0_heavy.messages
    );
    assert!(x0_heavy.damage > x0_default.damage);
}
