//! Golden tests: one trigger and one near-miss program per lint, with the
//! exact rendered output pinned, plus a dynamic demonstration that each
//! error trigger really is doomed on the machine.

use hope_analysis::{render_json, render_text, Analyzer, Lint, Severity};
use hope_core::machine::Machine;
use hope_core::program::{Program, Stmt};
use hope_core::NullObserver;

/// `true` when `program` ran to full finalization ([`hope_mc::is_pristine`])
/// under the given seeded schedule.
fn pristine_under(program: &Program, seed: Option<u64>) -> bool {
    let mut m = Machine::new(program.clone());
    let report = m.run_with(100_000, seed, &mut NullObserver);
    report.completed && hope_mc::is_pristine(&m)
}

fn never_pristine(program: &Program) {
    assert!(
        !pristine_under(program, None),
        "round-robin run was pristine"
    );
    for seed in 0..16 {
        assert!(
            !pristine_under(program, Some(seed)),
            "seeded schedule {seed} was pristine"
        );
    }
}

fn some_schedule_pristine(program: &Program) {
    let found = pristine_under(program, None) || (0..16).any(|s| pristine_under(program, Some(s)));
    assert!(found, "no schedule ran to full finalization");
}

#[test]
fn leaked_speculation_trigger_and_near_miss() {
    let trigger = Program::new(vec![
        vec![Stmt::Guess(0), Stmt::Compute],
        vec![Stmt::Compute],
    ]);
    let ds = Analyzer::new().analyze(&trigger);
    assert_eq!(
        render_text(&ds),
        "error[leaked-speculation] P0:0: x0 is guessed here but no affirm/deny/free_of of x0 \
         exists anywhere; the guessing process can never become definite\n\
         1 error, 0 warnings\n"
    );
    never_pristine(&trigger);

    let near_miss = Program::new(vec![
        vec![Stmt::Guess(0), Stmt::Compute],
        vec![Stmt::Affirm(0)],
    ]);
    assert!(Analyzer::new().analyze(&near_miss).is_empty());
    some_schedule_pristine(&near_miss);
}

#[test]
fn doomed_free_of_trigger_and_near_miss() {
    let trigger = Program::new(vec![vec![Stmt::Guess(0), Stmt::Compute, Stmt::FreeOf(0)]]);
    let ds = Analyzer::new().analyze(&trigger);
    assert_eq!(ds.len(), 1);
    assert_eq!(
        ds[0].to_string(),
        "error[doomed-free-of] P0:2: free_of(x0) follows guess(x0) at P0:0: the asserter \
         depends on x0, so this is a self-deny (Equation 19) or a skipped re-use on every \
         schedule"
    );
    never_pristine(&trigger);

    // Near miss: the free_of is issued by a *different* process, which is
    // exactly Equation 17/18's legal use.
    let near_miss = Program::new(vec![
        vec![Stmt::Guess(0), Stmt::Compute],
        vec![Stmt::FreeOf(0)],
    ]);
    assert!(Analyzer::new().analyze(&near_miss).is_empty());
    some_schedule_pristine(&near_miss);
}

#[test]
fn consumed_reassertion_trigger_and_near_miss() {
    let trigger = Program::new(vec![
        vec![Stmt::Guess(0), Stmt::Compute],
        vec![Stmt::Affirm(0), Stmt::Deny(0)],
    ]);
    let ds = Analyzer::new().analyze(&trigger);
    assert_eq!(ds.len(), 1);
    assert_eq!(
        ds[0].to_string(),
        "error[consumed-reassertion] P1:1: x0 is decided 2 times (affirm(x0) at P1:0, \
         deny(x0) at P1:1); affirm/deny/free_of are one-shot, so all but one use is skipped \
         or undone on every schedule"
    );
    never_pristine(&trigger);

    // Near miss: the two deciders decide *different* AIDs.
    let near_miss = Program::new(vec![
        vec![Stmt::Guess(0), Stmt::Guess(1)],
        vec![Stmt::Affirm(0), Stmt::Affirm(1)],
    ]);
    assert!(Analyzer::new().analyze(&near_miss).is_empty());
    some_schedule_pristine(&near_miss);
}

#[test]
fn unreachable_recv_trigger_and_near_miss() {
    let trigger = Program::new(vec![
        vec![Stmt::Recv, Stmt::Recv],
        vec![Stmt::Send { to: 0 }],
    ]);
    let ds = Analyzer::new().analyze(&trigger);
    assert_eq!(ds.len(), 1);
    assert_eq!(
        ds[0].to_string(),
        "error[unreachable-recv] P0:1: process P0 executes 2 recvs but the whole program \
         sends it at most 1 message; this recv can never be satisfied"
    );
    never_pristine(&trigger);

    let near_miss = Program::new(vec![
        vec![Stmt::Recv, Stmt::Recv],
        vec![Stmt::Send { to: 0 }, Stmt::Send { to: 0 }],
    ]);
    assert!(Analyzer::new().analyze(&near_miss).is_empty());
    some_schedule_pristine(&near_miss);
}

#[test]
fn invalid_target_trigger_and_near_miss() {
    // Out-of-range send and AID: two errors. Not executable (the machine
    // would panic), so there is no dynamic leg here.
    let trigger = Program {
        code: vec![vec![Stmt::Send { to: 3 }, Stmt::Guess(5)]],
        aid_count: 1,
    };
    let ds = Analyzer::new().analyze(&trigger);
    let rendered: Vec<String> = ds.iter().map(|d| d.to_string()).collect();
    assert_eq!(
        rendered,
        vec![
            "error[invalid-target] P0:0: send targets P3 but the program has only 1 processes"
                .to_string(),
            "error[invalid-target] P0:1: statement names x5 but the program declares only 1 AIDs"
                .to_string(),
        ]
    );

    // Self-send: a warning, and genuinely runnable.
    let self_send = Program::new(vec![vec![Stmt::Send { to: 0 }, Stmt::Recv]]);
    let ds = Analyzer::new().analyze(&self_send);
    assert_eq!(ds.len(), 1);
    assert_eq!(ds[0].severity, Severity::Warning);
    assert_eq!(
        ds[0].to_string(),
        "warning[invalid-target] P0:0: process P0 sends to itself; the message only re-enters \
         its own mailbox"
    );
    some_schedule_pristine(&self_send);

    let near_miss = Program::new(vec![vec![Stmt::Send { to: 1 }], vec![Stmt::Recv]]);
    assert!(Analyzer::new().analyze(&near_miss).is_empty());
    some_schedule_pristine(&near_miss);
}

#[test]
fn cascade_depth_trigger_and_near_miss() {
    // P0 guesses and fans the dependence out to P1 and P2 (through a relay):
    // dependents(x0) = {P0, P1, P2} ≥ default threshold 3.
    let trigger = Program::new(vec![
        vec![Stmt::Guess(0), Stmt::Send { to: 1 }, Stmt::Affirm(0)],
        vec![Stmt::Recv, Stmt::Send { to: 2 }],
        vec![Stmt::Recv],
    ]);
    let ds = Analyzer::new().analyze(&trigger);
    assert_eq!(ds.len(), 1);
    assert_eq!(
        ds[0].to_string(),
        "warning[cascade-depth] P0:0: a deny of x0 may cascade a rollback across 3 processes \
         (P0, P1, P2); consider affirming earlier or narrowing the speculation"
    );
    // Warning only: the program still validates and can run cleanly.
    some_schedule_pristine(&trigger);

    // Near miss: affirm before the send — the tag is empty, nothing fans out.
    let near_miss = Program::new(vec![
        vec![Stmt::Guess(0), Stmt::Affirm(0), Stmt::Send { to: 1 }],
        vec![Stmt::Recv, Stmt::Send { to: 2 }],
        vec![Stmt::Recv],
    ]);
    assert!(Analyzer::new().analyze(&near_miss).is_empty());
    some_schedule_pristine(&near_miss);
}

#[test]
fn six_original_lints_on_one_program_with_golden_json() {
    // One crafted program triggering each of the original six lints at
    // once (the flow-race lints added later need shapes — foreign deniers,
    // tagged sends — this program deliberately avoids, keeping the golden
    // JSON stable).
    let program = Program {
        code: vec![
            // P0: leaked guess of x1, doomed free_of of x0, self-send.
            vec![
                Stmt::Guess(0),
                Stmt::Guess(1),
                Stmt::FreeOf(0),
                Stmt::Send { to: 0 },
                Stmt::Recv,
            ],
            // P1: double-decide of x2, out-of-range send, surplus recv.
            vec![
                Stmt::Affirm(2),
                Stmt::Deny(2),
                Stmt::Send { to: 9 },
                Stmt::Recv,
            ],
            // P2+P3: cascade fan-out of x3 (threshold 2 below).
            vec![Stmt::Guess(3), Stmt::Send { to: 3 }, Stmt::Affirm(3)],
            vec![Stmt::Recv],
        ],
        aid_count: 4,
    };
    let analyzer = Analyzer::new().with_cascade_threshold(2);
    let ds = analyzer.analyze(&program);
    let fired: Vec<Lint> = ds.iter().map(|d| d.lint).collect();
    let six = [
        Lint::InvalidTarget,
        Lint::LeakedSpeculation,
        Lint::DoomedFreeOf,
        Lint::ConsumedReassertion,
        Lint::UnreachableRecv,
        Lint::CascadeDepth,
    ];
    for lint in six {
        assert!(fired.contains(&lint), "{lint} did not fire");
    }

    let json = render_json(&ds);
    // Diagnostics are sorted by (proc, stmt, lint).
    let expected = r#"[
  {"lint": "leaked-speculation", "severity": "error", "proc": 0, "stmt": 1, "message": "x1 is guessed here but no affirm/deny/free_of of x1 exists anywhere; the guessing process can never become definite"},
  {"lint": "doomed-free-of", "severity": "error", "proc": 0, "stmt": 2, "message": "free_of(x0) follows guess(x0) at P0:0: the asserter depends on x0, so this is a self-deny (Equation 19) or a skipped re-use on every schedule"},
  {"lint": "invalid-target", "severity": "warning", "proc": 0, "stmt": 3, "message": "process P0 sends to itself; the message only re-enters its own mailbox"},
  {"lint": "consumed-reassertion", "severity": "error", "proc": 1, "stmt": 1, "message": "x2 is decided 2 times (affirm(x2) at P1:0, deny(x2) at P1:1); affirm/deny/free_of are one-shot, so all but one use is skipped or undone on every schedule"},
  {"lint": "invalid-target", "severity": "error", "proc": 1, "stmt": 2, "message": "send targets P9 but the program has only 4 processes"},
  {"lint": "unreachable-recv", "severity": "error", "proc": 1, "stmt": 3, "message": "process P1 executes 1 recv but the whole program sends it at most 0 messages; this recv can never be satisfied"},
  {"lint": "cascade-depth", "severity": "warning", "proc": 2, "stmt": 0, "message": "a deny of x3 may cascade a rollback across 2 processes (P2, P3); consider affirming earlier or narrowing the speculation"}
]
"#;
    assert_eq!(json, expected);
}

#[test]
fn validator_rejects_triggers_and_admits_near_misses() {
    let doomed = Program::new(vec![vec![Stmt::Guess(0), Stmt::FreeOf(0)]]);
    let errors = Analyzer::default().errors(&doomed);
    assert_eq!(errors.len(), 1);
    assert!(errors[0].to_string().contains("doomed-free-of"));

    let fine = Program::new(vec![
        vec![Stmt::Guess(0), Stmt::Compute],
        vec![Stmt::Affirm(0)],
    ]);
    assert!(Analyzer::default().errors(&fine).is_empty());
    let mut machine = Machine::new(fine);
    assert!(machine.run(1_000).completed);
}
