//! End-to-end tests of the `hope-lint` binary: argument handling, both
//! renderers, the parser front-end, and exit codes.

use std::io::Write;
use std::process::{Command, Stdio};

fn hope_lint() -> Command {
    Command::new(env!("CARGO_BIN_EXE_hope-lint"))
}

#[test]
fn stdin_program_with_errors_exits_one() {
    let mut child = hope_lint()
        .arg("-")
        .stdin(Stdio::piped())
        .stdout(Stdio::piped())
        .spawn()
        .expect("spawn hope-lint");
    child
        .stdin
        .take()
        .expect("piped stdin")
        .write_all(b"process P0:\n  guess(x0)\n  free_of(x0)\n")
        .expect("write program");
    let out = child.wait_with_output().expect("run hope-lint");
    assert_eq!(out.status.code(), Some(1));
    let stdout = String::from_utf8(out.stdout).expect("utf8");
    assert!(stdout.contains("error[doomed-free-of] P0:1:"), "{stdout}");
    assert!(stdout.contains("1 error, 0 warnings"), "{stdout}");
}

#[test]
fn clean_file_exits_zero() {
    let dir = std::env::temp_dir();
    let path = dir.join("hope_lint_cli_clean.hope");
    std::fs::write(
        &path,
        "process P0:\n  guess(x0)\nprocess P1:\n  affirm(x0)\n",
    )
    .expect("write temp program");
    let out = hope_lint().arg(&path).output().expect("run hope-lint");
    assert_eq!(out.status.code(), Some(0));
    let stdout = String::from_utf8(out.stdout).expect("utf8");
    assert_eq!(stdout, "0 errors, 0 warnings\n");
    std::fs::remove_file(&path).ok();
}

#[test]
fn json_output_is_emitted() {
    let mut child = hope_lint()
        .args(["--json", "-"])
        .stdin(Stdio::piped())
        .stdout(Stdio::piped())
        .spawn()
        .expect("spawn hope-lint");
    child
        .stdin
        .take()
        .expect("piped stdin")
        .write_all(b"process P0:\n  recv\n")
        .expect("write program");
    let out = child.wait_with_output().expect("run hope-lint");
    assert_eq!(out.status.code(), Some(1));
    let stdout = String::from_utf8(out.stdout).expect("utf8");
    assert!(stdout.starts_with("[\n"), "{stdout}");
    assert!(
        stdout.contains("\"lint\": \"unreachable-recv\""),
        "{stdout}"
    );
    assert!(stdout.contains("\"severity\": \"error\""), "{stdout}");
}

#[test]
fn generate_mode_lints_without_a_file() {
    let out = hope_lint()
        .args(["--generate", "7,3,20,4", "--print"])
        .output()
        .expect("run hope-lint");
    let stdout = String::from_utf8(out.stdout).expect("utf8");
    // --print dumps the program before the diagnostics.
    assert!(stdout.starts_with("process P0:"), "{stdout}");
    assert!(
        stdout.contains("warning") || stdout.contains("error"),
        "{stdout}"
    );
}

#[test]
fn cascade_threshold_flag_is_honoured() {
    let program = "process P0:\n  guess(x0)\n  send(P1)\n  affirm(x0)\nprocess P1:\n  recv\n";
    for (threshold, expect_warn) in [("2", true), ("3", false)] {
        let mut child = hope_lint()
            .args(["--cascade-threshold", threshold, "-"])
            .stdin(Stdio::piped())
            .stdout(Stdio::piped())
            .spawn()
            .expect("spawn hope-lint");
        child
            .stdin
            .take()
            .expect("piped stdin")
            .write_all(program.as_bytes())
            .expect("write program");
        let out = child.wait_with_output().expect("run hope-lint");
        assert_eq!(
            out.status.code(),
            Some(0),
            "warnings never fail the exit code"
        );
        let stdout = String::from_utf8(out.stdout).expect("utf8");
        assert_eq!(
            stdout.contains("warning[cascade-depth]"),
            expect_warn,
            "threshold {threshold}: {stdout}"
        );
    }
}

fn run_on_stdin(args: &[&str], program: &str) -> std::process::Output {
    let mut child = hope_lint()
        .args(args)
        .arg("-")
        .stdin(Stdio::piped())
        .stdout(Stdio::piped())
        .spawn()
        .expect("spawn hope-lint");
    child
        .stdin
        .take()
        .expect("piped stdin")
        .write_all(program.as_bytes())
        .expect("write program");
    child.wait_with_output().expect("run hope-lint")
}

/// A chain whose only diagnostic-free speculation has a wide cascade:
/// clean, so both ranking modes must still exit 0.
const CHAIN: &str = "process P0:\n  guess(x0)\n  send(P1)\n  affirm(x0)\n\
                     process P1:\n  recv\n  compute\n";

#[test]
fn rank_mode_prints_damage_ordering_and_keeps_the_lint_verdict() {
    let out = run_on_stdin(&["--rank"], CHAIN);
    assert_eq!(out.status.code(), Some(0), "clean program stays exit 0");
    let stdout = String::from_utf8(out.stdout).expect("utf8");
    assert!(stdout.starts_with("#1 P0:0 guess(x0): damage "), "{stdout}");
    assert!(stdout.ends_with("1 speculation ranked\n"), "{stdout}");
    assert!(!stdout.contains("warning"), "{stdout}");

    // A doomed program still exits 1 under --rank: the ranking swaps the
    // output, not the verdict.
    let doomed = "process P0:\n  guess(x0)\n  free_of(x0)\n";
    let out = run_on_stdin(&["--rank"], doomed);
    assert_eq!(out.status.code(), Some(1), "errors still fail under --rank");
    let stdout = String::from_utf8(out.stdout).expect("utf8");
    assert!(stdout.contains("speculation ranked"), "{stdout}");
    assert!(!stdout.contains("doomed-free-of"), "{stdout}");
}

#[test]
fn cost_mode_lists_sites_in_program_order() {
    let two = "process P0:\n  compute\n  guess(x1)\n  affirm(x1)\n\
               process P1:\n  guess(x0)\n  affirm(x0)\n";
    let out = run_on_stdin(&["--cost"], two);
    assert_eq!(out.status.code(), Some(0));
    let stdout = String::from_utf8(out.stdout).expect("utf8");
    let lines: Vec<&str> = stdout.lines().collect();
    assert!(lines[0].starts_with("P0:1 guess(x1):"), "{stdout}");
    assert!(lines[1].starts_with("P1:0 guess(x0):"), "{stdout}");
    assert_eq!(lines[2], "2 speculations costed");

    let out = run_on_stdin(&["--cost", "--json"], two);
    let stdout = String::from_utf8(out.stdout).expect("utf8");
    assert!(
        stdout.starts_with("[\n  {\"proc\": 0, \"stmt\": 1,"),
        "{stdout}"
    );
    assert!(stdout.contains("\"damage\":"), "{stdout}");

    let out = run_on_stdin(&["--rank", "--json"], two);
    let stdout = String::from_utf8(out.stdout).expect("utf8");
    assert!(stdout.contains("\"rank\": 1"), "{stdout}");
}

#[test]
fn help_documents_the_exit_code_contract() {
    for flag in ["-h", "--help"] {
        let out = hope_lint().arg(flag).output().expect("run hope-lint");
        assert_eq!(out.status.code(), Some(0), "help exits 0");
        let stdout = String::from_utf8(out.stdout).expect("utf8");
        assert!(stdout.contains("Exit status:"), "{stdout}");
        for needle in [
            "no error-severity diagnostic",
            "at least one error-severity diagnostic",
            "usage error, unreadable input, or program parse failure",
            // The --mc refutation clause of the exit-2 contract: an
            // exhausted checker finding a pristine schedule for an
            // error-flagged program is an analyzer soundness bug.
            "pristine schedule for an error-flagged program",
            "analyzer",
            "soundness bug",
            "--rank",
            "--cost",
            "--cascade-threshold N",
        ] {
            assert!(stdout.contains(needle), "missing {needle:?}: {stdout}");
        }
    }
}

#[test]
fn mc_json_emits_agreement_counts_and_fraction() {
    // The aggregation contract: --json --mc reports confirmed/unverified/
    // refuted as 0/1 *counts* (so multi-run scripts can sum fields) plus
    // the explored fraction of the reduced schedule space.
    let out = run_on_stdin(
        &["--json", "--mc"],
        "process P0:\n  guess(x0)\nprocess P1:\n  affirm(x0)\n",
    );
    assert_eq!(out.status.code(), Some(0));
    let stdout = String::from_utf8(out.stdout).expect("utf8");
    assert!(stdout.contains("\"agreement\": \"confirmed\""), "{stdout}");
    assert!(
        stdout.contains("\"confirmed\": 1, \"unverified\": 0, \"refuted\": 0"),
        "{stdout}"
    );
    assert!(stdout.contains("\"explored_fraction\": 1.0000"), "{stdout}");
}

#[test]
fn mc_budget_fallback_logs_explored_fraction() {
    // Starved of states, the checker must say *how much* of the reduced
    // space it covered before giving up — in text and in JSON — and an
    // unverified run must not change the lint exit code.
    let program = "process P0:\n  guess(x0)\nprocess P1:\n  affirm(x0)\n";
    let out = run_on_stdin(&["--mc", "--mc-states", "1"], program);
    assert_eq!(out.status.code(), Some(0));
    let stdout = String::from_utf8(out.stdout).expect("utf8");
    assert!(stdout.contains("mc: budget-exceeded:states — "), "{stdout}");
    assert!(stdout.contains("mc: unverified"), "{stdout}");
    assert!(stdout.contains("% of the reduced space"), "{stdout}");

    let out = run_on_stdin(&["--json", "--mc", "--mc-states", "1"], program);
    assert_eq!(out.status.code(), Some(0));
    let stdout = String::from_utf8(out.stdout).expect("utf8");
    assert!(
        stdout.contains("\"confirmed\": 0, \"unverified\": 1, \"refuted\": 0"),
        "{stdout}"
    );
    assert!(
        !stdout.contains("\"explored_fraction\": 1.0000"),
        "{stdout}"
    );
    // The verdict names the budget that ran out.
    assert!(
        stdout.contains("\"verdict\": \"budget-exceeded:states\""),
        "{stdout}"
    );
}

#[test]
fn rank_and_cost_conflict_exits_two() {
    let out = hope_lint()
        .args(["--rank", "--cost", "-"])
        .output()
        .expect("run hope-lint");
    assert_eq!(out.status.code(), Some(2));
}

#[test]
fn bad_usage_and_bad_programs_exit_two() {
    let out = hope_lint().output().expect("run hope-lint");
    assert_eq!(out.status.code(), Some(2), "no source given");

    let out = hope_lint()
        .arg("--definitely-not-a-flag")
        .output()
        .expect("run hope-lint");
    assert_eq!(out.status.code(), Some(2));

    let mut child = hope_lint()
        .arg("-")
        .stdin(Stdio::piped())
        .stderr(Stdio::piped())
        .spawn()
        .expect("spawn hope-lint");
    child
        .stdin
        .take()
        .expect("piped stdin")
        .write_all(b"process P0:\n  hope(x0)\n")
        .expect("write program");
    let out = child.wait_with_output().expect("run hope-lint");
    assert_eq!(out.status.code(), Some(2), "parse error");
    let stderr = String::from_utf8(out.stderr).expect("utf8");
    assert!(stderr.contains("line 2"), "{stderr}");
}

/// Under `--mc`, a send to an undeclared process is an `invalid-target`
/// error the explorer cannot run: the diagnostics print, one line says the
/// explorer was skipped and why, and the exit is the lint verdict's 1 —
/// not an out-of-bounds panic.
#[test]
fn mc_skips_a_program_sending_to_an_undeclared_process() {
    let program = "process P0:\n  send(P5)\nprocess P1:\n  recv\n";
    let out = run_on_stdin(&["--mc"], program);
    assert_eq!(out.status.code(), Some(1));
    let stdout = String::from_utf8(out.stdout).expect("utf8");
    assert!(stdout.contains("error[invalid-target] P0:0:"), "{stdout}");
    let skipped: Vec<&str> = stdout.lines().filter(|l| l.starts_with("mc:")).collect();
    assert_eq!(skipped.len(), 1, "{stdout}");
    assert!(
        skipped[0].contains("skipped — P0:0 `send(P5)`: the program declares only 2 processes"),
        "{stdout}"
    );

    let out = run_on_stdin(&["--json", "--mc"], program);
    assert_eq!(out.status.code(), Some(1));
    let stdout = String::from_utf8(out.stdout).expect("utf8");
    assert!(stdout.contains("\"lint\": \"invalid-target\""), "{stdout}");
    assert!(stdout.contains("\"verdict\": \"skipped\""), "{stdout}");
}

/// `--generate` over zero AIDs still emits statements on `x0`: under
/// `--mc` the explorer is skipped naming the first, not a panic.
#[test]
fn mc_skips_a_generated_program_without_aids() {
    let out = hope_lint()
        .args(["--mc", "--generate", "1,2,3,0"])
        .output()
        .expect("run hope-lint");
    assert_eq!(out.status.code(), Some(1));
    let stdout = String::from_utf8(out.stdout).expect("utf8");
    assert!(stdout.contains("error[invalid-target]"), "{stdout}");
    assert!(
        stdout.contains("(x0)`: the program declares only 0 AIDs"),
        "{stdout}"
    );
    assert!(stdout.contains("mc: skipped"), "{stdout}");
}

/// `--mc` prints the checker's whole report and the agreement: as `mc:`
/// lines, and under `--json` as exactly these keys in this order.
#[test]
fn mc_report_has_every_field() {
    let out = hope_lint()
        .args(["--mc", "--generate", "3,2,3,2"])
        .output()
        .expect("run hope-lint");
    assert_eq!(out.status.code(), Some(1), "the program has an error lint");
    let stdout = String::from_utf8(out.stdout).expect("utf8");
    let mc: Vec<&str> = stdout.lines().filter(|l| l.starts_with("mc:")).collect();
    assert_eq!(
        mc,
        [
            "mc: exhausted — 16 states, 15 transitions (0 cache hits, 1 sleep-pruned, \
             5 singleton states)",
            "mc: terminals — 4 completed, 0 deadlocked; 2 distinct committed outcome(s)",
            "mc: confirmed — no schedule finalizes pristinely, proven over the full reduced \
             interleaving space",
        ],
        "{stdout}"
    );
    let out = run_on_stdin(&["--mc"], "process P0:\n  guess(x0)\n  affirm(x0)\n");
    let stdout = String::from_utf8(out.stdout).expect("utf8");
    assert!(stdout.contains("\nmc: witness — P0 P0\n"), "{stdout}");

    let out = hope_lint()
        .args(["--json", "--mc", "--generate", "3,2,3,2"])
        .output()
        .expect("run hope-lint");
    assert_eq!(out.status.code(), Some(1), "the program has an error lint");
    let stdout = String::from_utf8(out.stdout).expect("utf8");
    let mc = &stdout[stdout.find("\"mc\":").expect("an mc object")..];
    // Every quoted string of the object: its keys in order, plus the two
    // string values.
    let quoted: Vec<&str> = mc.split('"').skip(1).step_by(2).collect();
    assert_eq!(
        quoted,
        [
            "mc",
            "verdict",
            "exhausted",
            "states",
            "transitions",
            "cache_hits",
            "sleep_pruned",
            "singleton_states",
            "frontier_remaining",
            "explored_fraction",
            "completed_terminals",
            "deadlock_terminals",
            "distinct_outputs",
            "pristine_schedule",
            "proves_no_pristine_schedule",
            "agreement",
            "confirmed",
            "confirmed",
            "unverified",
            "refuted",
        ],
        "{stdout}"
    );
    assert!(mc.contains("\"pristine_schedule\": null"), "{stdout}");
}

/// A program comes from exactly one source: a second of any kind is a
/// usage error, not a silent override of the first.
#[test]
fn a_second_program_source_exits_two() {
    let file = std::path::Path::new(env!("CARGO_TARGET_TMPDIR")).join("two_sources.hope");
    std::fs::write(&file, "process P0:\n  guess(x0)\n  affirm(x0)\n").expect("write program");
    let file = file.to_str().expect("utf8 path");
    for args in [
        vec![file, file],
        vec![file, "-"],
        vec![file, "--generate", "1,2,3,2"],
        vec!["--generate", "1,2,3,2", "--generate", "3,2,3,2"],
    ] {
        let out = hope_lint()
            .args(&args)
            .stdin(Stdio::null())
            .output()
            .expect("run hope-lint");
        assert_eq!(out.status.code(), Some(2), "{args:?}");
        assert!(out.stdout.is_empty(), "{args:?}");
        let stderr = String::from_utf8(out.stderr).expect("utf8");
        assert!(
            stderr.contains("more than one program source given"),
            "{args:?}: {stderr}"
        );
    }
}

/// Spaces around a `--generate` number are ignored; anything else that is
/// not four numbers is a usage error.
#[test]
fn generate_spec_ignores_spaces_around_numbers() {
    let run = |spec: &str| {
        hope_lint()
            .args(["--print", "--generate", spec])
            .output()
            .expect("run hope-lint")
    };
    let plain = run("7,3,20,4");
    let spaced = run(" 7, 3 ,20 ,4 ");
    assert_eq!(spaced.status.code(), plain.status.code());
    assert_eq!(spaced.stdout, plain.stdout);
    for bad in ["7,3,20", "7,3,20,4,5", "7,3 2,20,4", "7,x,20,4"] {
        assert_eq!(run(bad).status.code(), Some(2), "{bad:?}");
    }
}
