//! The built binary, driven as a user would: `--smoke` runs all five
//! workloads at 1/50 size through the same child processes, pinning,
//! gates and determinism check as a full run.

use std::path::Path;
use std::process::{Command, Output};
use std::time::{Duration, Instant};

const WORKLOADS: [&str; 5] = [
    "open_loop",
    "pipeline_deep",
    "pipeline_lossy",
    "phold",
    "mc_exhaust",
];

fn e22(args: &[&str]) -> Output {
    Command::new(env!("CARGO_BIN_EXE_hope-e22"))
        .args(args)
        .output()
        .expect("run hope-e22")
}

fn smoke_report(seed: &str) -> String {
    let started = Instant::now();
    let out = e22(&["--smoke", "--seed", seed]);
    let stdout = String::from_utf8(out.stdout).expect("utf-8 report");
    assert!(
        out.status.success(),
        "--smoke failed: {}\n{stdout}",
        String::from_utf8_lossy(&out.stderr)
    );
    assert!(
        started.elapsed() < Duration::from_secs(15),
        "--smoke took {:?}",
        started.elapsed()
    );
    stdout
}

#[test]
fn smoke_runs_every_workload_through_its_gate() {
    let report = smoke_report("22");
    assert!(report.contains("\"correct\": true"), "{report}");
    assert!(!report.contains("\"correct\": false"), "{report}");
    for w in WORKLOADS {
        assert!(
            report.contains(&format!("\"name\": \"{w}\"")),
            "{w} missing"
        );
    }
    // Traced: the layer readings are there, and tracing left a mark.
    assert!(
        report.contains("\"runtime.journal.body_attempts\""),
        "{report}"
    );
    assert!(report.contains("\"trace.overhead_ratio\""), "{report}");
}

#[test]
fn two_smoke_reports_of_one_seed_compare_with_identical_counts() {
    let dir = Path::new(env!("CARGO_TARGET_TMPDIR"));
    let (a, b) = (dir.join("smoke-a.json"), dir.join("smoke-b.json"));
    std::fs::write(&a, smoke_report("7")).expect("write A");
    std::fs::write(&b, smoke_report("7")).expect("write B");
    let out = e22(&[
        "--compare",
        a.to_str().expect("utf-8 path"),
        b.to_str().expect("utf-8 path"),
    ]);
    let table = String::from_utf8(out.stdout).expect("utf-8 table");
    // Timings at smoke size are noise; the exact counts are not.
    assert!(table.contains("identical"), "{table}");
    assert!(!table.contains("DIFFERS"), "{table}");
    for w in WORKLOADS {
        assert!(table.contains(w), "{w} missing from\n{table}");
    }
}

#[test]
fn bad_command_lines_exit_with_usage_status_and_print_no_result() {
    for args in [&["--workload", "nope"][..], &["--frobnicate"], &["--seed"]] {
        let out = e22(args);
        assert_eq!(out.status.code(), Some(2), "{args:?}");
        assert!(out.stdout.is_empty(), "{args:?} printed a result");
    }
}
