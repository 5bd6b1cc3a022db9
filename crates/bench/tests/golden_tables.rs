//! The paper's tables, pinned: every experiment in
//! [`hope_bench::EXPERIMENTS`] is built — each table's own assertions run
//! as it is — rendered with [`hope_bench::tables_to_json`] and compared
//! byte for byte with `BENCH_tables.json` at the workspace root.
//!
//! Ignored by default: E19's 1M-guess open loop takes minutes in a debug
//! build. Run it in release:
//!
//! ```text
//! cargo test --release -p hope-bench --test golden_tables -- --ignored
//! ```
//!
//! A change that moves a number fails here, naming each differing line and
//! the experiment it belongs to. If the change is meant, re-record the file
//! with the command the failure prints and name the changed rows in the
//! change's notes.
//!
//! What the pin cannot see: it compares rendered strings, so a change below
//! a cell's print precision passes. [`hope_bench::fmt_ms`] prints whole
//! milliseconds from 100 ms up and 10 µs steps from 1 ms up, and
//! [`hope_bench::fmt_pct`] 0.1% steps. Raising callstream's server compute
//! by a tenth (100 → 110 µs) fails E1's 1–30 ms rows but leaves its 100 ms
//! row (`200ms`, `100ms`) as recorded.

use hope_bench::{tables_to_json, Table, EXPERIMENTS};

const RECORDED: &str = concat!(env!("CARGO_MANIFEST_DIR"), "/../../BENCH_tables.json");
const RERECORD: &str = "cargo run -p hope-bench --release --bin tables -- --json BENCH_tables.json";

/// Split `tables_to_json` output into one block of lines per experiment,
/// each starting at its `"experiment"` line.
fn blocks(json: &str) -> Vec<(&str, Vec<&str>)> {
    let mut out: Vec<(&str, Vec<&str>)> = Vec::new();
    for line in json.lines() {
        let id = line
            .trim()
            .strip_prefix("\"experiment\": \"")
            .and_then(|rest| rest.strip_suffix("\","));
        if let Some(id) = id {
            out.push((id, Vec::new()));
        }
        if let Some((_, lines)) = out.last_mut() {
            lines.push(line);
        }
    }
    out
}

fn lines_of<'a>(side: &'a [(&str, Vec<&'a str>)], id: &str) -> &'a [&'a str] {
    let found = side.iter().find(|(other, _)| *other == id);
    found.map_or(&[], |(_, lines)| lines)
}

/// Every line that differs, prefixed by its experiment: `-` as recorded,
/// `+` as built now. Lines are compared by position within an experiment.
fn differing_lines(recorded: &str, now: &str) -> Vec<String> {
    let (was, is) = (blocks(recorded), blocks(now));
    let mut ids: Vec<&str> = was.iter().map(|(id, _)| *id).collect();
    for (id, _) in &is {
        if !ids.contains(id) {
            ids.push(id);
        }
    }
    let mut out = Vec::new();
    for id in ids {
        let (a, b) = (lines_of(&was, id), lines_of(&is, id));
        for k in 0..a.len().max(b.len()) {
            if a.get(k) != b.get(k) {
                out.extend(a.get(k).map(|l| format!("{id}: - {}", l.trim())));
                out.extend(b.get(k).map(|l| format!("{id}: + {}", l.trim())));
            }
        }
    }
    out
}

#[test]
#[ignore = "E19's 1M-guess loop takes minutes in debug; run with --release -- --ignored"]
fn every_table_equals_the_recorded_file() {
    let recorded = std::fs::read_to_string(RECORDED)
        .unwrap_or_else(|e| panic!("cannot read {RECORDED}: {e}; record it with `{RERECORD}`"));
    let built: Vec<(&str, Table)> = EXPERIMENTS
        .iter()
        .map(|&(id, build)| (id, build()))
        .collect();
    let now = tables_to_json(&built);
    if now != recorded {
        let diff = differing_lines(&recorded, &now);
        panic!(
            "the tables differ from BENCH_tables.json in {} line(s):\n{}\n\
             if the change is meant, re-record with `{RERECORD}` and name the changed rows",
            diff.len(),
            diff.join("\n")
        );
    }
}

#[test]
fn a_changed_row_is_named_with_its_experiment() {
    let table = |cell: &str| {
        let mut t = Table::new("T", &["k", "v"]);
        t.push(vec!["a".into(), "1".into()]);
        t.push(vec!["b".into(), cell.into()]);
        t
    };
    let recorded = tables_to_json(&[("e1", table("2")), ("e2", table("2"))]);
    let now = tables_to_json(&[("e1", table("2")), ("e2", table("3"))]);
    assert_eq!(
        differing_lines(&recorded, &now),
        vec![
            "e2: - {\"k\": \"b\", \"v\": \"2\"}",
            "e2: + {\"k\": \"b\", \"v\": \"3\"}",
        ]
    );
    assert!(differing_lines(&recorded, &recorded).is_empty());
}
