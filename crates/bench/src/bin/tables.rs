//! Print the experiment tables.
//!
//! ```text
//! cargo run -p hope-bench --release --bin tables            # all
//! cargo run -p hope-bench --release --bin tables -- e1 e6   # selected
//! cargo run -p hope-bench --release --bin tables -- --json BENCH_tables.json
//! ```
//!
//! `--json <path>` additionally writes the selected tables as a JSON
//! array of experiment objects (see [`hope_bench::tables_to_json`]). Run
//! over every experiment, it writes the checked-in `BENCH_tables.json`,
//! which `tests/golden_tables.rs` compares byte for byte; the last command
//! above re-records it. An unknown experiment id exits 2.

use hope_bench::{tables_to_json, Experiment, EXPERIMENTS};

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let mut json_path: Option<String> = None;
    let mut selected: Vec<Experiment> = Vec::new();
    let mut it = args.iter();
    while let Some(arg) = it.next() {
        if arg == "--json" {
            match it.next() {
                Some(p) => json_path = Some(p.clone()),
                None => {
                    eprintln!("--json requires a path argument");
                    std::process::exit(2);
                }
            }
        } else {
            match EXPERIMENTS.iter().find(|(id, _)| id == arg) {
                Some(&experiment) => selected.push(experiment),
                None => {
                    let known: Vec<&str> = EXPERIMENTS.iter().map(|(id, _)| *id).collect();
                    eprintln!("unknown experiment {arg:?}; known: {known:?}");
                    std::process::exit(2);
                }
            }
        }
    }
    if selected.is_empty() {
        selected = EXPERIMENTS.to_vec();
    }
    println!("# HOPE reproduction — experiment tables\n");
    let mut computed = Vec::new();
    for (id, build) in selected {
        let table = build();
        println!("{table}");
        computed.push((id, table));
    }
    if let Some(path) = json_path {
        let json = tables_to_json(&computed);
        if let Err(e) = std::fs::write(&path, json) {
            eprintln!("failed to write {path}: {e}");
            std::process::exit(1);
        }
        eprintln!("wrote {path}");
    }
}
