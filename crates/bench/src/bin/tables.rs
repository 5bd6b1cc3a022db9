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
//! above re-records it. An unknown experiment id exits 2. A closed stdout
//! (`tables | head`) ends the printing: without `--json` the program exits
//! 0 there, with it the remaining tables are still built for the file.

use std::io::{ErrorKind, StdoutLock, Write};

use hope_bench::{tables_to_json, Experiment, EXPERIMENTS};

/// Write `text` to stdout while it is open. A broken pipe closes it
/// (`None`); any other error exits 1.
fn print(stdout: &mut Option<StdoutLock<'_>>, text: &str) {
    let Some(out) = stdout else { return };
    match out.write_all(text.as_bytes()) {
        Ok(()) => {}
        Err(e) if e.kind() == ErrorKind::BrokenPipe => *stdout = None,
        Err(e) => {
            eprintln!("cannot write to stdout: {e}");
            std::process::exit(1);
        }
    }
}

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
    let mut stdout = Some(std::io::stdout().lock());
    print(&mut stdout, "# HOPE reproduction — experiment tables\n\n");
    let mut computed = Vec::new();
    for (id, build) in selected {
        if stdout.is_none() && json_path.is_none() {
            return;
        }
        let table = build();
        print(&mut stdout, &format!("{table}\n"));
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
