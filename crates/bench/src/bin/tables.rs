//! Print the experiment tables.
//!
//! ```text
//! cargo run -p hope-bench --release --bin tables            # all
//! cargo run -p hope-bench --release --bin tables -- e1 e6   # selected
//! cargo run -p hope-bench --release --bin tables -- --json out.json e16
//! ```
//!
//! `--json <path>` additionally writes the selected tables as a JSON
//! array of experiment objects (see [`hope_bench::tables_to_json`]) —
//! the format of the checked-in `BENCH_e16.json`, `BENCH_e19.json` and
//! `BENCH_e21.json`.

use hope_bench::{table_for, tables_to_json, EXPERIMENT_IDS};

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let mut json_path: Option<String> = None;
    let mut ids: Vec<&str> = Vec::new();
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
            ids.push(arg.as_str());
        }
    }
    if ids.is_empty() {
        ids = EXPERIMENT_IDS.to_vec();
    }
    for id in &ids {
        if !EXPERIMENT_IDS.contains(id) {
            eprintln!("unknown experiment {id:?}; known: {EXPERIMENT_IDS:?}");
            std::process::exit(2);
        }
    }
    println!("# HOPE reproduction — experiment tables\n");
    let mut computed = Vec::new();
    for id in ids {
        let table = table_for(id);
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
