//! # hope-bench — the experiment harness
//!
//! Regenerates every empirical artifact of the paper (and the extensions
//! this reproduction adds) as plain-text tables:
//!
//! | id  | artifact | module |
//! |-----|----------|--------|
//! | E1  | Figures 1–2, page printer latency | [`experiments::e1_callstream`] |
//! | E2  | §7 "up to 80%" gain vs chain length | [`experiments::e2_chain`] |
//! | E3  | §3.1 latency arithmetic | [`experiments::e3_arithmetic`] |
//! | E4  | gain vs prediction accuracy | [`experiments::e4_accuracy`] |
//! | E5  | Theorem 5.1 cascade reach | [`experiments::e5_cascade`] |
//! | E6  | §2 Time Warp subsumption (PHOLD) | [`experiments::e6_timewarp`] |
//! | E7  | §7 optimistic replication | [`experiments::e7_replication`] |
//! | E8  | §7 checkpoint/tracking ablation | [`experiments::e8_ablation`] |
//! | E10 | §1/§2 optimistic recovery | [`experiments::e10_recovery`] |
//! | E11 | §7 numerical computation (ref \[7\]) | [`experiments::e11_numeric`] |
//! | E12 | §7 truth maintenance (ref \[12\]) | [`experiments::e12_tms`] |
//! | E13 | §7 co-operative work (ref \[5\]) | [`experiments::e13_coedit`] |
//! | E14 | cost-model calibration | [`experiments::e14_costmodel`] |
//! | E16 | chaos: throughput vs fault rate | [`experiments::e16_chaos`] |
//! | E17 | model checking: naive vs reduced, schedule-complete verdicts | [`experiments::e17_mc`] |
//! | E19 | memory vs commit horizon (fossil collection) | [`experiments::e19_memory`] |
//! | E20 | Simulation-layer schedule exhaustion | [`experiments::e20_sim_mc`] |
//! | E21 | deny-storm admission control: governor off vs on | [`experiments::e21_governor`] |
//!
//! (E9, the theorem suite, runs under `cargo test` — see `tests/theorems.rs`
//! at the workspace root. E15 and E18 are retired; EXPERIMENTS.md keeps
//! their records. E22, the host-time benchmark, is the separate
//! `benchmark/` package.)
//!
//! Run `cargo run -p hope-bench --release --bin tables` to print all
//! tables, or pass experiment ids (`e1 e6 …`) to select. Every table is
//! recorded in `BENCH_tables.json` at the workspace root and checked
//! byte for byte by `tests/golden_tables.rs`; re-record it with
//! `cargo run -p hope-bench --release --bin tables -- --json BENCH_tables.json`.
//! No table reads the host clock: host-time costs are E22's to measure.

#![forbid(unsafe_code)]
#![deny(missing_docs)]
#![warn(missing_debug_implementations)]

pub mod experiments;
mod table;

pub use table::{fmt_ms, fmt_pct, tables_to_json, Table};

/// One experiment: its id (what the `tables` binary takes on its command
/// line and what [`tables_to_json`] writes as `"experiment"`) and the
/// function building its table.
pub type Experiment = (&'static str, fn() -> Table);

/// Every experiment the harness regenerates, in order. The `tables`
/// binary and the golden test over `BENCH_tables.json` both iterate this
/// one list.
pub const EXPERIMENTS: &[Experiment] = &[
    ("e1", experiments::e1_callstream::table),
    ("e2", experiments::e2_chain::table),
    ("e3", experiments::e3_arithmetic::table),
    ("e4", experiments::e4_accuracy::table),
    ("e5", experiments::e5_cascade::table),
    ("e6", experiments::e6_timewarp::table),
    ("e7", experiments::e7_replication::table),
    ("e8", experiments::e8_ablation::table),
    ("e10", experiments::e10_recovery::table),
    ("e11", experiments::e11_numeric::table),
    ("e12", experiments::e12_tms::table),
    ("e13", experiments::e13_coedit::table),
    ("e14", experiments::e14_costmodel::table),
    ("e16", experiments::e16_chaos::table),
    ("e17", experiments::e17_mc::table),
    ("e19", experiments::e19_memory::table),
    ("e20", experiments::e20_sim_mc::table),
    ("e21", experiments::e21_governor::table),
];

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn every_listed_experiment_produces_a_table() {
        // Ids are unique; e3 is instant, so it stands in for building one.
        // Every table is built and compared by `tests/golden_tables.rs`.
        for (i, (id, _)) in EXPERIMENTS.iter().enumerate() {
            assert!(
                EXPERIMENTS[..i].iter().all(|(other, _)| other != id),
                "duplicate experiment id {id:?}"
            );
        }
        let (_, e3) = EXPERIMENTS.iter().find(|(id, _)| *id == "e3").unwrap();
        assert!(!e3().is_empty());
    }
}
