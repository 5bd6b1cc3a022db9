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
//! tables, or pass experiment ids (`e1 e6 …`) to select. Host-time costs
//! are E22's to measure.

#![forbid(unsafe_code)]
#![deny(missing_docs)]
#![warn(missing_debug_implementations)]

pub mod experiments;
mod table;

pub use table::{fmt_ms, fmt_pct, tables_to_json, Table};

/// All experiment ids known to the `tables` binary, in order.
pub const EXPERIMENT_IDS: &[&str] = &[
    "e1", "e2", "e3", "e4", "e5", "e6", "e7", "e8", "e10", "e11", "e12", "e13", "e14", "e16",
    "e17", "e19", "e20", "e21",
];

/// Produce the table for one experiment id.
///
/// # Panics
///
/// Panics on an unknown id (the binary validates first).
pub fn table_for(id: &str) -> Table {
    match id {
        "e1" => experiments::e1_callstream::table(),
        "e2" => experiments::e2_chain::table(),
        "e3" => experiments::e3_arithmetic::table(),
        "e4" => experiments::e4_accuracy::table(),
        "e5" => experiments::e5_cascade::table(),
        "e6" => experiments::e6_timewarp::table(),
        "e7" => experiments::e7_replication::table(),
        "e8" => experiments::e8_ablation::table(),
        "e10" => experiments::e10_recovery::table(),
        "e11" => experiments::e11_numeric::table(),
        "e12" => experiments::e12_tms::table(),
        "e13" => experiments::e13_coedit::table(),
        "e14" => experiments::e14_costmodel::table(),
        "e16" => experiments::e16_chaos::table(),
        "e17" => experiments::e17_mc::table(),
        "e19" => experiments::e19_memory::table(),
        "e20" => experiments::e20_sim_mc::table(),
        "e21" => experiments::e21_governor::table(),
        other => panic!("unknown experiment id {other:?} (known: {EXPERIMENT_IDS:?})"),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn every_listed_experiment_produces_a_table() {
        // e3 is instant; the others are exercised by their own tests. Here
        // we only check the dispatch covers the cheap one and rejects junk.
        let t = table_for("e3");
        assert!(!t.is_empty());
    }

    #[test]
    #[should_panic(expected = "unknown experiment id")]
    fn unknown_id_panics() {
        table_for("e99");
    }
}
