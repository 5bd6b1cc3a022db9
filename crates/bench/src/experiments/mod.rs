//! The experiment suite: one module per table/figure/claim reproduced.
//!
//! Each module exposes a `table()` function producing the default
//! [`Table`](crate::Table) printed by the `tables` binary, plus
//! parameterized `run` helpers its tests reuse. The
//! experiment ids (E1…E10) are indexed in `DESIGN.md` and their outcomes
//! recorded in `EXPERIMENTS.md`.

pub mod e10_recovery;
pub mod e11_numeric;
pub mod e12_tms;
pub mod e13_coedit;
pub mod e14_costmodel;
pub mod e16_chaos;
pub mod e17_mc;
pub mod e19_memory;
pub mod e1_callstream;
pub mod e20_sim_mc;
pub mod e21_governor;
pub mod e2_chain;
pub mod e3_arithmetic;
pub mod e4_accuracy;
pub mod e5_cascade;
pub mod e6_timewarp;
pub mod e7_replication;
pub mod e8_ablation;

use hope_runtime::{ProcessId, RunReport};
use hope_sim::VirtualDuration;

/// Convenience: milliseconds.
pub fn ms(v: u64) -> VirtualDuration {
    VirtualDuration::from_millis(v)
}

/// Convenience: microseconds.
pub fn us(v: u64) -> VirtualDuration {
    VirtualDuration::from_micros(v)
}

/// Completion of `pid` in virtual milliseconds: the later of its body
/// finishing and its last output committing. Optimistic bodies return
/// almost immediately; what matters is when their results become definite.
///
/// # Panics
///
/// Panics if the process neither finished nor committed any output.
pub fn completion_ms(report: &RunReport, pid: ProcessId) -> f64 {
    report
        .completion_time(pid)
        .unwrap_or_else(|| panic!("{pid} produced no results: {report}"))
        .as_millis_f64()
}
