//! # HOPE — Hopefully Optimistic Programming Environment
//!
//! A comprehensive Rust reproduction of *Formal Semantics for Expressing
//! Optimism: The Meaning of HOPE* (Cowan & Lutfiyya, PODC 1995).
//!
//! **Optimism is any computation that uses rollback.** A program increases
//! concurrency by making an optimistic assumption about its future state
//! and verifying the assumption in parallel with computations based on it.
//! HOPE is one data type and four primitives:
//!
//! | primitive | meaning |
//! |-----------|---------|
//! | `AID`        | a first-class name for an optimistic assumption |
//! | `guess(x)`   | proceed as if `x` holds; returns `true` now, `false` after rollback |
//! | `affirm(x)`  | the assumption was right |
//! | `deny(x)`    | it was wrong — roll back every causal descendant |
//! | `free_of(x)` | this computation is, and will remain, independent of `x` |
//!
//! Everything else — dependency tracking, message tagging, checkpointing,
//! cascading rollback, output commit — is automatic.
//!
//! ## Crate map
//!
//! * [`core`] (`hope-core`) — the paper's §4–§5 semantics, executable: the
//!   `Engine`, intervals, `IDO`/`DOM`/`IHD` bookkeeping,
//!   and the literal abstract machine used to verify the §6 theorems.
//! * [`analysis`] (`hope-analysis`) — static speculation-flow analysis and
//!   lints over machine programs, plus the `hope-lint` binary; statically
//!   doomed programs can be rejected before they run.
//! * [`mc`] (`hope-mc`) — a reduced exhaustive scheduler over the abstract
//!   machine, run from the command line as `hope-lint --mc`: verdicts over
//!   *every* inequivalent schedule of a small program, not a sampled
//!   handful.
//! * [`sim`] (`hope-sim`) — the deterministic distributed-system substrate
//!   (virtual time, latency models, topologies, seeded RNG).
//! * [`runtime`] (`hope-runtime`) — processes as plain closures with the
//!   HOPE primitives, journal-replay rollback, ghost filtering and output
//!   commit on a virtual-time scheduler.
//! * [`callstream`] (`hope-callstream`) — the Call Streaming protocol of
//!   Figures 1–2, including the paper's page-printer example.
//! * [`timewarp`] (`hope-timewarp`) — Time Warp expressed in HOPE (the §2
//!   subsumption claim).
//! * [`replication`] (`hope-replication`) — optimistic replication (§7
//!   future work).
//! * [`recovery`] (`hope-recovery`) — optimistic message logging /
//!   recovery (§1, §2, \[24\]).
//! * [`numeric`] (`hope-numeric`) — optimistic numerical computation
//!   (§7 future work, ref \[7\]): Jacobi iteration with speculative halo
//!   exchange.
//! * [`tms`] (`hope-tms`) — distributed truth maintenance (§7 future
//!   work, ref \[12\]): dependency-directed backtracking as rollback.
//! * [`coedit`] (`hope-coedit`) — lock-free co-operative editing (§7
//!   future work, ref \[5\]): conflict repair by rollback and rebase.
//!
//! ## Quickstart
//!
//! ```
//! use hope::runtime::{SimConfig, Simulation, Value};
//! use hope::sim::VirtualDuration;
//!
//! let mut sim = Simulation::new(SimConfig::with_seed(42));
//! let verifier = hope::core::ProcessId(1);
//! sim.spawn("optimist", move |ctx| {
//!     let assumption = ctx.aid_init()?;
//!     ctx.send(verifier, Value::Int(assumption.index() as i64))?;
//!     if ctx.guess(assumption)? {
//!         ctx.output("fast path taken")?;
//!     } else {
//!         ctx.output("slow path taken")?;
//!     }
//!     Ok(())
//! });
//! sim.spawn("verifier", |ctx| {
//!     let m = ctx.recv()?;
//!     let aid = hope::core::AidId::from_index(m.payload.expect_int() as u64);
//!     ctx.compute(VirtualDuration::from_millis(3))?; // the slow check
//!     ctx.affirm(aid)?;
//!     Ok(())
//! });
//! let report = sim.run();
//! assert_eq!(report.output_lines(), vec!["fast path taken"]);
//! ```
//!
//! See `examples/` for complete programs and `DESIGN.md`/`EXPERIMENTS.md`
//! for the experiment index.

#![forbid(unsafe_code)]
#![deny(missing_docs)]

pub use hope_analysis as analysis;
pub use hope_callstream as callstream;
pub use hope_coedit as coedit;
pub use hope_core as core;
pub use hope_mc as mc;
pub use hope_numeric as numeric;
pub use hope_recovery as recovery;
pub use hope_replication as replication;
pub use hope_runtime as runtime;
pub use hope_sim as sim;
pub use hope_timewarp as timewarp;
pub use hope_tms as tms;

// The most commonly used items, at the top level for convenience.
pub use hope_core::{AidId, AidState, Engine, ProcessId, Tag};
pub use hope_runtime::{Ctx, Hope, SimConfig, Simulation, Value};
pub use hope_sim::{VirtualDuration, VirtualTime};
