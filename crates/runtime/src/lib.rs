//! # hope-runtime — speculative processes with automatic rollback
//!
//! This crate is the practical embedding of the HOPE programming model
//! (Cowan & Lutfiyya, PODC 1995): processes written as ordinary Rust
//! closures gain the four optimism primitives — `guess`, `affirm`, `deny`,
//! `free_of` — with all dependency tracking, message tagging, checkpointing
//! and cascading rollback automated, as the paper prescribes. Where the
//! authors' prototype ran on PVM, this runtime runs on a deterministic
//! virtual-time scheduler (see `hope-sim`), so every run — including every
//! rollback cascade — is exactly reproducible.
//!
//! ## The model
//!
//! * [`Simulation::spawn`] registers a process: a closure
//!   `Fn(&mut Ctx) -> Hope<()>`.
//! * [`Ctx::guess`] speculatively returns `true`; if the assumption is
//!   denied, the process **rolls back**: its journal is truncated at the
//!   guess, the body is re-executed (journal replay makes the prefix free
//!   and deterministic), and the guess returns `false`.
//! * Messages carry dependence tags automatically; receiving from a
//!   speculative sender makes the receiver speculative (implicit guess);
//!   messages from rolled-back computations are ghosts and are never
//!   delivered.
//! * [`Ctx::output`] is subject to output commit: speculative lines are
//!   buffered until their interval finalizes, and discarded on rollback.
//!
//! ## Example
//!
//! ```
//! use hope_runtime::{SimConfig, Simulation, Value};
//! use hope_sim::VirtualDuration;
//!
//! let mut sim = Simulation::new(SimConfig::with_seed(7));
//! let verifier = hope_core::ProcessId(1);
//! sim.spawn("optimist", move |ctx| {
//!     let lock_granted = ctx.aid_init()?;
//!     ctx.send(verifier, Value::Int(lock_granted.index() as i64))?;
//!     if ctx.guess(lock_granted)? {
//!         // ... proceed as if the lock were already held ...
//!         ctx.output("updated record under optimistic lock")?;
//!     } else {
//!         ctx.output("lock denied; queuing request")?;
//!     }
//!     Ok(())
//! });
//! sim.spawn("lock-manager", |ctx| {
//!     let m = ctx.recv()?;
//!     let aid = hope_core::AidId::from_index(m.payload.expect_int() as u64);
//!     ctx.compute(VirtualDuration::from_micros(10))?;
//!     ctx.affirm(aid)?; // the lock really was free
//!     Ok(())
//! });
//! let report = sim.run();
//! assert_eq!(report.output_lines(), vec!["updated record under optimistic lock"]);
//! ```

#![forbid(unsafe_code)]
#![deny(missing_docs)]
#![warn(missing_debug_implementations)]

mod baton;
pub mod chaos;
mod config;
mod ctx;
mod event;
pub mod governor;
mod journal;
pub mod mc;
mod message;
mod oracle;
mod scheduler;
mod shared;
mod signal;
mod stats;
mod value;

pub use chaos::{knob_lattice, sweep, VariantRun};
pub use config::SimConfig;
pub use ctx::Ctx;
pub use event::RunEvent;
pub use governor::{
    GovernorConfig, GovernorMode, GovernorStats, ModeTransition, DEFAULT_GUESS_SITE,
    RELIABLE_SEND_SITE,
};
pub use journal::JOURNAL_ENTRY_BYTES;
pub use mc::{check_scenario, SimCompleteness, SimMcConfig, SimMcReport};
pub use message::{Message, MsgKind};
pub use scheduler::Simulation;
pub use signal::{Hope, Signal};
pub use stats::{Committed, CrashReason, FaultStats, MemoryStats, OutputLine, RunReport, RunStats};
pub use value::Value;

// Re-export the identifier types users need to talk about processes and
// assumptions, so simple programs need not depend on hope-core directly —
// and the fault-plan vocabulary, so chaos tests need not depend on
// hope-sim.
pub use hope_core::{AidId, AidState, ProcessId};
pub use hope_sim::{FaultPlan, Kill, LinkVerdict, Partition, VirtualDuration, VirtualTime};
