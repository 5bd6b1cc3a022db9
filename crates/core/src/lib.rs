//! # hope-core — the formal semantics of HOPE, executable
//!
//! This crate is a faithful, executable transcription of the operational
//! semantics in *Formal Semantics for Expressing Optimism: The Meaning of
//! HOPE* (Cowan & Lutfiyya, PODC 1995).
//!
//! HOPE defines **optimism** as any computation that uses rollback. A
//! program increases concurrency by making an optimistic assumption about a
//! future state and verifying the assumption in parallel with computations
//! based on it. HOPE's programming model is one data type and four
//! primitives:
//!
//! * an **assumption identifier** ([`AidId`]) names an optimistic
//!   assumption;
//! * [`guess`](Engine::guess) begins computing under an assumption
//!   (speculatively returning `true`);
//! * [`affirm`](Engine::affirm) asserts the assumption was correct;
//! * [`deny`](Engine::deny) asserts it was wrong, rolling back every
//!   dependent computation transitively;
//! * [`free_of`](Engine::free_of) asserts the caller is — and will remain —
//!   causally independent of the assumption.
//!
//! The crate's centrepiece is the [`Engine`]: it owns AIDs, intervals
//! (units of rollback, [`IntervalId`]) and per-process histories, performs
//! all dependency tracking (the `IDO`/`DOM`/`IHD` control variables of §4–5)
//! and reports every consequence of a transition as an ordered [`Effect`]
//! list for an embedding runtime to act on. Inter-process dependence flows
//! through message [`Tag`]s and [`Engine::implicit_guess`].
//!
//! The [`machine`] module additionally provides the paper's abstract machine
//! *literally* — explicit state sequences `H_P : S0 E0 S1 E1 …` with the
//! `G`, `I` and `IS` state variables — which the test suite uses to verify
//! the paper's lemmas and theorems mechanically (see `tests/` and the
//! `hope` facade crate's theorem suite).
//!
//! ## Example
//!
//! The Worker/WorryWart page-printer of the paper's Figure 2, reduced to
//! engine transitions:
//!
//! ```
//! use hope_core::{AidState, Checkpoint, Engine};
//!
//! let mut engine = Engine::new();
//! let worker = engine.register_process();
//! let worrywart = engine.register_process();
//!
//! // Worker: PartPage = aid_init(); if guess(PartPage) { skip newpage }
//! let part_page = engine.aid_init(worker);
//! let (outcome, _) = engine.guess(worker, &[part_page], Checkpoint(0))?;
//! assert!(outcome.value()); // proceed optimistically
//!
//! // WorryWart: line = print(...); if line < PAGE_SIZE { affirm } else { deny }
//! let line = 37; // the RPC's actual result
//! let effects = if line < 60 {
//!     engine.affirm(worrywart, part_page)?
//! } else {
//!     engine.deny(worrywart, part_page)?
//! };
//!
//! // The assumption held: the Worker's speculative interval finalized.
//! assert!(effects.iter().any(|e| matches!(e, hope_core::Effect::Finalized { .. })));
//! assert_eq!(engine.aid_state(part_page)?, AidState::Affirmed);
//! # Ok::<(), hope_core::Error>(())
//! ```

#![forbid(unsafe_code)]
#![deny(missing_docs)]
#![warn(missing_debug_implementations)]

mod aid;
mod effect;
mod engine;
mod error;
mod ids;
mod interval;
mod tag;

pub mod depset;
pub mod machine;
pub mod observer;
pub mod program;
pub mod store;
pub mod trace;

pub use aid::{AidState, AidView};
pub use depset::DepSet;
pub use effect::{Effect, GuessOutcome};
pub use engine::{Engine, EngineStats, FossilSweep};
pub use error::{Error, Result};
pub use ids::{AidId, IntervalId, ProcessId};
pub use interval::{Checkpoint, IntervalStatus, IntervalView};
pub use observer::{Action, DecideKind, NullObserver, RuntimeObserver};
pub use tag::{ReceiveOutcome, Tag};
