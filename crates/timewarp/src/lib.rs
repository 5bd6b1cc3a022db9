//! # hope-timewarp — Time Warp, expressed in HOPE
//!
//! The paper's related-work section (§2) positions HOPE against Jefferson's
//! Time Warp: Time Warp hard-codes *one* optimistic assumption — that
//! messages arrive at each process in timestamp order — while HOPE "can
//! specify any optimistic assumption, including message arrival order".
//! This crate makes the subsumption concrete by building an optimistic
//! parallel discrete-event simulator *on top of* the HOPE primitives:
//!
//! * one **guard** AID per processed event encodes the timestamp-order
//!   assumption ([`run_lp`]);
//! * stragglers `deny` guards; HOPE's cascading rollback replaces Time
//!   Warp's hand-rolled rollback **and** its anti-messages (ghost-message
//!   filtering does the cancellation);
//! * channel-min fossil collection `affirm`s safe guards, standing in for
//!   GVT.
//!
//! The [`phold`] module provides the standard PHOLD workload and a
//! sequential baseline for experiment E6.

#![forbid(unsafe_code)]
#![deny(missing_docs)]
#![warn(missing_debug_implementations)]

mod event;
pub mod horizon;
mod lp;
pub mod phold;

pub use event::Event;
pub use horizon::ChannelHorizon;
pub use lp::{run_lp, LpConfig};
pub use phold::scenario;
