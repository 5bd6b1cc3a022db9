//! # hope-sim — a deterministic distributed-system substrate
//!
//! The HOPE prototype (§7 of the paper) ran on PVM: real UNIX processes on
//! a real network. A reproduction needs results that are stable across
//! machines, so this crate substitutes PVM with a *deterministic
//! discrete-event simulation substrate*: virtual time ([`VirtualTime`],
//! [`VirtualDuration`]), per-link latency models ([`LatencyModel`],
//! [`Topology`]), a CPU model for the paper's §3.1 instruction arithmetic
//! ([`CpuModel`]), seeded randomness ([`SimRng`]) and a deterministic event
//! queue ([`EventQueue`]).
//!
//! `hope-runtime` builds the actual process/scheduler machinery on these
//! parts; this crate has no dependency on the semantics engine and is
//! reusable for any message-passing simulation.
//!
//! ## Example
//!
//! ```
//! use hope_sim::{CpuModel, LatencyModel, SimRng, Topology, VirtualDuration};
//!
//! // The paper's setting: coast-to-coast links, a 100 MIPS CPU.
//! let topo = Topology::coast_to_coast();
//! let cpu = CpuModel::mips(100);
//! let mut rng = SimRng::new(42);
//!
//! let one_way = topo.sample(0, 1, &mut rng);
//! assert_eq!(one_way, VirtualDuration::from_millis(15));
//! // Instructions wasted waiting for one round trip:
//! assert_eq!(cpu.instructions_in(one_way * 2), 3_000_000);
//! ```

#![forbid(unsafe_code)]
#![deny(missing_docs)]
#![warn(missing_debug_implementations)]

mod event;
mod faults;
mod latency;
mod rng;
mod time;
mod topology;

pub use event::EventQueue;
pub use faults::{FaultPlan, Kill, LinkVerdict, Partition};
pub use latency::{CpuModel, LatencyModel};
pub use rng::SimRng;
pub use time::{VirtualDuration, VirtualTime};
pub use topology::{NodeId, Topology};
