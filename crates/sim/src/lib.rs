//! Deterministic discrete-event simulation of asynchronous page rankers.
//!
//! The paper's §5 setup: "To simulate the asynchronism of computation on
//! different nodes, each group u waits for Tw(u, m) time units before
//! starting a new loop step m ... Tw(u,m) follows exponential distribution
//! for a fixed u, and the mean waiting time of each page group are randomly
//! selected from [T1, T2] ... To simulate potential network failures, we
//! assume vector Y may fail to be sent to other groups with a probability
//! p."
//!
//! This crate supplies exactly that execution model, decoupled from the
//! ranking logic:
//!
//! * [`Simulation`] — a virtual-time event loop over a vector of [`Actor`]s
//!   (page rankers), with seeded, reproducible randomness;
//! * wake scheduling and message passing with configurable latency and a
//!   send-success probability (the paper calls the parameter `p`; all its
//!   figures converge fastest at `p = 1`, so `p` is the probability a send
//!   *succeeds* — see DESIGN.md);
//! * [`waits`] — the exponential think-time model;
//! * [`trace::TimeSeries`] — sampling support for the time-axis figures.

//!
//! # Example
//!
//! ```
//! use dpr_sim::{Actor, Ctx, SimConfig, Simulation};
//!
//! struct Echo { got: Option<u32> }
//! impl Actor for Echo {
//!     type Msg = u32;
//!     fn on_start(&mut self, ctx: &mut Ctx<'_, u32>) {
//!         if ctx.me() == 0 { ctx.send(1, 99); }
//!     }
//!     fn on_wake(&mut self, _: &mut Ctx<'_, u32>) {}
//!     fn on_message(&mut self, _: &mut Ctx<'_, u32>, _from: usize, m: u32) {
//!         self.got = Some(m);
//!     }
//! }
//!
//! let mut sim = Simulation::new(
//!     vec![Echo { got: None }, Echo { got: None }],
//!     SimConfig::default(),
//! );
//! while sim.step() {}
//! assert_eq!(sim.actors()[1].got, Some(99));
//! ```

#![warn(missing_docs)]

pub mod engine;
pub mod faults;
pub mod sched;
pub mod trace;
pub mod waits;

pub use engine::{Actor, Ctx, SimConfig, SimStats, Simulation};
pub use faults::{FaultPlan, Jitter};
pub use sched::SchedStats;
pub use trace::TimeSeries;
