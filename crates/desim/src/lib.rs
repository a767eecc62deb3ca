//! Discrete-event simulation kernel for the RASC reproduction.
//!
//! This crate provides the minimal, deterministic machinery every simulated
//! subsystem is built on:
//!
//! * [`SimTime`] / [`SimDuration`] — nanosecond-resolution virtual time,
//! * [`EventQueue`] — a cancellable priority queue of timestamped events with
//!   deterministic FIFO tie-breaking: a binary heap of small
//!   `(time, seq, slot)` keys over a slab that holds the payloads in place,
//!   with `(slot, seq)` handles that stay safe after their slot is reused,
//! * [`SimRng`] — a small, fully deterministic PRNG (xoshiro256++ seeded via
//!   SplitMix64) with the distributions the workloads need,
//! * [`World`] + [`run`] — a simple dispatch loop driving a user-defined
//!   event handler until the queue drains or a horizon is reached,
//! * [`pool`] — a scoped thread pool for fanning independent simulations
//!   across cores with deterministic job → result ordering.
//!
//! Determinism is the design goal: given the same seed and the same inputs,
//! a simulation replays identically on any platform. Events scheduled for
//! the same instant are delivered in the order they were scheduled.
//!
//! # Example
//!
//! ```
//! use desim::{EventQueue, SimTime, SimDuration, World, run};
//!
//! struct Counter { fired: u32 }
//! impl World for Counter {
//!     type Event = u32;
//!     fn handle(&mut self, now: SimTime, ev: u32, q: &mut EventQueue<u32>) {
//!         self.fired += ev;
//!         if ev < 4 {
//!             q.schedule(now + SimDuration::from_millis(1), ev + 1);
//!         }
//!     }
//! }
//!
//! let mut w = Counter { fired: 0 };
//! let mut q = EventQueue::new();
//! q.schedule(SimTime::ZERO, 1u32);
//! let end = run(&mut w, &mut q, SimTime::MAX);
//! assert_eq!(w.fired, 1 + 2 + 3 + 4);
//! assert_eq!(end, SimTime::ZERO + SimDuration::from_millis(3));
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod driver;
pub mod hash;
pub mod pool;
mod queue;
mod rng;
mod time;

pub use driver::{run, run_until, StepOutcome, World};
pub use hash::{FxBuildHasher, FxHashMap, FxHashSet, FxHasher};
pub use queue::{EventHandle, EventQueue, QueueBackend};
pub use rng::SimRng;
pub use time::{SimDuration, SimTime};
