//! # ef-simcore — deterministic discrete-event simulation engine
//!
//! This crate is the timing substrate of the EF-dedup reproduction. The
//! original paper evaluates a prototype on a physical OpenStack + EC2
//! testbed; this reproduction replaces wall-clock measurement with a
//! deterministic discrete-event simulation so that every experiment is
//! reproducible bit-for-bit from a seed.
//!
//! The crate provides:
//!
//! * [`SimTime`] / [`SimDuration`] — nanosecond-resolution simulated time,
//! * [`EventQueue`] — a total-order event queue with deterministic
//!   tie-breaking,
//! * [`Simulator`] — a clock and queue its caller steps one event at a time,
//! * [`FifoServer`] — a FIFO resource for modelling CPU and link occupancy,
//! * [`DetRng`] — a seedable, portable random-number generator with named
//!   substreams,
//! * [`prop`] — a deterministic property-test harness whose cases are
//!   drawn from a [`DetRng`] and whose failures shrink,
//! * [`stats`] — small online-statistics helpers used by the experiment
//!   harness.
//!
//! # Example
//!
//! ```
//! use ef_simcore::{EventQueue, SimTime, SimDuration};
//!
//! let mut q: EventQueue<&'static str> = EventQueue::new();
//! q.schedule(SimTime::ZERO + SimDuration::from_millis(5), "second");
//! q.schedule(SimTime::ZERO, "first");
//! assert_eq!(q.pop().map(|e| e.payload), Some("first"));
//! assert_eq!(q.pop().map(|e| e.payload), Some("second"));
//! ```

#![warn(missing_docs)]

mod engine;
pub mod prop;
mod queue;
mod resource;
mod rng;
pub mod stats;
mod time;

pub use engine::Simulator;
pub use queue::{EventQueue, ScheduledEvent};
pub use resource::FifoServer;
pub use rng::DetRng;
pub use time::{SimDuration, SimTime};
