//! # craid-simkit
//!
//! Small, deterministic simulation primitives used by the CRAID storage
//! simulator (a reproduction of the FAST '14 paper *"CRAID: Online RAID
//! Upgrades Using Dynamic Hot Data Reorganization"*).
//!
//! The crate provides two things:
//!
//! * [`SimTime`] / [`SimDuration`] — fixed-point simulated time (nanosecond
//!   resolution) with total ordering, so event ordering is reproducible across
//!   runs and platforms (no floating-point tie ambiguity).
//! * [`SimRng`] and the [`dist`] module — seeded random-number plumbing and
//!   the small set of distributions the workload generators need (Zipf,
//!   exponential, Pareto-ish burst lengths).
//!
//! # Example
//!
//! ```
//! use craid_simkit::{SimDuration, SimTime};
//!
//! let arrival = SimTime::from_millis(2.0);
//! let service = SimDuration::from_millis(1.5);
//! let done = arrival + service;
//! assert!(done > arrival);
//! assert_eq!(done.saturating_since(arrival), service);
//! assert_eq!(done, SimTime::from_millis(3.5));
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod dist;
pub mod rng;
pub mod time;

pub use rng::SimRng;
pub use time::{SimDuration, SimTime};
