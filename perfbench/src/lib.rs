//! # craid-perfbench
//!
//! The CRAID simulator's benchmark: four named workloads, end-to-end host
//! throughput from untraced replays, and per-layer host time from a
//! separate traced replay whose spans are recorded here, around each call
//! the benchmark makes into the simulator's public API. See `README.md`
//! for the workloads, the metrics and what each layer metric is predicted
//! to move.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod driver;
pub mod gate;
pub mod isolated;
pub mod metrics;
pub mod run;
pub mod spans;
pub mod workloads;
