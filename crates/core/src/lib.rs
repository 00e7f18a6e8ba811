//! # craid
//!
//! A reproduction of **"CRAID: Online RAID Upgrades Using Dynamic Hot Data
//! Reorganization"** (A. Miranda, T. Cortés, FAST '14) as a Rust library.
//!
//! CRAID claims a small portion of every disk in a RAID array and uses it as
//! a **cache partition** (`PC`) holding copies of the blocks that are
//! currently hot; everything else stays in the **archive partition** (`PA`).
//! Because the hot set is a tiny fraction of the stored data, upgrading the
//! array (adding disks) only requires redistributing `PC` — the archive can
//! grow by simple aggregation — and because the hot set is physically
//! clustered, the array gains sequentiality and shorter seeks on precisely
//! the data clients care about.
//!
//! The crate provides:
//!
//! * the CRAID control path — [`MappingCache`], [`IoMonitor`],
//!   [`redirector`] — exactly as described in the paper's §3–4;
//! * simulated arrays for the six allocation policies of the evaluation
//!   ([`StrategyKind`]): ideal RAID-5, aggregated RAID-5+, CRAID over both,
//!   and CRAID with a dedicated SSD cache tier;
//! * a trace-replay [`Simulation`] driver that measures everything the
//!   paper's §5 reports: per-request response times, hit/eviction ratios,
//!   per-second load balance (cv), access sequentiality, queue depths and
//!   device concurrency, and upgrade migration volumes;
//! * a declarative experiment surface ([`scenario`]): serializable
//!   [`Scenario`]s with [`ScheduledEvent`] timelines (expansions, policy
//!   switches, phase markers, disk failures and repairs), pluggable
//!   [`Observer`]s, and a parallel [`Campaign`] runner for whole experiment
//!   matrices;
//! * a fault subsystem ([`fault`], [`DiskState`]): degraded-mode reads that
//!   reconstruct lost blocks from the surviving parity-group members, with
//!   the resulting [`FaultStats`] (degraded reads, rebuild traffic, MTTR)
//!   in every report;
//! * a generic [`background`] I/O engine ([`BackgroundEngine`]): rebuilds
//!   *and* paced online-expansion migrations ride on one rate-paced task
//!   queue with pluggable [`BackgroundPriority`] block ordering
//!   (`Sequential` or heat-ranked `HotFirst`), a [`MigrationMap`] keeping
//!   reads correct mid-upgrade, and [`MigrationStats`] (upgrade window,
//!   blocks moved) in every report;
//! * a QoS control subsystem ([`qos`]): a per-array [`SloSpec`] (client
//!   latency percentile and/or queue-depth targets, a maintenance-rate
//!   floor, AIMD gains) steers a [`QosController`] that adaptively
//!   throttles the background engine between the floor and the configured
//!   rates, with [`QosStats`] (throttle timeline, SLO-violation seconds,
//!   effective maintenance rate) in every report;
//! * a pre-run static analyser ([`analyze`]): storage-graph rules over
//!   the resolved configuration and a symbolic interpreter for event
//!   timelines, reporting every finding as a [`Diagnostic`] with a
//!   stable `CRAID-Exxx`/`CRAID-Wxxx` code — before any simulated I/O
//!   ([`Scenario::analyze`], [`Scenario::load`], `scenario_file
//!   --check`);
//! * a small-scope model checker ([`analyze::explore`], [`choice`]):
//!   exhaustive exploration of the scheduler's nondeterministic decision
//!   points (equal-timestamp event orders, fair-share splits, batch
//!   boundaries, throttle-vs-pump ordering, activation timing) on
//!   small-scope projections, judging every interleaving against the
//!   [`InvariantOracle`] library,
//!   shrinking counterexamples to reproducer TOMLs (`scenario_file
//!   --explore`).
//!
//! # Quick start
//!
//! ```
//! use craid::{ArrayConfig, Simulation, StrategyKind};
//! use craid_trace::{SyntheticWorkload, WorkloadId};
//!
//! // A heavily scaled-down wdev workload on a small CRAID-5 array.
//! let trace = SyntheticWorkload::paper(WorkloadId::Wdev).scale(100_000).generate(1);
//! let config = ArrayConfig::small_test(StrategyKind::Craid5, trace.footprint_blocks());
//! let report = Simulation::new(config).run(&trace);
//! assert!(report.requests > 0);
//! assert!(report.craid.is_some());
//! ```
//!
//! # Declaring experiments
//!
//! ```
//! use craid::{Campaign, Scenario, StrategyKind};
//! use craid_trace::WorkloadId;
//!
//! let base = Scenario::builder()
//!     .workload(WorkloadId::Wdev)
//!     .requests(1_000)
//!     .small_test()
//!     .build();
//! let outcomes = Campaign::sweep(
//!     &base,
//!     &[WorkloadId::Wdev],
//!     &[0.1, 0.2],
//!     &[StrategyKind::Raid5, StrategyKind::Craid5],
//! )
//! .run()
//! .unwrap();
//! assert_eq!(outcomes.len(), 4);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod analyze;
pub mod array;
pub mod background;
pub mod choice;
pub mod config;
pub mod devices;
pub mod error;
pub mod fault;
pub mod mapping;
pub mod monitor;
pub mod observer;
pub mod partition;
pub mod qos;
pub mod redirector;
pub mod report;
pub mod restripe;
pub mod scenario;
pub mod sim;

pub use analyze::explore::{explore, Counterexample, Exploration, ExploreScope};
pub use analyze::oracle::{InvariantOracle, RunEvidence};
pub use analyze::{Analysis, Diagnostic, Severity};
pub use array::{
    ActivatedExpansion, BaselineArray, CraidArray, ExpansionReport, RequestReport, StorageArray,
};
pub use background::{BackgroundEngine, BackgroundPriority, MigrationMap};
pub use config::{ActivationPolicy, ArrayConfig, DeviceTier, StrategyKind};
pub use devices::DiskState;
pub use error::CraidError;
pub use mapping::MappingCache;
pub use monitor::IoMonitor;
pub use observer::{
    MetricsCollector, MultiObserver, NullObserver, Observer, ProgressObserver, RequestOutcome,
    SimEvent,
};
pub use partition::CachePartition;
pub use qos::{QosController, SloSpec};
pub use report::{CraidStats, FaultStats, MigrationStats, QosStats, SimulationReport};
pub use scenario::{
    AppliedEvent, ArrayPreset, ArraySpec, Campaign, ObserverSpec, Scenario, ScenarioBuilder,
    ScenarioOutcome, ScheduledEvent, WorkloadSource,
};
pub use sim::{policy_quality, DatasetMapper, PolicyQuality, Simulation};
