//! Result structures produced by the simulation driver.
//!
//! Every number the paper's evaluation section reports has a field here, so
//! the experiment harness (`craid-bench`) can print Table/Figure rows, and a
//! full run serializes to JSON ([`SimulationReport::to_json`], the bytes
//! `scenario_file --json` prints).

use serde::{Deserialize, Serialize};

use craid_metrics::concurrency::ConcurrencySummary;

/// Summary of a response-time distribution (one line of Fig. 4 / Fig. 6).
#[derive(Debug, Clone, Copy, Default, PartialEq, Serialize, Deserialize)]
pub struct ResponseSummary {
    /// Number of requests measured.
    pub count: u64,
    /// Mean response time in milliseconds.
    pub mean_ms: f64,
    /// Half-width of the 95 % confidence interval of the mean (ms).
    pub ci95_ms: f64,
    /// Median response time (ms).
    pub p50_ms: f64,
    /// 95th percentile (ms).
    pub p95_ms: f64,
    /// 99th percentile (ms).
    pub p99_ms: f64,
    /// Slowest request (ms).
    pub max_ms: f64,
}

/// Cache-partition behaviour of a CRAID run (Tables 2, 3 and 4).
#[derive(Debug, Clone, Copy, Default, PartialEq, Serialize, Deserialize)]
pub struct CraidStats {
    /// Cache-partition capacity in blocks.
    pub pc_capacity_blocks: u64,
    /// The cache partition's size as a percentage of each disk.
    pub pc_percent_per_disk: f64,
    /// Hit ratio over all block accesses.
    pub hit_ratio: f64,
    /// Hit ratio of read block accesses.
    pub read_hit_ratio: f64,
    /// Hit ratio of write block accesses.
    pub write_hit_ratio: f64,
    /// Evictions per block access.
    pub replacement_ratio: f64,
    /// Evictions per read block access.
    pub read_eviction_ratio: f64,
    /// Evictions per write block access.
    pub write_eviction_ratio: f64,
    /// Evictions whose victim was dirty.
    pub dirty_evictions: u64,
}

/// Fault-recovery measurements of a run with injected disk failures: the
/// degraded-mode and rebuild traffic that RAID reliability evaluations
/// report (all zero when no `DiskFailure` event was scheduled).
#[derive(Debug, Clone, Copy, Default, PartialEq, Serialize, Deserialize)]
pub struct FaultStats {
    /// `DiskFailure` events applied.
    pub disk_failures: u64,
    /// `DiskRepair` events applied (hot spare installed, rebuild started).
    pub disk_repairs: u64,
    /// Planned read I/Os that targeted a failed (or still-rebuilding) disk
    /// and were served by reconstruction instead. A client request can
    /// contribute more than one when its plan touches the lost disk in
    /// several non-contiguous ranges.
    pub degraded_reads: u64,
    /// Reconstruction I/Os fanned out to surviving parity-group members on
    /// behalf of degraded reads.
    pub reconstruction_ios: u64,
    /// Blocks read from surviving members for degraded reads.
    pub reconstruction_blocks: u64,
    /// Writes aimed at a failed disk that were absorbed by parity instead
    /// of hitting the (dead) device.
    pub parity_absorbed_writes: u64,
    /// Blocks read from surviving members by the background rebuild.
    pub rebuild_read_blocks: u64,
    /// Blocks reconstructed onto hot spares by the background rebuild.
    pub rebuild_write_blocks: u64,
    /// Rebuilds that ran to completion during the run.
    pub rebuilds_completed: u64,
    /// Total simulated seconds spent rebuilding, summed over completed
    /// rebuilds — divide by `rebuilds_completed` for an MTTR-style figure.
    pub rebuild_secs: f64,
}

impl FaultStats {
    /// True if any failure was injected during the run.
    pub fn any_faults(&self) -> bool {
        self.disk_failures > 0
    }

    /// Mean time to repair across completed rebuilds, in simulated seconds
    /// (0 when no rebuild completed).
    pub fn mttr_secs(&self) -> f64 {
        if self.rebuilds_completed == 0 {
            0.0
        } else {
            self.rebuild_secs / self.rebuilds_completed as f64
        }
    }
}

/// Online-upgrade measurements of a run with paced expansion migrations:
/// the redistribution-time vs. service-time trade-off the paper's online
/// claim is about (all zero when every expansion was instant).
///
/// Two cost lines are kept apart: the `migrations_*`/`migrated_*` fields
/// cover the *expansion migration* proper (CRAID's cache-partition
/// redistribution — the paper's accounting — or, for the conventional
/// RAID-5 baseline, its whole restripe), while the `archive_*` fields cover
/// the **paced archive restripe** a `CRAID-5`/`CRAID-5ssd` upgrade
/// additionally pays to reshape its ideal RAID-5 archive onto the grown
/// disk set — a cost earlier versions modeled as free.
#[derive(Debug, Clone, Copy, Default, PartialEq, Serialize, Deserialize)]
pub struct MigrationStats {
    /// Paced migration tasks enqueued by `Expand` events.
    pub migrations_started: u64,
    /// Paced migration tasks that drained during the run.
    pub migrations_completed: u64,
    /// Blocks the background engine moved to their post-upgrade home.
    pub migrated_blocks: u64,
    /// Pending moves superseded by client traffic before the engine reached
    /// them (a write landed at the new home, or a read re-admitted the
    /// block).
    pub superseded_blocks: u64,
    /// Blocks still awaiting migration when the run ended.
    pub pending_blocks: u64,
    /// Dirty blocks the migration (or the evictions it displaced) wrote
    /// back to the archive.
    pub writeback_blocks: u64,
    /// Total simulated seconds the array spent with a migration in flight —
    /// the *upgrade window* during which clients were served degraded-but-
    /// correct. Summed over completed migrations.
    pub migration_secs: f64,
    /// Paced archive-restripe tasks enqueued by `Expand` events (ideal
    /// RAID-5 archives of the `CRAID-5`/`CRAID-5ssd` strategies only).
    pub archive_restripes_started: u64,
    /// Paced archive-restripe tasks that drained during the run.
    pub archive_restripes_completed: u64,
    /// Blocks the paced archive restripe moved to their reshaped location.
    pub archive_migrated_blocks: u64,
    /// Archive moves superseded by client write-backs before the restripe
    /// cursor reached them.
    pub archive_superseded_blocks: u64,
    /// Archive moves still pending when the run ended.
    pub archive_pending_blocks: u64,
    /// Total simulated seconds archive restripes were in flight, summed
    /// over completed restripes.
    pub archive_restripe_secs: f64,
    /// The block-issue order the paced migration *actually* ran with.
    /// Baseline arrays have no heat signal, so a configured `hot-first`
    /// silently degrades to `sequential`; this field records the effective
    /// order so ordering comparisons cannot mistake a no-op knob for a null
    /// result. `None` until a paced migration or restripe starts.
    pub effective_priority: Option<crate::background::BackgroundPriority>,
}

impl MigrationStats {
    /// True if any paced migration ran during the run.
    pub fn any_migrations(&self) -> bool {
        self.migrations_started > 0
    }

    /// True if any paced archive restripe ran during the run.
    pub fn any_archive_restripes(&self) -> bool {
        self.archive_restripes_started > 0
    }

    /// Mean archive-restripe window across completed restripes, in
    /// simulated seconds (0 when none completed).
    pub fn mean_archive_window_secs(&self) -> f64 {
        if self.archive_restripes_completed == 0 {
            0.0
        } else {
            self.archive_restripe_secs / self.archive_restripes_completed as f64
        }
    }

    /// Mean upgrade window across completed migrations, in simulated
    /// seconds (0 when none completed).
    pub fn mean_window_secs(&self) -> f64 {
        if self.migrations_completed == 0 {
            0.0
        } else {
            self.migration_secs / self.migrations_completed as f64
        }
    }
}

/// What the QoS control subsystem did during a run: the maintenance
/// throttle's trajectory and how much of the run violated the configured
/// SLO (all zero, with `enabled = false`, when the array had no `[qos]`
/// spec — the no-QoS path never runs the controller).
///
/// Produced by [`QosController::finish`](crate::qos::QosController::finish)
/// and carried on every [`SimulationReport`].
#[derive(Debug, Clone, Default, PartialEq, Serialize, Deserialize)]
pub struct QosStats {
    /// True when a QoS controller steered this run.
    pub enabled: bool,
    /// Control decisions taken (one per engine pump).
    pub decisions: u64,
    /// Decisions that actually changed the throttle.
    pub throttle_changes: u64,
    /// Throttle trajectory samples: `(simulated seconds, scale)`, recorded
    /// on notable changes (backoffs, floor/ceiling transitions) and on
    /// every ≥ 0.05 drift of the additive recovery ramp.
    pub throttle_timeline: Vec<(f64, f64)>,
    /// Timeline samples dropped beyond the storage cap (0 in practice; a
    /// nonzero value means the timeline above is a truncated prefix).
    pub timeline_dropped: u64,
    /// Simulated seconds the throttle sat at the maintenance floor.
    pub time_at_floor_secs: f64,
    /// Simulated seconds the throttle sat at the ceiling (full configured
    /// maintenance rate).
    pub time_at_ceiling_secs: f64,
    /// Simulated seconds during which the sliding-window observation
    /// violated the SLO.
    pub slo_violation_secs: f64,
    /// Blocks of background maintenance I/O issued while the controller
    /// watched.
    pub maintenance_blocks: u64,
    /// `maintenance_blocks` over the controlled window — the maintenance
    /// pace the array *actually* sustained under throttling, in blocks per
    /// simulated second.
    pub effective_maintenance_rate: f64,
    /// The throttle scale at the end of the measurement window.
    pub final_scale: f64,
}

impl QosStats {
    /// True when any control decision changed the throttle.
    pub fn any_throttling(&self) -> bool {
        self.enabled && self.throttle_changes > 0
    }
}

/// Load-balance measurements (Fig. 7 / Table 6).
#[derive(Debug, Clone, Default, PartialEq, Serialize, Deserialize)]
pub struct LoadBalanceSummary {
    /// CDF points of the per-second coefficient of variation of per-disk
    /// load: `(cv, fraction_of_seconds)`.
    pub cv_cdf: Vec<(f64, f64)>,
    /// Mean per-second cv.
    pub mean_cv: f64,
    /// 95th percentile of the per-second cv.
    pub p95_cv: f64,
    /// cv of the whole-run per-device byte totals.
    pub overall_cv: f64,
}

/// Everything measured while replaying one trace against one array.
#[derive(Debug, Clone, Default, PartialEq, Serialize, Deserialize)]
pub struct SimulationReport {
    /// Strategy label (e.g. `"CRAID-5"`).
    pub strategy: String,
    /// Workload name (e.g. `"wdev"`).
    pub workload: String,
    /// Number of client requests replayed.
    pub requests: u64,
    /// Response-time summary of read requests.
    pub read: ResponseSummary,
    /// Response-time summary of write requests.
    pub write: ResponseSummary,
    /// Per-second sequential-access percentage CDF (Fig. 5).
    pub sequentiality_cdf: Vec<(f64, f64)>,
    /// Fraction of device accesses that were physically sequential.
    pub sequential_fraction: f64,
    /// Load-balance measurements (Fig. 7 / Table 6).
    pub load_balance: LoadBalanceSummary,
    /// Device I/O-queue depth summary (Table 5 "Ioq").
    pub ioq: ConcurrencySummary,
    /// Concurrently-active device count summary (Table 5 "Cdev").
    pub cdev: ConcurrencySummary,
    /// Cache-partition statistics (None for the baselines).
    pub craid: Option<CraidStats>,
    /// Degraded-mode and rebuild measurements (all zero without injected
    /// disk failures).
    pub fault: FaultStats,
    /// Online-upgrade migration measurements (all zero without paced
    /// expansions).
    pub migration: MigrationStats,
    /// QoS throttling measurements (all zero, `enabled = false`, when the
    /// array had no `[qos]` spec).
    pub qos: QosStats,
    /// Simulated seconds the engine kept pumping background work *after*
    /// the last trace record (the end-of-trace drain): rebuilds and
    /// migrations still in flight when the workload ends run to completion
    /// outside the measurement window instead of freezing forever, so MTTR
    /// and upgrade windows stay finite. Zero when everything drained during
    /// the replay.
    pub background_drain_secs: f64,
    /// Total bytes moved per device over the run.
    pub device_bytes: Vec<u64>,
    /// The tracer's emission ledger (event and per-category span tallies),
    /// present only on traced runs. Untraced reports omit the
    /// key entirely, keeping their JSON byte-identical to pre-tracing
    /// builds.
    #[serde(skip_serializing_if = "Option::is_none")]
    pub obs: Option<craid_obs::ObsSnapshot>,
}

impl SimulationReport {
    /// Mean read response time in milliseconds (0 if no reads were issued).
    pub fn read_mean_ms(&self) -> f64 {
        self.read.mean_ms
    }

    /// Mean write response time in milliseconds (0 if no writes were issued).
    pub fn write_mean_ms(&self) -> f64 {
        self.write.mean_ms
    }

    /// Serializes the report as pretty JSON.
    ///
    /// # Panics
    ///
    /// Panics only if serde serialization fails, which cannot happen for
    /// this plain-data structure.
    pub fn to_json(&self) -> String {
        serde_json::to_string_pretty(self).expect("SimulationReport always serializes")
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn report_round_trips_through_json() {
        let report = SimulationReport {
            strategy: "CRAID-5".into(),
            workload: "wdev".into(),
            requests: 100,
            read: ResponseSummary {
                count: 60,
                mean_ms: 4.2,
                ci95_ms: 0.3,
                p50_ms: 3.9,
                p95_ms: 8.1,
                p99_ms: 12.0,
                max_ms: 30.0,
            },
            craid: Some(CraidStats {
                pc_capacity_blocks: 1024,
                hit_ratio: 0.91,
                ..CraidStats::default()
            }),
            fault: FaultStats {
                disk_failures: 1,
                disk_repairs: 1,
                degraded_reads: 12,
                rebuilds_completed: 1,
                rebuild_secs: 42.0,
                ..FaultStats::default()
            },
            migration: MigrationStats {
                migrations_started: 2,
                migrations_completed: 2,
                migrated_blocks: 640,
                superseded_blocks: 3,
                writeback_blocks: 17,
                migration_secs: 12.0,
                archive_restripes_started: 1,
                archive_restripes_completed: 1,
                archive_migrated_blocks: 9_000,
                archive_superseded_blocks: 12,
                archive_restripe_secs: 30.0,
                effective_priority: Some(crate::background::BackgroundPriority::HotFirst),
                ..MigrationStats::default()
            },
            qos: QosStats {
                enabled: true,
                decisions: 40,
                throttle_changes: 6,
                throttle_timeline: vec![(1.0, 0.5), (3.0, 0.25), (9.0, 1.0)],
                timeline_dropped: 0,
                time_at_floor_secs: 2.0,
                time_at_ceiling_secs: 5.0,
                slo_violation_secs: 3.5,
                maintenance_blocks: 4_000,
                effective_maintenance_rate: 400.0,
                final_scale: 1.0,
            },
            background_drain_secs: 4.5,
            ..SimulationReport::default()
        };
        let json = report.to_json();
        assert!(json.contains("CRAID-5"));
        let back: SimulationReport = serde_json::from_str(&json).unwrap();
        assert_eq!(back, report);
        assert_eq!(back.read_mean_ms(), 4.2);
        assert_eq!(back.write_mean_ms(), 0.0);
        assert!(back.fault.any_faults());
        assert_eq!(back.fault.mttr_secs(), 42.0);
        assert!(back.migration.any_migrations());
        assert_eq!(back.migration.mean_window_secs(), 6.0);
        assert!(back.migration.any_archive_restripes());
        assert_eq!(back.migration.mean_archive_window_secs(), 30.0);
        assert_eq!(
            back.migration.effective_priority,
            Some(crate::background::BackgroundPriority::HotFirst)
        );
        assert_eq!(back.background_drain_secs, 4.5);
        assert!(back.qos.any_throttling());
        assert_eq!(back.qos.throttle_timeline.len(), 3);
        assert_eq!(back.qos.effective_maintenance_rate, 400.0);
    }

    #[test]
    fn qos_stats_handle_empty_runs() {
        let stats = QosStats::default();
        assert!(!stats.any_throttling());
        assert!(!stats.enabled);
        assert_eq!(stats.slo_violation_secs, 0.0);
    }

    #[test]
    fn fault_stats_ratios_handle_empty_runs() {
        let stats = FaultStats::default();
        assert!(!stats.any_faults());
        assert_eq!(stats.mttr_secs(), 0.0);
    }

    #[test]
    fn migration_stats_handle_empty_runs() {
        let stats = MigrationStats::default();
        assert!(!stats.any_migrations());
        assert_eq!(stats.mean_window_secs(), 0.0);
    }
}
