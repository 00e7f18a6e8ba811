//! Simulated storage arrays for the six allocation policies of the paper.

mod activation;
mod baseline;
mod craid_array;

pub use baseline::BaselineArray;
pub use craid_array::CraidArray;

use craid_cache::PolicyKind;
use craid_diskmodel::{BlockRange, DeviceLoadStats, IoKind};
use craid_simkit::{SimDuration, SimTime};

use crate::config::{ArrayConfig, StrategyKind};
use crate::devices::DeviceIoEvent;
use crate::error::CraidError;
use crate::monitor::MonitorStats;
use crate::report::{FaultStats, MigrationStats};

/// Completion report for one client request.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct RequestReport {
    /// Time from arrival to completion of the foreground I/Os.
    pub response: SimDuration,
    /// Every device-level I/O the request caused (foreground and
    /// background), for the metrics trackers.
    pub events: Vec<DeviceIoEvent>,
    /// Blocks served from an existing cache-partition copy (0 for
    /// baselines).
    pub cache_hit_blocks: u64,
    /// Blocks admitted into the cache partition (0 for baselines).
    pub admitted_blocks: u64,
    /// Evictions triggered (0 for baselines).
    pub evictions: u64,
    /// Evictions requiring an archive write-back (0 for baselines).
    pub dirty_writebacks: u64,
}

/// Outcome of one online upgrade (disk addition).
#[derive(Debug, Clone, Default)]
pub struct ExpansionReport {
    /// Disks added by this upgrade.
    pub added_disks: usize,
    /// Blocks that have to move so the strategy regains its target layout.
    /// For CRAID this is bounded by the cache-partition residency; for an
    /// ideally restriped RAID-5 it is (nearly) the whole used dataset; for
    /// RAID-5+ it is zero (new sets start empty).
    pub migrated_blocks: u64,
    /// Dirty cached blocks written back to the archive during the
    /// cache-partition invalidation (CRAID only; 0 for a paced upgrade,
    /// which redistributes dirty copies instead of writing them back).
    pub writeback_blocks: u64,
    /// Blocks enqueued on the background engine for paced migration (0 for
    /// an instant upgrade, which moves everything at event time).
    pub enqueued_blocks: u64,
    /// True when the expansion was *queued* instead of committed: an
    /// archive restripe from a previous upgrade was still in flight, so
    /// this one activates (commits its layout and starts its own paced
    /// migration) when that restripe drains. All counters above are zero
    /// for a deferred report — the activation accounts into
    /// [`MigrationStats`] instead.
    pub deferred: bool,
    /// Device I/Os issued by the upgrade itself at event time (instant-mode
    /// write-backs; empty for a paced upgrade — its I/O streams through the
    /// background engine instead).
    pub events: Vec<DeviceIoEvent>,
}

/// One deferred expansion that activated during a background pump: the
/// queued upgrade's layout committed and its own paced migration started.
/// Drained by the simulation driver via [`StorageArray::take_activations`]
/// and published as a
/// [`SimEvent::Activation`](crate::observer::SimEvent::Activation).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ActivatedExpansion {
    /// The simulated instant the activation fired.
    pub at: SimTime,
    /// Disks the activated expansion added.
    pub added_disks: usize,
}

/// A simulated array that serves block requests and can be upgraded online.
pub trait StorageArray {
    /// The allocation policy this array implements.
    fn strategy(&self) -> StrategyKind;

    /// Current number of mechanical disks.
    fn disk_count(&self) -> usize;

    /// Total number of devices (disks + dedicated SSDs).
    fn device_count(&self) -> usize;

    /// Client-visible capacity in blocks (the archive partition's data
    /// capacity).
    fn capacity_blocks(&self) -> u64;

    /// Cache-partition capacity in blocks (0 for the baselines).
    fn pc_capacity_blocks(&self) -> u64;

    /// Serves one client request arriving at `now`.
    ///
    /// # Errors
    ///
    /// Returns [`CraidError::OutOfRange`] if the request extends beyond the
    /// volume.
    fn submit(
        &mut self,
        now: SimTime,
        kind: IoKind,
        range: BlockRange,
    ) -> Result<RequestReport, CraidError>;

    /// Adds `added_disks` mechanical disks at time `now` and performs the
    /// strategy's upgrade procedure.
    ///
    /// # Errors
    ///
    /// Returns [`CraidError::InvalidExpansion`] if `added_disks` is zero or
    /// the resulting geometry is unusable for this strategy.
    fn expand(&mut self, now: SimTime, added_disks: usize) -> Result<ExpansionReport, CraidError>;

    /// Switches the I/O monitor's replacement policy at `now`, preserving
    /// the currently cached blocks (a scenario's `PolicySwitch` event).
    /// Baseline arrays have no cache partition, so the default is a no-op.
    ///
    /// # Errors
    ///
    /// Returns a [`CraidError`] if the array cannot apply the switch.
    fn switch_policy(&mut self, _now: SimTime, _policy: PolicyKind) -> Result<(), CraidError> {
        Ok(())
    }

    /// Marks mechanical disk `disk` as failed at `now` (a scenario's
    /// `DiskFailure` event). Until the disk is repaired, reads that would
    /// touch it are reconstructed from the surviving members of its parity
    /// group and writes aimed at it are absorbed by parity.
    ///
    /// # Errors
    ///
    /// Returns [`CraidError::InvalidFault`] if `disk` is not a healthy
    /// mechanical disk or another disk is already failed or rebuilding
    /// (single-fault model).
    fn fail_disk(&mut self, now: SimTime, disk: usize) -> Result<(), CraidError>;

    /// Installs a hot spare in failed disk `disk`'s slot at `now` (a
    /// scenario's `DiskRepair` event) and starts the background rebuild,
    /// which streams reconstruction I/O onto the spare interleaved with
    /// client traffic until the device image is restored.
    ///
    /// # Errors
    ///
    /// Returns [`CraidError::InvalidFault`] unless `disk` is currently
    /// failed.
    fn repair_disk(&mut self, now: SimTime, disk: usize) -> Result<(), CraidError>;

    /// Retargets the array's background-maintenance throttle at `now` (the
    /// QoS controller's output, a fraction of the configured maintenance
    /// rates in `[floor, 1.0]`). A no-op unless the array was built with a
    /// QoS spec (which attaches the throttle to its background engine).
    fn set_background_throttle(&mut self, _now: SimTime, _scale: f64) {}

    /// Drains the deferred expansions that activated since the last call
    /// (in activation order). The simulation driver publishes each as a
    /// [`SimEvent::Activation`](crate::observer::SimEvent::Activation).
    fn take_activations(&mut self) -> Vec<ActivatedExpansion> {
        Vec::new()
    }

    /// Runs one catch-up step of the array's background engine at `now`:
    /// if a rebuild or expansion migration is in flight and behind its
    /// pace, one batch of background I/O is issued and its device events
    /// returned. The simulation driver calls this once per client request,
    /// interleaving maintenance with traffic; direct users replaying their
    /// own loops should do the same.
    fn pump_background(&mut self, now: SimTime) -> Vec<DeviceIoEvent>;

    /// Pumps background work, appending the issued device events to `out`
    /// (already cleared by the caller) instead of allocating a fresh vector
    /// — the replay hot loop's variant of [`StorageArray::pump_background`].
    fn pump_background_into(&mut self, now: SimTime, out: &mut Vec<DeviceIoEvent>) {
        out.extend(self.pump_background(now));
    }

    /// True when a background pacing clock says the engine could issue or
    /// retire work at `now` — the gate the replay loop's event-clocked
    /// pumping uses to skip guaranteed-idle pumps. The conservative default
    /// (`true`) keeps the classic once-per-request cadence; arrays that can
    /// compute their next due instant exactly override this. A `true` that
    /// turns out idle costs one no-op poll; returning `false` while work is
    /// due would defer maintenance, so implementations must err early.
    fn background_work_due(&mut self, _now: SimTime) -> bool {
        true
    }

    /// True when no background task (rebuild, migration or archive
    /// restripe) is live and no deferred expansion awaits activation.
    fn background_idle(&self) -> bool;

    /// The earliest simulated instant at which a live background task's
    /// pace alone would complete it, or `None` when idle. The simulation's
    /// end-of-trace drain jumps time here instead of stepping blindly, so
    /// rebuilds and migrations outliving the trace still finish (and MTTR /
    /// upgrade windows stay finite) at their exact paced completion times.
    fn background_drain_eta(&self) -> Option<SimTime>;

    /// Degraded-mode and rebuild counters accumulated so far (all zero if
    /// no disk ever failed).
    fn fault_stats(&self) -> FaultStats;

    /// Online-upgrade migration counters accumulated so far (all zero if
    /// every expansion was instant). `pending_blocks` reflects the moves
    /// still queued at call time.
    fn migration_stats(&self) -> MigrationStats;

    /// Per-device load statistics accumulated so far.
    fn device_stats(&self) -> Vec<DeviceLoadStats>;

    /// The I/O monitor's counters, if this array has one.
    fn monitor_stats(&self) -> Option<MonitorStats>;
}

/// Builds the array described by `config`.
///
/// # Errors
///
/// Returns a [`CraidError`] if the configuration is invalid.
pub fn build_array(config: &ArrayConfig) -> Result<Box<dyn StorageArray>, CraidError> {
    config.validate()?;
    if config.strategy.is_craid() {
        Ok(Box::new(CraidArray::new(config.clone())?))
    } else {
        Ok(Box::new(BaselineArray::new(config.clone())?))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn build_array_dispatches_on_strategy() {
        for strategy in StrategyKind::ALL {
            let cfg = ArrayConfig::small_test(strategy, 5_000);
            let array = build_array(&cfg).unwrap();
            assert_eq!(array.strategy(), strategy);
            assert_eq!(array.disk_count(), 8);
            assert!(array.capacity_blocks() >= 5_000);
            if strategy.is_craid() {
                assert!(array.pc_capacity_blocks() > 0);
                assert!(array.monitor_stats().is_some());
            } else {
                assert_eq!(array.pc_capacity_blocks(), 0);
                assert!(array.monitor_stats().is_none());
            }
            if strategy.uses_ssd_cache() {
                assert_eq!(array.device_count(), 8 + 3);
            } else {
                assert_eq!(array.device_count(), 8);
            }
        }
    }

    #[test]
    fn build_array_rejects_invalid_configs() {
        let mut cfg = ArrayConfig::small_test(StrategyKind::Craid5, 5_000);
        cfg.parity_group = 3;
        assert!(build_array(&cfg).is_err());
    }
}
