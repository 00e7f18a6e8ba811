//! The CRAID array: cache partition + archive partition + control path.

use std::collections::BTreeMap;

use craid_diskmodel::{BlockRange, DeviceLoadStats, IoKind};
use craid_raid::{IoPurpose, Layout, Raid5Layout, Raid5PlusLayout};
use craid_simkit::SimTime;

use crate::background::{
    merge_blocks_to_ranges, BackgroundEngine, BackgroundPriority, Batch, MigrationMap, OldHome,
    TaskId, TaskKind,
};
use crate::config::{ArrayConfig, StrategyKind};
use crate::devices::{DeviceIoEvent, DeviceSet, DiskState};
use crate::error::CraidError;
use crate::fault;
use crate::monitor::{IoMonitor, MonitorStats};
use crate::partition::{ArchiveLayout, CachePartition, Partition, PartitionIo};
use crate::redirector::{self, ArchiveAccess, PlanScratch};
use crate::report::{FaultStats, MigrationStats};
use crate::restripe::RestripeState;

use super::{ExpansionReport, RequestReport, StorageArray};

/// True when a pending-map entry of `entry` generation may be consumed by
/// migration task `task`. Production requires an exact match — the guard
/// PR 4 added after an older task was caught consuming a newer generation's
/// entry and migrating the block with a stale geometry. The test-only fault
/// hook ([`crate::choice::faults`]) re-opens exactly that hole so the model
/// checker can demonstrate it finds the bug.
fn generation_matches(entry: TaskId, task: TaskId) -> bool {
    #[cfg(test)]
    if crate::choice::faults::stale_generation_guard_disabled() {
        return true;
    }
    entry == task
}

/// A CRAID volume: the archive partition `PA` holds every block, the cache
/// partition `PC` holds copies of the hot set, and the monitor/redirector
/// pair keeps the two coherent (paper §3–4). Maintenance streams — rebuilds,
/// paced upgrade migrations and paced archive restripes — ride on one
/// fair-share [`BackgroundEngine`].
#[derive(Debug)]
pub struct CraidArray {
    config: ArrayConfig,
    devices: DeviceSet,
    monitor: IoMonitor,
    pc: CachePartition,
    pa: Partition<ArchiveLayout>,
    disks: usize,
    expansion_sets: Vec<usize>,
    background: BackgroundEngine,
    /// Blocks paced upgrades have not yet redistributed, keyed by archive
    /// LBA; each entry names the migration generation whose preserved
    /// geometry in `old_pcs` its slot refers to.
    migration: MigrationMap,
    /// Pre-upgrade cache-partition geometries, keyed by the migration task
    /// that still has blocks in them. Several can be live at once: a
    /// second `expand` may start its own PC redistribution while an
    /// earlier one is still streaming (the exactly-one-location invariant
    /// keeps their block sets disjoint).
    old_pcs: BTreeMap<TaskId, CachePartition>,
    /// The in-flight paced archive restripe (`CRAID-5`/`CRAID-5ssd` only:
    /// their ideal RAID-5 archive must reshape onto the grown disk set —
    /// the cost the paper's accounting charges to conventional upgrades and
    /// this repo used to model as free).
    archive_restripe: Option<RestripeState>,
    /// Expansions accepted while an archive restripe was in flight; each
    /// activates when the restripe drains (a reshape cursor cannot retarget
    /// a moving layout, so ideal-archive upgrades serialize like mdadm
    /// reshapes, while the aggregated `+` variants pipeline freely) — and,
    /// under [`ActivationPolicy::WaitForRepair`](crate::config::ActivationPolicy),
    /// only once the array is healthy again.
    activation: super::activation::ActivationQueue,
    fault_stats: FaultStats,
    migration_stats: MigrationStats,
    /// Reusable per-request planner buffers (cleared each plan, never
    /// shrunk) — keeps the replay hot path allocation-free.
    plan_scratch: PlanScratch,
}

impl CraidArray {
    /// Builds the CRAID array described by `config`.
    ///
    /// # Errors
    ///
    /// Returns a [`CraidError`] if the configuration is invalid or a layout
    /// cannot be constructed.
    pub fn new(config: ArrayConfig) -> Result<Self, CraidError> {
        config.validate()?;
        if !config.strategy.is_craid() {
            return Err(CraidError::InvalidConfig(
                crate::analyze::Diagnostic::error(
                    crate::analyze::codes::STRATEGY_MISMATCH,
                    "array.strategy",
                    "CraidArray requires a CRAID strategy",
                ),
            ));
        }
        let devices = DeviceSet::from_config(&config);
        let pc = Self::build_pc(&config, config.disks)?;
        let pa = Self::build_pa(&config, config.disks, &config.expansion_sets)?;
        let monitor = IoMonitor::new(config.policy, pc.capacity());
        let mut background =
            BackgroundEngine::with_shares(config.rebuild_share, config.migration_share);
        if let Some(spec) = &config.qos {
            // A QoS-steered array pays attention to the controller: attach
            // the throttle (at full scale) so retargets can scale pacing.
            background.attach_throttle(spec.floor);
        }
        Ok(CraidArray {
            disks: config.disks,
            expansion_sets: config.expansion_sets.clone(),
            background,
            config,
            devices,
            monitor,
            pc,
            pa,
            migration: MigrationMap::new(),
            old_pcs: BTreeMap::new(),
            archive_restripe: None,
            activation: super::activation::ActivationQueue::new(),
            fault_stats: FaultStats::default(),
            migration_stats: MigrationStats::default(),
            plan_scratch: PlanScratch::default(),
        })
    }

    /// Activates queued deferred expansions whose preconditions now hold:
    /// the blocking archive restripe has drained and — under the
    /// wait-for-repair policy — the array is healthy. Committing an
    /// ideal-archive expansion starts a new restripe, which re-blocks the
    /// rest of the queue (one reshape at a time, like serialized mdadm
    /// grows).
    fn maybe_activate_deferred(&mut self, now: SimTime) {
        loop {
            // Committing an activation may start a new restripe, which
            // re-blocks the rest of the queue — so the gate is re-evaluated
            // every iteration.
            let blocked = self.archive_restripe.is_some()
                || (self.config.activation == crate::config::ActivationPolicy::WaitForRepair
                    && self.devices.degraded_disk().is_some());
            let Some(added) = self.activation.pop_eligible(blocked) else {
                break;
            };
            self.commit_expansion(now, added);
            self.activation.record(now, added);
        }
    }

    fn build_pc(config: &ArrayConfig, disks: usize) -> Result<CachePartition, CraidError> {
        if config.strategy.uses_ssd_cache() {
            let layout = Raid5Layout::new(
                config.ssd_cache_devices,
                config.ssd_cache_devices,
                config.stripe_unit,
                config.pc_blocks_per_ssd(),
            )?;
            // SSDs are addressed after all mechanical disks.
            Ok(CachePartition::new(layout, disks, 0))
        } else {
            let layout = Raid5Layout::new(
                disks,
                config.parity_group,
                config.stripe_unit,
                config.pc_blocks_per_hdd(),
            )?;
            Ok(CachePartition::new(layout, 0, 0))
        }
    }

    fn build_pa(
        config: &ArrayConfig,
        disks: usize,
        sets: &[usize],
    ) -> Result<Partition<ArchiveLayout>, CraidError> {
        let blocks_per_disk = config.pa_blocks_per_hdd();
        let offset = config.pc_blocks_per_hdd();
        let layout = if config.strategy.archive_is_aggregated() {
            ArchiveLayout::Aggregated(Raid5PlusLayout::new(
                sets,
                config.stripe_unit,
                blocks_per_disk,
            )?)
        } else {
            ArchiveLayout::Ideal(Raid5Layout::new(
                disks,
                config.parity_group,
                config.stripe_unit,
                blocks_per_disk,
            )?)
        };
        Ok(Partition::new(layout, 0, offset))
    }

    /// Writes back a set of dirty blocks (used by the instant upgrade
    /// invalidation).
    fn write_back(
        &mut self,
        now: SimTime,
        tasks: &[crate::monitor::EvictionTask],
        report: &mut ExpansionReport,
    ) {
        let slots: Vec<u64> = tasks.iter().map(|t| t.pc_slot).collect();
        let pa_blocks: Vec<u64> = tasks.iter().map(|t| t.pa_block).collect();
        for io in self.pc.plan_blocks(IoKind::Read, &slots) {
            report.events.push(
                self.devices
                    .submit(now, io.disk, io.kind, io.range, io.purpose),
            );
        }
        for io in self.pa.plan_blocks(IoKind::Write, &pa_blocks) {
            report.events.push(
                self.devices
                    .submit(now, io.disk, io.kind, io.range, io.purpose),
            );
        }
        report.writeback_blocks += tasks.len() as u64;
    }

    /// Physical blocks per mechanical disk that actually hold data or
    /// parity — the live region a rebuild must reconstruct: the PC rows
    /// plus the archive's share of the scattered dataset (parity overhead
    /// included via the physical-to-logical ratio). Rebuilding only live
    /// stripes is the data-aware counterpart of CRAID's upgrade story.
    fn live_blocks_per_hdd(&self) -> u64 {
        let pa_live = fault::live_blocks(
            self.pa.layout().blocks_per_disk(),
            self.pa.data_capacity(),
            self.config.dataset_blocks,
        );
        self.config.pc_blocks_per_hdd() + pa_live
    }

    /// The rebuild's segment order for `disk`: sequential, or — under
    /// `HotFirst` — the cache-partition rows first, then the hottest
    /// archive stripes this disk holds, then the cold remainder.
    fn rebuild_plan(&self, disk: usize, live: u64) -> Vec<BlockRange> {
        let mut hot = Vec::new();
        if self.config.background_priority == BackgroundPriority::HotFirst {
            let pc_limit = self.config.pc_blocks_per_hdd();
            if pc_limit > 0 {
                hot.push(BlockRange::new(0, pc_limit));
            }
            // Rank globally, filter to this disk, and only then cap — so
            // the cap bounds the blocks this rebuild front-loads, not a
            // share of a global list diluted by the other disks.
            let on_disk: Vec<u64> = self
                .monitor
                .hottest_blocks(usize::MAX)
                .into_iter()
                .filter_map(|pa_block| {
                    let loc = self.pa.layout().locate(pa_block);
                    (loc.disk == disk).then_some(loc.block + self.pa.block_offset())
                })
                .collect();
            let mut physical = fault::cap_hot_blocks(on_disk);
            physical.sort_unstable();
            physical.dedup();
            hot.extend(merge_blocks_to_ranges(&physical));
        }
        fault::rebuild_segments(live, hot)
    }

    /// Forwards supersessions the redirector recorded against the archive
    /// restripe to the engine (as forfeited stream work) and the stats.
    fn flush_archive_forfeits(&mut self) {
        if let Some(state) = self.archive_restripe.as_mut() {
            let n = state.take_forfeits();
            if n > 0 {
                self.migration_stats.archive_superseded_blocks += n;
                self.background.forfeit(state.task, n);
            }
        }
    }

    /// Issues the device I/O moving one batch of migrated blocks into the
    /// rebuilt cache partition: read the pre-upgrade copy from its old
    /// slot, re-admit it (dirty bit preserved), write the new slot, and pay
    /// the write-backs of whatever the re-admissions displaced.
    fn apply_migration_batch(
        &mut self,
        now: SimTime,
        id: TaskId,
        blocks: &[u64],
    ) -> Vec<DeviceIoEvent> {
        // First settle the bookkeeping (map removal, re-admission,
        // displaced evictions), then plan the I/O — re-admitting first
        // means a block that turns out superseded never issues a phantom
        // old-slot read, and the planning pass can borrow the generation's
        // preserved geometry in place instead of cloning it per batch.
        let mut moves: Vec<(u64, u64)> = Vec::new();
        let mut writeback_slots: Vec<u64> = Vec::new();
        let mut writeback_pa_blocks: Vec<u64> = Vec::new();
        for &pa_block in blocks {
            // A block no longer pending *for this generation* was superseded
            // by client traffic (already counted) — the engine's budget
            // simply skips over it. The block may since have re-entered the
            // map under a *later* generation (client re-warmed it, then a
            // queued second expansion drained it again); that entry belongs
            // to the newer task, so this one must leave it alone.
            let home = match self.migration.get(pa_block) {
                Some(home) if generation_matches(home.generation, id) => {
                    crate::choice::observe(|| crate::choice::Observation::MigrationApply {
                        block: pa_block,
                        entry_generation: home.generation,
                        task_generation: id,
                    });
                    self.migration.remove(pa_block);
                    home
                }
                _ => continue,
            };
            let old_slot = home.pc_slot;
            let Some((new_slot, evictions)) =
                self.monitor.readmit(pa_block, home.dirty, &mut self.pc)
            else {
                // Residency raced ahead of the map — treat as superseded.
                self.migration_stats.superseded_blocks += 1;
                continue;
            };
            moves.push((old_slot, new_slot));
            self.migration_stats.migrated_blocks += 1;
            for task in evictions {
                if task.dirty {
                    self.migration_stats.writeback_blocks += 1;
                    writeback_slots.push(task.pc_slot);
                    writeback_pa_blocks.push(task.pa_block);
                }
            }
        }
        let old_pc = self
            .old_pcs
            .get(&id)
            .expect("a migration task implies a preserved old PC geometry");
        let mut old_ios: Vec<PartitionIo> = Vec::new();
        let mut new_ios: Vec<PartitionIo> = Vec::new();
        for &(old_slot, new_slot) in &moves {
            for io in old_pc.plan_blocks(IoKind::Read, &[old_slot]) {
                old_ios.push(PartitionIo {
                    purpose: IoPurpose::MigrateRead,
                    ..io
                });
            }
            for io in self.pc.plan_blocks(IoKind::Write, &[new_slot]) {
                new_ios.push(PartitionIo {
                    purpose: if io.purpose == IoPurpose::Data {
                        IoPurpose::MigrateWrite
                    } else {
                        io.purpose
                    },
                    ..io
                });
            }
        }
        new_ios.extend(self.pc.plan_blocks(IoKind::Read, &writeback_slots));
        // Displaced dirty write-backs land at the archive's reshaped homes
        // and supersede any pending restripe moves of the same blocks.
        if let Some(state) = self.archive_restripe.as_mut() {
            for &b in &writeback_pa_blocks {
                state.supersede(&self.pa, b);
            }
        }
        new_ios.extend(self.pa.plan_blocks(IoKind::Write, &writeback_pa_blocks));
        self.flush_archive_forfeits();
        // Old-geometry reads reconstruct via the old parity groups; the
        // rest via the current layouts.
        let mut ios = self.degrade_old_pc(id, old_ios);
        ios.extend(self.degrade(new_ios));
        let mut events = Vec::with_capacity(ios.len());
        for io in ios {
            events.push(
                self.devices
                    .submit(now, io.disk, io.kind, io.range, io.purpose),
            );
        }
        events
    }

    /// Issues the device I/O for the next `budget` archive-restripe moves:
    /// advance the cursor, read each block's pre-reshape location, write
    /// its reshaped home (parity maintenance included).
    fn apply_archive_batch(&mut self, now: SimTime, budget: u64) -> Vec<DeviceIoEvent> {
        let (moved, ios) = self
            .archive_restripe
            .as_mut()
            .expect("a restripe batch implies restripe state")
            .plan_batch(&self.pa, budget);
        self.migration_stats.archive_migrated_blocks += moved;
        // An ideal-archive reshape preserves the parity-group width (the
        // expanded count must stay a multiple of the group), so the current
        // layout's peers are also correct for pre-reshape locations.
        let ios = self.degrade(ios);
        let mut events = Vec::with_capacity(ios.len());
        for io in ios {
            events.push(
                self.devices
                    .submit(now, io.disk, io.kind, io.range, io.purpose),
            );
        }
        events
    }

    /// Degraded-mode rewrite for I/O planned against a *pre-upgrade* cache
    /// partition: reconstruction peers come from that generation's parity
    /// groups — the groups that actually protect those copies — not the
    /// rebuilt one (the two can group disks differently when the expanded
    /// count stops dividing by the parity group).
    fn degrade_old_pc(&mut self, generation: TaskId, plan: Vec<PartitionIo>) -> Vec<PartitionIo> {
        let Some((failed, state)) = self.devices.degraded_disk() else {
            return plan;
        };
        let old_layout = self
            .old_pcs
            .get(&generation)
            .expect("old-geometry I/O implies a preserved old PC")
            .layout()
            .clone();
        fault::degrade_plan(
            plan,
            failed,
            state == DiskState::Rebuilding,
            |io| old_layout.reconstruction_peers(io.disk),
            &mut self.fault_stats,
        )
    }

    /// Rewrites a plan for degraded mode when a disk is failed or
    /// rebuilding; a no-op on a healthy array.
    fn degrade(&mut self, plan: Vec<PartitionIo>) -> Vec<PartitionIo> {
        let Some((failed, state)) = self.devices.degraded_disk() else {
            return plan;
        };
        // Degraded mode: reads of the lost disk are reconstructed from its
        // parity-group peers — the PC and PA layouts group disks
        // differently, so the peer set depends on which per-disk region the
        // I/O falls in.
        let pc_limit = self.config.pc_blocks_per_hdd();
        let pc_layout = self.pc.layout();
        let pa_layout = self.pa.layout();
        let peers_for = |io: &PartitionIo| {
            if io.range.start() < pc_limit {
                pc_layout.reconstruction_peers(io.disk)
            } else {
                pa_layout.reconstruction_peers(io.disk)
            }
        };
        fault::degrade_plan(
            plan,
            failed,
            state == DiskState::Rebuilding,
            peers_for,
            &mut self.fault_stats,
        )
    }

    /// Read access to the cache partition (examples and tests).
    pub fn cache_partition(&self) -> &CachePartition {
        &self.pc
    }

    /// Read access to the I/O monitor (examples and tests).
    pub fn monitor(&self) -> &IoMonitor {
        &self.monitor
    }

    /// Blocks paced upgrades still have to redistribute into the cache
    /// partition (0 when idle; the archive restripe reports separately).
    pub fn pending_migration_blocks(&self) -> u64 {
        self.migration.len() as u64
    }

    /// True if `pa_block` is still awaiting redistribution to its
    /// post-upgrade cache-partition slot (tests and examples).
    pub fn migration_pending(&self, pa_block: u64) -> bool {
        self.migration.contains(pa_block)
    }

    /// Archive-restripe moves still pending (0 when no reshape is in
    /// flight).
    pub fn pending_archive_blocks(&self) -> u64 {
        self.archive_restripe
            .as_ref()
            .map_or(0, RestripeState::pending)
    }

    /// Expansions accepted but not yet activated (queued behind an
    /// in-flight archive restripe).
    pub fn deferred_expansions(&self) -> usize {
        self.activation.len()
    }

    /// Performs a validated expansion: commits the new geometry, enqueues
    /// the paced PC redistribution and — for ideal archives — the paced
    /// archive restripe.
    fn commit_expansion(&mut self, now: SimTime, added_disks: usize) -> ExpansionReport {
        let paced = !self.config.instant_migration();
        let new_disks = self.disks + added_disks;
        let mut new_sets = self.expansion_sets.clone();
        if self.config.strategy.archive_is_aggregated() {
            new_sets.push(added_disks);
        }
        let new_pa = Self::build_pa(&self.config, new_disks, &new_sets)
            .expect("expansion geometry was validated before commit");
        let spreads_pc_over_hdds = !self.config.strategy.uses_ssd_cache();
        let new_pc_layout = if spreads_pc_over_hdds {
            // PC must keep using every disk: it is rebuilt over the new set
            // of spindles and starts refilling immediately. When the count
            // stops dividing evenly, parity groups stay aligned by treating
            // the whole array as one group.
            let group = if new_disks.is_multiple_of(self.config.parity_group) {
                self.config.parity_group
            } else {
                new_disks
            };
            Some(
                Raid5Layout::new(
                    new_disks,
                    group,
                    self.config.stripe_unit,
                    self.config.pc_blocks_per_hdd(),
                )
                .expect("expansion geometry was validated before commit"),
            )
        } else {
            None
        };

        let mut report = ExpansionReport {
            added_disks,
            ..ExpansionReport::default()
        };
        if let Some(pc_layout) = new_pc_layout {
            // Migration for CRAID is bounded by what currently lives in PC.
            report.migrated_blocks = self.monitor.cached_blocks() as u64;
            if paced {
                // The new layout commits now; the block copies stream
                // through the background engine. Every cached block (clean
                // and dirty, with its dirty bit) is queued for
                // redistribution into the rebuilt PC; until a block's turn
                // comes, the MigrationMap serves it from its old slot in
                // this generation's preserved geometry.
                let drained = self.monitor.begin_migration(&mut self.pc);
                let mut order: Vec<u64> = drained.iter().map(|&(pa, _)| pa).collect();
                if self.config.background_priority == BackgroundPriority::HotFirst {
                    self.monitor.rank_hot_desc(&mut order);
                }
                report.enqueued_blocks = order.len() as u64;
                let generation = self.background.push_migration(
                    now,
                    order,
                    self.config
                        .migration_rate_blocks_per_sec
                        .expect("paced expansions have a finite rate"),
                );
                self.old_pcs.insert(generation, self.pc.clone());
                for (pa_block, mapping) in drained {
                    self.migration.insert(
                        pa_block,
                        OldHome {
                            pc_slot: mapping.pc_block,
                            dirty: mapping.dirty,
                            generation,
                        },
                    );
                }
                self.devices.add_hdds(added_disks);
                self.pc.rebuild(pc_layout, 0, 0);
                self.monitor.resize(self.pc.capacity());
                self.migration_stats.migrations_started += 1;
                self.migration_stats.effective_priority = Some(self.config.background_priority);
            } else {
                // Instant upgrade: the dirty copies are written back now,
                // the rest is simply invalidated and re-copied on demand as
                // the working set is touched again.
                let tasks = self.monitor.invalidate_all(&mut self.pc);
                self.write_back(now, &tasks, &mut report);
                self.devices.add_hdds(added_disks);
                self.pc.rebuild(pc_layout, 0, 0);
                self.monitor.resize(self.pc.capacity());
            }
        } else {
            // A dedicated-SSD cache tier keeps its contents when mechanical
            // disks are added; only the SSDs' device indices shift, because
            // the new spindles are spliced in front of them.
            self.devices.add_hdds(added_disks);
            self.pc.rebind_first_device(new_disks);
        }
        if paced && !self.config.strategy.archive_is_aggregated() {
            // The ideal archive's reshape onto the grown set is no longer
            // free: it streams as its own rate-paced task (the paper's
            // conventional-upgrade cost, reported on the archive line of
            // MigrationStats). Pushed even when the move set is empty —
            // like the baseline's restripe — so its completion always
            // fires and a deferred expansion queued behind it can never be
            // stranded. The restripe cursor walks sequentially regardless
            // of the configured priority; when this expansion started no
            // PC redistribution (the SSD-cached variants), record that
            // *effective* order so a hot-first knob cannot masquerade as
            // having run.
            let mut state =
                RestripeState::new(self.pa.clone(), &new_pa, self.config.dataset_blocks);
            state.task = self.background.push_restripe(
                now,
                state.total_moves(),
                self.config
                    .migration_rate_blocks_per_sec
                    .expect("paced expansions have a finite rate"),
            );
            self.archive_restripe = Some(state);
            self.migration_stats.archive_restripes_started += 1;
            if self.migration_stats.effective_priority.is_none() || report.enqueued_blocks == 0 {
                self.migration_stats.effective_priority = Some(BackgroundPriority::Sequential);
            }
        }
        self.pa = new_pa;
        self.expansion_sets = new_sets;
        self.disks = new_disks;
        report
    }
}

impl StorageArray for CraidArray {
    fn strategy(&self) -> StrategyKind {
        self.config.strategy
    }

    fn disk_count(&self) -> usize {
        self.disks
    }

    fn device_count(&self) -> usize {
        self.devices.len()
    }

    fn capacity_blocks(&self) -> u64 {
        self.pa.data_capacity()
    }

    fn pc_capacity_blocks(&self) -> u64 {
        self.pc.capacity()
    }

    fn submit(
        &mut self,
        now: SimTime,
        kind: IoKind,
        range: BlockRange,
    ) -> Result<RequestReport, CraidError> {
        if range.end() > self.pa.data_capacity() {
            return Err(CraidError::OutOfRange {
                start: range.start(),
                blocks: range.len(),
                capacity: self.pa.data_capacity(),
            });
        }
        // Mid-upgrade redirection: blocks the paced migration has not
        // reached yet resolve against the MigrationMap first. Dirty pending
        // blocks are *only* valid at their old PC slot, so reads fetch them
        // from there; everything the client touches otherwise (clean reads,
        // all writes) proceeds against the post-upgrade layout and
        // supersedes the pending move — writes land at the new home.
        let mut old_slot_reads: BTreeMap<TaskId, Vec<u64>> = BTreeMap::new();
        let mut pending_hits = 0u64;
        let plan_blocks: Option<Vec<u64>> = if self.migration.is_empty() {
            None
        } else {
            let mut fresh = Vec::with_capacity(range.len() as usize);
            for pa_block in range.blocks() {
                match self.migration.get(pa_block) {
                    Some(home) if home.dirty && kind == IoKind::Read => {
                        pending_hits += 1;
                        old_slot_reads
                            .entry(home.generation)
                            .or_default()
                            .push(home.pc_slot);
                    }
                    Some(_) => {
                        self.migration.remove(pa_block);
                        self.migration_stats.superseded_blocks += 1;
                        fresh.push(pa_block);
                    }
                    None => fresh.push(pa_block),
                }
            }
            Some(fresh)
        };
        let mut plan = {
            let mut access = match self.archive_restripe.as_mut() {
                Some(state) => ArchiveAccess::Restriping {
                    current: &self.pa,
                    restripe: state,
                },
                None => ArchiveAccess::Plain(&self.pa),
            };
            match &plan_blocks {
                // Fast path: no PC migration in flight, no per-block triage
                // (and no block-list allocation).
                None => redirector::plan_request_via(
                    &mut self.monitor,
                    &mut self.pc,
                    &mut access,
                    kind,
                    range,
                    &mut self.plan_scratch,
                ),
                Some(fresh) => redirector::plan_request_blocks_via(
                    &mut self.monitor,
                    &mut self.pc,
                    &mut access,
                    kind,
                    fresh,
                    range.len(),
                    &mut self.plan_scratch,
                ),
            }
        };
        self.flush_archive_forfeits();
        plan.cache_hit_blocks += pending_hits;

        let mut report = RequestReport {
            cache_hit_blocks: plan.cache_hit_blocks,
            admitted_blocks: plan.admitted_blocks,
            evictions: plan.evictions,
            dirty_writebacks: plan.dirty_writebacks,
            ..RequestReport::default()
        };
        plan.foreground = self.degrade(plan.foreground);
        for (generation, slots) in old_slot_reads {
            let old_pc = self
                .old_pcs
                .get(&generation)
                .expect("pending dirty blocks imply a preserved old PC geometry");
            let old_ios = old_pc.plan_blocks(IoKind::Read, &slots);
            let degraded_old = self.degrade_old_pc(generation, old_ios);
            plan.foreground.extend(degraded_old);
        }
        plan.background = self.degrade(plan.background);
        let mut finish = now;
        for io in plan.foreground {
            let ev = self
                .devices
                .submit(now, io.disk, io.kind, io.range, io.purpose);
            finish = finish.max(ev.finished);
            report.events.push(ev);
        }
        for io in plan.background {
            let ev = self
                .devices
                .submit(now, io.disk, io.kind, io.range, io.purpose);
            report.events.push(ev);
        }
        report.response = finish.saturating_since(now);
        Ok(report)
    }

    fn expand(&mut self, now: SimTime, added_disks: usize) -> Result<ExpansionReport, CraidError> {
        // The upgrade commits transactionally: every precondition is checked
        // *before* the cache partition is touched or any device/geometry
        // state changes, so a rejected expansion leaves the array exactly
        // as it was.
        if added_disks == 0 {
            return Err(CraidError::InvalidExpansion("no disks added".into()));
        }
        let paced = !self.config.instant_migration();
        if let Some((disk, state)) = self.devices.degraded_disk() {
            // A failed disk has no data to redistribute. A *rebuilding* one
            // is fine when the upgrade is paced: the migration task simply
            // fair-shares the background engine with the rebuild. The
            // instant path keeps refusing, bit-for-bit with the pre-engine
            // behaviour. (The in-flight rebuild keeps the segment plan it
            // was created with — a deliberate approximation: the physical
            // device is unchanged, but its live share shrinks under the
            // post-expansion geometry, so rebuild traffic errs on the
            // generous side.)
            if state == DiskState::Failed || !paced {
                return Err(CraidError::InvalidExpansion(format!(
                    "disk {disk} is {state:?}; wait until the array is healthy before expanding"
                )));
            }
        }
        if !paced && !self.migration.is_empty() {
            return Err(CraidError::InvalidExpansion(
                "a previous upgrade's migration is still in flight".into(),
            ));
        }
        // Validate the geometry against the *projected* disk count so a
        // deferred expansion can never fail at activation time.
        let projected = self.disks + self.activation.pending_disks() + added_disks;
        if self.config.strategy.archive_is_aggregated() {
            if added_disks < 2 {
                return Err(CraidError::InvalidExpansion(
                    "a new RAID-5 set needs at least 2 disks".into(),
                ));
            }
        } else if !projected.is_multiple_of(self.config.parity_group) {
            return Err(CraidError::InvalidExpansion(format!(
                "the ideal RAID-5 archive needs the disk count ({projected}) to stay a multiple of the parity group ({})",
                self.config.parity_group
            )));
        }
        if self.archive_restripe.is_some() {
            // One archive reshape at a time (a cursor cannot retarget a
            // moving layout): the expansion queues and activates when the
            // in-flight restripe drains. PC-only upgrades (the aggregated
            // `+` variants) never enter this branch and pipeline freely.
            self.activation.defer(added_disks);
            return Ok(ExpansionReport {
                added_disks,
                deferred: true,
                ..ExpansionReport::default()
            });
        }
        Ok(self.commit_expansion(now, added_disks))
    }

    fn fail_disk(&mut self, _now: SimTime, disk: usize) -> Result<(), CraidError> {
        self.devices.fail_disk(disk)?;
        self.fault_stats.disk_failures += 1;
        Ok(())
    }

    fn repair_disk(&mut self, now: SimTime, disk: usize) -> Result<(), CraidError> {
        // The rebuild streams the whole device image; its peers are the
        // archive layout's parity group (the PC rows of the disk are
        // reconstructed from the same spindles on the paper's shapes).
        let peers = self.pa.layout().reconstruction_peers(disk);
        let live = self
            .live_blocks_per_hdd()
            .min(self.devices.capacity_blocks(disk))
            .max(1);
        let segments = self.rebuild_plan(disk, live);
        fault::start_rebuild(
            &mut self.background,
            &mut self.devices,
            now,
            disk,
            peers,
            segments,
            self.config.rebuild_rate_blocks_per_sec,
            &mut self.fault_stats,
        )
    }

    fn pump_background(&mut self, now: SimTime) -> Vec<DeviceIoEvent> {
        let mut events = Vec::new();
        self.pump_background_into(now, &mut events);
        events
    }

    fn pump_background_into(&mut self, now: SimTime, events: &mut Vec<DeviceIoEvent>) {
        for batch in self.background.poll(now) {
            match batch {
                Batch::Rebuild {
                    disk,
                    peers,
                    ranges,
                    ..
                } => {
                    fault::issue_rebuild_batch(
                        now,
                        disk,
                        &peers,
                        &ranges,
                        &mut self.devices,
                        events,
                        &mut self.fault_stats,
                    );
                }
                Batch::Migration { id, blocks } => {
                    events.extend(self.apply_migration_batch(now, id, &blocks));
                }
                Batch::Restripe { budget, .. } => {
                    events.extend(self.apply_archive_batch(now, budget));
                }
            }
        }
        for done in self.background.take_completed() {
            match done.kind {
                TaskKind::Rebuild => {
                    fault::complete_rebuild(&done, &mut self.devices, &mut self.fault_stats);
                }
                TaskKind::ExpansionMigration => {
                    debug_assert!(
                        self.migration.iter().all(|(_, h)| h.generation != done.id),
                        "a drained migration leaves no pending blocks of its generation"
                    );
                    self.old_pcs.remove(&done.id);
                    self.migration_stats.migrations_completed += 1;
                    self.migration_stats.migration_secs += done.window_secs;
                }
                TaskKind::ArchiveRestripe => {
                    debug_assert!(
                        self.archive_restripe
                            .as_ref()
                            .is_some_and(RestripeState::drained),
                        "a completed restripe leaves no pending moves"
                    );
                    self.archive_restripe = None;
                    self.migration_stats.archive_restripes_completed += 1;
                    self.migration_stats.archive_restripe_secs += done.window_secs;
                }
            }
        }
        // A queued expansion activates the moment the reshape that blocked
        // it drains — by default even if the array has since degraded (a
        // deliberate modeling choice: the activation was accepted while
        // healthy, and all of its maintenance I/O runs through `degrade`
        // like any other traffic, so the model stays total and
        // deterministic rather than stranding the queue on a disk that may
        // never be repaired). With `activation = "wait-for-repair"` the
        // activation instead holds until the rebuild completes; the same
        // check after the completions loop is what releases it then.
        self.maybe_activate_deferred(now);
        // Under the model checker, audit the exactly-one-location invariant
        // at every pump boundary: no block may be pending migration and
        // cache-resident at once (one copy is authoritative).
        if crate::choice::active() {
            for (pa_block, _) in self.migration.iter() {
                if self.monitor.cached_slot(pa_block).is_some() {
                    crate::choice::observe(|| crate::choice::Observation::Colocated {
                        block: pa_block,
                    });
                }
            }
        }
    }

    fn background_work_due(&mut self, now: SimTime) -> bool {
        // Deferred expansions cannot unblock between pumps: the reshape or
        // rebuild gating them completes *inside* a pump (and the empty task
        // it leaves reports "due now"), so the engine's pacing clocks alone
        // decide whether polling can do anything.
        self.background.work_due(now)
    }

    fn background_idle(&self) -> bool {
        // A deferred expansion blocked by wait-for-repair on a *failed*
        // disk (no repair scheduled, so no rebuild task exists) counts as
        // idle: nothing can make progress until a `disk-repair` event
        // arrives, and the end-of-trace drain must not spin on it.
        self.background.is_idle()
            && self.activation.idle_under(
                self.config.activation,
                self.devices.degraded_disk().is_some(),
            )
    }

    fn set_background_throttle(&mut self, now: SimTime, scale: f64) {
        self.background.set_throttle(now, scale);
    }

    fn take_activations(&mut self) -> Vec<super::ActivatedExpansion> {
        self.activation.take_activations()
    }

    fn background_drain_eta(&self) -> Option<SimTime> {
        self.background.drain_eta()
    }

    fn fault_stats(&self) -> FaultStats {
        self.fault_stats
    }

    fn migration_stats(&self) -> MigrationStats {
        MigrationStats {
            pending_blocks: self.migration.len() as u64,
            archive_pending_blocks: self.pending_archive_blocks(),
            ..self.migration_stats
        }
    }

    fn switch_policy(
        &mut self,
        _now: SimTime,
        policy: craid_cache::PolicyKind,
    ) -> Result<(), CraidError> {
        self.monitor.switch_policy(policy);
        self.config.policy = policy;
        Ok(())
    }

    fn device_stats(&self) -> Vec<DeviceLoadStats> {
        self.devices.load_stats()
    }

    fn monitor_stats(&self) -> Option<MonitorStats> {
        Some(*self.monitor.stats())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use craid_simkit::SimDuration;

    fn array(strategy: StrategyKind) -> CraidArray {
        CraidArray::new(ArrayConfig::small_test(strategy, 10_000)).unwrap()
    }

    fn paced(strategy: StrategyKind, rate: f64, priority: BackgroundPriority) -> CraidArray {
        let config = ArrayConfig::small_test(strategy, 10_000)
            .with_migration_rate(Some(rate))
            .with_background_priority(priority);
        CraidArray::new(config).unwrap()
    }

    fn drain(a: &mut CraidArray, mut t: f64) -> f64 {
        while !a.background_idle() && t < 5_000.0 {
            a.pump_background(SimTime::from_secs(t));
            t += 1.0;
        }
        assert!(a.background_idle());
        t
    }

    #[test]
    fn cold_read_goes_to_archive_then_caches() {
        let mut a = array(StrategyKind::Craid5);
        let r1 = a
            .submit(SimTime::ZERO, IoKind::Read, BlockRange::new(500, 4))
            .unwrap();
        assert_eq!(r1.cache_hit_blocks, 0);
        assert_eq!(r1.admitted_blocks, 4);
        // Second read of the same blocks hits the cache partition.
        let r2 = a
            .submit(
                SimTime::from_secs(1.0),
                IoKind::Read,
                BlockRange::new(500, 4),
            )
            .unwrap();
        assert_eq!(r2.cache_hit_blocks, 4);
        assert_eq!(r2.admitted_blocks, 0);
        let stats = a.monitor_stats().unwrap();
        assert_eq!(stats.read_hits, 4);
        assert_eq!(stats.read_accesses, 8);
    }

    #[test]
    fn repeated_hot_reads_get_faster_than_cold_reads() {
        let mut a = array(StrategyKind::Craid5);
        let cold = a
            .submit(SimTime::ZERO, IoKind::Read, BlockRange::new(2_000, 4))
            .unwrap()
            .response;
        // Touch it a few times so it is firmly resident and the disks are idle.
        let mut warm = SimDuration::ZERO;
        for i in 1..=3 {
            warm = a
                .submit(
                    SimTime::from_secs(i as f64 * 10.0),
                    IoKind::Read,
                    BlockRange::new(2_000, 4),
                )
                .unwrap()
                .response;
        }
        assert!(
            warm <= cold,
            "warm read ({warm}) should not be slower than the cold read ({cold})"
        );
    }

    #[test]
    fn writes_are_absorbed_by_the_cache_partition() {
        let mut a = array(StrategyKind::Craid5);
        let pc_limit = a.config.pc_blocks_per_hdd();
        let r = a
            .submit(SimTime::ZERO, IoKind::Write, BlockRange::new(9_000, 2))
            .unwrap();
        assert_eq!(r.admitted_blocks, 2);
        assert!(
            r.events.iter().all(|e| e.start_block < pc_limit),
            "all I/O for an absorbed write stays inside the PC region"
        );
    }

    #[test]
    fn ssd_variant_sends_cache_traffic_to_ssds() {
        let mut a = array(StrategyKind::Craid5Ssd);
        let r = a
            .submit(SimTime::ZERO, IoKind::Write, BlockRange::new(100, 2))
            .unwrap();
        assert!(
            r.events.iter().all(|e| e.device >= 8),
            "writes are absorbed by the dedicated SSDs"
        );
        // A cold read touches the archive (HDDs) and copies to the SSDs.
        let r = a
            .submit(
                SimTime::from_secs(1.0),
                IoKind::Read,
                BlockRange::new(5_000, 2),
            )
            .unwrap();
        assert!(r.events.iter().any(|e| e.device < 8));
        assert!(r.events.iter().any(|e| e.device >= 8));
    }

    #[test]
    fn expansion_invalidates_pc_and_grows_it() {
        let mut a = array(StrategyKind::Craid5Plus);
        // Warm the cache with some dirty blocks.
        for b in 0..40u64 {
            a.submit(
                SimTime::from_millis(b as f64),
                IoKind::Write,
                BlockRange::new(b * 8, 4),
            )
            .unwrap();
        }
        let cached_before = a.monitor().cached_blocks();
        assert!(cached_before > 0);
        let pc_before = a.pc_capacity_blocks();
        let report = a.expand(SimTime::from_secs(10.0), 4).unwrap();
        assert_eq!(report.added_disks, 4);
        assert_eq!(report.migrated_blocks, cached_before as u64);
        assert!(report.writeback_blocks > 0, "dirty blocks are written back");
        assert!(!report.events.is_empty());
        assert_eq!(
            report.enqueued_blocks, 0,
            "instant upgrades enqueue nothing"
        );
        assert_eq!(a.disk_count(), 12);
        assert!(a.pc_capacity_blocks() > pc_before, "PC now spans 12 disks");
        assert_eq!(a.monitor().cached_blocks(), 0, "PC starts cold again");
        // The array keeps serving and refilling after the upgrade.
        let r = a
            .submit(
                SimTime::from_secs(20.0),
                IoKind::Read,
                BlockRange::new(0, 4),
            )
            .unwrap();
        assert_eq!(r.admitted_blocks, 4);
    }

    #[test]
    fn expansion_migration_is_bounded_by_pc_residency() {
        let mut a = array(StrategyKind::Craid5Plus);
        for b in 0..100u64 {
            a.submit(
                SimTime::from_millis(b as f64),
                IoKind::Read,
                BlockRange::new(b * 16, 2),
            )
            .unwrap();
        }
        let report = a.expand(SimTime::from_secs(5.0), 4).unwrap();
        assert!(report.migrated_blocks <= a.pc_capacity_blocks().max(report.migrated_blocks));
        assert!(
            report.migrated_blocks < 10_000 / 2,
            "CRAID migrates far less than the dataset"
        );
    }

    #[test]
    fn ssd_cached_expansion_keeps_cache_intact() {
        let mut a = array(StrategyKind::Craid5PlusSsd);
        for b in 0..20u64 {
            a.submit(
                SimTime::from_millis(b as f64),
                IoKind::Write,
                BlockRange::new(b * 4, 2),
            )
            .unwrap();
        }
        let cached = a.monitor().cached_blocks();
        let report = a.expand(SimTime::from_secs(2.0), 4).unwrap();
        assert_eq!(report.migrated_blocks, 0);
        assert_eq!(report.writeback_blocks, 0);
        assert_eq!(
            a.monitor().cached_blocks(),
            cached,
            "the SSD cache survives"
        );
    }

    #[test]
    fn out_of_range_and_invalid_expansion_are_rejected() {
        let mut a = array(StrategyKind::Craid5);
        let cap = a.capacity_blocks();
        assert!(a
            .submit(SimTime::ZERO, IoKind::Read, BlockRange::new(cap, 1))
            .is_err());
        assert!(a.expand(SimTime::ZERO, 0).is_err());
        let mut plus = array(StrategyKind::Craid5Plus);
        assert!(plus.expand(SimTime::ZERO, 1).is_err());
    }

    /// Warms an array with a deterministic mixed workload.
    fn warm(a: &mut CraidArray) {
        for b in 0..60u64 {
            let kind = if b % 3 == 0 {
                IoKind::Write
            } else {
                IoKind::Read
            };
            a.submit(
                SimTime::from_millis(b as f64 * 5.0),
                kind,
                BlockRange::new(b * 16 % 9_000, 4),
            )
            .unwrap();
        }
    }

    #[test]
    fn rejected_expansion_leaves_the_array_bit_identical() {
        // Two identically warmed arrays; one suffers a rejected expansion.
        let mut touched = array(StrategyKind::Craid5);
        let mut pristine = array(StrategyKind::Craid5);
        warm(&mut touched);
        warm(&mut pristine);

        // 8 + 3 = 11 is not a multiple of the parity group (4): rejected.
        let err = touched.expand(SimTime::from_secs(1.0), 3).unwrap_err();
        assert!(matches!(err, CraidError::InvalidExpansion(_)));

        // Every piece of reported state matches the untouched twin.
        assert_eq!(touched.disk_count(), pristine.disk_count());
        assert_eq!(touched.device_count(), pristine.device_count());
        assert_eq!(touched.capacity_blocks(), pristine.capacity_blocks());
        assert_eq!(touched.pc_capacity_blocks(), pristine.pc_capacity_blocks());
        assert_eq!(
            touched.monitor().cached_blocks(),
            pristine.monitor().cached_blocks(),
            "the cache partition was not invalidated"
        );
        assert_eq!(touched.monitor_stats(), pristine.monitor_stats());
        assert_eq!(touched.device_stats(), pristine.device_stats());

        // Subsequent traffic behaves byte-identically on both arrays.
        for b in [100u64, 3_000, 8_000] {
            let now = SimTime::from_secs(2.0 + b as f64);
            let got = touched
                .submit(now, IoKind::Read, BlockRange::new(b, 4))
                .unwrap();
            let want = pristine
                .submit(now, IoKind::Read, BlockRange::new(b, 4))
                .unwrap();
            assert_eq!(got, want, "block {b} diverged after the failed expand");
        }
    }

    #[test]
    fn ssd_expansion_keeps_cache_traffic_on_the_shifted_ssds() {
        let mut a = array(StrategyKind::Craid5PlusSsd);
        a.submit(SimTime::ZERO, IoKind::Read, BlockRange::new(0, 2))
            .unwrap();
        a.expand(SimTime::from_secs(1.0), 4).unwrap();
        // The SSDs moved from 8..11 to 12..15; the surviving cached copy
        // must be read from there, not from the freshly added spindles.
        let r = a
            .submit(SimTime::from_secs(2.0), IoKind::Read, BlockRange::new(0, 2))
            .unwrap();
        assert_eq!(r.cache_hit_blocks, 2);
        assert!(
            r.events.iter().all(|e| e.device >= 12),
            "cache hits must target the shifted SSDs, got {:?}",
            r.events.iter().map(|e| e.device).collect::<Vec<_>>()
        );
    }

    #[test]
    fn degraded_reads_reconstruct_from_surviving_group_members() {
        use craid_raid::IoPurpose;
        let mut a = array(StrategyKind::Craid5);
        // Find a block whose archive location is disk 1 and make it hot is
        // unnecessary — a cold read of a wide range will touch disk 1.
        a.fail_disk(SimTime::ZERO, 1).unwrap();
        let requests_before: Vec<u64> = a.device_stats().iter().map(|s| s.requests).collect();
        let mut saw_reconstruction = false;
        for b in 0..40u64 {
            let r = a
                .submit(
                    SimTime::from_millis(b as f64 * 10.0),
                    IoKind::Read,
                    BlockRange::new(b * 64, 8),
                )
                .unwrap();
            assert!(
                r.events.iter().all(|e| e.device != 1),
                "no I/O may reach the failed disk"
            );
            saw_reconstruction |= r
                .events
                .iter()
                .any(|e| e.purpose == IoPurpose::ReconstructRead);
        }
        assert!(saw_reconstruction, "some read must have needed disk 1");
        let stats = a.fault_stats();
        assert!(stats.degraded_reads > 0);
        assert_eq!(stats.disk_failures, 1);
        // The fan-out is visible in the surviving members' load stats:
        // disks 0, 2, 3 (disk 1's parity group) picked up extra requests.
        let requests_after: Vec<u64> = a.device_stats().iter().map(|s| s.requests).collect();
        assert_eq!(requests_after[1], requests_before[1]);
        for peer in [0usize, 2, 3] {
            assert!(requests_after[peer] > requests_before[peer]);
        }
    }

    #[test]
    fn repair_streams_the_rebuild_and_heals_the_array() {
        use craid_raid::IoPurpose;
        let mut config = ArrayConfig::small_test(StrategyKind::Craid5, 10_000);
        config.rebuild_rate_blocks_per_sec = 1_000_000.0;
        let mut a = CraidArray::new(config).unwrap();
        a.fail_disk(SimTime::ZERO, 2).unwrap();
        // Expanding a degraded array is refused (instant-migration mode).
        assert!(matches!(
            a.expand(SimTime::from_secs(0.5), 4),
            Err(CraidError::InvalidExpansion(_))
        ));
        a.repair_disk(SimTime::from_secs(1.0), 2).unwrap();
        assert!(!a.background_idle());
        // Client traffic interleaves with the rebuild stream until the
        // spare holds the full image.
        let mut t = 2.0;
        let mut saw_rebuild_write = false;
        while a.fault_stats().rebuilds_completed == 0 && t < 100.0 {
            let bg = a.pump_background(SimTime::from_secs(t));
            saw_rebuild_write |= bg
                .iter()
                .any(|e| e.purpose == IoPurpose::RebuildWrite && e.device == 2);
            a.submit(SimTime::from_secs(t), IoKind::Read, BlockRange::new(0, 4))
                .unwrap();
            t += 1.0;
        }
        assert!(saw_rebuild_write, "the rebuild streamed onto the spare");
        let stats = a.fault_stats();
        assert_eq!(stats.rebuilds_completed, 1);
        assert!(stats.rebuild_secs > 0.0);
        assert!(stats.mttr_secs() > 0.0);
        assert_eq!(stats.rebuild_write_blocks, a.live_blocks_per_hdd());
        assert!(
            stats.rebuild_write_blocks < 2 * 1024 * 1024 / 10,
            "a data-aware rebuild reconstructs only live stripes, not the \
             whole 2M-block device"
        );
        assert!(a.background_idle());
        // Healed: expansion works again and reads stop fanning out.
        let degraded_before = a.fault_stats().degraded_reads;
        a.submit(
            SimTime::from_secs(t + 1.0),
            IoKind::Read,
            BlockRange::new(5_000, 4),
        )
        .unwrap();
        assert_eq!(a.fault_stats().degraded_reads, degraded_before);
        assert!(a.expand(SimTime::from_secs(t + 2.0), 4).is_ok());
    }

    #[test]
    fn eviction_pressure_produces_writebacks() {
        let mut a = array(StrategyKind::Craid5);
        let pc = a.pc_capacity_blocks();
        // Write twice the PC capacity of distinct blocks: must evict dirty
        // victims and pay archive write-backs.
        let mut dirty_writebacks = 0;
        for i in 0..(2 * pc) {
            let r = a
                .submit(
                    SimTime::from_millis(i as f64),
                    IoKind::Write,
                    BlockRange::new((i * 7) % 9_000, 1),
                )
                .unwrap();
            dirty_writebacks += r.dirty_writebacks;
        }
        assert!(dirty_writebacks > 0);
        let stats = a.monitor_stats().unwrap();
        assert!(stats.dirty_evictions > 0);
        assert!(stats.write_eviction_ratio() > 0.0);
    }

    #[test]
    fn paced_expansion_commits_layout_and_streams_the_copies() {
        let mut a = paced(
            StrategyKind::Craid5Plus,
            50.0,
            BackgroundPriority::Sequential,
        );
        warm(&mut a);
        let cached = a.monitor().cached_blocks() as u64;
        assert!(cached > 0);
        let report = a.expand(SimTime::from_secs(10.0), 4).unwrap();
        // The layout committed immediately...
        assert_eq!(a.disk_count(), 12);
        assert_eq!(report.enqueued_blocks, cached);
        assert!(report.events.is_empty(), "no upgrade I/O at event time");
        assert_eq!(report.writeback_blocks, 0, "dirty copies move, not flush");
        assert_eq!(a.pending_migration_blocks(), cached);
        assert!(!a.background_idle());
        assert_eq!(
            a.migration_stats().effective_priority,
            Some(BackgroundPriority::Sequential)
        );
        // ...and the copies stream through the background engine.
        let mut t = 11.0;
        let mut migrate_events = 0usize;
        while !a.background_idle() && t < 500.0 {
            let events = a.pump_background(SimTime::from_secs(t));
            migrate_events += events.iter().filter(|e| e.purpose.is_migration()).count();
            t += 1.0;
        }
        assert!(a.background_idle(), "the migration drained");
        assert!(migrate_events > 0, "migration I/O flowed");
        let stats = a.migration_stats();
        assert_eq!(stats.migrations_started, 1);
        assert_eq!(stats.migrations_completed, 1);
        assert_eq!(stats.migrated_blocks + stats.superseded_blocks, cached);
        assert_eq!(stats.pending_blocks, 0);
        assert!(stats.migration_secs > 0.0, "a nonzero upgrade window");
        assert_eq!(
            stats.archive_restripes_started, 0,
            "aggregated archives never restripe"
        );
        // The migrated working set is resident again: hot reads hit.
        assert_eq!(a.monitor().cached_blocks() as u64, stats.migrated_blocks);
    }

    #[test]
    fn paced_craid5_upgrade_pays_the_archive_restripe() {
        let mut a = paced(
            StrategyKind::Craid5,
            100_000.0,
            BackgroundPriority::Sequential,
        );
        warm(&mut a);
        let report = a.expand(SimTime::from_secs(10.0), 4).unwrap();
        assert!(report.enqueued_blocks > 0, "the PC redistribution enqueued");
        // The ideal archive's reshape is no longer free: it rides the
        // engine as its own paced task with its own stats line.
        let stats = a.migration_stats();
        assert_eq!(stats.archive_restripes_started, 1);
        assert!(
            stats.archive_pending_blocks as f64 > 0.5 * 10_000.0,
            "the reshape moves most of the dataset, got {}",
            stats.archive_pending_blocks
        );
        assert!(a.pending_archive_blocks() > 0);
        let mut t = 11.0;
        let mut migrate_events = 0usize;
        while !a.background_idle() && t < 500.0 {
            let events = a.pump_background(SimTime::from_secs(t));
            migrate_events += events.iter().filter(|e| e.purpose.is_migration()).count();
            t += 1.0;
        }
        migrate_events.checked_sub(1).expect("restripe I/O flowed");
        let stats = a.migration_stats();
        assert_eq!(stats.archive_restripes_completed, 1);
        assert!(stats.archive_restripe_secs > 0.0, "a nonzero reshape cost");
        assert_eq!(stats.archive_pending_blocks, 0);
        assert!(
            stats.archive_migrated_blocks + stats.archive_superseded_blocks > 5_000,
            "the conventional cost is visible: {} blocks reshaped",
            stats.archive_migrated_blocks
        );
        // The PC redistribution completed alongside it (fair share).
        assert_eq!(stats.migrations_completed, 1);
        // After the drain the array serves normally.
        assert!(a
            .submit(SimTime::from_secs(t), IoKind::Read, BlockRange::new(0, 4))
            .is_ok());
    }

    #[test]
    fn archive_pending_reads_resolve_through_the_old_layout() {
        let mut a = paced(StrategyKind::Craid5, 1.0, BackgroundPriority::Sequential);
        let old_pa = a.pa.clone();
        a.expand(SimTime::from_secs(1.0), 4).unwrap();
        // Find an uncached block whose archive location changed.
        let state = a.archive_restripe.as_ref().unwrap();
        let pending = (0..10_000u64)
            .find(|&b| state.is_pending(&a.pa, b) && a.monitor.cached_slot(b).is_none())
            .expect("an 8→12 reshape moves uncached blocks");
        let old_plan = old_pa.plan_blocks(IoKind::Read, &[pending]);
        let new_plan = a.pa.plan_blocks(IoKind::Read, &[pending]);
        assert_ne!(old_plan, new_plan, "the block's location changed");
        let r = a
            .submit(
                SimTime::from_secs(1.5),
                IoKind::Read,
                BlockRange::new(pending, 1),
            )
            .unwrap();
        // The archive read (foreground, non-PC) targets the old location.
        assert!(
            r.events
                .iter()
                .any(|e| e.device == old_plan[0].disk
                    && e.start_block == old_plan[0].range.start()),
            "the pending read resolves through the pre-reshape volume"
        );
        // A dirty write-back of the same block supersedes the pending move:
        // force it by writing (the write is absorbed by PC, so instead
        // check the supersession API directly through eviction pressure is
        // overkill — assert the bookkeeping path).
        let before = a.pending_archive_blocks();
        a.archive_restripe
            .as_mut()
            .unwrap()
            .supersede(&a.pa, pending);
        a.flush_archive_forfeits();
        assert_eq!(a.pending_archive_blocks(), before - 1);
        assert_eq!(a.migration_stats().archive_superseded_blocks, 1);
    }

    #[test]
    fn reads_of_pending_dirty_blocks_come_from_the_old_slots() {
        let mut a = paced(StrategyKind::Craid5, 1.0, BackgroundPriority::Sequential);
        // Dirty a block, then expand: its only valid copy is the old slot.
        a.submit(SimTime::ZERO, IoKind::Write, BlockRange::new(123, 1))
            .unwrap();
        a.expand(SimTime::from_secs(1.0), 4).unwrap();
        assert!(a.migration.get(123).unwrap().dirty);
        let pc_limit = a.config.pc_blocks_per_hdd();
        let r = a
            .submit(
                SimTime::from_secs(1.5),
                IoKind::Read,
                BlockRange::new(123, 1),
            )
            .unwrap();
        assert_eq!(r.cache_hit_blocks, 1, "served from the preserved copy");
        assert!(
            r.events.iter().all(|e| e.start_block < pc_limit),
            "the read stays inside the (old) PC region"
        );
        assert!(
            a.migration.contains(123),
            "a read does not supersede a dirty pending move"
        );
        // A write lands at the new home and supersedes the move.
        a.submit(
            SimTime::from_secs(2.0),
            IoKind::Write,
            BlockRange::new(123, 1),
        )
        .unwrap();
        assert!(!a.migration.contains(123));
        assert_eq!(a.migration_stats().superseded_blocks, 1);
        assert!(
            a.monitor().mapping().lookup(123).unwrap().dirty,
            "the new-home copy is dirty"
        );
    }

    #[test]
    fn clean_pending_reads_supersede_and_refill_the_new_pc() {
        let mut a = paced(StrategyKind::Craid5, 1.0, BackgroundPriority::Sequential);
        a.submit(SimTime::ZERO, IoKind::Read, BlockRange::new(77, 1))
            .unwrap();
        a.expand(SimTime::from_secs(1.0), 4).unwrap();
        assert!(!a.migration.get(77).unwrap().dirty);
        let r = a
            .submit(
                SimTime::from_secs(1.5),
                IoKind::Read,
                BlockRange::new(77, 1),
            )
            .unwrap();
        assert_eq!(r.cache_hit_blocks, 0, "the archive still has valid data");
        assert_eq!(r.admitted_blocks, 1, "and the block re-enters the new PC");
        assert!(!a.migration.contains(77), "the pending move is superseded");
    }

    #[test]
    fn hot_first_migration_moves_the_hottest_blocks_first() {
        for priority in [BackgroundPriority::Sequential, BackgroundPriority::HotFirst] {
            let mut a = paced(StrategyKind::Craid5Plus, 2.0, priority);
            // Block 9000 is touched three times, 500 once: 9000 is hotter.
            a.submit(SimTime::ZERO, IoKind::Read, BlockRange::new(9_000, 1))
                .unwrap();
            a.submit(
                SimTime::from_millis(1.0),
                IoKind::Read,
                BlockRange::new(9_000, 1),
            )
            .unwrap();
            a.submit(
                SimTime::from_millis(2.0),
                IoKind::Read,
                BlockRange::new(9_000, 1),
            )
            .unwrap();
            a.submit(
                SimTime::from_millis(3.0),
                IoKind::Read,
                BlockRange::new(500, 1),
            )
            .unwrap();
            a.expand(SimTime::from_secs(1.0), 4).unwrap();
            assert_eq!(a.migration_stats().effective_priority, Some(priority));
            // At 2 blocks/s, one block is due at t = 1.5s.
            a.pump_background(SimTime::from_secs(1.5));
            let moved_9000_first = !a.migration.contains(9_000);
            match priority {
                BackgroundPriority::HotFirst => {
                    assert!(moved_9000_first, "the hot block migrates first")
                }
                BackgroundPriority::Sequential => {
                    assert!(!moved_9000_first, "ascending order moves 500 first")
                }
            }
        }
    }

    #[test]
    fn expand_during_rebuild_fair_shares_when_paced() {
        let mut config = ArrayConfig::small_test(StrategyKind::Craid5Plus, 10_000)
            .with_migration_rate(Some(1_000_000.0));
        config.rebuild_rate_blocks_per_sec = 1_000_000.0;
        let mut a = CraidArray::new(config).unwrap();
        warm(&mut a);
        a.fail_disk(SimTime::from_secs(1.0), 2).unwrap();
        a.repair_disk(SimTime::from_secs(2.0), 2).unwrap();
        // Mid-rebuild expansion is legal: both tasks are live on the same
        // fair-share engine and advance in the same pump.
        let report = a.expand(SimTime::from_secs(3.0), 4).unwrap();
        assert!(report.enqueued_blocks > 0);
        assert_eq!(a.disk_count(), 12);
        let migrated_before = a.migration_stats().migrated_blocks;
        let rebuilt_before = a.fault_stats().rebuild_write_blocks;
        a.pump_background(SimTime::from_secs(3.5));
        assert!(a.fault_stats().rebuild_write_blocks > rebuilt_before);
        assert!(a.migration_stats().migrated_blocks > migrated_before);
        let _ = drain(&mut a, 4.0);
        assert_eq!(a.fault_stats().rebuilds_completed, 1, "rebuild finished");
        assert_eq!(a.migration_stats().migrations_completed, 1, "and the move");
    }

    #[test]
    fn second_pc_migration_queues_and_both_generations_resolve() {
        // Aggregated archives have no reshape to serialize on, so a second
        // expand may start its own PC redistribution while the first is
        // still streaming: two preserved geometries are live at once.
        let mut a = paced(
            StrategyKind::Craid5Plus,
            2.0,
            BackgroundPriority::Sequential,
        );
        // A dirty block pins a generation-1 entry.
        a.submit(SimTime::ZERO, IoKind::Write, BlockRange::new(123, 1))
            .unwrap();
        a.submit(SimTime::ZERO, IoKind::Write, BlockRange::new(456, 1))
            .unwrap();
        let first = a.expand(SimTime::from_secs(1.0), 4).unwrap();
        assert!(!first.deferred);
        assert_eq!(a.pending_migration_blocks(), 2);
        // Touch a different block so generation 2 has its own content.
        a.submit(
            SimTime::from_secs(1.2),
            IoKind::Write,
            BlockRange::new(789, 1),
        )
        .unwrap();
        let second = a.expand(SimTime::from_secs(2.0), 4).unwrap();
        assert!(!second.deferred, "aggregated archives pipeline upgrades");
        assert_eq!(a.disk_count(), 16);
        assert_eq!(a.old_pcs.len(), 2, "two preserved geometries are live");
        let gens: Vec<TaskId> = a.migration.iter().map(|(_, h)| h.generation).collect();
        assert!(
            gens.iter().any(|&g| g != gens[0]),
            "entries from both generations are pending: {gens:?}"
        );
        // Dirty pending reads of both generations resolve correctly.
        for block in [123u64, 789] {
            let r = a
                .submit(
                    SimTime::from_secs(2.5),
                    IoKind::Read,
                    BlockRange::new(block, 1),
                )
                .unwrap();
            assert_eq!(r.cache_hit_blocks, 1, "block {block} served from its slot");
        }
        let _ = drain(&mut a, 3.0);
        let stats = a.migration_stats();
        assert_eq!(stats.migrations_started, 2);
        assert_eq!(stats.migrations_completed, 2);
        assert_eq!(stats.pending_blocks, 0);
        assert!(a.old_pcs.is_empty(), "both geometries were released");
    }

    #[test]
    fn ssd_variant_reports_sequential_effective_priority_for_its_restripe() {
        // Craid5Ssd starts no PC redistribution (the SSD cache survives);
        // its only paced stream is the archive-restripe cursor, which walks
        // sequentially no matter what was configured. The report must say
        // so instead of echoing the no-op hot-first knob.
        let mut a = paced(
            StrategyKind::Craid5Ssd,
            100_000.0,
            BackgroundPriority::HotFirst,
        );
        warm(&mut a);
        let report = a.expand(SimTime::from_secs(10.0), 4).unwrap();
        assert_eq!(
            report.enqueued_blocks, 0,
            "the SSD cache is kept, not moved"
        );
        let stats = a.migration_stats();
        assert_eq!(stats.archive_restripes_started, 1);
        assert_eq!(
            stats.effective_priority,
            Some(BackgroundPriority::Sequential),
            "only the sequential reshape actually ran"
        );
        let _ = drain(&mut a, 11.0);
        assert_eq!(a.migration_stats().archive_restripes_completed, 1);
    }

    #[test]
    fn zero_move_activation_cannot_strand_later_deferred_expansions() {
        // A one-block dataset keeps its location across the width change,
        // so the reshape's move set is empty. The restripe task must be
        // pushed anyway: its completion is what activates the next queued
        // expansion — without it the deferred queue would hang the drain.
        let config =
            ArrayConfig::small_test(StrategyKind::Craid5, 1).with_migration_rate(Some(1_000.0));
        let mut a = CraidArray::new(config).unwrap();
        a.expand(SimTime::from_secs(1.0), 4).unwrap();
        let second = a.expand(SimTime::from_secs(2.0), 4).unwrap();
        assert!(second.deferred);
        let third = a.expand(SimTime::from_secs(3.0), 4).unwrap();
        assert!(third.deferred);
        let _ = drain(&mut a, 4.0);
        assert_eq!(a.disk_count(), 20, "every queued expansion activated");
        assert_eq!(a.deferred_expansions(), 0);
        let stats = a.migration_stats();
        assert_eq!(stats.archive_restripes_started, 3);
        assert_eq!(stats.archive_restripes_completed, 3);
    }

    #[test]
    fn craid5_second_expand_defers_behind_the_archive_restripe() {
        let mut a = paced(
            StrategyKind::Craid5,
            50_000.0,
            BackgroundPriority::Sequential,
        );
        warm(&mut a);
        let first = a.expand(SimTime::from_secs(1.0), 4).unwrap();
        assert!(!first.deferred);
        assert_eq!(a.disk_count(), 12);
        let second = a.expand(SimTime::from_secs(2.0), 4).unwrap();
        assert!(second.deferred, "the reshape serializes ideal archives");
        assert_eq!(a.disk_count(), 12, "the deferred layout is not committed");
        assert_eq!(a.deferred_expansions(), 1);
        // 12 + 4 + 3 = 19 breaks the projected parity alignment.
        assert!(a.expand(SimTime::from_secs(2.5), 3).is_err());
        let t = drain(&mut a, 3.0);
        assert_eq!(a.disk_count(), 16, "the queued expansion activated");
        let stats = a.migration_stats();
        assert_eq!(stats.archive_restripes_started, 2);
        assert_eq!(stats.archive_restripes_completed, 2);
        assert_eq!(stats.migrations_completed, stats.migrations_started);
        assert!(a
            .submit(SimTime::from_secs(t), IoKind::Read, BlockRange::new(0, 4))
            .is_ok());
    }
}
