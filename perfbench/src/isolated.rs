//! Isolated replays of the layers below `StorageArray::submit`, fed from the
//! inputs the traced run captured.
//!
//! The engine gives no public seam inside `submit`, so the replacement
//! policy, the I/O monitor and the device models are timed by replaying
//! the run's own inputs through their public constructors: the mapped
//! client block stream through a fresh `ReplacementPolicy` and a fresh
//! `IoMonitor` with its `CachePartition`, and the issued device I/O stream
//! through a fresh `DeviceSet`. While no migration is in flight the monitor
//! sees exactly the mapped stream, so on event-free runs the isolated
//! counters must equal the engine's; the gate checks that.

use std::time::Instant;

use craid::devices::DeviceSet;
use craid::monitor::MonitorStats;
use craid::{ArrayConfig, CachePartition, CraidError, IoMonitor};
use craid_cache::AccessMeta;
use craid_diskmodel::{BlockRange, IoKind};
use craid_raid::Raid5Layout;

use crate::driver::{Capture, DeviceChange};

/// The replacement policy alone.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct PolicyReplay {
    /// Block accesses.
    pub accesses: u64,
    /// Accesses that hit.
    pub hits: u64,
    /// Insertions that evicted a victim.
    pub evictions: u64,
    /// Host seconds inside `ReplacementPolicy::access`.
    pub secs: f64,
}

/// The I/O monitor with its mapping cache and cache partition.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct MonitorReplay {
    /// The monitor's counters after the replay.
    pub stats: MonitorStats,
    /// Block accesses.
    pub accesses: u64,
    /// Host seconds inside `IoMonitor::access`.
    pub secs: f64,
}

/// The device set and its disk models.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct DeviceReplay {
    /// I/Os submitted.
    pub ios: u64,
    /// I/Os served from a drive's internal cache.
    pub cache_hits: u64,
    /// I/Os whose completion, queue depth or cache outcome differed from
    /// what the array saw.
    pub mismatches: u64,
    /// Host seconds of the replay loop (almost all of it inside
    /// `DeviceSet::submit`).
    pub secs: f64,
}

impl PolicyReplay {
    /// Adds another replay's tallies.
    pub fn absorb(&mut self, other: &PolicyReplay) {
        self.accesses += other.accesses;
        self.hits += other.hits;
        self.evictions += other.evictions;
        self.secs += other.secs;
    }
}

impl MonitorReplay {
    /// Adds another replay's access count, time and dirty evictions.
    pub fn absorb(&mut self, other: &MonitorReplay) {
        self.accesses += other.accesses;
        self.secs += other.secs;
        self.stats.dirty_evictions += other.stats.dirty_evictions;
    }
}

impl DeviceReplay {
    /// Adds another replay's tallies.
    pub fn absorb(&mut self, other: &DeviceReplay) {
        self.ios += other.ios;
        self.cache_hits += other.cache_hits;
        self.mismatches += other.mismatches;
        self.secs += other.secs;
    }
}

fn meta(write: bool, request_blocks: u64) -> AccessMeta {
    if write {
        AccessMeta::write(request_blocks)
    } else {
        AccessMeta::read(request_blocks)
    }
}

/// Replays the mapped client stream through a fresh policy of the run's
/// kind and cache-partition capacity.
pub fn replay_policy(config: &ArrayConfig, pc_capacity: u64, capture: &Capture) -> PolicyReplay {
    let mut policy = config.policy.build(pc_capacity as usize);
    let mut out = PolicyReplay::default();
    let started = Instant::now();
    for access in &capture.client {
        let m = meta(access.write, u64::from(access.len));
        for block in access.start..access.start + u64::from(access.len) {
            let outcome = std::hint::black_box(policy.access(block, m));
            out.accesses += 1;
            out.hits += u64::from(outcome.is_hit());
            out.evictions += u64::from(outcome.is_replacement());
        }
    }
    out.secs = started.elapsed().as_secs_f64();
    out
}

/// The cache partition the array builds for `config` at its initial size.
fn cache_partition(config: &ArrayConfig) -> Result<CachePartition, CraidError> {
    let pc = if config.strategy.uses_ssd_cache() {
        let layout = Raid5Layout::new(
            config.ssd_cache_devices,
            config.ssd_cache_devices,
            config.stripe_unit,
            config.pc_blocks_per_ssd(),
        )
        .map_err(|e| CraidError::Io(format!("cache-partition layout: {e}")))?;
        CachePartition::new(layout, config.disks, 0)
    } else {
        let layout = Raid5Layout::new(
            config.disks,
            config.parity_group,
            config.stripe_unit,
            config.pc_blocks_per_hdd(),
        )
        .map_err(|e| CraidError::Io(format!("cache-partition layout: {e}")))?;
        CachePartition::new(layout, 0, 0)
    };
    Ok(pc)
}

/// Replays the mapped client stream through a fresh monitor over a fresh
/// cache partition.
///
/// # Errors
///
/// Returns an error if the configuration's cache-partition layout is
/// invalid.
pub fn replay_monitor(
    config: &ArrayConfig,
    capture: &Capture,
) -> Result<MonitorReplay, CraidError> {
    let mut pc = cache_partition(config)?;
    let mut monitor = IoMonitor::new(config.policy, pc.capacity());
    let mut accesses = 0u64;
    let started = Instant::now();
    for access in &capture.client {
        let kind = if access.write {
            IoKind::Write
        } else {
            IoKind::Read
        };
        let len = u64::from(access.len);
        for block in access.start..access.start + len {
            std::hint::black_box(monitor.access(block, kind, len, &mut pc));
            accesses += 1;
        }
    }
    let secs = started.elapsed().as_secs_f64();
    Ok(MonitorReplay {
        stats: *monitor.stats(),
        accesses,
        secs,
    })
}

/// Replays the issued device I/O stream through a fresh device set,
/// applying the run's population changes at the recorded points.
///
/// # Errors
///
/// Returns the device set's error if a recorded failure or repair cannot
/// be applied.
pub fn replay_devices(config: &ArrayConfig, capture: &Capture) -> Result<DeviceReplay, CraidError> {
    let mut devices = DeviceSet::from_config(config);
    let mut out = DeviceReplay::default();
    let mut changes = capture.changes.iter().peekable();
    let started = Instant::now();
    for (index, io) in capture.ios.iter().enumerate() {
        while let Some(&&(at, change)) = changes.peek() {
            if at > index {
                break;
            }
            changes.next();
            match change {
                DeviceChange::AddDisks(n) => devices.add_hdds(n),
                DeviceChange::Fail(d) => devices.fail_disk(d)?,
                DeviceChange::Repair(d) => devices.start_rebuild(d)?,
            }
        }
        let ev = devices.submit(
            io.submitted,
            io.device as usize,
            io.kind,
            BlockRange::new(io.start, u64::from(io.blocks)),
            io.purpose,
        );
        out.ios += 1;
        out.cache_hits += u64::from(ev.internal_cache_hit);
        if ev.finished != io.finished
            || ev.queue_depth != io.queue_depth
            || ev.internal_cache_hit != io.cache_hit
        {
            out.mismatches += 1;
        }
    }
    out.secs = started.elapsed().as_secs_f64();
    Ok(out)
}
