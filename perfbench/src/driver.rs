//! The traced replay driver: the simulator's replay loop rebuilt over the
//! public single-thread API, with a span around every call into a layer.
//!
//! It follows `Simulation::try_run_events` step by step — scheduled events,
//! the QoS decision, the event-clocked background pump, the dataset mapper,
//! `StorageArray::submit`, the controller's observation and the metrics
//! fold — so its outputs must equal the engine's report exactly; the
//! correctness gate checks that they do. Nothing is timed inside the
//! program: every span opens and closes here.

use craid::array::{build_array, RequestReport, StorageArray};
use craid::devices::DeviceIoEvent;
use craid::monitor::MonitorStats;
use craid::report::CraidStats;
use craid::{ArrayConfig, CraidError, DatasetMapper, QosController, Scenario, ScheduledEvent};
use craid_diskmodel::{BlockRange, IoKind};
use craid_metrics::concurrency::ConcurrencySummary;
use craid_metrics::{
    ConcurrencyTracker, LoadBalanceTracker, SequentialityTracker, StreamingSummary,
};
use craid_raid::IoPurpose;
use craid_simkit::{SimDuration, SimTime};
use craid_trace::Trace;

use crate::gate::Outputs;
use crate::spans::{SpanKind, SpanRecorder};

/// One mapped client range handed to `StorageArray::submit`, as the
/// monitor sees it.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ClientAccess {
    /// First archive block.
    pub start: u64,
    /// Blocks in the range (the request size the policy sees).
    pub len: u32,
    /// True for writes.
    pub write: bool,
}

/// One device I/O the array issued, compact.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct CapturedIo {
    /// Target device.
    pub device: u32,
    /// Physical start block.
    pub start: u64,
    /// Blocks moved.
    pub blocks: u32,
    /// Transfer direction.
    pub kind: IoKind,
    /// Why the array issued it.
    pub purpose: IoPurpose,
    /// Submission instant.
    pub submitted: SimTime,
    /// Completion instant the array saw.
    pub finished: SimTime,
    /// Queue depth the array saw.
    pub queue_depth: u64,
    /// Whether the device's internal cache served it.
    pub cache_hit: bool,
}

impl From<&DeviceIoEvent> for CapturedIo {
    fn from(ev: &DeviceIoEvent) -> Self {
        CapturedIo {
            device: ev.device as u32,
            start: ev.start_block,
            blocks: ev.blocks as u32,
            kind: ev.kind,
            purpose: ev.purpose,
            submitted: ev.submitted,
            finished: ev.finished,
            queue_depth: ev.queue_depth,
            cache_hit: ev.internal_cache_hit,
        }
    }
}

/// A change of the device population, applied before the captured I/O at
/// the recorded index.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum DeviceChange {
    /// Mechanical disks added by an upgrade.
    AddDisks(usize),
    /// A disk failed.
    Fail(usize),
    /// A hot spare was installed in a failed disk's slot.
    Repair(usize),
}

/// The inputs the isolated layer replays are fed from.
#[derive(Debug, Clone, Default)]
pub struct Capture {
    /// Every mapped client range, in submit order.
    pub client: Vec<ClientAccess>,
    /// Every device I/O, in issue order.
    pub ios: Vec<CapturedIo>,
    /// Device-population changes, keyed by the index of the next I/O.
    pub changes: Vec<(usize, DeviceChange)>,
}

/// Deterministic operation counts of one traced replay.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct Counts {
    /// Trace records replayed.
    pub records: u64,
    /// Mapped ranges submitted.
    pub map_ranges: u64,
    /// `StorageArray::submit` calls.
    pub submits: u64,
    /// Device I/Os from client submits.
    pub client_ios: u64,
    /// Device I/Os from maintenance: pumps (including the drain) and
    /// upgrade-time write-backs.
    pub maintenance_ios: u64,
    /// `background_work_due` calls.
    pub due_checks: u64,
    /// Pump calls.
    pub pumps: u64,
    /// Pump calls that issued at least one I/O.
    pub useful_pumps: u64,
    /// Blocks the pumps issued.
    pub background_blocks: u64,
    /// `QosController::evaluate` calls.
    pub qos_decisions: u64,
    /// Evaluations that retargeted the throttle.
    pub qos_retargets: u64,
    /// Device events folded into the metrics trackers.
    pub metrics_device_events: u64,
}

impl Counts {
    /// Client plus maintenance device I/Os.
    pub fn device_ios(&self) -> u64 {
        self.client_ios + self.maintenance_ios
    }

    /// Adds another run's counts.
    pub fn absorb(&mut self, other: &Counts) {
        self.records += other.records;
        self.map_ranges += other.map_ranges;
        self.submits += other.submits;
        self.client_ios += other.client_ios;
        self.maintenance_ios += other.maintenance_ios;
        self.due_checks += other.due_checks;
        self.pumps += other.pumps;
        self.useful_pumps += other.useful_pumps;
        self.background_blocks += other.background_blocks;
        self.qos_decisions += other.qos_decisions;
        self.qos_retargets += other.qos_retargets;
        self.metrics_device_events += other.metrics_device_events;
    }
}

/// Everything one traced replay produced.
pub struct TracedRun {
    /// The resolved configuration the array was built from.
    pub config: ArrayConfig,
    /// The driver's recomputation of the report's fields.
    pub outputs: Outputs,
    /// Operation counts.
    pub counts: Counts,
    /// Host seconds from the first record to the finished statistics.
    pub replay_secs: f64,
    /// The monitor's counters at the end of the run (None for baselines).
    pub monitor: Option<MonitorStats>,
    /// The layer inputs, when capture was requested.
    pub capture: Option<Capture>,
}

/// The device-metrics trackers of the engine's inline metrics pipeline.
struct Trackers {
    load: LoadBalanceTracker,
    seq: SequentialityTracker,
    conc: ConcurrencyTracker,
    read: StreamingSummary,
    write: StreamingSummary,
    events: u64,
}

impl Trackers {
    fn record(&mut self, ev: &DeviceIoEvent) {
        self.load.record(ev.submitted, ev.device, ev.bytes());
        self.seq
            .record(ev.submitted, ev.device, ev.start_block, ev.blocks);
        self.conc.record(ev.submitted, ev.device, ev.queue_depth);
        self.events += 1;
    }

    fn finish(self) -> Folded {
        let (ioq, cdev) = self.conc.finish();
        Folded {
            overall_cv: self.load.overall_cv(),
            sequential_fraction: self.seq.overall_sequential_fraction(),
            read: (self.read.count(), self.read.mean()),
            write: (self.write.count(), self.write.mean()),
            ioq,
            cdev,
            events: self.events,
        }
    }
}

/// The trackers' end-of-run outputs.
struct Folded {
    overall_cv: f64,
    sequential_fraction: f64,
    read: (u64, f64),
    write: (u64, f64),
    ioq: ConcurrencySummary,
    cdev: ConcurrencySummary,
    events: u64,
}

/// Replays `trace` under `scenario`'s array and timeline, recording spans
/// into `spans` and, with `capture`, the layer inputs.
///
/// # Errors
///
/// Returns the engine's error if the configuration or an event is invalid,
/// and [`CraidError::Io`] for a workload-swapping phase, which this driver
/// does not mirror.
pub fn traced_replay(
    scenario: &Scenario,
    trace: &Trace,
    spans: &mut SpanRecorder,
    capture: bool,
) -> Result<TracedRun, CraidError> {
    scenario.validate()?;
    let mut config = scenario.array_config(trace);
    config.dataset_blocks = config.dataset_blocks.max(trace.footprint_blocks());
    let mut array = build_array(&config)?;
    let mapper = DatasetMapper::new(
        trace.footprint_blocks(),
        array.capacity_blocks(),
        config.seed,
    );
    let mut schedule: Vec<&ScheduledEvent> = scenario.events.iter().collect();
    schedule.sort_by_key(|e| e.at());
    let mut pending = schedule.into_iter().peekable();
    let total_added: usize = scenario
        .events
        .iter()
        .map(|e| match e {
            ScheduledEvent::Expand { added_disks, .. } => *added_disks,
            _ => 0,
        })
        .sum();
    let mut trackers = Trackers {
        load: LoadBalanceTracker::new(array.device_count() + total_added),
        seq: SequentialityTracker::new(),
        conc: ConcurrencyTracker::new(),
        read: StreamingSummary::new(),
        write: StreamingSummary::new(),
        events: 0,
    };
    let mut qos = config.qos.clone().map(QosController::new);
    let mut counts = Counts::default();
    let mut cap = capture.then(Capture::default);
    let mut ranges: Vec<BlockRange> = Vec::new();
    let mut background: Vec<DeviceIoEvent> = Vec::new();
    let mut reports: Vec<RequestReport> = Vec::new();
    let mut end_time = SimTime::ZERO;

    let replay_started = std::time::Instant::now();
    for (index, record) in trace.iter().enumerate() {
        spans.set_record(index as u64);
        spans.enter(SpanKind::Record);
        end_time = end_time.max(record.time);
        while let Some(event) = pending.peek() {
            if event.at() > record.time {
                break;
            }
            let event = pending.next().expect("peeked event exists");
            let expansion = spans.time(SpanKind::Events, || {
                apply_event(array.as_mut(), event, cap.as_mut())
            })?;
            if let Some(report) = expansion {
                counts.maintenance_ios += report.events.len() as u64;
                spans.time(SpanKind::MetricsFold, || {
                    for ev in &report.events {
                        trackers.record(ev);
                    }
                });
                if let Some(c) = cap.as_mut() {
                    c.ios.extend(report.events.iter().map(CapturedIo::from));
                }
            }
        }

        if let Some(controller) = qos.as_mut() {
            counts.qos_decisions += 1;
            if let Some(retarget) =
                spans.time(SpanKind::QosEvaluate, || controller.evaluate(record.time))
            {
                counts.qos_retargets += 1;
                spans.time(SpanKind::Throttle, || {
                    array.set_background_throttle(record.time, retarget.scale)
                });
            }
        }
        background.clear();
        counts.due_checks += 1;
        if spans.time(SpanKind::DueCheck, || {
            array.background_work_due(record.time)
        }) {
            spans.time(SpanKind::Pump, || {
                array.pump_background_into(record.time, &mut background)
            });
            counts.pumps += 1;
            note_pump(&mut counts, &background, cap.as_mut());
        }
        if let Some(controller) = qos.as_mut() {
            spans.time(SpanKind::QosNote, || {
                controller.note_maintenance(&background)
            });
        }
        spans.time(SpanKind::Activations, || array.take_activations());

        spans.time(SpanKind::Map, || {
            mapper.map_into(BlockRange::new(record.offset, record.length), &mut ranges)
        });
        counts.map_ranges += ranges.len() as u64;
        reports.clear();
        let mut worst_ms = 0.0f64;
        for &range in &ranges {
            let report = spans.time(SpanKind::Submit, || {
                array.submit(record.time, record.kind, range)
            })?;
            counts.submits += 1;
            counts.client_ios += report.events.len() as u64;
            worst_ms = worst_ms.max(report.response.as_millis());
            if let Some(c) = cap.as_mut() {
                c.client.push(ClientAccess {
                    start: range.start(),
                    len: range.len() as u32,
                    write: record.kind == IoKind::Write,
                });
                c.ios.extend(report.events.iter().map(CapturedIo::from));
            }
            reports.push(report);
        }
        if let Some(controller) = qos.as_mut() {
            spans.time(SpanKind::QosObserve, || {
                controller.observe(record.time, worst_ms, &reports)
            });
        }
        spans.time(SpanKind::MetricsFold, || {
            for ev in &background {
                trackers.record(ev);
            }
            for report in &reports {
                for ev in &report.events {
                    trackers.record(ev);
                }
            }
            match record.kind {
                IoKind::Read => trackers.read.record(worst_ms),
                IoKind::Write => trackers.write.record(worst_ms),
            }
        });
        counts.records += 1;
        spans.exit();
    }

    // Events after the last record execute outside the measurement window,
    // then maintenance still in flight drains at its paced completion
    // instants (with the throttle released).
    spans.set_record(counts.records);
    spans.enter(SpanKind::Drain);
    let measured_end = end_time;
    for event in pending {
        end_time = end_time.max(event.at());
        let expansion = spans.time(SpanKind::Events, || {
            apply_event(array.as_mut(), event, cap.as_mut())
        })?;
        if let Some(report) = expansion {
            counts.maintenance_ios += report.events.len() as u64;
            if let Some(c) = cap.as_mut() {
                c.ios.extend(report.events.iter().map(CapturedIo::from));
            }
        }
    }
    let drain_started = end_time;
    let mut drain_at = end_time;
    if qos.is_some() {
        spans.time(SpanKind::Throttle, || {
            array.set_background_throttle(drain_started, 1.0)
        });
    }
    while !array.background_idle() {
        if let Some(eta) = array.background_drain_eta() {
            drain_at = drain_at.max(eta);
        }
        let events = spans.time(SpanKind::Pump, || array.pump_background(drain_at));
        counts.pumps += 1;
        note_pump(&mut counts, &events, cap.as_mut());
        spans.time(SpanKind::Activations, || array.take_activations());
        if events.is_empty() && !array.background_idle() {
            drain_at += SimDuration::from_millis(1.0);
        }
    }
    let drain_secs = drain_at.saturating_since(drain_started).as_secs();
    spans.exit();

    spans.enter(SpanKind::Finish);
    let monitor = array.monitor_stats();
    let craid = monitor.map(|m| CraidStats {
        pc_capacity_blocks: array.pc_capacity_blocks(),
        pc_percent_per_disk: config.pc_percent_per_disk(),
        hit_ratio: m.hit_ratio(),
        read_hit_ratio: m.read_hit_ratio(),
        write_hit_ratio: m.write_hit_ratio(),
        replacement_ratio: m.replacement_ratio(),
        read_eviction_ratio: m.read_eviction_ratio(),
        write_eviction_ratio: m.write_eviction_ratio(),
        dirty_evictions: m.dirty_evictions,
    });
    let device_bytes = array.device_stats().iter().map(|s| s.bytes).collect();
    let qos_stats = qos.map(|c| c.finish(measured_end)).unwrap_or_default();
    let folded = spans.time(SpanKind::MetricsFold, || trackers.finish());
    counts.metrics_device_events = folded.events;
    let outputs = Outputs {
        requests: counts.records,
        device_bytes,
        craid,
        fault: array.fault_stats(),
        migration: array.migration_stats(),
        qos: qos_stats,
        background_drain_secs: drain_secs,
        overall_cv: folded.overall_cv,
        sequential_fraction: folded.sequential_fraction,
        read: folded.read,
        write: folded.write,
        ioq: folded.ioq,
        cdev: folded.cdev,
    };
    spans.exit();

    Ok(TracedRun {
        config,
        outputs,
        counts,
        replay_secs: replay_started.elapsed().as_secs_f64(),
        monitor,
        capture: cap,
    })
}

fn note_pump(counts: &mut Counts, events: &[DeviceIoEvent], cap: Option<&mut Capture>) {
    if !events.is_empty() {
        counts.useful_pumps += 1;
    }
    counts.maintenance_ios += events.len() as u64;
    counts.background_blocks += events.iter().map(|e| e.blocks).sum::<u64>();
    if let Some(c) = cap {
        c.ios.extend(events.iter().map(CapturedIo::from));
    }
}

/// Applies one scheduled event, as the engine does.
fn apply_event(
    array: &mut dyn StorageArray,
    event: &ScheduledEvent,
    cap: Option<&mut Capture>,
) -> Result<Option<craid::ExpansionReport>, CraidError> {
    let change = match event {
        ScheduledEvent::Expand { added_disks, .. } => Some(DeviceChange::AddDisks(*added_disks)),
        ScheduledEvent::DiskFailure { disk, .. } => Some(DeviceChange::Fail(*disk)),
        ScheduledEvent::DiskRepair { disk, .. } => Some(DeviceChange::Repair(*disk)),
        ScheduledEvent::PolicySwitch { .. } | ScheduledEvent::WorkloadPhase { .. } => None,
    };
    if let (Some(change), Some(c)) = (change, cap) {
        c.changes.push((c.ios.len(), change));
    }
    match event {
        ScheduledEvent::Expand { at, added_disks } => array.expand(*at, *added_disks).map(Some),
        ScheduledEvent::PolicySwitch { at, policy } => {
            array.switch_policy(*at, *policy)?;
            Ok(None)
        }
        ScheduledEvent::WorkloadPhase { workload: None, .. } => Ok(None),
        ScheduledEvent::WorkloadPhase {
            workload: Some(_), ..
        } => Err(CraidError::Io(
            "the traced driver does not mirror workload-swapping phases".into(),
        )),
        ScheduledEvent::DiskFailure { at, disk } => {
            array.fail_disk(*at, *disk)?;
            Ok(None)
        }
        ScheduledEvent::DiskRepair { at, disk } => {
            array.repair_disk(*at, *disk)?;
            Ok(None)
        }
    }
}
