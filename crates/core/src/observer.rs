//! Pluggable observation of a running simulation.
//!
//! The replay engine in [`crate::sim`] drives a trace and an event schedule
//! against an array and publishes each fact it produces exactly once, as a
//! typed [`SimEvent`]: maintenance I/O, a served client request, an applied
//! [`ScheduledEvent`], a throttle retarget, a deferred activation. One
//! publish site feeds every consumer — the installed tracer (through
//! [`SimEvent::trace_event`]), the [`MetricsCollector`] that builds the
//! [`SimulationReport`], and the caller's [`Observer`] — so new consumers
//! can be added without touching the engine's run loop.
//!
//! The paper's measurement pipeline itself is implemented as an observer:
//! [`MetricsCollector`] owns the response-time summaries, quantile sketches,
//! load-balance / sequentiality / concurrency trackers, and assembles the
//! final [`SimulationReport`].

use craid_diskmodel::IoKind;
use craid_metrics::{
    ConcurrencyTracker, LoadBalanceTracker, Quantiles, SequentialityTracker, StreamingSummary,
};
use craid_obs::{SpanCategory, TraceEvent};
use craid_simkit::{SimDuration, SimTime};
use craid_trace::{Trace, TraceRecord};

use crate::devices::DeviceIoEvent;

use crate::array::{ExpansionReport, RequestReport};
use crate::config::ArrayConfig;
use crate::report::{CraidStats, LoadBalanceSummary, ResponseSummary, SimulationReport};
use crate::scenario::ScheduledEvent;

/// Everything the engine observed while serving one client request.
#[derive(Debug, Clone)]
pub struct RequestOutcome {
    /// The slowest of the request's mapped sub-range responses, in
    /// milliseconds — the per-request response time the paper reports.
    pub worst_ms: f64,
    /// Per-mapped-sub-range completion reports (device events, cache hits,
    /// admissions, evictions) of the client I/O only; the background
    /// maintenance issued ahead of the request arrives separately as a
    /// [`SimEvent::Maintenance`].
    pub reports: Vec<RequestReport>,
}

impl RequestOutcome {
    /// Blocks of this request served from an existing cache-partition copy.
    pub fn cache_hit_blocks(&self) -> u64 {
        self.reports.iter().map(|r| r.cache_hit_blocks).sum()
    }
}

/// One fact the replay engine publishes, in the order it happens.
#[derive(Debug, Clone, Copy)]
pub enum SimEvent<'a> {
    /// Background maintenance I/O (rebuild, migration, restripe batches)
    /// issued ahead of the next client request, published just before its
    /// [`SimEvent::Request`] when non-empty. The drain publishes none.
    Maintenance(&'a [DeviceIoEvent]),
    /// One client request completed.
    Request {
        /// The replayed trace record.
        record: &'a TraceRecord,
        /// What serving it cost.
        outcome: &'a RequestOutcome,
    },
    /// A scheduled event was applied.
    Scheduled {
        /// The event.
        event: &'a ScheduledEvent,
        /// The upgrade report when the event was an expansion.
        expansion: Option<&'a ExpansionReport>,
    },
    /// The QoS controller retargeted the maintenance throttle (every
    /// retarget; never on a run without a `[qos]` spec).
    Throttle {
        /// The decision instant.
        at: SimTime,
        /// The new maintenance throttle in `[floor, 1.0]`.
        scale: f64,
        /// See [`Retarget::notable`](crate::qos::Retarget::notable).
        notable: bool,
    },
    /// A deferred expansion activated: its layout committed and its own
    /// paced migration started.
    Activation {
        /// The activation instant (the pump that drained the blocking
        /// restripe or, under wait-for-repair, completed the rebuild).
        at: SimTime,
        /// Disks the activated expansion added.
        added_disks: usize,
    },
}

impl SimEvent<'_> {
    /// The trace event this fact records on a traced run: the request
    /// span, the throttle instant or the activation instant. Maintenance
    /// I/O and scheduled events have no lane of their own.
    pub fn trace_event(&self) -> Option<TraceEvent> {
        match *self {
            SimEvent::Request { record, outcome } => Some(
                TraceEvent::span(
                    SpanCategory::Request,
                    match record.kind {
                        IoKind::Read => "read",
                        IoKind::Write => "write",
                    },
                    record.time,
                    SimDuration::from_millis(outcome.worst_ms),
                )
                .arg("blocks", record.length)
                .arg("cache_hit_blocks", outcome.cache_hit_blocks()),
            ),
            SimEvent::Throttle { at, scale, notable } => Some(
                TraceEvent::instant(SpanCategory::Throttle, "retarget", at)
                    .arg("scale", scale)
                    .arg("notable", notable),
            ),
            SimEvent::Activation { at, added_disks } => Some(
                TraceEvent::instant(SpanCategory::Activation, "deferred-activation", at)
                    .arg("added_disks", added_disks),
            ),
            SimEvent::Maintenance(_) | SimEvent::Scheduled { .. } => None,
        }
    }
}

/// Hooks into the replay engine. All methods have empty defaults; implement
/// only what you need.
pub trait Observer {
    /// Called once before the first request, with the resolved
    /// configuration and the trace about to be replayed.
    fn on_start(&mut self, _config: &ArrayConfig, _trace: &Trace) {}

    /// Called for every fact the engine publishes, in order.
    fn on_event(&mut self, _event: &SimEvent<'_>) {}

    /// Called once with the finished report.
    fn on_finish(&mut self, _report: &SimulationReport) {}
}

impl<O: Observer + ?Sized> Observer for &mut O {
    fn on_start(&mut self, config: &ArrayConfig, trace: &Trace) {
        (**self).on_start(config, trace);
    }

    fn on_event(&mut self, event: &SimEvent<'_>) {
        (**self).on_event(event);
    }

    fn on_finish(&mut self, report: &SimulationReport) {
        (**self).on_finish(report);
    }
}

/// An observer that ignores everything.
#[derive(Debug, Clone, Copy, Default)]
pub struct NullObserver;

impl Observer for NullObserver {}

/// Fans hooks out to several observers, in order. Borrowed observers join
/// through the `&mut O` impl: `multi.push(Box::new(&mut mine))`.
#[derive(Default)]
pub struct MultiObserver<'a> {
    observers: Vec<Box<dyn Observer + 'a>>,
}

impl<'a> MultiObserver<'a> {
    /// Creates an empty fan-out.
    pub fn new() -> Self {
        MultiObserver::default()
    }

    /// Adds an observer to the fan-out.
    pub fn push(&mut self, observer: Box<dyn Observer + 'a>) {
        self.observers.push(observer);
    }

    /// Number of attached observers.
    pub fn len(&self) -> usize {
        self.observers.len()
    }

    /// True if no observers are attached.
    pub fn is_empty(&self) -> bool {
        self.observers.is_empty()
    }
}

impl Observer for MultiObserver<'_> {
    fn on_start(&mut self, config: &ArrayConfig, trace: &Trace) {
        for o in &mut self.observers {
            o.on_start(config, trace);
        }
    }

    fn on_event(&mut self, event: &SimEvent<'_>) {
        for o in &mut self.observers {
            o.on_event(event);
        }
    }

    fn on_finish(&mut self, report: &SimulationReport) {
        for o in &mut self.observers {
            o.on_finish(report);
        }
    }
}

/// Prints one progress line to stderr every `every` requests, plus a line
/// per applied event, notable throttle change and deferred activation. The
/// built-in observer behind [`crate::scenario::ObserverSpec::Progress`].
#[derive(Debug, Clone)]
pub struct ProgressObserver {
    every: u64,
    seen: u64,
    label: String,
}

impl ProgressObserver {
    /// Reports every `every` requests (0 is treated as "only events").
    pub fn new(label: impl Into<String>, every: u64) -> Self {
        ProgressObserver {
            every,
            seen: 0,
            label: label.into(),
        }
    }
}

impl Observer for ProgressObserver {
    fn on_event(&mut self, event: &SimEvent<'_>) {
        let (at, what) = match *event {
            SimEvent::Request { record, .. } => {
                self.seen += 1;
                if self.every > 0 && self.seen.is_multiple_of(self.every) {
                    let t = record.time.as_secs();
                    eprintln!(
                        "[{}] {} requests replayed (t = {t:.1}s)",
                        self.label, self.seen
                    );
                }
                return;
            }
            SimEvent::Scheduled { event, expansion } => (
                event.at(),
                match expansion {
                    Some(r) => format!(
                        "{} (migrated {} blocks, wrote back {})",
                        event.describe(),
                        r.migrated_blocks,
                        r.writeback_blocks
                    ),
                    None => event.describe(),
                },
            ),
            // The smooth additive recovery would spam the log; only
            // backoffs and floor/ceiling transitions are printed.
            SimEvent::Throttle {
                at,
                scale,
                notable: true,
            } => (
                at,
                format!(
                    "maintenance throttled to {:.0}% of configured rate",
                    scale * 100.0
                ),
            ),
            SimEvent::Activation { at, added_disks } => (
                at,
                format!("deferred expansion activated (+{added_disks} disks)"),
            ),
            SimEvent::Throttle { notable: false, .. } | SimEvent::Maintenance(_) => return,
        };
        eprintln!("[{}] t = {:.1}s: {what}", self.label, at.as_secs());
    }
}

/// The paper's measurement pipeline as an observer: response-time summaries
/// and quantiles per I/O kind, per-second load balance, sequentiality, and
/// device concurrency. [`MetricsCollector::finish`] assembles the
/// [`SimulationReport`].
pub struct MetricsCollector {
    read_summary: StreamingSummary,
    write_summary: StreamingSummary,
    read_quantiles: Quantiles,
    write_quantiles: Quantiles,
    load: LoadBalanceTracker,
    seq: SequentialityTracker,
    conc: ConcurrencyTracker,
    requests: u64,
    /// Once closed (the last trace record was served), trailing events no
    /// longer contribute device traffic to the measurement window.
    closed: bool,
}

impl MetricsCollector {
    /// Creates a collector for an array that will grow to `device_slots`
    /// devices over the run (initial devices plus every scheduled addition).
    pub fn new(device_slots: usize) -> Self {
        MetricsCollector {
            read_summary: StreamingSummary::new(),
            write_summary: StreamingSummary::new(),
            read_quantiles: Quantiles::new(),
            write_quantiles: Quantiles::new(),
            load: LoadBalanceTracker::new(device_slots),
            seq: SequentialityTracker::new(),
            conc: ConcurrencyTracker::new(),
            requests: 0,
            closed: false,
        }
    }

    /// Ends the measurement window: events applied after the last request
    /// still execute but no longer count into the trackers (matching the
    /// paper's methodology, which measures while the workload runs).
    pub fn close(&mut self) {
        self.closed = true;
    }

    /// Feeds one device-level submission to the per-second load,
    /// sequentiality and concurrency trackers.
    fn record_device_event(&mut self, ev: &DeviceIoEvent) {
        self.load.record(ev.submitted, ev.device, ev.bytes());
        self.seq
            .record(ev.submitted, ev.device, ev.start_block, ev.blocks);
        self.conc.record(ev.submitted, ev.device, ev.queue_depth);
    }

    /// Consumes the trackers and builds the report. `craid` carries the
    /// array's cache-partition statistics (None for baselines).
    pub fn finish(
        mut self,
        strategy: &str,
        workload: &str,
        craid: Option<CraidStats>,
        device_bytes: Vec<u64>,
    ) -> SimulationReport {
        let sequential_fraction = self.seq.overall_sequential_fraction();
        let mut seq_samples = self.seq.finish();
        let overall_cv = self.load.overall_cv();
        let mut cv_samples = self.load.finish();
        let (ioq, cdev) = self.conc.finish();

        SimulationReport {
            strategy: strategy.to_string(),
            workload: workload.to_string(),
            // The driver fills these in from the array's fault and
            // migration counters after the trackers are consumed.
            fault: crate::report::FaultStats::default(),
            migration: crate::report::MigrationStats::default(),
            qos: crate::report::QosStats::default(),
            background_drain_secs: 0.0,
            requests: self.requests,
            read: summarize_response(&self.read_summary, &mut self.read_quantiles),
            write: summarize_response(&self.write_summary, &mut self.write_quantiles),
            sequentiality_cdf: seq_samples.cdf_points(20),
            sequential_fraction,
            load_balance: LoadBalanceSummary {
                cv_cdf: cv_samples.cdf_points(20),
                mean_cv: cv_samples.mean().unwrap_or(0.0),
                p95_cv: cv_samples.quantile(0.95).unwrap_or(0.0),
                overall_cv,
            },
            ioq,
            cdev,
            craid,
            device_bytes,
            obs: None,
        }
    }
}

impl Observer for MetricsCollector {
    fn on_event(&mut self, event: &SimEvent<'_>) {
        let traffic = match *event {
            SimEvent::Request { record, outcome } => {
                self.requests += 1;
                for ev in outcome.reports.iter().flat_map(|r| &r.events) {
                    self.record_device_event(ev);
                }
                let (summary, quantiles) = match record.kind {
                    IoKind::Read => (&mut self.read_summary, &mut self.read_quantiles),
                    IoKind::Write => (&mut self.write_summary, &mut self.write_quantiles),
                };
                summary.record(outcome.worst_ms);
                quantiles.record(outcome.worst_ms);
                return;
            }
            SimEvent::Maintenance(events) => events,
            SimEvent::Scheduled {
                expansion: Some(report),
                ..
            } => &report.events[..],
            SimEvent::Scheduled {
                expansion: None, ..
            }
            | SimEvent::Throttle { .. }
            | SimEvent::Activation { .. } => return,
        };
        // Non-client traffic counts only inside the measurement window.
        if !self.closed {
            for ev in traffic {
                self.record_device_event(ev);
            }
        }
    }
}

fn summarize_response(summary: &StreamingSummary, quantiles: &mut Quantiles) -> ResponseSummary {
    ResponseSummary {
        count: summary.count(),
        mean_ms: summary.mean(),
        ci95_ms: summary.ci95_half_width(),
        p50_ms: quantiles.quantile(0.5).unwrap_or(0.0),
        p95_ms: quantiles.quantile(0.95).unwrap_or(0.0),
        p99_ms: quantiles.quantile(0.99).unwrap_or(0.0),
        max_ms: quantiles.max().unwrap_or(0.0),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Records every hook call, in order.
    #[derive(Default)]
    struct Calls(Vec<&'static str>);

    impl Observer for Calls {
        fn on_start(&mut self, _config: &ArrayConfig, _trace: &Trace) {
            self.0.push("start");
        }
        fn on_event(&mut self, event: &SimEvent<'_>) {
            self.0.push(match event {
                SimEvent::Maintenance(_) => "maintenance",
                SimEvent::Request { .. } => "request",
                SimEvent::Scheduled { .. } => "scheduled",
                SimEvent::Throttle { .. } => "throttle",
                SimEvent::Activation { .. } => "activation",
            });
        }
        fn on_finish(&mut self, _r: &SimulationReport) {
            self.0.push("finish");
        }
    }

    /// Publishes one event of every variant, in declaration order, all at
    /// t = 10 ms.
    fn each_variant(mut publish: impl FnMut(&SimEvent<'_>)) {
        let t = SimTime::from_millis(10.0);
        let record = TraceRecord::new(t, IoKind::Write, 64, 16);
        let mut outcome = outcome_with(Vec::new());
        outcome.worst_ms = 2.5;
        outcome.reports[0].cache_hit_blocks = 7;
        let event = ScheduledEvent::expand(t, 2);
        let (scale, notable, added_disks) = (0.25, false, 4);
        publish(&SimEvent::Maintenance(&[device_io(t, 0, 0, 8)]));
        publish(&SimEvent::Request {
            record: &record,
            outcome: &outcome,
        });
        publish(&SimEvent::Scheduled {
            event: &event,
            expansion: None,
        });
        publish(&SimEvent::Throttle {
            at: t,
            scale,
            notable,
        });
        publish(&SimEvent::Activation { at: t, added_disks });
    }

    #[test]
    fn multi_observer_fans_out() {
        let mut borrowed = Calls::default();
        let mut multi = MultiObserver::new();
        multi.push(Box::new(Calls::default()));
        multi.push(Box::new(&mut borrowed));
        assert_eq!(multi.len(), 2);
        let config = ArrayConfig::small_test(crate::StrategyKind::Craid5, 1_000);
        multi.on_start(&config, &Trace::new("t", 8, Vec::new()));
        each_variant(|event| multi.on_event(event));
        multi.on_finish(&SimulationReport::default());
        drop(multi);
        let variants = [
            "maintenance",
            "request",
            "scheduled",
            "throttle",
            "activation",
        ];
        assert_eq!(
            borrowed.0,
            [&["start"], &variants[..], &["finish"]].concat()
        );
    }

    /// Each variant maps to the trace event the trace files carry: the
    /// same category, name, timing and arguments.
    #[test]
    fn trace_event_maps_each_variant_to_its_lane() {
        let mut mapped = Vec::new();
        each_variant(|event| mapped.push(event.trace_event()));
        let t = SimTime::from_millis(10.0);
        let span = TraceEvent::span(
            SpanCategory::Request,
            "write",
            t,
            SimDuration::from_millis(2.5),
        );
        let throttle = TraceEvent::instant(SpanCategory::Throttle, "retarget", t);
        let activation = TraceEvent::instant(SpanCategory::Activation, "deferred-activation", t);
        let expected = [
            None,
            Some(span.arg("blocks", 16u64).arg("cache_hit_blocks", 7u64)),
            None,
            Some(throttle.arg("scale", 0.25).arg("notable", false)),
            Some(activation.arg("added_disks", 4u64)),
        ];
        assert_eq!(mapped, expected);

        let read = TraceRecord::new(t, IoKind::Read, 64, 16);
        let outcome = outcome_with(Vec::new());
        let read = SimEvent::Request {
            record: &read,
            outcome: &outcome,
        };
        assert_eq!(read.trace_event().map(|e| e.name), Some("read"));
    }

    /// Feeds one client request to `m`.
    fn request(m: &mut MetricsCollector, record: &TraceRecord, outcome: &RequestOutcome) {
        m.on_event(&SimEvent::Request { record, outcome });
    }

    #[test]
    fn metrics_collector_counts_requests_and_closes() {
        let mut m = MetricsCollector::new(4);
        let record = TraceRecord::new(SimTime::ZERO, IoKind::Write, 0, 8);
        let outcome = RequestOutcome {
            worst_ms: 2.5,
            reports: Vec::new(),
        };
        request(&mut m, &record, &outcome);
        m.close();
        let report = m.finish("RAID-5", "wdev", None, vec![0; 4]);
        assert_eq!(report.requests, 1);
        assert_eq!(report.write.count, 1);
        assert_eq!(report.write.mean_ms, 2.5);
        assert_eq!(report.read.count, 0);
        assert_eq!(report.strategy, "RAID-5");
    }

    /// One device submission of `blocks` blocks at `start_block`.
    fn device_io(at: SimTime, device: usize, start_block: u64, blocks: u64) -> DeviceIoEvent {
        DeviceIoEvent {
            device,
            start_block,
            blocks,
            kind: IoKind::Write,
            purpose: craid_raid::IoPurpose::Data,
            submitted: at,
            finished: at + craid_simkit::SimDuration::from_millis(1.0),
            queue_depth: device as u64,
            internal_cache_hit: false,
        }
    }

    fn outcome_with(events: Vec<DeviceIoEvent>) -> RequestOutcome {
        RequestOutcome {
            worst_ms: 1.0,
            reports: vec![RequestReport {
                events,
                ..RequestReport::default()
            }],
        }
    }

    #[test]
    fn metrics_collector_splits_response_times_by_kind() {
        let mut m = MetricsCollector::new(2);
        for (i, (kind, ms)) in [
            (IoKind::Read, 1.0),
            (IoKind::Read, 3.0),
            (IoKind::Write, 10.0),
        ]
        .into_iter()
        .enumerate()
        {
            let record = TraceRecord::new(SimTime::from_millis(i as f64), kind, 0, 8);
            let outcome = RequestOutcome {
                worst_ms: ms,
                reports: Vec::new(),
            };
            request(&mut m, &record, &outcome);
        }
        let report = m.finish("RAID-5", "wdev", None, vec![0; 2]);
        assert_eq!(report.requests, 3);
        assert_eq!((report.read.count, report.write.count), (2, 1));
        assert_eq!(report.read.mean_ms, 2.0);
        assert_eq!(report.read.max_ms, 3.0);
        assert_eq!(report.write.p50_ms, 10.0);
    }

    #[test]
    fn metrics_collector_folds_device_events_into_every_tracker() {
        let mut m = MetricsCollector::new(3);
        let record = TraceRecord::new(SimTime::ZERO, IoKind::Write, 0, 8);
        // Device 0 reads 0..8 then 8..16 (sequential); devices 1 and 2 see
        // one access each, all inside second 0.
        let at = SimTime::from_millis(1.0);
        request(
            &mut m,
            &record,
            &outcome_with(vec![
                device_io(at, 0, 0, 8),
                device_io(at, 1, 100, 8),
                device_io(at, 2, 200, 8),
            ]),
        );
        request(&mut m, &record, &outcome_with(vec![device_io(at, 0, 8, 8)]));
        let report = m.finish("CRAID-5", "wdev", None, vec![0; 3]);
        assert_eq!(report.requests, 2);
        assert_eq!(report.sequential_fraction, 0.25, "1 of 4 accesses");
        assert_eq!(report.cdev.max, 3.0, "three devices active in second 0");
        assert_eq!(report.ioq.max, 2.0);
        assert_eq!(report.ioq.mean, 0.75);
        // Device 0 moved twice the bytes of the others: the load is uneven.
        assert!(report.load_balance.overall_cv > 0.0);
        assert_eq!(report.load_balance.cv_cdf.len(), 20);
    }

    #[test]
    fn metrics_collector_counts_expansion_traffic_until_closed() {
        let expansion = ExpansionReport {
            events: vec![device_io(SimTime::from_secs(1.0), 1, 0, 64)],
            ..ExpansionReport::default()
        };
        let event = ScheduledEvent::expand(SimTime::from_secs(1.0), 1);

        let applied = SimEvent::Scheduled {
            event: &event,
            expansion: Some(&expansion),
        };
        let mut open = MetricsCollector::new(2);
        open.on_event(&applied);
        let open = open.finish("CRAID-5", "wdev", None, vec![0; 2]);
        assert_eq!(open.cdev.max, 1.0, "migration I/O counts while open");
        assert_eq!(open.requests, 0, "events are not client requests");

        let mut closed = MetricsCollector::new(2);
        closed.close();
        closed.on_event(&applied);
        let closed = closed.finish("CRAID-5", "wdev", None, vec![0; 2]);
        assert_eq!(closed.cdev.max, 0.0, "trailing events are ignored");
        assert_eq!(closed.ioq.mean, 0.0);
    }

    #[test]
    fn metrics_collector_counts_maintenance_until_closed() {
        let batch = [device_io(SimTime::from_secs(1.0), 1, 0, 64)];
        let mut open = MetricsCollector::new(2);
        open.on_event(&SimEvent::Maintenance(&batch));
        let open = open.finish("CRAID-5", "wdev", None, vec![0; 2]);
        assert_eq!(open.cdev.max, 1.0, "maintenance I/O counts while open");
        assert_eq!(open.requests, 0, "maintenance is not a client request");

        let mut closed = MetricsCollector::new(2);
        closed.close();
        closed.on_event(&SimEvent::Maintenance(&batch));
        let closed = closed.finish("CRAID-5", "wdev", None, vec![0; 2]);
        assert_eq!(
            closed.cdev.max, 0.0,
            "maintenance after the window is ignored"
        );
    }

    #[test]
    fn empty_collector_reports_zeros() {
        let report = MetricsCollector::new(4).finish("RAID-5", "wdev", None, vec![0; 4]);
        assert_eq!(report.requests, 0);
        assert_eq!(report.read.count + report.write.count, 0);
        assert_eq!(report.sequential_fraction, 0.0);
        assert!(report.sequentiality_cdf.is_empty());
        assert_eq!(report.load_balance.mean_cv, 0.0);
        assert_eq!(report.cdev.max, 0.0);
        assert!(report.craid.is_none());
        assert!(report.obs.is_none());
    }
}
