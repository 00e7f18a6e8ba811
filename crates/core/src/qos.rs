//! SLO-driven adaptive throttling of background maintenance (QoS control).
//!
//! CRAID's whole premise is that reorganization happens *online* — which
//! only holds if maintenance I/O yields to client traffic when the array is
//! busy. The background engine paces rebuilds, migrations and archive
//! restripes at their *configured* rates; this module closes the loop by
//! making the realised pace a function of observed client service quality:
//!
//! * an [`SloSpec`] declares, per array, what "good service" means — a
//!   target client latency at a percentile and/or a maximum device queue
//!   depth — plus a maintenance-rate **floor** the throttle never drops
//!   below and the controller gains;
//! * a [`QosController`] watches client request completions through a
//!   sliding window (reusing [`craid_metrics::Quantiles`] and
//!   [`craid_metrics::StreamingSummary`]) and runs an **AIMD** loop: while
//!   the SLO is violated the maintenance throttle decreases
//!   multiplicatively (fast backoff), while it is met the throttle
//!   recovers additively (slow probe), always clamped to
//!   `[floor, 1.0]`;
//! * the simulation driver applies each retarget to the array's
//!   [`BackgroundEngine`](crate::background::BackgroundEngine), which
//!   scales both its per-poll batch budget and every task's pacing clock
//!   (see [`BackgroundEngine::set_throttle`](crate::background::BackgroundEngine::set_throttle));
//! * everything the controller did is reported as [`QosStats`] on the
//!   [`SimulationReport`](crate::report::SimulationReport): the throttle
//!   timeline, time spent at the floor/ceiling, SLO-violation seconds and
//!   the effective maintenance rate.
//!
//! When no `[qos]` table is configured nothing here runs and the engine
//! keeps its static cap — the no-QoS path is bit-for-bit identical to the
//! pre-QoS behaviour.
//!
//! ```
//! use craid::qos::SloSpec;
//!
//! // A 25 ms p95 read/write latency target with a 10 % maintenance floor.
//! let spec = SloSpec::latency_target(25.0).with_floor(0.1);
//! assert!(spec.validate().is_ok());
//! let toml = "target_latency_ms = 25.0\nfloor = 0.1";
//! # let _ = toml;
//! ```

use std::collections::VecDeque;

use craid_metrics::{Quantiles, StreamingSummary};
use craid_simkit::SimTime;
use serde::{Deserialize, Serialize, Value};

use crate::array::RequestReport;
use crate::devices::DeviceIoEvent;
use crate::error::CraidError;
use crate::report::QosStats;

/// Throttle-timeline samples kept in [`QosStats`]. Long runs with a busy
/// controller drop interior samples beyond the cap and report how many via
/// [`QosStats::timeline_dropped`] — no silent truncation.
const TIMELINE_CAP: usize = 4_096;

/// Minimum latency samples in the window before a percentile verdict is
/// trusted (a near-empty window after an idle spell must not trigger a
/// backoff off one unlucky request).
const MIN_WINDOW_SAMPLES: usize = 8;

/// The service-level objective one array's maintenance throttling steers
/// by, plus the controller's gains. At least one target
/// ([`target_latency_ms`](SloSpec::target_latency_ms) or
/// [`max_queue_depth`](SloSpec::max_queue_depth)) must be set.
///
/// In scenario TOML the spec is the `[array.qos]` table; every field has a
/// default, so the smallest useful spec is a single line:
///
/// ```toml
/// [array.qos]
/// target_latency_ms = 25.0
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct SloSpec {
    /// Target client latency in milliseconds at
    /// [`percentile`](SloSpec::percentile); the SLO is violated while the
    /// sliding window's observed percentile exceeds it. `None` disables the
    /// latency target.
    pub target_latency_ms: Option<f64>,
    /// The percentile the latency target applies to (default 0.95).
    pub percentile: f64,
    /// Maximum acceptable mean device queue depth observed across the
    /// window's client I/O completions. `None` disables the depth target.
    pub max_queue_depth: Option<f64>,
    /// Maintenance-rate floor as a fraction of each task's configured rate,
    /// in `(0, 1]` (default 0.1): throttling never paces a rebuild or
    /// migration below `floor × configured_rate`, so maintenance always
    /// finishes.
    pub floor: f64,
    /// Length of the sliding observation window in simulated seconds
    /// (default 5.0). Also sets the multiplicative-backoff hold-off: at most
    /// one decrease per half window, so a single burst is not punished
    /// repeatedly before its effect leaves the window.
    pub window_secs: f64,
    /// Additive-increase gain: throttle recovered per simulated second while
    /// the SLO is met (default 0.05 — full rate regained in 20 s of good
    /// service from a full backoff).
    pub increase_per_sec: f64,
    /// Multiplicative-decrease factor applied on a violation (default 0.5).
    pub decrease_factor: f64,
}

impl Default for SloSpec {
    fn default() -> Self {
        SloSpec {
            target_latency_ms: None,
            percentile: 0.95,
            max_queue_depth: None,
            floor: 0.1,
            window_secs: 5.0,
            increase_per_sec: 0.05,
            decrease_factor: 0.5,
        }
    }
}

impl SloSpec {
    /// A spec with a latency target at the default percentile and defaults
    /// everywhere else.
    pub fn latency_target(target_ms: f64) -> Self {
        SloSpec {
            target_latency_ms: Some(target_ms),
            ..SloSpec::default()
        }
    }

    /// A spec with a queue-depth target and defaults everywhere else.
    pub fn queue_depth_target(depth: f64) -> Self {
        SloSpec {
            max_queue_depth: Some(depth),
            ..SloSpec::default()
        }
    }

    /// Sets the maintenance-rate floor (fraction of the configured rates).
    #[must_use]
    pub fn with_floor(mut self, floor: f64) -> Self {
        self.floor = floor;
        self
    }

    /// Sets the sliding observation window, in simulated seconds.
    #[must_use]
    pub fn with_window(mut self, secs: f64) -> Self {
        self.window_secs = secs;
        self
    }

    /// Sets the controller gains (additive increase per second,
    /// multiplicative decrease factor).
    #[must_use]
    pub fn with_gains(mut self, increase_per_sec: f64, decrease_factor: f64) -> Self {
        self.increase_per_sec = increase_per_sec;
        self.decrease_factor = decrease_factor;
        self
    }

    /// Validates the spec by running the static analyser's QoS rules
    /// ([`crate::analyze::graph::check_slo`]) and returning the first
    /// finding, with paths anchored at `array.qos` — exactly what the
    /// analyser reports for a scenario's `[array.qos]` table.
    ///
    /// # Errors
    ///
    /// Returns [`CraidError::InvalidConfig`] carrying the first violated
    /// constraint's [`crate::analyze::Diagnostic`].
    pub fn validate(&self) -> Result<(), CraidError> {
        match crate::analyze::graph::check_slo(self, "array.qos")
            .into_iter()
            .find(|d| d.is_error())
        {
            Some(d) => Err(CraidError::InvalidConfig(d)),
            None => Ok(()),
        }
    }
}

// The spec serializes as a flat map so scenario files can write a plain
// `[array.qos]` table; every field has a default on the way back in, so a
// one-line table is valid.
impl Serialize for SloSpec {
    fn serialize(&self) -> Value {
        Value::Map(vec![
            (
                "target_latency_ms".to_string(),
                self.target_latency_ms.serialize(),
            ),
            ("percentile".to_string(), self.percentile.serialize()),
            (
                "max_queue_depth".to_string(),
                self.max_queue_depth.serialize(),
            ),
            ("floor".to_string(), self.floor.serialize()),
            ("window_secs".to_string(), self.window_secs.serialize()),
            (
                "increase_per_sec".to_string(),
                self.increase_per_sec.serialize(),
            ),
            (
                "decrease_factor".to_string(),
                self.decrease_factor.serialize(),
            ),
        ])
    }
}

impl Deserialize for SloSpec {
    fn deserialize(value: &Value) -> Result<Self, serde::Error> {
        if value.as_map().is_none() {
            return Err(serde::Error::expected("a [qos] table", value));
        }
        let defaults = SloSpec::default();
        Ok(SloSpec {
            target_latency_ms: serde::field(value, "target_latency_ms")?,
            percentile: serde::field::<Option<f64>>(value, "percentile")?
                .unwrap_or(defaults.percentile),
            max_queue_depth: serde::field(value, "max_queue_depth")?,
            floor: serde::field::<Option<f64>>(value, "floor")?.unwrap_or(defaults.floor),
            window_secs: serde::field::<Option<f64>>(value, "window_secs")?
                .unwrap_or(defaults.window_secs),
            increase_per_sec: serde::field::<Option<f64>>(value, "increase_per_sec")?
                .unwrap_or(defaults.increase_per_sec),
            decrease_factor: serde::field::<Option<f64>>(value, "decrease_factor")?
                .unwrap_or(defaults.decrease_factor),
        })
    }
}

/// One throttle retarget the controller decided on.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Retarget {
    /// The new throttle scale in `[floor, 1.0]`.
    pub scale: f64,
    /// True for *notable* changes — multiplicative backoffs and
    /// floor/ceiling transitions. Every retarget is published as a
    /// [`SimEvent::Throttle`](crate::observer::SimEvent::Throttle) carrying
    /// this flag; the progress printer shows only the notable ones (the
    /// smooth additive recovery would spam it).
    pub notable: bool,
}

/// The sliding-window observer + AIMD controller steering one array's
/// background-maintenance throttle toward its [`SloSpec`].
///
/// The simulation driver owns one per run (when the array's configuration
/// carries a `qos` spec), feeds it every client request completion via
/// [`QosController::observe`], asks for a retarget each pump via
/// [`QosController::evaluate`], and folds the finished [`QosStats`] into
/// the report via [`QosController::finish`].
#[derive(Debug, Clone)]
pub struct QosController {
    spec: SloSpec,
    /// Client request completions in the window: `(completion time,
    /// worst-subrange latency ms)`.
    latency: VecDeque<(SimTime, f64)>,
    /// Device queue depths observed by client I/O in the window.
    depth: VecDeque<(SimTime, f64)>,
    scale: f64,
    last_eval: Option<SimTime>,
    last_decrease: Option<SimTime>,
    first_seen: Option<SimTime>,
    last_timeline_scale: f64,
    stats: QosStats,
}

impl QosController {
    /// A controller at full throttle (scale 1.0) for the given spec.
    ///
    /// # Panics
    ///
    /// Panics if the spec is invalid — validate configurations with
    /// [`SloSpec::validate`] (the array config does) before building one.
    pub fn new(spec: SloSpec) -> Self {
        spec.validate()
            .expect("QoS spec was validated by the config");
        QosController {
            spec,
            latency: VecDeque::new(),
            depth: VecDeque::new(),
            scale: 1.0,
            last_eval: None,
            last_decrease: None,
            first_seen: None,
            last_timeline_scale: 1.0,
            stats: QosStats {
                enabled: true,
                ..QosStats::default()
            },
        }
    }

    /// The spec this controller steers by.
    pub fn spec(&self) -> &SloSpec {
        &self.spec
    }

    /// The current throttle scale in `[floor, 1.0]`.
    pub fn scale(&self) -> f64 {
        self.scale
    }

    /// Feeds one client request completion into the sliding window: the
    /// per-request worst latency plus every device queue depth the
    /// request's *client* I/O observed. `client_reports` must exclude
    /// background-maintenance batches — the controller steers by client
    /// service quality, and letting it ingest the engine's own deeply
    /// queued maintenance I/O would couple it to the very signal it
    /// throttles (a floor-paced rebuild would read as a permanent
    /// queue-depth violation on an otherwise idle array).
    pub fn observe(&mut self, now: SimTime, worst_ms: f64, client_reports: &[RequestReport]) {
        self.first_seen.get_or_insert(now);
        self.latency.push_back((now, worst_ms));
        for report in client_reports {
            for ev in &report.events {
                self.depth.push_back((ev.submitted, ev.queue_depth as f64));
            }
        }
        self.prune(now);
    }

    /// Counts maintenance blocks the background engine issued (for the
    /// effective-rate line of [`QosStats`]).
    pub fn note_maintenance(&mut self, events: &[DeviceIoEvent]) {
        self.stats.maintenance_blocks += events.iter().map(|e| e.blocks).sum::<u64>();
    }

    fn prune(&mut self, now: SimTime) {
        let horizon = self.spec.window_secs;
        while let Some(&(t, _)) = self.latency.front() {
            if now.saturating_since(t).as_secs() > horizon {
                self.latency.pop_front();
            } else {
                break;
            }
        }
        while let Some(&(t, _)) = self.depth.front() {
            if now.saturating_since(t).as_secs() > horizon {
                self.depth.pop_front();
            } else {
                break;
            }
        }
    }

    /// True while the window's observations violate the SLO.
    fn violated(&mut self) -> bool {
        if let Some(target) = self.spec.target_latency_ms {
            if self.latency.len() >= MIN_WINDOW_SAMPLES {
                let mut q = Quantiles::with_capacity(self.latency.len());
                for &(_, ms) in &self.latency {
                    q.record(ms);
                }
                if q.quantile(self.spec.percentile).unwrap_or(0.0) > target {
                    return true;
                }
            }
        }
        if let Some(max_depth) = self.spec.max_queue_depth {
            if self.depth.len() >= MIN_WINDOW_SAMPLES {
                let mut s = StreamingSummary::new();
                for &(_, d) in &self.depth {
                    s.record(d);
                }
                if s.mean() > max_depth {
                    return true;
                }
            }
        }
        false
    }

    /// One control decision at `now` (the driver calls this once per pump,
    /// ahead of the background engine): accounts the elapsed interval at
    /// the previous throttle, then applies AIMD — multiplicative decrease
    /// while the SLO is violated (at most one backoff per half window),
    /// additive recovery while it is met. Returns the retarget when the
    /// scale changed, `None` when the throttle is already where it should
    /// be.
    pub fn evaluate(&mut self, now: SimTime) -> Option<Retarget> {
        self.first_seen.get_or_insert(now);
        let dt = self
            .last_eval
            .map(|t| now.saturating_since(t).as_secs())
            .unwrap_or(0.0);
        self.last_eval = Some(now);
        self.prune(now);
        self.stats.decisions += 1;
        // The elapsed interval ran at the *previous* scale.
        if self.scale <= self.spec.floor {
            self.stats.time_at_floor_secs += dt;
        } else if self.scale >= 1.0 {
            self.stats.time_at_ceiling_secs += dt;
        }
        let violated = self.violated();
        if violated {
            self.stats.slo_violation_secs += dt;
        }
        let old = self.scale;
        if violated {
            // One multiplicative backoff per half window: the burst that
            // triggered it needs time to leave the window before it can
            // justify another cut.
            let held = self
                .last_decrease
                .is_some_and(|t| now.saturating_since(t).as_secs() < self.spec.window_secs / 2.0);
            if !held && self.scale > self.spec.floor {
                self.scale = (self.scale * self.spec.decrease_factor).max(self.spec.floor);
                self.last_decrease = Some(now);
            }
        } else {
            self.scale = (self.scale + self.spec.increase_per_sec * dt).min(1.0);
        }
        if self.scale == old {
            return None;
        }
        self.stats.throttle_changes += 1;
        // Notable: every backoff, plus the moments the throttle reaches the
        // floor or regains the ceiling; the smooth additive ramp in between
        // is only sampled into the timeline every 0.05 of scale.
        let notable = self.scale < old || self.scale >= 1.0 || self.scale <= self.spec.floor;
        if notable || (self.scale - self.last_timeline_scale).abs() >= 0.05 {
            if self.stats.throttle_timeline.len() < TIMELINE_CAP {
                self.stats
                    .throttle_timeline
                    .push((now.as_secs(), self.scale));
            } else {
                self.stats.timeline_dropped += 1;
            }
            self.last_timeline_scale = self.scale;
        }
        Some(Retarget {
            scale: self.scale,
            notable,
        })
    }

    /// Closes the controller at the end of the measurement window and
    /// returns the accumulated [`QosStats`]. `end` is the last measured
    /// instant (the end-of-trace drain runs outside the controller's
    /// watch, like every other post-trace activity).
    pub fn finish(mut self, end: SimTime) -> QosStats {
        // Account the tail interval since the last decision at the final
        // scale.
        let tail = self
            .last_eval
            .map(|t| end.saturating_since(t).as_secs())
            .unwrap_or(0.0);
        if self.scale <= self.spec.floor {
            self.stats.time_at_floor_secs += tail;
        } else if self.scale >= 1.0 {
            self.stats.time_at_ceiling_secs += tail;
        }
        let controlled = self
            .first_seen
            .map(|t| end.saturating_since(t).as_secs())
            .unwrap_or(0.0);
        if controlled > 0.0 {
            self.stats.effective_maintenance_rate =
                self.stats.maintenance_blocks as f64 / controlled;
        }
        self.stats.final_scale = self.scale;
        self.stats
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn observe_latency(c: &mut QosController, now: SimTime, worst_ms: f64) {
        c.observe(now, worst_ms, &[]);
    }

    #[test]
    fn spec_defaults_and_builders_compose() {
        let spec = SloSpec::latency_target(25.0)
            .with_floor(0.2)
            .with_window(3.0)
            .with_gains(0.1, 0.25);
        assert_eq!(spec.target_latency_ms, Some(25.0));
        assert_eq!(spec.percentile, 0.95);
        assert_eq!(spec.floor, 0.2);
        assert_eq!(spec.window_secs, 3.0);
        assert_eq!(spec.increase_per_sec, 0.1);
        assert_eq!(spec.decrease_factor, 0.25);
        assert!(spec.validate().is_ok());
        assert!(SloSpec::queue_depth_target(4.0).validate().is_ok());
    }

    #[test]
    fn spec_validation_catches_inconsistencies() {
        assert!(SloSpec::default().validate().is_err(), "no target set");
        for bad in [0.0, -1.0, f64::NAN, f64::INFINITY] {
            assert!(SloSpec::latency_target(bad).validate().is_err());
            assert!(SloSpec::queue_depth_target(bad).validate().is_err());
            assert!(SloSpec::latency_target(10.0)
                .with_window(bad)
                .validate()
                .is_err());
            assert!(SloSpec::latency_target(10.0)
                .with_gains(bad, 0.5)
                .validate()
                .is_err());
        }
        for bad in [0.0, -0.5, 1.5, f64::NAN] {
            assert!(SloSpec::latency_target(10.0)
                .with_floor(bad)
                .validate()
                .is_err());
        }
        for bad in [0.0, 1.0, 2.0, f64::NAN] {
            assert!(SloSpec::latency_target(10.0)
                .with_gains(0.05, bad)
                .validate()
                .is_err());
        }
        let mut spec = SloSpec::latency_target(10.0);
        spec.percentile = 1.5;
        assert!(spec.validate().is_err());
    }

    #[test]
    fn spec_round_trips_and_defaults_missing_fields() {
        let spec = SloSpec::latency_target(40.0).with_floor(0.25);
        let back = SloSpec::deserialize(&spec.serialize()).unwrap();
        assert_eq!(back, spec);
        // A one-entry map gets defaults everywhere else.
        let sparse = Value::Map(vec![("target_latency_ms".to_string(), Value::Float(12.0))]);
        let parsed = SloSpec::deserialize(&sparse).unwrap();
        assert_eq!(parsed.target_latency_ms, Some(12.0));
        assert_eq!(parsed.floor, SloSpec::default().floor);
        assert_eq!(parsed.window_secs, SloSpec::default().window_secs);
        assert!(SloSpec::deserialize(&Value::Int(3)).is_err());
    }

    #[test]
    fn violations_back_off_multiplicatively_to_the_floor() {
        let spec = SloSpec::latency_target(10.0)
            .with_floor(0.125)
            .with_window(2.0);
        let mut c = QosController::new(spec);
        // Fill the window with slow completions.
        for i in 0..MIN_WINDOW_SAMPLES {
            observe_latency(&mut c, SimTime::from_millis(i as f64), 100.0);
        }
        let r = c.evaluate(SimTime::from_secs(0.1)).expect("a backoff");
        assert_eq!(r.scale, 0.5);
        assert!(r.notable);
        // Held off within half a window...
        assert!(c.evaluate(SimTime::from_secs(0.2)).is_none());
        // ...then, with the window still violated at each decision, the
        // next backoffs walk down to the floor and stop.
        for (t, expect) in [(1.2, 0.25), (2.3, 0.125)] {
            for i in 0..MIN_WINDOW_SAMPLES {
                observe_latency(
                    &mut c,
                    SimTime::from_secs(t - 0.001 * (MIN_WINDOW_SAMPLES - i) as f64),
                    100.0,
                );
            }
            assert_eq!(c.evaluate(SimTime::from_secs(t)).unwrap().scale, expect);
        }
        for i in 0..MIN_WINDOW_SAMPLES {
            observe_latency(
                &mut c,
                SimTime::from_secs(3.4 - 0.001 * (MIN_WINDOW_SAMPLES - i) as f64),
                100.0,
            );
        }
        assert!(
            c.evaluate(SimTime::from_secs(3.4)).is_none(),
            "at the floor"
        );
        assert!(c.scale() >= 0.125);
        let stats = c.finish(SimTime::from_secs(4.0));
        assert!(stats.enabled);
        assert!(stats.slo_violation_secs > 0.0);
        assert!(stats.time_at_floor_secs > 0.0);
        assert_eq!(stats.final_scale, 0.125);
        assert!(!stats.throttle_timeline.is_empty());
    }

    #[test]
    fn good_service_recovers_additively_to_the_ceiling() {
        let spec = SloSpec::latency_target(10.0)
            .with_window(2.0)
            .with_gains(0.25, 0.5);
        let mut c = QosController::new(spec);
        for i in 0..MIN_WINDOW_SAMPLES {
            observe_latency(&mut c, SimTime::from_millis(i as f64), 100.0);
        }
        c.evaluate(SimTime::from_secs(0.1)).expect("backoff");
        // The slow samples age out of the 2 s window; recovery is additive
        // at 0.25/s, so full rate returns after ~2 s of good service.
        let mut t = 3.0;
        let mut regained = false;
        while t < 10.0 {
            observe_latency(&mut c, SimTime::from_secs(t), 1.0);
            if let Some(r) = c.evaluate(SimTime::from_secs(t)) {
                assert!(r.scale > 0.0);
                if r.scale >= 1.0 {
                    assert!(r.notable, "regaining the ceiling is notable");
                    regained = true;
                    break;
                }
            }
            t += 0.5;
        }
        assert!(regained, "the throttle recovered to full rate");
        let stats = c.finish(SimTime::from_secs(t + 5.0));
        assert!(stats.time_at_ceiling_secs > 0.0);
        assert_eq!(stats.final_scale, 1.0);
    }

    #[test]
    fn sparse_windows_do_not_trigger_backoffs() {
        let mut c = QosController::new(SloSpec::latency_target(1.0));
        // A single terrible sample is below the evidence bar.
        observe_latency(&mut c, SimTime::from_secs(1.0), 1_000.0);
        assert!(c.evaluate(SimTime::from_secs(1.0)).is_none());
        assert_eq!(c.scale(), 1.0);
    }

    #[test]
    fn queue_depth_target_watches_device_events() {
        use crate::devices::DeviceIoEvent;
        use craid_diskmodel::IoKind;
        use craid_raid::IoPurpose;
        let mut c = QosController::new(SloSpec::queue_depth_target(2.0).with_window(10.0));
        let mut reports = Vec::new();
        for depth in 0..(MIN_WINDOW_SAMPLES as u64) {
            reports.push(RequestReport {
                events: vec![DeviceIoEvent {
                    device: 0,
                    start_block: 0,
                    blocks: 1,
                    kind: IoKind::Read,
                    purpose: IoPurpose::Data,
                    submitted: SimTime::from_secs(1.0),
                    finished: SimTime::from_secs(1.0),
                    queue_depth: 10 + depth,
                    internal_cache_hit: false,
                }],
                ..RequestReport::default()
            });
        }
        c.observe(SimTime::from_secs(1.0), 0.1, &reports);
        let r = c
            .evaluate(SimTime::from_secs(1.5))
            .expect("deep queues back off");
        assert!(r.scale < 1.0);
    }

    #[test]
    fn maintenance_rate_is_reported_over_the_controlled_window() {
        use craid_diskmodel::IoKind;
        use craid_raid::IoPurpose;
        let mut c = QosController::new(SloSpec::latency_target(10.0));
        observe_latency(&mut c, SimTime::from_secs(0.0), 1.0);
        c.note_maintenance(&[DeviceIoEvent {
            device: 1,
            start_block: 0,
            blocks: 500,
            kind: IoKind::Write,
            purpose: IoPurpose::MigrateWrite,
            submitted: SimTime::from_secs(1.0),
            finished: SimTime::from_secs(1.0),
            queue_depth: 0,
            internal_cache_hit: false,
        }]);
        let stats = c.finish(SimTime::from_secs(10.0));
        assert_eq!(stats.maintenance_blocks, 500);
        assert_eq!(stats.effective_maintenance_rate, 50.0);
    }
}
