//! The virtual-time tracer: bounded ring-buffer storage plus the
//! thread-local installation hooks subsystems emit through.

use std::cell::{Cell, RefCell};
use std::collections::{BTreeMap, VecDeque};

use craid_simkit::{SimDuration, SimTime};
use serde::{Deserialize, Serialize};

/// Default ring-buffer capacity (events). Big enough to hold every event a
/// shipped drill emits; a long campaign overflowing it drops the *oldest*
/// events (flight-recorder semantics) and counts them in
/// [`Trace::dropped`].
pub const DEFAULT_CAPACITY: usize = 262_144;

/// The lane a trace event belongs to. Exporters map each category to its
/// own track so Perfetto renders one swim-lane per subsystem.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub enum SpanCategory {
    /// Client request lifecycle: one complete span per replayed trace
    /// record, lasting the request's worst device latency.
    Request,
    /// Background maintenance tasks: one complete span per finished
    /// rebuild / expansion migration / archive restripe, spanning the
    /// task's service window.
    Background,
    /// QoS throttle retargets: one instant per scale change the controller
    /// decides on, flagged `notable` for backoffs and floor/ceiling
    /// transitions.
    Throttle,
    /// Deferred expansion activations leaving the activation queue.
    Activation,
    /// Cache-partition admissions and evictions decided by the I/O
    /// monitor.
    Cache,
}

impl SpanCategory {
    /// Every category, in rendering order.
    pub const ALL: [SpanCategory; 5] = [
        SpanCategory::Request,
        SpanCategory::Background,
        SpanCategory::Throttle,
        SpanCategory::Activation,
        SpanCategory::Cache,
    ];

    /// The stable serialized name.
    pub fn name(self) -> &'static str {
        match self {
            SpanCategory::Request => "request",
            SpanCategory::Background => "background",
            SpanCategory::Throttle => "throttle",
            SpanCategory::Activation => "activation",
            SpanCategory::Cache => "cache",
        }
    }

    fn index(self) -> usize {
        match self {
            SpanCategory::Request => 0,
            SpanCategory::Background => 1,
            SpanCategory::Throttle => 2,
            SpanCategory::Activation => 3,
            SpanCategory::Cache => 4,
        }
    }
}

impl std::fmt::Display for SpanCategory {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.name())
    }
}

/// One argument value attached to a [`TraceEvent`].
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum ArgValue {
    /// An unsigned counter-ish value (block numbers, task ids, ...).
    U64(u64),
    /// A float (throttle scales, window seconds, ...).
    F64(f64),
    /// A static label (task kinds, decision names, ...).
    Str(&'static str),
    /// A flag (dirty bits, ...).
    Bool(bool),
}

impl From<u64> for ArgValue {
    fn from(v: u64) -> Self {
        ArgValue::U64(v)
    }
}

impl From<usize> for ArgValue {
    fn from(v: usize) -> Self {
        ArgValue::U64(v as u64)
    }
}

impl From<f64> for ArgValue {
    fn from(v: f64) -> Self {
        ArgValue::F64(v)
    }
}

impl From<&'static str> for ArgValue {
    fn from(v: &'static str) -> Self {
        ArgValue::Str(v)
    }
}

impl From<bool> for ArgValue {
    fn from(v: bool) -> Self {
        ArgValue::Bool(v)
    }
}

/// One trace event: a complete span (`dur` present) or an instant, stamped
/// with the simulation clock.
///
/// ```
/// use craid_obs::{SpanCategory, TraceEvent};
/// use craid_simkit::{SimDuration, SimTime};
///
/// let span = TraceEvent::span(
///     SpanCategory::Request,
///     "read",
///     SimTime::from_millis(10.0),
///     SimDuration::from_millis(2.5),
/// )
/// .arg("blocks", 8u64);
/// assert_eq!(span.category, SpanCategory::Request);
/// assert_eq!(span.dur.unwrap().as_millis(), 2.5);
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct TraceEvent {
    /// Start instant (simulated).
    pub at: SimTime,
    /// Span length; `None` marks an instant event.
    pub dur: Option<SimDuration>,
    /// The lane this event belongs to.
    pub category: SpanCategory,
    /// Short stable event name (`"read"`, `"rebuild"`, ...).
    pub name: &'static str,
    /// Auxiliary key/value payload, in insertion order.
    pub args: Vec<(&'static str, ArgValue)>,
}

impl TraceEvent {
    /// A complete span starting at `at` and lasting `dur`.
    pub fn span(category: SpanCategory, name: &'static str, at: SimTime, dur: SimDuration) -> Self {
        TraceEvent {
            at,
            dur: Some(dur),
            category,
            name,
            args: Vec::new(),
        }
    }

    /// An instant event at `at`.
    pub fn instant(category: SpanCategory, name: &'static str, at: SimTime) -> Self {
        TraceEvent {
            at,
            dur: None,
            category,
            name,
            args: Vec::new(),
        }
    }

    /// Attaches one argument (builder style).
    pub fn arg(mut self, key: &'static str, value: impl Into<ArgValue>) -> Self {
        self.args.push((key, value.into()));
        self
    }
}

/// The bounded virtual-time event recorder.
///
/// Normally installed thread-locally via [`with_tracer`] so emission sites
/// stay free functions, but usable standalone:
///
/// ```
/// use craid_obs::{SpanCategory, Tracer, TraceEvent};
/// use craid_simkit::SimTime;
///
/// let mut tracer = Tracer::with_capacity(2);
/// for i in 0..3 {
///     tracer.record(TraceEvent::instant(
///         SpanCategory::Cache,
///         "admit",
///         SimTime::from_millis(i as f64),
///     ));
/// }
/// let trace = tracer.finish();
/// assert_eq!(trace.events.len(), 2, "the ring keeps the newest events");
/// assert_eq!(trace.dropped, 1);
/// assert_eq!(trace.emitted(SpanCategory::Cache), 3, "counts include drops");
/// ```
#[derive(Debug, Default)]
pub struct Tracer {
    events: VecDeque<TraceEvent>,
    capacity: usize,
    dropped: u64,
    /// Total events emitted per category, *including* ones the ring later
    /// dropped — these are the counts reports reconcile against.
    emitted: [u64; SpanCategory::ALL.len()],
}

impl Tracer {
    /// A tracer with the [`DEFAULT_CAPACITY`] ring.
    pub fn new() -> Self {
        Self::with_capacity(DEFAULT_CAPACITY)
    }

    /// A tracer whose ring holds at most `capacity` events.
    ///
    /// # Panics
    ///
    /// Panics if `capacity` is zero.
    pub fn with_capacity(capacity: usize) -> Self {
        assert!(
            capacity > 0,
            "the trace ring needs room for at least one event"
        );
        Tracer {
            events: VecDeque::with_capacity(capacity.min(4096)),
            capacity,
            dropped: 0,
            emitted: [0; SpanCategory::ALL.len()],
        }
    }

    /// Records one event, evicting the oldest when the ring is full.
    pub fn record(&mut self, event: TraceEvent) {
        self.emitted[event.category.index()] += 1;
        if self.events.len() == self.capacity {
            self.events.pop_front();
            self.dropped += 1;
        }
        self.events.push_back(event);
    }

    /// Consumes the tracer into its finished [`Trace`].
    pub fn finish(self) -> Trace {
        Trace {
            events: self.events.into(),
            dropped: self.dropped,
            emitted: self.emitted,
        }
    }
}

/// A finished recording: the retained events plus the emission ledger.
#[derive(Debug, Default)]
pub struct Trace {
    /// The retained events, in emission order.
    pub events: Vec<TraceEvent>,
    /// Events the ring evicted (emission exceeded capacity).
    pub dropped: u64,
    emitted: [u64; SpanCategory::ALL.len()],
}

impl Trace {
    /// Total events emitted in `category`, including any the ring dropped.
    pub fn emitted(&self, category: SpanCategory) -> u64 {
        self.emitted[category.index()]
    }

    /// Total events emitted across all categories, including drops.
    pub fn total_emitted(&self) -> u64 {
        self.emitted.iter().sum()
    }

    /// Snapshots the recording's emission ledger into the serializable
    /// [`ObsSnapshot`] reports embed.
    pub fn snapshot(&self) -> ObsSnapshot {
        let spans = SpanCategory::ALL
            .into_iter()
            .filter(|&category| self.emitted(category) > 0)
            .map(|category| (category.name().to_string(), self.emitted(category)))
            .collect();
        ObsSnapshot {
            events: self.total_emitted(),
            recorded: self.events.len() as u64,
            dropped: self.dropped,
            spans,
        }
    }
}

/// The tracer's emission ledger a traced run embeds into its
/// `SimulationReport`. The CI observability job reconciles `spans` against
/// the exported trace file's event counts and against the report's own
/// tallies (requests, throttle changes, completed background tasks).
#[derive(Debug, Clone, Default, PartialEq, Serialize, Deserialize)]
pub struct ObsSnapshot {
    /// Total events emitted, including any the ring dropped.
    pub events: u64,
    /// Events retained in the ring at the end of the run.
    pub recorded: u64,
    /// Events the ring evicted.
    pub dropped: u64,
    /// Emitted events per span category (categories with zero events are
    /// omitted).
    pub spans: BTreeMap<String, u64>,
}

thread_local! {
    static ACTIVE: RefCell<Option<Tracer>> = const { RefCell::new(None) };
    static INSTALLED: Cell<bool> = const { Cell::new(false) };
    /// The ambient simulation clock (nanos), advanced by the replay loop so
    /// emission sites deep in subsystems (the I/O monitor has no time
    /// parameter) can stamp events without signature changes.
    static NOW: Cell<u64> = const { Cell::new(0) };
}

/// True while a tracer is installed on this thread. Emission sites use it
/// to skip building events on the untraced path, which therefore costs one
/// thread-local flag test.
pub fn active() -> bool {
    INSTALLED.get()
}

/// Advances the ambient simulation clock emission sites stamp events with.
/// A no-op unless a tracer is installed.
pub fn set_now(now: SimTime) {
    if INSTALLED.get() {
        NOW.set(now.as_nanos());
    }
}

/// Emits one event into the installed tracer, building it lazily — with no
/// tracer installed the closure never runs. The closure receives the
/// ambient clock ([`set_now`]) for sites without a time parameter.
pub fn emit(build: impl FnOnce(SimTime) -> TraceEvent) {
    if !INSTALLED.get() {
        return;
    }
    let now = SimTime::from_nanos(NOW.get());
    ACTIVE.with(|slot| {
        if let Some(tracer) = slot.borrow_mut().as_mut() {
            tracer.record(build(now));
        }
    });
}

/// Clears the installed tracer even when the traced body panics, so the
/// thread outlives a failing run without leaking a tracer into the next.
struct InstallGuard;

impl Drop for InstallGuard {
    fn drop(&mut self) {
        ACTIVE.with(|slot| *slot.borrow_mut() = None);
        INSTALLED.set(false);
        NOW.set(0);
    }
}

/// Runs `body` with `tracer` installed as this thread's recorder, then
/// returns the body's result alongside the finished [`Trace`].
///
/// ```
/// use craid_obs::{SpanCategory, Tracer, TraceEvent};
/// use craid_simkit::SimTime;
///
/// let (sum, trace) = craid_obs::with_tracer(Tracer::new(), || {
///     craid_obs::set_now(SimTime::from_millis(5.0));
///     craid_obs::emit(|now| TraceEvent::instant(SpanCategory::Throttle, "backoff", now));
///     2 + 2
/// });
/// assert_eq!(sum, 4);
/// assert_eq!(trace.events.len(), 1);
/// assert_eq!(trace.events[0].at, SimTime::from_millis(5.0));
/// ```
///
/// # Panics
///
/// Panics if a tracer is already installed on this thread (nested traced
/// runs are not supported).
pub fn with_tracer<R>(tracer: Tracer, body: impl FnOnce() -> R) -> (R, Trace) {
    assert!(
        !INSTALLED.get(),
        "a tracer is already installed on this thread"
    );
    ACTIVE.with(|slot| *slot.borrow_mut() = Some(tracer));
    INSTALLED.set(true);
    let guard = InstallGuard;
    let result = body();
    let tracer = ACTIVE.with(|slot| slot.borrow_mut().take());
    drop(guard);
    let trace = tracer
        .expect("the installed tracer survives the traced body")
        .finish();
    (result, trace)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn bare_thread_emits_nothing() {
        assert!(!active());
        emit(|_| unreachable!("no tracer installed"));
        set_now(SimTime::from_secs(1.0));
    }

    #[test]
    fn ring_keeps_newest_and_counts_drops() {
        let mut tracer = Tracer::with_capacity(3);
        for i in 0..5u64 {
            tracer.record(
                TraceEvent::instant(SpanCategory::Cache, "admit", SimTime::from_nanos(i))
                    .arg("block", i),
            );
        }
        let trace = tracer.finish();
        assert_eq!(trace.events.len(), 3);
        assert_eq!(trace.dropped, 2);
        assert_eq!(trace.emitted(SpanCategory::Cache), 5);
        assert_eq!(trace.total_emitted(), 5);
        let first: Vec<u64> = trace.events.iter().map(|e| e.at.as_nanos()).collect();
        assert_eq!(first, vec![2, 3, 4], "the oldest events were evicted");
    }

    #[test]
    fn install_cycle_collects_events_into_the_ledger() {
        let (value, trace) = with_tracer(Tracer::new(), || {
            assert!(active());
            set_now(SimTime::from_millis(1.0));
            emit(|now| {
                TraceEvent::span(
                    SpanCategory::Request,
                    "read",
                    now,
                    SimDuration::from_millis(2.0),
                )
            });
            7
        });
        assert!(!active());
        assert_eq!(value, 7);
        assert_eq!(trace.events.len(), 1);
        assert_eq!(trace.events[0].at, SimTime::from_millis(1.0));
        let snapshot = trace.snapshot();
        assert_eq!(snapshot.events, 1);
        assert_eq!(snapshot.recorded, 1);
        assert_eq!(snapshot.dropped, 0);
        assert_eq!(snapshot.spans.get("request"), Some(&1));
        assert_eq!(snapshot.spans.len(), 1, "empty categories are omitted");
    }

    #[test]
    fn panicking_body_uninstalls_the_tracer() {
        let result = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            with_tracer(Tracer::new(), || panic!("traced body blew up"));
        }));
        assert!(result.is_err());
        assert!(!active(), "a panicking body must not leak the tracer");
    }

    #[test]
    #[should_panic(expected = "already installed")]
    fn nested_installs_are_rejected() {
        with_tracer(Tracer::new(), || {
            with_tracer(Tracer::new(), || ());
        });
    }

    #[test]
    #[should_panic(expected = "room for at least one event")]
    fn zero_capacity_is_rejected() {
        Tracer::with_capacity(0);
    }

    #[test]
    fn skip_serializing_if_omits_the_key_entirely() {
        // The report embeds `obs: Option<ObsSnapshot>` behind
        // `skip_serializing_if = "Option::is_none"`; byte-identity of
        // tracing-off reports depends on the None key vanishing (not
        // serializing as null).
        #[derive(Debug, PartialEq, Serialize, Deserialize)]
        struct Wrapper {
            kept: u64,
            #[serde(skip_serializing_if = "Option::is_none")]
            obs: Option<ObsSnapshot>,
        }

        let off = Wrapper { kept: 7, obs: None };
        let json = serde_json::to_string(&off).unwrap();
        assert!(!json.contains("obs"), "None field must be omitted: {json}");
        let back: Wrapper = serde_json::from_str(&json).unwrap();
        assert_eq!(back, off);

        let on = Wrapper {
            kept: 7,
            obs: Some(ObsSnapshot::default()),
        };
        let json = serde_json::to_string(&on).unwrap();
        assert!(
            json.contains("\"obs\""),
            "Some field must serialize: {json}"
        );
        let back: Wrapper = serde_json::from_str(&json).unwrap();
        assert_eq!(back, on);
    }

    #[test]
    fn obs_snapshot_round_trips_through_json() {
        let snapshot = ObsSnapshot {
            events: 12,
            recorded: 10,
            dropped: 2,
            spans: [("request".to_string(), 9u64)].into_iter().collect(),
        };
        let json = serde_json::to_string_pretty(&snapshot).unwrap();
        let back: ObsSnapshot = serde_json::from_str(&json).unwrap();
        assert_eq!(back, snapshot);
    }
}
