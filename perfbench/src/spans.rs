//! Host-time spans recorded by the benchmark's own replay driver.
//!
//! Every call the driver makes into a layer of the simulator is wrapped in
//! a span: its kind, start, end, parent and the id of the trace record it
//! served. Spans stay in memory — per-kind aggregates for the whole run
//! plus a bounded ring of the most recent complete spans — and are written
//! out when the run ends. A span's *self* time is its duration minus the
//! part covered by its children.

use std::time::Instant;

/// The layer boundary a span covers. Names follow the simulator's modules.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SpanKind {
    /// Root span of one trace record (`sim` replay loop).
    Record,
    /// `StorageArray::expand` / `fail_disk` / `repair_disk`.
    Events,
    /// `DatasetMapper::map_into`.
    Map,
    /// `StorageArray::submit` (redirector, monitor, partition, devices).
    Submit,
    /// `StorageArray::background_work_due`.
    DueCheck,
    /// `StorageArray::pump_background_into` / `pump_background`.
    Pump,
    /// `StorageArray::take_activations`.
    Activations,
    /// `StorageArray::set_background_throttle`.
    Throttle,
    /// `QosController::evaluate`.
    QosEvaluate,
    /// `QosController::observe`.
    QosObserve,
    /// `QosController::note_maintenance`.
    QosNote,
    /// The craid_metrics trackers and response summaries.
    MetricsFold,
    /// Root span of the end-of-trace background drain.
    Drain,
    /// Root span of the post-replay statistics collection.
    Finish,
}

impl SpanKind {
    /// Every kind, in index order.
    pub const ALL: [SpanKind; 14] = [
        SpanKind::Record,
        SpanKind::Events,
        SpanKind::Map,
        SpanKind::Submit,
        SpanKind::DueCheck,
        SpanKind::Pump,
        SpanKind::Activations,
        SpanKind::Throttle,
        SpanKind::QosEvaluate,
        SpanKind::QosObserve,
        SpanKind::QosNote,
        SpanKind::MetricsFold,
        SpanKind::Drain,
        SpanKind::Finish,
    ];

    /// The span's name, `<layer>.<call>`.
    pub fn name(self) -> &'static str {
        match self {
            SpanKind::Record => "sim.record",
            SpanKind::Events => "sim.events",
            SpanKind::Map => "sim.map",
            SpanKind::Submit => "array.submit",
            SpanKind::DueCheck => "background.due_check",
            SpanKind::Pump => "background.pump",
            SpanKind::Activations => "background.activations",
            SpanKind::Throttle => "background.throttle",
            SpanKind::QosEvaluate => "qos.evaluate",
            SpanKind::QosObserve => "qos.observe",
            SpanKind::QosNote => "qos.note_maintenance",
            SpanKind::MetricsFold => "metrics.fold",
            SpanKind::Drain => "sim.drain",
            SpanKind::Finish => "sim.finish",
        }
    }

    /// True for spans opened with no parent.
    pub fn is_root(self) -> bool {
        matches!(self, SpanKind::Record | SpanKind::Drain | SpanKind::Finish)
    }

    fn index(self) -> usize {
        self as usize
    }
}

/// Totals of one span kind over a run.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct SpanTotals {
    /// Spans closed.
    pub count: u64,
    /// Summed durations, in host nanoseconds.
    pub total_ns: u64,
    /// Summed self times (duration minus child coverage), in nanoseconds.
    pub self_ns: u64,
}

/// One closed span, as kept in the ring.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SpanRecord {
    /// What the span covered.
    pub kind: SpanKind,
    /// Start, in nanoseconds since the recorder was created.
    pub start_ns: u64,
    /// End, in nanoseconds since the recorder was created.
    pub end_ns: u64,
    /// The enclosing span's kind (`None` for roots).
    pub parent: Option<SpanKind>,
    /// The trace record this span served (the record count so far for
    /// the drain and finish roots).
    pub record: u64,
}

struct Open {
    kind: SpanKind,
    start_ns: u64,
    child_ns: u64,
}

/// Number of complete spans the ring keeps.
pub const RING_CAPACITY: usize = 4096;

/// The in-memory span store of one replay.
pub struct SpanRecorder {
    base: Instant,
    stack: Vec<Open>,
    totals: [SpanTotals; SpanKind::ALL.len()],
    ring: Vec<SpanRecord>,
    ring_next: usize,
    record: u64,
    /// Durations of every `sim.record` root span, in nanoseconds.
    pub record_ns: Vec<u64>,
}

impl Default for SpanRecorder {
    fn default() -> Self {
        SpanRecorder::new()
    }
}

impl SpanRecorder {
    /// An empty recorder whose clock starts now.
    pub fn new() -> Self {
        SpanRecorder {
            base: Instant::now(),
            stack: Vec::with_capacity(8),
            totals: [SpanTotals::default(); SpanKind::ALL.len()],
            ring: Vec::with_capacity(RING_CAPACITY),
            ring_next: 0,
            record: 0,
            record_ns: Vec::new(),
        }
    }

    fn now_ns(&self) -> u64 {
        self.base.elapsed().as_nanos() as u64
    }

    /// Sets the record id that the following spans share.
    pub fn set_record(&mut self, record: u64) {
        self.record = record;
    }

    /// Opens a span; it nests under the innermost open span.
    pub fn enter(&mut self, kind: SpanKind) {
        let start_ns = self.now_ns();
        self.stack.push(Open {
            kind,
            start_ns,
            child_ns: 0,
        });
    }

    /// Closes the innermost open span.
    ///
    /// # Panics
    ///
    /// Panics if no span is open.
    pub fn exit(&mut self) {
        let end_ns = self.now_ns();
        let open = self.stack.pop().expect("exit matches an enter");
        let duration = end_ns - open.start_ns;
        let totals = &mut self.totals[open.kind.index()];
        totals.count += 1;
        totals.total_ns += duration;
        totals.self_ns += duration.saturating_sub(open.child_ns);
        let parent = self.stack.last_mut().map(|p| {
            p.child_ns += duration;
            p.kind
        });
        if open.kind == SpanKind::Record {
            self.record_ns.push(duration);
        }
        let span = SpanRecord {
            kind: open.kind,
            start_ns: open.start_ns,
            end_ns,
            parent,
            record: self.record,
        };
        if self.ring.len() < RING_CAPACITY {
            self.ring.push(span);
        } else {
            self.ring[self.ring_next] = span;
        }
        self.ring_next = (self.ring_next + 1) % RING_CAPACITY;
    }

    /// Runs `body` inside a span of `kind`.
    pub fn time<R>(&mut self, kind: SpanKind, body: impl FnOnce() -> R) -> R {
        self.enter(kind);
        let out = body();
        self.exit();
        out
    }

    /// Totals of one kind.
    pub fn totals(&self, kind: SpanKind) -> SpanTotals {
        self.totals[kind.index()]
    }

    /// Self time of one kind, in seconds.
    pub fn self_secs(&self, kind: SpanKind) -> f64 {
        self.totals(kind).self_ns as f64 * 1e-9
    }

    /// Summed duration of all root spans, in seconds: the replay wall time
    /// the spans account for.
    pub fn root_secs(&self) -> f64 {
        SpanKind::ALL
            .iter()
            .filter(|k| k.is_root())
            .map(|&k| self.totals(k).total_ns)
            .sum::<u64>() as f64
            * 1e-9
    }

    /// The ring's spans, oldest first.
    pub fn recent(&self) -> Vec<SpanRecord> {
        let mut spans = Vec::with_capacity(self.ring.len());
        if self.ring.len() == RING_CAPACITY {
            spans.extend_from_slice(&self.ring[self.ring_next..]);
            spans.extend_from_slice(&self.ring[..self.ring_next]);
        } else {
            spans.extend_from_slice(&self.ring);
        }
        spans
    }

    /// Folds another recorder's aggregates and record durations into this
    /// one (campaign workers each own a recorder). Ring contents stay
    /// per-recorder.
    pub fn absorb(&mut self, other: &SpanRecorder) {
        for (mine, theirs) in self.totals.iter_mut().zip(other.totals.iter()) {
            mine.count += theirs.count;
            mine.total_ns += theirs.total_ns;
            mine.self_ns += theirs.self_ns;
        }
        self.record_ns.extend_from_slice(&other.record_ns);
    }

    /// The ring as JSON lines, one span per line, oldest first.
    pub fn to_jsonl(&self) -> String {
        let mut out = String::new();
        for span in self.recent() {
            out.push_str(&format!(
                "{{\"name\":\"{}\",\"start_ns\":{},\"end_ns\":{},\"parent\":{},\"record\":{}}}\n",
                span.kind.name(),
                span.start_ns,
                span.end_ns,
                span.parent
                    .map_or("null".to_string(), |p| format!("\"{}\"", p.name())),
                span.record,
            ));
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn self_time_excludes_children() {
        let mut spans = SpanRecorder::new();
        spans.enter(SpanKind::Record);
        spans.time(SpanKind::Map, || std::hint::black_box(1 + 1));
        spans.time(SpanKind::Submit, || {
            std::thread::sleep(std::time::Duration::from_millis(2))
        });
        spans.exit();
        let record = spans.totals(SpanKind::Record);
        let submit = spans.totals(SpanKind::Submit);
        let map = spans.totals(SpanKind::Map);
        assert_eq!(record.count, 1);
        assert_eq!(
            record.self_ns,
            record.total_ns - submit.total_ns - map.total_ns
        );
        assert!(submit.total_ns >= 2_000_000);
        let ring = spans.recent();
        assert_eq!(ring.len(), 3);
        assert_eq!(ring[0].parent, Some(SpanKind::Record));
        assert_eq!(ring[2].parent, None);
        assert_eq!(spans.record_ns.len(), 1);
    }

    #[test]
    fn ring_keeps_the_most_recent_spans() {
        let mut spans = SpanRecorder::new();
        for i in 0..(RING_CAPACITY as u64 + 10) {
            spans.set_record(i);
            spans.time(SpanKind::Map, || ());
        }
        let ring = spans.recent();
        assert_eq!(ring.len(), RING_CAPACITY);
        assert_eq!(ring[0].record, 10);
        assert_eq!(
            ring.last().map(|s| s.record),
            Some(RING_CAPACITY as u64 + 9)
        );
    }
}
