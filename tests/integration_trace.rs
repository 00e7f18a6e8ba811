//! Integration tests for the deterministic tracing layer (`craid-obs`)
//! and the engine's published event stream: the golden event-count
//! reconciliation between a Chrome trace export, the report's `obs`
//! ledger and the report's own tallies, trace-twice byte-diff determinism
//! for every shipped drill, the pin that tracing-off reports stay
//! byte-identical to a build without tracing, and the pins that each
//! published [`SimEvent`] agrees with the trace lane and the report field
//! describing the same fact.

use std::sync::OnceLock;

use craid::{Observer, Scenario, SimEvent};
use craid_obs::SpanCategory;
use craid_raid::IoPurpose;
use serde::Value;

/// Every drill shipped under `examples/scenarios/` (the `invalid/`
/// fixtures are analyzer food, not runnable scenarios).
const DRILLS: &[(&str, &str)] = &[
    (
        "failure_drill",
        include_str!("../examples/scenarios/failure_drill.toml"),
    ),
    (
        "online_upgrade_drill",
        include_str!("../examples/scenarios/online_upgrade_drill.toml"),
    ),
    (
        "qos_drill",
        include_str!("../examples/scenarios/qos_drill.toml"),
    ),
    (
        "upgrade_drill",
        include_str!("../examples/scenarios/upgrade_drill.toml"),
    ),
];

/// Loads a drill scaled down to `requests` with observers silenced, so
/// the tests stay fast and quiet without changing what they pin.
fn drill(text: &str, requests: u64) -> Scenario {
    let mut scenario = Scenario::from_toml(text).expect("shipped drill parses");
    scenario.workload.requests = requests;
    scenario.observers.clear();
    scenario
}

/// Counts the non-metadata `traceEvents` per category in a parsed Chrome
/// export. The five `ph == "M"` records are per-track `thread_name`
/// metadata, not trace events.
fn chrome_category_counts(root: &Value) -> std::collections::BTreeMap<String, u64> {
    let events = root
        .get("traceEvents")
        .and_then(Value::as_seq)
        .expect("chrome export has a traceEvents array");
    let mut counts = std::collections::BTreeMap::new();
    for event in events {
        let ph = event.get("ph").and_then(Value::as_str).expect("ph");
        if ph == "M" {
            continue;
        }
        let cat = event.get("cat").and_then(Value::as_str).expect("cat");
        *counts.entry(cat.to_string()).or_insert(0) += 1;
    }
    counts
}

/// The golden event-count test. The QoS drill traced end to end produces
/// a Chrome export that parses as JSON, carries at least four span
/// categories, and reconciles event-for-event with the `obs` ledger
/// embedded in the report — which itself reconciles with the report's own
/// tallies.
#[test]
fn qos_drill_chrome_trace_reconciles_with_the_report() {
    let scenario = drill(DRILLS[2].1, 4_000);
    let (outcome, trace) = scenario
        .run_traced(craid_obs::DEFAULT_CAPACITY)
        .expect("qos drill runs traced");
    let obs = outcome.report.obs.as_ref().expect("traced run embeds obs");
    assert_eq!(obs.dropped, 0, "the default ring holds the whole drill");
    assert_eq!(obs.events, obs.recorded);

    let chrome = trace.to_chrome_json();
    let root: Value = serde_json::from_str(&chrome).expect("chrome export parses as JSON");
    let counts = chrome_category_counts(&root);

    // Event-for-event reconciliation against the snapshot's ledger.
    let total: u64 = counts.values().sum();
    assert_eq!(total, obs.recorded);
    let spans: std::collections::BTreeMap<String, u64> =
        obs.spans.iter().map(|(k, v)| (k.clone(), *v)).collect();
    assert_eq!(counts, spans, "per-category counts match the snapshot");
    assert!(
        counts.len() >= 4,
        "the QoS drill exercises at least four span categories, got {counts:?}"
    );

    // The ledger's lanes reconcile with the simulation report itself.
    let report = &outcome.report;
    assert_eq!(spans.get("request"), Some(&report.requests));
    assert_eq!(spans.get("throttle"), Some(&report.qos.throttle_changes));
    assert_eq!(
        spans.get("background").copied().unwrap_or(0),
        completed_background_tasks(report)
    );

    // The JSONL export covers the same events, one parseable line each.
    let jsonl = trace.to_jsonl();
    assert_eq!(jsonl.lines().count() as u64, obs.recorded);
    for line in jsonl.lines() {
        let event: Value = serde_json::from_str(line).expect("each JSONL line parses");
        assert!(event.get("at_ns").is_some());
    }
}

/// Satellite: trace-twice byte-diff. Every shipped drill, traced twice,
/// exports byte-identical Chrome and JSONL files and bit-identical
/// reports — virtual-time tracing has no nondeterministic inputs.
#[test]
fn every_shipped_drill_traces_byte_identically_twice() {
    for (name, text) in DRILLS {
        let scenario = drill(text, 1_200);
        let (first, first_trace) = scenario
            .run_traced(craid_obs::DEFAULT_CAPACITY)
            .unwrap_or_else(|e| panic!("{name} runs traced: {e}"));
        let (second, second_trace) = scenario
            .run_traced(craid_obs::DEFAULT_CAPACITY)
            .unwrap_or_else(|e| panic!("{name} runs traced: {e}"));
        assert_eq!(
            first_trace.to_chrome_json(),
            second_trace.to_chrome_json(),
            "{name}: chrome exports must be byte-identical"
        );
        assert_eq!(
            first_trace.to_jsonl(),
            second_trace.to_jsonl(),
            "{name}: jsonl exports must be byte-identical"
        );
        assert_eq!(
            first.report.to_json(),
            second.report.to_json(),
            "{name}: traced reports must be byte-identical"
        );
    }
}

/// Satellite: the tracing-off pin. An untraced run's report JSON carries
/// no `obs` key at all (so its bytes match a build without the tracing
/// layer), repeats byte-identically, and — stripped of the snapshot — a
/// traced run produces the very same report: tracing records, it never
/// perturbs.
#[test]
fn tracing_off_reports_omit_obs_and_match_traced_results() {
    for (name, text) in DRILLS {
        let scenario = drill(text, 1_200);
        let untraced = scenario
            .run()
            .unwrap_or_else(|e| panic!("{name} runs: {e}"));
        let untraced_json = untraced.report.to_json();
        assert!(
            !untraced_json.contains("\"obs\""),
            "{name}: untraced reports must omit the obs key entirely"
        );
        let again = scenario.run().unwrap();
        assert_eq!(
            untraced_json,
            again.report.to_json(),
            "{name}: untraced reports must be byte-identical across runs"
        );

        let (traced, _) = scenario.run_traced(craid_obs::DEFAULT_CAPACITY).unwrap();
        let mut stripped = traced.report.clone();
        stripped.obs = None;
        assert_eq!(
            untraced_json,
            stripped.to_json(),
            "{name}: tracing must not change a single reported byte"
        );
    }
}

/// Background tasks the report counts as completed: each retires with
/// exactly one span on the background lane.
fn completed_background_tasks(report: &craid::SimulationReport) -> u64 {
    report.fault.rebuilds_completed
        + report.migration.migrations_completed
        + report.migration.archive_restripes_completed
}

/// Tallies the published stream of one run.
#[derive(Default)]
struct StreamTally {
    maintenance_blocks: u64,
    /// Maintenance events not immediately followed by their request.
    orphan_maintenance: u64,
    last_was_maintenance: bool,
    /// `(all, notable)` throttle retargets.
    throttles: (u64, u64),
    /// Rebuild I/Os found inside a client request's outcome.
    rebuild_ios_in_requests: usize,
}

impl Observer for StreamTally {
    fn on_event(&mut self, event: &SimEvent<'_>) {
        let is_request = matches!(event, SimEvent::Request { .. });
        self.orphan_maintenance += u64::from(self.last_was_maintenance && !is_request);
        self.last_was_maintenance = matches!(event, SimEvent::Maintenance(_));
        match *event {
            SimEvent::Maintenance(ios) => {
                self.maintenance_blocks += ios.iter().map(|io| io.blocks).sum::<u64>();
            }
            SimEvent::Request { outcome, .. } => {
                let ios = outcome.reports.iter().flat_map(|r| &r.events);
                self.rebuild_ios_in_requests += ios
                    .filter(|io| {
                        matches!(io.purpose, IoPurpose::RebuildRead | IoPurpose::RebuildWrite)
                    })
                    .count();
            }
            SimEvent::Throttle { notable, .. } => {
                self.throttles.0 += 1;
                self.throttles.1 += u64::from(notable);
            }
            SimEvent::Scheduled { .. } | SimEvent::Activation { .. } => {}
        }
    }
}

type StreamRun = (craid::SimulationReport, craid_obs::Trace, StreamTally);

/// The full QoS drill, traced, with a [`StreamTally`] attached — run once
/// and shared by the stream pins below.
fn qos_drill_stream() -> &'static StreamRun {
    static RUN: OnceLock<StreamRun> = OnceLock::new();
    RUN.get_or_init(|| {
        let mut tally = StreamTally::default();
        let (outcome, trace) = craid_obs::with_tracer(craid_obs::Tracer::new(), || {
            drill(DRILLS[2].1, 4_000).run_observed(&mut tally)
        });
        (outcome.expect("qos drill runs").report, trace, tally)
    })
}

/// Σ blocks over every published `Maintenance` event equals the
/// maintenance the QoS controller accounted.
#[test]
fn published_maintenance_blocks_equal_the_qos_maintenance_tally() {
    let (report, _, tally) = qos_drill_stream();
    assert!(
        report.qos.maintenance_blocks > 0,
        "the drill runs maintenance"
    );
    assert_eq!(tally.maintenance_blocks, report.qos.maintenance_blocks);
}

/// Each `Maintenance` event is followed directly by the request it was
/// issued ahead of.
#[test]
fn published_maintenance_directly_precedes_its_request() {
    let (_, _, tally) = qos_drill_stream();
    assert!(tally.maintenance_blocks > 0);
    assert_eq!(tally.orphan_maintenance, 0);
}

/// Every retarget is published once, notable or not: the observer's
/// `Throttle` count equals the report's `throttle_changes` and the trace's
/// throttle lane.
#[test]
fn published_throttles_equal_the_report_and_the_trace_lane() {
    let (report, trace, tally) = qos_drill_stream();
    let (all, notable) = tally.throttles;
    assert!(0 < notable && notable < all, "{notable} of {all} notable");
    assert_eq!(all, report.qos.throttle_changes);
    assert_eq!(all, trace.emitted(SpanCategory::Throttle));
}

/// A request's outcome carries its client I/O only: the drill rebuilds a
/// failed disk, yet no rebuild read or write rides in any outcome.
#[test]
fn request_outcomes_carry_no_rebuild_io() {
    let (report, _, tally) = qos_drill_stream();
    assert!(report.fault.rebuilds_completed > 0, "the drill rebuilds");
    assert_eq!(tally.rebuild_ios_in_requests, 0);
}

/// On every shipped drill, at its full size, the background lane holds one
/// span per completed rebuild, expansion migration and archive restripe.
#[test]
fn background_lane_equals_completed_tasks_on_every_drill() {
    for (name, text) in DRILLS {
        let mut scenario = Scenario::from_toml(text).expect("shipped drill parses");
        scenario.observers.clear();
        let (outcome, trace) = scenario
            .run_traced(craid_obs::DEFAULT_CAPACITY)
            .unwrap_or_else(|e| panic!("{name} runs traced: {e}"));
        assert_eq!(
            trace.emitted(SpanCategory::Background),
            completed_background_tasks(&outcome.report),
            "{name}: background lane vs completed tasks"
        );
    }
}

/// A ring far smaller than the run keeps only the newest events but its
/// ledger still accounts for every emission, and the report is unchanged.
#[test]
fn a_tiny_trace_ring_drops_events_but_keeps_the_ledger() {
    let (_, text) = DRILLS
        .iter()
        .find(|(name, _)| *name == "qos_drill")
        .expect("the QoS drill ships");
    let scenario = drill(text, 800);
    let (traced, trace) = scenario.run_traced(8).expect("traced run");
    let obs = traced.report.obs.clone().expect("traced reports carry obs");
    assert_eq!(trace.events.len(), 8);
    assert_eq!(obs.recorded, 8);
    assert!(obs.dropped > 0, "the ring must overflow");
    assert_eq!(obs.events, obs.recorded + obs.dropped);
    assert_eq!(obs.spans.values().sum::<u64>(), obs.events);

    let mut stripped = traced.report;
    stripped.obs = None;
    let untraced = scenario.run().expect("untraced run");
    assert_eq!(untraced.report.to_json(), stripped.to_json());
}
