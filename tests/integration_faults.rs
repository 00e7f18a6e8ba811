//! Integration tests for the fault subsystem: disk-failure/repair scenario
//! timelines, degraded-mode service quality, rebuild traffic, and the
//! determinism of fault-laden campaigns.

use craid::SimEvent;
use craid::{Campaign, Observer, Scenario, ScheduledEvent, StrategyKind};
use craid_diskmodel::IoKind;
use craid_simkit::SimTime;
use craid_trace::WorkloadId;

/// Buckets per-request read response times into the three service windows
/// of a fail → repair timeline.
struct WindowedReads {
    t1: SimTime,
    t2: SimTime,
    before: Vec<f64>,
    during: Vec<f64>,
    after: Vec<f64>,
}

impl WindowedReads {
    fn new(t1: SimTime, t2: SimTime) -> Self {
        WindowedReads {
            t1,
            t2,
            before: Vec::new(),
            during: Vec::new(),
            after: Vec::new(),
        }
    }

    fn mean(samples: &[f64]) -> f64 {
        samples.iter().sum::<f64>() / samples.len().max(1) as f64
    }
}

impl Observer for WindowedReads {
    fn on_event(&mut self, event: &SimEvent<'_>) {
        let SimEvent::Request { record, outcome } = *event else {
            return;
        };
        if record.kind != IoKind::Read {
            return;
        }
        if record.time < self.t1 {
            self.before.push(outcome.worst_ms);
        } else if record.time < self.t2 {
            self.during.push(outcome.worst_ms);
        } else {
            self.after.push(outcome.worst_ms);
        }
    }
}

/// Acceptance criterion of the fault subsystem: a scenario declaring a
/// `DiskFailure` at t₁ and a `DiskRepair` at t₂ runs end-to-end, degraded
/// reads fan out to the surviving parity-group members, rebuild traffic
/// appears in the metrics, and read response is measurably worse during
/// [t₁, t₂) than before or after.
#[test]
fn degraded_window_has_measurably_worse_read_response() {
    let base = Scenario::builder()
        .name("degraded window")
        .strategy(StrategyKind::Raid5)
        .workload(WorkloadId::Wdev)
        .requests(4_000)
        .seed(11)
        .small_test()
        .pc_fraction(0.2)
        // Fast pace: the rebuild finishes early in the after-repair window,
        // so that window measures a healed array rather than rebuild
        // queueing.
        .rebuild_rate(50_000.0)
        .build();
    let duration = base.trace().duration().as_secs();
    let t1 = SimTime::from_secs(duration / 3.0);
    let t2 = SimTime::from_secs(2.0 * duration / 3.0);
    let mut scenario = base;
    scenario.events.push(ScheduledEvent::disk_failure(t1, 0));
    scenario.events.push(ScheduledEvent::disk_repair(t2, 0));

    let mut windows = WindowedReads::new(t1, t2);
    let outcome = scenario
        .run_observed(&mut windows)
        .expect("the failure scenario runs end-to-end");

    // The timeline applied in order and the fault counters flowed into the
    // report.
    assert_eq!(outcome.applied_events.len(), 2);
    assert!(outcome.applied_events[0]
        .description
        .contains("fail disk 0"));
    assert!(outcome.applied_events[1]
        .description
        .contains("repair disk 0"));
    let fault = outcome.report.fault;
    assert_eq!(fault.disk_failures, 1);
    assert_eq!(fault.disk_repairs, 1);
    assert!(
        fault.degraded_reads > 0,
        "reads were served in degraded mode"
    );
    assert!(
        fault.reconstruction_ios >= 3 * fault.degraded_reads,
        "each degraded read of the 4-disk parity group fans out to 3 peers"
    );
    assert!(fault.rebuild_write_blocks > 0, "rebuild traffic flowed");
    assert!(fault.rebuild_read_blocks >= fault.rebuild_write_blocks);

    // Degraded service is measurably slower than healthy service on both
    // sides of the window.
    assert!(
        windows.before.len() > 100 && windows.during.len() > 100 && windows.after.len() > 100,
        "every window needs a meaningful sample ({} / {} / {})",
        windows.before.len(),
        windows.during.len(),
        windows.after.len()
    );
    assert!(fault.degraded_reads > 50, "the effect needs enough samples");
    let before = WindowedReads::mean(&windows.before);
    let during = WindowedReads::mean(&windows.during);
    let after = WindowedReads::mean(&windows.after);
    assert!(
        during > before,
        "degraded reads must be slower: during = {during:.3} ms, before = {before:.3} ms"
    );
    assert!(
        during > 1.05 * after,
        "service must recover after the repair: during = {during:.3} ms, after = {after:.3} ms"
    );
    assert_eq!(
        fault.rebuilds_completed, 1,
        "the fast-paced rebuild completes within the run"
    );
}

#[test]
fn fail_repair_expand_timeline_is_deterministic_under_campaign() {
    let scenario = Scenario::builder()
        .name("fail repair expand")
        .strategy(StrategyKind::Craid5)
        .workload(WorkloadId::Webusers)
        .requests(2_000)
        .seed(21)
        .small_test()
        .pc_fraction(0.2)
        .rebuild_rate(500_000.0)
        .fail_disk_at(SimTime::from_secs(20.0), 1)
        .repair_disk_at(SimTime::from_secs(35.0), 1)
        .expand_at(SimTime::from_secs(60.0), 4)
        .build();

    let first = Campaign::new(vec![scenario.clone()]).run().expect("runs");
    let second = Campaign::new(vec![scenario.clone()]).run().expect("runs");
    assert_eq!(
        first[0].report, second[0].report,
        "a fault-laden timeline must replay bit-identically"
    );
    assert_eq!(first[0].report.fault, second[0].report.fault);
    assert_eq!(first[0].expansions.len(), 1);
    assert_eq!(first[0].applied_events.len(), 3);
    assert!(first[0].report.fault.any_faults());

    // The same scenario without the failure produces different traffic.
    let mut healthy = scenario;
    healthy.events.clear();
    healthy
        .events
        .push(ScheduledEvent::expand(SimTime::from_secs(60.0), 4));
    let third = Campaign::new(vec![healthy]).run().expect("runs");
    assert!(!third[0].report.fault.any_faults());
    assert_ne!(first[0].report, third[0].report);
}

#[test]
fn failure_events_round_trip_through_toml_and_json() {
    let scenario = Scenario::builder()
        .name("fault round trip")
        .strategy(StrategyKind::Craid5Plus)
        .workload(WorkloadId::Home02)
        .requests(500)
        .seed(4)
        .small_test()
        .pc_fraction(0.1)
        .rebuild_rate(12_345.5)
        .fail_disk_at(SimTime::from_secs(10.0), 3)
        .repair_disk_at(SimTime::from_secs(20.0), 3)
        .build();

    let toml_text = scenario.to_toml().expect("serializes to TOML");
    assert!(toml_text.contains("disk-failure"));
    assert!(toml_text.contains("disk-repair"));
    assert_eq!(
        Scenario::from_toml(&toml_text).expect("parses"),
        scenario,
        "TOML round trip:\n{toml_text}"
    );

    let json_text = scenario.to_json().expect("serializes to JSON");
    assert_eq!(
        Scenario::from_json(&json_text).expect("parses"),
        scenario,
        "JSON round trip:\n{json_text}"
    );
}

#[test]
fn repairing_a_healthy_disk_fails_the_run_with_context() {
    let scenario = Scenario::builder()
        .name("bad repair")
        .strategy(StrategyKind::Raid5Plus)
        .workload(WorkloadId::Wdev)
        .requests(300)
        .seed(1)
        .small_test()
        .pc_fraction(0.1)
        .repair_disk_at(SimTime::from_secs(5.0), 2)
        .build();
    let err = scenario.run().unwrap_err();
    assert!(matches!(err, craid::CraidError::InvalidFault(_)), "{err}");
}

#[test]
fn checked_in_failure_drill_parses_and_runs() {
    let text = include_str!("../examples/scenarios/failure_drill.toml");
    let mut scenario = Scenario::from_toml(text).expect("the failure drill parses");
    assert_eq!(scenario.strategy, StrategyKind::Craid5);
    assert!(scenario
        .events
        .iter()
        .any(|e| matches!(e, ScheduledEvent::DiskFailure { .. })));
    assert!(scenario
        .events
        .iter()
        .any(|e| matches!(e, ScheduledEvent::DiskRepair { .. })));
    // Scale it down and silence observers to keep the test fast and quiet.
    scenario.workload.requests = 1_500;
    scenario.observers.clear();
    let outcome = scenario.run().expect("the failure drill runs");
    assert_eq!(outcome.applied_events.len(), 4);
    assert_eq!(outcome.expansions.len(), 1);
    let fault = outcome.report.fault;
    assert_eq!(fault.disk_failures, 1);
    assert_eq!(fault.disk_repairs, 1);
    assert!(fault.degraded_reads > 0);
    assert!(fault.rebuild_write_blocks > 0);
}
