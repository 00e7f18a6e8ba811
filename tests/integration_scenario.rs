//! Integration tests for the declarative Scenario/Campaign API: the golden
//! equivalence between the campaign path and a direct engine call,
//! file-driven scenarios, campaign determinism, and event-schedule
//! semantics.

use craid::{Campaign, NullObserver, Scenario, ScheduledEvent, Simulation, StrategyKind};
use craid_simkit::SimTime;
use craid_trace::WorkloadId;

/// Golden equivalence: a scenario written in TOML (strategy, workload, pc
/// fraction, two scheduled expansions) loads, executes via `Campaign`, and
/// produces a `SimulationReport` identical to driving
/// `Simulation::try_run_events` directly with the same schedule.
///
/// Honesty note: this pins the full declarative path (TOML parse → config
/// resolution → campaign threading) against the direct programmatic call.
/// It originally pinned the deprecated `run_with_expansions` tuple shim,
/// which was removed once its deprecation window closed — that shim was
/// itself a thin wrapper over the same `try_run_events` engine, so the
/// property guarded here is unchanged: any drift between the two call
/// paths (e.g. a config override lost in `array_config`, or campaign
/// threading perturbing determinism) fails this test.
#[test]
fn toml_scenario_matches_direct_try_run_events() {
    let text = r#"
        name = "golden"
        strategy = "CRAID-5+"

        [workload]
        id = "webusers"
        requests = 2500
        seed = 9

        [array]
        preset = "small-test"
        pc_fraction = 0.2
        disks = 4
        expansion_sets = [4]

        [[events]]
        kind = "expand"
        at_secs = 2000.0
        added_disks = 2

        [[events]]
        kind = "expand"
        at_secs = 4000.0
        added_disks = 2
    "#;
    let scenario = Scenario::from_toml(text).expect("scenario parses");

    // The declarative path: executed through a Campaign.
    let outcomes = Campaign::new(vec![scenario.clone()])
        .run()
        .expect("campaign runs");
    assert_eq!(outcomes.len(), 1);
    let outcome = &outcomes[0];

    // The programmatic path: the same experiment driven directly.
    let trace = scenario.trace();
    let config = scenario.array_config(&trace);
    let events = [
        ScheduledEvent::expand(SimTime::from_secs(2000.0), 2),
        ScheduledEvent::expand(SimTime::from_secs(4000.0), 2),
    ];
    let (direct_report, direct_expansions, _) = Simulation::new(config)
        .try_run_events(&trace, &events, &mut NullObserver)
        .expect("direct run succeeds");

    assert_eq!(
        outcome.report, direct_report,
        "the campaign must reproduce the direct engine report bit for bit"
    );
    assert_eq!(outcome.expansions.len(), direct_expansions.len());
    for (new, old) in outcome.expansions.iter().zip(&direct_expansions) {
        assert_eq!(new.added_disks, old.added_disks);
        assert_eq!(new.migrated_blocks, old.migrated_blocks);
        assert_eq!(new.writeback_blocks, old.writeback_blocks);
    }
}

#[test]
fn scenario_survives_toml_and_json_round_trips() {
    let scenario = Scenario::builder()
        .name("round trip")
        .strategy(StrategyKind::Craid5Ssd)
        .workload(WorkloadId::Home02)
        .requests(1_000)
        .seed(5)
        .small_test()
        .pc_fraction(0.25)
        .policy(craid_cache::PolicyKind::Wlru(0.5))
        .stripe_unit(8)
        .expand_at(SimTime::from_secs(10.5), 3)
        .phase_at(SimTime::from_secs(20.0), "phase two")
        .switch_policy_at(SimTime::from_secs(30.0), craid_cache::PolicyKind::Arc)
        .observe(craid::ObserverSpec::Progress { every: 500 })
        .build();

    let toml_text = scenario.to_toml().expect("serializes to TOML");
    assert_eq!(Scenario::from_toml(&toml_text).expect("parses"), scenario);

    let json_text = scenario.to_json().expect("serializes to JSON");
    assert_eq!(Scenario::from_json(&json_text).expect("parses"), scenario);
}

#[test]
fn campaign_same_seed_produces_identical_reports() {
    let scenario = Scenario::builder()
        .name("determinism")
        .strategy(StrategyKind::Craid5)
        .workload(WorkloadId::Wdev)
        .requests(1_500)
        .seed(77)
        .small_test()
        .pc_fraction(0.2)
        .build();
    let first = Campaign::new(vec![scenario.clone()]).run().expect("runs");
    let second = Campaign::new(vec![scenario.clone()]).run().expect("runs");
    assert_eq!(first[0].report, second[0].report);

    // A different workload seed must actually change the replay.
    let mut reseeded = scenario;
    reseeded.workload.seed = 78;
    let third = Campaign::new(vec![reseeded]).run().expect("runs");
    assert_ne!(
        first[0].report, third[0].report,
        "different seeds must produce different traffic"
    );
}

#[test]
fn equal_time_events_apply_in_declaration_order_even_after_sorting() {
    let at = SimTime::from_secs(3_000.0);
    let early = SimTime::from_secs(1_000.0);
    // Deliberately declare a later-timed event first: the engine sorts by
    // time (stable), so `early` applies first, then the two `at` events in
    // declaration order.
    let scenario = Scenario::builder()
        .name("ordering")
        .strategy(StrategyKind::Craid5Plus)
        .workload(WorkloadId::Webusers)
        .requests(2_000)
        .seed(9)
        .small_test()
        .pc_fraction(0.2)
        .disks(4)
        .expansion_sets(vec![4])
        .expand_at(at, 4)
        .expand_at(at, 2)
        .phase_at(early, "early marker")
        .build();
    let outcome = scenario.run().expect("valid scenario");
    let descriptions: Vec<&str> = outcome
        .applied_events
        .iter()
        .map(|e| e.description.as_str())
        .collect();
    assert_eq!(descriptions.len(), 3);
    assert!(descriptions[0].contains("early marker"));
    assert!(descriptions[1].contains("4 disks"));
    assert!(descriptions[2].contains("2 disks"));
    let added: Vec<usize> = outcome.expansions.iter().map(|e| e.added_disks).collect();
    assert_eq!(added, vec![4, 2]);
}

#[test]
fn campaign_sweep_covers_the_matrix_in_input_order() {
    let base = Scenario::builder()
        .name("sweep base")
        .workload(WorkloadId::Wdev)
        .requests(800)
        .seed(3)
        .small_test()
        .build();
    let outcomes = Campaign::sweep(
        &base,
        &[WorkloadId::Wdev, WorkloadId::Webusers],
        &[0.1, 0.3],
        &[StrategyKind::Raid5, StrategyKind::Craid5],
    )
    .run()
    .expect("sweep runs");
    assert_eq!(outcomes.len(), 8);
    // Workload-major, then fraction, then strategy.
    assert_eq!(outcomes[0].workload, WorkloadId::Wdev);
    assert_eq!(outcomes[0].pc_fraction, 0.1);
    assert_eq!(outcomes[0].strategy, StrategyKind::Raid5);
    assert_eq!(outcomes[3].pc_fraction, 0.3);
    assert_eq!(outcomes[3].strategy, StrategyKind::Craid5);
    assert_eq!(outcomes[4].workload, WorkloadId::Webusers);
    // Baselines never report CRAID stats; CRAID cells always do.
    for outcome in &outcomes {
        assert_eq!(
            outcome.report.craid.is_some(),
            outcome.strategy.is_craid(),
            "{}",
            outcome.name
        );
    }
}

#[test]
fn scenarios_with_broken_knobs_fail_instead_of_running_nonsense() {
    // A TOML document that omits pc_fraction must be rejected at parse
    // time, not run with a garbage cache size.
    let missing_fraction = r#"
        name = "no fraction"
        strategy = "CRAID-5"
        [workload]
        id = "wdev"
        requests = 100
        seed = 1
        [array]
        preset = "paper"
    "#;
    let err = Scenario::from_toml(missing_fraction).unwrap_err();
    assert!(err.to_string().contains("pc_fraction"), "{err}");

    // Programmatically-built nonsense is caught by validation at run time.
    let mut scenario = Scenario::builder().requests(100).build();
    scenario.array.pc_fraction = -0.2;
    assert!(matches!(
        scenario.run(),
        Err(craid::CraidError::InvalidConfig(_))
    ));
    scenario.array.pc_fraction = f64::NAN;
    assert!(scenario.run().is_err());
    scenario.array.pc_fraction = 0.1;
    scenario.workload.requests = 0;
    assert!(scenario.run().is_err());
}

#[test]
fn checked_in_example_scenario_parses_and_runs() {
    let text = include_str!("../examples/scenarios/upgrade_drill.toml");
    let mut scenario = Scenario::from_toml(text).expect("the example scenario parses");
    assert_eq!(scenario.strategy, StrategyKind::Craid5Plus);
    assert!(scenario.events.len() >= 3);
    // Scale it down and silence observers to keep the test fast and quiet.
    scenario.workload.requests = 1_000;
    scenario.observers.clear();
    let outcome = scenario.run().expect("the example scenario runs");
    assert_eq!(outcome.expansions.len(), 2);
    assert!(outcome.report.requests > 0);
}

/// 64-bit FNV-1a over `bytes`.
fn fnv1a64(bytes: &[u8]) -> u64 {
    bytes.iter().fold(0xcbf2_9ce4_8422_2325, |hash, &byte| {
        (hash ^ u64::from(byte)).wrapping_mul(0x0000_0100_0000_01b3)
    })
}

/// Golden report digests: every shipped drill, run untraced at full size,
/// must serialize to exactly the same JSON bytes as when these constants
/// were pinned. A refactor that claims "reports are byte-identical" is
/// checked here instead of by diffing `scenario_file --json` by hand. If a
/// change is *meant* to alter simulated results, re-pin the constants and
/// say why in the change description.
#[test]
fn shipped_drill_reports_match_golden_digests() {
    let drills = [
        (
            "failure_drill",
            include_str!("../examples/scenarios/failure_drill.toml"),
            0x3ead_5b57_228f_f875,
        ),
        (
            "online_upgrade_drill",
            include_str!("../examples/scenarios/online_upgrade_drill.toml"),
            0x8d81_28a3_e8bc_a52e,
        ),
        (
            "qos_drill",
            include_str!("../examples/scenarios/qos_drill.toml"),
            0x5935_39c8_8a18_8484,
        ),
        (
            "upgrade_drill",
            include_str!("../examples/scenarios/upgrade_drill.toml"),
            0x3029_849a_536f_8ce5,
        ),
    ];
    let mut mismatches = Vec::new();
    for (name, text, pinned) in drills {
        let mut scenario = Scenario::from_toml(text).expect("the shipped drill parses");
        // Observers only print; clearing them keeps the test quiet and
        // leaves the report untouched.
        scenario.observers.clear();
        let report = scenario.run().expect("the shipped drill runs").report;
        let digest = fnv1a64(report.to_json().as_bytes());
        if digest != pinned {
            mismatches.push(format!("{name}: {digest:#018x} (pinned {pinned:#018x})"));
        }
    }
    assert!(
        mismatches.is_empty(),
        "drill reports changed: {}",
        mismatches.join("; ")
    );
}

/// `run_on` with the scenario's own trace is exactly `run`: the shared-trace
/// entry point `Campaign::run` relies on adds nothing and loses nothing.
#[test]
fn run_on_a_shared_trace_matches_run() {
    let scenario = Scenario::builder()
        .name("shared trace")
        .strategy(StrategyKind::Craid5)
        .workload(WorkloadId::Wdev)
        .requests(1_000)
        .seed(11)
        .small_test()
        .pc_fraction(0.2)
        .expand_at(SimTime::from_secs(2.0), 4)
        .build();
    let direct = scenario.run().expect("runs");
    let shared = scenario
        .run_on(&scenario.trace(), &mut NullObserver)
        .expect("runs on the shared trace");
    assert_eq!(direct.report.to_json(), shared.report.to_json());
    assert_eq!(direct.expansions.len(), shared.expansions.len());
    assert_eq!(direct.applied_events.len(), shared.applied_events.len());
}

/// A campaign generates each distinct workload once and replays it for
/// every cell; each cell's report must match the same scenario run alone.
#[test]
fn campaign_cells_match_standalone_runs() {
    let base = Scenario::builder()
        .name("cells")
        .workload(WorkloadId::Webusers)
        .requests(700)
        .seed(5)
        .small_test()
        .build();
    let campaign = Campaign::sweep(
        &base,
        &[WorkloadId::Webusers],
        &[0.1],
        &[StrategyKind::Raid5, StrategyKind::Craid5],
    );
    let outcomes = campaign.run().expect("campaign runs");
    assert_eq!(outcomes.len(), campaign.len());
    for (scenario, outcome) in campaign.scenarios().iter().zip(&outcomes) {
        let alone = scenario.run().expect("runs alone");
        assert_eq!(
            alone.report.to_json(),
            outcome.report.to_json(),
            "{}",
            scenario.name
        );
    }
}

/// Counts every hook the engine fires on an extra observer.
#[derive(Default)]
struct HookCounts {
    started: bool,
    requests: u64,
    events: u64,
    finished_requests: Option<u64>,
}

impl craid::Observer for HookCounts {
    fn on_start(&mut self, _config: &craid::ArrayConfig, _trace: &craid_trace::Trace) {
        self.started = true;
    }
    fn on_event(&mut self, event: &craid::SimEvent<'_>) {
        match event {
            craid::SimEvent::Request { .. } => self.requests += 1,
            craid::SimEvent::Scheduled { .. } => self.events += 1,
            craid::SimEvent::Maintenance(_)
            | craid::SimEvent::Throttle { .. }
            | craid::SimEvent::Activation { .. } => {}
        }
    }
    fn on_finish(&mut self, report: &craid::SimulationReport) {
        self.finished_requests = Some(report.requests);
    }
}

/// An extra observer passed to `run_observed` sees the start, every
/// replayed request, every applied event and the final report.
#[test]
fn extra_observer_sees_every_request_event_and_the_report() {
    let scenario = Scenario::builder()
        .name("hooks")
        .strategy(StrategyKind::Craid5)
        .workload(WorkloadId::Wdev)
        .requests(900)
        .seed(2)
        .small_test()
        .pc_fraction(0.2)
        .expand_at(SimTime::from_secs(1.0), 4)
        .expand_at(SimTime::from_secs(2.0), 4)
        .build();
    let mut hooks = HookCounts::default();
    let outcome = scenario.run_observed(&mut hooks).expect("runs");
    assert!(hooks.started);
    assert_eq!(hooks.requests, outcome.report.requests);
    assert_eq!(hooks.events, outcome.applied_events.len() as u64);
    assert_eq!(hooks.events, 2);
    assert_eq!(hooks.finished_requests, Some(outcome.report.requests));
}
