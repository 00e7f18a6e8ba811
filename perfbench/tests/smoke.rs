//! The benchmark's own tests: a reduced-size run of every workload in both
//! modes, the correctness gate firing on perturbed reports, and
//! BENCHMARK.json naming exactly the declared workloads and the metrics
//! measured here.

use craid::NullObserver;
use craid_perfbench::driver::traced_replay;
use craid_perfbench::gate::{check_driver, check_repetition, report_digest};
use craid_perfbench::metrics::{END_TO_END, PER_LAYER};
use craid_perfbench::run::{run, Options, RunResult};
use craid_perfbench::spans::SpanRecorder;
use craid_perfbench::workloads::{load_scenario, Size, Workload};

fn smoke(workload: Workload, trace: bool) -> RunResult {
    let result = run(&Options {
        workload,
        seed: 14,
        seconds: 0.0,
        trace,
        size: Size::Smoke,
    })
    .expect("smoke run completes");
    assert_eq!(
        result.gate.failed,
        0,
        "{}: gate failures: {:?}",
        workload.name(),
        result.gate.failures
    );
    assert!(result.gate.attempted >= 2);
    let table: &[(&str, &str)] = if trace { &PER_LAYER } else { &END_TO_END };
    let metrics = result
        .metrics
        .select(table)
        .unwrap_or_else(|missing| panic!("{}: missing {missing:?}", workload.name()));
    for (m, (name, unit)) in metrics.iter().zip(table) {
        assert_eq!((m.name, m.unit), (*name, *unit));
        assert!(m.value.is_finite(), "{name} is not finite");
    }
    for (name, _) in END_TO_END {
        let value = result.metrics.get(name).expect("end-to-end metric set");
        assert!(value > 0.0, "{}: {name} must never be 0", workload.name());
    }
    result
}

#[test]
fn steady_wdev_smoke_reports_every_metric() {
    smoke(Workload::SteadyWdev, false);
    let traced = smoke(Workload::SteadyWdev, true);
    // The span ring is written out with name, start, end, parent and the
    // record id its spans share.
    let spans = traced.spans_jsonl;
    assert_eq!(spans.lines().count(), craid_perfbench::spans::RING_CAPACITY);
    assert!(spans.contains("\"name\":\"array.submit\""));
    assert!(spans.contains("\"parent\":\"sim.record\""));
    assert!(spans.contains("\"name\":\"sim.finish\",\"start_ns\""));
}

#[test]
fn upgrade_qos_smoke_reports_every_metric() {
    smoke(Workload::UpgradeQos, false);
    smoke(Workload::UpgradeQos, true);
}

#[test]
fn steady_proj_smoke_reports_every_metric() {
    smoke(Workload::SteadyProj, false);
    smoke(Workload::SteadyProj, true);
}

#[test]
fn campaign_sweep_smoke_reports_every_metric() {
    smoke(Workload::CampaignSweep, true);
}

#[test]
fn maintenance_layers_run_only_on_upgrade_qos() {
    let traced = |workload| {
        run(&Options {
            workload,
            seed: 14,
            seconds: 0.0,
            trace: true,
            size: Size::Smoke,
        })
        .expect("smoke run completes")
        .metrics
    };
    let upgrade = traced(Workload::UpgradeQos);
    for name in ["qos.evaluate_s", "qos.observe_s", "background.pump_s"] {
        assert!(
            upgrade.get(name).unwrap() > 0.0,
            "{name} is zero on upgrade_qos"
        );
    }
    for name in [
        "qos.decisions",
        "qos.retargets",
        "background.pumps",
        "background.blocks",
    ] {
        assert!(
            upgrade.get(name).unwrap() > 0.0,
            "{name} is zero on upgrade_qos"
        );
    }
    let steady = traced(Workload::SteadyWdev);
    for name in [
        "qos.decisions",
        "qos.retargets",
        "background.pumps",
        "background.blocks",
    ] {
        assert_eq!(
            steady.get(name),
            Some(0.0),
            "{name} is not zero on steady_wdev"
        );
    }
    assert!(steady.get("bench.span_coverage_pct").unwrap() >= 90.0);
}

#[test]
fn gate_fires_on_a_perturbed_report() {
    let scenario = load_scenario(Workload::UpgradeQos, 3, Size::Smoke).expect("scenario loads");
    let trace = scenario.trace();
    let report = scenario
        .run_on(&trace, &mut NullObserver)
        .expect("replay succeeds")
        .report;
    let driven = traced_replay(&scenario, &trace, &mut SpanRecorder::new(), false)
        .expect("traced replay succeeds");
    assert!(check_driver(&driven.outputs, &report).is_empty());
    assert!(check_repetition(report_digest(&report), &report).is_empty());

    let mut bytes = report.clone();
    bytes.device_bytes[0] += 1;
    let problems = check_driver(&driven.outputs, &bytes);
    assert!(
        problems.iter().any(|p| p.starts_with("device_bytes")),
        "{problems:?}"
    );
    assert!(
        problems.iter().any(|p| p.starts_with("digest")),
        "{problems:?}"
    );
    assert!(!check_repetition(report_digest(&report), &bytes).is_empty());

    let mut qos = report.clone();
    qos.qos.decisions += 1;
    assert!(check_driver(&driven.outputs, &qos)
        .iter()
        .any(|p| p.starts_with("qos")));

    let mut cv = report.clone();
    cv.load_balance.overall_cv = f64::from_bits(cv.load_balance.overall_cv.to_bits() + 1);
    assert!(check_driver(&driven.outputs, &cv)
        .iter()
        .any(|p| p.starts_with("overall_cv")));

    let mut fault = report;
    fault.fault.degraded_reads += 1;
    assert!(check_driver(&driven.outputs, &fault)
        .iter()
        .any(|p| p.starts_with("fault")));
}

#[test]
fn benchmark_json_names_these_workloads_and_metrics() {
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
    let text = std::fs::read_to_string(path).expect("BENCHMARK.json beside the benchmark");
    for workload in Workload::ALL {
        assert_eq!(
            text.contains(&format!("\"name\": \"{}\"", workload.name())),
            Workload::DECLARED.contains(&workload),
            "BENCHMARK.json and Workload::DECLARED disagree on {}",
            workload.name()
        );
    }
    assert_eq!(text.matches("\"why\": ").count(), Workload::DECLARED.len());
    for (name, unit) in END_TO_END.iter().chain(PER_LAYER.iter()) {
        assert!(
            text.contains(&format!("\"name\": \"{name}\", \"unit\": \"{unit}\"")),
            "BENCHMARK.json lacks {name} in {unit}"
        );
    }
    let declared = text.matches("\"unit\": ").count();
    assert_eq!(declared, END_TO_END.len() + PER_LAYER.len());
}
