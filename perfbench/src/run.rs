//! One benchmark run of one workload: set-up, untraced repetitions, the
//! traced run, and (with `--trace 1`) the tracer run and the isolated layer
//! replays.

use std::sync::atomic::{AtomicUsize, Ordering};
use std::time::Instant;

use craid::array::build_array;
use craid::{Campaign, CraidError, NullObserver, Scenario, ScenarioOutcome, SimulationReport};
use craid_trace::Trace;

use crate::driver::{traced_replay, Counts, TracedRun};
use crate::gate::{check_driver, check_repetition, fnv1a, report_digest, Gate};
use crate::isolated::{replay_devices, replay_monitor, replay_policy, MonitorReplay};
use crate::isolated::{DeviceReplay, PolicyReplay};
use crate::metrics::MetricSet;
use crate::spans::{SpanKind, SpanRecorder};
use crate::workloads::{campaign_scenarios, load_scenario, Size, Workload};

/// Set-up runs at least this many times per run; `setup_s` is the median.
const SETUP_MIN_REPS: usize = 3;
/// Set-up keeps repeating until this many host seconds have passed (or
/// [`SETUP_MAX_REPS`] ran), so that a set-up of a few milliseconds is
/// sampled often enough for a steady median.
const SETUP_MIN_SECS: f64 = 1.0;
/// Upper limit on set-up repetitions per run.
const SETUP_MAX_REPS: usize = 50;
/// Workers `campaign_sweep` runs `Campaign::run` with.
pub const CAMPAIGN_WORKERS: usize = 2;
/// Ring capacity of the tracer run.
const TRACER_CAPACITY: usize = 1 << 16;

/// What one invocation measures.
#[derive(Debug, Clone)]
pub struct Options {
    /// The workload.
    pub workload: Workload,
    /// Seed of the generated traces.
    pub seed: u64,
    /// Host seconds the untraced repetitions run for (at least one runs).
    pub seconds: f64,
    /// `false`: end-to-end metrics; `true`: per-layer metrics.
    pub trace: bool,
    /// Input size.
    pub size: Size,
}

/// The outcome of one invocation.
#[derive(Debug, Clone)]
pub struct RunResult {
    /// The correctness gate's tally.
    pub gate: Gate,
    /// Every metric measured (end-to-end always; per-layer with `trace`).
    pub metrics: MetricSet,
    /// Human-readable notes printed before the metrics.
    pub notes: Vec<String>,
    /// The traced run's most recent spans as JSON lines.
    pub spans_jsonl: String,
}

/// Runs one workload.
///
/// # Errors
///
/// Returns the engine's error when set-up or a replay fails; the caller
/// reports it as a failed run.
pub fn run(opts: &Options) -> Result<RunResult, CraidError> {
    if opts.workload.is_replay() {
        run_replay(opts)
    } else {
        run_campaign(opts)
    }
}

/// Median of a non-empty sample.
fn median(values: &[f64]) -> f64 {
    let mut sorted = values.to_vec();
    sorted.sort_by(f64::total_cmp);
    let n = sorted.len();
    assert!(n > 0, "median of an empty sample");
    if n % 2 == 1 {
        sorted[n / 2]
    } else {
        (sorted[n / 2 - 1] + sorted[n / 2]) / 2.0
    }
}

/// The value at quantile `q` of sorted nanosecond samples, in microseconds
/// (nearest rank).
fn quantile_us(sorted_ns: &[u64], q: f64) -> f64 {
    if sorted_ns.is_empty() {
        return 0.0;
    }
    let rank = ((q * sorted_ns.len() as f64).ceil() as usize).clamp(1, sorted_ns.len());
    sorted_ns[rank - 1] as f64 / 1_000.0
}

/// The process's peak resident set (`VmHWM`), in MiB. Read after the first
/// untraced repetition, so that the figure does not depend on how many
/// repetitions fit in the run (later ones can only raise the mark through
/// allocator fragmentation).
fn peak_rss_mib() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    status
        .lines()
        .find_map(|line| line.strip_prefix("VmHWM:"))
        .and_then(|rest| {
            rest.trim()
                .trim_end_matches("kB")
                .trim()
                .parse::<f64>()
                .ok()
        })
        .map_or(0.0, |kib| kib / 1024.0)
}

fn secs_since(started: Instant) -> f64 {
    started.elapsed().as_secs_f64()
}

/// Repeats `body` (at least once) while another repetition, as long as
/// the longest so far, still ends within `seconds`; returns each
/// repetition's host seconds.
fn repeat_for<E>(
    seconds: f64,
    mut body: impl FnMut(usize) -> Result<(), E>,
) -> Result<Vec<f64>, E> {
    let started = Instant::now();
    let mut reps: Vec<f64> = Vec::new();
    let mut longest = 0.0f64;
    while reps.is_empty() || secs_since(started) + longest <= seconds {
        let rep = Instant::now();
        body(reps.len())?;
        reps.push(secs_since(rep));
        longest = longest.max(secs_since(rep));
    }
    Ok(reps)
}

/// Repeats a set-up `body` at least [`SETUP_MIN_REPS`] times and until
/// [`SETUP_MIN_SECS`] have passed; returns the last repetition's result and
/// every repetition's host seconds.
fn repeat_setup<T, E>(mut body: impl FnMut() -> Result<T, E>) -> Result<(T, Vec<f64>), E> {
    let started = Instant::now();
    let mut secs = Vec::new();
    loop {
        let rep = Instant::now();
        let out = body()?;
        secs.push(secs_since(rep));
        if secs.len() >= SETUP_MIN_REPS
            && (secs_since(started) >= SETUP_MIN_SECS || secs.len() >= SETUP_MAX_REPS)
        {
            return Ok((out, secs));
        }
    }
}

/// Layer results of a traced run, summed over the scenarios it replayed.
#[derive(Default)]
struct Layers {
    counts: Counts,
    replay_secs: f64,
    policy: PolicyReplay,
    monitor: MonitorReplay,
    devices: DeviceReplay,
}

impl Layers {
    fn absorb(&mut self, other: &Layers) {
        self.counts.absorb(&other.counts);
        self.replay_secs += other.replay_secs;
        self.policy.absorb(&other.policy);
        self.monitor.absorb(&other.monitor);
        self.devices.absorb(&other.devices);
    }
}

/// The inputs of the isolated layer replays, kept from one traced run.
struct Isolation {
    config: craid::ArrayConfig,
    capture: crate::driver::Capture,
    monitor: Option<craid::monitor::MonitorStats>,
    pc_capacity: u64,
    event_free: bool,
}

/// One traced replay checked against the engine's report; with `capture`
/// it also keeps the inputs of the isolated layer replays.
fn traced_checked(
    scenario: &Scenario,
    trace: &Trace,
    report: &SimulationReport,
    spans: &mut SpanRecorder,
    capture: bool,
) -> Result<(Layers, Vec<String>, Option<Isolation>), CraidError> {
    let run: TracedRun = traced_replay(scenario, trace, spans, capture)?;
    let problems = check_driver(&run.outputs, report);
    let layers = Layers {
        counts: run.counts,
        replay_secs: run.replay_secs,
        ..Layers::default()
    };
    let isolation = run.capture.map(|capture| Isolation {
        config: run.config,
        capture,
        monitor: run.monitor,
        pc_capacity: run.outputs.craid.map_or(0, |c| c.pc_capacity_blocks),
        event_free: scenario.events.is_empty(),
    });
    Ok((layers, problems, isolation))
}

/// Runs the isolated layer replays into `layers`. With no migration in
/// flight the monitor saw exactly the mapped stream and the devices exactly
/// the captured I/O, so on event-free scenarios the isolated counters must
/// equal the engine's; disagreements are returned as gate findings.
fn isolate(iso: &Isolation, layers: &mut Layers) -> Result<Vec<String>, CraidError> {
    let mut problems = Vec::new();
    if let Some(stats) = iso.monitor {
        layers.policy = replay_policy(&iso.config, iso.pc_capacity, &iso.capture);
        layers.monitor = replay_monitor(&iso.config, &iso.capture)?;
        if iso.event_free {
            if layers.monitor.stats != stats {
                problems.push(format!(
                    "isolated monitor {:?} != engine monitor {stats:?}",
                    layers.monitor.stats
                ));
            }
            let hits = stats.read_hits + stats.write_hits;
            let evictions = stats.read_evictions + stats.write_evictions;
            if (layers.policy.hits, layers.policy.evictions) != (hits, evictions) {
                problems.push(format!(
                    "isolated policy hits/evictions {}/{} != engine {hits}/{evictions}",
                    layers.policy.hits, layers.policy.evictions
                ));
            }
        }
    }
    layers.devices = replay_devices(&iso.config, &iso.capture)?;
    if iso.event_free && layers.devices.mismatches > 0 {
        problems.push(format!(
            "{} of {} replayed device I/Os completed differently",
            layers.devices.mismatches, layers.devices.ios
        ));
    }
    Ok(problems)
}

fn run_replay(opts: &Options) -> Result<RunResult, CraidError> {
    let mut gate = Gate::default();
    let mut metrics = MetricSet::new();
    let mut notes = Vec::new();

    // Set-up, several times: scenario load, trace generation, array build.
    let mut gen = Vec::new();
    let ((scenario, trace), setup) = repeat_setup(|| -> Result<_, CraidError> {
        let scenario = load_scenario(opts.workload, opts.seed, opts.size)?;
        let gen_started = Instant::now();
        let trace = scenario.trace();
        gen.push(secs_since(gen_started));
        let array = build_array(&scenario.array_config(&trace))?;
        std::hint::black_box(&array);
        Ok((scenario, trace))
    })?;
    notes.push(format!(
        "{}: {} records, footprint {} blocks, {} events, seed {}; the cache partition starts empty (cold)",
        opts.workload.name(),
        trace.len(),
        trace.footprint_blocks(),
        scenario.events.len(),
        opts.seed
    ));

    // Untraced, single-threaded repetitions of the engine's own replay.
    let mut first: Option<(u64, SimulationReport)> = None;
    let mut peak_rss = 0.0;
    let reps = repeat_for(opts.seconds, |i| -> Result<(), CraidError> {
        let outcome = scenario.run_on(&trace, &mut NullObserver)?;
        let digest = report_digest(&outcome.report);
        match &first {
            None => {
                peak_rss = peak_rss_mib();
                gate.record("untraced replay 0", Vec::new());
                first = Some((digest, outcome.report));
            }
            Some((d, _)) => gate.record(
                &format!("untraced replay {i}"),
                check_repetition(*d, &outcome.report),
            ),
        }
        Ok(())
    })?;
    let (first_digest, report) = first.expect("at least one repetition ran");
    let replay = median(&reps);
    metrics.set("peak_rss_mib", peak_rss);

    // The traced run, checked against the untraced report.
    let mut spans = SpanRecorder::new();
    let (mut layers, mut problems, isolation) =
        traced_checked(&scenario, &trace, &report, &mut spans, opts.trace)?;
    if let Some(iso) = isolation {
        problems.extend(isolate(&iso, &mut layers)?);
    }
    gate.record("traced replay", problems);

    let requests = report.requests as f64;
    metrics.set("records_per_s", requests / replay);
    metrics.set(
        "device_ios_per_s",
        layers.counts.device_ios() as f64 / replay,
    );
    metrics.set("setup_s", median(&setup));
    metrics.set("scenarios_per_s", 1.0 / replay);
    notes.push(format!(
        "{} untraced repetitions, median {:.3} s",
        reps.len(),
        replay
    ));

    if opts.trace {
        // The engine's own tracer around the same replay.
        let ((outcome, obs_secs), obs_trace) =
            craid_obs::with_tracer(craid_obs::Tracer::with_capacity(TRACER_CAPACITY), || {
                let started = Instant::now();
                let outcome = scenario.run_on(&trace, &mut NullObserver);
                (outcome, secs_since(started))
            });
        let outcome = outcome?;
        gate.record(
            "tracer replay",
            check_repetition(first_digest, &outcome.report),
        );
        metrics.set("obs.traced_records_per_s", requests / obs_secs);
        metrics.set("obs.overhead_pct", (obs_secs / replay - 1.0) * 100.0);
        metrics.set("obs.events_emitted", obs_trace.total_emitted() as f64);
        metrics.set("campaign.worker_busy_frac", 0.0);
        metrics.set("campaign.setup_s", 0.0);
        metrics.set("trace.gen_s", median(&gen));
        set_trace_shape(&mut metrics, &[&trace]);
        set_layer_metrics(&mut metrics, &spans, &layers);
        set_model_metrics(&mut metrics, &[&report]);
        metrics.set(
            "bench.span_overhead_pct",
            (layers.replay_secs / replay - 1.0) * 100.0,
        );
    }
    Ok(RunResult {
        gate,
        metrics,
        notes,
        spans_jsonl: spans.to_jsonl(),
    })
}

fn set_trace_shape(metrics: &mut MetricSet, traces: &[&Trace]) {
    metrics.set("trace.records", traces.iter().map(|t| t.len() as f64).sum());
    metrics.set(
        "trace.footprint_blocks",
        traces.iter().map(|t| t.footprint_blocks() as f64).sum(),
    );
}

fn ratio(num: u64, den: u64) -> f64 {
    if den == 0 {
        0.0
    } else {
        num as f64 / den as f64
    }
}

fn per_op_ns(secs: f64, ops: u64) -> f64 {
    if ops == 0 {
        0.0
    } else {
        secs * 1e9 / ops as f64
    }
}

fn set_layer_metrics(metrics: &mut MetricSet, spans: &SpanRecorder, layers: &Layers) {
    let c = &layers.counts;
    let mut record_ns = spans.record_ns.clone();
    record_ns.sort_unstable();
    metrics.set("sim.map_s", spans.self_secs(SpanKind::Map));
    metrics.set("sim.map_ranges", c.map_ranges as f64);
    metrics.set("sim.events_s", spans.self_secs(SpanKind::Events));
    metrics.set("sim.record_us_p50", quantile_us(&record_ns, 0.5));
    metrics.set("sim.record_us_p999", quantile_us(&record_ns, 0.999));
    metrics.set("sim.record_samples", record_ns.len() as f64);
    metrics.set(
        "sim.loop_self_s",
        spans.self_secs(SpanKind::Record)
            + spans.self_secs(SpanKind::Drain)
            + spans.self_secs(SpanKind::Finish),
    );
    metrics.set("array.submit_s", spans.self_secs(SpanKind::Submit));
    metrics.set("array.submits", c.submits as f64);
    metrics.set(
        "array.device_ios_per_submit",
        ratio(c.client_ios, c.submits),
    );
    metrics.set(
        "policy.access_ns",
        per_op_ns(layers.policy.secs, layers.policy.accesses),
    );
    metrics.set("policy.accesses", layers.policy.accesses as f64);
    metrics.set(
        "policy.hit_ratio",
        ratio(layers.policy.hits, layers.policy.accesses),
    );
    metrics.set("policy.evictions", layers.policy.evictions as f64);
    metrics.set(
        "monitor.access_ns",
        per_op_ns(layers.monitor.secs, layers.monitor.accesses),
    );
    metrics.set(
        "monitor.dirty_evictions",
        layers.monitor.stats.dirty_evictions as f64,
    );
    metrics.set(
        "devices.submit_ns",
        per_op_ns(layers.devices.secs, layers.devices.ios),
    );
    metrics.set("devices.ios", layers.devices.ios as f64);
    metrics.set(
        "devices.internal_cache_hit_ratio",
        ratio(layers.devices.cache_hits, layers.devices.ios),
    );
    metrics.set(
        "devices.replay_mismatches",
        layers.devices.mismatches as f64,
    );
    metrics.set(
        "background.pump_s",
        spans.self_secs(SpanKind::Pump)
            + spans.self_secs(SpanKind::DueCheck)
            + spans.self_secs(SpanKind::Activations)
            + spans.self_secs(SpanKind::Throttle),
    );
    metrics.set(
        "background.due_check_s",
        spans.self_secs(SpanKind::DueCheck),
    );
    metrics.set("background.pumps", c.pumps as f64);
    metrics.set("background.due_checks", c.due_checks as f64);
    metrics.set("background.blocks", c.background_blocks as f64);
    metrics.set(
        "background.useful_pump_ratio",
        ratio(c.useful_pumps, c.pumps),
    );
    metrics.set("qos.evaluate_s", spans.self_secs(SpanKind::QosEvaluate));
    metrics.set(
        "qos.observe_s",
        spans.self_secs(SpanKind::QosObserve) + spans.self_secs(SpanKind::QosNote),
    );
    metrics.set("qos.decisions", c.qos_decisions as f64);
    metrics.set("qos.retargets", c.qos_retargets as f64);
    metrics.set("metrics.fold_s", spans.self_secs(SpanKind::MetricsFold));
    metrics.set("metrics.device_events", c.metrics_device_events as f64);
    metrics.set("model.device_ios", c.device_ios() as f64);
    metrics.set(
        "bench.span_coverage_pct",
        if layers.replay_secs > 0.0 {
            spans.root_secs() / layers.replay_secs * 100.0
        } else {
            0.0
        },
    );
}

/// Simulated outputs: single reports directly, sweeps as means over cells
/// (hit ratio over the CRAID cells) and sums of the event counters.
fn set_model_metrics(metrics: &mut MetricSet, reports: &[&SimulationReport]) {
    let n = reports.len().max(1) as f64;
    let craid: Vec<f64> = reports
        .iter()
        .filter_map(|r| r.craid.map(|c| c.hit_ratio))
        .collect();
    metrics.set(
        "model.hit_ratio",
        if craid.is_empty() {
            0.0
        } else {
            craid.iter().sum::<f64>() / craid.len() as f64
        },
    );
    metrics.set(
        "model.read_mean_ms",
        reports.iter().map(|r| r.read.mean_ms).sum::<f64>() / n,
    );
    metrics.set(
        "model.write_mean_ms",
        reports.iter().map(|r| r.write.mean_ms).sum::<f64>() / n,
    );
    metrics.set(
        "model.degraded_reads",
        reports.iter().map(|r| r.fault.degraded_reads as f64).sum(),
    );
    metrics.set(
        "model.mttr_s",
        reports.iter().map(|r| r.fault.mttr_secs()).sum::<f64>() / n,
    );
    metrics.set(
        "model.upgrade_window_s",
        reports
            .iter()
            .map(|r| r.migration.mean_window_secs())
            .sum::<f64>()
            / n,
    );
    metrics.set(
        "model.slo_violation_s",
        reports.iter().map(|r| r.qos.slo_violation_secs).sum(),
    );
    metrics.set(
        "model.qos_floor_s",
        reports.iter().map(|r| r.qos.time_at_floor_secs).sum(),
    );
    metrics.set(
        "model.qos_ceiling_s",
        reports.iter().map(|r| r.qos.time_at_ceiling_secs).sum(),
    );
}

/// Runs `job` over `items` on `workers` threads that claim the next item
/// from a shared counter, as `Campaign::run` dispatches. Returns the
/// results in item order, each worker's span recorder and busy seconds,
/// and the dispatch wall time.
fn dispatch<T: Send>(
    items: usize,
    workers: usize,
    job: impl Fn(usize, &mut SpanRecorder) -> T + Sync,
) -> (Vec<T>, Vec<(SpanRecorder, f64)>, f64) {
    let next = AtomicUsize::new(0);
    let started = Instant::now();
    let (results, recorders) = std::thread::scope(|scope| {
        let handles: Vec<_> = (0..workers)
            .map(|_| {
                let (next, job) = (&next, &job);
                scope.spawn(move || {
                    let mut spans = SpanRecorder::new();
                    let mut busy = 0.0;
                    let mut done = Vec::new();
                    loop {
                        let index = next.fetch_add(1, Ordering::Relaxed);
                        if index >= items {
                            break;
                        }
                        let t = Instant::now();
                        done.push((index, job(index, &mut spans)));
                        busy += secs_since(t);
                    }
                    (done, (spans, busy))
                })
            })
            .collect();
        let mut results: Vec<(usize, T)> = Vec::with_capacity(items);
        let mut recorders = Vec::with_capacity(workers);
        for handle in handles {
            let (done, recorder) = handle.join().expect("benchmark worker panicked");
            results.extend(done);
            recorders.push(recorder);
        }
        (results, recorders)
    });
    let wall = secs_since(started);
    let mut results = results;
    results.sort_by_key(|(i, _)| *i);
    (
        results.into_iter().map(|(_, r)| r).collect(),
        recorders,
        wall,
    )
}

fn campaign_digest(outcomes: &[ScenarioOutcome]) -> Vec<u64> {
    outcomes.iter().map(|o| report_digest(&o.report)).collect()
}

/// The distinct traces of a scenario list, generated once each in first-use
/// order (as `Campaign::run` does), and each scenario's index into them.
fn distinct_traces(scenarios: &[Scenario]) -> (Vec<Trace>, Vec<usize>) {
    let mut sources = Vec::new();
    let mut traces = Vec::new();
    let index = scenarios
        .iter()
        .map(|s| {
            sources
                .iter()
                .position(|src| *src == s.workload)
                .unwrap_or_else(|| {
                    sources.push(s.workload.clone());
                    traces.push(s.trace());
                    traces.len() - 1
                })
        })
        .collect();
    (traces, index)
}

fn run_campaign(opts: &Options) -> Result<RunResult, CraidError> {
    let mut gate = Gate::default();
    let mut metrics = MetricSet::new();
    let mut notes = Vec::new();

    // Set-up, several times: scenario load and sweep construction, trace
    // generation, and every scenario's array build.
    let mut gen = Vec::new();
    let ((scenarios, traces, index), setup) = repeat_setup(|| -> Result<_, CraidError> {
        let scenarios = campaign_scenarios(opts.seed, opts.size)?;
        let gen_started = Instant::now();
        let (traces, index) = distinct_traces(&scenarios);
        gen.push(secs_since(gen_started));
        for (scenario, &t) in scenarios.iter().zip(&index) {
            let array = build_array(&scenario.array_config(&traces[t]))?;
            std::hint::black_box(&array);
        }
        Ok((scenarios, traces, index))
    })?;
    notes.push(format!(
        "campaign_sweep: {} scenarios over {} traces ({} records), {} workers, seed {}; every cache partition starts empty (cold)",
        scenarios.len(),
        traces.len(),
        traces.iter().map(Trace::len).sum::<usize>(),
        CAMPAIGN_WORKERS,
        opts.seed
    ));

    // Untraced repetitions of Campaign::run.
    let campaign = Campaign::new(scenarios.clone()).with_threads(CAMPAIGN_WORKERS);
    let mut first: Option<(Vec<u64>, Vec<ScenarioOutcome>)> = None;
    let mut peak_rss = 0.0;
    let reps = repeat_for(opts.seconds, |i| -> Result<(), CraidError> {
        let outcomes = campaign.run()?;
        let digests = campaign_digest(&outcomes);
        match &first {
            None => {
                peak_rss = peak_rss_mib();
                gate.record("campaign run 0", Vec::new());
                first = Some((digests, outcomes));
            }
            Some((d, _)) => {
                let differing = d.iter().zip(&digests).filter(|(a, b)| a != b).count();
                gate.record(
                    &format!("campaign run {i}"),
                    if differing == 0 {
                        Vec::new()
                    } else {
                        vec![format!("{differing} scenario reports differ from run 0")]
                    },
                );
            }
        }
        Ok(())
    })?;
    let (first_digests, outcomes) = first.expect("at least one repetition ran");
    let wall = median(&reps);
    metrics.set("peak_rss_mib", peak_rss);

    // The traced mirror: the same dispatch, each scenario through the
    // benchmark's traced driver and checked against Campaign::run's report.
    let gen_started = Instant::now();
    let (mirror_traces, mirror_index) = distinct_traces(&scenarios);
    let mirror_gen = secs_since(gen_started);
    let (results, recorders, mirror_wall) =
        dispatch(scenarios.len(), CAMPAIGN_WORKERS, |i, spans| {
            traced_checked(
                &scenarios[i],
                &mirror_traces[mirror_index[i]],
                &outcomes[i].report,
                spans,
                false,
            )
        });
    let mut layers = Layers::default();
    for (i, result) in results.into_iter().enumerate() {
        let (scenario_layers, problems, _) = result?;
        gate.record(&format!("traced {}", scenarios[i].name), problems);
        layers.absorb(&scenario_layers);
    }
    if opts.trace {
        // The isolated layer replays need each scenario's captured inputs;
        // a second, untimed traced pass captures them one scenario at a
        // time so that the sweep's captures never sit in memory together.
        let (isolated, _, _) = dispatch(scenarios.len(), CAMPAIGN_WORKERS, |i, spans| {
            let (mut scenario_layers, mut problems, isolation) = traced_checked(
                &scenarios[i],
                &mirror_traces[mirror_index[i]],
                &outcomes[i].report,
                spans,
                true,
            )?;
            if let Some(iso) = isolation {
                problems.extend(isolate(&iso, &mut scenario_layers)?);
            }
            Ok::<_, CraidError>((scenario_layers, problems))
        });
        for (i, result) in isolated.into_iter().enumerate() {
            let (scenario_layers, problems) = result?;
            gate.record(&format!("isolated {}", scenarios[i].name), problems);
            layers.policy.absorb(&scenario_layers.policy);
            layers.monitor.absorb(&scenario_layers.monitor);
            layers.devices.absorb(&scenario_layers.devices);
        }
    }
    let mut spans = SpanRecorder::new();
    let mut busy = 0.0;
    for (recorder, worker_busy) in &recorders {
        spans.absorb(recorder);
        busy += worker_busy;
    }

    let requests: u64 = outcomes.iter().map(|o| o.report.requests).sum();
    metrics.set("records_per_s", requests as f64 / wall);
    metrics.set("device_ios_per_s", layers.counts.device_ios() as f64 / wall);
    metrics.set("setup_s", median(&setup));
    metrics.set("scenarios_per_s", scenarios.len() as f64 / wall);
    notes.push(format!(
        "{} untraced Campaign::run repetitions, median {:.3} s",
        reps.len(),
        wall
    ));

    if opts.trace {
        let (obs, _, obs_wall) = dispatch(scenarios.len(), CAMPAIGN_WORKERS, |i, _| {
            let (outcome, obs_trace) =
                craid_obs::with_tracer(craid_obs::Tracer::with_capacity(TRACER_CAPACITY), || {
                    scenarios[i].run_on(&traces[index[i]], &mut NullObserver)
                });
            (outcome, obs_trace.total_emitted())
        });
        let mut emitted = 0u64;
        let mut differing = Vec::new();
        for (i, (outcome, events)) in obs.into_iter().enumerate() {
            let outcome = outcome?;
            emitted += events;
            if report_digest(&outcome.report) != first_digests[i] {
                differing.push(scenarios[i].name.clone());
            }
        }
        gate.record(
            "tracer campaign",
            if differing.is_empty() {
                Vec::new()
            } else {
                vec![format!("tracer reports differ: {}", differing.join(", "))]
            },
        );
        metrics.set("obs.traced_records_per_s", requests as f64 / obs_wall);
        metrics.set("obs.overhead_pct", (obs_wall / wall - 1.0) * 100.0);
        metrics.set("obs.events_emitted", emitted as f64);
        metrics.set(
            "campaign.worker_busy_frac",
            busy / (CAMPAIGN_WORKERS as f64 * mirror_wall),
        );
        metrics.set("campaign.setup_s", mirror_gen);
        metrics.set("trace.gen_s", median(&gen));
        set_trace_shape(&mut metrics, &traces.iter().collect::<Vec<_>>());
        set_layer_metrics(&mut metrics, &spans, &layers);
        let reports: Vec<&SimulationReport> = outcomes.iter().map(|o| &o.report).collect();
        set_model_metrics(&mut metrics, &reports);
        metrics.set(
            "bench.span_overhead_pct",
            (mirror_wall / wall - 1.0) * 100.0,
        );
    }
    let fingerprint = fnv1a(
        first_digests
            .iter()
            .flat_map(|d| d.to_le_bytes())
            .collect::<Vec<u8>>()
            .as_slice(),
    );
    notes.push(format!("campaign report fingerprint {fingerprint:016x}"));
    Ok(RunResult {
        gate,
        metrics,
        notes,
        spans_jsonl: recorders
            .first()
            .map(|(r, _)| r.to_jsonl())
            .unwrap_or_default(),
    })
}
