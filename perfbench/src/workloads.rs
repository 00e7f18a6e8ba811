//! The four named workloads and the scenarios they replay.
//!
//! The replay workloads are declared as scenario files under
//! `scenarios/`; loading one (parse plus static analysis) is part of the
//! measured set-up. The workload seed always comes from the benchmark's
//! `--seed` argument, and the engine receives only the trace generated from
//! it.

use craid::{Campaign, CraidError, Scenario, ScheduledEvent, StrategyKind};
use craid_simkit::SimTime;
use craid_trace::WorkloadId;

/// One benchmark workload.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    /// wdev on the paper's CRAID-5 array, no events: the request path.
    SteadyWdev,
    /// `SteadyWdev` plus a paced upgrade, a failure and rebuild, and QoS.
    UpgradeQos,
    /// proj on the same array: hot-state tables beyond the host's caches.
    SteadyProj,
    /// The Figure-4 sweep run by `Campaign::run` on two workers.
    CampaignSweep,
}

impl Workload {
    /// Every workload, in the order the benchmark runs them.
    pub const ALL: [Workload; 4] = [
        Workload::SteadyWdev,
        Workload::UpgradeQos,
        Workload::SteadyProj,
        Workload::CampaignSweep,
    ];

    /// The workloads `BENCHMARK.json` declares. `steady_wdev` and
    /// `steady_proj` run on request (and under `--workload all`) but are
    /// left out, so that a check's twenty runs of each declared workload
    /// can last 45 s (several repetitions of the longest replay) within the
    /// time a check may take. These two still measure every layer.
    pub const DECLARED: [Workload; 2] = [Workload::UpgradeQos, Workload::CampaignSweep];

    /// The workload's name on the command line and in BENCHMARK.json.
    pub fn name(self) -> &'static str {
        match self {
            Workload::SteadyWdev => "steady_wdev",
            Workload::UpgradeQos => "upgrade_qos",
            Workload::SteadyProj => "steady_proj",
            Workload::CampaignSweep => "campaign_sweep",
        }
    }

    /// Parses a workload name.
    pub fn parse(name: &str) -> Option<Workload> {
        Workload::ALL.into_iter().find(|w| w.name() == name)
    }

    /// Whether the workload replays one scenario (as opposed to a sweep).
    pub fn is_replay(self) -> bool {
        self != Workload::CampaignSweep
    }

    fn scenario_file(self) -> &'static str {
        match self {
            Workload::SteadyWdev => include_str!("../scenarios/steady_wdev.toml"),
            Workload::UpgradeQos => include_str!("../scenarios/upgrade_qos.toml"),
            Workload::SteadyProj => include_str!("../scenarios/steady_proj.toml"),
            Workload::CampaignSweep => include_str!("../scenarios/campaign_base.toml"),
        }
    }
}

/// How large the generated inputs are.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Size {
    /// The sizes the scenario files declare (the benchmark proper).
    Full,
    /// Reduced inputs for the benchmark's own tests.
    Smoke,
}

/// Requests per replay workload at [`Size::Smoke`].
const SMOKE_REQUESTS: u64 = 20_000;
/// Requests per campaign scenario at [`Size::Smoke`].
const SMOKE_CAMPAIGN_REQUESTS: u64 = 500;

/// Cache-partition fractions of the Figure-4 sweep.
pub const PC_SWEEP: [f64; 4] = [0.05, 0.1, 0.2, 0.4];
/// The strategies whose behaviour depends on the cache partition.
pub const CRAID_STRATEGIES: [StrategyKind; 4] = [
    StrategyKind::Craid5,
    StrategyKind::Craid5Plus,
    StrategyKind::Craid5Ssd,
    StrategyKind::Craid5PlusSsd,
];
/// The partition-independent baselines, run at the first fraction only.
pub const BASELINES: [StrategyKind; 2] = [StrategyKind::Raid5, StrategyKind::Raid5Plus];

/// Loads the workload's scenario file (parse plus static analysis),
/// applies the seed and, for reduced sizes, shrinks the trace and moves the
/// scheduled events to the same fractions of the shorter trace.
///
/// # Errors
///
/// Returns [`CraidError::Parse`] for a malformed file and the analyser's
/// first error otherwise.
pub fn load_scenario(workload: Workload, seed: u64, size: Size) -> Result<Scenario, CraidError> {
    let mut scenario = Scenario::from_toml(workload.scenario_file())
        .map_err(|e| CraidError::Parse(format!("{}: {e}", workload.name())))?;
    scenario.workload.seed = seed;
    if size == Size::Smoke {
        let full_secs = scenario.static_duration_secs();
        scenario.workload.requests = if workload.is_replay() {
            SMOKE_REQUESTS
        } else {
            SMOKE_CAMPAIGN_REQUESTS
        };
        let ratio = scenario.static_duration_secs() / full_secs;
        scenario.events = scenario.events.iter().map(|e| rescale(e, ratio)).collect();
    }
    scenario.analyze().into_result()?;
    Ok(scenario)
}

fn rescale(event: &ScheduledEvent, ratio: f64) -> ScheduledEvent {
    let at = SimTime::from_secs(event.at().as_secs() * ratio);
    match event {
        ScheduledEvent::Expand { added_disks, .. } => ScheduledEvent::expand(at, *added_disks),
        ScheduledEvent::DiskFailure { disk, .. } => ScheduledEvent::disk_failure(at, *disk),
        ScheduledEvent::DiskRepair { disk, .. } => ScheduledEvent::disk_repair(at, *disk),
        ScheduledEvent::PolicySwitch { policy, .. } => ScheduledEvent::policy_switch(at, *policy),
        ScheduledEvent::WorkloadPhase { .. } => event.clone(),
    }
}

/// The campaign_sweep scenarios: the seven workloads x four fractions x
/// the four CRAID strategies, then the two baselines at the first fraction
/// (126 scenarios), in the order `Campaign::run` returns them.
///
/// # Errors
///
/// As [`load_scenario`].
pub fn campaign_scenarios(seed: u64, size: Size) -> Result<Vec<Scenario>, CraidError> {
    let base = load_scenario(Workload::CampaignSweep, seed, size)?;
    let mut scenarios = Campaign::sweep(&base, &WorkloadId::ALL, &PC_SWEEP, &CRAID_STRATEGIES)
        .scenarios()
        .to_vec();
    scenarios.extend_from_slice(
        Campaign::sweep(&base, &WorkloadId::ALL, &PC_SWEEP[..1], &BASELINES).scenarios(),
    );
    Ok(scenarios)
}
