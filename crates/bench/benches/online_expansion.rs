//! Online expansion: instant vs. paced vs. hot-first upgrades.
//!
//! The paper's headline claim is that CRAID upgrades are *online*: hot data
//! is reorganized onto the new disks while the array keeps serving traffic.
//! This bench makes the redistribution-time vs. service-time trade-off
//! visible. Every strategy replays the same workload three times with one
//! mid-run `expand` event:
//!
//! * **instant** — the pre-engine semantics: every block moves atomically
//!   at event time (`migration_rate` omitted), so the upgrade window is
//!   zero and the reorganization cost invisible;
//! * **paced** — the background engine streams the copies at a fixed rate
//!   in ascending block order, opening a measurable upgrade window;
//! * **hot-first** — same rate, but the I/O monitor's hottest blocks move
//!   first (the CRAID move), so the cache partition's hit ratio recovers
//!   while the cold tail is still migrating;
//! * **slo** — the hot-first upgrade steered by the QoS subsystem: an SLO
//!   on client p95 latency adaptively throttles the maintenance pace
//!   between a floor and the configured rate, trading a longer upgrade
//!   window for client service quality (the `viol s` column shows the
//!   SLO-violation seconds the controller recorded; unthrottled variants
//!   have no controller and report 0).
//!
//! Shapes to look for: CRAID variants enqueue orders of magnitude fewer
//! blocks than the RAID-5 restripe (the paper's Fig. 3 story), RAID-5+
//! migrates nothing (and stays unbalanced), and at equal rates the
//! hot-first window equals the sequential one while the post-upgrade hit
//! ratio recovers faster. The `archive` column makes the honest part of
//! the comparison visible: a paced `CRAID-5`/`CRAID-5ssd` upgrade also
//! pays a rate-paced reshape of its ideal RAID-5 archive (previously
//! modeled as free), while the aggregated `+` variants keep that cost at
//! zero — which is exactly the paper's argument for aggregation.

use craid::qos::SloSpec;
use craid::SimEvent;
use craid::{
    BackgroundPriority, Campaign, CraidError, Observer, Scenario, ScheduledEvent, StrategyKind,
};
use craid_bench::{base_scenario, f2, header_row, print_header, row};
use craid_simkit::SimTime;
use craid_trace::WorkloadId;

const ADDED_DISKS: usize = 10;
const MIGRATION_RATE: f64 = 400.0;
/// The SLO the `slo` variant steers by: client p95 latency under 10 ms —
/// comfortable for the paper array at steady state (the maintenance-free
/// RAID-5+ rows barely violate it) but trippable by restripe pressure, so
/// the column isolates the maintenance impact. Maintenance never drops
/// below 5 % of the configured rate.
const SLO_TARGET_MS: f64 = 10.0;

/// Accumulates cache hits over the post-upgrade recovery window.
#[derive(Default)]
struct Recovery {
    from: f64,
    until: f64,
    blocks: u64,
    hits: u64,
}

impl Observer for Recovery {
    fn on_event(&mut self, event: &SimEvent<'_>) {
        let SimEvent::Request { record, outcome } = *event else {
            return;
        };
        let t = record.time.as_secs();
        if t >= self.from && t < self.until {
            self.blocks += record.length;
            self.hits += outcome.cache_hit_blocks();
        }
    }
}

fn variant(
    base: &Scenario,
    name: &str,
    rate: Option<f64>,
    priority: BackgroundPriority,
) -> Scenario {
    let mut scenario = base.clone();
    scenario.name = format!("{}/{name}", scenario.name);
    scenario.array.migration_rate = rate;
    scenario.array.background_priority = Some(priority);
    scenario
}

fn main() -> Result<(), CraidError> {
    print_header(
        "Online expansion",
        "instant vs. paced vs. hot-first upgrade, per strategy",
    );
    let workload = WorkloadId::Wdev;
    let mut base = base_scenario(workload);
    base.array.pc_fraction = 0.2;
    let duration = base.trace().duration().as_secs();
    let expand_at = SimTime::from_secs(duration / 3.0);
    base.events
        .push(ScheduledEvent::expand(expand_at, ADDED_DISKS));
    println!(
        "[{workload}]  +{ADDED_DISKS} disks at t = {:.0}s of {:.0}s; paced variants at {MIGRATION_RATE} blocks/s",
        expand_at.as_secs(),
        duration
    );

    let mut scenarios = Vec::new();
    for strategy in StrategyKind::ALL {
        let mut with_strategy = base.clone();
        with_strategy.strategy = strategy;
        with_strategy.name = format!("{workload}/{strategy}");
        scenarios.push(variant(
            &with_strategy,
            "instant",
            None,
            BackgroundPriority::Sequential,
        ));
        scenarios.push(variant(
            &with_strategy,
            "paced",
            Some(MIGRATION_RATE),
            BackgroundPriority::Sequential,
        ));
        scenarios.push(variant(
            &with_strategy,
            "hot-first",
            Some(MIGRATION_RATE),
            BackgroundPriority::HotFirst,
        ));
        let mut slo = variant(
            &with_strategy,
            "slo",
            Some(MIGRATION_RATE),
            BackgroundPriority::HotFirst,
        );
        slo.array.qos = Some(
            SloSpec::latency_target(SLO_TARGET_MS)
                .with_floor(0.05)
                .with_window(2.0),
        );
        scenarios.push(slo);
    }

    // The recovery window: from the upgrade to ten seconds after it.
    let recovery = (expand_at.as_secs(), expand_at.as_secs() + 10.0);
    let mut outcomes = Vec::new();
    for scenario in &scenarios {
        let mut watch = Recovery {
            from: recovery.0,
            until: recovery.1,
            ..Recovery::default()
        };
        outcomes.push((scenario.run_observed(&mut watch)?, watch));
    }
    // Sanity: one campaign run of the same scenarios stays deterministic
    // with the sequential pass above (spot-checked on the first report).
    let campaign = Campaign::new(scenarios.clone()).run()?;
    assert_eq!(campaign[0].report, outcomes[0].0.report);

    println!();
    println!(
        "{}",
        header_row(&[
            "scenario",
            "moved",
            "archive",
            "window s",
            "viol s",
            "write ms",
            "recov hit%"
        ])
    );
    for (outcome, watch) in &outcomes {
        let report = &outcome.report;
        let expansion = &outcome.expansions[0];
        let moved = if report.migration.any_migrations() {
            report.migration.migrated_blocks + report.migration.superseded_blocks
        } else {
            expansion.migrated_blocks
        };
        let archive =
            report.migration.archive_migrated_blocks + report.migration.archive_superseded_blocks;
        let window = report.migration.migration_secs + report.migration.archive_restripe_secs;
        let recovered = 100.0 * watch.hits as f64 / watch.blocks.max(1) as f64;
        println!(
            "{}",
            row(&[
                outcome.name.clone(),
                moved.to_string(),
                archive.to_string(),
                f2(window),
                f2(report.qos.slo_violation_secs),
                f2(report.write.mean_ms),
                f2(recovered),
            ])
        );
    }
    println!();
    println!(
        "The instant column's window is always zero — that is exactly the blind spot this\n\
         bench closes: paced variants pay a visible redistribution window, and hot-first\n\
         spends it on the blocks that matter (higher recovery-window hit ratio for the\n\
         CRAID variants at the same rate and window). The archive column charges the\n\
         ideal-archive variants their paced reshape (mdadm-style), which the aggregated\n\
         '+' variants avoid by construction. The slo rows steer the same hot-first\n\
         upgrade with the QoS controller: maintenance throttles while client p95\n\
         latency is over the target, so the window stretches while the viol column\n\
         stays small — the unthrottled rows have no controller to record theirs."
    );
    Ok(())
}
