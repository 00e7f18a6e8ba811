//! The correctness gate: every replay is an operation, and an operation
//! fails when the engine errors, when its report's digest differs from the
//! other repetitions', or when the benchmark's traced driver disagrees with
//! the engine's report.

use craid::report::{CraidStats, FaultStats, MigrationStats, QosStats, SimulationReport};
use craid_metrics::concurrency::ConcurrencySummary;

/// The simulated outputs the traced driver recomputes from the public API
/// and the report carries: the fields both sides must agree on exactly.
#[derive(Debug, Clone, PartialEq)]
pub struct Outputs {
    /// Client requests replayed.
    pub requests: u64,
    /// Bytes moved per device.
    pub device_bytes: Vec<u64>,
    /// Monitor counters as the report folds them (None for baselines).
    pub craid: Option<CraidStats>,
    /// Fault counters.
    pub fault: FaultStats,
    /// Migration counters.
    pub migration: MigrationStats,
    /// QoS controller outputs.
    pub qos: QosStats,
    /// Simulated seconds of the end-of-trace drain.
    pub background_drain_secs: f64,
    /// cv of the whole-run per-device byte totals.
    pub overall_cv: f64,
    /// Fraction of device accesses that were physically sequential.
    pub sequential_fraction: f64,
    /// Read requests and their mean response time (ms).
    pub read: (u64, f64),
    /// Write requests and their mean response time (ms).
    pub write: (u64, f64),
    /// Device queue-depth summary.
    pub ioq: ConcurrencySummary,
    /// Concurrently-active device summary.
    pub cdev: ConcurrencySummary,
}

impl Outputs {
    /// The same fields, read off an engine report.
    pub fn from_report(report: &SimulationReport) -> Self {
        Outputs {
            requests: report.requests,
            device_bytes: report.device_bytes.clone(),
            craid: report.craid,
            fault: report.fault,
            migration: report.migration,
            qos: report.qos.clone(),
            background_drain_secs: report.background_drain_secs,
            overall_cv: report.load_balance.overall_cv,
            sequential_fraction: report.sequential_fraction,
            read: (report.read.count, report.read.mean_ms),
            write: (report.write.count, report.write.mean_ms),
            ioq: report.ioq,
            cdev: report.cdev,
        }
    }

    /// A 64-bit FNV-1a digest of every field (floats by their exact
    /// round-trip rendering).
    pub fn digest(&self) -> u64 {
        fnv1a(format!("{self:?}").as_bytes())
    }

    /// Names of the fields that differ from `other`, with both values.
    pub fn differences(&self, other: &Outputs) -> Vec<String> {
        let mut out = Vec::new();
        let mut check = |name: &str, a: String, b: String| {
            if a != b {
                out.push(format!("{name}: driver {a} != report {b}"));
            }
        };
        check("requests", fmt(&self.requests), fmt(&other.requests));
        check(
            "device_bytes",
            fmt(&self.device_bytes),
            fmt(&other.device_bytes),
        );
        check("craid", fmt(&self.craid), fmt(&other.craid));
        check("fault", fmt(&self.fault), fmt(&other.fault));
        check("migration", fmt(&self.migration), fmt(&other.migration));
        check("qos", fmt(&self.qos), fmt(&other.qos));
        check(
            "background_drain_secs",
            fmt(&self.background_drain_secs),
            fmt(&other.background_drain_secs),
        );
        check("overall_cv", fmt(&self.overall_cv), fmt(&other.overall_cv));
        check(
            "sequential_fraction",
            fmt(&self.sequential_fraction),
            fmt(&other.sequential_fraction),
        );
        check("read", fmt(&self.read), fmt(&other.read));
        check("write", fmt(&self.write), fmt(&other.write));
        check("ioq", fmt(&self.ioq), fmt(&other.ioq));
        check("cdev", fmt(&self.cdev), fmt(&other.cdev));
        out
    }
}

fn fmt<T: std::fmt::Debug>(value: &T) -> String {
    format!("{value:?}")
}

/// 64-bit FNV-1a.
pub fn fnv1a(bytes: &[u8]) -> u64 {
    bytes.iter().fold(0xcbf2_9ce4_8422_2325, |hash, &b| {
        (hash ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01b3)
    })
}

/// Digest of a whole report (its JSON rendering).
pub fn report_digest(report: &SimulationReport) -> u64 {
    fnv1a(report.to_json().as_bytes())
}

/// The tally of checked operations.
#[derive(Debug, Clone, Default)]
pub struct Gate {
    /// Operations checked.
    pub attempted: u64,
    /// Operations that failed a check.
    pub failed: u64,
    /// One line per failed operation.
    pub failures: Vec<String>,
}

impl Gate {
    /// Records one operation; it fails when `problems` is non-empty.
    pub fn record(&mut self, operation: &str, problems: Vec<String>) {
        self.attempted += 1;
        if !problems.is_empty() {
            self.failed += 1;
            self.failures
                .push(format!("{operation}: {}", problems.join("; ")));
        }
    }

    /// Share of failed operations.
    pub fn failed_share(&self) -> f64 {
        if self.attempted == 0 {
            0.0
        } else {
            self.failed as f64 / self.attempted as f64
        }
    }
}

/// The checks on one traced replay: the driver's outputs against the
/// report's, field by field and by digest.
pub fn check_driver(driver: &Outputs, report: &SimulationReport) -> Vec<String> {
    let expected = Outputs::from_report(report);
    let mut problems = driver.differences(&expected);
    if driver.digest() != expected.digest() {
        problems.push(format!(
            "digest: traced {:016x} != untraced {:016x}",
            driver.digest(),
            expected.digest()
        ));
    }
    problems
}

/// The check on one repetition: its report digest against the first.
pub fn check_repetition(first: u64, report: &SimulationReport) -> Vec<String> {
    let digest = report_digest(report);
    if digest == first {
        Vec::new()
    } else {
        vec![format!(
            "report digest {digest:016x} differs from the first repetition's {first:016x}"
        )]
    }
}
