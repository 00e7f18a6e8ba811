//! The benchmark's command line.
//!
//! ```text
//! cargo run --release --manifest-path perfbench/Cargo.toml -- \
//!     [--workload steady_wdev|upgrade_qos|steady_proj|campaign_sweep|all] \
//!     [--seed 14] [--seconds 10] [--trace 0|1] [--size full|smoke] \
//!     [--spans-out spans.jsonl]
//! ```
//!
//! One workload per process: `--workload all` (the default) runs each of
//! the four in a child process of its own, so `peak_rss_mib` is never
//! inflated by another workload. Every metric is printed by name with its
//! unit; the last line of standard output is one JSON object holding the
//! correctness gate's tally (`correct`, `attempted`, `failed`) and the
//! end-to-end metrics (`--trace 0`) or the per-layer metrics (`--trace 1`).
//! The exit code is 0 only when every operation passed the gate.

use std::process::{Command, ExitCode, Stdio};

use craid_perfbench::metrics::{result_line, END_TO_END, PER_LAYER};
use craid_perfbench::run::{run, Options};
use craid_perfbench::workloads::{Size, Workload};

struct Args {
    workload: Option<Workload>,
    seed: u64,
    seconds: f64,
    trace: bool,
    size: Size,
    spans_out: Option<String>,
}

fn parse_args(args: &[String]) -> Result<Args, String> {
    let mut parsed = Args {
        workload: None,
        seed: 14,
        seconds: 10.0,
        trace: false,
        size: Size::Full,
        spans_out: None,
    };
    let mut iter = args.iter();
    while let Some(flag) = iter.next() {
        let mut value = || iter.next().ok_or_else(|| format!("{flag} needs a value"));
        match flag.as_str() {
            "--workload" => {
                let name = value()?;
                parsed.workload = match name.as_str() {
                    "all" => None,
                    other => Some(
                        Workload::parse(other)
                            .ok_or_else(|| format!("unknown workload '{other}'"))?,
                    ),
                };
            }
            "--seed" => parsed.seed = value()?.parse().map_err(|e| format!("--seed: {e}"))?,
            "--seconds" => {
                parsed.seconds = value()?.parse().map_err(|e| format!("--seconds: {e}"))?;
                if !(parsed.seconds.is_finite() && parsed.seconds >= 0.0) {
                    return Err("--seconds must be a non-negative number".into());
                }
            }
            "--trace" => {
                parsed.trace = match value()?.as_str() {
                    "0" => false,
                    "1" => true,
                    other => return Err(format!("--trace takes 0 or 1, not '{other}'")),
                }
            }
            "--size" => {
                parsed.size = match value()?.as_str() {
                    "full" => Size::Full,
                    "smoke" => Size::Smoke,
                    other => return Err(format!("--size takes full or smoke, not '{other}'")),
                }
            }
            "--spans-out" => parsed.spans_out = Some(value()?.clone()),
            other => return Err(format!("unknown flag '{other}'")),
        }
    }
    Ok(parsed)
}

fn main() -> ExitCode {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let args = match parse_args(&argv) {
        Ok(args) => args,
        Err(message) => {
            eprintln!("craid-perfbench: {message}");
            return ExitCode::from(2);
        }
    };
    match args.workload {
        Some(workload) => run_one(workload, &args),
        None => run_all(&argv),
    }
}

fn run_one(workload: Workload, args: &Args) -> ExitCode {
    let opts = Options {
        workload,
        seed: args.seed,
        seconds: args.seconds,
        trace: args.trace,
        size: args.size,
    };
    let result = match run(&opts) {
        Ok(result) => result,
        Err(error) => {
            eprintln!(
                "craid-perfbench: {}: engine error: {error}",
                workload.name()
            );
            println!("{}", result_line(false, 1, 1, &[]));
            return ExitCode::FAILURE;
        }
    };
    for note in &result.notes {
        println!("# {note}");
    }
    let table: &[(&str, &str)] = if args.trace { &PER_LAYER } else { &END_TO_END };
    let selected = match result.metrics.select(table) {
        Ok(metrics) => metrics,
        Err(missing) => {
            eprintln!(
                "craid-perfbench: {}: metrics not measured: {}",
                workload.name(),
                missing.join(", ")
            );
            println!(
                "{}",
                result_line(false, result.gate.attempted, result.gate.failed, &[])
            );
            return ExitCode::FAILURE;
        }
    };
    for m in &selected {
        println!(
            "{:<16} {:<34} {:>18.6} {}",
            workload.name(),
            m.name,
            m.value,
            m.unit
        );
    }
    let gate = &result.gate;
    for failure in &gate.failures {
        println!("# FAILED {failure}");
    }
    println!(
        "# {}: {} operations checked, {} failed ({:.1}% failed)",
        workload.name(),
        gate.attempted,
        gate.failed,
        gate.failed_share() * 100.0
    );
    if let Some(path) = &args.spans_out {
        if let Err(e) = std::fs::write(path, &result.spans_jsonl) {
            eprintln!("craid-perfbench: writing {path}: {e}");
            return ExitCode::FAILURE;
        }
    }
    let finite = selected.iter().all(|m| m.value.is_finite());
    let correct = gate.failed == 0 && finite;
    println!(
        "{}",
        result_line(correct, gate.attempted, gate.failed, &selected)
    );
    if correct {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}

/// Runs every workload in a child process of its own and sums the gate.
fn run_all(argv: &[String]) -> ExitCode {
    let exe = match std::env::current_exe() {
        Ok(exe) => exe,
        Err(e) => {
            eprintln!("craid-perfbench: cannot locate own executable: {e}");
            return ExitCode::FAILURE;
        }
    };
    let mut forwarded: Vec<String> = Vec::new();
    let mut iter = argv.iter();
    while let Some(flag) = iter.next() {
        let value = iter.next();
        if flag != "--workload" && flag != "--spans-out" {
            forwarded.push(flag.clone());
            forwarded.extend(value.cloned());
        }
    }
    let (mut attempted, mut failed, mut all_ok) = (0u64, 0u64, true);
    for workload in Workload::ALL {
        let output = Command::new(&exe)
            .arg("--workload")
            .arg(workload.name())
            .args(&forwarded)
            .stderr(Stdio::inherit())
            .output();
        let output = match output {
            Ok(output) => output,
            Err(e) => {
                eprintln!("craid-perfbench: running {}: {e}", workload.name());
                return ExitCode::FAILURE;
            }
        };
        let stdout = String::from_utf8_lossy(&output.stdout);
        let mut lines: Vec<&str> = stdout.lines().collect();
        let last = lines.pop().unwrap_or_default();
        for line in lines {
            println!("{line}");
        }
        match tally(last) {
            Some((a, f)) => {
                attempted += a;
                failed += f;
            }
            None => all_ok = false,
        }
        all_ok &= output.status.success();
    }
    println!(
        "{}",
        result_line(all_ok && failed == 0, attempted.max(1), failed, &[])
    );
    if all_ok && failed == 0 {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}

/// The `attempted` and `failed` fields of a child's result line.
fn tally(line: &str) -> Option<(u64, u64)> {
    let field = |key: &str| -> Option<u64> {
        let rest = &line[line.find(&format!("\"{key}\": "))? + key.len() + 4..];
        rest.split(|c: char| !c.is_ascii_digit())
            .next()?
            .parse()
            .ok()
    };
    Some((field("attempted")?, field("failed")?))
}
