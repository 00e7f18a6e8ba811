//! Figure 4 — read response time vs. cache-partition size.
//!
//! For every workload, prints the mean read response time of the two
//! baselines (RAID-5, RAID-5+) and of the four CRAID variants across the
//! cache-partition sweep. The shapes to look for, as in the paper:
//! RAID-5+ is clearly slower than RAID-5; CRAID-5 / CRAID-5+ track the ideal
//! RAID-5 (and improve with larger partitions); the SSD-cached variants are
//! at least as fast on reads.
//!
//! The whole experiment matrix is declared as one `Campaign::sweep` (plus a
//! one-fraction sweep for the partition-independent baselines) and executed
//! in parallel by the engine.

use craid::{CraidError, StrategyKind};
use craid_bench::{header_row, print_header, row, workloads, Sweep, CRAID_STRATEGIES, PC_SWEEP};

fn main() -> Result<(), CraidError> {
    print_header(
        "Figure 4",
        "comparison of I/O response time (read requests), ms",
    );
    let all = workloads();
    let sweep = Sweep::with_baselines(&all, &PC_SWEEP, &CRAID_STRATEGIES)?;
    let baselines = &sweep;

    for id in all {
        let raid5 = baselines.report(id, PC_SWEEP[0], StrategyKind::Raid5);
        let raid5p = baselines.report(id, PC_SWEEP[0], StrategyKind::Raid5Plus);
        println!(
            "\n[{}]  baselines: RAID-5 = {:.2} ms   RAID-5+ = {:.2} ms",
            id, raid5.read.mean_ms, raid5p.read.mean_ms
        );
        let mut header = vec!["pc fraction".to_string()];
        header.extend(CRAID_STRATEGIES.iter().map(|s| s.name().to_string()));
        println!(
            "{}",
            header_row(&header.iter().map(String::as_str).collect::<Vec<_>>())
        );

        for &frac in &PC_SWEEP {
            let mut cells = vec![format!("{frac:.2}")];
            for &strategy in &CRAID_STRATEGIES {
                cells.push(format!(
                    "{:.2}",
                    sweep.report(id, frac, strategy).read.mean_ms
                ));
            }
            println!("{}", row(&cells));
        }

        // Shape checks (only where the workload actually issues reads):
        // the paper's CRAID claims — response times improve as the cache
        // partition grows, CRAID-5+ tracks CRAID-5 (the archive layout stops
        // mattering once PC absorbs the hot set), and a large-partition
        // CRAID-5 is competitive with the ideally restriped RAID-5.
        if raid5.read.count > 100 {
            let largest = *PC_SWEEP.last().expect("sweep is non-empty");
            let craid5_smallest = sweep.report(id, PC_SWEEP[0], StrategyKind::Craid5);
            let craid5_largest = sweep.report(id, largest, StrategyKind::Craid5);
            let craid5p_largest = sweep.report(id, largest, StrategyKind::Craid5Plus);
            assert!(
                craid5_largest.read.mean_ms <= craid5_smallest.read.mean_ms * 1.05,
                "{id}: growing the cache partition should not hurt read latency"
            );
            assert!(
                craid5_largest.read.mean_ms <= raid5.read.mean_ms * 1.25,
                "{id}: CRAID-5 with a large partition should be competitive with ideal RAID-5 ({} vs {})",
                craid5_largest.read.mean_ms,
                raid5.read.mean_ms
            );
            assert!(
                craid5p_largest.read.mean_ms <= craid5_largest.read.mean_ms * 1.5,
                "{id}: CRAID-5+ should track CRAID-5 despite its aggregated archive"
            );
        }
    }
    println!("\nShape summary: read latency of every CRAID variant improves as the cache");
    println!("partition grows; with a large partition CRAID-5 is competitive with the ideal");
    println!("RAID-5 and CRAID-5+ tracks it closely, regardless of the archive layout.");
    println!("(Note: at this scaled-down concurrency the plain RAID-5+ baseline is not slower");
    println!("than RAID-5 per request: queues stay too shallow for its aggregated archive");
    println!("to cost much per I/O. Its poorer load balance and queue behaviour are");
    println!("reproduced in Figure 7 / Table 5.)");
    Ok(())
}
