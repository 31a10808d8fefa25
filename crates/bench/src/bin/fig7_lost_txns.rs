//! Regenerates **Figure 7** of the paper: committed transactions lost on
//! stand-by fail-over, as a function of the online redo log file size and
//! the number of groups.
//!
//! The stand-by can only apply redo that was *archived*; whatever sits in
//! the primary's current (unfinished) online group at the moment of the
//! crash never ships. The loss therefore equals the current group's fill
//! level — a quantity that is uniform over `[0, file size)` depending on
//! where the crash lands in the switch cycle. A single deterministic run
//! samples one phase point, and seeds alone barely move it (per-seed
//! throughput varies ~1 %, so `total redo mod file size` clusters), so
//! each seed also staggers the crash instant by 17 s to walk the switch
//! cycle; the paper's trend — losses grow with the redo file size, and
//! only weakly with the group count — is a statement about that average.

use recobench_bench::BenchCli;
use recobench_core::report::{bar, Table};
use recobench_core::{Experiment, RecoveryConfig};
use recobench_engine::ReplicaTopology;
use recobench_faults::FaultType;

fn main() {
    let cli = BenchCli::parse();
    let sizes: Vec<u64> = cli.pick(&[1, 10], &[1, 10, 40]);
    let groups: Vec<u32> = cli.pick(&[3], &[2, 3, 6]);
    let trigger = cli.single_trigger(600);
    let seeds = cli.seeds(5);

    let mut configs = Vec::new();
    for &f in &sizes {
        for &g in &groups {
            configs.push(RecoveryConfig::new(f, g, 60));
        }
    }
    let mut spec = cli.campaign();
    for c in &configs {
        for (k, &seed) in seeds.iter().enumerate() {
            // Stagger the crash across the switch cycle (~85 s for 40 MB
            // files at the calibrated redo rate) so the fill phase is
            // genuinely sampled rather than aliased to one point.
            let at = trigger + 17 * k as u64;
            spec.push(
                Experiment::builder(c.clone())
                    .archive_logs(true)
                    .topology(ReplicaTopology::single())
                    .duration_secs(at + 240)
                    .fault(FaultType::ShutdownAbort, at)
                    .seed(seed)
                    .build(),
            );
        }
    }
    let results = spec.run_all();

    struct RowData {
        mean: f64,
        min: u64,
        max: u64,
        recovery: f64,
    }
    let mut rows = Vec::new();
    for (i, _c) in configs.iter().enumerate() {
        let chunk = &results[i * seeds.len()..(i + 1) * seeds.len()];
        let losts: Vec<u64> = chunk.iter().map(|o| o.measures.lost_transactions).collect();
        let recovery = chunk.iter().filter_map(|o| o.measures.recovery_time_secs).sum::<f64>()
            / seeds.len() as f64;
        rows.push(RowData {
            mean: losts.iter().sum::<u64>() as f64 / losts.len() as f64,
            min: *losts.iter().min().unwrap(),
            max: *losts.iter().max().unwrap(),
            recovery,
        });
    }
    let max_mean = rows.iter().map(|r| r.mean).fold(1.0_f64, f64::max);
    let mut table = Table::new(vec![
        "File size",
        "Groups",
        "Lost txns (mean)",
        "min..max",
        "Recovery (s)",
        "lost bar",
    ])
    .title(format!(
        "Figure 7 — lost transactions in the stand-by database ({} seeds per cell)",
        seeds.len()
    ));
    for (c, r) in configs.iter().zip(&rows) {
        table.row(vec![
            format!("{} MB", c.redo_file_mb),
            c.redo_groups.to_string(),
            format!("{:.0}", r.mean),
            format!("{}..{}", r.min, r.max),
            format!("{:.0}", r.recovery),
            bar(r.mean, max_mean, 24),
        ]);
    }
    println!("{}", table.render());
}
