//! Regenerates **Figure 6** of the paper: performance and recovery time
//! with the archive-log mechanism alone versus a stand-by database.
//!
//! Lines (tpmC): archive-only versus archive + stand-by shipping — both a
//! moderate cost ("performance penalty is not an excuse").
//! Bars (recovery): stand-by activation after a fault at 600 s is
//! near-constant and much shorter than single-datafile media recovery of
//! the same fault at the same instant.

use recobench_bench::BenchCli;
use recobench_core::report::{bar, Table};
use recobench_core::Experiment;
use recobench_engine::ReplicaTopology;
use recobench_faults::FaultType;

fn main() {
    let cli = BenchCli::parse();
    let configs = cli.archive_configs();
    let trigger = cli.single_trigger(600);
    let tail = 420;

    let mut spec = cli.campaign();
    for c in &configs {
        // tpmC lines: archive only, then archive + stand-by.
        spec.push(cli.baseline(c, true));
        spec.push(
            Experiment::builder(c.clone())
                .archive_logs(true)
                .topology(ReplicaTopology::single())
                .duration_secs(cli.duration())
                .seed(cli.seed)
                .build(),
        );
        // Recovery bars: delete datafile at 600 s — archive media recovery
        // versus stand-by fail-over.
        spec.push(cli.fault_run(c, FaultType::DeleteDatafile, trigger, tail));
        spec.push(
            Experiment::builder(c.clone())
                .archive_logs(true)
                .topology(ReplicaTopology::single())
                .duration_secs(trigger + tail)
                .fault(FaultType::DeleteDatafile, trigger)
                .seed(cli.seed)
                .build(),
        );
    }
    let results = spec.run_all();

    let mut table = Table::new(vec![
        "Config",
        "tpmC archive",
        "tpmC stand-by",
        format!("rec@{trigger}s archive").as_str(),
        format!("rec@{trigger}s stand-by").as_str(),
        "stand-by bar",
    ])
    .title("Figure 6 — performance and recovery time with archive logs and stand-by database");
    for (i, c) in configs.iter().enumerate() {
        let chunk = &results[i * 4..(i + 1) * 4];
        let (perf_arch, perf_sb, rec_arch, rec_sb) = (&chunk[0], &chunk[1], &chunk[2], &chunk[3]);
        table.row(vec![
            c.name.clone(),
            format!("{:.0}", perf_arch.measures.tpmc),
            format!("{:.0}", perf_sb.measures.tpmc),
            rec_arch.measures.recovery_cell(tail),
            rec_sb.measures.recovery_cell(tail),
            bar(rec_sb.measures.recovery_time_secs.unwrap_or(0.0), 200.0, 24),
        ]);
    }
    println!("{}", table.render());
    println!("Stand-by recovery time is near-constant across configurations and fault types.");
}
