//! `recobench fig6_topologies`: the replica-set scenario matrix the paper
//! could not measure — recovery and availability per **topology** (single
//! stand-by, two-node fan-out, two-deep cascade) and per **failover
//! policy** (manual, auto-quorum, auto-with-fencing), including the
//! double-fault cell where the freshly promoted node is killed too.
//!
//! Every cell runs the same contended 8-terminal TPC-C workload and kills
//! the primary at the same instant; the availability integral (fraction
//! of wall seconds with at least one commit), the RTO and the lost
//! transactions then isolate what the topology and the policy each buy.
//! A final differential-oracle cell replays the double fault under the
//! torture harness and reports its divergence count — the "zero oracle
//! divergences" acceptance gate.
//!
//! Results land in `BENCH_topologies.json` (override with `--out PATH`).

use std::fmt::Write as _;
use std::process::ExitCode;

use recobench_core::report::Table;
use recobench_core::{Experiment, ExperimentOutcome, RecoveryConfig};
use recobench_engine::{FailoverPolicy, ReplicaTopology};
use recobench_faults::{
    FaultSchedule, FaultType, ReplicaFaultType, ScheduledFault, TortureFaultKind,
};
use recobench_oracle::{TortureOptions, TortureRunner};
use recobench_tpcc::{AvailabilityTimeline, DriverConfig};

use crate::cli::{Args, CmdResult};

/// Fraction of the run's seconds with at least one committed transaction.
fn availability_integral(tl: &AvailabilityTimeline) -> f64 {
    if tl.buckets.is_empty() {
        return 0.0;
    }
    let up = tl.buckets.len() as u64 - tl.zero_seconds();
    up as f64 / tl.buckets.len() as f64
}

fn cell_json(out: &mut String, o: &ExperimentOutcome, double_fault: bool) {
    let rto_us = o.measures.recovery_time_secs.map(|s| (s * 1e6) as u64);
    let _ = write!(
        out,
        "    {{ \"topology\": \"{}\", \"policy\": \"{}\", \"double_fault\": {}, \
         \"failovers\": {}, \"rto_us\": {}, \"availability_integral\": {:.4}, \
         \"lost_transactions\": {}, \"tpmc\": {:.1}, \"unrecoverable\": {} }}",
        o.topology,
        o.policy,
        double_fault,
        o.failovers,
        rto_us.map_or("null".to_string(), |v| v.to_string()),
        availability_integral(&o.timeline),
        o.measures.lost_transactions,
        o.measures.tpmc,
        o.unrecoverable,
    );
}

/// The subcommand.
///
/// # Errors
///
/// A refused command line.
pub fn run(mut args: Args) -> CmdResult {
    let opts = args.opts()?;
    let out_path = args.value("--out")?.unwrap_or_else(|| "BENCH_topologies.json".to_string());
    args.finish()?;
    let config = RecoveryConfig::named("F10G3T5").expect("known configuration");
    let trigger = opts.single_trigger(120);
    let second = trigger + 60;
    let duration = second + 180;
    let driver = DriverConfig { terminals: 8, ..DriverConfig::default() };

    // The matrix: topology, policy, and whether the promoted node is
    // killed too.
    let cells = [
        (ReplicaTopology::single(), FailoverPolicy::Manual, false),
        (ReplicaTopology::fan_out(2), FailoverPolicy::AutoQuorum, false),
        (ReplicaTopology::fan_out(2), FailoverPolicy::AutoWithFencing, false),
        (ReplicaTopology::fan_out(2), FailoverPolicy::AutoQuorum, true),
        (ReplicaTopology::cascade(2), FailoverPolicy::AutoQuorum, false),
    ];

    let mut spec = opts.campaign();
    for (topology, policy, double_fault) in &cells {
        let mut b = Experiment::builder(config.clone())
            .archive_logs(true)
            .topology(topology.clone())
            .failover_policy(*policy)
            .driver(driver)
            .duration_secs(duration)
            .fault(FaultType::ShutdownAbort, trigger)
            .seed(opts.seed);
        if *double_fault {
            b = b.second_fault_secs(second);
        }
        spec.push(b.build());
    }
    let results = spec.run().expect_all();

    // The oracle gate: the same double fault under the torture harness,
    // diffed against the reference model after every failover.
    let oracle = TortureRunner::new(TortureOptions {
        config: config.clone(),
        driver,
        topology: ReplicaTopology::fan_out(2),
        policy: FailoverPolicy::AutoQuorum,
        ..TortureOptions::default()
    })
    .run(&FaultSchedule {
        seed: opts.seed,
        duration_secs: duration,
        faults: vec![
            ScheduledFault {
                kind: TortureFaultKind::Replica(ReplicaFaultType::KillPrimary),
                at_secs: trigger,
            },
            ScheduledFault {
                kind: TortureFaultKind::Replica(ReplicaFaultType::KillPromoted),
                at_secs: second,
            },
        ],
    })
    .expect("oracle setup");

    let mut table = Table::new(vec![
        "Topology",
        "Policy",
        "Faults",
        "Failovers",
        "RTO (s)",
        "Availability",
        "Lost txns",
        "tpmC",
    ])
    .title("Figure 6ext — replica topologies and failover policies under primary kill");
    for ((_, _, double_fault), o) in cells.iter().zip(&results) {
        table.row(vec![
            o.topology.clone(),
            o.policy.clone(),
            if *double_fault { "kill+kill".into() } else { "kill".into() },
            o.failovers.to_string(),
            o.measures.recovery_time_secs.map_or("—".to_string(), |s| format!("{s:.1}")),
            format!("{:.1}%", availability_integral(&o.timeline) * 100.0),
            o.measures.lost_transactions.to_string(),
            format!("{:.0}", o.measures.tpmc),
        ]);
    }
    println!("{}", table.render());
    println!(
        "Oracle double-fault gate: failovers={} divergences={} lost_commits={} commits={}",
        oracle.failovers,
        oracle.divergences.len(),
        oracle.lost_commits,
        oracle.commits,
    );

    let mut json = String::new();
    json.push_str("{\n  \"bench\": \"fig6_topologies\",\n  \"cells\": [\n");
    for (i, ((_, _, double_fault), o)) in cells.iter().zip(&results).enumerate() {
        cell_json(&mut json, o, *double_fault);
        json.push_str(if i + 1 == results.len() { "\n" } else { ",\n" });
    }
    let _ = write!(
        json,
        "  ],\n  \"oracle_double_fault\": {{ \"topology\": \"fanout2\", \
         \"policy\": \"auto_quorum\", \"failovers\": {}, \"divergences\": {}, \
         \"lost_commits\": {}, \"commits\": {}, \"unrecoverable\": {} }}\n}}\n",
        oracle.failovers,
        oracle.divergences.len(),
        oracle.lost_commits,
        oracle.commits,
        oracle.unrecoverable,
    );
    std::fs::write(&out_path, &json).map_err(|e| format!("cannot write {out_path}: {e}"))?;
    eprintln!("fig6_topologies: wrote {out_path}");
    Ok(ExitCode::SUCCESS)
}
