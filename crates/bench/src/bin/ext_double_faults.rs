//! Extension experiment: the paper's §4 footnote made runnable.
//!
//! The paper excluded the "recovery mechanisms administration" fault class
//! because those mistakes only become visible after a *second* fault
//! forces a recovery. This binary runs that two-fault matrix: sabotage
//! the recovery apparatus (delete archives, discard backups), keep the
//! workload running, then inject each of the ordinary faults — and report
//! which combinations leave the database unrecoverable.

use recobench_bench::BenchCli;
use recobench_core::report::Table;
use recobench_core::rig::set_up;
use recobench_core::{RecoveryConfig, Rig};
use recobench_engine::{DbServer, DiskLayout, FailoverPolicy, ReplicaTopology};
use recobench_faults::{DoubleFaultPlan, FaultPlan, FaultType, Sabotage};
use recobench_sim::{SimClock, SimDuration};
use recobench_tpcc::{DriverConfig, TpccScale};

fn prepared_server(seed: u64) -> DbServer {
    let cfg = RecoveryConfig::named("F10G3T5").unwrap().to_instance_config(true);
    let (srv, schema) = set_up(
        "DOUBLE",
        SimClock::shared(),
        DiskLayout::four_disk(),
        cfg,
        TpccScale::mini(),
        seed,
        |_| {},
    )
    .expect("setup on fresh disks");
    // 180 s of fault-free workload so several archives exist before the
    // sabotage.
    let mut rig = Rig::assemble(
        srv,
        schema,
        &ReplicaTopology::none(),
        FailoverPolicy::Manual,
        DriverConfig::default(),
        seed,
        SimDuration::from_secs(180),
    )
    .expect("no stand-bys to instantiate");
    rig.run(|_| Ok(false)).expect("nothing ships without stand-bys");
    rig.primary
}

fn main() {
    let cli = BenchCli::parse();
    let faults = [
        FaultType::ShutdownAbort,
        FaultType::DeleteDatafile,
        FaultType::SetDatafileOffline,
        FaultType::DeleteUsersObject,
    ];
    let mut cells = Vec::new();
    for sabotage in Sabotage::all() {
        for fault in faults {
            cells.push((sabotage, fault));
        }
    }
    // Every cell prepares its own server from the same seed, so the matrix
    // parallelizes across the worker pool without coupling cells.
    let rows = cli.parallel(cells.len(), |i| {
        let (sabotage, fault) = cells[i];
        let mut srv = prepared_server(cli.seed);
        let plan = DoubleFaultPlan { sabotage, fault: FaultPlan::new(fault, 0) };
        let outcome = plan.execute(&mut srv).expect("injection is valid");
        vec![
            sabotage.to_string(),
            fault.to_string(),
            if outcome.recovery.is_some() { "yes".into() } else { "NO".into() },
            outcome.recovery_error.unwrap_or_else(|| "-".into()),
        ]
    });
    let mut table = Table::new(vec![
        "First fault (silent)",
        "Second fault",
        "Recovered?",
        "Recovery error",
    ])
    .title("Extension — recovery-mechanism faults exposed by a second fault (F10G3T5)");
    for row in rows {
        table.row(row);
    }
    println!("{}", table.render());
    println!(
        "Shutdown abort always survives (crash recovery needs only the online logs);\n\
         everything that needs the backup or the archived redo does not. A sabotage\n\
         is a latent outage: invisible until the day it matters."
    );
}
