//! `recobench` — command-line front end for the dependability benchmark.
//!
//! ```text
//! recobench configs                      list the Table 3 configurations
//! recobench faults                       list the operator-fault taxonomy
//! recobench run [OPTIONS]                run one experiment
//!
//! run options:
//!   --config <NAME>      recovery configuration (default F40G3T10)
//!   --fault <TYPE>       shutdown-abort | delete-datafile | delete-tablespace |
//!                        datafile-offline | tablespace-offline | drop-table
//!   --at <SECS>          fault trigger offset (default 300)
//!   --duration <SECS>    experiment length (default 1200)
//!   --seed <N>           RNG seed (default 42)
//!   --no-archive         disable ARCHIVELOG mode
//!   --standby            add a stand-by database and fail over on the fault
//! ```

use recobench::core::report::Table;
use recobench::core::{Experiment, RecoveryConfig};
use recobench::engine::ReplicaTopology;
use recobench::faults::{FaultClass, FaultType, OperatorFaultType};

fn parse_fault(s: &str) -> Option<FaultType> {
    Some(match s {
        "shutdown-abort" => FaultType::ShutdownAbort,
        "delete-datafile" => FaultType::DeleteDatafile,
        "delete-tablespace" => FaultType::DeleteTablespace,
        "datafile-offline" => FaultType::SetDatafileOffline,
        "tablespace-offline" => FaultType::SetTablespaceOffline,
        "drop-table" => FaultType::DeleteUsersObject,
        _ => return None,
    })
}

fn cmd_configs() {
    let mut t = Table::new(vec!["Name", "File size", "Groups", "Checkpoint timeout"])
        .title("Recovery configurations (paper Table 3)");
    for c in RecoveryConfig::table3() {
        t.row(vec![
            c.name.clone(),
            format!("{} MB", c.redo_file_mb),
            c.redo_groups.to_string(),
            format!("{} s", c.checkpoint_timeout_secs),
        ]);
    }
    println!("{}", t.render());
}

fn cmd_faults() {
    let mut t = Table::new(vec!["Class", "Fault type", "Portability"])
        .title("Operator-fault taxonomy (paper Tables 1 & 2)");
    for class in FaultClass::all() {
        for f in OperatorFaultType::all().into_iter().filter(|f| f.class() == class) {
            t.row(vec![class.to_string(), f.description().into(), f.portability().to_string()]);
        }
    }
    println!("{}", t.render());
    println!("Injectable types: shutdown-abort, delete-datafile, delete-tablespace,");
    println!("                  datafile-offline, tablespace-offline, drop-table");
}

fn cmd_run(args: &[String]) -> Result<(), String> {
    let mut config = "F40G3T10".to_string();
    let mut fault: Option<FaultType> = None;
    let mut at = 300u64;
    let mut duration = 1_200u64;
    let mut seed = 42u64;
    let mut archive = true;
    let mut standby = false;

    let mut i = 0;
    while i < args.len() {
        match args[i].as_str() {
            "--config" => {
                config = args.get(i + 1).ok_or("--config needs a value")?.clone();
                i += 1;
            }
            "--fault" => {
                let v = args.get(i + 1).ok_or("--fault needs a value")?;
                fault = Some(parse_fault(v).ok_or_else(|| format!("unknown fault type {v}"))?);
                i += 1;
            }
            "--at" => {
                at = args.get(i + 1).and_then(|v| v.parse().ok()).ok_or("--at needs seconds")?;
                i += 1;
            }
            "--duration" => {
                duration = args
                    .get(i + 1)
                    .and_then(|v| v.parse().ok())
                    .ok_or("--duration needs seconds")?;
                i += 1;
            }
            "--seed" => {
                seed = args.get(i + 1).and_then(|v| v.parse().ok()).ok_or("--seed needs a number")?;
                i += 1;
            }
            "--no-archive" => archive = false,
            "--standby" => standby = true,
            other => return Err(format!("unknown option {other}")),
        }
        i += 1;
    }

    let cfg = RecoveryConfig::named(&config).ok_or_else(|| format!("unknown configuration {config}"))?;
    eprintln!("running {config} for {duration} simulated seconds...");
    let topology = if standby { ReplicaTopology::single() } else { ReplicaTopology::none() };
    let mut builder = Experiment::builder(cfg)
        .duration_secs(duration)
        .seed(seed)
        .archive_logs(archive)
        .topology(topology);
    if let Some(f) = fault {
        builder = builder.fault(f, at);
    }
    let out = builder.run().map_err(|e| e.to_string())?;

    let m = &out.measures;
    let mut t = Table::new(vec!["Measure", "Value"]).title(format!("Experiment: {}", out.config_name));
    t.row(vec!["tpmC".into(), format!("{:.0}", m.tpmc)]);
    t.row(vec![
        "fault".into(),
        out.fault.map_or("none".into(), |f| format!("{f} at t+{}s", out.trigger_secs.unwrap_or(0))),
    ]);
    t.row(vec!["recovery time (s)".into(), m.recovery_cell(duration.saturating_sub(at))]);
    t.row(vec!["lost transactions".into(), m.lost_transactions.to_string()]);
    t.row(vec!["integrity violations".into(), m.integrity_violations.to_string()]);
    t.row(vec!["log switches".into(), m.log_switches.to_string()]);
    t.row(vec!["redo generated (MB)".into(), format!("{:.1}", m.redo_mb)]);
    t.row(vec!["commits".into(), m.total_commits.to_string()]);
    t.row(vec!["unrecoverable".into(), out.unrecoverable.to_string()]);
    println!("{}", t.render());
    Ok(())
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let result = match args.first().map(String::as_str) {
        Some("configs") => {
            cmd_configs();
            Ok(())
        }
        Some("faults") => {
            cmd_faults();
            Ok(())
        }
        Some("run") => cmd_run(&args[1..]),
        _ => {
            eprintln!("usage: recobench <configs|faults|run> [options]");
            eprintln!("see the crate README for details");
            Err(String::new())
        }
    };
    if let Err(e) = result {
        if !e.is_empty() {
            eprintln!("error: {e}");
        }
        std::process::exit(2);
    }
}
