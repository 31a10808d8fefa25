//! The fault injector: reproduces operator mistakes through the same
//! interfaces a real administrator uses, then drives the recovery
//! procedure the mistake calls for (the paper's Figure 1 steps).

use recobench_engine::{DbResult, DbServer, EngineEvent, RecoveryPhase, Scn};
use recobench_sim::{SimDuration, SimTime};

use crate::taxonomy::FaultType;

/// Constant detection time before the recovery procedure starts. The
/// paper assumes a small constant: the goal is to assess the recovery
/// mechanisms, not the administrator's reaction time.
pub const DETECTION: SimDuration = SimDuration::from_secs(1);
/// Tablespace the storage faults target; datafile faults take its first
/// datafile.
const TABLESPACE: &str = "TPCC";
/// Table the object fault drops.
const VICTIM_TABLE: &str = "STOCK";

/// A planned fault: what and when.
#[derive(Debug, Clone, PartialEq)]
pub struct FaultPlan {
    /// The fault type.
    pub fault: FaultType,
    /// Trigger instant, as an offset from workload start (the paper uses
    /// 150 s, 300 s and 600 s).
    pub trigger_after: SimDuration,
    /// Imprecision of time-based incomplete recovery: `RECOVER UNTIL
    /// TIME` stops this much *before* the fault, so transactions committed
    /// in the margin are lost (the paper's "small number of lost committed
    /// transactions"). Only `FaultPlan::new` writes it; it is a field and
    /// not a constant because the callers that apply the cutoff read it
    /// from here, the frozen `perf` benchmark among them.
    pub pitr_margin: SimDuration,
}

impl FaultPlan {
    /// A plan with the paper's two-second recovery-time imprecision.
    pub fn new(fault: FaultType, trigger_after_secs: u64) -> Self {
        FaultPlan {
            fault,
            trigger_after: SimDuration::from_secs(trigger_after_secs),
            pitr_margin: SimDuration::from_secs(2),
        }
    }
}

/// What the injection actually did.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct InjectionRecord {
    /// The fault type injected.
    pub fault: FaultType,
    /// When the wrong action executed.
    pub injected_at: SimTime,
    /// SCN just before the wrong action (the stop point for incomplete
    /// recovery).
    pub scn_before: Scn,
    /// Human-readable detail (e.g. the deleted path). Display text only:
    /// recovery finds its victim again the way the injection did.
    pub detail: String,
}

/// Result of running the recovery procedure.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct FaultOutcome {
    /// The injection this recovers from.
    pub record: InjectionRecord,
    /// When the procedure started (injection + detection).
    pub recovery_started_at: SimTime,
    /// When the database was fully serviceable again, from the server's
    /// perspective (the driver then measures the end-user view).
    pub recovery_finished_at: SimTime,
    /// Redo records re-applied, if the procedure replayed the log.
    pub records_applied: u64,
    /// Archive files processed, if any.
    pub archives_processed: u64,
}

/// Injects one planned fault and drives its recovery.
#[derive(Debug, Clone)]
pub struct FaultInjector {
    plan: FaultPlan,
}

impl FaultInjector {
    /// Creates an injector for `plan`.
    pub fn new(plan: FaultPlan) -> Self {
        FaultInjector { plan }
    }

    /// The plan being executed.
    pub fn plan(&self) -> &FaultPlan {
        &self.plan
    }

    /// Absolute trigger instant given the workload start.
    pub fn trigger_time(&self, workload_start: SimTime) -> SimTime {
        workload_start + self.plan.trigger_after
    }

    /// Performs the wrong operation — the same action, through the same
    /// interface, as the operator mistake it reproduces.
    ///
    /// # Errors
    ///
    /// Fails if the target does not exist (mis-planned experiment).
    pub fn inject(&self, server: &mut DbServer) -> DbResult<InjectionRecord> {
        let scn_before = server.current_scn();
        let detail = match self.plan.fault {
            FaultType::ShutdownAbort => {
                server.shutdown_abort()?;
                "SHUTDOWN ABORT".to_string()
            }
            FaultType::DeleteDatafile => {
                let path = victim_path(server)?;
                server.os_delete_file(&path)?;
                format!("rm {path}")
            }
            FaultType::DeleteTablespace => {
                server.drop_tablespace(TABLESPACE)?;
                format!("DROP TABLESPACE {TABLESPACE} INCLUDING CONTENTS AND DATAFILES")
            }
            FaultType::SetDatafileOffline => {
                let path = victim_path(server)?;
                server.offline_datafile(&path)?;
                format!("ALTER DATABASE DATAFILE '{path}' OFFLINE")
            }
            FaultType::SetTablespaceOffline => {
                server.offline_tablespace(TABLESPACE)?;
                format!("ALTER TABLESPACE {TABLESPACE} OFFLINE")
            }
            FaultType::DeleteUsersObject => {
                server.drop_table(VICTIM_TABLE)?;
                format!("DROP TABLE {VICTIM_TABLE}")
            }
        };
        Ok(InjectionRecord {
            fault: self.plan.fault,
            injected_at: server.clock().now(),
            scn_before,
            detail,
        })
    }

    /// Runs the recovery procedure the fault requires, after the modelled
    /// detection time. Returns when the server is serviceable again.
    ///
    /// # Errors
    ///
    /// Fails if recovery is impossible (e.g. no archives / no backup) —
    /// which is itself a benchmark result: the configuration cannot
    /// tolerate this fault.
    pub fn recover(&self, server: &mut DbServer, record: &InjectionRecord) -> DbResult<FaultOutcome> {
        let noticed_from = server.clock().now();
        server.clock().advance(DETECTION);
        server.emit(EngineEvent::PhaseSpan {
            phase: RecoveryPhase::Detection,
            started_at: noticed_from,
        });
        let started = server.clock().now();
        let mut records_applied = 0;
        let mut archives = 0;
        match self.plan.fault {
            FaultType::ShutdownAbort => {
                server.startup()?;
            }
            FaultType::DeleteDatafile => {
                // The DBA notices errors, offlines the damaged file, then
                // restores + recovers it.
                let path = victim_path(server)?;
                server.offline_datafile(&path)?;
                let summary = server.recover_datafile(&path)?;
                records_applied = summary.applied;
                archives = summary.archives_read;
            }
            FaultType::SetDatafileOffline => {
                let path = victim_path(server)?;
                let summary = server.recover_datafile(&path)?;
                records_applied = summary.applied;
                archives = summary.archives_read;
            }
            FaultType::SetTablespaceOffline => {
                server.online_tablespace(TABLESPACE)?;
            }
            FaultType::DeleteTablespace | FaultType::DeleteUsersObject => {
                // Stop just *after* the last pre-fault SCN: everything
                // committed before the mistake is kept, the mistake's own
                // record is the first one discarded.
                let summary = server.recover_database_until(record.scn_before.next())?;
                records_applied = summary.applied;
                archives = summary.archives_read;
            }
        }
        Ok(FaultOutcome {
            record: record.clone(),
            recovery_started_at: started,
            recovery_finished_at: server.clock().now(),
            records_applied,
            archives_processed: archives,
        })
    }
}

/// The datafile faults' victim: the target tablespace's first datafile.
fn victim_path(server: &DbServer) -> DbResult<String> {
    server
        .datafile_paths(TABLESPACE)?
        .into_iter()
        .next()
        .ok_or_else(|| recobench_engine::DbError::NotFound("victim datafile".into()))
}

#[cfg(test)]
mod tests {
    use super::*;
    use recobench_engine::catalog::IndexDef;
    use recobench_engine::row::{Row, Value};
    use recobench_engine::{DiskLayout, InstanceConfig};
    use recobench_sim::SimClock;

    fn server_with_data() -> DbServer {
        let cfg = InstanceConfig::builder()
            .redo_file_bytes(64 * 1024)
            .redo_groups(3)
            .checkpoint_timeout_secs(60)
            .archive_mode(true)
            .cache_blocks(64)
            .build();
        let mut srv =
            DbServer::on_fresh_disks("FLT", SimClock::shared(), DiskLayout::four_disk(), cfg);
        srv.create_database().unwrap();
        srv.create_user("tpcc").unwrap();
        srv.create_tablespace("TPCC", 2, 512).unwrap();
        srv.create_table(
            "STOCK",
            "tpcc",
            "TPCC",
            vec![IndexDef { name: "PK".into(), cols: vec![0], unique: true, ordered: true }],
        )
        .unwrap();
        let t = srv.table_id("STOCK").unwrap();
        let s = srv.connect().unwrap();
        for i in 0..30 {
            srv.insert(s, t, Row::new(vec![Value::U64(i), Value::from("stock-row")])).unwrap();
            srv.commit(s).unwrap();
        }
        srv.take_cold_backup().unwrap();
        let s = srv.connect().unwrap();
        for i in 30..60 {
            srv.insert(s, t, Row::new(vec![Value::U64(i), Value::from("stock-row")])).unwrap();
            srv.commit(s).unwrap();
        }
        srv.disconnect(s);
        srv
    }

    fn run(fault: FaultType) -> (DbServer, FaultOutcome) {
        let mut srv = server_with_data();
        let injector = FaultInjector::new(FaultPlan::new(fault, 150));
        let rec = injector.inject(&mut srv).unwrap();
        let out = injector.recover(&mut srv, &rec).unwrap();
        (srv, out)
    }

    #[test]
    fn shutdown_abort_round_trip_keeps_all_rows() {
        let (srv, out) = run(FaultType::ShutdownAbort);
        assert!(srv.is_open());
        let t = srv.table_id("STOCK").unwrap();
        assert_eq!(srv.peek_scan(t).unwrap().len(), 60, "complete recovery");
        assert!(out.recovery_finished_at > out.recovery_started_at);
        assert_eq!(
            out.recovery_started_at,
            out.record.injected_at + DETECTION,
            "the paper's constant detection time"
        );
    }

    #[test]
    fn delete_datafile_is_completely_recovered() {
        let (srv, out) = run(FaultType::DeleteDatafile);
        let t = srv.table_id("STOCK").unwrap();
        assert_eq!(srv.peek_scan(t).unwrap().len(), 60, "media recovery loses nothing");
        assert!(out.records_applied > 0);
        let first = srv.datafile_paths("TPCC").unwrap().remove(0);
        assert_eq!(out.record.detail, format!("rm {first}"), "the victim is TPCC's first datafile");
    }

    /// Recovery finds the datafile victim in the catalog, as the injection
    /// did, not in the record's display text.
    #[test]
    fn datafile_faults_recover_whatever_the_detail_says() {
        for fault in [FaultType::DeleteDatafile, FaultType::SetDatafileOffline] {
            let mut srv = server_with_data();
            let injector = FaultInjector::new(FaultPlan::new(fault, 150));
            let mut rec = injector.inject(&mut srv).unwrap();
            rec.detail = format!("the operator's own words for {fault}");
            injector.recover(&mut srv, &rec).unwrap();
            let t = srv.table_id("STOCK").unwrap();
            assert_eq!(srv.peek_scan(t).unwrap().len(), 60, "{fault}");
        }
    }

    #[test]
    fn offline_faults_recover_quickly() {
        let (srv, out_df) = run(FaultType::SetDatafileOffline);
        let t = srv.table_id("STOCK").unwrap();
        assert_eq!(srv.peek_scan(t).unwrap().len(), 60);
        let df_time = out_df.recovery_finished_at.saturating_since(out_df.recovery_started_at);

        let (srv2, out_ts) = run(FaultType::SetTablespaceOffline);
        let t2 = srv2.table_id("STOCK").unwrap();
        assert_eq!(srv2.peek_scan(t2).unwrap().len(), 60);
        let ts_time = out_ts.recovery_finished_at.saturating_since(out_ts.recovery_started_at);
        assert!(
            ts_time < df_time,
            "tablespace online ({ts_time}) is faster than datafile recovery ({df_time})"
        );
        assert!(ts_time.as_secs_f64() < 2.0, "paper: always close to 1 second, got {ts_time}");
    }

    #[test]
    fn drop_table_needs_incomplete_recovery_and_restores_the_table() {
        let (srv, out) = run(FaultType::DeleteUsersObject);
        let t = srv.table_id("STOCK").unwrap();
        // All 60 rows committed before the fault are back.
        assert_eq!(srv.peek_scan(t).unwrap().len(), 60);
        assert!(out.records_applied > 0);
        assert_eq!(srv.stats().incomplete_recoveries, 1);
    }

    #[test]
    fn drop_tablespace_needs_incomplete_recovery() {
        let (srv, _out) = run(FaultType::DeleteTablespace);
        let t = srv.table_id("STOCK").unwrap();
        assert_eq!(srv.peek_scan(t).unwrap().len(), 60);
        assert_eq!(srv.stats().incomplete_recoveries, 1);
    }

    #[test]
    fn trigger_time_offsets_from_workload_start() {
        let plan = FaultPlan::new(FaultType::ShutdownAbort, 300);
        let inj = FaultInjector::new(plan);
        let t0 = SimTime::from_secs(1_000);
        assert_eq!(inj.trigger_time(t0), SimTime::from_secs(1_300));
    }
}
