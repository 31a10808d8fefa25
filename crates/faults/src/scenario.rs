//! Double-fault scenarios: recovery-mechanism sabotage followed by a
//! storage fault.
//!
//! The paper excludes the "recovery mechanisms administration" fault class
//! from its experiments because "after a first fault affecting the
//! recovery mechanisms we would need a second fault of other type to
//! activate the recovery and reveal the effects of the first" (§4). This
//! module is the first step of that experiment: a silent [`Sabotage`] of
//! the recovery apparatus. The second is one of the ordinary faults through
//! the [`FaultInjector`](crate::FaultInjector), whose `recover` now fails
//! or degrades — that `DbResult` is the first mistake becoming visible.

use recobench_engine::{DbResult, DbServer};
use std::fmt;

/// A recovery-mechanism-administration mistake (paper Table 2, last
/// class). Silent on its own: performance and service are unaffected
/// until recovery is needed.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Sabotage {
    /// `rm /arch/*` — "delete a archive log file" (all of them, the worst
    /// case).
    DeleteArchiveLogs,
    /// Backup pieces reclaimed as "unused space" — "backups missing to
    /// allow recovery".
    DiscardBackups,
    /// Both at once (an operator "cleaning up" the tertiary storage).
    DeleteArchivesAndBackups,
}

impl Sabotage {
    /// All sabotage variants.
    pub fn all() -> [Sabotage; 3] {
        [Sabotage::DeleteArchiveLogs, Sabotage::DiscardBackups, Sabotage::DeleteArchivesAndBackups]
    }

    /// Performs the sabotage. Returns how many files were destroyed.
    ///
    /// # Errors
    ///
    /// Never fails on a healthy server; storage errors propagate.
    pub fn perform(self, server: &mut DbServer) -> DbResult<u64> {
        let mut destroyed = 0u64;
        if matches!(self, Sabotage::DeleteArchiveLogs | Sabotage::DeleteArchivesAndBackups) {
            for path in server.archive_paths() {
                server.os_delete_file(&path)?;
                destroyed += 1;
            }
        }
        if matches!(self, Sabotage::DiscardBackups | Sabotage::DeleteArchivesAndBackups)
            && server.backup().is_some()
        {
            server.discard_backup();
            destroyed += 1;
        }
        Ok(destroyed)
    }
}

impl fmt::Display for Sabotage {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(match self {
            Sabotage::DeleteArchiveLogs => "delete archive logs",
            Sabotage::DiscardBackups => "discard backups",
            Sabotage::DeleteArchivesAndBackups => "delete archives + backups",
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::injector::{FaultInjector, FaultOutcome, FaultPlan};
    use crate::taxonomy::FaultType;
    use recobench_engine::catalog::IndexDef;
    use recobench_engine::row::{Row, Value};
    use recobench_engine::{DiskLayout, InstanceConfig};
    use recobench_sim::SimClock;

    fn server_with_archives() -> DbServer {
        let cfg = InstanceConfig::builder()
            .redo_file_bytes(32 * 1024)
            .redo_groups(3)
            .checkpoint_timeout_secs(60)
            .archive_mode(true)
            .cache_blocks(64)
            .build();
        let mut srv =
            DbServer::on_fresh_disks("DBL", SimClock::shared(), DiskLayout::four_disk(), cfg);
        srv.create_database().unwrap();
        srv.create_user("u").unwrap();
        srv.create_tablespace("TPCC", 2, 512).unwrap();
        srv.create_table(
            "STOCK",
            "u",
            "TPCC",
            vec![IndexDef { name: "PK".into(), cols: vec![0], unique: true, ordered: true }],
        )
        .unwrap();
        let t = srv.table_id("STOCK").unwrap();
        let s = srv.connect().unwrap();
        for i in 0..20 {
            srv.insert(s, t, Row::new(vec![Value::U64(i), Value::from("pre-backup")])).unwrap();
            srv.commit(s).unwrap();
        }
        srv.take_cold_backup().unwrap();
        let s = srv.connect().unwrap();
        for i in 20..160 {
            srv.insert(s, t, Row::new(vec![Value::U64(i), Value::from("post-backup-payload")]))
                .unwrap();
            srv.commit(s).unwrap();
        }
        srv.disconnect(s);
        assert!(srv.stats().archives_created > 0, "archives exist to sabotage");
        srv
    }

    /// The two-step experiment: sabotage now, then the visible fault and
    /// its recovery procedure.
    fn sabotage_then(
        srv: &mut DbServer,
        sabotage: Sabotage,
        fault: FaultType,
    ) -> DbResult<FaultOutcome> {
        assert!(sabotage.perform(srv).unwrap() > 0, "something to destroy");
        let injector = FaultInjector::new(FaultPlan::new(fault, 0));
        let record = injector.inject(srv).expect("injection is valid");
        injector.recover(srv, &record)
    }

    #[test]
    fn sabotage_alone_is_silent() {
        let mut srv = server_with_archives();
        let destroyed = Sabotage::DeleteArchivesAndBackups.perform(&mut srv).unwrap();
        assert!(destroyed > 1);
        // Service is untouched: the first fault is invisible.
        let t = srv.table_id("STOCK").unwrap();
        let s = srv.connect().unwrap();
        srv.insert(s, t, Row::new(vec![Value::U64(999), Value::from("still fine")])).unwrap();
        srv.commit(s).unwrap();
        srv.disconnect(s);
        assert!(srv.is_open());
    }

    #[test]
    fn archive_sabotage_turns_media_recovery_unrecoverable() {
        // Without sabotage the same second fault recovers fine...
        let mut healthy = server_with_archives();
        let control = FaultInjector::new(FaultPlan::new(FaultType::DeleteDatafile, 0));
        let rec = control.inject(&mut healthy).unwrap();
        assert!(control.recover(&mut healthy, &rec).is_ok(), "baseline must recover");

        // ...but with the archives gone it cannot: the first fault
        // surfaces here.
        let mut sabotaged = server_with_archives();
        let err =
            sabotage_then(&mut sabotaged, Sabotage::DeleteArchiveLogs, FaultType::DeleteDatafile)
                .unwrap_err()
                .to_string();
        assert!(
            err.contains("unrecoverable") || err.contains("deleted"),
            "error must name the missing redo: {err}"
        );
    }

    #[test]
    fn backup_sabotage_blocks_incomplete_recovery() {
        let mut srv = server_with_archives();
        let recovery =
            sabotage_then(&mut srv, Sabotage::DiscardBackups, FaultType::DeleteUsersObject);
        assert!(recovery.is_err(), "point-in-time recovery needs the backup");
    }

    #[test]
    fn shutdown_abort_survives_any_sabotage() {
        // Crash recovery needs only the online logs: the sabotage stays
        // invisible even through the second fault.
        for sabotage in Sabotage::all() {
            let mut srv = server_with_archives();
            assert!(
                sabotage_then(&mut srv, sabotage, FaultType::ShutdownAbort).is_ok(),
                "{sabotage}: crash recovery must still work (online redo only)"
            );
            assert!(srv.is_open());
        }
    }
}
