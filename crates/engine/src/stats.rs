//! Engine counters for reporting and calibration.

/// Cumulative engine counters, kept on the server so they survive instance
/// restarts. The benchmark runner snapshots and diffs them per measurement
/// window.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct EngineStats {
    /// Committed transactions.
    pub commits: u64,
    /// Rolled-back transactions.
    pub rollbacks: u64,
    /// Redo records generated.
    pub redo_records: u64,
    /// Redo bytes generated (including change-vector padding).
    pub redo_bytes: u64,
    /// LGWR flushes.
    pub log_flushes: u64,
    /// Log switches.
    pub log_switches: u64,
    /// Full (log-switch) checkpoints.
    pub full_checkpoints: u64,
    /// Incremental checkpoint advances performed by DBWR ticks.
    pub incremental_advances: u64,
    /// Blocks written by checkpoints and DBWR.
    pub blocks_written: u64,
    /// Microseconds foreground work stalled waiting for a log group to
    /// become reusable (checkpoint or archiver not finished).
    pub switch_stall_micros: u64,
    /// Archive files produced.
    pub archives_created: u64,
    /// Redo records applied by recovery.
    pub recovery_records_applied: u64,
    /// Redo records scanned but skipped by recovery (filtered or before
    /// the recovery position).
    pub recovery_records_skipped: u64,
    /// Archive files processed by recovery.
    pub recovery_archives_processed: u64,
    /// Instance crash recoveries performed.
    pub crash_recoveries: u64,
    /// Single-datafile media recoveries performed.
    pub media_recoveries: u64,
    /// Point-in-time (incomplete) recoveries performed.
    pub incomplete_recoveries: u64,
    /// Statements that blocked on a contended row lock.
    pub lock_waits: u64,
    /// Lock waits that resolved with a grant (the rest aborted or were
    /// severed by recovery).
    pub lock_grants: u64,
    /// Total simulated microseconds spent waiting for granted locks.
    pub lock_wait_micros: u64,
    /// Deadlocks detected (one victim aborted each).
    pub deadlocks: u64,
    /// Stored blocks whose CRC failed verification (silent corruption
    /// caught by the checksum layer).
    pub checksum_mismatches: u64,
    /// Failovers begun by the replica-set controller (quorum reached or
    /// operator-decided).
    pub failovers: u64,
    /// Stand-bys promoted to primary.
    pub promotions: u64,
    /// Surviving stand-bys re-instantiated behind a newly promoted
    /// primary.
    pub replica_resyncs: u64,
}

impl EngineStats {
    /// Component-wise difference `self - earlier` (saturating), for
    /// per-window reporting.
    pub fn since(&self, earlier: &EngineStats) -> EngineStats {
        EngineStats {
            commits: self.commits.saturating_sub(earlier.commits),
            rollbacks: self.rollbacks.saturating_sub(earlier.rollbacks),
            redo_records: self.redo_records.saturating_sub(earlier.redo_records),
            redo_bytes: self.redo_bytes.saturating_sub(earlier.redo_bytes),
            log_flushes: self.log_flushes.saturating_sub(earlier.log_flushes),
            log_switches: self.log_switches.saturating_sub(earlier.log_switches),
            full_checkpoints: self.full_checkpoints.saturating_sub(earlier.full_checkpoints),
            incremental_advances: self
                .incremental_advances
                .saturating_sub(earlier.incremental_advances),
            blocks_written: self.blocks_written.saturating_sub(earlier.blocks_written),
            switch_stall_micros: self.switch_stall_micros.saturating_sub(earlier.switch_stall_micros),
            archives_created: self.archives_created.saturating_sub(earlier.archives_created),
            recovery_records_applied: self
                .recovery_records_applied
                .saturating_sub(earlier.recovery_records_applied),
            recovery_records_skipped: self
                .recovery_records_skipped
                .saturating_sub(earlier.recovery_records_skipped),
            recovery_archives_processed: self
                .recovery_archives_processed
                .saturating_sub(earlier.recovery_archives_processed),
            crash_recoveries: self.crash_recoveries.saturating_sub(earlier.crash_recoveries),
            media_recoveries: self.media_recoveries.saturating_sub(earlier.media_recoveries),
            incomplete_recoveries: self
                .incomplete_recoveries
                .saturating_sub(earlier.incomplete_recoveries),
            lock_waits: self.lock_waits.saturating_sub(earlier.lock_waits),
            lock_grants: self.lock_grants.saturating_sub(earlier.lock_grants),
            lock_wait_micros: self.lock_wait_micros.saturating_sub(earlier.lock_wait_micros),
            deadlocks: self.deadlocks.saturating_sub(earlier.deadlocks),
            checksum_mismatches: self.checksum_mismatches.saturating_sub(earlier.checksum_mismatches),
            failovers: self.failovers.saturating_sub(earlier.failovers),
            promotions: self.promotions.saturating_sub(earlier.promotions),
            replica_resyncs: self.replica_resyncs.saturating_sub(earlier.replica_resyncs),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn since_diffs_componentwise() {
        let a = EngineStats { commits: 10, redo_bytes: 100, ..Default::default() };
        let b = EngineStats { commits: 25, redo_bytes: 400, log_switches: 2, ..Default::default() };
        let d = b.since(&a);
        assert_eq!(d.commits, 15);
        assert_eq!(d.redo_bytes, 300);
        assert_eq!(d.log_switches, 2);
    }

    #[test]
    fn since_saturates() {
        let a = EngineStats { commits: 10, ..Default::default() };
        let d = EngineStats::default().since(&a);
        assert_eq!(d.commits, 0);
    }
}
