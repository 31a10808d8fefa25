//! The benchmark's measures: performance plus the paper's three
//! dependability extensions.

/// Measures of one experiment, taken from the end-user point of view.
#[derive(Debug, Clone, PartialEq)]
pub struct Measures {
    /// Committed New-Order transactions per minute over the measurement
    /// window (up to the fault, or the whole run when fault-free).
    pub tpmc: f64,
    /// Recovery time in seconds: from fault activation until transaction
    /// execution is re-established at the client. `None` for fault-free
    /// runs; also `None` when the run ended before service returned (the
    /// paper reports those cells as "> 600").
    pub recovery_time_secs: Option<f64>,
    /// Whether service returned before the experiment ended.
    pub recovered_within_run: bool,
    /// Committed-and-acknowledged transactions whose effects are missing
    /// after recovery.
    pub lost_transactions: u64,
    /// TPC-C consistency violations detected after recovery.
    pub integrity_violations: u64,
    /// Log-switch (full) checkpoints during the run — Table 3's
    /// "#CKPT per Experiment" column.
    pub checkpoints: u64,
    /// Log switches during the run.
    pub log_switches: u64,
    /// Redo generated during the run, in MB (change vectors included).
    pub redo_mb: f64,
    /// Transaction attempts that failed with an error.
    pub client_errors: u64,
    /// Committed transactions of all five profiles.
    pub total_commits: u64,
}

impl Measures {
    /// Renders the recovery time the way the paper's tables do:
    /// seconds, or `> <cap>` when service did not return within the run.
    pub fn recovery_cell(&self, cap_secs: u64) -> String {
        match (self.recovery_time_secs, self.recovered_within_run) {
            (Some(rt), true) => format!("{rt:.0}"),
            (_, false) => format!(">{cap_secs}"),
            (None, true) => "-".to_string(),
        }
    }
}

/// Where a recovery's time went, decomposed by engine phase, in
/// microseconds of simulated time.
///
/// Built from the engine's `PhaseSpan` events clipped to the window
/// between fault activation and the end of the recovery procedure;
/// `other_us` absorbs whatever that window contains that no span claims
/// (detection gaps, admin-command latencies) and `service_resume_us` is
/// the tail from the procedure finishing to the first transaction
/// committing at the client again. By construction
/// [`total_us`](RecoveryBreakdown::total_us) equals the reported recovery
/// time exactly.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct RecoveryBreakdown {
    /// Operator detection time between fault activation and the start of
    /// the recovery procedure.
    pub detection_us: u64,
    /// Instance restart: startup + mount (+ `RECOVER` admin command).
    pub instance_startup_us: u64,
    /// Restoring datafiles from the cold backup.
    pub media_restore_us: u64,
    /// Reading online and archived redo.
    pub redo_scan_us: u64,
    /// Applying (or skipping) scanned redo records.
    pub redo_apply_us: u64,
    /// Rolling back transactions left unresolved by replay.
    pub txn_rollback_us: u64,
    /// Stand-by activation (failover experiments only).
    pub standby_activation_us: u64,
    /// Recovery-window time not attributed to any phase span.
    pub other_us: u64,
    /// From the recovery procedure finishing to the first client commit.
    pub service_resume_us: u64,
}

impl RecoveryBreakdown {
    /// Total microseconds — equals the recovery time reported in
    /// [`Measures::recovery_time_secs`] by construction.
    pub fn total_us(&self) -> u64 {
        self.detection_us
            + self.instance_startup_us
            + self.media_restore_us
            + self.redo_scan_us
            + self.redo_apply_us
            + self.txn_rollback_us
            + self.standby_activation_us
            + self.other_us
            + self.service_resume_us
    }
}

impl Default for Measures {
    fn default() -> Self {
        Measures {
            tpmc: 0.0,
            recovery_time_secs: None,
            recovered_within_run: true,
            lost_transactions: 0,
            integrity_violations: 0,
            checkpoints: 0,
            log_switches: 0,
            redo_mb: 0.0,
            client_errors: 0,
            total_commits: 0,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn breakdown_totals_sum_every_phase() {
        let b = RecoveryBreakdown {
            detection_us: 1,
            instance_startup_us: 2,
            media_restore_us: 3,
            redo_scan_us: 4,
            redo_apply_us: 5,
            txn_rollback_us: 6,
            standby_activation_us: 7,
            other_us: 8,
            service_resume_us: 500_000,
        };
        assert_eq!(b.total_us(), 500_036);
    }

    #[test]
    fn recovery_cell_formats_like_the_paper() {
        let mut m = Measures { recovery_time_secs: Some(34.4), ..Default::default() };
        assert_eq!(m.recovery_cell(600), "34");
        m.recovered_within_run = false;
        assert_eq!(m.recovery_cell(600), ">600");
        let fault_free = Measures::default();
        assert_eq!(fault_free.recovery_cell(600), "-");
    }
}
