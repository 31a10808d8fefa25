//! Instance configuration: the paper's tuning knobs plus the calibrated
//! cost model of the simulated platform.

use recobench_sim::SimDuration;

/// Configuration of a database instance.
///
/// The first four fields are exactly the knobs the paper's Table 3 varies
/// (redo log file size, number of redo groups, checkpoint timeout, archive
/// mode); the rest size the instance and the simulated platform.
///
/// ```
/// use recobench_engine::InstanceConfig;
///
/// let cfg = InstanceConfig::builder()
///     .redo_file_mb(40)
///     .redo_groups(3)
///     .checkpoint_timeout_secs(600)
///     .archive_mode(true)
///     .build();
/// assert_eq!(cfg.redo_file_bytes, 40 * 1024 * 1024);
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct InstanceConfig {
    /// Size of each online redo log file, in bytes.
    pub redo_file_bytes: u64,
    /// Number of online redo log groups (minimum two).
    pub redo_groups: u32,
    /// `log_checkpoint_timeout`: the incremental checkpoint position may
    /// not lag the tail of the log by more than this much time.
    pub checkpoint_timeout: SimDuration,
    /// Whether filled online logs are archived (ARCHIVELOG mode).
    pub archive_mode: bool,
    /// Buffer cache capacity, in blocks.
    pub cache_blocks: usize,
    /// Database block size in bytes.
    pub block_size: u32,
    /// How often the database writer evaluates the incremental checkpoint
    /// target.
    pub dbwr_tick: SimDuration,
    /// Calibrated platform costs.
    pub costs: CostModel,
}

impl InstanceConfig {
    /// Starts building a configuration from the defaults.
    pub fn builder() -> InstanceConfigBuilder {
        InstanceConfigBuilder { cfg: InstanceConfig::default() }
    }
}

impl Default for InstanceConfig {
    fn default() -> Self {
        InstanceConfig {
            redo_file_bytes: 40 * 1024 * 1024,
            redo_groups: 3,
            checkpoint_timeout: SimDuration::from_secs(600),
            archive_mode: true,
            cache_blocks: 384,
            block_size: 8192,
            dbwr_tick: SimDuration::from_secs(5),
            costs: CostModel::default(),
        }
    }
}

/// Builder for [`InstanceConfig`].
#[derive(Debug, Clone)]
pub struct InstanceConfigBuilder {
    cfg: InstanceConfig,
}

impl InstanceConfigBuilder {
    /// Sets the online redo log file size in megabytes.
    pub fn redo_file_mb(mut self, mb: u64) -> Self {
        self.cfg.redo_file_bytes = mb * 1024 * 1024;
        self
    }

    /// Sets the online redo log file size in bytes.
    pub fn redo_file_bytes(mut self, bytes: u64) -> Self {
        self.cfg.redo_file_bytes = bytes;
        self
    }

    /// Sets the number of online redo log groups.
    ///
    /// # Panics
    ///
    /// Panics if `groups < 2` (the engine, like Oracle, requires two).
    pub fn redo_groups(mut self, groups: u32) -> Self {
        assert!(groups >= 2, "at least two redo log groups are required");
        self.cfg.redo_groups = groups;
        self
    }

    /// Sets `log_checkpoint_timeout` in seconds.
    pub fn checkpoint_timeout_secs(mut self, secs: u64) -> Self {
        self.cfg.checkpoint_timeout = SimDuration::from_secs(secs);
        self
    }

    /// Enables or disables ARCHIVELOG mode.
    pub fn archive_mode(mut self, on: bool) -> Self {
        self.cfg.archive_mode = on;
        self
    }

    /// Sets the buffer cache capacity in blocks.
    pub fn cache_blocks(mut self, blocks: usize) -> Self {
        self.cfg.cache_blocks = blocks;
        self
    }

    /// Finishes the builder.
    pub fn build(self) -> InstanceConfig {
        self.cfg
    }
}

/// Calibrated costs of the simulated platform (a year-2000 Pentium III
/// class server, per DESIGN.md §6). These are *platform* constants — the
/// quantities the paper varies live in [`InstanceConfig`].
#[derive(Debug, Clone, PartialEq)]
pub struct CostModel {
    /// CPU time to execute one DML row operation.
    pub cpu_per_dml: SimDuration,
    /// CPU time to execute one row read (excluding I/O).
    pub cpu_per_read: SimDuration,
    /// CPU time of transaction begin/commit bookkeeping.
    pub cpu_commit: SimDuration,
    /// Extra bytes charged per redo record beyond its logical encoding,
    /// modelling Oracle's block-level change vectors. Calibrated so the
    /// full-throughput redo generation rate is ~0.45 MB/s, which is what
    /// the paper's Table 3 "#CKPT per experiment" column implies.
    pub redo_overhead_bytes: u64,
    /// CPU time to re-apply one redo record during recovery.
    pub cpu_apply_record: SimDuration,
    /// CPU time to scan past one non-matching redo record during filtered
    /// (single-datafile) recovery.
    pub cpu_skip_record: SimDuration,
    /// Fixed per-archive-file processing overhead during media recovery
    /// (open, header validation, sequence switch).
    pub archive_file_overhead: SimDuration,
    /// Fixed instance startup cost (process creation, SGA allocation).
    pub instance_startup: SimDuration,
    /// Cost of mounting and opening the database (control file reads,
    /// datafile header checks).
    pub mount_open: SimDuration,
    /// Cost of an administrative command round-trip (server manager).
    pub admin_command: SimDuration,
    /// Nominal size of the database for backup/restore sizing. The scaled
    /// TPC-C rows occupy far less, but restore time must reflect the
    /// paper's full-size database.
    pub nominal_db_bytes: u64,
    /// Extra latency added to every archive shipped to a stand-by server
    /// (network copy).
    pub standby_ship_latency: SimDuration,
    /// Fixed part of stand-by activation (role switch, client failover).
    pub standby_activation: SimDuration,
}

impl Default for CostModel {
    fn default() -> Self {
        CostModel {
            cpu_per_dml: SimDuration::from_micros(100),
            cpu_per_read: SimDuration::from_micros(50),
            cpu_commit: SimDuration::from_micros(300),
            redo_overhead_bytes: 640,
            cpu_apply_record: SimDuration::from_micros(350),
            cpu_skip_record: SimDuration::from_micros(45),
            archive_file_overhead: SimDuration::from_millis(1_000),
            instance_startup: SimDuration::from_secs(11),
            mount_open: SimDuration::from_secs(2),
            admin_command: SimDuration::from_millis(700),
            nominal_db_bytes: 4_500 * 1024 * 1024,
            standby_ship_latency: SimDuration::from_millis(500),
            standby_activation: SimDuration::from_secs(18),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn builder_sets_paper_knobs() {
        let cfg = InstanceConfig::builder()
            .redo_file_mb(1)
            .redo_groups(6)
            .checkpoint_timeout_secs(60)
            .archive_mode(false)
            .build();
        assert_eq!(cfg.redo_file_bytes, 1024 * 1024);
        assert_eq!(cfg.redo_groups, 6);
        assert_eq!(cfg.checkpoint_timeout, SimDuration::from_secs(60));
        assert!(!cfg.archive_mode);
    }

    #[test]
    #[should_panic(expected = "two redo log groups")]
    fn builder_rejects_single_group() {
        let _ = InstanceConfig::builder().redo_groups(1);
    }

    #[test]
    fn default_is_a_valid_table3_config() {
        // The default is F40G3T10 — one of the paper's configurations.
        let cfg = InstanceConfig::default();
        assert_eq!(cfg.redo_file_bytes, 40 * 1024 * 1024);
        assert_eq!(cfg.redo_groups, 3);
        assert_eq!(cfg.checkpoint_timeout, SimDuration::from_secs(600));
    }
}
