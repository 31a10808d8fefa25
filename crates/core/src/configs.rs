//! The recovery configurations of the paper's Table 3.

use recobench_engine::InstanceConfig;

/// One recovery configuration: the knobs the paper varies.
///
/// Names follow the paper's scheme: `F<file MB>G<groups>T<timeout minutes>`
/// — e.g. `F40G3T10` is 40 MB redo files, 3 groups, a 600 s checkpoint
/// timeout.
///
/// ```
/// use recobench_core::RecoveryConfig;
///
/// let c = RecoveryConfig::named("F10G3T5").unwrap();
/// assert_eq!(c.redo_file_mb, 10);
/// assert_eq!(c.redo_groups, 3);
/// assert_eq!(c.checkpoint_timeout_secs, 300);
/// ```
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct RecoveryConfig {
    /// Paper-style name.
    pub name: String,
    /// Online redo log file size in megabytes.
    pub redo_file_mb: u64,
    /// Number of online redo log groups.
    pub redo_groups: u32,
    /// `log_checkpoint_timeout` in seconds.
    pub checkpoint_timeout_secs: u64,
}

impl RecoveryConfig {
    /// Builds a configuration from its components.
    pub fn new(redo_file_mb: u64, redo_groups: u32, checkpoint_timeout_secs: u64) -> Self {
        RecoveryConfig {
            name: format!("F{redo_file_mb}G{redo_groups}T{}", checkpoint_timeout_secs / 60),
            redo_file_mb,
            redo_groups,
            checkpoint_timeout_secs,
        }
    }

    /// Parses a paper-style name like `F40G3T10`.
    ///
    /// Returns `None` when the name does not follow the scheme.
    pub fn named(name: &str) -> Option<RecoveryConfig> {
        let rest = name.strip_prefix('F')?;
        let g_pos = rest.find('G')?;
        let t_pos = rest.find('T')?;
        let file_mb: u64 = rest[..g_pos].parse().ok()?;
        let groups: u32 = rest[g_pos + 1..t_pos].parse().ok()?;
        let timeout_min: u64 = rest[t_pos + 1..].parse().ok()?;
        if groups < 2 {
            return None;
        }
        Some(RecoveryConfig::new(file_mb, groups, timeout_min * 60))
    }

    /// The sixteen configurations of the paper's Table 3, in its order.
    pub fn table3() -> Vec<RecoveryConfig> {
        [
            (400, 3, 20),
            (400, 3, 10),
            (400, 3, 5),
            (400, 3, 1),
            (100, 3, 20),
            (100, 3, 10),
            (100, 3, 5),
            (100, 3, 1),
            (40, 3, 10),
            (40, 3, 5),
            (40, 3, 1),
            (10, 3, 5),
            (10, 3, 1),
            (1, 6, 1),
            (1, 3, 1),
            (1, 2, 1),
        ]
        .into_iter()
        .map(|(f, g, t_min)| RecoveryConfig::new(f, g, t_min * 60))
        .collect()
    }

    /// The archive-log subset the paper uses for §5.2 (F40G3T10 … F1G2T1;
    /// larger files would not start archiving within one experiment).
    pub fn archive_subset() -> Vec<RecoveryConfig> {
        RecoveryConfig::table3().into_iter().filter(|c| c.redo_file_mb <= 40).collect()
    }

    /// Converts to an engine [`InstanceConfig`].
    pub fn to_instance_config(&self, archive_mode: bool) -> InstanceConfig {
        InstanceConfig::builder()
            .redo_file_mb(self.redo_file_mb)
            .redo_groups(self.redo_groups)
            .checkpoint_timeout_secs(self.checkpoint_timeout_secs)
            .archive_mode(archive_mode)
            .build()
    }

    /// The number of log-switch checkpoints the paper observed for this
    /// configuration over a 20-minute run (the "#CKPT per Experiment"
    /// column of Table 3) — used as a calibration reference.
    pub fn paper_checkpoints(&self) -> Option<u64> {
        let v = match self.name.as_str() {
            "F400G3T20" | "F400G3T10" | "F400G3T5" | "F400G3T1" => 1,
            "F100G3T20" | "F100G3T10" | "F100G3T5" => 5,
            "F100G3T1" => 4,
            "F40G3T10" => 13,
            "F40G3T5" => 12,
            "F40G3T1" => 14,
            "F10G3T5" => 54,
            "F10G3T1" => 55,
            "F1G6T1" => 319,
            "F1G3T1" => 380,
            "F1G2T1" => 263,
            _ => return None,
        };
        Some(v)
    }
}

impl std::fmt::Display for RecoveryConfig {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(&self.name)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn table3_has_sixteen_named_configs() {
        let configs = RecoveryConfig::table3();
        assert_eq!(configs.len(), 16);
        assert_eq!(configs[0].name, "F400G3T20");
        assert_eq!(configs[15].name, "F1G2T1");
        for c in &configs {
            assert!(c.paper_checkpoints().is_some(), "{} lacks a paper reference", c.name);
        }
    }

    #[test]
    fn name_round_trips() {
        for c in RecoveryConfig::table3() {
            let parsed = RecoveryConfig::named(&c.name).unwrap();
            assert_eq!(parsed, c);
        }
    }

    #[test]
    fn named_rejects_garbage() {
        assert!(RecoveryConfig::named("XYZ").is_none());
        assert!(RecoveryConfig::named("F40G1T10").is_none(), "one group is invalid");
        assert!(RecoveryConfig::named("FxxG3T1").is_none());
    }

    #[test]
    fn archive_subset_drops_large_files() {
        let subset = RecoveryConfig::archive_subset();
        assert_eq!(subset.len(), 8);
        assert!(subset.iter().all(|c| c.redo_file_mb <= 40));
    }

    #[test]
    fn converts_to_instance_config() {
        let c = RecoveryConfig::named("F1G6T1").unwrap();
        let ic = c.to_instance_config(true);
        assert_eq!(ic.redo_file_bytes, 1024 * 1024);
        assert_eq!(ic.redo_groups, 6);
        assert!(ic.archive_mode);
    }
}
