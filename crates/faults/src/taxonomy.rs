//! The operator-fault classification (paper Tables 1 and 2).

use std::fmt;

/// The five classes of DBMS operator faults (paper Table 1).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum FaultClass {
    /// Mistakes in the administration of processes and memory structures
    /// (wrong SGA parameters, accidental shutdown, killed sessions).
    MemoryAndProcesses,
    /// Mistakes in passwords, privileges, quotas and profiles.
    SecurityManagement,
    /// Mistakes in the administration of physical and logical storage
    /// (removed or corrupted files, bad file distribution, space
    /// exhaustion).
    StorageAdministration,
    /// Errors in the management of user objects (dropped tables, wrong
    /// storage or optimization settings).
    DatabaseObjectAdministration,
    /// Mistakes in the configuration of the recovery mechanisms (missing
    /// backups, lost log or archive files).
    RecoveryMechanismsAdministration,
}

impl FaultClass {
    /// All five classes, in the paper's order.
    pub fn all() -> [FaultClass; 5] {
        [
            FaultClass::MemoryAndProcesses,
            FaultClass::SecurityManagement,
            FaultClass::StorageAdministration,
            FaultClass::DatabaseObjectAdministration,
            FaultClass::RecoveryMechanismsAdministration,
        ]
    }

    /// The paper's description of the class.
    pub fn description(self) -> &'static str {
        match self {
            FaultClass::MemoryAndProcesses => {
                "mistakes in the administration of processes and memory structures"
            }
            FaultClass::SecurityManagement => {
                "mistakes in the attribution of passwords, access privileges and disk space"
            }
            FaultClass::StorageAdministration => {
                "mistakes in the administration of the physical and logical storage structures"
            }
            FaultClass::DatabaseObjectAdministration => {
                "errors related to the management of the user objects"
            }
            FaultClass::RecoveryMechanismsAdministration => {
                "mistakes in the configuration and administration of the recovery mechanisms"
            }
        }
    }
}

impl fmt::Display for FaultClass {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let name = match self {
            FaultClass::MemoryAndProcesses => "Memory & processes admin.",
            FaultClass::SecurityManagement => "Security management",
            FaultClass::StorageAdministration => "Storage administration",
            FaultClass::DatabaseObjectAdministration => "Database object admin.",
            FaultClass::RecoveryMechanismsAdministration => "Recovery mechanisms admin.",
        };
        f.write_str(name)
    }
}

/// Portability of a concrete fault type to DBMS other than Oracle 8i
/// (the right-hand column of the paper's Table 2).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Portability {
    /// Exactly the same fault exists in other DBMS.
    Yes,
    /// A fault with equivalent effects exists after translation.
    Equivalent,
    /// Specific to Oracle 8i.
    OracleSpecific,
}

impl fmt::Display for Portability {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(match self {
            Portability::Yes => "Yes",
            Portability::Equivalent => "Equivalent",
            Portability::OracleSpecific => "Oracle",
        })
    }
}

/// The concrete operator fault types of the paper's Table 2.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
#[allow(missing_docs)] // the names are the documentation; see `description`
pub enum OperatorFaultType {
    InstanceShutdown,
    RemoveInitializationFile,
    MisconfigureSgaParameters,
    MisconfigureMaxUserSessions,
    KillUserSession,
    DatabaseAccessLevelFault,
    IncorrectPrivileges,
    IncorrectDiskQuotas,
    IncorrectProfiles,
    IncorrectTablespaceAttribution,
    DeleteControlfileTablespaceOrRollbackSegment,
    DeleteDatafile,
    IncorrectDatafileDistribution,
    InsufficientRollbackSegments,
    SetTablespaceOffline,
    SetDatafileOffline,
    SetRollbackSegmentOffline,
    TablespaceOutOfSpace,
    RollbackSegmentOutOfSpace,
    DeleteDatabaseUser,
    DeleteUsersObject,
    IncorrectObjectStorageParameters,
    SetNologgingOnTables,
    IncorrectOptimizationStructures,
    DeleteRedoLogFileOrGroup,
    RedoLogMembersOnSameDisk,
    InsufficientRedoLogGroups,
    NoArchiveLogs,
    DeleteArchiveLogFile,
    ArchiveFilesOnDataDisk,
    MissingBackups,
}

impl OperatorFaultType {
    /// Every type, in the paper's Table 2 order.
    pub fn all() -> Vec<OperatorFaultType> {
        use OperatorFaultType::*;
        vec![
            InstanceShutdown,
            RemoveInitializationFile,
            MisconfigureSgaParameters,
            MisconfigureMaxUserSessions,
            KillUserSession,
            DatabaseAccessLevelFault,
            IncorrectPrivileges,
            IncorrectDiskQuotas,
            IncorrectProfiles,
            IncorrectTablespaceAttribution,
            DeleteControlfileTablespaceOrRollbackSegment,
            DeleteDatafile,
            IncorrectDatafileDistribution,
            InsufficientRollbackSegments,
            SetTablespaceOffline,
            SetDatafileOffline,
            SetRollbackSegmentOffline,
            TablespaceOutOfSpace,
            RollbackSegmentOutOfSpace,
            DeleteDatabaseUser,
            DeleteUsersObject,
            IncorrectObjectStorageParameters,
            SetNologgingOnTables,
            IncorrectOptimizationStructures,
            DeleteRedoLogFileOrGroup,
            RedoLogMembersOnSameDisk,
            InsufficientRedoLogGroups,
            NoArchiveLogs,
            DeleteArchiveLogFile,
            ArchiveFilesOnDataDisk,
            MissingBackups,
        ]
    }

    /// The class the type belongs to.
    pub fn class(self) -> FaultClass {
        use OperatorFaultType::*;
        match self {
            InstanceShutdown | RemoveInitializationFile | MisconfigureSgaParameters
            | MisconfigureMaxUserSessions | KillUserSession => FaultClass::MemoryAndProcesses,
            DatabaseAccessLevelFault | IncorrectPrivileges | IncorrectDiskQuotas
            | IncorrectProfiles | IncorrectTablespaceAttribution => FaultClass::SecurityManagement,
            DeleteControlfileTablespaceOrRollbackSegment
            | DeleteDatafile
            | IncorrectDatafileDistribution
            | InsufficientRollbackSegments
            | SetTablespaceOffline
            | SetDatafileOffline
            | SetRollbackSegmentOffline
            | TablespaceOutOfSpace
            | RollbackSegmentOutOfSpace => FaultClass::StorageAdministration,
            DeleteDatabaseUser | DeleteUsersObject | IncorrectObjectStorageParameters
            | SetNologgingOnTables | IncorrectOptimizationStructures => {
                FaultClass::DatabaseObjectAdministration
            }
            DeleteRedoLogFileOrGroup | RedoLogMembersOnSameDisk | InsufficientRedoLogGroups
            | NoArchiveLogs | DeleteArchiveLogFile | ArchiveFilesOnDataDisk | MissingBackups => {
                FaultClass::RecoveryMechanismsAdministration
            }
        }
    }

    /// Portability rating from the paper's Table 2.
    pub fn portability(self) -> Portability {
        use OperatorFaultType::*;
        match self {
            InstanceShutdown | RemoveInitializationFile | MisconfigureSgaParameters
            | MisconfigureMaxUserSessions | KillUserSession | DatabaseAccessLevelFault
            | IncorrectDatafileDistribution | DeleteDatabaseUser | DeleteUsersObject
            | IncorrectOptimizationStructures => Portability::Yes,
            IncorrectPrivileges | IncorrectDiskQuotas | IncorrectProfiles | DeleteDatafile
            | SetDatafileOffline | IncorrectObjectStorageParameters | DeleteRedoLogFileOrGroup
            | RedoLogMembersOnSameDisk | InsufficientRedoLogGroups | NoArchiveLogs
            | DeleteArchiveLogFile | ArchiveFilesOnDataDisk | MissingBackups => {
                Portability::Equivalent
            }
            IncorrectTablespaceAttribution
            | DeleteControlfileTablespaceOrRollbackSegment
            | InsufficientRollbackSegments
            | SetTablespaceOffline
            | SetRollbackSegmentOffline
            | TablespaceOutOfSpace
            | RollbackSegmentOutOfSpace
            | SetNologgingOnTables => Portability::OracleSpecific,
        }
    }

    /// Human-readable description (the Table 2 row text).
    pub fn description(self) -> &'static str {
        use OperatorFaultType::*;
        match self {
            InstanceShutdown => "making a database instance shutdown",
            RemoveInitializationFile => "removing or corrupting the initialization file",
            MisconfigureSgaParameters => "incorrect configuration of the SGA parameters",
            MisconfigureMaxUserSessions => "incorrect config. max. number of user sessions",
            KillUserSession => "killing a user session",
            DatabaseAccessLevelFault => "database access level faults (passwords)",
            IncorrectPrivileges => "incorrect attribution of system and object privileges",
            IncorrectDiskQuotas => "attribution of incorrect disk quotas to users",
            IncorrectProfiles => "attribution of incorrect profiles to users",
            IncorrectTablespaceAttribution => "incorrect attribution of tablespaces to users",
            DeleteControlfileTablespaceOrRollbackSegment => {
                "delete a controlfile, tablespace or rollback segment"
            }
            DeleteDatafile => "delete a datafile",
            IncorrectDatafileDistribution => "incorrect distribution of datafiles through disks",
            InsufficientRollbackSegments => "insufficient number of rollback segments",
            SetTablespaceOffline => "set a tablespace offline",
            SetDatafileOffline => "set a datafile offline",
            SetRollbackSegmentOffline => "set a rollback segment offline",
            TablespaceOutOfSpace => "allow a tablespace to run out of space",
            RollbackSegmentOutOfSpace => "allow a rollback segment to run out of space",
            DeleteDatabaseUser => "delete a database user",
            DeleteUsersObject => "delete any user's database object",
            IncorrectObjectStorageParameters => "incorrect config. object's storage parameters",
            SetNologgingOnTables => "set the NOLOGGING option in tables",
            IncorrectOptimizationStructures => "incorrect use of optimization structures",
            DeleteRedoLogFileOrGroup => "delete a redo log file or group",
            RedoLogMembersOnSameDisk => "store all redo log group members in same disk",
            InsufficientRedoLogGroups => "insufficient redo log groups to support archive",
            NoArchiveLogs => "inexistence of archive logs",
            DeleteArchiveLogFile => "delete a archive log file",
            ArchiveFilesOnDataDisk => "store archive files in the same disk as data files",
            MissingBackups => "backups missing to allow recovery",
        }
    }

    /// The injectable subset this type is represented by in the
    /// experiments, if any (paper §4: six types chosen to cover the
    /// effects of the others).
    pub fn representative(self) -> Option<FaultType> {
        use OperatorFaultType::*;
        match self {
            InstanceShutdown | KillUserSession | RemoveInitializationFile => {
                Some(FaultType::ShutdownAbort)
            }
            DeleteDatafile => Some(FaultType::DeleteDatafile),
            DeleteControlfileTablespaceOrRollbackSegment => Some(FaultType::DeleteTablespace),
            SetDatafileOffline => Some(FaultType::SetDatafileOffline),
            SetTablespaceOffline => Some(FaultType::SetTablespaceOffline),
            DeleteUsersObject | DeleteDatabaseUser => Some(FaultType::DeleteUsersObject),
            _ => None,
        }
    }
}

/// Whether a fault leads to *complete* recovery (no committed work lost —
/// paper Table 5) or *incomplete* recovery (the tail of history is
/// sacrificed — paper Table 4).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum RecoveryKind {
    /// All committed transactions survive.
    Complete,
    /// Committed transactions after the recovery stop point are lost.
    Incomplete,
}

/// The six fault types injected in the paper's experiments.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum FaultType {
    /// `SHUTDOWN ABORT` of the instance.
    ShutdownAbort,
    /// OS-level deletion of a datafile.
    DeleteDatafile,
    /// Dropping a whole tablespace including contents and datafiles.
    DeleteTablespace,
    /// Taking a datafile offline.
    SetDatafileOffline,
    /// Taking a tablespace offline.
    SetTablespaceOffline,
    /// Dropping a user table.
    DeleteUsersObject,
}

impl FaultType {
    /// All six, in the paper's order.
    pub fn all() -> [FaultType; 6] {
        [
            FaultType::ShutdownAbort,
            FaultType::DeleteDatafile,
            FaultType::DeleteTablespace,
            FaultType::SetDatafileOffline,
            FaultType::SetTablespaceOffline,
            FaultType::DeleteUsersObject,
        ]
    }

    /// Which recovery the fault requires (the paper's Table 4 / Table 5
    /// split).
    pub fn recovery_kind(self) -> RecoveryKind {
        match self {
            FaultType::DeleteTablespace | FaultType::DeleteUsersObject => RecoveryKind::Incomplete,
            _ => RecoveryKind::Complete,
        }
    }

    /// The class the fault belongs to.
    pub fn class(self) -> FaultClass {
        match self {
            FaultType::ShutdownAbort => FaultClass::MemoryAndProcesses,
            FaultType::DeleteDatafile
            | FaultType::DeleteTablespace
            | FaultType::SetDatafileOffline
            | FaultType::SetTablespaceOffline => FaultClass::StorageAdministration,
            FaultType::DeleteUsersObject => FaultClass::DatabaseObjectAdministration,
        }
    }
}

/// Storage-hardware fault types injected through the simulated
/// filesystem's fault layer (`recobench_vfs::FaultArm`), extending the
/// paper's operator faultload with the hardware failures a storage
/// administrator also has to survive: torn block writes, interrupted log
/// appends, silent bit-rot, disk-space exhaustion, and a limping disk.
///
/// All five resolve with *complete* recovery — none of them is a
/// committed operator mistake, so no history needs to be sacrificed. The
/// first three are detected by the engine's per-block CRC checksums (and
/// by the torn-tail end-of-log rule for the redo log); the last two are
/// loud at the vfs level (`ENOSPC` / latency).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum StorageFaultType {
    /// A block write persists only a prefix of the new image; the rest of
    /// the block keeps its previous contents (torn page).
    TornWrite,
    /// A redo-log append is interrupted mid-write: a prefix of the span
    /// persists and the writer sees an error (torn log tail).
    PartialAppend,
    /// One bit of one written block flips silently on the media.
    BitRot,
    /// The disk runs out of space: writes fail with `ENOSPC` until the
    /// operator frees space.
    DiskFull,
    /// A limping disk: every I/O internally retries, multiplying service
    /// time. A pure performance fault — no data is damaged.
    SlowIo,
}

impl StorageFaultType {
    /// All five, in a fixed order.
    pub fn all() -> [StorageFaultType; 5] {
        [
            StorageFaultType::TornWrite,
            StorageFaultType::PartialAppend,
            StorageFaultType::BitRot,
            StorageFaultType::DiskFull,
            StorageFaultType::SlowIo,
        ]
    }

    /// Stable snake_case name used in schedule JSON and reports.
    pub fn name(self) -> &'static str {
        match self {
            StorageFaultType::TornWrite => "torn_write",
            StorageFaultType::PartialAppend => "partial_append",
            StorageFaultType::BitRot => "bit_rot",
            StorageFaultType::DiskFull => "disk_full",
            StorageFaultType::SlowIo => "slow_io",
        }
    }

    /// Human-readable description of the hardware failure.
    pub fn description(self) -> &'static str {
        match self {
            StorageFaultType::TornWrite => "torn block write (prefix of the image persists)",
            StorageFaultType::PartialAppend => "interrupted redo append (torn log tail)",
            StorageFaultType::BitRot => "silent single-bit rot in a written block",
            StorageFaultType::DiskFull => "disk out of space (ENOSPC on writes)",
            StorageFaultType::SlowIo => "limping disk (every I/O retried, multiplying latency)",
        }
    }

    /// The taxonomy class the fault maps into: storage administration —
    /// the same territory the paper's removed/corrupted-file faults cover.
    pub fn class(self) -> FaultClass {
        FaultClass::StorageAdministration
    }

    /// Storage-hardware faults never require sacrificing committed
    /// history: detection plus media or crash recovery restores them.
    pub fn recovery_kind(self) -> RecoveryKind {
        RecoveryKind::Complete
    }
}

/// Replica-set fault types: node and shipping failures a high-availability
/// operator has to survive when running stand-by replicas behind the
/// primary (engine `ReplicaSet`). They extend the paper's single-server
/// faultload to the replicated deployments §5.3 motivates.
///
/// Replica faults resolve with *complete* recovery from the client's point
/// of view only when failover succeeds with no acknowledged commit left
/// behind on the dead primary; otherwise the tail between the promoted
/// node's last applied commit and the crash is sacrificed — the same
/// incomplete-recovery shape as the paper's Table 4, but decided by
/// replication lag rather than by a restore stop point.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum ReplicaFaultType {
    /// Kill the primary instance outright; the replica set must detect it
    /// and promote a stand-by (quorum or operator decision).
    KillPrimary,
    /// Kill the *newly promoted* node after a failover — the classic
    /// double fault. Requires a prior [`ReplicaFaultType::KillPrimary`] in
    /// the same schedule to have any effect.
    KillPromoted,
    /// Corrupt the next archived log copy shipped to a stand-by: the copy
    /// fails decode on arrival and the stand-by freezes (typed
    /// `ShippedArchiveCorrupt`), keeping its vote but losing candidacy as
    /// it falls behind.
    CorruptShippedArchive,
    /// Partition a stand-by from the rest of the set: it stops receiving
    /// archives and cannot vote in quorum decisions until healed.
    PartitionReplica,
}

impl ReplicaFaultType {
    /// All four, in a fixed order.
    pub fn all() -> [ReplicaFaultType; 4] {
        [
            ReplicaFaultType::KillPrimary,
            ReplicaFaultType::KillPromoted,
            ReplicaFaultType::CorruptShippedArchive,
            ReplicaFaultType::PartitionReplica,
        ]
    }

    /// Stable snake_case name used in schedule JSON and reports.
    pub fn name(self) -> &'static str {
        match self {
            ReplicaFaultType::KillPrimary => "kill_primary",
            ReplicaFaultType::KillPromoted => "kill_promoted",
            ReplicaFaultType::CorruptShippedArchive => "corrupt_shipped_archive",
            ReplicaFaultType::PartitionReplica => "partition_replica",
        }
    }

    /// Human-readable description of the failure.
    pub fn description(self) -> &'static str {
        match self {
            ReplicaFaultType::KillPrimary => "kill the primary; the replica set must fail over",
            ReplicaFaultType::KillPromoted => {
                "kill the newly promoted node after failover (double fault)"
            }
            ReplicaFaultType::CorruptShippedArchive => {
                "corrupt the next shipped archive copy on a stand-by"
            }
            ReplicaFaultType::PartitionReplica => {
                "partition a stand-by away from the set (no archives, no vote)"
            }
        }
    }

    /// The taxonomy class the fault maps into: all four are failures of
    /// the recovery machinery itself (the stand-by apparatus the paper
    /// files under recovery-mechanisms administration).
    pub fn class(self) -> FaultClass {
        FaultClass::RecoveryMechanismsAdministration
    }

    /// Whether committed history can be lost. Killing an instance is
    /// recoverable in full as long as a sufficiently caught-up stand-by
    /// wins promotion; shipping corruption and partitions damage only the
    /// replica, never acknowledged history.
    pub fn recovery_kind(self) -> RecoveryKind {
        match self {
            ReplicaFaultType::KillPrimary | ReplicaFaultType::KillPromoted => {
                RecoveryKind::Incomplete
            }
            ReplicaFaultType::CorruptShippedArchive | ReplicaFaultType::PartitionReplica => {
                RecoveryKind::Complete
            }
        }
    }
}

impl fmt::Display for ReplicaFaultType {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(match self {
            ReplicaFaultType::KillPrimary => "Kill primary",
            ReplicaFaultType::KillPromoted => "Kill promoted node",
            ReplicaFaultType::CorruptShippedArchive => "Corrupt shipped archive",
            ReplicaFaultType::PartitionReplica => "Partition replica",
        })
    }
}

impl fmt::Display for StorageFaultType {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(match self {
            StorageFaultType::TornWrite => "Torn block write",
            StorageFaultType::PartialAppend => "Partial redo append",
            StorageFaultType::BitRot => "Silent bit-rot",
            StorageFaultType::DiskFull => "Disk full",
            StorageFaultType::SlowIo => "Slow I/O",
        })
    }
}

impl fmt::Display for FaultType {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(match self {
            FaultType::ShutdownAbort => "Shutdown abort",
            FaultType::DeleteDatafile => "Delete datafile",
            FaultType::DeleteTablespace => "Delete tablespace",
            FaultType::SetDatafileOffline => "Set datafile offline",
            FaultType::SetTablespaceOffline => "Set tablespace offline",
            FaultType::DeleteUsersObject => "Delete user's object",
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn table2_has_31_rows_in_5_classes() {
        let all = OperatorFaultType::all();
        assert_eq!(all.len(), 31);
        for class in FaultClass::all() {
            assert!(
                all.iter().any(|t| t.class() == class),
                "class {class} has no concrete type"
            );
        }
    }

    #[test]
    fn portability_matches_paper_examples() {
        assert_eq!(OperatorFaultType::InstanceShutdown.portability(), Portability::Yes);
        assert_eq!(OperatorFaultType::DeleteDatafile.portability(), Portability::Equivalent);
        assert_eq!(
            OperatorFaultType::SetTablespaceOffline.portability(),
            Portability::OracleSpecific
        );
        assert_eq!(OperatorFaultType::MissingBackups.portability(), Portability::Equivalent);
    }

    #[test]
    fn six_injectable_types_cover_three_classes() {
        let classes: std::collections::HashSet<_> =
            FaultType::all().iter().map(|f| f.class()).collect();
        assert_eq!(classes.len(), 3, "the experiments cover three fault classes");
        assert!(!classes.contains(&FaultClass::SecurityManagement));
        assert!(!classes.contains(&FaultClass::RecoveryMechanismsAdministration));
    }

    #[test]
    fn recovery_kind_split_matches_tables_4_and_5() {
        use FaultType::*;
        assert_eq!(DeleteUsersObject.recovery_kind(), RecoveryKind::Incomplete);
        assert_eq!(DeleteTablespace.recovery_kind(), RecoveryKind::Incomplete);
        for f in [ShutdownAbort, DeleteDatafile, SetDatafileOffline, SetTablespaceOffline] {
            assert_eq!(f.recovery_kind(), RecoveryKind::Complete);
        }
    }

    #[test]
    fn representatives_point_into_the_injectable_set() {
        for t in OperatorFaultType::all() {
            if let Some(rep) = t.representative() {
                assert!(FaultType::all().contains(&rep));
            }
        }
        assert_eq!(
            OperatorFaultType::KillUserSession.representative(),
            Some(FaultType::ShutdownAbort)
        );
    }

    #[test]
    fn storage_faults_are_complete_recovery_storage_class() {
        assert_eq!(StorageFaultType::all().len(), 5);
        for s in StorageFaultType::all() {
            assert_eq!(s.class(), FaultClass::StorageAdministration);
            assert_eq!(s.recovery_kind(), RecoveryKind::Complete);
            assert!(!s.name().is_empty());
            assert!(!s.description().is_empty());
            assert!(!s.to_string().is_empty());
            assert!(s.name().chars().all(|c| c.is_ascii_lowercase() || c == '_'));
        }
    }

    #[test]
    fn replica_faults_classify_as_recovery_mechanisms() {
        assert_eq!(ReplicaFaultType::all().len(), 4);
        for r in ReplicaFaultType::all() {
            assert_eq!(r.class(), FaultClass::RecoveryMechanismsAdministration);
            assert!(!r.name().is_empty());
            assert!(!r.description().is_empty());
            assert!(!r.to_string().is_empty());
            assert!(r.name().chars().all(|c| c.is_ascii_lowercase() || c == '_'));
        }
        // Node kills can lose the acked tail (replication lag); shipping
        // faults damage only the replica.
        assert_eq!(ReplicaFaultType::KillPrimary.recovery_kind(), RecoveryKind::Incomplete);
        assert_eq!(
            ReplicaFaultType::CorruptShippedArchive.recovery_kind(),
            RecoveryKind::Complete
        );
    }

    #[test]
    fn descriptions_and_display_are_nonempty() {
        for t in OperatorFaultType::all() {
            assert!(!t.description().is_empty());
        }
        for f in FaultType::all() {
            assert!(!f.to_string().is_empty());
        }
        for c in FaultClass::all() {
            assert!(!c.to_string().is_empty());
            assert!(!c.description().is_empty());
        }
    }
}
