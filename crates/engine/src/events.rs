//! Structured engine observability: timestamped, typed events and
//! recovery-phase **spans**.
//!
//! The benchmark's headline numbers are aggregates; the event stream shows
//! *why* they came out that way — when the log switched, how long the
//! switch stalled, when checkpoints completed, and, crucially, where the
//! time went during a recovery (detection, instance restart, media
//! restore, redo scan, redo apply, rollback, stand-by activation). Every
//! instant comes off the simulated clock, so spans are exact and
//! deterministic to the microsecond.
//!
//! The [`EventSink`] holds nothing but what the stream implies:
//!
//! * every event passes through [`EventSink::record`], which updates a set
//!   of **derived counters** (every `EngineStats` field but the six
//!   hot-path ones) — the counters and the stream can never disagree;
//! * subscribers registered with [`EventSink::subscribe`] see every event
//!   as it happens (the experiment harness uses this for span collection
//!   and JSONL export, tests to collect what they inspect).

use recobench_sim::SimTime;

use crate::stats::EngineStats;

/// A recovery phase measured as a span (see [`EngineEvent::PhaseSpan`]).
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub enum RecoveryPhase {
    /// Constant operator detection time between fault and procedure start.
    Detection,
    /// Instance restart: startup + mount (+ the `RECOVER` admin command
    /// for incomplete recovery).
    InstanceStartup,
    /// Restoring datafiles from the cold backup.
    MediaRestore,
    /// Reading online or archived redo (per sequence).
    RedoScan,
    /// Applying (or skipping) scanned redo records (per sequence).
    RedoApply,
    /// Rolling back transactions left unresolved by replay.
    TxnRollback,
    /// Stand-by activation: final apply, rollback, open.
    StandbyActivation,
}

impl RecoveryPhase {
    /// Stable snake_case name used in the JSONL export.
    pub fn name(self) -> &'static str {
        match self {
            RecoveryPhase::Detection => "detection",
            RecoveryPhase::InstanceStartup => "instance_startup",
            RecoveryPhase::MediaRestore => "media_restore",
            RecoveryPhase::RedoScan => "redo_scan",
            RecoveryPhase::RedoApply => "redo_apply",
            RecoveryPhase::TxnRollback => "txn_rollback",
            RecoveryPhase::StandbyActivation => "standby_activation",
        }
    }
}

/// Which recovery procedure completed (see
/// [`EngineEvent::RecoveryCompleted`]).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum RecoveryProcedure {
    /// Crash recovery during `STARTUP`.
    Crash,
    /// Single-datafile media recovery.
    Media,
    /// Incomplete (point-in-time) recovery of the whole database.
    Incomplete,
}

impl RecoveryProcedure {
    /// Stable snake_case name used in the JSONL export.
    pub fn name(self) -> &'static str {
        match self {
            RecoveryProcedure::Crash => "crash",
            RecoveryProcedure::Media => "media",
            RecoveryProcedure::Incomplete => "incomplete",
        }
    }
}

/// One engine event. The record instant (the first argument every
/// subscriber is called with) is the event's own timestamp; for
/// [`EngineEvent::PhaseSpan`] it is the span's **end**.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum EngineEvent {
    /// The log switched to a new sequence in `group`.
    LogSwitch {
        /// New sequence number.
        seq: u64,
        /// Group now being written.
        group: usize,
    },
    /// A log switch stalled waiting for the next group to become reusable.
    SwitchStall {
        /// Sequence that could not start immediately.
        seq: u64,
        /// Stall length in microseconds.
        micros: u64,
    },
    /// A full checkpoint completed.
    Checkpoint {
        /// Blocks written.
        blocks: u64,
        /// Completion instant.
        complete_at: SimTime,
    },
    /// The incremental checkpoint position advanced (DBWR tick).
    IncrementalAdvance {
        /// Blocks written by the tick.
        blocks: u64,
    },
    /// A filled sequence was archived.
    Archived {
        /// Sequence number.
        seq: u64,
        /// Copy completion instant.
        complete_at: SimTime,
    },
    /// A cold backup of every datafile completed.
    BackupTaken {
        /// Datafiles backed up.
        files: u64,
        /// SCN the backup is consistent at.
        scn: u64,
    },
    /// The instance terminated (cleanly or not).
    InstanceStopped {
        /// Whether it was a clean shutdown.
        clean: bool,
    },
    /// The instance opened (with or without crash recovery).
    InstanceOpened {
        /// Redo records applied during crash recovery (0 for clean opens).
        recovered_records: u64,
    },
    /// A recovery phase ran from `started_at` to the record instant.
    PhaseSpan {
        /// Which phase.
        phase: RecoveryPhase,
        /// Span start; the record instant is the span end.
        started_at: SimTime,
    },
    /// Replay finished processing one log sequence.
    SequenceReplayed {
        /// The sequence.
        seq: u64,
        /// Records applied from it.
        applied: u64,
        /// Records scanned but skipped.
        skipped: u64,
        /// Whether it was read from an archive file.
        archived: bool,
    },
    /// A recovery procedure completed.
    RecoveryCompleted {
        /// Which procedure.
        procedure: RecoveryProcedure,
        /// Records applied over the whole procedure.
        records_applied: u64,
        /// Archive files read over the whole procedure.
        archives_read: u64,
    },
    /// The stand-by applied one shipped archive in the background.
    StandbyArchiveApplied {
        /// The sequence applied.
        seq: u64,
        /// Records it contained.
        records: u64,
    },
    /// Indexes were rebuilt from recovered heap data.
    IndexesRebuilt {
        /// Tables whose indexes were rebuilt.
        tables: u64,
        /// Total index entries inserted.
        entries: u64,
    },
    /// A statement blocked on a row lock and its transaction was queued.
    LockWait {
        /// The blocked transaction.
        waiter: crate::types::TxnId,
        /// The transaction holding the lock.
        holder: crate::types::TxnId,
        /// Table of the contended row.
        obj: crate::types::ObjectId,
    },
    /// A queued transaction was granted the lock it was waiting for.
    LockAcquired {
        /// The transaction that now holds the lock.
        txn: crate::types::TxnId,
        /// How long it waited, in simulated microseconds.
        wait_us: u64,
    },
    /// A lock request closed a waits-for cycle; the requester aborted.
    DeadlockVictim {
        /// The transaction chosen to abort.
        victim: crate::types::TxnId,
        /// Number of transactions on the cycle.
        cycle_len: u64,
    },
    /// A stored block failed its CRC check on read: silent corruption
    /// (bit-rot or a torn write) detected by the checksum layer.
    ChecksumMismatch {
        /// Path of the file holding the bad block.
        path: String,
        /// Block number within the file.
        block: u64,
    },
    /// The failover controller observed the primary dead and began a
    /// promotion (quorum reached, or an operator decided).
    FailoverStarted {
        /// Replicas that voted the primary dead.
        votes: u64,
        /// Replicas enrolled in the set (the quorum denominator).
        replicas: u64,
    },
    /// A stand-by finished activating and is now the primary.
    ReplicaPromoted {
        /// Index of the promoted replica within the set.
        replica: u64,
        /// Log sequence it had applied through at promotion.
        applied_seq: u64,
    },
    /// A surviving stand-by was re-instantiated to follow the newly
    /// promoted primary.
    ReplicaResync {
        /// Index of the resynced replica within the set.
        replica: u64,
        /// Log sequence the fresh instantiation starts from.
        applied_seq: u64,
    },
}

impl EngineEvent {
    /// Stable snake_case event name used in the JSONL export.
    pub fn name(&self) -> &'static str {
        match self {
            EngineEvent::LogSwitch { .. } => "log_switch",
            EngineEvent::SwitchStall { .. } => "switch_stall",
            EngineEvent::Checkpoint { .. } => "checkpoint",
            EngineEvent::IncrementalAdvance { .. } => "incremental_advance",
            EngineEvent::Archived { .. } => "archived",
            EngineEvent::BackupTaken { .. } => "backup_taken",
            EngineEvent::InstanceStopped { .. } => "instance_stopped",
            EngineEvent::InstanceOpened { .. } => "instance_opened",
            EngineEvent::PhaseSpan { .. } => "phase_span",
            EngineEvent::SequenceReplayed { .. } => "sequence_replayed",
            EngineEvent::RecoveryCompleted { .. } => "recovery_completed",
            EngineEvent::StandbyArchiveApplied { .. } => "standby_archive_applied",
            EngineEvent::IndexesRebuilt { .. } => "indexes_rebuilt",
            EngineEvent::LockWait { .. } => "lock_wait",
            EngineEvent::LockAcquired { .. } => "lock_acquired",
            EngineEvent::DeadlockVictim { .. } => "deadlock_victim",
            EngineEvent::ChecksumMismatch { .. } => "checksum_mismatch",
            EngineEvent::FailoverStarted { .. } => "failover_started",
            EngineEvent::ReplicaPromoted { .. } => "replica_promoted",
            EngineEvent::ReplicaResync { .. } => "replica_resync",
        }
    }

    /// Writes the event as one JSON object (no trailing newline) onto
    /// `out`: `{"t_us":…,"server":…,"type":…,…}`. Hand-rolled — the
    /// workspace deliberately has no JSON dependency — and byte-stable for
    /// a given event, which the determinism regression tests rely on.
    pub fn write_json(&self, at: SimTime, server: &str, out: &mut String) {
        use std::fmt::Write as _;
        let _ = write!(out, "{{\"t_us\":{},\"server\":\"{server}\",\"type\":\"{}\"", at.as_micros(), self.name());
        match self {
            EngineEvent::LogSwitch { seq, group } => {
                let _ = write!(out, ",\"seq\":{seq},\"group\":{group}");
            }
            EngineEvent::SwitchStall { seq, micros } => {
                let _ = write!(out, ",\"seq\":{seq},\"stall_us\":{micros}");
            }
            EngineEvent::Checkpoint { blocks, complete_at } => {
                let _ = write!(out, ",\"blocks\":{blocks},\"complete_us\":{}", complete_at.as_micros());
            }
            EngineEvent::IncrementalAdvance { blocks } => {
                let _ = write!(out, ",\"blocks\":{blocks}");
            }
            EngineEvent::Archived { seq, complete_at } => {
                let _ = write!(out, ",\"seq\":{seq},\"complete_us\":{}", complete_at.as_micros());
            }
            EngineEvent::BackupTaken { files, scn } => {
                let _ = write!(out, ",\"files\":{files},\"scn\":{scn}");
            }
            EngineEvent::InstanceStopped { clean } => {
                let _ = write!(out, ",\"clean\":{clean}");
            }
            EngineEvent::InstanceOpened { recovered_records } => {
                let _ = write!(out, ",\"recovered_records\":{recovered_records}");
            }
            EngineEvent::PhaseSpan { phase, started_at } => {
                let _ = write!(out, ",\"phase\":\"{}\",\"start_us\":{}", phase.name(), started_at.as_micros());
            }
            EngineEvent::SequenceReplayed { seq, applied, skipped, archived } => {
                let _ = write!(out, ",\"seq\":{seq},\"applied\":{applied},\"skipped\":{skipped},\"archived\":{archived}");
            }
            EngineEvent::RecoveryCompleted { procedure, records_applied, archives_read } => {
                let _ = write!(
                    out,
                    ",\"procedure\":\"{}\",\"records_applied\":{records_applied},\"archives_read\":{archives_read}",
                    procedure.name()
                );
            }
            EngineEvent::StandbyArchiveApplied { seq, records } => {
                let _ = write!(out, ",\"seq\":{seq},\"records\":{records}");
            }
            EngineEvent::IndexesRebuilt { tables, entries } => {
                let _ = write!(out, ",\"tables\":{tables},\"entries\":{entries}");
            }
            EngineEvent::LockWait { waiter, holder, obj } => {
                let _ = write!(out, ",\"waiter\":{},\"holder\":{},\"obj\":{}", waiter.0, holder.0, obj.0);
            }
            EngineEvent::LockAcquired { txn, wait_us } => {
                let _ = write!(out, ",\"txn\":{},\"wait_us\":{wait_us}", txn.0);
            }
            EngineEvent::DeadlockVictim { victim, cycle_len } => {
                let _ = write!(out, ",\"victim\":{},\"cycle_len\":{cycle_len}", victim.0);
            }
            EngineEvent::ChecksumMismatch { path, block } => {
                let _ = write!(out, ",\"path\":\"{path}\",\"block\":{block}");
            }
            EngineEvent::FailoverStarted { votes, replicas } => {
                let _ = write!(out, ",\"votes\":{votes},\"replicas\":{replicas}");
            }
            EngineEvent::ReplicaPromoted { replica, applied_seq } => {
                let _ = write!(out, ",\"replica\":{replica},\"applied_seq\":{applied_seq}");
            }
            EngineEvent::ReplicaResync { replica, applied_seq } => {
                let _ = write!(out, ",\"replica\":{replica},\"applied_seq\":{applied_seq}");
            }
        }
        out.push('}');
    }
}

/// A subscriber sees every recorded event, in order.
pub type EventSubscriber = Box<dyn FnMut(SimTime, &EngineEvent) + Send>;

/// The engine-wide event sink: counters derived from the stream, and the
/// live subscribers it is passed on to.
#[derive(Default)]
pub struct EventSink {
    derived: EngineStats,
    subscribers: Vec<EventSubscriber>,
}

impl std::fmt::Debug for EventSink {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("EventSink").field("subscribers", &self.subscribers.len()).finish()
    }
}

impl EventSink {
    /// The sink of a forked server: everything the stream has counted so
    /// far, and no subscribers — observers belong to one run, and whoever
    /// drives the fork subscribes its own.
    pub(crate) fn fork(&self) -> EventSink {
        EventSink { derived: self.derived, subscribers: Vec::new() }
    }

    /// Records an event at instant `at`: updates the derived counters,
    /// then notifies subscribers.
    pub fn record(&mut self, at: SimTime, event: EngineEvent) {
        self.derive(&event);
        for sub in &mut self.subscribers {
            sub(at, &event);
        }
    }

    fn derive(&mut self, event: &EngineEvent) {
        let d = &mut self.derived;
        match event {
            EngineEvent::LogSwitch { .. } => d.log_switches += 1,
            EngineEvent::SwitchStall { micros, .. } => d.switch_stall_micros += micros,
            EngineEvent::Checkpoint { .. } => d.full_checkpoints += 1,
            EngineEvent::IncrementalAdvance { .. } => d.incremental_advances += 1,
            EngineEvent::Archived { .. } => d.archives_created += 1,
            EngineEvent::SequenceReplayed { applied, skipped, archived, .. } => {
                d.recovery_records_applied += applied;
                d.recovery_records_skipped += skipped;
                if *archived {
                    d.recovery_archives_processed += 1;
                }
            }
            EngineEvent::RecoveryCompleted { procedure, .. } => match procedure {
                RecoveryProcedure::Crash => d.crash_recoveries += 1,
                RecoveryProcedure::Media => d.media_recoveries += 1,
                RecoveryProcedure::Incomplete => d.incomplete_recoveries += 1,
            },
            EngineEvent::StandbyArchiveApplied { records, .. } => {
                d.recovery_records_applied += records;
            }
            EngineEvent::LockWait { .. } => d.lock_waits += 1,
            EngineEvent::LockAcquired { wait_us, .. } => {
                d.lock_grants += 1;
                d.lock_wait_micros += wait_us;
            }
            EngineEvent::DeadlockVictim { .. } => d.deadlocks += 1,
            EngineEvent::ChecksumMismatch { .. } => d.checksum_mismatches += 1,
            EngineEvent::FailoverStarted { .. } => d.failovers += 1,
            EngineEvent::ReplicaPromoted { .. } => d.promotions += 1,
            EngineEvent::ReplicaResync { .. } => d.replica_resyncs += 1,
            EngineEvent::BackupTaken { .. }
            | EngineEvent::InstanceStopped { .. }
            | EngineEvent::InstanceOpened { .. }
            | EngineEvent::PhaseSpan { .. }
            | EngineEvent::IndexesRebuilt { .. } => {}
        }
    }

    /// Counters derived from every event ever recorded. The six hot-path
    /// fields of `EngineStats` stay zero; [`DbServer::stats`] writes them
    /// over these.
    ///
    /// [`DbServer::stats`]: crate::server::DbServer::stats
    pub fn derived(&self) -> EngineStats {
        self.derived
    }

    /// Registers a live subscriber. Subscribers see every subsequent event
    /// and cannot be removed (they live as long as the server).
    pub fn subscribe<F: FnMut(SimTime, &EngineEvent) + Send + 'static>(&mut self, f: F) {
        self.subscribers.push(Box::new(f));
    }
}

/// Every event a sink recorded since [`collect`] subscribed, in order.
#[cfg(test)]
pub(crate) type Collected = std::sync::Arc<std::sync::Mutex<Vec<(SimTime, EngineEvent)>>>;

/// Collects every event `sink` records from here on, with its instant.
#[cfg(test)]
pub(crate) fn collect(sink: &mut EventSink) -> Collected {
    let seen = Collected::default();
    let tap = std::sync::Arc::clone(&seen);
    sink.subscribe(move |at, e| tap.lock().unwrap().push((at, e.clone())));
    seen
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ev(seq: u64) -> EngineEvent {
        EngineEvent::LogSwitch { seq, group: 0 }
    }

    /// Records `events` (instants in µs) on a fresh sink: the JSON line of
    /// each event its subscriber saw, tagged with `server`, and the
    /// counters derived from them.
    fn record_all(server: &str, events: Vec<(u64, EngineEvent)>) -> (Vec<String>, EngineStats) {
        let mut s = EventSink::default();
        let seen = collect(&mut s);
        for (us, e) in events {
            s.record(SimTime::from_micros(us), e);
        }
        let lines = seen
            .lock()
            .unwrap()
            .iter()
            .map(|(at, e)| {
                let mut line = String::new();
                e.write_json(*at, server, &mut line);
                line
            })
            .collect();
        (lines, s.derived())
    }

    #[test]
    fn derived_counters_follow_the_stream() {
        let mut s = EventSink::default();
        s.record(SimTime::ZERO, EngineEvent::SwitchStall { seq: 2, micros: 1_500 });
        s.record(SimTime::ZERO, EngineEvent::Checkpoint { blocks: 8, complete_at: SimTime::ZERO });
        s.record(
            SimTime::ZERO,
            EngineEvent::SequenceReplayed { seq: 3, applied: 40, skipped: 2, archived: true },
        );
        s.record(
            SimTime::ZERO,
            EngineEvent::RecoveryCompleted {
                procedure: RecoveryProcedure::Media,
                records_applied: 40,
                archives_read: 1,
            },
        );
        let d = s.derived();
        assert_eq!(d.switch_stall_micros, 1_500);
        assert_eq!(d.full_checkpoints, 1);
        assert_eq!(d.recovery_records_applied, 40);
        assert_eq!(d.recovery_records_skipped, 2);
        assert_eq!(d.recovery_archives_processed, 1);
        assert_eq!(d.media_recoveries, 1);
    }

    #[test]
    fn subscribers_see_everything_even_past_the_bound() {
        let mut s = EventSink::default();
        let seen = collect(&mut s);
        for i in 0..6 {
            s.record(SimTime::from_secs(i), ev(i));
        }
        let want: Vec<_> = (0..6).map(|i| (SimTime::from_secs(i), ev(i))).collect();
        assert_eq!(*seen.lock().unwrap(), want, "every event, in order");
        assert_eq!(s.derived().log_switches, 6);
    }

    #[test]
    fn jsonl_lines_are_stable_and_self_describing() {
        let (lines, _) = record_all(
            "PRIMARY",
            vec![
                (42, ev(7)),
                (
                    99,
                    EngineEvent::PhaseSpan {
                        phase: RecoveryPhase::RedoApply,
                        started_at: SimTime::from_micros(50),
                    },
                ),
            ],
        );
        assert_eq!(
            lines,
            [
                "{\"t_us\":42,\"server\":\"PRIMARY\",\"type\":\"log_switch\",\"seq\":7,\"group\":0}",
                "{\"t_us\":99,\"server\":\"PRIMARY\",\"type\":\"phase_span\",\"phase\":\"redo_apply\",\"start_us\":50}",
            ]
        );
    }

    #[test]
    fn lock_events_serialize_and_derive_contention_counters() {
        use crate::types::{ObjectId, TxnId};
        let (lines, d) = record_all(
            "P",
            vec![
                (10, EngineEvent::LockWait { waiter: TxnId(2), holder: TxnId(1), obj: ObjectId(7) }),
                (30, EngineEvent::LockAcquired { txn: TxnId(2), wait_us: 20 }),
                (50, EngineEvent::DeadlockVictim { victim: TxnId(3), cycle_len: 2 }),
            ],
        );
        assert_eq!(
            lines,
            [
                "{\"t_us\":10,\"server\":\"P\",\"type\":\"lock_wait\",\"waiter\":2,\"holder\":1,\"obj\":7}",
                "{\"t_us\":30,\"server\":\"P\",\"type\":\"lock_acquired\",\"txn\":2,\"wait_us\":20}",
                "{\"t_us\":50,\"server\":\"P\",\"type\":\"deadlock_victim\",\"victim\":3,\"cycle_len\":2}",
            ]
        );
        assert_eq!(d.lock_waits, 1);
        assert_eq!(d.lock_grants, 1);
        assert_eq!(d.lock_wait_micros, 20);
        assert_eq!(d.deadlocks, 1);
    }

    #[test]
    fn replica_events_serialize_and_derive_failover_counters() {
        let (lines, d) = record_all(
            "STANDBY2",
            vec![
                (5, EngineEvent::FailoverStarted { votes: 2, replicas: 2 }),
                (9, EngineEvent::ReplicaPromoted { replica: 1, applied_seq: 14 }),
                (12, EngineEvent::ReplicaResync { replica: 0, applied_seq: 15 }),
            ],
        );
        assert_eq!(
            lines,
            [
                "{\"t_us\":5,\"server\":\"STANDBY2\",\"type\":\"failover_started\",\"votes\":2,\"replicas\":2}",
                "{\"t_us\":9,\"server\":\"STANDBY2\",\"type\":\"replica_promoted\",\"replica\":1,\"applied_seq\":14}",
                "{\"t_us\":12,\"server\":\"STANDBY2\",\"type\":\"replica_resync\",\"replica\":0,\"applied_seq\":15}",
            ]
        );
        assert_eq!(d.failovers, 1);
        assert_eq!(d.promotions, 1);
        assert_eq!(d.replica_resyncs, 1);
    }

    #[test]
    fn checksum_mismatch_serializes_and_derives() {
        let (lines, d) = record_all(
            "P",
            vec![(7, EngineEvent::ChecksumMismatch { path: "/u01/tpcc_data01.dbf".into(), block: 42 })],
        );
        assert_eq!(
            lines,
            ["{\"t_us\":7,\"server\":\"P\",\"type\":\"checksum_mismatch\",\"path\":\"/u01/tpcc_data01.dbf\",\"block\":42}"]
        );
        assert_eq!(d.checksum_mismatches, 1);
    }
}
