//! The stand-by database: a second server kept in permanent recovery by
//! shipping and applying the primary's archived logs.
//!
//! This is the paper's §5.3 mechanism. The stand-by is instantiated from
//! the primary's cold backup, then every archived log is shipped (a copy
//! charged on the primary's archive disk — the "overhead of sharing
//! archive log files" visible in Figure 6's tpmC lines) and applied in the
//! background. On a primary failure the stand-by *activates*: it finishes
//! applying what it has received, rolls back unresolved transactions and
//! opens — in near-constant time, independent of the fault type.
//!
//! Whatever redo never made it into an archive is gone: committed
//! transactions whose records sat in the primary's current online group
//! are lost, which is exactly what Figure 7 measures as a function of the
//! redo log file size.
//!
//! A [`Standby`] is one node of a [`ReplicaSet`](crate::ReplicaSet): its
//! server, what it has applied, and where it stands in the set. It ships
//! from an [`Upstream`]: a server's own archives, or another stand-by's
//! retained copies.

use std::collections::BTreeMap;
use std::sync::Arc;

use bytes::Bytes;
use recobench_sim::{SimClock, SimTime};
use recobench_vfs::{FileKind, IoKind};

use crate::apply::{rollback_unlogged, ReplayState};
use crate::catalog::Catalog;
use crate::config::{costs, InstanceConfig, BLOCK_SIZE};
use crate::controlfile::{CkptRecord, ControlFile};
use crate::error::{DbError, DbResult, RecoveryError};
use crate::events::{EngineEvent, RecoveryPhase};
use crate::layout::DiskLayout;
use crate::redo::RedoReader;
use crate::server::DbServer;
use crate::types::RedoAddr;

/// An archived log as a stand-by ships it: its segments and size, and the
/// instant it is complete on the disk it ships from. A stand-by retains
/// each copy it applied, so a downstream (cascaded) stand-by can ship from
/// it instead of from the primary.
#[derive(Clone)]
pub(crate) struct ShippedArchive {
    segments: Vec<Bytes>,
    bytes: u64,
    ready_at: SimTime,
}

/// Where a stand-by ships its archives from.
#[derive(Clone, Copy)]
pub(crate) enum Upstream<'a> {
    /// A server's own archived logs, found through its control file: the
    /// primary, or the promoted node after a failover.
    Server(&'a DbServer),
    /// Another stand-by's retained copies (a cascaded chain), so the
    /// primary carries no extra I/O for deep chains.
    Standby(&'a Standby),
}

impl Upstream<'_> {
    /// The copy of `seq` this upstream can ship by `now`, its read charged
    /// on the upstream's archive disk; `None` while it has none.
    ///
    /// # Errors
    ///
    /// [`RecoveryError::ArchiveGap`] when an upstream stand-by has applied
    /// `seq` but no longer holds a copy of it (a redo gap only
    /// re-instantiation closes); otherwise storage errors.
    fn copy_of(self, seq: u64, now: SimTime) -> DbResult<Option<ShippedArchive>> {
        let (server, copy) = match self {
            Upstream::Server(server) => {
                let archived = server.control_ref().ok().and_then(|c| c.seq(seq)?.archive);
                let Some((archive, ready_at)) = archived else { return Ok(None) };
                if ready_at > now {
                    return Ok(None);
                }
                let fs = server.fs().lock();
                let (segments, bytes) = (fs.peek_all(archive)?, fs.meta(archive)?.size_bytes);
                (server, ShippedArchive { segments, bytes, ready_at })
            }
            Upstream::Standby(up) => match up.received.get(&seq) {
                Some(copy) if copy.ready_at <= now => (&up.server, copy.clone()),
                Some(_) => return Ok(None),
                None if up.applied_seq >= seq => return Err(RecoveryError::ArchiveGap { seq }.into()),
                None => return Ok(None),
            },
        };
        let disk = server.layout.archive_disk;
        server.fs().lock().charge_io(disk, IoKind::Read, copy.bytes, copy.ready_at)?;
        Ok(Some(copy))
    }
}

/// One stand-by of a replica set: a second server in managed recovery,
/// what it has applied, and where it stands in the set.
pub(crate) struct Standby {
    /// The stand-by's server (DML is rejected until activation).
    pub(crate) server: DbServer,
    /// The log sequence applied through.
    pub(crate) applied_seq: u64,
    /// When the background apply of everything received so far ends.
    pub(crate) apply_done_at: SimTime,
    /// Unresolved transactions, SCN / transaction-id high-water marks and
    /// the last commit SCN of the redo applied so far (seeded with the
    /// backup's SCN): the last commit is the exact boundary of the
    /// committed prefix this stand-by would open with.
    pub(crate) replayed: ReplayState,
    /// Shipped copies retained for cascaded downstream stand-bys.
    pub(crate) received: BTreeMap<u64, ShippedArchive>,
    /// When set, the next shipped copy lands corrupted (fault injection).
    pub(crate) corrupt_next_ship: bool,
    /// The replica it ships from; `None` is the primary.
    pub(crate) upstream: Option<usize>,
    /// Isolated by a network partition: cannot vote, ship, or be promoted.
    pub(crate) partitioned: bool,
    /// The machine is down.
    pub(crate) dead: bool,
    /// Why shipping broke (corrupt copy or redo gap); frozen until resynced.
    pub(crate) broken: Option<RecoveryError>,
}

impl Standby {
    /// Instantiates a stand-by from the primary's most recent cold backup
    /// — builds a second machine (own disks), restores every datafile onto
    /// it, and mounts in managed recovery — shipping from replica
    /// `upstream` (`None`: the primary). The restore keeps both machines'
    /// disks busy until the returned instant but does not move the clock:
    /// a caller that waits for it advances the clock there.
    ///
    /// # Errors
    ///
    /// Fails if the primary has no backup.
    pub(crate) fn instantiate(
        primary: &DbServer,
        name: &str,
        clock: Arc<SimClock>,
        layout: DiskLayout,
        config: InstanceConfig,
        upstream: Option<usize>,
    ) -> DbResult<(Standby, SimTime)> {
        let backup = primary
            .backup()
            .ok_or_else(|| DbError::Unrecoverable("stand-by requires a primary backup".into()))?
            .clone();
        let mut server = DbServer::on_fresh_disks(name, clock, layout, config);
        // Rebuild the physical files on the stand-by machine and remap the
        // dictionary's vfs handles to them.
        let mut catalog: Catalog = (*backup.catalog).clone();
        let now = server.clock.now();
        let mut last = now;
        {
            let primary_fs = primary.fs().lock();
            let mut fs = server.fs.lock();
            for (i, (file_no, df)) in backup.catalog.datafiles.iter().enumerate() {
                let disk = server.layout.data_disk_for(i);
                let new_id = fs.create_block_file(&df.path, disk, FileKind::Data, BLOCK_SIZE, df.blocks)?;
                if let Some(piece) = backup.piece_for(*file_no) {
                    // A raw copy between machines: the one block read
                    // outside `blockio`, and it decodes nothing.
                    for (block, img) in primary_fs.peek_blocks_written(piece)? {
                        // tidy-allow(write-site-coverage): standby instantiation writes to the standby's own fs; the crash sweep drives the primary only
                        fs.write_block(new_id, block, img, now)?;
                    }
                }
                let d = fs.charge_io(disk, IoKind::Write, backup.nominal_bytes_per_file, now)?;
                last = last.max(d);
                catalog
                    .datafiles
                    .get_mut(file_no)
                    .ok_or_else(|| RecoveryError::BackupCatalogMismatch { file: *file_no })?
                    .vfs_id = new_id;
            }
        }
        // The instantiation transfer also reads the primary's backup disk.
        {
            let mut pfs = primary.fs().lock();
            let d = pfs.charge_io(
                primary.layout.backup_disk,
                IoKind::Read,
                backup.nominal_bytes_per_file * backup.file_count() as u64,
                now,
            )?;
            last = last.max(d);
        }
        server.datafile_total = catalog.datafiles.len();
        // Control file: checkpoint at the backup position; redo groups for
        // life after activation.
        let groups = server.create_redo_groups()?;
        let snapshot = Arc::new(catalog.clone());
        let mut control = ControlFile::new(name, groups, Arc::clone(&snapshot));
        control.checkpoints = vec![CkptRecord {
            position: backup.position,
            scn: backup.scn,
            complete_at: last,
            catalog: snapshot,
        }];
        control.clean_shutdown = false;
        control.seqs.clear();
        server.control = Some(control);
        let inst = server.fresh_instance(catalog, backup.scn, 0, backup.position.seq, 0);
        server.inst = Some(inst);
        server.managed_recovery = true;
        let standby = Standby {
            server,
            applied_seq: backup.position.seq.saturating_sub(1),
            apply_done_at: last,
            replayed: ReplayState {
                max_scn: backup.scn,
                last_commit_scn: backup.scn,
                ..ReplayState::default()
            },
            received: BTreeMap::new(),
            corrupt_next_ship: false,
            upstream,
            partitioned: false,
            dead: false,
            broken: None,
        };
        Ok((standby, last))
    }

    /// Ships and applies, in sequence order, every archive `upstream` can
    /// ship by now. Call periodically (the benchmark driver does so
    /// between transactions).
    ///
    /// # Errors
    ///
    /// [`RecoveryError::ArchiveGap`] and
    /// [`RecoveryError::ShippedArchiveCorrupt`] when shipping breaks;
    /// otherwise storage errors.
    // tidy-entry(recovery)
    pub(crate) fn sync(&mut self, upstream: Upstream<'_>) -> DbResult<()> {
        let now = self.server.clock.now();
        while let Some(copy) = upstream.copy_of(self.applied_seq + 1, now)? {
            self.ingest(copy)?;
        }
        Ok(())
    }

    /// Lands the next sequence's shipped copy on this stand-by: charges
    /// the archive-disk write (after the ship latency), decodes, applies
    /// in the background — one replay pass, ended on every exit — and
    /// retains the copy for any downstream stand-by.
    fn ingest(&mut self, copy: ShippedArchive) -> DbResult<()> {
        let ShippedArchive { mut segments, bytes, ready_at } = copy;
        let seq = self.applied_seq + 1;
        let ship_done = {
            let mut fs = self.server.fs.lock();
            let arrived = ready_at + costs::STANDBY_SHIP_LATENCY;
            fs.charge_io(self.server.layout.archive_disk, IoKind::Write, bytes, arrived)?
        };
        if std::mem::take(&mut self.corrupt_next_ship) {
            if let Some(first) = segments.first_mut() {
                let mut broken = first.as_ref().to_vec();
                // Flip the first record's op tag (after the scn + txn
                // u64s); a flipped tag is never a valid opcode, so the
                // decode below reliably rejects the copy.
                if let Some(b) = broken.get_mut(16) {
                    *b ^= 0xFF;
                }
                *first = Bytes::from(broken);
            }
        }
        // Apply in the background: serialized after previous applies.
        let records: Vec<_> = RedoReader::new(&segments)
            .collect::<Result<_, _>>()
            .map_err(|_| RecoveryError::ShippedArchiveCorrupt { seq })?;
        let apply_start = ship_done.max(self.apply_done_at);
        let nrecords = records.len() as u64;
        self.apply_done_at = apply_start + costs::CPU_APPLY_RECORD * nrecords;
        let applied: DbResult<()> = records.iter().try_for_each(|(offset, rec)| {
            let addr = RedoAddr { seq, offset: *offset };
            self.replayed.note_and_apply(&mut self.server, rec, |srv, key, view, change| {
                Self::mutate_block(srv, key, apply_start, addr, view, change)
            })
        });
        self.replayed.end_pass(&mut self.server);
        applied?;
        self.applied_seq = seq;
        self.received.insert(seq, ShippedArchive { segments, bytes, ready_at: ship_done });
        self.server.events.record(
            self.apply_done_at,
            EngineEvent::StandbyArchiveApplied { seq, records: nrecords },
        );
        Ok(())
    }

    /// Activates the stand-by after a primary failure: finish applying
    /// what was shipped, roll back unresolved transactions, open. Returns
    /// the instant the stand-by accepts work.
    ///
    /// The caller is responsible for having called [`Standby::sync`] one
    /// final time first.
    ///
    /// # Errors
    ///
    /// Fails on stand-by storage errors or repeated activation.
    // tidy-entry(recovery)
    pub(crate) fn activate(&mut self) -> DbResult<SimTime> {
        if !self.server.managed_recovery {
            return Err(DbError::AlreadyOpen);
        }
        let clock = Arc::clone(&self.server.clock);
        let activation_began = clock.now();
        clock.advance_to(self.apply_done_at);
        clock.advance(costs::STANDBY_ACTIVATION);
        // Roll back transactions with no commit record in the applied redo,
        // at SCNs past everything applied. Unlogged: the new incarnation's
        // log starts empty, so no later replay can cross this rollback.
        let unresolved = std::mem::take(&mut self.replayed.live);
        let now = clock.now();
        let addr = RedoAddr { seq: self.applied_seq, offset: u64::MAX };
        self.server.inst.as_mut().ok_or_else(|| DbError::InstanceDown)?.scn = self.replayed.max_scn;
        rollback_unlogged(&mut self.server, &unresolved, |srv, key, change| {
            Self::mutate_block(srv, key, now, addr, None, change)
        })?;
        // Become a normal, open database in a fresh incarnation.
        self.server.managed_recovery = false;
        let max_scn = self.server.current_scn();
        self.server.open_resetlogs(max_scn, self.replayed.max_txn, self.applied_seq + 1)?;
        self.server.events.record(
            clock.now(),
            EngineEvent::PhaseSpan {
                phase: RecoveryPhase::StandbyActivation,
                started_at: activation_began,
            },
        );
        Ok(clock.now())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::catalog::IndexDef;
    use crate::row::{Row, Value};
    use crate::types::{ObjectId, Scn};
    use recobench_sim::SimDuration;

    fn cfg(redo_kb: u64) -> InstanceConfig {
        InstanceConfig::builder()
            .redo_file_bytes(redo_kb * 1024)
            .redo_groups(3)
            .checkpoint_timeout_secs(60)
            .archive_mode(true)
            .cache_blocks(64)
            .build()
    }

    fn primary_with_data() -> (DbServer, ObjectId) {
        let clock = SimClock::shared();
        let mut p = DbServer::on_fresh_disks("PRIM", clock, DiskLayout::four_disk(), cfg(64));
        p.create_database().unwrap();
        p.create_user("tpcc").unwrap();
        p.create_tablespace("TPCC", 2, 512).unwrap();
        let t = p
            .create_table(
                "T",
                "tpcc",
                "TPCC",
                vec![IndexDef { name: "PK".into(), cols: vec![0], unique: true, ordered: true }],
            )
            .unwrap();
        let s = p.connect().unwrap();
        for i in 0..10 {
            p.insert(s, t, Row::new(vec![Value::U64(i), Value::from("seed")])).unwrap();
            p.commit(s).unwrap();
        }
        p.take_cold_backup().unwrap();
        (p, t)
    }

    /// A stand-by of `p` shipping from it, its restore waited for.
    fn standby(p: &DbServer, name: &str) -> Standby {
        let clock = Arc::clone(p.clock());
        let layout = DiskLayout::four_disk();
        let (sb, restored) = Standby::instantiate(p, name, Arc::clone(&clock), layout, cfg(64), None).unwrap();
        clock.advance_to(restored);
        sb
    }

    #[test]
    fn standby_follows_and_activates_with_archived_work() {
        let (mut p, t) = primary_with_data();
        let clock = Arc::clone(p.clock());
        let mut sb = standby(&p, "STBY");
        let restored_through = sb.applied_seq;
        // Generate enough work to switch logs several times (archives ship).
        let s = p.connect().unwrap();
        for i in 100..300 {
            p.insert(s, t, Row::new(vec![Value::U64(i), Value::from("workload-row-payload")]))
                .unwrap();
            p.commit(s).unwrap();
            sb.sync(Upstream::Server(&p)).unwrap();
        }
        assert!(sb.applied_seq > restored_through, "archives must have shipped");
        // Primary dies; stand-by takes over.
        p.shutdown_abort().unwrap();
        sb.sync(Upstream::Server(&p)).unwrap();
        let before = clock.now();
        let ready = sb.activate().unwrap();
        assert!(ready >= before);
        assert!(!sb.server.managed_recovery, "activated");
        let srv = &mut sb.server;
        // Seed rows (pre-backup) are all there.
        let rows = srv.peek_scan(t).unwrap();
        assert!(rows.len() >= 10, "backup rows present, got {}", rows.len());
        // Rows from archived sequences are there; rows from the current
        // (never archived) group are lost.
        assert!(rows.len() < 10 + 200, "tail of redo must be lost");
        // The stand-by accepts new work.
        let s = srv.connect().unwrap();
        srv.insert(s, t, Row::new(vec![Value::U64(9_999), Value::from("post-failover")])).unwrap();
        srv.commit(s).unwrap();
    }

    #[test]
    fn standby_with_no_archives_has_only_backup_state() {
        let (mut p, t) = primary_with_data();
        let mut sb = standby(&p, "STBY");
        // A little work — not enough to fill a 64 KiB log.
        let s = p.connect().unwrap();
        for i in 100..105 {
            p.insert(s, t, Row::new(vec![Value::U64(i), Value::from("x")])).unwrap();
            p.commit(s).unwrap();
        }
        p.shutdown_abort().unwrap();
        sb.sync(Upstream::Server(&p)).unwrap();
        sb.activate().unwrap();
        assert_eq!(sb.server.peek_scan(t).unwrap().len(), 10, "only backup rows survive");
    }

    #[test]
    fn standby_requires_backup() {
        let clock = SimClock::shared();
        let mut p = DbServer::on_fresh_disks("P2", Arc::clone(&clock), DiskLayout::four_disk(), cfg(64));
        p.create_database().unwrap();
        let refused = Standby::instantiate(&p, "S2", clock, DiskLayout::four_disk(), cfg(64), None);
        assert!(matches!(refused, Err(DbError::Unrecoverable(_))));
    }

    #[test]
    fn corrupt_ship_surfaces_a_typed_recovery_error() {
        let (mut p, t) = primary_with_data();
        let mut sb = standby(&p, "STBY");
        sb.corrupt_next_ship = true;
        let s = p.connect().unwrap();
        let mut hit = None;
        for i in 100..300 {
            p.insert(s, t, Row::new(vec![Value::U64(i), Value::from("workload-row-payload")]))
                .unwrap();
            p.commit(s).unwrap();
            if let Err(e) = sb.sync(Upstream::Server(&p)) {
                hit = Some(e);
                break;
            }
        }
        match hit {
            Some(DbError::Recovery(RecoveryError::ShippedArchiveCorrupt { seq })) => {
                assert!(seq >= 1);
            }
            other => panic!("expected a typed shipped-archive corruption, got {other:?}"),
        }
    }

    /// Silent damage on the stand-by's own disk: the background apply has
    /// no backup of its own to restore from, so a stored block that fails
    /// to decode ends managed recovery.
    #[test]
    fn a_corrupt_block_under_the_background_apply_is_unrecoverable() {
        let (mut p, t) = primary_with_data();
        let mut sb = standby(&p, "STBY");
        // Flip one CRC-covered bit of every block the backup put on the
        // stand-by (the ten seed rows share one).
        let mut rotted = 0;
        for path in p.datafile_paths("TPCC").unwrap() {
            let mut fs = sb.server.fs.lock();
            let id = fs.lookup(&path).unwrap();
            for (block, image) in fs.peek_blocks_written(id).unwrap() {
                let mut image = image.to_vec();
                image[10] ^= 1;
                fs.write_block(id, block, Bytes::from(image), SimTime::ZERO).unwrap();
                rotted += 1;
            }
        }
        assert_eq!(rotted, 1);
        // The primary keeps inserting into that block; the first shipped
        // archive makes the stand-by fetch it.
        let s = p.connect().unwrap();
        let mut hit = None;
        for i in 100..300 {
            p.insert(s, t, Row::new(vec![Value::U64(i), Value::from("workload-row-payload")]))
                .unwrap();
            p.commit(s).unwrap();
            if let Err(e) = sb.sync(Upstream::Server(&p)) {
                hit = Some(e);
                break;
            }
        }
        assert_eq!(hit, Some(DbError::Unrecoverable("stand-by block corrupt".into())));
        assert_eq!(sb.server.stats().checksum_mismatches, 0, "no counter on the stand-by's path");
    }

    #[test]
    fn cascaded_standby_follows_through_its_upstream() {
        let (mut p, t) = primary_with_data();
        let clock = Arc::clone(p.clock());
        let mut sb1 = standby(&p, "SB1");
        let mut sb2 = standby(&p, "SB2");
        let restored_through = sb1.applied_seq;
        let s = p.connect().unwrap();
        for i in 100..300 {
            p.insert(s, t, Row::new(vec![Value::U64(i), Value::from("workload-row-payload")]))
                .unwrap();
            p.commit(s).unwrap();
            sb1.sync(Upstream::Server(&p)).unwrap();
            sb2.sync(Upstream::Standby(&sb1)).unwrap();
        }
        assert!(sb1.applied_seq > restored_through, "upstream must have shipped archives");
        // Let the downstream catch up to everything the upstream retains.
        clock.advance(SimDuration::from_secs(5));
        sb2.sync(Upstream::Standby(&sb1)).unwrap();
        assert_eq!(sb2.applied_seq, sb1.applied_seq, "cascade catches up to its upstream");
        assert!(sb2.replayed.last_commit_scn > Scn::ZERO);
        // The downstream activates into a working primary.
        p.shutdown_abort().unwrap();
        sb2.activate().unwrap();
        let rows = sb2.server.peek_scan(t).unwrap();
        assert!(rows.len() >= 10, "backup rows present on the cascaded stand-by");
    }

    #[test]
    fn activation_is_rejected_twice() {
        let (mut p, _t) = primary_with_data();
        let mut sb = standby(&p, "STBY");
        p.shutdown_abort().unwrap();
        sb.activate().unwrap();
        assert!(matches!(sb.activate(), Err(DbError::AlreadyOpen)));
    }
}
