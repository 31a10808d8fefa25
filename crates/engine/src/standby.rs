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
use crate::types::{RedoAddr, Scn};

/// A shipped archive retained on the stand-by's archive disk so a
/// downstream (cascaded) stand-by can ship from here instead of from the
/// primary.
#[derive(Debug, Clone)]
pub(crate) struct ShippedArchive {
    pub(crate) segments: Vec<Bytes>,
    pub(crate) bytes: u64,
    /// Instant the copy finished landing on this stand-by's archive disk
    /// (a downstream stand-by can ship it from then on).
    pub(crate) ready_at: SimTime,
}

/// A stand-by server in managed recovery.
#[derive(Debug)]
pub(crate) struct StandbyServer {
    server: DbServer,
    applied_seq: u64,
    apply_done_at: SimTime,
    /// Unresolved transactions, SCN / transaction-id high-water marks and
    /// the last commit SCN of the redo applied so far (seeded with the
    /// backup's SCN): the last commit is the exact boundary of the
    /// committed prefix this stand-by would open with.
    pub(crate) replayed: ReplayState,
    activated: bool,
    /// Shipped copies retained for cascaded downstream stand-bys.
    pub(crate) received: BTreeMap<u64, ShippedArchive>,
    /// When armed, the next shipped copy lands corrupted (fault injection).
    corrupt_next_ship: bool,
    /// Records applied so far (reporting).
    pub records_applied: u64,
    /// Archives shipped so far (reporting).
    pub archives_shipped: u64,
}

impl StandbyServer {
    /// Instantiates a stand-by from the primary's most recent cold backup:
    /// builds a second machine (own disks), restores every datafile onto
    /// it, and mounts in managed recovery.
    ///
    /// # Errors
    ///
    /// Fails if the primary has no backup.
    pub fn instantiate(
        primary: &DbServer,
        name: &str,
        clock: Arc<SimClock>,
        layout: DiskLayout,
        config: InstanceConfig,
    ) -> DbResult<StandbyServer> {
        Self::instantiate_inner(primary, name, clock, layout, config, true)
    }

    /// Backgrounded instantiation: the restore keeps both machines' disks
    /// busy but does not block the caller's timeline — the stand-by is
    /// simply unable to apply redo until the restore's completion instant.
    /// Used to re-sync survivors behind a just-promoted primary that must
    /// keep serving clients.
    ///
    /// # Errors
    ///
    /// Fails if the primary has no backup.
    pub fn instantiate_in_background(
        primary: &DbServer,
        name: &str,
        clock: Arc<SimClock>,
        layout: DiskLayout,
        config: InstanceConfig,
    ) -> DbResult<StandbyServer> {
        Self::instantiate_inner(primary, name, clock, layout, config, false)
    }

    fn instantiate_inner(
        primary: &DbServer,
        name: &str,
        clock: Arc<SimClock>,
        layout: DiskLayout,
        config: InstanceConfig,
        advance_clock: bool,
    ) -> DbResult<StandbyServer> {
        let backup = primary
            .backup()
            .ok_or_else(|| DbError::Unrecoverable("stand-by requires a primary backup".into()))?
            .clone();
        let mut server = DbServer::on_fresh_disks(name, Arc::clone(&clock), layout, config);
        // Rebuild the physical files on the stand-by machine and remap the
        // dictionary's vfs handles to them.
        let mut catalog: Catalog = (*backup.catalog).clone();
        let now = clock.now();
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
        if advance_clock {
            clock.advance_to(last);
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
        Ok(StandbyServer {
            server,
            applied_seq: backup.position.seq.saturating_sub(1),
            apply_done_at: last,
            replayed: ReplayState {
                max_scn: backup.scn,
                last_commit_scn: backup.scn,
                ..ReplayState::default()
            },
            activated: false,
            received: BTreeMap::new(),
            corrupt_next_ship: false,
            records_applied: 0,
            archives_shipped: 0,
        })
    }

    /// An independent copy of this stand-by on `clock`: its server forked
    /// (see [`DbServer::fork`]), everything else cloned.
    pub fn fork(&self, clock: Arc<SimClock>) -> StandbyServer {
        StandbyServer {
            server: self.server.fork(clock),
            applied_seq: self.applied_seq,
            apply_done_at: self.apply_done_at,
            replayed: self.replayed.clone(),
            activated: self.activated,
            received: self.received.clone(),
            corrupt_next_ship: self.corrupt_next_ship,
            records_applied: self.records_applied,
            archives_shipped: self.archives_shipped,
        }
    }

    /// The stand-by's server (DML is rejected until activation).
    pub fn server(&self) -> &DbServer {
        &self.server
    }

    /// Mutable access to the stand-by's server (for the driver after
    /// activation).
    pub fn server_mut(&mut self) -> &mut DbServer {
        &mut self.server
    }

    /// The sequence applied through.
    pub fn applied_seq(&self) -> u64 {
        self.applied_seq
    }

    /// Highest commit SCN contained in the redo applied so far: on
    /// activation this stand-by opens with exactly the commits at or below
    /// this SCN (plus the backup it was instantiated from).
    pub fn last_commit_scn(&self) -> Scn {
        self.replayed.last_commit_scn
    }

    /// Arms a media fault: the next shipped archive copy lands corrupted,
    /// so its decode fails with
    /// [`RecoveryError::ShippedArchiveCorrupt`](crate::error::RecoveryError::ShippedArchiveCorrupt).
    pub fn arm_ship_corruption(&mut self) {
        self.corrupt_next_ship = true;
    }

    /// Ships and applies every primary archive completed by now, in
    /// sequence order. Call periodically (the benchmark driver does so
    /// between transactions).
    ///
    /// # Errors
    ///
    /// Fails only on stand-by storage errors.
    // tidy-entry(recovery)
    pub fn sync(&mut self, primary: &DbServer) -> DbResult<()> {
        if self.activated {
            return Ok(());
        }
        let now = self.server.clock.now();
        loop {
            let next = self.applied_seq + 1;
            let Ok(control) = primary.control_ref() else { break };
            let Some(loc) = control.seq(next) else { break };
            let Some((archive, done_at)) = loc.archive else { break };
            if done_at > now {
                break;
            }
            // Ship: read on the primary's archive disk, network latency,
            // write on the stand-by's archive disk.
            let (segments, bytes) = {
                let mut pfs = primary.fs().lock();
                let segments = pfs.peek_all(archive)?;
                let bytes = pfs.meta(archive)?.size_bytes;
                let _ = pfs.charge_io(primary.layout.archive_disk, IoKind::Read, bytes, done_at)?;
                (segments, bytes)
            };
            self.ingest(next, segments, bytes, done_at)?;
        }
        Ok(())
    }

    /// Ships and applies archives from an **upstream stand-by** (cascaded
    /// topology): reads the upstream's retained shipped copies instead of
    /// the primary's archive disk, so the primary carries no extra I/O for
    /// deep chains.
    ///
    /// # Errors
    ///
    /// [`RecoveryError::ArchiveGap`](crate::error::RecoveryError::ArchiveGap)
    /// when the upstream has applied past the needed sequence but no
    /// longer holds a shippable copy (a redo gap this stand-by cannot
    /// close without re-instantiation); otherwise stand-by storage errors.
    // tidy-entry(recovery)
    pub fn sync_from_standby(&mut self, upstream: &StandbyServer) -> DbResult<()> {
        if self.activated {
            return Ok(());
        }
        let now = self.server.clock.now();
        loop {
            let next = self.applied_seq + 1;
            let Some(copy) = upstream.received.get(&next) else {
                if upstream.applied_seq >= next {
                    return Err(RecoveryError::ArchiveGap { seq: next }.into());
                }
                break;
            };
            if copy.ready_at > now {
                break;
            }
            let (segments, bytes, available_at) = (copy.segments.clone(), copy.bytes, copy.ready_at);
            {
                let mut ufs = upstream.server.fs().lock();
                let _ = ufs.charge_io(
                    upstream.server.layout.archive_disk,
                    IoKind::Read,
                    bytes,
                    available_at,
                )?;
            }
            self.ingest(next, segments, bytes, available_at)?;
        }
        Ok(())
    }

    /// Lands one shipped archive on this stand-by: charges the archive-disk
    /// write (after the ship latency), decodes, applies in the background
    /// — one replay pass, ended on every exit — and retains the copy for
    /// any downstream stand-by.
    fn ingest(
        &mut self,
        next: u64,
        mut segments: Vec<Bytes>,
        bytes: u64,
        available_at: SimTime,
    ) -> DbResult<()> {
        let ship_done = {
            let mut fs = self.server.fs.lock();
            let arrived = available_at + costs::STANDBY_SHIP_LATENCY;
            fs.charge_io(self.server.layout.archive_disk, IoKind::Write, bytes, arrived)?
        };
        self.archives_shipped += 1;
        if self.corrupt_next_ship {
            self.corrupt_next_ship = false;
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
            .map_err(|_| RecoveryError::ShippedArchiveCorrupt { seq: next })?;
        let apply_start = ship_done.max(self.apply_done_at);
        let nrecords = records.len() as u64;
        self.apply_done_at = apply_start + costs::CPU_APPLY_RECORD * nrecords;
        let applied: DbResult<()> = records.iter().try_for_each(|(offset, rec)| {
            let addr = RedoAddr { seq: next, offset: *offset };
            self.replayed.note_and_apply(&mut self.server, rec, |srv, key, view, change| {
                Self::mutate_block(srv, key, apply_start, addr, view, change)
            })?;
            self.records_applied += 1;
            Ok(())
        });
        self.replayed.end_pass(&mut self.server);
        applied?;
        self.applied_seq = next;
        self.received.insert(next, ShippedArchive { segments, bytes, ready_at: ship_done });
        self.server.events.record(
            self.apply_done_at,
            EngineEvent::StandbyArchiveApplied { seq: next, records: nrecords },
        );
        Ok(())
    }

    /// Activates the stand-by after a primary failure: finish applying
    /// what was shipped, roll back unresolved transactions, open. Returns
    /// the instant the stand-by accepts work.
    ///
    /// The caller is responsible for having called [`StandbyServer::sync`]
    /// one final time first.
    ///
    /// # Errors
    ///
    /// Fails on stand-by storage errors or repeated activation.
    // tidy-entry(recovery)
    pub fn activate(&mut self) -> DbResult<SimTime> {
        if self.activated {
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
        self.activated = true;
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
    use crate::types::ObjectId;
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

    #[test]
    fn standby_follows_and_activates_with_archived_work() {
        let (mut p, t) = primary_with_data();
        let clock = Arc::clone(p.clock());
        let mut sb =
            StandbyServer::instantiate(&p, "STBY", Arc::clone(&clock), DiskLayout::four_disk(), cfg(64))
                .unwrap();
        // Generate enough work to switch logs several times (archives ship).
        let s = p.connect().unwrap();
        for i in 100..300 {
            p.insert(s, t, Row::new(vec![Value::U64(i), Value::from("workload-row-payload")]))
                .unwrap();
            p.commit(s).unwrap();
            sb.sync(&p).unwrap();
        }
        assert!(sb.archives_shipped > 0, "archives must have shipped");
        // Primary dies; stand-by takes over.
        p.shutdown_abort().unwrap();
        sb.sync(&p).unwrap();
        let before = clock.now();
        let ready = sb.activate().unwrap();
        assert!(ready >= before);
        assert!(sb.activated);
        let srv = sb.server_mut();
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
        let clock = Arc::clone(p.clock());
        let mut sb =
            StandbyServer::instantiate(&p, "STBY", Arc::clone(&clock), DiskLayout::four_disk(), cfg(64))
                .unwrap();
        // A little work — not enough to fill a 64 KiB log.
        let s = p.connect().unwrap();
        for i in 100..105 {
            p.insert(s, t, Row::new(vec![Value::U64(i), Value::from("x")])).unwrap();
            p.commit(s).unwrap();
        }
        p.shutdown_abort().unwrap();
        sb.sync(&p).unwrap();
        sb.activate().unwrap();
        assert_eq!(sb.server().peek_scan(t).unwrap().len(), 10, "only backup rows survive");
    }

    #[test]
    fn standby_requires_backup() {
        let clock = SimClock::shared();
        let mut p = DbServer::on_fresh_disks("P2", Arc::clone(&clock), DiskLayout::four_disk(), cfg(64));
        p.create_database().unwrap();
        let err =
            StandbyServer::instantiate(&p, "S2", clock, DiskLayout::four_disk(), cfg(64)).unwrap_err();
        assert!(matches!(err, DbError::Unrecoverable(_)));
    }

    #[test]
    fn corrupt_ship_surfaces_a_typed_recovery_error() {
        let (mut p, t) = primary_with_data();
        let clock = Arc::clone(p.clock());
        let mut sb =
            StandbyServer::instantiate(&p, "STBY", clock, DiskLayout::four_disk(), cfg(64)).unwrap();
        sb.arm_ship_corruption();
        let s = p.connect().unwrap();
        let mut hit = None;
        for i in 100..300 {
            p.insert(s, t, Row::new(vec![Value::U64(i), Value::from("workload-row-payload")]))
                .unwrap();
            p.commit(s).unwrap();
            if let Err(e) = sb.sync(&p) {
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
        let clock = Arc::clone(p.clock());
        let mut sb =
            StandbyServer::instantiate(&p, "STBY", clock, DiskLayout::four_disk(), cfg(64)).unwrap();
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
            if let Err(e) = sb.sync(&p) {
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
        let mut sb1 =
            StandbyServer::instantiate(&p, "SB1", Arc::clone(&clock), DiskLayout::four_disk(), cfg(64))
                .unwrap();
        let mut sb2 =
            StandbyServer::instantiate(&p, "SB2", Arc::clone(&clock), DiskLayout::four_disk(), cfg(64))
                .unwrap();
        let s = p.connect().unwrap();
        for i in 100..300 {
            p.insert(s, t, Row::new(vec![Value::U64(i), Value::from("workload-row-payload")]))
                .unwrap();
            p.commit(s).unwrap();
            sb1.sync(&p).unwrap();
            sb2.sync_from_standby(&sb1).unwrap();
        }
        assert!(sb1.archives_shipped > 0, "upstream must have shipped archives");
        // Let the downstream catch up to everything the upstream retains.
        clock.advance(SimDuration::from_secs(5));
        sb2.sync_from_standby(&sb1).unwrap();
        assert_eq!(sb2.applied_seq(), sb1.applied_seq(), "cascade catches up to its upstream");
        assert!(sb2.last_commit_scn() > Scn::ZERO);
        // The downstream activates into a working primary.
        p.shutdown_abort().unwrap();
        sb2.activate().unwrap();
        let rows = sb2.server().peek_scan(t).unwrap();
        assert!(rows.len() >= 10, "backup rows present on the cascaded stand-by");
    }

    #[test]
    fn activation_is_rejected_twice() {
        let (mut p, _t) = primary_with_data();
        let clock = Arc::clone(p.clock());
        let mut sb =
            StandbyServer::instantiate(&p, "STBY", clock, DiskLayout::four_disk(), cfg(64)).unwrap();
        p.shutdown_abort().unwrap();
        sb.activate().unwrap();
        assert!(matches!(sb.activate(), Err(DbError::AlreadyOpen)));
    }
}
