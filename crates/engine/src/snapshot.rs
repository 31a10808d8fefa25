//! Forking a server, and the parked forks campaigns boot their cells from.
//!
//! Every experiment cell pays the same setup before its measured window
//! (create the database, load the schema, take the cold backup), and every
//! cell of a group the same fault-free workload up to the fault. Both are
//! pure functions of their inputs, so a campaign runs them once and hands
//! each cell a copy: [`DbServer::fork`] is the one routine that copies a
//! server. The copy carries the complete persistent world (a copy-on-write
//! clone of the filesystem with its disk queues, control file, backup
//! catalog) *and* the volatile one (buffer cache, transaction table, lock
//! wait queues, redo position, connected sessions with their pending
//! grants and deferred undo, what the event stream has counted), so it is
//! indistinguishable from the server it was taken from — except that
//! nobody observes it yet: event subscribers and the DML tap belong to one
//! run and are not carried.
//!
//! A [`DbSnapshot`] is such a fork parked at its capture instant;
//! [`DbServer::from_snapshot`] forks it again. Forking advances the target
//! clock to the source's instant, so the simulated timeline of a forked
//! run matches a monolithic run exactly: the same-seed byte-identical
//! `ExperimentOutcome` contract (DESIGN.md §9) holds with and without it.

use std::sync::{Arc, Mutex};

use recobench_sim::{SimClock, SimTime};

use crate::server::DbServer;

/// A captured server: a fork parked at one simulated instant, sharing all
/// block payloads with its source and with every server booted from it
/// (COW). Whatever was connected at the capture — sessions, the
/// transactions they have open, a statement parked in a lock wait queue —
/// is part of the image and resumes in the restored server.
#[derive(Debug)]
pub struct DbSnapshot {
    /// Behind a mutex only so that an image can be shared across campaign
    /// workers: a server holds boxed observers, which are not `Sync`.
    parked: Mutex<DbServer>,
    taken_at: SimTime,
}

impl DbSnapshot {
    fn parked(&self) -> std::sync::MutexGuard<'_, DbServer> {
        self.parked.lock().expect("forking a parked server does not panic")
    }

    /// The simulated instant the snapshot was taken at. Restoring advances
    /// the clock here, so restored timelines line up with monolithic ones.
    pub fn taken_at(&self) -> SimTime {
        self.taken_at
    }
}

impl DbServer {
    /// An independent copy of this server as it stands, on `clock`, which
    /// is advanced to this server's instant (never rewound). Every field is
    /// copied — the literal below does not compile without one — except
    /// the observers: the fork has no event subscribers and no DML tap.
    pub fn fork(&self, clock: Arc<SimClock>) -> DbServer {
        clock.advance_to(self.clock.now());
        DbServer {
            name: self.name.clone(),
            clock,
            // Blocks and append segments are refcounted `Bytes`: the clone
            // shares every payload until either side writes.
            fs: recobench_vfs::fs::shared(self.fs.lock().clone()),
            layout: self.layout.clone(),
            config: self.config.clone(),
            control: self.control.clone(),
            inst: self.inst.clone(),
            backup: self.backup.clone(),
            stats: self.stats,
            next_dbwr_tick: self.next_dbwr_tick,
            managed_recovery: self.managed_recovery,
            datafile_total: self.datafile_total,
            txn_floor: self.txn_floor,
            backups_taken: self.backups_taken,
            sessions: self.sessions.clone(),
            next_session: self.next_session,
            lock_grants: self.lock_grants.clone(),
            deferred_undo: self.deferred_undo.clone(),
            events: self.events.fork(),
            dml_tap: None,
            #[cfg(any(test, feature = "sabotage"))]
            sabotage_skip_redo: self.sabotage_skip_redo,
        }
    }

    /// Captures the server's complete state at the current instant.
    pub fn snapshot(&self) -> DbSnapshot {
        DbSnapshot {
            parked: Mutex::new(self.fork(SimClock::shared())),
            taken_at: self.clock.now(),
        }
    }

    /// Boots a server from a snapshot: a fork of the parked server on
    /// `clock`, which lands on the capture instant, so all subsequent
    /// timing matches the server the snapshot was taken from.
    pub fn from_snapshot(clock: Arc<SimClock>, snap: &DbSnapshot) -> DbServer {
        snap.parked().fork(clock)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::catalog::IndexDef;
    use crate::config::InstanceConfig;
    use crate::layout::DiskLayout;
    use crate::row::{Row, Value};

    fn prepared() -> DbServer {
        let mut srv = DbServer::on_fresh_disks(
            "SNAP",
            SimClock::shared(),
            DiskLayout::four_disk(),
            InstanceConfig::default(),
        );
        srv.create_database().unwrap();
        srv.create_user("u").unwrap();
        srv.create_tablespace("T", 2, 4096).unwrap();
        let t = srv
            .create_table("KV", "u", "T", vec![IndexDef { name: "PK".into(), cols: vec![0], unique: true, ordered: true }])
            .unwrap();
        let s = srv.connect().unwrap();
        for k in 0..200u64 {
            srv.insert(s, t, Row::new(vec![Value::U64(k), Value::from("payload")])).unwrap();
            srv.commit(s).unwrap();
        }
        srv.disconnect(s);
        srv.take_cold_backup().unwrap();
        srv
    }

    fn table_of(srv: &DbServer) -> crate::types::ObjectId {
        srv.inst.as_ref().unwrap().catalog.table_by_name("KV").unwrap()
    }

    #[test]
    fn restored_server_matches_the_original() {
        let src = prepared();
        let snap = src.snapshot();
        let restored = DbServer::from_snapshot(SimClock::shared(), &snap);
        assert_eq!(restored.clock().now(), snap.taken_at());
        assert!(restored.is_open());
        assert_eq!(restored.current_scn(), src.current_scn());
        let t = table_of(&restored);
        assert_eq!(restored.peek_scan(t).unwrap(), src.peek_scan(t).unwrap());
        assert!(restored.backup().is_some(), "the backup catalog survives the snapshot");
    }

    #[test]
    fn clones_diverge_independently() {
        let snap = prepared().snapshot();
        let mut a = DbServer::from_snapshot(SimClock::shared(), &snap);
        let b = DbServer::from_snapshot(SimClock::shared(), &snap);
        let t = table_of(&a);
        let s = a.connect().unwrap();
        a.insert(s, t, Row::new(vec![Value::U64(9_999), Value::from("extra")])).unwrap();
        a.commit(s).unwrap();
        assert_eq!(a.peek_scan(t).unwrap().len(), 201);
        assert_eq!(b.peek_scan(t).unwrap().len(), 200, "sibling clone is untouched");
    }

    #[test]
    fn identical_workloads_on_clones_replay_identically() {
        let snap = prepared().snapshot();
        let run = || {
            let mut srv = DbServer::from_snapshot(SimClock::shared(), &snap);
            let t = table_of(&srv);
            let s = srv.connect().unwrap();
            for k in 500..540u64 {
                srv.insert(s, t, Row::new(vec![Value::U64(k), Value::from("more")])).unwrap();
                srv.commit(s).unwrap();
            }
            srv.shutdown_abort().unwrap();
            srv.startup().unwrap();
            (srv.clock().now(), srv.current_scn(), srv.stats(), srv.peek_scan(t).unwrap())
        };
        assert_eq!(run(), run(), "two clones of one snapshot are bit-for-bit replicas");
    }

    /// A server restored mid-run must go on counting where its source
    /// stood: the event-derived half of `stats()` used to restart at zero,
    /// so any stats window spanning the boot under-counted.
    #[test]
    fn restored_server_keeps_what_its_event_stream_counted() {
        let config = InstanceConfig::builder().redo_file_bytes(32 * 1024).redo_groups(3).build();
        let mut src =
            DbServer::on_fresh_disks("SNAP", SimClock::shared(), DiskLayout::four_disk(), config);
        src.create_database().unwrap();
        src.create_user("u").unwrap();
        src.create_tablespace("T", 2, 4096).unwrap();
        let t = src
            .create_table("KV", "u", "T", vec![IndexDef { name: "PK".into(), cols: vec![0], unique: true, ordered: true }])
            .unwrap();
        let holder = src.connect().unwrap();
        let mut rid = None;
        for k in 0..400u64 {
            rid = Some(src.insert(holder, t, Row::new(vec![Value::U64(k), Value::from("payload")])).unwrap());
            src.commit(holder).unwrap();
        }
        let rid = rid.unwrap();
        let waiter = src.connect().unwrap();
        src.update(holder, t, rid, Row::new(vec![Value::U64(399), Value::from("held")])).unwrap();
        src.update(waiter, t, rid, Row::new(vec![Value::U64(399), Value::from("late")])).unwrap_err();
        let counted = src.stats();
        assert!(counted.log_switches >= 1, "400 commits must switch a 32 KB log");
        assert_eq!(counted.lock_waits, 1);

        let restored = DbServer::from_snapshot(SimClock::shared(), &src.snapshot());
        assert_eq!(restored.stats(), counted);
    }

    /// A fork taken while one session holds a row lock, a second is parked
    /// in its wait queue and a third is mid-transaction: all three resume
    /// in the fork exactly as in the server it was taken from — the same
    /// grant at the same instant, the same commits in the same order.
    #[test]
    fn fork_taken_mid_lock_wait_resumes_like_its_source() {
        let mut src = prepared();
        let t = table_of(&src);
        let row = |k: u64, v: &str| Row::new(vec![Value::U64(k), Value::from(v)]);
        let rid = src.peek_lookup(t, 0, &[Value::U64(7)]).unwrap()[0];
        let (holder, waiter, bystander) =
            (src.connect().unwrap(), src.connect().unwrap(), src.connect().unwrap());
        src.update(holder, t, rid, row(7, "held")).unwrap();
        src.update(waiter, t, rid, row(7, "late")).unwrap_err();
        src.insert(bystander, t, row(9_001, "in flight")).unwrap();

        let mut fork = src.fork(SimClock::shared());
        assert_eq!(fork.clock().now(), src.clock().now());
        assert_eq!(fork.session_count(), 3, "connections are part of the fork");

        let resume = |srv: &mut DbServer| {
            let seen = crate::events::collect(srv.events_mut());
            srv.clock().advance(recobench_sim::SimDuration::from_millis(5));
            srv.commit(holder).unwrap();
            let grants = srv.take_lock_grants();
            assert_eq!(grants.len(), 1, "the holder's commit wakes the parked waiter");
            assert_eq!(grants[0].0, waiter);
            srv.update(waiter, t, rid, row(7, "late")).unwrap();
            let mut commits = vec![srv.current_scn()];
            for s in [bystander, waiter] {
                srv.commit(s).unwrap();
                commits.push(srv.current_scn());
            }
            let events = std::mem::take(&mut *seen.lock().unwrap());
            (grants, commits, srv.clock().now(), srv.stats(), events, srv.peek_scan(t).unwrap())
        };
        // The fork goes first: whatever it writes must not reach the source.
        let forked = resume(&mut fork);
        let held = src.peek_scan(t).unwrap().into_iter().find(|(r, _)| *r == rid).unwrap().1;
        assert_eq!(held, row(7, "held"), "the source is where it was");
        assert_eq!(forked, resume(&mut src));
        assert!(
            forked.4.iter().any(|(_, e)| matches!(e, crate::events::EngineEvent::LockAcquired { .. })),
            "the grant is on the event stream"
        );
        assert_eq!(forked.5.len(), 201);
    }

    #[test]
    fn snapshot_ids_are_deterministic() {
        let fs_id = |snap: DbSnapshot| recobench_vfs::FsSnapshot::capture(&snap.parked().fs.lock()).id();
        assert_eq!(fs_id(prepared().snapshot()), fs_id(prepared().snapshot()));
    }
}
