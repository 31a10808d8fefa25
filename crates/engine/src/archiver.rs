//! The archive writer (ARCH): copying filled online log groups to the
//! archive destination.
//!
//! Archiving is submitted at log-switch time and completes asynchronously:
//! the copy occupies the redo disk (read) and the archive disk (write),
//! which is the "moderate performance impact" of ARCHIVELOG mode the
//! paper's Figure 5 shows. A group cannot be reused until its sequence has
//! been archived.

use recobench_sim::SimTime;
use recobench_vfs::{DiskId, FileKind, SimFs};

use crate::controlfile::ControlFile;
use crate::error::{DbError, DbResult, RecoveryError};
use crate::events::{EngineEvent, EventSink};

/// Archives sequence `seq` (which must still reside in an online group):
/// submits the copy at `now`, records the archive location and completion
/// time in the control file, emits [`EngineEvent::Archived`] on `events`,
/// and returns the completion instant.
///
/// # Errors
///
/// Fails if the sequence is unknown, no longer online, or the copy fails.
// tidy-entry(recovery)
pub(crate) fn archive_seq(
    fs: &mut SimFs,
    control: &mut ControlFile,
    archive_disk: DiskId,
    seq: u64,
    now: SimTime,
    events: &mut EventSink,
) -> DbResult<SimTime> {
    let group_idx = control
        .seqs
        .get(&seq)
        .and_then(|loc| loc.group)
        .ok_or_else(|| DbError::BadAdminCommand(format!("log seq {seq} is not online")))?;
    let group_file =
        control.groups.get(group_idx).ok_or_else(|| RecoveryError::SeqLocationLost(seq))?.vfs_id;
    let path = format!("/arch/{}_{:06}.arc", control.db_name, seq);
    let (done, archive_id) = fs.copy_file(group_file, &path, archive_disk, FileKind::Archive, now)?;
    let loc = control.seqs.get_mut(&seq).ok_or_else(|| RecoveryError::SeqLocationLost(seq))?;
    loc.archive = Some(archive_id);
    loc.archive_done_at = Some(done);
    events.record(now, EngineEvent::Archived { seq, complete_at: done });
    Ok(done)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::catalog::Catalog;
    use crate::controlfile::LogGroup;
    use bytes::Bytes;
    use recobench_sim::DiskProfile;
    use std::sync::Arc;

    fn setup() -> (SimFs, ControlFile) {
        let mut fs = SimFs::new(vec![DiskProfile::server_2000(); 2]);
        let g1 = fs.create_append_file("/u03/redo01.log", DiskId(0), FileKind::Redo).unwrap();
        let control = ControlFile::new(
            "TEST",
            vec![LogGroup { path: "/u03/redo01.log".into(), vfs_id: g1 }],
            Arc::new(Catalog::new()),
        );
        (fs, control)
    }

    #[test]
    fn archive_copies_and_records_completion() {
        let (mut fs, mut control) = setup();
        let g = control.groups[0].vfs_id;
        fs.append(g, Bytes::from(vec![1u8; 4096]), SimTime::ZERO).unwrap();
        let mut events = EventSink::default();
        let seen = crate::events::collect(&mut events);
        let done =
            archive_seq(&mut fs, &mut control, DiskId(1), 1, SimTime::from_secs(1), &mut events)
                .unwrap();
        assert!(done > SimTime::from_secs(1));
        assert_eq!(
            *seen.lock().unwrap(),
            [(SimTime::from_secs(1), EngineEvent::Archived { seq: 1, complete_at: done })]
        );
        assert_eq!(events.derived().archives_created, 1);
        let loc = control.seq(1).unwrap();
        assert_eq!(loc.archive_done_at, Some(done));
        let archive = loc.archive.unwrap();
        let segs = fs.peek_all(archive).unwrap();
        assert_eq!(segs[0].len(), 4096, "archive holds the group contents");
        assert!(control.seq_available(1, done));
    }

    #[test]
    fn archiving_unknown_seq_fails() {
        let (mut fs, mut control) = setup();
        let mut events = EventSink::default();
        let seen = crate::events::collect(&mut events);
        let err = archive_seq(&mut fs, &mut control, DiskId(1), 42, SimTime::ZERO, &mut events)
            .unwrap_err();
        assert!(matches!(err, DbError::BadAdminCommand(_)));
        assert!(seen.lock().unwrap().is_empty(), "no event on failure");
    }

    #[test]
    fn archiving_overwritten_seq_fails() {
        let (mut fs, mut control) = setup();
        control.seqs.get_mut(&1).unwrap().group = None;
        let mut events = EventSink::default();
        assert!(archive_seq(&mut fs, &mut control, DiskId(1), 1, SimTime::ZERO, &mut events).is_err());
    }
}
