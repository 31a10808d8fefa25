//! Simulated storage substrate for RecoBench.
//!
//! The DBMS engine stores its bytes — datafiles, online redo logs, archived
//! logs and backup pieces — in a [`SimFs`]: a set of simulated disks (with
//! the single-server service model from `recobench-sim`) holding named
//! files. Two access styles are supported per file:
//!
//! * **block files** — fixed-size randomly addressable blocks (datafiles,
//!   and backup pieces, which are block copies of them);
//! * **append files** — sequential byte streams (online redo logs, and
//!   archived logs, which are append copies of them).
//!
//! The vfs stores bytes and judges none of them: it refuses a file only
//! when it is deleted or missing, or addressed out of range or in the wrong
//! access style. Every other damage is bytes, which the engine's own
//! decoder classifies.
//!
//! The filesystem also exposes the *operator's* surface: a file can be
//! deleted by path, exactly the way a DBA with a shell on the server would
//! damage a real installation. That is what the fault injector uses.
//!
//! Below the operator's surface sits the *hardware's*: storage faults armed
//! through [`FaultArm`] — torn block writes, interrupted appends, silent
//! bit-rot, `ENOSPC`, limping disks and crash-at-write-point kills — model
//! what a failing disk or abrupt power loss does underneath the DBMS.
//!
//! All operations charge service time on the owning disk and return the
//! completion instant so callers can advance their simulated clock.

// The error enums own `String`s, so a value handed to `.ok_or(…)` is built
// *and dropped* on the success path. Clippy's `or_fun_call` asks for the
// closure wherever the argument allocates or calls (`format!`, `.into()`,
// `.to_string()`), and CI's clippy job denies its warning. Around a unit
// variant the closure is harmless; `unnecessary_lazy_evaluations`, which
// would strip it, stays off so every error path reads the same.
#![warn(clippy::or_fun_call)]
#![allow(clippy::unnecessary_lazy_evaluations)]

pub mod error;
pub mod fs;
pub mod snapshot;

pub use error::{VfsError, VfsResult};
pub use recobench_sim::disk::IoKind;
pub use fs::{DiskId, FaultArm, FileId, FileKind, FileMatch, FileMeta, SharedFs, SimFs};
pub use snapshot::{FsSnapshot, SnapshotId};
