//! A COTS-architecture relational storage engine on simulated hardware.
//!
//! `recobench-engine` implements the database server that RecoBench puts
//! under test: the same mechanism inventory as the Oracle 8i server the
//! paper benchmarks, built from scratch on the deterministic simulation
//! substrate (`recobench-sim` + `recobench-vfs`):
//!
//! * **Physical structures** — control file, datafiles (block-addressed),
//!   online redo log groups (circular, fixed size), archived logs, backups.
//! * **Logical structures** — tablespaces, users, tables with typed rows,
//!   in-memory indexes maintained through redo.
//! * **Instance** — buffer cache with dirty tracking (DBWR), redo log
//!   buffer and writer (LGWR), checkpointing (CKPT: log-switch-triggered
//!   full checkpoints plus a timeout-driven incremental checkpoint
//!   position), archiver (ARCH), transaction manager with row locks and
//!   rollback via before-images.
//! * **Recovery** — crash recovery (roll-forward from the checkpoint
//!   position, then rollback of in-flight transactions), media recovery of
//!   individual datafiles (restore from backup + archived/online redo),
//!   and incomplete point-in-time recovery (restore whole database,
//!   recover until a stop SCN — losing the tail, as Oracle does after a
//!   `DROP` you need to undo).
//! * **Stand-by database** — a second server kept in permanent recovery by
//!   shipping and applying archived logs, with constant-time activation.
//!
//! The public entry point is [`DbServer`]; see the `quickstart` example in
//! the workspace root for an end-to-end tour.

// The error enums own `String`s, so a value handed to `.ok_or(…)` is built
// *and dropped* on the success path — a call clippy's cost model does not
// see. tidy's `lazy-errors` lint asks for the closure clippy would remove.
#![allow(clippy::unnecessary_lazy_evaluations)]

mod admin;
mod apply;
pub mod archiver;
pub mod backup;
mod blockio;
pub mod cache;
pub mod catalog;
pub mod checkpoint;
pub mod codec;
pub mod config;
pub mod controlfile;
pub mod error;
pub mod events;
pub mod fasthash;
pub mod heap;
pub mod index;
pub mod instance;
pub mod layout;
pub mod page;
pub mod recovery;
pub mod redo;
pub mod replica;
pub mod row;
pub mod server;
mod session;
pub mod snapshot;
mod standby;
pub mod stats;
pub mod tap;
pub mod txn;
pub mod types;
pub mod verify;

pub use config::{CostModel, InstanceConfig};
pub use error::{DbError, DbResult, RecoveryError};
pub use events::{EngineEvent, EventSink, RecoveryPhase, RecoveryProcedure};
pub use layout::DiskLayout;
pub use replica::{FailoverPolicy, ReplicaSet, ReplicaStatus, ReplicaTopology};
pub use row::{Row, Value};
pub use server::DbServer;
pub use snapshot::DbSnapshot;
pub use tap::{DmlChange, DmlTap};
pub use txn::{LockGrant, LockOutcome};
pub use types::{ObjectId, RowId, Scn, SessionId, TablespaceId, TxnId, UserId};
pub use verify::IntegrityReport;
