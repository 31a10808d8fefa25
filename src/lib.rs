//! # RecoBench
//!
//! A dependability benchmark for database management systems that jointly
//! measures **performance** (TPC-C tpmC) and **recoverability** (recovery
//! time, lost transactions, data-integrity violations) in the presence of
//! **operator faults** — a from-scratch reproduction of
//! *"Recovery and Performance Balance of a COTS DBMS in the Presence of
//! Operator Faults"* (M. Vieira, H. Madeira — DSN 2002).
//!
//! This facade crate re-exports the workspace members:
//!
//! * [`sim`] — deterministic discrete-event simulation kernel (clock, disks).
//! * [`vfs`] — simulated storage: disks, block files, append files.
//! * [`engine`] — an Oracle-8i-architecture DBMS: buffer cache, redo logs,
//!   checkpoints, archiver, backups, crash/media/point-in-time recovery and
//!   a stand-by instance.
//! * [`tpcc`] — the TPC-C workload: schema, loader, the five transaction
//!   profiles, a terminal driver and the consistency conditions.
//! * [`faults`] — the operator-fault taxonomy (paper Tables 1 & 2), the
//!   fault injector and multi-fault torture schedules.
//! * [`core`] — the benchmark harness: recovery configurations (paper
//!   Table 3), the experiment runner and the dependability measures.
//! * [`oracle`] — the model-based differential oracle and torture runner:
//!   an independent reference model checked against the engine after
//!   randomized multi-fault schedules, with shrinking to minimal
//!   reproducers.
//! * [`bench`] — everything behind the `recobench` command line: the
//!   reports that regenerate `results/`, the one-campaign `paper` run and
//!   the torture sweep.
//!
//! # Quickstart
//!
//! ```
//! use recobench::core::{Experiment, RecoveryConfig};
//! use recobench::faults::FaultType;
//!
//! // Run a single 20-simulated-minute TPC-C experiment with a shutdown-abort
//! // operator fault injected 150 s in, on the F10G3T5 recovery configuration.
//! let config = RecoveryConfig::named("F10G3T5").expect("known configuration");
//! let outcome = Experiment::builder(config)
//!     .fault(FaultType::ShutdownAbort, 150)
//!     .duration_secs(240)
//!     .seed(42)
//!     .run()
//!     .expect("experiment runs");
//! assert!(outcome.measures.recovery_time_secs.unwrap() > 0.0);
//! assert_eq!(outcome.measures.integrity_violations, 0);
//! ```

pub use recobench_bench as bench;
pub use recobench_core as core;
pub use recobench_engine as engine;
pub use recobench_faults as faults;
pub use recobench_oracle as oracle;
pub use recobench_sim as sim;
pub use recobench_tpcc as tpcc;
pub use recobench_vfs as vfs;
