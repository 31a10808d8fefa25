//! The RecoBench dependability benchmark harness.
//!
//! This crate glues the substrates together into the paper's experimental
//! method: a TPC-C workload on the simulated DBMS, extended with a
//! faultload of operator faults and measures of recoverability.
//!
//! * [`RecoveryConfig`] — the sixteen recovery configurations of the
//!   paper's Table 3 (redo log file size × groups × checkpoint timeout).
//! * [`Experiment`] — one 20-simulated-minute benchmark run: create and
//!   load the database, take the cold backup, optionally instantiate a
//!   stand-by, drive TPC-C, inject one operator fault at its trigger
//!   instant, run the recovery procedure, keep driving to the end, then
//!   evaluate the measures.
//! * [`Measures`] — tpmC plus the dependability extensions: recovery time
//!   (end-user view), lost transactions, integrity violations.
//! * [`Campaign`] — parallel execution of experiment sets (one fault per
//!   experiment, exactly as the paper runs its 146 faults), with typed
//!   errors, input-order results, and progress callbacks.
//! * [`RecoveryBreakdown`] — where the recovery time went, phase by
//!   phase, derived from the engine's event stream.
//! * [`report`] — fixed-width tables for the per-table/figure reports in
//!   `recobench-bench`.

pub mod campaign;
pub mod configs;
pub mod experiment;
pub mod measures;
pub mod report;
pub mod rig;

pub use campaign::{Campaign, CampaignError, CampaignProgress, CampaignReport};
pub use configs::RecoveryConfig;
pub use experiment::{
    apply_margin_cutoff, Experiment, ExperimentBuilder, ExperimentOutcome, ExperimentTemplate,
};
pub use rig::Rig;
pub use measures::{Measures, RecoveryBreakdown};
