//! Operator faults for RecoBench.
//!
//! The paper's central contribution is a *faultload of operator faults* —
//! database-administrator mistakes reproduced through exactly the same
//! interfaces a real DBA uses. This crate provides:
//!
//! * the **taxonomy**: the five fault classes of the paper's Table 1 and
//!   the concrete Oracle-8i fault types of Table 2, with their
//!   portability rating;
//! * the **injector**: the six fault types actually injected in the
//!   paper's experiments, each implemented as the real administrative or
//!   OS action against the engine plus the recovery procedure a competent
//!   DBA would run afterwards.

pub mod injector;
pub mod scenario;
pub mod schedule;
pub mod taxonomy;

pub use injector::{FaultInjector, FaultOutcome, FaultPlan, InjectionRecord, DETECTION};
pub use scenario::Sabotage;
pub use schedule::{FaultSchedule, ScheduledFault, TortureFaultKind};
pub use taxonomy::{
    FaultClass, FaultType, OperatorFaultType, Portability, RecoveryKind, ReplicaFaultType,
    StorageFaultType,
};
