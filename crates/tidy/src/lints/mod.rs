//! The lint registry. Adding a lint: write a module with a unit struct
//! implementing [`Lint`](crate::Lint), push it in [`all`], document it in
//! `DESIGN.md` §12, and add a violation fixture under
//! `tests/fixtures/violations/` so the framework tests pin its
//! `file:line` behaviour.

use crate::Lint;

pub mod error_swallow;
pub mod lock_discipline;
pub mod panic_freedom;
pub mod sabotage_isolation;
pub mod write_site_coverage;

/// Every registered lint, in the order they run and are listed.
pub fn all() -> Vec<Box<dyn Lint>> {
    vec![
        Box::new(panic_freedom::PanicFreedom),
        Box::new(error_swallow::ErrorSwallow),
        Box::new(lock_discipline::LockDiscipline),
        Box::new(write_site_coverage::WriteSiteCoverage),
        Box::new(sabotage_isolation::SabotageIsolation),
    ]
}
