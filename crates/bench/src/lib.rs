//! Everything behind the `recobench` command line.
//!
//! [`cli`] is the front end: subcommands, and the flags each one reads.
//! [`reports`] regenerates the tables and figures of `results/` — one at
//! a time or, as `recobench paper`, all from a single campaign.
//! [`breakdown`], [`topologies`] and [`torture`] are the tools that write
//! an artifact or spend a wall-clock budget instead. The `perf` benchmark
//! under `src/bin/perf/` is a program of its own.

pub mod breakdown;
pub mod cli;
pub mod reports;
pub mod topologies;
pub mod torture;
