//! Everything behind the `recobench` command line.
//!
//! [`cli`] is the front end: subcommands, and the flags each one reads.
//! [`reports`] regenerates the tables and figures of `results/` — one at
//! a time or, as `recobench paper`, all from a single campaign.
//! [`torture`] is the tool that spends a wall-clock budget instead. The
//! `perf` benchmark under `src/bin/perf/` is a program of its own.

pub mod cli;
pub mod reports;
pub mod torture;
