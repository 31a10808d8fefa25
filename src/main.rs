//! `recobench` — the one command-line front end: `recobench <report>`
//! regenerates a table or figure of `results/`, `recobench paper` all of
//! them from one campaign; `torture` and `run` are the tools beside them.
//! Run it without arguments for the list; the subcommands and the flags
//! each one reads are in [`recobench::bench::cli`].

fn main() -> std::process::ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    recobench::bench::cli::main(&args)
}
