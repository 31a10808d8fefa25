//! `recobench-tidy` — the repo's static-analysis wall.
//!
//! ```text
//! cargo run -p recobench-tidy               # lint the workspace, exit 1 on findings
//! cargo run -p recobench-tidy -- --list     # list registered lints
//! cargo run -p recobench-tidy -- --root some/tree
//! ```
//!
//! Exit codes: 0 clean, 1 violations found, 2 usage or I/O error.

use std::path::{Path, PathBuf};
use std::process::ExitCode;

use recobench_tidy::{lints, run, Workspace};

fn main() -> ExitCode {
    let mut root: Option<PathBuf> = None;
    let mut args = std::env::args().skip(1);
    while let Some(arg) = args.next() {
        match arg.as_str() {
            "--list" => {
                for lint in lints::all() {
                    println!("{:<24} {}", lint.name(), lint.description());
                }
                return ExitCode::SUCCESS;
            }
            "--root" => root = args.next().map(PathBuf::from),
            "--help" | "-h" => {
                println!("usage: recobench-tidy [--root DIR] [--list]");
                return ExitCode::SUCCESS;
            }
            other => {
                eprintln!("recobench-tidy: unknown argument {other:?} (try --help)");
                return ExitCode::from(2);
            }
        }
    }

    let root = match root {
        Some(r) => r,
        None => match find_workspace_root() {
            Some(r) => r,
            None => {
                eprintln!(
                    "recobench-tidy: no workspace root found above the current directory \
                     (looked for Cargo.toml + crates/); pass --root"
                );
                return ExitCode::from(2);
            }
        },
    };

    let ws = match Workspace::load(&root) {
        Ok(ws) => ws,
        Err(e) => {
            eprintln!("recobench-tidy: {e}");
            return ExitCode::from(2);
        }
    };
    let diagnostics = run(&ws);

    if diagnostics.is_empty() {
        println!("tidy: {} files clean across {} lints", ws.model.files.len(), lints::all().len());
        ExitCode::SUCCESS
    } else {
        for d in &diagnostics {
            println!("{d}");
        }
        println!("tidy: {} violation(s)", diagnostics.len());
        ExitCode::FAILURE
    }
}

/// Walks upward from the current directory to the first directory that
/// looks like the workspace root (`Cargo.toml` next to `crates/`), so the
/// binary works from any subdirectory.
fn find_workspace_root() -> Option<PathBuf> {
    let mut dir = std::env::current_dir().ok()?;
    loop {
        if dir.join("Cargo.toml").is_file() && dir.join("crates").is_dir() {
            return Some(dir);
        }
        if !pop(&mut dir) {
            return None;
        }
    }
}

fn pop(dir: &mut PathBuf) -> bool {
    let parent: Option<&Path> = dir.parent();
    match parent {
        Some(p) => {
            let p = p.to_path_buf();
            *dir = p;
            true
        }
        None => false,
    }
}
