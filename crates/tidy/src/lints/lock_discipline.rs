//! Lint: session paths follow the engine's declared lock discipline.
//!
//! PR 6's session manager made `DbServer` a concurrent surface: multiple
//! terminals interleave DML while `LockTable` row locks are held until
//! commit. The WAL protocol only stays deadlock- and corruption-free if
//! four rules hold, and this lint checks all four over the call graph:
//!
//! 1. **Chokepoint** — `LockTable::lock_row` is called only from the
//!    `lock_for_dml` chokepoint (the lock manager's own crate is exempt).
//!    Scattered acquisition sites are how lock-order cycles get written.
//! 2. **Declared order** — in any fn that both acquires row locks and
//!    appends WAL (`lock_for_dml` + `append_record`), acquisition comes
//!    first: redo is never written for a row the session does not own.
//! 3. **Sanctioned writers** — fns reachable from the session entry
//!    points (`connect`, DML, `commit`, `rollback`) may touch the VFS
//!    write surface only inside the declared writer fns (redo append,
//!    log switch, checkpoint block flush). Any new direct write while row
//!    locks may be held must be routed through those or explicitly waived.
//! 4. **One applier** — `BlockImage::put` / `BlockImage::remove` are
//!    called only from the applier (`apply.rs`; the `page` module that
//!    defines them is exempt). Forward DML, rollback, every replay and the
//!    stand-by change a block through that one place, so a logged change
//!    cannot mean different things on different paths.

use crate::callgraph::CallStyle;
use crate::{Diagnostics, Lint, Workspace};

/// The engine's sources; the rules about `DbServer` hold in whichever
/// file under here an `impl DbServer` block lives.
const ENGINE_SRC: &str = "crates/engine/src/";

/// The session-facing entry points of `DbServer`.
const SESSION_ENTRIES: &[&str] =
    &["connect", "disconnect", "insert", "insert_batch", "update", "delete", "commit", "rollback"];

/// The single sanctioned acquisition chokepoint.
const CHOKEPOINT: &str = "lock_for_dml";

/// Fns allowed to perform direct VFS writes on session paths: the WAL
/// writers and the checkpoint/log-switch machinery they trigger
/// (`archive_seq` runs synchronously inside `log_switch`, as the paper's
/// DBMS does when the archiver falls behind).
const SANCTIONED_WRITERS: &[&str] =
    &["flush_redo", "log_switch", "full_checkpoint", "write_dirty", "write_block", "archive_seq"];

/// The applier: the only engine module, besides `page` itself, that may
/// change a block image.
const APPLIER: &str = "crates/engine/src/apply.rs";
const PAGE: &str = "crates/engine/src/page.rs";

/// The VFS write surface (methods of `SimFs`).
const VFS_WRITE_METHODS: &[&str] = &[
    "write_block",
    "append",
    "append_padded",
    "truncate",
    "truncate_to",
    "copy_file",
    "restore_into",
];

/// See the module docs.
pub struct LockDiscipline;

impl Lint for LockDiscipline {
    fn name(&self) -> &'static str {
        "lock-discipline"
    }

    fn description(&self) -> &'static str {
        "lock_row only via lock_for_dml, locks before WAL append, writes via sanctioned fns, \
         block images changed only by the applier"
    }

    fn check(&self, ws: &Workspace, diags: &mut Diagnostics) {
        let m = &ws.model;
        if ws.under(ENGINE_SRC).next().is_none() {
            return;
        }
        let server_method = |i: usize| {
            !m.fns[i].item.is_test
                && m.rel_of(i).starts_with(ENGINE_SRC)
                && m.fns[i].item.impl_type.as_deref() == Some("DbServer")
        };

        // Rule 1: chokepoint.
        for fn_idx in 0..m.fns.len() {
            let node = &m.fns[fn_idx];
            let rel = m.rel_of(fn_idx);
            if node.item.is_test
                || !rel.starts_with("crates/engine/")
                || rel.ends_with("/txn.rs")
                || node.item.name == CHOKEPOINT
            {
                continue;
            }
            for site in &m.sites[fn_idx] {
                if site.name == "lock_row" && site.style == CallStyle::Method {
                    diags.emit(
                        self.name(),
                        rel,
                        site.line,
                        format!(
                            "`lock_row` called outside the `{CHOKEPOINT}` chokepoint \
                             (in `{}`); all row-lock acquisition goes through one site \
                             so the lock order stays auditable",
                            m.display_name(fn_idx)
                        ),
                    );
                }
            }
        }

        // Rule 2: declared order — lock acquisition precedes WAL append
        // within any fn doing both.
        for fn_idx in (0..m.fns.len()).filter(|&i| server_method(i)) {
            let first_lock =
                m.sites[fn_idx].iter().find(|s| s.name == CHOKEPOINT).map(|s| s.tok);
            let first_append = m.sites[fn_idx]
                .iter()
                .find(|s| s.name == "append_record")
                .map(|s| (s.tok, s.line));
            if let (Some(lock_tok), Some((append_tok, append_line))) = (first_lock, first_append)
            {
                if append_tok < lock_tok {
                    diags.emit(
                        self.name(),
                        m.rel_of(fn_idx),
                        append_line,
                        format!(
                            "`{}` appends WAL before acquiring row locks via \
                             `{CHOKEPOINT}`; the declared order is lock first, then redo",
                            m.display_name(fn_idx)
                        ),
                    );
                }
            }
        }

        // Rule 4: one applier.
        for fn_idx in 0..m.fns.len() {
            let rel = m.rel_of(fn_idx);
            if m.fns[fn_idx].item.is_test
                || !rel.starts_with(ENGINE_SRC)
                || rel == APPLIER
                || rel == PAGE
            {
                continue;
            }
            let toks = m.toks_of(fn_idx);
            for site in &m.sites[fn_idx] {
                if site.style != CallStyle::Method || !matches!(site.name.as_str(), "put" | "remove")
                {
                    continue;
                }
                let on_block_image = match site.recv_type.as_deref() {
                    Some(t) => t == "BlockImage",
                    // Images reach block-access closures untyped
                    // (`with_block(key, |img| …)`); the engine names them
                    // `img` throughout.
                    None => site.tok >= 2 && toks[site.tok - 2].is_ident("img"),
                };
                if on_block_image {
                    diags.emit(
                        self.name(),
                        rel,
                        site.line,
                        format!(
                            "`BlockImage::{}` called outside the applier (in `{}`); every \
                             path changes a block through `apply.rs` so a logged change \
                             means one thing",
                            site.name,
                            m.display_name(fn_idx)
                        ),
                    );
                }
            }
        }

        // Rule 3: sanctioned writers on session paths.
        let entries: Vec<usize> = (0..m.fns.len())
            .filter(|&i| server_method(i) && SESSION_ENTRIES.contains(&m.fns[i].item.name.as_str()))
            .collect();
        let reach = m.reachable(&entries);
        for &fn_idx in reach.keys() {
            let node = &m.fns[fn_idx];
            let rel = m.rel_of(fn_idx);
            if node.item.is_test
                || !rel.starts_with("crates/engine/")
                || SANCTIONED_WRITERS.contains(&node.item.name.as_str())
            {
                continue;
            }
            for site in &m.sites[fn_idx] {
                let is_vfs_write = site.style == CallStyle::Method
                    && VFS_WRITE_METHODS.contains(&site.name.as_str())
                    && site.recv_type.as_deref() == Some("SimFs");
                if is_vfs_write {
                    diags.emit(
                        self.name(),
                        rel,
                        site.line,
                        format!(
                            "direct `SimFs::{}` on a session path (via {}) outside the \
                             sanctioned writers [{}]; row locks may be held here — route \
                             the write or waive with a justification",
                            site.name,
                            m.trace(&reach, fn_idx),
                            SANCTIONED_WRITERS.join(", ")
                        ),
                    );
                }
            }
        }
    }
}
