//! The differential check: recovered engine vs. reference model.
//!
//! Four families of divergence, mirroring what the paper's measures are
//! supposed to guarantee:
//!
//! * **lost rows** — a committed (and, after incomplete recovery,
//!   *supposed-to-survive*) row the engine no longer has: a lost
//!   committed transaction the benchmark failed to count;
//! * **phantom rows / value mismatches** — state the engine has but never
//!   acknowledged (dirty or resurrected data);
//! * **table-set mismatches** — a table that should exist (or should have
//!   stayed dropped) after recovery;
//! * **integrity violations** — the engine's own structural invariants
//!   (heap ↔ index ↔ control file ↔ catalog), via
//!   [`DbServer::verify_integrity_with`], whose one heap scan per table
//!   the row check shares.

use std::collections::BTreeMap;
use std::fmt;

use recobench_engine::{DbResult, DbServer, ObjectId, Row, RowId};

use crate::model::RefModel;

/// One way the engine and the model disagree.
#[derive(Debug, Clone, PartialEq)]
pub enum Divergence {
    /// The model has a committed row the engine lost.
    LostRow {
        /// Table.
        obj: ObjectId,
        /// Physical address.
        rid: RowId,
        /// What the row should hold.
        expected: Row,
    },
    /// The engine has a row the model never committed.
    PhantomRow {
        /// Table.
        obj: ObjectId,
        /// Physical address.
        rid: RowId,
        /// What the engine holds.
        actual: Row,
    },
    /// Both sides have the row, with different values.
    ValueMismatch {
        /// Table.
        obj: ObjectId,
        /// Physical address.
        rid: RowId,
        /// What the model committed.
        expected: Row,
        /// What the engine holds.
        actual: Row,
    },
    /// A table that should exist is gone from the engine's catalog.
    MissingTable {
        /// The table.
        obj: ObjectId,
        /// Its name at baseline.
        name: String,
    },
    /// A table that should have stayed dropped is back.
    PhantomTable {
        /// The table.
        obj: ObjectId,
    },
    /// A structural invariant violation the engine's own walkers found.
    Integrity(String),
}

impl fmt::Display for Divergence {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Divergence::LostRow { obj, rid, .. } => {
                write!(f, "lost row: table {} rid {rid}", obj.0)
            }
            Divergence::PhantomRow { obj, rid, .. } => {
                write!(f, "phantom row: table {} rid {rid}", obj.0)
            }
            Divergence::ValueMismatch { obj, rid, .. } => {
                write!(f, "value mismatch: table {} rid {rid}", obj.0)
            }
            Divergence::MissingTable { obj, name } => {
                write!(f, "missing table: {name} (id {})", obj.0)
            }
            Divergence::PhantomTable { obj } => {
                write!(f, "phantom table: id {}", obj.0)
            }
            Divergence::Integrity(v) => write!(f, "integrity: {v}"),
        }
    }
}

/// Compares the open engine against the model and returns every
/// divergence, table-set mismatches first, then row differences in
/// address order (lost rows and value mismatches, then phantom rows),
/// then the engine's own integrity violations. Each table's rows are one
/// merge of the integrity walk's scan, lent in rid order, against the
/// model's rows for the table.
///
/// Call only when the database is fully recovered (open, nothing
/// offline); a row diff against half-restored storage would blame the
/// engine for rows it is still entitled to be missing.
///
/// # Errors
///
/// Fails if the engine cannot be inspected at all (instance down).
pub fn diff_states(server: &DbServer, model: &RefModel) -> DbResult<Vec<Divergence>> {
    let mut divergences = Vec::new();

    // ---- table set ---------------------------------------------------
    let engine_tables: BTreeMap<ObjectId, String> = server.tables()?.into_iter().collect();
    let expected = model.expected_tables();
    for (obj, name) in &expected {
        if !engine_tables.contains_key(obj) {
            divergences.push(Divergence::MissingTable { obj: *obj, name: name.to_string() });
        }
    }
    for obj in engine_tables.keys() {
        if !expected.contains_key(obj) {
            // Supposed to be dropped (or never known), yet present.
            divergences.push(Divergence::PhantomTable { obj: *obj });
        }
    }

    // ---- rows, over tables both sides agree exist --------------------
    let mut merged = BTreeMap::new();
    let report = server.verify_integrity_with(&mut |obj, rows| {
        if expected.contains_key(&obj) {
            merged.insert(obj, diff_rows(model, obj, rows));
        }
    })?;
    let (mut lost, mut phantom) = (Vec::new(), Vec::new());
    for obj in engine_tables.keys() {
        let (table_lost, table_phantom) = merged.remove(obj).unwrap_or_else(|| {
            // A table the walk did not read is scanned here. An unreadable
            // heap (e.g. a block failing its checksum) is a finding in its
            // own right, not a reason to abort the diff — the model's rows
            // for it then surface as lost.
            let scan =
                if expected.contains_key(obj) { server.peek_scan(*obj) } else { Ok(Vec::new()) };
            let mut rows = scan.unwrap_or_else(|e| {
                let finding = format!("table {} unreadable: {e}", obj.0);
                divergences.push(Divergence::Integrity(finding));
                Vec::new()
            });
            rows.sort_unstable_by_key(|(rid, _)| *rid);
            diff_rows(model, *obj, &mut rows.iter())
        });
        lost.extend(table_lost);
        phantom.extend(table_phantom);
    }
    divergences.extend(lost.into_iter().chain(phantom));

    // ---- structural invariants ---------------------------------------
    divergences.extend(report.violations.into_iter().map(Divergence::Integrity));

    Ok(divergences)
}

/// One table's rows merged in rid order, the model's against the engine's
/// (`actual`, ascending): its lost rows and value mismatches, and its
/// phantom rows.
fn diff_rows(
    model: &RefModel,
    obj: ObjectId,
    actual: &mut dyn Iterator<Item = &(RowId, Row)>,
) -> (Vec<Divergence>, Vec<Divergence>) {
    let phantom_row =
        |(rid, row): &(RowId, Row)| Divergence::PhantomRow { obj, rid: *rid, actual: row.clone() };
    let mut actual = actual.peekable();
    let (mut lost, mut phantom) = (Vec::new(), Vec::new());
    for ((_, rid), want) in model.rows_of(obj) {
        phantom.extend(std::iter::from_fn(|| actual.next_if(|(at, _)| at < rid)).map(phantom_row));
        match actual.next_if(|(at, _)| at == rid) {
            None => lost.push(Divergence::LostRow { obj, rid: *rid, expected: want.clone() }),
            Some((_, got)) if got != want => {
                let (expected, actual) = (want.clone(), got.clone());
                lost.push(Divergence::ValueMismatch { obj, rid: *rid, expected, actual });
            }
            Some(_) => {}
        }
    }
    phantom.extend(actual.map(phantom_row));
    (lost, phantom)
}
