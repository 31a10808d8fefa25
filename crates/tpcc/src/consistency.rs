//! The TPC-C consistency conditions — the benchmark's data-integrity
//! oracle.
//!
//! The paper reports *data integrity violations* as one of its three
//! dependability measures; this module is how RecoBench detects them. The
//! four standard conditions (clause 3.3.2.1–4) are evaluated through the
//! engine's zero-cost inspection interface so the check itself never
//! perturbs the measured timeline.

use std::collections::BTreeMap;

use recobench_engine::row::ValueRef;
use recobench_engine::{DbResult, DbServer};

use crate::schema::{self, TpccSchema};

/// Result of a consistency sweep.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct ConsistencyReport {
    /// Human-readable description of every violation found.
    pub violations: Vec<String>,
    /// Districts checked.
    pub districts_checked: u64,
}

impl ConsistencyReport {
    /// Whether the database passed every condition.
    pub fn is_consistent(&self) -> bool {
        self.violations.is_empty()
    }

    /// Number of violations found.
    pub fn violation_count(&self) -> u64 {
        self.violations.len() as u64
    }
}

fn as_u64(v: Option<ValueRef<'_>>) -> u64 {
    v.and_then(ValueRef::as_u64).unwrap_or(0)
}

fn as_i64(v: Option<ValueRef<'_>>) -> i64 {
    v.and_then(ValueRef::as_i64).unwrap_or(0)
}

/// Evaluates TPC-C consistency conditions 1–4 over the whole database.
///
/// * **C1**: `W_YTD = Σ D_YTD` for every warehouse.
/// * **C2**: `D_NEXT_O_ID − 1 = max(O_ID) = max(NO_O_ID)` per district.
/// * **C3**: `max(NO_O_ID) − min(NO_O_ID) + 1 = |NEW_ORDER|` per district.
/// * **C4**: `Σ O_OL_CNT = |ORDER_LINE|` per district.
///
/// # Errors
///
/// Fails if the tables cannot be read at all (e.g. instance down) — that
/// is a *service* problem, not an integrity violation.
pub fn check_consistency(server: &DbServer, schema: &TpccSchema) -> DbResult<ConsistencyReport> {
    let mut report = ConsistencyReport::default();

    // Gather per-district aggregates in one pass per table.
    let mut d_ytd: BTreeMap<u64, i64> = BTreeMap::new(); // per warehouse
    let mut next_o: BTreeMap<(u64, u64), u64> = BTreeMap::new();
    for (_, row) in server.peek_scan(schema.district)? {
        let w = as_u64(row.get(schema::district::D_W_ID));
        let d = as_u64(row.get(schema::district::D_ID));
        *d_ytd.entry(w).or_insert(0) += as_i64(row.get(schema::district::D_YTD));
        next_o.insert((w, d), as_u64(row.get(schema::district::D_NEXT_O_ID)));
    }

    // C1: warehouse YTD vs sum of district YTDs.
    for (_, row) in server.peek_scan(schema.warehouse)? {
        let w = as_u64(row.get(schema::warehouse::W_ID));
        let w_ytd = as_i64(row.get(schema::warehouse::W_YTD));
        let sum = d_ytd.get(&w).copied().unwrap_or(0);
        if w_ytd != sum {
            report
                .violations
                .push(format!("C1: warehouse {w} W_YTD={w_ytd} but sum(D_YTD)={sum}"));
        }
    }

    // ORDERS aggregates.
    let mut max_o: BTreeMap<(u64, u64), u64> = BTreeMap::new();
    let mut sum_ol_cnt: BTreeMap<(u64, u64), u64> = BTreeMap::new();
    for (_, row) in server.peek_scan(schema.orders)? {
        let k = (as_u64(row.get(schema::orders::O_W_ID)), as_u64(row.get(schema::orders::O_D_ID)));
        let o = as_u64(row.get(schema::orders::O_ID));
        let e = max_o.entry(k).or_insert(0);
        *e = (*e).max(o);
        *sum_ol_cnt.entry(k).or_insert(0) += as_u64(row.get(schema::orders::O_OL_CNT));
    }

    // NEW_ORDER aggregates.
    let mut no_minmax: BTreeMap<(u64, u64), (u64, u64, u64)> = BTreeMap::new(); // (min, max, count)
    for (_, row) in server.peek_scan(schema.new_order)? {
        let k = (
            as_u64(row.get(schema::new_order::NO_W_ID)),
            as_u64(row.get(schema::new_order::NO_D_ID)),
        );
        let o = as_u64(row.get(schema::new_order::NO_O_ID));
        let e = no_minmax.entry(k).or_insert((u64::MAX, 0, 0));
        e.0 = e.0.min(o);
        e.1 = e.1.max(o);
        e.2 += 1;
    }

    // ORDER_LINE counts.
    let mut ol_count: BTreeMap<(u64, u64), u64> = BTreeMap::new();
    for (_, row) in server.peek_scan(schema.order_line)? {
        let k = (
            as_u64(row.get(schema::order_line::OL_W_ID)),
            as_u64(row.get(schema::order_line::OL_D_ID)),
        );
        *ol_count.entry(k).or_insert(0) += 1;
    }

    for (&(w, d), &next) in &next_o {
        report.districts_checked += 1;
        let max_orders = max_o.get(&(w, d)).copied().unwrap_or(0);
        // C2 (orders half): D_NEXT_O_ID - 1 == max(O_ID).
        if next.saturating_sub(1) != max_orders {
            report.violations.push(format!(
                "C2: district ({w},{d}) D_NEXT_O_ID={next} but max(O_ID)={max_orders}"
            ));
        }
        if let Some(&(no_min, no_max, count)) = no_minmax.get(&(w, d)) {
            // C2 (new-order half): undelivered orders end at max(O_ID).
            if no_max != max_orders {
                report.violations.push(format!(
                    "C2: district ({w},{d}) max(NO_O_ID)={no_max} but max(O_ID)={max_orders}"
                ));
            }
            // C3: NEW_ORDER ids are contiguous.
            if no_max - no_min + 1 != count {
                report.violations.push(format!(
                    "C3: district ({w},{d}) NEW_ORDER range [{no_min},{no_max}] has {count} rows"
                ));
            }
        }
        // C4: order lines match the order headers.
        let lines = ol_count.get(&(w, d)).copied().unwrap_or(0);
        let promised = sum_ol_cnt.get(&(w, d)).copied().unwrap_or(0);
        if lines != promised {
            report.violations.push(format!(
                "C4: district ({w},{d}) sum(O_OL_CNT)={promised} but |ORDER_LINE|={lines}"
            ));
        }
    }
    Ok(report)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::gen::load_database;
    use crate::schema::{create_schema, TpccScale};
    use recobench_engine::row::{Row, Value};
    use recobench_engine::{DiskLayout, InstanceConfig};
    use recobench_sim::{SimClock, SimRng};

    fn loaded() -> (DbServer, TpccSchema) {
        let mut srv = DbServer::on_fresh_disks(
            "CONS",
            SimClock::shared(),
            DiskLayout::four_disk(),
            InstanceConfig::default(),
        );
        srv.create_database().unwrap();
        let schema = create_schema(&mut srv, TpccScale::tiny(), 4, 2_048).unwrap();
        let mut rng = SimRng::seed_from(3);
        load_database(&mut srv, &schema, &mut rng).unwrap();
        (srv, schema)
    }

    #[test]
    fn fresh_load_is_consistent() {
        let (srv, schema) = loaded();
        let report = check_consistency(&srv, &schema).unwrap();
        assert!(report.is_consistent(), "violations: {:?}", report.violations);
        assert_eq!(report.districts_checked, 2);
    }

    #[test]
    fn detects_a_c1_violation() {
        let (mut srv, schema) = loaded();
        // Corrupt W_YTD out from under the districts.
        let (rid, mut row) = srv.peek_scan(schema.warehouse).unwrap().remove(0);
        row.set(schema::warehouse::W_YTD, Value::I64(1));
        let s = srv.connect().unwrap();
        srv.update(s, schema.warehouse, rid, row).unwrap();
        srv.commit(s).unwrap();
        srv.disconnect(s);
        let report = check_consistency(&srv, &schema).unwrap();
        assert_eq!(report.violation_count(), 1);
        assert!(report.violations[0].starts_with("C1"));
    }

    #[test]
    fn detects_c2_and_c4_violations() {
        let (mut srv, schema) = loaded();
        // A phantom order header with no lines breaks both C2 and C4.
        let s = srv.connect().unwrap();
        srv.insert(
            s,
            schema.orders,
            Row::new(vec![
                Value::U64(1),
                Value::U64(1),
                Value::U64(999),
                Value::U64(1),
                Value::U64(0),
                Value::U64(0),
                Value::U64(5),
            ]),
        )
        .unwrap();
        srv.commit(s).unwrap();
        srv.disconnect(s);
        let report = check_consistency(&srv, &schema).unwrap();
        assert!(!report.is_consistent());
        assert!(report.violations.iter().any(|v| v.starts_with("C2")));
        assert!(report.violations.iter().any(|v| v.starts_with("C4")));
    }
}
