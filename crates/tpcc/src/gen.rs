//! TPC-C data generation: NURand, last-name syllables, filler strings and
//! the initial database population.

use recobench_engine::row::{Row, Value};
use recobench_engine::{DbResult, DbServer};
use recobench_sim::SimRng;

use crate::schema::TpccSchema;

/// The ten syllables TPC-C composes last names from (clause 4.3.2.3).
pub const LAST_NAME_SYLLABLES: [&str; 10] =
    ["BAR", "OUGHT", "ABLE", "PRI", "PRES", "ESE", "ANTI", "CALLY", "ATION", "EING"];

/// Builds a last name from a number in `0..=999` per the specification.
pub fn last_name(num: u64) -> String {
    let n = (num % 1000) as usize;
    [LAST_NAME_SYLLABLES[n / 100], LAST_NAME_SYLLABLES[n / 10 % 10], LAST_NAME_SYLLABLES[n % 10]]
        .concat()
}

/// The TPC-C non-uniform random function (clause 2.1.6):
/// `NURand(A, x, y) = (((random(0,A) | random(x,y)) + C) % (y-x+1)) + x`.
pub fn nurand(rng: &mut SimRng, a: u64, c: u64, x: u64, y: u64) -> u64 {
    let r1 = rng.gen_range(0..=a);
    let r2 = rng.gen_range(x..=y);
    (((r1 | r2) + c) % (y - x + 1)) + x
}

/// Random alphanumeric filler of length within `lo..=hi`.
pub fn filler(rng: &mut SimRng, lo: usize, hi: usize) -> String {
    const CHARS: &[u8] = b"ABCDEFGHIJKLMNOPQRSTUVWXYZabcdefghijklmnopqrstuvwxyz0123456789";
    let len = rng.gen_range(lo..=hi);
    (0..len).map(|_| CHARS[rng.gen_range(0..CHARS.len())] as char).collect()
}

fn u(v: u64) -> Value {
    Value::U64(v)
}

fn i(v: i64) -> Value {
    Value::I64(v)
}

/// Populates the TPC-C tables at the schema's scale using the direct-path
/// loader, then checkpoints so the load is durable. Deterministic for a
/// given RNG.
///
/// # Errors
///
/// Fails on storage exhaustion.
pub fn load_database(server: &mut DbServer, schema: &TpccSchema, rng: &mut SimRng) -> DbResult<()> {
    let scale = schema.scale;
    // ITEM
    let mut items = Vec::with_capacity(scale.items as usize);
    for i_id in 1..=scale.items {
        items.push(Row::new(vec![
            u(i_id),
            Value::from(format!("item-{i_id}")),
            i(rng.gen_range(100..=10_000)),
            Value::from(filler(rng, 26, 50)),
        ]));
    }
    server.bulk_load(schema.item, items)?;

    for w_id in 1..=scale.warehouses {
        // WAREHOUSE
        server.bulk_load(
            schema.warehouse,
            vec![Row::new(vec![
                u(w_id),
                Value::from(format!("WARE{w_id:02}")),
                i(30_000_000), // W_YTD = 300 000.00
                u(rng.gen_range(0..=2_000)),
            ])],
        )?;
        // STOCK
        let mut stock = Vec::with_capacity(scale.items as usize);
        for i_id in 1..=scale.items {
            stock.push(Row::new(vec![
                u(w_id),
                u(i_id),
                i(rng.gen_range(10..=100)),
                u(0),
                u(0),
                u(0),
                Value::from(filler(rng, 26, 50)),
            ]));
        }
        server.bulk_load(schema.stock, stock)?;

        for d_id in 1..=scale.districts_per_warehouse {
            // DISTRICT: D_NEXT_O_ID starts past the seed orders; D_YTD is
            // sized so that W_YTD == sum(D_YTD) (consistency condition 1).
            let d_ytd = 30_000_000 / scale.districts_per_warehouse as i64;
            server.bulk_load(
                schema.district,
                vec![Row::new(vec![
                    u(w_id),
                    u(d_id),
                    Value::from(format!("DIST{d_id:02}")),
                    i(d_ytd),
                    u(scale.seed_orders_per_district + 1),
                    u(rng.gen_range(0..=2_000)),
                ])],
            )?;
            // CUSTOMER
            let mut customers = Vec::with_capacity(scale.customers_per_district as usize);
            for c_id in 1..=scale.customers_per_district {
                customers.push(Row::new(vec![
                    u(w_id),
                    u(d_id),
                    u(c_id),
                    Value::from(last_name(if c_id <= 10 { c_id - 1 } else { nurand_seed(rng) })),
                    Value::from(filler(rng, 8, 16)),
                    i(-1_000), // C_BALANCE = -10.00
                    i(1_000),  // C_YTD_PAYMENT = 10.00
                    u(1),
                    u(0),
                    Value::from(filler(rng, 100, 200)),
                ]));
            }
            server.bulk_load(schema.customer, customers)?;
            // Seed orders: already delivered, so NEW_ORDER starts empty
            // and Delivery has work only for freshly entered orders.
            let mut orders = Vec::new();
            let mut order_lines = Vec::new();
            for o_id in 1..=scale.seed_orders_per_district {
                let c_id = rng.gen_range(1..=scale.customers_per_district);
                let ol_cnt = rng.gen_range(5..=10u64);
                orders.push(Row::new(vec![
                    u(w_id),
                    u(d_id),
                    u(o_id),
                    u(c_id),
                    u(0),
                    u(rng.gen_range(1..=10)),
                    u(ol_cnt),
                ]));
                for ol in 1..=ol_cnt {
                    order_lines.push(Row::new(vec![
                        u(w_id),
                        u(d_id),
                        u(o_id),
                        u(ol),
                        u(rng.gen_range(1..=scale.items)),
                        u(w_id),
                        u(5),
                        i(rng.gen_range(100..=999_900)),
                        u(1), // delivered at load time
                    ]));
                }
            }
            server.bulk_load(schema.orders, orders)?;
            server.bulk_load(schema.order_line, order_lines)?;
        }
    }
    server.checkpoint_now()?;
    Ok(())
}

fn nurand_seed(rng: &mut SimRng) -> u64 {
    nurand(rng, 255, 123, 0, 999)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::schema::{create_schema, TpccScale};
    use recobench_engine::{DiskLayout, InstanceConfig};
    use recobench_sim::SimClock;

    #[test]
    fn last_names_match_spec_examples() {
        assert_eq!(last_name(0), "BARBARBAR");
        assert_eq!(last_name(999), "EINGEINGEING");
        assert_eq!(last_name(371), "PRICALLYOUGHT");
        // Numbers wrap at 1000.
        assert_eq!(last_name(1371), "PRICALLYOUGHT");
    }

    #[test]
    fn nurand_stays_in_range() {
        let mut rng = SimRng::seed_from(1);
        for _ in 0..1_000 {
            let v = nurand(&mut rng, 1023, 7, 1, 120);
            assert!((1..=120).contains(&v));
        }
    }

    #[test]
    fn nurand_is_nonuniform() {
        // The OR of two uniform draws is biased toward values with more
        // set bits; check the distribution is visibly skewed vs uniform.
        let mut rng = SimRng::seed_from(2);
        let n = 20_000;
        let mut low_half = 0u64;
        for _ in 0..n {
            if nurand(&mut rng, 8191, 0, 1, 8192) <= 4096 {
                low_half += 1;
            }
        }
        let frac = low_half as f64 / n as f64;
        assert!(frac < 0.45, "NURand should skew high, got low fraction {frac}");
    }

    #[test]
    fn filler_respects_bounds() {
        let mut rng = SimRng::seed_from(3);
        for _ in 0..100 {
            let s = filler(&mut rng, 26, 50);
            assert!((26..=50).contains(&s.len()));
        }
    }

    #[test]
    fn load_produces_expected_row_counts() {
        let mut srv = DbServer::on_fresh_disks(
            "LOAD",
            SimClock::shared(),
            DiskLayout::four_disk(),
            InstanceConfig::default(),
        );
        srv.create_database().unwrap();
        let scale = TpccScale::tiny();
        let schema = create_schema(&mut srv, scale, 4, 2_048).unwrap();
        let mut rng = SimRng::seed_from(42);
        load_database(&mut srv, &schema, &mut rng).unwrap();
        assert_eq!(srv.peek_scan(schema.warehouse).unwrap().len() as u64, scale.warehouses);
        assert_eq!(
            srv.peek_scan(schema.district).unwrap().len() as u64,
            scale.warehouses * scale.districts_per_warehouse
        );
        assert_eq!(srv.peek_scan(schema.customer).unwrap().len() as u64, scale.total_customers());
        assert_eq!(srv.peek_scan(schema.item).unwrap().len() as u64, scale.items);
        assert_eq!(srv.peek_scan(schema.stock).unwrap().len() as u64, scale.total_stock());
        assert_eq!(
            srv.peek_scan(schema.orders).unwrap().len() as u64,
            scale.warehouses * scale.districts_per_warehouse * scale.seed_orders_per_district
        );
        assert!(srv.peek_scan(schema.new_order).unwrap().is_empty());
    }

    #[test]
    fn load_is_deterministic_for_a_seed() {
        let build = || {
            let mut srv = DbServer::on_fresh_disks(
                "DET",
                SimClock::shared(),
                DiskLayout::four_disk(),
                InstanceConfig::default(),
            );
            srv.create_database().unwrap();
            let schema = create_schema(&mut srv, TpccScale::tiny(), 4, 2_048).unwrap();
            let mut rng = SimRng::seed_from(7);
            load_database(&mut srv, &schema, &mut rng).unwrap();
            srv.peek_scan(schema.customer).unwrap()
        };
        assert_eq!(build(), build());
    }
}
