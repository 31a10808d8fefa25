//! The TPC-C schema: nine tables, their column layouts and indexes.
//!
//! Columns are positional (the engine is schema-light); the `col` modules
//! below give every position a name so transaction code stays readable.
//! Monetary amounts are stored in integer cents so index keys stay exact.

use recobench_engine::catalog::IndexDef;
use recobench_engine::{DbResult, DbServer, ObjectId};

/// Scale of the generated database.
///
/// The paper runs full-scale TPC-C on real hardware; RecoBench runs a
/// reduced scale so a 240-experiment campaign executes in seconds, while
/// keeping the *structure* (row mix, access skew, growth behaviour) that
/// the recovery mechanisms react to. Restore timing uses the nominal
/// database size from the engine cost model, not these counts.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct TpccScale {
    /// Number of warehouses.
    pub warehouses: u64,
    /// Districts per warehouse (spec: 10).
    pub districts_per_warehouse: u64,
    /// Customers per district (spec: 3 000; scaled down).
    pub customers_per_district: u64,
    /// Items in the catalog (spec: 100 000; scaled down).
    pub items: u64,
    /// Seed orders per district, pre-loaded as already-delivered history.
    pub seed_orders_per_district: u64,
}

impl TpccScale {
    /// The default reduced scale used throughout the benchmark.
    pub fn mini() -> Self {
        TpccScale {
            warehouses: 2,
            districts_per_warehouse: 10,
            customers_per_district: 120,
            items: 1_500,
            seed_orders_per_district: 8,
        }
    }

    /// An even smaller scale for fast unit tests.
    pub fn tiny() -> Self {
        TpccScale {
            warehouses: 1,
            districts_per_warehouse: 2,
            customers_per_district: 20,
            items: 100,
            seed_orders_per_district: 3,
        }
    }

    /// Total customers.
    pub fn total_customers(&self) -> u64 {
        self.warehouses * self.districts_per_warehouse * self.customers_per_district
    }

    /// Total stock rows (one per warehouse × item).
    pub fn total_stock(&self) -> u64 {
        self.warehouses * self.items
    }
}

impl Default for TpccScale {
    fn default() -> Self {
        Self::mini()
    }
}

/// Column positions for the WAREHOUSE table.
pub mod warehouse {
    /// Warehouse id.
    pub const W_ID: usize = 0;
    /// Warehouse name.
    pub const W_NAME: usize = 1;
    /// Year-to-date payments, in cents.
    pub const W_YTD: usize = 2;
    /// Tax rate in basis points.
    pub const W_TAX: usize = 3;
}

/// Column positions for the DISTRICT table.
pub mod district {
    /// Warehouse id.
    pub const D_W_ID: usize = 0;
    /// District id.
    pub const D_ID: usize = 1;
    /// District name.
    pub const D_NAME: usize = 2;
    /// Year-to-date payments, in cents.
    pub const D_YTD: usize = 3;
    /// Next order number.
    pub const D_NEXT_O_ID: usize = 4;
    /// Tax rate in basis points.
    pub const D_TAX: usize = 5;
}

/// Column positions for the CUSTOMER table.
pub mod customer {
    /// Warehouse id.
    pub const C_W_ID: usize = 0;
    /// District id.
    pub const C_D_ID: usize = 1;
    /// Customer id.
    pub const C_ID: usize = 2;
    /// Last name (generated from syllables).
    pub const C_LAST: usize = 3;
    /// First name.
    pub const C_FIRST: usize = 4;
    /// Balance, in cents.
    pub const C_BALANCE: usize = 5;
    /// Year-to-date payment, in cents.
    pub const C_YTD_PAYMENT: usize = 6;
    /// Payment count.
    pub const C_PAYMENT_CNT: usize = 7;
    /// Delivery count.
    pub const C_DELIVERY_CNT: usize = 8;
    /// Miscellaneous customer data (filler).
    pub const C_DATA: usize = 9;
}

/// Column positions for the HISTORY table.
pub mod history {
    /// Warehouse id.
    pub const H_W_ID: usize = 0;
    /// District id.
    pub const H_D_ID: usize = 1;
    /// Customer id.
    pub const H_C_ID: usize = 2;
    /// Amount, in cents.
    pub const H_AMOUNT: usize = 3;
    /// Free-form data (filler).
    pub const H_DATA: usize = 4;
}

/// Column positions for the NEW-ORDER table.
pub mod new_order {
    /// Warehouse id.
    pub const NO_W_ID: usize = 0;
    /// District id.
    pub const NO_D_ID: usize = 1;
    /// Order id.
    pub const NO_O_ID: usize = 2;
}

/// Column positions for the ORDERS table.
pub mod orders {
    /// Warehouse id.
    pub const O_W_ID: usize = 0;
    /// District id.
    pub const O_D_ID: usize = 1;
    /// Order id.
    pub const O_ID: usize = 2;
    /// Customer id.
    pub const O_C_ID: usize = 3;
    /// Entry timestamp (simulated micros).
    pub const O_ENTRY_D: usize = 4;
    /// Carrier id (0 = not yet delivered).
    pub const O_CARRIER_ID: usize = 5;
    /// Number of order lines.
    pub const O_OL_CNT: usize = 6;
}

/// Column positions for the ORDER-LINE table.
pub mod order_line {
    /// Warehouse id.
    pub const OL_W_ID: usize = 0;
    /// District id.
    pub const OL_D_ID: usize = 1;
    /// Order id.
    pub const OL_O_ID: usize = 2;
    /// Line number within the order.
    pub const OL_NUMBER: usize = 3;
    /// Item id.
    pub const OL_I_ID: usize = 4;
    /// Supplying warehouse.
    pub const OL_SUPPLY_W_ID: usize = 5;
    /// Quantity.
    pub const OL_QUANTITY: usize = 6;
    /// Amount, in cents.
    pub const OL_AMOUNT: usize = 7;
    /// Delivery timestamp (0 = undelivered).
    pub const OL_DELIVERY_D: usize = 8;
}

/// Column positions for the ITEM table.
pub mod item {
    /// Item id.
    pub const I_ID: usize = 0;
    /// Item name.
    pub const I_NAME: usize = 1;
    /// Price, in cents.
    pub const I_PRICE: usize = 2;
    /// Item data (filler; "ORIGINAL" marker per spec).
    pub const I_DATA: usize = 3;
}

/// Column positions for the STOCK table.
pub mod stock {
    /// Warehouse id.
    pub const S_W_ID: usize = 0;
    /// Item id.
    pub const S_I_ID: usize = 1;
    /// Quantity on hand.
    pub const S_QUANTITY: usize = 2;
    /// Year-to-date quantity sold.
    pub const S_YTD: usize = 3;
    /// Orders served.
    pub const S_ORDER_CNT: usize = 4;
    /// Remote orders served.
    pub const S_REMOTE_CNT: usize = 5;
    /// Stock data (filler).
    pub const S_DATA: usize = 6;
}

/// Object ids of the nine TPC-C tables.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct TpccSchema {
    /// WAREHOUSE.
    pub warehouse: ObjectId,
    /// DISTRICT.
    pub district: ObjectId,
    /// CUSTOMER.
    pub customer: ObjectId,
    /// HISTORY.
    pub history: ObjectId,
    /// NEW-ORDER.
    pub new_order: ObjectId,
    /// ORDERS.
    pub orders: ObjectId,
    /// ORDER-LINE.
    pub order_line: ObjectId,
    /// ITEM.
    pub item: ObjectId,
    /// STOCK.
    pub stock: ObjectId,
    /// The scale the database was created with.
    pub scale: TpccScale,
}

/// Index positions that transaction code relies on.
pub mod ix {
    /// Primary key is always index 0.
    pub const PK: usize = 0;
    /// CUSTOMER secondary index on `(w, d, last-name)`.
    pub const CUSTOMER_BY_LAST: usize = 1;
    /// ORDERS secondary index on `(w, d, c, o)` — a customer's orders in
    /// order-id order.
    pub const ORDERS_BY_CUSTOMER: usize = 1;
}

/// Name of the tablespace holding all TPC-C segments.
pub const TPCC_TABLESPACE: &str = "TPCC";
/// Name of the owning user.
pub const TPCC_USER: &str = "tpcc";

/// Creates the TPC-C user, tablespace and the nine tables with their
/// indexes. `datafiles`/`blocks_per_file` size the tablespace.
///
/// # Errors
///
/// Fails if the schema already exists or storage creation fails.
pub fn create_schema(
    server: &mut DbServer,
    scale: TpccScale,
    datafiles: u32,
    blocks_per_file: u64,
) -> DbResult<TpccSchema> {
    server.create_user(TPCC_USER)?;
    server.create_tablespace(TPCC_TABLESPACE, datafiles, blocks_per_file)?;
    // Range-scanned indexes keep a sorted tree; everything probed only by
    // its full key uses the hash-backed point store.
    let pk = |cols: Vec<usize>| IndexDef { name: "PK".into(), cols, unique: true, ordered: true };
    let point_pk =
        |cols: Vec<usize>| IndexDef { name: "PK".into(), cols, unique: true, ordered: false };
    let warehouse = server.create_table("WAREHOUSE", TPCC_USER, TPCC_TABLESPACE, vec![point_pk(vec![0])])?;
    let district =
        server.create_table("DISTRICT", TPCC_USER, TPCC_TABLESPACE, vec![point_pk(vec![0, 1])])?;
    let customer = server.create_table(
        "CUSTOMER",
        TPCC_USER,
        TPCC_TABLESPACE,
        vec![
            point_pk(vec![customer::C_W_ID, customer::C_D_ID, customer::C_ID]),
            IndexDef {
                name: "CUSTOMER_BY_LAST".into(),
                cols: vec![customer::C_W_ID, customer::C_D_ID, customer::C_LAST],
                unique: false,
                ordered: true,
            },
        ],
    )?;
    let history = server.create_table(
        "HISTORY",
        TPCC_USER,
        TPCC_TABLESPACE,
        vec![IndexDef {
            name: "HISTORY_BY_CUSTOMER".into(),
            cols: vec![history::H_W_ID, history::H_D_ID, history::H_C_ID],
            unique: false,
            ordered: false,
        }],
    )?;
    let new_order =
        server.create_table("NEW_ORDER", TPCC_USER, TPCC_TABLESPACE, vec![pk(vec![0, 1, 2])])?;
    let orders = server.create_table(
        "ORDERS",
        TPCC_USER,
        TPCC_TABLESPACE,
        vec![
            point_pk(vec![orders::O_W_ID, orders::O_D_ID, orders::O_ID]),
            IndexDef {
                name: "ORDERS_BY_CUSTOMER".into(),
                cols: vec![orders::O_W_ID, orders::O_D_ID, orders::O_C_ID, orders::O_ID],
                unique: false,
                ordered: true,
            },
        ],
    )?;
    let order_line =
        server.create_table("ORDER_LINE", TPCC_USER, TPCC_TABLESPACE, vec![pk(vec![0, 1, 2, 3])])?;
    let item = server.create_table("ITEM", TPCC_USER, TPCC_TABLESPACE, vec![point_pk(vec![item::I_ID])])?;
    let stock = server.create_table(
        "STOCK",
        TPCC_USER,
        TPCC_TABLESPACE,
        vec![point_pk(vec![stock::S_W_ID, stock::S_I_ID])],
    )?;
    Ok(TpccSchema {
        warehouse,
        district,
        customer,
        history,
        new_order,
        orders,
        order_line,
        item,
        stock,
        scale,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use recobench_engine::{DiskLayout, InstanceConfig};
    use recobench_sim::SimClock;

    #[test]
    fn schema_creates_all_tables() {
        let mut srv = DbServer::on_fresh_disks(
            "SCH",
            SimClock::shared(),
            DiskLayout::four_disk(),
            InstanceConfig::default(),
        );
        srv.create_database().unwrap();
        let schema = create_schema(&mut srv, TpccScale::tiny(), 2, 512).unwrap();
        for name in [
            "WAREHOUSE",
            "DISTRICT",
            "CUSTOMER",
            "HISTORY",
            "NEW_ORDER",
            "ORDERS",
            "ORDER_LINE",
            "ITEM",
            "STOCK",
        ] {
            assert!(srv.table_id(name).is_ok(), "missing table {name}");
        }
        assert_eq!(srv.table_id("STOCK").unwrap(), schema.stock);
    }

    #[test]
    fn scale_totals() {
        let s = TpccScale::mini();
        assert_eq!(s.total_customers(), 2 * 10 * 120);
        assert_eq!(s.total_stock(), 2 * 1_500);
    }
}
