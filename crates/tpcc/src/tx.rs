//! The five TPC-C transaction profiles as resumable statement machines.
//!
//! Each profile pre-draws its inputs (clause 2 of the specification, with
//! ranges adapted to the configured scale) and then executes as a sequence
//! of *statements* against one engine session. Every statement performs at
//! most one lock-acquiring DML call, and performs it last — so when the
//! engine answers [`DbError::LockWait`] the statement left no trace and
//! can simply be re-issued once the lock is granted (re-reading its
//! inputs, which may have changed while the terminal was parked). A
//! [`DbError::Deadlock`] means this transaction was chosen as the victim:
//! the driver rolls the session back and restarts the profile from its
//! first statement with the same inputs.
//!
//! The statement machine is what lets the driver interleave many
//! terminals on one single-threaded server: terminals yield between
//! statements, block on lock waits, and resume on grants, all in
//! deterministic simulated time.

use recobench_engine::row::{Row, Value, ValueRef};
use recobench_engine::{DbError, DbResult, DbServer, RowId, SessionId};
use recobench_sim::SimRng;

use crate::gen::{last_name, nurand};
use crate::schema::{self, ix, TpccSchema};

/// The transaction mix classes.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum TxnKind {
    /// New-Order (45 % of the mix; the tpmC-counted class).
    NewOrder,
    /// Payment (43 %).
    Payment,
    /// Order-Status (4 %, read-only).
    OrderStatus,
    /// Delivery (4 %).
    Delivery,
    /// Stock-Level (4 %, read-only).
    StockLevel,
}

impl TxnKind {
    /// Draws a kind with the standard 45/43/4/4/4 weights.
    pub fn draw(rng: &mut SimRng) -> TxnKind {
        let p = rng.gen_range(0..100u32);
        match p {
            0..=44 => TxnKind::NewOrder,
            45..=87 => TxnKind::Payment,
            88..=91 => TxnKind::OrderStatus,
            92..=95 => TxnKind::Delivery,
            _ => TxnKind::StockLevel,
        }
    }
}

/// What a committed transaction left behind, for the driver's audit log.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Audit {
    /// A New-Order commit created order `(w, d, o)` with the given entry
    /// timestamp (which disambiguates an order id reused after incomplete
    /// recovery rolled the id allocator back).
    Order {
        /// Warehouse.
        w: u64,
        /// District.
        d: u64,
        /// Order id.
        o: u64,
        /// `O_ENTRY_D` as written into the row.
        entry: u64,
    },
    /// No durably auditable key (read-only or non-order transaction).
    None,
}

/// Outcome of one executed transaction.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct TxnOutcome {
    /// Which profile ran.
    pub kind: TxnKind,
    /// Whether it committed (`false` = the 1 % deliberate rollback).
    pub committed: bool,
    /// Audit record for lost-transaction analysis.
    pub audit: Audit,
}

/// Result of running one statement of an in-flight transaction.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum StmtResult {
    /// The statement completed; more statements remain.
    Continue,
    /// The transaction finished (committed, or the spec's deliberate
    /// rollback); the session has no open transaction any more.
    Done(TxnOutcome),
}

// NURand C constants (fixed per run, as the spec's C-Load).
const C_CUSTOMER: u64 = 123;
const C_ITEM: u64 = 777;
const C_LASTNAME: u64 = 173;

fn col_u64(row: &Row, col: usize) -> DbResult<u64> {
    row.get(col).and_then(ValueRef::as_u64).ok_or_else(|| DbError::NotFound(format!("u64 col {col}")))
}

fn col_i64(row: &Row, col: usize) -> DbResult<i64> {
    row.get(col).and_then(ValueRef::as_i64).ok_or_else(|| DbError::NotFound(format!("i64 col {col}")))
}

fn one_rid(rid: Option<RowId>, what: &str) -> DbResult<RowId> {
    rid.ok_or_else(|| DbError::NotFound(what.to_string()))
}

/// The customer a Payment or Order-Status selected: by last name (`c_last`
/// is the drawn name number) the median of the district's customers
/// carrying it, by `c_id` otherwise or when nobody carries the name.
fn locate_customer(
    srv: &mut DbServer,
    schema: &TpccSchema,
    w: u64,
    d: u64,
    c_last: Option<u64>,
    c_id: u64,
) -> DbResult<RowId> {
    if let Some(n) = c_last {
        let matches = srv.prefix_scan(
            schema.customer,
            ix::CUSTOMER_BY_LAST,
            &[Value::U64(w), Value::U64(d), Value::Str(last_name(n))],
        )?;
        if let Some(rid) = matches.get(matches.len() / 2) {
            return Ok(*rid);
        }
    }
    one_rid(
        srv.lookup_first(schema.customer, ix::PK, &[Value::U64(w), Value::U64(d), Value::U64(c_id)])?,
        "customer",
    )
}

/// One transaction in flight on a session: pre-drawn inputs plus the
/// current statement position. Created when a terminal submits, stepped
/// until [`StmtResult::Done`], parked across lock waits, and restarted
/// from scratch after a deadlock abort.
#[derive(Debug, Clone)]
pub struct InFlight {
    profile: Profile,
}

#[derive(Debug, Clone)]
enum Profile {
    NewOrder(NewOrderTxn),
    Payment(PaymentTxn),
    OrderStatus(OrderStatusTxn),
    Delivery(DeliveryTxn),
    StockLevel(StockLevelTxn),
}

impl InFlight {
    /// Draws a transaction of `kind` from `rng`. All random inputs are
    /// fixed here: stepping, blocking, and restarting never touch the RNG,
    /// so the driver's random stream is independent of lock timing.
    pub fn new(schema: &TpccSchema, rng: &mut SimRng, kind: TxnKind, now_micros: u64) -> InFlight {
        let profile = match kind {
            TxnKind::NewOrder => Profile::NewOrder(NewOrderTxn::draw(schema, rng, now_micros)),
            TxnKind::Payment => Profile::Payment(PaymentTxn::draw(schema, rng)),
            TxnKind::OrderStatus => Profile::OrderStatus(OrderStatusTxn::draw(schema, rng)),
            TxnKind::Delivery => Profile::Delivery(DeliveryTxn::draw(schema, rng, now_micros)),
            TxnKind::StockLevel => Profile::StockLevel(StockLevelTxn::draw(schema, rng)),
        };
        InFlight { profile }
    }

    /// The profile class of this transaction.
    pub fn kind(&self) -> TxnKind {
        match self.profile {
            Profile::NewOrder(_) => TxnKind::NewOrder,
            Profile::Payment(_) => TxnKind::Payment,
            Profile::OrderStatus(_) => TxnKind::OrderStatus,
            Profile::Delivery(_) => TxnKind::Delivery,
            Profile::StockLevel(_) => TxnKind::StockLevel,
        }
    }

    /// Runs the next statement on `session`.
    ///
    /// # Errors
    ///
    /// [`DbError::LockWait`] — nothing happened; re-issue this statement
    /// after the lock grant. [`DbError::Deadlock`] — this transaction is
    /// the victim; roll the session back, call [`InFlight::restart`], and
    /// resubmit. Anything else is a real failure: roll back and discard.
    pub fn step(
        &mut self,
        server: &mut DbServer,
        session: SessionId,
        schema: &TpccSchema,
    ) -> DbResult<StmtResult> {
        match &mut self.profile {
            Profile::NewOrder(t) => t.step(server, session, schema),
            Profile::Payment(t) => t.step(server, session, schema),
            Profile::OrderStatus(t) => t.step(server, session, schema),
            Profile::Delivery(t) => t.step(server, session, schema),
            Profile::StockLevel(t) => t.step(server, session, schema),
        }
    }

    /// Rewinds to the first statement, keeping the drawn inputs. Used
    /// after a deadlock abort (the engine rolled nothing forward for this
    /// transaction, so replaying the same inputs is exactly a retry).
    pub fn restart(&mut self) {
        match &mut self.profile {
            Profile::NewOrder(t) => {
                t.phase = NewOrderPhase::District;
                t.o_id = 0;
                t.lines.clear();
            }
            Profile::Payment(t) => {
                t.phase = PaymentPhase::Warehouse;
                t.resolved_c = 0;
            }
            Profile::OrderStatus(t) => t.phase = OrderStatusPhase::Customer,
            Profile::Delivery(t) => {
                t.phase = DeliveryPhase::Claim;
                t.d = 1;
                t.o_id = 0;
                t.c_id = 0;
                t.total = 0;
            }
            Profile::StockLevel(t) => {
                t.phase = StockLevelPhase::District;
                t.next_o = 0;
            }
        }
    }
}

// ---------------------------------------------------------------- NewOrder

#[derive(Debug, Clone)]
struct NewOrderTxn {
    w: u64,
    d: u64,
    c: u64,
    /// Pre-drawn `(item id, supplying warehouse, quantity)` per line. The
    /// deliberate-rollback path is encoded as an unused item id in the
    /// last slot, as the spec prescribes.
    items: Vec<(u64, u64, u64)>,
    entry: u64,
    phase: NewOrderPhase,
    o_id: u64,
    lines: Vec<Row>,
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum NewOrderPhase {
    District,
    OrderInsert,
    NewOrderInsert,
    Stock(usize),
    Lines,
    Commit,
}

impl NewOrderTxn {
    fn draw(schema: &TpccSchema, rng: &mut SimRng, now_micros: u64) -> NewOrderTxn {
        let scale = schema.scale;
        let w = rng.gen_range(1..=scale.warehouses);
        let d = rng.gen_range(1..=scale.districts_per_warehouse);
        let c = nurand(rng, 1023, C_CUSTOMER, 1, scale.customers_per_district);
        let ol_cnt = rng.gen_range(5..=15u64);
        let deliberate_rollback = rng.gen_bool(0.01);
        let items: Vec<(u64, u64, u64)> = (0..ol_cnt)
            .map(|idx| {
                let mut i_id = nurand(rng, 8191, C_ITEM, 1, scale.items);
                if deliberate_rollback && idx == ol_cnt - 1 {
                    i_id = scale.items + 1; // unused item number → rollback
                }
                let supply_w = if scale.warehouses > 1 && rng.gen_bool(0.01) {
                    let mut s = rng.gen_range(1..=scale.warehouses);
                    if s == w {
                        s = s % scale.warehouses + 1;
                    }
                    s
                } else {
                    w
                };
                (i_id, supply_w, rng.gen_range(1..=10u64))
            })
            .collect();
        NewOrderTxn {
            w,
            d,
            c,
            entry: now_micros,
            phase: NewOrderPhase::District,
            o_id: 0,
            lines: Vec::with_capacity(items.len()),
            items,
        }
    }

    fn step(
        &mut self,
        srv: &mut DbServer,
        s: SessionId,
        schema: &TpccSchema,
    ) -> DbResult<StmtResult> {
        let (w, d) = (self.w, self.d);
        match self.phase {
            NewOrderPhase::District => {
                // Warehouse tax read, then the order-id allocation: the
                // district row is the statement's one contended lock.
                let w_rid =
                    one_rid(srv.lookup_first(schema.warehouse, ix::PK, &[Value::U64(w)])?, "warehouse")?;
                let _wrow = srv.get_row(schema.warehouse, w_rid)?;
                let d_rid = one_rid(
                    srv.lookup_first(schema.district, ix::PK, &[Value::U64(w), Value::U64(d)])?,
                    "district",
                )?;
                let mut drow = srv.get_row(schema.district, d_rid)?;
                let o_id = col_u64(&drow, schema::district::D_NEXT_O_ID)?;
                drow.set(schema::district::D_NEXT_O_ID, Value::U64(o_id + 1));
                srv.update(s, schema.district, d_rid, drow)?;
                self.o_id = o_id;
                self.phase = NewOrderPhase::OrderInsert;
                Ok(StmtResult::Continue)
            }
            NewOrderPhase::OrderInsert => {
                let c_rid = one_rid(
                    srv.lookup_first(
                        schema.customer,
                        ix::PK,
                        &[Value::U64(w), Value::U64(d), Value::U64(self.c)],
                    )?,
                    "customer",
                )?;
                let _crow = srv.get_row(schema.customer, c_rid)?;
                srv.insert(
                    s,
                    schema.orders,
                    Row::new([
                        Value::U64(w),
                        Value::U64(d),
                        Value::U64(self.o_id),
                        Value::U64(self.c),
                        Value::U64(self.entry),
                        Value::U64(0),
                        Value::U64(self.items.len() as u64),
                    ]),
                )?;
                self.phase = NewOrderPhase::NewOrderInsert;
                Ok(StmtResult::Continue)
            }
            NewOrderPhase::NewOrderInsert => {
                // Its own statement: the NEW_ORDER slot may have been
                // freed by an uncommitted Delivery, so this insert can
                // block where the ORDERS insert cannot.
                srv.insert(
                    s,
                    schema.new_order,
                    Row::new([Value::U64(w), Value::U64(d), Value::U64(self.o_id)]),
                )?;
                self.phase = NewOrderPhase::Stock(0);
                Ok(StmtResult::Continue)
            }
            NewOrderPhase::Stock(i) => {
                let (i_id, supply_w, qty) = self.items[i];
                let Some(item_rid) = srv.lookup_first(schema.item, ix::PK, &[Value::U64(i_id)])?
                else {
                    // Unused item number: the spec's deliberate rollback.
                    srv.rollback(s)?;
                    return Ok(StmtResult::Done(TxnOutcome {
                        kind: TxnKind::NewOrder,
                        committed: false,
                        audit: Audit::None,
                    }));
                };
                let irow = srv.get_row(schema.item, item_rid)?;
                let price = col_i64(&irow, schema::item::I_PRICE)?;
                let s_rid = one_rid(
                    srv.lookup_first(schema.stock, ix::PK, &[Value::U64(supply_w), Value::U64(i_id)])?,
                    "stock",
                )?;
                let mut srow = srv.get_row(schema.stock, s_rid)?;
                let mut quantity = col_i64(&srow, schema::stock::S_QUANTITY)?;
                quantity = if quantity >= qty as i64 + 10 {
                    quantity - qty as i64
                } else {
                    quantity - qty as i64 + 91
                };
                let ytd = col_u64(&srow, schema::stock::S_YTD)? + qty;
                let order_cnt = col_u64(&srow, schema::stock::S_ORDER_CNT)? + 1;
                let remote_cnt =
                    col_u64(&srow, schema::stock::S_REMOTE_CNT)? + u64::from(supply_w != w);
                srow.set_cols([
                    (schema::stock::S_QUANTITY, Value::I64(quantity)),
                    (schema::stock::S_YTD, Value::U64(ytd)),
                    (schema::stock::S_ORDER_CNT, Value::U64(order_cnt)),
                    (schema::stock::S_REMOTE_CNT, Value::U64(remote_cnt)),
                ]);
                srv.update(s, schema.stock, s_rid, srow)?;
                // Only after the update stuck: a LockWait above must not
                // leave a phantom line behind.
                self.lines.push(Row::new([
                    Value::U64(w),
                    Value::U64(d),
                    Value::U64(self.o_id),
                    Value::U64(i as u64 + 1),
                    Value::U64(i_id),
                    Value::U64(supply_w),
                    Value::U64(qty),
                    Value::I64(price * qty as i64),
                    Value::U64(0),
                ]));
                self.phase = if i + 1 < self.items.len() {
                    NewOrderPhase::Stock(i + 1)
                } else {
                    NewOrderPhase::Lines
                };
                Ok(StmtResult::Continue)
            }
            NewOrderPhase::Lines => {
                srv.insert_batch(s, schema.order_line, &self.lines)?;
                self.phase = NewOrderPhase::Commit;
                Ok(StmtResult::Continue)
            }
            NewOrderPhase::Commit => {
                srv.commit(s)?;
                Ok(StmtResult::Done(TxnOutcome {
                    kind: TxnKind::NewOrder,
                    committed: true,
                    audit: Audit::Order { w, d, o: self.o_id, entry: self.entry },
                }))
            }
        }
    }
}

// ----------------------------------------------------------------- Payment

#[derive(Debug, Clone)]
struct PaymentTxn {
    w: u64,
    d: u64,
    c_w: u64,
    c_d: u64,
    /// The drawn last-name number when the customer is selected by name.
    c_last: Option<u64>,
    c_id: u64,
    amount: i64,
    phase: PaymentPhase,
    /// The customer id actually charged (differs from `c_id` when the
    /// last-name path resolved to the median match).
    resolved_c: u64,
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum PaymentPhase {
    Warehouse,
    District,
    Customer,
    History,
    Commit,
}

impl PaymentTxn {
    fn draw(schema: &TpccSchema, rng: &mut SimRng) -> PaymentTxn {
        let scale = schema.scale;
        let w = rng.gen_range(1..=scale.warehouses);
        let d = rng.gen_range(1..=scale.districts_per_warehouse);
        // 15 % of payments are for a customer of another district/warehouse.
        let (c_w, c_d) = if rng.gen_bool(0.15) {
            if scale.warehouses > 1 {
                let mut ow = rng.gen_range(1..=scale.warehouses);
                if ow == w {
                    ow = ow % scale.warehouses + 1;
                }
                (ow, rng.gen_range(1..=scale.districts_per_warehouse))
            } else {
                (w, rng.gen_range(1..=scale.districts_per_warehouse))
            }
        } else {
            (w, d)
        };
        let by_last_name = rng.gen_bool(0.60);
        let c_last = nurand(rng, 255, C_LASTNAME, 0, 999);
        let c_id = nurand(rng, 1023, C_CUSTOMER, 1, scale.customers_per_district);
        let amount = rng.gen_range(100..=500_000i64);
        PaymentTxn {
            w,
            d,
            c_w,
            c_d,
            c_last: by_last_name.then_some(c_last),
            c_id,
            amount,
            phase: PaymentPhase::Warehouse,
            resolved_c: 0,
        }
    }

    fn step(
        &mut self,
        srv: &mut DbServer,
        s: SessionId,
        schema: &TpccSchema,
    ) -> DbResult<StmtResult> {
        match self.phase {
            PaymentPhase::Warehouse => {
                let w_rid = one_rid(
                    srv.lookup_first(schema.warehouse, ix::PK, &[Value::U64(self.w)])?,
                    "warehouse",
                )?;
                let mut wrow = srv.get_row(schema.warehouse, w_rid)?;
                wrow.set(
                    schema::warehouse::W_YTD,
                    Value::I64(col_i64(&wrow, schema::warehouse::W_YTD)? + self.amount),
                );
                srv.update(s, schema.warehouse, w_rid, wrow)?;
                self.phase = PaymentPhase::District;
                Ok(StmtResult::Continue)
            }
            PaymentPhase::District => {
                let d_rid = one_rid(
                    srv.lookup_first(schema.district, ix::PK, &[Value::U64(self.w), Value::U64(self.d)])?,
                    "district",
                )?;
                let mut drow = srv.get_row(schema.district, d_rid)?;
                drow.set(
                    schema::district::D_YTD,
                    Value::I64(col_i64(&drow, schema::district::D_YTD)? + self.amount),
                );
                srv.update(s, schema.district, d_rid, drow)?;
                self.phase = PaymentPhase::Customer;
                Ok(StmtResult::Continue)
            }
            PaymentPhase::Customer => {
                let c_rid = locate_customer(srv, schema, self.c_w, self.c_d, self.c_last, self.c_id)?;
                let mut crow = srv.get_row(schema.customer, c_rid)?;
                let real_c = col_u64(&crow, schema::customer::C_ID)?;
                let balance = col_i64(&crow, schema::customer::C_BALANCE)? - self.amount;
                let ytd = col_i64(&crow, schema::customer::C_YTD_PAYMENT)? + self.amount;
                let payment_cnt = col_u64(&crow, schema::customer::C_PAYMENT_CNT)? + 1;
                crow.set_cols([
                    (schema::customer::C_BALANCE, Value::I64(balance)),
                    (schema::customer::C_YTD_PAYMENT, Value::I64(ytd)),
                    (schema::customer::C_PAYMENT_CNT, Value::U64(payment_cnt)),
                ]);
                srv.update(s, schema.customer, c_rid, crow)?;
                self.resolved_c = real_c;
                self.phase = PaymentPhase::History;
                Ok(StmtResult::Continue)
            }
            PaymentPhase::History => {
                srv.insert(
                    s,
                    schema.history,
                    Row::new([
                        Value::U64(self.c_w),
                        Value::U64(self.c_d),
                        Value::U64(self.resolved_c),
                        Value::I64(self.amount),
                        Value::Str(format!("payment at w{} d{}", self.w, self.d)),
                    ]),
                )?;
                self.phase = PaymentPhase::Commit;
                Ok(StmtResult::Continue)
            }
            PaymentPhase::Commit => {
                srv.commit(s)?;
                Ok(StmtResult::Done(TxnOutcome {
                    kind: TxnKind::Payment,
                    committed: true,
                    audit: Audit::None,
                }))
            }
        }
    }
}

// ------------------------------------------------------------- OrderStatus

#[derive(Debug, Clone)]
struct OrderStatusTxn {
    w: u64,
    d: u64,
    /// The drawn last-name number when the customer is selected by name.
    c_last: Option<u64>,
    c_id: u64,
    phase: OrderStatusPhase,
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum OrderStatusPhase {
    Customer,
    Orders,
}

impl OrderStatusTxn {
    fn draw(schema: &TpccSchema, rng: &mut SimRng) -> OrderStatusTxn {
        let scale = schema.scale;
        let w = rng.gen_range(1..=scale.warehouses);
        let d = rng.gen_range(1..=scale.districts_per_warehouse);
        let by_last_name = rng.gen_bool(0.60);
        let c_last = nurand(rng, 255, C_LASTNAME, 0, 999);
        OrderStatusTxn {
            w,
            d,
            c_last: by_last_name.then_some(c_last),
            c_id: nurand(rng, 1023, C_CUSTOMER, 1, scale.customers_per_district),
            phase: OrderStatusPhase::Customer,
        }
    }

    fn step(
        &mut self,
        srv: &mut DbServer,
        s: SessionId,
        schema: &TpccSchema,
    ) -> DbResult<StmtResult> {
        match self.phase {
            OrderStatusPhase::Customer => {
                let c_rid = locate_customer(srv, schema, self.w, self.d, self.c_last, self.c_id)?;
                let crow = srv.get_row(schema.customer, c_rid)?;
                self.c_id = col_u64(&crow, schema::customer::C_ID)?;
                self.phase = OrderStatusPhase::Orders;
                Ok(StmtResult::Continue)
            }
            OrderStatusPhase::Orders => {
                // The customer's most recent order, if any.
                let last = srv.last_under_prefix(
                    schema.orders,
                    ix::ORDERS_BY_CUSTOMER,
                    &[Value::U64(self.w), Value::U64(self.d), Value::U64(self.c_id)],
                )?;
                if let Some(o_rid) = last.first() {
                    let orow = srv.get_row(schema.orders, *o_rid)?;
                    let o_id = col_u64(&orow, schema::orders::O_ID)?;
                    let _lines = srv.read_rows_prefix(
                        schema.order_line,
                        ix::PK,
                        &[Value::U64(self.w), Value::U64(self.d), Value::U64(o_id)],
                    )?;
                }
                // Read-only: the commit is a no-op handshake.
                srv.commit(s)?;
                Ok(StmtResult::Done(TxnOutcome {
                    kind: TxnKind::OrderStatus,
                    committed: true,
                    audit: Audit::None,
                }))
            }
        }
    }
}

// ---------------------------------------------------------------- Delivery

#[derive(Debug, Clone)]
struct DeliveryTxn {
    w: u64,
    carrier: u64,
    now_micros: u64,
    districts: u64,
    phase: DeliveryPhase,
    /// District currently being delivered (1-based; advances past
    /// `districts` when done).
    d: u64,
    o_id: u64,
    c_id: u64,
    total: i64,
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum DeliveryPhase {
    Claim,
    Order,
    Lines,
    Customer,
    Commit,
}

impl DeliveryTxn {
    fn draw(schema: &TpccSchema, rng: &mut SimRng, now_micros: u64) -> DeliveryTxn {
        let scale = schema.scale;
        DeliveryTxn {
            w: rng.gen_range(1..=scale.warehouses),
            carrier: rng.gen_range(1..=10u64),
            now_micros,
            districts: scale.districts_per_warehouse,
            phase: DeliveryPhase::Claim,
            d: 1,
            o_id: 0,
            c_id: 0,
            total: 0,
        }
    }

    fn step(
        &mut self,
        srv: &mut DbServer,
        s: SessionId,
        schema: &TpccSchema,
    ) -> DbResult<StmtResult> {
        let w = self.w;
        match self.phase {
            DeliveryPhase::Claim => {
                // Walk districts until one has a pending order; deleting
                // its NEW_ORDER row claims it (and is the one lock that
                // serializes concurrent deliveries).
                loop {
                    if self.d > self.districts {
                        self.phase = DeliveryPhase::Commit;
                        return Ok(StmtResult::Continue);
                    }
                    let pending = srv.first_under_prefix(
                        schema.new_order,
                        ix::PK,
                        &[Value::U64(w), Value::U64(self.d)],
                    )?;
                    let Some(no_rid) = pending.first().copied() else {
                        self.d += 1;
                        continue;
                    };
                    let no_row = srv.get_row(schema.new_order, no_rid)?;
                    let o_id = col_u64(&no_row, schema::new_order::NO_O_ID)?;
                    srv.delete(s, schema.new_order, no_rid)?;
                    self.o_id = o_id;
                    self.phase = DeliveryPhase::Order;
                    return Ok(StmtResult::Continue);
                }
            }
            DeliveryPhase::Order => {
                let o_rid = one_rid(
                    srv.lookup_first(
                        schema.orders,
                        ix::PK,
                        &[Value::U64(w), Value::U64(self.d), Value::U64(self.o_id)],
                    )?,
                    "order",
                )?;
                let mut orow = srv.get_row(schema.orders, o_rid)?;
                self.c_id = col_u64(&orow, schema::orders::O_C_ID)?;
                orow.set(schema::orders::O_CARRIER_ID, Value::U64(self.carrier));
                srv.update(s, schema.orders, o_rid, orow)?;
                self.phase = DeliveryPhase::Lines;
                Ok(StmtResult::Continue)
            }
            DeliveryPhase::Lines => {
                // Claiming the NEW_ORDER row serialized deliveries of this
                // order, and nothing else updates a delivered order's
                // lines, so the per-line updates here cannot block.
                let lines = srv.read_rows_prefix(
                    schema.order_line,
                    ix::PK,
                    &[Value::U64(w), Value::U64(self.d), Value::U64(self.o_id)],
                )?;
                let mut total = 0i64;
                for (rid, mut lrow) in lines {
                    total += col_i64(&lrow, schema::order_line::OL_AMOUNT)?;
                    lrow.set(schema::order_line::OL_DELIVERY_D, Value::U64(self.now_micros));
                    srv.update(s, schema.order_line, rid, lrow)?;
                }
                self.total = total;
                self.phase = DeliveryPhase::Customer;
                Ok(StmtResult::Continue)
            }
            DeliveryPhase::Customer => {
                let c_rid = one_rid(
                    srv.lookup_first(
                        schema.customer,
                        ix::PK,
                        &[Value::U64(w), Value::U64(self.d), Value::U64(self.c_id)],
                    )?,
                    "customer",
                )?;
                let mut crow = srv.get_row(schema.customer, c_rid)?;
                let balance = col_i64(&crow, schema::customer::C_BALANCE)? + self.total;
                let delivery_cnt = col_u64(&crow, schema::customer::C_DELIVERY_CNT)? + 1;
                crow.set_cols([
                    (schema::customer::C_BALANCE, Value::I64(balance)),
                    (schema::customer::C_DELIVERY_CNT, Value::U64(delivery_cnt)),
                ]);
                srv.update(s, schema.customer, c_rid, crow)?;
                self.d += 1;
                self.phase = DeliveryPhase::Claim;
                Ok(StmtResult::Continue)
            }
            DeliveryPhase::Commit => {
                srv.commit(s)?;
                Ok(StmtResult::Done(TxnOutcome {
                    kind: TxnKind::Delivery,
                    committed: true,
                    audit: Audit::None,
                }))
            }
        }
    }
}

// -------------------------------------------------------------- StockLevel

#[derive(Debug, Clone)]
struct StockLevelTxn {
    w: u64,
    d: u64,
    threshold: i64,
    phase: StockLevelPhase,
    next_o: u64,
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum StockLevelPhase {
    District,
    Scan,
}

impl StockLevelTxn {
    fn draw(schema: &TpccSchema, rng: &mut SimRng) -> StockLevelTxn {
        let scale = schema.scale;
        StockLevelTxn {
            w: rng.gen_range(1..=scale.warehouses),
            d: rng.gen_range(1..=scale.districts_per_warehouse),
            threshold: rng.gen_range(10..=20i64),
            phase: StockLevelPhase::District,
            next_o: 0,
        }
    }

    fn step(
        &mut self,
        srv: &mut DbServer,
        s: SessionId,
        schema: &TpccSchema,
    ) -> DbResult<StmtResult> {
        match self.phase {
            StockLevelPhase::District => {
                let d_rid = one_rid(
                    srv.lookup_first(schema.district, ix::PK, &[Value::U64(self.w), Value::U64(self.d)])?,
                    "district",
                )?;
                let drow = srv.get_row(schema.district, d_rid)?;
                self.next_o = col_u64(&drow, schema::district::D_NEXT_O_ID)?;
                self.phase = StockLevelPhase::Scan;
                Ok(StmtResult::Continue)
            }
            StockLevelPhase::Scan => {
                let from = self.next_o.saturating_sub(20).max(1);
                // Collect-then-dedup beats a set here: the ~200 line items
                // carry few duplicates, and one sort is cheaper than
                // per-item tree nodes.
                let mut items = Vec::with_capacity(256);
                for o in from..self.next_o {
                    let lines = srv.read_rows_prefix(
                        schema.order_line,
                        ix::PK,
                        &[Value::U64(self.w), Value::U64(self.d), Value::U64(o)],
                    )?;
                    for (_, lrow) in lines {
                        items.push(col_u64(&lrow, schema::order_line::OL_I_ID)?);
                    }
                }
                items.sort_unstable();
                items.dedup();
                // Stock rows load in item order, so the sorted item list
                // resolves to mostly-sequential rids and one batched read
                // covers them.
                let mut s_rids = Vec::with_capacity(items.len());
                for i_id in &items {
                    s_rids.push(one_rid(
                        srv.lookup_first(schema.stock, ix::PK, &[Value::U64(self.w), Value::U64(*i_id)])?,
                        "stock",
                    )?);
                }
                let mut low = 0u64;
                for srow in srv.read_rows(&s_rids)? {
                    if col_i64(&srow, schema::stock::S_QUANTITY)? < self.threshold {
                        low += 1;
                    }
                }
                let _ = low;
                srv.commit(s)?;
                Ok(StmtResult::Done(TxnOutcome {
                    kind: TxnKind::StockLevel,
                    committed: true,
                    audit: Audit::None,
                }))
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::gen::load_database;
    use crate::schema::{create_schema, TpccScale};
    use recobench_engine::{DiskLayout, InstanceConfig};
    use recobench_sim::SimClock;

    fn loaded() -> (DbServer, TpccSchema, SimRng) {
        let mut srv = DbServer::on_fresh_disks(
            "TX",
            SimClock::shared(),
            DiskLayout::four_disk(),
            InstanceConfig::default(),
        );
        srv.create_database().unwrap();
        let schema = create_schema(&mut srv, TpccScale::tiny(), 4, 2_048).unwrap();
        let mut rng = SimRng::seed_from(11);
        load_database(&mut srv, &schema, &mut rng).unwrap();
        (srv, schema, rng.fork(99))
    }

    /// Runs one transaction of `kind` to completion on a throwaway
    /// session: with one session there is no lock contention, so no
    /// `LockWait` or `Deadlock`.
    fn execute(
        server: &mut DbServer,
        schema: &TpccSchema,
        rng: &mut SimRng,
        kind: TxnKind,
    ) -> DbResult<TxnOutcome> {
        let session = server.connect()?;
        let now = server.clock().now().as_micros();
        let mut txn = InFlight::new(schema, rng, kind, now);
        let result = loop {
            match txn.step(server, session, schema) {
                Ok(StmtResult::Continue) => {}
                Ok(StmtResult::Done(out)) => break Ok(out),
                Err(e) => {
                    let _ = server.rollback(session);
                    break Err(e);
                }
            }
        };
        server.disconnect(session);
        result
    }

    #[test]
    fn new_order_commits_and_creates_rows() {
        let (mut srv, schema, mut rng) = loaded();
        let before = srv.peek_scan(schema.orders).unwrap().len();
        let mut committed = 0;
        for _ in 0..20 {
            let out = execute(&mut srv, &schema, &mut rng, TxnKind::NewOrder).unwrap();
            if out.committed {
                committed += 1;
                assert!(matches!(out.audit, Audit::Order { .. }));
            }
        }
        assert!(committed >= 15, "most new-orders commit");
        let after = srv.peek_scan(schema.orders).unwrap().len();
        assert_eq!(after - before, committed);
        assert_eq!(srv.peek_scan(schema.new_order).unwrap().len(), committed);
    }

    #[test]
    fn payment_moves_money_consistently() {
        let (mut srv, schema, mut rng) = loaded();
        for _ in 0..20 {
            execute(&mut srv, &schema, &mut rng, TxnKind::Payment).unwrap();
        }
        // W_YTD still equals the sum of its districts' D_YTD.
        let report = crate::consistency::check_consistency(&srv, &schema).unwrap();
        assert!(report.is_consistent(), "violations: {:?}", report.violations);
        assert_eq!(srv.peek_scan(schema.history).unwrap().len(), 20);
    }

    #[test]
    fn delivery_clears_new_orders() {
        let (mut srv, schema, mut rng) = loaded();
        for _ in 0..30 {
            execute(&mut srv, &schema, &mut rng, TxnKind::NewOrder).unwrap();
        }
        let pending_before = srv.peek_scan(schema.new_order).unwrap().len();
        assert!(pending_before > 0);
        for _ in 0..40 {
            execute(&mut srv, &schema, &mut rng, TxnKind::Delivery).unwrap();
        }
        let pending_after = srv.peek_scan(schema.new_order).unwrap().len();
        assert_eq!(pending_after, 0, "all pending orders delivered");
    }

    #[test]
    fn read_only_profiles_change_nothing() {
        let (mut srv, schema, mut rng) = loaded();
        for _ in 0..10 {
            execute(&mut srv, &schema, &mut rng, TxnKind::NewOrder).unwrap();
        }
        let orders = srv.peek_scan(schema.orders).unwrap();
        let stock = srv.peek_scan(schema.stock).unwrap();
        for _ in 0..10 {
            execute(&mut srv, &schema, &mut rng, TxnKind::OrderStatus).unwrap();
            execute(&mut srv, &schema, &mut rng, TxnKind::StockLevel).unwrap();
        }
        assert_eq!(srv.peek_scan(schema.orders).unwrap(), orders);
        assert_eq!(srv.peek_scan(schema.stock).unwrap(), stock);
    }

    #[test]
    fn mix_draw_is_weighted() {
        let mut rng = SimRng::seed_from(5);
        let mut counts = std::collections::HashMap::new();
        for _ in 0..10_000 {
            *counts.entry(TxnKind::draw(&mut rng)).or_insert(0u32) += 1;
        }
        let no = counts[&TxnKind::NewOrder] as f64 / 10_000.0;
        let pay = counts[&TxnKind::Payment] as f64 / 10_000.0;
        assert!((0.42..0.48).contains(&no), "new-order fraction {no}");
        assert!((0.40..0.46).contains(&pay), "payment fraction {pay}");
    }

    #[test]
    fn consistency_holds_after_a_mixed_burst() {
        let (mut srv, schema, mut rng) = loaded();
        for _ in 0..150 {
            let kind = TxnKind::draw(&mut rng);
            execute(&mut srv, &schema, &mut rng, kind).unwrap();
        }
        let report = crate::consistency::check_consistency(&srv, &schema).unwrap();
        assert!(report.is_consistent(), "violations: {:?}", report.violations);
    }

    #[test]
    fn two_sessions_interleave_statement_by_statement() {
        let (mut srv, schema, mut rng) = loaded();
        let now = srv.clock().now().as_micros();
        let s1 = srv.connect().unwrap();
        let s2 = srv.connect().unwrap();
        let mut a = InFlight::new(&schema, &mut rng, TxnKind::NewOrder, now);
        let mut b = InFlight::new(&schema, &mut rng, TxnKind::Payment, now);
        let mut done = [false, false];
        let mut blocked = [false, false];
        let mut waits = 0;
        // Round-robin the two transactions one statement at a time. With
        // tiny scale they may contend (district row); a wait just parks
        // one side until the other finishes.
        for _ in 0..200 {
            if done == [true, true] {
                break;
            }
            for side in 0..2 {
                if blocked[side] || done[side] {
                    continue;
                }
                let (txn, sid) = if side == 0 { (&mut a, s1) } else { (&mut b, s2) };
                match txn.step(&mut srv, sid, &schema) {
                    Ok(StmtResult::Continue) => {}
                    Ok(StmtResult::Done(out)) => {
                        assert!(out.committed);
                        done[side] = true;
                        // A commit may unblock the other side.
                        for (gs, _) in srv.take_lock_grants() {
                            if gs == s1 {
                                blocked[0] = false;
                            }
                            if gs == s2 {
                                blocked[1] = false;
                            }
                        }
                    }
                    Err(DbError::LockWait { .. }) => {
                        blocked[side] = true;
                        waits += 1;
                    }
                    Err(e) => panic!("unexpected error: {e}"),
                }
            }
        }
        assert_eq!(done, [true, true], "both interleaved transactions completed (waits={waits})");
        srv.disconnect(s1);
        srv.disconnect(s2);
        let report = crate::consistency::check_consistency(&srv, &schema).unwrap();
        assert!(report.is_consistent(), "violations: {:?}", report.violations);
    }
}
