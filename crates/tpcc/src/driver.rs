//! The closed-loop terminal driver — the paper's "remote terminal
//! emulator", extended (as §4 of the paper describes) to record the base
//! data for the recovery and integrity measures.
//!
//! The driver multiplexes N simulated terminals onto one single-threaded
//! server as a discrete-event scheduler: each terminal cycles through
//! *think → keying → statements → commit*, yielding to the other
//! terminals between statements. A statement that hits a lock conflict
//! parks its terminal (no reschedule) until the engine reports the grant;
//! a deadlock victim rolls back and replays the same transaction after a
//! think time. Interleaving arises naturally because every engine call
//! advances the shared [`SimClock`](recobench_sim::SimClock) while other
//! terminals' ready times stand still.
//!
//! Every measure is taken **from the end-user point of view**:
//!
//! * *throughput* (tpmC) counts committed New-Order transactions per
//!   minute;
//! * *recovery time* runs from the first failed transaction after a fault
//!   until the first successful transaction after service restoration —
//!   which includes instance recovery *and* re-establishing transaction
//!   execution at the client, exactly as the paper measures it;
//! * *lost transactions* are commit acknowledgements recorded client-side
//!   whose effects are absent from the database after recovery.

use recobench_engine::{DbError, DbResult, DbServer, SessionId};
use recobench_sim::{EventQueue, SimDuration, SimRng, SimTime};

use crate::schema::{ix, TpccSchema};
use crate::tx::{Audit, InFlight, StmtResult, TxnKind};
use recobench_engine::row::{Value, ValueRef};

/// Driver configuration.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct DriverConfig {
    /// Number of emulated terminals.
    pub terminals: usize,
    /// Mean think time between a terminal's transactions (uniformly
    /// jittered ±50 %). Scaled down from the spec's tens of seconds, like
    /// the database itself.
    pub mean_think: SimDuration,
    /// Mean keying time between drawing a transaction's inputs and
    /// submitting its first statement (uniformly jittered ±50 %).
    pub mean_keying: SimDuration,
    /// How long a terminal waits before retrying after an error.
    pub retry_interval: SimDuration,
}

fn default_mean_keying() -> SimDuration {
    SimDuration::from_millis(90)
}

impl Default for DriverConfig {
    fn default() -> Self {
        // Think + keying sum to the 340 ms cycle the calibration was done
        // against (DESIGN.md §6): the old single think time implicitly
        // lumped keying, so splitting it must not change the redo rate.
        DriverConfig {
            terminals: 12,
            mean_think: SimDuration::from_millis(250),
            mean_keying: default_mean_keying(),
            retry_interval: SimDuration::from_millis(1_000),
        }
    }
}

/// The end-user availability timeline over a window: committed
/// transactions per second, plus the instants service was lost and came
/// back, all as the *client* saw them. This is the ResBench-style view the
/// breakdown report plots: not just "recovery took 34 s" but the shape of
/// the outage.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct AvailabilityTimeline {
    /// Window start, µs of sim time.
    pub start_us: u64,
    /// Bucket width, µs (one second).
    pub bucket_us: u64,
    /// Successful transaction completions per bucket, covering
    /// `[start, end)` in order.
    pub buckets: Vec<u64>,
    /// First errored attempt in the window (service-loss instant), µs.
    pub first_error_us: Option<u64>,
    /// First successful completion after `first_error_us` (service-return
    /// instant), µs. `None` when service never failed or never returned.
    pub service_return_us: Option<u64>,
}

impl AvailabilityTimeline {
    /// Seconds of the window with zero successful completions.
    pub fn zero_seconds(&self) -> u64 {
        self.buckets.iter().filter(|&&b| b == 0).count() as u64
    }

    /// Total successful completions in the window.
    pub fn total(&self) -> u64 {
        self.buckets.iter().sum()
    }

    /// The timeline as one hand-rolled JSON object (no trailing newline).
    pub fn to_json(&self) -> String {
        use std::fmt::Write as _;
        let mut out = String::with_capacity(32 + self.buckets.len() * 4);
        let _ = write!(out, "{{\"start_us\":{},\"bucket_us\":{},\"buckets\":[", self.start_us, self.bucket_us);
        for (i, b) in self.buckets.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            let _ = write!(out, "{b}");
        }
        let _ = write!(
            out,
            "],\"first_error_us\":{},\"service_return_us\":{}}}",
            self.first_error_us.map_or("null".to_string(), |v| v.to_string()),
            self.service_return_us.map_or("null".to_string(), |v| v.to_string()),
        );
        out
    }
}

/// One committed New-Order acknowledgement, as the client saw it.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct CommittedOrder {
    /// Warehouse.
    pub w: u64,
    /// District.
    pub d: u64,
    /// Order id.
    pub o: u64,
    /// `O_ENTRY_D` the transaction wrote (identity across id reuse).
    pub entry: u64,
    /// When the commit was acknowledged.
    pub at: SimTime,
}

/// What one driver step did.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct StepEvent {
    /// When the transaction finished (or failed).
    pub at: SimTime,
    /// The profile that ran.
    pub kind: TxnKind,
    /// Whether it committed (deliberate rollbacks count as `false` but are
    /// not errors).
    pub ok: bool,
    /// Whether the attempt failed with an error.
    pub error: bool,
}

/// Per-kind success counters.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct MixCounts {
    /// Committed New-Orders.
    pub new_order: u64,
    /// Committed Payments.
    pub payment: u64,
    /// Completed Order-Status queries.
    pub order_status: u64,
    /// Committed Deliveries.
    pub delivery: u64,
    /// Completed Stock-Level queries.
    pub stock_level: u64,
}

/// One emulated terminal: its engine session, the transaction it is in the
/// middle of (if any), and whether it is parked on a lock wait.
#[derive(Debug, Clone, Default)]
struct Terminal {
    sid: Option<SessionId>,
    inflight: Option<InFlight>,
    blocked: bool,
}

/// What to do with a terminal after one of its statements ran.
enum StmtFate {
    /// More statements remain; terminal stays runnable.
    Continue,
    /// Terminal parked on a lock wait; the grant will reschedule it.
    Parked,
    /// Deadlock victim: rolled back, transaction will replay.
    Replay,
    /// The transaction finished or failed.
    Finished(StepEvent),
}

/// The terminal driver. A clone is an independent driver in the same state
/// — RNG position, ready queue, in-flight transactions, histories — for a
/// forked run against a forked server.
#[derive(Debug, Clone)]
pub struct TpccDriver {
    schema: TpccSchema,
    cfg: DriverConfig,
    rng: SimRng,
    ready: EventQueue<usize>,
    terminals: Vec<Terminal>,
    /// Client-side audit log of acknowledged New-Order commits.
    committed_orders: Vec<CommittedOrder>,
    /// Timestamps of every successful transaction completion.
    successes: Vec<SimTime>,
    /// Timestamps of every errored attempt.
    errors: Vec<SimTime>,
    counts: MixCounts,
    attempted: u64,
    deadlock_aborts: u64,
}

impl TpccDriver {
    /// Creates a driver whose terminals become ready shortly after
    /// `start`.
    pub fn new(schema: TpccSchema, cfg: DriverConfig, mut rng: SimRng, start: SimTime) -> Self {
        let mut ready = EventQueue::new();
        for t in 0..cfg.terminals {
            // Stagger initial readiness so terminals do not phase-lock.
            let offset = SimDuration::from_micros(rng.gen_range(0..cfg.mean_think.as_micros().max(1)));
            ready.push(start + offset, t);
        }
        let terminals = (0..cfg.terminals).map(|_| Terminal::default()).collect();
        TpccDriver {
            schema,
            cfg,
            rng,
            ready,
            terminals,
            committed_orders: Vec::new(),
            successes: Vec::new(),
            errors: Vec::new(),
            counts: MixCounts::default(),
            attempted: 0,
            deadlock_aborts: 0,
        }
    }

    /// When the next terminal is ready to run.
    pub fn next_ready(&self) -> SimTime {
        self.ready.peek_time().expect("runnable terminals are always rescheduled")
    }

    fn think(&mut self) -> SimDuration {
        let mean = self.cfg.mean_think.as_micros().max(1);
        SimDuration::from_micros(self.rng.gen_range(mean / 2..=mean * 3 / 2))
    }

    fn keying(&mut self) -> SimDuration {
        let mean = self.cfg.mean_keying.as_micros().max(1);
        SimDuration::from_micros(self.rng.gen_range(mean / 2..=mean * 3 / 2))
    }

    /// Unparks terminals whose pending lock the engine granted since the
    /// last call, rescheduling each at its grant instant.
    fn wake_granted(&mut self, server: &mut DbServer) {
        for (sid, at) in server.take_lock_grants() {
            if let Some(t) = self.terminals.iter().position(|term| term.sid == Some(sid)) {
                if self.terminals[t].blocked {
                    self.terminals[t].blocked = false;
                    self.ready.push(at, t);
                }
            }
        }
    }

    /// Fails parked terminals whose session the server severed (crash,
    /// cold backup, recovery): their grant will never come, so the client
    /// sees an error and retries from scratch after the retry interval.
    fn sweep_severed(&mut self, server: &mut DbServer) {
        let now = server.clock().now();
        for t in 0..self.terminals.len() {
            let severed = {
                let term = &self.terminals[t];
                term.blocked && !term.sid.is_some_and(|sid| server.session_exists(sid))
            };
            if severed {
                let term = &mut self.terminals[t];
                term.blocked = false;
                term.sid = None;
                term.inflight = None;
                self.errors.push(now);
                self.ready.push(now + self.cfg.retry_interval, t);
            }
        }
    }

    fn ensure_session(&mut self, server: &mut DbServer, t: usize) -> DbResult<()> {
        match self.terminals[t].sid {
            Some(sid) if server.session_exists(sid) => Ok(()),
            _ => {
                let sid = server.connect()?;
                self.terminals[t].sid = Some(sid);
                Ok(())
            }
        }
    }

    /// Runs one statement of terminal `t`'s in-flight transaction and
    /// classifies the outcome. Does not reschedule — the caller owns the
    /// scheduling policy (stepping vs draining).
    fn run_statement(&mut self, server: &mut DbServer, t: usize) -> StmtFate {
        let sid = self.terminals[t].sid.expect("an in-flight terminal keeps its session");
        let result = {
            let schema = self.schema;
            self.terminals[t]
                .inflight
                .as_mut()
                .expect("caller checked in-flight")
                .step(server, sid, &schema)
        };
        let now = server.clock().now();
        match result {
            Ok(StmtResult::Continue) => StmtFate::Continue,
            Ok(StmtResult::Done(outcome)) => {
                self.terminals[t].inflight = None;
                if outcome.committed {
                    self.successes.push(now);
                    match outcome.kind {
                        TxnKind::NewOrder => self.counts.new_order += 1,
                        TxnKind::Payment => self.counts.payment += 1,
                        TxnKind::OrderStatus => self.counts.order_status += 1,
                        TxnKind::Delivery => self.counts.delivery += 1,
                        TxnKind::StockLevel => self.counts.stock_level += 1,
                    }
                    if let Audit::Order { w, d, o, entry } = outcome.audit {
                        self.committed_orders.push(CommittedOrder { w, d, o, entry, at: now });
                    }
                }
                StmtFate::Finished(StepEvent { at: now, kind: outcome.kind, ok: outcome.committed, error: false })
            }
            Err(DbError::LockWait { .. }) => {
                self.terminals[t].blocked = true;
                StmtFate::Parked
            }
            Err(DbError::Deadlock { .. }) => {
                // This transaction is the victim: the engine already chose
                // it deterministically. Roll back (releasing our locks and
                // waking the survivor) and replay the same inputs.
                let _ = server.rollback(sid);
                self.deadlock_aborts += 1;
                if let Some(f) = self.terminals[t].inflight.as_mut() {
                    f.restart();
                }
                StmtFate::Replay
            }
            Err(_e) => {
                let kind = self.terminals[t]
                    .inflight
                    .as_ref()
                    .map_or(TxnKind::NewOrder, InFlight::kind);
                let _ = server.rollback(sid);
                if !server.session_exists(sid) {
                    self.terminals[t].sid = None;
                }
                self.terminals[t].inflight = None;
                self.terminals[t].blocked = false;
                self.errors.push(now);
                StmtFate::Finished(StepEvent { at: now, kind, ok: false, error: true })
            }
        }
    }

    /// Advances the simulation until one terminal's transaction completes
    /// (or fails), interleaving other terminals' statements along the way.
    /// The shared clock moves through ready times and the engine work each
    /// statement performs.
    pub fn step(&mut self, server: &mut DbServer) -> StepEvent {
        loop {
            self.wake_granted(server);
            self.sweep_severed(server);
            let (ready_at, t) = self
                .ready
                .pop()
                .expect("a runnable terminal always exists (deadlock detection keeps chains acyclic)");
            server.clock().advance_to(ready_at);
            server.poll();
            let now = server.clock().now();
            if self.terminals[t].inflight.is_none() {
                // Idle: draw the next transaction and key it in.
                let kind = TxnKind::draw(&mut self.rng);
                self.attempted += 1;
                if self.ensure_session(server, t).is_err() {
                    self.errors.push(now);
                    self.ready.push(now + self.cfg.retry_interval, t);
                    return StepEvent { at: now, kind, ok: false, error: true };
                }
                let inflight = InFlight::new(&self.schema, &mut self.rng, kind, now.as_micros());
                self.terminals[t].inflight = Some(inflight);
                let keying = self.keying();
                self.ready.push(now + keying, t);
                continue;
            }
            match self.run_statement(server, t) {
                StmtFate::Continue => {
                    // Yield between statements: equal-time FIFO lets other
                    // ready terminals interleave.
                    self.ready.push(server.clock().now(), t);
                }
                StmtFate::Parked => {}
                StmtFate::Replay => {
                    let think = self.think();
                    self.ready.push(server.clock().now() + think, t);
                }
                StmtFate::Finished(ev) => {
                    let delay = if ev.error { self.cfg.retry_interval } else { self.think() };
                    self.ready.push(ev.at + delay, t);
                    return ev;
                }
            }
        }
    }

    /// Drops every terminal's client-side connection state. The harness
    /// calls this when it redirects the driver at a *different* server
    /// (stand-by failover): the old node's session ids mean nothing there
    /// and could even collide with ids the new node hands out. Terminals
    /// that were mid-transaction record a client-visible error and retry.
    pub fn sever_all(&mut self, now: SimTime) {
        for t in 0..self.terminals.len() {
            let term = &mut self.terminals[t];
            let had_work = term.inflight.is_some();
            term.sid = None;
            term.inflight = None;
            if term.blocked {
                // Parked terminals are not in the ready queue; requeue.
                term.blocked = false;
                self.ready.push(now + self.cfg.retry_interval, t);
            }
            if had_work {
                self.errors.push(now);
            }
        }
    }

    /// Drains every in-flight transaction to completion without starting
    /// new ones, then rolls back and disconnects whatever could not finish
    /// and reseeds the ready queue. The experiment harness calls this
    /// before evaluating oracles so no uncommitted terminal state shadows
    /// the comparison.
    pub fn quiesce(&mut self, server: &mut DbServer) {
        let mut guard = 0u32;
        while self.terminals.iter().any(|term| term.inflight.is_some()) && guard < 1_000_000 {
            guard += 1;
            self.wake_granted(server);
            self.sweep_severed(server);
            let Some((ready_at, t)) = self.ready.pop() else { break };
            server.clock().advance_to(ready_at);
            server.poll();
            if self.terminals[t].inflight.is_none() {
                continue; // drained — do not submit new work
            }
            match self.run_statement(server, t) {
                StmtFate::Continue => {
                    self.ready.push(server.clock().now(), t);
                }
                StmtFate::Parked => {}
                StmtFate::Replay => {
                    // Retry immediately: the drain wants completion, not
                    // realistic pacing.
                    self.ready.push(server.clock().now(), t);
                }
                StmtFate::Finished(_) => {}
            }
        }
        // Force whatever is left (e.g. a terminal parked forever because
        // the survivor of its conflict was itself drained mid-wait).
        for term in &mut self.terminals {
            if let Some(sid) = term.sid.take() {
                if server.session_exists(sid) {
                    server.disconnect(sid); // rolls back any open txn
                }
            }
            term.inflight = None;
            term.blocked = false;
        }
        // All terminals idle: reseed the ready queue so stepping can
        // resume afterwards.
        self.ready.clear();
        let now = server.clock().now();
        for t in 0..self.terminals.len() {
            let offset = SimDuration::from_micros(self.rng.gen_range(0..self.cfg.mean_think.as_micros().max(1)));
            self.ready.push(now + offset, t);
        }
    }

    /// Committed New-Orders per minute over `[from, to)`.
    pub fn tpmc(&self, from: SimTime, to: SimTime) -> f64 {
        let window = to.saturating_since(from).as_secs_f64();
        if window <= 0.0 {
            return 0.0;
        }
        let n = self
            .committed_orders
            .iter()
            .filter(|c| c.at >= from && c.at < to)
            .count();
        n as f64 * 60.0 / window
    }

    /// Records a service loss the client observed at `at` without running
    /// a transaction — the experiment harness calls this at fault
    /// activation, where the client's in-flight attempt fails while the
    /// recovery procedure monopolizes the timeline.
    pub fn record_outage(&mut self, at: SimTime) {
        self.errors.push(at);
    }

    /// First successful completion at or after `t` (service restoration).
    pub fn first_success_after(&self, t: SimTime) -> Option<SimTime> {
        self.successes.iter().copied().find(|&s| s >= t)
    }

    /// The end-user availability timeline over `[from, to)`: per-second
    /// successful-completion counts, the first error in the window, and
    /// the first success after that error.
    pub fn availability_timeline(&self, from: SimTime, to: SimTime) -> AvailabilityTimeline {
        const BUCKET_US: u64 = 1_000_000;
        let start_us = from.as_micros();
        let end_us = to.as_micros().max(start_us);
        let n = (end_us - start_us).div_ceil(BUCKET_US);
        let mut buckets = vec![0u64; n as usize];
        for s in &self.successes {
            let t = s.as_micros();
            if t >= start_us && t < end_us {
                buckets[((t - start_us) / BUCKET_US) as usize] += 1;
            }
        }
        let first_error = self
            .errors
            .iter()
            .copied()
            .find(|e| e.as_micros() >= start_us && e.as_micros() < end_us);
        // Strictly after: a success in the same microsecond as the first
        // error is the last pre-fault completion, not the restoration.
        let service_return = first_error
            .and_then(|e| self.successes.iter().copied().find(|&s| s > e))
            .filter(|s| s.as_micros() < end_us);
        AvailabilityTimeline {
            start_us,
            bucket_us: BUCKET_US,
            buckets,
            first_error_us: first_error.map(|t| t.as_micros()),
            service_return_us: service_return.map(|t| t.as_micros()),
        }
    }

    /// The client-side audit log.
    pub fn committed_orders(&self) -> &[CommittedOrder] {
        &self.committed_orders
    }

    /// Per-kind commit counters.
    pub fn counts(&self) -> MixCounts {
        self.counts
    }

    /// Attempts, including failures and deliberate rollbacks. A deadlock
    /// replay is the *same* attempt, not a new one.
    pub fn attempted(&self) -> u64 {
        self.attempted
    }

    /// Errored attempts so far.
    pub fn error_count(&self) -> u64 {
        self.errors.len() as u64
    }

    /// Transactions aborted as deadlock victims and replayed.
    pub fn deadlock_aborts(&self) -> u64 {
        self.deadlock_aborts
    }

    /// Every errored attempt's timestamp, in submission order — the raw
    /// series behind [`TpccDriver::availability_timeline`], for harnesses
    /// that need the full outage structure of multi-fault runs rather
    /// than the first loss/return pair.
    pub fn error_times(&self) -> &[SimTime] {
        &self.errors
    }

    /// Counts acknowledged-committed New-Orders that are **absent** from
    /// `server` — the paper's *lost transactions* measure. Orders
    /// committed against a different incarnation are detected by primary
    /// key through the zero-cost inspection interface.
    ///
    /// # Errors
    ///
    /// Fails if the database cannot be inspected at all.
    pub fn audit_lost_orders(&self, server: &DbServer) -> Result<u64, DbError> {
        let mut lost = 0u64;
        // Consecutively committed orders cluster in the same heap blocks,
        // so a memoizing reader decodes each block once for the whole
        // audit instead of once per order.
        let mut reader = server.peek_reader();
        for c in &self.committed_orders {
            let rids = server.peek_lookup(
                self.schema.orders,
                ix::PK,
                &[Value::U64(c.w), Value::U64(c.d), Value::U64(c.o)],
            )?;
            let mut found = false;
            for rid in rids {
                if let Ok(Some(row)) = reader.row(self.schema.orders, rid) {
                    if row.get(crate::schema::orders::O_ENTRY_D).and_then(ValueRef::as_u64)
                        == Some(c.entry)
                    {
                        found = true;
                        break;
                    }
                }
            }
            if !found {
                lost += 1;
            }
        }
        Ok(lost)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::gen::load_database;
    use crate::schema::{create_schema, TpccScale};
    use recobench_engine::{DiskLayout, InstanceConfig};
    use recobench_sim::SimClock;

    fn loaded() -> (DbServer, TpccSchema) {
        let mut srv = DbServer::on_fresh_disks(
            "DRV",
            SimClock::shared(),
            DiskLayout::four_disk(),
            InstanceConfig::default(),
        );
        srv.create_database().unwrap();
        let schema = create_schema(&mut srv, TpccScale::tiny(), 4, 2_048).unwrap();
        let mut rng = SimRng::seed_from(21);
        load_database(&mut srv, &schema, &mut rng).unwrap();
        (srv, schema)
    }

    /// Aggressive pacing: near-zero think/keying keeps many transactions
    /// in flight at once, forcing lock contention on the tiny scale.
    fn contended_cfg(terminals: usize) -> DriverConfig {
        DriverConfig {
            terminals,
            mean_think: SimDuration::from_micros(200),
            mean_keying: SimDuration::from_micros(50),
            retry_interval: SimDuration::from_millis(100),
        }
    }

    #[test]
    fn driver_executes_and_advances_time() {
        let (mut srv, schema) = loaded();
        let start = srv.clock().now();
        let mut driver =
            TpccDriver::new(schema, DriverConfig::default(), SimRng::seed_from(1), start);
        for _ in 0..200 {
            driver.step(&mut srv);
        }
        assert!(srv.clock().now() > start);
        assert!(driver.counts().new_order > 0);
        assert!(driver.counts().payment > 0);
        assert_eq!(driver.error_count(), 0);
        // Completions pace attempts: every step finishes one transaction,
        // and at most `terminals` submissions are still in flight.
        assert!(driver.attempted() >= 200);
        assert!(driver.attempted() <= 200 + DriverConfig::default().terminals as u64);
        driver.quiesce(&mut srv);
        assert_eq!(srv.session_count(), 0, "quiesce disconnects every terminal");
    }

    #[test]
    fn contended_run_interleaves_waits_and_stays_consistent() {
        let (mut srv, schema) = loaded();
        let start = srv.clock().now();
        let mut driver = TpccDriver::new(schema, contended_cfg(8), SimRng::seed_from(9), start);
        for _ in 0..400 {
            driver.step(&mut srv);
        }
        driver.quiesce(&mut srv);
        let stats = srv.stats();
        assert!(stats.lock_waits > 0, "8 fast terminals on tiny scale must contend");
        assert!(
            stats.lock_grants <= stats.lock_waits,
            "a grant only ever resolves a recorded wait"
        );
        assert_eq!(driver.deadlock_aborts(), stats.deadlocks, "driver and engine agree");
        assert_eq!(driver.error_count(), 0, "waits and deadlocks are not client errors");
        let report = crate::consistency::check_consistency(&srv, &schema).unwrap();
        assert!(report.is_consistent(), "violations: {:?}", report.violations);
        assert!(srv.verify_integrity().unwrap().is_clean());
    }

    #[test]
    fn tpmc_counts_only_new_orders_in_window() {
        let (mut srv, schema) = loaded();
        let start = srv.clock().now();
        let mut driver =
            TpccDriver::new(schema, DriverConfig::default(), SimRng::seed_from(2), start);
        for _ in 0..300 {
            driver.step(&mut srv);
        }
        let end = srv.clock().now();
        let tpmc = driver.tpmc(start, end);
        assert!(tpmc > 0.0);
        // Windows are half-open, so a commit at exactly `end` belongs to the
        // next window; start strictly after the last event to see nothing.
        let after = end + SimDuration::from_secs(1);
        assert_eq!(driver.tpmc(after, after + SimDuration::from_secs(60)), 0.0);
    }

    #[test]
    fn errors_are_recorded_when_instance_is_down() {
        let (mut srv, schema) = loaded();
        let start = srv.clock().now();
        let mut driver =
            TpccDriver::new(schema, DriverConfig::default(), SimRng::seed_from(3), start);
        for _ in 0..20 {
            driver.step(&mut srv);
        }
        let fault_at = srv.clock().now();
        srv.shutdown_abort().unwrap();
        for _ in 0..15 {
            driver.step(&mut srv);
        }
        assert!(driver.error_count() >= 15);
        assert!(driver.error_times().iter().any(|&e| e >= fault_at));
        // Recovery restores service; the driver sees successes again.
        srv.startup().unwrap();
        let recovered_at = srv.clock().now();
        for _ in 0..30 {
            driver.step(&mut srv);
        }
        assert!(driver.first_success_after(recovered_at).is_some());
    }

    #[test]
    fn availability_timeline_buckets_are_monotone_in_sim_time() {
        let (mut srv, schema) = loaded();
        let start = srv.clock().now();
        let mut driver =
            TpccDriver::new(schema, DriverConfig::default(), SimRng::seed_from(6), start);
        for _ in 0..40 {
            driver.step(&mut srv);
        }
        let fault_at = srv.clock().now();
        srv.shutdown_abort().unwrap();
        for _ in 0..15 {
            driver.step(&mut srv);
        }
        srv.startup().unwrap();
        for _ in 0..60 {
            driver.step(&mut srv);
        }
        let end = srv.clock().now() + SimDuration::from_secs(1);

        // Success instants arrive in nondecreasing sim time, so every
        // recorded success falls in a bucket at or after the previous
        // one's: the bucketed cumulative count is monotone.
        let mut prev = SimTime::ZERO;
        for &s in &driver.successes {
            assert!(s >= prev, "success instants must be nondecreasing");
            prev = s;
        }
        let tl = driver.availability_timeline(start, end);
        assert_eq!(tl.start_us, start.as_micros());
        assert_eq!(tl.total(), driver.successes.len() as u64, "every success lands in a bucket");
        assert!(tl.zero_seconds() > 0, "the outage shows up as empty seconds");
        let first_error = tl.first_error_us.expect("the fault produced errors");
        let back = tl.service_return_us.expect("service returned in-window");
        assert!(first_error >= fault_at.as_micros());
        assert!(back > first_error, "service returns strictly after it was lost");
        // Buckets strictly between loss and return hold no successes.
        let lo = ((first_error - tl.start_us) / tl.bucket_us + 1) as usize;
        let hi = ((back - tl.start_us) / tl.bucket_us) as usize;
        for b in &tl.buckets[lo.min(tl.buckets.len())..hi.min(tl.buckets.len())] {
            assert_eq!(*b, 0, "no successes between service loss and return");
        }
        // JSON round-trips structurally: the serialized form mentions every
        // field once.
        let json = tl.to_json();
        for key in ["start_us", "bucket_us", "buckets", "first_error_us", "service_return_us"] {
            assert!(json.contains(key), "JSON must carry {key}");
        }
    }

    #[test]
    fn audit_finds_no_lost_orders_without_faults() {
        let (mut srv, schema) = loaded();
        let start = srv.clock().now();
        let mut driver =
            TpccDriver::new(schema, DriverConfig::default(), SimRng::seed_from(4), start);
        for _ in 0..200 {
            driver.step(&mut srv);
        }
        assert!(!driver.committed_orders().is_empty());
        assert_eq!(driver.audit_lost_orders(&srv).unwrap(), 0);
    }

    #[test]
    fn audit_detects_losses_after_crash_without_flush_is_zero_but_pitr_loses() {
        // Crash recovery must lose nothing (complete recovery)…
        let (mut srv, schema) = loaded();
        srv.take_cold_backup().unwrap();
        let start = srv.clock().now();
        let mut driver =
            TpccDriver::new(schema, DriverConfig::default(), SimRng::seed_from(5), start);
        for _ in 0..100 {
            driver.step(&mut srv);
        }
        srv.shutdown_abort().unwrap();
        srv.startup().unwrap();
        assert_eq!(driver.audit_lost_orders(&srv).unwrap(), 0, "crash loses no committed work");
        // …while point-in-time recovery to an earlier SCN does lose work.
        let stop = srv.current_scn();
        for _ in 0..100 {
            driver.step(&mut srv);
        }
        srv.recover_database_until(stop).unwrap();
        assert!(driver.audit_lost_orders(&srv).unwrap() > 0, "PITR sacrifices the tail");
    }

    #[test]
    fn same_seed_same_terminals_is_deterministic() {
        let run = |seed: u64| {
            let (mut srv, schema) = loaded();
            let start = srv.clock().now();
            let mut driver = TpccDriver::new(schema, contended_cfg(8), SimRng::seed_from(seed), start);
            let mut trace = Vec::new();
            for _ in 0..150 {
                let ev = driver.step(&mut srv);
                trace.push((ev.at, ev.kind, ev.ok, ev.error));
            }
            driver.quiesce(&mut srv);
            (trace, srv.peek_scan(schema.orders).unwrap(), srv.stats().deadlocks)
        };
        let (t1, rows1, d1) = run(7);
        let (t2, rows2, d2) = run(7);
        assert_eq!(t1, t2, "step traces replay byte-identically");
        assert_eq!(rows1, rows2, "final table state replays identically");
        assert_eq!(d1, d2);
        let (t3, _, _) = run(8);
        assert_ne!(t1, t3, "a different seed takes a different path");
    }
}
