//! Forking a run in mid-flight is invisible: a [`Rig`] driven to an
//! arbitrary instant, forked, and both copies driven on must end exactly
//! where one uninterrupted run ends — same counters, same client
//! histories, same database, same event stream — and nothing the fork does
//! may reach the rig it was taken from.
//!
//! The instants are arbitrary on purpose. With eight terminals on
//! `oltp_contended`'s near-zero think times a fork almost always lands
//! while sessions hold row locks, others are parked in their wait queues
//! and the rest are between two statements of a transaction.

use std::sync::{Arc, Mutex};

use proptest::prelude::*;
use recobench::core::rig::{set_up, Rig};
use recobench::core::RecoveryConfig;
use recobench::engine::{DbResult, DiskLayout, FailoverPolicy, ReplicaTopology, SessionId};
use recobench::sim::{SimClock, SimDuration, SimTime};
use recobench::tpcc::{DriverConfig, TpccScale, TpccSchema};

type Jsonl = Arc<Mutex<String>>;

/// Simulated seconds every run goes on after its fork instant.
const TAIL_SECS: u64 = 15;

/// Writes every event of every node `rig` has or later creates to `jsonl`.
fn record(rig: &mut Rig, jsonl: &Jsonl) {
    let jsonl = Arc::clone(jsonl);
    rig.observe(Box::new(move |server, name| {
        let (jsonl, name) = (Arc::clone(&jsonl), name.to_string());
        server.events_mut().subscribe(move |at, event| {
            let mut out = jsonl.lock().unwrap();
            event.write_json(at, &name, &mut out);
            out.push('\n');
        });
    }));
}

fn assembled(seed: u64, terminals: usize, standby: bool, secs: u64) -> (Rig, TpccSchema, Jsonl) {
    let config = RecoveryConfig::named("F1G3T1").expect("known configuration");
    let (primary, schema) = set_up(
        "PRIMARY",
        SimClock::shared(),
        DiskLayout::four_disk(),
        config.to_instance_config(true),
        TpccScale::tiny(),
        seed,
        |_| {},
    )
    .expect("set-up");
    let topology = if standby { ReplicaTopology::single() } else { ReplicaTopology::none() };
    // `oltp_contended`'s pacing.
    let driver = DriverConfig {
        terminals,
        mean_think: SimDuration::from_micros(200),
        mean_keying: SimDuration::from_micros(50),
        retry_interval: SimDuration::from_millis(100),
    };
    let mut rig = Rig::assemble(
        primary,
        schema,
        &topology,
        FailoverPolicy::Manual,
        driver,
        seed,
        SimDuration::from_secs(secs),
    )
    .expect("assemble");
    let jsonl = Jsonl::default();
    record(&mut rig, &jsonl);
    (rig, schema, jsonl)
}

/// A fault policy that crashes the primary once, `at`: with a stand-by the
/// service fails over to it, without one the instance restarts. Either way
/// what follows depends on everything a fork has to carry — redo position,
/// cache, lock table, shipped archives, the stand-by's apply state.
fn crash_once(at: SimTime) -> impl FnMut(&mut Rig) -> DbResult<bool> {
    let mut done = false;
    move |rig| {
        if done || at > rig.driver.next_ready() {
            return Ok(false);
        }
        done = true;
        rig.clock.advance_to(at);
        rig.ship()?;
        rig.primary.shutdown_abort()?;
        rig.driver.record_outage(rig.clock.now());
        if rig.replicas.is_some() {
            rig.failover().expect("a healthy stand-by takes over");
        } else {
            rig.primary.startup()?;
        }
        Ok(true)
    }
}

/// Drives `rig` to its end under [`crash_once`] and renders everything
/// observable about the finished run.
fn finish(mut rig: Rig, schema: &TpccSchema, jsonl: &Jsonl, crash_at: SimTime) -> (String, String) {
    rig.run(crash_once(crash_at)).expect("run");
    let disks: Vec<_> = {
        let fs = rig.primary.fs().lock();
        fs.disk_ids().into_iter().map(|d| fs.disk_stats(d).expect("disk exists")).collect()
    };
    let (driver, active) = (&rig.driver, rig.active());
    let outcome = format!(
        "{:?}",
        (
            rig.clock.now(),
            rig.primary.stats(),
            active.stats(),
            active.current_scn(),
            rig.failovers(),
            disks,
            rig.trail(),
            (driver.counts(), driver.attempted(), driver.deadlock_aborts(), driver.error_times()),
            driver.committed_orders(),
            active.peek_scan(schema.district).expect("district"),
            active.peek_scan(schema.new_order).expect("new_order").len(),
        )
    );
    let events = std::mem::take(&mut *jsonl.lock().unwrap());
    (outcome, events)
}

/// The property at one point: a run forked `fork_secs` in, the fork and
/// its source both driven on, each against the uninterrupted run. Returns
/// how many sessions had a transaction open at the fork instant.
fn fork_and_source_end_like_an_unforked_run(
    seed: u64,
    fork_secs: u64,
    terminals: usize,
    standby: bool,
) -> usize {
    let secs = fork_secs + TAIL_SECS;

    // The reference: one rig, never interrupted, never forked. Every
    // run crashes at the same instant, shortly after the fork.
    let (rig, schema, jsonl) = assembled(seed, terminals, standby, secs);
    let at = rig.t0 + SimDuration::from_secs(fork_secs + 5);
    let unforked = finish(rig, &schema, &jsonl, at);
    prop_assert!(unforked.1.contains("instance_stopped"), "the crash is on the stream");

    // The same run stopped at the fork instant and forked there.
    let (mut source, schema, source_jsonl) = assembled(seed, terminals, standby, secs);
    let until = source.t0 + SimDuration::from_secs(fork_secs);
    source.run_until(until, |_| Ok(false)).expect("prefix");
    // Session ids count up from 1 and a terminal reconnects only after an
    // error, of which the prefix has none.
    let open = (1..=terminals as u64)
        .filter(|s| source.primary.session_txn_id(SessionId(*s)).is_some())
        .count();
    let mut fork = source.fork();
    let fork_jsonl: Jsonl = Arc::new(Mutex::new(source_jsonl.lock().unwrap().clone()));
    record(&mut fork, &fork_jsonl);

    // The fork goes first, so anything it leaked into the source would
    // show in the source's own ending.
    let forked = finish(fork, &schema, &fork_jsonl, at);
    let resumed = finish(source, &schema, &source_jsonl, at);
    prop_assert_eq!(&forked.0, &unforked.0, "fork, outcome");
    prop_assert!(forked.1 == unforked.1, "fork, event stream");
    prop_assert_eq!(&resumed.0, &unforked.0, "source, outcome");
    prop_assert!(resumed.1 == unforked.1, "source, event stream");
    open
}

proptest! {
    #![proptest_config(ProptestConfig { cases: 8, ..ProptestConfig::default() })]

    #[test]
    fn a_forked_rig_and_its_source_both_end_like_an_unforked_run(
        seed in 1..1_000u64,
        fork_secs in 1..=120u64,
        eight_terminals in any::<bool>(),
        standby in any::<bool>(),
    ) {
        let terminals = if eight_terminals { 8 } else { 1 };
        fork_and_source_end_like_an_unforked_run(seed, fork_secs, terminals, standby);
    }
}

/// Transaction states are pooled: a finished one is handed to the next
/// `begin`. This fork lands while transactions are open, so the fork and
/// its source each carry the open states *and* the pool on, and each must
/// go on handing out states of its own.
#[test]
fn a_fork_between_begin_and_commit_carries_the_open_transactions() {
    let open = fork_and_source_end_like_an_unforked_run(77, 20, 8, false);
    assert!(open > 0, "the fork instant was chosen to land inside transactions");
}
