//! Stand-by database fail-over (paper §5.3), driven by hand.
//!
//! Instead of the packaged [`Experiment`](recobench::core::Experiment)
//! runner, this example wires the pieces together directly — primary
//! server, a one-node replica set, TPC-C driver, fault — to show the
//! library's lower-level API, then demonstrates the two headline stand-by
//! results: near-constant recovery time, and committed transactions lost
//! from the never-archived current redo group.
//!
//! ```text
//! cargo run --release --example standby_failover
//! ```

use std::sync::Arc;

use recobench::core::rig::set_up;
use recobench::engine::{DiskLayout, FailoverPolicy, InstanceConfig, ReplicaSet, ReplicaTopology};
use recobench::sim::{SimClock, SimRng, SimTime};
use recobench::tpcc::{DriverConfig, TpccDriver, TpccScale};

fn main() {
    let clock = SimClock::shared();
    let config = InstanceConfig::builder()
        .redo_file_mb(10)
        .redo_groups(3)
        .checkpoint_timeout_secs(60)
        .archive_mode(true)
        .build();

    // Primary: create, load TPC-C, back up.
    let (mut primary, schema) = set_up(
        "PRIMARY",
        Arc::clone(&clock),
        DiskLayout::four_disk(),
        config.clone(),
        TpccScale::mini(),
        99,
        |_| {},
    )
    .expect("setup on fresh disks");

    // Stand-by: instantiated from that backup, kept in managed recovery;
    // an operator activates it by hand.
    let mut standby = ReplicaSet::instantiate(
        &primary,
        &ReplicaTopology::single(),
        FailoverPolicy::Manual,
        Arc::clone(&clock),
        DiskLayout::four_disk(),
        config,
    )
    .expect("standby from backup");

    // Drive the workload; ship archives continuously.
    let t0 = clock.now();
    let mut driver =
        TpccDriver::new(schema, DriverConfig::default(), SimRng::seed_from(99).fork(2), t0);
    let crash_at = t0 + recobench::sim::SimDuration::from_secs(300);
    while clock.now() < crash_at {
        driver.step(&mut primary);
        standby.sync_all(&primary).expect("shipping");
    }
    let committed_before_crash = driver.committed_orders().len();
    println!("t={:7}: primary crashes with {committed_before_crash} acknowledged orders", clock.now());

    // The primary dies; the stand-by takes over.
    let fault_time = clock.now();
    primary.shutdown_abort().expect("crash");
    // The failover ships what the dead primary had archived one last time.
    let ready = standby
        .fail_over(Some(&mut primary))
        .expect("failover")
        .expect("a manual operator needs no quorum");
    // The terminals' sessions died with the primary; they reconnect.
    driver.sever_all(ready);
    let promoted = standby.active_mut().expect("a node was promoted");
    println!(
        "t={:7}: stand-by activated after {:.1}s",
        clock.now(),
        ready.saturating_since(fault_time).as_secs_f64(),
    );

    // Clients reconnect to the stand-by and keep working.
    let until = clock.now() + recobench::sim::SimDuration::from_secs(60);
    while clock.now() < until {
        driver.step(promoted);
    }
    let restored: SimTime = driver.first_success_after(ready).expect("service restored");
    let lost = driver.audit_lost_orders(promoted).expect("auditable");
    println!(
        "t={:7}: service restored (end-user recovery time {:.1}s)",
        restored,
        restored.saturating_since(fault_time).as_secs_f64()
    );
    println!(
        "Lost committed orders: {lost} — these sat in the primary's current online\n\
         redo group, which was never archived. Shrinking the redo files shrinks the\n\
         loss window (the paper's Figure 7)."
    );
}
