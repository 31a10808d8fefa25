//! What the redo log charges and what it stores, over one fixed tiny TPC-C
//! run: the charged volume moves every simulated measure (log switches,
//! checkpoints, archives, disk time), the stored bytes move only the host's
//! memory. Each is pinned exactly, so a change to either shows here first.

use recobench::core::rig::{set_up, Rig};
use recobench::core::RecoveryConfig;
use recobench::engine::{DiskLayout, FailoverPolicy, ReplicaTopology};
use recobench::sim::{SimClock, SimDuration};
use recobench::tpcc::{DriverConfig, TpccScale};
use recobench::vfs::FileKind;

/// Thirty simulated seconds of fault-free TPC-C on the tiny scale, seed
/// 42, archive mode on: the charged redo bytes the engine counted and the
/// bytes its online and archived logs hold.
fn charged_and_stored() -> (u64, u64) {
    let config = RecoveryConfig::named("F1G3T1").expect("known configuration");
    let (primary, schema) = set_up(
        "PRIMARY",
        SimClock::shared(),
        DiskLayout::four_disk(),
        config.to_instance_config(true),
        TpccScale::tiny(),
        42,
        |_| {},
    )
    .expect("set-up");
    let mut rig = Rig::assemble(
        primary,
        schema,
        &ReplicaTopology::none(),
        FailoverPolicy::Manual,
        DriverConfig::default(),
        42,
        SimDuration::from_secs(30),
    )
    .expect("assemble");
    rig.run(|_| Ok(false)).expect("run");
    let fs = rig.primary.fs().lock();
    let stored = [FileKind::Redo, FileKind::Archive]
        .into_iter()
        .flat_map(|kind| fs.list(kind))
        .flat_map(|meta| fs.peek_all(meta.id).expect("a live log"))
        .map(|segment| segment.len() as u64)
        .sum();
    (rig.primary.stats().redo_bytes, stored)
}

/// The charged volume is what it was while every update stored both row
/// images (12 137 775 bytes). The logs then stored 2 997 747 bytes; with an
/// update that keeps its column count stored as the columns it changed
/// they store 1 603 235, 53.5 % of that.
#[test]
fn a_tiny_run_charges_and_stores_its_pinned_redo() {
    let (charged, stored) = charged_and_stored();
    assert_eq!(charged, 12_137_775, "charged redo bytes");
    assert_eq!(stored, 1_603_235, "stored redo bytes");
}
