//! End-to-end torture-harness tests: the differential oracle against the
//! real engine under multi-fault schedules.
//!
//! The two sides of the coin, both covered here:
//!
//! * on the **healthy** engine, schedules across all fault types —
//!   including the 10 000-transaction sweep and faults landing during
//!   earlier recoveries — must produce **zero** divergences;
//! * on an **intentionally broken** engine (the test-only redo-skip
//!   sabotage), the oracle must **catch** the corruption and the shrinker
//!   must reduce the schedule to a tiny reproducer, deterministically.

use recobench_core::RecoveryConfig;
use recobench_engine::{FailoverPolicy, ReplicaTopology};
use recobench_faults::{
    FaultSchedule, FaultType, ReplicaFaultType, ScheduledFault, StorageFaultType,
    TortureFaultKind,
};
use recobench_oracle::{shrink_schedule, TortureOptions, TortureOutcome, TortureRunner};
use recobench_sim::SimRng;
use recobench_tpcc::DriverConfig;

fn op(fault: FaultType, at_secs: u64) -> ScheduledFault {
    ScheduledFault { kind: TortureFaultKind::Operator(fault), at_secs }
}

fn replica(r: ReplicaFaultType, at_secs: u64) -> ScheduledFault {
    ScheduledFault { kind: TortureFaultKind::Replica(r), at_secs }
}

fn storage(s: StorageFaultType, at_secs: u64) -> ScheduledFault {
    ScheduledFault { kind: TortureFaultKind::Storage(s), at_secs }
}

fn kill(at_secs: u64) -> ScheduledFault {
    ScheduledFault { kind: TortureFaultKind::InstanceKill, at_secs }
}

fn sched(seed: u64, duration_secs: u64, faults: Vec<ScheduledFault>) -> FaultSchedule {
    FaultSchedule { seed, duration_secs, faults }
}

fn assert_clean(outcome: &TortureOutcome) {
    assert!(
        !outcome.unrecoverable,
        "healthy engine must recover: {:?}",
        outcome.faults
    );
    assert!(
        !outcome.diverged(),
        "healthy engine must match the model: {:?}",
        outcome.divergences
    );
}

#[test]
fn quiet_schedule_matches_model_exactly() {
    let outcome = TortureRunner::default().run(&FaultSchedule::quiet(7, 120)).unwrap();
    assert_clean(&outcome);
    assert!(outcome.faults.is_empty());
    assert!(outcome.recovery_spans_us.is_empty());
    assert!(outcome.attempted > 1_000, "driver must have run: {}", outcome.attempted);
    assert!(outcome.commits > 0);
    assert_eq!(outcome.timeline.first_error_us, None);
}

#[test]
fn fixed_seed_runs_are_deterministic() {
    let schedule = sched(3, 150, vec![kill(40), op(FaultType::DeleteDatafile, 70)]);
    let a = TortureRunner::default().run(&schedule).unwrap();
    let b = TortureRunner::default().run(&schedule).unwrap();
    assert_eq!(a, b, "same schedule, same options ⇒ identical outcome, field for field");
    assert_clean(&a);
    // And the schedule itself survives a JSON round-trip byte-for-byte.
    assert_eq!(FaultSchedule::from_json(&schedule.to_json()).unwrap().to_json(), schedule.to_json());
}

/// The acceptance sweep: a 20-simulated-minute run with one fault of
/// every paper type, ≥ 10 000 client transactions, zero divergences.
#[test]
fn ten_thousand_transactions_across_all_six_fault_types() {
    // The two incomplete-recovery faults (drop object / drop tablespace)
    // each restore the whole backup and replay forward — ~500 simulated
    // seconds — so they get the second half of the run to themselves.
    let schedule = sched(
        42,
        2_400,
        vec![
            op(FaultType::ShutdownAbort, 100),
            op(FaultType::SetDatafileOffline, 200),
            op(FaultType::SetTablespaceOffline, 300),
            op(FaultType::DeleteDatafile, 400),
            op(FaultType::DeleteUsersObject, 900),
            op(FaultType::DeleteTablespace, 1_600),
        ],
    );
    let outcome = TortureRunner::default().run(&schedule).unwrap();
    assert_clean(&outcome);
    assert!(
        outcome.attempted >= 10_000,
        "sweep must attempt ≥ 10k transactions, got {}",
        outcome.attempted
    );
    for f in &outcome.faults {
        assert!(
            f.injected_at.is_some(),
            "every fault type must actually inject: {:?}",
            f
        );
    }
    assert_eq!(outcome.recovery_spans_us.len(), 6, "one recovery window per fault");
}

/// An engine that silently drops one redo record during replay is exactly
/// the bug class the oracle exists for: the engine's own checks stay
/// green, the differential check does not — and the shrinker reduces the
/// schedule to a reproducer of at most 3 faults, deterministically.
#[test]
fn broken_engine_is_caught_and_shrunk() {
    // A large batch of skips, not one: the victim datafile holds hot
    // load-time segments, so a small skipped prefix is all updates that
    // later replayed updates overwrite — corruption that heals before the
    // diff. Skipping most of the file's replay window leaves rows whose
    // final committed state sat in the prefix permanently wrong. The
    // datafile deletion comes first: its media recovery replays every
    // record since the cold backup, so the skips have records to eat.
    let opts = TortureOptions { sabotage_skip_redo: 2_000, ..TortureOptions::default() };
    let runner = TortureRunner::new(opts);
    let schedule = sched(
        13,
        120,
        vec![op(FaultType::DeleteDatafile, 60), kill(95), op(FaultType::ShutdownAbort, 105)],
    );
    let outcome = runner.run(&schedule).unwrap();
    assert!(
        outcome.diverged(),
        "the oracle must catch a skipped redo record; faults: {:?}",
        outcome.faults
    );

    let fails = |s: &FaultSchedule| runner.run(s).map(|o| o.diverged()).unwrap_or(false);
    let minimal = shrink_schedule(&schedule, fails);
    assert!(
        minimal.faults.len() <= 3 && !minimal.faults.is_empty(),
        "minimal reproducer must keep ≤ 3 faults: {}",
        minimal.to_json()
    );
    assert!(minimal.duration_secs <= schedule.duration_secs);
    assert!(fails(&minimal), "the shrunk schedule must still fail");
    // Shrinking is itself deterministic, byte for byte.
    assert_eq!(minimal.to_json(), shrink_schedule(&schedule, fails).to_json());
}

/// The storage faultload: one fault of each of the five hardware kinds,
/// spaced out over a run. All five must inject and recover, the state
/// must match the model — and slow I/O, which degrades service without
/// interrupting it, must contribute *no* recovery window.
#[test]
fn storage_faultload_all_five_kinds_match_model() {
    let schedule = sched(
        29,
        600,
        vec![
            storage(StorageFaultType::SlowIo, 60),
            storage(StorageFaultType::TornWrite, 120),
            storage(StorageFaultType::BitRot, 200),
            storage(StorageFaultType::DiskFull, 300),
            storage(StorageFaultType::PartialAppend, 400),
        ],
    );
    let outcome = TortureRunner::default().run(&schedule).unwrap();
    assert_clean(&outcome);
    for f in &outcome.faults {
        assert!(f.injected_at.is_some(), "every storage fault must inject: {f:?}");
        assert!(f.ready_at.is_some(), "every storage fault must recover: {f:?}");
    }
    assert_eq!(
        outcome.recovery_spans_us.len(),
        4,
        "four outages: slow I/O never takes service down"
    );
    // The extended schedule round-trips through JSON byte-for-byte.
    assert_eq!(FaultSchedule::from_json(&schedule.to_json()).unwrap().to_json(), schedule.to_json());
}

/// Randomly drawn storage schedules replay deterministically and leave
/// the engine matching the model, like the operator pool always has.
#[test]
fn random_storage_schedule_is_deterministic_and_clean() {
    let schedule = FaultSchedule::random_from(
        &mut SimRng::seed_from(91),
        &TortureFaultKind::storage(),
        4,
        500,
        60,
    );
    let a = TortureRunner::default().run(&schedule).unwrap();
    let b = TortureRunner::default().run(&schedule).unwrap();
    assert_eq!(a, b, "same storage schedule ⇒ identical outcome");
    assert_clean(&a);
}

/// A second fault arriving while the database is still recovering from
/// the first (the `overtaken` case) must never panic, never corrupt
/// silently: either both recoveries complete and the state matches the
/// model, or the run reports itself unrecoverable.
fn fault_then_kill_during_recovery(first: TortureFaultKind) {
    let faults = vec![ScheduledFault { kind: first, at_secs: 60 }, kill(61)];
    let outcome = TortureRunner::default().run(&sched(17, 600, faults)).unwrap();
    let first_report = &outcome.faults[0];
    let second = &outcome.faults[1];
    assert!(first_report.injected_at.is_some(), "first fault must inject: {first_report:?}");
    if second.overtaken {
        // The kill fired at the instant the first recovery finished.
        assert_eq!(second.injected_at, first_report.ready_at);
    }
    if !outcome.unrecoverable {
        assert!(
            !outcome.diverged(),
            "after stacked recoveries the state must still match: {:?}",
            outcome.divergences
        );
        for f in &outcome.faults {
            assert!(
                f.ready_at.is_some() || f.skipped.is_some(),
                "every fault either recovers or is accounted for: {f:?}"
            );
        }
    }
}

#[test]
fn kill_during_recovery_from_shutdown_abort() {
    fault_then_kill_during_recovery(TortureFaultKind::Operator(FaultType::ShutdownAbort));
}

#[test]
fn kill_during_recovery_from_delete_datafile() {
    fault_then_kill_during_recovery(TortureFaultKind::Operator(FaultType::DeleteDatafile));
}

#[test]
fn kill_during_recovery_from_delete_tablespace() {
    fault_then_kill_during_recovery(TortureFaultKind::Operator(FaultType::DeleteTablespace));
}

#[test]
fn kill_during_recovery_from_set_datafile_offline() {
    fault_then_kill_during_recovery(TortureFaultKind::Operator(FaultType::SetDatafileOffline));
}

#[test]
fn kill_during_recovery_from_set_tablespace_offline() {
    fault_then_kill_during_recovery(TortureFaultKind::Operator(FaultType::SetTablespaceOffline));
}

#[test]
fn kill_during_recovery_from_delete_users_object() {
    fault_then_kill_during_recovery(TortureFaultKind::Operator(FaultType::DeleteUsersObject));
}

#[test]
fn kill_during_recovery_from_instance_kill() {
    fault_then_kill_during_recovery(TortureFaultKind::InstanceKill);
}

/// The availability timeline and the recovery windows must tell the same
/// story under a multi-fault schedule: no successful transaction lands
/// strictly inside any recovery window, the first service-loss instant is
/// the first outage, and service does not return before the recovery that
/// ends the outage does.
#[test]
fn timeline_agrees_with_recovery_spans() {
    let schedule = sched(
        21,
        400,
        vec![kill(50), op(FaultType::SetDatafileOffline, 150), kill(250)],
    );
    let outcome = TortureRunner::default().run(&schedule).unwrap();
    assert_clean(&outcome);
    assert_eq!(outcome.recovery_spans_us.len(), 3);

    let tl = &outcome.timeline;
    for &(start, end) in &outcome.recovery_spans_us {
        for (i, &successes) in tl.buckets.iter().enumerate() {
            let bucket_start = tl.start_us + i as u64 * tl.bucket_us;
            let bucket_end = bucket_start + tl.bucket_us;
            if bucket_start >= start && bucket_end <= end {
                assert_eq!(
                    successes, 0,
                    "bucket [{bucket_start},{bucket_end}) lies inside recovery \
                     window [{start},{end}) yet saw {successes} successes"
                );
            }
        }
    }
    assert_eq!(
        tl.first_error_us,
        Some(outcome.recovery_spans_us[0].0),
        "service loss is the first outage instant"
    );
    let service_return = tl.service_return_us.expect("service must return");
    assert!(
        service_return >= outcome.recovery_spans_us[0].1,
        "service return ({service_return}) precedes the end of the recovery \
         window that caused the outage ({})",
        outcome.recovery_spans_us[0].1
    );
}

/// When a second fault overtakes the first recovery, the two windows form
/// one outage: the service-return instant must not precede the end of the
/// *last* recovery window.
#[test]
fn merged_outage_returns_after_the_last_recovery_span() {
    let schedule = sched(23, 600, vec![op(FaultType::DeleteUsersObject, 60), kill(61)]);
    let outcome = TortureRunner::default().run(&schedule).unwrap();
    assert_clean(&outcome);
    assert!(outcome.faults[1].overtaken, "the kill must land during the PITR recovery");
    let last_end = outcome.recovery_spans_us.last().expect("spans recorded").1;
    let service_return = outcome.timeline.service_return_us.expect("service must return");
    assert!(
        service_return >= last_end,
        "service return ({service_return}) precedes the last recovery end ({last_end})"
    );
}

/// The replica-set acceptance run: a contended 8-terminal TPC-C load over
/// a two-stand-by fan-out under auto-quorum, the primary killed mid-load
/// and then the newly promoted node killed too (double fault). Both kills
/// must promote, service must resume on the survivor, and the survivor's
/// state must match the model exactly — any acked tail the failovers
/// sacrificed is *specified* as lost, not diverged.
#[test]
fn double_fault_failover_matches_model_under_contention() {
    let opts = TortureOptions {
        config: RecoveryConfig::named("F1G3T1").expect("known configuration"),
        driver: DriverConfig { terminals: 8, ..DriverConfig::default() },
        topology: ReplicaTopology::fan_out(2),
        policy: FailoverPolicy::AutoQuorum,
        ..TortureOptions::default()
    };
    let runner = TortureRunner::new(opts);
    let schedule = sched(
        61,
        300,
        vec![
            replica(ReplicaFaultType::KillPrimary, 80),
            replica(ReplicaFaultType::KillPromoted, 160),
        ],
    );
    let a = runner.run(&schedule).unwrap();
    assert_clean(&a);
    assert_eq!(a.failovers, 2, "both kills must promote a survivor: {:?}", a.faults);
    for f in &a.faults {
        assert!(f.injected_at.is_some(), "both kills must inject: {f:?}");
        assert!(f.ready_at.is_some(), "both failovers must complete: {f:?}");
    }
    assert_eq!(a.recovery_spans_us.len(), 2, "one recovery window per failover");
    assert!(a.commits > 0, "terminals must commit across both failovers");
    assert!(
        a.timeline.service_return_us.is_some(),
        "service must return after the double fault"
    );
    // Byte-identical rerun: replica sets must not cost determinism.
    let b = runner.run(&schedule).unwrap();
    assert_eq!(a, b, "same schedule, same topology ⇒ identical outcome");
}

/// Shipping faults against the replica set never interrupt the primary:
/// a corrupted shipped archive freezes one stand-by and a partition
/// isolates another, but the service keeps running, the state matches,
/// and no failover (and no recovery window) happens.
#[test]
fn replica_shipping_faults_degrade_the_set_without_an_outage() {
    let opts = TortureOptions {
        topology: ReplicaTopology::fan_out(2),
        policy: FailoverPolicy::AutoQuorum,
        ..TortureOptions::default()
    };
    let runner = TortureRunner::new(opts);
    let schedule = sched(
        33,
        180,
        vec![
            replica(ReplicaFaultType::CorruptShippedArchive, 40),
            replica(ReplicaFaultType::PartitionReplica, 90),
        ],
    );
    let outcome = runner.run(&schedule).unwrap();
    assert_clean(&outcome);
    assert_eq!(outcome.failovers, 0, "shipping faults must not trigger failover");
    assert!(outcome.recovery_spans_us.is_empty(), "no outage, no recovery window");
    assert_eq!(outcome.timeline.first_error_us, None, "the primary never hiccups");
    for f in &outcome.faults {
        assert!(f.injected_at.is_some(), "both faults must inject: {f:?}");
    }
}

/// Without a configured topology, a schedule containing replica faults
/// auto-provisions a two-node fan-out — the corpus-replay path.
#[test]
fn replica_faults_auto_provision_a_fan_out() {
    // The operator fault after the kill targets the retired primary.
    let schedule = sched(
        5,
        200,
        vec![replica(ReplicaFaultType::KillPrimary, 60), op(FaultType::DeleteDatafile, 120)],
    );
    let outcome = TortureRunner::default().run(&schedule).unwrap();
    assert_clean(&outcome);
    assert_eq!(outcome.failovers, 1, "the kill must promote: {:?}", outcome.faults);
    assert!(outcome.faults[0].ready_at.is_some());
    // A skipped fault leaves no recovery window.
    let skipped = &outcome.faults[1];
    let why = skipped.skipped.as_deref().unwrap_or_default();
    assert!(why.starts_with("primary failed over"), "{skipped:?}");
    assert_eq!((skipped.injected_at, skipped.ready_at), (None, None));
    assert_eq!(outcome.recovery_spans_us.len(), 1, "{:?}", outcome.recovery_spans_us);
}

/// A cascaded chain behind the primary fails over too: the chain head is
/// the most advanced node and wins promotion, and the chain tail resyncs
/// behind it.
#[test]
fn cascaded_chain_fails_over_and_matches_model() {
    let opts = TortureOptions {
        topology: ReplicaTopology::cascade(2),
        policy: FailoverPolicy::AutoQuorum,
        ..TortureOptions::default()
    };
    let runner = TortureRunner::new(opts);
    let schedule = sched(9, 240, vec![replica(ReplicaFaultType::KillPrimary, 100)]);
    let outcome = runner.run(&schedule).unwrap();
    assert_clean(&outcome);
    assert_eq!(outcome.failovers, 1, "the chain must promote: {:?}", outcome.faults);
}
