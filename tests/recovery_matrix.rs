//! Cross-crate integration: every injected fault type runs through a full
//! experiment (engine + TPC-C + injector + harness) and ends with a
//! consistent, serviceable database.

use recobench::core::{Experiment, RecoveryConfig};
use recobench::engine::ReplicaTopology;
use recobench::faults::{FaultType, RecoveryKind};
use recobench::tpcc::TpccScale;

fn run_fault(fault: FaultType) -> recobench::core::ExperimentOutcome {
    Experiment::builder(RecoveryConfig::named("F10G3T5").unwrap())
        .duration_secs(420)
        .scale(TpccScale::tiny())
        .fault(fault, 90)
        .seed(1234)
        .run()
        .expect("experiment setup is valid")
}

#[test]
fn every_fault_type_recovers_with_zero_integrity_violations() {
    for fault in FaultType::all() {
        let out = run_fault(fault);
        assert!(!out.unrecoverable, "{fault}: recovery procedure must succeed");
        assert!(
            out.measures.recovery_time_secs.is_some(),
            "{fault}: service must return within the run"
        );
        assert_eq!(out.measures.integrity_violations, 0, "{fault}: integrity violated");
    }
}

#[test]
fn complete_faults_lose_nothing_incomplete_faults_lose_the_tail() {
    for fault in FaultType::all() {
        let out = run_fault(fault);
        match fault.recovery_kind() {
            RecoveryKind::Complete => {
                assert_eq!(
                    out.measures.lost_transactions, 0,
                    "{fault}: complete recovery must keep all committed work"
                );
            }
            RecoveryKind::Incomplete => {
                assert!(
                    out.measures.lost_transactions > 0,
                    "{fault}: incomplete recovery sacrifices the pre-fault margin"
                );
            }
        }
    }
}

#[test]
fn offline_faults_are_fastest_crash_is_slower_pitr_is_slowest() {
    let ts_offline = run_fault(FaultType::SetTablespaceOffline);
    let crash = run_fault(FaultType::ShutdownAbort);
    let pitr = run_fault(FaultType::DeleteUsersObject);
    let rt = |o: &recobench::core::ExperimentOutcome| o.measures.recovery_time_secs.unwrap();
    assert!(
        rt(&ts_offline) < rt(&crash),
        "tablespace online ({}) should beat crash recovery ({})",
        rt(&ts_offline),
        rt(&crash)
    );
    assert!(
        rt(&crash) < rt(&pitr),
        "crash recovery ({}) should beat whole-database restore + roll-forward ({})",
        rt(&crash),
        rt(&pitr)
    );
}

#[test]
fn breakdown_phases_sum_to_recovery_time_for_every_fault_type() {
    // The tentpole invariant of the observability subsystem: for every
    // recovered cell, the per-phase durations (built from the engine's
    // span events) reproduce the end-user recovery time within one
    // simulator tick (1 µs).
    for fault in FaultType::all() {
        let out = run_fault(fault);
        let b = out.breakdown.unwrap_or_else(|| panic!("{fault}: recovered runs carry a breakdown"));
        let rt_us = (out.measures.recovery_time_secs.unwrap() * 1e6).round() as u64;
        assert!(
            b.total_us().abs_diff(rt_us) <= 1,
            "{fault}: breakdown {}µs vs recovery time {}µs",
            b.total_us(),
            rt_us
        );
        assert!(b.detection_us > 0, "{fault}: operator detection is never instant");
        assert_eq!(b.standby_activation_us, 0, "{fault}: no stand-by in the matrix");
        match fault.recovery_kind() {
            RecoveryKind::Complete => {}
            RecoveryKind::Incomplete => assert!(
                b.media_restore_us > 0,
                "{fault}: PITR restores the whole database from the backup"
            ),
        }
    }
}

#[test]
fn standby_failover_breakdown_is_dominated_by_activation() {
    let out = Experiment::builder(RecoveryConfig::named("F10G3T5").unwrap())
        .duration_secs(420)
        .scale(TpccScale::tiny())
        .topology(ReplicaTopology::single())
        .fault(FaultType::ShutdownAbort, 90)
        .seed(1234)
        .run()
        .expect("experiment setup is valid");
    let b = out.breakdown.expect("failover recovered");
    let rt_us = (out.measures.recovery_time_secs.unwrap() * 1e6).round() as u64;
    assert!(b.total_us().abs_diff(rt_us) <= 1);
    assert!(b.standby_activation_us > 0, "fail-over time is the activation");
    assert_eq!(b.detection_us, 0, "fail-over needs no operator diagnosis");
    assert_eq!(b.media_restore_us, 0, "nothing is restored from backup");
}

#[test]
fn availability_timeline_brackets_the_outage() {
    let out = run_fault(FaultType::ShutdownAbort);
    let tl = &out.timeline;
    let fault_us = 90 * 1_000_000u64;
    let first_err = tl.first_error_us.expect("the crash surfaces as client errors");
    let back = tl.service_return_us.expect("service returns within the run");
    assert!(first_err >= fault_us, "errors start at the fault, not before");
    assert!(back > first_err);
    assert!(tl.zero_seconds() > 0, "the outage blanks whole seconds");
    // The gap between loss and return matches the reported recovery time
    // to within the one-second bucket resolution.
    let gap_secs = (back - first_err) as f64 / 1e6;
    let rt = out.measures.recovery_time_secs.unwrap();
    assert!(
        (gap_secs - rt).abs() < 5.0,
        "timeline gap {gap_secs:.1}s vs recovery time {rt:.1}s"
    );
}

#[test]
fn throughput_survives_a_fault_experiment() {
    let out = run_fault(FaultType::ShutdownAbort);
    assert!(out.measures.tpmc > 100.0, "pre-fault tpmC is healthy: {}", out.measures.tpmc);
    assert!(out.measures.total_commits > 500);
}
