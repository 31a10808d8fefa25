//! Shape tests: the qualitative findings of the paper's evaluation must
//! hold in the reproduction (who wins, what grows with what). These use
//! shortened runs; the `recobench` reports regenerate the full
//! tables.

use recobench::core::{Experiment, ExperimentOutcome, RecoveryConfig};
use recobench::engine::ReplicaTopology;
use recobench::faults::FaultType;
use recobench::tpcc::TpccScale;

fn run(config: &str, fault: Option<(FaultType, u64)>, duration: u64, archive: bool) -> ExperimentOutcome {
    let mut b = Experiment::builder(RecoveryConfig::named(config).unwrap())
        .duration_secs(duration)
        .scale(TpccScale::tiny())
        .archive_logs(archive)
        .seed(77);
    if let Some((f, t)) = fault {
        b = b.fault(f, t);
    }
    b.run().expect("valid setup")
}

#[test]
fn fig4_shape_crash_recovery_shrinks_with_checkpoint_frequency() {
    // Rare checkpoints (400 MB files, 20-minute timeout) vs constant
    // checkpoints (1 MB files).
    let slow = run("F400G3T20", Some((FaultType::ShutdownAbort, 120)), 360, false);
    let fast = run("F1G3T1", Some((FaultType::ShutdownAbort, 120)), 360, false);
    let rt_slow = slow.measures.recovery_time_secs.unwrap();
    let rt_fast = fast.measures.recovery_time_secs.unwrap();
    assert!(
        rt_fast < rt_slow,
        "frequent checkpoints must shorten crash recovery: {rt_fast} vs {rt_slow}"
    );
}

#[test]
fn fig4_shape_short_timeout_buys_recovery_even_with_big_files() {
    // The paper: F400G3T1 recovers fast despite huge log files, because
    // the 60 s checkpoint timeout keeps the incremental position fresh.
    let lazy = run("F400G3T20", Some((FaultType::ShutdownAbort, 200)), 440, false);
    let eager = run("F400G3T1", Some((FaultType::ShutdownAbort, 200)), 440, false);
    let rt_lazy = lazy.measures.recovery_time_secs.unwrap();
    let rt_eager = eager.measures.recovery_time_secs.unwrap();
    assert!(
        rt_eager < rt_lazy,
        "checkpoint timeout must bound recovery: eager {rt_eager} vs lazy {rt_lazy}"
    );
}

#[test]
fn fig4_shape_only_high_checkpoint_rates_hurt_throughput() {
    // Needs the standard scale: with a tiny working set the checkpoint
    // bursts are too small to dent throughput.
    let at_scale = |config: &str| {
        Experiment::builder(RecoveryConfig::named(config).unwrap())
            .duration_secs(360)
            .archive_logs(false)
            .seed(77)
            .run()
            .expect("valid setup")
    };
    let base = at_scale("F100G3T20");
    let busy = at_scale("F1G3T1");
    assert!(
        busy.measures.tpmc < base.measures.tpmc,
        "constant checkpointing must cost throughput"
    );
    let drop = (base.measures.tpmc - busy.measures.tpmc) / base.measures.tpmc;
    assert!(
        drop < 0.40,
        "but the cost stays moderate (paper: no severe impact), got {:.0}%",
        drop * 100.0
    );
}

#[test]
fn table5_shape_media_recovery_grows_with_injection_time() {
    let early = run("F10G3T1", Some((FaultType::DeleteDatafile, 60)), 420, true);
    let late = run("F10G3T1", Some((FaultType::DeleteDatafile, 240)), 600, true);
    let rt_early = early.measures.recovery_time_secs.unwrap();
    let rt_late = late.measures.recovery_time_secs.unwrap();
    assert!(
        rt_late > rt_early,
        "more redo since backup means longer media recovery: {rt_late} vs {rt_early}"
    );
}

#[test]
fn table4_shape_small_archive_files_slow_incomplete_recovery() {
    let big = run("F40G3T1", Some((FaultType::DeleteUsersObject, 240)), 900, true);
    let small = run("F1G3T1", Some((FaultType::DeleteUsersObject, 240)), 900, true);
    let rt_big = big.measures.recovery_time_secs.unwrap_or(f64::INFINITY);
    let rt_small = small.measures.recovery_time_secs.unwrap_or(f64::INFINITY);
    assert!(
        rt_small > rt_big,
        "per-archive-file overhead must dominate with 1 MB files: {rt_small} vs {rt_big}"
    );
}

#[test]
fn fig5_shape_archiving_costs_only_moderate_throughput() {
    let off = run("F10G3T5", None, 360, false);
    let on = run("F10G3T5", None, 360, true);
    let drop = (off.measures.tpmc - on.measures.tpmc) / off.measures.tpmc;
    assert!(
        drop < 0.15,
        "archiving must be affordable (paper: always activate it), got {:.1}%",
        drop * 100.0
    );
}

#[test]
fn fig7_shape_standby_loss_grows_with_redo_file_size() {
    let small = Experiment::builder(RecoveryConfig::new(1, 3, 60))
        .duration_secs(420)
        .scale(TpccScale::tiny())
        .topology(ReplicaTopology::single())
        .fault(FaultType::ShutdownAbort, 240)
        .seed(5)
        .run()
        .unwrap();
    let big = Experiment::builder(RecoveryConfig::new(10, 3, 60))
        .duration_secs(420)
        .scale(TpccScale::tiny())
        .topology(ReplicaTopology::single())
        .fault(FaultType::ShutdownAbort, 240)
        .seed(5)
        .run()
        .unwrap();
    assert!(
        big.measures.lost_transactions > small.measures.lost_transactions,
        "bigger unarchived groups must lose more: {} vs {}",
        big.measures.lost_transactions,
        small.measures.lost_transactions
    );
}

#[test]
fn fig6_shape_standby_beats_media_recovery_at_late_injection() {
    let media = run("F1G3T1", Some((FaultType::DeleteDatafile, 240)), 600, true);
    let standby = Experiment::builder(RecoveryConfig::named("F1G3T1").unwrap())
        .duration_secs(600)
        .scale(TpccScale::tiny())
        .topology(ReplicaTopology::single())
        .fault(FaultType::DeleteDatafile, 240)
        .seed(77)
        .run()
        .unwrap();
    let rt_media = media.measures.recovery_time_secs.unwrap();
    let rt_standby = standby.measures.recovery_time_secs.unwrap();
    assert!(
        rt_standby < rt_media,
        "fail-over must beat restore+replay: {rt_standby} vs {rt_media}"
    );
}
