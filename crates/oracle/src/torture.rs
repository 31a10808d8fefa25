//! The torture runner: one engine, one reference model, many faults.
//!
//! Where [`Experiment`](recobench_core::Experiment) reproduces the
//! paper's procedure (one fault per run at a fixed instant), the torture
//! runner executes an arbitrary [`FaultSchedule`]: any number of faults,
//! any times, the six operator fault types plus raw instance kills. The
//! engine runs the TPC-C workload with the DML tap feeding a [`RefModel`];
//! after every recovery completes — and at the end of the run — the model
//! knows exactly which committed state the engine is obliged to present,
//! and [`diff_states`] checks it.
//!
//! ## Fault-during-recovery
//!
//! Recovery is synchronous in the simulation: it advances the shared
//! clock in one call. A fault whose trigger time falls inside a recovery
//! window is therefore injected the moment that recovery finishes —
//! before the driver gets a single transaction in — which is the
//! simulator's rendition of "the operator makes the next mistake while
//! the database is still recovering from the previous one". The
//! [`FaultReport::overtaken`] flag records exactly this case.
//!
//! ## Incomplete recovery and the model
//!
//! For faults whose procedure is `RECOVER UNTIL` + `RESETLOGS` (drop
//! table / drop tablespace), the runner truncates the model to the same
//! stop SCN the injector hands the engine — margin cutoff included — so
//! "the tail is sacrificed" is *specified*, not just tolerated. After a
//! resetlogs the old cold backup can no longer serve a second incomplete
//! recovery (the log sequence chain restarted), so the runner takes a
//! fresh cold backup before service resumes, exactly as Oracle's manuals
//! instruct after any `OPEN RESETLOGS`.

use std::sync::{Arc, Mutex};

use recobench_core::rig::{set_up, Rig};
use recobench_core::RecoveryConfig;
use recobench_engine::{DbResult, DbServer, DiskLayout, FailoverPolicy, ReplicaTopology, Scn};
use recobench_faults::{
    FaultInjector, FaultPlan, FaultSchedule, FaultType, RecoveryKind, ReplicaFaultType,
    ScheduledFault, StorageFaultType, TortureFaultKind, DETECTION,
};
use recobench_sim::{SimClock, SimDuration, SimTime};
use recobench_tpcc::{AvailabilityTimeline, DriverConfig, TpccScale};
use recobench_vfs::{FaultArm, FileKind, FileMatch};

use crate::diff::{diff_states, Divergence};
use crate::model::RefModel;

/// Everything about a torture run except the schedule itself.
#[derive(Debug, Clone)]
pub struct TortureOptions {
    /// Recovery configuration under test.
    pub config: RecoveryConfig,
    /// TPC-C scale.
    pub scale: TpccScale,
    /// Terminal driver configuration.
    pub driver: DriverConfig,
    /// Replica topology behind the primary. Empty (the default) means no
    /// stand-bys — unless the schedule contains replica faults, in which
    /// case the runner auto-provisions a two-node fan-out so the faults
    /// have something to hit.
    pub topology: ReplicaTopology,
    /// Failover policy for the replica set.
    pub policy: FailoverPolicy,
    /// Test-only engine sabotage: silently skip this many applicable
    /// row-change records during redo replay (see
    /// `DbServer::sabotage_skip_redo_records`). The oracle must catch the
    /// resulting divergence — this is how the harness proves it works.
    /// Compiled in only with the `sabotage` feature (or under test).
    #[cfg(any(test, feature = "sabotage"))]
    pub sabotage_skip_redo: u32,
}

impl Default for TortureOptions {
    fn default() -> Self {
        TortureOptions {
            config: RecoveryConfig::named("F10G3T5").expect("known configuration"),
            scale: TpccScale::tiny(),
            driver: DriverConfig::default(),
            topology: ReplicaTopology::none(),
            policy: FailoverPolicy::AutoQuorum,
            #[cfg(any(test, feature = "sabotage"))]
            sabotage_skip_redo: 0,
        }
    }
}

/// What happened to one scheduled fault.
#[derive(Debug, Clone, PartialEq)]
pub struct FaultReport {
    /// The schedule entry.
    pub scheduled: ScheduledFault,
    /// When the fault actually executed (`None` if skipped).
    pub injected_at: Option<SimTime>,
    /// When the database was serviceable again (`None` if skipped or
    /// unrecoverable).
    pub ready_at: Option<SimTime>,
    /// The trigger time fell inside the previous fault's recovery window
    /// — the fault-during-recovery case.
    pub overtaken: bool,
    /// The recovery procedure itself failed; the run reports
    /// unavailability from here on.
    pub unrecoverable: bool,
    /// Why the fault was not injected, when it was not.
    pub skipped: Option<String>,
}

/// Everything one torture run produced.
#[derive(Debug, Clone, PartialEq)]
pub struct TortureOutcome {
    /// The schedule that ran.
    pub schedule: FaultSchedule,
    /// Per-fault reports, in injection order.
    pub faults: Vec<FaultReport>,
    /// Every disagreement between engine and model at the end of the run
    /// (empty on a healthy engine).
    pub divergences: Vec<Divergence>,
    /// The end-user availability timeline over the whole run.
    pub timeline: AvailabilityTimeline,
    /// Recovery windows `(outage start, service-capable end)` in µs of
    /// sim time, read off [`faults`](Self::faults): one per fault that
    /// took the service away and got it back, in report order. The driver
    /// can record no success strictly inside any window — the consistency
    /// property the timeline tests pin down.
    pub recovery_spans_us: Vec<(u64, u64)>,
    /// Client transaction attempts over the run.
    pub attempted: u64,
    /// Commit acknowledgements the model observed.
    pub commits: u64,
    /// At least one recovery procedure failed; the differential check is
    /// skipped (unavailability is the reported outcome, not corruption).
    pub unrecoverable: bool,
    /// Failovers performed by the replica set (0 without stand-bys).
    pub failovers: u64,
    /// Acknowledged commits sacrificed by failovers: the primary acked
    /// them but no shipped archive carried them to the promoted node
    /// before the kill (replication lag made the recovery incomplete).
    pub lost_commits: u64,
}

impl TortureOutcome {
    /// Whether the run found any disagreement between engine and model.
    pub fn diverged(&self) -> bool {
        !self.divergences.is_empty()
    }
}

/// Runs [`FaultSchedule`]s against a fresh engine + model pair.
#[derive(Debug, Clone, Default)]
pub struct TortureRunner {
    opts: TortureOptions,
}

impl TortureRunner {
    /// A runner with the given options.
    pub fn new(opts: TortureOptions) -> TortureRunner {
        TortureRunner { opts }
    }

    /// Runs one schedule to completion. Deterministic: the same schedule
    /// and options produce the same outcome, field for field.
    ///
    /// # Errors
    ///
    /// Fails only on setup problems (schema creation, load, backup);
    /// faults, failed recoveries and divergences are results.
    pub fn run(&self, schedule: &FaultSchedule) -> DbResult<TortureOutcome> {
        // ARCHIVELOG mode: most schedules need media recovery.
        let (srv, schema) = set_up(
            "TORTURE",
            SimClock::shared(),
            DiskLayout::four_disk(),
            self.opts.config.to_instance_config(true),
            self.opts.scale,
            schedule.seed,
            |_| {},
        )?;
        // Stand-bys behind the primary: the configured topology, or an
        // auto-provisioned two-node fan-out when the schedule targets a
        // replica set nobody configured.
        let topo = if self.opts.topology.is_empty() && schedule.has_replica_faults() {
            ReplicaTopology::fan_out(2)
        } else {
            self.opts.topology.clone()
        };
        let mut rig = Rig::assemble(
            srv,
            schema,
            &topo,
            self.opts.policy,
            self.opts.driver,
            schedule.seed,
            SimDuration::from_secs(schedule.duration_secs),
        )?;
        #[cfg(any(test, feature = "sabotage"))]
        if self.opts.sabotage_skip_redo > 0 {
            rig.primary.sabotage_skip_redo_records(self.opts.sabotage_skip_redo);
        }
        let model = Arc::new(Mutex::new(RefModel::from_server(&rig.primary)?));
        let mut oracle = Oracle { model, lost_commits: 0 };
        oracle.tap(&mut rig);

        let faults = schedule.sorted_faults();
        let mut next_fault = 0usize;
        let mut reports: Vec<FaultReport> = Vec::new();
        let mut unrecoverable = false;
        let mut last_ready: Option<SimTime> = None;

        rig.run(|rig| {
            if unrecoverable {
                return Ok(false);
            }
            let Some(&f) = faults.get(next_fault) else { return Ok(false) };
            let sched_t = rig.t0 + SimDuration::from_secs(f.at_secs);
            // A fault whose time has already passed (recovery overtook it)
            // fires immediately; otherwise it fires once it is the next
            // event on the timeline.
            let due_now = sched_t <= rig.clock.now();
            if sched_t > rig.end || !(due_now || sched_t <= rig.driver.next_ready()) {
                return Ok(false);
            }
            rig.clock.advance_to(sched_t);
            let overtaken = last_ready.is_some_and(|ready| sched_t < ready);
            let report = oracle.one_fault(rig, f, overtaken);
            unrecoverable |= report.unrecoverable;
            last_ready = report.ready_at.or(last_ready);
            reports.push(report);
            next_fault += 1;
            Ok(true)
        })?;

        // Faults the run never reached (scheduled past the end, or after
        // the database became unrecoverable).
        let why =
            if unrecoverable { "database unrecoverable" } else { "scheduled after end of run" };
        for f in faults.iter().skip(next_fault) {
            reports.push(FaultReport::new(*f, false, Err(why.to_string())));
        }

        // The differential oracle compares committed state; `Rig::run`
        // drained the terminals, so nothing in flight lingers into the diff.
        let timeline = rig.driver.availability_timeline(rig.t0, rig.end);
        let active = rig.active();
        let divergences = if unrecoverable || !active.is_open() {
            Vec::new()
        } else {
            diff_states(active, &oracle.model.lock().unwrap())?
        };
        let commits = oracle.model.lock().unwrap().acked_commits();
        Ok(TortureOutcome {
            schedule: schedule.clone(),
            recovery_spans_us: recovery_spans_us(&reports),
            faults: reports,
            divergences,
            timeline,
            attempted: rig.driver.attempted(),
            commits,
            unrecoverable,
            failovers: rig.failovers(),
            lost_commits: oracle.lost_commits,
        })
    }
}

/// Whether a fault of `kind` takes the service away. A limping disk only
/// slows it, and a corrupted shipment or a partitioned stand-by leaves the
/// primary serving.
fn takes_service_away(kind: TortureFaultKind) -> bool {
    !matches!(
        kind,
        TortureFaultKind::Storage(StorageFaultType::SlowIo)
            | TortureFaultKind::Replica(
                ReplicaFaultType::CorruptShippedArchive | ReplicaFaultType::PartitionReplica
            )
    )
}

/// The recovery windows of a run, read off its reports in order: the
/// injection and service-back instants, in µs, of every fault that took
/// the service away and got it back.
fn recovery_spans_us(reports: &[FaultReport]) -> Vec<(u64, u64)> {
    reports
        .iter()
        .filter(|r| takes_service_away(r.scheduled.kind))
        .filter_map(|r| Some((r.injected_at?.as_micros(), r.ready_at?.as_micros())))
        .collect()
}

/// What one fault came to: `Err` says why it was skipped; `Ok` holds the
/// instant it was injected and the instant service was back, and no
/// return instant means the recovery failed.
type Answer = Result<(Option<SimTime>, Option<SimTime>), String>;

impl FaultReport {
    /// The report of `scheduled` from its answer.
    fn new(scheduled: ScheduledFault, overtaken: bool, answer: Answer) -> FaultReport {
        let (injected_at, ready_at, skipped) = match answer {
            Ok((injected_at, ready_at)) => (injected_at, ready_at, None),
            Err(why) => (None, None, Some(why)),
        };
        let unrecoverable = skipped.is_none() && ready_at.is_none();
        FaultReport { scheduled, injected_at, ready_at, overtaken, unrecoverable, skipped }
    }
}

/// Kills the primary's instance; the terminals see the outage from the
/// returned instant.
fn kill_primary(rig: &mut Rig) -> Result<SimTime, String> {
    if !rig.primary.is_open() {
        return Err(INSTANCE_DOWN.to_string());
    }
    let at = rig.clock.now();
    rig.primary.shutdown_abort().map_err(|e| format!("kill failed: {e}"))?;
    rig.driver.record_outage(at);
    Ok(at)
}

/// Why a fault that needs a live primary instance was skipped.
const INSTANCE_DOWN: &str = "instance already down";

/// The oracle's side of one run: the reference model the DML tap feeds,
/// and the commits failovers sacrificed so far.
struct Oracle {
    model: Arc<Mutex<RefModel>>,
    lost_commits: u64,
}

impl Oracle {
    /// Points the DML tap at the node now serving: the tap follows the
    /// service, so after a failover the promoted node feeds the model, not
    /// the dead machine.
    fn tap(&self, rig: &mut Rig) {
        let model = Arc::clone(&self.model);
        rig.active_mut().set_dml_tap(move |change| model.lock().unwrap().observe(change));
    }

    /// Settles every transaction the model still holds open — none of
    /// them acked — the way `node` did by `scn`; `false` if a probe failed.
    fn settle_in_doubt(&self, node: &DbServer, scn: Scn) -> bool {
        let mut m = self.model.lock().unwrap();
        m.open_txn_ids().into_iter().all(|txn| m.resolve_in_doubt(node, txn, scn).is_ok())
    }

    /// Injects one fault, drives its recovery (both synchronous) and
    /// reports what it came to.
    fn one_fault(&mut self, rig: &mut Rig, f: ScheduledFault, overtaken: bool) -> FaultReport {
        let answer = match f.kind {
            TortureFaultKind::Replica(r) => self.one_replica_fault(rig, r),
            // Once the primary has been failed away from, the other kinds
            // would hit the retired machine — skip them rather than
            // pretend the dead node's backups and datafiles still matter.
            _ if rig.failed_over() => {
                Err("primary failed over; fault targets the retired node".to_string())
            }
            TortureFaultKind::InstanceKill => kill_primary(rig).map(|at| {
                // The operator notices the dead instance after the same
                // constant detection delay the injector models.
                rig.clock.advance(DETECTION);
                (Some(at), rig.primary.startup().is_ok().then(|| rig.clock.now()))
            }),
            TortureFaultKind::Storage(_) if !rig.primary.is_open() => {
                Err(INSTANCE_DOWN.to_string())
            }
            TortureFaultKind::Storage(s) => self.one_storage_fault(rig, s, f.at_secs),
            TortureFaultKind::Operator(fault) => self.one_operator_fault(rig, fault, f.at_secs),
        };
        FaultReport::new(f, overtaken, answer)
    }

    /// Injects one operator fault and runs its recovery procedure.
    fn one_operator_fault(&mut self, rig: &mut Rig, fault: FaultType, at_secs: u64) -> Answer {
        let injector = FaultInjector::new(FaultPlan::new(fault, at_secs));
        let mut record = rig.inject(&injector).map_err(|e| format!("injection failed: {e}"))?;
        let at = Some(record.injected_at);
        let srv = &mut rig.primary;
        // The margin (or a sparse trail) can point before the current
        // backup; the engine cannot rewind past what it restores from, so
        // neither may the stop SCN.
        if let Some(backup) = srv.backup() {
            record.scn_before = record.scn_before.max(backup.scn);
        }
        if injector.recover(srv, &record).is_err() {
            // Recovery failed. Try a plain restart so the run can report
            // *unavailability* rather than wedge — but the state is no
            // longer specified, so the differential check is off from here.
            if !srv.is_open() {
                // tidy-allow(error-swallow): best-effort restart after failed recovery; the report already says unrecoverable
                let _ = srv.startup();
            }
            return Ok((at, None));
        }
        if fault.recovery_kind() == RecoveryKind::Incomplete {
            self.model.lock().unwrap().truncate_to(record.scn_before.next());
            // RESETLOGS invalidated the backup chain; take a fresh cold
            // backup before resuming service.
            if srv.take_cold_backup().is_err() {
                return Ok((at, None));
            }
        }
        Ok((at, Some(srv.clock().now())))
    }

    /// Injects one replica-set fault. Node kills trigger a failover (the
    /// quorum decides under the configured policy); shipping faults arm
    /// damage on a stand-by and let the run continue — the primary never
    /// notices, only the replica set's health changes.
    fn one_replica_fault(&mut self, rig: &mut Rig, r: ReplicaFaultType) -> Answer {
        let now = rig.clock.now();
        let rs = rig.replicas.as_mut().ok_or("no replica set provisioned")?;
        match r {
            ReplicaFaultType::KillPrimary => {
                if rs.promoted().is_some() {
                    return Err("primary already failed over".to_string());
                }
                let at = kill_primary(rig)?;
                let ready = rig.failover();
                Ok((Some(at), self.reconcile(rig, ready)))
            }
            ReplicaFaultType::KillPromoted => {
                if rs.promoted().is_none() {
                    return Err("no promoted node to kill (needs a prior kill_primary)".to_string());
                }
                let (at, ready) = rig.double_fault().map_err(|e| format!("kill failed: {e}"))?;
                Ok((Some(at), self.reconcile(rig, ready)))
            }
            ReplicaFaultType::CorruptShippedArchive => {
                let i = rs.first_followable().ok_or("no followable replica to corrupt")?;
                rs.arm_ship_corruption(i);
                // No outage: the primary keeps serving; only the targeted
                // stand-by freezes when the bad copy lands.
                Ok((Some(now), Some(now)))
            }
            ReplicaFaultType::PartitionReplica => {
                let i = rs.first_followable().ok_or("no followable replica to partition")?;
                rs.partition(i);
                Ok((Some(now), Some(now)))
            }
        }
    }

    /// Reconciles the reference model with the node a failover promoted:
    /// in-doubt transactions are settled against its state first, then the
    /// model is truncated to the promoted node's last applied commit —
    /// everything past it is the acked-but-unshipped tail the failover
    /// sacrificed, and it is *specified* as lost. Returns `ready` once the
    /// model agrees; `None` when the service stays down (`ready` is `None`
    /// when the quorum was denied or no survivor could be promoted).
    fn reconcile(&mut self, rig: &mut Rig, ready: Option<SimTime>) -> Option<SimTime> {
        let rs = rig.replicas.as_ref()?;
        let (ready, promoted, stop) = (ready?, rs.active()?, rs.promoted_last_commit_scn()?);
        // Transactions open at the kill never acked; probe the promoted
        // node to settle them (at `stop`, so a resolved commit survives
        // the truncation below).
        if !self.settle_in_doubt(promoted, stop) {
            return None;
        }
        let mut m = self.model.lock().unwrap();
        let before = m.surviving_commits();
        m.truncate_to(stop.next());
        self.lost_commits += before.saturating_sub(m.surviving_commits());
        drop(m);
        self.tap(rig);
        Some(ready)
    }

    /// Injects one storage fault and drives its recovery. The five kinds
    /// have three distinct shapes:
    ///
    /// * **torn write / bit-rot** — silent datafile damage: the engine
    ///   notices nothing until the per-block checksum probe runs, then
    ///   media-recovers each damaged file;
    /// * **partial append / disk full** — loud failures: a redo flush
    ///   dies mid-write and takes the instance with it (crash recovery
    ///   tolerates the torn tail), or a checkpoint hits `ENOSPC` and
    ///   retries after the operator frees space;
    /// * **slow I/O** — pure degradation: service continues, commits
    ///   drag, nothing to recover — so no outage and no recovery span.
    fn one_storage_fault(&mut self, rig: &mut Rig, s: StorageFaultType, at_secs: u64) -> Answer {
        let (srv, driver) = (&mut rig.primary, &mut rig.driver);
        let arm = match s {
            StorageFaultType::TornWrite => FaultArm::TornWrite {
                target: FileMatch::Kind(FileKind::Data),
                keep_num: 1,
                keep_den: 2,
            },
            StorageFaultType::BitRot => FaultArm::BitRot {
                target: FileMatch::Kind(FileKind::Data),
                seed: at_secs ^ 0xB17_0B07,
            },
            StorageFaultType::PartialAppend => FaultArm::PartialAppend {
                target: FileMatch::Kind(FileKind::Redo),
                keep_num: 1,
                keep_den: 2,
            },
            StorageFaultType::DiskFull => {
                FaultArm::DiskFull { disk: DiskLayout::four_disk().data_disks[0], after_bytes: 0 }
            }
            StorageFaultType::SlowIo => {
                FaultArm::SlowIo { disk: DiskLayout::four_disk().redo_disk, multiplier: 8 }
            }
        };
        let at = srv.clock().now();
        srv.fs().lock().arm_fault(arm).map_err(|e| format!("injection failed: {e}"))?;
        match s {
            StorageFaultType::TornWrite | StorageFaultType::BitRot => {
                if s == StorageFaultType::TornWrite {
                    // The tear waits for a datafile write; force one with
                    // a checkpoint, then disarm whether or not it fired.
                    // tidy-allow(error-swallow): the checkpoint exists to trigger the armed tear; failure IS the scenario
                    let _ = srv.checkpoint_now();
                    let fired = !srv.fs().lock().fault_pending();
                    srv.fs().lock().clear_faults();
                    if !fired {
                        return Err("no datafile write to tear".to_string());
                    }
                }
                // Detection: the damage is silent — only the block
                // checksums know. The probe names the files to repair; when
                // the probe itself fails, there is no injection instant.
                let Ok(bad) = srv.datafiles_with_bad_checksums() else { return Ok((None, None)) };
                if bad.is_empty() {
                    return Err("damage landed harmlessly".to_string());
                }
                driver.record_outage(at);
                srv.clock().advance(DETECTION);
                let repaired = bad.iter().all(|path| srv.recover_datafile(path).is_ok());
                Ok((Some(at), repaired.then(|| srv.clock().now())))
            }
            StorageFaultType::PartialAppend => {
                // The next redo flush dies mid-write and the instance dies
                // with it (LGWR semantics). Step the workload until that
                // happens; commits flush, so it is at most a step or two.
                let mut fired = false;
                for _ in 0..400 {
                    if !srv.is_open() {
                        fired = true;
                        break;
                    }
                    driver.step(srv);
                }
                srv.fs().lock().clear_faults();
                if !fired {
                    return Err("no redo flush to interrupt".to_string());
                }
                let at = srv.clock().now();
                driver.record_outage(at);
                srv.clock().advance(DETECTION);
                // The torn flush may or may not have made the in-flight
                // commit durable before it died; the client only heard an
                // error. Ask the recovered engine which way it went and
                // settle every dead transaction the same way it did.
                let recovered =
                    srv.startup().is_ok() && self.settle_in_doubt(srv, srv.current_scn());
                Ok((Some(at), recovered.then(|| srv.clock().now())))
            }
            StorageFaultType::DiskFull => {
                driver.record_outage(at);
                // The next checkpoint hits ENOSPC: the affected blocks
                // stay dirty, the recovery position holds, and the
                // operator gets the alarm.
                // tidy-allow(error-swallow): the ENOSPC failure is the injected fault under test
                let _ = srv.checkpoint_now();
                srv.clock().advance(DETECTION);
                // Operator frees space; the retried checkpoint drains the
                // write-out backlog.
                srv.fs().lock().clear_faults();
                Ok((Some(at), srv.checkpoint_now().is_ok().then(|| srv.clock().now())))
            }
            StorageFaultType::SlowIo => {
                // A limping disk degrades service but never interrupts
                // it: commits keep succeeding (slowly), so there is no
                // outage and no recovery span — only a slower stretch on
                // the availability timeline.
                for _ in 0..64 {
                    if !srv.is_open() {
                        break;
                    }
                    driver.step(srv);
                }
                srv.fs().lock().clear_faults();
                Ok((Some(at), Some(srv.clock().now())))
            }
        }
    }
}
