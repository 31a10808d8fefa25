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
use recobench_core::{apply_margin_cutoff, RecoveryConfig};
use recobench_engine::{DbResult, DiskLayout, FailoverPolicy, ReplicaTopology};
use recobench_faults::{
    FaultInjector, FaultPlan, FaultSchedule, RecoveryKind, ReplicaFaultType, ScheduledFault,
    TortureFaultKind, DETECTION,
};
use recobench_sim::{SimClock, SimDuration, SimTime};
use recobench_tpcc::{AvailabilityTimeline, DriverConfig, TpccScale};

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
    /// sim time, one per recovered fault. The driver can record no
    /// success strictly inside any window — the consistency property the
    /// timeline tests pin down.
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
        let mut oracle = Oracle {
            model: Arc::new(Mutex::new(RefModel::from_server(&rig.primary)?)),
            spans_us: Vec::new(),
            lost_commits: 0,
        };
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
        for f in faults.iter().skip(next_fault) {
            reports.push(FaultReport {
                scheduled: *f,
                injected_at: None,
                ready_at: None,
                overtaken: false,
                unrecoverable: false,
                skipped: Some(if unrecoverable {
                    "database unrecoverable".to_string()
                } else {
                    "scheduled after end of run".to_string()
                }),
            });
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
            faults: reports,
            divergences,
            timeline,
            recovery_spans_us: oracle.spans_us,
            attempted: rig.driver.attempted(),
            commits,
            unrecoverable,
            failovers: rig.failovers(),
            lost_commits: oracle.lost_commits,
        })
    }
}

/// The oracle's side of one run: the reference model the DML tap feeds,
/// and what the faults cost so far.
struct Oracle {
    model: Arc<Mutex<RefModel>>,
    spans_us: Vec<(u64, u64)>,
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

    /// Injects one fault and drives its recovery (both synchronous).
    fn one_fault(&mut self, rig: &mut Rig, f: ScheduledFault, overtaken: bool) -> FaultReport {
        let mut report = FaultReport {
            scheduled: f,
            injected_at: None,
            ready_at: None,
            overtaken,
            unrecoverable: false,
            skipped: None,
        };
        // Once the primary has been failed away from, the legacy fault
        // kinds would hit the retired machine — skip them rather than
        // pretend the dead node's backups and datafiles still matter.
        if rig.failed_over() && !matches!(f.kind, TortureFaultKind::Replica(_)) {
            report.skipped = Some("primary failed over; fault targets the retired node".to_string());
            return report;
        }
        match f.kind {
            TortureFaultKind::Replica(r) => self.one_replica_fault(rig, r, &mut report),
            TortureFaultKind::InstanceKill => {
                let srv = &mut rig.primary;
                if !srv.is_open() {
                    report.skipped = Some("instance already down".to_string());
                    return report;
                }
                let at = srv.clock().now();
                if let Err(e) = srv.shutdown_abort() {
                    report.skipped = Some(format!("kill failed: {e}"));
                    return report;
                }
                report.injected_at = Some(at);
                rig.driver.record_outage(at);
                // The operator notices the dead instance after the same
                // constant detection delay the injector models.
                srv.clock().advance(DETECTION);
                match srv.startup() {
                    Ok(()) => {
                        let ready = srv.clock().now();
                        self.spans_us.push((at.as_micros(), ready.as_micros()));
                        report.ready_at = Some(ready);
                    }
                    Err(_) => report.unrecoverable = true,
                }
            }
            TortureFaultKind::Storage(s) => {
                if !rig.primary.is_open() {
                    report.skipped = Some("instance already down".to_string());
                    return report;
                }
                self.one_storage_fault(rig, s, f, &mut report);
            }
            TortureFaultKind::Operator(fault) => {
                let injector = FaultInjector::new(FaultPlan::new(fault, f.at_secs));
                let mut record = match injector.inject(&mut rig.primary) {
                    Ok(r) => r,
                    Err(e) => {
                        report.skipped = Some(format!("injection failed: {e}"));
                        return report;
                    }
                };
                report.injected_at = Some(record.injected_at);
                rig.driver.record_outage(record.injected_at);
                apply_margin_cutoff(&mut record, rig.trail(), injector.plan().pitr_margin);
                let srv = &mut rig.primary;
                // The margin (or a sparse trail) can point before the
                // current backup; the engine cannot rewind past what it
                // restores from, so neither may the stop SCN.
                if let Some(backup) = srv.backup() {
                    if record.scn_before < backup.scn {
                        record.scn_before = backup.scn;
                    }
                }
                let incomplete = fault.recovery_kind() == RecoveryKind::Incomplete;
                match injector.recover(srv, &record) {
                    Ok(_out) => {
                        if incomplete {
                            self.model.lock().unwrap().truncate_to(record.scn_before.next());
                            // RESETLOGS invalidated the backup chain; take
                            // a fresh cold backup before resuming service.
                            if srv.take_cold_backup().is_err() {
                                report.unrecoverable = true;
                                return report;
                            }
                        }
                        let ready = srv.clock().now();
                        self.spans_us.push((record.injected_at.as_micros(), ready.as_micros()));
                        report.ready_at = Some(ready);
                    }
                    Err(_) => {
                        // Recovery failed. Try a plain restart so the run
                        // can report *unavailability* rather than wedge —
                        // but the state is no longer specified, so the
                        // differential check is off from here.
                        if !srv.is_open() {
                            // tidy-allow(error-swallow): best-effort restart after failed recovery; the report already says unrecoverable
                            let _ = srv.startup();
                        }
                        report.unrecoverable = true;
                    }
                }
            }
        }
        report
    }

    /// Injects one replica-set fault. Node kills trigger a failover (the
    /// quorum decides under the configured policy); shipping faults arm
    /// damage on a stand-by and let the run continue — the primary never
    /// notices, only the replica set's health changes.
    fn one_replica_fault(&mut self, rig: &mut Rig, r: ReplicaFaultType, report: &mut FaultReport) {
        let now = rig.clock.now();
        let Some(rs) = rig.replicas.as_mut() else {
            report.skipped = Some("no replica set provisioned".to_string());
            return;
        };
        match r {
            ReplicaFaultType::KillPrimary => {
                if rs.promoted().is_some() {
                    report.skipped = Some("primary already failed over".to_string());
                    return;
                }
                if !rig.primary.is_open() {
                    report.skipped = Some("instance already down".to_string());
                    return;
                }
                if let Err(e) = rig.primary.shutdown_abort() {
                    report.skipped = Some(format!("kill failed: {e}"));
                    return;
                }
                report.injected_at = Some(now);
                rig.driver.record_outage(now);
                let ready = rig.failover();
                self.reconcile(rig, now, ready, report);
            }
            ReplicaFaultType::KillPromoted => {
                if rs.promoted().is_none() {
                    report.skipped =
                        Some("no promoted node to kill (needs a prior kill_primary)".to_string());
                    return;
                }
                match rig.double_fault() {
                    Ok((at, ready)) => {
                        report.injected_at = Some(at);
                        self.reconcile(rig, at, ready, report);
                    }
                    Err(e) => report.skipped = Some(format!("kill failed: {e}")),
                }
            }
            ReplicaFaultType::CorruptShippedArchive => match rs.first_followable() {
                Some(i) => {
                    rs.arm_ship_corruption(i);
                    // No outage: the primary keeps serving; only the
                    // targeted stand-by freezes when the bad copy lands.
                    report.injected_at = Some(now);
                    report.ready_at = Some(now);
                }
                None => report.skipped = Some("no followable replica to corrupt".to_string()),
            },
            ReplicaFaultType::PartitionReplica => match rs.first_followable() {
                Some(i) => {
                    rs.partition(i);
                    report.injected_at = Some(now);
                    report.ready_at = Some(now);
                }
                None => report.skipped = Some("no followable replica to partition".to_string()),
            },
        }
    }

    /// Reconciles the reference model with the node a failover promoted:
    /// in-doubt transactions are settled against its state first, then the
    /// model is truncated to the promoted node's last applied commit —
    /// everything past it is the acked-but-unshipped tail the failover
    /// sacrificed, and it is *specified* as lost.
    fn reconcile(
        &mut self,
        rig: &mut Rig,
        at: SimTime,
        ready: Option<SimTime>,
        report: &mut FaultReport,
    ) {
        let promoted = rig.replicas.as_ref().and_then(|rs| {
            Some((rs.active()?, rs.promoted_last_commit_scn()?))
        });
        // `ready` is `None` when the quorum was denied or no survivor
        // could be promoted: the service stays down.
        let (Some(ready), Some((promoted, stop))) = (ready, promoted) else {
            report.unrecoverable = true;
            return;
        };
        {
            let mut m = self.model.lock().unwrap();
            // Transactions open at the kill never acked; probe the
            // promoted node to settle them (at `stop`, so a resolved
            // commit survives the truncation below).
            for txn in m.open_txn_ids() {
                if m.resolve_in_doubt(promoted, txn, stop).is_err() {
                    report.unrecoverable = true;
                    return;
                }
            }
            let before = m.surviving_commits();
            m.truncate_to(stop.next());
            self.lost_commits += before.saturating_sub(m.surviving_commits());
        }
        self.tap(rig);
        self.spans_us.push((at.as_micros(), ready.as_micros()));
        report.ready_at = Some(ready);
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
    fn one_storage_fault(
        &mut self,
        rig: &mut Rig,
        s: recobench_faults::StorageFaultType,
        f: ScheduledFault,
        report: &mut FaultReport,
    ) {
        use recobench_faults::StorageFaultType;
        use recobench_vfs::{FaultArm, FileKind, FileMatch};
        let (srv, driver) = (&mut rig.primary, &mut rig.driver);
        match s {
            StorageFaultType::TornWrite | StorageFaultType::BitRot => {
                let at = srv.clock().now();
                let armed = {
                    let mut fs = srv.fs().lock();
                    if s == StorageFaultType::TornWrite {
                        fs.arm_fault(FaultArm::TornWrite {
                            target: FileMatch::Kind(FileKind::Data),
                            keep_num: 1,
                            keep_den: 2,
                        })
                    } else {
                        fs.arm_fault(FaultArm::BitRot {
                            target: FileMatch::Kind(FileKind::Data),
                            seed: f.at_secs ^ 0xB17_0B07,
                        })
                    }
                };
                if let Err(e) = armed {
                    report.skipped = Some(format!("injection failed: {e}"));
                    return;
                }
                if s == StorageFaultType::TornWrite {
                    // The tear waits for a datafile write; force one with
                    // a checkpoint, then disarm whether or not it fired.
                    // tidy-allow(error-swallow): the checkpoint exists to trigger the armed tear; failure IS the scenario
                    let _ = srv.checkpoint_now();
                    let fired = !srv.fs().lock().fault_pending();
                    srv.fs().lock().clear_faults();
                    if !fired {
                        report.skipped = Some("no datafile write to tear".to_string());
                        return;
                    }
                }
                // Detection: the damage is silent — only the block
                // checksums know. The probe names the files to repair.
                let bad = match srv.datafiles_with_bad_checksums() {
                    Ok(b) => b,
                    Err(_) => {
                        report.unrecoverable = true;
                        return;
                    }
                };
                if bad.is_empty() {
                    report.skipped = Some("damage landed harmlessly".to_string());
                    return;
                }
                report.injected_at = Some(at);
                driver.record_outage(at);
                srv.clock().advance(DETECTION);
                for path in &bad {
                    if srv.recover_datafile(path).is_err() {
                        report.unrecoverable = true;
                        return;
                    }
                }
                let ready = srv.clock().now();
                self.spans_us.push((at.as_micros(), ready.as_micros()));
                report.ready_at = Some(ready);
            }
            StorageFaultType::PartialAppend => {
                let armed = srv.fs().lock().arm_fault(FaultArm::PartialAppend {
                    target: FileMatch::Kind(FileKind::Redo),
                    keep_num: 1,
                    keep_den: 2,
                });
                if let Err(e) = armed {
                    report.skipped = Some(format!("injection failed: {e}"));
                    return;
                }
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
                if !fired {
                    srv.fs().lock().clear_faults();
                    report.skipped = Some("no redo flush to interrupt".to_string());
                    return;
                }
                let at = srv.clock().now();
                report.injected_at = Some(at);
                driver.record_outage(at);
                srv.fs().lock().clear_faults();
                srv.clock().advance(DETECTION);
                if srv.startup().is_err() {
                    report.unrecoverable = true;
                    return;
                }
                // The torn flush may or may not have made the in-flight
                // commit durable before it died; the client only heard an
                // error. Ask the recovered engine which way it went and
                // settle every dead transaction the same way it did.
                {
                    let scn = srv.current_scn();
                    let mut m = self.model.lock().unwrap();
                    for txn in m.open_txn_ids() {
                        if m.resolve_in_doubt(srv, txn, scn).is_err() {
                            report.unrecoverable = true;
                            return;
                        }
                    }
                }
                let ready = srv.clock().now();
                self.spans_us.push((at.as_micros(), ready.as_micros()));
                report.ready_at = Some(ready);
            }
            StorageFaultType::DiskFull => {
                let at = srv.clock().now();
                let armed = srv.fs().lock().arm_fault(FaultArm::DiskFull {
                    disk: DiskLayout::four_disk().data_disks[0],
                    after_bytes: 0,
                });
                if let Err(e) = armed {
                    report.skipped = Some(format!("injection failed: {e}"));
                    return;
                }
                report.injected_at = Some(at);
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
                match srv.checkpoint_now() {
                    Ok(()) => {
                        let ready = srv.clock().now();
                        self.spans_us.push((at.as_micros(), ready.as_micros()));
                        report.ready_at = Some(ready);
                    }
                    Err(_) => report.unrecoverable = true,
                }
            }
            StorageFaultType::SlowIo => {
                let armed = srv.fs().lock().arm_fault(FaultArm::SlowIo {
                    disk: DiskLayout::four_disk().redo_disk,
                    multiplier: 8,
                });
                if let Err(e) = armed {
                    report.skipped = Some(format!("injection failed: {e}"));
                    return;
                }
                report.injected_at = Some(srv.clock().now());
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
                report.ready_at = Some(srv.clock().now());
            }
        }
    }
}
