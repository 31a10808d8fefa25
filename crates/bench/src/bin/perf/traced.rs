//! The traced pass: every operation driven by hand through the same public
//! calls the product API makes, with a span around each call into a layer
//! and a counter window around each operation. A traced cell must
//! reproduce the `Experiment`-API cell's commits, simulated recovery time
//! and `records_applied` exactly, or the trace is rejected.

use std::sync::{Arc, Mutex};
use std::time::Instant;

use recobench_core::apply_margin_cutoff;
use recobench_engine::{DbResult, DbServer, EngineEvent, RecoveryPhase};
use recobench_faults::{FaultInjector, FaultOutcome, FaultPlan, FaultType, InjectionRecord};
use recobench_oracle::{diff_states, RefModel};
use recobench_sim::{SimClock, SimDuration, SimRng, SimTime};
use recobench_tpcc::{check_consistency, TpccDriver};

use crate::stats::{cpu_seconds, ms_between, now};
use crate::trace::{disk_stats, Tracer, Window, STEP_LOOP};
use crate::workloads::{
    cells_pass, fresh_database, replay_op, torture_op, verify_recovered, CellSpec, Facts, OpResult,
    Pass, Plan,
};

/// Host instants at which the engine reported the end of a recovery phase.
type PhaseLog = Arc<Mutex<Vec<(RecoveryPhase, Instant)>>>;

/// Subscribes a host-clock observer for `PhaseSpan` events on `srv`.
pub fn watch_phases(srv: &mut DbServer) -> PhaseLog {
    let log: PhaseLog = Arc::default();
    let sink = Arc::clone(&log);
    srv.events_mut().subscribe(move |_, event| {
        if let EngineEvent::PhaseSpan { phase, .. } = event {
            let at = now();
            sink.lock().expect("phase log poisoned").push((*phase, at));
        }
    });
    log
}

/// The span that wraps a fault's recovery procedure, named after the
/// engine entry point the procedure spends its time in.
fn procedure_span(fault: FaultType) -> &'static str {
    match fault {
        FaultType::ShutdownAbort => "engine.recovery.startup",
        FaultType::DeleteDatafile | FaultType::SetDatafileOffline => {
            "engine.recovery.recover_datafile"
        }
        FaultType::DeleteTablespace | FaultType::DeleteUsersObject => {
            "engine.recovery.recover_until"
        }
        FaultType::SetTablespaceOffline => "engine.server.online_tablespace",
    }
}

/// `FaultInjector::recover` inside its procedure span. The engine emits a
/// `PhaseSpan` as each phase ends, so the host time between two
/// consecutive ones (or from the start of the call to the first) is that
/// phase's; each becomes a child span.
pub fn recover(
    t: &mut Tracer,
    phases: &PhaseLog,
    injector: &FaultInjector,
    srv: &mut DbServer,
    record: &InjectionRecord,
) -> DbResult<FaultOutcome> {
    phases.lock().expect("phase log poisoned").clear();
    let span = t.begin(procedure_span(record.fault));
    let mut from = now();
    let outcome = injector.recover(srv, record);
    for (phase, at) in phases.lock().expect("phase log poisoned").drain(..) {
        t.closed(&format!("engine.recovery.phase.{}", phase.name()), from, at);
        from = at;
    }
    t.end(span);
    outcome
}

/// One experiment cell, by hand: template build, boot, the step loop with
/// its fault and recovery, then the checks `Experiment` finishes with.
/// With `oracle` (fault-free cells only), the differential model taps the
/// run and is diffed at the end, as the torture runner does.
pub fn cell(spec: &CellSpec, t: &mut Tracer, oracle: bool) -> Facts {
    let root = t.begin("core.experiment.cell");
    let facts = cell_by_hand(spec, t, oracle)
        .unwrap_or_else(|e| Facts::failure(format!("set-up error: {e}")));
    t.end(root);
    facts
}

fn cell_by_hand(spec: &CellSpec, t: &mut Tracer, oracle: bool) -> DbResult<Facts> {
    let build = t.begin("core.experiment.template_build");
    let (setup, schema, _) =
        fresh_database("PRIMARY", &spec.config, spec.scale, spec.seed, &mut Some(t))?;
    let snapshot = t.span("engine.snapshot.capture", || setup.snapshot());
    t.end(build);
    drop(setup);

    let clock = SimClock::shared();
    let mut primary = t.span("engine.snapshot.boot", || {
        DbServer::from_snapshot(Arc::clone(&clock), &snapshot)
    });
    let phases = watch_phases(&mut primary);
    let model = if oracle {
        let model = Arc::new(Mutex::new(t.span("oracle.model.from_server", || {
            RefModel::from_server(&primary)
        })?));
        let tap = Arc::clone(&model);
        primary.set_dml_tap(move |change| tap.lock().expect("model poisoned").observe(change));
        Some(model)
    } else {
        None
    };
    // The fork sequence of `Experiment::run_with_template_in`: stream 1
    // loaded the database, stream 2 drives the terminals.
    let mut rng = SimRng::seed_from(spec.seed);
    let _load_rng = rng.fork(1);
    let t0 = clock.now();
    let end = t0 + SimDuration::from_secs(spec.duration_secs);
    let mut driver = TpccDriver::new(schema, spec.driver, rng.fork(2), t0);
    let (stats0, disks0) = (primary.stats(), disk_stats(&primary));

    let injector = spec
        .fault
        .map(|(fault, at)| FaultInjector::new(FaultPlan::new(fault, at)));
    let mut fault_time: Option<SimTime> = None;
    let mut ready: Option<SimTime> = None;
    let mut records_applied = 0;
    let mut unrecoverable = false;
    let mut scn_trail = Vec::new();

    let run = t.begin(STEP_LOOP);
    while clock.now() < end {
        if let Some(inj) = injector.as_ref().filter(|_| fault_time.is_none()) {
            let at = inj.trigger_time(t0);
            if at <= driver.next_ready() && at <= end {
                clock.advance_to(at);
                let mut record = t.span("faults.injector.inject", || inj.inject(&mut primary))?;
                fault_time = Some(record.injected_at);
                driver.record_outage(record.injected_at);
                apply_margin_cutoff(&mut record, &scn_trail, inj.plan().pitr_margin);
                match recover(t, &phases, inj, &mut primary, &record) {
                    Ok(out) => {
                        ready = Some(out.recovery_finished_at);
                        records_applied = out.records_applied;
                    }
                    Err(_) => unrecoverable = true,
                }
                continue;
            }
        }
        if driver.next_ready() >= end {
            clock.advance_to(end);
            break;
        }
        let from = now();
        let step = driver.step(&mut primary);
        t.step(step.kind, from, now());
        if fault_time.is_none()
            && scn_trail
                .last()
                .is_none_or(|(_, scn)| *scn != primary.current_scn())
        {
            scn_trail.push((clock.now(), primary.current_scn()));
        }
    }
    t.end(run);

    t.span("tpcc.driver.quiesce", || driver.quiesce(&mut primary));
    let restored = ready.and_then(|ready| driver.first_success_after(ready));
    let recovery_s = fault_time
        .zip(restored)
        .map(|(ft, back)| back.saturating_since(ft).as_secs_f64());
    let warm_up = SimDuration::from_secs(60).min(SimDuration::from_secs(spec.duration_secs) / 10);
    let tpmc = driver.tpmc(t0 + warm_up, fault_time.unwrap_or(end).min(end));
    let (mut lost, mut violations) = (0, 0);
    if primary.is_open() {
        lost = t
            .span("tpcc.driver.audit", || driver.audit_lost_orders(&primary))
            .unwrap_or(0);
        violations = t
            .span("tpcc.consistency.check", || {
                check_consistency(&primary, &schema)
            })
            .map_or(u64::MAX, |r| r.violation_count());
    }
    let window = Window::between(
        &primary,
        &stats0,
        &disks0,
        end.saturating_since(t0).as_micros(),
    );
    let commits = window.engine.commits;
    t.windows.push(window);

    let mut failed = if unrecoverable {
        Some("unrecoverable on an archive-mode configuration".to_string())
    } else if violations > 0 {
        Some(format!("{violations} integrity violations"))
    } else {
        None
    };
    if let Some(model) = model.filter(|_| primary.is_open()) {
        let report = t.span("engine.verify.integrity", || primary.verify_integrity())?;
        t.blocks_checksummed += report.blocks_checksummed;
        let model = model.lock().expect("model poisoned");
        let divergences = t.span("oracle.diff.diff_states", || diff_states(&primary, &model))?;
        if !divergences.is_empty() {
            failed.get_or_insert(format!("{} oracle divergences", divergences.len()));
        }
    }
    Ok(Facts {
        failed,
        commits,
        tpmc: Some(tpmc),
        recoveries: recovery_s.into_iter().collect(),
        lost,
        records_applied,
        repr: String::new(),
    })
}

/// Whether a traced operation reproduced the untraced one on the three
/// facts the issue names.
fn same_outcome(api: &Facts, traced: &Facts) -> Result<(), String> {
    let key = |f: &Facts| {
        (
            f.commits,
            f.recoveries.clone(),
            f.records_applied,
            f.failed.is_some(),
        )
    };
    if key(api) == key(traced) {
        Ok(())
    } else {
        Err(format!(
            "traced operation diverged from the untraced one: (commits, recovery s, records applied, failed) \
             {:?} vs {:?}",
            key(api),
            key(traced)
        ))
    }
}

/// The fault-free cell `torture_oracle` traces by hand to reach the oracle
/// layers `TortureRunner::run` keeps to itself: the runner's own database
/// (its default options), 300 simulated seconds, tapped and diffed. Only
/// that workload traces it: nowhere else do these layers do any work, and
/// the final integrity walk costs more than the cell it follows.
fn oracle_cell(seed: u64, smoke: bool) -> CellSpec {
    let opts = recobench_oracle::TortureOptions::default();
    CellSpec {
        config: opts.config,
        scale: opts.scale,
        duration_secs: if smoke { 20 } else { 300 },
        fault: None,
        driver: opts.driver,
        seed,
    }
}

/// Operation `i` of `plan`, by hand and with spans.
fn traced_op(plan: &Plan, i: usize, t: &mut Tracer) -> OpResult {
    t.set_cell(i as u32);
    match plan {
        Plan::Cells(cells) => {
            let from = now();
            let facts = cell(&cells[i], t, false);
            OpResult {
                host_ms: ms_between(from, now()),
                cpu_s: 0.0,
                recover_host_s: 0.0,
                facts,
            }
        }
        Plan::Replay { images, ops, .. } => {
            let (mut result, srv) = replay_op(&images[ops[i].image], ops[i].fault, Some(t));
            if let Some(srv) = srv.filter(|_| i == 0) {
                let blocks = t.span("engine.verify.integrity", || {
                    verify_recovered(&srv, &mut result)
                });
                t.blocks_checksummed += blocks;
            }
            result
        }
        Plan::Torture(schedules) => t.span("oracle.torture.run", || torture_op(&schedules[i])),
    }
}

/// The traced pass over `plan`. `api` is the untraced pass over the same
/// plan, which every traced operation is checked against.
pub fn traced_pass(
    plan: &Plan,
    api: &Pass,
    seed: u64,
    smoke: bool,
    t: &mut Tracer,
) -> Result<Pass, String> {
    let (cpu0, start) = (cpu_seconds(), now());
    let ops: Vec<OpResult> = (0..plan.len()).map(|i| traced_op(plan, i, t)).collect();
    let pass = Pass {
        ops,
        wall_s: ms_between(start, now()) / 1e3,
        cpu_s: cpu_seconds() - cpu0,
        workers: 1,
    };
    for (a, b) in api.ops.iter().zip(&pass.ops) {
        same_outcome(&a.facts, &b.facts)?;
    }
    if let Plan::Torture(_) = plan {
        let spec = oracle_cell(seed, smoke);
        t.set_cell(plan.len() as u32);
        let by_hand = cell(&spec, t, true);
        let api = cells_pass(std::slice::from_ref(&spec), 1);
        same_outcome(&api.ops[0].facts, &by_hand)?;
        if let Some(why) = by_hand.failed {
            return Err(format!("oracle cell failed: {why}"));
        }
    }
    Ok(pass)
}
