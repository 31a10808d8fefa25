//! The run harness under both fault-driving runners.
//!
//! [`Experiment`](crate::Experiment) (the paper's one-fault procedure) and
//! the torture runner in `recobench-oracle` (arbitrary schedules checked
//! against a reference model) differ only in *policy*: when the next fault
//! is due and how a fault is answered. Everything else — how a database is
//! set up, how nodes are assembled behind the primary, which node serves,
//! how one client step ships archives, how a failover severs the
//! terminals, how a run ends — is mechanism, and lives here once.

use std::sync::Arc;

use recobench_engine::replica::ReplicaObserver;
use recobench_engine::{
    DbError, DbResult, DbServer, DiskLayout, FailoverPolicy, InstanceConfig, ReplicaSet,
    ReplicaTopology, Scn,
};
use recobench_faults::{FaultInjector, InjectionRecord};
use recobench_sim::{SimClock, SimDuration, SimRng, SimTime};
use recobench_tpcc::{
    create_schema, load_database, DriverConfig, TpccDriver, TpccScale, TpccSchema,
};

/// Datafiles provisioned for the TPC-C tablespace of every run.
const DATAFILES: u32 = 8;
/// Blocks per datafile.
const BLOCKS_PER_FILE: u64 = 768;

/// The set-up phase of every run: create the database on fresh disks,
/// create the TPC-C schema, load it and take the cold backup every
/// recovery procedure (and every stand-by) starts from.
///
/// `name` is baked into redo and backup paths, so it stays the caller's
/// choice. `observe` sees the server before its first event. The load
/// draws from stream 1 of `seed`; [`Rig::assemble`] puts the driver on
/// stream 2 of the same seed.
///
/// # Errors
///
/// Fails on setup problems (storage exhaustion, misconfiguration).
pub fn set_up(
    name: &str,
    clock: Arc<SimClock>,
    layout: DiskLayout,
    icfg: InstanceConfig,
    scale: TpccScale,
    seed: u64,
    observe: impl FnOnce(&mut DbServer),
) -> DbResult<(DbServer, TpccSchema)> {
    let mut server = DbServer::on_fresh_disks(name, clock, layout, icfg);
    observe(&mut server);
    server.create_database()?;
    let schema = create_schema(&mut server, scale, DATAFILES, BLOCKS_PER_FILE)?;
    load_database(&mut server, &schema, &mut SimRng::seed_from(seed).fork(1))?;
    server.take_cold_backup()?;
    Ok((server, schema))
}

/// One assembled run: the nodes, the terminals driving them, and the run
/// window. A fault policy drives it through [`Rig::run`].
#[derive(Debug)]
pub struct Rig {
    /// The clock every node shares.
    pub clock: Arc<SimClock>,
    /// The primary the run starts on.
    pub primary: DbServer,
    /// The replica set behind it, when the topology has one.
    pub replicas: Option<ReplicaSet>,
    /// The TPC-C terminals.
    pub driver: TpccDriver,
    /// Workload start: the instant set-up and stand-by instantiation end.
    pub t0: SimTime,
    /// Workload end.
    pub end: SimTime,
    /// Rolling `(time, SCN)` samples of the serving node, so time-based
    /// incomplete recovery can stop a margin before the fault, as a real
    /// `UNTIL TIME` would.
    trail: Vec<(SimTime, Scn)>,
}

/// After a failover the promoted replica serves clients; before one (and
/// without replicas) the primary does.
fn serving<'a>(
    primary: &'a mut DbServer,
    replicas: Option<&'a mut ReplicaSet>,
) -> &'a mut DbServer {
    match replicas.and_then(ReplicaSet::active_mut) {
        Some(promoted) => promoted,
        None => primary,
    }
}

impl Rig {
    /// Instantiates `topology` behind a set-up `primary` and seats the
    /// terminals; the workload window opens at the instant this returns.
    ///
    /// # Errors
    ///
    /// Fails if a stand-by cannot be instantiated.
    pub fn assemble(
        primary: DbServer,
        schema: TpccSchema,
        topology: &ReplicaTopology,
        policy: FailoverPolicy,
        driver_cfg: DriverConfig,
        seed: u64,
        duration: SimDuration,
    ) -> DbResult<Rig> {
        let clock = Arc::clone(primary.clock());
        let replicas = if topology.is_empty() {
            None
        } else {
            Some(ReplicaSet::instantiate(
                &primary,
                topology,
                policy,
                Arc::clone(&clock),
                DiskLayout::four_disk(),
                primary.config().clone(),
            )?)
        };
        let t0 = clock.now();
        // Stream 1 loaded the database (see `set_up`); the draw is repeated
        // so stream 2 is the same whether the primary was set up just now
        // or booted from a snapshot of that set-up.
        let mut rng = SimRng::seed_from(seed);
        let _load_rng = rng.fork(1);
        let driver = TpccDriver::new(schema, driver_cfg, rng.fork(2), t0);
        Ok(Rig { clock, primary, replicas, driver, t0, end: t0 + duration, trail: Vec::new() })
    }

    /// An independent copy of the run as it stands, on a clock of its own
    /// at the same instant: every node forked (see [`DbServer::fork`]), the
    /// terminals cloned mid-flight. Nothing the copy does reaches this rig
    /// or another copy. Observers are not carried; the copy's driver calls
    /// [`Rig::observe`] with its own.
    pub fn fork(&self) -> Rig {
        let clock = SimClock::shared();
        Rig {
            primary: self.primary.fork(Arc::clone(&clock)),
            replicas: self.replicas.as_ref().map(|rs| rs.fork(Arc::clone(&clock))),
            clock,
            driver: self.driver.clone(),
            t0: self.t0,
            end: self.end,
            trail: self.trail.clone(),
        }
    }

    /// Installs `observer` on the primary now and on every stand-by the
    /// replica set has or later creates (resync).
    pub fn observe(&mut self, mut observer: ReplicaObserver) {
        let name = self.primary.name().to_string();
        observer(&mut self.primary, &name);
        if let Some(rs) = self.replicas.as_mut() {
            rs.set_observer(observer);
        }
    }

    /// The node serving clients right now.
    pub fn active(&self) -> &DbServer {
        self.replicas.as_ref().and_then(ReplicaSet::active).unwrap_or(&self.primary)
    }

    /// The node serving clients right now, mutably.
    pub fn active_mut(&mut self) -> &mut DbServer {
        serving(&mut self.primary, self.replicas.as_mut())
    }

    /// Whether the service has moved off the primary.
    pub fn failed_over(&self) -> bool {
        self.replicas.as_ref().is_some_and(|rs| rs.promoted().is_some())
    }

    /// Failovers the replica set completed so far.
    pub fn failovers(&self) -> u64 {
        self.replicas.as_ref().map_or(0, ReplicaSet::failovers)
    }

    /// The `(time, SCN)` trail sampled so far.
    pub fn trail(&self) -> &[(SimTime, Scn)] {
        &self.trail
    }

    /// Ships and applies archives along the topology: from the promoted
    /// node after a failover, from the primary before — also when its
    /// instance is down, since archives already on its disks still ship.
    ///
    /// # Errors
    ///
    /// Fails on stand-by storage errors.
    pub fn ship(&mut self) -> DbResult<()> {
        match self.replicas.as_mut() {
            Some(rs) if rs.promoted().is_some() => rs.sync_followers(),
            Some(rs) => rs.sync_all(&self.primary),
            None => Ok(()),
        }
    }

    /// One client step against the serving node, a trail sample when its
    /// SCN moved, and a round of archive shipping.
    fn step(&mut self) -> DbResult<()> {
        let active = serving(&mut self.primary, self.replicas.as_mut());
        self.driver.step(active);
        if active.is_open() {
            let scn = active.current_scn();
            if self.trail.last().map(|(_, last)| *last) != Some(scn) {
                self.trail.push((self.clock.now(), scn));
            }
        }
        self.ship()
    }

    /// Fails the service over: away from the primary the first time, away
    /// from the dead promoted node after that. On success the terminals
    /// lose their sessions — ids from the old node's space must not leak
    /// into the new one's — and reconnect from the returned instant.
    /// `None` means the service stays down: quorum denied, no candidate,
    /// or the promotion itself failed.
    pub fn failover(&mut self) -> Option<SimTime> {
        let rs = self.replicas.as_mut()?;
        let old_primary = if rs.promoted().is_none() { Some(&mut self.primary) } else { None };
        let ready = rs.fail_over(old_primary).ok().flatten()?;
        self.driver.sever_all(ready);
        Some(ready)
    }

    /// Injects an operator fault on the primary. The terminals see the
    /// outage from its instant, and the record's stop SCN is cut back by
    /// the plan's PITR margin over the trail
    /// ([`crate::apply_margin_cutoff`]), where a real `RECOVER UNTIL TIME`
    /// would stop.
    ///
    /// # Errors
    ///
    /// Fails when the injection itself fails; nothing is recorded then.
    pub fn inject(&mut self, injector: &FaultInjector) -> DbResult<InjectionRecord> {
        let mut record = injector.inject(&mut self.primary)?;
        self.driver.record_outage(record.injected_at);
        crate::apply_margin_cutoff(&mut record, &self.trail, injector.plan().pitr_margin);
        Ok(record)
    }

    /// The double fault: the promoted node dies too and the controller
    /// must promote a second survivor. Returns the instant of the kill and
    /// what [`Rig::failover`] made of it.
    ///
    /// # Errors
    ///
    /// Fails when there is no promoted node to kill.
    pub fn double_fault(&mut self) -> DbResult<(SimTime, Option<SimTime>)> {
        let rs = self
            .replicas
            .as_mut()
            .ok_or_else(|| DbError::BadAdminCommand("no replica set provisioned".into()))?;
        let killed = rs.kill_promoted()?;
        self.driver.record_outage(killed);
        Ok((killed, self.failover()))
    }

    /// The run loop, up to `until` and no further. Each turn asks
    /// `fire_due` whether the policy has a fault due before the next
    /// client step (it injects, recovers and answers `true`); otherwise the
    /// terminals step. Stops at the top of the first turn on which the
    /// clock or the next ready terminal has reached `until`, leaving
    /// everything as that turn found it — the clock is *not* moved up to
    /// `until` and no terminal is drained — so a later call with a later
    /// instant (or [`Rig::run`]) goes on exactly as one uninterrupted call
    /// would have, and so does a [`Rig::fork`] taken in between.
    ///
    /// # Errors
    ///
    /// Propagates `fire_due` and shipping errors.
    pub fn run_until(
        &mut self,
        until: SimTime,
        mut fire_due: impl FnMut(&mut Rig) -> DbResult<bool>,
    ) -> DbResult<()> {
        while self.clock.now() < until {
            if fire_due(self)? {
                continue;
            }
            if self.driver.next_ready() >= until {
                break;
            }
            self.step()?;
        }
        Ok(())
    }

    /// Drives the run to its end: [`Rig::run_until`] the end of the
    /// window, then the in-flight terminals are drained — an uncommitted
    /// transaction or a parked lock wait must not shadow what the caller
    /// evaluates next.
    ///
    /// # Errors
    ///
    /// Propagates `fire_due` and shipping errors.
    pub fn run(&mut self, fire_due: impl FnMut(&mut Rig) -> DbResult<bool>) -> DbResult<()> {
        self.run_until(self.end, fire_due)?;
        self.clock.advance_to(self.end);
        let active = serving(&mut self.primary, self.replicas.as_mut());
        self.driver.quiesce(active);
        Ok(())
    }
}
