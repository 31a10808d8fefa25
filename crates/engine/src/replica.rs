//! Replica sets: N warm stand-bys in configurable topologies with a
//! deterministic quorum-based failover controller.
//!
//! The paper's §5.3 measures exactly one stand-by and one manual
//! activation. Real COTS deployments survive operator faults through
//! replica *topologies* — several stand-bys fanning out from the primary,
//! or cascaded chains where each stand-by ships from the one above it —
//! governed by a failover *policy*: who decides the primary is dead, and
//! what happens to the survivors afterwards.
//!
//! Everything here is deterministic: votes are counted over a fixed node
//! order, the promotion candidate is the most-advanced `applied_seq` with
//! ties broken by the lowest replica id, and every delay (heartbeat
//! timeout, fencing round-trip) is a fixed simulated duration. Two runs
//! with the same seed take byte-identical failover decisions.

use std::sync::Arc;

use recobench_sim::{SimClock, SimDuration, SimTime};

use crate::config::InstanceConfig;
use crate::error::{DbError, DbResult, RecoveryError};
use crate::events::EngineEvent;
use crate::layout::DiskLayout;
use crate::server::DbServer;
use crate::standby::{Standby, Upstream};
use crate::types::Scn;

/// Heartbeat timeout charged before an automatic policy declares the
/// primary dead.
const HEARTBEAT_TIMEOUT: SimDuration = SimDuration::from_secs(1);

/// STONITH round-trip charged by [`FailoverPolicy::AutoWithFencing`] to
/// force the old primary down before promoting.
const FENCE_ROUND_TRIP: SimDuration = SimDuration::from_millis(500);

/// Who decides the primary is dead, and how.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FailoverPolicy {
    /// An operator activates a stand-by by hand (the paper's §5.3
    /// procedure). No quorum is required — the operator is the authority —
    /// and no detection delay is charged here (the harness models operator
    /// reaction separately).
    Manual,
    /// Automatic: a majority of enrolled stand-bys must observe the
    /// primary dead before the most advanced one is promoted. Charges one
    /// heartbeat timeout of detection delay.
    AutoQuorum,
    /// [`FailoverPolicy::AutoQuorum`] plus STONITH fencing: before
    /// promotion the controller force-kills the old primary if it still
    /// answers, so a merely partitioned primary cannot cause split-brain.
    AutoWithFencing,
}

impl FailoverPolicy {
    /// Stable snake_case name used in reports and bench JSON.
    pub fn name(self) -> &'static str {
        match self {
            FailoverPolicy::Manual => "manual",
            FailoverPolicy::AutoQuorum => "auto_quorum",
            FailoverPolicy::AutoWithFencing => "auto_fencing",
        }
    }
}

/// A replica-set shape: how many stand-bys and who ships from whom.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ReplicaTopology {
    name: String,
    /// Per stand-by, in order: `None` ships from the primary, `Some(i)`
    /// from replica `i` (cascaded; always an earlier index).
    upstreams: Vec<Option<usize>>,
}

impl ReplicaTopology {
    /// No replicas at all (the paper's unprotected baseline).
    pub fn none() -> ReplicaTopology {
        ReplicaTopology { name: "none".into(), upstreams: Vec::new() }
    }

    /// The paper's configuration: one stand-by shipping from the primary.
    pub fn single() -> ReplicaTopology {
        let mut t = Self::fan_out(1);
        t.name = "single".into();
        t
    }

    /// `n` stand-bys, each shipping directly from the primary.
    pub fn fan_out(n: usize) -> ReplicaTopology {
        ReplicaTopology { name: format!("fanout{n}"), upstreams: vec![None; n] }
    }

    /// A chain `depth` deep: replica 0 ships from the primary, replica 1
    /// from replica 0, and so on. Only the head loads the primary's
    /// archive disk.
    pub fn cascade(depth: usize) -> ReplicaTopology {
        ReplicaTopology {
            name: format!("cascade{depth}"),
            upstreams: (0..depth).map(|i| i.checked_sub(1)).collect(),
        }
    }

    /// The topology's stable name (`none`, `single`, `fanout2`,
    /// `cascade3`, …).
    pub fn name(&self) -> &str {
        &self.name
    }

    /// Whether the topology has no replicas.
    pub fn is_empty(&self) -> bool {
        self.upstreams.is_empty()
    }
}

/// What a replica is currently doing (reporting).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ReplicaStatus {
    /// In managed recovery, applying shipped archives.
    Following,
    /// Promoted: this node is the current primary.
    Promoted,
    /// Isolated by a network partition: cannot vote, ship, or be promoted.
    Partitioned,
    /// Shipping broke (corrupt copy or redo gap); frozen until resynced.
    Broken,
    /// The machine is down.
    Dead,
}

/// Callback invoked whenever the set creates a stand-by server
/// (instantiation, resync) so harnesses can attach span collectors and
/// JSONL writers to it.
pub type ReplicaObserver = Box<dyn FnMut(&mut DbServer, &str) + Send>;

/// N stand-bys plus the deterministic failover controller that governs
/// them.
pub struct ReplicaSet {
    nodes: Vec<Standby>,
    policy: FailoverPolicy,
    topology_name: String,
    promoted: Option<usize>,
    failovers: u64,
    clock: Arc<SimClock>,
    layout: DiskLayout,
    config: InstanceConfig,
    observer: Option<ReplicaObserver>,
}

impl std::fmt::Debug for ReplicaSet {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("ReplicaSet")
            .field("topology", &self.topology_name)
            .field("policy", &self.policy.name())
            .field("nodes", &self.nodes.len())
            .field("promoted", &self.promoted)
            .field("failovers", &self.failovers)
            .finish()
    }
}

impl ReplicaSet {
    /// Instantiates every replica in `topology` from the primary's most
    /// recent cold backup. Nodes are named `STANDBY1`, `STANDBY2`, … in
    /// topology order.
    ///
    /// # Errors
    ///
    /// Fails if the primary has no backup or a stand-by machine cannot be
    /// built.
    pub fn instantiate(
        primary: &DbServer,
        topology: &ReplicaTopology,
        policy: FailoverPolicy,
        clock: Arc<SimClock>,
        layout: DiskLayout,
        config: InstanceConfig,
    ) -> DbResult<ReplicaSet> {
        let mut nodes = Vec::with_capacity(topology.upstreams.len());
        for (i, &upstream) in topology.upstreams.iter().enumerate() {
            let (node, restored) = Standby::instantiate(
                primary,
                &format!("STANDBY{}", i + 1),
                Arc::clone(&clock),
                layout.clone(),
                config.clone(),
                upstream,
            )?;
            clock.advance_to(restored);
            nodes.push(node);
        }
        Ok(ReplicaSet {
            nodes,
            policy,
            topology_name: topology.name().to_string(),
            promoted: None,
            failovers: 0,
            clock,
            layout,
            config,
            observer: None,
        })
    }

    /// An independent copy of the set on `clock`: every stand-by forked
    /// (see [`DbServer::fork`]), the controller's state cloned. Like the
    /// servers' subscribers, the observer is not carried — the fork's
    /// driver installs its own with [`ReplicaSet::set_observer`].
    pub fn fork(&self, clock: Arc<SimClock>) -> ReplicaSet {
        ReplicaSet {
            nodes: self
                .nodes
                .iter()
                .map(|n| Standby {
                    server: n.server.fork(Arc::clone(&clock)),
                    applied_seq: n.applied_seq,
                    apply_done_at: n.apply_done_at,
                    replayed: n.replayed.clone(),
                    received: n.received.clone(),
                    corrupt_next_ship: n.corrupt_next_ship,
                    upstream: n.upstream,
                    partitioned: n.partitioned,
                    dead: n.dead,
                    broken: n.broken.clone(),
                })
                .collect(),
            policy: self.policy,
            topology_name: self.topology_name.clone(),
            promoted: self.promoted,
            failovers: self.failovers,
            clock,
            layout: self.layout.clone(),
            config: self.config.clone(),
            observer: None,
        }
    }

    /// Registers the observer called for every stand-by server the set
    /// creates, and immediately invokes it on the existing nodes.
    pub fn set_observer(&mut self, mut observer: ReplicaObserver) {
        for node in &mut self.nodes {
            let name = node.server.name().to_string();
            observer(&mut node.server, &name);
        }
        self.observer = Some(observer);
    }

    /// Index of the currently promoted replica, if a failover happened.
    pub fn promoted(&self) -> Option<usize> {
        self.promoted
    }

    /// Failovers completed so far.
    pub fn failovers(&self) -> u64 {
        self.failovers
    }

    /// What replica `i` is currently doing.
    pub fn status(&self, i: usize) -> Option<ReplicaStatus> {
        let node = self.nodes.get(i)?;
        Some(if node.dead {
            ReplicaStatus::Dead
        } else if self.promoted == Some(i) {
            ReplicaStatus::Promoted
        } else if node.partitioned {
            ReplicaStatus::Partitioned
        } else if node.broken.is_some() {
            ReplicaStatus::Broken
        } else {
            ReplicaStatus::Following
        })
    }

    /// The promoted replica's server (the current primary after a
    /// failover), for the workload driver.
    pub fn active_mut(&mut self) -> Option<&mut DbServer> {
        let k = self.promoted?;
        Some(&mut self.nodes.get_mut(k)?.server)
    }

    /// The promoted replica's server, for evaluation.
    pub fn active(&self) -> Option<&DbServer> {
        let k = self.promoted?;
        Some(&self.nodes.get(k)?.server)
    }

    /// Redo records the promoted replica applied while it was following
    /// (0 before any failover), as its event stream counts them.
    pub fn promoted_records_applied(&self) -> u64 {
        self.active().map_or(0, |server| server.stats().recovery_records_applied)
    }

    /// The highest commit SCN the promoted replica had applied when it
    /// activated: the differential oracle truncates its reference model to
    /// this boundary after a failover.
    pub fn promoted_last_commit_scn(&self) -> Option<Scn> {
        Some(self.nodes.get(self.promoted?)?.replayed.last_commit_scn)
    }

    /// Isolates replica `i` behind a network partition: it stops shipping
    /// and can neither vote nor be promoted.
    pub fn partition(&mut self, i: usize) {
        if let Some(node) = self.nodes.get_mut(i) {
            node.partitioned = true;
        }
    }

    /// Arms a media fault on replica `i`: its next shipped archive copy
    /// lands corrupted, fails its decode and freezes the node.
    pub fn arm_ship_corruption(&mut self, i: usize) {
        if let Some(node) = self.nodes.get_mut(i) {
            node.corrupt_next_ship = true;
        }
    }

    /// The first replica that is following normally (not promoted, dead,
    /// partitioned, or broken) — the deterministic target for
    /// replica-directed faults.
    pub fn first_followable(&self) -> Option<usize> {
        (0..self.nodes.len()).find(|&i| {
            self.promoted != Some(i)
                && !self.nodes[i].dead
                && !self.nodes[i].partitioned
                && self.nodes[i].broken.is_none()
        })
    }

    /// Ships and applies along the topology: fan-out nodes pull from
    /// `primary` (or from the promoted replica after a failover), cascaded
    /// nodes pull from their upstream's retained copies. A node whose
    /// shipping breaks (corrupt copy, redo gap) is frozen — it keeps
    /// voting with whatever it has applied — rather than failing the run.
    ///
    /// # Errors
    ///
    /// Fails only on stand-by storage errors; broken shipping is recorded
    /// per node, not propagated.
    // tidy-entry(recovery)
    pub fn sync_all(&mut self, primary: &DbServer) -> DbResult<()> {
        self.sync_all_inner(Some(primary))
    }

    /// Ships and applies archives on every follower after a promotion:
    /// the promoted node is the shipping source, so no external primary
    /// is involved. Same failure handling as [`ReplicaSet::sync_all`].
    ///
    /// # Errors
    ///
    /// Fails only on stand-by storage errors.
    // tidy-entry(recovery)
    pub fn sync_followers(&mut self) -> DbResult<()> {
        self.sync_all_inner(None)
    }

    fn sync_all_inner(&mut self, primary: Option<&DbServer>) -> DbResult<()> {
        for i in 0..self.nodes.len() {
            let Some(node) = self.nodes.get(i) else { continue };
            if self.promoted == Some(i) || node.dead || node.partitioned || node.broken.is_some()
            {
                continue;
            }
            let result = match (node.upstream, primary) {
                (Some(j), _) if j != i => {
                    let [node, up] = lookup(self.nodes.get_disjoint_mut([i, j]).ok(), j)?;
                    let upstream = if self.promoted == Some(j) {
                        // A promoted upstream ships its own archives.
                        Upstream::Server(&up.server)
                    } else {
                        Upstream::Standby(up)
                    };
                    node.sync(upstream)
                }
                (_, Some(p)) => lookup(self.nodes.get_mut(i), i)?.sync(Upstream::Server(p)),
                (_, None) => continue,
            };
            match result {
                Ok(()) => {}
                Err(DbError::Recovery(
                    reason @ (RecoveryError::ShippedArchiveCorrupt { .. }
                    | RecoveryError::ArchiveGap { .. }),
                )) => {
                    // The node cannot advance until re-instantiated; it
                    // stays enrolled (and voting) with a frozen
                    // applied_seq, so quorum math still counts it.
                    if let Some(n) = self.nodes.get_mut(i) {
                        n.broken = Some(reason);
                    }
                }
                Err(other) => return Err(other),
            }
        }
        Ok(())
    }

    /// Kills the promoted replica's machine (the double-fault scenario:
    /// the newly promoted node dies too). Follow with
    /// [`ReplicaSet::fail_over`]`(None)` to promote a survivor.
    ///
    /// # Errors
    ///
    /// Fails when no replica is promoted.
    pub fn kill_promoted(&mut self) -> DbResult<SimTime> {
        let Some(k) = self.promoted else {
            return Err(DbError::BadAdminCommand("no promoted replica to kill".into()));
        };
        let node = lookup(self.nodes.get_mut(k), k)?;
        node.server.shutdown_abort()?;
        node.dead = true;
        Ok(self.clock.now())
    }

    /// Runs the failover controller after the primary is suspected dead.
    ///
    /// `old_primary` is the external primary (first failover) or `None`
    /// when the dead primary is the set's own promoted replica (double
    /// fault). The controller ships the dead primary's surviving archives
    /// one final time, counts votes — every live, unpartitioned stand-by
    /// observes the failure; the quorum denominator is every enrolled
    /// stand-by, partitioned or not — and, if the policy's quorum rule
    /// passes, promotes the most-advanced `applied_seq` (ties broken by
    /// the lowest replica id). [`FailoverPolicy::AutoWithFencing`]
    /// force-kills a still-open old primary first. Survivors are
    /// re-instantiated from a fresh backup of the new primary.
    ///
    /// Returns `Ok(None)` when no quorum or no candidate exists (the
    /// service stays down), otherwise the instant the new primary accepts
    /// work.
    ///
    /// # Errors
    ///
    /// Fails on storage errors while promoting or resyncing.
    // tidy-entry(recovery)
    pub fn fail_over(&mut self, mut old_primary: Option<&mut DbServer>) -> DbResult<Option<SimTime>> {
        if old_primary.is_none() && self.promoted.is_none() {
            return Err(DbError::BadAdminCommand("no primary to fail over from".into()));
        }
        // Final ship: whatever the dead primary archived before dying is
        // still on its (surviving) archive disks; the current online group
        // is the redo gap and is lost.
        self.sync_all_inner(old_primary.as_deref())?;
        // Votes and quorum. Enrolled stand-bys = not promoted, not dead.
        let standbys: Vec<usize> = self
            .nodes
            .iter()
            .enumerate()
            .filter(|&(i, n)| self.promoted != Some(i) && !n.dead)
            .map(|(i, _)| i)
            .collect();
        let votes = standbys
            .iter()
            .filter(|&&i| self.nodes.get(i).is_some_and(|n| !n.partitioned))
            .count();
        let total = standbys.len();
        let quorum_ok = match self.policy {
            FailoverPolicy::Manual => votes > 0,
            FailoverPolicy::AutoQuorum | FailoverPolicy::AutoWithFencing => votes * 2 > total,
        };
        if !quorum_ok {
            return Ok(None);
        }
        // Detection delay and (for the fencing policy) STONITH.
        match self.policy {
            FailoverPolicy::Manual => {}
            FailoverPolicy::AutoQuorum => self.clock.advance(HEARTBEAT_TIMEOUT),
            FailoverPolicy::AutoWithFencing => {
                self.clock.advance(HEARTBEAT_TIMEOUT);
                if let Some(p) = old_primary.take() {
                    if p.is_open() {
                        p.shutdown_abort()?;
                    }
                }
                self.clock.advance(FENCE_ROUND_TRIP);
            }
        }
        // Candidate: most-advanced applied_seq, ties to the lowest id.
        let mut candidate: Option<usize> = None;
        for &i in &standbys {
            let Some(n) = self.nodes.get(i) else { continue };
            if n.partitioned {
                continue;
            }
            let better = match candidate.and_then(|c| self.nodes.get(c)) {
                None => true,
                Some(c) => n.applied_seq > c.applied_seq,
            };
            if better {
                candidate = Some(i);
            }
        }
        let Some(k) = candidate else { return Ok(None) };
        let now = self.clock.now();
        let promoted_node = lookup(self.nodes.get_mut(k), k)?;
        promoted_node.server.events.record(
            now,
            EngineEvent::FailoverStarted { votes: votes as u64, replicas: total as u64 },
        );
        let ready = promoted_node.activate()?;
        let applied = promoted_node.applied_seq;
        promoted_node
            .server
            .events
            .record(ready, EngineEvent::ReplicaPromoted { replica: k as u64, applied_seq: applied });
        self.promoted = Some(k);
        self.failovers += 1;
        // Survivors to re-enroll behind the new primary.
        let survivors: Vec<usize> = self
            .nodes
            .iter()
            .enumerate()
            .filter(|&(i, n)| i != k && !n.dead && !n.partitioned)
            .map(|(i, _)| i)
            .collect();
        if !survivors.is_empty() {
            // A fresh backup of the new primary: survivors re-instantiate
            // from it. Nobody waits for it — the new primary serves clients
            // from `ready`; re-protecting the set only keeps the disks busy.
            lookup(self.nodes.get_mut(k), k)?.server.cold_backup()?;
            for i in survivors {
                self.resync_node(i, k)?;
            }
        }
        Ok(Some(ready))
    }

    /// Re-instantiates survivor `i` from the promoted replica `k`'s fresh
    /// backup, shipping from the new primary. Nobody waits for the
    /// restore: it only keeps both machines' disks busy.
    fn resync_node(&mut self, i: usize, k: usize) -> DbResult<()> {
        let name = lookup(self.nodes.get(i), i)?.server.name().to_string();
        let source = &lookup(self.nodes.get(k), k)?.server;
        let (mut node, _restored) = Standby::instantiate(
            source,
            &name,
            Arc::clone(&self.clock),
            self.layout.clone(),
            self.config.clone(),
            Some(k),
        )?;
        if let Some(observer) = self.observer.as_mut() {
            observer(&mut node.server, &name);
        }
        let resync = EngineEvent::ReplicaResync { replica: i as u64, applied_seq: node.applied_seq };
        node.server.events.record(self.clock.now(), resync);
        *lookup(self.nodes.get_mut(i), i)? = node;
        Ok(())
    }
}

/// A node the set's own bookkeeping names (the promoted id, an upstream, a
/// survivor); `None` means that bookkeeping broke.
fn lookup<T>(node: Option<T>, k: usize) -> DbResult<T> {
    node.ok_or_else(|| RecoveryError::ReplicaVanished { replica: k }.into())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::catalog::IndexDef;
    use crate::row::{Row, Value};
    use crate::types::ObjectId;

    fn cfg(redo_kb: u64) -> InstanceConfig {
        InstanceConfig::builder()
            .redo_file_bytes(redo_kb * 1024)
            .redo_groups(3)
            .checkpoint_timeout_secs(60)
            .archive_mode(true)
            .cache_blocks(64)
            .build()
    }

    fn primary_with_data() -> (DbServer, ObjectId) {
        let clock = SimClock::shared();
        let mut p = DbServer::on_fresh_disks("PRIM", clock, DiskLayout::four_disk(), cfg(64));
        p.create_database().unwrap();
        p.create_user("tpcc").unwrap();
        p.create_tablespace("TPCC", 2, 512).unwrap();
        let t = p
            .create_table(
                "T",
                "tpcc",
                "TPCC",
                vec![IndexDef { name: "PK".into(), cols: vec![0], unique: true, ordered: true }],
            )
            .unwrap();
        let s = p.connect().unwrap();
        for i in 0..10 {
            p.insert(s, t, Row::new(vec![Value::U64(i), Value::from("seed")])).unwrap();
            p.commit(s).unwrap();
        }
        p.take_cold_backup().unwrap();
        (p, t)
    }

    fn replica_set(p: &DbServer, topology: &ReplicaTopology, policy: FailoverPolicy) -> ReplicaSet {
        ReplicaSet::instantiate(
            p,
            topology,
            policy,
            Arc::clone(p.clock()),
            DiskLayout::four_disk(),
            cfg(64),
        )
        .unwrap()
    }

    fn run_workload(p: &mut DbServer, t: ObjectId, rs: &mut ReplicaSet, from: u64, to: u64) {
        let s = p.connect().unwrap();
        for i in from..to {
            p.insert(s, t, Row::new(vec![Value::U64(i), Value::from("workload-row-payload")]))
                .unwrap();
            p.commit(s).unwrap();
            rs.sync_all(p).unwrap();
        }
    }

    #[test]
    fn quorum_failover_promotes_most_advanced_and_resyncs_survivor() {
        let (mut p, t) = primary_with_data();
        let mut rs = replica_set(&p, &ReplicaTopology::fan_out(2), FailoverPolicy::AutoQuorum);
        run_workload(&mut p, t, &mut rs, 100, 300);
        assert!(rs.nodes[0].server.stats().recovery_records_applied > 0, "archives shipped");
        p.shutdown_abort().unwrap();
        let ready = rs.fail_over(Some(&mut p)).unwrap().expect("quorum of 2/2 must promote");
        assert_eq!(rs.promoted(), Some(0), "equal applied_seq ties break to the lowest id");
        assert_eq!(rs.failovers(), 1);
        assert_eq!(rs.status(1), Some(ReplicaStatus::Following), "survivor follows the new primary");
        // The survivor was re-instantiated and its counters show it.
        let promoted_stats = rs.nodes[0].server.stats();
        assert_eq!(promoted_stats.failovers, 1);
        assert_eq!(promoted_stats.promotions, 1);
        let survivor_stats = rs.nodes[1].server.stats();
        assert_eq!(survivor_stats.replica_resyncs, 1);
        // The new primary accepts work from `ready` on.
        assert!(ready >= SimTime::ZERO);
        let srv = rs.active_mut().unwrap();
        let s = srv.connect().unwrap();
        srv.insert(s, t, Row::new(vec![Value::U64(9_000), Value::from("after")])).unwrap();
        srv.commit(s).unwrap();
    }

    #[test]
    fn double_fault_promotes_the_survivor() {
        let (mut p, t) = primary_with_data();
        let mut rs = replica_set(&p, &ReplicaTopology::fan_out(2), FailoverPolicy::AutoQuorum);
        run_workload(&mut p, t, &mut rs, 100, 300);
        p.shutdown_abort().unwrap();
        rs.fail_over(Some(&mut p)).unwrap().expect("first failover");
        let first = rs.promoted().unwrap();
        // Drive some work on the new primary so the survivor follows it.
        {
            let srv = rs.active_mut().unwrap();
            let s = srv.connect().unwrap();
            for i in 1_000..1_050 {
                srv.insert(s, t, Row::new(vec![Value::U64(i), Value::from("second-epoch")])).unwrap();
                srv.commit(s).unwrap();
            }
        }
        rs.sync_all_inner(None).unwrap();
        // The promoted node dies too.
        rs.kill_promoted().unwrap();
        let ready = rs.fail_over(None).unwrap().expect("1/1 survivor quorum must promote");
        assert_ne!(rs.promoted(), Some(first));
        assert_eq!(rs.failovers(), 2);
        assert!(ready >= SimTime::ZERO);
        let srv = rs.active_mut().unwrap();
        let s = srv.connect().unwrap();
        srv.insert(s, t, Row::new(vec![Value::U64(9_001), Value::from("third-epoch")])).unwrap();
        srv.commit(s).unwrap();
    }

    #[test]
    fn partitioned_replica_denies_quorum_but_not_a_manual_operator() {
        let (mut p, t) = primary_with_data();
        let mut rs = replica_set(&p, &ReplicaTopology::fan_out(2), FailoverPolicy::AutoQuorum);
        run_workload(&mut p, t, &mut rs, 100, 200);
        rs.partition(1);
        p.shutdown_abort().unwrap();
        assert!(
            rs.fail_over(Some(&mut p)).unwrap().is_none(),
            "1 vote of 2 enrolled stand-bys is not a majority"
        );
        assert_eq!(rs.failovers(), 0);

        // Same scenario under a manual operator: the operator promotes the
        // reachable stand-by regardless of quorum.
        let (mut p2, t2) = primary_with_data();
        let mut rs2 = replica_set(&p2, &ReplicaTopology::fan_out(2), FailoverPolicy::Manual);
        run_workload(&mut p2, t2, &mut rs2, 100, 200);
        rs2.partition(1);
        p2.shutdown_abort().unwrap();
        assert!(rs2.fail_over(Some(&mut p2)).unwrap().is_some());
        assert_eq!(rs2.status(1), Some(ReplicaStatus::Partitioned), "isolated node is left behind");
    }

    #[test]
    fn cascaded_chain_follows_and_fails_over() {
        let (mut p, t) = primary_with_data();
        let mut rs = replica_set(&p, &ReplicaTopology::cascade(2), FailoverPolicy::AutoQuorum);
        run_workload(&mut p, t, &mut rs, 100, 300);
        // The tail ships a copy only once the head's copy has landed on the
        // head's archive disk (charged ship latency), so let the simulated
        // transfer drain before inspecting the chain.
        p.clock().advance(SimDuration::from_secs(5));
        rs.sync_all(&p).unwrap();
        let applied = |i: usize| rs.nodes[i].server.stats().recovery_records_applied;
        assert!(applied(0) > 0, "chain head ships from the primary");
        assert!(applied(1) > 0, "chain tail ships from the head");
        assert!(
            rs.nodes[1].applied_seq <= rs.nodes[0].applied_seq,
            "the tail can never be ahead of its upstream"
        );
        p.shutdown_abort().unwrap();
        rs.fail_over(Some(&mut p)).unwrap().expect("cascade promotes its most advanced node");
        assert_eq!(rs.promoted(), Some(0), "the chain head is most advanced");
        assert_eq!(rs.status(1), Some(ReplicaStatus::Following));
    }

    #[test]
    fn corrupt_shipped_archive_freezes_the_node_and_quorum_picks_the_healthy_one() {
        let (mut p, t) = primary_with_data();
        let mut rs = replica_set(&p, &ReplicaTopology::fan_out(2), FailoverPolicy::AutoQuorum);
        run_workload(&mut p, t, &mut rs, 100, 200);
        rs.arm_ship_corruption(0);
        run_workload(&mut p, t, &mut rs, 200, 400);
        assert_eq!(rs.status(0), Some(ReplicaStatus::Broken));
        assert!(matches!(
            rs.nodes[0].broken,
            Some(RecoveryError::ShippedArchiveCorrupt { .. })
        ));
        assert!(
            rs.nodes[0].applied_seq < rs.nodes[1].applied_seq,
            "the broken node froze while the healthy one advanced"
        );
        p.shutdown_abort().unwrap();
        rs.fail_over(Some(&mut p)).unwrap().expect("2 votes of 2: broken nodes still vote");
        assert_eq!(rs.promoted(), Some(1), "most-advanced applied_seq beats the lower id");
        assert_eq!(rs.status(0), Some(ReplicaStatus::Following), "resync heals the broken node");
    }

    #[test]
    fn fencing_policy_kills_a_still_open_primary_before_promoting() {
        let (mut p, t) = primary_with_data();
        let mut rs = replica_set(&p, &ReplicaTopology::fan_out(2), FailoverPolicy::AutoWithFencing);
        run_workload(&mut p, t, &mut rs, 100, 200);
        // The primary is only *suspected* dead (e.g. partitioned away from
        // the clients) — it is still running.
        assert!(p.is_open());
        rs.fail_over(Some(&mut p)).unwrap().expect("fencing failover");
        assert!(!p.is_open(), "STONITH must have force-killed the old primary");
    }

    /// A promoted id the set does not hold is the set's own bug, typed
    /// apart from every refusal.
    #[test]
    fn a_node_missing_from_the_set_is_a_typed_invariant_breach() {
        let (p, _) = primary_with_data();
        let mut rs = replica_set(&p, &ReplicaTopology::single(), FailoverPolicy::Manual);
        rs.promoted = Some(1);
        let breach = RecoveryError::ReplicaVanished { replica: 1 };
        assert_eq!(rs.kill_promoted(), Err(DbError::Recovery(breach)));
    }

    #[test]
    fn topology_constructors_and_names() {
        assert!(ReplicaTopology::none().is_empty());
        assert_eq!(ReplicaTopology::single().upstreams, [None]);
        assert_eq!(ReplicaTopology::single().name(), "single");
        let f = ReplicaTopology::fan_out(3);
        assert_eq!(f.name(), "fanout3");
        assert_eq!(f.upstreams, [None; 3]);
        let c = ReplicaTopology::cascade(3);
        assert_eq!(c.name(), "cascade3");
        assert_eq!(c.upstreams, [None, Some(0), Some(1)]);
        assert_eq!(FailoverPolicy::AutoWithFencing.name(), "auto_fencing");
    }
}
