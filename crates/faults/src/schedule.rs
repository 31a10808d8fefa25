//! Randomized multi-fault schedules for the torture harness.
//!
//! The paper's experiments inject exactly one fault per run at a fixed
//! trigger time. The torture harness generalizes that to a *schedule*:
//! any number of faults at arbitrary times within a run, drawn from the
//! six operator fault types plus a raw instance kill (crash without the
//! clean `SHUTDOWN ABORT` bookkeeping path). Schedules serialize to a
//! small hand-rolled JSON shape so minimized reproducers can be committed
//! as a corpus and replayed byte-for-byte:
//!
//! ```json
//! {"seed":7,"duration_secs":300,"faults":[{"fault":"shutdown_abort","at_secs":42}]}
//! ```

use crate::taxonomy::{FaultType, ReplicaFaultType, StorageFaultType};
use recobench_sim::SimRng;

/// What to inject: one of the paper's six operator faults, a raw
/// instance kill, a storage-hardware fault armed on the vfs, or a
/// replica-set fault aimed at the stand-by apparatus.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum TortureFaultKind {
    /// One of the six operator fault types of the paper's experiments,
    /// injected through [`FaultInjector`](crate::FaultInjector) with its
    /// standard recovery procedure.
    Operator(FaultType),
    /// The instance dies on the spot (power loss / `kill -9` of every
    /// background process). Recovery is a plain restart with crash
    /// recovery — no DBA diagnosis beyond noticing the instance is gone.
    InstanceKill,
    /// A storage-hardware fault armed on the simulated filesystem
    /// (`recobench_vfs::FaultArm`): torn write, partial append, bit-rot,
    /// disk-full, or slow I/O. Recovery is detection (checksum scan,
    /// write error, or latency) plus the appropriate media/crash
    /// procedure.
    Storage(StorageFaultType),
    /// A replica-set fault (engine `ReplicaSet`): kill the primary or the
    /// newly promoted node, corrupt a shipped archive copy, or partition
    /// a stand-by. Recovery is failover/resync rather than restore.
    Replica(ReplicaFaultType),
}

impl TortureFaultKind {
    /// The original seven kinds, in a fixed order (the six operator
    /// faults in the paper's order, then the kill). Kept at exactly seven
    /// entries so schedules drawn from historical seeds replay unchanged;
    /// the storage kinds live in [`TortureFaultKind::all_extended`].
    pub fn all() -> [TortureFaultKind; 7] {
        [
            TortureFaultKind::Operator(FaultType::ShutdownAbort),
            TortureFaultKind::Operator(FaultType::DeleteDatafile),
            TortureFaultKind::Operator(FaultType::DeleteTablespace),
            TortureFaultKind::Operator(FaultType::SetDatafileOffline),
            TortureFaultKind::Operator(FaultType::SetTablespaceOffline),
            TortureFaultKind::Operator(FaultType::DeleteUsersObject),
            TortureFaultKind::InstanceKill,
        ]
    }

    /// Every kind including the five storage-hardware faults and the four
    /// replica-set faults, appended in that order so the slice layout
    /// stays `[legacy 7][storage 5][replica 4]` for corpus stability.
    pub fn all_extended() -> [TortureFaultKind; 16] {
        [
            TortureFaultKind::Operator(FaultType::ShutdownAbort),
            TortureFaultKind::Operator(FaultType::DeleteDatafile),
            TortureFaultKind::Operator(FaultType::DeleteTablespace),
            TortureFaultKind::Operator(FaultType::SetDatafileOffline),
            TortureFaultKind::Operator(FaultType::SetTablespaceOffline),
            TortureFaultKind::Operator(FaultType::DeleteUsersObject),
            TortureFaultKind::InstanceKill,
            TortureFaultKind::Storage(StorageFaultType::TornWrite),
            TortureFaultKind::Storage(StorageFaultType::PartialAppend),
            TortureFaultKind::Storage(StorageFaultType::BitRot),
            TortureFaultKind::Storage(StorageFaultType::DiskFull),
            TortureFaultKind::Storage(StorageFaultType::SlowIo),
            TortureFaultKind::Replica(ReplicaFaultType::KillPrimary),
            TortureFaultKind::Replica(ReplicaFaultType::KillPromoted),
            TortureFaultKind::Replica(ReplicaFaultType::CorruptShippedArchive),
            TortureFaultKind::Replica(ReplicaFaultType::PartitionReplica),
        ]
    }

    /// The five storage-hardware kinds (the `--faultload storage` pool).
    pub fn storage() -> [TortureFaultKind; 5] {
        [
            TortureFaultKind::Storage(StorageFaultType::TornWrite),
            TortureFaultKind::Storage(StorageFaultType::PartialAppend),
            TortureFaultKind::Storage(StorageFaultType::BitRot),
            TortureFaultKind::Storage(StorageFaultType::DiskFull),
            TortureFaultKind::Storage(StorageFaultType::SlowIo),
        ]
    }

    /// The four replica-set kinds (the `--faultload replica` pool).
    pub fn replica() -> [TortureFaultKind; 4] {
        [
            TortureFaultKind::Replica(ReplicaFaultType::KillPrimary),
            TortureFaultKind::Replica(ReplicaFaultType::KillPromoted),
            TortureFaultKind::Replica(ReplicaFaultType::CorruptShippedArchive),
            TortureFaultKind::Replica(ReplicaFaultType::PartitionReplica),
        ]
    }

    /// Stable snake_case name used in schedule JSON.
    pub fn name(self) -> &'static str {
        match self {
            TortureFaultKind::Operator(FaultType::ShutdownAbort) => "shutdown_abort",
            TortureFaultKind::Operator(FaultType::DeleteDatafile) => "delete_datafile",
            TortureFaultKind::Operator(FaultType::DeleteTablespace) => "delete_tablespace",
            TortureFaultKind::Operator(FaultType::SetDatafileOffline) => "set_datafile_offline",
            TortureFaultKind::Operator(FaultType::SetTablespaceOffline) => {
                "set_tablespace_offline"
            }
            TortureFaultKind::Operator(FaultType::DeleteUsersObject) => "delete_users_object",
            TortureFaultKind::InstanceKill => "instance_kill",
            TortureFaultKind::Storage(s) => s.name(),
            TortureFaultKind::Replica(r) => r.name(),
        }
    }

    /// Inverse of [`TortureFaultKind::name`], over the extended set.
    pub fn from_name(name: &str) -> Option<TortureFaultKind> {
        TortureFaultKind::all_extended().into_iter().find(|k| k.name() == name)
    }
}

impl std::fmt::Display for TortureFaultKind {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.name())
    }
}

/// One fault at one moment of a torture run.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ScheduledFault {
    /// What to inject.
    pub kind: TortureFaultKind,
    /// Seconds after the measurement window opens. Faults may land while
    /// the previous fault's recovery is still running; the runner injects
    /// such overtaken faults the moment recovery finishes (the
    /// fault-during-recovery case).
    pub at_secs: u64,
}

/// A complete torture schedule: a workload seed, a run length, and the
/// faults to inject. Equality is structural, so shrinking can detect
/// fixed points.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct FaultSchedule {
    /// Seed for the TPC-C workload (and anything else the runner
    /// randomizes). Same seed + same schedule ⇒ same run, byte for byte.
    pub seed: u64,
    /// Length of the measurement window in simulated seconds.
    pub duration_secs: u64,
    /// The faults, in any order; the runner injects them sorted by time.
    pub faults: Vec<ScheduledFault>,
}

impl FaultSchedule {
    /// A schedule with no faults — the baseline the oracle must always
    /// pass.
    pub fn quiet(seed: u64, duration_secs: u64) -> FaultSchedule {
        FaultSchedule { seed, duration_secs, faults: Vec::new() }
    }

    /// Whether any scheduled fault targets the replica set — the torture
    /// runner provisions stand-bys only when one does.
    pub fn has_replica_faults(&self) -> bool {
        self.faults.iter().any(|f| matches!(f.kind, TortureFaultKind::Replica(_)))
    }

    /// Draws a random schedule: `n_faults` faults of kinds drawn from
    /// `kinds` at random times in `[min_at, duration_secs)`. Deterministic
    /// in the RNG; the schedule's own `seed` is drawn from the same stream.
    /// The draw order (kind, then time, per fault; schedule seed last) is
    /// part of the corpus contract — changing it invalidates committed
    /// seeds.
    ///
    /// `min_at` keeps faults out of the first seconds so the driver has
    /// ramped up before the first injection (the paper triggers at
    /// steady state for the same reason).
    pub fn random_from(
        rng: &mut SimRng,
        kinds: &[TortureFaultKind],
        n_faults: usize,
        duration_secs: u64,
        min_at: u64,
    ) -> FaultSchedule {
        let span = duration_secs.saturating_sub(min_at).max(1);
        let faults = (0..n_faults)
            .map(|_| ScheduledFault {
                kind: kinds[rng.gen_range(0..kinds.len() as u64) as usize],
                at_secs: min_at + rng.gen_range(0..span),
            })
            .collect();
        FaultSchedule { seed: rng.next_u64(), duration_secs, faults }
    }

    /// The faults sorted by injection time (ties keep schedule order).
    pub fn sorted_faults(&self) -> Vec<ScheduledFault> {
        let mut faults = self.faults.clone();
        faults.sort_by_key(|f| f.at_secs);
        faults
    }

    /// Serializes to the canonical JSON shape (stable field order, no
    /// whitespace) so minimized schedules diff cleanly in a corpus.
    pub fn to_json(&self) -> String {
        let mut out = String::with_capacity(64 + self.faults.len() * 48);
        out.push_str(&format!(
            "{{\"seed\":{},\"duration_secs\":{},\"faults\":[",
            self.seed, self.duration_secs
        ));
        for (i, f) in self.faults.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            out.push_str(&format!(
                "{{\"fault\":\"{}\",\"at_secs\":{}}}",
                f.kind.name(),
                f.at_secs
            ));
        }
        out.push_str("]}");
        out
    }

    /// Parses the JSON shape produced by [`FaultSchedule::to_json`].
    /// Tolerates whitespace and any field order; rejects anything else
    /// with a description of what went wrong.
    pub fn from_json(text: &str) -> Result<FaultSchedule, String> {
        let mut p = Parser { bytes: text.as_bytes(), pos: 0 };
        let schedule = p.schedule()?;
        p.skip_ws();
        if p.pos != p.bytes.len() {
            return Err(format!("trailing garbage at byte {}", p.pos));
        }
        Ok(schedule)
    }
}

/// A minimal recursive-descent parser for exactly the schedule shape —
/// the repo's no-external-deps rule means no JSON dependency, and the shape
/// is small enough that a bespoke parser is clearer than a generic one.
struct Parser<'a> {
    bytes: &'a [u8],
    pos: usize,
}

impl<'a> Parser<'a> {
    fn skip_ws(&mut self) {
        while self.bytes.get(self.pos).is_some_and(|b| b.is_ascii_whitespace()) {
            self.pos += 1;
        }
    }

    fn expect(&mut self, ch: u8) -> Result<(), String> {
        self.skip_ws();
        if self.bytes.get(self.pos) == Some(&ch) {
            self.pos += 1;
            Ok(())
        } else {
            Err(format!("expected '{}' at byte {}", ch as char, self.pos))
        }
    }

    fn peek(&mut self) -> Option<u8> {
        self.skip_ws();
        self.bytes.get(self.pos).copied()
    }

    fn string(&mut self) -> Result<String, String> {
        self.expect(b'"')?;
        let start = self.pos;
        while let Some(&b) = self.bytes.get(self.pos) {
            if b == b'"' {
                let s = std::str::from_utf8(&self.bytes[start..self.pos])
                    .map_err(|_| "invalid utf-8 in string".to_string())?;
                self.pos += 1;
                return Ok(s.to_string());
            }
            if b == b'\\' {
                return Err(format!("escape sequences unsupported at byte {}", self.pos));
            }
            self.pos += 1;
        }
        Err("unterminated string".to_string())
    }

    fn number(&mut self) -> Result<u64, String> {
        self.skip_ws();
        let start = self.pos;
        while self.bytes.get(self.pos).is_some_and(u8::is_ascii_digit) {
            self.pos += 1;
        }
        if self.pos == start {
            return Err(format!("expected number at byte {}", start));
        }
        std::str::from_utf8(&self.bytes[start..self.pos])
            .unwrap()
            .parse()
            .map_err(|e| format!("bad number at byte {start}: {e}"))
    }

    fn fault(&mut self) -> Result<ScheduledFault, String> {
        self.expect(b'{')?;
        let mut kind = None;
        let mut at_secs = None;
        loop {
            let key = self.string()?;
            self.expect(b':')?;
            match key.as_str() {
                "fault" => {
                    let name = self.string()?;
                    kind = Some(
                        TortureFaultKind::from_name(&name)
                            .ok_or_else(|| format!("unknown fault kind {name:?}"))?,
                    );
                }
                "at_secs" => at_secs = Some(self.number()?),
                other => return Err(format!("unknown fault field {other:?}")),
            }
            match self.peek() {
                Some(b',') => self.pos += 1,
                Some(b'}') => {
                    self.pos += 1;
                    break;
                }
                _ => return Err(format!("expected ',' or '}}' at byte {}", self.pos)),
            }
        }
        Ok(ScheduledFault {
            kind: kind.ok_or("fault entry missing \"fault\"")?,
            at_secs: at_secs.ok_or("fault entry missing \"at_secs\"")?,
        })
    }

    fn schedule(&mut self) -> Result<FaultSchedule, String> {
        self.expect(b'{')?;
        let mut seed = None;
        let mut duration_secs = None;
        let mut faults = None;
        loop {
            let key = self.string()?;
            self.expect(b':')?;
            match key.as_str() {
                "seed" => seed = Some(self.number()?),
                "duration_secs" => duration_secs = Some(self.number()?),
                "faults" => {
                    self.expect(b'[')?;
                    let mut list = Vec::new();
                    if self.peek() == Some(b']') {
                        self.pos += 1;
                    } else {
                        loop {
                            list.push(self.fault()?);
                            match self.peek() {
                                Some(b',') => self.pos += 1,
                                Some(b']') => {
                                    self.pos += 1;
                                    break;
                                }
                                _ => {
                                    return Err(format!(
                                        "expected ',' or ']' at byte {}",
                                        self.pos
                                    ))
                                }
                            }
                        }
                    }
                    faults = Some(list);
                }
                other => return Err(format!("unknown schedule field {other:?}")),
            }
            match self.peek() {
                Some(b',') => self.pos += 1,
                Some(b'}') => {
                    self.pos += 1;
                    break;
                }
                _ => return Err(format!("expected ',' or '}}' at byte {}", self.pos)),
            }
        }
        Ok(FaultSchedule {
            seed: seed.ok_or("schedule missing \"seed\"")?,
            duration_secs: duration_secs.ok_or("schedule missing \"duration_secs\"")?,
            faults: faults.ok_or("schedule missing \"faults\"")?,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn json_round_trips_exactly() {
        let schedule = FaultSchedule {
            seed: 7,
            duration_secs: 300,
            faults: vec![
                ScheduledFault {
                    kind: TortureFaultKind::Operator(FaultType::ShutdownAbort),
                    at_secs: 42,
                },
                ScheduledFault { kind: TortureFaultKind::InstanceKill, at_secs: 120 },
            ],
        };
        let json = schedule.to_json();
        assert_eq!(
            json,
            "{\"seed\":7,\"duration_secs\":300,\"faults\":[\
             {\"fault\":\"shutdown_abort\",\"at_secs\":42},\
             {\"fault\":\"instance_kill\",\"at_secs\":120}]}"
        );
        let parsed = FaultSchedule::from_json(&json).unwrap();
        assert_eq!(parsed, schedule);
        // Canonical form is a fixed point.
        assert_eq!(parsed.to_json(), json);
    }

    #[test]
    fn parser_tolerates_whitespace_and_field_order() {
        let text = r#" { "faults" : [ { "at_secs" : 9 , "fault" : "delete_datafile" } ] ,
                        "duration_secs" : 60 , "seed" : 1 } "#;
        let parsed = FaultSchedule::from_json(text).unwrap();
        assert_eq!(parsed.seed, 1);
        assert_eq!(parsed.duration_secs, 60);
        assert_eq!(parsed.faults.len(), 1);
        assert_eq!(parsed.faults[0].kind, TortureFaultKind::Operator(FaultType::DeleteDatafile));
    }

    #[test]
    fn parser_rejects_garbage() {
        for bad in [
            "",
            "{}",
            "{\"seed\":1}",
            "{\"seed\":1,\"duration_secs\":2,\"faults\":[{\"fault\":\"nope\",\"at_secs\":1}]}",
            "{\"seed\":1,\"duration_secs\":2,\"faults\":[]} trailing",
        ] {
            assert!(FaultSchedule::from_json(bad).is_err(), "accepted {bad:?}");
        }
    }

    #[test]
    fn every_kind_round_trips_by_name() {
        for kind in TortureFaultKind::all_extended() {
            assert_eq!(TortureFaultKind::from_name(kind.name()), Some(kind));
            assert!(kind.name().chars().all(|c| c.is_ascii_lowercase() || c == '_'), "{kind}");
        }
        assert_eq!(TortureFaultKind::from_name("bogus"), None);
    }

    #[test]
    fn extended_set_extends_the_original_seven() {
        let legacy = TortureFaultKind::all();
        let extended = TortureFaultKind::all_extended();
        assert_eq!(legacy.len(), 7, "historical seeds depend on a 7-kind pool");
        assert_eq!(extended.len(), 16);
        assert_eq!(&extended[..7], &legacy[..], "legacy kinds keep their draw order");
        assert_eq!(&extended[7..12], &TortureFaultKind::storage()[..]);
        assert_eq!(&extended[12..], &TortureFaultKind::replica()[..]);
    }

    #[test]
    fn replica_schedule_json_round_trips_and_is_detected() {
        let schedule = FaultSchedule {
            seed: 13,
            duration_secs: 180,
            faults: vec![
                ScheduledFault {
                    kind: TortureFaultKind::Replica(ReplicaFaultType::KillPrimary),
                    at_secs: 40,
                },
                ScheduledFault {
                    kind: TortureFaultKind::Replica(ReplicaFaultType::KillPromoted),
                    at_secs: 90,
                },
            ],
        };
        let json = schedule.to_json();
        assert!(json.contains("\"fault\":\"kill_primary\""));
        assert!(json.contains("\"fault\":\"kill_promoted\""));
        let parsed = FaultSchedule::from_json(&json).unwrap();
        assert_eq!(parsed, schedule);
        assert_eq!(parsed.to_json(), json);
        assert!(schedule.has_replica_faults());
        assert!(!FaultSchedule::quiet(1, 60).has_replica_faults());

        let mut rng = SimRng::seed_from(3);
        let drawn = FaultSchedule::random_from(&mut rng, &TortureFaultKind::replica(), 6, 200, 20);
        assert!(drawn.faults.iter().all(|f| matches!(f.kind, TortureFaultKind::Replica(_))));
    }

    #[test]
    fn storage_schedule_json_round_trips() {
        let schedule = FaultSchedule {
            seed: 11,
            duration_secs: 120,
            faults: vec![
                ScheduledFault {
                    kind: TortureFaultKind::Storage(StorageFaultType::TornWrite),
                    at_secs: 30,
                },
                ScheduledFault {
                    kind: TortureFaultKind::Storage(StorageFaultType::DiskFull),
                    at_secs: 75,
                },
            ],
        };
        let json = schedule.to_json();
        assert!(json.contains("\"fault\":\"torn_write\""));
        assert!(json.contains("\"fault\":\"disk_full\""));
        let parsed = FaultSchedule::from_json(&json).unwrap();
        assert_eq!(parsed, schedule);
        assert_eq!(parsed.to_json(), json);
    }

    #[test]
    fn random_storage_draws_only_storage_kinds() {
        let mut a = SimRng::seed_from(5);
        let mut b = SimRng::seed_from(5);
        let s1 = FaultSchedule::random_from(&mut a, &TortureFaultKind::storage(), 8, 200, 20);
        let s2 = FaultSchedule::random_from(&mut b, &TortureFaultKind::storage(), 8, 200, 20);
        assert_eq!(s1, s2);
        assert_eq!(s1.faults.len(), 8);
        for f in &s1.faults {
            assert!(
                matches!(f.kind, TortureFaultKind::Storage(_)),
                "non-storage kind {} in storage faultload",
                f.kind
            );
            assert!((20..200).contains(&f.at_secs));
        }
    }

    #[test]
    fn random_schedules_are_deterministic_and_in_range() {
        let mut a = SimRng::seed_from(99);
        let mut b = SimRng::seed_from(99);
        let s1 = FaultSchedule::random_from(&mut a, &TortureFaultKind::all(), 5, 300, 30);
        let s2 = FaultSchedule::random_from(&mut b, &TortureFaultKind::all(), 5, 300, 30);
        assert_eq!(s1, s2);
        assert_eq!(s1.faults.len(), 5);
        for f in &s1.faults {
            assert!((30..300).contains(&f.at_secs), "at_secs {} out of range", f.at_secs);
        }
        // Sorted view is by time.
        let sorted = s1.sorted_faults();
        assert!(sorted.windows(2).all(|w| w[0].at_secs <= w[1].at_secs));
    }
}
