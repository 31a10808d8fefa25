//! Fixed-input loops on single public functions, one per layer hot path.
//! They supersede `campaign_wallclock`'s `micro_ns` block: the inputs never
//! change with the seed or the workload, so a probe moves only when the
//! function it calls does.

use std::hint::black_box;
use std::sync::Arc;

use recobench_core::RecoveryConfig;
use recobench_engine::cache::BufferCache;
use recobench_engine::catalog::IndexDef;
use recobench_engine::codec::{crc32, Reader, Writer};
use recobench_engine::index::Index;
use recobench_engine::page::BlockImage;
use recobench_engine::redo::{decode_stream, RedoOp, RedoRecord};
use recobench_engine::row::encode_key_into;
use recobench_engine::txn::LockTable;
use recobench_engine::types::FileNo;
use recobench_engine::{
    DbServer, DiskLayout, DmlChange, EngineEvent, FailoverPolicy, LockOutcome, ObjectId,
    RecoveryPhase, ReplicaSet, ReplicaTopology, Row, RowId, Scn, TxnId, Value,
};
use recobench_faults::FaultSchedule;
use recobench_oracle::RefModel;
use recobench_sim::disk::IoKind;
use recobench_sim::{Disk, DiskProfile, EventQueue, SimClock, SimDuration, SimRng, SimTime};
use recobench_tpcc::TpccScale;
use recobench_vfs::fs::{FileKind, SimFs};
use recobench_vfs::snapshot::FsSnapshot;

use crate::stats::{median, ms_between, now};
use crate::workloads::fresh_database;

/// Sizes every probe: how long its three timed batches may run in total.
#[derive(Debug, Clone, Copy)]
pub struct Budget {
    pub ms: f64,
}

impl Budget {
    /// Nanoseconds per call of `f`. Doubling batches find how many calls
    /// fill a third of the budget; three batches of that size are timed and
    /// the median batch is reported.
    fn per_call_ns<R>(self, mut f: impl FnMut() -> R) -> f64 {
        let mut batch = |iters: u64| {
            let start = now();
            for _ in 0..iters {
                black_box(f());
            }
            ms_between(start, now())
        };
        let share_ms = self.ms / 3.0;
        let mut iters = 1;
        while iters < 1 << 24 && batch(iters) < share_ms / 8.0 {
            iters *= 2;
        }
        let per_call_ms = (batch(iters) / iters as f64).max(1e-9);
        let iters = ((share_ms / per_call_ms) as u64).clamp(1, 1 << 24);
        median(&[batch(iters), batch(iters), batch(iters)]) * 1e6 / iters as f64
    }
}

fn sample_row() -> Row {
    Row::new(vec![
        Value::U64(42),
        Value::U64(7),
        Value::I64(-1234),
        Value::from("CUSTOMERLASTNAME"),
        Value::from("some-filler-data-some-filler-data-some-filler-data"),
    ])
}

fn rid(n: u32) -> RowId {
    RowId {
        file: FileNo(1),
        block: n / 20,
        slot: (n % 20) as u16,
    }
}

/// A row whose first three columns spread `n` like a TPC-C (w, d, id) key.
fn keyed_row(n: u32) -> Row {
    Row::new(vec![
        Value::U64(u64::from(n % 2)),
        Value::U64(u64::from(n / 2 % 10)),
        Value::U64(u64::from(n / 20)),
        Value::from("payload-payload-payload"),
    ])
}

fn index_def(ordered: bool) -> IndexDef {
    IndexDef {
        name: "PK".into(),
        cols: vec![0, 1, 2],
        unique: true,
        ordered,
    }
}

fn full_block() -> BlockImage {
    let mut img = BlockImage::empty();
    for slot in 0..20 {
        img.put(slot, sample_row(), Scn(u64::from(slot)));
    }
    img
}

fn update_record() -> RedoRecord {
    RedoRecord {
        scn: Scn(99),
        txn: Some(TxnId(7)),
        op: RedoOp::Update {
            obj: ObjectId(3),
            rid: rid(184),
            before: sample_row(),
            after: sample_row(),
        },
    }
}

fn index_probes(budget: Budget, out: &mut Vec<(&'static str, f64)>) {
    const KEYS: u32 = 10_000;
    let rows: Vec<(RowId, Row)> = (0..KEYS).map(|n| (rid(n), keyed_row(n))).collect();
    let key_of = |n: u32| {
        [
            Value::U64(u64::from(n % 2)),
            Value::U64(u64::from(n / 2 % 10)),
            Value::U64(u64::from(n / 20)),
        ]
    };
    let mut point = Index::new(index_def(false));
    let mut ordered = Index::new(index_def(true));
    point.bulk_load(&rows);
    ordered.bulk_load(&rows);
    let mut n = 0u32;
    out.push((
        "engine.index.point_probe_ns",
        budget.per_call_ns(|| {
            n = (n + 7_919) % KEYS;
            point.lookup_ref(&key_of(n)).len()
        }),
    ));
    out.push((
        "engine.index.ordered_probe_ns",
        budget.per_call_ns(|| {
            n = (n + 7_919) % KEYS;
            let key = key_of(n);
            ordered
                .last_under_prefix(&key[..2])
                .map(|(_, rids)| rids.len())
        }),
    ));
    out.push((
        "engine.index.insert_ns",
        budget.per_call_ns(|| {
            let mut fresh = Index::new(index_def(true));
            for (rid, row) in &rows {
                fresh.insert(row, *rid).expect("keys are unique");
            }
            fresh.key_count()
        }) / f64::from(KEYS),
    ));
    out.push((
        "engine.index.bulk_load_ns_per_key",
        budget.per_call_ns(|| {
            let mut fresh = Index::new(index_def(true));
            fresh.bulk_load(&rows);
            fresh.key_count()
        }) / f64::from(KEYS),
    ));
}

fn codec_probes(budget: Budget, out: &mut Vec<(&'static str, f64)>) {
    let row = sample_row();
    let mut w = Writer::new();
    out.push((
        "engine.row.encode_ns",
        budget.per_call_ns(|| {
            w.truncate(0);
            row.encode_into(&mut w);
            w.len()
        }),
    ));
    let key = [Value::U64(1), Value::U64(2), Value::U64(3)];
    let mut key_buf = Vec::with_capacity(32);
    out.push((
        "engine.row.key_encode_ns",
        budget.per_call_ns(|| {
            key_buf.clear();
            encode_key_into(&key, &mut key_buf);
            key_buf.len()
        }),
    ));

    let rec = update_record();
    out.push((
        "engine.redo.record_encode_ns",
        budget.per_call_ns(|| {
            w.truncate(0);
            rec.encode_into(&mut w);
            w.len()
        }),
    ));
    let encoded = rec.encode();
    out.push((
        "engine.redo.record_decode_ns",
        budget.per_call_ns(|| {
            RedoRecord::decode_from(&mut Reader::new(encoded.clone())).expect("round trip")
        }),
    ));
    // One 1 MB log sequence, as the archiver hands it to recovery.
    let mut stream = Writer::new();
    while stream.len() < 1 << 20 {
        rec.encode_into(&mut stream);
    }
    let stream_mb = stream.len() as f64 / (1 << 20) as f64;
    let segments = [stream.into_bytes()];
    let ns = budget.per_call_ns(|| {
        decode_stream(&segments, 0)
            .expect("well-formed stream")
            .len()
    });
    out.push(("engine.redo.decode_stream_mb_per_s", stream_mb / (ns / 1e9)));

    let img = full_block();
    out.push((
        "engine.page.block_encode_us",
        budget.per_call_ns(|| {
            w.truncate(0);
            img.encode_into(&mut w);
            w.len()
        }) / 1e3,
    ));
    let block = img.encode();
    out.push((
        "engine.page.block_decode_us",
        budget.per_call_ns(|| BlockImage::decode(block.clone()).expect("round trip")) / 1e3,
    ));
    let ns = budget.per_call_ns(|| crc32(&block));
    out.push((
        "engine.codec.crc32_mb_per_s",
        block.len() as f64 / (1 << 20) as f64 / (ns / 1e9),
    ));
}

fn lock_probes(budget: Budget, out: &mut Vec<(&'static str, f64)>) {
    let (a, b) = (TxnId(1), TxnId(2));
    let obj = ObjectId(1);
    let (r0, r1) = (rid(20), rid(21));
    // Hold -> contended wait -> release granting the waiter -> final
    // release: the lock manager's full hand-off path.
    let mut table = LockTable::new();
    out.push((
        "engine.txn.lock_grant_cycle_ns",
        budget.per_call_ns(|| {
            table.lock_row(a, obj, r0, SimTime::ZERO);
            table.lock_row(b, obj, r0, SimTime::from_micros(5));
            let grants = table.release_all(a, &[(obj, r0)], SimTime::from_micros(9));
            table.release_all(b, &[(obj, r0)], SimTime::from_micros(12));
            grants.len()
        }),
    ));
    // Two crossed holders: the closing request walks the waits-for chain
    // and is refused as the victim.
    let mut table = LockTable::new();
    out.push((
        "engine.txn.deadlock_detect_ns",
        budget.per_call_ns(|| {
            table.lock_row(a, obj, r0, SimTime::ZERO);
            table.lock_row(b, obj, r1, SimTime::ZERO);
            table.lock_row(a, obj, r1, SimTime::from_micros(3));
            let refused = table.lock_row(b, obj, r0, SimTime::from_micros(5));
            table.release_all(b, &[(obj, r1)], SimTime::from_micros(8));
            table.release_all(a, &[(obj, r0), (obj, r1)], SimTime::from_micros(9));
            matches!(refused, LockOutcome::Deadlock { .. })
        }),
    ));
}

fn cache_probes(budget: Budget, out: &mut Vec<(&'static str, f64)>) {
    const CAPACITY: u32 = 384;
    let img = full_block();
    let mut cache = BufferCache::new(CAPACITY as usize);
    for block in 0..CAPACITY {
        cache.insert((FileNo(1), block), img.clone());
    }
    let mut n = 0u32;
    out.push((
        "engine.cache.hit_ns",
        budget.per_call_ns(|| {
            n = (n + 151) % CAPACITY;
            cache.get((FileNo(1), n)).map(BlockImage::row_count)
        }),
    ));
    // Every insert names a block the full cache has never held, so each
    // one evicts the least recently used frame. Cloning the 20-row image
    // is part of the miss path: a real miss decodes a fresh one.
    let mut next = CAPACITY;
    out.push((
        "engine.cache.miss_evict_ns",
        budget.per_call_ns(|| {
            next += 1;
            cache.insert((FileNo(2), next), img.clone()).map(|e| e.key)
        }),
    ));
}

fn sim_probes(budget: Budget, out: &mut Vec<(&'static str, f64)>) {
    // Twelve terminals' worth of pending events, like the driver's queue.
    let mut queue = EventQueue::new();
    for t in 0..12u64 {
        queue.push(SimTime::from_micros(t * 31), t);
    }
    out.push((
        "sim.queue.push_pop_ns",
        budget.per_call_ns(|| {
            let (at, t) = queue.pop().expect("queue never drains");
            queue.push(at + SimDuration::from_micros(340 + t), t);
            t
        }),
    ));
    let mut rng = SimRng::seed_from(1);
    out.push(("sim.rng.next_ns", budget.per_call_ns(|| rng.next_u64())));
    let mut disk = Disk::new(DiskProfile::server_2000());
    let mut at = SimTime::ZERO;
    out.push((
        "sim.disk.service_ns",
        budget.per_call_ns(|| {
            at = disk.submit(at, IoKind::Write, 8_192, false);
            at
        }),
    ));
}

fn vfs_probes(
    budget: Budget,
    out: &mut Vec<(&'static str, f64)>,
    loaded: &DbServer,
) -> Result<(), String> {
    const BLOCKS: u64 = 768;
    let err = |e| format!("vfs probe: {e}");
    let mut fs = SimFs::new(vec![DiskProfile::server_2000(); 4]);
    let disk = fs.disk_ids()[0];
    let file = fs
        .create_block_file("/probe/data.dbf", disk, FileKind::Data, 8_192, BLOCKS)
        .map_err(err)?;
    let block = full_block().encode();
    let mut n = 0u64;
    out.push((
        "vfs.fs.write_block_ns",
        budget.per_call_ns(|| {
            n = (n + 151) % BLOCKS;
            fs.write_block(file, n, block.clone(), SimTime::ZERO)
                .expect("write in range")
        }),
    ));
    for n in 0..BLOCKS {
        fs.write_block(file, n, block.clone(), SimTime::ZERO)
            .map_err(err)?;
    }
    out.push((
        "vfs.fs.read_block_ns",
        budget.per_call_ns(|| {
            n = (n + 151) % BLOCKS;
            fs.read_block(file, n, SimTime::ZERO)
                .expect("read in range")
                .1
                .len()
        }),
    ));
    // A commit-sized redo flush; the log is truncated every 4 096 appends
    // so the probe's memory stays flat however long it runs.
    let log = fs
        .create_append_file("/probe/redo.log", disk, FileKind::Redo)
        .map_err(err)?;
    let flush = update_record().encode();
    let mut appended = 0u32;
    out.push((
        "vfs.fs.append_ns",
        budget.per_call_ns(|| {
            appended += 1;
            if appended.is_multiple_of(4_096) {
                fs.truncate(log).expect("log exists");
            }
            fs.append(log, flush.clone(), SimTime::ZERO)
                .expect("append succeeds")
        }),
    ));
    // A loaded tiny database's whole filesystem, as campaign templating
    // captures and re-materializes it once per cell.
    let loaded_fs = loaded.fs().lock();
    out.push((
        "vfs.snapshot.capture_us",
        budget.per_call_ns(|| FsSnapshot::capture(&loaded_fs).id()) / 1e3,
    ));
    let snapshot = FsSnapshot::capture(&loaded_fs);
    out.push((
        "vfs.snapshot.materialize_us",
        budget.per_call_ns(|| snapshot.materialize().disk_ids().len()) / 1e3,
    ));
    Ok(())
}

fn observer_probes(budget: Budget, out: &mut Vec<(&'static str, f64)>, loaded: &mut DbServer) {
    // One single-row transaction through the reference model's tap.
    let mut model = RefModel::empty();
    let row = sample_row();
    let mut n = 0u64;
    out.push((
        "oracle.model.observe_ns",
        budget.per_call_ns(|| {
            n += 1;
            let txn = TxnId(n);
            model.observe(&DmlChange::Update {
                txn,
                obj: ObjectId(3),
                rid: rid((n % 4_000) as u32),
                row: row.clone(),
            });
            model.observe(&DmlChange::Commit { txn, scn: Scn(n) });
        }) / 2.0,
    ));
    let event = EngineEvent::PhaseSpan {
        phase: RecoveryPhase::RedoApply,
        started_at: SimTime::from_secs(1),
    };
    out.push((
        "engine.events.emit_ns",
        budget.per_call_ns(|| loaded.emit(event.clone())),
    ));
    let mut line = String::with_capacity(256);
    out.push((
        "engine.events.write_json_ns",
        budget.per_call_ns(|| {
            line.clear();
            event.write_json(SimTime::from_secs(2), "PRIMARY", &mut line);
            line.len()
        }),
    ));
    let text = r#"{"seed":7,"duration_secs":300,"faults":[{"fault":"shutdown_abort","at_secs":60},{"fault":"delete_datafile","at_secs":120},{"fault":"instance_kill","at_secs":200},{"fault":"delete_users_object","at_secs":250}]}"#;
    out.push((
        "faults.schedule.parse_us",
        budget.per_call_ns(|| FaultSchedule::from_json(text).map(|s| s.faults.len())) / 1e3,
    ));
}

fn replica_probes(
    budget: Budget,
    out: &mut Vec<(&'static str, f64)>,
    config: &RecoveryConfig,
    loaded: &DbServer,
) -> Result<(), String> {
    let err = |e| format!("replica probe: {e}");
    // Each measurement gets its own primary (booted from one image) so a
    // fail-over can kill it.
    let image = loaded.snapshot();
    let protected = || -> Result<(DbServer, ReplicaSet), String> {
        let clock = SimClock::shared();
        let primary = DbServer::from_snapshot(Arc::clone(&clock), &image);
        let set = ReplicaSet::instantiate(
            &primary,
            &ReplicaTopology::single(),
            FailoverPolicy::Manual,
            clock,
            DiskLayout::four_disk(),
            config.to_instance_config(true),
        )
        .map_err(err)?;
        Ok((primary, set))
    };
    // The per-step tax of a protected experiment: a sync with nothing new
    // to ship.
    let (primary, mut set) = protected()?;
    set.sync_all(&primary).map_err(err)?;
    out.push((
        "engine.replica.sync_all_us",
        budget.per_call_ns(|| set.sync_all(&primary).is_ok()) / 1e3,
    ));
    // Promotion of a caught-up stand-by after the primary dies;
    // instantiating the pair is untimed.
    let mut samples = Vec::new();
    for _ in 0..5 {
        let (mut primary, mut set) = protected()?;
        primary.shutdown_abort().map_err(err)?;
        let start = now();
        let ready = set.fail_over(Some(&mut primary)).map_err(err)?;
        samples.push(ms_between(start, now()));
        if ready.is_none() {
            return Err("replica probe: fail-over promoted nobody".into());
        }
    }
    out.push(("engine.replica.fail_over_ms", median(&samples)));
    Ok(())
}

/// Every probe, as `(metric name, value)`.
pub fn run_all(budget: Budget) -> Result<Vec<(&'static str, f64)>, String> {
    let config = RecoveryConfig::named("F10G3T5").expect("a Table 3 configuration");
    let (mut loaded, ..) = fresh_database("PROBE", &config, TpccScale::tiny(), 1, &mut None)
        .map_err(|e| format!("probe database: {e}"))?;
    let mut out = Vec::new();
    sim_probes(budget, &mut out);
    index_probes(budget, &mut out);
    codec_probes(budget, &mut out);
    lock_probes(budget, &mut out);
    cache_probes(budget, &mut out);
    vfs_probes(budget, &mut out, &loaded)?;
    replica_probes(budget, &mut out, &config, &loaded)?;
    observer_probes(budget, &mut out, &mut loaded);
    Ok(out)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn per_call_ns_scales_with_the_work() {
        let budget = Budget { ms: 30.0 };
        let spin = |n: u64| budget.per_call_ns(move || (0..n).fold(0u64, |a, b| black_box(a ^ b)));
        let (small, large) = (spin(100), spin(10_000));
        assert!(small > 0.0);
        assert!(
            large > small * 10.0,
            "100x the work must cost well over 10x: {small} vs {large}"
        );
    }
}
