//! In-memory indexes over heap rows.
//!
//! Indexes are maintained transactionally during normal operation and
//! re-derived when a recovery opens the instance: the entries of the
//! blocks it changed are derived from the heap, the rest kept
//! (`Index::rederive`; a full [`Index::bulk_load`] without an exact
//! base). Their I/O is not
//! separately modelled: conceptually index blocks live in the same
//! datafiles as the heap (see DESIGN.md §2 for this simplification).

use std::borrow::Borrow;
use std::cell::{Cell, RefCell};
use std::collections::btree_map::Entry;
use std::collections::BTreeMap;
use std::ops::Bound;

use crate::catalog::IndexDef;
use crate::error::{DbError, DbResult};
use crate::fasthash::FastMap;
use crate::row::{encode_key_into, Row, Value};
use crate::types::RowId;

thread_local! {
    /// Scratch buffer for `&self` key probes. Thread-local rather than a
    /// per-index `RefCell` so `Index` stays `Sync`: campaign workers share
    /// read-only snapshot templates (which contain indexes) across threads,
    /// and a parked stage's `Arc`-shared index sets are read by its forks
    /// on other workers.
    static PROBE_SCRATCH: RefCell<Vec<u8>> = const { RefCell::new(Vec::new()) };

    /// The match list of a prefix scan whose caller is done with it before
    /// it returns: taken out, filled by [`Index::prefix_scan_into`], and
    /// put back with the capacity it grew to.
    pub(crate) static RID_SCRATCH: Cell<Vec<RowId>> = const { Cell::new(Vec::new()) };
}

/// Row addresses under one key. Almost every index key maps to exactly
/// one row (all but two TPC-C indexes are unique), so the single-rid
/// case stays inline and pays no heap allocation.
#[derive(Debug, Clone, PartialEq, Eq)]
enum RidSet {
    One(RowId),
    Many(Vec<RowId>),
}

impl RidSet {
    fn as_slice(&self) -> &[RowId] {
        match self {
            RidSet::One(r) => std::slice::from_ref(r),
            RidSet::Many(v) => v.as_slice(),
        }
    }

    fn contains(&self, rid: &RowId) -> bool {
        self.as_slice().contains(rid)
    }

    fn is_empty(&self) -> bool {
        matches!(self, RidSet::Many(v) if v.is_empty())
    }

    fn len(&self) -> usize {
        match self {
            RidSet::One(_) => 1,
            RidSet::Many(v) => v.len(),
        }
    }

    fn push(&mut self, rid: RowId) {
        match self {
            RidSet::One(r) => *self = RidSet::Many(vec![*r, rid]),
            RidSet::Many(v) => v.push(rid),
        }
    }

    /// Removes `rid` if present; returns whether the set is now empty
    /// (the caller then removes the key).
    fn remove(&mut self, rid: RowId) -> bool {
        match self {
            RidSet::One(r) => *r == rid,
            RidSet::Many(v) => {
                v.retain(|x| *x != rid);
                v.is_empty()
            }
        }
    }
}

/// Encoded key bytes with inline storage for the common short key.
///
/// Encoded TPC-C keys are a handful of tag-prefixed integer columns
/// (9 bytes each), so nearly every key fits inline and tree descents
/// compare bytes stored in the node itself instead of chasing a heap
/// pointer per comparison. Long (string) keys spill to a `Vec`.
#[derive(Clone)]
enum KeyBuf {
    Inline(u8, [u8; KeyBuf::INLINE]),
    Heap(Vec<u8>),
}

impl KeyBuf {
    /// Four tagged u64 columns (36 bytes) — the widest numeric PK — fit.
    const INLINE: usize = 38;

    fn from_slice(b: &[u8]) -> Self {
        let mut buf = [0u8; Self::INLINE];
        match buf.get_mut(..b.len()) {
            Some(head) => {
                head.copy_from_slice(b);
                KeyBuf::Inline(b.len() as u8, buf)
            }
            None => KeyBuf::Heap(b.to_vec()),
        }
    }

    fn as_slice(&self) -> &[u8] {
        match self {
            KeyBuf::Inline(n, buf) => &buf[..*n as usize],
            KeyBuf::Heap(v) => v,
        }
    }
}

// Ordering delegates to the byte slice, which keeps `Ord` consistent
// with the `Borrow<[u8]>` impl below (a `BTreeMap` requirement).
impl PartialEq for KeyBuf {
    fn eq(&self, other: &Self) -> bool {
        self.as_slice() == other.as_slice()
    }
}

impl Eq for KeyBuf {}

impl PartialOrd for KeyBuf {
    fn partial_cmp(&self, other: &Self) -> Option<std::cmp::Ordering> {
        Some(self.cmp(other))
    }
}

impl Ord for KeyBuf {
    fn cmp(&self, other: &Self) -> std::cmp::Ordering {
        self.as_slice().cmp(other.as_slice())
    }
}

impl Borrow<[u8]> for KeyBuf {
    fn borrow(&self) -> &[u8] {
        self.as_slice()
    }
}

impl std::fmt::Debug for KeyBuf {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        self.as_slice().fmt(f)
    }
}

// Hashing also delegates to the byte slice, so hash-map probes by
// borrowed `&[u8]` land on the same bucket as the owned key.
impl std::hash::Hash for KeyBuf {
    fn hash<H: std::hash::Hasher>(&self, state: &mut H) {
        self.as_slice().hash(state);
    }
}

/// Backing store for one index: sorted tree when the schema declares the
/// index range-scannable, fixed-seed hash map when every probe carries
/// the full key. The hash probe is several times cheaper than a tree
/// descent, and the fixed seed keeps iteration deterministic for a given
/// insertion sequence.
#[derive(Debug, Clone)]
enum KeyStore {
    Ordered(BTreeMap<KeyBuf, RidSet>),
    Point(FastMap<KeyBuf, RidSet>),
}

impl KeyStore {
    fn get(&self, key: &[u8]) -> Option<&RidSet> {
        match self {
            KeyStore::Ordered(m) => m.get(key),
            KeyStore::Point(m) => m.get(key),
        }
    }

    fn get_mut(&mut self, key: &[u8]) -> Option<&mut RidSet> {
        match self {
            KeyStore::Ordered(m) => m.get_mut(key),
            KeyStore::Point(m) => m.get_mut(key),
        }
    }

    fn remove_key(&mut self, key: &[u8]) {
        match self {
            KeyStore::Ordered(m) => {
                m.remove(key);
            }
            KeyStore::Point(m) => {
                m.remove(key);
            }
        }
    }

    /// The occupied-or-vacant insert step shared by [`Index::insert`] and
    /// [`Index::replace`]: one descent/probe covers the existence check
    /// and the insertion.
    fn insert_rid(&mut self, owned: KeyBuf, rid: RowId, unique: bool, name: &str) -> DbResult<()> {
        match self {
            KeyStore::Ordered(m) => match m.entry(owned) {
                Entry::Occupied(mut o) => Self::add_to(o.get_mut(), rid, unique, name),
                Entry::Vacant(v) => {
                    v.insert(RidSet::One(rid));
                    Ok(())
                }
            },
            KeyStore::Point(m) => match m.entry(owned) {
                std::collections::hash_map::Entry::Occupied(mut o) => {
                    Self::add_to(o.get_mut(), rid, unique, name)
                }
                std::collections::hash_map::Entry::Vacant(v) => {
                    v.insert(RidSet::One(rid));
                    Ok(())
                }
            },
        }
    }

    fn add_to(entry: &mut RidSet, rid: RowId, unique: bool, name: &str) -> DbResult<()> {
        if entry.contains(&rid) {
            Ok(())
        } else if unique && !entry.is_empty() {
            Err(DbError::DuplicateKey { index: name.to_string() })
        } else {
            entry.push(rid);
            Ok(())
        }
    }
}

/// One index: an ordered map from encoded key to row addresses.
///
/// Key probes encode into a reusable scratch buffer and look the map up
/// by borrowed `&[u8]`, so the per-probe `Vec<u8>` allocation the old
/// implementation paid is gone. Mutating operations reuse the index's own
/// buffers; `&self` probes use a thread-local one.
#[derive(Debug, Clone)]
pub struct Index {
    def: IndexDef,
    map: KeyStore,
    /// Whether building this unique index dropped a row whose key a
    /// lower rid already held: its entries then no longer say which rows
    /// the heap holds, so only a full scan can re-derive it.
    shadowed: bool,
    scratch: Vec<u8>,
    /// Second scratch for operations that need two keys at once
    /// ([`Index::replace`]).
    scratch2: Vec<u8>,
}

impl Index {
    /// Creates an empty index for `def`.
    pub fn new(def: IndexDef) -> Self {
        let map = if def.ordered {
            KeyStore::Ordered(BTreeMap::new())
        } else {
            KeyStore::Point(FastMap::default())
        };
        Index {
            def,
            map,
            shadowed: false,
            scratch: Vec::with_capacity(32),
            scratch2: Vec::with_capacity(32),
        }
    }

    /// The definition this index implements.
    pub fn def(&self) -> &IndexDef {
        &self.def
    }

    /// Encodes the row's key for this index into `out` (cleared first),
    /// straight from the row's stored columns.
    ///
    /// Missing columns index as `Null` (rows shorter than the key spec).
    pub(crate) fn key_of_into(&self, row: &Row, out: &mut Vec<u8>) {
        out.clear();
        row.key_into(&self.def.cols, out);
    }

    /// Whether an update from `before` to `after` moves this index's key.
    ///
    /// Compares the key columns directly, so callers can skip encoding
    /// (and uniqueness probes) for updates that leave the key in place.
    pub fn key_changed(&self, before: &Row, after: &Row) -> bool {
        before.differs_on(after, &self.def.cols)
    }

    /// Adds `rid` under the row's key.
    ///
    /// # Errors
    ///
    /// Fails with [`DbError::DuplicateKey`] on a unique index whose key is
    /// already mapped to a different row.
    pub fn insert(&mut self, row: &Row, rid: RowId) -> DbResult<()> {
        let mut key = std::mem::take(&mut self.scratch);
        self.key_of_into(row, &mut key);
        let owned = KeyBuf::from_slice(&key);
        self.scratch = key;
        // One descent/probe covers both the existence check and the
        // insertion; the inline key costs no allocation to build.
        self.map.insert_rid(owned, rid, self.def.unique, &self.def.name)
    }

    /// Rebuilds the index wholesale from `rows`, replacing any current
    /// contents. Every key ends up with its rids ascending, and a unique
    /// index keeps the lowest rid of a duplicated key: the sort fixes that
    /// order, not the order of `rows` — a heap scan is in extent order, not
    /// rid order (extents alternate over datafiles), so under a key several
    /// rows hold this is not what inserting them one by one would build.
    /// One sort over the extracted keys instead of a tree descent or hash
    /// probe per row — recovery rebuilds hundreds of thousands of entries,
    /// where the difference is a measurable slice of time-to-open.
    pub fn bulk_load(&mut self, rows: &[(RowId, Row)]) {
        let pairs = self.sorted_pairs(rows);
        self.shadowed = false;
        let (grouped, _) = self.merge(&mut std::iter::empty(), pairs.len(), &|_| false, pairs);
        self.install(grouped);
    }

    /// What [`Index::bulk_load`] over the heap builds, derived from this
    /// index — which matched the heap before the blocks `changed` names
    /// changed — and `fresh`, the rows those blocks hold now. The entries
    /// of unchanged blocks are kept, the changed blocks' are replaced, and
    /// the result is built fresh from the merged sorted entries, so it is
    /// as compact as a bulk-built index and its rids ascend under every
    /// key even where forward inserts appended them out of order. Returns
    /// it with how many of this index's entries it kept, or `None` if this
    /// index is [shadowed](Index::proven_by): which row holds a
    /// duplicated unique key is then known only to the heap.
    pub(crate) fn rederive(
        &self,
        changed: &dyn Fn(RowId) -> bool,
        fresh: &[(RowId, Row)],
    ) -> Option<(Index, usize)> {
        if self.shadowed {
            return None;
        }
        let mut out = Index::new(self.def.clone());
        let added = out.sorted_pairs(fresh);
        let capacity = self.key_count() + added.len();
        let (grouped, kept) = match &self.map {
            KeyStore::Ordered(m) => out.merge(&mut m.iter(), capacity, changed, added),
            KeyStore::Point(m) => {
                let mut old: Vec<(&KeyBuf, &RidSet)> = m.iter().collect();
                old.sort_unstable_by(|a, b| a.0.cmp(b.0));
                out.merge(&mut old.into_iter(), capacity, changed, added)
            }
        };
        out.install(grouped);
        Some((out, kept))
    }

    /// How many of this index's entries lie outside the blocks `changed`
    /// names, if it is what [`Index::rederive`] would build from it and
    /// `fresh`, the rows those blocks hold now: it must be canonical —
    /// what [`Index::bulk_load`] over its own rows builds, every key's rids
    /// ascending (forward inserts append them in insertion order) and no
    /// duplicated unique key dropped — and its entries inside those blocks
    /// must be exactly `fresh`'s `(key, rid)` pairs. One walk over the
    /// index; `None` if either fails.
    pub(crate) fn proven_by(&self, changed: impl Fn(RowId) -> bool, fresh: &[(RowId, Row)]) -> Option<usize> {
        if self.shadowed {
            return None;
        }
        let mut inside = Vec::with_capacity(fresh.len());
        let kept = match &self.map {
            KeyStore::Ordered(m) => self.split_entries(m.iter(), &changed, &mut inside)?,
            KeyStore::Point(m) => {
                let kept = self.split_entries(m.iter(), &changed, &mut inside)?;
                inside.sort_unstable();
                kept
            }
        };
        if inside.len() != fresh.len() {
            return None;
        }
        let mut key = Vec::new();
        let mut pairs: Vec<(KeyBuf, RowId)> = Vec::with_capacity(fresh.len());
        for (rid, row) in fresh {
            self.key_of_into(row, &mut key);
            pairs.push((KeyBuf::from_slice(&key), *rid));
        }
        pairs.sort_unstable();
        inside.into_iter().eq(pairs.iter().map(|(k, rid)| (k.as_slice(), *rid))).then_some(kept)
    }

    /// [`Index::proven_by`]'s walk over `entries`: pushes onto `inside`
    /// the `(key, rid)` pairs whose rid `changed` names, in walk order (an
    /// ordered index walks in key order, each key's rids ascending), and
    /// returns how many others there are; `None` if a non-unique key's
    /// rids do not ascend.
    fn split_entries<'a>(
        &self,
        entries: impl Iterator<Item = (&'a KeyBuf, &'a RidSet)>,
        changed: &impl Fn(RowId) -> bool,
        inside: &mut Vec<(&'a [u8], RowId)>,
    ) -> Option<usize> {
        let mut kept = 0;
        for (key, set) in entries {
            let rids = set.as_slice();
            if !self.def.unique && !rids.is_sorted_by(|a, b| a < b) {
                return None;
            }
            for &rid in rids {
                if changed(rid) {
                    inside.push((key.as_slice(), rid));
                } else {
                    kept += 1;
                }
            }
        }
        Some(kept)
    }

    /// Whether `other` has the same definition and entries, each key's
    /// rids in the same order. A point index's bucket order follows its
    /// insertion history and is not compared.
    pub(crate) fn same_entries(&self, other: &Index) -> bool {
        fn sorted(ix: &Index) -> Vec<(&[u8], &[RowId])> {
            let mut entries: Vec<(&[u8], &[RowId])> = ix.entries().collect();
            entries.sort_unstable_by_key(|(k, _)| *k);
            entries
        }
        self.def == other.def && self.shadowed == other.shadowed && sorted(self) == sorted(other)
    }

    /// The `(key, rid)` pairs of `rows` under this index, sorted.
    fn sorted_pairs(&mut self, rows: &[(RowId, Row)]) -> Vec<(KeyBuf, RowId)> {
        let mut key = std::mem::take(&mut self.scratch);
        let mut pairs: Vec<(KeyBuf, RowId)> = Vec::with_capacity(rows.len());
        for (rid, row) in rows {
            self.key_of_into(row, &mut key);
            pairs.push((KeyBuf::from_slice(&key), *rid));
        }
        self.scratch = key;
        // The pairs arrive as long ascending runs (tables are loaded in key
        // order), which the run-merging stable sort exploits; every pair is
        // distinct, so stability itself changes nothing.
        pairs.sort();
        pairs
    }

    /// Merges `old` entries (in key order; rids `changed` names are
    /// dropped) with `added` pairs (sorted) into at most `capacity`
    /// key-ordered groups of ascending rids, a unique key keeping its
    /// lowest rid; marks the index shadowed if that drops one. Returns the
    /// groups and how many old rids were kept.
    fn merge<'a>(
        &mut self,
        old: &mut dyn Iterator<Item = (&'a KeyBuf, &'a RidSet)>,
        capacity: usize,
        changed: &dyn Fn(RowId) -> bool,
        added: Vec<(KeyBuf, RowId)>,
    ) -> (Vec<(KeyBuf, RidSet)>, usize) {
        let (mut old, mut added) = (old.peekable(), added.into_iter().peekable());
        let mut grouped: Vec<(KeyBuf, RidSet)> = Vec::with_capacity(capacity);
        let (mut kept, mut rids) = (0, Vec::new());
        loop {
            // The next key is the lower of the two streams' heads.
            let key = match (old.peek(), added.peek()) {
                (None, None) => break,
                (Some((o, _)), Some((a, _))) if a < *o => a.clone(),
                (Some((o, _)), _) => (*o).clone(),
                (None, Some((a, _))) => a.clone(),
            };
            rids.clear();
            if let Some((_, set)) = old.next_if(|(o, _)| **o == key) {
                rids.extend(set.as_slice().iter().filter(|r| !changed(**r)));
                kept += rids.len();
            }
            while let Some((_, rid)) = added.next_if(|(a, _)| *a == key) {
                rids.push(rid);
            }
            if rids.is_empty() {
                continue;
            }
            if rids.len() > 1 {
                rids.sort_unstable();
                if self.def.unique {
                    self.shadowed = true;
                    rids.truncate(1);
                }
            }
            let set = match rids.as_slice() {
                [one] => RidSet::One(*one),
                many => RidSet::Many(many.to_vec()),
            };
            grouped.push((key, set));
        }
        (grouped, kept)
    }

    /// Replaces the map with `grouped`, which is in key order.
    fn install(&mut self, grouped: Vec<(KeyBuf, RidSet)>) {
        match &mut self.map {
            KeyStore::Ordered(m) => *m = grouped.into_iter().collect(),
            KeyStore::Point(m) => {
                let mut fresh = FastMap::default();
                fresh.reserve(grouped.len());
                fresh.extend(grouped);
                *m = fresh;
            }
        }
    }

    /// Moves `rid` from `before`'s key to `after`'s key — a no-op when the
    /// two keys are equal, which is the common UPDATE that does not touch
    /// any indexed column (no tree mutation, no allocation).
    ///
    /// # Errors
    ///
    /// Fails with [`DbError::DuplicateKey`] like [`Index::insert`] when the
    /// new key is taken on a unique index.
    pub fn replace(&mut self, before: &Row, after: &Row, rid: RowId) -> DbResult<()> {
        let mut old_key = std::mem::take(&mut self.scratch);
        let mut new_key = std::mem::take(&mut self.scratch2);
        self.key_of_into(before, &mut old_key);
        self.key_of_into(after, &mut new_key);
        if old_key == new_key {
            self.scratch = old_key;
            self.scratch2 = new_key;
            return Ok(());
        }
        if let Some(entry) = self.map.get_mut(old_key.as_slice()) {
            if entry.remove(rid) {
                self.map.remove_key(old_key.as_slice());
            }
        }
        self.scratch = old_key;
        let owned = KeyBuf::from_slice(&new_key);
        self.scratch2 = new_key;
        self.map.insert_rid(owned, rid, self.def.unique, &self.def.name)
    }

    /// Removes `rid` from under the row's key.
    pub fn remove(&mut self, row: &Row, rid: RowId) {
        let mut key = std::mem::take(&mut self.scratch);
        self.key_of_into(row, &mut key);
        if let Some(entry) = self.map.get_mut(key.as_slice()) {
            if entry.remove(rid) {
                self.map.remove_key(key.as_slice());
            }
        }
        self.scratch = key;
    }

    /// Row addresses with exactly the given key values, without cloning
    /// (empty slice when the key is absent).
    pub fn lookup_ref(&self, key_values: &[Value]) -> &[RowId] {
        PROBE_SCRATCH.with(|s| {
            let mut scratch = s.borrow_mut();
            scratch.clear();
            encode_key_into(key_values, &mut scratch);
            match self.map.get(scratch.as_slice()) {
                Some(rids) => rids.as_slice(),
                None => &[],
            }
        })
    }

    /// Row addresses with exactly the given key values.
    pub fn lookup(&self, key_values: &[Value]) -> Vec<RowId> {
        self.lookup_ref(key_values).to_vec()
    }

    /// Row addresses under the key this index extracts from `row`,
    /// without cloning any column values (empty slice when absent).
    pub fn lookup_row_ref(&self, row: &Row) -> &[RowId] {
        PROBE_SCRATCH.with(|s| {
            let mut scratch = s.borrow_mut();
            self.key_of_into(row, &mut scratch);
            match self.map.get(scratch.as_slice()) {
                Some(rids) => rids.as_slice(),
                None => &[],
            }
        })
    }

    /// Row addresses whose keys start with the given prefix values, in key
    /// order.
    pub fn prefix_scan(&self, prefix_values: &[Value]) -> Vec<RowId> {
        let mut out = Vec::new();
        self.prefix_scan_into(prefix_values, &mut out);
        out
    }

    /// [`Index::prefix_scan`] into `out`, cleared first.
    pub fn prefix_scan_into(&self, prefix_values: &[Value], out: &mut Vec<RowId>) {
        out.clear();
        for (_, rids) in self.prefix_range(prefix_values) {
            out.extend_from_slice(rids.as_slice());
        }
    }

    /// The greatest key with the given prefix and its rows, if any
    /// (e.g. "latest order of this customer").
    pub fn last_under_prefix(&self, prefix_values: &[Value]) -> Option<(&[u8], &[RowId])> {
        self.prefix_range(prefix_values)
            .next_back()
            .map(|(k, v)| (k.as_slice(), v.as_slice()))
    }

    /// The smallest key with the given prefix and its rows, if any
    /// (e.g. "oldest undelivered order of this district") — O(log n)
    /// where a full [`Index::prefix_scan`] would walk the whole prefix.
    pub fn first_under_prefix(&self, prefix_values: &[Value]) -> Option<(&[u8], &[RowId])> {
        self.prefix_range(prefix_values).next().map(|(k, v)| (k.as_slice(), v.as_slice()))
    }

    fn prefix_range(
        &self,
        prefix_values: &[Value],
    ) -> std::collections::btree_map::Range<'_, KeyBuf, RidSet> {
        let KeyStore::Ordered(map) = &self.map else {
            // A prefix scan against a point index is a schema bug, not a
            // runtime condition: surface it loudly.
            panic!("range scan on point index {}", self.def.name);
        };
        PROBE_SCRATCH.with(|s| {
            let mut scratch = s.borrow_mut();
            scratch.clear();
            encode_key_into(prefix_values, &mut scratch);
            // Both bounds come from one buffer: the prefix, and the prefix
            // followed by 0xFF (which no encoded key byte at a value
            // boundary can reach). `range` consumes the bounds up front, so
            // the scratch guard can drop when this function returns.
            scratch.push(0xFF);
            let hi: &[u8] = &scratch;
            let lo: &[u8] = &hi[..hi.len() - 1];
            map.range::<[u8], _>((Bound::Included(lo), Bound::Excluded(hi)))
        })
    }

    /// Number of distinct keys.
    pub fn key_count(&self) -> usize {
        match &self.map {
            KeyStore::Ordered(m) => m.len(),
            KeyStore::Point(m) => m.len(),
        }
    }

    /// Total number of `(key, rid)` entries across all keys.
    pub fn entry_count(&self) -> usize {
        match &self.map {
            KeyStore::Ordered(m) => m.values().map(RidSet::len).sum(),
            KeyStore::Point(m) => m.values().map(RidSet::len).sum(),
        }
    }

    /// All entries as `(encoded key, rids)` — in key order for ordered
    /// indexes, in (deterministic, fixed-seed) bucket order for point
    /// indexes. For the integrity walkers, which need to prove every
    /// entry points at a live heap row.
    pub fn entries(&self) -> Box<dyn Iterator<Item = (&[u8], &[RowId])> + '_> {
        match &self.map {
            KeyStore::Ordered(m) => Box::new(m.iter().map(|(k, v)| (k.as_slice(), v.as_slice()))),
            KeyStore::Point(m) => Box::new(m.iter().map(|(k, v)| (k.as_slice(), v.as_slice()))),
        }
    }
}

/// One index per definition in `defs`, each bulk-loaded from `rows`.
pub(crate) fn bulk_built(defs: &[IndexDef], rows: &[(RowId, Row)]) -> Vec<Index> {
    defs.iter()
        .map(|def| {
            let mut ix = Index::new(def.clone());
            ix.bulk_load(rows);
            ix
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::types::FileNo;

    fn def(unique: bool) -> IndexDef {
        IndexDef { name: "IX".into(), cols: vec![0, 1], unique, ordered: true }
    }

    fn rid(b: u32) -> RowId {
        RowId { file: FileNo(1), block: b, slot: 0 }
    }

    /// Whether `ix` is what `bulk_load` over its own rows builds.
    fn canonical(ix: &Index) -> bool {
        ix.proven_by(|_| false, &[]).is_some()
    }

    fn row(a: u64, b: u64) -> Row {
        Row::new(vec![Value::U64(a), Value::U64(b), Value::from("payload")])
    }

    #[test]
    fn insert_lookup_remove() {
        let mut ix = Index::new(def(true));
        ix.insert(&row(1, 2), rid(0)).unwrap();
        assert_eq!(ix.lookup(&[Value::U64(1), Value::U64(2)]), vec![rid(0)]);
        ix.remove(&row(1, 2), rid(0));
        assert!(ix.lookup(&[Value::U64(1), Value::U64(2)]).is_empty());
        assert_eq!(ix.key_count(), 0);
    }

    #[test]
    fn unique_index_rejects_duplicates() {
        let mut ix = Index::new(def(true));
        ix.insert(&row(1, 2), rid(0)).unwrap();
        let err = ix.insert(&row(1, 2), rid(1)).unwrap_err();
        assert!(matches!(err, DbError::DuplicateKey { .. }));
        // Re-inserting the same rid is idempotent (recovery replays).
        ix.insert(&row(1, 2), rid(0)).unwrap();
        assert_eq!(ix.lookup(&[Value::U64(1), Value::U64(2)]).len(), 1);
    }

    #[test]
    fn non_unique_index_accumulates() {
        let mut ix = Index::new(def(false));
        ix.insert(&row(1, 2), rid(0)).unwrap();
        ix.insert(&row(1, 2), rid(1)).unwrap();
        assert_eq!(ix.lookup(&[Value::U64(1), Value::U64(2)]).len(), 2);
    }

    #[test]
    fn prefix_scan_is_ordered_and_bounded() {
        let mut ix = Index::new(def(false));
        ix.insert(&row(1, 3), rid(3)).unwrap();
        ix.insert(&row(1, 1), rid(1)).unwrap();
        ix.insert(&row(1, 2), rid(2)).unwrap();
        ix.insert(&row(2, 1), rid(9)).unwrap();
        assert_eq!(ix.prefix_scan(&[Value::U64(1)]), vec![rid(1), rid(2), rid(3)]);
    }

    #[test]
    fn last_under_prefix_finds_max() {
        let mut ix = Index::new(def(false));
        ix.insert(&row(7, 10), rid(1)).unwrap();
        ix.insert(&row(7, 42), rid(2)).unwrap();
        ix.insert(&row(8, 99), rid(3)).unwrap();
        let (_, rids) = ix.last_under_prefix(&[Value::U64(7)]).unwrap();
        assert_eq!(rids, &[rid(2)]);
        assert!(ix.last_under_prefix(&[Value::U64(9)]).is_none());
    }

    proptest::proptest! {
        /// Key extraction straight from the stored columns gives the bytes
        /// `encode_key` gives for the key columns' values.
        #[test]
        fn key_of_into_equals_encode_key_over_the_rows_values(
            vs in proptest::collection::vec(crate::row::value_strategy(), 0..6),
            cols in proptest::collection::vec(0usize..6, 1..4),
        ) {
            let ix = Index::new(IndexDef { cols: cols.clone(), ..def(false) });
            let picked: Vec<Value> =
                cols.iter().map(|&c| vs.get(c).cloned().unwrap_or(Value::Null)).collect();
            let mut key = vec![1, 2, 3];
            ix.key_of_into(&Row::new(vs), &mut key);
            proptest::prop_assert_eq!(key, crate::row::encode_key(&picked));
        }
    }

    /// Three rows per key, handed over in an order that ascends neither in
    /// key nor in rid, as a scan over interleaved extents does.
    #[test]
    fn bulk_load_orders_each_keys_rids_by_the_sort_not_by_the_input() {
        let rows: Vec<(RowId, Row)> = (0..60u32).map(|n| (rid(n), row(u64::from(n % 20), 7))).collect();
        let shuffled: Vec<(RowId, Row)> = (0..60).map(|i| rows[i * 37 % 60].clone()).collect();
        for ordered in [true, false] {
            let mut many = Index::new(IndexDef { ordered, ..def(false) });
            let mut one = Index::new(IndexDef { ordered, ..def(true) });
            many.bulk_load(&shuffled);
            one.bulk_load(&shuffled);
            for k in 0..20u32 {
                let key = [Value::U64(u64::from(k)), Value::U64(7)];
                assert_eq!(many.lookup(&key), [rid(k), rid(k + 20), rid(k + 40)], "ascending rids");
                assert_eq!(one.lookup(&key), [rid(k)], "a unique index keeps the lowest rid");
            }
            assert_eq!((many.key_count(), many.entry_count()), (20, 60));
            assert_eq!((one.key_count(), one.entry_count()), (20, 20));
        }
    }

    proptest::proptest! {
        /// Re-deriving from an index that matched the heap, and the rows the
        /// changed blocks now hold, gives what `bulk_load` over the edited
        /// heap gives: the same keys, the same rids in the same order, even
        /// where the old non-unique index was built by forward inserts out
        /// of rid order and where a unique key is held twice.
        #[test]
        fn rederive_equals_bulk_load_over_the_edited_heap(
            old_rows in proptest::collection::vec((0u32..6, 0u64..8, 0u64..3), 0..40),
            distinct in proptest::arbitrary::any::<bool>(),
            changed_mask in 0u8..64,
            keep_mask in proptest::arbitrary::any::<u64>(),
            added in proptest::collection::vec((0u32..6, 0u64..48, 0u64..3), 0..12),
            order_seed in proptest::arbitrary::any::<u64>(),
        ) {
            let changed = |block: u32| changed_mask & (1 << block) != 0;
            let rid_in = |block: u32, slot: u16| RowId { file: FileNo(1 + block % 2), block, slot };
            // The old heap; `distinct` gives every row a key of its own.
            let mut slots = [0u16; 6];
            let mut next_slot = |block: u32| {
                slots[block as usize] += 1;
                slots[block as usize] - 1
            };
            let old: Vec<(RowId, Row)> = old_rows
                .iter()
                .enumerate()
                .map(|(i, &(block, a, b))| {
                    let a = if distinct { 100 + i as u64 } else { a };
                    (rid_in(block, next_slot(block)), row(a, b))
                })
                .collect();
            // The edit: a changed block keeps some of its rows and gains others.
            let mut new: Vec<(RowId, Row)> = old
                .iter()
                .enumerate()
                .filter(|(i, (rid, _))| !changed(rid.block) || keep_mask & (1 << (i % 64)) != 0)
                .map(|(_, r)| r.clone())
                .collect();
            for &(block, a, b) in added.iter().filter(|(block, ..)| changed(*block)) {
                new.push((rid_in(block, next_slot(block)), row(a, b)));
            }
            let fresh: Vec<(RowId, Row)> =
                new.iter().filter(|(rid, _)| changed(rid.block)).cloned().collect();
            // Forward inserts in a scrambled order, so a key's rids append
            // out of rid order.
            let mut forward = old.clone();
            forward.sort_by_key(|(rid, _)| {
                (u64::from(rid.block) << 16 | u64::from(rid.slot)).wrapping_mul(order_seed | 1)
            });
            for ordered in [true, false] {
                for unique in [true, false] {
                    let d = IndexDef { ordered, ..def(unique) };
                    let mut base = Index::new(d.clone());
                    if unique {
                        base.bulk_load(&old);
                    } else {
                        for (rid, r) in &forward {
                            base.insert(r, *rid).unwrap();
                        }
                    }
                    let mut expected = Index::new(d);
                    expected.bulk_load(&new);
                    let Some((derived, kept)) =
                        base.rederive(&|rid| changed(rid.block), &fresh)
                    else {
                        proptest::prop_assert!(unique && !distinct && !canonical(&base));
                        continue;
                    };
                    proptest::prop_assert!(derived.same_entries(&expected));
                    proptest::prop_assert!(derived.entries().eq(expected.entries()));
                    proptest::prop_assert_eq!(canonical(&derived), canonical(&expected));
                    proptest::prop_assert_eq!(kept, new.len() - fresh.len());
                    // Kept as it is exactly when it already is the result.
                    let proven = base.proven_by(|rid: RowId| changed(rid.block), &fresh);
                    proptest::prop_assert_eq!(proven.is_some(), canonical(&base) && base.same_entries(&expected));
                    proptest::prop_assert!(proven.is_none_or(|k| k == kept));
                }
            }
        }
    }

    #[test]
    fn short_rows_key_as_null() {
        let mut ix = Index::new(def(false));
        let short = Row::new(vec![Value::U64(5)]);
        ix.insert(&short, rid(0)).unwrap();
        assert_eq!(ix.lookup(&[Value::U64(5), Value::Null]), vec![rid(0)]);
    }
}
