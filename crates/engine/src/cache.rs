//! The buffer cache: decoded block frames with LRU replacement and dirty
//! tracking.
//!
//! The cache is deliberately small relative to the working set (see
//! DESIGN.md §6): the paper's database is far larger than its SGA, and the
//! foreground read misses that result are what make checkpoint write
//! bursts visible in the tpmC curve.

use recobench_sim::SimTime;

use crate::codec::Writer;
use crate::fasthash::{self, FastMap};
use crate::page::BlockImage;
use crate::types::{FileNo, RedoAddr};

/// Cache key: datafile number and block index.
pub type BlockKey = (FileNo, u32);

/// Dirty bookkeeping for a frame.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct DirtyInfo {
    /// Redo address of the first unwritten change to this block.
    pub first_addr: RedoAddr,
    /// Instant of the first unwritten change.
    pub first_time: SimTime,
    /// Redo address of the last change (WAL: must be flushed before the
    /// block may be written).
    pub last_addr: RedoAddr,
}

/// Sentinel for "no slot" in the intrusive LRU list.
const NIL: usize = usize::MAX;

#[derive(Debug, Clone)]
struct Slot {
    key: BlockKey,
    img: BlockImage,
    dirty: Option<DirtyInfo>,
    /// Row slots a replay pass stored a row at since the pass began (each
    /// once): rows that may be views into a log segment until
    /// [`BufferCache::detach_views`] ends the pass.
    views: Vec<u16>,
    /// Neighbours in the recency list (`NIL`-terminated both ways).
    prev: usize,
    next: usize,
}

/// A frame evicted to make room, handed back to the caller who must write
/// it out if dirty.
#[derive(Debug)]
pub struct Evicted {
    /// Which block this was.
    pub key: BlockKey,
    /// The block image to write back.
    pub img: BlockImage,
    /// Dirty bookkeeping, if the frame had unwritten changes.
    pub dirty: Option<DirtyInfo>,
}

/// The buffer cache.
///
/// Frames live in a slab (`slots`) threaded onto an intrusive
/// doubly-linked recency list, so every touch, insert and eviction is
/// O(1) — the previous implementation kept a `BTreeMap<stamp, key>`
/// shadow structure and paid a tree rebalance per access.
#[derive(Debug, Clone)]
pub struct BufferCache {
    capacity: usize,
    map: FastMap<BlockKey, usize>,
    slots: Vec<Slot>,
    free: Vec<usize>,
    /// Most-recently-used slot (`NIL` when empty).
    head: usize,
    /// Least-recently-used slot (`NIL` when empty).
    tail: usize,
    /// Number of dirty frames, maintained incrementally so DBWR polls
    /// never pay an O(resident) scan just to learn "nothing to do".
    dirty_n: usize,
    /// Conservative lower bound on the oldest dirty `first_time` (clears
    /// only raise the true minimum, so staleness errs toward scanning).
    oldest_dirty: Option<SimTime>,
}

impl BufferCache {
    /// Creates a cache holding at most `capacity` blocks.
    ///
    /// # Panics
    ///
    /// Panics if `capacity` is zero.
    pub fn new(capacity: usize) -> Self {
        assert!(capacity > 0, "cache capacity must be positive");
        BufferCache {
            capacity,
            map: fasthash::map_with_capacity(capacity),
            slots: Vec::with_capacity(capacity),
            free: Vec::new(),
            head: NIL,
            tail: NIL,
            dirty_n: 0,
            oldest_dirty: None,
        }
    }

    /// Takes slot `i` out of the recency list. A link is a slab index or
    /// `NIL`, which no slab entry has.
    fn unlink(&mut self, i: usize) {
        let Some(&Slot { prev, next, .. }) = self.slots.get(i) else { return };
        match self.slots.get_mut(prev) {
            Some(p) => p.next = next,
            None => self.head = next,
        }
        match self.slots.get_mut(next) {
            Some(n) => n.prev = prev,
            None => self.tail = prev,
        }
    }

    fn push_front(&mut self, i: usize) {
        let head = self.head;
        let Some(slot) = self.slots.get_mut(i) else { return };
        slot.prev = NIL;
        slot.next = head;
        if let Some(h) = self.slots.get_mut(head) {
            h.prev = i;
        }
        self.head = i;
        if self.tail == NIL {
            self.tail = i;
        }
    }

    fn note_dirty_cleared(&mut self, was_dirty: bool) {
        if was_dirty {
            self.dirty_n -= 1;
            if self.dirty_n == 0 {
                self.oldest_dirty = None;
            }
        }
    }

    fn touch(&mut self, i: usize) {
        if self.head != i {
            self.unlink(i);
            self.push_front(i);
        }
    }

    /// Looks up a block, bumping its recency.
    pub fn get(&mut self, key: BlockKey) -> Option<&BlockImage> {
        let i = self.map.get(&key).copied()?;
        self.touch(i);
        Some(&self.slots[i].img)
    }

    /// Whether the block is resident (no recency bump).
    pub fn contains(&self, key: BlockKey) -> bool {
        self.map.contains_key(&key)
    }

    /// Read-only view of a resident block without touching recency
    /// (zero-cost inspection paths).
    pub fn peek(&self, key: BlockKey) -> Option<&BlockImage> {
        self.map.get(&key).map(|&i| &self.slots[i].img)
    }

    /// Mutable access to a *resident* block (use after
    /// [`BufferCache::get`] or [`BufferCache::insert`]).
    pub fn get_mut(&mut self, key: BlockKey) -> Option<&mut BlockImage> {
        match self.map.get(&key).copied() {
            Some(i) => {
                self.touch(i);
                Some(&mut self.slots[i].img)
            }
            None => None,
        }
    }

    /// Single-probe hot-path lookup: on residency, bumps recency and hands
    /// out the frame mutably — marked dirty at `dirty`'s address and
    /// instant first, for a caller about to apply a logged change (what
    /// [`BufferCache::mark_dirty`] after the change would do, without its
    /// second probe). On a miss the caller falls back to the full read
    /// path.
    pub fn probe_mut(
        &mut self,
        key: BlockKey,
        dirty: Option<(RedoAddr, SimTime)>,
    ) -> Option<&mut BlockImage> {
        let i = self.map.get(&key).copied()?;
        if let Some((addr, now)) = dirty {
            self.dirty_slot(i, addr, now);
        }
        self.touch(i);
        Some(&mut self.slots[i].img)
    }

    /// Replays a change on a resident frame in one probe: bumps recency,
    /// runs `change` on the image and, if it reports a change, marks the
    /// frame dirty at `addr`/`now` and records `view`, the row slot the
    /// change stored a row at, for [`BufferCache::detach_views`]. Returns
    /// what `change` reported, or `None` if the block is not resident.
    pub(crate) fn replay_on(
        &mut self,
        key: BlockKey,
        addr: RedoAddr,
        now: SimTime,
        view: Option<u16>,
        change: impl FnOnce(&mut BlockImage) -> bool,
    ) -> Option<bool> {
        let i = self.map.get(&key).copied()?;
        self.touch(i);
        let slot = self.slots.get_mut(i)?;
        let changed = change(&mut slot.img);
        if changed {
            if let Some(v) = view.filter(|v| !slot.views.contains(v)) {
                slot.views.push(v);
            }
            self.dirty_slot(i, addr, now);
        }
        Some(changed)
    }

    /// Ends a replay pass: calls `detach` with each resident frame's image
    /// and each row slot [`BufferCache::replay_on`] recorded on it, then
    /// forgets the records. A frame that left the cache took its record
    /// with it: eviction encodes the image and drops it.
    pub(crate) fn detach_views(&mut self, mut detach: impl FnMut(&mut BlockImage, u16)) {
        for slot in &mut self.slots {
            for v in slot.views.drain(..) {
                detach(&mut slot.img, v);
            }
        }
    }

    /// Inserts a block image read from disk. If the cache is full, the
    /// least-recently-used frame is returned for the caller to write back.
    pub fn insert(&mut self, key: BlockKey, img: BlockImage) -> Option<Evicted> {
        if let Some(&i) = self.map.get(&key) {
            // Replacing a resident block: fresh image, clean state.
            self.slots[i].img = img;
            self.slots[i].views.clear();
            let was_dirty = self.slots[i].dirty.take().is_some();
            self.note_dirty_cleared(was_dirty);
            self.touch(i);
            return None;
        }
        let evicted = if self.map.len() >= self.capacity { self.evict_lru() } else { None };
        let slot = Slot { key, img, dirty: None, views: Vec::new(), prev: NIL, next: NIL };
        let i = match self.free.pop() {
            Some(i) => {
                self.slots[i] = slot;
                i
            }
            None => {
                self.slots.push(slot);
                self.slots.len() - 1
            }
        };
        self.map.insert(key, i);
        self.push_front(i);
        evicted
    }

    fn evict_lru(&mut self) -> Option<Evicted> {
        let i = self.tail;
        if i == NIL {
            return None;
        }
        self.unlink(i);
        let key = self.slots[i].key;
        self.map.remove(&key);
        let img = std::mem::take(&mut self.slots[i].img);
        let dirty = self.slots[i].dirty.take();
        self.slots[i].views.clear();
        self.free.push(i);
        self.note_dirty_cleared(dirty.is_some());
        Some(Evicted { key, img, dirty })
    }

    /// Marks a resident block dirty after a change at `addr`/`now`.
    ///
    /// # Panics
    ///
    /// Panics if the block is not resident (changes always go through a
    /// resident frame).
    pub fn mark_dirty(&mut self, key: BlockKey, addr: RedoAddr, now: SimTime) {
        // tidy-allow(panic-freedom): documented `# Panics` invariant — changes only flow through resident frames
        let &i = self.map.get(&key).expect("dirtied block must be resident");
        self.dirty_slot(i, addr, now);
    }

    fn dirty_slot(&mut self, i: usize, addr: RedoAddr, now: SimTime) {
        let Some(slot) = self.slots.get_mut(i) else { return };
        match &mut slot.dirty {
            Some(d) => d.last_addr = d.last_addr.max(addr),
            None => {
                slot.dirty = Some(DirtyInfo { first_addr: addr, first_time: now, last_addr: addr });
                self.dirty_n += 1;
                self.oldest_dirty = Some(match self.oldest_dirty {
                    Some(t) if t <= now => t,
                    _ => now,
                });
            }
        }
    }

    /// Re-marks a resident block dirty with bookkeeping saved before a
    /// failed write-out (ENOSPC): the change is still only in memory, so
    /// the original first-change address must survive for the checkpoint
    /// position to stay behind its redo.
    ///
    /// # Panics
    ///
    /// Panics if the block is not resident.
    pub fn restore_dirty(&mut self, key: BlockKey, info: DirtyInfo) {
        // tidy-allow(panic-freedom): documented `# Panics` invariant — the failed write-out left the frame resident
        let &i = self.map.get(&key).expect("restored block must be resident");
        if self.slots[i].dirty.replace(info).is_none() {
            self.dirty_n += 1;
        }
        self.oldest_dirty = Some(match self.oldest_dirty {
            Some(t) if t <= info.first_time => t,
            _ => info.first_time,
        });
    }

    /// Lower bound on the oldest dirty frame's `first_time`, or `None`
    /// when nothing is dirty. May lag behind the true minimum after
    /// frames are cleaned; [`BufferCache::refresh_dirty_bound`] restores
    /// exactness after a checkpoint pass.
    pub fn oldest_dirty_time(&self) -> Option<SimTime> {
        self.oldest_dirty
    }

    /// Recomputes the oldest-dirty bound exactly (O(resident); call after
    /// a checkpoint pass, which already walked every frame).
    pub fn refresh_dirty_bound(&mut self) {
        self.oldest_dirty =
            self.iter_resident().filter_map(|s| s.dirty.map(|d| d.first_time)).min();
    }

    /// The oldest first-change redo address among dirty frames — the
    /// incremental checkpoint position (callers substitute the log tail
    /// when this returns `None`).
    pub fn min_dirty_addr(&self) -> Option<RedoAddr> {
        self.iter_resident().filter_map(|s| s.dirty.map(|d| d.first_addr)).min()
    }

    /// Keys and bookkeeping of every dirty frame matching `pred`, in key
    /// order, *without* copying any block image. Pair with
    /// [`BufferCache::encode_block_into`] and [`BufferCache::clear_dirty`]
    /// to write them out allocation-free.
    pub fn dirty_matching<F>(&self, mut pred: F) -> Vec<(BlockKey, DirtyInfo)>
    where
        F: FnMut(BlockKey, &DirtyInfo) -> bool,
    {
        let mut out: Vec<(BlockKey, DirtyInfo)> = self
            .iter_resident()
            .filter_map(|s| s.dirty.filter(|d| pred(s.key, d)).map(|d| (s.key, d)))
            .collect();
        out.sort_by_key(|(k, _)| *k);
        out
    }

    /// Encodes the resident block at `key` into `w` and returns `true`,
    /// or returns `false` if the block is not resident.
    pub fn encode_block_into(&self, key: BlockKey, w: &mut Writer) -> bool {
        match self.peek(key) {
            Some(img) => {
                img.encode_into(w);
                true
            }
            None => false,
        }
    }

    /// Clears the dirty flag of a resident block (after its image reached
    /// disk).
    pub fn clear_dirty(&mut self, key: BlockKey) {
        if let Some(&i) = self.map.get(&key) {
            let was_dirty = self.slots[i].dirty.take().is_some();
            self.note_dirty_cleared(was_dirty);
        }
    }

    /// Number of dirty frames (maintained incrementally; O(1)).
    pub fn dirty_count(&self) -> usize {
        self.dirty_n
    }

    /// Number of resident frames.
    pub fn len(&self) -> usize {
        self.map.len()
    }

    /// Whether the cache is empty.
    pub fn is_empty(&self) -> bool {
        self.map.is_empty()
    }

    /// Drops every frame belonging to `file` without writing (used when a
    /// datafile is dropped or restored underneath the cache).
    pub fn invalidate_file(&mut self, file: FileNo) {
        let keys: Vec<BlockKey> = self.map.keys().filter(|(f, _)| *f == file).copied().collect();
        for k in keys {
            if let Some(i) = self.map.remove(&k) {
                self.unlink(i);
                self.slots[i].img = BlockImage::empty();
                self.slots[i].views.clear();
                let was_dirty = self.slots[i].dirty.take().is_some();
                self.note_dirty_cleared(was_dirty);
                self.free.push(i);
            }
        }
    }

    /// Iterates over resident slots (skipping freed slab entries).
    fn iter_resident(&self) -> impl Iterator<Item = &Slot> {
        self.map.values().map(|&i| &self.slots[i])
    }
}

#[cfg(test)]
impl BufferCache {
    /// Every row held by a resident frame — what the tests of the
    /// per-pass memory rule look at.
    pub(crate) fn resident_rows(&self) -> impl Iterator<Item = &crate::row::Row> {
        self.iter_resident().flat_map(|s| s.img.iter().map(|(_, row)| row))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::row::{Row, Value};
    use crate::types::Scn;

    fn key(n: u32) -> BlockKey {
        (FileNo(1), n)
    }

    fn addr(o: u64) -> RedoAddr {
        RedoAddr { seq: 1, offset: o }
    }

    fn img_with_row(n: u64) -> BlockImage {
        let mut img = BlockImage::empty();
        img.put(0, Row::new(vec![Value::U64(n)]), Scn(n));
        img
    }

    #[test]
    fn lru_evicts_least_recent() {
        let mut c = BufferCache::new(2);
        c.insert(key(1), img_with_row(1));
        c.insert(key(2), img_with_row(2));
        c.get(key(1)); // make 2 the LRU
        let ev = c.insert(key(3), img_with_row(3)).expect("eviction");
        assert_eq!(ev.key, key(2));
        assert!(c.contains(key(1)) && c.contains(key(3)));
    }

    #[test]
    fn dirty_tracking_first_and_last() {
        let mut c = BufferCache::new(2);
        c.insert(key(1), BlockImage::empty());
        c.mark_dirty(key(1), addr(100), SimTime::from_secs(1));
        c.mark_dirty(key(1), addr(300), SimTime::from_secs(3));
        let dirty = c.dirty_matching(|_, _| true);
        assert_eq!(dirty.len(), 1);
        let (k, d) = dirty[0];
        assert_eq!(d.first_addr, addr(100));
        assert_eq!(d.last_addr, addr(300));
        assert_eq!(d.first_time, SimTime::from_secs(1));
        c.clear_dirty(k);
        assert_eq!(c.dirty_count(), 0);
    }

    #[test]
    fn min_dirty_addr_is_checkpoint_position() {
        let mut c = BufferCache::new(4);
        c.insert(key(1), BlockImage::empty());
        c.insert(key(2), BlockImage::empty());
        c.mark_dirty(key(1), addr(500), SimTime::ZERO);
        c.mark_dirty(key(2), addr(200), SimTime::ZERO);
        assert_eq!(c.min_dirty_addr(), Some(addr(200)));
        // Writing the older one advances the position.
        let old = c.dirty_matching(|_, d| d.first_addr <= addr(200));
        assert_eq!(old.len(), 1);
        c.clear_dirty(old[0].0);
        assert_eq!(c.min_dirty_addr(), Some(addr(500)));
    }

    #[test]
    fn dirty_eviction_returns_payload() {
        let mut c = BufferCache::new(1);
        c.insert(key(1), img_with_row(7));
        c.mark_dirty(key(1), addr(10), SimTime::ZERO);
        let ev = c.insert(key(2), BlockImage::empty()).expect("eviction");
        assert_eq!(ev.key, key(1));
        assert!(ev.dirty.is_some());
        assert_eq!(ev.img.row(0).unwrap().get(0).unwrap().as_u64(), Some(7));
    }

    #[test]
    fn invalidate_file_drops_frames() {
        let mut c = BufferCache::new(4);
        c.insert((FileNo(1), 0), BlockImage::empty());
        c.insert((FileNo(2), 0), BlockImage::empty());
        c.invalidate_file(FileNo(1));
        assert!(!c.contains((FileNo(1), 0)));
        assert!(c.contains((FileNo(2), 0)));
        assert_eq!(c.len(), 1);
    }

    #[test]
    fn reinsert_same_key_does_not_evict() {
        let mut c = BufferCache::new(1);
        c.insert(key(1), img_with_row(1));
        assert!(c.insert(key(1), img_with_row(2)).is_none());
        assert_eq!(c.len(), 1);
    }

    #[test]
    #[should_panic(expected = "resident")]
    fn mark_dirty_nonresident_panics() {
        let mut c = BufferCache::new(1);
        c.mark_dirty(key(9), addr(1), SimTime::ZERO);
    }
}
