//! The two-tier visited store and the spillable frontier queue: exploration
//! memory becomes a disk-budget question instead of a RAM wall.
//!
//! [`VisitedStore`] replaces the explorer's flat `HashSet<Key>`: a bounded
//! *hot* open-addressed table (the std `HashSet` with the multiply-fold
//! [`Key`] hasher — SwissTable is open addressing) absorbs inserts until it
//! reaches its byte budget, then flushes as one sorted, delta-compressed
//! run to a temporary file ([`crate::spill`]); runs merge log-structured
//! (at `MAX_RUNS` a streaming k-way merge rewrites them as one). Because
//! every insert probes the cold tier *before* landing in the hot table,
//! runs are pairwise disjoint and disjoint from the hot tier — the store is
//! an exact set at every moment, and membership answers are independent of
//! where a key happens to live. That is the determinism argument in one
//! line: **tiering moves keys, never answers**, so explored/deduped counts
//! and every verdict are byte-identical with any `mem_budget`, including
//! none.
//!
//! [`SpillQueue`] does the same for the breadth-first frontier: a hot ring
//! of live nodes backed by a FIFO file of packed entries (an encoded
//! schedule replays to the identical simulator state, so a node that takes
//! the disk detour expands exactly as a resident one would).

use crate::spill::{self, block_contains, fence_for, Fence, Key, Prefilter, RunEncoder};
use std::collections::{HashSet, VecDeque};
use std::convert::Infallible;
use std::fs::File;
use std::io::{Read, Seek, SeekFrom, Write};
use std::os::unix::fs::FileExt;
use std::path::PathBuf;
use std::sync::atomic::{AtomicU64, Ordering};

/// Logical bytes charged per hot-tier key: 40 key bytes plus amortized
/// open-addressing overhead (load factor, control bytes, growth slack).
/// Budget accounting uses this *logical* figure, never allocator or RSS
/// numbers, so every memory metric in a report is a deterministic function
/// of the exploration itself.
pub const SLOT_BYTES: usize = 88;

/// Logical bytes charged per resident frontier node (a cloned simulator is
/// heavyweight: process machines, history, caches).
pub const NODE_SLOT_BYTES: usize = 4096;

/// Cold runs are merged down to one whenever this many accumulate.
const MAX_RUNS: usize = 4;

/// Staged spill writes flush to the file in chunks of this size.
const WBUF_FLUSH: usize = 1 << 20;

/// Fraction of the budget given to the visited hot tier (the rest backs
/// the frontier ring): 3/4, as the visited set dominates at depth.
fn split_visited(budget: usize) -> usize {
    budget / 4 * 3
}

/// Hot-tier key capacity for a visited budget. `None` = unbounded (the
/// store never spills). At least 64 keys stay resident no matter how small
/// the budget, so pathological budgets degrade to "spill often", not "fail".
#[must_use]
pub fn visited_hot_cap(budget: Option<usize>) -> usize {
    match budget {
        None => usize::MAX,
        Some(b) => (split_visited(b) / SLOT_BYTES).max(64),
    }
}

/// Hot-ring node capacity for a frontier budget. `None` = unbounded.
#[must_use]
pub fn frontier_hot_cap(budget: Option<usize>) -> usize {
    match budget {
        None => usize::MAX,
        Some(b) => (b / 4 / NODE_SLOT_BYTES).max(4),
    }
}

/// Hasher for [`Key`]s: the key already leads with a 128-bit polynomial
/// state fingerprint, so hashing it again through SipHash (the `HashSet`
/// default, resistant to adversarial keys these are not) only burns time in
/// the per-claimed-child dedup probe. One multiply-fold per word is plenty.
#[derive(Clone, Copy, Default)]
struct KeyHasher(u64);

impl std::hash::Hasher for KeyHasher {
    fn finish(&self) -> u64 {
        self.0
    }

    fn write(&mut self, bytes: &[u8]) {
        // Keys are fixed-width word tuples; chunks are always full words.
        for chunk in bytes.chunks(8) {
            let mut w = [0u8; 8];
            w[..chunk.len()].copy_from_slice(chunk);
            self.0 = (self.0 ^ u64::from_le_bytes(w)).wrapping_mul(0x9ddf_ea08_eb38_2d69);
            self.0 ^= self.0 >> 32;
        }
    }
}

type KeyHashBuilder = std::hash::BuildHasherDefault<KeyHasher>;

static SPILL_SEQ: AtomicU64 = AtomicU64::new(0);

/// A process-unique temp path for one spill file. The file is removed on
/// drop of its owner; the pid+sequence name keeps concurrent workers (and
/// concurrent test processes) from colliding.
fn spill_path(kind: &str) -> PathBuf {
    let seq = SPILL_SEQ.fetch_add(1, Ordering::Relaxed);
    std::env::temp_dir().join(format!(
        "shm-explore-{}-{}-{}.spill",
        kind,
        std::process::id(),
        seq
    ))
}

/// Which tier answered an insert.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Lookup {
    /// The key was not present anywhere; it is now in the hot tier.
    New,
    /// Duplicate, found in the hot table.
    Hot,
    /// Duplicate, found in a cold on-disk run.
    Cold,
}

/// One immutable sorted run spilled to a temp file: fences and prefilter
/// stay resident; the delta-compressed key blocks live on disk and are read
/// back one block per probe with a positioned read (no shared file cursor,
/// so probing takes `&self`).
struct ColdRun {
    path: PathBuf,
    file: File,
    fences: Vec<Fence>,
    filter: Prefilter,
    count: u64,
    bytes: u64,
}

impl ColdRun {
    /// Encodes `keys` (strictly ascending) into a fresh temp file,
    /// streaming the encoder so at most [`WBUF_FLUSH`] encoded bytes are
    /// ever buffered.
    fn write(keys: impl Iterator<Item = Key>, approx: usize) -> std::io::Result<ColdRun> {
        let path = spill_path("run");
        let mut file = File::options()
            .read(true)
            .write(true)
            .create_new(true)
            .open(&path)?;
        let mut enc = RunEncoder::new();
        let mut filter = Prefilter::with_capacity(approx);
        for key in keys {
            enc.push(key);
            filter.insert(&key);
            if enc.buffered() >= WBUF_FLUSH {
                file.write_all(&enc.drain())?;
            }
        }
        let (rest, fences, count, bytes) = enc.finish();
        file.write_all(&rest)?;
        Ok(ColdRun {
            path,
            file,
            fences,
            filter,
            count,
            bytes,
        })
    }

    /// Exact membership; reads at most one block from disk. The prefilter
    /// check happens in [`VisitedStore::in_cold_runs`] so a miss never gets
    /// here. A block that does not decode is `InvalidData`.
    fn contains(&self, key: &Key, block_buf: &mut Vec<u8>) -> std::io::Result<bool> {
        let Some(fi) = fence_for(&self.fences, key) else {
            return Ok(false);
        };
        let f = &self.fences[fi];
        block_buf.resize(f.len as usize, 0);
        self.file.read_exact_at(block_buf, f.offset)?;
        Ok(block_contains(block_buf, f.count, key)?)
    }

    /// Resident index footprint (fences + prefilter); the key bytes are on
    /// disk and charge nothing.
    fn index_bytes(&self) -> usize {
        self.fences.len() * std::mem::size_of::<Fence>() + self.filter.resident_bytes()
    }
}

impl Drop for ColdRun {
    fn drop(&mut self) {
        let _ = std::fs::remove_file(&self.path);
    }
}

/// A streaming decode cursor over one run, for k-way merges: holds one
/// decoded block at a time.
struct RunCursor {
    run: ColdRun,
    fi: usize,
    keys: Vec<Key>,
    pos: usize,
    block: Vec<u8>,
}

impl RunCursor {
    fn new(run: ColdRun) -> Self {
        RunCursor {
            run,
            fi: 0,
            keys: Vec::new(),
            pos: 0,
            block: Vec::new(),
        }
    }

    /// Decodes the next block once the current one is consumed. A block
    /// that does not decode is `InvalidData`.
    fn refill(&mut self) -> std::io::Result<()> {
        while self.pos >= self.keys.len() {
            let Some(f) = self.run.fences.get(self.fi) else {
                return Ok(());
            };
            self.fi += 1;
            self.block.resize(f.len as usize, 0);
            self.run.file.read_exact_at(&mut self.block, f.offset)?;
            self.keys.clear();
            self.pos = 0;
            spill::try_decode_block_into(&self.block, f.count, &mut self.keys)?;
        }
        Ok(())
    }

    fn peek(&mut self) -> std::io::Result<Option<Key>> {
        self.refill()?;
        Ok(self.keys.get(self.pos).copied())
    }

    fn advance(&mut self) {
        self.pos += 1;
    }
}

/// The two-tier visited set. Exact set semantics at every budget; see the
/// module docs for the tiering and the determinism argument.
pub struct VisitedStore {
    hot: HashSet<Key, KeyHashBuilder>,
    hot_cap: usize,
    runs: Vec<ColdRun>,
    len: u64,
    spilled_bytes: u64,
    peak_bytes: u64,
    block_buf: Vec<u8>,
    /// Exact-state fallback: fingerprint collisions would silently merge
    /// distinct states, so debug builds (and builds with this crate's
    /// `exact-fingerprints` feature) keep the full word encodings across
    /// *all* tiers — a key that spilled to disk still has its words here —
    /// and assert every dedup hit, whichever tier answered it.
    #[cfg(any(debug_assertions, feature = "exact-fingerprints"))]
    exact: std::collections::HashMap<Key, Vec<u64>>,
}

impl VisitedStore {
    /// An empty store. `budget` is the whole exploration memory budget
    /// ([`crate::Bounds::mem_budget`]); the visited tier takes its 3/4
    /// share via [`visited_hot_cap`]. `_unused` is always `None`: it keeps
    /// the two-argument shape existing callers use, and no value of its
    /// type can exist.
    #[must_use]
    pub fn new(budget: Option<usize>, _unused: Option<Infallible>) -> Self {
        VisitedStore {
            hot: HashSet::default(),
            hot_cap: visited_hot_cap(budget),
            runs: Vec::new(),
            len: 0,
            spilled_bytes: 0,
            peak_bytes: 0,
            block_buf: Vec::new(),
            #[cfg(any(debug_assertions, feature = "exact-fingerprints"))]
            exact: std::collections::HashMap::new(),
        }
    }

    /// Keys inserted into the store.
    #[must_use]
    pub fn len(&self) -> u64 {
        self.len
    }

    /// Whether the store holds no keys.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Total delta-compressed bytes spilled to disk by this store.
    #[must_use]
    pub fn spilled_bytes(&self) -> u64 {
        self.spilled_bytes
    }

    /// Peak logical resident footprint: hot keys at [`SLOT_BYTES`] each
    /// plus the resident run indexes. Deterministic (never an allocator or
    /// RSS reading).
    #[must_use]
    pub fn peak_bytes(&self) -> u64 {
        self.peak_bytes
    }

    fn note_peak(&mut self) {
        let cold_index: usize = self.runs.iter().map(ColdRun::index_bytes).sum();
        let now = (self.hot.len() * SLOT_BYTES + cold_index) as u64;
        self.peak_bytes = self.peak_bytes.max(now);
    }

    fn lookup(&mut self, key: &Key) -> Lookup {
        if self.hot.contains(key) {
            shm_obs::counter!("store.hot_hits");
            return Lookup::Hot;
        }
        if !self.runs.is_empty() && self.in_cold_runs(key) {
            return Lookup::Cold;
        }
        Lookup::New
    }

    /// Probes every cold run whose prefilter admits `key`. Kept out of line
    /// so the hot-tier path of [`VisitedStore::insert`], the only one an
    /// unbudgeted exploration runs, stays small.
    #[inline(never)]
    fn in_cold_runs(&mut self, key: &Key) -> bool {
        for run in &self.runs {
            if !run.filter.maybe_contains(key) {
                continue;
            }
            shm_obs::counter!("store.cold_probes");
            if run
                .contains(key, &mut self.block_buf)
                .expect("spill run read")
            {
                return true;
            }
        }
        false
    }

    /// Inserts `key`, reporting which tier (if any) already had it. A
    /// duplicate is *not* re-inserted; a new key lands in the hot tier and
    /// may trigger a spill. `words` materializes the exact state encoding
    /// — only ever called in debug and `exact-fingerprints` builds, where
    /// every duplicate hit is asserted against the encoding recorded at
    /// first insert (the collision cross-check, preserved across tiers).
    pub fn insert(&mut self, key: Key, words: impl FnOnce() -> Vec<u64>) -> Lookup {
        let found = self.lookup(&key);
        match found {
            Lookup::New => {
                #[cfg(any(debug_assertions, feature = "exact-fingerprints"))]
                self.exact.insert(key, words());
                #[cfg(not(any(debug_assertions, feature = "exact-fingerprints")))]
                let _ = &words;
                self.hot.insert(key);
                self.len += 1;
                self.note_peak();
                if self.hot.len() >= self.hot_cap {
                    self.flush();
                }
            }
            Lookup::Hot | Lookup::Cold => {
                #[cfg(any(debug_assertions, feature = "exact-fingerprints"))]
                self.assert_exact(&key, words());
            }
        }
        found
    }

    #[cfg(any(debug_assertions, feature = "exact-fingerprints"))]
    fn assert_exact(&self, key: &Key, words: Vec<u64>) {
        assert_eq!(
            self.exact.get(key),
            Some(&words),
            "state-fingerprint collision: distinct states share a dedup key"
        );
    }

    /// Spills the hot tier as one sorted run, then merges runs down when
    /// [`MAX_RUNS`] have accumulated.
    fn flush(&mut self) {
        if self.hot.is_empty() {
            return;
        }
        let mut keys: Vec<Key> = self.hot.drain().collect();
        keys.sort_unstable();
        let n = keys.len();
        let run = ColdRun::write(keys.into_iter(), n).expect("spill run write");
        self.spilled_bytes += run.bytes;
        shm_obs::counter!("store.spilled_bytes", run.bytes);
        self.runs.push(run);
        if self.runs.len() >= MAX_RUNS {
            self.merge_runs();
        }
        self.note_peak();
    }

    /// Streaming k-way merge of every cold run into one. Runs are pairwise
    /// disjoint (inserts probe cold before going hot), so this is a pure
    /// minimum-selection merge; one block per input run is resident.
    fn merge_runs(&mut self) {
        let merged_in = self.runs.len() as u64;
        let total: u64 = self.runs.iter().map(|r| r.count).sum();
        let mut cursors: Vec<RunCursor> = self.runs.drain(..).map(RunCursor::new).collect();
        let merged = ColdRun::write(
            std::iter::from_fn(move || {
                let mut min: Option<(usize, Key)> = None;
                for (i, c) in cursors.iter_mut().enumerate() {
                    if let Some(k) = c.peek().expect("spill run read") {
                        if min.is_none_or(|(_, mk)| k < mk) {
                            min = Some((i, k));
                        }
                    }
                }
                min.map(|(i, k)| {
                    cursors[i].advance();
                    k
                })
            }),
            total as usize,
        )
        .expect("spill run merge");
        debug_assert_eq!(merged.count, total, "disjoint runs merge losslessly");
        // The merged file is a rewrite, not new spill volume: spilled_bytes
        // tracks what the exploration pushed out of RAM, so only flushes
        // count.
        shm_obs::counter!("store.runs_merged", merged_in);
        self.runs.push(merged);
    }
}

// ------------------------------------------------------------- frontier ----

/// What a [`SpillQueue`] pop yields: a still-resident item, or the packed
/// bytes of one that took the disk detour (the caller re-materializes it —
/// for frontier nodes, by replaying the packed schedule).
pub enum Popped<T> {
    /// The item never left the hot ring.
    Live(T),
    /// The packed encoding of a spilled item.
    Packed(Vec<u8>),
}

/// A FIFO queue with a bounded hot ring and a disk-backed cold tail.
///
/// Ordering invariant: once anything spills, *every* younger push spills
/// too (a push goes hot only while the cold tail is empty and the ring has
/// room), so `hot ++ cold-file-order` is exactly push order and pops are
/// globally FIFO — the breadth-first expansion order, and with it every
/// count in a report, is independent of the budget.
pub struct SpillQueue<T> {
    hot: VecDeque<T>,
    hot_cap: usize,
    path: Option<PathBuf>,
    file: Option<File>,
    /// Bytes of the logical cold stream already in the file.
    file_bytes: u64,
    /// Staged entries not yet written (flushed at [`WBUF_FLUSH`], or when a
    /// pop needs them).
    wbuf: Vec<u8>,
    /// Next read offset into the logical cold stream (file ++ wbuf).
    rpos: u64,
    cold_len: usize,
    len: usize,
    peak_len: usize,
    spilled_bytes: u64,
    scratch: Vec<u8>,
}

impl<T> SpillQueue<T> {
    /// An empty queue keeping at most `hot_cap` items resident.
    #[must_use]
    pub fn new(hot_cap: usize) -> Self {
        SpillQueue {
            hot: VecDeque::new(),
            hot_cap,
            path: None,
            file: None,
            file_bytes: 0,
            wbuf: Vec::new(),
            rpos: 0,
            cold_len: 0,
            len: 0,
            peak_len: 0,
            spilled_bytes: 0,
            scratch: Vec::new(),
        }
    }

    /// Items currently queued (hot + cold).
    #[must_use]
    pub fn len(&self) -> usize {
        self.len
    }

    /// Whether the queue is empty.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Peak queue length over the queue's lifetime (a logical count, not
    /// bytes — comparable across budgets).
    #[must_use]
    pub fn peak_len(&self) -> usize {
        self.peak_len
    }

    /// Total packed bytes pushed through the cold tail.
    #[must_use]
    pub fn spilled_bytes(&self) -> u64 {
        self.spilled_bytes
    }

    fn flush_wbuf(&mut self) {
        if self.wbuf.is_empty() {
            return;
        }
        if self.file.is_none() {
            let path = spill_path("frontier");
            let file = File::options()
                .read(true)
                .write(true)
                .create_new(true)
                .open(&path)
                .expect("frontier spill create");
            self.path = Some(path);
            self.file = Some(file);
        }
        let file = self.file.as_mut().expect("just ensured");
        file.seek(SeekFrom::Start(self.file_bytes))
            .expect("frontier spill seek");
        file.write_all(&self.wbuf).expect("frontier spill write");
        self.file_bytes += self.wbuf.len() as u64;
        self.wbuf.clear();
    }

    /// Enqueues `item`. While the hot ring has room (and nothing is already
    /// cold) the item stays live; otherwise `pack` encodes it and the bytes
    /// join the cold tail.
    pub fn push(&mut self, item: T, pack: impl FnOnce(&T, &mut Vec<u8>)) {
        self.len += 1;
        self.peak_len = self.peak_len.max(self.len);
        if self.cold_len == 0 && self.hot.len() < self.hot_cap {
            self.hot.push_back(item);
            return;
        }
        let mut entry = std::mem::take(&mut self.scratch);
        entry.clear();
        pack(&item, &mut entry);
        let mut header = [0u8; 4];
        header.copy_from_slice(&(entry.len() as u32).to_le_bytes());
        self.wbuf.extend_from_slice(&header);
        self.wbuf.extend_from_slice(&entry);
        self.spilled_bytes += 4 + entry.len() as u64;
        shm_obs::counter!("store.spilled_bytes", 4 + entry.len() as u64);
        self.cold_len += 1;
        self.scratch = entry;
        if self.wbuf.len() >= WBUF_FLUSH {
            self.flush_wbuf();
        }
    }

    /// Dequeues in global FIFO order.
    pub fn pop(&mut self) -> Option<Popped<T>> {
        if let Some(item) = self.hot.pop_front() {
            self.len -= 1;
            return Some(Popped::Live(item));
        }
        if self.cold_len == 0 {
            return None;
        }
        // The next entry may still be staged; land it first so the read
        // path is always "from the file".
        if self.rpos >= self.file_bytes {
            self.flush_wbuf();
        }
        let file = self.file.as_mut().expect("cold entries exist");
        let mut header = [0u8; 4];
        file.seek(SeekFrom::Start(self.rpos)).expect("spill seek");
        file.read_exact(&mut header).expect("spill read");
        let n = u64::from(u32::from_le_bytes(header));
        // Entries are flushed whole, so an entry that starts in the file
        // ends in it: a longer claimed length is a damaged header, and must
        // not size the allocation below.
        let left = self.file_bytes.saturating_sub(self.rpos + 4);
        assert!(
            n <= left,
            "frontier spill entry at offset {} claims {n} bytes, {left} left in the file",
            self.rpos
        );
        let mut entry = vec![0u8; n as usize];
        file.read_exact(&mut entry).expect("spill read");
        self.rpos += 4 + n;
        self.cold_len -= 1;
        self.len -= 1;
        Some(Popped::Packed(entry))
    }
}

impl<T> Drop for SpillQueue<T> {
    fn drop(&mut self) {
        if let Some(path) = &self.path {
            let _ = std::fs::remove_file(path);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn k(i: u64) -> Key {
        // Scrambled fingerprints so insertion order differs from sorted
        // order (exercises the flush sort).
        (
            u128::from(i.wrapping_mul(0x9E37_79B9_7F4A_7C15)),
            i % 3,
            0,
            i % 7,
        )
    }

    #[test]
    fn budgeted_store_matches_flat_hashset_semantics() {
        // Tiny budget → hot cap 64 → many flushes and at least one merge.
        let mut store = VisitedStore::new(Some(1024), None);
        let mut reference: std::collections::HashSet<Key> = Default::default();
        for round in 0..3 {
            for i in 0..400u64 {
                let key = k(i);
                let fresh = reference.insert(key);
                let got = store.insert(key, Vec::new);
                assert_eq!(
                    got == Lookup::New,
                    fresh,
                    "round {round} key {i}: store {got:?} vs reference {fresh}"
                );
            }
        }
        assert_eq!(store.len(), reference.len() as u64);
        assert!(store.spilled_bytes() > 0, "budget forced spilling");
        assert!(store.peak_bytes() > 0);
    }

    #[test]
    fn unbudgeted_store_never_spills() {
        let mut store = VisitedStore::new(None, None);
        for i in 0..10_000u64 {
            store.insert(k(i), Vec::new);
        }
        assert_eq!(store.spilled_bytes(), 0);
        assert_eq!(store.len(), 10_000);
    }

    #[test]
    #[cfg(any(debug_assertions, feature = "exact-fingerprints"))]
    fn collision_cross_check_fires_across_tiers() {
        // Insert a key with one exact encoding, force it to spill to the
        // cold tier, then hit the same key with a *different* encoding: the
        // debug cross-check must still fire even though the first copy now
        // lives on disk.
        let result = std::panic::catch_unwind(|| {
            let mut store = VisitedStore::new(Some(1024), None);
            let colliding = k(0);
            store.insert(colliding, || vec![1, 2, 3]);
            // 100 more keys blow the 64-key hot cap → flush to disk.
            for i in 1..=100u64 {
                store.insert(k(i), Vec::new);
            }
            assert!(store.spilled_bytes() > 0, "setup: key must be cold");
            store.insert(colliding, || vec![9, 9, 9]);
        });
        let err = result.expect_err("seeded collision must panic");
        let msg = err
            .downcast_ref::<String>()
            .cloned()
            .unwrap_or_else(|| "non-string panic".into());
        assert!(msg.contains("state-fingerprint collision"), "{msg}");
    }

    #[test]
    fn corrupt_run_blocks_read_as_invalid_data() {
        let mut keys: Vec<Key> = (0..600).map(k).collect();
        keys.sort_unstable();
        let run = ColdRun::write(keys.iter().copied(), keys.len()).expect("spill run write");
        assert!(run
            .contains(&keys[0], &mut Vec::new())
            .expect("intact run reads"));
        // Every byte a continuation byte: the first varint never ends.
        run.file.write_all_at(&[0xff; 32], 0).expect("overwrite");
        let err = run.contains(&keys[0], &mut Vec::new()).unwrap_err();
        assert_eq!(err.kind(), std::io::ErrorKind::InvalidData, "{err}");
        let err = RunCursor::new(run).peek().unwrap_err();
        assert_eq!(err.kind(), std::io::ErrorKind::InvalidData, "{err}");
    }

    #[test]
    #[should_panic(expected = "frontier spill entry at offset 12 claims 4294967295 bytes, 20 left")]
    fn spill_queue_rejects_an_entry_longer_than_the_file() {
        let mut q: SpillQueue<u64> = SpillQueue::new(0);
        for v in 0..3u64 {
            q.push(v, |v, out| out.extend_from_slice(&v.to_le_bytes()));
        }
        // The first pop lands all three 12-byte entries in the file.
        assert!(matches!(q.pop(), Some(Popped::Packed(b)) if b == 0u64.to_le_bytes()));
        let file = q.file.as_ref().expect("spilled");
        file.write_all_at(&u32::MAX.to_le_bytes(), q.rpos)
            .expect("overwrite");
        let _ = q.pop();
    }

    #[test]
    fn spill_queue_is_fifo_at_any_budget() {
        for cap in [0usize, 1, 3, 1000] {
            let mut q: SpillQueue<u64> = SpillQueue::new(cap);
            let pack = |v: &u64, out: &mut Vec<u8>| out.extend_from_slice(&v.to_le_bytes());
            let unpack = |buf: &[u8]| u64::from_le_bytes(buf.try_into().expect("8 bytes"));
            let mut popped = Vec::new();
            // Interleave pushes and pops so the hot→cold transition and the
            // staged-write path both get exercised.
            for v in 0..50u64 {
                q.push(v, pack);
                if v % 3 == 0 {
                    match q.pop().expect("non-empty") {
                        Popped::Live(x) => popped.push(x),
                        Popped::Packed(b) => popped.push(unpack(&b)),
                    }
                }
            }
            while let Some(p) = q.pop() {
                match p {
                    Popped::Live(x) => popped.push(x),
                    Popped::Packed(b) => popped.push(unpack(&b)),
                }
            }
            assert_eq!(popped, (0..50).collect::<Vec<_>>(), "cap {cap}");
            assert_eq!(q.len(), 0);
            assert!(q.peak_len() > 0);
            if cap < 50 {
                assert!(q.spilled_bytes() > 0, "cap {cap} must spill");
            } else {
                assert_eq!(q.spilled_bytes(), 0);
            }
        }
    }
}
