//! Histories: the typed event log of an execution, with the queries the
//! paper's definitions need (participation, *sees*, *touches*, regularity).

use crate::ids::{Addr, ProcId, Word};
use crate::machine::CallKind;
use crate::model::AccessCost;
use crate::op::Op;
use std::collections::{BTreeMap, BTreeSet};
use std::sync::Arc;

/// One event in a history.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum Event {
    /// A process began a procedure call.
    Invoke {
        /// Calling process.
        pid: ProcId,
        /// Domain tag of the procedure.
        kind: CallKind,
        /// Procedure name for traces.
        name: &'static str,
    },
    /// A procedure call returned.
    Return {
        /// Calling process.
        pid: ProcId,
        /// Domain tag of the procedure.
        kind: CallKind,
        /// The returned word.
        value: Word,
    },
    /// A process performed one atomic memory access.
    Access {
        /// Acting process.
        pid: ProcId,
        /// The operation performed.
        op: Op,
        /// The word returned by the operation.
        result: Word,
        /// Whether the operation was nontrivial (overwrote the cell).
        wrote: bool,
        /// Price of the access under the simulation's cost model.
        cost: AccessCost,
        /// `Some(q)` iff this access *sees* q: it observed a value last
        /// written by the distinct process q (Definition 6.4; we apply it to
        /// every value-returning operation, i.e. everything except `Write`).
        sees: Option<ProcId>,
        /// `Some(q)` iff this access *touches* q: the cell is local to the
        /// distinct process q (Definition 6.5).
        touches: Option<ProcId>,
    },
    /// A process terminated (its call source was exhausted).
    Terminate {
        /// The terminating process.
        pid: ProcId,
    },
    /// A process crashed: it was stopped while performing a procedure call.
    Crash {
        /// The crashed process.
        pid: ProcId,
    },
}

impl Event {
    /// The process the event belongs to.
    #[must_use]
    pub fn pid(&self) -> ProcId {
        match *self {
            Event::Invoke { pid, .. }
            | Event::Return { pid, .. }
            | Event::Access { pid, .. }
            | Event::Terminate { pid }
            | Event::Crash { pid } => pid,
        }
    }
}

/// A completed or pending procedure call reconstructed from a history.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct CallRecord {
    /// Calling process.
    pub pid: ProcId,
    /// Domain tag.
    pub kind: CallKind,
    /// Index of the `Invoke` event in the history.
    pub invoked_at: usize,
    /// Index of the `Return` event, if the call completed.
    pub returned_at: Option<usize>,
    /// Return value, if the call completed.
    pub return_value: Option<Word>,
}

impl CallRecord {
    /// Whether the call completed within the history.
    #[must_use]
    pub fn is_complete(&self) -> bool {
        self.returned_at.is_some()
    }
}

/// A violation of history regularity (Definition 6.6).
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum RegularityViolation {
    /// Condition 1: `seer` sees `seen`, but `seen` is not finished.
    SeesActive {
        /// The reading process.
        seer: ProcId,
        /// The unfinished process whose write was observed.
        seen: ProcId,
        /// History index of the offending access.
        at: usize,
    },
    /// Condition 2: `toucher` touches `touched`, but `touched` is not finished.
    TouchesActive {
        /// The accessing process.
        toucher: ProcId,
        /// The unfinished owner of the touched cell.
        touched: ProcId,
        /// History index of the offending access.
        at: usize,
    },
    /// Condition 3: a multi-writer cell's last write is by an unfinished process.
    MultiWriterLastWriteActive {
        /// The cell in question.
        addr: Addr,
        /// The unfinished last writer.
        last_writer: ProcId,
    },
}

/// A history event as one process experiences it: cost metadata stripped,
/// identities of other processes invisible. See [`History::projection`].
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum ProjectedEvent {
    /// The process invoked a call of this kind.
    Invoke(CallKind),
    /// The process's call of this kind returned this value.
    Return(CallKind, Word),
    /// The process performed this operation and received this result.
    Access(Op, Word),
}

/// Events per sealed chunk of the log. A power of two so the index
/// arithmetic in [`EventLog::get`] compiles to shifts and masks.
const CHUNK: usize = 512;

/// Maximum chunk buffers the thread-local recycling pool retains.
const CHUNK_POOL_MAX: usize = 256;

std::thread_local! {
    /// Recycled chunk buffers (capacity ≥ [`CHUNK`], length 0). Sealing
    /// pops from here instead of calling `malloc`; dropping a log pushes
    /// its uniquely-owned chunks back. Without recycling, a simulator
    /// teardown frees its whole history as a stream of chunk-sized blocks,
    /// which keeps glibc's adaptive trim threshold small enough that every
    /// teardown shrinks the heap back to the OS — kernel time that showed
    /// up as a serial-stepping regression on rebuild-per-iteration
    /// workloads.
    static CHUNK_POOL: std::cell::RefCell<Vec<Vec<Event>>> =
        const { std::cell::RefCell::new(Vec::new()) };
}

/// A cleared chunk buffer: recycled if the pool has one, fresh otherwise.
fn chunk_buf() -> Vec<Event> {
    CHUNK_POOL
        .with(|p| p.borrow_mut().pop())
        .unwrap_or_else(|| Vec::with_capacity(CHUNK))
}

/// Returns a chunk buffer to the pool (dropping it if full or undersized).
fn recycle_chunk(mut buf: Vec<Event>) {
    if buf.capacity() >= CHUNK {
        CHUNK_POOL.with(|p| {
            let mut pool = p.borrow_mut();
            if pool.len() < CHUNK_POOL_MAX {
                buf.clear();
                pool.push(buf);
            }
        });
    }
}

/// Chunked event storage: a sequence of sealed, immutable, `Arc`-shared
/// chunks of exactly [`CHUNK`] events each, plus an open tail the next
/// pushes land in.
///
/// `push` appends to the tail and seals it into a fresh chunk when full —
/// it **never** moves or reallocates previously recorded events, unlike a
/// growing `Vec` whose doublings copy the whole log. Cloning bumps the
/// sealed chunks' refcounts and copies only the (< [`CHUNK`]-event) tail,
/// so forking a simulator is O(len / CHUNK) in the history, not O(len).
#[derive(Clone, Debug, Default)]
struct EventLog {
    sealed: Vec<Arc<Vec<Event>>>,
    tail: Vec<Event>,
}

impl EventLog {
    fn len(&self) -> usize {
        self.sealed.len() * CHUNK + self.tail.len()
    }

    fn is_empty(&self) -> bool {
        self.sealed.is_empty() && self.tail.is_empty()
    }

    #[inline]
    fn push(&mut self, e: Event) {
        if self.tail.len() == CHUNK {
            self.seal_tail();
        }
        self.tail.push(e);
    }

    /// Seals the (exactly-[`CHUNK`]-event) tail into a fresh chunk. The
    /// check runs before every push, so the tail can never grow past
    /// `CHUNK` and sealed chunks are always exactly `CHUNK` events — the
    /// invariant [`EventLog::get`]'s index arithmetic relies on.
    #[cold]
    fn seal_tail(&mut self) {
        let full = std::mem::replace(&mut self.tail, chunk_buf());
        self.sealed.push(Arc::new(full));
    }

    fn get(&self, i: usize) -> &Event {
        let c = i / CHUNK;
        if c < self.sealed.len() {
            &self.sealed[c][i % CHUNK]
        } else {
            &self.tail[i - self.sealed.len() * CHUNK]
        }
    }

    fn iter(&self) -> impl DoubleEndedIterator<Item = &Event> + Clone + '_ {
        self.sealed
            .iter()
            .flat_map(|c| c.iter())
            .chain(self.tail.iter())
    }

    /// Iterates events `start..len`. Jumps straight to the containing chunk
    /// and slices into it — O(1) setup, no walk over skipped events.
    fn iter_from(&self, start: usize) -> impl Iterator<Item = &Event> + Clone + '_ {
        type Parts<'a> = (&'a [Event], &'a [Arc<Vec<Event>>], &'a [Event]);
        let c = start / CHUNK;
        let (first, rest, tail): Parts<'_> = if c < self.sealed.len() {
            (
                &self.sealed[c][start % CHUNK..],
                &self.sealed[c + 1..],
                &self.tail,
            )
        } else {
            let t = (start - self.sealed.len() * CHUNK).min(self.tail.len());
            (&self.tail[t..], &[], &[])
        };
        first
            .iter()
            .chain(rest.iter().flat_map(|ch| ch.iter()))
            .chain(tail.iter())
    }

    /// Keeps the first `len` events. Sealed chunks past the cut are
    /// dropped; a chunk the cut lands inside is unsealed back into the
    /// tail (its prefix is copied — at most `CHUNK - 1` events).
    fn truncate(&mut self, len: usize) {
        if len >= self.len() {
            return;
        }
        let keep = len / CHUNK;
        if keep < self.sealed.len() {
            let boundary = self.sealed[keep].clone();
            self.sealed.truncate(keep);
            self.tail.clear();
            if self.tail.capacity() < CHUNK {
                self.tail.reserve(CHUNK);
            }
            self.tail.extend_from_slice(&boundary[..len % CHUNK]);
        } else {
            self.tail.truncate(len - self.sealed.len() * CHUNK);
        }
    }

    #[cfg(test)]
    fn iter_mut(&mut self) -> impl Iterator<Item = &mut Event> {
        self.sealed
            .iter_mut()
            .flat_map(|c| Arc::make_mut(c).iter_mut())
            .chain(self.tail.iter_mut())
    }
}

impl Drop for EventLog {
    /// Harvests uniquely-owned chunk buffers back into the thread-local
    /// pool instead of freeing them. Chunks still shared with another log
    /// (snapshots, clones) just drop their refcount as usual.
    fn drop(&mut self) {
        for arc in self.sealed.drain(..) {
            if let Ok(buf) = Arc::try_unwrap(arc) {
                recycle_chunk(buf);
            }
        }
        recycle_chunk(std::mem::take(&mut self.tail));
    }
}

/// The event log of one execution.
///
/// A `History` corresponds to the paper's history `H`: a finite sequence of
/// steps from well-defined initial conditions (§2). Queries implement the
/// definitions of §6 so the adversary and the test suite can check the
/// constructions mechanically.
///
/// Alongside the raw event log, a `History` maintains a per-process rolling
/// **projection fingerprint**: a 128-bit polynomial hash over exactly the
/// sequence [`History::projection`] would produce for that process. Two
/// histories with equal fingerprints for `p` have equal projections for `p`
/// (up to hash collision, which
/// [`Simulator::erase_certified_in_place`](crate::Simulator::erase_certified_in_place)
/// guards with an exact comparison in debug builds), which turns survivor
/// certification under erasure from an O(history) event comparison into an
/// O(1) hash comparison.
///
/// Each event is folded into its process's hash at `push`, while it is
/// still in registers, so a read is a plain lookup. `History::rewind`
/// reinstates the hashes a checkpoint recorded.
#[derive(Clone, Debug, Default)]
pub struct History {
    events: EventLog,
    /// `proj_hash[p]` = rolling hash of `projection(ProcId(p))`. Grown on
    /// demand; missing entries mean "no projected events yet".
    proj_hash: Vec<u128>,
}

/// Odd multiplier for the polynomial fingerprint (random 128-bit constant).
const FP_MUL: u128 = 0x9ddf_ea08_eb38_2d69_a54f_f53a_5f1d_36f1;

/// Fingerprint of the empty projection.
const FP_EMPTY: u128 = 0;

#[inline]
fn fp_absorb(h: u128, word: u64) -> u128 {
    h.wrapping_mul(FP_MUL)
        .wrapping_add(u128::from(crate::rng::mix64(word)))
}

/// Folds an arbitrary word sequence into a 128-bit fingerprint of the same
/// polynomial family as the projection fingerprints. The length is absorbed
/// first, so sequences of different lengths never trivially collide. Used by
/// [`crate::sim::Simulator::state_fingerprint`] to hash whole-machine states
/// for the schedule-space explorer's deduplication.
#[must_use]
pub fn fingerprint_words(words: &[u64]) -> u128 {
    let mut h = fp_absorb(FP_EMPTY, words.len() as u64);
    for &w in words {
        h = fp_absorb(h, w);
    }
    h
}

/// Encodes an operation as fixed-width words for fingerprinting. The leading
/// tag makes the encoding prefix-free across variants.
#[inline]
fn fp_op_words(op: &Op) -> [u64; 4] {
    match *op {
        Op::Read(a) => [0, u64::from(a.0), 0, 0],
        Op::Write(a, w) => [1, u64::from(a.0), w, 0],
        Op::Cas(a, e, n) => [2, u64::from(a.0), e, n],
        Op::Ll(a) => [3, u64::from(a.0), 0, 0],
        Op::Sc(a, w) => [4, u64::from(a.0), w, 0],
        Op::Faa(a, d) => [5, u64::from(a.0), d, 0],
        Op::Fas(a, w) => [6, u64::from(a.0), w, 0],
        Op::Tas(a) => [7, u64::from(a.0), 0, 0],
    }
}

impl History {
    /// Creates an empty history.
    #[must_use]
    pub fn new() -> Self {
        Self::default()
    }

    /// Removes every event of the processes marked in `gone` (indexed by
    /// pid), resetting their fingerprints to the empty-projection seed, and
    /// overwrites the `sees` field of the survivor accesses listed in
    /// `sees`: `(event index, new value)` pairs in ascending index order,
    /// indexing the log before removal.
    ///
    /// `from` is a lower bound on the index of the first event to remove:
    /// no event before it belongs to a `gone` process. The sealed chunks
    /// that lie wholly before the first removed event or `sees` fix stay
    /// shared as they are; only the suffix from there on is rewritten.
    ///
    /// Survivors' projections and fingerprints are untouched: this is only
    /// sound when the caller has certified that no surviving projection
    /// changes under the erasure (Lemma 6.7), which is exactly when the
    /// simulator's DSM surgery uses it.
    pub(crate) fn erase_pids(
        &mut self,
        gone: &[bool],
        sees: &[(usize, Option<ProcId>)],
        from: usize,
    ) {
        let is_gone = |e: &Event| gone.get(e.pid().index()).copied().unwrap_or(false);
        debug_assert!(
            !self.events.iter().take(from).any(is_gone),
            "erase_pids: an erased event precedes `from`"
        );
        let first_gone = self
            .events
            .iter_from(from)
            .position(is_gone)
            .map_or(self.events.len(), |k| from + k);
        let cut = sees
            .first()
            .map_or(first_gone, |&(at, _)| at.min(first_gone));
        let keep = (cut / CHUNK).min(self.events.sealed.len());
        let suffix = self.events.sealed.split_off(keep);
        let tail = std::mem::replace(&mut self.events.tail, chunk_buf());
        let mut fixes = sees.iter().peekable();
        for (i, e) in suffix
            .iter()
            .flat_map(|c| c.iter())
            .chain(tail.iter())
            .enumerate()
        {
            if is_gone(e) {
                continue;
            }
            let mut e = e.clone();
            if let Some(&(_, q)) = fixes.next_if(|&&(at, _)| at == keep * CHUNK + i) {
                if let Event::Access { sees, .. } = &mut e {
                    *sees = q;
                }
            }
            self.events.push(e);
        }
        for arc in suffix {
            if let Ok(buf) = Arc::try_unwrap(arc) {
                recycle_chunk(buf);
            }
        }
        recycle_chunk(tail);
        for (i, h) in self.proj_hash.iter_mut().enumerate() {
            if gone.get(i).copied().unwrap_or(false) {
                *h = FP_EMPTY;
            }
        }
    }

    /// Rewinds to `len` events, resetting fingerprints to `hashes` (the
    /// fingerprint state recorded when the history had `len` events).
    pub(crate) fn rewind(&mut self, len: usize, hashes: &[u128]) {
        assert!(len <= self.events.len(), "rewind past the end");
        self.events.truncate(len);
        self.proj_hash.clear();
        self.proj_hash.extend_from_slice(hashes);
    }

    /// The projected words of an event, or `None` for events outside the
    /// projection. Mirrors [`History::projection`] exactly: only
    /// Invoke/Return/Access project.
    fn fp_words(e: &Event) -> Option<(ProcId, [u64; 6])> {
        match *e {
            Event::Invoke { pid, kind, .. } => Some((pid, [1, u64::from(kind.0), 0, 0, 0, 0])),
            Event::Return { pid, kind, value } => {
                Some((pid, [2, u64::from(kind.0), value, 0, 0, 0]))
            }
            Event::Access {
                pid, op, result, ..
            } => {
                let [t, a, x, y] = fp_op_words(&op);
                Some((pid, [3, t, a, x, y, result]))
            }
            Event::Terminate { .. } | Event::Crash { .. } => None,
        }
    }

    /// The rolling fingerprint of [`History::projection`]`(pid)`. Equal
    /// fingerprints certify equal projections (up to hash collision).
    #[must_use]
    pub fn fingerprint(&self, pid: ProcId) -> u128 {
        self.proj_hash.get(pid.index()).copied().unwrap_or(FP_EMPTY)
    }

    /// All per-process fingerprints (indexed by process; possibly shorter
    /// than the process count — missing entries are empty projections).
    #[must_use]
    pub fn fingerprints(&self) -> Vec<u128> {
        let mut out = Vec::new();
        self.fingerprints_into(&mut out);
        out
    }

    /// [`History::fingerprints`] into a caller-owned buffer (cleared first),
    /// for checkpoint-taking hot paths that snapshot every explored node.
    pub fn fingerprints_into(&self, out: &mut Vec<u128>) {
        out.clear();
        out.extend_from_slice(&self.proj_hash);
    }

    /// Appends an event (used by the simulator), folding its projected
    /// words into the owning process's rolling hash.
    #[inline]
    pub(crate) fn push(&mut self, e: Event) {
        if let Some((pid, words)) = Self::fp_words(&e) {
            let i = pid.index();
            if self.proj_hash.len() <= i {
                self.proj_hash.resize(i + 1, FP_EMPTY);
            }
            let mut h = self.proj_hash[i];
            for w in words {
                h = fp_absorb(h, w);
            }
            self.proj_hash[i] = h;
        }
        self.events.push(e);
    }

    /// All events in order.
    pub fn events(&self) -> impl DoubleEndedIterator<Item = &Event> + Clone + '_ {
        self.events.iter()
    }

    /// Events `start..len` in order. Sealed chunks wholly below `start` are
    /// skipped without being touched.
    pub fn events_from(&self, start: usize) -> impl Iterator<Item = &Event> + Clone + '_ {
        self.events.iter_from(start)
    }

    /// The event at index `i`.
    ///
    /// # Panics
    /// If `i >= len()`.
    #[must_use]
    pub fn event(&self, i: usize) -> &Event {
        self.events.get(i)
    }

    /// The whole log as a freshly allocated `Vec` (for tests and one-off
    /// comparisons; prefer [`History::events`] everywhere else).
    #[must_use]
    pub fn to_vec(&self) -> Vec<Event> {
        self.events.iter().cloned().collect()
    }

    /// Mutable access to the recorded events, bypassing fingerprint
    /// maintenance. For audit-layer tamper tests only.
    #[cfg(test)]
    pub(crate) fn events_mut(&mut self) -> impl Iterator<Item = &mut Event> {
        self.events.iter_mut()
    }

    /// Number of events.
    #[must_use]
    pub fn len(&self) -> usize {
        self.events.len()
    }

    /// Whether the history is empty.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.events.is_empty()
    }

    /// `Par(H)`: processes that take at least one step in the history.
    #[must_use]
    pub fn participants(&self) -> BTreeSet<ProcId> {
        self.events.iter().map(Event::pid).collect()
    }

    /// `Fin(H)`: participating processes that have terminated (or crashed)
    /// by the end of the history.
    #[must_use]
    pub fn finished(&self) -> BTreeSet<ProcId> {
        self.events
            .iter()
            .filter_map(|e| match *e {
                Event::Terminate { pid } | Event::Crash { pid } => Some(pid),
                _ => None,
            })
            .collect()
    }

    /// `Act(H) = Par(H) \ Fin(H)`.
    #[must_use]
    pub fn active(&self) -> BTreeSet<ProcId> {
        let fin = self.finished();
        self.participants()
            .into_iter()
            .filter(|p| !fin.contains(p))
            .collect()
    }

    /// All (seer, seen) pairs: p sees q if p observed a value last written by
    /// the distinct process q (Definition 6.4).
    #[must_use]
    pub fn sees_pairs(&self) -> BTreeSet<(ProcId, ProcId)> {
        self.events
            .iter()
            .filter_map(|e| match *e {
                Event::Access {
                    pid, sees: Some(q), ..
                } => Some((pid, q)),
                _ => None,
            })
            .collect()
    }

    /// All (toucher, touched) pairs: p touches q if p accessed a cell local
    /// to the distinct process q (Definition 6.5).
    #[must_use]
    pub fn touches_pairs(&self) -> BTreeSet<(ProcId, ProcId)> {
        self.events
            .iter()
            .filter_map(|e| match *e {
                Event::Access {
                    pid,
                    touches: Some(q),
                    ..
                } => Some((pid, q)),
                _ => None,
            })
            .collect()
    }

    /// Total RMRs across all accesses.
    #[must_use]
    pub fn total_rmrs(&self) -> u64 {
        self.events
            .iter()
            .map(|e| match e {
                Event::Access { cost, .. } => u64::from(cost.rmr),
                _ => 0,
            })
            .sum()
    }

    /// RMRs incurred by one process.
    #[must_use]
    pub fn rmrs_of(&self, pid: ProcId) -> u64 {
        self.events
            .iter()
            .map(|e| match e {
                Event::Access { pid: p, cost, .. } if *p == pid => u64::from(cost.rmr),
                _ => 0,
            })
            .sum()
    }

    /// Reconstructs per-call records by matching `Invoke`/`Return` events.
    #[must_use]
    pub fn calls(&self) -> Vec<CallRecord> {
        let mut out = Vec::new();
        self.calls_into(&mut out);
        out
    }

    /// [`History::calls`] into a caller-owned buffer, so hot loops (the
    /// schedule-space explorer judges every generated state) can amortize
    /// the allocation. The buffer is cleared first.
    ///
    /// The open-call map is a flat pid-indexed vector: each process has at
    /// most one call open at a time, and pids are dense small integers.
    pub fn calls_into(&self, out: &mut Vec<CallRecord>) {
        let mut open: Vec<usize> = Vec::new();
        self.calls_into_open(out, &mut open);
    }

    /// [`History::calls_into`] that also hands back the open-call map
    /// (`open[pid] = record index + 1`, `0` = no open call), so the records
    /// can later be advanced by [`History::calls_extend`] instead of being
    /// rebuilt from scratch.
    pub fn calls_into_open(&self, out: &mut Vec<CallRecord>, open: &mut Vec<usize>) {
        out.clear();
        open.clear();
        self.calls_extend(0, out, open);
    }

    /// Advances a `(records, open-map)` pair that reflects the history
    /// prefix of length `from` across the events appended since — O(new
    /// events), not O(history). The explorer's claim loop judges each
    /// stepped child against the fixed node-state records plus the one or
    /// two events the step emitted.
    pub fn calls_extend(&self, from: usize, out: &mut Vec<CallRecord>, open: &mut Vec<usize>) {
        for (off, e) in self.events.iter_from(from).enumerate() {
            let i = from + off;
            match *e {
                Event::Invoke { pid, kind, .. } => {
                    let p = pid.index();
                    if open.len() <= p {
                        open.resize(p + 1, 0);
                    }
                    open[p] = out.len() + 1;
                    out.push(CallRecord {
                        pid,
                        kind,
                        invoked_at: i,
                        returned_at: None,
                        return_value: None,
                    });
                }
                Event::Return { pid, value, .. } => {
                    let slot = open
                        .get_mut(pid.index())
                        .filter(|s| **s != 0)
                        .expect("return without matching invoke");
                    let idx = *slot - 1;
                    *slot = 0;
                    out[idx].returned_at = Some(i);
                    out[idx].return_value = Some(value);
                }
                _ => {}
            }
        }
    }

    /// The semantic projection of the history onto one process: its invokes,
    /// returns, and accesses (operation + result), with cost metadata
    /// stripped. Two executions are indistinguishable to a process iff its
    /// projections are equal — the criterion the lower-bound adversary uses
    /// to certify that *erasing* other processes was transparent
    /// (Lemma 6.7's conclusion, checked mechanically).
    #[must_use]
    pub fn projection(&self, pid: ProcId) -> Vec<ProjectedEvent> {
        self.events
            .iter()
            .filter_map(|e| match *e {
                Event::Invoke { pid: p, kind, .. } if p == pid => {
                    Some(ProjectedEvent::Invoke(kind))
                }
                Event::Return {
                    pid: p,
                    kind,
                    value,
                } if p == pid => Some(ProjectedEvent::Return(kind, value)),
                Event::Access {
                    pid: p, op, result, ..
                } if p == pid => Some(ProjectedEvent::Access(op, result)),
                _ => None,
            })
            .collect()
    }

    /// Checks regularity (Definition 6.6). Conditions 1 and 2 require every
    /// seen/touched process to be in `Fin(H)`; condition 3 requires the last
    /// writer of every multi-writer cell to be in `Fin(H)`.
    ///
    /// Returns all violations (empty = regular).
    #[must_use]
    pub fn regularity_violations(&self) -> Vec<RegularityViolation> {
        self.regularity_violations_given_fin(&self.finished())
    }

    /// Like [`History::regularity_violations`], but with the finished set
    /// supplied by the caller. The lower-bound adversary manages termination
    /// as bookkeeping (a rolled-forward waiter "completes its pending
    /// `Poll()` and terminates" without the simulator recording a
    /// `Terminate` event), so it checks regularity against its own `Fin`.
    #[must_use]
    pub fn regularity_violations_given_fin(
        &self,
        fin: &BTreeSet<ProcId>,
    ) -> Vec<RegularityViolation> {
        let mut violations = Vec::new();
        // Definition 6.6 quantifies over p, q ∈ Par(H): seeing or touching a
        // process that never takes a step (e.g. the owner of a memory module
        // who was erased) constrains nothing.
        let participants = self.participants();
        // Conditions 1 and 2, checked against end-of-history Fin (the
        // definition quantifies over the whole history).
        for (i, e) in self.events.iter().enumerate() {
            if let Event::Access {
                pid, sees, touches, ..
            } = *e
            {
                if let Some(q) = sees {
                    if participants.contains(&q) && !fin.contains(&q) {
                        violations.push(RegularityViolation::SeesActive {
                            seer: pid,
                            seen: q,
                            at: i,
                        });
                    }
                }
                if let Some(q) = touches {
                    if participants.contains(&q) && !fin.contains(&q) {
                        violations.push(RegularityViolation::TouchesActive {
                            toucher: pid,
                            touched: q,
                            at: i,
                        });
                    }
                }
            }
        }
        // Condition 3: reconstruct per-cell writer sets from the log.
        let mut writers: BTreeMap<Addr, (BTreeSet<ProcId>, ProcId)> = BTreeMap::new();
        for e in self.events.iter() {
            if let Event::Access {
                pid,
                op,
                wrote: true,
                ..
            } = *e
            {
                let entry = writers
                    .entry(op.addr())
                    .or_insert_with(|| (BTreeSet::new(), pid));
                entry.0.insert(pid);
                entry.1 = pid;
            }
        }
        for (addr, (set, last)) in writers {
            if set.len() > 1 && !fin.contains(&last) {
                violations.push(RegularityViolation::MultiWriterLastWriteActive {
                    addr,
                    last_writer: last,
                });
            }
        }
        violations
    }

    /// Whether the history is regular (Definition 6.6).
    #[must_use]
    pub fn is_regular(&self) -> bool {
        self.regularity_violations().is_empty()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::model::AccessCost;

    fn access(pid: u32, addr: u32, wrote: bool, sees: Option<u32>, touches: Option<u32>) -> Event {
        Event::Access {
            pid: ProcId(pid),
            op: if wrote {
                Op::Write(Addr(addr), 1)
            } else {
                Op::Read(Addr(addr))
            },
            result: 0,
            wrote,
            cost: AccessCost {
                rmr: true,
                messages: 1,
                invalidations: 0,
            },
            sees: sees.map(ProcId),
            touches: touches.map(ProcId),
        }
    }

    #[test]
    fn participants_active_finished() {
        let mut h = History::new();
        h.push(access(0, 0, true, None, None));
        h.push(access(1, 1, false, None, None));
        h.push(Event::Terminate { pid: ProcId(1) });
        assert_eq!(h.participants().len(), 2);
        assert_eq!(h.finished(), BTreeSet::from([ProcId(1)]));
        assert_eq!(h.active(), BTreeSet::from([ProcId(0)]));
    }

    #[test]
    fn empty_history_is_regular() {
        assert!(History::new().is_regular());
    }

    #[test]
    fn sees_active_process_breaks_regularity() {
        let mut h = History::new();
        h.push(access(0, 0, true, None, None)); // p0 writes
        h.push(access(1, 0, false, Some(0), None)); // p1 sees p0
        assert!(!h.is_regular());
        h.push(Event::Terminate { pid: ProcId(0) });
        assert!(
            h.is_regular(),
            "finishing the seen process restores regularity"
        );
    }

    #[test]
    fn touches_active_process_breaks_regularity() {
        let mut h = History::new();
        h.push(access(0, 9, false, None, None)); // p0 participates
        h.push(access(1, 5, false, None, Some(0)));
        assert!(matches!(
            h.regularity_violations()[0],
            RegularityViolation::TouchesActive {
                toucher: ProcId(1),
                touched: ProcId(0),
                ..
            }
        ));
    }

    #[test]
    fn touching_a_non_participant_is_not_a_violation() {
        // Definition 6.6 quantifies over Par(H): the owner of a touched
        // module that never takes a step constrains nothing.
        let mut h = History::new();
        h.push(access(1, 5, false, None, Some(0)));
        assert!(h.is_regular());
    }

    #[test]
    fn multi_writer_last_write_by_active_breaks_regularity() {
        let mut h = History::new();
        h.push(access(0, 3, true, None, None));
        h.push(access(1, 3, true, None, None));
        h.push(Event::Terminate { pid: ProcId(0) });
        let v = h.regularity_violations();
        assert_eq!(v.len(), 1);
        assert!(matches!(
            v[0],
            RegularityViolation::MultiWriterLastWriteActive {
                addr: Addr(3),
                last_writer: ProcId(1)
            }
        ));
    }

    #[test]
    fn single_writer_cell_never_violates_condition_3() {
        let mut h = History::new();
        h.push(access(0, 3, true, None, None));
        h.push(access(0, 3, true, None, None));
        assert!(h.is_regular());
    }

    #[test]
    fn call_records_match_invokes_to_returns() {
        let mut h = History::new();
        h.push(Event::Invoke {
            pid: ProcId(0),
            kind: CallKind(1),
            name: "Poll",
        });
        h.push(Event::Invoke {
            pid: ProcId(1),
            kind: CallKind(2),
            name: "Signal",
        });
        h.push(Event::Return {
            pid: ProcId(0),
            kind: CallKind(1),
            value: 0,
        });
        let calls = h.calls();
        assert_eq!(calls.len(), 2);
        assert_eq!(calls[0].return_value, Some(0));
        assert!(calls[0].is_complete());
        assert!(!calls[1].is_complete());
    }

    #[test]
    fn rmr_counting() {
        let mut h = History::new();
        h.push(access(0, 0, true, None, None));
        h.push(access(1, 0, false, None, None));
        assert_eq!(h.total_rmrs(), 2);
        assert_eq!(h.rmrs_of(ProcId(0)), 1);
        assert_eq!(h.rmrs_of(ProcId(2)), 0);
    }

    #[test]
    fn crash_counts_as_finished() {
        let mut h = History::new();
        h.push(access(0, 0, true, None, None));
        h.push(Event::Crash { pid: ProcId(0) });
        assert!(h.finished().contains(&ProcId(0)));
    }

    #[test]
    fn fingerprints_ignore_other_processes_and_metadata() {
        // Same projection for p0, different interleavings / cost metadata /
        // terminate markers: fingerprints must agree.
        let mut a = History::new();
        a.push(access(0, 1, true, None, None));
        a.push(access(1, 2, false, None, Some(0)));
        a.push(Event::Terminate { pid: ProcId(1) });
        let mut b = History::new();
        b.push(Event::Crash { pid: ProcId(2) });
        b.push(access(0, 1, true, None, None));
        assert_eq!(a.fingerprint(ProcId(0)), b.fingerprint(ProcId(0)));
        assert_ne!(a.fingerprint(ProcId(1)), b.fingerprint(ProcId(1)));
        // Untracked pid: empty projection on both sides.
        assert_eq!(a.fingerprint(ProcId(9)), b.fingerprint(ProcId(9)));
    }

    #[test]
    fn fingerprints_distinguish_results_and_kinds() {
        let mk = |value| {
            let mut h = History::new();
            h.push(Event::Invoke {
                pid: ProcId(0),
                kind: CallKind(1),
                name: "Poll",
            });
            h.push(Event::Return {
                pid: ProcId(0),
                kind: CallKind(1),
                value,
            });
            h
        };
        assert_ne!(mk(0).fingerprint(ProcId(0)), mk(1).fingerprint(ProcId(0)));
        assert_eq!(mk(1).fingerprint(ProcId(0)), mk(1).fingerprint(ProcId(0)));
    }

    /// Fingerprints track a hand-rolled reference fold at every read,
    /// including across a `rewind` to a mid-sequence state followed by a
    /// different continuation.
    #[test]
    fn fingerprints_match_reference_across_rewind() {
        let mut rng = crate::rng::XorShift64::new(0xBA7C);
        let mut h = History::new();
        let mut reference: Vec<u128> = Vec::new();
        let mut saved = None;
        for i in 0..200 {
            if i == 100 {
                saved = Some((h.len(), h.fingerprints(), reference.clone()));
            }
            if i == 150 {
                let (len, hashes, r) = saved.take().expect("saved at 100");
                h.rewind(len, &hashes);
                reference = r;
            }
            let pid = rng.below(4) as u32;
            let e = access(pid, rng.below(3) as u32, rng.chance(1, 2), None, None);
            if let Some((p, words)) = History::fp_words(&e) {
                let j = p.index();
                if reference.len() <= j {
                    reference.resize(j + 1, FP_EMPTY);
                }
                for w in words {
                    reference[j] = fp_absorb(reference[j], w);
                }
            }
            h.push(e);
            if i % 17 == 0 || i == 150 {
                for p in 0..4u32 {
                    let want = reference.get(p as usize).copied().unwrap_or(FP_EMPTY);
                    assert_eq!(h.fingerprint(ProcId(p)), want, "read at {i}");
                }
            }
        }
        assert_eq!(h.fingerprints(), reference);
    }

    /// The chunked log behaves exactly like a flat `Vec` across chunk
    /// boundaries: push, indexed access, ranged iteration, truncate (both
    /// inside the tail and back across sealed chunks), and clone isolation.
    #[test]
    fn chunked_log_matches_flat_vec_reference() {
        let mut rng = crate::rng::XorShift64::new(0xC4EC);
        let mut h = History::new();
        let mut flat: Vec<Event> = Vec::new();
        let total = CHUNK * 2 + CHUNK / 2;
        for _ in 0..total {
            let e = access(rng.below(5) as u32, rng.below(4) as u32, true, None, None);
            h.push(e.clone());
            flat.push(e);
        }
        assert_eq!(h.len(), flat.len());
        assert_eq!(h.to_vec(), flat);
        for &i in &[0, 1, CHUNK - 1, CHUNK, 2 * CHUNK + 3, total - 1] {
            assert_eq!(h.event(i), &flat[i], "event({i})");
        }
        for &s in &[0, 1, CHUNK, CHUNK + 1, 2 * CHUNK + 5, total] {
            assert!(
                h.events_from(s).eq(flat[s..].iter()),
                "events_from({s}) mismatch"
            );
        }
        assert!(h.events().rev().eq(flat.iter().rev()), "reverse iteration");

        // A clone shares chunks but diverges independently.
        let mut fork = h.clone();
        let extra = access(9, 0, true, None, None);
        fork.push(extra.clone());
        assert_eq!(h.len(), flat.len(), "original unaffected by fork push");
        assert_eq!(fork.event(total), &extra);

        // Truncate inside the tail, then back across a sealed chunk.
        let hashes = h.fingerprints();
        h.rewind(2 * CHUNK + 5, &hashes);
        flat.truncate(2 * CHUNK + 5);
        assert_eq!(h.to_vec(), flat);
        h.rewind(CHUNK / 2, &hashes);
        flat.truncate(CHUNK / 2);
        assert_eq!(h.to_vec(), flat);
        // And keep growing after the unseal.
        for _ in 0..CHUNK {
            let e = access(rng.below(5) as u32, rng.below(4) as u32, true, None, None);
            h.push(e.clone());
            flat.push(e);
        }
        assert_eq!(h.to_vec(), flat);
    }

    /// Generates a random access history over `n_procs` processes and
    /// `n_cells` cells (writes only — condition 3 is about writer sets), plus
    /// a random finished set.
    fn random_write_history(
        rng: &mut crate::rng::XorShift64,
        n_procs: u32,
        n_cells: u32,
        len: usize,
    ) -> (History, BTreeSet<ProcId>) {
        let mut h = History::new();
        for _ in 0..len {
            let pid = rng.below(u64::from(n_procs)) as u32;
            let addr = rng.below(u64::from(n_cells)) as u32;
            h.push(access(pid, addr, true, None, None));
        }
        let mut fin = BTreeSet::new();
        for p in 0..n_procs {
            if rng.chance(1, 2) {
                fin.insert(ProcId(p));
            }
        }
        (h, fin)
    }

    /// Property: condition-3 violations are exactly the multi-writer cells
    /// whose last writer is outside `fin` — one violation per such cell,
    /// naming that last writer — for arbitrary write histories and `fin` sets.
    #[test]
    fn prop_multi_writer_last_write_active_matches_reference() {
        let mut rng = crate::rng::XorShift64::new(0xE1);
        for _ in 0..200 {
            let (h, fin) = random_write_history(&mut rng, 5, 4, 24);
            // Independent reconstruction of per-cell writer sets.
            let mut expected = Vec::new();
            for a in 0..4u32 {
                let writers: BTreeSet<ProcId> = h
                    .events()
                    .filter_map(|e| match *e {
                        Event::Access {
                            pid,
                            op,
                            wrote: true,
                            ..
                        } if op.addr() == Addr(a) => Some(pid),
                        _ => None,
                    })
                    .collect();
                let last = h.events().rev().find_map(|e| match *e {
                    Event::Access {
                        pid,
                        op,
                        wrote: true,
                        ..
                    } if op.addr() == Addr(a) => Some(pid),
                    _ => None,
                });
                if let Some(last) = last {
                    if writers.len() > 1 && !fin.contains(&last) {
                        expected.push(RegularityViolation::MultiWriterLastWriteActive {
                            addr: Addr(a),
                            last_writer: last,
                        });
                    }
                }
            }
            let got: Vec<_> = h
                .regularity_violations_given_fin(&fin)
                .into_iter()
                .filter(|v| matches!(v, RegularityViolation::MultiWriterLastWriteActive { .. }))
                .collect();
            assert_eq!(got, expected, "history: {:?}, fin: {fin:?}", h.to_vec());
        }
    }

    /// Property: a cell only ever written by one process never triggers
    /// condition 3, whatever the finished set.
    #[test]
    fn prop_single_writer_cells_never_violate_condition_3() {
        let mut rng = crate::rng::XorShift64::new(0xE2);
        for _ in 0..100 {
            // One exclusive cell per process.
            let mut h = History::new();
            for _ in 0..20 {
                let pid = rng.below(5) as u32;
                h.push(access(pid, pid, true, None, None));
            }
            let (_, fin) = random_write_history(&mut rng, 5, 1, 0);
            assert!(h
                .regularity_violations_given_fin(&fin)
                .iter()
                .all(|v| !matches!(v, RegularityViolation::MultiWriterLastWriteActive { .. })));
        }
    }

    /// Property (empty finished set): with `fin = ∅`, *every* multi-writer
    /// cell violates condition 3 and every sees/touches of a participant
    /// violates conditions 1/2; an empty history still has no violations.
    #[test]
    fn prop_empty_fin_flags_every_multi_writer_cell() {
        let empty = BTreeSet::new();
        assert!(History::new()
            .regularity_violations_given_fin(&empty)
            .is_empty());

        let mut rng = crate::rng::XorShift64::new(0xE3);
        for _ in 0..100 {
            let (h, _) = random_write_history(&mut rng, 4, 3, 18);
            let multi_writer_cells: BTreeSet<Addr> = (0..3u32)
                .map(Addr)
                .filter(|&a| {
                    let writers: BTreeSet<ProcId> = h
                        .events()
                        .filter_map(|e| match *e {
                            Event::Access {
                                pid,
                                op,
                                wrote: true,
                                ..
                            } if op.addr() == a => Some(pid),
                            _ => None,
                        })
                        .collect();
                    writers.len() > 1
                })
                .collect();
            let flagged: BTreeSet<Addr> = h
                .regularity_violations_given_fin(&empty)
                .into_iter()
                .filter_map(|v| match v {
                    RegularityViolation::MultiWriterLastWriteActive { addr, .. } => Some(addr),
                    _ => None,
                })
                .collect();
            assert_eq!(flagged, multi_writer_cells);
        }
    }

    /// With `fin = ∅`, sees/touches of participants are condition-1/2
    /// violations at the recorded indices; sees/touches of non-participants
    /// constrain nothing.
    #[test]
    fn empty_fin_sees_touches_and_nonparticipants() {
        let mut h = History::new();
        h.push(access(0, 0, true, None, None));
        h.push(access(1, 0, false, Some(0), Some(0)));
        // Process 7 never takes a step: seeing it constrains nothing.
        h.push(access(2, 1, false, Some(7), Some(7)));
        let empty = BTreeSet::new();
        let violations = h.regularity_violations_given_fin(&empty);
        assert_eq!(
            violations,
            vec![
                RegularityViolation::SeesActive {
                    seer: ProcId(1),
                    seen: ProcId(0),
                    at: 1,
                },
                RegularityViolation::TouchesActive {
                    toucher: ProcId(1),
                    touched: ProcId(0),
                    at: 1,
                },
            ]
        );
    }
}
