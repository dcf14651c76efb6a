//! Shared memory: allocation layout and the cell array with atomic semantics.
//!
//! The DSM model (§1–2 of the paper) partitions memory into modules tied to
//! processors; every cell therefore carries an optional *owner*. Ownership is
//! what makes an access remote in the DSM cost model; in the CC cost model it
//! is ignored.

use crate::ids::{Addr, AddrRange, ProcId, Word};
use crate::op::{Applied, Op};

/// Specification of one cell at initialization time.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
struct CellSpec {
    init: Word,
    owner: Option<ProcId>,
}

/// A reusable allocation plan for shared memory.
///
/// Algorithms allocate their variables through a `MemLayout` once; the
/// simulator instantiates a fresh [`Memory`] from the layout for every run
/// and replay, which is what makes history replay (and hence the
/// lower-bound adversary's *erasing* strategy) deterministic.
///
/// # Examples
///
/// ```
/// use shm_sim::{MemLayout, ProcId};
///
/// let mut layout = MemLayout::new();
/// let flag = layout.alloc_global(0);
/// let mine = layout.alloc_local(ProcId(3), 7);
/// assert_eq!(layout.owner(flag), None);
/// assert_eq!(layout.owner(mine), Some(ProcId(3)));
/// ```
#[derive(Clone, Default, Debug)]
pub struct MemLayout {
    cells: Vec<CellSpec>,
    labels: crate::history_label::Labels,
}

impl MemLayout {
    /// Creates an empty layout.
    #[must_use]
    pub fn new() -> Self {
        Self::default()
    }

    /// Allocates a cell in no process's module (meaningful only in the CC
    /// model, where all memory is symmetric; in the DSM model a global cell
    /// is remote to *every* process).
    pub fn alloc_global(&mut self, init: Word) -> Addr {
        self.push(CellSpec { init, owner: None })
    }

    /// Allocates a cell in `owner`'s memory module.
    pub fn alloc_local(&mut self, owner: ProcId, init: Word) -> Addr {
        self.push(CellSpec {
            init,
            owner: Some(owner),
        })
    }

    /// Allocates a contiguous array of global cells.
    pub fn alloc_global_array(&mut self, len: usize, init: Word) -> AddrRange {
        let start = self.cells.len() as u32;
        for _ in 0..len {
            self.cells.push(CellSpec { init, owner: None });
        }
        AddrRange {
            start,
            len: len as u32,
        }
    }

    /// Allocates a contiguous array of cells all local to `owner`'s module
    /// (e.g. registration flags hosted by a fixed signaler so it can spin on
    /// them locally in the DSM model).
    pub fn alloc_local_array(&mut self, owner: ProcId, len: usize, init: Word) -> AddrRange {
        let start = self.cells.len() as u32;
        for _ in 0..len {
            self.cells.push(CellSpec {
                init,
                owner: Some(owner),
            });
        }
        AddrRange {
            start,
            len: len as u32,
        }
    }

    /// Allocates an array with one cell per process, element `i` local to
    /// process `ProcId(i)`. This is the paper's recurring `V[1..N]` pattern
    /// ("V\[i\] is local to process p_i").
    pub fn alloc_per_process_array(&mut self, n: usize, init: Word) -> AddrRange {
        let start = self.cells.len() as u32;
        for i in 0..n {
            self.cells.push(CellSpec {
                init,
                owner: Some(ProcId(i as u32)),
            });
        }
        AddrRange {
            start,
            len: n as u32,
        }
    }

    fn push(&mut self, spec: CellSpec) -> Addr {
        let a = Addr(self.cells.len() as u32);
        self.cells.push(spec);
        a
    }

    /// Number of allocated cells.
    #[must_use]
    pub fn len(&self) -> usize {
        self.cells.len()
    }

    /// Whether no cells have been allocated.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.cells.is_empty()
    }

    /// The module owner of `addr` (`None` = global).
    ///
    /// # Panics
    ///
    /// Panics if `addr` was not allocated by this layout.
    #[must_use]
    pub fn owner(&self, addr: Addr) -> Option<ProcId> {
        self.cells[addr.index()].owner
    }

    /// The initial value of `addr`.
    #[must_use]
    pub fn initial_value(&self, addr: Addr) -> Word {
        self.cells[addr.index()].init
    }

    /// Attaches a display name to a cell for trace rendering
    /// (see [`crate::trace`]).
    pub fn set_label(&mut self, addr: Addr, name: impl Into<String>) {
        self.labels.insert(addr, name.into());
    }

    /// Labels array elements as `name[0]`, `name[1]`, ….
    pub fn set_array_label(&mut self, range: AddrRange, name: &str) {
        for (i, addr) in range.iter().enumerate() {
            self.labels.insert(addr, format!("{name}[{i}]"));
        }
    }

    /// The label registry (borrowed; clone it only if it must outlive the
    /// layout — replay loops reuse one layout and should not copy label
    /// maps per run).
    #[must_use]
    pub fn labels(&self) -> &crate::history_label::Labels {
        &self.labels
    }
}

/// A dense `(cell, pid)` bit table: one fixed-width stripe of `u64` words
/// per cell, indexed `cell * stride + pid/64`.
///
/// This is the structure-of-arrays replacement for the per-cell
/// `Vec<ProcId>` writer/reservation lists: membership tests and inserts on
/// the step path are a shift and a mask with no heap traffic, clearing a
/// cell's set (every nontrivial op breaks all LL reservations) is a short
/// word fill, and cloning the whole table — which the explorer does for
/// every snapshot — is one flat memcpy.
///
/// The stride starts at one word (pids 0..64, every current workload) and
/// regrows on demand the first time a larger pid appears: [`MemLayout`]
/// does not know the process count, so the table restrides dynamically
/// instead of being sized up front.
#[derive(Clone, Debug, Default)]
struct PidTable {
    cells: usize,
    /// `u64` words per cell; pids `0..stride*64` are representable.
    stride: usize,
    bits: Vec<u64>,
}

impl PidTable {
    fn new(cells: usize) -> Self {
        PidTable {
            cells,
            stride: 1,
            bits: vec![0; cells],
        }
    }

    /// Copies `src`'s contents into `self`, reusing the bit buffer.
    fn copy_from(&mut self, src: &PidTable) {
        self.cells = src.cells;
        self.stride = src.stride;
        self.bits.clone_from(&src.bits);
    }

    #[inline]
    fn contains(&self, cell: usize, pid: ProcId) -> bool {
        let w = (pid.0 / 64) as usize;
        w < self.stride && (self.bits[cell * self.stride + w] >> (pid.0 % 64)) & 1 == 1
    }

    #[inline]
    fn insert(&mut self, cell: usize, pid: ProcId) {
        let w = (pid.0 / 64) as usize;
        if w >= self.stride {
            self.restride(w + 1);
        }
        self.bits[cell * self.stride + w] |= 1 << (pid.0 % 64);
    }

    /// Cold path: widen every cell's stripe to `stride` words.
    fn restride(&mut self, stride: usize) {
        let mut bits = vec![0u64; self.cells * stride];
        for c in 0..self.cells {
            bits[c * stride..c * stride + self.stride]
                .copy_from_slice(&self.bits[c * self.stride..(c + 1) * self.stride]);
        }
        self.stride = stride;
        self.bits = bits;
    }

    #[inline]
    fn clear_cell(&mut self, cell: usize) {
        self.bits[cell * self.stride..(cell + 1) * self.stride].fill(0);
    }

    /// `cell`'s stripe: `stride` words of pid bits.
    #[inline]
    fn stripe(&self, cell: usize) -> &[u64] {
        &self.bits[cell * self.stride..(cell + 1) * self.stride]
    }

    /// Overwrites `cell`'s set with `words`, a stripe of any width: a
    /// narrower one is zero-extended, a wider one widens the table first.
    #[inline]
    fn set_stripe(&mut self, cell: usize, words: &[u64]) {
        if words.len() > self.stride {
            self.restride(words.len());
        }
        let dst = &mut self.bits[cell * self.stride..(cell + 1) * self.stride];
        dst[..words.len()].copy_from_slice(words);
        dst[words.len()..].fill(0);
    }

    /// Members of `cell`'s set in ascending pid order.
    fn iter_cell(&self, cell: usize) -> impl Iterator<Item = ProcId> + '_ {
        self.stripe(cell).iter().enumerate().flat_map(|(w, &word)| {
            let base = w as u32 * 64;
            BitIter(word).map(move |b| ProcId(base + b))
        })
    }

    /// Removes every pid marked in `gone` (indexed by pid) from every cell.
    fn remove_marked(&mut self, gone: &[bool]) {
        let mut mask = vec![!0u64; self.stride];
        for (pid, &g) in gone.iter().enumerate() {
            if g && pid / 64 < self.stride {
                mask[pid / 64] &= !(1u64 << (pid % 64));
            }
        }
        for (i, word) in self.bits.iter_mut().enumerate() {
            *word &= mask[i % self.stride];
        }
    }
}

/// Iterator over the set bit positions of one `u64`.
struct BitIter(u64);

impl Iterator for BitIter {
    type Item = u32;
    #[inline]
    fn next(&mut self) -> Option<u32> {
        if self.0 == 0 {
            return None;
        }
        let b = self.0.trailing_zeros();
        self.0 &= self.0 - 1;
        Some(b)
    }
}

/// Sentinel in the dense owner / last-writer columns: no process.
const NO_PROC: u32 = u32::MAX;

/// Saved states of individual cells — value, last writer, writer set and
/// reservations — that [`Memory::restore_cells`] writes back. The DSM
/// erasure walk rolls cells of the live memory back in place and keeps
/// their live states here, so a refusal costs only the cells it reached.
#[derive(Debug, Default)]
pub(crate) struct CellUndo {
    /// `(cell, value, last writer, writers stripe width, reservations
    /// stripe width)` per saved cell.
    cells: Vec<(usize, Word, u32, usize, usize)>,
    /// Each saved cell's writers stripe followed by its reservations
    /// stripe, in save order.
    words: Vec<u64>,
}

/// The flat cell array with atomic-operation semantics.
///
/// `Memory` implements *functional* semantics only; cost accounting (RMRs,
/// cache state, messages) lives in [`crate::model`]. This separation lets the
/// same execution be priced under both the CC and DSM models.
///
/// The representation is structure-of-arrays: parallel dense columns
/// indexed by [`Addr`] (values, owners, last writers) plus one
/// `PidTable` each for the writer sets and the live LL reservations.
/// A step touches a handful of adjacent flat slots instead of a 100-byte
/// `Cell` struct with two heap vectors, and cloning — the unit of work of
/// checkpoints and explorer snapshots — is a few flat memcpys with no
/// per-cell allocations.
#[derive(Clone, Debug)]
pub struct Memory {
    values: Vec<Word>,
    /// Module owner per cell (`NO_PROC` = global).
    owners: Vec<u32>,
    /// Last process that performed a nontrivial operation per cell
    /// (`NO_PROC` = none yet).
    last_writer: Vec<u32>,
    /// Distinct processes that have performed nontrivial operations
    /// (needed for regularity condition 3 of Definition 6.6).
    writers: PidTable,
    /// Processes holding an unbroken LL reservation per cell.
    reservations: PidTable,
}

impl Memory {
    /// Instantiates memory in the initial state described by `layout`.
    #[must_use]
    pub fn from_layout(layout: &MemLayout) -> Self {
        let cells = layout.cells.len();
        Memory {
            values: layout.cells.iter().map(|spec| spec.init).collect(),
            owners: layout
                .cells
                .iter()
                .map(|spec| spec.owner.map_or(NO_PROC, |p| p.0))
                .collect(),
            last_writer: vec![NO_PROC; cells],
            writers: PidTable::new(cells),
            reservations: PidTable::new(cells),
        }
    }

    /// Copies `src`'s state into `self`, reusing every table's allocation —
    /// the checkpoint-restore hot path rolls memory back without touching
    /// the allocator.
    pub(crate) fn copy_from(&mut self, src: &Memory) {
        self.values.clone_from(&src.values);
        self.owners.clone_from(&src.owners);
        self.last_writer.clone_from(&src.last_writer);
        self.writers.copy_from(&src.writers);
        self.reservations.copy_from(&src.reservations);
    }

    /// Number of cells.
    #[must_use]
    pub fn len(&self) -> usize {
        self.values.len()
    }

    /// Whether the memory has no cells.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.values.is_empty()
    }

    /// Current value of `addr` (inspection only; does not count as a step).
    #[must_use]
    pub fn peek(&self, addr: Addr) -> Word {
        self.values[addr.index()]
    }

    /// Module owner of `addr`.
    #[must_use]
    pub fn owner(&self, addr: Addr) -> Option<ProcId> {
        match self.owners[addr.index()] {
            NO_PROC => None,
            p => Some(ProcId(p)),
        }
    }

    /// Last process that performed a nontrivial operation on `addr`.
    #[must_use]
    pub fn last_writer(&self, addr: Addr) -> Option<ProcId> {
        match self.last_writer[addr.index()] {
            NO_PROC => None,
            p => Some(ProcId(p)),
        }
    }

    /// Distinct processes that have performed nontrivial operations on
    /// `addr`, in ascending pid order.
    pub fn writers(&self, addr: Addr) -> impl Iterator<Item = ProcId> + '_ {
        self.writers.iter_cell(addr.index())
    }

    /// Processes currently holding an LL reservation on `addr` (ascending
    /// pid order). The audit layer seeds and boundary-checks its naive
    /// shadow cells with these.
    pub fn reservations(&self, addr: Addr) -> impl Iterator<Item = ProcId> + '_ {
        self.reservations.iter_cell(addr.index())
    }

    /// Appends `cell`'s whole state to `undo`.
    pub(crate) fn save_cell(&self, cell: usize, undo: &mut CellUndo) {
        let (w, r) = (self.writers.stripe(cell), self.reservations.stripe(cell));
        undo.cells.push((
            cell,
            self.values[cell],
            self.last_writer[cell],
            w.len(),
            r.len(),
        ));
        undo.words.extend_from_slice(w);
        undo.words.extend_from_slice(r);
    }

    /// Writes every state saved in `undo` back into its cell. Each cell
    /// must have been saved at most once, so the order does not matter.
    pub(crate) fn restore_cells(&mut self, undo: &CellUndo) {
        let mut at = 0;
        for &(cell, value, writer, w, r) in &undo.cells {
            self.values[cell] = value;
            self.last_writer[cell] = writer;
            self.writers.set_stripe(cell, &undo.words[at..at + w]);
            self.reservations
                .set_stripe(cell, &undo.words[at + w..at + w + r]);
            at += w + r;
        }
    }

    /// Copies `cell`'s whole state from `src`, an image of the same layout
    /// whose pid stripes may be narrower or wider than this one's.
    pub(crate) fn copy_cell_from(&mut self, src: &Memory, cell: usize) {
        self.values[cell] = src.values[cell];
        self.last_writer[cell] = src.last_writer[cell];
        self.writers.set_stripe(cell, src.writers.stripe(cell));
        self.reservations
            .set_stripe(cell, src.reservations.stripe(cell));
    }

    /// Drops the LL reservations of the processes marked in `gone` (indexed
    /// by pid) from every cell. Used when erasing processes in place: an
    /// erased process's reservation is observable only by its own SC, but
    /// the filtered memory image should not carry state of processes that
    /// "never ran".
    pub(crate) fn purge_reservations(&mut self, gone: &[bool]) {
        self.reservations.remove_marked(gone);
    }

    /// Performs a nontrivial update: sets the value, records the writer, and
    /// breaks all LL reservations (including the writer's own, per the usual
    /// LL/SC semantics where SC consumes the reservation).
    #[inline]
    fn overwrite(&mut self, cell: usize, pid: ProcId, value: Word) {
        self.values[cell] = value;
        self.last_writer[cell] = pid.0;
        self.writers.insert(cell, pid);
        self.reservations.clear_cell(cell);
    }

    /// Atomically applies `op` on behalf of `pid`.
    ///
    /// Returns the result word plus the trivial/nontrivial classification the
    /// cost models and the history log need.
    ///
    /// # Panics
    ///
    /// Panics if the operation addresses an unallocated cell.
    pub fn apply(&mut self, pid: ProcId, op: Op) -> Applied {
        let cell = op.addr().index();
        match op {
            Op::Read(_) => Applied {
                result: self.values[cell],
                nontrivial: false,
                failed_comparison: false,
            },
            Op::Ll(_) => {
                self.reservations.insert(cell, pid);
                Applied {
                    result: self.values[cell],
                    nontrivial: false,
                    failed_comparison: false,
                }
            }
            Op::Write(_, w) => {
                self.overwrite(cell, pid, w);
                Applied {
                    result: w,
                    nontrivial: true,
                    failed_comparison: false,
                }
            }
            Op::Cas(_, expected, new) => {
                let old = self.values[cell];
                if old == expected {
                    self.overwrite(cell, pid, new);
                    Applied {
                        result: old,
                        nontrivial: true,
                        failed_comparison: false,
                    }
                } else {
                    Applied {
                        result: old,
                        nontrivial: false,
                        failed_comparison: true,
                    }
                }
            }
            Op::Sc(_, w) => {
                if self.reservations.contains(cell, pid) {
                    self.overwrite(cell, pid, w);
                    Applied {
                        result: 1,
                        nontrivial: true,
                        failed_comparison: false,
                    }
                } else {
                    Applied {
                        result: 0,
                        nontrivial: false,
                        failed_comparison: true,
                    }
                }
            }
            Op::Faa(_, d) => {
                let old = self.values[cell];
                self.overwrite(cell, pid, old.wrapping_add(d));
                Applied {
                    result: old,
                    nontrivial: true,
                    failed_comparison: false,
                }
            }
            Op::Fas(_, w) => {
                let old = self.values[cell];
                self.overwrite(cell, pid, w);
                Applied {
                    result: old,
                    nontrivial: true,
                    failed_comparison: false,
                }
            }
            Op::Tas(_) => {
                let old = self.values[cell];
                self.overwrite(cell, pid, 1);
                Applied {
                    result: old,
                    nontrivial: true,
                    failed_comparison: false,
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn two_cell_memory() -> (Memory, Addr, Addr) {
        let mut layout = MemLayout::new();
        let a = layout.alloc_global(5);
        let b = layout.alloc_local(ProcId(1), 0);
        (Memory::from_layout(&layout), a, b)
    }

    #[test]
    fn read_and_write() {
        let (mut m, a, _) = two_cell_memory();
        let p = ProcId(0);
        assert_eq!(m.apply(p, Op::Read(a)).result, 5);
        let w = m.apply(p, Op::Write(a, 9));
        assert!(w.nontrivial);
        assert_eq!(m.peek(a), 9);
        assert_eq!(m.last_writer(a), Some(p));
    }

    #[test]
    fn write_of_same_value_is_nontrivial() {
        // The paper: "A nontrivial operation overwrites a memory location,
        // possibly with the same value as before."
        let (mut m, a, _) = two_cell_memory();
        let applied = m.apply(ProcId(0), Op::Write(a, 5));
        assert!(applied.nontrivial);
    }

    #[test]
    fn cas_success_and_failure() {
        let (mut m, a, _) = two_cell_memory();
        let p = ProcId(2);
        let ok = m.apply(p, Op::Cas(a, 5, 6));
        assert_eq!(ok.result, 5);
        assert!(ok.nontrivial && !ok.failed_comparison);
        let fail = m.apply(p, Op::Cas(a, 5, 7));
        assert_eq!(fail.result, 6);
        assert!(!fail.nontrivial && fail.failed_comparison);
        assert_eq!(m.peek(a), 6);
    }

    #[test]
    fn ll_sc_basic_success() {
        let (mut m, a, _) = two_cell_memory();
        let p = ProcId(0);
        assert_eq!(m.apply(p, Op::Ll(a)).result, 5);
        let sc = m.apply(p, Op::Sc(a, 8));
        assert_eq!(sc.result, 1);
        assert!(sc.nontrivial);
        assert_eq!(m.peek(a), 8);
    }

    #[test]
    fn sc_fails_after_intervening_write() {
        let (mut m, a, _) = two_cell_memory();
        let p = ProcId(0);
        let q = ProcId(1);
        m.apply(p, Op::Ll(a));
        m.apply(q, Op::Write(a, 6));
        let sc = m.apply(p, Op::Sc(a, 8));
        assert_eq!(sc.result, 0);
        assert!(sc.failed_comparison);
        assert_eq!(m.peek(a), 6);
    }

    #[test]
    fn sc_fails_even_if_value_restored_aba() {
        // LL/SC is immune to ABA: reservation is broken by *any* nontrivial op.
        let (mut m, a, _) = two_cell_memory();
        let p = ProcId(0);
        let q = ProcId(1);
        m.apply(p, Op::Ll(a));
        m.apply(q, Op::Write(a, 6));
        m.apply(q, Op::Write(a, 5)); // restore original value
        assert_eq!(m.apply(p, Op::Sc(a, 8)).result, 0);
    }

    #[test]
    fn sc_without_ll_fails() {
        let (mut m, a, _) = two_cell_memory();
        assert_eq!(m.apply(ProcId(0), Op::Sc(a, 3)).result, 0);
    }

    #[test]
    fn sc_consumes_reservation() {
        let (mut m, a, _) = two_cell_memory();
        let p = ProcId(0);
        m.apply(p, Op::Ll(a));
        assert_eq!(m.apply(p, Op::Sc(a, 8)).result, 1);
        assert_eq!(m.apply(p, Op::Sc(a, 9)).result, 0, "second SC must fail");
    }

    #[test]
    fn faa_wraps_and_returns_old() {
        let (mut m, a, _) = two_cell_memory();
        let p = ProcId(0);
        assert_eq!(m.apply(p, Op::Faa(a, 2)).result, 5);
        assert_eq!(m.peek(a), 7);
        m.apply(p, Op::Write(a, u64::MAX));
        assert_eq!(m.apply(p, Op::Faa(a, 1)).result, u64::MAX);
        assert_eq!(m.peek(a), 0, "FAA wraps");
    }

    #[test]
    fn fas_and_tas() {
        let (mut m, a, _) = two_cell_memory();
        let p = ProcId(0);
        assert_eq!(m.apply(p, Op::Fas(a, 11)).result, 5);
        assert_eq!(m.peek(a), 11);
        m.apply(p, Op::Write(a, 0));
        assert_eq!(m.apply(p, Op::Tas(a)).result, 0);
        assert_eq!(m.apply(p, Op::Tas(a)).result, 1);
        assert_eq!(m.peek(a), 1);
    }

    #[test]
    fn writer_tracking_is_deduplicated() {
        let (mut m, a, _) = two_cell_memory();
        m.apply(ProcId(2), Op::Write(a, 1));
        m.apply(ProcId(0), Op::Write(a, 2));
        m.apply(ProcId(2), Op::Write(a, 3));
        assert_eq!(m.writers(a).collect::<Vec<_>>(), vec![ProcId(0), ProcId(2)]);
        assert_eq!(m.last_writer(a), Some(ProcId(2)));
    }

    #[test]
    fn failed_cas_does_not_record_writer() {
        let (mut m, a, _) = two_cell_memory();
        m.apply(ProcId(0), Op::Cas(a, 99, 1));
        assert_eq!(m.writers(a).count(), 0);
        assert_eq!(m.last_writer(a), None);
    }

    #[test]
    fn per_process_array_ownership() {
        let mut layout = MemLayout::new();
        let v = layout.alloc_per_process_array(4, 0);
        for i in 0..4 {
            assert_eq!(layout.owner(v.at(i)), Some(ProcId(i as u32)));
        }
        let g = layout.alloc_global_array(2, 3);
        assert_eq!(layout.owner(g.at(1)), None);
        assert_eq!(layout.initial_value(g.at(0)), 3);
    }

    /// Every observable of one cell: value, last writer, writer set and
    /// reservations.
    fn cell_state(m: &Memory, a: Addr) -> (Word, Option<ProcId>, Vec<ProcId>, Vec<ProcId>) {
        (
            m.peek(a),
            m.last_writer(a),
            m.writers(a).collect(),
            m.reservations(a).collect(),
        )
    }

    /// Cell-wise save, roll-back and restore round-trip whole cell states
    /// between images whose pid stripes differ in width, including a
    /// widening in between.
    #[test]
    fn cell_save_copy_and_restore_across_stripe_widths() {
        let mut layout = MemLayout::new();
        let a = layout.alloc_global(1);
        let b = layout.alloc_local(ProcId(2), 2);
        let base = Memory::from_layout(&layout);
        let mut m = base.clone();
        m.apply(ProcId(130), Op::Write(a, 7));
        m.apply(ProcId(3), Op::Ll(a));
        m.apply(ProcId(129), Op::Ll(b));
        let live = [cell_state(&m, a), cell_state(&m, b)];

        let mut undo = CellUndo::default();
        for cell in [a, b] {
            m.save_cell(cell.index(), &mut undo);
            m.copy_cell_from(&base, cell.index());
            assert_eq!(cell_state(&m, cell), cell_state(&base, cell));
        }
        m.apply(ProcId(200), Op::Write(b, 9));
        m.restore_cells(&undo);
        assert_eq!([cell_state(&m, a), cell_state(&m, b)], live);

        let mut narrow = base.clone();
        narrow.copy_cell_from(&m, a.index());
        assert_eq!(cell_state(&narrow, a), live[0]);
        assert_eq!(cell_state(&narrow, b), cell_state(&base, b));
    }

    /// Straightforward one-struct-per-cell reference semantics, against
    /// which the dense pid-indexed tables are property-checked below.
    #[derive(Clone, Default)]
    struct RefCell_ {
        value: Word,
        last_writer: Option<ProcId>,
        writers: std::collections::BTreeSet<u32>,
        reservations: std::collections::BTreeSet<u32>,
    }

    impl RefCell_ {
        fn overwrite(&mut self, pid: ProcId, value: Word) {
            self.value = value;
            self.last_writer = Some(pid);
            self.writers.insert(pid.0);
            self.reservations.clear();
        }

        fn apply(&mut self, pid: ProcId, op: Op) -> (Word, bool, bool) {
            match op {
                Op::Read(_) => (self.value, false, false),
                Op::Ll(_) => {
                    self.reservations.insert(pid.0);
                    (self.value, false, false)
                }
                Op::Write(_, w) => {
                    self.overwrite(pid, w);
                    (w, true, false)
                }
                Op::Cas(_, expected, new) => {
                    let old = self.value;
                    if old == expected {
                        self.overwrite(pid, new);
                        (old, true, false)
                    } else {
                        (old, false, true)
                    }
                }
                Op::Sc(_, w) => {
                    if self.reservations.contains(&pid.0) {
                        self.overwrite(pid, w);
                        (1, true, false)
                    } else {
                        (0, false, true)
                    }
                }
                Op::Faa(_, d) => {
                    let old = self.value;
                    self.overwrite(pid, old.wrapping_add(d));
                    (old, true, false)
                }
                Op::Fas(_, w) => {
                    let old = self.value;
                    self.overwrite(pid, w);
                    (old, true, false)
                }
                Op::Tas(_) => {
                    let old = self.value;
                    self.overwrite(pid, 1);
                    (old, true, false)
                }
            }
        }
    }

    /// Splitmix64: tiny deterministic generator for the property test.
    fn splitmix(state: &mut u64) -> u64 {
        *state = state.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = *state;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    }

    /// Property: the dense pid-indexed tables ([`PidTable`]) behave exactly
    /// like per-cell struct semantics on random operation sequences — every
    /// applied result and every observable (value, last writer, writer set,
    /// reservation set) agrees after every step, across several seeds.
    #[test]
    fn dense_tables_match_reference_cells_on_random_ops() {
        for seed in 0..8u64 {
            let n_procs = 5u32;
            let n_cells = 4usize;
            let mut layout = MemLayout::new();
            let mut addrs = Vec::new();
            for i in 0..n_cells {
                addrs.push(if i % 2 == 0 {
                    layout.alloc_global(i as Word)
                } else {
                    layout.alloc_local(ProcId(i as u32 % n_procs), i as Word)
                });
            }
            let mut mem = Memory::from_layout(&layout);
            let mut reference: Vec<RefCell_> = addrs
                .iter()
                .map(|&a| RefCell_ {
                    value: layout.initial_value(a),
                    ..RefCell_::default()
                })
                .collect();

            let mut rng = seed.wrapping_mul(0x5851_f42d_4c95_7f2d) + 1;
            for _ in 0..600 {
                let pid = ProcId(splitmix(&mut rng) as u32 % n_procs);
                let a = addrs[splitmix(&mut rng) as usize % n_cells];
                let w = splitmix(&mut rng) % 4;
                let op = match splitmix(&mut rng) % 8 {
                    0 => Op::Read(a),
                    1 => Op::Write(a, w),
                    2 => Op::Cas(a, splitmix(&mut rng) % 4, w),
                    3 => Op::Ll(a),
                    4 => Op::Sc(a, w),
                    5 => Op::Faa(a, w),
                    6 => Op::Fas(a, w),
                    _ => Op::Tas(a),
                };
                let got = mem.apply(pid, op);
                let want = reference[a.index()].apply(pid, op);
                assert_eq!(
                    (got.result, got.nontrivial, got.failed_comparison),
                    want,
                    "seed {seed}: result mismatch for {op:?} by {pid:?}"
                );
                for (&addr, cell) in addrs.iter().zip(&reference) {
                    assert_eq!(mem.peek(addr), cell.value, "seed {seed}");
                    assert_eq!(mem.last_writer(addr), cell.last_writer, "seed {seed}");
                    assert_eq!(
                        mem.writers(addr).map(|p| p.0).collect::<Vec<_>>(),
                        cell.writers.iter().copied().collect::<Vec<_>>(),
                        "seed {seed}"
                    );
                    assert_eq!(
                        mem.reservations(addr).map(|p| p.0).collect::<Vec<_>>(),
                        cell.reservations.iter().copied().collect::<Vec<_>>(),
                        "seed {seed}"
                    );
                }
            }
        }
    }
}
