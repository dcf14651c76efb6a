//! Differential audit layer: naive shadow re-execution of a recorded run.
//!
//! The incremental replay engine ([`crate::sim`]) earns its speed from
//! checkpoints, rolling-hash fingerprints and event-walk surgery — three
//! mechanisms that could each hide a silent divergence between the fast path
//! and ground truth. This module is the ground truth: [`Simulator::audit`]
//! re-runs a recorded schedule step by step under a *naive* reference
//! implementation of memory semantics and of each of the four standard cost
//! models — no checkpoints, no fingerprints, no surgery, no shared code with
//! the incremental path beyond the type definitions — and diffs, per step,
//! every operation result, RMR/message/invalidation charge and cache-validity
//! set, plus the final memory image, [`Totals`] and per-process stats,
//! against what the fast path recorded.
//!
//! The walk under the recording's own cost model is a *full* diff (events,
//! charges, end state); the walks under the remaining standard models check
//! that the functional stream is model-independent and that the production
//! [`CostState`] agrees with the naive pricing rules under every model, not
//! just the one the run happened to use.
//!
//! The naive reference keeps each cell's cache-validity set in a flat bitset
//! of its own (⌈n/64⌉ words per cell under the CC models, none under DSM),
//! with no code shared with [`CostState`]. After every access the two sets
//! are compared word for word, so one audited access costs O(⌈n/64⌉) word
//! operations and allocates nothing, however many processes hold a copy.
//!
//! On the first divergence the audit stops and reports an
//! [`AuditDivergence`] naming the schedule step, the process, the memory
//! location (by label) and the expected vs. actual value — renderable as
//! JSON for machine consumption by `--audit` drivers. Labels and holder
//! lists are rendered only then, never on a clean access.
//!
//! # Parallel sharding
//!
//! The audit's work — four independent model walks, and within the full walk
//! a linear scan of the schedule — is sharded across the `shm_pool` workers:
//! one shard per cross-check model, plus one shard per checkpoint-delimited
//! schedule chunk of the full walk (chunks seed their naive state from the
//! recording's own [`Checkpoint`]s and re-verify the observable state —
//! memory image, reservations, cache validity, stats, totals — at the next
//! checkpoint boundary). The shard list is fixed by the recording alone, every
//! shard runs to its own completion or first divergence, and the canonical
//! divergence is chosen by fixed shard order (full-walk chunks in ascending
//! schedule order — i.e. lowest step — then cross models in standard order),
//! so the report is identical for every thread count, including `threads=1`.

use crate::event::Event;
use crate::history_label::Labels;
use crate::ids::{Addr, ProcId, Word};
use crate::machine::{Call, CallKind, Step};
use crate::mem::Memory;
use crate::model::{AccessCost, CcConfig, CostModel, CostState, Interconnect, Protocol};
use crate::op::{Applied, Op};
use crate::sim::{Checkpoint, ProcStats, SimSpec, Simulator, Status, Totals};
use crate::source::CallSource;
use std::collections::BTreeSet;
use std::fmt;

/// Structured diagnostic for the first point where the fast path and the
/// naive reference disagree.
///
/// `expected` is the naive reference's value; `actual` is what the fast
/// incremental path recorded (or computed).
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct AuditDivergence {
    /// Label of the cost model being audited when the divergence appeared
    /// (e.g. `"dsm"`, `"cc-wt-dir"`).
    pub model: String,
    /// Schedule index of the divergent step (= the schedule length for
    /// end-state divergences).
    pub step: usize,
    /// Index into the recorded event log (= the log length for end-state
    /// divergences).
    pub event: usize,
    /// The process involved, if the divergence is attributable to one.
    pub pid: Option<ProcId>,
    /// The memory location involved, by layout label (or `"-"`).
    pub location: String,
    /// Which audited quantity diverged (e.g. `"result"`, `"cost.rmr"`,
    /// `"model.messages"`, `"cache.holders"`, `"totals.rmrs"`).
    pub field: String,
    /// The naive reference's value, rendered as text.
    pub expected: String,
    /// The fast path's value, rendered as text.
    pub actual: String,
}

impl AuditDivergence {
    /// Renders the diagnostic as a single JSON object.
    #[must_use]
    pub fn to_json(&self) -> String {
        let pid = self
            .pid
            .map_or_else(|| "null".to_string(), |p| p.0.to_string());
        format!(
            "{{\"model\": \"{}\", \"step\": {}, \"event\": {}, \"pid\": {}, \"location\": \"{}\", \"field\": \"{}\", \"expected\": \"{}\", \"actual\": \"{}\"}}",
            json_escape(&self.model),
            self.step,
            self.event,
            pid,
            json_escape(&self.location),
            json_escape(&self.field),
            json_escape(&self.expected),
            json_escape(&self.actual),
        )
    }
}

impl fmt::Display for AuditDivergence {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let pid = self.pid.map_or_else(|| "-".to_string(), |p| p.to_string());
        write!(
            f,
            "audit divergence [{}] at step {} (event {}, {} @ {}): {} expected {}, got {}",
            self.model,
            self.step,
            self.event,
            pid,
            self.location,
            self.field,
            self.expected,
            self.actual
        )
    }
}

/// Outcome of one [`Simulator::audit`] run.
#[derive(Clone, Debug)]
pub struct AuditReport {
    /// Cost models the audit walked (the recording's own model plus the
    /// remaining standard models; a divergence stops the walk early).
    pub models_checked: usize,
    /// Schedule steps shadow-executed, summed over all model walks.
    pub steps_checked: usize,
    /// Recorded events compared, summed over all model walks.
    pub events_checked: usize,
    /// The first divergence found, if any.
    pub divergence: Option<AuditDivergence>,
}

impl AuditReport {
    /// Whether the fast path matched the naive reference everywhere.
    #[must_use]
    pub fn is_clean(&self) -> bool {
        self.divergence.is_none()
    }

    /// Renders the report as a single JSON object.
    #[must_use]
    pub fn to_json(&self) -> String {
        format!(
            "{{\"clean\": {}, \"models_checked\": {}, \"steps_checked\": {}, \"events_checked\": {}, \"divergence\": {}}}",
            self.is_clean(),
            self.models_checked,
            self.steps_checked,
            self.events_checked,
            self.divergence
                .as_ref()
                .map_or_else(|| "null".to_string(), AuditDivergence::to_json),
        )
    }
}

fn json_escape(s: &str) -> String {
    let mut out = String::with_capacity(s.len());
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
            c => out.push(c),
        }
    }
    out
}

/// The four standard cost-model configurations every audit walks (the same
/// set the determinism-contract tests sweep).
fn standard_models() -> [CostModel; 4] {
    [
        CostModel::Dsm,
        CostModel::Cc(CcConfig {
            protocol: Protocol::WriteThrough,
            lfcu: false,
            interconnect: Interconnect::IdealDirectory,
        }),
        CostModel::Cc(CcConfig {
            protocol: Protocol::WriteBack,
            lfcu: false,
            interconnect: Interconnect::Bus,
        }),
        CostModel::Cc(CcConfig {
            protocol: Protocol::WriteBack,
            lfcu: true,
            interconnect: Interconnect::IdealDirectory,
        }),
    ]
}

fn model_label(model: CostModel) -> String {
    crate::model::model_tag(model).to_string()
}

/// One naive memory cell: value, last nontrivial writer, LL reservations.
/// Deliberately re-implemented with plain collections, independent of
/// [`crate::mem::Memory`].
#[derive(Clone)]
struct NaiveCell {
    value: Word,
    last_writer: Option<ProcId>,
    reserved: BTreeSet<ProcId>,
}

impl NaiveCell {
    fn overwrite(&mut self, pid: ProcId, value: Word) {
        self.value = value;
        self.last_writer = Some(pid);
        self.reserved.clear();
    }
}

/// Naive re-implementation of the atomic operation semantics of §2.
/// Returns `(result, nontrivial, failed_comparison)`.
fn naive_apply(cell: &mut NaiveCell, pid: ProcId, op: Op) -> (Word, bool, bool) {
    match op {
        Op::Read(_) => (cell.value, false, false),
        Op::Ll(_) => {
            cell.reserved.insert(pid);
            (cell.value, false, false)
        }
        Op::Write(_, w) => {
            cell.overwrite(pid, w);
            (w, true, false)
        }
        Op::Cas(_, expected, new) => {
            let old = cell.value;
            if old == expected {
                cell.overwrite(pid, new);
                (old, true, false)
            } else {
                (old, false, true)
            }
        }
        Op::Sc(_, w) => {
            if cell.reserved.contains(&pid) {
                cell.overwrite(pid, w);
                (1, true, false)
            } else {
                (0, false, true)
            }
        }
        Op::Faa(_, d) => {
            let old = cell.value;
            cell.overwrite(pid, old.wrapping_add(d));
            (old, true, false)
        }
        Op::Fas(_, w) => {
            let old = cell.value;
            cell.overwrite(pid, w);
            (old, true, false)
        }
        Op::Tas(_) => {
            let old = cell.value;
            cell.overwrite(pid, 1);
            (old, true, false)
        }
    }
}

/// Words per cell of a walk's naive validity table: one bit per process
/// under the CC models, none under DSM (which keeps no caches).
fn naive_stride(model: CostModel, n_procs: usize) -> usize {
    match model {
        CostModel::Dsm => 0,
        CostModel::Cc(_) => n_procs.div_ceil(64).max(1),
    }
}

/// Whether two validity bitsets hold the same members. A word missing from
/// the shorter slice reads as zero, so DSM's empty stripe needs no special
/// case. The differences are OR-ed in a plain word loop: on slices this
/// short that is much cheaper than a `memcmp` call.
fn same_members(a: &[u64], b: &[u64]) -> bool {
    let (short, long) = if a.len() <= b.len() { (a, b) } else { (b, a) };
    let (head, tail) = long.split_at(short.len());
    let diff = short.iter().zip(head).fold(0, |d, (x, y)| d | (x ^ y));
    tail.iter().fold(diff, |d, y| d | y) == 0
}

/// A validity bitset's members in ascending process-ID order.
fn members(words: &[u64]) -> Vec<ProcId> {
    let mut out = Vec::new();
    for (blk, &bits) in words.iter().enumerate() {
        let mut rest = bits;
        while rest != 0 {
            out.push(ProcId((blk * 64 + rest.trailing_zeros() as usize) as u32));
            rest &= rest - 1;
        }
    }
    out
}

/// Naive re-implementation of the pricing rules of §2/§8, straight from the
/// definitions. `valid` is the cell's valid-copy set as a bitset (bit
/// `p % 64` of word `p / 64` is process `p`), which DSM never reads; one
/// call costs O(`valid.len()`) word operations.
fn naive_charge(
    model: CostModel,
    n_procs: usize,
    owner: Option<ProcId>,
    valid: &mut [u64],
    pid: ProcId,
    nontrivial: bool,
    failed_comparison: bool,
) -> AccessCost {
    let cfg = match model {
        CostModel::Dsm => {
            // DSM: remote iff the cell lives in another module. Stateless.
            let rmr = owner != Some(pid);
            return AccessCost {
                rmr,
                messages: u64::from(rmr),
                invalidations: 0,
            };
        }
        CostModel::Cc(cfg) => cfg,
    };
    if failed_comparison && cfg.lfcu {
        // LFCU: failed comparison primitives are applied locally, for free.
        return AccessCost::default();
    }
    let (word, bit) = (pid.index() / 64, 1u64 << (pid.index() % 64));
    let mine = (valid[word] & bit) != 0;
    if !nontrivial {
        // Trivial access: a cache hit if this process holds a valid copy,
        // otherwise one fetch that installs a copy.
        let rmr = !mine;
        valid[word] |= bit;
        return AccessCost {
            rmr,
            messages: u64::from(rmr),
            invalidations: 0,
        };
    }
    // Nontrivial access.
    let holders: u64 = valid.iter().map(|w| u64::from(w.count_ones())).sum();
    let holders_elsewhere = holders - u64::from(mine);
    let rmr = match cfg.protocol {
        Protocol::WriteThrough => true,
        Protocol::WriteBack => !(mine && holders_elsewhere == 0),
    };
    let coherence = match cfg.interconnect {
        Interconnect::Bus => u64::from(holders_elsewhere > 0),
        Interconnect::IdealDirectory => holders_elsewhere,
        Interconnect::StatelessBroadcast => {
            if rmr {
                n_procs as u64 - 1
            } else {
                0
            }
        }
    };
    let invalidations = if cfg.lfcu { 0 } else { holders_elsewhere };
    if !cfg.lfcu {
        // Invalidation: every other copy is destroyed. (Under LFCU's
        // write-update, remote copies are refreshed instead.)
        valid.fill(0);
    }
    valid[word] |= bit;
    AccessCost {
        rmr,
        messages: u64::from(rmr) + coherence,
        invalidations,
    }
}

/// Per-process shadow executor state (mirrors the simulator's private
/// `ProcState`, rebuilt independently from the spec's call sources).
struct ShadowProc {
    source: Box<dyn CallSource>,
    current: Option<Call>,
    last_op_result: Option<Word>,
    last_return: Option<Word>,
    runnable: bool,
    stats: ProcStats,
}

/// One shadow walk of a schedule range under one cost model — either the
/// whole recording, or one checkpoint-delimited chunk of the full walk.
struct Walk<'a> {
    sim: &'a Simulator,
    spec: &'a SimSpec,
    labels: &'a Labels,
    model: CostModel,
    mlabel: String,
    /// Full diff (events + charges + end state) vs. charge-only cross-check.
    full: bool,
    /// First schedule index this walk covers.
    sched_start: usize,
    /// One past the last schedule index this walk covers.
    sched_end: usize,
    /// One past the last recorded-event index this walk may consume.
    event_end: usize,
    cursor: usize,
    step: usize,
    /// Schedule steps actually shadow-executed by this walk.
    steps_walked: usize,
    events_checked: usize,
    cells: Vec<NaiveCell>,
    /// Naive cache-validity sets as one flat bitset: cell `a`'s set is
    /// `valid[a * stride..][..stride]` (see [`naive_charge`]).
    valid: Vec<u64>,
    /// Words per cell of `valid` ([`naive_stride`]).
    stride: usize,
    /// Production cost-model state driven in parallel with the naive one, so
    /// a pricing divergence is localized to the `CostState` implementation
    /// (`model.*` fields) rather than to the replay engine (`cost.*` fields).
    fast: CostState,
    procs: Vec<ShadowProc>,
    totals: Totals,
}

impl<'a> Walk<'a> {
    /// A walk over schedule `[range.0, range.1)` and events
    /// `[range.2, range.3)`, its state seeded from `seed` (the checkpoint
    /// closing the previous chunk of the full walk) or fresh from the spec.
    ///
    /// A seed is not taken on faith: the chunk that *ends* at that
    /// checkpoint re-derived the same observable state independently and
    /// diffed it via [`Walk::check_boundary`], so trust chains inductively
    /// from the fresh first chunk.
    fn new(
        sim: &'a Simulator,
        spec: &'a SimSpec,
        model: CostModel,
        full: bool,
        range: (usize, usize, usize, usize),
        seed: Option<&Checkpoint>,
    ) -> Self {
        let n_cells = spec.layout.len();
        let cells = (0..n_cells)
            .map(|a| {
                let addr = Addr(a as u32);
                match seed.map(|c| c.memory()) {
                    None => NaiveCell {
                        value: spec.layout.initial_value(addr),
                        last_writer: None,
                        reserved: BTreeSet::new(),
                    },
                    Some(mem) => NaiveCell {
                        value: mem.peek(addr),
                        last_writer: mem.last_writer(addr),
                        reserved: mem.reservations(addr).collect(),
                    },
                }
            })
            .collect();
        let stride = naive_stride(model, spec.n());
        let mut valid = vec![0; n_cells * stride];
        if let Some(c) = seed {
            for a in 0..n_cells {
                let words = c.cost().holder_words(Addr(a as u32));
                let k = words.len().min(stride);
                valid[a * stride..][..k].copy_from_slice(&words[..k]);
            }
        }
        let procs = match seed {
            None => spec
                .sources
                .iter()
                .map(|s| ShadowProc {
                    source: s.clone(),
                    current: None,
                    last_op_result: None,
                    last_return: None,
                    runnable: true,
                    stats: ProcStats::default(),
                })
                .collect(),
            Some(c) => c
                .procs()
                .iter()
                .map(|p| ShadowProc {
                    source: p.source.clone(),
                    current: p.current.clone(),
                    last_op_result: p.last_op_result,
                    last_return: p.last_return,
                    runnable: p.status == Status::Runnable,
                    stats: p.stats,
                })
                .collect(),
        };
        Walk {
            sim,
            spec,
            labels: spec.layout.labels(),
            model,
            mlabel: model_label(model),
            full,
            sched_start: range.0,
            sched_end: range.1,
            event_end: range.3,
            cursor: range.2,
            step: range.0,
            steps_walked: 0,
            events_checked: 0,
            cells,
            valid,
            stride,
            fast: seed.map_or_else(
                || CostState::new(model, spec.n(), n_cells),
                |c| c.cost().clone(),
            ),
            procs,
            totals: seed.map_or_else(Totals::default, Checkpoint::totals),
        }
    }

    /// Cell `a`'s naive valid-copy set.
    fn naive_set(&self, a: usize) -> &[u64] {
        &self.valid[a * self.stride..(a + 1) * self.stride]
    }

    /// The divergence at recorded event `event`. `at` names the memory
    /// location involved; its label is rendered only here, once a
    /// divergence is found.
    fn diverge(
        &self,
        event: usize,
        pid: Option<ProcId>,
        at: Option<Addr>,
        field: &str,
        expected: impl fmt::Display,
        actual: impl fmt::Display,
    ) -> AuditDivergence {
        AuditDivergence {
            model: self.mlabel.clone(),
            step: self.step,
            event,
            pid,
            location: at.map_or_else(|| "-".to_string(), |a| self.labels.name(a)),
            field: field.to_string(),
            expected: expected.to_string(),
            actual: actual.to_string(),
        }
    }

    /// Consumes and returns the next recorded event within this walk's event
    /// range, skipping `Crash` events (crashes are external actions with no
    /// schedule entry, outside the audit's re-execution scope). `None` when
    /// the range is exhausted.
    fn take_recorded(&mut self) -> Option<(usize, Event)> {
        while self.cursor < self.event_end {
            let idx = self.cursor;
            self.cursor += 1;
            let e = self.sim.history().event(idx);
            if matches!(e, Event::Crash { .. }) {
                continue;
            }
            self.events_checked += 1;
            return Some((idx, e.clone()));
        }
        None
    }

    fn recording_exhausted(&self, pid: ProcId, wanted: &str) -> AuditDivergence {
        self.diverge(
            self.event_end,
            Some(pid),
            None,
            "events",
            format!("{wanted} event for {pid}"),
            "recorded history ended early",
        )
    }

    fn expect_invoke(
        &mut self,
        pid: ProcId,
        kind: CallKind,
        name: &str,
    ) -> Option<AuditDivergence> {
        let Some((idx, ev)) = self.take_recorded() else {
            return Some(self.recording_exhausted(pid, "invoke"));
        };
        match ev {
            Event::Invoke {
                pid: rp,
                kind: rk,
                name: rn,
            } if rp == pid && rk == kind && rn == name => None,
            other => Some(self.diverge(
                idx,
                Some(pid),
                None,
                "event",
                format!("Invoke {{ {pid}, kind {}, {name:?} }}", kind.0),
                format!("{other:?}"),
            )),
        }
    }

    fn expect_return(
        &mut self,
        pid: ProcId,
        kind: CallKind,
        value: Word,
    ) -> Option<AuditDivergence> {
        let Some((idx, ev)) = self.take_recorded() else {
            return Some(self.recording_exhausted(pid, "return"));
        };
        match ev {
            Event::Return {
                pid: rp,
                kind: rk,
                value: rv,
            } if rp == pid && rk == kind => {
                if rv == value {
                    None
                } else {
                    Some(self.diverge(idx, Some(pid), None, "return.value", value, rv))
                }
            }
            other => Some(self.diverge(
                idx,
                Some(pid),
                None,
                "event",
                format!("Return {{ {pid}, kind {}, {value} }}", kind.0),
                format!("{other:?}"),
            )),
        }
    }

    fn expect_terminate(&mut self, pid: ProcId) -> Option<AuditDivergence> {
        let Some((idx, ev)) = self.take_recorded() else {
            return Some(self.recording_exhausted(pid, "terminate"));
        };
        match ev {
            Event::Terminate { pid: rp } if rp == pid => None,
            other => Some(self.diverge(
                idx,
                Some(pid),
                None,
                "event",
                format!("Terminate {{ {pid} }}"),
                format!("{other:?}"),
            )),
        }
    }

    /// Re-applies one recorded injection (mirrors `Simulator::inject_call`).
    fn apply_injection(&mut self, pid: ProcId, call: Call) -> Option<AuditDivergence> {
        if self.procs[pid.index()].current.is_some() {
            return Some(self.diverge(
                self.cursor,
                Some(pid),
                None,
                "injection",
                "no call in progress",
                "recorded injection into a process mid-call",
            ));
        }
        if let Some(d) = self.expect_invoke(pid, call.kind, call.name) {
            return Some(d);
        }
        let p = &mut self.procs[pid.index()];
        p.runnable = true;
        p.current = Some(call);
        p.last_op_result = None;
        None
    }

    /// Shadow-executes one memory access and diffs it against the recording.
    fn shadow_access(&mut self, pid: ProcId, op: Op) -> Option<AuditDivergence> {
        let addr = op.addr();
        let owner = self.spec.layout.owner(addr);
        let cell = &mut self.cells[addr.index()];
        let sees = if matches!(op, Op::Write(..)) {
            None
        } else {
            cell.last_writer.filter(|&q| q != pid)
        };
        let touches = owner.filter(|&q| q != pid);
        let (result, nontrivial, failed_comparison) = naive_apply(cell, pid, op);
        let naive = naive_charge(
            self.model,
            self.spec.n(),
            owner,
            &mut self.valid[addr.index() * self.stride..(addr.index() + 1) * self.stride],
            pid,
            nontrivial,
            failed_comparison,
        );
        let fastc = self.fast.charge(
            pid,
            addr,
            owner,
            &Applied {
                result,
                nontrivial,
                failed_comparison,
            },
        );
        let st = &mut self.procs[pid.index()].stats;
        st.accesses += 1;
        st.rmrs += u64::from(naive.rmr);
        st.messages += naive.messages;
        self.totals.accesses += 1;
        self.totals.rmrs += u64::from(naive.rmr);
        self.totals.messages += naive.messages;
        self.totals.invalidations += naive.invalidations;
        self.procs[pid.index()].last_op_result = Some(result);

        // Production cost model vs. naive pricing rules (all model walks).
        if fastc.rmr != naive.rmr {
            return Some(self.diverge(
                self.cursor,
                Some(pid),
                Some(addr),
                "model.rmr",
                naive.rmr,
                fastc.rmr,
            ));
        }
        if fastc.messages != naive.messages {
            return Some(self.diverge(
                self.cursor,
                Some(pid),
                Some(addr),
                "model.messages",
                naive.messages,
                fastc.messages,
            ));
        }
        if fastc.invalidations != naive.invalidations {
            return Some(self.diverge(
                self.cursor,
                Some(pid),
                Some(addr),
                "model.invalidations",
                naive.invalidations,
                fastc.invalidations,
            ));
        }
        // Cache-validity state: naive set vs. production holders.
        let naive_set = self.naive_set(addr.index());
        let fast_set = self.fast.holder_words(addr);
        if !same_members(naive_set, fast_set) {
            return Some(self.diverge(
                self.cursor,
                Some(pid),
                Some(addr),
                "cache.holders",
                format!("{:?}", members(naive_set)),
                format!("{:?}", members(fast_set)),
            ));
        }

        // The recorded event (functional fields are model-independent, so
        // they are diffed in every walk; costs only in the full walk).
        let Some((idx, ev)) = self.take_recorded() else {
            return Some(self.recording_exhausted(pid, "access"));
        };
        let Event::Access {
            pid: rp,
            op: rop,
            result: rres,
            wrote: rwrote,
            cost: rcost,
            sees: rsees,
            touches: rtouches,
        } = ev
        else {
            return Some(self.diverge(
                idx,
                Some(pid),
                Some(addr),
                "event",
                format!("Access {{ {pid}, {op} }}"),
                format!("{ev:?}"),
            ));
        };
        if rp != pid || rop != op {
            return Some(self.diverge(
                idx,
                Some(pid),
                Some(addr),
                "event",
                format!("Access {{ {pid}, {op} }}"),
                format!("Access {{ {rp}, {rop} }}"),
            ));
        }
        if rres != result {
            return Some(self.diverge(idx, Some(pid), Some(addr), "result", result, rres));
        }
        if rwrote != nontrivial {
            return Some(self.diverge(idx, Some(pid), Some(addr), "wrote", nontrivial, rwrote));
        }
        if rsees != sees {
            return Some(self.diverge(
                idx,
                Some(pid),
                Some(addr),
                "sees",
                format!("{sees:?}"),
                format!("{rsees:?}"),
            ));
        }
        if rtouches != touches {
            return Some(self.diverge(
                idx,
                Some(pid),
                Some(addr),
                "touches",
                format!("{touches:?}"),
                format!("{rtouches:?}"),
            ));
        }
        if self.full {
            if rcost.rmr != naive.rmr {
                return Some(self.diverge(
                    idx,
                    Some(pid),
                    Some(addr),
                    "cost.rmr",
                    naive.rmr,
                    rcost.rmr,
                ));
            }
            if rcost.messages != naive.messages {
                return Some(self.diverge(
                    idx,
                    Some(pid),
                    Some(addr),
                    "cost.messages",
                    naive.messages,
                    rcost.messages,
                ));
            }
            if rcost.invalidations != naive.invalidations {
                return Some(self.diverge(
                    idx,
                    Some(pid),
                    Some(addr),
                    "cost.invalidations",
                    naive.invalidations,
                    rcost.invalidations,
                ));
            }
        }
        None
    }

    /// Shadow-executes one schedule step (mirrors `Simulator::step` +
    /// `transition`).
    fn shadow_step(&mut self, pid: ProcId) -> Option<AuditDivergence> {
        if !self.procs[pid.index()].runnable {
            return Some(self.diverge(
                self.cursor,
                Some(pid),
                None,
                "schedule",
                format!("{pid} runnable"),
                "recorded step by a non-runnable process",
            ));
        }
        self.totals.steps += 1;
        self.procs[pid.index()].stats.steps += 1;
        if self.procs[pid.index()].current.is_none() {
            let prev = self.procs[pid.index()].last_return;
            match self.procs[pid.index()].source.next_call(prev) {
                None => {
                    self.procs[pid.index()].runnable = false;
                    return self.expect_terminate(pid);
                }
                Some(call) => {
                    if let Some(d) = self.expect_invoke(pid, call.kind, call.name) {
                        return Some(d);
                    }
                    self.procs[pid.index()].current = Some(call);
                    self.procs[pid.index()].last_op_result = None;
                }
            }
        }
        let last = self.procs[pid.index()].last_op_result;
        let step = self.procs[pid.index()]
            .current
            .as_mut()
            .expect("current call set above")
            .machine
            .step(last);
        match step {
            Step::Op(op) => self.shadow_access(pid, op),
            Step::Return(value) => {
                let call = self.procs[pid.index()]
                    .current
                    .take()
                    .expect("current call");
                if let Some(d) = self.expect_return(pid, call.kind, value) {
                    return Some(d);
                }
                let p = &mut self.procs[pid.index()];
                p.last_return = Some(value);
                p.stats.calls_completed += 1;
                None
            }
        }
    }

    /// End-state diff (full walk only): totals, per-process stats, memory
    /// image and cache-validity table.
    fn check_end_state(&mut self) -> Option<AuditDivergence> {
        let evlen = self.sim.history().len();
        let totals = self.sim.totals();
        let stats: Vec<ProcStats> = (0..self.spec.n())
            .map(|i| self.sim.proc_stats(ProcId(i as u32)))
            .collect();
        self.diff_state(
            evlen,
            totals,
            &stats,
            self.sim.memory(),
            self.sim.cost_state(),
            false,
        )
    }

    /// Boundary diff for a non-final chunk: the naive state re-derived over
    /// `[sched_start, sched_end)` must match the checkpoint that closes the
    /// chunk — the same snapshot the *next* chunk seeds from. Reservations
    /// are included (the end-state diff skips them only because nothing is
    /// seeded from the final state).
    fn check_boundary(&mut self, ckpt: &Checkpoint) -> Option<AuditDivergence> {
        self.step = ckpt.schedule_len();
        let stats: Vec<ProcStats> = ckpt.procs().iter().map(|p| p.stats).collect();
        self.diff_state(
            ckpt.history_len(),
            ckpt.totals(),
            &stats,
            ckpt.memory(),
            ckpt.cost(),
            true,
        )
    }

    /// Diffs the walk's naive shadow state against an expected observable
    /// state (the live simulator's final state, or a checkpoint's).
    fn diff_state(
        &self,
        evlen: usize,
        t: Totals,
        stats: &[ProcStats],
        mem: &Memory,
        cost: &CostState,
        check_reservations: bool,
    ) -> Option<AuditDivergence> {
        if t.steps != self.totals.steps {
            return Some(self.diverge(
                evlen,
                None,
                None,
                "totals.steps",
                self.totals.steps,
                t.steps,
            ));
        }
        if t.accesses != self.totals.accesses {
            return Some(self.diverge(
                evlen,
                None,
                None,
                "totals.accesses",
                self.totals.accesses,
                t.accesses,
            ));
        }
        if t.rmrs != self.totals.rmrs {
            return Some(self.diverge(evlen, None, None, "totals.rmrs", self.totals.rmrs, t.rmrs));
        }
        if t.messages != self.totals.messages {
            return Some(self.diverge(
                evlen,
                None,
                None,
                "totals.messages",
                self.totals.messages,
                t.messages,
            ));
        }
        if t.invalidations != self.totals.invalidations {
            return Some(self.diverge(
                evlen,
                None,
                None,
                "totals.invalidations",
                self.totals.invalidations,
                t.invalidations,
            ));
        }
        for (i, &got) in stats.iter().enumerate() {
            let p = ProcId(i as u32);
            let want = self.procs[i].stats;
            if want != got {
                return Some(self.diverge(
                    evlen,
                    Some(p),
                    None,
                    "stats",
                    format!("{want:?}"),
                    format!("{got:?}"),
                ));
            }
        }
        for a in 0..self.spec.layout.len() {
            let addr = Addr(a as u32);
            let cell = &self.cells[a];
            if mem.peek(addr) != cell.value {
                return Some(self.diverge(
                    evlen,
                    None,
                    Some(addr),
                    "memory.value",
                    cell.value,
                    mem.peek(addr),
                ));
            }
            if mem.last_writer(addr) != cell.last_writer {
                return Some(self.diverge(
                    evlen,
                    None,
                    Some(addr),
                    "memory.last_writer",
                    format!("{:?}", cell.last_writer),
                    format!("{:?}", mem.last_writer(addr)),
                ));
            }
            // Both sides iterate in ascending pid order without repeats.
            if check_reservations && !mem.reservations(addr).eq(cell.reserved.iter().copied()) {
                let live_rsv: BTreeSet<ProcId> = mem.reservations(addr).collect();
                return Some(self.diverge(
                    evlen,
                    None,
                    Some(addr),
                    "memory.reservations",
                    format!("{:?}", cell.reserved),
                    format!("{live_rsv:?}"),
                ));
            }
            let (naive_set, live_set) = (self.naive_set(a), cost.holder_words(addr));
            if !same_members(naive_set, live_set) {
                return Some(self.diverge(
                    evlen,
                    None,
                    Some(addr),
                    "cache.holders",
                    format!("{:?}", members(naive_set)),
                    format!("{:?}", members(live_set)),
                ));
            }
        }
        None
    }

    /// Walks this walk's schedule range, re-applying injections at their
    /// recorded positions (same loop as the simulator's re-step erasure
    /// path, but with no erasure and no fingerprints).
    ///
    /// `end_ckpt` is `Some` for a non-final chunk: instead of the end-of-run
    /// checks, the chunk verifies its re-derived state against the closing
    /// checkpoint. Injections with `at == sched_end` belong to the next chunk
    /// (they were recorded after the closing checkpoint was taken, and apply
    /// before that chunk's first step).
    fn run(&mut self, end_ckpt: Option<&Checkpoint>) -> Option<AuditDivergence> {
        let injections = self.sim.injections();
        let mut next_inj = injections.partition_point(|inj| inj.at < self.sched_start);
        for i in self.sched_start..self.sched_end {
            self.step = i;
            loop {
                let inj = match injections.get(next_inj) {
                    Some(inj) if inj.at <= i => (inj.pid, inj.call.clone()),
                    _ => break,
                };
                next_inj += 1;
                if let Some(d) = self.apply_injection(inj.0, inj.1) {
                    return Some(d);
                }
            }
            let pid = self.sim.schedule()[i];
            self.steps_walked += 1;
            if let Some(d) = self.shadow_step(pid) {
                return Some(d);
            }
        }
        self.step = self.sched_end;
        if let Some(ckpt) = end_ckpt {
            // Non-final chunk: nothing but crashes may remain in the chunk's
            // event range, and the state must match the closing checkpoint.
            if let Some((idx, ev)) = self.take_recorded() {
                return Some(self.diverge(
                    idx,
                    Some(ev.pid()),
                    None,
                    "events",
                    "checkpoint boundary",
                    format!("{ev:?} beyond chunk"),
                ));
            }
            return self.check_boundary(ckpt);
        }
        while let Some(inj) = injections.get(next_inj) {
            let (ipid, icall) = (inj.pid, inj.call.clone());
            next_inj += 1;
            if let Some(d) = self.apply_injection(ipid, icall) {
                return Some(d);
            }
        }
        // The shadow execution is over: nothing but crashes may remain in
        // the recorded log.
        if let Some((idx, ev)) = self.take_recorded() {
            return Some(self.diverge(
                idx,
                Some(ev.pid()),
                None,
                "events",
                "end of execution",
                format!("{ev:?} beyond shadow execution"),
            ));
        }
        if self.full {
            self.check_end_state()
        } else {
            None
        }
    }
}

/// One unit of parallel audit work: a chunk of the full walk, or a whole
/// cross-model walk. The shard list is a pure function of the recording, so
/// it is identical for every thread count.
struct ShardSpec {
    model: CostModel,
    full: bool,
    sched_start: usize,
    sched_end: usize,
    event_start: usize,
    event_end: usize,
    /// Checkpoint index to seed the chunk's state from (`None` = fresh).
    seed: Option<usize>,
    /// Checkpoint index closing a non-final chunk (`None` = run to the end).
    end_ckpt: Option<usize>,
}

/// Runs the full differential audit for [`Simulator::audit`] on up to
/// `threads` pool workers. The report — counts and canonical divergence — is
/// deterministic and thread-count independent: shards are fixed by the
/// recording, every shard runs to its own completion or first divergence, and
/// the canonical divergence is the first one in fixed shard order (full-walk
/// chunks ascending by schedule position, so the lowest step wins, then the
/// cross-check models in standard order).
pub(crate) fn run_audit(sim: &Simulator, spec: &SimSpec, threads: usize) -> AuditReport {
    let mut models = vec![spec.model];
    for m in standard_models() {
        if m != spec.model {
            models.push(m);
        }
    }
    let schedule_len = sim.schedule().len();
    let event_len = sim.history().len();
    let ckpts = sim.checkpoints();
    // Chunk boundaries for the full walk: interior checkpoints, in schedule
    // order. (Checkpoints are recorded in increasing schedule_len order;
    // dedup defensively in case of repeats.)
    let mut interior: Vec<usize> = (0..ckpts.len())
        .filter(|&c| ckpts[c].schedule_len() > 0 && ckpts[c].schedule_len() < schedule_len)
        .collect();
    interior.sort_by_key(|&c| ckpts[c].schedule_len());
    interior.dedup_by_key(|c| ckpts[*c].schedule_len());

    let mut shards = Vec::with_capacity(interior.len() + models.len());
    let full_model = models[0];
    let (mut sched_start, mut event_start, mut seed) = (0usize, 0usize, None);
    for &c in &interior {
        shards.push(ShardSpec {
            model: full_model,
            full: true,
            sched_start,
            sched_end: ckpts[c].schedule_len(),
            event_start,
            event_end: ckpts[c].history_len(),
            seed,
            end_ckpt: Some(c),
        });
        sched_start = ckpts[c].schedule_len();
        event_start = ckpts[c].history_len();
        seed = Some(c);
    }
    shards.push(ShardSpec {
        model: full_model,
        full: true,
        sched_start,
        sched_end: schedule_len,
        event_start,
        event_end: event_len,
        seed,
        end_ckpt: None,
    });
    for &model in &models[1..] {
        shards.push(ShardSpec {
            model,
            full: false,
            sched_start: 0,
            sched_end: schedule_len,
            event_start: 0,
            event_end: event_len,
            seed: None,
            end_ckpt: None,
        });
    }

    // Created on the serial submitting path (deterministic track/label);
    // each parallel shard ticks one unit.
    let shard_count = shards.len() as u64;
    let meter = shm_obs::progress::SharedMeter::new("audit", "shards", 256, Some(shard_count));
    let results = shm_pool::map_indexed(threads, shards, |_, s| {
        let _span = shm_obs::Span::enter("audit.shard");
        if let Some(m) = &meter {
            m.tick();
        }
        // Seeded chunks start from the checkpoint's accumulated totals; the
        // shard's own re-priced charge is the delta past that seed.
        let seed_rmrs = s.seed.map_or(0, |c| ckpts[c].totals().rmrs);
        let mtag = crate::model::model_tag(s.model);
        let mut walk = Walk::new(
            sim,
            spec,
            s.model,
            s.full,
            (s.sched_start, s.sched_end, s.event_start, s.event_end),
            s.seed.map(|c| ckpts[c].as_ref()),
        );
        let d = walk.run(s.end_ckpt.map(|c| ckpts[c].as_ref()));
        shm_obs::counter!("audit.shards");
        shm_obs::counter!("audit.steps", walk.steps_walked as u64);
        shm_obs::counter!("audit.events", walk.events_checked as u64);
        shm_obs::counter!("audit.rmr", walk.totals.rmrs - seed_rmrs, model: mtag);
        (walk.steps_walked, walk.events_checked, d)
    });

    let mut report = AuditReport {
        models_checked: models.len(),
        steps_checked: 0,
        events_checked: 0,
        divergence: None,
    };
    for (steps, events, d) in results {
        report.steps_checked += steps;
        report.events_checked += events;
        if report.divergence.is_none() {
            report.divergence = d;
        }
    }
    if let Some(m) = &meter {
        m.summary(&[
            ("shards", shard_count),
            ("models", report.models_checked as u64),
            ("steps", report.steps_checked as u64),
            ("events", report.events_checked as u64),
            ("divergence", u64::from(report.divergence.is_some())),
        ]);
    }
    report
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::machine::OpSequence;
    use crate::sched::{run_to_completion, SeededRandom};
    use crate::source::{Script, ScriptedCall};
    use std::sync::Arc;

    fn mixed_spec(n: usize, calls: usize, model: CostModel) -> SimSpec {
        let mut layout = MemLayout::new();
        let a = layout.alloc_global(0);
        layout.set_label(a, "A");
        let b = layout.alloc_global(5);
        layout.set_label(b, "B");
        let mine = layout.alloc_per_process_array(n, 0);
        layout.set_array_label(mine, "M");
        let sources = (0..n)
            .map(|i| {
                let pid = ProcId(i as u32);
                let mut cs = Vec::new();
                for k in 0..calls {
                    let ops = match (i + k) % 5 {
                        0 => vec![Op::Read(a), Op::Write(mine.at(pid.index()), k as Word)],
                        1 => vec![Op::Faa(a, 1), Op::Read(b)],
                        2 => vec![Op::Cas(b, 5, 6), Op::Read(mine.at(pid.index()))],
                        3 => vec![Op::Ll(b), Op::Sc(b, 9)],
                        _ => vec![Op::Tas(a), Op::Fas(b, 7)],
                    };
                    cs.push(ScriptedCall::new(
                        CallKind(k as u32),
                        "mix",
                        Arc::new(move || {
                            Box::new(OpSequence::new(ops.clone()))
                                as Box<dyn crate::machine::ProcedureCall>
                        }),
                    ));
                }
                Box::new(Script::new(cs)) as Box<dyn CallSource>
            })
            .collect();
        SimSpec {
            layout,
            sources,
            model,
        }
    }

    use crate::mem::MemLayout;

    #[test]
    fn clean_recording_audits_clean_under_all_models() {
        for model in standard_models() {
            let spec = mixed_spec(4, 3, model);
            let mut sim = Simulator::new(&spec);
            assert!(run_to_completion(
                &mut sim,
                &mut SeededRandom::new(11),
                1_000_000
            ));
            let report = sim.audit(&spec);
            assert!(
                report.is_clean(),
                "{model:?}: {}",
                report.divergence.unwrap()
            );
            assert_eq!(report.models_checked, 4);
            assert!(report.steps_checked > 0 && report.events_checked > 0);
            assert!(report.to_json().contains("\"clean\": true"));
        }
    }

    #[test]
    fn audit_covers_injected_calls() {
        let spec = mixed_spec(3, 2, CostModel::cc_default());
        let mut sim = Simulator::new(&spec);
        assert!(run_to_completion(
            &mut sim,
            &mut SeededRandom::new(4),
            1_000_000
        ));
        sim.inject_call(
            ProcId(1),
            Call::new(
                CallKind(50),
                "sig",
                Box::new(OpSequence::new(vec![Op::Write(Addr(0), 42)])),
            ),
        );
        while sim.is_runnable(ProcId(1)) {
            let _ = sim.step(ProcId(1));
        }
        let report = sim.audit(&spec);
        assert!(report.is_clean(), "{}", report.divergence.unwrap());
    }

    #[test]
    fn tampered_rmr_charge_is_caught_and_localized() {
        let spec = mixed_spec(3, 2, CostModel::Dsm);
        let mut sim = Simulator::new(&spec);
        assert!(run_to_completion(
            &mut sim,
            &mut SeededRandom::new(7),
            1_000_000
        ));
        // Flip the RMR flag of the first recorded global-cell access.
        let mut want_pid = None;
        for e in sim.history_mut().events_mut() {
            if let Event::Access { pid, op, cost, .. } = e {
                if op.addr() == Addr(0) {
                    want_pid = Some(*pid);
                    cost.rmr = !cost.rmr;
                    break;
                }
            }
        }
        let want_pid = want_pid.expect("workload accesses cell A");
        let report = sim.audit(&spec);
        let d = report.divergence.expect("tamper must be caught");
        assert_eq!(d.field, "cost.rmr");
        assert_eq!(d.pid, Some(want_pid));
        assert_eq!(d.location, "A", "diagnostic names the tampered location");
        assert_eq!(d.model, "dsm");
        assert!(d.step < sim.schedule().len(), "step index is localized");
        let json = d.to_json();
        for key in ["\"step\"", "\"pid\"", "\"location\"", "\"field\""] {
            assert!(json.contains(key), "JSON diagnostic has {key}: {json}");
        }
    }

    #[test]
    fn tampered_result_is_caught_in_cross_model_walks_too() {
        let spec = mixed_spec(3, 2, CostModel::cc_default());
        let mut sim = Simulator::new(&spec);
        assert!(run_to_completion(
            &mut sim,
            &mut SeededRandom::new(9),
            1_000_000
        ));
        for e in sim.history_mut().events_mut() {
            if let Event::Access { op, result, .. } = e {
                if matches!(op, Op::Faa(..)) {
                    *result = result.wrapping_add(1000);
                    break;
                }
            }
        }
        let report = sim.audit(&spec);
        let d = report.divergence.expect("tampered result must be caught");
        assert_eq!(d.field, "result");
    }

    #[test]
    fn tampered_totals_are_caught_by_end_state_diff() {
        let spec = mixed_spec(3, 2, CostModel::Dsm);
        let sim = Simulator::new(&spec);
        // A fresh simulator with a recorded history from a *different* run
        // cannot happen through the public API; instead tamper with totals
        // indirectly by auditing a stepped sim against a spec whose layout
        // matches but whose recording we corrupt at the totals level is not
        // reachable either — so assert the trivial case: an empty run is
        // clean, and the end-state diff sees the initial memory image.
        let report = sim.audit(&spec);
        assert!(report.is_clean());
        assert_eq!(report.steps_checked, 0);
    }

    /// The naive pricing rules as they stood with a `BTreeSet` validity set,
    /// kept verbatim as the reference for the bitset version.
    fn btree_naive_charge(
        model: CostModel,
        n_procs: usize,
        owner: Option<ProcId>,
        valid: &mut BTreeSet<ProcId>,
        pid: ProcId,
        nontrivial: bool,
        failed_comparison: bool,
    ) -> AccessCost {
        let cfg = match model {
            CostModel::Dsm => {
                // DSM: remote iff the cell lives in another module. Stateless.
                let rmr = owner != Some(pid);
                return AccessCost {
                    rmr,
                    messages: u64::from(rmr),
                    invalidations: 0,
                };
            }
            CostModel::Cc(cfg) => cfg,
        };
        if failed_comparison && cfg.lfcu {
            // LFCU: failed comparison primitives are applied locally, for free.
            return AccessCost::default();
        }
        if !nontrivial {
            // Trivial access: a cache hit if this process holds a valid copy,
            // otherwise one fetch that installs a copy.
            let rmr = !valid.contains(&pid);
            valid.insert(pid);
            return AccessCost {
                rmr,
                messages: u64::from(rmr),
                invalidations: 0,
            };
        }
        // Nontrivial access.
        let holders_elsewhere = valid.iter().filter(|&&q| q != pid).count() as u64;
        let rmr = match cfg.protocol {
            Protocol::WriteThrough => true,
            Protocol::WriteBack => !(valid.contains(&pid) && holders_elsewhere == 0),
        };
        let coherence = match cfg.interconnect {
            Interconnect::Bus => u64::from(holders_elsewhere > 0),
            Interconnect::IdealDirectory => holders_elsewhere,
            Interconnect::StatelessBroadcast => {
                if rmr {
                    n_procs as u64 - 1
                } else {
                    0
                }
            }
        };
        let invalidations = if cfg.lfcu { 0 } else { holders_elsewhere };
        if cfg.lfcu {
            // Write-update: remote copies are refreshed, not destroyed.
            valid.insert(pid);
        } else {
            valid.clear();
            valid.insert(pid);
        }
        AccessCost {
            rmr,
            messages: u64::from(rmr) + coherence,
            invalidations,
        }
    }

    /// Splitmix64: tiny deterministic generator for the reference test.
    fn splitmix(state: &mut u64) -> u64 {
        *state = state.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = *state;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    }

    /// The bitset `naive_charge` prices every access like the `BTreeSet`
    /// reference and leaves the same members behind: trivial, nontrivial
    /// and failed-comparison accesses by random pids, at sizes around the
    /// word boundaries, under the four standard models and a stateless-
    /// broadcast one. The write rate varies by seed, so holder sets range
    /// from a few members to most of the processes.
    #[test]
    fn bitset_naive_charge_matches_btreeset_reference() {
        let bcast = CostModel::Cc(CcConfig {
            protocol: Protocol::WriteBack,
            lfcu: false,
            interconnect: Interconnect::StatelessBroadcast,
        });
        let accesses = if cfg!(debug_assertions) { 400 } else { 4000 };
        for n in [1usize, 2, 63, 64, 65, 130, 1024] {
            let owners = [None, Some(ProcId(0)), Some(ProcId(n as u32 - 1))];
            for model in standard_models().into_iter().chain([bcast]) {
                let stride = naive_stride(model, n);
                for (seed, write_every) in [2u64, 8, 64, 1024].into_iter().enumerate() {
                    let mut rng = (seed as u64 + 1).wrapping_mul(0x5851_f42d_4c95_7f2d) ^ n as u64;
                    let mut sets = vec![0u64; owners.len() * stride];
                    let mut reference = vec![BTreeSet::new(); owners.len()];
                    for i in 0..accesses {
                        let pid = ProcId((splitmix(&mut rng) % n as u64) as u32);
                        let a = (splitmix(&mut rng) % owners.len() as u64) as usize;
                        let r = splitmix(&mut rng);
                        let (nontrivial, failed) = if r % write_every == 0 {
                            (true, false)
                        } else {
                            (false, (r >> 32) % 4 == 0)
                        };
                        let set = &mut sets[a * stride..(a + 1) * stride];
                        let got = naive_charge(model, n, owners[a], set, pid, nontrivial, failed);
                        let want = btree_naive_charge(
                            model,
                            n,
                            owners[a],
                            &mut reference[a],
                            pid,
                            nontrivial,
                            failed,
                        );
                        let ctx = format!(
                            "{} n={n} seed={seed} access {i}: {pid} on cell {a}, \
                             nontrivial={nontrivial} failed={failed}",
                            model_label(model)
                        );
                        assert_eq!(got, want, "{ctx}");
                        assert_eq!(
                            members(set),
                            reference[a].iter().copied().collect::<Vec<_>>(),
                            "{ctx}"
                        );
                    }
                }
            }
        }
    }

    #[test]
    fn same_members_reads_missing_words_as_zero() {
        assert!(same_members(&[], &[]));
        assert!(same_members(&[], &[0, 0]));
        assert!(same_members(&[5, 0], &[5]));
        assert!(!same_members(&[5], &[5, 1 << 63]));
        assert!(!same_members(&[4, 0], &[5, 0]));
        assert!(!same_members(&[], &[0, 2]));
    }

    /// Pid 3 reads `A`; every other process writes its own `M` cell.
    fn one_reader_spec(n: usize, model: CostModel) -> SimSpec {
        let mut layout = MemLayout::new();
        let a = layout.alloc_global(0);
        layout.set_label(a, "A");
        let mine = layout.alloc_per_process_array(n, 0);
        layout.set_array_label(mine, "M");
        let sources = (0..n)
            .map(|i| {
                let ops = if i == 3 {
                    vec![Op::Read(a)]
                } else {
                    vec![Op::Write(mine.at(i), 1)]
                };
                let call = ScriptedCall::new(
                    CallKind(0),
                    "one",
                    Arc::new(move || {
                        Box::new(OpSequence::new(ops.clone()))
                            as Box<dyn crate::machine::ProcedureCall>
                    }),
                );
                Box::new(Script::new(vec![call])) as Box<dyn CallSource>
            })
            .collect();
        SimSpec {
            layout,
            sources,
            model,
        }
    }

    /// Adds pid 129, a member of the third validity word, to cell `A`'s
    /// naive set.
    fn add_pid_129_to_a(walk: &mut Walk<'_>) {
        assert_eq!(walk.stride, 3, "130 processes take three words");
        walk.valid[2] |= 1 << 1;
    }

    /// The `cache.holders` check compares whole sets, past the first word:
    /// a naive set with one extra member is caught by the access-time check
    /// on the next access to the cell, and, when the chunk never touches
    /// the cell again, by the boundary diff at the closing checkpoint.
    /// Both sides render as ascending `ProcId` lists.
    #[test]
    fn extra_naive_holder_past_the_first_word_is_caught() {
        let model = CostModel::Cc(CcConfig {
            protocol: Protocol::WriteThrough,
            lfcu: false,
            interconnect: Interconnect::IdealDirectory,
        });
        let n = 130;
        let spec = one_reader_spec(n, model);
        for interval in [None, Some(8)] {
            let mut sim = Simulator::new(&spec);
            if let Some(iv) = interval {
                sim.enable_checkpoints(iv);
            }
            // Pid 3 reads A first and is done; nothing touches A after it.
            for p in std::iter::once(3).chain((0..n as u32).filter(|&p| p != 3)) {
                while sim.step(ProcId(p)) != crate::sim::StepReport::NotRunnable {}
            }
            assert!(sim.audit_with_threads(&spec, 1).is_clean());
            let (sched_len, ev_len) = (sim.schedule().len(), sim.history().len());
            let d = match interval {
                None => {
                    let mut walk =
                        Walk::new(&sim, &spec, model, true, (0, sched_len, 0, ev_len), None);
                    add_pid_129_to_a(&mut walk);
                    let d = walk.run(None).expect("extra holder caught");
                    assert_eq!((d.step, d.event, d.pid), (0, 1, Some(ProcId(3))));
                    d
                }
                Some(_) => {
                    // The second chunk: seeded after pid 3's read, it never
                    // touches A, so only its closing boundary diff can see
                    // the extra member.
                    let ckpts = sim.checkpoints();
                    let (open, close) = (&ckpts[1], &ckpts[2]);
                    assert!(open.schedule_len() > 3, "pid 3 is done before the chunk");
                    let range = (
                        open.schedule_len(),
                        close.schedule_len(),
                        open.history_len(),
                        close.history_len(),
                    );
                    let mut walk = Walk::new(&sim, &spec, model, true, range, Some(open));
                    add_pid_129_to_a(&mut walk);
                    let d = walk.run(Some(close)).expect("extra holder caught");
                    assert_eq!(
                        (d.step, d.event, d.pid),
                        (close.schedule_len(), close.history_len(), None)
                    );
                    d
                }
            };
            assert_eq!(d.model, "cc-wt-dir");
            assert_eq!(d.field, "cache.holders");
            assert_eq!(d.location, "A");
            assert_eq!(d.expected, "[ProcId(3), ProcId(129)]");
            assert_eq!(d.actual, "[ProcId(3)]");
        }
    }

    /// The chunked full walk reports what one unchunked walk of the same
    /// schedule reports: the same clean report, and, with the same recorded
    /// charge tampered inside a middle chunk, the same divergence.
    #[test]
    fn chunked_audit_matches_one_walk() {
        for model in standard_models() {
            let spec = mixed_spec(5, 4, model);
            let mut chunked = Simulator::new(&spec);
            chunked.enable_checkpoints(8);
            assert!(run_to_completion(
                &mut chunked,
                &mut SeededRandom::new(23),
                1_000_000
            ));
            let mut whole = Simulator::new(&spec);
            for &p in chunked.schedule() {
                let _ = whole.step(p);
            }
            assert_eq!(whole.schedule(), chunked.schedule());
            assert_eq!(whole.checkpoint_count(), 0);

            let clean = chunked.audit_with_threads(&spec, 1);
            assert!(clean.is_clean(), "{model:?}: {}", clean.divergence.unwrap());
            assert_eq!(
                clean.to_json(),
                whole.audit_with_threads(&spec, 1).to_json(),
                "{model:?}"
            );

            // An access in the second chunk, which runs from checkpoint 1 to
            // checkpoint 2 (checkpoint 0 is the initial state) and is followed
            // by at least one more chunk.
            let ckpts = chunked.checkpoints();
            assert!(ckpts.len() >= 4, "{model:?}: {} checkpoints", ckpts.len());
            let (open, close) = (&ckpts[1], &ckpts[2]);
            let steps = (open.schedule_len(), close.schedule_len());
            let idx = (open.history_len() + 1..close.history_len())
                .find(|&i| matches!(chunked.history().event(i), Event::Access { .. }))
                .expect("the chunk holds an access");
            for sim in [&mut chunked, &mut whole] {
                if let Some(Event::Access { cost, .. }) = sim.history_mut().events_mut().nth(idx) {
                    cost.rmr = !cost.rmr;
                }
            }
            let d = chunked
                .audit_with_threads(&spec, 1)
                .divergence
                .expect("tamper caught");
            assert_eq!((d.field.as_str(), d.event), ("cost.rmr", idx), "{model:?}");
            assert!(
                steps.0 <= d.step && d.step < steps.1,
                "{model:?}: step {} in a middle chunk",
                d.step
            );
            assert_eq!(
                Some(d),
                whole.audit_with_threads(&spec, 1).divergence,
                "{model:?}"
            );
        }
    }

    #[test]
    fn model_labels_are_stable() {
        assert_eq!(model_label(CostModel::Dsm), "dsm");
        assert_eq!(
            model_label(CostModel::Cc(CcConfig {
                protocol: Protocol::WriteBack,
                lfcu: true,
                interconnect: Interconnect::IdealDirectory,
            })),
            "cc-wb-lfcu-dir"
        );
    }
}
