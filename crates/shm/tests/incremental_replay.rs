//! Determinism contract for erasure: `Simulator::erase_certified_in_place`
//! — the DSM event-walk surgery and the re-step path the CC models take —
//! accepts exactly the erasures that leave every surviving projection
//! unchanged. An accepted erasure reproduces exactly — event log, totals,
//! per-process stats, memory (values, last writers and LL reservations),
//! cost-model state — what a from-scratch `Simulator::replay` of the
//! filtered schedule produces, and audits clean; a refused one leaves the
//! simulator as it was. Checked for every cost model and a spread of
//! checkpoint intervals, with and without call injection and checkpoint
//! thinning, and past 64 processes. Under DSM a batch that never overwrote
//! a cell is accepted without walking the log.

use shm_sim::*;
use std::collections::BTreeSet;
use std::sync::Arc;

/// Mixed-op workload over shared and per-process cells (same family as
/// `sim_invariants`). Odd pids' even-numbered calls only read the shared
/// cells, so erasing a process is sound in some recordings and unsound in
/// others — both verdicts get exercised.
fn workload(n: usize, calls: usize, model: CostModel) -> SimSpec {
    let mut layout = MemLayout::new();
    let a = layout.alloc_global(0);
    let b = layout.alloc_global(5);
    let mine = layout.alloc_per_process_array(n, 0);
    let sources = (0..n)
        .map(|i| {
            let own = mine.at(i);
            let mut cs = Vec::new();
            for k in 0..calls {
                let ops = if i % 2 == 1 && k % 2 == 0 {
                    vec![Op::Read(a), Op::Write(own, k as Word), Op::Read(b)]
                } else {
                    match (i + k) % 5 {
                        0 => vec![Op::Read(a), Op::Write(own, k as Word)],
                        1 => vec![Op::Faa(a, 1), Op::Read(b)],
                        2 => vec![Op::Cas(b, 5, 6), Op::Read(own)],
                        3 => vec![Op::Ll(b), Op::Sc(b, 9)],
                        _ => vec![Op::Tas(a), Op::Fas(b, 7)],
                    }
                };
                cs.push(ScriptedCall::new(
                    CallKind(k as u32),
                    "mix",
                    Arc::new(move || {
                        Box::new(OpSequence::new(ops.clone())) as Box<dyn ProcedureCall>
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

fn all_models() -> Vec<CostModel> {
    vec![
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

/// Every observable of `got` equals `want`: events (and with them every
/// cell's writer set), totals, schedule, stats, fingerprints, projections,
/// the full machine state (memory values and last writers, statuses,
/// pending calls, cost-model state), and every cell's LL reservations.
fn assert_same_execution(got: &Simulator, want: &Simulator, ctx: &str) {
    assert_eq!(
        got.history().to_vec(),
        want.history().to_vec(),
        "{ctx}: events"
    );
    assert_eq!(got.totals(), want.totals(), "{ctx}: totals");
    assert_eq!(got.schedule(), want.schedule(), "{ctx}: schedule");
    for i in 0..want.n() {
        let p = ProcId(i as u32);
        assert_eq!(got.proc_stats(p), want.proc_stats(p), "{ctx}: stats of {p}");
        assert_eq!(
            got.history().fingerprint(p),
            want.history().fingerprint(p),
            "{ctx}: fingerprint of {p}"
        );
        assert_eq!(
            got.history().projection(p),
            want.history().projection(p),
            "{ctx}: projection of {p}"
        );
    }
    assert_eq!(got.state_words(), want.state_words(), "{ctx}: state");
    let (g, w) = (got.memory(), want.memory());
    for a in 0..w.len() {
        let addr = Addr(a as u32);
        assert_eq!(
            g.reservations(addr).collect::<Vec<_>>(),
            w.reservations(addr).collect::<Vec<_>>(),
            "{ctx}: reservations of cell {a}"
        );
    }
}

/// Attempts to erase `batch` from a copy of `sim` and checks the outcome
/// against `reference`, the from-scratch execution without `batch`: the
/// erasure is accepted iff every survivor's projection is unchanged, an
/// accepted erasure equals the reference and audits clean, and a refused
/// one leaves the copy untouched. Returns the verdict.
fn check_erasure(
    spec: &SimSpec,
    sim: &Simulator,
    batch: &BTreeSet<ProcId>,
    reference: &Simulator,
    ctx: &str,
) -> bool {
    let want_ok = (0..sim.n() as u32).map(ProcId).all(|p| {
        batch.contains(&p) || reference.history().projection(p) == sim.history().projection(p)
    });
    let mut got = sim.clone();
    let ok = got.erase_certified_in_place(spec, batch);
    assert_eq!(ok, want_ok, "{ctx}: verdict");
    if ok {
        assert_same_execution(&got, reference, ctx);
        let report = got.audit(spec);
        assert!(report.is_clean(), "{ctx}: {}", report.divergence.unwrap());
    } else {
        assert_same_execution(&got, sim, &format!("{ctx} (refused)"));
        assert_eq!(got.checkpoint_count(), sim.checkpoint_count(), "{ctx}");
    }
    ok
}

/// Every single-process erasure, for every model, checkpoint interval and
/// a few recordings, matches the reference — and both verdicts occur.
#[test]
fn erase_in_place_matches_reference_for_every_model_interval_and_victim() {
    let (mut accepted, mut refused) = (0, 0);
    for model in all_models() {
        for interval in [1usize, 7, 64] {
            for seed in [3u64, 99, 2024] {
                let spec = workload(5, 3, model);
                let mut sim = Simulator::new(&spec);
                sim.enable_checkpoints(interval);
                run_to_completion(&mut sim, &mut SeededRandom::new(seed), 1_000_000);
                for victim in 0..5u32 {
                    let batch = BTreeSet::from([ProcId(victim)]);
                    let reference = Simulator::replay(&spec, sim.schedule(), &batch);
                    let ctx = format!("{model:?} interval={interval} seed={seed} erased=p{victim}");
                    if check_erasure(&spec, &sim, &batch, &reference, &ctx) {
                        accepted += 1;
                    } else {
                        refused += 1;
                    }
                }
            }
        }
    }
    assert!(
        accepted > 0 && refused > 0,
        "{accepted} accepted, {refused} refused"
    );
}

/// More than 64 processes, so a cell's reservation set spans several
/// 64-bit words, stepped round-robin in pid order under DSM: the
/// checkpoint at step 64 predates every pid past 63, so erasures certified
/// from it start from a base image narrower than the live one. Every
/// single-process erasure (and one batch) matches the reference, and both
/// verdicts occur.
#[test]
fn erase_in_place_matches_reference_past_64_processes() {
    let n = 130;
    let spec = workload(n, 3, CostModel::Dsm);
    let mut sim = Simulator::new(&spec);
    sim.enable_checkpoints(64);
    while !sim.all_done() {
        for p in 0..n as u32 {
            let _ = sim.step(ProcId(p));
        }
    }
    let batches = (0..n as u32)
        .map(|p| BTreeSet::from([ProcId(p)]))
        .chain([BTreeSet::from([ProcId(9), ProcId(70), ProcId(129)])]);
    let (mut accepted, mut refused) = (0, 0);
    for batch in batches {
        let reference = Simulator::replay(&spec, sim.schedule(), &batch);
        let ctx = format!("n={n} erased={batch:?}");
        if check_erasure(&spec, &sim, &batch, &reference, &ctx) {
            accepted += 1;
        } else {
            refused += 1;
        }
    }
    assert!(
        accepted > 0 && refused > 0,
        "{accepted} accepted, {refused} refused"
    );
}

/// Multi-process batches — including the empty batch and every process at
/// once — match the reference under every model.
#[test]
fn erase_in_place_matches_reference_under_batch_erasure() {
    for model in all_models() {
        let spec = workload(6, 3, model);
        let mut sim = Simulator::new(&spec);
        sim.enable_checkpoints(16);
        run_to_completion(&mut sim, &mut SeededRandom::new(7), 1_000_000);
        for batch in [
            BTreeSet::new(),
            BTreeSet::from([ProcId(0), ProcId(5)]),
            BTreeSet::from([ProcId(1), ProcId(3), ProcId(5)]),
            BTreeSet::from([ProcId(1), ProcId(2), ProcId(3)]),
            (0..6).map(ProcId).collect::<BTreeSet<_>>(),
        ] {
            let reference = Simulator::replay(&spec, sim.schedule(), &batch);
            check_erasure(
                &spec,
                &sim,
                &batch,
                &reference,
                &format!("{model:?} batch={batch:?}"),
            );
        }
    }
}

/// A call injected mid-run is re-applied at its recorded position when its
/// target survives the erasure, and dropped with it when the target is
/// erased.
#[test]
fn erase_in_place_handles_injected_calls() {
    let sig = || {
        Call::new(
            CallKind(50),
            "sig",
            Box::new(OpSequence::new(vec![Op::Write(Addr(0), 42)])),
        )
    };
    for model in all_models() {
        let spec = workload(4, 2, model);
        let mut sim = Simulator::new(&spec);
        sim.enable_checkpoints(4);
        let mut sched = SeededRandom::new(12);
        shm_sim::run(&mut sim, &mut sched, 12);
        while sim.is_runnable(ProcId(1)) {
            let _ = sim.step(ProcId(1));
        }
        let at = sim.schedule().len();
        sim.inject_call(ProcId(1), sig());
        run_to_completion(&mut sim, &mut sched, 1_000_000);
        assert!(
            sim.schedule().len() > at,
            "survivors step after the injection"
        );

        // Victim p1 is the injection's target; the others survive it.
        for victim in 0..4u32 {
            let batch = BTreeSet::from([ProcId(victim)]);
            let mut reference = Simulator::replay(&spec, &sim.schedule()[..at], &batch);
            if !batch.contains(&ProcId(1)) {
                reference.inject_call(ProcId(1), sig());
            }
            for &pid in &sim.schedule()[at..] {
                if !batch.contains(&pid) {
                    let _ = reference.step(pid);
                }
            }
            check_erasure(
                &spec,
                &sim,
                &batch,
                &reference,
                &format!("{model:?} erased=p{victim}"),
            );
        }
    }
}

/// An erasure can change which process a survivor *sees* without changing
/// any result: p2 reads the value both p0 and p1 swapped in, last written by
/// p1. With p1 erased, p2 sees p0 — as a from-scratch replay records it.
#[test]
fn erase_in_place_recomputes_survivor_sees() {
    let mut layout = MemLayout::new();
    let b = layout.alloc_global(5);
    let call = |op: Op| {
        Box::new(Script::new(vec![ScriptedCall::new(
            CallKind(0),
            "op",
            Arc::new(move || Box::new(OpSequence::new(vec![op])) as Box<dyn ProcedureCall>),
        )])) as Box<dyn CallSource>
    };
    let spec = SimSpec {
        layout,
        sources: vec![call(Op::Fas(b, 7)), call(Op::Fas(b, 7)), call(Op::Read(b))],
        model: CostModel::Dsm,
    };
    let mut sim = Simulator::new(&spec);
    sim.enable_checkpoints(64);
    for p in 0..3 {
        while sim.step(ProcId(p)) != StepReport::NotRunnable {}
    }
    assert!(sim.history().sees_pairs().contains(&(ProcId(2), ProcId(1))));

    let batch = BTreeSet::from([ProcId(1)]);
    let reference = Simulator::replay(&spec, sim.schedule(), &batch);
    assert!(reference
        .history()
        .sees_pairs()
        .contains(&(ProcId(2), ProcId(0))));
    assert!(check_erasure(&spec, &sim, &batch, &reference, "erased=p1"));
}

/// LL reservations survive erasure exactly. p1 takes an LL on `b`, a
/// checkpoint passes, p2 writes its own cell, then p1's SC succeeds: erasing
/// p2 certifies from that checkpoint, so the walk must roll `b` back with
/// p1's reservation. p0 is stopped right after its own LL: erasing it must
/// drop a reservation the walk never reaches. Erasing p1 changes what p0's
/// LL returns and is refused.
#[test]
fn erase_in_place_keeps_ll_reservations_exact() {
    let mut layout = MemLayout::new();
    let b = layout.alloc_global(5);
    let own = layout.alloc_per_process_array(3, 0);
    let call = |ops: Vec<Op>| {
        Box::new(Script::new(vec![ScriptedCall::new(
            CallKind(0),
            "ops",
            Arc::new(move || Box::new(OpSequence::new(ops.clone())) as Box<dyn ProcedureCall>),
        )])) as Box<dyn CallSource>
    };
    for model in all_models() {
        let spec = SimSpec {
            layout: layout.clone(),
            sources: vec![
                call(vec![Op::Ll(b), Op::Read(own.at(0)), Op::Sc(b, 1)]),
                call(vec![Op::Ll(b), Op::Read(own.at(1)), Op::Sc(b, 7)]),
                call(vec![Op::Write(own.at(2), 1)]),
            ],
            model,
        };
        let mut sim = Simulator::new(&spec);
        sim.enable_checkpoints(1);
        for p in [1, 2, 1, 1, 0] {
            let _ = sim.step(ProcId(p));
        }
        assert_eq!(
            sim.memory().reservations(b).collect::<Vec<_>>(),
            [ProcId(0)]
        );
        for (victim, ok) in [(0u32, true), (1, false), (2, true)] {
            let batch = BTreeSet::from([ProcId(victim)]);
            let reference = Simulator::replay(&spec, sim.schedule(), &batch);
            let ctx = format!("{model:?} erased=p{victim}");
            assert_eq!(
                check_erasure(&spec, &sim, &batch, &reference, &ctx),
                ok,
                "{ctx}"
            );
        }
    }
}

/// Under DSM a batch none of whose processes overwrote a cell is accepted
/// without walking the log (`erase.walk_events` 0, read on a track no
/// other test records into) and equals the from-scratch replay. Its
/// readers see the writers, take LL reservations and fail a CAS, but no
/// survivor can see them. A batch with one writer in it still walks.
#[test]
fn reader_only_batches_are_accepted_without_a_walk() {
    let mut layout = MemLayout::new();
    let a = layout.alloc_global(0);
    let own = layout.alloc_per_process_array(5, 0);
    let call = |ops: Vec<Op>| {
        Box::new(Script::new(vec![ScriptedCall::new(
            CallKind(0),
            "ops",
            Arc::new(move || Box::new(OpSequence::new(ops.clone())) as Box<dyn ProcedureCall>),
        )])) as Box<dyn CallSource>
    };
    let spec = SimSpec {
        layout,
        sources: vec![
            call(vec![Op::Write(a, 1), Op::Read(own.at(0)), Op::Write(a, 2)]),
            call(vec![Op::Faa(a, 3), Op::Write(own.at(1), 1)]),
            call(vec![Op::Read(a), Op::Ll(a), Op::Read(a)]),
            call(vec![Op::Ll(a), Op::Read(own.at(1))]),
            call(vec![Op::Read(a), Op::Cas(a, 99, 1)]),
        ],
        model: CostModel::Dsm,
    };
    let track = u32::MAX;
    for seed in [1u64, 5, 8] {
        let mut sim = Simulator::new(&spec);
        sim.enable_checkpoints(4);
        run_to_completion(&mut sim, &mut SeededRandom::new(seed), 1_000);
        for (batch, readers_only) in [
            (vec![2], true),
            (vec![4], true),
            (vec![2, 3, 4], true),
            (vec![1, 2, 3], false),
            (vec![0, 4], false),
        ] {
            let batch: BTreeSet<ProcId> = batch.into_iter().map(ProcId).collect();
            let reference = Simulator::replay(&spec, sim.schedule(), &batch);
            let ctx = format!("seed {seed} erased={batch:?}");
            let c = shm_obs::Collector::new();
            shm_obs::install_collector(&c);
            let ok = {
                let _track = shm_obs::enter_track(track);
                check_erasure(&spec, &sim, &batch, &reference, &ctx)
            };
            shm_obs::uninstall();
            let walked: u64 = c
                .snapshot()
                .tracks
                .iter()
                .filter(|(path, _)| path[..] == [track])
                .filter_map(|(_, d)| {
                    d.counters
                        .get(&shm_obs::CounterKey::plain("erase.walk_events"))
                })
                .sum();
            assert_eq!(walked == 0, readers_only, "{ctx}: walked {walked} events");
            assert!(ok || !readers_only, "{ctx}: readers are always erasable");
        }
    }
}

/// `snapshot`/`restore` rolls the simulator back to a byte-identical state:
/// re-running the same suffix reproduces the original execution.
#[test]
fn snapshot_restore_roundtrip() {
    let spec = workload(4, 3, CostModel::cc_default());
    let mut sim = Simulator::new(&spec);
    let mut sched = SeededRandom::new(5);
    shm_sim::run(&mut sim, &mut sched, 20);
    let ckpt = sim.snapshot();
    let fork = sim.clone();

    // Advance past the snapshot, then restore.
    let mut sched2 = sched.clone();
    shm_sim::run(&mut sim, &mut sched2, 50);
    let suffix: Vec<ProcId> = sim.schedule()[ckpt.schedule_len()..].to_vec();
    sim.restore(&ckpt);
    assert_same_execution(&sim, &fork, "restored state");

    // Re-running the recorded suffix reproduces the advanced execution.
    let mut replayed = sim.clone();
    for &pid in &suffix {
        let _ = replayed.step(pid);
    }
    let mut advanced = fork.clone();
    for &pid in &suffix {
        let _ = advanced.step(pid);
    }
    assert_same_execution(&replayed, &advanced, "suffix after restore");
}

/// Audit tier of the determinism contract: the differential audit layer —
/// a naive shadow executor with none of the incremental machinery — finds
/// no divergence from the fast path on a plain recording, for every cost
/// model, and its cross-model walks are clean too.
#[test]
fn audit_is_clean_on_plain_recordings_for_every_model() {
    for model in all_models() {
        let spec = workload(5, 3, model);
        let mut sim = Simulator::new(&spec);
        run_to_completion(&mut sim, &mut SeededRandom::new(2024), 1_000_000);
        let report = sim.audit(&spec);
        assert!(
            report.is_clean(),
            "{model:?}: {}",
            report.divergence.unwrap()
        );
        assert_eq!(report.models_checked, 4, "{model:?}");
        assert!(report.steps_checked > 0, "{model:?}");
    }
}

/// Audit tier with injections: a recording extended by injected calls (the
/// adversary's signal splices) still audits clean — the shadow executor
/// re-applies the injections at their recorded positions.
#[test]
fn audit_is_clean_after_call_injection() {
    for model in all_models() {
        let spec = workload(4, 2, model);
        let mut sim = Simulator::new(&spec);
        run_to_completion(&mut sim, &mut SeededRandom::new(12), 1_000_000);
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
        assert!(
            report.is_clean(),
            "{model:?}: {}",
            report.divergence.unwrap()
        );
    }
}

/// Checkpoint thinning keeps memory bounded (≤ 96 checkpoints) without
/// breaking erasure exactness, even at interval 1: after thinning, every
/// single-process erasure still matches the reference, and both verdicts
/// occur. Processes run one after another, so erasing the last one is
/// always sound.
#[test]
fn checkpoint_thinning_preserves_exactness() {
    let (mut accepted, mut refused) = (0, 0);
    for model in all_models() {
        let spec = workload(8, 6, model);
        let mut sim = Simulator::new(&spec);
        sim.enable_checkpoints(1);
        for p in 0..8 {
            while sim.step(ProcId(p)) != StepReport::NotRunnable {}
        }
        assert!(
            sim.checkpoint_count() <= 96,
            "thinned to {}",
            sim.checkpoint_count()
        );
        assert!(sim.checkpoint_interval() > 1, "thinning ran");
        for victim in 0..8u32 {
            let batch = BTreeSet::from([ProcId(victim)]);
            let reference = Simulator::replay(&spec, sim.schedule(), &batch);
            let ctx = format!("{model:?} after thinning, erased=p{victim}");
            if check_erasure(&spec, &sim, &batch, &reference, &ctx) {
                accepted += 1;
            } else {
                refused += 1;
            }
        }
    }
    assert!(
        accepted > 0 && refused > 0,
        "{accepted} accepted, {refused} refused"
    );
}
