//! How erasure cost scales, in two shapes.
//!
//! * **One late erasure**: full from-scratch `Simulator::replay` versus
//!   `erase_certified_in_place` on a clone of a checkpointed recording,
//!   under DSM (event-walk surgery) and a CC model (re-step from the latest
//!   checkpoint), at two checkpoint intervals. The erased victim first
//!   steps late in the recording, so the in-place erasure only walks or
//!   re-steps a short suffix while the reference pays for the whole
//!   history. Nobody steps after the victim, so its erasure is always
//!   accepted.
//! * **The chase**: an adversary Part 1 recorded at n = 1024 (pid stripes
//!   16 words wide), then Part 2's wild goose chase on it — the signaler
//!   runs `Signal()` and every stable waiter it is about to see or touch
//!   is erased first, one by one, each call taking the whole erased set.
//!   Broadcast accepts every erasure; queue-faa refuses every one. Many
//!   early victims, both verdicts: the shape the §6 adversary actually
//!   drives, which a single late victim does not predict.

use bench::timing::{bench, report};
use rmr_adversary::{choose_signaler, run_signal_phase, LowerBoundConfig, Part1Runner};
use shm_sim::*;
use signaling::algorithms::{Broadcast, QueueSignaling};
use signaling::SignalingAlgorithm;
use std::collections::BTreeSet;
use std::sync::Arc;

/// Mixed-op workload over shared and per-process cells.
fn workload(n: usize, calls: usize, model: CostModel) -> SimSpec {
    let mut layout = MemLayout::new();
    let a = layout.alloc_global(0);
    let b = layout.alloc_global(5);
    let mine = layout.alloc_per_process_array(n, 0);
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

/// Record a run where processes enter in pid order, so high pids first touch
/// the execution late (the favourable — and, for the adversary, typical —
/// case for checkpointed replay).
fn record(spec: &SimSpec, n: usize, interval: usize) -> Simulator {
    let mut sim = Simulator::new(spec);
    if interval > 0 {
        sim.enable_checkpoints(interval);
    }
    for p in 0..n {
        let pid = ProcId(p as u32);
        while sim.status(pid) == Status::Runnable {
            sim.step(pid);
        }
    }
    sim
}

fn main() {
    println!("one late erasure: full replay vs in-place erasure");
    for (tag, model) in [("dsm", CostModel::Dsm), ("cc", CostModel::cc_default())] {
        for n in [64usize, 128, 256] {
            let spec = workload(n, 6, model);
            let victim = ProcId(n as u32 - 1);
            let erased: BTreeSet<ProcId> = [victim].into_iter().collect();

            let reference = record(&spec, n, 0);
            let schedule = reference.schedule().to_vec();
            let r = bench(
                &format!("full_replay/{tag}/n={n}/steps={}", schedule.len()),
                10,
                || Simulator::replay(&spec, &schedule, &erased),
            );
            report(&r);

            for interval in [64usize, 256] {
                let sim = record(&spec, n, interval);
                let r = bench(
                    &format!("erase_in_place/{tag}/n={n}/interval={interval}"),
                    10,
                    || {
                        let mut erasing = sim.clone();
                        assert!(
                            erasing.erase_certified_in_place(&spec, &erased),
                            "erasing the last process to step was refused"
                        );
                        erasing
                    },
                );
                report(&r);
            }
        }
    }

    println!("the chase: every stable waiter erased on sight, one call each (dsm)");
    let cfg = LowerBoundConfig::for_n(1024);
    let n = cfg.part1.n;
    let cases: [(&str, &dyn SignalingAlgorithm, bool); 2] = [
        ("broadcast", &Broadcast, true),
        ("queue-faa", &QueueSignaling, false),
    ];
    for (name, algo, accepts) in cases {
        let mut runner = Part1Runner::new(algo, cfg.part1);
        assert!(runner.run().stabilized, "{name}: Part 1 did not stabilize");
        let s = choose_signaler(&runner, n).expect("a signaler exists");
        let chase = || run_signal_phase(&runner, s, true, cfg.max_chase_steps);
        let run = chase();
        let (accepted, refused) = (run.erased.len(), run.blocked);
        let victims = accepted + refused;
        assert_eq!(
            (accepted, refused),
            if accepts { (victims, 0) } else { (0, victims) },
            "{name}: chase verdicts"
        );
        assert!(victims > n / 2, "{name}: only {victims} chase erasures");
        let verdict = if accepts { "accepted" } else { "refused" };
        report(&bench(
            &format!("chase/{name}/n={n}/{verdict}={victims}"),
            5,
            chase,
        ));
    }
}
