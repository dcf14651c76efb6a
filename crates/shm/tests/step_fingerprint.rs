//! The one-step state fingerprint: a [`StateSum`] advanced by
//! `StateHasher::advance` over each step of a seeded random walk, and the
//! fingerprint `StateHasher::fingerprint` makes of it, equal the sum folded
//! from scratch and the full `Simulator::state_fingerprint` after every
//! step, under DSM and three CC models.
//!
//! The scripted processes use every `Op` kind, including a `Cas` that always
//! fails and `Ll`/`Sc` pairs whose `Sc` succeeds or fails depending on the
//! interleaving, plus calls that return without accessing memory and
//! sources that run out (so processes terminate mid-walk).

use shm_sim::*;
use std::sync::Arc;

/// Splitmix64: tiny deterministic generator for the property test.
fn splitmix(state: &mut u64) -> u64 {
    *state = state.wrapping_add(0x9e37_79b9_7f4a_7c15);
    let mut z = *state;
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^ (z >> 31)
}

fn models() -> [CostModel; 4] {
    let cc = |protocol, lfcu, interconnect| {
        CostModel::Cc(CcConfig {
            protocol,
            lfcu,
            interconnect,
        })
    };
    [
        CostModel::Dsm,
        cc(Protocol::WriteThrough, false, Interconnect::Bus),
        cc(Protocol::WriteBack, false, Interconnect::Bus),
        cc(Protocol::WriteBack, true, Interconnect::IdealDirectory),
    ]
}

/// `n` processes, each running a script of 1..=5 random calls over two
/// shared cells and one cell local to each process. A call is an `Ll`/`Sc`
/// pair, a `Cas` expecting a value no cell ever holds, a constant return,
/// or 1..=3 random operations.
fn random_spec(n: usize, model: CostModel, rng: &mut u64) -> SimSpec {
    let mut layout = MemLayout::new();
    let shared = [layout.alloc_global(0), layout.alloc_global(3)];
    let local = layout.alloc_per_process_array(n, 1);
    let cells: Vec<Addr> = shared
        .into_iter()
        .chain((0..n).map(|i| local.at(i)))
        .collect();
    let sources = (0..n)
        .map(|_| {
            let calls = (0..1 + splitmix(rng) % 5)
                .map(|k| {
                    let pick = |rng: &mut u64| cells[(splitmix(rng) % cells.len() as u64) as usize];
                    let factory: CallFactory = match splitmix(rng) % 6 {
                        0 => {
                            let (a, w) = (pick(rng), splitmix(rng) % 4);
                            Arc::new(move || {
                                Box::new(OpSequence::new(vec![Op::Ll(a), Op::Sc(a, w)]))
                                    as Box<dyn ProcedureCall>
                            })
                        }
                        1 => {
                            let a = pick(rng);
                            Arc::new(move || {
                                Box::new(OpSequence::new(vec![Op::Cas(a, 1 << 40, 2)]))
                                    as Box<dyn ProcedureCall>
                            })
                        }
                        2 => {
                            let v = splitmix(rng) % 3;
                            Arc::new(move || Box::new(ReturnConst(v)) as Box<dyn ProcedureCall>)
                        }
                        _ => {
                            let ops: Vec<Op> = (0..1 + splitmix(rng) % 3)
                                .map(|_| {
                                    let a = pick(rng);
                                    let w = splitmix(rng) % 4;
                                    match splitmix(rng) % 8 {
                                        0 => Op::Read(a),
                                        1 => Op::Write(a, w),
                                        2 => Op::Cas(a, splitmix(rng) % 4, w),
                                        3 => Op::Ll(a),
                                        4 => Op::Sc(a, w),
                                        5 => Op::Faa(a, w),
                                        6 => Op::Fas(a, w),
                                        _ => Op::Tas(a),
                                    }
                                })
                                .collect();
                            Arc::new(move || {
                                Box::new(OpSequence::new(ops.clone())) as Box<dyn ProcedureCall>
                            })
                        }
                    };
                    ScriptedCall::new(CallKind(k as u32), "random", factory)
                })
                .collect();
            Box::new(Script::new(calls)) as Box<dyn CallSource>
        })
        .collect();
    SimSpec {
        layout,
        sources,
        model,
    }
}

/// What the walks covered, so the test can show it exercised every case.
#[derive(Default)]
struct Seen {
    kinds: [bool; 8],
    failed_cas: bool,
    sc_won: bool,
    sc_lost: bool,
    returns: bool,
    terminations: bool,
}

fn kind(op: &Op) -> usize {
    match op {
        Op::Read(_) => 0,
        Op::Write(..) => 1,
        Op::Cas(..) => 2,
        Op::Ll(_) => 3,
        Op::Sc(..) => 4,
        Op::Faa(..) => 5,
        Op::Fas(..) => 6,
        Op::Tas(_) => 7,
    }
}

#[test]
fn one_step_fingerprint_equals_full_hash_after_every_step() {
    let seeds: u64 = if cfg!(debug_assertions) { 60 } else { 400 };
    for model in models() {
        let tag = model_tag(model);
        let mut seen = Seen::default();
        for seed in 0..seeds {
            let mut rng = seed.wrapping_mul(0x5851_f42d_4c95_7f2d) + 1;
            let n = 2 + (splitmix(&mut rng) % 4) as usize;
            let spec = random_spec(n, model, &mut rng);
            let mut sim = Simulator::new(&spec);
            let mut hasher = StateHasher::new();
            let mut sum = hasher.sum(&sim);
            assert_eq!(
                hasher.fingerprint(&sim, sum),
                sim.state_fingerprint(),
                "{tag} seed {seed}: root"
            );
            let mut runnable = Vec::new();
            for step in 0.. {
                sim.runnable_into(&mut runnable);
                if runnable.is_empty() {
                    break;
                }
                let pid = runnable[(splitmix(&mut rng) % runnable.len() as u64) as usize];
                let addr = match sim.peek_transition(pid) {
                    TransitionPeek::Access(op) => Some(op.addr()),
                    _ => None,
                };
                let before = sim.step_words(pid, addr);
                match sim.step(pid) {
                    StepReport::Access { op, result, .. } => {
                        seen.kinds[kind(&op)] = true;
                        match op {
                            Op::Cas(_, expected, _) if result != expected => seen.failed_cas = true,
                            Op::Sc(..) if result == 1 => seen.sc_won = true,
                            Op::Sc(..) => seen.sc_lost = true,
                            _ => {}
                        }
                    }
                    StepReport::Returned { .. } => seen.returns = true,
                    StepReport::Terminated => seen.terminations = true,
                    StepReport::NotRunnable => unreachable!("picked a runnable process"),
                }
                sum = hasher.advance(&sim, sum, &before);
                let ctx = format!("{tag} seed {seed} step {step} ({pid})");
                assert_eq!(sum, hasher.sum(&sim), "{ctx}: sum");
                assert_eq!(
                    hasher.fingerprint(&sim, sum),
                    sim.state_fingerprint(),
                    "{ctx}: fingerprint"
                );
            }
        }
        assert!(seen.kinds.iter().all(|&k| k), "{tag}: an op kind never ran");
        assert!(
            seen.failed_cas && seen.sc_won && seen.sc_lost,
            "{tag}: a Cas/Sc outcome never occurred"
        );
        assert!(
            seen.returns && seen.terminations,
            "{tag}: no return or no termination"
        );
    }
}
