//! Property tests for the disk-backed visited store: the delta-compressed
//! run encoder round-trips arbitrary sorted key batches, and exploration
//! reports are invariant under any memory budget (spilling moves keys and
//! nodes between tiers, never changes answers).

use shm_explore::spill::{
    block_contains, decode_block_into, fence_for, try_decode_block_into, Corrupt, Fence, Key,
    RunEncoder,
};
use shm_explore::store::VisitedStore;
use shm_explore::{check, Bounds, ScenarioSpec};
use shm_sim::rng::mix64;
use shm_sim::CostModel;
use signaling::algorithms::{Broadcast, SeededBuggy, SingleWaiter};
use signaling::SignalingAlgorithm;

/// A batch of `n` random keys (sorted, deduped) from a splitmix64 stream.
/// Mixes full-range fingerprints with clustered ones so both large and
/// tiny deltas appear, plus adversarial word patterns in the tail words.
fn random_sorted_keys(seed: u64, n: usize) -> Vec<Key> {
    let mut keys: Vec<Key> = (0..n as u64)
        .map(|i| {
            let a = mix64(seed ^ i.wrapping_mul(0x9E37_79B9_7F4A_7C15));
            let b = mix64(a);
            let fp = if i % 4 == 0 {
                // Clustered: tiny fingerprint deltas.
                u128::from(seed % 1000) << 64 | u128::from(b % 512)
            } else {
                u128::from(a) << 64 | u128::from(b)
            };
            (fp, mix64(b) % 8, mix64(b ^ 1), u64::MAX - a % 3)
        })
        .collect();
    keys.sort_unstable();
    keys.dedup();
    keys
}

fn block<'a>(bytes: &'a [u8], f: &Fence) -> &'a [u8] {
    &bytes[f.offset as usize..(f.offset + u64::from(f.len)) as usize]
}

/// Membership the way a cold run answers it: the fence search picks one
/// block, and the block is scanned.
fn contains(bytes: &[u8], fences: &[Fence], key: &Key) -> bool {
    fence_for(fences, key).is_some_and(|fi| {
        let f = &fences[fi];
        block_contains(block(bytes, f), f.count, key).expect("an in-memory block decodes")
    })
}

#[test]
fn run_encoder_round_trips_random_sorted_batches() {
    for (case, &(seed, n)) in [
        (1u64, 0usize),
        (2, 1),
        (3, 100),
        (5, 255),
        (7, 256),
        (11, 257),
        (13, 2048),
        (17, 10_000),
    ]
    .iter()
    .enumerate()
    {
        let keys = random_sorted_keys(seed, n);
        let mut enc = RunEncoder::new();
        for &k in &keys {
            enc.push(k);
        }
        let (bytes, fences, count, total) = enc.finish();
        assert_eq!(count, keys.len() as u64, "case {case}");
        assert_eq!(total, bytes.len() as u64, "case {case}");
        let mut decoded = Vec::new();
        for f in &fences {
            decode_block_into(block(&bytes, f), f.count, &mut decoded);
        }
        assert_eq!(decoded, keys, "case {case}: decode round-trip");
        for k in &keys {
            assert!(
                contains(&bytes, &fences, k),
                "case {case}: present key {k:?}"
            );
        }
        // Perturbed keys must be absent (unless the perturbation lands on a
        // real key, which the sorted batch rules out for the ctx-word flip).
        for k in keys.iter().step_by(7) {
            let absent = (k.0, k.1, k.2 ^ 0x8000_0000_0000_0000, k.3);
            assert!(
                !contains(&bytes, &fences, &absent),
                "case {case}: absent key"
            );
        }
    }
}

/// A key of `block` or, for odd `r`, one whose context word differs.
fn probe(block: &[Key], r: u64) -> Key {
    let k = block[(r >> 1) as usize % block.len()];
    (k.0, k.1, k.2, k.3 ^ (r & 1))
}

/// Seeded fuzz of the run decoders: valid blocks cut at every length and
/// with random bytes flipped must come back as a value or [`Corrupt`],
/// never a panic, and untouched blocks must decode exactly.
#[test]
fn spill_decoders_survive_truncated_and_corrupted_blocks() {
    for seed in [3u64, 29, 71] {
        let keys = random_sorted_keys(seed, 700);
        let mut enc = RunEncoder::new();
        for &k in &keys {
            enc.push(k);
        }
        let (bytes, fences, _, _) = enc.finish();
        let mut x = seed;
        let mut rand = move || {
            x = mix64(x);
            x
        };
        let mut first = 0usize;
        for f in &fences {
            let block = &bytes[f.offset as usize..(f.offset + u64::from(f.len)) as usize];
            let want = &keys[first..first + f.count as usize];
            first += f.count as usize;
            let mut decoded = Vec::new();
            try_decode_block_into(block, f.count, &mut decoded).expect("untouched block");
            assert_eq!(decoded, want, "seed {seed}: untouched block");
            for cut in 0..block.len() {
                let mut out = Vec::new();
                assert_eq!(
                    try_decode_block_into(&block[..cut], f.count, &mut out),
                    Err(Corrupt),
                    "seed {seed}: block cut at {cut}"
                );
                assert_eq!(&want[..out.len()], &out[..], "keys before the cut");
                // An answer from a cut block is still exact: the scan only
                // answers from keys it decoded whole.
                let k = probe(want, rand());
                if let Ok(hit) = block_contains(&block[..cut], f.count, &k) {
                    assert_eq!(hit, want.contains(&k), "seed {seed}: cut at {cut}");
                }
            }
            for _ in 0..300 {
                let mut bad = block.to_vec();
                for _ in 0..1 + rand() % 3 {
                    let at = rand() as usize % bad.len();
                    bad[at] ^= (rand() as u8) | 1;
                }
                let _ = try_decode_block_into(&bad, f.count, &mut Vec::new());
                let _ = block_contains(&bad, f.count, &probe(want, rand()));
            }
        }
    }
}

#[test]
fn budgeted_store_agrees_with_reference_on_random_streams() {
    // Random insert stream with repeats; a tiny budget forces flushes and
    // log-structured merges while answers must track a plain set exactly.
    let mut store = VisitedStore::new(Some(4096), None);
    let mut reference = std::collections::HashSet::new();
    let mut x = 0xD15C_BAC6u64;
    for _ in 0..20_000 {
        x = mix64(x);
        // Small key universe → plenty of duplicate hits in every tier.
        let v = x % 3000;
        let key: Key = (u128::from(v) << 96 | u128::from(mix64(v)), v % 4, 0, v % 9);
        assert_eq!(
            store.insert(key, Vec::new) == shm_explore::store::Lookup::New,
            reference.insert(key),
        );
    }
    assert_eq!(store.len(), reference.len() as u64);
    assert!(store.spilled_bytes() > 0, "budget must have forced spills");
}

fn scenario<'a>(algo: &'a dyn SignalingAlgorithm, waiters: usize) -> ScenarioSpec<'a> {
    ScenarioSpec {
        algorithm: algo,
        waiters,
        max_polls: 1,
        signaler_polls_first: 1,
        model: CostModel::Dsm,
        seed: None,
    }
}

/// The whole point of the store: a forcing budget must not change a single
/// count, verdict, maximum, or schedule — only the memory-trajectory
/// fields. Exercises both spill paths (visited runs and packed frontier
/// nodes: at 8 KiB the frontier ring holds 4 nodes < the 64-node target),
/// and, under a preemption bound, keys whose bound word is not zero.
#[test]
fn explore_reports_are_invariant_under_forced_spilling() {
    let algos: Vec<Box<dyn SignalingAlgorithm>> = vec![
        Box::new(Broadcast),
        Box::new(SingleWaiter),
        Box::new(SeededBuggy::new(2)),
    ];
    for (algo, bounds) in algos
        .iter()
        .flat_map(|a| [(a, Bounds::exhaustive()), (a, Bounds::bounded(64, Some(2)))])
    {
        let s = scenario(algo.as_ref(), 2);
        let unspilled = check(&s, &bounds);
        let spilled = check(
            &s,
            &Bounds {
                mem_budget: Some(8 * 1024),
                ..bounds
            },
        );
        // Tiny spaces can fit under the hot-tier floors (64 keys / 4
        // nodes) even at a forcing budget; single-waiter at n = 3 (~19k
        // states) cannot.
        if algo.name() == "single-waiter" {
            assert!(
                spilled.report.spilled_bytes > 0,
                "{}: 8 KiB must force spilling under {bounds:?}",
                algo.name()
            );
        }
        let logical = |o: &shm_explore::CheckOutcome| {
            let r = &o.report;
            (
                r.explored,
                r.deduped,
                r.sleep_pruned,
                r.bound_pruned,
                r.terminals,
                r.violations_found,
                r.violations_in_contract,
                r.exhaustive,
                r.frontier,
                r.max_objective
                    .as_ref()
                    .map(|m| (m.value, m.schedule.clone())),
                o.counterexample.as_ref().map(|c| c.schedule.clone()),
            )
        };
        assert_eq!(
            logical(&unspilled),
            logical(&spilled),
            "{}: spilling changed an answer under {bounds:?}",
            algo.name()
        );
    }
}
