//! Seeded fuzz loop for the two readers every submission and restart goes
//! through: `Manifest::from_json` and `Event::parse_line`. Valid manifests
//! and job-log lines, mutated by byte flips, truncations, duplications and
//! splices, must come back as `Ok` or `Err`, never as a panic. Whatever
//! they accept must also re-render and re-read to the same thing.

use shm_scenario::{Manifest, ManifestError, ALL_KINDS};
use shm_serve::joblog::Event;
use std::panic::{catch_unwind, AssertUnwindSafe};

/// Mutated inputs per corpus entry: more in release, where they are cheap.
const CASES: usize = if cfg!(debug_assertions) {
    1_000
} else {
    20_000
};

/// The manifests the repository submits to the server (the CI `serve`
/// job, the round-trip suite, the benchmark's traffic) and every kind's
/// canonical default.
fn manifests() -> Vec<String> {
    let mut lines: Vec<String> = [
        r#"{"schema":"cc-dsm/manifest/v1","kind":"e9","threads":2}"#,
        r#"{"schema":"cc-dsm/manifest/v1","kind":"e10","sizes":[8],"threads":2}"#,
        r#"{"schema":"cc-dsm/manifest/v1","kind":"e10","sizes":[8],"seed":11,"threads":1}"#,
        r#"{"schema":"cc-dsm/manifest/v1","kind":"e9","waiters":2,"max_polls":1,"threads":4}"#,
        r#"{"schema":"cc-dsm/manifest/v1","kind":"e10","sizes":[3],"max_polls":1,"seed":7,"threads":1}"#,
        r#"{"schema":"cc-dsm/manifest/v1","kind":"e5","n":4}"#,
    ]
    .map(str::to_owned)
    .into();
    for kind in ALL_KINDS {
        let m = Manifest::new(kind).normalized().expect("default manifest");
        lines.push(m.canonical_json());
    }
    lines
}

/// One line of each job-log event kind per manifest.
fn joblog_lines(manifests: &[String]) -> Vec<String> {
    let mut lines = Vec::new();
    for text in manifests {
        let m = Manifest::from_json(text).expect("corpus manifest");
        let job_id = m.job_id();
        let events = [
            Event::Submitted {
                job_id: job_id.clone(),
                source: "tcp".into(),
                manifest: Box::new(m),
            },
            Event::Completed {
                job_id: job_id.clone(),
                result_sha: "0123456789abcdef".repeat(2),
                result_bytes: 4096,
                rows: 12,
                wall_ms: 31.25,
            },
            Event::Failed {
                job_id,
                error: "index out of bounds: \"len\" is 3".into(),
            },
            Event::Rejected {
                source: "spool".into(),
                error: ManifestError {
                    code: "duplicate_size",
                    field: "sizes".into(),
                    message: "size 32 appears more than once".into(),
                },
            },
        ];
        lines.extend(events.iter().map(Event::to_line));
    }
    lines
}

fn splitmix(state: &mut u64) -> u64 {
    *state = state.wrapping_add(0x9E37_79B9_7F4A_7C15);
    let mut z = *state;
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// A random `start..end` range of `len` bytes.
fn range(len: usize, rng: &mut u64) -> std::ops::Range<usize> {
    let a = splitmix(rng) as usize % (len + 1);
    let b = splitmix(rng) as usize % (len + 1);
    a.min(b)..a.max(b)
}

/// `input` after one to four random edits, some taking bytes from `donor`.
fn mutate(input: &str, donor: &str, rng: &mut u64) -> String {
    let mut out = input.as_bytes().to_vec();
    for _ in 0..1 + splitmix(rng) % 4 {
        match splitmix(rng) % 4 {
            0 if !out.is_empty() => {
                let at = splitmix(rng) as usize % out.len();
                out[at] ^= 1 << (splitmix(rng) % 8);
            }
            1 => out.truncate(splitmix(rng) as usize % (out.len() + 1)),
            2 => {
                let copy = out[range(out.len(), rng)].to_vec();
                let at = splitmix(rng) as usize % (out.len() + 1);
                out.splice(at..at, copy);
            }
            _ => {
                let from = &donor.as_bytes()[range(donor.len(), rng)];
                let to = range(out.len(), rng);
                out.splice(to, from.iter().copied());
            }
        }
    }
    // The server hands the readers only UTF-8 text.
    String::from_utf8_lossy(&out).into_owned()
}

/// Runs `read` on `text`, failing the test with the input if it panics.
fn survives<T>(reader: &str, text: &str, read: impl FnOnce() -> T) -> T {
    catch_unwind(AssertUnwindSafe(read)).unwrap_or_else(|_| panic!("{reader} panicked on {text:?}"))
}

#[test]
fn manifest_reader_survives_mutated_manifests() {
    let corpus = manifests();
    let mut rng = 0x5EED_0001;
    for (i, valid) in corpus.iter().enumerate() {
        Manifest::from_json(valid).expect("corpus manifests are valid");
        for _ in 0..CASES {
            let donor = &corpus[splitmix(&mut rng) as usize % corpus.len()];
            let text = mutate(valid, donor, &mut rng);
            let Ok(m) = survives("from_json", &text, || Manifest::from_json(&text)) else {
                continue;
            };
            let canonical = m.canonical_json();
            let again = survives("from_json", &canonical, || Manifest::from_json(&canonical))
                .unwrap_or_else(|e| panic!("corpus {i}: {canonical} re-read as {e:?}"));
            assert_eq!(again.job_id(), m.job_id(), "corpus {i}: {text:?}");
        }
    }
}

#[test]
fn joblog_reader_survives_mutated_lines() {
    let manifests = manifests();
    let corpus = joblog_lines(&manifests);
    let mut rng = 0x5EED_0002;
    for (i, valid) in corpus.iter().enumerate() {
        Event::parse_line(valid).expect("corpus lines are valid");
        for _ in 0..CASES {
            let donor = &corpus[splitmix(&mut rng) as usize % corpus.len()];
            let text = mutate(valid, donor, &mut rng);
            let Ok(event) = survives("parse_line", &text, || Event::parse_line(&text)) else {
                continue;
            };
            let line = event.to_line();
            let again = survives("parse_line", &line, || Event::parse_line(&line))
                .unwrap_or_else(|e| panic!("corpus {i}: {line} re-read as {e}"));
            assert_eq!(again.to_line(), line, "corpus {i}: {text:?}");
        }
    }
}
