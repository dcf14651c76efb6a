//! The versioned scenario manifest (`cc-dsm/manifest/v1`).
//!
//! A manifest names one deterministic batch job: an experiment kind
//! (E1–E10), its scenario parameters (sizes, seeds, poll/cycle budgets,
//! memory bounds), the pool thread count to run it at, and — for the
//! exploration kinds — the oracle, objective, and optional algorithm/model
//! row filters. `cc-dsm run` builds a manifest from its CLI flags
//! (so bad sizes are rejected up front with a structured error instead of
//! panicking deep in a sweep), and the `shm-serve` job server ingests the
//! same schema as JSON over a spool directory or socket.
//!
//! Determinism contract: [`Manifest::normalized`] fills every default and
//! validates every range, and [`Manifest::canonical_json`] renders the
//! normalized manifest with a fixed key order — so two submissions that
//! mean the same job serialize to the same bytes and content-hash to the
//! same job ID ([`crate::hash::content_hash`]), which is what makes
//! resubmission idempotent and the job log replayable.

use crate::json::{self, Value};

/// Schema tag every v1 manifest must carry.
pub const MANIFEST_SCHEMA: &str = "cc-dsm/manifest/v1";

/// The experiment kinds a manifest can request (the claim map of
/// `DESIGN.md`).
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
#[allow(missing_docs)]
pub enum ExperimentKind {
    E1,
    E2,
    E3,
    E4,
    E5,
    E6,
    E7,
    E8,
    E9,
    E10,
}

/// All kinds, in experiment order.
pub const ALL_KINDS: [ExperimentKind; 10] = [
    ExperimentKind::E1,
    ExperimentKind::E2,
    ExperimentKind::E3,
    ExperimentKind::E4,
    ExperimentKind::E5,
    ExperimentKind::E6,
    ExperimentKind::E7,
    ExperimentKind::E8,
    ExperimentKind::E9,
    ExperimentKind::E10,
];

impl ExperimentKind {
    /// The wire name (`"e1"` … `"e10"`).
    #[must_use]
    pub fn as_str(self) -> &'static str {
        match self {
            ExperimentKind::E1 => "e1",
            ExperimentKind::E2 => "e2",
            ExperimentKind::E3 => "e3",
            ExperimentKind::E4 => "e4",
            ExperimentKind::E5 => "e5",
            ExperimentKind::E6 => "e6",
            ExperimentKind::E7 => "e7",
            ExperimentKind::E8 => "e8",
            ExperimentKind::E9 => "e9",
            ExperimentKind::E10 => "e10",
        }
    }

    /// Parses a wire name (`"e1"`..`"e10"`).
    #[must_use]
    pub fn parse(s: &str) -> Option<Self> {
        ALL_KINDS.into_iter().find(|k| k.as_str() == s)
    }
}

/// A structured manifest-validation error, rendered to clients and spool
/// submitters as a `cc-dsm/error/v1` JSON object.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct ManifestError {
    /// Stable machine-readable code (`"duplicate_size"`,
    /// `"size_out_of_range"`, `"unknown_kind"`, …).
    pub code: &'static str,
    /// The offending field (`"sizes"`, `"threads"`, …; empty when the
    /// document itself is at fault).
    pub field: String,
    /// Human-readable detail.
    pub message: String,
}

impl ManifestError {
    fn new(code: &'static str, field: impl Into<String>, message: impl Into<String>) -> Self {
        ManifestError {
            code,
            field: field.into(),
            message: message.into(),
        }
    }

    /// Renders the error as a `cc-dsm/error/v1` JSON object (one line).
    #[must_use]
    pub fn to_json(&self) -> String {
        format!(
            "{{\"schema\":\"cc-dsm/error/v1\",\"code\":\"{}\",\"field\":\"{}\",\"message\":\"{}\"}}",
            json::escape(self.code),
            json::escape(&self.field),
            json::escape(&self.message),
        )
    }
}

impl std::fmt::Display for ManifestError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "{} ({}): {}", self.code, self.field, self.message)
    }
}

impl std::error::Error for ManifestError {}

/// A v1 scenario manifest. `None` fields take the kind's default in
/// [`Manifest::normalized`]; fields that do not apply to the kind must be
/// absent (validation rejects them with `unsupported_field`).
#[derive(Clone, Debug, PartialEq)]
pub struct Manifest {
    /// Experiment kind (E1–E10).
    pub kind: ExperimentKind,
    /// Pool thread count for the job (`None` = the server default, 1).
    /// Canonical row output is thread-count invariant; this only sets how
    /// wide the job fans out.
    pub threads: Option<u32>,
    /// Sweep sizes (waiter/process counts — kind-dependent).
    pub sizes: Option<Vec<u64>>,
    /// Base sampling seed (E10 only).
    pub seed: Option<u64>,
    /// Polls per waiter before the signal (E1/E3).
    pub polls: Option<u64>,
    /// Waiter count (E3; E9 exhaustive scenario size).
    pub waiters: Option<u64>,
    /// Process count (E5).
    pub n: Option<u64>,
    /// Lock acquire/release cycles per process (E6).
    pub cycles: Option<u64>,
    /// Per-waiter poll bound of the exploration scenario (E9/E10).
    pub max_polls: Option<u64>,
    /// Exploration memory budget in bytes (E9/E10) — beyond it the visited
    /// store and frontier spill delta-compressed runs to disk.
    pub mem_budget: Option<u64>,
    /// E9 deep row (single-waiter × DSM at n = 4) instead of the sweep.
    pub deep: bool,
    /// Run the differential RMR audit on every phase (E2/E8).
    pub audit: bool,
    /// Restrict E9/E10 rows to one algorithm.
    pub algorithm: Option<String>,
    /// Restrict E9/E10 rows to one cost model (`"cc"` / `"dsm"`).
    pub model: Option<String>,
    /// Safety oracle judging explored states (E9/E10; v1 supports
    /// `"polling-spec"`, the Specification 4.1 oracle).
    pub oracle: Option<String>,
    /// Terminal-state objective being maximized (E9/E10; v1 supports
    /// `"max-signaler-rmrs"`).
    pub objective: Option<String>,
}

impl Manifest {
    /// An empty manifest of `kind` (all optionals unset).
    #[must_use]
    pub fn new(kind: ExperimentKind) -> Self {
        Manifest {
            kind,
            threads: None,
            sizes: None,
            seed: None,
            polls: None,
            waiters: None,
            n: None,
            cycles: None,
            max_polls: None,
            mem_budget: None,
            deep: false,
            audit: false,
            algorithm: None,
            model: None,
            oracle: None,
            objective: None,
        }
    }

    /// Parses a manifest from JSON text. Unknown fields, a missing/wrong
    /// `schema` tag, and type errors are all structured errors; ranges and
    /// defaults are checked by [`Manifest::normalized`], which this calls.
    pub fn from_json(text: &str) -> Result<Manifest, ManifestError> {
        let value = json::parse(text)
            .map_err(|e| ManifestError::new("bad_json", "", format!("not valid JSON: {e}")))?;
        Self::from_value(&value)
    }

    /// Parses and normalizes a manifest from an already-parsed JSON value.
    pub fn from_value(value: &Value) -> Result<Manifest, ManifestError> {
        let Value::Obj(fields) = value else {
            return Err(ManifestError::new(
                "bad_type",
                "",
                "manifest must be a JSON object",
            ));
        };
        let schema = value.get("schema").and_then(Value::as_str);
        if schema != Some(MANIFEST_SCHEMA) {
            return Err(ManifestError::new(
                "bad_schema",
                "schema",
                format!("expected \"{MANIFEST_SCHEMA}\", got {schema:?}"),
            ));
        }
        let kind_str = value
            .get("kind")
            .and_then(Value::as_str)
            .ok_or_else(|| ManifestError::new("unknown_kind", "kind", "missing \"kind\""))?;
        let kind = ExperimentKind::parse(kind_str).ok_or_else(|| {
            ManifestError::new(
                "unknown_kind",
                "kind",
                format!("unknown experiment kind {kind_str:?} (expected e1..e10)"),
            )
        })?;
        const OPTIONAL_FIELDS: [&str; 15] = [
            "threads",
            "sizes",
            "seed",
            "polls",
            "waiters",
            "n",
            "cycles",
            "max_polls",
            "mem_budget",
            "deep",
            "audit",
            "algorithm",
            "model",
            "oracle",
            "objective",
        ];
        let mut m = Manifest::new(kind);
        for (key, v) in fields {
            // Canonical JSON renders unset optionals as null; accept that
            // on the way back in (null == absent).
            if matches!(v, Value::Null) && OPTIONAL_FIELDS.contains(&key.as_str()) {
                continue;
            }
            match key.as_str() {
                "schema" | "kind" => {}
                "threads" => m.threads = Some(u64_field(v, key)?.try_into().unwrap_or(u32::MAX)),
                "sizes" => {
                    let arr = v.as_arr().ok_or_else(|| {
                        ManifestError::new(
                            "bad_type",
                            "sizes",
                            "sizes must be an array of integers",
                        )
                    })?;
                    let mut sizes = Vec::with_capacity(arr.len());
                    for item in arr {
                        sizes.push(item.as_u64().ok_or_else(|| {
                            ManifestError::new(
                                "bad_type",
                                "sizes",
                                format!("non-integer size {}", item.to_json()),
                            )
                        })?);
                    }
                    m.sizes = Some(sizes);
                }
                "seed" => m.seed = Some(u64_field(v, key)?),
                "polls" => m.polls = Some(u64_field(v, key)?),
                "waiters" => m.waiters = Some(u64_field(v, key)?),
                "n" => m.n = Some(u64_field(v, key)?),
                "cycles" => m.cycles = Some(u64_field(v, key)?),
                "max_polls" => m.max_polls = Some(u64_field(v, key)?),
                "mem_budget" => {
                    m.mem_budget = match v {
                        Value::Null => None,
                        _ => Some(u64_field(v, key)?),
                    }
                }
                "deep" => m.deep = bool_field(v, key)?,
                "audit" => m.audit = bool_field(v, key)?,
                "algorithm" => m.algorithm = str_field(v, key)?,
                "model" => m.model = str_field(v, key)?,
                "oracle" => m.oracle = str_field(v, key)?,
                "objective" => m.objective = str_field(v, key)?,
                other => {
                    return Err(ManifestError::new(
                        "unknown_field",
                        other,
                        format!("unknown manifest field {other:?}"),
                    ));
                }
            }
        }
        m.normalized()
    }

    /// Validates every field against the kind's contract and fills the
    /// kind's defaults, returning the normalized manifest. This is where
    /// duplicate/out-of-range `sizes`, out-of-range `n`/`waiters`, fields
    /// that do not apply to the kind, and unsupported oracle/objective/
    /// algorithm/model values are rejected — up front, with a structured
    /// error, instead of panicking deep inside a sweep.
    pub fn normalized(&self) -> Result<Manifest, ManifestError> {
        use ExperimentKind as K;
        let mut m = self.clone();
        let kind = m.kind;
        let k = kind.as_str();

        // -------------------------------------------- applicability ----
        let reject = |field: &str| -> ManifestError {
            ManifestError::new(
                "unsupported_field",
                field,
                format!("field {field:?} does not apply to kind {k:?}"),
            )
        };
        if m.sizes.is_some()
            && !matches!(kind, K::E1 | K::E2 | K::E4 | K::E6 | K::E7 | K::E8 | K::E10)
        {
            return Err(reject("sizes"));
        }
        if m.seed.is_some() && kind != K::E10 {
            return Err(reject("seed"));
        }
        if m.polls.is_some() && !matches!(kind, K::E1 | K::E3) {
            return Err(reject("polls"));
        }
        if m.waiters.is_some() && !matches!(kind, K::E3 | K::E9) {
            return Err(reject("waiters"));
        }
        if m.n.is_some() && kind != K::E5 {
            return Err(reject("n"));
        }
        if m.cycles.is_some() && kind != K::E6 {
            return Err(reject("cycles"));
        }
        if m.max_polls.is_some() && !matches!(kind, K::E9 | K::E10) {
            return Err(reject("max_polls"));
        }
        if m.mem_budget.is_some() && !matches!(kind, K::E9 | K::E10) {
            return Err(reject("mem_budget"));
        }
        if m.deep && kind != K::E9 {
            return Err(reject("deep"));
        }
        if m.audit && !matches!(kind, K::E2 | K::E8) {
            return Err(reject("audit"));
        }
        for (field, v) in [("algorithm", &m.algorithm), ("model", &m.model)] {
            if v.is_some() && !matches!(kind, K::E9 | K::E10) {
                return Err(reject(field));
            }
        }
        for (field, v) in [("oracle", &m.oracle), ("objective", &m.objective)] {
            if v.is_some() && !matches!(kind, K::E9 | K::E10) {
                return Err(reject(field));
            }
        }
        if m.deep && (m.waiters.is_some() || m.max_polls.is_some()) {
            return Err(ManifestError::new(
                "conflicting_fields",
                "deep",
                "the E9 deep row has a fixed scenario; drop waiters/max_polls",
            ));
        }

        // ------------------------------------- defaults (per kind) ----
        let default_sizes: Option<&[u64]> = match kind {
            K::E1 => Some(&[4, 16, 64, 256]),
            K::E2 => Some(&[32, 64, 128, 256]),
            K::E4 => Some(&[16, 32, 64, 128, 256, 512]),
            K::E6 => Some(&[2, 4, 8, 16, 32]),
            K::E7 => Some(&[4, 8, 16, 32, 64, 128]),
            K::E8 => Some(&[16, 32, 64, 128]),
            K::E10 => Some(&[8, 16, 32]),
            _ => None,
        };
        if m.sizes.is_none() {
            m.sizes = default_sizes.map(<[u64]>::to_vec);
        }
        match kind {
            K::E1 | K::E3 => m.polls = Some(m.polls.unwrap_or(25)),
            _ => {}
        }
        match kind {
            K::E3 => m.waiters = Some(m.waiters.unwrap_or(32)),
            K::E9 if !m.deep => m.waiters = Some(m.waiters.unwrap_or(2)),
            _ => {}
        }
        if kind == K::E5 {
            m.n = Some(m.n.unwrap_or(16));
        }
        if kind == K::E6 {
            m.cycles = Some(m.cycles.unwrap_or(4));
        }
        match kind {
            K::E9 if !m.deep => m.max_polls = Some(m.max_polls.unwrap_or(2)),
            K::E10 => m.max_polls = Some(m.max_polls.unwrap_or(2)),
            _ => {}
        }
        if kind == K::E10 {
            m.seed = Some(m.seed.unwrap_or(0xE10));
        }
        if matches!(kind, K::E9 | K::E10) {
            m.oracle = Some(m.oracle.unwrap_or_else(|| "polling-spec".into()));
            m.objective = Some(m.objective.unwrap_or_else(|| "max-signaler-rmrs".into()));
        }

        // ----------------------------------------------- ranges ----
        if let Some(t) = m.threads {
            if t == 0 || t > 256 {
                return Err(ManifestError::new(
                    "field_out_of_range",
                    "threads",
                    format!("threads must be in 1..=256 (got {t})"),
                ));
            }
        }
        if let Some(sizes) = &m.sizes {
            let (lo, hi) = match kind {
                K::E1 => (1, 4096),
                K::E2 | K::E4 | K::E8 => (2, 4096),
                K::E6 => (2, 512),
                K::E7 => (1, 1024),
                K::E10 => (1, 512),
                _ => unreachable!("sizes rejected for other kinds above"),
            };
            if sizes.is_empty() {
                return Err(ManifestError::new(
                    "empty_sizes",
                    "sizes",
                    "sizes must name at least one population size",
                ));
            }
            if sizes.len() > 64 {
                return Err(ManifestError::new(
                    "field_out_of_range",
                    "sizes",
                    format!("at most 64 sizes per job (got {})", sizes.len()),
                ));
            }
            let mut seen = std::collections::BTreeSet::new();
            for &s in sizes {
                if !(lo..=hi).contains(&s) {
                    return Err(ManifestError::new(
                        "size_out_of_range",
                        "sizes",
                        format!("size {s} out of range for kind {k:?} (allowed {lo}..={hi})"),
                    ));
                }
                if !seen.insert(s) {
                    return Err(ManifestError::new(
                        "duplicate_size",
                        "sizes",
                        format!("size {s} appears more than once"),
                    ));
                }
            }
        }
        let range = |field: &str, v: Option<u64>, lo: u64, hi: u64| -> Result<(), ManifestError> {
            match v {
                Some(x) if !(lo..=hi).contains(&x) => Err(ManifestError::new(
                    "field_out_of_range",
                    field,
                    format!("{field} must be in {lo}..={hi} for kind {k:?} (got {x})"),
                )),
                _ => Ok(()),
            }
        };
        range("polls", m.polls, 1, 100_000)?;
        match kind {
            K::E3 => range("waiters", m.waiters, 1, 4096)?,
            K::E9 => {
                // Exhaustive exploration: the state space explodes past a
                // handful of waiters; reject rather than OOM.
                range("waiters", m.waiters, 1, 4)?;
                range("max_polls", m.max_polls, 1, 4)?;
            }
            _ => {}
        }
        if kind == K::E10 {
            range("max_polls", m.max_polls, 1, 64)?;
        }
        range("n", m.n, 2, 512)?;
        range("cycles", m.cycles, 1, 10_000)?;
        if let Some(b) = m.mem_budget {
            if b < 1024 {
                return Err(ManifestError::new(
                    "field_out_of_range",
                    "mem_budget",
                    format!("mem_budget is bytes and must be >= 1024 (got {b})"),
                ));
            }
        }

        // -------------------------------------------- enum values ----
        const ALGORITHMS: [&str; 6] = [
            "broadcast",
            "cc-flag",
            "single-waiter",
            "queue-faa",
            "cas-list",
            "seeded-buggy",
        ];
        if let Some(a) = &m.algorithm {
            if !ALGORITHMS.contains(&a.as_str()) {
                return Err(ManifestError::new(
                    "bad_enum",
                    "algorithm",
                    format!("unknown algorithm {a:?} (expected one of {ALGORITHMS:?})"),
                ));
            }
        }
        if let Some(model) = &m.model {
            if !["cc", "dsm"].contains(&model.as_str()) {
                return Err(ManifestError::new(
                    "bad_enum",
                    "model",
                    format!("unknown model {model:?} (expected \"cc\" or \"dsm\")"),
                ));
            }
        }
        if let Some(o) = &m.oracle {
            if o != "polling-spec" {
                return Err(ManifestError::new(
                    "bad_enum",
                    "oracle",
                    format!("v1 supports oracle \"polling-spec\" only (got {o:?})"),
                ));
            }
        }
        if let Some(o) = &m.objective {
            if o != "max-signaler-rmrs" {
                return Err(ManifestError::new(
                    "bad_enum",
                    "objective",
                    format!("v1 supports objective \"max-signaler-rmrs\" only (got {o:?})"),
                ));
            }
        }
        Ok(m)
    }

    /// Renders the manifest as canonical JSON: every field present, fixed
    /// key order, compact formatting. Two manifests meaning the same job
    /// (normalized) produce identical bytes, so [`Manifest::job_id`] is
    /// stable under resubmission.
    #[must_use]
    pub fn canonical_json(&self) -> String {
        let opt_u64 = |v: Option<u64>| v.map_or_else(|| "null".into(), |x| x.to_string());
        let opt_str = |v: &Option<String>| {
            v.as_ref()
                .map_or_else(|| "null".into(), |s| format!("\"{}\"", json::escape(s)))
        };
        let sizes = self.sizes.as_ref().map_or_else(
            || "null".into(),
            |s| {
                let items: Vec<String> = s.iter().map(u64::to_string).collect();
                format!("[{}]", items.join(","))
            },
        );
        format!(
            concat!(
                "{{\"schema\":\"{}\",\"kind\":\"{}\",\"threads\":{},\"sizes\":{},",
                "\"seed\":{},\"polls\":{},\"waiters\":{},\"n\":{},\"cycles\":{},",
                "\"max_polls\":{},\"mem_budget\":{},\"deep\":{},\"audit\":{},",
                "\"algorithm\":{},\"model\":{},\"oracle\":{},\"objective\":{}}}"
            ),
            MANIFEST_SCHEMA,
            self.kind.as_str(),
            opt_u64(self.threads.map(u64::from)),
            sizes,
            opt_u64(self.seed),
            opt_u64(self.polls),
            opt_u64(self.waiters),
            opt_u64(self.n),
            opt_u64(self.cycles),
            opt_u64(self.max_polls),
            opt_u64(self.mem_budget),
            self.deep,
            self.audit,
            opt_str(&self.algorithm),
            opt_str(&self.model),
            opt_str(&self.oracle),
            opt_str(&self.objective),
        )
    }

    /// The job ID: the content hash of the canonical manifest bytes.
    /// Idempotent resubmission falls out of this — the same normalized
    /// manifest always lands on the same ID.
    #[must_use]
    pub fn job_id(&self) -> String {
        crate::hash::content_hash(self.canonical_json().as_bytes())
    }

    /// The effective thread count (`threads`, defaulting to 1 — the exact
    /// serial path).
    #[must_use]
    pub fn effective_threads(&self) -> usize {
        self.threads.map_or(1, |t| t as usize)
    }

    /// `sizes` as `usize` (for the sweep APIs).
    #[must_use]
    pub fn sizes_usize(&self) -> Vec<usize> {
        self.sizes
            .as_ref()
            .map(|s| s.iter().map(|&x| x as usize).collect())
            .unwrap_or_default()
    }

    /// `mem_budget` as `usize`.
    #[must_use]
    pub fn mem_budget_usize(&self) -> Option<usize> {
        self.mem_budget.map(|b| b as usize)
    }
}

fn u64_field(v: &Value, key: &str) -> Result<u64, ManifestError> {
    v.as_u64().ok_or_else(|| {
        ManifestError::new(
            "bad_type",
            key,
            format!("{key} must be a non-negative integer, got {}", v.to_json()),
        )
    })
}

fn bool_field(v: &Value, key: &str) -> Result<bool, ManifestError> {
    v.as_bool().ok_or_else(|| {
        ManifestError::new(
            "bad_type",
            key,
            format!("{key} must be true or false, got {}", v.to_json()),
        )
    })
}

fn str_field(v: &Value, key: &str) -> Result<Option<String>, ManifestError> {
    match v {
        Value::Null => Ok(None),
        Value::Str(s) => Ok(Some(s.clone())),
        other => Err(ManifestError::new(
            "bad_type",
            key,
            format!("{key} must be a string, got {}", other.to_json()),
        )),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn defaults_fill_and_round_trip() {
        let m = Manifest::from_json(r#"{"schema":"cc-dsm/manifest/v1","kind":"e9"}"#).unwrap();
        assert_eq!(m.waiters, Some(2));
        assert_eq!(m.max_polls, Some(2));
        assert_eq!(m.oracle.as_deref(), Some("polling-spec"));
        // Canonical JSON re-parses to the same normalized manifest.
        let again = Manifest::from_json(&m.canonical_json()).unwrap();
        assert_eq!(again, m);
        assert_eq!(again.job_id(), m.job_id());
    }

    #[test]
    fn idempotent_job_ids_ignore_formatting_and_defaults() {
        let terse = Manifest::from_json(r#"{"schema":"cc-dsm/manifest/v1","kind":"e10"}"#).unwrap();
        let explicit = Manifest::from_json(
            r#"{ "schema" : "cc-dsm/manifest/v1", "kind": "e10",
                 "sizes": [8, 16, 32], "seed": 777, "max_polls": 2 }"#,
        )
        .unwrap();
        // Same kind, explicit-default sizes/max_polls but a DIFFERENT seed
        // (the default is 0xE10): different job.
        assert_ne!(terse.job_id(), explicit.job_id());
        // Same content, different whitespace: same job.
        let respaced = Manifest::from_json(
            r#"{"kind":"e10","schema":"cc-dsm/manifest/v1","seed":777,"max_polls":2,"sizes":[8,16,32]}"#,
        )
        .unwrap();
        assert_eq!(explicit.job_id(), respaced.job_id());
        // Explicit defaults equal omitted defaults.
        let dflt =
            Manifest::from_json(r#"{"schema":"cc-dsm/manifest/v1","kind":"e10","seed":777}"#)
                .unwrap();
        assert_eq!(explicit.job_id(), dflt.job_id());
    }

    #[test]
    fn duplicate_and_out_of_range_sizes_are_structured_errors() {
        let dup = Manifest::from_json(
            r#"{"schema":"cc-dsm/manifest/v1","kind":"e2","sizes":[32,64,32]}"#,
        )
        .unwrap_err();
        assert_eq!(dup.code, "duplicate_size");
        assert!(dup.to_json().contains("\"schema\":\"cc-dsm/error/v1\""));
        let range =
            Manifest::from_json(r#"{"schema":"cc-dsm/manifest/v1","kind":"e2","sizes":[1]}"#)
                .unwrap_err();
        assert_eq!(range.code, "size_out_of_range");
        let huge =
            Manifest::from_json(r#"{"schema":"cc-dsm/manifest/v1","kind":"e9","waiters":64}"#)
                .unwrap_err();
        assert_eq!(huge.code, "field_out_of_range");
        let empty =
            Manifest::from_json(r#"{"schema":"cc-dsm/manifest/v1","kind":"e10","sizes":[]}"#)
                .unwrap_err();
        assert_eq!(empty.code, "empty_sizes");
    }

    #[test]
    fn inapplicable_and_unknown_fields_are_rejected() {
        for (doc, code, field) in [
            (
                r#"{"schema":"cc-dsm/manifest/v1","kind":"e1","seed":7}"#,
                "unsupported_field",
                "seed",
            ),
            (
                r#"{"schema":"cc-dsm/manifest/v1","kind":"e9","sizes":[2]}"#,
                "unsupported_field",
                "sizes",
            ),
            (
                r#"{"schema":"cc-dsm/manifest/v1","kind":"e9","frobnicate":1}"#,
                "unknown_field",
                "frobnicate",
            ),
            (
                r#"{"schema":"cc-dsm/manifest/v2","kind":"e9"}"#,
                "bad_schema",
                "schema",
            ),
            (
                r#"{"schema":"cc-dsm/manifest/v1","kind":"e99"}"#,
                "unknown_kind",
                "kind",
            ),
            (
                r#"{"schema":"cc-dsm/manifest/v1","kind":"e9","model":"numa"}"#,
                "bad_enum",
                "model",
            ),
            (
                r#"{"schema":"cc-dsm/manifest/v1","kind":"e9","deep":true,"waiters":3}"#,
                "conflicting_fields",
                "deep",
            ),
        ] {
            let e = Manifest::from_json(doc).unwrap_err();
            assert_eq!((e.code, e.field.as_str()), (code, field), "{doc}");
        }
    }
}
