//! Exactness contract of the RMR metrics: the counters `shm-obs` collects
//! are not approximations. A flushed run's `sim.rmr` / `sim.inval` cells
//! must equal the simulator's own `Totals` and per-process stats exactly,
//! and the audit's `audit.rmr` charges must equal an independent re-pricing
//! of the same execution under each standard cost model.

use shm_sim::{CcConfig, CostModel, Interconnect, ProcId, Protocol, Scripted, SimSpec, Simulator};
use signaling::algorithms::CcFlag;
use signaling::{Role, Scenario};
use std::sync::Mutex;

/// The installed obs collector is process-global; tests installing collectors
/// must not overlap.
static OBS_LOCK: Mutex<()> = Mutex::new(());

/// A small poll-heavy signaling run (3 waiters + signaler) under `model`,
/// returning the finished simulator and its spec (for auditing).
fn poll_run(model: CostModel) -> (Simulator, SimSpec) {
    let n_waiters = 3u32;
    let mut roles = vec![Role::waiter(); n_waiters as usize];
    roles.push(Role::signaler());
    let scenario = Scenario {
        algorithm: &CcFlag,
        roles,
        model,
    };
    let spec: SimSpec = scenario.build();
    let mut sim = Simulator::new(&spec);
    let mut order = Vec::new();
    for _ in 0..5 {
        for w in 0..n_waiters {
            order.extend(std::iter::repeat_n(ProcId(w), 10));
        }
    }
    for p in 0..=n_waiters {
        order.extend(std::iter::repeat_n(ProcId(p), 4 * n_waiters as usize + 16));
    }
    for w in 0..n_waiters {
        order.extend(std::iter::repeat_n(ProcId(w), 12));
    }
    let mut sched = Scripted::new(order);
    shm_sim::run(&mut sim, &mut sched, 1_000_000);
    (sim, spec)
}

#[test]
fn flushed_rmr_metrics_match_simulator_totals_exactly() {
    let _guard = OBS_LOCK.lock().unwrap();
    let c = shm_obs::Collector::new();
    shm_obs::install_collector(&c);
    let (sim, _spec) = poll_run(CostModel::cc_default());
    sim.obs_flush("t");
    shm_obs::uninstall();
    let report = shm_obs::MetricsReport::from_snapshot(&c.snapshot());

    let totals = sim.totals();
    assert_eq!(report.total("sim.rmr"), totals.rmrs);
    assert_eq!(report.total("sim.inval"), totals.invalidations);
    assert_eq!(report.scoped("sim.rmr", "t"), totals.rmrs);
    let accesses = sim
        .history()
        .events()
        .filter(|e| matches!(e, shm_sim::Event::Access { .. }))
        .count() as u64;
    assert_eq!(
        report.total("sim.rmr") + report.total("sim.local"),
        accesses,
        "every surviving access is attributed, RMR or local"
    );

    let by_proc = report.by_process("sim.rmr");
    for p in 0..=3u32 {
        assert_eq!(
            by_proc.get(&p).copied().unwrap_or(0),
            sim.proc_stats(ProcId(p)).rmrs,
            "per-process attribution for p{p}"
        );
    }
    let by_loc_sum: u64 = report.by_location("sim.rmr").values().sum();
    assert_eq!(
        by_loc_sum, totals.rmrs,
        "per-location cells partition the total"
    );

    // The whole run was priced under one model, so the per-model view has
    // exactly one cell holding the full total.
    let by_model = report.by_model("sim.rmr");
    let tag = shm_sim::model_tag(CostModel::cc_default());
    assert_eq!(by_model.get(tag).copied(), Some(totals.rmrs));
    assert_eq!(by_model.len(), 1);
}

#[test]
fn audit_rmr_charges_match_independent_repricing() {
    let _guard = OBS_LOCK.lock().unwrap();
    let c = shm_obs::Collector::new();
    shm_obs::install_collector(&c);
    let (sim, spec) = poll_run(CostModel::Dsm);
    let audit = sim.audit(&spec);
    shm_obs::uninstall();
    assert!(audit.is_clean(), "{}", audit.to_json());
    let report = shm_obs::MetricsReport::from_snapshot(&c.snapshot());
    let charges = report.by_model("audit.rmr");
    assert_eq!(
        charges.len(),
        4,
        "one charge per standard model: {charges:?}"
    );

    // For the recording's own model the walk's charge must equal the
    // simulator's own total.
    assert_eq!(charges.get("dsm").copied(), Some(sim.totals().rmrs));

    // For the cross-priced models the charge must equal what an independent
    // simulation of the identical schedule costs under that model (cost
    // models never change execution, only pricing).
    for model in [
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
    ] {
        let tag = shm_sim::model_tag(model);
        let (repriced, _) = poll_run(model);
        assert_eq!(
            charges.get(tag).copied(),
            Some(repriced.totals().rmrs),
            "audit charge under {tag}"
        );
    }
}
