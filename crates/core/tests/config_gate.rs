//! The config gate: `run_simulation` checks a `SimConfig` whose public
//! fields were edited after `build()`, and the specs it runs with, before
//! either engine starts. Every invalid combination must come back as
//! `SimError::Config` — never a panic, never a run that silently ignores
//! or misreads a knob.

use std::panic::{catch_unwind, AssertUnwindSafe};

use staleload_core::{
    run_simulation, ArrivalSpec, EngineMode, FaultSpec, RetrySpec, SimConfig, SimError,
};
use staleload_info::{AgeKnowledge, DelaySpec, InfoSpec};
use staleload_policies::PolicySpec;
use staleload_sim::Dist;
use staleload_workloads::BurstConfig;

const ENGINES: [EngineMode; 2] = [EngineMode::PerServer, EngineMode::Population];

fn valid(engine: EngineMode) -> SimConfig {
    SimConfig::builder()
        .servers(8)
        .lambda(0.5)
        .arrivals(2_000)
        .engine(engine)
        .seed(3)
        .build()
}

fn periodic() -> InfoSpec {
    InfoSpec::Periodic { period: 4.0 }
}

/// Runs the combination behind `catch_unwind` and demands a typed config
/// error.
fn assert_rejected(
    case: &str,
    cfg: &SimConfig,
    arrivals: &ArrivalSpec,
    info: &InfoSpec,
    policy: &PolicySpec,
) {
    let outcome = catch_unwind(AssertUnwindSafe(|| {
        run_simulation(cfg, arrivals, info, policy)
    }));
    match outcome {
        Ok(Err(SimError::Config(_))) => {}
        Ok(Err(other)) => panic!("{case}: expected a config error, got {other}"),
        Ok(Ok(r)) => panic!(
            "{case}: expected a config error, but the run finished ({} jobs measured)",
            r.measured_jobs
        ),
        Err(_) => panic!("{case}: run_simulation panicked instead of returning a config error"),
    }
}

/// One field of a built config changed afterwards; each edit breaks a
/// rule on every engine.
#[allow(clippy::type_complexity)] // a table of (label, edit) rows
fn field_edits() -> Vec<(&'static str, Box<dyn Fn(&mut SimConfig)>)> {
    vec![
        ("servers = 0", Box::new(|c| c.servers = 0)),
        ("lambda = NaN", Box::new(|c| c.lambda = f64::NAN)),
        ("lambda = -1", Box::new(|c| c.lambda = -1.0)),
        ("sketch_cap = 0", Box::new(|c| c.sketch_cap = 0)),
        ("queue_cap = Some(0)", Box::new(|c| c.queue_cap = Some(0))),
        (
            "capacities all zero",
            Box::new(|c| c.capacities = Some(vec![0.0; c.servers])),
        ),
        (
            "capacities length != servers",
            Box::new(|c| c.capacities = Some(vec![1.0; c.servers + 3])),
        ),
        (
            "warmup_fraction = 1.5",
            Box::new(|c| c.warmup_fraction = 1.5),
        ),
        ("arrivals = 0", Box::new(|c| c.arrivals = 0)),
        (
            "work_stealing = Some(0)",
            Box::new(|c| c.work_stealing = Some(0)),
        ),
        (
            "work_stealing = Some(1)",
            Box::new(|c| c.work_stealing = Some(1)),
        ),
        (
            "deadline = Some(NaN)",
            Box::new(|c| c.deadline = Some(f64::NAN)),
        ),
        (
            "retry without a cap or deadline",
            Box::new(|c| {
                c.retry = Some(RetrySpec {
                    max_attempts: 3,
                    base: 0.5,
                    cap: 10.0,
                })
            }),
        ),
    ]
}

#[test]
fn edited_fields_are_config_errors_on_both_engines() {
    for engine in ENGINES {
        for (case, edit) in field_edits() {
            let mut cfg = valid(engine);
            edit(&mut cfg);
            assert_rejected(
                &format!("{engine}: {case}"),
                &cfg,
                &ArrivalSpec::Poisson,
                &periodic(),
                &PolicySpec::BasicLi { lambda: 0.5 },
            );
        }
    }
}

#[test]
fn per_server_knobs_are_config_errors_on_the_population_engine() {
    #[allow(clippy::type_complexity)] // a table of (label, edit) rows
    let edits: Vec<(&str, Box<dyn Fn(&mut SimConfig)>)> = vec![
        (
            "valid capacities",
            Box::new(|c| c.capacities = Some(vec![1.0; c.servers])),
        ),
        ("work stealing", Box::new(|c| c.work_stealing = Some(2))),
        ("queue cap", Box::new(|c| c.queue_cap = Some(4))),
        (
            "crash faults",
            Box::new(|c| c.faults = FaultSpec::crash(100.0, 10.0)),
        ),
        (
            "deterministic service",
            Box::new(|c| c.service = Dist::constant(1.0)),
        ),
    ];
    for (case, edit) in edits {
        let mut cfg = valid(EngineMode::Population);
        edit(&mut cfg);
        assert_rejected(
            case,
            &cfg,
            &ArrivalSpec::Poisson,
            &periodic(),
            &PolicySpec::Random,
        );
    }
}

#[test]
fn cross_spec_combinations_are_config_errors() {
    let hedged = PolicySpec::Hedged {
        h: 2,
        inner: Box::new(PolicySpec::BasicLi { lambda: 0.5 }),
    };
    let per_server = valid(EngineMode::PerServer);
    let population = valid(EngineMode::Population);
    let mut capped = per_server.clone();
    capped.queue_cap = Some(4);
    let mut stealing = per_server.clone();
    stealing.work_stealing = Some(2);
    let mut crashy = per_server.clone();
    crashy.faults = FaultSpec::crash(100.0, 10.0);
    let mut lossy = per_server.clone();
    lossy.faults = "drop:0.3".parse().expect("fault grammar");
    let continuous = InfoSpec::Continuous {
        delay: DelaySpec::Exponential { mean: 2.0 },
        knowledge: AgeKnowledge::MeanOnly,
    };
    let bursty = ArrivalSpec::BurstyClients {
        clients: 16,
        burst: BurstConfig {
            burst_len: 5,
            intra_gap_mean: 1.0,
        },
    };
    let li = PolicySpec::BasicLi { lambda: 0.5 };
    let cases: [(&str, &SimConfig, ArrivalSpec, InfoSpec, PolicySpec); 8] = [
        (
            "hedge with queue cap",
            &capped,
            ArrivalSpec::Poisson,
            periodic(),
            hedged.clone(),
        ),
        (
            "hedge with stealing",
            &stealing,
            ArrivalSpec::Poisson,
            periodic(),
            hedged.clone(),
        ),
        (
            "hedge with crash",
            &crashy,
            ArrivalSpec::Poisson,
            periodic(),
            hedged,
        ),
        (
            "drop:0.3 on continuous info",
            &lossy,
            ArrivalSpec::Poisson,
            continuous,
            li.clone(),
        ),
        (
            "zero clients",
            &per_server,
            ArrivalSpec::PoissonClients { clients: 0 },
            InfoSpec::UpdateOnAccess,
            li.clone(),
        ),
        (
            "population with uoa info",
            &population,
            ArrivalSpec::Poisson,
            InfoSpec::UpdateOnAccess,
            PolicySpec::Random,
        ),
        (
            "population with aggressive-li",
            &population,
            ArrivalSpec::Poisson,
            periodic(),
            PolicySpec::AggressiveLi { lambda: 0.5 },
        ),
        (
            "population with bursty clients",
            &population,
            bursty,
            periodic(),
            li,
        ),
    ];
    for (case, cfg, arrivals, info, policy) in &cases {
        assert_rejected(case, cfg, arrivals, info, policy);
    }
}

#[test]
fn valid_configs_run_and_conserve_jobs() {
    for engine in ENGINES {
        let cfg = valid(engine);
        let r = run_simulation(
            &cfg,
            &ArrivalSpec::Poisson,
            &periodic(),
            &PolicySpec::BasicLi { lambda: 0.5 },
        )
        .unwrap_or_else(|e| panic!("{engine}: valid config rejected: {e}"));
        assert_eq!(r.generated, cfg.arrivals, "{engine}");
        assert_eq!(
            r.measured_jobs,
            cfg.arrivals - cfg.warmup_jobs(),
            "{engine}"
        );
        assert_eq!(r.response.count(), r.measured_jobs, "{engine}");
        assert!(r.mean_response >= 0.5, "{engine}: mean {}", r.mean_response);
    }
}
