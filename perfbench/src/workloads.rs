//! The benchmark's workloads: what each one runs and why.

use staleload_core::{EngineMode, SimConfig};
use staleload_info::InfoSpec;
use staleload_policies::PolicySpec;

/// Per-server load λ of every workload.
pub const LAMBDA: f64 = 0.9;
/// Board period T of every workload's periodic bulletin board.
pub const PERIOD: f64 = 10.0;
/// Share of each sweep trial's arrivals excluded from measurement.
pub const WARMUP_FRACTION: f64 = 0.1;
/// Simulated time each single-run trial spends warming up before jobs
/// are measured. Started empty at λ = 0.9, the per-server k = 2 and the
/// mean-field Basic LI systems climb for ~75 time units and then swing
/// with a ~5-period cycle; 10 periods of warm-up clear the climb.
pub const WARMUP_TIME: f64 = 10.0 * PERIOD;
/// The steady-state guard's floor on the measured (post-warm-up)
/// simulated horizon, in board periods.
pub const MIN_PERIODS: f64 = 20.0;

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    PaperN100,
    ScaleN4096,
    MeanfieldN65536,
    SweepMixed,
}

impl Workload {
    pub const ALL: [Workload; 4] = [
        Workload::PaperN100,
        Workload::ScaleN4096,
        Workload::MeanfieldN65536,
        Workload::SweepMixed,
    ];

    pub fn name(self) -> &'static str {
        match self {
            Workload::PaperN100 => "paper_n100",
            Workload::ScaleN4096 => "scale_n4096",
            Workload::MeanfieldN65536 => "meanfield_n65536",
            Workload::SweepMixed => "sweep_mixed",
        }
    }

    pub fn parse(name: &str) -> Option<Workload> {
        Workload::ALL.into_iter().find(|w| w.name() == name)
    }

    /// The single simulation a single-run workload repeats, or `None` for
    /// the sweep.
    pub fn single(self) -> Option<SingleRun> {
        // (servers, policy, engine, measured simulated time)
        let (servers, policy, engine, measured) = match self {
            Workload::PaperN100 => (
                100,
                PolicySpec::BasicLi { lambda: LAMBDA },
                EngineMode::PerServer,
                MIN_PERIODS * PERIOD,
            ),
            Workload::ScaleN4096 => (
                4096,
                PolicySpec::KSubset { k: 2 },
                EngineMode::PerServer,
                MIN_PERIODS * PERIOD,
            ),
            Workload::MeanfieldN65536 => (
                65536,
                PolicySpec::BasicLi { lambda: LAMBDA },
                EngineMode::Population,
                MIN_PERIODS * PERIOD,
            ),
            Workload::SweepMixed => return None,
        };
        let rate = LAMBDA * servers as f64;
        Some(SingleRun {
            servers,
            info: InfoSpec::Periodic { period: PERIOD },
            policy,
            engine,
            arrivals: ((WARMUP_TIME + measured) * rate).round() as u64,
            warmup_fraction: WARMUP_TIME / (WARMUP_TIME + measured),
        })
    }
}

/// One workload configuration run trial after trial.
#[derive(Debug, Clone)]
pub struct SingleRun {
    pub servers: usize,
    pub info: InfoSpec,
    pub policy: PolicySpec,
    pub engine: EngineMode,
    /// Arrivals of a timed trial: λn jobs per unit of simulated time over
    /// the warm-up and the measured horizon.
    pub arrivals: u64,
    pub warmup_fraction: f64,
}

impl SingleRun {
    /// The configuration of a trial with `arrivals` jobs and seed `seed`.
    pub fn config(&self, arrivals: u64, seed: u64) -> Result<SimConfig, String> {
        SimConfig::builder()
            .servers(self.servers)
            .lambda(LAMBDA)
            .arrivals(arrivals)
            .warmup_fraction(self.warmup_fraction)
            .engine(self.engine)
            .seed(seed)
            .try_build()
            .map_err(|e| e.to_string())
    }

    /// Whether trials can be replayed bit for bit (per-server engine).
    pub fn replayable(&self) -> bool {
        self.engine == EngineMode::PerServer
    }
}
