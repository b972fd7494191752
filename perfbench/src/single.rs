//! The single-run workloads: one configuration simulated trial after
//! trial through `run_simulation`, timed, then checked.

use std::panic::{catch_unwind, AssertUnwindSafe};
use std::time::Instant;

use staleload_core::{run_simulation, trial_seed, ArrivalSpec, RunResult, SimConfig};
use staleload_sim::SimRng;
use staleload_stats::TailSketch;
use staleload_workloads::AliasTable;

use crate::host::HostSpeed;
use crate::reference::{trial_fields, Reference};
use crate::replay::{replay, Layer, NoTrace, ReplayOut, Spans};
use crate::util::{mean_ci99, median, metric, minimum, quantile};
use crate::workloads::{SingleRun, Workload, MIN_PERIODS, PERIOD};
use crate::Report;

/// Set-ups per run: at least `SETUP_REPS.0`, then more until
/// `SETUP_SECONDS` have passed or `SETUP_REPS.1` are done; `setup_s` is
/// their median.
const SETUP_REPS: (usize, usize) = (5, 101);
const SETUP_SECONDS: f64 = 0.5;
/// Every run times at least this many trials, whatever `--seconds` says.
const MIN_TRIALS: usize = 3;
/// Trials whose outputs are checked by a replay (per-server engine) or a
/// prefix run (population engine) in an untraced run, right after they
/// are timed; their half means feed the steady-state guard. The traced
/// run replays every trial.
const VERIFY_TRIALS: usize = 16;
/// Largest relative gap allowed between the calibrated per-layer split
/// plus residual and the untraced replay (medians, ns/job). Subtracting
/// the calibrated clock cost removes the reads themselves but not the
/// overlap between neighbouring layers that each read forbids, so the
/// split sums above the untraced time: 27–40% at n = 100 and up to 19% at
/// n = 4096 over the runs made when this bound was set.
const SPLIT_BOUND: f64 = 0.6;
/// Largest relative gap allowed between the untraced replay and
/// `run_simulation` on the same trials (medians, ns/job).
const REPLAY_BOUND: f64 = 0.2;
/// Clock marks per calibration of the empty-span cost.
const CALIBRATION_MARKS: u64 = 200_000;

/// Runs one trial through `run_simulation`, turning a returned error or
/// a panic into an error string.
pub fn simulate(spec: &SingleRun, cfg: &SimConfig) -> Result<RunResult, String> {
    let caught = catch_unwind(AssertUnwindSafe(|| {
        run_simulation(cfg, &ArrivalSpec::Poisson, &spec.info, &spec.policy)
    }));
    match caught {
        Ok(Ok(r)) => Ok(r),
        Ok(Err(e)) => Err(format!("SimError: {e}")),
        Err(payload) => Err(format!(
            "panicked: {}",
            payload
                .downcast_ref::<&str>()
                .map(|s| (*s).to_string())
                .or_else(|| payload.downcast_ref::<String>().cloned())
                .unwrap_or_default()
        )),
    }
}

/// Replays one trial, turning an error or a panic into an error string.
fn replay_caught<P: crate::replay::Probe>(
    spec: &SingleRun,
    cfg: &SimConfig,
    probe: &mut P,
) -> Result<ReplayOut, String> {
    match catch_unwind(AssertUnwindSafe(|| {
        replay(cfg, &spec.info, &spec.policy, probe)
    })) {
        Ok(r) => r.map_err(|e| format!("replay: {e}")),
        Err(_) => Err("replay panicked".into()),
    }
}

/// Every job generated is measured or warm-up, and completes.
fn check_conservation(cfg: &SimConfig, r: &RunResult) -> Result<(), String> {
    let warmup = cfg.warmup_jobs();
    let completed: u64 = r.detail.per_server_completed.iter().sum();
    if r.generated != cfg.arrivals
        || r.measured_jobs != cfg.arrivals - warmup
        || completed != r.generated
    {
        return Err(format!(
            "job conservation: generated {} measured {} completed {} for {} arrivals ({} warm-up)",
            r.generated, r.measured_jobs, completed, cfg.arrivals, warmup
        ));
    }
    if !(r.diagnostics.is_empty() && r.mean_response.is_finite() && r.end_time > 0.0) {
        return Err(format!(
            "suspect run: mean {} end {} diagnostics {:?}",
            r.mean_response, r.end_time, r.diagnostics
        ));
    }
    Ok(())
}

/// The replay must reproduce `run_simulation`'s outputs bit for bit.
fn check_bit_identical(r: &RunResult, o: &ReplayOut) -> Result<(), String> {
    let pairs = [
        ("mean", r.mean_response, o.response.mean()),
        (
            "variance",
            r.response.sample_variance(),
            o.response.sample_variance(),
        ),
        (
            "p99",
            r.detail.response_sketch.quantile(0.99),
            o.sketch.quantile(0.99),
        ),
        ("end_time", r.end_time, o.end_time),
        (
            "jobs_in_system",
            r.detail.jobs_in_system.average(r.end_time),
            o.jobs_in_system.average(o.end_time),
        ),
        (
            "histogram_p50",
            r.detail.response_histogram.quantile(0.5),
            o.histogram.quantile(0.5),
        ),
    ];
    for (name, a, b) in pairs {
        if a.to_bits() != b.to_bits() {
            return Err(format!(
                "replay differs on {name}: engine {a:?} replay {b:?}"
            ));
        }
    }
    if r.generated != o.generated || r.measured_jobs != o.response.count() {
        return Err(format!(
            "replay differs on job counts: engine {}/{} replay {}/{}",
            r.generated,
            r.measured_jobs,
            o.generated,
            o.response.count()
        ));
    }
    Ok(())
}

/// Means of the first and second halves of the measured job range.
fn halves(o: &ReplayOut) -> (f64, f64) {
    (
        o.half_sum[0] / o.half_count[0] as f64,
        o.half_sum[1] / o.half_count[1] as f64,
    )
}

/// The population engine has no replay; its first-half mean comes from a
/// prefix run. A trial's first `m` arrivals do not depend on how many
/// follow (routing, service and board refreshes only look back), so a
/// run of `m` arrivals with the same warm-up measures exactly the first
/// half of the full run.
fn prefix_halves(
    spec: &SingleRun,
    cfg: &SimConfig,
    full: &RunResult,
) -> Result<(f64, f64), String> {
    let warmup = cfg.warmup_jobs();
    let mid = warmup + (cfg.arrivals - warmup) / 2;
    let mut prefix = spec.config(mid, cfg.seed)?;
    prefix.warmup_fraction = warmup as f64 / mid as f64;
    while prefix.warmup_jobs() < warmup {
        prefix.warmup_fraction = prefix.warmup_fraction.next_up();
    }
    if prefix.warmup_jobs() != warmup {
        return Err("prefix run cannot reproduce the warm-up cut".into());
    }
    let first = simulate(spec, &prefix)?;
    let n1 = first.measured_jobs as f64;
    let n = full.measured_jobs as f64;
    let second = (full.mean_response * n - first.mean_response * n1) / (n - n1);
    Ok((first.mean_response, second))
}

/// One timed trial and what its checks found.
struct Trial {
    cfg: SimConfig,
    wall_ns: f64,
    /// Simulated jobs and end time, when the trial completed.
    outcome: Option<(u64, f64)>,
    /// First- and second-half mean response, when checked.
    halves: Option<(f64, f64)>,
    /// Problems found by the checks (empty = trial passed).
    errors: Vec<String>,
}

impl Trial {
    fn ns_per_job(&self) -> Option<f64> {
        self.outcome
            .map(|(generated, _)| self.wall_ns / generated as f64)
    }
}

/// The checks every trial gets: job conservation, the steady-state
/// horizon, and for the default seed the pinned outputs.
fn check_trial(
    name: &str,
    k: usize,
    seed: u64,
    cfg: &SimConfig,
    r: &RunResult,
    reference: &Reference,
) -> Vec<String> {
    let mut errors = Vec::new();
    if let Err(e) = check_conservation(cfg, r) {
        errors.push(e);
    }
    let horizon = r.end_time - cfg.warmup_jobs() as f64 / cfg.total_rate();
    if horizon < MIN_PERIODS * PERIOD {
        errors.push(format!(
            "steady state: measures {horizon:.1} time units, under {MIN_PERIODS} board periods"
        ));
    }
    if seed == crate::DEFAULT_SEED {
        if let Err(e) = reference.check(name, &format!("trial{k}"), &trial_fields(r)) {
            errors.push(e);
        }
    }
    errors
}

/// The per-layer split of one traced trial.
#[derive(Default)]
struct Split {
    sim_ns_per_job: f64,
    replay_ns_per_job: f64,
    traced_ns_per_job: f64,
    calibrated_ns_per_job: f64,
    view: f64,
    refresh: f64,
    refresh_calls: f64,
    after_placement: f64,
    select: f64,
    ops_per_job: f64,
    ns_per_op: f64,
    depth_mean: f64,
    admit: f64,
    complete: f64,
    arrival: f64,
    sample: f64,
    metrics_per_job: f64,
    residual_per_job: f64,
}

fn split_of(spans: &Spans, empty_ns: f64, generated: u64, wall_ns: f64) -> Split {
    let cal = |l: Layer| spans.ns[l as usize] as f64 - spans.marks[l as usize] as f64 * empty_ns;
    let per_call = |l: Layer| {
        let m = spans.marks[l as usize];
        if m == 0 {
            0.0
        } else {
            cal(l) / m as f64
        }
    };
    let g = generated as f64;
    let raw: u64 = spans.ns.iter().sum();
    let ops = spans.event_ops.max(1) as f64;
    Split {
        traced_ns_per_job: wall_ns / g,
        calibrated_ns_per_job: (raw as f64 - spans.total_marks() as f64 * empty_ns) / g,
        view: per_call(Layer::View),
        refresh: per_call(Layer::Refresh),
        refresh_calls: spans.marks[Layer::Refresh as usize] as f64,
        after_placement: per_call(Layer::AfterPlacement),
        select: per_call(Layer::Select),
        ops_per_job: spans.event_ops as f64 / g,
        ns_per_op: cal(Layer::Events) / ops,
        depth_mean: spans.event_depth_sum as f64 / ops,
        admit: per_call(Layer::Admit),
        complete: per_call(Layer::Complete),
        arrival: per_call(Layer::Arrival),
        sample: per_call(Layer::Sample),
        metrics_per_job: cal(Layer::Metrics) / g,
        residual_per_job: cal(Layer::Glue) / g,
        ..Split::default()
    }
}

/// Median of one field over the traced trials.
fn med(splits: &[Split], f: impl Fn(&Split) -> f64) -> f64 {
    median(&splits.iter().map(f).collect::<Vec<_>>())
}

fn time_ns(f: impl FnOnce()) -> f64 {
    let t0 = Instant::now();
    f();
    t0.elapsed().as_nanos() as f64
}

/// Population-engine layers, timed through the public calls the engine
/// makes: alias-table builds and draws (`staleload_workloads`) and the
/// per-job metrics recording (`staleload_sim`/`staleload_stats`).
struct PopulationLayers {
    build_ns: f64,
    sample_ns: f64,
    metrics_ns_per_job: f64,
}

fn population_layers(seed: u64, sketch_cap: usize) -> Result<PopulationLayers, String> {
    // Board classes after a refresh at λ = 0.9: queue lengths 0..24 with
    // geometric occupancy, the table shape the engine rebuilds per period.
    let weights: Vec<f64> = (0..24).map(|k| 0.1 * 0.9f64.powi(k)).collect();
    let mut rng = SimRng::from_seed(seed);
    let builds = 20_000;
    let mut build_runs = Vec::new();
    let mut sink = 0usize;
    for _ in 0..5 {
        let mut err = None;
        build_runs.push(
            time_ns(|| {
                for _ in 0..builds {
                    match AliasTable::new(std::hint::black_box(&weights)) {
                        Ok(t) => sink += t.len(),
                        Err(e) => err = Some(e.to_string()),
                    }
                }
            }) / builds as f64,
        );
        if let Some(e) = err {
            return Err(e);
        }
    }
    let table = AliasTable::new(&weights).map_err(|e| e.to_string())?;
    let draws = 1_000_000;
    let mut sample_runs = Vec::new();
    for _ in 0..5 {
        sample_runs.push(
            time_ns(|| {
                for _ in 0..draws {
                    sink += table.sample(&mut rng);
                }
            }) / draws as f64,
        );
    }
    std::hint::black_box(sink);

    // One measured response into the three response recorders plus the
    // two jobs-in-system updates (arrival and departure) of each job.
    let jobs = 1_000_000;
    let values: Vec<f64> = (0..jobs).map(|_| rng.exp(3.8)).collect();
    let mut metric_runs = Vec::new();
    for _ in 0..3 {
        let mut stats = staleload_sim::OnlineStats::new();
        let mut histogram = staleload_sim::Histogram::for_response_times();
        let mut sketch = TailSketch::new(sketch_cap);
        let mut occupancy = staleload_sim::TimeWeighted::new(0.0, 0.0);
        let ns = time_ns(|| {
            let mut t = 0.0;
            for (i, &x) in values.iter().enumerate() {
                stats.record(x);
                histogram.record(x);
                sketch.record(x);
                t += 1e-5;
                occupancy.update(t, (i % 64) as f64);
                occupancy.update(t, (i % 63) as f64);
            }
        });
        std::hint::black_box((stats.mean(), histogram.count(), sketch.count()));
        metric_runs.push(ns / jobs as f64);
    }
    Ok(PopulationLayers {
        build_ns: minimum(&build_runs),
        sample_ns: minimum(&sample_runs),
        metrics_ns_per_job: minimum(&metric_runs),
    })
}

/// Runs a single-run workload and reports its metrics.
pub fn run(
    workload: Workload,
    spec: &SingleRun,
    seed: u64,
    seconds: f64,
    trace: bool,
    reference: &Reference,
) -> Result<Report, String> {
    let name = workload.name();
    // Set-up: configuration build plus an untimed warm-up trial of a
    // twentieth of the timed trial's arrivals, repeated.
    let mut setups = Vec::new();
    let setup_started = Instant::now();
    while setups.len() < SETUP_REPS.0
        || (setups.len() < SETUP_REPS.1 && setup_started.elapsed().as_secs_f64() < SETUP_SECONDS)
    {
        let t0 = Instant::now();
        let cfg = spec.config(
            spec.arrivals / 20,
            trial_seed(seed, 1_000_000 + setups.len()),
        )?;
        simulate(spec, &cfg)?;
        setups.push(t0.elapsed().as_secs_f64());
    }

    let mut trials: Vec<Trial> = Vec::new();
    let mut splits: Vec<Split> = Vec::new();
    let verify_all = trace && spec.replayable();
    // An untraced run spends `seconds` on timed trials and the host-speed
    // samples between them, whatever its checks cost; a traced run stops
    // after `seconds` in all.
    let started = Instant::now();
    let mut timed_s = 0.0;
    let mut host = HostSpeed::default();
    while trials.len() < MIN_TRIALS
        || (if trace {
            started.elapsed().as_secs_f64()
        } else {
            timed_s
        }) < seconds
    {
        let k = trials.len();
        let cfg = spec.config(spec.arrivals, trial_seed(seed, k))?;
        let t0 = Instant::now();
        let result = simulate(spec, &cfg);
        let wall_ns = t0.elapsed().as_nanos() as f64;
        timed_s += wall_ns * 1e-9;
        if !trace {
            timed_s += host.sample_after(1, wall_ns);
        }
        let mut trial = Trial {
            cfg,
            wall_ns,
            outcome: None,
            halves: None,
            errors: Vec::new(),
        };
        match result {
            Err(e) => trial.errors.push(e),
            Ok(r) => {
                trial.outcome = Some((r.generated, r.end_time));
                trial.errors = check_trial(name, k, seed, &trial.cfg, &r, reference);
                if verify_all {
                    let t0 = Instant::now();
                    let untraced = replay_caught(spec, &trial.cfg, &mut NoTrace);
                    let replay_ns = t0.elapsed().as_nanos() as f64;
                    let empty_ns = median(
                        &(0..5)
                            .map(|_| Spans::calibrate(CALIBRATION_MARKS))
                            .collect::<Vec<_>>(),
                    );
                    let mut spans = Spans::new();
                    let t0 = Instant::now();
                    spans.restart();
                    let traced = replay_caught(spec, &trial.cfg, &mut spans);
                    let traced_ns = t0.elapsed().as_nanos() as f64;
                    for out in [&untraced, &traced] {
                        if let Err(e) = out
                            .as_ref()
                            .map_err(String::clone)
                            .and_then(|o| check_bit_identical(&r, o))
                        {
                            trial.errors.push(e);
                        }
                    }
                    if let (Ok(u), Ok(t)) = (&untraced, &traced) {
                        trial.halves = Some(halves(u));
                        let mut split = split_of(&spans, empty_ns, t.generated, traced_ns);
                        split.sim_ns_per_job = wall_ns / r.generated as f64;
                        split.replay_ns_per_job = replay_ns / u.generated as f64;
                        splits.push(split);
                    }
                } else if k < VERIFY_TRIALS {
                    let checked = if spec.replayable() {
                        replay_caught(spec, &trial.cfg, &mut NoTrace).and_then(|o| {
                            check_bit_identical(&r, &o)?;
                            Ok(halves(&o))
                        })
                    } else {
                        prefix_halves(spec, &trial.cfg, &r)
                    };
                    match checked {
                        Ok(h) => trial.halves = Some(h),
                        Err(e) => trial.errors.push(e),
                    }
                }
            }
        }
        trials.push(trial);
    }

    let mut report = Report::new(name, trials.len() as u64);
    report.failed = trials.iter().filter(|t| !t.errors.is_empty()).count() as u64;
    for (k, t) in trials.iter().enumerate() {
        for e in &t.errors {
            report.problem(format!("trial {k}: {e}"));
        }
    }

    // Steady-state guard (the horizon was checked per trial): halves
    // that agree.
    let (first, second): (Vec<f64>, Vec<f64>) = trials.iter().filter_map(|t| t.halves).unzip();
    if first.len() < MIN_TRIALS {
        report.problem(format!(
            "steady state: only {} trials checked for half agreement",
            first.len()
        ));
    } else {
        let (m1, h1) = mean_ci99(&first);
        let (m2, h2) = mean_ci99(&second);
        report.note(format!(
            "steady state: first-half mean {m1:.4} ± {h1:.4}, second-half {m2:.4} ± {h2:.4} (99% CI over {} trials)",
            first.len()
        ));
        if (m1 - m2).abs() > h1 + h2 {
            report.problem(format!(
                "steady state: half means {m1:.4} and {m2:.4} disagree beyond their 99% CIs"
            ));
        }
    }

    let ok: Vec<&Trial> = trials.iter().filter(|t| t.outcome.is_some()).collect();
    let ns_per_job: Vec<f64> = ok.iter().filter_map(|t| t.ns_per_job()).collect();
    let trial_s: Vec<f64> = ok.iter().map(|t| t.wall_ns * 1e-9).collect();
    if ns_per_job.is_empty() {
        return Err(format!("{name}: every trial failed"));
    }
    report.note(format!(
        "ns_per_job over {} trials: median {:.1}, min {:.1}, max {:.1}",
        ns_per_job.len(),
        median(&ns_per_job),
        quantile(&ns_per_job, 0.0),
        quantile(&ns_per_job, 1.0)
    ));

    if !trace {
        // One value per trial in run order, as the host's blocks are.
        let per_trial = |f: fn(&Trial) -> f64| -> Vec<f64> {
            trials
                .iter()
                .map(|t| if t.outcome.is_some() { f(t) } else { f64::NAN })
                .collect()
        };
        let run_ns = per_trial(|t| t.ns_per_job().unwrap_or(f64::NAN));
        let run_s = per_trial(|t| t.wall_ns * 1e-9);
        report.note(host.describe());
        report.note(format!(
            "unscaled: fastest ns_per_job {:.1}, fastest sweep_s {:.6}, setup_s {:.6}",
            minimum(&ns_per_job),
            minimum(&trial_s),
            median(&setups)
        ));
        report.metrics = vec![
            metric("ns_per_job", "ns/job", host.scaled(&run_ns)),
            metric("sweep_s", "s", host.scaled(&run_s)),
            metric("setup_s", "s", median(&setups) * host.factor()),
            metric("peak_rss_mb", "MiB", crate::util::peak_rss_mb()?),
        ];
        return Ok(report);
    }

    let mut m = crate::zero_layers();
    let trial_ms: Vec<f64> = trial_s.iter().map(|s| s * 1e3).collect();
    crate::set(&mut m, "core.trial_ms_p50", quantile(&trial_ms, 0.5));
    crate::set(&mut m, "core.trial_ms_p95", quantile(&trial_ms, 0.95));
    if spec.replayable() {
        if splits.len() < MIN_TRIALS {
            report.problem(format!("only {} traced trials completed", splits.len()));
        }
        // Medians, not the fastest trial: each trial's mark cost is
        // calibrated at a slightly different moment than its traced replay
        // runs, so a single trial can be far off when the host's speed
        // changes in between.
        let layers = med(&splits, |s| s.calibrated_ns_per_job);
        let untraced = med(&splits, |s| s.replay_ns_per_job);
        let engine = med(&splits, |s| s.sim_ns_per_job);
        if (layers - untraced).abs() > SPLIT_BOUND * untraced {
            report.problem(format!(
                "reconciliation: layers + residual {layers:.1} ns/job vs untraced replay {untraced:.1}, beyond {:.0}%",
                SPLIT_BOUND * 100.0
            ));
        }
        if (untraced - engine).abs() > REPLAY_BOUND * engine {
            report.problem(format!(
                "reconciliation: untraced replay {untraced:.1} ns/job vs run_simulation {engine:.1}, beyond {:.0}%",
                REPLAY_BOUND * 100.0
            ));
        }
        report.note(format!(
            "reconciliation: layers + residual {layers:.1} ns/job (bound {:.0}%), untraced replay {untraced:.1} (bound {:.0}%), run_simulation {engine:.1}; medians over {} traced trials",
            SPLIT_BOUND * 100.0,
            REPLAY_BOUND * 100.0,
            splits.len()
        ));
        for (key, f) in [
            (
                "info.view.ns_per_call",
                (|s: &Split| s.view) as fn(&Split) -> f64,
            ),
            ("info.refresh.ns_per_call", |s| s.refresh),
            ("info.refresh.calls", |s| s.refresh_calls),
            ("info.after_placement.ns_per_call", |s| s.after_placement),
            ("policies.select.ns_per_call", |s| s.select),
            ("sim.events.ops_per_job", |s| s.ops_per_job),
            ("sim.events.ns_per_op", |s| s.ns_per_op),
            ("sim.events.depth_mean", |s| s.depth_mean),
            ("cluster.admit.ns_per_call", |s| s.admit),
            ("cluster.complete.ns_per_call", |s| s.complete),
            ("workloads.arrival.ns_per_call", |s| s.arrival),
            ("sim.dist.sample.ns_per_call", |s| s.sample),
            ("core.metrics.ns_per_job", |s| s.metrics_per_job),
            ("engine.residual_ns_per_job", |s| s.residual_per_job),
            ("replay.ns_per_job", |s| s.replay_ns_per_job),
            ("trace.overhead_ns_per_job", |s| {
                s.traced_ns_per_job - s.replay_ns_per_job
            }),
        ] {
            crate::set(&mut m, key, med(&splits, f));
        }
    } else {
        let layers = population_layers(seed, trials[0].cfg.sketch_cap)?;
        let ns = minimum(&ns_per_job);
        let refreshes_per_job = median(
            &ok.iter()
                .filter_map(|t| t.outcome)
                .map(|(generated, end_time)| end_time / PERIOD / generated as f64)
                .collect::<Vec<_>>(),
        );
        let other =
            ns - layers.sample_ns - layers.build_ns * refreshes_per_job - layers.metrics_ns_per_job;
        crate::set(&mut m, "population.alias.build_ns", layers.build_ns);
        crate::set(&mut m, "population.alias.sample_ns", layers.sample_ns);
        crate::set(&mut m, "population.other_ns_per_job", other);
        crate::set(&mut m, "core.metrics.ns_per_job", layers.metrics_ns_per_job);
    }
    report.metrics = m;
    Ok(report)
}
