//! The `sweep_mixed` workload: a fixed grid of experiment points run
//! through `SweepRunner::run_batch` on two workers with an on-disk result
//! cache, a sweep journal and a per-trial watchdog, the way the figure
//! binaries configure the runner. Each pass starts from an empty
//! directory (a cold sweep, timed) and is then run again (a warm pass that
//! must be served entirely from the cache, bit for bit).

use std::path::{Path, PathBuf};
use std::sync::Arc;
use std::time::{Duration, Instant};

use staleload_core::{
    clients_for_mean_age, trial_seed, ArrivalSpec, Experiment, ExperimentResult, FaultSpec,
    RetrySpec, SimConfig, TrialOutcome,
};
use staleload_info::{AgeKnowledge, DelaySpec, InfoSpec};
use staleload_policies::PolicySpec;
use staleload_runner::{
    experiment_key, run_guarded, ResultCache, SweepJournal, SweepRunner, WatchdogSpec, WorkerPool,
};

use crate::host::HostSpeed;
use crate::reference::Reference;
use crate::util::{median, metric, minimum, quantile};
use crate::workloads::{LAMBDA, PERIOD, WARMUP_FRACTION};
use crate::Report;

/// Pool size: the runner never has more than two simulations in flight.
const WORKERS: usize = 2;
/// Trials per grid point.
const TRIALS: usize = 8;
/// Arrivals per trial.
const ARRIVALS: u64 = 1_000;
/// Every run makes at least this many cold passes.
const MIN_PASSES: usize = 3;

/// The grid's rows: an information model at a cluster size.
fn rows() -> Vec<(InfoSpec, usize, ArrivalSpec)> {
    vec![
        (
            InfoSpec::Periodic { period: PERIOD },
            100,
            ArrivalSpec::Poisson,
        ),
        (
            InfoSpec::Continuous {
                delay: DelaySpec::Exponential { mean: PERIOD },
                knowledge: AgeKnowledge::Actual,
            },
            64,
            ArrivalSpec::Poisson,
        ),
        (
            InfoSpec::UpdateOnAccess,
            32,
            ArrivalSpec::PoissonClients {
                clients: clients_for_mean_age(LAMBDA, 32, PERIOD),
            },
        ),
        (
            InfoSpec::Individual { period: PERIOD },
            64,
            ArrivalSpec::Poisson,
        ),
    ]
}

/// The grid: every row crossed with four policies, a crash (+ dropped
/// updates where the model has an update channel) column and a
/// queue-cap + deadline + retry column. Point `i` is seeded from the
/// workload seed and `i`.
pub fn grid(seed: u64) -> Result<Vec<Experiment>, String> {
    let li = PolicySpec::BasicLi { lambda: LAMBDA };
    let mut points = Vec::new();
    for (info, servers, arrivals) in rows() {
        let columns: Vec<(PolicySpec, &str)> = vec![
            (PolicySpec::Random, "clean"),
            (PolicySpec::KSubset { k: 2 }, "clean"),
            (li.clone(), "clean"),
            (
                PolicySpec::Gated {
                    cutoff: 2.5 * PERIOD,
                    inner: Box::new(li.clone()),
                },
                "clean",
            ),
            (li.clone(), "faults"),
            (li.clone(), "overload"),
        ];
        for (policy, column) in columns {
            let mut builder = SimConfig::builder();
            builder
                .servers(servers)
                .lambda(LAMBDA)
                .arrivals(ARRIVALS)
                .warmup_fraction(WARMUP_FRACTION)
                .seed(trial_seed(seed, points.len()));
            match column {
                "faults" => {
                    let faults = if info.supports_loss() {
                        "crash:500:20,drop:0.3"
                    } else {
                        "crash:500:20"
                    };
                    builder.faults(faults.parse::<FaultSpec>().map_err(|e| e.to_string())?);
                }
                "overload" => {
                    builder.queue_cap(8).deadline(20.0).retry(RetrySpec {
                        max_attempts: 3,
                        base: 1.0,
                        cap: 30.0,
                    });
                }
                _ => {}
            }
            let config = builder.try_build().map_err(|e| e.to_string())?;
            points.push(Experiment::new(config, arrivals, info, policy, TRIALS));
        }
    }
    Ok(points)
}

/// The watchdog budget the figure binaries derive for this trial size:
/// 60 s of slack plus 1 ms per arrival.
fn watchdog() -> WatchdogSpec {
    WatchdogSpec::with_budget(Duration::from_secs(60) + Duration::from_millis(ARRIVALS))
}

/// A runner over a fresh cache and journal in `dir`.
fn open_runner(dir: &Path) -> Result<SweepRunner, String> {
    std::fs::create_dir_all(dir).map_err(|e| format!("cannot create {}: {e}", dir.display()))?;
    let cache = ResultCache::open(dir).map_err(|e| format!("cache open: {e}"))?;
    let journal = SweepJournal::open(dir).map_err(|e| format!("journal open: {e}"))?;
    let mut runner = SweepRunner::new(WorkerPool::new(WORKERS), cache);
    runner.set_journal(journal);
    runner.set_watchdog(Some(watchdog()));
    Ok(runner)
}

/// The reference line of one point: every trial mean, the merged p99 and
/// the measured job count.
pub fn point_fields(r: &ExperimentResult) -> String {
    let means: Vec<String> = r.trial_means.iter().map(|m| format!("{m:?}")).collect();
    format!(
        "means={}\tp99={:?}\tcount={}",
        means.join(","),
        r.tail.p99,
        r.tail.count
    )
}

/// Removes a directory this run created; failure to clean up is reported,
/// not fatal.
fn remove(dir: &Path, report: &mut Report) {
    if let Err(e) = std::fs::remove_dir_all(dir) {
        report.note(format!("could not remove {}: {e}", dir.display()));
    }
}

struct Pass {
    setup_s: f64,
    cold_s: f64,
    warm_s: f64,
    measured_jobs: u64,
    hit_ratio: f64,
}

/// One cold + warm pass in `dir`. Problems are charged to `failed`
/// trials of the points they concern.
fn pass(
    seed: u64,
    dir: &Path,
    baseline: &mut Option<Vec<String>>,
    reference: &Reference,
    report: &mut Report,
) -> Result<Pass, String> {
    let t0 = Instant::now();
    let points = grid(seed)?;
    let mut runner = open_runner(dir)?;
    // Untimed warm-up: one trial of every point on the pool, outside the
    // cache and journal, so lazy start-up costs land in set-up.
    let warm_points = Arc::new(points.clone());
    let warmed = runner.run_map(points.len(), move |i| {
        matches!(warm_points[i].run_trial(TRIALS), TrialOutcome::Ok { .. })
    });
    if warmed.iter().any(|ok| !ok) {
        return Err("a warm-up trial failed".into());
    }
    let setup_s = t0.elapsed().as_secs_f64();

    let t0 = Instant::now();
    let cold = runner.run_batch(&points);
    let cold_s = t0.elapsed().as_secs_f64();
    let cold_acct = runner.take_accounting();
    let t0 = Instant::now();
    let warm = runner.run_batch(&points);
    let warm_s = t0.elapsed().as_secs_f64();
    let warm_acct = runner.take_accounting();
    drop(runner);

    report.attempted += (points.len() * TRIALS) as u64;
    let mut fields = Vec::new();
    let mut measured_jobs = 0;
    for (i, (c, w)) in cold.iter().zip(&warm).enumerate() {
        let mut errors = Vec::new();
        let mut failed_trials = TRIALS;
        match c {
            Err(e) => errors.push(format!("cold pass: {e}")),
            Ok(r) => {
                failed_trials = r.failures.len();
                for f in &r.failures {
                    errors.push(format!("trial {} failed: {}", f.trial, f.error));
                }
                if !r.diagnostics.is_empty() {
                    errors.push(format!("diagnostics: {:?}", r.diagnostics));
                }
                measured_jobs += r.tail.count;
                let line = point_fields(r);
                match w {
                    Ok(wr) if point_fields(wr) == line => {}
                    _ => errors.push("warm pass differs from the cold pass".into()),
                }
                if let Some(first) = baseline.as_ref() {
                    if first[i] != line {
                        errors.push("differs from this run's first pass".into());
                    }
                }
                if seed == crate::DEFAULT_SEED {
                    if let Err(e) = reference.check("sweep_mixed", &format!("point{i}"), &line) {
                        errors.push(e);
                    }
                }
                fields.push(line);
            }
        }
        if !errors.is_empty() {
            report.failed += failed_trials.max(1) as u64;
            for e in errors {
                report.problem(format!("point {i}: {e}"));
            }
        }
    }
    if cold_acct.hits != 0 || cold_acct.misses != points.len() as u64 {
        report.problem(format!(
            "cold pass: {} hits, {} misses over {} points in an empty cache",
            cold_acct.hits,
            cold_acct.misses,
            points.len()
        ));
    }
    if warm_acct.misses != 0 || warm_acct.hits != points.len() as u64 {
        report.problem(format!(
            "warm pass: {} hits, {} misses over {} points; expected all hits",
            warm_acct.hits,
            warm_acct.misses,
            points.len()
        ));
    }
    if baseline.is_none() && fields.len() == points.len() {
        *baseline = Some(fields);
    }
    let lookups = (warm_acct.hits + warm_acct.misses).max(1);
    Ok(Pass {
        setup_s,
        cold_s,
        warm_s,
        measured_jobs,
        hit_ratio: warm_acct.hits as f64 / lookups as f64,
    })
}

/// Layer costs of the runner and of single trials, timed through the
/// runner's and the core's public calls in `dir`.
fn runner_layers(
    seed: u64,
    dir: &Path,
    sweep_s: f64,
    m: &mut [crate::util::Metric],
) -> Result<(), String> {
    let points = Arc::new(grid(seed)?);
    let tasks: Vec<(usize, usize)> = (0..points.len())
        .flat_map(|p| (0..TRIALS).map(move |t| (p, t)))
        .collect();
    let runner = SweepRunner::new(WorkerPool::new(WORKERS), ResultCache::disabled());
    let shared = Arc::clone(&points);
    let task_list = Arc::new(tasks.clone());
    let t0 = Instant::now();
    let timed: Vec<(f64, TrialOutcome)> = runner.run_map(tasks.len(), move |i| {
        let (p, trial) = task_list[i];
        let t0 = Instant::now();
        let outcome = shared[p].run_trial(trial);
        (t0.elapsed().as_nanos() as f64, outcome)
    });
    let wall_ns = t0.elapsed().as_nanos() as f64;
    drop(runner);
    let busy_ns: f64 = timed.iter().map(|(ns, _)| ns).sum();
    let trial_ms: Vec<f64> = timed.iter().map(|(ns, _)| ns * 1e-6).collect();
    crate::set(
        m,
        "runner.pool.busy_frac",
        busy_ns / (WORKERS as f64 * wall_ns),
    );
    crate::set(
        m,
        "runner.overhead_frac",
        (sweep_s - busy_ns * 1e-9 / WORKERS as f64) / sweep_s,
    );
    crate::set(m, "core.trial_ms_p50", quantile(&trial_ms, 0.5));
    crate::set(m, "core.trial_ms_p95", quantile(&trial_ms, 0.95));

    // Journal records of every trial outcome, into a fresh journal.
    let journal_dir = dir.join("journal");
    std::fs::create_dir_all(&journal_dir).map_err(|e| e.to_string())?;
    let journal = SweepJournal::open(&journal_dir).map_err(|e| format!("journal open: {e}"))?;
    let t0 = Instant::now();
    for (&(p, trial), (_, outcome)) in tasks.iter().zip(&timed) {
        journal.record(experiment_key(&points[p]), trial, outcome);
    }
    crate::set(
        m,
        "runner.journal.record_ns",
        t0.elapsed().as_nanos() as f64 / tasks.len() as f64,
    );
    drop(journal);

    // Cache puts of every point's aggregate, then gets after a reopen.
    let mut outcomes: Vec<Vec<TrialOutcome>> = vec![Vec::new(); points.len()];
    for (&(p, _), (_, outcome)) in tasks.iter().zip(timed) {
        outcomes[p].push(outcome);
    }
    let results: Vec<ExperimentResult> = points
        .iter()
        .zip(outcomes)
        .map(|(e, o)| e.aggregate(o).map_err(|e| e.to_string()))
        .collect::<Result<_, _>>()?;
    let cache_dir = dir.join("cache");
    std::fs::create_dir_all(&cache_dir).map_err(|e| e.to_string())?;
    let keys: Vec<_> = points.iter().map(experiment_key).collect();
    let mut cache = ResultCache::open(&cache_dir).map_err(|e| format!("cache open: {e}"))?;
    let t0 = Instant::now();
    for (key, r) in keys.iter().zip(&results) {
        cache.put(*key, r);
    }
    let put_ns = t0.elapsed().as_nanos() as f64 / keys.len() as f64;
    drop(cache);
    let mut cache = ResultCache::open(&cache_dir).map_err(|e| format!("cache reopen: {e}"))?;
    let t0 = Instant::now();
    let hits = keys.iter().filter(|k| cache.get(**k).is_some()).count();
    let get_ns = t0.elapsed().as_nanos() as f64 / keys.len() as f64;
    if hits != keys.len() {
        return Err(format!(
            "cache reopen served {hits} of {} points",
            keys.len()
        ));
    }
    crate::set(m, "runner.cache.put_ns", put_ns);
    crate::set(m, "runner.cache.get_ns", get_ns);

    // The watchdog's cost per guarded trial: a guard thread, a channel
    // and a timed receive around a body that does nothing.
    let spec = watchdog();
    let calls = 200;
    let t0 = Instant::now();
    for i in 0..calls {
        let guarded = run_guarded(&spec, i, move || std::hint::black_box(i));
        if guarded.outcome != Some(i) {
            return Err("watchdog lost a trivial outcome".into());
        }
    }
    crate::set(
        m,
        "runner.watchdog.ns_per_trial",
        t0.elapsed().as_nanos() as f64 / calls as f64,
    );
    Ok(())
}

/// Runs `sweep_mixed` and reports its metrics.
pub fn run(
    seed: u64,
    seconds: f64,
    trace: bool,
    work: &Path,
    reference: &Reference,
) -> Result<Report, String> {
    let mut report = Report::new("sweep_mixed", 0);
    let mut baseline = None;
    let mut passes = Vec::new();
    let started = Instant::now();
    let min_passes = if trace { 1 } else { MIN_PASSES };
    let mut host = HostSpeed::default();
    while passes.len() < min_passes || (!trace && started.elapsed().as_secs_f64() < seconds) {
        let dir: PathBuf = work.join(format!("pass{}", passes.len()));
        let result = pass(seed, &dir, &mut baseline, reference, &mut report);
        remove(&dir, &mut report);
        let result = result?;
        if !trace {
            host.sample_after(WORKERS, result.cold_s * 1e9);
        }
        passes.push(result);
    }
    let cold_s: Vec<f64> = passes.iter().map(|p| p.cold_s).collect();
    let sweep_s = minimum(&cold_s);
    let jobs = passes[0].measured_jobs.max(1) as f64;
    report.note(format!(
        "{} cold passes of {} points x {TRIALS} trials on {WORKERS} workers: sweep_s min {sweep_s:.3}, median {:.3}, max {:.3}",
        passes.len(),
        grid(seed)?.len(),
        median(&cold_s),
        quantile(&cold_s, 1.0),
    ));
    if !trace {
        let scaled_s = host.scaled(&cold_s);
        let setup_s = median(&passes.iter().map(|p| p.setup_s).collect::<Vec<_>>());
        report.note(host.describe());
        report.note(format!(
            "unscaled: fastest ns_per_job {:.1}, fastest sweep_s {sweep_s:.6}, setup_s {setup_s:.6}",
            sweep_s * 1e9 / jobs
        ));
        report.metrics = vec![
            metric("ns_per_job", "ns/job", scaled_s * 1e9 / jobs),
            metric("sweep_s", "s", scaled_s),
            metric("setup_s", "s", setup_s * host.factor()),
            metric("peak_rss_mb", "MiB", crate::util::peak_rss_mb()?),
        ];
        return Ok(report);
    }
    let mut m = crate::zero_layers();
    crate::set(&mut m, "runner.warm_s", passes[0].warm_s);
    crate::set(&mut m, "runner.cache.hit_ratio", passes[0].hit_ratio);
    let dir = work.join("layers");
    let result = runner_layers(seed, &dir, sweep_s, &mut m);
    remove(&dir, &mut report);
    result?;
    report.metrics = m;
    Ok(report)
}
