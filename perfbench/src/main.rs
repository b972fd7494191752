//! The staleload performance benchmark.
//!
//! ```text
//! cargo run --release --offline --manifest-path perfbench/Cargo.toml -- \
//!     --workload <paper_n100|scale_n4096|meanfield_n65536|sweep_mixed> \
//!     --seed <n> --seconds <s> --trace <0|1>
//! ```
//!
//! Run from the repository root. `--trace 0` prints the end-to-end
//! metrics, `--trace 1` the per-layer split; both check the simulated
//! outputs. The last line of standard output is one JSON object with
//! `correct`, `attempted`, `failed` and `metrics`; the lines before it,
//! prefixed `#`, carry the environment stamp, notes and any problems.
//! `--pin` instead prints the reference lines of the default seed (see
//! README.md). Workloads, metrics and layers are described in README.md.

#![forbid(unsafe_code)]

mod host;
mod reference;
mod replay;
mod single;
mod sweep;
mod util;
mod workloads;

use std::path::PathBuf;
use std::process::ExitCode;

use staleload_core::trial_seed;
use util::{metric, Metric};
use workloads::Workload;

/// The seed whose outputs `reference.tsv` pins.
pub const DEFAULT_SEED: u64 = 1;

/// Every per-layer metric with its unit, in report order.
const LAYER_METRICS: [(&str, &str); 29] = [
    ("info.view.ns_per_call", "ns/call"),
    ("info.refresh.ns_per_call", "ns/call"),
    ("info.refresh.calls", "count"),
    ("info.after_placement.ns_per_call", "ns/call"),
    ("policies.select.ns_per_call", "ns/call"),
    ("sim.events.ops_per_job", "ops/job"),
    ("sim.events.ns_per_op", "ns/op"),
    ("sim.events.depth_mean", "events"),
    ("cluster.admit.ns_per_call", "ns/call"),
    ("cluster.complete.ns_per_call", "ns/call"),
    ("workloads.arrival.ns_per_call", "ns/call"),
    ("sim.dist.sample.ns_per_call", "ns/call"),
    ("core.metrics.ns_per_job", "ns/job"),
    ("population.alias.build_ns", "ns/build"),
    ("population.alias.sample_ns", "ns/draw"),
    ("population.other_ns_per_job", "ns/job"),
    ("runner.pool.busy_frac", "ratio"),
    ("runner.overhead_frac", "ratio"),
    ("runner.cache.put_ns", "ns/put"),
    ("runner.cache.get_ns", "ns/get"),
    ("runner.cache.hit_ratio", "ratio"),
    ("runner.journal.record_ns", "ns/record"),
    ("runner.watchdog.ns_per_trial", "ns/trial"),
    ("runner.warm_s", "s"),
    ("core.trial_ms_p50", "ms"),
    ("core.trial_ms_p95", "ms"),
    ("engine.residual_ns_per_job", "ns/job"),
    ("trace.overhead_ns_per_job", "ns/job"),
    ("replay.ns_per_job", "ns/job"),
];

/// Every per-layer metric at 0: a layer the workload never calls.
pub fn zero_layers() -> Vec<Metric> {
    LAYER_METRICS
        .iter()
        .map(|&(name, unit)| metric(name, unit, 0.0))
        .collect()
}

/// Sets the per-layer metric `name`.
pub fn set(metrics: &mut [Metric], name: &str, value: f64) {
    if let Some(m) = metrics.iter_mut().find(|m| m.name == name) {
        m.value = value;
    }
}

/// What one run found: its metrics, and the checks' verdicts.
pub struct Report {
    pub workload: &'static str,
    pub attempted: u64,
    pub failed: u64,
    pub metrics: Vec<Metric>,
    notes: Vec<String>,
    problems: Vec<String>,
}

impl Report {
    pub fn new(workload: &'static str, attempted: u64) -> Self {
        Self {
            workload,
            attempted,
            failed: 0,
            metrics: Vec::new(),
            notes: Vec::new(),
            problems: Vec::new(),
        }
    }

    pub fn note(&mut self, line: String) {
        self.notes.push(line);
    }

    /// Records a failed check: the run is reported as not correct.
    pub fn problem(&mut self, line: String) {
        self.problems.push(line);
    }

    fn print(&self, env: &str) {
        println!("# env {env}");
        for n in &self.notes {
            println!("# {n}");
        }
        for p in &self.problems {
            println!("# FAIL {p}");
        }
        let frac = self.failed as f64 / self.attempted.max(1) as f64;
        println!(
            "# {}: failed_frac {frac} ({} of {} trials)",
            self.workload, self.failed, self.attempted
        );
        for m in &self.metrics {
            println!("# {} = {} {}", m.name, m.value, m.unit);
        }
        let finite = self.metrics.iter().all(|m| m.value.is_finite());
        let correct = self.problems.is_empty() && self.failed == 0 && finite;
        let shown: Vec<Metric> = self
            .metrics
            .iter()
            .map(|m| {
                metric(
                    m.name,
                    m.unit,
                    if m.value.is_finite() { m.value } else { 0.0 },
                )
            })
            .collect();
        println!(
            "{}",
            util::result_line(correct, self.attempted.max(1), self.failed, &shown)
        );
    }
}

struct Args {
    workload: Workload,
    seed: u64,
    seconds: f64,
    trace: bool,
    pin: bool,
}

const USAGE: &str =
    "usage: perfbench --workload <paper_n100|scale_n4096|meanfield_n65536|sweep_mixed> \
                     --seed <n> --seconds <s> --trace <0|1> [--pin]";

fn parse_args() -> Result<Args, String> {
    let mut workload = None;
    let mut seed = DEFAULT_SEED;
    let mut seconds = 10.0;
    let mut trace = false;
    let mut pin = false;
    let mut args = std::env::args().skip(1);
    while let Some(flag) = args.next() {
        if flag == "--pin" {
            pin = true;
            continue;
        }
        let value = args.next().ok_or(format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--workload" => {
                workload =
                    Some(Workload::parse(&value).ok_or(format!("unknown workload {value:?}"))?);
            }
            "--seed" => seed = value.parse().map_err(|_| format!("bad seed {value:?}"))?,
            "--seconds" => {
                seconds = value
                    .parse::<f64>()
                    .ok()
                    .filter(|s| s.is_finite() && *s > 0.0)
                    .ok_or(format!("bad seconds {value:?}"))?;
            }
            "--trace" => {
                trace = match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(format!("bad trace {value:?}")),
                }
            }
            _ => return Err(format!("unknown argument {flag:?}")),
        }
    }
    Ok(Args {
        workload: workload.ok_or("--workload is required")?,
        seed,
        seconds,
        trace,
        pin,
    })
}

/// Prints the reference lines of the default seed for one workload.
fn pin(workload: Workload) -> Result<(), String> {
    match workload.single() {
        Some(spec) => {
            let trials = match workload {
                Workload::PaperN100 => 2048,
                Workload::ScaleN4096 => 32,
                _ => 16,
            };
            for k in 0..trials {
                let cfg = spec.config(spec.arrivals, trial_seed(DEFAULT_SEED, k))?;
                let r = single::simulate(&spec, &cfg)?;
                println!(
                    "{}\ttrial{k}\t{}",
                    workload.name(),
                    reference::trial_fields(&r)
                );
            }
        }
        None => {
            let points = sweep::grid(DEFAULT_SEED)?;
            for (i, exp) in points.iter().enumerate() {
                let r = exp.try_run_threaded(2).map_err(|e| e.to_string())?;
                println!("sweep_mixed\tpoint{i}\t{}", sweep::point_fields(&r));
            }
        }
    }
    Ok(())
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    if args.pin {
        return match pin(args.workload) {
            Ok(()) => ExitCode::SUCCESS,
            Err(e) => {
                eprintln!("perfbench: {e}");
                ExitCode::FAILURE
            }
        };
    }
    let reference = reference::Reference::load();
    let work = PathBuf::from("perfbench/.work").join(format!("run-{}", std::process::id()));
    let result = match args.workload.single() {
        Some(spec) => single::run(
            args.workload,
            &spec,
            args.seed,
            args.seconds,
            args.trace,
            &reference,
        ),
        None => {
            let r = sweep::run(args.seed, args.seconds, args.trace, &work, &reference);
            let _ = std::fs::remove_dir_all(&work);
            // Drop the parent too unless another run is still using it.
            let _ = std::fs::remove_dir("perfbench/.work");
            r
        }
    };
    match result {
        Ok(report) => {
            report.print(&util::environment_stamp());
            ExitCode::SUCCESS
        }
        Err(e) => {
            eprintln!("perfbench: {}: {e}", args.workload.name());
            ExitCode::FAILURE
        }
    }
}
