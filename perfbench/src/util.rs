//! Small helpers: order statistics, confidence intervals, process
//! memory, the environment stamp, and the result line.

use std::fmt::Write as _;
use std::path::Path;

/// Median of `values` (mean of the middle two for an even count).
pub fn median(values: &[f64]) -> f64 {
    quantile(values, 0.5)
}

/// Smallest of `values`: for a timing, the run least slowed by other
/// work on the host.
pub fn minimum(values: &[f64]) -> f64 {
    values.iter().copied().fold(f64::INFINITY, f64::min)
}

/// Linear-interpolation quantile of `values` at `q ∈ [0, 1]`.
pub fn quantile(values: &[f64], q: f64) -> f64 {
    if values.is_empty() {
        return f64::NAN;
    }
    let mut sorted = values.to_vec();
    sorted.sort_by(f64::total_cmp);
    let pos = q * (sorted.len() - 1) as f64;
    let lo = pos.floor() as usize;
    let hi = pos.ceil() as usize;
    sorted[lo] + (sorted[hi] - sorted[lo]) * (pos - lo as f64)
}

/// Two-sided 99% Student-t critical value for `df` degrees of freedom.
fn t99(df: usize) -> f64 {
    const TABLE: [f64; 10] = [
        63.657, 9.925, 5.841, 4.604, 4.032, 3.707, 3.499, 3.355, 3.250, 3.169,
    ];
    match df {
        0 => f64::INFINITY,
        1..=10 => TABLE[df - 1],
        11..=20 => 2.845,
        21..=40 => 2.704,
        _ => 2.576,
    }
}

/// Mean and 99% confidence half-width of independent samples.
pub fn mean_ci99(samples: &[f64]) -> (f64, f64) {
    let k = samples.len();
    let mean = samples.iter().sum::<f64>() / k as f64;
    if k < 2 {
        return (mean, f64::INFINITY);
    }
    let var = samples.iter().map(|x| (x - mean).powi(2)).sum::<f64>() / (k - 1) as f64;
    (mean, t99(k - 1) * (var / k as f64).sqrt())
}

/// Peak resident set size of this process in MiB (`VmHWM`).
pub fn peak_rss_mb() -> Result<f64, String> {
    let status = std::fs::read_to_string("/proc/self/status")
        .map_err(|e| format!("cannot read process status: {e}"))?;
    let kb = status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .ok_or("process status has no VmHWM line")?;
    Ok(kb / 1024.0)
}

/// FNV-1a digest of the simulator's sources (`Cargo.*`, `crates/**`,
/// `perfbench/src/**`) under `root`, in sorted path order: the identity
/// of the measured code when the checkout carries no version control.
fn source_digest(root: &Path) -> String {
    fn walk(dir: &Path, out: &mut Vec<std::path::PathBuf>) {
        let Ok(entries) = std::fs::read_dir(dir) else {
            return;
        };
        for entry in entries.flatten() {
            let path = entry.path();
            if path.is_dir() {
                walk(&path, out);
            } else if path
                .extension()
                .is_some_and(|e| e == "rs" || e == "toml" || e == "lock")
            {
                out.push(path);
            }
        }
    }
    let mut files = vec![root.join("Cargo.toml"), root.join("Cargo.lock")];
    walk(&root.join("crates"), &mut files);
    walk(&root.join("perfbench/src"), &mut files);
    files.sort();
    let mut hash: u64 = 0xcbf2_9ce4_8422_2325;
    for path in files {
        let Ok(bytes) = std::fs::read(&path) else {
            continue;
        };
        let name = path.strip_prefix(root).unwrap_or(&path).to_string_lossy();
        for b in name.as_bytes().iter().chain(&bytes) {
            hash ^= u64::from(*b);
            hash = hash.wrapping_mul(0x0100_0000_01b3);
        }
    }
    format!("{hash:016x}")
}

/// The environment every result is stamped with, as a JSON object.
pub fn environment_stamp() -> String {
    let nproc = std::thread::available_parallelism().map_or(0, |n| n.get());
    let cpu = std::fs::read_to_string("/proc/cpuinfo")
        .ok()
        .and_then(|s| {
            s.lines()
                .find_map(|l| l.strip_prefix("model name"))
                .map(|v| v.trim_start_matches([' ', '\t', ':']).trim().to_string())
        })
        .unwrap_or_else(|| "unknown".into());
    format!(
        "{{\"nproc\": {nproc}, \"cpu\": \"{}\", \"rustc\": \"{}\", \"commit\": \"src-fnv1a-{}\"}}",
        escape(&cpu),
        escape(env!("PERFBENCH_RUSTC")),
        source_digest(Path::new("."))
    )
}

fn escape(s: &str) -> String {
    s.replace('\\', "\\\\").replace('"', "\\\"")
}

/// One reported metric.
pub struct Metric {
    pub name: &'static str,
    pub unit: &'static str,
    pub value: f64,
}

pub fn metric(name: &'static str, unit: &'static str, value: f64) -> Metric {
    Metric { name, unit, value }
}

/// The result line: `correct`, `attempted`, `failed` and every metric.
pub fn result_line(correct: bool, attempted: u64, failed: u64, metrics: &[Metric]) -> String {
    let mut out = format!(
        "{{\"correct\": {correct}, \"attempted\": {attempted}, \"failed\": {failed}, \"metrics\": {{"
    );
    for (i, m) in metrics.iter().enumerate() {
        let sep = if i == 0 { "" } else { ", " };
        let _ = write!(
            out,
            "{sep}\"{}\": {{\"value\": {:?}, \"unit\": \"{}\"}}",
            m.name, m.value, m.unit
        );
    }
    out.push_str("}}");
    out
}
