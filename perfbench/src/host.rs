//! The host's speed, measured with a reference kernel owned by the
//! benchmark.
//!
//! On a shared host the simulator's speed swings by up to 2x for seconds
//! at a time, set by other tenants; a whole run can fall in a slow
//! stretch. Timing a fixed kernel in the same process, between the timed
//! trials, measures how fast the host ran at the time. The kernel is a
//! small stale-board simulation written here and calling nothing in the
//! repository, so a change to the simulator never moves it: dividing a
//! timing by the kernel's speed cancels the host and keeps the code.
//!
//! Short tasks are taken at the run's quietest: the fastest task against
//! the fastest block of kernel samples. They agree best when they last
//! about as long, so a sample is a few milliseconds, like a `paper_n100`
//! trial. Long tasks average over the host's swings; each is set against
//! the blocks around it (README.md, "Host speed", gives the
//! measurements).

use std::cmp::Reverse;
use std::collections::{BinaryHeap, VecDeque};
use std::sync::atomic::{AtomicU64, Ordering};
use std::time::Instant;

/// The kernel's ns per job on the reference host: its speed on the
/// machine README.md describes when that host is quiet. A timing scaled
/// by `REFERENCE_NS / fastest block` reads as it would on that host.
pub const REFERENCE_NS: f64 = 305.0;

/// Servers of the kernel's cluster.
const SERVERS: usize = 100;
/// Jobs per kernel sample: about 6 ms of host time.
const SAMPLE_JOBS: u64 = 20_000;

/// SplitMix64: the kernel's own generator, fixed forever.
struct SplitMix(u64);

impl SplitMix {
    fn next(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// Uniform on (0, 1).
    fn unit(&mut self) -> f64 {
        ((self.next() >> 11) as f64 + 0.5) * (1.0 / 9_007_199_254_740_992.0)
    }

    fn exp(&mut self, mean: f64) -> f64 {
        -mean * self.unit().ln()
    }
}

/// Response-time histogram buckets: 20 per decade from 1e-3 up.
const BUCKETS: usize = 200;
/// The response sketch keeps every other value once it holds this many.
const SKETCH_CAP: usize = 8192;

/// Routes one arrival: water-fill weights over the board up to `level`,
/// then a linear scan for the server that `u ∈ (0, 1)` draws. `V` nudges
/// the level by a negligible amount so that each instantiation is its own
/// machine code (see `ROUTES`).
#[inline(never)]
fn route<const V: usize>(weights: &mut [f64], board: &[f64], level: f64, u: f64) -> usize {
    let level = level + V as f64 * 1e-12;
    let mut total = 0.0;
    for (w, b) in weights.iter_mut().zip(board) {
        *w = (level - b).max(0.0);
        total += *w;
    }
    let mut u = u * total;
    for (i, w) in weights.iter().enumerate() {
        if u < *w {
            return i;
        }
        u -= w;
    }
    weights.len() - 1
}

/// Records one response time into the histogram and the sketch, which is
/// compacted (sorted, every other value kept) when full, as the engine's
/// tail sketch is. `V` as in `route`.
#[inline(never)]
fn record<const V: usize>(histogram: &mut [u64; BUCKETS], sketch: &mut Vec<f64>, response: f64) {
    let bucket = ((response.max(1e-3).log10() + 3.0) * (20.0 + V as f64 * 1e-12)) as usize;
    histogram[bucket.min(BUCKETS - 1)] += 1;
    sketch.push(response);
    if sketch.len() >= SKETCH_CAP {
        sketch.sort_unstable_by(f64::total_cmp);
        let mut keep = 0;
        for i in (0..sketch.len()).step_by(2) {
            sketch[keep] = sketch[i];
            keep += 1;
        }
        sketch.truncate(keep);
    }
}

type Route = fn(&mut [f64], &[f64], f64, f64) -> usize;
type Record = fn(&mut [u64; BUCKETS], &mut Vec<f64>, f64);

macro_rules! variants {
    ($($v:literal)*) => {
        /// Copies of the per-job code, used in turn. The engine's hot loop
        /// spans tens of KiB of machine code (`run_simulation` alone is
        /// ~32 KiB); a co-tenant on the same core evicts it from the
        /// instruction caches and slows it far more than a compact loop.
        /// Spreading the kernel's per-job work over these copies gives it
        /// a footprint of the same order, so it slows alike.
        const ROUTES: &[Route] = &[$(route::<$v>),*];
        const RECORDS: &[Record] = &[$(record::<$v>),*];
    };
}

variants!(0 1 2 3 4 5 6 7 8 9 10 11 12 13 14 15 16 17 18 19 20 21 22 23 24 25 26 27 28 29 30 31 32 33 34 35 36 37 38 39 40 41 42 43 44 45 46 47 48 49 50 51 52 53 54 55 56 57 58 59 60 61 62 63);

/// A fixed stale-board simulation of `jobs` jobs: Poisson arrivals at
/// λ = 0.9 per server, Exp(1) FIFO service, a board of queue lengths
/// refreshed every 10 time units, routing that water-fills the board's
/// queues with the period's expected arrivals (an O(n) scan per arrival),
/// and a histogram plus a compacting sketch of response times. Returns
/// the mean response time, so no work can be skipped.
fn kernel(jobs: u64, seed: u64) -> f64 {
    const LAMBDA: f64 = 0.9;
    const PERIOD: f64 = 10.0;
    let rate = LAMBDA * SERVERS as f64;
    let mut rng = SplitMix(seed);
    let mut queues: Vec<VecDeque<f64>> = (0..SERVERS).map(|_| VecDeque::new()).collect();
    let mut board = vec![0.0f64; SERVERS];
    let mut sorted = vec![0.0f64; SERVERS];
    let mut weights = vec![0.0f64; SERVERS];
    // Departures keyed by the bits of their (non-negative) times.
    let mut departures: BinaryHeap<Reverse<(u64, usize)>> = BinaryHeap::new();
    let mut histogram = [0u64; BUCKETS];
    let mut sketch = Vec::new();
    let mut level = 0.0;
    let mut next_refresh = 0.0;
    let mut next_arrival = rng.exp(1.0 / rate);
    let (mut generated, mut done, mut total_response) = (0u64, 0u64, 0.0);
    while done < jobs {
        let next_departure = departures
            .peek()
            .map_or(f64::INFINITY, |Reverse((bits, _))| f64::from_bits(*bits));
        if next_refresh <= next_arrival.min(next_departure) {
            for ((b, s), q) in board.iter_mut().zip(&mut sorted).zip(&queues) {
                *b = q.len() as f64;
                *s = *b;
            }
            sorted.sort_unstable_by(f64::total_cmp);
            // Raise the lowest queues to a common level with the period's
            // expected arrivals.
            let mut budget = rate * PERIOD;
            level = sorted[0];
            for k in 0..SERVERS {
                let next = sorted.get(k + 1).copied().unwrap_or(f64::INFINITY);
                let need = (next - level) * (k + 1) as f64;
                if need >= budget {
                    level += budget / (k + 1) as f64;
                    break;
                }
                budget -= need;
                level = next;
            }
            next_refresh += PERIOD;
        } else if next_arrival <= next_departure {
            let t = next_arrival;
            let variant = generated as usize % ROUTES.len();
            let pick = ROUTES[variant](&mut weights, &board, level, rng.unit());
            queues[pick].push_back(t);
            if queues[pick].len() == 1 {
                departures.push(Reverse(((t + rng.exp(1.0)).to_bits(), pick)));
            }
            generated += 1;
            next_arrival = if generated < jobs {
                t + rng.exp(1.0 / rate)
            } else {
                f64::INFINITY
            };
        } else {
            let Some(Reverse((bits, i))) = departures.pop() else {
                break;
            };
            let t = f64::from_bits(bits);
            let arrived = queues[i].pop_front().unwrap_or(t);
            let response = t - arrived;
            total_response += response;
            RECORDS[done as usize % RECORDS.len()](&mut histogram, &mut sketch, response);
            done += 1;
            if !queues[i].is_empty() {
                departures.push(Reverse(((t + rng.exp(1.0)).to_bits(), i)));
            }
        }
    }
    std::hint::black_box((&histogram, &sketch));
    total_response / done.max(1) as f64
}

/// Share of a run's timed work spent on kernel samples.
const SAMPLE_SHARE: f64 = 0.2;
/// Chunks per worker of a sample taken on several threads.
const CHUNKS: u64 = 8;
/// Tasks of at least this many wall ns (50 ms, some ten kernel samples)
/// are long (see `HostSpeed::scaled`).
const LONG_TASK_NS: f64 = 5e7;
/// Most kernel samples in one block.
const MAX_REPS: usize = 64;

/// Kernel samples taken over one run, in blocks: one block right after
/// each timed task.
#[derive(Default)]
pub struct HostSpeed {
    /// Mean ns per kernel job of each block.
    blocks: Vec<f64>,
    /// Wall ns of the timed task before each block.
    tasks: Vec<f64>,
    samples: usize,
}

impl HostSpeed {
    /// Times a block of kernel samples worth about a fifth of `task_ns`,
    /// the wall time of the timed task just before (at least one sample).
    /// A block's speed is its mean, so a long task is set against a block
    /// that averages over the host's swings as the task did. With
    /// `workers` > 1, a sample is `workers` times the work, shared by that
    /// many threads, and counts its wall time per thread's share: a pool
    /// of simulations is scaled by a load of the same width. Returns the
    /// seconds spent.
    pub fn sample_after(&mut self, workers: usize, task_ns: f64) -> f64 {
        self.tasks.push(task_ns);
        let started = Instant::now();
        self.sample(workers);
        let sample_ns = started.elapsed().as_nanos() as f64;
        let reps = ((SAMPLE_SHARE * task_ns / sample_ns).ceil() as usize).clamp(1, MAX_REPS);
        for _ in 1..reps {
            self.sample(workers);
        }
        let wall_ns = started.elapsed().as_nanos() as f64;
        self.blocks
            .push(wall_ns / (reps as u64 * SAMPLE_JOBS) as f64);
        wall_ns * 1e-9
    }

    fn sample(&mut self, workers: usize) {
        let seed = self.samples as u64;
        self.samples += 1;
        if workers <= 1 {
            std::hint::black_box(kernel(SAMPLE_JOBS, std::hint::black_box(seed)));
            return;
        }
        // `workers` threads take the sample's chunks from a shared
        // counter, as the runner's pool takes tasks, so a slow vCPU is
        // made up for by the other.
        let chunks = CHUNKS * workers as u64;
        let next = AtomicU64::new(0);
        std::thread::scope(|s| {
            for _ in 0..workers {
                s.spawn(|| loop {
                    let c = next.fetch_add(1, Ordering::Relaxed);
                    if c >= chunks {
                        break;
                    }
                    std::hint::black_box(kernel(SAMPLE_JOBS / CHUNKS, seed * chunks + c));
                });
            }
        });
    }

    /// Whether the run's tasks are long: they average over the host's
    /// swings, so no task is timed in a quiet stretch.
    fn long_tasks(&self) -> bool {
        crate::util::median(&self.tasks) >= LONG_TASK_NS
    }

    /// The host's speed around task `i`: the mean of the blocks right
    /// before and right after it.
    fn around(&self, i: usize) -> f64 {
        match i {
            0 => self.blocks[0],
            _ => (self.blocks[i - 1] + self.blocks[i]) / 2.0,
        }
    }

    /// The run's timing scaled to the reference host, from `values`, one
    /// per task in the order the tasks ran (non-finite for a task that
    /// failed). Short tasks: the fastest value times `REFERENCE_NS` over
    /// the fastest block, both taken at the run's quietest. Long tasks:
    /// the median over tasks of each value times `REFERENCE_NS` over the
    /// host's speed around that task.
    pub fn scaled(&self, values: &[f64]) -> f64 {
        let n = values.len().min(self.blocks.len());
        if !self.long_tasks() {
            return crate::util::minimum(&values[..n]) * self.factor();
        }
        let each: Vec<f64> = (0..n)
            .filter(|&i| values[i].is_finite())
            .map(|i| values[i] * REFERENCE_NS / self.around(i))
            .collect();
        crate::util::median(&each)
    }

    /// The factor for a timing taken outside the tasks (set-up):
    /// `REFERENCE_NS` over the fastest block for short tasks, over the
    /// median block for long ones.
    pub fn factor(&self) -> f64 {
        let host = if self.long_tasks() {
            crate::util::median(&self.blocks)
        } else {
            crate::util::minimum(&self.blocks)
        };
        REFERENCE_NS / host
    }

    pub fn describe(&self) -> String {
        format!(
            "host: {} reference-kernel samples in {} blocks, fastest block {:.1} ns/job, median {:.1}; {} tasks (median {:.3} s), so {}",
            self.samples,
            self.blocks.len(),
            crate::util::minimum(&self.blocks),
            crate::util::median(&self.blocks),
            if self.long_tasks() { "long" } else { "short" },
            crate::util::median(&self.tasks) * 1e-9,
            if self.long_tasks() {
                "each task is scaled by the blocks around it (median over tasks)"
            } else {
                "the fastest task is scaled by the fastest block"
            }
        )
    }
}
