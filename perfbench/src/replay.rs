//! A replay of `run_simulation`'s fault-free per-server loop, written
//! from the crates' public calls in the engine's order and with the
//! engine's RNG fork order, so that every replayed trial is bit-identical
//! to `run_simulation` on the same configuration.
//!
//! The replay exists to split host time by layer: it is generic over a
//! [`Probe`] that either does nothing ([`NoTrace`], the untraced replay
//! that runs at engine speed) or reads the clock at every layer boundary
//! ([`Spans`], the traced replay). It covers exactly the configurations
//! the per-server workloads use: Poisson arrivals, the heap scheduler, no
//! faults, no overload controls, no hedging, no work stealing.

use std::time::Instant;

use staleload_cluster::{Admission, Cluster, Job, ServerId};
use staleload_core::SimConfig;
use staleload_info::{InfoDispatch, InfoModel, InfoSpec};
use staleload_policies::{DispatchPolicy, Policy, PolicySpec};
use staleload_sim::{EventQueue, Histogram, OnlineStats, SimRng, TimeWeighted};
use staleload_stats::TailSketch;
use staleload_workloads::ArrivalProcess;

/// A span of the traced replay, named after the module whose public call
/// it wraps. `Glue` is the replayed loop's own bookkeeping.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Layer {
    Glue,
    Arrival,
    Sample,
    Refresh,
    View,
    Select,
    Admit,
    AfterPlacement,
    Complete,
    Events,
    Metrics,
    /// Back-to-back marks with nothing between them (clock calibration).
    Empty,
}

pub const LAYERS: usize = 12;

/// What the replay reports at each layer boundary.
pub trait Probe {
    /// Closes the segment that started at the previous mark and charges
    /// it to `layer`.
    fn mark(&mut self, layer: Layer);
    /// Counts one event-queue operation on a queue holding `depth` events.
    fn event_op(&mut self, depth: usize);
}

/// The untraced replay: every probe call compiles away.
pub struct NoTrace;

impl Probe for NoTrace {
    #[inline(always)]
    fn mark(&mut self, _layer: Layer) {}
    #[inline(always)]
    fn event_op(&mut self, _depth: usize) {}
}

/// The traced replay: one clock read per layer boundary, charged to the
/// layer whose call the segment contains.
pub struct Spans {
    last: Instant,
    pub ns: [u64; LAYERS],
    pub marks: [u64; LAYERS],
    pub event_ops: u64,
    pub event_depth_sum: u64,
}

impl Spans {
    pub fn new() -> Self {
        Self {
            last: Instant::now(),
            ns: [0; LAYERS],
            marks: [0; LAYERS],
            event_ops: 0,
            event_depth_sum: 0,
        }
    }

    /// Restarts the open segment at the current instant.
    pub fn restart(&mut self) {
        self.last = Instant::now();
    }

    /// Host time of one mark as it lands inside a measured segment: the
    /// mean length of `count` back-to-back empty segments.
    pub fn calibrate(count: u64) -> f64 {
        let mut spans = Spans::new();
        for _ in 0..count {
            spans.mark(Layer::Empty);
        }
        spans.ns[Layer::Empty as usize] as f64 / count as f64
    }

    pub fn total_marks(&self) -> u64 {
        self.marks.iter().sum()
    }
}

impl Probe for Spans {
    #[inline(always)]
    fn mark(&mut self, layer: Layer) {
        let now = Instant::now();
        self.ns[layer as usize] += now.duration_since(self.last).as_nanos() as u64;
        self.marks[layer as usize] += 1;
        self.last = now;
    }

    #[inline(always)]
    fn event_op(&mut self, depth: usize) {
        self.event_ops += 1;
        self.event_depth_sum += depth as u64;
    }
}

/// The simulated outputs of one replayed trial, in the shape
/// `run_simulation` reports them.
pub struct ReplayOut {
    pub response: OnlineStats,
    pub sketch: TailSketch,
    pub histogram: Histogram,
    pub jobs_in_system: TimeWeighted,
    pub generated: u64,
    pub end_time: f64,
    /// Sum and count of measured responses of jobs in the first and the
    /// second half of the measured id range (steady-state guard).
    pub half_sum: [f64; 2],
    pub half_count: [u64; 2],
}

/// Replays one fault-free per-server trial of `cfg` (whose `seed` is the
/// trial's seed).
pub fn replay<P: Probe>(
    cfg: &SimConfig,
    info: &InfoSpec,
    policy: &PolicySpec,
    probe: &mut P,
) -> Result<ReplayOut, String> {
    let mut master = SimRng::from_seed(cfg.seed);
    let mut arrival_rng = master.fork();
    let mut service_rng = master.fork();
    let mut policy_rng = master.fork();
    let mut model_rng = master.fork();
    // Forked for parity with the engine's manifest; a fault-free run
    // never draws from them.
    let mut fault_rng = master.fork();
    let mut retry_rng = master.fork();
    let _ = (&mut fault_rng, &mut retry_rng);

    let n = cfg.servers;
    let mut cluster = Cluster::new(n);
    if let Some(window) = info.history_window() {
        cluster.enable_history(window);
    }
    let mut model = InfoDispatch::from_spec(info, n, 1);
    let mut policy = DispatchPolicy::from_spec(policy);
    let mut process = ArrivalProcess::poisson(cfg.total_rate());

    let warmup = cfg.warmup_jobs();
    let mid = warmup + (cfg.arrivals - warmup) / 2;
    let mut departures: EventQueue<ServerId> = EventQueue::with_capacity(n);
    let mut scheduled: Vec<Option<f64>> = vec![None; n];
    let mut response = OnlineStats::new();
    let mut histogram = Histogram::for_response_times();
    let mut sketch = TailSketch::new(cfg.sketch_cap);
    let mut jobs_in_system = TimeWeighted::new(0.0, 0.0);
    let mut half_sum = [0.0; 2];
    let mut half_count = [0u64; 2];
    let mut next_id: u64 = 0;
    let mut next_arrival = Some(process.next(&mut arrival_rng));
    let mut end_time: f64 = 0.0;

    probe.mark(Layer::Glue);
    loop {
        // The engine drops departures a crash invalidated; fault-free,
        // the head always matches its server's scheduled slot.
        while let Some((t, &server)) = departures.peek() {
            if scheduled[server] == Some(t) {
                break;
            }
            departures.pop();
        }
        probe.event_op(departures.len());
        let d = departures.peek_time().unwrap_or(f64::INFINITY);
        probe.event_op(departures.len());
        probe.mark(Layer::Events);

        let a = next_arrival.map_or(f64::INFINITY, |(t, _)| t);
        let earliest = a.min(d);
        if !earliest.is_finite() {
            break;
        }
        while let Some(t) = model.next_event() {
            if t > earliest {
                break;
            }
            probe.mark(Layer::Glue);
            model.on_event(t, &cluster);
            probe.mark(Layer::Refresh);
        }

        if a <= d {
            let Some((t, client)) = next_arrival.take() else {
                return Err("replay lost its pending arrival".into());
            };
            probe.mark(Layer::Glue);
            let service = cfg.service.sample(&mut service_rng);
            probe.mark(Layer::Sample);
            let job = Job::new(next_id, t, service);
            next_id += 1;
            if next_id < cfg.arrivals {
                next_arrival = Some(process.next(&mut arrival_rng));
            }
            probe.mark(Layer::Arrival);
            policy.observe_arrival(t);
            probe.mark(Layer::Glue);
            let view = model.view(t, client, &mut cluster, &mut model_rng);
            probe.mark(Layer::View);
            let server = policy.select_sized(&view, job.service, &mut policy_rng);
            probe.mark(Layer::Select);
            if !cluster.is_up(server) {
                return Err(format!("fault-free replay picked down server {server}"));
            }
            let admission = cluster.admit(server, job, t);
            probe.mark(Layer::Admit);
            match admission {
                Admission::Rejected => {
                    return Err("fault-free replay saw a rejected admission".into());
                }
                Admission::InService(dep) => {
                    probe.event_op(departures.len());
                    departures
                        .try_push(dep, server)
                        .map_err(|e| e.to_string())?;
                    scheduled[server] = Some(dep);
                    probe.mark(Layer::Events);
                }
                Admission::Queued => {}
            }
            model.after_placement(t, client, &cluster);
            probe.mark(Layer::AfterPlacement);
            jobs_in_system.update(t, cluster.in_system() as f64);
            probe.mark(Layer::Metrics);
        } else {
            probe.mark(Layer::Glue);
            probe.event_op(departures.len());
            let Some((t, server)) = departures.pop() else {
                return Err("replay lost its pending departure".into());
            };
            scheduled[server] = None;
            probe.mark(Layer::Events);
            let (job, next) = cluster.complete(server, t);
            probe.mark(Layer::Complete);
            if let Some(dep) = next {
                probe.event_op(departures.len());
                departures
                    .try_push(dep, server)
                    .map_err(|e| e.to_string())?;
                scheduled[server] = Some(dep);
                probe.mark(Layer::Events);
            }
            if job.id >= warmup {
                let x = t - job.arrival;
                response.record(x);
                histogram.record(x);
                sketch.record(x);
                let half = usize::from(job.id >= mid);
                half_sum[half] += x;
                half_count[half] += 1;
            }
            jobs_in_system.update(t, cluster.in_system() as f64);
            end_time = t;
            probe.mark(Layer::Metrics);
        }
    }

    if cluster.in_system() != 0 {
        return Err(format!(
            "replay ended with {} jobs still in the system",
            cluster.in_system()
        ));
    }
    Ok(ReplayOut {
        response,
        sketch,
        histogram,
        jobs_in_system,
        generated: next_id,
        end_time,
        half_sum,
        half_count,
    })
}
