//! Golden-trajectory regression: with the overload controls
//! (`queue_cap`/`deadline`/`retry`) unset, simulations must replay the
//! exact bit patterns produced before the control plane existed.
//!
//! The constants below were captured from the engine as of PR 1 (fault
//! layer, pre-overload-controls) over a seed sweep spanning every RNG
//! stream: plain Poisson, MMPP arrivals, the staleness gate, crash faults,
//! and lossy boards. Any change to stream fork order, event ordering, or
//! the default code path shows up here as a bit mismatch.

use staleload::core::{run_simulation, ArrivalSpec, FaultSpec, RetrySpec, RunResult, SimConfig};
use staleload::info::InfoSpec;
use staleload::policies::PolicySpec;

fn combos() -> Vec<(&'static str, ArrivalSpec, InfoSpec, PolicySpec, FaultSpec)> {
    vec![
        (
            "poisson/periodic/basic-li",
            ArrivalSpec::Poisson,
            InfoSpec::Periodic { period: 10.0 },
            PolicySpec::BasicLi { lambda: 0.9 },
            FaultSpec::none(),
        ),
        (
            "poisson/fresh/random",
            ArrivalSpec::Poisson,
            InfoSpec::Fresh,
            PolicySpec::Random,
            FaultSpec::none(),
        ),
        (
            "mmpp/periodic/gated-li",
            ArrivalSpec::Mmpp {
                rate_ratio: 1.4444444444444444,
                high_fraction: 0.2,
                cycle_mean: 200.0,
            },
            InfoSpec::Periodic { period: 10.0 },
            PolicySpec::Gated {
                cutoff: 1.5,
                inner: Box::new(PolicySpec::BasicLi { lambda: 0.9 }),
            },
            FaultSpec::none(),
        ),
        (
            "poisson/periodic/greedy+crash",
            ArrivalSpec::Poisson,
            InfoSpec::Periodic { period: 5.0 },
            PolicySpec::Greedy,
            FaultSpec::crash(300.0, 20.0),
        ),
        (
            "poisson/periodic/k2+drop",
            ArrivalSpec::Poisson,
            InfoSpec::Periodic { period: 5.0 },
            PolicySpec::KSubset { k: 2 },
            FaultSpec::drop(0.5),
        ),
    ]
}

/// (combo label, seed, mean_response bits, end_time bits), captured before
/// the overload control plane was added.
const GOLDEN: [(&str, u64, u64, u64); 15] = [
    (
        "poisson/periodic/basic-li",
        1,
        0x40150c767ce3ef33,
        0x4095e715aba36d4c,
    ),
    (
        "poisson/periodic/basic-li",
        2,
        0x40138b22a7c4eaf2,
        0x40960994cbf6dc7e,
    ),
    (
        "poisson/periodic/basic-li",
        3,
        0x4014bb70467252db,
        0x4095c5957985e425,
    ),
    (
        "poisson/fresh/random",
        1,
        0x402215b7e6d4a81f,
        0x40963116ed48f090,
    ),
    (
        "poisson/fresh/random",
        2,
        0x40227c4cd0b003f1,
        0x40962a060d59dec2,
    ),
    (
        "poisson/fresh/random",
        3,
        0x402479f7e99b8c49,
        0x40964177de474959,
    ),
    (
        "mmpp/periodic/gated-li",
        1,
        0x401ff1365c2215cf,
        0x40962ddee51eadce,
    ),
    (
        "mmpp/periodic/gated-li",
        2,
        0x402229cc3e39b681,
        0x40962b922b384699,
    ),
    (
        "mmpp/periodic/gated-li",
        3,
        0x402372e6e549b22e,
        0x4095c3e2e148f02f,
    ),
    (
        "poisson/periodic/greedy+crash",
        1,
        0x403e383df10e1e37,
        0x40977e6e8273fa68,
    ),
    (
        "poisson/periodic/greedy+crash",
        2,
        0x403bdd2967b9635c,
        0x40971575514e32e5,
    ),
    (
        "poisson/periodic/greedy+crash",
        3,
        0x403a32595b01a683,
        0x4097bb51eabe87dd,
    ),
    (
        "poisson/periodic/k2+drop",
        1,
        0x401bddcc4fddd063,
        0x4095f6eaecce48e9,
    ),
    (
        "poisson/periodic/k2+drop",
        2,
        0x401b1b1dc511c43a,
        0x409629f2b86dcf44,
    ),
    (
        "poisson/periodic/k2+drop",
        3,
        0x401b36538c3b28c5,
        0x4095cef25b57f0db,
    ),
];

/// Overload-control knobs layered onto a combo (the control-plane matrix).
#[derive(Debug, Clone, Copy, Default)]
struct Controls {
    queue_cap: Option<u32>,
    deadline: Option<f64>,
    retry: Option<RetrySpec>,
}

/// The {faults, queue-cap, retry, guard} matrix: one combo per control
/// feature, each exercising a different engine queue (departures only;
/// + reneges; + orbit) and RNG stream.
fn control_combos() -> Vec<(
    &'static str,
    ArrivalSpec,
    InfoSpec,
    PolicySpec,
    FaultSpec,
    Controls,
)> {
    let crash_and_drop = {
        let mut f = FaultSpec::crash(250.0, 25.0);
        f.loss = FaultSpec::drop(0.3).loss;
        f
    };
    vec![
        (
            "controls/faults+gate",
            ArrivalSpec::Poisson,
            InfoSpec::Periodic { period: 10.0 },
            PolicySpec::Gated {
                cutoff: 20.0,
                inner: Box::new(PolicySpec::BasicLi { lambda: 0.9 }),
            },
            crash_and_drop,
            Controls::default(),
        ),
        (
            "controls/queue-cap",
            ArrivalSpec::Poisson,
            InfoSpec::Fresh,
            PolicySpec::Random,
            FaultSpec::none(),
            Controls {
                queue_cap: Some(4),
                ..Controls::default()
            },
        ),
        (
            "controls/retry-orbit",
            ArrivalSpec::Poisson,
            InfoSpec::Periodic { period: 5.0 },
            PolicySpec::BasicLi { lambda: 0.9 },
            FaultSpec::none(),
            Controls {
                queue_cap: Some(3),
                deadline: Some(2.0),
                retry: Some(RetrySpec {
                    max_attempts: 4,
                    base: 0.25,
                    cap: 4.0,
                }),
            },
        ),
        (
            "controls/herd-guard",
            ArrivalSpec::Poisson,
            InfoSpec::Periodic { period: 30.0 },
            PolicySpec::Guarded {
                threshold: 2.0,
                cooldown: 50.0,
                inner: Box::new(PolicySpec::Greedy),
            },
            FaultSpec::none(),
            Controls::default(),
        ),
    ]
}

fn run_combo(
    arrivals: &ArrivalSpec,
    info: &InfoSpec,
    policy: &PolicySpec,
    faults: FaultSpec,
    controls: Controls,
    seed: u64,
) -> RunResult {
    let mut builder = SimConfig::builder();
    builder
        .servers(16)
        .lambda(0.9)
        .arrivals(20_000)
        .seed(seed)
        .faults(faults);
    if let Some(cap) = controls.queue_cap {
        builder.queue_cap(cap);
    }
    if let Some(d) = controls.deadline {
        builder.deadline(d);
    }
    if let Some(r) = controls.retry {
        builder.retry(r);
    }
    run_simulation(&builder.build(), arrivals, info, policy).expect("valid config")
}

#[test]
fn default_path_replays_pre_control_plane_bits() {
    for (label, arrivals, info, policy, faults) in combos() {
        for seed in 1..=3u64 {
            let cfg = SimConfig::builder()
                .servers(16)
                .lambda(0.9)
                .arrivals(20_000)
                .seed(seed)
                .faults(faults)
                .build();
            let r = run_simulation(&cfg, &arrivals, &info, &policy).expect("valid config");
            let (_, _, mean_bits, end_bits) = *GOLDEN
                .iter()
                .find(|(l, s, _, _)| *l == label && *s == seed)
                .expect("every combo/seed pair has a golden entry");
            assert_eq!(
                r.mean_response.to_bits(),
                mean_bits,
                "{label} seed {seed}: mean_response drifted from golden \
                 ({} vs bits {mean_bits:#018x})",
                r.mean_response,
            );
            assert_eq!(
                r.end_time.to_bits(),
                end_bits,
                "{label} seed {seed}: end_time drifted from golden \
                 ({} vs bits {end_bits:#018x})",
                r.end_time,
            );
            assert!(
                r.overload.is_zero(),
                "{label} seed {seed}: controls unset must report zero overload stats"
            );
        }
    }
}

/// (combo label, seed, mean_response bits, end_time bits) for the
/// control-plane matrix, captured from the engine. To
/// regenerate after an *intentional* trajectory change, run
/// `cargo test --test golden_trajectories -- --ignored --nocapture`
/// and paste the printed array.
const CONTROL_GOLDEN: [(&str, u64, u64, u64); 12] = [
    (
        "controls/faults+gate",
        1,
        0x40334f32d7070f36,
        0x4096ac45ec8078bf,
    ),
    (
        "controls/faults+gate",
        2,
        0x403108626548de84,
        0x4096f6806865d93d,
    ),
    (
        "controls/faults+gate",
        3,
        0x4037f5a4722477de,
        0x409706d0d815ac9e,
    ),
    (
        "controls/queue-cap",
        1,
        0x4002e8c7bb316a5a,
        0x4095d20c40bd189c,
    ),
    (
        "controls/queue-cap",
        2,
        0x4002d3fef1aa1fb8,
        0x4095ee91958a4b71,
    ),
    (
        "controls/queue-cap",
        3,
        0x4002d0eb313a5cff,
        0x4095aea3b5497fc8,
    ),
    (
        "controls/retry-orbit",
        1,
        0x4003744eb9893302,
        0x4095d6905049037b,
    ),
    (
        "controls/retry-orbit",
        2,
        0x40039af939ed6c92,
        0x4095f1eee0096828,
    ),
    (
        "controls/retry-orbit",
        3,
        0x400398a5e1fa4be3,
        0x4095afcd73bf93dc,
    ),
    (
        "controls/herd-guard",
        1,
        0x4043f726f9f6aecb,
        0x409970f01469eed8,
    ),
    (
        "controls/herd-guard",
        2,
        0x404acca7d1b6d972,
        0x4098680447e8927b,
    ),
    (
        "controls/herd-guard",
        3,
        0x40472d06458d0814,
        0x4098af55403afde4,
    ),
];

/// The control-plane matrix replays its pinned bits.
#[test]
fn control_plane_matrix_replays_pinned_bits() {
    for (label, arrivals, info, policy, faults, controls) in control_combos() {
        for seed in 1..=3u64 {
            let r = run_combo(&arrivals, &info, &policy, faults, controls, seed);
            let (_, _, mean_bits, end_bits) = *CONTROL_GOLDEN
                .iter()
                .find(|(l, s, _, _)| *l == label && *s == seed)
                .expect("every control combo/seed pair has a golden entry");
            assert_eq!(
                r.mean_response.to_bits(),
                mean_bits,
                "{label} seed {seed}: mean_response drifted from golden \
                 ({} vs bits {mean_bits:#018x})",
                r.mean_response,
            );
            assert_eq!(
                r.end_time.to_bits(),
                end_bits,
                "{label} seed {seed}: end_time drifted from golden \
                 ({} vs bits {end_bits:#018x})",
                r.end_time,
            );
        }
    }
}

/// The tail-latency estimator matrix: EWMA and multi-horizon boards on
/// the default config. 20k arrivals exceed the default sketch capacity,
/// so these pins also cover the compacted quantile path.
fn tail_combos() -> Vec<(
    &'static str,
    ArrivalSpec,
    InfoSpec,
    PolicySpec,
    FaultSpec,
    Controls,
)> {
    vec![
        (
            "tails/ewma",
            ArrivalSpec::Poisson,
            InfoSpec::Ewma {
                period: 10.0,
                alpha: 0.3,
            },
            PolicySpec::BasicLi { lambda: 0.9 },
            FaultSpec::none(),
            Controls::default(),
        ),
        (
            "tails/multi-horizon",
            ArrivalSpec::Poisson,
            InfoSpec::MultiHorizon {
                period: 10.0,
                windows: [10.0, 30.0, 70.0],
            },
            PolicySpec::BasicLi { lambda: 0.9 },
            FaultSpec::none(),
            Controls::default(),
        ),
    ]
}

/// (combo label, seed, mean_response bits, p999 bits) for the estimator
/// matrix, captured from the engine. Regenerate with the
/// `print_tail_golden_bits` capture helper after intentional changes.
const TAIL_GOLDEN: [(&str, u64, u64, u64); 6] = [
    ("tails/ewma", 1, 0x401864948ee4cf0d, 0x403a5f8c5a0d9fe5),
    ("tails/ewma", 2, 0x40175880aaf540e0, 0x404093e5fcbc38dd),
    ("tails/ewma", 3, 0x40198b98afa797cb, 0x4038d8438c3dac40),
    (
        "tails/multi-horizon",
        1,
        0x401602b68f045c0f,
        0x4038994a7ba4fba3,
    ),
    (
        "tails/multi-horizon",
        2,
        0x401550189d7e8f57,
        0x403998fc78829364,
    ),
    (
        "tails/multi-horizon",
        3,
        0x4017611980ff2f38,
        0x40381d359dd297e0,
    ),
];

/// The estimator matrix replays its pinned bits — mean *and* the sketch's
/// p999, so a drift anywhere in the sketch ingest/compaction path fails.
#[test]
fn estimator_matrix_replays_pinned_bits() {
    for (label, arrivals, info, policy, faults, controls) in tail_combos() {
        for seed in 1..=3u64 {
            let r = run_combo(&arrivals, &info, &policy, faults, controls, seed);
            let (_, _, mean_bits, p999_bits) = *TAIL_GOLDEN
                .iter()
                .find(|(l, s, _, _)| *l == label && *s == seed)
                .expect("every tail combo/seed pair has a golden entry");
            assert_eq!(
                r.mean_response.to_bits(),
                mean_bits,
                "{label} seed {seed}: mean_response drifted from golden \
                 ({} vs bits {mean_bits:#018x})",
                r.mean_response,
            );
            let p999 = r.detail.response_quantile(0.999);
            assert_eq!(
                p999.to_bits(),
                p999_bits,
                "{label} seed {seed}: sketch p999 drifted from golden \
                 ({p999} vs bits {p999_bits:#018x})",
            );
        }
    }
}

/// Capture helper (not a regression test): prints the TAIL_GOLDEN array
/// body from the current engine.
#[test]
#[ignore = "capture helper; run with --ignored --nocapture to regenerate TAIL_GOLDEN"]
fn print_tail_golden_bits() {
    for (label, arrivals, info, policy, faults, controls) in tail_combos() {
        for seed in 1..=3u64 {
            let r = run_combo(&arrivals, &info, &policy, faults, controls, seed);
            println!(
                "    (\"{label}\", {seed}, {:#018x}, {:#018x}),",
                r.mean_response.to_bits(),
                r.detail.response_quantile(0.999).to_bits(),
            );
        }
    }
}

/// Capture helper (not a regression test): prints the CONTROL_GOLDEN array
/// body from the current engine.
#[test]
#[ignore = "capture helper; run with --ignored --nocapture to regenerate CONTROL_GOLDEN"]
fn print_control_golden_bits() {
    for (label, arrivals, info, policy, faults, controls) in control_combos() {
        for seed in 1..=3u64 {
            let r = run_combo(&arrivals, &info, &policy, faults, controls, seed);
            println!(
                "    (\n        \"{label}\",\n        {seed},\n        {:#018x},\n        {:#018x},\n    ),",
                r.mean_response.to_bits(),
                r.end_time.to_bits(),
            );
        }
    }
}
