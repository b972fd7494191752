//! Property-based tests for the selection policies and LI math.

use proptest::prelude::*;
use staleload_policies::{
    aggressive_schedule, basic_li_probabilities, rank_distribution, EntryAges, InfoAge, LoadView,
    Policy, PolicySpec,
};
use staleload_sim::SimRng;

fn arb_loads() -> impl Strategy<Value = Vec<u32>> {
    prop::collection::vec(0u32..200, 1..64)
}

fn compute_basic(loads: &[u32], r: f64) -> Vec<f64> {
    let mut probs = Vec::new();
    let mut scratch = Vec::new();
    basic_li_probabilities(loads, r, &mut probs, &mut scratch);
    probs
}

/// Load vectors of 1..300 servers whose range `max − min` is pinned on
/// either side of the server count `n`, where the water-fill switches
/// between counting and sorting: 0 (all tied), a few values (heavy ties),
/// `n − 1`, `n`, `n + 1`, far wider, and idle servers next to masked
/// `u32::MAX` entries (the staleness gate's encoding).
fn arb_li_loads() -> impl Strategy<Value = Vec<u32>> {
    (1usize..300, 0u32..1_000_000, 0usize..7, any::<u64>()).prop_map(|(n, base, kind, seed)| {
        let mut rng = SimRng::from_seed(seed);
        if kind == 6 {
            return (0..n)
                .map(|_| {
                    if rng.index(3) == 0 {
                        u32::MAX
                    } else {
                        rng.index(4) as u32
                    }
                })
                .collect();
        }
        let range = match kind {
            0 => 0,
            1 => 1 + rng.index(4),
            2 => n.saturating_sub(1),
            3 => n,
            4 => n + 1,
            _ => 50 * n + rng.index(1 << 20),
        } as u32;
        let mut loads: Vec<u32> = (0..n)
            .map(|_| base + rng.index(range as usize + 1) as u32)
            .collect();
        // Pin both ends of the range at random positions.
        loads[rng.index(n)] = base;
        loads[rng.index(n)] = base + range;
        loads
    })
}

/// The expected-arrival counts the water-fill must reproduce bit for bit:
/// zero (least-loaded indicator), just above the degenerate threshold, a
/// paper-style `λ·n·T`, effectively infinite, and a small integer (which
/// can equal an Eq. 3 cost exactly).
fn pick_r(choice: usize, n: usize, t: f64) -> f64 {
    [0.0, 1e-12, 0.9 * n as f64 * t, 1e12, t.floor()][choice]
}

/// The sorted-scan water-fill (paper Eqs. 2–4 read literally): sort
/// `(load, id)` pairs, scan for the last `c` satisfying Eq. 3, fill the `c`
/// smallest. `r` must exceed the degenerate threshold.
fn reference_basic(loads: &[u32], r: f64) -> Vec<f64> {
    let mut sorted: Vec<(u32, usize)> = loads.iter().copied().zip(0..).collect();
    sorted.sort_unstable();
    let mut c = 1usize;
    let mut prefix = f64::from(sorted[0].0);
    let mut run = prefix;
    for (idx, &(q, _)) in sorted.iter().enumerate().skip(1) {
        run += f64::from(q);
        let count = idx + 1;
        if count as f64 * f64::from(q) - run <= r {
            c = count;
            prefix = run;
        }
    }
    let level = (prefix + r) / c as f64;
    let mut probs = vec![0.0; loads.len()];
    for &(q, server) in &sorted[..c] {
        probs[server] = ((level - f64::from(q)) / r).max(0.0);
    }
    probs
}

/// The least-loaded indicator Basic LI degenerates to as `R → 0`.
fn reference_indicator(loads: &[u32]) -> Vec<f64> {
    let min = *loads.iter().min().expect("non-empty loads");
    let ties = loads.iter().filter(|&&l| l == min).count();
    loads
        .iter()
        .map(|&l| if l == min { 1.0 / ties as f64 } else { 0.0 })
        .collect()
}

fn bits(values: &[f64]) -> Vec<u64> {
    values.iter().map(|v| v.to_bits()).collect()
}

proptest! {
    /// Basic LI always yields a genuine probability distribution.
    #[test]
    fn basic_li_is_a_distribution(loads in arb_loads(), r in 0.0f64..1e6) {
        let probs = compute_basic(&loads, r);
        prop_assert_eq!(probs.len(), loads.len());
        prop_assert!(probs.iter().all(|&p| (0.0..=1.0 + 1e-9).contains(&p)));
        let sum: f64 = probs.iter().sum();
        prop_assert!((sum - 1.0).abs() < 1e-6, "sum {}", sum);
    }

    /// No server ever receives a larger share than a less-loaded server.
    #[test]
    fn basic_li_is_monotone_in_load(loads in arb_loads(), r in 0.001f64..1e6) {
        let probs = compute_basic(&loads, r);
        for i in 0..loads.len() {
            for j in 0..loads.len() {
                if loads[i] < loads[j] {
                    prop_assert!(
                        probs[i] >= probs[j] - 1e-9,
                        "load {} got {} but load {} got {}",
                        loads[i], probs[i], loads[j], probs[j]
                    );
                }
            }
        }
    }

    /// Equal loads receive equal probability (fairness under ties).
    #[test]
    fn basic_li_treats_ties_equally(loads in arb_loads(), r in 0.001f64..1e6) {
        let probs = compute_basic(&loads, r);
        for i in 0..loads.len() {
            for j in 0..loads.len() {
                if loads[i] == loads[j] {
                    prop_assert!((probs[i] - probs[j]).abs() < 1e-9);
                }
            }
        }
    }

    /// The expected post-phase queue lengths never overshoot a non-receiver:
    /// receivers end at a common level that is at most the smallest
    /// non-receiver's load.
    #[test]
    fn basic_li_waterfill_invariant(loads in arb_loads(), r in 0.001f64..1e6) {
        let probs = compute_basic(&loads, r);
        let finals: Vec<f64> = loads.iter().zip(&probs)
            .map(|(&q, &p)| f64::from(q) + r * p)
            .collect();
        let receiver_level = probs.iter().zip(&finals)
            .filter(|(&p, _)| p > 1e-12)
            .map(|(_, &f)| f)
            .fold(f64::NAN, |acc, f| if acc.is_nan() { f } else { acc.max(f) });
        if receiver_level.is_nan() {
            return Ok(());
        }
        for (&q, &p) in loads.iter().zip(&probs) {
            if p <= 1e-12 {
                prop_assert!(
                    f64::from(q) >= receiver_level - 1e-6 * (1.0 + receiver_level),
                    "non-receiver load {} below level {}", q, receiver_level
                );
            }
        }
    }

    /// As R grows the distribution converges to uniform.
    #[test]
    fn basic_li_converges_to_uniform(loads in arb_loads()) {
        let n = loads.len() as f64;
        let probs = compute_basic(&loads, 1e12);
        for &p in &probs {
            prop_assert!((p - 1.0 / n).abs() < 1e-3);
        }
    }

    /// The aggressive schedule activates servers in load order and its
    /// active count is non-decreasing in elapsed time.
    #[test]
    fn aggressive_schedule_is_monotone(loads in arb_loads(), rate in 0.01f64..100.0) {
        let s = aggressive_schedule(&loads, rate);
        let mut prev = 0;
        for step in 0..50 {
            let elapsed = step as f64 * 0.5;
            let count = s.active_count(elapsed);
            prop_assert!(count >= prev);
            prop_assert!(count >= 1 && count <= loads.len());
            prev = count;
            // Active set is always a prefix of the load-sorted order.
            let active = s.active_servers(elapsed);
            let max_active = active.iter().map(|&i| loads[i]).max().unwrap();
            for (i, &l) in loads.iter().enumerate() {
                if !active.contains(&i) {
                    prop_assert!(l >= max_active || active.len() == loads.len());
                }
            }
        }
    }

    /// Past the leveling time the schedule is uniform over all servers.
    #[test]
    fn aggressive_schedule_levels_eventually(loads in arb_loads(), rate in 0.01f64..100.0) {
        let s = aggressive_schedule(&loads, rate);
        if let Some(t) = s.leveling_time() {
            prop_assert_eq!(s.active_count(t + 1.0), loads.len());
        }
    }

    /// Eq. 1 rank distributions are valid and monotone for all (n, k).
    #[test]
    fn rank_distribution_is_valid(n in 1usize..200, k_frac in 0.0f64..1.0) {
        let k = ((n as f64 * k_frac) as usize).clamp(1, n);
        let p = rank_distribution(n, k);
        let sum: f64 = p.iter().sum();
        prop_assert!((sum - 1.0).abs() < 1e-6);
        for w in p.windows(2) {
            prop_assert!(w[0] >= w[1] - 1e-12);
        }
        prop_assert!((p[0] - k as f64 / n as f64).abs() < 1e-9);
    }

    /// Every policy returns in-range servers for arbitrary views, both
    /// phase-based and aged.
    #[test]
    fn all_policies_select_in_range(
        loads in arb_loads(),
        seed in any::<u64>(),
        age in 0.0f64..100.0,
        elapsed_frac in 0.0f64..1.0,
    ) {
        let mut rng = SimRng::from_seed(seed);
        let length = age.max(0.1);
        let views = [
            LoadView { loads: &loads, info: InfoAge::Aged { age }, ages: None },
            LoadView {
                loads: &loads,
                info: InfoAge::Phase {
                    start: 50.0,
                    length,
                    now: 50.0 + elapsed_frac * length,
                    epoch: 7,
                },
                ages: None,
            },
        ];
        let specs = [
            PolicySpec::Random,
            PolicySpec::KSubset { k: 2 },
            PolicySpec::KSubset { k: 1000 },
            PolicySpec::Greedy,
            PolicySpec::Threshold { threshold: 4 },
            PolicySpec::BasicLi { lambda: 0.9 },
            PolicySpec::AggressiveLi { lambda: 0.9 },
            PolicySpec::HybridLi { lambda: 0.9 },
            PolicySpec::LiSubset { k: 3, lambda: 0.9 },
            PolicySpec::WeightedDecay { tau: 5.0 },
            PolicySpec::Gated { cutoff: 10.0, inner: Box::new(PolicySpec::Greedy) },
        ];
        for view in &views {
            for spec in &specs {
                let mut p = spec.build();
                for _ in 0..8 {
                    let s = p.select(view, &mut rng);
                    prop_assert!(s < loads.len(), "{} out of range", spec.label());
                }
            }
        }
    }

    /// Greedy never selects a server with a strictly smaller alternative.
    #[test]
    fn greedy_selects_a_minimum(loads in arb_loads(), seed in any::<u64>()) {
        let mut rng = SimRng::from_seed(seed);
        let view = LoadView { loads: &loads, info: InfoAge::Aged { age: 1.0 }, ages: None };
        let mut g = PolicySpec::Greedy.build();
        let min = *loads.iter().min().expect("non-empty loads");
        for _ in 0..16 {
            prop_assert_eq!(loads[g.select(&view, &mut rng)], min);
        }
    }

    /// A staleness gate over a load-seeking inner policy never routes to
    /// a server whose entry is older than the cutoff while at least one
    /// entry is still valid, and always falls back to *some* in-range
    /// server when every entry has expired.
    #[test]
    fn gate_excludes_stale_servers(
        loads in arb_loads(),
        seed in any::<u64>(),
        cutoff in 0.5f64..50.0,
        stale_bits in prop::collection::vec(any::<bool>(), 64..65),
    ) {
        let n = loads.len();
        // Strictly fresh (cutoff/2) or strictly expired (2*cutoff) ages:
        // entries sampled that long before a decision at t = 0.
        let sampled: Vec<f64> = (0..n)
            .map(|i| if stale_bits[i] { -cutoff * 2.0 } else { -cutoff * 0.5 })
            .collect();
        let ages = EntryAges { sampled: &sampled, now: 0.0 };
        let any_valid = (0..n).any(|i| ages.get(i) <= cutoff);
        let view = LoadView { loads: &loads, info: InfoAge::Aged { age: 0.0 }, ages: Some(ages) };
        let mut rng = SimRng::from_seed(seed);
        // Inner policies that provably put zero mass on a Load::MAX entry
        // whenever a cheaper server exists (greedy, and LI at age 0).
        let inners = [PolicySpec::Greedy, PolicySpec::BasicLi { lambda: 0.9 }];
        for inner in inners {
            let mut p = PolicySpec::Gated { cutoff, inner: Box::new(inner.clone()) }.build();
            for _ in 0..8 {
                let s = p.select(&view, &mut rng);
                prop_assert!(s < n);
                if any_valid {
                    prop_assert!(
                        view.entry_age(s) <= cutoff,
                        "{} picked stale server {} (age {}, cutoff {})",
                        inner.label(), s, view.entry_age(s), cutoff
                    );
                }
            }
        }
    }

    /// When every entry is fresh the gate is transparent: selections are
    /// bit-identical to the bare inner policy on the same RNG stream.
    #[test]
    fn gate_is_transparent_when_fresh(
        loads in arb_loads(),
        seed in any::<u64>(),
        cutoff in 1.0f64..100.0,
        age_frac in 0.0f64..1.0,
    ) {
        let sampled = vec![-cutoff * age_frac; loads.len()];
        let ages = EntryAges { sampled: &sampled, now: 0.0 };
        let view = LoadView { loads: &loads, info: InfoAge::Aged { age: 1.0 }, ages: Some(ages) };
        let inner = PolicySpec::BasicLi { lambda: 0.9 };
        let mut bare = inner.build();
        let mut gated = PolicySpec::Gated { cutoff, inner: Box::new(inner) }.build();
        let mut rng_bare = SimRng::from_seed(seed);
        let mut rng_gated = SimRng::from_seed(seed);
        for _ in 0..16 {
            prop_assert_eq!(bare.select(&view, &mut rng_bare), gated.select(&view, &mut rng_gated));
        }
    }

    /// Threshold never selects a heavy server while a light one exists.
    #[test]
    fn threshold_prefers_light(loads in arb_loads(), seed in any::<u64>(), t in 0u32..50) {
        let mut rng = SimRng::from_seed(seed);
        let view = LoadView { loads: &loads, info: InfoAge::Aged { age: 1.0 }, ages: None };
        let mut p = PolicySpec::Threshold { threshold: t }.build();
        let any_light = loads.iter().any(|&l| l <= t);
        for _ in 0..16 {
            let s = p.select(&view, &mut rng);
            if any_light {
                prop_assert!(loads[s] <= t);
            }
        }
    }
}

proptest! {
    // Many cases: the switch between counting and sorting is the one
    // path choice in the water-fill, and each case lands on one side.
    #![proptest_config(ProptestConfig::with_cases(1024))]

    /// The binned water-fill reproduces the sorted scan bit for bit, on
    /// both sides of the `max − min < n` switch, with one scratch reused
    /// across calls.
    #[test]
    fn basic_li_matches_sorted_reference_bitwise(
        loads in arb_li_loads(),
        r_choice in 0usize..5,
        t in 0.001f64..100.0,
        warm in arb_li_loads(),
    ) {
        let r = pick_r(r_choice, loads.len(), t);
        let mut probs = Vec::new();
        let mut scratch = Vec::new();
        // Leave the buffers dirty from an unrelated call first.
        basic_li_probabilities(&warm, 1.0, &mut probs, &mut scratch);
        basic_li_probabilities(&loads, r, &mut probs, &mut scratch);
        let expected = if r <= 1e-9 { reference_indicator(&loads) } else { reference_basic(&loads, r) };
        prop_assert_eq!(bits(&probs), bits(&expected), "loads {:?} r {}", loads, r);
    }

    /// The aggressive schedule orders servers exactly as `sort_unstable`
    /// orders `(load, id)` pairs, and an in-place rebuild over dirty
    /// buffers equals a fresh build.
    #[test]
    fn aggressive_order_matches_sort_unstable(
        loads in arb_li_loads(),
        rate in 0.0f64..100.0,
        warm in arb_li_loads(),
    ) {
        let mut pairs: Vec<(u32, usize)> = loads.iter().copied().zip(0..).collect();
        pairs.sort_unstable();
        let expected: Vec<usize> = pairs.iter().map(|&(_, id)| id).collect();
        let fresh = aggressive_schedule(&loads, rate);
        prop_assert_eq!(fresh.active_servers(f64::INFINITY), &expected[..]);
        let mut reused = aggressive_schedule(&warm, 1.0);
        reused.rebuild(&loads, rate);
        prop_assert_eq!(reused.active_servers(f64::INFINITY), &expected[..]);
        prop_assert_eq!(
            reused.leveling_time().map(f64::to_bits),
            fresh.leveling_time().map(f64::to_bits)
        );
    }
}

/// Past `n·max = 2^53` the load sums round, and the sorted scan's rounding
/// depends on its summation order; the water-fill must then take the
/// sorted path even though the range is narrow.
#[test]
fn basic_li_matches_reference_when_sums_round() {
    let n = (1 << 21) + 3;
    let mut loads = vec![u32::MAX; n];
    for i in (0..n).step_by(7) {
        loads[i] = u32::MAX - 2;
    }
    for r in [1.0, 1e6] {
        let probs = compute_basic(&loads, r);
        let reference = reference_basic(&loads, r);
        let first_mismatch = (0..n).find(|&i| probs[i].to_bits() != reference[i].to_bits());
        assert_eq!(first_mismatch, None, "r {r}");
    }
}
