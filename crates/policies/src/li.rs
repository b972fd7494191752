//! The Load Interpretation (LI) probability calculations.
//!
//! These are the paper's Equations 2–5 as pure functions over a load vector
//! and an expected-arrival count `R = λ·n·T`, factored out of the policy
//! objects so they can be unit- and property-tested in isolation.

use crate::Load;

/// Smallest `R` treated as "some arrivals expected"; below this the phase is
/// effectively instantaneous and LI degenerates to least-loaded selection.
pub(crate) const MIN_EXPECTED_ARRIVALS: f64 = 1e-9;

/// Computes the Basic LI send probabilities (paper Eqs. 2–4).
///
/// Given reported loads and the expected number of arrivals `R` during the
/// information epoch, fills `probs[i]` with the probability that an arriving
/// request should go to server `i` so that, in expectation, the `R` arrivals
/// level the queues as far as possible by the end of the epoch:
///
/// 1. order servers by reported load: `q_1 ≤ q_2 ≤ … ≤ q_n` (paper indexing);
/// 2. find `c`, the number of least-loaded servers that should receive jobs:
///    the largest `c ∈ [1, n]` such that `R` suffices to bring servers
///    `1..c` up to the load of server `c`, i.e.
///    `Σ_{i≤c} (q_c − q_i) ≤ R` (Eq. 3) — always satisfiable at `c = 1`;
/// 3. the `c` least-loaded servers split the arrivals so they end level:
///    `p_i = ((Σ_{j≤c} q_j + R)/c − q_i) / R` for `i ≤ c`, 0 otherwise
///    (Eq. 4, which reduces to Eq. 2 when `c = n`).
///
/// This is water-filling: the bracketed term is the common *level* the `c`
/// receiving queues reach when the expected arrivals are poured in.
///
/// The order of step 1 is only materialised for wide load ranges. The
/// Eq. 3 cost is constant across servers of equal load, so `c` always ends
/// a group of tied loads, and step 2 can walk the distinct loads with their
/// multiplicities instead. When `max − min < n` the loads are binned by
/// `q − min` in one pass, so the whole call is O(n + range); wider ranges
/// are sorted in O(n log n). Both paths sum integer loads exactly in `f64`
/// and evaluate step 3 with one expression, so their probabilities are
/// bit-identical.
///
/// When `R` is (numerically) zero the epoch is too short for probabilistic
/// leveling; the function returns the least-loaded indicator distribution
/// (uniform over the minimum-load servers), the natural fresh-information
/// limit.
///
/// `scratch` is a reusable buffer (load bins or sort keys); contents are
/// overwritten.
///
/// # Panics
///
/// Panics if `loads` is empty or `expected_arrivals` is negative/NaN.
///
/// # Example
///
/// ```
/// use staleload_policies::basic_li_probabilities;
///
/// let mut probs = Vec::new();
/// let mut scratch = Vec::new();
/// // Two servers, queue lengths 0 and 4, expecting R = 8 arrivals:
/// // target level = (0 + 4 + 8)/2 = 6, so send 6/8 to the first, 2/8 to the second.
/// basic_li_probabilities(&[0, 4], 8.0, &mut probs, &mut scratch);
/// assert!((probs[0] - 0.75).abs() < 1e-12);
/// assert!((probs[1] - 0.25).abs() < 1e-12);
/// ```
pub fn basic_li_probabilities(
    loads: &[Load],
    expected_arrivals: f64,
    probs: &mut Vec<f64>,
    scratch: &mut Vec<u64>,
) {
    assert!(!loads.is_empty(), "loads must be non-empty");
    assert!(
        expected_arrivals.is_finite() && expected_arrivals >= 0.0,
        "expected arrivals must be a non-negative finite number, got {expected_arrivals}"
    );
    let n = loads.len();
    probs.clear();
    probs.resize(n, 0.0);

    if expected_arrivals <= MIN_EXPECTED_ARRIVALS {
        fill_least_loaded_indicator(loads, probs);
        return;
    }
    let r = expected_arrivals;

    // cost(c) = c·q_c − Σ_{i≤c} q_i is non-decreasing in c
    // (cost(c+1) − cost(c) = c·(q_(c+1) − q_c) ≥ 0) and cost(1) = 0, so one
    // ascending scan finds the paper's maximum: the sorted path keeps the
    // last satisfying c, the binned path stops at the first failing load.
    let Some(min) = bin_by_load(loads, scratch) else {
        sort_keys(loads, scratch);
        let mut c = 1usize;
        let mut prefix = f64::from(unpack(scratch[0]).0); // Σ of the c smallest loads
        let mut run = prefix;
        for (idx, &key) in scratch.iter().enumerate().skip(1) {
            let q = f64::from(unpack(key).0);
            run += q;
            let count = idx + 1;
            if count as f64 * q - run <= r {
                c = count;
                prefix = run;
            }
        }
        let level = (prefix + r) / c as f64;
        for &key in &scratch[..c] {
            let (q, server) = unpack(key);
            probs[server] = water_share(level, q, r);
        }
        return;
    };

    // Each bin is one tie group: adding it moves the count and the sum by
    // exact integers, and cost(c) at its last member is its cost throughout.
    let (mut c, mut prefix, mut cut) = (0usize, 0.0, min);
    let (mut count, mut run) = (0usize, 0.0);
    for (offset, &k) in scratch.iter().enumerate() {
        if k == 0 {
            continue;
        }
        let q = min + offset as Load;
        count += k as usize;
        run += k as f64 * f64::from(q);
        if count as f64 * f64::from(q) - run > r {
            break;
        }
        (c, prefix, cut) = (count, run, q);
    }
    let level = (prefix + r) / c as f64;
    for (p, &q) in probs.iter_mut().zip(loads) {
        if q <= cut {
            *p = water_share(level, q, r);
        }
    }
}

/// The Eq. 4 share of a receiving server with load `q`: the fraction of `r`
/// that lifts it to `level`. `level ≥ q_c ≥ q` by the choice of `c`; the
/// clamp absorbs rounding residue.
fn water_share(level: f64, q: Load, r: f64) -> f64 {
    ((level - f64::from(q)) / r).max(0.0)
}

/// The Aggressive LI subinterval schedule for one phase (paper Eq. 5).
///
/// Servers are sorted by reported load. During subinterval `i`
/// (zero-indexed), arrivals are spread uniformly over the `i + 1`
/// least-loaded servers, with the subinterval sized so those servers reach
/// the next reported load level exactly when it ends:
/// `τ_i = (i+1)·(q_(i+1) − q_i) / (λ·n)`. After the last breakpoint all
/// servers are (believed) level and arrivals are uniform for the rest of
/// the phase.
///
/// The default value is an empty schedule with no active servers; fill it
/// with [`AggressiveSchedule::rebuild`].
#[derive(Debug, Clone, Default)]
pub struct AggressiveSchedule {
    /// `ends[i]` = elapsed time at which subinterval `i` finishes
    /// (cumulative `τ`), for `i = 0..n-1`; the final "uniform" regime has no
    /// end.
    ends: Vec<f64>,
    /// Sorted server order: `order[j]` is the id of the `j`-th least-loaded
    /// server.
    order: Vec<usize>,
    /// Load bins or sort keys for the next rebuild.
    scratch: Vec<u64>,
}

/// Builds the Aggressive LI schedule for the given reported loads and total
/// arrival rate `λ·n` (jobs per unit time across the whole system).
///
/// A non-positive arrival rate yields a schedule that never advances past
/// the first subinterval (all traffic to the least-loaded server), matching
/// the `R → 0` degenerate case of Basic LI.
///
/// # Panics
///
/// Panics if `loads` is empty or `total_rate` is NaN.
///
/// # Example
///
/// ```
/// use staleload_policies::aggressive_schedule;
///
/// let schedule = aggressive_schedule(&[2, 0, 1], 1.0);
/// // Early in the phase only the least-loaded server (id 1) is active.
/// assert_eq!(schedule.active_count(0.0), 1);
/// assert_eq!(schedule.active_servers(0.0), &[1]);
/// // Eventually all three share the traffic uniformly.
/// assert_eq!(schedule.active_count(1e6), 3);
/// ```
pub fn aggressive_schedule(loads: &[Load], total_rate: f64) -> AggressiveSchedule {
    let mut schedule = AggressiveSchedule::default();
    schedule.rebuild(loads, total_rate);
    schedule
}

impl AggressiveSchedule {
    /// Recomputes the schedule in place for new loads and total arrival
    /// rate, reusing its buffers; the result equals
    /// [`aggressive_schedule`]`(loads, total_rate)`.
    ///
    /// # Panics
    ///
    /// Panics if `loads` is empty or `total_rate` is NaN.
    pub fn rebuild(&mut self, loads: &[Load], total_rate: f64) {
        assert!(!loads.is_empty(), "loads must be non-empty");
        assert!(!total_rate.is_nan(), "total rate must not be NaN");
        sort_by_load(loads, &mut self.scratch, &mut self.order);

        self.ends.clear();
        let mut cum = 0.0;
        for (i, pair) in self.order.windows(2).enumerate() {
            let step = f64::from(loads[pair[1]]) - f64::from(loads[pair[0]]);
            let tau = if total_rate > 0.0 {
                (i + 1) as f64 * step / total_rate
            } else if step > 0.0 {
                f64::INFINITY
            } else {
                0.0
            };
            cum += tau;
            self.ends.push(cum);
        }
    }

    /// Number of least-loaded servers receiving traffic at `elapsed` time
    /// since the information was sampled.
    pub fn active_count(&self, elapsed: f64) -> usize {
        // Subinterval i covers [ends[i-1], ends[i]); zero-length
        // subintervals (load ties) are skipped by the non-strict comparison.
        let idx = self.ends.partition_point(|&e| e <= elapsed);
        (idx + 1).min(self.order.len())
    }

    /// The ids of the servers receiving traffic at `elapsed`.
    pub fn active_servers(&self, elapsed: f64) -> &[usize] {
        &self.order[..self.active_count(elapsed)]
    }

    /// Elapsed time after which all servers are active (`None` for a
    /// single-server schedule, `Some(+inf)` when the rate was zero and the
    /// loads were unequal).
    pub fn leveling_time(&self) -> Option<f64> {
        self.ends.last().copied()
    }
}

/// Writes the uniform-over-minima indicator distribution into `probs`.
fn fill_least_loaded_indicator(loads: &[Load], probs: &mut [f64]) {
    let min = *loads.iter().min().expect("non-empty loads");
    let ties = loads.iter().filter(|&&l| l == min).count();
    let p = 1.0 / ties as f64;
    for (i, &l) in loads.iter().enumerate() {
        probs[i] = if l == min { p } else { 0.0 };
    }
}

/// Counts `loads` into `bins` (`bins[b]` = servers reporting `min + b`) and
/// returns `min`, when counting is the cheaper way to order them: the range
/// `max − min` is below the server count `n`. It also requires
/// `n·max ≤ 2^53`, so every partial sum of loads is an exact `f64` integer
/// in any order. Otherwise returns `None` and leaves `bins` untouched.
fn bin_by_load(loads: &[Load], bins: &mut Vec<u64>) -> Option<Load> {
    let (mut min, mut max) = (Load::MAX, Load::MIN);
    for &q in loads {
        min = min.min(q);
        max = max.max(q);
    }
    let n = loads.len();
    let range = (max - min) as usize;
    if range >= n || (n as u64).saturating_mul(u64::from(max)) > 1 << 53 {
        return None;
    }
    bins.clear();
    bins.resize(range + 1, 0);
    for &q in loads {
        bins[(q - min) as usize] += 1;
    }
    Some(min)
}

/// Fills `keys` with `(load, server)` packed as `load << 32 | server` and
/// sorts them: ascending by load, ties by server id (deterministic; the
/// paper breaks ties arbitrarily). Server ids must fit in 32 bits.
fn sort_keys(loads: &[Load], keys: &mut Vec<u64>) {
    assert!(loads.len() as u64 <= 1 << 32, "at most 2^32 servers");
    keys.clear();
    keys.extend(
        loads
            .iter()
            .zip(0u64..)
            .map(|(&q, id)| u64::from(q) << 32 | id),
    );
    keys.sort_unstable();
}

/// Splits a [`sort_keys`] key back into `(load, server)`.
fn unpack(key: u64) -> (Load, usize) {
    ((key >> 32) as Load, (key & u64::from(u32::MAX)) as usize)
}

/// Writes the server ids into `order` ascending by load, ties by server id:
/// the order of [`sort_keys`]. Narrow loads go through a stable counting
/// sort over their bins, wide ones through the key sort.
fn sort_by_load(loads: &[Load], scratch: &mut Vec<u64>, order: &mut Vec<usize>) {
    order.clear();
    let Some(min) = bin_by_load(loads, scratch) else {
        sort_keys(loads, scratch);
        order.extend(scratch.iter().map(|&key| unpack(key).1));
        return;
    };
    // Exclusive prefix sums turn each bin's count into its first slot.
    let mut next = 0;
    for slot in scratch.iter_mut() {
        next += std::mem::replace(slot, next);
    }
    order.resize(loads.len(), 0);
    for (server, &q) in loads.iter().enumerate() {
        let slot = &mut scratch[(q - min) as usize];
        order[*slot as usize] = server;
        *slot += 1;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn basic(loads: &[Load], r: f64) -> Vec<f64> {
        let mut probs = Vec::new();
        let mut scratch = Vec::new();
        basic_li_probabilities(loads, r, &mut probs, &mut scratch);
        probs
    }

    fn assert_distribution(probs: &[f64]) {
        let sum: f64 = probs.iter().sum();
        assert!((sum - 1.0).abs() < 1e-9, "sum {sum} of {probs:?}");
        assert!(probs.iter().all(|&p| p >= 0.0), "{probs:?}");
    }

    #[test]
    fn equal_loads_give_uniform() {
        let probs = basic(&[3, 3, 3, 3], 10.0);
        assert_distribution(&probs);
        for &p in &probs {
            assert!((p - 0.25).abs() < 1e-12);
        }
    }

    #[test]
    fn eq2_regime_matches_hand_computation() {
        // Loads 0 and 4 with R = 8: level 6, p = [6/8, 2/8].
        let probs = basic(&[0, 4], 8.0);
        assert_distribution(&probs);
        assert!((probs[0] - 0.75).abs() < 1e-12);
        assert!((probs[1] - 0.25).abs() < 1e-12);
    }

    #[test]
    fn short_phase_concentrates_on_least_loaded() {
        // R = 5 cannot bring server 0 (load 0) up to server 1 (load 10):
        // everything goes to server 0 (the c = 1 case).
        let probs = basic(&[0, 10], 5.0);
        assert_eq!(probs, vec![1.0, 0.0]);
    }

    #[test]
    fn partial_fill_splits_by_water_level() {
        // Loads [0, 2, 10], R = 5: c = 2 (filling both to load 2 costs 2 ≤ 5,
        // filling all three to 10 costs 18 > 5); level = (0+2+5)/2 = 3.5
        // ⇒ p = [0.7, 0.3, 0].
        let probs = basic(&[0, 2, 10], 5.0);
        assert_distribution(&probs);
        assert!((probs[0] - 0.7).abs() < 1e-12, "{probs:?}");
        assert!((probs[1] - 0.3).abs() < 1e-12, "{probs:?}");
        assert_eq!(probs[2], 0.0);
    }

    #[test]
    fn tied_minimum_servers_share_equally() {
        // Two idle servers and one far-away queue: the idle pair splits the
        // traffic evenly even though R cannot reach the heavy server.
        let probs = basic(&[0, 0, 100], 10.0);
        assert_distribution(&probs);
        assert_eq!(probs[2], 0.0);
        assert!((probs[0] - 0.5).abs() < 1e-12);
        assert!((probs[1] - 0.5).abs() < 1e-12);
    }

    #[test]
    fn zero_r_degenerates_to_least_loaded() {
        let probs = basic(&[2, 0, 1, 0], 0.0);
        assert_distribution(&probs);
        assert_eq!(probs, vec![0.0, 0.5, 0.0, 0.5]);
    }

    #[test]
    fn huge_r_approaches_uniform() {
        let probs = basic(&[5, 0, 9, 2], 1e9);
        assert_distribution(&probs);
        for &p in &probs {
            assert!((p - 0.25).abs() < 1e-6, "{probs:?}");
        }
    }

    #[test]
    fn exact_boundary_r_levels_the_receiving_set() {
        // R exactly fills servers {0,1} to load 2 (cost 2): level = 2,
        // p = [1, 0, 0] — the boundary server receives mass 0 either way,
        // so both sides of the boundary agree.
        let probs = basic(&[0, 2, 10], 2.0);
        assert_distribution(&probs);
        assert!((probs[0] - 1.0).abs() < 1e-12, "{probs:?}");
        assert_eq!(probs[2], 0.0);
    }

    #[test]
    fn probabilities_are_permutation_equivariant() {
        let a = basic(&[1, 7, 3], 5.0);
        let b = basic(&[7, 3, 1], 5.0);
        assert!((a[0] - b[2]).abs() < 1e-12);
        assert!((a[1] - b[0]).abs() < 1e-12);
        assert!((a[2] - b[1]).abs() < 1e-12);
    }

    #[test]
    fn expected_fill_levels_queues() {
        // Sanity: sending R·p_i jobs to each receiving server levels them.
        let loads = [1u32, 4, 6, 30];
        let r = 20.0;
        let probs = basic(&loads, r);
        assert_distribution(&probs);
        let levels: Vec<f64> = loads
            .iter()
            .zip(&probs)
            .map(|(&q, &p)| f64::from(q) + r * p)
            .collect();
        // Receivers all end at the same level; non-receivers stay put.
        let receiving: Vec<f64> = probs
            .iter()
            .zip(&levels)
            .filter(|(&p, _)| p > 0.0)
            .map(|(_, &l)| l)
            .collect();
        for w in receiving.windows(2) {
            assert!((w[0] - w[1]).abs() < 1e-9, "{levels:?}");
        }
        // And no receiver overshoots a non-receiver.
        let level = receiving[0];
        for (&q, &p) in loads.iter().zip(&probs) {
            if p == 0.0 {
                assert!(f64::from(q) >= level - 1e-9, "{levels:?}");
            }
        }
    }

    #[test]
    fn single_server_gets_everything() {
        assert_eq!(basic(&[42], 3.0), vec![1.0]);
        let s = aggressive_schedule(&[42], 1.0);
        assert_eq!(s.active_count(0.0), 1);
        assert_eq!(s.leveling_time(), None);
    }

    #[test]
    fn aggressive_schedule_breakpoints() {
        // Loads [0, 1, 3] at total rate 2:
        // τ_0 = 1·(1-0)/2 = 0.5 ; τ_1 = 2·(3-1)/2 = 2.0 ⇒ ends [0.5, 2.5].
        let s = aggressive_schedule(&[0, 1, 3], 2.0);
        assert_eq!(s.active_count(0.0), 1);
        assert_eq!(s.active_count(0.49), 1);
        assert_eq!(s.active_count(0.5), 2);
        assert_eq!(s.active_count(2.49), 2);
        assert_eq!(s.active_count(2.5), 3);
        assert_eq!(s.active_count(1e9), 3);
        assert!((s.leveling_time().unwrap() - 2.5).abs() < 1e-12);
    }

    #[test]
    fn aggressive_schedule_orders_servers_by_load() {
        let s = aggressive_schedule(&[5, 0, 2], 1.0);
        assert_eq!(s.active_servers(0.0), &[1]);
        assert_eq!(s.active_servers(1e9), &[1, 2, 0]);
    }

    #[test]
    fn aggressive_ties_skip_zero_length_subintervals() {
        // Two servers tied at the minimum: the first subinterval has zero
        // length, so both are active immediately.
        let s = aggressive_schedule(&[0, 0, 4], 1.0);
        assert_eq!(s.active_count(0.0), 2);
    }

    #[test]
    fn aggressive_zero_rate_never_levels() {
        let s = aggressive_schedule(&[0, 1], 0.0);
        assert_eq!(s.active_count(1e12), 1);
        assert_eq!(s.leveling_time(), Some(f64::INFINITY));
    }

    #[test]
    fn aggressive_zero_rate_with_ties_still_shares_minimum() {
        let s = aggressive_schedule(&[0, 0, 4], 0.0);
        assert_eq!(s.active_count(0.0), 2);
        assert_eq!(s.active_count(1e12), 2);
    }

    #[test]
    fn all_equal_loads_are_immediately_uniform() {
        let s = aggressive_schedule(&[2, 2, 2], 1.0);
        assert_eq!(s.active_count(0.0), 3);
        assert_eq!(s.leveling_time(), Some(0.0));
    }
}
