//! A staleness gate that masks entries older than a cutoff (fault-injection
//! extension).
//!
//! Under fault injection (crashed servers, dropped board refreshes) the
//! entries of a bulletin board no longer share one age: some are fresh,
//! some arbitrarily stale. The paper's policies interpret the *advertised*
//! age, so a stale entry's flattering queue length draws traffic long after
//! it stopped meaning anything. [`StalenessGate`] wraps any inner policy and
//! excludes entries whose individual age exceeds a cutoff, renormalizing the
//! inner policy's choice over the survivors.

use staleload_sim::SimRng;

use crate::{Load, LoadView, Policy, PolicyTelemetry};

/// Wraps an inner policy, hiding board entries older than `cutoff`.
///
/// Entries with [`LoadView::entry_age`] above the cutoff are masked to
/// [`Load::MAX`] before the inner policy sees the view: least-loaded style
/// policies never pick a maximal queue when a smaller one exists, threshold
/// policies classify it heavy, and the LI water-filling assigns it
/// vanishing probability — so the inner policy's probability mass
/// renormalizes over the valid servers. If *every* entry is stale the gate
/// falls back to uniform random (the paper's "interpret extreme staleness
/// as no information" limit, §4.2).
///
/// For views without per-entry ages the gate compares the view-wide age
/// against the cutoff: all entries valid (delegate untouched) or all stale
/// (uniform random).
#[derive(Debug)]
pub struct StalenessGate<P> {
    inner: P,
    cutoff: f64,
    /// Scratch buffer for the masked copy of the loads.
    masked: Vec<Load>,
}

impl<P: Policy> StalenessGate<P> {
    /// Gates `inner` behind a staleness `cutoff` (same time units as the
    /// simulation clock).
    ///
    /// # Panics
    ///
    /// Panics if `cutoff` is negative or NaN.
    pub fn new(inner: P, cutoff: f64) -> Self {
        assert!(
            cutoff >= 0.0,
            "staleness cutoff must be non-negative, got {cutoff}"
        );
        Self {
            inner,
            cutoff,
            masked: Vec::new(),
        }
    }

    /// The wrapped policy.
    pub fn inner(&self) -> &P {
        &self.inner
    }

    /// The staleness cutoff.
    pub fn cutoff(&self) -> f64 {
        self.cutoff
    }
}

impl<P: Policy> Policy for StalenessGate<P> {
    fn select(&mut self, view: &LoadView<'_>, rng: &mut SimRng) -> usize {
        self.select_sized(view, 1.0, rng)
    }

    fn select_sized(&mut self, view: &LoadView<'_>, size: f64, rng: &mut SimRng) -> usize {
        let n = view.loads.len();
        let Some(ages) = view.ages else {
            // No per-entry ages: the whole view shares one age.
            if view.info.elapsed() > self.cutoff {
                return rng.index(n);
            }
            return self.inner.select_sized(view, size, rng);
        };
        let mut valid = 0usize;
        self.masked.clear();
        self.masked
            .extend(view.loads.iter().enumerate().map(|(server, &load)| {
                if ages.get(server) <= self.cutoff {
                    valid += 1;
                    load
                } else {
                    Load::MAX
                }
            }));
        if valid == 0 {
            return rng.index(n);
        }
        let gated = LoadView {
            loads: &self.masked,
            info: view.info,
            ages: view.ages,
        };
        self.inner.select_sized(&gated, size, rng)
    }

    fn observe_arrival(&mut self, now: f64) {
        self.inner.observe_arrival(now);
    }

    fn telemetry(&self) -> PolicyTelemetry {
        self.inner.telemetry()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{BasicLi, EntryAges, Greedy, InfoAge, Random};

    /// A view at `now = 0` whose entries were sampled at `sampled`, so
    /// entry `i` is exactly `-sampled[i]` old.
    fn aged_view<'a>(loads: &'a [Load], sampled: &'a [f64]) -> LoadView<'a> {
        LoadView {
            loads,
            info: InfoAge::Aged { age: 1.0 },
            ages: Some(EntryAges { sampled, now: 0.0 }),
        }
    }

    #[test]
    fn stale_entry_is_never_selected() {
        let mut rng = SimRng::from_seed(1);
        let mut gate = StalenessGate::new(Greedy, 5.0);
        // Server 0 looks idle but its entry is 20 time units old.
        let view = aged_view(&[0, 2, 3], &[-20.0, -1.0, -1.0]);
        for _ in 0..200 {
            assert_ne!(gate.select(&view, &mut rng), 0);
        }
    }

    #[test]
    fn all_stale_falls_back_to_uniform_random() {
        let mut rng = SimRng::from_seed(2);
        let mut gate = StalenessGate::new(Greedy, 5.0);
        let view = aged_view(&[0, 9, 9], &[-10.0, -10.0, -10.0]);
        let mut seen = [0usize; 3];
        for _ in 0..3000 {
            seen[gate.select(&view, &mut rng)] += 1;
        }
        for (i, &count) in seen.iter().enumerate() {
            let f = count as f64 / 3000.0;
            assert!((f - 1.0 / 3.0).abs() < 0.05, "server {i}: {f}");
        }
    }

    #[test]
    fn fresh_entries_delegate_unchanged() {
        let mut rng_a = SimRng::from_seed(3);
        let mut rng_b = SimRng::from_seed(3);
        let mut gate = StalenessGate::new(BasicLi::new(0.9), 5.0);
        let mut plain = BasicLi::new(0.9);
        let loads = [4, 0, 2, 1];
        let sampled = [-1.0; 4];
        let view = aged_view(&loads, &sampled);
        for _ in 0..100 {
            assert_eq!(
                gate.select(&view, &mut rng_a),
                plain.select(&view, &mut rng_b)
            );
        }
    }

    #[test]
    fn uniform_age_views_gate_as_a_whole() {
        let mut rng = SimRng::from_seed(4);
        let mut gate = StalenessGate::new(Greedy, 5.0);
        let loads = [0u32, 9, 9];
        let fresh = LoadView {
            loads: &loads,
            info: InfoAge::Aged { age: 1.0 },
            ages: None,
        };
        assert_eq!(
            gate.select(&fresh, &mut rng),
            0,
            "under the cutoff: delegate"
        );
        let stale = LoadView {
            loads: &loads,
            info: InfoAge::Aged { age: 50.0 },
            ages: None,
        };
        let mut seen = [0usize; 3];
        for _ in 0..3000 {
            seen[gate.select(&stale, &mut rng)] += 1;
        }
        assert!(
            seen.iter().all(|&c| c > 0),
            "over the cutoff: uniform random {seen:?}"
        );
    }

    #[test]
    fn renormalizes_li_mass_over_valid_servers() {
        let mut rng = SimRng::from_seed(5);
        let mut gate = StalenessGate::new(BasicLi::new(0.9), 5.0);
        // Both valid servers are busier than the stale one claims to be.
        let view = aged_view(&[0, 3, 3], &[-30.0, -0.5, -0.5]);
        let mut seen = [0usize; 3];
        for _ in 0..2000 {
            seen[gate.select(&view, &mut rng)] += 1;
        }
        assert_eq!(seen[0], 0, "stale server draws no LI mass");
        assert!(
            seen[1] > 0 && seen[2] > 0,
            "mass renormalizes over valid servers {seen:?}"
        );
    }

    #[test]
    fn observe_arrival_reaches_inner_policy() {
        let mut gate = StalenessGate::new(Random, 1.0);
        gate.observe_arrival(3.0); // must not panic; Random ignores it
        assert_eq!(gate.cutoff(), 1.0);
    }
}
