//! Per-server load history for delayed (stale) views.

use std::collections::VecDeque;

/// A record of each server's load changes over a sliding window of time.
///
/// The continuous-update model of old information (paper §3.1) lets every
/// arriving job observe the *exact* system state some delay `d` in the past.
/// `LoadHistory` supports that query precisely: each server keeps a
/// time-ordered list of `(time, load)` change points, pruned to a
/// configurable window.
///
/// Queries older than the retained window are answered with the oldest
/// retained entry and counted in [`LoadHistory::misses`], so a simulation can
/// verify that its window was wide enough (the drivers in `staleload-core`
/// assert this in tests).
#[derive(Debug, Clone)]
pub struct LoadHistory {
    per_server: Vec<VecDeque<(f64, u32)>>,
    pruned: Vec<bool>,
    keep_window: f64,
    misses: u64,
}

/// The recyclable allocations of one retired [`LoadHistory`]: its
/// per-server change-point deques and the pruned flags.
type PooledBuffers = (Vec<VecDeque<(f64, u32)>>, Vec<bool>);

thread_local! {
    /// Change-point deques recycled across trials on one worker thread.
    /// Only capacity survives: [`LoadHistory::new`] clears every deque.
    static HISTORY_POOL: std::cell::RefCell<Vec<PooledBuffers>> =
        const { std::cell::RefCell::new(Vec::new()) };
}

const HISTORY_POOL_DEPTH: usize = 4;

impl Drop for LoadHistory {
    fn drop(&mut self) {
        let _ = HISTORY_POOL.try_with(|pool| {
            let mut pool = pool.borrow_mut();
            if pool.len() < HISTORY_POOL_DEPTH {
                pool.push((
                    std::mem::take(&mut self.per_server),
                    std::mem::take(&mut self.pruned),
                ));
            }
        });
    }
}

impl LoadHistory {
    /// Creates a history for `n` servers retaining roughly `keep_window`
    /// time units of change points.
    ///
    /// # Panics
    ///
    /// Panics if `keep_window` is negative or NaN.
    pub fn new(n: usize, keep_window: f64) -> Self {
        assert!(keep_window >= 0.0, "keep_window must be non-negative");
        if let Some((mut per_server, mut pruned)) =
            HISTORY_POOL.with(|pool| pool.borrow_mut().pop())
        {
            for deque in &mut per_server {
                deque.clear();
            }
            per_server.resize(n, VecDeque::new());
            pruned.clear();
            pruned.resize(n, false);
            return Self {
                per_server,
                pruned,
                keep_window,
                misses: 0,
            };
        }
        Self {
            per_server: vec![VecDeque::new(); n],
            pruned: vec![false; n],
            keep_window,
            misses: 0,
        }
    }

    /// Records that `server`'s load became `load` at time `now`.
    ///
    /// Times must be non-decreasing per server (simulation time never runs
    /// backwards).
    pub fn record(&mut self, server: usize, now: f64, load: u32) {
        let h = &mut self.per_server[server];
        debug_assert!(
            h.back().is_none_or(|&(t, _)| t <= now),
            "history time went backwards"
        );
        h.push_back((now, load));
        // Prune, but always keep at least one entry at or before the window
        // start so old queries still resolve to the correct value.
        let horizon = now - self.keep_window;
        while h.len() >= 2 && h[1].0 <= horizon {
            h.pop_front();
            self.pruned[server] = true;
        }
    }

    /// Fills `out` with every server's load as of time `at`.
    pub fn fill_loads_at(&mut self, at: f64, out: &mut Vec<u32>) {
        out.clear();
        for server in 0..self.per_server.len() {
            let h = &self.per_server[server];
            let idx = h.partition_point(|&(t, _)| t <= at);
            if idx == 0 {
                match h.front() {
                    // History was pruned past `at`: best effort, count it.
                    Some(&(t, l)) if t > at && self.pruned[server] => {
                        self.misses += 1;
                        out.push(l);
                    }
                    // Genuinely before the server's first job: idle.
                    _ => out.push(0),
                }
            } else {
                out.push(h[idx - 1].1);
            }
        }
    }

    /// Number of queries answered inexactly because the window was too short.
    pub fn misses(&self) -> u64 {
        self.misses
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Server 0's load as of `at`, through the one query path.
    fn load_of_first(h: &mut LoadHistory, at: f64) -> u32 {
        let mut out = Vec::new();
        h.fill_loads_at(at, &mut out);
        out[0]
    }

    #[test]
    fn fill_loads_at_steps_through_changes() {
        let mut h = LoadHistory::new(1, 1e9);
        h.record(0, 1.0, 1);
        h.record(0, 2.0, 2);
        h.record(0, 3.0, 1);
        assert_eq!(load_of_first(&mut h, 0.5), 0);
        assert_eq!(load_of_first(&mut h, 1.0), 1);
        assert_eq!(load_of_first(&mut h, 1.9), 1);
        assert_eq!(load_of_first(&mut h, 2.0), 2);
        assert_eq!(load_of_first(&mut h, 2.5), 2);
        assert_eq!(load_of_first(&mut h, 10.0), 1);
        assert_eq!(h.misses(), 0);
    }

    #[test]
    fn pruning_keeps_window_queries_exact() {
        let mut h = LoadHistory::new(1, 10.0);
        for i in 0..1000 {
            let t = i as f64;
            h.record(0, t, (i % 5 + 1) as u32);
        }
        // Queries inside the window: exact.
        assert_eq!(load_of_first(&mut h, 995.5), 1); // 995 % 5 + 1
        assert_eq!(load_of_first(&mut h, 992.3), (992 % 5 + 1) as u32);
        assert_eq!(h.misses(), 0);
        // A query older than the window answers with the oldest retained
        // entry and counts a miss.
        let oldest = h.per_server[0][0].1;
        assert_eq!(load_of_first(&mut h, 10.0), oldest);
        assert_eq!(h.misses(), 1);
    }

    #[test]
    fn pruning_bounds_memory() {
        let mut h = LoadHistory::new(1, 5.0);
        for i in 0..100_000 {
            h.record(0, i as f64 * 0.01, 1 + (i % 3) as u32);
        }
        // 5.0 time units at 0.01 spacing is ~500 entries, plus slack.
        assert!(
            h.per_server[0].len() < 1000,
            "len {}",
            h.per_server[0].len()
        );
    }

    #[test]
    fn miss_counter_detects_too_old_queries() {
        let mut h = LoadHistory::new(1, 1.0);
        for i in 0..100 {
            h.record(0, i as f64, 2 + (i % 3) as u32);
        }
        let mut out = Vec::new();
        h.fill_loads_at(0.5, &mut out);
        assert!(h.misses() > 0);
    }

    #[test]
    fn before_first_event_is_idle() {
        let mut h = LoadHistory::new(2, 100.0);
        h.record(0, 5.0, 1);
        let mut out = Vec::new();
        h.fill_loads_at(1.0, &mut out);
        assert_eq!(out, &[0, 0]);
        assert_eq!(h.misses(), 0);
    }
}
