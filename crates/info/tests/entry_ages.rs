//! Lazy per-entry ages: every board that reports [`LoadView::ages`]
//! must derive, for each entry, exactly the age an eager scan would have
//! written — `(now - entry_times[i]).max(0.0)`, bit for bit — under the
//! faults that make entries age independently (lossy and delayed
//! refreshes, crashed servers).

use staleload_cluster::{Cluster, Job};
use staleload_info::{
    EwmaBoard, IndividualBoard, InfoModel, LossSpec, MultiHorizonBoard, PeriodicBoard,
};
use staleload_policies::LoadView;
use staleload_sim::SimRng;

const SERVERS: usize = 6;
const STEPS: usize = 2_000;

/// Drives `board` through a random history of arrivals, completions,
/// crashes and recoveries, and checks every view's per-entry ages against
/// the eager expression over the board's entry times. Returns how many
/// views showed an entry older than the view-wide elapsed time (entries
/// the faults left behind).
fn check_board<M: InfoModel>(label: &str, mut board: M, entry_times: fn(&M) -> &[f64]) -> usize {
    let mut drive = SimRng::from_seed(0xA9E5);
    let mut view_rng = SimRng::from_seed(7);
    let mut cluster = Cluster::new(SERVERS);
    let mut now = 0.0;
    let mut next_id = 0u64;
    let mut lagging_views = 0;
    for step in 0..STEPS {
        now += drive.exp(0.7);
        while let Some(t) = board.next_event() {
            if t > now {
                break;
            }
            board.on_event(t, &cluster);
        }
        let server = drive.index(SERVERS);
        if cluster.is_up(server) {
            if drive.chance(0.55) {
                cluster.enqueue(server, Job::new(next_id, now, 1.0), now);
                next_id += 1;
            } else if cluster.load(server) > 0 {
                cluster.complete(server, now);
            } else if drive.chance(0.1) {
                cluster.crash(server, now);
            }
        } else if drive.chance(0.2) {
            cluster.recover(server, now, None);
        }
        // Now and then look from before the newest samples, so the
        // clamp at zero is exercised too.
        let at = if drive.chance(0.05) { now - 3.0 } else { now };
        let times = entry_times(&board).to_vec();
        let view: LoadView<'_> = board.view(at, 0, &mut cluster, &mut view_rng);
        assert!(view.ages.is_some(), "{label}: boards report per-entry ages");
        let elapsed = view.info.elapsed();
        let mut lagging = false;
        for (i, &sampled) in times.iter().enumerate() {
            let eager = (at - sampled).max(0.0);
            assert_eq!(
                view.entry_age(i).to_bits(),
                eager.to_bits(),
                "{label}: entry {i} at step {step} (t = {at})"
            );
            lagging |= eager > elapsed;
        }
        lagging_views += usize::from(lagging);
    }
    lagging_views
}

#[test]
fn periodic_board_with_loss_and_crashes_matches_eager_ages() {
    let loss = LossSpec {
        drop_prob: 0.3,
        delay_mean: 2.0,
    };
    let board = PeriodicBoard::with_loss(SERVERS, 5.0, loss, SimRng::from_seed(3));
    let lagging = check_board("periodic", board, PeriodicBoard::entry_times);
    assert!(lagging > 0, "faults must leave some entry behind the phase");
}

#[test]
fn plain_periodic_board_matches_eager_ages() {
    check_board(
        "periodic",
        PeriodicBoard::new(SERVERS, 5.0),
        PeriodicBoard::entry_times,
    );
}

#[test]
fn ewma_board_matches_eager_ages() {
    let lagging = check_board(
        "ewma",
        EwmaBoard::new(SERVERS, 5.0, 0.4),
        EwmaBoard::entry_times,
    );
    assert!(lagging > 0, "crashed servers' entries must fall behind");
}

#[test]
fn multi_horizon_board_matches_eager_ages() {
    let lagging = check_board(
        "multi-horizon",
        MultiHorizonBoard::new(SERVERS, 5.0, [5.0, 15.0, 35.0]),
        MultiHorizonBoard::entry_times,
    );
    assert!(lagging > 0, "crashed servers' entries must fall behind");
}

#[test]
fn individual_board_with_loss_and_crashes_matches_eager_ages() {
    let board = IndividualBoard::with_loss(SERVERS, 5.0, LossSpec::drop(0.3), SimRng::from_seed(5));
    check_board("individual", board, IndividualBoard::entry_times);
}
