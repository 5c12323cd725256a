//! Search outcome records: best implementation found, learning curve,
//! time-to-solution.

use serde::{Deserialize, Serialize};

use qsdnn_engine::Assignment;

/// One episode of a search: the ε used, the cost of the sampled
/// implementation, and the best cost seen so far (the Fig. 4 / Fig. 5
/// series).
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct EpisodeRecord {
    /// Episode index (0-based).
    pub episode: usize,
    /// Exploration rate used for this episode.
    pub epsilon: f64,
    /// Network latency of the episode's sampled implementation (ms).
    pub cost_ms: f64,
    /// Best latency seen up to and including this episode (ms).
    pub best_so_far_ms: f64,
}

/// Full result of one search run.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct SearchReport {
    /// Search method name (`"qs-dnn"`, `"random"`, …).
    pub method: String,
    /// Network the LUT was profiled from.
    pub network: String,
    /// Best assignment found (candidate index per layer).
    pub best_assignment: Assignment,
    /// Latency of the best assignment (ms).
    pub best_cost_ms: f64,
    /// Episodes executed.
    pub episodes: usize,
    /// Per-episode learning curve.
    pub curve: Vec<EpisodeRecord>,
    /// Wall-clock search duration (ms) — the paper's "time to solution".
    pub wall_time_ms: f64,
}

impl SearchReport {
    /// Best-so-far latency after `episodes` episodes (for budgeted
    /// comparisons like Fig. 5); falls back to the final best.
    ///
    /// Records are looked up by their `episode` index, not by position,
    /// so a down-sampled curve answers with the last record it kept
    /// before the budget ran out.
    pub fn best_after(&self, episodes: usize) -> f64 {
        if episodes == 0 {
            return f64::INFINITY;
        }
        // `checked_sub` guards the empty-curve case (e.g. chain-DP reports),
        // which would otherwise underflow and panic in debug builds.
        match self
            .curve
            .partition_point(|r| r.episode < episodes)
            .checked_sub(1)
        {
            Some(last) => self.curve[last].best_so_far_ms,
            None => self.best_cost_ms,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn report() -> SearchReport {
        SearchReport {
            method: "test".into(),
            network: "net".into(),
            best_assignment: vec![0, 1],
            best_cost_ms: 1.0,
            episodes: 3,
            curve: vec![
                EpisodeRecord {
                    episode: 0,
                    epsilon: 1.0,
                    cost_ms: 5.0,
                    best_so_far_ms: 5.0,
                },
                EpisodeRecord {
                    episode: 1,
                    epsilon: 1.0,
                    cost_ms: 2.0,
                    best_so_far_ms: 2.0,
                },
                EpisodeRecord {
                    episode: 2,
                    epsilon: 0.5,
                    cost_ms: 3.0,
                    best_so_far_ms: 2.0,
                },
            ],
            wall_time_ms: 0.1,
        }
    }

    #[test]
    fn best_after_walks_the_curve() {
        let r = report();
        assert_eq!(r.best_after(1), 5.0);
        assert_eq!(r.best_after(2), 2.0);
        assert_eq!(r.best_after(3), 2.0);
        assert_eq!(r.best_after(100), 2.0);
        assert!(r.best_after(0).is_infinite());
    }

    #[test]
    fn best_after_reads_a_down_sampled_curve_by_episode() {
        // Episodes 0, 4 and 9 of a ten-episode run.
        let point = |episode, best_so_far_ms| EpisodeRecord {
            episode,
            epsilon: 1.0,
            cost_ms: best_so_far_ms,
            best_so_far_ms,
        };
        let r = SearchReport {
            episodes: 10,
            curve: vec![point(0, 5.0), point(4, 3.0), point(9, 2.0)],
            ..report()
        };
        assert_eq!(r.best_after(1), 5.0);
        assert_eq!(r.best_after(2), 5.0, "episode 1 was not kept: still 5.0");
        assert_eq!(r.best_after(4), 5.0);
        assert_eq!(r.best_after(5), 3.0);
        assert_eq!(r.best_after(9), 3.0);
        assert_eq!(r.best_after(10), 2.0);
        assert_eq!(r.best_after(100), 2.0);
        assert!(r.best_after(0).is_infinite());
    }

    #[test]
    fn serde_roundtrip() {
        let r = report();
        let json = serde_json::to_string(&r).expect("serializes");
        let back: SearchReport = serde_json::from_str(&json).expect("deserializes");
        assert_eq!(r, back);
    }
}
