//! The QS-DNN Q-learning search (paper §IV–V, Algorithm 1).
//!
//! The agent walks the network layer by layer. At layer *l* with the
//! previous layer running candidate `prev`, it ε-greedily picks a candidate
//! `a`; the environment (the Phase-1 [`CostLut`]) returns the *negated*
//! step cost — layer time plus incompatibility penalties on all resolved
//! in-edges (reward shaping, §IV.C). The action-value function is updated
//! with the Bellman rule (paper eq. 2)
//!
//! ```text
//! Q(s,a) ← Q(s,a)·(1−α) + α·[ r + γ·max_a' Q(s',a') ]
//! ```
//!
//! online at every step and again from a 128-transition experience-replay
//! buffer after each episode.

use std::time::Instant;

use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};
use serde::{Deserialize, Serialize};

use qsdnn_engine::CostLut;

use crate::{
    EpisodeRecord, EpsilonSchedule, QTable, ReplayBuffer, SearchReport, TransferMapping, Transition,
};

/// Hyper-parameters of the QS-DNN search. `Default` reproduces the paper:
/// 1000 episodes with the 50%/5%-steps schedule, α = 0.05, γ = 0.9, replay
/// buffer 128, reward shaping on.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct QsDnnConfig {
    /// ε-greedy schedule (also fixes the episode budget).
    pub schedule: EpsilonSchedule,
    /// Learning rate α.
    pub alpha: f64,
    /// Discount factor γ.
    pub gamma: f64,
    /// Experience-replay buffer capacity, clamped to at least 1; replay
    /// itself is switched off by `replay: false`, not by a capacity of 0.
    pub replay_capacity: usize,
    /// Whether to run a replay pass after each episode.
    pub replay: bool,
    /// Per-layer negated-time rewards (paper) vs a single terminal reward
    /// equal to the negated network latency (ablation).
    pub reward_shaping: bool,
    /// Per-pair decaying learning rate `α_n = max(α, 1/n)` (Watkins'
    /// schedule) instead of the paper's constant α. Off by default: the
    /// ablation bench shows locking in early long-horizon targets *hurts*
    /// on heterogeneous design spaces (GPU/CPU spreads of ~50×), because
    /// overestimates from empty successors persist under the max operator.
    pub jumpstart: bool,
    /// Warm-start mode: when enabled *and* [`QsDnnSearch::run_warm`] is
    /// handed a donor table with a non-empty transfer mapping, the search
    /// seeds its Q-table from the donor and runs the shortened
    /// [`EpsilonSchedule::warm`] instead of the full cold schedule. Off by
    /// default; with no donor (or an empty mapping) the search is exactly
    /// the cold search.
    #[serde(default)]
    pub warm_start: bool,
    /// RNG seed (exploration).
    pub seed: u64,
}

impl Default for QsDnnConfig {
    fn default() -> Self {
        QsDnnConfig {
            schedule: EpsilonSchedule::paper(1000),
            alpha: 0.05,
            gamma: 0.9,
            replay_capacity: 128,
            replay: true,
            reward_shaping: true,
            jumpstart: false,
            warm_start: false,
            seed: 0x5EED,
        }
    }
}

impl QsDnnConfig {
    /// Paper configuration with a custom episode budget.
    pub fn with_episodes(episodes: usize) -> Self {
        QsDnnConfig {
            schedule: EpsilonSchedule::paper(episodes),
            ..QsDnnConfig::default()
        }
    }

    /// Returns a copy with a different seed (for repeated experiments).
    pub fn with_seed(mut self, seed: u64) -> Self {
        self.seed = seed;
        self
    }
}

/// The QS-DNN search engine.
///
/// # Examples
///
/// ```
/// use qsdnn::{QsDnnConfig, QsDnnSearch};
/// use qsdnn_engine::toy;
///
/// let lut = toy::fig1_lut();
/// let report = QsDnnSearch::new(QsDnnConfig::with_episodes(300)).run(&lut);
/// // The agent avoids the greedy local minimum (cost 3.3) and finds the
/// // global optimum (2.9).
/// assert!((report.best_cost_ms - 2.9).abs() < 1e-9);
/// ```
#[derive(Debug, Clone)]
pub struct QsDnnSearch {
    config: QsDnnConfig,
}

impl QsDnnSearch {
    /// Search with the given configuration.
    pub fn new(config: QsDnnConfig) -> Self {
        QsDnnSearch { config }
    }

    /// The active configuration.
    pub fn config(&self) -> &QsDnnConfig {
        &self.config
    }

    fn q_update(&self, q: &mut QTable, t: &Transition) {
        let future = if t.terminal {
            0.0
        } else {
            self.config.gamma * q.best(t.layer + 1, t.action).1
        };
        let target = t.reward + future;
        let alpha = if self.config.jumpstart {
            let n = q.visits(t.layer, t.prev, t.action) as f64;
            self.config.alpha.max(1.0 / (n + 1.0))
        } else {
            self.config.alpha
        };
        let old = q.get(t.layer, t.prev, t.action);
        q.set(
            t.layer,
            t.prev,
            t.action,
            old * (1.0 - alpha) + alpha * target,
        );
    }

    /// Runs the search against a Phase-1 LUT (Algorithm 1).
    pub fn run(&self, lut: &CostLut) -> SearchReport {
        self.run_from(lut, QTable::new(lut), &self.config.schedule, false)
    }

    /// Warm-started run: seeds a fresh Q-table from `donor` via `mapping`
    /// ([`QTable::transfer_from`]) and searches with the shortened
    /// [`EpsilonSchedule::warm`] schedule. Falls back to the exact cold
    /// [`QsDnnSearch::run`] whenever warm-start is disabled in the config,
    /// the mapping is empty, or nothing actually transfers — a mismatched
    /// donor can cost nothing, only fail to help.
    pub fn run_warm(
        &self,
        lut: &CostLut,
        donor: &QTable,
        mapping: &TransferMapping,
    ) -> SearchReport {
        if !self.config.warm_start || mapping.is_empty() {
            return self.run(lut);
        }
        let mut q = QTable::new(lut);
        if q.transfer_from(donor, mapping) == 0 {
            return self.run(lut);
        }
        let schedule = EpsilonSchedule::warm(self.config.schedule.total_episodes());
        self.run_from(lut, q, &schedule, true)
    }

    /// The shared episode loop. With `seeded` the initial best is the
    /// seeded table's greedy rollout (the mapped donor policy), so even a
    /// zero-episode-improvement warm run returns a valid, donor-informed
    /// plan; cold runs start from an empty best exactly as before.
    fn run_from(
        &self,
        lut: &CostLut,
        mut q: QTable,
        schedule: &EpsilonSchedule,
        seeded: bool,
    ) -> SearchReport {
        let start = Instant::now();
        let total = schedule.total_episodes();
        let layers = lut.len();
        let mut replay = ReplayBuffer::new(self.config.replay_capacity.max(1));
        let mut rng = SmallRng::seed_from_u64(self.config.seed);

        let mut best_cost = f64::INFINITY;
        let mut best_assign: Vec<usize> = Vec::new();
        if seeded {
            let rollout = q.greedy_rollout();
            best_cost = lut.cost(&rollout);
            best_assign = rollout;
        }
        let mut curve = Vec::with_capacity(total);
        // ε-greedy policy-arm tallies; plain locals in the hot loop, folded
        // into the global observability registry once per run.
        let mut explored = 0u64;
        let mut exploited = 0u64;

        for episode in 0..total {
            let eps = schedule.epsilon_for(episode);
            // Reset path; sample layer by layer.
            let mut assign: Vec<usize> = Vec::with_capacity(layers);
            let mut transitions: Vec<Transition> = Vec::with_capacity(layers);
            let mut prev = 0usize;
            let mut episode_cost = 0.0;
            for l in 0..layers {
                let n = lut.candidates(l).len();
                let a = if rng.gen::<f64>() < eps {
                    explored += 1;
                    rng.gen_range(0..n)
                } else {
                    exploited += 1;
                    q.best(l, prev).0
                };
                // Check for incompatibility & compute inference time of the
                // step (layer time + penalties on resolved in-edges).
                let step = lut.step_cost(l, a, &assign);
                episode_cost += step;
                let reward = if self.config.reward_shaping {
                    -step
                } else {
                    0.0
                };
                transitions.push(Transition {
                    layer: l,
                    prev,
                    action: a,
                    reward,
                    terminal: l == layers - 1,
                });
                assign.push(a);
                prev = a;
            }
            if !self.config.reward_shaping {
                if let Some(last) = transitions.last_mut() {
                    last.reward = -episode_cost;
                }
            }
            // Online updates in reverse order so Q-knowledge from the best
            // following state flows backwards within the episode.
            for t in transitions.iter().rev() {
                self.q_update(&mut q, t);
            }
            // Experience replay pass.
            if self.config.replay && !replay.is_empty() {
                for t in replay.shuffled(&mut rng) {
                    self.q_update(&mut q, &t);
                }
            }
            for t in transitions {
                replay.push(t);
            }

            if episode_cost < best_cost {
                best_cost = episode_cost;
                best_assign = assign;
            }
            curve.push(EpisodeRecord {
                episode,
                epsilon: eps,
                cost_ms: episode_cost,
                best_so_far_ms: best_cost,
            });
        }

        // Final full-exploitation rollout ("the engine gives out the best
        // inference configuration", §V.B).
        let rollout = q.greedy_rollout();
        let rollout_cost = lut.cost(&rollout);
        if rollout_cost < best_cost {
            best_cost = rollout_cost;
            best_assign = rollout;
        }

        let registry = qsdnn_obs::global();
        registry
            .counter(
                "qsdnn_search_episodes_total",
                "Q-learning episodes executed",
                &[],
            )
            .add(total as u64);
        let actions_help = "Per-layer action choices, by epsilon-greedy policy arm";
        registry
            .counter(
                "qsdnn_search_actions_total",
                actions_help,
                &[("policy", "explore")],
            )
            .add(explored);
        registry
            .counter(
                "qsdnn_search_actions_total",
                actions_help,
                &[("policy", "exploit")],
            )
            .add(exploited);

        SearchReport {
            method: if seeded { "qs-dnn-warm" } else { "qs-dnn" }.into(),
            network: lut.network().to_string(),
            best_assignment: best_assign,
            best_cost_ms: best_cost,
            episodes: total,
            curve,
            wall_time_ms: start.elapsed().as_secs_f64() * 1e3,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use qsdnn_engine::toy;

    #[test]
    fn finds_fig1_global_optimum() {
        let lut = toy::fig1_lut();
        let report = QsDnnSearch::new(QsDnnConfig::with_episodes(300)).run(&lut);
        assert_eq!(report.best_assignment, vec![0, 0, 0]);
        assert!((report.best_cost_ms - 2.9).abs() < 1e-9);
        // Greedy would have been 3.3.
        assert!(report.best_cost_ms < lut.cost(&lut.greedy_assignment()));
    }

    #[test]
    fn converges_on_small_chain() {
        let lut = toy::small_chain_lut();
        let report = QsDnnSearch::new(QsDnnConfig::with_episodes(500)).run(&lut);
        // Exhaustive optimum over 243 assignments.
        let mut opt = f64::INFINITY;
        for a in 0..3 {
            for b in 0..3 {
                for c in 0..3 {
                    for d in 0..3 {
                        for e in 0..3 {
                            opt = opt.min(lut.cost(&[a, b, c, d, e]));
                        }
                    }
                }
            }
        }
        assert!(
            (report.best_cost_ms - opt).abs() < 1e-9,
            "QS-DNN {} vs optimum {opt}",
            report.best_cost_ms
        );
    }

    #[test]
    fn deterministic_per_seed() {
        let lut = toy::small_chain_lut();
        let a = QsDnnSearch::new(QsDnnConfig::with_episodes(100)).run(&lut);
        let b = QsDnnSearch::new(QsDnnConfig::with_episodes(100)).run(&lut);
        assert_eq!(a.best_cost_ms, b.best_cost_ms);
        assert_eq!(a.curve.len(), b.curve.len());
        for (x, y) in a.curve.iter().zip(&b.curve) {
            assert_eq!(x.cost_ms, y.cost_ms);
        }
    }

    #[test]
    fn curve_best_so_far_is_monotone() {
        let lut = toy::small_chain_lut();
        let report = QsDnnSearch::new(QsDnnConfig::with_episodes(200)).run(&lut);
        let mut prev = f64::INFINITY;
        for r in &report.curve {
            assert!(r.best_so_far_ms <= prev + 1e-12);
            prev = r.best_so_far_ms;
        }
    }

    #[test]
    fn exploitation_tail_samples_learned_policy() {
        let lut = toy::small_chain_lut();
        let report = QsDnnSearch::new(QsDnnConfig::with_episodes(400)).run(&lut);
        // In the final ε=0 segment every episode follows argmax-Q, so the
        // sampled costs should have converged to the best found.
        let tail: Vec<f64> = report
            .curve
            .iter()
            .rev()
            .take(10)
            .map(|r| r.cost_ms)
            .collect();
        let spread = tail.iter().fold(0.0f64, |m, &c| m.max(c)) - report.best_cost_ms;
        assert!(spread < 0.5, "tail spread {spread}");
    }

    #[test]
    fn warm_run_uses_fewer_episodes_and_still_finds_the_optimum() {
        use qsdnn_engine::ScenarioDescriptor;

        let lut = toy::small_chain_lut();
        let cold = QsDnnSearch::new(QsDnnConfig::with_episodes(500)).run(&lut);

        // Donor: the cold run's own backbone, mapped through identity.
        let desc = ScenarioDescriptor::of(&lut);
        let mapping = crate::TransferMapping::between(&desc, &desc);
        let dims: Vec<usize> = (0..lut.len()).map(|l| lut.candidates(l).len()).collect();
        let costs: Vec<f64> = cold
            .best_assignment
            .iter()
            .enumerate()
            .map(|(l, &ci)| lut.step_cost(l, ci, &cold.best_assignment))
            .collect();
        let donor =
            QTable::from_best_path(&dims, &cold.best_assignment, &costs).expect("consistent");

        let mut cfg = QsDnnConfig::with_episodes(500);
        cfg.warm_start = true;
        let warm = QsDnnSearch::new(cfg).run_warm(&lut, &donor, &mapping);
        assert_eq!(warm.method, "qs-dnn-warm");
        assert!(
            warm.episodes < cold.episodes,
            "warm {} episodes vs cold {}",
            warm.episodes,
            cold.episodes
        );
        assert!(
            warm.best_cost_ms <= cold.best_cost_ms + 1e-9,
            "warm {} must not lose to cold {} when seeded from cold's plan",
            warm.best_cost_ms,
            cold.best_cost_ms
        );
    }

    #[test]
    fn warm_run_without_usable_donor_is_exactly_cold() {
        use qsdnn_engine::ScenarioDescriptor;

        let lut = toy::small_chain_lut();
        // A donor whose every layer type differs maps to nothing.
        let recipient = ScenarioDescriptor::of(&lut);
        let mut donor_desc = recipient.clone();
        for l in &mut donor_desc.layers {
            l.tag = "softmax".into();
        }
        let mapping = crate::TransferMapping::between(&donor_desc, &recipient);
        assert!(mapping.is_empty());

        let mut cfg = QsDnnConfig::with_episodes(200);
        cfg.warm_start = true;
        let donor = QTable::new(&lut);
        let warm = QsDnnSearch::new(cfg.clone()).run_warm(&lut, &donor, &mapping);
        cfg.warm_start = false;
        let cold = QsDnnSearch::new(cfg).run(&lut);
        assert_eq!(warm.method, "qs-dnn", "fallback is the cold search");
        assert_eq!(warm.best_assignment, cold.best_assignment);
        assert_eq!(warm.best_cost_ms.to_bits(), cold.best_cost_ms.to_bits());
        assert_eq!(warm.curve.len(), cold.curve.len());
    }

    #[test]
    fn replay_and_shaping_flags_are_respected() {
        let lut = toy::small_chain_lut();
        let mut cfg = QsDnnConfig::with_episodes(200);
        cfg.replay = false;
        cfg.reward_shaping = false;
        let report = QsDnnSearch::new(cfg).run(&lut);
        // Still finds something sensible (terminal reward is a valid MDP).
        assert!(report.best_cost_ms < lut.cost(&lut.vanilla_assignment()));
    }
}
