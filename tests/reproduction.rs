//! Workspace integration test: the shape checks of the paper's figures and
//! of the extension studies, asserted on the rows `qsdnn::reproduce`
//! computes — and those rows held to the committed `REPRODUCTION.json`.

use qsdnn::reproduce;
use serde::Serialize;

/// Asserts that `rows` serialize exactly as the artefact's `section`.
fn assert_committed(section: &str, rows: &impl Serialize) {
    let tree = serde_json::parse(include_str!("../REPRODUCTION.json")).expect("parses");
    let committed = tree
        .as_object()
        .and_then(|fields| serde::Value::get_field(fields, section))
        .expect("the artefact has every section");
    assert!(
        serde_json::to_string(committed).expect("serializes")
            == serde_json::to_string(rows).expect("serializes"),
        "REPRODUCTION.json's `{section}` is stale: regenerate it with \
         `cargo run --release -q -p qsdnn-cli -- reproduce > REPRODUCTION.json`"
    );
}

/// Fig. 1: the agent finds the blue path the greedy red path misses.
#[test]
fn fig1_agent_avoids_the_local_minimum() {
    let fig1 = reproduce::fig1_local_minimum();
    assert_eq!(
        fig1.qsdnn.assignment, fig1.optimum.assignment,
        "agent must find the blue path"
    );
    assert!(
        fig1.greedy.cost_ms > fig1.optimum.cost_ms,
        "the trap must exist"
    );
    assert_committed("fig1_local_minimum", &fig1);
}

/// Fig. 3: every branch and join edge gets its compatibility profile.
#[test]
fn fig3_profiles_every_edge() {
    let rows = reproduce::fig3_compat_profile();
    for row in &rows {
        assert_eq!(
            row.lut_edges, row.graph_edges,
            "every branch edge must be profiled"
        );
    }
    assert_committed("fig3_compat_profile", &rows);
}

/// Fig. 4: sampled costs collapse, in mean and spread, once ε falls after
/// 500 fully exploratory episodes.
#[test]
fn fig4_curve_has_the_papers_shape() {
    let fig4 = reproduce::fig4_learning_curve();
    assert!(
        fig4.exploitation.mean_ms < fig4.exploration.mean_ms,
        "exploitation must sample far better paths"
    );
    assert!(
        fig4.exploitation.std_ms < fig4.exploration.std_ms,
        "variance must collapse as ε→0"
    );
    let [last_explore, first_exploit] = fig4.phase_boundary;
    assert_eq!((last_explore.episode, first_exploit.episode), (499, 500));
    assert!(last_explore.epsilon == 1.0 && first_exploit.epsilon < 1.0);
    assert_committed("fig4_learning_curve", &fig4);
}

/// Fig. 5 / §VI.B: RL leads Random Search at equal episode budgets.
#[test]
fn fig5_rl_leads_random_search() {
    let points = reproduce::fig5_rl_vs_rs();
    let ratio_at = |episodes: usize| {
        points
            .iter()
            .find(|p| p.episodes == episodes)
            .expect("budget in the figure")
            .rs_over_rl_x
    };
    assert!(ratio_at(350) > 1.0, "RL must lead at 350 episodes");
    assert!(ratio_at(1000) > 1.0, "RL must lead at 1000 episodes");
    assert_committed("fig5_rl_vs_rs", &points);
}

/// Multi-objective study: the energy objective sheds GPU layers, and each
/// objective wins its own metric.
#[test]
fn energy_objective_moves_work_off_the_gpu() {
    let rows = reproduce::multi_objective();
    let latency = rows.first().expect("latency objective");
    let energy = rows.last().expect("energy objective");
    assert!(
        energy.gpu_layers < latency.gpu_layers,
        "energy objective must shed GPU layers ({} vs {})",
        energy.gpu_layers,
        latency.gpu_layers
    );
    assert!(
        energy.energy_mj <= latency.energy_mj + 1e-9,
        "energy objective must not raise energy"
    );
    assert!(
        latency.latency_ms <= energy.latency_ms + 1e-9,
        "latency objective must not raise latency"
    );
    assert_committed("multi_objective", &rows);
}

/// Batch-size study: batching amortizes weight traffic.
#[test]
fn batching_does_not_raise_per_image_latency() {
    let rows = reproduce::batch_sweep();
    for pair in rows.windows(2).filter(|w| w[0].network == w[1].network) {
        assert!(
            pair[1].per_image_ms <= pair[0].per_image_ms * 1.05,
            "per-image latency should not grow materially with batch"
        );
    }
    assert_committed("batch_sweep", &rows);
}

/// Scenario transfer: a warm start from a batch neighbour's or another
/// platform's plan runs a shortened schedule, converges no slower, and
/// lands within 5% of the cold plan.
#[test]
fn warm_starts_never_slow_convergence() {
    let study = reproduce::transfer_warm_start();
    let batch_pairs = study
        .sweeps
        .iter()
        .flat_map(|s| &s.points)
        .filter_map(|p| Some((&p.cold, p.warm.as_ref()?)));
    let platform_pairs = study.cross_platform.iter().map(|p| (&p.cold, &p.warm));
    for (cold, warm) in batch_pairs.chain(platform_pairs) {
        assert!(
            warm.episodes_total < cold.episodes_total,
            "warm runs a shortened schedule"
        );
        assert!(
            warm.episodes_to_5pct <= cold.episodes_to_5pct,
            "a donor's plan must not slow convergence (warm {} vs cold {})",
            warm.episodes_to_5pct,
            cold.episodes_to_5pct
        );
        assert!(
            warm.best_ms <= cold.best_ms * 1.05 + 1e-9,
            "warm stays within 5% of the cold plan"
        );
    }
    assert_committed("transfer_warm_start", &study);
}
