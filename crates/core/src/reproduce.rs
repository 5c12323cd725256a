//! The paper's tables and figures, regenerated as typed rows.
//!
//! Each public study function reproduces one table or figure of the paper
//! (or one extension study) on the analytical sim-TX2 platform with fixed
//! seeds, so every value is deterministic: nothing here prints or reads a
//! clock. [`all`] gathers every study into one [`Reproduction`];
//! `qsdnn-cli reproduce` serializes it as the committed `REPRODUCTION.json`,
//! and the workspace tests assert the paper's claims on the same rows.
//! Times are in ms, energies in mJ, and `_x` fields are ratios.

use std::collections::BTreeMap;

use serde::Serialize;

use crate::approx::FEATURE_DIM;
use crate::baselines::{
    exhaustive_search, pbqp_search, solve_chain_dp, RandomSearch, SimulatedAnnealing,
    SimulatedAnnealingConfig,
};
use crate::{
    ApproxQsDnnSearch, EpisodeRecord, EpsilonSchedule, QTable, QsDnnConfig, QsDnnSearch,
    SearchReport, TransferMapping,
};
use qsdnn_engine::{
    toy, AnalyticalPlatform, CostLut, Mode, Objective, PlatformRegistry, Profiler,
    ScenarioDescriptor,
};
use qsdnn_nn::{zoo, LayerTag};
use qsdnn_primitives::{Algorithm, Library, Processor};

/// Profiling repeats of the paper-scale studies (the paper averages 50).
pub const PAPER_REPEATS: usize = 50;
/// Profiling repeats of the sweep-heavy studies.
pub const QUICK_REPEATS: usize = 5;
/// Profiling repeats of the batch-size and transfer sweeps.
const SWEEP_REPEATS: usize = 10;

/// Profiles a zoo network on the sim-TX2, averaging `repeats` runs; panics
/// if `network` is not in the zoo.
pub fn lut(network: &str, batch: usize, mode: Mode, repeats: usize) -> CostLut {
    let net = zoo::by_name(network, batch).expect("network exists in the zoo");
    Profiler::with_repeats(AnalyticalPlatform::tx2(), repeats).profile(&net, mode)
}

/// The QS-DNN episode budget: the paper's 1000, scaled with depth so the
/// tabular agent sees each (state, action) pair often enough.
pub fn episodes_for(lut: &CostLut) -> usize {
    1000usize.max(40 * lut.len())
}

/// Best Single Library: the strongest single-library global
/// implementation, as `(library, cost_ms)`.
pub fn best_single_library(lut: &CostLut) -> (Library, f64) {
    Library::ALL
        .iter()
        .map(|&lib| (lib, lut.cost(&lut.single_library_assignment(lib))))
        .min_by(|a, b| a.1.partial_cmp(&b.1).expect("finite costs"))
        .expect("non-empty library list")
}

/// Mean and population standard deviation of a set of costs.
#[derive(Debug, Clone, Copy, PartialEq, Serialize)]
pub struct MeanStd {
    pub mean_ms: f64,
    pub std_ms: f64,
}

impl MeanStd {
    pub(crate) fn of(xs: &[f64]) -> Self {
        let n = xs.len() as f64;
        let mean = xs.iter().sum::<f64>() / n;
        let var = xs.iter().map(|x| (x - mean).powi(2)).sum::<f64>() / n;
        MeanStd {
            mean_ms: mean,
            std_ms: var.sqrt(),
        }
    }

    /// Best costs of one search per seed.
    fn of_runs(seeds: &[u64], run: impl Fn(u64) -> SearchReport) -> Self {
        let costs: Vec<f64> = seeds.iter().map(|&s| run(s).best_cost_ms).collect();
        MeanStd::of(&costs)
    }
}

/// Every study, one field per study function of the same name.
#[derive(Debug, Clone, Serialize)]
pub struct Reproduction {
    pub table2_speedups: Vec<Table2Row>,
    pub fig1_local_minimum: Fig1,
    pub fig3_compat_profile: Vec<Fig3Row>,
    pub fig4_learning_curve: Fig4,
    pub fig5_rl_vs_rs: Vec<Fig5Point>,
    pub ablations: Vec<AblationRow>,
    pub approx_vs_tabular: ApproxStudy,
    pub multi_objective: Vec<ObjectiveRow>,
    pub batch_sweep: Vec<BatchRow>,
    pub optimality_gap: Vec<GapRow>,
    pub transfer_warm_start: TransferStudy,
}

/// Runs every study.
pub fn all() -> Reproduction {
    Reproduction {
        table2_speedups: table2_speedups(),
        fig1_local_minimum: fig1_local_minimum(),
        fig3_compat_profile: fig3_compat_profile(),
        fig4_learning_curve: fig4_learning_curve(),
        fig5_rl_vs_rs: fig5_rl_vs_rs(),
        ablations: ablations(),
        approx_vs_tabular: approx_vs_tabular(),
        multi_objective: multi_objective(),
        batch_sweep: batch_sweep(),
        optimality_gap: optimality_gap(),
        transfer_warm_start: transfer_warm_start(),
    }
}

/// A Table II column: every layer pinned to one library, with its cost
/// and speedup over Vanilla.
#[derive(Debug, Clone, Serialize)]
pub struct LibraryCost {
    pub library: Library,
    pub cost_ms: f64,
    pub speedup_x: f64,
}

/// How many layers of one type a plan runs on one library and processor.
#[derive(Debug, Clone, Serialize)]
pub struct PlanMix {
    pub tag: LayerTag,
    pub library: Library,
    pub processor: Processor,
    pub layers: usize,
}

/// **Table II**: one network in one mode. Speedups are over Vanilla, the
/// dependency-free baseline; QS-DNN and Random Search (RS, at the paper's
/// 1000 episodes) costs are means over five seeds.
#[derive(Debug, Clone, Serialize)]
pub struct Table2Row {
    pub network: String,
    pub mode: Mode,
    pub vanilla_ms: f64,
    /// Every single-library implementation the mode's table columns list.
    pub libraries: Vec<LibraryCost>,
    /// The Best Single Library (BSL).
    pub bsl: Library,
    pub bsl_ms: f64,
    /// QS-DNN episode budget ([`episodes_for`]).
    pub qsdnn_episodes: usize,
    pub qsdnn_ms: f64,
    pub rs_ms: f64,
    pub bsl_speedup_x: f64,
    pub qsdnn_speedup_x: f64,
    pub qsdnn_over_bsl_x: f64,
    pub qsdnn_over_rs_x: f64,
    /// The best seed's plan, counted by layer type, library and processor.
    pub plan: Vec<PlanMix>,
}

/// One Table II row, profiled with [`PAPER_REPEATS`].
pub fn table2_row(network: &str, mode: Mode) -> Table2Row {
    use Library::*;
    const SEEDS: [u64; 5] = [11, 22, 33, 44, 55];
    let lut = lut(network, 1, mode, PAPER_REPEATS);
    let vanilla = lut.cost(&lut.vanilla_assignment());
    let columns: &[Library] = match mode {
        Mode::Cpu => &[Blas, Nnpack, ArmCl, Sparse],
        Mode::Gpgpu => &[Blas, Nnpack, ArmCl, CuDnn, CuBlas],
    };
    let libraries = columns
        .iter()
        .map(|&library| {
            let cost_ms = lut.cost(&lut.single_library_assignment(library));
            let speedup_x = vanilla / cost_ms;
            LibraryCost {
                library,
                cost_ms,
                speedup_x,
            }
        })
        .collect();
    let (bsl, bsl_ms) = best_single_library(&lut);
    let episodes = episodes_for(&lut);
    let reports: Vec<SearchReport> = SEEDS
        .iter()
        .map(|&s| QsDnnSearch::new(QsDnnConfig::with_episodes(episodes).with_seed(s)).run(&lut))
        .collect();
    let qs = MeanStd::of(&reports.iter().map(|r| r.best_cost_ms).collect::<Vec<_>>()).mean_ms;
    let rs = MeanStd::of_runs(&SEEDS, |s| RandomSearch::new(1000, s).run(&lut)).mean_ms;
    let best = reports
        .iter()
        .min_by(|a, b| a.best_cost_ms.total_cmp(&b.best_cost_ms))
        .expect("one report per seed");
    let mut plan: BTreeMap<(LayerTag, Library, Processor), usize> = BTreeMap::new();
    for (l, &ci) in best.best_assignment.iter().enumerate() {
        let p = lut.candidates(l)[ci];
        *plan
            .entry((lut.layers()[l].tag, p.library, p.processor))
            .or_default() += 1;
    }
    Table2Row {
        network: network.to_string(),
        mode,
        vanilla_ms: vanilla,
        libraries,
        bsl,
        bsl_ms,
        qsdnn_episodes: episodes,
        qsdnn_ms: qs,
        rs_ms: rs,
        bsl_speedup_x: vanilla / bsl_ms,
        qsdnn_speedup_x: vanilla / qs,
        qsdnn_over_bsl_x: bsl_ms / qs,
        qsdnn_over_rs_x: rs / qs,
        plan: plan
            .into_iter()
            .map(|((tag, library, processor), layers)| PlanMix {
                tag,
                library,
                processor,
                layers,
            })
            .collect(),
    }
}

/// **Table II**: every paper-roster network in CPU mode, then in GPGPU
/// mode.
pub fn table2_speedups() -> Vec<Table2Row> {
    [Mode::Cpu, Mode::Gpgpu]
        .into_iter()
        .flat_map(|mode| zoo::PAPER_ROSTER.map(|name| table2_row(name, mode)))
        .collect()
}

/// A whole-network implementation: candidate index per layer, and cost.
#[derive(Debug, Clone, Serialize)]
pub struct PathCost {
    pub assignment: Vec<usize>,
    pub cost_ms: f64,
}

/// **Fig. 1**: the 3-layer network whose fastest per-layer choice (the red
/// path) loses to the global optimum (the blue path) once layout
/// conversions are paid.
#[derive(Debug, Clone, Serialize)]
pub struct Fig1 {
    /// The network's LUT: candidate times, and 0.4 ms per layout flip.
    pub lut: CostLut,
    /// The red path: the fastest primitive per layer.
    pub greedy: PathCost,
    /// The blue path: the exhaustive optimum.
    pub optimum: PathCost,
    /// What a 300-episode QS-DNN search finds.
    pub qsdnn: PathCost,
}

/// **Fig. 1**: the greedy trap against the optimum and the agent.
pub fn fig1_local_minimum() -> Fig1 {
    let lut = toy::fig1_lut();
    let greedy = lut.greedy_assignment();
    let (assignment, cost_ms) = exhaustive_search(&lut, 1e6).expect("toy space");
    let qsdnn = QsDnnSearch::new(QsDnnConfig::with_episodes(300)).run(&lut);
    let path = |assignment, cost_ms| PathCost {
        assignment,
        cost_ms,
    };
    Fig1 {
        greedy: path(greedy.clone(), lut.cost(&greedy)),
        optimum: path(assignment, cost_ms),
        qsdnn: path(qsdnn.best_assignment, qsdnn.best_cost_ms),
        lut,
    }
}

/// **Fig. 3**: compatibility-layer profiling of one network (GPGPU).
#[derive(Debug, Clone, Serialize)]
pub struct Fig3Row {
    pub network: String,
    pub layers: usize,
    pub graph_edges: usize,
    /// Phase-1 whole-network sweeps: one per global implementation plus
    /// the compatibility sweeps.
    pub sweeps: usize,
    /// Edges the LUT profiled; must equal `graph_edges`.
    pub lut_edges: usize,
    /// Multi-input joins.
    pub joins: usize,
    /// Fan-out branch points.
    pub branches: usize,
    /// Primitive pairs profiled over all edges, and those of them that
    /// need a conversion (penalty > 0).
    pub penalty_pairs: usize,
    pub incompatible_pairs: usize,
    pub max_penalty_ms: f64,
}

/// **Fig. 3**: edge coverage and penalty distribution on the branchiest
/// networks.
pub fn fig3_compat_profile() -> Vec<Fig3Row> {
    ["googlenet", "resnet18", "squeezenet_v11", "vgg19"]
        .into_iter()
        .map(|name| {
            let net = zoo::by_name(name, 1).expect("roster");
            let lut = Profiler::with_repeats(AnalyticalPlatform::tx2(), QUICK_REPEATS)
                .profile(&net, Mode::Gpgpu);
            let penalties = lut
                .layers()
                .iter()
                .flat_map(|l| &l.incoming)
                .flat_map(|e| e.penalty.iter().copied());
            Fig3Row {
                network: name.to_string(),
                layers: net.len(),
                graph_edges: net.edges().len(),
                sweeps: Profiler::<AnalyticalPlatform>::inference_count(&net, Mode::Gpgpu),
                lut_edges: lut.layers().iter().map(|l| l.incoming.len()).sum(),
                joins: net.layers().iter().filter(|n| n.inputs.len() > 1).count(),
                branches: net.consumers().iter().filter(|c| c.len() > 1).count(),
                penalty_pairs: penalties.clone().count(),
                incompatible_pairs: penalties.clone().filter(|&p| p > 0.0).count(),
                max_penalty_ms: penalties.fold(0.0, f64::max),
            }
        })
        .collect()
}

/// **Fig. 4**: the learning curve of one 1000-episode search on
/// MobileNet-v1 (GPGPU): 500 fully exploratory episodes, then ε falls by
/// 0.1 every 50 episodes.
#[derive(Debug, Clone, Serialize)]
pub struct Fig4 {
    /// Every 25th episode and the last, as the figure plots them.
    pub curve: Vec<EpisodeRecord>,
    /// Episodes 499 and 500: the last fully exploratory episode and the
    /// first after ε starts to fall.
    pub phase_boundary: [EpisodeRecord; 2],
    /// Sampled costs over the exploration phase, episodes 0–499.
    pub exploration: MeanStd,
    /// Sampled costs over the exploitation tail, episodes 950–999.
    pub exploitation: MeanStd,
    pub best_ms: f64,
}

/// **Fig. 4**: the decimated curve and the shape of its two phases.
pub fn fig4_learning_curve() -> Fig4 {
    let lut = lut("mobilenet_v1", 1, Mode::Gpgpu, PAPER_REPEATS);
    let report = QsDnnSearch::new(QsDnnConfig::with_episodes(1000)).run(&lut);
    let curve = &report.curve;
    let sampled = |records: &[EpisodeRecord]| {
        MeanStd::of(&records.iter().map(|r| r.cost_ms).collect::<Vec<_>>())
    };
    let decimated = curve.iter().step_by(25).chain(curve.last());
    Fig4 {
        curve: decimated.copied().collect(),
        phase_boundary: [curve[499], curve[500]],
        exploration: sampled(&curve[..500]),
        exploitation: sampled(&curve[950..]),
        best_ms: report.best_cost_ms,
    }
}

/// **Fig. 5**: RL against Random Search at one episode budget on
/// MobileNet-v1 (GPGPU), each over the same five seeds.
#[derive(Debug, Clone, Serialize)]
pub struct Fig5Point {
    pub episodes: usize,
    pub rl: MeanStd,
    pub rs: MeanStd,
    pub rs_over_rl_x: f64,
}

/// **Fig. 5**: one point per episode budget.
pub fn fig5_rl_vs_rs() -> Vec<Fig5Point> {
    const SEEDS: [u64; 5] = [101, 202, 303, 404, 505];
    let lut = lut("mobilenet_v1", 1, Mode::Gpgpu, PAPER_REPEATS);
    [25, 50, 100, 200, 350, 500, 700, 1000]
        .into_iter()
        .map(|episodes| {
            let rl = MeanStd::of_runs(&SEEDS, |s| {
                QsDnnSearch::new(QsDnnConfig::with_episodes(episodes).with_seed(s)).run(&lut)
            });
            let rs = MeanStd::of_runs(&SEEDS, |s| RandomSearch::new(episodes, s).run(&lut));
            Fig5Point {
                episodes,
                rl,
                rs,
                rs_over_rl_x: rs.mean_ms / rl.mean_ms,
            }
        })
        .collect()
}

/// **Ablations**: best costs of one configuration on one network (GPGPU,
/// 500 episodes, five seeds).
#[derive(Debug, Clone, Serialize)]
pub struct AblationRow {
    pub network: String,
    /// What differs from the paper configuration.
    pub variant: String,
    pub best: MeanStd,
}

/// **Ablations**: reward shaping, replay, α decay, the ε schedule, and α
/// and γ sweeps, each isolated against the paper configuration on
/// MobileNet-v1 and GoogLeNet.
pub fn ablations() -> Vec<AblationRow> {
    const SEEDS: [u64; 5] = [7, 17, 27, 37, 47];
    const EPISODES: usize = 500;
    let variant = |label: &str, edit: &dyn Fn(&mut QsDnnConfig)| {
        let mut cfg = QsDnnConfig::with_episodes(EPISODES);
        edit(&mut cfg);
        (label.to_string(), cfg)
    };
    let mut variants = vec![
        variant("paper config (shaping+replay)", &|_| {}),
        variant("terminal reward only", &|c| c.reward_shaping = false),
        variant("no experience replay", &|c| c.replay = false),
        variant("decaying alpha (jumpstart)", &|c| c.jumpstart = true),
        variant("constant eps = 0.3", &|c| {
            c.schedule = EpsilonSchedule::constant(0.3, EPISODES);
        }),
        variant("linear eps decay", &|c| {
            c.schedule = EpsilonSchedule::linear(EPISODES);
        }),
    ];
    for alpha in [0.01, 0.05, 0.2] {
        variants.push(variant(&format!("alpha = {alpha}"), &|c| c.alpha = alpha));
    }
    for gamma in [0.5, 0.9, 1.0] {
        variants.push(variant(&format!("gamma = {gamma}"), &|c| c.gamma = gamma));
    }
    let mut rows = Vec::new();
    for network in ["mobilenet_v1", "googlenet"] {
        let lut = lut(network, 1, Mode::Gpgpu, QUICK_REPEATS);
        for (variant, cfg) in &variants {
            rows.push(AblationRow {
                network: network.to_string(),
                variant: variant.clone(),
                best: MeanStd::of_runs(&SEEDS, |s| {
                    QsDnnSearch::new(cfg.clone().with_seed(s)).run(&lut)
                }),
            });
        }
    }
    rows
}

/// One network and budget of the approximation study: mean best costs of
/// both agents over three seeds.
#[derive(Debug, Clone, Serialize)]
pub struct ApproxRow {
    pub network: String,
    pub layers: usize,
    /// Entries of the tabular agent's Q-table.
    pub q_entries: usize,
    pub episodes: usize,
    pub tabular_ms: f64,
    pub linear_ms: f64,
    /// Below 1, the approximation generalizes better at this budget.
    pub linear_over_tabular_x: f64,
}

/// **Function approximation vs tabular Q** (the paper's §VII future work):
/// one row per network and budget.
#[derive(Debug, Clone, Serialize)]
pub struct ApproxStudy {
    /// Weights of the linear model, shared by every state.
    pub linear_weights: usize,
    pub rows: Vec<ApproxRow>,
}

/// **Approximation study**: the linear value function against the full
/// Q-table across network sizes and episode budgets (GPGPU).
pub fn approx_vs_tabular() -> ApproxStudy {
    const SEEDS: [u64; 3] = [5, 15, 25];
    let mut rows = Vec::new();
    for (network, budgets) in [
        ("lenet5", [100usize, 500]),
        ("squeezenet_v11", [200, 1000]),
        ("mobilenet_v1", [200, 1000]),
        ("googlenet", [200, 1000]),
    ] {
        let lut = lut(network, 1, Mode::Gpgpu, QUICK_REPEATS);
        for episodes in budgets {
            let config = |s| QsDnnConfig::with_episodes(episodes).with_seed(s);
            let tabular = MeanStd::of_runs(&SEEDS, |s| QsDnnSearch::new(config(s)).run(&lut));
            let linear = MeanStd::of_runs(&SEEDS, |s| ApproxQsDnnSearch::new(config(s)).run(&lut));
            rows.push(ApproxRow {
                network: network.to_string(),
                layers: lut.len(),
                q_entries: QTable::new(&lut).entries(),
                episodes,
                tabular_ms: tabular.mean_ms,
                linear_ms: linear.mean_ms,
                linear_over_tabular_x: linear.mean_ms / tabular.mean_ms,
            });
        }
    }
    ApproxStudy {
        linear_weights: FEATURE_DIM,
        rows,
    }
}

/// One objective of the multi-objective study, its plan evaluated under
/// the raw metrics.
#[derive(Debug, Clone, Serialize)]
pub struct ObjectiveRow {
    pub objective: String,
    pub latency_ms: f64,
    pub energy_mj: f64,
    pub gpu_layers: usize,
    pub cpu_layers: usize,
}

/// **Multi-objective search** (the paper's §VII future work): the
/// latency/energy trade-off on MobileNet-v1 (GPGPU), from pure latency
/// through three weightings to pure energy.
pub fn multi_objective() -> Vec<ObjectiveRow> {
    let lut = lut("mobilenet_v1", 1, Mode::Gpgpu, PAPER_REPEATS);
    let episodes = episodes_for(&lut);
    [
        ("latency (paper)", Objective::Latency),
        ("weighted λ=0.1", Objective::Weighted { lambda: 0.1 }),
        ("weighted λ=0.5", Objective::Weighted { lambda: 0.5 }),
        ("weighted λ=2.0", Objective::Weighted { lambda: 2.0 }),
        ("energy only", Objective::Energy),
    ]
    .into_iter()
    .map(|(label, objective)| {
        let report = QsDnnSearch::new(QsDnnConfig::with_episodes(episodes))
            .run(&lut.with_objective(objective));
        let plan = &report.best_assignment;
        let gpu_layers = plan
            .iter()
            .enumerate()
            .filter(|(l, &ci)| lut.candidates(*l)[ci].processor == Processor::Gpu)
            .count();
        ObjectiveRow {
            objective: label.to_string(),
            latency_ms: lut.cost(plan),
            energy_mj: lut.energy_cost(plan),
            gpu_layers,
            cpu_layers: lut.len() - gpu_layers,
        }
    })
    .collect()
}

/// One network at one batch size.
#[derive(Debug, Clone, Serialize)]
pub struct BatchRow {
    pub network: String,
    pub batch: usize,
    /// Latency of the whole batch.
    pub latency_ms: f64,
    pub per_image_ms: f64,
    /// Algorithm the plan picks for each FC layer, in layer order.
    pub fc_algorithms: Vec<String>,
}

/// **Batch-size study** (extension, CPU mode): batching moves FC layers
/// from GEMV, which re-streams the weights per sample, to batched GEMM.
pub fn batch_sweep() -> Vec<BatchRow> {
    let mut rows = Vec::new();
    for network in ["lenet5", "alexnet"] {
        for batch in [1usize, 2, 4, 8] {
            let lut = lut(network, batch, Mode::Cpu, SWEEP_REPEATS);
            let report = QsDnnSearch::new(QsDnnConfig::with_episodes(episodes_for(&lut))).run(&lut);
            let fc_algorithms = report
                .best_assignment
                .iter()
                .enumerate()
                .filter(|&(l, _)| lut.layers()[l].tag == LayerTag::Fc)
                .map(|(l, &ci)| match lut.candidates(l)[ci].algorithm {
                    Algorithm::Gemv => "gemv".to_string(),
                    Algorithm::Gemm => "gemm".to_string(),
                    Algorithm::SparseCsr => "sparse".to_string(),
                    _ => "other".to_string(),
                })
                .collect();
            rows.push(BatchRow {
                network: network.to_string(),
                batch,
                latency_ms: report.best_cost_ms,
                per_image_ms: report.best_cost_ms / batch as f64,
                fc_algorithms,
            });
        }
    }
    rows
}

/// **Optimality audit**: one network in one mode against its bound. RS
/// and simulated annealing (SA) search the same budget as QS-DNN.
#[derive(Debug, Clone, Serialize)]
pub struct GapRow {
    pub network: String,
    pub mode: Mode,
    pub bound_ms: f64,
    /// `chain-dp` (exact), `pbqp*` (PBQP with only R0/RI/RII reductions,
    /// exact) or `pbqp-rn` (a heuristic RN reduction fired).
    pub bound_by: String,
    pub qsdnn_ms: f64,
    pub rs_ms: f64,
    pub sa_ms: f64,
    /// QS-DNN's distance above the bound, in percent.
    pub qsdnn_gap_pct: f64,
    /// The BSL's distance above the bound, in percent.
    pub bsl_gap_pct: f64,
}

/// One optimality-audit row, profiled with [`PAPER_REPEATS`].
pub fn gap_row(network: &str, mode: Mode) -> GapRow {
    let lut = lut(network, 1, mode, PAPER_REPEATS);
    let episodes = episodes_for(&lut);
    let (bound, bound_by) = match solve_chain_dp(&lut) {
        Some((_, c)) => (c, "chain-dp"),
        None => {
            let p = pbqp_search(&lut);
            let exact = p.method.contains("exact");
            (p.best_cost_ms, if exact { "pbqp*" } else { "pbqp-rn" })
        }
    };
    let qs = QsDnnSearch::new(QsDnnConfig::with_episodes(episodes)).run(&lut);
    let rs = RandomSearch::new(episodes, 1).run(&lut);
    let sa = SimulatedAnnealing::new(SimulatedAnnealingConfig {
        evaluations: episodes,
        ..Default::default()
    })
    .run(&lut);
    let (_, bsl) = best_single_library(&lut);
    GapRow {
        network: network.to_string(),
        mode,
        bound_ms: bound,
        bound_by: bound_by.to_string(),
        qsdnn_ms: qs.best_cost_ms,
        rs_ms: rs.best_cost_ms,
        sa_ms: sa.best_cost_ms,
        qsdnn_gap_pct: (qs.best_cost_ms / bound - 1.0) * 100.0,
        bsl_gap_pct: (bsl / bound - 1.0) * 100.0,
    }
}

/// **Optimality audit** (extension): how close each search lands to the
/// bound of the same LUT, per roster network, in CPU then GPGPU mode.
pub fn optimality_gap() -> Vec<GapRow> {
    [Mode::Cpu, Mode::Gpgpu]
        .into_iter()
        .flat_map(|mode| zoo::PAPER_ROSTER.map(|name| gap_row(name, mode)))
        .collect()
}

/// One search measured against the chain optimum.
#[derive(Debug, Clone, Serialize)]
pub struct RunRecord {
    pub episodes_total: usize,
    /// First episode count whose best-so-far is within 5% of the optimum
    /// (the whole budget if the run never gets there).
    pub episodes_to_5pct: usize,
    pub best_ms: f64,
}

/// One batch size of a transfer sweep.
#[derive(Debug, Clone, Serialize)]
pub struct SweepPoint {
    pub batch: usize,
    pub optimum_ms: f64,
    pub cold: RunRecord,
    /// Warm-started from the previous batch size's plan; `None` for the
    /// first batch, which has no donor.
    pub warm: Option<RunRecord>,
    /// Descriptor distance to the donor (0 without one).
    pub donor_distance: f64,
}

/// The batch sweep of one network.
#[derive(Debug, Clone, Serialize)]
pub struct NetworkSweep {
    pub network: String,
    pub points: Vec<SweepPoint>,
}

/// One ordered platform pair: the target searched cold, and warm-started
/// from the donor platform's plan.
#[derive(Debug, Clone, Serialize)]
pub struct CrossPlatformPoint {
    pub network: String,
    pub donor_platform: String,
    pub target_platform: String,
    pub donor_distance: f64,
    pub optimum_ms: f64,
    pub cold: RunRecord,
    pub warm: RunRecord,
}

/// **Scenario-transfer study** (CPU mode), in the shape of the JSON its
/// former standalone bench persisted: batch sweeps, each point
/// warm-started from the previous one, and every ordered pair of built-in
/// platforms at batch 1.
#[derive(Debug, Clone, Serialize)]
pub struct TransferStudy {
    /// Always `transfer_warm_start`.
    pub bench: String,
    /// Always `cpu`.
    pub mode: String,
    pub sweeps: Vec<NetworkSweep>,
    pub cross_platform: Vec<CrossPlatformPoint>,
}

/// A solved scenario that can donate its plan.
struct Solved {
    lut: CostLut,
    descriptor: ScenarioDescriptor,
    cold: SearchReport,
    optimum: f64,
}

impl Solved {
    fn new(lut: CostLut, descriptor: ScenarioDescriptor) -> Self {
        let (_, optimum) = solve_chain_dp(&lut).expect("roster networks are chains");
        let cold = QsDnnSearch::new(QsDnnConfig::with_episodes(episodes_for(&lut))).run(&lut);
        Solved {
            lut,
            descriptor,
            cold,
            optimum,
        }
    }

    fn record(&self, report: &SearchReport) -> RunRecord {
        RunRecord {
            episodes_total: report.episodes,
            episodes_to_5pct: report
                .curve
                .iter()
                .position(|r| r.best_so_far_ms <= self.optimum * 1.05 + 1e-12)
                .map_or(report.curve.len(), |i| i + 1),
            best_ms: report.best_cost_ms,
        }
    }

    /// Searches this scenario warm-started from `donor`'s cold plan. The
    /// donor's table is rebuilt from per-candidate times only, as
    /// `qsdnn-serve` rebuilds cached donors, so this is the served path.
    fn warm_from(&self, donor: &Solved) -> SearchReport {
        let dims: Vec<usize> = (0..donor.lut.len())
            .map(|l| donor.lut.candidates(l).len())
            .collect();
        let plan = &donor.cold.best_assignment;
        let costs: Vec<f64> = plan
            .iter()
            .enumerate()
            .map(|(l, &ci)| donor.lut.time(l, ci))
            .collect();
        let table = QTable::from_best_path(&dims, plan, &costs).expect("consistent plan");
        let mapping = TransferMapping::between(&donor.descriptor, &self.descriptor);
        let mut cfg = QsDnnConfig::with_episodes(self.cold.episodes);
        cfg.warm_start = true;
        QsDnnSearch::new(cfg).run_warm(&self.lut, &table, &mapping)
    }
}

/// **Scenario transfer**: how many episodes a search needs to come within
/// 5% of the chain optimum, cold against warm-started — along the batch
/// sweep of [`batch_sweep`], and across the built-in platforms.
pub fn transfer_warm_start() -> TransferStudy {
    let mut sweeps = Vec::new();
    for network in ["lenet5", "alexnet"] {
        let mut points = Vec::new();
        let mut donor: Option<Solved> = None;
        for batch in [1usize, 2, 4, 8] {
            let lut = lut(network, batch, Mode::Cpu, SWEEP_REPEATS);
            let descriptor = ScenarioDescriptor::of(&lut).with_batch(batch);
            let this = Solved::new(lut, descriptor);
            points.push(SweepPoint {
                batch,
                optimum_ms: this.optimum,
                cold: this.record(&this.cold),
                warm: donor.as_ref().map(|d| this.record(&this.warm_from(d))),
                donor_distance: donor
                    .as_ref()
                    .map_or(0.0, |d| d.descriptor.distance(&this.descriptor)),
            });
            // The next batch warm-starts from this one, chaining the sweep.
            donor = Some(this);
        }
        sweeps.push(NetworkSweep {
            network: network.to_string(),
            points,
        });
    }

    // Solve each platform cold, then warm every ordered pair from the
    // other platform's plan. CPU mode keeps the CPU-only target in.
    let registry = PlatformRegistry::builtin();
    let mut cross_platform = Vec::new();
    for network in ["lenet5", "alexnet"] {
        let net = zoo::by_name(network, 1).expect("roster");
        let solved: Vec<(String, Solved)> = ["sim-tx2", "sim-gpu-heavy", "sim-cpu-only"]
            .into_iter()
            .map(|platform| {
                let spec = registry.resolve(platform).expect("built-in");
                let lut = Profiler::with_repeats(registry.instantiate(spec), SWEEP_REPEATS)
                    .profile(&net, Mode::Cpu);
                let descriptor = ScenarioDescriptor::of(&lut)
                    .with_batch(1)
                    .with_platform_features(spec.features());
                (spec.name.clone(), Solved::new(lut, descriptor))
            })
            .collect();
        for (donor_platform, donor) in &solved {
            for (target_platform, target) in &solved {
                if donor_platform == target_platform {
                    continue;
                }
                cross_platform.push(CrossPlatformPoint {
                    network: network.to_string(),
                    donor_platform: donor_platform.clone(),
                    target_platform: target_platform.clone(),
                    donor_distance: donor.descriptor.distance(&target.descriptor),
                    optimum_ms: target.optimum,
                    cold: target.record(&target.cold),
                    warm: target.record(&target.warm_from(donor)),
                });
            }
        }
    }

    TransferStudy {
        bench: "transfer_warm_start".into(),
        mode: "cpu".into(),
        sweeps,
        cross_platform,
    }
}
