//! The in-process layer pass: one number per layer, from timing calls into
//! each crate's public functions.
//!
//! Every probe is a closure timed in batches; the reported value is the
//! median batch, and each batch is one span in the trace. Rates use work
//! computed from shapes (`2 · LayerDesc::macs` per call, bytes from
//! `Shape::bytes`), never from a hardware counter.

use std::hint::black_box;
use std::path::Path;
use std::sync::mpsc::channel;
use std::sync::Arc;
use std::time::{Duration, Instant};

use qsdnn::baselines::{
    pbqp_search, solve_chain_dp, RandomSearch, SimulatedAnnealing, SimulatedAnnealingConfig,
};
use qsdnn::engine::{
    toy, AnalyticalPlatform, CostLut, MeasuredPlatform, Mode, Objective, Profiler,
    ScenarioDescriptor,
};
use qsdnn::gemm::{sgemm_blocked, sgemm_naive, sgemm_packed, sgemv, BlasBackend, Gemm};
use qsdnn::nn::{zoo, ConvParams, FcParams, LayerDesc, LayerKind, PoolKind, PoolParams};
use qsdnn::pbqp::PbqpGraph;
use qsdnn::primitives::generate_weights;
use qsdnn::primitives::kernels::{conv_direct, depthwise, fc, lowering, pool, winograd};
use qsdnn::tensor::{DataLayout, Shape, Tensor};
use qsdnn::{Portfolio, QTable, QsDnnConfig, QsDnnSearch, TransferMapping};
use qsdnn_obs::{EventKind, FlightRecorder, Histogram, Registry};
use qsdnn_serve::protocol::{
    default_episodes, encode_binary_frame, encode_body, parse_binary_request,
    parse_binary_response, parse_request_frame, parse_response_frame, BinaryFrame,
    BinaryFrameStatus, FrameBuffer, PlanResponse, Request, Response, TransferMode, MAX_FRAME_BYTES,
};
use qsdnn_serve::{
    run_portfolio_parallel, PlanCache, PlanClient, PlanServer, ScenarioIndex, ServerConfig,
    WorkerPool,
};

use crate::service::SERVER_THREADS;
use crate::stats::{median, MIB};
use crate::trace::Tracer;
use crate::verify::lut_for;
use crate::workloads::{plan_request, Scenario};

const GIB: f64 = 1024.0 * MIB;

/// Batch timer and row collector of the layer pass.
struct Probes<'a> {
    tracer: &'a mut Tracer,
    /// Wall time one batch aims for.
    target: Duration,
    batches: usize,
    rows: Vec<(String, f64)>,
}

impl Probes<'_> {
    /// Nanoseconds per call of `f`: the median over `batches` batches, each
    /// sized from one calibration call to last about `target`.
    fn ns(&mut self, name: &'static str, mut f: impl FnMut()) -> f64 {
        let t = Instant::now();
        f();
        let first = t.elapsed().as_nanos().max(1);
        let iters = (self.target.as_nanos() / first).clamp(1, 1 << 20) as usize;
        let mut per_call = Vec::with_capacity(self.batches);
        for _ in 0..self.batches {
            let start = Instant::now();
            for _ in 0..iters {
                f();
            }
            let end = Instant::now();
            self.tracer.record(name, start, end, Tracer::root(), 0);
            per_call.push(end.duration_since(start).as_nanos() as f64 / iters as f64);
        }
        median(&per_call)
    }

    fn row(&mut self, name: &str, value: f64) {
        self.rows.push((name.to_string(), value));
    }

    fn row_ns(&mut self, name: &'static str, f: impl FnMut()) {
        let v = self.ns(name, f);
        self.row(name, v);
    }

    fn row_us(&mut self, name: &'static str, f: impl FnMut()) {
        let v = self.ns(name, f) / 1e3;
        self.row(name, v);
    }

    fn row_ms(&mut self, name: &'static str, f: impl FnMut()) -> f64 {
        let v = self.ns(name, f) / 1e6;
        self.row(name, v);
        v
    }

    /// `units` of work per call, reported per second.
    fn row_rate(&mut self, name: &'static str, units: f64, f: impl FnMut()) {
        let v = units / (self.ns(name, f) / 1e9);
        self.row(name, v);
    }
}

fn scenario(network: &'static str, mode: Mode) -> Scenario {
    Scenario {
        network,
        batch: 1,
        mode,
    }
}

/// Runs every in-process probe. `quick` shortens the batches for the
/// smoke run; `tmp` is where the spill-reload probe may write.
pub fn run(tracer: &mut Tracer, quick: bool, tmp: &Path) -> Result<Vec<(String, f64)>, String> {
    let mut p = Probes {
        tracer,
        target: Duration::from_micros(if quick { 500 } else { 4000 }),
        batches: if quick { 3 } else { 5 },
        rows: Vec::new(),
    };
    let mobilenet = lut_for(&scenario("mobilenet_v1", Mode::Gpgpu));
    core_and_engine(&mut p, &mobilenet);
    kernels(&mut p);
    obs(&mut p);
    cache(&mut p, tmp)?;
    transfer_index(&mut p, &mobilenet);
    wire(&mut p)?;
    Ok(p.rows)
}

fn core_and_engine(p: &mut Probes, mobilenet: &CostLut) {
    let vgg19 = lut_for(&scenario("vgg19", Mode::Gpgpu));
    let googlenet_net = zoo::googlenet(1);
    let googlenet = lut_for(&scenario("googlenet", Mode::Gpgpu));

    p.row_rate("core.search.episodes_per_s", 1000.0, || {
        black_box(QsDnnSearch::new(QsDnnConfig::with_episodes(1000)).run(black_box(mobilenet)));
    });
    p.row_rate("core.random.episodes_per_s", 1000.0, || {
        black_box(RandomSearch::new(1000, 1).run(black_box(mobilenet)));
    });
    p.row_rate("core.annealing.evals_per_s", 1000.0, || {
        let config = SimulatedAnnealingConfig {
            evaluations: 1000,
            ..Default::default()
        };
        black_box(SimulatedAnnealing::new(config).run(black_box(mobilenet)));
    });
    p.row_us("core.chain_dp.solve_us", || {
        black_box(solve_chain_dp(black_box(&vgg19)));
    });
    p.row_us("core.pbqp.search_us", || {
        black_box(pbqp_search(black_box(&googlenet)));
    });

    // The default portfolio on one scenario: sequentially (core) and on a
    // two-worker pool (serve).
    let seeds = ServerConfig::default().default_seeds;
    let portfolio = Portfolio::paper_default(default_episodes(mobilenet.len()), &seeds);
    let sequential_ms = p.row_ms("core.portfolio.sequential_ms", || {
        black_box(portfolio.run_sequential(black_box(mobilenet)));
    });
    let pool = WorkerPool::new(SERVER_THREADS);
    let shared = Arc::new(mobilenet.clone());
    let parallel_ms = p.row_ms("serve.portfolio.parallel_ms", || {
        black_box(run_portfolio_parallel(&portfolio, &shared, &pool));
    });
    p.row(
        "serve.portfolio.parallel_speedup_x",
        sequential_ms / parallel_ms,
    );
    p.row_us("serve.pool.roundtrip_us", || {
        let (tx, rx) = channel();
        pool.execute(move || {
            let _ = tx.send(());
        });
        let _ = rx.recv();
    });

    // One Bellman backup, as the tabular agent does per layer per episode.
    let mut q = QTable::new(mobilenet);
    let mut step = 0usize;
    p.row_rate("core.qtable.update_per_s", 1.0, || {
        let l = 1 + step % (mobilenet.len() - 1);
        let (prev, a) = (step % q.arity(l - 1), (step / 3) % q.arity(l));
        let next = if l + 1 < mobilenet.len() {
            q.best(l + 1, a).1
        } else {
            0.0
        };
        let old = q.get(l, prev, a);
        q.set(l, prev, a, old + 0.05 * (-1.0 + 0.9 * next - old));
        step += 1;
    });

    let d1 = ScenarioDescriptor::of(mobilenet).with_batch(1);
    let d2 = ScenarioDescriptor::of(&lut_for(&Scenario {
        network: "mobilenet_v1",
        batch: 2,
        mode: Mode::Gpgpu,
    }))
    .with_batch(2);
    p.row_us("core.transfer.mapping_us", || {
        black_box(TransferMapping::between(black_box(&d1), black_box(&d2)));
    });
    p.row_us("engine.scenario.of_us", || {
        black_box(ScenarioDescriptor::of(black_box(mobilenet)));
    });
    p.row_ns("engine.scenario.distance_ns", || {
        black_box(black_box(&d1).distance(black_box(&d2)));
    });

    // The PBQP instance of googlenet, solved without the LUT wrapping.
    let mut graph = PbqpGraph::new();
    for entry in googlenet.layers() {
        graph.add_node(entry.time_ms.clone());
    }
    for (l, entry) in googlenet.layers().iter().enumerate() {
        for e in &entry.incoming {
            graph
                .add_edge(e.from, l, e.penalty.clone())
                .expect("LUT edges are well-formed");
        }
    }
    p.row_us("pbqp.solve_us", || {
        black_box(black_box(&graph).solve_with_cost());
    });

    p.row_rate(
        "engine.profiler.layers_per_s",
        googlenet_net.len() as f64,
        || {
            black_box(
                Profiler::with_repeats(AnalyticalPlatform::tx2(), 10)
                    .profile(black_box(&googlenet_net), Mode::Gpgpu),
            );
        },
    );
    let greedy = vgg19.greedy_assignment();
    p.row_rate("engine.lut.cost_evals_per_s", 1.0, || {
        black_box(black_box(&vgg19).cost(black_box(&greedy)));
    });
    let per_layer = p.ns("engine.lut.step_cost_ns", || {
        for (l, &ci) in greedy.iter().enumerate() {
            black_box(vgg19.step_cost(l, ci, black_box(&greedy)));
        }
    }) / greedy.len() as f64;
    p.row("engine.lut.step_cost_ns", per_layer);
    p.row_us("engine.lut.fingerprint_us", || {
        black_box(black_box(mobilenet).fingerprint());
    });
    p.row_us("engine.lut.with_objective_us", || {
        black_box(black_box(mobilenet).with_objective(Objective::Latency));
    });

    // Informational: Phase 1 with wall-clock timing of the real kernels.
    let lenet = zoo::lenet5(1);
    let started = Instant::now();
    black_box(Profiler::with_repeats(MeasuredPlatform::new(7), 1).profile(&lenet, Mode::Cpu));
    let end = Instant::now();
    p.tracer.record(
        "engine.profiler.measured_lenet5_ms",
        started,
        end,
        Tracer::root(),
        0,
    );
    p.row(
        "engine.profiler.measured_lenet5_ms",
        end.duration_since(started).as_secs_f64() * 1e3,
    );
}

fn kernels(p: &mut Probes) {
    // GEMM at 256³.
    let n = 256usize;
    let a: Vec<f32> = (0..n * n).map(|i| (i % 13) as f32 * 0.1).collect();
    let b: Vec<f32> = (0..n * n).map(|i| (i % 7) as f32 * 0.1).collect();
    let mut c = vec![0.0f32; n * n];
    let gflop = 2.0 * (n * n * n) as f64 / 1e9;
    p.row_rate("gemm.naive_gflops", gflop, || {
        sgemm_naive(n, n, n, black_box(&a), black_box(&b), &mut c);
    });
    p.row_rate("gemm.blocked_gflops", gflop, || {
        sgemm_blocked(n, n, n, black_box(&a), black_box(&b), &mut c, 32, 64, 32);
    });
    p.row_rate("gemm.packed_gflops", gflop, || {
        sgemm_packed(n, n, n, black_box(&a), black_box(&b), &mut c);
    });
    let (m, k) = (1024usize, 1024usize);
    let mat: Vec<f32> = (0..m * k).map(|i| (i % 11) as f32 * 0.1).collect();
    let x: Vec<f32> = (0..k).map(|i| (i % 5) as f32 * 0.1).collect();
    let mut y = vec![0.0f32; m];
    p.row_rate("gemm.gemv_gflops", 2.0 * (m * k) as f64 / 1e9, || {
        sgemv(m, k, black_box(&mat), black_box(&x), &mut y);
    });

    // One mid-size 3×3/s1 convolution every algorithm family can run.
    let in_shape = Shape::new(1, 16, 32, 32);
    let out_shape = Shape::new(1, 32, 32, 32);
    let conv = ConvParams::square(32, 3, 1, 1);
    let gflop = 2.0
        * LayerDesc::new("conv", LayerKind::Conv(conv)).macs(&[in_shape], out_shape) as f64
        / 1e9;
    let input = Tensor::random(in_shape, DataLayout::Nchw, 3);
    let input_nhwc = input.to_layout(DataLayout::Nhwc);
    let w: Vec<f32> = (0..32 * 16 * 9)
        .map(|i| ((i % 11) as f32 - 5.0) * 0.05)
        .collect();
    let bias = vec![0.1f32; 32];
    let gemm = Gemm::new(BlasBackend::OpenBlasLike);
    p.row_rate("primitives.conv_direct_vanilla_gflops", gflop, || {
        black_box(conv_direct::conv_direct_vanilla(
            black_box(&input),
            &w,
            &bias,
            &conv,
            out_shape,
            DataLayout::Nchw,
        ));
    });
    p.row_rate("primitives.conv_direct_opt_gflops", gflop, || {
        black_box(conv_direct::conv_direct_opt(
            black_box(&input),
            &w,
            &bias,
            &conv,
            out_shape,
        ));
    });
    p.row_rate("primitives.conv_im2col_gflops", gflop, || {
        black_box(lowering::conv_im2col_gemm(
            black_box(&input),
            &w,
            &bias,
            &conv,
            out_shape,
            gemm,
        ));
    });
    p.row_rate("primitives.conv_im2row_gflops", gflop, || {
        black_box(lowering::conv_im2row_gemm(
            black_box(&input_nhwc),
            &w,
            &bias,
            &conv,
            out_shape,
            gemm,
        ));
    });
    p.row_rate("primitives.conv_kn2row_gflops", gflop, || {
        black_box(lowering::conv_kn2row_gemm(
            black_box(&input),
            &w,
            &bias,
            &conv,
            out_shape,
            gemm,
        ));
    });
    p.row_rate("primitives.conv_winograd_gflops", gflop, || {
        black_box(winograd::conv_winograd(
            black_box(&input),
            &w,
            &bias,
            &conv,
            out_shape,
        ));
    });

    // MobileNet-style depth-wise 3×3 on NHWC.
    let dw_shape = Shape::new(1, 64, 56, 56);
    let dw = ConvParams::square(64, 3, 1, 1);
    let dw_gflop = 2.0
        * LayerDesc::new("dw", LayerKind::DepthwiseConv(dw)).macs(&[dw_shape], dw_shape) as f64
        / 1e9;
    let big = Tensor::random(dw_shape, DataLayout::Nchw, 9);
    let big_nhwc = big.to_layout(DataLayout::Nhwc);
    let dw_w: Vec<f32> = (0..64 * 9).map(|i| ((i % 7) as f32 - 3.0) * 0.1).collect();
    let dw_bias = vec![0.0f32; 64];
    p.row_rate("primitives.depthwise_gflops", dw_gflop, || {
        black_box(depthwise::depthwise_opt_nhwc(
            black_box(&big_nhwc),
            &dw_w,
            &dw_bias,
            &dw,
            dw_shape,
        ));
    });

    let fc_in = Shape::new(1, 2048, 1, 1);
    let fc_out = Shape::new(1, 1000, 1, 1);
    let fc_gflop = 2.0
        * LayerDesc::new("fc", LayerKind::Fc(FcParams::new(1000))).macs(&[fc_in], fc_out) as f64
        / 1e9;
    let fc_x = Tensor::random(fc_in, DataLayout::Nchw, 4);
    let fc_w: Vec<f32> = (0..2048 * 1000).map(|i| (i % 17) as f32 * 0.01).collect();
    let fc_bias = vec![0.0f32; 1000];
    p.row_rate("primitives.fc_gflops", fc_gflop, || {
        black_box(fc::fc_gemv(black_box(&fc_x), &fc_w, &fc_bias, fc_out, gemm));
    });

    let pool_params = PoolParams::square(PoolKind::Max, 2, 2, 0);
    let pool_out = Shape::new(1, 64, 28, 28);
    p.row_rate(
        "primitives.pool_gib_s",
        dw_shape.bytes() as f64 / GIB,
        || {
            black_box(pool::pool_generic(
                black_box(&big),
                &pool_params,
                pool_out,
                DataLayout::Nchw,
            ));
        },
    );
    p.row_rate(
        "tensor.to_layout_gib_s",
        dw_shape.bytes() as f64 / GIB,
        || {
            black_box(black_box(&big).to_layout(DataLayout::Nhwc));
        },
    );

    // `run_network` regenerates every layer's weights on every call.
    let squeezenet = zoo::squeezenet_v11(1);
    p.row_ms("primitives.weights_gen_ms", || {
        for node in squeezenet.layers() {
            black_box(generate_weights(node, &squeezenet.input_shapes(node.id), 7));
        }
    });
    p.row_us("nn.zoo.build_us", || {
        black_box(zoo::googlenet(1));
    });
}

fn obs(p: &mut Probes) {
    let hist = Histogram::new();
    let mut v = 1u64;
    p.row_ns("obs.hist.record_ns", || {
        v = v.wrapping_mul(6364136223846793005).wrapping_add(1);
        hist.record(v >> 44);
    });
    let recorder = FlightRecorder::new(true);
    p.row_ns("obs.recorder.emit_ns", || {
        recorder.emit(EventKind::CacheHit, 0xABCD, 1, 2);
    });
    // A registry shaped like the server's: a few dozen instruments.
    let registry = Registry::new();
    for i in 0..8 {
        let stage = format!("s{i}");
        let h = registry.histogram("probe_stage_us", "probe", &[("stage", &stage)]);
        for v in 0..64 {
            h.record(v * 37);
        }
        registry
            .counter("probe_total", "probe", &[("stage", &stage)])
            .inc();
        registry
            .gauge("probe_level", "probe", &[("stage", &stage)])
            .set(i);
    }
    p.row_us("obs.registry.snapshot_us", || {
        black_box(registry.snapshot());
    });
}

fn cache(p: &mut Probes, tmp: &Path) -> Result<(), String> {
    // Lookup and insert cost do not depend on the value, so the resident
    // probes hold a toy LUT; only the spill reload carries a real plan.
    let value = toy::fig1_lut();
    let keys: Vec<String> = (0..256).map(|k| format!("{k:016x}")).collect();
    let resident: Arc<PlanCache<CostLut>> = Arc::new(PlanCache::new());
    for key in &keys {
        resident.get_or_compute(key, || value.clone());
        resident.attach_wire_body(key, Arc::new(vec![0u8; 64]));
    }
    let mut k = 0usize;
    p.row_ns("serve.cache.peek_ns", || {
        k = (k + 97) % keys.len();
        black_box(resident.peek(&keys[k]));
    });
    p.row_ns("serve.cache.hit_get_ns", || {
        k = (k + 97) % keys.len();
        black_box(resident.get_or_compute(&keys[k], || unreachable!("the key is resident")));
    });
    p.row_ns("serve.cache.wire_body_ns", || {
        k = (k + 97) % keys.len();
        black_box(resident.wire_body(&keys[k]));
    });

    // Two threads peeking at once: per-call time as each thread sees it.
    const PEEKS: usize = 1 << 14;
    let peek_2t = p.ns("serve.cache.peek_2t_ns", || {
        std::thread::scope(|scope| {
            for t in 0..2usize {
                let (cache, keys) = (&resident, &keys);
                scope.spawn(move || {
                    let mut k = t * 37;
                    for _ in 0..PEEKS {
                        k = (k + 97) % keys.len();
                        black_box(cache.peek(&keys[k]));
                    }
                });
            }
        });
    }) / PEEKS as f64;
    p.row("serve.cache.peek_2t_ns", peek_2t);

    let mut fresh = 0u64;
    let roomy: PlanCache<CostLut> = PlanCache::new().with_max_entries(1 << 22);
    p.row_ns("serve.cache.miss_insert_ns", || {
        fresh += 1;
        black_box(roomy.get_or_compute(&format!("{fresh:016x}"), || value.clone()));
    });
    let tight: PlanCache<CostLut> = PlanCache::new().with_max_entries(64);
    p.row_ns("serve.cache.evict_insert_ns", || {
        fresh += 1;
        black_box(tight.get_or_compute(&format!("{fresh:016x}"), || value.clone()));
    });

    // One resident slot and two keys: every lookup evicts the other key
    // and reloads this one from its spilled JSON file.
    // AlexNet's plan is the median default-size one: a QS-DNN member
    // wins, so the outcome carries a 1000-episode learning curve.
    let alexnet = lut_for(&scenario("alexnet", Mode::Gpgpu));
    let seeds = ServerConfig::default().default_seeds;
    let outcome = Portfolio::paper_default(default_episodes(alexnet.len()), &seeds)
        .run_sequential(&alexnet)
        .ok_or("the default portfolio found no plan for alexnet")?;
    if outcome.best.curve.is_empty() {
        return Err("spill probe: the alexnet plan carries no learning curve".into());
    }
    let dir = tmp.join("layer-spill");
    let spilling = PlanCache::with_spill_dir(&dir)
        .map_err(|e| format!("spill dir {}: {e}", dir.display()))?
        .with_shards(1)
        .with_max_entries(1);
    for key in &keys[..2] {
        spilling.get_or_compute(key, || outcome.clone());
    }
    let before = spilling.stats().spill_loads;
    let mut calls = 0u64;
    p.row_us("serve.cache.spill_reload_us", || {
        // keys[1] went in last, so keys[0] is the one on disk first.
        black_box(spilling.get_or_compute(&keys[(calls % 2) as usize], || {
            unreachable!("the key is on disk")
        }));
        calls += 1;
    });
    let loads = spilling.stats().spill_loads - before;
    let _ = std::fs::remove_dir_all(&dir);
    if loads != calls {
        return Err(format!(
            "spill probe: {loads} spill loads in {calls} lookups"
        ));
    }
    Ok(())
}

fn transfer_index(p: &mut Probes, mobilenet: &CostLut) {
    // A full index: 1024 scenarios, four networks at 256 batches each.
    let index = ScenarioIndex::new(1024);
    let bases: Vec<ScenarioDescriptor> = ["mobilenet_v1", "vgg19", "lenet5", "resnet18"]
        .into_iter()
        .map(|n| ScenarioDescriptor::of(&lut_for(&scenario(n, Mode::Gpgpu))))
        .collect();
    for i in 0..1024usize {
        let descriptor = bases[i % 4].clone().with_batch(1 + i / 4);
        index.insert(descriptor, format!("{i:016x}"), format!("{i:016x}"), None);
    }
    let probe = ScenarioDescriptor::of(mobilenet).with_batch(300);
    p.row_us("serve.transfer.nearest_us", || {
        black_box(index.nearest(black_box(&probe), "probe", 4));
    });
    let mut i = 1024usize;
    p.row_us("serve.transfer.insert_us", || {
        i += 1;
        let descriptor = bases[i % 4].clone().with_batch(1 + i / 4);
        index.insert(descriptor, format!("{i:016x}"), format!("{i:016x}"), None);
    });
}

/// Frames `bytes` through a `FrameBuffer` in socket-read-sized chunks.
fn reframe_binary(buf: &mut FrameBuffer, bytes: &[u8]) -> Option<BinaryFrame> {
    for chunk in bytes.chunks(16 * 1024) {
        buf.push(chunk);
    }
    match buf.next_binary_frame(MAX_FRAME_BYTES) {
        BinaryFrameStatus::Frame(frame) => Some(frame),
        _ => None,
    }
}

fn wire(p: &mut Probes) -> Result<(), String> {
    // Real payloads, fetched from a server like any client would: the
    // median default-size reply (alexnet: 1000 episodes of learning curve,
    // 93 KB) and a small one.
    let server = PlanServer::start(ServerConfig {
        threads: SERVER_THREADS,
        ..Default::default()
    })
    .map_err(|e| format!("probe server: {e}"))?;
    let addr = server.local_addr();
    let mut v3 = PlanClient::connect(addr).map_err(|e| format!("probe connect: {e}"))?;
    let mut v2 =
        PlanClient::connect_with_version(addr, 2).map_err(|e| format!("probe connect v2: {e}"))?;
    let default_req = plan_request(
        &scenario("alexnet", Mode::Gpgpu),
        0,
        Vec::new(),
        TransferMode::Off,
    );
    let small_req = plan_request(
        &scenario("tiny_cnn", Mode::Gpgpu),
        100,
        Vec::new(),
        TransferMode::Off,
    );
    let fetch = |client: &mut PlanClient, req| -> Result<PlanResponse, String> {
        client.plan(req).map_err(|e| format!("probe plan: {e}"))
    };
    let default_reply = fetch(&mut v3, default_req.clone())?;
    fetch(&mut v3, small_req.clone())?;
    let small_reply = fetch(&mut v3, small_req.clone())?;
    if !small_reply.cache_hit || default_reply.best.curve.is_empty() {
        return Err("probe: the payloads are not the ones the probes are sized for".into());
    }

    // The latency floor: one small hit at a time on an idle server.
    p.row_us("serve.client.idle_roundtrip_us", || {
        black_box(v3.plan(small_req.clone()).expect("idle v3 round trip"));
    });
    p.row_us("serve.client.idle_roundtrip_json_us", || {
        black_box(v2.plan(small_req.clone()).expect("idle v2 round trip"));
    });
    drop((v3, v2));
    server.shutdown();

    let codec = |e| format!("probe codec: {e}");
    let request = Request::Plan(default_req);
    let request_json = serde_json::to_string(&request).map_err(|e| format!("probe json: {e}"))?;
    let request_line = format!("{{\"id\":7,\"req\":{request_json}}}");
    let mut buf = FrameBuffer::new();
    let request_wire =
        encode_binary_frame(Some(7), &encode_body(&request).map_err(codec)?).map_err(codec)?;
    let request_frame = reframe_binary(&mut buf, &request_wire).ok_or("probe: request frame")?;
    p.row_ns("serve.protocol.json_parse_req_ns", || {
        black_box(parse_request_frame(black_box(&request_line)).expect("valid request line"));
    });
    p.row_ns("serve.protocol.bin_parse_req_ns", || {
        black_box(parse_binary_request(black_box(&request_frame)).expect("valid request frame"));
    });

    let small = Response::Plan(small_reply);
    let small_wire =
        encode_binary_frame(Some(7), &encode_body(&small).map_err(codec)?).map_err(codec)?;
    p.row_ns("serve.protocol.frame_small_ns", || {
        black_box(reframe_binary(&mut buf, black_box(&small_wire)).expect("one whole frame"));
    });

    let reply = Response::Plan(default_reply);
    let body = encode_body(&reply).map_err(codec)?;
    let body_mib = body.len() as f64 / MIB;
    let reply_wire = encode_binary_frame(Some(7), &body).map_err(codec)?;
    let reply_frame = reframe_binary(&mut buf, &reply_wire).ok_or("probe: reply frame")?;
    p.row_rate("serve.protocol.bin_encode_reply_mib_s", body_mib, || {
        black_box(encode_body(black_box(&reply)).expect("reply encodes"));
    });
    p.row_rate("serve.protocol.bin_decode_reply_mib_s", body_mib, || {
        black_box(parse_binary_response(black_box(&reply_frame)).expect("reply decodes"));
    });
    p.row_rate("serve.protocol.framebuf_bin_mib_s", body_mib, || {
        black_box(reframe_binary(&mut buf, black_box(&reply_wire)).expect("one whole frame"));
    });

    let reply_json = serde_json::to_string(&reply).map_err(|e| format!("probe json: {e}"))?;
    let reply_line = format!("{{\"id\":7,\"resp\":{reply_json}}}\n");
    let json_mib = reply_line.len() as f64 / MIB;
    p.row_rate("serve.protocol.json_encode_reply_mib_s", json_mib, || {
        black_box(serde_json::to_string(black_box(&reply)).expect("reply encodes"));
    });
    p.row_rate("serve.protocol.json_decode_reply_mib_s", json_mib, || {
        black_box(parse_response_frame(black_box(&reply_line)).expect("reply decodes"));
    });
    p.row_rate("serve.protocol.framebuf_json_mib_s", json_mib, || {
        for chunk in reply_line.as_bytes().chunks(16 * 1024) {
            buf.push(chunk);
        }
        black_box(buf.next_frame().expect("one whole line"));
    });
    Ok(())
}
