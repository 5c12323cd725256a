//! The seven workloads: what each sends, why it exists, and the seeded
//! generator that turns `--seed` into its request sequence.
//!
//! Names are normative: every performance or simplicity claim in this
//! repository is stated as `<metric> on <workload>`. Sizes are for a
//! 2-core runner; `bench/README.md` says what to re-size elsewhere.

use std::collections::HashSet;

use qsdnn::engine::{Fnv64, Mode};
use qsdnn_serve::protocol::{PlanRequest, TransferMode};
use qsdnn_serve::DEFAULT_CLIENT_WINDOW;

use crate::rng::Rng;

/// The paper's nine-network roster plus the two toy networks.
pub const NETWORKS: [&str; 11] = [
    "lenet5",
    "alexnet",
    "vgg19",
    "googlenet",
    "mobilenet_v1",
    "squeezenet_v11",
    "resnet18",
    "sphereface20",
    "tiny_yolo_v2",
    "tiny_cnn",
    "toy_branchy",
];

/// Batches a warm or profile-missing request may ask for; the working set
/// itself only holds batches 1 and 2, so all of these are unseen.
const FRESH_BATCHES: std::ops::RangeInclusive<usize> = 3..=64;

/// One `(network, batch, mode)` the service can be asked to plan.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct Scenario {
    pub network: &'static str,
    pub batch: usize,
    pub mode: Mode,
}

/// The working set: 11 networks × batch {1,2} × mode {gpgpu,cpu} = 44.
pub fn working_set() -> Vec<Scenario> {
    let mut ws = Vec::with_capacity(NETWORKS.len() * 4);
    for network in NETWORKS {
        for batch in [1, 2] {
            for mode in [Mode::Gpgpu, Mode::Cpu] {
                ws.push(Scenario {
                    network,
                    batch,
                    mode,
                });
            }
        }
    }
    ws
}

/// How the server is expected to answer a request.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Class {
    /// Working-set scenario, already cached: no search runs.
    Hit,
    /// `transfer: auto` at an unseen batch: a warm-started search.
    Warm,
    /// Fresh seeds, `transfer: off`: a full cold search.
    Cold,
}

/// One generated request and what the benchmark knows about it.
#[derive(Debug)]
pub struct Op {
    pub class: Class,
    pub scenario: Scenario,
    /// Index into the working set for [`Class::Hit`] operations.
    pub ws: usize,
    /// Taken (not cloned) when the request is submitted.
    pub request: Option<PlanRequest>,
}

#[derive(Debug, Clone, Copy, PartialEq)]
pub enum Kind {
    /// One connection, at most `window` requests in flight; the next
    /// request goes out when a reply comes back.
    Closed { window: usize },
    /// Requests are due on a fixed schedule whatever the server does.
    Open { rate_per_s: f64 },
    /// No server: real kernels run the found plans on the host.
    Infer,
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Traffic {
    Hits,
    Misses,
    /// 90% hit, 8% warm, 2% cold, exactly, in shuffled blocks of 50.
    Mix,
    None,
}

#[derive(Debug)]
pub struct Spec {
    pub name: &'static str,
    /// One line for `BENCHMARK.json`.
    pub why: &'static str,
    pub kind: Kind,
    pub traffic: Traffic,
    /// Wire protocol of the load connection (3 = binary, 2 = JSON lines).
    pub protocol: u32,
    /// `episodes` of the working-set requests (0 = server default, whose
    /// replies carry the whole learning curve).
    pub ws_episodes: usize,
    /// Operations per pass; a run is several passes and reports the
    /// median pass.
    pub pass_ops: usize,
    /// Passes of a fixed-count run (`qsbench run`), which sends the same
    /// bytes on every commit.
    pub fixed_passes: usize,
    /// How often set-up is repeated; `setup_s` is the median.
    pub setup_reps: usize,
    /// `cache_max_entries` of the server (0 = shipping default).
    pub cache_entries: usize,
    /// Whether the server gets a spill directory.
    pub spill: bool,
}

/// Every workload, in the order `qsbench run` executes them.
pub const WORKLOADS: [Spec; 7] = [
    Spec {
        name: "hit_default",
        why: "default-size cached replies (median 93 KB) over v3: bytes-bound hit path, body memcpy, outbox, client decode",
        kind: Kind::Closed {
            window: DEFAULT_CLIENT_WINDOW,
        },
        traffic: Traffic::Hits,
        protocol: 3,
        ws_episodes: 0,
        pass_ops: 20 * 44,
        fixed_passes: 12,
        setup_reps: 3,
        cache_entries: 0,
        spill: false,
    },
    Spec {
        name: "hit_small",
        why: "1.5 KB cached replies over v3: request-bound hit path, framing, dispatch, memo and cache lookup, obs, syscalls",
        kind: Kind::Closed {
            window: DEFAULT_CLIENT_WINDOW,
        },
        traffic: Traffic::Hits,
        protocol: 3,
        ws_episodes: 100,
        pass_ops: 400 * 44,
        fixed_passes: 12,
        setup_reps: 5,
        cache_entries: 0,
        spill: false,
    },
    Spec {
        name: "hit_json",
        why: "hit_default's entries over a v2 JSON connection: full Value-tree encode per hit; catches a v3 gain paid for by v2",
        kind: Kind::Closed {
            window: DEFAULT_CLIENT_WINDOW,
        },
        traffic: Traffic::Hits,
        protocol: 2,
        ws_episodes: 0,
        pass_ops: 10 * 44,
        fixed_passes: 12,
        setup_reps: 3,
        cache_entries: 0,
        spill: false,
    },
    Spec {
        name: "miss_cold",
        why: "fresh seeds so every request searches (1 in 5 also re-profiles): core search, portfolio, worker pool, LUT",
        kind: Kind::Closed { window: 2 },
        traffic: Traffic::Misses,
        protocol: 3,
        ws_episodes: 0,
        pass_ops: MISS_PASS_OPS,
        fixed_passes: 5,
        setup_reps: 9,
        cache_entries: 0,
        spill: false,
    },
    Spec {
        name: "churn_spill",
        why: "working set of 44 against a 16-entry cache with a spill dir: eviction, spill load, parse and re-render",
        kind: Kind::Closed {
            window: DEFAULT_CLIENT_WINDOW,
        },
        traffic: Traffic::Hits,
        protocol: 3,
        ws_episodes: 0,
        pass_ops: 14 * 44,
        fixed_passes: 12,
        setup_reps: 3,
        cache_entries: 16,
        spill: true,
    },
    Spec {
        name: "mix_open",
        why: "open loop at 150 req/s, 90% hit 8% warm 2% cold, timed from due time: hits queueing behind searches",
        kind: Kind::Open { rate_per_s: 150.0 },
        traffic: Traffic::Mix,
        protocol: 3,
        ws_episodes: 0,
        pass_ops: 0,
        fixed_passes: 1,
        setup_reps: 3,
        cache_entries: 0,
        spill: false,
    },
    Spec {
        name: "infer_host",
        why: "no server: the found CPU plans of three networks run with real kernels; serve-side changes must not move it",
        kind: Kind::Infer,
        traffic: Traffic::None,
        protocol: 0,
        ws_episodes: 0,
        pass_ops: 0,
        fixed_passes: 8,
        setup_reps: 3,
        cache_entries: 0,
        spill: false,
    },
];

/// A `miss_cold` pass: every working-set scenario once with fresh seeds,
/// plus every network once at a fresh batch. Whole cycles, so every pass
/// costs the same searches whatever the seed (a googlenet search takes
/// fifteen times a lenet5 one).
pub const MISS_PASS_OPS: usize = 44 + NETWORKS.len();

/// Seconds a fixed-count `mix_open` run lasts.
pub const MIX_FIXED_SECONDS: f64 = 10.0;

pub fn by_name(name: &str) -> Option<&'static Spec> {
    WORKLOADS.iter().find(|w| w.name == name)
}

/// A plan request built the only way a frozen benchmark may build one:
/// the library's constructor plus field assignment, so a later field with
/// a default cannot break this file.
pub fn plan_request(
    scenario: &Scenario,
    episodes: usize,
    seeds: Vec<u64>,
    transfer: TransferMode,
) -> PlanRequest {
    let mut req = PlanRequest::latency(scenario.network);
    req.batch = scenario.batch;
    req.mode = scenario.mode;
    req.episodes = episodes;
    req.seeds = seeds;
    req.transfer = transfer;
    req
}

/// The seeded request generator of one workload: passes come out in
/// order, each a function of the seed and of the passes before it.
pub struct Stream {
    spec: &'static Spec,
    rng: Rng,
    ws: Vec<Scenario>,
    /// The rest of the current shuffled cycle over the working set.
    cycle: Vec<usize>,
    /// The same for the searched classes of the mix, one cycle each, so
    /// that every seed asks for the same amount of search.
    warm_cycle: Vec<usize>,
    cold_cycle: Vec<usize>,
    /// Warm-class scenarios already sent: a repeat would be a cache hit.
    warm_seen: HashSet<Scenario>,
    passes: usize,
}

impl Stream {
    pub fn new(spec: &'static Spec, seed: u64) -> Self {
        Stream {
            spec,
            rng: Rng::stream(seed, spec.name, 0),
            ws: working_set(),
            cycle: Vec::new(),
            warm_cycle: Vec::new(),
            cold_cycle: Vec::new(),
            warm_seen: HashSet::new(),
            passes: 0,
        }
    }

    /// Pops the next index of a shuffled cycle over the working set,
    /// reshuffling when it runs out.
    fn draw(cycle: &mut Vec<usize>, rng: &mut Rng, len: usize) -> usize {
        if cycle.is_empty() {
            *cycle = (0..len).collect();
            rng.shuffle(cycle);
        }
        cycle.pop().expect("just refilled")
    }

    /// The next working-set index, in shuffled cycles: every scenario is
    /// drawn equally often, so reply sizes (1 KB to 525 KB) and search
    /// costs weigh the same in every pass and on every seed.
    fn next_ws(&mut self) -> usize {
        Self::draw(&mut self.cycle, &mut self.rng, self.ws.len())
    }

    fn hit(&mut self) -> Op {
        let ws = self.next_ws();
        let scenario = self.ws[ws];
        Op {
            class: Class::Hit,
            scenario,
            ws,
            request: Some(plan_request(
                &scenario,
                self.spec.ws_episodes,
                Vec::new(),
                TransferMode::Off,
            )),
        }
    }

    /// A plan-cache miss: `scenario` searched with seeds no request has
    /// used before.
    fn cold(&mut self, scenario: Scenario) -> Op {
        let base = self.rng.next_u64() >> 8;
        Op {
            class: Class::Cold,
            scenario,
            ws: usize::MAX,
            request: Some(plan_request(
                &scenario,
                0,
                vec![base, base + 1, base + 2],
                TransferMode::Off,
            )),
        }
    }

    fn fresh_batch(&mut self) -> usize {
        FRESH_BATCHES.start()
            + self
                .rng
                .below(FRESH_BATCHES.end() - FRESH_BATCHES.start() + 1)
    }

    /// A working-set network at a batch nothing has asked for yet, with
    /// transfer on: the server warm-starts from the cached neighbour.
    fn warm(&mut self) -> Op {
        loop {
            let ws = Self::draw(&mut self.warm_cycle, &mut self.rng, self.ws.len());
            let mut scenario = self.ws[ws];
            scenario.batch = self.fresh_batch();
            if self.warm_seen.insert(scenario) {
                return Op {
                    class: Class::Warm,
                    scenario,
                    ws: usize::MAX,
                    request: Some(plan_request(&scenario, 0, Vec::new(), TransferMode::Auto)),
                };
            }
        }
    }

    /// The next pass, of `n` operations.
    pub fn pass(&mut self, n: usize) -> Vec<Op> {
        self.passes += 1;
        match self.spec.traffic {
            Traffic::Hits => (0..n).map(|_| self.hit()).collect(),
            Traffic::Misses => {
                let mut ops: Vec<Op> = (0..n.saturating_sub(NETWORKS.len()))
                    .map(|_| {
                        let ws = self.next_ws();
                        self.cold(self.ws[ws])
                    })
                    .collect();
                // One profile-missing request per network; modes alternate
                // by network and by pass.
                for (i, network) in NETWORKS.into_iter().enumerate().take(n) {
                    let scenario = Scenario {
                        network,
                        batch: self.fresh_batch(),
                        mode: [Mode::Gpgpu, Mode::Cpu][(i + self.passes) % 2],
                    };
                    ops.push(self.cold(scenario));
                }
                self.rng.shuffle(&mut ops);
                ops
            }
            Traffic::Mix => {
                let mut ops = Vec::with_capacity(n);
                while ops.len() < n {
                    let block = (n - ops.len()).min(50);
                    let mut classes: Vec<Class> = (0..block)
                        .map(|i| match i * 50 / block {
                            0..=44 => Class::Hit,
                            45..=48 => Class::Warm,
                            _ => Class::Cold,
                        })
                        .collect();
                    self.rng.shuffle(&mut classes);
                    for class in classes {
                        ops.push(match class {
                            Class::Hit => self.hit(),
                            Class::Warm => self.warm(),
                            Class::Cold => {
                                let ws =
                                    Self::draw(&mut self.cold_cycle, &mut self.rng, self.ws.len());
                                self.cold(self.ws[ws])
                            }
                        });
                    }
                }
                ops
            }
            Traffic::None => Vec::new(),
        }
    }
}

/// Fingerprint of a request sequence: what `loadgen.input_fnv` reports and
/// `qsbench list` prints, so "both commits saw the same input" is checkable.
pub fn fingerprint(ops: &[Op]) -> u64 {
    let mut h = Fnv64::new();
    h.write_usize(ops.len());
    for op in ops {
        let Some(req) = &op.request else { continue };
        h.write_str(&req.network);
        h.write_usize(req.batch);
        h.write_str(req.mode.label());
        h.write_usize(req.episodes);
        h.write_usize(req.seeds.len());
        for &s in &req.seeds {
            h.write_u64(s);
        }
        h.write_str(req.transfer.label());
    }
    h.finish()
}

/// Operations in a pass of `spec`: its own size for closed loops, the
/// whole schedule for the open loop.
pub fn pass_size(spec: &Spec, seconds: f64) -> usize {
    match spec.kind {
        Kind::Open { rate_per_s } => (rate_per_s * seconds).round() as usize,
        _ => spec.pass_ops,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn first_pass(name: &str, seed: u64) -> Vec<Op> {
        let spec = by_name(name).unwrap();
        Stream::new(spec, seed).pass(pass_size(spec, 4.0))
    }

    #[test]
    fn same_seed_same_input_and_another_seed_differs() {
        for spec in &WORKLOADS {
            if spec.traffic == Traffic::None {
                continue;
            }
            let a = fingerprint(&first_pass(spec.name, 42));
            assert_eq!(a, fingerprint(&first_pass(spec.name, 42)), "{}", spec.name);
            assert_ne!(a, fingerprint(&first_pass(spec.name, 43)), "{}", spec.name);
        }
    }

    #[test]
    fn working_set_is_44_distinct_scenarios() {
        let ws = working_set();
        assert_eq!(ws.len(), 44);
        assert_eq!(ws.iter().collect::<HashSet<_>>().len(), 44);
    }

    #[test]
    fn hit_passes_draw_every_scenario_equally_often() {
        let ops = first_pass("hit_default", 1);
        let mut counts = [0usize; 44];
        for op in &ops {
            assert_eq!(op.class, Class::Hit);
            counts[op.ws] += 1;
        }
        assert!(counts.iter().all(|&c| c == 20));
    }

    #[test]
    fn mix_is_exactly_90_8_2_and_warm_batches_never_repeat() {
        let ops = first_pass("mix_open", 5);
        assert_eq!(ops.len(), 600);
        let count = |c| ops.iter().filter(|o| o.class == c).count();
        assert_eq!(
            (count(Class::Hit), count(Class::Warm), count(Class::Cold)),
            (540, 48, 12)
        );
        let warm: HashSet<_> = ops
            .iter()
            .filter(|o| o.class == Class::Warm)
            .map(|o| o.scenario)
            .collect();
        assert_eq!(warm.len(), 48);
        assert!(warm.iter().all(|s| FRESH_BATCHES.contains(&s.batch)));
    }

    #[test]
    fn a_miss_pass_is_the_working_set_plus_each_network_at_a_fresh_batch() {
        let ops = first_pass("miss_cold", 3);
        assert_eq!(ops.len(), MISS_PASS_OPS);
        let seeds: HashSet<_> = ops
            .iter()
            .map(|o| o.request.as_ref().unwrap().seeds.clone())
            .collect();
        assert_eq!(seeds.len(), ops.len(), "no two requests share seeds");
        let in_ws: HashSet<_> = ops
            .iter()
            .filter(|o| o.scenario.batch <= 2)
            .map(|o| o.scenario)
            .collect();
        assert_eq!(in_ws, working_set().into_iter().collect());
        let fresh: HashSet<_> = ops
            .iter()
            .filter(|o| o.scenario.batch > 2)
            .map(|o| o.scenario.network)
            .collect();
        assert_eq!(fresh.len(), NETWORKS.len());
    }
}
