//! Synthetic layer weights, generated once per process.
//!
//! Latency of every kernel here is data-independent, so weights are seeded
//! pseudo-random values. Sparsity is applied **at
//! generation time** — a fraction `1 - density` of weights is zeroed — so
//! dense and sparse kernels compute *the same function* and can be
//! cross-checked element-wise.
//!
//! # The weights memo
//!
//! [`shared`] is the engine's one source of layer weights: the executor
//! and the measured platform both take every layer's weights from it. It
//! returns [`generate`]'s value from a process-wide memo.
//! - **Key:** exactly what [`generate`] reads — the seed, the node id, the
//!   layer's weight-bearing parameters (`f32` fields by bit pattern) and
//!   the input shapes. `generate` reads the parameters *through* the key
//!   type, so the key cannot miss one of its inputs. The network's name is
//!   not part of it: two same-named networks whose layers differ never
//!   share an entry.
//! - **Bound:** least-recently-used entries are evicted to keep the
//!   retained bytes within [`MEMO_BUDGET_BYTES`]. A layer larger than the
//!   budget is generated, returned and not retained, so running a network
//!   with such a layer (vgg19's 392 MiB `fc6`) peaks at one copy of it, as
//!   generating per call did.
//! - **Why no output can change:** every value is a pure function of its
//!   key, so a hit is bit-identical to a fresh [`generate`].

use std::collections::HashMap;
use std::sync::{Arc, LazyLock, Mutex, MutexGuard};

use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};

use qsdnn_nn::{LayerKind, Node};
use qsdnn_tensor::Shape;

/// Byte budget of the weights memo behind [`shared`]: 64 MiB.
///
/// Every zoo network's weights at batch 1 fit, except those of alexnet,
/// vgg16, vgg19, resnet34 and sphereface20; their layers are retained
/// least-recently-used first, and a single fully-connected layer of
/// alexnet or vgg is over the budget on its own.
pub const MEMO_BUDGET_BYTES: usize = 64 << 20;

/// Weights/parameters of one layer in canonical dense storage.
///
/// Layouts: convolution `[OC][IC][KH][KW]`, depth-wise `[C][KH][KW]`,
/// FC `[OUT][IN]` (all row-major), plus per-channel `bias`, batch-norm
/// `scale`/`shift`.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct LayerWeights {
    /// Main weight tensor (empty for parameter-free layers).
    pub w: Vec<f32>,
    /// Bias vector (empty if the layer has none).
    pub bias: Vec<f32>,
    /// Batch-norm scale (empty unless BatchNorm).
    pub scale: Vec<f32>,
    /// Batch-norm shift (empty unless BatchNorm).
    pub shift: Vec<f32>,
}

impl LayerWeights {
    /// True if the layer carries no parameters.
    pub fn is_empty(&self) -> bool {
        self.w.is_empty() && self.bias.is_empty() && self.scale.is_empty() && self.shift.is_empty()
    }

    /// Bytes held by the four vectors.
    fn bytes(&self) -> usize {
        let floats = self.w.len() + self.bias.len() + self.scale.len() + self.shift.len();
        floats * std::mem::size_of::<f32>()
    }
}

fn dense(rng: &mut SmallRng, len: usize, scale: f32) -> Vec<f32> {
    (0..len).map(|_| rng.gen_range(-scale..scale)).collect()
}

fn sparse(rng: &mut SmallRng, len: usize, scale: f32, density: f32) -> Vec<f32> {
    (0..len)
        .map(|_| {
            let v = rng.gen_range(-scale..scale);
            if rng.gen_range(0.0f32..1.0) < density {
                v
            } else {
                0.0
            }
        })
        .collect()
}

/// The layer parameters [`generate`] reads, `f32` fields by bit pattern
/// so that they can key the memo. Parameter-free layers have none.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
enum Params {
    Conv {
        out_channels: usize,
        kernel: (usize, usize),
        bias: bool,
        density: u32,
    },
    Depthwise {
        kernel: (usize, usize),
        bias: bool,
        density: u32,
    },
    Fc {
        out_features: usize,
        bias: bool,
        density: u32,
    },
    BatchNorm,
}

impl Params {
    fn of(kind: &LayerKind) -> Option<Params> {
        Some(match kind {
            LayerKind::Conv(p) => Params::Conv {
                out_channels: p.out_channels,
                kernel: p.kernel,
                bias: p.bias,
                density: p.weight_density.to_bits(),
            },
            LayerKind::DepthwiseConv(p) => Params::Depthwise {
                kernel: p.kernel,
                bias: p.bias,
                density: p.weight_density.to_bits(),
            },
            LayerKind::Fc(p) => Params::Fc {
                out_features: p.out_features,
                bias: p.bias,
                density: p.weight_density.to_bits(),
            },
            LayerKind::BatchNorm => Params::BatchNorm,
            _ => return None,
        })
    }

    /// The weights of layer `id` with these parameters: a function of
    /// `(self, id, in_shapes, seed)` alone.
    fn generate(self, id: usize, in_shapes: &[Shape], seed: u64) -> LayerWeights {
        let mut rng = SmallRng::seed_from_u64(seed ^ (id as u64).wrapping_mul(0x9E37_79B9));
        match self {
            Params::Conv {
                out_channels,
                kernel,
                bias,
                density,
            } => {
                let in_c = in_shapes[0].c;
                let fan_in = (in_c * kernel.0 * kernel.1) as f32;
                let scale = (2.0 / fan_in).sqrt();
                let len = out_channels * in_c * kernel.0 * kernel.1;
                LayerWeights {
                    w: sparse(&mut rng, len, scale, f32::from_bits(density)),
                    bias: if bias {
                        dense(&mut rng, out_channels, 0.1)
                    } else {
                        Vec::new()
                    },
                    ..Default::default()
                }
            }
            Params::Depthwise {
                kernel,
                bias,
                density,
            } => {
                let c = in_shapes[0].c;
                let fan_in = (kernel.0 * kernel.1) as f32;
                let scale = (2.0 / fan_in).sqrt();
                LayerWeights {
                    w: sparse(
                        &mut rng,
                        c * kernel.0 * kernel.1,
                        scale,
                        f32::from_bits(density),
                    ),
                    bias: if bias {
                        dense(&mut rng, c, 0.1)
                    } else {
                        Vec::new()
                    },
                    ..Default::default()
                }
            }
            Params::Fc {
                out_features,
                bias,
                density,
            } => {
                let in_features = in_shapes[0].volume() / in_shapes[0].n.max(1);
                let scale = (2.0 / in_features as f32).sqrt();
                LayerWeights {
                    w: sparse(
                        &mut rng,
                        out_features * in_features,
                        scale,
                        f32::from_bits(density),
                    ),
                    bias: if bias {
                        dense(&mut rng, out_features, 0.1)
                    } else {
                        Vec::new()
                    },
                    ..Default::default()
                }
            }
            Params::BatchNorm => {
                let c = in_shapes[0].c;
                LayerWeights {
                    scale: (0..c).map(|_| rng.gen_range(0.5f32..1.5)).collect(),
                    shift: dense(&mut rng, c, 0.1),
                    ..Default::default()
                }
            }
        }
    }
}

/// Generates deterministic weights for `node` given its input shapes.
///
/// The same `(node, seed)` pair always produces identical weights, so every
/// primitive implementing the layer computes the same function. Weight
/// magnitudes are scaled by fan-in to keep activations in range across deep
/// networks. Callers that run layers use [`shared`], which generates each
/// layer's weights once.
pub fn generate(node: &Node, in_shapes: &[Shape], seed: u64) -> LayerWeights {
    match Params::of(&node.desc.kind) {
        Some(params) => params.generate(node.id.0, in_shapes, seed),
        None => LayerWeights::default(),
    }
}

/// `generate(node, in_shapes, seed)`, taken from the process-wide memo.
///
/// The memo is keyed by exactly what [`generate`] reads (the seed, the
/// node id, the layer's parameters and `in_shapes`) and keeps at most
/// [`MEMO_BUDGET_BYTES`] of weights, evicting the least recently used. A
/// layer over the budget is generated and returned but not retained. Every
/// value is a pure function of its key, so what this returns is
/// bit-identical to a fresh [`generate`].
pub fn shared(node: &Node, in_shapes: &[Shape], seed: u64) -> Arc<LayerWeights> {
    static MEMO: LazyLock<Mutex<Memo>> = LazyLock::new(|| Mutex::new(Memo::new(MEMO_BUDGET_BYTES)));
    match Key::of(node, in_shapes, seed) {
        Some(key) => fetch(&MEMO, key),
        None => Arc::new(LayerWeights::default()),
    }
}

/// Everything [`Params::generate`] reads.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
struct Key {
    seed: u64,
    id: usize,
    params: Params,
    in_shapes: Vec<Shape>,
}

impl Key {
    /// `None` for a parameter-free layer, whose weights are empty.
    fn of(node: &Node, in_shapes: &[Shape], seed: u64) -> Option<Key> {
        Some(Key {
            seed,
            id: node.id.0,
            params: Params::of(&node.desc.kind)?,
            in_shapes: in_shapes.to_vec(),
        })
    }
}

/// A least-recently-used map of layer weights under a byte budget.
struct Memo {
    budget: usize,
    /// Sum of `bytes()` over `entries`; never above `budget`.
    bytes: usize,
    /// Use counter; an entry's stamp is the clock at its last use.
    clock: u64,
    entries: HashMap<Key, (Arc<LayerWeights>, u64)>,
}

impl Memo {
    fn new(budget: usize) -> Self {
        Memo {
            budget,
            bytes: 0,
            clock: 0,
            entries: HashMap::new(),
        }
    }

    fn get(&mut self, key: &Key) -> Option<Arc<LayerWeights>> {
        self.clock += 1;
        let (weights, used) = self.entries.get_mut(key)?;
        *used = self.clock;
        Some(Arc::clone(weights))
    }

    /// Retains `weights` under `key`, evicting least-recently-used entries
    /// to make room, unless it alone exceeds the budget. Returns the value
    /// now stored under `key`: an equal one another thread stored first
    /// wins.
    fn insert(&mut self, key: Key, weights: Arc<LayerWeights>) -> Arc<LayerWeights> {
        let size = weights.bytes();
        if size > self.budget {
            return weights;
        }
        if let Some(stored) = self.get(&key) {
            return stored;
        }
        while self.bytes + size > self.budget {
            let oldest = self
                .entries
                .iter()
                .min_by_key(|(_, (_, used))| *used)
                .map(|(k, _)| k.clone())
                .expect("retained bytes above zero imply an entry");
            let (evicted, _) = self.entries.remove(&oldest).expect("key was just found");
            self.bytes -= evicted.bytes();
        }
        self.clock += 1;
        self.bytes += size;
        self.entries.insert(key, (Arc::clone(&weights), self.clock));
        weights
    }
}

fn lock(memo: &Mutex<Memo>) -> MutexGuard<'_, Memo> {
    memo.lock()
        .expect("weights memo poisoned: a thread panicked while holding it")
}

/// The memo's value for `key`, generating it on a miss.
fn fetch(memo: &Mutex<Memo>, key: Key) -> Arc<LayerWeights> {
    if let Some(hit) = lock(memo).get(&key) {
        return hit;
    }
    // Generate outside the lock, so that lookups of other layers do not
    // wait. Threads that miss on one key generate equal values, and the
    // first one stored is kept.
    let fresh = Arc::new(key.params.generate(key.id, &key.in_shapes, key.seed));
    lock(memo).insert(key, fresh)
}

#[cfg(test)]
mod tests {
    use super::*;
    use qsdnn_nn::{ConvParams, FcParams, NetworkBuilder};
    use qsdnn_tensor::Shape;

    fn conv_net(density: f32) -> qsdnn_nn::Network {
        let mut b = NetworkBuilder::new("t");
        let x = b.input(Shape::new(1, 4, 8, 8));
        b.conv("c", x, ConvParams::square(8, 3, 1, 1).with_density(density))
            .unwrap();
        b.build().unwrap()
    }

    #[test]
    fn deterministic_per_seed() {
        let net = conv_net(1.0);
        let node = &net.layers()[1];
        let shapes = net.input_shapes(node.id);
        assert_eq!(generate(node, &shapes, 7), generate(node, &shapes, 7));
        assert_ne!(generate(node, &shapes, 7).w, generate(node, &shapes, 8).w);
    }

    #[test]
    fn density_controls_zero_fraction() {
        let net = conv_net(0.25);
        let node = &net.layers()[1];
        let w = generate(node, &net.input_shapes(node.id), 1).w;
        let nz = w.iter().filter(|&&v| v != 0.0).count() as f32 / w.len() as f32;
        assert!((nz - 0.25).abs() < 0.08, "non-zero fraction {nz}");
    }

    #[test]
    fn conv_weight_count() {
        let net = conv_net(1.0);
        let node = &net.layers()[1];
        let lw = generate(node, &net.input_shapes(node.id), 1);
        assert_eq!(lw.w.len(), 8 * 4 * 9);
        assert_eq!(lw.bias.len(), 8);
    }

    #[test]
    fn fc_and_bn_weights() {
        let mut b = NetworkBuilder::new("t");
        let x = b.input(Shape::new(1, 4, 2, 2));
        let f = b.fc("fc", x, FcParams::new(5)).unwrap();
        b.batch_norm("bn", f);
        let net = b.build().unwrap();
        let fc = generate(&net.layers()[1], &net.input_shapes(qsdnn_nn::LayerId(1)), 1);
        assert_eq!(fc.w.len(), 5 * 16);
        let bn = generate(&net.layers()[2], &net.input_shapes(qsdnn_nn::LayerId(2)), 1);
        assert_eq!(bn.scale.len(), 5);
        assert_eq!(bn.shift.len(), 5);
        assert!(bn.w.is_empty());
    }

    /// Every zoo network.
    const ZOO: [&str; 13] = [
        "lenet5",
        "alexnet",
        "vgg19",
        "googlenet",
        "mobilenet_v1",
        "squeezenet_v11",
        "resnet18",
        "sphereface20",
        "tiny_yolo_v2",
        "vgg16",
        "resnet34",
        "tiny_cnn",
        "toy_branchy",
    ];

    fn bits(w: &LayerWeights) -> [Vec<u32>; 4] {
        [&w.w, &w.bias, &w.scale, &w.shift].map(|v| v.iter().map(|x| x.to_bits()).collect())
    }

    fn weight_bytes(net: &qsdnn_nn::Network) -> usize {
        let floats: u64 = net
            .layers()
            .iter()
            .map(|n| n.desc.param_count(&net.input_shapes(n.id)))
            .sum();
        floats as usize * std::mem::size_of::<f32>()
    }

    #[test]
    fn shared_equals_generate_on_every_zoo_network_under_the_budget() {
        let mut over = Vec::new();
        for name in ZOO {
            let net = qsdnn_nn::zoo::by_name(name, 1).expect("zoo network");
            if weight_bytes(&net) > MEMO_BUDGET_BYTES {
                over.push(name);
                continue;
            }
            // Seeds in turn: a key that dropped the seed would serve the
            // first seed's weights to the second.
            for seed in [7, 0x5EED] {
                for node in net.layers() {
                    shared(node, &net.input_shapes(node.id), seed);
                }
                // The network fits, so these are the memo's retained copies.
                for node in net.layers() {
                    let shapes = net.input_shapes(node.id);
                    assert_eq!(
                        bits(&shared(node, &shapes, seed)),
                        bits(&generate(node, &shapes, seed)),
                        "{name} layer {} seed {seed}",
                        node.desc.name
                    );
                }
            }
        }
        // As `MEMO_BUDGET_BYTES` documents.
        assert_eq!(
            over,
            ["alexnet", "vgg19", "sphereface20", "vgg16", "resnet34"]
        );
    }

    #[test]
    fn memo_stays_within_its_budget_and_evicts_least_recently_used() {
        let lenet = qsdnn_nn::zoo::lenet5(1);
        let keyed: Vec<(Key, LayerWeights)> = lenet
            .layers()
            .iter()
            .filter_map(|node| {
                let shapes = lenet.input_shapes(node.id);
                Some((Key::of(node, &shapes, 3)?, generate(node, &shapes, 3)))
            })
            .collect();
        let sizes: Vec<usize> = keyed.iter().map(|(_, w)| w.bytes()).collect();
        // conv1 2 KB, conv2 100 KB, fc1 1.6 MB, fc2 20 KB.
        assert_eq!(sizes, [2_080, 100_200, 1_602_000, 20_040]);
        // Room for conv2 and fc2, but not for conv1 as well.
        let budget = 121_000;
        let memo = Mutex::new(Memo::new(budget));
        let retained = |memo: &Mutex<Memo>, i: usize| lock(memo).entries.contains_key(&keyed[i].0);
        for pass in 0..2 {
            for (i, (key, fresh)) in keyed.iter().enumerate() {
                let got = fetch(&memo, key.clone());
                assert_eq!(bits(&got), bits(fresh), "pass {pass} layer {i}");
                let m = lock(&memo);
                let sum: usize = m.entries.values().map(|(w, _)| w.bytes()).sum();
                assert_eq!(m.bytes, sum);
                assert!(m.bytes <= budget, "{} retained over {budget}", m.bytes);
            }
        }
        // fc1 is over the budget: returned above, never retained.
        assert!(!retained(&memo, 2));
        // Each pass ends by storing fc2, which evicts conv1, the least
        // recently used; using conv2 makes fc2 the next to go.
        assert!(!retained(&memo, 0) && retained(&memo, 1) && retained(&memo, 3));
        fetch(&memo, keyed[1].0.clone());
        fetch(&memo, keyed[0].0.clone());
        assert!(retained(&memo, 0) && retained(&memo, 1) && !retained(&memo, 3));
    }

    #[test]
    fn parameter_free_layers_are_empty() {
        let mut b = NetworkBuilder::new("t");
        let x = b.input(Shape::new(1, 4, 2, 2));
        b.relu("r", x);
        let net = b.build().unwrap();
        assert!(generate(&net.layers()[1], &net.input_shapes(qsdnn_nn::LayerId(1)), 1).is_empty());
    }
}
