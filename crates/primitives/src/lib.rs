//! Executable layer primitives and the acceleration-library registry of the
//! QS-DNN reproduction.
//!
//! The paper selects, per layer, among primitives drawn from seven
//! acceleration libraries (Vanilla, BLAS/ATLAS, BLAS/OpenBLAS, NNPACK,
//! ArmCL, Sparse, cuDNN, cuBLAS — §III.B). This crate provides:
//!
//! * [`Primitive`] — the (library, algorithm, lowering, BLAS backend,
//!   processor, layout) tuple identifying one implementation choice;
//! * [`registry::candidates`] — the capability matrix: which primitives can
//!   run which layer (with the paper's 13-variant maximum per layer);
//! * [`kernels`] — real, executable Rust implementations of every CPU
//!   algorithm family (direct, im2col/im2row/kn2row + GEMM, Winograd
//!   F(2×2,3×3), optimized depth-wise, sparse CSR, pooling, activations,
//!   FC);
//! * [`exec::execute_layer`] — dispatch from descriptor to kernel.
//!
//! GPU primitives (cuDNN/cuBLAS) execute their reference semantics on the
//! host, so plans stay checkable without a GPU; their *performance* is
//! modelled by `qsdnn-engine`'s analytical platform.
//!
//! # Examples
//!
//! ```
//! use qsdnn_nn::zoo;
//! use qsdnn_primitives::registry;
//!
//! let net = zoo::vgg19(1);
//! // A 3x3/s1 convolution offers the paper's maximum of 13 primitives.
//! let conv1 = &net.layers()[1];
//! assert_eq!(registry::candidates(conv1).len(), 13);
//! ```

pub mod exec;
pub mod kernels;
mod library;
pub mod registry;
pub mod weights;

pub use exec::execute_layer;
pub use library::{Algorithm, Library, Lowering, Primitive, Processor};
pub use weights::{generate as generate_weights, LayerWeights};
