//! Dispatch from a [`Primitive`] descriptor to the executable kernel.

use qsdnn_gemm::{BlasBackend, Gemm};
use qsdnn_nn::{LayerKind, Node};
use qsdnn_tensor::{DataLayout, Tensor};

use crate::kernels::{
    activation, conv_direct, depthwise, eltwise, fc, lowering, pool, sparse, winograd,
};
use crate::{Algorithm, LayerWeights, Library, Lowering, Primitive};

fn gemm_of(primitive: &Primitive) -> Gemm {
    // Library-internal GEMMs (ArmCL, simulated cuDNN) use the packed kernel.
    Gemm::new(primitive.blas.unwrap_or(BlasBackend::OpenBlasLike))
}

/// Executes `node` with the chosen `primitive`.
///
/// `inputs` must already be in `primitive.layout` (the engine's executor
/// inserts compatibility layers beforehand); the result is returned in
/// `primitive.layout`. GPU primitives execute their reference semantics on
/// the host — the *cost* of the GPU is modelled by the platform layer, not
/// here.
///
/// # Panics
///
/// Panics if the primitive cannot implement the layer kind (the registry
/// guarantees it can) or required weights are missing.
pub fn execute_layer(
    node: &Node,
    primitive: &Primitive,
    inputs: &[&Tensor],
    weights: &LayerWeights,
) -> Tensor {
    let out_shape = node.output_shape;
    let out = match &node.desc.kind {
        LayerKind::Input => inputs[0].clone(),
        LayerKind::Conv(p) => {
            let x = inputs[0];
            match (primitive.algorithm, primitive.lowering) {
                (Algorithm::Direct, _) => conv_direct::conv_direct_vanilla(
                    x,
                    &weights.w,
                    &weights.bias,
                    p,
                    out_shape,
                    primitive.layout,
                ),
                (Algorithm::DirectOpt, _) => {
                    let x = x.as_layout(DataLayout::Nchw);
                    conv_direct::conv_direct_opt(&x, &weights.w, &weights.bias, p, out_shape)
                }
                (Algorithm::Gemm, Lowering::Im2col) => {
                    let x = x.as_layout(DataLayout::Nchw);
                    lowering::conv_im2col_gemm(
                        &x,
                        &weights.w,
                        &weights.bias,
                        p,
                        out_shape,
                        gemm_of(primitive),
                    )
                }
                (Algorithm::Gemm, Lowering::Im2row) => {
                    let x = x.as_layout(DataLayout::Nhwc);
                    lowering::conv_im2row_gemm(
                        &x,
                        &weights.w,
                        &weights.bias,
                        p,
                        out_shape,
                        gemm_of(primitive),
                    )
                }
                (Algorithm::Gemm, Lowering::Kn2row) => {
                    let x = x.as_layout(DataLayout::Nchw);
                    lowering::conv_kn2row_gemm(
                        &x,
                        &weights.w,
                        &weights.bias,
                        p,
                        out_shape,
                        gemm_of(primitive),
                    )
                }
                (Algorithm::Winograd, _) => {
                    let x = x.as_layout(DataLayout::Nchw);
                    winograd::conv_winograd(&x, &weights.w, &weights.bias, p, out_shape)
                }
                (Algorithm::SparseCsr, _) => {
                    let x = x.as_layout(DataLayout::Nchw);
                    sparse::conv1x1_sparse(&x, &weights.w, &weights.bias, p, out_shape)
                }
                (alg, low) => panic!("no conv kernel for {alg}/{low}"),
            }
        }
        LayerKind::DepthwiseConv(p) => {
            let x = inputs[0];
            match primitive.algorithm {
                Algorithm::Direct => depthwise::depthwise_vanilla(
                    x,
                    &weights.w,
                    &weights.bias,
                    p,
                    out_shape,
                    primitive.layout,
                ),
                Algorithm::DirectOpt => {
                    let x = x.as_layout(DataLayout::Nhwc);
                    depthwise::depthwise_opt_nhwc(&x, &weights.w, &weights.bias, p, out_shape)
                }
                alg => panic!("no depthwise kernel for {alg}"),
            }
        }
        LayerKind::Pool(p) => {
            let x = inputs[0];
            let nnpack_fast =
                primitive.library == Library::Nnpack && primitive.algorithm == Algorithm::DirectOpt;
            if nnpack_fast {
                let x = x.as_layout(DataLayout::Nchw);
                pool::maxpool_2x2_s2_nchw(&x, out_shape)
            } else {
                pool::pool_generic(x, p, out_shape, primitive.layout)
            }
        }
        LayerKind::Relu => activation::relu(inputs[0]),
        LayerKind::BatchNorm => activation::batch_norm(inputs[0], &weights.scale, &weights.shift),
        LayerKind::Lrn(p) => activation::lrn(inputs[0], p),
        LayerKind::Softmax => activation::softmax(inputs[0]),
        LayerKind::Fc(_) => {
            let x = inputs[0];
            match (primitive.library, primitive.algorithm) {
                (Library::Vanilla, Algorithm::Gemv) => {
                    fc::fc_vanilla(x, &weights.w, &weights.bias, out_shape)
                }
                (_, Algorithm::Gemv) => {
                    fc::fc_gemv(x, &weights.w, &weights.bias, out_shape, gemm_of(primitive))
                }
                (_, Algorithm::Gemm) => {
                    fc::fc_gemm(x, &weights.w, &weights.bias, out_shape, gemm_of(primitive))
                }
                (_, Algorithm::SparseCsr) => {
                    sparse::fc_sparse(x, &weights.w, &weights.bias, out_shape)
                }
                (lib, alg) => panic!("no fc kernel for {lib}/{alg}"),
            }
        }
        LayerKind::Concat => eltwise::concat(inputs, primitive.layout),
        LayerKind::Add => eltwise::add(inputs[0], inputs[1], primitive.layout),
    };
    out.into_layout(primitive.layout)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{registry, weights};
    use qsdnn_nn::zoo;

    /// Every candidate primitive of every layer of `tiny_cnn` must produce
    /// the same logical output as the Vanilla choice.
    #[test]
    fn all_primitives_agree_on_tiny_cnn() {
        let net = zoo::tiny_cnn(1);
        // Reference forward pass, all-Vanilla.
        let mut acts: Vec<Tensor> = Vec::new();
        let input = Tensor::random(net.layers()[0].output_shape, DataLayout::Nchw, 99);
        for node in net.layers() {
            let in_shapes = net.input_shapes(node.id);
            let lw = weights::generate(node, &in_shapes, 7);
            let cands = registry::candidates(node);
            let vanilla = cands[0];
            let parents: Vec<&Tensor> = if node.inputs.is_empty() {
                vec![&input]
            } else {
                node.inputs.iter().map(|p| &acts[p.0]).collect()
            };
            // Inputs must be in each primitive's layout.
            let reference = {
                let converted: Vec<Tensor> = parents
                    .iter()
                    .map(|t| t.to_layout(vanilla.layout))
                    .collect();
                let refs: Vec<&Tensor> = converted.iter().collect();
                execute_layer(node, &vanilla, &refs, &lw)
            };
            for prim in &cands[1..] {
                let converted: Vec<Tensor> =
                    parents.iter().map(|t| t.to_layout(prim.layout)).collect();
                let refs: Vec<&Tensor> = converted.iter().collect();
                let got = execute_layer(node, prim, &refs, &lw);
                let d = reference.max_abs_diff(&got).unwrap();
                assert!(d < 1e-2, "{}: {prim} differs by {d}", node.desc.name);
            }
            acts.push(reference);
        }
    }

    #[test]
    fn output_layout_always_matches_primitive() {
        let net = zoo::tiny_cnn(1);
        let input = Tensor::random(net.layers()[0].output_shape, DataLayout::Nchw, 1);
        let mut acts: Vec<Tensor> = Vec::new();
        for node in net.layers() {
            let in_shapes = net.input_shapes(node.id);
            let lw = weights::generate(node, &in_shapes, 7);
            for prim in registry::candidates(node) {
                let parents: Vec<Tensor> = if node.inputs.is_empty() {
                    vec![input.to_layout(prim.layout)]
                } else {
                    node.inputs
                        .iter()
                        .map(|p| acts[p.0].to_layout(prim.layout))
                        .collect()
                };
                let refs: Vec<&Tensor> = parents.iter().collect();
                let out = execute_layer(node, &prim, &refs, &lw);
                assert_eq!(out.layout(), prim.layout, "{}: {prim}", node.desc.name);
                assert_eq!(out.shape(), node.output_shape);
            }
            // Advance with vanilla.
            let prim = registry::candidates(node)[0];
            let parents: Vec<Tensor> = if node.inputs.is_empty() {
                vec![input.to_layout(prim.layout)]
            } else {
                node.inputs
                    .iter()
                    .map(|p| acts[p.0].to_layout(prim.layout))
                    .collect()
            };
            let refs: Vec<&Tensor> = parents.iter().collect();
            acts.push(execute_layer(node, &prim, &refs, &lw));
        }
    }
}
