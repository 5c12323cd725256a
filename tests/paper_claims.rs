//! Workspace integration test: the paper's §VI qualitative claims must hold
//! on the simulated platform. This is shape reproduction, not absolute
//! numbers: the sim-TX2 model is calibrated to Table II's relative shapes
//! only (`crates/engine/src/platform/analytical.rs`). Every claim reads the
//! Table II rows that `qsdnn::reproduce` writes to `REPRODUCTION.json`.

use qsdnn::engine::Mode;
use qsdnn::nn::LayerTag;
use qsdnn::primitives::{Library, Processor};
use qsdnn::reproduce::{table2_row, PlanMix, Table2Row};

/// Layers of the row's best plan that `pick` selects.
fn layers(row: &Table2Row, pick: impl Fn(&PlanMix) -> bool) -> usize {
    row.plan.iter().filter(|&m| pick(m)).map(|m| m.layers).sum()
}

/// §VI.A / Table II: tens-of-× CPU speedup vs the dependency-free baseline
/// on the conv-heavy ImageNet networks (the paper headline is 45×).
#[test]
fn cpu_speedup_vs_vanilla_is_tens_of_x() {
    let speedup = table2_row("vgg19", Mode::Cpu).qsdnn_speedup_x;
    assert!(
        (20.0..90.0).contains(&speedup),
        "VGG-19 CPU speedup {speedup:.1}x should be tens of x (paper: 45x)"
    );
}

/// §VI.A: ~2× average GPGPU speedup over the Best Single Library across the
/// ImageNet networks.
#[test]
fn gpgpu_speedup_over_bsl_is_about_2x() {
    let ratios: Vec<f64> = [
        "alexnet",
        "vgg19",
        "googlenet",
        "mobilenet_v1",
        "squeezenet_v11",
    ]
    .into_iter()
    .map(|name| table2_row(name, Mode::Gpgpu).qsdnn_over_bsl_x)
    .collect();
    let mean = ratios.iter().sum::<f64>() / ratios.len() as f64;
    assert!(
        (1.3..4.0).contains(&mean),
        "mean GPGPU speedup over BSL {mean:.2}x should be ~2x (got {ratios:?})"
    );
}

/// §VI.A: "the fastest implementation for Lenet-5 in GPGPU mode is actually
/// a pure CPU implementation" — transfers eat the GPU advantage.
#[test]
fn lenet_gpgpu_winner_is_pure_cpu() {
    let row = table2_row("lenet5", Mode::Gpgpu);
    let gpu_layers = layers(&row, |m| m.processor == Processor::Gpu);
    assert_eq!(gpu_layers, 0, "expected pure-CPU solution, {:?}", row.plan);
}

/// §VI.A: MobileNet GPGPU gains >1.4× over BSL by mixing ArmCL depth-wise
/// (CPU) with cuDNN convolutions (GPU).
#[test]
fn mobilenet_learns_heterogeneous_mix() {
    let row = table2_row("mobilenet_v1", Mode::Gpgpu);
    let speedup = row.qsdnn_over_bsl_x;
    assert!(
        speedup > 1.25,
        "MobileNet GPGPU vs BSL {speedup:.2}x (paper: >1.4x)"
    );
    // The solution must actually be heterogeneous: depthwise on ArmCL/CPU,
    // at least some convolutions on cuDNN/GPU.
    let armcl_dw = layers(&row, |m| {
        m.tag == LayerTag::DepthwiseConv && m.library == Library::ArmCl
    });
    let gpu_layers = layers(&row, |m| m.processor == Processor::Gpu);
    assert!(
        armcl_dw >= 8,
        "expected most depthwise layers on ArmCL, got {armcl_dw}/13"
    );
    assert!(gpu_layers > 0, "expected some layers on the GPU");
}

/// §VI.A: cuDNN-only is crippled on FC-heavy nets (no FC primitive), so
/// QS-DNN's margin over cuDNN is biggest there.
#[test]
fn cudnn_fc_hole_drives_vgg_gain() {
    let row = table2_row("vgg19", Mode::Gpgpu);
    let cudnn = row
        .libraries
        .iter()
        .find(|l| l.library == Library::CuDnn)
        .expect("the GPGPU columns list cuDNN")
        .cost_ms;
    assert!(
        cudnn / row.qsdnn_ms > 1.5,
        "VGG-19 gain over cuDNN-only {:.2}x should be large",
        cudnn / row.qsdnn_ms
    );
    // And the learned FC layers must not be Vanilla.
    let vanilla_fc = layers(&row, |m| {
        m.tag == LayerTag::Fc && m.library == Library::Vanilla
    });
    assert_eq!(vanilla_fc, 0, "FC layers should use an accelerated FC");
}

/// §VI.B: RL beats RS consistently; the gap grows with design-space size.
#[test]
fn rl_beats_rs_with_larger_gap_on_bigger_spaces() {
    let small = table2_row("lenet5", Mode::Gpgpu).qsdnn_over_rs_x;
    let large = table2_row("googlenet", Mode::Gpgpu).qsdnn_over_rs_x;
    assert!(
        small >= 0.99,
        "RL should not lose on LeNet (ratio {small:.2})"
    );
    assert!(
        large > 1.05,
        "RL should clearly win on GoogLeNet (ratio {large:.2})"
    );
    assert!(
        large > small * 0.9,
        "gap should not shrink dramatically with size"
    );
}
