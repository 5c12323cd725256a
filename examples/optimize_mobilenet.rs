//! The paper's marquee GPGPU case: MobileNet-v1.
//!
//! QS-DNN learns to mix ArmCL's optimized depth-wise kernels (CPU), cuDNN
//! pointwise convolutions (GPU) and Vanilla/ArmCL ReLU+BatchNorm to avoid
//! costly extra copies to the GPU — beating the best single library by more
//! than 1.4× (paper §VI.A). This prints MobileNet's GPGPU row of Table II as
//! `qsdnn::reproduce` computes it. Run with:
//!
//! ```sh
//! cargo run --release -p qsdnn --example optimize_mobilenet
//! ```

use qsdnn::engine::Mode;
use qsdnn::reproduce::table2_row;

fn main() {
    let row = table2_row("mobilenet_v1", Mode::Gpgpu);
    for lib in &row.libraries {
        println!("{:<9}: {:>8.3} ms", lib.library.name(), lib.cost_ms);
    }
    println!(
        "\nqs-dnn   : {:>8.3} ms  ({:.2}x over BSL = {})",
        row.qsdnn_ms,
        row.qsdnn_over_bsl_x,
        row.bsl.name()
    );

    println!("\nlearned mix of the best seed's plan:");
    for mix in &row.plan {
        let kind = format!("{:?}", mix.tag);
        println!(
            "  {kind:<14} {:<7} {:>3} layers",
            mix.library.name(),
            mix.layers
        );
    }
}
