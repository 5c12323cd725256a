//! VGG-19 in GPGPU mode: the "cuDNN has no FC primitive" case.
//!
//! cuDNN-only implementations must fall back to the Vanilla CPU FC, so the
//! search routes the three giant FC layers to cuBLAS GEMV (or BLAS on CPU)
//! and roughly doubles throughput over the best single library. This
//! prints VGG-19's GPGPU rows of Table II and of the optimality audit, as
//! `qsdnn::reproduce` computes them; the audit races the search baselines
//! on the same LUT. Run with:
//!
//! ```sh
//! cargo run --release -p qsdnn --example heterogeneous_vgg
//! ```

use qsdnn::engine::Mode;
use qsdnn::nn::LayerTag;
use qsdnn::reproduce::{gap_row, table2_row};

fn main() {
    let row = table2_row("vgg19", Mode::Gpgpu);
    println!("vanilla             : {:>9.3} ms", row.vanilla_ms);
    for lib in &row.libraries {
        println!("{:<20}: {:>9.3} ms", lib.library.name(), lib.cost_ms);
    }
    println!("qs-dnn              : {:>9.3} ms", row.qsdnn_ms);
    for mix in row.plan.iter().filter(|m| m.tag == LayerTag::Fc) {
        println!(
            "  {} FC layers -> {}@{}",
            mix.layers, mix.library, mix.processor
        );
    }

    let gap = gap_row("vgg19", Mode::Gpgpu);
    println!("\nbaselines on the same LUT and episode budget:");
    println!("  random search       : {:>9.3} ms", gap.rs_ms);
    println!("  simulated annealing : {:>9.3} ms", gap.sa_ms);
    println!("  bound ({:<11}) : {:>9.3} ms", gap.bound_by, gap.bound_ms);
    println!(
        "QS-DNN (one seed) is {:.2}% above the bound",
        gap.qsdnn_gap_pct
    );
}
