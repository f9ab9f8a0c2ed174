//! Build a bespoke synthetic workload and compare every scheme on it —
//! the API path a user takes to model their own server stack.
//!
//! ```sh
//! cargo run --release --example custom_workload
//! ```

use fe_cfg::{LayerSpec, WorkloadSpec};
use fe_model::MachineConfig;
use fe_sim::{Experiment, RunLength, SchemeSpec};

fn main() {
    // A microservice-style stack: few endpoints, a fat shared-library
    // layer, heavy kernel I/O.
    let spec = WorkloadSpec {
        name: "microservice".into(),
        seed: 2024,
        handler_zipf: 0.8,
        layers: vec![
            LayerSpec::grouped(8, 9.0),   // endpoints
            LayerSpec::grouped(180, 3.0), // per-endpoint logic
            LayerSpec::shared(700, 1.8),  // serialization / RPC / ORM
            LayerSpec::shared(500, 0.3),  // leaf utilities
        ],
        kernel_entries: 64,
        kernel_helpers: 256,
        kernel_fanout: 2.2,
        trap_rate: 0.12,
        mean_blocks: 12.0,
        ..WorkloadSpec::default()
    };
    spec.validate().expect("spec is structurally sound");
    let program = spec.build();
    println!(
        "synthesized {}: {} functions, {:.1} MB of code",
        spec.name,
        program.function_count(),
        program.code_bytes() as f64 / (1024.0 * 1024.0),
    );

    // One session over all six schemes; the sweep runs cells in
    // parallel and derives speedup/coverage against NoPrefetch.
    let report = Experiment::new(MachineConfig::table3())
        .workload(spec)
        .schemes([
            SchemeSpec::NoPrefetch,
            SchemeSpec::Fdip,
            SchemeSpec::boomerang(),
            SchemeSpec::Confluence,
            SchemeSpec::shotgun(),
            SchemeSpec::Ideal,
        ])
        .len(RunLength {
            warmup: 1_500_000,
            measure: 4_000_000,
        })
        .seed(1)
        .run();

    println!(
        "\n{:12} {:>8} {:>10} {:>10} {:>10}",
        "scheme", "speedup", "L1-I MPKI", "BTB MPKI", "coverage"
    );
    for cell in &report.cells {
        println!(
            "{:12} {:>8.3} {:>10.1} {:>10.1} {:>9.1}%",
            cell.label,
            cell.metrics.speedup.unwrap(),
            cell.metrics.l1i_mpki,
            cell.metrics.btb_mpki,
            100.0 * cell.metrics.coverage.unwrap(),
        );
    }
}
