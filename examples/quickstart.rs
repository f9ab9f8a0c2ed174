//! Quickstart: run Shotgun against Boomerang on one server workload
//! through the `Experiment` session API and print the paper's headline
//! metrics.
//!
//! ```sh
//! cargo run --release --example quickstart
//! ```
//!
//! Each cell warms 2M instructions and measures 6M; shrink the
//! `RunLength` below for a faster, noisier run.

use fe_cfg::workloads;
use fe_model::MachineConfig;
use fe_sim::{Experiment, RunLength, SchemeSpec};

fn main() {
    // 1. Pick a workload. Presets approximate the paper's Table 2
    //    suite; `streaming` is a mid-sized one that shows Shotgun's
    //    advantage without a long run.
    let spec = workloads::streaming();
    let program = spec.build();
    println!(
        "workload {}: {} functions, {} basic blocks, {} KB of code",
        program.name(),
        program.function_count(),
        program.block_count(),
        program.code_bytes() / 1024,
    );

    // 2. One Experiment session: Table 3 machine, three schemes, cells
    //    fanned out across all cores. NoPrefetch is the baseline, so
    //    speedup and stall coverage come out precomputed per cell.
    let report = Experiment::new(MachineConfig::table3())
        .workload(spec)
        .schemes([
            SchemeSpec::NoPrefetch,
            SchemeSpec::boomerang(),
            SchemeSpec::shotgun(),
        ])
        .len(RunLength {
            warmup: 2_000_000,
            measure: 6_000_000,
        })
        .seed(42)
        .run();

    // 3. Read the typed cells.
    let cells: Vec<_> = ["no-prefetch", "boomerang", "shotgun"]
        .iter()
        .map(|label| report.cell_labeled("streaming", label))
        .collect();
    println!(
        "\n                 {:>12} {:>12} {:>12}",
        "baseline", "boomerang", "shotgun"
    );
    print!("IPC              ");
    for c in &cells {
        print!("{:>12.3} ", c.metrics.ipc);
    }
    print!("\nL1-I MPKI        ");
    for c in &cells {
        print!("{:>12.1} ", c.metrics.l1i_mpki);
    }
    print!("\nBTB MPKI         ");
    for c in &cells {
        print!("{:>12.1} ", c.metrics.btb_mpki);
    }
    print!("\nspeedup          ");
    for c in &cells {
        print!("{:>12.3} ", c.metrics.speedup.unwrap());
    }
    print!("\nstall coverage   ");
    for c in &cells {
        print!("{:>11.1}% ", 100.0 * c.metrics.coverage.unwrap());
    }
    println!();

    // 4. The whole report serializes for downstream tooling:
    //    `report.write_json("quickstart.json")` emits the same cells
    //    machine-readably.
    println!(
        "\nreport JSON is {} bytes via report.to_json()",
        report.to_json().len()
    );
    println!(
        "\nShotgun tracks the same storage budget as Boomerang's 2K-entry BTB \
         (23.77 KB vs 23.25 KB) but covers more stall cycles by bulk-prefetching \
         code regions from its U-BTB spatial footprints."
    );
}
