//! OLTP BTB-budget sweep (the Fig. 13 experiment as an API example):
//! how Boomerang and Shotgun trade storage for performance on a
//! database workload.
//!
//! ```sh
//! cargo run --release --example oltp_btb_sweep
//! ```

use fe_cfg::workloads;
use fe_model::{storage, MachineConfig};
use fe_sim::{Experiment, RunLength, SchemeSpec};
use shotgun::ShotgunConfig;

const BUDGETS: [u32; 4] = [512, 1024, 2048, 4096];

fn main() {
    // DB2 scaled down slightly so the example runs in seconds; use the
    // full preset (and the fig13 bench binary) for the real experiment.
    let spec = workloads::db2().scaled(0.6);

    // One session: the baseline plus a Boomerang and a
    // storage-equivalent Shotgun per budget, all in parallel.
    let mut schemes = vec![SchemeSpec::NoPrefetch];
    for entries in BUDGETS {
        schemes.push(SchemeSpec::Boomerang {
            btb_entries: entries,
        });
        schemes.push(SchemeSpec::Shotgun(ShotgunConfig::for_budget(entries)));
    }
    let report = Experiment::new(MachineConfig::table3())
        .workload(spec)
        .schemes(schemes)
        .len(RunLength {
            warmup: 1_500_000,
            measure: 4_000_000,
        })
        .seed(11)
        .run();

    println!(
        "{:>10} {:>12} {:>12} {:>12} {:>14}",
        "BTB budget", "storage KB", "boomerang", "shotgun", "shotgun wins?"
    );
    for entries in BUDGETS {
        let s_boom = report
            .cell(
                "db2",
                &SchemeSpec::Boomerang {
                    btb_entries: entries,
                },
            )
            .metrics
            .speedup
            .unwrap();
        let s_shot = report
            .cell(
                "db2",
                &SchemeSpec::Shotgun(ShotgunConfig::for_budget(entries)),
            )
            .metrics
            .speedup
            .unwrap();
        println!(
            "{:>10} {:>12.2} {:>12.3} {:>12.3} {:>14}",
            entries,
            storage::kib(storage::CONVENTIONAL_BTB, entries),
            s_boom,
            s_shot,
            if s_shot >= s_boom { "yes" } else { "no" },
        );
    }
    println!(
        "\nThe paper's §6.5 finding: at every equal storage budget Shotgun's \
         split U-BTB/C-BTB/RIB organization outperforms a conventional BTB, \
         and small-budget Shotgun rivals much larger Boomerang BTBs."
    );
}
