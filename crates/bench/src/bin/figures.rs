#![forbid(unsafe_code)]
//! Runs tables and figures of the paper's evaluation from the figure
//! table (`fe_bench::figures::FIGURES`).
//!
//! ```sh
//! cargo run --release -p fe-bench --bin figures -- fig7        # one entry
//! cargo run --release -p fe-bench --bin figures -- fig8 fig9   # several
//! cargo run --release -p fe-bench --bin figures -- all         # every entry
//! ```
//!
//! Named entries run in table order, each with its own sweep and
//! `BENCH_<name>.json`. All sweeps of one invocation share one cell
//! store, so a cell an earlier entry computed is served, not re-run.
//! With no name or an unknown one, prints the entry names and exits 2.

use fe_bench::figures::{figure, Session, FIGURES};

fn main() {
    let names: Vec<String> = std::env::args().skip(1).collect();
    let all = names.iter().any(|n| n == "all");
    let unknown: Vec<&String> = names
        .iter()
        .filter(|n| *n != "all" && figure(n).is_none())
        .collect();
    if names.is_empty() || !unknown.is_empty() {
        for name in unknown {
            eprintln!("unknown entry `{name}`");
        }
        let entries: Vec<&str> = FIGURES.iter().map(|f| f.name).collect();
        eprintln!("usage: figures <name>... | all");
        eprintln!("entries: {}", entries.join(" "));
        std::process::exit(2);
    }

    let session = Session::from_env();
    let selected = FIGURES
        .iter()
        .filter(|f| all || names.iter().any(|n| n == f.name));
    for (i, figure) in selected.enumerate() {
        if i > 0 {
            println!();
        }
        session.run(figure);
    }
    eprintln!(
        "cell store: {} cells computed, {} served from the store",
        session.cells.puts(),
        session.cells.hits()
    );
}
