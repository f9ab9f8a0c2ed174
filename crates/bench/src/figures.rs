//! The figure table: every table and figure of the paper's evaluation
//! as one [`Figure`] entry, run by the `figures` binary.
//!
//! An entry names the suite members it uses, its schemes (none for
//! the offline analytics of Figs. 3 and 4), how it renders and the
//! paper's shape for it. A [`Session`] runs any number of entries in
//! one process: each entry runs its own sweep and writes its own
//! `BENCH_<name>.json`, and every sweep shares the session's cell
//! store and fingerprint memo, so a cell an earlier entry computed is
//! served from the store — byte-identical to computing it again.

use std::io::IsTerminal;
use std::path::PathBuf;
use std::sync::Arc;

use fe_cfg::{analytics, WorkloadSpec};
use fe_model::SimStats;
use fe_sim::{Experiment, FingerprintMemo, MemoryCellStore, RunLength, SchemeSpec, SweepReport};
use shotgun::{RegionPolicy, ShotgunConfig};

use crate::report::{coverage_series, metric_series, render_table, speedup_series};
use crate::{banner, default_len, knobs, machine, suite_at};
use crate::{SEED, WORKLOAD_ORDER};

/// Every suite member, in the paper's order.
const SUITE: &[&str] = &WORKLOAD_ORDER;

/// The two OLTP workloads of Figs. 4 and 13.
const OLTP: &[&str] = &["oracle", "db2"];

/// One table or figure of the evaluation.
pub struct Figure {
    /// Entry name: `figures <name>` runs it, and its report is
    /// written as `BENCH_<name>.json`.
    pub name: &'static str,
    /// Banner heading and subtitle; `None` prints no banner.
    pub(crate) banner: Option<(&'static str, &'static str)>,
    /// The suite members it uses, by name, in order.
    pub(crate) workloads: &'static [&'static str],
    /// What it runs and prints.
    pub(crate) body: Body,
    /// The paper's result in prose, printed last.
    pub(crate) paper_shape: Option<&'static str>,
}

/// What a [`Figure`] runs.
pub(crate) enum Body {
    /// Offline program analytics, no timing simulation: called with
    /// the entry's workloads and the measured-instruction count.
    Analytics(fn(&[WorkloadSpec], u64)),
    /// A timed sweep of `schemes` over the entry's workloads.
    Sweep {
        /// The swept schemes, in column order.
        schemes: fn() -> Vec<SchemeSpec>,
        /// How the report prints.
        render: Render,
    },
}

/// How a sweep entry prints its report. The shared kinds show every
/// scheme but the baseline, one row per workload in the paper's order.
pub(crate) enum Render {
    /// Speedup over the no-prefetch baseline, geometric-mean row.
    Speedup,
    /// Front-end stall-cycle coverage over the baseline, mean row.
    Coverage,
    /// A per-cell statistic, mean row.
    Metric {
        /// Table title.
        title: &'static str,
        /// The statistic.
        stat: fn(&SimStats) -> f64,
        /// Print as a percentage.
        percent: bool,
    },
    /// An entry's own layout.
    Custom(fn(&SweepReport)),
}

impl Render {
    fn print(&self, report: &SweepReport) {
        let labels = report.comparison_labels();
        let labels: Vec<&str> = labels.iter().map(String::as_str).collect();
        let table = match *self {
            Render::Speedup => render_table(
                "Speedup over no-prefetch baseline",
                &speedup_series(report, &WORKLOAD_ORDER, &labels),
                "gmean",
                false,
            ),
            Render::Coverage => render_table(
                "Front-end stall cycle coverage",
                &coverage_series(report, &WORKLOAD_ORDER, &labels),
                "avg",
                true,
            ),
            Render::Metric {
                title,
                stat,
                percent,
            } => metric_table(report, title, &labels, stat, percent),
            Render::Custom(render) => return render(report),
        };
        print!("{table}");
    }
}

/// A table of a per-cell statistic for `labels`, one row per workload
/// in the paper's order plus a mean row.
pub fn metric_table(
    report: &SweepReport,
    title: &str,
    labels: &[&str],
    stat: impl Fn(&SimStats) -> f64,
    percent: bool,
) -> String {
    let series = metric_series(report, &WORKLOAD_ORDER, labels, stat, false);
    render_table(title, &series, "avg", percent)
}

/// Every entry, in the order `figures all` runs them.
pub const FIGURES: &[Figure] = &[
    Figure {
        name: "table1",
        banner: Some(("Table 1", "BTB MPKI of a 2K-entry BTB, no prefetching")),
        workloads: SUITE,
        body: Body::Sweep {
            schemes: || vec![SchemeSpec::NoPrefetch],
            render: Render::Custom(table1),
        },
        paper_shape: None,
    },
    Figure {
        name: "table2",
        banner: None,
        workloads: SUITE,
        body: Body::Analytics(table2),
        paper_shape: None,
    },
    Figure {
        name: "table3",
        banner: None,
        workloads: &[],
        body: Body::Analytics(table3),
        paper_shape: None,
    },
    Figure {
        name: "fig1",
        banner: Some((
            "Figure 1",
            "Confluence / Boomerang / Ideal speedup over no-prefetch",
        )),
        workloads: SUITE,
        body: Body::Sweep {
            schemes: || {
                vec![
                    SchemeSpec::NoPrefetch,
                    SchemeSpec::Confluence,
                    SchemeSpec::boomerang(),
                    SchemeSpec::Ideal,
                ]
            },
            render: Render::Speedup,
        },
        paper_shape: Some(
            "Boomerang >= Confluence on small-footprint workloads \
             (nutch, zeus); Confluence wins on oracle/db2; ideal on top everywhere.",
        ),
    },
    Figure {
        name: "fig3",
        banner: Some((
            "Figure 3",
            "cache-line access distribution inside code regions",
        )),
        workloads: SUITE,
        body: Body::Analytics(fig3),
        paper_shape: Some(
            "~90% of accesses within 10 lines of the region entry \
             on every workload (the insight enabling compact spatial footprints).",
        ),
    },
    Figure {
        name: "fig4",
        banner: Some((
            "Figure 4",
            "dynamic coverage of the K hottest static branches",
        )),
        workloads: OLTP,
        body: Body::Analytics(fig4),
        paper_shape: Some(
            "a 2K-entry budget covers only ~65-75% of all dynamic \
             branches but ~85-95% of unconditional executions; unconditional \
             curves saturate by ~3K static branches.",
        ),
    },
    Figure {
        name: "fig6",
        banner: Some((
            "Figure 6",
            "front-end stall-cycle coverage over no-prefetch",
        )),
        workloads: SUITE,
        body: Body::Sweep {
            schemes: prefetchers,
            render: Render::Coverage,
        },
        paper_shape: Some(
            "Shotgun ~68% average, ~8% above both Boomerang and \
             Confluence; Shotgun beats Boomerang on every workload, biggest gains \
             on the high-BTB-MPKI ones (db2, streaming, oracle); Confluence keeps \
             an edge on oracle.",
        ),
    },
    Figure {
        name: "fig7",
        banner: Some(("Figure 7", "speedup over no-prefetch (headline result)")),
        workloads: SUITE,
        body: Body::Sweep {
            schemes: prefetchers,
            render: Render::Speedup,
        },
        paper_shape: Some(
            "Shotgun ~32% average speedup, ~5% over each of \
             Boomerang and Confluence; beats Boomerang everywhere (most on \
             oracle/db2); beats Confluence on the web workloads but trails it \
             on oracle.",
        ),
    },
    Figure {
        name: "fig8",
        banner: Some((
            "Figure 8",
            "Shotgun stall coverage by region prefetch mechanism",
        )),
        workloads: SUITE,
        body: Body::Sweep {
            schemes: region_policies,
            render: Render::Coverage,
        },
        paper_shape: Some(
            "8-bit vector ~6% coverage above no-bit-vector; 32-bit \
             adds almost nothing; Entire Region and 5-Blocks fall below 8-bit on \
             the high-opportunity workloads (db2, streaming).",
        ),
    },
    Figure {
        name: "fig9",
        banner: Some(("Figure 9", "Shotgun speedup by region prefetch mechanism")),
        workloads: SUITE,
        body: Body::Sweep {
            schemes: region_policies,
            render: Render::Speedup,
        },
        paper_shape: Some(
            "8-bit vector ~4% speedup over no-bit-vector (every \
             workload improves, up to ~9% on streaming/db2); 32-bit adds ~0.5%; \
             Entire Region and 5-Blocks degrade, worst on db2/streaming.",
        ),
    },
    Figure {
        name: "fig10",
        banner: Some((
            "Figure 10",
            "prefetch accuracy by region prefetch mechanism",
        )),
        workloads: SUITE,
        body: Body::Sweep {
            schemes: over_prefetching,
            render: Render::Metric {
                title: "Prefetch accuracy",
                stat: SimStats::prefetch_accuracy,
                percent: true,
            },
        },
        paper_shape: Some(
            "8-bit ~71% average accuracy vs Entire Region ~56% and \
             5-Blocks ~43%; the 5-Blocks collapse is worst on streaming \
             (many regions are smaller than five lines).",
        ),
    },
    Figure {
        name: "fig11",
        banner: Some((
            "Figure 11",
            "L1-D miss fill latency by region prefetch mechanism",
        )),
        workloads: SUITE,
        body: Body::Sweep {
            schemes: over_prefetching,
            render: Render::Metric {
                title: "Cycles to fill an L1-D miss",
                stat: SimStats::avg_l1d_fill_latency,
                percent: false,
            },
        },
        paper_shape: Some(
            "over-prefetching inflates shared-NoC queueing — \
             data fills slow from ~54 cycles (8-bit) toward ~65 (5-Blocks on \
             db2); the effect compounds the accuracy loss of Fig. 10.",
        ),
    },
    Figure {
        name: "fig12",
        banner: Some(("Figure 12", "Shotgun speedup vs C-BTB entries")),
        workloads: SUITE,
        body: Body::Sweep {
            schemes: || {
                with_baseline([64, 128, 1024].map(|entries| {
                    SchemeSpec::Shotgun(ShotgunConfig::default().with_cbtb_entries(entries))
                }))
            },
            render: Render::Speedup,
        },
        paper_shape: Some(
            "footprint-driven prefill makes the C-BTB size-\
             insensitive upward — 1K entries buy only ~0.8% over 128 — while \
             64 entries lose ~2% on average (worst on streaming/db2).",
        ),
    },
    Figure {
        name: "fig13",
        banner: Some((
            "Figure 13",
            "Boomerang vs Shotgun across BTB storage budgets",
        )),
        workloads: OLTP,
        body: Body::Sweep {
            schemes: || {
                with_baseline(BUDGETS.into_iter().flat_map(|budget| {
                    [
                        SchemeSpec::Boomerang {
                            btb_entries: budget,
                        },
                        SchemeSpec::Shotgun(ShotgunConfig::for_budget(budget)),
                    ]
                }))
            },
            render: Render::Custom(fig13),
        },
        paper_shape: Some(
            "Shotgun wins at every equal budget; 1K-budget Shotgun \
             rivals 8K-entry Boomerang on oracle, and Boomerang needs >2x \
             Shotgun's budget to match it on db2.",
        ),
    },
    Figure {
        name: "sweep",
        banner: None,
        workloads: SUITE,
        body: Body::Sweep {
            schemes: || {
                vec![
                    SchemeSpec::NoPrefetch,
                    SchemeSpec::boomerang(),
                    SchemeSpec::Confluence,
                    SchemeSpec::shotgun(),
                    SchemeSpec::Ideal,
                ]
            },
            render: Render::Custom(sweep),
        },
        paper_shape: None,
    },
];

/// The entry named `name`.
pub fn figure(name: &str) -> Option<&'static Figure> {
    FIGURES.iter().find(|f| f.name == name)
}

/// One process's run of figure entries: the scaled suite, run length
/// and sweep settings every entry uses, and the cell store and
/// fingerprint memo their sweeps share.
pub struct Session {
    /// The six Table 2 workloads at the session's scale.
    suite: Vec<WorkloadSpec>,
    /// Warmup and measured instructions per cell; analytics entries
    /// walk `len.measure` instructions.
    len: RunLength,
    /// Sweep worker threads.
    threads: usize,
    /// Where sweeps persist and reuse recorded traces.
    trace_dir: Option<PathBuf>,
    /// Cells every sweep of the session reads and writes.
    pub cells: Arc<MemoryCellStore>,
    /// Program fingerprints every sweep of the session shares.
    fingerprints: Arc<FingerprintMemo>,
}

impl Session {
    /// A session over the suite scaled by `scale`, running `len` per
    /// cell on `SHOTGUN_THREADS` workers, with no trace directory.
    fn new(scale: f64, len: RunLength) -> Session {
        Session {
            suite: suite_at(scale),
            len,
            threads: knobs::threads(),
            trace_dir: None,
            cells: Arc::new(MemoryCellStore::new()),
            fingerprints: Arc::new(FingerprintMemo::new()),
        }
    }

    /// A session configured by `SHOTGUN_SCALE`, `SHOTGUN_WARMUP`,
    /// `SHOTGUN_INSTRS`, `SHOTGUN_THREADS` and `SHOTGUN_TRACE_DIR`.
    pub fn from_env() -> Session {
        Session {
            trace_dir: knobs::trace_dir(),
            ..Session::new(knobs::scale(), default_len())
        }
    }

    /// The suite members `figure` uses.
    fn workloads(&self, figure: &Figure) -> Vec<WorkloadSpec> {
        figure
            .workloads
            .iter()
            .filter_map(|name| self.suite.iter().find(|w| w.name == *name))
            .cloned()
            .collect()
    }

    /// The standard sweep over `workloads`: Table 3 machine, evaluation
    /// seed, the session's run length, threads and trace directory, and
    /// a stderr progress line per completed cell when attached to a
    /// terminal. Callers add schemes.
    pub fn experiment(&self, workloads: &[WorkloadSpec]) -> Experiment {
        let mut exp = Experiment::new(machine())
            .workloads(workloads.iter().cloned())
            .len(self.len)
            .seed(SEED)
            .threads(self.threads);
        if let Some(dir) = &self.trace_dir {
            exp = exp.trace_dir(dir);
        }
        if std::io::stderr().is_terminal() {
            exp.on_progress(|e| {
                eprintln!(
                    "[{:>3}/{}] {} / {}",
                    e.completed, e.total, e.workload, e.scheme
                );
            })
        } else {
            exp
        }
    }

    /// Sweeps `schemes` over `workloads` through the session's cell
    /// store and fingerprint memo.
    fn sweep(&self, workloads: &[WorkloadSpec], schemes: Vec<SchemeSpec>) -> SweepReport {
        self.experiment(workloads)
            .cell_store(self.cells.clone())
            .fingerprints(self.fingerprints.clone())
            .schemes(schemes)
            .run()
    }

    /// Runs `figure` and prints it: banner, body, paper shape. A sweep
    /// entry also writes `BENCH_<name>.json` under `SHOTGUN_JSON_DIR`.
    pub fn run(&self, figure: &Figure) {
        if let Some((title, what)) = figure.banner {
            banner(title, what);
        }
        let workloads = self.workloads(figure);
        match &figure.body {
            Body::Analytics(analyse) => analyse(&workloads, self.len.measure),
            Body::Sweep { schemes, render } => {
                let report = self.sweep(&workloads, schemes());
                render.print(&report);
                knobs::write_bench_json(figure.name, &report.to_json());
            }
        }
        if let Some(shape) = figure.paper_shape {
            println!("\npaper shape: {shape}");
        }
    }
}

/// Figs. 6 and 7: the three prefetchers against the baseline.
fn prefetchers() -> Vec<SchemeSpec> {
    vec![
        SchemeSpec::NoPrefetch,
        SchemeSpec::Confluence,
        SchemeSpec::boomerang(),
        SchemeSpec::shotgun(),
    ]
}

/// `schemes` after the no-prefetch baseline.
fn with_baseline(schemes: impl IntoIterator<Item = SchemeSpec>) -> Vec<SchemeSpec> {
    std::iter::once(SchemeSpec::NoPrefetch)
        .chain(schemes)
        .collect()
}

/// Shotgun under each region prefetch mechanism.
fn shotgun_policies(policies: impl IntoIterator<Item = RegionPolicy>) -> Vec<SchemeSpec> {
    policies
        .into_iter()
        .map(|p| SchemeSpec::Shotgun(ShotgunConfig::default().with_policy(p)))
        .collect()
}

/// Figs. 8 and 9: every §6.3 region mechanism against the baseline.
fn region_policies() -> Vec<SchemeSpec> {
    with_baseline(shotgun_policies(RegionPolicy::ALL))
}

/// Figs. 10 and 11: the 8-bit vector and the two over-prefetching
/// mechanisms, with no baseline.
fn over_prefetching() -> Vec<SchemeSpec> {
    shotgun_policies([
        RegionPolicy::Bit8,
        RegionPolicy::EntireRegion,
        RegionPolicy::FiveBlocks,
    ])
}

/// Fig. 13's BTB storage budgets, in conventional-BTB entries.
const BUDGETS: [u32; 5] = [512, 1024, 2048, 4096, 8192];

/// Table 1: measured BTB MPKI next to the paper's, per workload.
fn table1(report: &SweepReport) {
    const PAPER: [f64; 6] = [2.5, 14.5, 23.7, 14.6, 45.1, 40.2];
    println!("{:12} {:>10} {:>12}", "workload", "paper", "measured");
    for (wl, paper) in WORKLOAD_ORDER.into_iter().zip(PAPER) {
        let cell = report.cell(wl, &SchemeSpec::NoPrefetch);
        println!("{:12} {:>10.1} {:>12.1}", wl, paper, cell.metrics.btb_mpki);
    }
}

/// Table 2: the synthetic stand-in for each workload.
fn table2(workloads: &[WorkloadSpec], _: u64) {
    println!("--- Table 2 stand-ins (synthetic workload presets)");
    println!(
        "{:12} {:>10} {:>10} {:>10} {:>10}",
        "workload", "functions", "blocks", "code KB", "lines"
    );
    for wl in workloads {
        let fp = analytics::footprint(&wl.build());
        println!(
            "{:12} {:>10} {:>10} {:>10} {:>10}",
            wl.name,
            fp.functions,
            fp.blocks,
            fp.bytes / 1024,
            fp.lines
        );
    }
}

/// Table 3: the machine parameters in use.
fn table3(_: &[WorkloadSpec], _: u64) {
    println!("--- Table 3 machine parameters\n{:#?}", machine());
}

/// Fig. 3: cumulative cache-line access probability by distance from
/// the code-region entry point.
fn fig3(workloads: &[WorkloadSpec], instructions: u64) {
    let curves: Vec<(&str, [f64; 18])> = workloads
        .iter()
        .map(|wl| {
            let loc = analytics::region_locality(&wl.build(), 1, instructions);
            (wl.name.as_str(), loc.cumulative())
        })
        .collect();

    print!("{:>9}", "distance");
    for (name, _) in &curves {
        print!(" {name:>10}");
    }
    println!();
    for d in 0..=17 {
        if d <= 16 {
            print!("{d:>9}");
        } else {
            print!("{:>9}", ">16");
        }
        for (_, cum) in &curves {
            print!(" {:>9.1}%", 100.0 * cum[d]);
        }
        println!();
    }
}

/// Fig. 4: dynamic coverage of the K hottest static branches, all
/// branches against unconditional ones.
fn fig4(workloads: &[WorkloadSpec], instructions: u64) {
    let ks = [1024usize, 2048, 3072, 4096, 5120, 6144, 7168, 8192];
    for (i, wl) in workloads.iter().enumerate() {
        if i > 0 {
            println!();
        }
        let prof = analytics::branch_profile(&wl.build(), 2, instructions);
        println!(
            "{} — {} static branches executed ({} unconditional)",
            wl.name,
            prof.static_branches(),
            prof.static_uncond(),
        );
        println!("{:>8} {:>14} {:>18}", "K", "all branches", "unconditional");
        for k in ks {
            println!(
                "{:>8} {:>13.1}% {:>17.1}%",
                k,
                100.0 * prof.coverage_all(k),
                100.0 * prof.coverage_uncond(k),
            );
        }
    }
}

/// Fig. 13: Boomerang and Shotgun speedup at each BTB storage budget.
fn fig13(report: &SweepReport) {
    for wl in report.workload_names() {
        let base = report.cell(wl, &SchemeSpec::NoPrefetch);
        println!("{wl} (baseline IPC {:.3})", base.metrics.ipc);
        println!("{:>8} {:>12} {:>12}", "budget", "boomerang", "shotgun");
        for budget in BUDGETS {
            let boom = report.cell(
                wl,
                &SchemeSpec::Boomerang {
                    btb_entries: budget,
                },
            );
            let shot = report.cell(wl, &SchemeSpec::Shotgun(ShotgunConfig::for_budget(budget)));
            let marker = if budget == 2048 {
                "  <- paper baseline budget"
            } else {
                ""
            };
            println!(
                "{:>8} {:>12.3} {:>12.3}{marker}",
                budget,
                boom.metrics.speedup.unwrap(),
                shot.metrics.speedup.unwrap(),
            );
        }
        println!();
    }
}

/// The kitchen-sink dump: every metric of every cell.
fn sweep(report: &SweepReport) {
    println!(
        "{:10} {:12} {:>6} {:>7} {:>7} {:>7} {:>6} {:>6} {:>7} {:>7} {:>6} {:>6}",
        "workload",
        "scheme",
        "ipc",
        "l1iMPKI",
        "btbMPKI",
        "feSt%",
        "ic%",
        "btb%",
        "rdr%",
        "acc%",
        "l1dF",
        "spd"
    );
    for wl in WORKLOAD_ORDER {
        for label in report.scheme_labels() {
            let cell = report.cell_labeled(wl, &label);
            let (s, m) = (&cell.stats, &cell.metrics);
            println!(
                "{:10} {:12} {:>6.3} {:>7.1} {:>7.1} {:>6.1} {:>6.1} {:>6.1} {:>7.1} {:>7.1} {:>6.1} {:>6.3}",
                wl,
                label,
                m.ipc,
                m.l1i_mpki,
                m.btb_mpki,
                100.0 * s.front_end_stall_fraction(),
                100.0 * s.stalls.icache_miss as f64 / s.cycles as f64,
                100.0 * s.stalls.btb_resolve as f64 / s.cycles as f64,
                100.0 * s.stalls.redirect as f64 / s.cycles as f64,
                100.0 * m.prefetch_accuracy,
                m.l1d_fill_latency,
                m.speedup.unwrap(),
            );
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use fe_cfg::workloads;
    use fe_sim::check_sweep;

    const LEN: RunLength = RunLength {
        warmup: 10_000,
        measure: 30_000,
    };

    fn sweep_of(session: &Session, name: &str) -> SweepReport {
        let figure = figure(name).expect("entry exists");
        let Body::Sweep { schemes, .. } = &figure.body else {
            panic!("{name} is not a sweep entry");
        };
        session.sweep(&session.workloads(figure), schemes())
    }

    fn small_session() -> Session {
        Session {
            threads: 2,
            ..Session::new(0.05, LEN)
        }
    }

    #[test]
    fn table_is_well_formed() {
        let session = Session::new(0.5, LEN);
        for (i, figure) in FIGURES.iter().enumerate() {
            assert!(
                figure.name != "all" && FIGURES[..i].iter().all(|f| f.name != figure.name),
                "entry name `{}` is reserved or repeated",
                figure.name
            );
            let used = session.workloads(figure);
            assert_eq!(used.len(), figure.workloads.len(), "{}", figure.name);
            for wl in &used {
                let member = workloads::all()
                    .into_iter()
                    .find(|m| m.name == wl.name)
                    .expect("a suite member");
                assert_eq!(
                    *wl,
                    member.scaled(0.5),
                    "{} ignores the scale of {}",
                    figure.name,
                    wl.name
                );
            }
            if let Body::Sweep { schemes, .. } = &figure.body {
                // The rules a service job is held to, scheme geometry
                // included: every swept scheme (Fig. 13's 8K budget,
                // Fig. 12's 1K C-BTB, Fig. 9's "No bit vector" U-BTB)
                // must pass `SchemeSpec::validate`.
                let names: Vec<String> = used.iter().map(|w| w.name.clone()).collect();
                check_sweep(&names, &schemes(), LEN, None)
                    .unwrap_or_else(|e| panic!("{}: {e}", figure.name));
            }
        }
    }

    #[test]
    fn shared_store_pass_equals_standalone_runs() {
        let shared = small_session();
        let fig9 = sweep_of(&shared, "fig9").to_json();
        let fig12 = sweep_of(&shared, "fig12").to_json();
        assert!(shared.cells.hits() > 0, "fig12 reused none of fig9's cells");
        assert_eq!(fig9, sweep_of(&small_session(), "fig9").to_json());
        assert_eq!(fig12, sweep_of(&small_session(), "fig12").to_json());
    }
}
