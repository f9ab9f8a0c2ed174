//! Report presentation: per-figure series extracted from a
//! [`SweepReport`] and the aligned text tables the figure table
//! ([`crate::figures`]) prints.

use fe_model::stats::{arithmetic_mean, geometric_mean};
use fe_model::SimStats;
use fe_sim::{SweepCell, SweepReport};

/// A named series of per-workload values plus an aggregate — one group
/// of bars in a paper figure.
#[derive(Clone, Debug)]
pub struct Series {
    /// Scheme / design-point label.
    pub label: String,
    /// `(workload, value)` pairs in presentation order.
    pub values: Vec<(String, f64)>,
    /// Aggregate over workloads (gmean for speedups, mean for rates).
    pub aggregate: f64,
}

fn series_of(
    report: &SweepReport,
    workloads: &[&str],
    schemes: &[&str],
    value: impl Fn(&SweepCell) -> f64,
    aggregate_geo: bool,
) -> Vec<Series> {
    schemes
        .iter()
        .map(|scheme| {
            let values: Vec<(String, f64)> = workloads
                .iter()
                .map(|wl| (wl.to_string(), value(report.cell_labeled(wl, scheme))))
                .collect();
            let vs: Vec<f64> = values.iter().map(|v| v.1).collect();
            let aggregate = if aggregate_geo {
                geometric_mean(&vs)
            } else {
                arithmetic_mean(&vs)
            };
            Series {
                label: scheme.to_string(),
                values,
                aggregate,
            }
        })
        .collect()
}

/// Speedup-over-baseline series (Figs. 1, 7, 9, 12). Panics if the
/// sweep ran without a baseline scheme.
pub fn speedup_series(report: &SweepReport, workloads: &[&str], schemes: &[&str]) -> Vec<Series> {
    series_of(
        report,
        workloads,
        schemes,
        |c| {
            c.metrics
                .speedup
                .expect("sweep has no baseline scheme for speedups")
        },
        true,
    )
}

/// Front-end stall-cycle coverage series (Figs. 6, 8). Panics if the
/// sweep ran without a baseline scheme.
pub fn coverage_series(report: &SweepReport, workloads: &[&str], schemes: &[&str]) -> Vec<Series> {
    series_of(
        report,
        workloads,
        schemes,
        |c| {
            c.metrics
                .coverage
                .expect("sweep has no baseline scheme for coverage")
        },
        false,
    )
}

/// Series from an arbitrary per-cell statistic (accuracy, fill
/// latency, MPKI, ...).
pub fn metric_series(
    report: &SweepReport,
    workloads: &[&str],
    schemes: &[&str],
    metric: impl Fn(&SimStats) -> f64,
    aggregate_geo: bool,
) -> Vec<Series> {
    series_of(
        report,
        workloads,
        schemes,
        |c| metric(&c.stats),
        aggregate_geo,
    )
}

/// Renders series as an aligned text table: workloads as rows, series
/// as columns, aggregate as the last row.
pub fn render_table(title: &str, series: &[Series], aggregate_name: &str, percent: bool) -> String {
    let mut out = String::new();
    out.push_str(title);
    out.push('\n');
    if series.is_empty() {
        return out;
    }
    let scale = |v: f64| if percent { v * 100.0 } else { v };
    let unit = if percent { "%" } else { "" };

    out.push_str(&format!("{:12}", "workload"));
    for s in series {
        out.push_str(&format!(" {:>14}", s.label));
    }
    out.push('\n');
    for (i, (wl, _)) in series[0].values.iter().enumerate() {
        out.push_str(&format!("{wl:12}"));
        for s in series {
            out.push_str(&format!(" {:>13.2}{unit}", scale(s.values[i].1)));
        }
        out.push('\n');
    }
    out.push_str(&format!("{aggregate_name:12}"));
    for s in series {
        out.push_str(&format!(" {:>13.2}{unit}", scale(s.aggregate)));
    }
    out.push('\n');
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use fe_model::stats::{coverage, speedup};
    use fe_sim::{CellMetrics, RunLength, SchemeSpec, WorkloadId};

    fn stats(cycles: u64, instrs: u64, icache_stalls: u64) -> SimStats {
        let mut s = SimStats {
            cycles,
            instructions: instrs,
            ..Default::default()
        };
        s.stalls.icache_miss = icache_stalls;
        s
    }

    fn metrics(s: &SimStats, base: &SimStats) -> CellMetrics {
        CellMetrics {
            ipc: s.ipc(),
            l1i_mpki: s.l1i_mpki(),
            btb_mpki: s.btb_mpki(),
            prefetch_accuracy: s.prefetch_accuracy(),
            l1d_fill_latency: s.avg_l1d_fill_latency(),
            speedup: Some(speedup(base, s)),
            coverage: Some(coverage(base, s)),
        }
    }

    fn fake_report() -> SweepReport {
        let schemes = vec![SchemeSpec::NoPrefetch, SchemeSpec::Ideal];
        let mut cells = Vec::new();
        for (wl, base_cycles, fast_cycles) in [("a", 2000u64, 1000u64), ("b", 3000, 1500)] {
            let base = stats(base_cycles, 1000, 400);
            let fast = stats(fast_cycles, 1000, 100);
            cells.push(SweepCell {
                workload: WorkloadId(wl.into()),
                scheme: schemes[0].clone(),
                label: "base".into(),
                metrics: metrics(&base, &base),
                stats: base.clone(),
                sampling: None,
            });
            cells.push(SweepCell {
                workload: WorkloadId(wl.into()),
                scheme: schemes[1].clone(),
                label: "fast".into(),
                metrics: metrics(&fast, &base),
                stats: fast,
                sampling: None,
            });
        }
        SweepReport {
            len: RunLength::SMOKE,
            seed: 0,
            baseline: Some("base".into()),
            sampling: None,
            workloads: vec![WorkloadId("a".into()), WorkloadId("b".into())],
            schemes,
            cells,
        }
    }

    #[test]
    fn speedup_series_computes_gmean() {
        let report = fake_report();
        let series = speedup_series(&report, &["a", "b"], &["fast"]);
        assert_eq!(series.len(), 1);
        assert!((series[0].values[0].1 - 2.0).abs() < 1e-12);
        assert!((series[0].aggregate - 2.0).abs() < 1e-12);
    }

    #[test]
    fn coverage_series_computes_mean() {
        let report = fake_report();
        let series = coverage_series(&report, &["a", "b"], &["fast"]);
        assert!((series[0].values[0].1 - 0.75).abs() < 1e-12);
        assert!((series[0].aggregate - 0.75).abs() < 1e-12);
    }

    #[test]
    fn metric_series_applies_function() {
        let report = fake_report();
        let series = metric_series(&report, &["a", "b"], &["base"], |s| s.ipc(), false);
        assert!((series[0].values[0].1 - 0.5).abs() < 1e-12);
    }

    #[test]
    fn table_renders_all_rows() {
        let report = fake_report();
        let series = speedup_series(&report, &["a", "b"], &["fast"]);
        let table = render_table("Figure X", &series, "gmean", false);
        assert!(table.contains("Figure X"));
        assert!(table.contains("gmean"));
        assert!(table.lines().count() >= 5);
    }
}
