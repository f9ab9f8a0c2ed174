//! The two sweep workloads, timed end to end through
//! `fe_sim::Experiment::run`.
//!
//! Set-up builds each program (`WorkloadSpec::build`) and records its
//! stream (`Trace::record`) into the sweep's trace directory, so the
//! timed runs replay instead of walking. The timed phase then repeats,
//! for `--seconds`: one cold sweep (every cell computed, written to a
//! fresh in-memory cell store), incremental sweeps for a quarter of the
//! cold sweep's time, and one more set-up. An incremental sweep is the
//! sweep re-run after a scheme joined it: its store holds every cell but
//! the last scheme's, so it computes one cell per program and serves the
//! rest from the cache. A sweep served entirely from the cache would time
//! mostly program synthesis, a 20–50 ms burst of page faults whose
//! latency swung by up to 3× between runs on a shared host.
//!
//! Each sweep is one operation per cell; a cell fails when it is
//! missing, truncated, differs from the first cold sweep, or — for one
//! scheme per program — differs from the same cell re-run on the serial
//! path. An incremental sweep fails unless exactly the new scheme's cells
//! miss the store and its report bytes equal the cold sweep's.

use std::path::{Path, PathBuf};
use std::sync::Arc;
use std::time::Instant;

use fe_cfg::Program;
use fe_model::{MachineConfig, SimStats};
use fe_sim::{
    run_scheme_replayed, run_scheme_sampled_replayed, CellKey, CellStore, CellValue, Experiment,
    MemoryCellStore, ProgramFingerprint, SweepReport,
};
use fe_trace::Trace;

use crate::{
    median, parallel_map, peak_rss_mb, percentile, schemes, secs, threads, Args, Outcome,
    SweepShape,
};

/// After each cold sweep, incremental sweeps run for this share of its
/// time, so both kinds sample the whole run.
const CACHED_SHARE: f64 = 0.25;
/// Fewest cold sweeps, whatever `--seconds` says.
const MIN_COLD: usize = 3;

/// Where `Experiment::trace_dir` looks for `program`'s recording.
pub fn trace_path(dir: &Path, program: &Program, seed: u64) -> PathBuf {
    dir.join(format!("{}-{seed:016x}.fetr", program.name()))
}

/// Set-up: build every program and record its stream into `dir`, long
/// enough for the shape's run length. Returns the programs and traces.
pub fn set_up(shape: &SweepShape, seed: u64, dir: &Path) -> Vec<(Program, Trace)> {
    let machine = MachineConfig::table3();
    let needed = shape.len.trace_instrs(&machine);
    std::fs::create_dir_all(dir).expect("create the trace directory");
    parallel_map(shape.programs.len(), |i| {
        let program = shape.programs[i].build();
        let trace = Trace::record(&program, seed, needed);
        trace
            .write_to(trace_path(dir, &program, seed))
            .expect("write the recorded trace");
        (program, trace)
    })
}

/// The sweep itself, exactly as a user writes it.
pub fn experiment(shape: &SweepShape, seed: u64, trace_dir: &Path) -> Experiment {
    let mut exp = Experiment::new(MachineConfig::table3())
        .workloads(shape.programs.iter().cloned())
        .schemes(schemes())
        .len(shape.len)
        .seed(seed)
        .threads(threads())
        .trace_dir(trace_dir);
    if let Some(spec) = shape.sampling {
        exp = exp.sampling(spec);
    }
    exp
}

/// Counts the cells of `report` that are missing or truncated.
pub fn incomplete_cells(shape: &SweepShape, report: &SweepReport) -> u64 {
    let mut bad = 0;
    for spec in &shape.programs {
        for scheme in schemes() {
            let cell = report
                .cells
                .iter()
                .find(|c| c.workload == *spec.name.as_str() && c.scheme == scheme);
            let complete = cell.is_some_and(|c| match (shape.sampling, &c.sampling) {
                (None, None) => c.stats.instructions >= shape.len.measure,
                (Some(s), Some(summary)) => summary.intervals >= shape.len.measure / s.interval,
                _ => false,
            });
            bad += u64::from(!complete);
        }
    }
    bad
}

/// Re-runs one scheme per program on the serial path — which scheme
/// rotates with the seed — and returns `(workload, scheme label, stats)`.
pub fn serial_reference(
    shape: &SweepShape,
    inputs: &[(Program, Trace)],
    seed: u64,
) -> Vec<(String, String, SimStats)> {
    let machine = MachineConfig::table3();
    let schemes = schemes();
    let picks: Vec<usize> = (0..inputs.len())
        .map(|pi| (seed as usize).wrapping_add(pi) % schemes.len())
        .collect();
    let run = |pi: usize| {
        let (program, trace) = &inputs[pi];
        let scheme = &schemes[picks[pi]];
        let stats = match shape.sampling {
            None => run_scheme_replayed(program, trace, scheme, &machine, shape.len, seed),
            Some(spec) => {
                run_scheme_sampled_replayed(program, trace, scheme, &machine, shape.len, spec, seed)
                    .aggregate()
            }
        };
        (program.name().to_string(), scheme.label(), stats)
    };
    parallel_map(inputs.len(), run)
}

/// Counts the reference cells whose stats differ from `report`'s (a
/// reference cell missing from the report counts too).
pub fn serial_mismatches(report: &SweepReport, reference: &[(String, String, SimStats)]) -> u64 {
    reference
        .iter()
        .filter(|(workload, label, stats)| {
            !report
                .cells
                .iter()
                .any(|c| c.workload == *workload.as_str() && c.label == *label && c.stats == *stats)
        })
        .count() as u64
}

pub fn timed(shape: &SweepShape, args: &Args, work: &Path) -> Outcome {
    let trace_dir = work.join("traces");
    let cells = (shape.programs.len() * schemes().len()) as u64;
    let mut out = Outcome::default();
    let (mut setup, mut mips, mut cold_ms, mut cached_ms) =
        (Vec::new(), Vec::new(), Vec::new(), Vec::new());
    // Set up once before timing and again after every cold sweep, so the
    // set-up times, like the sweeps, sample the whole run.
    let t = Instant::now();
    let inputs = set_up(shape, args.seed, &trace_dir);
    setup.push(secs(t));
    // Every cell's cache key, in report order (workload-major).
    let machine = MachineConfig::table3();
    let keys: Vec<CellKey> = inputs
        .iter()
        .flat_map(|(program, _)| {
            let fingerprint = ProgramFingerprint::of(program);
            schemes()
                .into_iter()
                .map(move |scheme| (fingerprint, scheme))
        })
        .map(|(fingerprint, scheme)| {
            CellKey::for_cell(
                fingerprint,
                &machine,
                &scheme,
                shape.len,
                args.seed,
                shape.sampling,
            )
        })
        .collect();
    let added = schemes().pop().expect("the scheme list is not empty");
    let mut first: Option<(SweepReport, String)> = None;
    let start = Instant::now();
    while cold_ms.len() < MIN_COLD || secs(start) < args.seconds {
        let store = Arc::new(MemoryCellStore::new());
        let t = Instant::now();
        let report = experiment(shape, args.seed, &trace_dir)
            .cell_store(store.clone())
            .run();
        let run_s = secs(t);
        let json = report.to_json();
        let cold_s = secs(t);
        cold_ms.push(cold_s * 1e3);
        mips.push(shape.covered_instrs() as f64 / run_s / 1e6);
        let bad = match &first {
            None => incomplete_cells(shape, &report),
            Some((r0, _)) => {
                r0.cells
                    .iter()
                    .zip(&report.cells)
                    .filter(|(a, b)| a != b)
                    .count() as u64
                    + r0.cells.len().abs_diff(report.cells.len()) as u64
            }
        };
        out.attempted += cells;
        out.failed += bad.min(cells);
        let (r0, cold_json) = first.get_or_insert((report, json));

        // Incremental sweeps: the sweep re-run after its last scheme joined
        // it. The store holds every cell of the first cold sweep but that
        // scheme's, so one cell per program computes and the rest come
        // from the cache.
        let mut cached_s = 0.0;
        while cached_s == 0.0 || cached_s < cold_s * CACHED_SHARE {
            let store = Arc::new(MemoryCellStore::new());
            for (key, cell) in keys.iter().zip(&r0.cells) {
                if cell.scheme != added {
                    let value = CellValue {
                        stats: cell.stats.clone(),
                        sampling: cell.sampling.clone(),
                    };
                    store.put(key, &value);
                }
            }
            let t = Instant::now();
            let json = experiment(shape, args.seed, &trace_dir)
                .cell_store(store.clone())
                .run()
                .to_json();
            cached_s += secs(t);
            cached_ms.push(secs(t) * 1e3);
            out.attempted += cells;
            let computed = inputs.len() as u64;
            if json != *cold_json || store.hits() != cells - computed || store.misses() != computed
            {
                out.failed += cells;
            }
        }

        let t = Instant::now();
        drop(set_up(shape, args.seed, &trace_dir));
        setup.push(secs(t));
    }
    let (report, _) = first.expect("at least one cold sweep ran");

    let reference = serial_reference(shape, &inputs, args.seed);
    out.failed += serial_mismatches(&report, &reference);

    out.push("setup_s", median(&setup), "s");
    out.push("sim_mips", median(&mips), "Minstr/s");
    out.push("peak_rss_mb", peak_rss_mb(), "MiB");
    out.push("cold_job_ms_p50", median(&cold_ms), "ms");
    out.push("cold_job_ms_p90", percentile(&cold_ms, 0.9), "ms");
    out.push("cached_job_ms_p50", median(&cached_ms), "ms");
    out.push("cached_job_ms_p90", percentile(&cached_ms, 0.9), "ms");
    eprintln!(
        "{}: {} cold sweeps, {} incremental sweeps, {} cells each",
        args.workload.name(),
        cold_ms.len(),
        cached_ms.len(),
        cells
    );
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn an_injected_stats_mismatch_counts_as_a_failed_cell() {
        let shape = crate::detail_shape(true);
        let dir = Path::new(".bench_work").join(format!("mismatch-test-{}", std::process::id()));
        let inputs = set_up(&shape, 5, &dir);
        let report = experiment(&shape, 5, &dir).run();
        let mut reference = serial_reference(&shape, &inputs, 5);
        assert_eq!(incomplete_cells(&shape, &report), 0);
        assert_eq!(serial_mismatches(&report, &reference), 0);
        reference[0].2.cycles += 1;
        assert_eq!(serial_mismatches(&report, &reference), 1);
        let _ = std::fs::remove_dir_all(&dir);
    }
}
