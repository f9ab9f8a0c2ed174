//! The traced run (`--trace 1`): where a cell's wall time goes.
//!
//! Every public call the benchmark makes is wrapped in a span (see
//! `spans.rs`): program synthesis, recording, one loop per layer
//! operation, each serial cell, each batch group, each sampled cell, the
//! shared window, and each submit to an in-process service. The per-op
//! loops replay the workload's own recorded streams — its blocks, its
//! cache lines and its conditional `(pc, taken)` pairs — not synthetic
//! addresses. Per-layer metrics are span time over span operations;
//! they never come from the timed runs.
//!
//! Operations checked here: every serial cell against its batch-group
//! twin (same `SimStats`), every sampled cell for truncation, every probe
//! job against its hit/miss plan and cached-equals-computed bytes, and
//! the report and cell-store round trips.

use std::hint::black_box;
use std::path::Path;

use fe_cfg::{Executor, Program};
use fe_model::{Addr, BlockSource, BranchKind, LineAddr, MachineConfig, RetiredBlock, SimStats};
use fe_serve::{DiskCellStore, ExperimentService, JobSpec, JobState, JobWorkload};
use fe_sim::{
    run_scheme_replayed, run_scheme_sampled_replayed, run_schemes_batch_replayed, CellKey,
    CellStore, CellValue, ProgramFingerprint, RunLength, SamplingSpec, SharedWindow, SweepReport,
};
use fe_trace::{Trace, TraceStore};
use fe_uarch::{AccessOutcome, Btb, LineCache, MemClass, MemorySystem, Tage};
use shotgun::cbtb::CBtb;
use shotgun::rib::Rib;
use shotgun::ubtb::UBtb;
use shotgun::{FootprintLayout, FootprintRecorder, ShotgunConfig};

use crate::serve::{JobPlan, PlannedJob};
use crate::spans::Tracer;
use crate::{detail_shape, sampled_shape, schemes, Args, Outcome, SweepShape, Workload};

/// Blocks of each recording the per-op loops replay, at most.
const MAX_BLOCKS: usize = 1_000_000;
/// Repetitions of the report and cell-store calls, which are short.
const SMALL_CALL_REPS: usize = 20;
/// Jobs the serve-jobs probe submits, from the workload's own plan.
const PROBE_JOBS: usize = 16;

/// What the traced run of one workload runs: its programs, the length
/// of its full-detail and sampled cells, and the jobs its service probe
/// submits.
struct Plan {
    shape: SweepShape,
    cell_len: RunLength,
    sampled_len: RunLength,
    jobs: Vec<PlannedJob>,
}

fn plan(args: &Args) -> Plan {
    let shape = match args.workload {
        Workload::DetailSweep => detail_shape(args.smoke),
        Workload::SampledSweep => sampled_shape(args.smoke),
        Workload::ServeJobs => crate::serve::shape(args.smoke),
    };
    let (cell_len, sampled_len) = match args.workload {
        // Full detail at the sweep's own length would take six times
        // the sampled sweep's wall time; a shorter cell costs the same
        // per instruction once warm.
        Workload::SampledSweep if !args.smoke => (
            RunLength {
                warmup: 200_000,
                measure: 800_000,
            },
            shape.len,
        ),
        _ => (shape.len, shape.len),
    };
    let jobs = match args.workload {
        Workload::ServeJobs => {
            let mut plan = JobPlan::new(args.seed, shape.clone());
            (0..PROBE_JOBS).map(|_| plan.next_job()).collect()
        }
        // A sweep submitted to the service twice: computed, then cached.
        _ => {
            let spec = JobSpec {
                workloads: shape
                    .programs
                    .iter()
                    .map(|p| JobWorkload {
                        name: p.name.clone(),
                        scale: (shape.scale != 1.0).then_some(shape.scale),
                    })
                    .collect(),
                schemes: schemes(),
                len: RunLength::SMOKE,
                seed: args.seed,
                sampling: None,
                threads: crate::threads(),
            };
            vec![
                PlannedJob {
                    spec: spec.clone(),
                    repeats: None,
                },
                PlannedJob {
                    spec,
                    repeats: Some(0),
                },
            ]
        }
    };
    Plan {
        shape,
        cell_len,
        sampled_len,
        jobs,
    }
}

pub fn traced(args: &Args, work: &Path, tr: &mut Tracer) -> Outcome {
    let plan = plan(args);
    let machine = MachineConfig::table3();
    let sampling = SamplingSpec::DEFAULT;
    let mut out = Outcome::default();
    let needed = plan
        .cell_len
        .trace_instrs(&machine)
        .max(plan.sampled_len.trace_instrs(&machine));

    let inputs: Vec<(Program, Trace)> = tr.span("setup", |tr| {
        let inputs: Vec<(Program, Trace)> = plan
            .shape
            .programs
            .iter()
            .map(|spec| {
                let program = tr.span("cfg.build", |_| (spec.build(), 1));
                let trace = tr.span("trace.record", |_| {
                    let trace = Trace::record(&program, args.seed, needed);
                    let instrs = trace.header().instr_count;
                    (trace, instrs)
                });
                (program, trace)
            })
            .collect();
        let n = inputs.len() as u64;
        (inputs, n)
    });

    tr.span("layers", |tr| {
        for (program, trace) in &inputs {
            stream_ops(tr, program, trace, args.seed, &machine, sampling);
        }
        ((), 0)
    });

    let labels: Vec<String> = schemes().iter().map(|s| s.label()).collect();
    let mut serial_stats: Vec<SimStats> = vec![SimStats::default(); labels.len()];
    tr.span("cells", |tr| {
        for (program, trace) in &inputs {
            let serial = cells(tr, &mut out, program, trace, args.seed, &machine, &plan);
            for (total, stats) in serial_stats.iter_mut().zip(&serial) {
                total.merge(stats);
            }
        }
        ((), 0)
    });
    let hit_rate = tr.span("serve", |tr| {
        let hit_rate = serve_probe(tr, &mut out, &plan, &inputs, &machine, work);
        (hit_rate, 0)
    });

    // Per-layer metrics, all from the spans above: a span's time over
    // its operations, scaled to the metric's unit.
    let mut per_op: Vec<(String, String, f64, &'static str)> = Vec::new();
    let mut add = |metric: &str, span: &str, per: f64, unit: &'static str| {
        per_op.push((metric.to_string(), span.to_string(), per, unit));
    };
    add("cfg.build_ms", "cfg.build", 1e6, "ms");
    for (span, suffix) in [
        ("cfg.walk", "ns_per_block"),
        ("trace.record", "ns_per_instr"),
        ("trace.replay", "ns_per_block"),
        ("trace.skip", "ns_per_instr"),
        ("trace.store_replay", "ns_per_block"),
        ("trace.store_skip", "ns_per_instr"),
    ] {
        add(&format!("{span}_{suffix}"), span, 1.0, "ns");
    }
    for op in ["tage_predict", "tage_retire"] {
        add(&format!("uarch.{op}_ns"), &format!("uarch.{op}"), 1.0, "ns");
        add(
            &format!("uarch.{op}_ns.fold_scratch"),
            &format!("uarch.{op}.fold_scratch"),
            1.0,
            "ns",
        );
    }
    for span in [
        "uarch.btb_lookup",
        "uarch.l1i_access",
        "uarch.llc_request",
        "uarch.warm_instr",
        "core.ubtb_lookup",
        "core.cbtb_lookup",
        "core.rib_lookup",
        "core.recorder_observe",
    ] {
        add(&format!("{span}_ns"), span, 1.0, "ns");
    }
    for label in &labels {
        add(
            &format!("sim.cell_ns_per_instr.{label}"),
            &format!("sim.cell.{label}"),
            1.0,
            "ns",
        );
        add(
            &format!("sim.sampled_ns_per_instr.{label}"),
            &format!("sim.sampled.{label}"),
            1.0,
            "ns",
        );
    }
    add("sim.batch_ns_per_instr", "sim.batch", 1.0, "ns");
    add("sim.window_ns_per_block", "sim.window", 1.0, "ns");
    add("sim.report_render_us", "sim.report_render", 1e3, "us");
    add("sim.report_parse_us", "sim.report_parse", 1e3, "us");
    add("sim.cell_key_us", "sim.cell_key", 1e3, "us");
    add("serve.store_get_us", "serve.store_get", 1e3, "us");
    add("serve.store_put_us", "serve.store_put", 1e3, "us");
    add("serve.queue_wait_ms", "serve.queue_wait", 1e6, "ms");
    for (metric, span, per, unit) in per_op {
        out.push(metric, tr.ns_per_op(&span) / per, unit);
    }
    for (label, stats) in labels.iter().zip(&serial_stats) {
        // Warmup is assumed to run at the measured phase's IPC.
        out.push(
            format!("sim.cell_ns_per_cycle.{label}"),
            tr.ns_per_op(&format!("sim.cell.{label}")) * stats.instructions as f64
                / stats.cycles as f64,
            "ns",
        );
    }
    let serial_ns: f64 = labels
        .iter()
        .map(|label| tr.total_ns(&format!("sim.cell.{label}")))
        .sum();
    out.push(
        "sim.batch_speedup",
        serial_ns / tr.total_ns("sim.batch"),
        "x",
    );

    let total = serial_stats.iter().fold(SimStats::default(), |mut acc, s| {
        acc.merge(s);
        acc
    });
    out.push("sim.cycles", total.cycles as f64, "count");
    out.push("sim.branches", total.branches as f64, "count");
    out.push("sim.btb_lookups", total.btb_lookups as f64, "count");
    out.push("sim.noc_messages", total.noc_messages as f64, "count");
    let (blocks, instrs) = inputs.iter().fold((0, 0), |(b, i), (_, t)| {
        (b + t.header().block_count, i + t.header().instr_count)
    });
    out.push("trace.blocks", blocks as f64, "count");
    out.push("serve.cache_hit_rate", hit_rate, "ratio");

    // Reconciliation: how much of each serial cell's time the measured
    // per-op costs explain, given the cell's own simulated counts.
    let blocks_per_instr = blocks as f64 / instrs as f64;
    let per_op = |name: &str| tr.ns_per_op(name);
    for (label, stats) in labels.iter().zip(&serial_stats) {
        let is_shotgun = label.starts_with("shotgun");
        let instrs = stats.instructions as f64;
        let blocks = instrs * blocks_per_instr;
        let conditional = (stats.branches - stats.unconditional_branches) as f64;
        let lookup = if is_shotgun {
            per_op("core.ubtb_lookup")
        } else {
            per_op("uarch.btb_lookup")
        };
        let attributed = blocks * per_op("trace.replay")
            + conditional * (per_op("uarch.tage_predict") + per_op("uarch.tage_retire"))
            + stats.btb_lookups as f64 * lookup
            + stats.l1i_accesses as f64 * per_op("uarch.l1i_access")
            + stats.noc_messages as f64 * per_op("uarch.llc_request")
            + if is_shotgun {
                blocks * per_op("core.recorder_observe")
            } else {
                0.0
            };
        let measured = tr.ns_per_op(&format!("sim.cell.{label}")) * instrs;
        out.push(
            format!("sim.attributed_share.{label}"),
            attributed / measured,
            "ratio",
        );
    }
    out
}

/// Collects up to [`MAX_BLOCKS`] blocks of `trace`.
fn blocks_of(trace: &Trace) -> Vec<RetiredBlock> {
    let mut replayer = trace.replayer();
    std::iter::from_fn(|| replayer.next_block())
        .take(MAX_BLOCKS)
        .collect()
}

/// Times every per-op layer call over one program's own recording.
fn stream_ops(
    tr: &mut Tracer,
    program: &Program,
    trace: &Trace,
    seed: u64,
    machine: &MachineConfig,
    sampling: SamplingSpec,
) {
    let blocks = blocks_of(trace);
    let n = blocks.len() as u64;
    let skip = sampling.interval - sampling.warmup - sampling.detail;

    tr.span("cfg.walk", |_| {
        let mut exec = Executor::new(program, seed);
        for _ in 0..n {
            black_box(exec.next_block());
        }
        ((), n)
    });
    tr.span("trace.replay", |_| ((), replay_all(&mut trace.replayer())));
    tr.span("trace.skip", |_| {
        ((), skip_all(&mut trace.replayer(), skip))
    });
    let store = TraceStore::from_trace(trace, "perfbench");
    tr.span("trace.store_replay", |_| {
        ((), replay_all(&mut store.replayer()))
    });
    tr.span("trace.store_skip", |_| {
        ((), skip_all(&mut store.replayer(), skip))
    });

    let branches: Vec<(Addr, bool)> = blocks
        .iter()
        .filter(|rb| rb.block.kind == BranchKind::Conditional)
        .map(|rb| (rb.block.branch_pc(), rb.taken))
        .collect();
    for suffix in ["", ".fold_scratch"] {
        let mut tage = Tage::new(machine.tage);
        if !suffix.is_empty() {
            tage.enable_fold_scratch();
        }
        tr.span(&format!("uarch.tage_retire{suffix}"), |_| {
            for &(pc, taken) in &branches {
                black_box(tage.retire(pc, taken));
            }
            ((), branches.len() as u64)
        });
        // A prediction pushes its outcome into the speculative history,
        // as the branch-prediction unit does.
        tr.span(&format!("uarch.tage_predict{suffix}"), |_| {
            for &(pc, taken) in &branches {
                black_box(tage.predict(pc));
                tage.push_spec(taken);
            }
            ((), branches.len() as u64)
        });
    }

    let fe = &machine.front_end;
    let mut btb = Btb::new(fe.btb_entries as usize, fe.btb_ways as usize);
    tr.span("uarch.btb_lookup", |_| {
        for rb in &blocks {
            if btb.lookup(rb.block.start).is_none() {
                btb.insert(&rb.block);
            }
        }
        ((), n)
    });
    let mut l1i = LineCache::new(machine.l1i);
    let mut misses: Vec<LineAddr> = Vec::new();
    tr.span("uarch.l1i_access", |_| {
        let mut accesses = 0;
        for rb in &blocks {
            for line in rb.block.lines() {
                accesses += 1;
                if let AccessOutcome::Miss = l1i.demand_access(line) {
                    l1i.install(line, false);
                    misses.push(line);
                }
            }
        }
        ((), accesses)
    });
    let mut mem = MemorySystem::new(machine);
    tr.span("uarch.llc_request", |_| {
        for (i, &line) in misses.iter().enumerate() {
            black_box(mem.request_instr(i as u64 * 10, line, MemClass::InstrDemand));
        }
        ((), misses.len() as u64)
    });
    let mut mem = MemorySystem::new(machine);
    tr.span("uarch.warm_instr", |_| {
        for &line in &misses {
            mem.warm_instr(line);
        }
        ((), misses.len() as u64)
    });

    let cfg = ShotgunConfig::default();
    let (sizing, ways) = (cfg.sizing, cfg.ways as usize);
    let mut ubtb = UBtb::new(sizing.ubtb as usize, ways);
    tr.span("core.ubtb_lookup", |_| {
        for rb in &blocks {
            // Conditionals live in the C-BTB and returns in the RIB.
            let unconditional = !matches!(
                rb.block.kind,
                BranchKind::Conditional | BranchKind::Return | BranchKind::TrapReturn
            );
            if ubtb.lookup(rb.block.start).is_none() && unconditional {
                ubtb.install_block(&rb.block);
            }
        }
        ((), n)
    });
    let mut cbtb = CBtb::new(sizing.cbtb as usize, ways);
    tr.span("core.cbtb_lookup", |_| {
        for rb in &blocks {
            if cbtb.lookup(rb.block.start).is_none() && rb.block.kind == BranchKind::Conditional {
                cbtb.install(&rb.block);
            }
        }
        ((), n)
    });
    let mut rib = Rib::new(sizing.rib as usize, ways);
    tr.span("core.rib_lookup", |_| {
        for rb in &blocks {
            if rib.lookup(rb.block.start).is_none()
                && matches!(rb.block.kind, BranchKind::Return | BranchKind::TrapReturn)
            {
                rib.install(&rb.block);
            }
        }
        ((), n)
    });
    let mut recorder = FootprintRecorder::new(FootprintLayout::BITS8, fe.ras_entries as usize);
    tr.span("core.recorder_observe", |_| {
        for rb in &blocks {
            black_box(recorder.observe(rb));
        }
        ((), n)
    });
}

/// Replays a whole recording; returns blocks.
fn replay_all(source: &mut impl BlockSource) -> u64 {
    let mut blocks = 0;
    while let Some(rb) = source.next_block() {
        black_box(rb);
        blocks += 1;
    }
    blocks
}

/// Skips a whole recording in sampling-sized steps; returns instructions.
fn skip_all(source: &mut impl BlockSource, step: u64) -> u64 {
    let mut total = 0;
    loop {
        let skipped = source.skip_instrs(step);
        total += skipped;
        if skipped < step {
            return total;
        }
    }
}

/// One program's cells: a serial replayed cell per scheme, one batch
/// group of all schemes (checked against the serial cells), a serial
/// sampled cell per scheme, and the shared window alone. Returns the
/// serial cells' stats in scheme order.
fn cells(
    tr: &mut Tracer,
    out: &mut Outcome,
    program: &Program,
    trace: &Trace,
    seed: u64,
    machine: &MachineConfig,
    plan: &Plan,
) -> Vec<SimStats> {
    let schemes = schemes();
    let covered = |len: RunLength| len.warmup + len.measure;
    let serial: Vec<SimStats> = schemes
        .iter()
        .map(|scheme| {
            tr.span(&format!("sim.cell.{}", scheme.label()), |_| {
                let stats =
                    run_scheme_replayed(program, trace, scheme, machine, plan.cell_len, seed);
                (stats, covered(plan.cell_len))
            })
        })
        .collect();
    let batch = tr.span("sim.batch", |_| {
        let stats =
            run_schemes_batch_replayed(program, trace, &schemes, machine, plan.cell_len, seed);
        (stats, schemes.len() as u64 * covered(plan.cell_len))
    });
    for (s, b) in serial.iter().zip(&batch) {
        out.op(s == b);
    }
    let sampling = SamplingSpec::DEFAULT;
    for scheme in &schemes {
        let sampled = tr.span(&format!("sim.sampled.{}", scheme.label()), |_| {
            let sampled = run_scheme_sampled_replayed(
                program,
                trace,
                scheme,
                machine,
                plan.sampled_len,
                sampling,
                seed,
            );
            (sampled, covered(plan.sampled_len))
        });
        out.op(sampled.interval_count() >= plan.sampled_len.measure / sampling.interval);
    }
    tr.span("sim.window", |_| {
        let window = SharedWindow::new(trace.replayer());
        let mut cursors: Vec<_> = schemes.iter().map(|_| window.cursor()).collect();
        let mut reads = 0;
        let mut live = true;
        while live {
            live = false;
            for cursor in &mut cursors {
                if let Some(rb) = cursor.next_block() {
                    black_box(rb);
                    reads += 1;
                    live = true;
                }
            }
        }
        ((), reads)
    });
    serial
}

/// Submits the plan's jobs to an in-process service (timing each submit
/// until its first progress tick), then times the report, cell-key and
/// cell-store calls on the largest computed report. Returns the service
/// cache's hit rate.
fn serve_probe(
    tr: &mut Tracer,
    out: &mut Outcome,
    plan: &Plan,
    inputs: &[(Program, Trace)],
    machine: &MachineConfig,
    work: &Path,
) -> f64 {
    let service = ExperimentService::open(work.join("probe-root")).expect("open the probe service");
    let mut computed: Vec<String> = Vec::new();
    for job in &plan.jobs {
        let report = tr.span("serve.job", |tr| {
            let (id, progress, first) = tr.span("serve.queue_wait", |_| {
                let (id, progress) = service.submit(&job.spec).expect("submit a probe job");
                let first = progress.recv().ok();
                ((id, progress, first), 1)
            });
            let ticks: Vec<_> = first.into_iter().chain(progress).collect();
            let report = match service.wait(id) {
                Some(JobState::Done(report)) => Some(report.to_string()),
                _ => None,
            };
            let cached = ticks.iter().filter(|t| t.cached).count();
            let cells = job.spec.cell_count();
            let ok = match (&report, job.repeats) {
                (Some(_), None) => cached == 0 && ticks.len() == cells,
                (Some(r), Some(i)) => cached == cells && computed.get(i) == Some(r),
                (None, _) => false,
            };
            ((report, ok), 1)
        });
        out.op(report.1);
        if job.repeats.is_none() {
            computed.push(report.0.unwrap_or_default());
        }
    }
    let (hits, misses) = (service.cache().hits(), service.cache().misses());
    service.shutdown();

    let (text, spec) = computed
        .iter()
        .zip(plan.jobs.iter().filter(|j| j.repeats.is_none()))
        .max_by_key(|(text, _)| text.len())
        .expect("the probe computed a report");
    let report = tr.span("sim.report_parse", |_| {
        let mut report = None;
        for _ in 0..SMALL_CALL_REPS {
            report = SweepReport::from_json(text).ok();
        }
        (report, SMALL_CALL_REPS as u64)
    });
    let Some(report) = report else {
        out.op(false);
        return f64::NAN;
    };
    let rendered = tr.span("sim.report_render", |_| {
        let mut rendered = String::new();
        for _ in 0..SMALL_CALL_REPS {
            rendered = report.to_json();
        }
        (rendered, SMALL_CALL_REPS as u64)
    });
    out.op(rendered == *text);

    let program_of = |name: &str| {
        inputs
            .iter()
            .find(|(p, _)| p.name() == name)
            .map(|(p, _)| ProgramFingerprint::of(p))
            .expect("probe jobs use the workload's programs")
    };
    let keyed: Vec<(CellKey, CellValue)> = tr.span("sim.cell_key", |_| {
        let mut keyed = Vec::new();
        for _ in 0..SMALL_CALL_REPS {
            keyed = report
                .cells
                .iter()
                .map(|c| {
                    let key = CellKey::for_cell(
                        program_of(c.workload.as_str()),
                        machine,
                        &c.scheme,
                        spec.spec.len,
                        spec.spec.seed,
                        spec.spec.sampling,
                    );
                    let value = CellValue {
                        stats: c.stats.clone(),
                        sampling: c.sampling.clone(),
                    };
                    (key, value)
                })
                .collect();
        }
        let ops = (SMALL_CALL_REPS * keyed.len()) as u64;
        (keyed, ops)
    });
    let store = DiskCellStore::open(work.join("store-probe")).expect("open the probe cell store");
    tr.span("serve.store_put", |_| {
        for _ in 0..SMALL_CALL_REPS {
            for (key, value) in &keyed {
                store.put(key, value);
            }
        }
        ((), (SMALL_CALL_REPS * keyed.len()) as u64)
    });
    let mut round_trips_ok = true;
    tr.span("serve.store_get", |_| {
        for _ in 0..SMALL_CALL_REPS {
            for (key, value) in &keyed {
                round_trips_ok &= store.get(key).as_ref() == Some(value);
            }
        }
        ((), (SMALL_CALL_REPS * keyed.len()) as u64)
    });
    out.op(round_trips_ok);
    hits as f64 / (hits + misses) as f64
}
