//! The repository benchmark. One command per workload:
//!
//! ```sh
//! perfbench --workload <detail-sweep|sampled-sweep|serve-jobs> --seed <n> --seconds <s> --trace <0|1>
//! ```
//!
//! With `--trace 0` it measures the end-to-end metrics (set-up time,
//! simulated MIPS, peak RSS and job latencies) through the public entry
//! points users call; with `--trace 1` it makes the separate traced run
//! that times the calls into each layer (see `layers.rs`). Either way the
//! last stdout line is one JSON object: `correct`, `attempted`, `failed`
//! and `metrics`. Every timing is host time; every count is simulated.
//! `--smoke` shrinks every size for the self-test.

mod layers;
mod serve;
mod spans;
mod sweep;

use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Mutex;
use std::time::Instant;

use fe_cfg::{workloads, WorkloadSpec};
use fe_sim::{RunLength, SamplingSpec, SchemeSpec};

/// The three named workloads.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Workload {
    DetailSweep,
    SampledSweep,
    ServeJobs,
}

impl Workload {
    pub const ALL: [Workload; 3] = [
        Workload::DetailSweep,
        Workload::SampledSweep,
        Workload::ServeJobs,
    ];

    pub fn name(self) -> &'static str {
        match self {
            Workload::DetailSweep => "detail-sweep",
            Workload::SampledSweep => "sampled-sweep",
            Workload::ServeJobs => "serve-jobs",
        }
    }
}

/// Everything a run is parameterised by; `smoke` shrinks the sizes.
#[derive(Clone, Debug)]
pub struct Args {
    pub workload: Workload,
    pub seed: u64,
    pub seconds: f64,
    pub trace: bool,
    pub smoke: bool,
}

impl Args {
    fn parse(mut argv: impl Iterator<Item = String>) -> Result<Args, String> {
        let (mut workload, mut seed, mut seconds, mut trace, mut smoke) =
            (None, None, None, None, false);
        while let Some(flag) = argv.next() {
            if flag == "--smoke" {
                smoke = true;
                continue;
            }
            let value = argv.next().ok_or(format!("{flag} needs a value"))?;
            let bad = |what: &str| format!("{flag}: {what} `{value}`");
            match flag.as_str() {
                "--workload" => {
                    workload = Some(
                        Workload::ALL
                            .into_iter()
                            .find(|w| w.name() == value)
                            .ok_or_else(|| bad("unknown workload"))?,
                    )
                }
                "--seed" => seed = Some(value.parse().map_err(|_| bad("not a u64"))?),
                "--seconds" => {
                    seconds = Some(
                        value
                            .parse::<f64>()
                            .ok()
                            .filter(|s| *s > 0.0)
                            .ok_or_else(|| bad("not a positive number"))?,
                    )
                }
                "--trace" => {
                    trace = Some(match value.as_str() {
                        "0" => false,
                        "1" => true,
                        _ => return Err(bad("expected 0 or 1")),
                    })
                }
                _ => return Err(format!("unknown flag {flag}")),
            }
        }
        Ok(Args {
            workload: workload.ok_or("--workload is required")?,
            seed: seed.ok_or("--seed is required")?,
            seconds: seconds.ok_or("--seconds is required")?,
            trace: trace.ok_or("--trace is required")?,
            smoke,
        })
    }
}

/// The scheme axis every workload sweeps, in report order.
pub fn schemes() -> Vec<SchemeSpec> {
    vec![
        SchemeSpec::NoPrefetch,
        SchemeSpec::boomerang(),
        SchemeSpec::Confluence,
        SchemeSpec::shotgun(),
    ]
}

/// Worker threads for sweeps: the host's cores, at most two.
pub fn threads() -> usize {
    std::thread::available_parallelism().map_or(1, |n| n.get().min(2))
}

/// A sweep workload's inputs: programs, run length and sampling shape.
#[derive(Clone, Debug)]
pub struct SweepShape {
    /// Catalog programs, each scaled by `scale`.
    pub programs: Vec<WorkloadSpec>,
    pub scale: f64,
    pub len: RunLength,
    pub sampling: Option<SamplingSpec>,
}

impl SweepShape {
    /// Simulated instructions one sweep covers: warmup + measure per
    /// cell, skipped and warmed instructions included when sampled.
    pub fn covered_instrs(&self) -> u64 {
        (self.programs.len() * schemes().len()) as u64 * (self.len.warmup + self.len.measure)
    }
}

/// `detail-sweep`: full detail over the smallest-footprint program and
/// one far past the modelled BTB and L1-I.
pub fn detail_shape(smoke: bool) -> SweepShape {
    if smoke {
        return SweepShape {
            programs: vec![
                workloads::nutch().scaled(0.05),
                workloads::oracle().scaled(0.05),
            ],
            scale: 0.05,
            len: RunLength::SMOKE,
            sampling: None,
        };
    }
    SweepShape {
        programs: vec![workloads::nutch(), workloads::oracle()],
        scale: 1.0,
        len: RunLength {
            warmup: 500_000,
            measure: 2_000_000,
        },
        sampling: None,
    }
}

/// `sampled-sweep`: every program under the default sampling shape.
pub fn sampled_shape(smoke: bool) -> SweepShape {
    if smoke {
        return SweepShape {
            programs: workloads::all().iter().map(|w| w.scaled(0.05)).collect(),
            scale: 0.05,
            len: RunLength {
                warmup: 100_000,
                measure: 500_000,
            },
            sampling: Some(SamplingSpec::DEFAULT),
        };
    }
    SweepShape {
        programs: workloads::all(),
        scale: 1.0,
        len: RunLength {
            warmup: 1_000_000,
            measure: 10_000_000,
        },
        sampling: Some(SamplingSpec::DEFAULT),
    }
}

/// One reported metric.
#[derive(Clone, Debug)]
pub struct Metric {
    pub name: String,
    pub value: f64,
    pub unit: &'static str,
}

impl Metric {
    pub fn new(name: impl Into<String>, value: f64, unit: &'static str) -> Metric {
        Metric {
            name: name.into(),
            value,
            unit,
        }
    }
}

/// What one run produced: operations attempted and failed, and metrics.
#[derive(Debug, Default)]
pub struct Outcome {
    pub attempted: u64,
    pub failed: u64,
    pub metrics: Vec<Metric>,
}

impl Outcome {
    /// Records one operation and whether its output checked out.
    pub fn op(&mut self, ok: bool) {
        self.attempted += 1;
        self.failed += u64::from(!ok);
    }

    pub fn push(&mut self, name: impl Into<String>, value: f64, unit: &'static str) {
        self.metrics.push(Metric::new(name, value, unit));
    }

    /// The result line: one JSON object, numbers with all their digits.
    pub fn render(&self) -> String {
        let metrics: Vec<String> = self
            .metrics
            .iter()
            .map(|m| {
                // JSON has no NaN or infinity; `run` counts them as failures.
                let value = if m.value.is_finite() {
                    m.value.to_string()
                } else {
                    "null".to_string()
                };
                format!(
                    "\"{}\": {{\"value\": {value}, \"unit\": \"{}\"}}",
                    m.name, m.unit
                )
            })
            .collect();
        format!(
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
            self.failed == 0 && self.attempted > 0,
            self.attempted,
            self.failed,
            metrics.join(", ")
        )
    }
}

/// Runs `f(0..n)` on [`threads()`] workers; results in index order.
pub fn parallel_map<T: Send>(n: usize, f: impl Fn(usize) -> T + Sync) -> Vec<T> {
    let next = AtomicUsize::new(0);
    let slots: Mutex<Vec<Option<T>>> = Mutex::new((0..n).map(|_| None).collect());
    std::thread::scope(|s| {
        for _ in 0..threads() {
            s.spawn(|| loop {
                let i = next.fetch_add(1, Ordering::Relaxed);
                if i >= n {
                    return;
                }
                let value = f(i);
                slots.lock().expect("a sibling worker panicked")[i] = Some(value);
            });
        }
    });
    slots
        .into_inner()
        .expect("a worker panicked")
        .into_iter()
        .map(|v| v.expect("every index ran"))
        .collect()
}

/// Median of `values` (the mean of the middle two for an even count).
pub fn median(values: &[f64]) -> f64 {
    percentile(values, 0.5)
}

/// Linearly interpolated percentile, `p` in `[0, 1]`.
pub fn percentile(values: &[f64], p: f64) -> f64 {
    assert!(!values.is_empty(), "percentile of no samples");
    let mut sorted = values.to_vec();
    sorted.sort_by(f64::total_cmp);
    let rank = p * (sorted.len() - 1) as f64;
    let (lo, hi) = (rank.floor() as usize, rank.ceil() as usize);
    sorted[lo] + (sorted[hi] - sorted[lo]) * (rank - lo as f64)
}

/// Seconds since `t`.
pub fn secs(t: Instant) -> f64 {
    t.elapsed().as_secs_f64()
}

/// Host peak resident set of this process (VmHWM), in MiB.
pub fn peak_rss_mb() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|status| {
            status
                .lines()
                .find_map(|l| l.strip_prefix("VmHWM:"))
                .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        })
        .map_or(f64::NAN, |kib| kib / 1024.0)
}

/// A fresh scratch directory for one run, under `.bench_work/` in the
/// current directory (the checkout). Removed when the run ends.
fn work_dir(args: &Args) -> PathBuf {
    let dir = Path::new(".bench_work").join(format!(
        "{}-{}-{}",
        args.workload.name(),
        args.seed,
        std::process::id()
    ));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).expect("create the benchmark work directory");
    dir
}

pub fn run(args: &Args) -> Outcome {
    let work = work_dir(args);
    let mut outcome = if args.trace {
        let mut tracer = spans::Tracer::new();
        let outcome = layers::traced(args, &work, &mut tracer);
        let path = Path::new(".bench_work").join(format!(
            "spans-{}-seed{}.json",
            args.workload.name(),
            args.seed
        ));
        if let Err(e) = std::fs::write(&path, tracer.to_json()) {
            eprintln!("warning: could not write {}: {e}", path.display());
        }
        outcome
    } else {
        match args.workload {
            Workload::DetailSweep => sweep::timed(&detail_shape(args.smoke), args, &work),
            Workload::SampledSweep => sweep::timed(&sampled_shape(args.smoke), args, &work),
            Workload::ServeJobs => serve::timed(args, &work),
        }
    };
    let _ = std::fs::remove_dir_all(&work);
    let undefined: Vec<String> = outcome
        .metrics
        .iter()
        .filter(|m| !m.value.is_finite())
        .map(|m| m.name.clone())
        .collect();
    for name in undefined {
        eprintln!("perfbench: metric {name} is undefined");
        outcome.op(false);
    }
    outcome
}

fn main() {
    let args = match Args::parse(std::env::args().skip(1)) {
        Ok(args) => args,
        Err(e) => {
            eprintln!("perfbench: {e}");
            eprintln!(
                "usage: perfbench --workload <detail-sweep|sampled-sweep|serve-jobs> \
                 --seed <n> --seconds <s> --trace <0|1> [--smoke]"
            );
            std::process::exit(2);
        }
    };
    let outcome = run(&args);
    println!("{}", outcome.render());
}
