//! End-to-end benchmark of the mcgp partitioner and its daemon.
//!
//! ```text
//! cargo run --release --offline --manifest-path e2ebench/Cargo.toml -- \
//!     --workload <oneshot|serve-cold|serve-warm|paper-grid> --seed N --seconds S --trace <0|1>
//! ```
//!
//! `--trace 0` prints every end-to-end metric; `--trace 1` prints every
//! per-layer metric and writes the spans to `.bench_trace/`. The last
//! stdout line is one JSON object: `correct`, `attempted`, `failed`,
//! `metrics`. See README.md for the workloads and metric definitions.

mod check;
mod decompose;
mod grid;
mod inputs;
mod oneshot;
mod perlayer;
mod report;
mod serve;
mod spans;

use check::Measured;
use inputs::Size;
use report::{geomean, metric, quantile, tail_quantile, Metric};
use std::time::Instant;

/// Set-up repetitions per run; `setup_s` is their median.
const SETUP_REPS: usize = 3;

#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Workload {
    Oneshot,
    ServeCold,
    ServeWarm,
    PaperGrid,
}

impl Workload {
    const ALL: [Workload; 4] = [
        Workload::Oneshot,
        Workload::ServeCold,
        Workload::ServeWarm,
        Workload::PaperGrid,
    ];

    pub fn name(self) -> &'static str {
        match self {
            Workload::Oneshot => "oneshot",
            Workload::ServeCold => "serve-cold",
            Workload::ServeWarm => "serve-warm",
            Workload::PaperGrid => "paper-grid",
        }
    }
}

#[derive(Clone, Debug)]
pub struct Args {
    pub workload: Workload,
    pub seed: u64,
    pub seconds: f64,
    pub trace: bool,
    pub size: Size,
}

fn parse_args(argv: &[String]) -> Result<Args, String> {
    let mut workload = None;
    let mut seed = None;
    let mut seconds = None;
    let mut trace = false;
    let mut size = Size::Full;
    let mut it = argv.iter();
    while let Some(flag) = it.next() {
        let mut value = || {
            it.next()
                .ok_or_else(|| format!("{flag} needs a value"))
                .cloned()
        };
        match flag.as_str() {
            "--workload" => {
                let v = value()?;
                workload = Some(
                    Workload::ALL
                        .into_iter()
                        .find(|w| w.name() == v)
                        .ok_or_else(|| format!("unknown workload {v:?}"))?,
                );
            }
            "--seed" => {
                seed = Some(
                    value()?
                        .parse::<u64>()
                        .map_err(|e| format!("--seed: {e}"))?,
                )
            }
            "--seconds" => {
                let s = value()?
                    .parse::<f64>()
                    .map_err(|e| format!("--seconds: {e}"))?;
                if !(s.is_finite() && s > 0.0) {
                    return Err("--seconds must be positive".into());
                }
                seconds = Some(s);
            }
            "--trace" => {
                trace = match value()?.as_str() {
                    "0" => false,
                    "1" => true,
                    other => return Err(format!("--trace takes 0 or 1, not {other:?}")),
                }
            }
            "--size" => {
                size = match value()?.as_str() {
                    "full" => Size::Full,
                    "tiny" => Size::Tiny,
                    other => return Err(format!("--size takes full or tiny, not {other:?}")),
                }
            }
            other => return Err(format!("unknown argument {other:?}")),
        }
    }
    Ok(Args {
        workload: workload.ok_or("--workload is required")?,
        seed: seed.ok_or("--seed is required")?,
        seconds: seconds.ok_or("--seconds is required")?,
        trace,
        size,
    })
}

/// One operation: its request class, caller-side latency, and whether
/// it succeeded and passed every output check.
#[derive(Clone, Debug)]
pub struct Op {
    pub class: usize,
    pub latency_s: f64,
    pub ok: bool,
}

/// The operations of one closed-loop measurement window, in request
/// order.
#[derive(Clone, Debug, Default)]
pub struct Window {
    pub ops: Vec<Op>,
    pub elapsed_s: f64,
    /// Length of the repeating request pattern. Percentiles are taken
    /// over whole repetitions, so every class weighs in at its fixed
    /// share; a partial last repetition would shift a percentile that
    /// falls between two classes.
    pub cycle: usize,
}

impl Window {
    pub fn new(cycle: usize) -> Window {
        Window {
            cycle,
            ..Window::default()
        }
    }

    /// Successful latencies of the whole pattern repetitions.
    pub fn cycle_latencies(&self) -> Vec<f64> {
        let n = self.ops.len();
        let whole = if self.cycle > 0 && n >= self.cycle {
            n / self.cycle * self.cycle
        } else {
            n
        };
        self.ops[..whole]
            .iter()
            .filter(|o| o.ok)
            .map(|o| o.latency_s)
            .collect()
    }

    pub fn failed(&self) -> u64 {
        self.ops.iter().filter(|o| !o.ok).count() as u64
    }

    pub fn ok_latencies(&self) -> Vec<f64> {
        self.ops
            .iter()
            .filter(|o| o.ok)
            .map(|o| o.latency_s)
            .collect()
    }

    /// Successful operations per second of window.
    pub fn throughput(&self) -> f64 {
        self.ok_latencies().len() as f64 / self.elapsed_s
    }

    /// Share of this window's successful operations in each class.
    pub fn class_weights(&self, nclasses: usize) -> Vec<f64> {
        let ok = self.ops.iter().filter(|o| o.ok).count() as f64;
        let mut w = vec![0.0; nclasses];
        for op in self.ops.iter().filter(|o| o.ok) {
            w[op.class] += 1.0 / ok;
        }
        w
    }

    /// Mean latency of the successful operations of `class`.
    pub fn class_mean(&self, class: usize) -> f64 {
        report::mean(
            &self
                .ops
                .iter()
                .filter(|o| o.ok && o.class == class)
                .map(|o| o.latency_s)
                .collect::<Vec<_>>(),
        )
    }
}

/// What one run of a workload produced.
pub struct Outcome {
    pub attempted: u64,
    pub failed: u64,
    pub metrics: Vec<Metric>,
    /// Human-readable remarks printed before the result line.
    pub notes: Vec<String>,
}

/// Runs `setup` [`SETUP_REPS`] times and keeps the last result; earlier
/// results are dropped before the next repetition starts.
pub fn repeated_setup<T>(
    mut setup: impl FnMut() -> Result<T, String>,
) -> Result<(T, Vec<f64>), String> {
    let mut times = Vec::with_capacity(SETUP_REPS);
    let mut kept = None;
    for _ in 0..SETUP_REPS {
        drop(kept.take());
        let t = Instant::now();
        kept = Some(setup()?);
        times.push(t.elapsed().as_secs_f64());
    }
    Ok((kept.expect("SETUP_REPS > 0"), times))
}

/// Slack on `1 + ε` before a partition counts as infeasible: half a unit
/// in the third decimal, the rule ROADMAP item 2 counts violating cells
/// by (imbalance above 1.0505 at ε 0.05).
const FEASIBLE_SLACK: f64 = 0.0005;

/// The end-to-end metrics of a window over the workload's distinct
/// instances (`tol` is the balance tolerance every instance asked for).
pub fn end_to_end(
    setup_s: &[f64],
    window: &Window,
    instances: &[Measured],
    tol: f64,
    notes: &mut Vec<String>,
) -> Result<Vec<Metric>, String> {
    let lat = window.cycle_latencies();
    if lat.is_empty() {
        return Err("no operation succeeded".into());
    }
    if instances.is_empty() {
        return Err("no instance passed its output check".into());
    }
    notes.push(format!(
        "latency percentiles over {} samples, {} beyond p90{}",
        lat.len(),
        report::samples_beyond(lat.len(), 0.9),
        if tail_quantile(&lat, 0.9).is_none() {
            ": fewer than the ten the percentile rule asks for"
        } else {
            ""
        }
    ));
    let cuts: Vec<f64> = instances.iter().map(|m| m.edge_cut as f64).collect();
    let feasible = instances
        .iter()
        .filter(|m| m.max_imbalance <= 1.0 + tol + FEASIBLE_SLACK)
        .count();
    let attempted = window.ops.len() as f64;
    Ok(vec![
        metric("setup_s", report::median(setup_s), "s"),
        metric("latency_p50_s", quantile(&lat, 0.5), "s"),
        metric("latency_p90_s", quantile(&lat, 0.9), "s"),
        metric("throughput_ops", window.throughput(), "1/s"),
        metric("ok_frac", 1.0 - window.failed() as f64 / attempted, "ratio"),
        metric("edge_cut", geomean(&cuts), "weight"),
        metric(
            "max_imbalance",
            instances
                .iter()
                .map(|m| m.max_imbalance)
                .fold(1.0, f64::max),
            "ratio",
        ),
        metric(
            "feasible_frac",
            feasible as f64 / instances.len() as f64,
            "ratio",
        ),
        metric("peak_rss_mb", report::peak_rss_mb()?, "MiB"),
    ])
}

fn run(args: &Args) -> Result<(Outcome, spans::Recorder), String> {
    match args.workload {
        Workload::Oneshot => oneshot::run(args),
        Workload::ServeCold | Workload::ServeWarm => serve::run(args),
        Workload::PaperGrid => grid::run(args),
    }
}

fn main() {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let args = match parse_args(&argv) {
        Ok(a) => a,
        Err(e) => {
            eprintln!("e2ebench: {e}");
            std::process::exit(2);
        }
    };
    let nproc = std::thread::available_parallelism().map_or(1, |n| n.get());
    let tag = format!("{} seed={}", args.workload.name(), args.seed);
    println!(
        "# e2ebench workload={} seed={} seconds={} trace={} size={:?} nproc={nproc}",
        args.workload.name(),
        args.seed,
        args.seconds,
        u8::from(args.trace),
        args.size,
    );
    let (outcome, spans) = match run(&args) {
        Ok(v) => v,
        Err(e) => {
            eprintln!("e2ebench: {tag}: {e}");
            std::process::exit(1);
        }
    };
    if args.trace {
        let dir = std::path::Path::new(".bench_trace");
        let path = dir.join(format!("{}-seed{}.jsonl", args.workload.name(), args.seed));
        if let Err(e) =
            std::fs::create_dir_all(dir).and_then(|_| std::fs::write(&path, spans.to_jsonl()))
        {
            eprintln!("e2ebench: {tag}: cannot write {}: {e}", path.display());
            std::process::exit(1);
        }
        println!("{tag} spans {} -> {}", spans.spans().len(), path.display());
    }
    for note in &outcome.notes {
        println!("{tag} note: {note}");
    }
    for m in &outcome.metrics {
        assert!(report::valid_name(m.name), "metric name {:?}", m.name);
        println!("{tag} {} {} {}", m.name, m.value, m.unit);
        if !m.value.is_finite() {
            eprintln!("e2ebench: {tag}: {} is not a finite number", m.name);
            std::process::exit(1);
        }
    }
    println!(
        "{}",
        report::result_line(outcome.attempted, outcome.failed, &outcome.metrics)
    );
}

#[cfg(test)]
mod tests {
    use super::*;

    fn op(class: usize, latency_s: f64) -> Op {
        Op {
            class,
            latency_s,
            ok: true,
        }
    }

    #[test]
    fn percentiles_use_whole_pattern_repetitions() {
        let mut w = Window::new(3);
        w.ops = vec![op(0, 1.0), op(1, 2.0), op(2, 3.0), op(0, 1.0), op(1, 2.0)];
        assert_eq!(w.cycle_latencies(), vec![1.0, 2.0, 3.0]);
        w.ops.truncate(2);
        assert_eq!(w.cycle_latencies(), vec![1.0, 2.0]);
    }

    #[test]
    fn class_weights_count_successful_ops() {
        let mut w = Window::new(2);
        w.ops = vec![op(0, 1.0), op(1, 1.0), op(1, 1.0)];
        w.ops[2].ok = false;
        assert_eq!(w.class_weights(2), vec![0.5, 0.5]);
        assert_eq!(w.failed(), 1);
    }

    #[test]
    fn arguments_parse_and_reject_garbage() {
        let argv = |s: &str| s.split(' ').map(String::from).collect::<Vec<_>>();
        let a = parse_args(&argv(
            "--workload serve-warm --seed 9 --seconds 10 --trace 1",
        ))
        .unwrap();
        assert_eq!(a.workload, Workload::ServeWarm);
        assert_eq!(
            (a.seed, a.seconds, a.trace, a.size),
            (9, 10.0, true, Size::Full)
        );
        assert!(parse_args(&argv("--workload nope --seed 1 --seconds 1")).is_err());
        assert!(parse_args(&argv("--workload oneshot --seed 1 --seconds 0")).is_err());
        assert!(parse_args(&argv("--workload oneshot --seed 1 --seconds 1 --trace 2")).is_err());
        assert!(parse_args(&argv("--workload oneshot --seconds 1")).is_err());
    }
}
