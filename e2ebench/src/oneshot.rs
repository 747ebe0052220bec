//! `oneshot`: the library/CLI job with no daemon, one caller in a closed
//! sequence. Each job parses a pre-serialised METIS body, checks the
//! graph, partitions it (k 16, ε 0.05) and writes the partition as
//! `.part` text to memory. Jobs alternate `threads` 1 and 2 and cycle
//! through eight partitioning seeds: sixteen distinct instances, each
//! run several times in a window.

use crate::check::{parse_partition_text, verify, Measured, Reported};
use crate::decompose;
use crate::inputs::{derive, metis_body, type1_mesh};
use crate::perlayer::PerLayer;
use crate::report::{geomean, mean};
use crate::spans::Recorder;
use crate::{end_to_end, repeated_setup, Args, Op, Outcome, Window};
use mcgp_core::{partition_kway, PartitionConfig};
use mcgp_graph::check::check_graph;
use mcgp_graph::{io, CheckLevel, Graph};
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::time::{Duration, Instant};

const K: usize = 16;
const NCON: usize = 3;
const TOL: f64 = 0.05;
/// Class `c` runs at `threads = 1 + c % 2` with partitioning seed
/// number `c / 2`.
const NCLASSES: usize = 16;

struct Inputs {
    graph: Graph,
    body: Vec<u8>,
}

fn config(seed: u64, class: usize) -> PartitionConfig {
    PartitionConfig {
        seed: derive(seed, 10 + (class / 2) as u64),
        nthreads: 1 + class % 2,
        imbalance_tol: TOL,
        ..PartitionConfig::default()
    }
}

/// The job's output: `.part` text and the quality the library reported.
#[derive(PartialEq)]
struct JobOutput {
    text: Vec<u8>,
    reported: Reported,
}

fn job(
    inputs: &Inputs,
    cfg: &PartitionConfig,
    rec: &mut Recorder,
    trace: u64,
) -> Result<JobOutput, String> {
    let root = rec.begin(trace, None, "job");
    let graph = rec
        .time(trace, Some(root), "io.parse", || {
            io::read_metis(&inputs.body[..])
        })
        .map_err(|e| format!("parse: {e}"))?;
    rec.time(trace, Some(root), "check.validate", || {
        check_graph(&graph, CheckLevel::Cheap)
    })
    .map_err(|e| format!("check: {e}"))?;
    let result = rec.time(trace, Some(root), "partition", || {
        partition_kway(&graph, K, cfg)
    });
    let mut text = Vec::with_capacity(graph.nvtxs() * 3);
    rec.time(trace, Some(root), "io.write", || {
        io::write_partition(result.partition.assignment(), &mut text)
    })
    .map_err(|e| format!("write: {e}"))?;
    rec.end(root);
    Ok(JobOutput {
        text,
        reported: Reported::of(&result.quality),
    })
}

/// Runs jobs for `secs` (and at least one per class). The first output
/// of each class becomes its reference; every later job of the class
/// must reproduce it byte for byte.
fn window(
    inputs: &Inputs,
    seed: u64,
    secs: f64,
    rec: &mut Recorder,
    refs: &mut [Option<JobOutput>],
    first_trace: u64,
) -> Window {
    let start = Instant::now();
    let deadline = start + Duration::from_secs_f64(secs);
    // Percentiles are taken over whole t1/t2 pairs, not whole 16-job
    // patterns: a busy host fits about 30 jobs in a run, and dropping a
    // partial pattern would throw away up to half of them. The partitioning
    // seed moves a job's cost far less than the thread count does.
    let mut w = Window::new(2);
    let mut i = 0usize;
    while i < NCLASSES || Instant::now() < deadline {
        let class = i % NCLASSES;
        let cfg = config(seed, class);
        let t = Instant::now();
        let out = catch_unwind(AssertUnwindSafe(|| {
            job(inputs, &cfg, rec, first_trace + i as u64)
        }));
        let latency_s = t.elapsed().as_secs_f64();
        let ok = match out {
            Ok(Ok(out)) => match &refs[class] {
                None => {
                    refs[class] = Some(out);
                    true
                }
                Some(r) => *r == out,
            },
            _ => false,
        };
        w.ops.push(Op {
            class,
            latency_s,
            ok,
        });
        i += 1;
    }
    w.elapsed_s = start.elapsed().as_secs_f64();
    w
}

pub fn run(args: &Args) -> Result<(Outcome, Recorder), String> {
    let (inputs, setup_s) = repeated_setup(|| {
        let graph = type1_mesh(args.size.mesh_nvtxs(), NCON);
        let body = metis_body(&graph);
        Ok(Inputs { graph, body })
    })?;
    let epoch = Instant::now();
    let mut refs: Vec<Option<JobOutput>> = (0..NCLASSES).map(|_| None).collect();
    let mut rec = Recorder::new(args.trace, epoch);
    let mut untraced = Recorder::new(false, epoch);
    let secs = if args.trace {
        args.seconds / 2.0
    } else {
        args.seconds
    };
    let mut plain = window(&inputs, args.seed, secs, &mut untraced, &mut refs, 0);
    let first_traced = plain.ops.len() as u64;
    let traced = args
        .trace
        .then(|| window(&inputs, args.seed, secs, &mut rec, &mut refs, first_traced));

    // Validate each class's reference against the benchmark's own graph.
    let mut notes = Vec::new();
    let mut measured: Vec<Option<(Measured, Vec<u32>)>> = Vec::new();
    for (class, r) in refs.iter().enumerate() {
        let checked = r
            .as_ref()
            .ok_or("class never ran".to_string())
            .and_then(|r| {
                let a = parse_partition_text(&r.text)?;
                verify(&inputs.graph, &a, K, &r.reported).map(|m| (m, a))
            });
        match checked {
            Ok(v) => measured.push(Some(v)),
            Err(e) => {
                notes.push(format!("class {class} failed its output check: {e}"));
                measured.push(None);
            }
        }
    }
    let mark = |w: &mut Window| {
        for op in &mut w.ops {
            op.ok &= measured[op.class].is_some();
        }
    };
    mark(&mut plain);
    let instances: Vec<Measured> = measured.iter().flatten().map(|(m, _)| *m).collect();

    let mut attempted = plain.ops.len() as u64;
    let mut failed = plain.failed();
    let metrics = match traced {
        None => end_to_end(&setup_s, &plain, &instances, TOL, &mut notes)?,
        Some(mut b) => {
            mark(&mut b);
            // The first seed's t1 and t2 jobs stand for every seed at
            // their thread count.
            let mut layers = Vec::new();
            for (class, m) in measured.iter().enumerate().take(2) {
                let cfg = config(args.seed, class);
                let l =
                    decompose::library(&inputs.graph, K, &cfg, &mut rec, 1 << 40 | class as u64)?;
                if m.as_ref().is_some_and(|(_, a)| *a != l.assignment) {
                    notes.push(format!(
                        "class {class}: decomposition replay differs from the job"
                    ));
                    b.ops
                        .iter_mut()
                        .filter(|o| o.class == class)
                        .for_each(|o| o.ok = false);
                }
                layers.push(l);
            }
            attempted += b.ops.len() as u64;
            failed += b.failed();
            let n = b.ops.len() as f64;
            let mut pl = PerLayer {
                op_mean_s: mean(&b.ok_latencies()),
                io_body_mb: inputs.body.len() as f64 / 1e6,
                io_parse_s: rec.total("io.parse") / n,
                check_validate_s: rec.total("check.validate") / n,
                io_write_s: rec.total("io.write") / n,
                untraced_ops_per_s: plain.throughput(),
                traced_ops_per_s: b.throughput(),
                ..PerLayer::default()
            };
            let mut weights = [0.0; 2];
            for (class, w) in b.class_weights(NCLASSES).into_iter().enumerate() {
                weights[class % 2] += w;
            }
            let weighted: Vec<(f64, &decompose::Layers)> =
                weights.iter().copied().zip(layers.iter()).collect();
            pl.add_layers(&weighted);

            // t1 vs t2 on the same instances.
            let t1: Vec<f64> = (0..NCLASSES).step_by(2).map(|c| b.class_mean(c)).collect();
            let t2: Vec<f64> = (1..NCLASSES).step_by(2).map(|c| b.class_mean(c)).collect();
            pl.smp_t1_s = mean(&t1);
            pl.smp_t2_s = mean(&t2);
            let cuts = |first: usize| {
                let of = |c: usize| measured[c].as_ref().map(|(m, _)| m.edge_cut as f64);
                geomean(
                    &(first..NCLASSES)
                        .step_by(2)
                        .filter_map(of)
                        .collect::<Vec<_>>(),
                )
            };
            pl.smp_t1_cut = cuts(0);
            pl.smp_t2_cut = cuts(1);
            pl.metrics()
        }
    };
    Ok((
        Outcome {
            attempted,
            failed,
            metrics,
            notes,
        },
        rec,
    ))
}
