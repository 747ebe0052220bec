//! `paper-grid`: the paper's cells, Type 1 and Type 2 weights × ncon
//! {3, 5} × k {16, 64} on one mesh, each through the serial multilevel
//! k-way partitioner and through the simulated-BSP parallel formulation on 8
//! processors. One caller, in-process. A pass runs the 16 (cell, path)
//! runs in an order drawn from the workload seed; passes cycle through
//! two fixed partitioning seeds, so the run holds 32 distinct instances
//! and every later pass repeats one of them.
//!
//! The partitioning seeds are fixed, not drawn from the workload seed:
//! the slowest cells set the p90, their cost moves by 10 % and more from
//! seed to seed, and which cells end up within the 1.0505 cap moves the
//! feasible share by a cell or two.

use crate::check::{verify, Measured, Reported};
use crate::decompose::{self, Layers};
use crate::inputs::{derive, mesh, rng, INSTANCE_SEED};
use crate::perlayer::PerLayer;
use crate::report::{geomean, mean};
use crate::spans::Recorder;
use crate::{end_to_end, repeated_setup, Args, Op, Outcome, Window};
use mcgp_core::{partition_kway, PartitionConfig};
use mcgp_graph::synthetic::{synthesize, ProblemType};
use mcgp_graph::Graph;
use mcgp_parallel::{parallel_partition_kway, ParallelConfig, RunStats};
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::time::{Duration, Instant};

const PROBLEMS: [(ProblemType, usize); 4] = [
    (ProblemType::Type1, 3),
    (ProblemType::Type1, 5),
    (ProblemType::Type2, 3),
    (ProblemType::Type2, 5),
];
const KS: [usize; 2] = [16, 64];
const NPROCS: usize = 8;
const TOL: f64 = 0.05;
/// (cell, path) runs per pass.
const NRUNS: usize = 2 * PROBLEMS.len() * KS.len();
/// Partitioning seeds the passes cycle through.
const NSEEDS: usize = 2;
const NINSTANCES: usize = NRUNS * NSEEDS;

/// Instance `j`: run `r = j % NRUNS` with seed number `j / NRUNS`. Run
/// `r` is cell `r / 2` (problem `cell / 2`, k `KS[cell % 2]`) through
/// the serial partitioner when `r` is even, BSP when odd. Returns (problem, k,
/// bsp, seed number).
fn cell(j: usize) -> (usize, usize, bool, usize) {
    let r = j % NRUNS;
    let c = r / 2;
    (c / KS.len(), KS[c % KS.len()], r % 2 == 1, j / NRUNS)
}

struct Output {
    assignment: Vec<u32>,
    reported: Reported,
    bsp: Option<RunStats>,
}

fn solve(graphs: &[Graph], j: usize) -> Output {
    let (p, k, bsp, s) = cell(j);
    let g = &graphs[p];
    if bsp {
        let cfg = ParallelConfig::new(NPROCS).with_seed(serial_config(s).seed);
        let r = parallel_partition_kway(g, k, &cfg);
        Output {
            reported: Reported::of(&r.quality),
            assignment: r.partition.into_assignment(),
            bsp: Some(r.stats),
        }
    } else {
        let r = partition_kway(g, k, &serial_config(s));
        Output {
            reported: Reported::of(&r.quality),
            assignment: r.partition.into_assignment(),
            bsp: None,
        }
    }
}

fn serial_config(seed_number: usize) -> PartitionConfig {
    PartitionConfig {
        seed: derive(INSTANCE_SEED, 30 + seed_number as u64),
        imbalance_tol: TOL,
        ..PartitionConfig::default()
    }
}

/// Runs cells for `secs`, and at least until every instance has run
/// once. The first output of an instance is its reference; repeats must
/// reproduce the assignment and the report exactly.
fn window(
    graphs: &[Graph],
    order: &[usize],
    secs: f64,
    rec: &mut Recorder,
    refs: &mut [Option<Output>],
    first_trace: u64,
) -> Window {
    let start = Instant::now();
    let deadline = start + Duration::from_secs_f64(secs);
    let mut w = Window::new(NRUNS);
    let mut i = 0usize;
    while refs.iter().any(Option::is_none) || Instant::now() < deadline {
        let j = order[i % NRUNS] + NRUNS * (i / NRUNS % NSEEDS);
        let name = if cell(j).2 { "bsp.run" } else { "serial.run" };
        let t = Instant::now();
        let out = rec.time(first_trace + i as u64, None, name, || {
            catch_unwind(AssertUnwindSafe(|| solve(graphs, j)))
        });
        let latency_s = t.elapsed().as_secs_f64();
        let ok = match out {
            Ok(out) => match &refs[j] {
                None => {
                    refs[j] = Some(out);
                    true
                }
                Some(r) => r.assignment == out.assignment && r.reported == out.reported,
            },
            Err(_) => false,
        };
        w.ops.push(Op {
            class: j,
            latency_s,
            ok,
        });
        i += 1;
    }
    w.elapsed_s = start.elapsed().as_secs_f64();
    w
}

pub fn run(args: &Args) -> Result<(Outcome, Recorder), String> {
    let (graphs, setup_s) = repeated_setup(|| {
        let base = mesh(args.size.grid_nvtxs());
        Ok(PROBLEMS
            .iter()
            .map(|&(problem, ncon)| synthesize(&base, problem, ncon, INSTANCE_SEED))
            .collect::<Vec<Graph>>())
    })?;
    let mut order: Vec<usize> = (0..NRUNS).collect();
    rng(args.seed, 31).shuffle(&mut order);

    let epoch = Instant::now();
    let mut refs: Vec<Option<Output>> = (0..NINSTANCES).map(|_| None).collect();
    let mut rec = Recorder::new(args.trace, epoch);
    let mut quiet = Recorder::new(false, epoch);
    let secs = if args.trace {
        args.seconds / 2.0
    } else {
        args.seconds
    };
    let mut plain = window(&graphs, &order, secs, &mut quiet, &mut refs, 0);

    let mut notes = Vec::new();
    let measured: Vec<Option<Measured>> = refs
        .iter()
        .enumerate()
        .map(|(j, r)| {
            let r = r.as_ref().expect("every instance ran");
            let (p, k, _, _) = cell(j);
            verify(&graphs[p], &r.assignment, k, &r.reported)
                .map_err(|e| notes.push(format!("instance {j} failed its output check: {e}")))
                .ok()
        })
        .collect();
    for op in &mut plain.ops {
        op.ok &= measured[op.class].is_some();
    }
    let instances: Vec<Measured> = measured.iter().flatten().copied().collect();

    let mut attempted = plain.ops.len() as u64;
    let mut failed = plain.failed();
    let metrics = if !args.trace {
        end_to_end(&setup_s, &plain, &instances, TOL, &mut notes)?
    } else {
        let mut b = window(
            &graphs,
            &order,
            secs,
            &mut rec,
            &mut refs,
            plain.ops.len() as u64,
        );
        for op in &mut b.ops {
            op.ok &= measured[op.class].is_some();
        }
        // Decompose each serial run at the first seed, standing for its
        // run at every seed; a BSP run is one layer.
        let mut layers: Vec<(usize, Layers)> = Vec::new();
        for j in (0..NRUNS).filter(|&j| !cell(j).2) {
            let (p, k, _, s) = cell(j);
            let l = decompose::library(
                &graphs[p],
                k,
                &serial_config(s),
                &mut rec,
                1 << 40 | j as u64,
            )?;
            if refs[j]
                .as_ref()
                .is_some_and(|r| r.assignment != l.assignment)
            {
                notes.push(format!(
                    "instance {j}: decomposition replay differs from the run"
                ));
                b.ops
                    .iter_mut()
                    .filter(|o| o.class == j)
                    .for_each(|o| o.ok = false);
            }
            layers.push((j, l));
        }
        attempted += b.ops.len() as u64;
        failed += b.failed();
        let mut weights = [0.0; NRUNS];
        for (j, w) in b.class_weights(NINSTANCES).into_iter().enumerate() {
            weights[j % NRUNS] += w;
        }
        let n = b.ops.iter().filter(|o| o.ok).count().max(1) as f64;
        let stats: Vec<&RunStats> = refs
            .iter()
            .flatten()
            .filter_map(|r| r.bsp.as_ref())
            .collect();
        let cuts = |bsp: bool| {
            geomean(
                &(0..NINSTANCES)
                    .filter(|&j| cell(j).2 == bsp)
                    .filter_map(|j| measured[j].map(|m| m.edge_cut as f64))
                    .collect::<Vec<_>>(),
            )
        };
        let ok_bsp: f64 = b
            .ops
            .iter()
            .filter(|o| o.ok && cell(o.class).2)
            .map(|o| o.latency_s)
            .sum();
        let mut pl = PerLayer {
            op_mean_s: mean(&b.ok_latencies()),
            bsp_wall_s: ok_bsp / n,
            bsp_modeled_s: mean(&stats.iter().map(|s| s.modeled_time_s).collect::<Vec<_>>()),
            bsp_supersteps: mean(
                &stats
                    .iter()
                    .map(|s| s.supersteps as f64)
                    .collect::<Vec<_>>(),
            ),
            bsp_comm_bytes: mean(
                &stats
                    .iter()
                    .map(|s| s.comm_bytes as f64)
                    .collect::<Vec<_>>(),
            ),
            bsp_serial_cut: cuts(false),
            bsp_cut: cuts(true),
            untraced_ops_per_s: plain.throughput(),
            traced_ops_per_s: b.throughput(),
            ..PerLayer::default()
        };
        let weighted: Vec<(f64, &Layers)> = layers.iter().map(|(j, l)| (weights[*j], l)).collect();
        pl.add_layers(&weighted);
        pl.metrics()
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
