//! The decomposition pass of a traced run: one operation replayed
//! in-process, uncontended, as a sequence of timed calls into the public
//! functions of each layer.
//!
//! The replay is exact. Coarsening runs through the same public matching
//! and contraction calls `partition_kway` makes, and the result is checked
//! against the library's own hierarchy. Initial partitioning restarts from
//! the RNG state [`HierarchySnapshot::rng_boundary_states`] recorded at the
//! coarsest level in use. A served replay rebuilds the response body with
//! the protocol's line builders, and the caller compares it byte for byte
//! with what the daemon sent.

use crate::spans::{Recorder, SpanId};
use mcgp_core::coarsen::{coarsen, contract_with_scratch, ContractionScratch};
use mcgp_core::coarsen_smp::{contract_smp, match_smp, SmpCoarsenScratch, SMP_MIN_NVTXS};
use mcgp_core::matching::match_graph;
use mcgp_core::rb::recursive_bisection_assignment;
use mcgp_core::{HierarchySnapshot, PartitionConfig};
use mcgp_graph::check::check_graph;
use mcgp_graph::{io, max_imbalance, CheckLevel, Graph, Partition};
use mcgp_runtime::Rng;
use mcgp_serve::protocol::{done_line, meta_line, part_line, PartitionParams, PART_CHUNK};
use mcgp_serve::{fingerprint, GraphFormat};
use std::time::Instant;

/// Uncontended seconds per layer for one operation, plus the counts the
/// layers return.
#[derive(Clone, Debug, Default)]
pub struct Layers {
    pub fingerprint: f64,
    pub parse: f64,
    pub check: f64,
    pub coarsen: f64,
    pub match_s: f64,
    pub contract_s: f64,
    pub initial: f64,
    pub replay: f64,
    pub serialize: f64,
    /// Levels the partition used.
    pub levels: usize,
    /// Vertices of the graph initial partitioning ran on.
    pub coarsest_nvtxs: usize,
    /// Worst constraint of the initial partition on that graph.
    pub initial_imbalance: f64,
    /// The replayed assignment, for comparison with the operation's.
    pub assignment: Vec<u32>,
    /// The rebuilt response body (served replays only).
    pub body: Vec<u8>,
}

impl Layers {
    /// Projection and refinement: the replay minus initial partitioning.
    pub fn uncoarsen(&self) -> f64 {
        self.replay - self.initial
    }
}

/// Replays the coarsening loop of `partition_kway` through the public matching
/// and contraction calls, timing each. Returns (levels, coarsest nvtxs).
fn replica_coarsen(
    graph: &Graph,
    target: usize,
    config: &PartitionConfig,
    rec: &mut Recorder,
    trace: u64,
    parent: SpanId,
) -> (usize, usize) {
    const MAX_LEVELS: usize = 64;
    let mut rng = Rng::seed_from_u64(config.seed);
    let mut levels: Vec<Graph> = Vec::new();
    let mut scratch = ContractionScratch::with_check(config.check);
    let mut smp_scratch = SmpCoarsenScratch::new();
    loop {
        let cur = levels.last().unwrap_or(graph);
        if cur.nvtxs() <= target || levels.len() >= MAX_LEVELS {
            break;
        }
        let smp = config.nthreads > 1 && cur.nvtxs() >= SMP_MIN_NVTXS;
        let matching = rec.time(trace, Some(parent), "coarsen.match", || {
            if smp {
                match_smp(cur, config.matching, config.nthreads, rng.next_u64())
            } else {
                match_graph(cur, config.matching, &mut rng)
            }
        });
        if matching.coarse_nvtxs as f64 > 0.95 * cur.nvtxs() as f64 {
            break;
        }
        let (coarse, _cmap) = rec.time(trace, Some(parent), "coarsen.contract", || {
            if smp {
                contract_smp(cur, &matching, config.nthreads, &mut smp_scratch)
            } else {
                contract_with_scratch(cur, &matching, &mut scratch)
            }
        });
        levels.push(coarse);
    }
    let coarsest = levels.last().map_or(graph.nvtxs(), Graph::nvtxs);
    (levels.len(), coarsest)
}

fn initial_on(
    coarsest: &Graph,
    k: usize,
    config: &PartitionConfig,
    mut rng: Rng,
    rec: &mut Recorder,
    trace: u64,
    root: SpanId,
) -> f64 {
    let a = rec.time(trace, Some(root), "initial", || {
        recursive_bisection_assignment(coarsest, k, config, &mut rng)
    });
    let p = Partition::new(k, a).expect("recursive bisection assigns parts below k");
    max_imbalance(coarsest, &p)
}

fn fill(rec: &Recorder, trace: u64, layers: &mut Layers) {
    layers.fingerprint = rec.secs(trace, "cache.fingerprint");
    layers.parse = rec.secs(trace, "io.parse");
    layers.check = rec.secs(trace, "check.validate");
    layers.coarsen = rec.secs(trace, "coarsen");
    layers.match_s = rec.secs(trace, "coarsen.match");
    layers.contract_s = rec.secs(trace, "coarsen.contract");
    layers.initial = rec.secs(trace, "initial");
    layers.replay = rec.secs(trace, "replay");
    layers.serialize = rec.secs(trace, "protocol.serialize");
}

/// Replays twice and keeps the second pass: the first warms the
/// allocator and caches, as the program under load runs warm.
fn warm_then_measure(
    rec: &mut Recorder,
    mut replay: impl FnMut(&mut Recorder) -> Result<Layers, String>,
) -> Result<Layers, String> {
    replay(&mut Recorder::new(true, Instant::now()))?;
    replay(rec)
}

/// The library path of `partition_kway` (one-shot jobs, serial grid
/// cells): coarsen to the `k` target, recursive bisection, uncoarsening.
pub fn library(
    graph: &Graph,
    k: usize,
    config: &PartitionConfig,
    rec: &mut Recorder,
    trace: u64,
) -> Result<Layers, String> {
    warm_then_measure(rec, |r| library_once(graph, k, config, r, trace))
}

fn library_once(
    graph: &Graph,
    k: usize,
    config: &PartitionConfig,
    rec: &mut Recorder,
    trace: u64,
) -> Result<Layers, String> {
    let root = rec.begin(trace, None, "decompose");
    let target = config.coarsen_target(k);
    let mut rng = Rng::seed_from_u64(config.seed);
    let hierarchy = rec.time(trace, Some(root), "coarsen", || {
        coarsen(graph, target, config, &mut rng)
    });
    let replica_root = rec.begin(trace, Some(root), "coarsen.replica");
    let replica = replica_coarsen(graph, target, config, rec, trace, replica_root);
    rec.end(replica_root);
    let coarsest = hierarchy.coarsest().unwrap_or(graph);
    if replica != (hierarchy.nlevels(), coarsest.nvtxs()) {
        return Err(format!(
            "coarsening replica gave (levels, coarsest) {replica:?}, the library ({}, {})",
            hierarchy.nlevels(),
            coarsest.nvtxs()
        ));
    }
    let initial_imbalance = initial_on(coarsest, k, config, rng, rec, trace, root);
    let snapshot = HierarchySnapshot::build(graph, config);
    let result = rec.time(trace, Some(root), "replay", || {
        snapshot.partition(graph, k, config)
    });
    rec.end(root);
    let mut layers = Layers {
        levels: hierarchy.nlevels(),
        coarsest_nvtxs: coarsest.nvtxs(),
        initial_imbalance,
        assignment: result.partition.into_assignment(),
        ..Layers::default()
    };
    fill(rec, trace, &mut layers);
    Ok(layers)
}

/// One `/partition` request as the daemon serves it with default
/// settings (unpinned threads = 1, ε 0.05). `cold` adds the miss path:
/// parse, check and the deep coarsening the cache stores.
pub fn served(
    body: &[u8],
    k: usize,
    seed: u64,
    cold: bool,
    rec: &mut Recorder,
    trace: u64,
) -> Result<Layers, String> {
    warm_then_measure(rec, |r| served_once(body, k, seed, cold, r, trace))
}

fn served_once(
    body: &[u8],
    k: usize,
    seed: u64,
    cold: bool,
    rec: &mut Recorder,
    trace: u64,
) -> Result<Layers, String> {
    let config = PartitionConfig {
        seed,
        ..PartitionConfig::default()
    };
    let root = rec.begin(trace, None, "decompose");
    let fp = rec.time(trace, Some(root), "cache.fingerprint", || {
        fingerprint(GraphFormat::Metis, body, seed, config.nthreads)
    });
    let (graph, snapshot) = if cold {
        let graph = rec
            .time(trace, Some(root), "io.parse", || io::read_metis(body))
            .map_err(|e| format!("parse: {e}"))?;
        rec.time(trace, Some(root), "check.validate", || {
            check_graph(&graph, CheckLevel::Cheap)
        })
        .map_err(|e| format!("check: {e}"))?;
        let snapshot = rec.time(trace, Some(root), "coarsen", || {
            HierarchySnapshot::build(&graph, &config)
        });
        let replica_root = rec.begin(trace, Some(root), "coarsen.replica");
        let replica = replica_coarsen(
            &graph,
            config.coarsen_to_min,
            &config,
            rec,
            trace,
            replica_root,
        );
        rec.end(replica_root);
        let deep = snapshot
            .levels()
            .last()
            .map_or(graph.nvtxs(), |l| l.graph.nvtxs());
        if replica != (snapshot.nlevels(), deep) {
            return Err(format!(
                "coarsening replica gave (levels, coarsest) {replica:?}, the snapshot ({}, {deep})",
                snapshot.nlevels()
            ));
        }
        (graph, snapshot)
    } else {
        // A hit finds both in the cache; building them here is not part
        // of the request.
        let graph = io::read_metis(body).map_err(|e| format!("parse: {e}"))?;
        let snapshot = HierarchySnapshot::build(&graph, &config);
        (graph, snapshot)
    };

    // The prefix of the deep hierarchy a k-way request uses, and the RNG
    // state a cold run would hold there.
    let target = config.coarsen_target(k);
    let input_nvtxs = |i: usize| {
        if i == 0 {
            graph.nvtxs()
        } else {
            snapshot.levels()[i - 1].graph.nvtxs()
        }
    };
    let prefix = (0..=snapshot.nlevels())
        .find(|&i| input_nvtxs(i) <= target)
        .unwrap_or(snapshot.nlevels());
    let rng = if input_nvtxs(prefix) <= target {
        snapshot.rng_boundary_states()[prefix].clone()
    } else {
        snapshot.rng_final().clone()
    };
    let coarsest = if prefix == 0 {
        &graph
    } else {
        &snapshot.levels()[prefix - 1].graph
    };
    let initial_imbalance = initial_on(coarsest, k, &config, rng, rec, trace, root);
    let result = rec.time(trace, Some(root), "replay", || {
        snapshot.partition(&graph, k, &config)
    });
    if result.coarsen_levels != prefix {
        return Err(format!(
            "replay used {} levels, the decomposition {prefix}",
            result.coarsen_levels
        ));
    }
    let params = PartitionParams {
        nparts: k,
        tol: config.imbalance_tol,
        seed,
        nthreads: config.nthreads,
    };
    let rebuilt = rec.time(trace, Some(root), "protocol.serialize", || {
        let assignment = result.partition.assignment();
        let mut out = meta_line(
            fp,
            &params,
            graph.nvtxs(),
            graph.adjacency_len() / 2,
            graph.ncon(),
            result.coarsen_levels,
        );
        out.push('\n');
        for (i, chunk) in assignment.chunks(PART_CHUNK).enumerate() {
            out.push_str(&part_line(i * PART_CHUNK, chunk));
            out.push('\n');
        }
        out.push_str(&done_line(&result.quality));
        out.push('\n');
        out
    });
    rec.end(root);
    let mut layers = Layers {
        levels: prefix,
        coarsest_nvtxs: coarsest.nvtxs(),
        initial_imbalance,
        assignment: result.partition.into_assignment(),
        body: rebuilt.into_bytes(),
        ..Layers::default()
    };
    fill(rec, trace, &mut layers);
    Ok(layers)
}
