//! The full parallel multilevel multi-constraint k-way driver.

use crate::coarsen_par::{parallel_contract, DistLevel};
use crate::cost::{CostModel, CostTracker, RunStats};
use crate::dist::DistGraph;
use crate::initial_par::parallel_initial_partition;
use crate::match_par::parallel_match;
use crate::refine_par::{parallel_balance, reservation_refine, ParRefineStats};
use crate::slice_refine::slice_refine;
use mcgp_core::balance::BalanceModel;
use mcgp_core::config::PartitionConfig;
use mcgp_graph::check as gcheck;
use mcgp_graph::{CheckLevel, Graph, McgpError, Partition, PartitionQuality};

/// Which parallel refinement scheme to run during uncoarsening.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum RefinerKind {
    /// The paper's reservation scheme (propose → reduce → randomised
    /// disallow → commit). Default.
    Reservation,
    /// The rejected slice-allocation scheme (extra space ÷ p), kept for the
    /// ablation of experiment A1.
    Slice,
}

/// Configuration of the parallel partitioner.
#[derive(Clone, Debug)]
pub struct ParallelConfig {
    /// Number of logical processors simulated.
    pub nprocs: usize,
    /// Serial sub-configuration (tolerance, matching scheme, seeds) shared
    /// with the coarsest-graph initial partitioning.
    pub serial: PartitionConfig,
    /// Parity-alternating matching rounds per coarsening level.
    pub match_rounds: usize,
    /// Refinement iterations per uncoarsening level (paper: upper-bounded).
    pub refine_iters: usize,
    /// Refinement scheme.
    pub refiner: RefinerKind,
    /// Coarsest-graph size per part for the parallel driver. Larger than
    /// the serial default: the initial partitioning *must* come out
    /// balanced (the paper: an initial partitioning more than ~20 %
    /// imbalanced is unlikely to be repaired by multilevel refinement), and
    /// with many constraints that requires finer vertex granularity at the
    /// coarsest level.
    pub coarsen_to_per_part: usize,
    /// Cost-model constants for the modeled times.
    pub cost: CostModel,
    /// How many of the `p` replicated initial-partitioning runs to actually
    /// execute on the host (they are concurrent on the modeled machine).
    pub init_runs_executed: usize,
    /// Graph folding threshold: when a coarse graph drops below this many
    /// vertices per active processor, it is redistributed onto fewer
    /// processors (as in ParMETIS). Folding keeps coarse-level refinement
    /// effective — with a handful of vertices per processor, almost every
    /// move conflicts and the reservation scheme disallows nearly
    /// everything. Set to 0 to disable.
    pub fold_threshold: usize,
    /// Invariant validation at every pipeline seam, mirroring
    /// `PartitionConfig::check` in the serial driver. `Full` additionally
    /// gathers each coarse distributed graph and validates its CSR
    /// structure (symmetry included) — expensive, intended for the
    /// differential harness and debugging.
    pub check: CheckLevel,
}

impl ParallelConfig {
    /// Default configuration for `nprocs` logical processors.
    pub fn new(nprocs: usize) -> Self {
        ParallelConfig {
            nprocs,
            serial: PartitionConfig::default(),
            match_rounds: 4,
            refine_iters: 8,
            refiner: RefinerKind::Reservation,
            coarsen_to_per_part: 50,
            cost: CostModel::default(),
            init_runs_executed: 4,
            fold_threshold: 256,
            check: CheckLevel::for_build(),
        }
    }

    /// Copy with a different seed (for multi-run means).
    pub fn with_seed(&self, seed: u64) -> Self {
        ParallelConfig {
            serial: self.serial.with_seed(seed),
            ..self.clone()
        }
    }
}

/// Result of a parallel partitioning run.
#[derive(Clone, Debug)]
pub struct ParallelResult {
    /// The computed k-way partition (global).
    pub partition: Partition,
    /// Quality of the final partition.
    pub quality: PartitionQuality,
    /// Coarsening levels used (more than serial: slow coarsening).
    pub coarsen_levels: usize,
    /// Aggregated refinement statistics over all levels.
    pub refine: ParRefineStats,
    /// BSP cost accounting and modeled times.
    pub stats: RunStats,
}

/// Aborts on a seam-invariant violation: like the serial driver, a failed
/// internal invariant is a partitioner bug and fails loudly with the
/// catalogued invariant name.
fn enforce(result: mcgp_graph::Result<()>) {
    if let Err(e) = result {
        panic!("mcgp-check: {e}");
    }
}

/// Validates a global assignment over a distributed graph: one entry per
/// global vertex, every entry `< nparts`.
fn check_dist_assignment(dist: &DistGraph, part: &[u32], nparts: usize) -> mcgp_graph::Result<()> {
    if part.len() != dist.nvtxs() {
        return Err(McgpError::invariant(
            "partition/length",
            format!(
                "assignment has {} entries for a distributed graph of {} vertices",
                part.len(),
                dist.nvtxs()
            ),
        ));
    }
    if let Some((v, &p)) = part.iter().enumerate().find(|(_, &p)| p as usize >= nparts) {
        return Err(McgpError::invariant(
            "partition/range",
            format!("vertex {v} assigned to part {p} >= nparts {nparts}"),
        ));
    }
    Ok(())
}

/// Validates the contraction seam between two distributed levels: conserved
/// per-constraint weight totals and an in-range projection map.
fn check_dist_contraction(
    fine: &DistGraph,
    coarse: &DistGraph,
    cmap: &[u32],
) -> mcgp_graph::Result<()> {
    if coarse.ncon() != fine.ncon() {
        return Err(McgpError::invariant(
            "coarsen/ncon",
            format!("fine ncon {} != coarse ncon {}", fine.ncon(), coarse.ncon()),
        ));
    }
    let (ft, ct) = (fine.total_vwgt(), coarse.total_vwgt());
    if ft != ct {
        return Err(McgpError::invariant(
            "coarsen/weight-conservation",
            format!("fine totals {ft:?} != coarse totals {ct:?}"),
        ));
    }
    gcheck::check_projection(cmap, fine.nvtxs(), coarse.nvtxs())
}

/// Computes the global `nparts × ncon` subdomain weights with one local scan
/// plus an allreduce (both accounted).
fn compute_pw(
    dist: &DistGraph,
    part: &[u32],
    nparts: usize,
    tracker: &mut CostTracker,
) -> Vec<i64> {
    let p = dist.nprocs();
    let ncon = dist.ncon();
    let mut pw = vec![0i64; nparts * ncon];
    let mut comp = vec![0u64; p];
    for (q, comp_q) in comp.iter_mut().enumerate() {
        let lg = dist.local(q);
        *comp_q = (lg.nlocal() * ncon) as u64;
        for lv in 0..lg.nlocal() {
            let b = part[lg.global(lv)] as usize;
            for (i, &w) in lg.vwgt(lv).iter().enumerate() {
                pw[b * ncon + i] += w;
            }
        }
    }
    let bytes = vec![(2 * nparts * ncon * 8) as u64; p];
    tracker.superstep(&comp, &bytes);
    pw
}

/// Runs the parallel multilevel k-way multi-constraint partitioner on
/// `nprocs` logical processors (`cfg.nprocs`), producing `nparts`
/// subdomains. The paper's experiments use `nparts == nprocs`.
pub fn parallel_partition_kway(
    graph: &Graph,
    nparts: usize,
    cfg: &ParallelConfig,
) -> ParallelResult {
    assert!(nparts >= 1);
    assert!(cfg.nprocs >= 1);
    assert!(graph.nvtxs() >= nparts, "more parts than vertices");
    let wall_start = std::time::Instant::now();
    let mut tracker = CostTracker::new();
    let seed = cfg.serial.seed;

    // --- Distribute ----------------------------------------------------
    let finest = DistGraph::distribute(graph, cfg.nprocs.min(graph.nvtxs()));

    // --- Parallel coarsening --------------------------------------------
    let target = (cfg.coarsen_to_per_part * nparts).max(cfg.serial.coarsen_target(nparts));
    let mut levels: Vec<DistLevel> = Vec::new();
    mcgp_runtime::metrics::timed(mcgp_runtime::metrics::Phase::Coarsen, || loop {
        let lvl = levels.len();
        let cur = levels.last().map_or(&finest, |l| &l.graph);
        if cur.nvtxs() <= target || lvl >= 64 {
            break;
        }
        let mut sp = mcgp_runtime::span!("coarsen_level", level = lvl, nvtxs = cur.nvtxs());
        let matching = parallel_match(
            cur,
            cfg.serial.matching,
            cfg.match_rounds,
            seed ^ ((lvl as u64) << 40),
            &mut tracker,
        );
        if matching.coarse_nvtxs as f64 > 0.98 * cur.nvtxs() as f64 {
            mcgp_runtime::metrics::counter_add(mcgp_runtime::metrics::Counter::ContractionAborts, 1);
            sp.record("aborted", 1u64);
            break; // stall
        }
        sp.record("coarse_nvtxs", matching.coarse_nvtxs);
        sp.record(
            "ratio",
            matching.coarse_nvtxs as f64 / cur.nvtxs() as f64,
        );
        let mut level = parallel_contract(cur, &matching, &mut tracker);
        // Graph folding: redistribute small coarse graphs onto fewer
        // processors. Vertex ids are preserved (only ownership changes),
        // so the cmap stays valid; the shipment of each block is accounted.
        if cfg.fold_threshold > 0 {
            let cn = level.graph.nvtxs();
            let active = level.graph.nprocs();
            if cn < cfg.fold_threshold * active && active > 1 {
                let new_p = (cn / cfg.fold_threshold).max(1).min(active);
                mcgp_runtime::event!(
                    "graph_fold",
                    level = lvl,
                    nvtxs = cn,
                    from_procs = active,
                    to_procs = new_p,
                );
                let gathered = level.graph.gather();
                let bytes_per_proc = (gathered.adjacency_len() * 12 / active.max(1)) as u64;
                let comp = vec![cn as u64; active];
                let bytes = vec![bytes_per_proc; active];
                tracker.superstep(&comp, &bytes);
                level.graph = DistGraph::distribute(&gathered, new_p);
            }
        }
        // Seam: post-coarsen. Contraction (and folding, which only moves
        // ownership) must conserve weight totals and keep the cmap in
        // range; Full additionally gathers and validates the CSR itself.
        if cfg.check.enabled() {
            enforce(check_dist_contraction(cur, &level.graph, &level.cmap));
            if cfg.check >= CheckLevel::Full {
                enforce(gcheck::check_graph(&level.graph.gather(), cfg.check));
            }
        }
        levels.push(level);
    });
    let coarsen_levels = levels.len();

    // --- Initial partitioning on the coarsest graph ----------------------
    let coarsest = levels.last().map_or(&finest, |l| &l.graph);
    let mut part = mcgp_runtime::metrics::timed(mcgp_runtime::metrics::Phase::Initial, || {
        parallel_initial_partition(
            coarsest,
            nparts,
            &cfg.serial,
            cfg.init_runs_executed,
            &mut tracker,
        )
    });

    // Seam: post-initial. The replicated initial partitioning must emit an
    // in-range assignment covering every subdomain.
    if cfg.check.enabled() {
        enforce(check_dist_assignment(coarsest, &part, nparts));
        enforce(gcheck::check_no_empty_parts(&part, nparts));
    }

    // --- Uncoarsening with parallel multi-constraint refinement ----------
    let mut refine_stats = ParRefineStats::default();
    let mut refine_level =
        |lvl: usize, dist: &DistGraph, part: &mut Vec<u32>, lvl_seed: u64, tracker: &mut CostTracker| {
            let model = BalanceModel::from_parts(
                dist.ncon(),
                nparts,
                dist.total_vwgt(),
                &dist.max_vwgt(),
                cfg.serial.imbalance_tol,
            );
            let mut pw = compute_pw(dist, part, nparts, tracker);
            // Restore the caps before refining, as the serial driver does with
            // its explicit balancing pass (bounded rounds).
            let bal_moves = parallel_balance(
                dist,
                part,
                &mut pw,
                &model,
                8,
                true,
                lvl_seed ^ 0xBA7,
                tracker,
            );
            let s = match cfg.refiner {
                RefinerKind::Reservation => reservation_refine(
                    dist,
                    part,
                    &mut pw,
                    &model,
                    cfg.refine_iters,
                    lvl_seed,
                    tracker,
                ),
                RefinerKind::Slice => slice_refine(
                    dist,
                    part,
                    &mut pw,
                    &model,
                    cfg.refine_iters,
                    lvl_seed,
                    tracker,
                ),
            };
            refine_stats.iterations += s.iterations;
            refine_stats.committed += s.committed;
            refine_stats.disallowed += s.disallowed;
            refine_stats.balance_moves += bal_moves;
            // Seam: post-refine. Balancing and reservation/slice commits
            // must keep the global assignment well-formed.
            if cfg.check.enabled() {
                enforce(check_dist_assignment(dist, part, nparts));
            }
            if mcgp_runtime::trace::enabled() {
                let mut cut2 = 0i64; // every cut edge counted from both sides
                for q in 0..dist.nprocs() {
                    let lg = dist.local(q);
                    for lv in 0..lg.nlocal() {
                        let pv = part[lg.global(lv)];
                        for (u, w) in lg.edges(lv) {
                            if part[u as usize] != pv {
                                cut2 += w;
                            }
                        }
                    }
                }
                mcgp_runtime::event!(
                    "uncoarsen_level",
                    level = lvl,
                    nvtxs = dist.nvtxs(),
                    cut = cut2 / 2,
                    committed = s.committed,
                    disallowed = s.disallowed,
                    balance_moves = bal_moves,
                    imbalance = mcgp_core::balance::imbalances_from_pw(&pw, dist.ncon(), &model),
                );
            }
            if std::env::var_os("MCGP_DEBUG_BALANCE").is_some() {
                let mut cut = 0i64;
                for q in 0..dist.nprocs() {
                    let lg = dist.local(q);
                    for lv in 0..lg.nlocal() {
                        let pv = part[lg.global(lv)];
                        for (u, w) in lg.edges(lv) {
                            if part[u as usize] != pv {
                                cut += w;
                            }
                        }
                    }
                }
                eprintln!(
                    "  level n={} load={:.3} cut={} committed={} disallowed={} bal={}",
                    dist.nvtxs(),
                    model.max_load(&pw),
                    cut / 2,
                    s.committed,
                    s.disallowed,
                    bal_moves
                );
            }
        };

    mcgp_runtime::metrics::timed(mcgp_runtime::metrics::Phase::Refine, || {
        // Refine the coarsest level itself, then project down.
        refine_level(levels.len(), coarsest, &mut part, seed ^ 0xC0A0, &mut tracker);
        for lvl in (0..levels.len()).rev() {
            // Project: fine v takes the part of its coarse vertex; vertices
            // whose coarse vertex lives on another processor fetch it.
            let finer: &DistGraph = if lvl == 0 {
                &finest
            } else {
                &levels[lvl - 1].graph
            };
            let cmap = &levels[lvl].cmap;
            let coarse = &levels[lvl].graph;
            let p = finer.nprocs();
            let mut comp = vec![0u64; p];
            let mut bytes = vec![0u64; p];
            let mut fine_part = vec![0u32; finer.nvtxs()];
            for q in 0..p {
                let lg = finer.local(q);
                comp[q] = lg.nlocal() as u64;
                for lv in 0..lg.nlocal() {
                    let v = lg.global(lv);
                    let c = cmap[v] as usize;
                    if coarse.owner(c) != q {
                        bytes[q] += 4;
                    }
                    fine_part[v] = part[c];
                }
            }
            tracker.superstep(&comp, &bytes);
            part = fine_part;
            // Seam: post-project. Every fine vertex inherited its coarse
            // vertex's part, so length and range must hold before refining.
            if cfg.check.enabled() {
                enforce(check_dist_assignment(finer, &part, nparts));
            }
            refine_level(lvl, finer, &mut part, seed ^ ((lvl as u64) << 16), &mut tracker);
        }
    });

    // Final balance pass (still the refinement phase): the reservation
    // scheme's residual overshoot at the finest level is corrected here
    // (cheap — the overshoot is small).
    mcgp_runtime::metrics::timed(mcgp_runtime::metrics::Phase::Refine, || {
        let model = BalanceModel::from_parts(
            finest.ncon(),
            nparts,
            finest.total_vwgt(),
            &finest.max_vwgt(),
            cfg.serial.imbalance_tol,
        );
        let mut pw = compute_pw(&finest, &part, nparts, &mut tracker);
        refine_stats.balance_moves += parallel_balance(
            &finest,
            &mut part,
            &mut pw,
            &model,
            16,
            true,
            seed ^ 0xF1A1,
            &mut tracker,
        );
    });

    // --- Measure ----------------------------------------------------------
    // Seam: final. The finished assignment must be a valid k-way partition
    // of the *input* graph with no empty subdomain.
    if cfg.check.enabled() {
        enforce(gcheck::check_assignment(graph, &part, nparts));
        enforce(gcheck::check_no_empty_parts(&part, nparts));
    }
    let partition =
        Partition::new(nparts, part).expect("parallel partitioner produced invalid assignment");
    let quality = PartitionQuality::measure(graph, &partition);
    let wall = wall_start.elapsed().as_secs_f64();
    let stats = RunStats {
        nprocs: cfg.nprocs,
        supersteps: tracker.supersteps(),
        comm_bytes: tracker.total_bytes(),
        comp_ops: tracker.total_comp(),
        modeled_time_s: tracker.modeled_time(&cfg.cost),
        modeled_serial_time_s: tracker.total_comp() as f64 * cfg.cost.t_comp,
        wall_time_s: wall,
    };
    ParallelResult {
        partition,
        quality,
        coarsen_levels,
        refine: refine_stats,
        stats,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use mcgp_core::partition_kway;
    use mcgp_graph::generators::{grid_2d, mrng_like};
    use mcgp_graph::synthetic;

    #[test]
    fn parallel_matches_serial_quality_roughly() {
        let g = synthetic::type1(&mrng_like(4000, 3), 3, 3);
        let serial = partition_kway(&g, 8, &PartitionConfig::default());
        let par = parallel_partition_kway(&g, 8, &ParallelConfig::new(8));
        let ratio = par.quality.edge_cut as f64 / serial.quality.edge_cut as f64;
        assert!(
            (0.5..=1.6).contains(&ratio),
            "parallel/serial cut ratio {ratio} ({} vs {})",
            par.quality.edge_cut,
            serial.quality.edge_cut
        );
        assert!(
            par.quality.max_imbalance < 1.25,
            "imbalance {}",
            par.quality.max_imbalance
        );
    }

    #[test]
    fn works_across_processor_counts() {
        let g = synthetic::type2(&mrng_like(3000, 5), 3, 5);
        for p in [1usize, 2, 8, 32] {
            let r = parallel_partition_kway(&g, 8, &ParallelConfig::new(p));
            assert!(r.partition.all_parts_nonempty(), "p={p}");
            assert!(
                r.quality.max_imbalance < 1.35,
                "p={p}: {}",
                r.quality.max_imbalance
            );
            assert!(r.stats.supersteps > 0);
        }
    }

    #[test]
    fn slow_coarsening_uses_at_least_serial_levels() {
        // Compare at the *same* coarsest-graph target: the parallel matching
        // protocol under-matches per level, so it needs at least as many
        // levels to reach it (the paper's slow-coarsening effect).
        use mcgp_core::coarsen::coarsen;
        use mcgp_runtime::rng::Rng;
        let g = mrng_like(4000, 7);
        let cfg = ParallelConfig::new(16);
        let target = cfg.coarsen_to_per_part * 8;
        let mut rng = Rng::seed_from_u64(7);
        let serial_cfg = PartitionConfig {
            coarsen_to_per_part: cfg.coarsen_to_per_part,
            coarsen_to_min: target,
            ..PartitionConfig::default()
        };
        let serial_levels = coarsen(&g, target, &serial_cfg, &mut rng).nlevels();
        let par = parallel_partition_kway(&g, 8, &cfg);
        assert!(
            par.coarsen_levels >= serial_levels,
            "parallel {} vs serial {} levels",
            par.coarsen_levels,
            serial_levels
        );
    }

    #[test]
    fn modeled_time_grows_with_communication() {
        // Same graph, same work: more processors => more supersteps traffic,
        // but less per-processor compute; the modeled time must be finite
        // and the communication volume must grow with p.
        let g = mrng_like(3000, 9);
        let r2 = parallel_partition_kway(&g, 4, &ParallelConfig::new(2));
        let r16 = parallel_partition_kway(&g, 4, &ParallelConfig::new(16));
        assert!(r16.stats.comm_bytes > r2.stats.comm_bytes);
        assert!(r2.stats.modeled_time_s > 0.0 && r16.stats.modeled_time_s > 0.0);
    }

    #[test]
    fn single_processor_degenerates_gracefully() {
        let g = grid_2d(20, 20);
        let r = parallel_partition_kway(&g, 4, &ParallelConfig::new(1));
        assert!(r.quality.max_imbalance < 1.10);
        assert!(r.partition.all_parts_nonempty());
    }

    #[test]
    fn deterministic_per_seed() {
        let g = synthetic::type1(&grid_2d(24, 24), 2, 11);
        let cfg = ParallelConfig::new(4);
        let a = parallel_partition_kway(&g, 4, &cfg);
        let b = parallel_partition_kway(&g, 4, &cfg);
        assert_eq!(a.partition.assignment(), b.partition.assignment());
    }

    #[test]
    fn slice_refiner_is_no_better_than_reservation() {
        let g = synthetic::type1(&mrng_like(3000, 13), 3, 13);
        let res = parallel_partition_kway(&g, 16, &ParallelConfig::new(16));
        let mut scfg = ParallelConfig::new(16);
        scfg.refiner = RefinerKind::Slice;
        let sli = parallel_partition_kway(&g, 16, &scfg);
        // Slice restricts strictly more moves; allow noise but it should
        // not meaningfully beat the reservation scheme.
        assert!(
            sli.quality.edge_cut as f64 >= 0.9 * res.quality.edge_cut as f64,
            "slice {} vs reservation {}",
            sli.quality.edge_cut,
            res.quality.edge_cut
        );
    }
}
