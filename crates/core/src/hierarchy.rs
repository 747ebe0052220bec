//! Reusable coarsening hierarchies — the phase-separability seam that
//! `mcgp serve` caches across requests.
//!
//! The multilevel pipeline's expensive first phase depends only on the
//! graph, the seed, and the coarsening configuration — never on `nparts`,
//! the imbalance tolerance, or the balance vector. A
//! [`HierarchySnapshot`] exploits that: it coarsens once, *deeply* (down
//! to the absolute floor `coarsen_to_min`, the smallest target any
//! `nparts` can ask for), records the RNG state at every level boundary,
//! and can then answer any `(nparts, ε)` request by replaying initial
//! partitioning + refinement from the matching prefix of levels with the
//! matching RNG state.
//!
//! **Determinism contract.** [`HierarchySnapshot::partition`] returns a
//! result bit-identical to [`crate::partition_kway`] with the same
//! `(graph, nparts, config)`. This holds structurally, not by luck: the
//! cold driver stops coarsening *before* matching the first level whose
//! input is at or below its target, so its levels are a prefix of the
//! deep hierarchy and its post-coarsening RNG state is exactly the
//! recorded boundary state ([`crate::coarsen::RecordedCoarsening`]); both
//! paths then run the one shared `initial_and_refine` routine.

use crate::coarsen::{coarsen_recorded, CoarseLevel};
use crate::config::PartitionConfig;
use crate::kway::{check_levels, initial_and_refine};
use crate::PartitionResult;
use mcgp_graph::Graph;
use mcgp_runtime::metrics::{timed, Phase};
use mcgp_runtime::rng::Rng;
use mcgp_runtime::span;

/// A deep coarsening hierarchy with recorded per-level RNG states, able to
/// serve any `(nparts, ε)` partitioning request on its graph without
/// re-coarsening.
#[derive(Clone, Debug)]
pub struct HierarchySnapshot {
    levels: Vec<CoarseLevel>,
    /// RNG state before matching each level; `len() == levels.len() + 1`.
    rng_at: Vec<Rng>,
    /// RNG state at coarsening-loop exit (differs from the last boundary
    /// state only when the loop aborted on a stalled matching).
    rng_final: Rng,
    finest_nvtxs: usize,
    seed: u64,
    nthreads: usize,
}

impl HierarchySnapshot {
    /// Coarsens `graph` down to `config.coarsen_to_min` — the deepest any
    /// `nparts` target can reach — recording RNG states at every level.
    /// Runs the post-coarsen invariant seam at `config.check`, so a cached
    /// snapshot is validated once, not per request.
    pub fn build(graph: &Graph, config: &PartitionConfig) -> Self {
        let mut _root = span!(
            "hierarchy_build",
            nvtxs = graph.nvtxs(),
            nthreads = config.nthreads,
        );
        let mut rng = Rng::seed_from_u64(config.seed);
        let rec = timed(Phase::Coarsen, || {
            coarsen_recorded(graph, config.coarsen_to_min, config, &mut rng)
        });
        _root.record("levels", rec.hierarchy.levels().len());
        check_levels(graph, rec.hierarchy.levels(), config.check);
        HierarchySnapshot {
            levels: rec.hierarchy.levels().to_vec(),
            rng_at: rec.rng_at,
            rng_final: rec.rng_final,
            finest_nvtxs: graph.nvtxs(),
            seed: config.seed,
            nthreads: config.nthreads,
        }
    }

    /// Reassembles a snapshot from serialized parts (the disk-spill load
    /// path). Validates the structural invariants a corrupt spill file
    /// could violate — RNG boundary count and the cmap chain linking each
    /// level to its finer input; anything off is a typed error, never a
    /// panic.
    pub fn from_parts(
        levels: Vec<CoarseLevel>,
        rng_at: Vec<Rng>,
        rng_final: Rng,
        finest_nvtxs: usize,
        seed: u64,
        nthreads: usize,
    ) -> Result<Self, String> {
        if rng_at.len() != levels.len() + 1 {
            return Err(format!(
                "rng boundary count {} does not match {} levels",
                rng_at.len(),
                levels.len()
            ));
        }
        let mut prev_nvtxs = finest_nvtxs;
        for (i, level) in levels.iter().enumerate() {
            if level.cmap.len() != prev_nvtxs {
                return Err(format!(
                    "level {i}: cmap length {} does not match finer graph with {prev_nvtxs} vertices",
                    level.cmap.len()
                ));
            }
            let coarse_n = level.graph.nvtxs();
            if let Some(&bad) = level.cmap.iter().find(|&&c| (c as usize) >= coarse_n) {
                return Err(format!(
                    "level {i}: cmap entry {bad} out of range for {coarse_n} coarse vertices"
                ));
            }
            prev_nvtxs = coarse_n;
        }
        Ok(HierarchySnapshot {
            levels,
            rng_at,
            rng_final,
            finest_nvtxs,
            seed,
            nthreads,
        })
    }

    /// Number of recorded coarsening levels.
    pub fn nlevels(&self) -> usize {
        self.levels.len()
    }

    /// The recorded coarsening levels, finest to coarsest.
    pub fn levels(&self) -> &[CoarseLevel] {
        &self.levels
    }

    /// RNG state before matching each level (`len() == nlevels() + 1`).
    pub fn rng_boundary_states(&self) -> &[Rng] {
        &self.rng_at
    }

    /// RNG state at coarsening-loop exit.
    pub fn rng_final(&self) -> &Rng {
        &self.rng_final
    }

    /// Vertex count of the finest (input) graph.
    pub fn finest_nvtxs(&self) -> usize {
        self.finest_nvtxs
    }

    /// Seed this snapshot was coarsened with.
    pub fn seed(&self) -> u64 {
        self.seed
    }

    /// Stripe count this snapshot was coarsened with.
    pub fn nthreads(&self) -> usize {
        self.nthreads
    }

    /// Approximate resident size in bytes — CSR arrays, weight vectors,
    /// and projection maps across all levels. The serve cache's LRU
    /// budget is denominated in this.
    pub fn approx_bytes(&self) -> usize {
        let mut total = std::mem::size_of::<Self>();
        for level in &self.levels {
            let g = &level.graph;
            total += (g.nvtxs() + 1) * 8; // xadj
            total += g.adjacency_len() * (4 + 8); // adjncy + adjwgt
            total += g.nvtxs() * g.ncon() * 8; // vwgt
            total += level.cmap.len() * 4;
        }
        total += self.rng_at.len() * std::mem::size_of::<Rng>();
        total
    }

    /// Number of vertices the `nparts`-way prefix of this hierarchy stops
    /// at — the graph initial partitioning would run on.
    pub fn coarsest_nvtxs_for(&self, nparts: usize, config: &PartitionConfig) -> usize {
        let cut = self.prefix_len(config.coarsen_target(nparts));
        if cut == 0 {
            self.finest_nvtxs
        } else {
            self.levels[cut - 1].graph.nvtxs()
        }
    }

    /// Length of the level prefix a cold coarsening with `target` would
    /// produce: the count up to (excluding) the first level whose input
    /// graph already has `≤ target` vertices, or all levels if none does.
    fn prefix_len(&self, target: usize) -> usize {
        (0..=self.levels.len())
            .find(|&i| self.input_nvtxs(i) <= target)
            .unwrap_or(self.levels.len())
    }

    /// Vertex count of the graph entering level `i` (the finest graph for
    /// `i == 0`).
    fn input_nvtxs(&self, i: usize) -> usize {
        if i == 0 {
            self.finest_nvtxs
        } else {
            self.levels[i - 1].graph.nvtxs()
        }
    }

    /// Computes a `nparts`-way partition of `graph` from the cached
    /// hierarchy, paying only initial partitioning + refinement.
    ///
    /// `graph` must be the graph this snapshot was built from, and
    /// `config` must agree on everything coarsening consumed (seed,
    /// stripe count, matching scheme, coarsening floors) — the serve
    /// cache's fingerprint keying guarantees this; violating it here is a
    /// caller bug and panics. `nparts`, `imbalance_tol`, and refinement
    /// knobs are free: that is the point of the cache.
    pub fn partition(
        &self,
        graph: &Graph,
        nparts: usize,
        config: &PartitionConfig,
    ) -> PartitionResult {
        assert_eq!(
            graph.nvtxs(),
            self.finest_nvtxs,
            "snapshot used with a different graph"
        );
        assert_eq!(config.seed, self.seed, "snapshot used with a different seed");
        assert_eq!(
            config.nthreads, self.nthreads,
            "snapshot used with a different stripe count"
        );
        assert!(nparts >= 1, "nparts must be >= 1");
        assert!(graph.nvtxs() >= nparts, "more parts than vertices");
        if nparts == 1 {
            return PartitionResult::measure(graph, vec![0; graph.nvtxs()], 1, 0);
        }
        let target = config.coarsen_target(nparts);
        let cut = self.prefix_len(target);
        let _root = span!(
            "hierarchy_replay",
            nvtxs = graph.nvtxs(),
            nparts = nparts,
            prefix_levels = cut,
        );
        let mut rng = if self.input_nvtxs(cut) <= target {
            // A cold run stops on size before matching level `cut`: its
            // exit RNG state is the recorded boundary state.
            self.rng_at[cut].clone()
        } else {
            // No level is small enough (the deep build stalled or hit the
            // level cap above `target`): a cold run consumes the same
            // draws to the same end, so replay from the final state.
            self.rng_final.clone()
        };
        let used = &self.levels[..cut];
        let assignment = initial_and_refine(graph, used, nparts, config, &mut rng);
        PartitionResult::measure(graph, assignment, nparts, used.len())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::partition_kway;
    use mcgp_graph::generators::{grid_2d, mrng_like};
    use mcgp_graph::synthetic;

    #[test]
    fn snapshot_partition_is_bit_identical_to_cold_run() {
        let g = synthetic::type1(&mrng_like(4000, 7), 3, 7);
        let cfg = PartitionConfig::default();
        let snap = HierarchySnapshot::build(&g, &cfg);
        for nparts in [2usize, 4, 8, 16, 37] {
            let cold = partition_kway(&g, nparts, &cfg);
            let warm = snap.partition(&g, nparts, &cfg);
            assert_eq!(
                cold.partition.assignment(),
                warm.partition.assignment(),
                "nparts={nparts}"
            );
            assert_eq!(cold.quality.edge_cut, warm.quality.edge_cut);
            assert_eq!(cold.coarsen_levels, warm.coarsen_levels);
        }
    }

    #[test]
    fn snapshot_is_free_of_epsilon_and_nparts() {
        // One snapshot answers different (nparts, ε) combinations, each
        // bit-identical to its own cold run.
        let g = mrng_like(3000, 11);
        let cfg = PartitionConfig::default();
        let snap = HierarchySnapshot::build(&g, &cfg);
        for (nparts, tol) in [(4usize, 0.02f64), (8, 0.05), (8, 0.20), (12, 0.10)] {
            let req = PartitionConfig {
                imbalance_tol: tol,
                ..cfg.clone()
            };
            let cold = partition_kway(&g, nparts, &req);
            let warm = snap.partition(&g, nparts, &req);
            assert_eq!(
                cold.partition.assignment(),
                warm.partition.assignment(),
                "nparts={nparts} tol={tol}"
            );
        }
    }

    #[test]
    fn snapshot_matches_cold_run_with_threaded_coarsening() {
        let g = mrng_like(5000, 13);
        let cfg = PartitionConfig::default().with_threads(2);
        let snap = HierarchySnapshot::build(&g, &cfg);
        for nparts in [2usize, 8] {
            let cold = partition_kway(&g, nparts, &cfg);
            let warm = snap.partition(&g, nparts, &cfg);
            assert_eq!(cold.partition.assignment(), warm.partition.assignment());
        }
    }

    #[test]
    fn snapshot_handles_tiny_graphs_and_single_part() {
        // A graph below every coarsening target: empty hierarchy, the
        // whole pipeline degenerates to initial+refine on the input.
        let g = grid_2d(5, 5);
        let cfg = PartitionConfig::default();
        let snap = HierarchySnapshot::build(&g, &cfg);
        assert_eq!(snap.nlevels(), 0);
        for nparts in [1usize, 2, 4] {
            let cold = partition_kway(&g, nparts, &cfg);
            let warm = snap.partition(&g, nparts, &cfg);
            assert_eq!(cold.partition.assignment(), warm.partition.assignment());
        }
    }

    #[test]
    fn from_parts_round_trip_partitions_identically() {
        let g = synthetic::type1(&mrng_like(3000, 5), 2, 9);
        let cfg = PartitionConfig::default();
        let snap = HierarchySnapshot::build(&g, &cfg);
        let rebuilt = HierarchySnapshot::from_parts(
            snap.levels().to_vec(),
            snap.rng_boundary_states().to_vec(),
            snap.rng_final().clone(),
            snap.finest_nvtxs(),
            snap.seed(),
            snap.nthreads(),
        )
        .unwrap();
        for nparts in [2usize, 8] {
            let a = snap.partition(&g, nparts, &cfg);
            let b = rebuilt.partition(&g, nparts, &cfg);
            assert_eq!(a.partition.assignment(), b.partition.assignment());
        }
    }

    #[test]
    fn from_parts_rejects_inconsistent_structure() {
        let g = mrng_like(2000, 3);
        let cfg = PartitionConfig::default();
        let snap = HierarchySnapshot::build(&g, &cfg);
        assert!(snap.nlevels() > 0, "test needs a non-trivial hierarchy");
        // Missing RNG boundary.
        assert!(HierarchySnapshot::from_parts(
            snap.levels().to_vec(),
            snap.rng_boundary_states()[..snap.nlevels()].to_vec(),
            snap.rng_final().clone(),
            snap.finest_nvtxs(),
            snap.seed(),
            snap.nthreads(),
        )
        .is_err());
        // Broken cmap chain (wrong finest vertex count).
        assert!(HierarchySnapshot::from_parts(
            snap.levels().to_vec(),
            snap.rng_boundary_states().to_vec(),
            snap.rng_final().clone(),
            snap.finest_nvtxs() + 1,
            snap.seed(),
            snap.nthreads(),
        )
        .is_err());
        // Out-of-range cmap entry.
        let mut levels = snap.levels().to_vec();
        levels[0].cmap[0] = u32::MAX;
        assert!(HierarchySnapshot::from_parts(
            levels,
            snap.rng_boundary_states().to_vec(),
            snap.rng_final().clone(),
            snap.finest_nvtxs(),
            snap.seed(),
            snap.nthreads(),
        )
        .is_err());
    }

    #[test]
    fn approx_bytes_tracks_hierarchy_size() {
        let small = HierarchySnapshot::build(&grid_2d(8, 8), &PartitionConfig::default());
        let big = HierarchySnapshot::build(&mrng_like(4000, 3), &PartitionConfig::default());
        assert!(big.approx_bytes() > small.approx_bytes());
        assert!(big.approx_bytes() > 0);
    }

    #[test]
    fn coarsest_nvtxs_for_respects_targets() {
        let g = mrng_like(4000, 5);
        let cfg = PartitionConfig::default();
        let snap = HierarchySnapshot::build(&g, &cfg);
        // Bigger nparts ⇒ bigger target ⇒ shallower prefix ⇒ coarsest no
        // smaller.
        assert!(snap.coarsest_nvtxs_for(64, &cfg) >= snap.coarsest_nvtxs_for(2, &cfg));
    }
}
