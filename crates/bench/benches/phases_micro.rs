//! Microbenchmarks of the multilevel phases: matching, contraction, 2-way
//! FM, k-way refinement, and the parallel reservation refinement — the
//! per-phase breakdown behind every table.

use mcgp_bench::Bench;
use mcgp_core::balance::{part_weights, BalanceModel};
use mcgp_core::coarsen::contract;
use mcgp_core::config::{MatchingScheme, PartitionConfig};
use mcgp_core::fm2way::fm_refine_bisection;
use mcgp_core::kway_refine::greedy_kway_refine;
use mcgp_core::matching::match_graph;
use mcgp_graph::generators::mrng_like;
use mcgp_graph::synthetic;
use mcgp_parallel::refine_par::reservation_refine;
use mcgp_parallel::{CostTracker, DistGraph};
use mcgp_runtime::rng::Rng;

fn main() {
    let b = Bench::from_args();

    let wg16 = synthetic::type1(&mrng_like(16_000, 1), 3, 1);
    for scheme in [
        MatchingScheme::Random,
        MatchingScheme::HeavyEdge,
        MatchingScheme::BalancedHeavyEdge,
    ] {
        b.run("micro/matching", &format!("{scheme:?}"), || {
            let mut rng = Rng::seed_from_u64(1);
            match_graph(&wg16, scheme, &mut rng)
        });
    }

    let mut rng = Rng::seed_from_u64(1);
    let m = match_graph(&wg16, MatchingScheme::BalancedHeavyEdge, &mut rng);
    b.run("micro/contraction", "contract_16k", || contract(&wg16, &m));

    let wg4 = synthetic::type1(&mrng_like(4_000, 1), 3, 1);
    let cfg = PartitionConfig::default();
    b.run("micro/fm2way", "refine_random_start", || {
        let mut rng = Rng::seed_from_u64(2);
        let mut side: Vec<u32> = (0..wg4.nvtxs()).map(|v| (v % 2) as u32).collect();
        fm_refine_bisection(&wg4, &mut side, (0.5, 0.5), &cfg, &mut rng)
    });

    let wg8 = synthetic::type1(&mrng_like(8_000, 1), 3, 1);
    let model = BalanceModel::new(&wg8, 8, 0.05);
    let start: Vec<u32> = (0..wg8.nvtxs()).map(|v| (v % 8) as u32).collect();
    b.run("micro/kway_refine", "greedy_8way", || {
        let mut rng = Rng::seed_from_u64(3);
        let mut a = start.clone();
        let mut pw = part_weights(&wg8, &a, 8);
        greedy_kway_refine(&wg8, &mut a, &mut pw, &model, 4, &mut rng)
    });

    let d = DistGraph::distribute(&wg8, 16);
    b.run("micro/reservation_refine", "p16_8way", || {
        let mut part = start.clone();
        let mut pw = part_weights(&wg8, &part, 8);
        let mut t = CostTracker::new();
        reservation_refine(&d, &mut part, &mut pw, &model, 4, 1, &mut t)
    });
}
