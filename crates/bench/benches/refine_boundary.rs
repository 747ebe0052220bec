//! Refinement-engine benchmarks: the uncoarsening/refinement hot path on
//! the acceptance workload (`mrng_like(200_000)`, 3 constraints, k = 16)
//! under two starting partitions:
//!
//! * `sliced` — contiguous blocks of the geometrically-local mesh order, a
//!   thin boundary (~a few % of vertices). This is the shape projected
//!   partitions have during uncoarsening and is the headline number
//!   `scripts/bench.sh` records in `BENCH_refine.json`.
//! * `scattered` — `v % k`, nearly every vertex on the boundary: the
//!   worst case for a boundary-driven engine (its caches must pay for
//!   themselves even when the boundary is the whole graph).
//!
//! `refine/smoke` is a small fast workload for the `verify.sh` bench smoke
//! (`--samples 3 smoke`).

use mcgp_bench::Bench;
use mcgp_core::balance::{part_weights, BalanceModel};
use mcgp_core::kway_refine::greedy_kway_refine;
use mcgp_core::{partition_kway, PartitionConfig};
use mcgp_graph::generators::mrng_like;
use mcgp_graph::synthetic;
use mcgp_parallel::refine_par::reservation_refine;
use mcgp_parallel::slice_refine::slice_refine;
use mcgp_parallel::{CostTracker, DistGraph};
use mcgp_runtime::rng::Rng;

fn main() {
    let b = Bench::from_args();
    let k = 16usize;

    let g = synthetic::type1(&mrng_like(200_000, 1), 3, 1);
    let n = g.nvtxs();
    let model = BalanceModel::new(&g, k, 0.05);
    let sliced: Vec<u32> = (0..n).map(|v| ((v * k) / n) as u32).collect();
    let scattered: Vec<u32> = (0..n).map(|v| (v % k) as u32).collect();

    for (start_name, start) in [("sliced", &sliced), ("scattered", &scattered)] {
        b.run(
            "refine/greedy_sweep",
            &format!("mrng200k_ncon3_k16_{start_name}"),
            || {
                let mut rng = Rng::seed_from_u64(3);
                let mut a = start.clone();
                let mut pw = part_weights(&g, &a, k);
                greedy_kway_refine(&g, &mut a, &mut pw, &model, 4, &mut rng)
            },
        );
    }

    // The full serial driver on the same mesh: coarsening + initial +
    // uncoarsening. Tracks how the refinement share moves end to end.
    b.run("refine/kway_driver", "mrng200k_ncon3_k16", || {
        partition_kway(&g, k, &PartitionConfig::default())
    });

    let d = DistGraph::distribute(&g, 16);
    b.run("refine/reservation", "p16_mrng200k_ncon3_k16_sliced", || {
        let mut part = sliced.clone();
        let mut pw = part_weights(&g, &part, k);
        let mut t = CostTracker::new();
        reservation_refine(&d, &mut part, &mut pw, &model, 4, 1, &mut t)
    });
    b.run("refine/slice", "p16_mrng200k_ncon3_k16_sliced", || {
        let mut part = sliced.clone();
        let mut pw = part_weights(&g, &part, k);
        let mut t = CostTracker::new();
        slice_refine(&d, &mut part, &mut pw, &model, 4, 1, &mut t)
    });

    // Small, fast workload for CI smoke runs (filter: `smoke`).
    let sg = synthetic::type1(&mrng_like(5_000, 2), 3, 2);
    let sn = sg.nvtxs();
    let sk = 8usize;
    let sm = BalanceModel::new(&sg, sk, 0.05);
    let sstart: Vec<u32> = (0..sn).map(|v| ((v * sk) / sn) as u32).collect();
    b.run("refine/smoke", "mrng5k_ncon3_k8", || {
        let mut rng = Rng::seed_from_u64(1);
        let mut a = sstart.clone();
        let mut pw = part_weights(&sg, &a, sk);
        greedy_kway_refine(&sg, &mut a, &mut pw, &sm, 2, &mut rng)
    });
}
