//! Coarsening-engine benchmarks: the shared-memory matching and
//! contraction kernels against their serial counterparts on the acceptance
//! workload (`mrng_like(200_000)`, ncon 1 and 3) plus a skewed-degree
//! R-MAT contrast case (`rmat_default(16, 8, 11)`) at 1/2/8 stripes.
//!
//! * `coarsen/match` — one matching pass in isolation (`match_graph` at
//!   t = 1, `match_smp` above).
//! * `coarsen/contract` — one contraction in isolation on a fixed serial
//!   matching (`contract_with_scratch` at t = 1, `contract_smp` above),
//!   scratch reused across samples as the level loop does.
//! * `coarsen/hierarchy` — the full `coarsen()` hierarchy down to the
//!   k = 16 target, the end-to-end number `scripts/bench.sh` records in
//!   `BENCH_coarsen.json`.
//! * `partition/full` — end-to-end `partition_kway` (coarsen + threaded
//!   recursive-bisection initial partitioning + parallel k-way
//!   refinement), the row the `mcgp bench-gate --threads-win` rule
//!   enforces `t2 ≤ t1` on.
//! * `ingest/parse_metis`, `ingest/parse_json`, `ingest/validate` — the
//!   input layer on the ncon-3 mesh: `read_metis` and `graph_from_json`
//!   from an in-memory body to a validated `Graph`, and `Graph::validate`
//!   alone (the share of both parses spent in `from_csr`).
//! * `coarsen/smoke` — a small fast workload for the `verify.sh` bench
//!   smoke (`--samples 3 smoke`).
//!
//! Stripe counts above `MCGP_THREADS`/`available_parallelism` still run
//! (striping is a determinism parameter, not a thread count), so the t = 2
//! and t = 8 records are honest on any machine — on a single-core host
//! they measure the striped kernels' overhead, not a speedup. Thread-count
//! families sample interleaved (`Bench::run_variants`) so the
//! threads-win medians are paired per sample round.

use mcgp_bench::Bench;
use std::hint::black_box;
use mcgp_core::coarsen::{coarsen, contract_with_scratch, ContractionScratch};
use mcgp_core::coarsen_smp::{contract_smp, match_smp, SmpCoarsenScratch};
use mcgp_core::config::MatchingScheme;
use mcgp_core::matching::match_graph;
use mcgp_core::{partition_kway, PartitionConfig};
use mcgp_graph::generators::{mrng_like, rmat_default};
use mcgp_graph::io::{graph_from_json, read_metis, write_metis};
use mcgp_graph::synthetic;
use mcgp_graph::Graph;
use mcgp_runtime::rng::Rng;

const THREADS: [usize; 3] = [1, 2, 8];

fn bench_graph(b: &Bench, g: &Graph, tag: &str) {
    let scheme = MatchingScheme::BalancedHeavyEdge;

    // Every `_t{1,2,8}` family samples via `run_variants`: the thread
    // counts of one workload are interleaved round-robin so the
    // threads-win comparison of their medians is paired per round — a
    // machine-wide slow window hits all three rows, not whichever row's
    // consecutive samples it happened to overlap.
    b.run_variants(
        "coarsen/match",
        THREADS
            .iter()
            .map(|&t| {
                let f: Box<dyn FnMut()> = Box::new(move || {
                    if t == 1 {
                        let mut rng = Rng::seed_from_u64(7);
                        black_box(match_graph(g, scheme, &mut rng));
                    } else {
                        black_box(match_smp(g, scheme, t, 7));
                    }
                });
                (format!("{tag}_t{t}"), f)
            })
            .collect(),
    );

    let m = match_graph(g, scheme, &mut Rng::seed_from_u64(7));
    b.run_variants(
        "coarsen/contract",
        THREADS
            .iter()
            .map(|&t| {
                // Each variant owns its scratch, reused across samples as
                // the level loop does.
                let mut serial_scratch = ContractionScratch::new();
                let mut smp_scratch = SmpCoarsenScratch::new();
                let m = &m;
                let f: Box<dyn FnMut()> = Box::new(move || {
                    if t == 1 {
                        black_box(contract_with_scratch(g, m, &mut serial_scratch));
                    } else {
                        black_box(contract_smp(g, m, t, &mut smp_scratch));
                    }
                });
                (format!("{tag}_t{t}"), f)
            })
            .collect(),
    );

    let target = PartitionConfig::default().coarsen_target(16);
    b.run_variants(
        "coarsen/hierarchy",
        THREADS
            .iter()
            .map(|&t| {
                let cfg = PartitionConfig::default().with_threads(t);
                let f: Box<dyn FnMut()> = Box::new(move || {
                    let mut rng = Rng::seed_from_u64(7);
                    black_box(coarsen(g, target, &cfg, &mut rng));
                });
                (format!("{tag}_t{t}"), f)
            })
            .collect(),
    );

    // The end-to-end pipeline — coarsen, threaded recursive-bisection
    // initial partitioning, parallel k-way refinement — at the same
    // stripe counts. This is the row the threads-win gate enforces:
    // `_t2` must hold `_t1`'s speed on whatever host ran the bench.
    b.run_variants(
        "partition/full",
        THREADS
            .iter()
            .map(|&t| {
                let cfg = PartitionConfig::default().with_threads(t);
                let f: Box<dyn FnMut()> = Box::new(move || {
                    black_box(partition_kway(g, 16, &cfg));
                });
                (format!("{tag}_t{t}"), f)
            })
            .collect(),
    );
}

fn bench_ingest(b: &Bench, g: &Graph, tag: &str) {
    let mut metis = Vec::new();
    write_metis(g, &mut metis).expect("in-memory write");
    b.run("ingest/parse_metis", tag, || {
        read_metis(&metis).expect("valid body")
    });
    let json = format!(
        r#"{{"ncon": {}, "xadj": {:?}, "adjncy": {:?}, "adjwgt": {:?}, "vwgt": {:?}}}"#,
        g.ncon(),
        g.xadj(),
        g.adjncy(),
        g.adjwgt(),
        g.vwgt_flat(),
    );
    b.run("ingest/parse_json", tag, || {
        graph_from_json(&json).expect("valid body")
    });
    b.run("ingest/validate", tag, || {
        g.validate().expect("valid graph")
    });
}

fn main() {
    let b = Bench::from_args();

    let base = mrng_like(200_000, 1);
    bench_graph(&b, &base, "mrng200k_ncon1");
    let g3 = synthetic::type1(&base, 3, 1);
    bench_graph(&b, &g3, "mrng200k_ncon3");
    bench_ingest(&b, &g3, "mrng200k_ncon3");

    // Power-law contrast case: an R-MAT graph (2^16 vertices, skewed
    // degrees) stresses the matching arbiter and contraction slabs in ways
    // the bounded-degree meshes above cannot — hub vertices concentrate
    // conflicts on a few stripes and produce fat coarse adjacency rows.
    let skew = rmat_default(16, 8, 11);
    bench_graph(&b, &skew, "rmat16_ncon1");

    // Small, fast workload for CI smoke runs (filter: `smoke`).
    let sg = synthetic::type1(&mrng_like(5_000, 2), 3, 2);
    let starget = PartitionConfig::default().coarsen_target(8);
    for t in [1usize, 4] {
        let cfg = PartitionConfig::default().with_threads(t);
        b.run("coarsen/smoke", &format!("mrng5k_ncon3_t{t}"), || {
            let mut rng = Rng::seed_from_u64(2);
            coarsen(&sg, starget, &cfg, &mut rng)
        });
    }
}
