//! # mcgp-core — serial multilevel multi-constraint graph partitioning
//!
//! An implementation of the algorithm of *Karypis & Kumar, "Multilevel
//! Algorithms for Multi-Constraint Graph Partitioning", SC 1998* — the
//! serial partitioner that the Euro-Par 2000 parallel formulation builds on
//! and benchmarks against (where it appears as "the serial multi-constraint
//! algorithm implemented in MeTiS").
//!
//! Every vertex carries a weight vector of `ncon` components; the goal is a
//! k-way partition minimising edge-cut subject to **all** `ncon` balance
//! constraints simultaneously. The algorithm is the classic three-phase
//! multilevel scheme:
//!
//! 1. **Coarsening** ([`matching`], [`coarsen`]) — heavy-edge matching with
//!    the *balanced-edge* tie-break (prefer collapsing vertices whose
//!    combined weight vector is flattest), successively contracting the
//!    graph.
//! 2. **Initial partitioning** ([`initial`], [`rb`]) — multi-constraint
//!    bisection of the coarsest graph (best-of-N greedy region growing with
//!    an LPT-style vector bin-packing fallback, polished by 2-way FM),
//!    applied recursively for k-way.
//! 3. **Uncoarsening** ([`fm2way`], [`kway_refine`], [`balance`]) —
//!    projection plus multi-constraint refinement: 2·m-queue FM for
//!    bisections, greedy boundary refinement for k-way, and an explicit
//!    balancing pass that restores feasibility without destroying quality.
//!
//! The two drivers mirror METIS: [`partition_rb`] (multilevel recursive
//! bisection) and [`partition_kway`] (multilevel k-way, the method all paper
//! experiments use). The single-constraint baseline of the paper's Table 4
//! is the same code at `ncon = 1`, re-exported through [`single`].
//!
//! ```
//! use mcgp_graph::generators::grid_2d;
//! use mcgp_graph::synthetic;
//! use mcgp_core::{partition_kway, PartitionConfig};
//!
//! // A 3-constraint workload on a small mesh, partitioned 4 ways.
//! let mesh = synthetic::type1(&grid_2d(32, 32), 3, 42);
//! let result = partition_kway(&mesh, 4, &PartitionConfig::default());
//! assert_eq!(result.partition.nparts(), 4);
//! assert!(result.quality.max_imbalance < 1.30);
//! ```

pub mod balance;
pub mod boundary;
pub mod coarsen;
pub mod coarsen_smp;
pub mod config;
pub mod fm2way;
pub mod hierarchy;
pub mod initial;
pub mod kway;
pub mod kway_refine;
pub mod kway_refine_smp;
pub mod matching;
pub mod pqueue;
pub mod rb;
pub mod single;

pub use config::{MatchingScheme, PartitionConfig};
pub use hierarchy::HierarchySnapshot;
pub use kway::partition_kway;
pub use rb::partition_rb;
pub use single::{partition_kway_single, partition_rb_single};

use mcgp_graph::{Graph, Partition, PartitionQuality};

/// The outcome of a partitioning run: the assignment plus its measured
/// quality and basic run statistics.
#[derive(Clone, Debug)]
pub struct PartitionResult {
    /// The computed k-way partition.
    pub partition: Partition,
    /// Edge-cut, per-constraint imbalance, communication volume.
    pub quality: PartitionQuality,
    /// Number of coarsening levels the multilevel driver used.
    pub coarsen_levels: usize,
}

impl PartitionResult {
    pub(crate) fn measure(
        graph: &Graph,
        assignment: Vec<u32>,
        nparts: usize,
        levels: usize,
    ) -> Self {
        let partition = Partition::new(nparts, assignment)
            .expect("partitioner produced out-of-range assignment");
        let quality = PartitionQuality::measure(graph, &partition);
        PartitionResult {
            partition,
            quality,
            coarsen_levels: levels,
        }
    }
}
