//! Inputs. The program under test sees only the generated graphs or
//! their METIS bodies.
//!
//! The graphs are a fixed instance set, as in the usual convention of
//! judging partitioners by time and geometric-mean cut on fixed
//! instances: the meshes and weights come from [`INSTANCE_SEED`]. The
//! workload seed drives everything else: partitioning and request seeds,
//! the `k` order and the request mix order. A partitioner's cut varies by
//! several per cent from one seed to the next, so a run averages over many
//! partitioning seeds of one instance rather than one seed each of many
//! instances.

use mcgp_graph::generators::{mrng_like, rmat_default};
use mcgp_graph::{io, synthetic, Graph};
use mcgp_runtime::Rng;

/// Input scale. `Full` is the benchmark; `Tiny` exists so the benchmark's
/// own tests can run every workload in seconds.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Size {
    Full,
    Tiny,
}

impl Size {
    /// The 200k-vertex mesh of the ROADMAP anchors (a 15 MB METIS body at
    /// ncon 3).
    pub fn mesh_nvtxs(self) -> usize {
        match self {
            Size::Full => 200_000,
            Size::Tiny => 3_000,
        }
    }

    /// The paper-grid mesh.
    pub fn grid_nvtxs(self) -> usize {
        match self {
            Size::Full => 50_000,
            Size::Tiny => 2_000,
        }
    }

    /// R-MAT scale of the skewed serve-warm graph.
    pub fn rmat_scale(self) -> u32 {
        match self {
            Size::Full => 16,
            Size::Tiny => 9,
        }
    }
}

/// Seed of the instance set: the default seed of `mcgp partition`, so the
/// 200k mesh is the `gen:mrng:200000:3` instance of the ROADMAP anchors.
pub const INSTANCE_SEED: u64 = 4242;

/// An independent 64-bit value for `stream` under `seed`, so every seed
/// and order of a run derives from the one workload seed without sharing
/// draws.
pub fn derive(seed: u64, stream: u64) -> u64 {
    Rng::seed_from_u64(seed ^ stream.wrapping_mul(0x9e37_79b9_7f4a_7c15)).next_u64()
}

/// An RNG for `stream` under `seed`.
pub fn rng(seed: u64, stream: u64) -> Rng {
    Rng::seed_from_u64(derive(seed, stream))
}

/// The mrng-like mesh of the instance set.
pub fn mesh(nvtxs: usize) -> Graph {
    mrng_like(nvtxs, INSTANCE_SEED)
}

/// The mesh with Type-1 weights on `ncon` constraints.
pub fn type1_mesh(nvtxs: usize, ncon: usize) -> Graph {
    synthetic::type1(&mesh(nvtxs), ncon, INSTANCE_SEED)
}

pub fn rmat(scale: u32) -> Graph {
    rmat_default(scale, 8, INSTANCE_SEED)
}

pub fn metis_body(graph: &Graph) -> Vec<u8> {
    let mut body = Vec::new();
    io::write_metis(graph, &mut body).expect("writing METIS text to memory cannot fail");
    body
}
