//! Compressed-sparse-row graph with per-vertex weight vectors.
//!
//! The representation mirrors METIS: `xadj` offsets into `adjncy`/`adjwgt`,
//! plus a flattened `vwgt` array of `nvtxs * ncon` vertex weights. All
//! adjacency indices are `u32` to halve memory traffic on the multi-million
//! vertex graphs of the evaluation; counts and offsets are `usize`.

use crate::{GraphError, Result};

/// Vertex index type used in adjacency lists.
pub type Vertex = u32;

/// An undirected graph in CSR form with `ncon` weights per vertex.
///
/// Invariants (checked by [`Graph::validate`], maintained by all
/// constructors in this crate):
///
/// * `xadj.len() == nvtxs + 1`, `xadj[0] == 0`, `xadj` is non-decreasing;
/// * `adjncy.len() == adjwgt.len() == xadj[nvtxs]`;
/// * adjacency is symmetric with matching edge weights and has no self-loops;
/// * `vwgt.len() == nvtxs * ncon` and every weight is non-negative.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Graph {
    nvtxs: usize,
    ncon: usize,
    xadj: Vec<usize>,
    adjncy: Vec<Vertex>,
    adjwgt: Vec<i64>,
    vwgt: Vec<i64>,
}

impl Graph {
    /// Builds a graph directly from CSR arrays, validating every invariant.
    pub fn from_csr(
        ncon: usize,
        xadj: Vec<usize>,
        adjncy: Vec<Vertex>,
        adjwgt: Vec<i64>,
        vwgt: Vec<i64>,
    ) -> Result<Self> {
        if xadj.is_empty() {
            return Err(GraphError::Malformed(
                "xadj must have length nvtxs + 1 >= 1".into(),
            ));
        }
        let nvtxs = xadj.len() - 1;
        let g = Graph {
            nvtxs,
            ncon,
            xadj,
            adjncy,
            adjwgt,
            vwgt,
        };
        g.validate()?;
        Ok(g)
    }

    /// Builds a graph from CSR arrays **without** validation.
    ///
    /// Intended for hot paths (graph contraction, subgraph extraction) that
    /// construct structurally-correct CSR by construction. Debug builds still
    /// validate.
    pub fn from_csr_unchecked(
        ncon: usize,
        xadj: Vec<usize>,
        adjncy: Vec<Vertex>,
        adjwgt: Vec<i64>,
        vwgt: Vec<i64>,
    ) -> Self {
        let nvtxs = xadj.len() - 1;
        let g = Graph {
            nvtxs,
            ncon,
            xadj,
            adjncy,
            adjwgt,
            vwgt,
        };
        debug_assert!(g.validate().is_ok(), "from_csr_unchecked given invalid CSR");
        g
    }

    /// Number of vertices.
    #[inline]
    pub fn nvtxs(&self) -> usize {
        self.nvtxs
    }

    /// Number of balance constraints (weights per vertex).
    #[inline]
    pub fn ncon(&self) -> usize {
        self.ncon
    }

    /// Number of undirected edges (each stored twice internally).
    #[inline]
    pub fn nedges(&self) -> usize {
        self.adjncy.len() / 2
    }

    /// Length of the adjacency array (`2 * nedges`).
    #[inline]
    pub fn adjacency_len(&self) -> usize {
        self.adjncy.len()
    }

    /// Degree of vertex `v`.
    #[inline]
    pub fn degree(&self, v: usize) -> usize {
        self.xadj[v + 1] - self.xadj[v]
    }

    /// Neighbours of `v`.
    #[inline]
    pub fn neighbors(&self, v: usize) -> &[Vertex] {
        &self.adjncy[self.xadj[v]..self.xadj[v + 1]]
    }

    /// Edge weights aligned with [`Graph::neighbors`].
    #[inline]
    pub fn edge_weights(&self, v: usize) -> &[i64] {
        &self.adjwgt[self.xadj[v]..self.xadj[v + 1]]
    }

    /// Iterator over `(neighbor, edge_weight)` pairs of `v`.
    #[inline]
    pub fn edges(&self, v: usize) -> impl Iterator<Item = (Vertex, i64)> + '_ {
        self.neighbors(v)
            .iter()
            .copied()
            .zip(self.edge_weights(v).iter().copied())
    }

    /// Weight vector of vertex `v` (`ncon` components).
    #[inline]
    pub fn vwgt(&self, v: usize) -> &[i64] {
        &self.vwgt[v * self.ncon..(v + 1) * self.ncon]
    }

    /// The full flattened vertex-weight array (`nvtxs * ncon`).
    #[inline]
    pub fn vwgt_flat(&self) -> &[i64] {
        &self.vwgt
    }

    /// Raw CSR offsets.
    #[inline]
    pub fn xadj(&self) -> &[usize] {
        &self.xadj
    }

    /// Raw adjacency array.
    #[inline]
    pub fn adjncy(&self) -> &[Vertex] {
        &self.adjncy
    }

    /// Raw edge-weight array.
    #[inline]
    pub fn adjwgt(&self) -> &[i64] {
        &self.adjwgt
    }

    /// Sum of each weight component over all vertices.
    pub fn total_vwgt(&self) -> Vec<i64> {
        let mut tot = vec![0i64; self.ncon];
        for v in 0..self.nvtxs {
            for (i, &w) in self.vwgt(v).iter().enumerate() {
                tot[i] += w;
            }
        }
        tot
    }

    /// Sum of all edge weights (each undirected edge counted once).
    pub fn total_adjwgt(&self) -> i64 {
        self.adjwgt.iter().sum::<i64>() / 2
    }

    /// Replaces the vertex weights with a new `nvtxs * ncon_new` array.
    pub fn with_vwgt(mut self, ncon: usize, vwgt: Vec<i64>) -> Result<Self> {
        if vwgt.len() != self.nvtxs * ncon {
            return Err(GraphError::Malformed(format!(
                "vwgt length {} != nvtxs {} * ncon {}",
                vwgt.len(),
                self.nvtxs,
                ncon
            )));
        }
        if vwgt.iter().any(|&w| w < 0) {
            return Err(GraphError::Malformed("negative vertex weight".into()));
        }
        self.ncon = ncon;
        self.vwgt = vwgt;
        Ok(self)
    }

    /// Replaces the edge weights (must match adjacency length, symmetric).
    pub fn with_adjwgt(mut self, adjwgt: Vec<i64>) -> Result<Self> {
        if adjwgt.len() != self.adjncy.len() {
            return Err(GraphError::Malformed("adjwgt length mismatch".into()));
        }
        self.adjwgt = adjwgt;
        self.validate()?;
        Ok(self)
    }

    /// Checks all structural invariants in `O(|V| + |E|)`.
    ///
    /// After [`Graph::validate_cheap`], one pass over the rows finds
    /// duplicate neighbours with a dense per-row marker and counts, for
    /// every vertex `u`, the edges `v → u` coming from a lower vertex
    /// `v < u`. A counting-sort transpose then lists those edges by target,
    /// and the marker matches each one against the reverse entry in row
    /// `u`, weight included; one pass in row order does both. Every row
    /// must also list exactly as many lower neighbours as it has matched
    /// edges: with no duplicates, that makes the reverse pairing a
    /// bijection, so the adjacency is symmetric with equal reverse weights.
    /// The verdict does not depend on the order of any row.
    ///
    /// Transient memory: a `16`-byte marker and an `8`-byte offset per
    /// vertex, plus `12` bytes per undirected edge for the transpose.
    pub fn validate(&self) -> Result<()> {
        self.validate_cheap()?;
        let n = self.nvtxs;
        // `stamp[x] = (row, weight)`: the last row that listed `x`, and the
        // weight it listed `x` with.
        let mut stamp: Vec<(usize, i64)> = vec![(usize::MAX, 0); n];
        // Counts of edges from lower vertices, turned into offsets below.
        let mut tstart = vec![0usize; n + 1];
        for v in 0..n {
            for &u in self.neighbors(v) {
                let seen = &mut stamp[u as usize].0;
                if *seen == v {
                    return Err(GraphError::Malformed(format!("duplicate edge ({v}, {u})")));
                }
                *seen = v;
                if v < u as usize {
                    tstart[u as usize + 1] += 1;
                }
            }
        }
        for u in 0..n {
            tstart[u + 1] += tstart[u];
        }
        // One pass in row order both fills and checks the transpose: every
        // edge into `u` from below comes from an earlier row, so transposed
        // row `u` is complete when row `u` is reached. `tstart[x]` walks
        // from the start of transposed row `x` to its end, which is where
        // row `x + 1` starts. A source below `x` fits a `Vertex` because
        // `x` does.
        let mut tsrc: Vec<Vertex> = vec![0; tstart[n]];
        let mut twgt: Vec<i64> = vec![0; tstart[n]];
        stamp.fill((usize::MAX, 0));
        let mut begin = 0;
        for u in 0..n {
            let mut lower = 0;
            for (x, w) in self.edges(u) {
                let x = x as usize;
                if x < u {
                    stamp[x] = (u, w);
                    lower += 1;
                } else {
                    let slot = &mut tstart[x];
                    tsrc[*slot] = u as Vertex;
                    twgt[*slot] = w;
                    *slot += 1;
                }
            }
            let end = tstart[u];
            for (&v, &w) in tsrc[begin..end].iter().zip(&twgt[begin..end]) {
                match stamp[v as usize] {
                    (row, back) if row == u && back == w => {}
                    (row, back) if row == u => {
                        return Err(GraphError::NotUndirected(format!(
                            "edge ({v},{u}) weight {w} != reverse weight {back}"
                        )))
                    }
                    _ => {
                        return Err(GraphError::NotUndirected(format!(
                            "edge ({v},{u}) has no reverse edge"
                        )))
                    }
                }
            }
            if lower != end - begin {
                // Every edge from below matched a distinct lower neighbour,
                // so some lower neighbour was left without its reverse.
                let matched = &tsrc[begin..end];
                let x = self
                    .neighbors(u)
                    .iter()
                    .find(|&&x| (x as usize) < u && !matched.contains(&x))
                    .expect("an unmatched lower neighbour");
                return Err(GraphError::NotUndirected(format!(
                    "edge ({u},{x}) has no reverse edge"
                )));
            }
            begin = end;
        }
        Ok(())
    }

    /// The `O(|V| + |E|)` subset of [`Graph::validate`]: array lengths,
    /// monotone offsets, index ranges, self-loops, and weight signs — every
    /// invariant except adjacency symmetry/deduplication. This is what
    /// [`crate::check::CheckLevel::Cheap`] runs at each pipeline seam.
    pub fn validate_cheap(&self) -> Result<()> {
        if self.xadj.len() != self.nvtxs + 1 {
            return Err(GraphError::Malformed("xadj length != nvtxs + 1".into()));
        }
        if self.xadj[0] != 0 {
            return Err(GraphError::Malformed("xadj[0] != 0".into()));
        }
        if let Some(v) = self.xadj.windows(2).position(|w| w[0] > w[1]) {
            return Err(GraphError::Malformed(format!(
                "xadj decreasing at vertex {v}"
            )));
        }
        let m = *self.xadj.last().unwrap();
        if self.adjncy.len() != m || self.adjwgt.len() != m {
            return Err(GraphError::Malformed(
                "adjncy/adjwgt length != xadj[nvtxs]".into(),
            ));
        }
        if self.vwgt.len() != self.nvtxs * self.ncon {
            return Err(GraphError::Malformed("vwgt length != nvtxs * ncon".into()));
        }
        // The scans below fold their whole range without branching, so
        // they vectorise; a row's first offender is looked up only when
        // the row fails.
        if self.vwgt.iter().fold(0, |signs, &w| signs | w) < 0 {
            return Err(GraphError::Malformed("negative vertex weight".into()));
        }
        if self.adjwgt.iter().fold(0, |signs, &w| signs | w) < 0 {
            return Err(GraphError::Malformed("negative edge weight".into()));
        }
        for v in 0..self.nvtxs {
            let row = self.neighbors(v);
            let n = self.nvtxs;
            if !row
                .iter()
                .fold(false, |bad, &u| bad | (u as usize >= n) | (u as usize == v))
            {
                continue;
            }
            for &u in row {
                if u as usize >= n {
                    return Err(GraphError::Malformed(format!(
                        "vertex {v} has out-of-range neighbor {u}"
                    )));
                }
                if u as usize == v {
                    return Err(GraphError::NotUndirected(format!(
                        "self-loop at vertex {v}"
                    )));
                }
            }
        }
        Ok(())
    }
}

/// Incremental builder that symmetrises and deduplicates edges.
///
/// Edges may be added in either or both directions; parallel edges are merged
/// by summing weights; self-loops are dropped. Vertex weights default to a
/// single unit constraint unless [`GraphBuilder::vwgt`] is set.
///
/// ```
/// use mcgp_graph::GraphBuilder;
/// let mut b = GraphBuilder::new(3);
/// b.edge(0, 1).weighted_edge(1, 2, 4);
/// b.vwgt(2, vec![1, 10, 2, 20, 3, 30]); // 2 constraints
/// let g = b.build().unwrap();
/// assert_eq!(g.nedges(), 2);
/// assert_eq!(g.vwgt(1), &[2, 20]);
/// ```
#[derive(Clone, Debug)]
pub struct GraphBuilder {
    nvtxs: usize,
    ncon: usize,
    edges: Vec<(Vertex, Vertex, i64)>,
    vwgt: Option<Vec<i64>>,
}

impl GraphBuilder {
    /// Creates a builder for a graph of `nvtxs` vertices.
    pub fn new(nvtxs: usize) -> Self {
        GraphBuilder {
            nvtxs,
            ncon: 1,
            edges: Vec::new(),
            vwgt: None,
        }
    }

    /// Adds an undirected edge of weight 1.
    pub fn edge(&mut self, u: usize, v: usize) -> &mut Self {
        self.weighted_edge(u, v, 1)
    }

    /// Adds an undirected edge with the given weight.
    pub fn weighted_edge(&mut self, u: usize, v: usize, w: i64) -> &mut Self {
        self.edges.push((u as Vertex, v as Vertex, w));
        self
    }

    /// Sets the vertex weights (flattened `nvtxs * ncon`).
    pub fn vwgt(&mut self, ncon: usize, vwgt: Vec<i64>) -> &mut Self {
        self.ncon = ncon;
        self.vwgt = Some(vwgt);
        self
    }

    /// Finalises into a validated [`Graph`].
    pub fn build(&self) -> Result<Graph> {
        let n = self.nvtxs;
        // Collect both directions, drop self-loops, merge duplicates.
        let mut dir: Vec<(Vertex, Vertex, i64)> = Vec::with_capacity(self.edges.len() * 2);
        for &(u, v, w) in &self.edges {
            if u as usize >= n || v as usize >= n {
                return Err(GraphError::Malformed(format!(
                    "edge ({u},{v}) out of range"
                )));
            }
            if u == v {
                continue;
            }
            if w < 0 {
                return Err(GraphError::Malformed(format!(
                    "edge ({u},{v}) has negative weight"
                )));
            }
            dir.push((u, v, w));
            dir.push((v, u, w));
        }
        dir.sort_unstable();
        let mut xadj = vec![0usize; n + 1];
        let mut adjncy = Vec::with_capacity(dir.len());
        let mut adjwgt = Vec::with_capacity(dir.len());
        let mut i = 0;
        while i < dir.len() {
            let (u, v, mut w) = dir[i];
            let mut j = i + 1;
            while j < dir.len() && dir[j].0 == u && dir[j].1 == v {
                w += dir[j].2;
                j += 1;
            }
            xadj[u as usize + 1] += 1;
            adjncy.push(v);
            adjwgt.push(w);
            i = j;
        }
        for v in 0..n {
            xadj[v + 1] += xadj[v];
        }
        let vwgt = match &self.vwgt {
            Some(w) => {
                if w.len() != n * self.ncon {
                    return Err(GraphError::Malformed(format!(
                        "vwgt length {} != nvtxs {} * ncon {}",
                        w.len(),
                        n,
                        self.ncon
                    )));
                }
                w.clone()
            }
            None => vec![1i64; n],
        };
        Graph::from_csr(self.ncon, xadj, adjncy, adjwgt, vwgt)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use mcgp_runtime::rng::Rng;

    fn triangle() -> Graph {
        let mut b = GraphBuilder::new(3);
        b.edge(0, 1).edge(1, 2).edge(2, 0);
        b.build().unwrap()
    }

    #[test]
    fn builder_produces_symmetric_csr() {
        let g = triangle();
        assert_eq!(g.nvtxs(), 3);
        assert_eq!(g.nedges(), 3);
        assert_eq!(g.neighbors(0), &[1, 2]);
        assert_eq!(g.neighbors(1), &[0, 2]);
        assert_eq!(g.neighbors(2), &[0, 1]);
    }

    #[test]
    fn builder_merges_parallel_edges() {
        let mut b = GraphBuilder::new(2);
        b.weighted_edge(0, 1, 2).weighted_edge(1, 0, 3);
        let g = b.build().unwrap();
        assert_eq!(g.nedges(), 1);
        assert_eq!(g.edge_weights(0), &[5]);
        assert_eq!(g.edge_weights(1), &[5]);
    }

    #[test]
    fn builder_drops_self_loops() {
        let mut b = GraphBuilder::new(2);
        b.edge(0, 0).edge(0, 1);
        let g = b.build().unwrap();
        assert_eq!(g.nedges(), 1);
        assert_eq!(g.neighbors(0), &[1]);
    }

    #[test]
    fn default_vertex_weights_are_unit_single_constraint() {
        let g = triangle();
        assert_eq!(g.ncon(), 1);
        assert_eq!(g.vwgt(1), &[1]);
        assert_eq!(g.total_vwgt(), vec![3]);
    }

    #[test]
    fn multi_constraint_weights_roundtrip() {
        let mut b = GraphBuilder::new(2);
        b.edge(0, 1).vwgt(3, vec![1, 2, 3, 4, 5, 6]);
        let g = b.build().unwrap();
        assert_eq!(g.ncon(), 3);
        assert_eq!(g.vwgt(0), &[1, 2, 3]);
        assert_eq!(g.vwgt(1), &[4, 5, 6]);
        assert_eq!(g.total_vwgt(), vec![5, 7, 9]);
    }

    #[test]
    fn validate_rejects_asymmetric() {
        let err = Graph::from_csr(1, vec![0, 1, 1], vec![1], vec![1], vec![1, 1]);
        assert!(matches!(err, Err(GraphError::NotUndirected(_))));
    }

    #[test]
    fn validate_rejects_out_of_range_neighbor() {
        let err = Graph::from_csr(1, vec![0, 1], vec![5], vec![1], vec![1]);
        assert!(matches!(err, Err(GraphError::Malformed(_))));
    }

    #[test]
    fn validate_rejects_mismatched_reverse_weight() {
        let err = Graph::from_csr(1, vec![0, 1, 2], vec![1, 0], vec![2, 3], vec![1, 1]);
        assert!(matches!(err, Err(GraphError::NotUndirected(_))));
    }

    #[test]
    fn validate_rejects_negative_weights() {
        let err = Graph::from_csr(1, vec![0, 1, 2], vec![1, 0], vec![1, 1], vec![-1, 1]);
        assert!(matches!(err, Err(GraphError::Malformed(_))));
    }

    /// The defects `validate` must name, with the variant it names each by.
    #[derive(Clone, Copy, Debug)]
    enum Defect {
        MissingReverse,
        ReverseWeight,
        Duplicate,
        SelfLoop,
    }

    /// `g` relabelled at random, with every row's entries shuffled and
    /// symmetric non-unit edge weights, as raw CSR arrays.
    fn scrambled(g: &Graph, rng: &mut Rng) -> (Vec<usize>, Vec<Vertex>, Vec<i64>) {
        let mut iperm: Vec<u32> = (0..g.nvtxs() as u32).collect();
        rng.shuffle(&mut iperm);
        let g = crate::permute::permute(g, &iperm);
        let mut xadj = vec![0];
        let (mut adjncy, mut adjwgt) = (Vec::new(), Vec::new());
        for v in 0..g.nvtxs() {
            let mut row: Vec<(Vertex, i64)> = g
                .neighbors(v)
                .iter()
                .map(|&u| (u, (v as i64 ^ i64::from(u)) % 7 + 1))
                .collect();
            rng.shuffle(&mut row);
            adjncy.extend(row.iter().map(|e| e.0));
            adjwgt.extend(row.iter().map(|e| e.1));
            xadj.push(adjncy.len());
        }
        (xadj, adjncy, adjwgt)
    }

    #[test]
    fn validate_ignores_row_order_and_names_every_defect() {
        use crate::generators::{mrng_like, rmat_default};
        for seed in 0..8u64 {
            let mut rng = Rng::seed_from_u64(seed);
            let g = if seed % 2 == 0 {
                mrng_like(300 + 50 * seed as usize, seed)
            } else {
                rmat_default(8, 4, seed)
            };
            let n = g.nvtxs();
            for defect in [
                None,
                Some(Defect::MissingReverse),
                Some(Defect::ReverseWeight),
                Some(Defect::Duplicate),
                Some(Defect::SelfLoop),
            ] {
                let (mut xadj, mut adjncy, mut adjwgt) = scrambled(&g, &mut rng);
                // A vertex with two neighbours, so a duplicate can be made.
                let v = loop {
                    let v = rng.gen_range(0..n);
                    if xadj[v + 1] - xadj[v] >= 2 {
                        break v;
                    }
                };
                let p = xadj[v] + rng.gen_range(0..xadj[v + 1] - xadj[v]);
                match defect {
                    None => {}
                    Some(Defect::MissingReverse) => {
                        adjncy.remove(p);
                        adjwgt.remove(p);
                        for x in &mut xadj[v + 1..] {
                            *x -= 1;
                        }
                    }
                    Some(Defect::ReverseWeight) => adjwgt[p] += 1,
                    Some(Defect::Duplicate) => {
                        let q = if p == xadj[v] { p + 1 } else { p - 1 };
                        adjncy[p] = adjncy[q];
                    }
                    Some(Defect::SelfLoop) => adjncy[p] = v as Vertex,
                }
                let vwgt = vec![1; n];
                let got = Graph::from_csr(1, xadj, adjncy, adjwgt, vwgt);
                let case = format!("seed {seed}, {defect:?} at vertex {v}");
                match defect {
                    None => assert!(got.is_ok(), "{case}: {:?}", got.err()),
                    Some(Defect::Duplicate) => {
                        assert!(
                            matches!(got, Err(GraphError::Malformed(_))),
                            "{case}: {got:?}"
                        )
                    }
                    Some(_) => assert!(
                        matches!(got, Err(GraphError::NotUndirected(_))),
                        "{case}: {got:?}"
                    ),
                }
            }
        }
    }

    #[test]
    fn empty_graph_is_valid() {
        let g = Graph::from_csr(1, vec![0], vec![], vec![], vec![]).unwrap();
        assert_eq!(g.nvtxs(), 0);
        assert_eq!(g.nedges(), 0);
    }

    #[test]
    fn total_adjwgt_counts_each_edge_once() {
        let mut b = GraphBuilder::new(3);
        b.weighted_edge(0, 1, 4).weighted_edge(1, 2, 6);
        let g = b.build().unwrap();
        assert_eq!(g.total_adjwgt(), 10);
    }

    #[test]
    fn edges_iterator_pairs_neighbors_with_weights() {
        let mut b = GraphBuilder::new(3);
        b.weighted_edge(0, 1, 4).weighted_edge(0, 2, 7);
        let g = b.build().unwrap();
        let pairs: Vec<_> = g.edges(0).collect();
        assert_eq!(pairs, vec![(1, 4), (2, 7)]);
    }
}
