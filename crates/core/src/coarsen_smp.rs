//! Shared-memory parallel coarsening: conflict-arbitrated matching and a
//! two-pass contraction kernel.
//!
//! This is the Euro-Par 2000 proposal/arbitration matching protocol
//! (distributed-style in `mcgp-parallel::match_par`) rebuilt as a
//! shared-memory kernel on the `mcgp-runtime` pool. Vertices are striped
//! across `nthreads` workers; a fixed number of supersteps alternate vertex
//! parity — proposers of parity `round % 2` pick their best unmatched
//! opposite-parity neighbour, and an arbitration superstep grants exactly
//! one proposal per target under the shared rule of
//! [`crate::matching::grant_beats`] (heaviest edge, flattest combined
//! weight vector, **lowest proposer id** — the paper's deterministic
//! conflict tie-break). Parity makes proposer and target sets disjoint, so
//! every grant of a round commits without further conflict checks. A final
//! serial [`greedy_match_pass`] over the unmatched tail keeps coarsening
//! ratios close to serial heavy-edge matching.
//!
//! Contraction is two passes over striped coarse vertices: pass one walks
//! each stripe's `mate` entries exactly once, collecting the stripe's
//! representative pairs, each representative's *rank within its stripe*,
//! and the stripe's slab capacity (summed degree bounds); prefix sums turn
//! ranks into global coarse ids and capacities into slab bases, and pass
//! two resolves every vertex's coarse id arithmetically (owner's stripe
//! base + rank — stripes are near-equal, so the owning stripe is a
//! division, not a search). The row fill then writes each stripe's rows
//! *packed contiguously* into its slab using per-worker *timestamped*
//! marker tables (generation counters replace the reset-to-`NONE` walk of
//! [`crate::coarsen::ContractionScratch`], so a worker never rescans what
//! it wrote; stamp and slot live in one interleaved cell, so the hot
//! first-seen test costs a single random access — the same count as the
//! serial kernel's position table, where the split-array layout cost two).
//! Because rows are packed as they are produced, no per-row compaction
//! pass exists at all: finalisation is one copy-out of each stripe's
//! filled prefix into the exact-size CSR (the slack the degree bound
//! over-reserved stays behind in the slabs, which persist in
//! [`SmpCoarsenScratch`] across levels so only the finest level pays
//! allocation). When the physical worker budget is a single thread
//! (`pool::threads_for(nthreads) <= 1`), [`contract_smp`] delegates to
//! the serial kernel outright — an execution-strategy choice, not an
//! output change, because its output is bit-identical to serial at every
//! stripe count.
//!
//! **Determinism contract.** The output — matching, coarse ids, and the
//! exact CSR edge order — depends only on `(graph, scheme, seed, nthreads)`.
//! The stripe count `nthreads` shapes the result; the number of OS threads
//! the pool actually uses (`MCGP_THREADS`, `available_parallelism`) never
//! does, because every worker writes to its own stripe and merges happen in
//! stripe order. For a fixed matching, [`contract_smp`] reproduces the
//! serial [`crate::coarsen::contract`] CSR **bit for bit**: coarse ids are
//! assigned in fine-vertex order of the lower pair endpoint and rows are
//! filled in the same first-seen neighbour order.

use crate::config::MatchingScheme;
use crate::matching::{
    combined_spread, grant_beats, greedy_match_pass, inv_totals, GraphMatching,
};
use mcgp_graph::csr::Vertex;
use mcgp_graph::Graph;
use mcgp_runtime::metrics::{counter_add, Counter};
use mcgp_runtime::pool::{self, exclusive_prefix_sum, stripe_bounds, zip_map};
use mcgp_runtime::rng::{Rng, SliceRandom};
use mcgp_runtime::event;

/// Proposal/arbitration supersteps before the serial cleanup tail. Two per
/// parity: the second chance lets vertices whose first target was granted
/// away re-propose, which empirically leaves a tail small enough that the
/// serial pass stays a minor fraction of the matching work.
const ROUNDS: usize = 4;

/// Below this many vertices the striped supersteps cost more than they
/// save; [`crate::coarsen::coarsen`] drops to the serial path. Gating on a
/// fixed constant keeps the `(seed, nthreads)` determinism contract intact
/// — and the constant is low enough that the differential-sweep graphs
/// (~1–2k vertices) genuinely exercise the parallel engine.
pub const SMP_MIN_NVTXS: usize = 600;

/// One matching proposal: `proposer` (parity `round % 2`) asks to collapse
/// its edge to `target` (opposite parity).
struct Proposal {
    target: u32,
    proposer: u32,
    edge_w: i64,
}

/// One target's best proposal so far, live only while `stamp` matches the
/// current round (see the arbitration superstep of [`match_smp`]).
#[derive(Clone, Copy, Default)]
struct ArbSlot {
    stamp: u32,
    proposer: u32,
    edge_w: i64,
    spread: f64,
}

/// Parallel balanced-heavy-edge matching over `nthreads` vertex stripes.
/// Deterministic for a fixed `(graph, scheme, seed, nthreads)`; valid by
/// construction (involution, matched pairs adjacent).
pub fn match_smp(
    graph: &Graph,
    scheme: MatchingScheme,
    nthreads: usize,
    seed: u64,
) -> GraphMatching {
    let n = graph.nvtxs();
    let stripes = nthreads.max(1);
    let _s = mcgp_runtime::span!("match_smp", nvtxs = n, stripes = stripes);
    let bounds = stripe_bounds(n, stripes);
    let mut mate: Vec<u32> = (0..n as u32).collect();
    let mut matched = vec![false; n];
    let inv_tot = inv_totals(graph);
    let balanced = scheme == MatchingScheme::BalancedHeavyEdge && graph.ncon() > 1;
    let mut pairs = 0usize;

    // Stripe owning a vertex: the first `n % stripes` stripes are one
    // element longer than the rest, so ownership is two divisions — no
    // binary search in the proposal hot loop.
    let (quota, extra) = (n / stripes, n % stripes);
    let long_end = (quota + 1) * extra;
    let stripe_of = move |v: usize| {
        if v < long_end {
            v / (quota + 1)
        } else {
            extra + (v - long_end) / quota
        }
    };

    // Arbitration slots, one per vertex, validated by a per-round stamp: the
    // arena is allocated (and zeroed) once per matching call instead of a
    // fresh `Vec<Option<..>>` per round, and only slots a proposal actually
    // touches are ever written — later rounds have few proposals, so the
    // arbitration superstep costs O(proposals), not O(n).
    let mut arb: Vec<ArbSlot> = vec![ArbSlot::default(); n];

    // Per-parity re-proposal candidates: round `r + 2` only needs the
    // proposers that *lost* arbitration in round `r` — a parity-`p` vertex
    // that proposed nothing in round `r` cannot propose later either (the
    // matched set only grows, so candidate neighbourhoods only shrink), and
    // winners are matched. Keeping the loser lists sorted by vertex id makes
    // the re-proposal sweep visit vertices in exactly the order the full
    // stripe scan would, so the output (including the Random scheme's RNG
    // stream) is identical — the full rescans of later rounds just never run.
    let mut losers: [Option<Vec<Vec<u32>>>; 2] = [None, None];

    for round in 0..ROUNDS {
        let parity = round % 2;
        let cands = losers[parity].take();
        // --- Proposal superstep -----------------------------------------
        // Each worker scans its stripe's unmatched parity-`parity` vertices
        // (first same-parity round: the whole stripe; later rounds: the
        // previous same-parity round's arbitration losers) and proposes to
        // the best unmatched opposite-parity neighbour, bucketing proposals
        // by the target's stripe. `matched` is read-only until grants land,
        // so workers are independent.
        let cands = &cands;
        let per_stripe: Vec<Vec<Vec<Proposal>>> = pool::map(stripes, |s| {
            let mut rng =
                Rng::seed_from_u64(seed ^ ((round as u64) << 32) ^ ((s as u64) << 8));
            let mut out: Vec<Vec<Proposal>> = (0..stripes).map(|_| Vec::new()).collect();
            let mut propose = |v: usize, rng: &mut Rng| {
                if matched[v] {
                    return;
                }
                let vw = graph.vwgt(v);
                let mut best: Option<(i64, f64, u32)> = None;
                for (u, w) in graph.edges(v) {
                    let ug = u as usize;
                    if matched[ug] || ug % 2 == parity {
                        continue;
                    }
                    let better_w = best.is_none_or(|(bw, _, _)| w > bw);
                    let tie_w = best.is_some_and(|(bw, _, _)| w == bw);
                    if !better_w && !tie_w {
                        continue;
                    }
                    let spread = if balanced {
                        combined_spread(vw, graph.vwgt(ug), &inv_tot)
                    } else {
                        0.0
                    };
                    if better_w || best.is_none_or(|(_, bs, _)| spread < bs) {
                        best = Some((w, spread, u));
                    }
                }
                if scheme == MatchingScheme::Random {
                    // Random scheme ignores weights: a uniformly random
                    // unmatched opposite-parity neighbour instead.
                    let cands: Vec<(u32, i64)> = graph
                        .edges(v)
                        .filter(|&(u, _)| !matched[u as usize] && u as usize % 2 != parity)
                        .collect();
                    best = cands.choose(rng).map(|&(u, w)| (w, 0.0, u));
                }
                if let Some((w, _, u)) = best {
                    out[stripe_of(u as usize)].push(Proposal {
                        target: u,
                        proposer: v as u32,
                        edge_w: w,
                    });
                }
            };
            match cands {
                Some(lists) => {
                    for &v in &lists[s] {
                        propose(v as usize, &mut rng);
                    }
                }
                None => {
                    for v in (bounds[s] + (bounds[s] + parity) % 2..bounds[s + 1]).step_by(2) {
                        propose(v, &mut rng);
                    }
                }
            }
            out
        });

        // --- Arbitration superstep --------------------------------------
        // Worker `t` owns the targets of stripe `t`: it scans the
        // proposals every stripe bucketed for it and keeps one winner per
        // target under the shared Euro-Par rule. The winner is a pure
        // function of the proposal set, so scheduling cannot perturb it.
        // Targets are collected in first-proposal order (stripe order, then
        // bucket order — deterministic), so no O(stripe) winner scan runs.
        let stamp = round as u32 + 1;
        let grants: Vec<Vec<(u32, u32)>> = {
            let arb_chunks = split_chunks(&mut arb[..], &bounds);
            zip_map(arb_chunks, |t, slots| {
                let lo = bounds[t];
                let mut hit: Vec<u32> = Vec::new();
                for from in &per_stripe {
                    for pr in &from[t] {
                        let spread = if balanced {
                            combined_spread(
                                graph.vwgt(pr.proposer as usize),
                                graph.vwgt(pr.target as usize),
                                &inv_tot,
                            )
                        } else {
                            0.0
                        };
                        let key = (pr.edge_w, spread, pr.proposer);
                        let slot = &mut slots[pr.target as usize - lo];
                        if slot.stamp != stamp {
                            hit.push(pr.target);
                        } else if !grant_beats(key, (slot.edge_w, slot.spread, slot.proposer)) {
                            continue;
                        }
                        *slot = ArbSlot {
                            stamp,
                            proposer: pr.proposer,
                            edge_w: pr.edge_w,
                            spread,
                        };
                    }
                }
                hit.iter()
                    .map(|&u| (slots[u as usize - lo].proposer, u))
                    .collect()
            })
        };

        // --- Commit (stripe-then-target order) --------------------------
        // Proposers (parity `parity`) and targets (opposite parity) are
        // disjoint sets, each proposer proposed at most once, and each
        // target granted at most once — so every grant commits.
        let nprops: usize = per_stripe.iter().flatten().map(Vec::len).sum();
        let mut ngrants = 0usize;
        for stripe_grants in &grants {
            for &(v, u) in stripe_grants {
                debug_assert!(!matched[v as usize] && !matched[u as usize]);
                mate[v as usize] = u;
                mate[u as usize] = v;
                matched[v as usize] = true;
                matched[u as usize] = true;
                ngrants += 1;
            }
        }
        pairs += ngrants;
        if round + 2 < ROUNDS {
            losers[parity] = Some(
                per_stripe
                    .iter()
                    .map(|from| {
                        let mut l: Vec<u32> = from
                            .iter()
                            .flatten()
                            .map(|pr| pr.proposer)
                            .filter(|&p| !matched[p as usize])
                            .collect();
                        l.sort_unstable();
                        l
                    })
                    .collect(),
            );
        }
        // Losing proposals are the protocol's arbitration conflicts.
        counter_add(Counter::MatchConflicts, (nprops - ngrants) as u64);
        event!(
            "match_smp_round",
            round = round,
            parity = parity,
            proposals = nprops,
            grants = ngrants,
            conflicts = nprops - ngrants,
        );
    }

    // --- Serial cleanup tail -------------------------------------------
    // Whatever parity restrictions and lost arbitrations left unmatched
    // gets one communication-free greedy pass (any parity), in a seeded
    // random order — serial HEM on the remainder, which is what keeps the
    // coarsening ratio close to the serial matcher's.
    let mut leftover: Vec<u32> = (0..n as u32).filter(|&v| !matched[v as usize]).collect();
    let mut rng = Rng::seed_from_u64(seed ^ 0xC1EA_4011);
    leftover.shuffle(&mut rng);
    event!("match_smp_cleanup", leftover = leftover.len(), nvtxs = n);
    pairs += greedy_match_pass(
        graph,
        scheme,
        &leftover,
        &mut mate,
        &mut matched,
        &inv_tot,
        &mut rng,
    );

    GraphMatching {
        mate,
        coarse_nvtxs: n - pairs,
    }
}

/// One marker-table cell: `stamp` says whether the coarse neighbour is in
/// the current row, `slot` where. Interleaved in one 8-byte cell so the
/// row fill's first-seen test costs a single random access (the split
/// `mark`/`slot` array layout cost two misses per distinct neighbour —
/// measurably the contraction kernel's hottest loss against the serial
/// position table).
#[derive(Clone, Copy, Debug, Default)]
struct MarkCell {
    stamp: u32,
    slot: u32,
}

/// Per-worker timestamped marker table for the row-fill pass.
/// `cells[cu].stamp == stamp` means coarse neighbour `cu` is already in
/// the current row at position `cells[cu].slot`; bumping `stamp`
/// invalidates the whole table in O(1), so there is no per-row reset walk
/// at all.
#[derive(Debug, Default)]
struct MarkerTable {
    stamp: u32,
    cells: Vec<MarkCell>,
}

impl MarkerTable {
    /// Grows the table to cover `cn` coarse vertices (entries start at
    /// generation 0, i.e. "never seen").
    fn ensure(&mut self, cn: usize) {
        if self.cells.len() < cn {
            self.cells.resize(cn, MarkCell::default());
        }
    }

    /// Starts a new row and returns its generation stamp.
    fn begin_row(&mut self) -> u32 {
        if self.stamp == u32::MAX {
            // Generation counter exhausted (4 billion rows): hard reset.
            self.cells.fill(MarkCell::default());
            self.stamp = 0;
        }
        self.stamp += 1;
        self.stamp
    }
}

/// Reusable scratch of the two-pass contraction kernel. Everything here —
/// per-worker marker tables, the representative-id map, and row lengths —
/// persists across hierarchy levels, sized once by the finest level and
/// reused shrinking downwards. (The slab buffers themselves are *not*
/// scratch: the fill writes them packed, so they become the coarse graph's
/// CSR arrays by move instead of by copy.)
#[derive(Debug, Default)]
pub struct SmpCoarsenScratch {
    markers: Vec<MarkerTable>,
    /// Rank of each representative fine vertex *within its own stripe*
    /// (garbage at non-representative indices); global coarse id =
    /// stripe's id base + rank.
    rank_id: Vec<u32>,
    /// Per-stripe representative pairs `(v, mate)` in fine order.
    rep_lists: Vec<Vec<(u32, u32)>>,
    /// Actual row lengths after the fill.
    row_len: Vec<u32>,
    /// Degree-bound-sized adjacency slabs the stripes fill in parallel.
    /// Persisting them across levels means only the finest level ever pays
    /// for the allocation; every coarser level writes warm pages.
    adj_slab: Vec<Vertex>,
    wgt_slab: Vec<i64>,
    /// Scratch for the serial-delegation fast path [`contract_smp`] takes
    /// when the pool cannot actually run the stripes concurrently.
    serial: crate::coarsen::ContractionScratch,
}

impl SmpCoarsenScratch {
    /// An empty scratch; grows on first use.
    pub fn new() -> Self {
        SmpCoarsenScratch::default()
    }
}

/// Splits the first `bounds.last()` elements of `data` into the chunks
/// delimited by `bounds` (one per stripe) — the safe way to hand each
/// worker a disjoint `&mut` view of a shared output buffer.
fn split_chunks<'a, T>(mut data: &'a mut [T], bounds: &[usize]) -> Vec<&'a mut [T]> {
    let mut out = Vec::with_capacity(bounds.len().saturating_sub(1));
    for w in bounds.windows(2) {
        let (chunk, rest) = data.split_at_mut(w[1] - w[0]);
        out.push(chunk);
        data = rest;
    }
    out
}

/// Two-pass parallel contraction of `graph` along `matching` over
/// `nthreads` stripes. Produces the **identical** coarse CSR and
/// fine→coarse map as the serial [`crate::coarsen::contract`] for the same
/// matching, at any stripe count.
pub fn contract_smp(
    graph: &Graph,
    matching: &GraphMatching,
    nthreads: usize,
    scratch: &mut SmpCoarsenScratch,
) -> (Graph, Vec<u32>) {
    // Contraction is matching-determined: the striped kernel reproduces the
    // serial CSR bit for bit at every stripe count, so — unlike the
    // matching, whose *output* is shaped by the stripe count — the stripe
    // structure here is purely an execution strategy. When the pool has no
    // second worker to offer (single-core host, MCGP_THREADS=1, budget
    // exhausted by an enclosing region), the striped passes are pure
    // overhead and the serial kernel is the faster way to compute the very
    // same answer.
    if nthreads > 1 && pool::threads_for(nthreads) <= 1 {
        return crate::coarsen::contract_with_scratch(graph, matching, &mut scratch.serial);
    }
    let n = graph.nvtxs();
    let ncon = graph.ncon();
    let cn = matching.coarse_nvtxs;
    let stripes = nthreads.max(1);
    let _s = mcgp_runtime::span!("contract_smp", nvtxs = n, coarse_nvtxs = cn, stripes = stripes);
    let bounds = stripe_bounds(n, stripes);
    let mate = &matching.mate;
    let SmpCoarsenScratch {
        markers,
        rank_id,
        rep_lists,
        row_len,
        adj_slab,
        wgt_slab,
        serial: _,
    } = scratch;

    // --- Pass 1: stripe ranks, representative pairs, slab capacities ------
    // A vertex represents its pair iff it is the lower endpoint
    // (`mate[v] >= v` also covers singletons); ids are assigned in fine
    // order, reproducing the serial numbering. One sweep of each stripe's
    // `mate` entries yields everything the later passes need: the stripe's
    // representative pairs (collected into a per-stripe scratch list), each
    // representative's rank within the stripe, and the stripe's degree
    // bound — the summed fine degrees of its representatives upper-bound
    // the stripe's coarse adjacency exactly (contraction only merges or
    // drops edges). Prefix sums then turn ranks into global coarse ids and
    // capacities into output slab bases.
    if rank_id.len() < n {
        rank_id.resize(n, 0);
    }
    while rep_lists.len() < stripes {
        rep_lists.push(Vec::new());
    }
    let slab_caps: Vec<usize> = {
        let rank_chunks = split_chunks(&mut rank_id[..], &bounds);
        let list_refs: Vec<&mut Vec<(u32, u32)>> =
            rep_lists.iter_mut().take(stripes).collect();
        let items: Vec<_> = rank_chunks.into_iter().zip(list_refs).collect();
        zip_map(items, |s, (ranks, reps)| {
            reps.clear();
            let mut cap = 0usize;
            for (i, v) in (bounds[s]..bounds[s + 1]).enumerate() {
                let u = mate[v] as usize;
                if u >= v {
                    ranks[i] = reps.len() as u32;
                    reps.push((v as u32, u as u32));
                    cap += graph.degree(v);
                    if u != v {
                        cap += graph.degree(u);
                    }
                }
            }
            cap
        })
    };
    let rep_counts: Vec<usize> = rep_lists.iter().take(stripes).map(Vec::len).collect();
    let rep_base = exclusive_prefix_sum(&rep_counts);
    let slab_base = exclusive_prefix_sum(&slab_caps);
    debug_assert_eq!(rep_base[stripes], cn, "matching miscounted coarse_nvtxs");
    let (rank_id, rep_lists) = (&rank_id[..], &rep_lists[..]);

    // --- Pass 2: every vertex inherits its representative's coarse id -----
    // The owner's global id is its stripe's base plus its rank; the owning
    // stripe is arithmetic (stripes are near-equal: the first `n % stripes`
    // are one element longer), so no search and no global id array.
    let (quota, extra) = (n / stripes, n % stripes);
    let long_end = (quota + 1) * extra;
    let stripe_of = move |v: usize| {
        if v < long_end {
            v / (quota + 1)
        } else {
            extra + (v - long_end) / quota
        }
    };
    let mut cmap = vec![0u32; n];
    {
        let chunks = split_chunks(&mut cmap[..], &bounds);
        zip_map(chunks, |s, chunk| {
            for (i, v) in (bounds[s]..bounds[s + 1]).enumerate() {
                let u = mate[v] as usize;
                let (owner, os) = if u >= v { (v, s) } else { (u, stripe_of(u)) };
                chunk[i] = (rep_base[os] + rank_id[owner] as usize) as u32;
            }
        });
    }

    // --- Pass 3: parallel packed row fill ---------------------------------
    // Each stripe writes its rows back-to-back into its own scratch slab:
    // the compaction that used to be a third pass is fused into the fill,
    // and finalisation copies each stripe's packed block straight to its
    // final offset in the exact-size CSR arrays.
    let slab_total = slab_base[stripes];
    if adj_slab.len() < slab_total {
        adj_slab.resize(slab_total, 0);
    }
    if wgt_slab.len() < slab_total {
        wgt_slab.resize(slab_total, 0);
    }
    if row_len.len() < cn {
        row_len.resize(cn, 0);
    }
    while markers.len() < stripes {
        markers.push(MarkerTable::default());
    }
    let mut vwgt = vec![0i64; cn * ncon];
    let vwgt_bounds: Vec<usize> = rep_base.iter().map(|&c| c * ncon).collect();
    let actual: Vec<usize> = {
        let an_chunks = split_chunks(&mut adj_slab[..], &slab_base);
        let aw_chunks = split_chunks(&mut wgt_slab[..], &slab_base);
        let rl_chunks = split_chunks(&mut row_len[..], &rep_base);
        let vw_chunks = split_chunks(&mut vwgt[..], &vwgt_bounds);
        let mk_refs: Vec<&mut MarkerTable> = markers.iter_mut().take(stripes).collect();
        let items: Vec<_> = an_chunks
            .into_iter()
            .zip(aw_chunks)
            .zip(rl_chunks)
            .zip(vw_chunks)
            .zip(mk_refs)
            .map(|((((an, aw), rl), vw), mk)| (an, aw, rl, vw, mk))
            .collect();
        let cmap = &cmap[..];
        zip_map(items, |s, (an, aw, rl, vw, mk)| {
            mk.ensure(cn);
            // Packed write offset within this stripe's slab: each row
            // starts where the previous one ended, not at a degree-bound
            // provisional offset.
            let mut at = 0usize;
            for (i, &(v, u)) in rep_lists[s].iter().enumerate() {
                let cg = rep_base[s] + i;
                let stamp = mk.begin_row();
                let mut len = 0usize;
                let mut absorb = |fine: u32| {
                    for (nb, w) in graph.edges(fine as usize) {
                        let cu = cmap[nb as usize] as usize;
                        if cu == cg {
                            continue; // internal (matched) edge disappears
                        }
                        let cell = &mut mk.cells[cu];
                        if cell.stamp == stamp {
                            aw[at + cell.slot as usize] += w;
                        } else {
                            cell.stamp = stamp;
                            cell.slot = len as u32;
                            an[at + len] = cu as u32;
                            aw[at + len] = w;
                            len += 1;
                        }
                    }
                    for (k, &w) in graph.vwgt(fine as usize).iter().enumerate() {
                        vw[i * ncon + k] += w;
                    }
                };
                absorb(v);
                if u != v {
                    absorb(u);
                }
                rl[i] = len as u32;
                at += len;
            }
            at
        })
    };

    // --- Finalise: row offsets + slab shift -------------------------------
    let mut xadj = Vec::with_capacity(cn + 1);
    xadj.push(0usize);
    let mut acc = 0usize;
    for &l in &row_len[..cn] {
        acc += l as usize;
        xadj.push(acc);
    }
    let total = acc;
    let final_base = exclusive_prefix_sum(&actual);
    debug_assert_eq!(final_base[stripes], total, "row lengths disagree with slab fill");
    // Close the slack the degree bounds over-reserved: one pass copies each
    // stripe's packed block from its slab to its final offset in exact-size
    // output arrays — the only full copy in the kernel, and it doubles as
    // the move into the coarse graph.
    let mut adjncy: Vec<Vertex> = Vec::with_capacity(total);
    let mut adjwgt: Vec<i64> = Vec::with_capacity(total);
    for s in 0..stripes {
        adjncy.extend_from_slice(&adj_slab[slab_base[s]..slab_base[s] + actual[s]]);
        adjwgt.extend_from_slice(&wgt_slab[slab_base[s]..slab_base[s] + actual[s]]);
    }
    event!(
        "contract_smp_compact",
        stripes = stripes,
        edges = total,
        slack = slab_total - total,
    );

    (
        Graph::from_csr_unchecked(ncon, xadj, adjncy, adjwgt, vwgt),
        cmap,
    )
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::coarsen::contract;
    use crate::matching::{is_valid_matching, match_graph};
    use mcgp_graph::generators::{grid_2d, mrng_like};
    use mcgp_graph::synthetic;

    const SCHEMES: [MatchingScheme; 3] = [
        MatchingScheme::Random,
        MatchingScheme::HeavyEdge,
        MatchingScheme::BalancedHeavyEdge,
    ];

    #[test]
    fn parallel_matching_is_valid_involution_across_schemes_and_threads() {
        // The property the coarsener rests on: mate is an involution, no two
        // matched pairs share a vertex, pairs are adjacent, and
        // coarse_nvtxs accounts exactly for the pairs formed — across
        // schemes × stripe counts × seeds.
        let graphs = [
            synthetic::type1(&mrng_like(3000, 3), 3, 3),
            grid_2d(40, 40),
        ];
        for g in &graphs {
            for scheme in SCHEMES {
                for t in [1usize, 2, 3, 8] {
                    for seed in [0u64, 7, 1234] {
                        let m = match_smp(g, scheme, t, seed);
                        assert!(
                            is_valid_matching(g, &m),
                            "{scheme:?} t={t} seed={seed} produced an invalid matching"
                        );
                    }
                }
            }
        }
    }

    #[test]
    fn parallel_matching_ratio_close_to_serial_hem() {
        // The serial cleanup tail must keep the coarsening ratio near the
        // serial matcher's (the distributed protocol under-matches; the
        // shared-memory one must not).
        let g = mrng_like(4000, 9);
        let mut rng = Rng::seed_from_u64(3);
        let serial = match_graph(&g, MatchingScheme::HeavyEdge, &mut rng);
        for t in [2usize, 8] {
            let par = match_smp(&g, MatchingScheme::HeavyEdge, t, 3);
            assert!(
                (par.coarse_nvtxs as f64) <= 1.10 * serial.coarse_nvtxs as f64,
                "t={t}: parallel {} vs serial {} coarse vertices",
                par.coarse_nvtxs,
                serial.coarse_nvtxs
            );
        }
    }

    #[test]
    fn matching_deterministic_per_seed_and_stripe_count() {
        let g = synthetic::type1(&mrng_like(2000, 5), 3, 5);
        for t in [1usize, 2, 8] {
            let a = match_smp(&g, MatchingScheme::BalancedHeavyEdge, t, 11);
            let b = match_smp(&g, MatchingScheme::BalancedHeavyEdge, t, 11);
            assert_eq!(a.mate, b.mate, "t={t} not deterministic");
            assert_eq!(a.coarse_nvtxs, b.coarse_nvtxs);
        }
    }

    #[test]
    fn contract_smp_reproduces_serial_contract_exactly() {
        // Equivalence: for the same matching, the two-pass kernel must
        // produce the serial CSR bit for bit (ids, row order, weights) —
        // stronger than the up-to-row-order contract it documents.
        let graphs = [
            synthetic::type1(&mrng_like(2500, 7), 3, 7),
            synthetic::type2(&grid_2d(30, 30), 2, 9),
        ];
        for g in &graphs {
            for (i, scheme) in SCHEMES.into_iter().enumerate() {
                let mut rng = Rng::seed_from_u64(13 + i as u64);
                let m = match_graph(g, scheme, &mut rng);
                let (sg, scmap) = contract(g, &m);
                for t in [1usize, 2, 5, 8] {
                    let mut scratch = SmpCoarsenScratch::new();
                    let (pg, pcmap) = contract_smp(g, &m, t, &mut scratch);
                    assert_eq!(pcmap, scmap, "{scheme:?} t={t}: cmap differs");
                    assert_eq!(pg.xadj(), sg.xadj(), "{scheme:?} t={t}: xadj differs");
                    assert_eq!(pg.adjncy(), sg.adjncy(), "{scheme:?} t={t}: adjncy differs");
                    assert_eq!(pg.adjwgt(), sg.adjwgt(), "{scheme:?} t={t}: adjwgt differs");
                    assert_eq!(
                        pg.vwgt_flat(),
                        sg.vwgt_flat(),
                        "{scheme:?} t={t}: vwgt differs"
                    );
                    pg.validate().unwrap();
                }
            }
        }
    }

    #[test]
    fn contract_smp_with_parallel_matching_preserves_invariants() {
        let g = synthetic::type1(&mrng_like(3000, 11), 4, 11);
        let mut scratch = SmpCoarsenScratch::new();
        for t in [2usize, 8] {
            let m = match_smp(&g, MatchingScheme::BalancedHeavyEdge, t, 17);
            let (cg, cmap) = contract_smp(&g, &m, t, &mut scratch);
            assert_eq!(cg.nvtxs(), m.coarse_nvtxs);
            assert_eq!(cg.total_vwgt(), g.total_vwgt());
            cg.validate().unwrap();
            mcgp_graph::check::check_projection(&cmap, g.nvtxs(), cg.nvtxs()).unwrap();
        }
    }

    #[test]
    fn scratch_reuse_across_levels_matches_fresh_scratch() {
        // Drive a few levels through ONE scratch and compare each level
        // against a fresh-scratch contraction — stale provisional data or
        // marker generations must never leak between levels.
        let mut g = synthetic::type1(&mrng_like(4000, 13), 3, 13);
        let mut shared = SmpCoarsenScratch::new();
        for level in 0..4 {
            let m = match_smp(&g, MatchingScheme::BalancedHeavyEdge, 4, 23 + level);
            let (a, acmap) = contract_smp(&g, &m, 4, &mut shared);
            let (b, bcmap) = contract_smp(&g, &m, 4, &mut SmpCoarsenScratch::new());
            assert_eq!(acmap, bcmap, "level {level}: cmap differs");
            assert_eq!(a.adjncy(), b.adjncy(), "level {level}: adjncy differs");
            assert_eq!(a.adjwgt(), b.adjwgt(), "level {level}: adjwgt differs");
            g = a;
        }
    }

    #[test]
    fn oversubscribed_stripes_and_tiny_graphs() {
        // More stripes than vertices, and singleton-heavy graphs.
        let g = grid_2d(3, 3);
        for t in [1usize, 8, 64] {
            let m = match_smp(&g, MatchingScheme::HeavyEdge, t, 1);
            assert!(is_valid_matching(&g, &m));
            let (cg, _) = contract_smp(&g, &m, t, &mut SmpCoarsenScratch::new());
            assert_eq!(cg.total_vwgt(), g.total_vwgt());
            cg.validate().unwrap();
        }
    }
}
