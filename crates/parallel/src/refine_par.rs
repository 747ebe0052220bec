//! The reservation-scheme parallel multi-constraint refinement — the key
//! contribution of the paper (Section 2) — plus the bounded parallel
//! balancing phase that precedes it at each level.
//!
//! Each refinement iteration runs an extra *proposal* pass:
//!
//! 1. **Propose** — every processor scans its local boundary vertices
//!    concurrently (reading only the partition published at the previous
//!    superstep) and records the moves it would like to make, checking the
//!    destination caps against the *global subdomain weights known at the
//!    start of the iteration* — the optimistic assumption that lets multiple
//!    processors over-subscribe a subdomain.
//! 2. **Reduce** — one global reduction sums the proposed inflow per
//!    (subdomain, constraint) and reveals which subdomains would exceed
//!    their caps if everything committed.
//! 3. **Disallow** — for each would-be-overweight subdomain, every
//!    processor randomly disallows the paper's portion of its own proposals
//!    into it: `1 − extra_space / proposed_inflow` (the footnote's formula,
//!    taken over the most violated constraint). The residual source-side
//!    effect (disallowed moves leave their source heavier than the reduction
//!    assumed) is deliberately **ignored**, exactly as the paper chooses —
//!    the resulting imbalance is small and later iterations absorb it.
//! 4. **Commit** — surviving moves update the partition; an exact reduction
//!    refreshes the global subdomain weights and the published partition.
//!
//! Alternating move directions across iterations (low→high subdomain
//! indices, then high→low) prevents adjacent processors from endlessly
//! swapping the same boundary, as in the coarse-grain single-constraint
//! refinement the scheme extends.
//!
//! [`parallel_balance`] implements the paper's remark that "a few edge-cut
//! increasing moves can be made to move vertices out of the overweight
//! subdomains": rounds target the globally worst-violated (subdomain,
//! constraint); every processor proposes its `1/p` share of the excess out
//! of that subdomain, and a portion rule caps the committed inflow of every
//! destination at its remaining room, so balancing can never create a new
//! violation.

use crate::boundary_par::{CommittedMove, ProcBoundary};
use crate::cost::CostTracker;
use crate::dist::DistGraph;
use mcgp_core::balance::BalanceModel;
use mcgp_runtime::metrics::{counter_add, Counter};
use mcgp_runtime::rng::Rng;

/// Statistics of one refinement call (one level).
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct ParRefineStats {
    /// Iterations executed.
    pub iterations: usize,
    /// Moves committed.
    pub committed: usize,
    /// Moves disallowed by the reservation scheme.
    pub disallowed: usize,
    /// Moves committed by the balancing phase.
    pub balance_moves: usize,
}

/// One proposed vertex move.
#[derive(Clone, Debug)]
struct Move {
    v: u32,
    from: u32,
    to: u32,
    proc: u32,
}

/// Runs reservation-scheme refinement on one level of the distributed
/// hierarchy. `part` is the global published partition (updated in place);
/// `pw` the global `nparts × ncon` subdomain weights (kept exact).
pub fn reservation_refine(
    dist: &DistGraph,
    part: &mut [u32],
    pw: &mut [i64],
    model: &BalanceModel,
    iters: usize,
    seed: u64,
    tracker: &mut CostTracker,
) -> ParRefineStats {
    let p = dist.nprocs();
    let ncon = dist.ncon();
    let nparts = model.nparts();
    let mut stats = ParRefineStats::default();

    // Per-processor boundary sets: built once per level from the published
    // partition, then kept exact across commit rounds (apply_commits), so
    // every propose sweep visits only boundary vertices. The build replaces
    // the first iteration's full block scan; its computation is charged to
    // that iteration's propose superstep (no extra superstep).
    let built: Vec<(ProcBoundary, u64)> = mcgp_runtime::pool::map(p, |q| {
        let lg = dist.local(q);
        let comp = (lg.nlocal() + lg.nedges_local()) as u64;
        (ProcBoundary::build(lg, part), comp)
    });
    let mut boundaries: Vec<ProcBoundary> = Vec::with_capacity(p);
    let mut build_comp = vec![0u64; p];
    for (q, (pb, c)) in built.into_iter().enumerate() {
        build_comp[q] = c;
        boundaries.push(pb);
    }

    for iter in 0..iters {
        stats.iterations += 1;
        let upward = iter % 2 == 0;
        let boundary_total: usize = boundaries.iter().map(|b| b.boundary().len()).sum();

        // --- 1. Propose (concurrent, reads published state only) ----------
        // Each processor performs a *local KL-like sweep with immediate
        // local updates* (the coarse-grain formulation of ref [4]): its own
        // tentative moves are visible to later vertices of the same sweep
        // via a private overlay of its block and a private copy of the
        // subdomain weights, so move chains form within a processor exactly
        // as they do in a serial sweep. Remote vertices are still read from
        // the published (previous-superstep) state — that is the
        // concurrency relaxation the reservation scheme exists to police.
        // The per-processor sweeps are independent by construction (each
        // reads only shared snapshots), so they run on the shared-memory
        // pool and their outputs are merged in processor order
        // (deterministic regardless of scheduling).
        let per_proc: Vec<(u64, u64, Vec<Move>, Vec<i64>)> =
            mcgp_runtime::pool::map(p, |q| {
                let lg = dist.local(q);
                let mut comp_q = 0u64;
                let bytes_q = (dist.halo_size(q) * 4) as u64; // published halo parts
                let mut proposals_q: Vec<Move> = Vec::new();
                let mut inflow_q = vec![0i64; nparts * ncon];
                let lo = lg.first;
                let hi = lg.first + lg.nlocal();
                // Private overlay of this processor's block + weight view.
                let mut local_part: Vec<u32> = part[lo..hi].to_vec();
                let mut pw_local = pw.to_vec();
                let part_of = |g: usize, local_part: &[u32]| -> usize {
                    if g >= lo && g < hi {
                        local_part[g - lo] as usize
                    } else {
                        part[g] as usize
                    }
                };
                let mut conn: Vec<i64> = vec![0; nparts];
                let mut touched: Vec<usize> = Vec::new();
                // Only boundary vertices (under the published partition) can
                // have a foreign-part neighbor; vertices pulled onto the
                // boundary by this sweep's own tentative moves are picked up
                // next iteration, after the commit refreshes the sets.
                for &lv in boundaries[q].boundary() {
                    let lv = lv as usize;
                    let v = lg.global(lv);
                    let a = local_part[lv] as usize;
                    comp_q += ncon as u64;
                    touched.clear();
                    let mut internal = 0i64;
                    let mut boundary = false;
                    for (u, w) in lg.edges(lv) {
                        comp_q += (2 + ncon as u64) / 2;
                        let pu = part_of(u as usize, &local_part);
                        if pu == a {
                            internal += w;
                        } else {
                            boundary = true;
                            if conn[pu] == 0 {
                                touched.push(pu);
                            }
                            conn[pu] += w;
                        }
                    }
                    if !boundary {
                        continue;
                    }
                    let vw = lg.vwgt(lv);
                    let mut best: Option<(i64, usize)> = None;
                    for &b in &touched {
                        if upward != (b > a) {
                            continue;
                        }
                        if !model.fits(&pw_local[b * ncon..(b + 1) * ncon], vw) {
                            continue;
                        }
                        let gain = conn[b] - internal;
                        let acceptable =
                            gain > 0 || (gain == 0 && lighter(model, &pw_local, ncon, b, a));
                        if acceptable && best.is_none_or(|(g, _)| gain > g) {
                            best = Some((gain, b));
                        }
                    }
                    for &b in &touched {
                        conn[b] = 0;
                    }
                    if let Some((_, b)) = best {
                        local_part[lv] = b as u32;
                        for i in 0..ncon {
                            pw_local[a * ncon + i] -= vw[i];
                            pw_local[b * ncon + i] += vw[i];
                            inflow_q[b * ncon + i] += vw[i];
                        }
                        proposals_q.push(Move {
                            v: v as u32,
                            from: a as u32,
                            to: b as u32,
                            proc: q as u32,
                        });
                    }
                }
                (comp_q, bytes_q, proposals_q, inflow_q)
            });
        let mut comp = vec![0u64; p];
        let mut bytes = vec![0u64; p];
        let mut proposals: Vec<Move> = Vec::new();
        let mut inflow = vec![0i64; nparts * ncon];
        for (q, (comp_q, bytes_q, proposals_q, inflow_q)) in per_proc.into_iter().enumerate() {
            comp[q] = comp_q + if iter == 0 { build_comp[q] } else { 0 };
            bytes[q] = bytes_q;
            proposals.extend(proposals_q);
            for (idx, w) in inflow_q.into_iter().enumerate() {
                inflow[idx] += w;
            }
        }
        tracker.superstep(&comp, &bytes);

        // --- 2. Reduce proposed inflow -------------------------------------
        {
            let comp = vec![(nparts * ncon) as u64; p];
            let bytes = vec![(2 * nparts * ncon * 8) as u64; p];
            tracker.superstep(&comp, &bytes);
        }

        // --- 3. Disallow the overflow portion ------------------------------
        // Portion per destination: 1 - extra/inflow over the most violated
        // constraint (the paper's footnote), clamped to [0, 1].
        let mut portion = vec![0f64; nparts];
        for b in 0..nparts {
            for i in 0..ncon {
                let infl = inflow[b * ncon + i];
                if infl == 0 {
                    continue;
                }
                let cap = model.limits()[i];
                if pw[b * ncon + i] + infl > cap {
                    let extra = (cap - pw[b * ncon + i]).max(0) as f64;
                    let r = 1.0 - extra / infl as f64;
                    portion[b] = portion[b].max(r.clamp(0.0, 1.0));
                }
            }
        }
        let mut rngs: Vec<Rng> = (0..p)
            .map(|q| Rng::seed_from_u64(seed ^ ((iter as u64) << 24) ^ (q as u64)))
            .collect();
        let proposed = proposals.len();
        let mut committed: Vec<Move> = Vec::with_capacity(proposals.len());
        for m in proposals {
            let r = portion[m.to as usize];
            if r > 0.0 && rngs[m.proc as usize].gen_bool(r) {
                stats.disallowed += 1;
            } else {
                committed.push(m);
            }
        }

        // --- 4. Commit, refresh weights and published partition -----------
        let mut comp = vec![0u64; p];
        for m in &committed {
            part[m.v as usize] = m.to;
            let lg = dist.local(m.proc as usize);
            let vw = lg.vwgt(m.v as usize - lg.first);
            for i in 0..ncon {
                pw[m.from as usize * ncon + i] -= vw[i];
                pw[m.to as usize * ncon + i] += vw[i];
            }
            comp[m.proc as usize] += 1;
        }
        {
            // Exact pw allreduce plus halo partition refresh.
            let bytes: Vec<u64> = (0..p)
                .map(|q| (2 * nparts * ncon * 8 + dist.halo_size(q) * 4) as u64)
                .collect();
            tracker.superstep(&comp, &bytes);
        }

        // Bring the boundary sets up to date with the committed round.
        let commits: Vec<CommittedMove> = committed
            .iter()
            .map(|m| CommittedMove {
                v: m.v,
                from: m.from,
                to: m.to,
            })
            .collect();
        for (q, pb) in boundaries.iter_mut().enumerate() {
            pb.apply_commits(dist.local(q), part, &commits);
        }
        #[cfg(debug_assertions)]
        for (q, pb) in boundaries.iter().enumerate() {
            if let Err(e) = pb.validate(dist.local(q), part) {
                panic!("boundary set of proc {q} drifted after iter {iter}: {e}");
            }
        }

        stats.committed += committed.len();
        mcgp_runtime::event!(
            "reservation_iter",
            iter = iter,
            upward = u64::from(upward),
            boundary = boundary_total,
            proposed = proposed,
            granted = committed.len(),
            withheld = proposed - committed.len(),
        );
        counter_add(Counter::ReservationGrants, committed.len() as u64);
        counter_add(Counter::ReservationWithholds, (proposed - committed.len()) as u64);
        if std::env::var_os("MCGP_DEBUG_REFINE").is_some() {
            eprintln!(
                "    iter {iter} ({}): committed {} disallowed so far {}",
                if upward { "up" } else { "down" },
                committed.len(),
                stats.disallowed
            );
        }
        if committed.is_empty() {
            break;
        }
    }
    stats
}

/// Parallel balancing phase: restores the balance caps with as little cut
/// damage as possible before (or between) refinement passes.
///
/// Each round targets the single worst-violated `(subdomain, constraint)`;
/// every processor proposes up to its `1/p` share of the excess out of that
/// subdomain (best-gain destinations that fit; if none fit, the destination
/// whose total normalised excess decreases most). A portion rule then caps
/// the committed inflow of every destination at its remaining room, so a
/// round can never create a new violation, and the targeted excess strictly
/// decreases while any destination has room. Returns the number of moves.
/// `allow_teleport` additionally permits interior vertices to move to any
/// part with room (the serial balancer's any-part fallback). Teleported
/// vertices become islands the refinement rarely recovers, so it should be
/// enabled only for the final pass at the finest level, where the residual
/// excess — and hence the damage — is small.
#[allow(clippy::too_many_arguments)]
pub fn parallel_balance(
    dist: &DistGraph,
    part: &mut [u32],
    pw: &mut [i64],
    model: &BalanceModel,
    max_rounds: usize,
    allow_teleport: bool,
    seed: u64,
    tracker: &mut CostTracker,
) -> usize {
    let p = dist.nprocs();
    let ncon = dist.ncon();
    let nparts = model.nparts();
    let mut total_moves = 0usize;

    for round in 0..max_rounds {
        if model.worst_violation(pw).is_none() {
            break;
        }
        // All violated (subdomain, constraint) pairs are processed in one
        // round; each processor gets a 1/p share of every violated pair's
        // excess as its shed quota.
        let mut quota = vec![0i64; nparts * ncon];
        for b in 0..nparts {
            for i in 0..ncon {
                let excess = pw[b * ncon + i] - model.limits()[i];
                if excess > 0 {
                    quota[b * ncon + i] = excess / p as i64 + 1;
                }
            }
        }

        // Propose shed-moves out of every violated subdomain.
        let mut comp = vec![0u64; p];
        let mut bytes = vec![0u64; p];
        let mut proposals: Vec<Move> = Vec::new();
        let mut inflow = vec![0i64; nparts * ncon];
        for q in 0..p {
            let lg = dist.local(q);
            bytes[q] += (dist.halo_size(q) * 4) as u64;
            let mut used = vec![0i64; nparts * ncon];
            let mut conn: Vec<i64> = vec![0; nparts];
            let mut touched: Vec<usize> = Vec::new();
            for lv in 0..lg.nlocal() {
                let v = lg.global(lv);
                let va = part[v] as usize;
                let vw = lg.vwgt(lv);
                // Does v carry weight of a violated constraint of its
                // subdomain, within this processor's remaining quota?
                let vi = (0..ncon).find(|&i| {
                    vw[i] > 0
                        && quota[va * ncon + i] > 0
                        && used[va * ncon + i] < quota[va * ncon + i]
                });
                let Some(vi) = vi else { continue };
                comp[q] += (lg.neighbors(lv).len() + ncon) as u64;
                touched.clear();
                let mut internal = 0i64;
                for (u, w) in lg.edges(lv) {
                    let pu = part[u as usize] as usize;
                    if pu == va {
                        internal += w;
                    } else {
                        if conn[pu] == 0 {
                            touched.push(pu);
                        }
                        conn[pu] += w;
                    }
                }
                // Best-gain fitting destination; excess-reducing fallback.
                let mut best: Option<(i64, usize)> = None;
                for &b in &touched {
                    if model.fits(&pw[b * ncon..(b + 1) * ncon], vw) {
                        let gain = conn[b] - internal;
                        if best.is_none_or(|(g, _)| gain > g) {
                            best = Some((gain, b));
                        }
                    }
                }
                if best.is_none() {
                    let mut best_delta = -1e-12;
                    for &b in &touched {
                        let delta = excess_delta(model, pw, ncon, vw, va, b);
                        if delta < best_delta {
                            best_delta = delta;
                            best = Some((conn[b] - internal, b));
                        }
                    }
                }
                // Last resort (typically interior vertices, whose violated
                // weight has no adjacent foreign subdomain): any part with
                // room, preferring the least loaded — the parallel analogue
                // of the serial balancer's any-part fallback. When no part
                // fits at all (every subdomain violates *some* constraint),
                // fall through to any excess-reducing destination.
                if best.is_none() && allow_teleport {
                    let mut best_load = f64::INFINITY;
                    for b in 0..nparts {
                        if b == va || !model.fits(&pw[b * ncon..(b + 1) * ncon], vw) {
                            continue;
                        }
                        let mut load: f64 = 0.0;
                        for i in 0..ncon {
                            let t = model.totals()[i];
                            if t > 0 {
                                load = load.max(pw[b * ncon + i] as f64 * nparts as f64 / t as f64);
                            }
                        }
                        if load < best_load {
                            best_load = load;
                            best = Some((-internal, b));
                        }
                    }
                    if best.is_none() {
                        let mut best_delta = -1e-12;
                        for b in 0..nparts {
                            if b == va {
                                continue;
                            }
                            let delta = excess_delta(model, pw, ncon, vw, va, b);
                            if delta < best_delta {
                                best_delta = delta;
                                best = Some((-internal, b));
                            }
                        }
                    }
                    comp[q] += nparts as u64;
                }
                for &b in &touched {
                    conn[b] = 0;
                }
                if let Some((_, b)) = best {
                    used[va * ncon + vi] += vw[vi];
                    for i in 0..ncon {
                        inflow[b * ncon + i] += vw[i];
                    }
                    proposals.push(Move {
                        v: v as u32,
                        from: va as u32,
                        to: b as u32,
                        proc: q as u32,
                    });
                }
            }
        }
        tracker.superstep(&comp, &bytes);

        // Reduce + portion-cap every destination at its remaining room.
        {
            let comp = vec![(nparts * ncon) as u64; p];
            let bytes = vec![(2 * nparts * ncon * 8) as u64; p];
            tracker.superstep(&comp, &bytes);
        }
        let mut portion = vec![0f64; nparts];
        for b in 0..nparts {
            for i in 0..ncon {
                let infl = inflow[b * ncon + i];
                if infl == 0 {
                    continue;
                }
                let cap = model.limits()[i];
                // The portion rule protects constraints that still have
                // room. Constraints the destination *already* violates are
                // not protected here: moves into such destinations were
                // accepted only under the excess-delta criterion, which
                // bounds their growth by the source's reduction — a portion
                // of 1.0 would re-create the all-parts-violated gridlock.
                if pw[b * ncon + i] > cap {
                    continue;
                }
                if pw[b * ncon + i] + infl > cap {
                    let extra = (cap - pw[b * ncon + i]).max(0) as f64;
                    portion[b] = portion[b].max((1.0 - extra / infl as f64).clamp(0.0, 1.0));
                }
            }
        }
        let mut rngs: Vec<Rng> = (0..p)
            .map(|q| Rng::seed_from_u64(seed ^ ((round as u64) << 20) ^ (q as u64) ^ 0xBA1))
            .collect();
        let mut committed = 0usize;
        let mut comp = vec![0u64; p];
        for m in proposals {
            // Destinations that were already violated get portion 1.0 from
            // the loop above only if the proposal inflow pushes past the
            // cap; allow the excess-reducing fallback moves through with
            // the complementary probability like everything else.
            let r = portion[m.to as usize];
            if r > 0.0 && rngs[m.proc as usize].gen_bool(r) {
                continue;
            }
            part[m.v as usize] = m.to;
            let lg = dist.local(m.proc as usize);
            let vw = lg.vwgt(m.v as usize - lg.first);
            for i in 0..ncon {
                pw[m.from as usize * ncon + i] -= vw[i];
                pw[m.to as usize * ncon + i] += vw[i];
            }
            comp[m.proc as usize] += 1;
            committed += 1;
        }
        {
            let bytes: Vec<u64> = (0..p)
                .map(|q| (2 * nparts * ncon * 8 + dist.halo_size(q) * 4) as u64)
                .collect();
            tracker.superstep(&comp, &bytes);
        }
        total_moves += committed;
        if std::env::var_os("MCGP_DEBUG_PBAL").is_some() {
            let violated = (0..nparts * ncon)
                .filter(|&idx| pw[idx] > model.limits()[idx % ncon])
                .count();
            eprintln!(
                "    bal round {round}: committed {committed}, {violated} violated pairs left"
            );
        }
        if committed == 0 {
            break;
        }
    }
    total_moves
}

/// Change in total normalised cap excess of parts `a` and `b` if a vertex
/// with weights `vw` moves `a -> b` (negative = improvement).
fn excess_delta(
    model: &BalanceModel,
    pw: &[i64],
    ncon: usize,
    vw: &[i64],
    a: usize,
    b: usize,
) -> f64 {
    let mut delta = 0.0;
    for i in 0..ncon {
        let t = model.totals()[i];
        if t == 0 {
            continue;
        }
        let scale = model.nparts() as f64 / t as f64;
        let cap = model.limits()[i];
        let ex = |w: i64| ((w - cap).max(0)) as f64 * scale;
        delta += ex(pw[a * ncon + i] - vw[i]) - ex(pw[a * ncon + i]);
        delta += ex(pw[b * ncon + i] + vw[i]) - ex(pw[b * ncon + i]);
    }
    delta
}

/// True when part `b`'s worst relative load is lower than part `a`'s —
/// the zero-gain balance-improvement test.
fn lighter(model: &BalanceModel, pw: &[i64], ncon: usize, b: usize, a: usize) -> bool {
    let load = |pt: usize| -> f64 {
        let mut worst: f64 = 0.0;
        for i in 0..ncon {
            let t = model.totals()[i];
            if t > 0 {
                worst = worst.max(pw[pt * ncon + i] as f64 * model.nparts() as f64 / t as f64);
            }
        }
        worst
    };
    load(b) < load(a)
}

#[cfg(test)]
mod tests {
    use super::*;
    use mcgp_core::balance::part_weights;
    use mcgp_graph::generators::{grid_2d, mrng_like};
    use mcgp_graph::metrics::edge_cut_raw;
    use mcgp_graph::synthetic;

    /// A scattered (size-balanced, high-cut) starting partition on a
    /// distributed mesh — plenty of positive-gain moves for refinement.
    fn setup(
        g: &mcgp_graph::Graph,
        p: usize,
        k: usize,
    ) -> (DistGraph, Vec<u32>, Vec<i64>, BalanceModel) {
        let d = DistGraph::distribute(g, p);
        let part: Vec<u32> = (0..g.nvtxs()).map(|v| (v % k) as u32).collect();
        let pw = part_weights(g, &part, k);
        let model = BalanceModel::new(g, k, 0.05);
        (d, part, pw, model)
    }

    #[test]
    fn improves_cut_and_keeps_pw_exact() {
        let g = mrng_like(2000, 1);
        let (d, mut part, mut pw, model) = setup(&g, 4, 4);
        let before = edge_cut_raw(&g, &part);
        let mut t = CostTracker::new();
        let stats = reservation_refine(&d, &mut part, &mut pw, &model, 8, 3, &mut t);
        let after = edge_cut_raw(&g, &part);
        assert!(after < before, "{before} -> {after}");
        assert!(stats.committed > 0);
        assert_eq!(pw, part_weights(&g, &part, 4), "pw bookkeeping drifted");
    }

    #[test]
    fn multiconstraint_balance_stays_bounded() {
        let g = synthetic::type1(&grid_2d(24, 24), 3, 5);
        let (d, mut part, mut pw, model) = setup(&g, 8, 8);
        let mut t = CostTracker::new();
        reservation_refine(&d, &mut part, &mut pw, &model, 8, 7, &mut t);
        // The scheme does not *guarantee* the caps, but the overshoot must
        // stay modest (the paper's point).
        let imb = model.max_load(&pw);
        assert!(imb < 1.35, "imbalance blew up: {imb}");
    }

    #[test]
    fn disallows_when_processors_compete() {
        // Start with one nearly-full destination: many processors will
        // propose into it and the reservation must disallow some.
        let g = grid_2d(20, 20);
        let d = DistGraph::distribute(&g, 8);
        // Parts: 0 holds the left 55%, part 1 the rest; many vertices want
        // to move 0 -> 1 for cut gain, but part 1 can only take a few.
        let mut part: Vec<u32> = (0..400).map(|v| if v % 20 < 11 { 0 } else { 1 }).collect();
        let mut pw = part_weights(&g, &part, 2);
        let model = BalanceModel::new(&g, 2, 0.05);
        let mut t = CostTracker::new();
        let stats = reservation_refine(&d, &mut part, &mut pw, &model, 4, 11, &mut t);
        // Either some moves were disallowed, or no destination ever
        // oversubscribed; with 8 procs competing the former is expected.
        assert!(stats.iterations >= 1);
        assert_eq!(pw, part_weights(&g, &part, 2));
    }

    #[test]
    fn no_moves_on_an_optimal_partition() {
        let g = grid_2d(16, 16);
        let d = DistGraph::distribute(&g, 4);
        let mut part: Vec<u32> = (0..256).map(|v| if v < 128 { 0 } else { 1 }).collect();
        let mut pw = part_weights(&g, &part, 2);
        let model = BalanceModel::new(&g, 2, 0.05);
        let before = edge_cut_raw(&g, &part);
        let mut t = CostTracker::new();
        reservation_refine(&d, &mut part, &mut pw, &model, 4, 13, &mut t);
        assert!(edge_cut_raw(&g, &part) <= before);
    }

    #[test]
    fn deterministic_per_seed() {
        let g = synthetic::type2(&grid_2d(16, 16), 3, 9);
        let (d, part0, pw0, model) = setup(&g, 4, 4);
        let mut a = part0.clone();
        let mut pwa = pw0.clone();
        let mut b = part0;
        let mut pwb = pw0;
        let mut t1 = CostTracker::new();
        let mut t2 = CostTracker::new();
        reservation_refine(&d, &mut a, &mut pwa, &model, 6, 21, &mut t1);
        reservation_refine(&d, &mut b, &mut pwb, &model, 6, 21, &mut t2);
        assert_eq!(a, b);
    }

    #[test]
    fn accounts_supersteps_per_iteration() {
        let g = mrng_like(1000, 2);
        let (d, mut part, mut pw, model) = setup(&g, 4, 4);
        let mut t = CostTracker::new();
        let stats = reservation_refine(&d, &mut part, &mut pw, &model, 3, 1, &mut t);
        // 3 supersteps per iteration (propose, reduce, commit).
        assert_eq!(t.supersteps(), 3 * stats.iterations);
    }

    #[test]
    fn balance_phase_restores_caps_without_new_violations() {
        let g = grid_2d(20, 20);
        let d = DistGraph::distribute(&g, 4);
        // Part 0 heavily overloaded.
        let mut part: Vec<u32> = (0..400)
            .map(|v| if v % 20 < 13 { 0 } else { 1 + (v as u32 % 3) })
            .collect();
        let mut pw = part_weights(&g, &part, 4);
        let model = BalanceModel::new(&g, 4, 0.05);
        assert!(
            model.worst_violation(&pw).is_some(),
            "test premise: start violated"
        );
        let mut t = CostTracker::new();
        let moves = parallel_balance(&d, &mut part, &mut pw, &model, 40, true, 5, &mut t);
        assert!(moves > 0);
        assert_eq!(pw, part_weights(&g, &part, 4));
        assert!(
            model.worst_violation(&pw).is_none(),
            "still violated: load {}",
            model.max_load(&pw)
        );
    }

    #[test]
    fn balance_phase_noop_when_feasible() {
        let g = grid_2d(12, 12);
        let d = DistGraph::distribute(&g, 3);
        let mut part: Vec<u32> = (0..144).map(|v| (v / 72) as u32).collect();
        let mut pw = part_weights(&g, &part, 2);
        let model = BalanceModel::new(&g, 2, 0.05);
        let mut t = CostTracker::new();
        let moves = parallel_balance(&d, &mut part, &mut pw, &model, 10, false, 1, &mut t);
        assert_eq!(moves, 0);
        assert_eq!(t.supersteps(), 0);
    }

    #[test]
    fn balance_phase_multiconstraint_progress() {
        let g = synthetic::type1(&mrng_like(3000, 8), 3, 8);
        let d = DistGraph::distribute(&g, 8);
        // Slightly skewed start: rotate a stripe of vertices into part 0.
        let k = 8;
        let mut part: Vec<u32> = (0..g.nvtxs())
            .map(|v| if v % 11 == 0 { 0 } else { (v % k) as u32 })
            .collect();
        let mut pw = part_weights(&g, &part, k);
        let model = BalanceModel::new(&g, k, 0.05);
        let before = model.max_load(&pw);
        let mut t = CostTracker::new();
        parallel_balance(&d, &mut part, &mut pw, &model, 60, false, 9, &mut t);
        let after = model.max_load(&pw);
        assert!(
            after <= before + 1e-9,
            "balance got worse: {before} -> {after}"
        );
    }
}
