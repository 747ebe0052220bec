//! Greedy multi-constraint k-way refinement (the serial uncoarsening-phase
//! refinement of the multilevel k-way driver).
//!
//! Each iteration sweeps the boundary vertices in random order. A vertex
//! moves to the adjacent subdomain with the largest positive cut gain whose
//! caps it fits; zero-gain moves are taken when they improve balance. This
//! is the KL-type relaxation the paper describes: no global priority queue,
//! bounded iterations, early exit at a local minimum.
//!
//! The sweep is driven by [`crate::boundary::BoundaryEngine`]: the pass
//! order is drawn from the explicit boundary set (not all `n` vertices),
//! per-vertex gains come from the incrementally-maintained connectivity
//! caches, and the "never empty a subdomain" rule is an O(1) per-part
//! vertex-count check. A pass therefore costs `O(boundary + Σ deg(moved))`
//! rather than `O(n + m)`. Vertices that *become* boundary mid-pass are
//! picked up on the next pass (the pass order is a snapshot); vertices that
//! become interior mid-pass are skipped.

use crate::balance::{apply_move, BalanceModel};
use crate::boundary::RefineWorkspace;
use mcgp_graph::Graph;
use mcgp_runtime::metrics::{counter_add, gauge_max, histogram_record, Counter, Gauge, Hist};
use mcgp_runtime::rng::Rng;
use mcgp_runtime::rng::SliceRandom;
use mcgp_runtime::span;

/// Statistics of a k-way refinement call.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct KwayRefineStats {
    /// Vertices moved across all iterations.
    pub moves: usize,
    /// Iterations executed (may stop early at a local minimum).
    pub iterations: usize,
    /// Total cut improvement (sum of gains of committed moves).
    pub gain: i64,
}

/// Runs up to `iters` greedy refinement sweeps, updating `assignment` and
/// the flattened part-weight matrix `pw` in place. Allocates a fresh
/// [`RefineWorkspace`]; level loops should use
/// [`greedy_kway_refine_ws`] to reuse one workspace across calls.
pub fn greedy_kway_refine(
    graph: &Graph,
    assignment: &mut [u32],
    pw: &mut [i64],
    model: &BalanceModel,
    iters: usize,
    rng: &mut Rng,
) -> KwayRefineStats {
    let mut ws = RefineWorkspace::new();
    greedy_kway_refine_ws(graph, assignment, pw, model, iters, rng, &mut ws)
}

/// [`greedy_kway_refine`] with a caller-owned workspace, so the boundary
/// engine's buffers are allocated once per partition call instead of once
/// per uncoarsening level.
pub fn greedy_kway_refine_ws(
    graph: &Graph,
    assignment: &mut [u32],
    pw: &mut [i64],
    model: &BalanceModel,
    iters: usize,
    rng: &mut Rng,
    ws: &mut RefineWorkspace,
) -> KwayRefineStats {
    let n = graph.nvtxs();
    let ncon = graph.ncon();
    let mut stats = KwayRefineStats::default();
    let RefineWorkspace { engine, order } = ws;
    engine.rebuild(graph, assignment, model.nparts());
    // 1 / (per-part average weight) per constraint, so every balance probe
    // is a multiply instead of a division.
    let inv_avg: Vec<f64> = (0..ncon)
        .map(|i| {
            let t = model.totals()[i];
            if t > 0 {
                model.nparts() as f64 / t as f64
            } else {
                0.0
            }
        })
        .collect();

    for pass in 0..iters {
        stats.iterations += 1;
        let mut sp = span!("refine_pass", pass = pass, nvtxs = n);
        order.clear();
        order.extend_from_slice(engine.boundary());
        order.shuffle(rng);
        let mut moved_this_iter = 0usize;
        let mut attempted_this_iter = 0usize;
        let mut boundary_this_iter = 0usize;
        for &v in order.iter() {
            let v = v as usize;
            // A move earlier in the pass may have pulled v off the boundary.
            if !engine.is_boundary(v) {
                continue;
            }
            boundary_this_iter += 1;
            let a = assignment[v] as usize;
            let vw = graph.vwgt(v);
            // Never empty a subdomain: the last vertex of its part stays.
            if engine.part_count(a) == 1 {
                continue;
            }
            // Best destination by (gain, balance improvement). Phase 1: the
            // best cut gain among destinations whose caps fit — integer
            // arithmetic only.
            counter_add(Counter::MovesAttempted, 1);
            attempted_this_iter += 1;
            let internal = engine.internal(v);
            let mut best_gain: Option<i64> = None;
            for pc in engine.conn_of(v) {
                let b = pc.part as usize;
                let gain = pc.weight - internal;
                if gain < 0 || best_gain.is_some_and(|bg| gain < bg) {
                    continue;
                }
                if !model.fits(&pw[b * ncon..(b + 1) * ncon], vw) {
                    continue;
                }
                if best_gain.is_none_or(|bg| gain > bg) {
                    best_gain = Some(gain);
                }
            }
            // Phase 2: break gain ties by balance improvement — the float
            // probes run only for the (usually one) tied candidates.
            // Zero-gain moves are taken only when they improve balance.
            let mut best: Option<(i64, f64, usize)> = None;
            if let Some(bg) = best_gain {
                let load_a_before = part_load(pw, ncon, a, &inv_avg);
                for pc in engine.conn_of(v) {
                    let b = pc.part as usize;
                    let gain = pc.weight - internal;
                    if gain != bg || !model.fits(&pw[b * ncon..(b + 1) * ncon], vw) {
                        continue;
                    }
                    // Balance delta: how much the worse of the two parts'
                    // relative load improves under the move, computed from
                    // load deltas (pw is never touched during scoring).
                    let bal_gain = {
                        let load_b_before = part_load(pw, ncon, b, &inv_avg);
                        let load_a_after = part_load_shifted(pw, ncon, a, vw, -1, &inv_avg);
                        let load_b_after = part_load_shifted(pw, ncon, b, vw, 1, &inv_avg);
                        load_a_before.max(load_b_before) - load_a_after.max(load_b_after)
                    };
                    if gain == 0 && bal_gain <= 1e-12 {
                        continue;
                    }
                    if best.is_none_or(|(_, bb, _)| bal_gain > bb) {
                        best = Some((gain, bal_gain, b));
                    }
                }
            }
            if let Some((gain, _, b)) = best {
                apply_move(pw, ncon, vw, a, b);
                engine.commit_move(graph, assignment, v, b);
                moved_this_iter += 1;
                stats.gain += gain;
                counter_add(Counter::MovesCommitted, 1);
                histogram_record(Hist::KwayGain, gain);
            }
        }
        stats.moves += moved_this_iter;
        sp.record("boundary", boundary_this_iter);
        sp.record("moves_attempted", attempted_this_iter);
        sp.record("moves_committed", moved_this_iter);
        gauge_max(Gauge::BoundarySize, boundary_this_iter as i64);
        #[cfg(debug_assertions)]
        if let Err(e) = engine.validate(graph, assignment) {
            panic!("boundary cache drifted after pass {pass}: {e}");
        }
        if moved_this_iter == 0 {
            break; // local minimum
        }
    }
    stats
}

/// Relative load of part `p`: its worst per-constraint weight over the
/// per-part average (`inv_avg[i]` = nparts / total weight of constraint `i`,
/// or 0 for an all-zero constraint).
#[inline]
pub(crate) fn part_load(pw: &[i64], ncon: usize, p: usize, inv_avg: &[f64]) -> f64 {
    let mut worst: f64 = 0.0;
    for i in 0..ncon {
        worst = worst.max(pw[p * ncon + i] as f64 * inv_avg[i]);
    }
    worst
}

/// [`part_load`] of part `p` as if a vertex of weight `vw` had been moved
/// in (`sign = 1`) or out (`sign = -1`). Integer arithmetic first, then the
/// same float multiply as `part_load`, so the value is bit-identical to an
/// apply/revert probe.
#[inline]
pub(crate) fn part_load_shifted(pw: &[i64], ncon: usize, p: usize, vw: &[i64], sign: i64, inv_avg: &[f64]) -> f64 {
    let mut worst: f64 = 0.0;
    for i in 0..ncon {
        worst = worst.max((pw[p * ncon + i] + sign * vw[i]) as f64 * inv_avg[i]);
    }
    worst
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::balance::part_weights;
    use mcgp_graph::generators::grid_2d;
    use mcgp_graph::metrics::edge_cut_raw;
    use mcgp_graph::synthetic;
    use mcgp_runtime::rng::Rng;

    fn rng(seed: u64) -> Rng {
        Rng::seed_from_u64(seed)
    }

    /// A crude but balanced striped partition to start refinement from.
    fn striped(n: usize, nparts: usize) -> Vec<u32> {
        (0..n).map(|v| ((v * nparts) / n) as u32).collect()
    }

    #[test]
    fn reduces_cut_of_scattered_partition() {
        let g = grid_2d(16, 16);
        // Random scatter: terrible cut, statistically balanced.
        let mut r = rng(42);
        let mut assignment: Vec<u32> = (0..256).map(|_| r.gen_range(0..2u32)).collect();
        // Force exact balance so refinement starts feasible.
        let ones: i64 = assignment.iter().map(|&p| p as i64).sum();
        let mut fix = 128 - ones;
        for a in assignment.iter_mut() {
            if fix > 0 && *a == 0 {
                *a = 1;
                fix -= 1;
            } else if fix < 0 && *a == 1 {
                *a = 0;
                fix += 1;
            }
        }
        let model = BalanceModel::new(&g, 2, 0.05);
        let mut pw = part_weights(&g, &assignment, 2);
        let before = edge_cut_raw(&g, &assignment);
        let stats = greedy_kway_refine(&g, &mut assignment, &mut pw, &model, 8, &mut rng(1));
        let after = edge_cut_raw(&g, &assignment);
        assert_eq!(before - after, stats.gain, "gain bookkeeping drifted");
        assert!(after < before, "{before} -> {after}");
        assert_eq!(
            pw,
            part_weights(&g, &assignment, 2),
            "pw bookkeeping drifted"
        );
    }

    #[test]
    fn never_violates_caps() {
        let g = synthetic::type1(&grid_2d(16, 16), 3, 2);
        let mut assignment = striped(256, 4);
        let model = BalanceModel::new(&g, 4, 0.05);
        let mut pw = part_weights(&g, &assignment, 4);
        // Striped start may violate caps; refinement must not make any part
        // newly exceed them (moves require fits()).
        let violations_before: Vec<bool> = (0..4)
            .map(|p| (0..3).any(|i| pw[p * 3 + i] > model.limits()[i]))
            .collect();
        greedy_kway_refine(&g, &mut assignment, &mut pw, &model, 6, &mut rng(3));
        for p in 0..4 {
            let violated = (0..3).any(|i| pw[p * 3 + i] > model.limits()[i]);
            assert!(
                !violated || violations_before[p],
                "part {p} newly violated caps"
            );
        }
    }

    #[test]
    fn stops_at_local_minimum() {
        let g = grid_2d(8, 8);
        // Optimal 2-way split: no moves available.
        let mut assignment: Vec<u32> = (0..64).map(|v| if v % 8 < 4 { 0 } else { 1 }).collect();
        let model = BalanceModel::new(&g, 2, 0.05);
        let mut pw = part_weights(&g, &assignment, 2);
        let stats = greedy_kway_refine(&g, &mut assignment, &mut pw, &model, 10, &mut rng(4));
        assert!(stats.iterations <= 2, "kept iterating: {:?}", stats);
    }

    #[test]
    fn gain_is_never_negative() {
        let g = synthetic::type2(&grid_2d(14, 14), 3, 8);
        let mut assignment = striped(196, 7);
        let model = BalanceModel::new(&g, 7, 0.05);
        let mut pw = part_weights(&g, &assignment, 7);
        let before = edge_cut_raw(&g, &assignment);
        let stats = greedy_kway_refine(&g, &mut assignment, &mut pw, &model, 8, &mut rng(5));
        assert!(stats.gain >= 0);
        assert!(edge_cut_raw(&g, &assignment) <= before);
    }

    #[test]
    fn workspace_reuse_matches_fresh_workspace() {
        let g = synthetic::type1(&grid_2d(16, 16), 2, 6);
        let model = BalanceModel::new(&g, 4, 0.05);
        let start = striped(256, 4);

        let mut ws = RefineWorkspace::new();
        let mut a1 = start.clone();
        let mut pw1 = part_weights(&g, &a1, 4);
        // Dirty the workspace on a different problem first.
        greedy_kway_refine_ws(&g, &mut a1, &mut pw1, &model, 2, &mut rng(9), &mut ws);
        let mut a1 = start.clone();
        let mut pw1 = part_weights(&g, &a1, 4);
        greedy_kway_refine_ws(&g, &mut a1, &mut pw1, &model, 4, &mut rng(10), &mut ws);

        let mut a2 = start;
        let mut pw2 = part_weights(&g, &a2, 4);
        greedy_kway_refine(&g, &mut a2, &mut pw2, &model, 4, &mut rng(10));
        assert_eq!(a1, a2, "reused workspace changed the result");
        assert_eq!(pw1, pw2);
    }

    #[test]
    fn k_near_n_does_not_empty_parts_and_stays_fast() {
        // One vertex per part: nothing may move (the last-vertex rule), and
        // the check is O(1) per vertex — the old O(n) `part_size_one` scan
        // made such configurations quadratic.
        let g = grid_2d(40, 40);
        let n = g.nvtxs();
        let mut assignment: Vec<u32> = (0..n as u32).collect();
        let model = BalanceModel::new(&g, n, 0.05);
        let mut pw = part_weights(&g, &assignment, n);
        let stats = greedy_kway_refine(&g, &mut assignment, &mut pw, &model, 4, &mut rng(11));
        assert_eq!(stats.moves, 0, "moved the last vertex of a part");
        // k = n/2: every part has two vertices; refinement may move, but no
        // part may end empty.
        let k = n / 2;
        let mut assignment: Vec<u32> = (0..n).map(|v| (v / 2) as u32).collect();
        let model = BalanceModel::new(&g, k, 0.05);
        let mut pw = part_weights(&g, &assignment, k);
        greedy_kway_refine(&g, &mut assignment, &mut pw, &model, 4, &mut rng(12));
        let mut count = vec![0u32; k];
        for &p in &assignment {
            count[p as usize] += 1;
        }
        assert!(count.iter().all(|&c| c > 0), "refinement emptied a part");
    }
}
