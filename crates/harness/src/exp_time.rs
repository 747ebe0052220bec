//! Tables 2–4: run times and parallel efficiency.
//!
//! Physical 128-processor wall-clock is unavailable on a development
//! machine, so times are the BSP **modeled times** of the cost model
//! (DESIGN.md substitution table). The "serial" time of Table 2 is the
//! modeled time of a single-logical-processor run of the same parallel code
//! — the standard T(1) baseline — and host wall-clock is reported alongside
//! for transparency.

use crate::report::{f2, f3, pct, render_table};
use crate::suite::SuiteGraph;
use mcgp_core::single::collapse_to_single;
use mcgp_graph::synthetic::ProblemType;
use mcgp_graph::Graph;
use mcgp_parallel::{parallel_partition_kway, ParallelConfig};

/// One row of Table 2 (serial vs parallel, three-constraint, mrng1).
#[derive(Clone, Debug)]
pub struct Table2Row {
    /// Subdomains = processors.
    pub k: usize,
    /// Modeled one-processor time (seconds).
    pub serial_time_s: f64,
    /// Modeled p = k time (seconds).
    pub parallel_time_s: f64,
    /// Modeled speedup.
    pub speedup: f64,
    /// Host wall-clock of the whole simulation (seconds) — not a paper
    /// quantity, recorded for transparency.
    pub wall_s: f64,
    /// Host wall-clock spent coarsening in the p = k run (seconds).
    pub coarsen_s: f64,
    /// Host wall-clock spent on initial partitioning in the p = k run.
    pub initial_s: f64,
    /// Host wall-clock spent refining in the p = k run (seconds).
    pub refine_s: f64,
    /// Matching proposals that lost grant arbitration in the p = k run.
    pub match_conflicts: u64,
}

mcgp_runtime::impl_to_json!(Table2Row {
    k,
    serial_time_s,
    parallel_time_s,
    speedup,
    wall_s,
    coarsen_s,
    initial_s,
    refine_s,
    match_conflicts
});

/// Regenerates Table 2: three-constraint Type-1 problem on `mesh`
/// (mrng1), k = p ∈ `ks`.
pub fn table2(mesh: &Graph, ks: &[usize], seed: u64) -> Vec<Table2Row> {
    let spec = crate::suite::WorkloadSpec {
        ncon: 3,
        problem: ProblemType::Type1,
    };
    let wg = spec.synthesize(mesh, seed);
    ks.iter()
        .map(|&k| {
            // Each run captured separately: the row reports the p = k run's
            // tally only, and neither run leaks into the caller's tally.
            let (serial, _) = mcgp_runtime::Ledger::capture(|| {
                parallel_partition_kway(&wg, k, &ParallelConfig::new(1).with_seed(seed))
            });
            let (par, phases) = mcgp_runtime::Ledger::capture(|| {
                parallel_partition_kway(&wg, k, &ParallelConfig::new(k).with_seed(seed))
            });
            Table2Row {
                k,
                serial_time_s: serial.stats.modeled_time_s,
                parallel_time_s: par.stats.modeled_time_s,
                speedup: serial.stats.modeled_time_s / par.stats.modeled_time_s.max(1e-12),
                wall_s: par.stats.wall_time_s,
                coarsen_s: phases.seconds(mcgp_runtime::Phase::Coarsen),
                initial_s: phases.seconds(mcgp_runtime::Phase::Initial),
                refine_s: phases.seconds(mcgp_runtime::Phase::Refine),
                match_conflicts: phases.counter(mcgp_runtime::Counter::MatchConflicts),
            }
        })
        .collect()
}

/// Renders Table 2 in the paper's layout.
pub fn table2_text(rows: &[Table2Row]) -> String {
    render_table(
        &[
            "k",
            "serial time",
            "parallel time",
            "speedup",
            "(host wall)",
            "(coarsen)",
            "(initial)",
            "(refine)",
            "(conflicts)",
        ],
        &rows
            .iter()
            .map(|r| {
                vec![
                    r.k.to_string(),
                    f2(r.serial_time_s),
                    f2(r.parallel_time_s),
                    f2(r.speedup),
                    f2(r.wall_s),
                    f2(r.coarsen_s),
                    f2(r.initial_s),
                    f2(r.refine_s),
                    r.match_conflicts.to_string(),
                ]
            })
            .collect::<Vec<_>>(),
    )
}

/// One cell of Table 3 / Table 4.
#[derive(Clone, Debug)]
pub struct ScalingCell {
    /// Graph name.
    pub graph: String,
    /// Processors (= subdomains).
    pub nprocs: usize,
    /// Number of constraints (3 for Table 3, 1 for Table 4).
    pub ncon: usize,
    /// Modeled parallel time (seconds).
    pub time_s: f64,
    /// Efficiency relative to this graph's smallest processor count
    /// (the paper's convention).
    pub efficiency: f64,
    /// Host wall-clock (seconds).
    pub wall_s: f64,
    /// Total communication volume (bytes).
    pub comm_bytes: u64,
}

mcgp_runtime::impl_to_json!(ScalingCell { graph, nprocs, ncon, time_s, efficiency, wall_s, comm_bytes });

/// Runs the Table 3 grid: `ncon`-constraint Type-1 problems on the given
/// suite graphs over `procs`, computing relative efficiencies per graph.
pub fn scaling_table(
    suite: &[SuiteGraph],
    procs: &[usize],
    ncon: usize,
    seed: u64,
    mut progress: impl FnMut(&ScalingCell),
) -> Vec<ScalingCell> {
    let mut cells = Vec::new();
    for sg in suite {
        let wg = if ncon == 1 {
            collapse_to_single(
                &crate::suite::WorkloadSpec {
                    ncon: 3,
                    problem: ProblemType::Type1,
                }
                .synthesize(&sg.graph, seed),
            )
        } else {
            crate::suite::WorkloadSpec {
                ncon,
                problem: ProblemType::Type1,
            }
            .synthesize(&sg.graph, seed)
        };
        let mut graph_cells: Vec<ScalingCell> = Vec::new();
        for &p in procs {
            if p > wg.nvtxs() {
                continue;
            }
            let r = parallel_partition_kway(&wg, p, &ParallelConfig::new(p).with_seed(seed));
            graph_cells.push(ScalingCell {
                graph: sg.spec.name.to_string(),
                nprocs: p,
                ncon,
                time_s: r.stats.modeled_time_s,
                efficiency: 0.0, // filled below
                wall_s: r.stats.wall_time_s,
                comm_bytes: r.stats.comm_bytes,
            });
        }
        // Efficiency relative to the smallest p of this graph:
        // eff(p) = T(p0) * p0 / (T(p) * p).
        if let Some(base) = graph_cells.first() {
            let base_work = base.time_s * base.nprocs as f64;
            for c in graph_cells.iter_mut() {
                c.efficiency = base_work / (c.time_s * c.nprocs as f64).max(1e-12);
            }
        }
        for c in &graph_cells {
            progress(c);
        }
        cells.extend(graph_cells);
    }
    cells
}

/// Renders Table 3/4 in the paper's layout (time and efficiency per
/// processor count, one row per graph).
pub fn scaling_text(cells: &[ScalingCell], procs: &[usize], with_efficiency: bool) -> String {
    let graphs: Vec<String> = {
        let mut seen = Vec::new();
        for c in cells {
            if !seen.contains(&c.graph) {
                seen.push(c.graph.clone());
            }
        }
        seen
    };
    let mut header: Vec<String> = vec!["Graph".to_string()];
    for &p in procs {
        header.push(format!("{p}p time"));
        if with_efficiency {
            header.push(format!("{p}p eff"));
        }
    }
    let header_refs: Vec<&str> = header.iter().map(|s| s.as_str()).collect();
    let rows: Vec<Vec<String>> = graphs
        .iter()
        .map(|g| {
            let mut row = vec![g.clone()];
            for &p in procs {
                match cells.iter().find(|c| &c.graph == g && c.nprocs == p) {
                    Some(c) => {
                        row.push(f3(c.time_s));
                        if with_efficiency {
                            row.push(pct(c.efficiency));
                        }
                    }
                    None => {
                        row.push("-".into());
                        if with_efficiency {
                            row.push("-".into());
                        }
                    }
                }
            }
            row
        })
        .collect();
    render_table(&header_refs, &rows)
}

/// One isoefficiency comparison of the paper's Section 3 analysis: graph
/// size ×4 with processors ×2 should roughly preserve efficiency
/// (isoefficiency `O(p² log p)` predicts slightly *worse*).
#[derive(Clone, Debug)]
pub struct IsoRow {
    /// Smaller configuration, e.g. "mrng2 @ 32".
    pub small: String,
    /// Larger configuration, e.g. "mrng3 @ 64".
    pub large: String,
    /// Efficiency of the smaller configuration.
    pub eff_small: f64,
    /// Efficiency of the larger configuration.
    pub eff_large: f64,
}

mcgp_runtime::impl_to_json!(IsoRow { small, large, eff_small, eff_large });

/// Extracts the paper's isoefficiency checks from Table-3 cells: pairs
/// (mrng2 @ p, mrng3 @ 2p) for p ∈ {16, 32, 64}.
pub fn iso_rows(cells: &[ScalingCell]) -> Vec<IsoRow> {
    let find = |g: &str, p: usize| cells.iter().find(|c| c.graph == g && c.nprocs == p);
    [(16usize, 32usize), (32, 64), (64, 128)]
        .iter()
        .filter_map(|&(ps, pl)| {
            let s = find("mrng2", ps)?;
            let l = find("mrng3", pl)?;
            Some(IsoRow {
                small: format!("mrng2 @ {ps}"),
                large: format!("mrng3 @ {pl}"),
                eff_small: s.efficiency,
                eff_large: l.efficiency,
            })
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::suite::{build_suite, Scale};

    #[test]
    fn table2_shows_speedup_at_scale() {
        let suite = build_suite(Scale { denominator: 128 }, 1);
        let rows = table2(&suite[0].graph, &[2, 8], 1);
        assert_eq!(rows.len(), 2);
        for r in &rows {
            assert!(r.serial_time_s > 0.0 && r.parallel_time_s > 0.0);
        }
        // At p=8 the modeled parallel time must beat one processor.
        assert!(rows[1].speedup > 1.0, "no modeled speedup: {:?}", rows[1]);
        let text = table2_text(&rows);
        assert!(text.contains("serial time"));
    }

    #[test]
    fn scaling_efficiency_declines_with_p() {
        let suite = vec![build_suite(Scale { denominator: 128 }, 2).remove(1)];
        let cells = scaling_table(&suite, &[2, 8, 32], 3, 1, |_| {});
        assert_eq!(cells.len(), 3);
        assert!(
            (cells[0].efficiency - 1.0).abs() < 1e-9,
            "baseline eff 100%"
        );
        assert!(
            cells[2].efficiency < cells[0].efficiency,
            "efficiency should decay: {:?}",
            cells.iter().map(|c| c.efficiency).collect::<Vec<_>>()
        );
        let text = scaling_text(&cells, &[2, 8, 32], true);
        assert!(text.contains("mrng2"));
    }

    #[test]
    fn single_constraint_is_faster_than_three() {
        let suite = vec![build_suite(Scale { denominator: 128 }, 3).remove(1)];
        let t3 = scaling_table(&suite, &[8], 3, 1, |_| {});
        let t1 = scaling_table(&suite, &[8], 1, 1, |_| {});
        assert!(
            t1[0].time_s < t3[0].time_s,
            "single {} vs multi {}",
            t1[0].time_s,
            t3[0].time_s
        );
    }

    #[test]
    fn iso_rows_pair_the_right_cells() {
        let cells = vec![
            ScalingCell {
                graph: "mrng2".into(),
                nprocs: 16,
                ncon: 3,
                time_s: 1.0,
                efficiency: 0.9,
                wall_s: 0.0,
                comm_bytes: 0,
            },
            ScalingCell {
                graph: "mrng3".into(),
                nprocs: 32,
                ncon: 3,
                time_s: 2.0,
                efficiency: 0.85,
                wall_s: 0.0,
                comm_bytes: 0,
            },
        ];
        let rows = iso_rows(&cells);
        assert_eq!(rows.len(), 1);
        assert_eq!(rows[0].small, "mrng2 @ 16");
        assert_eq!(rows[0].eff_large, 0.85);
    }
}
