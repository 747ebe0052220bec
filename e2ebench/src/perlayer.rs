//! The per-layer metrics of a traced run.
//!
//! Every `*_s` layer time is the mean seconds that layer adds to one
//! operation of the workload, so the layers of a workload add up:
//! `op.mean_s` = the layer times + `unattributed_s`. A layer the workload
//! does not run reports 0. Every ratio is printed next to its base.

use crate::decompose::Layers;
use crate::report::{metric, Metric};

#[derive(Clone, Debug, Default)]
pub struct PerLayer {
    pub op_mean_s: f64,
    pub io_parse_s: f64,
    pub io_body_mb: f64,
    pub io_write_s: f64,
    pub check_validate_s: f64,
    pub cache_fingerprint_s: f64,
    pub cache_lookups: f64,
    pub cache_hits: f64,
    pub cache_waits: f64,
    pub cache_evictions: f64,
    pub coarsen_s: f64,
    pub coarsen_match_s: f64,
    pub coarsen_contract_s: f64,
    pub coarsen_levels: f64,
    pub coarsen_coarsest_nvtxs: f64,
    pub initial_s: f64,
    pub initial_imbalance: f64,
    pub uncoarsen_s: f64,
    pub replay_s: f64,
    pub smp_t1_s: f64,
    pub smp_t2_s: f64,
    pub smp_t1_cut: f64,
    pub smp_t2_cut: f64,
    pub bsp_wall_s: f64,
    pub bsp_modeled_s: f64,
    pub bsp_supersteps: f64,
    pub bsp_comm_bytes: f64,
    pub bsp_serial_cut: f64,
    pub bsp_cut: f64,
    pub protocol_serialize_s: f64,
    pub server_total_s: f64,
    pub net_outside_s: f64,
    pub server_contention_s: f64,
    pub net_requests_per_conn: f64,
    /// Untraced and traced throughput over windows of equal length.
    pub untraced_ops_per_s: f64,
    pub traced_ops_per_s: f64,
}

fn ratio(num: f64, den: f64) -> f64 {
    if den > 0.0 {
        num / den
    } else {
        0.0
    }
}

impl PerLayer {
    /// Adds decomposed layers, each weighted by its share of operations.
    /// Times add up per operation; counts and ratios are averaged over
    /// the operations the layers stand for.
    pub fn add_layers(&mut self, weighted: &[(f64, &Layers)]) {
        let total: f64 = weighted.iter().map(|&(w, _)| w).sum();
        for &(w, l) in weighted {
            let share = if total > 0.0 { w / total } else { 0.0 };
            self.cache_fingerprint_s += w * l.fingerprint;
            self.io_parse_s += w * l.parse;
            self.check_validate_s += w * l.check;
            self.coarsen_s += w * l.coarsen;
            self.coarsen_match_s += w * l.match_s;
            self.coarsen_contract_s += w * l.contract_s;
            self.coarsen_levels += share * l.levels as f64;
            self.coarsen_coarsest_nvtxs += share * l.coarsest_nvtxs as f64;
            self.initial_s += w * l.initial;
            self.initial_imbalance += share * l.initial_imbalance;
            self.uncoarsen_s += w * l.uncoarsen();
            self.replay_s += w * l.replay;
            self.protocol_serialize_s += w * l.serialize;
        }
    }

    /// Time no layer accounts for.
    pub fn unattributed_s(&self) -> f64 {
        self.op_mean_s
            - (self.cache_fingerprint_s
                + self.io_parse_s
                + self.check_validate_s
                + self.coarsen_s
                + self.initial_s
                + self.uncoarsen_s
                + self.protocol_serialize_s
                + self.io_write_s
                + self.bsp_wall_s
                + self.net_outside_s
                + self.server_contention_s)
    }

    pub fn metrics(&self) -> Vec<Metric> {
        vec![
            metric("op.mean_s", self.op_mean_s, "s"),
            metric("unattributed_s", self.unattributed_s(), "s"),
            metric("io.parse_s", self.io_parse_s, "s"),
            metric("io.body_mb", self.io_body_mb, "MB"),
            metric(
                "io.parse_mb_per_s",
                ratio(self.io_body_mb, self.io_parse_s),
                "MB/s",
            ),
            metric("io.write_s", self.io_write_s, "s"),
            metric("check.validate_s", self.check_validate_s, "s"),
            metric("cache.fingerprint_s", self.cache_fingerprint_s, "s"),
            metric("cache.lookups", self.cache_lookups, "count"),
            metric(
                "cache.hit_ratio",
                ratio(self.cache_hits, self.cache_lookups),
                "ratio",
            ),
            metric(
                "cache.wait_ratio",
                ratio(self.cache_waits, self.cache_lookups),
                "ratio",
            ),
            metric("cache.evictions", self.cache_evictions, "count"),
            metric("coarsen.s", self.coarsen_s, "s"),
            metric("coarsen.match_s", self.coarsen_match_s, "s"),
            metric("coarsen.contract_s", self.coarsen_contract_s, "s"),
            metric("coarsen.levels", self.coarsen_levels, "count"),
            metric(
                "coarsen.coarsest_nvtxs",
                self.coarsen_coarsest_nvtxs,
                "count",
            ),
            metric("initial.s", self.initial_s, "s"),
            metric("initial.imbalance", self.initial_imbalance, "ratio"),
            metric("uncoarsen.s", self.uncoarsen_s, "s"),
            metric("replay.s", self.replay_s, "s"),
            metric("smp.t1_s", self.smp_t1_s, "s"),
            metric(
                "smp.speedup_t2",
                ratio(self.smp_t1_s, self.smp_t2_s),
                "ratio",
            ),
            metric("smp.t1_cut", self.smp_t1_cut, "weight"),
            metric(
                "smp.cut_ratio_t2_t1",
                ratio(self.smp_t2_cut, self.smp_t1_cut),
                "ratio",
            ),
            metric("bsp.wall_s", self.bsp_wall_s, "s"),
            metric("bsp.modeled_s", self.bsp_modeled_s, "s"),
            metric("bsp.supersteps", self.bsp_supersteps, "count"),
            metric("bsp.comm_bytes", self.bsp_comm_bytes, "bytes"),
            metric("bsp.serial_cut", self.bsp_serial_cut, "weight"),
            metric(
                "bsp.cut_ratio_serial",
                ratio(self.bsp_cut, self.bsp_serial_cut),
                "ratio",
            ),
            metric("protocol.serialize_s", self.protocol_serialize_s, "s"),
            metric("server.total_s", self.server_total_s, "s"),
            metric("net.outside_s", self.net_outside_s, "s"),
            metric("server.contention_s", self.server_contention_s, "s"),
            metric("net.requests_per_conn", self.net_requests_per_conn, "count"),
            metric("trace.untraced_ops_per_s", self.untraced_ops_per_s, "1/s"),
            metric(
                "trace_overhead_frac",
                1.0 - ratio(self.traced_ops_per_s, self.untraced_ops_per_s),
                "ratio",
            ),
        ]
    }
}
