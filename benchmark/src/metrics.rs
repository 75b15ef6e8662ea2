//! The metric tables — the names and units `BENCHMARK.json` declares — and
//! the small statistics the workloads share.
//!
//! Every run prints every metric of its table: end-to-end metrics on an
//! untraced run, per-layer metrics on a traced one. A per-layer metric a
//! workload does not exercise reads 0 there (README.md says which those
//! are).

use std::fmt::Write as _;

/// The four strategies of `SchedulerKind::paper_lineup`, by label, in
/// line-up order. Per-strategy metrics end in one of these.
pub const SCHEDS: [&str; 4] = ["mxnet-fifo", "p3", "bytescheduler", "prophet-oracle"];

/// End-to-end metrics `(name, unit)`, reported by every workload.
pub const END_TO_END: [(&str, &str); 2] = [("setup_s", "s"), ("iters_per_s", "1/s")];

/// Per-layer metrics that are not per-strategy.
const PER_LAYER: &[(&str, &str)] = &[
    // What the simulator computed, not how fast: exact per seed.
    ("sim_prophet_rate", "samples/s"),
    ("sim_prophet_vs_best_baseline", "ratio"),
    ("paper_table2_mape_pct", "%"),
    // Of the workload alone: read before the layer drives allocate.
    ("peak_rss_mb", "MB"),
    // Host seconds of one pass of the workload's fixed work.
    ("wall_s", "s"),
    ("trace_overhead_pct", "%"),
    ("trace.pass_coverage_pct", "%"),
    ("sim.queue.ns_per_event", "ns"),
    ("sim.trace.on_over_off", "ratio"),
    ("net.realloc.ns_per_churn", "ns"),
    ("net.drive.flows_per_s.large", "1/s"),
    ("net.drive.flows_per_s.small", "1/s"),
    ("net.maxmin.ns_per_flow", "ns"),
    ("core.prophet_plan.us", "us"),
    ("core.profiler.detect_blocks_us", "us"),
    ("dnn.job_setup.us", "us"),
    ("ps.sim.faults.retries", "count"),
    ("ps.sim.faults.flows_killed", "count"),
    ("ps.sim.faults.replays", "count"),
    ("ps.sim.faults.frames_corrupted", "count"),
    ("ps.sim.faults.restore_fallbacks", "count"),
    ("ps.sim.faults.slowdown_med", "ratio"),
    ("ps.chaos.violations", "count"),
    ("minidnn.fwd_bwd.ms", "ms"),
    ("minidnn.matmul_t.gflops", "GFLOP/s"),
    ("ps.threaded.wire.encode_GBps", "GB/s"),
    ("ps.threaded.wire.fused_accumulate_GBps", "GB/s"),
    ("ps.threaded.wire.fused_apply_GBps", "GB/s"),
    ("ps.threaded.wire.crc32c_GBps", "GB/s"),
    ("ps.threaded.wire.verify_accumulate_GBps", "GB/s"),
    ("ps.threaded.shard.verify_ms_per_iter", "ms"),
    ("ps.threaded.shard.accumulate_ms_per_iter", "ms"),
    ("ps.threaded.shard.optimizer_ms_per_iter", "ms"),
    ("ps.threaded.shard.encode_ms_per_iter", "ms"),
    ("ps.threaded.shard.ack_ms_per_iter", "ms"),
    ("ps.threaded.shard.sweep_ms_per_iter", "ms"),
    ("ps.threaded.shard.idle_ms_per_iter", "ms"),
    ("ps.threaded.worker.compute_ms_per_iter", "ms"),
    ("ps.threaded.worker.encode_ms_per_iter", "ms"),
    ("ps.threaded.worker.apply_ms_per_iter", "ms"),
    ("ps.threaded.worker.wait_ms_per_iter", "ms"),
    ("ps.threaded.shard.idle_share", "ratio"),
    ("ps.threaded.worker.wait_share", "ratio"),
    ("ps.threaded.link_utilisation", "ratio"),
    ("ps.threaded.bytes_pushed_per_iter", "count"),
    ("ps.threaded.arena_allocs", "count"),
    ("ps.threaded.corrupt_frames", "count"),
    ("ps.threaded.nack_retransmit_bytes", "count"),
];

/// Per-strategy per-layer metric stems: the full name is `<stem>.<sched>`.
const PER_SCHED: &[(&str, &str)] = &[
    ("core.plan.us_per_worker", "us"),
    ("core.plan.tasks_per_worker", "count"),
    ("ps.sim.host_s", "s"),
    ("ps.sim.host_us_per_msg", "us"),
    ("ps.sim.engine_share_est", "ratio"),
];

/// Every per-layer metric `(name, unit)`, in reporting order.
pub fn per_layer_table() -> Vec<(String, &'static str)> {
    let mut table: Vec<(String, &'static str)> = PER_LAYER
        .iter()
        .map(|&(name, unit)| (name.to_string(), unit))
        .collect();
    for &(stem, unit) in PER_SCHED {
        for sched in SCHEDS {
            table.push((format!("{stem}.{sched}"), unit));
        }
    }
    table
}

/// The values of one run, over a fixed table of names.
pub struct MetricSet {
    rows: Vec<(String, &'static str, f64)>,
}

impl MetricSet {
    /// All metrics of `table`, at 0.
    pub fn zeroed(table: impl IntoIterator<Item = (String, &'static str)>) -> Self {
        MetricSet {
            rows: table.into_iter().map(|(n, u)| (n, u, 0.0)).collect(),
        }
    }

    /// Set a metric; a name outside the table is a bug in the benchmark.
    pub fn set(&mut self, name: &str, value: f64) {
        let row = self
            .rows
            .iter_mut()
            .find(|(n, _, _)| n == name)
            .unwrap_or_else(|| panic!("metric `{name}` is not in the table"));
        assert!(value.is_finite(), "metric `{name}` is not finite: {value}");
        row.2 = value;
    }

    /// `(name, unit, value)` in table order.
    pub fn rows(&self) -> &[(String, &'static str, f64)] {
        &self.rows
    }

    /// The result line the driver reads: one JSON object, values with all
    /// their digits.
    pub fn result_line(&self, correct: bool, attempted: u64, failed: u64) -> String {
        let mut out = format!(
            "{{\"correct\": {correct}, \"attempted\": {attempted}, \"failed\": {failed}, \
             \"metrics\": {{"
        );
        for (i, (name, unit, value)) in self.rows.iter().enumerate() {
            let sep = if i == 0 { "" } else { ", " };
            let _ = write!(
                out,
                "{sep}\"{name}\": {{\"value\": {value}, \"unit\": \"{unit}\"}}"
            );
        }
        out.push_str("}}");
        out
    }
}

/// Median (mean of the two middle samples for an even count). Panics on an
/// empty sample: every caller has run at least one pass.
pub fn median(xs: &[f64]) -> f64 {
    assert!(!xs.is_empty(), "median of nothing");
    let mut v = xs.to_vec();
    v.sort_by(f64::total_cmp);
    let mid = v.len() / 2;
    if v.len() % 2 == 1 {
        v[mid]
    } else {
        (v[mid - 1] + v[mid]) / 2.0
    }
}

/// Geometric mean of positive values.
pub fn geomean(xs: &[f64]) -> f64 {
    assert!(!xs.is_empty(), "geomean of nothing");
    (xs.iter().map(|x| x.ln()).sum::<f64>() / xs.len() as f64).exp()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn median_and_geomean() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 2.0, 3.0]), 2.5);
        assert!((geomean(&[2.0, 8.0]) - 4.0).abs() < 1e-12);
    }

    #[test]
    fn result_line_keeps_every_digit() {
        let mut m = MetricSet::zeroed([("wall_s".to_string(), "s")]);
        m.set("wall_s", 1.234567890123);
        assert_eq!(
            m.result_line(true, 3, 0),
            "{\"correct\": true, \"attempted\": 3, \"failed\": 0, \"metrics\": \
             {\"wall_s\": {\"value\": 1.234567890123, \"unit\": \"s\"}}}"
        );
    }

    /// `BENCHMARK.json` is written by hand; this keeps it and the tables
    /// the program prints from drifting apart.
    #[test]
    fn tables_match_benchmark_json() {
        let json =
            std::fs::read_to_string(concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json"))
                .expect("BENCHMARK.json at the repo root");
        // `(name, <second>)` of each object in one of the file's lists.
        let declared = |section: &str, second: &str| -> Vec<(String, String)> {
            let body = json.split(&format!("\"{section}\": [")).nth(1).unwrap();
            let body = &body[..body.find(']').unwrap()];
            body.split('{')
                .skip(1)
                .map(|obj| {
                    let field = |key: &str| {
                        let rest = obj.split(&format!("\"{key}\": \"")).nth(1).unwrap();
                        rest[..rest.find('"').unwrap()].to_string()
                    };
                    (field("name"), field(second))
                })
                .collect()
        };
        let owned = |t: Vec<(String, &str)>| -> Vec<(String, String)> {
            t.into_iter().map(|(n, u)| (n, u.to_string())).collect()
        };
        let e2e = END_TO_END.map(|(n, u)| (n.to_string(), u)).to_vec();
        assert_eq!(declared("end_to_end", "unit"), owned(e2e));
        assert_eq!(declared("per_layer", "unit"), owned(per_layer_table()));
        let workloads = declared("workloads", "why");
        let names: Vec<&str> = workloads.iter().map(|w| w.0.as_str()).collect();
        assert_eq!(names, crate::WORKLOADS);
    }
}
