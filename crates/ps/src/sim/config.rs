//! Cluster/testbed description.

use prophet_core::SchedulerKind;
use prophet_dnn::TrainingJob;
use prophet_net::RetryPolicy;
use prophet_sim::{Duration, FaultPlan};

/// Parameter-synchronisation discipline.
///
/// The paper evaluates BSP ("Prophet mainly works in the PS architecture
/// using BSP", §6.2) and names ASP validation as future work (§7); both
/// are implemented here so that extension experiment can run.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SyncMode {
    /// Bulk Synchronous Parallel: a gradient's parameters update only
    /// after **every** worker's push arrived; all workers pull the same
    /// version each iteration.
    Bsp,
    /// Asynchronous Parallel: the PS applies each worker's gradient on
    /// arrival and the pushing worker immediately pulls the fresh
    /// parameters — no cross-worker barrier, workers drift apart.
    Asp,
}

/// Everything needed to reproduce one experimental cell.
#[derive(Clone)]
pub struct ClusterConfig {
    /// Number of worker nodes (the paper: up to 7).
    pub workers: usize,
    /// Parameter-server shards. 1 = the single dedicated PS instance of
    /// §5.1; `workers` models BytePS-style server co-location so the PS is
    /// never the NIC bottleneck (used for the Fig. 12 scaling study).
    /// Gradient `g` lives on shard `g % ps_shards`.
    pub ps_shards: usize,
    /// The workload.
    pub job: TrainingJob,
    /// The communication scheduling strategy under test.
    pub scheduler: SchedulerKind,
    /// Worker NIC capacity, bytes/sec (same up/down).
    pub worker_bps: f64,
    /// Per-worker overrides, `(worker_index, bytes/sec)` — §5.3's
    /// heterogeneous experiment caps one worker at 500 Mbps.
    pub worker_bps_overrides: Vec<(usize, f64)>,
    /// PS-shard NIC capacity, bytes/sec.
    pub ps_bps: f64,
    /// Master seed: every stochastic stream derives from it.
    pub seed: u64,
    /// Std-dev of the per-iteration multiplicative compute jitter.
    pub compute_jitter: f64,
    /// Bandwidth-monitor publication period (paper: 5 s).
    pub monitor_period: Duration,
    /// Metrics sampling window for utilisation/throughput series.
    pub sample_window: Duration,
    /// Read as [`ClusterConfig::typed_trace`]. Kept only for
    /// `benchmark/src/{sim,layers}.rs`, and deleted by the `benchmark`
    /// change that moves them onto `typed_trace`.
    #[doc(hidden)]
    pub trace: bool,
    /// Run the cross-stack [`prophet_sim::InvariantChecker`] over the typed
    /// event stream: timeline ordering per gradient, BSP barrier sanity,
    /// per-flow byte conservation, clock monotonicity. A violation panics at
    /// the first bad event with the recent event history attached. Defaults
    /// to on in debug builds (so every test runs checked) and off in
    /// release (so benches and sweeps pay nothing).
    pub check_invariants: bool,
    /// Collect typed per-`(worker, gradient, iteration)` spans
    /// ([`prophet_sim::GradSpan`]) for *every* worker into
    /// `RunResult::grad_spans`, plus the per-shard queueing spans — the
    /// `repro trace` exporter's data source. Off, the collector still keeps
    /// worker 0's, which is all the figures read: the full table costs
    /// workers × iterations × gradients cells. Default off.
    pub typed_trace: bool,
    /// Iterations to skip before steady-state rate measurement.
    pub warmup_iters: u64,
    /// Parameter-synchronisation discipline (paper: BSP; ASP is the §7
    /// future-work extension).
    pub sync: SyncMode,
    /// Bandwidth schedule for dynamic-network experiments: at each
    /// `(time, bytes/sec)` entry every worker NIC (and each PS shard) is
    /// reconfigured to the new capacity. The paper motivates Prophet with
    /// exactly such "dynamic network environments" (§1, §4.2).
    pub bandwidth_schedule: Vec<(Duration, f64)>,
    /// Per-worker compute-speed multipliers `(worker, factor)` — factors
    /// below 1.0 model straggler GPUs (a heterogeneity axis the paper's
    /// related work discusses via LBBSP).
    pub worker_compute_scale: Vec<(usize, f64)>,
    /// Deterministic fault schedule. An **empty** plan is inert by
    /// construction: no fault event is ever enqueued, so the run is
    /// bit-identical to a build without the fault layer. How the plan is
    /// read — active windows, per-iteration membership, checkpoint
    /// generations — is [`crate::protocol`]'s, the same rules the threaded
    /// runtime runs.
    pub fault_plan: FaultPlan,
    /// Backoff/timeout policy applied to messages killed or lost by the
    /// fault plan. Irrelevant (never consulted) when the plan is empty. The
    /// engine runs [`ClusterConfig::effective_retry`]: the ack timeout is
    /// raised — never lowered, so cells the flat value already covers are
    /// bit-identical — to cover the most-degraded link the plan configures.
    pub retry: RetryPolicy,
}

impl ClusterConfig {
    /// The paper's standard cell: `workers` nodes at `gbps` Gb/s, the given
    /// job and strategy, light jitter, 5 s monitoring.
    pub fn paper_cell(
        workers: usize,
        gbps: f64,
        job: TrainingJob,
        scheduler: SchedulerKind,
    ) -> Self {
        ClusterConfig {
            workers,
            ps_shards: 1,
            job,
            scheduler,
            worker_bps: gbps * 1e9 / 8.0,
            worker_bps_overrides: Vec::new(),
            ps_bps: gbps * 1e9 / 8.0,
            seed: 20210809, // ICPP'21 started 2021-08-09
            compute_jitter: 0.02,
            monitor_period: Duration::from_secs(5),
            sample_window: Duration::from_millis(250),
            trace: false,
            check_invariants: cfg!(debug_assertions),
            typed_trace: false,
            warmup_iters: 3,
            sync: SyncMode::Bsp,
            bandwidth_schedule: Vec::new(),
            worker_compute_scale: Vec::new(),
            fault_plan: FaultPlan::empty(),
            retry: RetryPolicy::paper_default(),
        }
    }

    /// The retry policy the engine actually runs: [`ClusterConfig::retry`],
    /// with its timeout raised to cover the largest tensor crossing the
    /// slowest configured link at the plan's deepest `LinkDegrade` factor
    /// (DESIGN §9's hazard: a flat timeout below that thrashes through
    /// spurious timeout → kill → retry cycles on a degraded but live link).
    pub fn effective_retry(&self) -> RetryPolicy {
        if self.fault_plan.is_empty() {
            return self.retry;
        }
        let min_factor = self
            .fault_plan
            .faults
            .iter()
            .filter_map(|f| match *f {
                prophet_sim::FaultSpec::LinkDegrade { factor, .. } => Some(factor),
                _ => None,
            })
            .fold(1.0_f64, f64::min);
        let max_bytes = self.job.sizes().iter().copied().max().unwrap_or(0);
        let min_bps = (0..self.workers)
            .map(|w| self.worker_bandwidth(w))
            .fold(self.ps_bps, f64::min);
        self.retry
            .adapted_to_link(max_bytes, min_bps, min_factor, 2.0)
    }

    /// NIC capacity of worker `w`, honouring overrides.
    pub fn worker_bandwidth(&self, w: usize) -> f64 {
        self.worker_bps_overrides
            .iter()
            .find(|&&(i, _)| i == w)
            .map(|&(_, b)| b)
            .unwrap_or(self.worker_bps)
    }

    /// Sanity-check the configuration, panicking with a message naming the
    /// offending field. Everything a caller can get wrong is caught here,
    /// before the engine starts: a panic past this point is a broken engine
    /// invariant, not bad input (DESIGN.md §18 has the table).
    pub fn validate(&self) {
        assert!(self.workers >= 1, "need at least one worker");
        assert!(self.ps_shards >= 1, "need at least one PS shard");
        // The engine names workers, shards and lanes by `u32`.
        assert!(
            self.workers < 1 << 30 && self.ps_shards < 1 << 30,
            "too many workers or shards to index"
        );
        // A zero period would re-arm its tick at the same instant forever.
        assert!(
            !self.monitor_period.is_zero(),
            "monitor period must be positive"
        );
        assert!(
            !self.sample_window.is_zero(),
            "sample window must be positive"
        );
        assert!(
            self.worker_bps > 0.0 && self.ps_bps > 0.0,
            "non-positive bandwidth"
        );
        assert!(
            self.compute_jitter >= 0.0 && self.compute_jitter < 0.5,
            "jitter out of range"
        );
        for &(w, b) in &self.worker_bps_overrides {
            assert!(w < self.workers, "override for missing worker {w}");
            assert!(b > 0.0, "non-positive override bandwidth");
        }
        for &(w, f) in &self.worker_compute_scale {
            assert!(w < self.workers, "compute scale for missing worker {w}");
            assert!(f > 0.0, "non-positive compute scale");
        }
        for &(_, b) in &self.bandwidth_schedule {
            assert!(b > 0.0, "non-positive scheduled bandwidth");
        }
        self.fault_plan.validate(self.workers, self.ps_shards);
        assert!(
            self.fault_plan.is_empty() || self.sync == SyncMode::Bsp,
            "fault injection requires BSP synchronisation"
        );
    }

    /// Compute-speed multiplier of worker `w` (1.0 unless overridden).
    pub fn compute_scale(&self, w: usize) -> f64 {
        self.worker_compute_scale
            .iter()
            .find(|&&(i, _)| i == w)
            .map(|&(_, f)| f)
            .unwrap_or(1.0)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use prophet_core::SchedulerKind;

    fn cfg() -> ClusterConfig {
        ClusterConfig::paper_cell(
            3,
            10.0,
            TrainingJob::paper_setup("resnet18", 32),
            SchedulerKind::Fifo,
        )
    }

    #[test]
    fn paper_cell_defaults() {
        let c = cfg();
        c.validate();
        assert_eq!(c.workers, 3);
        assert!((c.worker_bps - 1.25e9).abs() < 1.0);
        assert_eq!(c.monitor_period, Duration::from_secs(5));
    }

    #[test]
    fn overrides_apply_per_worker() {
        let mut c = cfg();
        c.worker_bps_overrides.push((1, 62.5e6));
        assert_eq!(c.worker_bandwidth(0), 1.25e9);
        assert_eq!(c.worker_bandwidth(1), 62.5e6);
        c.validate();
    }

    #[test]
    #[should_panic(expected = "monitor period must be positive")]
    fn zero_monitor_period_rejected_before_it_can_spin() {
        let mut c = cfg();
        c.monitor_period = Duration::ZERO;
        c.validate();
    }

    #[test]
    #[should_panic(expected = "sample window must be positive")]
    fn zero_sample_window_rejected_by_name() {
        let mut c = cfg();
        c.sample_window = Duration::ZERO;
        c.validate();
    }

    #[test]
    #[should_panic(expected = "too many workers or shards to index")]
    fn unindexable_shard_count_rejected() {
        let mut c = cfg();
        c.ps_shards = 1 << 31;
        c.validate();
    }

    #[test]
    #[should_panic(expected = "override for missing worker")]
    fn bad_override_rejected() {
        let mut c = cfg();
        c.worker_bps_overrides.push((9, 1e9));
        c.validate();
    }
}
