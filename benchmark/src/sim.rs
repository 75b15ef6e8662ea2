//! The simulator workloads: `sim_scale`, `sim_paper` and `sim_faults`.
//!
//! All three drive `run_cluster` (or its panic-catching twin
//! `run_sim_checked`) from outside and time each call. They report two
//! kinds of number and keep them apart: *host* time (how fast the simulator
//! ran — noisy) and *simulated* results (what it computed — exact per seed,
//! checked for bit-identity on every repeat of a cell).

use crate::metrics::{geomean, median, MetricSet, SCHEDS};
use crate::spans::Spans;
use crate::{Drives, Workload};
use prophet::core::{AutoTuneConfig, ByteSchedulerConfig, ProphetConfig, SchedulerKind};
use prophet::dnn::TrainingJob;
use prophet::ps::sim::{run_cluster, ClusterConfig, RunResult};
use prophet::ps::{
    check_churn_plan, check_corruption_plan, check_plan, run_sim_checked, OracleBudget,
};
use prophet::sim::{ChaosGen, ChaosProfile, Duration, SimTime};
use std::collections::BTreeMap;

/// Index of Prophet in [`SCHEDS`] / `SchedulerKind::paper_lineup`.
const PROPHET: usize = 3;

/// One simulated cluster run the benchmark repeats.
struct Cell {
    cfg: ClusterConfig,
    iters: u64,
    /// `(group, strategy)` for the cells of a line-up grid: cells of one
    /// group differ only in strategy, so Prophet is compared with the best
    /// baseline of its group. `None` for variant cells, which count towards
    /// host time only.
    grid: Option<(usize, usize)>,
    /// The paper's measured rate for this cell, where it reports one.
    paper_rate: Option<f64>,
}

impl Cell {
    fn worker_iters(&self) -> f64 {
        (self.cfg.workers as u64 * self.iters) as f64
    }
}

/// What two runs of one cell must agree on, bit for bit.
type Signature = (SimTime, Vec<Duration>);

/// Operation counts, per-strategy host time and determinism bookkeeping
/// shared by the three workloads.
#[derive(Default)]
struct Tally {
    attempted: u64,
    failed: u64,
    /// Host seconds per strategy, one row per pass.
    host_s: Vec<[f64; 4]>,
    /// First result seen per cell; every later run must reproduce it.
    signatures: BTreeMap<usize, Signature>,
}

impl Tally {
    fn fail(&mut self, what: std::fmt::Arguments) {
        self.failed += 1;
        eprintln!("FAILED: {what}");
    }

    /// Book `secs` of host time to strategy `sched` in the current pass.
    fn book(&mut self, sched: usize, secs: f64) {
        if let Some(row) = self.host_s.last_mut() {
            row[sched] += secs;
        }
    }

    /// Hold a repeat of cell `idx` to the first result seen for it.
    fn check_repeat(&mut self, idx: usize, r: &RunResult) {
        let (duration, iter_times) = self
            .signatures
            .entry(idx)
            .or_insert_with(|| (r.duration, r.iter_times.clone()));
        if *duration != r.duration || *iter_times != r.iter_times {
            self.fail(format_args!(
                "cell {idx} is not bit-identical to its first run"
            ));
        }
    }

    /// Median over passes of the host seconds booked to `sched`.
    fn host_s_median(&self, sched: usize) -> f64 {
        median(&self.host_s.iter().map(|row| row[sched]).collect::<Vec<_>>())
    }
}

/// Per-strategy simulator metrics from host seconds, worker-iterations and
/// the layer drives: host seconds, host µs per message (messages estimated
/// as the planning drive's tasks per worker-iteration), and the share of
/// host time neither the bare-network drive nor planning accounts for —
/// an estimate from outside the engine, not a measurement inside it.
fn per_sched_metrics(
    out: &mut MetricSet,
    tally: &Tally,
    worker_iters: [f64; 4],
    flows_per_s: f64,
    drives: &Drives,
) {
    for (s, sched) in SCHEDS.iter().enumerate() {
        let host = tally.host_s_median(s);
        let msgs = drives.tasks_per_worker[s] * worker_iters[s];
        let outside = msgs / flows_per_s + drives.plan_us_per_worker[s] * 1e-6 * worker_iters[s];
        out.set(&format!("ps.sim.host_s.{sched}"), host);
        out.set(
            &format!("ps.sim.host_us_per_msg.{sched}"),
            host * 1e6 / msgs,
        );
        out.set(
            &format!("ps.sim.engine_share_est.{sched}"),
            1.0 - outside / host,
        );
    }
}

/// `sim_scale` and `sim_paper`: a fixed list of fault-free cells, run once
/// per pass.
pub struct SimGrid {
    cells: Vec<Cell>,
    /// Model, batch and Gb/s the planning drive should use.
    plan_job: (&'static str, u32, f64),
    /// Whether the cells are many-component (160 × 160) or paper-sized.
    large: bool,
    tally: Tally,
    /// Simulated rate of each cell, from the latest pass.
    rates: Vec<f64>,
}

/// Workers (and co-located shards) of the `sim_scale` cells.
pub const SCALE_WORKERS: usize = 160;
/// `sim_scale`: one warm-up iteration plus one measured. Iteration counts
/// are trimmed (here and below) so that a run holds at least two passes;
/// the shapes are whole.
const SCALE_ITERS: u64 = 2;
/// `sim_paper`: warm-up plus measured iterations per cell.
const PAPER_ITERS: u64 = 30;
const PAPER_WARMUP: u64 = 4;

/// Table 2 of the paper: ResNet50 bs64 on 3 workers, samples/s per worker,
/// `(Mb/s, Prophet, ByteScheduler, P3)`. The paper gives no FIFO column.
pub const PAPER_TABLE2: [(f64, f64, f64, f64); 7] = [
    (1000.0, 27.7, 25.9, 25.16),
    (2000.0, 47.9, 39.09, 37.69),
    (3000.0, 60.0, 44.0, 51.22),
    (4000.0, 67.06, 50.5, 64.34),
    (4500.0, 69.29, 54.14, 67.83),
    (6000.0, 69.5, 70.0, 68.93),
    (10000.0, 70.6, 71.1, 72.83),
];

impl SimGrid {
    /// `sim_scale`: the four line-up strategies on 160 workers with 160
    /// co-located shards, ResNet18 bs16 at 10 Gb/s.
    pub fn scale_inputs(seed: u64) -> Self {
        let job = TrainingJob::paper_setup("resnet18", 16);
        let cells = SchedulerKind::paper_lineup(1.25e9)
            .into_iter()
            .enumerate()
            .map(|(s, kind)| {
                let mut cfg = ClusterConfig::paper_cell(SCALE_WORKERS, 10.0, job.clone(), kind);
                cfg.ps_shards = SCALE_WORKERS;
                cfg.warmup_iters = 1;
                cfg.seed = seed;
                Cell {
                    cfg,
                    iters: SCALE_ITERS,
                    grid: Some((0, s)),
                    paper_rate: None,
                }
            })
            .collect();
        SimGrid::new(cells, ("resnet18", 16, 10.0), true)
    }

    /// `sim_paper`: the Table 2 grid (7 bandwidths × line-up, 3 workers +
    /// 1 PS, ResNet50 bs64) plus four variant cells at 4 Gb/s that enter
    /// code the grid does not: online Prophet through its profiling
    /// transient, ByteScheduler with credit auto-tuning, a run with the
    /// span trace on, and a cluster with one worker capped at 500 Mb/s.
    pub fn paper_inputs(seed: u64) -> Self {
        let job = TrainingJob::paper_setup("resnet50", 64);
        let cell = |gbps: f64, kind: SchedulerKind| {
            let mut cfg = ClusterConfig::paper_cell(3, gbps, job.clone(), kind);
            cfg.warmup_iters = PAPER_WARMUP;
            cfg.seed = seed;
            cfg
        };
        let mut cells = Vec::new();
        for (group, &(mbps, prophet, bytescheduler, p3)) in PAPER_TABLE2.iter().enumerate() {
            let gbps = mbps / 1000.0;
            let paper = [None, Some(p3), Some(bytescheduler), Some(prophet)];
            for (s, kind) in SchedulerKind::paper_lineup(gbps * 1e9 / 8.0)
                .into_iter()
                .enumerate()
            {
                cells.push(Cell {
                    cfg: cell(gbps, kind),
                    iters: PAPER_ITERS,
                    grid: Some((group, s)),
                    paper_rate: paper[s],
                });
            }
        }
        let oracle = || SchedulerKind::ProphetOracle(ProphetConfig::paper_default(0.5e9));
        let mut online = ProphetConfig::paper_default(0.5e9);
        online.profile_iters = 10; // so the plan switch lands inside the run
        let autotune = ByteSchedulerConfig {
            autotune: Some(AutoTuneConfig::default()),
            ..Default::default()
        };
        let mut traced = cell(4.0, oracle());
        traced.trace = true;
        let mut hetero = cell(4.0, oracle());
        hetero.worker_bps_overrides.push((2, 62.5e6));
        for cfg in [
            cell(4.0, SchedulerKind::Prophet(online)),
            cell(4.0, SchedulerKind::ByteScheduler(autotune)),
            traced,
            hetero,
        ] {
            cells.push(Cell {
                cfg,
                iters: PAPER_ITERS,
                grid: None,
                paper_rate: None,
            });
        }
        SimGrid::new(cells, ("resnet50", 64, 4.0), false)
    }

    fn new(cells: Vec<Cell>, plan_job: (&'static str, u32, f64), large: bool) -> Self {
        SimGrid {
            rates: vec![0.0; cells.len()],
            cells,
            plan_job,
            large,
            tally: Tally::default(),
        }
    }

    /// The master seed of every cell (for the seed-plumbing test).
    #[cfg(test)]
    pub fn seeds(&self) -> Vec<u64> {
        self.cells.iter().map(|c| c.cfg.seed).collect()
    }

    /// The untimed warm-up: the first cell, which also becomes the reference
    /// its timed repeats are held to.
    pub fn warm_up(mut self, spans: &mut Spans) -> Self {
        self.run_cell(spans, 0);
        self
    }

    /// Run cell `idx` with its checks; host seconds of the call.
    fn run_cell(&mut self, spans: &mut Spans, idx: usize) -> f64 {
        let cell = &self.cells[idx];
        let (r, secs) = spans.timed("ps.sim.run_cluster", |_| run_cluster(&cell.cfg, cell.iters));
        self.tally.attempted += 1;
        if let Some((_, sched)) = cell.grid {
            self.tally.book(sched, secs);
        }
        if r.iterations != cell.iters || !(r.rate > 0.0 && r.rate.is_finite()) {
            self.tally.fail(format_args!(
                "cell {idx}: {} of {} iterations, rate {}",
                r.iterations, cell.iters, r.rate
            ));
        }
        self.tally.check_repeat(idx, &r);
        self.rates[idx] = r.rate;
        secs
    }

    /// Simulated rates of the grid cells of one strategy, by group.
    fn grid_rates(&self, sched: usize) -> Vec<f64> {
        let mut by_group: Vec<(usize, f64)> = self
            .cells
            .iter()
            .zip(&self.rates)
            .filter_map(|(c, &rate)| match c.grid {
                Some((group, s)) if s == sched => Some((group, rate)),
                _ => None,
            })
            .collect();
        by_group.sort_by_key(|&(group, _)| group);
        by_group.into_iter().map(|(_, rate)| rate).collect()
    }

    fn worker_iters_by_sched(&self) -> [f64; 4] {
        let mut out = [0.0; 4];
        for c in &self.cells {
            if let Some((_, s)) = c.grid {
                out[s] += c.worker_iters();
            }
        }
        out
    }
}

/// Prophet's simulated rate and its ratio to the best baseline, as
/// geometric means over groups of `(fifo, p3, bytescheduler, prophet)`
/// rates.
fn prophet_fidelity(out: &mut MetricSet, rates: [Vec<f64>; 4]) {
    let ratios: Vec<f64> = (0..rates[PROPHET].len())
        .map(|g| rates[PROPHET][g] / rates[..PROPHET].iter().map(|r| r[g]).fold(0.0, f64::max))
        .collect();
    out.set("sim_prophet_rate", geomean(&rates[PROPHET]));
    out.set("sim_prophet_vs_best_baseline", geomean(&ratios));
}

impl Workload for SimGrid {
    fn pass(&mut self, spans: &mut Spans) -> f64 {
        self.tally.host_s.push([0.0; 4]);
        let speeds: Vec<f64> = (0..self.cells.len())
            .map(|idx| self.cells[idx].worker_iters() / self.run_cell(spans, idx))
            .collect();
        geomean(&speeds)
    }

    fn operations(&self) -> (u64, u64) {
        (self.tally.attempted, self.tally.failed)
    }

    fn plan_job(&self) -> (&'static str, u32, f64) {
        self.plan_job
    }

    fn layer_metrics(&self, drives: &Drives, out: &mut MetricSet) {
        prophet_fidelity(out, [0, 1, 2, 3].map(|s| self.grid_rates(s)));
        let errors: Vec<f64> = self
            .cells
            .iter()
            .zip(&self.rates)
            .filter_map(|(c, &rate)| c.paper_rate.map(|p| (rate - p).abs() / p * 100.0))
            .collect();
        if !errors.is_empty() {
            out.set(
                "paper_table2_mape_pct",
                errors.iter().sum::<f64>() / errors.len() as f64,
            );
        }
        let flows_per_s = if self.large {
            drives.flows_per_s_large
        } else {
            drives.flows_per_s_small
        };
        per_sched_metrics(
            out,
            &self.tally,
            self.worker_iters_by_sched(),
            flows_per_s,
            drives,
        );
    }
}

/// Which oracle judges a generated plan.
#[derive(Clone, Copy, PartialEq, Debug)]
enum Profile {
    /// `ChaosProfile::for_cluster`, judged by `check_plan`.
    Transient,
    /// `ChaosProfile::churn`, judged by `check_churn_plan`.
    Churn,
    /// `ChaosProfile::corruption`, judged by `check_corruption_plan`.
    Corruption,
}

/// One strategy's share of `sim_faults`: its fault-free reference and the
/// faulted configurations generated against it.
struct Lane {
    golden: RunResult,
    runs: Vec<(Profile, ClusterConfig)>,
}

/// `sim_faults`: seeded fault plans from the three chaos profiles, run on
/// 4 workers × 2 shards (ResNet18 bs16, 10 Gb/s) under each line-up
/// strategy and judged by the chaos oracles. A violation is a failed
/// operation.
pub struct SimFaults {
    lanes: Vec<Lane>,
    tally: Tally,
    /// Fault counters and slowdowns of the latest pass (exact per seed).
    counters: FaultCounters,
}

#[derive(Default)]
struct FaultCounters {
    retries: u64,
    flows_killed: u64,
    replays: u64,
    frames_corrupted: u64,
    restore_fallbacks: u64,
    violations: u64,
    slowdowns: Vec<f64>,
    /// Simulated rate per `(plan, strategy)`, plans in generation order.
    rates: Vec<[f64; 4]>,
}

const FAULT_WORKERS: usize = 4;
const FAULT_SHARDS: usize = 2;
/// One warm-up iteration plus five: room for a mid-run membership epoch,
/// a checkpoint cadence round and the re-plan after either.
const FAULT_ITERS: u64 = 6;
/// Plans drawn per profile per strategy.
const PLANS_PER_PROFILE: usize = 6;

impl SimFaults {
    /// Generate the plans. The fault-free reference runs here, not in the
    /// timed region: its simulated duration is the horizon the plans'
    /// fault times are drawn from, so it is part of making the inputs.
    pub fn inputs(seed: u64, spans: &mut Spans) -> Self {
        let job = TrainingJob::paper_setup("resnet18", 16);
        let lanes = SchedulerKind::paper_lineup(1.25e9)
            .into_iter()
            .map(|kind| {
                let mut base = ClusterConfig::paper_cell(FAULT_WORKERS, 10.0, job.clone(), kind);
                base.ps_shards = FAULT_SHARDS;
                base.warmup_iters = 1;
                base.check_invariants = true;
                base.seed = seed;
                let (golden, _) =
                    spans.timed("ps.sim.run_cluster", |_| run_cluster(&base, FAULT_ITERS));
                let horizon = Duration::from_nanos(golden.duration.as_nanos());
                let mut gen = ChaosGen::new(seed);
                let mut runs = Vec::new();
                for (profile, shape) in [
                    (
                        Profile::Transient,
                        ChaosProfile::for_cluster(FAULT_WORKERS, FAULT_SHARDS, horizon),
                    ),
                    (
                        Profile::Churn,
                        ChaosProfile::churn(FAULT_WORKERS, FAULT_SHARDS, horizon, FAULT_ITERS),
                    ),
                    (
                        Profile::Corruption,
                        ChaosProfile::corruption(FAULT_WORKERS, FAULT_SHARDS, horizon, FAULT_ITERS),
                    ),
                ] {
                    for _ in 0..PLANS_PER_PROFILE {
                        let mut cfg = base.clone();
                        cfg.fault_plan = gen.next_plan(&shape);
                        runs.push((profile, cfg));
                    }
                }
                Lane { golden, runs }
            })
            .collect();
        SimFaults {
            lanes,
            tally: Tally::default(),
            counters: FaultCounters::default(),
        }
    }

    /// FNV-1a over the generated plans, in generation order (for the
    /// seed-plumbing test).
    #[cfg(test)]
    pub fn plan_digest(&self) -> u64 {
        let mut h = 0xcbf2_9ce4_8422_2325u64;
        for (_, cfg) in self.lanes.iter().flat_map(|l| &l.runs) {
            for b in format!("{:?}", cfg.fault_plan).bytes() {
                h = (h ^ b as u64).wrapping_mul(0x0100_0000_01b3);
            }
        }
        h
    }

    /// The master seed of every configuration (for the seed-plumbing test).
    #[cfg(test)]
    pub fn seeds(&self) -> Vec<u64> {
        self.lanes
            .iter()
            .flat_map(|l| l.runs.iter().map(|(_, cfg)| cfg.seed))
            .collect()
    }

    /// The untimed warm-up: one faulted run.
    pub fn warm_up(self, spans: &mut Spans) -> Self {
        let _ = checked_run(spans, &self.lanes[0].runs[0].1);
        self
    }
}

/// `run_sim_checked` under a span.
fn checked_run(spans: &mut Spans, cfg: &ClusterConfig) -> (Result<RunResult, String>, f64) {
    spans.timed("ps.sim.run_cluster", |_| run_sim_checked(cfg, FAULT_ITERS))
}

impl Workload for SimFaults {
    fn pass(&mut self, spans: &mut Spans) -> f64 {
        self.tally.host_s.push([0.0; 4]);
        let budget = OracleBudget::paper_default();
        let mut counters = FaultCounters {
            rates: vec![[0.0; 4]; self.lanes[0].runs.len()],
            ..Default::default()
        };
        let mut speeds = Vec::new();
        for (sched, lane) in self.lanes.iter().enumerate() {
            for (i, (profile, cfg)) in lane.runs.iter().enumerate() {
                let (outcome, mut host) = checked_run(spans, cfg);
                // The churn and corruption oracles also judge a replay of
                // the identical plan.
                let rerun = (*profile != Profile::Transient).then(|| {
                    let (rerun, secs) = checked_run(spans, cfg);
                    host += secs;
                    rerun
                });
                let runs = 1 + rerun.is_some() as u64;
                let golden = &lane.golden;
                let (verdict, _) = match (profile, &rerun) {
                    (Profile::Churn, Some(rerun)) => spans
                        .timed("ps.chaos.check_churn_plan", |_| {
                            check_churn_plan(golden, &outcome, rerun, &budget)
                        }),
                    (Profile::Corruption, Some(rerun)) => spans
                        .timed("ps.chaos.check_corruption_plan", |_| {
                            check_corruption_plan(golden, &outcome, rerun, &budget)
                        }),
                    _ => spans.timed("ps.chaos.check_plan", |_| {
                        check_plan(golden, &outcome, &cfg.fault_plan, &budget)
                    }),
                };
                speeds.push((runs * FAULT_WORKERS as u64 * FAULT_ITERS) as f64 / host);
                self.tally.book(sched, host);
                self.tally.attempted += 1;
                if !verdict.ok() {
                    counters.violations += 1;
                    self.tally.fail(format_args!(
                        "{} plan {i} ({profile:?}): {:?}\nplan: {:?}",
                        SCHEDS[sched], verdict.violations, cfg.fault_plan
                    ));
                }
                if verdict.slowdown.is_finite() {
                    counters.slowdowns.push(verdict.slowdown);
                }
                if let Ok(r) = &outcome {
                    counters.retries += r.fault_stats.retries;
                    counters.flows_killed += r.fault_stats.flows_killed;
                    counters.replays += r.fault_stats.replays;
                    counters.frames_corrupted += r.fault_stats.frames_corrupted;
                    counters.restore_fallbacks += r.elastic.restore_fallbacks;
                    counters.rates[i][sched] = r.rate;
                    self.tally.check_repeat(sched * lane.runs.len() + i, r);
                }
            }
        }
        self.counters = counters;
        geomean(&speeds)
    }

    fn operations(&self) -> (u64, u64) {
        (self.tally.attempted, self.tally.failed)
    }

    fn layer_metrics(&self, drives: &Drives, out: &mut MetricSet) {
        let c = &self.counters;
        // Compare strategies only under plans every one of them survived
        // with a measurable rate.
        let complete: Vec<&[f64; 4]> = c
            .rates
            .iter()
            .filter(|r| r.iter().all(|&x| x > 0.0 && x.is_finite()))
            .collect();
        if !complete.is_empty() {
            prophet_fidelity(
                out,
                [0, 1, 2, 3].map(|s| complete.iter().map(|r| r[s]).collect()),
            );
        }
        out.set("ps.sim.faults.retries", c.retries as f64);
        out.set("ps.sim.faults.flows_killed", c.flows_killed as f64);
        out.set("ps.sim.faults.replays", c.replays as f64);
        out.set("ps.sim.faults.frames_corrupted", c.frames_corrupted as f64);
        out.set(
            "ps.sim.faults.restore_fallbacks",
            c.restore_fallbacks as f64,
        );
        if !c.slowdowns.is_empty() {
            out.set("ps.sim.faults.slowdown_med", median(&c.slowdowns));
        }
        out.set("ps.chaos.violations", c.violations as f64);
        // Transient plans run once, the other two profiles twice.
        let runs_per_lane = (PLANS_PER_PROFILE * 5) as f64;
        let worker_iters = runs_per_lane * (FAULT_WORKERS as u64 * FAULT_ITERS) as f64;
        per_sched_metrics(
            out,
            &self.tally,
            [worker_iters; 4],
            drives.flows_per_s_small,
            drives,
        );
    }
}
