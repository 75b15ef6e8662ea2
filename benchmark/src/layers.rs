//! The layer drives: each calls one layer of the system directly, through
//! its public API, on inputs shaped like what the workloads feed it, and
//! times the call from outside. They run on the traced run only; their
//! numbers say where time *could* be going, the workloads' end-to-end
//! metrics say whether it matters (README.md pairs each drive with the
//! end-to-end metric and workload it should move).

use crate::metrics::{median, MetricSet, SCHEDS};
use crate::sim::SCALE_WORKERS;
use crate::spans::Spans;
use bytes::BytesMut;
use prophet::core::{
    detect_blocks, prophet_plan, CommScheduler, Dir, PlanInput, ProphetConfig, SchedulerKind,
};
use prophet::dnn::TrainingJob;
use prophet::minidnn::{Mlp, Tensor};
use prophet::net::maxmin::{allocate_with, FlowDemand, Scratch};
use prophet::net::{Network, NodeId, NodeSpec, TcpModel, Topology};
use prophet::ps::sim::{run_cluster, ClusterConfig};
use prophet::ps::threaded::wire;
use prophet::sim::{Duration, EventQueue, SimTime, SplitMix64};
use std::hint::black_box;

/// What the drives measured that the workloads' own per-layer metrics are
/// computed from.
pub struct Drives {
    /// Flows per host second through a bare 160 × 160 `Network`.
    pub flows_per_s_large: f64,
    /// Flows per host second through a bare 3 × 1 `Network`.
    pub flows_per_s_small: f64,
    /// Host µs of one planning cycle per worker, per line-up strategy.
    pub plan_us_per_worker: [f64; 4],
    /// Messages one planning cycle emits per worker, per line-up strategy.
    pub tasks_per_worker: [f64; 4],
}

/// Samples per drive; the median is reported.
const REPS: usize = 3;

/// Run `f` [`REPS`] times under a span named `name`; median host seconds.
fn median_secs(spans: &mut Spans, name: &'static str, mut f: impl FnMut()) -> f64 {
    let secs: Vec<f64> = (0..REPS).map(|_| spans.timed(name, |_| f()).1).collect();
    median(&secs)
}

/// Run every drive and set its metrics. `plan_job` is the `(model, batch,
/// Gb/s)` the workload simulates, so planning is measured on its gradients.
pub fn run_all(
    spans: &mut Spans,
    plan_job: (&'static str, u32, f64),
    out: &mut MetricSet,
) -> Drives {
    let (model, batch, gbps) = plan_job;
    let (job, secs) = spans.timed("dnn.paper_setup", |_| {
        TrainingJob::paper_setup(model, batch)
    });
    out.set("dnn.job_setup.us", secs * 1e6);

    out.set("sim.queue.ns_per_event", queue_drive(spans));
    out.set("sim.trace.on_over_off", trace_drive(spans));

    let scale_job = TrainingJob::paper_setup("resnet18", 16);
    let flows_per_s_large = net_drive(spans, &scale_job, SCALE_WORKERS, SCALE_WORKERS, 1);
    let flows_per_s_small = net_drive(spans, &job, 3, 1, 20);
    out.set("net.drive.flows_per_s.large", flows_per_s_large);
    out.set("net.drive.flows_per_s.small", flows_per_s_small);
    out.set("net.realloc.ns_per_churn", realloc_drive(spans));
    out.set("net.maxmin.ns_per_flow", maxmin_drive(spans));

    let mut plan_us_per_worker = [0.0; 4];
    let mut tasks_per_worker = [0.0; 4];
    let lineup = SchedulerKind::paper_lineup(gbps * 1e9 / 8.0);
    for (s, kind) in lineup.iter().enumerate() {
        let (us, tasks) = plan_cycle_drive(spans, kind, &job);
        plan_us_per_worker[s] = us;
        tasks_per_worker[s] = tasks;
        out.set(&format!("core.plan.us_per_worker.{}", SCHEDS[s]), us);
        out.set(&format!("core.plan.tasks_per_worker.{}", SCHEDS[s]), tasks);
    }
    let input = PlanInput {
        c: job.c_offsets(),
        s: job.sizes(),
        bandwidth_bps: gbps * 1e9 / 8.0,
        tcp: TcpModel::EC2,
    };
    const PLANS: usize = 100;
    let secs = median_secs(spans, "core.prophet_plan", || {
        for _ in 0..PLANS {
            black_box(prophet_plan(black_box(&input)));
        }
    });
    out.set("core.prophet_plan.us", secs * 1e6 / PLANS as f64);
    const DETECTS: usize = 1000;
    let secs = median_secs(spans, "core.detect_blocks", || {
        for _ in 0..DETECTS {
            black_box(detect_blocks(black_box(&input.c)));
        }
    });
    out.set(
        "core.profiler.detect_blocks_us",
        secs * 1e6 / DETECTS as f64,
    );

    minidnn_drive(spans, out);
    wire_drive(spans, out);

    Drives {
        flows_per_s_large,
        flows_per_s_small,
        plan_us_per_worker,
        tasks_per_worker,
    }
}

/// `EventQueue` with 10 k events pending: ns per pop + schedule.
fn queue_drive(spans: &mut Spans) -> f64 {
    const PENDING: u64 = 10_000;
    const OPS: u64 = 300_000;
    let mut rng = SplitMix64::new(1);
    let mut q = EventQueue::new();
    for e in 0..PENDING {
        q.schedule(SimTime(rng.next_u64() % 1_000_000), e);
    }
    let secs = median_secs(spans, "sim.queue_drive", || {
        for _ in 0..OPS {
            let (t, e) = q.pop().expect("queue stays full");
            q.schedule(SimTime(t.0 + 1 + rng.next_u64() % 1_000_000), e);
        }
    });
    secs * 1e9 / OPS as f64
}

/// Host time of a 32-worker Prophet cell with the span trace, the typed
/// trace and the invariant checker on, over the same cell with them off.
fn trace_drive(spans: &mut Spans) -> f64 {
    let kind = SchedulerKind::ProphetOracle(ProphetConfig::paper_default(1.25e9));
    let job = TrainingJob::paper_setup("resnet18", 16);
    let mut off = ClusterConfig::paper_cell(32, 10.0, job, kind);
    off.ps_shards = 32;
    off.warmup_iters = 1;
    off.check_invariants = false;
    let mut on = off.clone();
    on.trace = true;
    on.typed_trace = true;
    on.check_invariants = true;
    let (mut t_on, mut t_off) = (Vec::new(), Vec::new());
    spans.timed("sim.trace_drive", |spans| {
        for _ in 0..REPS {
            t_off.push(
                spans
                    .timed("ps.sim.run_cluster", |_| run_cluster(&off, 3))
                    .1,
            );
            t_on.push(spans.timed("ps.sim.run_cluster", |_| run_cluster(&on, 3)).1);
        }
    });
    median(&t_on) / median(&t_off)
}

/// The cluster's topology without the cluster: shards are nodes
/// `0..shards`, workers follow.
fn topology(workers: usize, shards: usize) -> Topology {
    Topology::uniform(shards + workers, NodeSpec::from_gbps(10.0))
}

/// Push traffic through a bare `Network`: every worker sends `job`'s
/// gradients, last layer first, cut into 4 MB slices, gradient `g` to shard
/// `g % shards`, one message in flight per worker, `rounds` times over.
/// Workers start at staggered points of the sequence so that many shards
/// are busy at once. Returns completed flows per host second.
fn net_drive(
    spans: &mut Spans,
    job: &TrainingJob,
    workers: usize,
    shards: usize,
    rounds: usize,
) -> f64 {
    const SLICE: u64 = 4 << 20;
    let mut msgs: Vec<(usize, u64)> = Vec::new();
    for (g, &size) in job.sizes().iter().enumerate().rev() {
        let mut left = size;
        while left > 0 {
            let bytes = left.min(SLICE);
            msgs.push((g % shards, bytes));
            left -= bytes;
        }
    }
    let per_worker = msgs.len() * rounds;
    let secs = median_secs(spans, "net.drive", || {
        let mut net = Network::new(topology(workers, shards), TcpModel::EC2);
        let mut sent = vec![0usize; workers];
        let start = |net: &mut Network, now: SimTime, w: usize, k: usize| {
            let (shard, bytes) = msgs[(w * 7 + k) % msgs.len()];
            net.start_flow(now, NodeId(shards + w), NodeId(shard), bytes, w as u64);
        };
        for w in 0..workers {
            start(&mut net, SimTime::ZERO, w, 0);
        }
        while let Some(t) = net.next_event_time() {
            for end in net.advance_to(t) {
                let w = end.tag as usize;
                sent[w] += 1;
                if sent[w] < per_worker {
                    start(&mut net, t, w, sent[w]);
                }
            }
        }
        assert!(sent.iter().all(|&n| n == per_worker), "drive ended early");
    });
    (workers * per_worker) as f64 / secs
}

/// One long-lived flow per worker, eight workers to a shard (twenty
/// components of eight flows at 160 workers) — the shape both `net`
/// micro-drives below allocate.
fn grouped_demands() -> Vec<(NodeId, NodeId)> {
    (0..SCALE_WORKERS)
        .map(|w| (NodeId(SCALE_WORKERS + w), NodeId(w / 8)))
        .collect()
}

/// One flow departs and re-arrives in a loaded many-component network and
/// the rates are read back: ns per churn.
fn realloc_drive(spans: &mut Spans) -> f64 {
    const CHURNS: usize = 2_000;
    const FOREVER: u64 = 1 << 40;
    let mut net = Network::new(topology(SCALE_WORKERS, SCALE_WORKERS), TcpModel::IDEAL);
    let flows = grouped_demands();
    for (tag, &(src, dst)) in flows.iter().enumerate() {
        net.start_flow(SimTime::ZERO, src, dst, FOREVER, tag as u64);
    }
    let (src, dst) = flows[0];
    let secs = median_secs(spans, "net.realloc_drive", || {
        for _ in 0..CHURNS {
            net.kill_flow(SimTime::ZERO, 0).expect("flow 0 in flight");
            net.start_flow(SimTime::ZERO, src, dst, FOREVER, 0);
            black_box(net.next_event_time());
        }
    });
    secs * 1e9 / CHURNS as f64
}

/// The from-scratch max-min solver on the same 160 flows: ns per flow.
fn maxmin_drive(spans: &mut Spans) -> f64 {
    const SOLVES: usize = 500;
    let topo = topology(SCALE_WORKERS, SCALE_WORKERS);
    let demands: Vec<FlowDemand> = grouped_demands()
        .into_iter()
        .map(|(src, dst)| FlowDemand {
            src,
            dst,
            cap_bps: f64::INFINITY,
        })
        .collect();
    let mut scratch = Scratch::default();
    let secs = median_secs(spans, "net.maxmin_drive", || {
        for _ in 0..SOLVES {
            black_box(allocate_with(&topo, black_box(&demands), &mut scratch));
        }
    });
    secs * 1e9 / (SOLVES * demands.len()) as f64
}

/// Drive schedulers of `kind` through one planning cycle each, as the
/// cluster would (`iteration_begin`, gradients released last layer first,
/// push drain, `param_ready`, pull drain, `iteration_end`) against a
/// synthetic clock. Construction is timed too: for the oracle it is where
/// the profile is adopted and the block plan built. Returns host µs and
/// messages emitted, both per worker.
fn plan_cycle_drive(spans: &mut Spans, kind: &SchedulerKind, job: &TrainingJob) -> (f64, f64) {
    const WORKERS: u64 = 16;
    let sizes = job.sizes();
    let mut tasks = 0;
    let secs = median_secs(spans, "core.plan_cycle", || {
        tasks = 0;
        for _ in 0..WORKERS {
            let mut sched = kind.build(job);
            tasks += one_cycle(sched.as_mut(), &sizes);
        }
    });
    (secs * 1e6 / WORKERS as f64, tasks as f64 / WORKERS as f64)
}

/// One full planning cycle; returns the number of messages emitted.
fn one_cycle(sched: &mut dyn CommScheduler, sizes: &[u64]) -> u64 {
    // Synthetic clock steps, sim ns: gap between gradient releases, advance
    // per poll while the strategy paces itself, wire time per message.
    const RELEASE_STEP: u64 = 1_000;
    const POLL_STEP: u64 = 100_000;
    const WIRE_STEP: u64 = 50_000;
    // A strategy pacing far into the future gives up after this many idle
    // polls; the task count makes any truncation visible.
    const MAX_IDLE_POLLS: u64 = 10_000;

    let n = sizes.len();
    let mut now = 0u64;
    let mut tasks = 0u64;
    let mut drain = |sched: &mut dyn CommScheduler, now: &mut u64, dir: Dir| {
        let mut done = vec![0u64; n];
        let mut idle = 0u64;
        while done.iter().zip(sizes).any(|(d, s)| d < s) && idle <= MAX_IDLE_POLLS {
            *now += POLL_STEP;
            match sched.next_task(SimTime(*now)) {
                Some(t) => {
                    idle = 0;
                    tasks += 1;
                    if t.dir == dir {
                        for &(g, b) in &t.pieces {
                            done[g] += b;
                        }
                    }
                    *now += WIRE_STEP;
                    sched.task_done(SimTime(*now), &t);
                }
                None => idle += 1,
            }
        }
    };
    sched.iteration_begin(SimTime(now), 0);
    for g in (0..n).rev() {
        now += RELEASE_STEP;
        sched.gradient_ready(SimTime(now), g);
    }
    drain(sched, &mut now, Dir::Push);
    for g in 0..n {
        now += RELEASE_STEP;
        sched.param_ready(SimTime(now), g);
    }
    drain(sched, &mut now, Dir::Pull);
    sched.iteration_end(SimTime(now), 0, Duration(now));
    tasks
}

/// `threaded_mem`'s model on one sample: a forward + backward step, and the
/// `dy · wᵀ` product of its largest layer.
fn minidnn_drive(spans: &mut Spans, out: &mut MetricSet) {
    const STEPS: usize = 5;
    let mut model = Mlp::new(&[512, 2048, 2048, 512, 10], 1);
    let x = Tensor::from_vec(1, 512, (0..512).map(|i| (i % 13) as f32 * 0.1).collect());
    let secs = median_secs(spans, "minidnn.fwd_bwd", || {
        for _ in 0..STEPS {
            model.zero_grads();
            black_box(model.forward_backward(&x, &[3]));
        }
    });
    out.set("minidnn.fwd_bwd.ms", secs * 1e3 / STEPS as f64);

    const PRODUCTS: usize = 20;
    const DIM: usize = 2048;
    let dy = Tensor::from_vec(1, DIM, vec![0.5; DIM]);
    let w = Tensor::from_vec(DIM, DIM, vec![0.25; DIM * DIM]);
    let secs = median_secs(spans, "minidnn.matmul_t", || {
        for _ in 0..PRODUCTS {
            black_box(black_box(&dy).matmul_t(&w));
        }
    });
    out.set(
        "minidnn.matmul_t.gflops",
        (2 * DIM * DIM * PRODUCTS) as f64 / secs / 1e9,
    );
}

/// The wire kernels on the model's largest tensor (2048 × 2048 `f32`,
/// 16 MB): GB of payload per host second.
fn wire_drive(spans: &mut Spans, out: &mut MetricSet) {
    const ELEMS: usize = 2048 * 2048;
    const PASSES: usize = 4;
    let values: Vec<f32> = (0..ELEMS).map(|i| (i % 1000) as f32 * 1e-3).collect();
    let payload = wire::encode_f32(&values);
    let frame = wire::FrameHeader::for_payload(&payload);
    let mut acc = vec![0f32; ELEMS];
    let mut buf = BytesMut::with_capacity(ELEMS * 4);
    // One kernel: `PASSES` calls per sample under span `name`, reported as
    // `<name>_GBps`.
    let mut kernel = |name: &'static str, call: &mut dyn FnMut()| {
        let secs = median_secs(spans, name, || (0..PASSES).for_each(|_| call()));
        let gbps = (ELEMS * 4 * PASSES) as f64 / secs / 1e9;
        out.set(&format!("{name}_GBps"), gbps);
    };
    kernel("ps.threaded.wire.encode", &mut || {
        buf.clear();
        black_box(wire::encode_f32_into_crc(black_box(&values), &mut buf));
    });
    kernel("ps.threaded.wire.fused_accumulate", &mut || {
        let crc = wire::fused_crc_accumulate(wire::crc32::begin(), black_box(&payload), &mut acc);
        black_box(crc);
    });
    kernel("ps.threaded.wire.fused_apply", &mut || {
        let crc = wire::fused_crc_apply(wire::crc32::begin(), black_box(&payload), &mut acc);
        black_box(crc);
    });
    kernel("ps.threaded.wire.crc32c", &mut || {
        black_box(wire::crc32::checksum(black_box(&payload)));
    });
    kernel("ps.threaded.wire.verify_accumulate", &mut || {
        assert!(wire::verify_accumulate(
            black_box(&payload),
            &frame,
            &mut acc
        ));
    });
}
