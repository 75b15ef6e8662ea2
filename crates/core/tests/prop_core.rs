//! Property tests for the scheduling core: Algorithm 1 invariants, the
//! analytic performance model, and scheduler conservation laws.

use prophet_core::perfmodel::{fifo_starts, priority_starts, Schedule};
use prophet_core::plan::{prophet_plan, PlanInput};
use prophet_core::profiler::detect_blocks;
use prophet_core::{CommScheduler, Dir, SchedulerKind};
use prophet_dnn::TrainingJob;
use prophet_net::TcpModel;
use prophet_sim::{Duration, SimTime};
use proptest::prelude::*;

/// A stepwise generation schedule: `nblocks` bursts, each with a handful of
/// gradients; gradient 0 always alone in the final burst. Returns `(c, s)`
/// indexed by gradient id.
fn stepwise(nblocks: usize, per_block: usize, gap_ms: u64, size: u64) -> (Vec<Duration>, Vec<u64>) {
    let n = nblocks * per_block + 1;
    let mut c = vec![Duration::ZERO; n];
    // Highest ids released first; bursts every `gap_ms`.
    for b in 0..nblocks {
        let t = Duration::from_millis(b as u64 * gap_ms);
        for k in 0..per_block {
            let id = n - 1 - (b * per_block + k);
            c[id] = t;
        }
    }
    c[0] = Duration::from_millis(nblocks as u64 * gap_ms);
    (c, vec![size; n])
}

fn plan_input(c: Vec<Duration>, s: Vec<u64>, bps: f64) -> PlanInput {
    PlanInput {
        c,
        s,
        bandwidth_bps: bps,
        tcp: TcpModel::IDEAL,
    }
}

proptest! {
    /// Every gradient is scheduled exactly once: backward blocks and the
    /// forward order partition the gradient set.
    #[test]
    fn plan_partitions_gradients(
        nblocks in 1usize..12,
        per_block in 1usize..20,
        gap in 1u64..100,
        size in 1_000u64..10_000_000,
        mbps in 1u32..10_000,
    ) {
        let (c, s) = stepwise(nblocks, per_block, gap, size);
        let n = c.len();
        let plan = prophet_plan(&plan_input(c, s, mbps as f64 * 1e6 / 8.0));
        let mut seen = vec![0u32; n];
        for b in &plan.backward_blocks {
            for &g in &b.grads {
                seen[g] += 1;
            }
        }
        for &g in &plan.forward_order {
            seen[g] += 1;
        }
        prop_assert!(seen.iter().all(|&k| k == 1), "coverage {seen:?}");
    }

    /// Constraint (11): backward transfers never run past the next
    /// generation event; Constraint (7): never start before generation.
    #[test]
    fn plan_respects_constraints(
        nblocks in 1usize..10,
        per_block in 1usize..15,
        gap in 1u64..80,
        size in 1_000u64..20_000_000,
    ) {
        let (c, s) = stepwise(nblocks, per_block, gap, size);
        let plan = prophet_plan(&plan_input(c.clone(), s, 1.25e9));
        let mut gen: Vec<Duration> = c.clone();
        gen.sort();
        gen.dedup();
        for b in &plan.backward_blocks {
            for &g in &b.grads {
                prop_assert!(plan.starts[g] >= c[g], "constraint 7 violated for {g}");
                let end = plan.starts[g] + plan.transfer_times[g];
                if let Some(&next) = gen.iter().find(|&&t| t > plan.starts[g]) {
                    prop_assert!(end <= next, "constraint 11 violated for {g}");
                }
            }
        }
        // Gradient 0 at its generation (line 17).
        prop_assert_eq!(plan.starts[0], c[0]);
    }

    /// Under the analytic model, Prophet's u(0) is minimal: no feasible
    /// schedule can update gradient 0 earlier, and FIFO never beats it.
    #[test]
    fn prophet_u0_is_minimal(
        nblocks in 1usize..10,
        per_block in 1usize..15,
        gap in 1u64..80,
        size in 1_000u64..20_000_000,
        fwd_us in 1u64..5_000,
    ) {
        let (c, s) = stepwise(nblocks, per_block, gap, size);
        let n = c.len();
        let plan = prophet_plan(&plan_input(c.clone(), s.clone(), 1.25e9));
        let fwd = vec![Duration::from_micros(fwd_us); n];
        let prophet_ev = Schedule {
            c: c.clone(),
            t: plan.starts.clone(),
            e: plan.transfer_times.clone(),
            fwd: fwd.clone(),
        }.evaluate();
        let fifo_t = fifo_starts(&c, &plan.transfer_times);
        let fifo_ev = Schedule {
            c: c.clone(),
            t: fifo_t,
            e: plan.transfer_times.clone(),
            fwd,
        }.evaluate();
        // Lower bound: u(0) >= c(0) + 2E(0) for any feasible schedule.
        prop_assert_eq!(prophet_ev.u[0], c[0] + plan.transfer_times[0] + plan.transfer_times[0]);
        prop_assert!(prophet_ev.u[0] <= fifo_ev.u[0]);
    }

    /// In the regime the paper targets — blocks that fit their windows —
    /// Prophet's total wait is no worse than FIFO's and no worse than
    /// non-preemptive priority transfers.
    #[test]
    fn prophet_wait_beats_baselines_when_blocks_fit(
        nblocks in 2usize..10,
        per_block in 1usize..12,
        fwd_us in 50u64..2_000,
    ) {
        // Construct "fits comfortably" geometry: each burst moves
        // per_block x 1 MB; at 1.25 GB/s that is per_block x 0.8 ms; give
        // a window of 4x that.
        let size = 1_000_000u64;
        let gap_ms = (per_block as u64).max(1) * 4;
        let (c, s) = stepwise(nblocks, per_block, gap_ms, size);
        let n = c.len();
        let plan = prophet_plan(&plan_input(c.clone(), s.clone(), 1.25e9));
        // Everything but gradient 0 assembled in backward.
        prop_assert_eq!(plan.forward_order.len(), 1);
        let fwd = vec![Duration::from_micros(fwd_us); n];
        let eval = |t: Vec<Duration>| Schedule {
            c: c.clone(),
            t,
            e: plan.transfer_times.clone(),
            fwd: fwd.clone(),
        }.evaluate();
        let prophet_ev = eval(plan.starts.clone());
        let fifo_ev = eval(fifo_starts(&c, &plan.transfer_times));
        let prio_ev = eval(priority_starts(&c, &plan.transfer_times));
        prop_assert!(
            prophet_ev.t_wait <= fifo_ev.t_wait,
            "prophet {:?} > fifo {:?}", prophet_ev.t_wait, fifo_ev.t_wait
        );
        prop_assert!(
            prophet_ev.t_wait <= prio_ev.t_wait,
            "prophet {:?} > priority {:?}", prophet_ev.t_wait, prio_ev.t_wait
        );
    }

    /// detect_blocks always partitions 0..n and respects time ordering.
    #[test]
    fn detect_blocks_partitions(offsets in prop::collection::vec(0u64..100_000, 1..300)) {
        let c: Vec<Duration> = offsets.iter().map(|&us| Duration::from_micros(us)).collect();
        let blocks = detect_blocks(&c);
        let mut all: Vec<usize> = blocks.iter().flatten().copied().collect();
        all.sort_unstable();
        prop_assert_eq!(all, (0..c.len()).collect::<Vec<_>>());
        // Chronological: the earliest release in block k+1 is no earlier
        // than the earliest release in block k.
        for w in blocks.windows(2) {
            let a = w[0].iter().map(|&g| c[g]).min().unwrap();
            let b = w[1].iter().map(|&g| c[g]).min().unwrap();
            prop_assert!(a <= b);
        }
    }

    /// Conservation across the paper's line-up, both halves of a cycle:
    /// release every gradient (backward order) and drain the pushes, then
    /// release every parameter (forward order) and drain the pulls. Each
    /// gradient's bytes must cross the wire exactly once per direction.
    #[test]
    fn schedulers_conserve_bytes(
        seed in 0u64..1_000,
        kind_idx in 0usize..4,
    ) {
        let job = TrainingJob::paper_setup("resnet18", 16);
        let kind = &SchedulerKind::paper_lineup(1.25e9)[kind_idx];
        let mut sched = kind.build(&job);
        let n = job.num_gradients();
        let sizes = job.sizes();
        let now = SimTime::from_nanos(seed); // arbitrary but valid clock
        sched.iteration_begin(now, 0);
        // Drain after each release, completing tasks immediately.
        let mut pushed = vec![0u64; n];
        for g in (0..n).rev() {
            sched.gradient_ready(now, g);
            drain(sched.as_mut(), now, Dir::Push, &mut pushed);
        }
        prop_assert_eq!(&pushed, &sizes);
        let mut pulled = vec![0u64; n];
        for g in 0..n {
            sched.param_ready(now, g);
            drain(sched.as_mut(), now, Dir::Pull, &mut pulled);
        }
        prop_assert_eq!(&pulled, &sizes);
    }
}

/// Complete every task `sched` offers at `now`, each of which must move
/// `dir`, adding its pieces' bytes to `moved`.
fn drain(sched: &mut dyn CommScheduler, now: SimTime, dir: Dir, moved: &mut [u64]) {
    while let Some(t) = sched.next_task(now) {
        assert_eq!(t.dir, dir, "task in the wrong direction");
        for &(g, b) in &t.pieces {
            moved[g] += b;
        }
        sched.task_done(now, &t);
    }
}
