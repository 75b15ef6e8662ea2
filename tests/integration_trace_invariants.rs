//! Cross-stack trace/invariant layer, end to end: every paper-lineup
//! strategy runs under the [`prophet::sim::InvariantChecker`] (explicitly
//! enabled, so release builds exercise it too) and the typed span collector
//! produces a complete, well-ordered per-gradient span stream.

use prophet::core::SchedulerKind;
use prophet::dnn::TrainingJob;
use prophet::ps::sim::{run_cluster, ClusterConfig, SyncMode};
use prophet::sim::{spans_to_csv, SpanKind};

fn cell(kind: SchedulerKind) -> ClusterConfig {
    let mut cfg =
        ClusterConfig::paper_cell(3, 10.0, TrainingJob::paper_setup("resnet18", 16), kind);
    cfg.check_invariants = true;
    cfg.typed_trace = true;
    cfg
}

#[test]
fn invariants_hold_for_every_paper_strategy() {
    // The checker panics on the first violation, so completing the run IS
    // the assertion; the span checks below confirm the stream was actually
    // emitted rather than silently skipped.
    for kind in SchedulerKind::paper_lineup(1.25e9) {
        let label = kind.label();
        let r = run_cluster(&cell(kind), 3);
        assert_eq!(r.iter_times.len(), 3, "{label}");
        assert!(
            !r.grad_spans.is_empty(),
            "{label}: typed_trace produced no spans"
        );
    }
}

#[test]
fn invariants_hold_under_asp() {
    let mut cfg = cell(SchedulerKind::Fifo);
    cfg.sync = SyncMode::Asp;
    let r = run_cluster(&cfg, 3);
    assert_eq!(r.iter_times.len(), 3);
    assert!(!r.grad_spans.is_empty());
}

#[test]
fn invariants_hold_with_sharded_ps_and_hetero_bandwidth() {
    // Sharded PS splits every message into sub-flows and a capped worker
    // stretches them — the regime where flow/lane bookkeeping bugs hide.
    let mut cfg = cell(SchedulerKind::ByteScheduler(Default::default()));
    cfg.ps_shards = 3;
    cfg.worker_bps_overrides.push((1, 62.5e6));
    let r = run_cluster(&cfg, 3);
    assert_eq!(r.iter_times.len(), 3);
}

#[test]
fn span_stream_is_complete_per_worker_gradient_iteration() {
    let cfg = cell(SchedulerKind::Fifo);
    let n = cfg.job.num_gradients();
    let iters = 3;
    let r = run_cluster(&cfg, iters);
    // Push and Pull spans must exist for every (worker, iter, grad); the
    // compute span too, since each forward tensor runs exactly once.
    for kind in [SpanKind::Push, SpanKind::Pull, SpanKind::Compute] {
        let count = r.grad_spans.iter().filter(|s| s.kind == kind).count();
        assert_eq!(
            count,
            cfg.workers * iters as usize * n,
            "missing {kind:?} spans"
        );
    }
    for s in &r.grad_spans {
        assert!(s.end >= s.start, "span {s:?} ends before it starts");
        assert!(s.worker < cfg.workers && s.grad < n && s.iter < iters);
    }
}

#[test]
fn span_csv_exports_the_whole_stream() {
    let r = run_cluster(&cell(SchedulerKind::Fifo), 2);
    let csv = spans_to_csv(&r.grad_spans);
    let mut lines = csv.lines();
    assert_eq!(
        lines.next().unwrap(),
        "worker,iter,grad,kind,start_ms,end_ms"
    );
    assert_eq!(lines.count(), r.grad_spans.len());
}

#[test]
fn typed_trace_off_collects_exactly_worker_0() {
    let mut cfg = cell(SchedulerKind::Fifo);
    cfg.typed_trace = false;
    let iters = 2;
    let r = run_cluster(&cfg, iters);
    let n = cfg.job.num_gradients();
    assert!(r.grad_spans.iter().all(|s| s.worker == 0));
    for kind in [SpanKind::Push, SpanKind::Pull, SpanKind::Compute] {
        let count = r.grad_spans.iter().filter(|s| s.kind == kind).count();
        assert_eq!(count, iters as usize * n, "missing {kind:?} spans");
    }
    assert!(r.shard_spans.is_empty());
    // Worker 0's spans are the same whether or not the others are kept.
    cfg.typed_trace = true;
    let full = run_cluster(&cfg, iters);
    let w0 = full.grad_spans.iter().filter(|s| s.worker == 0);
    assert!(w0.copied().eq(r.grad_spans.iter().copied()));
}
