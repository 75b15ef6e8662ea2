//! The Fig. 5 story, live: run the four strategies on the same small
//! workload and render ASCII Gantt charts of worker 0's per-gradient
//! timeline in one steady iteration — the illustrative comparison the paper
//! uses to motivate Prophet.
//!
//! ```text
//! cargo run --release --example compare_schedulers
//! ```

use prophet::core::SchedulerKind;
use prophet::dnn::TrainingJob;
use prophet::ps::sim::{run_cluster, ClusterConfig};
use prophet::sim::grad_spans_to_ascii_gantt;

fn main() {
    let gbps = 3.0;
    for kind in SchedulerKind::paper_lineup(gbps * 1e9 / 8.0) {
        let label = kind.label();
        let job = TrainingJob::paper_setup("resnet18", 64);
        let mut cfg = ClusterConfig::paper_cell(2, gbps, job, kind);
        cfg.warmup_iters = 2;
        cfg.compute_jitter = 0.0;
        let result = run_cluster(&cfg, 6);

        // Worker 0's spans of one steady iteration, gradient 0 and every
        // 8th, for a readable chart.
        let spans: Vec<_> = result
            .grad_spans
            .iter()
            .filter(|s| s.worker == 0 && s.iter == 4 && s.grad % 8 == 0)
            .copied()
            .collect();
        println!(
            "== {label}: {:.1} samples/s/worker, iteration {:.0} ms ==",
            result.rate,
            result.iter_times[4].as_millis_f64()
        );
        print!("{}", grad_spans_to_ascii_gantt(&spans, 100));
        println!();
    }
    println!("Watch lane w0.g0: from its first glyph to its `F` is the wait the");
    println!("paper's Eq. (2) charges before the next forward pass. FIFO's is the");
    println!("longest; Prophet's comes with the highest rate.");
}
