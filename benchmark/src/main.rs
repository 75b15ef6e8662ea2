//! The repo's benchmark: six workloads over both engines, end-to-end and
//! per-layer metrics, and a traced run. README.md says why each workload
//! and metric is here; `BENCHMARK.json` at the repo root is the contract.
//!
//! ```text
//! prophet-benchmark --workload <name> --seed <n> --seconds <s> --trace <0|1>
//! ```
//!
//! A run sets the workload up (inputs from `--seed`, one untimed warm-up
//! cell), makes two whole passes over its fixed work and more while they fit
//! in `--seconds`, checks the outputs, and prints every metric by name and
//! unit on stderr and one JSON result line on stdout. `--trace 0` reports
//! the end-to-end metrics with span storage off. `--trace 1` stores a span
//! around every call into a layer, adds the layer drives, reports the
//! per-layer metrics and writes `benchmark/out/<workload>.trace.json`. The
//! benchmark spawns no thread of its own and exits non-zero when a check
//! fails.

mod layers;
mod metrics;
mod sim;
mod spans;
mod threaded;

use layers::Drives;
use metrics::{median, per_layer_table, MetricSet, END_TO_END};
use spans::Spans;
use std::process::ExitCode;

/// The workloads, as `BENCHMARK.json` lists them.
pub const WORKLOADS: [&str; 6] = [
    "sim_scale",
    "sim_paper",
    "sim_faults",
    "threaded_mem",
    "threaded_link",
    "threaded_corrupt",
];

/// Set-ups per untraced run; `setup_s` is their median. At least
/// `MIN_SETUPS`, then more while set-up has taken under `SETUP_BUDGET_S` in
/// all, so that a 30 ms set-up is sampled as steadily as a 1 s one.
const MIN_SETUPS: usize = 3;
const MAX_SETUPS: usize = 9;
const SETUP_BUDGET_S: f64 = 1.0;

/// What `main` needs from a workload once it is set up.
pub trait Workload {
    /// Run the fixed work once, checking each operation's output; work per
    /// host second. `sim_*`: simulated worker-iterations, as the geometric
    /// mean over the pass's cells (or judged plans), so that every cell
    /// weighs the same and one cell whose cost swings with the seed —
    /// `prophet-oracle` at 160 workers, ±20 % — does not set the spread.
    /// `threaded_*`: steady-state training iterations, by the lo/hi quotient.
    fn pass(&mut self, spans: &mut Spans) -> f64;
    /// Checks that need runs of their own, after the timed region.
    fn finish(&mut self, _spans: &mut Spans) {}
    /// Operations `(attempted, failed)` so far: cells, plans, training runs.
    fn operations(&self) -> (u64, u64);
    /// `(model, batch, Gb/s)` the planning drive should plan for.
    fn plan_job(&self) -> (&'static str, u32, f64) {
        ("resnet18", 16, 10.0)
    }
    /// The per-layer metrics this workload's own runs produce.
    fn layer_metrics(&self, drives: &Drives, out: &mut MetricSet);
}

/// Build `name`'s inputs from `seed` and run its untimed warm-up cell.
fn set_up(name: &str, seed: u64, spans: &mut Spans) -> Option<Box<dyn Workload>> {
    use sim::{SimFaults, SimGrid};
    use threaded::Threaded;
    Some(match name {
        "sim_scale" => Box::new(SimGrid::scale_inputs(seed).warm_up(spans)),
        "sim_paper" => Box::new(SimGrid::paper_inputs(seed).warm_up(spans)),
        "sim_faults" => Box::new(SimFaults::inputs(seed, spans).warm_up(spans)),
        "threaded_mem" => Box::new(Threaded::mem_inputs(seed).warm_up(spans)),
        "threaded_link" => Box::new(Threaded::link_inputs(seed).warm_up(spans)),
        "threaded_corrupt" => Box::new(Threaded::corrupt_inputs(seed).warm_up(spans)),
        _ => return None,
    })
}

struct Args {
    workload: String,
    seed: u64,
    seconds: f64,
    trace: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut workload = None;
    let mut seed = 1;
    let mut seconds = 10.0;
    let mut trace = false;
    let mut args = std::env::args().skip(1);
    while let Some(flag) = args.next() {
        let value = args.next().ok_or_else(|| format!("{flag} needs a value"))?;
        let bad = |what: &str| format!("{flag} {value}: expected {what}");
        match flag.as_str() {
            "--workload" => workload = Some(value),
            "--seed" => seed = value.parse().map_err(|_| bad("a whole number"))?,
            "--seconds" => {
                seconds = value.parse().map_err(|_| bad("a number of seconds"))?;
                if !(seconds > 0.0 && seconds <= 600.0) {
                    return Err(bad("between 0 and 600 seconds"));
                }
            }
            "--trace" => {
                trace = match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(bad("0 or 1")),
                }
            }
            _ => return Err(format!("unknown argument {flag}")),
        }
    }
    let workload = workload.ok_or("--workload is required")?;
    if !WORKLOADS.contains(&workload.as_str()) {
        return Err(format!(
            "unknown workload {workload}; one of {}",
            WORKLOADS.join(", ")
        ));
    }
    Ok(Args {
        workload,
        seed,
        seconds,
        trace,
    })
}

/// Peak resident set of this process, MB (`VmHWM` of `/proc/self/status`).
fn peak_rss_mb() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").expect("/proc/self/status");
    let kb: f64 = status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|rest| rest.trim().trim_end_matches("kB").trim().parse().ok())
        .expect("VmHWM line");
    kb / 1024.0
}

/// Where the traced run writes its Chrome trace, relative to the directory
/// the command runs from (the repo root).
const TRACE_DIR: &str = "benchmark/out";

/// The traced run's tail: layer drives, per-layer metrics, per-layer self
/// times on stderr, and the Chrome trace on disk. `wall_s` holds the passes'
/// host seconds; spans were stored on the even-numbered ones.
fn traced_metrics(
    name: &str,
    workload: &dyn Workload,
    spans: &mut Spans,
    wall_s: &[f64],
) -> std::io::Result<MetricSet> {
    let mut m = MetricSet::zeroed(per_layer_table());
    m.set("peak_rss_mb", peak_rss_mb());
    m.set("wall_s", median(wall_s));
    let drives = layers::run_all(spans, workload.plan_job(), &mut m);
    workload.layer_metrics(&drives, &mut m);

    let stored: Vec<f64> = wall_s.iter().copied().step_by(2).collect();
    let bare: Vec<f64> = wall_s.iter().copied().skip(1).step_by(2).collect();
    m.set(
        "trace_overhead_pct",
        (median(&stored) / median(&bare) - 1.0) * 100.0,
    );
    let by_layer = spans.self_seconds_under("bench.pass");
    let stored_total = spans.total_seconds("bench.pass");
    let in_layers: f64 = by_layer
        .iter()
        .filter(|(layer, _)| layer.as_str() != "bench")
        .map(|(_, secs)| secs)
        .sum();
    m.set("trace.pass_coverage_pct", in_layers / stored_total * 100.0);
    eprintln!("self seconds by layer under the stored passes ({stored_total:.3} s):");
    for (layer, secs) in &by_layer {
        eprintln!("  {layer:<24} {secs:>10.4}");
    }

    let path = std::path::Path::new(TRACE_DIR).join(format!("{name}.trace.json"));
    std::fs::create_dir_all(TRACE_DIR)?;
    std::fs::write(&path, spans.to_chrome_trace(name))?;
    eprintln!("{} spans -> {}", spans.len(), path.display());
    Ok(m)
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(args) => args,
        Err(msg) => {
            eprintln!(
                "{msg}\nusage: prophet-benchmark --workload <name> --seed <n> \
                 --seconds <s> --trace <0|1>"
            );
            return ExitCode::from(2);
        }
    };
    let mut spans = Spans::new(args.trace);

    // Set-up, repeated so that `setup_s` is a median; the traced run does
    // not report it and sets up once.
    let mut setup_s: Vec<f64> = Vec::new();
    let mut workload = loop {
        let (w, secs) = spans.timed("bench.setup", |s| set_up(&args.workload, args.seed, s));
        setup_s.push(secs);
        let spent: f64 = setup_s.iter().sum();
        if args.trace
            || setup_s.len() >= MAX_SETUPS
            || (setup_s.len() >= MIN_SETUPS && spent >= SETUP_BUDGET_S)
        {
            break w.expect("workload name was checked");
        }
    };

    // The timed region: two whole passes, so that every cell is repeated
    // once, then more until the next would overrun. The traced run stores
    // spans on every other pass only, which prices the storing, and keeps
    // back part of its time for the layer drives.
    let budget = if args.trace {
        args.seconds * 0.6
    } else {
        args.seconds
    };
    let (mut wall_s, mut iters_per_s) = (Vec::new(), Vec::new());
    let mut store = args.trace;
    let region_start = spans.elapsed_s();
    loop {
        spans.set_recording(store);
        store = args.trace && !store;
        let (rate, secs) = spans.timed("bench.pass", |s| workload.pass(s));
        eprintln!("pass {}: {secs:.4} s, {rate:.4} iters/s", wall_s.len());
        wall_s.push(secs);
        iters_per_s.push(rate);
        if wall_s.len() >= 2 && spans.elapsed_s() - region_start + secs > budget {
            break;
        }
    }
    spans.set_recording(args.trace);
    spans.timed("bench.checks", |s| workload.finish(s));

    let metrics = if args.trace {
        match traced_metrics(&args.workload, workload.as_ref(), &mut spans, &wall_s) {
            Ok(m) => m,
            Err(e) => {
                eprintln!("cannot write the trace under {TRACE_DIR}: {e}");
                return ExitCode::FAILURE;
            }
        }
    } else {
        let mut m = MetricSet::zeroed(END_TO_END.map(|(n, u)| (n.to_string(), u)));
        m.set("setup_s", median(&setup_s));
        m.set("iters_per_s", median(&iters_per_s));
        m
    };

    let (attempted, failed) = workload.operations();
    eprintln!(
        "{} seed {} trace {}: {} passes, {attempted} operations, {failed} failed",
        args.workload,
        args.seed,
        args.trace as u8,
        wall_s.len()
    );
    for (name, unit, value) in metrics.rows() {
        eprintln!("  {name:<48} {value:>16.6} {unit}");
    }
    println!("{}", metrics.result_line(failed == 0, attempted, failed));
    if failed == 0 {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use sim::{SimFaults, SimGrid};
    use threaded::Threaded;

    /// `--seed` reaches `ChaosGen`, `ClusterConfig::seed` and
    /// `ThreadedConfig::seed`, and nothing else: the fault plan of
    /// `threaded_corrupt` keeps the library's default fault seed.
    #[test]
    fn seed_reaches_the_generators_and_the_configs() {
        let mut spans = Spans::new(false);
        let a = SimFaults::inputs(11, &mut spans);
        let again = SimFaults::inputs(11, &mut spans);
        let b = SimFaults::inputs(12, &mut spans);
        assert_eq!(a.plan_digest(), again.plan_digest());
        assert_ne!(a.plan_digest(), b.plan_digest());
        assert!(a.seeds().iter().all(|&s| s == 11));

        for grid in [SimGrid::scale_inputs(11), SimGrid::paper_inputs(11)] {
            assert!(grid.seeds().iter().all(|&s| s == 11));
        }
        for w in [
            Threaded::mem_inputs(11),
            Threaded::link_inputs(11),
            Threaded::corrupt_inputs(11),
        ] {
            assert_eq!(w.config().seed, 11);
        }
        let default_plan = prophet::sim::FaultPlan::new(Vec::new());
        assert_eq!(
            Threaded::corrupt_inputs(11).config().fault_plan.seed,
            default_plan.seed
        );
    }
}
