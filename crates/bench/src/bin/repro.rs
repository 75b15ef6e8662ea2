//! `repro` — regenerate the paper's tables and figures.
//!
//! ```text
//! repro list            # show experiment ids
//! repro all             # run everything, print markdown, write results/*.csv
//! repro fig8 table2 ... # run specific experiments
//! repro trace <sched> [gbps] [batch] [seed]
//!                       # run one cell with the typed span trace on and
//!                       # write per-gradient spans to results/trace_*.csv,
//!                       # printing an ASCII Gantt of worker 0's spans
//! repro ext_chaos <seed> [budget] [profile…]
//!                       # chaos sweep at any scale: <budget> generated
//!                       # fault plans per profile and scheduler, each run
//!                       # twice and judged by one verdict; profiles are
//!                       # transient | churn | corruption | mixed (default:
//!                       # all four)
//! ```
//!
//! CSV outputs land in `results/` at the workspace root (override with
//! `PROPHET_RESULTS_DIR`).

use prophet_bench::registry;
use std::path::PathBuf;

fn results_dir() -> PathBuf {
    std::env::var("PROPHET_RESULTS_DIR")
        .map(PathBuf::from)
        .unwrap_or_else(|_| PathBuf::from("results"))
}

/// `repro trace <sched> [gbps] [batch] [seed]` — simulate one experimental
/// cell with the typed event stream enabled (invariant checker included) and
/// export the per-`(worker, gradient, iteration)` spans as CSV. Defaults to
/// the cell pinned by `tests/regression_pinned_cell.rs`, so a failing
/// regression can be replayed into an inspectable trace verbatim.
fn run_trace(args: &[String]) {
    use prophet::core::{ProphetConfig, SchedulerKind};
    use prophet::dnn::TrainingJob;
    use prophet::ps::sim::{run_cluster, ClusterConfig};
    use prophet::sim::{grad_spans_to_ascii_gantt, spans_to_csv, SpanKind};

    let sched = args.first().map(String::as_str).unwrap_or("fifo");
    // Strict positional parsing: a malformed `[gbps] [batch] [seed]` must
    // exit non-zero rather than silently truncate (`64.5` is not a batch).
    fn parse_arg<T: std::str::FromStr>(args: &[String], i: usize, name: &str, default: T) -> T {
        args.get(i).map_or(default, |s| {
            s.parse().unwrap_or_else(|_| {
                eprintln!("bad {name} `{s}` — usage: repro trace <sched> [gbps] [batch] [seed]");
                std::process::exit(1);
            })
        })
    }
    let gbps: f64 = parse_arg(args, 1, "gbps", 6.626115377326036);
    if !(gbps.is_finite() && gbps > 0.0) {
        eprintln!("bad gbps `{gbps}` — must be a finite positive bandwidth");
        std::process::exit(1);
    }
    let batch: u32 = parse_arg(args, 2, "batch", 64);
    if batch == 0 {
        eprintln!("bad batch `0` — must be at least 1");
        std::process::exit(1);
    }
    let seed: u64 = parse_arg(args, 3, "seed", 0);
    if let Some(extra) = args.get(4) {
        eprintln!(
            "unexpected argument `{extra}` — usage: repro trace <sched> [gbps] [batch] [seed]"
        );
        std::process::exit(1);
    }
    let bps = gbps * 1e9 / 8.0;
    let kind = match sched {
        "fifo" => SchedulerKind::Fifo,
        "p3" => SchedulerKind::P3 {
            partition_bytes: 4 << 20,
        },
        "bytescheduler" => SchedulerKind::ByteScheduler(Default::default()),
        "prophet" => SchedulerKind::ProphetOracle(ProphetConfig::paper_default(bps)),
        other => {
            eprintln!("unknown scheduler `{other}` — want fifo | p3 | bytescheduler | prophet");
            std::process::exit(1);
        }
    };

    let mut cfg =
        ClusterConfig::paper_cell(2, gbps, TrainingJob::paper_setup("resnet18", batch), kind);
    cfg.seed = seed;
    cfg.warmup_iters = 1;
    cfg.typed_trace = true;
    cfg.check_invariants = true;
    eprintln!("[repro] tracing {sched} @ {gbps} Gb/s, batch {batch}, seed {seed} ...");
    let r = run_cluster(&cfg, 3);

    // Per-kind summary over worker 0 (mean duration in ms).
    println!(
        "spans: {} ({} iterations, rate {:.1} samples/s)",
        r.grad_spans.len(),
        r.iterations,
        r.rate
    );
    for kind in [
        SpanKind::QueueWait,
        SpanKind::Push,
        SpanKind::Aggregate,
        SpanKind::Pull,
        SpanKind::Compute,
    ] {
        let ms: Vec<f64> = r
            .grad_spans
            .iter()
            .filter(|s| s.worker == 0 && s.kind == kind)
            .map(|s| s.end.saturating_since(s.start).as_millis_f64())
            .collect();
        let mean = if ms.is_empty() {
            0.0
        } else {
            ms.iter().sum::<f64>() / ms.len() as f64
        };
        println!(
            "  {:<10} n={:<4} mean {:.3} ms",
            kind.as_str(),
            ms.len(),
            mean
        );
    }

    // Worker 0's lanes as an ASCII Gantt: `.` queue-wait, `#` push,
    // `=` aggregate, `<` pull, `F` compute.
    let w0: Vec<_> = r
        .grad_spans
        .iter()
        .filter(|s| s.worker == 0)
        .cloned()
        .collect();
    println!("\nworker 0 gantt (.queue #push =agg <pull Fcompute):");
    print!("{}", grad_spans_to_ascii_gantt(&w0, 100));

    let dir = results_dir();
    if let Err(e) = std::fs::create_dir_all(&dir) {
        eprintln!("[repro] cannot create {}: {e}", dir.display());
        std::process::exit(1);
    }
    let path = dir.join(format!("trace_{sched}_{gbps}gbps_b{batch}_s{seed}.csv"));
    match std::fs::write(&path, spans_to_csv(&r.grad_spans)) {
        Ok(()) => eprintln!("[repro] trace → {}", path.display()),
        Err(e) => {
            eprintln!("[repro] could not write {}: {e}", path.display());
            std::process::exit(1);
        }
    }
}

/// Usage of the parameterised chaos sweep.
const CHAOS_USAGE: &str = "repro ext_chaos <seed> [budget] [transient|churn|corruption|mixed ...]";

/// `repro ext_chaos <seed> [budget] [profile…]` — strict positional
/// parsing: a malformed number or an unknown profile exits non-zero with the
/// usage line before anything is simulated.
fn run_ext_chaos(args: &[String]) {
    use prophet_bench::experiments::chaos::{run_chaos, Profile};
    let parse = |i: usize, name: &str, default: u64| -> u64 {
        args.get(i).map_or(default, |s| {
            s.parse().unwrap_or_else(|_| {
                eprintln!("bad {name} `{s}` — usage: {CHAOS_USAGE}");
                std::process::exit(1);
            })
        })
    };
    let seed = parse(0, "seed", 42);
    let budget = parse(1, "budget", 200) as usize;
    let mut profiles: Vec<Profile> = args
        .iter()
        .skip(2)
        .map(|name| {
            let profile = Profile::ALL.into_iter().find(|p| p.name() == name);
            profile.unwrap_or_else(|| {
                eprintln!("unknown profile `{name}` — usage: {CHAOS_USAGE}");
                std::process::exit(1);
            })
        })
        .collect();
    if profiles.is_empty() {
        profiles = Profile::ALL.to_vec();
    }
    eprintln!("[repro] chaos sweep: seed {seed}, {budget} plans per profile and scheduler ...");
    let t0 = std::time::Instant::now();
    let output = run_chaos(seed, budget, &profiles);
    println!("{}", output.to_markdown());
    match output.write_csv(&results_dir()) {
        Ok(path) => eprintln!(
            "[repro] ext_chaos done in {:.1?} → {}",
            t0.elapsed(),
            path.display()
        ),
        Err(e) => csv_failed("ext_chaos", e),
    }
}

/// An experiment whose CSV could not be written has failed: exit non-zero
/// so no caller mistakes a stale committed `results/*.csv` for its output.
fn csv_failed(id: &str, e: std::io::Error) -> ! {
    eprintln!("[repro] {id}: could not write CSV: {e}");
    std::process::exit(1);
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let reg = registry();

    if args.is_empty() || args[0] == "list" {
        println!("experiments ({}):", reg.len());
        for (id, desc, _) in &reg {
            println!("  {id:<16} {desc}");
        }
        println!("\nusage: repro all | repro <id> [<id> ...] | repro trace <sched> [gbps] [batch] [seed]");
        println!("       {CHAOS_USAGE}");
        return;
    }

    if args[0] == "trace" {
        run_trace(&args[1..]);
        return;
    }

    // The parameterised sweep. A bare `repro ext_chaos` (no arguments)
    // falls through to the registry's small fixed-seed entry.
    if args[0] == "ext_chaos" && args.len() > 1 {
        run_ext_chaos(&args[1..]);
        return;
    }

    let selected: Vec<&(&str, &str, prophet_bench::Runner)> = if args[0] == "all" {
        reg.iter().collect()
    } else {
        let mut sel = Vec::new();
        for arg in &args {
            match reg.iter().find(|(id, _, _)| id == arg) {
                Some(entry) => sel.push(entry),
                None => {
                    let ids: Vec<&str> = reg.iter().map(|(id, _, _)| *id).collect();
                    eprintln!("unknown experiment `{arg}`");
                    eprintln!("valid ids: {}", ids.join(" "));
                    eprintln!(
                        "usage: repro all | repro <id> [<id> ...] | repro trace <sched> [gbps] [batch] [seed]"
                    );
                    eprintln!("       {CHAOS_USAGE}");
                    std::process::exit(1);
                }
            }
        }
        sel
    };

    let dir = results_dir();
    for (id, _, run) in selected {
        eprintln!("[repro] running {id} ...");
        let t0 = std::time::Instant::now();
        let output = run();
        let elapsed = t0.elapsed();
        println!("{}", output.to_markdown());
        match output.write_csv(&dir) {
            Ok(path) => eprintln!("[repro] {id} done in {elapsed:.1?} → {}", path.display()),
            Err(e) => csv_failed(id, e),
        }
    }
}
