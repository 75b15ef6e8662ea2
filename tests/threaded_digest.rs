//! A committed cross-commit differential for the threaded runtime.
//!
//! `golden_digest.rs` pins what the cluster simulator computes; this file
//! does the same for `threaded/runtime.rs`. It runs every fault kind the
//! runtime honours — transient (`ShardCrash`, `MsgLoss`, `PayloadCorrupt`,
//! `WorkerStall`, `LinkDegrade`, `LinkDown`) and permanent (`WorkerFail`,
//! `WorkerJoin`, `ShardFail`, `CheckpointCorrupt` behind a shard death) —
//! plus the empty plan, under each of the paper's four strategies, on
//! `ThreadedConfig::small` with two shards and the invariant checker on;
//! and one metered-link run per strategy with link windows open. Each run's
//! `final_params` and `losses` are folded bit by bit into one number per
//! group.
//!
//! What a threaded run computes is a pure function of its configuration
//! and the plan's membership timetable — never of thread timing — so the
//! constants below were recorded once, at the commit before the worker
//! loop learned to overlap compute with its link, and must not be edited
//! by a change that claims to compute the same thing. On a mismatch the
//! failure prints every run's digest, so two commits can be diffed run by
//! run.

use prophet::core::SchedulerKind;
use prophet::net::RetryPolicy;
use prophet::ps::threaded::{run_threaded_training, ThreadedConfig, ThreadedResult};
use prophet::sim::{Duration, FaultPlan, FaultSpec, SimTime};

// ---- recorded before the worker loop overlapped compute with its link ------
const PLANS: u64 = 0x38a2_7a23_095c_b98b;
const METERED: u64 = 0xf84a_bc5e_c6cf_a2d8;

const WORKERS: usize = 3;
const SHARDS: usize = 2;

/// A word-at-a-time FNV-1a-style fold (the one `golden_digest.rs` uses).
struct Digest(u64);

impl Digest {
    fn new() -> Self {
        Digest(0xcbf2_9ce4_8422_2325)
    }

    fn word(&mut self, v: u64) {
        self.0 = (self.0 ^ v).wrapping_mul(0x0100_0000_01b3);
        self.0 ^= self.0 >> 29;
    }
}

/// Fold the bits of one run's final model and loss trace.
fn digest_run(r: &ThreadedResult) -> u64 {
    let mut d = Digest::new();
    d.word(r.final_params.len() as u64);
    for p in &r.final_params {
        d.word(p.len() as u64);
        for v in p {
            d.word(v.to_bits() as u64);
        }
    }
    d.word(r.losses.len() as u64);
    for l in &r.losses {
        d.word(l.to_bits() as u64);
    }
    d.0
}

/// Timeouts in milliseconds, so a lost push costs a test tens of
/// milliseconds instead of the production 5 s.
fn fast_retry() -> RetryPolicy {
    RetryPolicy {
        base: Duration::from_millis(2),
        cap: Duration::from_millis(10),
        timeout: Duration::from_millis(20),
    }
}

/// The paper's line-up at `bps`, with Prophet's profiling window cut to
/// three iterations so its planned mode runs inside a ten-iteration run.
fn lineup(bps: f64) -> Vec<SchedulerKind> {
    let mut kinds = SchedulerKind::paper_lineup(bps);
    for kind in &mut kinds {
        if let SchedulerKind::ProphetOracle(cfg) = kind {
            cfg.profile_iters = 3;
        }
    }
    kinds
}

fn base(kind: SchedulerKind) -> ThreadedConfig {
    let mut cfg = ThreadedConfig::small(WORKERS, kind);
    cfg.ps_shards = SHARDS;
    cfg.global_batch = 48;
    cfg.iterations = 10;
    cfg.retry = fast_retry();
    assert!(cfg.check_invariants, "the digest runs with the checker on");
    cfg
}

fn ms(n: u64) -> Duration {
    Duration::from_millis(n)
}

/// One plan per fault kind (plus the empty plan). Node ids: shard
/// `s < SHARDS`, worker `SHARDS + w`; the joiner takes id `WORKERS`.
fn plans() -> Vec<(&'static str, Vec<FaultSpec>)> {
    let t0 = SimTime::ZERO;
    vec![
        ("empty", vec![]),
        (
            "shard_crash",
            vec![FaultSpec::ShardCrash {
                shard: SHARDS - 1,
                at: t0,
                restart_after: ms(10),
            }],
        ),
        (
            "msg_loss",
            vec![FaultSpec::MsgLoss {
                rate: 0.1,
                at: t0,
                dur: Duration::from_secs(60),
            }],
        ),
        (
            "payload_corrupt",
            vec![FaultSpec::PayloadCorrupt {
                rate: 0.05,
                at: t0,
                dur: Duration::from_secs(60),
            }],
        ),
        (
            "worker_stall",
            vec![FaultSpec::WorkerStall {
                worker: 0,
                at: t0,
                dur: ms(10),
            }],
        ),
        (
            "link_degrade",
            vec![FaultSpec::LinkDegrade {
                node: 0,
                at: t0,
                factor: 0.3,
                dur: ms(20),
            }],
        ),
        (
            "link_down",
            vec![FaultSpec::LinkDown {
                node: 0,
                at: t0,
                dur: ms(10),
            }],
        ),
        (
            "worker_fail",
            vec![FaultSpec::WorkerFail {
                worker: WORKERS - 1,
                at_iter: 4,
            }],
        ),
        (
            "worker_join",
            vec![FaultSpec::WorkerJoin {
                worker: WORKERS,
                at_iter: 3,
            }],
        ),
        (
            "shard_fail",
            vec![FaultSpec::ShardFail {
                shard: SHARDS - 1,
                at_iter: 5,
            }],
        ),
        (
            // A poisoned newest snapshot is only read back when its shard
            // dies after it: the restore must fall back a generation.
            "checkpoint_corrupt",
            vec![
                FaultSpec::CheckpointCorrupt {
                    shard: 0,
                    at_iter: 2,
                },
                FaultSpec::ShardFail {
                    shard: 0,
                    at_iter: 6,
                },
            ],
        ),
    ]
}

/// Digests of a group's runs, and their fold.
struct Group {
    runs: Vec<(String, u64)>,
}

impl Group {
    fn fold(&self) -> u64 {
        let mut d = Digest::new();
        for &(_, h) in &self.runs {
            d.word(h);
        }
        d.0
    }

    fn assert_is(&self, name: &str, recorded: u64) {
        let got = self.fold();
        if got != recorded {
            for (what, h) in &self.runs {
                eprintln!("{h:#018x}  {what}");
            }
            panic!(
                "{name}: digest {got:#018x} over {} runs, recorded {recorded:#018x} — \
                 the threaded runtime no longer computes what it did when the record \
                 was taken",
                self.runs.len()
            );
        }
    }
}

fn run(what: String, cfg: &ThreadedConfig) -> (String, u64) {
    let r = run_threaded_training(cfg);
    assert!(r.events_checked > 0, "{what}: checker not wired");
    (what, digest_run(&r))
}

#[test]
fn every_fault_kind_matches_the_record() {
    let mut runs = Vec::new();
    for kind in lineup(100e6) {
        for (name, faults) in plans() {
            let mut cfg = base(kind.clone());
            cfg.fault_plan = FaultPlan::new(faults);
            runs.push(run(format!("{} {name}", kind.label()), &cfg));
        }
    }
    Group { runs }.assert_is("PLANS", PLANS);
}

#[test]
fn metered_links_match_the_record() {
    // A 2 MB/s link with a degrade window on worker 0's link and an outage
    // on shard 0's: every byte is paced, and the pacing is windowed.
    let mut runs = Vec::new();
    for kind in lineup(2e6) {
        let mut cfg = base(kind.clone());
        cfg.link_bps = Some(2e6);
        cfg.fault_plan = FaultPlan::new(vec![
            FaultSpec::LinkDegrade {
                node: SHARDS,
                at: SimTime::ZERO + ms(5),
                factor: 0.5,
                dur: ms(20),
            },
            FaultSpec::LinkDown {
                node: 0,
                at: SimTime::ZERO + ms(30),
                dur: ms(10),
            },
        ]);
        runs.push(run(format!("{} metered", kind.label()), &cfg));
    }
    Group { runs }.assert_is("METERED", METERED);
}

#[test]
fn digest_sees_every_bit() {
    // The fold must move when one bit of one parameter or one loss moves,
    // or the record above pins nothing.
    let r = run_threaded_training(&base(SchedulerKind::Fifo));
    let base = digest_run(&r);
    let perturbed: [fn(&mut ThreadedResult); 3] = [
        |r| r.final_params[3][0] = f32::from_bits(r.final_params[3][0].to_bits() ^ 1),
        |r| r.losses[9] = f32::from_bits(r.losses[9].to_bits() ^ 1),
        |r| r.final_params.swap(0, 2),
    ];
    for (i, poke) in perturbed.iter().enumerate() {
        let mut other = r.clone();
        poke(&mut other);
        assert_ne!(digest_run(&other), base, "perturbation {i} went unseen");
    }
}
