#![warn(missing_docs)]

//! # prophet-sim — deterministic discrete-event simulation engine
//!
//! The substrate every timing experiment in this workspace runs on. The
//! Prophet paper evaluates a communication *scheduling* strategy, so the whole
//! reproduction reduces to faithfully simulating **when** things happen:
//! gradient generation, network transfers, parameter updates, forward-pass
//! starts. This crate provides the pieces that are shared by the network
//! model (`prophet-net`), the cluster model (`prophet-ps`), and the
//! schedulers (`prophet-core`):
//!
//! * [`SimTime`] / [`Duration`] — integer-nanosecond simulated time,
//! * [`EventQueue`] — a stable-order pending-event set,
//! * [`rng`] — a tiny, seedable, `Copy`-able PRNG (`SplitMix64`,
//!   `Xoshiro256StarStar`) so simulations are reproducible bit-for-bit,
//! * [`stats`] — time-weighted averages (GPU utilisation), online
//!   mean/variance, histograms and windowed rate series (network throughput
//!   plots),
//! * [`trace`] — the typed event stream, its invariant checker and the
//!   per-gradient spans the paper's timeline figures (Figs. 5, 11) are
//!   drawn from.
//!
//! Everything here is allocation-conscious: the event loop pops from a binary
//! heap with no per-event boxing (events are a caller-chosen `enum`), and the
//! statistics accumulators are plain structs updated in O(1).
//!
//! ```
//! use prophet_sim::{EventQueue, SimTime, Duration};
//!
//! #[derive(Debug, PartialEq)]
//! enum Ev { Tick(u32) }
//!
//! let mut q = EventQueue::new();
//! q.schedule(SimTime::ZERO + Duration::from_millis(5), Ev::Tick(2));
//! q.schedule(SimTime::ZERO + Duration::from_millis(1), Ev::Tick(1));
//! let (t, e) = q.pop().unwrap();
//! assert_eq!(t.as_millis_f64(), 1.0);
//! assert_eq!(e, Ev::Tick(1));
//! ```

pub mod chaos;
pub mod fault;
pub mod queue;
pub mod rng;
pub mod stats;
pub mod time;
pub mod trace;

pub use chaos::{plan_to_rust, shrink, ChaosGen, ChaosProfile, KindMask};
pub use fault::{rehome_modular, FaultKind, FaultPlan, FaultSpec};
pub use queue::EventQueue;
pub use rng::{SplitMix64, Xoshiro256StarStar};
pub use stats::{Histogram, OnlineStats, RateSeries, TimeWeighted};
pub use time::{Duration, SimTime};
pub use trace::{
    grad_spans_to_ascii_gantt, shard_spans_to_csv, spans_to_csv, GradSpan, InvariantChecker,
    ShardSpan, SpanCollector, SpanKind, TraceEvent, TraceSink,
};
