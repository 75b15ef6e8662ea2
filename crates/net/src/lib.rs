#![warn(missing_docs)]

//! # prophet-net — flow-level network simulation
//!
//! The Prophet paper's entire argument rests on two network phenomena:
//!
//! 1. **Effective bandwidth depends on message size** (Eq. 10,
//!    `B_eff = f(s, B)`): tiny transfers are dominated by connection/
//!    synchronisation overhead and TCP slow start, so P3's small partitions
//!    under-utilise the pipe; huge transfers utilise it fully but cannot be
//!    preempted, so FIFO delays gradient 0.
//! 2. **Shared links**: pushes and pulls from several workers contend at the
//!    parameter server, so a scheduler's decisions interact through fair
//!    bandwidth sharing.
//!
//! This crate models both with a *fluid flow* abstraction, the standard
//! fidelity trade-off for scheduling studies: every transfer is a flow
//! `(src, dst, bytes)`; active flows receive **max-min fair** rates subject
//! to per-node uplink/downlink capacities and a per-flow cap that ramps like
//! TCP slow start; each message additionally pays a fixed setup latency
//! (connection + PS synchronisation — the "blocking call" overhead the paper
//! attributes to P3).
//!
//! Modules:
//! * [`topology`] — node table with per-node up/down capacities (hetero-
//!   geneous bandwidth caps for §5.3's experiments),
//! * [`tcp`] — the analytic cost model `f(s, B)` plus its ramp parameters,
//! * [`maxmin`] — progressive-filling max-min fair allocation with caps,
//! * [`network`] — the event-driven flow engine ([`Network`]),
//! * [`monitor`] — the bandwidth estimator Prophet's planner consumes
//!   (§4.2's "Network Bandwidth Monitor", 5 s period by default),
//! * [`retry`] — capped-exponential-backoff retry policy for fault
//!   injection (messages killed by a [`fault plan`](prophet_sim::FaultPlan)
//!   are re-sent under this policy).

pub mod maxmin;
pub mod monitor;
pub mod network;
pub mod retry;
pub mod tcp;
pub mod topology;

pub use monitor::BandwidthMonitor;
pub use network::{FlowEnd, FlowId, KilledFlow, NetStats, Network};
pub use retry::RetryPolicy;
pub use tcp::TcpModel;
pub use topology::{NodeId, NodeSpec, Topology};
