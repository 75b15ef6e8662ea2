#![warn(missing_docs)]

//! # prophet-ps — the parameter-server architecture
//!
//! The substrate the paper's system runs inside: data-parallel BSP training
//! over a PS, with push (gradients) and pull (updated parameters) flowing
//! through a per-worker communication scheduler. Two runtimes drive the
//! *same* `prophet_core::CommScheduler` objects:
//!
//! * [`sim`] — the discrete-event cluster: architecture-accurate workloads
//!   from `prophet-dnn` on the fluid network of `prophet-net`. Regenerates
//!   every timing figure/table of the paper. Deterministic per seed.
//! * [`threaded`] — a real multi-threaded PS: worker threads training
//!   `prophet-minidnn` models, crossbeam channels as the wire, a token-
//!   bucket emulating link bandwidth, and the PS thread running SGD. Proves
//!   the schedulers order real bytes without changing what is computed.
//!
//! The fault, membership and checkpoint rules both runtimes obey are written
//! once, in [`protocol`]; each runtime only drives them with its own clock.
//!
//! Both enforce the same BSP contract: the parameter server aggregates a
//! gradient once every worker's push for the iteration has arrived, and a
//! worker's forward pass consumes parameters strictly in priority order.

pub mod chaos;
pub mod protocol;
pub mod sim;
pub mod threaded;

pub use chaos::{
    check_churn_plan, check_corruption_plan, check_plan, check_threaded_bit_identity,
    run_sim_checked, OracleBudget, PlanVerdict,
};
pub use sim::{run_cluster, ClusterConfig, ElasticStats, GradTransferLog, RunResult, SyncMode};
pub use threaded::{run_threaded_training, PsOptimizer, ThreadedConfig, ThreadedResult};
