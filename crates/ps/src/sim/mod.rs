//! The discrete-event cluster simulation.
//!
//! [`ClusterConfig`] describes the testbed the paper uses (§5.1): 1 PS +
//! `workers` g3.8xlarge-class nodes, per-node NIC limits, a training job,
//! and a communication scheduling strategy. [`run_cluster`] plays `iters`
//! BSP iterations and returns [`RunResult`]: training rate, GPU-utilisation
//! and network-throughput time series, per-gradient transfer logs, and an
//! optional span trace — everything the paper's figures are drawn from.

mod cluster;
mod config;
mod metrics;

pub use cluster::run_cluster;
#[doc(hidden)]
pub use cluster::run_cluster_full_resolve;
pub use config::{ClusterConfig, SyncMode};
pub use metrics::{ClusterStats, ElasticStats, FaultStats, GradTransferLog, RunResult};
