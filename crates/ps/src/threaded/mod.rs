//! A real multi-threaded parameter server.
//!
//! This is the "it's not just a simulator" half of the reproduction: worker
//! threads train genuine `prophet-minidnn` models on shards of a batch, and
//! every gradient byte crosses a crossbeam channel **in the order a
//! `CommScheduler` dictates**, optionally throttled by a token-bucket link
//! emulator. The PS side is sharded: each shard thread owns a contiguous,
//! size-balanced slice of the parameter tensors and its optimiser state,
//! enforces the per-gradient BSP barrier (aggregate only when every
//! worker's push arrived), averages worker gradients in a fixed order (so
//! runs are bit-for-bit reproducible — for every shard count), and serves
//! priority-ordered pull requests from a per-update encode cache. Push
//! payloads are zero-copy slices of pooled per-layer gradient buffers (see
//! `pool`), so the steady-state hot path allocates nothing.
//!
//! The integration tests assert the two properties that make communication
//! scheduling safe to deploy:
//!
//! 1. **equivalence** — final parameters match single-process training on
//!    the whole batch to f32 tolerance, for *every* scheduler;
//! 2. **determinism** — two runs with the same seed are bitwise identical,
//!    despite real threads (the BSP barrier serialises all races).

mod checkpoint;
mod fold;
mod pool;
mod runtime;
mod shard;
mod transport;
pub mod wire;
mod worker;

pub use runtime::{
    run_threaded_training, PsOptimizer, ShardPhases, ThreadedConfig, ThreadedResult, WorkerPhases,
    DATASET_NOISE,
};
