#![warn(missing_docs)]

//! # prophet-minidnn — a real (numeric) mini training framework
//!
//! The paper's prototype schedules *actual gradient bytes* produced by MXNet
//! training. To demonstrate our schedulers on real gradients rather than
//! only simulated timing, this crate implements a small but genuine
//! data-parallel training stack: dense tensors, MLP layers with exact
//! backpropagation (verified against finite differences), softmax
//! cross-entropy, SGD with momentum, and synthetic classification data.
//!
//! `prophet-ps::threaded` shards batches across worker threads, pushes
//! these gradients through the *same* `CommScheduler` implementations the
//! simulator uses, aggregates them on a parameter-server thread, and
//! verifies the result is bit-identical to single-process SGD — the
//! correctness argument that communication scheduling must never change
//! *what* is computed, only *when*.
//!
//! Scope is deliberately MLP-on-synthetic-data: ImageNet-scale convnets are
//! irrelevant to scheduling correctness, and the *timing* side of the
//! reproduction uses the architecture-accurate tables in `prophet-dnn`.

pub mod data;
pub mod layers;
pub mod loss;
pub mod model;
pub mod optim;
pub mod tensor;

pub use data::Dataset;
pub use layers::{Dense, GradSink, Layer, Relu};
pub use loss::{mse, softmax_cross_entropy};
pub use model::{Backward, Mlp};
pub use optim::Sgd;
pub use tensor::{RowSource, Tensor};
