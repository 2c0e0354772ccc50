//! Manual-backprop neural-network substrate for the EdgeBERT reproduction.
//!
//! The paper's training procedure (Fig. 4) fine-tunes an ALBERT model with
//! knowledge distillation, *movement pruning*, and *adaptive attention
//! span* learning, then freezes the backbone and trains highway off-ramps.
//! All of those are training-time algorithms, so this crate implements a
//! small but complete training stack from scratch:
//!
//! * [`Parameter`] — a tensor with gradient, optional pruning mask,
//!   movement-pruning importance scores, and Adam moments.
//! * [`Linear`], [`LayerNorm`], activations — forward passes that return a
//!   cache, and backward passes verified against finite differences.
//! * [`MultiHeadAttention`] with the learnable soft span mask of
//!   Sukhbaatar et al. (the mechanism EdgeBERT uses to switch whole heads
//!   off), including the gradient through the mask to the span parameter.
//! * [`losses`] — cross-entropy and distillation (soft-target KL) losses.
//! * [`AdamOptimizer`] / [`SgdOptimizer`].
//! * [`prune`] — magnitude and movement pruning with cubic sparsity
//!   schedules.
//!
//! Every layer also has an allocation-free inference kernel
//! (`infer_rows` / [`EncoderLayer::infer_in_place`]) over row-major
//! slices and reusable scratch buffers, bit-identical to its training
//! forward pass; the `infer` methods are copying wrappers over them.
//!
//! Everything is deterministic given a seed, and every backward pass has a
//! finite-difference test.

pub mod activation;
pub mod attention;
pub mod encoder;
pub mod ffn;
pub mod linear;
pub mod losses;
pub mod mlp;
pub mod norm;
pub mod optim;
pub mod param;
pub mod prune;
pub mod span;

pub use attention::{AttentionScratch, MultiHeadAttention};
pub use encoder::{EncoderLayer, EncoderScratch};
pub use ffn::FeedForward;
pub use linear::Linear;
pub use mlp::Mlp;
pub use norm::LayerNorm;
pub use optim::{AdamOptimizer, SgdOptimizer};
pub use param::Parameter;
pub use span::AdaptiveSpan;
