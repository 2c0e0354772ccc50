//! 8-bit floating-point quantization (AdaptivFloat-style).
//!
//! The paper quantizes all ALBERT weights and activations to 8-bit
//! *floating point* — not integers — because layer normalization leaves
//! NLP weight distributions with a dynamic range integers cannot cover
//! (§3.4). The chosen format is 1 sign + 4 exponent + 3 mantissa bits,
//! with the exponent bias selected **per layer** to match each tensor's
//! range (the AdaptivFloat scheme of Tambe et al.).
//!
//! This crate provides:
//!
//! * [`Fp8Format`] — parametric sign/exponent/mantissa split with encode
//!   and decode (round-to-nearest, saturating, subnormal support);
//! * [`Fp8Codec`] — the table-driven fast path of one format, byte-for-byte
//!   equal to [`Fp8Format::encode`], behind
//!   [`tensor::fake_quantize_in_place`];
//! * [`QuantizedTensor`] — a matrix quantized with a per-tensor exponent
//!   bias, exposing its raw bytes for eNVM storage and fault injection;
//! * [`fixed`] — 16-bit fixed-point helpers modelling the SFU datapath
//!   (paper §7.4: "All the computations in the SFU are in 16-bit
//!   fixed-point format").

pub mod fixed;
pub mod format;
pub mod tensor;

pub use format::{Fp8Codec, Fp8Format};
pub use tensor::QuantizedTensor;
