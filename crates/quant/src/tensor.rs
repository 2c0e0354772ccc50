//! Tensor-level quantization with per-tensor (per-layer) exponent bias.

use crate::format::{Fp8Codec, Fp8Format};
use edgebert_tensor::Matrix;
use serde::{Deserialize, Serialize};
use std::cell::RefCell;

/// A matrix quantized to FP8 with an AdaptivFloat per-tensor exponent
/// bias.
///
/// The raw bytes are exposed so the eNVM subsystem can map them onto
/// ReRAM cells and inject faults into the *stored representation* rather
/// than the decoded floats.
///
/// # Example
///
/// ```
/// use edgebert_quant::QuantizedTensor;
/// use edgebert_tensor::Matrix;
///
/// let w = Matrix::from_rows(&[&[0.5, -2.0, 8.0]]);
/// let q = QuantizedTensor::quantize(&w, 4);
/// let back = q.dequantize();
/// assert!((back.get(0, 2) - 8.0).abs() < 0.5);
/// ```
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct QuantizedTensor {
    rows: usize,
    cols: usize,
    format: Fp8Format,
    bytes: Vec<u8>,
}

impl QuantizedTensor {
    /// Quantizes a matrix using `exp_bits` exponent bits and the optimal
    /// per-tensor bias (chosen so the largest magnitude in the tensor is
    /// representable without saturation — the AdaptivFloat rule).
    pub fn quantize(m: &Matrix, exp_bits: u8) -> Self {
        let bias = Self::optimal_bias(m, exp_bits);
        Self::quantize_with_bias(m, exp_bits, bias)
    }

    /// Quantizes with an explicit bias.
    pub fn quantize_with_bias(m: &Matrix, exp_bits: u8, bias: i32) -> Self {
        let format = Fp8Format::new(exp_bits, bias);
        let bytes = m.as_slice().iter().map(|&x| format.encode(x)).collect();
        Self {
            rows: m.rows(),
            cols: m.cols(),
            format,
            bytes,
        }
    }

    /// The AdaptivFloat bias for a tensor: aligns the top of the exponent
    /// range with the tensor's largest magnitude.
    pub fn optimal_bias(m: &Matrix, exp_bits: u8) -> i32 {
        optimal_bias_of(m.as_slice(), exp_bits)
    }

    /// Decodes back to a dense matrix.
    pub fn dequantize(&self) -> Matrix {
        let data = self.bytes.iter().map(|&b| self.format.decode(b)).collect();
        Matrix::from_vec(self.rows, self.cols, data)
    }

    /// The stored format (including the chosen bias).
    pub fn format(&self) -> Fp8Format {
        self.format
    }

    /// Logical shape.
    pub fn shape(&self) -> (usize, usize) {
        (self.rows, self.cols)
    }

    /// Raw FP8 bytes (row-major).
    pub fn bytes(&self) -> &[u8] {
        &self.bytes
    }

    /// Mutable raw bytes — the fault-injection surface.
    pub fn bytes_mut(&mut self) -> &mut [u8] {
        &mut self.bytes
    }

    /// Root-mean-square quantization error against a reference matrix.
    ///
    /// # Panics
    ///
    /// Panics if shapes differ.
    pub fn rmse_against(&self, reference: &Matrix) -> f32 {
        let deq = self.dequantize();
        edgebert_tensor::stats::rmse(deq.as_slice(), reference.as_slice())
    }
}

/// [`QuantizedTensor::optimal_bias`] over a flat slice.
// analyzer: hot-path
fn optimal_bias_of(values: &[f32], exp_bits: u8) -> i32 {
    let max_abs = values.iter().map(|x| x.abs()).fold(0.0f32, f32::max);
    if max_abs == 0.0 {
        return 7;
    }
    let e_top = (1i32 << exp_bits) - 1;
    e_top - max_abs.log2().floor() as i32
}

/// Codecs kept per thread: building one costs 256 decodes, and the
/// per-tensor bias of consecutive activations rarely changes.
const CODEC_SLOTS: usize = 4;

struct CodecCache {
    slots: [Option<Fp8Codec>; CODEC_SLOTS],
    /// Slot the next miss overwrites (round robin).
    next: usize,
}

thread_local! {
    static CODECS: RefCell<CodecCache> = const {
        RefCell::new(CodecCache {
            slots: [None, None, None, None],
            next: 0,
        })
    };
}

/// Quantize-dequantizes `values` in place with the AdaptivFloat
/// per-tensor bias: the same bytes as [`QuantizedTensor::quantize`]
/// followed by [`QuantizedTensor::dequantize`], without the byte
/// buffer. The codec for the chosen format comes from a small
/// per-thread cache, so steady-state calls do not allocate.
///
/// # Panics
///
/// Panics unless `1 <= exp_bits <= 6`.
// analyzer: hot-path
pub fn fake_quantize_in_place(values: &mut [f32], exp_bits: u8) {
    let format = Fp8Format::new(exp_bits, optimal_bias_of(values, exp_bits));
    CODECS.with(|cache| {
        let mut cache = cache.borrow_mut();
        let hit = cache
            .slots
            .iter()
            .position(|slot| slot.as_ref().is_some_and(|c| c.format() == format));
        let slot = match hit {
            Some(slot) => slot,
            None => {
                let slot = cache.next;
                cache.slots[slot] = Some(Fp8Codec::new(format));
                cache.next = (slot + 1) % CODEC_SLOTS;
                slot
            }
        };
        if let Some(codec) = &cache.slots[slot] {
            codec.quantize_in_place(values);
        }
    });
}

/// Quantize-dequantizes a matrix in one step (the evaluation-time
/// transform applied to all weights and activations in Fig. 4); a
/// copying wrapper over [`fake_quantize_in_place`].
pub fn fake_quantize(m: &Matrix, exp_bits: u8) -> Matrix {
    let mut out = m.clone();
    fake_quantize_in_place(out.as_mut_slice(), exp_bits);
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use edgebert_tensor::Rng;

    #[test]
    fn round_trip_preserves_shape_and_zeros() {
        let m = Matrix::from_rows(&[&[0.0, 1.0], &[0.0, -4.0]]);
        let q = QuantizedTensor::quantize(&m, 4);
        let back = q.dequantize();
        assert_eq!(back.shape(), (2, 2));
        assert_eq!(back.get(0, 0), 0.0);
        assert_eq!(back.get(1, 0), 0.0);
        // Bitmask-relevant invariant: zeros stay exactly zero.
        assert_eq!(back.sparsity(), m.sparsity());
    }

    #[test]
    fn adaptive_bias_avoids_saturation() {
        let mut rng = Rng::seed_from(1);
        // Weights with a large outlier, as in NLP layers (paper §3.4).
        let mut m = rng.gaussian_matrix(8, 8, 0.1);
        m.set(0, 0, 37.0);
        let q = QuantizedTensor::quantize(&m, 4);
        let back = q.dequantize();
        // The outlier must be representable within normal FP8 error.
        assert!((back.get(0, 0) - 37.0).abs() / 37.0 < 0.07);
    }

    #[test]
    fn per_tensor_bias_beats_fixed_bias_on_small_values() {
        let mut rng = Rng::seed_from(2);
        let m = rng.gaussian_matrix(16, 16, 0.01);
        let adaptive = QuantizedTensor::quantize(&m, 4);
        let fixed = QuantizedTensor::quantize_with_bias(&m, 4, 7);
        assert!(adaptive.rmse_against(&m) < fixed.rmse_against(&m));
    }

    #[test]
    fn fp8_143_keeps_relative_error_small_on_gaussian() {
        let mut rng = Rng::seed_from(3);
        let m = rng.gaussian_matrix(32, 32, 1.0);
        let q = QuantizedTensor::quantize(&m, 4);
        // Typical relative RMS error for 3 mantissa bits is a few percent.
        let rel = q.rmse_against(&m) / (m.frobenius_norm() / (m.len() as f32).sqrt());
        assert!(rel < 0.05, "relative error {rel}");
    }

    #[test]
    fn exponent_search_prefers_4_bits_for_wide_range() {
        // With a wide dynamic range (layer-norm'd NLP weights plus
        // outliers more than an order of magnitude larger, §3.4), 4
        // exponent bits beat both 2 (small weights flush to zero once the
        // adaptive bias is anchored to the outliers) and 6 (only one
        // mantissa bit left → coarse steps). Metric: mean relative error
        // over non-zero entries, with flush-to-zero counting as 100%.
        let mut rng = Rng::seed_from(4);
        let mut m = rng.gaussian_matrix(64, 64, 0.01);
        // Heavy tail, ~2^10 above the bulk.
        for i in 0..64 {
            let v = (4.0 + rng.uniform() * 6.0) * if rng.chance(0.5) { 1.0 } else { -1.0 };
            m.set(i, i, v);
        }
        let err = |bits: u8| -> f32 {
            let deq = QuantizedTensor::quantize(&m, bits).dequantize();
            let mut total = 0.0f32;
            let mut n = 0usize;
            for (&x, &q) in m.as_slice().iter().zip(deq.as_slice()) {
                if x != 0.0 {
                    total += (((q - x) / x).abs()).min(1.0);
                    n += 1;
                }
            }
            total / n as f32
        };
        let e4 = err(4);
        assert!(e4 < err(2), "4-bit {e4} vs 2-bit {}", err(2));
        assert!(e4 < err(6), "4-bit {e4} vs 6-bit {}", err(6));
    }

    #[test]
    fn bytes_mut_allows_fault_injection() {
        let m = Matrix::from_rows(&[&[1.0, 2.0]]);
        let mut q = QuantizedTensor::quantize(&m, 4);
        let before = q.dequantize();
        q.bytes_mut()[0] ^= 0x80; // flip the sign bit
        let after = q.dequantize();
        assert_eq!(after.get(0, 0), -before.get(0, 0));
        assert_eq!(after.get(0, 1), before.get(0, 1));
    }

    #[test]
    fn fake_quantize_matches_quantize_dequantize() {
        let mut rng = Rng::seed_from(5);
        let m = rng.gaussian_matrix(4, 4, 1.0);
        assert_eq!(
            fake_quantize(&m, 4),
            QuantizedTensor::quantize(&m, 4).dequantize()
        );
    }
}
