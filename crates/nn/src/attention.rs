//! Multi-head self-attention with adaptive span masking.
//!
//! Mirrors the paper's Fig. 3/Fig. 5 datapath: per-head Q/K/V projections,
//! scaled dot-product scores, stable softmax, **post-softmax element-wise
//! multiplication with the learned span mask** (Algorithm 3), context
//! matmul, concat, and output projection. Heads whose span mask is
//! identically zero produce a zero context vector — exactly the case the
//! accelerator's SFU controller detects to skip the whole head.

use crate::linear::{Linear, LinearCache};
use crate::param::Parameter;
use crate::span::AdaptiveSpan;
use edgebert_tensor::kernels::softmax_inplace;
use edgebert_tensor::{Matrix, Rng};
use serde::{Deserialize, Serialize};

/// Multi-head self-attention block.
///
/// # Example
///
/// ```
/// use edgebert_nn::MultiHeadAttention;
/// use edgebert_tensor::{Matrix, Rng};
///
/// let mut rng = Rng::seed_from(0);
/// let mha = MultiHeadAttention::new(32, 4, 16, &mut rng);
/// let x = Matrix::zeros(8, 32);
/// let (y, _) = mha.forward(&x);
/// assert_eq!(y.shape(), (8, 32));
/// ```
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct MultiHeadAttention {
    /// Query projection (hidden → hidden).
    pub wq: Linear,
    /// Key projection.
    pub wk: Linear,
    /// Value projection.
    pub wv: Linear,
    /// Output projection after head concat.
    pub wo: Linear,
    /// One learnable span per head.
    pub spans: Vec<AdaptiveSpan>,
    num_heads: usize,
    head_dim: usize,
}

/// Cached activations for [`MultiHeadAttention::backward`].
#[derive(Debug, Clone)]
pub struct AttentionCache {
    q: Matrix,
    k: Matrix,
    v: Matrix,
    /// Per-head post-softmax probabilities (before the span mask).
    probs: Vec<Matrix>,
    /// Per-head span-mask matrices.
    masks: Vec<Matrix>,
    cq: LinearCache,
    ck: LinearCache,
    cv: LinearCache,
    co: LinearCache,
    seq_len: usize,
}

/// Reusable buffers of [`MultiHeadAttention::infer_rows`]. They only
/// grow, so a scratch fitted once to the longest sequence serves every
/// later call without allocating.
#[derive(Debug, Clone, Default)]
pub struct AttentionScratch {
    q: Vec<f32>,
    k: Vec<f32>,
    v: Vec<f32>,
    /// One head's keys, transposed: `head_dim x seq_len`.
    kt: Vec<f32>,
    /// One query's row of scores, then probabilities.
    scores: Vec<f32>,
    /// One head's span mask by token distance.
    profile: Vec<f32>,
    /// Per-head contexts side by side, `seq_len x hidden`.
    concat: Vec<f32>,
}

impl AttentionScratch {
    /// An empty scratch; [`fit`](Self::fit) it before use.
    pub const fn new() -> Self {
        Self {
            q: Vec::new(),
            k: Vec::new(),
            v: Vec::new(),
            kt: Vec::new(),
            scores: Vec::new(),
            profile: Vec::new(),
            concat: Vec::new(),
        }
    }

    /// Grows the buffers to hold `rows` rows of `attention`.
    pub fn fit(&mut self, attention: &MultiHeadAttention, rows: usize) {
        let n = rows * attention.hidden();
        for buf in [&mut self.q, &mut self.k, &mut self.v, &mut self.concat] {
            grow(buf, n);
        }
        grow(&mut self.kt, rows * attention.head_dim());
        grow(&mut self.scores, rows);
        grow(&mut self.profile, rows);
    }
}

/// Lengthens `buf` to at least `len` (zero-filled); never shrinks.
pub(crate) fn grow(buf: &mut Vec<f32>, len: usize) {
    if buf.len() < len {
        buf.resize(len, 0.0);
    }
}

impl MultiHeadAttention {
    /// Creates an attention block with `num_heads` heads over a `hidden`
    /// wide stream. Spans are initialised to `max_span` (fully open) so
    /// fine-tuning starts from the dense model.
    ///
    /// # Panics
    ///
    /// Panics if `hidden` is not divisible by `num_heads`.
    pub fn new(hidden: usize, num_heads: usize, max_span: usize, rng: &mut Rng) -> Self {
        assert_eq!(
            hidden % num_heads,
            0,
            "hidden must divide evenly into heads"
        );
        let ramp = (max_span as f32 / 4.0).max(1.0);
        Self {
            wq: Linear::new(hidden, hidden, rng),
            wk: Linear::new(hidden, hidden, rng),
            wv: Linear::new(hidden, hidden, rng),
            wo: Linear::new(hidden, hidden, rng),
            spans: (0..num_heads)
                .map(|_| AdaptiveSpan::new(max_span as f32, ramp, max_span))
                .collect(),
            num_heads,
            head_dim: hidden / num_heads,
        }
    }

    /// Number of attention heads.
    pub fn num_heads(&self) -> usize {
        self.num_heads
    }

    /// Per-head feature width.
    pub fn head_dim(&self) -> usize {
        self.head_dim
    }

    /// Hidden width (`num_heads * head_dim`).
    pub fn hidden(&self) -> usize {
        self.num_heads * self.head_dim
    }

    /// Number of heads whose span mask is identically zero (skippable).
    pub fn heads_off(&self) -> usize {
        self.spans.iter().filter(|s| s.is_off()).count()
    }

    /// Effective span per head, as reported in the paper's Table 1.
    pub fn head_spans(&self) -> Vec<f32> {
        self.spans.iter().map(|s| s.effective_span()).collect()
    }

    /// Forward pass over a `seq_len x hidden` input.
    pub fn forward(&self, x: &Matrix) -> (Matrix, AttentionCache) {
        let seq_len = x.rows();
        let (q, cq) = self.wq.forward(x);
        let (k, ck) = self.wk.forward(x);
        let (v, cv) = self.wv.forward(x);
        let scale = 1.0 / (self.head_dim as f32).sqrt();

        let mut concat = Matrix::zeros(seq_len, self.hidden());
        let mut probs = Vec::with_capacity(self.num_heads);
        let mut masks = Vec::with_capacity(self.num_heads);
        for h in 0..self.num_heads {
            let off = h * self.head_dim;
            let mask = self.spans[h].mask_matrix(seq_len);
            if self.spans[h].is_off() {
                // Whole head skipped: zero context (concat already zeroed).
                probs.push(Matrix::zeros(seq_len, seq_len));
                masks.push(mask);
                continue;
            }
            let qh = q.slice_cols(off, self.head_dim);
            let kh = k.slice_cols(off, self.head_dim);
            let vh = v.slice_cols(off, self.head_dim);
            let mut scores = qh.matmul_nt(&kh);
            scores.scale_assign(scale);
            for r in 0..seq_len {
                softmax_inplace(scores.row_mut(r));
            }
            let masked = scores.hadamard(&mask);
            let ctx = masked.matmul(&vh);
            concat.set_cols(off, &ctx);
            probs.push(scores);
            masks.push(mask);
        }
        let (out, co) = self.wo.forward(&concat);
        (
            out,
            AttentionCache {
                q,
                k,
                v,
                probs,
                masks,
                cq,
                ck,
                cv,
                co,
                seq_len,
            },
        )
    }

    /// Inference-only forward: a wrapper over
    /// [`MultiHeadAttention::infer_rows`] with its own scratch.
    ///
    /// # Panics
    ///
    /// Panics if `x.cols() != hidden`.
    pub fn infer(&self, x: &Matrix) -> Matrix {
        assert_eq!(x.cols(), self.hidden(), "attention width mismatch");
        let mut scratch = AttentionScratch::new();
        scratch.fit(self, x.rows());
        let mut out = Matrix::zeros(x.rows(), self.hidden());
        self.infer_rows(x.as_slice(), out.as_mut_slice(), &mut scratch);
        out
    }

    /// Inference kernel over a row-major `seq_len x hidden` input,
    /// writing the output projection into `out`. `scratch` must have
    /// been [fitted](AttentionScratch::fit) to at least `seq_len` rows.
    ///
    /// Bit-identical to [`MultiHeadAttention::forward`], without its
    /// copies: each head's Q/K/V columns are read in place, K is
    /// transposed per head so a row of scores accumulates over all keys
    /// at once (still `0.0 + q0*k0 + q1*k1 + ...` per score, no zero
    /// skip, as in `matmul_nt`), the span mask is applied from its 1-D
    /// profile by `|i - j|`, and the context accumulates straight into
    /// the concat buffer, skipping zero weights as `matmul` does.
    // analyzer: hot-path
    pub fn infer_rows(&self, x: &[f32], out: &mut [f32], scratch: &mut AttentionScratch) {
        let hidden = self.hidden();
        let hd = self.head_dim;
        let seq = x.len() / hidden;
        let n = seq * hidden;
        let s = scratch;
        self.wq.infer_rows(x, &mut s.q[..n]);
        self.wk.infer_rows(x, &mut s.k[..n]);
        self.wv.infer_rows(x, &mut s.v[..n]);
        let scale = 1.0 / (hd as f32).sqrt();
        let concat = &mut s.concat[..n];
        concat.fill(0.0);
        for (h, span) in self.spans.iter().enumerate() {
            if span.is_off() {
                // Whole head skipped: zero context.
                continue;
            }
            let off = h * hd;
            let profile = &mut s.profile[..seq];
            for (d, m) in profile.iter_mut().enumerate() {
                *m = span.mask_at(d);
            }
            let kt = &mut s.kt[..hd * seq];
            for (j, krow) in s.k[..n].chunks_exact(hidden).enumerate() {
                for (d, &kv) in krow[off..off + hd].iter().enumerate() {
                    kt[d * seq + j] = kv;
                }
            }
            let scores = &mut s.scores[..seq];
            for (i, (qrow, crow)) in s.q[..n]
                .chunks_exact(hidden)
                .zip(concat.chunks_exact_mut(hidden))
                .enumerate()
            {
                scores.fill(0.0);
                for (&qv, ktrow) in qrow[off..off + hd].iter().zip(kt.chunks_exact(seq)) {
                    for (sc, &kv) in scores.iter_mut().zip(ktrow) {
                        *sc += qv * kv;
                    }
                }
                for sc in scores.iter_mut() {
                    *sc *= scale;
                }
                softmax_inplace(scores);
                let ctx = &mut crow[off..off + hd];
                for (j, (&p, vrow)) in scores.iter().zip(s.v[..n].chunks_exact(hidden)).enumerate()
                {
                    let a = p * profile[i.abs_diff(j)];
                    if a == 0.0 {
                        continue;
                    }
                    for (c, &vv) in ctx.iter_mut().zip(&vrow[off..off + hd]) {
                        *c += a * vv;
                    }
                }
            }
        }
        self.wo.infer_rows(concat, out);
    }

    /// Backward pass; accumulates all parameter gradients (including the
    /// per-head span parameters) and returns `dL/dx`.
    pub fn backward(&mut self, cache: &AttentionCache, grad_out: &Matrix) -> Matrix {
        let seq_len = cache.seq_len;
        let scale = 1.0 / (self.head_dim as f32).sqrt();
        // Through the output projection.
        let d_concat = self.wo.backward(&cache.co, grad_out);

        let mut dq = Matrix::zeros(seq_len, self.hidden());
        let mut dk = Matrix::zeros(seq_len, self.hidden());
        let mut dv = Matrix::zeros(seq_len, self.hidden());

        for h in 0..self.num_heads {
            let off = h * self.head_dim;
            if self.spans[h].is_off() {
                // No gradient flows through a fully-off head (mask = 0 and
                // dm/dz = 0 on the flat region).
                continue;
            }
            let d_ctx = d_concat.slice_cols(off, self.head_dim);
            let kh = cache.k.slice_cols(off, self.head_dim);
            let qh = cache.q.slice_cols(off, self.head_dim);
            let vh = cache.v.slice_cols(off, self.head_dim);
            let probs = &cache.probs[h];
            let mask = &cache.masks[h];

            let masked = probs.hadamard(mask);
            // ctx = masked * V  =>  d_masked = d_ctx * V^T ; dV = masked^T * d_ctx
            let d_masked = d_ctx.matmul_nt(&vh);
            let dvh = masked.matmul_tn(&d_ctx);
            dv.set_cols(off, &dvh);

            // masked = probs ⊙ mask
            let d_probs = d_masked.hadamard(mask);
            let d_mask = d_masked.hadamard(probs);
            self.spans[h].backward_mask(&d_mask, seq_len);

            // Softmax backward per row: ds = p ⊙ (g - (g·p))
            let mut d_scores = Matrix::zeros(seq_len, seq_len);
            for r in 0..seq_len {
                let p = probs.row(r);
                let g = d_probs.row(r);
                let dot: f32 = p.iter().zip(g.iter()).map(|(&a, &b)| a * b).sum();
                for c in 0..seq_len {
                    d_scores.set(r, c, p[c] * (g[c] - dot));
                }
            }
            d_scores.scale_assign(scale);

            // scores = Qh * Kh^T => dQh = d_scores * Kh ; dKh = d_scores^T * Qh
            let dqh = d_scores.matmul(&kh);
            let dkh = d_scores.matmul_tn(&qh);
            dq.set_cols(off, &dqh);
            dk.set_cols(off, &dkh);
        }

        let dxq = self.wq.backward(&cache.cq, &dq);
        let dxk = self.wk.backward(&cache.ck, &dk);
        let dxv = self.wv.backward(&cache.cv, &dv);
        let mut dx = dxq;
        dx.add_assign(&dxk);
        dx.add_assign(&dxv);
        dx
    }

    /// Adds the span penalty to all heads; returns the total penalty value.
    pub fn apply_span_penalty(&mut self, lambda: f32) -> f32 {
        self.spans
            .iter_mut()
            .map(|s| s.apply_span_penalty(lambda))
            .sum()
    }

    /// Clears gradients on all parameters.
    pub fn zero_grad(&mut self) {
        self.wq.zero_grad();
        self.wk.zero_grad();
        self.wv.zero_grad();
        self.wo.zero_grad();
        for s in &mut self.spans {
            s.z.zero_grad();
        }
    }

    /// Mutable references to all parameters (projections + spans).
    pub fn params_mut(&mut self) -> Vec<&mut Parameter> {
        let mut ps = Vec::new();
        ps.extend(self.wq.params_mut());
        ps.extend(self.wk.params_mut());
        ps.extend(self.wv.params_mut());
        ps.extend(self.wo.params_mut());
        for s in &mut self.spans {
            ps.push(&mut s.z);
        }
        ps
    }

    /// Re-clamps all span parameters; call after each optimizer step.
    pub fn clamp_spans(&mut self) {
        for s in &mut self.spans {
            s.clamp();
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tiny_attention(seed: u64) -> (MultiHeadAttention, Matrix) {
        let mut rng = Rng::seed_from(seed);
        let mut mha = MultiHeadAttention::new(8, 2, 16, &mut rng);
        // Give the two heads partial spans so mask gradients are active.
        mha.spans[0].set_z(2.0);
        mha.spans[1].set_z(1.0);
        let x = rng.gaussian_matrix(5, 8, 1.0);
        (mha, x)
    }

    #[test]
    fn forward_shapes_and_off_head_zeroing() {
        let mut rng = Rng::seed_from(1);
        let mut mha = MultiHeadAttention::new(12, 3, 16, &mut rng);
        mha.spans[1].set_z(-1000.0); // head 1 off
        let x = rng.gaussian_matrix(6, 12, 1.0);
        let (y, cache) = mha.forward(&x);
        assert_eq!(y.shape(), (6, 12));
        assert_eq!(mha.heads_off(), 1);
        assert_eq!(cache.probs[1].nnz(), 0);
    }

    #[test]
    fn all_heads_off_gives_bias_only_output() {
        let mut rng = Rng::seed_from(2);
        let mut mha = MultiHeadAttention::new(8, 2, 16, &mut rng);
        for s in &mut mha.spans {
            s.set_z(-1000.0);
        }
        let x = rng.gaussian_matrix(4, 8, 1.0);
        let y = mha.infer(&x);
        // Output = wo(0) = bias broadcast; every row identical.
        for r in 1..4 {
            assert_eq!(y.row(r), y.row(0));
        }
    }

    #[test]
    fn backward_matches_finite_difference_on_weights() {
        let (mut mha, x) = tiny_attention(3);
        let mut rng = Rng::seed_from(99);
        let coeff = rng.gaussian_matrix(5, 8, 1.0);
        let loss = |m: &MultiHeadAttention, x: &Matrix| -> f32 {
            m.infer(x).hadamard(&coeff).as_slice().iter().sum()
        };
        let (_, cache) = mha.forward(&x);
        let dx = mha.backward(&cache, &coeff);

        let eps = 1e-2f32;
        // wq weight gradient.
        let orig = mha.wq.weight.value.get(1, 2);
        mha.wq.weight.value.set(1, 2, orig + eps);
        let lp = loss(&mha, &x);
        mha.wq.weight.value.set(1, 2, orig - eps);
        let lm = loss(&mha, &x);
        mha.wq.weight.value.set(1, 2, orig);
        let fd = (lp - lm) / (2.0 * eps);
        let an = mha.wq.weight.grad.get(1, 2);
        assert!(
            (fd - an).abs() < 5e-2 * (1.0 + fd.abs()),
            "wq fd={fd} an={an}"
        );

        // wv weight gradient.
        let orig = mha.wv.weight.value.get(0, 5);
        mha.wv.weight.value.set(0, 5, orig + eps);
        let lp = loss(&mha, &x);
        mha.wv.weight.value.set(0, 5, orig - eps);
        let lm = loss(&mha, &x);
        mha.wv.weight.value.set(0, 5, orig);
        let fd = (lp - lm) / (2.0 * eps);
        let an = mha.wv.weight.grad.get(0, 5);
        assert!(
            (fd - an).abs() < 5e-2 * (1.0 + fd.abs()),
            "wv fd={fd} an={an}"
        );

        // Input gradient.
        let mut x2 = x.clone();
        let orig = x2.get(2, 3);
        x2.set(2, 3, orig + eps);
        let lp = loss(&mha, &x2);
        x2.set(2, 3, orig - eps);
        let lm = loss(&mha, &x2);
        let fd = (lp - lm) / (2.0 * eps);
        let an = dx.get(2, 3);
        assert!(
            (fd - an).abs() < 5e-2 * (1.0 + fd.abs()),
            "dx fd={fd} an={an}"
        );
    }

    #[test]
    fn span_gradient_matches_finite_difference() {
        let (mut mha, x) = tiny_attention(5);
        let mut rng = Rng::seed_from(123);
        let coeff = rng.gaussian_matrix(5, 8, 1.0);
        let (_, cache) = mha.forward(&x);
        mha.backward(&cache, &coeff);
        let analytic = mha.spans[0].z.grad.get(0, 0);

        let eps = 5e-2f32;
        let z0 = mha.spans[0].z_value();
        mha.spans[0].set_z(z0 + eps);
        let lp: f32 = mha.infer(&x).hadamard(&coeff).as_slice().iter().sum();
        mha.spans[0].set_z(z0 - eps);
        let lm: f32 = mha.infer(&x).hadamard(&coeff).as_slice().iter().sum();
        mha.spans[0].set_z(z0);
        let fd = (lp - lm) / (2.0 * eps);
        assert!(
            (fd - analytic).abs() < 0.1 * (1.0 + fd.abs()),
            "span fd={fd} an={analytic}"
        );
    }

    #[test]
    fn params_mut_exposes_projections_and_spans() {
        let (mut mha, _) = tiny_attention(6);
        // 4 linears x 2 params + 2 spans
        assert_eq!(mha.params_mut().len(), 10);
    }
}
