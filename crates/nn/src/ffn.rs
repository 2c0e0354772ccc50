//! Position-wise feed-forward network (Linear → GELU → Linear).

use crate::activation::{gelu_backward, gelu_forward};
use crate::linear::{Linear, LinearCache};
use crate::param::Parameter;
use edgebert_tensor::kernels::gelu;
use edgebert_tensor::{Matrix, Rng};
use serde::{Deserialize, Serialize};

/// The transformer FFN block: `y = W2 · gelu(W1 · x + b1) + b2`.
///
/// In ALBERT the intermediate width is 4× the hidden width (768 → 3072 in
/// the paper's Fig. 5).
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct FeedForward {
    /// Expansion layer (hidden → intermediate).
    pub fc1: Linear,
    /// Contraction layer (intermediate → hidden).
    pub fc2: Linear,
}

/// Saved activations for [`FeedForward::backward`].
#[derive(Debug, Clone)]
pub struct FeedForwardCache {
    c1: LinearCache,
    gelu_in: Matrix,
    c2: LinearCache,
}

impl FeedForward {
    /// Creates an FFN with the given hidden and intermediate widths.
    pub fn new(hidden: usize, intermediate: usize, rng: &mut Rng) -> Self {
        Self {
            fc1: Linear::new(hidden, intermediate, rng),
            fc2: Linear::new(intermediate, hidden, rng),
        }
    }

    /// Forward pass over a `seq_len x hidden` input.
    pub fn forward(&self, x: &Matrix) -> (Matrix, FeedForwardCache) {
        let (h, c1) = self.fc1.forward(x);
        let (a, gelu_in) = gelu_forward(&h);
        let (y, c2) = self.fc2.forward(&a);
        (y, FeedForwardCache { c1, gelu_in, c2 })
    }

    /// Inference-only forward: a copying wrapper over
    /// [`FeedForward::infer_rows`].
    pub fn infer(&self, x: &Matrix) -> Matrix {
        let mut hidden = vec![0.0; x.rows() * self.fc1.out_features()];
        let mut out = Matrix::zeros(x.rows(), self.fc2.out_features());
        self.infer_rows(x.as_slice(), &mut hidden, out.as_mut_slice());
        out
    }

    /// Inference kernel over row-major rows of `x`: the expansion goes
    /// to `hidden` (`rows x intermediate`), GELU runs there in place,
    /// and the contraction goes to `out`. Bit-identical to
    /// [`FeedForward::forward`].
    // analyzer: hot-path
    pub fn infer_rows(&self, x: &[f32], hidden: &mut [f32], out: &mut [f32]) {
        self.fc1.infer_rows(x, hidden);
        for v in hidden.iter_mut() {
            *v = gelu(*v);
        }
        self.fc2.infer_rows(hidden, out);
    }

    /// Backward pass; accumulates parameter grads and returns `dx`.
    pub fn backward(&mut self, cache: &FeedForwardCache, grad_out: &Matrix) -> Matrix {
        let da = self.fc2.backward(&cache.c2, grad_out);
        let dh = gelu_backward(&cache.gelu_in, &da);
        self.fc1.backward(&cache.c1, &dh)
    }

    /// Clears gradients.
    pub fn zero_grad(&mut self) {
        self.fc1.zero_grad();
        self.fc2.zero_grad();
    }

    /// Mutable parameter references for the optimizer.
    pub fn params_mut(&mut self) -> Vec<&mut Parameter> {
        let mut ps = self.fc1.params_mut();
        ps.extend(self.fc2.params_mut());
        ps
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn forward_shape() {
        let mut rng = Rng::seed_from(0);
        let ffn = FeedForward::new(8, 32, &mut rng);
        let x = rng.gaussian_matrix(4, 8, 1.0);
        let (y, _) = ffn.forward(&x);
        assert_eq!(y.shape(), (4, 8));
        assert_eq!(ffn.infer(&x), y);
    }

    #[test]
    fn backward_matches_finite_difference() {
        let mut rng = Rng::seed_from(13);
        let mut ffn = FeedForward::new(6, 12, &mut rng);
        let x = rng.gaussian_matrix(3, 6, 1.0);
        let coeff = rng.gaussian_matrix(3, 6, 1.0);
        let loss = |f: &FeedForward, x: &Matrix| -> f32 {
            f.infer(x).hadamard(&coeff).as_slice().iter().sum()
        };
        let (_, cache) = ffn.forward(&x);
        let dx = ffn.backward(&cache, &coeff);
        let eps = 1e-2f32;

        let mut x2 = x.clone();
        let orig = x2.get(1, 2);
        x2.set(1, 2, orig + eps);
        let lp = loss(&ffn, &x2);
        x2.set(1, 2, orig - eps);
        let lm = loss(&ffn, &x2);
        let fd = (lp - lm) / (2.0 * eps);
        assert!((fd - dx.get(1, 2)).abs() < 5e-2 * (1.0 + fd.abs()));

        let orig = ffn.fc1.weight.value.get(0, 0);
        ffn.fc1.weight.value.set(0, 0, orig + eps);
        let lp = loss(&ffn, &x);
        ffn.fc1.weight.value.set(0, 0, orig - eps);
        let lm = loss(&ffn, &x);
        ffn.fc1.weight.value.set(0, 0, orig);
        let fd = (lp - lm) / (2.0 * eps);
        let an = ffn.fc1.weight.grad.get(0, 0);
        assert!((fd - an).abs() < 5e-2 * (1.0 + fd.abs()), "fd={fd} an={an}");
    }
}
