//! Golden bit patterns of the inference kernels with nothing rounding
//! their outputs away.
//!
//! `tests/forward_golden.rs` pins the model as served, with FP8
//! activations. FP8 has 3 mantissa bits, so it snaps a last-ulp drift
//! in a kernel back onto the same code almost every time, and a
//! reordered sum can pass it. These hashes pin the same forward paths
//! with activation quantization off, plus each layer's `infer` on
//! synthetic inputs with exact zeros (the `matmul` zero skip), a head
//! switched off and a partial span. Any change to an operation or its
//! order shows up here.
//!
//! The expected hashes were recorded from the scalar reference kernels.

use edgebert::pipeline::{Scale, TaskArtifacts};
use edgebert_model::AlbertModel;
use edgebert_nn::{EncoderLayer, LayerNorm};
use edgebert_tasks::{Task, TaskGenerator};
use edgebert_tensor::{Matrix, Rng};

/// 64-bit FNV-1a over little-endian words.
struct Fnv(u64);

impl Fnv {
    fn new() -> Self {
        Self(0xcbf2_9ce4_8422_2325)
    }

    fn bytes(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.0 ^= u64::from(b);
            self.0 = self.0.wrapping_mul(0x0000_0100_0000_01b3);
        }
    }

    fn floats(&mut self, xs: &[f32]) {
        self.bytes(&(xs.len() as u64).to_le_bytes());
        for &x in xs {
            self.bytes(&x.to_bits().to_le_bytes());
        }
    }
}

/// `forward_layers`, `infer_early_exit` and a stepped session of the
/// seed-42 `Scale::Test` model of `task`, activations in f32.
fn fp32_model_hash(task: Task) -> u64 {
    let art = TaskArtifacts::build(task, Scale::Test, 42);
    let mut model: AlbertModel = (*art.model).clone();
    model.activation_fp8 = None;
    let inputs = TaskGenerator::standard(task, model.config.max_seq_len).generate(64, 0x601D);
    let mut h = Fnv::new();
    for ex in &inputs {
        let out = model.forward_layers(&ex.tokens);
        for l in 0..model.num_layers() {
            h.floats(out.hidden_states[l].as_slice());
            h.floats(&out.logits[l]);
            h.floats(&[out.entropies[l]]);
        }
        let (exit, logits, seen) = model.infer_early_exit(&ex.tokens, 0.3);
        h.floats(&[exit as f32]);
        h.floats(&logits);
        h.floats(&seen);
        let mut fwd = model.begin_forward(&ex.tokens);
        for l in 1..=model.num_layers() {
            model.forward_next_layer(&mut fwd);
            h.floats(fwd.logits_at(l));
        }
    }
    h.0
}

/// Gaussian rows with about a quarter of the entries exactly zero.
fn input(rng: &mut Rng, rows: usize, cols: usize) -> Matrix {
    let mut x = rng.gaussian_matrix(rows, cols, 1.5);
    for v in x.as_mut_slice() {
        if rng.chance(0.25) {
            *v = 0.0;
        }
    }
    x
}

/// Each layer's `infer` on synthetic inputs.
fn layer_hash() -> u64 {
    let mut rng = Rng::seed_from(0x6E0);
    let mut layer = EncoderLayer::new(24, 4, 40, 16, &mut rng);
    layer.attention.spans[1].set_z(-1000.0); // head off
    layer.attention.spans[2].set_z(2.5); // partial span
    let mut norm = LayerNorm::new(24);
    norm.gamma.value = rng.gaussian_matrix(1, 24, 1.0);
    norm.beta.value = rng.gaussian_matrix(1, 24, 0.5);
    let mut h = Fnv::new();
    for rows in [1, 2, 5, 16] {
        let x = input(&mut rng, rows, 24);
        h.floats(layer.infer(&x).as_slice());
        h.floats(layer.attention.infer(&x).as_slice());
        h.floats(layer.ffn.infer(&x).as_slice());
        h.floats(norm.infer(&x).as_slice());
        h.floats(layer.attention.wq.infer(&x).as_slice());
        h.floats(layer.ffn.fc2.infer(&input(&mut rng, rows, 40)).as_slice());
    }
    h.0
}

#[test]
fn fp32_activation_forward_bits_match_golden() {
    let got = [fp32_model_hash(Task::Sst2), fp32_model_hash(Task::Mnli)];
    assert_eq!(
        got,
        [0x70fa_13a5_08c3_7e4d, 0xcee5_a67f_0275_eb8f],
        "SST-2, MNLI: {got:#018x?}"
    );
}

#[test]
fn layer_kernel_bits_match_golden() {
    let got = layer_hash();
    assert_eq!(got, 0xffff_b772_5003_6155, "{got:#018x}");
}
