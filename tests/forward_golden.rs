//! Golden bit patterns of the inference forward path.
//!
//! `tests/backend_equivalence.rs` compares the model's inference paths
//! with each other, so a change that moved every path alike would pass
//! it. This file pins them against fixed numbers instead: an FNV-1a
//! hash over the `to_bits()` of every logit and entropy (and every
//! normalized hidden state `forward_layers` returns) for 64 fixed
//! inputs of each GLUE task, on the `Scale::Test` artifacts trained
//! with seed 42 (FP8 weights and activations, as served).
//!
//! Three paths are hashed per task: `forward_layers`,
//! `infer_early_exit` over a threshold sweep, and stepped sessions —
//! a `ForwardSession` driven layer by layer (parked by clone half way)
//! plus an `InferenceSession` stepped to completion in every mode.
//!
//! The expected hashes were recorded from the scalar reference kernels.
//! A kernel change that keeps the arithmetic (same operations, same
//! order, no FMA) keeps them; anything else fails here and must
//! re-pin them deliberately.

use edgebert::engine::{InferenceMode, InferenceRequest};
use edgebert::pipeline::{Scale, TaskArtifacts};
use edgebert::serving::TaskRuntime;
use edgebert::session::StepOutcome;
use edgebert_tasks::{Task, TaskGenerator};

/// Training seed of the pinned artifacts.
const TRAIN_SEED: u64 = 42;
/// Inputs per task.
const INPUTS: usize = 64;
/// Seed of the input sentences.
const INPUT_SEED: u64 = 0x601D;
/// Early-exit thresholds swept by `infer_early_exit`.
const THRESHOLDS: [f32; 5] = [0.0, 0.1, 0.3, 0.6, f32::INFINITY];

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

    fn f32(&mut self, x: f32) {
        self.bytes(&x.to_bits().to_le_bytes());
    }

    fn f64(&mut self, x: f64) {
        self.bytes(&x.to_bits().to_le_bytes());
    }

    fn usize(&mut self, n: usize) {
        self.bytes(&(n as u64).to_le_bytes());
    }

    fn floats(&mut self, xs: &[f32]) {
        self.usize(xs.len());
        for &x in xs {
            self.f32(x);
        }
    }
}

/// `(forward_layers, infer_early_exit, stepped sessions)` hashes.
fn hashes(task: Task) -> [u64; 3] {
    let art = TaskArtifacts::build(task, Scale::Test, TRAIN_SEED);
    let model = &art.model;
    let runtime = TaskRuntime::from_artifacts(&art);
    let engine = runtime.engine();
    let inputs =
        TaskGenerator::standard(task, model.config.max_seq_len).generate(INPUTS, INPUT_SEED);
    assert_eq!(inputs.len(), INPUTS);

    let mut layers = Fnv::new();
    let mut early = Fnv::new();
    let mut stepped = Fnv::new();
    for ex in &inputs {
        let tokens = &ex.tokens;

        let out = model.forward_layers(tokens);
        for l in 0..model.num_layers() {
            layers.floats(out.hidden_states[l].as_slice());
            layers.floats(&out.logits[l]);
            layers.f32(out.entropies[l]);
        }

        for et in THRESHOLDS {
            let (exit, logits, seen) = model.infer_early_exit(tokens, et);
            early.usize(exit);
            early.floats(&logits);
            early.floats(&seen);
        }

        let mut fwd = model.begin_forward(tokens);
        for l in 1..=model.num_layers() {
            if l == model.num_layers() / 2 {
                fwd = fwd.clone();
            }
            let (layer, h) = model.forward_next_layer(&mut fwd);
            stepped.usize(layer);
            stepped.f32(h);
            stepped.floats(fwd.logits_at(l));
            stepped.f32(fwd.entropy_at(l));
        }
        for mode in [
            InferenceMode::Base,
            InferenceMode::ConventionalEe,
            InferenceMode::LatencyAware,
        ] {
            let request = InferenceRequest::new(tokens.clone()).with_mode(mode);
            let mut session = engine.begin(&request);
            let mut steps = 0usize;
            while session.step() == StepOutcome::Continue {
                steps += 1;
            }
            let r = session.finish().result;
            stepped.usize(steps);
            stepped.usize(r.exit_layer);
            stepped.usize(r.predicted_layer.unwrap_or(0));
            stepped.usize(r.prediction);
            stepped.f64(r.latency_s);
            stepped.f64(r.energy_j);
            stepped.f32(r.voltage);
            stepped.f64(r.freq_hz);
            stepped.usize(usize::from(r.deadline_met));
        }
    }
    [layers.0, early.0, stepped.0]
}

fn check(task: Task, expected: [u64; 3]) {
    let got = hashes(task);
    assert_eq!(
        got, expected,
        "{task:?}: forward bit patterns drifted (got {got:#018x?}, pinned {expected:#018x?})"
    );
}

#[test]
fn sst2_forward_bits_match_golden() {
    check(
        Task::Sst2,
        [
            0xb00a_d63d_f1ee_c11a,
            0x8f82_0348_2486_cdd3,
            0x7855_49a6_ec2b_21be,
        ],
    );
}

#[test]
fn qnli_forward_bits_match_golden() {
    check(
        Task::Qnli,
        [
            0x8487_4ff8_bf17_9beb,
            0xf2eb_89f0_ab0a_cb41,
            0xc263_b2b3_57e6_b9ca,
        ],
    );
}

#[test]
fn mnli_forward_bits_match_golden() {
    check(
        Task::Mnli,
        [
            0x98ed_d14c_814a_4839,
            0xe801_aed3_ffa7_b84a,
            0x5357_cc5b_4f11_2809,
        ],
    );
}

#[test]
fn qqp_forward_bits_match_golden() {
    check(
        Task::Qqp,
        [
            0x78f5_1bc7_28ed_7447,
            0x654d_7e99_56d3_4b99,
            0x34d5_8fa9_d478_ca7e,
        ],
    );
}
