//! Pins the allocation contract of the fused inference kernels: once a
//! thread has warmed up (its scratch workspace fitted to the model's
//! `max_seq_len`, its FP8 codecs built), `forward_next_layer` allocates
//! exactly once per layer — the logits row the session keeps — for
//! every sequence length and layer index, and `begin_forward` allocates
//! a fixed number of times.
//!
//! One `#[test]` function on purpose: integration-test binaries run
//! their tests on parallel threads, and a second thread's allocations
//! would bleed into the global counter and flake the assertions.

use edgebert_model::{AlbertConfig, AlbertModel};
use edgebert_tasks::VocabLayout;
use edgebert_tensor::Rng;
use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicU64, Ordering};

struct CountingAllocator;

static ALLOCATIONS: AtomicU64 = AtomicU64::new(0);

unsafe impl GlobalAlloc for CountingAllocator {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        ALLOCATIONS.fetch_add(1, Ordering::Relaxed);
        System.alloc(layout)
    }
    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout)
    }
    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        ALLOCATIONS.fetch_add(1, Ordering::Relaxed);
        System.realloc(ptr, layout, new_size)
    }
}

#[global_allocator]
static COUNTER: CountingAllocator = CountingAllocator;

/// Allocations observed while running `f`, and its result.
fn allocations_during<R>(f: impl FnOnce() -> R) -> (u64, R) {
    let before = ALLOCATIONS.load(Ordering::Relaxed);
    let r = f();
    (ALLOCATIONS.load(Ordering::Relaxed) - before, r)
}

/// `begin_forward`'s allocations: the session's hidden state and its
/// two per-layer output lists (reserved for every layer up front).
const BEGIN_ALLOCATIONS: u64 = 3;

#[test]
fn inference_kernels_allocate_only_what_the_session_keeps() {
    let layout = VocabLayout::standard();
    let cfg = AlbertConfig::tiny(layout.vocab_size(), 3);
    let mut rng = Rng::seed_from(12);
    let mut model = AlbertModel::pretrained(cfg, &layout, &mut rng);
    // The served configuration: FP8 weights and activations, so the
    // per-layer activation quantization is part of what is pinned.
    model.quantize_weights(4);
    model.enable_activation_quant(4);
    // Partial spans, so the masked-attention path runs too.
    model.encoder.attention.spans[1].set_z(2.0);

    let sentence = |len: usize| -> Vec<u32> {
        (0..len)
            .map(|i| (i * 37 % cfg.vocab_size.min(400)) as u32)
            .collect()
    };

    // Warm-up: fits this thread's scratch workspace (to `max_seq_len`,
    // whatever the first sentence's length) and its codec cache.
    let mut warm = model.begin_forward(&sentence(3));
    for _ in 0..model.num_layers() {
        model.forward_next_layer(&mut warm);
    }

    for len in [1, 2, 7, cfg.max_seq_len - 1, cfg.max_seq_len] {
        let tokens = sentence(len);
        let (n, mut session) = allocations_during(|| model.begin_forward(&tokens));
        assert_eq!(
            n, BEGIN_ALLOCATIONS,
            "begin_forward allocated {n} times (len {len})"
        );
        for layer in 1..=model.num_layers() {
            let (n, (done, _)) = allocations_during(|| model.forward_next_layer(&mut session));
            assert_eq!(done, layer);
            assert_eq!(
                n, 1,
                "forward_next_layer allocated {n} times (len {len}, layer {layer})"
            );
        }
    }
}
