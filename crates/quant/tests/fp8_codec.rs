//! Byte-for-byte equivalence of the table-driven FP8 fast path
//! ([`Fp8Codec`]) with the reference [`Fp8Format::encode`].
//!
//! The tier-1 tests sweep every exponent width 1..=6 against every bias
//! [`QuantizedTensor::optimal_bias`] can return, on the inputs where an
//! exponent-bits encoder could go wrong: each power of two and its
//! neighbours one ulp away (where `log2` may round up), f32 subnormals,
//! every rounding midpoint and the saturation edges, ±0, ±inf and NaN.
//!
//! The exhaustive sweep over all 2^32 f32 bit patterns is `#[ignore]`d
//! (minutes in release mode); run it with
//! `cargo test --release -p edgebert-quant --test fp8_codec -- --ignored`.

use edgebert_quant::tensor::{fake_quantize, fake_quantize_in_place};
use edgebert_quant::{Fp8Codec, Fp8Format, QuantizedTensor};
use edgebert_tensor::{Matrix, Rng};

/// The format's code values with the neighbours one ulp away on each
/// side, both signs: every power of two in f32 range, every FP8 code and
/// every midpoint between adjacent codes (the rounding decisions), and
/// the saturation limit.
fn edge_inputs(fmt: Fp8Format) -> Vec<f32> {
    let mut centres: Vec<f32> = (-149..=127).map(|k| 2.0f32.powi(k)).collect();
    // 2^-149 .. 2^-127 by powi may flush; build them from bits too.
    centres.extend((0..23).map(|b| f32::from_bits(1 << b)));
    let mut codes: Vec<f32> = (0u8..0x80).map(|b| fmt.decode(b)).collect();
    codes.sort_by(f32::total_cmp);
    centres.extend(codes.windows(2).map(|w| w[0] + (w[1] - w[0]) / 2.0));
    centres.extend(codes);
    centres.push(fmt.max_value());
    let mut out = Vec::with_capacity(centres.len() * 6);
    for c in centres {
        for v in [f32::from_bits(c.to_bits().wrapping_sub(1)), c, next_up(c)] {
            out.push(v);
            out.push(-v);
        }
    }
    out
}

fn next_up(x: f32) -> f32 {
    if x.is_infinite() {
        x
    } else {
        f32::from_bits(x.to_bits() + 1)
    }
}

/// Special values and a spread of f32 subnormals.
fn special_inputs() -> Vec<f32> {
    let mut out = vec![
        0.0,
        -0.0,
        f32::INFINITY,
        f32::NEG_INFINITY,
        f32::NAN,
        -f32::NAN,
        f32::from_bits(0x7fc0_0001),
        f32::MAX,
        f32::MIN,
        f32::MIN_POSITIVE,
        -f32::MIN_POSITIVE,
    ];
    let mut rng = Rng::seed_from(0xF8);
    for bits in (1u32..=64).chain([0x7f_fffe, 0x7f_ffff, 0x40_0000, 0x40_0001]) {
        out.push(f32::from_bits(bits));
        out.push(-f32::from_bits(bits));
    }
    for _ in 0..256 {
        let bits = (rng.below(1 << 23) as u32) | ((rng.below(2) as u32) << 31);
        out.push(f32::from_bits(bits));
    }
    out
}

/// Every bias `optimal_bias` returns for `exp_bits`: one tensor per f32
/// binade (the bias depends only on `floor(log2(max |x|))`), the
/// all-zero tensor, and a tensor holding infinity.
fn optimal_biases(exp_bits: u8) -> Vec<i32> {
    let mut maxima: Vec<f32> = (0..23).map(|b| f32::from_bits(1 << b)).collect();
    maxima.extend((-126..=127).map(|k| 2.0f32.powi(k)));
    maxima.extend([0.0, f32::MAX, f32::INFINITY]);
    let mut biases: Vec<i32> = maxima
        .into_iter()
        .map(|m| QuantizedTensor::optimal_bias(&Matrix::from_vec(1, 1, vec![m]), exp_bits))
        .collect();
    biases.sort_unstable();
    biases.dedup();
    biases
}

fn assert_codec_matches(fmt: Fp8Format, inputs: &[f32]) {
    let codec = Fp8Codec::new(fmt);
    for &x in inputs {
        let want = fmt.encode(x);
        let got = codec.encode(x);
        assert_eq!(
            got,
            want,
            "{fmt:?}: encode({x:e} = {:#010x}) gave {got:#04x}, reference {want:#04x}",
            x.to_bits()
        );
        assert_eq!(codec.decode(got).to_bits(), fmt.decode(got).to_bits());
    }
}

#[test]
fn codec_matches_reference_for_every_width_and_optimal_bias() {
    let specials = special_inputs();
    for exp_bits in 1..=6u8 {
        let biases = optimal_biases(exp_bits);
        // One bias per binade plus the zero-tensor default.
        assert!(biases.len() >= 277, "{exp_bits}: {} biases", biases.len());
        for bias in biases {
            let fmt = Fp8Format::new(exp_bits, bias);
            let mut inputs = edge_inputs(fmt);
            inputs.extend(&specials);
            if bias < -(1 << 20) {
                // The bias of a tensor holding infinity. The reference's
                // `e_unb + bias` overflows `i32` below 2^(-1 - e_top)
                // (a debug-build panic), so only larger magnitudes are
                // well defined there; the codec defers to the reference
                // for this bias anyway.
                inputs.retain(|x| x.is_nan() || x.abs() >= 1.0);
            }
            assert_codec_matches(fmt, &inputs);
        }
    }
}

#[test]
fn codec_matches_reference_on_random_values() {
    let mut rng = Rng::seed_from(0xC0DEC);
    let inputs: Vec<f32> = (0..4096)
        .map(|_| rng.gaussian() * 2.0f32.powi((rng.below(40) as i32) - 20))
        .collect();
    for exp_bits in 1..=6u8 {
        for bias in [-3, 0, 7, 15, 22, 40] {
            assert_codec_matches(Fp8Format::new(exp_bits, bias), &inputs);
        }
    }
}

#[test]
fn fake_quantize_in_place_matches_quantize_then_dequantize() {
    // Many scales in a row churn the per-thread codec cache, so hits,
    // misses and evictions are all exercised.
    let mut rng = Rng::seed_from(0xFA6E);
    for round in 0..64i32 {
        let exp_bits = 1 + (round % 6) as u8;
        let scale = 2.0f32.powi(round % 23 - 11);
        let m = rng.gaussian_matrix(3, 7, scale);
        let reference = QuantizedTensor::quantize(&m, exp_bits).dequantize();
        let mut in_place = m.clone();
        fake_quantize_in_place(in_place.as_mut_slice(), exp_bits);
        let copied = fake_quantize(&m, exp_bits);
        for ((a, b), c) in reference
            .as_slice()
            .iter()
            .zip(in_place.as_slice())
            .zip(copied.as_slice())
        {
            assert_eq!(a.to_bits(), b.to_bits(), "round {round}");
            assert_eq!(a.to_bits(), c.to_bits(), "round {round}");
        }
    }
}

/// All 2^32 bit patterns through one format, split over the available
/// cores.
fn exhaustive(fmt: Fp8Format) {
    let codec = Fp8Codec::new(fmt);
    let workers = std::thread::available_parallelism().map_or(1, |n| n.get()) as u64;
    let span = (1u64 << 32).div_ceil(workers);
    std::thread::scope(|scope| {
        for w in 0..workers {
            let codec = &codec;
            scope.spawn(move || {
                let end = ((w + 1) * span).min(1 << 32);
                for bits in w * span..end {
                    let x = f32::from_bits(bits as u32);
                    let (got, want) = (codec.encode(x), fmt.encode(x));
                    assert_eq!(got, want, "{fmt:?}: encode({bits:#010x})");
                }
            });
        }
    });
}

#[test]
#[ignore = "sweeps all 2^32 f32 bit patterns; run in release mode"]
fn codec_matches_reference_on_every_f32_default_bias() {
    exhaustive(Fp8Format::edgebert(7));
}

#[test]
#[ignore = "sweeps all 2^32 f32 bit patterns; run in release mode"]
fn codec_matches_reference_on_every_f32_activation_bias() {
    // The bias the served models' activations typically get (a tensor
    // maximum in [4, 8)).
    exhaustive(Fp8Format::edgebert(13));
}
