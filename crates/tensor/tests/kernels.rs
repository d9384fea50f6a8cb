//! Properties of the blocked, threaded GEMM kernels:
//!
//! 1. every variant matches a naive f32 reference within 1e-4 (relative)
//!    across random shapes, including non-multiple-of-tile and degenerate
//!    ones (`m = 1`, `k = 1`);
//! 2. results are **bit-identical** across worker counts, for the raw
//!    kernels and for the batch-threaded layer forwards built on them;
//! 3. the eval-mode conv forward — the direct small-map kernel below its
//!    crossover, im2col + GEMM above — is **bit-identical** to im2col +
//!    a naive GEMM in the same tap order, NaNs and signed zeros included.

use einet_tensor::{
    mm, mm_a_bt, mm_at_b, set_num_threads, BatchNorm2d, Conv2d, Layer, MaxPool2d, Mode, Tensor,
};
use proptest::prelude::*;
use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};

fn mm_ref(a: &[f32], b: &[f32], m: usize, k: usize, n: usize) -> Vec<f32> {
    let mut c = vec![0.0_f32; m * n];
    for i in 0..m {
        for j in 0..n {
            let mut acc = 0.0_f32;
            for p in 0..k {
                acc += a[i * k + p] * b[p * n + j];
            }
            c[i * n + j] = acc;
        }
    }
    c
}

fn transpose(x: &[f32], rows: usize, cols: usize) -> Vec<f32> {
    let mut t = vec![0.0_f32; x.len()];
    for r in 0..rows {
        for c in 0..cols {
            t[c * rows + r] = x[r * cols + c];
        }
    }
    t
}

fn random_data(len: usize, seed: u64) -> Vec<f32> {
    let mut rng = SmallRng::seed_from_u64(seed);
    (0..len).map(|_| rng.gen_range(-2.0_f32..2.0)).collect()
}

fn assert_close(got: &[f32], want: &[f32], what: &str) {
    for (i, (g, w)) in got.iter().zip(want).enumerate() {
        let tol = 1e-4_f32 * w.abs().max(1.0);
        assert!(
            (g - w).abs() <= tol,
            "{what}: element {i}: got {g}, want {w} (tol {tol})"
        );
    }
}

/// Test-local conv reference: im2col rows in `p = (ci·k + ki)·k + kj`
/// order with padded taps as `0.0`, [`mm_ref`] (one chain per element from
/// `0.0`), then `+ bias`.
#[allow(clippy::too_many_arguments)]
fn conv_ref(
    x: &[f32],
    shape: [usize; 4],
    weight: &[f32],
    bias: &[f32],
    k: usize,
    stride: usize,
    pad: usize,
) -> Vec<f32> {
    let [n, c, h, w] = shape;
    let out_c = bias.len();
    let (oh, ow) = (
        (h + 2 * pad - k) / stride + 1,
        (w + 2 * pad - k) / stride + 1,
    );
    let mut out = Vec::with_capacity(n * out_c * oh * ow);
    for xs in x.chunks_exact(c * h * w) {
        let mut cols = vec![0.0_f32; c * k * k * oh * ow];
        for ci in 0..c {
            for ki in 0..k {
                for kj in 0..k {
                    let p = (ci * k + ki) * k + kj;
                    for oi in 0..oh {
                        for oj in 0..ow {
                            let ih = (oi * stride + ki) as isize - pad as isize;
                            let iw = (oj * stride + kj) as isize - pad as isize;
                            if (0..h as isize).contains(&ih) && (0..w as isize).contains(&iw) {
                                cols[p * oh * ow + oi * ow + oj] =
                                    xs[(ci * h + ih as usize) * w + iw as usize];
                            }
                        }
                    }
                }
            }
        }
        let y = mm_ref(weight, &cols, out_c, c * k * k, oh * ow);
        for (row, &b) in y.chunks_exact(oh * ow).zip(bias) {
            out.extend(row.iter().map(|&v| v + b));
        }
    }
    out
}

/// Overwrites a conv's weight and bias.
fn set_conv_params(conv: &mut Conv2d, weight: &[f32], bias: &[f32]) {
    let mut first = true;
    conv.visit_params(&mut |p| {
        let src = if first { weight } else { bias };
        p.value.as_mut_slice().copy_from_slice(src);
        first = false;
    });
}

/// Runs an eval-mode forward and asserts it matches [`conv_ref`] bit for
/// bit.
#[allow(clippy::too_many_arguments)]
fn assert_conv_matches_ref(
    x: &[f32],
    shape: [usize; 4],
    out_c: usize,
    weight: &[f32],
    bias: &[f32],
    k: usize,
    stride: usize,
    pad: usize,
) -> Vec<f32> {
    let mut rng = SmallRng::seed_from_u64(1);
    let mut conv = Conv2d::new(shape[1], out_c, k, stride, pad, &mut rng);
    set_conv_params(&mut conv, weight, bias);
    let input = Tensor::new(&shape, x.to_vec()).unwrap();
    let got = conv.forward(&input, Mode::Eval);
    let want = conv_ref(x, shape, weight, bias, k, stride, pad);
    assert_eq!(got.len(), want.len(), "conv output length");
    for (i, (g, w)) in got.as_slice().iter().zip(&want).enumerate() {
        assert!(
            g.to_bits() == w.to_bits(),
            "conv {shape:?}->{out_c} k{k} s{stride} p{pad}: element {i}: got {g} ({:#x}), want {w} ({:#x})",
            g.to_bits(),
            w.to_bits()
        );
    }
    want
}

/// Conv shapes from the model zoo's range, on both sides of the direct
/// kernel's crossover (output maps of up to 8×8 take it, 16×16 does not):
/// `([n, c, h, w], out_c, k, stride, pad)`.
fn conv_case() -> impl Strategy<Value = ([usize; 4], usize, usize, usize, usize)> {
    (
        (1_usize..=4, 1_usize..=80, 1_usize..=40),
        0_usize..5,
        0_usize..2,
        1_usize..=2,
        0_usize..=1,
    )
        .prop_map(|((n, c, out_c), hw, k, stride, pad)| {
            let hw = [1, 2, 4, 8, 16][hw];
            ([n, c, hw, hw], out_c, [1, 3][k], stride, pad)
        })
        .prop_filter("kernel fits the padded map", |&(s, _, k, _, pad)| {
            s[2] + 2 * pad >= k
        })
}

/// Shapes spanning the serial tier, the blocked tier, tile-edge cases and
/// degenerate extents.
fn shape() -> impl Strategy<Value = (usize, usize, usize)> {
    prop_oneof![
        (1_usize..=8, 1_usize..=8, 1_usize..=8), // tiny / serial tier
        (1_usize..=2, 30_usize..=70, 30_usize..=70), // m = 1..2 rows
        (30_usize..=70, 1_usize..=2, 30_usize..=70), // k = 1..2 depth
        (30_usize..=90, 30_usize..=90, 30_usize..=90), // blocked tier
    ]
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(40))]

    #[test]
    fn mm_matches_reference(((m, k, n), seed) in (shape(), 0_u64..1 << 32)) {
        let a = random_data(m * k, seed);
        let b = random_data(k * n, seed ^ 0xABCD_EF01);
        let want = mm_ref(&a, &b, m, k, n);
        assert_close(&mm(&a, &b, m, k, n), &want, "mm");
    }

    #[test]
    fn mm_a_bt_matches_reference(((m, k, n), seed) in (shape(), 0_u64..1 << 32)) {
        let a = random_data(m * k, seed);
        let bt = random_data(n * k, seed ^ 0x1357_9BDF); // stored [n, k]
        let b = transpose(&bt, n, k); // logical [k, n]
        let want = mm_ref(&a, &b, m, k, n);
        assert_close(&mm_a_bt(&a, &bt, m, k, n), &want, "mm_a_bt");
    }

    #[test]
    fn conv_eval_forward_bit_identical_to_im2col_reference(
        ((shape, out_c, k, stride, pad), seed) in (conv_case(), 0_u64..1 << 32)
    ) {
        let x = random_data(shape.iter().product(), seed);
        let weight = random_data(out_c * shape[1] * k * k, seed ^ 0x5EED_0001);
        let bias = random_data(out_c, seed ^ 0x5EED_0002);
        assert_conv_matches_ref(&x, shape, out_c, &weight, &bias, k, stride, pad);
    }

    #[test]
    fn mm_at_b_matches_reference(((m, k, n), seed) in (shape(), 0_u64..1 << 32)) {
        let at = random_data(k * m, seed); // stored [k, m]
        let b = random_data(k * n, seed ^ 0x2468_ACE0);
        let a = transpose(&at, k, m); // logical [m, k]
        let want = mm_ref(&a, &b, m, k, n);
        assert_close(&mm_at_b(&at, &b, m, k, n), &want, "mm_at_b");
    }
}

/// Runs `f` under each worker count and asserts the outputs are bitwise
/// equal to the single-worker result. Restores the default afterwards.
fn assert_thread_invariant(mut f: impl FnMut() -> Vec<f32>, what: &str) {
    set_num_threads(1);
    let baseline = f();
    for threads in [2, 3, 4, 8] {
        set_num_threads(threads);
        let got = f();
        set_num_threads(0);
        assert_eq!(
            baseline.len(),
            got.len(),
            "{what}: length @ {threads} workers"
        );
        for (i, (a, b)) in baseline.iter().zip(&got).enumerate() {
            assert!(
                a.to_bits() == b.to_bits(),
                "{what}: element {i} differs at {threads} workers: {a} vs {b}"
            );
        }
    }
    set_num_threads(0);
}

#[test]
fn gemm_bit_identical_across_thread_counts() {
    // 150*130*140 ≈ 2.7M MACs: well above both the blocked and the
    // threading thresholds.
    let (m, k, n) = (150, 130, 140);
    let a = random_data(m * k, 11);
    let b = random_data(k * n, 22);
    let bt = random_data(n * k, 33);
    let at = random_data(k * m, 44);
    assert_thread_invariant(|| mm(&a, &b, m, k, n), "mm");
    assert_thread_invariant(|| mm_a_bt(&a, &bt, m, k, n), "mm_a_bt");
    assert_thread_invariant(|| mm_at_b(&at, &b, m, k, n), "mm_at_b");
}

#[test]
fn conv_forward_bit_identical_across_thread_counts() {
    let mut rng = SmallRng::seed_from_u64(5);
    let mut conv = Conv2d::new(8, 16, 3, 1, 1, &mut rng);
    let x = Tensor::new(&[4, 8, 32, 32], random_data(4 * 8 * 32 * 32, 55)).unwrap();
    assert_thread_invariant(
        || conv.forward(&x, Mode::Eval).as_slice().to_vec(),
        "conv2d forward",
    );
    // A batch-4 serving shape on the direct kernel: flex-vgg16's 16->16
    // conv at 8x8, whose 4·16·144·64 MACs are above the threading
    // threshold.
    let mut conv = Conv2d::new(16, 16, 3, 1, 1, &mut rng);
    let x = Tensor::new(&[4, 16, 8, 8], random_data(4 * 16 * 8 * 8, 56)).unwrap();
    assert_thread_invariant(
        || conv.forward(&x, Mode::Eval).as_slice().to_vec(),
        "conv2d direct forward",
    );
}

#[test]
fn conv_inf_weight_on_padded_tap_yields_nan() {
    // Tap (0, 0) is padding for output (0, 0): `inf · 0.0` must make it NaN
    // instead of being skipped.
    let mut weight = vec![0.5_f32; 9];
    weight[0] = f32::INFINITY;
    let x = [1.0, 2.0, 3.0, 4.0];
    let out = assert_conv_matches_ref(&x, [1, 1, 2, 2], 1, &weight, &[0.25], 3, 1, 1);
    assert!(
        out[0].is_nan(),
        "padded inf tap must give NaN, got {}",
        out[0]
    );
    // Output (1, 1) reads x[0][0] through that tap: `inf · 1.0`.
    assert_eq!(out[3], f32::INFINITY);
}

#[test]
fn conv_zero_input_keeps_reference_signed_zero() {
    // Every product is -0.0; the chain starts at +0.0, so the sum is +0.0
    // (a chain seeded with the first product would give -0.0).
    let weight = vec![-0.75_f32; 4 * 3 * 9];
    let x = vec![0.0_f32; 3 * 4 * 4];
    for bias in [0.0_f32, -0.0] {
        let out = assert_conv_matches_ref(&x, [1, 3, 4, 4], 4, &weight, &[bias; 4], 3, 1, 1);
        assert!(out.iter().all(|v| v.to_bits() == 0.0_f32.to_bits()));
    }
}

#[test]
fn maxpool_forward_bit_identical_across_thread_counts() {
    let mut pool = MaxPool2d::new(2, 2);
    let x = Tensor::new(&[4, 64, 32, 32], random_data(4 * 64 * 32 * 32, 66)).unwrap();
    assert_thread_invariant(
        || pool.forward(&x, Mode::Eval).as_slice().to_vec(),
        "maxpool forward",
    );
}

#[test]
fn batchnorm_eval_bit_identical_across_thread_counts() {
    let mut bn = BatchNorm2d::new(16);
    // A train pass first so the running stats are non-trivial.
    let warm = Tensor::new(&[2, 16, 8, 8], random_data(2 * 16 * 8 * 8, 77)).unwrap();
    bn.forward(&warm, Mode::Train);
    let x = Tensor::new(&[4, 16, 48, 48], random_data(4 * 16 * 48 * 48, 88)).unwrap();
    assert_thread_invariant(
        || bn.forward(&x, Mode::Eval).as_slice().to_vec(),
        "batchnorm eval forward",
    );
}

#[test]
fn degenerate_extents_stay_finite_and_exact() {
    // m = 1 single row against a large B.
    let (k, n) = (64, 48);
    let a = random_data(k, 3);
    let b = random_data(k * n, 4);
    assert_close(&mm(&a, &b, 1, k, n), &mm_ref(&a, &b, 1, k, n), "mm m=1");
    // k = 1: outer product.
    let a = random_data(40, 5);
    let b = random_data(50, 6);
    assert_close(&mm(&a, &b, 40, 1, 50), &mm_ref(&a, &b, 40, 1, 50), "mm k=1");
    // n = 1: matrix-vector.
    let a = random_data(40 * 30, 7);
    let b = random_data(30, 8);
    assert_close(&mm(&a, &b, 40, 30, 1), &mm_ref(&a, &b, 40, 30, 1), "mm n=1");
}
