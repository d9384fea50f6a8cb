//! Kernel speedup runner: times the naive seed kernels against the blocked,
//! threaded replacements on Fig. 4-scale GEMM and conv-forward shapes and
//! against the direct small-map conv on the zoo's batch-1 serving shapes,
//! and writes `results/bench_kernels.json` (hand-rolled JSON, no serde).
//! Conv rows also record `im2col_ms`, the same forward through im2col + the
//! blocked GEMM, so each row shows both sides of the direct kernel's
//! crossover. Two decode rows record `us_per_call` for one 3×16×16
//! `input.data` request line: the wire request parser and a JSON tree
//! parse of the same line.
//!
//! Environment:
//! * `EINET_BENCH_BUDGET_MS` — per-case measurement budget (default 300).
//! * `EINET_THREADS` — worker-pool width (default: available parallelism).

use std::time::{Duration, Instant};

use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};

use einet_server::wire;
use einet_tensor::{mm, num_threads, set_num_threads, Conv2d, Layer, Mode, Tensor};
use einet_trace::json;

/// The seed's GEMM: i-k-j loop order with the data-dependent zero skip —
/// the baseline every speedup in the report is measured against.
fn naive_mm(a: &[f32], b: &[f32], m: usize, k: usize, n: usize) -> Vec<f32> {
    let mut c = vec![0.0_f32; m * n];
    for i in 0..m {
        let a_row = &a[i * k..(i + 1) * k];
        let c_row = &mut c[i * n..(i + 1) * n];
        for (p, &av) in a_row.iter().enumerate() {
            if av == 0.0 {
                continue;
            }
            let b_row = &b[p * n..(p + 1) * n];
            for (cv, &bv) in c_row.iter_mut().zip(b_row.iter()) {
                *cv += av * bv;
            }
        }
    }
    c
}

/// The seed's conv forward: fresh im2col allocation + naive GEMM per sample.
#[allow(clippy::too_many_arguments)]
fn naive_conv_forward(
    x: &[f32],
    weight: &[f32],
    bias: &[f32],
    n: usize,
    in_c: usize,
    h: usize,
    w: usize,
    out_c: usize,
    k: usize,
    stride: usize,
    pad: usize,
) -> Vec<f32> {
    let (oh, ow) = (
        (h + 2 * pad - k) / stride + 1,
        (w + 2 * pad - k) / stride + 1,
    );
    let kk = in_c * k * k;
    let per_in = in_c * h * w;
    let mut out = vec![0.0_f32; n * out_c * oh * ow];
    for i in 0..n {
        let xs = &x[i * per_in..(i + 1) * per_in];
        let mut cols = vec![0.0_f32; kk * oh * ow];
        for ci in 0..in_c {
            for ki in 0..k {
                for kj in 0..k {
                    let row = (ci * k + ki) * k + kj;
                    let base = row * oh * ow;
                    for oi in 0..oh {
                        let ih = (oi * stride + ki) as isize - pad as isize;
                        if ih < 0 || ih >= h as isize {
                            continue;
                        }
                        let in_base = (ci * h + ih as usize) * w;
                        for oj in 0..ow {
                            let iw = (oj * stride + kj) as isize - pad as isize;
                            if iw < 0 || iw >= w as isize {
                                continue;
                            }
                            cols[base + oi * ow + oj] = xs[in_base + iw as usize];
                        }
                    }
                }
            }
        }
        let y = naive_mm(weight, &cols, out_c, kk, oh * ow);
        let dst = &mut out[i * out_c * oh * ow..(i + 1) * out_c * oh * ow];
        for oc in 0..out_c {
            for v in 0..oh * ow {
                dst[oc * oh * ow + v] = y[oc * oh * ow + v] + bias[oc];
            }
        }
    }
    out
}

fn budget() -> Duration {
    std::env::var("EINET_BENCH_BUDGET_MS")
        .ok()
        .and_then(|v| v.parse::<u64>().ok())
        .map_or(Duration::from_millis(300), Duration::from_millis)
}

/// Median wall time per call, auto-scaling the repeat count to the budget.
fn time_median(mut f: impl FnMut()) -> f64 {
    let start = Instant::now();
    f();
    let estimate = start.elapsed().max(Duration::from_nanos(100));
    let samples = 9_usize;
    let per_sample = budget().as_nanos() / samples as u128;
    let iters = (per_sample / estimate.as_nanos()).clamp(1, 1_000_000) as u32;
    let mut times: Vec<f64> = (0..samples)
        .map(|_| {
            let t = Instant::now();
            for _ in 0..iters {
                f();
            }
            t.elapsed().as_secs_f64() * 1e3 / f64::from(iters)
        })
        .collect();
    times.sort_by(f64::total_cmp);
    times[samples / 2]
}

fn random_data(len: usize, seed: u64) -> Vec<f32> {
    let mut rng = SmallRng::seed_from_u64(seed);
    (0..len).map(|_| rng.gen_range(-1.0_f32..1.0)).collect()
}

struct Case {
    name: String,
    shape: String,
    naive_ms: f64,
    optimized_ms: f64,
    /// Conv rows only: the same forward through im2col + the blocked GEMM
    /// (the train-mode path), beside the eval-mode kernel in
    /// `optimized_ms`.
    im2col_ms: Option<f64>,
}

impl Case {
    fn speedup(&self) -> f64 {
        self.naive_ms / self.optimized_ms
    }
}

fn json_escape(s: &str) -> String {
    s.replace('\\', "\\\\").replace('"', "\\\"")
}

fn main() {
    if let Ok(t) = std::env::var("EINET_THREADS") {
        set_num_threads(t.parse().unwrap_or(0));
    }
    let mut cases: Vec<Case> = Vec::new();

    // GEMM shapes: (out_c × kk × oh*ow) products of MSDNet/VGG-style blocks
    // at the paper's 16×16 and 32×32 inputs, plus one large square.
    for (name, m, k, n) in [
        ("gemm_block_shallow", 64, 27, 1024),
        ("gemm_block_mid", 96, 576, 256),
        ("gemm_block_deep", 128, 1152, 64),
        ("gemm_square", 256, 256, 256),
    ] {
        let a = random_data(m * k, 1);
        let b = random_data(k * n, 2);
        eprintln!("timing {name} ({m}x{k}x{n}) ...");
        let naive_ms = time_median(|| {
            std::hint::black_box(naive_mm(&a, &b, m, k, n));
        });
        let optimized_ms = time_median(|| {
            std::hint::black_box(mm(&a, &b, m, k, n));
        });
        cases.push(Case {
            name: name.to_string(),
            shape: format!("{m}x{k}x{n}"),
            naive_ms,
            optimized_ms,
            im2col_ms: None,
        });
    }

    // Conv forward: batches at Fig. 4 block scale (output maps above the
    // direct kernel's crossover, so both paths are im2col + blocked GEMM),
    // then batch-1 serving shapes of msdnet21 and flex-vgg16, which take
    // the direct kernel in eval mode.
    for (name, batch, in_c, out_c, hw, k, stride, pad) in [
        (
            "conv_forward_16x16",
            8_usize,
            32_usize,
            64_usize,
            16_usize,
            3,
            1,
            1,
        ),
        ("conv_forward_32x32", 4, 16, 32, 32, 3, 1, 1),
        ("conv_msdnet21_dense_8x8", 1, 46, 3, 8, 3, 1, 1),
        ("conv_msdnet21_branch_4x4", 1, 68, 8, 4, 3, 2, 1),
        ("conv_msdnet21_transition_8x8", 1, 64, 32, 8, 1, 1, 0),
        ("conv_flexvgg16_8x8", 1, 16, 16, 8, 3, 1, 1),
    ] {
        let mut rng = SmallRng::seed_from_u64(9);
        let mut conv = Conv2d::new(in_c, out_c, k, stride, pad, &mut rng);
        let x = Tensor::new(
            &[batch, in_c, hw, hw],
            random_data(batch * in_c * hw * hw, 10),
        )
        .unwrap();
        let (mut weight, mut bias) = (Vec::new(), Vec::new());
        conv.visit_params(&mut |p| {
            if weight.is_empty() {
                weight = p.value.as_slice().to_vec();
            } else {
                bias = p.value.as_slice().to_vec();
            }
        });
        eprintln!("timing {name} (n={batch} {in_c}->{out_c} @{hw}x{hw} k{k} s{stride}) ...");
        let naive_ms = time_median(|| {
            std::hint::black_box(naive_conv_forward(
                x.as_slice(),
                &weight,
                &bias,
                batch,
                in_c,
                hw,
                hw,
                out_c,
                k,
                stride,
                pad,
            ));
        });
        let optimized_ms = time_median(|| {
            std::hint::black_box(conv.forward(&x, Mode::Eval));
        });
        let im2col_ms = time_median(|| {
            std::hint::black_box(conv.forward(&x, Mode::Train));
        });
        let suffix = if stride == 1 {
            String::new()
        } else {
            format!("_s{stride}")
        };
        cases.push(Case {
            name: name.to_string(),
            shape: format!("n{batch}_c{in_c}to{out_c}_{hw}x{hw}_k{k}{suffix}"),
            naive_ms,
            optimized_ms,
            im2col_ms: Some(im2col_ms),
        });
    }

    // Request decoding: one 3×16×16 `input.data` line rendered the way the
    // serving benchmark renders it (f32 `to_string`), through the one-pass
    // request parser and through a plain JSON tree parse.
    let pixels: Vec<String> = random_data(3 * 16 * 16, 11)
        .iter()
        .map(f32::to_string)
        .collect();
    let line = format!(
        "{{\"id\":1,\"model\":\"b-alexnet\",\"label\":3,\"input\":{{\"shape\":[1,3,16,16],\"data\":[{}]}}}}",
        pixels.join(",")
    );
    eprintln!("timing request decoding ({} B line) ...", line.len());
    let decode = [
        (
            "wire_parse_3x16x16",
            time_median(|| {
                std::hint::black_box(wire::parse_request(std::hint::black_box(&line)).is_ok());
            }) * 1e3,
        ),
        (
            "json_tree_3x16x16",
            time_median(|| {
                std::hint::black_box(json::parse(std::hint::black_box(&line)).is_ok());
            }) * 1e3,
        ),
    ];

    let mut json = String::from("{\n");
    json.push_str("  \"benchmark\": \"kernels\",\n");
    json.push_str(&format!("  \"threads\": {},\n", num_threads()));
    json.push_str(&format!(
        "  \"budget_ms\": {},\n  \"cases\": [\n",
        budget().as_millis()
    ));
    for c in &cases {
        let im2col = c
            .im2col_ms
            .map_or(String::new(), |t| format!(", \"im2col_ms\": {t:.6}"));
        json.push_str(&format!(
            "    {{\"name\": \"{}\", \"shape\": \"{}\", \"naive_ms\": {:.6}, \"optimized_ms\": {:.6}{}, \"speedup\": {:.3}}},\n",
            json_escape(&c.name),
            json_escape(&c.shape),
            c.naive_ms,
            c.optimized_ms,
            im2col,
            c.speedup(),
        ));
    }
    for (i, (name, us)) in decode.iter().enumerate() {
        json.push_str(&format!(
            "    {{\"name\": \"{name}\", \"shape\": \"line_{}B\", \"us_per_call\": {us:.3}}}{}\n",
            line.len(),
            if i + 1 == decode.len() { "" } else { "," }
        ));
    }
    json.push_str("  ]\n}\n");

    std::fs::create_dir_all("results").expect("create results dir");
    std::fs::write("results/bench_kernels.json", &json).expect("write results/bench_kernels.json");

    println!(
        "{:<30} {:>12} {:>14} {:>9} {:>11}",
        "case", "naive ms", "optimized ms", "speedup", "im2col ms"
    );
    for c in &cases {
        let im2col = c.im2col_ms.map_or(String::new(), |t| format!("{t:.4}"));
        println!(
            "{:<30} {:>12.4} {:>14.4} {:>8.2}x {:>11}",
            c.name,
            c.naive_ms,
            c.optimized_ms,
            c.speedup(),
            im2col
        );
    }
    for (name, us) in &decode {
        println!("{name:<30} {us:>12.3} us/call");
    }
    println!(
        "\nwrote results/bench_kernels.json ({} threads)",
        num_threads()
    );
}
