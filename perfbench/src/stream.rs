//! The seeded request stream: arrival times, tenant choice, image choice
//! and deadlines are all fixed by the workload seed, and the server only
//! ever sees the rendered lines.
//!
//! The benchmark carries its own generator (SplitMix64) so that a change to
//! the workspace's `rand` stand-in can never change the inputs.

use crate::config::{Load, Workload};

/// SplitMix64: a small, fast, well-mixed 64-bit generator.
#[derive(Debug, Clone)]
pub struct SplitMix64(u64);

impl SplitMix64 {
    /// A generator for one purpose (`stream`) of one workload seed.
    pub fn new(seed: u64, stream: u64) -> Self {
        let mut g = SplitMix64(seed ^ stream.wrapping_mul(0xA076_1D64_78BD_642F));
        g.next_u64();
        g
    }

    /// The next 64 random bits.
    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// Uniform in `[0, 1)` with 53 random bits.
    pub fn next_f64(&mut self) -> f64 {
        (self.next_u64() >> 11) as f64 / (1u64 << 53) as f64
    }

    /// Uniform in `0..n` (`n > 0`).
    pub fn below(&mut self, n: usize) -> usize {
        ((self.next_u64() as u128 * n as u128) >> 64) as usize
    }

    /// Fisher-Yates shuffle.
    pub fn shuffle<T>(&mut self, items: &mut [T]) {
        for i in (1..items.len()).rev() {
            items.swap(i, self.below(i + 1));
        }
    }
}

const ARRIVALS: u64 = 1;
const TENANTS: u64 = 2;
const IMAGES: u64 = 3;
const DEADLINES: u64 = 4;

/// One request of the stream.
#[derive(Debug, Clone, PartialEq)]
pub struct Request {
    /// Wire `id`, unique within the run; also the id of the request's spans.
    pub id: u64,
    /// Index into the workload's tenants.
    pub tenant: usize,
    /// Index into the test set.
    pub image: usize,
    /// Kill time sent as `deadline_ms`, rounded to whole microseconds.
    pub deadline_ms: Option<f64>,
    /// Scheduled send time after the start of the measured phase (µs);
    /// 0 for closed-loop requests, which are sent when a slot frees.
    pub at_us: u64,
}

/// The open-loop stream of a `seconds`-long run: `rate × seconds`
/// arrivals of a Poisson process conditioned on that count (normalised
/// exponential gaps), tenants split exactly evenly in seeded order, images
/// drawn as consecutive seeded permutations of the test set, and deadlines
/// stratified over the workload's uniform range (one draw per equal-width
/// stratum, shuffled), so two seeds differ in order but not in mix.
///
/// # Panics
///
/// Panics on a closed-loop workload or an empty test set.
pub fn open_loop(w: &Workload, seconds: f64, images: usize, seed: u64) -> Vec<Request> {
    let Load::Open { rate_rps } = w.load else {
        panic!("open_loop needs an open-loop workload");
    };
    let n = ((rate_rps * seconds).round() as usize).max(1);
    let mut rng = SplitMix64::new(seed, ARRIVALS);
    let gaps: Vec<f64> = (0..=n).map(|_| -(1.0 - rng.next_f64()).ln()).collect();
    let total: f64 = gaps.iter().sum();
    let span_us = seconds * 1e6;
    let mut acc = 0.0;
    let at_us: Vec<u64> = gaps[..n]
        .iter()
        .map(|g| {
            acc += g;
            (acc / total * span_us) as u64
        })
        .collect();
    let tenants = balanced_tenants(w.tenants.len(), n, seed);
    let images = image_sequence(images, n, seed, IMAGES);
    let deadlines = stratified_deadlines(w.deadline_ms, n, seed);
    (0..n)
        .map(|i| Request {
            id: i as u64 + 1,
            tenant: tenants[i],
            image: images[i],
            deadline_ms: deadlines[i],
            at_us: at_us[i],
        })
        .collect()
}

/// The endless closed-loop stream of connection `conn`, generated one
/// block of `images` requests at a time (so memory does not grow with the
/// rate the server sustains): each block is one seeded permutation of the
/// test set, with tenants split evenly and deadlines stratified within the
/// block. Ids interleave across connections, so they stay unique.
///
/// # Panics
///
/// Panics on an open-loop workload or an empty test set.
pub fn closed_loop(
    w: &Workload,
    conn: usize,
    images: usize,
    seed: u64,
) -> impl Iterator<Item = Request> {
    let Load::Closed { connections, .. } = w.load else {
        panic!("closed_loop needs a closed-loop workload");
    };
    assert!(images > 0, "empty test set");
    let tenants = w.tenants.len();
    let range = w.deadline_ms;
    let conn_seed = seed ^ (conn as u64 + 1).wrapping_mul(0xD6E8_FEB8_6659_FD93);
    (0u64..).flat_map(move |block| {
        let block_seed = conn_seed ^ block.wrapping_mul(0x9FB2_1C65_1E98_DF25);
        let tenant = balanced_tenants(tenants, images, block_seed);
        let image = image_sequence(images, images, block_seed, IMAGES);
        let deadline = stratified_deadlines(range, images, block_seed);
        (0..images).map(move |i| {
            let k = block as usize * images + i;
            Request {
                id: (k * connections + conn) as u64 + 1,
                tenant: tenant[i],
                image: image[i],
                deadline_ms: deadline[i],
                at_us: 0,
            }
        })
    })
}

fn balanced_tenants(tenants: usize, n: usize, seed: u64) -> Vec<usize> {
    let mut v: Vec<usize> = (0..n).map(|i| i % tenants).collect();
    SplitMix64::new(seed, TENANTS).shuffle(&mut v);
    v
}

fn image_sequence(images: usize, n: usize, seed: u64, stream: u64) -> Vec<usize> {
    assert!(images > 0, "empty test set");
    let mut rng = SplitMix64::new(seed, stream);
    let mut out = Vec::with_capacity(n);
    while out.len() < n {
        let mut perm: Vec<usize> = (0..images).collect();
        rng.shuffle(&mut perm);
        out.extend(perm.into_iter().take(n - out.len()));
    }
    out
}

fn stratified_deadlines(range: Option<(f64, f64)>, n: usize, seed: u64) -> Vec<Option<f64>> {
    let Some((lo, hi)) = range else {
        return vec![None; n];
    };
    let mut rng = SplitMix64::new(seed, DEADLINES);
    let mut v: Vec<Option<f64>> = (0..n)
        .map(|k| {
            let ms = lo + (hi - lo) * (k as f64 + rng.next_f64()) / n as f64;
            Some((ms * 1000.0).round() / 1000.0)
        })
        .collect();
    rng.shuffle(&mut v);
    v
}

/// The pixel list of one image as it goes over the wire: shortest
/// round-trip decimal per value, comma separated.
pub fn render_pixels(pixels: &[f32]) -> String {
    let mut out = String::with_capacity(pixels.len() * 10);
    for (i, v) in pixels.iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        out.push_str(&v.to_string());
    }
    out
}

/// One request line (without the trailing newline). `pixels` is the
/// image's [`render_pixels`] text and `shape` its `[c, h, w]`.
pub fn render_line(
    req: &Request,
    model: &str,
    label: usize,
    shape: [usize; 3],
    pixels: &str,
) -> String {
    let deadline = match req.deadline_ms {
        Some(ms) => format!("\"deadline_ms\":{ms:.3},"),
        None => String::new(),
    };
    format!(
        "{{\"id\":{},\"model\":\"{model}\",\"label\":{label},{deadline}\"input\":{{\"shape\":[1,{},{},{}],\"data\":[{pixels}]}}}}",
        req.id, shape[0], shape[1], shape[2]
    )
}
