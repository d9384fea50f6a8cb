//! 2-D convolution: im2col + GEMM, and a direct kernel for small maps in
//! evaluation mode.

use rand::rngs::SmallRng;

use crate::init::kaiming_uniform;
use crate::layer::{Layer, Mode, Param};
use crate::matmul::{mm_a_bt, mm_at_b, mm_into};
use crate::parallel::{for_each_chunk, num_threads, PAR_MIN_WORK};
use crate::tensor::Tensor;

/// A 2-D convolution layer over `[n, c, h, w]` tensors.
///
/// Each sample of the forward pass is one job on the worker pool
/// (`parallel.rs`, threaded when the batch is large enough). A
/// `Mode::Train` forward, and any forward with an output map above
/// `DIRECT_MAX_POSITIONS`, lowers the sample to a column matrix (im2col)
/// and runs one blocked GEMM; the columns are kept for `backward`. A
/// `Mode::Eval` forward on a smaller map runs a direct kernel over the
/// padded sample instead, with no columns and no packing, and gives
/// bit-identical results (DESIGN.md §6). Per-sample scratch is retained
/// across calls, so repeated same-shape forwards — the elastic executor's
/// steady state — reuse their buffers.
///
/// # Example
///
/// ```
/// use einet_tensor::{Conv2d, Layer, Mode, Tensor};
/// use rand::SeedableRng;
///
/// let mut rng = rand::rngs::SmallRng::seed_from_u64(0);
/// let mut conv = Conv2d::new(3, 8, 3, 1, 1, &mut rng);
/// let x = Tensor::zeros(&[2, 3, 8, 8]);
/// let y = conv.forward(&x, Mode::Eval);
/// assert_eq!(y.shape(), &[2, 8, 8, 8]);
/// ```
#[derive(Debug, Clone)]
pub struct Conv2d {
    weight: Param, // [out_c, in_c*kh*kw]
    bias: Param,   // [out_c]
    in_c: usize,
    out_c: usize,
    k: usize,
    stride: usize,
    pad: usize,
    /// Per-sample scratch: im2col columns, or the direct kernel's padded
    /// phase planes. Kept across calls so same-shape forwards allocate
    /// nothing.
    scratch: Vec<Vec<f32>>,
    /// Input shape of the last `Mode::Train` forward, whose columns
    /// `backward` reads; `None` when no backward may follow.
    cached_in_shape: Option<[usize; 4]>,
    /// Tap offsets of the direct kernel and the `(h, w)` they were built
    /// for.
    taps: Vec<usize>,
    taps_hw: Option<(usize, usize)>,
}

impl Conv2d {
    /// Creates a convolution with a square `k`×`k` kernel.
    ///
    /// # Panics
    ///
    /// Panics if any of `in_c`, `out_c`, `k`, `stride` is zero.
    pub fn new(
        in_c: usize,
        out_c: usize,
        k: usize,
        stride: usize,
        pad: usize,
        rng: &mut SmallRng,
    ) -> Self {
        assert!(
            in_c > 0 && out_c > 0 && k > 0 && stride > 0,
            "conv2d: zero dim"
        );
        let fan_in = in_c * k * k;
        Conv2d {
            weight: Param::new(kaiming_uniform(&[out_c, fan_in], fan_in, rng)),
            bias: Param::new(Tensor::zeros(&[out_c])),
            in_c,
            out_c,
            k,
            stride,
            pad,
            scratch: Vec::new(),
            cached_in_shape: None,
            taps: Vec::new(),
            taps_hw: None,
        }
    }

    /// Output spatial size for an input spatial size.
    fn out_dim(&self, d: usize) -> usize {
        (d + 2 * self.pad - self.k) / self.stride + 1
    }

    /// Number of input channels.
    pub fn in_channels(&self) -> usize {
        self.in_c
    }

    /// Number of output channels.
    pub fn out_channels(&self) -> usize {
        self.out_c
    }
}

/// Lowers one `[c, h, w]` sample into an `[c*k*k, oh*ow]` column matrix.
#[cfg(test)]
pub(crate) fn im2col(
    x: &[f32],
    c: usize,
    h: usize,
    w: usize,
    k: usize,
    stride: usize,
    pad: usize,
) -> Vec<f32> {
    let mut cols = Vec::new();
    im2col_into(x, c, h, w, k, stride, pad, &mut cols);
    cols
}

/// [`im2col`] into a caller-owned buffer, reusing its capacity.
#[allow(clippy::too_many_arguments)]
pub(crate) fn im2col_into(
    x: &[f32],
    c: usize,
    h: usize,
    w: usize,
    k: usize,
    stride: usize,
    pad: usize,
    cols: &mut Vec<f32>,
) {
    let oh = (h + 2 * pad - k) / stride + 1;
    let ow = (w + 2 * pad - k) / stride + 1;
    cols.clear();
    cols.resize(c * k * k * oh * ow, 0.0);
    for ci in 0..c {
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
                    let dst_base = base + oi * ow;
                    if stride == 1 {
                        // `iw = oj + kj - pad` walks the input row with unit
                        // stride, so the valid span is one contiguous copy.
                        let lo = pad.saturating_sub(kj);
                        let hi = (w + pad).saturating_sub(kj).min(ow);
                        if lo < hi {
                            let src = in_base + lo + kj - pad;
                            cols[dst_base + lo..dst_base + hi]
                                .copy_from_slice(&x[src..src + hi - lo]);
                        }
                    } else {
                        for oj in 0..ow {
                            let iw = (oj * stride + kj) as isize - pad as isize;
                            if iw < 0 || iw >= w as isize {
                                continue;
                            }
                            cols[dst_base + oj] = x[in_base + iw as usize];
                        }
                    }
                }
            }
        }
    }
}

/// Reverses [`im2col`]: scatters column gradients back into an image gradient.
#[allow(clippy::too_many_arguments)]
pub(crate) fn col2im(
    cols: &[f32],
    c: usize,
    h: usize,
    w: usize,
    k: usize,
    stride: usize,
    pad: usize,
    out: &mut [f32],
) {
    let oh = (h + 2 * pad - k) / stride + 1;
    let ow = (w + 2 * pad - k) / stride + 1;
    for ci in 0..c {
        for ki in 0..k {
            for kj in 0..k {
                let row = (ci * k + ki) * k + kj;
                let base = row * oh * ow;
                for oi in 0..oh {
                    let ih = (oi * stride + ki) as isize - pad as isize;
                    if ih < 0 || ih >= h as isize {
                        continue;
                    }
                    let out_base = (ci * h + ih as usize) * w;
                    for oj in 0..ow {
                        let iw = (oj * stride + kj) as isize - pad as isize;
                        if iw < 0 || iw >= w as isize {
                            continue;
                        }
                        out[out_base + iw as usize] += cols[base + oi * ow + oj];
                    }
                }
            }
        }
    }
}

/// Largest output map (`oh·ow` positions per channel) whose `Mode::Eval`
/// forward takes the direct kernel: 8×8, which covers every conv the zoo
/// runs on 16×16 inputs after its first stage. Larger maps keep im2col +
/// the blocked GEMM (measurements on both sides in DESIGN.md §6).
const DIRECT_MAX_POSITIONS: usize = 64;

/// Most output channels per register tile of the direct kernel.
const DIRECT_OC_TILE: usize = 4;

/// Position counts a direct-kernel tile may take, widest first.
const DIRECT_Q_TILES: [usize; 5] = [40, 32, 24, 16, 8];

/// Layout of one padded sample for the direct kernel.
///
/// The zero-padded `[c, h+2p, w+2p]` sample is split into `stride²` phase
/// planes of `hs × ws`: plane `(ci, a, b)` holds padded pixels
/// `(r·stride + a, col·stride + b)`. Output position `(oi, oj)` is
/// flattened to `q = oi·ws + oj`, and tap `(ci, ki, kj)` of every position
/// reads `planes[taps[p] + q]` — one unit-stride run per tap for any
/// stride. Positions with `oj ≥ ow` are computed and dropped.
#[derive(Debug, Clone, Copy)]
struct DirectGeom {
    hs: usize,
    ws: usize,
    /// Flattened positions spanned: `(oh-1)·ws + ow`.
    span: usize,
    /// Phase-plane floats plus slack for the last tile's overhang.
    buf_len: usize,
}

impl DirectGeom {
    fn new(c: usize, h: usize, w: usize, k: usize, stride: usize, pad: usize) -> Self {
        let (hp, wp) = (h + 2 * pad, w + 2 * pad);
        let (hs, ws) = (hp.div_ceil(stride), wp.div_ceil(stride));
        let (oh, ow) = ((hp - k) / stride + 1, (wp - k) / stride + 1);
        let span = (oh - 1) * ws + ow;
        let buf_len = c * stride * stride * hs * ws + span.next_multiple_of(DIRECT_Q_TILES[0]);
        DirectGeom {
            hs,
            ws,
            span,
            buf_len,
        }
    }

    /// Positions per tile: the widest of [`DIRECT_Q_TILES`] that computes
    /// no more positions than a narrower one would.
    fn q_tile(&self) -> usize {
        DIRECT_Q_TILES
            .into_iter()
            .min_by_key(|&q| self.span.div_ceil(q) * q)
            .expect("non-empty tile list")
    }
}

/// Fills `taps` with the phase-plane offset of every im2col row
/// `p = (ci·k + ki)·k + kj`, in that order.
fn direct_taps(c: usize, k: usize, stride: usize, g: &DirectGeom, taps: &mut Vec<usize>) {
    let plane = g.hs * g.ws;
    taps.clear();
    for ci in 0..c {
        for ki in 0..k {
            for kj in 0..k {
                let phase = (ci * stride + ki % stride) * stride + kj % stride;
                taps.push(phase * plane + (ki / stride) * g.ws + kj / stride);
            }
        }
    }
}

/// Writes one `[c, h, w]` sample into `buf` as zero-padded phase planes
/// (see [`DirectGeom`]).
#[allow(clippy::too_many_arguments)]
fn pad_phases(
    x: &[f32],
    c: usize,
    h: usize,
    w: usize,
    stride: usize,
    pad: usize,
    g: &DirectGeom,
    buf: &mut Vec<f32>,
) {
    let plane = g.hs * g.ws;
    buf.clear();
    buf.resize(g.buf_len, 0.0);
    for (ci, channel) in x.chunks_exact(h * w).take(c).enumerate() {
        // Row phase `a` and phase-plane row `rr` of padded row `ih + pad`.
        let (mut a, mut rr) = (pad % stride, pad / stride);
        for row in channel.chunks_exact(w) {
            let start = (ci * stride + a) * stride * plane + rr * g.ws;
            if stride == 1 {
                buf[start + pad..start + pad + w].copy_from_slice(row);
            } else {
                // Column phase `b` and phase-plane column `cc` of padded
                // column `iw + pad`.
                let (mut b, mut cc) = (pad % stride, pad / stride);
                for &v in row {
                    buf[start + b * plane + cc] = v;
                    b += 1;
                    if b == stride {
                        b = 0;
                        cc += 1;
                    }
                }
            }
            a += 1;
            if a == stride {
                a = 0;
                rr += 1;
            }
        }
    }
}

/// Direct convolution of one padded sample into `dst` (`[out_c, oh, ow]`).
///
/// Each output element is the same accumulation chain as im2col + GEMM:
/// `0.0`, then `+= w·x` over taps in ascending `p`, padded taps multiplied
/// as `0.0`, then `+ bias`.
#[allow(clippy::too_many_arguments)]
fn direct_conv(
    buf: &[f32],
    taps: &[usize],
    g: &DirectGeom,
    wt: &[f32],
    bias: &[f32],
    oh: usize,
    ow: usize,
    dst: &mut [f32],
) {
    let kk = taps.len();
    let plane = oh * ow;
    let mut oc0 = 0;
    while oc0 < bias.len() {
        let r = (bias.len() - oc0).min(DIRECT_OC_TILE);
        let (wt, bias) = (&wt[oc0 * kk..(oc0 + r) * kk], &bias[oc0..oc0 + r]);
        let dst = &mut dst[oc0 * plane..(oc0 + r) * plane];
        macro_rules! tiles {
            ($r:literal) => {
                match g.q_tile() {
                    40 => direct_tiles::<$r, 40>(buf, taps, g, wt, bias, oh, ow, dst),
                    32 => direct_tiles::<$r, 32>(buf, taps, g, wt, bias, oh, ow, dst),
                    24 => direct_tiles::<$r, 24>(buf, taps, g, wt, bias, oh, ow, dst),
                    16 => direct_tiles::<$r, 16>(buf, taps, g, wt, bias, oh, ow, dst),
                    _ => direct_tiles::<$r, 8>(buf, taps, g, wt, bias, oh, ow, dst),
                }
            };
        }
        match r {
            4 => tiles!(4),
            3 => tiles!(3),
            2 => tiles!(2),
            _ => tiles!(1),
        }
        oc0 += r;
    }
}

/// All position tiles of one block of `R` output channels.
#[allow(clippy::too_many_arguments)]
fn direct_tiles<const R: usize, const Q: usize>(
    buf: &[f32],
    taps: &[usize],
    g: &DirectGeom,
    wt: &[f32],
    bias: &[f32],
    oh: usize,
    ow: usize,
    dst: &mut [f32],
) {
    let kk = taps.len();
    let rows: [&[f32]; R] = std::array::from_fn(|r| &wt[r * kk..(r + 1) * kk]);
    for q0 in (0..g.span).step_by(Q) {
        let acc = direct_tile::<R, Q>(buf, taps, &rows, q0);
        let q_end = (q0 + Q).min(g.span);
        for oi in q0 / g.ws..=(q_end - 1) / g.ws {
            // Columns of output row `oi` that fall inside this tile.
            let row_q = oi * g.ws;
            let lo = q0.saturating_sub(row_q);
            let hi = (q_end - row_q).min(ow).max(lo);
            for ((out, acc_row), &b) in dst.chunks_exact_mut(oh * ow).zip(&acc).zip(bias) {
                let src = &acc_row[row_q + lo - q0..];
                for (o, &v) in out[oi * ow + lo..oi * ow + hi].iter_mut().zip(src) {
                    *o = v + b;
                }
            }
        }
    }
}

/// One `R×Q` register tile: the block's output channels (`rows`) ×
/// flattened positions `q0..q0+Q`. The inner loops over compile-time
/// `R`/`Q` unroll into `R·Q` independent multiply-then-add chains the
/// compiler vectorises along `Q`, broadcasting one weight per row. Kept out
/// of line so the accumulators stay in registers for the whole tap loop.
#[inline(never)]
fn direct_tile<const R: usize, const Q: usize>(
    buf: &[f32],
    taps: &[usize],
    rows: &[&[f32]; R],
    q0: usize,
) -> [[f32; Q]; R] {
    let mut acc = [[0.0_f32; Q]; R];
    // Rows as long as `taps`, so `w_row[p]` needs no bounds check.
    let rows: [&[f32]; R] = rows.map(|r| &r[..taps.len()]);
    for (p, &off) in taps.iter().enumerate() {
        let xv: &[f32; Q] = buf[off + q0..off + q0 + Q]
            .try_into()
            .expect("tile slice has Q elements");
        for (row, w_row) in acc.iter_mut().zip(&rows) {
            let w = w_row[p];
            for (a, &xq) in row.iter_mut().zip(xv) {
                *a += w * xq;
            }
        }
    }
    acc
}

impl Layer for Conv2d {
    fn forward(&mut self, input: &Tensor, mode: Mode) -> Tensor {
        let shape = input.shape();
        assert_eq!(shape.len(), 4, "conv2d expects [n,c,h,w]");
        assert_eq!(shape[1], self.in_c, "conv2d channel mismatch");
        let (n, h, w) = (shape[0], shape[2], shape[3]);
        let (oh, ow) = (self.out_dim(h), self.out_dim(w));
        let per_in = self.in_c * h * w;
        let per_out = self.out_c * oh * ow;
        let kk = self.in_c * self.k * self.k;
        let mut out = vec![0.0_f32; n * per_out];
        let (in_c, kc, stride, pad, out_c) = (self.in_c, self.k, self.stride, self.pad, self.out_c);
        // Train keeps im2col: `backward` reads the columns.
        let direct = (mode == Mode::Eval && oh * ow <= DIRECT_MAX_POSITIONS)
            .then(|| DirectGeom::new(in_c, h, w, kc, stride, pad));
        if let Some(g) = &direct {
            if self.taps_hw != Some((h, w)) {
                direct_taps(in_c, kc, stride, g, &mut self.taps);
                self.taps_hw = Some((h, w));
            }
        }
        self.cached_in_shape = (mode == Mode::Train).then_some([n, in_c, h, w]);
        // Keep n slots, reusing previous allocations as scratch.
        self.scratch.resize_with(n, Vec::new);
        let x = input.as_slice();
        let wt = self.weight.value.as_slice();
        let b = self.bias.value.as_slice();
        let taps = &self.taps;
        let macs = n * out_c * kk * oh * ow;
        let threads = if macs >= PAR_MIN_WORK {
            num_threads()
        } else {
            1
        };
        let mut jobs: Vec<(usize, &mut [f32], &mut Vec<f32>)> = out
            .chunks_mut(per_out)
            .zip(self.scratch.iter_mut())
            .enumerate()
            .map(|(i, (dst, buf))| (i, dst, buf))
            .collect();
        for_each_chunk(&mut jobs, 1, threads, |_, job| {
            let (i, dst, buf) = &mut job[0];
            let xi = &x[*i * per_in..(*i + 1) * per_in];
            if let Some(g) = &direct {
                pad_phases(xi, in_c, h, w, stride, pad, g, buf);
                direct_conv(buf, taps, g, wt, b, oh, ow, dst);
                return;
            }
            im2col_into(xi, in_c, h, w, kc, stride, pad, buf);
            mm_into(wt, buf, dst, out_c, kk, oh * ow);
            for (oc, row) in dst.chunks_mut(oh * ow).enumerate() {
                let bias = b[oc];
                for v in row {
                    *v += bias;
                }
            }
        });
        Tensor::new(&[n, self.out_c, oh, ow], out).expect("conv output shape consistent")
    }

    fn backward(&mut self, grad_output: &Tensor) -> Tensor {
        let in_shape = self
            .cached_in_shape
            .take()
            .expect("conv2d backward without forward in train mode");
        let (n, h, w) = (in_shape[0], in_shape[2], in_shape[3]);
        let (oh, ow) = (self.out_dim(h), self.out_dim(w));
        let kk = self.in_c * self.k * self.k;
        let g = grad_output.as_slice();
        assert_eq!(g.len(), n * self.out_c * oh * ow, "conv2d grad shape");
        let per_in = self.in_c * h * w;
        let mut grad_in = vec![0.0_f32; n * per_in];
        let wt = self.weight.value.as_slice().to_vec();
        for i in 0..n {
            let gi = &g[i * self.out_c * oh * ow..(i + 1) * self.out_c * oh * ow];
            let cols = &self.scratch[i];
            // dW += dY * cols^T  (out_c x kk)
            let dw = mm_a_bt(gi, cols, self.out_c, oh * ow, kk);
            self.weight.grad.add_scaled(&Tensor::from_vec(dw), 1.0);
            // db += row sums of dY
            {
                let db = self.bias.grad.as_mut_slice();
                for oc in 0..self.out_c {
                    let mut s = 0.0;
                    for v in 0..oh * ow {
                        s += gi[oc * oh * ow + v];
                    }
                    db[oc] += s;
                }
            }
            // dCols = W^T * dY (kk x oh*ow), then col2im.
            let dcols = mm_at_b(&wt, gi, kk, self.out_c, oh * ow);
            col2im(
                &dcols,
                self.in_c,
                h,
                w,
                self.k,
                self.stride,
                self.pad,
                &mut grad_in[i * per_in..(i + 1) * per_in],
            );
        }
        Tensor::new(&in_shape, grad_in).expect("conv grad shape consistent")
    }

    fn visit_params(&mut self, visit: &mut dyn FnMut(&mut Param)) {
        visit(&mut self.weight);
        visit(&mut self.bias);
    }

    fn output_shape(&self, input: &[usize]) -> Vec<usize> {
        vec![
            input[0],
            self.out_c,
            self.out_dim(input[2]),
            self.out_dim(input[3]),
        ]
    }

    fn flops(&self, input: &[usize]) -> u64 {
        let oh = self.out_dim(input[2]) as u64;
        let ow = self.out_dim(input[3]) as u64;
        let kk = (self.in_c * self.k * self.k) as u64;
        input[0] as u64 * self.out_c as u64 * oh * ow * kk
    }

    fn kind(&self) -> &'static str {
        "conv2d"
    }

    fn clone_box(&self) -> Box<dyn Layer> {
        Box::new(self.clone())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::SeedableRng;

    fn rng() -> SmallRng {
        SmallRng::seed_from_u64(11)
    }

    #[test]
    fn forward_shape_with_padding() {
        let mut conv = Conv2d::new(2, 4, 3, 1, 1, &mut rng());
        let x = Tensor::zeros(&[3, 2, 5, 5]);
        assert_eq!(conv.forward(&x, Mode::Eval).shape(), &[3, 4, 5, 5]);
        assert_eq!(conv.output_shape(&[3, 2, 5, 5]), vec![3, 4, 5, 5]);
    }

    #[test]
    fn forward_shape_strided() {
        let mut conv = Conv2d::new(1, 2, 3, 2, 1, &mut rng());
        let x = Tensor::zeros(&[1, 1, 8, 8]);
        assert_eq!(conv.forward(&x, Mode::Eval).shape(), &[1, 2, 4, 4]);
    }

    #[test]
    fn identity_kernel_reproduces_input() {
        // 1x1 kernel with weight 1 and bias 0 is the identity.
        let mut conv = Conv2d::new(1, 1, 1, 1, 0, &mut rng());
        conv.visit_params(&mut |p| {
            if p.value.len() == 1 {
                p.value.as_mut_slice()[0] = 1.0;
            }
        });
        // bias is also len-1; set weight=1, bias=0 explicitly.
        let mut first = true;
        conv.visit_params(&mut |p| {
            p.value.as_mut_slice()[0] = if first { 1.0 } else { 0.0 };
            first = false;
        });
        let x = Tensor::new(&[1, 1, 2, 2], vec![1.0, -2.0, 3.0, 4.0]).unwrap();
        let y = conv.forward(&x, Mode::Eval);
        assert_eq!(y.as_slice(), x.as_slice());
    }

    #[test]
    fn im2col_col2im_roundtrip_counts_overlaps() {
        // With k=1, stride=1, pad=0 the mapping is a bijection.
        let x = vec![1.0, 2.0, 3.0, 4.0];
        let cols = im2col(&x, 1, 2, 2, 1, 1, 0);
        assert_eq!(cols, x);
        let mut back = vec![0.0; 4];
        col2im(&cols, 1, 2, 2, 1, 1, 0, &mut back);
        assert_eq!(back, x);
    }

    #[test]
    fn gradient_check_finite_difference() {
        let mut r = rng();
        let mut conv = Conv2d::new(2, 3, 3, 1, 1, &mut r);
        let x = kaiming_uniform(&[1, 2, 4, 4], 4, &mut r)
            .reshaped(&[1, 2, 4, 4])
            .unwrap();
        // Loss = sum(forward(x)). Analytic input gradient:
        let y = conv.forward(&x, Mode::Train);
        let ones = Tensor::filled(y.shape(), 1.0);
        let gx = conv.backward(&ones);
        // Numeric check on a handful of coordinates.
        let eps = 1e-3_f32;
        for &idx in &[0usize, 5, 13, 31] {
            let mut xp = x.clone();
            xp.as_mut_slice()[idx] += eps;
            let mut xm = x.clone();
            xm.as_mut_slice()[idx] -= eps;
            let sp: f32 = conv.forward(&xp, Mode::Train).as_slice().iter().sum();
            conv.cached_in_shape = None;
            let sm: f32 = conv.forward(&xm, Mode::Train).as_slice().iter().sum();
            conv.cached_in_shape = None;
            let num = (sp - sm) / (2.0 * eps);
            let ana = gx.as_slice()[idx];
            assert!(
                (num - ana).abs() < 1e-2,
                "grad mismatch at {idx}: numeric {num} vs analytic {ana}"
            );
        }
    }

    #[test]
    fn weight_gradient_check() {
        let mut r = rng();
        let mut conv = Conv2d::new(1, 2, 3, 1, 0, &mut r);
        let x = kaiming_uniform(&[1, 1, 5, 5], 25, &mut r)
            .reshaped(&[1, 1, 5, 5])
            .unwrap();
        let y = conv.forward(&x, Mode::Train);
        let ones = Tensor::filled(y.shape(), 1.0);
        conv.backward(&ones);
        let mut grads = Vec::new();
        conv.visit_params(&mut |p| grads.push((p.value.clone(), p.grad.clone())));
        let (wv, wg) = grads[0].clone();
        let eps = 1e-3_f32;
        for &idx in &[0usize, 4, 9] {
            let mut wp = wv.clone();
            wp.as_mut_slice()[idx] += eps;
            let mut wm = wv.clone();
            wm.as_mut_slice()[idx] -= eps;
            let set = |val: &Tensor, conv: &mut Conv2d| {
                let mut first = true;
                let val = val.clone();
                conv.visit_params(&mut |p| {
                    if first {
                        p.value = val.clone();
                        first = false;
                    }
                });
            };
            set(&wp, &mut conv);
            let sp: f32 = conv.forward(&x, Mode::Train).as_slice().iter().sum();
            set(&wm, &mut conv);
            let sm: f32 = conv.forward(&x, Mode::Train).as_slice().iter().sum();
            set(&wv, &mut conv);
            conv.cached_in_shape = None;
            let num = (sp - sm) / (2.0 * eps);
            assert!(
                (num - wg.as_slice()[idx]).abs() < 1e-2,
                "weight grad mismatch at {idx}"
            );
        }
    }

    #[test]
    fn flops_scale_with_batch() {
        let conv = Conv2d::new(2, 4, 3, 1, 1, &mut rng());
        assert_eq!(conv.flops(&[2, 2, 8, 8]), 2 * conv.flops(&[1, 2, 8, 8]));
        assert!(conv.flops(&[1, 2, 8, 8]) > 0);
    }
}
