//! Per-layer replays of the traced run, timed from outside around calls
//! into each crate's public functions.

use std::time::Instant;

use einet_core::{ExitPlan, SearchEngine};
use einet_edge::{PoolConfig, TaskOutcome, TaskStatus};
use einet_models::{ExitOutput, MultiExitNet};
use einet_profile::EtProfile;
use einet_server::wire;
use einet_tensor::{mm, Layer, Mode, Tensor};

use crate::deploy::Tenant;
use crate::phase::ParsedReply;
use crate::spans::SpanLog;
use crate::stats::{mean, median};
use crate::timing::SavedContext;

/// Shape of the timed GEMM: a 3×3 convolution from 32 to 32 channels over
/// a 16×16 map, lowered to `[m, k] × [k, n]`.
pub const GEMM_M: usize = 32;
/// GEMM inner dimension (32 input channels × 3 × 3).
pub const GEMM_K: usize = 288;
/// GEMM columns (16 × 16 output positions).
pub const GEMM_N: usize = 256;
/// Floating-point operations per GEMM call (`2·m·k·n` = 4 718 592).
pub const GEMM_FLOP: f64 = (2 * GEMM_M * GEMM_K * GEMM_N) as f64;

/// Forward passes timed per model and batch size.
const FORWARD_REPS: usize = 30;
/// GEMM calls timed.
const GEMM_REPS: usize = 200;

/// Times `f` once, recording a span named `name` under `parent`; returns
/// its result and the elapsed µs.
fn timed<T>(spans: &SpanLog, name: &'static str, parent: u64, f: impl FnOnce() -> T) -> (T, f64) {
    let start = Instant::now();
    let out = f();
    let end = Instant::now();
    spans.record(name, parent, 0, start, end);
    (out, (end - start).as_secs_f64() * 1e6)
}

/// Mean µs of `wire::parse_request` over the workload's own lines.
pub fn wire_parse_us(spans: &SpanLog, parent: u64, lines: &[String]) -> f64 {
    let times: Vec<f64> = lines
        .iter()
        .map(|l| {
            let (parsed, us) = timed(spans, "server.wire_parse", parent, || {
                wire::parse_request(std::hint::black_box(l))
            });
            std::hint::black_box(parsed.is_ok());
            us
        })
        .collect();
    mean(&times)
}

/// The executor outcome a reply was rendered from, rebuilt from its
/// fields (earlier exits' outputs are placeholders: the renderer reads
/// only their count and the last one).
fn outcome_of(r: &ParsedReply) -> Option<TaskOutcome> {
    let status = match r.status.as_str() {
        "completed" => TaskStatus::Completed,
        "preempted" => TaskStatus::Preempted,
        "deadline_expired" => TaskStatus::DeadlineExpired,
        _ if r.code == 429 => TaskStatus::ShedExpiredInQueue,
        _ => return None,
    };
    let outputs = match r.answer {
        Some((predicted, exit, confidence, count)) => {
            let mut v = vec![
                ExitOutput {
                    exit: 0,
                    predicted: 0,
                    confidence: 0.0,
                };
                count.saturating_sub(1)
            ];
            v.push(ExitOutput {
                exit,
                predicted,
                confidence,
            });
            v
        }
        None => Vec::new(),
    };
    Some(TaskOutcome {
        outputs,
        status,
        blocks_run: r.blocks_run,
        correct: r.correct,
    })
}

/// Mean µs of `wire::render_outcome` over the workload's own outcomes.
pub fn wire_render_us(spans: &SpanLog, parent: u64, replies: &[ParsedReply]) -> f64 {
    let times: Vec<f64> = replies
        .iter()
        .filter_map(|r| outcome_of(r).map(|o| (r.id, o)))
        .map(|(id, o)| {
            let (line, us) = timed(spans, "server.wire_render", parent, || {
                wire::render_outcome(id, std::hint::black_box(&o), 0)
            });
            std::hint::black_box(line);
            us
        })
        .collect();
    mean(&times)
}

/// Mean µs per `SearchEngine::search` and per `CsPredictor::predict_masked`
/// over recorded planner contexts, replayed exactly as the planner made
/// them (the prior stands in for predictions before the first output).
pub fn planner_replay(
    spans: &SpanLog,
    parent: u64,
    tenant: &Tenant,
    contexts: &[SavedContext],
) -> (Vec<f64>, Vec<f64>) {
    let defaults = PoolConfig::default();
    let et = EtProfile::from_cost_model(&tenant.net, defaults.platform);
    let engine = SearchEngine::default();
    let mut search = Vec::with_capacity(contexts.len());
    let mut predict = Vec::new();
    for c in contexts {
        let confidences = if c.executed.iter().all(Option::is_none) {
            tenant.prior.clone()
        } else {
            let (conf, us) = timed(spans, "predictor.predict_masked", parent, || {
                tenant
                    .predictor
                    .predict_masked(std::hint::black_box(&c.executed))
            });
            predict.push(us);
            conf
        };
        let (plan, us) = timed(spans, "core.search", parent, || {
            engine.search(
                &et,
                &defaults.dist,
                std::hint::black_box(&confidences),
                c.next_exit,
                Some(&c.history),
            )
        });
        std::hint::black_box::<(ExitPlan, f64)>(plan);
        search.push(us);
    }
    (search, predict)
}

/// Forward timings of one model: full-plan pass at batch 1 and 4, and the
/// slowest single block (conv part plus branch) at batch 1, all medians.
#[derive(Debug, Clone, Copy)]
pub struct Forward {
    /// Full-plan pass, batch 1 (µs).
    pub b1_us: f64,
    /// Full-plan pass, batch 4 (µs).
    pub b4_us: f64,
    /// Slowest block at batch 1 (µs).
    pub max_block_us: f64,
}

/// Runs every block's conv part and branch over `x`, returning per-block
/// µs.
fn full_plan(spans: &SpanLog, parent: u64, net: &mut MultiExitNet, x: &Tensor) -> Vec<f64> {
    let mut x = x.clone();
    net.blocks_mut()
        .iter_mut()
        .map(|block| {
            let ((), us) = timed(spans, "models.block", parent, || {
                x = block.conv_part.forward(&x, Mode::Eval);
                std::hint::black_box(block.branch.forward(&x, Mode::Eval));
            });
            us
        })
        .collect()
}

/// Times full-plan forwards of `net` on test `inputs`.
pub fn forward(spans: &SpanLog, parent: u64, net: &mut MultiExitNet, inputs: &[Tensor]) -> Forward {
    let mut b1 = Vec::with_capacity(FORWARD_REPS);
    let mut b4 = Vec::with_capacity(FORWARD_REPS);
    let mut per_block: Vec<Vec<f64>> = vec![Vec::new(); net.num_exits()];
    for rep in 0..FORWARD_REPS {
        let x = &inputs[rep % inputs.len()];
        let blocks = full_plan(spans, parent, net, x);
        b1.push(blocks.iter().sum());
        for (acc, us) in per_block.iter_mut().zip(blocks) {
            acc.push(us);
        }
        let four: Vec<&Tensor> = (0..4).map(|j| &inputs[(rep + j) % inputs.len()]).collect();
        let stacked = Tensor::stack_batch(&four);
        b4.push(full_plan(spans, parent, net, &stacked).iter().sum());
    }
    Forward {
        b1_us: median(&b1),
        b4_us: median(&b4),
        max_block_us: per_block.iter().map(|v| median(v)).fold(0.0, f64::max),
    }
}

/// Median GFLOP/s of the block-shaped GEMM ([`GEMM_FLOP`] per call).
pub fn gemm_gflops(spans: &SpanLog, parent: u64) -> f64 {
    let a: Vec<f32> = (0..GEMM_M * GEMM_K)
        .map(|i| (i % 13) as f32 * 0.01)
        .collect();
    let b: Vec<f32> = (0..GEMM_K * GEMM_N)
        .map(|i| (i % 7) as f32 * 0.02)
        .collect();
    let rates: Vec<f64> = (0..GEMM_REPS)
        .map(|_| {
            let (c, us) = timed(spans, "tensor.gemm", parent, || {
                mm(
                    std::hint::black_box(&a),
                    std::hint::black_box(&b),
                    GEMM_M,
                    GEMM_K,
                    GEMM_N,
                )
            });
            std::hint::black_box(c);
            GEMM_FLOP / (us * 1e3)
        })
        .collect();
    median(&rates)
}
