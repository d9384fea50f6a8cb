//! Statistics helpers: the percentile rule and the per-request tally that
//! turns answers into `slo_frac` and `accuracy`.

/// Percentiles a timing may be reported at, highest first.
pub const LADDER: [f64; 8] = [99.9, 99.5, 99.0, 98.0, 95.0, 90.0, 75.0, 50.0];

/// Samples that lie strictly beyond the nearest-rank `pct` percentile of
/// `n` samples.
pub fn samples_beyond(n: usize, pct: f64) -> usize {
    n.saturating_sub(rank(n, pct))
}

/// Nearest-rank position (1-based) of the `pct` percentile of `n` samples.
/// The slack keeps decimal percentiles exact: 99.9% of 10 000 is rank
/// 9990, though `99.9 / 100 * 10000` rounds to just above it.
fn rank(n: usize, pct: f64) -> usize {
    ((pct / 100.0 * n as f64 - 1e-6).ceil() as usize).clamp(1, n.max(1))
}

/// The nearest-rank `pct` percentile of ascending `sorted` samples; 0 for
/// none.
pub fn percentile(sorted: &[f64], pct: f64) -> f64 {
    if sorted.is_empty() {
        return 0.0;
    }
    sorted[rank(sorted.len(), pct) - 1]
}

/// The highest percentile of [`LADDER`] with at least ten samples beyond
/// it, and its value: `None` when even the median lacks ten.
pub fn tail(sorted: &[f64]) -> Option<(f64, f64)> {
    LADDER
        .iter()
        .find(|&&p| samples_beyond(sorted.len(), p) >= 10)
        .map(|&p| (p, percentile(sorted, p)))
}

/// Arithmetic mean; 0 for no values.
pub fn mean(values: &[f64]) -> f64 {
    values.iter().sum::<f64>() / values.len().max(1) as f64
}

/// Median of unsorted values (mean of the middle two for even counts);
/// 0 for none.
pub fn median(values: &[f64]) -> f64 {
    if values.is_empty() {
        return 0.0;
    }
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let m = v.len() / 2;
    if v.len() % 2 == 1 {
        v[m]
    } else {
        (v[m - 1] + v[m]) / 2.0
    }
}

/// How one sent request ended, as the client saw it.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum Outcome {
    /// No reply arrived before the drain timeout (a failed operation).
    Missing,
    /// The reply was not a well-formed response to this request, or had a
    /// code the workload never provokes (a failed operation).
    Malformed,
    /// A 200 whose (`exit`, `prediction`) pair disagrees with the reference
    /// table (a failed operation).
    Mismatch,
    /// An honest refusal: 429 shed or a 503/504 without an answer. A miss,
    /// not a failure.
    Refused {
        /// A 504: the deadline stopped the task before any exit ran.
        stopped: bool,
    },
    /// A verified 200.
    Answered {
        /// `prediction` equals the request's label.
        correct: bool,
        /// The task was stopped by its deadline (`status` says so).
        stopped: bool,
        /// The `outputs` count: exits the request ran.
        exits: u64,
    },
}

impl Outcome {
    /// Counts against operations sent as a failure.
    pub fn failed(&self) -> bool {
        matches!(
            self,
            Outcome::Missing | Outcome::Malformed | Outcome::Mismatch
        )
    }
}

/// One request's outcome and client-observed latency.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Record {
    /// How it ended.
    pub outcome: Outcome,
    /// Scheduled (open loop) or actual (closed loop) send time to reply
    /// arrival, in ms; `None` when no reply arrived.
    pub latency_ms: Option<f64>,
    /// The request's `deadline_ms`, if it carried one.
    pub deadline_ms: Option<f64>,
    /// When the latency clock started, seconds into the phase: orders
    /// records for [`windows`].
    pub start_s: f64,
}

/// Requests per window: the fewest whose p99 has ten samples beyond it.
pub const WINDOW: usize = 1000;

/// Tallies consecutive windows of `size` records (in the given order; the
/// remainder joins the last window, and fewer than `size` records make one
/// window). Reporting the median of per-window figures keeps one burst of
/// host noise from deciding a whole run.
pub fn windows(records: &[Record], size: usize, limit_ms: Option<f64>) -> Vec<Tally> {
    let n = (records.len() / size.max(1)).max(1);
    (0..n)
        .map(|i| {
            let hi = if i + 1 == n {
                records.len()
            } else {
                (i + 1) * size
            };
            Tally::new(&records[i * size..hi], limit_ms)
        })
        .collect()
}

/// Aggregates over every request sent in a phase.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct Tally {
    /// Requests sent: the denominator of every share.
    pub sent: usize,
    /// Failed operations (missing, malformed, mismatched).
    pub failed: usize,
    /// Verified 200 answers.
    pub answered: usize,
    /// Verified 200 answers within the latency limit.
    pub in_slo: usize,
    /// Verified 200 answers whose prediction equals the label.
    pub correct: usize,
    /// Verified answers stopped by their deadline mid-inference.
    pub stopped: usize,
    /// Sum of `outputs` over verified answers.
    pub exits: u64,
    /// Ascending latencies of every reply received (ms).
    pub latencies: Vec<f64>,
    /// Ascending `latency − deadline_ms` of replies stopped by their
    /// deadline, with or without an answer (ms).
    pub overshoots: Vec<f64>,
}

impl Tally {
    /// Tallies `records`; a verified answer counts towards `in_slo` when
    /// its latency is within `limit_ms` (always, when there is no limit).
    pub fn new(records: &[Record], limit_ms: Option<f64>) -> Tally {
        let mut t = Tally {
            sent: records.len(),
            ..Tally::default()
        };
        for r in records {
            if let Some(l) = r.latency_ms {
                t.latencies.push(l);
            }
            if r.outcome.failed() {
                t.failed += 1;
            }
            let latency = r.latency_ms.unwrap_or(f64::INFINITY);
            let stopped = match r.outcome {
                Outcome::Answered {
                    correct,
                    stopped,
                    exits,
                } => {
                    t.answered += 1;
                    t.exits += exits;
                    t.correct += usize::from(correct);
                    t.stopped += usize::from(stopped);
                    if limit_ms.is_none_or(|l| latency <= l) {
                        t.in_slo += 1;
                    }
                    stopped
                }
                Outcome::Refused { stopped } => stopped,
                _ => false,
            };
            if let (true, Some(d)) = (stopped, r.deadline_ms) {
                t.overshoots.push(latency - d);
            }
        }
        t.latencies.sort_by(f64::total_cmp);
        t.overshoots.sort_by(f64::total_cmp);
        t
    }

    /// Share of requests sent that were answered correctly and in time.
    pub fn slo_frac(&self) -> f64 {
        self.in_slo as f64 / self.sent.max(1) as f64
    }

    /// Share of requests sent whose answer equals the label; an unanswered
    /// request counts as wrong.
    pub fn accuracy(&self) -> f64 {
        self.correct as f64 / self.sent.max(1) as f64
    }
}
