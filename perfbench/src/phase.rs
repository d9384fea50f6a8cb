//! One measured phase: warm up, drive the workload's stream against a
//! deployment, then verify every reply and tally the results.

use std::collections::HashMap;
use std::time::{Duration, Instant};

use einet_edge::MetricsSnapshot;
use einet_server::RouteStats;
use einet_trace::json::{self, JsonValue};

use crate::config::{Load, Settings, Workload};
use crate::deploy::{Deployment, TestSet};
use crate::host;
use crate::load::{self, ConnLog};
use crate::spans::SpanLog;
use crate::stats::{windows, Outcome, Record, Tally, WINDOW};
use crate::stream::{self, Request};

/// A reply's fields, as parsed after the phase.
#[derive(Debug, Clone, PartialEq)]
pub struct ParsedReply {
    /// Echoed wire id.
    pub id: u64,
    /// HTTP-style code.
    pub code: u64,
    /// `status` text.
    pub status: String,
    /// `prediction`, `exit`, `confidence`, `outputs` of a 200.
    pub answer: Option<(usize, usize, f32, usize)>,
    /// `blocks_run`.
    pub blocks_run: usize,
    /// `correct`, when the server knew the label.
    pub correct: Option<bool>,
}

/// Parses a reply line; `None` when it is not a well-formed response.
pub fn parse_reply(line: &str) -> Option<ParsedReply> {
    let v = json::parse(line).ok()?;
    let num = |k: &str| v.get(k).and_then(JsonValue::as_u64);
    let code = num("code")?;
    let answer = if code == 200 {
        Some((
            num("prediction")? as usize,
            num("exit")? as usize,
            v.get("confidence").and_then(JsonValue::as_f64)? as f32,
            num("outputs")? as usize,
        ))
    } else {
        None
    };
    Some(ParsedReply {
        id: num("id")?,
        code,
        status: v.get("status").and_then(JsonValue::as_str)?.to_string(),
        answer,
        blocks_run: num("blocks_run").unwrap_or(0) as usize,
        correct: v.get("correct").and_then(|c| match c {
            JsonValue::Bool(b) => Some(*b),
            _ => None,
        }),
    })
}

/// Classifies a reply to a request for test image `image` with true class
/// `label`, against the tenant's reference table `refs`.
pub fn classify(reply: &ParsedReply, label: usize, refs: &[Vec<usize>], image: usize) -> Outcome {
    let stopped = reply.status == "deadline_expired";
    match (reply.code, reply.answer) {
        (200, Some((prediction, exit, _, exits))) => {
            match refs.get(image).and_then(|r| r.get(exit)) {
                Some(&expected) if expected == prediction => Outcome::Answered {
                    correct: prediction == label,
                    stopped,
                    exits: exits as u64,
                },
                _ => Outcome::Mismatch,
            }
        }
        (429 | 503, _) => Outcome::Refused { stopped: false },
        (504, _) => Outcome::Refused { stopped },
        _ => Outcome::Malformed,
    }
}

/// Everything one phase measured.
#[derive(Debug)]
pub struct Phase {
    /// Per-request results; `failed` also counts stray replies.
    pub tally: Tally,
    /// The same requests in consecutive windows of [`WINDOW`], in send
    /// order.
    pub windows: Vec<Tally>,
    /// Length of the phase: first send to last reply (s).
    pub seconds: f64,
    /// Process CPU time spent during the phase (ms).
    pub cpu_ms: f64,
    /// Open-loop send lateness per request (µs); empty for closed loops.
    pub late_us: Vec<f64>,
    /// Registry metrics accumulated during the phase (all tenants).
    pub pool: MetricsSnapshot,
    /// Routing counters accumulated during the phase (all tenants).
    pub route: RouteStats,
    /// A sample of the phase's own request lines.
    pub lines: Vec<String>,
    /// Every well-formed reply.
    pub replies: Vec<ParsedReply>,
}

impl Phase {
    /// Verified answers per second.
    pub fn throughput_rps(&self) -> f64 {
        self.tally.answered as f64 / self.seconds.max(1e-9)
    }

    /// CPU ms per request sent.
    pub fn cpu_ms_per_req(&self) -> f64 {
        self.cpu_ms / self.tally.sent.max(1) as f64
    }
}

/// Lines kept for the wire-parse replay.
const KEPT_LINES: usize = 2000;

fn render(w: &Workload, test: &TestSet, r: &Request) -> String {
    stream::render_line(
        r,
        &w.tenants[r.tenant],
        test.labels[r.image],
        test.shape,
        &test.pixels[r.image],
    )
}

fn route_total(dep: &Deployment, w: &Workload) -> RouteStats {
    let mut total = RouteStats::default();
    for t in &w.tenants {
        if let Some(s) = dep.registry.route_stats(t) {
            total.routed += s.routed;
            total.shed_queue_full += s.shed_queue_full;
        }
    }
    total
}

/// The counters and sums of `after` minus those of `before` — the fields
/// the per-layer metrics read.
fn delta(after: &MetricsSnapshot, before: &MetricsSnapshot) -> MetricsSnapshot {
    let mut d = after.clone();
    d.submitted -= before.submitted;
    d.completed -= before.completed;
    d.preempted -= before.preempted;
    d.deadline_expired -= before.deadline_expired;
    d.deadline_met -= before.deadline_met;
    d.shed_expired_at_dequeue -= before.shed_expired_at_dequeue;
    d.panicked -= before.panicked;
    d.queue_wait.count -= before.queue_wait.count;
    d.queue_wait.sum_us -= before.queue_wait.sum_us;
    d.service.count -= before.service.count;
    d.service.sum_us -= before.service.sum_us;
    d.batch.count -= before.batch.count;
    d.batch.sum -= before.batch.sum;
    d
}

/// Warms `dep` up, runs `w`'s stream for `seconds` and verifies every reply.
/// With `spans`, records one `client.request` span per request.
///
/// # Errors
///
/// Connection failures and warm-up replies other than 200.
pub fn measure(
    settings: &Settings,
    w: &Workload,
    test: &TestSet,
    dep: &Deployment,
    seed: u64,
    seconds: f64,
    spans: Option<&SpanLog>,
) -> Result<Phase, String> {
    let addr = dep.server.local_addr();
    let warm: Vec<String> = (0..settings.warmup_requests * w.tenants.len())
        .map(|i| {
            let r = Request {
                id: i as u64 + 1,
                tenant: i % w.tenants.len(),
                image: i % test.labels.len(),
                deadline_ms: None,
                at_us: 0,
            };
            render(w, test, &r)
        })
        .collect();
    for reply in load::sequential(addr, &warm).map_err(|e| format!("warm-up: {e}"))? {
        if parse_reply(&reply).map(|r| r.code) != Some(200) {
            return Err(format!("warm-up reply is not a 200: {reply}"));
        }
    }

    let images = test.labels.len();
    let drain = Duration::from_millis(settings.drain_timeout_ms);
    let render = |r: &Request| render(w, test, r);

    // An open loop's whole schedule exists before the clock starts.
    let schedule = match w.load {
        Load::Open { .. } => stream::open_loop(w, seconds, images, seed),
        Load::Closed { .. } => Vec::new(),
    };
    let pool_before = dep.registry.aggregate_snapshot();
    let route_before = route_total(dep, w);
    let cpu_before = host::cpu_ms();
    let t0 = Instant::now() + Duration::from_millis(5);
    let logs: Vec<ConnLog> = match w.load {
        Load::Open { .. } => {
            vec![load::open_loop(addr, &schedule, &render, t0, drain).map_err(|e| e.to_string())?]
        }
        Load::Closed {
            connections,
            window,
        } => {
            let until = t0 + Duration::from_secs_f64(seconds);
            let render = &render;
            std::thread::scope(|s| {
                let handles: Vec<_> = (0..connections)
                    .map(|c| {
                        let reqs = stream::closed_loop(w, c, images, seed);
                        s.spawn(move || load::closed_loop(addr, reqs, render, window, until, drain))
                    })
                    .collect();
                handles
                    .into_iter()
                    .map(|h| h.join().expect("generator thread panicked"))
                    .collect::<std::io::Result<Vec<_>>>()
            })
            .map_err(|e| e.to_string())?
        }
    };
    let cpu_ms = host::cpu_ms() - cpu_before;
    let pool = delta(&dep.registry.aggregate_snapshot(), &pool_before);
    let route_after = route_total(dep, w);
    let route = RouteStats {
        routed: route_after.routed - route_before.routed,
        shed_queue_full: route_after.shed_queue_full - route_before.shed_queue_full,
        ..RouteStats::default()
    };

    // Verify: every request sent gets exactly one record.
    let mut records = Vec::new();
    let mut late_us = Vec::new();
    let mut replies = Vec::new();
    let mut stray = 0;
    let mut first_send: Option<Instant> = None;
    let mut last_reply = t0;
    for log in &logs {
        let mut by_id: HashMap<u64, (Instant, ParsedReply)> = HashMap::new();
        let mut malformed = 0usize;
        for reply in &log.replies {
            last_reply = last_reply.max(reply.at);
            match parse_reply(&reply.line) {
                Some(p) if !by_id.contains_key(&p.id) => {
                    by_id.insert(p.id, (reply.at, p));
                }
                _ => malformed += 1,
            }
        }
        for (r, sent_at) in &log.sent {
            let sent_at = *sent_at;
            first_send = Some(first_send.map_or(sent_at, |f| f.min(sent_at)));
            let start = match w.load {
                Load::Open { .. } => {
                    let due = t0 + Duration::from_micros(r.at_us);
                    late_us.push(sent_at.saturating_duration_since(due).as_secs_f64() * 1e6);
                    due
                }
                Load::Closed { .. } => sent_at,
            };
            let (outcome, latency_ms) = match by_id.remove(&r.id) {
                None => (Outcome::Missing, None),
                Some((at, p)) => {
                    if let Some(spans) = spans {
                        spans.record("client.request", 0, r.id, start, at);
                    }
                    let outcome = classify(&p, test.labels[r.image], &dep.refs[r.tenant], r.image);
                    replies.push(p);
                    (outcome, Some((at - start).as_secs_f64() * 1e3))
                }
            };
            records.push(Record {
                outcome,
                latency_ms,
                deadline_ms: r.deadline_ms,
                start_s: start.saturating_duration_since(t0).as_secs_f64(),
            });
        }
        // Unparseable replies, duplicates, and replies to ids never sent.
        stray += malformed + by_id.len();
    }
    let seconds = last_reply
        .saturating_duration_since(first_send.unwrap_or(t0))
        .as_secs_f64();
    let lines = logs
        .iter()
        .flat_map(|l| &l.sent)
        .take(KEPT_LINES)
        .map(|(r, _)| render(r))
        .collect();
    records.sort_by(|a, b| a.start_s.total_cmp(&b.start_s));
    let mut tally = Tally::new(&records, w.latency_limit_ms);
    tally.failed += stray;
    Ok(Phase {
        windows: windows(&records, WINDOW, w.latency_limit_ms),
        tally,
        seconds,
        cpu_ms,
        late_us,
        pool,
        route,
        lines,
        replies,
    })
}
