//! The line-oriented JSON wire format.
//!
//! One request per line in, one response per line out. The format is
//! hand-parsed with the workspace's own JSON module (no external
//! dependencies), mirroring the trace exporter.
//!
//! # Request
//!
//! ```json
//! {"id": 7, "model": "alexnet", "deadline_ms": 50, "label": 3,
//!  "input": {"shape": [1, 1, 16, 16], "fill": 0.5}}
//! ```
//!
//! * `model` (string, required) — registered model name.
//! * `input.shape` (required) — `[1, c, h, w]`, one sample per request.
//! * `input.fill` *or* `input.data` (required, exclusive) — a constant
//!   fill value, or the full row-major element list (`c*h*w` values).
//! * `id` (optional, default 0) — echoed back so clients can pipeline and
//!   multiplex; round-trips verbatim within the JSON safe-integer range
//!   (≤ 2^53 — numbers are f64-backed, as in every JS-compatible parser).
//! * `deadline_ms` (optional) — admission-to-answer deadline.
//! * `label` (optional) — true class, enabling server-side accuracy
//!   accounting.
//! * `trace` (optional) — distributed-tracing context, an object
//!   `{"id": <trace id>, "parent": <span id>}` minted by the client (see
//!   [`einet_trace::TraceContext`]). The id keys the server-side
//!   `task_flow` events so the client and server streams join under one
//!   global id; a malformed context degrades to "absent" rather than a
//!   400 (tracing must never break serving). When absent the server mints
//!   its own id, so server-side flows exist either way.
//!
//! # Response
//!
//! Always `{"id", "code", "status", ...}`, plus `"trace": <id>` when the
//! request was traced (client-sent or server-minted — how a legacy client
//! learns the id its request got). `code` follows HTTP idiom:
//!
//! | code | status                    | meaning                                        |
//! |------|---------------------------|------------------------------------------------|
//! | 200  | `completed`               | full plan ran; `prediction`/`exit`/`confidence`|
//! | 200  | `preempted`, `deadline_expired` | stopped early **with** a checkpointed answer |
//! | 400  | `bad_request`             | unparseable line or invalid input spec         |
//! | 404  | `unknown_model`           | model not registered                           |
//! | 429  | `shed`                    | backpressure; `reason` is `queue_full` or `expired_in_queue` |
//! | 500  | `worker_crashed`          | the worker panicked on this task               |
//! | 503  | `closed` / `preempted`    | shutting down, or preempted before any exit    |
//! | 504  | `deadline_expired`        | deadline hit before any exit produced output   |
//!
//! A 200 with status `preempted` or `deadline_expired` is the elastic
//! contract of the paper: the task was stopped mid-flight but still hands
//! back its latest checkpointed answer.

use std::time::Duration;

use einet_edge::{InferenceRequest, TaskOutcome, TaskStatus};
use einet_tensor::Tensor;
use einet_trace::json::{self, JsonParseError, JsonReader, JsonValue, JsonWriter};
use einet_trace::TraceContext;

use crate::registry::RouteError;

/// A parsed request line: where it goes and what to run.
#[derive(Debug, Clone)]
pub struct WireRequest {
    /// Client-chosen correlation id, echoed in the response (0 if absent).
    pub id: u64,
    /// Target model name.
    pub model: String,
    /// Client-sent distributed-tracing context (`None` when absent or
    /// malformed — tracing never rejects a request).
    pub trace: Option<TraceContext>,
    /// The executor-level request (input, label, deadline).
    pub request: InferenceRequest,
}

/// Parses one request line.
///
/// One pass over the text, no [`JsonValue`] tree: each member is decoded
/// in place as it comes (`input.data` straight into the tensor's buffer)
/// and unknown members are skipped without being built. The line must
/// still be a complete JSON document, and it is checked as one before any
/// field is, so the first problem reported is the one a tree parse would
/// find. Repeated keys keep their last occurrence.
///
/// # Errors
///
/// A human-readable message describing the first problem found; the
/// server maps it to a 400 response.
pub fn parse_request(line: &str) -> Result<WireRequest, String> {
    let mut fields = Fields::default();
    let mut r = JsonReader::new(line);
    let read = if r.peek() == Some(b'{') {
        r.object(|r, key| fields.member(r, &key))
    } else {
        // Valid JSON that is not an object has no fields.
        r.skip_value()
    };
    read.and_then(|()| r.end())
        .map_err(|e| format!("invalid JSON: {e}"))?;
    fields.into_request()
}

/// A request line's members as read, before validation.
#[derive(Default)]
struct Fields {
    id: u64,
    trace: Option<TraceContext>,
    /// `None` when absent or not a string.
    model: Option<String>,
    input: Option<InputFields>,
    label: Option<u64>,
    deadline_ms: Option<f64>,
}

/// The members of `input`; all absent when `input` is not an object.
#[derive(Default)]
struct InputFields {
    /// `None` when absent or not an array; an entry is `None` when it is
    /// not a non-negative integer.
    shape: Option<Vec<Option<u64>>>,
    /// Present, and a number or not.
    fill: Option<Option<f64>>,
    data: Option<Data>,
}

enum Data {
    NotArray,
    /// The elements as `f32`; a non-number element clears `all_numbers`
    /// and holds a placeholder, so the length is still the element count.
    Values {
        values: Vec<f32>,
        all_numbers: bool,
    },
}

impl Fields {
    fn member(&mut self, r: &mut JsonReader<'_>, key: &str) -> Result<(), JsonParseError> {
        match key {
            "id" => self.id = number(r)?.and_then(as_u64).unwrap_or(0),
            "trace" => self.trace = TraceContext::from_json(&r.value()?),
            "model" => {
                self.model = if r.peek() == Some(b'"') {
                    Some(r.string()?.into_owned())
                } else {
                    r.skip_value()?;
                    None
                };
            }
            "input" => {
                let mut input = InputFields::default();
                if r.peek() == Some(b'{') {
                    r.object(|r, key| input.member(r, &key))?;
                } else {
                    r.skip_value()?;
                }
                self.input = Some(input);
            }
            "label" => self.label = number(r)?.and_then(as_u64),
            "deadline_ms" => self.deadline_ms = number(r)?,
            _ => r.skip_value()?,
        }
        Ok(())
    }

    /// Validates the members in the order the wire contract lists them.
    fn into_request(self) -> Result<WireRequest, String> {
        let model = self.model.ok_or("missing \"model\" (string)")?;
        let input = self.input.ok_or("missing \"input\" (object)")?;
        let shape: Vec<usize> = input
            .shape
            .ok_or("missing \"input.shape\" (array)")?
            .into_iter()
            .map(|d| d.map(|d| d as usize))
            .collect::<Option<_>>()
            .ok_or("\"input.shape\" entries must be non-negative integers")?;
        if shape.len() != 4 || shape[0] != 1 || shape.contains(&0) {
            return Err(format!(
                "\"input.shape\" must be [1, c, h, w] with positive dims, got {shape:?}"
            ));
        }
        let elems: usize = shape.iter().product();
        let tensor = match (input.fill, input.data) {
            (Some(fill), None) => {
                let x = fill.ok_or("\"input.fill\" must be a number")? as f32;
                Tensor::filled(&shape, x)
            }
            (None, Some(Data::NotArray)) => {
                return Err("\"input.data\" must be an array of numbers".to_string())
            }
            (
                None,
                Some(Data::Values {
                    values,
                    all_numbers,
                }),
            ) => {
                if values.len() != elems {
                    return Err(format!(
                        "\"input.data\" has {} elements, shape {:?} needs {}",
                        values.len(),
                        shape,
                        elems
                    ));
                }
                if !all_numbers {
                    return Err("\"input.data\" entries must be numbers".to_string());
                }
                Tensor::new(&shape, values).map_err(|e| e.to_string())?
            }
            (Some(_), Some(_)) => {
                return Err("give \"input.fill\" or \"input.data\", not both".to_string())
            }
            (None, None) => return Err("missing \"input.fill\" or \"input.data\"".to_string()),
        };
        let mut request = InferenceRequest::new(tensor);
        if let Some(label) = self.label {
            request = request.with_label(label as usize);
        }
        if let Some(ms) = self.deadline_ms {
            if ms < 0.0 {
                return Err("\"deadline_ms\" must be non-negative".to_string());
            }
            request = request.with_deadline(Duration::from_micros((ms * 1000.0) as u64));
        }
        Ok(WireRequest {
            id: self.id,
            model,
            trace: self.trace,
            request,
        })
    }
}

impl InputFields {
    fn member(&mut self, r: &mut JsonReader<'_>, key: &str) -> Result<(), JsonParseError> {
        match key {
            "shape" => {
                self.shape = if r.peek() == Some(b'[') {
                    let mut dims = Vec::with_capacity(4);
                    r.number_array(|d| dims.push(d.and_then(as_u64)))?;
                    Some(dims)
                } else {
                    r.skip_value()?;
                    None
                };
            }
            "fill" => self.fill = Some(number(r)?),
            "data" => {
                self.data = Some(if r.peek() == Some(b'[') {
                    let mut values = Vec::with_capacity(self.data_capacity(r.remaining()));
                    let mut all_numbers = true;
                    r.number_array(|x| {
                        all_numbers &= x.is_some();
                        values.push(x.unwrap_or(0.0) as f32);
                    })?;
                    Data::Values {
                        values,
                        all_numbers,
                    }
                } else {
                    r.skip_value()?;
                    Data::NotArray
                });
            }
            _ => r.skip_value()?,
        }
        Ok(())
    }

    /// The element count a `shape` read earlier asks for, capped by what
    /// the rest of the line can hold (at least two bytes per element).
    fn data_capacity(&self, remaining: usize) -> usize {
        let elems = self.shape.as_ref().and_then(|dims| {
            dims.iter()
                .try_fold(1_usize, |n, &d| n.checked_mul(d? as usize))
        });
        elems.unwrap_or(0).min(remaining / 2 + 1)
    }
}

/// Reads the next value: `Some` if it is a number, `None` (and skipped)
/// otherwise.
fn number(r: &mut JsonReader<'_>) -> Result<Option<f64>, JsonParseError> {
    if matches!(r.peek(), Some(b'-' | b'0'..=b'9')) {
        r.number().map(Some)
    } else {
        r.skip_value().map(|()| None)
    }
}

/// [`JsonValue::as_u64`] of a decoded number.
fn as_u64(x: f64) -> Option<u64> {
    JsonValue::Number(x).as_u64()
}

/// Best-effort extraction of `id` and trace id from an unparseable
/// request line, so even a 400 stays correlated with the client's stream.
pub fn salvage_ids(line: &str) -> (u64, u64) {
    let Ok(v) = json::parse(line) else {
        return (0, 0);
    };
    let id = v.get("id").and_then(JsonValue::as_u64).unwrap_or(0);
    let trace = v
        .get("trace")
        .and_then(TraceContext::from_json)
        .map_or(0, |c| c.id);
    (id, trace)
}

fn response_head(id: u64, code: u64, status: &str, trace: u64) -> JsonWriter {
    let mut w = JsonWriter::new();
    w.begin_object();
    w.key("id");
    w.number_u64(id);
    w.key("code");
    w.number_u64(code);
    w.key("status");
    w.string(status);
    if trace != 0 {
        w.key("trace");
        w.number_u64(trace);
    }
    w
}

fn finish(mut w: JsonWriter) -> String {
    w.end_object();
    w.finish()
}

/// A 400 for an unparseable or invalid request line.
pub fn render_bad_request(id: u64, error: &str, trace: u64) -> String {
    let mut w = response_head(id, 400, "bad_request", trace);
    w.key("error");
    w.string(error);
    finish(w)
}

/// The response for a routing failure: 404 unknown model, 429 shed with
/// `reason: "queue_full"`, 503 shutting down.
pub fn render_route_error(id: u64, err: RouteError, trace: u64) -> String {
    match err {
        RouteError::UnknownModel => finish(response_head(id, 404, "unknown_model", trace)),
        RouteError::Shed => {
            let mut w = response_head(id, 429, "shed", trace);
            w.key("reason");
            w.string("queue_full");
            finish(w)
        }
        RouteError::Closed => finish(response_head(id, 503, "closed", trace)),
    }
}

/// A 500 for a worker that crashed on this task (or a reply channel that
/// vanished, which amounts to the same thing for the client).
pub fn render_worker_crashed(id: u64, trace: u64) -> String {
    let mut w = response_head(id, 500, "worker_crashed", trace);
    w.key("error");
    w.string("worker panicked while executing this task");
    finish(w)
}

/// The response for a delivered [`TaskOutcome`].
///
/// A queue shed renders as 429 with `reason: "expired_in_queue"` — the
/// same family as a queue-full shed, distinguishable by reason. An
/// outcome that carries an answer renders as 200 even when it was stopped
/// early (`status` says how it ended); only an answerless early stop
/// degrades to 503/504.
pub fn render_outcome(id: u64, outcome: &TaskOutcome, trace: u64) -> String {
    if outcome.was_shed() {
        let mut w = response_head(id, 429, "shed", trace);
        w.key("reason");
        w.string("expired_in_queue");
        return finish(w);
    }
    let status = match outcome.status {
        TaskStatus::Completed => "completed",
        TaskStatus::Preempted => "preempted",
        TaskStatus::DeadlineExpired => "deadline_expired",
        TaskStatus::ShedExpiredInQueue => unreachable!("handled above"),
    };
    match outcome.answer() {
        Some(answer) => {
            let mut w = response_head(id, 200, status, trace);
            w.key("prediction");
            w.number_u64(answer.predicted as u64);
            w.key("exit");
            w.number_u64(answer.exit as u64);
            w.key("confidence");
            w.number_f64(f64::from(answer.confidence));
            w.key("outputs");
            w.number_u64(outcome.outputs.len() as u64);
            w.key("blocks_run");
            w.number_u64(outcome.blocks_run as u64);
            if let Some(correct) = outcome.correct {
                w.key("correct");
                w.boolean(correct);
            }
            finish(w)
        }
        None => {
            // Stopped before any exit branch ran: no answer to hand over.
            let code = match outcome.status {
                TaskStatus::DeadlineExpired => 504,
                _ => 503,
            };
            let mut w = response_head(id, code, status, trace);
            w.key("blocks_run");
            w.number_u64(outcome.blocks_run as u64);
            finish(w)
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parses_a_minimal_request() {
        let req =
            parse_request(r#"{"model": "m", "input": {"shape": [1, 1, 4, 4], "fill": 0.25}}"#)
                .unwrap();
        assert_eq!(req.id, 0);
        assert_eq!(req.model, "m");
        assert_eq!(req.request.deadline(), None);
        assert!(req.trace.is_none());
    }

    #[test]
    fn parses_trace_context_and_degrades_malformed_ones() {
        let req = parse_request(
            r#"{"model": "m", "trace": {"id": 77, "parent": 3},
                "input": {"shape": [1, 1, 4, 4], "fill": 0.0}}"#,
        )
        .unwrap();
        let ctx = req.trace.expect("trace parsed");
        assert_eq!((ctx.id, ctx.parent), (77, 3));
        // A malformed context is dropped, never a 400: tracing is advisory.
        for bad in [
            r#""not an object""#,
            r#"{"id": 0}"#,
            r#"{"id": -4}"#,
            r#"{"parent": 9}"#,
        ] {
            let line = format!(
                r#"{{"model": "m", "trace": {bad}, "input": {{"shape": [1,1,4,4], "fill": 0.0}}}}"#
            );
            let req = parse_request(&line).expect("request still accepted");
            assert!(req.trace.is_none(), "{bad} should degrade to absent");
        }
    }

    #[test]
    fn salvage_recovers_ids_from_invalid_requests() {
        let (id, trace) = salvage_ids(r#"{"id": 5, "trace": {"id": 9}}"#);
        assert_eq!((id, trace), (5, 9));
        assert_eq!(salvage_ids("not json"), (0, 0));
    }

    #[test]
    fn responses_echo_the_trace_id_only_when_present() {
        let line = render_bad_request(1, "nope", 42);
        let v = json::parse(&line).unwrap();
        assert_eq!(v.get("trace").unwrap().as_u64(), Some(42));
        let untraced = render_bad_request(1, "nope", 0);
        assert!(json::parse(&untraced).unwrap().get("trace").is_none());
    }

    #[test]
    fn parses_ids_deadlines_and_explicit_data() {
        let req = parse_request(
            r#"{"id": 9, "model": "m", "deadline_ms": 12.5, "label": 2,
                "input": {"shape": [1, 1, 1, 3], "data": [1.0, 2.0, 3.0]}}"#,
        )
        .unwrap();
        assert_eq!(req.id, 9);
        assert_eq!(req.request.deadline(), Some(Duration::from_micros(12_500)));
    }

    #[test]
    fn rejects_malformed_requests_with_reasons() {
        for (line, needle) in [
            ("not json", "invalid JSON"),
            (r#"{"input": {"shape": [1,1,2,2], "fill": 0}}"#, "model"),
            (r#"{"model": "m"}"#, "input"),
            (
                r#"{"model": "m", "input": {"shape": [2,1,2,2], "fill": 0}}"#,
                "[1, c, h, w]",
            ),
            (
                r#"{"model": "m", "input": {"shape": [1,1,2,2], "data": [1.0]}}"#,
                "needs 4",
            ),
            (
                r#"{"model": "m", "input": {"shape": [1,1,2,2], "fill": 0, "data": [1,2,3,4]}}"#,
                "not both",
            ),
            (r#"{"model": "m", "input": {"shape": [1,1,2,2]}}"#, "fill"),
        ] {
            let err = parse_request(line).unwrap_err();
            assert!(
                err.contains(needle),
                "{line}: {err} should mention {needle}"
            );
        }
    }

    #[test]
    fn responses_carry_code_status_and_reason() {
        let shed = render_route_error(3, RouteError::Shed, 0);
        let v = json::parse(&shed).unwrap();
        assert_eq!(v.get("id").unwrap().as_u64(), Some(3));
        assert_eq!(v.get("code").unwrap().as_u64(), Some(429));
        assert_eq!(v.get("reason").unwrap().as_str(), Some("queue_full"));
        let unknown = render_route_error(1, RouteError::UnknownModel, 0);
        assert!(unknown.contains("404"));
        let crashed = render_worker_crashed(2, 0);
        assert!(crashed.contains("500"));
    }

    #[test]
    fn shed_outcome_renders_as_429_not_an_error() {
        let outcome = TaskOutcome {
            outputs: Vec::new(),
            status: TaskStatus::ShedExpiredInQueue,
            blocks_run: 0,
            correct: None,
        };
        let v = json::parse(&render_outcome(5, &outcome, 0)).unwrap();
        assert_eq!(v.get("code").unwrap().as_u64(), Some(429));
        assert_eq!(v.get("reason").unwrap().as_str(), Some("expired_in_queue"));
    }
}
