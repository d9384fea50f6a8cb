//! Property-based tests for the wire layer and the reactor's multiplexing
//! contract: the parser never panics on arbitrary input, and every request
//! id sent over a pipelined connection comes back exactly once — whatever
//! order the completions arrive in.

use std::collections::HashMap;
use std::io::{BufRead, BufReader, Write};
use std::net::TcpStream;
use std::sync::Arc;
use std::time::Duration;

use einet_core::ExitPlan;
use einet_edge::{InferenceRequest, PoolConfig, StaticSource};
use einet_models::{zoo, BranchSpec};
use einet_server::{wire, ModelRegistry, ModelSpec, ReactorConfig, ReactorServer};
use einet_tensor::Tensor;
use einet_trace::json::{self, JsonValue};
use einet_trace::TraceContext;
use proptest::prelude::*;

// --- parser robustness ----------------------------------------------------

/// Arbitrary bytes, lossily decoded: covers binary junk, truncated UTF-8
/// replacement characters, control bytes, the lot.
fn arb_junk_line() -> impl Strategy<Value = String> {
    proptest::collection::vec(0u8..=255u8, 0..192)
        .prop_map(|bytes| String::from_utf8_lossy(&bytes).into_owned())
}

/// A valid request line with a random prefix chopped off or random bytes
/// spliced in — the "almost JSON" neighbourhood where panics hide.
fn arb_mangled_request() -> impl Strategy<Value = String> {
    (
        0u64..=u64::MAX,
        0usize..96,
        proptest::collection::vec(0u8..=255u8, 0..8),
    )
        .prop_map(|(id, cut, splice)| {
            let base = format!(
                "{{\"id\": {id}, \"model\": \"m\", \"deadline_ms\": 5, \
                 \"input\": {{\"shape\": [1, 1, 4, 4], \"fill\": 0.5}}}}"
            );
            let cut = cut.min(base.len());
            let mut mangled = base[..base.len() - cut].to_string();
            mangled.push_str(&String::from_utf8_lossy(&splice));
            mangled
        })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(512))]

    /// Whatever bytes arrive on the wire, `parse_request` returns `Ok` or
    /// `Err` — it never panics. (The reactor calls this on the reactor
    /// thread; a panic there would take down every connection.)
    #[test]
    fn parser_never_panics_on_arbitrary_bytes(line in arb_junk_line()) {
        let _ = wire::parse_request(&line);
    }

    /// Same, one street over: near-valid request lines.
    #[test]
    fn parser_never_panics_on_mangled_requests(line in arb_mangled_request()) {
        let _ = wire::parse_request(&line);
    }

    /// Any id in the JSON-safe integer range (≤ 2^53, the wire contract —
    /// the hand-rolled JSON module backs numbers with f64) survives
    /// render → parse verbatim, for every response shape the server can
    /// emit without a task outcome in hand.
    #[test]
    fn ids_survive_error_renders(id in 0u64..=(1u64 << 53)) {
        for rendered in [
            wire::render_bad_request(id, "nope", 0),
            wire::render_worker_crashed(id, 0),
        ] {
            let v = json::parse(&rendered).expect("responses are valid JSON");
            prop_assert_eq!(v.get("id").and_then(|i| i.as_u64()), Some(id));
        }
    }

    /// Whatever JSON value sits in the `trace` field — wrong type, out of
    /// range, missing members, nested junk — the parser accepts the
    /// request and degrades the context to "absent" instead of panicking
    /// or rejecting (tracing is advisory, never load-bearing).
    #[test]
    fn mangled_trace_contexts_never_panic_or_reject(trace_field in arb_trace_field()) {
        let line = format!(
            "{{\"id\": 1, \"model\": \"m\", \"trace\": {trace_field}, \
             \"input\": {{\"shape\": [1, 1, 4, 4], \"fill\": 0.5}}}}"
        );
        if let Ok(req) = wire::parse_request(&line) {
            if let Some(ctx) = req.trace {
                prop_assert!(ctx.id >= 1 && ctx.id < einet_trace::MAX_TRACE_ID);
            }
        }
        // Salvage must be equally unshockable.
        let _ = wire::salvage_ids(&line);
    }

    /// A well-formed context round-trips through parse unchanged, and its
    /// id survives the response echo verbatim.
    #[test]
    fn valid_trace_contexts_round_trip(
        id in 1u64..(1u64 << 53),
        parent in 0u64..=(1u64 << 53),
    ) {
        let line = format!(
            "{{\"model\": \"m\", \"trace\": {{\"id\": {id}, \"parent\": {parent}}}, \
             \"input\": {{\"shape\": [1, 1, 4, 4], \"fill\": 0.5}}}}"
        );
        let req = wire::parse_request(&line).expect("valid request");
        let ctx = req.trace.expect("context parsed");
        prop_assert_eq!(ctx.id, id);
        prop_assert_eq!(ctx.parent, parent);
        let echoed = wire::render_worker_crashed(req.id, ctx.id);
        let v = json::parse(&echoed).expect("valid response");
        prop_assert_eq!(v.get("trace").and_then(|t| t.as_u64()), Some(id));
    }
}

/// JSON fragments to sit in a request's `trace` field: valid contexts,
/// boundary ids, wrong types, and structural junk.
fn arb_trace_field() -> impl Strategy<Value = String> {
    prop_oneof![
        (0u64..=u64::MAX, 0u64..=u64::MAX)
            .prop_map(|(id, parent)| format!("{{\"id\": {id}, \"parent\": {parent}}}")),
        Just("{}".to_string()),
        Just("{\"id\": 0}".to_string()),
        Just("{\"id\": -7}".to_string()),
        Just("{\"id\": 9007199254740992}".to_string()),
        Just("{\"id\": 3.5}".to_string()),
        Just("{\"parent\": 4}".to_string()),
        Just("null".to_string()),
        Just("42".to_string()),
        Just("\"id\"".to_string()),
        Just("[1, 2]".to_string()),
        Just("{\"id\": \"nine\", \"parent\": []}".to_string()),
    ]
}

// --- one-pass parser vs the tree-walking reference ------------------------

/// The request parser as it was before it decoded in one pass: build the
/// whole `JsonValue` tree, then look each field up. Kept here as the
/// reference the one-pass `wire::parse_request` must agree with.
fn reference_parse(line: &str) -> Result<wire::WireRequest, String> {
    let value = json::parse(line).map_err(|e| format!("invalid JSON: {e}"))?;
    let id = value.get("id").and_then(JsonValue::as_u64).unwrap_or(0);
    let trace = value.get("trace").and_then(TraceContext::from_json);
    let model = value
        .get("model")
        .and_then(JsonValue::as_str)
        .ok_or("missing \"model\" (string)")?
        .to_string();
    let input = value.get("input").ok_or("missing \"input\" (object)")?;
    let shape_val = input
        .get("shape")
        .and_then(JsonValue::as_array)
        .ok_or("missing \"input.shape\" (array)")?;
    let mut shape = Vec::with_capacity(shape_val.len());
    for d in shape_val {
        let d = d
            .as_u64()
            .ok_or("\"input.shape\" entries must be non-negative integers")?;
        shape.push(d as usize);
    }
    if shape.len() != 4 || shape[0] != 1 || shape.contains(&0) {
        return Err(format!(
            "\"input.shape\" must be [1, c, h, w] with positive dims, got {shape:?}"
        ));
    }
    let elems: usize = shape.iter().product();
    let tensor = match (input.get("fill"), input.get("data")) {
        (Some(fill), None) => {
            let x = fill.as_f64().ok_or("\"input.fill\" must be a number")? as f32;
            Tensor::filled(&shape, x)
        }
        (None, Some(data)) => {
            let items = data
                .as_array()
                .ok_or("\"input.data\" must be an array of numbers")?;
            if items.len() != elems {
                return Err(format!(
                    "\"input.data\" has {} elements, shape {:?} needs {}",
                    items.len(),
                    shape,
                    elems
                ));
            }
            let mut buf = Vec::with_capacity(elems);
            for v in items {
                buf.push(v.as_f64().ok_or("\"input.data\" entries must be numbers")? as f32);
            }
            Tensor::new(&shape, buf).map_err(|e| e.to_string())?
        }
        (Some(_), Some(_)) => {
            return Err("give \"input.fill\" or \"input.data\", not both".to_string())
        }
        (None, None) => return Err("missing \"input.fill\" or \"input.data\"".to_string()),
    };
    let mut request = InferenceRequest::new(tensor);
    if let Some(label) = value.get("label").and_then(JsonValue::as_u64) {
        request = request.with_label(label as usize);
    }
    if let Some(ms) = value.get("deadline_ms").and_then(JsonValue::as_f64) {
        if ms < 0.0 {
            return Err("\"deadline_ms\" must be non-negative".to_string());
        }
        request = request.with_deadline(Duration::from_micros((ms * 1000.0) as u64));
    }
    Ok(wire::WireRequest {
        id,
        model,
        trace,
        request,
    })
}

/// Runs both parsers on `line`: the same error message, or requests equal
/// field by field and tensor element by element (`to_bits`). Returns
/// whether the line was accepted.
fn assert_parsers_agree(line: &str) -> bool {
    match (wire::parse_request(line), reference_parse(line)) {
        (Ok(got), Ok(want)) => {
            assert_eq!(got.id, want.id, "id of {line:?}");
            assert_eq!(got.model, want.model, "model of {line:?}");
            assert_eq!(got.trace, want.trace, "trace of {line:?}");
            assert_eq!(
                got.request.label(),
                want.request.label(),
                "label of {line:?}"
            );
            assert_eq!(
                got.request.deadline(),
                want.request.deadline(),
                "deadline of {line:?}"
            );
            let (g, w) = (got.request.input(), want.request.input());
            assert_eq!(g.shape(), w.shape(), "shape of {line:?}");
            let bits = |t: &Tensor| t.as_slice().iter().map(|x| x.to_bits()).collect::<Vec<_>>();
            assert_eq!(bits(g), bits(w), "input of {line:?}");
            true
        }
        (Err(got), Err(want)) => {
            assert_eq!(got, want, "error for {line:?}");
            false
        }
        (got, want) => panic!(
            "{line:?}: one-pass gave {:?}, reference gave {:?}",
            got.map(|r| r.id),
            want.map(|r| r.id)
        ),
    }
}

/// splitmix64 behind a proptest seed: the request generator below makes
/// many dependent choices, which read more plainly as code than as a
/// strategy tree.
struct Gen(u64);

impl Gen {
    fn next(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    fn below(&mut self, n: u64) -> u64 {
        self.next() % n
    }

    /// True with probability `pct`%.
    fn chance(&mut self, pct: u64) -> bool {
        self.below(100) < pct
    }

    fn pick<'a>(&mut self, options: &[&'a str]) -> &'a str {
        options[self.below(options.len() as u64) as usize]
    }

    /// Whitespace between tokens: usually none or a space, sometimes a
    /// run of every JSON whitespace byte.
    fn ws(&mut self) -> &'static str {
        self.pick(&["", "", "", " ", " ", "\t", "\n", " \r\n\t "])
    }

    /// A number in one of the forms a client may send.
    fn number(&mut self) -> String {
        match self.below(9) {
            // The benchmark's rendering: f32 `to_string`.
            0..=2 => ((self.next() >> 40) as f32 / (1u64 << 24) as f32 * 4.0 - 2.0).to_string(),
            3 => self.below(1000).to_string(),
            4 => format!("{}e{}", self.below(100), self.below(5)),
            5 => format!(
                "{}.{}E{}{}",
                self.below(10),
                self.below(1000),
                self.pick(&["", "+", "-"]),
                self.below(30)
            ),
            6 => format!("{:e}", f64::from_bits(self.next()) % 1e6),
            7 => f32::from_bits(self.next() as u32).to_string(),
            _ => self
                .pick(&[
                    "-0", "-0.0", "0", "3.0", "3e0", "1e400", "-1e-400", "0.1", "-.5", "1.",
                ])
                .to_string(),
        }
    }

    /// An integer-valued field (`id`, `label`): mostly plain integers,
    /// sometimes integral floats, sometimes not a usable integer.
    fn integer(&mut self) -> String {
        let n = self.below(1 << 20);
        match self.below(10) {
            0..=4 => n.to_string(),
            5 => format!("{n}.0"),
            6 => format!("{n}e0"),
            7 => format!("{}e3", n % 100),
            _ => self.scalar(),
        }
    }

    fn scalar(&mut self) -> String {
        match self.below(6) {
            0 => self.number(),
            1 => "true".to_string(),
            2 => "false".to_string(),
            3 => "null".to_string(),
            4 => format!(
                "\"{}\"",
                self.pick(&["m", "x", "", "\\u006d", "é\\n", "\\\"q"])
            ),
            _ => format!("-{}", self.below(50)),
        }
    }

    /// Any value, nested up to `depth` containers deep.
    fn value(&mut self, depth: u32) -> String {
        if depth == 0 || self.chance(60) {
            return self.scalar();
        }
        let n = self.below(4);
        if self.chance(50) {
            let elems: Vec<String> = (0..n).map(|_| self.value(depth - 1)).collect();
            self.array(&elems)
        } else {
            let members: Vec<(String, String)> = (0..n)
                .map(|i| (format!("k{i}"), self.value(depth - 1)))
                .collect();
            self.object(members)
        }
    }

    fn array(&mut self, elems: &[String]) -> String {
        let mut out = String::from("[");
        for (i, e) in elems.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            out.push_str(self.ws());
            out.push_str(e);
            out.push_str(self.ws());
        }
        out.push(']');
        out
    }

    fn object(&mut self, members: Vec<(String, String)>) -> String {
        let mut out = String::from("{");
        for (i, (k, v)) in members.into_iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            let (a, b, c) = (self.ws(), self.ws(), self.ws());
            out.push_str(&format!("{a}\"{k}\"{b}:{c}{v}"));
        }
        out.push_str(self.ws());
        out.push('}');
        out
    }

    fn shuffle<T>(&mut self, items: &mut [T]) {
        for i in (1..items.len()).rev() {
            items.swap(i, self.below(i as u64 + 1) as usize);
        }
    }

    /// The `input` object: a shape (usually valid), `fill` and/or `data`
    /// (usually exactly one, `data` usually the right length and all
    /// numbers), unknown members, duplicates, any order.
    fn input(&mut self) -> String {
        let dims = [1, 1 + self.below(3), 1 + self.below(4), 1 + self.below(4)];
        let elems = (dims[1] * dims[2] * dims[3]) as usize;
        let mut members = Vec::new();
        let shape = match self.below(24) {
            0 => "[2, 1, 2, 2]".to_string(),
            1 => "[1, 0, 2, 2]".to_string(),
            2 => "[1, 2, 2]".to_string(),
            3 => format!("[1, {}.0, {}e0, {}]", dims[1], dims[2], dims[3]),
            4 => "[1, -1, 2, 2]".to_string(),
            5 => "[1, 1, \"2\", 2]".to_string(),
            6 => "\"1x1x2x2\"".to_string(),
            _ => {
                let d: Vec<String> = dims.iter().map(u64::to_string).collect();
                self.array(&d)
            }
        };
        if self.chance(90) {
            members.push(("shape".to_string(), shape));
        }
        let (fill, data) = match self.below(20) {
            0 => (true, true),
            1 => (false, false),
            2..=4 => (true, false),
            _ => (false, true),
        };
        if fill {
            let v = if self.chance(85) {
                self.number()
            } else {
                self.scalar()
            };
            members.push(("fill".to_string(), v));
        }
        if data {
            let len = match self.below(20) {
                0 => elems + 1,
                1 => elems.saturating_sub(1),
                _ => elems,
            };
            let mixed = self.chance(5);
            let mut values: Vec<String> = (0..len).map(|_| self.number()).collect();
            if mixed && len > 0 {
                let at = self.below(len as u64) as usize;
                values[at] = self
                    .pick(&["null", "\"0.5\"", "[1]", "true", "{}"])
                    .to_string();
            }
            let v = if self.chance(95) {
                self.array(&values)
            } else {
                self.scalar()
            };
            members.push(("data".to_string(), v));
        }
        if self.chance(30) {
            let v = self.value(2);
            members.push(("note".to_string(), v));
        }
        // A duplicate key earlier in the object: the last one must win.
        if self.chance(20) && !members.is_empty() {
            let k = members[self.below(members.len() as u64) as usize].0.clone();
            let v = self.value(1);
            members.insert(0, (k, v));
        }
        self.shuffle(&mut members[..]);
        self.object(members)
    }

    /// A request line: the wire fields in random order with random
    /// whitespace, plus unknown members and duplicate keys.
    fn request(&mut self) -> String {
        if self.chance(3) {
            return self.value(2); // valid JSON, not an object
        }
        let mut members = Vec::new();
        if self.chance(90) {
            members.push(("id".to_string(), self.integer()));
        }
        if self.chance(92) {
            let m = if self.chance(90) {
                "\"m\"".to_string()
            } else {
                self.scalar()
            };
            members.push(("model".to_string(), m));
        }
        if self.chance(60) {
            members.push(("label".to_string(), self.integer()));
        }
        if self.chance(50) {
            let v = if self.chance(85) {
                format!("{}.{}", self.below(50), self.below(1000))
            } else {
                self.scalar()
            };
            members.push(("deadline_ms".to_string(), v));
        }
        if self.chance(40) {
            let v = match self.below(4) {
                0 => format!(
                    "{{\"id\": {}, \"parent\": {}}}",
                    1 + self.below(1 << 40),
                    self.below(1 << 40)
                ),
                1 => format!(
                    "{{\"parent\": {}, \"id\": {}}}",
                    self.integer(),
                    self.integer()
                ),
                _ => self.value(2),
            };
            members.push(("trace".to_string(), v));
        }
        if self.chance(95) {
            members.push(("input".to_string(), self.input()));
        }
        for i in 0..self.below(3) {
            let v = self.value(3);
            members.push((format!("extra{i}"), v));
        }
        if self.chance(25) && !members.is_empty() {
            let k = members[self.below(members.len() as u64) as usize].0.clone();
            let v = if k == "input" {
                self.input()
            } else {
                self.value(1)
            };
            members.insert(0, (k, v));
        }
        self.shuffle(&mut members[..]);
        let body = self.object(members);
        format!("{}{body}{}", self.ws(), self.ws())
    }
}

/// A generated request line, sometimes truncated or with bytes spliced in.
fn arb_generated_line() -> impl Strategy<Value = String> {
    (0u64..=u64::MAX).prop_map(|seed| {
        let mut g = Gen(seed);
        let line = g.request();
        match g.below(10) {
            0 => {
                let cut = g.below(line.len() as u64 + 1) as usize;
                String::from_utf8_lossy(&line.as_bytes()[..cut]).into_owned()
            }
            1 => {
                let at = g.below(line.len() as u64 + 1) as usize;
                let mut bytes = line.into_bytes();
                bytes.insert(
                    at,
                    g.pick(&["\"", "{", "]", ",", "\\", "x", "\u{1}"])
                        .as_bytes()[0],
                );
                String::from_utf8_lossy(&bytes).into_owned()
            }
            _ => line,
        }
    })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(2048))]

    /// The one-pass parser accepts and rejects exactly what the tree
    /// reference does, with the same message, and decodes the same bits.
    #[test]
    fn one_pass_parser_matches_tree_reference(line in arb_generated_line()) {
        assert_parsers_agree(&line);
    }

    /// Same, on the junk and near-valid lines of the robustness properties.
    #[test]
    fn one_pass_parser_matches_reference_on_mangled_lines(
        mangled in arb_mangled_request(),
        junk in arb_junk_line(),
    ) {
        assert_parsers_agree(&mangled);
        assert_parsers_agree(&junk);
    }
}

/// The generator is not vacuous: it yields accepted requests (data and
/// fill, traced and not) and every kind of rejection in real numbers.
#[test]
fn generated_requests_cover_accepts_and_rejects() {
    let (mut accepted, mut with_data, mut traced) = (0, 0, 0);
    let mut reasons = std::collections::BTreeSet::new();
    for seed in 0..3000u64 {
        let line = Gen(seed).request();
        if assert_parsers_agree(&line) {
            accepted += 1;
            let req = wire::parse_request(&line).expect("accepted");
            with_data += usize::from(line.contains("\"data\""));
            traced += usize::from(req.trace.is_some());
        } else {
            let err = wire::parse_request(&line).expect_err("rejected");
            // The message up to its first detail (offset, count, shape).
            let mut kind = err.split([':', '[', '0', '1', '2', '3', '4', '5', '6', '7', '8', '9']);
            reasons.insert(kind.next().unwrap_or_default().to_string());
        }
    }
    assert!(
        accepted > 600,
        "only {accepted}/3000 generated lines accepted"
    );
    assert!(
        with_data > 200 && traced > 100,
        "data {with_data}, traced {traced}"
    );
    assert!(reasons.len() >= 12, "rejection kinds seen: {reasons:?}");
}

// --- multiplexed round-trip through the reactor ---------------------------

/// The served model: every request runs its full three-exit plan.
fn served_net() -> einet_models::MultiExitNet {
    zoo::b_alexnet([1, 16, 16], 10, &BranchSpec::paper_default(), 1)
}

fn start_reactor() -> (Arc<ModelRegistry>, ReactorServer) {
    start_reactor_with(ReactorConfig::default())
}

fn start_reactor_with(cfg: ReactorConfig) -> (Arc<ModelRegistry>, ReactorServer) {
    let mut registry = ModelRegistry::new();
    let net = served_net();
    registry.register(
        "m",
        net,
        |_replica, _worker| Box::new(StaticSource::new(ExitPlan::full(3))),
        ModelSpec {
            pool: PoolConfig {
                workers: 1,
                queue_capacity: 256,
                ..PoolConfig::default()
            },
            replicas: 1,
            ..ModelSpec::default()
        },
    );
    let registry = Arc::new(registry);
    let server =
        ReactorServer::start(Arc::clone(&registry), "127.0.0.1:0", cfg).expect("reactor binds");
    (registry, server)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(4))]

    /// Pipeline a batch of requests with arbitrary (possibly colliding)
    /// ids down ONE connection without reading a single response, then
    /// read them all back: every id comes back exactly as many times as it
    /// was sent, and each response is well-formed. Responses arrive in
    /// completion order, so this is exactly the out-of-order id
    /// round-trip the multiplexing contract promises.
    #[test]
    fn ids_round_trip_through_multiplexed_connection(
        ids in proptest::collection::vec(0u64..=(1u64 << 53), 1..48),
    ) {
        let (registry, server) = start_reactor();
        let mut conn = TcpStream::connect(server.local_addr()).expect("connect");
        let mut sent: HashMap<u64, i64> = HashMap::new();
        let mut lines = String::new();
        for &id in &ids {
            *sent.entry(id).or_insert(0) += 1;
            lines.push_str(&format!(
                "{{\"id\": {id}, \"model\": \"m\", \
                 \"input\": {{\"shape\": [1, 1, 16, 16], \"fill\": 0.5}}}}\n"
            ));
        }
        conn.write_all(lines.as_bytes()).expect("pipelined write");
        let mut reader = BufReader::new(conn.try_clone().expect("clone"));
        let mut line = String::new();
        for _ in 0..ids.len() {
            line.clear();
            let n = reader.read_line(&mut line).expect("response line");
            prop_assert!(n > 0, "connection closed before all ids answered");
            let v = json::parse(line.trim()).expect("response is valid JSON");
            let id = v.get("id").and_then(|i| i.as_u64()).expect("response id");
            let code = v.get("code").and_then(|c| c.as_u64()).expect("code");
            // Any terminal code is fine (200/429/...), but it must carry
            // an id we actually sent and still owe.
            let owed = sent.get_mut(&id).map(|c| { *c -= 1; *c }).unwrap_or(-1);
            prop_assert!(owed >= 0, "id {id} answered more times than sent (code {code})");
        }
        prop_assert!(sent.values().all(|&c| c == 0), "some ids never answered");
        drop(reader);
        server.shutdown();
        let registry = Arc::try_unwrap(registry).expect("sole registry owner");
        registry.shutdown();
    }
}

/// Interleaves two pipelined connections and checks isolation: each
/// connection gets back exactly its own ids, never the neighbour's.
#[test]
fn multiplexed_connections_do_not_leak_ids_across() {
    let (registry, server) = start_reactor();
    let mk = |base: u64| {
        let mut conn = TcpStream::connect(server.local_addr()).expect("connect");
        let mut lines = String::new();
        for i in 0..16u64 {
            lines.push_str(&format!(
                "{{\"id\": {}, \"model\": \"m\", \
                 \"input\": {{\"shape\": [1, 1, 16, 16], \"fill\": 0.25}}}}\n",
                base + i
            ));
        }
        conn.write_all(lines.as_bytes()).expect("write");
        conn
    };
    let a = mk(1_000);
    let b = mk(2_000);
    for (conn, base) in [(a, 1_000u64), (b, 2_000u64)] {
        let mut reader = BufReader::new(conn);
        let mut seen = Vec::new();
        let mut line = String::new();
        for _ in 0..16 {
            line.clear();
            assert!(reader.read_line(&mut line).expect("read") > 0);
            let v = json::parse(line.trim()).expect("json");
            seen.push(v.get("id").and_then(|i| i.as_u64()).expect("id"));
        }
        seen.sort_unstable();
        let want: Vec<u64> = (base..base + 16).collect();
        assert_eq!(seen, want, "connection must get exactly its own ids");
    }
    server.shutdown();
    let registry = Arc::try_unwrap(registry).expect("sole owner");
    registry.shutdown();
}

/// Framing under a pipelined burst: many `input.data` lines (longer in
/// total than one 16 KiB socket read, so lines straddle reads) go out in
/// three writes with pauses between them, so the reactor sees one read
/// begin with a newline and one line split across two reads.
/// Every id is answered exactly once, and with the prediction of its own
/// input, computed here by the same model — so no line was cut, joined or
/// mixed up with another.
#[test]
fn pipelined_burst_with_a_split_line_answers_every_id_with_its_own_input() {
    let (registry, server) = start_reactor();
    let mut net = served_net();
    let mut g = Gen(7);
    let n = 24u64;
    let mut expected = HashMap::new();
    let mut burst = String::new();
    for id in 0..n {
        let pixels: Vec<f32> = (0..256)
            .map(|_| (g.next() >> 40) as f32 / (1u64 << 24) as f32 * 4.0 - 2.0)
            .collect();
        let input = Tensor::new(&[1, 1, 16, 16], pixels.clone()).expect("input");
        let last = net.forward_all_exits(&input).pop().expect("final exit");
        expected.insert(id, last.predicted as u64);
        let data: Vec<String> = pixels.iter().map(f32::to_string).collect();
        burst.push_str(&format!(
            "{{\"id\": {id}, \"model\": \"m\", \
             \"input\": {{\"shape\": [1, 1, 16, 16], \"data\": [{}]}}}}\n",
            data.join(",")
        ));
    }
    assert!(burst.len() > 3 * 16 * 1024, "burst spans several reads");
    // Three writes: the first stops just before a newline (so the next
    // read starts with it), the second ends mid-line.
    let newline = burst
        .match_indices('\n')
        .nth(n as usize / 2)
        .expect("newline")
        .0;
    let mid_line = burst.len() - 1000;
    let mut conn = TcpStream::connect(server.local_addr()).expect("connect");
    for part in [0..newline, newline..mid_line, mid_line..burst.len()] {
        conn.write_all(&burst.as_bytes()[part]).expect("write");
        std::thread::sleep(Duration::from_millis(50));
    }
    let mut reader = BufReader::new(conn);
    let mut line = String::new();
    for _ in 0..n {
        line.clear();
        assert!(reader.read_line(&mut line).expect("response") > 0);
        let v = json::parse(line.trim()).expect("json");
        let id = v.get("id").and_then(JsonValue::as_u64).expect("id");
        assert_eq!(
            v.get("code").and_then(JsonValue::as_u64),
            Some(200),
            "{line}"
        );
        let want = expected
            .remove(&id)
            .unwrap_or_else(|| panic!("id {id} answered twice"));
        let got = v.get("prediction").and_then(JsonValue::as_u64);
        assert_eq!(got, Some(want), "id {id} answered from another input");
    }
    assert!(expected.is_empty(), "unanswered ids: {:?}", expected.keys());
    drop(reader);
    server.shutdown();
    let registry = Arc::try_unwrap(registry).expect("sole owner");
    registry.shutdown();
}

/// A line longer than `max_line_bytes` without a newline — arriving over
/// several reads — gets the 400 and a hang-up; the complete line before
/// it was served normally.
#[test]
fn overlong_line_gets_a_400_and_a_hang_up() {
    let cfg = ReactorConfig {
        max_line_bytes: 4096,
        ..ReactorConfig::default()
    };
    let (registry, server) = start_reactor_with(cfg);
    let mut conn = TcpStream::connect(server.local_addr()).expect("connect");
    let mut reader = BufReader::new(conn.try_clone().expect("clone"));
    let mut read_reply = || {
        let mut line = String::new();
        match reader.read_line(&mut line) {
            Ok(0) | Err(_) => None,
            Ok(_) => Some(json::parse(line.trim()).expect("json")),
        }
    };
    let valid = r#"{"id": 5, "model": "m", "input": {"shape": [1, 1, 16, 16], "fill": 0.5}}"#;
    conn.write_all(format!("{valid}\n").as_bytes())
        .expect("valid line");
    let ok = read_reply().expect("answer to the valid line");
    assert_eq!(ok.get("id").and_then(JsonValue::as_u64), Some(5));
    assert_eq!(ok.get("code").and_then(JsonValue::as_u64), Some(200));
    for _ in 0..3 {
        // Write errors are fine: the server may hang up mid-way.
        let _ = conn.write_all(&[b'x'; 2000]);
        std::thread::sleep(Duration::from_millis(20));
    }
    let rejected = read_reply().expect("400 before the hang-up");
    assert_eq!(rejected.get("code").and_then(JsonValue::as_u64), Some(400));
    assert_eq!(
        rejected.get("error").and_then(JsonValue::as_str),
        Some("request line too long")
    );
    assert!(read_reply().is_none(), "connection closed after the 400");
    server.shutdown();
    let registry = Arc::try_unwrap(registry).expect("sole owner");
    registry.shutdown();
}

/// Backward compatibility: a legacy client that never sends a `trace`
/// field still yields full server-side flows — the server mints a context
/// at ingest, echoes its id in the response, and the pool keys the task's
/// flow by it (one balanced start/end pair per request).
#[test]
fn legacy_clients_without_trace_field_get_full_server_side_flows() {
    use einet_trace::{EventKind, FlowPhase, TraceConfig};
    einet_trace::init(TraceConfig::on());
    let (registry, server) = start_reactor();
    let mut conn = TcpStream::connect(server.local_addr()).expect("connect");
    let n = 8u64;
    let mut lines = String::new();
    for id in 0..n {
        lines.push_str(&format!(
            "{{\"id\": {id}, \"model\": \"m\", \
             \"input\": {{\"shape\": [1, 1, 16, 16], \"fill\": 0.5}}}}\n"
        ));
    }
    conn.write_all(lines.as_bytes()).expect("write");
    let mut reader = BufReader::new(conn);
    let mut minted = std::collections::HashSet::new();
    let mut line = String::new();
    for _ in 0..n {
        line.clear();
        assert!(reader.read_line(&mut line).expect("response") > 0);
        let v = json::parse(line.trim()).expect("json");
        let trace = v
            .get("trace")
            .and_then(|t| t.as_u64())
            .expect("server-minted trace id echoed to the legacy client");
        assert!((1..einet_trace::MAX_TRACE_ID).contains(&trace));
        assert!(minted.insert(trace), "minted ids are unique per request");
    }
    drop(reader);
    server.shutdown();
    let registry = Arc::try_unwrap(registry).expect("sole owner");
    registry.shutdown();
    let snapshot = einet_trace::drain();
    einet_trace::init(TraceConfig::off());
    for &id in &minted {
        let (mut starts, mut ends) = (0u32, 0u32);
        for e in &snapshot.events {
            if let EventKind::Flow { phase, id: fid } = e.kind {
                if fid == id {
                    match phase {
                        FlowPhase::Start => starts += 1,
                        FlowPhase::End => ends += 1,
                        FlowPhase::Step => {}
                    }
                }
            }
        }
        assert_eq!((starts, ends), (1, 1), "flow {id} is balanced");
    }
}

/// Shutdown under load: pipeline a burst, immediately shut the server
/// down, and verify the graceful drain still answers every id exactly
/// once before the connection closes.
#[test]
fn graceful_drain_answers_every_inflight_id() {
    let (registry, server) = start_reactor();
    let mut conn = TcpStream::connect(server.local_addr()).expect("connect");
    let n = 24u64;
    let mut lines = String::new();
    for id in 0..n {
        lines.push_str(&format!(
            "{{\"id\": {id}, \"model\": \"m\", \
             \"input\": {{\"shape\": [1, 1, 16, 16], \"fill\": 0.5}}}}\n"
        ));
    }
    conn.write_all(lines.as_bytes()).expect("write burst");
    let mut reader = BufReader::new(conn);
    let mut seen = std::collections::HashSet::new();
    let mut line = String::new();
    // One response first: proves the reactor accepted the connection and
    // swept the (single-write, loopback-atomic) burst into its read buffer
    // before we pull the rug.
    assert!(reader.read_line(&mut line).expect("first response") > 0);
    let v = json::parse(line.trim()).expect("json");
    seen.insert(v.get("id").and_then(|i| i.as_u64()).expect("id"));
    let metrics = server.metrics_handle();
    server.shutdown(); // returns only after the drain
    let snap = metrics.snapshot();
    assert_eq!(
        snap.open_connections, 0,
        "drain must close every connection"
    );
    assert_eq!(snap.inflight_requests, 0, "drain must finish every request");
    loop {
        line.clear();
        match reader.read_line(&mut line) {
            Ok(0) | Err(_) => break,
            Ok(_) => {
                let v = json::parse(line.trim()).expect("json");
                let id = v.get("id").and_then(|i| i.as_u64()).expect("id");
                assert!(seen.insert(id), "id {id} answered twice");
            }
        }
    }
    assert_eq!(
        seen.len() as u64,
        n,
        "every pipelined id answered before close"
    );
    let registry = Arc::try_unwrap(registry).expect("sole owner");
    registry.shutdown();
}
