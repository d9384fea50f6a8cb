//! `perfbench --workload NAME --seed N --seconds S --trace 0|1`
//!
//! Prints a host fingerprint line, a detail line, and as its last line one
//! JSON object `{"correct", "attempted", "failed", "metrics"}`: the
//! end-to-end metrics of an untraced run with `--trace 0`, the per-layer
//! metrics of a traced run with `--trace 1`. Exits 1 without a result when
//! the benchmark cannot run, 2 on a usage error.
//!
//! Set-up is timed in separate processes of this binary, started with the
//! internal flag `--setup-probe 1`, which print only their set-up times.
//! Another, started with `--keep-awake <pid>`, keeps the CPUs from idling
//! for the whole run (see `awake.rs`).

use std::process::{Command, ExitCode};
use std::sync::Arc;
use std::time::Instant;

use einet_trace::json::{self, JsonValue, JsonWriter};
use perfbench::config::{package_dir, Settings, Workload};
use perfbench::deploy::{deploy, load_model, timed_deploy, TestSet};
use perfbench::layers;
use perfbench::phase::{measure, Phase};
use perfbench::spans::SpanLog;
use perfbench::stats::tail;
use perfbench::timing::PlanRecorder;
use perfbench::{host, stats};

mod awake;

struct Args {
    workload: String,
    seed: u64,
    seconds: f64,
    trace: bool,
    /// Internal: only time set-up and print the times (one probe process).
    setup_probe: bool,
    /// Internal: only keep the CPUs busy until this parent process exits.
    keep_awake: Option<u32>,
}

fn parse_args() -> Result<Args, String> {
    let mut args = Args {
        workload: String::new(),
        seed: 1,
        seconds: 20.0,
        trace: false,
        setup_probe: false,
        keep_awake: None,
    };
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let value = it.next().ok_or(format!("{flag} needs a value"))?;
        let bad = || format!("invalid value {value:?} for {flag}");
        match flag.as_str() {
            "--workload" => args.workload = value.clone(),
            "--seed" => args.seed = value.parse().map_err(|_| bad())?,
            "--keep-awake" => args.keep_awake = Some(value.parse().map_err(|_| bad())?),
            "--seconds" => {
                args.seconds = value.parse::<f64>().map_err(|_| bad())?;
                if !(args.seconds > 0.0 && args.seconds <= 600.0) {
                    return Err(format!("--seconds must be in (0, 600], got {value}"));
                }
            }
            "--trace" | "--setup-probe" => {
                let on = match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(format!("{flag} takes 0 or 1, got {value:?}")),
                };
                if flag == "--trace" {
                    args.trace = on;
                } else {
                    args.setup_probe = on;
                }
            }
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    if args.workload.is_empty() && args.keep_awake.is_none() {
        return Err("--workload is required".into());
    }
    Ok(args)
}

/// Metric name, value, unit.
type Metric = (String, f64, &'static str);

fn metric(name: &str, value: f64, unit: &'static str) -> Metric {
    (name.to_string(), value, unit)
}

/// Problems that make a phase's numbers invalid, beyond failed operations.
fn validity(settings: &Settings, phase: &Phase, what: &str) -> Vec<String> {
    let mut problems = Vec::new();
    let late = late_p99_us(phase);
    if late > settings.late_bound_us {
        problems.push(format!(
            "{what}: open-loop generator ran late (p99 {late:.0} µs > bound {} µs)",
            settings.late_bound_us
        ));
    }
    if phase.tally.failed > 0 {
        problems.push(format!(
            "{what}: {} of {} operations failed (missing, malformed or mismatched replies)",
            phase.tally.failed, phase.tally.sent
        ));
    }
    problems
}

fn late_p99_us(phase: &Phase) -> f64 {
    let mut late = phase.late_us.clone();
    late.sort_by(f64::total_cmp);
    stats::percentile(&late, 99.0)
}

/// The median over the phase's windows of `f`.
fn window_median(phase: &Phase, f: impl Fn(&stats::Tally) -> f64) -> f64 {
    stats::median(&phase.windows.iter().map(f).collect::<Vec<_>>())
}

fn end_to_end(phase: &Phase, setup_s: f64) -> Vec<Metric> {
    vec![
        metric("setup_s", setup_s, "s"),
        metric(
            "p50_ms",
            window_median(phase, |t| stats::percentile(&t.latencies, 50.0)),
            "ms",
        ),
        metric(
            "slo_frac",
            window_median(phase, stats::Tally::slo_frac),
            "frac",
        ),
        metric("accuracy", phase.tally.accuracy(), "frac"),
        metric("throughput_rps", phase.throughput_rps(), "1/s"),
        metric("cpu_ms_per_req", phase.cpu_ms_per_req(), "ms"),
        metric("peak_rss_mb", host::peak_rss_mb(), "MiB"),
    ]
}

fn per_layer(
    settings: &Settings,
    w: &Workload,
    test: &TestSet,
    seed: u64,
    seconds: f64,
    plain: &Phase,
    problems: &mut Vec<String>,
) -> Result<(Vec<Metric>, Phase), String> {
    let spans = Arc::new(SpanLog::new(Instant::now()));
    let recorders: Vec<Arc<PlanRecorder>> = w
        .tenants
        .iter()
        .map(|_| Arc::new(PlanRecorder::new(Arc::clone(&spans))))
        .collect();
    let dep = deploy(settings, w, test, Some(&recorders))?;
    let traced = measure(settings, w, test, &dep, seed, seconds, Some(&spans))?;
    problems.extend(validity(settings, &traced, "traced run"));

    let root = spans.reserve();
    let replay_start = Instant::now();
    let mut m = Vec::new();
    let pool = &traced.pool;
    let avg = |sum: u64, count: u64| sum as f64 / count.max(1) as f64;
    let queue_us = avg(pool.queue_wait.sum_us, pool.queue_wait.count);
    let service_us = avg(pool.service.sum_us, pool.service.count);
    let client_us = stats::mean(&traced.tally.latencies) * 1e3;
    m.push(metric(
        "server.wire_parse_us",
        layers::wire_parse_us(&spans, root, &traced.lines),
        "us",
    ));
    m.push(metric(
        "server.wire_render_us",
        layers::wire_render_us(&spans, root, &traced.replies),
        "us",
    ));
    m.push(metric(
        "server.frontend_us",
        client_us - queue_us - service_us,
        "us",
    ));
    m.push(metric("server.routed", traced.route.routed as f64, "count"));
    m.push(metric(
        "server.shed",
        traced.route.shed_queue_full as f64,
        "count",
    ));
    m.push(metric("edge.queue_wait_us", queue_us, "us"));
    m.push(metric("edge.service_us", service_us, "us"));
    m.push(metric(
        "edge.batch_occupancy",
        pool.batch.mean_occupancy(),
        "tasks",
    ));
    m.push(metric("edge.dispatches", pool.batch.count as f64, "count"));
    m.push(metric(
        "edge.deadline_expired",
        pool.deadline_expired as f64,
        "count",
    ));
    m.push(metric(
        "edge.deadline_met",
        pool.deadline_met as f64,
        "count",
    ));
    m.push(metric(
        "edge.shed_expired",
        pool.shed_expired_at_dequeue as f64,
        "count",
    ));

    let serviced = pool.serviced().max(1) as f64;
    let calls: u64 = recorders.iter().map(|r| r.calls()).sum();
    let plan_us: f64 = recorders.iter().map(|r| r.total_us()).sum();
    m.push(metric("core.plan_us", plan_us / calls.max(1) as f64, "us"));
    m.push(metric(
        "core.plan_calls_per_task",
        calls as f64 / serviced,
        "calls",
    ));
    m.push(metric("core.plan_us_per_task", plan_us / serviced, "us"));
    let (mut search, mut predict) = (Vec::new(), Vec::new());
    for (tenant, rec) in dep.tenants.iter().zip(&recorders) {
        let (s, p) = layers::planner_replay(&spans, root, tenant, &rec.contexts());
        search.extend(s);
        predict.extend(p);
    }
    m.push(metric("core.search_us", stats::mean(&search), "us"));
    m.push(metric("predictor.predict_us", stats::mean(&predict), "us"));
    m.push(metric(
        "core.exits_per_answer",
        traced.tally.exits as f64 / traced.tally.answered.max(1) as f64,
        "exits",
    ));
    dep.shutdown();

    for (name, dir) in &settings.models {
        let mut model = load_model(name, dir, test)?;
        let f = layers::forward(&spans, root, &mut model.net, &test.inputs);
        m.push(metric(&format!("models.{name}.fwd_b1_us"), f.b1_us, "us"));
        m.push(metric(&format!("models.{name}.fwd_b4_us"), f.b4_us, "us"));
        m.push(metric(
            &format!("models.{name}.max_block_us"),
            f.max_block_us,
            "us",
        ));
    }
    m.push(metric(
        "tensor.gemm_gflops",
        layers::gemm_gflops(&spans, root),
        "GFLOP/s",
    ));
    m.push(metric("gen.late_p99_us", late_p99_us(&traced), "us"));
    // Client-side tails of the untraced phase: too noisy on a shared
    // host to gate on, reported here for reading.
    let p99 = window_median(plain, |t| tail(&t.latencies).map_or(0.0, |(_, v)| v));
    m.push(metric("client.p99_ms", p99, "ms"));
    let overshoot = tail(&plain.tally.overshoots).map_or(0.0, |(_, v)| v);
    m.push(metric("client.overshoot_p99_ms", overshoot, "ms"));
    m.push(metric(
        "trace.overhead_pct",
        (traced.cpu_ms_per_req() / plain.cpu_ms_per_req().max(1e-9) - 1.0) * 100.0,
        "%",
    ));
    spans.record_as(root, "replay", 0, 0, replay_start, Instant::now());

    let out = package_dir()
        .join("out")
        .join(format!("spans-{}-seed{seed}.jsonl", w.name));
    spans
        .write_jsonl(&out)
        .map_err(|e| format!("{}: {e}", out.display()))?;
    eprintln!(
        "perfbench: wrote {} spans to {}",
        spans.len(),
        out.display()
    );
    Ok((m, traced))
}

/// Runs `setup_procs` probe processes of this binary, each timing
/// `setup_reps` deployments of `w`; returns every process's times.
fn probe_setup(settings: &Settings, w: &Workload) -> Result<Vec<Vec<f64>>, String> {
    let exe = std::env::current_exe().map_err(|e| format!("locate own binary: {e}"))?;
    (0..settings.setup_procs)
        .map(|_| {
            let out = Command::new(&exe)
                .args(["--workload", &w.name, "--setup-probe", "1"])
                .output()
                .map_err(|e| format!("set-up probe: {e}"))?;
            let stdout = String::from_utf8_lossy(&out.stdout);
            let times = stdout.lines().last().and_then(|l| json::parse(l).ok());
            match (out.status.success(), times) {
                (true, Some(JsonValue::Array(v))) => {
                    Ok(v.iter().filter_map(JsonValue::as_f64).collect())
                }
                _ => Err(format!(
                    "set-up probe failed: {}",
                    String::from_utf8_lossy(&out.stderr).trim()
                )),
            }
        })
        .collect()
}

fn detail(w: &Workload, seed: u64, setup_times: &[Vec<f64>], phase: &Phase) -> String {
    let t = &phase.tally;
    let mut wr = JsonWriter::new();
    wr.begin_object();
    wr.key("workload");
    wr.string(&w.name);
    wr.key("seed");
    wr.number_u64(seed);
    wr.key("setup_s");
    wr.begin_array();
    for times in setup_times {
        wr.begin_array();
        for &t in times {
            wr.number_f64(t);
        }
        wr.end_array();
    }
    wr.end_array();
    for (k, v) in [
        ("sent", t.sent),
        ("failed", t.failed),
        ("answered", t.answered),
        ("in_slo", t.in_slo),
        ("correct", t.correct),
        ("stopped_mid_inference", t.stopped),
        ("latency_samples", t.latencies.len()),
        ("overshoot_samples", t.overshoots.len()),
    ] {
        wr.key(k);
        wr.number_u64(v as u64);
    }
    for (k, v) in [("latency", &t.latencies), ("overshoot", &t.overshoots)] {
        if let Some((pct, value)) = tail(v) {
            wr.key(&format!("{k}_tail_pct"));
            wr.number_f64(pct);
            wr.key(&format!("{k}_tail_ms"));
            wr.number_f64(value);
        }
    }
    for (k, p) in [("window_p50_ms", 50.0), ("window_p99_ms", 99.0)] {
        wr.key(k);
        wr.begin_array();
        for t in &phase.windows {
            wr.number_f64(stats::percentile(&t.latencies, p));
        }
        wr.end_array();
    }
    wr.key("phase_s");
    wr.number_f64(phase.seconds);
    wr.key("late_p99_us");
    wr.number_f64(late_p99_us(phase));
    wr.end_object();
    wr.finish()
}

fn result(correct: bool, attempted: usize, failed: usize, metrics: &[Metric]) -> String {
    let mut w = JsonWriter::new();
    w.begin_object();
    w.key("correct");
    w.boolean(correct);
    w.key("attempted");
    w.number_u64(attempted as u64);
    w.key("failed");
    w.number_u64(failed as u64);
    w.key("metrics");
    w.begin_object();
    for (name, value, unit) in metrics {
        w.key(name);
        w.begin_object();
        w.key("value");
        w.number_f64(*value);
        w.key("unit");
        w.string(unit);
        w.end_object();
    }
    w.end_object();
    w.end_object();
    w.finish()
}

fn run(args: &Args) -> Result<(), String> {
    let settings = Settings::load()?;
    let w = settings
        .workload(&args.workload)
        .ok_or(format!("unknown workload {:?}", args.workload))?
        .clone();
    let test = TestSet::generate()?;
    if args.setup_probe {
        let (dep, times) = timed_deploy(&settings, &w, &test, settings.setup_reps)?;
        dep.shutdown();
        let mut wr = JsonWriter::new();
        wr.begin_array();
        for t in times {
            wr.number_f64(t);
        }
        wr.end_array();
        println!("{}", wr.finish());
        return Ok(());
    }
    println!("host {}", host::fingerprint());
    // Held until the run returns; dropping it stops the child.
    let _awake = awake::KeepAwake::start()?;
    let setup_times = probe_setup(&settings, &w)?;
    let setup_s = stats::median(
        &setup_times
            .iter()
            .map(|t| stats::median(t))
            .collect::<Vec<_>>(),
    );
    let dep = deploy(&settings, &w, &test, None)?;
    let plain = measure(&settings, &w, &test, &dep, args.seed, args.seconds, None)?;
    dep.shutdown();
    let mut problems = validity(&settings, &plain, "run");
    let e2e = end_to_end(&plain, setup_s);
    println!("detail {}", detail(&w, args.seed, &setup_times, &plain));
    let (metrics, attempted, failed) = if args.trace {
        let (m, traced) = per_layer(
            &settings,
            &w,
            &test,
            args.seed,
            args.seconds,
            &plain,
            &mut problems,
        )?;
        println!("detail {}", detail(&w, args.seed, &setup_times, &traced));
        (
            m,
            plain.tally.sent + traced.tally.sent,
            plain.tally.failed + traced.tally.failed,
        )
    } else {
        (e2e, plain.tally.sent, plain.tally.failed)
    };
    for p in &problems {
        eprintln!("perfbench: invalid run: {p}");
    }
    println!(
        "{}",
        result(problems.is_empty(), attempted, failed, &metrics)
    );
    Ok(())
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}\nusage: perfbench --workload NAME [--seed N] [--seconds S] [--trace 0|1]");
            return ExitCode::from(2);
        }
    };
    if let Some(parent) = args.keep_awake {
        awake::run_child(parent);
        return ExitCode::SUCCESS;
    }
    match run(&args) {
        Ok(()) => ExitCode::SUCCESS,
        Err(e) => {
            eprintln!("perfbench: {e}");
            ExitCode::from(1)
        }
    }
}
