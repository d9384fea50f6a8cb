//! The benchmark's fixed settings, read from `workloads.json` next to the
//! package manifest.

use std::path::{Path, PathBuf};

use einet_trace::json::{self, JsonValue};

/// How requests arrive.
#[derive(Debug, Clone, PartialEq)]
pub enum Load {
    /// Independent users: requests are sent on a seeded Poisson schedule
    /// at a fixed rate, whether or not earlier ones were answered.
    Open {
        /// Requests per second.
        rate_rps: f64,
    },
    /// Waiting callers: each connection keeps `window` requests in flight
    /// and sends the next one when an answer arrives.
    Closed {
        /// Connections, one generator thread each.
        connections: usize,
        /// Pipelined requests in flight per connection.
        window: usize,
    },
}

/// One workload: the deployment it runs against and the traffic it sends.
#[derive(Debug, Clone, PartialEq)]
pub struct Workload {
    /// Workload name as given on the command line.
    pub name: String,
    /// Registered model names; requests are split evenly between them.
    pub tenants: Vec<String>,
    /// Arrival process.
    pub load: Load,
    /// Uniform kill-time distribution `[lo, hi]` (ms) for `deadline_ms`;
    /// `None` sends no deadlines.
    pub deadline_ms: Option<(f64, f64)>,
    /// Client-observed latency limit (ms) a verified answer must meet to
    /// count towards `slo_frac`; `None` counts every verified answer.
    pub latency_limit_ms: Option<f64>,
    /// Pool workers per tenant.
    pub workers: usize,
    /// Admission-queue capacity per tenant.
    pub queue_capacity: usize,
    /// Largest batch a worker may coalesce.
    pub max_batch: usize,
}

/// Everything `workloads.json` fixes.
#[derive(Debug, Clone)]
pub struct Settings {
    /// Separate processes that each time set-up (`setup_s` is the median
    /// of their medians): a process's memory layout can make all of its
    /// set-ups fast or all slow, so one process is one sample.
    pub setup_procs: usize,
    /// Deployments each set-up process builds and times.
    pub setup_reps: usize,
    /// Requests sent (and discarded) per tenant after set-up, before the
    /// measured phase.
    pub warmup_requests: usize,
    /// How long the generator waits for outstanding answers after its last
    /// send before counting them as missing.
    pub drain_timeout_ms: u64,
    /// An open-loop run whose p99 send lateness exceeds this is invalid.
    pub late_bound_us: f64,
    /// Model name to checkpoint directory.
    pub models: Vec<(String, PathBuf)>,
    /// Every workload, in file order.
    pub workloads: Vec<Workload>,
}

/// The package directory: where `workloads.json` and the checkpoints live.
pub fn package_dir() -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR"))
}

impl Settings {
    /// Reads `workloads.json` from the package directory.
    ///
    /// # Errors
    ///
    /// A message naming the file and the first invalid field.
    pub fn load() -> Result<Settings, String> {
        let path = package_dir().join("workloads.json");
        let text =
            std::fs::read_to_string(&path).map_err(|e| format!("{}: {e}", path.display()))?;
        Settings::parse(&text, &package_dir()).map_err(|e| format!("{}: {e}", path.display()))
    }

    /// Parses the settings; model directories resolve against `base`.
    ///
    /// # Errors
    ///
    /// A message naming the first missing or invalid field.
    pub fn parse(text: &str, base: &Path) -> Result<Settings, String> {
        let root = json::parse(text).map_err(|e| e.to_string())?;
        let models = match root.get("models") {
            Some(JsonValue::Object(members)) => members
                .iter()
                .map(|(name, dir)| {
                    dir.as_str()
                        .map(|d| (name.clone(), base.join(d)))
                        .ok_or(format!("models.{name} must be a path"))
                })
                .collect::<Result<Vec<_>, _>>()?,
            _ => return Err("missing \"models\" object".into()),
        };
        let workloads = match root.get("workloads") {
            Some(JsonValue::Object(members)) => members
                .iter()
                .map(|(name, w)| parse_workload(name, w).map_err(|e| format!("{name}: {e}")))
                .collect::<Result<Vec<_>, _>>()?,
            _ => return Err("missing \"workloads\" object".into()),
        };
        for w in &workloads {
            if let Some(t) = w
                .tenants
                .iter()
                .find(|t| !models.iter().any(|(m, _)| m == *t))
            {
                return Err(format!("{}: tenant {t:?} has no model entry", w.name));
            }
        }
        Ok(Settings {
            setup_procs: count(&root, "setup_procs")?,
            setup_reps: count(&root, "setup_reps")?,
            warmup_requests: count(&root, "warmup_requests")?,
            drain_timeout_ms: count(&root, "drain_timeout_ms")? as u64,
            late_bound_us: number(&root, "late_bound_us")?,
            models,
            workloads,
        })
    }

    /// The workload called `name`.
    pub fn workload(&self, name: &str) -> Option<&Workload> {
        self.workloads.iter().find(|w| w.name == name)
    }

    /// The checkpoint directory of model `name`.
    pub fn model_dir(&self, name: &str) -> Option<&Path> {
        self.models
            .iter()
            .find(|(m, _)| m == name)
            .map(|(_, d)| d.as_path())
    }
}

fn number(v: &JsonValue, key: &str) -> Result<f64, String> {
    v.get(key)
        .and_then(JsonValue::as_f64)
        .filter(|x| x.is_finite() && *x > 0.0)
        .ok_or(format!("\"{key}\" must be a positive number"))
}

fn count(v: &JsonValue, key: &str) -> Result<usize, String> {
    v.get(key)
        .and_then(JsonValue::as_u64)
        .filter(|&x| x > 0)
        .map(|x| x as usize)
        .ok_or(format!("\"{key}\" must be a positive integer"))
}

fn parse_workload(name: &str, w: &JsonValue) -> Result<Workload, String> {
    let tenants: Vec<String> = w
        .get("tenants")
        .and_then(JsonValue::as_array)
        .map(|a| {
            a.iter()
                .filter_map(|t| t.as_str().map(str::to_string))
                .collect()
        })
        .filter(|t: &Vec<String>| !t.is_empty())
        .ok_or("\"tenants\" must be a non-empty list of model names")?;
    let load = match w.get("loop").and_then(JsonValue::as_str) {
        Some("open") => Load::Open {
            rate_rps: number(w, "rate_rps")?,
        },
        Some("closed") => Load::Closed {
            connections: count(w, "connections")?,
            window: count(w, "window")?,
        },
        _ => return Err("\"loop\" must be \"open\" or \"closed\"".into()),
    };
    let deadline_ms = match w.get("deadline_ms") {
        None | Some(JsonValue::Null) => None,
        Some(v) => match v
            .as_array()
            .map(|a| a.iter().map(JsonValue::as_f64).collect())
        {
            Some(Some::<Vec<f64>>(b)) if b.len() == 2 && 0.0 < b[0] && b[0] < b[1] => {
                Some((b[0], b[1]))
            }
            _ => return Err("\"deadline_ms\" must be null or [lo, hi] with 0 < lo < hi".into()),
        },
    };
    let latency_limit_ms = match w.get("latency_limit_ms") {
        None | Some(JsonValue::Null) => None,
        Some(_) => Some(number(w, "latency_limit_ms")?),
    };
    let pool = w.get("pool").ok_or("missing \"pool\" object")?;
    Ok(Workload {
        name: name.to_string(),
        tenants,
        load,
        deadline_ms,
        latency_limit_ms,
        workers: count(pool, "workers")?,
        queue_capacity: count(pool, "queue_capacity")?,
        max_batch: count(pool, "max_batch")?,
    })
}
