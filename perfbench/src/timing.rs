//! The traced run's planner wrapper: a [`PlannerSource`] that times every
//! `Planner::plan` call of the source it wraps and keeps a copy of the
//! context, so the search and predictor calls can be replayed in isolation
//! afterwards. The untraced run never installs it.

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex};
use std::time::Instant;

use einet_core::{ExitPlan, PlanContext, Planner, PlannerDecision};
use einet_edge::PlannerSource;

use crate::spans::SpanLog;

/// Recorded contexts kept per tenant for the replay.
pub const MAX_CONTEXTS: usize = 4000;

/// A planner context copied out of a `plan` call.
#[derive(Debug, Clone, PartialEq)]
pub struct SavedContext {
    /// Confidences of the exits run so far.
    pub executed: Vec<Option<f32>>,
    /// Branches run so far.
    pub history: ExitPlan,
    /// First exit whose block has not run.
    pub next_exit: usize,
}

/// What the wrapper saw, shared by every planner it mints.
#[derive(Debug)]
pub struct PlanRecorder {
    calls: AtomicU64,
    nanos: AtomicU64,
    contexts: Mutex<Vec<SavedContext>>,
    spans: Arc<SpanLog>,
}

impl PlanRecorder {
    /// A recorder writing its spans to `spans`.
    pub fn new(spans: Arc<SpanLog>) -> Self {
        PlanRecorder {
            calls: AtomicU64::new(0),
            nanos: AtomicU64::new(0),
            contexts: Mutex::new(Vec::new()),
            spans,
        }
    }

    /// `plan` calls seen.
    pub fn calls(&self) -> u64 {
        self.calls.load(Ordering::Relaxed)
    }

    /// Total time inside `plan`, in µs.
    pub fn total_us(&self) -> f64 {
        self.nanos.load(Ordering::Relaxed) as f64 / 1e3
    }

    /// The first [`MAX_CONTEXTS`] contexts seen.
    pub fn contexts(&self) -> Vec<SavedContext> {
        self.contexts.lock().expect("recorder poisoned").clone()
    }
}

/// Wraps a source so each minted planner reports to a [`PlanRecorder`].
pub struct TimedSource {
    inner: Box<dyn PlannerSource>,
    recorder: Arc<PlanRecorder>,
}

impl TimedSource {
    /// Wraps `inner`.
    pub fn new(inner: Box<dyn PlannerSource>, recorder: Arc<PlanRecorder>) -> Self {
        TimedSource { inner, recorder }
    }
}

impl PlannerSource for TimedSource {
    fn make(&self) -> Box<dyn Planner + '_> {
        Box::new(TimedPlanner {
            inner: self.inner.make(),
            recorder: &self.recorder,
        })
    }
}

struct TimedPlanner<'a> {
    inner: Box<dyn Planner + 'a>,
    recorder: &'a PlanRecorder,
}

impl Planner for TimedPlanner<'_> {
    fn name(&self) -> String {
        self.inner.name()
    }

    fn plan(&mut self, ctx: &PlanContext<'_>) -> PlannerDecision {
        let start = Instant::now();
        let decision = self.inner.plan(ctx);
        let end = Instant::now();
        let r = self.recorder;
        r.calls.fetch_add(1, Ordering::Relaxed);
        r.nanos
            .fetch_add((end - start).as_nanos() as u64, Ordering::Relaxed);
        // The planner does not know which request it serves: trace id 0.
        r.spans.record("core.plan", 0, 0, start, end);
        let mut saved = r.contexts.lock().expect("recorder poisoned");
        if saved.len() < MAX_CONTEXTS {
            saved.push(SavedContext {
                executed: ctx.executed.to_vec(),
                history: *ctx.history,
                next_exit: ctx.next_exit,
            });
        }
        decision
    }

    fn reset(&mut self) {
        self.inner.reset();
    }
}
