//! Test data, trained models and the in-process server a run drives.
//!
//! [`deploy`] is what `setup_s` times: loading each tenant's checkpoint and
//! CS-profile, fitting its CS-Predictor, building the reference table,
//! spawning the pools and binding the reactor.

use std::path::Path;
use std::sync::Arc;
use std::time::Instant;

use einet_bench::pipeline::trained_predictor;
use einet_bench::{DatasetKind, Scale};
use einet_core::SearchEngine;
use einet_edge::{EinetSource, PlannerSource, PoolConfig};
use einet_models::{load_params, BranchSpec, ModelKind, MultiExitNet};
use einet_predictor::CsPredictor;
use einet_profile::CsProfile;
use einet_server::{ModelRegistry, ModelSpec, ReactorConfig, ReactorServer};
use einet_tensor::Tensor;
use einet_trace::json;

use crate::config::{Settings, Workload};
use crate::stream::render_pixels;
use crate::timing::{PlanRecorder, TimedSource};

/// The checkpoints were trained by `einet train --dataset objects
/// --train-n 800 --test-n 200`, which builds every model with this seed.
pub const MODEL_SEED: u64 = 0xA11CE;
/// Training-set size the checkpoints were trained with (the test split
/// does not depend on it, but the dataset call mirrors training exactly).
pub const TRAIN_N: usize = 800;
/// Held-out images the requests carry.
pub const TEST_N: usize = 200;

/// The held-out test set, exactly as the server will parse it.
#[derive(Debug)]
pub struct TestSet {
    /// Image shape `[c, h, w]`.
    pub shape: [usize; 3],
    /// Classes.
    pub classes: usize,
    /// True class per image.
    pub labels: Vec<usize>,
    /// Wire pixel text per image.
    pub pixels: Vec<String>,
    /// Per image, the `[1, c, h, w]` tensor the server builds from the
    /// pixel text (the wire parser's own JSON numbers narrowed to `f32`):
    /// the reference table is computed on exactly the input served.
    pub inputs: Vec<Tensor>,
}

impl TestSet {
    /// Generates the synthetic CIFAR-like test split the checkpoints were
    /// evaluated on.
    ///
    /// # Errors
    ///
    /// A message if a rendered image does not parse back.
    pub fn generate() -> Result<TestSet, String> {
        let scale = Scale {
            train_n: TRAIN_N,
            test_n: TEST_N,
            ..Scale::quick()
        };
        let ds = DatasetKind::Objects.generate(&scale);
        let test = ds.test();
        let shape = test.image_shape();
        let mut pixels = Vec::with_capacity(test.len());
        let mut inputs = Vec::with_capacity(test.len());
        for i in 0..test.len() {
            let image = test.images().batch_slice(i, i + 1);
            let text = render_pixels(image.as_slice());
            let parsed = json::parse(&format!("[{text}]")).map_err(|e| e.to_string())?;
            let data: Vec<f32> = parsed
                .as_array()
                .into_iter()
                .flatten()
                .filter_map(|v| v.as_f64().map(|x| x as f32))
                .collect();
            let input = Tensor::new(&[1, shape[0], shape[1], shape[2]], data)
                .map_err(|e| format!("test image {i}: {e}"))?;
            inputs.push(input);
            pixels.push(text);
        }
        Ok(TestSet {
            shape,
            classes: test.num_classes(),
            labels: test.labels().to_vec(),
            pixels,
            inputs,
        })
    }
}

/// A trained model as stored on disk.
pub struct Trained {
    /// The network with its checkpoint loaded.
    pub net: MultiExitNet,
    /// Its CS-profile over the test split.
    pub cs: CsProfile,
}

/// Builds `name` from the zoo and loads its checkpoint and CS-profile.
///
/// # Errors
///
/// A message for an unknown model or an unreadable artifact.
pub fn load_model(name: &str, dir: &Path, test: &TestSet) -> Result<Trained, String> {
    let kind = ModelKind::all()
        .into_iter()
        .find(|m| m.id() == name)
        .ok_or(format!("unknown model {name:?}"))?;
    let mut net = kind.build(
        test.shape,
        test.classes,
        &BranchSpec::paper_default(),
        MODEL_SEED,
    );
    let ckpt = dir.join("model.ckpt");
    load_params(&mut net, &ckpt).map_err(|e| format!("{}: {e}", ckpt.display()))?;
    let cs_path = dir.join("model.cs");
    let cs = CsProfile::load(&cs_path).map_err(|e| format!("{}: {e}", cs_path.display()))?;
    if cs.num_exits() != net.num_exits() {
        return Err(format!(
            "{}: exit count differs from the model",
            cs_path.display()
        ));
    }
    Ok(Trained { net, cs })
}

/// Per test image, the prediction of every exit: what any correct answer
/// at that exit must say.
pub fn reference_table(net: &mut MultiExitNet, test: &TestSet) -> Vec<Vec<usize>> {
    test.inputs
        .iter()
        .map(|x| {
            net.forward_all_exits(x)
                .iter()
                .map(|o| o.predicted)
                .collect()
        })
        .collect()
}

/// A running deployment.
pub struct Deployment {
    /// The registry behind the server (shared with the reactor).
    pub registry: Arc<ModelRegistry>,
    /// The reactor front-end.
    pub server: ReactorServer,
    /// Per tenant, the reference table.
    pub refs: Vec<Vec<Vec<usize>>>,
    /// Per tenant, what its planners were built from.
    pub tenants: Vec<Tenant>,
}

/// The planner inputs of one tenant, kept for the traced run's replays.
pub struct Tenant {
    /// The fitted CS-Predictor.
    pub predictor: Arc<CsPredictor>,
    /// Mean confidence per exit, the planner's prior before any output.
    pub prior: Vec<f32>,
    /// A copy of the served network.
    pub net: MultiExitNet,
}

impl Deployment {
    /// Stops the reactor and drains the pools.
    pub fn shutdown(self) {
        self.server.shutdown();
        if let Ok(registry) = Arc::try_unwrap(self.registry) {
            registry.shutdown();
        }
    }
}

/// Deploys `w`'s tenants behind a fresh registry and reactor on an
/// ephemeral loopback port. With recorders (one per tenant), every planner
/// source is wrapped in the timing wrapper (traced runs only).
///
/// # Errors
///
/// A message for an unloadable model or a failed bind.
pub fn deploy(
    settings: &Settings,
    w: &Workload,
    test: &TestSet,
    recorders: Option<&[Arc<PlanRecorder>]>,
) -> Result<Deployment, String> {
    let mut registry = ModelRegistry::new();
    let mut refs = Vec::with_capacity(w.tenants.len());
    let mut tenants = Vec::with_capacity(w.tenants.len());
    for (t, name) in w.tenants.iter().enumerate() {
        let dir = settings
            .model_dir(name)
            .ok_or(format!("no checkpoint directory for {name}"))?;
        let Trained { mut net, cs } = load_model(name, dir, test)?;
        let predictor = Arc::new(trained_predictor(&cs, &Scale::quick()));
        let prior = cs.exit_mean_confidence();
        refs.push(reference_table(&mut net, test));
        tenants.push(Tenant {
            predictor: Arc::clone(&predictor),
            prior: prior.clone(),
            net: net.clone(),
        });
        let recorder = recorders.map(|r| Arc::clone(&r[t]));
        registry.register(
            name,
            net,
            move |_replica, _worker| {
                let source: Box<dyn PlannerSource> = Box::new(EinetSource::new(
                    Arc::clone(&predictor),
                    prior.clone(),
                    SearchEngine::default(),
                ));
                match &recorder {
                    Some(r) => Box::new(TimedSource::new(source, Arc::clone(r))),
                    None => source,
                }
            },
            ModelSpec {
                pool: PoolConfig {
                    workers: w.workers,
                    queue_capacity: w.queue_capacity,
                    max_batch: w.max_batch,
                    ..PoolConfig::default()
                },
                ..ModelSpec::default()
            },
        );
    }
    let registry = Arc::new(registry);
    let server = ReactorServer::start(
        Arc::clone(&registry),
        "127.0.0.1:0",
        ReactorConfig::default(),
    )
    .map_err(|e| format!("bind reactor: {e}"))?;
    Ok(Deployment {
        registry,
        server,
        refs,
        tenants,
    })
}

/// Deploys `reps` times, keeping the last deployment; returns it with
/// every deployment's time in seconds.
///
/// # Errors
///
/// The first deployment error.
pub fn timed_deploy(
    settings: &Settings,
    w: &Workload,
    test: &TestSet,
    reps: usize,
) -> Result<(Deployment, Vec<f64>), String> {
    let mut times = Vec::with_capacity(reps);
    let mut last = None;
    for _ in 0..reps.max(1) {
        if let Some(d) = last.take() {
            Deployment::shutdown(d);
        }
        let start = Instant::now();
        let d = deploy(settings, w, test, None)?;
        times.push(start.elapsed().as_secs_f64());
        last = Some(d);
    }
    Ok((last.expect("at least one deployment"), times))
}
