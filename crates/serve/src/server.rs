//! `colperd`: the attack service itself.
//!
//! Request flow:
//!
//! 1. The accept loop hands each connection to a short-lived intake
//!    thread, which parses the HTTP request and either answers an
//!    introspection endpoint (`/healthz`, `/stats`) or decodes a
//!    [`JobSpec`] from `POST /attack`.
//! 2. Intake validation happens *before* queuing: bytes that are not
//!    JSON → `400`; a spec that blows a limit or inlines a NaN cloud →
//!    `422` (via [`colper_attack::validate_clouds`]); a full queue →
//!    `429`. Only work that can actually run is admitted.
//! 3. Admitted jobs carry their socket into the [`JobQueue`]. Worker
//!    threads drain it (interactive before batch), check a
//!    [`colper_attack::WarmSeat`] out of the [`SeatPool`], run the
//!    attack on the shared
//!    work-stealing [`Runtime`] under the job's thread budget, and
//!    write the response themselves — streamed jobs get per-step
//!    `colper-trace-v1` JSONL lines live via a [`StepSink`]. A job that
//!    panics is contained: its client gets a `500` (or, mid-stream, a
//!    closed connection), `/stats` counts it, and the worker moves on.
//!
//! `workers: 0` is supported and deliberate: nothing drains the queue,
//! which makes backpressure deterministic to test.

use std::cell::Cell;
use std::io::{BufReader, Write as _};
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Mutex, PoisonError};
use std::thread::{self, JoinHandle};
use std::time::Instant;

use colper_attack::{validate_clouds, AttackResult, AttackSession};
use colper_models::{CloudTensors, PointNet2, PointNet2Config, ResGcn, ResGcnConfig};
use colper_obs::{jf, Observer, StepRecord, StepSink};
use colper_runtime::Runtime;
use colper_scene::{normalize, IndoorSceneConfig, SceneGenerator};
use rand::rngs::StdRng;
use rand::SeedableRng;

use crate::http::{begin_jsonl_stream, error_body, read_request, respond_json, HttpError, Request};
use crate::json::Json;
use crate::pool::{ModelKind, SeatPool};
use crate::proto::{JobSpec, NUM_CLASSES};
use crate::queue::{JobQueue, Priority, Rejected};
use crate::stats::ServiceStats;
use crate::stream_job::{run_stream, StreamSpec};

/// How `colperd` is shaped.
#[derive(Debug, Clone)]
pub struct ServeConfig {
    /// Bind address; port `0` picks a free one.
    pub addr: String,
    /// Worker threads draining the queue. `0` is allowed: the queue
    /// fills and the intake answers `429` — useful for testing
    /// backpressure deterministically.
    pub workers: usize,
    /// Size of the shared compute pool jobs are scheduled onto.
    pub threads: usize,
    /// Queue capacity across both priority classes.
    pub queue_capacity: usize,
    /// Idle warm seats retained per `(model, bucket)`.
    pub seat_cap: usize,
}

impl Default for ServeConfig {
    fn default() -> Self {
        Self {
            addr: "127.0.0.1:7414".to_string(),
            workers: 2,
            threads: 2,
            queue_capacity: 256,
            seat_cap: 4,
        }
    }
}

/// What a queued job will do once a worker picks it up.
enum Spec {
    /// A single-cloud `POST /attack` job.
    Attack(JobSpec),
    /// A heavyweight `POST /stream` out-of-core world attack; always
    /// batch priority.
    Stream(StreamSpec),
}

/// A queued job: the validated spec plus the socket the worker will
/// answer on.
struct Job {
    spec: Spec,
    stream: TcpStream,
    queued_at: Instant,
}

/// The pretrained victim zoo, built once with fixed seeds so every job
/// against the same model attacks identical weights.
struct Zoo {
    pointnet: PointNet2,
    resgcn: ResGcn,
}

impl Zoo {
    fn new() -> Self {
        let mut rng = StdRng::seed_from_u64(42);
        let pointnet = PointNet2::new(PointNet2Config::tiny(NUM_CLASSES), &mut rng);
        let mut rng = StdRng::seed_from_u64(43);
        let resgcn = ResGcn::new(ResGcnConfig::tiny(NUM_CLASSES), &mut rng);
        Self { pointnet, resgcn }
    }
}

/// Shared state every intake and worker thread sees.
struct Ctx {
    queue: JobQueue<Job>,
    stats: ServiceStats,
    seats: SeatPool,
    zoo: Zoo,
    runtime: Runtime,
    shutdown: AtomicBool,
}

impl Ctx {
    fn new(config: &ServeConfig) -> Self {
        Self {
            queue: JobQueue::new(config.queue_capacity),
            stats: ServiceStats::default(),
            seats: SeatPool::new(config.seat_cap),
            zoo: Zoo::new(),
            runtime: Runtime::new(config.threads.max(1)),
            shutdown: AtomicBool::new(false),
        }
    }
}

/// Runs one dequeued job. `replied` is set before the job writes its
/// first response byte, so a panic handler knows whether a `500` can
/// still go out.
type JobRunner = fn(Job, &Ctx, &Cell<bool>);

/// A [`StepSink`] that writes each record to the client's socket as a
/// `colper-trace-v1` `step` line, flushed per line so the client sees
/// progress while the attack runs.
struct SocketSink {
    stream: Mutex<TcpStream>,
}

impl StepSink for SocketSink {
    fn on_step(&self, cloud: usize, record: &StepRecord) {
        let mut stream = self.stream.lock().unwrap_or_else(PoisonError::into_inner);
        let body = record.to_json();
        // Splice the cloud index in, matching the file sink's format.
        let _ = writeln!(stream, "{{\"type\":\"step\",\"cloud\":{},{}", cloud, &body[1..]);
        let _ = stream.flush();
    }
}

/// A running `colperd` instance. Dropping it without [`Server::stop`]
/// leaves threads running; tests and binaries should call `stop`.
pub struct Server {
    local_addr: SocketAddr,
    ctx: Arc<Ctx>,
    accept: Option<JoinHandle<()>>,
    workers: Vec<JoinHandle<()>>,
}

impl Server {
    /// Binds, builds the model zoo, and spawns the accept loop plus
    /// `config.workers` worker threads.
    pub fn start(config: &ServeConfig) -> std::io::Result<Server> {
        let listener = TcpListener::bind(&config.addr)?;
        let local_addr = listener.local_addr()?;
        let ctx = Arc::new(Ctx::new(config));

        let workers = (0..config.workers)
            .map(|i| {
                let ctx = Arc::clone(&ctx);
                thread::Builder::new()
                    .name(format!("colperd-worker-{i}"))
                    .spawn(move || worker_loop(&ctx, run_job))
                    .expect("spawn worker thread")
            })
            .collect();

        let accept = {
            let ctx = Arc::clone(&ctx);
            thread::Builder::new()
                .name("colperd-accept".to_string())
                .spawn(move || accept_loop(&listener, &ctx))
                .expect("spawn accept thread")
        };

        Ok(Server { local_addr, ctx, accept: Some(accept), workers })
    }

    /// The address the server actually bound (resolves port `0`).
    pub fn local_addr(&self) -> SocketAddr {
        self.local_addr
    }

    /// Stops accepting, drains nothing further, and joins all threads.
    /// Queued-but-unstarted jobs are dropped; their clients see the
    /// connection close.
    pub fn stop(mut self) {
        self.ctx.shutdown.store(true, Ordering::SeqCst);
        self.ctx.queue.close();
        // Unblock the accept loop with a throwaway connection.
        let _ = TcpStream::connect(self.local_addr);
        if let Some(accept) = self.accept.take() {
            let _ = accept.join();
        }
        for worker in self.workers.drain(..) {
            let _ = worker.join();
        }
    }
}

fn accept_loop(listener: &TcpListener, ctx: &Arc<Ctx>) {
    for stream in listener.incoming() {
        if ctx.shutdown.load(Ordering::SeqCst) {
            break;
        }
        let Ok(stream) = stream else { continue };
        let ctx = Arc::clone(ctx);
        // Intake threads are short-lived: they parse, validate, and
        // either respond immediately or hand the socket to the queue.
        let _ = thread::Builder::new()
            .name("colperd-intake".to_string())
            .spawn(move || handle_connection(stream, &ctx));
    }
}

fn handle_connection(stream: TcpStream, ctx: &Ctx) {
    let mut reader = BufReader::new(match stream.try_clone() {
        Ok(clone) => clone,
        Err(_) => return,
    });
    let mut stream = stream;
    let request = match read_request(&mut reader) {
        Ok(request) => request,
        Err(HttpError::Io(_)) => return,
        Err(HttpError::Malformed(reason)) => {
            ServiceStats::incr(&ctx.stats.rejected_malformed);
            let _ = respond_json(&mut stream, 400, &error_body(reason));
            return;
        }
    };
    match (request.method.as_str(), request.path.as_str()) {
        ("GET", "/healthz") => {
            let _ = respond_json(&mut stream, 200, "{\"status\":\"ok\"}");
        }
        ("GET", "/stats") => {
            let (interactive, batch) = ctx.queue.depths();
            let body = ctx.stats.to_json(interactive, batch, ctx.seats.idle());
            let _ = respond_json(&mut stream, 200, &body);
        }
        ("POST", "/attack") => intake_attack(stream, &request, ctx),
        ("POST", "/stream") => intake_stream(stream, &request, ctx),
        (_, "/healthz" | "/stats" | "/attack" | "/stream") => {
            let _ = respond_json(&mut stream, 405, &error_body("method not allowed"));
        }
        _ => {
            let _ = respond_json(&mut stream, 404, &error_body("unknown endpoint"));
        }
    }
}

fn intake_attack(mut stream: TcpStream, request: &Request, ctx: &Ctx) {
    let Ok(text) = std::str::from_utf8(&request.body) else {
        ServiceStats::incr(&ctx.stats.rejected_malformed);
        let _ = respond_json(&mut stream, 400, &error_body("body is not UTF-8"));
        return;
    };
    let value = match Json::parse(text) {
        Ok(value) => value,
        Err(err) => {
            ServiceStats::incr(&ctx.stats.rejected_malformed);
            let _ = respond_json(&mut stream, 400, &error_body(&err.to_string()));
            return;
        }
    };
    let spec = match JobSpec::from_json(&value) {
        Ok(spec) => spec,
        Err(reason) => {
            ServiceStats::incr(&ctx.stats.rejected_invalid);
            let _ = respond_json(&mut stream, 422, &error_body(&reason));
            return;
        }
    };
    // Value-level validation of inline clouds (finite coordinates,
    // colors in [0, 1], labels in range) — same typed errors the
    // library's `try_run` reports, surfaced before the job queues.
    if let Some(cloud) = &spec.cloud {
        if let Err(err) = validate_clouds(std::slice::from_ref(cloud), NUM_CLASSES) {
            ServiceStats::incr(&ctx.stats.rejected_invalid);
            let _ = respond_json(&mut stream, 422, &error_body(&err.to_string()));
            return;
        }
    }

    let priority = spec.priority;
    enqueue(Job { spec: Spec::Attack(spec), stream, queued_at: Instant::now() }, priority, ctx);
}

/// `POST /stream`: the heavyweight job class. The same intake
/// discipline as `/attack` (not-JSON → 400, bad spec → 422, full
/// queue → 429), but admitted jobs always queue at batch priority so a
/// world-scale attack can never overtake interactive work.
fn intake_stream(mut stream: TcpStream, request: &Request, ctx: &Ctx) {
    let Ok(text) = std::str::from_utf8(&request.body) else {
        ServiceStats::incr(&ctx.stats.rejected_malformed);
        let _ = respond_json(&mut stream, 400, &error_body("body is not UTF-8"));
        return;
    };
    let value = match Json::parse(text) {
        Ok(value) => value,
        Err(err) => {
            ServiceStats::incr(&ctx.stats.rejected_malformed);
            let _ = respond_json(&mut stream, 400, &error_body(&err.to_string()));
            return;
        }
    };
    let spec = match StreamSpec::from_json(&value) {
        Ok(spec) => spec,
        Err(reason) => {
            ServiceStats::incr(&ctx.stats.rejected_invalid);
            let _ = respond_json(&mut stream, 422, &error_body(&reason));
            return;
        }
    };
    let job = Job { spec: Spec::Stream(spec), stream, queued_at: Instant::now() };
    enqueue(job, Priority::Batch, ctx);
}

fn enqueue(job: Job, priority: Priority, ctx: &Ctx) {
    match ctx.queue.push(priority, job) {
        Ok(()) => ServiceStats::incr(&ctx.stats.accepted),
        Err(Rejected(job)) => {
            ServiceStats::incr(&ctx.stats.rejected_full);
            let mut stream = job.stream;
            let _ = respond_json(&mut stream, 429, &error_body("queue full, retry later"));
        }
    }
}

fn worker_loop(ctx: &Ctx, run: JobRunner) {
    while let Some(job) = ctx.queue.pop() {
        serve_job(job, ctx, run);
    }
}

/// Runs one job behind a panic boundary, so a panicking job cannot end
/// the worker that runs it. The panic is counted in `/stats`
/// (`panicked`); the client gets a `500` when no response byte went out
/// yet, while a streamed job that already started just sees its
/// connection close. The job's seat is dropped, not returned to the
/// pool.
fn serve_job(job: Job, ctx: &Ctx, run: JobRunner) {
    let reply = job.stream.try_clone();
    let replied = Cell::new(false);
    if catch_unwind(AssertUnwindSafe(|| run(job, ctx, &replied))).is_err() {
        ServiceStats::incr(&ctx.stats.panicked);
        if let (false, Ok(mut stream)) = (replied.get(), reply) {
            let _ = respond_json(&mut stream, 500, &error_body("the job panicked"));
        }
    }
}

fn run_job(job: Job, ctx: &Ctx, replied: &Cell<bool>) {
    let Job { spec, stream, queued_at } = job;
    match spec {
        Spec::Attack(spec) => run_attack_job(spec, stream, queued_at, ctx, replied),
        Spec::Stream(spec) => run_stream_job(&spec, stream, queued_at, ctx, replied),
    }
}

/// Runs a heavyweight `POST /stream` job: the world is sharded to a
/// scratch directory, attacked window by window on the shared pool
/// under the job's thread budget, and the scratch removed before the
/// summary goes out.
fn run_stream_job(
    spec: &StreamSpec,
    mut stream: TcpStream,
    queued_at: Instant,
    ctx: &Ctx,
    replied: &Cell<bool>,
) {
    let queue_ms = queued_at.elapsed().as_secs_f64() * 1e3;
    let budget = spec.threads.clamp(1, ctx.runtime.threads().max(1));
    let rt = ctx.runtime.clone().with_budget(budget);
    let model: &dyn colper_models::SegmentationModel = match spec.model {
        ModelKind::PointNet => &ctx.zoo.pointnet,
        ModelKind::ResGcn => &ctx.zoo.resgcn,
    };
    let run_started = Instant::now();
    let outcome = run_stream(spec, model, &rt);
    replied.set(true);
    match outcome {
        Ok(body) => {
            ServiceStats::incr(&ctx.stats.completed);
            ServiceStats::incr(&ctx.stats.stream_completed);
            let run_ms = run_started.elapsed().as_secs_f64() * 1e3;
            // Splice the timings into the summary object.
            let timed = format!(
                "{},\"queue_ms\":{queue_ms:.3},\"run_ms\":{run_ms:.3}}}",
                &body[..body.len() - 1]
            );
            let _ = respond_json(&mut stream, 200, &timed);
        }
        Err(reason) => {
            let _ = respond_json(&mut stream, 500, &error_body(&reason));
        }
    }
}

fn run_attack_job(
    spec: JobSpec,
    mut stream: TcpStream,
    queued_at: Instant,
    ctx: &Ctx,
    replied: &Cell<bool>,
) {
    let queue_ms = queued_at.elapsed().as_secs_f64() * 1e3;

    // Materialize the cloud: inline if supplied, else a synthetic indoor
    // scene normalized the way the victim expects. A transfer objective
    // also gets the penalty network's own view of the same scene (both
    // views preserve point order, so the shared color variable is
    // sound); inline clouds arrive pre-normalized, so the penalty
    // network sees the surrogate's view there.
    let view_of = |scene: &_, kind: ModelKind| {
        CloudTensors::from_cloud(&match kind {
            ModelKind::PointNet => normalize::pointnet_view(scene),
            ModelKind::ResGcn => normalize::resgcn_view(scene),
        })
    };
    let (cloud, penalty_view) = match &spec.cloud {
        Some(cloud) => (cloud.clone(), None),
        None => {
            let scene = SceneGenerator::indoor(IndoorSceneConfig::with_points(spec.points))
                .generate(spec.seed);
            let penalty =
                spec.objective.needs_penalty_model().then(|| view_of(&scene, spec.model.other()));
            (view_of(&scene, spec.model), penalty)
        }
    };

    let mut seat = ctx.seats.checkout(spec.model, cloud.len());
    let was_warm = seat.is_warm();
    let budget = spec.threads.clamp(1, ctx.runtime.threads().max(1));
    let rt = ctx.runtime.clone().with_budget(budget);
    let mut rng = StdRng::seed_from_u64(spec.seed);

    let sink = spec.stream.then(|| {
        stream.try_clone().ok().map(|clone| Arc::new(SocketSink { stream: Mutex::new(clone) }))
    });
    let sink = sink.flatten();
    let observer = match &sink {
        Some(sink) => {
            // A failed write means the client left; run anyway so the
            // seat still warms up.
            replied.set(true);
            let _ = begin_jsonl_stream(&mut stream);
            let meta = format!(
                "{{\"type\":\"meta\",\"schema\":\"colper-trace-v1\",\"attacks\":1,\
                 \"model\":\"{}\",\"points\":{},\"max_steps\":{}}}",
                spec.model.name(),
                cloud.len(),
                spec.steps,
            );
            let _ = writeln!(stream, "{meta}");
            let _ = stream.flush();
            Observer::with_sink(Arc::clone(sink) as Arc<dyn StepSink>)
        }
        None => Observer::disabled(),
    };

    let run_started = Instant::now();
    let mut session = AttackSession::new(spec.attack_config()).runtime(&rt).observer(&observer);
    if spec.objective.needs_penalty_model() {
        let penalty: &dyn colper_models::SegmentationModel = match spec.model.other() {
            ModelKind::PointNet => &ctx.zoo.pointnet,
            ModelKind::ResGcn => &ctx.zoo.resgcn,
        };
        session = session.penalty_model(penalty);
        if let Some(view) = &penalty_view {
            session = session.penalty_view(view);
        }
    }
    let result = match spec.model {
        ModelKind::PointNet => {
            session.run_with_rng_seated(&ctx.zoo.pointnet, &cloud, &mut rng, &mut seat)
        }
        ModelKind::ResGcn => {
            session.run_with_rng_seated(&ctx.zoo.resgcn, &cloud, &mut rng, &mut seat)
        }
    };
    let run_ms = run_started.elapsed().as_secs_f64() * 1e3;

    ctx.seats.checkin(spec.model, cloud.len(), seat);
    ServiceStats::incr(&ctx.stats.completed);
    if was_warm {
        ServiceStats::incr(&ctx.stats.warm_starts);
    }

    let body = result_json(&spec, &result, was_warm, queue_ms, run_ms);
    replied.set(true);
    if spec.stream {
        // The head already went out; append the result as the final
        // JSONL line and let Connection: close end the stream.
        let _ = writeln!(stream, "{{\"type\":\"result\",{}", &body[1..]);
        let _ = stream.flush();
    } else {
        let _ = respond_json(&mut stream, 200, &body);
    }
}

fn result_json(
    spec: &JobSpec,
    result: &AttackResult,
    warm_start: bool,
    queue_ms: f64,
    run_ms: f64,
) -> String {
    format!(
        concat!(
            "{{\"model\":\"{}\",\"objective\":\"{}\",\"points\":{},\"steps_run\":{},",
            "\"converged\":{},",
            "\"success_metric\":{},\"l2_sq\":{},\"attacked_points\":{},\"restarts\":{},",
            "\"warm_start\":{},\"queue_ms\":{:.3},\"run_ms\":{:.3}}}"
        ),
        spec.model.name(),
        spec.objective.id(),
        spec.effective_points(),
        result.steps_run,
        result.converged,
        jf(result.success_metric),
        jf(result.l2_sq),
        result.attacked_points,
        result.restarts,
        warm_start,
        queue_ms,
        run_ms,
    )
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::io::Read as _;

    /// A job runner that panics on seed 13 and runs every other job.
    fn panics_on_seed_13(job: Job, ctx: &Ctx, replied: &Cell<bool>) {
        if matches!(&job.spec, Spec::Attack(spec) if spec.seed == 13) {
            panic!("injected job panic");
        }
        run_job(job, ctx, replied)
    }

    #[test]
    fn a_panicking_job_gets_a_500_and_its_worker_serves_the_next() {
        let ctx = Ctx::new(&ServeConfig { threads: 1, ..ServeConfig::default() });
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let addr = listener.local_addr().unwrap();
        let mut clients = Vec::new();
        for seed in [13, 1] {
            clients.push(TcpStream::connect(addr).unwrap());
            let (stream, _) = listener.accept().unwrap();
            let body = format!(r#"{{"points":32,"steps":1,"seed":{seed}}}"#);
            let spec = JobSpec::from_json(&Json::parse(&body).unwrap()).unwrap();
            let job = Job { spec: Spec::Attack(spec), stream, queued_at: Instant::now() };
            assert!(ctx.queue.push(Priority::Interactive, job).is_ok());
        }
        ctx.queue.close();

        // One worker drains both jobs: the first panics, the second runs.
        worker_loop(&ctx, panics_on_seed_13);

        let mut answers = clients.into_iter().map(|mut client| {
            let mut answer = String::new();
            client.read_to_string(&mut answer).unwrap();
            answer
        });
        let panicked = answers.next().unwrap();
        assert!(panicked.starts_with("HTTP/1.1 500"), "{panicked}");
        assert!(panicked.contains("panicked"), "{panicked}");
        let served = answers.next().unwrap();
        assert!(served.starts_with("HTTP/1.1 200"), "{served}");
        assert!(served.contains("\"steps_run\":1"), "{served}");
        assert_eq!(ctx.stats.panicked.load(Ordering::Relaxed), 1);
        assert_eq!(ctx.stats.completed.load(Ordering::Relaxed), 1);
    }
}
