//! The job service: accept loop, connection handling, job workers, and
//! graceful drain.
//!
//! Threading model: one accept thread spawning one (detached, bounded by
//! read timeouts) thread per connection, plus a fixed pool of job workers
//! popping the bounded [`JobQueue`]. Connection threads only touch the
//! registry and queue under short lock holds; all solving happens on the
//! workers, each of which owns a [`SessionCache`] so repeated jobs at the
//! same scale skip kernel construction entirely.
//!
//! Shutdown is a two-stage drain. Stage one (`POST /admin/shutdown` or
//! [`ServerHandle::initiate_drain`]) closes the queue: new submissions get
//! `503`, but workers keep running until every queued and in-flight job
//! has finished, and status polls keep working throughout. Stage two
//! ([`ServerHandle::shutdown`] / [`ServerHandle::wait`]) joins the
//! workers, then stops the accept loop (a loopback self-connect unblocks
//! `accept`) and reports what the drain completed.

use std::io::BufReader;
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, Mutex, OnceLock};
use std::time::{Duration, Instant};

use ilt_grid::BitGrid;
use ilt_layout::generate_clip;
use ilt_telemetry as tele;
use ilt_telemetry::fault::{self, points};
use ilt_tile::{Partition, TileExecutor};

use ilt_core::experiment::Method;
use ilt_core::Session;

use crate::cache::SessionCache;
use crate::debug::{self, JobDebug};
use crate::http::{Request, Response};
use crate::job::{
    method_name, CaseSource, EcoEdit, IncrementalStats, JobMetrics, JobOutcome, JobRecord, JobSpec,
    JobStatus, MaskSummary,
};
use crate::queue::{JobQueue, PushError, RETRY_AFTER_SECONDS};
use crate::slo::{SloConfig, SloEngine};

/// The process-wide SLO burn-rate engine over the daemon's objectives,
/// fed by every job completion.
static SLO: OnceLock<SloEngine> = OnceLock::new();

fn slo_engine() -> &'static SloEngine {
    SLO.get_or_init(|| SloEngine::new(SloConfig::serve_default()))
}

/// Idle keep-alive connections are dropped after this long, which also
/// bounds how long a connection thread can outlive the server.
const READ_TIMEOUT: Duration = Duration::from_secs(5);

/// Finished jobs are evicted oldest-first once the registry holds this
/// many records, so a long-lived server's memory stays bounded.
const MAX_JOBS_RETAINED: usize = 4096;

/// Server configuration (see the `ILT_SERVE_*` environment variables).
#[derive(Debug, Clone)]
pub struct ServeConfig {
    /// Bind address (`ILT_SERVE_ADDR`, default `127.0.0.1:8117`; use port
    /// 0 to let the OS pick, e.g. in tests).
    pub addr: String,
    /// Queue depth for admission control (`ILT_SERVE_QUEUE`, default 64).
    pub queue_depth: usize,
    /// Job worker threads (`ILT_SERVE_WORKERS`, default 1).
    pub workers: usize,
    /// Worker threads for per-tile execution inside each job
    /// (`ILT_WORKERS`, default 1).
    pub tile_workers: usize,
}

impl Default for ServeConfig {
    fn default() -> Self {
        ServeConfig {
            addr: "127.0.0.1:8117".to_string(),
            queue_depth: 64,
            workers: 1,
            tile_workers: 1,
        }
    }
}

impl ServeConfig {
    /// Reads the configuration from the environment, falling back to the
    /// defaults above and warning on stderr about unparsable values.
    pub fn from_env() -> Self {
        let defaults = ServeConfig::default();
        ServeConfig {
            addr: std::env::var("ILT_SERVE_ADDR").unwrap_or(defaults.addr),
            queue_depth: tele::env_or_warn("ILT_SERVE_QUEUE", defaults.queue_depth).max(1),
            workers: tele::env_or_warn("ILT_SERVE_WORKERS", defaults.workers).max(1),
            tile_workers: tele::env_or_warn("ILT_WORKERS", defaults.tile_workers).max(1),
        }
    }
}

/// A job plus the timing state the registry tracks alongside it. The
/// job's trace id lives on the record itself (`record.trace`), assigned
/// at admission so even a job that never reaches a worker is addressable
/// in `/debug/jobs/{id}/trace`.
#[derive(Debug)]
struct Tracked {
    record: JobRecord,
    enqueued: Instant,
    deadline: Option<Instant>,
}

/// State shared by the accept loop, connection threads, and workers.
struct Shared {
    config: ServeConfig,
    addr: SocketAddr,
    jobs: Mutex<Vec<Tracked>>,
    queue: JobQueue,
    next_id: AtomicU64,
    /// Submissions refused, queue draining, workers exit when dry.
    draining: AtomicBool,
    /// Accept loop exits (set only after workers are joined).
    stopped: AtomicBool,
}

impl Shared {
    fn lock_jobs(&self) -> std::sync::MutexGuard<'_, Vec<Tracked>> {
        self.jobs.lock().unwrap_or_else(|e| e.into_inner())
    }

    fn with_job<R>(&self, id: u64, f: impl FnOnce(&mut Tracked) -> R) -> Option<R> {
        self.lock_jobs()
            .iter_mut()
            .find(|t| t.record.id == id)
            .map(f)
    }
}

/// What the drain finished with, returned by [`ServerHandle::shutdown`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct DrainSummary {
    /// Jobs that reached `done`.
    pub completed: u64,
    /// Jobs that reached `failed`.
    pub failed: u64,
    /// Jobs still `queued`/`running` after the drain — always 0 unless a
    /// worker itself died.
    pub unfinished: u64,
}

/// Failures starting the server.
#[derive(Debug)]
pub enum ServeError {
    /// Could not bind the listen address.
    Bind(std::io::Error),
}

impl std::fmt::Display for ServeError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ServeError::Bind(e) => write!(f, "cannot bind listen address: {e}"),
        }
    }
}

impl std::error::Error for ServeError {}

/// A running server. Dropping the handle leaves the server running
/// (detached); call [`shutdown`](Self::shutdown) or [`wait`](Self::wait)
/// to join it.
pub struct ServerHandle {
    shared: Arc<Shared>,
    accept: Option<std::thread::JoinHandle<()>>,
    workers: Vec<std::thread::JoinHandle<()>>,
}

impl ServerHandle {
    /// The bound address (resolves port 0 to the actual port).
    pub fn addr(&self) -> SocketAddr {
        self.shared.addr
    }

    /// Starts the drain: submissions now get `503` and workers exit once
    /// the queue is dry. Idempotent; status polls keep working.
    pub fn initiate_drain(&self) {
        initiate_drain(&self.shared);
    }

    /// Drains and joins everything: initiates the drain, waits for every
    /// queued and in-flight job to finish, stops the accept loop.
    pub fn shutdown(mut self) -> DrainSummary {
        self.initiate_drain();
        self.finish()
    }

    /// Like [`shutdown`](Self::shutdown) but without initiating the drain
    /// itself — blocks until something else does (`POST /admin/shutdown`).
    pub fn wait(mut self) -> DrainSummary {
        self.finish()
    }

    fn finish(&mut self) -> DrainSummary {
        for worker in self.workers.drain(..) {
            let _ = worker.join();
        }
        self.shared.stopped.store(true, Ordering::SeqCst);
        // Unblock `accept` so the loop observes the stop flag.
        let _ = TcpStream::connect(self.shared.addr);
        if let Some(accept) = self.accept.take() {
            let _ = accept.join();
        }
        let mut summary = DrainSummary {
            completed: 0,
            failed: 0,
            unfinished: 0,
        };
        for tracked in self.shared.lock_jobs().iter() {
            match tracked.record.status {
                JobStatus::Done(_) => summary.completed += 1,
                JobStatus::Failed(_) => summary.failed += 1,
                JobStatus::Queued | JobStatus::Running => summary.unfinished += 1,
            }
        }
        summary
    }
}

fn initiate_drain(shared: &Shared) {
    if shared.draining.swap(true, Ordering::SeqCst) {
        return;
    }
    shared.queue.close();
}

/// Binds the address and starts the accept loop and worker pool.
///
/// # Errors
///
/// [`ServeError::Bind`] if the listen address is unavailable.
pub fn start(config: ServeConfig) -> Result<ServerHandle, ServeError> {
    let listener = TcpListener::bind(&config.addr).map_err(ServeError::Bind)?;
    let addr = listener.local_addr().map_err(ServeError::Bind)?;
    let shared = Arc::new(Shared {
        queue: JobQueue::new(config.queue_depth),
        config,
        addr,
        jobs: Mutex::new(Vec::new()),
        next_id: AtomicU64::new(1),
        draining: AtomicBool::new(false),
        stopped: AtomicBool::new(false),
    });
    let workers = (0..shared.config.workers)
        .map(|i| {
            let shared = Arc::clone(&shared);
            std::thread::Builder::new()
                .name(format!("ilt-serve-worker-{i}"))
                .spawn(move || worker_loop(&shared))
                .expect("cannot spawn worker thread")
        })
        .collect();
    let accept = {
        let shared = Arc::clone(&shared);
        std::thread::Builder::new()
            .name("ilt-serve-accept".to_string())
            .spawn(move || accept_loop(&listener, &shared))
            .expect("cannot spawn accept thread")
    };
    Ok(ServerHandle {
        shared,
        accept: Some(accept),
        workers,
    })
}

fn accept_loop(listener: &TcpListener, shared: &Arc<Shared>) {
    for stream in listener.incoming() {
        if shared.stopped.load(Ordering::SeqCst) {
            break;
        }
        let Ok(stream) = stream else { continue };
        let shared = Arc::clone(shared);
        // Detached: bounded by READ_TIMEOUT, not joined on shutdown.
        let _ = std::thread::Builder::new()
            .name("ilt-serve-conn".to_string())
            .spawn(move || handle_connection(&shared, stream));
    }
}

fn handle_connection(shared: &Shared, stream: TcpStream) {
    let _ = stream.set_read_timeout(Some(READ_TIMEOUT));
    let Ok(read_half) = stream.try_clone() else {
        return;
    };
    let mut reader = BufReader::new(read_half);
    let mut writer = stream;
    loop {
        match Request::read_from(&mut reader) {
            Ok(None) => break,
            Ok(Some(request)) => {
                let close = request.wants_close();
                let mut span = tele::span(tele::names::REQUEST);
                let response = route(shared, &request);
                span.add_field("method", request.method.as_str());
                span.add_field("path", request.path.as_str());
                span.add_field("status", u64::from(response.status));
                drop(span);
                if fault::should_fire(points::SERVE_CONN_DROP) {
                    // Hang up without answering, as a flaky network would.
                    tele::counter_add("serve.http.conn_dropped", 1);
                    break;
                }
                if response.write_to(&mut writer).is_err() {
                    break;
                }
                if close {
                    break;
                }
            }
            Err(error) => {
                // Answer with the typed status when the socket still
                // works (400/408/411/413/431), then close; pure IO
                // failures get a silent close — nobody is listening.
                if let (Some(status), Some(message)) = (error.status(), error.client_message()) {
                    tele::counter_add("serve.http.rejected", 1);
                    let _ = Response::error(status, message)
                        .with_header("Connection", "close".to_string())
                        .write_to(&mut writer);
                }
                break;
            }
        }
    }
    tele::flush_thread();
}

fn route(shared: &Shared, request: &Request) -> Response {
    tele::counter_add("serve.http.requests", 1);
    match (request.method.as_str(), request.path.as_str()) {
        ("GET", "/healthz") => health(shared),
        ("GET", "/metrics") => metrics(),
        ("POST", "/v1/jobs") => submit(shared, &request.body),
        ("POST", "/admin/shutdown") => {
            initiate_drain(shared);
            Response::json(200, "{\"status\":\"draining\"}".to_string())
        }
        ("GET", path) if path.starts_with("/v1/jobs/") => job_status(shared, path),
        ("GET", "/debug/queue") => debug_queue(shared),
        ("GET", "/debug/caches") => debug_caches(),
        ("GET", "/debug/store") => debug_store(),
        ("GET", "/debug/slo") => Response::json(200, slo_engine().to_json()),
        ("GET", "/debug/profile") => Response::json(200, debug::render_profile()),
        ("GET", "/debug/memory") => debug_memory(shared),
        ("GET", path) if path.starts_with("/debug/jobs/") => debug_job_trace(shared, path),
        (
            _,
            "/healthz" | "/metrics" | "/v1/jobs" | "/admin/shutdown" | "/debug/queue"
            | "/debug/caches" | "/debug/store" | "/debug/slo" | "/debug/profile" | "/debug/memory",
        ) => Response::error(405, "method not allowed"),
        _ => Response::error(404, "no such resource"),
    }
}

/// `GET /metrics`: the telemetry snapshot (counters, gauges, histogram
/// summaries) plus the SLO burn-rate series. The span store's occupancy
/// and drop count, the process RSS and the tracking allocator's totals
/// are written straight into the snapshot's maps — not through
/// `gauge_set`, a no-op while collection is off — so one writer renders
/// them all (`obs.spans_buffered` becomes `ilt_obs_spans_buffered`,
/// `alloc.allocated_bytes` becomes `ilt_alloc_allocated_bytes_total`).
fn metrics() -> Response {
    let mut snapshot = tele::snapshot();
    let gauges = &mut snapshot.gauges;
    let counters = &mut snapshot.counters;
    gauges.insert("obs.spans_buffered".into(), tele::flight::len() as f64);
    counters.insert("obs.spans_dropped".into(), tele::flight::spans_dropped());
    if let Some(rss) = ilt_prof::rss::read() {
        gauges.insert("process.rss_bytes".into(), rss.current_bytes as f64);
        gauges.insert("process.peak_rss_bytes".into(), rss.peak_bytes as f64);
    }
    let alloc = ilt_prof::alloc::stats();
    if alloc.enabled {
        gauges.insert("alloc.live_bytes".into(), alloc.live_bytes as f64);
        counters.insert("alloc.allocated_bytes".into(), alloc.allocated_bytes);
        counters.insert("alloc.freed_bytes".into(), alloc.freed_bytes);
    }
    let mut body = snapshot.to_prometheus();
    body.push_str(&slo_engine().to_prometheus());
    Response::text(200, body)
}

/// `GET /debug/queue`: one short registry lock to excerpt the job list,
/// then render outside it.
fn debug_queue(shared: &Shared) -> Response {
    const MAX_JOBS_LISTED: usize = 64;
    let jobs: Vec<JobDebug> = {
        let jobs = shared.lock_jobs();
        jobs.iter()
            .rev()
            .take(MAX_JOBS_LISTED)
            .map(|t| JobDebug {
                id: t.record.id,
                trace: t.record.trace,
                status: t.record.status.name(),
                target: t.record.spec.target_label(),
                method: method_name(t.record.spec.method),
                age_ms: t.enqueued.elapsed().as_millis() as u64,
            })
            .collect()
    };
    Response::json(
        200,
        debug::render_queue(
            shared.queue.len(),
            shared.queue.depth(),
            shared.draining.load(Ordering::SeqCst),
            &jobs,
        ),
    )
}

/// `GET /debug/caches`: process-wide cache sizes plus hit/miss counters.
fn debug_caches() -> Response {
    let snapshot = tele::snapshot();
    Response::json(
        200,
        debug::render_caches(
            ilt_litho::cached_bank_count(),
            ilt_litho::cached_bank_bytes(),
            ilt_fft::cached_plan_count(),
            ilt_fft::cached_plan_bytes(),
            &ilt_store::shared_store().stats(),
            &snapshot.counters,
            &snapshot.gauges,
        ),
    )
}

/// `GET /debug/store`: occupancy and hit/miss statistics of the shared
/// mask store, plus its most recently touched entries.
fn debug_store() -> Response {
    let store = ilt_store::shared_store();
    Response::json(
        200,
        debug::render_store(
            ilt_store::MaskStore::enabled(),
            &store.stats(),
            &store.entries(32),
        ),
    )
}

/// `GET /debug/memory`: RSS, allocator counters, and the heaviest
/// allocating traces with their job ids resolved through one short
/// registry lock.
fn debug_memory(shared: &Shared) -> Response {
    let top = ilt_prof::alloc::trace_top(10);
    let trace_jobs: Vec<(u64, Option<u64>)> = {
        let jobs = shared.lock_jobs();
        top.iter()
            .map(|(trace, _, _)| {
                let job = jobs
                    .iter()
                    .find(|t| t.record.trace == *trace)
                    .map(|t| t.record.id);
                (*trace, job)
            })
            .collect()
    };
    Response::json(200, debug::render_memory(&trace_jobs))
}

/// `GET /debug/jobs/{id}/trace`: the job's span tree from the flight
/// recorder. Works for finished and in-flight jobs (an in-flight job
/// shows the spans closed so far).
fn debug_job_trace(shared: &Shared, path: &str) -> Response {
    let raw = &path["/debug/jobs/".len()..];
    let Some(raw_id) = raw.strip_suffix("/trace") else {
        return Response::error(404, "no such resource");
    };
    let Ok(id) = raw_id.parse::<u64>() else {
        return Response::error(400, "job ids are decimal integers");
    };
    let Some((trace, status)) = shared.with_job(id, |t| (t.record.trace, t.record.status.name()))
    else {
        return Response::error(404, "no such job");
    };
    // Flush this connection thread's buffer only; worker threads flush at
    // the end of every job, so finished jobs are fully visible.
    tele::flush_thread();
    let spans = tele::flight::spans(Some(trace));
    Response::json(200, debug::render_job_trace(id, trace, status, &spans))
}

fn health(shared: &Shared) -> Response {
    let status = if shared.draining.load(Ordering::SeqCst) {
        "draining"
    } else {
        "ok"
    };
    Response::json(
        200,
        format!(
            "{{\"status\":\"{status}\",\"queue_depth\":{},\"queue_capacity\":{},\"workers\":{}}}",
            shared.queue.len(),
            shared.queue.depth(),
            shared.config.workers
        ),
    )
}

fn submit(shared: &Shared, body: &[u8]) -> Response {
    if shared.draining.load(Ordering::SeqCst) {
        return Response::error(503, "server is draining; submit elsewhere");
    }
    let Ok(body) = std::str::from_utf8(body) else {
        return Response::error(400, "body is not UTF-8");
    };
    let spec = match JobSpec::parse(body) {
        Ok(spec) => spec,
        Err(message) => return Response::error(400, &message),
    };
    let id = shared.next_id.fetch_add(1, Ordering::SeqCst);
    let now = Instant::now();
    {
        let mut jobs = shared.lock_jobs();
        if jobs.len() >= MAX_JOBS_RETAINED {
            if let Some(oldest_finished) = jobs
                .iter()
                .position(|t| matches!(t.record.status, JobStatus::Done(_) | JobStatus::Failed(_)))
            {
                jobs.remove(oldest_finished);
            }
        }
        jobs.push(Tracked {
            record: JobRecord {
                id,
                trace: tele::next_trace_id().0,
                spec: spec.clone(),
                status: JobStatus::Queued,
            },
            enqueued: now,
            deadline: spec.timeout_ms.map(|ms| now + Duration::from_millis(ms)),
        });
    }
    // The injected overflow takes the exact production rejection path —
    // 429 body, Retry-After hint, and registry cleanup included.
    let pushed = if fault::should_fire(points::SERVE_QUEUE_FULL) {
        Err(PushError::Full)
    } else {
        shared.queue.push(id)
    };
    match pushed {
        Ok(position) => {
            tele::counter_add("serve.jobs.accepted", 1);
            tele::gauge_set("serve.queue.depth", shared.queue.len() as f64);
            Response::json(
                202,
                format!("{{\"id\":\"{id}\",\"status\":\"queued\",\"position\":{position}}}"),
            )
        }
        Err(reason) => {
            shared.lock_jobs().retain(|t| t.record.id != id);
            match reason {
                PushError::Full => {
                    tele::counter_add("serve.jobs.rejected_full", 1);
                    Response::error(429, "job queue is full; retry later")
                        .with_header("Retry-After", RETRY_AFTER_SECONDS.to_string())
                }
                PushError::Closed => Response::error(503, "server is draining; submit elsewhere"),
            }
        }
    }
}

fn job_status(shared: &Shared, path: &str) -> Response {
    let raw = &path["/v1/jobs/".len()..];
    let Ok(id) = raw.parse::<u64>() else {
        return Response::error(400, "job ids are decimal integers");
    };
    match shared.with_job(id, |t| t.record.to_json()) {
        Some(body) => Response::json(200, body),
        None => Response::error(404, "no such job"),
    }
}

fn worker_loop(shared: &Shared) {
    let mut cache = SessionCache::new();
    let executor = TileExecutor::new(shared.config.tile_workers);
    while let Some(id) = shared.queue.pop() {
        run_job(shared, &mut cache, &executor, id);
        tele::flush_thread();
    }
}

fn run_job(shared: &Shared, cache: &mut SessionCache, executor: &TileExecutor, id: u64) {
    let Some((spec, trace, enqueued, deadline)) = shared.with_job(id, |t| {
        t.record.status = JobStatus::Running;
        (
            t.record.spec.clone(),
            t.record.trace,
            t.enqueued,
            t.deadline,
        )
    }) else {
        return; // Submission lost the registry race; nothing to run.
    };
    let picked_up = Instant::now();
    let queue_seconds = enqueued.elapsed().as_secs_f64();
    tele::record_value("serve.job.queue_us", (queue_seconds * 1e6) as u64);
    tele::gauge_set("serve.queue.depth", shared.queue.len() as f64);
    tele::gauge_add("serve.jobs.in_flight", 1.0);
    // The admission-assigned trace flows from here through the session,
    // the tile executor's workers, and the solver loops below; declared
    // before the job span so the span closes (and records) while the
    // trace is still in scope.
    let _trace_scope = tele::trace_scope(Some(tele::TraceId(trace)));
    let mut job_span = tele::span(tele::names::SERVE_JOB);
    job_span.add_field("job", id);
    job_span.add_field("target", spec.target_label());
    job_span.add_field("method", method_name(spec.method));
    job_span.add_field("scale", spec.scale.as_str());
    // Backfill the wait as a queue span, so the trace tree shows queue
    // time next to solve time.
    tele::record_span_at(
        tele::names::QUEUE,
        enqueued,
        picked_up,
        vec![("job", tele::FieldValue::U64(id))],
    );
    let finish = |status: JobStatus| {
        tele::counter_add(
            match status {
                JobStatus::Done(_) => "serve.jobs.completed",
                _ => "serve.jobs.failed",
            },
            1,
        );
        let failed = !matches!(status, JobStatus::Done(_));
        let degraded = matches!(&status, JobStatus::Done(o) if o.tiles_degraded > 0);
        slo_engine().observe_job(
            (enqueued.elapsed().as_secs_f64() * 1e6) as u64,
            failed,
            degraded,
        );
        tele::gauge_add("serve.jobs.in_flight", -1.0);
        shared.with_job(id, |t| t.record.status = status);
    };
    if deadline.is_some_and(|d| Instant::now() > d) {
        finish(JobStatus::Failed(format!(
            "deadline exceeded after {queue_seconds:.3}s in queue"
        )));
        return;
    }
    // Incremental jobs name a prior job as their base; resolve its spec
    // through the registry (the only place job ids mean anything) so the
    // worker can re-derive the base target deterministically.
    let base_spec = match &spec.source {
        CaseSource::Eco { base_job, .. } => match resolve_base(shared, *base_job, &spec) {
            Ok(base) => Some(base),
            Err(message) => {
                finish(JobStatus::Failed(message));
                return;
            }
        },
        _ => None,
    };
    // `serve.deadline` simulates a budget that expires mid-solve: the job
    // passed admission, but the solver's in-loop deadline checks trip on
    // the first iteration.
    let solve_deadline = if fault::should_fire(points::SERVE_DEADLINE) {
        let now = Instant::now();
        Some(now.checked_sub(Duration::from_millis(1)).unwrap_or(now))
    } else {
        deadline
    };
    let started = Instant::now();
    let outcome = {
        // Publish the deadline to this thread and, via the tile
        // executor, to every tile worker, so iteration loops deep in the
        // solvers can stop instead of burning a blown budget.
        let _scope = ilt_telemetry::deadline::scope(solve_deadline);
        catch_unwind(AssertUnwindSafe(|| {
            execute(&spec, base_spec.as_ref(), cache, executor)
        }))
    };
    tele::record_value(
        "serve.job.run_us",
        (started.elapsed().as_secs_f64() * 1e6) as u64,
    );
    let status = match outcome {
        Ok(Ok(mut outcome)) => {
            outcome.queue_seconds = queue_seconds;
            if deadline.is_some_and(|d| Instant::now() > d) {
                JobStatus::Failed("deadline exceeded while solving".to_string())
            } else {
                if outcome.tiles_degraded > 0 {
                    tele::counter_add("serve.jobs.degraded", 1);
                }
                JobStatus::Done(outcome)
            }
        }
        Ok(Err(message)) => JobStatus::Failed(message),
        Err(panic) => JobStatus::Failed(format!("job panicked: {}", panic_message(&panic))),
    };
    finish(status);
}

fn panic_message(panic: &(dyn std::any::Any + Send)) -> &str {
    panic
        .downcast_ref::<&'static str>()
        .copied()
        .or_else(|| panic.downcast_ref::<String>().map(String::as_str))
        .unwrap_or("opaque panic payload")
}

/// Validates and resolves the base job of an incremental submission.
fn resolve_base(shared: &Shared, base_job: u64, spec: &JobSpec) -> Result<JobSpec, String> {
    let Some(base) = shared.with_job(base_job, |t| t.record.spec.clone()) else {
        return Err(format!("base job {base_job} not found"));
    };
    if matches!(base.source, CaseSource::Eco { .. }) {
        return Err(format!(
            "base job {base_job} is itself incremental; chain from a \"case\" or \"layout\" job"
        ));
    }
    if base.method != Method::Ours {
        return Err(format!(
            "base job {base_job} ran method {:?}; incremental re-solves need an \"ours\" base",
            method_name(base.method)
        ));
    }
    if base.scale != spec.scale {
        return Err(format!(
            "scale mismatch: this job is {:?} but base job {base_job} ran at {:?}",
            spec.scale, base.scale
        ));
    }
    // s_max feeds the config fingerprint the mask store keys on: a
    // different hierarchy depth would silently miss every stored tile and
    // run cold, so reject the mismatch instead. `stream` is canonicalised
    // out of the fingerprint (bit-identical masks) and needs no check.
    if base.s_max != spec.s_max {
        return Err(format!(
            "s_max mismatch: this job requests {:?} but base job {base_job} ran with {:?}; \
             stored tiles would not warm-start",
            spec.s_max, base.s_max
        ));
    }
    Ok(base)
}

/// Applies a rectangular edit to a base layout.
fn apply_edit(base: &BitGrid, edit: &EcoEdit) -> Result<BitGrid, String> {
    if edit.x1 > base.width() || edit.y1 > base.height() {
        return Err(format!(
            "edit rect [{}, {}, {}, {}] exceeds the {}x{} clip",
            edit.x0,
            edit.y0,
            edit.x1,
            edit.y1,
            base.width(),
            base.height()
        ));
    }
    let mut edited = base.clone();
    for y in edit.y0..edit.y1 {
        for x in edit.x0..edit.x1 {
            edited.set(x, y, edit.fill);
        }
    }
    Ok(edited)
}

/// Runs one job on this worker's session: resolve the target layout, run
/// the requested flow, inspect the result over the whole clip. Incremental
/// jobs re-derive their base job's target (resolved by the caller),
/// apply the edit, and warm-start from the shared mask store; plain
/// `ours` jobs populate the store so later edits can warm-start from them.
fn execute(
    spec: &JobSpec,
    base: Option<&JobSpec>,
    cache: &mut SessionCache,
    executor: &TileExecutor,
) -> Result<JobOutcome, String> {
    let session = cache
        .session_with(&spec.scale, spec.s_max)
        .map_err(|e| format!("session setup failed: {e}"))?;
    if let CaseSource::Eco { edit, .. } = &spec.source {
        let base = base.expect("eco jobs resolve their base before execution");
        let base_target = resolve_target(base, session.config());
        let edited = apply_edit(&base_target, edit)?;
        let outcome = session
            .run_incremental(&base_target, &edited, executor)
            .map_err(flow_error)?;
        tele::record_value("serve.job.tiles_reused", outcome.tiles_reused as u64);
        tele::record_value("serve.job.tiles_resolved", outcome.tiles_resolved as u64);
        let stats = IncrementalStats {
            tiles_reused: outcome.tiles_reused,
            tiles_resolved: outcome.tiles_resolved,
            hit_ratio: outcome.hit_ratio(),
        };
        return summarize(session, &edited, &outcome.flow, Some(stats));
    }
    let target = resolve_target(spec, session.config());
    let flow = if spec.method == Method::Ours {
        session.run_and_store(&target, executor)
    } else {
        session.run_method(spec.method, &target, executor)
    }
    .map_err(flow_error)?;
    summarize(session, &target, &flow, None)
}

fn flow_error(e: ilt_core::CoreError) -> String {
    if e.is_deadline_exceeded() {
        "deadline exceeded while solving".to_string()
    } else {
        format!("flow failed: {e}")
    }
}

/// Inspects a finished flow over the whole clip and assembles the outcome.
fn summarize(
    session: &Session,
    target: &BitGrid,
    flow: &ilt_core::flows::FlowResult,
    incremental: Option<IncrementalStats>,
) -> Result<JobOutcome, String> {
    let partition = Partition::new(target.width(), target.height(), session.config().partition)
        .map_err(|e| format!("partitioning failed: {e}"))?;
    let lines = partition.stitch_lines();
    let (quality, stitch) = session
        .inspect_mask(&lines, target, &flow.mask)
        .map_err(|e| format!("inspection failed: {e}"))?;
    let binary = flow.mask.threshold(0.5);
    let on_pixels = binary.count_ones();
    Ok(JobOutcome {
        metrics: JobMetrics {
            l2: quality.l2,
            pvband: quality.pvband,
            stitch: stitch.total,
            tat_seconds: flow.wall_seconds,
        },
        mask: MaskSummary {
            width: binary.width(),
            height: binary.height(),
            on_pixels,
            coverage: on_pixels as f64 / binary.len() as f64,
        },
        incremental,
        tiles_degraded: flow.degraded.len(),
        queue_seconds: 0.0, // filled in by the caller, which knows the wait
    })
}

/// Materialises the job's target layout at the session's clip size.
fn resolve_target(spec: &JobSpec, config: &ilt_core::ExperimentConfig) -> BitGrid {
    match &spec.source {
        // Suite case k is, by construction, the generator at seed k.
        CaseSource::Suite(id) => generate_clip(&config.generator, *id as u64),
        CaseSource::Inline(layout) => {
            let mut generator = config.generator;
            if let Some(w) = layout.wire_width {
                generator.wire_width = w;
            }
            if let Some(s) = layout.wire_space {
                generator.wire_space = s;
            }
            if let Some(f) = layout.track_fill {
                generator.track_fill = f;
            }
            // Panics on inconsistent geometry are caught by the job runner
            // and reported as a failed job, not a dead worker.
            generator.validate();
            generate_clip(&generator, layout.seed)
        }
        // Eco targets resolve through their base job's spec; `execute`
        // never passes an eco source here.
        CaseSource::Eco { .. } => unreachable!("eco targets resolve through their base job"),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn suite_target_matches_the_benchmark_suite() {
        let config = ilt_core::ExperimentConfig::test_tiny();
        let spec = JobSpec::parse(r#"{"case": 2}"#).unwrap();
        let target = resolve_target(&spec, &config);
        let suite = ilt_layout::suite_of_size(&config.generator, 2);
        assert_eq!(target, suite[1].target);
    }

    #[test]
    fn inline_overrides_change_the_layout() {
        let config = ilt_core::ExperimentConfig::test_tiny();
        let base = JobSpec::parse(r#"{"layout": {"seed": 3}}"#).unwrap();
        let wide = JobSpec::parse(r#"{"layout": {"seed": 3, "wire_width": 11}}"#).unwrap();
        let a = resolve_target(&base, &config);
        let b = resolve_target(&wide, &config);
        assert_eq!(a.width(), config.clip);
        assert_eq!(b.width(), config.clip);
        assert_ne!(a, b);
    }
}
