//! The daemon: TCP accept loop, connection threads, warm-pool workers,
//! and the shutdown/persistence choreography tying the other modules
//! together.
//!
//! Life of a `submit`: the connection thread registers a job, parks the
//! spec, and enqueues a ticket on the [`AdmissionQueue`]; a worker pops
//! the ticket (fairly interleaved across clients), records its admission
//! wait, resolves the benchmark's [`CellSetup`] (built once per
//! `(benchmark, scale, config)` and reused), and drives the cell through
//! the shared [`BatchServer`] — which serves repeats from its LRU cache
//! and memoizes deterministic errors. The outcome lands in the
//! [`JobTable`], where `poll`/`wait`/`trace` find it.

use crate::admission::{AdmissionQueue, Ticket};
use crate::jobs::{JobState, JobTable, JobTraceError};
use crate::persist;
use crate::wire::{
    error_frame, hello_frame, metrics_to_json, ok_frame, parse_request, sim_error_frame,
    write_done_frame, ErrorKind, Request, SubmitSpec,
};
use gpu_sim::sweep::CellOutcome;
use gpu_sim::{BatchServer, SimError, Stats};
use gpu_trace::json::Json;
use gpu_trace::MetricsRegistry;
use std::collections::HashMap;
use std::io::{BufRead, BufReader, Read, Write};
use std::net::{Shutdown, SocketAddr, TcpListener, TcpStream};
use std::path::PathBuf;
use std::sync::atomic::{AtomicBool, AtomicU64, AtomicUsize, Ordering};
use std::sync::{Arc, Mutex};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};
use workloads::{CellSetup, RunReport};

/// Idle-read poll interval on connection sockets; bounds how long a
/// connection thread takes to notice a shutdown.
const READ_POLL: Duration = Duration::from_millis(200);

/// Longest request line, newline excluded, a connection may send. The
/// largest legitimate request, a `submit`, is under 300 bytes; a peer
/// that sends more without a newline gets one `bad_request` frame and is
/// disconnected, so it cannot grow the daemon's memory.
pub const MAX_REQUEST_BYTES: usize = 64 << 10;

/// Most bytes an over-long request's peer may still have in flight when
/// the daemon disconnects it. They are read and discarded first, so the
/// close is an orderly FIN after the error frame, not a reset that could
/// destroy the frame before the peer reads it.
const DRAIN_BYTES: u64 = 4 << 20;

/// Daemon configuration (the `gpu-serve` binary's flags).
#[derive(Clone, Debug)]
pub struct ServeConfig {
    /// TCP port on 127.0.0.1; `0` binds an ephemeral port.
    pub port: u16,
    /// Warm-pool width; `0` uses the sweep default.
    pub jobs: usize,
    /// Retries per crashed cell.
    pub retries: u32,
    /// Cache persistence path; `None` disables persistence.
    pub cache_file: Option<PathBuf>,
    /// LRU bound on cached results; `None` is unbounded.
    pub cache_max_entries: Option<usize>,
    /// Fair (round-robin over clients) vs FCFS admission.
    pub fair: bool,
    /// Memoize deterministic typed errors. On by default: the wire
    /// exposes only deterministic budget knobs, so every daemon config
    /// is budget-free in the wall-clock sense.
    pub cache_errors: bool,
    /// Concurrent-connection cap; excess connects get an `overloaded`
    /// error frame and are dropped.
    pub max_connections: usize,
    /// Persist the cache every N completed jobs (`0` = only at
    /// shutdown). Ignored without `cache_file`.
    pub persist_every: u64,
}

impl Default for ServeConfig {
    fn default() -> Self {
        ServeConfig {
            port: 0,
            jobs: 0,
            retries: 1,
            cache_file: None,
            cache_max_entries: Some(4096),
            fair: true,
            cache_errors: true,
            max_connections: 64,
            persist_every: 0,
        }
    }
}

/// Setup identity: benchmark + scale + the exact base config hashes.
type SetupKey = (String, String, u64, u64);

struct Shared {
    cfg: ServeConfig,
    server: BatchServer<RunReport>,
    queue: AdmissionQueue,
    jobs: JobTable,
    /// Submitted specs parked until a worker claims the job.
    specs: Mutex<HashMap<u64, SubmitSpec>>,
    /// Built workload setups, reused across jobs that share a cell base.
    setups: Mutex<HashMap<SetupKey, Arc<CellSetup>>>,
    /// Admission/daemon metrics (the server keeps its own registry).
    registry: Mutex<MetricsRegistry>,
    stop: AtomicBool,
    live_conns: AtomicUsize,
    completed: AtomicU64,
    addr: SocketAddr,
}

impl Shared {
    fn persist_now(&self) {
        let Some(path) = &self.cfg.cache_file else {
            return;
        };
        let entries: Vec<_> = self
            .server
            .export_cache()
            .into_iter()
            .filter_map(|(k, v)| v.ok().map(|r| (k, r)))
            .collect();
        if let Err(e) = persist::store(path, &entries) {
            eprintln!("gpu-serve: cache persist to {} failed: {e}", path.display());
        }
    }

    /// Flips the stop flag, fails every still-queued job, and pokes the
    /// accept loop awake. Idempotent.
    fn initiate_shutdown(&self) {
        if self.stop.swap(true, Ordering::SeqCst) {
            return;
        }
        for ticket in self.queue.close() {
            self.jobs.complete(
                ticket.job,
                Err(SimError::Cancelled {
                    cycle: 0,
                    stats: Box::new(Stats::default()),
                }),
            );
        }
        // Unblock the blocking accept() so its thread can observe `stop`.
        let _ = TcpStream::connect(self.addr);
    }
}

/// A running daemon: its bound address and the threads to join.
pub struct DaemonHandle {
    /// The loopback address the daemon is listening on.
    pub addr: SocketAddr,
    shared: Arc<Shared>,
    accept: Option<JoinHandle<()>>,
    workers: Vec<JoinHandle<()>>,
}

impl DaemonHandle {
    /// Blocks until the daemon shuts down (via the wire `shutdown` op),
    /// then persists the cache.
    pub fn wait(mut self) {
        self.join_all();
    }

    /// Initiates shutdown locally and blocks until drained.
    pub fn shutdown(mut self) {
        self.shared.initiate_shutdown();
        self.join_all();
    }

    fn join_all(&mut self) {
        if let Some(h) = self.accept.take() {
            let _ = h.join();
        }
        for h in self.workers.drain(..) {
            let _ = h.join();
        }
        self.shared.persist_now();
    }

    /// The shared batch server's metrics (cache hits/misses, contention).
    pub fn server_metrics(&self) -> MetricsRegistry {
        self.shared.server.metrics()
    }
}

/// Binds the listener, loads the persisted cache, and spawns the accept
/// loop plus the warm-pool workers.
pub fn serve(cfg: ServeConfig) -> std::io::Result<DaemonHandle> {
    let listener = TcpListener::bind(("127.0.0.1", cfg.port))?;
    let addr = listener.local_addr()?;

    let mut server = BatchServer::new(cfg.jobs, cfg.retries);
    if let Some(limit) = cfg.cache_max_entries {
        server = server.with_cache_limit(limit);
    }
    if cfg.cache_errors {
        server = server.with_error_cache(SimError::is_deterministic);
    }
    if let Some(path) = &cfg.cache_file {
        let (entries, rejected) = persist::load(path);
        if let Some(why) = rejected {
            eprintln!(
                "gpu-serve: ignoring cache file {} ({why}); starting cold",
                path.display()
            );
        } else if !entries.is_empty() {
            eprintln!(
                "gpu-serve: preloaded {} cached results from {}",
                entries.len(),
                path.display()
            );
        }
        server.preload(entries.into_iter().map(|(k, r)| (k, Ok(r))).collect());
    }

    let worker_count = server.jobs();
    let shared = Arc::new(Shared {
        queue: AdmissionQueue::new(cfg.fair),
        jobs: JobTable::new(),
        specs: Mutex::new(HashMap::new()),
        setups: Mutex::new(HashMap::new()),
        registry: Mutex::new(MetricsRegistry::new()),
        stop: AtomicBool::new(false),
        live_conns: AtomicUsize::new(0),
        completed: AtomicU64::new(0),
        addr,
        cfg,
        server,
    });

    let workers = (0..worker_count)
        .map(|i| {
            let shared = Arc::clone(&shared);
            std::thread::Builder::new()
                .name(format!("gpu-serve-worker-{i}"))
                .spawn(move || worker_loop(&shared))
                .expect("spawn worker")
        })
        .collect();

    let accept = {
        let shared = Arc::clone(&shared);
        std::thread::Builder::new()
            .name("gpu-serve-accept".into())
            .spawn(move || accept_loop(&listener, &shared))
            .expect("spawn accept loop")
    };

    Ok(DaemonHandle {
        addr,
        shared,
        accept: Some(accept),
        workers,
    })
}

fn accept_loop(listener: &TcpListener, shared: &Arc<Shared>) {
    loop {
        let Ok((stream, _)) = listener.accept() else {
            if shared.stop.load(Ordering::SeqCst) {
                return;
            }
            continue;
        };
        if shared.stop.load(Ordering::SeqCst) {
            let _ = write_line(
                &stream,
                &error_frame(ErrorKind::ShuttingDown, "daemon is stopping"),
            );
            return;
        }
        let live = shared.live_conns.fetch_add(1, Ordering::SeqCst);
        if live >= shared.cfg.max_connections {
            shared.live_conns.fetch_sub(1, Ordering::SeqCst);
            let _ = write_line(
                &stream,
                &error_frame(ErrorKind::Overloaded, "connection cap reached"),
            );
            continue;
        }
        let shared = Arc::clone(shared);
        let _ = std::thread::Builder::new()
            .name("gpu-serve-conn".into())
            .spawn(move || {
                serve_connection(&shared, stream);
                shared.live_conns.fetch_sub(1, Ordering::SeqCst);
            });
    }
}

fn write_line(mut stream: &TcpStream, frame: &Json) -> std::io::Result<()> {
    let mut text = frame.to_string();
    text.push('\n');
    stream.write_all(text.as_bytes())
}

fn serve_connection(shared: &Arc<Shared>, stream: TcpStream) {
    let _ = stream.set_read_timeout(Some(READ_POLL));
    let _ = stream.set_nodelay(true);
    let Ok(writer) = stream.try_clone() else {
        return;
    };
    if write_line(&writer, &hello_frame(shared.server.jobs())).is_err() {
        return;
    }
    let mut reader = BufReader::new(stream);
    let mut buf: Vec<u8> = Vec::new();
    loop {
        if buf.len() > MAX_REQUEST_BYTES {
            let why = format!("request line exceeds {MAX_REQUEST_BYTES} bytes");
            let _ = write_line(&writer, &error_frame(ErrorKind::BadRequest, &why));
            let _ = writer.shutdown(Shutdown::Write);
            let _ = std::io::copy(&mut reader.take(DRAIN_BYTES), &mut std::io::sink());
            return;
        }
        let room = (MAX_REQUEST_BYTES + 1 - buf.len()) as u64;
        match (&mut reader).take(room).read_until(b'\n', &mut buf) {
            Ok(0) => return,
            Ok(_) if buf.last() != Some(&b'\n') => {
                // Timed out mid-line with bytes buffered, or the line is
                // over the limit; the top of the loop tells them apart.
                if shared.stop.load(Ordering::SeqCst) {
                    return;
                }
            }
            Ok(_) => {
                let line = String::from_utf8_lossy(&buf).into_owned();
                buf.clear();
                let line = line.trim();
                if line.is_empty() {
                    continue;
                }
                let keep_going = dispatch(shared, &writer, line);
                if !keep_going {
                    return;
                }
            }
            Err(e)
                if matches!(
                    e.kind(),
                    std::io::ErrorKind::WouldBlock | std::io::ErrorKind::TimedOut
                ) =>
            {
                if shared.stop.load(Ordering::SeqCst) {
                    return;
                }
            }
            Err(_) => return,
        }
    }
}

/// Handles one request line; returns `false` when the connection should
/// close (after a `shutdown`).
fn dispatch(shared: &Arc<Shared>, writer: &TcpStream, line: &str) -> bool {
    let request = match parse_request(line) {
        Ok(r) => r,
        Err(why) => {
            let _ = write_line(writer, &error_frame(ErrorKind::BadRequest, &why));
            return true;
        }
    };
    match request {
        Request::Submit(spec) => {
            let frame = submit(shared, spec);
            write_line(writer, &frame).is_ok()
        }
        Request::Poll { job } => match shared.jobs.poll(job) {
            None => write_line(
                writer,
                &error_frame(ErrorKind::UnknownJob, &format!("job {job}")),
            ),
            Some(JobState::Done(res)) => match *res {
                Ok(report) => write_done(writer, job, &report),
                Err(e) => write_line(writer, &sim_error_frame(&e)),
            },
            Some(state) => write_line(
                writer,
                &ok_frame(vec![
                    ("job".into(), Json::Num(job as f64)),
                    ("state".into(), Json::Str(state.name().into())),
                ]),
            ),
        }
        .is_ok(),
        Request::Wait { job, timeout_ms } => {
            match shared.jobs.wait(job, Duration::from_millis(timeout_ms)) {
                Ok(Ok(report)) => write_done(writer, job, &report),
                Ok(Err(e)) => write_line(writer, &sim_error_frame(&e)),
                Err(true) => write_line(
                    writer,
                    &error_frame(ErrorKind::Timeout, &format!("job {job} still running")),
                ),
                Err(false) => write_line(
                    writer,
                    &error_frame(ErrorKind::UnknownJob, &format!("job {job}")),
                ),
            }
            .is_ok()
        }
        Request::Trace { job } => stream_trace(shared, writer, job),
        Request::Metrics => {
            let server_reg = shared.server.metrics();
            let mut daemon_reg = {
                let reg = shared.registry.lock().unwrap();
                reg.clone()
            };
            daemon_reg.set_gauge("daemon.queue_depth", shared.queue.depth() as f64);
            daemon_reg.set_gauge(
                "daemon.live_connections",
                shared.live_conns.load(Ordering::SeqCst) as f64,
            );
            daemon_reg.inc("daemon.jobs_created", shared.jobs.created());
            daemon_reg.inc(
                "daemon.jobs_completed",
                shared.completed.load(Ordering::SeqCst),
            );
            let frame = ok_frame(vec![(
                "metrics".into(),
                metrics_to_json(&[&server_reg, &daemon_reg]),
            )]);
            write_line(writer, &frame).is_ok()
        }
        Request::Ping => {
            write_line(writer, &ok_frame(vec![("pong".into(), Json::Bool(true))])).is_ok()
        }
        Request::Shutdown => {
            let _ = write_line(
                writer,
                &ok_frame(vec![("stopping".into(), Json::Bool(true))]),
            );
            shared.initiate_shutdown();
            false
        }
    }
}

/// Writes a finished job's done frame straight from the report, without
/// a `Json` tree.
fn write_done(mut stream: &TcpStream, job: u64, report: &RunReport) -> std::io::Result<()> {
    let mut text = String::new();
    write_done_frame(job, report, &mut text);
    stream.write_all(text.as_bytes())
}

fn submit(shared: &Arc<Shared>, spec: SubmitSpec) -> Json {
    if shared.stop.load(Ordering::SeqCst) {
        return error_frame(ErrorKind::ShuttingDown, "daemon is stopping");
    }
    let job = shared.jobs.create();
    let weight = spec.weight;
    let client = spec.client.clone();
    shared.specs.lock().unwrap().insert(job, spec);
    let accepted = shared.queue.push(
        Ticket {
            client,
            job,
            enqueued: Instant::now(),
        },
        weight,
    );
    if !accepted {
        shared.specs.lock().unwrap().remove(&job);
        return error_frame(ErrorKind::ShuttingDown, "admission queue closed");
    }
    ok_frame(vec![("job".into(), Json::Num(job as f64))])
}

fn stream_trace(shared: &Arc<Shared>, writer: &TcpStream, job: u64) -> bool {
    let trace = match shared.jobs.take_trace(job) {
        Err(JobTraceError::UnknownJob) => {
            return write_line(
                writer,
                &error_frame(ErrorKind::UnknownJob, &format!("job {job}")),
            )
            .is_ok();
        }
        Err(JobTraceError::NotDone) => {
            return write_line(
                writer,
                &error_frame(
                    ErrorKind::BadRequest,
                    &format!("job {job} has not finished"),
                ),
            )
            .is_ok();
        }
        Ok(t) => t,
    };
    let body = match trace {
        Some(data) => gpu_trace::export::jsonl(&[(format!("job{job}"), data)]),
        None => String::new(),
    };
    let lines = body.lines().count() as u64;
    let header = ok_frame(vec![
        ("streaming".into(), Json::Bool(true)),
        ("lines".into(), Json::Num(lines as f64)),
    ]);
    if write_line(writer, &header).is_err() {
        return false;
    }
    let mut w = writer;
    if !body.is_empty() && w.write_all(body.as_bytes()).is_err() {
        return false;
    }
    if lines > 0 && !body.ends_with('\n') && w.write_all(b"\n").is_err() {
        return false;
    }
    write_line(writer, &ok_frame(vec![("end".into(), Json::Bool(true))])).is_ok()
}

fn worker_loop(shared: &Arc<Shared>) {
    while let Some(ticket) = shared.queue.pop() {
        let wait_us = ticket.enqueued.elapsed().as_micros().min(u64::MAX as u128) as u64;
        {
            let mut reg = shared.registry.lock().unwrap();
            reg.observe("admission.wait_us", wait_us);
            reg.observe(&format!("admission.wait_us.{}", ticket.client), wait_us);
        }
        shared.jobs.set_running(ticket.job);
        let spec = shared.specs.lock().unwrap().remove(&ticket.job);
        let result = match spec {
            Some(spec) => run_spec(shared, &spec),
            None => Err(SimError::KernelBuild {
                detail: "submission spec lost".into(),
            }),
        };
        // Count before waking waiters so a metrics read right after a
        // `wait` returns already sees this completion.
        let done = shared.completed.fetch_add(1, Ordering::SeqCst) + 1;
        shared.jobs.complete(ticket.job, result);
        if shared.cfg.persist_every > 0 && done.is_multiple_of(shared.cfg.persist_every) {
            shared.persist_now();
        }
    }
}

/// Resolves the spec's setup (building it at most once per distinct
/// base) and drives the cell through the shared batch server.
fn run_spec(shared: &Arc<Shared>, spec: &SubmitSpec) -> Result<RunReport, SimError> {
    let cfg = spec.gpu_config();
    let key: SetupKey = (
        spec.benchmark.name().to_string(),
        spec.scale.name().to_string(),
        cfg.content_hash(),
        cfg.budget_hash(),
    );
    let cached = shared.setups.lock().unwrap().get(&key).cloned();
    let setup = match cached {
        Some(s) => s,
        None => {
            // Built outside the lock: a concurrent duplicate build is
            // rare and benign, a serialized one would stall every worker.
            let built = Arc::new(CellSetup::new(spec.benchmark, spec.scale, cfg)?);
            shared
                .setups
                .lock()
                .unwrap()
                .entry(key)
                .or_insert_with(|| Arc::clone(&built))
                .clone()
        }
    };
    let outcomes = shared.server.run_batch(
        vec![(setup, spec.variant)],
        |(s, v): &(Arc<CellSetup>, _)| Some(s.cell_key(*v)),
        |(s, v), slot| s.run_warm(*v, slot),
    );
    let (_, outcome) = outcomes.into_iter().next().expect("one cell, one outcome");
    match outcome {
        CellOutcome::Ok(report) => Ok(report),
        CellOutcome::Err(e) => Err(e),
        CellOutcome::Crashed(report) => Err(SimError::CellCrashed {
            attempts: report.attempts,
            payload: report.payload,
        }),
    }
}
