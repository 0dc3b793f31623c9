//! The `gpu-serve` client: a blocking, dependency-free library over the
//! NDJSON protocol, used by the `gpu-serve-client` binary and the
//! loopback tests.

use crate::wire::{read_done_frame, report_from_json, submit_to_json, SubmitSpec, PROTO_VERSION};
use gpu_trace::json::Json;
use gpu_trace::TraceData;
use std::io::{BufRead, BufReader, Write};
use std::net::{SocketAddr, TcpStream};
use std::time::Duration;
use workloads::RunReport;

/// Why a client call failed.
#[derive(Debug)]
pub enum ClientError {
    /// Socket-level failure.
    Io(std::io::Error),
    /// The daemon sent something the protocol does not allow.
    Protocol(String),
    /// The daemon answered with an error frame.
    Server {
        /// The frame's `error.kind` (e.g. `unknown_job`, `sim`).
        kind: String,
        /// The frame's `error.message`.
        message: String,
    },
}

impl std::fmt::Display for ClientError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ClientError::Io(e) => write!(f, "io: {e}"),
            ClientError::Protocol(m) => write!(f, "protocol: {m}"),
            ClientError::Server { kind, message } => write!(f, "server [{kind}]: {message}"),
        }
    }
}

impl std::error::Error for ClientError {}

impl From<std::io::Error> for ClientError {
    fn from(e: std::io::Error) -> Self {
        ClientError::Io(e)
    }
}

/// A finished `poll` answer.
#[derive(Debug)]
pub enum JobStatus {
    /// Still in the admission queue.
    Queued,
    /// Claimed by a worker.
    Running,
    /// Finished successfully (failed jobs answer as `sim` error frames).
    /// Boxed so the marker states stay pointer-sized.
    Done(Box<RunReport>),
}

/// One blocking connection to a daemon.
pub struct Client {
    reader: BufReader<TcpStream>,
    writer: TcpStream,
    jobs: u64,
}

impl Client {
    /// Connects and validates the hello frame (name + protocol version).
    pub fn connect(addr: SocketAddr) -> Result<Client, ClientError> {
        let stream = TcpStream::connect(addr)?;
        let _ = stream.set_nodelay(true);
        let writer = stream.try_clone()?;
        let mut client = Client {
            reader: BufReader::new(stream),
            writer,
            jobs: 0,
        };
        let hello = parse_reply(&client.read_raw_line()?)?;
        if hello.get("hello").and_then(Json::as_str) != Some("gpu-serve") {
            return Err(ClientError::Protocol("missing hello frame".into()));
        }
        match hello.get("proto").and_then(Json::as_u64) {
            Some(PROTO_VERSION) => {}
            v => {
                return Err(ClientError::Protocol(format!(
                    "protocol version mismatch: daemon speaks {v:?}, client {PROTO_VERSION}"
                )))
            }
        }
        client.jobs = hello.get("jobs").and_then(Json::as_u64).unwrap_or(0);
        Ok(client)
    }

    /// The daemon's advertised worker-pool width.
    pub fn server_jobs(&self) -> u64 {
        self.jobs
    }

    fn read_frame(&mut self) -> Result<Json, ClientError> {
        let line = self.read_raw_line()?;
        Json::parse(line.trim()).map_err(ClientError::Protocol)
    }

    fn read_raw_line(&mut self) -> Result<String, ClientError> {
        let mut line = String::new();
        if self.reader.read_line(&mut line)? == 0 {
            return Err(ClientError::Protocol("connection closed".into()));
        }
        Ok(line)
    }

    /// Sends `frame` and returns the raw reply line.
    fn exchange(&mut self, frame: &Json) -> Result<String, ClientError> {
        let mut text = frame.to_string();
        text.push('\n');
        self.writer.write_all(text.as_bytes())?;
        self.read_raw_line()
    }

    fn request(&mut self, frame: &Json) -> Result<Json, ClientError> {
        parse_reply(&self.exchange(frame)?)
    }

    /// Submits a cell; returns its job id.
    pub fn submit(&mut self, spec: &SubmitSpec) -> Result<u64, ClientError> {
        let reply = self.request(&submit_to_json(spec))?;
        reply
            .get("job")
            .and_then(Json::as_u64)
            .ok_or_else(|| ClientError::Protocol("submit reply without job id".into()))
    }

    /// Non-blocking status query.
    pub fn poll(&mut self, job: u64) -> Result<JobStatus, ClientError> {
        let line = self.exchange(&Json::Obj(vec![
            ("op".into(), Json::Str("poll".into())),
            ("job".into(), Json::Num(job as f64)),
        ]))?;
        // The daemon's done frame, read in one pass; any other line, or
        // a done frame in another spelling, goes down the tree path.
        if let Some(report) = read_done_frame(&line, job) {
            return Ok(JobStatus::Done(Box::new(report)));
        }
        let reply = parse_reply(&line)?;
        match reply.get("state").and_then(Json::as_str) {
            Some("queued") => Ok(JobStatus::Queued),
            Some("running") => Ok(JobStatus::Running),
            Some("done") => {
                let report = reply
                    .get("report")
                    .ok_or_else(|| ClientError::Protocol("done frame without report".into()))?;
                Ok(JobStatus::Done(Box::new(
                    report_from_json(report).map_err(ClientError::Protocol)?,
                )))
            }
            other => Err(ClientError::Protocol(format!("bad poll state {other:?}"))),
        }
    }

    /// Blocks (server-side) until the job finishes; failed jobs surface
    /// as `ClientError::Server { kind: "sim", .. }`.
    pub fn wait(&mut self, job: u64, timeout: Duration) -> Result<RunReport, ClientError> {
        let line = self.exchange(&Json::Obj(vec![
            ("op".into(), Json::Str("wait".into())),
            ("job".into(), Json::Num(job as f64)),
            (
                "timeout_ms".into(),
                Json::Num(timeout.as_millis().min(u64::MAX as u128) as f64),
            ),
        ]))?;
        if let Some(report) = read_done_frame(&line, job) {
            return Ok(report);
        }
        let reply = parse_reply(&line)?;
        let report = reply
            .get("report")
            .ok_or_else(|| ClientError::Protocol("wait reply without report".into()))?;
        report_from_json(report).map_err(ClientError::Protocol)
    }

    /// Streams and reassembles a finished job's recorded trace. `None`
    /// if the job ran untraced (or its trace was already taken).
    pub fn trace(&mut self, job: u64) -> Result<Option<TraceData>, ClientError> {
        let header = self.request(&Json::Obj(vec![
            ("op".into(), Json::Str("trace".into())),
            ("job".into(), Json::Num(job as f64)),
        ]))?;
        if header.get("streaming") != Some(&Json::Bool(true)) {
            return Err(ClientError::Protocol("trace reply is not a stream".into()));
        }
        let lines = header.get("lines").and_then(Json::as_u64).unwrap_or(0);
        let mut body = String::new();
        for _ in 0..lines {
            body.push_str(&self.read_raw_line()?);
        }
        let end = self.read_frame()?;
        if end.get("end") != Some(&Json::Bool(true)) {
            return Err(ClientError::Protocol(
                "trace stream missing end frame".into(),
            ));
        }
        if lines == 0 {
            return Ok(None);
        }
        let mut cells = gpu_trace::export::parse_jsonl(&body).map_err(ClientError::Protocol)?;
        Ok(cells.pop().map(|(_, data)| data))
    }

    /// Full metrics snapshot (`counters` / `gauges` / `histograms`).
    pub fn metrics(&mut self) -> Result<Json, ClientError> {
        let reply = self.request(&Json::Obj(vec![("op".into(), Json::Str("metrics".into()))]))?;
        reply
            .get("metrics")
            .cloned()
            .ok_or_else(|| ClientError::Protocol("metrics reply without payload".into()))
    }

    /// Liveness probe.
    pub fn ping(&mut self) -> Result<(), ClientError> {
        self.request(&Json::Obj(vec![("op".into(), Json::Str("ping".into()))]))?;
        Ok(())
    }

    /// Asks the daemon to stop (it persists its cache on the way down).
    pub fn shutdown(&mut self) -> Result<(), ClientError> {
        self.request(&Json::Obj(vec![(
            "op".into(),
            Json::Str("shutdown".into()),
        )]))?;
        Ok(())
    }
}

/// Parses a reply line, turning an error frame into [`ClientError::Server`].
fn parse_reply(line: &str) -> Result<Json, ClientError> {
    let reply = Json::parse(line.trim()).map_err(ClientError::Protocol)?;
    match reply.get("error") {
        None => Ok(reply),
        Some(err) => Err(ClientError::Server {
            kind: err
                .get("kind")
                .and_then(Json::as_str)
                .unwrap_or("unknown")
                .to_string(),
            message: err
                .get("message")
                .and_then(Json::as_str)
                .unwrap_or_default()
                .to_string(),
        }),
    }
}

/// Convenience: read one counter out of a [`Client::metrics`] snapshot.
pub fn snapshot_counter(snapshot: &Json, name: &str) -> u64 {
    snapshot
        .get("counters")
        .and_then(|c| c.get(name))
        .and_then(Json::as_u64)
        .unwrap_or(0)
}

/// Convenience: one histogram percentile from a metrics snapshot
/// (`None` when the histogram or percentile is absent).
pub fn snapshot_percentile(snapshot: &Json, name: &str, pct: &str) -> Option<u64> {
    snapshot
        .get("histograms")
        .and_then(|h| h.get(name))
        .and_then(|h| h.get(pct))
        .and_then(Json::as_u64)
}
