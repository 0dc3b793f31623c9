//! The newline-delimited JSON wire format: request parsing, response
//! framing, and the exact codecs between simulator types and
//! [`Json`] values.
//!
//! One request or response per line, each a single JSON object. The
//! codecs are lossless for every integer counter below 2^53 (the
//! [`Json::Num`] exactness bound), which covers every [`Stats`] field by
//! orders of magnitude — so a client-side decode is bit-identical to the
//! in-process struct, pinned by the round-trip tests here and the
//! crate's loopback tests.
//!
//! A report's records are listed once, in the report schema's table
//! (`schema.rs`): the one place that knows a record's keys. It generates
//! the tree codec, the direct writer and the one-pass reader behind the
//! report functions here.
//!
//! ## Message grammar
//!
//! Requests carry an `"op"` discriminator:
//!
//! | op         | fields                                                        |
//! |------------|---------------------------------------------------------------|
//! | `submit`   | `benchmark`, `variant`, `scale`, `client`, `weight?`, `config?`, `max_cycles?`, `cycle_cap?`, `trace?` |
//! | `poll`     | `job`                                                         |
//! | `wait`     | `job`, `timeout_ms?`                                          |
//! | `trace`    | `job`                                                         |
//! | `metrics`  | —                                                             |
//! | `ping`     | —                                                             |
//! | `shutdown` | —                                                             |
//!
//! A `submit` answers `{"ok":true,"job":N}`, or, when the daemon's cache
//! already holds the cell, the job's done frame
//! `{"ok":true,"job":N,"state":"done","report":R}` — a superset, so a
//! client that reads only `job` is unaffected.
//!
//! Responses are `{"ok":true, ...}` on success or an error frame
//! `{"ok":false,"error":{"kind":K,"message":M}}` with `kind` one of
//! `bad_request`, `unknown_job`, `timeout`, `overloaded`, `sim`,
//! `version_mismatch`, `shutting_down`.
//!
//! ## Versioning
//!
//! The daemon greets every connection with a hello frame
//! `{"hello":"gpu-serve","proto":N,"jobs":J}`; clients refuse a `proto`
//! they do not speak. [`PROTO_VERSION`] bumps on any breaking grammar or
//! codec change.

use crate::schema::{Canonical, Shape};
use gpu_sim::{CellKey, GpuConfig, SimError, Stats};
use gpu_trace::json::{write_u64, Json};
use gpu_trace::MetricsRegistry;
use workloads::{Benchmark, RunReport, Scale, Variant};

/// Wire protocol version advertised in the hello frame.
pub const PROTO_VERSION: u64 = 1;

/// A parsed client request.
#[derive(Clone, Debug, PartialEq)]
pub enum Request {
    /// Run one cell; responds with a job id. When the daemon's cache holds
    /// the cell's report, the response is already that job's done frame
    /// (`{"ok":true,"job":N,"state":"done","report":R}`, a superset of
    /// `{"ok":true,"job":N}`) and the cell is never queued.
    Submit(SubmitSpec),
    /// Non-blocking job status query.
    Poll {
        /// Job id from `submit`.
        job: u64,
    },
    /// Block until the job finishes or the timeout expires.
    Wait {
        /// Job id from `submit`.
        job: u64,
        /// Wait bound in milliseconds.
        timeout_ms: u64,
    },
    /// Stream the finished job's JSONL trace events.
    Trace {
        /// Job id from `submit`.
        job: u64,
    },
    /// Snapshot of the merged metrics registry.
    Metrics,
    /// Liveness probe.
    Ping,
    /// Stop the daemon (persisting the cache first).
    Shutdown,
}

/// Base simulator configuration preset a submission runs under.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum ConfigPreset {
    /// The paper's Tesla K20c model (`GpuConfig::k20c`), the default.
    K20c,
    /// The reduced CI machine (`GpuConfig::test_small`).
    TestSmall,
}

impl ConfigPreset {
    /// Wire name (`k20c` / `test_small`).
    pub fn name(self) -> &'static str {
        match self {
            ConfigPreset::K20c => "k20c",
            ConfigPreset::TestSmall => "test_small",
        }
    }

    /// Parses a wire name.
    pub fn from_name(name: &str) -> Option<ConfigPreset> {
        match name {
            "k20c" => Some(ConfigPreset::K20c),
            "test_small" => Some(ConfigPreset::TestSmall),
            _ => None,
        }
    }

    /// The preset's base configuration.
    pub fn config(self) -> GpuConfig {
        match self {
            ConfigPreset::K20c => GpuConfig::k20c(),
            ConfigPreset::TestSmall => GpuConfig::test_small(),
        }
    }
}

/// One cell submission: which cell to run and under which knobs.
#[derive(Clone, Debug, PartialEq)]
pub struct SubmitSpec {
    /// Benchmark, by its paper name (e.g. `bfs_usa_road`).
    pub benchmark: Benchmark,
    /// Launch-mode variant, by its figure label (e.g. `DTBL`).
    pub variant: Variant,
    /// Problem scale.
    pub scale: Scale,
    /// Client identity the fair admission queue interleaves over.
    pub client: String,
    /// Fair-share weight of this client (consecutive pops per round-robin
    /// turn); the latest submitted weight wins.
    pub weight: u64,
    /// Base configuration preset.
    pub preset: ConfigPreset,
    /// Override for `GpuConfig::max_cycles` (deterministic cut-short).
    pub max_cycles: Option<u64>,
    /// Deterministic cycle budget (`RunBudget::cycle_cap`).
    pub cycle_cap: Option<u64>,
    /// Record an event trace for this run (streamable via the `trace` op).
    pub trace: bool,
}

impl SubmitSpec {
    /// The fully-resolved base config this submission runs under. Only
    /// *deterministic* knobs are reachable over the wire — there is no
    /// `deadline_ms` field by design, so every daemon outcome is a pure
    /// function of the cell and safe for the cache to memoize.
    pub fn gpu_config(&self) -> GpuConfig {
        let mut cfg = self.preset.config();
        if let Some(mc) = self.max_cycles {
            cfg.max_cycles = mc;
        }
        cfg.budget.cycle_cap = self.cycle_cap;
        if self.trace {
            cfg.trace = gpu_trace::TraceConfig::all();
        }
        cfg
    }

    /// The content address of the submitted cell: the key the worker's
    /// `CellSetup::cell_key` gives it, computed without building a setup.
    pub fn cell_key(&self) -> CellKey {
        workloads::cell_key(self.benchmark, self.scale, &self.gpu_config(), self.variant)
    }
}

/// Parses one request line (already stripped of its newline).
pub fn parse_request(line: &str) -> Result<Request, String> {
    let v = Json::parse(line)?;
    let op = v
        .get("op")
        .and_then(Json::as_str)
        .ok_or("missing `op` field")?;
    match op {
        "submit" => {
            let benchmark = req_str(&v, "benchmark")?;
            let benchmark = Benchmark::from_name(benchmark)
                .ok_or_else(|| format!("unknown benchmark `{benchmark}`"))?;
            let variant = req_str(&v, "variant")?;
            let variant = Variant::from_label(variant)
                .ok_or_else(|| format!("unknown variant `{variant}`"))?;
            let scale = req_str(&v, "scale")?;
            let scale =
                Scale::from_name(scale).ok_or_else(|| format!("unknown scale `{scale}`"))?;
            let preset = match v.get("config").and_then(Json::as_str) {
                None => ConfigPreset::K20c,
                Some(name) => ConfigPreset::from_name(name)
                    .ok_or_else(|| format!("unknown config preset `{name}`"))?,
            };
            Ok(Request::Submit(SubmitSpec {
                benchmark,
                variant,
                scale,
                client: req_str(&v, "client")?.to_string(),
                weight: opt_u64(&v, "weight")?.unwrap_or(1).max(1),
                preset,
                max_cycles: opt_u64(&v, "max_cycles")?,
                cycle_cap: opt_u64(&v, "cycle_cap")?,
                trace: matches!(v.get("trace"), Some(Json::Bool(true))),
            }))
        }
        "poll" => Ok(Request::Poll {
            job: req_u64(&v, "job")?,
        }),
        "wait" => Ok(Request::Wait {
            job: req_u64(&v, "job")?,
            timeout_ms: opt_u64(&v, "timeout_ms")?.unwrap_or(30_000),
        }),
        "trace" => Ok(Request::Trace {
            job: req_u64(&v, "job")?,
        }),
        "metrics" => Ok(Request::Metrics),
        "ping" => Ok(Request::Ping),
        "shutdown" => Ok(Request::Shutdown),
        other => Err(format!("unknown op `{other}`")),
    }
}

/// Serializes a submit spec back to its request line (client side).
pub fn submit_to_json(spec: &SubmitSpec) -> Json {
    let mut pairs = vec![
        ("op".into(), Json::Str("submit".into())),
        ("benchmark".into(), Json::Str(spec.benchmark.name().into())),
        ("variant".into(), Json::Str(spec.variant.label().into())),
        ("scale".into(), Json::Str(spec.scale.name().into())),
        ("client".into(), Json::Str(spec.client.clone())),
        ("weight".into(), Json::Num(spec.weight as f64)),
        ("config".into(), Json::Str(spec.preset.name().into())),
    ];
    if let Some(mc) = spec.max_cycles {
        pairs.push(("max_cycles".into(), Json::Num(mc as f64)));
    }
    if let Some(cap) = spec.cycle_cap {
        pairs.push(("cycle_cap".into(), Json::Num(cap as f64)));
    }
    if spec.trace {
        pairs.push(("trace".into(), Json::Bool(true)));
    }
    Json::Obj(pairs)
}

/// Error-frame kinds a response can carry.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum ErrorKind {
    /// Malformed or semantically invalid request.
    BadRequest,
    /// The job id is not known to this daemon.
    UnknownJob,
    /// A `wait` bound expired before the job finished.
    Timeout,
    /// The accept queue or connection cap is full; retry later.
    Overloaded,
    /// The simulation itself failed; details in the `sim` object.
    Sim,
    /// The client spoke an incompatible protocol version.
    VersionMismatch,
    /// The daemon is stopping and no longer accepts work.
    ShuttingDown,
}

impl ErrorKind {
    /// Wire name of the kind.
    pub fn name(self) -> &'static str {
        match self {
            ErrorKind::BadRequest => "bad_request",
            ErrorKind::UnknownJob => "unknown_job",
            ErrorKind::Timeout => "timeout",
            ErrorKind::Overloaded => "overloaded",
            ErrorKind::Sim => "sim",
            ErrorKind::VersionMismatch => "version_mismatch",
            ErrorKind::ShuttingDown => "shutting_down",
        }
    }
}

/// Builds an error frame.
pub fn error_frame(kind: ErrorKind, message: &str) -> Json {
    Json::Obj(vec![
        ("ok".into(), Json::Bool(false)),
        (
            "error".into(),
            Json::Obj(vec![
                ("kind".into(), Json::Str(kind.name().into())),
                ("message".into(), Json::Str(message.into())),
            ]),
        ),
    ])
}

/// Builds the error frame for a failed simulation, carrying the typed
/// error's wire rendering under `"sim"`.
pub fn sim_error_frame(e: &SimError) -> Json {
    let mut frame = error_frame(ErrorKind::Sim, &e.to_string());
    if let Json::Obj(pairs) = &mut frame {
        pairs.push(("sim".into(), sim_error_to_json(e)));
    }
    frame
}

/// Builds a success frame from `(key, value)` payload fields.
pub fn ok_frame(fields: Vec<(String, Json)>) -> Json {
    let mut pairs = vec![("ok".to_string(), Json::Bool(true))];
    pairs.extend(fields);
    Json::Obj(pairs)
}

/// The hello frame greeting every new connection.
pub fn hello_frame(jobs: usize) -> Json {
    Json::Obj(vec![
        ("hello".into(), Json::Str("gpu-serve".into())),
        ("proto".into(), Json::Num(PROTO_VERSION as f64)),
        ("jobs".into(), Json::Num(jobs as f64)),
    ])
}

fn num(n: u64) -> Json {
    Json::Num(n as f64)
}

fn req_str<'a>(v: &'a Json, key: &str) -> Result<&'a str, String> {
    v.get(key)
        .and_then(Json::as_str)
        .ok_or_else(|| format!("missing string field `{key}`"))
}

fn req_u64(v: &Json, key: &str) -> Result<u64, String> {
    v.get(key)
        .and_then(Json::as_u64)
        .ok_or_else(|| format!("missing integer field `{key}`"))
}

fn opt_u64(v: &Json, key: &str) -> Result<Option<u64>, String> {
    match v.get(key) {
        None | Some(Json::Null) => Ok(None),
        Some(field) => field
            .as_u64()
            .map(Some)
            .ok_or_else(|| format!("field `{key}` must be a non-negative integer")),
    }
}

/// Serializes the full [`Stats`] struct. Every field is an integer, so
/// the encoding is exact (see the module docs).
pub fn stats_to_json(s: &Stats) -> Json {
    Stats::tree(s)
}

/// Decodes [`stats_to_json`]'s encoding. Every field is required —
/// a frame from a different schema fails loudly instead of zero-filling.
pub fn stats_from_json(v: &Json) -> Result<Stats, String> {
    Stats::untree(v)
}

/// Serializes a report for `poll`/`wait` responses and the persistence
/// layer. The event trace travels separately (the `trace` op) and is
/// never part of this encoding.
pub fn report_to_json(r: &RunReport) -> Json {
    RunReport::tree(r)
}

/// Decodes [`report_to_json`]'s encoding (`trace` is always `None`).
pub fn report_from_json(v: &Json) -> Result<RunReport, String> {
    RunReport::untree(v)
}

/// Appends exactly the bytes `report_to_json(r).to_string()` produces —
/// the same key order, [`write_u64`]'s spelling of values at or above
/// 2^53, [`write_str`](gpu_trace::json::write_str)'s escaping — straight
/// into `out`.
pub fn write_report(r: &RunReport, out: &mut String) {
    out.reserve(1024 + 128 * r.stats.launches.len());
    RunReport::write(r, out);
}

/// Decodes a report. Input in the canonical form — the bytes
/// [`write_report`] writes — is read in one pass; on the first byte that
/// deviates, the whole input is re-read with `Json::parse` +
/// [`report_from_json`]. Accepted inputs, decoded values and errors are
/// therefore exactly the tree decoder's.
pub fn read_report(text: &str) -> Result<RunReport, String> {
    let mut c = Canonical::new(text);
    match RunReport::read(&mut c).filter(|_| c.at_end()) {
        Some(report) => Ok(report),
        None => report_from_json(&Json::parse(text)?),
    }
}

/// A done frame up to its job id, and from the job id to the report.
const DONE_HEAD: &str = "{\"ok\":true,\"job\":";
const DONE_STATE: &str = ",\"state\":\"done\",\"report\":";

fn write_done_prefix(job: u64, out: &mut String) {
    out.push_str(DONE_HEAD);
    write_u64(job, out);
    out.push_str(DONE_STATE);
}

/// Appends the answer for a finished job, newline included: the bytes of
/// the tree-built frame `{"ok":true,"job":N,"state":"done","report":R}`
/// plus `'\n'`. The daemon sends it for `poll`, `wait`, and a `submit`
/// its cache answers.
pub fn write_done_frame(job: u64, report: &RunReport, out: &mut String) {
    write_done_prefix(job, out);
    write_report(report, out);
    out.push_str("}\n");
}

/// [`write_done_frame`] around a report already encoded by
/// [`write_report`]: the same bytes, without touching the report.
pub fn write_done_body(job: u64, body: &str, out: &mut String) {
    out.reserve(DONE_HEAD.len() + 20 + DONE_STATE.len() + body.len() + 2);
    write_done_prefix(job, out);
    out.push_str(body);
    out.push_str("}\n");
}

/// A finished report as the daemon keeps it: the report itself and its
/// canonical body ([`write_report`]'s bytes), encoded once, when the result
/// enters the cache. The daemon shares one by `Arc` between its cache and
/// every job served from it, so answering a job never copies or re-encodes
/// the report, nor its recorded trace.
#[derive(Debug)]
pub struct EncodedReport {
    report: RunReport,
    body: String,
}

impl EncodedReport {
    /// Encodes `report` once.
    pub fn new(report: RunReport) -> Self {
        let mut body = String::new();
        write_report(&report, &mut body);
        EncodedReport { report, body }
    }

    /// The report, its trace included.
    pub fn report(&self) -> &RunReport {
        &self.report
    }

    /// The report's canonical encoding, without its trace.
    pub fn body(&self) -> &str {
        &self.body
    }
}

/// The job id and report of `line` when it is exactly a canonical done
/// frame [`write_done_frame`] writes, for any job, with or without its
/// newline; `None` for every other line, which the caller then parses as a
/// tree and reads with [`done_frame_from_json`].
pub fn read_done_frame(line: &str) -> Option<(u64, RunReport)> {
    let mut c = Canonical::new(line.strip_suffix('\n').unwrap_or(line));
    c.lit(DONE_HEAD)?;
    let job = c.digits()?;
    c.lit(DONE_STATE)?;
    let report = RunReport::read(&mut c)?;
    c.lit("}")?;
    c.at_end().then_some((job, report))
}

/// The job id and report of a done frame's tree; `Ok(None)` when `v` is
/// some other frame. The tree fallback of [`read_done_frame`].
pub fn done_frame_from_json(v: &Json) -> Result<Option<(u64, RunReport)>, String> {
    if v.get("state").and_then(Json::as_str) != Some("done") {
        return Ok(None);
    }
    let report = v.get("report").ok_or("done frame without report")?;
    Ok(Some((req_u64(v, "job")?, report_from_json(report)?)))
}

/// One-way rendering of a typed simulation error for error frames:
/// a stable `code` plus the salient numeric context. Clients treat this
/// as diagnostics — the full Rust value does not cross the wire.
pub fn sim_error_to_json(e: &SimError) -> Json {
    let (code, mut fields): (&str, Vec<(String, Json)>) = match e {
        SimError::CycleLimit { cycles } => ("cycle_limit", vec![("cycles".into(), num(*cycles))]),
        SimError::DeadlineExceeded { budget, cycle, .. } => (
            "deadline_exceeded",
            vec![
                ("budget".into(), Json::Str(budget.name().into())),
                ("cycle".into(), num(*cycle)),
            ],
        ),
        SimError::Cancelled { cycle, .. } => ("cancelled", vec![("cycle".into(), num(*cycle))]),
        SimError::OutOfMemory { bytes } => (
            "out_of_memory",
            vec![("bytes".into(), num(u64::from(*bytes)))],
        ),
        SimError::UnknownKernel(_) => ("unknown_kernel", vec![]),
        SimError::BarrierDeadlock { report } => (
            "barrier_deadlock",
            vec![("cycle".into(), num(report.cycle))],
        ),
        SimError::Hang { report } => ("hang", vec![("cycle".into(), num(report.cycle))]),
        SimError::SharedMemFault { smx, tb_slot, .. } => (
            "shared_mem_fault",
            vec![
                ("smx".into(), num(*smx as u64)),
                ("tb_slot".into(), num(*tb_slot as u64)),
            ],
        ),
        SimError::KernelBuild { .. } => ("kernel_build", vec![]),
        SimError::InvariantViolation { cycle, .. } => {
            ("invariant_violation", vec![("cycle".into(), num(*cycle))])
        }
        SimError::CellCrashed { attempts, .. } => (
            "cell_crashed",
            vec![("attempts".into(), num(u64::from(*attempts)))],
        ),
        SimError::ValidationFailed { app, .. } => (
            "validation_failed",
            vec![("app".into(), Json::Str(app.clone()))],
        ),
    };
    let mut pairs = vec![("code".to_string(), Json::Str(code.into()))];
    pairs.append(&mut fields);
    pairs.push(("message".into(), Json::Str(e.to_string())));
    Json::Obj(pairs)
}

/// Serializes one or more metrics registries into a single snapshot
/// object: `counters` and `gauges` maps plus per-histogram
/// `{count, mean, p50, p95, p99}` summaries. Later registries win on
/// name collisions.
pub fn metrics_to_json(regs: &[&MetricsRegistry]) -> Json {
    let mut counters: Vec<(String, Json)> = Vec::new();
    let mut gauges: Vec<(String, Json)> = Vec::new();
    let mut hists: Vec<(String, Json)> = Vec::new();
    let upsert = |list: &mut Vec<(String, Json)>, key: String, value: Json| {
        if let Some(slot) = list.iter_mut().find(|(k, _)| *k == key) {
            slot.1 = value;
        } else {
            list.push((key, value));
        }
    };
    for reg in regs {
        for (name, v) in reg.counters() {
            upsert(&mut counters, name.to_string(), num(v));
        }
        for (name, v) in reg.gauges() {
            upsert(&mut gauges, name.to_string(), Json::Num(v));
        }
        for (name, h) in reg.histograms() {
            upsert(
                &mut hists,
                name.to_string(),
                Json::Obj(vec![
                    ("count".into(), num(h.count())),
                    ("mean".into(), Json::Num(h.mean())),
                    ("p50".into(), h.p50().map_or(Json::Null, num)),
                    ("p95".into(), h.p95().map_or(Json::Null, num)),
                    ("p99".into(), h.p99().map_or(Json::Null, num)),
                ]),
            );
        }
    }
    Json::Obj(vec![
        ("counters".into(), Json::Obj(counters)),
        ("gauges".into(), Json::Obj(gauges)),
        ("histograms".into(), Json::Obj(hists)),
    ])
}

#[cfg(test)]
mod tests {
    use super::*;
    use gpu_mem::{CacheStats, DramStats, MemStats};
    use gpu_sim::{DynLaunchKind, LaunchRecord};

    fn busy_stats() -> Stats {
        Stats {
            cycles: 123_456,
            warp_issues: 999,
            active_lanes: 31_000,
            launches: vec![
                LaunchRecord {
                    kind: DynLaunchKind::AggGroup,
                    launched_at: 10,
                    first_tb_at: Some(60),
                    ntb: 3,
                    threads_per_tb: 96,
                    reserved_bytes: 1024,
                },
                LaunchRecord {
                    kind: DynLaunchKind::HostSerialized,
                    launched_at: 99,
                    first_tb_at: None,
                    ntb: 1,
                    threads_per_tb: 32,
                    reserved_bytes: 0,
                },
            ]
            .into(),
            mem: MemStats {
                loads: 7,
                stores: 8,
                atomics: 9,
                l1: CacheStats {
                    hits: 1,
                    misses: 2,
                    writebacks: 3,
                },
                l2: CacheStats {
                    hits: 4,
                    misses: 5,
                    writebacks: 6,
                },
                dram: DramStats {
                    n_rd: 11,
                    n_wr: 12,
                    active_cycles: 13,
                    row_hits: 14,
                    row_misses: 15,
                },
            },
            max_warps_per_smx: 64,
            num_smx: 13,
            ..Stats::default()
        }
    }

    #[test]
    fn stats_round_trip_is_bit_identical() {
        let s = busy_stats();
        let text = stats_to_json(&s).to_string();
        let back = stats_from_json(&Json::parse(&text).unwrap()).unwrap();
        assert_eq!(s, back);
    }

    #[test]
    fn stats_decode_rejects_missing_fields() {
        let mut v = stats_to_json(&busy_stats());
        if let Json::Obj(pairs) = &mut v {
            pairs.retain(|(k, _)| k != "agg_coalesced");
        }
        let err = stats_from_json(&v).unwrap_err();
        assert!(err.contains("agg_coalesced"), "{err}");
    }

    #[test]
    fn report_round_trip() {
        let r = RunReport {
            benchmark: "bfs_usa_road".into(),
            variant: Variant::DtblNoCoalesce,
            stats: busy_stats(),
            trace: None,
        };
        let back = report_from_json(&report_to_json(&r)).unwrap();
        assert_eq!(back.benchmark, r.benchmark);
        assert_eq!(back.variant, r.variant);
        assert_eq!(back.stats, r.stats);
    }

    #[test]
    fn submit_round_trip_and_config() {
        let spec = SubmitSpec {
            benchmark: Benchmark::JoinGaussian,
            variant: Variant::Dtbl,
            scale: Scale::Test,
            client: "c1".into(),
            weight: 3,
            preset: ConfigPreset::TestSmall,
            max_cycles: Some(500_000),
            cycle_cap: Some(1_000),
            trace: true,
        };
        let line = submit_to_json(&spec).to_string();
        match parse_request(&line).unwrap() {
            Request::Submit(back) => assert_eq!(back, spec),
            other => panic!("{other:?}"),
        }
        let cfg = spec.gpu_config();
        assert_eq!(cfg.max_cycles, 500_000);
        assert_eq!(cfg.budget.cycle_cap, Some(1_000));
        assert!(cfg.trace.enabled());
        // The wire never carries host-dependent budget knobs.
        assert_eq!(cfg.budget.deadline_ms, None);
        assert!(cfg.budget.cancel.is_none());
    }

    /// The key the daemon computes at admission from a submission is the
    /// key the worker's setup gives the cell, on every benchmark, variant,
    /// preset, trace setting and budget knob — so a hit at admission is the
    /// hit the worker would have served. The setup stores its keys, so a
    /// `with_config` sibling must recompute them for its new config.
    #[test]
    fn submit_keys_match_cell_setup_keys() {
        let mut seen = std::collections::HashSet::new();
        for benchmark in Benchmark::ALL {
            for preset in [ConfigPreset::K20c, ConfigPreset::TestSmall] {
                for (trace, cycle_cap) in [false, true]
                    .into_iter()
                    .flat_map(|t| [(t, None), (t, Some(5_000))])
                {
                    let mut spec = SubmitSpec {
                        benchmark,
                        variant: Variant::Flat,
                        scale: Scale::Test,
                        client: "keys".into(),
                        weight: 1,
                        preset,
                        max_cycles: None,
                        cycle_cap,
                        trace,
                    };
                    let base = spec.gpu_config();
                    let setup = workloads::CellSetup::new(benchmark, Scale::Test, base.clone())
                        .expect("setup");
                    for variant in Variant::ALL {
                        spec.variant = variant;
                        let key = spec.cell_key();
                        assert_eq!(key, setup.cell_key(variant), "{spec:?}");
                        assert!(seen.insert(key), "{spec:?} shares a key");
                    }
                    // A reconfigured sibling answers with the keys of its
                    // own config, never the ones its source stored.
                    let cfg = GpuConfig {
                        agt_entries: 2 * base.agt_entries,
                        trace: if trace {
                            gpu_trace::TraceConfig::off()
                        } else {
                            gpu_trace::TraceConfig::all()
                        },
                        ..base
                    };
                    let wide = setup.with_config(cfg.clone());
                    for variant in Variant::ALL {
                        let key = workloads::cell_key(benchmark, Scale::Test, &cfg, variant);
                        assert_ne!(key, setup.cell_key(variant), "{spec:?}");
                        assert_eq!(wide.cell_key(variant), key, "{spec:?} reconfigured");
                    }
                }
            }
        }
        assert_eq!(seen.len(), 16 * 6 * 2 * 4);
    }

    #[test]
    fn parse_rejects_bad_requests() {
        assert!(parse_request("not json").is_err());
        assert!(parse_request("{\"op\":\"warp\"}").is_err());
        assert!(parse_request("{\"op\":\"poll\"}").is_err(), "missing job");
        let e = parse_request(
            "{\"op\":\"submit\",\"benchmark\":\"nope\",\"variant\":\"Flat\",\
             \"scale\":\"test\",\"client\":\"c\"}",
        )
        .unwrap_err();
        assert!(e.contains("unknown benchmark"), "{e}");
    }

    #[test]
    fn fractional_integers_are_rejected_not_truncated() {
        for line in [
            "{\"op\":\"wait\",\"job\":7.9}",
            "{\"op\":\"poll\",\"job\":0.5}",
            "{\"op\":\"wait\",\"job\":7,\"timeout_ms\":2.5}",
        ] {
            let e = parse_request(line).unwrap_err();
            assert!(e.contains("integer"), "{line}: {e}");
        }
        assert_eq!(
            parse_request("{\"op\":\"wait\",\"job\":7.0}").unwrap(),
            Request::Wait {
                job: 7,
                timeout_ms: 30_000
            }
        );

        let r = RunReport {
            benchmark: "amr".into(),
            variant: Variant::Dtbl,
            stats: busy_stats(),
            trace: None,
        };
        let text = report_to_json(&r)
            .to_string()
            .replacen("\"ntb\":3", "\"ntb\":2.5", 1);
        let e = report_from_json(&Json::parse(&text).unwrap()).unwrap_err();
        assert!(e.contains("ntb"), "{e}");
        assert_eq!(read_report(&text).unwrap_err(), e, "the reader falls back");
    }

    #[test]
    fn wait_defaults_its_timeout() {
        match parse_request("{\"op\":\"wait\",\"job\":7}").unwrap() {
            Request::Wait { job, timeout_ms } => {
                assert_eq!(job, 7);
                assert_eq!(timeout_ms, 30_000);
            }
            other => panic!("{other:?}"),
        }
    }

    #[test]
    fn error_frames_name_their_kind() {
        let f = error_frame(ErrorKind::UnknownJob, "job 9");
        assert_eq!(f.get("ok"), Some(&Json::Bool(false)));
        assert_eq!(
            f.get("error")
                .and_then(|e| e.get("kind"))
                .and_then(Json::as_str),
            Some("unknown_job")
        );
        let sim = sim_error_frame(&SimError::CycleLimit { cycles: 10 });
        assert_eq!(
            sim.get("sim")
                .and_then(|s| s.get("code"))
                .and_then(Json::as_str),
            Some("cycle_limit")
        );
    }

    #[test]
    fn metrics_snapshot_merges_registries() {
        let mut a = MetricsRegistry::new();
        a.inc("server.cache_hits", 5);
        a.set_gauge("server.cached_results", 2.0);
        let mut b = MetricsRegistry::new();
        b.observe("admission.wait_us", 100);
        b.observe("admission.wait_us", 300);
        let v = metrics_to_json(&[&a, &b]);
        assert_eq!(
            v.get("counters")
                .and_then(|c| c.get("server.cache_hits"))
                .and_then(Json::as_u64),
            Some(5)
        );
        assert_eq!(
            v.get("gauges")
                .and_then(|g| g.get("server.cached_results"))
                .and_then(Json::as_f64),
            Some(2.0)
        );
        let h = v
            .get("histograms")
            .and_then(|h| h.get("admission.wait_us"))
            .expect("histogram summary");
        assert_eq!(h.get("count").and_then(Json::as_u64), Some(2));
        assert_eq!(h.get("p50").and_then(Json::as_u64), Some(300));
    }

    /// One report whose `write_report` bytes are pinned below: all four
    /// launch kinds, a launch that never started, counters at 0, 2^53 and
    /// `u64::MAX`, and a benchmark name the writer must escape. Every
    /// field is spelled out, so a new one must be added here too.
    fn golden_report() -> RunReport {
        let launch = |kind, first_tb_at, n: u64| LaunchRecord {
            kind,
            launched_at: 100 * n,
            first_tb_at,
            ntb: n as u32,
            threads_per_tb: 32 * n as u32,
            reserved_bytes: 1024 * n,
        };
        RunReport {
            benchmark: "bfs \"cage15\"\\\t\u{1}".into(),
            variant: Variant::DtblNoCoalesce,
            stats: Stats {
                cycles: u64::MAX,
                warp_issues: 1 << 53,
                active_lanes: 0,
                resident_warp_cycles: 4,
                busy_cycles: 5,
                tb_completed: 6,
                host_launches: 7,
                launches: vec![
                    launch(DynLaunchKind::DeviceKernel, Some(150), 1),
                    launch(DynLaunchKind::AggGroup, None, 2),
                    launch(DynLaunchKind::AggFallback, Some(u64::MAX), 3),
                    launch(DynLaunchKind::HostSerialized, Some(0), 4),
                ]
                .into(),
                peak_pending_bytes: 9,
                pending_bytes: 10,
                agg_coalesced: 11,
                agg_fallbacks: 12,
                agt_overflows: 13,
                mem: MemStats {
                    loads: 14,
                    stores: 15,
                    atomics: 1 << 53,
                    l1: CacheStats {
                        hits: 17,
                        misses: 18,
                        writebacks: 19,
                    },
                    l2: CacheStats {
                        hits: 20,
                        misses: 0,
                        writebacks: 22,
                    },
                    dram: DramStats {
                        n_rd: 23,
                        n_wr: 24,
                        active_cycles: u64::MAX,
                        row_hits: 26,
                        row_misses: 27,
                    },
                },
                barrier_waits: 28,
                forced_agt_overflows: 29,
                forced_mem_delays: 30,
                hwq_full_rejections: 31,
                kmu_saturation_rejections: 32,
                agt_overflow_exhausted: 33,
                heap_cap_denials: 34,
                degraded_to_device_kernel: 35,
                degraded_to_host_serial: 36,
                launch_backoffs: 37,
                host_launches_deferred: 38,
                max_warps_per_smx: u32::MAX,
                num_smx: 13,
            },
            trace: None,
        }
    }

    /// `golden_report`'s bytes. One table generates both encoders, so only
    /// a pinned literal sees a row renamed, reordered or dropped.
    const GOLDEN: &str = concat!(
        r#"{"benchmark":"bfs \"cage15\"\\\t\u0001","variant":"DTBL-NC","stats":{"#,
        r#""cycles":1.8446744073709552e19,"warp_issues":9007199254740992.0,"#,
        r#""active_lanes":0,"resident_warp_cycles":4,"busy_cycles":5,"tb_completed":6,"#,
        r#""host_launches":7,"launches":["#,
        r#"{"kind":"device_kernel","launched_at":100,"first_tb_at":150,"ntb":1,"#,
        r#""threads_per_tb":32,"reserved_bytes":1024},"#,
        r#"{"kind":"agg_group","launched_at":200,"first_tb_at":null,"ntb":2,"#,
        r#""threads_per_tb":64,"reserved_bytes":2048},"#,
        r#"{"kind":"agg_fallback","launched_at":300,"first_tb_at":1.8446744073709552e19,"#,
        r#""ntb":3,"threads_per_tb":96,"reserved_bytes":3072},"#,
        r#"{"kind":"host_serialized","launched_at":400,"first_tb_at":0,"ntb":4,"#,
        r#""threads_per_tb":128,"reserved_bytes":4096}],"#,
        r#""peak_pending_bytes":9,"pending_bytes":10,"agg_coalesced":11,"agg_fallbacks":12,"#,
        r#""agt_overflows":13,"mem":{"loads":14,"stores":15,"atomics":9007199254740992.0,"#,
        r#""l1":{"hits":17,"misses":18,"writebacks":19},"#,
        r#""l2":{"hits":20,"misses":0,"writebacks":22},"#,
        r#""dram":{"n_rd":23,"n_wr":24,"active_cycles":1.8446744073709552e19,"#,
        r#""row_hits":26,"row_misses":27}},"#,
        r#""barrier_waits":28,"forced_agt_overflows":29,"forced_mem_delays":30,"#,
        r#""hwq_full_rejections":31,"kmu_saturation_rejections":32,"#,
        r#""agt_overflow_exhausted":33,"heap_cap_denials":34,"#,
        r#""degraded_to_device_kernel":35,"degraded_to_host_serial":36,"#,
        r#""launch_backoffs":37,"host_launches_deferred":38,"#,
        r#""max_warps_per_smx":4294967295,"num_smx":13}}"#,
    );

    #[test]
    fn report_bytes_are_pinned() {
        let r = golden_report();
        let mut out = String::new();
        write_report(&r, &mut out);
        assert_eq!(out, GOLDEN);
        assert_eq!(report_to_json(&r).to_string(), GOLDEN);
        let back = read_report(GOLDEN).unwrap();
        assert_eq!((back.benchmark, back.variant), (r.benchmark, r.variant));
        assert_eq!(back.stats, r.stats);
    }

    /// A launch without `first_tb_at` is a schema error, not a launch
    /// whose first block never ran: the key is required whether its value
    /// is a cycle or `null`, in a report, a done frame and a cache line.
    #[test]
    fn a_missing_first_tb_at_is_rejected() {
        let r = RunReport {
            benchmark: "amr".into(),
            variant: Variant::Dtbl,
            stats: busy_stats(),
            trace: None,
        };
        let text = report_to_json(&r).to_string();
        for value in ["60", "null"] {
            let key = format!(",\"first_tb_at\":{value}");
            let cut = text.replacen(&key, "", 1);
            assert_ne!(cut, text, "{key}");
            let named = |e: String| assert!(e.contains("first_tb_at"), "{e}");
            named(report_from_json(&Json::parse(&cut).unwrap()).unwrap_err());
            named(read_report(&cut).unwrap_err());

            let frame = format!("{{\"ok\":true,\"job\":3,\"state\":\"done\",\"report\":{cut}}}\n");
            assert!(read_done_frame(&frame).is_none());
            named(done_frame_from_json(&Json::parse(frame.trim_end()).unwrap()).unwrap_err());

            let key_of = workloads::cell_key(
                Benchmark::Amr,
                Scale::Test,
                &GpuConfig::test_small(),
                Variant::Dtbl,
            );
            let file = crate::persist::to_jsonl(&[(key_of, &r)]).replacen(&key, "", 1);
            named(crate::persist::from_jsonl(&file).unwrap_err());
        }
    }
}
