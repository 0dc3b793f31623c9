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

use gpu_mem::{CacheStats, DramStats, MemStats};
use gpu_sim::{DynLaunchKind, GpuConfig, LaunchRecord, SimError, Stats};
use gpu_trace::json::Json;
use gpu_trace::MetricsRegistry;
use workloads::{Benchmark, RunReport, Scale, Variant};

/// Wire protocol version advertised in the hello frame.
pub const PROTO_VERSION: u64 = 1;

/// A parsed client request.
#[derive(Clone, Debug, PartialEq)]
pub enum Request {
    /// Enqueue one cell; responds with a job id.
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
    Json::Obj(vec![
        ("ok".into(), Json::Bool(false)),
        (
            "error".into(),
            Json::Obj(vec![
                ("kind".into(), Json::Str(ErrorKind::Sim.name().into())),
                ("message".into(), Json::Str(e.to_string())),
            ]),
        ),
        ("sim".into(), sim_error_to_json(e)),
    ])
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

fn obj_u64(v: &Json, key: &str) -> Result<u64, String> {
    req_u64(v, key)
}

fn obj_u32(v: &Json, key: &str) -> Result<u32, String> {
    let n = req_u64(v, key)?;
    u32::try_from(n).map_err(|_| format!("field `{key}` exceeds u32"))
}

// ---------------------------------------------------------------------
// Stats / report codecs
// ---------------------------------------------------------------------

fn cache_stats_to_json(s: &CacheStats) -> Json {
    Json::Obj(vec![
        ("hits".into(), num(s.hits)),
        ("misses".into(), num(s.misses)),
        ("writebacks".into(), num(s.writebacks)),
    ])
}

fn cache_stats_from_json(v: &Json) -> Result<CacheStats, String> {
    Ok(CacheStats {
        hits: obj_u64(v, "hits")?,
        misses: obj_u64(v, "misses")?,
        writebacks: obj_u64(v, "writebacks")?,
    })
}

fn dram_stats_to_json(s: &DramStats) -> Json {
    Json::Obj(vec![
        ("n_rd".into(), num(s.n_rd)),
        ("n_wr".into(), num(s.n_wr)),
        ("active_cycles".into(), num(s.active_cycles)),
        ("row_hits".into(), num(s.row_hits)),
        ("row_misses".into(), num(s.row_misses)),
    ])
}

fn dram_stats_from_json(v: &Json) -> Result<DramStats, String> {
    Ok(DramStats {
        n_rd: obj_u64(v, "n_rd")?,
        n_wr: obj_u64(v, "n_wr")?,
        active_cycles: obj_u64(v, "active_cycles")?,
        row_hits: obj_u64(v, "row_hits")?,
        row_misses: obj_u64(v, "row_misses")?,
    })
}

fn mem_stats_to_json(s: &MemStats) -> Json {
    Json::Obj(vec![
        ("loads".into(), num(s.loads)),
        ("stores".into(), num(s.stores)),
        ("atomics".into(), num(s.atomics)),
        ("l1".into(), cache_stats_to_json(&s.l1)),
        ("l2".into(), cache_stats_to_json(&s.l2)),
        ("dram".into(), dram_stats_to_json(&s.dram)),
    ])
}

fn mem_stats_from_json(v: &Json) -> Result<MemStats, String> {
    Ok(MemStats {
        loads: obj_u64(v, "loads")?,
        stores: obj_u64(v, "stores")?,
        atomics: obj_u64(v, "atomics")?,
        l1: cache_stats_from_json(v.get("l1").ok_or("missing `l1`")?)?,
        l2: cache_stats_from_json(v.get("l2").ok_or("missing `l2`")?)?,
        dram: dram_stats_from_json(v.get("dram").ok_or("missing `dram`")?)?,
    })
}

fn launch_kind_name(k: DynLaunchKind) -> &'static str {
    match k {
        DynLaunchKind::DeviceKernel => "device_kernel",
        DynLaunchKind::AggGroup => "agg_group",
        DynLaunchKind::AggFallback => "agg_fallback",
        DynLaunchKind::HostSerialized => "host_serialized",
    }
}

fn launch_kind_from_name(name: &str) -> Result<DynLaunchKind, String> {
    match name {
        "device_kernel" => Ok(DynLaunchKind::DeviceKernel),
        "agg_group" => Ok(DynLaunchKind::AggGroup),
        "agg_fallback" => Ok(DynLaunchKind::AggFallback),
        "host_serialized" => Ok(DynLaunchKind::HostSerialized),
        other => Err(format!("unknown launch kind `{other}`")),
    }
}

fn launch_to_json(l: &LaunchRecord) -> Json {
    Json::Obj(vec![
        ("kind".into(), Json::Str(launch_kind_name(l.kind).into())),
        ("launched_at".into(), num(l.launched_at)),
        ("first_tb_at".into(), l.first_tb_at.map_or(Json::Null, num)),
        ("ntb".into(), num(u64::from(l.ntb))),
        ("threads_per_tb".into(), num(u64::from(l.threads_per_tb))),
        ("reserved_bytes".into(), num(l.reserved_bytes)),
    ])
}

fn launch_from_json(v: &Json) -> Result<LaunchRecord, String> {
    Ok(LaunchRecord {
        kind: launch_kind_from_name(req_str(v, "kind")?)?,
        launched_at: obj_u64(v, "launched_at")?,
        first_tb_at: opt_u64(v, "first_tb_at")?,
        ntb: obj_u32(v, "ntb")?,
        threads_per_tb: obj_u32(v, "threads_per_tb")?,
        reserved_bytes: obj_u64(v, "reserved_bytes")?,
    })
}

/// Serializes the full [`Stats`] struct. Every field is an integer, so
/// the encoding is exact (see the module docs).
pub fn stats_to_json(s: &Stats) -> Json {
    Json::Obj(vec![
        ("cycles".into(), num(s.cycles)),
        ("warp_issues".into(), num(s.warp_issues)),
        ("active_lanes".into(), num(s.active_lanes)),
        ("resident_warp_cycles".into(), num(s.resident_warp_cycles)),
        ("busy_cycles".into(), num(s.busy_cycles)),
        ("tb_completed".into(), num(s.tb_completed)),
        ("host_launches".into(), num(s.host_launches)),
        (
            "launches".into(),
            Json::Arr(s.launches.iter().map(launch_to_json).collect()),
        ),
        ("peak_pending_bytes".into(), num(s.peak_pending_bytes)),
        ("pending_bytes".into(), num(s.pending_bytes)),
        ("agg_coalesced".into(), num(s.agg_coalesced)),
        ("agg_fallbacks".into(), num(s.agg_fallbacks)),
        ("agt_overflows".into(), num(s.agt_overflows)),
        ("mem".into(), mem_stats_to_json(&s.mem)),
        ("barrier_waits".into(), num(s.barrier_waits)),
        ("forced_agt_overflows".into(), num(s.forced_agt_overflows)),
        ("forced_mem_delays".into(), num(s.forced_mem_delays)),
        ("hwq_full_rejections".into(), num(s.hwq_full_rejections)),
        (
            "kmu_saturation_rejections".into(),
            num(s.kmu_saturation_rejections),
        ),
        (
            "agt_overflow_exhausted".into(),
            num(s.agt_overflow_exhausted),
        ),
        ("heap_cap_denials".into(), num(s.heap_cap_denials)),
        (
            "degraded_to_device_kernel".into(),
            num(s.degraded_to_device_kernel),
        ),
        (
            "degraded_to_host_serial".into(),
            num(s.degraded_to_host_serial),
        ),
        ("launch_backoffs".into(), num(s.launch_backoffs)),
        (
            "host_launches_deferred".into(),
            num(s.host_launches_deferred),
        ),
        (
            "max_warps_per_smx".into(),
            num(u64::from(s.max_warps_per_smx)),
        ),
        ("num_smx".into(), num(u64::from(s.num_smx))),
    ])
}

/// Decodes [`stats_to_json`]'s encoding. Every field is required —
/// a frame from a different schema fails loudly instead of zero-filling.
pub fn stats_from_json(v: &Json) -> Result<Stats, String> {
    let launches = v
        .get("launches")
        .and_then(Json::as_arr)
        .ok_or("missing `launches` array")?
        .iter()
        .map(launch_from_json)
        .collect::<Result<Vec<_>, _>>()?;
    Ok(Stats {
        cycles: obj_u64(v, "cycles")?,
        warp_issues: obj_u64(v, "warp_issues")?,
        active_lanes: obj_u64(v, "active_lanes")?,
        resident_warp_cycles: obj_u64(v, "resident_warp_cycles")?,
        busy_cycles: obj_u64(v, "busy_cycles")?,
        tb_completed: obj_u64(v, "tb_completed")?,
        host_launches: obj_u64(v, "host_launches")?,
        launches,
        peak_pending_bytes: obj_u64(v, "peak_pending_bytes")?,
        pending_bytes: obj_u64(v, "pending_bytes")?,
        agg_coalesced: obj_u64(v, "agg_coalesced")?,
        agg_fallbacks: obj_u64(v, "agg_fallbacks")?,
        agt_overflows: obj_u64(v, "agt_overflows")?,
        mem: mem_stats_from_json(v.get("mem").ok_or("missing `mem`")?)?,
        barrier_waits: obj_u64(v, "barrier_waits")?,
        forced_agt_overflows: obj_u64(v, "forced_agt_overflows")?,
        forced_mem_delays: obj_u64(v, "forced_mem_delays")?,
        hwq_full_rejections: obj_u64(v, "hwq_full_rejections")?,
        kmu_saturation_rejections: obj_u64(v, "kmu_saturation_rejections")?,
        agt_overflow_exhausted: obj_u64(v, "agt_overflow_exhausted")?,
        heap_cap_denials: obj_u64(v, "heap_cap_denials")?,
        degraded_to_device_kernel: obj_u64(v, "degraded_to_device_kernel")?,
        degraded_to_host_serial: obj_u64(v, "degraded_to_host_serial")?,
        launch_backoffs: obj_u64(v, "launch_backoffs")?,
        host_launches_deferred: obj_u64(v, "host_launches_deferred")?,
        max_warps_per_smx: obj_u32(v, "max_warps_per_smx")?,
        num_smx: obj_u32(v, "num_smx")?,
    })
}

/// Serializes a report for `poll`/`wait` responses and the persistence
/// layer. The event trace travels separately (the `trace` op) and is
/// never part of this encoding.
pub fn report_to_json(r: &RunReport) -> Json {
    Json::Obj(vec![
        ("benchmark".into(), Json::Str(r.benchmark.clone())),
        ("variant".into(), Json::Str(r.variant.label().into())),
        ("stats".into(), stats_to_json(&r.stats)),
    ])
}

/// Decodes [`report_to_json`]'s encoding (`trace` is always `None`).
pub fn report_from_json(v: &Json) -> Result<RunReport, String> {
    let variant = req_str(v, "variant")?;
    Ok(RunReport {
        benchmark: req_str(v, "benchmark")?.to_string(),
        variant: Variant::from_label(variant)
            .ok_or_else(|| format!("unknown variant `{variant}`"))?,
        stats: stats_from_json(v.get("stats").ok_or("missing `stats`")?)?,
        trace: None,
    })
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
        SimError::HwqFull { stream, depth } => (
            "hwq_full",
            vec![
                ("stream".into(), num(u64::from(*stream))),
                ("depth".into(), num(*depth as u64)),
            ],
        ),
        SimError::KmuSaturated { pending } => (
            "kmu_saturated",
            vec![("pending".into(), num(*pending as u64))],
        ),
        SimError::AgtExhausted {
            cycle,
            live_overflow,
        } => (
            "agt_exhausted",
            vec![
                ("cycle".into(), num(*cycle)),
                ("live_overflow".into(), num(*live_overflow as u64)),
            ],
        ),
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
            ],
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
}
