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
use gpu_trace::json::{write_str, write_u64, Json};
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
    let CacheStats {
        hits,
        misses,
        writebacks,
    } = s;
    Json::Obj(vec![
        ("hits".into(), num(*hits)),
        ("misses".into(), num(*misses)),
        ("writebacks".into(), num(*writebacks)),
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
    let DramStats {
        n_rd,
        n_wr,
        active_cycles,
        row_hits,
        row_misses,
    } = s;
    Json::Obj(vec![
        ("n_rd".into(), num(*n_rd)),
        ("n_wr".into(), num(*n_wr)),
        ("active_cycles".into(), num(*active_cycles)),
        ("row_hits".into(), num(*row_hits)),
        ("row_misses".into(), num(*row_misses)),
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
    let MemStats {
        loads,
        stores,
        atomics,
        l1,
        l2,
        dram,
    } = s;
    Json::Obj(vec![
        ("loads".into(), num(*loads)),
        ("stores".into(), num(*stores)),
        ("atomics".into(), num(*atomics)),
        ("l1".into(), cache_stats_to_json(l1)),
        ("l2".into(), cache_stats_to_json(l2)),
        ("dram".into(), dram_stats_to_json(dram)),
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
    let LaunchRecord {
        kind,
        launched_at,
        first_tb_at,
        ntb,
        threads_per_tb,
        reserved_bytes,
    } = l;
    Json::Obj(vec![
        ("kind".into(), Json::Str(launch_kind_name(*kind).into())),
        ("launched_at".into(), num(*launched_at)),
        ("first_tb_at".into(), first_tb_at.map_or(Json::Null, num)),
        ("ntb".into(), num(u64::from(*ntb))),
        ("threads_per_tb".into(), num(u64::from(*threads_per_tb))),
        ("reserved_bytes".into(), num(*reserved_bytes)),
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
/// the encoding is exact (see the module docs). The destructuring is
/// exhaustive here and in [`write_stats`]: a new field does not compile
/// until both encoders carry it.
pub fn stats_to_json(s: &Stats) -> Json {
    let Stats {
        cycles,
        warp_issues,
        active_lanes,
        resident_warp_cycles,
        busy_cycles,
        tb_completed,
        host_launches,
        launches,
        peak_pending_bytes,
        pending_bytes,
        agg_coalesced,
        agg_fallbacks,
        agt_overflows,
        mem,
        barrier_waits,
        forced_agt_overflows,
        forced_mem_delays,
        hwq_full_rejections,
        kmu_saturation_rejections,
        agt_overflow_exhausted,
        heap_cap_denials,
        degraded_to_device_kernel,
        degraded_to_host_serial,
        launch_backoffs,
        host_launches_deferred,
        max_warps_per_smx,
        num_smx,
    } = s;
    Json::Obj(vec![
        ("cycles".into(), num(*cycles)),
        ("warp_issues".into(), num(*warp_issues)),
        ("active_lanes".into(), num(*active_lanes)),
        ("resident_warp_cycles".into(), num(*resident_warp_cycles)),
        ("busy_cycles".into(), num(*busy_cycles)),
        ("tb_completed".into(), num(*tb_completed)),
        ("host_launches".into(), num(*host_launches)),
        (
            "launches".into(),
            Json::Arr(launches.iter().map(launch_to_json).collect()),
        ),
        ("peak_pending_bytes".into(), num(*peak_pending_bytes)),
        ("pending_bytes".into(), num(*pending_bytes)),
        ("agg_coalesced".into(), num(*agg_coalesced)),
        ("agg_fallbacks".into(), num(*agg_fallbacks)),
        ("agt_overflows".into(), num(*agt_overflows)),
        ("mem".into(), mem_stats_to_json(mem)),
        ("barrier_waits".into(), num(*barrier_waits)),
        ("forced_agt_overflows".into(), num(*forced_agt_overflows)),
        ("forced_mem_delays".into(), num(*forced_mem_delays)),
        ("hwq_full_rejections".into(), num(*hwq_full_rejections)),
        (
            "kmu_saturation_rejections".into(),
            num(*kmu_saturation_rejections),
        ),
        (
            "agt_overflow_exhausted".into(),
            num(*agt_overflow_exhausted),
        ),
        ("heap_cap_denials".into(), num(*heap_cap_denials)),
        (
            "degraded_to_device_kernel".into(),
            num(*degraded_to_device_kernel),
        ),
        (
            "degraded_to_host_serial".into(),
            num(*degraded_to_host_serial),
        ),
        ("launch_backoffs".into(), num(*launch_backoffs)),
        (
            "host_launches_deferred".into(),
            num(*host_launches_deferred),
        ),
        (
            "max_warps_per_smx".into(),
            num(u64::from(*max_warps_per_smx)),
        ),
        ("num_smx".into(), num(u64::from(*num_smx))),
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

// ---------------------------------------------------------------------
// Direct report codec
// ---------------------------------------------------------------------

/// Appends `sep"key":`. Every key of the report encoding is a plain
/// identifier, so it needs no escaping.
fn put_key(out: &mut String, sep: char, key: &str) {
    out.push(sep);
    out.push('"');
    out.push_str(key);
    out.push_str("\":");
}

fn put_u64(out: &mut String, sep: char, key: &str, v: u64) {
    put_key(out, sep, key);
    write_u64(v, out);
}

fn write_cache_stats(s: &CacheStats, out: &mut String) {
    let CacheStats {
        hits,
        misses,
        writebacks,
    } = s;
    put_u64(out, '{', "hits", *hits);
    put_u64(out, ',', "misses", *misses);
    put_u64(out, ',', "writebacks", *writebacks);
    out.push('}');
}

fn write_dram_stats(s: &DramStats, out: &mut String) {
    let DramStats {
        n_rd,
        n_wr,
        active_cycles,
        row_hits,
        row_misses,
    } = s;
    put_u64(out, '{', "n_rd", *n_rd);
    put_u64(out, ',', "n_wr", *n_wr);
    put_u64(out, ',', "active_cycles", *active_cycles);
    put_u64(out, ',', "row_hits", *row_hits);
    put_u64(out, ',', "row_misses", *row_misses);
    out.push('}');
}

fn write_mem_stats(s: &MemStats, out: &mut String) {
    let MemStats {
        loads,
        stores,
        atomics,
        l1,
        l2,
        dram,
    } = s;
    put_u64(out, '{', "loads", *loads);
    put_u64(out, ',', "stores", *stores);
    put_u64(out, ',', "atomics", *atomics);
    put_key(out, ',', "l1");
    write_cache_stats(l1, out);
    put_key(out, ',', "l2");
    write_cache_stats(l2, out);
    put_key(out, ',', "dram");
    write_dram_stats(dram, out);
    out.push('}');
}

fn write_launch(l: &LaunchRecord, out: &mut String) {
    let LaunchRecord {
        kind,
        launched_at,
        first_tb_at,
        ntb,
        threads_per_tb,
        reserved_bytes,
    } = l;
    put_key(out, '{', "kind");
    write_str(launch_kind_name(*kind), out);
    put_u64(out, ',', "launched_at", *launched_at);
    put_key(out, ',', "first_tb_at");
    match first_tb_at {
        Some(at) => write_u64(*at, out),
        None => out.push_str("null"),
    }
    put_u64(out, ',', "ntb", u64::from(*ntb));
    put_u64(out, ',', "threads_per_tb", u64::from(*threads_per_tb));
    put_u64(out, ',', "reserved_bytes", *reserved_bytes);
    out.push('}');
}

/// Appends exactly the bytes `stats_to_json(s).to_string()` produces,
/// without building the tree.
pub fn write_stats(s: &Stats, out: &mut String) {
    let Stats {
        cycles,
        warp_issues,
        active_lanes,
        resident_warp_cycles,
        busy_cycles,
        tb_completed,
        host_launches,
        launches,
        peak_pending_bytes,
        pending_bytes,
        agg_coalesced,
        agg_fallbacks,
        agt_overflows,
        mem,
        barrier_waits,
        forced_agt_overflows,
        forced_mem_delays,
        hwq_full_rejections,
        kmu_saturation_rejections,
        agt_overflow_exhausted,
        heap_cap_denials,
        degraded_to_device_kernel,
        degraded_to_host_serial,
        launch_backoffs,
        host_launches_deferred,
        max_warps_per_smx,
        num_smx,
    } = s;
    put_u64(out, '{', "cycles", *cycles);
    put_u64(out, ',', "warp_issues", *warp_issues);
    put_u64(out, ',', "active_lanes", *active_lanes);
    put_u64(out, ',', "resident_warp_cycles", *resident_warp_cycles);
    put_u64(out, ',', "busy_cycles", *busy_cycles);
    put_u64(out, ',', "tb_completed", *tb_completed);
    put_u64(out, ',', "host_launches", *host_launches);
    put_key(out, ',', "launches");
    out.push('[');
    for (i, l) in launches.iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        write_launch(l, out);
    }
    out.push(']');
    put_u64(out, ',', "peak_pending_bytes", *peak_pending_bytes);
    put_u64(out, ',', "pending_bytes", *pending_bytes);
    put_u64(out, ',', "agg_coalesced", *agg_coalesced);
    put_u64(out, ',', "agg_fallbacks", *agg_fallbacks);
    put_u64(out, ',', "agt_overflows", *agt_overflows);
    put_key(out, ',', "mem");
    write_mem_stats(mem, out);
    put_u64(out, ',', "barrier_waits", *barrier_waits);
    put_u64(out, ',', "forced_agt_overflows", *forced_agt_overflows);
    put_u64(out, ',', "forced_mem_delays", *forced_mem_delays);
    put_u64(out, ',', "hwq_full_rejections", *hwq_full_rejections);
    put_u64(
        out,
        ',',
        "kmu_saturation_rejections",
        *kmu_saturation_rejections,
    );
    put_u64(out, ',', "agt_overflow_exhausted", *agt_overflow_exhausted);
    put_u64(out, ',', "heap_cap_denials", *heap_cap_denials);
    put_u64(
        out,
        ',',
        "degraded_to_device_kernel",
        *degraded_to_device_kernel,
    );
    put_u64(
        out,
        ',',
        "degraded_to_host_serial",
        *degraded_to_host_serial,
    );
    put_u64(out, ',', "launch_backoffs", *launch_backoffs);
    put_u64(out, ',', "host_launches_deferred", *host_launches_deferred);
    put_u64(out, ',', "max_warps_per_smx", u64::from(*max_warps_per_smx));
    put_u64(out, ',', "num_smx", u64::from(*num_smx));
    out.push('}');
}

/// Appends exactly the bytes `report_to_json(r).to_string()` produces —
/// the same key order, [`write_u64`]'s spelling of values at or above
/// 2^53, [`write_str`]'s escaping — straight into `out`.
pub fn write_report(r: &RunReport, out: &mut String) {
    let RunReport {
        benchmark,
        variant,
        stats,
        trace: _, // travels on the `trace` op, never in a report
    } = r;
    out.reserve(1024 + 128 * stats.launches.len());
    put_key(out, '{', "benchmark");
    write_str(benchmark, out);
    put_key(out, ',', "variant");
    write_str(variant.label(), out);
    put_key(out, ',', "stats");
    write_stats(stats, out);
    out.push('}');
}

/// Decodes a report. Input in the canonical form — the bytes
/// [`write_report`] writes — is read in one pass; on the first byte that
/// deviates, the whole input is re-read with `Json::parse` +
/// [`report_from_json`]. Accepted inputs, decoded values and errors are
/// therefore exactly the tree decoder's.
pub fn read_report(text: &str) -> Result<RunReport, String> {
    let mut c = Canonical::new(text);
    match c.report().filter(|_| c.at_end()) {
        Some(report) => Ok(report),
        None => report_from_json(&Json::parse(text)?),
    }
}

fn write_done_prefix(job: u64, out: &mut String) {
    out.push_str("{\"ok\":true,\"job\":");
    write_u64(job, out);
    out.push_str(",\"state\":\"done\",\"report\":");
}

/// Appends the `poll`/`wait` answer for a finished job, newline
/// included: the bytes of the tree-built frame
/// `{"ok":true,"job":N,"state":"done","report":R}` plus `'\n'`.
pub fn write_done_frame(job: u64, report: &RunReport, out: &mut String) {
    write_done_prefix(job, out);
    write_report(report, out);
    out.push_str("}\n");
}

/// The report in `line` when it is exactly the canonical done frame
/// [`write_done_frame`] writes for `job`, with or without its newline;
/// `None` for every other line, which the caller then parses as a tree.
pub fn read_done_frame(line: &str, job: u64) -> Option<RunReport> {
    let mut prefix = String::with_capacity(64);
    write_done_prefix(job, &mut prefix);
    let mut c = Canonical::new(line.strip_suffix('\n').unwrap_or(line));
    c.lit(&prefix)?;
    let report = c.report()?;
    c.lit("}")?;
    c.at_end().then_some(report)
}

/// A cursor over the canonical report encoding: keys in writer order,
/// integers as plain digits below 2^53 with no leading zero, strings
/// without escapes, no whitespace, `null` only for `first_tb_at`. Every
/// read returns `None` at the first deviation and leaves the caller to
/// fall back to the tree decoder, so a deviation changes the cost of a
/// decode, never its result: whatever this cursor accepts, the tree
/// decoder decodes to the same value.
pub(crate) struct Canonical<'a> {
    text: &'a str,
    pos: usize,
}

impl<'a> Canonical<'a> {
    pub(crate) fn new(text: &'a str) -> Self {
        Canonical { text, pos: 0 }
    }

    fn rest(&self) -> &'a [u8] {
        &self.text.as_bytes()[self.pos..]
    }

    pub(crate) fn at_end(&self) -> bool {
        self.pos == self.text.len()
    }

    /// Consumes exactly `lit`.
    pub(crate) fn lit(&mut self, lit: &str) -> Option<()> {
        self.rest().starts_with(lit.as_bytes()).then(|| {
            self.pos += lit.len();
        })
    }

    /// Consumes `sep"key":`.
    pub(crate) fn key(&mut self, sep: u8, key: &str) -> Option<()> {
        let (rest, k) = (self.rest(), key.as_bytes());
        let n = k.len() + 4;
        let ok = rest.len() >= n
            && rest[0] == sep
            && rest[1] == b'"'
            && &rest[2..n - 2] == k
            && rest[n - 2] == b'"'
            && rest[n - 1] == b':';
        ok.then(|| {
            self.pos += n;
        })
    }

    /// Plain digits, no leading zero, below 2^53: the numbers `Json::Num`
    /// holds exactly and [`write_u64`] spells without a trip through `f64`.
    fn digits(&mut self) -> Option<u64> {
        let rest = self.rest();
        let len = rest.iter().take_while(|b| b.is_ascii_digit()).count();
        if len == 0 || len > 16 || (len > 1 && rest[0] == b'0') {
            return None;
        }
        let v = rest[..len]
            .iter()
            .fold(0u64, |v, &d| v * 10 + u64::from(d - b'0'));
        (v < 1 << 53).then(|| {
            self.pos += len;
            v
        })
    }

    /// A quoted string with no escape in it.
    fn string(&mut self) -> Option<&'a str> {
        let rest = self.rest();
        if rest.first() != Some(&b'"') {
            return None;
        }
        let len = rest[1..].iter().position(|&b| b == b'"' || b == b'\\')?;
        if rest[1 + len] != b'"' {
            return None;
        }
        // Both quotes are ASCII, so the slice ends on char boundaries.
        let s = &self.text[self.pos + 1..self.pos + 1 + len];
        self.pos += len + 2;
        Some(s)
    }

    pub(crate) fn u64(&mut self, sep: u8, key: &str) -> Option<u64> {
        self.key(sep, key)?;
        self.digits()
    }

    fn u32(&mut self, sep: u8, key: &str) -> Option<u32> {
        u32::try_from(self.u64(sep, key)?).ok()
    }

    pub(crate) fn str(&mut self, sep: u8, key: &str) -> Option<&'a str> {
        self.key(sep, key)?;
        self.string()
    }

    fn cache_stats(&mut self) -> Option<CacheStats> {
        let s = CacheStats {
            hits: self.u64(b'{', "hits")?,
            misses: self.u64(b',', "misses")?,
            writebacks: self.u64(b',', "writebacks")?,
        };
        self.lit("}").map(|_| s)
    }

    fn dram_stats(&mut self) -> Option<DramStats> {
        let s = DramStats {
            n_rd: self.u64(b'{', "n_rd")?,
            n_wr: self.u64(b',', "n_wr")?,
            active_cycles: self.u64(b',', "active_cycles")?,
            row_hits: self.u64(b',', "row_hits")?,
            row_misses: self.u64(b',', "row_misses")?,
        };
        self.lit("}").map(|_| s)
    }

    fn mem_stats(&mut self) -> Option<MemStats> {
        let s = MemStats {
            loads: self.u64(b'{', "loads")?,
            stores: self.u64(b',', "stores")?,
            atomics: self.u64(b',', "atomics")?,
            l1: self.key(b',', "l1").and_then(|_| self.cache_stats())?,
            l2: self.key(b',', "l2").and_then(|_| self.cache_stats())?,
            dram: self.key(b',', "dram").and_then(|_| self.dram_stats())?,
        };
        self.lit("}").map(|_| s)
    }

    fn launch(&mut self) -> Option<LaunchRecord> {
        let l = LaunchRecord {
            kind: launch_kind_from_name(self.str(b'{', "kind")?).ok()?,
            launched_at: self.u64(b',', "launched_at")?,
            first_tb_at: {
                self.key(b',', "first_tb_at")?;
                match self.lit("null") {
                    Some(()) => None,
                    None => Some(self.digits()?),
                }
            },
            ntb: self.u32(b',', "ntb")?,
            threads_per_tb: self.u32(b',', "threads_per_tb")?,
            reserved_bytes: self.u64(b',', "reserved_bytes")?,
        };
        self.lit("}").map(|_| l)
    }

    fn launches(&mut self) -> Option<Vec<LaunchRecord>> {
        self.lit("[")?;
        let mut launches = Vec::new();
        if self.lit("]").is_some() {
            return Some(launches);
        }
        loop {
            launches.push(self.launch()?);
            if self.lit("]").is_some() {
                return Some(launches);
            }
            self.lit(",")?;
        }
    }

    fn stats(&mut self) -> Option<Stats> {
        let s = Stats {
            cycles: self.u64(b'{', "cycles")?,
            warp_issues: self.u64(b',', "warp_issues")?,
            active_lanes: self.u64(b',', "active_lanes")?,
            resident_warp_cycles: self.u64(b',', "resident_warp_cycles")?,
            busy_cycles: self.u64(b',', "busy_cycles")?,
            tb_completed: self.u64(b',', "tb_completed")?,
            host_launches: self.u64(b',', "host_launches")?,
            launches: self.key(b',', "launches").and_then(|_| self.launches())?,
            peak_pending_bytes: self.u64(b',', "peak_pending_bytes")?,
            pending_bytes: self.u64(b',', "pending_bytes")?,
            agg_coalesced: self.u64(b',', "agg_coalesced")?,
            agg_fallbacks: self.u64(b',', "agg_fallbacks")?,
            agt_overflows: self.u64(b',', "agt_overflows")?,
            mem: self.key(b',', "mem").and_then(|_| self.mem_stats())?,
            barrier_waits: self.u64(b',', "barrier_waits")?,
            forced_agt_overflows: self.u64(b',', "forced_agt_overflows")?,
            forced_mem_delays: self.u64(b',', "forced_mem_delays")?,
            hwq_full_rejections: self.u64(b',', "hwq_full_rejections")?,
            kmu_saturation_rejections: self.u64(b',', "kmu_saturation_rejections")?,
            agt_overflow_exhausted: self.u64(b',', "agt_overflow_exhausted")?,
            heap_cap_denials: self.u64(b',', "heap_cap_denials")?,
            degraded_to_device_kernel: self.u64(b',', "degraded_to_device_kernel")?,
            degraded_to_host_serial: self.u64(b',', "degraded_to_host_serial")?,
            launch_backoffs: self.u64(b',', "launch_backoffs")?,
            host_launches_deferred: self.u64(b',', "host_launches_deferred")?,
            max_warps_per_smx: self.u32(b',', "max_warps_per_smx")?,
            num_smx: self.u32(b',', "num_smx")?,
        };
        self.lit("}").map(|_| s)
    }

    /// One report object, in [`write_report`]'s layout.
    pub(crate) fn report(&mut self) -> Option<RunReport> {
        let r = RunReport {
            benchmark: self.str(b'{', "benchmark")?.to_string(),
            variant: Variant::from_label(self.str(b',', "variant")?)?,
            stats: self.key(b',', "stats").and_then(|_| self.stats())?,
            trace: None,
        };
        self.lit("}").map(|_| r)
    }
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
}
