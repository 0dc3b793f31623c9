//! The report schema: how each record a report carries crosses a byte
//! boundary, in a daemon frame or a cache-file line.
//!
//! The `records!` table lists each record's fields in wire order, one row
//! per record: it is the one place that knows a record's keys. From a row
//! the macro generates the record's [`Shape`]: the `Json` tree encoder,
//! the strict tree decoder, the direct writer, and the [`Canonical`]
//! cursor that reads the writer's bytes in one pass. Each generated
//! function destructures or builds the record exhaustively, so a new field
//! does not compile until its row names it, nor a row that names a field
//! the record lacks. A field's value is spelled by its shape: a `shapes!`
//! row, the launch array, or the record the field holds.

use gpu_mem::{CacheStats, DramStats, MemStats};
use gpu_sim::{CellKey, DynLaunchKind, LaunchRecord, Stats};
use gpu_trace::json::{write_str, write_u64, Json};
use std::fmt::Write as _;
use std::sync::Arc;
use workloads::{RunReport, Variant};

/// How a value crosses the wire: its `Json` tree and back, and its
/// canonical bytes and back.
pub(crate) trait Shape {
    /// The value this shape encodes.
    type Value;
    /// The value as a tree.
    fn tree(v: &Self::Value) -> Json;
    /// The value a tree holds; `Err` says what it holds instead.
    fn untree(v: &Json) -> Result<Self::Value, String>;
    /// Appends exactly `tree(v).to_string()`, without building the tree.
    fn write(v: &Self::Value, out: &mut String);
    /// Reads [`Shape::write`]'s bytes; `None` at the first deviation. A
    /// value it reads is the value `untree` decodes from the same bytes.
    fn read(c: &mut Canonical<'_>) -> Option<Self::Value>;
}

/// Field `key` of the object `v`, decoded by its shape. A missing key is
/// an error for every shape, `Option`'s included: never a default.
fn field<S: Shape>(v: &Json, key: &str) -> Result<S::Value, String> {
    let value = v.get(key).ok_or_else(|| format!("missing field `{key}`"))?;
    S::untree(value).map_err(|e| format!("field `{key}`: {e}"))
}

// The scalar shapes, one row each: `Shape [as Value] { .. }` gives the
// value's tree, the value a tree holds, its canonical bytes and the
// cursor's read of them. The value is the shape itself unless `as` names it.
macro_rules! shapes {
    (@value $shape:ty) => { $shape };
    (@value $shape:ty, $value:ty) => { $value };
    ($($shape:ty $(as $value:ty)? {
        tree |$v:ident| $tree:expr,
        untree |$j:ident| $untree:expr,
        write |$w:ident, $out:ident| $write:expr,
        read |$c:ident| $read:expr,
    })*) => {$(
        impl Shape for $shape {
            type Value = shapes!(@value $shape $(, $value)?);
            fn tree($v: &Self::Value) -> Json { $tree }
            fn untree($j: &Json) -> Result<Self::Value, String> { $untree }
            fn write($w: &Self::Value, $out: &mut String) { $write }
            fn read($c: &mut Canonical<'_>) -> Option<Self::Value> { $read }
        }
    )*};
}

shapes! {
    u64 {
        tree |v| Json::Num(*v as f64),
        untree |j| j.as_u64().ok_or_else(|| "must be a non-negative integer".into()),
        write |v, out| write_u64(*v, out),
        read |c| c.digits(),
    }
    u32 {
        tree |v| Json::Num(f64::from(*v)),
        untree |j| u32::try_from(u64::untree(j)?).map_err(|_| "exceeds u32".into()),
        write |v, out| write_u64(u64::from(*v), out),
        read |c| u32::try_from(c.digits()?).ok(),
    }
    // `None` is `null`; the key itself is required all the same.
    Option<u64> {
        tree |v| v.as_ref().map_or(Json::Null, u64::tree),
        untree |j| if *j == Json::Null { Ok(None) } else { u64::untree(j).map(Some) },
        write |v, out| match v { Some(n) => write_u64(*n, out), None => out.push_str("null") },
        read |c| if c.lit("null").is_some() { Some(None) } else { c.digits().map(Some) },
    }
    String {
        tree |v| Json::Str(v.clone()),
        untree |j| j.as_str().map(str::to_string).ok_or_else(|| "must be a string".into()),
        write |v, out| write_str(v, out),
        read |c| c.string().map(str::to_string),
    }
    Hex as u64 {
        tree |v| Json::Str(format!("{v:016x}")),
        untree |j| u64::from_str_radix(&String::untree(j)?, 16).map_err(|e| e.to_string()),
        write |v, out| { let _ = write!(out, "\"{v:016x}\""); },
        read |c| u64::from_str_radix(c.string()?, 16).ok(),
    }
    Variant {
        tree |v| Json::Str(v.label().into()),
        untree |j| named(j, Variant::from_label),
        write |v, out| write_str(v.label(), out),
        read |c| Variant::from_label(c.string()?),
    }
    DynLaunchKind {
        tree |v| Json::Str(kind_name(*v).into()),
        untree |j| named(j, kind_from_name),
        write |v, out| write_str(kind_name(*v), out),
        read |c| kind_from_name(c.string()?),
    }
}

/// A `u64` as 16 lowercase hex digits: the cache file's config and budget
/// hashes.
pub(crate) struct Hex;

/// The value a string names, by `from_name`.
fn named<T>(j: &Json, from_name: fn(&str) -> Option<T>) -> Result<T, String> {
    let name = j.as_str().ok_or("must be a string")?;
    from_name(name).ok_or_else(|| format!("unknown name `{name}`"))
}

fn kind_name(kind: DynLaunchKind) -> &'static str {
    use DynLaunchKind::*;
    match kind {
        DeviceKernel => "device_kernel",
        AggGroup => "agg_group",
        AggFallback => "agg_fallback",
        HostSerialized => "host_serialized",
    }
}

fn kind_from_name(name: &str) -> Option<DynLaunchKind> {
    use DynLaunchKind::*;
    [DeviceKernel, AggGroup, AggFallback, HostSerialized]
        .into_iter()
        .find(|&k| kind_name(k) == name)
}

/// The launch log: an array of records.
impl Shape for Arc<Vec<LaunchRecord>> {
    type Value = Self;
    fn tree(v: &Self) -> Json {
        Json::Arr(v.iter().map(LaunchRecord::tree).collect())
    }
    fn untree(v: &Json) -> Result<Self, String> {
        let items = v.as_arr().ok_or("must be an array")?;
        let launches = items.iter().map(LaunchRecord::untree);
        Ok(Arc::new(launches.collect::<Result<_, _>>()?))
    }
    fn write(v: &Self, out: &mut String) {
        out.push('[');
        for (i, l) in v.iter().enumerate() {
            out.push_str(if i == 0 { "" } else { "," });
            LaunchRecord::write(l, out);
        }
        out.push(']');
    }
    fn read(c: &mut Canonical<'_>) -> Option<Self> {
        c.lit("[")?;
        let (mut launches, mut sep) = (Vec::new(), "");
        while c.lit("]").is_none() {
            c.lit(sep)?;
            launches.push(LaunchRecord::read(c)?);
            sep = ",";
        }
        Some(Arc::new(launches))
    }
}

// A row is `Record { field: Shape, .. }`, fields in wire order; `without
// field` names a field that never crosses the wire. A row `(Key { .. },
// value: Shape)` is a cache-file entry line, the key's fields then the
// value in one object: `write_entry`, `read_entry`, `entry_from_json`.
macro_rules! records {
    // `{"first":v,"next":v,..}` from fields bound by name.
    (@write $out:ident, $first:ident: $fs:ty $(, $field:ident: $shape:ty)*) => {
        $out.push_str(concat!("{\"", stringify!($first), "\":"));
        <$fs as Shape>::write($first, $out);
        $(
            $out.push_str(concat!(",\"", stringify!($field), "\":"));
            <$shape as Shape>::write($field, $out);
        )*
        $out.push('}');
    };
    // Reads those bytes, binding each field by name.
    (@read $c:ident, $first:ident: $fs:ty $(, $field:ident: $shape:ty)*) => {
        $c.lit(concat!("{\"", stringify!($first), "\":"))?;
        let $first = <$fs as Shape>::read($c)?;
        $(
            $c.lit(concat!(",\"", stringify!($field), "\":"))?;
            let $field = <$shape as Shape>::read($c)?;
        )*
        $c.lit("}")?;
    };
    () => {};
    ($record:ident { $($field:ident: $shape:ty),+ $(,)? } $(without $skip:ident)?; $($rest:tt)*) => {
        impl Shape for $record {
            type Value = Self;
            fn tree(v: &Self) -> Json {
                let $record { $($field,)+ $($skip: _)? } = v;
                Json::Obj(vec![$((stringify!($field).into(), <$shape as Shape>::tree($field)),)+])
            }
            fn untree(v: &Json) -> Result<Self, String> {
                Ok($record {
                    $($field: field::<$shape>(v, stringify!($field))?,)+
                    $($skip: Default::default(),)?
                })
            }
            fn write(v: &Self, out: &mut String) {
                let $record { $($field,)+ $($skip: _)? } = v;
                records!(@write out, $($field: $shape),+);
            }
            fn read(c: &mut Canonical<'_>) -> Option<Self> {
                records!(@read c, $($field: $shape),+);
                Some($record { $($field,)+ $($skip: Default::default(),)? })
            }
        }
        records!($($rest)*);
    };
    (($key:ident { $($kf:ident: $ks:ty),+ $(,)? }, $val:ident: $vs:ty); $($rest:tt)*) => {
        pub(crate) fn write_entry(key: &$key, $val: &$vs, out: &mut String) {
            let $key { $($kf),+ } = key;
            records!(@write out, $($kf: $ks,)+ $val: $vs);
        }
        pub(crate) fn read_entry(c: &mut Canonical<'_>) -> Option<($key, $vs)> {
            records!(@read c, $($kf: $ks,)+ $val: $vs);
            Some(($key { $($kf),+ }, $val))
        }
        pub(crate) fn entry_from_json(v: &Json) -> Result<($key, $vs), String> {
            let key = $key { $($kf: field::<$ks>(v, stringify!($kf))?),+ };
            Ok((key, field::<$vs>(v, stringify!($val))?))
        }
        records!($($rest)*);
    };
}

records! {
    CacheStats { hits: u64, misses: u64, writebacks: u64 };
    DramStats { n_rd: u64, n_wr: u64, active_cycles: u64, row_hits: u64, row_misses: u64 };
    MemStats {
        loads: u64, stores: u64, atomics: u64,
        l1: CacheStats, l2: CacheStats, dram: DramStats,
    };
    LaunchRecord {
        kind: DynLaunchKind, launched_at: u64, first_tb_at: Option<u64>,
        ntb: u32, threads_per_tb: u32, reserved_bytes: u64,
    };
    Stats {
        cycles: u64, warp_issues: u64, active_lanes: u64, resident_warp_cycles: u64,
        busy_cycles: u64, tb_completed: u64, host_launches: u64,
        launches: Arc<Vec<LaunchRecord>>,
        peak_pending_bytes: u64, pending_bytes: u64,
        agg_coalesced: u64, agg_fallbacks: u64, agt_overflows: u64,
        mem: MemStats,
        barrier_waits: u64, forced_agt_overflows: u64, forced_mem_delays: u64,
        hwq_full_rejections: u64, kmu_saturation_rejections: u64,
        agt_overflow_exhausted: u64, heap_cap_denials: u64,
        degraded_to_device_kernel: u64, degraded_to_host_serial: u64,
        launch_backoffs: u64, host_launches_deferred: u64,
        max_warps_per_smx: u32, num_smx: u32,
    };
    // The event trace travels on the `trace` op, never in a report.
    RunReport { benchmark: String, variant: Variant, stats: Stats } without trace;
    (CellKey {
        config_hash: Hex, budget_hash: Hex, workload: String, seed: u64, variant: String,
    }, report: RunReport);
}

/// A cursor over the canonical encoding: keys in writer order, integers as
/// plain digits below 2^53 with no leading zero, strings without escapes,
/// no whitespace. A read that deviates returns `None`, for the caller to
/// fall back to the tree decoder: a deviation changes what a decode costs,
/// never what it returns.
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

    /// Plain digits, no leading zero, below 2^53: the numbers `Json::Num`
    /// holds exactly and [`write_u64`] spells without a trip through `f64`.
    pub(crate) fn digits(&mut self) -> Option<u64> {
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
}
