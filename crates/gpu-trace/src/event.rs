//! Typed trace events covering the full launch path.
//!
//! Every event is a plain-integer payload ([`EventKind`]) stamped with the
//! cycle it occurred at ([`TraceEvent`]). Keeping the payload integer-only
//! makes events `Copy + Eq`, so they can be embedded verbatim in hang
//! reports and compared exactly after a serialisation round trip.
//!
//! The event *schema* — the set of kind names and their field names as
//! emitted by the JSONL/Chrome exporters — is a stable interface documented
//! in `DESIGN.md`. Add new kinds freely; renaming existing kinds or fields
//! is a breaking change for downstream trace consumers.

/// Event category, used for cheap filtering via a bitmask.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Category {
    /// Host launch, HWQ enqueue, KMU dispatch, KDE alloc/free, dynamic
    /// launches, launch-to-schedule arrows, kernel retire.
    Launch,
    /// AGT insert / coalesce / evict and aggregation fallbacks.
    Agt,
    /// FCFS controller mark / remark / unmark.
    Fcfs,
    /// Thread-block placement and retirement on SMXs.
    Tb,
    /// Per-issue warp events: issue, stall, barrier. High volume.
    Warp,
    /// L1/L2 hit-miss events. High volume.
    Cache,
    /// DRAM row activations. High volume.
    Dram,
}

impl Category {
    /// All categories, in bit order.
    pub const ALL: [Category; 7] = [
        Category::Launch,
        Category::Agt,
        Category::Fcfs,
        Category::Tb,
        Category::Warp,
        Category::Cache,
        Category::Dram,
    ];

    /// The bit this category occupies in a filter mask.
    pub fn bit(self) -> u32 {
        1 << self as u32
    }

    /// Lower-case name used by `--trace-filter`.
    pub fn name(self) -> &'static str {
        match self {
            Category::Launch => "launch",
            Category::Agt => "agt",
            Category::Fcfs => "fcfs",
            Category::Tb => "tb",
            Category::Warp => "warp",
            Category::Cache => "cache",
            Category::Dram => "dram",
        }
    }

    /// Parses one category name.
    pub fn from_name(name: &str) -> Option<Category> {
        Category::ALL.iter().copied().find(|c| c.name() == name)
    }

    /// Mask with every category enabled.
    pub fn mask_all() -> u32 {
        Category::ALL.iter().map(|c| c.bit()).sum()
    }

    /// Default mask for command-line tracing: the launch path and
    /// scheduling structures, excluding the high-volume per-issue
    /// warp/cache/DRAM categories.
    pub fn default_mask() -> u32 {
        Category::Launch.bit() | Category::Agt.bit() | Category::Fcfs.bit() | Category::Tb.bit()
    }

    /// Parses a comma-separated category list (`"launch,agt,warp"`).
    /// `"all"` enables everything, `"default"` the default mask.
    pub fn parse_mask(spec: &str) -> Result<u32, String> {
        let mut mask = 0u32;
        for part in spec.split(',').map(str::trim).filter(|p| !p.is_empty()) {
            mask |= match part {
                "all" => Category::mask_all(),
                "default" => Category::default_mask(),
                name => Category::from_name(name)
                    .ok_or_else(|| {
                        let known: Vec<&str> = Category::ALL.iter().map(|c| c.name()).collect();
                        format!(
                            "unknown trace category `{name}` (known: {})",
                            known.join(", ")
                        )
                    })?
                    .bit(),
            };
        }
        Ok(mask)
    }
}

/// Why a warp stopped issuing.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum StallReason {
    /// Waiting on outstanding memory accesses.
    Memory,
    /// Parked at a thread-block barrier.
    Barrier,
    /// Stalled in the device-side launch API (CDP/DTBL launch latency).
    LaunchApi,
}

impl StallReason {
    /// Stable numeric code used in event payloads.
    pub fn code(self) -> u8 {
        match self {
            StallReason::Memory => 0,
            StallReason::Barrier => 1,
            StallReason::LaunchApi => 2,
        }
    }

    /// Inverse of [`StallReason::code`].
    pub fn from_code(code: u8) -> Option<StallReason> {
        match code {
            0 => Some(StallReason::Memory),
            1 => Some(StallReason::Barrier),
            2 => Some(StallReason::LaunchApi),
            _ => None,
        }
    }

    /// Human-readable name.
    pub fn name(self) -> &'static str {
        match self {
            StallReason::Memory => "memory",
            StallReason::Barrier => "barrier",
            StallReason::LaunchApi => "launch_api",
        }
    }
}

/// Which dynamic-launch path a launch took. Mirrors the simulator's
/// `DynLaunchKind` without depending on it.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum LaunchPath {
    /// CDP-style device kernel through the KMU.
    DeviceKernel,
    /// DTBL aggregated group coalesced in the AGT.
    AggGroup,
    /// DTBL launch that fell back to a device kernel.
    AggFallback,
    /// Launch executed functionally on the host after the in-GPU paths
    /// were exhausted — the last rung of the degradation ladder.
    HostSerial,
}

impl LaunchPath {
    /// Stable numeric code used in event payloads.
    pub fn code(self) -> u8 {
        match self {
            LaunchPath::DeviceKernel => 0,
            LaunchPath::AggGroup => 1,
            LaunchPath::AggFallback => 2,
            LaunchPath::HostSerial => 3,
        }
    }

    /// Inverse of [`LaunchPath::code`].
    pub fn from_code(code: u8) -> Option<LaunchPath> {
        match code {
            0 => Some(LaunchPath::DeviceKernel),
            1 => Some(LaunchPath::AggGroup),
            2 => Some(LaunchPath::AggFallback),
            3 => Some(LaunchPath::HostSerial),
            _ => None,
        }
    }

    /// Human-readable name.
    pub fn name(self) -> &'static str {
        match self {
            LaunchPath::DeviceKernel => "device_kernel",
            LaunchPath::AggGroup => "agg_group",
            LaunchPath::AggFallback => "agg_fallback",
            LaunchPath::HostSerial => "host_serial",
        }
    }
}

// The table of event kinds, and the single place that knows their names
// and their serialised bytes. A row is `Variant { field: u8..u64, .. } =>
// ("kind_name", Category)`; from it the macro derives the enum, the name and
// category lookups, the parser (`from_fields`) and the exporters' payload
// writer (`write_json_fields`). A new kind is one new row.
macro_rules! event_kinds {
    ($( $variant:ident { $($field:ident : $ty:ty),* $(,)? } => ($name:literal, $cat:ident), )*) => {
        /// The payload of one trace event. All fields are integers so the
        /// type stays `Copy + Eq` and serialises losslessly.
        #[derive(Clone, Copy, Debug, PartialEq, Eq)]
        pub enum EventKind {
            $( #[doc = concat!("Serialised as `", $name, "`.")]
               $variant { $( $field: $ty ),* }, )*
        }

        impl EventKind {
            /// Stable kind name used by the exporters.
            pub fn name(&self) -> &'static str {
                match self { $( EventKind::$variant { .. } => $name, )* }
            }

            /// The category this kind belongs to.
            pub fn category(&self) -> Category {
                match self { $( EventKind::$variant { .. } => Category::$cat, )* }
            }

            /// Calls `f(name, value)` for every field, in declaration
            /// order, without allocating.
            #[inline]
            pub fn for_each_field(&self, mut f: impl FnMut(&'static str, u64)) {
                match self {
                    $( EventKind::$variant { $($field),* } => {
                        $( f(stringify!($field), u64::from(*$field)); )*
                    } )*
                }
            }

            /// Appends `,"field":value` for every field, in declaration
            /// order: the payload bytes both exporters emit. The keys are
            /// literals assembled at compile time; nothing allocates
            /// beyond `out`'s own growth.
            #[inline]
            pub fn write_json_fields(&self, out: &mut String) {
                match self {
                    $( EventKind::$variant { $($field),* } => {
                        $( out.push_str(concat!(",\"", stringify!($field), "\":"));
                           crate::json::write_u64(u64::from(*$field), out); )*
                    } )*
                }
            }

            /// One event of every kind, each field drawn from `next`
            /// (truncated to the field's width), so a test over "all
            /// kinds" cannot forget a new one.
            #[cfg(test)]
            pub(crate) fn one_of_each(mut next: impl FnMut() -> u64) -> Vec<EventKind> {
                vec![ $( EventKind::$variant { $( $field: next() as $ty ),* } ),* ]
            }

            /// Rebuilds a kind from its name and a field lookup. Returns
            /// `None` for an unknown name, or a field that is missing or
            /// does not fit its storage width.
            pub fn from_fields(name: &str, get: &dyn Fn(&str) -> Option<u64>) -> Option<EventKind> {
                match name {
                    $( $name => Some(EventKind::$variant {
                        $( $field: <$ty>::try_from(get(stringify!($field))?).ok()?, )*
                    }), )*
                    _ => None,
                }
            }
        }
    };
}

event_kinds! {
    HostLaunch { kernel: u16, ntb: u32, hwq: u32 } => ("host_launch", Launch),
    HwqEnqueue { hwq: u32, kernel: u16 } => ("hwq_enqueue", Launch),
    KmuDispatch { kde: u32, kernel: u16 } => ("kmu_dispatch", Launch),
    KdeAlloc { kde: u32, kernel: u16, ntb: u32 } => ("kde_alloc", Launch),
    KdeFree { kde: u32, kernel: u16 } => ("kde_free", Launch),
    DynLaunch { record: u32, path: u8, kernel: u16, ntb: u32 } => ("dyn_launch", Launch),
    LaunchSched { record: u32, smx: u16 } => ("launch_sched", Launch),
    KernelRetire { kde: u32, kernel: u16 } => ("kernel_retire", Launch),
    AgtInsert { group: u64, kernel: u16, kde: u32, overflow: u8 } => ("agt_insert", Agt),
    AgtCoalesce { group: u64, kde: u32, remark: u8 } => ("agt_coalesce", Agt),
    AgtEvict { group: u64 } => ("agt_evict", Agt),
    AggFallback { kernel: u16 } => ("agg_fallback", Agt),
    FcfsMark { kde: u32, first: u8 } => ("fcfs_mark", Fcfs),
    FcfsUnmark { kde: u32 } => ("fcfs_unmark", Fcfs),
    TbPlace { smx: u16, slot: u16, kernel: u16, kde: u32, blkid: u32, agg: u8 } => ("tb_place", Tb),
    TbRetire { smx: u16, slot: u16, kde: u32 } => ("tb_retire", Tb),
    WarpIssue { smx: u16, warp: u16, lanes: u8 } => ("warp_issue", Warp),
    WarpStall { smx: u16, warp: u16, reason: u8 } => ("warp_stall", Warp),
    BarrierWait { smx: u16, tb_slot: u16, arrived: u32, expected: u32 } => ("barrier_wait", Warp),
    CacheAccess { level: u8, unit: u16, hit: u8 } => ("cache_access", Cache),
    DramRowActivate { partition: u32, bank: u32 } => ("dram_row_activate", Dram),
    LaunchDegraded { kernel: u16, from_path: u8, to_path: u8, attempts: u32 } => ("launch_degraded", Launch),
    LaunchBackoff { kernel: u16, attempt: u32, retry_at: u64 } => ("launch_backoff", Launch),
    DeadlineHit { budget: u8, limit: u64 } => ("deadline_hit", Launch),
}

// Widths are storage, not schema: both exporters write every field through
// `u64::from`, so narrowing a field changes no exported byte. What the
// widths buy is the event's size, and every copy of a trace (the log, the
// result cache, each cache hit) pays it per event.
const _: () = assert!(std::mem::size_of::<EventKind>() == 16);
const _: () = assert!(std::mem::size_of::<TraceEvent>() == 24);

/// One recorded event: an [`EventKind`] stamped with the cycle it happened.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct TraceEvent {
    /// Simulator cycle the event occurred at.
    pub cycle: u64,
    /// What happened.
    pub kind: EventKind,
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn category_bits_are_distinct() {
        let mut seen = 0u32;
        for c in Category::ALL {
            assert_eq!(seen & c.bit(), 0, "duplicate bit for {c:?}");
            seen |= c.bit();
        }
        assert_eq!(seen, Category::mask_all());
        // Cached traced cells are keyed by this value.
        assert_eq!(Category::mask_all(), 0x7f);
    }

    #[test]
    fn parse_mask_combinations() {
        assert_eq!(Category::parse_mask("all").unwrap(), Category::mask_all());
        assert_eq!(
            Category::parse_mask("default").unwrap(),
            Category::default_mask()
        );
        assert_eq!(
            Category::parse_mask("launch, warp").unwrap(),
            Category::Launch.bit() | Category::Warp.bit()
        );
        assert!(Category::parse_mask("bogus").is_err());
    }

    #[test]
    fn names_round_trip_through_from_name() {
        for c in Category::ALL {
            assert_eq!(Category::from_name(c.name()), Some(c));
        }
    }

    #[test]
    fn fields_round_trip_through_from_fields() {
        let kinds = [
            EventKind::HostLaunch {
                kernel: 3,
                ntb: 64,
                hwq: 1,
            },
            EventKind::DynLaunch {
                record: 7,
                path: LaunchPath::AggGroup.code(),
                kernel: 2,
                ntb: 5,
            },
            EventKind::AgtInsert {
                group: (1 << 32) | 9,
                kernel: 1,
                kde: 4,
                overflow: 1,
            },
            EventKind::WarpStall {
                smx: 12,
                warp: 40,
                reason: StallReason::Barrier.code(),
            },
            EventKind::DramRowActivate {
                partition: 5,
                bank: 7,
            },
            EventKind::LaunchDegraded {
                kernel: 2,
                from_path: LaunchPath::AggGroup.code(),
                to_path: LaunchPath::HostSerial.code(),
                attempts: 3,
            },
            EventKind::LaunchBackoff {
                kernel: 2,
                attempt: 1,
                retry_at: 1 << 33,
            },
            EventKind::DeadlineHit {
                budget: 0,
                limit: 1 << 40,
            },
        ];
        for k in kinds {
            let mut fields = Vec::new();
            k.for_each_field(|name, value| fields.push((name, value)));
            let get = |name: &str| fields.iter().find(|(n, _)| *n == name).map(|&(_, v)| v);
            assert_eq!(EventKind::from_fields(k.name(), &get), Some(k));
        }
    }

    #[test]
    fn stall_and_path_codes_round_trip() {
        for r in [
            StallReason::Memory,
            StallReason::Barrier,
            StallReason::LaunchApi,
        ] {
            assert_eq!(StallReason::from_code(r.code()), Some(r));
        }
        for p in [
            LaunchPath::DeviceKernel,
            LaunchPath::AggGroup,
            LaunchPath::AggFallback,
            LaunchPath::HostSerial,
        ] {
            assert_eq!(LaunchPath::from_code(p.code()), Some(p));
        }
        assert_eq!(StallReason::from_code(99), None);
        assert_eq!(LaunchPath::from_code(99), None);
    }
}
