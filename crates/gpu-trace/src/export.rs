//! Trace exporters and the matching parsers.
//!
//! Two formats:
//!
//! - **Chrome `trace_event` JSON** (`.json`): one process per traced cell,
//!   one track per SMX plus a "launch path" track. Thread-block residency
//!   becomes complete (`X`) slices, dynamic launches become async
//!   `b`/`e` spans from launch to first schedule (so waiting time is
//!   visible in Perfetto), everything else becomes instants, and the
//!   metrics time series becomes counter tracks. Every emitted record
//!   carries the raw event payload in `args` (including `kind` and
//!   `cycle`), which is what makes the format parseable back into
//!   [`TraceEvent`]s.
//! - **JSONL** (`.jsonl`): one self-describing object per line, for
//!   scripting. Lossless for samples, the dropped count, and every event
//!   whose cycle and fields are below 2^53; numbers travel as JSON
//!   doubles, so a `u64` at or above 2^53 (a budget `limit`, `retry_at`
//!   and the `*_ns` timings are wide enough to get there) is rounded to
//!   the nearest `f64` and spelled as a float.
//!
//! Both writers append bytes straight to one pre-sized `String`: every
//! record is a fixed shape, the field keys come from the `event_kinds!`
//! table ([`EventKind::write_json_fields`]), and nothing is allocated per
//! event. The bytes are pinned against tree-building reference exporters
//! in this module's tests.

use crate::event::{EventKind, LaunchPath, TraceEvent};
use crate::json::{write_num, write_str, write_u64, Json};
use crate::metrics::MetricsSample;
use crate::recorder::TraceData;

/// Launch-path track id in the Chrome export.
const TID_LAUNCH: u64 = 1;
/// SMX `i` maps to thread id `i + TID_SMX_BASE`.
const TID_SMX_BASE: u64 = 2;

// Output reservations, in bytes per record on top of the cell name. They
// sit above what simulator traces reach (about 80 and 140 bytes per JSONL
// and Chrome event on the Eval-scale launch cells), so the output is
// allocated once; a trace of wider values or a name full of escapes still
// exports, the `String` just grows. The slack is never written, so it is
// never resident.
const JSONL_EVENT_BYTES: usize = 112;
const JSONL_SAMPLE_BYTES: usize = 240;
const CHROME_EVENT_BYTES: usize = 192;
const CHROME_SAMPLE_BYTES: usize = 384;

fn smx_of(kind: &EventKind) -> Option<u64> {
    let mut smx = None;
    kind.for_each_field(|name, value| {
        if name == "smx" {
            smx = Some(value);
        }
    });
    smx
}

/// Opens a Chrome record up to the inside of its `name` string. Names are
/// kind names, fixed labels and digits, none of which needs escaping.
fn chrome_open(out: &mut String, ph: &str) {
    if !out.ends_with('[') {
        out.push(',');
    }
    out.push_str("{\"ph\":\"");
    out.push_str(ph);
    out.push_str("\",\"name\":\"");
}

/// Closes the `name` string and writes the `pid`/`tid`/`ts` members.
fn chrome_ids(out: &mut String, pid: u64, tid: u64, ts: u64) {
    out.push_str("\",\"pid\":");
    write_u64(pid, out);
    out.push_str(",\"tid\":");
    write_u64(tid, out);
    out.push_str(",\"ts\":");
    write_u64(ts, out);
}

/// Writes `,"args":{"kind":…,"cycle":…,<fields>` and leaves the object
/// open for the caller to extend or close.
fn chrome_args(out: &mut String, cycle: u64, kind: &EventKind) {
    out.push_str(",\"args\":{\"kind\":\"");
    out.push_str(kind.name());
    out.push_str("\",\"cycle\":");
    write_u64(cycle, out);
    kind.write_json_fields(out);
}

/// One end (`b` or `e`) of a launch-to-schedule async span.
fn chrome_launch(
    out: &mut String,
    ph: &str,
    path: LaunchPath,
    pid: u64,
    record: u32,
    cycle: u64,
    kind: &EventKind,
) {
    chrome_open(out, ph);
    out.push_str("launch:");
    out.push_str(path.name());
    chrome_ids(out, pid, TID_LAUNCH, cycle);
    out.push_str(",\"cat\":\"launch\",\"id\":");
    write_u64(u64::from(record), out);
    chrome_args(out, cycle, kind);
    out.push_str("}}");
}

/// The first `dyn_launch` path seen per record id. The simulator numbers
/// records densely from zero, so ids below the cell's event count index a
/// table; any other id (none the simulator produces) goes to a searched
/// side list, so a hostile id cannot size the table.
struct LaunchPaths {
    dense: Vec<Option<LaunchPath>>,
    dense_limit: usize,
    sparse: Vec<(u32, LaunchPath)>,
}

impl LaunchPaths {
    fn insert(&mut self, record: u32, path: LaunchPath) {
        let at = record as usize;
        if at < self.dense_limit {
            if at >= self.dense.len() {
                self.dense.resize(at + 1, None);
            }
            self.dense[at].get_or_insert(path);
        } else if self.get(record).is_none() {
            self.sparse.push((record, path));
        }
    }

    fn get(&self, record: u32) -> Option<LaunchPath> {
        match self.dense.get(record as usize) {
            Some(&path) => path,
            None => self
                .sparse
                .iter()
                .find(|(r, _)| *r == record)
                .map(|&(_, p)| p),
        }
    }
}

/// Track ids in first-seen order (the order of the `thread_name`
/// records), with a bitset in front of the search for the ids a real
/// machine has.
#[derive(Default)]
struct Tracks {
    low: u128,
    order: Vec<u64>,
}

impl Tracks {
    fn note(&mut self, tid: u64) {
        if tid < 128 {
            if self.low & (1 << tid) == 0 {
                self.low |= 1 << tid;
                self.order.push(tid);
            }
        } else if !self.order.contains(&tid) {
            self.order.push(tid);
        }
    }
}

/// Serialises traced cells to Chrome `trace_event` JSON (one process per
/// cell). Open the result in <https://ui.perfetto.dev>.
pub fn chrome_trace(cells: &[(String, TraceData)]) -> String {
    let reserve: usize = cells
        .iter()
        .map(|(name, data)| {
            name.len()
                + CHROME_EVENT_BYTES * (data.events.len() + 1)
                + CHROME_SAMPLE_BYTES * data.samples.len()
        })
        .sum();
    let mut out = String::with_capacity(reserve + 64);
    out.push_str("{\"traceEvents\":[");
    for (idx, (name, data)) in cells.iter().enumerate() {
        let pid = idx as u64 + 1;
        chrome_open(&mut out, "M");
        out.push_str("process_name");
        chrome_ids(&mut out, pid, 0, 0);
        out.push_str(",\"args\":{\"name\":");
        write_str(name, &mut out);
        out.push_str("}}");

        let mut tracks = Tracks::default();
        // Resident thread blocks: (smx, slot), kernel, placement cycle and
        // the placement event itself.
        let mut open_tb: Vec<((u32, u32), u32, u64, EventKind)> = Vec::new();
        let mut launch_paths = LaunchPaths {
            dense: Vec::new(),
            dense_limit: data.events.len(),
            sparse: Vec::new(),
        };
        let last_cycle = data.events.last().map(|e| e.cycle).unwrap_or(0);

        for TraceEvent { cycle, kind } in &data.events {
            let cycle = *cycle;
            match *kind {
                EventKind::TbPlace {
                    smx, slot, kernel, ..
                } => {
                    open_tb.push(((smx, slot), kernel, cycle, *kind));
                }
                EventKind::TbRetire { smx, slot, .. } => {
                    let Some(pos) = open_tb.iter().position(|(k, ..)| *k == (smx, slot)) else {
                        continue;
                    };
                    let (_, kernel, start, place) = open_tb.swap_remove(pos);
                    let tid = u64::from(smx) + TID_SMX_BASE;
                    tracks.note(tid);
                    chrome_open(&mut out, "X");
                    out.push_str("tb k");
                    write_u64(u64::from(kernel), &mut out);
                    chrome_ids(&mut out, pid, tid, start);
                    out.push_str(",\"dur\":");
                    write_u64(cycle.saturating_sub(start).max(1), &mut out);
                    chrome_args(&mut out, start, &place);
                    out.push_str(",\"retire_cycle\":");
                    write_u64(cycle, &mut out);
                    out.push_str("}}");
                }
                EventKind::DynLaunch { record, path, .. } => {
                    let p = LaunchPath::from_code(path).unwrap_or(LaunchPath::DeviceKernel);
                    launch_paths.insert(record, p);
                    tracks.note(TID_LAUNCH);
                    chrome_launch(&mut out, "b", p, pid, record, cycle, kind);
                }
                EventKind::LaunchSched { record, .. } => {
                    let p = launch_paths.get(record).unwrap_or(LaunchPath::DeviceKernel);
                    chrome_launch(&mut out, "e", p, pid, record, cycle, kind);
                }
                _ => {
                    let tid = match smx_of(kind) {
                        Some(smx) => smx + TID_SMX_BASE,
                        None => TID_LAUNCH,
                    };
                    tracks.note(tid);
                    chrome_open(&mut out, "i");
                    out.push_str(kind.name());
                    chrome_ids(&mut out, pid, tid, cycle);
                    out.push_str(",\"s\":\"t\"");
                    chrome_args(&mut out, cycle, kind);
                    out.push_str("}}");
                }
            }
        }

        // Thread blocks still resident when the trace ended.
        for ((smx, _slot), _kernel, start, place) in open_tb {
            let tid = u64::from(smx) + TID_SMX_BASE;
            tracks.note(tid);
            chrome_open(&mut out, "X");
            out.push_str("tb (open)");
            chrome_ids(&mut out, pid, tid, start);
            out.push_str(",\"dur\":");
            write_u64(last_cycle.saturating_sub(start).max(1), &mut out);
            chrome_args(&mut out, start, &place);
            out.push_str("}}");
        }

        for tid in tracks.order {
            chrome_open(&mut out, "M");
            out.push_str("thread_name");
            chrome_ids(&mut out, pid, tid, 0);
            out.push_str(",\"args\":{\"name\":\"");
            if tid == TID_LAUNCH {
                out.push_str("launch path");
            } else {
                out.push_str("SMX ");
                write_u64(tid - TID_SMX_BASE, &mut out);
            }
            out.push_str("\"}}");
        }

        for s in &data.samples {
            let counters: [(&str, &[(&str, f64)]); 3] = [
                (
                    "agt fill",
                    &[
                        ("on_chip", f64::from(s.agt_fill)),
                        ("overflow", f64::from(s.agt_overflow)),
                    ],
                ),
                (
                    "activity %",
                    &[
                        ("warp_activity", s.warp_activity_pct),
                        ("occupancy", s.occupancy_pct),
                    ],
                ),
                (
                    "dram efficiency %",
                    &[("efficiency", s.dram_efficiency_pct)],
                ),
            ];
            for (name, series) in counters {
                chrome_open(&mut out, "C");
                out.push_str(name);
                chrome_ids(&mut out, pid, 0, s.cycle);
                out.push_str(",\"args\":{");
                for (i, (key, value)) in series.iter().enumerate() {
                    out.push_str(if i == 0 { "\"" } else { ",\"" });
                    out.push_str(key);
                    out.push_str("\":");
                    write_num(*value, &mut out);
                }
                out.push_str("}}");
            }
        }
    }
    out.push_str("],\"displayTimeUnit\":\"ns\"}");
    out
}

/// Parses a Chrome trace produced by [`chrome_trace`] back into per-cell
/// event lists. Counter tracks and metadata are skipped; events are
/// returned sorted by cycle (the export interleaves derived records, so
/// the original intra-cycle ordering is not preserved).
pub fn parse_chrome(text: &str) -> Result<Vec<(String, TraceData)>, String> {
    let doc = Json::parse(text)?;
    let events = doc
        .get("traceEvents")
        .and_then(|v| v.as_arr())
        .ok_or_else(|| "missing traceEvents array".to_string())?;

    let mut names: Vec<(u64, String)> = Vec::new();
    let mut cells: Vec<(u64, Vec<TraceEvent>)> = Vec::new();
    for rec in events {
        let ph = rec.get("ph").and_then(|v| v.as_str()).unwrap_or("");
        let pid = rec.get("pid").and_then(|v| v.as_u64()).unwrap_or(0);
        if ph == "M" {
            if rec.get("name").and_then(|v| v.as_str()) == Some("process_name") {
                if let Some(name) = rec
                    .get("args")
                    .and_then(|a| a.get("name"))
                    .and_then(|v| v.as_str())
                {
                    names.push((pid, name.to_string()));
                }
            }
            continue;
        }
        let args = match rec.get("args") {
            Some(a) => a,
            None => continue,
        };
        let kind_name = match args.get("kind").and_then(|v| v.as_str()) {
            Some(k) => k,
            None => continue,
        };
        let get = |name: &str| args.u64_field(name);
        let kind = match EventKind::from_fields(kind_name, &get) {
            Some(k) => k,
            None => return Err(format!("unknown event kind `{kind_name}`")),
        };
        let cycle = get("cycle").ok_or_else(|| format!("`{kind_name}` missing cycle"))?;
        let idx = match cells.iter().position(|(p, _)| *p == pid) {
            Some(i) => i,
            None => {
                cells.push((pid, Vec::new()));
                cells.len() - 1
            }
        };
        let bucket = &mut cells[idx].1;
        bucket.push(TraceEvent { cycle, kind });
        // A complete slice encodes both the placement and the retirement.
        if ph == "X" {
            if let (EventKind::TbPlace { smx, slot, kde, .. }, Some(retire)) =
                (kind, get("retire_cycle"))
            {
                bucket.push(TraceEvent {
                    cycle: retire,
                    kind: EventKind::TbRetire { smx, slot, kde },
                });
            }
        }
    }

    cells.sort_by_key(|(pid, _)| *pid);
    Ok(cells
        .into_iter()
        .map(|(pid, mut events)| {
            events.sort_by_key(|e| e.cycle);
            let name = names
                .iter()
                .find(|(p, _)| *p == pid)
                .map(|(_, n)| n.clone())
                .unwrap_or_else(|| format!("pid{pid}"));
            (
                name,
                TraceData {
                    events,
                    samples: Vec::new(),
                    dropped: 0,
                },
            )
        })
        .collect())
}

/// Serialises traced cells to line-delimited JSON: one object per event,
/// sample, and per-cell metadata line. Lossless below 2^53 (see the module
/// doc).
pub fn jsonl(cells: &[(String, TraceData)]) -> String {
    let reserve: usize = cells
        .iter()
        .map(|(name, data)| {
            (name.len() + JSONL_EVENT_BYTES) * (data.events.len() + 1)
                + (name.len() + JSONL_SAMPLE_BYTES) * data.samples.len()
        })
        .sum();
    let mut out = String::with_capacity(reserve);
    let longest = cells.iter().map(|(name, _)| name.len()).max().unwrap_or(0);
    let mut prefix = String::with_capacity(longest + 32);
    for (name, data) in cells {
        prefix.clear();
        prefix.push_str("{\"cell\":");
        write_str(name, &mut prefix);
        prefix.push_str(",\"kind\":\"");
        for TraceEvent { cycle, kind } in &data.events {
            out.push_str(&prefix);
            out.push_str(kind.name());
            out.push_str("\",\"cycle\":");
            write_u64(*cycle, &mut out);
            kind.write_json_fields(&mut out);
            out.push_str("}\n");
        }
        for s in &data.samples {
            out.push_str(&prefix);
            out.push_str("metrics_sample\",\"cycle\":");
            write_u64(s.cycle, &mut out);
            out.push_str(",\"warp_activity_pct\":");
            write_num(s.warp_activity_pct, &mut out);
            out.push_str(",\"occupancy_pct\":");
            write_num(s.occupancy_pct, &mut out);
            out.push_str(",\"agt_fill\":");
            write_u64(u64::from(s.agt_fill), &mut out);
            out.push_str(",\"agt_overflow\":");
            write_u64(u64::from(s.agt_overflow), &mut out);
            out.push_str(",\"dram_efficiency_pct\":");
            write_num(s.dram_efficiency_pct, &mut out);
            out.push_str(",\"issues\":");
            write_u64(s.issues, &mut out);
            out.push_str("}\n");
        }
        out.push_str(&prefix);
        out.push_str("trace_meta\",\"dropped\":");
        write_u64(data.dropped, &mut out);
        out.push_str("}\n");
    }
    out
}

/// Parses JSONL produced by [`jsonl`] back into per-cell trace data, in
/// first-seen cell order.
pub fn parse_jsonl(text: &str) -> Result<Vec<(String, TraceData)>, String> {
    let mut cells: Vec<(String, TraceData)> = Vec::new();
    for (lineno, line) in text.lines().enumerate() {
        let line = line.trim();
        if line.is_empty() {
            continue;
        }
        let obj = Json::parse(line).map_err(|e| format!("line {}: {e}", lineno + 1))?;
        let cell = obj
            .get("cell")
            .and_then(|v| v.as_str())
            .ok_or_else(|| format!("line {}: missing cell", lineno + 1))?;
        let kind_name = obj
            .get("kind")
            .and_then(|v| v.as_str())
            .ok_or_else(|| format!("line {}: missing kind", lineno + 1))?;
        let idx = match cells.iter().position(|(n, _)| n == cell) {
            Some(i) => i,
            None => {
                cells.push((cell.to_string(), TraceData::default()));
                cells.len() - 1
            }
        };
        let data = &mut cells[idx].1;
        match kind_name {
            "metrics_sample" => {
                let f64_of = |key: &str| obj.get(key).and_then(|v| v.as_f64()).unwrap_or(0.0);
                let u64_of = |key: &str| obj.get(key).and_then(|v| v.as_u64()).unwrap_or(0);
                data.samples.push(MetricsSample {
                    cycle: u64_of("cycle"),
                    warp_activity_pct: f64_of("warp_activity_pct"),
                    occupancy_pct: f64_of("occupancy_pct"),
                    agt_fill: u64_of("agt_fill") as u32,
                    agt_overflow: u64_of("agt_overflow") as u32,
                    dram_efficiency_pct: f64_of("dram_efficiency_pct"),
                    issues: u64_of("issues"),
                });
            }
            "trace_meta" => {
                data.dropped = obj.get("dropped").and_then(|v| v.as_u64()).unwrap_or(0);
            }
            _ => {
                let get = |name: &str| obj.u64_field(name);
                let kind = EventKind::from_fields(kind_name, &get).ok_or_else(|| {
                    format!("line {}: unknown event kind `{kind_name}`", lineno + 1)
                })?;
                let cycle =
                    get("cycle").ok_or_else(|| format!("line {}: missing cycle", lineno + 1))?;
                data.events.push(TraceEvent { cycle, kind });
            }
        }
    }
    Ok(cells)
}

/// The exporters as first written: build a [`Json`] tree per record, then
/// serialise it. They define the bytes; the writers above must reproduce
/// them on every input.
#[cfg(test)]
mod reference {
    use super::{TID_LAUNCH, TID_SMX_BASE};
    use crate::event::{EventKind, LaunchPath, TraceEvent};
    use crate::json::Json;
    use crate::recorder::TraceData;

    fn fields(kind: &EventKind) -> Vec<(&'static str, u64)> {
        let mut fields = Vec::new();
        kind.for_each_field(|name, value| fields.push((name, value)));
        fields
    }

    fn smx_of(kind: &EventKind) -> Option<u64> {
        fields(kind)
            .iter()
            .find(|(n, _)| *n == "smx")
            .map(|&(_, v)| v)
    }

    fn args_obj(cycle: u64, kind: &EventKind) -> Json {
        let mut pairs = vec![
            ("kind".to_string(), Json::Str(kind.name().to_string())),
            ("cycle".to_string(), Json::Num(cycle as f64)),
        ];
        for (name, value) in fields(kind) {
            pairs.push((name.to_string(), Json::Num(value as f64)));
        }
        Json::Obj(pairs)
    }

    fn chrome_record(ph: &str, name: &str, pid: u64, tid: u64, ts: u64) -> Vec<(String, Json)> {
        vec![
            ("ph".to_string(), Json::Str(ph.to_string())),
            ("name".to_string(), Json::Str(name.to_string())),
            ("pid".to_string(), Json::Num(pid as f64)),
            ("tid".to_string(), Json::Num(tid as f64)),
            ("ts".to_string(), Json::Num(ts as f64)),
        ]
    }

    pub fn chrome_trace(cells: &[(String, TraceData)]) -> String {
        let mut records: Vec<Json> = Vec::new();
        for (idx, (name, data)) in cells.iter().enumerate() {
            let pid = idx as u64 + 1;
            let mut meta = chrome_record("M", "process_name", pid, 0, 0);
            meta.push((
                "args".to_string(),
                Json::Obj(vec![("name".to_string(), Json::Str(name.clone()))]),
            ));
            records.push(Json::Obj(meta));

            let mut tids_seen: Vec<u64> = Vec::new();
            let mut open_tb: Vec<((u64, u64), (u64, EventKind))> = Vec::new();
            let mut launch_path: Vec<(u32, LaunchPath)> = Vec::new();
            let last_cycle = data.events.last().map(|e| e.cycle).unwrap_or(0);

            for TraceEvent { cycle, kind } in &data.events {
                match *kind {
                    EventKind::TbPlace { smx, slot, .. } => {
                        open_tb.push(((smx as u64, slot as u64), (*cycle, *kind)));
                    }
                    EventKind::TbRetire { smx, slot, .. } => {
                        let key = (smx as u64, slot as u64);
                        if let Some(pos) = open_tb.iter().position(|(k, _)| *k == key) {
                            let (_, (start, place)) = open_tb.swap_remove(pos);
                            let tid = smx as u64 + TID_SMX_BASE;
                            if !tids_seen.contains(&tid) {
                                tids_seen.push(tid);
                            }
                            let label = match place {
                                EventKind::TbPlace { kernel, .. } => format!("tb k{kernel}"),
                                _ => "tb".to_string(),
                            };
                            let mut rec = chrome_record("X", &label, pid, tid, start);
                            rec.push((
                                "dur".to_string(),
                                Json::Num(cycle.saturating_sub(start).max(1) as f64),
                            ));
                            let mut args = args_obj(start, &place);
                            if let Json::Obj(pairs) = &mut args {
                                pairs.push(("retire_cycle".to_string(), Json::Num(*cycle as f64)));
                            }
                            rec.push(("args".to_string(), args));
                            records.push(Json::Obj(rec));
                        }
                    }
                    EventKind::DynLaunch { record, path, .. } => {
                        let p = LaunchPath::from_code(path).unwrap_or(LaunchPath::DeviceKernel);
                        launch_path.push((record, p));
                        let mut rec = chrome_record(
                            "b",
                            &format!("launch:{}", p.name()),
                            pid,
                            TID_LAUNCH,
                            *cycle,
                        );
                        rec.push(("cat".to_string(), Json::Str("launch".to_string())));
                        rec.push(("id".to_string(), Json::Num(record as f64)));
                        rec.push(("args".to_string(), args_obj(*cycle, kind)));
                        records.push(Json::Obj(rec));
                        if !tids_seen.contains(&TID_LAUNCH) {
                            tids_seen.push(TID_LAUNCH);
                        }
                    }
                    EventKind::LaunchSched { record, .. } => {
                        let p = launch_path
                            .iter()
                            .find(|(r, _)| *r == record)
                            .map(|&(_, p)| p)
                            .unwrap_or(LaunchPath::DeviceKernel);
                        let mut rec = chrome_record(
                            "e",
                            &format!("launch:{}", p.name()),
                            pid,
                            TID_LAUNCH,
                            *cycle,
                        );
                        rec.push(("cat".to_string(), Json::Str("launch".to_string())));
                        rec.push(("id".to_string(), Json::Num(record as f64)));
                        rec.push(("args".to_string(), args_obj(*cycle, kind)));
                        records.push(Json::Obj(rec));
                    }
                    _ => {
                        let tid = match smx_of(kind) {
                            Some(smx) => smx + TID_SMX_BASE,
                            None => TID_LAUNCH,
                        };
                        if !tids_seen.contains(&tid) {
                            tids_seen.push(tid);
                        }
                        let mut rec = chrome_record("i", kind.name(), pid, tid, *cycle);
                        rec.push(("s".to_string(), Json::Str("t".to_string())));
                        rec.push(("args".to_string(), args_obj(*cycle, kind)));
                        records.push(Json::Obj(rec));
                    }
                }
            }

            // Thread blocks still resident when the trace ended.
            for ((smx, _slot), (start, place)) in open_tb {
                let tid = smx + TID_SMX_BASE;
                if !tids_seen.contains(&tid) {
                    tids_seen.push(tid);
                }
                let mut rec = chrome_record("X", "tb (open)", pid, tid, start);
                rec.push((
                    "dur".to_string(),
                    Json::Num(last_cycle.saturating_sub(start).max(1) as f64),
                ));
                rec.push(("args".to_string(), args_obj(start, &place)));
                records.push(Json::Obj(rec));
            }

            for tid in tids_seen {
                let label = if tid == TID_LAUNCH {
                    "launch path".to_string()
                } else {
                    format!("SMX {}", tid - TID_SMX_BASE)
                };
                let mut rec = chrome_record("M", "thread_name", pid, tid, 0);
                rec.push((
                    "args".to_string(),
                    Json::Obj(vec![("name".to_string(), Json::Str(label))]),
                ));
                records.push(Json::Obj(rec));
            }

            for s in &data.samples {
                for (name, pairs) in [
                    (
                        "agt fill",
                        vec![
                            ("on_chip".to_string(), Json::Num(s.agt_fill as f64)),
                            ("overflow".to_string(), Json::Num(s.agt_overflow as f64)),
                        ],
                    ),
                    (
                        "activity %",
                        vec![
                            ("warp_activity".to_string(), Json::Num(s.warp_activity_pct)),
                            ("occupancy".to_string(), Json::Num(s.occupancy_pct)),
                        ],
                    ),
                    (
                        "dram efficiency %",
                        vec![("efficiency".to_string(), Json::Num(s.dram_efficiency_pct))],
                    ),
                ] {
                    let mut rec = chrome_record("C", name, pid, 0, s.cycle);
                    rec.push(("args".to_string(), Json::Obj(pairs)));
                    records.push(Json::Obj(rec));
                }
            }
        }

        Json::Obj(vec![
            ("traceEvents".to_string(), Json::Arr(records)),
            ("displayTimeUnit".to_string(), Json::Str("ns".to_string())),
        ])
        .to_string()
    }

    pub fn jsonl(cells: &[(String, TraceData)]) -> String {
        let mut out = String::new();
        for (name, data) in cells {
            for TraceEvent { cycle, kind } in &data.events {
                let mut pairs = vec![
                    ("cell".to_string(), Json::Str(name.clone())),
                    ("kind".to_string(), Json::Str(kind.name().to_string())),
                    ("cycle".to_string(), Json::Num(*cycle as f64)),
                ];
                for (field, value) in fields(kind) {
                    pairs.push((field.to_string(), Json::Num(value as f64)));
                }
                Json::Obj(pairs).write(&mut out);
                out.push('\n');
            }
            for s in &data.samples {
                Json::Obj(vec![
                    ("cell".to_string(), Json::Str(name.clone())),
                    ("kind".to_string(), Json::Str("metrics_sample".to_string())),
                    ("cycle".to_string(), Json::Num(s.cycle as f64)),
                    (
                        "warp_activity_pct".to_string(),
                        Json::Num(s.warp_activity_pct),
                    ),
                    ("occupancy_pct".to_string(), Json::Num(s.occupancy_pct)),
                    ("agt_fill".to_string(), Json::Num(s.agt_fill as f64)),
                    ("agt_overflow".to_string(), Json::Num(s.agt_overflow as f64)),
                    (
                        "dram_efficiency_pct".to_string(),
                        Json::Num(s.dram_efficiency_pct),
                    ),
                    ("issues".to_string(), Json::Num(s.issues as f64)),
                ])
                .write(&mut out);
                out.push('\n');
            }
            Json::Obj(vec![
                ("cell".to_string(), Json::Str(name.clone())),
                ("kind".to_string(), Json::Str("trace_meta".to_string())),
                ("dropped".to_string(), Json::Num(data.dropped as f64)),
            ])
            .write(&mut out);
            out.push('\n');
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::event::StallReason;
    use sim_rand::{Rng, SeedableRng, StdRng};

    fn sample_cells() -> Vec<(String, TraceData)> {
        let events = vec![
            TraceEvent {
                cycle: 10,
                kind: EventKind::HostLaunch {
                    kernel: 0,
                    ntb: 8,
                    hwq: 0,
                },
            },
            TraceEvent {
                cycle: 300,
                kind: EventKind::DynLaunch {
                    record: 0,
                    path: LaunchPath::AggGroup.code(),
                    kernel: 1,
                    ntb: 2,
                },
            },
            TraceEvent {
                cycle: 320,
                kind: EventKind::TbPlace {
                    smx: 1,
                    slot: 0,
                    kernel: 1,
                    kde: 3,
                    blkid: 0,
                    agg: 1,
                },
            },
            TraceEvent {
                cycle: 321,
                kind: EventKind::LaunchSched { record: 0, smx: 1 },
            },
            TraceEvent {
                cycle: 330,
                kind: EventKind::WarpStall {
                    smx: 1,
                    warp: 4,
                    reason: StallReason::Memory.code(),
                },
            },
            TraceEvent {
                cycle: 400,
                kind: EventKind::TbRetire {
                    smx: 1,
                    slot: 0,
                    kde: 3,
                },
            },
        ];
        let samples = vec![MetricsSample {
            cycle: 1000,
            warp_activity_pct: 73.25,
            occupancy_pct: 41.5,
            agt_fill: 12,
            agt_overflow: 1,
            dram_efficiency_pct: 88.0,
            issues: 512,
        }];
        vec![(
            "bfs_citation/DTBL".to_string(),
            TraceData {
                events,
                samples,
                dropped: 2,
            },
        )]
    }

    #[test]
    fn jsonl_round_trips_losslessly() {
        let cells = sample_cells();
        let text = jsonl(&cells);
        let back = parse_jsonl(&text).expect("parse");
        assert_eq!(back.len(), 1);
        assert_eq!(back[0].0, cells[0].0);
        assert_eq!(back[0].1.events, cells[0].1.events);
        assert_eq!(back[0].1.samples, cells[0].1.samples);
        assert_eq!(back[0].1.dropped, 2);
    }

    #[test]
    fn chrome_trace_parses_and_recovers_events() {
        let cells = sample_cells();
        let text = chrome_trace(&cells);
        // Must be a single valid JSON document with a traceEvents array.
        let doc = Json::parse(&text).expect("valid JSON");
        assert!(doc.get("traceEvents").and_then(|v| v.as_arr()).is_some());
        let back = parse_chrome(&text).expect("parse chrome");
        assert_eq!(back.len(), 1);
        assert_eq!(back[0].0, "bfs_citation/DTBL");
        let mut want = cells[0].1.events.clone();
        want.sort_by_key(|e| e.cycle);
        assert_eq!(back[0].1.events, want);
    }

    #[test]
    fn chrome_trace_contains_tracks_and_async_pair() {
        let text = chrome_trace(&sample_cells());
        assert!(text.contains("\"thread_name\""));
        assert!(text.contains("SMX 1"));
        assert!(text.contains("launch path"));
        assert!(text.contains("\"ph\":\"b\""));
        assert!(text.contains("\"ph\":\"e\""));
        assert!(text.contains("\"ph\":\"X\""));
        assert!(text.contains("\"ph\":\"C\""));
    }

    /// Cell names that exercise every escape class: quote, backslash, the
    /// named control escapes, `\u00XX` controls, DEL (not escaped) and
    /// multi-byte UTF-8 of every width.
    const NAMES: [&str; 8] = [
        "",
        "bfs_citation/DTBL",
        "q\"uote\\back",
        "line\nfeed\rret\ttab",
        "\u{0}\u{1}\u{8}\u{c}\u{1f}\u{7f}",
        "h\u{e9}llo \u{2192} \u{4e16}\u{754c} \u{1f600}",
        "\\\"\u{1f}\u{4e16}\"\\",
        "trailing\\",
    ];

    /// Field and cycle values: the width edges, both sides of 2^53, small
    /// values (so placements, retirements and launch records pair up and
    /// collide) and uniform noise. `cap` bounds everything drawn.
    fn value(rng: &mut StdRng, cap: u64) -> u64 {
        const EDGES: [u64; 8] = [
            0,
            1,
            u32::MAX as u64,
            u32::MAX as u64 + 1,
            (1 << 53) - 1,
            1 << 53,
            (1 << 53) + 1,
            u64::MAX,
        ];
        let v = match rng.gen_range(0..10u32) {
            0..=2 => EDGES[rng.gen_range(0..EDGES.len())],
            3..=7 => rng.gen_range(0..4u64),
            8 => rng.gen_range(0..200u64),
            _ => rng.gen::<u64>(),
        };
        v.min(cap)
    }

    fn float(rng: &mut StdRng, finite: bool) -> f64 {
        match rng.gen_range(0..8u32) {
            0 => 0.0,
            1 => 100.0,
            2 => rng.gen_range(0..1000u64) as f64,
            3 if !finite => f64::NAN,
            4 if !finite => f64::INFINITY,
            5 if !finite => f64::NEG_INFINITY,
            6 => -rng.gen::<f64>() * 1e-7,
            _ => rng.gen::<f64>() * 100.0,
        }
    }

    /// A random cell: every event kind several times over in shuffled
    /// order (so retirements also precede placements), random samples and
    /// drop count. Sometimes empty.
    fn random_data(rng: &mut StdRng, cap: u64, finite: bool) -> TraceData {
        if rng.gen_range(0..8u32) == 0 {
            return TraceData::default();
        }
        let mut events = Vec::new();
        for _ in 0..rng.gen_range(1..5u32) {
            for kind in EventKind::one_of_each(|| value(rng, cap)) {
                events.push(TraceEvent {
                    cycle: value(rng, cap),
                    kind,
                });
            }
        }
        for i in (1..events.len()).rev() {
            events.swap(i, rng.gen_range(0..=i));
        }
        let samples = (0..rng.gen_range(0..4u32))
            .map(|_| MetricsSample {
                cycle: value(rng, cap),
                warp_activity_pct: float(rng, finite),
                occupancy_pct: float(rng, finite),
                agt_fill: value(rng, cap) as u32,
                agt_overflow: value(rng, cap) as u32,
                dram_efficiency_pct: float(rng, finite),
                issues: value(rng, cap),
            })
            .collect();
        TraceData {
            events,
            samples,
            dropped: value(rng, cap),
        }
    }

    #[test]
    fn writers_match_the_tree_building_reference_byte_for_byte() {
        let mut rng = StdRng::seed_from_u64(0x15);
        // The generator must reach the paired shapes, not only instants.
        let mut paired = [
            ("\"retire_cycle\"", false),
            ("tb (open)", false),
            ("\"ph\":\"e\",\"name\":\"launch:host_serial\"", false),
            ("\"ph\":\"C\"", false),
        ];
        for round in 0..300 {
            let cells: Vec<(String, TraceData)> = (0..rng.gen_range(0..4u32))
                .map(|_| {
                    let name = NAMES[rng.gen_range(0..NAMES.len())].to_string();
                    (name, random_data(&mut rng, u64::MAX, false))
                })
                .collect();
            assert_eq!(jsonl(&cells), reference::jsonl(&cells), "round {round}");
            let chrome = chrome_trace(&cells);
            assert_eq!(chrome, reference::chrome_trace(&cells), "round {round}");
            for (needle, seen) in &mut paired {
                *seen |= chrome.contains(*needle);
            }
        }
        assert_eq!(paired.map(|(_, seen)| seen), [true; 4], "{paired:?}");
    }

    #[test]
    fn jsonl_round_trips_every_kind_below_2_pow_53() {
        let mut rng = StdRng::seed_from_u64(0x53);
        for round in 0..100 {
            // Distinct names: the parser merges lines of equal cell name.
            let cells: Vec<(String, TraceData)> = NAMES
                .iter()
                .take(rng.gen_range(0..=NAMES.len()))
                .map(|name| (name.to_string(), random_data(&mut rng, (1 << 53) - 1, true)))
                .collect();
            let back = parse_jsonl(&jsonl(&cells)).expect("parse");
            assert_eq!(back.len(), cells.len(), "round {round}");
            for ((name, data), (want_name, want)) in back.iter().zip(&cells) {
                assert_eq!(name, want_name, "round {round}");
                assert_eq!(data.events, want.events, "round {round}");
                assert_eq!(data.samples, want.samples, "round {round}");
                assert_eq!(data.dropped, want.dropped, "round {round}");
            }
        }
    }

    /// JSON numbers are doubles: from 2^53 up a `u64` is rounded to the
    /// nearest `f64` and spelled as a float. These bytes are part of the
    /// format; they are pinned, not endorsed.
    #[test]
    fn values_from_2_pow_53_up_are_written_through_f64() {
        let events = [(1u64 << 53) - 1, 1 << 53, (1 << 53) + 1, u64::MAX]
            .map(|v| TraceEvent {
                cycle: v,
                kind: EventKind::LaunchBackoff {
                    kernel: u32::MAX,
                    attempt: 0,
                    retry_at: v,
                },
            })
            .to_vec();
        let cells = [(
            "c".to_string(),
            TraceData {
                events,
                samples: Vec::new(),
                dropped: u64::MAX,
            },
        )];
        let line = |n: &str| {
            format!(
                "{{\"cell\":\"c\",\"kind\":\"launch_backoff\",\"cycle\":{n},\
                 \"kernel\":4294967295,\"attempt\":0,\"retry_at\":{n}}}\n"
            )
        };
        let want = line("9007199254740991")
            + &line("9007199254740992.0")
            + &line("9007199254740992.0")
            + &line("1.8446744073709552e19")
            + "{\"cell\":\"c\",\"kind\":\"trace_meta\",\"dropped\":1.8446744073709552e19}\n";
        assert_eq!(jsonl(&cells), want);
        let back = parse_jsonl(&want).expect("parse");
        assert_eq!(back[0].1.events[0], cells[0].1.events[0]);
        assert_eq!(back[0].1.events[2].cycle, 1 << 53, "2^53 + 1 is rounded");
    }
}
