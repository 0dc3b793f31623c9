//! Disk persistence for the daemon's result cache.
//!
//! The cache file is JSONL: a header line naming the format and its
//! version, one line per `CellKey → RunReport` entry (LRU-first, so a
//! reload preserves recency), and a footer carrying the entry count. A
//! load accepts the file only if every layer checks out — parseable
//! JSON, matching version, matching hash scheme, and a footer count that
//! equals the entries seen (which catches truncated writes). *Any*
//! failure degrades to an empty (cold) cache; a stale or corrupt file is
//! never an error, because the daemon can always recompute.
//!
//! Writes go to a `.tmp` sibling of the writer's own (process id plus a
//! per-process sequence number) and atomically rename into place, so a
//! crash mid-write leaves the previous file intact, and two daemons
//! sharing one cache file each publish whole files: the last rename wins.
//!
//! Only `Ok` results are persisted. Memoized *errors* stay in-memory:
//! they are cheap to recompute and their in-memory lifetime is already
//! bounded by the daemon process that validated their determinism.

use crate::schema::{entry_from_json, read_entry, write_entry, Canonical, Hex, Shape};
use gpu_sim::{CellKey, GpuConfig};
use gpu_trace::json::Json;
use std::borrow::Borrow;
use std::fs;
use std::io::Write as _;
use std::path::Path;
use std::sync::atomic::{AtomicU64, Ordering};
use workloads::RunReport;

/// Cache file format version; bump on any layout change.
pub const CACHE_VERSION: u64 = 1;

/// Fingerprint of the key-hashing scheme. Computed from the hashes of a
/// fixed reference config, so any change to `GpuConfig::content_hash` or
/// `GpuConfig::budget_hash` — which silently re-keys every entry —
/// changes this value and discards persisted caches instead of serving
/// results under mismatched keys.
pub fn hash_scheme() -> u64 {
    let reference = GpuConfig::k20c();
    reference
        .content_hash()
        .rotate_left(17)
        .wrapping_mul(0x100_0000_01b3)
        ^ reference.budget_hash()
}

/// Serializes cache entries (as exported by
/// `BatchServer::export_cache`, LRU-first) into the file format. The
/// reports may be owned or borrowed from wherever the caller keeps them.
pub fn to_jsonl<R: Borrow<RunReport>>(entries: &[(CellKey, R)]) -> String {
    let mut out = String::new();
    let header = Json::Obj(vec![
        ("kind".into(), Json::Str("gpu-serve-cache".into())),
        ("version".into(), Json::Num(CACHE_VERSION as f64)),
        ("scheme".into(), Hex::tree(&hash_scheme())),
    ]);
    out.push_str(&header.to_string());
    out.push('\n');
    for (key, report) in entries {
        write_entry(key, report.borrow(), &mut out);
        out.push('\n');
    }
    let footer = Json::Obj(vec![
        ("kind".into(), Json::Str("end".into())),
        ("entries".into(), Json::Num(entries.len() as f64)),
    ]);
    out.push_str(&footer.to_string());
    out.push('\n');
    out
}

/// Strictly parses a cache file's contents. Used by [`load`]; exposed
/// so tests can assert *why* a file was rejected.
pub fn from_jsonl(text: &str) -> Result<Vec<(CellKey, RunReport)>, String> {
    let mut lines = text.lines();
    let header = Json::parse(lines.next().ok_or("empty file")?)?;
    if header.get("kind").and_then(Json::as_str) != Some("gpu-serve-cache") {
        return Err("not a gpu-serve cache file".into());
    }
    match header.get("version").and_then(Json::as_u64) {
        Some(CACHE_VERSION) => {}
        v => return Err(format!("version mismatch: {v:?} != {CACHE_VERSION}")),
    }
    let want_scheme = format!("{:016x}", hash_scheme());
    if header.get("scheme").and_then(Json::as_str) != Some(want_scheme.as_str()) {
        return Err("hash scheme mismatch".into());
    }
    let mut entries = Vec::new();
    let mut footer_count: Option<u64> = None;
    for line in lines {
        if line.trim().is_empty() {
            continue;
        }
        let mut c = Canonical::new(line);
        if let Some(entry) = read_entry(&mut c).filter(|_| c.at_end()) {
            entries.push(entry);
            continue;
        }
        let v = Json::parse(line)?;
        if v.get("kind").and_then(Json::as_str) == Some("end") {
            footer_count = v.get("entries").and_then(Json::as_u64);
            break;
        }
        entries.push(entry_from_json(&v)?);
    }
    match footer_count {
        Some(n) if n == entries.len() as u64 => Ok(entries),
        Some(n) => Err(format!("footer count {n} != {} entries", entries.len())),
        None => Err("truncated: no footer".into()),
    }
}

/// Loads a cache file, returning an empty vec on *any* problem — a
/// missing file is a fresh start, a corrupt/stale/truncated one a cold
/// cache. Returns the entries and, when the file was rejected, the
/// reason (for a startup log line).
pub fn load(path: &Path) -> (Vec<(CellKey, RunReport)>, Option<String>) {
    let text = match fs::read_to_string(path) {
        Ok(t) => t,
        Err(_) => return (Vec::new(), None),
    };
    match from_jsonl(&text) {
        Ok(entries) => (entries, None),
        Err(why) => (Vec::new(), Some(why)),
    }
}

/// Atomically writes the cache file: serialize to a sibling
/// `<name>.<pid>.<seq>.tmp` that no other writer can be using, flush,
/// rename over `path`. On failure the sibling is removed.
pub fn store<R: Borrow<RunReport>>(path: &Path, entries: &[(CellKey, R)]) -> std::io::Result<()> {
    static SEQ: AtomicU64 = AtomicU64::new(0);
    let text = to_jsonl(entries);
    let (tmp, mut f) = loop {
        let mut name = path.file_name().unwrap_or_default().to_os_string();
        let seq = SEQ.fetch_add(1, Ordering::Relaxed);
        name.push(format!(".{}.{seq}.tmp", std::process::id()));
        let tmp = path.with_file_name(name);
        // A leftover of a crashed process that had this pid: skip it.
        match fs::OpenOptions::new()
            .write(true)
            .create_new(true)
            .open(&tmp)
        {
            Ok(f) => break (tmp, f),
            Err(e) if e.kind() == std::io::ErrorKind::AlreadyExists => continue,
            Err(e) => return Err(e),
        }
    };
    let written = f.write_all(text.as_bytes()).and_then(|()| f.sync_all());
    drop(f);
    let written = written.and_then(|()| fs::rename(&tmp, path));
    if written.is_err() {
        let _ = fs::remove_file(&tmp);
    }
    written
}

#[cfg(test)]
mod tests {
    use super::*;
    use gpu_sim::Stats;
    use workloads::Variant;

    fn entry(workload: &str, cycles: u64) -> (CellKey, RunReport) {
        (
            CellKey {
                config_hash: 0xdead_beef,
                budget_hash: 0x0bad_cafe,
                workload: workload.to_string(),
                seed: 0,
                variant: "DTBL".to_string(),
            },
            RunReport {
                benchmark: workload.to_string(),
                variant: Variant::Dtbl,
                stats: Stats {
                    cycles,
                    ..Stats::default()
                },
                trace: None,
            },
        )
    }

    fn tmp_path(name: &str) -> std::path::PathBuf {
        let mut p = std::env::temp_dir();
        p.push(format!("gpu-serve-persist-{name}-{}", std::process::id()));
        p
    }

    #[test]
    fn round_trip_preserves_keys_order_and_stats() {
        let entries = vec![entry("amr", 10), entry("bht", 20)];
        let back = from_jsonl(&to_jsonl(&entries)).unwrap();
        assert_eq!(back.len(), 2);
        assert_eq!(back[0].0, entries[0].0);
        assert_eq!(back[0].1.stats, entries[0].1.stats);
        assert_eq!(back[1].0.workload, "bht");
        assert_eq!(back[1].1.stats.cycles, 20);
    }

    /// The cache file as the `Json` tree writes it: the reference
    /// [`to_jsonl`] must match byte for byte.
    fn reference_to_jsonl(entries: &[(CellKey, RunReport)]) -> String {
        let mut lines = vec![Json::Obj(vec![
            ("kind".into(), Json::Str("gpu-serve-cache".into())),
            ("version".into(), Json::Num(CACHE_VERSION as f64)),
            (
                "scheme".into(),
                Json::Str(format!("{:016x}", hash_scheme())),
            ),
        ])];
        for (key, report) in entries {
            lines.push(Json::Obj(vec![
                (
                    "config_hash".into(),
                    Json::Str(format!("{:016x}", key.config_hash)),
                ),
                (
                    "budget_hash".into(),
                    Json::Str(format!("{:016x}", key.budget_hash)),
                ),
                ("workload".into(), Json::Str(key.workload.clone())),
                ("seed".into(), Json::Num(key.seed as f64)),
                ("variant".into(), Json::Str(key.variant.clone())),
                ("report".into(), crate::wire::report_to_json(report)),
            ]));
        }
        lines.push(Json::Obj(vec![
            ("kind".into(), Json::Str("end".into())),
            ("entries".into(), Json::Num(entries.len() as f64)),
        ]));
        lines.iter().map(|l| format!("{l}\n")).collect()
    }

    /// The six variants of one real cell, then a report with 663
    /// launches (as many as the heaviest `serve_mix` report carries).
    fn mixed_cache() -> Vec<(CellKey, RunReport)> {
        use gpu_sim::{DynLaunchKind, LaunchRecord};
        let setup = workloads::CellSetup::new(
            workloads::Benchmark::Amr,
            workloads::Scale::Test,
            GpuConfig::test_small(),
        )
        .unwrap();
        let mut entries: Vec<_> = Variant::ALL
            .into_iter()
            .map(|v| (setup.cell_key(v), setup.run(v).unwrap()))
            .collect();
        let (mut key, mut heavy) = entry("sssp_cage15", 1 << 40);
        key.seed = 7919;
        heavy.stats.launches = (0..663u64)
            .map(|i| LaunchRecord {
                kind: [DynLaunchKind::AggGroup, DynLaunchKind::DeviceKernel][i as usize % 2],
                launched_at: i * 37,
                first_tb_at: (i % 5 != 0).then_some(i * 37 + 400),
                ntb: (i % 9) as u32 + 1,
                threads_per_tb: 128,
                reserved_bytes: i * 1024,
            })
            .collect::<Vec<_>>()
            .into();
        entries.push((key, heavy));
        entries
    }

    #[test]
    fn cache_file_bytes_and_loads_match_the_tree_reference() {
        let entries = mixed_cache();
        let reference = reference_to_jsonl(&entries);
        assert_eq!(to_jsonl(&entries), reference, "cache file bytes");
        let view = |e: &[(CellKey, RunReport)]| -> Vec<_> {
            e.iter()
                .map(|(k, r)| (k.clone(), r.benchmark.clone(), r.variant, r.stats.clone()))
                .collect()
        };
        let loaded = from_jsonl(&reference).unwrap();
        assert_eq!(view(&loaded), view(&entries));
        // A file that is valid JSON but not in the canonical layout
        // (spaces after every separator) loads to the same entries.
        let spaced = reference.replace("\":", "\": ").replace(",\"", ", \"");
        assert_eq!(view(&from_jsonl(&spaced).unwrap()), view(&entries));
    }

    #[test]
    fn corrupted_file_loads_as_cold_cache() {
        let path = tmp_path("corrupt");
        fs::write(&path, "{\"kind\":\"gpu-serve-cache\"oops").unwrap();
        let (entries, why) = load(&path);
        assert!(entries.is_empty());
        assert!(why.is_some(), "rejection reason should be reported");
        fs::remove_file(&path).unwrap();
    }

    #[test]
    fn version_mismatch_loads_as_cold_cache() {
        let mut text = to_jsonl(&[entry("amr", 1)]);
        text = text.replacen("\"version\":1", "\"version\":999", 1);
        let err = from_jsonl(&text).unwrap_err();
        assert!(err.contains("version mismatch"), "{err}");
        let path = tmp_path("version");
        fs::write(&path, &text).unwrap();
        let (entries, why) = load(&path);
        assert!(entries.is_empty());
        assert!(why.unwrap().contains("version mismatch"));
        fs::remove_file(&path).unwrap();
    }

    #[test]
    fn scheme_mismatch_loads_as_cold_cache() {
        let mut text = to_jsonl(&[entry("amr", 1)]);
        let scheme = format!("{:016x}", hash_scheme());
        text = text.replacen(&scheme, "0000000000000000", 1);
        let err = from_jsonl(&text).unwrap_err();
        assert!(err.contains("scheme"), "{err}");
    }

    #[test]
    fn truncated_write_loads_as_cold_cache() {
        let text = to_jsonl(&[entry("amr", 1), entry("bht", 2)]);
        // Missing footer: the write stopped at a line boundary.
        let lines: Vec<&str> = text.lines().collect();
        let no_footer = lines[..lines.len() - 1].join("\n");
        let err = from_jsonl(&no_footer).unwrap_err();
        assert!(err.contains("truncated"), "{err}");
        // Mid-line truncation: the last entry is half-written JSON.
        let cut = &text[..text.len() - 40];
        assert!(from_jsonl(cut).is_err());
        let path = tmp_path("truncated");
        fs::write(&path, cut).unwrap();
        let (entries, why) = load(&path);
        assert!(entries.is_empty());
        assert!(why.is_some());
        fs::remove_file(&path).unwrap();
    }

    #[test]
    fn missing_file_is_a_silent_fresh_start() {
        let (entries, why) = load(Path::new("/nonexistent/gpu-serve.cache"));
        assert!(entries.is_empty());
        assert!(why.is_none(), "missing file is not an anomaly");
    }

    /// The `.tmp` siblings `store` left next to `path`.
    fn leftover_tmps(path: &Path) -> Vec<std::path::PathBuf> {
        let name = path.file_name().unwrap().to_str().unwrap().to_string();
        fs::read_dir(path.parent().unwrap())
            .unwrap()
            .map(|e| e.unwrap().path())
            .filter(|p| {
                let n = p.file_name().unwrap().to_string_lossy();
                n.starts_with(&name) && n.ends_with(".tmp")
            })
            .collect()
    }

    #[test]
    fn store_is_atomic_and_reloadable() {
        let path = tmp_path("atomic");
        let entries = vec![entry("amr", 7)];
        store(&path, &entries).unwrap();
        assert_eq!(leftover_tmps(&path), Vec::<std::path::PathBuf>::new());
        let (back, why) = load(&path);
        assert!(why.is_none());
        assert_eq!(back.len(), 1);
        assert_eq!(back[0].1.stats.cycles, 7);
        fs::remove_file(&path).unwrap();
    }

    /// Two writers storing different caches into one path, as two daemons
    /// given the same `--cache-file` do: every load sees one writer's
    /// whole file, never a mix of both or a torn one, and no `.tmp`
    /// sibling outlives its store.
    #[test]
    fn concurrent_writers_never_tear_the_file() {
        let path = tmp_path("concurrent");
        // Large enough that one write takes many syscalls.
        let set = |name: &str| -> Vec<(CellKey, RunReport)> {
            (0..300).map(|i| entry(name, i)).collect()
        };
        let sets = [set("amr"), set("bht")];
        let cycles = |e: &[(CellKey, RunReport)]| -> Vec<(String, u64)> {
            e.iter()
                .map(|(k, r)| (k.workload.clone(), r.stats.cycles))
                .collect()
        };
        let want = [cycles(&sets[0]), cycles(&sets[1])];
        // Both writers start each round together, so their writes overlap.
        // A failure is recorded, not raised, so neither writer leaves the
        // other waiting at the barrier.
        let start = std::sync::Barrier::new(sets.len());
        let failures: Vec<String> = std::thread::scope(|s| {
            let writers: Vec<_> = sets
                .iter()
                .map(|mine| {
                    let (path, want, start) = (&path, &want, &start);
                    s.spawn(move || {
                        let mut failures = Vec::new();
                        for round in 0..50 {
                            start.wait();
                            let stored = store(path, mine);
                            let (back, why) = load(path);
                            if stored.is_err() || why.is_some() || !want.contains(&cycles(&back)) {
                                failures.push(format!("round {round}: {stored:?}, {why:?}"));
                            }
                        }
                        failures
                    })
                })
                .collect();
            writers
                .into_iter()
                .flat_map(|w| w.join().expect("writer thread"))
                .collect()
        });
        assert_eq!(failures, Vec::<String>::new(), "torn or failed stores");
        assert_eq!(leftover_tmps(&path), Vec::<std::path::PathBuf>::new());
        fs::remove_file(&path).unwrap();
    }
}
