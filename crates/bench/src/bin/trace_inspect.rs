//! Summarises a trace file recorded by `all_figures`'s `--trace`
//! flag: per traced cell, the top stall reasons, the waiting-time
//! histogram by launch path (the trace-side view of
//! `Stats::avg_waiting_time_of_opt`), and the per-SMX thread-block load
//! imbalance.
//!
//! ```sh
//! cargo run --release -p bench --bin all_figures -- fig09 --test-scale --trace out.json
//! cargo run --release -p bench --bin trace_inspect -- out.json
//! ```
//!
//! Both export formats are accepted and auto-detected: Chrome
//! `trace_event` JSON (`--trace out.json`) and JSONL
//! (`--trace out.jsonl`).

use gpu_trace::export::{parse_chrome, parse_jsonl};
use gpu_trace::{LaunchPath, MetricsRegistry, TraceData};

/// Parses either export format. A Chrome trace is one JSON document with
/// a `traceEvents` array; anything that fails that shape is treated as
/// JSONL (the in-repo parser rejects trailing garbage, so a JSONL file
/// can never be mistaken for a single document).
fn parse_any(text: &str) -> Result<Vec<(String, TraceData)>, String> {
    match parse_chrome(text) {
        Ok(cells) => Ok(cells),
        Err(chrome_err) => parse_jsonl(text).map_err(|jsonl_err| {
            format!("not Chrome JSON ({chrome_err}), not JSONL ({jsonl_err})")
        }),
    }
}

fn inspect(name: &str, data: &TraceData) {
    println!(
        "=== {name}: {} event(s), {} metrics sample(s)",
        data.events.len(),
        data.samples.len()
    );
    if data.dropped > 0 {
        println!(
            "  WARNING: {} event(s) dropped past the retention limit — raise TraceConfig::limit",
            data.dropped
        );
    }
    let m = MetricsRegistry::from_trace(data);

    let mut stalls: Vec<(&str, u64)> = m
        .counters()
        .filter_map(|(k, v)| k.strip_prefix("stall.").map(|r| (r, v)))
        .collect();
    stalls.sort_by_key(|&(_, n)| std::cmp::Reverse(n));
    if stalls.is_empty() {
        println!("  stalls: none recorded (enable the `warp` category to collect them)");
    } else {
        println!("  top stall reasons:");
        for (reason, count) in stalls {
            println!("    {reason:<12} {count}");
        }
    }

    println!("  waiting time by launch path (count / mean / p50 / p95 / p99 cycles):");
    let mut any = false;
    for path in [
        LaunchPath::DeviceKernel,
        LaunchPath::AggGroup,
        LaunchPath::AggFallback,
    ] {
        // Absent histogram = no launch of that path started; keep the
        // `None` visible instead of printing a fake zero (the same
        // contract as `Stats::avg_waiting_time_of_opt`).
        let Some(h) = m.histogram(&format!("waiting_time.{}", path.name())) else {
            continue;
        };
        any = true;
        println!(
            "    {:<14} {} / {:.1} / {} / {} / {}",
            path.name(),
            h.count(),
            h.mean(),
            h.p50().unwrap_or(0),
            h.p95().unwrap_or(0),
            h.p99().unwrap_or(0),
        );
    }
    if !any {
        println!("    (no dynamic launch was scheduled in this trace)");
    }

    let mut per_smx: Vec<(u32, u64)> = m
        .counters()
        .filter_map(|(k, v)| {
            k.strip_prefix("tb.smx")
                .and_then(|id| id.parse().ok())
                .map(|id| (id, v))
        })
        .collect();
    per_smx.sort_by_key(|&(id, _)| id);
    if per_smx.is_empty() {
        println!("  thread-block load: none recorded (enable the `tb` category)");
    } else {
        println!("  thread-block load per SMX:");
        for chunk in per_smx.chunks(7) {
            print!("   ");
            for (id, n) in chunk {
                print!(" SMX{id:>3}: {n:<6}");
            }
            println!();
        }
        let max = per_smx.iter().map(|&(_, n)| n).max().unwrap_or(0);
        let mean = per_smx.iter().map(|&(_, n)| n).sum::<u64>() as f64 / per_smx.len() as f64;
        if mean > 0.0 {
            println!("    load imbalance (max / mean): {:.2}", max as f64 / mean);
        }
    }
    println!();
}

fn main() {
    let paths: Vec<String> = std::env::args().skip(1).collect();
    if paths.is_empty() {
        eprintln!("usage: trace_inspect <trace.json | trace.jsonl>...");
        std::process::exit(2);
    }
    for path in &paths {
        let text = std::fs::read_to_string(path).unwrap_or_else(|e| {
            eprintln!("cannot read {path}: {e}");
            std::process::exit(1);
        });
        let cells = parse_any(&text).unwrap_or_else(|e| {
            eprintln!("cannot parse {path}: {e}");
            std::process::exit(1);
        });
        if cells.is_empty() {
            println!("{path}: no traced cells");
            continue;
        }
        for (name, data) in &cells {
            inspect(name, data);
        }
    }
}
