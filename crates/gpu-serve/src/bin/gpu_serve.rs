//! The `gpu-serve` daemon binary.
//!
//! ```text
//! gpu-serve [--port N] [--jobs N] [--retries N]
//!           [--cache-file PATH] [--cache-max-entries N] [--persist-every N]
//!           [--fcfs] [--max-conns N]
//! ```
//!
//! Binds 127.0.0.1 (`--port 0` for an ephemeral port), prints one
//! `gpu-serve listening on ADDR` line to stdout, and runs until a client
//! sends `shutdown` — persisting the result cache on the way down when
//! `--cache-file` is set. Admission is fair (weighted round-robin over
//! client ids) unless `--fcfs` selects strict arrival order. Results and
//! deterministic errors are memoized; a cancelled or crashed job is not.

use gpu_serve::daemon::{serve, ServeConfig};
use std::io::Write;
use std::path::PathBuf;
use std::process::exit;

fn flag_value<'a>(args: &'a [String], flag: &str) -> Option<&'a str> {
    args.iter()
        .position(|a| a == flag)
        .and_then(|i| args.get(i + 1))
        .map(String::as_str)
}

fn parsed<T: std::str::FromStr>(args: &[String], flag: &str) -> Option<T> {
    flag_value(args, flag).map(|v| {
        v.parse().unwrap_or_else(|_| {
            eprintln!("gpu-serve: bad value for {flag}: {v}");
            exit(2);
        })
    })
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    if args.iter().any(|a| a == "--help" || a == "-h") {
        println!(
            "gpu-serve [--port N] [--jobs N] [--retries N] [--cache-file PATH]\n\
             \u{20}         [--cache-max-entries N] [--persist-every N] [--fcfs] [--max-conns N]"
        );
        return;
    }
    let defaults = ServeConfig::default();
    let cfg = ServeConfig {
        port: parsed(&args, "--port").unwrap_or(0),
        jobs: parsed(&args, "--jobs").unwrap_or(0),
        retries: parsed(&args, "--retries").unwrap_or(defaults.retries),
        cache_file: flag_value(&args, "--cache-file").map(PathBuf::from),
        cache_max_entries: parsed(&args, "--cache-max-entries")
            .map(|n: usize| if n == 0 { None } else { Some(n) })
            .unwrap_or(defaults.cache_max_entries),
        fair: !args.iter().any(|a| a == "--fcfs"),
        max_connections: parsed(&args, "--max-conns").unwrap_or(defaults.max_connections),
        persist_every: parsed(&args, "--persist-every").unwrap_or(defaults.persist_every),
    };
    match serve(cfg) {
        Ok(handle) => {
            println!("gpu-serve listening on {}", handle.addr);
            let _ = std::io::stdout().flush();
            handle.wait();
        }
        Err(e) => {
            eprintln!("gpu-serve: bind failed: {e}");
            exit(1);
        }
    }
}
