//! `gpu-serve`: a dependency-free network daemon for DTBL sweep cells.
//!
//! A long-lived process fronts the crate-spanning warm pool
//! ([`gpu_sim::BatchServer`]) over TCP, speaking newline-delimited JSON
//! built on the in-repo [`gpu_trace::json`] value type — no serde, no
//! tokio, no HTTP stack. Clients `submit` cells (benchmark × variant ×
//! scale × config), `poll`/`wait` on job ids, stream recorded traces,
//! and read a metrics snapshot; repeated cells are served from a
//! size-bounded LRU result cache that survives restarts via a versioned
//! JSONL file.
//!
//! The pieces:
//!
//! - [`wire`] — message grammar, error frames, and exact JSON codecs
//!   for [`gpu_sim::Stats`] (bit-identical round-trips);
//! - [`admission`] — the fair (weighted round-robin over clients)
//!   submission queue between connections and workers;
//! - [`jobs`] — the job table `poll`/`wait` consult;
//! - [`persist`] — atomic, versioned cache persistence that degrades
//!   to a cold cache on any corruption;
//! - [`daemon`] — accept loop, connection threads, workers, shutdown;
//! - [`client`] — the blocking client library the `gpu-serve-client`
//!   binary and the loopback tests use.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod admission;
pub mod client;
pub mod daemon;
pub mod jobs;
pub mod persist;
pub mod wire;

pub use client::{Client, ClientError, JobStatus};
pub use daemon::{serve, DaemonHandle, ServeConfig};
pub use wire::{ConfigPreset, SubmitSpec, PROTO_VERSION};

#[cfg(test)]
mod loopback_tests {
    use super::*;
    use gpu_trace::json::Json;
    use std::time::Duration;
    use workloads::{Benchmark, Scale, Variant};

    fn spec(benchmark: Benchmark, variant: Variant, client: &str) -> SubmitSpec {
        SubmitSpec {
            benchmark,
            variant,
            scale: Scale::Test,
            client: client.to_string(),
            weight: 1,
            preset: ConfigPreset::TestSmall,
            max_cycles: None,
            cycle_cap: None,
            trace: false,
        }
    }

    #[test]
    fn submit_wait_metrics_and_cache_hits_over_loopback() {
        let handle = serve(ServeConfig {
            jobs: 2,
            ..ServeConfig::default()
        })
        .expect("bind loopback");
        let mut client = Client::connect(handle.addr).expect("connect");
        client.ping().expect("ping");

        // Same cell twice: the second must be a cache hit with an
        // identical report.
        let a = client
            .submit(&spec(Benchmark::Amr, Variant::Flat, "t"))
            .unwrap();
        let first = client.wait(a, Duration::from_secs(120)).expect("first run");
        let b = client
            .submit(&spec(Benchmark::Amr, Variant::Flat, "t"))
            .unwrap();
        let second = client
            .wait(b, Duration::from_secs(120))
            .expect("cached run");
        assert_eq!(first.stats, second.stats, "cache hit must be bit-identical");

        let snapshot = client.metrics().expect("metrics");
        assert!(
            client::snapshot_counter(&snapshot, "server.cache_hits") >= 1,
            "duplicate submission should hit the cache: {snapshot}"
        );
        assert_eq!(
            client::snapshot_counter(&snapshot, "daemon.jobs_completed"),
            2
        );

        // Unknown job and malformed requests answer with typed frames,
        // not dropped connections.
        match client.poll(9999) {
            Err(ClientError::Server { kind, .. }) => assert_eq!(kind, "unknown_job"),
            other => panic!("expected unknown_job, got {other:?}"),
        }
        client.ping().expect("connection survives an error frame");

        client.shutdown().expect("shutdown");
        handle.wait();
    }

    /// Four clients replaying one 8-cell batch against a seeded daemon:
    /// every `Stats` served over TCP equals the in-process
    /// `CellSetup::run` of the same cell, the replays are cache hits, and
    /// round-robin admission treats symmetric clients alike.
    #[test]
    fn concurrent_clients_read_in_process_stats_from_a_fair_cached_daemon() {
        const BENCHES: [Benchmark; 4] = [
            Benchmark::Amr,
            Benchmark::BfsUsaRoad,
            Benchmark::JoinGaussian,
            Benchmark::RegxString,
        ];
        const VARIANTS: [Variant; 2] = [Variant::Flat, Variant::Dtbl];
        const CLIENTS: usize = 4;
        let cells: Vec<(Benchmark, Variant)> = BENCHES
            .iter()
            .flat_map(|&b| VARIANTS.map(|v| (b, v)))
            .collect();
        let local: Vec<gpu_sim::Stats> = cells
            .iter()
            .map(|&(b, v)| {
                workloads::CellSetup::new(b, Scale::Test, gpu_sim::GpuConfig::test_small())
                    .and_then(|s| s.run(v))
                    .expect("in-process run")
                    .stats
            })
            .collect();

        let handle = serve(ServeConfig {
            jobs: 2,
            ..ServeConfig::default()
        })
        .expect("bind loopback");
        let addr = handle.addr;
        // Submits the whole batch, then waits for it, as `client`.
        let run_batch_as = |client: &str| -> Vec<gpu_sim::Stats> {
            let mut c = Client::connect(addr).expect("connect");
            let jobs: Vec<u64> = cells
                .iter()
                .map(|&(b, v)| c.submit(&spec(b, v, client)).expect("submit"))
                .collect();
            jobs.into_iter()
                .map(|job| c.wait(job, Duration::from_secs(300)).expect("wait").stats)
                .collect()
        };

        assert_eq!(run_batch_as("seed"), local, "stats over TCP vs in-process");
        std::thread::scope(|scope| {
            let replays: Vec<_> = (0..CLIENTS)
                .map(|i| scope.spawn(move || run_batch_as(&format!("client{i}"))))
                .collect();
            for replay in replays {
                assert_eq!(
                    replay.join().expect("client thread"),
                    local,
                    "cached stats over TCP vs in-process"
                );
            }
        });

        let mut client = Client::connect(addr).expect("connect for metrics");
        let snapshot = client.metrics().expect("metrics");
        let hits = client::snapshot_counter(&snapshot, "server.cache_hits");
        let misses = client::snapshot_counter(&snapshot, "server.cache_misses");
        assert!(
            hits >= misses,
            "the replayed batches must be served from the cache: {snapshot}"
        );
        // Symmetric load: no client's p95 admission wait may exceed 3x
        // another's (below 1 ms the spread is scheduler noise).
        let p95s: Vec<u64> = (0..CLIENTS)
            .map(|i| {
                let name = format!("admission.wait_us.client{i}");
                client::snapshot_percentile(&snapshot, &name, "p95")
                    .unwrap_or(0)
                    .max(1_000)
            })
            .collect();
        let (lo, hi) = (p95s.iter().min().unwrap(), p95s.iter().max().unwrap());
        assert!(
            hi <= &(lo * 3),
            "unfair admission, p95 waits (us): {p95s:?}"
        );
        client.shutdown().expect("shutdown");
        handle.wait();
    }

    /// A peer that sends a megabyte without a newline gets one
    /// `bad_request` frame and is disconnected; the daemon keeps serving
    /// other clients.
    #[test]
    fn an_unbounded_request_line_is_cut_off() {
        use std::io::{BufRead, BufReader, Read, Write};
        let handle = serve(ServeConfig {
            jobs: 1,
            ..ServeConfig::default()
        })
        .expect("bind loopback");
        let stream = std::net::TcpStream::connect(handle.addr).expect("connect");
        stream
            .set_read_timeout(Some(Duration::from_secs(30)))
            .unwrap();
        let mut reader = BufReader::new(stream.try_clone().unwrap());
        let mut hello = String::new();
        reader.read_line(&mut hello).expect("hello frame");
        (&stream)
            .write_all(&vec![b'x'; 1 << 20])
            .expect("the daemon reads what it discards");
        let mut rest = String::new();
        reader
            .read_to_string(&mut rest)
            .expect("error frame, then EOF");
        let lines: Vec<&str> = rest.lines().collect();
        assert_eq!(lines.len(), 1, "one frame before the close: {rest:.200}");
        let frame = Json::parse(lines[0]).unwrap();
        let error = frame.get("error").expect("an error frame");
        assert_eq!(
            error.get("kind").and_then(Json::as_str),
            Some("bad_request")
        );
        let message = error.get("message").and_then(Json::as_str).unwrap();
        assert!(
            message.contains(&daemon::MAX_REQUEST_BYTES.to_string()),
            "{message}"
        );

        let mut client = Client::connect(handle.addr).expect("second client");
        client.ping().expect("the daemon still answers");
        client.shutdown().unwrap();
        handle.wait();
    }

    #[test]
    fn traced_job_streams_its_events() {
        let handle = serve(ServeConfig {
            jobs: 1,
            ..ServeConfig::default()
        })
        .expect("bind loopback");
        let mut client = Client::connect(handle.addr).expect("connect");
        let mut s = spec(Benchmark::Amr, Variant::Dtbl, "tracer");
        s.trace = true;
        let job = client.submit(&s).unwrap();
        client.wait(job, Duration::from_secs(120)).expect("run");
        let trace = client.trace(job).expect("trace stream");
        let data = trace.expect("traced run has events");
        assert!(!data.events.is_empty(), "DTBL amr should emit events");
        // The trace is taken exactly once.
        assert!(client.trace(job).expect("second trace").is_none());
        client.shutdown().unwrap();
        handle.wait();
    }

    #[test]
    fn sim_failures_arrive_as_typed_error_frames() {
        let handle = serve(ServeConfig {
            jobs: 1,
            ..ServeConfig::default()
        })
        .expect("bind loopback");
        let mut client = Client::connect(handle.addr).expect("connect");
        // A 1-cycle cap cannot finish anything: the job fails with a
        // deterministic DeadlineExceeded the daemon may also memoize.
        let mut s = spec(Benchmark::Amr, Variant::Flat, "errs");
        s.cycle_cap = Some(1);
        let job = client.submit(&s).unwrap();
        match client.wait(job, Duration::from_secs(120)) {
            Err(ClientError::Server { kind, message }) => {
                assert_eq!(kind, "sim");
                assert!(!message.is_empty());
            }
            other => panic!("expected sim error, got {other:?}"),
        }
        let snapshot = client.metrics().expect("metrics");
        assert_eq!(
            Json::as_u64(
                snapshot
                    .get("counters")
                    .and_then(|c| c.get("daemon.jobs_completed"))
                    .unwrap()
            ),
            Some(1)
        );
        client.shutdown().unwrap();
        handle.wait();
    }

    #[test]
    fn persisted_cache_survives_a_daemon_restart() {
        let mut path = std::env::temp_dir();
        path.push(format!("gpu-serve-restart-{}.jsonl", std::process::id()));
        let _ = std::fs::remove_file(&path);

        let cfg = ServeConfig {
            jobs: 1,
            cache_file: Some(path.clone()),
            ..ServeConfig::default()
        };
        let handle = serve(cfg.clone()).expect("bind first daemon");
        let mut client = Client::connect(handle.addr).expect("connect");
        let job = client
            .submit(&spec(Benchmark::Amr, Variant::Flat, "p"))
            .unwrap();
        let first = client.wait(job, Duration::from_secs(120)).expect("run");
        client.shutdown().unwrap();
        handle.wait();
        assert!(path.exists(), "shutdown must persist the cache");

        let handle = serve(cfg).expect("bind second daemon");
        let mut client = Client::connect(handle.addr).expect("reconnect");
        let job = client
            .submit(&spec(Benchmark::Amr, Variant::Flat, "p"))
            .unwrap();
        let again = client.wait(job, Duration::from_secs(120)).expect("cached");
        assert_eq!(first.stats, again.stats);
        let snapshot = client.metrics().expect("metrics");
        assert!(
            client::snapshot_counter(&snapshot, "server.cache_hits") >= 1,
            "restart must serve the persisted result as a hit: {snapshot}"
        );
        assert_eq!(
            client::snapshot_counter(&snapshot, "server.cache_misses"),
            0,
            "the persisted cell must not re-run"
        );
        client.shutdown().unwrap();
        handle.wait();
        let _ = std::fs::remove_file(&path);
    }
}
