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
mod schema;
pub mod wire;

pub use client::{Client, ClientError, JobStatus};
pub use daemon::{serve, DaemonHandle, ServeConfig};
pub use wire::{ConfigPreset, SubmitSpec, PROTO_VERSION};

use std::sync::{Mutex, MutexGuard, PoisonError};

/// Locks `m`, recovering the data if a panicking thread poisoned it. Every
/// critical section in this crate leaves its data consistent, and
/// connection threads complete jobs themselves, so one thread's panic must
/// not take every other connection down with it.
pub(crate) fn lock<T>(m: &Mutex<T>) -> MutexGuard<'_, T> {
    m.lock().unwrap_or_else(PoisonError::into_inner)
}

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

    /// Four clients against a seeded daemon, each replaying one 8-cell
    /// batch and running it again under its own `max_cycles`: every
    /// `Stats` served over TCP equals the in-process `CellSetup::run` of
    /// the same cell. The replays are hits, answered at admission without
    /// queueing; the budgeted batches are misses, and round-robin admission
    /// treats those symmetric clients alike.
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
        // Submits the whole batch, then waits for it, as `client`; a
        // `max_cycles` above the preset's re-keys every cell without
        // changing what it computes.
        let run_batch_as = |client: &str, max_cycles: Option<u64>| -> Vec<gpu_sim::Stats> {
            let mut c = Client::connect(addr).expect("connect");
            let jobs: Vec<u64> = cells
                .iter()
                .map(|&(b, v)| {
                    let s = SubmitSpec {
                        max_cycles,
                        ..spec(b, v, client)
                    };
                    c.submit(&s).expect("submit")
                })
                .collect();
            jobs.into_iter()
                .map(|job| c.wait(job, Duration::from_secs(300)).expect("wait").stats)
                .collect()
        };

        assert_eq!(
            run_batch_as("seed", None),
            local,
            "stats over TCP vs in-process"
        );
        let preset_cap = ConfigPreset::TestSmall.config().max_cycles;
        std::thread::scope(|scope| {
            let clients: Vec<_> = (0..CLIENTS)
                .map(|i| {
                    scope.spawn(move || {
                        let name = format!("client{i}");
                        let hits = run_batch_as(&name, None);
                        let misses = run_batch_as(&name, Some(preset_cap + 1 + i as u64));
                        (hits, misses)
                    })
                })
                .collect();
            for client in clients {
                let (hits, misses) = client.join().expect("client thread");
                assert_eq!(hits, local, "cached stats over TCP vs in-process");
                assert_eq!(misses, local, "budgeted stats over TCP vs in-process");
            }
        });

        let mut client = Client::connect(addr).expect("connect for metrics");
        let snapshot = client.metrics().expect("metrics");
        let n = cells.len() as u64;
        let counted = (
            client::snapshot_counter(&snapshot, "server.cache_misses"),
            client::snapshot_counter(&snapshot, "server.cache_hits"),
        );
        assert_eq!(
            counted,
            (n + CLIENTS as u64 * n, CLIENTS as u64 * n),
            "every replay a hit, every budgeted cell a miss, each job counted once: {snapshot}"
        );
        // Only misses queue: each client recorded one admission sample per
        // budgeted cell and none for its hits.
        let samples = |name: &str| {
            snapshot
                .get("histograms")
                .and_then(|h| h.get(name))
                .and_then(|h| h.get("count"))
                .and_then(Json::as_u64)
        };
        for i in 0..CLIENTS {
            assert_eq!(
                samples(&format!("admission.wait_us.client{i}")),
                Some(n),
                "client{i}: {snapshot}"
            );
        }
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

    /// A raw loopback connection past its hello frame, for reading the
    /// daemon's reply bytes exactly.
    struct Raw {
        stream: std::net::TcpStream,
        reader: std::io::BufReader<std::net::TcpStream>,
    }

    impl Raw {
        fn connect(addr: std::net::SocketAddr) -> Raw {
            use std::io::BufRead;
            let stream = std::net::TcpStream::connect(addr).expect("connect");
            stream
                .set_read_timeout(Some(Duration::from_secs(60)))
                .unwrap();
            let mut reader = std::io::BufReader::new(stream.try_clone().unwrap());
            let mut hello = String::new();
            reader.read_line(&mut hello).expect("hello frame");
            Raw { stream, reader }
        }

        /// Sends one request line and returns the reply line, newline
        /// included.
        fn exchange(&mut self, request: &str) -> String {
            use std::io::{BufRead, Write};
            (&self.stream)
                .write_all(format!("{request}\n").as_bytes())
                .expect("send");
            let mut line = String::new();
            self.reader.read_line(&mut line).expect("reply");
            line
        }

        fn submit(&mut self, spec: &SubmitSpec) -> String {
            self.exchange(&wire::submit_to_json(spec).to_string())
        }
    }

    /// A cached cell's SUBMIT is answered with its done frame while the
    /// only worker is busy with a long miss, which is still queued or
    /// running when the hit's report arrives.
    #[test]
    fn a_hit_is_answered_at_admission_while_a_miss_runs() {
        let handle = serve(ServeConfig {
            jobs: 1,
            ..ServeConfig::default()
        })
        .expect("bind loopback");
        let mut client = Client::connect(handle.addr).expect("connect");
        let cached = spec(Benchmark::Amr, Variant::Flat, "hits");
        let job = client.submit(&cached).unwrap();
        let first = client.wait(job, Duration::from_secs(120)).expect("run");

        let long = SubmitSpec {
            preset: ConfigPreset::K20c,
            ..spec(Benchmark::ClrGraph500, Variant::Cdp, "misses")
        };
        let miss = client.submit(&long).unwrap();
        let mut raw = Raw::connect(handle.addr);
        let reply = raw.submit(&cached);
        let (_, report) = wire::read_done_frame(&reply)
            .unwrap_or_else(|| panic!("the hit's SUBMIT reply is its done frame: {reply}"));
        assert_eq!(report.stats, first.stats);
        assert!(
            matches!(
                client.poll(miss).expect("poll"),
                JobStatus::Queued | JobStatus::Running
            ),
            "the hit did not wait for the miss"
        );
        client.wait(miss, Duration::from_secs(300)).expect("miss");
        client.shutdown().unwrap();
        handle.wait();
    }

    /// A hit's report travels in its SUBMIT reply, so `wait` needs no
    /// daemon: it still returns the report after the daemon is gone.
    #[test]
    fn a_hit_report_outlives_the_daemon() {
        let handle = serve(ServeConfig {
            jobs: 1,
            ..ServeConfig::default()
        })
        .expect("bind loopback");
        let mut client = Client::connect(handle.addr).expect("connect");
        let cell = spec(Benchmark::Amr, Variant::Dtbl, "gone");
        let job = client.submit(&cell).unwrap();
        let first = client.wait(job, Duration::from_secs(120)).expect("run");
        let hit = client.submit(&cell).unwrap();
        assert!(matches!(client.poll(hit), Ok(JobStatus::Done(_))));
        client.shutdown().unwrap();
        handle.wait();
        let again = client.wait(hit, Duration::from_secs(5)).expect("local");
        assert_eq!(again.stats, first.stats);
        assert!(
            client.wait(hit, Duration::from_secs(5)).is_err(),
            "a local report is handed out once; the next wait asks the daemon"
        );
    }

    /// The hit reply is byte for byte the done frame the writer makes for
    /// its job and report, and a memoized error's reply is the plain job
    /// frame, with WAIT returning the `sim` error.
    #[test]
    fn a_hit_reply_is_the_done_frame_byte_for_byte() {
        let handle = serve(ServeConfig {
            jobs: 1,
            ..ServeConfig::default()
        })
        .expect("bind loopback");
        let mut raw = Raw::connect(handle.addr);
        let cell = spec(Benchmark::JoinUniform, Variant::Flat, "bytes");
        assert_eq!(raw.submit(&cell), "{\"ok\":true,\"job\":1}\n");
        let waited = raw.exchange("{\"op\":\"wait\",\"job\":1}");
        let (_, report) = wire::read_done_frame(&waited).expect("done frame");
        let mut want = String::new();
        wire::write_done_frame(2, &report, &mut want);
        assert_eq!(raw.submit(&cell), want);

        let capped = SubmitSpec {
            cycle_cap: Some(1),
            ..cell
        };
        assert_eq!(raw.submit(&capped), "{\"ok\":true,\"job\":3}\n");
        assert!(raw
            .exchange("{\"op\":\"wait\",\"job\":3}")
            .contains("\"kind\":\"sim\""));
        assert_eq!(
            raw.submit(&capped),
            "{\"ok\":true,\"job\":4}\n",
            "a memoized error answers with its job id"
        );
        let failed = raw.exchange("{\"op\":\"poll\",\"job\":4}");
        assert!(failed.contains("\"kind\":\"sim\""), "{failed}");
        drop(raw);
        let mut client = Client::connect(handle.addr).expect("connect");
        let snapshot = client.metrics().expect("metrics");
        let count = |name| client::snapshot_counter(&snapshot, name);
        assert_eq!(
            (count("server.cache_misses"), count("server.cache_hits")),
            (2, 2)
        );
        assert_eq!(count("daemon.jobs_completed"), 4);
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
        assert!(
            snapshot
                .get("histograms")
                .and_then(|h| h.get("admission.wait_us"))
                .is_none(),
            "the persisted hit is answered at admission, never queued: {snapshot}"
        );
        client.shutdown().unwrap();
        handle.wait();
        let _ = std::fs::remove_file(&path);
    }
}
