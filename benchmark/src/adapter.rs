//! The one module that names simulator API. Everything else in the
//! benchmark talks to the simulator through the types here, so a change
//! to a crate's public surface is absorbed in this file (and its `micro`
//! child, the per-layer micro-kernels).
//!
//! Deliberately not used: the `bench` crate, and the engine knobs the
//! roadmap may delete (`legacy_exec`, `force_per_cycle`,
//! `epoch_batching`, `pool_min_issuable`, the `smx_jobs` field).

pub mod micro;

use crate::spans;
use gpu_serve::client::{snapshot_counter, snapshot_percentile};
use gpu_serve::{serve, Client, ConfigPreset, DaemonHandle, ServeConfig, SubmitSpec};
use gpu_sim::sweep::CellOutcome;
use gpu_sim::{BatchServer, GpuConfig, TraceConfig, TraceData, WarmSlot};
use std::collections::HashMap;
use std::net::SocketAddr;
use std::path::Path;
use std::time::{Duration, Instant};
use workloads::{Benchmark, CellSetup, RunReport, Scale, Variant};

pub use gpu_trace::json::Json;

/// The simulator's statistics for one cell; compared with `==` for the
/// bit-equality checks.
pub type SimStats = gpu_sim::Stats;

/// One sweep cell: benchmark × variant × scale, traced or not.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub struct Cell {
    bench: Benchmark,
    variant: Variant,
    scale: Scale,
    traced: bool,
}

impl Cell {
    /// `bench` is a paper benchmark name, `variant` a figure label.
    ///
    /// # Panics
    ///
    /// On a name the simulator does not know: the cell lists are fixed
    /// in the benchmark's source, so that is a bug here.
    pub fn new(bench: &str, variant: &str, eval: bool) -> Cell {
        Cell {
            bench: Benchmark::from_name(bench).unwrap_or_else(|| panic!("benchmark {bench}")),
            variant: Variant::from_label(variant).unwrap_or_else(|| panic!("variant {variant}")),
            scale: if eval { Scale::Eval } else { Scale::Test },
            traced: false,
        }
    }

    /// The same cell run under `TraceConfig::all()`, the daemon TRACE
    /// op's configuration.
    pub fn traced(self) -> Cell {
        Cell {
            traced: true,
            ..self
        }
    }

    /// The same cell with tracing off.
    pub fn untraced(self) -> Cell {
        Cell {
            traced: false,
            ..self
        }
    }

    pub fn name(&self) -> String {
        format!(
            "{}/{}@{}",
            self.bench.name(),
            self.variant.label(),
            self.scale.name()
        )
    }

    /// The SUBMIT a client called `client` sends for this cell.
    fn submit_spec(&self, client: &str) -> SubmitSpec {
        SubmitSpec {
            benchmark: self.bench,
            variant: self.variant,
            scale: self.scale,
            client: client.to_string(),
            weight: 1,
            preset: ConfigPreset::K20c,
            max_cycles: None,
            cycle_cap: None,
            trace: self.traced,
        }
    }

    /// The CDP-family cell with the same instructions and transactions
    /// as this DTBL-family cell, if it is one.
    pub fn cdp_twin(&self) -> Option<Cell> {
        let variant = match self.variant {
            Variant::Dtbl => Variant::Cdp,
            Variant::DtblIdeal => Variant::CdpIdeal,
            _ => return None,
        };
        Some(Cell { variant, ..*self })
    }
}

/// The Test-scale matrix: every benchmark not in `skip`, under the five
/// figure variants or all six.
pub fn test_matrix(skip: &[&str], all_variants: bool) -> Vec<Cell> {
    let variants: &[Variant] = if all_variants {
        &Variant::ALL
    } else {
        &Variant::MAIN
    };
    Benchmark::ALL
        .iter()
        .filter(|b| !skip.contains(&b.name()))
        .flat_map(|&bench| {
            variants.iter().map(move |&variant| Cell {
                bench,
                variant,
                scale: Scale::Test,
                traced: false,
            })
        })
        .collect()
}

/// The counters of [`SimStats`] the per-layer metrics are made of,
/// summable over cells.
#[derive(Clone, Copy, Debug, Default)]
pub struct Counts {
    pub warp_insts: u64,
    pub active_lanes: u64,
    pub sim_cycles: u64,
    pub txns: u64,
    pub l1_hits: u64,
    pub l1_misses: u64,
    pub l2_hits: u64,
    pub l2_misses: u64,
    pub dram_cmds: u64,
    pub dram_row_hits: u64,
    pub dyn_launches: u64,
    pub agg_coalesced: u64,
    pub agg_fallbacks: u64,
    pub agt_overflows: u64,
    pub resident_warp_cycles: u64,
    /// Σ busy cycles × SMXs × warp slots: the occupancy denominator.
    pub warp_slot_cycles: u64,
}

impl Counts {
    pub fn of(s: &SimStats) -> Counts {
        Counts {
            warp_insts: s.warp_issues,
            active_lanes: s.active_lanes,
            sim_cycles: s.cycles,
            txns: s.mem.loads + s.mem.stores + s.mem.atomics,
            l1_hits: s.mem.l1.hits,
            l1_misses: s.mem.l1.misses,
            l2_hits: s.mem.l2.hits,
            l2_misses: s.mem.l2.misses,
            dram_cmds: s.mem.dram.n_rd + s.mem.dram.n_wr,
            dram_row_hits: s.mem.dram.row_hits,
            dyn_launches: s.dyn_launches() as u64,
            agg_coalesced: s.agg_coalesced,
            agg_fallbacks: s.agg_fallbacks,
            agt_overflows: s.agt_overflows,
            resident_warp_cycles: s.resident_warp_cycles,
            warp_slot_cycles: s.busy_cycles * u64::from(s.num_smx) * u64::from(s.max_warps_per_smx),
        }
    }

    pub fn add(&mut self, o: &Counts) {
        self.warp_insts += o.warp_insts;
        self.active_lanes += o.active_lanes;
        self.sim_cycles += o.sim_cycles;
        self.txns += o.txns;
        self.l1_hits += o.l1_hits;
        self.l1_misses += o.l1_misses;
        self.l2_hits += o.l2_hits;
        self.l2_misses += o.l2_misses;
        self.dram_cmds += o.dram_cmds;
        self.dram_row_hits += o.dram_row_hits;
        self.dyn_launches += o.dyn_launches;
        self.agg_coalesced += o.agg_coalesced;
        self.agg_fallbacks += o.agg_fallbacks;
        self.agt_overflows += o.agt_overflows;
        self.resident_warp_cycles += o.resident_warp_cycles;
        self.warp_slot_cycles += o.warp_slot_cycles;
    }
}

/// FNV-1a over the exact all-integer wire encoding of `stats`, folded
/// into `acc`: the encoding is the one the daemon's bit-identity
/// round-trip test pins, so the digest moves only when a statistic does.
pub fn digest_into(acc: u64, stats: &SimStats) -> u64 {
    let text = gpu_serve::wire::stats_to_json(stats).to_string();
    text.bytes().fold(acc, |h, b| {
        (h ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01b3)
    })
}

/// FNV-1a offset basis, the starting `acc` of [`digest_into`].
pub const DIGEST_SEED: u64 = 0xcbf2_9ce4_8422_2325;

/// A recorded trace, detached from its report.
pub struct Trace(TraceData);

impl Trace {
    pub fn events(&self) -> u64 {
        self.0.events.len() as u64
    }

    pub fn dropped(&self) -> u64 {
        self.0.dropped
    }

    /// Lines a lossless JSONL export must have: one per event and
    /// metrics sample, plus the cell's metadata line.
    pub fn expected_lines(&self) -> u64 {
        (self.0.events.len() + self.0.samples.len()) as u64 + 1
    }

    /// Exports with `gpu_trace::export::jsonl`, as the daemon's TRACE op
    /// does.
    pub fn export_jsonl(self, cell: &str) -> String {
        let _g = spans::enter("gpu-trace.export", cell);
        gpu_trace::export::jsonl(&[(cell.to_string(), self.0)])
    }
}

/// What one cell of a pass produced.
pub struct CellRun {
    pub cell: Cell,
    /// Host nanoseconds inside `CellSetup::run_warm` (bind + drive +
    /// validation) when the cell was simulated; a cache hit repeats the
    /// value of the run it was served from.
    pub sim_ns: u64,
    /// The validated statistics, or why the cell failed.
    pub result: Result<(SimStats, Option<Trace>), String>,
}

#[derive(Clone)]
struct Ran {
    report: RunReport,
    sim_ns: u64,
}

/// The in-process product path: one `CellSetup` per benchmark and a
/// one-worker `BatchServer` with its warm slot and result cache.
pub struct Engine {
    setups: HashMap<(Benchmark, Scale, bool), CellSetup>,
    server: BatchServer<Ran>,
}

impl Engine {
    /// Builds the setup of every benchmark `cells` names (data
    /// generation, kernel build and decode) and an empty server.
    pub fn new(cells: &[Cell]) -> Result<Engine, String> {
        let mut setups = HashMap::new();
        for c in cells {
            let key = (c.bench, c.scale, c.traced);
            if setups.contains_key(&key) {
                continue;
            }
            let _g = spans::enter("workloads.setup", c.bench.name());
            let mut cfg = GpuConfig::k20c();
            if c.traced {
                cfg.trace = TraceConfig::all();
            }
            let setup = CellSetup::new(c.bench, c.scale, cfg).map_err(|e| e.to_string())?;
            setups.insert(key, setup);
        }
        Ok(Engine {
            setups,
            server: BatchServer::new(1, 0),
        })
    }

    fn setup(&self, c: &Cell) -> &CellSetup {
        &self.setups[&(c.bench, c.scale, c.traced)]
    }

    /// Constructs a simulator for `cell` from nothing and drops it: the
    /// cold `Gpu::new` a first cell pays.
    pub fn cold_construct(&self, cell: &Cell) {
        let _g = spans::enter("gpu-sim.construct", "");
        let setup = self.setup(cell);
        let mut slot = WarmSlot::new();
        slot.bind(
            setup.run_cfg(cell.variant),
            setup.program(cell.variant).0.clone(),
        );
    }

    /// Submits `cells` as one batch. Cells already in the result cache
    /// are served from it; the rest are simulated on the warm slot.
    pub fn run_pass(&self, cells: &[Cell]) -> Vec<CellRun> {
        let _g = spans::enter("gpu-sim.batch", "");
        let outcomes = self.server.run_batch(
            cells.to_vec(),
            |c| Some(self.setup(c).cell_key(c.variant)),
            |c, slot| {
                let _g = spans::enter("gpu-sim.simulate", &c.name());
                let t = Instant::now();
                let report = self.setup(c).run_warm(c.variant, slot)?;
                Ok(Ran {
                    report,
                    sim_ns: t.elapsed().as_nanos() as u64,
                })
            },
        );
        outcomes
            .into_iter()
            .map(|(cell, outcome)| {
                let (sim_ns, result) = match outcome {
                    CellOutcome::Ok(ran) => (
                        ran.sim_ns,
                        Ok((ran.report.stats, ran.report.trace.map(Trace))),
                    ),
                    CellOutcome::Err(e) => (0, Err(e.to_string())),
                    CellOutcome::Crashed(crash) => (0, Err(format!("crashed: {}", crash.payload))),
                };
                CellRun {
                    cell,
                    sim_ns,
                    result,
                }
            })
            .collect()
    }

    pub fn clear_cache(&self) {
        self.server.clear_cache();
    }
}

/// An in-process `gpu_serve` daemon on an ephemeral loopback port with
/// one simulation worker.
pub struct Daemon(DaemonHandle);

impl Daemon {
    pub fn start(cache_file: Option<&Path>) -> Result<Daemon, String> {
        let _g = spans::enter("gpu-serve.start", "");
        serve(ServeConfig {
            jobs: 1,
            cache_file: cache_file.map(Path::to_path_buf),
            ..ServeConfig::default()
        })
        .map(Daemon)
        .map_err(|e| format!("daemon start: {e}"))
    }

    pub fn addr(&self) -> SocketAddr {
        self.0.addr
    }

    /// Stops the daemon and joins its accept and worker threads.
    pub fn stop(self) {
        self.0.shutdown();
    }
}

/// One client connection. Every job is waited for before the next is
/// sent: a closed loop.
pub struct Conn {
    client: Client,
    name: String,
}

/// A daemon METRICS snapshot.
pub struct Snapshot(Json);

impl Snapshot {
    pub fn counter(&self, name: &str) -> u64 {
        snapshot_counter(&self.0, name)
    }

    pub fn percentile(&self, name: &str, pct: &str) -> Option<u64> {
        snapshot_percentile(&self.0, name, pct)
    }
}

impl Conn {
    pub fn connect(addr: SocketAddr, name: &str) -> Result<Conn, String> {
        let client = Client::connect(addr).map_err(|e| format!("connect: {e}"))?;
        Ok(Conn {
            client,
            name: name.to_string(),
        })
    }

    pub fn ping(&mut self) -> Result<(), String> {
        self.client.ping().map_err(|e| format!("ping: {e}"))
    }

    /// SUBMIT: returns the job id once the daemon has queued the cell.
    pub fn submit(&mut self, cell: &Cell) -> Result<u64, String> {
        let _g = spans::enter("gpu-serve.submit", &cell.name());
        self.client
            .submit(&cell.submit_spec(&self.name))
            .map_err(|e| format!("submit: {e}"))
    }

    /// WAIT: returns once the report of `job`, a job for `cell`, is decoded.
    pub fn wait(&mut self, cell: &Cell, job: u64) -> Result<SimStats, String> {
        let _g = spans::enter("gpu-serve.wait", &cell.name());
        self.client
            .wait(job, Duration::from_secs(120))
            .map(|report| report.stats)
            .map_err(|e| format!("wait: {e}"))
    }

    /// SUBMIT then WAIT.
    pub fn request(&mut self, cell: &Cell) -> Result<SimStats, String> {
        let job = self.submit(cell)?;
        self.wait(cell, job)
    }

    pub fn snapshot(&mut self) -> Result<Snapshot, String> {
        self.client
            .metrics()
            .map(Snapshot)
            .map_err(|e| format!("metrics: {e}"))
    }
}
