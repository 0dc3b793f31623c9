//! Per-layer micro-kernels: each times one public function of a layer,
//! hot and alone, so its number moves only when that layer's code does.
//! They price a layer's unit of work; the workload counts say how many
//! units a workload buys.

use super::{Cell, Conn, Daemon};
use crate::measure::ns_per_call;
use dtbl_core::{AggGroupInfo, Agt, FcfsController, SchedulingPool};
use gpu_isa::decode::BinOp;
use gpu_isa::{exec_alu, Dim3, KernelBuilder, KernelId, Op, Reg, UOp, WarpEnv, WarpRegs};
use gpu_mem::coalesce::coalesce;
use gpu_mem::{
    AccessKind, BackingStore, Cache, CacheConfig, DramConfig, DramPartition, Lookup, MemConfig,
    MemSubsystem,
};
use gpu_serve::admission::{AdmissionQueue, Ticket};
use gpu_serve::persist;
use gpu_serve::wire::{parse_request, report_from_json, report_to_json, submit_to_json};
use gpu_sim::{GpuConfig, TraceConfig, WarmSlot};
use gpu_trace::json::Json;
use gpu_trace::{EventKind, Recorder};
use sim_rand::{RngCore, SeedableRng, StdRng};
use std::hint::black_box;
use std::path::Path;
use std::time::{Duration, Instant};
use workloads::{Benchmark, CellSetup, Scale, Variant};

const FULL_MASK: u32 = u32::MAX;

fn gpu_isa(budget: Duration, out: &mut Vec<(&'static str, f64)>) {
    let build = ns_per_call(budget, || {
        let mut kb = KernelBuilder::new("alu", Dim3::x(32), 0);
        let acc = kb.imm(0);
        kb.for_range(Op::Imm(0), Op::Imm(64), |b, i| {
            let t = b.mad(i, Op::Imm(3), Op::Reg(acc));
            b.mov_to(acc, Op::Reg(t));
        });
        kb.build().expect("alu kernel builds").uops().len() as u64
    });
    out.push(("gpu-isa.build_decode_us_per_kernel", build / 1e3));

    let add = UOp::Bin {
        op: BinOp::IAdd,
        dst: Reg(2),
        a: Reg(0),
        b: Op::Reg(Reg(1)),
    };
    let mut env = WarpEnv::new();
    env.build(Dim3::x(32), Dim3::x(1), 0, 0, FULL_MASK, 0, 0);
    let mut regs = WarpRegs::new();
    regs.reset(4, FULL_MASK);
    // After a reset every register is lane-uniform.
    let uniform = ns_per_call(budget, || {
        exec_alu(black_box(&add), &mut regs, &env, FULL_MASK);
        1
    });
    for lane in 0..32 {
        regs.write_lane(Reg(0), lane, lane as u32 * 7);
        regs.write_lane(Reg(1), lane, lane as u32 ^ 5);
    }
    let varying = ns_per_call(budget, || {
        exec_alu(black_box(&add), &mut regs, &env, FULL_MASK);
        1
    });
    let masked = ns_per_call(budget, || {
        exec_alu(black_box(&add), &mut regs, &env, 0xf);
        1
    });
    black_box(regs.lane(Reg(2), 3));
    out.push(("gpu-isa.exec_alu_ns_per_warp_inst_uniform", uniform));
    out.push(("gpu-isa.exec_alu_ns_per_warp_inst_varying", varying));
    out.push(("gpu-isa.exec_alu_ns_per_warp_inst_masked", masked));
}

/// Nanoseconds per DRAM command when 48 reads `stride` bytes apart are
/// pushed and drained.
fn dram_ns_per_cmd(budget: Duration, stride: u32) -> f64 {
    const CMDS: u32 = 48;
    let cfg = DramConfig::default();
    let per_batch = ns_per_call(budget, || {
        let mut d = DramPartition::new(cfg);
        let mut done = Vec::new();
        let (mut next, mut now) = (0u32, 0u64);
        while next < CMDS || !d.quiescent() {
            while next < CMDS && d.can_accept() {
                d.push(u64::from(next), next.wrapping_mul(stride), false);
                next += 1;
            }
            d.tick(now, &mut done);
            now += 1;
        }
        done.len() as u64
    });
    per_batch / f64::from(CMDS)
}

/// Nanoseconds per transaction when 1000 loads `stride` bytes apart go
/// through the whole hierarchy.
fn subsystem_ns_per_txn(budget: Duration, stride: u32) -> f64 {
    let per_batch = ns_per_call(budget, || {
        let mut mem = MemSubsystem::new(MemConfig::default());
        let mut done = Vec::new();
        let mut now = 0u64;
        for i in 0..1000u32 {
            mem.access(0, i.wrapping_mul(stride), AccessKind::Load, now);
            mem.tick(now, &mut done);
            now += 1;
        }
        while !mem.quiescent() {
            mem.tick(now, &mut done);
            now += 1;
        }
        done.len() as u64
    });
    per_batch / 1000.0
}

fn gpu_mem(budget: Duration, out: &mut Vec<(&'static str, f64)>) {
    let sequential: Vec<Option<u32>> = (0..32).map(|i| Some(0x1000 + i * 4)).collect();
    let scattered: Vec<Option<u32>> = (0..32).map(|i| Some(i * 4096)).collect();
    out.push((
        "gpu-mem.coalesce_ns_per_warp_seq",
        ns_per_call(budget, || coalesce(black_box(&sequential)).len() as u64),
    ));
    out.push((
        "gpu-mem.coalesce_ns_per_warp_scatter",
        ns_per_call(budget, || coalesce(black_box(&scattered)).len() as u64),
    ));

    let mut l1 = Cache::new(CacheConfig::l1_16kb());
    for i in 0..128u32 {
        l1.access_read(i * 128);
    }
    let mut i = 0u32;
    out.push((
        "gpu-mem.l1_ns_per_access_hit",
        ns_per_call(budget, || {
            i = (i + 1) % 128;
            u64::from(l1.access_read(i * 128) == Lookup::Hit)
        }),
    ));
    let mut l2 = Cache::new(CacheConfig::l2_slice_256kb());
    let mut addr = 0u32;
    out.push((
        "gpu-mem.l2_ns_per_access_miss_evict",
        ns_per_call(budget, || {
            addr = addr.wrapping_add(128 * 2049);
            u64::from(l2.access_write(addr) == Lookup::Hit)
        }),
    ));

    let dram = DramConfig::default();
    out.push((
        "gpu-mem.dram_ns_per_cmd_row_hit",
        dram_ns_per_cmd(budget, 128),
    ));
    out.push((
        "gpu-mem.dram_ns_per_cmd_row_miss",
        dram_ns_per_cmd(budget, dram.row_bytes * dram.banks),
    ));
    out.push((
        "gpu-mem.subsystem_ns_per_txn_stream",
        subsystem_ns_per_txn(budget, 128),
    ));
    out.push((
        "gpu-mem.subsystem_ns_per_txn_scatter",
        subsystem_ns_per_txn(budget, 128 * 2049),
    ));

    let mut store = BackingStore::new();
    let mut word = 0u32;
    out.push((
        "gpu-mem.backing_ns_per_word",
        ns_per_call(budget, || {
            word = (word + 1) % (1 << 16);
            store.write_u32(word * 4, word);
            u64::from(store.read_u32(word * 4))
        }),
    ));
}

fn dtbl_core(budget: Duration, out: &mut Vec<(&'static str, f64)>) {
    let info = AggGroupInfo {
        kernel: KernelId(0),
        ntb: 1,
        param_addr: 0,
        kde: 0,
    };
    for (name, overflow) in [
        ("dtbl-core.agt_ns_per_insert_coalesce", false),
        ("dtbl-core.agt_ns_per_insert_overflow", true),
    ] {
        let mut agt = Agt::new(1024);
        agt.set_force_overflow(overflow);
        let mut tid = 0u32;
        out.push((
            name,
            ns_per_call(budget, || {
                tid = tid.wrapping_add(1);
                let r = agt
                    .insert(tid, info, || Some(0x9000_0000))
                    .expect("an overflow address is always offered");
                agt.tb_scheduled(r);
                u64::from(agt.tb_finished(r))
            }),
        ));
    }

    const GROUPS: u32 = 64;
    let two_tb = AggGroupInfo { ntb: 2, ..info };
    let per_drain = ns_per_call(budget, || {
        let mut pool = SchedulingPool::new(1024, 32);
        for t in 0..GROUPS {
            pool.coalesce(Some(0), true, t, two_tb, || Some(0x9000_0000 + t * 256));
        }
        while let Some(g) = pool.nagei(0) {
            pool.agt_mut().tb_scheduled(g);
            pool.agt_mut().tb_scheduled(g);
            pool.advance_nagei(0);
            pool.agt_mut().tb_finished(g);
            pool.agt_mut().tb_finished(g);
        }
        pool.stats().coalesced
    });
    out.push((
        "dtbl-core.pool_ns_per_coalesce",
        per_drain / f64::from(GROUPS),
    ));

    let mut fcfs = FcfsController::new(32);
    let mut kde = 0u32;
    out.push((
        "dtbl-core.fcfs_ns_per_mark",
        ns_per_call(budget, || {
            kde = (kde + 1) % 32;
            fcfs.mark_new(kde);
            fcfs.unmark(kde);
            fcfs.len() as u64
        }),
    ));
}

fn gpu_sim(budget: Duration, setup: &CellSetup, out: &mut Vec<(&'static str, f64)>) {
    let v = Variant::Dtbl;
    let program = &setup.program(v).0;
    let construct = ns_per_call(budget, || {
        let mut slot = WarmSlot::new();
        slot.bind(setup.run_cfg(v), program.clone());
        slot.cold_builds()
    });
    let mut slot = WarmSlot::new();
    slot.bind(setup.run_cfg(v), program.clone());
    let rebind = ns_per_call(budget, || {
        slot.bind(setup.run_cfg(v), program.clone());
        1
    });
    let cfg = GpuConfig::k20c();
    let hash = ns_per_call(budget, || black_box(&cfg).content_hash());
    out.push(("gpu-sim.construct_ms_per_cell", construct / 1e6));
    out.push(("gpu-sim.rebind_ms_per_cell", rebind / 1e6));
    out.push(("gpu-sim.content_hash_ns", hash));
}

fn gpu_trace(
    budget: Duration,
    trace: &gpu_trace::TraceData,
    report_line: &str,
    out: &mut Vec<(&'static str, f64)>,
) {
    // A fresh recorder every 4096 events keeps the buffer below its
    // limit, so `emit` never takes the drop path.
    const EMITS: u64 = 4096;
    let per_batch = ns_per_call(budget, || {
        let mut rec = Recorder::new(TraceConfig::all());
        for cycle in 0..EMITS {
            rec.emit(
                cycle,
                EventKind::WarpIssue {
                    smx: 1,
                    warp: 2,
                    lanes: 32,
                },
            );
        }
        rec.len() as u64
    });
    out.push(("gpu-trace.emit_ns_per_event", per_batch / EMITS as f64));

    let events = trace.events.len().max(1) as f64;
    let cells = [("cell".to_string(), trace.clone())];
    let jsonl = gpu_trace::export::jsonl(&cells);
    out.push((
        "gpu-trace.jsonl_ns_per_event",
        ns_per_call(budget, || gpu_trace::export::jsonl(&cells).len() as u64) / events,
    ));
    out.push((
        "gpu-trace.chrome_ns_per_event",
        ns_per_call(budget, || {
            gpu_trace::export::chrome_trace(&cells).len() as u64
        }) / events,
    ));
    out.push((
        "gpu-trace.parse_jsonl_ns_per_event",
        ns_per_call(budget, || {
            gpu_trace::export::parse_jsonl(&jsonl).map_or(0, |c| c.len() as u64)
        }) / events,
    ));
    let parse_ns = ns_per_call(budget, || u64::from(Json::parse(report_line).is_ok()));
    out.push((
        "gpu-trace.json_parse_mb_per_s",
        report_line.len() as f64 / 1e6 / (parse_ns / 1e9),
    ));
}

/// Daemon probes: a PING round trip, and how many of six served cells a
/// daemon restarted on its cache file serves as hits.
fn daemon_probes(budget: Duration, out_dir: &Path) -> Result<(f64, f64), String> {
    let cache = out_dir.join(format!("restart-cache-{}.jsonl", std::process::id()));
    let _ = std::fs::remove_file(&cache);
    let cells = Variant::ALL.map(|variant| Cell {
        bench: Benchmark::Amr,
        variant,
        scale: Scale::Test,
        traced: false,
    });
    let serve_all = |conn: &mut Conn| cells.iter().try_for_each(|c| conn.request(c).map(drop));

    let first = Daemon::start(Some(&cache))?;
    let mut conn = Conn::connect(first.addr(), "probe")?;
    let rtt_us = ns_per_call(budget, || u64::from(conn.ping().is_ok())) / 1e3;
    serve_all(&mut conn)?;
    drop(conn);
    first.stop();

    let second = Daemon::start(Some(&cache))?;
    let mut conn = Conn::connect(second.addr(), "probe")?;
    serve_all(&mut conn)?;
    let hits = conn.snapshot()?.counter("server.cache_hits");
    drop(conn);
    second.stop();
    let _ = std::fs::remove_file(&cache);
    Ok((rtt_us, hits as f64 / cells.len() as f64))
}

fn gpu_serve(
    budget: Duration,
    setup: &CellSetup,
    report: &workloads::RunReport,
    out_dir: &Path,
    out: &mut Vec<(&'static str, f64)>,
) {
    let submit =
        submit_to_json(&Cell::new("bfs_usa_road", "DTBLI", true).submit_spec("micro")).to_string();
    out.push((
        "gpu-serve.parse_request_ns",
        ns_per_call(budget, || {
            u64::from(parse_request(black_box(&submit)).is_ok())
        }),
    ));
    let encoded = report_to_json(report).to_string();
    out.push((
        "gpu-serve.report_encode_us",
        ns_per_call(budget, || {
            report_to_json(black_box(report)).to_string().len() as u64
        }) / 1e3,
    ));
    out.push((
        "gpu-serve.report_decode_us",
        ns_per_call(budget, || {
            let json = Json::parse(black_box(&encoded)).expect("own encoding parses");
            u64::from(report_from_json(&json).is_ok())
        }) / 1e3,
    ));

    let queue = AdmissionQueue::new(true);
    let mut job = 0u64;
    out.push((
        "gpu-serve.admission_ns_per_push_pop",
        ns_per_call(budget, || {
            job += 1;
            queue.push(
                Ticket {
                    client: "micro".into(),
                    job,
                    enqueued: Instant::now(),
                },
                1,
            );
            queue.pop().map_or(0, |t| t.job)
        }),
    ));

    // One cache file of every variant of the fixture cell, as a daemon
    // shutdown would write it.
    let entries: Vec<_> = Variant::ALL
        .iter()
        .map(|&v| (setup.cell_key(v), report.clone()))
        .collect();
    let file = out_dir.join(format!("persist-{}.jsonl", std::process::id()));
    let store = ns_per_call(budget, || {
        u64::from(persist::store(&file, &entries).is_ok())
    });
    let load = ns_per_call(budget, || persist::load(&file).0.len() as u64);
    let _ = std::fs::remove_file(&file);
    out.push(("gpu-serve.persist_store_ms", store / 1e6));
    out.push(("gpu-serve.persist_load_ms", load / 1e6));

    match daemon_probes(budget, out_dir) {
        Ok((rtt_us, restart_hits)) => {
            out.push(("gpu-serve.ping_rtt_us", rtt_us));
            out.push(("gpu-serve.restart_hit_frac", restart_hits));
        }
        Err(e) => eprintln!("daemon probes skipped: {e}"),
    }
}

/// Runs every micro-kernel for about `budget` each and returns
/// `(metric, value)` pairs. Files they need live under `benchmark/out`
/// and are removed again.
pub fn run_all(budget: Duration) -> Vec<(&'static str, f64)> {
    let mut out = Vec::new();
    let out_dir = crate::out_dir();
    let _ = std::fs::create_dir_all(&out_dir);

    // The fixtures: one small launch-bearing cell, traced, and its report.
    let mut cfg = GpuConfig::k20c();
    cfg.trace = TraceConfig::all();
    let fixture = CellSetup::new(Benchmark::Amr, Scale::Test, cfg)
        .and_then(|setup| setup.run(Variant::Dtbl).map(|report| (setup, report)));
    let Ok((setup, mut report)) = fixture else {
        eprintln!("micro-kernels skipped: the amr/DTBL fixture cell failed");
        return out;
    };
    let trace = report.trace.take().unwrap_or(gpu_trace::TraceData {
        events: Vec::new(),
        samples: Vec::new(),
        dropped: 0,
    });
    let report_line = report_to_json(&report).to_string();

    gpu_isa(budget, &mut out);
    gpu_mem(budget, &mut out);
    dtbl_core(budget, &mut out);
    gpu_sim(budget, &setup, &mut out);
    gpu_trace(budget, &trace, &report_line, &mut out);
    gpu_serve(budget, &setup, &report, &out_dir, &mut out);

    let mut rng = StdRng::seed_from_u64(1);
    out.push((
        "sim-rand.ns_per_u64",
        ns_per_call(budget, || rng.next_u64()),
    ));
    out
}
