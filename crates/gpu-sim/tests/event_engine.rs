//! The event-driven cycle engine's contract: identical `Stats` to
//! per-cycle stepping, far fewer executed steps on latency-bound spans,
//! and exact parameter-buffer heap accounting across kernel retirement.

use gpu_isa::{Dim3, KernelBuilder, Op, Program, Space};
use gpu_sim::{FaultPlan, Gpu, GpuConfig, SimError};
use gpu_trace::TraceConfig;

/// out[i] = in[i] + 1 over one warp.
fn one_warp_load_program() -> (Program, gpu_isa::KernelId) {
    let mut prog = Program::new();
    let mut b = KernelBuilder::new("inc", Dim3::x(32), 2);
    let gtid = b.global_tid();
    let inb = b.ld_param(0);
    let outb = b.ld_param(1);
    let a_in = b.mad(gtid, Op::Imm(4), Op::Reg(inb));
    let v = b.ld(Space::Global, a_in, 0);
    let v1 = b.iadd(v, Op::Imm(1));
    let a_out = b.mad(gtid, Op::Imm(4), Op::Reg(outb));
    b.st(Space::Global, a_out, 0, Op::Reg(v1));
    let k = prog.add(b.build().unwrap());
    (prog, k)
}

fn setup(cfg: GpuConfig) -> Gpu {
    let (prog, k) = one_warp_load_program();
    let mut gpu = Gpu::new(cfg, prog);
    let inp = gpu.malloc(32 * 4).unwrap();
    let out = gpu.malloc(32 * 4).unwrap();
    let data: Vec<u32> = (0..32).collect();
    gpu.mem_mut().write_slice_u32(inp, &data);
    gpu.launch(k, 1, &[inp, out], 0).unwrap();
    gpu
}

/// One warp put to sleep for 10 000 cycles by an injected memory wake
/// delay: the event engine must reach idle in a number of *steps*
/// proportional to the events, not the cycles — while producing stats
/// bit-identical to the per-cycle engine grinding through every cycle.
#[test]
fn sleeping_warp_reaches_idle_in_o_events_steps() {
    let fault = FaultPlan {
        mem_delay: 10_000,
        ..FaultPlan::default()
    };
    let mut evented_cfg = GpuConfig::test_small();
    evented_cfg.fault = fault;
    let mut percycle_cfg = evented_cfg.clone();
    percycle_cfg.force_per_cycle = true;

    let mut evented = setup(evented_cfg);
    let mut percycle = setup(percycle_cfg);
    let ev_stats = evented
        .run_to_idle()
        .expect("evented run converges")
        .clone();
    let pc_stats = percycle
        .run_to_idle()
        .expect("per-cycle run converges")
        .clone();

    assert_eq!(ev_stats, pc_stats, "the two engines must agree bit-for-bit");
    assert!(
        ev_stats.cycles > 10_000,
        "the injected delay must dominate the run ({} cycles)",
        ev_stats.cycles
    );
    assert_eq!(
        percycle.steps_executed(),
        pc_stats.cycles,
        "per-cycle mode steps every cycle"
    );
    assert!(
        evented.steps_executed() < ev_stats.cycles / 10,
        "event engine must skip the sleep: {} steps for {} cycles",
        evented.steps_executed(),
        ev_stats.cycles
    );
}

/// Sampled tracing must not switch the event engine off: with a metrics
/// sample every 1000 cycles the sample cycles are landing sites, so the
/// 10 000-cycle sleep costs about ten extra steps, not ten thousand — and
/// the events and samples are those of the per-cycle engine.
#[test]
fn sampled_tracing_still_skips_the_sleep() {
    let mut evented_cfg = GpuConfig::test_small();
    evented_cfg.fault = FaultPlan {
        mem_delay: 10_000,
        ..FaultPlan::default()
    };
    evented_cfg.trace = TraceConfig::all();
    let mut percycle_cfg = evented_cfg.clone();
    percycle_cfg.force_per_cycle = true;

    let mut evented = setup(evented_cfg);
    let mut percycle = setup(percycle_cfg);
    let ev_stats = evented.run_to_idle().expect("evented run").clone();
    let pc_stats = percycle.run_to_idle().expect("per-cycle run").clone();
    assert_eq!(ev_stats, pc_stats);
    assert!(
        evented.steps_executed() < ev_stats.cycles / 10,
        "sampled tracing must still skip: {} steps for {} cycles",
        evented.steps_executed(),
        ev_stats.cycles
    );

    let ev = evented.take_trace().expect("tracing was enabled");
    let pc = percycle.take_trace().expect("tracing was enabled");
    assert_eq!(ev.events, pc.events);
    assert_eq!(ev.samples, pc.samples);
    assert_eq!(ev.samples.len() as u64, (ev_stats.cycles - 1) / 1000);
    assert!(ev.samples.len() >= 10, "the sleep spans ten sample cycles");
}

/// Parameter-buffer heap accounting (satellite of the engine PR): two
/// kernels with different parameter counts must return `live_bytes` to
/// its pre-launch baseline once both retire — the retirement path frees
/// the *recorded* size of each buffer, not a fixed token.
#[test]
fn param_buffer_accounting_returns_to_baseline() {
    let mut prog = Program::new();
    // Kernel A: 2 params (8 bytes -> one 256-byte aligned slot).
    let mut a = KernelBuilder::new("two_params", Dim3::x(32), 2);
    let gtid = a.global_tid();
    let outb = a.ld_param(1);
    let addr = a.mad(gtid, Op::Imm(4), Op::Reg(outb));
    a.st(Space::Global, addr, 0, Op::Reg(gtid));
    let ka = prog.add(a.build().unwrap());
    // Kernel B: 70 params (280 bytes -> two aligned slots), so freeing a
    // fixed-size token instead of the recorded size cannot balance.
    let mut bb = KernelBuilder::new("many_params", Dim3::x(32), 70);
    let gtid = bb.global_tid();
    let outb = bb.ld_param(69);
    let addr = bb.mad(gtid, Op::Imm(4), Op::Reg(outb));
    bb.st(Space::Global, addr, 0, Op::Reg(gtid));
    let kb = prog.add(bb.build().unwrap());

    let mut gpu = Gpu::new(GpuConfig::test_small(), prog);
    let out = gpu.malloc(32 * 4).unwrap();
    let baseline = gpu.heap_live_bytes();

    gpu.launch(ka, 1, &[7, out], 0).unwrap();
    let mut params_b = vec![0u32; 70];
    params_b[69] = out;
    gpu.launch(kb, 1, &params_b, 1).unwrap();
    assert!(
        gpu.heap_live_bytes() >= baseline + 256 + 512,
        "both parameter buffers must be charged while the kernels run"
    );
    gpu.run_to_idle().expect("runs converge");
    assert_eq!(
        gpu.heap_live_bytes(),
        baseline,
        "retiring both kernels must release exactly the recorded bytes"
    );
}

/// The hang watchdog must fire at the identical cycle in both engines: a
/// kernel that waits forever on a barrier (one warp never arrives) makes
/// the whole machine quiet, so the event engine jumps straight to the
/// watchdog deadline instead of crawling there.
#[test]
fn watchdog_fires_at_identical_cycle_in_both_engines() {
    fn deadlock_gpu(force_per_cycle: bool) -> Gpu {
        let mut prog = Program::new();
        // A block demanding more shared memory than an SMX has can never
        // be placed: the kernel sits installed in the distributor with
        // nothing else running — a fully quiet machine with work left.
        let mut b = KernelBuilder::new("too_big", Dim3::x(32), 1);
        b.alloc_shared_words(16 * 1024); // 64 KiB > the 48 KiB per SMX
        let _ = b.imm(0);
        let k = prog.add(b.build().unwrap());
        let mut cfg = GpuConfig::test_small();
        cfg.watchdog_window = 5_000;
        cfg.force_per_cycle = force_per_cycle;
        let mut gpu = Gpu::new(cfg, prog);
        gpu.launch(k, 1, &[], 0).unwrap();
        gpu
    }

    let mut evented = deadlock_gpu(false);
    let mut percycle = deadlock_gpu(true);
    let ev = evented.run_to_idle().expect_err("must hang");
    let pc = percycle.run_to_idle().expect_err("must hang");
    match (&ev, &pc) {
        (SimError::Hang { report: a }, SimError::Hang { report: b }) => {
            assert_eq!(a.cycle, b.cycle, "watchdog cycle must match");
        }
        other => panic!("expected two hangs, got {other:?}"),
    }
    assert_eq!(evented.cycle(), percycle.cycle());
    assert!(
        evented.steps_executed() < percycle.steps_executed() / 100,
        "the event engine must jump to the deadline ({} vs {} steps)",
        evented.steps_executed(),
        percycle.steps_executed()
    );
}

// ---- pinned executed-step counts ---------------------------------------------

/// A GPU with its kernels launched, and the check of its final memory.
type Launched = (Gpu, Box<dyn Fn(&Gpu)>);

/// One synthetic multi-SMX kernel set, launched and ready to run.
struct Pinned {
    name: &'static str,
    build: fn(GpuConfig) -> Launched,
}

/// Each thread runs a 40-iteration multiply-add loop: pure ALU issue, no
/// memory until the final store.
fn alu_loop(cfg: GpuConfig) -> Launched {
    let mut prog = Program::new();
    let mut b = KernelBuilder::new("alu_loop", Dim3::x(96), 1);
    let gtid = b.global_tid();
    let acc = b.mov(Op::Reg(gtid));
    b.for_range(Op::Imm(0), Op::Imm(40), |b, i| {
        let t = b.mad(acc, Op::Imm(3), Op::Reg(i));
        b.mov_to(acc, Op::Reg(t));
    });
    let outb = b.ld_param(0);
    let addr = b.mad(gtid, Op::Imm(4), Op::Reg(outb));
    b.st(Space::Global, addr, 0, Op::Reg(acc));
    let k = prog.add(b.build().unwrap());
    let mut gpu = Gpu::new(cfg, prog);
    let n = 8 * 96;
    let out = gpu.malloc(n * 4).unwrap();
    gpu.launch(k, 8, &[out], 0).unwrap();
    let check = move |gpu: &Gpu| {
        for t in 0..n {
            let want = (0..40u32).fold(t, |acc, i| acc.wrapping_mul(3).wrapping_add(i));
            assert_eq!(gpu.mem().read_u32(out + 4 * t), want, "thread {t}");
        }
    };
    (gpu, Box::new(check))
}

/// Each thread sums four loads 33 words apart: uncoalesced traffic that
/// keeps most warps parked on memory.
fn strided_loads(cfg: GpuConfig) -> Launched {
    let mut prog = Program::new();
    let mut b = KernelBuilder::new("strided", Dim3::x(128), 2);
    let gtid = b.global_tid();
    let inb = b.ld_param(0);
    let outb = b.ld_param(1);
    let base = b.imul(gtid, Op::Imm(33 * 4));
    let a = b.iadd(base, Op::Reg(inb));
    let acc = b.imm(0);
    for k in 0..4 {
        let v = b.ld(Space::Global, a, k * 33 * 4);
        let t = b.iadd(acc, Op::Reg(v));
        b.mov_to(acc, Op::Reg(t));
    }
    let addr = b.mad(gtid, Op::Imm(4), Op::Reg(outb));
    b.st(Space::Global, addr, 0, Op::Reg(acc));
    let k = prog.add(b.build().unwrap());
    let mut gpu = Gpu::new(cfg, prog);
    let n = 6 * 128;
    let words = n * 33 + 4 * 33;
    let inp = gpu.malloc(words * 4).unwrap();
    let out = gpu.malloc(n * 4).unwrap();
    let data: Vec<u32> = (0..words).map(|i| i % 1000).collect();
    gpu.mem_mut().write_slice_u32(inp, &data);
    gpu.launch(k, 6, &[inp, out], 0).unwrap();
    let check = move |gpu: &Gpu| {
        for t in 0..n {
            let want: u32 = (0..4).map(|k| (t * 33 + k * 33) % 1000).sum();
            assert_eq!(gpu.mem().read_u32(out + 4 * t), want, "thread {t}");
        }
    };
    (gpu, Box::new(check))
}

/// Blocks of 97 threads (a one-lane partial warp) write shared memory,
/// meet at a barrier and read their neighbour's word.
fn barrier(cfg: GpuConfig) -> Launched {
    let mut prog = Program::new();
    let mut b = KernelBuilder::new("barrier", Dim3::x(97), 1);
    b.alloc_shared_words(97);
    let tid = b.s2r(gpu_isa::SReg::TidX);
    let gtid = b.global_tid();
    let saddr = b.imul(tid, Op::Imm(4));
    let v = b.imul(gtid, Op::Imm(7));
    b.st(Space::Shared, saddr, 0, Op::Reg(v));
    b.bar();
    let next = b.iadd(tid, Op::Imm(1));
    let wrapped = b.iremu(next, Op::Imm(97));
    let naddr = b.imul(wrapped, Op::Imm(4));
    let w = b.ld(Space::Shared, naddr, 0);
    let outb = b.ld_param(0);
    let addr = b.mad(gtid, Op::Imm(4), Op::Reg(outb));
    b.st(Space::Global, addr, 0, Op::Reg(w));
    let k = prog.add(b.build().unwrap());
    let mut gpu = Gpu::new(cfg, prog);
    let blocks = 10;
    let out = gpu.malloc(blocks * 97 * 4).unwrap();
    gpu.launch(k, blocks, &[out], 0).unwrap();
    let check = move |gpu: &Gpu| {
        for blk in 0..blocks {
            for t in 0..97 {
                let want = (blk * 97 + (t + 1) % 97) * 7;
                let got = gpu.mem().read_u32(out + 4 * (blk * 97 + t));
                assert_eq!(got, want, "block {blk} thread {t}");
            }
        }
    };
    (gpu, Box::new(check))
}

/// Two 32-thread parent blocks whose every thread launches a one-block
/// child, through `cudaLaunchDevice` or an aggregated group.
fn launches(cfg: GpuConfig, agg: bool) -> Launched {
    let mut prog = Program::new();
    let mut cb = KernelBuilder::new("child", Dim3::x(32), 1);
    let base = cb.ld_param(0);
    let tid = cb.s2r(gpu_isa::SReg::TidX);
    let addr = cb.mad(tid, Op::Imm(4), Op::Reg(base));
    let v = cb.iadd(tid, Op::Imm(5));
    cb.st(Space::Global, addr, 0, Op::Reg(v));
    let child = prog.add(cb.build().unwrap());
    let mut pb = KernelBuilder::new("parent", Dim3::x(32), 1);
    let out = pb.ld_param(0);
    let gtid = pb.global_tid();
    let buf = pb.get_param_buf(1);
    let slice = pb.imul(gtid, Op::Imm(32 * 4));
    let slice_base = pb.iadd(slice, Op::Reg(out));
    pb.st_param_word(buf, 0, Op::Reg(slice_base));
    if agg {
        pb.launch_agg(child, Op::Imm(1), buf);
    } else {
        pb.launch_device(child, Op::Imm(1), buf);
    }
    let parent = prog.add(pb.build().unwrap());
    let mut gpu = Gpu::new(cfg, prog);
    let out = gpu.malloc(64 * 32 * 4).unwrap();
    gpu.launch(parent, 2, &[out], 0).unwrap();
    let check = move |gpu: &Gpu| {
        for i in 0..64 * 32 {
            assert_eq!(gpu.mem().read_u32(out + 4 * i), i % 32 + 5, "element {i}");
        }
    };
    (gpu, Box::new(check))
}

const PINNED: [Pinned; 5] = [
    Pinned {
        name: "alu_loop",
        build: alu_loop,
    },
    Pinned {
        name: "strided_loads",
        build: strided_loads,
    },
    Pinned {
        name: "barrier",
        build: barrier,
    },
    Pinned {
        name: "device_launch",
        build: |cfg| launches(cfg, false),
    },
    Pinned {
        name: "agg_launch",
        build: |cfg| launches(cfg, true),
    },
];

/// `Gpu::steps_executed()` of each pinned kernel set under the event
/// engine. A lax horizon never changes a digest — it only adds no-op
/// steps — so these counts are the one place that sees it. A change that
/// moves a value must explain it, as it would for a golden file.
const PINNED_STEPS: [(&str, u64); 5] = [
    ("alu_loop", 1517),
    ("strided_loads", 1930),
    ("barrier", 151),
    ("device_launch", 1015),
    ("agg_launch", 1015),
];

#[test]
fn executed_steps_are_pinned() {
    let mut got = Vec::new();
    for p in &PINNED {
        let mut percycle_cfg = GpuConfig::test_small();
        percycle_cfg.force_per_cycle = true;
        let (mut evented, check) = (p.build)(GpuConfig::test_small());
        let (mut percycle, _) = (p.build)(percycle_cfg);
        let ev = evented.run_to_idle().expect("evented run").clone();
        let pc = percycle.run_to_idle().expect("per-cycle run").clone();
        assert_eq!(ev, pc, "{}: the two engines must agree bit-for-bit", p.name);
        check(&evented);
        assert!(evented.steps_executed() <= percycle.steps_executed());
        got.push((p.name, evented.steps_executed()));
    }
    assert_eq!(
        got, PINNED_STEPS,
        "executed steps moved; the new table is {got:#?}"
    );
}
